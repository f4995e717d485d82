"""Trace-driven front-end simulator substrate (ChampSim-like).

The simulator models the instruction-supply path of a modern out-of-order
core the way the paper's modified ChampSim does: a decoupled front end with
a fetch-target queue (FTQ) implementing Fetch-Directed Prefetching, branch
prediction (gshare + BTB + RAS + indirect target cache), a blocking-free
L1I with MSHRs and a prefetch queue, an L2/LLC/DRAM hierarchy, and a
retire-width-limited back end with stage-dependent misprediction penalties.
"""

from repro.sim.config import SimConfig
from repro.sim.stats import SimStats
from repro.sim.cache import CacheLine, SetAssociativeCache
from repro.sim.mshr import MshrEntry, MshrFile
from repro.sim.prefetch_queue import PrefetchQueue
from repro.sim.memory import MemoryHierarchy
from repro.sim.branch_predictor import GsharePredictor
from repro.sim.btb import BranchTargetBuffer
from repro.sim.ras import ReturnAddressStack
from repro.sim.indirect import IndirectTargetCache
from repro.sim.fetchunits import FetchUnit, FetchUnits, build_fetch_units
from repro.sim.simulator import SimResult, Simulator, simulate

__all__ = [
    "SimConfig",
    "SimStats",
    "CacheLine",
    "SetAssociativeCache",
    "MshrEntry",
    "MshrFile",
    "PrefetchQueue",
    "MemoryHierarchy",
    "GsharePredictor",
    "BranchTargetBuffer",
    "ReturnAddressStack",
    "IndirectTargetCache",
    "FetchUnit",
    "FetchUnits",
    "build_fetch_units",
    "SimResult",
    "Simulator",
    "simulate",
]
