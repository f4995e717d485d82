"""Trace-driven front-end simulator substrate (ChampSim-like).

The simulator models the instruction-supply path of a modern out-of-order
core the way the paper's modified ChampSim does: a decoupled front end with
a fetch-target queue (FTQ) implementing Fetch-Directed Prefetching, branch
prediction (gshare + BTB + RAS + indirect target cache), a blocking-free
L1I with MSHRs and a prefetch queue, an L2/LLC/DRAM hierarchy, and a
retire-width-limited back end with stage-dependent misprediction penalties.

Exports resolve lazily (see :mod:`repro`); the staged engine
(:mod:`repro.sim.stages`) loads on ``simulate()``'s first call.
"""

from repro import _lazy_exports

_LAZY = {
    "SimConfig": "repro.sim.config",
    "SimStats": "repro.sim.stats",
    "CacheLine": "repro.sim.cache",
    "SetAssociativeCache": "repro.sim.cache",
    "MshrEntry": "repro.sim.mshr",
    "MshrFile": "repro.sim.mshr",
    "PrefetchQueue": "repro.sim.prefetch_queue",
    "MemoryHierarchy": "repro.sim.memory",
    "GsharePredictor": "repro.sim.branch_predictor",
    "BranchTargetBuffer": "repro.sim.btb",
    "ReturnAddressStack": "repro.sim.ras",
    "IndirectTargetCache": "repro.sim.indirect",
    "FetchUnit": "repro.sim.fetchunits",
    "FetchUnits": "repro.sim.fetchunits",
    "build_fetch_units": "repro.sim.fetchunits",
    "SimResult": "repro.sim.simulator",
    "Simulator": "repro.sim.simulator",
    "simulate": "repro.sim.simulator",
}

__all__ = list(_LAZY)

__getattr__, __dir__ = _lazy_exports(__name__, _LAZY)
