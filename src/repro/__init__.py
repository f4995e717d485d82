"""repro — reproduction of *A Cost-Effective Entangling Prefetcher for
Instructions* (Ros & Jimborean, ISCA 2021).

Quick start::

    from repro import EntanglingPrefetcher, SimConfig, simulate
    from repro.workloads import cvp_suite, make_workload

    trace = make_workload(cvp_suite(per_category=1)[0])
    result = simulate(trace, EntanglingPrefetcher())
    print(result.stats.summary())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.

Package exports are lazy (PEP 562): every package's ``__init__`` maps
each exported name to its defining module in a ``_LAZY`` table, and the
module is imported on the name's first use.  So a process loads only the
modules it executes, and ``import repro`` loads nothing else.
"""

import importlib
import sys
from typing import Any, Callable, Dict, List, Tuple

__version__ = "1.0.0"


def _lazy_exports(
    package: str, table: Dict[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of a package whose
    exports ``table`` maps to their defining modules.  A resolved name
    is cached in the package, so only its first use pays the lookup."""

    def __getattr__(name: str) -> Any:
        module_name = table.get(name)
        if module_name is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module_name), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return __getattr__, __dir__


_LAZY = {
    "EntanglingConfig": "repro.core.entangling",
    "EntanglingPrefetcher": "repro.core.entangling",
    "make_ablation": "repro.core.variants",
    "make_entangling": "repro.core.variants",
    "make_epi": "repro.core.variants",
    "InstructionPrefetcher": "repro.prefetchers.base",
    "NullPrefetcher": "repro.prefetchers.base",
    "available_prefetchers": "repro.prefetchers.registry",
    "make_prefetcher": "repro.prefetchers.registry",
    "SimConfig": "repro.sim.config",
    "SimResult": "repro.sim.simulator",
    "Simulator": "repro.sim.simulator",
    "simulate": "repro.sim.simulator",
    "Trace": "repro.workloads.trace",
    "cvp_suite": "repro.workloads.generators",
    "make_workload": "repro.workloads.generators",
}

__all__ = [*_LAZY, "__version__"]

__getattr__, __dir__ = _lazy_exports(__name__, _LAZY)
