"""Name-based prefetcher factory.

Every evaluated configuration of the paper's Figure 6, and the split-table
extension, is constructible by name, so experiment drivers and benchmarks
can be parameterized by plain strings (and run as scheduler tasks).  Fresh instances are returned on every call (prefetchers are
stateful).
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, List, Tuple

from repro.prefetchers.base import InstructionPrefetcher

#: name -> (defining module, factory in it, keyword arguments).  The
#: module is imported when :func:`make_prefetcher` first builds the name,
#: so a process loads only the prefetchers it runs.
_FACTORIES: Dict[str, Tuple[str, str, Dict[str, Any]]] = {
    "no": ("repro.prefetchers.base", "NullPrefetcher", {}),
    "next_line": ("repro.prefetchers.next_line", "NextLinePrefetcher", {}),
    "sn4l": ("repro.prefetchers.sn4l", "SN4LPrefetcher", {}),
    "mana_2k": ("repro.prefetchers.mana", "ManaPrefetcher", {"entries": 2048}),
    "mana_4k": ("repro.prefetchers.mana", "ManaPrefetcher", {"entries": 4096}),
    "mana_8k": ("repro.prefetchers.mana", "ManaPrefetcher", {"entries": 8192}),
    "pif": ("repro.prefetchers.pif", "PifPrefetcher", {}),
    "rdip": ("repro.prefetchers.rdip", "RdipPrefetcher", {}),
    "djolt": ("repro.prefetchers.djolt", "DJoltPrefetcher", {}),
    "fnl_mma": ("repro.prefetchers.fnl_mma", "FnlMmaPrefetcher", {}),
    "epi": ("repro.core.variants", "make_epi", {}),
    "entangling_2k": ("repro.core.variants", "make_entangling", {"entries": 2048}),
    "entangling_4k": ("repro.core.variants", "make_entangling", {"entries": 4096}),
    "entangling_8k": ("repro.core.variants", "make_entangling", {"entries": 8192}),
    "entangling_2k_phys": (
        "repro.core.variants", "make_entangling",
        {"entries": 2048, "address_space": "physical"},
    ),
    "entangling_4k_phys": (
        "repro.core.variants", "make_entangling",
        {"entries": 4096, "address_space": "physical"},
    ),
    "entangling_8k_phys": (
        "repro.core.variants", "make_entangling",
        {"entries": 8192, "address_space": "physical"},
    ),
    # The split Entangled table (pairs and block sizes in separate
    # structures) at two budgets.
    "entangling_split_1k": (
        "repro.core.split_table", "make_split_entangling",
        {"pair_entries": 1024, "size_entries": 2048},
    ),
    "entangling_split_2k": (
        "repro.core.split_table", "make_split_entangling",
        {"pair_entries": 2048, "size_entries": 4096},
    ),
    "ideal": ("repro.prefetchers.ideal", "IdealPrefetcher", {}),
}


def available_prefetchers() -> List[str]:
    """All registered configuration names."""
    return sorted(_FACTORIES)


def make_prefetcher(name: str) -> InstructionPrefetcher:
    """Instantiate a fresh prefetcher by configuration name.

    Raises:
        KeyError: unknown name (message lists the valid ones).
    """
    entry = _FACTORIES.get(name)
    if entry is None:
        raise KeyError(
            f"unknown prefetcher {name!r}; available: {available_prefetchers()}"
        )
    module, factory, kwargs = entry
    return getattr(importlib.import_module(module), factory)(**kwargs)
