"""Entangling configurations: standard sizes, Figure 11 ablations, and EPI.

Figure 11 decomposes the prefetcher's performance into:

* **BB** — prefetch only the current basic block on an access to its head.
* **BBEnt** — BB plus each entangled destination *line*.
* **BBEntBB** — BB plus each destination's whole basic block.
* **Ent** — entangle raw cache lines, no basic-block tracking at all.
* **BBEntBB-Merge** — the full proposal (BBEntBB plus block merging).

EPI is the performance-oriented, hardly-implementable IPC-1 winner: a
~1000-entry history and a 34-way, >8K-entry Entangled table (127.9KB).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

from repro.core.entangling import EntanglingConfig, EntanglingPrefetcher

#: Each Figure 11 variant and the EntanglingConfig switches it turns off.
_ABLATION_OFF = {
    "BB": ("prefetch_dsts", "prefetch_dst_bb", "merge_blocks"),
    "BBEnt": ("prefetch_dst_bb", "merge_blocks"),
    "BBEntBB": ("merge_blocks",),
    "Ent": ("track_basic_blocks", "prefetch_src_bb", "prefetch_dst_bb", "merge_blocks"),
    "BBEntBB-Merge": (),
}
ABLATION_NAMES = tuple(_ABLATION_OFF)


def make_entangling(
    entries: int = 4096, address_space: str = "virtual"
) -> EntanglingPrefetcher:
    """The full cost-effective prefetcher at 2K/4K/8K entries."""
    config = EntanglingConfig(entries=entries, address_space=address_space)
    return EntanglingPrefetcher(config)


def ablation_config(variant: str, entries: int = 4096) -> EntanglingConfig:
    """The config of one Figure 11 ablation variant: the full design with
    the variant's mechanisms switched off."""
    if variant not in _ABLATION_OFF:
        raise ValueError(f"unknown ablation variant {variant!r}; "
                         f"choose from {ABLATION_NAMES}")
    off = dict.fromkeys(_ABLATION_OFF[variant], False)
    return replace(EntanglingConfig(entries=entries), **off)


def make_ablation(variant: str, entries: int = 4096) -> EntanglingPrefetcher:
    """One of the Figure 11 ablation variants."""
    prefetcher = EntanglingPrefetcher(ablation_config(variant, entries))
    prefetcher.name = f"{variant}-{entries // 1024}K"
    return prefetcher


def ablation_variants(entries: int = 4096) -> Dict[str, EntanglingPrefetcher]:
    """All Figure 11 variants at one table size."""
    return {name: make_ablation(name, entries) for name in ABLATION_NAMES}


def make_epi() -> EntanglingPrefetcher:
    """EPI: the performance-oriented Entangling prefetcher (IPC-1 winner).

    Models the paper's description: a very large (1024-entry) history
    buffer and a 34-way Entangled table with more than 8K entries.
    Reported storage: 127.9KB.
    """
    config = EntanglingConfig(
        entries=34 * 256,
        ways=34,
        history_size=1024,
        merge_distance=15,
        storage_override_kb=127.9,
    )
    prefetcher = EntanglingPrefetcher(config)
    prefetcher.name = "EPI"
    return prefetcher


def entangling_sweep(address_space: str = "virtual") -> List[EntanglingPrefetcher]:
    """The three cost-effective configurations the paper evaluates."""
    return [make_entangling(entries, address_space) for entries in (2048, 4096, 8192)]
