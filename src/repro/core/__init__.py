"""The Entangling Instruction Prefetcher — the paper's core contribution.

Public entry points:

* :class:`~repro.core.entangling.EntanglingPrefetcher` — the cost-effective
  prefetcher of Section III, configurable at 2K/4K/8K Entangled-table
  entries and for virtual or physical address training.
* :class:`~repro.core.entangling.EntanglingConfig` — all knobs, including
  the ablation switches used by :mod:`repro.core.variants`.
* :mod:`repro.core.variants` — the Figure 11 ablations (BB, BBEnt,
  BBEntBB, Ent, BBEntBB-Merge) and the EPI performance-oriented variant.

Exports resolve lazily (see :mod:`repro`).
"""

from repro import _lazy_exports

_LAZY = {
    "SaturatingCounter": "repro.core.confidence",
    "CompressionScheme": "repro.core.compression",
    "MODE_FIELD_BITS": "repro.core.compression",
    "HistoryBuffer": "repro.core.history",
    "HistoryEntry": "repro.core.history",
    "EntangledEntry": "repro.core.entangled_table",
    "EntangledTable": "repro.core.entangled_table",
    "EntanglingConfig": "repro.core.entangling",
    "EntanglingPrefetcher": "repro.core.entangling",
    "BlockSizeTable": "repro.core.split_table",
    "SplitEntanglingPrefetcher": "repro.core.split_table",
    "make_split_entangling": "repro.core.split_table",
    "ablation_variants": "repro.core.variants",
    "make_ablation": "repro.core.variants",
    "make_entangling": "repro.core.variants",
    "make_epi": "repro.core.variants",
}

__all__ = list(_LAZY)

__getattr__, __dir__ = _lazy_exports(__name__, _LAZY)
