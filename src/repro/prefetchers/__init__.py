"""Instruction prefetchers: the shared interface and all evaluated baselines.

The Entangling prefetcher itself (the paper's contribution) lives in
:mod:`repro.core`; this package provides the event-driven interface every
prefetcher implements plus from-scratch reimplementations of the paper's
comparison points: Next-line, SN4L, MANA, RDIP, D-JOLT, FNL+MMA, EPI, and
the Ideal prefetcher — plus PIF, the temporal-streaming reference point
of the related-work discussion.

Exports resolve lazily (see :mod:`repro`), and the registry imports a
prefetcher's module only when :func:`make_prefetcher` builds one.
"""

from repro import _lazy_exports

_LAZY = {
    "FillInfo": "repro.prefetchers.base",
    "InstructionPrefetcher": "repro.prefetchers.base",
    "NullPrefetcher": "repro.prefetchers.base",
    "PrefetchRequest": "repro.prefetchers.base",
    "NextLinePrefetcher": "repro.prefetchers.next_line",
    "SN4LPrefetcher": "repro.prefetchers.sn4l",
    "ManaPrefetcher": "repro.prefetchers.mana",
    "PifPrefetcher": "repro.prefetchers.pif",
    "RdipPrefetcher": "repro.prefetchers.rdip",
    "DJoltPrefetcher": "repro.prefetchers.djolt",
    "FnlMmaPrefetcher": "repro.prefetchers.fnl_mma",
    "IdealPrefetcher": "repro.prefetchers.ideal",
    "available_prefetchers": "repro.prefetchers.registry",
    "make_prefetcher": "repro.prefetchers.registry",
}

__all__ = list(_LAZY)

__getattr__, __dir__ = _lazy_exports(__name__, _LAZY)
