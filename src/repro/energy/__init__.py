"""Cache-hierarchy energy model (CACTI-P-class, 22nm; paper Table IV).

Exports resolve lazily (see :mod:`repro`)."""

from repro import _lazy_exports

_LAZY = {
    "CacheEnergyParams": "repro.energy.cacti",
    "cacti_params_for": "repro.energy.cacti",
    "EnergyModel": "repro.energy.model",
    "EnergyReport": "repro.energy.model",
}

__all__ = list(_LAZY)

__getattr__, __dir__ = _lazy_exports(__name__, _LAZY)
