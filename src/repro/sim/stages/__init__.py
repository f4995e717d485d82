"""Simulator backends: the reference oracle and the staged fast core.

Two interchangeable engines drive the same front-end model (see
DESIGN.md §11):

* ``"reference"`` — the original per-cycle
  :class:`~repro.sim.simulator.Simulator`; the correctness anchor.
* ``"staged"`` — :class:`~repro.sim.stages.core.StagedSimulator`: stage
  modules over array-of-struct state, event-skipping, and one monolithic
  streak loop driven by each trace's
  :func:`~repro.sim.stages.plan.front_end_plan`.

Both backends produce bit-identical
:meth:`~repro.sim.stats.SimStats.signature` results; only wall-clock
telemetry differs.  :func:`resolve_backend` picks the engine from the
config field and the ``REPRO_BACKEND`` environment variable.
"""

from __future__ import annotations

import logging
import os
from typing import Optional, Tuple, Type

from repro.sim.config import BACKENDS

from repro.sim.stages.core import StagedSimulator
from repro.sim.stages.plan import FrontEndPlan, front_end_plan
from repro.sim.stages.state import FastCache, FastLine, FastMetaCache

__all__ = [
    "StagedSimulator",
    "FrontEndPlan",
    "front_end_plan",
    "FastCache",
    "FastLine",
    "FastMetaCache",
    "resolve_backend",
    "backend_from_env",
]

logger = logging.getLogger(__name__)

#: Backend choices already announced via the startup log line, so a
#: sweep of hundreds of runs logs each distinct selection once.
_announced: set = set()


def backend_from_env() -> Optional[str]:
    """The ``REPRO_BACKEND`` override, validated; None when unset.

    Raises:
        ValueError: the variable names an unknown backend.
    """
    raw = os.environ.get("REPRO_BACKEND")
    if raw is None or not raw.strip():
        return None
    value = raw.strip().lower()
    if value not in BACKENDS:
        raise ValueError(
            f"REPRO_BACKEND must be one of {', '.join(BACKENDS)}, "
            f"got {raw!r} (e.g. REPRO_BACKEND=staged)"
        ) from None
    return value


def _select(config_backend: Optional[str]) -> Tuple[str, str]:
    """(requested backend, why) from the config field and the env."""
    if config_backend is not None and config_backend != "reference":
        return config_backend, "config"
    env_backend = backend_from_env()
    if env_backend is not None:
        return env_backend, "REPRO_BACKEND"
    return "reference", "default"


def resolve_backend(config_backend: Optional[str] = None) -> Type:
    """Map a backend choice to a simulator class.

    An explicit non-default ``config.backend`` wins; otherwise the
    ``REPRO_BACKEND`` environment variable fills in; otherwise the
    reference engine runs.
    """
    chosen, source = _select(config_backend)
    key = (chosen, source)
    if key not in _announced:
        _announced.add(key)
        logger.info("simulator backend: %s via %s", chosen, source)
    if chosen == "reference":
        from repro.sim.simulator import Simulator

        return Simulator
    return StagedSimulator
