"""Hardening and self-checking subsystem (``repro.check``).

Three layers:

* **Ingestion hardening** — the structured error taxonomy in
  :mod:`repro.check.errors` (``TraceError`` kinds raised by
  :mod:`repro.workloads.trace`, ``ConfigError`` raised by
  ``SimConfig.validate()`` / ``EntanglingConfig.validate()``).
* **Runtime invariant sanitizer** — :mod:`repro.check.sanitize`, wired
  into a run via ``REPRO_SANITIZE=1`` (fatal) / ``REPRO_SANITIZE=report``
  (collect) or ``repro run --check``.
* **Crash-safe artifact IO** — :mod:`repro.check.artifacts`, the atomic
  write-replace helper used by every exporter.

Zero-cost contract: this ``__init__`` imports only the light ``errors``
and ``artifacts`` modules.  The sanitizer machinery loads lazily —
:func:`sanitizer_from_env` imports :mod:`repro.check.sanitize` only when
``REPRO_SANITIZE`` is actually set, so an unsanitized run keeps the
module out of ``sys.modules`` entirely (subprocess-pinned in
``tests/test_check_sanitizer.py``).
"""

from __future__ import annotations

import os
from typing import Any, Optional

from repro import _lazy_exports
from repro.check.artifacts import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
)
from repro.check.errors import (
    CheckError,
    ConfigError,
    InvariantViolation,
    TraceCRCError,
    TraceError,
    TraceHeaderError,
    TraceMagicError,
    TracePayloadError,
    TraceRecordError,
    TraceTruncatedError,
    TraceVersionError,
)

__all__ = [
    "CheckError",
    "ConfigError",
    "InvariantViolation",
    "TraceCRCError",
    "TraceError",
    "TraceHeaderError",
    "TraceMagicError",
    "TracePayloadError",
    "TraceRecordError",
    "TraceTruncatedError",
    "TraceVersionError",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "sanitize_mode_from_env",
    "sanitizer_from_env",
    "Sanitizer",
    "SanitizerReport",
]

#: Lazily resolved exports (see :mod:`repro`) so importing
#: :mod:`repro.check` for the error taxonomy or atomic IO never pulls in
#: the sanitizer (and its core-model imports).
_LAZY = {
    "Sanitizer": "repro.check.sanitize",
    "SanitizerReport": "repro.check.sanitize",
}

__getattr__, __dir__ = _lazy_exports(__name__, _LAZY)


def sanitize_mode_from_env(value: Optional[str] = None) -> Optional[str]:
    """Resolve ``REPRO_SANITIZE`` to ``None`` / ``"fatal"`` / ``"report"``.

    Unset, empty, ``0``, ``off``, ``false``, ``no`` disable the sanitizer;
    ``report``, ``collect``, ``warn`` select non-fatal collection; any
    other value (``1``, ``on``, ...) selects fatal mode.
    """
    if value is None:
        value = os.environ.get("REPRO_SANITIZE", "")
    value = value.strip().lower()
    if value in ("", "0", "off", "false", "no"):
        return None
    if value in ("report", "collect", "warn"):
        return "report"
    return "fatal"


def sanitizer_from_env() -> Optional[Any]:
    """Build a :class:`Sanitizer` if ``REPRO_SANITIZE`` requests one.

    Returns ``None`` — without importing the sanitizer module — when the
    environment does not opt in, preserving the zero-cost contract.
    """
    mode = sanitize_mode_from_env()
    if mode is None:
        return None
    from repro.check.sanitize import Sanitizer

    return Sanitizer(fatal=(mode == "fatal"))
