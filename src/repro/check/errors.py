"""Structured error taxonomy for ingestion hardening and the sanitizer.

Every class here is a :class:`ValueError` subclass so existing callers
(and tests) that catch ``ValueError`` keep working; the subclasses add
machine-readable context — file path, byte offset, record index, the
violated invariant — so tooling can triage failures without parsing
message strings.

The taxonomy:

* :class:`CheckError` — root of everything raised by ``repro.check``.
* :class:`TraceError` — a trace file failed ingestion.  Concrete kinds:
  :class:`TraceMagicError`, :class:`TraceVersionError`,
  :class:`TraceHeaderError`, :class:`TraceCRCError`,
  :class:`TracePayloadError` (zlib/struct-level payload damage),
  :class:`TraceTruncatedError`, :class:`TraceRecordError`.
* :class:`ConfigError` — a :class:`~repro.sim.config.SimConfig` or
  entangling variant violates a structural constraint.
* :class:`InvariantViolation` — the runtime sanitizer caught the
  simulated hardware model outside its declared contract.
"""

from __future__ import annotations

from typing import Optional


class CheckError(ValueError):
    """Root of the ``repro.check`` error taxonomy."""


class TraceError(CheckError):
    """A trace file failed ingestion.

    Attributes:
        path: the offending file.
        offset: byte offset of the first bad byte where known (file
            offset for header damage, payload offset for record damage).
        record_index: index of the first bad record where known.
    """

    def __init__(
        self,
        message: str,
        *,
        path: Optional[str] = None,
        offset: Optional[int] = None,
        record_index: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.path = path
        self.offset = offset
        self.record_index = record_index


class TraceMagicError(TraceError):
    """The file does not start with the ``EPTR`` magic."""


class TraceVersionError(TraceError):
    """The version byte names a format this reader does not speak."""


class TraceHeaderError(TraceError):
    """The header (name/category/count fields) is malformed or truncated."""


class TraceCRCError(TraceError):
    """The stored checksum does not match the file contents."""


class TracePayloadError(TraceError):
    """The record block is damaged at the zlib/struct level."""


class TraceTruncatedError(TraceError):
    """The record block is shorter than the declared record count."""


class TraceRecordError(TraceError):
    """An individual record fails field validation (bad branch type,
    reserved flag bit set, out-of-range PC or size)."""


class ConfigError(CheckError):
    """A simulator or prefetcher configuration violates a structural
    constraint (non-power-of-two sets, bit budget overflow, ...)."""


class InvariantViolation(CheckError):
    """The runtime sanitizer caught a hardware-model invariant breach.

    Attributes:
        invariant: short machine-readable name (e.g. ``confidence_range``).
        cycle: simulator cycle at which the breach was observed (if the
            violation was raised from inside a simulation).
        context: free-form state snapshot for debugging.
    """

    def __init__(
        self,
        message: str,
        *,
        invariant: str = "unknown",
        cycle: Optional[int] = None,
        context: Optional[dict] = None,
    ) -> None:
        super().__init__(message)
        self.invariant = invariant
        self.cycle = cycle
        self.context = dict(context or {})
