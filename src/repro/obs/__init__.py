"""Observability: tracing, metrics, profiling, events.

Independent facilities, all strictly opt-in:

* :mod:`repro.obs.tracer` — a ring-buffered, sampling-capable event
  tracer recording each prefetch's lifecycle (requested -> enqueued or
  dropped -> issued -> filled -> useful / late / wrong) plus L1I demand
  accesses, and the :class:`~repro.obs.tracer.TimelinessReport` derived
  from it (the paper's Figure 5/13 style analysis).
* :mod:`repro.obs.registry` — a unified metrics registry turning the
  ``SimStats`` / ``EntanglingStats`` / ``TableStats`` counter dataclasses
  into named, typed metrics with JSON, CSV and Prometheus-text exporters.
* :mod:`repro.obs.profiler` — wall-clock phase profiling for the
  simulator's four phases (fills / predict / issue / retire).
* :mod:`repro.obs.events` / :mod:`repro.obs.exporthttp` — the unified
  telemetry event bus (one versioned schema over heartbeat, fault,
  cache, stage-timing and sanitizer signals; workers send these same
  events over the engine's queue), the append-only JSONL run ledger,
  the crash flight recorder, the live progress line with stale-worker
  flags (a view of the bus's status aggregator), and the stdlib HTTP
  metrics endpoint serving a ledger's engine gauges as Prometheus text
  (``repro top LEDGER --metrics-port N``).
* :mod:`repro.obs.chrometrace` — the evaluation engine's execution
  trace (suite → task → attempt → backoff / cache lookup / pipeline
  stages) as Chrome trace-event JSON loadable in Perfetto, rendered
  from a list of telemetry events — live from a bus or from a ledger.

Overhead contract: a simulation constructed without a tracer or profiler
executes the exact pre-observability code paths — every hook site is a
single attribute-is-None check — and its ``SimStats.signature()`` is
bit-identical to a process that never imported this package.  The
event and trace submodules are *not* imported here (they
resolve lazily via ``__getattr__``): an untraced process must never
load the telemetry machinery (``tests/test_events.py`` pins this with
a subprocess check).
"""

from repro.obs.profiler import PhaseProfiler
from repro.obs.registry import Metric, MetricsRegistry, registry_for_run
from repro.obs.tracer import (
    EVENT_KINDS,
    PrefetchTracer,
    TimelinessReport,
    TraceEvent,
)

__all__ = [
    "EVENT_KINDS",
    "EventBus",
    "EventLedger",
    "FlightRecorder",
    "Metric",
    "MetricsHTTPServer",
    "MetricsRegistry",
    "PhaseProfiler",
    "PrefetchTracer",
    "StatusAggregator",
    "TelemetryEvent",
    "TimelinessReport",
    "TraceEvent",
    "open_bus",
    "read_events",
    "registry_for_run",
    "write_chrome_trace",
]

#: Lazily resolved exports (PEP 562): importing repro.obs must not load
#: the event/trace machinery — the zero-cost contract's
#: subprocess test asserts they stay out of untraced processes.
_LAZY = {
    "write_chrome_trace": ("repro.obs.chrometrace", "write_chrome_trace"),
    "EventBus": ("repro.obs.events", "EventBus"),
    "EventLedger": ("repro.obs.events", "EventLedger"),
    "FlightRecorder": ("repro.obs.events", "FlightRecorder"),
    "StatusAggregator": ("repro.obs.events", "StatusAggregator"),
    "TelemetryEvent": ("repro.obs.events", "TelemetryEvent"),
    "open_bus": ("repro.obs.events", "open_bus"),
    "read_events": ("repro.obs.events", "read_events"),
    "MetricsHTTPServer": ("repro.obs.exporthttp", "MetricsHTTPServer"),
}


def __getattr__(name):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
