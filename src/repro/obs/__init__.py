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
bit-identical to a process that never imported this package.  Every
export resolves lazily (see :mod:`repro`): an untraced process must
never load the telemetry machinery (``tests/test_events.py`` pins this
with a subprocess check), and a plain run loads no ``repro.obs`` module
at all.
"""

from repro import _lazy_exports

_LAZY = {
    "EVENT_KINDS": "repro.obs.tracer",
    "EventBus": "repro.obs.events",
    "EventLedger": "repro.obs.events",
    "FlightRecorder": "repro.obs.events",
    "Metric": "repro.obs.registry",
    "MetricsHTTPServer": "repro.obs.exporthttp",
    "MetricsRegistry": "repro.obs.registry",
    "PhaseProfiler": "repro.obs.profiler",
    "PrefetchTracer": "repro.obs.tracer",
    "StatusAggregator": "repro.obs.events",
    "TelemetryEvent": "repro.obs.events",
    "TimelinessReport": "repro.obs.tracer",
    "TraceEvent": "repro.obs.tracer",
    "open_bus": "repro.obs.events",
    "read_events": "repro.obs.events",
    "registry_for_run": "repro.obs.registry",
    "write_chrome_trace": "repro.obs.chrometrace",
}

__all__ = list(_LAZY)

__getattr__, __dir__ = _lazy_exports(__name__, _LAZY)
