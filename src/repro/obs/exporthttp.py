"""Stdlib-only HTTP metrics endpoint for mid-flight scraping.

Long evaluations (the full 959-trace x 15-config field, a multi-hour
tune) are opaque while they run unless something exposes their state.
:class:`MetricsHTTPServer` serves the existing
:class:`~repro.obs.registry.MetricsRegistry` Prometheus text (exposition
format 0.0.4) plus live engine gauges — running/done/failed/cached/ETA
from a :class:`~repro.obs.events.StatusAggregator` — over plain
``http.server``, no dependencies:

* ``GET /metrics`` (or ``/``) — Prometheus text;
* ``GET /healthz`` — liveness probe (``ok``).

The one source is the run ledger: :func:`ledger_metrics_source` folds
the bytes appended since the last scrape into the
:class:`~repro.obs.events.LedgerStatus` it shares with ``repro top``'s
refresh loop, so ``repro top LEDGER --metrics-port N`` watches an
evaluation that another process is still appending to (any run started
with ``--events``) and reads each ledger byte once.

Zero-cost contract: imported only when a metrics port is requested.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional

from repro.obs.events import LedgerStatus, StatusAggregator
from repro.obs.registry import MetricsRegistry

__all__ = [
    "MetricsHTTPServer",
    "ledger_metrics_source",
    "status_registry",
]


def status_registry(status: StatusAggregator) -> MetricsRegistry:
    """Engine gauges + per-type event counters as a metrics registry."""
    registry = MetricsRegistry()
    gauges = (
        ("repro_engine_tasks_total", status.total, "tasks in the evaluation"),
        ("repro_engine_done", status.done, "tasks completed (incl. cached)"),
        ("repro_engine_running", status.running, "tasks currently running"),
        ("repro_engine_failed", status.failed, "tasks quarantined"),
        ("repro_engine_cached", status.cached, "run-cache hits served"),
        ("repro_engine_suites_started", status.suites_started,
         "suite evaluations begun"),
        ("repro_engine_suites_finished", status.suites_finished,
         "suite evaluations completed"),
    )
    for name, value, help_text in gauges:
        registry.register(name, float(value), kind="gauge", help=help_text)
    eta = status.eta_seconds()
    if eta is not None:
        registry.register(
            "repro_engine_eta_seconds", float(eta), kind="gauge",
            help="estimated seconds until the evaluation completes",
        )
    for type_, count in sorted(status.counts.items()):
        registry.register(
            "repro_events_total", float(count), kind="counter",
            help="telemetry events published, by type",
            labels={"type": type_},
        )
    return registry


def ledger_metrics_source(ledger: LedgerStatus) -> Callable[[], str]:
    """Scrape source catching ``ledger`` up with its file on each request."""

    def render() -> str:
        with ledger.current() as status:
            registry = status_registry(status)
            torn, invalid = ledger.tail.torn, ledger.tail.invalid
        registry.register(
            "repro_events_torn", float(torn), kind="counter",
            help="torn tail records tolerated by the ledger reader",
        )
        registry.register(
            "repro_events_invalid", float(invalid), kind="counter",
            help="undecodable ledger lines skipped by the reader",
        )
        return registry.to_prometheus_text()

    return render


class _MetricsHandler(BaseHTTPRequestHandler):
    def do_GET(self) -> None:  # noqa: N802 — http.server API
        path = self.path.split("?", 1)[0]
        if path in ("/", "/metrics"):
            body = self.server.render_metrics().encode("utf-8")  # type: ignore[attr-defined]
            content_type = "text/plain; version=0.0.4; charset=utf-8"
            status = 200
        elif path == "/healthz":
            body = b"ok\n"
            content_type = "text/plain; charset=utf-8"
            status = 200
        else:
            body = b"not found\n"
            content_type = "text/plain; charset=utf-8"
            status = 404
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:  # silence per-request stderr noise
        pass


class MetricsHTTPServer:
    """A daemon-threaded scrape endpoint around any text-producing source.

    ``port=0`` binds a free port (read it back from :attr:`port`); the
    server never blocks the evaluation — requests are handled on daemon
    threads and a failing source renders as a comment, not a 500 storm.
    """

    def __init__(
        self,
        source: Callable[[], str],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._source = source
        self._httpd = ThreadingHTTPServer((host, port), _MetricsHandler)
        self._httpd.daemon_threads = True
        self._httpd.render_metrics = self._render  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self.host, self.port = self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def _render(self) -> str:
        try:
            return self._source()
        except Exception as exc:  # noqa: BLE001 — scraping must stay up
            return f"# metrics source failed: {type(exc).__name__}: {exc}\n"

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.2},
            daemon=True,
            name="repro-metrics-http",
        )
        self._thread.start()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
