"""Wall-clock phase profiling.

:class:`PhaseProfiler` accumulates seconds and call counts per named
phase.  The simulator uses it to time its four per-cycle phases (fills /
predict / issue / retire).  The analysis pipeline's stages (trace
construction, fetch-unit preprocessing, simulation) are timed by the
worker's telemetry relay instead
(:meth:`repro.obs.events.WorkerEventRelay.stage`).

Profiling is host-side telemetry only: it never touches architectural
state, so a profiled run's ``SimStats.signature()`` equals an unprofiled
run's.  When no profiler is attached the hook sites are a ``None`` check.
"""

from __future__ import annotations

import time
from typing import Callable, Dict

#: The simulator's per-cycle phases, in execution order.
SIM_PHASES = ("fills", "predict", "issue", "retire")


class PhaseProfiler:
    """Accumulates wall-clock seconds and call counts per phase name."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        self.calls[name] = self.calls.get(name, 0) + calls

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A callable timing every invocation of ``fn`` under ``name``.

        Used by the simulator to instrument its phase methods only when a
        profiler is attached — the unprofiled loop calls ``fn`` directly.
        """
        perf_counter = time.perf_counter
        seconds = self.seconds
        calls = self.calls
        seconds.setdefault(name, 0.0)
        calls.setdefault(name, 0)

        def timed(*args, **kwargs):
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += perf_counter() - started
                calls[name] += 1

        return timed

    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def snapshot(self) -> Dict[str, float]:
        """Seconds per phase, rounded-trip-safe for JSON telemetry."""
        return dict(self.seconds)

    def format(self, title: str = "Phase profile") -> str:
        lines = [title]
        total = self.total_seconds()
        for name in sorted(self.seconds, key=lambda n: -self.seconds[n]):
            seconds = self.seconds[name]
            share = 100.0 * seconds / total if total > 0 else 0.0
            lines.append(
                f"  {name:12s} {seconds:8.3f}s  {share:5.1f}%  "
                f"({self.calls.get(name, 0)} calls)"
            )
        lines.append(f"  {'(total)':12s} {total:8.3f}s")
        return "\n".join(lines)

