"""Chrome trace-event JSON rendered from telemetry events.

The trace is a pure function of a list of
:class:`~repro.obs.events.TelemetryEvent`\\ s: ``run_suite(trace_path=)``
renders the events its bus saw during the call, and applying the same
renderer to ``read_events(ledger).events`` reproduces that trace offline.
Spans derived from the events:

* ``suite`` — ``suite_started`` → ``suite_finished`` (nested suites nest);
* ``attempt`` (cat ``executor``) — ``task_started`` → ``task_finished`` |
  ``task_failed`` | ``attempt_failed``, paired per (label, attempt) in
  timestamp order, one display lane per label on the suite process; an
  attempt with an ``attempt_failed`` verdict is error-tagged with its
  ``error``;
* ``task`` — one summary per label on the same lane: attempt count,
  ``cached`` when a ``cache_hit`` was seen, error when quarantined;
* ``workload_build`` / ``fetch_units`` / ``simulate`` (cat ``stage``) —
  the worker's pipeline stages, carried by ``task_finished`` as
  ``payload["stages"]`` and drawn on the worker's pid;
* ``backoff`` — from ``ts - seconds`` to ``ts``;
* ``cache_lookup`` — zero-duration, ``args.hit`` from ``cache_hit`` /
  ``cache_miss``.

Every ``ts`` is ``time.time()`` at its source, and CLOCK_REALTIME is
shared by all processes on one host, so worker and parent stamps share
one axis without normalization.

Emits the subset of the Trace Event Format that Perfetto and
``chrome://tracing`` load: complete events (``"ph": "X"``) with
microsecond ``ts``/``dur`` on per-``(pid, tid)`` tracks, plus
``process_name`` metadata per pid.  Error spans carry
``args.status == "error"`` and a ``cname`` so they stand out.

Open the written file at https://ui.perfetto.dev (drag and drop) or via
``chrome://tracing`` → Load.
"""

from __future__ import annotations

import json
from typing import IO, Any, Dict, List, Optional, Sequence, Union

__all__ = ["to_chrome_trace", "write_chrome_trace"]

_ATTEMPT_TYPES = frozenset(
    ("task_started", "task_finished", "task_failed", "attempt_failed")
)


def _span(
    name: str, cat: str, start: float, end: float, pid: int, tid: int = 1,
    error: Optional[str] = None, **args: Any,
) -> Dict[str, Any]:
    if error is not None:
        args["error"] = error
    return {
        "name": name, "cat": cat, "start": start, "end": max(start, end),
        "pid": pid, "tid": tid, "args": args,
        "status": "ok" if error is None else "error",
    }


def _pair_attempts(events: Sequence[Any]) -> List[List[Any]]:
    """``[start, end, error]`` per attempt of one (label, attempt) key.

    ``events`` are in timestamp order.  A worker's ``task_failed`` /
    ``task_finished`` closes its attempt; the executor's later
    ``attempt_failed`` verdict (crash, validation reject, pool break)
    then error-tags that window, or closes a window the worker never
    closed (killed, timed out), or stands alone at zero width when the
    attempt never started (pool broke before a worker picked it up).
    Serial fallback reuses attempt numbers, so one key may hold several
    windows.
    """
    windows: List[List[Any]] = []
    opened: Optional[float] = None
    taggable: Optional[List[Any]] = None  # closed by the worker itself
    for event in events:
        if event.type == "task_started":
            opened, taggable = event.ts, None
        elif event.type == "attempt_failed":
            error = str(event.payload.get("error", "attempt failed"))
            if opened is not None:
                windows.append([opened, event.ts, error])
            elif taggable is not None:
                taggable[2] = error
            else:
                windows.append([event.ts, event.ts, error])
            opened = taggable = None
        elif opened is not None:  # else: a stray report, already resolved
            taggable = [opened, event.ts, None]
            windows.append(taggable)
            opened = None
    if opened is not None:  # the ledger ends mid-attempt
        windows.append([opened, events[-1].ts, None])
    return windows


def to_chrome_trace(events: Sequence[Any]) -> Dict[str, Any]:
    """Telemetry events -> a Chrome trace-event JSON object.

    Input order does not matter (events are sorted by ``(ts, seq)``);
    trace time zero is the earliest span start.
    """
    ordered = sorted(events, key=lambda e: (e.ts, e.seq))
    suite_pids = [e.pid for e in ordered if e.type == "suite_started"]
    home = suite_pids[0] if suite_pids else (ordered[0].pid if ordered else 0)
    last_ts = ordered[-1].ts if ordered else 0.0
    spans: List[Dict[str, Any]] = []
    open_suites: List[Any] = []
    attempts: Dict[Any, List[Any]] = {}
    cache_hits: Dict[str, float] = {}
    quarantined: Dict[str, str] = {}
    for event in ordered:
        kind = event.type
        if kind == "suite_started":
            open_suites.append(event)
        elif kind == "suite_finished" and open_suites:
            started = open_suites.pop()
            spans.append(_span(
                "suite", "suite", started.ts, event.ts, started.pid,
                **{**started.payload, **event.payload},
            ))
        elif kind in _ATTEMPT_TYPES:
            attempts.setdefault((event.label, event.attempt), []).append(event)
            if kind == "task_finished":
                for name, start, end in event.payload.get("stages", ()):
                    spans.append(_span(
                        name, "stage", start, end, event.pid,
                        label=event.label, attempt=event.attempt,
                    ))
        elif kind == "backoff":
            seconds = float(event.payload.get("seconds", 0.0))
            spans.append(_span(
                "backoff", "executor", event.ts - seconds, event.ts,
                event.pid, attempt=event.attempt,
                pending=event.payload.get("pending"),
            ))
        elif kind in ("cache_hit", "cache_miss"):
            hit = kind == "cache_hit"
            spans.append(_span(
                "cache_lookup", "cache", event.ts, event.ts, event.pid,
                label=event.label, hit=hit,
            ))
            if hit:
                cache_hits.setdefault(event.label, event.ts)
        elif kind == "quarantined":
            quarantined[event.label] = str(event.payload.get("error", ""))
    for started in reversed(open_suites):  # the ledger ends mid-suite
        spans.append(_span(
            "suite", "suite", started.ts, last_ts, started.pid,
            **started.payload,
        ))

    per_label: Dict[str, List[Dict[str, Any]]] = {}
    for (label, attempt), group in attempts.items():
        per_label.setdefault(label, []).extend(
            _span(
                "attempt", "executor", start, end, home, error=error,
                label=label, attempt=attempt,
            )
            for start, end, error in _pair_attempts(group)
        )
    # One display lane per label on the suite process, so concurrent
    # attempts render as parallel tracks instead of overlapping.
    labels = sorted(set(per_label) | set(cache_hits) | set(quarantined))
    for tid, label in enumerate(labels, start=2):
        tried = sorted(per_label.get(label, ()), key=lambda s: s["start"])
        for span in tried:
            span["tid"] = tid
        spans.extend(tried)
        bounds = [s["start"] for s in tried] + [s["end"] for s in tried]
        extra = {}
        if label in cache_hits:
            bounds.append(cache_hits[label])
            extra["cached"] = True
        spans.append(_span(
            "task", "executor", min(bounds, default=last_ts),
            max(bounds, default=last_ts), home, tid,
            error=quarantined.get(label), label=label, attempts=len(tried),
            **extra,
        ))

    origin = min((s["start"] for s in spans), default=0.0)
    trace_events: List[Dict[str, Any]] = [
        {
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {
                "name": ("suite" if pid in suite_pids else "worker")
                + f" (pid {pid})"
            },
        }
        for pid in sorted({s["pid"] for s in spans})
    ]
    for s in spans:
        event: Dict[str, Any] = {
            "name": s["name"],
            "cat": s["cat"],
            "ph": "X",
            "ts": round((s["start"] - origin) * 1e6, 3),
            "dur": round((s["end"] - s["start"]) * 1e6, 3),
            "pid": s["pid"],
            "tid": s["tid"],
            "args": {**s["args"], "status": s["status"]},
        }
        if s["status"] == "error":
            event["cname"] = "terrible"  # red in the trace viewer palette
        trace_events.append(event)
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.obs.chrometrace"},
    }


def write_chrome_trace(
    events: Sequence[Any], path_or_file: Union[str, IO[str]]
) -> Dict[str, Any]:
    """Render ``events`` and write the trace to ``path_or_file``; returns it."""
    trace = to_chrome_trace(events)
    if hasattr(path_or_file, "write"):
        json.dump(trace, path_or_file, indent=1)
    else:
        with open(path_or_file, "w") as fh:
            json.dump(trace, fh, indent=1)
            fh.write("\n")
    return trace
