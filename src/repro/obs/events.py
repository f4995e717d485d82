"""Unified telemetry: event bus, JSONL run ledger, crash flight recorder.

Every observability signal the evaluation engine produces — worker
heartbeats, executor attempts and quarantines, run-cache hits/misses,
sanitizer findings, suite lifecycle — is a silo with its own format
unless something unifies them.  This module is that something: one
versioned, structured :class:`TelemetryEvent` schema, one process-wide
:class:`EventBus` everything publishes into, and an append-only JSONL
**run ledger** (:class:`EventLedger`) so a long evaluation leaves a
durable, queryable record (``repro events`` / ``repro top``) and can be
scraped mid-flight (:mod:`repro.obs.exporthttp`).

Event routing is exactly-once by construction:

* everything a worker reports — its attempt lifecycle
  (``task_started``/``heartbeat``/``task_finished``/``task_failed``)
  and richer events such as sanitizer reports — is published through
  the :class:`WorkerEventRelay` installed as the worker's process bus,
  and crosses the worker→parent queue as one plain event dict; the
  parent's :class:`ProgressDrain` re-emits each onto the bus, which
  assigns one monotonic ``seq`` per event at publish time;
* parent-side executor verdicts (``attempt_failed``, ``backoff``,
  ``quarantined``) come from the :class:`EventObserver` hooked into
  ``map_resilient``;
* cache traffic (``cache_hit``/``cache_miss``/``cache_store``) comes
  from the :class:`~repro.analysis.runcache.RunCache`'s duck-typed
  ``publisher`` hook — a single ``is None`` check, no imports.

The bus's :class:`StatusAggregator` is the one state machine counting
a run: the live progress line (rendered by the drain), ``repro top``
and the metrics endpoint all read it, and replaying the ledger through
a fresh one reproduces the same line.

The **flight recorder** keeps a bounded ring of the most recent events;
when an attempt crashes, times out, or a task is quarantined, the ring
is dumped as an atomic JSON artifact (via :mod:`repro.check.artifacts`)
and linked from the run's
:class:`~repro.analysis.parallel.FaultReport` — a post-mortem of what
the fleet was doing when the worker died.

The Chrome/Perfetto trace is rendered from these same events
(:mod:`repro.obs.chrometrace`), live or from a ledger.

Zero-cost contract: nothing imports this module unless events, a trace
or live progress are explicitly requested (``run_suite(...,
events_path=)``, ``trace_path=`` or ``progress=``, ``REPRO_EVENTS``,
``REPRO_PROGRESS``, ``--events`` / ``--metrics-port`` / ``--trace`` /
``--progress``); an untraced run never loads it (subprocess-pinned in
``tests/test_events.py``) and is bit-identical.
"""

from __future__ import annotations

import json
import logging
import os
import re
import sys
import threading
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.check.artifacts import atomic_write_json

logger = logging.getLogger(__name__)

__all__ = [
    "SCHEMA_VERSION",
    "EVENT_TYPES",
    "TelemetryEvent",
    "EventBus",
    "EventLedger",
    "EventObserver",
    "FlightRecorder",
    "HEARTBEAT_INTERVAL",
    "LedgerRead",
    "ProgressDrain",
    "StatusAggregator",
    "WorkerEventRelay",
    "event_matches",
    "events_path_from_env",
    "follow_events",
    "get_event_bus",
    "open_bus",
    "read_events",
    "set_event_bus",
    "stale_threshold",
    "stream_supports_rewrite",
    "summarize_events",
]

#: Bumped whenever a field changes meaning; the reader rejects (counts as
#: invalid) records stamped with any other version instead of mis-parsing.
SCHEMA_VERSION = 1

#: The canonical vocabulary.  The bus accepts any type string (forward
#: compatibility for e.g. ``repro serve``), but everything the engine
#: publishes is one of these.
EVENT_TYPES = (
    "suite_started",    # one evaluation began (payload carries n_tasks)
    "suite_finished",   # ... and ended
    "task_started",     # a worker began attempt N of a task
    "heartbeat",        # the worker is still alive inside a task
    "task_finished",    # the worker completed the attempt successfully
    "task_failed",      # the attempt raised inside the worker
    "attempt_failed",   # the executor's verdict (incl. timeouts/pool breaks)
    "backoff",          # retry backoff sleep between rounds
    "quarantined",      # the task failed every attempt
    "cache_hit",        # run cache served a result
    "cache_miss",       # run cache had nothing
    "cache_store",      # run cache stored a fresh result
    "sanitizer",        # invariant sanitizer report for one run
    "flight_dump",      # a flight-recorder artifact was written
    "cache_evicted",    # the shared store evicted an entry (size/age)
    "lease_wait",       # a follower is coalescing on another process's run
    "store_degraded",   # ENOSPC/EIO degraded the shared store to read-only
)

#: Ledger rotation threshold (``REPRO_EVENTS_MAX_BYTES``): when an append
#: would push the file past this size it is rotated to ``<path>.1`` first.
DEFAULT_MAX_BYTES = 16 * 1024 * 1024

#: Flight-recorder ring capacity (``REPRO_FLIGHT_EVENTS``).
DEFAULT_FLIGHT_EVENTS = 64

#: Seconds between a running worker's heartbeats.
HEARTBEAT_INTERVAL = 1.0


def _env_positive_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = int(raw.strip())
    except ValueError:
        raise ValueError(
            f"{name} must be a positive integer, got {raw!r}"
        ) from None
    return value if value > 0 else default


def events_path_from_env() -> Optional[str]:
    """The ledger path from ``REPRO_EVENTS``, or None when unset/empty."""
    raw = os.environ.get("REPRO_EVENTS", "").strip()
    return raw or None


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------


@dataclass
class TelemetryEvent:
    """One structured telemetry record.

    ``seq`` is monotonic per publishing bus; ``ts`` is the wall clock at
    the *source* (a worker's relay stamps its own time/pid, so the record
    carries true provenance even though the parent assigns ``seq``).
    ``run`` is the :func:`~repro.analysis.runcache.run_key` fingerprint
    when known — the join key MANA-style cross-config comparisons need —
    and ``cycle`` is the simulated-cycle stamp for events that have one.
    """

    type: str
    seq: int = 0
    ts: float = 0.0
    pid: int = 0
    run: str = ""
    config: str = ""
    workload: str = ""
    attempt: Optional[int] = None
    cycle: Optional[int] = None
    payload: Dict[str, Any] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    @property
    def label(self) -> str:
        """The engine's ``config/workload`` task label (best effort)."""
        if self.config and self.workload:
            return f"{self.config}/{self.workload}"
        return self.config or self.workload

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "type": self.type,
            "seq": self.seq,
            "ts": self.ts,
            "pid": self.pid,
            "run": self.run,
            "config": self.config,
            "workload": self.workload,
            "attempt": self.attempt,
            "cycle": self.cycle,
            "payload": self.payload,
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Any) -> "TelemetryEvent":
        """Validate and rebuild; raises ``ValueError`` on any bad record."""
        if not isinstance(data, dict):
            raise ValueError("event record must be a JSON object")
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported event schema_version {version!r}")
        type_ = data.get("type")
        if not isinstance(type_, str) or not type_:
            raise ValueError("event record has no type")
        try:
            attempt = data.get("attempt")
            cycle = data.get("cycle")
            payload = data.get("payload")
            return cls(
                type=type_,
                seq=int(data.get("seq", 0)),
                ts=float(data.get("ts", 0.0)),
                pid=int(data.get("pid", 0)),
                run=str(data.get("run", "") or ""),
                config=str(data.get("config", "") or ""),
                workload=str(data.get("workload", "") or ""),
                attempt=None if attempt is None else int(attempt),
                cycle=None if cycle is None else int(cycle),
                payload=dict(payload) if isinstance(payload, dict) else {},
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed event record: {exc}") from None


# ---------------------------------------------------------------------------
# ledger (append-only JSONL, rotation, torn-tail-tolerant reader)
# ---------------------------------------------------------------------------


def rotated_path(path: str) -> str:
    return path + ".1"


class EventLedger:
    """Append-only JSONL event log safe for concurrent appenders.

    Each record is one compact-JSON line written with a *single*
    ``os.write`` to an ``O_APPEND`` descriptor: POSIX guarantees the
    kernel serializes such writes, so two processes appending to one
    ledger never interleave bytes within a record (pinned in
    ``tests/test_events.py``).  When an append would push the file past
    ``max_bytes`` the current file is rotated to ``<path>.1``
    (``os.replace``, atomic; a concurrent rotation by another process is
    tolerated).  Appends are best-effort: a full disk degrades telemetry,
    never the evaluation.
    """

    def __init__(self, path: str, max_bytes: Optional[int] = None) -> None:
        self.path = path
        self.max_bytes = (
            max_bytes
            if max_bytes is not None
            else _env_positive_int("REPRO_EVENTS_MAX_BYTES", DEFAULT_MAX_BYTES)
        )
        self.appended = 0
        self.dropped = 0
        self.rotations = 0
        self._fd: Optional[int] = None
        self._closed = False
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)

    def _ensure_fd(self) -> int:
        if self._fd is None:
            self._fd = os.open(
                self.path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644
            )
        return self._fd

    def _maybe_rotate(self, incoming: int) -> None:
        fd = self._ensure_fd()
        size = os.fstat(fd).st_size
        if size <= 0 or size + incoming <= self.max_bytes:
            return
        os.close(fd)
        self._fd = None
        try:
            os.replace(self.path, rotated_path(self.path))
            self.rotations += 1
        except OSError:
            pass  # another appender rotated first; just reopen
        self._ensure_fd()

    def append(self, event: TelemetryEvent) -> None:
        if self._closed:
            return
        line = (event.to_json_line() + "\n").encode("utf-8")
        try:
            self._fsfault()
            self._maybe_rotate(len(line))
            os.write(self._ensure_fd(), line)
            self.appended += 1
        except OSError as exc:
            self.dropped += 1
            if self.dropped == 1:
                # Log once: a full disk degrades telemetry, never the
                # evaluation — subsequent drops are only counted.
                logger.warning(
                    "event ledger %s is unwritable (%s); dropping events",
                    self.path, exc,
                )

    def _fsfault(self) -> None:
        """Chaos seam (:mod:`repro.check.fsfault`), zero-cost unless armed."""
        if (
            "repro.check.fsfault" not in sys.modules
            and not os.environ.get("REPRO_FSFAULT")
        ):
            return
        from repro.check.fsfault import fault_check

        fault_check("append", self.path, scope="ledger")

    def close(self) -> None:
        self._closed = True
        if self._fd is not None:
            try:
                os.close(self._fd)
            except OSError:
                pass
            self._fd = None


@dataclass
class LedgerRead:
    """Outcome of :func:`read_events`: valid events + damage accounting."""

    events: List[TelemetryEvent] = field(default_factory=list)
    torn: int = 0      # truncated tail record(s) — a writer died mid-append
    invalid: int = 0   # undecodable / wrong-schema lines elsewhere
    files: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.torn == 0 and self.invalid == 0


def _read_ledger_file(path: str, out: LedgerRead) -> None:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        return
    except OSError as exc:
        logger.warning("event ledger %s is unreadable (%s); skipping", path, exc)
        out.invalid += 1
        return
    out.files.append(path)
    if not raw:
        return
    lines = raw.split(b"\n")
    # A complete file ends with a newline, leaving one empty trailing
    # chunk; a non-empty final chunk is a torn append unless it happens
    # to parse (writer cut exactly before the newline).
    tail_torn = bool(lines and lines[-1])
    for position, line in enumerate(lines):
        if not line.strip():
            continue
        is_tail = tail_torn and position == len(lines) - 1
        try:
            data = json.loads(line.decode("utf-8"))
            out.events.append(TelemetryEvent.from_dict(data))
        except (ValueError, UnicodeDecodeError):
            if is_tail:
                out.torn += 1
            else:
                out.invalid += 1


def read_events(path: str, include_rotated: bool = True) -> LedgerRead:
    """Read a ledger without ever raising for damage.

    Mirrors :func:`repro.check.artifacts.load_json_guarded`: a missing
    file is a normal state (empty read), a torn tail — the one record a
    dying writer half-appended — is counted, skipped, and never kills the
    reader, and undecodable mid-file lines are counted separately so
    callers can distinguish "writer died" from "file corrupted".
    """
    out = LedgerRead()
    if include_rotated:
        _read_ledger_file(rotated_path(path), out)
    _read_ledger_file(path, out)
    return out


def _drain_lines(buffer: bytes) -> "tuple[List[TelemetryEvent], bytes]":
    """Split complete lines off ``buffer`` and decode them as events."""
    events: List[TelemetryEvent] = []
    while b"\n" in buffer:
        line, buffer = buffer.split(b"\n", 1)
        if not line.strip():
            continue
        try:
            events.append(
                TelemetryEvent.from_dict(json.loads(line.decode("utf-8")))
            )
        except (ValueError, UnicodeDecodeError):
            continue
    return events, buffer


def follow_events(
    path: str,
    duration: Optional[float] = None,
    poll: float = 0.5,
) -> Iterator[TelemetryEvent]:
    """Tail a ledger: yield complete appended records as they arrive.

    Only whole lines are yielded (a torn tail stays buffered until its
    writer finishes it or rotation resets the file).  ``duration`` bounds
    the follow (None = until interrupted).

    Rotation-safe: the follower holds the file *descriptor* open, so when
    an appender rotates the ledger (``os.replace`` to ``<path>.1``) the
    old inode is first drained to EOF — no record appended between the
    last poll and the swap is ever lost — and only then does the follower
    reopen ``path`` and continue from the head of the new file.  Rotation
    is detected by comparing ``os.stat(path).st_ino`` against the open
    descriptor's inode; in-place truncation (same inode, smaller size)
    restarts from offset 0.
    """
    deadline = None if duration is None else time.time() + duration
    buffer = b""
    fh = None
    try:
        while True:
            if fh is None:
                try:
                    fh = open(path, "rb")
                    buffer = b""
                except OSError:
                    fh = None
            rotated = False
            if fh is not None:
                # Reading the open descriptor reaches EOF of whatever
                # inode we hold — including one already renamed away.
                buffer += fh.read()
                events, buffer = _drain_lines(buffer)
                for event in events:
                    yield event
                try:
                    st = os.stat(path)
                    if st.st_ino != os.fstat(fh.fileno()).st_ino:
                        rotated = True
                    elif st.st_size < fh.tell():  # truncated in place
                        fh.seek(0)
                        buffer = b""
                except OSError:
                    rotated = True  # path vanished mid-rotation
                if rotated:
                    # Final drain of the old inode, then switch files
                    # immediately (no sleep: the new file is already live).
                    buffer += fh.read()
                    events, _torn = _drain_lines(buffer)
                    for event in events:
                        yield event
                    fh.close()
                    fh = None
                    buffer = b""
            if deadline is not None and time.time() >= deadline:
                return
            if not rotated:
                time.sleep(poll)
    finally:
        if fh is not None:
            fh.close()


def event_matches(
    event: TelemetryEvent,
    types: Optional[Sequence[str]] = None,
    run: Optional[str] = None,
    workload: Optional[str] = None,
    config: Optional[str] = None,
    since: Optional[float] = None,
    until: Optional[float] = None,
) -> bool:
    """The ``repro events`` filter predicate (all criteria AND together)."""
    if types and event.type not in types:
        return False
    if run is not None and event.run != run:
        return False
    if workload is not None and event.workload != workload:
        return False
    if config is not None and event.config != config:
        return False
    if since is not None and event.ts < since:
        return False
    if until is not None and event.ts > until:
        return False
    return True


def summarize_events(read: LedgerRead) -> Dict[str, Any]:
    """Counts per type + window + damage, for ``repro events --summary``."""
    counts: Dict[str, int] = {}
    first = last = None
    for event in read.events:
        counts[event.type] = counts.get(event.type, 0) + 1
        if event.ts:
            first = event.ts if first is None else min(first, event.ts)
            last = event.ts if last is None else max(last, event.ts)
    return {
        "total": len(read.events),
        "counts": counts,
        "torn": read.torn,
        "invalid": read.invalid,
        "files": read.files,
        "first_ts": first,
        "last_ts": last,
    }


# ---------------------------------------------------------------------------
# flight recorder
# ---------------------------------------------------------------------------


_SAFE_LABEL = re.compile(r"[^A-Za-z0-9._-]+")


def flight_artifact_name(label: str) -> str:
    return "flight-" + (_SAFE_LABEL.sub("_", label) or "task") + ".json"


class FlightRecorder:
    """Bounded ring of the most recent events, dumpable as a post-mortem.

    The ring rides along on every publish; only a crash/timeout/
    quarantine pays the dump cost.  Dumps go through the atomic artifact
    writer, so a reader never sees a half-written recording.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        self.capacity = (
            capacity
            if capacity is not None
            else _env_positive_int("REPRO_FLIGHT_EVENTS", DEFAULT_FLIGHT_EVENTS)
        )
        self.total_seen = 0
        self._ring: deque = deque(maxlen=self.capacity)

    def record(self, event: TelemetryEvent) -> None:
        self._ring.append(event)
        self.total_seen += 1

    def snapshot(self) -> List[TelemetryEvent]:
        return list(self._ring)

    def dump(
        self,
        path: str,
        reason: str,
        label: str = "",
        attempt: Optional[int] = None,
    ) -> str:
        """Write the ring as an atomic JSON artifact; returns ``path``."""
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "kind": "flight_recording",
            "reason": reason,
            "label": label,
            "attempt": attempt,
            "pid": os.getpid(),
            "dumped_at": time.time(),
            "capacity": self.capacity,
            "total_events_seen": self.total_seen,
            "events": [event.to_dict() for event in self._ring],
        }
        atomic_write_json(path, envelope, fsync=False)
        return path


# ---------------------------------------------------------------------------
# status aggregation (repro top / metrics endpoint)
# ---------------------------------------------------------------------------


#: Event kinds that define a task's lifecycle state (and hence create
#: rows in the status table); everything else only enriches.
_LIFECYCLE_KINDS = frozenset((
    "task_started", "heartbeat", "task_finished", "task_failed",
    "attempt_failed", "backoff", "quarantined", "cache_hit",
))


class StatusAggregator:
    """Engine status derived purely from the event stream.

    One implementation serves both the live path (the bus's own
    aggregator, read by the progress line and the metrics endpoint) and
    the offline path (``repro top`` replaying a ledger): feed events in
    order via :meth:`handle` and read ``running``/``done``/``failed``/
    ``cached``/:meth:`eta_seconds` at any point.

    Only the live path knows the wall clock, so only it calls
    :meth:`check_stale`; its flags add a ``stale`` suffix to the status
    line that a ledger replay does not have.
    """

    def __init__(self) -> None:
        self.total = 0
        self.done = 0
        self.failed = 0
        self.cached = 0
        self.counts: Dict[str, int] = {}
        self.suites_started = 0
        self.suites_finished = 0
        #: running labels whose worker went silent, in flag order (per suite)
        self.stale_tasks: List[str] = []
        self._state: Dict[str, Dict[str, Any]] = {}
        self._started_ts: Optional[float] = None
        self._last_ts: Optional[float] = None

    def handle(self, event: TelemetryEvent) -> None:
        self.counts[event.type] = self.counts.get(event.type, 0) + 1
        if event.ts:
            self._last_ts = (
                event.ts
                if self._last_ts is None
                else max(self._last_ts, event.ts)
            )
        kind = event.type
        if kind == "suite_started":
            self.suites_started += 1
            self.total += int(event.payload.get("n_tasks", 0) or 0)
            if self._started_ts is None and event.ts:
                self._started_ts = event.ts
            self.stale_tasks = []
            # A label's terminal event counts once per suite: a later
            # suite re-running (or re-serving) the same pair adds to
            # ``total`` again, so it must be able to add to ``done`` too.
            for label in [
                label for label, state in self._state.items()
                if state["status"] in ("done", "cached", "quarantined")
            ]:
                del self._state[label]
            return
        if kind == "suite_finished":
            self.suites_finished += 1
            return
        label = event.label
        if not label:
            if kind == "cache_hit":
                self.cached += 1
            return
        if kind not in _LIFECYCLE_KINDS:
            # Enrichment events (sanitizer, cache_miss/store, flight_dump)
            # refresh an existing task's liveness but never invent a row.
            state = self._state.get(label)
            if state is not None:
                state["last_seen"] = max(state["last_seen"], event.ts)
            return
        state = self._state.setdefault(
            label, {"status": "pending", "attempt": 0, "last_seen": event.ts}
        )
        state["last_seen"] = max(state["last_seen"], event.ts)
        if kind == "task_started":
            state["status"] = "running"
            state["attempt"] = event.attempt or 0
        elif kind == "task_finished":
            if state["status"] not in ("done", "cached"):
                state["status"] = "done"
                self.done += 1
        elif kind in ("task_failed", "attempt_failed"):
            # The executor may still retry; only quarantine is final.
            if state["status"] not in ("done", "cached", "quarantined"):
                state["status"] = "pending"
        elif kind == "quarantined":
            if state["status"] != "quarantined":
                state["status"] = "quarantined"
                self.failed += 1
        elif kind == "cache_hit":
            self.cached += 1
            if state["status"] not in ("done", "cached"):
                state["status"] = "cached"
                self.done += 1

    def check_stale(self, now: float, stale_after: float) -> List[str]:
        """Flag running labels last seen more than ``stale_after`` ago.

        A worker that stopped beating (killed, wedged interpreter, dead
        pulse thread) is flagged before the executor's task timeout
        fires.  Each label is flagged once; returns the newly flagged.
        """
        flagged = [
            label
            for label, state in self._state.items()
            if state["status"] == "running"
            and label not in self.stale_tasks
            and now - state["last_seen"] > stale_after
        ]
        self.stale_tasks.extend(flagged)
        return flagged

    @property
    def running(self) -> int:
        return sum(
            1 for s in self._state.values() if s["status"] == "running"
        )

    def eta_seconds(self) -> Optional[float]:
        if (
            self.done <= 0
            or self._started_ts is None
            or self._last_ts is None
        ):
            return None
        elapsed = self._last_ts - self._started_ts
        if elapsed <= 0:
            return None
        remaining = max(0, self.total - self.done - self.failed)
        return remaining * (elapsed / self.done)

    def status_line(self) -> str:
        eta = self.eta_seconds()
        eta_text = f"{eta:.0f}s" if eta is not None else "?"
        line = (
            f"status: {self.done}/{self.total} done, "
            f"{self.running} running, {self.failed} failed, "
            f"{self.cached} cached, ETA {eta_text}"
        )
        if self.stale_tasks:
            shown = ", ".join(self.stale_tasks[:3])
            more = ", ..." if len(self.stale_tasks) > 3 else ""
            line += f", {len(self.stale_tasks)} stale ({shown}{more})"
        return line

    def rows(self) -> List[List[Any]]:
        """Per-task table rows for ``repro top``: label/status/attempt/age."""
        now = self._last_ts or 0.0
        out = []
        for label in sorted(self._state):
            state = self._state[label]
            age = max(0.0, now - state["last_seen"]) if state["last_seen"] else 0.0
            out.append([label, state["status"], state["attempt"], f"{age:.1f}s"])
        return out


# ---------------------------------------------------------------------------
# the bus
# ---------------------------------------------------------------------------


class EventBus:
    """Process-wide publish point: stamps, counts, persists, fans out.

    ``emit`` assigns the monotonic ``seq`` and default wall/pid stamps,
    feeds the flight-recorder ring and the status aggregator, appends to
    the ledger (all under one lock, so ledger order == seq order within
    this process), then notifies subscribers.  A subscriber exception is
    swallowed: telemetry must never take the evaluation down.
    """

    def __init__(
        self,
        ledger: Optional[EventLedger] = None,
        flight: Optional[FlightRecorder] = None,
        status: Optional[StatusAggregator] = None,
    ) -> None:
        self.ledger = ledger
        self.flight = flight
        self.status = status
        self.counts: Dict[str, int] = {}
        self._seq = 0
        self._lock = threading.Lock()
        self._subscribers: List[Callable[[TelemetryEvent], None]] = []

    @property
    def flight_dir(self) -> Optional[str]:
        """Where flight recordings land: next to the ledger, if any."""
        if self.ledger is None:
            return None
        return os.path.dirname(os.path.abspath(self.ledger.path))

    def subscribe(self, fn: Callable[[TelemetryEvent], None]) -> None:
        self._subscribers.append(fn)

    def unsubscribe(self, fn: Callable[[TelemetryEvent], None]) -> None:
        """Remove a subscriber added with :meth:`subscribe` (no-op if absent)."""
        if fn in self._subscribers:
            self._subscribers.remove(fn)

    def emit(
        self,
        type: str,
        *,
        label: str = "",
        config: str = "",
        workload: str = "",
        run: str = "",
        attempt: Optional[int] = None,
        cycle: Optional[int] = None,
        ts: Optional[float] = None,
        pid: Optional[int] = None,
        payload: Optional[Dict[str, Any]] = None,
    ) -> TelemetryEvent:
        if not config and not workload and label:
            config, _, workload = label.partition("/")
        event = TelemetryEvent(
            type=str(type),
            ts=float(ts) if ts is not None else time.time(),
            pid=int(pid) if pid is not None else os.getpid(),
            run=run or "",
            config=config or "",
            workload=workload or "",
            attempt=attempt,
            cycle=cycle,
            payload=dict(payload) if payload else {},
        )
        with self._lock:
            self._seq += 1
            event.seq = self._seq
            self.counts[event.type] = self.counts.get(event.type, 0) + 1
            if self.flight is not None:
                self.flight.record(event)
            if self.status is not None:
                self.status.handle(event)
            if self.ledger is not None:
                self.ledger.append(event)
        for fn in list(self._subscribers):
            try:
                fn(event)
            except Exception:  # noqa: BLE001 — subscribers never kill a run
                logger.debug("event subscriber failed", exc_info=True)
        return event

    def close(self) -> None:
        if self.ledger is not None:
            self.ledger.close()


def open_bus(
    events_path: Optional[str] = None,
    flight_capacity: Optional[int] = None,
) -> EventBus:
    """A ready-to-use bus: ledger (if a path is given) + flight + status."""
    ledger = EventLedger(events_path) if events_path else None
    return EventBus(
        ledger=ledger,
        flight=FlightRecorder(capacity=flight_capacity),
        status=StatusAggregator(),
    )


# -- process-wide slot ------------------------------------------------------

_process_bus: Optional[Any] = None


def get_event_bus() -> Optional[Any]:
    """The installed process bus (an :class:`EventBus` or a worker relay)."""
    return _process_bus


def set_event_bus(bus: Optional[Any]) -> Optional[Any]:
    """Install the process bus; returns the previous one for restoration."""
    global _process_bus
    previous = _process_bus
    _process_bus = bus
    return previous


# ---------------------------------------------------------------------------
# engine plumbing: worker relay, progress drain, attempt observer
# ---------------------------------------------------------------------------


def stale_threshold(timeout: Optional[float]) -> float:
    """When a silent running task counts as stale.

    Half the task timeout (so the flag raises *before* the executor's
    timeout fires, which is the point), floored at two heartbeats; four
    heartbeats when no timeout is configured.
    """
    if timeout is not None and timeout > 0:
        return max(2.0 * HEARTBEAT_INTERVAL, 0.5 * timeout)
    return 4.0 * HEARTBEAT_INTERVAL


def stream_supports_rewrite(stream: Any) -> bool:
    """Whether the status line may rewrite itself in place (``\\r``).

    Only an interactive terminal gets carriage-return rewriting; piped
    output, CI logs, ``NO_COLOR`` (https://no-color.org — users asking
    for dumb output), and ``TERM=dumb`` all get plain newline-delimited
    lines so the log stays greppable.
    """
    if os.environ.get("NO_COLOR"):
        return False
    if os.environ.get("TERM", "").strip().lower() == "dumb":
        return False
    isatty = getattr(stream, "isatty", None)
    try:
        return bool(isatty and isatty())
    except Exception:  # noqa: BLE001 — exotic stream objects
        return False


class WorkerEventRelay:
    """Worker-side stand-in for the bus: forwards events over the queue.

    Installed (via :func:`set_event_bus`) around each task attempt by
    ``execute_task_attempt`` whenever the parent passed it a queue.  The
    relay reports the attempt itself — ``task_started`` from
    :meth:`start`, a ``heartbeat`` every :data:`HEARTBEAT_INTERVAL`
    seconds from a daemon pulse thread, then ``task_finished`` or
    ``task_failed`` from :meth:`finish` — and worker-side publishers
    (the sanitizer path in ``run_single``) discover "the bus" exactly
    like parent-side code does.  Each emit crosses the queue as one
    plain event dict (the keyword arguments of :meth:`EventBus.emit`)
    carrying the worker's own pid/ts stamps; the parent's
    :class:`ProgressDrain` re-emits it and the bus assigns ``seq``.

    The relay also sits in the stage-profiler slot for the attempt
    (:func:`repro.obs.profiler.set_stage_profiler`): each pipeline
    ``stage()`` block is appended to :attr:`stages` as
    ``[name, start, end]`` (epoch seconds) and forwarded to ``chain``,
    the profiler installed before it.  ``task_finished`` carries the
    list as ``payload["stages"]``.
    """

    def __init__(
        self,
        queue: Any,
        label: str,
        attempt: Optional[int] = None,
        chain: Optional[Any] = None,
    ):
        self.queue = queue
        self.label = label
        self.attempt = attempt
        self.chain = chain
        self.stages: List[List[Any]] = []
        self._done = threading.Event()
        self._pulse: Optional[threading.Thread] = None

    def start(self) -> None:
        """Publish ``task_started`` and begin beating."""
        self.emit("task_started")
        self._pulse = threading.Thread(
            target=self._beat, daemon=True, name=f"heartbeat-{self.label}"
        )
        self._pulse.start()

    def _beat(self) -> None:
        # The pulse proves the *process* is alive: a wedged worker whose
        # interpreter still schedules threads keeps beating, but an
        # OOM-killed or os._exit-ed one goes silent — exactly the case
        # the parent flags as stale before its task timeout expires.
        while not self._done.wait(HEARTBEAT_INTERVAL):
            self.emit("heartbeat")

    def finish(self, ok: bool) -> None:
        """Stop beating; publish ``task_finished`` or ``task_failed``."""
        self._done.set()
        if self._pulse is not None:
            self._pulse.join(timeout=2.0)
        if ok:
            self.emit("task_finished", payload={"stages": self.stages})
        else:
            self.emit("task_failed")

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        chained = (
            self.chain.stage(name) if self.chain is not None else nullcontext()
        )
        started = time.time()
        try:
            with chained:
                yield
        finally:
            self.stages.append([name, started, time.time()])

    def emit(self, type: str, **fields: Any) -> None:
        """Queue the keyword arguments of :meth:`EventBus.emit`."""
        record = {
            "label": self.label,
            "attempt": self.attempt,
            "ts": time.time(),
            "pid": os.getpid(),
        }
        record.update((k, v) for k, v in fields.items() if v is not None)
        record["type"] = str(type)
        try:
            self.queue.put(record)
        except Exception:  # noqa: BLE001 — telemetry never kills a worker
            pass


class ProgressDrain:
    """Parent side of the worker queue, and the live progress line.

    Each :meth:`pump` re-emits every queued event dict onto ``bus``
    (filling ``run`` from ``label_keys``), flags running tasks whose
    heartbeats stopped (:meth:`StatusAggregator.check_stale`), and
    renders the bus's ``status.status_line()`` to ``stream``: throttled,
    only when it changed, and rewritten in place (``\\r``) on an
    interactive terminal.  Drive it with :meth:`start`/:meth:`close` (a
    daemon thread pumps every :attr:`POLL` seconds) or by calling
    :meth:`pump` manually (tests pass a fake ``clock``).
    """

    POLL = 0.2

    def __init__(
        self,
        bus: EventBus,
        queue: Any,
        stale_after: float,
        stream: Optional[Any] = None,
        label_keys: Optional[Dict[str, str]] = None,
        throttle: float = 0.5,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if bus.status is None:
            bus.status = StatusAggregator()
        self.bus = bus
        self.stream = stream
        self.label_keys = label_keys if label_keys is not None else {}
        self.stale_after = stale_after
        self.throttle = throttle
        self.clock = clock
        self.queue = queue
        #: labels this drain flagged stale (fold into the FaultReport)
        self.stale_tasks: List[str] = []
        self._last_render = 0.0
        self._last_line = ""
        self._rewrite: Optional[bool] = None  # decided at first render
        self._line_width = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        """Begin pumping from a daemon thread."""
        self._thread = threading.Thread(
            target=self._loop, daemon=True, name="progress-drain"
        )
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self.POLL):
            self.pump()

    def pump(self) -> None:
        """Drain pending events, refresh staleness, maybe render."""
        self._update()
        self._render()

    def close(self) -> None:
        """Stop the thread, drain what's left, render a final line.

        Safe on any termination path — ``KeyboardInterrupt`` mid-suite, a
        Manager whose process already died, a closed stream: every step
        is guarded, the final line is *always* attempted (even when
        throttling suppressed every intermediate render), and a
        rewriting status line is terminated with a newline so the shell
        prompt does not land mid-line.
        """
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=2.0)
        self._update()
        self._render(force=True)
        if self._rewrite and self.stream is not None:
            try:
                self.stream.write("\n")
                self.stream.flush()
            except Exception:  # noqa: BLE001 — closed stream
                pass

    def _update(self) -> None:
        self._drain()
        with self.bus._lock:
            flagged = self.bus.status.check_stale(
                self.clock(), self.stale_after
            )
        self.stale_tasks.extend(flagged)

    def _drain(self) -> None:
        while True:
            try:
                record = self.queue.get_nowait()
            except Exception:  # noqa: BLE001 — Empty, dead Manager proxy, ...
                return
            try:
                if not record.get("run"):
                    record["run"] = self.label_keys.get(record.get("label"), "")
                self.bus.emit(**record)
            except Exception:  # noqa: BLE001 — telemetry is advisory
                logger.debug("dropped malformed worker event", exc_info=True)

    def _render(self, force: bool = False) -> None:
        if self.stream is None:
            return
        now = self.clock()
        if not force and now - self._last_render < self.throttle:
            return
        with self.bus._lock:
            line = self.bus.status.status_line()
        if not force and line == self._last_line:
            return
        if self._rewrite is None:
            self._rewrite = stream_supports_rewrite(self.stream)
        self._last_render = now
        self._last_line = line
        try:
            if self._rewrite:
                # Rewrite in place, blank-padding any residue of a longer
                # previous line; close() appends the terminating newline.
                padding = " " * max(0, self._line_width - len(line))
                self.stream.write("\r" + line + padding)
                self.stream.flush()
                self._line_width = len(line)
            else:
                print(line, file=self.stream, flush=True)
        except Exception:  # noqa: BLE001 — closed stream must not kill a run
            pass


class EventObserver:
    """An ``AttemptObserver`` publishing executor verdicts onto the bus.

    Covers what workers cannot report about themselves: timeouts, pool
    breaks, validation rejects (``attempt_failed``), retry backoffs, and
    quarantines — and triggers the flight-recorder dump for each, so a
    crash artifact exists even when the worker died without a word.
    The attempt's own ``task_started``/``task_finished`` come from the
    worker (``WorkerEventRelay``), never from here.
    """

    def __init__(
        self,
        bus: EventBus,
        flight_dir: Optional[str] = None,
        label_keys: Optional[Dict[str, str]] = None,
    ) -> None:
        self.bus = bus
        self.flight_dir = flight_dir
        self.label_keys = label_keys or {}
        #: label -> flight-recording artifact path (folds into FaultReport)
        self.flight_paths: Dict[str, str] = {}

    # -- AttemptObserver protocol ------------------------------------------

    def attempt_started(self, label: str, attempt: int) -> None:
        pass

    def attempt_finished(
        self, label: str, attempt: int, ok: bool, error: Optional[str] = None
    ) -> None:
        if ok:
            return
        reason = error or "attempt failed"
        self.bus.emit(
            "attempt_failed",
            label=label,
            run=self.label_keys.get(label, ""),
            attempt=attempt,
            payload={"error": reason},
        )
        self._dump(label, attempt, reason)

    def backoff(
        self, attempt: int, started: float, ended: float, pending: int
    ) -> None:
        self.bus.emit(
            "backoff",
            attempt=attempt,
            ts=ended,
            payload={
                "seconds": round(ended - started, 6),
                "pending": pending,
            },
        )

    # -- engine extras ------------------------------------------------------

    def quarantined(self, label: str, attempts: int, error: str) -> None:
        """Publish a final quarantine verdict (called once per task)."""
        self.bus.emit(
            "quarantined",
            label=label,
            run=self.label_keys.get(label, ""),
            attempt=attempts,
            payload={"error": error},
        )
        self._dump(label, attempts, f"quarantined: {error}")

    def _dump(self, label: str, attempt: int, reason: str) -> None:
        if self.flight_dir is None or self.bus.flight is None:
            return
        path = os.path.join(self.flight_dir, flight_artifact_name(label))
        try:
            self.bus.flight.dump(path, reason=reason, label=label, attempt=attempt)
        except OSError:
            logger.warning("could not write flight recording %s", path)
            return
        self.flight_paths[label] = path
        self.bus.emit(
            "flight_dump",
            label=label,
            payload={"path": path, "reason": reason},
        )
