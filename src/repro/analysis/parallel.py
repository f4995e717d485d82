"""The one scheduler: fault-tolerant process-pool fan-out of simulations.

Per-(configuration, workload) simulations are embarrassingly parallel:
traces are regenerated deterministically from hashable
:class:`~repro.workloads.generators.WorkloadSpec`\\ s, every worker gets a
fresh prefetcher, and the simulator touches no shared mutable state.
:func:`run_tasks_parallel` fans a sequence of :class:`RunTask`\\ s out to
a ``ProcessPoolExecutor`` and returns the results in task order, so
``jobs=N`` is bit-identical to ``jobs=1`` for every architectural
counter.  It is the only scheduler: ``run_suite`` builds its
(config, workload) product, ``repro tune`` sends genome batches, and
``repro sweep`` and guarded ``repro run`` send trace-file tasks, and
every simulation runs in :func:`execute_task_attempt`.

At the paper's full evaluation scale (959 traces x ~15 configurations) a
single crashed or hung worker must not kill hours of simulation, so the
executor layer is fault tolerant:

* every task gets up to ``1 + retries`` attempts (``REPRO_TASK_RETRIES``)
  with capped exponential backoff between rounds
  (``REPRO_TASK_BACKOFF``);
* a per-task timeout (``REPRO_TASK_TIMEOUT`` seconds) bounds how long
  the runner waits on any one future; a round that saw timeouts replaces
  the pool, since a truly hung task poisons its worker slot forever;
* a ``BrokenProcessPool`` (worker killed by the OS, ``os._exit``, OOM)
  degrades gracefully to in-process serial execution of the remaining
  tasks instead of raising;
* tasks that fail every attempt are *quarantined* — reported in the
  :class:`FaultReport`, never fatal — so ``run_suite`` always returns a
  complete or explicitly partial result.

Workers return *detached* results (stats without the live prefetcher
object); consumers that require the live object (e.g. the Figure 12-15
internals driver) use the serial path.

For testing, the worker entry point carries a fault-injection hook
(``REPRO_FAULT_INJECT=mode:fraction[:scope]`` with modes ``crash`` /
``hang`` / ``corrupt`` / ``exit``); see :class:`FaultInjector`.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import multiprocessing
import os
import queue as queue_module
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.checkpoint import CheckpointManifest
from repro.analysis.experiments import (
    resolve_config,
    resolve_warmup,
    run_single,
)
from repro.analysis.runcache import RunCache, run_key
from repro.analysis.store import (
    LeaseKeeper,
    await_result,
    coalesce_enabled,
)
from repro.core.entangling import EntanglingConfig
from repro.sim.config import SimConfig
from repro.sim.simulator import SimResult
from repro.workloads.generators import WorkloadSpec

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# retry policy
# ---------------------------------------------------------------------------


def _env_int(name: str, default: int, minimum: int = 0) -> int:
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = int(raw.strip())
    except ValueError:
        raise ValueError(
            f"{name} must be an integer, got {raw!r} (e.g. {name}=2)"
        ) from None
    return max(minimum, value)


def _env_float(name: str, default: Optional[float]) -> Optional[float]:
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = float(raw.strip())
    except ValueError:
        raise ValueError(
            f"{name} must be a number of seconds, got {raw!r} "
            f"(e.g. {name}=60)"
        ) from None
    return value if value > 0 else None


@dataclass(frozen=True)
class RetryPolicy:
    """How the resilient executor handles per-task failures.

    ``timeout`` bounds the *additional* wall-clock the runner waits for
    one task after the previous one resolved (futures are collected in
    submission order); ``None`` waits forever.  Timeouts only apply to
    pooled execution — an in-process task cannot be interrupted.
    """

    retries: int = 2
    timeout: Optional[float] = None
    backoff_base: float = 0.1
    backoff_cap: float = 2.0

    def backoff(self, attempt: int) -> float:
        """Seconds to sleep before retry round ``attempt`` (>= 1)."""
        if self.backoff_base <= 0:
            return 0.0
        return min(self.backoff_cap, self.backoff_base * 2 ** (attempt - 1))

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        """Policy from ``REPRO_TASK_RETRIES`` / ``REPRO_TASK_TIMEOUT`` /
        ``REPRO_TASK_BACKOFF`` (defaults: 2 retries, no timeout, 0.1s)."""
        return cls(
            retries=_env_int("REPRO_TASK_RETRIES", 2),
            timeout=_env_float("REPRO_TASK_TIMEOUT", None),
            backoff_base=_env_float("REPRO_TASK_BACKOFF", 0.1) or 0.0,
        )


def resolve_policy(policy: Optional[RetryPolicy]) -> RetryPolicy:
    return policy if policy is not None else RetryPolicy.from_env()


# ---------------------------------------------------------------------------
# fault report
# ---------------------------------------------------------------------------


@dataclass
class TaskFailure:
    """One task that exhausted every attempt."""

    label: str
    attempts: int
    error: str


@dataclass
class FaultReport:
    """Telemetry of the resilient executor's error handling.

    ``quarantined`` lists tasks that failed every attempt; everything
    else counts recoverable events.  ``clean`` is True when no fault of
    any kind occurred.
    """

    attempts: int = 0          # task attempts executed (>= task count)
    retries: int = 0           # attempts beyond each task's first
    timeouts: int = 0
    task_errors: int = 0       # exceptions raised by task code
    invalid_results: int = 0   # results rejected by the validator
    pool_breaks: int = 0       # BrokenProcessPool events
    serial_fallback: bool = False
    quarantined: List[TaskFailure] = field(default_factory=list)
    # Advisory heartbeat telemetry (see StatusAggregator.check_stale in
    # repro.obs.events): tasks whose worker went silent before the task
    # timeout fired.  Not part of ``clean`` — the retry/timeout
    # machinery decides the task's fate; these record that the
    # early-warning tripped.
    heartbeat_stale: int = 0
    stale_tasks: List[str] = field(default_factory=list)
    # Crash post-mortems (see repro.obs.events.FlightRecorder): label ->
    # path of the flight-recorder artifact dumped when the task's attempt
    # crashed/timed out/was quarantined.  Only populated when telemetry
    # events are on; advisory, not part of ``clean``.
    flight_recordings: Dict[str, str] = field(default_factory=dict)
    # The shared run store hit ENOSPC/EIO and degraded to read-only
    # during this evaluation (results stand, nothing was persisted).
    # Advisory, not part of ``clean`` — that is the degradation contract.
    store_degraded: bool = False

    @property
    def clean(self) -> bool:
        return (
            not self.quarantined
            and self.retries == 0
            and self.timeouts == 0
            and self.task_errors == 0
            and self.invalid_results == 0
            and self.pool_breaks == 0
        )

    def merge(self, other: "FaultReport") -> None:
        self.attempts += other.attempts
        self.retries += other.retries
        self.timeouts += other.timeouts
        self.task_errors += other.task_errors
        self.invalid_results += other.invalid_results
        self.pool_breaks += other.pool_breaks
        self.serial_fallback = self.serial_fallback or other.serial_fallback
        self.quarantined.extend(other.quarantined)
        self.heartbeat_stale += other.heartbeat_stale
        self.stale_tasks.extend(other.stale_tasks)
        self.flight_recordings.update(other.flight_recordings)
        self.store_degraded = self.store_degraded or other.store_degraded

    def summary_line(self) -> str:
        parts = [
            f"{self.attempts} attempts",
            f"{self.retries} retries",
            f"{self.timeouts} timeouts",
            f"{self.task_errors} errors",
        ]
        if self.invalid_results:
            parts.append(f"{self.invalid_results} invalid results")
        if self.pool_breaks:
            parts.append(f"{self.pool_breaks} pool breaks")
        if self.serial_fallback:
            parts.append("serial fallback")
        if self.heartbeat_stale:
            parts.append(f"{self.heartbeat_stale} stale heartbeats")
        if self.store_degraded:
            parts.append("store degraded (read-only)")
        parts.append(f"{len(self.quarantined)} quarantined")
        return "faults: " + ", ".join(parts)


# ---------------------------------------------------------------------------
# fault injection (test hook)
# ---------------------------------------------------------------------------

#: Seconds an injected ``hang`` sleeps (``REPRO_FAULT_HANG_SECONDS``).
DEFAULT_HANG_SECONDS = 30.0

_FAULT_MODES = ("crash", "hang", "corrupt", "exit")


@dataclass(frozen=True)
class FaultInjector:
    """Deterministic worker-fault injection, driven by the environment.

    ``REPRO_FAULT_INJECT=mode:fraction[:scope]`` selects a stable
    ``fraction`` of task labels (by hashing the label, so every process
    and every attempt agrees on the victim set) and makes them fail:

    * ``crash`` — raise ``RuntimeError`` inside the worker;
    * ``hang`` — sleep ``REPRO_FAULT_HANG_SECONDS`` (default 30);
    * ``corrupt`` — return a result with impossible counters (caught by
      the runner's validator and retried);
    * ``exit`` — ``os._exit(3)``, which breaks the whole process pool.

    ``scope`` is ``first`` (default: only the first attempt faults, so
    retries recover) or ``all`` (every attempt faults, so the task ends
    up quarantined).  ``hang`` and ``exit`` never fire in-process: the
    in-process path is the last-resort fallback and must not be able to
    kill or freeze the parent.
    """

    mode: str
    fraction: float
    scope: str = "first"
    hang_seconds: float = DEFAULT_HANG_SECONDS

    @classmethod
    def from_env(cls) -> Optional["FaultInjector"]:
        raw = os.environ.get("REPRO_FAULT_INJECT")
        if raw is None or not raw.strip():
            return None
        parts = raw.strip().split(":")
        if len(parts) not in (2, 3) or parts[0] not in _FAULT_MODES:
            raise ValueError(
                f"REPRO_FAULT_INJECT must be mode:fraction[:scope] with "
                f"mode in {_FAULT_MODES}, got {raw!r}"
            )
        mode, fraction = parts[0], float(parts[1])
        scope = parts[2] if len(parts) == 3 else "first"
        if scope not in ("first", "all"):
            raise ValueError(
                f"REPRO_FAULT_INJECT scope must be 'first' or 'all', "
                f"got {scope!r}"
            )
        hang = _env_float("REPRO_FAULT_HANG_SECONDS", DEFAULT_HANG_SECONDS)
        return cls(
            mode=mode,
            fraction=fraction,
            scope=scope,
            hang_seconds=hang or DEFAULT_HANG_SECONDS,
        )

    def selects(self, label: str) -> bool:
        """Whether ``label`` is in the injected-fault victim set."""
        digest = hashlib.sha256(label.encode("utf-8")).hexdigest()
        return (int(digest, 16) % 10_000) < self.fraction * 10_000

    def _armed(self, label: str, attempt: int) -> bool:
        if not self.selects(label):
            return False
        return self.scope == "all" or attempt == 0

    def maybe_fault(self, label: str, attempt: int, in_process: bool) -> None:
        """Raise/hang/exit if this (label, attempt) is a victim."""
        if not self._armed(label, attempt):
            return
        if self.mode == "crash":
            raise RuntimeError(f"injected crash ({label}, attempt {attempt})")
        if self.mode == "hang" and not in_process:
            time.sleep(self.hang_seconds)
        elif self.mode == "exit" and not in_process:
            os._exit(3)

    def corrupts(self, label: str, attempt: int) -> bool:
        return self.mode == "corrupt" and self._armed(label, attempt)


# ---------------------------------------------------------------------------
# resilient executor
# ---------------------------------------------------------------------------


class ResilientMap(NamedTuple):
    """Outcome of :func:`map_resilient`: per-task results + telemetry."""

    #: one entry per task, None where the task was quarantined
    results: List[Optional[Any]]
    #: attempts each task consumed (0 where never attempted)
    attempts: List[int]
    report: FaultReport


class AttemptObserver:
    """Duck-typed protocol for :func:`map_resilient`'s ``observer``.

    The runner reports what it *observes*: attempt windows (submission
    to result collection in the pooled path), outcomes including
    timeouts and pool breaks, and retry backoff sleeps.
    ``repro.obs.events.EventObserver`` implements this to publish the
    executor's verdicts onto the telemetry bus; a no-op default keeps
    every hook site a single ``is None`` check.
    """

    def attempt_started(self, label: str, attempt: int) -> None: ...

    def attempt_finished(
        self, label: str, attempt: int, ok: bool, error: Optional[str] = None
    ) -> None: ...

    def backoff(
        self, attempt: int, started: float, ended: float, pending: int
    ) -> None: ...


def _observed_sleep(
    observer: Optional[AttemptObserver],
    attempt: int,
    seconds: float,
    pending: int,
) -> None:
    started = time.time()
    time.sleep(seconds)
    if observer is not None:
        observer.backoff(attempt, started, time.time(), pending)


def _run_serial(
    fn: Callable[..., Any],
    tasks: Sequence[Any],
    labels: Sequence[str],
    indices: Sequence[int],
    policy: RetryPolicy,
    validate: Optional[Callable[[Any], bool]],
    results: List[Optional[Any]],
    attempts_used: List[int],
    report: FaultReport,
    observer: Optional[AttemptObserver] = None,
) -> None:
    """In-process execution with retries (jobs=1 and broken-pool fallback)."""
    for idx in indices:
        error = "never attempted"
        for attempt in range(policy.retries + 1):
            if attempt:
                report.retries += 1
                _observed_sleep(observer, attempt, policy.backoff(attempt), 1)
            report.attempts += 1
            attempts_used[idx] += 1
            if observer is not None:
                observer.attempt_started(labels[idx], attempt)
            try:
                result = fn(tasks[idx], attempt, in_process=True)
            except Exception as exc:  # noqa: BLE001 — quarantine, never die
                report.task_errors += 1
                error = f"{type(exc).__name__}: {exc}"
                if observer is not None:
                    observer.attempt_finished(labels[idx], attempt, False, error)
                continue
            if validate is not None and not validate(result):
                report.invalid_results += 1
                error = "invalid result (failed validation)"
                if observer is not None:
                    observer.attempt_finished(labels[idx], attempt, False, error)
                continue
            if observer is not None:
                observer.attempt_finished(labels[idx], attempt, True)
            results[idx] = result
            break
        else:
            report.quarantined.append(
                TaskFailure(labels[idx], attempts_used[idx], error)
            )
            logger.warning(
                "quarantined %s after %d attempt(s): %s",
                labels[idx], attempts_used[idx], error,
            )


def map_resilient(
    fn: Callable[..., Any],
    tasks: Sequence[Any],
    labels: Sequence[str],
    jobs: int = 1,
    policy: Optional[RetryPolicy] = None,
    validate: Optional[Callable[[Any], bool]] = None,
    observer: Optional[AttemptObserver] = None,
) -> ResilientMap:
    """Run ``fn(task, attempt, in_process=...)`` over ``tasks``, resiliently.

    ``jobs > 1`` fans out over a ``ProcessPoolExecutor`` (``fn`` and the
    tasks must be picklable); ``jobs <= 1`` runs in-process.  Failed
    tasks are retried up to ``policy.retries`` times with capped
    exponential backoff; hung tasks are timed out (and their poisoned
    pool replaced); a broken pool degrades to in-process execution of
    whatever is still missing.  Tasks failing every attempt come back as
    ``None`` entries and are listed in the report's ``quarantined``.

    ``observer`` (see :class:`AttemptObserver`) receives every attempt
    window, outcome, and backoff sleep — the telemetry bus hooks in here
    so even attempts that died in a worker appear, error-tagged, in the
    ledger and the trace rendered from it.
    """
    active = resolve_policy(policy)
    report = FaultReport()
    results: List[Optional[Any]] = [None] * len(tasks)
    attempts_used = [0] * len(tasks)
    if not tasks:
        return ResilientMap(results, attempts_used, report)

    if jobs <= 1:
        _run_serial(
            fn, tasks, labels, range(len(tasks)), active, validate,
            results, attempts_used, report, observer,
        )
        return ResilientMap(results, attempts_used, report)

    pending: List[int] = list(range(len(tasks)))
    errors: Dict[int, str] = {}
    broken = False
    healthy = False
    pool: Optional[ProcessPoolExecutor] = None
    try:
        for attempt in range(active.retries + 1):
            if not pending:
                break
            if attempt:
                report.retries += len(pending)
                _observed_sleep(
                    observer, attempt, active.backoff(attempt), len(pending)
                )
            if pool is None:
                pool = ProcessPoolExecutor(
                    max_workers=max(1, min(jobs, len(pending)))
                )
            futures: Dict[int, Any] = {}
            try:
                for idx in pending:
                    futures[idx] = pool.submit(fn, tasks[idx], attempt)
                    report.attempts += 1
                    attempts_used[idx] += 1
                    if observer is not None:
                        observer.attempt_started(labels[idx], attempt)
            except BrokenProcessPool:
                broken = True
            failed: List[int] = []
            timed_out = False
            for idx in pending:
                future = futures.get(idx)
                if future is None:  # submission died with the pool
                    failed.append(idx)
                    errors[idx] = "process pool broke before submission"
                    continue
                try:
                    result = future.result(timeout=active.timeout)
                except FuturesTimeoutError:
                    report.timeouts += 1
                    timed_out = True
                    failed.append(idx)
                    errors[idx] = (
                        f"timed out after {active.timeout}s "
                        f"(attempt {attempt})"
                    )
                    future.cancel()
                except BrokenProcessPool:
                    broken = True
                    failed.append(idx)
                    errors[idx] = "process pool broke"
                except Exception as exc:  # noqa: BLE001 — worker raised
                    report.task_errors += 1
                    failed.append(idx)
                    errors[idx] = f"{type(exc).__name__}: {exc}"
                else:
                    if validate is not None and not validate(result):
                        report.invalid_results += 1
                        failed.append(idx)
                        errors[idx] = "invalid result (failed validation)"
                    else:
                        results[idx] = result
                ok = results[idx] is not None
                if ok:
                    errors.pop(idx, None)
                if observer is not None:
                    observer.attempt_finished(
                        labels[idx], attempt, ok,
                        None if ok else errors.get(idx),
                    )
            pending = failed
            if broken:
                report.pool_breaks += 1
                break
            if timed_out and pending:
                # A hung task keeps its worker slot busy indefinitely —
                # retries would queue behind it and time out too.  Replace
                # the pool; the abandoned workers exit on their own.
                pool.shutdown(wait=False, cancel_futures=True)
                pool = None
        healthy = not broken
    finally:
        if pool is not None:
            # Synchronous teardown on the healthy path.  This function
            # may run inside a multiprocessing child, whose _bootstrap
            # calls util._exit_function() the moment run() returns —
            # *before* concurrent.futures' own exit hook.  That runs the
            # call queue's finalizer, killing its feeder thread; an
            # executor still shutting down asynchronously then loses its
            # worker exit sentinels and both sides deadlock in join().
            # Waiting here is cheap (all futures are already resolved)
            # and guarantees no executor teardown outlives this call.
            # A broken pool (or an exception unwinding through us) keeps
            # the old non-blocking abandonment.
            pool.shutdown(wait=healthy, cancel_futures=True)

    if pending and broken:
        logger.warning(
            "process pool broke; running %d remaining task(s) in-process",
            len(pending),
        )
        report.serial_fallback = True
        _run_serial(
            fn, tasks, labels, pending, active, validate,
            results, attempts_used, report, observer,
        )
    elif pending:
        for idx in pending:
            report.quarantined.append(
                TaskFailure(
                    labels[idx],
                    attempts_used[idx],
                    errors.get(idx, "unknown failure"),
                )
            )
            logger.warning(
                "quarantined %s after %d attempt(s): %s",
                labels[idx], attempts_used[idx], errors.get(idx, "?"),
            )
    return ResilientMap(results, attempts_used, report)


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------


class RunTask(NamedTuple):
    """One picklable unit of work: one resolved configuration on one trace.

    ``source`` is a :class:`WorkloadSpec` — regenerated per process, and
    run-keyed so the store can serve, claim and checkpoint it — or a
    trace-file path (``repro sweep`` and guarded ``repro run``), which is
    loaded per process and never cached, claimed or checkpointed.  The
    configuration is the registry name ``config_name`` resolved against
    ``base_config``, or, when ``configs`` is set, an already-resolved
    ``(EntanglingConfig, SimConfig)`` pair named ``config_name`` (a tune
    genome, see :func:`repro.analysis.tune.genome_configs`).  A path
    task must give ``warmup_instructions``; for a spec, None means
    ``WARMUP_FRACTION`` of its trace.
    """

    source: Union[WorkloadSpec, str]
    config_name: str
    base_config: Optional[SimConfig] = None
    warmup_instructions: Optional[int] = None
    configs: Optional[Tuple[EntanglingConfig, SimConfig]] = None


def task_label(task: RunTask) -> str:
    """``config/workload`` for a spec task, the bare config name for a path."""
    if isinstance(task.source, WorkloadSpec):
        return f"{task.config_name}/{task.source.name}"
    return task.config_name


def task_key(task: RunTask) -> Optional[str]:
    """The task's run key (see :func:`~repro.analysis.runcache.run_key`),
    or None for a trace-file task."""
    spec = task.source
    if not isinstance(spec, WorkloadSpec):
        return None
    if task.configs is not None:
        sim_config = task.configs[1]
    else:
        sim_config = resolve_config(
            task.config_name, task.base_config or SimConfig()
        )[1]
    return run_key(
        spec, task.config_name, sim_config,
        resolve_warmup(spec, task.warmup_instructions),
    )


def result_valid(result: Any) -> bool:
    """Cheap sanity screen for worker results (rejects corrupt payloads)."""
    if not isinstance(result, SimResult):
        return False
    stats = result.stats
    return (
        stats.instructions >= 0
        and stats.cycles >= 0
        and stats.wall_seconds >= 0.0
    )


def _attempt_body(
    task: RunTask, label: str, attempt: int, in_process: bool
) -> SimResult:
    injector = FaultInjector.from_env()
    if injector is not None:
        injector.maybe_fault(label, attempt, in_process)
    result = run_single(
        task.source, task.config_name, task.base_config,
        task.warmup_instructions, configs=task.configs,
    ).detached()
    if injector is not None and injector.corrupts(label, attempt):
        result.stats.instructions = -1
        result.stats.cycles = -1
    return result


def execute_task_attempt(
    task: RunTask,
    attempt: int,
    in_process: bool = False,
    progress: Optional[Any] = None,
) -> SimResult:
    """The worker entry point: one attempt of one task, detached result.

    Every simulation the scheduler runs — a suite pair, a tune genome, a
    sweep configuration, a guarded ``repro run``, a lease-stolen
    follower — goes through here, so fault injection
    (:class:`FaultInjector`, keyed on :func:`task_label`) and telemetry
    reach all of them.

    ``progress`` is the parent's event queue, bound through
    ``functools.partial`` when the evaluation has a telemetry bus.  With
    it, a :class:`~repro.obs.events.WorkerEventRelay` is this worker's
    process bus and stage profiler for the attempt: it publishes the
    attempt's ``task_started``, heartbeats and ``task_finished`` (which
    carries the pipeline stage timings) or ``task_failed``, and forwards
    worker-side publishers (the sanitizer path) over the same queue.
    Without it, ``repro.obs.events`` is never imported and the worker
    runs the exact untelemetered path.
    """
    label = task_label(task)
    if progress is None:
        return _attempt_body(task, label, attempt, in_process)
    from repro.obs.events import WorkerEventRelay, set_event_bus
    from repro.obs.profiler import get_stage_profiler, set_stage_profiler

    relay = WorkerEventRelay(progress, label, attempt, chain=get_stage_profiler())
    previous_bus = set_event_bus(relay)
    previous_profiler = set_stage_profiler(relay)
    relay.start()
    ok = False
    try:
        result = _attempt_body(task, label, attempt, in_process)
        ok = True
    finally:
        set_event_bus(previous_bus)
        set_stage_profiler(previous_profiler)
        relay.finish(ok)
    return result


class SuiteOutcome(NamedTuple):
    """Result of :func:`run_tasks_parallel`."""

    #: one entry per task, in task order; None where it was quarantined
    results: List[Optional[SimResult]]
    report: FaultReport


def run_tasks_parallel(
    tasks: Sequence[RunTask],
    jobs: int = 2,
    cache: Optional[RunCache] = None,
    checkpoint: Optional[CheckpointManifest] = None,
    policy: Optional[RetryPolicy] = None,
    events_bus: Optional[Any] = None,
    progress: Optional[Any] = None,
) -> SuiteOutcome:
    """Evaluate ``tasks`` with ``jobs`` worker processes: the one scheduler.

    ``run_suite`` (its config x workload product), ``repro tune`` (genome
    batches), ``repro sweep`` and guarded ``repro run`` (trace-file tasks,
    ``cache=None``) all come through here, and every simulation runs in
    :func:`execute_task_attempt`.  Returns one result per task, in task
    order, plus the executor's :class:`FaultReport`; ``jobs=N`` is
    bit-identical to ``jobs=1``.  Run-keyed tasks already in ``cache``
    are served locally; only misses are dispatched, and their results
    are stored back.  Completed run-keyed tasks are recorded in
    ``checkpoint`` (if given) so an interrupted evaluation can be
    resumed; tasks that fail every attempt are quarantined (None, listed
    in the report) rather than fatal.

    ``events_bus`` (a ``repro.obs.events.EventBus``) receives every
    telemetry event of the evaluation — the worker lifecycle and
    heartbeats over the worker queue (pumped by a
    :class:`~repro.obs.events.ProgressDrain`), executor verdicts via an
    :class:`~repro.obs.events.EventObserver`, and cache traffic.  The
    drain flags silent workers, whose labels fold into the returned
    report's advisory ``heartbeat_stale`` / ``stale_tasks``; with a
    ``progress`` stream it also renders the bus's live status line
    there, from the first cache probe to the last followed key.

    When the cache has a shared disk store
    (:class:`~repro.analysis.store.ShardedRunStore`), identical in-flight
    run keys are coalesced across *processes*: misses are lease-claimed
    before dispatch, keys another live evaluator already owns are
    followed (polled until published — counted as coalesced hits, never
    re-simulated), and a follower steals the lease and simulates locally
    — through the same worker entry point, so it reports like any other
    task — only when the owner provably died.  ``REPRO_COALESCE=0``
    disables this.
    """
    labels = [task_label(task) for task in tasks]
    keys: List[Optional[str]] = [None] * len(tasks)
    results: List[Optional[SimResult]] = [None] * len(tasks)

    # Attach the cache's telemetry publisher for the duration of this
    # evaluation (restored on exit: the cache may be process-global).
    publisher_attached = False
    previous_publisher: Optional[Any] = None
    if events_bus is not None and cache is not None:
        previous_publisher = cache.publisher
        cache.publisher = events_bus
        publisher_attached = True
    store: Optional[Any] = None
    followed: List[int] = []
    held_leases: List[Any] = []
    keeper: Optional[LeaseKeeper] = None
    report = FaultReport()
    label_keys: Dict[str, str] = {}  # task label -> run-key provenance
    fn: Callable[..., Any] = execute_task_attempt
    manager = None
    drain: Optional[Any] = None
    events_observer: Optional[Any] = None

    def finish(idx: int, result: SimResult, hit: bool = False) -> None:
        results[idx] = result
        key = keys[idx]
        if checkpoint is not None and key is not None:
            if hit:
                checkpoint.note_hit(key)
            checkpoint.mark_done(
                key, tasks[idx].config_name, tasks[idx].source.name
            )

    def dispatch(indices: List[int], n_jobs: int) -> None:
        outcome = map_resilient(
            fn,
            [tasks[idx] for idx in indices],
            [labels[idx] for idx in indices],
            jobs=n_jobs,
            policy=policy,
            validate=result_valid,
            observer=events_observer,
        )
        report.merge(outcome.report)
        for idx, result, n_attempts in zip(
            indices, outcome.results, outcome.attempts
        ):
            if result is None:
                continue  # quarantined — reported, not fatal
            result.stats.attempts = max(1, n_attempts)
            if cache is not None and keys[idx] is not None:
                cache.put(keys[idx], result, label=labels[idx])
            finish(idx, result)

    try:
        if events_bus is not None:
            # Workers send their events over one queue, pumped onto the bus
            # (and rendered as the progress line) until the last followed
            # key resolves.
            from repro.obs.events import (
                EventObserver,
                ProgressDrain,
                stale_threshold,
            )

            if jobs > 1:
                # Plain mp.Queue objects cannot cross a
                # ProcessPoolExecutor.submit boundary; manager proxies can.
                manager = multiprocessing.Manager()
                event_queue: Any = manager.Queue()
            else:
                event_queue = queue_module.Queue()
            fn = functools.partial(execute_task_attempt, progress=event_queue)
            events_observer = EventObserver(
                events_bus,
                flight_dir=events_bus.flight_dir,
                label_keys=label_keys,
            )
            drain = ProgressDrain(
                events_bus,
                event_queue,
                stale_threshold(resolve_policy(policy).timeout),
                stream=progress,
                label_keys=label_keys,
            )
            drain.start()
        pending: List[int] = []
        keyed = (
            cache is not None
            or checkpoint is not None
            or events_bus is not None
        )
        for idx, task in enumerate(tasks):
            key = task_key(task) if keyed else None
            keys[idx] = key
            if key is not None:
                label_keys[labels[idx]] = key
            if cache is not None and key is not None:
                hit = cache.get(key, label=labels[idx])
                if hit is not None:
                    finish(idx, hit, hit=True)
                    continue
            pending.append(idx)

        # -- stampede coalescing: claim run keys before dispatching ------
        # When the cache has a shared disk store, concurrent evaluators
        # (other run_suite/tune processes sharing one cache dir) coalesce
        # identical in-flight keys: whoever wins the O_EXCL lease
        # simulates; everyone else follows — polls the store for the
        # published entry, stealing the lease only if its owner dies.
        store = getattr(cache, "store", None) if cache is not None else None
        if store is not None and pending and coalesce_enabled():
            owned: List[int] = []
            for idx in pending:
                key = keys[idx]
                if key is None:
                    owned.append(idx)
                    continue
                lease = store.claim(key)
                if lease is None:
                    followed.append(idx)
                    continue
                # Claim won — but the previous owner may have published
                # between our cache miss and this claim; one quiet
                # re-probe closes that race without a duplicate run.
                hit = cache.wait_probe(key, label=labels[idx])
                if hit is not None:
                    store.release(lease)
                    finish(idx, hit, hit=True)
                    continue
                held_leases.append(lease)
                owned.append(idx)
            pending = owned
            if held_leases:
                keeper = LeaseKeeper(store, held_leases)
                keeper.start()

        if pending:
            dispatch(pending, jobs)

        # -- resolve followed keys: poll the owner, steal if it dies -----
        for idx in followed:
            key, label = keys[idx], labels[idx]
            while True:
                hit = await_result(cache, store, key, label, bus=events_bus)
                if hit is not None:
                    finish(idx, hit)
                    break
                # Owner gone without publishing (died, or its store
                # degraded): take over the claim and simulate locally.
                lease = store.steal(key)
                if lease is None:
                    continue  # lost the steal race; back to following
                hit = cache.wait_probe(key, label=label)
                if hit is not None:  # published in the steal window
                    store.release(lease)
                    finish(idx, hit)
                    break
                cache.lease_steals += 1
                try:
                    dispatch([idx], 1)
                finally:
                    store.release(lease)
                break

        if events_observer is not None:
            # Final verdicts + crash post-mortems: one quarantined event
            # per task that failed every attempt, and the flight-recorder
            # artifacts linked from the report.
            for failure in report.quarantined:
                events_observer.quarantined(
                    failure.label, failure.attempts, failure.error
                )
            report.flight_recordings.update(events_observer.flight_paths)
    finally:
        if drain is not None:
            drain.close()
            report.heartbeat_stale += len(drain.stale_tasks)
            report.stale_tasks.extend(drain.stale_tasks)
        if manager is not None:
            if sys.exc_info()[0] is not None:
                # Abnormal exit (KeyboardInterrupt mid-suite): orphaned
                # pool workers may still be blocked on call items that
                # embed this Manager's queue proxy, and unpickling one
                # after the Manager dies prints a FileNotFoundError
                # traceback from the worker bootstrap.  Terminate them
                # first; their results are lost either way.
                manager_process = getattr(manager, "_process", None)
                for child in multiprocessing.active_children():
                    if child is manager_process:
                        continue
                    try:
                        child.terminate()
                    except Exception:  # noqa: BLE001
                        pass
            # Shut the Manager down *now*, cleanly: leaving it to the
            # multiprocessing atexit machinery prints join tracebacks
            # when the parent is interrupted.
            try:
                manager.shutdown()
            except Exception:  # noqa: BLE001
                pass
        if keeper is not None:
            keeper.stop()
        if store is not None:
            for lease in held_leases:
                store.release(lease)
            if store.read_only:
                report.store_degraded = True
        if publisher_attached:
            cache.publisher = previous_publisher
    return SuiteOutcome(results, report)
