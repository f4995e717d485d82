"""Experiment drivers: run suites of workloads across prefetcher configs.

These are the building blocks the per-figure benchmarks assemble.  Traces
and their preprocessed fetch units are generated once per process and
shared across prefetcher configurations (the trace is read-only).

Configuration names accepted everywhere are the
:mod:`repro.prefetchers.registry` names plus two pseudo-configurations:
``l1i_64kb`` and ``l1i_96kb``, which run the no-prefetch baseline with an
enlarged L1I (the paper's alternative use of the storage budget).
"""

from __future__ import annotations

import logging
import os
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.checkpoint import CheckpointManifest, get_checkpoint
from repro.analysis.runcache import RunCache, get_run_cache, run_key
from repro.check import sanitizer_from_env
from repro.core.entangling import EntanglingConfig, EntanglingPrefetcher
from repro.obs.profiler import stage

logger = logging.getLogger(__name__)

if TYPE_CHECKING:
    from repro.analysis.parallel import FaultReport, RetryPolicy
from repro.prefetchers.base import InstructionPrefetcher, NullPrefetcher
from repro.prefetchers.registry import make_prefetcher
from repro.sim.config import SimConfig
from repro.sim.fetchunits import FetchUnit, build_fetch_units
from repro.sim.simulator import SimResult, simulate
from repro.sim.stats import SimStats
from repro.workloads.generators import WorkloadSpec, cvp_suite, make_workload
from repro.workloads.trace import Trace

PSEUDO_CONFIGS = ("l1i_64kb", "l1i_96kb")

#: Sentinel for "use the process-wide default run cache".
DEFAULT_CACHE = "default"

#: Type accepted by the ``cache`` parameters below: an explicit
#: :class:`RunCache`, ``None`` (no caching), or :data:`DEFAULT_CACHE`.
CacheArg = Union[RunCache, None, str]

#: Sentinel for "use the process-wide default checkpoint manifest" (which
#: is itself None unless a driver installed one via ``set_checkpoint``).
DEFAULT_CHECKPOINT = "default"

#: Type accepted by the ``checkpoint`` parameters below.
CheckpointArg = Union[CheckpointManifest, None, str]


def positive_env_int(name: str, default: int) -> int:
    """Parse an environment variable as a positive integer.

    Unset/empty falls back to ``default``; values below 1 clamp to 1 (a
    scale or job count can never be smaller); anything non-integer raises
    a ``ValueError`` naming the variable instead of a bare parse error.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = int(raw.strip())
    except ValueError:
        raise ValueError(
            f"{name} must be a positive integer, got {raw!r} "
            f"(e.g. {name}=2)"
        ) from None
    return max(1, value)


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker-process count: explicit argument, else ``REPRO_JOBS``, else 1.

    0 or negative values (either source) clamp to 1 — serial execution.
    """
    if jobs is None:
        return positive_env_int("REPRO_JOBS", 1)
    return max(1, int(jobs))


def _resolve_cache(cache: CacheArg) -> Optional[RunCache]:
    if cache == DEFAULT_CACHE:
        return get_run_cache()
    return cache


def _resolve_checkpoint(checkpoint: CheckpointArg) -> Optional[CheckpointManifest]:
    if checkpoint == DEFAULT_CHECKPOINT:
        return get_checkpoint()
    return checkpoint


#: A trace source: a generated workload, or a trace-file path.
TraceSource = Union[WorkloadSpec, str]


@lru_cache(maxsize=256)
def _cached_workload(spec: WorkloadSpec) -> Trace:
    return make_workload(spec)


@lru_cache(maxsize=4)
def _cached_trace_file(path: str) -> Trace:
    """Per-process load of a trace file (``repro sweep`` / guarded ``run``)."""
    from repro.workloads.importers import load_external_trace

    return load_external_trace(path)


def _load_source(source: TraceSource) -> Trace:
    if isinstance(source, WorkloadSpec):
        return _cached_workload(source)
    return _cached_trace_file(source)


@lru_cache(maxsize=256)
def _cached_units(source: TraceSource, line_size: int) -> Tuple[FetchUnit, ...]:
    return tuple(build_fetch_units(_load_source(source), line_size))


def installed_event_bus() -> Optional[Any]:
    """The installed process telemetry bus, or None.

    Discovered through ``sys.modules`` (never imported), so a run without
    telemetry never loads :mod:`repro.obs.events`.
    """
    events_mod = sys.modules.get("repro.obs.events")
    return events_mod.get_event_bus() if events_mod is not None else None


def resolve_config(name: str, base: SimConfig) -> Tuple[InstructionPrefetcher, SimConfig]:
    """Map a configuration name to (prefetcher instance, simulator config)."""
    if name == "l1i_64kb":
        return NullPrefetcher(), base.with_l1i_kb(64)
    if name == "l1i_96kb":
        return NullPrefetcher(), base.with_l1i_kb(96)
    prefetcher = make_prefetcher(name)
    if name.endswith("_phys"):
        return prefetcher, base.with_physical_addresses()
    return prefetcher, base


@dataclass
class EvaluationResult:
    """Results of one suite x configuration-set evaluation.

    The fault-tolerant executor always returns a *complete or explicitly
    partial* result: pairs whose task failed every attempt are absent
    from ``runs`` and listed in ``faults.quarantined`` — check
    :meth:`is_complete` / :meth:`missing_pairs` before aggregating.
    """

    #: config name -> workload name -> SimResult
    runs: Dict[str, Dict[str, SimResult]] = field(default_factory=dict)
    #: workload name -> category
    categories: Dict[str, str] = field(default_factory=dict)
    #: executor fault telemetry (None when the serial legacy path ran)
    faults: Optional["FaultReport"] = None

    def stats(self, config: str, workload: str) -> SimStats:
        return self.runs[config][workload].stats

    def is_complete(self) -> bool:
        """True when every (config, workload) pair produced a result."""
        return not self.missing_pairs()

    def missing_pairs(self) -> List[Tuple[str, str]]:
        """Quarantined (config, workload) pairs absent from ``runs``."""
        return [
            (config, workload)
            for config, per_workload in self.runs.items()
            for workload in self.categories
            if workload not in per_workload
        ]

    def workloads(self) -> List[str]:
        return sorted(self.categories)

    def configs(self) -> List[str]:
        return list(self.runs)

    def normalized_ipc(self, config: str, baseline: str = "no") -> Dict[str, float]:
        """Per-workload IPC normalized to the given baseline config.

        Workloads whose baseline run is missing (quarantined by the
        fault-tolerant executor) report 0.0 — downstream geomeans skip
        and flag zeros instead of crashing.
        """
        out: Dict[str, float] = {}
        baseline_runs = self.runs.get(baseline, {})
        for workload, result in self.runs[config].items():
            base = baseline_runs.get(workload)
            if base is None or not base.stats.ipc:
                out[workload] = 0.0
            else:
                out[workload] = result.stats.ipc / base.stats.ipc
        return out

    def geomean_speedup(self, config: str, baseline: str = "no") -> float:
        """Geomean of normalized IPC, skipping-and-flagging faulted pairs."""
        from repro.analysis.metrics import robust_geometric_mean

        ratios = list(self.normalized_ipc(config, baseline).values())
        if not ratios:
            return 0.0
        return robust_geometric_mean(
            ratios, context=f"geomean_speedup({config!r})"
        )

    def coverage(self, config: str, baseline: str = "no") -> Dict[str, float]:
        out: Dict[str, float] = {}
        baseline_runs = self.runs.get(baseline, {})
        for workload, result in self.runs[config].items():
            base = baseline_runs.get(workload)
            out[workload] = result.stats.coverage_vs(base.stats) if base else 0.0
        return out

    def accuracy(self, config: str) -> Dict[str, float]:
        return {
            workload: result.stats.accuracy
            for workload, result in self.runs[config].items()
        }

    def miss_ratio(self, config: str) -> Dict[str, float]:
        return {
            workload: result.stats.l1i_miss_ratio
            for workload, result in self.runs[config].items()
        }

    def timing_entries(self) -> List[Tuple[str, str, SimStats]]:
        """(config, workload, stats) triples for the timing telemetry table."""
        return [
            (config, workload, result.stats)
            for config, per_workload in self.runs.items()
            for workload, result in per_workload.items()
        ]


#: Default warm-up: the fraction of each trace spent warming caches and
#: prefetcher state before measurement begins (the paper warms for 20M
#: instructions before running its traces to the end).
WARMUP_FRACTION = 0.4


def resolve_warmup(spec: WorkloadSpec, warmup_instructions: Optional[int]) -> int:
    """The effective warm-up: ``None`` means ``WARMUP_FRACTION`` of the trace."""
    if warmup_instructions is None:
        return int(spec.n_instructions * WARMUP_FRACTION)
    return warmup_instructions


def run_single(
    spec: TraceSource,
    config_name: str,
    base_config: Optional[SimConfig] = None,
    warmup_instructions: Optional[int] = None,
    configs: Optional[Tuple[EntanglingConfig, SimConfig]] = None,
) -> SimResult:
    """Simulate one (configuration, workload) pair with a fresh prefetcher.

    ``spec`` may also be a trace-file path, loaded once per process; its
    ``warmup_instructions`` must then be given.  ``configs`` is an
    already-resolved ``(EntanglingConfig, SimConfig)`` pair (a tune
    genome, see :func:`repro.analysis.tune.genome_configs`) used instead
    of resolving ``config_name``.

    The three pipeline stages (trace construction, fetch-unit
    preprocessing, simulation) report to the installed stage profiler —
    see :func:`repro.obs.profiler.set_stage_profiler` — and are untimed
    no-ops otherwise.

    ``REPRO_SANITIZE=1`` (fatal) / ``REPRO_SANITIZE=report`` (collect)
    attaches the runtime invariant sanitizer (:mod:`repro.check.sanitize`)
    to the simulation; unset, the sanitizer module is never even imported
    and the run is bit-identical.
    """
    if configs is not None:
        prefetcher: InstructionPrefetcher = EntanglingPrefetcher(configs[0])
        sim_config = configs[1]
    else:
        prefetcher, sim_config = resolve_config(
            config_name, base_config or SimConfig()
        )
    with stage("workload_build"):
        trace = _load_source(spec)
    with stage("fetch_units"):
        units = _cached_units(spec, sim_config.line_size)
    with stage("simulate"):
        checker = sanitizer_from_env()
        result = simulate(
            trace,
            prefetcher,
            config=sim_config,
            units=units,
            warmup_instructions=resolve_warmup(spec, warmup_instructions),
            checker=checker,
        )
    if checker is not None and checker.violations:
        logger.warning(
            "%s/%s: %s", config_name, trace.name, checker.report().summary_line()
        )
    if checker is not None:
        # Publish the sanitizer report onto the telemetry bus, if one is
        # installed.  In a worker this finds the WorkerEventRelay and the
        # report crosses the progress queue; in-process it finds the
        # parent bus directly.
        bus = installed_event_bus()
        if bus is not None:
            report = checker.report()
            bus.emit(
                "sanitizer",
                config=config_name,
                workload=trace.name,
                cycle=result.stats.cycles,
                payload=report.to_payload(),
            )
    return result


def run_cached(
    spec: WorkloadSpec,
    config_name: str,
    base_config: Optional[SimConfig] = None,
    warmup_instructions: Optional[int] = None,
    cache: CacheArg = DEFAULT_CACHE,
) -> SimResult:
    """Like :func:`run_single`, memoized through the run cache.

    On a hit the returned result is detached (stats only, no live
    prefetcher); on a miss the live result of the fresh simulation is
    returned and a detached copy is stored.
    """
    active = _resolve_cache(cache)
    if active is None:
        return run_single(spec, config_name, base_config, warmup_instructions)
    base = base_config or SimConfig()
    _prefetcher, sim_config = resolve_config(config_name, base)
    key = run_key(
        spec, config_name, sim_config, resolve_warmup(spec, warmup_instructions)
    )
    label = f"{config_name}/{spec.name}"
    hit = active.get(key, label=label)
    if hit is not None:
        return hit
    result = run_single(spec, config_name, base_config, warmup_instructions)
    active.put(key, result, label=label)
    return result


def run_prefetcher_on_suite(
    specs: Sequence[WorkloadSpec],
    config_name: str,
    base_config: Optional[SimConfig] = None,
    warmup_instructions: Optional[int] = None,
    cache: CacheArg = DEFAULT_CACHE,
) -> Dict[str, SimResult]:
    """Run one configuration over a suite; fresh prefetcher per workload.

    ``warmup_instructions=None`` warms up for ``WARMUP_FRACTION`` of each
    trace; pass 0 to measure from a cold start.
    """
    return {
        spec.name: run_cached(
            spec, config_name, base_config, warmup_instructions, cache=cache
        )
        for spec in specs
    }


def _progress_stream(progress: Union[bool, Any, None]) -> Optional[Any]:
    """Resolve the ``progress`` argument to a stream (or None for off).

    ``None`` defers to the ``REPRO_PROGRESS`` environment variable;
    ``True`` renders to stderr; a file-like object renders to it.
    """
    if progress is None:
        progress = bool(os.environ.get("REPRO_PROGRESS", "").strip())
    if not progress:
        return None
    return progress if hasattr(progress, "write") else sys.stderr


def run_suite(
    specs: Sequence[WorkloadSpec],
    config_names: Sequence[str],
    base_config: Optional[SimConfig] = None,
    warmup_instructions: Optional[int] = None,
    include_baseline: bool = True,
    jobs: Optional[int] = None,
    cache: CacheArg = DEFAULT_CACHE,
    checkpoint: CheckpointArg = DEFAULT_CHECKPOINT,
    retry_policy: Optional["RetryPolicy"] = None,
    trace_path: Optional[str] = None,
    progress: Union[bool, Any, None] = None,
    events_path: Optional[str] = None,
) -> EvaluationResult:
    """Run a set of configurations over a suite of workloads.

    ``jobs`` controls fan-out: ``None`` reads ``REPRO_JOBS`` (default 1 =
    the serial path), values > 1 run one worker process per (config,
    workload) task via :mod:`repro.analysis.parallel`.  Either path
    produces identical stats in identical order; ``cache`` (the process
    default unless overridden) serves repeated pairs without simulating.

    The parallel path is fault tolerant (retries, timeouts, quarantine —
    see :class:`~repro.analysis.parallel.RetryPolicy`): it always returns
    a complete or *explicitly partial* result (``evaluation.faults``,
    ``evaluation.is_complete()``).  ``checkpoint`` (the process default
    unless overridden) records finished pairs in a
    :class:`~repro.analysis.checkpoint.CheckpointManifest` so an
    interrupted evaluation can resume; a non-None checkpoint routes even
    ``jobs=1`` through the fault-tolerant runner (in-process).

    ``trace_path`` writes a Chrome trace-event JSON (Perfetto /
    ``chrome://tracing``) of the whole evaluation — suite, cache lookups,
    executor attempts (error-tagged when they failed), retry backoffs and
    worker-side pipeline stages across every worker process.  It is
    rendered (:mod:`repro.obs.chrometrace`) from the telemetry events
    this call publishes, so it needs a bus: the ``events_path`` one, an
    installed one, or — when neither exists — a bus without a ledger
    that lives for this call.  The same renderer applied to the ledger
    reproduces the trace offline.
    ``progress`` (or ``REPRO_PROGRESS=1``) renders a throttled live
    status line such as ``status: 14/24 done, 4 running, 0 failed,
    6 cached, ETA 41s``.  It is read from the bus's
    :class:`~repro.obs.events.StatusAggregator`, so it equals ``repro
    top`` over the ledger.  Only the live line adds a ``stale`` suffix,
    for workers whose heartbeats stopped before the task timeout fired
    (see ``evaluation.faults.stale_tasks``).  Like a trace, it uses the
    ``events_path`` bus, an installed one, or a ledger-less bus that
    lives for this call.

    ``events_path`` (or ``REPRO_EVENTS``) appends every telemetry event
    — suite lifecycle, task starts/heartbeats/finishes, executor
    verdicts, cache hits/misses, sanitizer reports — to a JSONL run
    ledger (see :mod:`repro.obs.events`); a crash/timeout/quarantine
    additionally dumps a flight-recorder artifact next to the ledger,
    linked from ``evaluation.faults.flight_recordings``.  A process bus
    already installed via ``repro.obs.events.set_event_bus`` (the CLI's
    ``--events``/``--metrics-port`` session) is reused instead.

    All three are strictly opt-in: architectural results are
    bit-identical with or without them, and none of the observability
    modules is even imported when its feature is off.
    """
    names = list(config_names)
    if include_baseline and "no" not in names:
        names.insert(0, "no")
    evaluation = EvaluationResult()
    evaluation.categories = {spec.name: spec.category for spec in specs}
    n_jobs = resolve_jobs(jobs)
    active_checkpoint = _resolve_checkpoint(checkpoint)

    # Telemetry bus: an explicit events_path creates (and owns) one; a bus
    # installed via set_event_bus (CLI session) is reused; REPRO_EVENTS is
    # the env fallback; a trace or progress line alone gets a ledger-less
    # bus of its own.  Discovery goes through sys.modules so a run with
    # no events, trace or progress never imports repro.obs.events.
    events_bus: Optional[Any] = None
    owns_bus = False
    if events_path is None:
        events_bus = installed_event_bus()
        if events_bus is None:
            events_path = os.environ.get("REPRO_EVENTS", "").strip() or None
    stream = _progress_stream(progress)
    if events_bus is None and (
        events_path is not None
        or trace_path is not None
        or stream is not None
    ):
        from repro.obs.events import open_bus

        events_bus = open_bus(events_path)
        owns_bus = True
    traced: Optional[List[Any]] = None
    if trace_path is not None:
        traced = []
        events_bus.subscribe(traced.append)

    # Worker events ride the engine's queue, so a bus forces the engine.
    use_engine = (
        n_jobs > 1
        or active_checkpoint is not None
        or retry_policy is not None
        or events_bus is not None
    )
    if events_bus is not None:
        events_bus.emit(
            "suite_started",
            payload={
                "n_configs": len(names),
                "n_workloads": len(specs),
                "n_tasks": len(names) * len(specs),
                "jobs": n_jobs,
            },
        )
    try:
        with stage("run_suite"):
            if use_engine:
                from repro.analysis.parallel import RunTask, run_tasks_parallel

                tasks = [
                    RunTask(spec, name, base_config, warmup_instructions)
                    for name in names
                    for spec in specs
                ]
                outcome = run_tasks_parallel(
                    tasks,
                    jobs=n_jobs,
                    cache=_resolve_cache(cache),
                    checkpoint=active_checkpoint,
                    policy=retry_policy,
                    events_bus=events_bus,
                    progress=stream,
                )
                evaluation.runs = {name: {} for name in names}
                for task, result in zip(tasks, outcome.results):
                    if result is not None:  # else quarantined, reported
                        evaluation.runs[task.config_name][task.source.name] = (
                            result
                        )
                evaluation.faults = outcome.report
            else:
                for name in names:
                    evaluation.runs[name] = {}
                    for spec in specs:
                        try:
                            evaluation.runs[name][spec.name] = run_cached(
                                spec, name, base_config, warmup_instructions,
                                cache=cache,
                            )
                        except ValueError as exc:
                            # Bad ingestion input (TraceError, ConfigError,
                            # an unknown workload category, ...): quarantine
                            # the pair instead of killing the whole suite,
                            # mirroring the engine path's fault handling.
                            from repro.analysis.parallel import (
                                FaultReport,
                                TaskFailure,
                            )

                            if evaluation.faults is None:
                                evaluation.faults = FaultReport()
                            evaluation.faults.attempts += 1
                            evaluation.faults.task_errors += 1
                            evaluation.faults.quarantined.append(
                                TaskFailure(
                                    label=f"{name}/{spec.name}",
                                    attempts=1,
                                    error=f"{type(exc).__name__}: {exc}",
                                )
                            )
                            logger.warning(
                                "quarantined %s/%s: %s", name, spec.name, exc
                            )
    finally:
        if events_bus is not None:
            completed = sum(len(per) for per in evaluation.runs.values())
            quarantined = (
                len(evaluation.faults.quarantined)
                if evaluation.faults is not None
                else 0
            )
            try:
                events_bus.emit(
                    "suite_finished",
                    payload={
                        "completed": completed,
                        "quarantined": quarantined,
                    },
                )
            finally:
                if traced is not None:
                    events_bus.unsubscribe(traced.append)
                if owns_bus:
                    events_bus.close()
    if trace_path is not None:
        from repro.obs.chrometrace import write_chrome_trace

        write_chrome_trace(traced, trace_path)
    return evaluation


def default_suite(
    per_category: int = 2,
    n_instructions: Optional[int] = None,
    include_microservice: bool = False,
) -> List[WorkloadSpec]:
    """The suite benchmarks use by default (scaled down for wall-clock).

    Set the ``REPRO_SUITE_SCALE`` environment variable to multiply the
    per-category workload count (e.g. ``REPRO_SUITE_SCALE=3`` runs 6 per
    category, matching the full evaluation in EXPERIMENTS.md).  Values
    below 1 clamp to 1; non-integers raise a clear ``ValueError``.

    ``include_microservice`` appends the cloud-microservice suite
    (single-tenant services plus 2-4-tenant mixes) — off by default so
    historical benchmark trajectories keep comparing like with like.
    """
    scale = positive_env_int("REPRO_SUITE_SCALE", 1)
    specs = cvp_suite(
        per_category=per_category * scale, n_instructions=n_instructions
    )
    if include_microservice:
        from repro.workloads.microservice import microservice_suite

        specs = specs + microservice_suite(
            n_instructions=n_instructions or 300_000
        )
    return specs
