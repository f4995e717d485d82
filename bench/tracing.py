"""Per-layer spans for a traced repetition, recorded from outside the program.

:func:`install` rebinds the public functions of each layer (module
attributes and class methods) to timing wrappers; ``repro`` itself gets
no hook, knob or environment variable.  Every span adds its duration to
its layer's total, and its duration minus its child spans to the layer's
self time.  Wrappers keep their target's name (``functools.wraps``), so
forked pool workers still unpickle ``execute_task_attempt`` and
``_genome_worker`` by reference; each worker writes its own numbers to
``worker-<pid>.json`` after every task, and :func:`layer_metrics`
merges them with the parent's.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Optional

#: The prefetcher callbacks the staged core binds per instance.
HOOKS = (
    "on_demand_access", "on_branch", "on_fill",
    "on_prefetch_useful", "on_prefetch_late", "on_evict_unused",
)

#: The recorder of this process, reached by pickled :class:`_Dispatch`
#: objects in forked workers.  Set once by :func:`install`.
_active: Optional["Recorder"] = None


class Recorder:
    """Layer totals of one process; a forked child starts from zero."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.thread = threading.current_thread()
        #: layer -> [calls, total seconds, self seconds]
        self.layers: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self.specs: List[str] = []
        #: child time of each open span, innermost last
        self.stack: List[float] = []

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def recording(self) -> bool:
        return threading.current_thread() is self.thread

    def call(self, layer: str, fn: Callable[..., Any], args, kwargs) -> Any:
        if not self.recording():
            return fn(*args, **kwargs)
        stack = self.stack
        stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            inner = stack.pop()
            record = self.layers.setdefault(layer, [0, 0.0, 0.0])
            record[0] += 1
            record[1] += elapsed
            record[2] += elapsed - inner
            if stack:
                stack[-1] += elapsed

    def snapshot(self) -> Dict[str, Any]:
        return {
            "pid": self.pid,
            "layers": self.layers,
            "counts": self.counts,
            "specs": self.specs,
        }

    def flush(self) -> None:
        """Write this worker's totals so far (workers never run atexit)."""
        path = os.path.join(self.out_dir, f"worker-{self.pid}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump(self.snapshot(), fh)
        os.replace(path + ".tmp", path)

    # -- prefetcher hooks ---------------------------------------------------

    def wrap_hooks(self, prefetcher: Any) -> None:
        """Time each hook of one prefetcher instance as a child of the
        running simulation (passive prefetchers are never called)."""
        if prefetcher.is_passive:
            return
        stack = self.stack
        record = self.layers.setdefault("prefetchers", [0, 0.0, 0.0])
        clock = time.perf_counter

        def timed(fn: Callable[..., Any]) -> Callable[..., Any]:
            def hook(*args: Any) -> Any:
                start = clock()
                result = fn(*args)
                elapsed = clock() - start
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed
                stack[-1] += elapsed
                return result

            return hook

        for name in HOOKS:
            setattr(prefetcher, name, timed(getattr(prefetcher, name)))

    @staticmethod
    def unwrap_hooks(prefetcher: Any) -> None:
        for name in HOOKS:
            prefetcher.__dict__.pop(name, None)


class _Dispatch:
    """Picklable stand-in for a submitted callable: in the worker it
    records the queue wait since submission and the result's pickled
    size and pickling time, then writes the worker's totals."""

    def __init__(self, fn: Callable[..., Any], submitted: float) -> None:
        self.fn = fn
        self.submitted = submitted

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        recorder = _active
        recorder.add("parallel.dispatch_wait_s", time.monotonic() - self.submitted)
        try:
            result = self.fn(*args, **kwargs)
            start = time.perf_counter()
            size = len(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
            recorder.add("parallel.result_pickle_s", time.perf_counter() - start)
            recorder.add("parallel.result_bytes", size)
            return result
        finally:
            recorder.flush()


class _TimedPool(ProcessPoolExecutor):
    def submit(self, fn, /, *args, **kwargs):
        return super().submit(_Dispatch(fn, time.monotonic()), *args, **kwargs)


def _span(recorder: Recorder, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return recorder.call(layer, fn, args, kwargs)

    return wrapper


def _patch(owner: Any, name: str, make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
    setattr(owner, name, make(getattr(owner, name)))


def install(out_dir: str) -> Recorder:
    """Wrap every layer's entry points for this process and its forks."""
    global _active
    import repro.analysis.experiments as experiments
    import repro.analysis.parallel as parallel
    import repro.analysis.tune as tune
    import repro.sim.simulator as simulator
    from repro.analysis.checkpoint import CheckpointManifest
    from repro.analysis.runcache import RunCache
    from repro.analysis.store import ShardedRunStore
    from repro.sim.stages.core import StagedSimulator

    recorder = Recorder(out_dir)
    _active = recorder

    def make_workload(fn):
        @functools.wraps(fn)
        def wrapper(spec):
            recorder.specs.append(repr(spec))
            return recorder.call("workloads", fn, (spec,), {})

        return wrapper

    def simulate(fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            trace = bound.arguments["trace"]
            prefetcher = bound.arguments["prefetcher"]
            config = bound.arguments.get("config")
            by_config = prefetcher.is_ideal or bool(
                config is not None and config.physical_addresses
            )
            streaks = recorder.counts.get("sim.streak_calls", 0)
            if recorder.recording():
                recorder.wrap_hooks(prefetcher)
            start = time.perf_counter()
            try:
                return recorder.call("sim", fn, args, kwargs)
            finally:
                elapsed = time.perf_counter() - start
                recorder.unwrap_hooks(prefetcher)
                recorder.add("sim.instructions", len(trace))
                recorder.add("sim.offpath_by_config", int(by_config))
                if recorder.counts.get("sim.streak_calls", 0) == streaks:
                    recorder.add("sim.offpath_calls", 1)
                    recorder.add("sim.offpath_s", elapsed)

        return wrapper

    def streak(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            recorder.add("sim.streak_calls", 1)
            return fn(*args, **kwargs)

        return wrapper

    def cache_get(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = recorder.call("store.get", fn, args, kwargs)
            recorder.add("store.hits", result is not None)
            return result

        return wrapper

    def map_resilient(fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            jobs = bound.arguments["jobs"]
            n_tasks = len(bound.arguments["tasks"])
            start = time.perf_counter()
            outcome = recorder.call("parallel.map", fn, args, kwargs)
            if jobs > 1:
                elapsed = time.perf_counter() - start
                recorder.add("parallel.capacity_s", elapsed * min(jobs, n_tasks))
            recorder.add("parallel.tasks", n_tasks)
            recorder.add("parallel.attempts", outcome.report.attempts)
            return outcome

        return wrapper

    def search(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = recorder.call("tune", fn, args, kwargs)
            recorder.add("tune.genomes", result.evaluated)
            return result

        return wrapper

    def span(layer):
        return lambda fn: _span(recorder, layer, fn)

    _patch(experiments, "make_workload", make_workload)
    _patch(experiments, "build_fetch_units", span("fetchunits"))
    _patch(experiments, "run_suite", span("experiments"))
    traced_simulate = simulate(simulator.simulate)
    for module in (simulator, experiments, tune):
        module.simulate = traced_simulate
    _patch(StagedSimulator, "_run_active", streak)
    _patch(StagedSimulator, "_run_passive", streak)
    _patch(RunCache, "get", cache_get)
    _patch(RunCache, "put", span("store.put"))
    _patch(ShardedRunStore, "claim", span("store.lease"))
    _patch(ShardedRunStore, "release", span("store.lease"))
    _patch(parallel, "map_resilient", map_resilient)
    _patch(parallel, "execute_task_attempt", span("parallel.task"))
    _patch(tune, "_genome_worker", span("parallel.task"))
    parallel.ProcessPoolExecutor = _TimedPool
    _patch(tune.Tuner, "search", search)
    for name in ("__init__", "note_hit", "mark_done", "close", "stats_line"):
        _patch(CheckpointManifest, name, span("checkpoint"))
    return recorder


# ---------------------------------------------------------------------------
# merging (driver side: plain dicts, no repro import)
# ---------------------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def layer_metrics(
    main: Dict[str, Any],
    workers: List[Dict[str, Any]],
    wall_s: float,
    exit_s: float,
) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition.

    ``main`` is the child's snapshot, ``workers`` its pool workers'.
    Work counts and busy times sum over every process; shares of the
    wall divide the child's own time by ``wall_s``.
    """
    processes = [main] + workers

    def calls(layer: str) -> float:
        return sum(p["layers"].get(layer, (0, 0.0, 0.0))[0] for p in processes)

    def total(layer: str, among=processes) -> float:
        return sum(p["layers"].get(layer, (0, 0.0, 0.0))[1] for p in among)

    def own(layer: str, among=processes) -> float:
        return sum(p["layers"].get(layer, (0, 0.0, 0.0))[2] for p in among)

    def count(name: str, among=processes) -> float:
        return sum(p["counts"].get(name, 0) for p in among)

    specs = [spec for p in processes for spec in p["specs"]]
    sim_total = total("sim")
    core_s = own("sim")
    busy = total("parallel.task", workers)
    wait = count("parallel.dispatch_wait_s", workers)
    attributed = sum(record[2] for record in main["layers"].values()) + exit_s
    return {
        "workloads.gen_calls": calls("workloads"),
        "workloads.gen_dup_calls": len(specs) - len(set(specs)),
        "workloads.gen_s": total("workloads"),
        "fetchunits.build_calls": calls("fetchunits"),
        "fetchunits.build_s": total("fetchunits"),
        "sim.calls": calls("sim"),
        "sim.core_s": core_s,
        "sim.core_instr_per_s": _ratio(count("sim.instructions"), core_s),
        "sim.offpath_calls": count("sim.offpath_calls"),
        "sim.offpath_by_config": count("sim.offpath_by_config"),
        "sim.offpath_share": _ratio(count("sim.offpath_s"), sim_total),
        "prefetchers.hook_calls": calls("prefetchers"),
        "prefetchers.hook_share": _ratio(total("prefetchers"), sim_total),
        "store.get_calls": calls("store.get"),
        "store.get_s": total("store.get"),
        "store.hit_ratio": _ratio(count("store.hits"), calls("store.get")),
        "store.put_calls": calls("store.put"),
        "store.put_s": total("store.put"),
        "store.lease_share": _ratio(total("store.lease"), wall_s),
        "parallel.tasks": count("parallel.tasks"),
        "parallel.attempts": count("parallel.attempts"),
        "parallel.map_share": _ratio(total("parallel.map", [main]), wall_s),
        "parallel.worker_util": _ratio(busy, count("parallel.capacity_s")),
        "parallel.dispatch_wait_share": _ratio(wait, wait + busy),
        "parallel.result_bytes": count("parallel.result_bytes", workers),
        "parallel.result_pickle_share": _ratio(
            count("parallel.result_pickle_s", workers), busy
        ),
        "experiments.self_share": _ratio(own("experiments", [main]), wall_s),
        "tune.self_share": _ratio(own("tune", [main]), wall_s),
        "tune.genomes": count("tune.genomes"),
        "checkpoint.calls": calls("checkpoint"),
        "checkpoint.share": _ratio(total("checkpoint"), wall_s),
        "trace.unattributed_frac": 1.0 - _ratio(attributed, wall_s),
    }
