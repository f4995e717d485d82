"""Source-affine dispatch in ``map_resilient``.

The contract under test: at ``jobs > 1`` each worker runs one task at a
time, and its next task is one whose affinity key it has run, else one
whose key no worker has run, else a task of a key with at least
``STEAL_MIN`` undispatched tasks.  The scheduler
keys tasks by their trace source, so a cold evaluation builds each trace
about once instead of once per worker; placement never changes a
result, and callers without keys get plain dynamic dispatch.
"""

import multiprocessing
import os
import time

import pytest

import repro.analysis.experiments as experiments
import repro.analysis.parallel as parallel
from repro.analysis.experiments import run_suite
from repro.analysis.parallel import (
    STEAL_MIN,
    RetryPolicy,
    _Backlog,
    _Worker,
    map_resilient,
)
from repro.analysis.runcache import RunCache
from repro.workloads.generators import WorkloadSpec

#: Seeds no other test uses, so no forked worker inherits a memoized trace.
FOUR_SPECS = [
    WorkloadSpec(name=f"dispatch_{category}", category=category,
                 seed=31_000 + i, n_instructions=6_000)
    for i, category in enumerate(("crypto", "int", "fp", "srv"))
]
ONE_SPEC = WorkloadSpec(
    name="dispatch_one", category="int", seed=31_100, n_instructions=6_000
)

forking = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the call log is installed in the parent and inherited by fork",
)


@pytest.fixture
def call_log(tmp_path, monkeypatch):
    """Log every trace generation and every task run, in any process, as
    ``<kind> <pid>`` lines; returns a reader of ``kind -> [pid, ...]``."""
    path = str(tmp_path / "calls.log")

    def logged(kind, fn):
        def wrapper(*args, **kwargs):
            with open(path, "a") as fh:
                fh.write(f"{kind} {os.getpid()}\n")
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        experiments, "make_workload", logged("gen", experiments.make_workload)
    )
    monkeypatch.setattr(
        parallel, "run_single", logged("run", parallel.run_single)
    )

    def read():
        calls = {"gen": [], "run": []}
        if os.path.exists(path):
            with open(path) as fh:
                for line in fh:
                    kind, pid = line.split()
                    calls[kind].append(int(pid))
        return calls

    return read


def signatures(evaluation):
    return {
        (config, name): result.stats.signature()
        for config, runs in evaluation.runs.items()
        for name, result in runs.items()
    }


@forking
class TestSourceAffinity:
    CONFIGS = ["next_line", "entangling_4k", "mana_4k"]  # plus the "no" baseline

    def test_cold_store_builds_each_trace_about_once(self, call_log):
        evaluation = run_suite(
            FOUR_SPECS, self.CONFIGS, jobs=2, cache=RunCache(), checkpoint=None
        )
        assert evaluation.is_complete()
        calls = call_log()
        assert len(calls["run"]) == 16
        assert os.getpid() not in calls["run"]
        # 4 traces, at most one of them stolen by a second worker (the
        # old submit-everything round built up to 8).
        assert len(calls["gen"]) <= 5
        reference = run_suite(
            FOUR_SPECS, self.CONFIGS, jobs=1, cache=None, checkpoint=None
        )
        assert signatures(evaluation) == signatures(reference)

    def test_one_trace_still_runs_on_two_workers(self, call_log):
        configs = ["next_line", "entangling_4k", "entangling_2k", "mana_4k",
                   "djolt"]
        evaluation = run_suite(
            [ONE_SPEC], configs, jobs=2, cache=None, checkpoint=None
        )
        assert evaluation.is_complete()
        calls = call_log()
        assert len(calls["run"]) == 6
        assert len(set(calls["run"])) == 2
        reference = run_suite(
            [ONE_SPEC], configs, jobs=1, cache=None, checkpoint=None
        )
        assert signatures(evaluation) == signatures(reference)


def _flaky_square(task, attempt, in_process=False):
    if task % 2 and attempt == 0:
        raise RuntimeError("first-attempt failure")
    return task * task


class TestMapResilientPooled:
    POLICY = RetryPolicy(retries=1, backoff_base=0.0)

    @pytest.mark.parametrize("keys", [None, ["a", "a", "b", None, "b", "a"]])
    def test_results_and_counts(self, keys):
        outcome = map_resilient(
            _flaky_square, [1, 2, 3, 4, 5, 6], list("uvwxyz"), jobs=2,
            policy=self.POLICY, keys=keys,
        )
        assert outcome.results == [1, 4, 9, 16, 25, 36]
        assert outcome.attempts == [2, 1, 2, 1, 2, 1]
        report = outcome.report
        assert report.attempts == 9
        assert report.retries == 3
        assert report.task_errors == 3
        assert not report.quarantined and report.pool_breaks == 0

    def test_quarantine_counts(self):
        outcome = map_resilient(
            _flaky_square, [1, 3], ["a", "b"], jobs=2,
            policy=RetryPolicy(retries=0, backoff_base=0.0), keys=["k", "k"],
        )
        assert outcome.results == [None, None]
        assert [f.label for f in outcome.report.quarantined] == ["a", "b"]
        assert outcome.report.task_errors == 2


def _hang_forever(task, attempt, in_process=False):
    time.sleep(120)


def test_timeouts_leave_no_live_worker():
    """Every timed-out attempt's process is killed and reaped, so a task
    that always hangs costs no process per attempt."""
    before = {p.pid for p in multiprocessing.active_children()}
    outcome = map_resilient(
        _hang_forever, list(range(4)), list("abcd"), jobs=2,
        policy=RetryPolicy(retries=1, backoff_base=0.0, timeout=0.3),
    )
    report = outcome.report
    assert outcome.results == [None] * 4
    assert report.timeouts == 8 and report.attempts == 8
    assert len(report.quarantined) == 4 and report.pool_breaks == 0
    assert {p.pid for p in multiprocessing.active_children()} <= before


class TestDispatchOrder:
    """:class:`_Backlog` alone: which task each worker is handed."""

    def test_no_keys_is_task_order(self):
        workers = [_Worker(), _Worker()]
        backlog = _Backlog(range(4), None, workers)
        taken = [backlog.take(workers[i % 2]) for i in range(4)]
        assert taken == [0, 1, 2, 3]
        assert not backlog

    def test_own_key_then_fresh_key(self):
        a, b = _Worker(), _Worker()
        keys = ["x", "y", "x", "y", "x", "z"]
        backlog = _Backlog(range(6), keys, [a, b])
        assert backlog.take(a) == 0          # fresh "x"
        assert backlog.take(b) == 1          # "x" is a's: fresh "y"
        assert backlog.take(a) == 2          # a's own "x"
        assert backlog.take(a) == 4
        assert backlog.take(a) == 5          # "x" done: fresh "z"
        assert backlog.take(b) == 3          # b's own "y"
        assert a.keys == {"x", "z"} and b.keys == {"y"}

    def test_steal_needs_a_long_queue(self):
        a, b = _Worker(), _Worker()
        backlog = _Backlog(range(STEAL_MIN + 2), ["x"] * (STEAL_MIN + 2), [a, b])
        assert backlog.take(a) == 0
        assert backlog.take(a) == 1
        assert backlog.take(b) == 2          # STEAL_MIN left: steals
        assert backlog.take(b) == 3          # and now "x" is its own key
        c = _Worker()
        assert backlog.take(c) is None       # too few left for a second build

    def test_keys_persist_across_rounds(self):
        a, b = _Worker(), _Worker()
        first = _Backlog(range(2), ["x", "y"], [a, b])
        assert (first.take(a), first.take(b)) == (0, 1)
        retry = _Backlog([0, 1], ["x", "y"], [a, b])
        assert retry.take(b) == 1            # b built "y" last round
        assert retry.take(a) == 0
