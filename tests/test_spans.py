"""Tests for the event-rendered execution trace (repro.obs.chrometrace).

Covers Chrome trace-event rendering from telemetry events (span
pairing, lanes, error tags, stages, backoffs, cache lookups, task
summaries), the worker-side stage capture that feeds it, and the
end-to-end contract: a traced parallel ``run_suite`` writes a valid
trace containing stage spans from multiple worker pids, a fault-injected
run's error-tagged attempts match the ``FaultReport``, and the trace
rendered from the run ledger alone equals the one the run wrote —
including under injected crashes and a broken pool.
"""

import io
import json
import os
import queue
import subprocess
import sys

import pytest

from repro.analysis.experiments import run_suite
from repro.analysis.parallel import (
    FaultInjector,
    RetryPolicy,
    RunTask,
    execute_task_attempt,
)
from repro.obs.chrometrace import to_chrome_trace, write_chrome_trace
from repro.obs.events import TelemetryEvent, WorkerEventRelay, read_events
from repro.workloads.generators import WorkloadSpec

SUITE = [
    WorkloadSpec(name="span_int", category="int", seed=3, n_instructions=20_000),
    WorkloadSpec(name="span_srv", category="srv", seed=4, n_instructions=20_000),
    WorkloadSpec(name="span_fp", category="fp", seed=5, n_instructions=20_000),
]

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _ev(type_, ts, pid=1, label="", attempt=None, seq=0, **payload):
    config, _, workload = label.partition("/")
    return TelemetryEvent(
        type=type_, seq=seq, ts=ts, pid=pid, config=config,
        workload=workload, attempt=attempt, payload=payload,
    )


def _complete(trace, name=None):
    return [
        e for e in trace["traceEvents"]
        if e["ph"] == "X" and (name is None or e["name"] == name)
    ]


class TestChromeTrace:
    def _events(self):
        return [
            _ev("suite_started", 100.0, n_tasks=1),
            _ev("task_started", 100.2, pid=7, label="cfg/w", attempt=0),
            _ev("task_failed", 100.3, pid=7, label="cfg/w", attempt=0),
            _ev("attempt_failed", 100.4, label="cfg/w", attempt=0,
                error="boom"),
            _ev("backoff", 100.5, attempt=1, seconds=0.05, pending=1),
            _ev("task_started", 100.5, pid=8, label="cfg/w", attempt=1),
            _ev("task_finished", 100.8, pid=8, label="cfg/w", attempt=1,
                stages=[["simulate", 100.6, 100.7]]),
            _ev("suite_finished", 101.0, completed=1),
        ]

    def test_structure_and_timestamps(self):
        trace = to_chrome_trace(self._events())
        assert trace["displayTimeUnit"] == "ms"
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert meta == [
            {
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": f"{role} (pid {pid})"},
            }
            for pid, role in ((1, "suite"), (8, "worker"))
        ]
        (suite,) = _complete(trace, "suite")
        assert suite["ts"] == 0.0  # origin is the earliest span start
        assert suite["dur"] == pytest.approx(1e6)
        assert suite["args"]["n_tasks"] == 1
        assert suite["args"]["completed"] == 1
        attempts = _complete(trace, "attempt")
        assert [e["ts"] for e in attempts] == pytest.approx([0.2e6, 0.5e6])
        assert [e["dur"] for e in attempts] == pytest.approx([0.1e6, 0.3e6])
        # Executor spans sit on the suite process, one lane per label.
        assert {(e["pid"], e["tid"]) for e in attempts} == {(1, 2)}
        (task,) = _complete(trace, "task")
        assert (task["pid"], task["tid"]) == (1, 2)
        assert task["args"]["attempts"] == 2
        assert task["args"]["status"] == "ok"
        assert task["dur"] == pytest.approx(0.6e6)
        (stage,) = _complete(trace, "simulate")
        assert (stage["cat"], stage["pid"], stage["tid"]) == ("stage", 8, 1)
        assert stage["ts"] == pytest.approx(0.6e6)
        (backoff,) = _complete(trace, "backoff")
        assert backoff["ts"] == pytest.approx(0.45e6)
        assert backoff["dur"] == pytest.approx(0.05e6)

    def test_error_spans_are_marked(self):
        trace = to_chrome_trace(self._events())
        error = [e for e in trace["traceEvents"] if e.get("cname")]
        assert len(error) == 1
        assert error[0]["name"] == "attempt"
        assert error[0]["cname"] == "terrible"
        assert error[0]["args"]["status"] == "error"
        assert error[0]["args"]["error"] == "boom"

    def test_write_to_path_and_file_object(self, tmp_path):
        path = tmp_path / "trace.json"
        returned = write_chrome_trace(self._events(), str(path))
        on_disk = json.loads(path.read_text())
        assert on_disk == json.loads(json.dumps(returned))
        buffer = io.StringIO()
        write_chrome_trace(self._events(), buffer)
        assert json.loads(buffer.getvalue())["traceEvents"]

    def test_input_order_does_not_matter(self):
        events = self._events()
        for seq, event in enumerate(events, start=1):
            event.seq = seq
        assert to_chrome_trace(events[::-1]) == to_chrome_trace(events)

    def test_empty_input(self):
        assert to_chrome_trace([])["traceEvents"] == []

    def test_unstarted_attempt_and_serial_fallback_reuse(self):
        """A pool break fails attempts no worker started (zero-width
        error span); serial fallback then reuses attempt 0."""
        trace = to_chrome_trace([
            _ev("suite_started", 10.0),
            _ev("attempt_failed", 10.5, label="c/w", attempt=0,
                error="process pool broke"),
            _ev("task_started", 11.0, label="c/w", attempt=0),
            _ev("task_finished", 12.0, label="c/w", attempt=0),
            _ev("suite_finished", 13.0),
        ])
        attempts = _complete(trace, "attempt")
        assert [e["args"]["status"] for e in attempts] == ["error", "ok"]
        assert attempts[0]["dur"] == 0.0
        assert attempts[1]["dur"] == pytest.approx(1e6)
        (task,) = _complete(trace, "task")
        assert task["args"]["attempts"] == 2

    def test_verdict_closes_attempt_the_worker_never_closed(self):
        trace = to_chrome_trace([
            _ev("task_started", 1.0, pid=5, label="c/w", attempt=0),
            _ev("attempt_failed", 3.0, label="c/w", attempt=0,
                error="timed out after 2.0s (attempt 0)"),
        ])
        (attempt,) = _complete(trace, "attempt")
        assert attempt["dur"] == pytest.approx(2e6)
        assert attempt["args"]["error"].startswith("timed out")

    def test_validation_reject_tags_a_finished_attempt(self):
        trace = to_chrome_trace([
            _ev("task_started", 1.0, pid=5, label="c/w", attempt=0),
            _ev("task_finished", 2.0, pid=5, label="c/w", attempt=0),
            _ev("attempt_failed", 2.5, label="c/w", attempt=0,
                error="invalid result (failed validation)"),
        ])
        (attempt,) = _complete(trace, "attempt")
        assert attempt["args"]["status"] == "error"
        assert attempt["dur"] == pytest.approx(1e6)

    def test_task_summaries_cached_and_quarantined(self):
        trace = to_chrome_trace([
            _ev("cache_hit", 1.0, label="c/hit"),
            _ev("cache_miss", 1.1, label="c/bad"),
            _ev("task_started", 1.2, label="c/bad", attempt=0),
            _ev("attempt_failed", 1.3, label="c/bad", attempt=0,
                error="RuntimeError: x"),
            _ev("quarantined", 1.4, label="c/bad", attempt=1,
                error="RuntimeError: x"),
        ])
        lookups = _complete(trace, "cache_lookup")
        assert [(e["args"]["label"], e["args"]["hit"], e["dur"])
                for e in lookups] == [("c/hit", True, 0.0),
                                      ("c/bad", False, 0.0)]
        tasks = {e["args"]["label"]: e for e in _complete(trace, "task")}
        assert tasks["c/hit"]["args"]["cached"] is True
        assert tasks["c/hit"]["args"]["attempts"] == 0
        assert tasks["c/hit"]["args"]["status"] == "ok"
        assert tasks["c/bad"]["args"]["status"] == "error"
        assert tasks["c/bad"]["args"]["error"] == "RuntimeError: x"
        assert tasks["c/bad"].get("cname") == "terrible"
        assert tasks["c/hit"]["tid"] != tasks["c/bad"]["tid"]


class TestWorkerStages:
    def test_relay_records_stages(self):
        relay = WorkerEventRelay(queue.Queue(), "c/w", 0)
        with relay.stage("fetch_units"):
            pass
        ((name, start, end),) = relay.stages
        assert name == "fetch_units" and start <= end

    def test_run_single_times_stages_only_through_a_relay(self):
        from repro.analysis.experiments import run_single
        from repro.obs.events import open_bus, set_event_bus

        relay = WorkerEventRelay(queue.Queue(), "no/span_int", 0)
        previous = set_event_bus(relay)
        try:
            run_single(SUITE[0], "no")
        finally:
            set_event_bus(previous)
        assert [s[0] for s in relay.stages] == [
            "workload_build", "fetch_units", "simulate"
        ]
        # Any other bus (or none) leaves the stages untimed.
        bus = open_bus(None)
        previous = set_event_bus(bus)
        try:
            run_single(SUITE[0], "no")
        finally:
            set_event_bus(previous)
        run_single(SUITE[0], "no")
        assert len(relay.stages) == 3 and bus.status.counts == {}

    def test_finished_event_carries_stages_and_slots_restore(self):
        from repro.obs.events import get_event_bus, open_bus, set_event_bus

        progress = queue.Queue()
        outer = open_bus(None)
        previous = set_event_bus(outer)
        try:
            execute_task_attempt(
                RunTask(SUITE[0], "no", None, None), 0, in_process=True,
                progress=progress,
            )
            assert get_event_bus() is outer
        finally:
            set_event_bus(previous)
        assert get_event_bus() is None
        # The attempt's events ride the queue, never the outer bus.
        assert outer.status.counts == {}
        drained = []
        while not progress.empty():
            drained.append(progress.get_nowait())
        assert [e["type"] for e in drained if e["type"] != "heartbeat"] == [
            "task_started", "task_finished"
        ]
        finished = drained[-1]
        assert (finished["label"], finished["pid"]) == (
            "no/span_int", os.getpid()
        )
        assert [s[0] for s in finished["payload"]["stages"]] == [
            "workload_build", "fetch_units", "simulate"
        ]


def _load_trace(path):
    trace = json.loads(path.read_text())
    assert isinstance(trace["traceEvents"], list) and trace["traceEvents"]
    return trace


class TestRunSuiteTracing:
    def test_parallel_traced_run_writes_merged_trace(self, tmp_path):
        """The headline integration: jobs=2 + trace_path produces a valid
        Chrome trace with suite/task/attempt spans and worker-side stage
        spans from at least two worker pids."""
        trace_path = tmp_path / "suite_trace.json"
        evaluation = run_suite(
            SUITE, ["next_line"], jobs=2, cache=None, checkpoint=None,
            trace_path=str(trace_path),
        )
        assert evaluation.is_complete()
        trace = _load_trace(trace_path)
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in events}
        assert {"suite", "task", "attempt"} <= names
        # Worker-side stage timings rode the task_finished events back
        # and render on the worker processes — not the parent.
        worker_events = [
            e for e in events if e["cat"] in ("worker", "stage")
        ]
        worker_pids = {e["pid"] for e in worker_events}
        assert os.getpid() not in worker_pids
        assert len(worker_pids) >= 2, worker_pids
        # 2 configs (baseline + next_line) x 3 workloads = 6 tasks.
        tasks = [e for e in events if e["name"] == "task"]
        assert len(tasks) == 6
        assert all(e["args"]["status"] == "ok" for e in tasks)
        # Process metadata names every participating pid.
        meta_pids = {
            e["pid"] for e in trace["traceEvents"] if e["ph"] == "M"
        }
        assert worker_pids <= meta_pids

    def test_serial_traced_run_also_produces_trace(self, tmp_path):
        trace_path = tmp_path / "serial_trace.json"
        evaluation = run_suite(
            SUITE[:1], ["next_line"], jobs=1, cache=None, checkpoint=None,
            trace_path=str(trace_path),
        )
        assert evaluation.is_complete()
        trace = _load_trace(trace_path)
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert {"suite", "task", "attempt", "simulate"} <= names

    def test_cache_hits_become_cache_lookup_spans(self, tmp_path):
        from repro.analysis.runcache import RunCache

        cache = RunCache()
        run_suite(
            SUITE[:1], ["next_line"], jobs=1, cache=cache, checkpoint=None,
        )
        trace_path = tmp_path / "cached_trace.json"
        run_suite(
            SUITE[:1], ["next_line"], jobs=1, cache=cache, checkpoint=None,
            trace_path=str(trace_path),
        )
        trace = _load_trace(trace_path)
        lookups = [
            e for e in trace["traceEvents"]
            if e["ph"] == "X" and e["name"] == "cache_lookup"
        ]
        assert lookups and all(e["args"]["hit"] for e in lookups)

    def test_fault_injected_run_trace_matches_fault_report(
        self, tmp_path, monkeypatch
    ):
        """A crash-injected 3-job traced run: the merged trace is valid
        and its error-tagged spans match the FaultReport exactly."""
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:1.0:first")
        monkeypatch.setenv("REPRO_TASK_BACKOFF", "0.01")
        trace_path = tmp_path / "faulted_trace.json"
        evaluation = run_suite(
            SUITE, ["next_line"], jobs=3, cache=None, checkpoint=None,
            retry_policy=RetryPolicy(retries=2, backoff_base=0.01),
            trace_path=str(trace_path),
        )
        # Every task crashed once (scope=first) and recovered on retry.
        assert evaluation.is_complete()
        faults = evaluation.faults
        assert faults.task_errors == 6
        trace = _load_trace(trace_path)
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        error_attempts = [
            e for e in events
            if e["name"] == "attempt" and e["cat"] == "executor"
            and e["args"]["status"] == "error"
        ]
        assert len(error_attempts) == faults.task_errors
        assert all("injected crash" in e["args"]["error"]
                   for e in error_attempts)
        assert all(e.get("cname") == "terrible" for e in error_attempts)
        # Retry backoffs between rounds appear as spans too.
        assert any(e["name"] == "backoff" for e in events)
        # Tasks all recovered, so every task summary is ok.
        tasks = [e for e in events if e["name"] == "task"]
        assert len(tasks) == 6
        assert all(e["args"]["status"] == "ok" for e in tasks)

    def test_quarantined_tasks_are_error_tagged_in_trace(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:1.0:all")
        trace_path = tmp_path / "quarantined_trace.json"
        evaluation = run_suite(
            SUITE[:2], ["next_line"], include_baseline=False, jobs=2,
            cache=None, checkpoint=None,
            retry_policy=RetryPolicy(retries=1, backoff_base=0.01),
            trace_path=str(trace_path),
        )
        faults = evaluation.faults
        assert len(faults.quarantined) == 2
        trace = _load_trace(trace_path)
        tasks = {
            e["args"]["label"]: e
            for e in trace["traceEvents"]
            if e["ph"] == "X" and e["name"] == "task"
        }
        assert set(tasks) == {f.label for f in faults.quarantined}
        assert all(e["args"]["status"] == "error" for e in tasks.values())

    def test_fault_injector_fraction_one_selects_everything(self):
        injector = FaultInjector(mode="crash", fraction=1.0)
        assert injector.selects("anything/at_all")


def _ledger_and_trace(tmp_path, **kwargs):
    """run_suite with both a ledger and a trace; returns the evaluation,
    the written trace, and the trace rendered from the ledger alone."""
    ledger = str(tmp_path / "ledger.jsonl")
    trace_path = tmp_path / "trace.json"
    evaluation = run_suite(
        SUITE[:2], ["next_line"], cache=None, checkpoint=None,
        events_path=ledger, trace_path=str(trace_path), **kwargs,
    )
    read = read_events(ledger)
    assert read.ok
    return evaluation, _load_trace(trace_path), to_chrome_trace(read.events)


def _executor_attempts(trace):
    return [e for e in _complete(trace, "attempt") if e["cat"] == "executor"]


class TestLedgerRendersSameTrace:
    """ROADMAP item 5 (a): the ledger alone reproduces the Perfetto trace."""

    def test_clean_parallel_run(self, tmp_path):
        evaluation, written, rendered = _ledger_and_trace(tmp_path, jobs=2)
        assert evaluation.is_complete()
        assert rendered == written
        assert len(_complete(written, "task")) == 4
        assert len(_executor_attempts(written)) == evaluation.faults.attempts
        stage_pids = {e["pid"] for e in _complete(written)
                      if e["cat"] == "stage"}
        assert stage_pids and os.getpid() not in stage_pids

    def test_injected_crashes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:1.0:first")
        evaluation, written, rendered = _ledger_and_trace(
            tmp_path, jobs=2,
            retry_policy=RetryPolicy(retries=2, backoff_base=0.01),
        )
        assert evaluation.is_complete()
        assert rendered == written
        errors = [e for e in _executor_attempts(written)
                  if e["args"]["status"] == "error"]
        assert len(errors) == evaluation.faults.task_errors == 4
        assert all("injected crash" in e["args"]["error"] for e in errors)

    def test_pool_break_and_serial_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "exit:1.0:first")
        evaluation, written, rendered = _ledger_and_trace(
            tmp_path, jobs=2,
            retry_policy=RetryPolicy(retries=2, backoff_base=0.01),
        )
        faults = evaluation.faults
        assert evaluation.is_complete()
        assert faults.pool_breaks == 1 and faults.serial_fallback
        assert rendered == written
        attempts = _executor_attempts(written)
        # Every executed attempt is one paired span (serial fallback
        # reuses attempt numbers), and every pooled one was failed by
        # the pool break.  Each worker runs one task at a time, so the
        # break fails one task per worker (the first of each trace);
        # the other two first run in the serial fallback.
        assert len(attempts) == faults.attempts
        broken = [e for e in attempts if e["args"]["status"] == "error"]
        assert len(broken) == 2
        assert all(e["args"]["error"].startswith("process pool broke")
                   for e in broken)
        assert all(e["dur"] >= 0 for e in attempts)
        tasks = _complete(written, "task")
        assert sorted(e["args"]["attempts"] for e in tasks) == [1, 1, 2, 2]


class TestSweepTrace:
    @pytest.fixture(scope="class")
    def trace_file(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("sweep") / "t.trc")
        gen = subprocess.run(
            [sys.executable, "-m", "repro", "gen", path, "--category", "srv",
             "--seed", "4", "--instructions", "20000"],
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert gen.returncode == 0, gen.stderr
        return path

    CONFIGS = ["no", "next_line", "entangling_4k"]

    def _sweep(self, trace_file, out, env_extra=None):
        env = dict(os.environ, PYTHONPATH=SRC, REPRO_TASK_BACKOFF="0.01")
        env.update(env_extra or {})
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", trace_file,
             "--prefetchers", ",".join(self.CONFIGS), "--warmup", "5000",
             "--jobs", "2", "--trace", str(out)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "wrote execution trace" in proc.stdout
        return _load_trace(out)

    def test_one_ok_task_per_config(self, trace_file, tmp_path):
        trace = self._sweep(trace_file, tmp_path / "sweep.json")
        tasks = _complete(trace, "task")
        assert sorted(e["args"]["label"] for e in tasks) == sorted(self.CONFIGS)
        assert all(e["args"]["status"] == "ok" for e in tasks)
        assert len(_complete(trace, "suite")) == 1

    def test_injected_crash_is_one_error_attempt_per_config(
        self, trace_file, tmp_path
    ):
        trace = self._sweep(
            trace_file, tmp_path / "sweep_crash.json",
            {"REPRO_FAULT_INJECT": "crash:1.0:first"},
        )
        errors = [e for e in _executor_attempts(trace)
                  if e["args"]["status"] == "error"]
        assert sorted(e["args"]["label"] for e in errors) == sorted(self.CONFIGS)
        assert all("injected crash" in e["args"]["error"] for e in errors)
        # The sweep's attempts live on per-config lanes of the sweep
        # process itself.
        assert {e["pid"] for e in _executor_attempts(trace)} == {
            e["pid"] for e in _complete(trace, "suite")
        }

