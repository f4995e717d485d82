"""Tests for heartbeats and the live progress line (repro.obs.events).

Workers send ``TelemetryEvent`` dicts over one queue; the parent's
:class:`ProgressDrain` re-emits them onto the bus, and the progress line
is the bus's :class:`StatusAggregator` read while events arrive.  The
state machine is driven with fake timestamps and the drain with a fake
clock and a plain ``queue.Queue`` so transitions, staleness and
throttled rendering are deterministic; integration tests check that
``run_suite(..., progress=...)`` renders the line, that it equals the
ledger replayed through a fresh aggregator, and that stale flags fold
into the ``FaultReport`` as advisory telemetry.
"""

import io
import json
import os
import queue
import signal
import subprocess
import sys
import textwrap
import threading
import time

from repro.analysis import parallel
from repro.analysis.experiments import (
    resolve_config,
    resolve_warmup,
    run_single,
    run_suite,
)
from repro.analysis.runcache import RunCache, run_key
from repro.obs import events
from repro.obs.events import (
    ProgressDrain,
    StatusAggregator,
    TelemetryEvent,
    WorkerEventRelay,
    open_bus,
    read_events,
    stale_threshold,
    stream_supports_rewrite,
)
from repro.sim.config import SimConfig
from repro.workloads.generators import WorkloadSpec

SPEC = WorkloadSpec(name="hb_wl", category="int", seed=9, n_instructions=20_000)


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _event(kind, label, when, attempt=None):
    config, _, workload = label.partition("/")
    return TelemetryEvent(
        type=kind, ts=when, config=config, workload=workload, attempt=attempt
    )


def _record(kind, label, when, **fields):
    """A worker-side event dict, as WorkerEventRelay puts it on the queue."""
    return dict(type=kind, label=label, ts=when, pid=12345, **fields)


def _status(total=3, when=1000.0):
    status = StatusAggregator()
    status.handle(
        TelemetryEvent(type="suite_started", ts=when,
                       payload={"n_tasks": total})
    )
    return status


def _drain(total=2, stream=None, throttle=0.0, stale_after=60.0):
    clock = FakeClock()
    bus = open_bus()
    bus.emit("suite_started", ts=clock.now, payload={"n_tasks": total})
    drain = ProgressDrain(
        bus, queue.Queue(), stale_after, stream=stream, throttle=throttle,
        clock=clock,
    )
    return drain, clock


class FakeTTY(io.StringIO):
    """A StringIO that claims to be an interactive terminal."""

    def isatty(self):
        return True


class TestHeartbeatPulse:
    def test_beats_until_stopped(self, monkeypatch):
        monkeypatch.setattr(events, "HEARTBEAT_INTERVAL", 0.01)
        q = queue.Queue()
        relay = WorkerEventRelay(q, "cfg/w", 0)
        relay.start()
        assert q.get(timeout=2.0)["type"] == "task_started"
        beat = q.get(timeout=2.0)
        assert (beat["type"], beat["label"], beat["attempt"]) == (
            "heartbeat", "cfg/w", 0
        )
        relay.finish(ok=True)  # joins the pulse with a timeout
        assert not relay._pulse.is_alive()
        drained = []
        while not q.empty():
            drained.append(q.get_nowait())
        assert drained[-1]["type"] == "task_finished"
        assert drained[-1]["payload"] == {"stages": []}

    def test_stale_threshold_tracks_the_task_timeout(self):
        # Half the task timeout, floored at two beats; four beats with
        # no timeout.
        assert stale_threshold(60.0) == 30.0
        assert stale_threshold(1.0) == 2.0 * events.HEARTBEAT_INTERVAL
        assert stale_threshold(None) == 4.0 * events.HEARTBEAT_INTERVAL


class TestHeartbeatMonitor:
    """The parent-side state machine: the bus's StatusAggregator fed
    fake timestamps, and the ProgressDrain that feeds and renders it."""

    def test_lifecycle_counters_and_status_line(self):
        status = _status(total=3)
        status.handle(_event("task_started", "c/a", 1000.0, attempt=0))
        status.handle(_event("task_started", "c/b", 1000.0, attempt=0))
        assert status.running == 2
        status.handle(_event("task_finished", "c/a", 1002.0))
        assert (status.done, status.running, status.failed) == (1, 1, 0)
        line = status.status_line()
        assert line.startswith("status: 1/3 done, 1 running, 0 failed")
        # ETA: 1 done in 2s -> 2 remaining at 2s each.
        assert "ETA 4s" in line

    def test_failed_attempt_returns_task_to_pending(self):
        status = _status()
        status.handle(_event("task_started", "c/a", 1000.0, attempt=0))
        status.handle(_event("task_failed", "c/a", 1000.0, attempt=0))
        assert status.running == 0
        assert status.failed == 0  # the executor may still retry it
        status.handle(_event("task_started", "c/a", 1000.0, attempt=1))
        status.handle(_event("task_finished", "c/a", 1000.0, attempt=1))
        assert status.done == 1

    def test_duplicate_finished_counts_once(self):
        status = _status()
        status.handle(_event("task_finished", "c/a", 1000.0))
        status.handle(_event("task_finished", "c/a", 1000.0))
        assert status.done == 1

    def test_eta_unknown_before_first_completion(self):
        status = _status()
        assert status.eta_seconds() is None
        assert "ETA ?" in status.status_line()

    def test_stale_detection_and_heartbeat_refresh(self):
        status = _status()
        status.handle(_event("task_started", "c/slow", 1000.0, attempt=0))
        assert status.check_stale(1004.0, stale_after=5.0) == []
        status.handle(_event("heartbeat", "c/slow", 1004.0))
        assert status.check_stale(1009.0, stale_after=5.0) == []  # refreshed
        assert status.check_stale(1009.1, stale_after=5.0) == ["c/slow"]
        assert "1 stale (c/slow)" in status.status_line()
        # Flagged once, not per check.
        assert status.check_stale(1019.1, stale_after=5.0) == []
        assert status.stale_tasks == ["c/slow"]

    def test_done_tasks_never_go_stale(self):
        status = _status()
        status.handle(_event("task_started", "c/quick", 1000.0, attempt=0))
        status.handle(_event("task_finished", "c/quick", 1000.0))
        assert status.check_stale(1060.0, stale_after=5.0) == []

    def test_drain_flags_silent_workers_once(self):
        drain, clock = _drain(stale_after=5.0)
        drain.queue.put(_record("task_started", "c/slow", clock.now,
                                attempt=0))
        drain.pump()
        clock.advance(5.1)
        drain.pump()
        clock.advance(10.0)
        drain.pump()
        assert drain.stale_tasks == ["c/slow"]

    def test_render_is_throttled_and_change_only(self):
        stream = io.StringIO()
        drain, clock = _drain(stream=stream, throttle=1.0)
        drain.queue.put(_record("task_started", "c/a", clock.now, attempt=0))
        drain.pump()
        clock.advance(0.1)
        drain.pump()  # inside the throttle window: no second line
        assert stream.getvalue().count("status:") == 1
        clock.advance(2.0)
        drain.pump()  # outside the window but the line is unchanged
        assert stream.getvalue().count("status:") == 1
        drain.queue.put(_record("task_finished", "c/a", clock.now))
        clock.advance(2.0)
        drain.pump()
        assert stream.getvalue().count("status:") == 2

    def test_malformed_event_is_ignored(self):
        drain, clock = _drain()
        drain.queue.put("not-an-event")
        drain.queue.put(("task_started",))
        drain.queue.put({"label": "c/a"})  # no type
        drain.queue.put({"type": "task_started", "bogus": 1})
        drain.pump()  # must not raise
        assert drain.bus.status.running == 0
        drain.queue.put(_record("task_started", "c/a", clock.now, attempt=0))
        drain.pump()  # ... and keeps draining afterwards
        assert drain.bus.status.running == 1

    def test_closed_stream_does_not_raise(self):
        stream = io.StringIO()
        drain, clock = _drain(stream=stream)
        stream.close()
        drain.queue.put(_record("task_started", "c/a", clock.now, attempt=0))
        drain.pump()


class TestStreamRewrite:
    def test_tty_gets_carriage_return_rewriting(self, monkeypatch):
        monkeypatch.delenv("NO_COLOR", raising=False)
        monkeypatch.setenv("TERM", "xterm-256color")
        stream = FakeTTY()
        assert stream_supports_rewrite(stream)
        drain, clock = _drain(stream=stream)
        drain.queue.put(_record("task_started", "c/a", clock.now, attempt=0))
        drain.pump()
        clock.advance(1.0)
        drain.queue.put(_record("task_finished", "c/a", clock.now))
        drain.pump()
        out = stream.getvalue()
        assert out.startswith("\r")
        assert out.count("\r") == 2  # rewritten in place, not stacked
        assert "\n" not in out  # the newline belongs to close()
        drain.close()
        assert stream.getvalue().endswith("\n")

    def test_rewrite_pads_over_longer_previous_line(self, monkeypatch):
        monkeypatch.delenv("NO_COLOR", raising=False)
        monkeypatch.setenv("TERM", "xterm")
        stream = FakeTTY()
        drain, _clock = _drain(stream=stream)
        drain._line_width = 0
        drain._render(force=True)
        first_len = len(drain._last_line)
        drain._last_line = ""  # force a re-render of a shorter line
        drain._line_width = first_len + 20
        drain._render(force=True)
        chunks = stream.getvalue().split("\r")
        assert len(chunks[-1]) >= first_len + 20  # blank-padded residue

    def test_non_tty_gets_newline_lines(self):
        stream = io.StringIO()  # isatty() is False
        assert not stream_supports_rewrite(stream)
        drain, clock = _drain(total=1, stream=stream)
        drain.queue.put(_record("task_started", "c/a", clock.now, attempt=0))
        drain.pump()
        drain.close()
        out = stream.getvalue()
        assert "\r" not in out
        assert all(line.startswith("status:")
                   for line in out.strip().splitlines())

    def test_no_color_and_dumb_term_disable_rewrite(self, monkeypatch):
        stream = FakeTTY()
        monkeypatch.setenv("NO_COLOR", "1")
        assert not stream_supports_rewrite(stream)
        monkeypatch.delenv("NO_COLOR", raising=False)
        monkeypatch.setenv("TERM", "dumb")
        assert not stream_supports_rewrite(stream)
        monkeypatch.setenv("TERM", "xterm")
        assert stream_supports_rewrite(stream)

    def test_exotic_isatty_failure_is_not_a_tty(self):
        class Exotic:
            def isatty(self):
                raise OSError("no fd")

        assert not stream_supports_rewrite(Exotic())

    def test_close_always_emits_final_summary(self):
        # Throttling suppressed every intermediate render; the final
        # summary line must still appear so logs record the outcome.
        stream = io.StringIO()
        drain, clock = _drain(total=1, stream=stream, throttle=1e9)
        drain.queue.put(_record("task_started", "c/a", clock.now, attempt=0))
        drain.queue.put(_record("task_finished", "c/a", clock.now))
        drain.pump()
        drain.pump()
        drain.close()
        out = stream.getvalue()
        assert "1/1 done" in out


class TestCleanShutdown:
    def test_close_tolerates_dead_queue_and_closed_stream(self):
        stream = io.StringIO()
        drain, _clock = _drain(stream=stream)

        class DeadQueue:
            def get_nowait(self):
                raise ConnectionResetError("manager is gone")

        drain.queue = DeadQueue()
        stream.close()
        drain.close()  # must not raise

    def test_sigint_mid_suite_exits_without_tracebacks(self, tmp_path):
        """A parent killed mid-``run_suite`` must shut the Manager queue
        down cleanly: no atexit tracebacks from the manager process, no
        BrokenPipe noise from the drain thread."""
        script = tmp_path / "victim.py"
        script.write_text(textwrap.dedent(
            """
            import io, sys
            from repro.analysis.experiments import run_suite
            from repro.workloads.generators import WorkloadSpec

            specs = [
                WorkloadSpec(name=f"sig_{i}", category="srv", seed=i,
                             n_instructions=800_000)
                for i in range(4)
            ]
            print("READY", flush=True)
            try:
                run_suite(
                    specs, ["no", "next_line"], warmup_instructions=100_000,
                    include_baseline=False, jobs=2, cache=None,
                    checkpoint=None, progress=io.StringIO(),
                )
            except KeyboardInterrupt:
                print("interrupted", file=sys.stderr, flush=True)
                sys.exit(130)
            sys.exit(0)
            """
        ))
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env,
        )
        try:
            assert proc.stdout.readline().strip() == "READY"
            time.sleep(1.5)  # let the suite get into flight
            proc.send_signal(signal.SIGINT)
            _out, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        # Finishing before the signal (rc 0) is acceptable on a very
        # fast machine; an interrupt must exit 130 with clean stderr.
        assert proc.returncode in (0, 130), err
        assert "Traceback" not in err, err


def _final_line(stream):
    return stream.getvalue().splitlines()[-1]


def _replayed_line(path):
    status = StatusAggregator()
    for event in read_events(path).events:
        status.handle(event)
    return status.status_line()


class TestRunSuiteProgress:
    def test_progress_stream_gets_status_lines(self):
        stream = io.StringIO()
        evaluation = run_suite(
            [SPEC], ["next_line"], jobs=1, cache=None, checkpoint=None,
            progress=stream,
        )
        assert evaluation.is_complete()
        output = stream.getvalue()
        assert "status:" in output
        # The final (forced) render reports everything done.
        assert "2/2 done" in output.splitlines()[-1]

    def test_progress_env_var_enables_monitor(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_PROGRESS", "1")
        evaluation = run_suite(
            [SPEC], ["next_line"], include_baseline=False, jobs=1,
            cache=None, checkpoint=None,
        )
        assert evaluation.is_complete()
        assert "status:" in capsys.readouterr().err

    def test_progress_off_by_default_no_heartbeat_import_needed(self):
        stream = io.StringIO()
        evaluation = run_suite(
            [SPEC], ["next_line"], include_baseline=False, jobs=1,
            cache=None, checkpoint=None,
        )
        assert evaluation.is_complete()
        assert stream.getvalue() == ""

    def test_stale_flags_fold_into_fault_report(self, monkeypatch):
        """A worker that stops beating mid-task is flagged on the live
        line and folded into the FaultReport as advisory fields."""
        monkeypatch.setattr(events, "HEARTBEAT_INTERVAL", 0.005)
        monkeypatch.setattr(WorkerEventRelay, "_beat", lambda self: None)
        body = parallel._attempt_body

        def slow_body(*args):
            time.sleep(0.8)  # several drain polls past the 0.02s threshold
            return body(*args)

        monkeypatch.setattr(parallel, "_attempt_body", slow_body)
        stream = io.StringIO()
        evaluation = run_suite(
            [SPEC], ["next_line"], include_baseline=False, jobs=1,
            cache=None, checkpoint=None, progress=stream,
        )
        report = evaluation.faults
        assert report.heartbeat_stale == 1
        assert report.stale_tasks == ["next_line/hb_wl"]
        # Advisory only: a stale flag alone does not dirty the report.
        assert report.clean
        assert "1 stale heartbeats" in report.summary_line()
        assert _final_line(stream).endswith(", 1 stale (next_line/hb_wl)")

    def test_monitored_run_signature_matches_unmonitored(self):
        baseline = run_suite(
            [SPEC], ["next_line"], include_baseline=False, jobs=1,
            cache=None, checkpoint=None,
        )
        monitored = run_suite(
            [SPEC], ["next_line"], include_baseline=False, jobs=1,
            cache=None, checkpoint=None, progress=io.StringIO(),
        )
        a = baseline.runs["next_line"]["hb_wl"].stats.signature()
        b = monitored.runs["next_line"]["hb_wl"].stats.signature()
        assert a == b


class TestLiveLineMatchesLedger:
    """The last progress line equals the ledger replayed through a fresh
    StatusAggregator (plus any stale suffix, which only the live side
    can know)."""

    def _check(self, tmp_path, **kwargs):
        stream = io.StringIO()
        ledger = str(tmp_path / "ev.jsonl")
        evaluation = run_suite(
            [SPEC], ["no", "next_line"], include_baseline=False,
            checkpoint=None, progress=stream, events_path=ledger, **kwargs
        )
        final, replayed = _final_line(stream), _replayed_line(ledger)
        assert final == replayed or (
            final.startswith(replayed + ", ") and " stale (" in final
        ), (final, replayed)
        return evaluation, final

    def test_clean_parallel_run(self, tmp_path):
        evaluation, final = self._check(tmp_path, jobs=2, cache=None)
        assert evaluation.is_complete()
        assert final.startswith("status: 2/2 done, 0 running, 0 failed")

    def test_injected_crashes_then_retries(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:1.0:first")
        monkeypatch.setenv("REPRO_TASK_BACKOFF", "0.01")
        evaluation, final = self._check(tmp_path, jobs=2, cache=None)
        assert evaluation.is_complete()
        assert evaluation.faults.retries == 2
        assert final.startswith("status: 2/2 done, 0 running, 0 failed")

    def test_warm_rerun_served_from_cache(self, tmp_path):
        cache = RunCache()
        run_suite(
            [SPEC], ["no", "next_line"], include_baseline=False, jobs=1,
            cache=cache, checkpoint=None,
        )
        _evaluation, final = self._check(tmp_path, jobs=2, cache=cache)
        assert final.startswith("status: 2/2 done, 0 running, 0 failed, "
                                "2 cached")


class TestCoalescedFollowers:
    """Regression: pairs another live evaluator owns are followed (served
    as coalesced cache hits once it publishes) and count on the progress
    line exactly as in the ledger — also when every pair is followed."""

    CONFIGS = ["no", "next_line"]

    def _run(self, tmp_path, followed):
        cache_dir = str(tmp_path / "cache")
        owner = RunCache(disk_dir=cache_dir)
        claims = []
        for config in followed:
            sim_config = resolve_config(config, SimConfig())[1]
            key = run_key(SPEC, config, sim_config, resolve_warmup(SPEC, None))
            claims.append(
                (key, owner.store.claim(key), run_single(SPEC, config))
            )

        def publish_later():
            time.sleep(1.0)
            for key, lease, result in claims:
                owner.put(key, result)
                owner.store.release(lease)

        publisher = threading.Thread(target=publish_later)
        publisher.start()
        stream = io.StringIO()
        ledger = str(tmp_path / "ev.jsonl")
        try:
            evaluation = run_suite(
                [SPEC], self.CONFIGS, include_baseline=False, jobs=1,
                cache=RunCache(disk_dir=cache_dir), checkpoint=None,
                progress=stream, events_path=ledger,
            )
        finally:
            publisher.join(timeout=30.0)
        assert not publisher.is_alive()
        assert evaluation.is_complete()
        return stream, ledger

    def test_progress_line_counts_coalesced_follower(self, tmp_path):
        stream, ledger = self._run(tmp_path, followed=["next_line"])
        final = _final_line(stream)
        assert final.startswith("status: 2/2 done, 0 running, 0 failed, "
                                "1 cached")
        assert final == _replayed_line(ledger)

    def test_all_followed_suite_prints_final_line(self, tmp_path):
        stream, ledger = self._run(tmp_path, followed=self.CONFIGS)
        assert stream.getvalue(), "no progress line for an all-followed suite"
        final = _final_line(stream)
        assert final.startswith("status: 2/2 done, 0 running, 0 failed, "
                                "2 cached")
        assert final == _replayed_line(ledger)

    def test_stolen_follower_counts_as_done(self, tmp_path):
        """A pair whose lease owner died is stolen and simulated through
        the worker entry point, so the follower reports the task."""
        cache = RunCache(disk_dir=str(tmp_path / "cache"))
        sim_config = resolve_config("next_line", SimConfig())[1]
        key = run_key(SPEC, "next_line", sim_config, resolve_warmup(SPEC, None))
        # Planted after the cache opened (opening reaps dead-pid leases).
        lease = cache.store.claim(key)
        with open(lease.path, "w") as fh:
            json.dump({"pid": 2 ** 22 + 1, "host": cache.store.host}, fh)
        ledger = str(tmp_path / "ev.jsonl")
        evaluation = run_suite(
            [SPEC], ["next_line"], include_baseline=False, jobs=1,
            cache=cache, checkpoint=None, events_path=ledger,
        )
        assert evaluation.is_complete()
        assert cache.lease_steals == 1
        assert _replayed_line(ledger).startswith("status: 1/1 done, "
                                                 "0 running, 0 failed")
