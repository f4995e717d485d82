"""Tests for the unified telemetry bus (repro.obs.events) and friends.

Covers the event schema contract (versioned, round-trippable), the
append-only JSONL run ledger (rotation, torn-tail tolerance, concurrent
multi-process appenders), the crash flight recorder, the status
aggregator, the stdlib metrics endpoint, the ``repro events`` /
``repro top`` CLIs — and the two load-bearing integration properties:
every engine occurrence appears in the ledger *exactly once*, and a run
without telemetry never imports this machinery (the zero-cost contract,
pinned with a subprocess) and stays bit-identical.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
import urllib.error
import urllib.request

import pytest

from repro.analysis.experiments import run_suite
from repro.analysis.runcache import RunCache
from repro.obs.events import (
    DEFAULT_FLIGHT_EVENTS,
    EVENT_TYPES,
    SCHEMA_VERSION,
    EventBus,
    EventLedger,
    FlightRecorder,
    StatusAggregator,
    TelemetryEvent,
    event_matches,
    flight_artifact_name,
    follow_events,
    open_bus,
    read_events,
    rotated_path,
    set_event_bus,
    summarize_events,
)
from repro.workloads.generators import WorkloadSpec

SPEC_A = WorkloadSpec(name="ev_a", category="srv", seed=21, n_instructions=30_000)
SPEC_B = WorkloadSpec(name="ev_b", category="srv", seed=22, n_instructions=30_000)
WARMUP = 10_000

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _repro(args, env_extra=None, timeout=300):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


class TestEventSchema:
    def test_round_trip(self):
        event = TelemetryEvent(
            type="task_finished", seq=7, ts=123.5, pid=42,
            run="cafe" * 8, config="entangling_4k", workload="srv_0",
            attempt=2, cycle=9001, payload={"ipc": 1.5},
        )
        back = TelemetryEvent.from_dict(json.loads(event.to_json_line()))
        assert back == event
        assert back.schema_version == SCHEMA_VERSION

    def test_label_joins_config_and_workload(self):
        event = TelemetryEvent(type="heartbeat", config="no", workload="w")
        assert event.label == "no/w"
        assert TelemetryEvent(type="heartbeat", config="no").label == "no"

    def test_rejects_wrong_schema_version(self):
        data = TelemetryEvent(type="heartbeat").to_dict()
        data["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError):
            TelemetryEvent.from_dict(data)

    def test_rejects_missing_type_and_non_dict(self):
        with pytest.raises(ValueError):
            TelemetryEvent.from_dict({"schema_version": SCHEMA_VERSION})
        with pytest.raises(ValueError):
            TelemetryEvent.from_dict(["not", "a", "dict"])

    def test_bus_emissions_use_known_types(self, tmp_path):
        bus = open_bus(str(tmp_path / "ev.jsonl"))
        for type_ in EVENT_TYPES:
            bus.emit(type_, label="cfg/w")
        bus.close()
        read = read_events(str(tmp_path / "ev.jsonl"))
        assert [e.type for e in read.events] == list(EVENT_TYPES)
        # seq is strictly monotonic and 1-based.
        assert [e.seq for e in read.events] == list(
            range(1, len(EVENT_TYPES) + 1)
        )


class TestLedgerDurability:
    def test_append_read_round_trip(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        ledger = EventLedger(path)
        events = [
            TelemetryEvent(type="task_started", seq=i, ts=float(i),
                           config="no", workload=f"w{i}")
            for i in range(1, 6)
        ]
        for event in events:
            ledger.append(event)
        ledger.close()
        read = read_events(path)
        assert read.ok and read.events == events

    def test_torn_tail_is_tolerated_and_counted(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        ledger = EventLedger(path)
        ledger.append(TelemetryEvent(type="heartbeat", seq=1))
        ledger.close()
        # A writer died mid-append: no trailing newline, half a record.
        with open(path, "ab") as fh:
            fh.write(b'{"schema_version": 1, "type": "task_fin')
        read = read_events(path)
        assert len(read.events) == 1
        assert read.torn == 1
        assert read.invalid == 0
        assert not read.ok

    def test_mid_file_garbage_counts_invalid(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        with open(path, "w") as fh:
            fh.write(TelemetryEvent(type="heartbeat", seq=1).to_json_line())
            fh.write("\n")
            fh.write("%% not json at all %%\n")
            fh.write(TelemetryEvent(type="heartbeat", seq=2).to_json_line())
            fh.write("\n")
        read = read_events(path)
        assert [e.seq for e in read.events] == [1, 2]
        assert read.invalid == 1 and read.torn == 0

    def test_missing_file_is_an_empty_read(self, tmp_path):
        read = read_events(str(tmp_path / "never_written.jsonl"))
        assert read.ok and read.events == [] and read.files == []

    def test_rotation_keeps_both_files_readable(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        ledger = EventLedger(path, max_bytes=400)
        for i in range(1, 21):
            ledger.append(TelemetryEvent(type="heartbeat", seq=i))
        ledger.close()
        assert ledger.rotations >= 1
        assert os.path.exists(rotated_path(path))
        read = read_events(path)
        # Rotation drops at most the pre-`.1` generations, never records
        # within a file; the surviving stream is contiguous and ordered.
        seqs = [e.seq for e in read.events]
        assert seqs == sorted(seqs) and seqs[-1] == 20
        assert set(read.files) == {rotated_path(path), path}

    def test_follow_survives_rotation_mid_follow(self, tmp_path):
        """Regression: ``repro events --follow`` used to go silent when
        an appender rotated the ledger (the follower kept polling the
        renamed-away ``.1`` inode).  The follower must drain the old
        inode to EOF — including records appended *between its last poll
        and the swap* — then reopen the new file, losing nothing."""
        path = str(tmp_path / "ledger.jsonl")

        def append(seq):
            with open(path, "a") as fh:
                fh.write(TelemetryEvent(type="heartbeat", seq=seq)
                         .to_json_line() + "\n")

        append(1)
        append(2)
        gen = follow_events(path, duration=60.0, poll=0.01)
        try:
            assert next(gen).seq == 1
            assert next(gen).seq == 2
            # Rotation mid-follow: one more record lands on the old
            # inode, then the swap, then new records on the new inode.
            append(3)
            os.replace(path, rotated_path(path))
            append(4)
            append(5)
            assert [next(gen).seq for _ in range(3)] == [3, 4, 5]
            # A second rotation on the same follow: still no loss.
            os.replace(path, rotated_path(path))
            append(6)
            assert next(gen).seq == 6
        finally:
            gen.close()

    def test_follow_survives_in_place_truncation(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")

        def append(seq):
            with open(path, "a") as fh:
                fh.write(TelemetryEvent(type="heartbeat", seq=seq)
                         .to_json_line() + "\n")

        append(1)
        append(2)
        gen = follow_events(path, duration=60.0, poll=0.01)
        try:
            assert next(gen).seq == 1
            assert next(gen).seq == 2
            with open(path, "w"):
                pass  # truncated in place (same inode), now shorter
            append(3)
            assert next(gen).seq == 3
        finally:
            gen.close()

    def test_follow_waits_out_vanished_path(self, tmp_path):
        """A rotation's tiny window where ``path`` does not exist (or a
        late-starting follower) must not kill the follow."""
        path = str(tmp_path / "ledger.jsonl")
        gen = follow_events(path, duration=60.0, poll=0.01)
        try:
            with open(path, "a") as fh:
                fh.write(TelemetryEvent(type="heartbeat", seq=9)
                         .to_json_line() + "\n")
            assert next(gen).seq == 9
        finally:
            gen.close()

    def test_max_bytes_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_EVENTS_MAX_BYTES", "123")
        assert EventLedger(str(tmp_path / "l.jsonl")).max_bytes == 123
        monkeypatch.setenv("REPRO_EVENTS_MAX_BYTES", "-5")
        ledger = EventLedger(str(tmp_path / "l2.jsonl"))
        assert ledger.max_bytes > 123  # non-positive falls back
        monkeypatch.setenv("REPRO_EVENTS_MAX_BYTES", "junk")
        with pytest.raises(ValueError):
            EventLedger(str(tmp_path / "l3.jsonl"))

    def test_concurrent_appenders_never_interleave(self, tmp_path):
        path = str(tmp_path / "shared.jsonl")
        n_procs, n_records = 4, 50
        ctx = multiprocessing.get_context("spawn")
        procs = [
            ctx.Process(target=_append_worker, args=(path, pid, n_records))
            for pid in range(n_procs)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        read = read_events(path)
        # Every record from every process survives, intact: O_APPEND +
        # one os.write per record means no interleaving mid-line.
        assert read.torn == 0 and read.invalid == 0
        assert len(read.events) == n_procs * n_records
        per_writer = {}
        for event in read.events:
            per_writer.setdefault(event.payload["writer"], []).append(
                event.payload["i"]
            )
        for writer, seen in per_writer.items():
            assert seen == list(range(n_records)), f"writer {writer}"


def _append_worker(path, writer, n_records):
    sys.path.insert(0, SRC)
    from repro.obs.events import EventLedger, TelemetryEvent

    ledger = EventLedger(path)
    for i in range(n_records):
        ledger.append(TelemetryEvent(
            type="heartbeat", seq=i, pid=os.getpid(),
            payload={"writer": writer, "i": i, "pad": "x" * 64},
        ))
    ledger.close()


class TestFlightRecorder:
    def test_ring_is_bounded_and_keeps_newest(self):
        flight = FlightRecorder(capacity=4)
        for i in range(10):
            flight.record(TelemetryEvent(type="heartbeat", seq=i))
        snap = flight.snapshot()
        assert [e.seq for e in snap] == [6, 7, 8, 9]
        assert flight.total_seen == 10

    def test_default_capacity_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FLIGHT_EVENTS", raising=False)
        assert FlightRecorder().capacity == DEFAULT_FLIGHT_EVENTS
        monkeypatch.setenv("REPRO_FLIGHT_EVENTS", "7")
        assert FlightRecorder().capacity == 7

    def test_dump_writes_loadable_envelope(self, tmp_path):
        flight = FlightRecorder(capacity=8)
        flight.record(TelemetryEvent(type="task_started", seq=1,
                                     config="no", workload="w"))
        path = str(tmp_path / flight_artifact_name("no/w"))
        flight.dump(path, reason="injected crash", label="no/w", attempt=1)
        data = json.load(open(path))
        assert data["kind"] == "flight_recording"
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["reason"] == "injected crash"
        assert data["label"] == "no/w" and data["attempt"] == 1
        assert len(data["events"]) == 1
        # The embedded events round-trip through the schema.
        assert TelemetryEvent.from_dict(data["events"][0]).seq == 1

    def test_artifact_name_sanitizes_labels(self):
        assert flight_artifact_name("no/w") == "flight-no_w.json"
        assert flight_artifact_name("") == "flight-task.json"


class TestStatusAggregator:
    def _feed(self, status, *events):
        for event in events:
            status.handle(event)

    def test_lifecycle_counts(self):
        status = StatusAggregator()
        self._feed(
            status,
            TelemetryEvent(type="suite_started", ts=1.0,
                           payload={"n_tasks": 3}),
            TelemetryEvent(type="task_started", ts=1.0, config="no",
                           workload="a"),
            TelemetryEvent(type="task_finished", ts=2.0, config="no",
                           workload="a"),
            TelemetryEvent(type="task_started", ts=2.0, config="no",
                           workload="b"),
        )
        assert (status.total, status.done, status.running) == (3, 1, 1)
        assert status.eta_seconds() is not None
        assert status.status_line().startswith("status: 1/3 done, 1 running")

    def test_quarantine_and_cache(self):
        status = StatusAggregator()
        self._feed(
            status,
            TelemetryEvent(type="quarantined", ts=1.0, config="no",
                           workload="a"),
            TelemetryEvent(type="cache_hit", ts=1.0, config="no",
                           workload="b"),
            TelemetryEvent(type="cache_hit", ts=1.0),  # unlabeled (tune)
        )
        assert (status.failed, status.cached, status.done) == (1, 2, 1)

    def test_enrichment_events_do_not_invent_rows(self):
        status = StatusAggregator()
        self._feed(
            status,
            TelemetryEvent(type="sanitizer", ts=1.0, config="no",
                           workload="a"),
            TelemetryEvent(type="cache_store", ts=1.0, config="no",
                           workload="b"),
            TelemetryEvent(type="flight_dump", ts=1.0, config="no",
                           workload="c"),
        )
        assert status.rows() == []

    def test_multi_suite_ledger_counts_every_suite(self, tmp_path):
        """Regression: a label's terminal event counts once per suite, so
        two suites over the same pairs sharing one bus and one cache (the
        second served entirely from cache) report 8/8 done — live on the
        bus and when the ledger is replayed."""
        path = str(tmp_path / "campaign.jsonl")
        bus = open_bus(path)
        cache = RunCache()
        previous = set_event_bus(bus)
        try:
            for _ in range(2):
                run_suite(
                    [SPEC_A, SPEC_B], ["next_line"],
                    warmup_instructions=WARMUP, jobs=1, cache=cache,
                    checkpoint=None,
                )
        finally:
            set_event_bus(previous)
            bus.close()
        expected = "status: 8/8 done, 0 running, 0 failed, 4 cached, ETA 0s"
        assert bus.status.status_line() == expected
        replay = StatusAggregator()
        self._feed(replay, *read_events(path).events)
        assert replay.status_line() == expected


class TestEventBus:
    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit("heartbeat")
        bus.unsubscribe(seen.append)
        bus.unsubscribe(seen.append)  # absent: no-op
        bus.emit("heartbeat")
        assert len(seen) == 1

    def test_subscriber_exceptions_are_swallowed(self, tmp_path):
        bus = open_bus(str(tmp_path / "ev.jsonl"))
        seen = []

        def bad(event):
            raise RuntimeError("subscriber bug")

        bus.subscribe(bad)
        bus.subscribe(seen.append)
        bus.emit("heartbeat", label="no/w")
        bus.close()
        assert [e.type for e in seen] == ["heartbeat"]
        assert len(read_events(str(tmp_path / "ev.jsonl")).events) == 1

    def test_label_splits_into_config_and_workload(self, tmp_path):
        path = str(tmp_path / "ev.jsonl")
        bus = open_bus(path)
        bus.emit("task_started", label="entangling_4k/srv_3")
        bus.emit("task_started", label="plain")
        bus.close()
        first, second = read_events(path).events
        assert (first.config, first.workload) == ("entangling_4k", "srv_3")
        assert (second.config, second.workload) == ("plain", "")

    def test_set_event_bus_returns_previous(self):
        bus = EventBus()
        previous = set_event_bus(bus)
        try:
            assert set_event_bus(previous) is bus
        finally:
            set_event_bus(previous)

    def test_event_matches_filters(self):
        event = TelemetryEvent(type="task_failed", ts=10.0, run="k1",
                               config="no", workload="w")
        assert event_matches(event, types=["task_failed"])
        assert not event_matches(event, types=["heartbeat"])
        assert event_matches(event, run="k1") and not event_matches(
            event, run="k2"
        )
        assert event_matches(event, since=5.0, until=15.0)
        assert not event_matches(event, since=11.0)
        assert not event_matches(event, until=9.0)


class TestRunSuiteIntegration:
    def _counts(self, path):
        return summarize_events(read_events(path))["counts"]

    def test_exactly_once_parallel(self, tmp_path):
        path = str(tmp_path / "ev.jsonl")
        evaluation = run_suite(
            [SPEC_A, SPEC_B], ["no", "next_line"],
            warmup_instructions=WARMUP, include_baseline=False, jobs=2,
            cache=None, checkpoint=None, events_path=path,
        )
        assert evaluation.is_complete()
        counts = self._counts(path)
        assert counts["suite_started"] == 1
        assert counts["suite_finished"] == 1
        assert counts["task_started"] == 4
        assert counts["task_finished"] == 4
        assert "task_failed" not in counts and "quarantined" not in counts
        read = read_events(path)
        assert read.ok
        # Provenance: every task event carries the run key of its task.
        runs = {e.label: e.run for e in read.events
                if e.type == "task_started"}
        assert len(runs) == 4 and all(
            len(key) == 32 for key in runs.values()
        )

    def test_exactly_once_serial(self, tmp_path):
        path = str(tmp_path / "ev.jsonl")
        evaluation = run_suite(
            [SPEC_A], ["no"], warmup_instructions=WARMUP,
            include_baseline=False, jobs=1, cache=None, checkpoint=None,
            events_path=path,
        )
        assert evaluation.is_complete()
        counts = self._counts(path)
        assert counts["task_started"] == 1
        assert counts["task_finished"] == 1
        assert counts["suite_started"] == counts["suite_finished"] == 1

    def test_repro_events_env_var_enables_ledger(self, tmp_path, monkeypatch):
        path = str(tmp_path / "env.jsonl")
        monkeypatch.setenv("REPRO_EVENTS", path)
        run_suite(
            [SPEC_A], ["no"], warmup_instructions=WARMUP,
            include_baseline=False, jobs=1, cache=None, checkpoint=None,
        )
        assert self._counts(path)["task_finished"] == 1

    def test_cache_hits_surface_exactly_once(self, tmp_path):
        path = str(tmp_path / "ev.jsonl")
        cache = RunCache()
        for _ in range(2):
            run_suite(
                [SPEC_A], ["no"], warmup_instructions=WARMUP,
                include_baseline=False, jobs=2, cache=cache,
                checkpoint=None, events_path=path,
            )
        counts = self._counts(path)
        assert counts["cache_miss"] == 1
        assert counts["cache_store"] == 1
        assert counts["cache_hit"] == 1
        assert counts["task_started"] == 1  # second pass never simulated

    def test_sanitizer_reports_reach_the_ledger(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "report")
        path = str(tmp_path / "ev.jsonl")
        run_suite(
            [SPEC_A], ["next_line"], warmup_instructions=WARMUP,
            include_baseline=False, jobs=2, cache=None, checkpoint=None,
            events_path=path,
        )
        reports = [e for e in read_events(path).events
                   if e.type == "sanitizer"]
        assert len(reports) == 1
        payload = reports[0].payload
        assert payload["ok"] and payload["checks"] > 0
        assert reports[0].workload == SPEC_A.name

    def test_injected_crash_dumps_flight_recording(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:1.0:all")
        monkeypatch.setenv("REPRO_TASK_RETRIES", "1")
        monkeypatch.setenv("REPRO_TASK_BACKOFF", "0.01")
        path = str(tmp_path / "ev.jsonl")
        evaluation = run_suite(
            [SPEC_A], ["no"], warmup_instructions=WARMUP,
            include_baseline=False, jobs=2, cache=None, checkpoint=None,
            events_path=path,
        )
        assert not evaluation.is_complete()
        counts = self._counts(path)
        assert counts["quarantined"] == len(evaluation.faults.quarantined) == 1
        assert counts["attempt_failed"] == 2  # initial attempt + 1 retry
        # The flight artifact is linked from the FaultReport, exists,
        # and replays the task's last events.
        assert list(evaluation.faults.flight_recordings) == ["no/ev_a"]
        artifact = evaluation.faults.flight_recordings["no/ev_a"]
        data = json.load(open(artifact))
        assert data["kind"] == "flight_recording"
        assert "quarantined" in data["reason"]
        assert data["events"]
        # flight_dump events in the ledger point at the artifact.
        dumps = [e for e in read_events(path).events
                 if e.type == "flight_dump"]
        assert any(e.payload["path"] == artifact for e in dumps)


class TestZeroCost:
    def test_untelemetered_suite_identical_and_never_imports_events(
        self, tmp_path
    ):
        script = tmp_path / "plain.py"
        script.write_text(textwrap.dedent(
            """
            import json, sys
            from repro.analysis.experiments import run_suite
            from repro.workloads.generators import WorkloadSpec

            spec = WorkloadSpec(
                name="ev_a", category="srv", seed=21, n_instructions=30000
            )
            evaluation = run_suite(
                [spec], ["no"], warmup_instructions=10000,
                include_baseline=False, jobs=2, cache=None, checkpoint=None,
            )
            assert "repro.obs.events" not in sys.modules, "bus leaked"
            assert "repro.obs.exporthttp" not in sys.modules, "http leaked"
            print(json.dumps(
                evaluation.runs["no"]["ev_a"].stats.signature()
            ))
            """
        ))
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        theirs = json.loads(proc.stdout)

        evaluation = run_suite(
            [SPEC_A], ["no"], warmup_instructions=WARMUP,
            include_baseline=False, jobs=2, cache=None, checkpoint=None,
            events_path=str(tmp_path / "ev.jsonl"),
        )
        ours = json.loads(json.dumps(
            evaluation.runs["no"]["ev_a"].stats.signature()
        ))
        assert ours == theirs


class TestMetricsEndpoint:
    def _scrape(self, url):
        return urllib.request.urlopen(url, timeout=10).read().decode()

    def _assert_prometheus_text(self, body):
        import re

        for line in body.splitlines():
            if not line or line.startswith("#"):
                continue
            assert re.match(
                r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [-+0-9.eE]+$", line
            ), line

    def test_bus_source_serves_live_gauges(self):
        from repro.obs.exporthttp import MetricsHTTPServer, bus_metrics_source

        bus = open_bus(None)
        bus.emit("suite_started", payload={"n_tasks": 2})
        bus.emit("task_started", label="no/w")
        bus.emit("task_finished", label="no/w")
        server = MetricsHTTPServer(bus_metrics_source(bus), port=0)
        server.start()
        try:
            body = self._scrape(server.url)
        finally:
            server.stop()
            bus.close()
        self._assert_prometheus_text(body)
        assert "repro_engine_tasks_total 2" in body
        assert "repro_engine_done 1" in body
        assert 'repro_events_total{type="task_finished"} 1' in body

    def test_ledger_source_and_health_endpoints(self, tmp_path):
        from repro.obs.exporthttp import (
            MetricsHTTPServer,
            ledger_metrics_source,
        )

        path = str(tmp_path / "ev.jsonl")
        bus = open_bus(path)
        bus.emit("task_started", label="no/w")
        bus.emit("quarantined", label="no/w")
        bus.close()
        server = MetricsHTTPServer(ledger_metrics_source(path), port=0)
        server.start()
        try:
            body = self._scrape(server.url)
            base = server.url.rsplit("/", 1)[0]
            health = self._scrape(base + "/healthz")
            with pytest.raises(urllib.error.HTTPError):
                self._scrape(base + "/nope")
        finally:
            server.stop()
        self._assert_prometheus_text(body)
        assert "repro_engine_failed 1" in body
        assert "repro_events_torn 0" in body
        assert health == "ok\n"

    def test_failing_source_degrades_to_comment(self):
        from repro.obs.exporthttp import MetricsHTTPServer

        def broken():
            raise RuntimeError("source exploded")

        server = MetricsHTTPServer(broken, port=0)
        server.start()
        try:
            body = self._scrape(server.url)
        finally:
            server.stop()
        assert body.startswith("# metrics source failed:")


class TestEventsCLI:
    def _ledger(self, tmp_path):
        path = str(tmp_path / "ev.jsonl")
        bus = open_bus(path)
        bus.emit("suite_started", ts=100.0, payload={"n_tasks": 2})
        bus.emit("task_started", label="no/w1", ts=101.0)
        bus.emit("task_finished", label="no/w1", ts=102.0)
        bus.emit("task_started", label="next_line/w1", ts=103.0)
        bus.emit("quarantined", label="next_line/w1", ts=104.0)
        bus.emit("suite_finished", ts=105.0, payload={"completed": True})
        bus.close()
        return path

    def test_summary_counts(self, tmp_path, capsys):
        from repro.cli import main

        path = self._ledger(tmp_path)
        assert main(["events", path, "--summary"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["counts"]["quarantined"] == 1
        assert summary["total"] == 6
        assert summary["torn"] == 0

    def test_type_and_config_filters(self, tmp_path, capsys):
        from repro.cli import main

        path = self._ledger(tmp_path)
        assert main(["events", path, "--type", "task_started",
                     "--config", "no"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["workload"] == "w1"

    def test_follow_bounded_by_duration(self, tmp_path, capsys):
        from repro.cli import main

        path = self._ledger(tmp_path)
        start = time.time()
        assert main(["events", path, "--follow", "--duration", "0.3"]) == 0
        assert time.time() - start < 10
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6  # existing records stream out immediately

    def test_missing_path_is_exit_2(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.delenv("REPRO_EVENTS", raising=False)
        assert main(["events", "--summary"]) == 2
        assert "REPRO_EVENTS" in capsys.readouterr().err

    def test_top_once_renders_table(self, tmp_path, capsys):
        from repro.cli import main

        path = self._ledger(tmp_path)
        assert main(["top", path, "--once"]) == 0
        out = capsys.readouterr().out
        assert "status: 1/2 done" in out
        assert "1 failed" in out
        assert "next_line/w1" in out and "quarantined" in out

    def test_metrics_serve_scrapes(self, tmp_path):
        import re

        path = self._ledger(tmp_path)
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "metrics-serve", path,
             "--port", "0", "--duration", "10"],
            stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            line = proc.stderr.readline()
            match = re.search(r"http://\S+", line)
            assert match, f"no URL announced: {line!r}"
            body = urllib.request.urlopen(match.group(0), timeout=10).read()
            assert b"repro_engine_failed 1" in body
        finally:
            proc.kill()
            proc.wait(timeout=30)


class TestCLITelemetry:
    def test_run_writes_ledger_and_sanitizer_event(self, tmp_path):
        trace = str(tmp_path / "t.trc")
        gen = _repro(["gen", "--category", "srv", "--seed", "4",
                      "--instructions", "40000", trace])
        assert gen.returncode == 0, gen.stderr
        path = str(tmp_path / "ev.jsonl")
        run = _repro(["run", trace, "--prefetcher", "next_line",
                      "--warmup", "10000", "--check", "--events", path])
        assert run.returncode == 0, run.stderr
        counts = summarize_events(read_events(path))["counts"]
        assert counts["task_started"] == counts["task_finished"] == 1
        assert counts["sanitizer"] == 1
        assert counts["suite_started"] == counts["suite_finished"] == 1

    def test_sweep_quarantine_dumps_flight_recording(self, tmp_path):
        trace = str(tmp_path / "t.trc")
        gen = _repro(["gen", "--category", "srv", "--seed", "4",
                      "--instructions", "40000", trace])
        assert gen.returncode == 0, gen.stderr
        path = str(tmp_path / "ev.jsonl")
        sweep = _repro(
            ["sweep", trace, "--prefetchers", "no,bogus_config",
             "--warmup", "10000", "--retries", "0", "--events", path],
            env_extra={"REPRO_TASK_BACKOFF": "0.01"},
        )
        assert sweep.returncode == 0, sweep.stderr  # one config survived
        counts = summarize_events(read_events(path))["counts"]
        assert counts["quarantined"] == 1
        artifact = tmp_path / flight_artifact_name("bogus_config")
        assert artifact.exists()
        data = json.load(open(artifact))
        assert data["kind"] == "flight_recording"
        assert "flight recording" in sweep.stderr

    def test_guarded_run_retries_in_a_worker(self, tmp_path):
        """``repro run --retries/--task-timeout`` goes through the suite
        scheduler: an injected crash is retried, the output equals the
        unguarded run's, and the worker reports its own attempt."""
        trace = str(tmp_path / "t.trc")
        gen = _repro(["gen", "--category", "srv", "--seed", "4",
                      "--instructions", "30000", trace])
        assert gen.returncode == 0, gen.stderr
        base = ["run", trace, "--prefetcher", "next_line", "--warmup", "10000"]
        plain = _repro(base)
        assert plain.returncode == 0, plain.stderr
        path = str(tmp_path / "ev.jsonl")
        guarded = _repro(
            base + ["--retries", "1", "--task-timeout", "60",
                    "--events", path],
            env_extra={"REPRO_FAULT_INJECT": "crash:1.0:first",
                       "REPRO_TASK_BACKOFF": "0.01"},
        )
        assert guarded.returncode == 0, guarded.stderr

        def ipc_line(out):
            return [line for line in out.splitlines()
                    if line.startswith("IPC:")]

        assert ipc_line(guarded.stdout) == ipc_line(plain.stdout) != []
        ledger = read_events(path).events
        failed = [e for e in ledger if e.type == "attempt_failed"]
        assert len(failed) == 1
        assert "injected crash" in failed[0].payload["error"]
        (suite,) = [e for e in ledger if e.type == "suite_started"]
        (finished,) = [e for e in ledger if e.type == "task_finished"]
        assert finished.label == "next_line"
        assert finished.pid != suite.pid  # relayed by the worker process
