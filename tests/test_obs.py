"""Tests for the observability layer (repro.obs) and its zero-cost contract.

The load-bearing property is that observability is *optional*: a run with
no tracer/profiler attached must be bit-identical to a run in a process
that never even imports ``repro.obs`` — and a run *with* the tracer
attached must still produce the same architectural counters, because the
tracer is a passive observer.
"""

import csv
import io
import json
import os
import re
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.export import (
    export_metrics_csv,
    export_metrics_json,
    export_metrics_prometheus,
)
from repro.analysis.experiments import run_suite
from repro.obs import (
    EVENT_KINDS,
    MetricsRegistry,
    PhaseProfiler,
    PrefetchTracer,
    TimelinessReport,
    TraceEvent,
    registry_for_run,
)
from repro.obs.profiler import SIM_PHASES
from repro.obs.registry import registry_from_sim_stats
from repro.prefetchers.registry import make_prefetcher
from repro.sim.simulator import simulate
from repro.sim.stats import SimStats
from repro.workloads.generators import WorkloadSpec, make_workload

SPEC = WorkloadSpec(name="obs_wl", category="srv", seed=11, n_instructions=30_000)
WARMUP = 10_000


def traced_run(capacity=1 << 20, sample=1, profiler=None):
    tracer = PrefetchTracer(capacity=capacity, sample=sample)
    result = simulate(
        make_workload(SPEC),
        make_prefetcher("entangling_4k"),
        warmup_instructions=WARMUP,
        tracer=tracer,
        profiler=profiler,
    )
    return result, tracer


class TestTracerMechanics:
    def test_ring_buffer_overflow(self):
        tracer = PrefetchTracer(capacity=4)
        for cycle in range(10):
            tracer.emit("fill", cycle, cycle)
        assert len(tracer) == 4
        assert tracer.emitted == 10
        assert tracer.overflowed
        assert not tracer.is_exact
        # The ring keeps the *newest* events.
        assert [e.cycle for e in tracer.events()] == [6, 7, 8, 9]

    def test_sampling_keeps_lifecycles_coherent(self):
        tracer = PrefetchTracer(sample=2)
        for line in range(200):
            tracer.emit("pf_issued", 0, line)
            tracer.emit("fill", 1, line)
        per_line = {}
        for event in tracer.events():
            per_line[event.line_addr] = per_line.get(event.line_addr, 0) + 1
        # Every sampled line kept its whole lifecycle; no partial lines.
        assert per_line and all(count == 2 for count in per_line.values())
        assert tracer.emitted + tracer.sampled_out == 400
        assert tracer.sampled_out > 0
        # Decisions are stable (same hash, same answer).
        assert all(tracer.wants(line) for line in per_line)

    def test_clear_resets_counters(self):
        tracer = PrefetchTracer()
        tracer.emit("fill", 0, 1)
        tracer.clear()
        assert len(tracer) == 0 and tracer.emitted == 0
        assert tracer.is_exact

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            PrefetchTracer(capacity=0)
        with pytest.raises(ValueError):
            PrefetchTracer(sample=0)


class TestTracedRun:
    def test_totals_match_simstats_counters(self):
        result, tracer = traced_run()
        assert tracer.is_exact
        counts = tracer.counts_by_kind()
        stats = result.stats
        assert counts.get("pf_useful", 0) == stats.useful_prefetches
        assert counts.get("pf_late", 0) == stats.late_prefetches
        assert counts.get("pf_wrong", 0) == stats.wrong_prefetches
        assert counts.get("pf_issued", 0) == stats.prefetches_sent
        assert counts.get("demand_access", 0) == stats.l1i_demand_accesses
        report = TimelinessReport.from_tracer(tracer)
        assert (report.useful, report.late, report.wrong) == (
            stats.useful_prefetches,
            stats.late_prefetches,
            stats.wrong_prefetches,
        )
        assert report.demand_hits == stats.l1i_demand_hits

    def test_event_ordering(self):
        # No warm-up: the measurement reset clears the tracer, so a
        # warmed run can legitimately issue prefetches whose enqueue
        # event predates the cleared buffer.
        tracer = PrefetchTracer()
        simulate(
            make_workload(SPEC),
            make_prefetcher("entangling_4k"),
            tracer=tracer,
        )
        events = tracer.events()
        assert events, "a traced Entangling run must produce events"
        seen_kinds = {event.kind for event in events}
        assert seen_kinds <= set(EVENT_KINDS)
        # Per-line lifecycle order: issue requires a prior enqueue, a
        # useful mark requires a prior fill of the same line.
        enqueued, issued, filled = set(), set(), set()
        for event in events:
            line = event.line_addr
            if event.kind == "pf_enqueued":
                enqueued.add(line)
            elif event.kind == "pf_issued":
                assert line in enqueued
                issued.add(line)
            elif event.kind == "fill":
                filled.add(line)
            elif event.kind == "pf_useful":
                assert line in filled
        assert issued and filled

    def test_cycles_monotonic(self):
        _result, tracer = traced_run()
        cycles = [event.cycle for event in tracer.events()]
        assert all(a <= b for a, b in zip(cycles, cycles[1:]))

    def test_pair_provenance_recorded(self):
        _result, tracer = traced_run()
        report = TimelinessReport.from_tracer(tracer)
        # Entangling prefetches carry (src, dst) provenance into the
        # feedback events, so the per-pair breakdown is populated.
        assert report.per_pair
        for (src, dst), counts in report.per_pair.items():
            assert len(counts) == 3 and sum(counts) > 0
        text = report.format()
        assert "useful margin" in text and "worst (src, dst) pairs" in text

    def test_report_totals_cross_check_per_pair(self):
        _result, tracer = traced_run()
        report = TimelinessReport.from_tracer(tracer)
        pair_useful = sum(c[0] for c in report.per_pair.values())
        pair_late = sum(c[1] for c in report.per_pair.values())
        pair_wrong = sum(c[2] for c in report.per_pair.values())
        # Every feedback event with pair provenance is attributed; events
        # without provenance (demand fills evicted, etc.) only make the
        # per-pair totals a lower bound.
        assert pair_useful <= report.useful
        assert pair_late <= report.late
        assert pair_wrong <= report.wrong


class TestBitIdentity:
    def test_tracer_attached_does_not_change_signature(self):
        plain = simulate(
            make_workload(SPEC),
            make_prefetcher("entangling_4k"),
            warmup_instructions=WARMUP,
        )
        traced, _tracer = traced_run(profiler=PhaseProfiler())
        assert traced.stats.signature() == plain.stats.signature()

    def test_sampled_overflowing_tracer_still_identical(self):
        plain = simulate(
            make_workload(SPEC),
            make_prefetcher("entangling_4k"),
            warmup_instructions=WARMUP,
        )
        traced, tracer = traced_run(capacity=64, sample=4)
        assert tracer.overflowed or tracer.sampled_out > 0
        assert traced.stats.signature() == plain.stats.signature()

    def test_signature_identical_to_process_never_importing_obs(self, tmp_path):
        """The acceptance check: a process that never imports repro.obs
        produces the same architectural counters as a traced run here."""
        script = tmp_path / "never_imports_obs.py"
        script.write_text(textwrap.dedent(
            """
            import json
            import sys

            from repro.workloads.generators import WorkloadSpec, make_workload
            from repro.sim.simulator import simulate
            from repro.prefetchers.registry import make_prefetcher

            assert "repro.obs" not in sys.modules, "obs leaked into the hot path"
            spec = WorkloadSpec(
                name="obs_wl", category="srv", seed=11, n_instructions=30000
            )
            result = simulate(
                make_workload(spec),
                make_prefetcher("entangling_4k"),
                warmup_instructions=10000,
            )
            assert "repro.obs" not in sys.modules
            print(json.dumps(result.stats.signature()))
            """
        ))
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        theirs = json.loads(proc.stdout)
        traced, _tracer = traced_run(profiler=PhaseProfiler())
        # Round-trip ours through JSON so tuples normalize to lists.
        ours = json.loads(json.dumps(traced.stats.signature()))
        assert ours == theirs

    def test_span_traced_suite_identical_to_process_never_importing_spans(
        self, tmp_path
    ):
        """Suite-level extension of the acceptance check: a serial
        ``run_suite`` in a process that never imports the telemetry
        modules produces the same per-pair signatures as a traced
        parallel ``run_suite`` here (whose trace is rendered from the
        event bus)."""
        script = tmp_path / "never_imports_spans.py"
        script.write_text(textwrap.dedent(
            """
            import json
            import sys

            from repro.analysis.experiments import run_suite
            from repro.workloads.generators import WorkloadSpec

            suite = [WorkloadSpec(
                name="obs_wl", category="srv", seed=11, n_instructions=30000
            )]
            evaluation = run_suite(
                suite, ["entangling_4k"], warmup_instructions=10000,
                jobs=1, cache=None, checkpoint=None,
            )
            # The engine ran untraced: the event bus and trace renderer
            # modules must never have been imported (repro.obs
            # itself is fine — its eager members are the profiler/
            # registry/tracer; the rest are lazy PEP 562 exports).
            for module in (
                "repro.obs.events",
                "repro.obs.chrometrace",
            ):
                assert module not in sys.modules, (
                    module + " leaked into the untraced engine"
                )
            sigs = {
                config: {
                    workload: result.stats.signature()
                    for workload, result in per_workload.items()
                }
                for config, per_workload in evaluation.runs.items()
            }
            print(json.dumps(sigs))
            """
        ))
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        theirs = json.loads(proc.stdout)

        trace_path = tmp_path / "suite_trace.json"
        evaluation = run_suite(
            [SPEC], ["entangling_4k"], warmup_instructions=WARMUP,
            jobs=2, cache=None, checkpoint=None, trace_path=str(trace_path),
        )
        ours = json.loads(json.dumps({
            config: {
                workload: result.stats.signature()
                for workload, result in per_workload.items()
            }
            for config, per_workload in evaluation.runs.items()
        }))
        assert ours == theirs
        # And the trace actually materialized.
        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"]


class TestMetricsRegistry:
    def _stats(self):
        stats = SimStats()
        stats.instructions = 1000
        stats.cycles = 2000
        stats.useful_prefetches = 7
        stats.prefetches_sent = 10
        stats.phase_seconds = {"fills": 0.25, "retire": 0.75}
        return stats

    def test_values_and_kinds(self):
        registry = registry_from_sim_stats(self._stats())
        assert registry.value("repro_sim_instructions") == 1000
        assert registry.value("repro_sim_ipc") == pytest.approx(0.5)
        assert registry.value(
            "repro_sim_phase_seconds", {"phase": "retire"}
        ) == pytest.approx(0.75)
        by_name = {m.name: m for m in registry.metrics()}
        assert by_name["repro_sim_instructions"].kind == "counter"
        assert by_name["repro_sim_ipc"].kind == "gauge"

    def test_relabel_rekeys_lookup(self):
        registry = registry_from_sim_stats(self._stats())
        registry.relabel({"config": "x"})
        assert registry.value(
            "repro_sim_instructions", {"config": "x"}
        ) == 1000
        with pytest.raises(KeyError):
            registry.value("repro_sim_instructions")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            MetricsRegistry().register("m", 1, kind="histogram")

    def test_json_exporter_parses(self):
        registry = registry_from_sim_stats(self._stats())
        buffer = io.StringIO()
        export_metrics_json(registry, buffer)
        payload = json.loads(buffer.getvalue())
        names = {m["name"] for m in payload["metrics"]}
        assert "repro_sim_useful_prefetches" in names

    def test_csv_exporter_parses(self):
        registry = registry_from_sim_stats(self._stats())
        buffer = io.StringIO()
        export_metrics_csv(registry, buffer)
        rows = list(csv.reader(io.StringIO(buffer.getvalue())))
        assert rows[0] == ["name", "labels", "kind", "value"]
        assert len(rows) == len(registry) + 1

    def test_prometheus_exporter_format(self):
        registry = registry_from_sim_stats(self._stats())
        registry.relabel({"workload": "w1"})
        buffer = io.StringIO()
        export_metrics_prometheus(registry, buffer)
        lines = buffer.getvalue().splitlines()
        sample = re.compile(
            r'^[a-z_][a-z0-9_]*(\{[a-z0-9_]+="[^"]*"(,[a-z0-9_]+="[^"]*")*\})? '
            r"-?[0-9.e+-]+$"
        )
        type_lines = [l for l in lines if l.startswith("# TYPE")]
        for line in lines:
            if line.startswith("#"):
                assert line.startswith(("# HELP", "# TYPE"))
            else:
                assert sample.match(line), line
        # One TYPE declaration per metric family, not per sample.
        assert len(type_lines) == len(set(type_lines))
        assert 'repro_sim_instructions{workload="w1"} 1000' in lines

    def test_registry_for_run_includes_prefetcher_internals(self):
        result, _tracer = traced_run()
        registry = registry_for_run(result, labels={"config": "entangling_4k"})
        names = set(registry.names())
        assert any(n.startswith("repro_entangling_") for n in names)
        assert any(n.startswith("repro_table_") for n in names)
        assert registry.value(
            "repro_sim_useful_prefetches", {"config": "entangling_4k"}
        ) == result.stats.useful_prefetches


class TestPhaseProfiler:
    def test_wrap_times_and_counts(self):
        profiler = PhaseProfiler()
        fn = profiler.wrap("work", lambda x: x + 1)
        assert [fn(i) for i in range(5)] == [1, 2, 3, 4, 5]
        assert profiler.calls["work"] == 5
        assert profiler.seconds["work"] >= 0.0

    def test_add_accumulates_and_formats(self):
        profiler = PhaseProfiler()
        profiler.add("s", 0.5)
        profiler.add("s", 0.25, calls=2)
        assert profiler.calls["s"] == 3
        assert profiler.seconds["s"] == pytest.approx(0.75)
        assert "s" in profiler.format()

    def test_simulator_phases_recorded(self):
        profiler = PhaseProfiler()
        result, _tracer = traced_run(profiler=profiler)
        assert set(result.stats.phase_seconds) == set(SIM_PHASES)
        assert set(profiler.seconds) == set(SIM_PHASES)
        assert all(s >= 0.0 for s in result.stats.phase_seconds.values())
        # Telemetry stays out of the architectural signature.
        assert "phase_seconds" not in result.stats.signature()


class TestTimelinessReport:
    def test_margins_and_buckets_from_synthetic_events(self):
        events = [
            TraceEvent("fill", 100, 1, None, (False, True, 30)),
            TraceEvent("pf_useful", 103, 1, (7, 1), None),
            TraceEvent("pf_late", 110, 2, (7, 2), None),
            TraceEvent("fill", 122, 2, None, (True, True, 12)),
            TraceEvent("fill", 130, 3, None, (False, True, 30)),
            TraceEvent("pf_wrong", 200, 3, (9, 3), None),
            TraceEvent("demand_access", 103, 1, None, True),
            TraceEvent("demand_access", 110, 2, None, False),
        ]
        report = TimelinessReport.from_events(events)
        assert (report.useful, report.late, report.wrong) == (1, 1, 1)
        assert report.demand_accesses == 2 and report.demand_hits == 1
        assert report.useful_margins == {"3-4": 1}   # demanded 3 cycles later
        assert report.late_margins == {"9-16": 1}    # waited 12 cycles
        assert report.wrong_lifetimes == {"65-128": 1}
        assert report.per_pair == {
            (7, 1): [1, 0, 0], (7, 2): [0, 1, 0], (9, 3): [0, 0, 1]
        }
        worst = report.worst_pairs(limit=2)
        assert [pair for pair, _counts in worst] == [(7, 2), (9, 3)]


class TestTraceCli:
    def test_trace_subcommand_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = str(tmp_path / "w.trc")
        assert main([
            "gen", trace_path, "--category", "srv", "--seed", "5",
            "--instructions", "40000",
        ]) == 0
        prefix = str(tmp_path / "metrics")
        code = main([
            "trace", trace_path, "--prefetcher", "entangling_4k",
            "--warmup", "10000", "--profile", "--export", prefix,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "cross-check vs SimStats: OK" in out
        assert "Prefetch timeliness (traced)" in out
        assert "Simulator phase profile" in out
        payload = json.loads(open(prefix + ".json").read())
        assert payload["metrics"]
        rows = list(csv.reader(open(prefix + ".csv")))
        assert rows[0] == ["name", "labels", "kind", "value"]
        prom = open(prefix + ".prom").read()
        assert "# TYPE repro_sim_instructions counter" in prom

    def test_trace_subcommand_sampled(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = str(tmp_path / "w.trc")
        main(["gen", trace_path, "--seed", "5", "--instructions", "20000"])
        code = main([
            "trace", trace_path, "--sample", "4", "--capacity", "4096",
        ])
        out = capsys.readouterr().out
        assert code == 0
        # A sampled run is not exact, so no cross-check is claimed.
        assert "cross-check" not in out
        assert "sampled" in out
