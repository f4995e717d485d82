"""Tests for the experiment drivers, reporting, and figure functions.

Uses very small workloads so the whole module stays fast.
"""

import pytest

from repro.analysis.experiments import (
    EvaluationResult,
    default_suite,
    resolve_config,
    run_suite,
)
from repro.analysis.figures import (
    fig1_fig2_oracle,
    fig6_ipc_vs_storage,
    fig11_ablation,
    fig16_cloudsuite,
    figs12_to_15_internals,
    per_workload_curves,
    render_curves,
    render_fig1,
    render_fig2,
    render_fig6,
    render_fig11,
    render_fig16,
    render_figs12_to_15,
    render_sec4e,
    render_tab1_tab2,
    render_tab4,
    sec4e_physical,
    tab1_tab2_modes,
    tab4_energy,
)
from repro.analysis.reporting import format_series, format_table
from repro.sim.config import SimConfig
from repro.workloads.generators import WorkloadSpec

TINY_SUITE = [
    WorkloadSpec(name="t_int", category="int", seed=3, n_instructions=30_000),
    WorkloadSpec(name="t_srv", category="srv", seed=4, n_instructions=30_000),
]


class TestResolveConfig:
    def test_plain_prefetcher(self):
        pf, config = resolve_config("next_line", SimConfig())
        assert pf.name == "NextLine"
        assert config == SimConfig()

    def test_large_l1i_pseudo_configs(self):
        _pf, config = resolve_config("l1i_64kb", SimConfig())
        assert config.l1i_size == 64 * 1024

    def test_physical_suffix(self):
        _pf, config = resolve_config("entangling_4k_phys", SimConfig())
        assert config.physical_addresses


class TestRunSuite:
    def test_baseline_included(self):
        ev = run_suite(TINY_SUITE, ["next_line"])
        assert "no" in ev.runs
        assert "next_line" in ev.runs

    def test_workloads_and_configs(self):
        ev = run_suite(TINY_SUITE, ["next_line"])
        assert ev.workloads() == ["t_int", "t_srv"]
        assert set(ev.configs()) == {"no", "next_line"}

    def test_normalized_ipc_baseline_is_one(self):
        ev = run_suite(TINY_SUITE, ["next_line"])
        for value in ev.normalized_ipc("no").values():
            assert value == pytest.approx(1.0)

    def test_metric_dicts_cover_workloads(self):
        ev = run_suite(TINY_SUITE, ["next_line"])
        for getter in (ev.coverage, ev.accuracy, ev.miss_ratio):
            assert set(getter("next_line")) == {"t_int", "t_srv"}

    def test_geomean_speedup_positive(self):
        ev = run_suite(TINY_SUITE, ["entangling_2k"])
        assert ev.geomean_speedup("entangling_2k") > 0.9

    def test_baseline_only_suite_returns_results(self):
        """A suite of the baseline alone, measured from a cold start."""
        ev = run_suite(TINY_SUITE, ["no"], warmup_instructions=0)
        assert ev.configs() == ["no"]
        for spec in TINY_SUITE:
            assert ev.stats("no", spec.name).instructions == spec.n_instructions

    def test_bad_workload_is_quarantined_not_fatal(self):
        suite = TINY_SUITE[:1] + [
            WorkloadSpec(name="t_bad", category="bogus", seed=1,
                         n_instructions=1_000)
        ]
        ev = run_suite(suite, ["next_line"], jobs=1, cache=None,
                       checkpoint=None)
        # The good workload still ran everywhere; the broken one is
        # quarantined into the fault report instead of killing the suite.
        assert ev.runs["no"]["t_int"].stats.instructions > 0
        assert "t_bad" not in ev.runs["no"]
        assert ev.faults is not None
        labels = [failure.label for failure in ev.faults.quarantined]
        assert labels == ["no/t_bad", "next_line/t_bad"]
        assert "unknown category" in ev.faults.quarantined[0].error
        assert not ev.is_complete()
        assert ("no", "t_bad") in ev.missing_pairs()


class TestDefaultSuite:
    def test_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SUITE_SCALE", "2")
        assert len(default_suite(per_category=1)) == 8

    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SUITE_SCALE", raising=False)
        assert len(default_suite(per_category=1)) == 4


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["name", "v"], [["a", 1.5], ["long-name", 2.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "long-name" in lines[3]

    def test_format_series_chunks(self):
        text = format_series("curve", [0.1] * 25, per_line=10)
        assert text.count("\n") == 3  # name line + 3 chunks - 1


class TestFigureDrivers:
    def test_tab1_tab2(self):
        modes = tab1_tab2_modes()
        assert len(modes["virtual"]) == 6
        assert len(modes["physical"]) == 4
        text = render_tab1_tab2()
        assert "Table I" in text and "Table II" in text

    def test_fig1_fig2(self):
        results = fig1_fig2_oracle(TINY_SUITE[:1])
        assert results[0].workload == "t_int"
        assert set(results[0].timely_fraction) == set(range(1, 11))
        assert "Fig 1" in render_fig1(results)
        assert "Fig 2" in render_fig2(results)

    def test_fig6(self):
        rows, ev = fig6_ipc_vs_storage(TINY_SUITE, configs=("next_line", "ideal"))
        assert [r.config for r in rows] == ["next_line", "ideal"]
        assert all(r.geomean_speedup > 0 for r in rows)
        assert "Fig 6" in render_fig6(rows)

    def test_curves(self):
        _rows, ev = fig6_ipc_vs_storage(TINY_SUITE, configs=("next_line",))
        curves = per_workload_curves(ev, "ipc", configs=("next_line",))
        assert len(curves["next_line"]) == 2
        assert curves["next_line"] == sorted(curves["next_line"])
        for metric in ("miss_ratio", "coverage", "accuracy"):
            per_workload_curves(ev, metric, configs=("next_line",))
        with pytest.raises(ValueError):
            per_workload_curves(ev, "bogus", configs=("next_line",))
        assert "next_line" in render_curves("Fig 7", curves)

    def test_tab4(self):
        rows, _ev = tab4_energy(TINY_SUITE, configs=("next_line",))
        assert rows[0][0] == "no"
        assert rows[0][-1] == 1.0
        assert "Table IV" in render_tab4(rows)

    def test_fig11(self):
        data = fig11_ablation(TINY_SUITE[:1], sizes=(4096,))
        assert set(data) == {"BB", "BBEnt", "BBEntBB", "Ent", "BBEntBB-Merge"}
        assert all(4096 in sizes for sizes in data.values())
        assert "Fig 11" in render_fig11(data)

    def test_figs12_to_15(self):
        result = figs12_to_15_internals(TINY_SUITE)
        assert set(result.avg_destinations) == {"int", "srv"}
        assert all(v >= 0 for v in result.avg_src_bb_size.values())
        assert "Fig 13" in render_figs12_to_15(result)

    def test_sec4e(self):
        speedups = sec4e_physical(TINY_SUITE[:1])
        assert set(speedups) == {
            "entangling_2k_phys", "entangling_4k_phys", "entangling_8k_phys"
        }
        assert "IV-E" in render_sec4e(speedups)

    def test_fig16(self):
        specs = [
            WorkloadSpec(name="c1", category="cloud", seed=5,
                         n_instructions=30_000,
                         params=TINY_SUITE[1].resolve_params()),
        ]
        data, _ev = fig16_cloudsuite(specs, configs=("next_line",))
        assert data["next_line"]["c1"] > 0
        assert "Fig 16" in render_fig16(data)


class TestPartialEvaluation:
    """Regression: quarantined (missing) or zero-IPC runs used to crash
    normalized-IPC aggregation with KeyError / ValueError."""

    @staticmethod
    def _result(name, cycles):
        from repro.sim.simulator import SimResult
        from repro.sim.stats import SimStats

        stats = SimStats()
        stats.instructions = 1000
        stats.cycles = cycles
        return SimResult(
            trace_name=name, category="srv", prefetcher_name="x", stats=stats
        )

    def _partial(self):
        # Baseline run for workload "b" was quarantined; "c" faulted to
        # a zero-cycle (zero-IPC) baseline.
        return EvaluationResult(
            runs={
                "no": {"a": self._result("a", 1000),
                       "c": self._result("c", 0)},
                "entangling_4k": {"a": self._result("a", 500),
                                  "b": self._result("b", 500),
                                  "c": self._result("c", 500)},
            },
            categories={"a": "srv", "b": "srv", "c": "srv"},
        )

    def test_normalized_ipc_flags_missing_pairs_as_zero(self):
        evaluation = self._partial()
        assert not evaluation.is_complete()
        normalized = evaluation.normalized_ipc("entangling_4k")
        assert normalized["a"] == pytest.approx(2.0)
        assert normalized["b"] == 0.0  # baseline quarantined
        assert normalized["c"] == 0.0  # baseline has zero IPC

    def test_geomean_speedup_skips_and_flags(self):
        evaluation = self._partial()
        with pytest.warns(RuntimeWarning):
            value = evaluation.geomean_speedup("entangling_4k")
        assert value == pytest.approx(2.0)

    def test_csv_export_renders_partial_result(self):
        import io

        from repro.analysis.export import export_evaluation_csv

        buffer = io.StringIO()
        export_evaluation_csv(self._partial(), buffer)
        lines = buffer.getvalue().strip().splitlines()
        assert len(lines) == 1 + 2 + 3  # header + no(2) + entangling(3)
        assert any(line.startswith("entangling_4k,b,") for line in lines)
