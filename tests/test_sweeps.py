"""Tests for the parameter-sweep helpers."""

import pytest

from repro.analysis.runcache import RunCache, get_run_cache, set_run_cache
from repro.analysis.sweeps import (
    render_sweep,
    sweep_entangling_parameter,
    sweep_sim_parameter,
)
from repro.workloads.generators import WorkloadSpec

TINY = [WorkloadSpec(name="sw_srv", category="srv", seed=13, n_instructions=30_000)]


class TestSimSweep:
    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="no field"):
            sweep_sim_parameter(TINY, "flux_capacitor", [1])

    def test_points_carry_values(self):
        points = sweep_sim_parameter(TINY, "prefetch_queue_size", [16, 64])
        assert [p.value for p in points] == [16, 64]
        assert all(p.geomean_speedup > 0 for p in points)

    def test_bigger_pq_drops_fewer(self):
        """The paper's Section IV-D observation, quantified."""
        points = sweep_sim_parameter(TINY, "prefetch_queue_size", [8, 128])
        assert points[0].mean_pq_drops >= points[1].mean_pq_drops

    def test_custom_prefetcher_factory(self):
        """Any registry configuration can be swept, not only Entangling."""
        points = sweep_sim_parameter(
            TINY, "l1i_mshrs", [8], config_name="next_line"
        )
        assert len(points) == 1
        assert points[0].failures == 0


class TestEntanglingSweep:
    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="no field"):
            sweep_entangling_parameter(TINY, "bogus", [1])

    def test_table_size_sweep(self):
        points = sweep_entangling_parameter(TINY, "entries", [1024, 4096])
        assert [p.value for p in points] == [1024, 4096]
        assert all(0 <= p.mean_coverage <= 1 for p in points)

    def test_render(self):
        points = sweep_entangling_parameter(TINY, "history_size", [16])
        text = render_sweep("history sweep", points)
        assert "history sweep" in text
        assert "speedup=" in text


@pytest.fixture
def fresh_cache():
    """An empty process run cache for the test, so nothing is served."""
    previous = set_run_cache(RunCache())
    yield get_run_cache()
    set_run_cache(previous)


class TestEvaluateRobustness:
    def test_zero_ipc_baseline_skipped_and_flagged(self, monkeypatch, fresh_cache):
        """A degenerate baseline must not poison the geomean (or crash)."""
        import repro.analysis.parallel as parallel_mod

        real = parallel_mod.run_single

        def dead_baseline(source, config_name, *args, **kwargs):
            result = real(source, config_name, *args, **kwargs)
            if config_name == "no":
                result.stats.cycles = 0  # ipc == 0.0
            return result

        monkeypatch.setattr(parallel_mod, "run_single", dead_baseline)
        points = sweep_sim_parameter(TINY, "prefetch_queue_size", [16])
        assert points[0].failures == len(TINY)
        assert points[0].geomean_speedup == 0.0

    def test_raising_workload_skipped_and_flagged(self, monkeypatch, fresh_cache):
        """Every run raises: the scheduler quarantines them, and each
        workload counts as one failure instead of killing the sweep."""
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:1.0:all")
        monkeypatch.setenv("REPRO_TASK_RETRIES", "0")
        points = sweep_sim_parameter(TINY, "prefetch_queue_size", [16])
        assert points[0].failures == len(TINY)
        assert points[0].geomean_speedup == 0.0

    def test_warmup_resolved_through_shared_helper(self, monkeypatch):
        """Both sweep legs must share resolve_warmup's window, not a
        hardcoded fraction that could drift from the cached baselines."""
        import repro.analysis.sweeps as sweeps_mod

        batches = []

        def spy(tasks, jobs=None):
            batches.append(list(tasks))
            return [None] * len(tasks)

        monkeypatch.setattr(sweeps_mod, "run_batch", spy)
        sweep_sim_parameter(TINY, "prefetch_queue_size", [16, 32])
        sweep_entangling_parameter(TINY, "history_size", [8])
        # One batch per sweep: a baseline and a run per (point, workload),
        # all deferring to the suite-wide default warm-up (None).
        assert [len(batch) for batch in batches] == [4 * len(TINY), 2 * len(TINY)]
        assert {
            task.warmup_instructions for batch in batches for task in batch
        } == {None}
