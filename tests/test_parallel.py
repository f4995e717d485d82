"""Determinism and caching tests for the parallel evaluation engine.

The contract under test: ``run_suite(..., jobs=N)`` is bit-identical to
the serial path for every architectural counter, and the run cache
returns exactly the stats a fresh simulation would produce.
"""

import pytest

from repro.analysis.experiments import (
    default_suite,
    positive_env_int,
    resolve_jobs,
    run_cached,
    run_single,
    run_suite,
)
from repro.analysis.runcache import RunCache, run_key
from repro.analysis.reporting import format_timing_table
from repro.sim.config import SimConfig
from repro.sim.stats import SimStats
from repro.workloads.generators import WorkloadSpec

SMALL_SUITE = [
    WorkloadSpec(name="p_int", category="int", seed=11, n_instructions=20_000),
    WorkloadSpec(name="p_srv", category="srv", seed=12, n_instructions=20_000),
]
CONFIGS = ["next_line", "entangling_2k"]


@pytest.fixture(scope="module")
def serial_eval():
    return run_suite(SMALL_SUITE, CONFIGS, cache=None)


class TestParallelDeterminism:
    def test_jobs4_bit_identical_to_serial(self, serial_eval):
        parallel = run_suite(SMALL_SUITE, CONFIGS, jobs=4, cache=None)
        assert list(parallel.runs) == list(serial_eval.runs)
        for config in serial_eval.runs:
            assert list(parallel.runs[config]) == list(serial_eval.runs[config])
            for workload in serial_eval.runs[config]:
                assert (
                    parallel.runs[config][workload].stats.signature()
                    == serial_eval.runs[config][workload].stats.signature()
                ), (config, workload)

    def test_parallel_results_are_detached(self):
        parallel = run_suite(
            SMALL_SUITE[:1], ["next_line"], jobs=2, cache=None
        )
        result = parallel.runs["next_line"]["p_int"]
        assert result.prefetcher is None
        assert result.prefetcher_name == "NextLine"
        assert result.stats.instructions > 0

    def test_parallel_uses_cache(self, serial_eval):
        cache = RunCache()
        warm = run_suite(SMALL_SUITE, CONFIGS, cache=cache)
        stores_before = cache.stores
        parallel = run_suite(SMALL_SUITE, CONFIGS, jobs=4, cache=cache)
        assert cache.stores == stores_before  # nothing re-simulated
        for config in warm.runs:
            for workload in warm.runs[config]:
                assert (
                    parallel.runs[config][workload].stats.signature()
                    == warm.runs[config][workload].stats.signature()
                )


class TestRunCache:
    def test_cached_stats_match_fresh_simulation(self):
        spec = SMALL_SUITE[0]
        cache = RunCache()
        first = run_cached(spec, "next_line", cache=cache)
        hit = run_cached(spec, "next_line", cache=cache)
        fresh = run_single(spec, "next_line")
        assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1
        assert hit.prefetcher is None
        assert hit.stats.signature() == fresh.stats.signature()
        assert first.stats.signature() == fresh.stats.signature()

    def test_each_unique_pair_simulated_once(self):
        cache = RunCache()
        run_suite(SMALL_SUITE, CONFIGS, cache=cache)
        run_suite(SMALL_SUITE, CONFIGS, cache=cache)  # second sweep: all hits
        unique = len(SMALL_SUITE) * (len(CONFIGS) + 1)  # + "no" baseline
        assert cache.stores == unique
        assert cache.hits == unique
        assert cache.wall_seconds_saved > 0.0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_equal_keys_in_one_batch_simulated_once(self, jobs, monkeypatch):
        import repro.analysis.experiments as experiments
        import repro.analysis.parallel as parallel

        dispatched = []
        simulated = []
        map_resilient = parallel.map_resilient
        simulate = experiments.simulate

        def counting_map(fn, tasks, *args, **kwargs):
            dispatched.extend(tasks)
            return map_resilient(fn, tasks, *args, **kwargs)

        def counting_simulate(*args, **kwargs):
            simulated.append(1)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(parallel, "map_resilient", counting_map)
        monkeypatch.setattr(experiments, "simulate", counting_simulate)
        task = parallel.RunTask(
            WorkloadSpec(name="dup", category="int", seed=3, n_instructions=4_000),
            "next_line",
        )
        cache = RunCache()
        outcome = parallel.run_tasks_parallel([task, task], jobs=jobs, cache=cache)
        assert len(dispatched) == 1
        if jobs == 1:
            assert len(simulated) == 1  # in-process: the count is visible here
        assert cache.stores == 1
        first, second = outcome.results
        assert first.stats.signature() == second.stats.signature()

    def test_get_returns_independent_copies(self):
        spec = SMALL_SUITE[0]
        cache = RunCache()
        run_cached(spec, "next_line", cache=cache)
        mutated = run_cached(spec, "next_line", cache=cache)
        mutated.stats.reset()
        again = run_cached(spec, "next_line", cache=cache)
        assert again.stats.instructions > 0

    def test_key_distinguishes_config_and_warmup(self):
        spec = SMALL_SUITE[0]
        base = SimConfig()
        key = run_key(spec, "next_line", base, 1000)
        assert key != run_key(spec, "entangling_2k", base, 1000)
        assert key != run_key(spec, "next_line", base, 0)
        assert key != run_key(
            spec, "next_line", base.with_l1i_kb(64), 1000
        )
        assert key == run_key(spec, "next_line", SimConfig(), 1000)

    def test_disk_roundtrip(self, tmp_path):
        spec = SMALL_SUITE[0]
        writer = RunCache(disk_dir=str(tmp_path))
        original = run_cached(spec, "next_line", cache=writer)
        reader = RunCache(disk_dir=str(tmp_path))
        key = run_key(
            spec, "next_line", SimConfig(), int(spec.n_instructions * 0.4)
        )
        loaded = reader.get(key)
        assert loaded is not None
        assert reader.disk_hits == 1
        assert loaded.stats.signature() == original.stats.signature()
        assert loaded.trace_name == original.trace_name


class TestTimingTelemetry:
    def test_wall_seconds_recorded(self):
        stats = run_single(SMALL_SUITE[0], "no").stats
        assert stats.wall_seconds > 0.0
        assert stats.instrs_per_second > 0.0
        assert stats.cycles_per_second > stats.instrs_per_second * 0.1

    def test_signature_excludes_telemetry(self):
        a = SimStats(instructions=10, cycles=20, wall_seconds=1.0)
        b = SimStats(instructions=10, cycles=20, wall_seconds=9.0)
        assert a.signature() == b.signature()
        assert "wall_seconds" not in a.signature()

    def test_stats_dict_roundtrip(self):
        stats = run_single(SMALL_SUITE[0], "next_line").stats
        clone = SimStats.from_dict(stats.to_dict())
        assert clone.signature() == stats.signature()
        assert clone.wall_seconds == stats.wall_seconds
        assert clone.cache_accesses["L1I"].reads == (
            stats.cache_accesses["L1I"].reads
        )

    def test_format_timing_table(self, serial_eval):
        text = format_timing_table(serial_eval.timing_entries())
        assert "kinstr/s" in text
        assert "(total)" in text
        assert "next_line" in text


class TestEnvKnobs:
    def test_suite_scale_non_integer_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SUITE_SCALE", "two")
        with pytest.raises(ValueError, match="REPRO_SUITE_SCALE"):
            default_suite(per_category=1)

    def test_suite_scale_clamps_to_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_SUITE_SCALE", "-3")
        assert len(default_suite(per_category=1)) == 4
        monkeypatch.setenv("REPRO_SUITE_SCALE", "0")
        assert len(default_suite(per_category=1)) == 4

    def test_jobs_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3
        monkeypatch.setenv("REPRO_JOBS", "-2")
        assert resolve_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs()

    def test_jobs_argument_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(2) == 2
        assert resolve_jobs(0) == 1

    def test_positive_env_int_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert positive_env_int("REPRO_JOBS", 5) == 5
        monkeypatch.setenv("REPRO_JOBS", "  ")
        assert positive_env_int("REPRO_JOBS", 5) == 5
