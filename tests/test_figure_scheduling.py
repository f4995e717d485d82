"""Fig 11, Figs 12-15 and the sweeps run as batches of the one scheduler.

The pinned values were recorded with the drivers' earlier private
simulation loops; the scheduler must reproduce them at ``jobs=1`` and
``jobs=2``, and a warm store must serve every simulation.
"""

from functools import lru_cache

import pytest

import repro.analysis.experiments as experiments
from repro.analysis.experiments import run_suite
from repro.analysis.figures import (
    InternalsResult,
    fig11_ablation,
    figs12_to_15_internals,
)
from repro.analysis.runcache import RunCache, set_run_cache
from repro.analysis.sweeps import (
    SweepPoint,
    sweep_entangling_parameter,
    sweep_sim_parameter,
)
from repro.workloads.generators import WorkloadSpec

TINY_SUITE = [
    WorkloadSpec(name="t_int", category="int", seed=3, n_instructions=30_000),
    WorkloadSpec(name="t_srv", category="srv", seed=4, n_instructions=30_000),
]

FIG11 = {
    "BB": dict.fromkeys((2048, 4096, 8192), 1.0012288799621694),
    "BBEnt": dict.fromkeys((2048, 4096, 8192), 1.0012597028428558),
    "BBEntBB": dict.fromkeys((2048, 4096, 8192), 1.00161128500385),
    "Ent": dict.fromkeys((2048, 4096, 8192), 1.0007940686181485),
    "BBEntBB-Merge": {
        2048: 1.0013398556568847,
        4096: 1.001561917795727,
        8192: 1.001450868261249,
    },
}

INTERNALS = InternalsResult(
    format_fractions={
        "int": {
            10: 0.12048192771084337,
            13: 0.6746987951807228,
            8: 0.20481927710843373,
        },
        "srv": {
            13: 0.46229508196721314,
            18: 0.35737704918032787,
            8: 0.13442622950819672,
            10: 0.04590163934426229,
        },
    },
    avg_destinations={"int": 1.184873949579832, "srv": 0.8858695652173914},
    avg_src_bb_size={"int": 4.5210084033613445, "srv": 1.9057971014492754},
    avg_dst_bb_size={"int": 5.126241134751773, "srv": 2.7259713701431494},
    avg_prefetches_per_hit={"int": 11.77983193277311, "srv": 5.2065217391304355},
)

PQ_SWEEP = [
    SweepPoint(2, 1.0013151912023899, 0.01622224023342519,
               0.19886363636363635, 18.5, 0),
    SweepPoint(32, 1.001561917795727, 0.021867401523747772,
               0.2143835616438356, 1.5, 0),
]

HISTORY_SWEEP = [
    SweepPoint(4, 1.001518727476045, 0.02025449829794132,
               0.2399193548387097, 1.0, 0),
    SweepPoint(16, 1.001561917795727, 0.021867401523747772,
               0.2143835616438356, 1.5, 0),
]


def _run_all(jobs):
    return (
        fig11_ablation(TINY_SUITE, jobs=jobs),
        figs12_to_15_internals(TINY_SUITE, jobs=jobs),
        sweep_sim_parameter(TINY_SUITE, "prefetch_queue_size", [2, 32], jobs=jobs),
        sweep_entangling_parameter(TINY_SUITE, "history_size", [4, 16], jobs=jobs),
    )


def _assert_close(got, want):
    """Equal keys and values, floats to 1e-12 relative (nested dicts)."""
    if isinstance(want, dict):
        assert set(got) == set(want)
        for key in want:
            _assert_close(got[key], want[key])
    else:
        assert got == pytest.approx(want, rel=1e-12)


@pytest.fixture
def cache_dir(tmp_path):
    """A fresh process run cache over an empty store for the test."""
    path = str(tmp_path / "store")
    previous = set_run_cache(RunCache(disk_dir=path))
    yield path
    set_run_cache(previous)


class TestSameOutputs:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_pinned_outputs(self, cache_dir, jobs):
        fig11, internals, pq, history = _run_all(jobs)
        _assert_close(fig11, FIG11)
        _assert_close(vars(internals), vars(INTERNALS))
        assert len(pq) == len(PQ_SWEEP) and len(history) == len(HISTORY_SWEEP)
        for got, want in zip(pq + history, PQ_SWEEP + HISTORY_SWEEP):
            _assert_close(vars(got), vars(want))


class TestWarmStore:
    def test_second_call_simulates_nothing(self, cache_dir, monkeypatch):
        first = _run_all(1)
        calls = {"make_workload": 0, "simulate": 0}

        def counting(name):
            real = getattr(experiments, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(experiments, name, counting(name))
        experiments._trace_memo.cache_clear()
        experiments._units_memo.cache_clear()
        # The same cache, then a new process cache over the same store.
        assert _run_all(1) == first
        set_run_cache(RunCache(disk_dir=cache_dir))
        assert _run_all(1) == first
        assert calls == {"make_workload": 0, "simulate": 0}


class TestSpecMajorSuite:
    SPECS = [
        WorkloadSpec(name=f"sm_{i}", category="srv", seed=900 + i,
                     n_instructions=2_000)
        for i in range(6)
    ]
    CONFIGS = ["next_line", "entangling_2k"]  # plus the "no" baseline

    def test_each_trace_generated_once_with_a_two_entry_memo(self, monkeypatch):
        monkeypatch.setattr(
            experiments, "_trace_memo",
            lru_cache(maxsize=2)(experiments._trace_memo.__wrapped__),
        )
        real = experiments.make_workload
        generated = []

        def counting(spec):
            generated.append(spec.name)
            return real(spec)

        monkeypatch.setattr(experiments, "make_workload", counting)
        serial = run_suite(self.SPECS, self.CONFIGS, jobs=1, cache=None)
        assert generated == [spec.name for spec in self.SPECS]
        parallel = run_suite(self.SPECS, self.CONFIGS, jobs=2, cache=None)
        assert list(parallel.runs) == list(serial.runs) == ["no"] + self.CONFIGS
        for name in serial.runs:
            assert list(parallel.runs[name]) == list(serial.runs[name])
            for workload, result in serial.runs[name].items():
                assert (
                    parallel.runs[name][workload].stats.signature()
                    == result.stats.signature()
                )
