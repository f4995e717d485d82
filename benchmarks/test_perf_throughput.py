"""Simulator throughput telemetry: the speed-tracking harness.

Runs the no-prefetch baseline and Entangling-4K over a small fixed
suite — once per simulator backend — reads the per-run
wall-clock/throughput telemetry that every simulation records in
``SimStats``, and appends one record to the ``BENCH_throughput.json``
trajectory file at the repository root.  The trajectory is versioned
(``schema_version``) and capped at the last N records
(``REPRO_BENCH_KEEP``, default 50) via
:mod:`repro.analysis.regression`, whose ``repro bench-check`` sentinel
gates each new record against the trajectory in CI.

The backend sweep earns its keep twice over: every run carries a
``backend`` tag and a measured ``speedup_vs_reference`` (the CI speedup
gate reads the per-backend geomean), and the benchmark asserts the
staged backend's :meth:`~repro.sim.stats.SimStats.signature` equals the
reference backend's bit-for-bit on the full bench suite — the largest
identity check in the repo, riding along with every bench run.
"""

from __future__ import annotations

import math
import os
import platform
import time

from repro.analysis.experiments import (
    resolve_config,
    resolve_warmup,
    run_suite,
    _cached_units,
    _cached_workload,
)
from repro.analysis.regression import (
    load_trajectory,
    retention_from_env,
    save_trajectory,
)
from repro.analysis.runcache import RunCache
from repro.obs.profiler import PhaseProfiler, set_stage_profiler
from repro.sim.config import SimConfig
from repro.sim.simulator import simulate
from repro.workloads.generators import CATEGORIES, WorkloadSpec

TRAJECTORY_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_throughput.json"
)

#: Fixed small suite so records are comparable across PRs.
BENCH_SUITE = [
    WorkloadSpec(
        name=f"bench_{category}",
        category=category,
        seed=17 + i,
        n_instructions=100_000,
    )
    for i, category in enumerate(CATEGORIES)
]

BENCH_CONFIGS = ("no", "entangling_4k")

#: Both simulator backends, reference first (it anchors the speedup
#: ratios and the bit-identity assertion).
BENCH_BACKENDS = ("reference", "staged")


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _profiled_phase_seconds() -> dict:
    """One profiled Entangling run: where simulator wall-clock goes."""
    spec = BENCH_SUITE[0]
    prefetcher, sim_config = resolve_config("entangling_4k", SimConfig())
    profiler = PhaseProfiler()
    result = simulate(
        _cached_workload(spec),
        prefetcher,
        config=sim_config,
        units=_cached_units(spec, sim_config.line_size),
        warmup_instructions=resolve_warmup(spec, None),
        profiler=profiler,
    )
    return {
        phase: round(seconds, 4)
        for phase, seconds in result.stats.phase_seconds.items()
    }


def _run_backend_sweep() -> dict:
    """The bench suite once per backend, each with a fresh isolated cache.

    Returns ``{backend: (stage_profiler, timing_entries)}``.  A fresh
    :class:`RunCache` per backend is load-bearing twice over: telemetry
    must reflect real simulations (not results memoized by other
    benchmarks in the same session), and the run cache intentionally
    ignores the backend field (bit-identical results), so a shared cache
    would serve one backend's runs to the others and fake the timings.
    """
    per_backend = {}
    for backend in BENCH_BACKENDS:
        stages = PhaseProfiler()
        previous = set_stage_profiler(stages)
        try:
            evaluation = run_suite(
                BENCH_SUITE, list(BENCH_CONFIGS), include_baseline=True,
                base_config=SimConfig(backend=backend),
                cache=RunCache(),
            )
        finally:
            set_stage_profiler(previous)
        per_backend[backend] = (stages, evaluation.timing_entries())
    return per_backend


def test_perf_throughput():
    # Truthful backend labels: an outer REPRO_BACKEND (e.g. the CI
    # staged-backend job) must not silently re-route the "reference" leg.
    outer_backend = os.environ.pop("REPRO_BACKEND", None)
    try:
        per_backend = _run_backend_sweep()
    finally:
        if outer_backend is not None:
            os.environ["REPRO_BACKEND"] = outer_backend
    stages, reference_entries = per_backend["reference"]

    # The largest bit-identity check in the repo: the staged backend must
    # reproduce the reference signatures exactly on the full bench suite.
    ref_wall = {}
    ref_signatures = {}
    for config, workload, stats in reference_entries:
        ref_wall[(config, workload)] = stats.wall_seconds
        ref_signatures[(config, workload)] = stats.signature()
    for backend in BENCH_BACKENDS[1:]:
        _, entries = per_backend[backend]
        for config, workload, stats in entries:
            assert stats.signature() == ref_signatures[(config, workload)], (
                backend, config, workload,
            )

    runs = []
    backend_aggregates = {}
    total_wall = 0.0
    total_instrs = 0
    total_cycles = 0
    for backend in BENCH_BACKENDS:
        _, entries = per_backend[backend]
        backend_wall = 0.0
        backend_instrs = 0
        speedups = []
        for config, workload, stats in entries:
            # Cache-served stats carry the *original* run's wall-clock
            # (and run_key ignores the backend), which would fake the
            # speedup math; the fresh per-backend RunCache above makes
            # this impossible, and the stamp check keeps it that way.
            assert not stats.from_cache, (backend, config, workload)
            assert stats.wall_seconds > 0.0, (backend, config, workload)
            assert stats.instrs_per_second > 0.0, (backend, config, workload)
            speedup = ref_wall[(config, workload)] / stats.wall_seconds
            backend_wall += stats.wall_seconds
            backend_instrs += stats.instructions
            speedups.append(speedup)
            runs.append(
                {
                    "config": config,
                    "workload": workload,
                    "backend": backend,
                    "wall_seconds": round(stats.wall_seconds, 4),
                    "instructions": stats.instructions,
                    "cycles": stats.cycles,
                    "instrs_per_sec": round(stats.instrs_per_second, 1),
                    "cycles_per_sec": round(stats.cycles_per_second, 1),
                    "speedup_vs_reference": round(speedup, 3),
                }
            )
            if backend == "reference":
                # The headline aggregate stays reference-only so it
                # remains comparable with pre-backend trajectory records.
                total_wall += stats.wall_seconds
                total_instrs += stats.instructions
                total_cycles += stats.cycles
        backend_aggregates[backend] = {
            "total_wall_seconds": round(backend_wall, 4),
            "instrs_per_sec": round(backend_instrs / backend_wall, 1),
            "geomean_speedup_vs_reference": round(_geomean(speedups), 3),
        }

    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "suite": [spec.name for spec in BENCH_SUITE],
        "configs": list(BENCH_CONFIGS),
        "backends": backend_aggregates,
        "runs": runs,
        "aggregate": {
            "total_wall_seconds": round(total_wall, 4),
            "instrs_per_sec": round(total_instrs / total_wall, 1),
            "cycles_per_sec": round(total_cycles / total_wall, 1),
        },
        "stages": {
            name: round(seconds, 4)
            for name, seconds in sorted(stages.seconds.items())
        },
        "phases": _profiled_phase_seconds(),
    }

    # Tolerant: a torn trajectory from a crashed prior run starts fresh
    # rather than aborting the benchmark that would repair it.
    trajectory = load_trajectory(TRAJECTORY_PATH, tolerant=True)
    trajectory.append(record)
    save_trajectory(TRAJECTORY_PATH, trajectory)

    print()
    print(
        f"simulator throughput (reference): "
        f"{record['aggregate']['instrs_per_sec']:,.0f} "
        f"instrs/s over {len(reference_entries)} runs "
        f"({record['aggregate']['total_wall_seconds']:.1f}s wall)"
    )
    for backend in BENCH_BACKENDS[1:]:
        aggregate = backend_aggregates[backend]
        print(
            f"  {backend}: {aggregate['instrs_per_sec']:,.0f} instrs/s, "
            f"geomean speedup "
            f"{aggregate['geomean_speedup_vs_reference']:.2f}x "
            f"(signatures bit-identical)"
        )

    # The trajectory file is valid JSON, versioned, capped, and carries
    # this run as its newest entry.
    reloaded = load_trajectory(TRAJECTORY_PATH)
    assert reloaded and reloaded[-1]["aggregate"]["instrs_per_sec"] > 0
    assert len(reloaded) <= retention_from_env()
