"""Staged-engine guard: bit-identical to the reference engine, faster, and
pinned to fixed cycle counts.

Runs the no-prefetch baseline and Entangling-4K over a small fixed
suite (one 100k-instruction workload per CVP category), once per
simulator backend, each with a fresh in-memory :class:`RunCache`, and
asserts three things:

1. the staged backend's :meth:`~repro.sim.stats.SimStats.signature`
   equals the reference backend's on every pair;
2. every pair's ``(instructions, cycles)`` equals its value in
   ``PINNED_COUNTS`` — the suite is fixed and the simulator
   deterministic, so any difference means simulated behaviour changed;
3. the staged backend's geomean wall-clock speedup over the reference
   backend is at least ``MIN_STAGED_SPEEDUP``.

The test writes no file.  Run it with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_throughput.py -q

A change that alters simulated behaviour on purpose (a model fix, a new
default) updates ``PINNED_COUNTS`` in the same change and says so in
CHANGES.md; the failure message prints the measured values.
"""

from __future__ import annotations

import math

from repro.analysis.experiments import run_suite
from repro.analysis.runcache import RunCache
from repro.sim.config import SimConfig
from repro.workloads.generators import CATEGORIES, WorkloadSpec

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

#: ``(instructions, cycles)`` per ``(config, workload)``, measured on the
#: reference engine.
PINNED_COUNTS = {
    ("no", "bench_crypto"): (59997, 27252),
    ("no", "bench_int"): (59996, 117362),
    ("no", "bench_fp"): (59999, 38696),
    ("no", "bench_srv"): (59999, 173857),
    ("entangling_4k", "bench_crypto"): (59997, 26679),
    ("entangling_4k", "bench_int"): (59996, 112772),
    ("entangling_4k", "bench_fp"): (59999, 38342),
    ("entangling_4k", "bench_srv"): (59999, 169019),
}

#: Floor on the staged backend's geomean speedup over the reference
#: backend; it measures about 4x, so the floor absorbs host noise.
MIN_STAGED_SPEEDUP = 1.8


def _run(backend: str) -> dict:
    # A fresh RunCache per backend: run keys ignore the backend (results
    # are bit-identical), so a shared cache would serve one backend's
    # runs to the other and fake both the signatures and the timings.
    evaluation = run_suite(
        BENCH_SUITE, list(BENCH_CONFIGS), include_baseline=True,
        base_config=SimConfig(backend=backend),
        cache=RunCache(),
    )
    stats = {
        (config, workload): run_stats
        for config, workload, run_stats in evaluation.timing_entries()
    }
    for pair, run_stats in stats.items():
        assert not run_stats.from_cache, (backend, pair)
        assert run_stats.wall_seconds > 0.0, (backend, pair)
    return stats


def test_staged_matches_reference_pinned_and_faster(monkeypatch):
    # An outer REPRO_BACKEND (e.g. the CI staged-backend job) must not
    # re-route the reference leg.
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    reference = _run("reference")
    staged = _run("staged")

    assert set(reference) == set(staged) == set(PINNED_COUNTS)
    for pair, ref in reference.items():
        assert staged[pair].signature() == ref.signature(), pair

    measured = {
        pair: (ref.instructions, ref.cycles)
        for pair, ref in reference.items()
    }
    assert measured == PINNED_COUNTS

    speedup = math.exp(
        sum(
            math.log(reference[pair].wall_seconds / staged[pair].wall_seconds)
            for pair in reference
        )
        / len(reference)
    )
    print(f"\nstaged geomean speedup: {speedup:.2f}x over {len(reference)} "
          f"pairs (signatures bit-identical, cycles pinned)")
    assert speedup >= MIN_STAGED_SPEEDUP, speedup
