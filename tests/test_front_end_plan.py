"""The front-end plan behind the staged streak loops.

The streak loops read each fetch unit's branch verdict and L1D traffic
from a per-trace plan (:mod:`repro.sim.stages.plan`), memoized on the
per-process fetch units.  These tests pin that the plan is exact — the
staged engine stays bit-identical to the reference — across the config
fields it is keyed by, warm-up crossings, zero redirect penalties and a
sanitized run, and that a sweep builds one plan per trace.
"""

import dataclasses
import sys
import weakref

import pytest

import repro.analysis.experiments as experiments
import repro.sim.stages.plan as plan_module
from repro.analysis.experiments import (
    _cached_units,
    _cached_workload,
    run_single,
    run_suite,
)
from repro.sim.config import SimConfig
from repro.sim.stages.core import StagedSimulator
from repro.sim.fetchunits import FetchUnits, build_fetch_units
from repro.sim.stages.plan import PLAN_FIELDS
from repro.workloads.generators import WorkloadSpec

SPEC = WorkloadSpec(name="plan_srv", category="srv", seed=41, n_instructions=10_000)

#: A small BTB, so that its ways matter on a 10k-instruction trace.
KEY_BASE = SimConfig(btb_sets=16)

#: Per plan-key field: an override of ``KEY_BASE`` that changes that field
#: alone, and changes the run's signature on ``SPEC``.
VARIANTS = {
    "branch_predictor": {"branch_predictor": "bimodal"},
    "gshare_bits": {"gshare_bits": 13},
    "gshare_history": {"gshare_history": 2},
    "btb_sets": {"btb_sets": 64},
    "btb_ways": {"btb_ways": 2},
    "ras_size": {"ras_size": 1},
    "itc_bits": {"itc_bits": 2},
    "itc_history": {"itc_history": 8},
    "l1d_sets": {"l1d_size": 24 * 1024},
    "l1d_ways": {"l1d_size": 24 * 1024, "l1d_ways": 6},
}


@pytest.fixture(autouse=True)
def _no_env_backend(monkeypatch):
    """Each run below names its engine; an outer REPRO_BACKEND must not
    turn the reference run into a second staged one."""
    monkeypatch.delenv("REPRO_BACKEND", raising=False)


def _signature(config_name, config, warmup, spec=SPEC):
    return run_single(spec, config_name, config, warmup).stats.signature()


def _both(config_name, config, warmup, spec=SPEC):
    """(staged, reference) signatures of one run."""
    return tuple(
        _signature(
            config_name, dataclasses.replace(config, backend=backend), warmup, spec
        )
        for backend in ("staged", "reference")
    )


def test_variants_cover_the_plan_key():
    base = KEY_BASE
    assert set(VARIANTS) == set(PLAN_FIELDS)
    for field, override in VARIANTS.items():
        variant = dataclasses.replace(base, **override)
        changed = [
            name for name in PLAN_FIELDS
            if getattr(variant, name) != getattr(base, name)
        ]
        assert changed == [field]


@pytest.mark.parametrize("field", list(VARIANTS))
def test_every_key_field_selects_its_own_plan(field):
    # Back to back in one process, on the memoized units: a field missing
    # from the memo key would serve the first config's plan to the second.
    base = dataclasses.replace(KEY_BASE, backend="staged")
    variant = dataclasses.replace(base, **VARIANTS[field])
    staged_base = _signature("no", base, 2_000)
    staged_variant = _signature("no", variant, 2_000)
    assert staged_base != staged_variant  # the field matters on this trace
    assert staged_base == _signature(
        "no", dataclasses.replace(base, backend="reference"), 2_000
    )
    assert staged_variant == _signature(
        "no", dataclasses.replace(variant, backend="reference"), 2_000
    )


def _mid_unit_warmup(units):
    """A warm-up ending inside a unit of three or more instructions, about
    a third of the way into the trace."""
    done = 0
    for unit in units:
        if done >= SPEC.n_instructions // 3 and unit.n_instrs >= 3:
            return done + 1
        done += unit.n_instrs
    raise AssertionError("no unit of three or more instructions")


@pytest.mark.parametrize("config_name", ["no", "next_line", "entangling_4k"])
def test_warmup_crossings(config_name):
    units = _cached_units(SPEC, 64)
    mid_unit = _mid_unit_warmup(units)
    for warmup in (0, mid_unit, SPEC.n_instructions, 3 * SPEC.n_instructions):
        staged, reference = _both(config_name, SimConfig(), warmup)
        assert staged == reference, warmup


@pytest.mark.parametrize(
    "penalty", ["exec_redirect_penalty", "decode_redirect_penalty"]
)
@pytest.mark.parametrize("config_name", ["no", "entangling_4k"])
def test_zero_redirect_penalty(penalty, config_name):
    config = SimConfig(**{penalty: 0})
    staged, reference = _both(config_name, config, 2_000)
    assert staged == reference
    stats = run_single(
        SPEC, config_name, dataclasses.replace(config, backend="staged"), 2_000
    ).stats
    # A zero penalty blocks nothing but still counts the redirect.
    assert stats.branch_mispredictions > 0 and stats.btb_miss_redirects > 0


@pytest.mark.parametrize(
    "config_name, loop", [("no", "_run_passive"), ("entangling_4k", "_run_active")]
)
def test_sanitized_streak_loops(config_name, loop, monkeypatch):
    calls = []
    original = getattr(StagedSimulator, loop)

    def counted(self, limit):
        calls.append(limit)
        return original(self, limit)

    monkeypatch.setattr(StagedSimulator, loop, counted)
    monkeypatch.setenv("REPRO_SANITIZE", "1")  # fatal: a violation raises
    staged = _signature(config_name, SimConfig(backend="staged"), 3_000)
    assert calls == [3_000, sys.maxsize]  # to the warm-up, then to the end
    assert staged == _signature(config_name, SimConfig(), 3_000)


def test_a_sweep_builds_one_plan_per_trace(monkeypatch):
    built = []
    build_plan = plan_module.build_plan

    def counting_build(units, config):
        built.append(len(units))
        return build_plan(units, config)

    monkeypatch.setattr(plan_module, "build_plan", counting_build)
    experiments._units_memo.cache_clear()
    specs = [
        WorkloadSpec(name="sweep_srv", category="srv", seed=5, n_instructions=6_000),
        WorkloadSpec(name="sweep_int", category="int", seed=6, n_instructions=6_000),
    ]
    configs = [
        "no", "next_line", "sn4l", "mana_4k", "pif", "rdip", "djolt",
        "fnl_mma", "entangling_2k", "entangling_4k", "entangling_8k",
        "entangling_4k_phys",
    ]
    evaluation = run_suite(
        specs, configs, base_config=SimConfig(backend="staged"), jobs=1,
        cache=None, checkpoint=None,
    )
    assert evaluation.is_complete()
    assert len(built) == 2


def test_plans_are_memoized_with_their_units():
    units = _cached_units(SPEC, 64)
    assert isinstance(units, FetchUnits)
    config = SimConfig()
    first = plan_module.front_end_plan(units, config)
    assert plan_module.front_end_plan(units, dataclasses.replace(config, ftq_size=8)) is first
    fresh = build_fetch_units(_cached_workload(SPEC))
    assert plan_module.front_end_plan(fresh, config) is not first


def test_a_plan_lives_exactly_as_long_as_its_units():
    units = build_fetch_units(_cached_workload(SPEC))
    plans = [
        weakref.ref(plan_module.front_end_plan(units, SimConfig(gshare_history=h)))
        for h in range(1, 11)
    ]
    # At most 8 plans per units: the two oldest are dropped (and freed).
    assert len(units.plans) == 8
    assert [plan() is not None for plan in plans] == [False] * 2 + [True] * 8
    del units
    assert all(plan() is None for plan in plans)
