"""Cloud-microservice workload family (ISSUE 8 tentpole, part 2).

Covers the RPC-chain program generator (multi-megabyte footprints, deep
call stacks, determinism), the multi-tenant interleaver (determinism,
tenant-region disjointness, full stream preservation, context-switch
schedule), suite registration of the first-class ``microservice``
category, and bit-identical execution across the simulator backends.
"""

import pytest

from repro.analysis.experiments import run_suite
from repro.cli import main
from repro.prefetchers.registry import make_prefetcher
from repro.sim.config import SimConfig
from repro.sim.simulator import simulate
from repro.workloads.generators import ALL_CATEGORIES, WorkloadSpec, make_workload
from repro.workloads.microservice import (
    MICROSERVICE_PARAMS,
    MicroserviceParams,
    SERVICE_NAMES,
    TENANT_BASE,
    TENANT_STRIDE,
    build_rpc_program,
    interleave_traces,
    make_microservice_workload,
    microservice_suite,
)
from repro.workloads.synthetic import generate_trace

FAST_BACKENDS = ("staged",)


def _spec(tenants, n=60_000, seed=4, name="ms"):
    return WorkloadSpec(
        name=name,
        category="microservice",
        seed=seed,
        n_instructions=n,
        tenants=tenants,
    )


class TestMicroserviceParams:
    @pytest.mark.parametrize("field, knobs", [
        ("indirect_frac", {"indirect_frac": 5.0}),
        ("loop_prob", {"loop_prob": -0.5}),
        ("loop_taken_prob", {"loop_taken_prob": 1.01}),
        ("cond_prob", {"cond_prob": 2.0}),
        ("store_frac", {"store_frac": -1.0}),
        ("cond_bias_choices", {"cond_bias_choices": (0.5, -0.2)}),
        ("rpc_fanout", {"rpc_fanout": (0, 2)}),
        ("blocks_per_func", {"blocks_per_func": (6, 3)}),
        ("instrs_per_block", {"instrs_per_block": (0, 0)}),
        (r"load_frac \+ store_frac", {"load_frac": 0.9, "store_frac": 0.2}),
    ])
    def test_bad_knob_rejected_naming_the_field(self, field, knobs):
        with pytest.raises(ValueError, match=field):
            MicroserviceParams(**knobs)


class TestRpcPrograms:
    @pytest.mark.parametrize("service", SERVICE_NAMES)
    def test_footprint_is_multi_megabyte_scale(self, service):
        program = build_rpc_program(MICROSERVICE_PARAMS[service], seed=1)
        assert program.code_bytes > 900_000, service

    def test_deterministic(self):
        params = MICROSERVICE_PARAMS["social"]
        a = generate_trace(build_rpc_program(params, seed=9), 20_000, "a",
                           seed=3, max_call_depth=params.call_depth)
        b = generate_trace(build_rpc_program(params, seed=9), 20_000, "b",
                           seed=3, max_call_depth=params.call_depth)
        assert a.instructions == b.instructions

    def test_call_chains_reach_tier_depth(self):
        """Returns prove the chain actually descends through the tiers."""
        params = MICROSERVICE_PARAMS["social"]
        trace = generate_trace(
            build_rpc_program(params, seed=2), 40_000, "d",
            seed=5, max_call_depth=params.call_depth,
        )
        depth = max_depth = 0
        for inst in trace.instructions:
            if inst.branch_type.is_call:
                depth += 1
                max_depth = max(max_depth, depth)
            elif inst.branch_type.name == "RETURN":
                depth = max(0, depth - 1)
        assert max_depth >= params.tiers

    def test_base_address_relocates(self):
        params = MICROSERVICE_PARAMS["bank"]
        base = TENANT_BASE + 2 * TENANT_STRIDE
        program = build_rpc_program(params, seed=1, base_address=base)
        assert program.base_address == base


class TestInterleaver:
    def _tenants(self, n=3, share=15_000):
        traces = []
        for i, service in enumerate(SERVICE_NAMES[:n]):
            params = MICROSERVICE_PARAMS[service]
            traces.append(
                generate_trace(
                    build_rpc_program(
                        params, seed=i, base_address=TENANT_BASE + i * TENANT_STRIDE
                    ),
                    share, service, seed=i, max_call_depth=params.call_depth,
                )
            )
        return traces

    def test_deterministic(self):
        tenants = self._tenants()
        a = interleave_traces(tenants, quantum=4000, seed=7)
        b = interleave_traces(self._tenants(), quantum=4000, seed=7)
        assert a.instructions == b.instructions

    def test_preserves_every_tenant_instruction(self):
        tenants = self._tenants()
        merged = interleave_traces(tenants, quantum=4000, seed=7)
        assert len(merged) == sum(len(t) for t in tenants)
        # Each tenant's sub-stream keeps its retire order.
        for i, tenant in enumerate(tenants):
            region = (TENANT_BASE + i * TENANT_STRIDE) >> 28
            sub = [x for x in merged.instructions if x.pc >> 28 == region]
            assert sub == tenant.instructions

    def test_actually_context_switches(self):
        merged = interleave_traces(self._tenants(), quantum=2000, seed=1)
        regions = [x.pc >> 28 for x in merged.instructions]
        switches = sum(1 for a, b in zip(regions, regions[1:]) if a != b)
        assert switches >= 10

    def test_rejects_empty_and_bad_quantum(self):
        with pytest.raises(ValueError):
            interleave_traces([])
        with pytest.raises(ValueError):
            interleave_traces(self._tenants(1), quantum=0)


class TestWorkloadFamily:
    def test_category_is_first_class(self):
        assert "microservice" in ALL_CATEGORIES

    def test_make_workload_dispatch(self):
        trace = make_workload(_spec(("social", "search")))
        assert trace.category == "microservice"
        assert len(trace) == 60_000
        assert {i.pc >> 28 for i in trace.instructions} == {0, 1}

    def test_deterministic_via_make_workload(self):
        spec = _spec(("media", "bank"), seed=12)
        assert make_workload(spec).instructions == make_workload(spec).instructions

    def test_default_mix_is_seeded(self):
        a = make_microservice_workload(_spec(None, seed=21))
        b = make_microservice_workload(_spec(None, seed=21))
        c = make_microservice_workload(_spec(None, seed=22))
        assert a.instructions == b.instructions
        assert a.instructions != c.instructions

    def test_unknown_service_rejected(self):
        with pytest.raises(ValueError, match="unknown microservice"):
            make_workload(_spec(("monolith",)))

    def test_empty_tenants_rejected(self):
        with pytest.raises(ValueError, match="at least one tenant"):
            make_microservice_workload(_spec(()))

    @pytest.mark.parametrize("tenants, message", [
        (",", "at least one tenant"),
        ("monolith", "unknown microservice 'monolith'"),
    ])
    def test_cli_gen_bad_tenants_exit_2(self, tmp_path, capsys, tenants, message):
        out = tmp_path / "w.trc"
        code = main(["gen", str(out), "--category", "microservice",
                     "--tenants", tenants, "--instructions", "1000"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("gen: ") and message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_suite_shape(self):
        specs = microservice_suite()
        assert all(s.category == "microservice" for s in specs)
        names = {s.name for s in specs}
        assert len(names) == len(specs)
        sizes = sorted(len(s.tenants) for s in specs)
        assert sizes[:len(SERVICE_NAMES)] == [1] * len(SERVICE_NAMES)
        assert sizes[-1] >= 4  # at least one 4-tenant mix

    def test_suite_runs_and_reports_category(self):
        specs = [
            WorkloadSpec(
                name=s.name, category=s.category, seed=s.seed,
                n_instructions=20_000, tenants=s.tenants,
            )
            for s in microservice_suite()[:2]
        ]
        evaluation = run_suite(specs, ["next_line"], include_baseline=False)
        assert set(evaluation.categories.values()) == {"microservice"}
        for spec in specs:
            assert evaluation.runs["next_line"][spec.name].stats.instructions > 0


class TestBackendIdentity:
    @pytest.fixture(autouse=True)
    def _no_env_backend(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_multitenant_bit_identical(self, backend):
        trace = make_workload(_spec(("social", "search", "media"), n=40_000))
        reference = simulate(
            trace, make_prefetcher("entangling_4k"), config=SimConfig(),
            warmup_instructions=8_000,
        ).stats.signature()
        fast = simulate(
            trace, make_prefetcher("entangling_4k"),
            config=SimConfig(backend=backend), warmup_instructions=8_000,
        ).stats.signature()
        assert fast == reference
