"""Tests for the category-tuned workload generators."""

import pytest

from repro.workloads.cloudsuite import CLOUDSUITE_PARAMS, cloudsuite_suite
from repro.workloads.generators import (
    CATEGORIES,
    CATEGORY_PARAMS,
    DEFAULT_INSTRUCTIONS,
    ProgramParams,
    WorkloadSpec,
    _ProgramShape,
    build_program,
    cvp_suite,
    make_workload,
    workload_names,
)


class TestProgramParams:
    def test_too_few_functions_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            ProgramParams(n_funcs=5, n_handlers=10, shared_utils=4)

    def test_frozen(self):
        params = ProgramParams()
        with pytest.raises(Exception):
            params.n_funcs = 10

    @pytest.mark.parametrize("field, knobs", [
        ("loop_prob", {"loop_prob": -0.5}),
        ("loop_taken_prob", {"loop_taken_prob": 1.2}),
        ("cond_prob", {"cond_prob": float("nan")}),
        ("call_prob", {"call_prob": 2.0}),
        ("indirect_frac", {"indirect_frac": 5.0}),
        ("load_frac", {"load_frac": -0.1}),
        ("cond_bias_choices", {"cond_bias_choices": (0.1, 1.5)}),
        ("cond_bias_choices", {"cond_bias_choices": ()}),
        ("blocks_per_func", {"blocks_per_func": (0, 4)}),
        ("instrs_per_block", {"instrs_per_block": (9, 4)}),
        (r"load_frac \+ store_frac", {"load_frac": 0.7, "store_frac": 0.5}),
    ])
    def test_bad_knob_rejected_naming_the_field(self, field, knobs):
        with pytest.raises(ValueError, match=field):
            ProgramParams(**knobs)


class TestProgramShape:
    def test_partition_is_disjoint_and_complete(self):
        params = ProgramParams(n_funcs=64, n_handlers=8, shared_utils=6)
        shape = _ProgramShape(params)
        all_names = [shape.main] + shape.handlers + shape.utils + shape.internals
        assert len(all_names) == 64
        assert len(set(all_names)) == 64

    def test_segments_cover_internals(self):
        params = ProgramParams(n_funcs=64, n_handlers=8, shared_utils=6)
        shape = _ProgramShape(params)
        covered = [f for seg in shape.segment.values() for f in seg]
        assert sorted(covered) == sorted(shape.internals)

    def test_segment_of_internal(self):
        params = ProgramParams(n_funcs=64, n_handlers=8, shared_utils=6)
        shape = _ProgramShape(params)
        member = shape.internals[0]
        assert member in shape.segment_of(member)


def _segment_of_by_scan(shape, func_name):
    """The original linear scan: a handler maps to its own segment, the
    first segment that contains the name wins, anything else gets
    ``internals``."""
    if func_name in shape.segment:
        return shape.segment[func_name]
    for members in shape.segment.values():
        if func_name in members:
            return members
    return shape.internals


class TestSegmentOfMap:
    @pytest.mark.parametrize(
        "params",
        list(CATEGORY_PARAMS.values())
        # More handlers than internals: most segments are empty.
        + [ProgramParams(n_funcs=22, n_handlers=16, shared_utils=4)],
        ids=list(CATEGORY_PARAMS) + ["starved"],
    )
    def test_same_list_object_as_linear_scan(self, params):
        shape = _ProgramShape(params)
        for name in shape.names + ["no_such_function"]:
            assert shape.segment_of(name) is _segment_of_by_scan(shape, name)


class TestBuildProgram:
    def test_deterministic(self):
        params = CATEGORY_PARAMS["int"]
        a = build_program(params, seed=11)
        b = build_program(params, seed=11)
        assert a.code_bytes == b.code_bytes
        assert sorted(a.functions) == sorted(b.functions)

    def test_different_seed_different_program(self):
        params = CATEGORY_PARAMS["int"]
        a = build_program(params, seed=11)
        b = build_program(params, seed=12)
        assert a.code_bytes != b.code_bytes

    def test_entry_is_dispatcher(self):
        params = ProgramParams(n_funcs=40, n_handlers=4, shared_utils=4)
        program = build_program(params, seed=1)
        main = program.functions[program.entry]
        assert main.blocks[0].label == "dispatch"

    def test_layout_is_shuffled(self):
        # Function f001 should usually not be laid out right after main.
        params = ProgramParams(n_funcs=120, n_handlers=8, shared_utils=6)
        program = build_program(params, seed=3)
        ordered = sorted(
            program.functions, key=lambda n: program.function_address(n)
        )
        assert ordered[1:4] != ["f001", "f002", "f003"]


class TestSuites:
    def test_default_suite_shape(self):
        specs = cvp_suite(per_category=2)
        assert len(specs) == 8
        assert {s.category for s in specs} == set(CATEGORIES)

    def test_default_lengths_per_category(self):
        specs = cvp_suite(per_category=1)
        for spec in specs:
            assert spec.n_instructions == DEFAULT_INSTRUCTIONS[spec.category]

    def test_explicit_length_override(self):
        specs = cvp_suite(per_category=1, n_instructions=1234)
        assert all(s.n_instructions == 1234 for s in specs)

    def test_names_are_unique(self):
        specs = cvp_suite(per_category=4)
        names = workload_names(specs)
        assert len(names) == len(set(names))

    def test_unknown_category_rejected(self):
        spec = WorkloadSpec(name="x", category="bogus", seed=0)
        with pytest.raises(ValueError, match="category"):
            spec.resolve_params()

    def test_cloudsuite_suite(self):
        specs = cloudsuite_suite(n_instructions=1000)
        assert {s.name for s in specs} == set(CLOUDSUITE_PARAMS)
        assert all(s.category == "cloud" for s in specs)


class TestMakeWorkload:
    def test_deterministic(self):
        spec = WorkloadSpec(name="w", category="int", seed=5, n_instructions=5000)
        a = make_workload(spec)
        b = make_workload(spec)
        assert a.instructions == b.instructions

    def test_length(self):
        spec = WorkloadSpec(name="w", category="crypto", seed=5, n_instructions=3000)
        assert len(make_workload(spec)) == 3000

    @pytest.mark.parametrize("category", CATEGORIES)
    def test_footprint_exceeds_l1i(self, category):
        """Every category must thrash a 32KB L1I (>=1 MPKI selection rule)."""
        spec = WorkloadSpec(
            name="w", category=category, seed=3,
            n_instructions=DEFAULT_INSTRUCTIONS[category],
        )
        trace = make_workload(spec)
        assert trace.footprint_lines() * 64 > 32 * 1024

    def test_srv_has_largest_footprint(self):
        traces = {
            c: make_workload(
                WorkloadSpec(name=c, category=c, seed=3,
                             n_instructions=DEFAULT_INSTRUCTIONS[c])
            )
            for c in CATEGORIES
        }
        footprints = {c: t.footprint_lines() for c, t in traces.items()}
        assert footprints["srv"] == max(footprints.values())

    def test_srv_is_branchier_than_fp(self):
        srv = make_workload(
            WorkloadSpec(name="s", category="srv", seed=3, n_instructions=100_000)
        )
        fp = make_workload(
            WorkloadSpec(name="f", category="fp", seed=3, n_instructions=100_000)
        )
        assert srv.branch_fraction() > fp.branch_fraction()
