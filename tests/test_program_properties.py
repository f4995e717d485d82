"""Property tests (hypothesis) on the columnar CFG program.

Two paths fill a program's block columns: the generators draw straight
into a ``ProgramDraft``, and hand-written ``Function`` objects are compiled.
Compiling a generated program's ``functions`` view back must give the same
columns and the same walk, so the two paths cannot drift apart.  Random
hand-written programs over every terminator kind must only ever branch to
the start of a block.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.workloads.cfg import KINDS, Program, ProgramBuilder, Terminator, TermKind
from repro.workloads.generators import ProgramParams, build_program
from repro.workloads.microservice import MicroserviceParams, build_rpc_program
from repro.workloads.synthetic import generate_trace
from repro.workloads.trace import BranchType

probabilities = st.floats(0.0, 1.0)


@st.composite
def program_params(draw):
    handlers = draw(st.integers(1, 4))
    utils = draw(st.integers(0, 4))
    blocks_lo = draw(st.integers(1, 4))
    instrs_lo = draw(st.integers(1, 4))
    return ProgramParams(
        n_funcs=2 + handlers + utils + draw(st.integers(0, 12)),
        n_handlers=handlers,
        shared_utils=utils,
        blocks_per_func=(blocks_lo, blocks_lo + draw(st.integers(0, 4))),
        instrs_per_block=(instrs_lo, instrs_lo + draw(st.integers(0, 8))),
        loop_prob=draw(probabilities),
        loop_taken_prob=draw(st.floats(0.0, 0.9)),
        cond_prob=draw(probabilities),
        call_prob=draw(probabilities),
        indirect_frac=draw(probabilities),
        cond_bias_choices=tuple(draw(st.lists(probabilities, min_size=1, max_size=4))),
        zipf_s=draw(st.floats(0.5, 1.5)),
        load_frac=draw(st.floats(0.0, 0.6)),
        store_frac=draw(st.floats(0.0, 0.4)),
        max_call_depth=draw(st.integers(1, 6)),
    )


@st.composite
def rpc_params(draw):
    fanout_lo = draw(st.integers(1, 2))
    return MicroserviceParams(
        tiers=draw(st.integers(2, 4)),
        funcs_per_tier=draw(st.integers(2, 6)),
        entry_handlers=draw(st.integers(1, 2)),
        rpc_fanout=(fanout_lo, fanout_lo + draw(st.integers(0, 2))),
        indirect_frac=draw(probabilities),
        utils=draw(st.integers(0, 3)),
        blocks_per_func=(2, 2 + draw(st.integers(0, 4))),
        instrs_per_block=(1, 1 + draw(st.integers(0, 6))),
        loop_prob=draw(probabilities),
        loop_taken_prob=draw(st.floats(0.0, 0.9)),
        cond_prob=draw(probabilities),
    )


def _recompiled(program):
    """``program`` compiled back from its ``functions`` view."""
    return Program(
        list(program.functions.values()),
        entry=program.entry,
        base_address=program.base_address,
        func_align=program.func_align,
    )


def _walk(program, seed, depth):
    return generate_trace(program, 400, "p", seed=seed, max_call_depth=depth)


class TestAuthoringPathsAgree:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(program_params(), st.integers(0, 2**16))
    def test_generated_program_round_trips(self, params, seed):
        program = build_program(params, seed)
        again = _recompiled(program)
        assert again == program
        assert _walk(again, seed, params.max_call_depth) == _walk(
            program, seed, params.max_call_depth
        )

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rpc_params(), st.integers(0, 2**16))
    def test_rpc_program_round_trips(self, params, seed):
        program = build_rpc_program(params, seed)
        again = _recompiled(program)
        assert again == program
        assert _walk(again, seed, params.call_depth) == _walk(
            program, seed, params.call_depth
        )


@st.composite
def builder_programs(draw):
    """A hand-written program: 1-4 functions of 1-5 blocks, each block
    ending in any of the seven terminator kinds."""
    names = [f"fn{i}" for i in range(draw(st.integers(1, 4)))]
    shapes = [draw(st.integers(1, 5)) for _ in names]
    weights = st.floats(0.1, 4.0)
    builder = ProgramBuilder(entry=names[0], base_address=draw(st.sampled_from(
        [0x40_0000, 0x1000, 0x1234]
    )))
    for name, n_blocks in zip(names, shapes):
        builder.function(name)
        labels = [f"L{b}" for b in range(n_blocks)]
        for label in labels:
            kind = draw(st.sampled_from(KINDS))
            if kind in (TermKind.FALLTHROUGH, TermKind.RETURN):
                term = Terminator(kind)
            elif kind in (TermKind.COND, TermKind.JUMP):
                term = Terminator(kind, target=draw(st.sampled_from(labels)),
                                  taken_prob=draw(probabilities))
            elif kind is TermKind.CALL:
                term = Terminator(kind, target=draw(st.sampled_from(names)))
            elif kind is TermKind.INDIRECT_JUMP:
                picks = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=3))
                term = Terminator(kind, candidates=[(p, draw(weights)) for p in picks])
            else:
                picks = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3))
                term = Terminator(kind, candidates=[(p, draw(weights)) for p in picks])
            builder.block(label, draw(st.integers(1, 6)), term,
                          load_frac=draw(st.floats(0.0, 0.5)),
                          store_frac=draw(st.floats(0.0, 0.5)))
    return builder.build()


class TestBuilderPrograms:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(builder_programs(), st.integers(1, 4), st.integers(0, 2**16))
    def test_branches_target_block_starts(self, program, depth, seed):
        starts = set(program.start)
        trace = _walk(program, seed, depth)
        pcs, _sizes, flags, targets, _data = trace.columns()
        assert starts, "a program has at least one block"
        for flag, target in zip(flags, targets):
            if flag & 0x0F == BranchType.NOT_BRANCH:
                assert target == 0
            else:
                assert target in starts
        assert pcs[0] == program.start[program.entry_block]

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(builder_programs())
    def test_functions_view_compiles_back(self, program):
        assert _recompiled(program) == program
