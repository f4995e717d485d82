"""Tests for the CFG interpreter: control-transfer semantics."""

import random

import pytest

from repro.workloads.cfg import ProgramBuilder, Terminator, TermKind
from repro.workloads.synthetic import CfgInterpreter, generate_trace, randint
from repro.workloads.trace import BranchType


def _ret():
    return Terminator(TermKind.RETURN)


def _straightline_program():
    return (
        ProgramBuilder(entry="main")
        .function("main")
        .block("b0", 4, Terminator(TermKind.FALLTHROUGH))
        .block("b1", 4, _ret())
        .build()
    )


class TestFallthrough:
    def test_fallthrough_emits_no_branch(self):
        program = _straightline_program()
        out = CfgInterpreter(program).run(8)[:8]
        assert all(not inst.is_branch for inst in out[:4])

    def test_pcs_are_sequential_across_fallthrough(self):
        program = _straightline_program()
        out = CfgInterpreter(program).run(8)[:8]
        pcs = [inst.pc for inst in out]
        assert pcs == [pcs[0] + 4 * i for i in range(8)]


class TestCallsAndReturns:
    def _call_program(self):
        return (
            ProgramBuilder(entry="main")
            .function("main")
            .block("b0", 2, Terminator(TermKind.CALL, target="leaf"))
            .block("b1", 2, _ret())
            .function("leaf")
            .block("b0", 3, _ret())
            .build()
        )

    def test_call_targets_callee_entry(self):
        program = self._call_program()
        out = CfgInterpreter(program).run(4)
        call = out[1]
        assert call.branch_type == BranchType.DIRECT_CALL
        assert call.target == program.function_address("leaf")

    def test_return_goes_back_to_caller(self):
        program = self._call_program()
        out = CfgInterpreter(program).run(8)
        ret = out[4]  # 2 main + 3 leaf => index 4 is leaf's return
        assert ret.branch_type == BranchType.RETURN
        assert ret.target == program.block_address("main", "b1")

    def test_return_from_entry_restarts(self):
        program = self._call_program()
        interp = CfgInterpreter(program)
        interp.run(30)
        assert interp.restarts >= 1

    def test_depth_limit_demotes_calls(self):
        program = (
            ProgramBuilder(entry="main")
            .function("main")
            .block("b0", 2, Terminator(TermKind.CALL, target="main"))
            .block("b1", 2, _ret())
            .build()
        )
        interp = CfgInterpreter(program, max_call_depth=3)
        out = interp.run(50)
        calls = [i for i in out if i.branch_type == BranchType.DIRECT_CALL]
        # Depth-bounded: only 3 real calls can be outstanding at once.
        assert calls, "some calls must be taken"
        plain_at_call_pc = [
            i for i in out if not i.is_branch and i.pc == calls[0].pc
        ]
        assert plain_at_call_pc, "calls beyond the depth limit are demoted"


class TestConditionals:
    def test_always_taken_cond(self):
        program = (
            ProgramBuilder(entry="main")
            .function("main")
            .block("b0", 2, Terminator(TermKind.COND, target="b0", taken_prob=1.0))
            .block("b1", 1, _ret())
            .build()
        )
        out = CfgInterpreter(program).run(20)
        branches = [i for i in out if i.is_branch]
        assert all(b.taken for b in branches)

    def test_never_taken_cond_falls_through(self):
        program = (
            ProgramBuilder(entry="main")
            .function("main")
            .block("b0", 2, Terminator(TermKind.COND, target="b0", taken_prob=0.0))
            .block("b1", 2, _ret())
            .build()
        )
        out = CfgInterpreter(program).run(4)
        cond = out[1]
        assert cond.branch_type == BranchType.CONDITIONAL
        assert not cond.taken
        assert out[2].pc == program.block_address("main", "b1")

    def test_biased_cond_statistics(self):
        program = (
            ProgramBuilder(entry="main")
            .function("main")
            .block("b0", 2, Terminator(TermKind.COND, target="b0", taken_prob=0.8))
            .block("b1", 1, _ret())
            .build()
        )
        out = CfgInterpreter(program, seed=1).run(6000)
        branches = [i for i in out if i.branch_type == BranchType.CONDITIONAL]
        taken_frac = sum(b.taken for b in branches) / len(branches)
        assert 0.7 < taken_frac < 0.9


class TestIndirect:
    def test_indirect_call_picks_candidates(self):
        program = (
            ProgramBuilder(entry="main")
            .function("main")
            .block(
                "b0",
                2,
                Terminator(
                    TermKind.INDIRECT_CALL,
                    candidates=[("a", 1.0), ("b", 1.0)],
                ),
            )
            .block("b1", 1, _ret())
            .function("a")
            .block("b0", 1, _ret())
            .function("b")
            .block("b0", 1, _ret())
            .build()
        )
        out = CfgInterpreter(program, seed=3).run(4000)
        targets = {
            i.target for i in out if i.branch_type == BranchType.INDIRECT_CALL
        }
        expected = {program.function_address("a"), program.function_address("b")}
        assert targets == expected

    def test_indirect_jump_stays_in_function(self):
        program = (
            ProgramBuilder(entry="main")
            .function("main")
            .block(
                "b0",
                2,
                Terminator(TermKind.INDIRECT_JUMP, candidates=[("b1", 1.0)]),
            )
            .block("b1", 2, _ret())
            .build()
        )
        out = CfgInterpreter(program).run(4)
        jump = out[1]
        assert jump.branch_type == BranchType.INDIRECT_JUMP
        assert jump.target == program.block_address("main", "b1")


class TestDataAccesses:
    def test_loads_and_stores_emitted(self):
        program = (
            ProgramBuilder(entry="main")
            .function("main")
            .block("b0", 50, _ret(), load_frac=0.5, store_frac=0.3)
            .build()
        )
        out = CfgInterpreter(program, seed=5).run(2000)
        loads = sum(1 for i in out if i.is_load)
        stores = sum(1 for i in out if i.is_store)
        assert loads > 0 and stores > 0
        assert loads > stores

    def test_memory_ops_have_addresses(self):
        program = (
            ProgramBuilder(entry="main")
            .function("main")
            .block("b0", 20, _ret(), load_frac=0.9, store_frac=0.0)
            .build()
        )
        out = CfgInterpreter(program, seed=5).run(100)
        for inst in out:
            if inst.is_load or inst.is_store:
                assert inst.data_addr > 0


class TestDeterminism:
    def test_same_seed_same_trace(self, loop_program):
        a = CfgInterpreter(loop_program, seed=9).run(500)
        b = CfgInterpreter(loop_program, seed=9).run(500)
        assert a == b

    def test_different_seed_different_path(self, loop_program):
        a = CfgInterpreter(loop_program, seed=9).run(500)
        b = CfgInterpreter(loop_program, seed=10).run(500)
        assert a != b


class TestGenerateTrace:
    def test_exact_length(self, loop_program):
        trace = generate_trace(loop_program, 123, name="t")
        assert len(trace) == 123

    def test_metadata(self, loop_program):
        trace = generate_trace(loop_program, 10, name="t", category="fp")
        assert trace.name == "t"
        assert trace.category == "fp"


class TestRandintReplay:
    """``randint`` must replay ``Random._randbelow`` draw for draw."""

    def test_matches_random_randint(self):
        ours, ref = random.Random(7), random.Random(7)
        ranges = [(0, 0), (3, 14), (0, 32 * 1024 - 1), (0, 4 * 1024 * 1024 - 1),
                  (2, 4), (-5, 5), (1, 2 ** 40)]
        for lo, hi in ranges * 100:
            assert randint(ours.getrandbits, lo, hi) == ref.randint(lo, hi)
        assert ours.random() == ref.random()

    def test_matches_random_choice(self):
        ours, ref = random.Random(11), random.Random(11)
        for n in range(1, 70):
            seq = list(range(n))
            assert seq[randint(ours.getrandbits, 0, n - 1)] == ref.choice(seq)
        assert ours.random() == ref.random()

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="empty range"):
            randint(random.Random(0).getrandbits, 3, 2)
