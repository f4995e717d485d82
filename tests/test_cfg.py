"""Tests for the CFG program model: validation, layout, builder, columns."""

import pytest

from repro.workloads.cfg import (
    INSTRUCTION_SIZE,
    K_CALL,
    K_COND,
    K_INDIRECT_CALL,
    K_JUMP,
    K_RETURN,
    BasicBlock,
    Function,
    Program,
    ProgramBuilder,
    ProgramDraft,
    Terminator,
    TermKind,
)


def _ret():
    return Terminator(TermKind.RETURN)


class TestTerminator:
    def test_cond_requires_target(self):
        with pytest.raises(ValueError, match="target"):
            Terminator(TermKind.COND)

    def test_jump_requires_target(self):
        with pytest.raises(ValueError):
            Terminator(TermKind.JUMP)

    def test_call_requires_target(self):
        with pytest.raises(ValueError):
            Terminator(TermKind.CALL)

    def test_indirect_requires_candidates(self):
        with pytest.raises(ValueError, match="candidates"):
            Terminator(TermKind.INDIRECT_CALL)

    def test_taken_prob_range(self):
        with pytest.raises(ValueError, match="taken_prob"):
            Terminator(TermKind.COND, target="b0", taken_prob=1.5)

    def test_valid_cond(self):
        term = Terminator(TermKind.COND, target="b1", taken_prob=0.25)
        assert term.taken_prob == 0.25


class TestBasicBlock:
    def test_needs_one_instruction(self):
        with pytest.raises(ValueError):
            BasicBlock("b0", 0, _ret())

    def test_memory_fractions_bounded(self):
        with pytest.raises(ValueError):
            BasicBlock("b0", 4, _ret(), load_frac=0.7, store_frac=0.5)


class TestFunction:
    def test_needs_blocks(self):
        with pytest.raises(ValueError, match="no blocks"):
            Function("f", [])

    def test_duplicate_labels_rejected(self):
        blocks = [BasicBlock("b0", 1, _ret()), BasicBlock("b0", 1, _ret())]
        with pytest.raises(ValueError, match="duplicate"):
            Function("f", blocks)

    def test_entry_is_first_block(self):
        f = Function("f", [BasicBlock("a", 1, _ret()), BasicBlock("b", 1, _ret())])
        assert f.entry.label == "a"

    def test_block_index(self):
        f = Function("f", [BasicBlock("a", 1, _ret()), BasicBlock("b", 1, _ret())])
        assert f.block_index("b") == 1
        with pytest.raises(KeyError):
            f.block_index("zzz")

    def test_n_instructions(self):
        f = Function("f", [BasicBlock("a", 3, _ret()), BasicBlock("b", 5, _ret())])
        assert f.n_instructions == 8


class TestProgram:
    def _program(self):
        return (
            ProgramBuilder(entry="main", base_address=0x1000)
            .function("main")
            .block("b0", 4, Terminator(TermKind.CALL, target="leaf"))
            .block("b1", 2, _ret())
            .function("leaf")
            .block("b0", 8, _ret())
            .build()
        )

    def test_entry_must_exist(self):
        f = Function("f", [BasicBlock("b0", 1, _ret())])
        with pytest.raises(ValueError, match="entry"):
            Program([f], entry="missing")

    def test_duplicate_function_names(self):
        f1 = Function("f", [BasicBlock("b0", 1, _ret())])
        f2 = Function("f", [BasicBlock("b0", 1, _ret())])
        with pytest.raises(ValueError, match="duplicate"):
            Program([f1, f2], entry="f")

    def test_unknown_branch_target_rejected(self):
        blocks = [
            BasicBlock("b0", 2, Terminator(TermKind.JUMP, target="nope")),
            BasicBlock("b1", 1, _ret()),
        ]
        with pytest.raises(ValueError, match="not in function"):
            Program([Function("f", blocks)], entry="f")

    def test_unknown_callee_rejected(self):
        blocks = [
            BasicBlock("b0", 2, Terminator(TermKind.CALL, target="ghost")),
            BasicBlock("b1", 1, _ret()),
        ]
        with pytest.raises(ValueError, match="not defined"):
            Program([Function("f", blocks)], entry="f")

    def test_unknown_indirect_callee_rejected(self):
        blocks = [
            BasicBlock(
                "b0", 2, Terminator(TermKind.INDIRECT_CALL, candidates=[("ghost", 1.0)])
            ),
            BasicBlock("b1", 1, _ret()),
        ]
        with pytest.raises(ValueError, match="not defined"):
            Program([Function("f", blocks)], entry="f")

    def test_layout_is_sequential_within_function(self):
        program = self._program()
        b0 = program.block_address("main", "b0")
        b1 = program.block_address("main", "b1")
        assert b1 == b0 + 4 * INSTRUCTION_SIZE

    def test_functions_are_aligned(self):
        program = self._program()
        assert program.function_address("leaf") % 64 == 0

    def test_function_address_is_entry_block(self):
        program = self._program()
        assert program.function_address("main") == program.block_address("main", "b0")

    def test_base_address_respected(self):
        program = self._program()
        assert program.function_address("main") == 0x1000

    def test_code_bytes_positive(self):
        program = self._program()
        assert program.code_bytes >= (4 + 2 + 8) * INSTRUCTION_SIZE

    def test_functions_do_not_overlap(self):
        program = self._program()
        main_end = program.block_address("main", "b1") + 2 * INSTRUCTION_SIZE
        assert program.function_address("leaf") >= main_end


class TestProgramBuilder:
    def test_block_before_function_raises(self):
        builder = ProgramBuilder()
        with pytest.raises(ValueError, match="function"):
            builder.block("b0", 1, _ret())

    def test_build_produces_program(self):
        program = (
            ProgramBuilder(entry="m")
            .function("m")
            .block("b0", 1, _ret())
            .build()
        )
        assert program.entry == "m"
        assert "m" in program.functions


def _draft(*blocks, functions=("f",)):
    """A draft whose first function holds ``blocks`` and whose other
    functions are one RETURN block each."""
    draft = ProgramDraft()
    draft.function(functions[0])
    for block in blocks:
        draft.block(*block)
    for name in functions[1:]:
        draft.function(name)
        draft.block(1, K_RETURN)
    return draft


class TestColumns:
    def test_columns_in_layout_order(self):
        program = TestProgram()._program()
        assert program.func_name == ["main", "leaf"]
        assert list(program.size) == [4, 2, 8]
        assert list(program.last) == [0, 1, 1]
        assert list(program.owner) == [0, 0, 1]
        # The call's target is the callee's entry block.
        assert program.kind[0] == K_CALL and program.target[0] == 2
        assert program.start[2] == program.function_address("leaf")
        assert program.entry_block == 0

    def test_layout_order_moves_blocks_not_targets(self):
        draft = _draft((2, K_CALL, 1), (1, K_RETURN), functions=("m", "g"))
        program = draft.build("m", order=[1, 0], base_address=0x1000)
        assert program.func_name == ["g", "m"]
        assert program.entry_block == 1
        assert program.target[1] == 0  # g's entry block comes first now
        assert program.function_address("g") == 0x1000

    def test_functions_view_matches_the_authoring_objects(self):
        blocks = [
            BasicBlock("top", 3, Terminator(
                TermKind.INDIRECT_JUMP, candidates=[("end", 2.0), ("top", 1.0)]
            ), load_frac=0.5, store_frac=0.25),
            BasicBlock("end", 1, _ret()),
        ]
        func = Function("f", blocks)
        assert Program([func], entry="f").functions == {"f": func}

    def test_equal_programs_compare_equal(self):
        assert TestProgram()._program() == TestProgram()._program()
        assert TestProgram()._program() != ProgramBuilder(entry="m").function(
            "m").block("b0", 1, _ret()).build()

    @pytest.mark.parametrize("block, message", [
        ((0, K_RETURN), "at least one instruction"),
        ((2, K_COND, 0, 1.5), "taken_prob out of range"),
        ((2, K_RETURN, 0, 0.5, 0.8, 0.3), r"load_frac \+ store_frac"),
        ((2, K_JUMP, 5), "not in function"),
        ((2, K_CALL, 9), "not defined"),
    ])
    def test_column_checks(self, block, message):
        with pytest.raises(ValueError, match=message):
            _draft(block, (1, K_RETURN)).build("f")

    def test_empty_candidates_rejected(self):
        draft = ProgramDraft()
        draft.function("f")
        draft.block(2, K_INDIRECT_CALL, draft.table([]))
        with pytest.raises(ValueError, match="requires candidates"):
            draft.build("f")

    @pytest.mark.parametrize("weight", [-1.0, float("nan")])
    def test_bad_candidate_weight_rejected(self, weight):
        term = Terminator(TermKind.INDIRECT_CALL, candidates=[("f", weight)])
        with pytest.raises(ValueError, match="candidate weight"):
            Program([Function("f", [BasicBlock("b0", 2, term)])], entry="f")

    def test_duplicate_names_and_missing_entry(self):
        with pytest.raises(ValueError, match="duplicate"):
            _draft((1, K_RETURN), functions=("f", "f")).build("f")
        with pytest.raises(ValueError, match="entry"):
            _draft((1, K_RETURN)).build("main")

    def test_error_names_the_block(self):
        draft = ProgramDraft()
        draft.function("f", ("head", "tail"))
        draft.block(2, K_JUMP, 7)
        draft.block(1, K_RETURN)
        with pytest.raises(ValueError, match="f/head"):
            draft.build("f")
