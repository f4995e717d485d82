"""Tests for the instruction-trace representation and file IO."""

import pytest

from repro.check.errors import TraceVersionError
from repro.workloads.trace import (
    BranchType,
    Instruction,
    Trace,
    read_trace,
    trace_from_pcs,
    write_trace,
)


class TestBranchType:
    def test_calls_are_calls(self):
        assert BranchType.DIRECT_CALL.is_call
        assert BranchType.INDIRECT_CALL.is_call

    def test_non_calls(self):
        for bt in (BranchType.CONDITIONAL, BranchType.RETURN, BranchType.DIRECT_JUMP):
            assert not bt.is_call

    def test_indirect_classification(self):
        assert BranchType.INDIRECT_JUMP.is_indirect
        assert BranchType.INDIRECT_CALL.is_indirect
        assert not BranchType.DIRECT_JUMP.is_indirect

    def test_unconditional_classification(self):
        assert BranchType.DIRECT_JUMP.is_unconditional
        assert BranchType.RETURN.is_unconditional
        assert not BranchType.CONDITIONAL.is_unconditional
        assert not BranchType.NOT_BRANCH.is_unconditional


class TestInstruction:
    def test_defaults_are_not_branch(self):
        inst = Instruction(pc=0x400000)
        assert not inst.is_branch
        assert inst.next_pc == 0x400004

    def test_taken_branch_next_pc(self):
        inst = Instruction(
            pc=0x1000,
            branch_type=BranchType.DIRECT_JUMP,
            taken=True,
            target=0x2000,
        )
        assert inst.next_pc == 0x2000

    def test_not_taken_branch_falls_through(self):
        inst = Instruction(
            pc=0x1000,
            branch_type=BranchType.CONDITIONAL,
            taken=False,
            target=0x2000,
        )
        assert inst.next_pc == 0x1004

    def test_instruction_is_frozen(self):
        inst = Instruction(pc=0x1000)
        with pytest.raises(AttributeError):
            inst.pc = 0x2000


class TestTrace:
    def test_len_and_iteration(self):
        trace = Trace("t", [Instruction(pc=4 * i) for i in range(10)])
        assert len(trace) == 10
        assert [i.pc for i in trace] == [4 * i for i in range(10)]

    def test_indexing(self):
        trace = Trace("t", [Instruction(pc=0), Instruction(pc=4)])
        assert trace[1].pc == 4

    def test_footprint_lines(self):
        # 32 instructions over two 64-byte lines.
        trace = Trace("t", [Instruction(pc=4 * i) for i in range(32)])
        assert trace.footprint_lines() == 2

    def test_branch_fraction_empty(self):
        assert Trace("t", []).branch_fraction() == 0.0

    def test_branch_fraction(self):
        insts = [Instruction(pc=0)] * 3 + [
            Instruction(pc=12, branch_type=BranchType.DIRECT_JUMP, taken=True, target=0)
        ]
        assert Trace("t", insts).branch_fraction() == 0.25

    def test_taken_branch_count(self):
        insts = [
            Instruction(pc=0, branch_type=BranchType.CONDITIONAL, taken=True, target=8),
            Instruction(pc=8, branch_type=BranchType.CONDITIONAL, taken=False, target=0),
        ]
        assert Trace("t", insts).taken_branch_count() == 1

    def test_repr_mentions_name(self):
        assert "mytrace" in repr(Trace("mytrace", []))


class TestTraceFromPcs:
    def test_sequential_pcs_have_no_branches(self):
        trace = trace_from_pcs("t", [0, 4, 8, 12])
        assert all(not inst.is_branch for inst in trace)

    def test_discontinuity_becomes_taken_jump(self):
        trace = trace_from_pcs("t", [0, 4, 0x100])
        assert trace[1].branch_type == BranchType.DIRECT_JUMP
        assert trace[1].taken
        assert trace[1].target == 0x100

    def test_next_pc_chain_is_consistent(self):
        pcs = [0, 4, 0x100, 0x104, 0x40]
        trace = trace_from_pcs("t", pcs)
        for i in range(len(pcs) - 1):
            assert trace[i].next_pc == pcs[i + 1]


class TestTraceIO:
    def _roundtrip(self, trace, tmp_path, compress=True):
        path = str(tmp_path / "trace.bin")
        write_trace(trace, path, compress=compress)
        return read_trace(path)

    def test_roundtrip_preserves_everything(self, tmp_path):
        insts = [
            Instruction(pc=0x400000, size=4),
            Instruction(
                pc=0x400004,
                branch_type=BranchType.INDIRECT_CALL,
                taken=True,
                target=0x500000,
            ),
            Instruction(pc=0x500000, is_load=True, data_addr=0xDEAD00),
            Instruction(pc=0x500004, is_store=True, data_addr=0xBEEF00),
        ]
        original = Trace("w", insts, category="srv")
        loaded = self._roundtrip(original, tmp_path)
        assert loaded.name == "w"
        assert loaded.category == "srv"
        assert loaded.instructions == insts

    def test_roundtrip_uncompressed(self, tmp_path):
        original = Trace("w", [Instruction(pc=4 * i) for i in range(100)])
        loaded = self._roundtrip(original, tmp_path, compress=False)
        assert loaded.instructions == original.instructions

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            read_trace(str(path))

    @pytest.mark.parametrize("salvage", [False, True])
    def test_version_2_header_is_rejected(self, tmp_path, salvage):
        path = str(tmp_path / "trace.bin")
        write_trace(Trace("w", [Instruction(pc=0)] * 8), path)
        raw = bytearray(open(path, "rb").read())
        raw[4] = 2
        open(path, "wb").write(bytes(raw))
        with pytest.raises(TraceVersionError, match="speaks 3") as info:
            read_trace(path, salvage=salvage)
        assert info.value.offset == 4

    def test_truncated_payload_raises(self, tmp_path):
        path = str(tmp_path / "trace.bin")
        write_trace(Trace("w", [Instruction(pc=0)] * 8), path, compress=False)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-10])
        with pytest.raises(ValueError, match="truncated"):
            read_trace(path)

    def test_empty_trace_roundtrip(self, tmp_path):
        loaded = self._roundtrip(Trace("empty", []), tmp_path)
        assert len(loaded) == 0

    def test_large_addresses_roundtrip(self, tmp_path):
        inst = Instruction(
            pc=(1 << 48) - 4,
            branch_type=BranchType.RETURN,
            taken=True,
            target=(1 << 47) + 64,
        )
        loaded = self._roundtrip(Trace("big", [inst]), tmp_path)
        assert loaded[0] == inst
