"""Tests for trace preprocessing into fetch units."""

from repro.sim.fetchunits import build_fetch_units, units_instruction_count
from repro.workloads.trace import BranchType, Instruction, Trace, trace_from_pcs


class TestUnitSplitting:
    def test_one_line_sequential(self):
        trace = trace_from_pcs("t", [0x1000 + 4 * i for i in range(16)])
        units = build_fetch_units(trace)
        assert len(units) == 1
        assert units[0].n_instrs == 16
        assert units[0].branch is None
        assert units[0].line_addr == 0x1000 // 64

    def test_line_boundary_splits(self):
        trace = trace_from_pcs("t", [0x1000 + 4 * i for i in range(32)])
        units = build_fetch_units(trace)
        assert len(units) == 2
        assert [u.line_addr for u in units] == [0x40, 0x41]

    def test_branch_splits_unit(self):
        insts = [
            Instruction(pc=0x1000),
            Instruction(
                pc=0x1004,
                branch_type=BranchType.CONDITIONAL,
                taken=False,
                target=0x2000,
            ),
            Instruction(pc=0x1008),
        ]
        units = build_fetch_units(Trace("t", insts))
        assert len(units) == 2
        assert units[0].n_instrs == 2
        assert units[0].branch is not None
        assert units[0].branch[1] == BranchType.CONDITIONAL
        assert units[1].branch is None

    def test_taken_branch_to_same_line_creates_new_unit(self):
        insts = [
            Instruction(
                pc=0x1000,
                branch_type=BranchType.DIRECT_JUMP,
                taken=True,
                target=0x1010,
            ),
            Instruction(pc=0x1010),
        ]
        units = build_fetch_units(Trace("t", insts))
        assert len(units) == 2
        assert units[0].line_addr == units[1].line_addr

    def test_instruction_count_preserved(self, small_srv_trace):
        units = build_fetch_units(small_srv_trace)
        assert units_instruction_count(units) == len(small_srv_trace)

    def test_every_unit_has_at_least_one_instruction(self, small_srv_trace):
        units = build_fetch_units(small_srv_trace)
        assert all(u.n_instrs >= 1 for u in units)

    def test_branch_is_last_instruction_of_unit(self, small_srv_trace):
        """Units never contain instructions after their branch."""
        units = build_fetch_units(small_srv_trace)
        idx = 0
        insts = small_srv_trace.instructions
        for unit in units:
            last = insts[idx + unit.n_instrs - 1]
            if unit.branch is not None:
                assert last.pc == unit.branch[0]
            idx += unit.n_instrs

    def test_empty_trace(self):
        assert len(build_fetch_units(Trace("t", []))) == 0


class TestDataLines:
    def test_loads_recorded(self):
        insts = [
            Instruction(pc=0x1000, is_load=True, data_addr=0x8000),
            Instruction(pc=0x1004, is_store=True, data_addr=0x9000),
        ]
        units = build_fetch_units(Trace("t", insts))
        assert units[0].data_lines == ((0x8000 // 64, False), (0x9000 // 64, True))

    def test_non_memory_instructions_record_nothing(self):
        insts = [Instruction(pc=0x1000), Instruction(pc=0x1004)]
        units = build_fetch_units(Trace("t", insts))
        assert units[0].data_lines == ()
