"""Columnar traces.

A :class:`Trace` is five ``array`` columns; ``Instruction`` is a view
that round-trips, the column-native helpers agree with it, and the EPTR
file IO packs and unpacks whole columns.
"""

from repro.workloads.generators import WorkloadSpec, make_workload
from repro.workloads.trace import (
    BranchType,
    Instruction,
    Trace,
    read_trace,
    write_trace,
)
from tests.test_trace_identity import trace_digest

SPEC = WorkloadSpec(name="tc_srv", category="srv", seed=62, n_instructions=6_000)


class TestColumns:
    def _instructions(self):
        return [
            Instruction(pc=0x400000),
            Instruction(pc=0x400004, is_load=True, data_addr=0x1000_0008),
            Instruction(
                pc=0x400008, branch_type=BranchType.CONDITIONAL, taken=True,
                target=0x400000,
            ),
            Instruction(pc=0x400000, size=2, is_store=True, data_addr=0x2000),
            Instruction(
                pc=0x400002, branch_type=BranchType.RETURN, taken=True,
                target=0x500040,
            ),
            Instruction(
                pc=0x500040, branch_type=BranchType.CONDITIONAL, taken=False,
                target=0x500000,
            ),
        ]

    def test_instruction_view_round_trips(self):
        insts = self._instructions()
        trace = Trace("t", insts, "int")
        columns = Trace.from_columns("t", "int", trace.columns())
        assert list(columns) == insts
        assert columns.instructions == insts
        assert columns[2] == insts[2] and columns[-1] == insts[-1]
        assert columns.instructions is columns.instructions

    def test_helpers_read_the_columns(self):
        insts = self._instructions()
        trace = Trace.from_columns("t", "int", Trace("t", insts).columns())
        assert trace.branch_count() == sum(i.is_branch for i in insts)
        assert trace.taken_branch_count() == sum(i.taken for i in insts)
        assert trace.branch_fraction() == 3 / 6
        assert trace.footprint_lines() == len({i.pc // 64 for i in insts})
        assert trace._instructions is None  # nothing was materialized

    def test_slice_and_extend(self):
        insts = self._instructions()
        trace = Trace("t", insts, "fp")
        head = trace[:4]
        assert (head.name, head.category, head.instructions) == (
            "t", "fp", insts[:4],
        )
        head.extend(trace[4:])
        assert head == trace

    def test_generated_trace_round_trips_through_a_file(self, tmp_path):
        trace = make_workload(SPEC)
        path = str(tmp_path / "t.trc")
        write_trace(trace, path)
        back = read_trace(path)
        assert back == trace and back.salvage is None
        assert trace_digest(back) == trace_digest(trace)

    def test_truncated_file_spec_is_a_column_slice(self, tmp_path):
        trace = make_workload(SPEC)
        path = str(tmp_path / "t.trc")
        write_trace(trace, path)
        spec = WorkloadSpec(
            name="tc_file", category="srv", seed=0, n_instructions=1_000,
            trace_file=path,
        )
        cut = make_workload(spec)
        assert (cut.name, cut.category) == ("tc_file", "srv")
        assert cut.instructions == trace.instructions[:1_000]
