"""Trace preprocessing into fetch units.

The predict stage of the decoupled front end works at the granularity of
*fetch units*: maximal runs of consecutive instructions that stay on one
cache line and contain at most one branch (which, if present, terminates
the unit).  Preprocessing the trace once into fetch units makes the
cycle-level simulation independent of raw instruction count hot-loop work
and lets every prefetcher configuration reuse the same preprocessed list.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.workloads.trace import (
    BRANCH_TYPES,
    FLAG_LOAD,
    FLAG_STORE,
    FLAG_TAKEN,
    TYPE_MASK,
    BranchType,
    Trace,
)

_MEMORY = FLAG_LOAD | FLAG_STORE


class FetchUnit:
    """One line-visit of the front end.

    Attributes:
        line_addr: instruction-cache line (virtual byte address >> 6).
        n_instrs: instructions in the unit (>= 1).
        branch: ``(pc, branch_type, taken, target)`` of the terminating
            branch, or None when the unit ends at a line boundary.
        data_lines: data-cache line addresses touched by the unit's loads
            and stores, each tagged with ``is_store``.
    """

    __slots__ = ("line_addr", "n_instrs", "branch", "data_lines")

    def __init__(
        self,
        line_addr: int,
        n_instrs: int,
        branch: Optional[Tuple[int, BranchType, bool, int]],
        data_lines: Tuple[Tuple[int, bool], ...],
    ) -> None:
        self.line_addr = line_addr
        self.n_instrs = n_instrs
        self.branch = branch
        self.data_lines = data_lines

    def __repr__(self) -> str:
        return (
            f"FetchUnit(line=0x{self.line_addr:x}, n={self.n_instrs}, "
            f"branch={self.branch is not None})"
        )


class PlannedUnits(tuple):
    """Fetch units that also hold the front-end plans built from them
    (:mod:`repro.sim.stages.plan`, one per plan key), so a memoized plan
    lives exactly as long as its memoized units."""

    def __new__(cls, units: Sequence[FetchUnit]) -> "PlannedUnits":
        self = super().__new__(cls, units)
        self.plans: Dict[Tuple[Any, ...], Any] = {}
        return self


def build_fetch_units(trace: Trace, line_size: int = 64) -> List[FetchUnit]:
    """Split a trace into fetch units (see :class:`FetchUnit`), reading
    the trace's columns."""
    units: List[FetchUnit] = []
    append = units.append
    current_line: Optional[int] = None
    count = 0
    data: List[Tuple[int, bool]] = []
    for pc, flags, target, data_addr in zip(
        trace.pc, trace.flags, trace.target, trace.data_addr
    ):
        line = pc // line_size
        if line != current_line:
            if count:
                append(FetchUnit(current_line, count, None, tuple(data)))
                count = 0
                data = []
            current_line = line
        count += 1
        if flags & _MEMORY:
            data.append((data_addr // line_size, bool(flags & FLAG_STORE)))
        if flags & TYPE_MASK:
            branch = (
                pc, BRANCH_TYPES[flags & TYPE_MASK], bool(flags & FLAG_TAKEN),
                target,
            )
            append(FetchUnit(current_line, count, branch, tuple(data)))
            count = 0
            data = []
            current_line = None
    if count:
        append(FetchUnit(current_line, count, None, tuple(data)))
    return units


def units_instruction_count(units: List[FetchUnit]) -> int:
    return sum(u.n_instrs for u in units)
