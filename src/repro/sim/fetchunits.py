"""Trace preprocessing into fetch units.

The predict stage of the decoupled front end works at the granularity of
*fetch units*: maximal runs of consecutive instructions that stay on one
cache line and contain at most one branch (which, if present, terminates
the unit).  Preprocessing the trace once into fetch units makes the
cycle-level simulation independent of raw instruction count hot-loop work
and lets every prefetcher configuration reuse the same preprocessed units.

The units of one trace and line size are one :class:`FetchUnits` value,
a struct of ``array`` columns indexed by unit:

* ``line_addr`` (``Q``): the unit's instruction-cache line;
* ``n_instrs`` (``H``; ``I`` if a unit is longer than 65,535
  instructions): its instruction count;
* ``branch`` (``i``): the trace index of its terminating branch, or -1.
  The branch's pc, type, outcome and target stay in the trace's columns;
* ``data`` (``Q``) and ``data_start`` (``I``, one entry more than there
  are units): the data lines of the unit's loads and stores in program
  order, each packed as ``line << 1 | is_store``; unit ``i``'s are
  ``data[data_start[i]:data_start[i + 1]]``.

The engines read the columns by unit index.  ``units[i]`` builds a
:class:`FetchUnit` view of one unit when it is read, for tests and
tools; no simulation loop builds one.  A :class:`FetchUnits` also holds
the front-end plans built from it (:mod:`repro.sim.stages.plan`, one per
plan key), so a memoized plan lives exactly as long as its units.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterator, Optional, Tuple

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

#: ``(pc, branch_type, taken, target)`` of a unit's terminating branch.
Branch = Tuple[int, BranchType, bool, int]

#: ``flags`` byte -> the ``(branch_type, taken)`` it encodes.
BRANCH_FIELDS: Tuple[Tuple[Optional[BranchType], bool], ...] = tuple(
    (BRANCH_TYPES.get(flags & TYPE_MASK), bool(flags & FLAG_TAKEN))
    for flags in range(256)
)


class FetchUnit:
    """A view of one line-visit of the front end.

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
        branch: Optional[Branch],
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


class FetchUnits:
    """The fetch units of one trace and line size, as columns (see the
    module docstring); ``plans`` maps a plan key to its front-end plan."""

    __slots__ = (
        "trace", "line_addr", "n_instrs", "branch", "data", "data_start",
        "plans",
    )

    def __init__(
        self,
        trace: Trace,
        line_addr: "array[int]",
        n_instrs: "array[int]",
        branch: "array[int]",
        data: "array[int]",
        data_start: "array[int]",
    ) -> None:
        self.trace = trace
        self.line_addr = line_addr
        self.n_instrs = n_instrs
        self.branch = branch
        self.data = data
        self.data_start = data_start
        self.plans: Dict[Tuple[Any, ...], Any] = {}

    def __len__(self) -> int:
        return len(self.line_addr)

    def __getitem__(self, index: int) -> FetchUnit:
        index = range(len(self.line_addr))[index]
        return FetchUnit(
            self.line_addr[index], self.n_instrs[index],
            self.branch_of(index), self.data_lines(index),
        )

    def __iter__(self) -> Iterator[FetchUnit]:
        return map(self.__getitem__, range(len(self.line_addr)))

    def branch_of(self, index: int) -> Optional[Branch]:
        """``(pc, branch_type, taken, target)`` of unit ``index``'s
        terminating branch, read from the trace; None if it has none."""
        at = self.branch[index]
        if at < 0:
            return None
        trace = self.trace
        branch_type, taken = BRANCH_FIELDS[trace.flags[at]]
        return (trace.pc[at], branch_type, taken, trace.target[at])

    def data_lines(self, index: int) -> Tuple[Tuple[int, bool], ...]:
        """``(line, is_store)`` of unit ``index``'s loads and stores."""
        start = self.data_start
        return tuple(
            (packed >> 1, bool(packed & 1))
            for packed in self.data[start[index]:start[index + 1]]
        )


def build_fetch_units(trace: Trace, line_size: int = 64) -> FetchUnits:
    """Split a trace into fetch units, reading the trace's columns."""
    try:
        return _build(trace, line_size, "H")
    except OverflowError:  # a unit of more than 65,535 instructions
        return _build(trace, line_size, "I")


def _build(trace: Trace, line_size: int, count_type: str) -> FetchUnits:
    line_col = array("Q")
    count_col = array(count_type)
    branch_col = array("i")
    data = array("Q")
    data_start = array("I", [0])
    add_line = line_col.append
    add_count = count_col.append
    add_branch = branch_col.append
    add_data = data.append
    add_start = data_start.append
    current_line: Optional[int] = None
    count = 0
    done = 0  # instructions in the units closed so far
    for pc, flags, data_addr in zip(trace.pc, trace.flags, trace.data_addr):
        line = pc // line_size
        if line != current_line:
            if count:
                add_line(current_line)
                add_count(count)
                add_branch(-1)
                add_start(len(data))
                done += count
                count = 0
            current_line = line
        count += 1
        if flags & _MEMORY:
            add_data((data_addr // line_size) << 1 | (flags & FLAG_STORE) // FLAG_STORE)
        if flags & TYPE_MASK:
            add_line(current_line)
            add_count(count)
            done += count
            add_branch(done - 1)
            add_start(len(data))
            count = 0
            current_line = None
    if count:
        add_line(current_line)
        add_count(count)
        add_branch(-1)
        add_start(len(data))
    return FetchUnits(trace, line_col, count_col, branch_col, data, data_start)


def units_instruction_count(units: FetchUnits) -> int:
    return sum(units.n_instrs)
