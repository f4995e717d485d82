"""The front-end plan: what the branch predictors and the L1D decide for
each fetch unit, computed once per trace.

The staged core's streak loops read this plan instead of running gshare,
the BTB, the ITC, the RAS and the L1D themselves.  In this trace-driven
model both outcomes are functions of the trace alone:

* the predict stage hands each unit's branch to the predictors exactly
  once, in trace order (an MSHR-full retry returns before the branch is
  handled), so no predictor state depends on timing;
* the L1D is private to the retire stage and units retire in trace order,
  so its LRU state depends on the data stream alone.

Only the L1D misses reach the shared L2/LLC, where they interleave with
instruction traffic; that walk stays live in the loops.  The redirect
penalties are applied in the loops too (a penalty of 0 still counts the
mispredict or BTB redirect, but blocks nothing), so they are not part of
:data:`PLAN_FIELDS`.  The line size comes with the units.
"""

from __future__ import annotations

from array import array
from typing import Any, Tuple

from repro.sim.branch_predictor import make_direction_predictor
from repro.sim.btb import BranchTargetBuffer
from repro.sim.fetchunits import BRANCH_FIELDS, FetchUnits
from repro.sim.indirect import IndirectTargetCache
from repro.sim.ras import ReturnAddressStack
from repro.workloads.trace import BranchType

__all__ = [
    "PLAN_FIELDS",
    "NO_BRANCH",
    "PREDICTED",
    "EXEC_REDIRECT",
    "DECODE_REDIRECT",
    "FrontEndPlan",
    "front_end_plan",
    "build_plan",
    "branch_verdict",
]

#: The ``SimConfig`` fields a plan depends on: its memo key.
PLAN_FIELDS = (
    "branch_predictor", "gshare_bits", "gshare_history", "btb_sets",
    "btb_ways", "ras_size", "itc_bits", "itc_history", "l1d_sets", "l1d_ways",
)

#: Per-unit branch verdicts (``FrontEndPlan.verdict``).
NO_BRANCH, PREDICTED, EXEC_REDIRECT, DECODE_REDIRECT = range(4)

#: Plans kept per set of memoized units, oldest dropped first.
_PLANS_PER_UNITS = 8

_CONDITIONAL = BranchType.CONDITIONAL
_DIRECT_JUMP = BranchType.DIRECT_JUMP
_DIRECT_CALL = BranchType.DIRECT_CALL
_INDIRECT_JUMP = BranchType.INDIRECT_JUMP
_INDIRECT_CALL = BranchType.INDIRECT_CALL
_RETURN = BranchType.RETURN


class FrontEndPlan:
    """Branch verdicts and L1D traffic of every fetch unit.

    Attributes:
        verdict: one byte per unit — :data:`NO_BRANCH`,
            :data:`PREDICTED`, :data:`EXEC_REDIRECT` (direction, indirect
            or return mispredict) or :data:`DECODE_REDIRECT` (BTB miss on
            a taken branch).
        l1d_reads / l1d_writes: cumulative L1D loads, and stores plus
            fills, of the units before each index (``n + 1`` entries).
        misses / miss_start: the L1D-miss lines that go on to L2, in
            order, as one flat array; unit ``i``'s are
            ``misses[miss_start[i]:miss_start[i + 1]]``.
    """

    __slots__ = (
        "verdict", "l1d_reads", "l1d_writes", "misses", "miss_start",
        "__weakref__",
    )

    def __init__(
        self,
        verdict: bytes,
        l1d_reads: "array[int]",
        l1d_writes: "array[int]",
        misses: "array[int]",
        miss_start: "array[int]",
    ) -> None:
        self.verdict = verdict
        self.l1d_reads = l1d_reads
        self.l1d_writes = l1d_writes
        self.misses = misses
        self.miss_start = miss_start

    def branch_counts(self, start: int, stop: int) -> Tuple[int, int, int]:
        """(branches, mispredictions, BTB redirects) of units [start, stop)."""
        verdict = self.verdict
        return (
            stop - start - verdict.count(NO_BRANCH, start, stop),
            verdict.count(EXEC_REDIRECT, start, stop),
            verdict.count(DECODE_REDIRECT, start, stop),
        )

    def l1d_counts(self, start: int, stop: int) -> Tuple[int, int]:
        """(L1D reads, L1D writes) of units [start, stop)."""
        return (
            self.l1d_reads[stop] - self.l1d_reads[start],
            self.l1d_writes[stop] - self.l1d_writes[start],
        )


def front_end_plan(units: FetchUnits, config: Any) -> FrontEndPlan:
    """The plan of ``units`` under ``config``, memoized on the units
    (at most :data:`_PLANS_PER_UNITS` of them, oldest dropped first)."""
    plans = units.plans
    key = tuple(getattr(config, name) for name in PLAN_FIELDS)
    plan = plans.get(key)
    if plan is None:
        if len(plans) >= _PLANS_PER_UNITS:
            del plans[next(iter(plans))]
        plan = plans[key] = build_plan(units, config)
    return plan


def build_plan(units: FetchUnits, config: Any) -> FrontEndPlan:
    """Run fresh predictors and a fresh L1D over ``units`` in trace order.

    Same decisions, in the same order, as the guarded stages make with
    :func:`branch_verdict` and ``retire.finish_block``.  The predictors
    and the L1D share no state, so each is one pass over its columns.
    """
    l1d_nsets = config.l1d_sets
    l1d_ways = config.l1d_ways
    l1d_sets = [dict() for _ in range(l1d_nsets)]
    data = units.data
    reads = array("I", [0])
    writes = array("I", [0])
    misses = array("Q")
    miss_start = array("I", [0])
    add_read = reads.append
    add_write = writes.append
    add_miss = misses.append
    add_start = miss_start.append
    n_reads = 0
    n_writes = 0
    n_missed = 0
    lo = 0
    for hi in units.data_start[1:]:
        if hi != lo:
            for packed in data[lo:hi]:
                data_line = packed >> 1
                if packed & 1:
                    n_writes += 1
                else:
                    n_reads += 1
                data_set = l1d_sets[data_line % l1d_nsets]
                if data_line in data_set:
                    del data_set[data_line]
                else:
                    if len(data_set) >= l1d_ways:
                        del data_set[next(iter(data_set))]
                    n_writes += 1
                    n_missed += 1
                    add_miss(data_line)
                data_set[data_line] = True
            lo = hi
        add_read(n_reads)
        add_write(n_writes)
        add_start(n_missed)

    gshare = make_direction_predictor(
        config.branch_predictor, config.gshare_bits, config.gshare_history
    )
    btb = BranchTargetBuffer(config.btb_sets, config.btb_ways)
    itc = IndirectTargetCache(config.itc_bits, config.itc_history)
    ras = ReturnAddressStack(config.ras_size)
    verdict = bytearray(len(units))
    trace = units.trace
    pcs = trace.pc
    flags = trace.flags
    targets = trace.target
    for idx, at in enumerate(units.branch):
        if at >= 0:
            # FetchUnits.branch_of, inlined.
            branch_type, taken = BRANCH_FIELDS[flags[at]]
            branch = (pcs[at], branch_type, taken, targets[at])
            verdict[idx] = branch_verdict(branch, gshare, btb, itc, ras)
    return FrontEndPlan(bytes(verdict), reads, writes, misses, miss_start)


def branch_verdict(branch: Any, gshare: Any, btb: Any, itc: Any, ras: Any) -> int:
    """Predict one ``(pc, branch_type, taken, target)`` branch with the
    given structures, train them, and return its verdict."""
    pc, branch_type, taken, target = branch
    outcome = PREDICTED
    if branch_type == _CONDITIONAL:
        predicted_taken = gshare.predict(pc)
        gshare.update(pc, taken)
        if predicted_taken != taken:
            outcome = EXEC_REDIRECT
        elif taken:
            if btb.lookup(pc) is None:
                outcome = DECODE_REDIRECT
            btb.update(pc, target)
    elif branch_type == _DIRECT_JUMP or branch_type == _DIRECT_CALL:
        if btb.lookup(pc) is None:
            outcome = DECODE_REDIRECT
        btb.update(pc, target)
    elif branch_type == _INDIRECT_JUMP or branch_type == _INDIRECT_CALL:
        if itc.predict(pc) != target:
            outcome = EXEC_REDIRECT
        itc.update(pc, target)
    elif branch_type == _RETURN:
        if ras.pop() != target:
            outcome = EXEC_REDIRECT
    if branch_type == _DIRECT_CALL or branch_type == _INDIRECT_CALL:
        ras.push(pc + 4)
    return outcome
