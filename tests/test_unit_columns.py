"""The columnar fetch units and the flat front-end plan (hypothesis).

``build_fetch_units`` fills one :class:`~repro.sim.fetchunits.FetchUnits`
value of ``array`` columns, and ``build_plan`` walks those columns into a
plan whose L1D misses are one flat array plus offsets.  These tests check
both against small oracles kept here: a per-instruction split over
``Instruction`` records (the unit semantics of the list-of-objects
builder the columns replaced) and a per-unit walk of the reference L1D.
Reference and staged engines must also agree on generated traces, with
and without physical addresses (the guarded stages read the columns as
well).  The memory test pins the point of the columns: a trace's units
take a fraction of what the ``FetchUnit`` objects took.
"""

import dataclasses
import gc
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import repro.analysis.experiments as experiments
from repro.prefetchers import make_prefetcher
from repro.sim.cache import SetAssociativeCache
from repro.sim.config import SimConfig
from repro.sim.fetchunits import build_fetch_units, units_instruction_count
from repro.sim.simulator import simulate
from repro.sim.stages.plan import build_plan
from repro.workloads.generators import WorkloadSpec
from repro.workloads.trace import BranchType, Instruction, Trace

LINE_SIZES = (32, 64, 128)

_SETTINGS = settings(
    max_examples=30, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _inst(pc, kind=BranchType.NOT_BRANCH, taken=False, target=0, mem=None, data=0):
    return Instruction(
        pc=pc, branch_type=kind, taken=taken, target=target,
        is_load=mem in ("load", "both"), is_store=mem in ("store", "both"),
        data_addr=data,
    )


#: Hand-picked edge cases, each also run through every property below.
EDGE_TRACES = {
    "empty": Trace("empty", []),
    # Ends two instructions into its second line.
    "ends_mid_line": Trace(
        "mid", [_inst(0x1000 + 4 * i) for i in range(18)]
    ),
    # The last instruction is a (taken) branch.
    "branch_last": Trace("last", [
        _inst(0x2000), _inst(0x2004),
        _inst(0x2008, BranchType.DIRECT_JUMP, True, 0x2000),
    ]),
    # Loads and stores on branches, one of each kind, and a taken branch
    # into its own line.
    "memory_on_branches": Trace("mem", [
        _inst(0x3000, mem="load", data=0x9000),
        _inst(0x3004, BranchType.CONDITIONAL, True, 0x3010, "store", 0x9040),
        _inst(0x3010, BranchType.DIRECT_CALL, True, 0x4000, "both", 0x9000),
        _inst(0x4000, BranchType.RETURN, True, 0x3014, "load", 0xA000),
        _inst(0x3014, BranchType.INDIRECT_JUMP, True, 0x5000),
        _inst(0x5000, BranchType.INDIRECT_CALL, True, 0x3000, "load", 0x9000),
    ]),
}


@st.composite
def traces(draw, max_len=80):
    """Short traces that revisit a few lines: mixed sizes, every branch
    type, loads and stores (also on branches) over a few data lines."""
    n = draw(st.integers(0, max_len))
    pc = draw(st.integers(0, 64)) * 4
    records = []
    for _ in range(n):
        kind = draw(st.sampled_from(BranchType))
        taken = kind != BranchType.NOT_BRANCH and (
            kind != BranchType.CONDITIONAL or draw(st.booleans())
        )
        target = draw(st.integers(0, 255)) * 4 if kind else 0
        mem = draw(st.sampled_from([None, None, "load", "store", "both"]))
        data = draw(st.integers(0, 1 << 12)) if mem else 0
        records.append(_inst(pc, kind, taken, target, mem, data))
        pc = target if taken else pc + draw(st.sampled_from([2, 4, 4, 8]))
    return Trace("gen", records)


def _oracle_units(trace, line_size):
    """Per instruction: ``(line, n_instrs, branch index, branch, data
    lines)`` of each unit, split the way the list-of-objects builder did."""
    units = []
    line = None
    count = 0
    data = []
    for index, inst in enumerate(trace):
        if inst.pc // line_size != line:
            if count:
                units.append((line, count, -1, None, tuple(data)))
            line, count, data = inst.pc // line_size, 0, []
        count += 1
        if inst.is_load or inst.is_store:
            data.append((inst.data_addr // line_size, inst.is_store))
        if inst.is_branch:
            branch = (inst.pc, inst.branch_type, inst.taken, inst.target)
            units.append((line, count, index, branch, tuple(data)))
            line, count, data = None, 0, []
    if count:
        units.append((line, count, -1, None, tuple(data)))
    return units


def _columns(units):
    return [
        (units.line_addr[i], units.n_instrs[i], units.branch[i],
         units.branch_of(i), units.data_lines(i))
        for i in range(len(units))
    ]


def _oracle_plan(units, config):
    """Per-unit walk of the reference L1D: each unit's ordered miss lines
    and the cumulative (reads, writes) before each unit."""
    l1d = SetAssociativeCache(config.l1d_sets, config.l1d_ways)
    misses, reads, writes = [], [0], [0]
    for unit in units:
        missed = []
        r, w = reads[-1], writes[-1]
        for line, is_store in unit.data_lines:
            if is_store:
                w += 1
            else:
                r += 1
            if l1d.lookup(line) is None:
                l1d.insert(line)
                w += 1
                missed.append(line)
        misses.append(tuple(missed))
        reads.append(r)
        writes.append(w)
    return misses, reads, writes


def _small_l1d(line_size):
    """Two sets of two ways, so that short traces evict."""
    return SimConfig(line_size=line_size, l1d_size=4 * line_size, l1d_ways=2)


def _with_edges(**fixed):
    """Run every edge-case trace as an explicit example."""
    def decorate(test):
        for trace in EDGE_TRACES.values():
            test = example(trace=trace, **fixed)(test)
        return test

    return decorate


@pytest.mark.parametrize("line_size", LINE_SIZES)
class TestColumns:
    @_SETTINGS
    @_with_edges()
    @given(trace=traces())
    def test_columns_equal_the_per_instruction_split(self, line_size, trace):
        units = build_fetch_units(trace, line_size)
        assert _columns(units) == _oracle_units(trace, line_size)
        assert units_instruction_count(units) == len(trace)
        assert len(units.data_start) == len(units) + 1
        assert [
            (u.line_addr, u.n_instrs, u.branch, u.data_lines) for u in units
        ] == [(o[0], o[1], o[3], o[4]) for o in _oracle_units(trace, line_size)]

    @_SETTINGS
    @_with_edges()
    @given(trace=traces())
    def test_flat_plan_equals_a_per_unit_l1d_walk(self, line_size, trace):
        units = build_fetch_units(trace, line_size)
        config = _small_l1d(line_size)
        plan = build_plan(units, config)
        misses, reads, writes = _oracle_plan(units, config)
        start = plan.miss_start
        assert len(start) == len(units) + 1
        assert [
            tuple(plan.misses[start[i]:start[i + 1]]) for i in range(len(units))
        ] == misses
        assert list(plan.l1d_reads) == reads
        assert list(plan.l1d_writes) == writes
        assert len(plan.verdict) == len(units)


def test_a_unit_longer_than_a_short_gets_a_wider_count_column():
    trace = Trace("long", [_inst(0x1000)] * 70_000)
    units = build_fetch_units(trace)
    assert list(units.n_instrs) == [70_000]
    assert units.n_instrs.typecode == "I"
    assert build_fetch_units(trace[:10]).n_instrs.typecode == "H"


@pytest.fixture(autouse=True)
def _no_env_backend(monkeypatch):
    """Each run below names its engine; an outer REPRO_BACKEND must not."""
    monkeypatch.delenv("REPRO_BACKEND", raising=False)


@pytest.mark.parametrize("physical", [False, True], ids=["virtual", "physical"])
@_SETTINGS
@_with_edges(line_size=32, prefetcher="rdip", warmup=1)
@given(
    trace=traces(max_len=160),
    line_size=st.sampled_from(LINE_SIZES),
    prefetcher=st.sampled_from(["no", "next_line", "entangling_4k", "rdip"]),
    warmup=st.sampled_from([0, 20]),
)
def test_reference_equals_staged(physical, trace, line_size, prefetcher, warmup):
    config = dataclasses.replace(
        _small_l1d(line_size), physical_addresses=physical
    )
    signatures = [
        simulate(
            trace, make_prefetcher(prefetcher),
            config=dataclasses.replace(config, backend=backend),
            warmup_instructions=warmup,
        ).stats.signature()
        for backend in ("reference", "staged")
    ]
    assert signatures[0] == signatures[1]


OBJECT_UNITS_BYTES = 1_688_320

MEMORY_SPEC = WorkloadSpec(
    name="unit_memory_srv", category="srv", seed=7, n_instructions=30_000
)


def test_memoized_units_take_a_quarter_of_the_object_units():
    """``tracemalloc`` bytes of ``_cached_units`` for ``MEMORY_SPEC``
    (3,614 units), its trace already memoized, stay at most a quarter of
    what they were when the units were a list of ``FetchUnit`` objects:
    1,688,320 B (``OBJECT_UNITS_BYTES``), measured the same way on
    CPython 3.11.  The columns take about 145,000 B."""
    experiments._cached_workload(MEMORY_SPEC)  # the trace is not counted
    experiments._units_memo.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        units = experiments._cached_units(MEMORY_SPEC, 64)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(units) == 3_614
    assert held <= OBJECT_UNITS_BYTES // 4, held
