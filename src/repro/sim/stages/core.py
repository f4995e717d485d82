"""The staged, batch-oriented simulator core (``backend="staged"``).

Same architecture model, different engine.  The reference
:class:`~repro.sim.simulator.Simulator` dispatches four bound methods per
cycle over per-object structures; this core:

* uses the dict-ordered caches of :mod:`repro.sim.stages.state` (O(1)
  eviction instead of a ``min()`` scan per insertion — the reference's
  single hottest operation);
* runs unobserved, virtually addressed, non-ideal simulations through
  one monolithic **streak loop** (:meth:`StagedSimulator._run_active`,
  also bound as ``_run_passive``) with every structure hoisted into
  locals and counters accumulated out-of-band.  It reads each unit's
  branch verdict and L1D traffic from the trace's
  :class:`~repro.sim.stages.plan.FrontEndPlan` instead of running the
  predictors and the L1D, its FTQ slots are unit indices, and it skips
  the prefetcher hooks that are inherited no-ops;
* runs every other simulation through a guarded **per-cycle stage
  loop** over live predictors, a live L1D and an FTQ of parallel arrays
  (``fq_line`` / ``fq_remaining`` / ``fq_ready`` / ``fq_penalty`` /
  ``fq_unit`` plus a ``fq_head`` cursor).  Each stage call is guarded by
  a cheap precondition (fill heap peeked, PQ non-empty, predict
  unblocked, FTQ head ready) that is exact — a skipped call is one that
  would have returned without side effects — and idle spans jump
  straight to the next event supplied by the MSHR's fill heap.

Bit-identity with the reference is the contract (enforced across every
workload family x config by ``tests/test_backends.py``): every
architectural counter, including per-cache read/write counts, matches
exactly.  Only :class:`~repro.sim.stats.SimStats` is the contract: a
streak run never builds the live predictors and L1D (the guarded loop
builds them when it starts).
Observability keeps working: a ``tracer`` sees the identical event
stream (the guarded stage path emits at the same points), a ``profiler``
gets all four ``SIM_PHASES`` registered with per-call timings of the
non-skipped calls, and a ``checker`` gets the same ``attach`` /
``check_fill`` / ``final_check`` hooks on either path (the facade exposes
``l1i`` / ``mshr`` / ``pq`` / ``stats`` / ``cycle`` like the reference).
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, List, Optional

from repro.prefetchers.base import FillInfo, InstructionPrefetcher
from repro.sim.branch_predictor import make_direction_predictor
from repro.sim.btb import BranchTargetBuffer
from repro.sim.config import SimConfig
from repro.sim.fetchunits import BRANCH_FIELDS, FetchUnits, build_fetch_units
from repro.sim.indirect import IndirectTargetCache
from repro.sim.memory import PageMapper
from repro.sim.mshr import MshrFile
from repro.sim.prefetch_queue import PrefetchQueue
from repro.sim.ras import ReturnAddressStack
from repro.sim.stats import SimStats
from repro.workloads.trace import Trace

from repro.sim.stages.state import FastCache, FastHierarchy, FastMetaCache
from repro.sim.stages.fills import run_fills
from repro.sim.stages.predict import run_predict
from repro.sim.stages.issue import collect, run_issue
from repro.sim.stages.plan import FrontEndPlan, front_end_plan
from repro.sim.stages.retire import run_retire

__all__ = ["StagedSimulator"]

#: Compact the guarded path's FTQ arrays once the consumed prefix exceeds
#: this length.  MSHR waiters and the blocked-branch marker hold absolute
#: indices, so compaction only runs when neither is outstanding.
_COMPACT_THRESHOLD = 1 << 16


def _own_hook(prefetcher: Any, name: str) -> Optional[Any]:
    """The prefetcher's bound hook ``name``, or None when it is the
    inherited no-op.  An instance-level wrapper always counts as its own."""
    hook = getattr(prefetcher, name)
    if getattr(hook, "__func__", None) is getattr(InstructionPrefetcher, name):
        return None
    return hook


class StagedSimulator:
    """Drives one trace through the staged front-end core."""

    backend_name = "staged"

    def __init__(
        self,
        trace: Trace,
        prefetcher: Any,
        config: Optional[SimConfig] = None,
        units: Optional[FetchUnits] = None,
        tracer: Optional[Any] = None,
        profiler: Optional[Any] = None,
        checker: Optional[Any] = None,
    ) -> None:
        self.config = config or SimConfig()
        self.trace = trace
        self.prefetcher = prefetcher
        self.tracer = tracer
        self.profiler = profiler
        self.checker = checker
        self.units: FetchUnits = (
            units if units is not None else build_fetch_units(trace, self.config.line_size)
        )
        self.stats = SimStats()
        self.l1i = FastMetaCache(
            self.config.l1i_sets,
            self.config.l1i_ways,
            replacement=self.config.l1i_replacement,
        )
        self.mshr = MshrFile(self.config.l1i_mshrs)
        self.pq = PrefetchQueue(self.config.prefetch_queue_size)
        self.memory = FastHierarchy(self.config, self.stats)
        self.mapper: Optional[PageMapper] = None
        if self.config.physical_addresses:
            self.mapper = PageMapper(
                self.config.physical_page_seed,
                self.config.page_size,
                self.config.line_size,
            )

        self.cycle = 0
        # The guarded path's FTQ: parallel lists plus a consumed-head
        # cursor.  The streak loop uses unit indices as FTQ slots instead
        # (``fq_head`` is then the head unit).
        self.fq_line: List[int] = []
        self.fq_remaining: List[int] = []
        self.fq_ready: List[Optional[int]] = []
        self.fq_penalty: List[int] = []
        self.fq_unit: List[int] = []
        self.fq_head = 0
        self._waiting: Dict[int, List[int]] = {}
        self._pred_idx = 0
        self._pred_stall_until = 0
        self._pred_blocked_idx: Optional[int] = None
        self._retired = 0
        self._refresh_counter_refs()
        if checker is not None:
            checker.attach(self)

    def _refresh_counter_refs(self) -> None:
        """Re-bind per-cache counter objects (``stats.reset`` replaces them)."""
        self._l1i_counts = self.stats.cache_accesses["L1I"]
        self._l1d_counts = self.stats.cache_accesses["L1D"]

    # -- main loop -----------------------------------------------------------

    def run(self, warmup_instructions: int = 0) -> SimStats:
        """Simulate the whole trace; returns the (post-warmup) statistics."""
        started = time.perf_counter()
        if (
            self.tracer is None
            and self.profiler is None
            and self.mapper is None
            and not self.prefetcher.is_ideal
        ):
            self._run_streaks(warmup_instructions)
        else:
            self._run_guarded(warmup_instructions)
        stats = self.stats
        stats.cycles = self.cycle - self._measure_start_cycle
        stats.instructions = self._retired - self._measure_start_retired
        stats.wall_seconds = time.perf_counter() - started
        if self.profiler is not None:
            stats.phase_seconds = self.profiler.snapshot()
        if self.checker is not None:
            self.checker.final_check(self)
        return stats

    _measure_start_cycle = 0
    _measure_start_retired = 0

    def _reset_stats_for_measurement(self, start_cycle: int) -> None:
        """End of warm-up: zero the counters, keep all structures warm."""
        self.stats.reset()
        self._refresh_counter_refs()
        self._measure_start_cycle = start_cycle
        self._measure_start_retired = self._retired
        if self.tracer is not None:
            self.tracer.clear()

    def _run_streaks(self, warmup_instructions: int) -> None:
        """A plan-driven run: one streak up to the warm-up crossing, one to
        the end of the trace.

        A streak stops right after the cycle in which ``_retired``
        reached its limit.  That cycle retired, so it advanced the clock
        by exactly one and attributed no stall: measurement starts at it,
        as it does when the guarded loop crosses the boundary.
        """
        units = self.units
        self._plan: FrontEndPlan = front_end_plan(units, self.config)
        self._ready: List[Optional[int]] = [None] * len(units)
        self._head_remaining = units.n_instrs[0] if len(units) else 0
        streak = self._run_passive if self.prefetcher.is_passive else self._run_active
        if warmup_instructions > 0:
            streak(warmup_instructions)
            if self._retired < warmup_instructions:
                return  # the trace ended inside the warm-up
            self._reset_stats_for_measurement(self.cycle - 1)
        streak(sys.maxsize)

    def _charge_plan(self, pred_start: int, head_start: int) -> None:
        """Charge the plan's branch and L1D counts of the units a streak
        predicted (from ``pred_start``) and retired (from ``head_start``)."""
        plan = self._plan
        stats = self.stats
        branches, mispredicts, redirects = plan.branch_counts(
            pred_start, self._pred_idx
        )
        stats.branches += branches
        stats.branch_mispredictions += mispredicts
        stats.btb_miss_redirects += redirects
        reads, writes = plan.l1d_counts(head_start, self.fq_head)
        self._l1d_counts.reads += reads
        self._l1d_counts.writes += writes

    # -- the guarded per-cycle loop ------------------------------------------

    def _run_guarded(self, warmup_instructions: int) -> None:
        """Run the four stages cycle by cycle over live predictors and a
        live L1D: traced, profiled, ideal and physically addressed runs.
        Only this loop reads them, so only it builds them."""
        config = self.config
        self.l1d = FastCache(config.l1d_sets, config.l1d_ways)
        self.gshare = make_direction_predictor(
            config.branch_predictor, config.gshare_bits, config.gshare_history
        )
        self.btb = BranchTargetBuffer(config.btb_sets, config.btb_ways)
        self.ras = ReturnAddressStack(config.ras_size)
        self.itc = IndirectTargetCache(config.itc_bits, config.itc_history)
        warm_pending = warmup_instructions > 0
        total_units = len(self.units)
        fills = run_fills
        predict = run_predict
        issue = run_issue
        retire = run_retire
        if self.profiler is not None:
            # wrap() pre-registers every phase key, so phase_seconds
            # always covers all SIM_PHASES even when guards skip calls.
            fills = self.profiler.wrap("fills", fills)
            predict = self.profiler.wrap("predict", predict)
            issue = self.profiler.wrap("issue", issue)
            retire = self.profiler.wrap("retire", retire)
        fq_line = self.fq_line
        fq_ready = self.fq_ready
        pq_queue = self.pq._queue
        mshr_heap = self.mshr._heap
        ftq_size = self.config.ftq_size
        stats = self.stats
        while self._pred_idx < total_units or self.fq_head < len(fq_line):
            cycle = self.cycle
            progress = False
            if mshr_heap and mshr_heap[0][0] <= cycle:
                progress = fills(self)
            if (
                self._pred_blocked_idx is None
                and cycle >= self._pred_stall_until
                and self._pred_idx < total_units
                and len(fq_line) - self.fq_head < ftq_size
            ):
                progress = predict(self) or progress
            if pq_queue:
                progress = issue(self) or progress
            retired_now = 0
            if self.fq_head < len(fq_line):
                head_ready = fq_ready[self.fq_head]
                if head_ready is not None and head_ready <= cycle:
                    retired_now = retire(self)

            if warm_pending and self._retired >= warmup_instructions:
                warm_pending = False
                self._reset_stats_for_measurement(cycle)
                stats = self.stats

            next_cycle = (
                cycle + 1 if (progress or retired_now) else self._next_event_cycle()
            )
            if retired_now == 0:
                span = next_cycle - cycle
                if self.fq_head < len(fq_line):
                    stats.fetch_stall_cycles += span
                else:
                    stats.ftq_empty_cycles += span
            self.cycle = next_cycle
            self._maybe_compact()

    def _next_event_cycle(self) -> int:
        """Earliest cycle at which anything can happen, without allocating."""
        cycle = self.cycle
        heap = self.mshr._heap
        best = heap[0][0] if heap else None
        stall = self._pred_stall_until
        if (
            stall > cycle
            and self._pred_blocked_idx is None
            and (best is None or stall < best)
        ):
            best = stall
        if self.fq_head < len(self.fq_line):
            head_ready = self.fq_ready[self.fq_head]
            if (
                head_ready is not None
                and head_ready > cycle
                and (best is None or head_ready < best)
            ):
                best = head_ready
        if best is None or best <= cycle:
            return cycle + 1
        return best

    def _maybe_compact(self) -> None:
        """Drop the consumed FTQ prefix once it is long enough to matter."""
        head = self.fq_head
        if (
            head >= _COMPACT_THRESHOLD
            and not self._waiting
            and self._pred_blocked_idx is None
        ):
            del self.fq_line[:head]
            del self.fq_remaining[:head]
            del self.fq_ready[:head]
            del self.fq_penalty[:head]
            del self.fq_unit[:head]
            self.fq_head = 0

    # -- the monolithic streak loop -------------------------------------------

    def _run_active(self, limit: int) -> None:
        """Batch-run cycles with no observers: the one streak loop.

        Preconditions (established by ``run``): no tracer, no profiler,
        not ideal, virtual addressing.  Fills, prefetch issue, demand
        accesses, branches and retire run in one loop with every
        structure in a local and the hot counters accumulated
        out-of-band (flushed on exit); the counters the shared
        :func:`~repro.sim.stages.issue.collect` admission filter updates
        go through ``stats`` directly, so the two sets never overlap.

        Processes whole cycles until the trace is done or ``_retired``
        reaches ``limit`` (the warm-up: ``run`` resets the counters
        there and calls again).  FTQ slots are unit indices: the FTQ
        holds units ``[fq_head, _pred_idx)``, ``_ready`` their ready
        cycles and ``_head_remaining`` the head's unretired
        instructions.  A unit's line and length are read from the
        units' columns, its branch verdict and L1D traffic from the
        plan; only the L1D misses walk the live L2/LLC.

        Prefetcher hooks fire at the reference call sites with the live
        cycle, except those that are the inherited no-ops: they are
        skipped, and so is building a ``FillInfo`` nobody reads.  A
        passive prefetcher (every hook inherited) therefore runs this
        loop as :meth:`_run_passive` with no hook traffic at all, and
        its PQ stays empty.  The sanitizer's ``check_fill`` still fires
        per fill; it reads structure state, never counters, so the
        out-of-band accumulation is invisible to it.  Cold paths (fills,
        miss allocation) go through the real ``MshrFile`` /
        ``FastMetaCache`` methods; only the dominant hit and retire
        paths are inlined.
        """
        config = self.config
        stats = self.stats
        units = self.units
        total = len(units)
        unit_line = units.line_addr
        unit_instrs = units.n_instrs
        unit_branch = units.branch
        trace_pc = units.trace.pc
        trace_flags = units.trace.flags
        trace_target = units.trace.target
        plan = self._plan
        verdict = plan.verdict
        misses = plan.misses
        miss_start = plan.miss_start
        ready = self._ready
        prefetcher = self.prefetcher
        on_fill = _own_hook(prefetcher, "on_fill")
        on_demand_access = _own_hook(prefetcher, "on_demand_access")
        on_branch = _own_hook(prefetcher, "on_branch")
        on_prefetch_useful = _own_hook(prefetcher, "on_prefetch_useful")
        on_prefetch_late = _own_hook(prefetcher, "on_prefetch_late")
        on_evict_unused = _own_hook(prefetcher, "on_evict_unused")
        mshr = self.mshr
        mshr_entries = mshr._entries
        mshr_heap = mshr._heap
        mshr_capacity = mshr.capacity
        mshr_pop_ready = mshr.pop_ready
        mshr_allocate = mshr.allocate
        request_instruction = self.memory.request_instruction
        checker = self.checker
        check_fill = checker.check_fill if checker is not None else None
        pq = self.pq
        pq_queue = pq._queue
        pq_pop = pq.pop
        issue_width = config.prefetch_issue_width
        mshr_limit = mshr_capacity - config.mshr_demand_reserve
        l1i = self.l1i
        l1i_sets = l1i._sets
        l1i_nsets = l1i.sets
        l1i_lru = l1i._lru
        l1i_insert = l1i.insert
        l1i_counts = self._l1i_counts
        l2 = self.memory.l2
        llc = self.memory.llc
        l2_sets = l2._sets
        l2_nsets = l2.sets
        l2_ways = l2.ways
        llc_sets = llc._sets
        llc_nsets = llc.sets
        llc_ways = llc.ways
        waiting = self._waiting
        latency = config.l1i_latency
        fetch_width = config.fetch_lines_per_cycle
        ftq_size = config.ftq_size
        retire_width = config.retire_width
        # Redirect penalty by verdict (none, predicted, execute, decode).
        penalty_of = (
            0, 0, config.exec_redirect_penalty, config.decode_redirect_penalty
        )

        cycle = self.cycle
        pred_idx = pred_start = self._pred_idx
        head = head_start = self.fq_head
        remaining = self._head_remaining
        miss_at = miss_start[head]
        stall_until = self._pred_stall_until
        blocked_idx = self._pred_blocked_idx
        retired_total = self._retired

        demand_accesses = 0
        demand_hits = 0
        demand_misses = 0
        merges = 0
        l1i_reads = 0
        l1i_writes = 0
        l2_reads = 0
        l2_writes = 0
        llc_reads = 0
        llc_writes = 0
        mshr_full_events = 0
        useful = 0
        wrong = 0
        late = 0
        stale_in_cache = 0
        stale_in_flight = 0
        sent = 0
        fetch_stall = 0
        ftq_empty = 0

        while pred_idx < total or head < pred_idx:
            if retired_total >= limit:
                break
            progress = False

            # -- phase 1: fills (with prefetch feedback hooks)
            if mshr_heap and mshr_heap[0][0] <= cycle:
                ready_at = cycle + latency
                for entry in mshr_pop_ready(cycle):
                    line_addr = entry.line_addr
                    victim = l1i_insert(line_addr)
                    l1i_writes += 1
                    if victim is not None and victim.prefetched:
                        wrong += 1
                        if on_evict_unused is not None:
                            on_evict_unused(victim.line_addr, victim.src_meta, cycle)
                    line = l1i_sets[line_addr % l1i_nsets][line_addr]
                    is_demand = entry.is_demand
                    line.prefetched = not is_demand
                    line.src_meta = entry.src_meta
                    if on_fill is not None:
                        reqs = on_fill(
                            FillInfo(
                                line_addr,
                                cycle,
                                entry.issue_cycle,
                                is_demand,
                                entry.was_prefetch,
                                entry.demand_cycle,
                                entry.src_meta,
                            )
                        )
                        if reqs:
                            collect(self, reqs)
                    if check_fill is not None:
                        check_fill(self, line_addr)
                    waiters = waiting.pop(line_addr, None)
                    if waiters:
                        for w in waiters:
                            ready[w] = ready_at
                    progress = True

            # -- phase 3: predict (demand accesses with on_demand_access;
            # planned branches with on_branch)
            if blocked_idx is None and cycle >= stall_until and pred_idx < total:
                for _ in range(fetch_width):
                    if pred_idx >= total or pred_idx - head >= ftq_size:
                        break
                    idx = pred_idx
                    line_addr = unit_line[idx]
                    cache_set = l1i_sets[line_addr % l1i_nsets]
                    line = cache_set.get(line_addr)
                    if line is not None:
                        if l1i_lru:
                            del cache_set[line_addr]
                            cache_set[line_addr] = line
                        l1i_reads += 1
                        demand_accesses += 1
                        demand_hits += 1
                        if line.prefetched:
                            line.prefetched = False
                            useful += 1
                            if on_prefetch_useful is not None:
                                on_prefetch_useful(line_addr, line.src_meta, cycle)
                        if on_demand_access is not None:
                            reqs = on_demand_access(line_addr, True, cycle)
                            if reqs:
                                collect(self, reqs)
                        ready[idx] = cycle + latency
                    else:
                        in_flight = mshr_entries.get(line_addr)
                        if in_flight is None and len(mshr_entries) >= mshr_capacity:
                            # MSHR full: retry the same unit next cycle.
                            mshr_full_events += 1
                            break
                        l1i_reads += 1
                        demand_accesses += 1
                        demand_misses += 1
                        if in_flight is not None:
                            if not in_flight.is_demand:
                                in_flight.mark_demanded(cycle)
                                late += 1
                                if on_prefetch_late is not None:
                                    on_prefetch_late(
                                        line_addr, in_flight.src_meta, cycle
                                    )
                            else:
                                merges += 1
                        else:
                            fill_ready = request_instruction(
                                line_addr, cycle + latency
                            )
                            mshr_allocate(line_addr, cycle, fill_ready, True, None)
                        if on_demand_access is not None:
                            reqs = on_demand_access(line_addr, False, cycle)
                            if reqs:
                                collect(self, reqs)
                        waiting.setdefault(line_addr, []).append(idx)
                    progress = True
                    pred_idx += 1
                    outcome = verdict[idx]
                    if outcome:
                        if on_branch is not None:
                            # FetchUnits.branch_of, inlined.
                            at = unit_branch[idx]
                            branch_type, taken = BRANCH_FIELDS[trace_flags[at]]
                            reqs = on_branch(
                                trace_pc[at], branch_type, taken, trace_target[at],
                                cycle,
                            )
                            if reqs:
                                collect(self, reqs)
                        if penalty_of[outcome]:
                            blocked_idx = idx
                            break

            # -- phase 2 (ordered after predict, as in the guarded loop):
            # prefetch issue from the PQ into the memory hierarchy
            if pq_queue:
                for _ in range(issue_width):
                    if not pq_queue:
                        break
                    line_addr, src_meta = pq_queue[0]
                    l1i_reads += 1
                    if line_addr in l1i_sets[line_addr % l1i_nsets]:
                        pq_pop()
                        stale_in_cache += 1
                        continue
                    if mshr_entries.get(line_addr) is not None:
                        pq_pop()
                        stale_in_flight += 1
                        continue
                    if len(mshr_entries) >= mshr_limit:
                        break
                    pq_pop()
                    fill_ready = request_instruction(line_addr, cycle)
                    mshr_allocate(line_addr, cycle, fill_ready, False, src_meta)
                    sent += 1
                    progress = True

            # -- phase 4: retire
            retired_now = 0
            if head < pred_idx:
                head_ready = ready[head]
                if head_ready is not None and head_ready <= cycle:
                    budget = retire_width
                    while True:
                        if remaining > budget:
                            remaining -= budget
                            retired_now += budget
                            break
                        budget -= remaining
                        retired_now += remaining
                        penalty = penalty_of[verdict[head]]
                        if penalty:
                            stall_until = cycle + penalty
                            if blocked_idx == head:
                                blocked_idx = None
                        head += 1
                        miss_end = miss_start[head]
                        if miss_end != miss_at:
                            for data_line in misses[miss_at:miss_end]:
                                # Inline L2 -> LLC -> DRAM walk
                                # (``MemoryHierarchy._access``).
                                l2_reads += 1
                                l2_set = l2_sets[data_line % l2_nsets]
                                if data_line in l2_set:
                                    del l2_set[data_line]
                                    l2_set[data_line] = True
                                    continue
                                llc_reads += 1
                                llc_set = llc_sets[data_line % llc_nsets]
                                if data_line in llc_set:
                                    del llc_set[data_line]
                                else:
                                    if len(llc_set) >= llc_ways:
                                        del llc_set[next(iter(llc_set))]
                                    llc_writes += 1
                                llc_set[data_line] = True
                                if len(l2_set) >= l2_ways:
                                    del l2_set[next(iter(l2_set))]
                                l2_set[data_line] = True
                                l2_writes += 1
                            miss_at = miss_end
                        if head < total:
                            remaining = unit_instrs[head]
                        if not budget or head >= pred_idx:
                            break
                        head_ready = ready[head]
                        if head_ready is None or head_ready > cycle:
                            break
                    retired_total += retired_now

            # -- cycle advance + stall attribution
            if progress or retired_now:
                next_cycle = cycle + 1
            else:
                best = mshr_heap[0][0] if mshr_heap else None
                if (
                    stall_until > cycle
                    and blocked_idx is None
                    and (best is None or stall_until < best)
                ):
                    best = stall_until
                if head < pred_idx:
                    head_ready = ready[head]
                    if (
                        head_ready is not None
                        and head_ready > cycle
                        and (best is None or head_ready < best)
                    ):
                        best = head_ready
                next_cycle = best if (best is not None and best > cycle) else cycle + 1
            if retired_now == 0:
                span = next_cycle - cycle
                if head < pred_idx:
                    fetch_stall += span
                else:
                    ftq_empty += span
            cycle = next_cycle

        # -- flush locals back into the shared state
        self.cycle = cycle
        self._pred_idx = pred_idx
        self._pred_stall_until = stall_until
        self._pred_blocked_idx = blocked_idx
        self._retired = retired_total
        self.fq_head = head
        self._head_remaining = remaining
        self._charge_plan(pred_start, head_start)
        stats.l1i_demand_accesses += demand_accesses
        stats.l1i_demand_hits += demand_hits
        stats.l1i_demand_misses += demand_misses
        stats.l1i_mshr_merges += merges
        stats.useful_prefetches += useful
        stats.late_prefetches += late
        stats.wrong_prefetches += wrong
        stats.mshr_full_events += mshr_full_events
        stats.prefetches_stale_in_cache += stale_in_cache
        stats.prefetches_stale_in_flight += stale_in_flight
        stats.prefetches_sent += sent
        stats.fetch_stall_cycles += fetch_stall
        stats.ftq_empty_cycles += ftq_empty
        l1i_counts.reads += l1i_reads
        l1i_counts.writes += l1i_writes
        l2_counts = stats.cache_accesses["L2C"]
        l2_counts.reads += l2_reads
        l2_counts.writes += l2_writes
        llc_counts = stats.cache_accesses["LLC"]
        llc_counts.reads += llc_reads
        llc_counts.writes += llc_writes

    #: A passive prefetcher's runs, under their own name: the same loop,
    #: which then calls no hook.
    _run_passive = _run_active
