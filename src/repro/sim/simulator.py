"""The cycle-based front-end simulator.

Each simulated cycle runs four phases, mirroring the paper's modified
ChampSim front end:

1. **Fills** — completed MSHR entries fill the L1I (possibly evicting a
   never-used prefetch: a *wrong* prefetch) and wake waiting FTQ blocks.
2. **Prefetch issue** — up to ``prefetch_issue_width`` requests leave the
   PQ for the memory hierarchy (dropped if already resident or in flight).
3. **Predict** — the decoupled predict stage walks the fetch units along
   the (correct) path, enqueuing FTQ blocks and performing the demand L1I
   access per line visit (Fetch-Directed Prefetching issues these as
   demand accesses, as in the paper's baseline).  Branch prediction gates
   progress: a mispredicted branch stalls the predict stage until the
   branch resolves, charging a decode- or execute-stage redirect penalty.
4. **Retire** — the back end consumes up to ``retire_width`` instructions
   per cycle from ready FTQ blocks; wrong-path execution is not modelled
   (neither does ChampSim).

The simulation is trace-driven and deterministic.  Idle stretches (e.g. a
DRAM miss with an empty FTQ) are skipped event-style, so wall-clock cost
scales with activity rather than with cycles.
"""

from __future__ import annotations

import dataclasses
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterable, List, Optional

from repro.prefetchers.base import FillInfo, InstructionPrefetcher, PrefetchRequest
from repro.sim.branch_predictor import make_direction_predictor
from repro.sim.btb import BranchTargetBuffer
from repro.sim.cache import SetAssociativeCache
from repro.sim.config import SimConfig
from repro.sim.fetchunits import FetchUnits, build_fetch_units
from repro.sim.indirect import IndirectTargetCache
from repro.sim.memory import MemoryHierarchy, PageMapper
from repro.sim.mshr import MshrFile
from repro.sim.prefetch_queue import PrefetchQueue
from repro.sim.ras import ReturnAddressStack
from repro.sim.stats import SimStats
from repro.workloads.trace import BranchType, Trace


class _FtqBlock:
    """One FTQ entry: a line visit waiting to be fetched and retired."""

    __slots__ = ("line_addr", "remaining", "ready_cycle", "redirect_penalty", "data_lines")

    def __init__(self, line_addr: int, n_instrs: int, data_lines) -> None:
        self.line_addr = line_addr
        self.remaining = n_instrs
        self.ready_cycle: Optional[int] = None
        self.redirect_penalty = 0
        self.data_lines = data_lines


@dataclass
class SimResult:
    """Outcome of one simulation: counters plus run identity.

    ``prefetcher`` is the live prefetcher object when the simulation ran in
    this process; results that crossed a process boundary or came out of
    the run cache carry ``None``.  ``internals`` is the prefetcher's
    JSON-ready ``internals()`` at the end of the run (Figures 12-15 read
    it); it crosses workers and the store, outside ``stats.signature()``.
    """

    trace_name: str
    category: str
    prefetcher_name: str
    stats: SimStats
    prefetcher: Optional[InstructionPrefetcher] = None
    internals: Dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    def detached(self) -> "SimResult":
        """A copy without the live prefetcher (picklable / cacheable)."""
        return dataclasses.replace(self, prefetcher=None)


class Simulator:
    """Drives one trace through the configured front end and prefetcher."""

    #: Name this engine reports (see ``repro.sim.stages`` for the others).
    backend_name = "reference"

    def __init__(
        self,
        trace: Trace,
        prefetcher: InstructionPrefetcher,
        config: Optional[SimConfig] = None,
        units: Optional[FetchUnits] = None,
        tracer: Optional[Any] = None,
        profiler: Optional[Any] = None,
        checker: Optional[Any] = None,
    ) -> None:
        self.config = config or SimConfig()
        self.trace = trace
        self.prefetcher = prefetcher
        # Observability hooks (see repro.obs), duck-typed so this module
        # never imports the obs package: a ``tracer`` records lifecycle
        # events via ``emit``; a ``profiler`` times the four phases via
        # ``wrap``.  Both default to None = the exact uninstrumented path.
        # The ``checker`` (see repro.check.sanitize) follows the same
        # contract: it asserts hardware-model invariants via ``check_fill``
        # / ``final_check`` and wires itself into the prefetcher's
        # structures through ``attach``.
        self.tracer = tracer
        self.profiler = profiler
        self.checker = checker
        self.units: FetchUnits = (
            units if units is not None else build_fetch_units(trace, self.config.line_size)
        )
        self.stats = SimStats()
        self.l1i = SetAssociativeCache(
            self.config.l1i_sets,
            self.config.l1i_ways,
            replacement=self.config.l1i_replacement,
        )
        self.l1d = SetAssociativeCache(self.config.l1d_sets, self.config.l1d_ways)
        self.mshr = MshrFile(self.config.l1i_mshrs)
        self.pq = PrefetchQueue(self.config.prefetch_queue_size)
        self.memory = MemoryHierarchy(self.config, self.stats)
        self.gshare = make_direction_predictor(
            self.config.branch_predictor,
            self.config.gshare_bits,
            self.config.gshare_history,
        )
        self.btb = BranchTargetBuffer(self.config.btb_sets, self.config.btb_ways)
        self.ras = ReturnAddressStack(self.config.ras_size)
        self.itc = IndirectTargetCache(self.config.itc_bits, self.config.itc_history)
        self.mapper: Optional[PageMapper] = None
        if self.config.physical_addresses:
            self.mapper = PageMapper(
                self.config.physical_page_seed,
                self.config.page_size,
                self.config.line_size,
            )

        self.cycle = 0
        self._ftq: Deque[_FtqBlock] = deque()
        self._waiting: Dict[int, List[_FtqBlock]] = {}
        self._pred_idx = 0
        self._pred_stall_until = 0
        self._pred_blocked_on: Optional[_FtqBlock] = None
        self._retired = 0
        self._refresh_counter_refs()
        if checker is not None:
            checker.attach(self)

    def _refresh_counter_refs(self) -> None:
        """Re-bind per-cache counter objects (``stats.reset`` replaces them)."""
        self._l1i_counts = self.stats.cache_accesses["L1I"]
        self._l1d_counts = self.stats.cache_accesses["L1D"]

    # -- address translation -------------------------------------------------

    def _iline(self, vline: int) -> int:
        """Instruction line address as seen by caches and the prefetcher."""
        if self.mapper is None:
            return vline
        return self.mapper.translate_line(vline)

    def _dline(self, vline: int) -> int:
        if self.mapper is None:
            return vline
        return self.mapper.translate_line(vline)

    # -- main loop -----------------------------------------------------------

    def run(self, warmup_instructions: int = 0) -> SimStats:
        """Simulate the whole trace; returns the (post-warmup) statistics."""
        started = time.perf_counter()
        warm_pending = warmup_instructions > 0
        total_units = len(self.units)
        # Bound methods and loop-invariant objects hoisted out of the
        # per-cycle loop (a measurable win for a pure-Python hot loop).
        do_fills = self._do_fills
        do_predict = self._do_predict
        do_prefetch_issue = self._do_prefetch_issue
        do_retire = self._do_retire
        if self.profiler is not None:
            do_fills = self.profiler.wrap("fills", do_fills)
            do_predict = self.profiler.wrap("predict", do_predict)
            do_prefetch_issue = self.profiler.wrap("issue", do_prefetch_issue)
            do_retire = self.profiler.wrap("retire", do_retire)
        next_event_cycle = self._next_event_cycle
        ftq = self._ftq
        stats = self.stats
        while self._pred_idx < total_units or ftq:
            progress = do_fills()
            progress = do_predict() or progress
            progress = do_prefetch_issue() or progress
            retired_now = do_retire()

            if warm_pending and self._retired >= warmup_instructions:
                warm_pending = False
                self._reset_stats_for_measurement()
                stats = self.stats

            next_cycle = self.cycle + 1 if (progress or retired_now) else next_event_cycle()
            if retired_now == 0:
                span = next_cycle - self.cycle
                if ftq:
                    stats.fetch_stall_cycles += span
                else:
                    stats.ftq_empty_cycles += span
            self.cycle = next_cycle
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

    def _reset_stats_for_measurement(self) -> None:
        """End of warm-up: zero the counters, keep all structures warm."""
        self.stats.reset()
        self._refresh_counter_refs()
        self._measure_start_cycle = self.cycle
        self._measure_start_retired = self._retired
        if self.tracer is not None:
            # Traced totals mirror the measured counters, so the warm-up
            # events are discarded with them.
            self.tracer.clear()

    def _next_event_cycle(self) -> int:
        """Earliest cycle at which anything can happen, without allocating.

        Called once per skipped idle span; the old implementation built a
        throwaway candidate list each call and re-derived the MSHR's next
        fill with a full scan.  The MSHR now keeps its fill heap sorted
        between fills (``next_ready_cycle`` is an O(1) peek), and the
        min is folded manually so a stalled span costs no allocation.
        """
        cycle = self.cycle
        best = self.mshr.next_ready_cycle()
        stall = self._pred_stall_until
        if (
            stall > cycle
            and self._pred_blocked_on is None
            and (best is None or stall < best)
        ):
            best = stall
        if self._ftq:
            head_ready = self._ftq[0].ready_cycle
            if (
                head_ready is not None
                and head_ready > cycle
                and (best is None or head_ready < best)
            ):
                best = head_ready
        if best is None or best <= cycle:
            return cycle + 1
        return best

    # -- phase 1: fills --------------------------------------------------------

    def _do_fills(self) -> bool:
        ready = self.mshr.pop_ready(self.cycle)
        for entry in ready:
            self._fill_line(entry)
        return bool(ready)

    def _fill_line(self, entry) -> None:
        tracer = self.tracer
        victim = self.l1i.insert(entry.line_addr)
        self._l1i_counts.writes += 1
        if victim is not None and victim.prefetched:
            self.stats.wrong_prefetches += 1
            if tracer is not None:
                tracer.emit("pf_wrong", self.cycle, victim.line_addr, victim.src_meta)
            self.prefetcher.on_evict_unused(victim.line_addr, victim.src_meta, self.cycle)
        line = self.l1i.lookup(entry.line_addr, update_lru=False)
        line.prefetched = not entry.is_demand
        line.src_meta = entry.src_meta
        info = FillInfo(
            line_addr=entry.line_addr,
            fill_cycle=self.cycle,
            issue_cycle=entry.issue_cycle,
            is_demand=entry.is_demand,
            was_prefetch=entry.was_prefetch,
            demand_cycle=entry.demand_cycle,
            src_meta=entry.src_meta,
        )
        if tracer is not None:
            tracer.emit(
                "fill",
                self.cycle,
                entry.line_addr,
                entry.src_meta,
                (entry.is_demand, entry.was_prefetch, info.demand_latency),
            )
        self._collect(self.prefetcher.on_fill(info))
        if self.checker is not None:
            self.checker.check_fill(self, entry.line_addr)
        waiters = self._waiting.pop(entry.line_addr, None)
        if waiters:
            ready_at = self.cycle + self.config.l1i_latency
            for block in waiters:
                block.ready_cycle = ready_at

    # -- phase 2: prefetch issue ------------------------------------------------

    def _do_prefetch_issue(self) -> bool:
        pq = self.pq
        if pq.peek() is None:
            return False
        issued = False
        stats = self.stats
        l1i = self.l1i
        mshr = self.mshr
        l1i_counts = self._l1i_counts
        tracer = self.tracer
        # Prefetches may not occupy the last MSHR slots: demand misses
        # stall the predict stage when the file is full, so a prefetch
        # burst must not starve them.
        mshr_limit = mshr.capacity - self.config.mshr_demand_reserve
        for _ in range(self.config.prefetch_issue_width):
            item = pq.peek()
            if item is None:
                break
            line_addr, src_meta = item
            l1i_counts.reads += 1
            if l1i.contains(line_addr):
                pq.pop()
                stats.prefetches_stale_in_cache += 1
                if tracer is not None:
                    tracer.emit("pf_stale", self.cycle, line_addr, src_meta, "in_cache")
                continue
            if mshr.lookup(line_addr) is not None:
                pq.pop()
                stats.prefetches_stale_in_flight += 1
                if tracer is not None:
                    tracer.emit("pf_stale", self.cycle, line_addr, src_meta, "in_flight")
                continue
            if len(mshr) >= mshr_limit:
                break
            pq.pop()
            ready = self.memory.request_instruction(line_addr, self.cycle)
            mshr.allocate(line_addr, self.cycle, ready, False, src_meta)
            stats.prefetches_sent += 1
            if tracer is not None:
                tracer.emit("pf_issued", self.cycle, line_addr, src_meta)
            issued = True
        return issued

    # -- phase 3: predict stage ---------------------------------------------------

    def _do_predict(self) -> bool:
        if self._pred_blocked_on is not None or self.cycle < self._pred_stall_until:
            return False
        advanced = False
        units = self.units
        total_units = len(units)
        ftq = self._ftq
        ftq_size = self.config.ftq_size
        enqueue_unit = self._enqueue_unit
        pred_idx = self._pred_idx
        for _ in range(self.config.fetch_lines_per_cycle):
            if pred_idx >= total_units:
                break
            if len(ftq) >= ftq_size:
                break
            unit = pred_idx
            block = enqueue_unit(unit)
            if block is None:
                # MSHR full: retry the same unit next cycle.
                self.stats.mshr_full_events += 1
                break
            advanced = True
            pred_idx += 1
            self._pred_idx = pred_idx
            branch = units.branch_of(unit)
            if branch is not None and self._handle_branch(branch, block):
                break  # mispredicted: stall until resolution
        return advanced

    def _enqueue_unit(self, unit: int) -> Optional[_FtqBlock]:
        units = self.units
        line_addr = self._iline(units.line_addr[unit])
        block = _FtqBlock(line_addr, units.n_instrs[unit], units.data_lines(unit))
        ready = self._demand_access(line_addr, block)
        if ready == "retry":
            return None
        self._ftq.append(block)
        return block

    def _demand_access(self, line_addr: int, block: _FtqBlock):
        """Perform the demand L1I access for one FTQ block.

        The MSHR-full case is decided by a pure *probe* before any state
        changes: the access retries next cycle and must not touch LRU
        order or counters until the cycle it actually proceeds (one
        architectural access = one LRU touch, one count).
        """
        stats = self.stats
        tracer = self.tracer
        entry = self.l1i.lookup(line_addr, update_lru=False)
        mshr_entry = None
        if entry is None and not self.prefetcher.is_ideal:
            mshr_entry = self.mshr.lookup(line_addr)
            if mshr_entry is None and self.mshr.full:
                return "retry"
        self._l1i_counts.reads += 1
        stats.l1i_demand_accesses += 1
        if entry is not None:
            self.l1i.touch(entry)
            stats.l1i_demand_hits += 1
            if tracer is not None:
                tracer.emit("demand_access", self.cycle, line_addr, None, True)
            if entry.prefetched:
                entry.prefetched = False
                stats.useful_prefetches += 1
                if tracer is not None:
                    tracer.emit("pf_useful", self.cycle, line_addr, entry.src_meta)
                self.prefetcher.on_prefetch_useful(line_addr, entry.src_meta, self.cycle)
            block.ready_cycle = self.cycle + self.config.l1i_latency
            self._collect(self.prefetcher.on_demand_access(line_addr, True, self.cycle))
            return block.ready_cycle

        if self.prefetcher.is_ideal:
            # Ideal L1I: the access hits, but the line is still fetched from
            # the next level to model the pollution it causes there.
            stats.l1i_demand_hits += 1
            self.memory.request_instruction(line_addr, self.cycle)
            self.l1i.insert(line_addr)
            self._l1i_counts.writes += 1
            block.ready_cycle = self.cycle + self.config.l1i_latency
            return block.ready_cycle

        if tracer is not None:
            tracer.emit("demand_access", self.cycle, line_addr, None, False)
        if mshr_entry is not None:
            stats.l1i_demand_misses += 1
            if not mshr_entry.is_demand:
                mshr_entry.mark_demanded(self.cycle)
                stats.late_prefetches += 1
                if tracer is not None:
                    tracer.emit("pf_late", self.cycle, line_addr, mshr_entry.src_meta)
                self.prefetcher.on_prefetch_late(line_addr, mshr_entry.src_meta, self.cycle)
            else:
                stats.l1i_mshr_merges += 1
            self._wait_on(line_addr, block)
            self._collect(self.prefetcher.on_demand_access(line_addr, False, self.cycle))
            return None

        stats.l1i_demand_misses += 1
        ready = self.memory.request_instruction(line_addr, self.cycle + self.config.l1i_latency)
        self.mshr.allocate(line_addr, self.cycle, ready, True, None)
        self._wait_on(line_addr, block)
        self._collect(self.prefetcher.on_demand_access(line_addr, False, self.cycle))
        return None

    def _wait_on(self, line_addr: int, block: _FtqBlock) -> None:
        self._waiting.setdefault(line_addr, []).append(block)

    def _handle_branch(self, branch: Any, block: _FtqBlock) -> bool:
        """Predict a unit's terminating ``(pc, branch_type, taken,
        target)``; returns True on stall."""
        pc, branch_type, taken, target = branch
        self.stats.branches += 1
        penalty = 0

        if branch_type == BranchType.CONDITIONAL:
            predicted_taken = self.gshare.predict(pc)
            self.gshare.update(pc, taken)
            if predicted_taken != taken:
                penalty = self.config.exec_redirect_penalty
                self.stats.branch_mispredictions += 1
            elif taken:
                if self.btb.lookup(pc) is None:
                    penalty = self.config.decode_redirect_penalty
                    self.stats.btb_miss_redirects += 1
                self.btb.update(pc, target)
        elif branch_type in (BranchType.DIRECT_JUMP, BranchType.DIRECT_CALL):
            if self.btb.lookup(pc) is None:
                penalty = self.config.decode_redirect_penalty
                self.stats.btb_miss_redirects += 1
            self.btb.update(pc, target)
        elif branch_type in (BranchType.INDIRECT_JUMP, BranchType.INDIRECT_CALL):
            predicted = self.itc.predict(pc)
            if predicted != target:
                penalty = self.config.exec_redirect_penalty
                self.stats.branch_mispredictions += 1
            self.itc.update(pc, target)
        elif branch_type == BranchType.RETURN:
            predicted = self.ras.pop()
            if predicted != target:
                penalty = self.config.exec_redirect_penalty
                self.stats.branch_mispredictions += 1

        if branch_type.is_call:
            self.ras.push(pc + 4)

        self._collect(
            self.prefetcher.on_branch(pc, branch_type, taken, target, self.cycle)
        )

        if penalty:
            block.redirect_penalty = penalty
            self._pred_blocked_on = block
            return True
        return False

    # -- phase 4: retire ------------------------------------------------------------

    def _do_retire(self) -> int:
        budget = self.config.retire_width
        retired = 0
        ftq = self._ftq
        cycle = self.cycle
        while budget > 0 and ftq:
            block = ftq[0]
            ready = block.ready_cycle
            if ready is None or ready > cycle:
                break
            take = block.remaining
            if take > budget:
                take = budget
            block.remaining -= take
            budget -= take
            retired += take
            if block.remaining == 0:
                ftq.popleft()
                self._finish_block(block)
        self._retired += retired
        return retired

    def _finish_block(self, block: _FtqBlock) -> None:
        if block.redirect_penalty:
            self._pred_stall_until = self.cycle + block.redirect_penalty
            if self._pred_blocked_on is block:
                self._pred_blocked_on = None
        for data_line, is_store in block.data_lines:
            self._l1d_access(self._dline(data_line), is_store)

    def _l1d_access(self, line_addr: int, is_store: bool) -> None:
        counts = self._l1d_counts
        if is_store:
            counts.writes += 1
        else:
            counts.reads += 1
        if self.l1d.lookup(line_addr) is None:
            self.memory.request_data(line_addr, self.cycle)
            self.l1d.insert(line_addr)
            counts.writes += 1

    # -- helpers ---------------------------------------------------------------------

    def _collect(self, requests: Iterable[PrefetchRequest]) -> None:
        """Accept prefetcher requests into the PQ.

        Requests for lines already resident or already in flight are
        filtered here so they do not occupy PQ slots (ChampSim's
        ``prefetch_line`` filters these as well).
        """
        stats = self.stats
        l1i = self.l1i
        mshr = self.mshr
        pq = self.pq
        tracer = self.tracer
        cycle = self.cycle
        for request in requests:
            stats.prefetches_requested += 1
            line_addr = request.line_addr
            if tracer is not None:
                tracer.emit("pf_requested", cycle, line_addr, request.src_meta)
            if l1i.contains(line_addr):
                stats.prefetches_dropped_in_cache += 1
                if tracer is not None:
                    tracer.emit(
                        "pf_dropped", cycle, line_addr, request.src_meta, "in_cache"
                    )
                continue
            if mshr.lookup(line_addr) is not None:
                stats.prefetches_dropped_in_flight += 1
                if tracer is not None:
                    tracer.emit(
                        "pf_dropped", cycle, line_addr, request.src_meta, "in_flight"
                    )
                continue
            if pq.push(line_addr, request.src_meta):
                stats.prefetches_enqueued += 1
                if tracer is not None:
                    tracer.emit("pf_enqueued", cycle, line_addr, request.src_meta)
            else:
                stats.prefetches_dropped_pq_full += 1
                if tracer is not None:
                    tracer.emit(
                        "pf_dropped", cycle, line_addr, request.src_meta, "pq_full"
                    )


def simulate(
    trace: Trace,
    prefetcher: InstructionPrefetcher,
    config: Optional[SimConfig] = None,
    units: Optional[FetchUnits] = None,
    warmup_instructions: int = 0,
    tracer: Optional[Any] = None,
    profiler: Optional[Any] = None,
    checker: Optional[Any] = None,
) -> SimResult:
    """Convenience wrapper: run one trace through one prefetcher.

    With no explicit ``checker``, ``REPRO_SANITIZE`` is consulted so a
    sanitized environment (CI's sanitizer-smoke job, ``repro run
    --check`` worker processes) covers every entry point.  The env probe
    never imports the sanitizer module when the variable is unset.

    The simulator core is selected by ``config.backend`` (with the
    ``REPRO_BACKEND`` environment variable filling in when the config
    keeps the default); every backend produces bit-identical
    :meth:`~repro.sim.stats.SimStats.signature` results — see
    :mod:`repro.sim.stages`.
    """
    if checker is None:
        from repro.check import sanitizer_from_env

        checker = sanitizer_from_env()
    from repro.sim.stages import resolve_backend

    simulator_cls = resolve_backend(config.backend if config is not None else None)
    sim = simulator_cls(
        trace, prefetcher, config=config, units=units, tracer=tracer,
        profiler=profiler, checker=checker,
    )
    stats = sim.run(warmup_instructions=warmup_instructions)
    return SimResult(
        trace_name=trace.name,
        category=trace.category,
        prefetcher_name=prefetcher.name,
        stats=stats,
        prefetcher=prefetcher,
        internals=prefetcher.internals(),
    )
