"""Stage 2 of the staged core: prefetch issue (PQ -> memory hierarchy).

Also home of :func:`collect`, the PQ admission filter every stage that
receives prefetcher requests shares.  Both functions are equivalent to
the reference ``Simulator._do_prefetch_issue`` / ``Simulator._collect``,
operating on the staged core's fast structures: tracer emissions happen
in the identical order, and ``collect`` counts locally and adds its
counts to ``stats`` once per call.
"""

from __future__ import annotations

from typing import Any, Iterable

__all__ = ["run_issue", "collect"]


def run_issue(sim: Any) -> bool:
    """Issue up to ``prefetch_issue_width`` requests from the PQ.

    Safe to call unguarded: an empty PQ returns False with no side
    effects (the staged loop skips the call in that case).
    """
    pq = sim.pq
    if not pq._queue:
        return False
    issued = False
    stats = sim.stats
    l1i = sim.l1i
    mshr = sim.mshr
    l1i_counts = sim._l1i_counts
    tracer = sim.tracer
    cycle = sim.cycle
    # Prefetches may not occupy the last MSHR slots: demand misses
    # stall the predict stage when the file is full, so a prefetch
    # burst must not starve them.
    mshr_limit = mshr.capacity - sim.config.mshr_demand_reserve
    for _ in range(sim.config.prefetch_issue_width):
        item = pq.peek()
        if item is None:
            break
        line_addr, src_meta = item
        l1i_counts.reads += 1
        if l1i.contains(line_addr):
            pq.pop()
            stats.prefetches_stale_in_cache += 1
            if tracer is not None:
                tracer.emit("pf_stale", cycle, line_addr, src_meta, "in_cache")
            continue
        if mshr.lookup(line_addr) is not None:
            pq.pop()
            stats.prefetches_stale_in_flight += 1
            if tracer is not None:
                tracer.emit("pf_stale", cycle, line_addr, src_meta, "in_flight")
            continue
        if len(mshr) >= mshr_limit:
            break
        pq.pop()
        ready = sim.memory.request_instruction(line_addr, cycle)
        mshr.allocate(line_addr, cycle, ready, False, src_meta)
        stats.prefetches_sent += 1
        if tracer is not None:
            tracer.emit("pf_issued", cycle, line_addr, src_meta)
        issued = True
    return issued


def collect(sim: Any, requests: Iterable) -> None:
    """Accept prefetcher requests into the PQ (admission filtering).

    Requests for lines already resident or already in flight are
    filtered here so they do not occupy PQ slots.
    """
    l1i_sets = sim.l1i._sets
    l1i_nsets = sim.l1i.sets
    mshr_entries = sim.mshr._entries
    pq_push = sim.pq.push
    tracer = sim.tracer
    requested = in_cache = in_flight = enqueued = pq_full = 0
    for line_addr, src_meta in requests:
        requested += 1
        if tracer is not None:
            tracer.emit("pf_requested", sim.cycle, line_addr, src_meta)
        if line_addr in l1i_sets[line_addr % l1i_nsets]:
            in_cache += 1
            if tracer is not None:
                tracer.emit("pf_dropped", sim.cycle, line_addr, src_meta, "in_cache")
            continue
        if line_addr in mshr_entries:
            in_flight += 1
            if tracer is not None:
                tracer.emit("pf_dropped", sim.cycle, line_addr, src_meta, "in_flight")
            continue
        if pq_push(line_addr, src_meta):
            enqueued += 1
            if tracer is not None:
                tracer.emit("pf_enqueued", sim.cycle, line_addr, src_meta)
        else:
            pq_full += 1
            if tracer is not None:
                tracer.emit("pf_dropped", sim.cycle, line_addr, src_meta, "pq_full")
    stats = sim.stats
    stats.prefetches_requested += requested
    stats.prefetches_dropped_in_cache += in_cache
    stats.prefetches_dropped_in_flight += in_flight
    stats.prefetches_enqueued += enqueued
    stats.prefetches_dropped_pq_full += pq_full
