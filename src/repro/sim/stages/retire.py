"""Stage 4 of the staged core: retire + data-side (L1D) accounting.

Consumes up to ``retire_width`` instructions per cycle from ready FTQ
blocks in the parallel arrays, releasing redirect penalties and charging
the finished blocks' data-line traffic to the L1D/L2/LLC — identical in
order and effect to ``Simulator._do_retire`` / ``_finish_block`` /
``_l1d_access``.  The data-side walk is cycle-*independent* (nothing
reads the access cycle except the unused completion time), a property
the front-end plan (:mod:`repro.sim.stages.plan`) relies on; order
still matters for LRU state, and is preserved exactly.
"""

from __future__ import annotations

from typing import Any

__all__ = ["run_retire", "finish_block"]


def run_retire(sim: Any) -> int:
    """Retire up to ``retire_width`` instructions; returns the count.

    Safe to call unguarded: with an empty FTQ or a not-ready head it
    returns 0 with no side effects.
    """
    budget = sim.config.retire_width
    retired = 0
    fq_ready = sim.fq_ready
    fq_remaining = sim.fq_remaining
    head = sim.fq_head
    tail = len(sim.fq_line)
    cycle = sim.cycle
    while budget > 0 and head < tail:
        ready = fq_ready[head]
        if ready is None or ready > cycle:
            break
        remaining = fq_remaining[head]
        take = remaining if remaining <= budget else budget
        budget -= take
        retired += take
        if take == remaining:
            sim.fq_head = head + 1
            finish_block(sim, head)
            head += 1
        else:
            fq_remaining[head] = remaining - take
    sim.fq_head = head
    sim._retired += retired
    return retired


def finish_block(sim: Any, idx: int) -> None:
    penalty = sim.fq_penalty[idx]
    if penalty:
        sim._pred_stall_until = sim.cycle + penalty
        if sim._pred_blocked_idx == idx:
            sim._pred_blocked_idx = None
    units = sim.units
    unit = sim.fq_unit[idx]
    start = units.data_start
    lo = start[unit]
    hi = start[unit + 1]
    if lo == hi:
        return
    # The L1D -> L2 -> LLC -> DRAM walk of ``Simulator._l1d_access``,
    # inlined over the dict-ordered caches with the counters hoisted (the
    # completion cycle is unused on the data side).
    mapper = sim.mapper
    l1d = sim.l1d
    l1d_sets = l1d._sets
    l1d_nsets = l1d.sets
    l1d_ways = l1d.ways
    l2 = sim.memory.l2
    l2_sets = l2._sets
    l2_nsets = l2.sets
    l2_ways = l2.ways
    llc = sim.memory.llc
    llc_sets = llc._sets
    llc_nsets = llc.sets
    llc_ways = llc.ways
    l1d_reads = l1d_writes = l2_reads = l2_writes = llc_reads = llc_writes = 0
    for packed in units.data[lo:hi]:
        data_line = packed >> 1
        if mapper is not None:
            data_line = mapper.translate_line(data_line)
        if packed & 1:
            l1d_writes += 1
        else:
            l1d_reads += 1
        data_set = l1d_sets[data_line % l1d_nsets]
        if data_line in data_set:
            del data_set[data_line]
            data_set[data_line] = True
            continue
        l2_reads += 1
        l2_set = l2_sets[data_line % l2_nsets]
        if data_line in l2_set:
            del l2_set[data_line]
        else:
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
            l2_writes += 1
        l2_set[data_line] = True
        if len(data_set) >= l1d_ways:
            del data_set[next(iter(data_set))]
        data_set[data_line] = True
        l1d_writes += 1
    counts = sim._l1d_counts
    counts.reads += l1d_reads
    counts.writes += l1d_writes
    cache_accesses = sim.stats.cache_accesses
    cache_accesses["L2C"].reads += l2_reads
    cache_accesses["L2C"].writes += l2_writes
    cache_accesses["LLC"].reads += llc_reads
    cache_accesses["LLC"].writes += llc_writes
