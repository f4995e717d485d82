"""Stage 3 of the staged core: the decoupled predict stage.

Walks the fetch units along the (correct) path, enqueuing FTQ blocks
into the parallel arrays and performing one demand L1I access per line
visit; branch prediction gates progress exactly as in the reference
``Simulator._do_predict`` / ``_enqueue_unit`` / ``_demand_access`` /
``_handle_branch``.  The MSHR-full case is still decided by a pure probe
before any state change (one architectural access = one LRU touch, one
count, on the cycle the access actually proceeds).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.sim.stages.issue import collect
from repro.sim.stages.plan import DECODE_REDIRECT, EXEC_REDIRECT, branch_verdict

__all__ = ["run_predict", "demand_access", "handle_branch"]

_RETRY = "retry"


def run_predict(sim: Any) -> bool:
    """Advance the predict stage by up to ``fetch_lines_per_cycle`` units.

    Safe to call unguarded: when blocked, stalled, out of units, or FTQ
    full, it returns False with no side effects (the staged loop checks
    those guards first to skip the call entirely).
    """
    if sim._pred_blocked_idx is not None or sim.cycle < sim._pred_stall_until:
        return False
    advanced = False
    units = sim.units
    total_units = len(units)
    fq_line = sim.fq_line
    ftq_size = sim.config.ftq_size
    pred_idx = sim._pred_idx
    for _ in range(sim.config.fetch_lines_per_cycle):
        if pred_idx >= total_units:
            break
        if len(fq_line) - sim.fq_head >= ftq_size:
            break
        unit = pred_idx
        idx = enqueue_unit(sim, unit)
        if idx is None:
            # MSHR full: retry the same unit next cycle.
            sim.stats.mshr_full_events += 1
            break
        advanced = True
        pred_idx += 1
        sim._pred_idx = pred_idx
        if units.branch[unit] >= 0 and handle_branch(sim, unit, idx):
            break  # mispredicted: stall until resolution
    return advanced


def enqueue_unit(sim: Any, unit: int) -> Optional[int]:
    """Append fetch unit ``unit`` to the FTQ arrays; None on MSHR-full
    retry."""
    units = sim.units
    line_addr = units.line_addr[unit]
    mapper = sim.mapper
    if mapper is not None:
        line_addr = mapper.translate_line(line_addr)
    ready = demand_access(sim, line_addr)
    if ready is _RETRY:
        return None
    idx = len(sim.fq_line)
    sim.fq_line.append(line_addr)
    sim.fq_remaining.append(units.n_instrs[unit])
    sim.fq_ready.append(ready)
    sim.fq_penalty.append(0)
    sim.fq_unit.append(unit)
    if ready is None:
        sim._waiting.setdefault(line_addr, []).append(idx)
    return idx


def demand_access(sim: Any, line_addr: int):
    """One demand L1I access; returns the block's ready cycle.

    Returns an int (hit / ideal: ready at ``cycle + l1i_latency``), None
    (miss: the block waits on the MSHR fill), or the ``"retry"`` sentinel
    (MSHR full, nothing touched).
    """
    stats = sim.stats
    tracer = sim.tracer
    prefetcher = sim.prefetcher
    l1i = sim.l1i
    cycle = sim.cycle
    entry = l1i.lookup(line_addr, update_lru=False)
    mshr_entry = None
    if entry is None and not prefetcher.is_ideal:
        mshr_entry = sim.mshr.lookup(line_addr)
        if mshr_entry is None and sim.mshr.full:
            return _RETRY
    sim._l1i_counts.reads += 1
    stats.l1i_demand_accesses += 1
    passive = prefetcher.is_passive
    if entry is not None:
        l1i.touch(entry)
        stats.l1i_demand_hits += 1
        if tracer is not None:
            tracer.emit("demand_access", cycle, line_addr, None, True)
        if entry.prefetched:
            entry.prefetched = False
            stats.useful_prefetches += 1
            if tracer is not None:
                tracer.emit("pf_useful", cycle, line_addr, entry.src_meta)
            prefetcher.on_prefetch_useful(line_addr, entry.src_meta, cycle)
        if not passive:
            collect(sim, prefetcher.on_demand_access(line_addr, True, cycle))
        return cycle + sim.config.l1i_latency

    if prefetcher.is_ideal:
        # Ideal L1I: the access hits, but the line is still fetched from
        # the next level to model the pollution it causes there.
        stats.l1i_demand_hits += 1
        sim.memory.request_instruction(line_addr, cycle)
        l1i.insert(line_addr)
        sim._l1i_counts.writes += 1
        return cycle + sim.config.l1i_latency

    if tracer is not None:
        tracer.emit("demand_access", cycle, line_addr, None, False)
    if mshr_entry is not None:
        stats.l1i_demand_misses += 1
        if not mshr_entry.is_demand:
            mshr_entry.mark_demanded(cycle)
            stats.late_prefetches += 1
            if tracer is not None:
                tracer.emit("pf_late", cycle, line_addr, mshr_entry.src_meta)
            prefetcher.on_prefetch_late(line_addr, mshr_entry.src_meta, cycle)
        else:
            stats.l1i_mshr_merges += 1
        if not passive:
            collect(sim, prefetcher.on_demand_access(line_addr, False, cycle))
        return None

    stats.l1i_demand_misses += 1
    ready = sim.memory.request_instruction(
        line_addr, cycle + sim.config.l1i_latency
    )
    sim.mshr.allocate(line_addr, cycle, ready, True, None)
    if not passive:
        collect(sim, prefetcher.on_demand_access(line_addr, False, cycle))
    return None


def handle_branch(sim: Any, unit: int, idx: int) -> bool:
    """Predict fetch unit ``unit``'s terminating branch (FTQ slot
    ``idx``); returns True on stall."""
    branch = sim.units.branch_of(unit)
    outcome = branch_verdict(branch, sim.gshare, sim.btb, sim.itc, sim.ras)
    stats = sim.stats
    stats.branches += 1
    penalty = 0
    if outcome == EXEC_REDIRECT:
        penalty = sim.config.exec_redirect_penalty
        stats.branch_mispredictions += 1
    elif outcome == DECODE_REDIRECT:
        penalty = sim.config.decode_redirect_penalty
        stats.btb_miss_redirects += 1

    if not sim.prefetcher.is_passive:
        collect(sim, sim.prefetcher.on_branch(*branch, sim.cycle))

    if penalty:
        sim.fq_penalty[idx] = penalty
        sim._pred_blocked_idx = idx
        return True
    return False
