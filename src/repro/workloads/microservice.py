"""Cloud-microservice workload family: RPC chains and multi-tenant cores.

SLOFetch-style microservice studies show that cloud services stress the
front end differently from monolithic servers: a request traverses a
*chain* of RPC tiers (frontend -> auth -> logic -> cache -> storage),
each tier marshals arguments through shared serialization helpers, call
stacks run deep, and the aggregate instruction footprint spans several
megabytes.  On a real core the effect is compounded by *multi-tenancy*:
the OS interleaves several services on one SMT core, so the L1I and BTB
see context switches every scheduling quantum.

This module models both effects on top of the CFG substrate:

* :func:`build_rpc_program` builds a tiered RPC-chain program — an
  event-loop frontend dispatching into per-tier function pools, each
  tier function fanning out to the next tier through direct and virtual
  (indirect) call stubs, with Zipf-popular shared marshalling utilities
  called on both sides of every hop.  Footprints are multi-megabyte and
  call stacks reach ``tiers`` deep before the leaf tier's compute loops.
* :func:`interleave_traces` is the multi-tenant scheduler: it
  context-switches 2-4 tenant programs (laid out in disjoint address
  regions) onto one simulated core at a seeded scheduling quantum, so
  the prefetcher/BTB state of one tenant is thrashed by the others —
  the regime where instruction-prefetcher reach matters most.
* :func:`microservice_suite` packages both as first-class
  ``microservice``-category :class:`~repro.workloads.generators.WorkloadSpec`
  entries for suites, sweeps, figures, and tuning.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from repro.workloads.cfg import (
    K_CALL,
    K_COND,
    K_FALLTHROUGH,
    K_INDIRECT_CALL,
    K_JUMP,
    K_RETURN,
    Program,
    ProgramDraft,
)
from repro.workloads.generators import check_params
from repro.workloads.synthetic import generate_trace, randint
from repro.workloads.trace import Trace

MICROSERVICE_CATEGORY = "microservice"

#: Disjoint per-tenant code regions (256 MB apart): tenants share the
#: L1I/BTB but never alias each other's lines, as separate processes do.
TENANT_STRIDE = 0x1000_0000
TENANT_BASE = 0x40_0000

#: Default scheduling quantum in instructions; the per-workload quantum
#: is drawn around this by the spec seed.
DEFAULT_QUANTUM = 20_000


@dataclass(frozen=True)
class MicroserviceParams:
    """Shape of one RPC-chain service.

    Attributes:
        tiers: RPC hops from frontend to leaf (call-stack depth floor).
        funcs_per_tier: function-pool size per tier; with block/instr
            sizes this sets the multi-megabyte footprint.
        entry_handlers: frontend endpoints the event loop dispatches to.
        rpc_fanout: inclusive (min, max) next-tier calls per tier
            function (the RPC fan-out of one request).
        indirect_frac: fraction of RPC stubs dispatched virtually
            (service mesh / interface dispatch).
        utils: shared marshalling/logging helper pool size.
        zipf_s: Zipf skew of helper popularity.
        blocks_per_func: inclusive (min, max) blocks per tier function.
        instrs_per_block: inclusive (min, max) instructions per block.
        loop_prob: chance a block self-loops (marshalling copy loops).
        loop_taken_prob: back-edge taken probability.
        cond_prob: chance of a forward conditional skip.
        cond_bias_choices: taken probabilities for forward conditionals.
        load_frac / store_frac: memory instruction density.
    """

    tiers: int = 5
    funcs_per_tier: int = 800
    entry_handlers: int = 24
    rpc_fanout: Tuple[int, int] = (1, 3)
    indirect_frac: float = 0.35
    utils: int = 24
    zipf_s: float = 0.9
    blocks_per_func: Tuple[int, int] = (4, 10)
    instrs_per_block: Tuple[int, int] = (4, 14)
    loop_prob: float = 0.08
    loop_taken_prob: float = 0.80
    cond_prob: float = 0.30
    cond_bias_choices: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9)
    load_frac: float = 0.28
    store_frac: float = 0.12

    def __post_init__(self) -> None:
        if self.tiers < 2:
            raise ValueError(f"an RPC chain needs >= 2 tiers, got {self.tiers}")
        if self.funcs_per_tier < 2 or self.entry_handlers < 1:
            raise ValueError("funcs_per_tier/entry_handlers too small")
        check_params(
            self,
            probabilities=("indirect_frac", "loop_prob", "loop_taken_prob",
                           "cond_prob"),
            ranges=("rpc_fanout", "blocks_per_func", "instrs_per_block"),
        )

    @property
    def call_depth(self) -> int:
        """Interpreter call-depth bound: the chain plus helper nesting."""
        return self.tiers + 4


#: Service presets, loosely following DeathStarBench roles.  All are
#: server-class; they differ in chain depth, fan-out, and footprint so
#: multi-tenant mixes exercise asymmetric sharing.
MICROSERVICE_PARAMS: Dict[str, MicroserviceParams] = {
    # Social-network style: deep chains, heavy virtual dispatch.
    "social": MicroserviceParams(
        tiers=6,
        funcs_per_tier=820,
        entry_handlers=28,
        rpc_fanout=(1, 3),
        indirect_frac=0.45,
        utils=28,
        blocks_per_func=(4, 10),
        instrs_per_block=(3, 12),
    ),
    # Search/aggregation: wide fan-out at the mid tiers.
    "search": MicroserviceParams(
        tiers=5,
        funcs_per_tier=900,
        entry_handlers=20,
        rpc_fanout=(2, 4),
        indirect_frac=0.30,
        utils=24,
        blocks_per_func=(4, 9),
        instrs_per_block=(4, 13),
    ),
    # Media/streaming: shallower chain, larger straight-line blocks.
    "media": MicroserviceParams(
        tiers=4,
        funcs_per_tier=700,
        entry_handlers=16,
        rpc_fanout=(1, 2),
        indirect_frac=0.20,
        utils=18,
        blocks_per_func=(3, 8),
        instrs_per_block=(8, 24),
        loop_prob=0.14,
        cond_prob=0.22,
    ),
    # Payments/banking: branchy validation logic, modest fan-out.
    "bank": MicroserviceParams(
        tiers=5,
        funcs_per_tier=780,
        entry_handlers=22,
        rpc_fanout=(1, 2),
        indirect_frac=0.25,
        utils=26,
        blocks_per_func=(5, 11),
        instrs_per_block=(3, 10),
        cond_prob=0.38,
        cond_bias_choices=(0.2, 0.4, 0.6, 0.8),
    ),
}

SERVICE_NAMES = tuple(sorted(MICROSERVICE_PARAMS))


def _zipf_weights(n: int, s: float) -> List[float]:
    return [1.0 / (rank + 1) ** s for rank in range(max(1, n))]


class _ChainShape:
    """Function partition of one RPC-chain program.

    ``names`` lists every function in build order: the frontend, each
    tier's pool, then the helpers.  A function's number is its position
    there, and ``tiers``, ``handlers`` and ``utils`` hold numbers.
    """

    def __init__(self, params: MicroserviceParams) -> None:
        self.main = "rpc_main"
        per_tier = params.funcs_per_tier
        self.names = [self.main]
        self.tiers: List[List[int]] = []
        for tier in range(params.tiers):
            self.tiers.append(list(range(len(self.names), len(self.names) + per_tier)))
            self.names.extend(f"t{tier}_f{idx:04d}" for idx in range(per_tier))
        self.handlers = self.tiers[0][: params.entry_handlers]
        self.utils = list(range(len(self.names), len(self.names) + params.utils))
        self.names.extend(f"util{idx:03d}" for idx in range(params.utils))


def _tier_function(
    draft: ProgramDraft,
    name: str,
    tier: int,
    shape: _ChainShape,
    params: MicroserviceParams,
    util_cum: List[float],
    rng: random.Random,
) -> None:
    """One tier function: marshalling blocks around RPC stubs.

    Non-leaf tiers place their next-tier calls on dedicated stub blocks
    (1-2 candidate callees when virtual), with helper calls and branchy
    validation between them; the leaf tier runs compute/copy loops.
    """
    bits = rng.getrandbits
    is_leaf = tier == params.tiers - 1
    n_blocks = randint(bits, *params.blocks_per_func)
    n_rpc = 0 if is_leaf else randint(bits, *params.rpc_fanout)
    rpc_blocks = set(
        rng.sample(range(max(1, n_blocks - 1)), min(n_rpc, max(1, n_blocks - 1)))
    )
    next_tier = None if is_leaf else shape.tiers[tier + 1]
    draft.function(name)
    for b in range(n_blocks):
        is_last = b == n_blocks - 1
        n_instr = randint(bits, *params.instrs_per_block)
        if is_last:
            term: Tuple[int, int, float] = (K_RETURN, 0, 0.5)
        elif b in rpc_blocks and next_tier is not None:
            # The RPC stub: a few plausible next-tier endpoints, one hot.
            if rng.random() < params.indirect_frac:
                k = randint(bits, 2, 4)
                callees = rng.sample(next_tier, min(k, len(next_tier)))
                weights = [8.0] + [1.0] * (len(callees) - 1)
                term = (K_INDIRECT_CALL, draft.table(list(zip(callees, weights))), 0.5)
            else:
                term = (K_CALL, rng.choice(next_tier), 0.5)
        else:
            term = _glue_terminator(b, n_blocks, shape, params, util_cum, rng)
        draft.block(n_instr, *term, params.load_frac, params.store_frac)


def _glue_terminator(
    block_idx: int,
    n_blocks: int,
    shape: _ChainShape,
    params: MicroserviceParams,
    util_cum: List[float],
    rng: random.Random,
) -> Tuple[int, int, float]:
    """Between RPC stubs: copy loops, validation skips, helper calls.

    Returns the block's ``(kind, target, taken probability)`` draft
    columns."""
    roll = rng.random()
    if roll < params.loop_prob:
        return K_COND, block_idx, params.loop_taken_prob
    roll -= params.loop_prob
    if roll < params.cond_prob and block_idx + 2 < n_blocks:
        forward = randint(rng.getrandbits, block_idx + 1, n_blocks - 1)
        return K_COND, forward, rng.choice(params.cond_bias_choices)
    roll -= params.cond_prob
    if roll < 0.30 and shape.utils:
        return K_CALL, rng.choices(shape.utils, cum_weights=util_cum)[0], 0.5
    return K_FALLTHROUGH, 0, 0.5


def _util_function(
    draft: ProgramDraft, name: str, params: MicroserviceParams, rng: random.Random
) -> None:
    """A marshalling helper: a short copy loop and a return."""
    draft.function(name, ("copy", "done"))
    draft.block(
        randint(rng.getrandbits, *params.instrs_per_block),
        K_COND,
        0,
        0.66,
        load_frac=min(1.0 - params.store_frac, params.load_frac + 0.15),
        store_frac=params.store_frac,
    )
    draft.block(
        max(2, params.instrs_per_block[0]),
        K_RETURN,
        load_frac=params.load_frac,
        store_frac=params.store_frac,
    )


def _frontend(
    draft: ProgramDraft,
    shape: _ChainShape,
    params: MicroserviceParams,
    rng: random.Random,
) -> None:
    """The event loop: accept a request, dispatch an endpoint, repeat."""
    candidates = [(h, rng.uniform(0.6, 1.6)) for h in shape.handlers]
    draft.function(shape.main, ("accept", "loop"))
    draft.block(
        randint(rng.getrandbits, *params.instrs_per_block),
        K_INDIRECT_CALL,
        draft.table(candidates),
        load_frac=params.load_frac,
        store_frac=params.store_frac,
    )
    draft.block(
        max(2, params.instrs_per_block[0]),
        K_JUMP,
        0,
        load_frac=params.load_frac,
        store_frac=params.store_frac,
    )


def build_rpc_program(
    params: MicroserviceParams,
    seed: int,
    base_address: int = TENANT_BASE,
) -> Program:
    """Build one RPC-chain service program deterministically.

    Layout is shuffled within each tier (call-graph neighbours are not
    address neighbours), and the whole program sits at ``base_address``
    so multi-tenant mixes occupy disjoint code regions.  Functions are
    drawn into a :class:`ProgramDraft` in :attr:`_ChainShape.names` order
    and laid out by shuffling their numbers.
    """
    rng = random.Random(seed)
    shape = _ChainShape(params)
    util_cum = list(accumulate(_zipf_weights(len(shape.utils), params.zipf_s)))
    draft = ProgramDraft()
    _frontend(draft, shape, params, rng)
    for tier, numbers in enumerate(shape.tiers):
        for number in numbers:
            _tier_function(
                draft, shape.names[number], tier, shape, params, util_cum, rng
            )
    for number in shape.utils:
        _util_function(draft, shape.names[number], params, rng)
    layout = list(range(1, len(draft.names)))
    rng.shuffle(layout)
    return draft.build(shape.main, [0] + layout, base_address=base_address)


def interleave_traces(
    traces: Sequence[Trace],
    quantum: int = DEFAULT_QUANTUM,
    name: str = "multitenant",
    category: str = MICROSERVICE_CATEGORY,
    seed: int = 0,
) -> Trace:
    """Context-switch tenant traces onto one core at a seeded quantum.

    Round-robin over the tenants, each timeslice ``quantum`` +/- 25%
    (seeded jitter, as OS quanta are never exact), until every tenant
    stream is exhausted.  Slices preserve each tenant's retire order, so
    the result is exactly what one core retires while the OS schedules
    the tenants — the L1I/BTB/prefetcher state is shared and thrashed at
    every switch.  Deterministic in (traces, quantum, seed).
    """
    if not traces:
        raise ValueError("interleave_traces needs at least one tenant trace")
    if quantum < 1:
        raise ValueError(f"quantum must be >= 1, got {quantum}")
    rng = random.Random(seed)
    cursors = [0] * len(traces)
    merged = Trace(name, category=category)
    switches = 0
    live = [i for i, t in enumerate(traces) if len(t)]
    turn = 0
    while live:
        idx = live[turn % len(live)]
        tenant = traces[idx]
        jitter = rng.uniform(0.75, 1.25)
        take = max(1, int(quantum * jitter))
        start = cursors[idx]
        end = min(start + take, len(tenant))
        merged.extend(tenant[start:end])
        cursors[idx] = end
        switches += 1
        if end >= len(tenant):
            pos = live.index(idx)
            live.pop(pos)
            # Keep rotating from the same position in the shrunken ring.
            turn = pos
        else:
            turn += 1
    return merged


def make_microservice_workload(spec) -> Trace:
    """Materialize a ``microservice``-category spec into a trace.

    ``spec.tenants`` names the services sharing the core (1-4 entries
    from :data:`MICROSERVICE_PARAMS`); ``None`` picks a seeded mix of
    2-4.  Each tenant's program is laid out in its own address region
    and executed for an equal share of ``spec.n_instructions``; the
    shares are interleaved at a seeded quantum.  Deterministic in the
    spec, like every other workload.
    """
    rng = random.Random(spec.seed ^ 0x5EED_0C5)
    tenants = spec.tenants
    if tenants is None:
        count = randint(rng.getrandbits, 2, min(4, len(SERVICE_NAMES)))
        tenants = tuple(rng.sample(SERVICE_NAMES, count))
    if not tenants:
        raise ValueError("a microservice workload needs at least one tenant")
    for service in tenants:
        if service not in MICROSERVICE_PARAMS:
            raise ValueError(
                f"unknown microservice {service!r} "
                f"(choose from {SERVICE_NAMES})"
            )
    share = max(1, spec.n_instructions // len(tenants))
    tenant_traces: List[Trace] = []
    for i, service in enumerate(tenants):
        params = MICROSERVICE_PARAMS[service]
        program = build_rpc_program(
            params,
            seed=spec.seed * 31 + i,
            base_address=TENANT_BASE + i * TENANT_STRIDE,
        )
        tenant_traces.append(
            generate_trace(
                program,
                n_instructions=share,
                name=f"{spec.name}:{service}",
                category=MICROSERVICE_CATEGORY,
                seed=spec.seed * 131 + 7919 * (i + 1),
                max_call_depth=params.call_depth,
            )
        )
    if len(tenant_traces) == 1:
        single = tenant_traces[0][: spec.n_instructions]
        single.name = spec.name
        return single
    quantum = max(1_000, int(DEFAULT_QUANTUM * rng.uniform(0.5, 1.5)))
    merged = interleave_traces(
        tenant_traces,
        quantum=quantum,
        name=spec.name,
        category=MICROSERVICE_CATEGORY,
        seed=spec.seed ^ 0x7EA_A17,
    )
    return merged[: spec.n_instructions]


def microservice_suite(
    per_service: int = 1,
    n_instructions: int = 300_000,
    mixes: Optional[Sequence[Tuple[str, ...]]] = None,
) -> List:
    """The microservice evaluation suite.

    ``per_service`` single-tenant workloads per service preset, plus the
    multi-tenant ``mixes`` (default: one 2-way, one 3-way, and one 4-way
    mix) — every spec carries the first-class ``microservice`` category
    recognized by suites, figure drivers, reporting, and ``repro gen``.
    """
    from repro.workloads.generators import WorkloadSpec

    if mixes is None:
        mixes = (
            ("social", "search"),
            ("media", "bank", "social"),
            ("social", "search", "media", "bank"),
        )
    specs: List[WorkloadSpec] = []
    for s, service in enumerate(SERVICE_NAMES):
        for i in range(per_service):
            specs.append(
                WorkloadSpec(
                    name=f"msvc_{service}_{i:02d}",
                    category=MICROSERVICE_CATEGORY,
                    seed=20_000 + 100 * s + i,
                    n_instructions=n_instructions,
                    tenants=(service,),
                )
            )
    for m, mix in enumerate(mixes):
        specs.append(
            WorkloadSpec(
                name=f"msvc_mix{len(mix)}_{m:02d}",
                category=MICROSERVICE_CATEGORY,
                seed=25_000 + 17 * m,
                n_instructions=n_instructions,
                tenants=tuple(mix),
            )
        )
    return specs
