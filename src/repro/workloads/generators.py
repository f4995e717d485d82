"""Random program generation tuned per CVP workload category.

The paper's evaluation uses proprietary Qualcomm CVP traces grouped as
``crypto``, ``int`` (compute int), ``fp`` (compute fp), and ``srv`` (server),
selected so each shows at least 1 L1I MPKI on the no-prefetch baseline.  We
substitute seeded random CFG programs structured like server software:

* an *event loop* entry function that indirect-calls one of ``n_handlers``
  handler functions per iteration (a request dispatcher);
* per-handler subtrees of *internal* functions (code locality: a handler
  calls mostly its own segment of the program);
* a pool of *shared utility* functions called from everywhere with Zipf
  popularity (the hot common code).

Because the dispatcher cycles through all handlers, the instruction
footprint reliably exceeds the L1I while every path recurs often enough
for prefetchers to train — the regime the paper studies.  Per-category
knobs reproduce the properties the paper reports:

* ``srv`` — the largest footprints, many small functions, deep call
  chains, indirect calls, smallest basic blocks (Fig 14).
* ``fp``  — long straight-line loop bodies: the largest basic blocks and
  the most prefetches per Entangled-table hit (Fig 14/15).
* ``int`` — medium footprint, branchy integer control flow.
* ``crypto`` — unrolled round functions: large blocks, highly
  compressible entangled destinations (Fig 12).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Dict, List, Optional, Sequence, Tuple

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
from repro.workloads.synthetic import generate_trace, randint
from repro.workloads.trace import Trace

CATEGORIES = ("crypto", "int", "fp", "srv")

#: Every category ``make_workload`` can generate directly: the four CVP
#: stand-ins plus the cloud-microservice family (kept out of
#: :data:`CATEGORIES` so existing cvp_suite results keep their identity).
ALL_CATEGORIES = CATEGORIES + ("microservice",)


@dataclass(frozen=True)
class ProgramParams:
    """Knobs controlling random program generation.

    Attributes:
        n_funcs: total number of functions (dispatcher + handlers +
            internals + shared utilities).
        n_handlers: handler functions reachable from the dispatcher.
        shared_utils: size of the Zipf-popular shared-utility pool.
        blocks_per_func: inclusive (min, max) block count per function.
        instrs_per_block: inclusive (min, max) instruction count per block.
        loop_prob: probability a block's terminator is a backward
            conditional (a loop back edge).
        loop_taken_prob: taken probability for back edges (mean trip count
            is ``1 / (1 - loop_taken_prob)``).
        cond_prob: probability of a forward conditional skip.
        call_prob: probability of a call terminator.
        indirect_frac: fraction of calls through a pointer.
        cond_bias_choices: taken probabilities for forward conditionals;
            values near 0.5 create branch mispredictions.
        zipf_s: skew of shared-utility popularity.
        load_frac / store_frac: memory-instruction density.
    """

    n_funcs: int = 160
    n_handlers: int = 16
    shared_utils: int = 12
    blocks_per_func: Tuple[int, int] = (4, 12)
    instrs_per_block: Tuple[int, int] = (4, 16)
    loop_prob: float = 0.10
    loop_taken_prob: float = 0.85
    cond_prob: float = 0.30
    call_prob: float = 0.22
    indirect_frac: float = 0.10
    cond_bias_choices: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9)
    zipf_s: float = 1.2
    load_frac: float = 0.25
    store_frac: float = 0.10
    max_call_depth: int = 6

    def __post_init__(self) -> None:
        minimum = 1 + self.n_handlers + self.shared_utils + 1
        if self.n_funcs < minimum:
            raise ValueError(
                f"n_funcs={self.n_funcs} too small for {self.n_handlers} "
                f"handlers and {self.shared_utils} shared utilities"
            )
        check_params(
            self,
            probabilities=("loop_prob", "loop_taken_prob", "cond_prob",
                           "call_prob", "indirect_frac"),
            ranges=("blocks_per_func", "instrs_per_block"),
        )


def check_params(
    params: Any, probabilities: Tuple[str, ...], ranges: Tuple[str, ...]
) -> None:
    """Reject bad generator knobs when the params are built, naming the
    field, instead of when a draw first hits one.

    Checks each of ``probabilities`` and every ``cond_bias_choices`` entry
    are in [0, 1], each of ``ranges`` is an ``(lo, hi)`` pair with
    ``1 <= lo <= hi``, and ``load_frac + store_frac <= 1``.
    """
    kind = type(params).__name__
    for name in probabilities + ("load_frac", "store_frac"):
        value = getattr(params, name)
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{kind}.{name}={value!r} is not in [0, 1]")
    biases = params.cond_bias_choices
    if not biases or not all(0.0 <= bias <= 1.0 for bias in biases):
        raise ValueError(
            f"{kind}.cond_bias_choices={biases!r} must be one or more "
            "probabilities in [0, 1]"
        )
    for name in ranges:
        lo, hi = getattr(params, name)
        if not 1 <= lo <= hi:
            raise ValueError(
                f"{kind}.{name}={(lo, hi)!r} needs 1 <= lo <= hi"
            )
    if params.load_frac + params.store_frac > 1.0:
        raise ValueError(f"{kind}: load_frac + store_frac must not exceed 1.0")


class _ProgramShape:
    """Partition of the function list into dispatcher/handlers/utils/internals."""

    def __init__(self, params: ProgramParams) -> None:
        self.names = [f"f{idx:03d}" for idx in range(params.n_funcs)]
        #: Function name -> number, its position in ``names``.
        self.number = {name: i for i, name in enumerate(self.names)}
        self.main = self.names[0]
        self.handlers = self.names[1 : 1 + params.n_handlers]
        utils_start = 1 + params.n_handlers
        self.utils = self.names[utils_start : utils_start + params.shared_utils]
        self.internals = self.names[utils_start + params.shared_utils :]
        # Contiguous internal segment per handler (code locality).
        self.segment: Dict[str, List[str]] = {}
        n_handlers = len(self.handlers)
        per_handler = max(1, len(self.internals) // max(1, n_handlers))
        for i, handler in enumerate(self.handlers):
            start = i * per_handler
            end = len(self.internals) if i == n_handlers - 1 else start + per_handler
            self.segment[handler] = self.internals[start:end]
        # Function name -> its segment: a handler's own, else the first
        # segment holding the name; anything else falls back to internals.
        self._segment_by_name: Dict[str, List[str]] = {}
        for members in self.segment.values():
            for member in members:
                self._segment_by_name.setdefault(member, members)
        self._segment_by_name.update(self.segment)

    def segment_of(self, func_name: str) -> List[str]:
        """Internal segment a function belongs to (its handler's segment)."""
        return self._segment_by_name.get(func_name, self.internals)


def build_program(params: ProgramParams, seed: int) -> Program:
    """Generate a random dispatcher-structured program deterministically.

    The *layout* order of functions is shuffled: call-graph neighbours are
    not address-space neighbours, as in real binaries without profile-
    guided layout.  This is what makes purely spatial prefetching (next
    line, aggressive block merging) pay an accuracy cost.

    The blocks are drawn straight into a :class:`ProgramDraft`, one
    function per name in :attr:`_ProgramShape.names` order, so a
    function's number is its position there.  Shuffling the numbers draws
    the same random numbers as shuffling functions would (DESIGN.md
    section 13).
    """
    rng = random.Random(seed)
    shape = _ProgramShape(params)
    draft = ProgramDraft()
    _build_main(draft, shape, params, rng)
    for name in shape.handlers:
        _build_handler(draft, name, shape, params, rng)
    _build_functions(draft, shape, params, rng)
    layout = list(range(1, len(draft.names)))
    rng.shuffle(layout)
    return draft.build(shape.main, [0] + layout)


def _zipf_weights(n: int, s: float) -> List[float]:
    return [1.0 / (rank + 1) ** s for rank in range(max(1, n))]


def _build_main(
    draft: ProgramDraft,
    shape: _ProgramShape,
    params: ProgramParams,
    rng: random.Random,
) -> None:
    """The event loop: dispatch to a handler, then loop forever."""
    number = shape.number
    candidates = [(number[h], rng.uniform(0.6, 1.6)) for h in shape.handlers]
    draft.function(shape.main, ("dispatch", "loop"))
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


def _build_functions(
    draft: ProgramDraft,
    shape: _ProgramShape,
    params: ProgramParams,
    rng: random.Random,
) -> None:
    """The shared utilities, then the internals, in name order.

    Program generation spends most of its time here, one terminator per
    block, so everything the loop reads is hoisted into locals and each
    block is appended to the draft's columns directly.  Every draw keeps
    its order and value (DESIGN.md section 13).
    """
    random_ = rng.random
    bits = rng.getrandbits
    number = shape.number
    utils = [number[name] for name in shape.utils]
    internals = [number[name] for name in shape.internals]
    util_cum = list(accumulate(_zipf_weights(len(utils), params.zipf_s)))
    # ``rng.choices(utils, cum_weights=util_cum)[0]``, as CPython draws it.
    util_total = util_cum[-1] + 0.0 if utils else 0.0
    util_hi = len(utils) - 1
    # ``randint(bits, lo, hi)`` is inlined below: redraw n.bit_length()
    # bits while the value is >= n, for n = hi - lo + 1.
    blocks_lo, blocks_hi = params.blocks_per_func
    blocks_n = blocks_hi - blocks_lo + 1
    blocks_k = blocks_n.bit_length()
    instrs_lo, instrs_hi = params.instrs_per_block
    instrs_n = instrs_hi - instrs_lo + 1
    instrs_k = instrs_n.bit_length()
    loop_prob = params.loop_prob
    loop_taken_prob = params.loop_taken_prob
    cond_prob = params.cond_prob
    call_prob = params.call_prob
    indirect_frac = params.indirect_frac
    biases = params.cond_bias_choices
    load_frac = params.load_frac
    store_frac = params.store_frac
    add_size = draft.size.append
    add_kind = draft.kind.append
    add_target = draft.target.append
    add_prob = draft.prob.append
    table = draft.table
    # Each distinct segment list, as function numbers.
    segments: Dict[int, List[int]] = {}

    def pick_callees(caller: int, segment: List[int], k: int) -> List[int]:
        """Pick ``k`` distinct callees: mostly the caller's own segment,
        with a Zipf-weighted chance of a shared utility."""
        chosen: List[int] = []
        seen = {caller}
        attempts = 0
        pool = segment or internals or utils or [caller]
        pool_n = len(pool)
        pool_k = pool_n.bit_length()
        while len(chosen) < k and attempts < 40:
            attempts += 1
            if utils and random_() < 0.35:
                cand = utils[bisect_right(util_cum, random_() * util_total, 0, util_hi)]
            else:
                r = bits(pool_k)
                while r >= pool_n:
                    r = bits(pool_k)
                cand = pool[r]
            if cand in seen:
                continue
            seen.add(cand)
            chosen.append(cand)
        if not chosen:
            chosen.append(utils[0] if utils else internals[0])
        return chosen

    for name in shape.utils + shape.internals:
        caller = number[name]
        names = shape.segment_of(name)
        segment = segments.get(id(names))
        if segment is None:
            segment = segments[id(names)] = [number[n] for n in names]
        draft.function(name)
        r = bits(blocks_k)
        while r >= blocks_n:
            r = bits(blocks_k)
        n_blocks = blocks_lo + r
        last = n_blocks - 1
        for b in range(n_blocks):
            r = bits(instrs_k)
            while r >= instrs_n:
                r = bits(instrs_k)
            add_size(instrs_lo + r)
            if b == last:
                add_kind(K_RETURN)
                add_target(0)
                add_prob(0.5)
                continue
            roll = random_()
            if roll < loop_prob:
                # Self-loop: re-execute this block with probability
                # loop_taken_prob (mean trip count 1/(1-p)).  Self-loops
                # keep per-function dwell time bounded — back edges to
                # earlier blocks would nest loops multiplicatively and let
                # one function absorb the whole trace.
                add_kind(K_COND)
                add_target(b)
                add_prob(loop_taken_prob)
                continue
            roll -= loop_prob
            if roll < cond_prob and b + 2 < n_blocks:
                add_kind(K_COND)
                add_target(randint(bits, b + 1, n_blocks - 1))
                add_prob(biases[randint(bits, 0, len(biases) - 1)])
                continue
            roll -= cond_prob
            if roll < call_prob:
                if random_() < indirect_frac:
                    callees = pick_callees(caller, segment, 3)
                    weights = [10.0] + [1.0] * (len(callees) - 1)
                    add_kind(K_INDIRECT_CALL)
                    add_target(table(list(zip(callees, weights))))
                else:
                    add_kind(K_CALL)
                    add_target(pick_callees(caller, segment, 1)[0])
            else:
                add_kind(K_FALLTHROUGH)
                add_target(0)
            add_prob(0.5)
        draft.load_frac.extend([load_frac] * n_blocks)
        draft.store_frac.extend([store_frac] * n_blocks)


def _build_handler(
    draft: ProgramDraft,
    name: str,
    shape: _ProgramShape,
    params: ProgramParams,
    rng: random.Random,
) -> None:
    """A request handler: indirect-calls across its whole internal segment.

    The segment is partitioned into slices, one call block per slice, so
    every internal function is statically reachable and repeated requests
    of the same type traverse the handler's full code footprint over time.
    """
    number = shape.number
    segment = [number[n] for n in shape.segment[name] or shape.utils or [name]]
    slice_size = 6
    slices = [segment[i : i + slice_size] for i in range(0, len(segment), slice_size)]
    draft.function(name)
    for chunk in slices:
        # One dominant callee per slice: real dispatch sites have a hot
        # common case, which gives prefetchers a recurring path to learn,
        # plus occasional cold alternatives.
        weights = [12.0] + [1.0] * (len(chunk) - 1)
        order = list(range(len(chunk)))
        rng.shuffle(order)
        candidates = [(chunk[i], weights[rank]) for rank, i in enumerate(order)]
        draft.block(
            randint(rng.getrandbits, *params.instrs_per_block),
            K_INDIRECT_CALL,
            draft.table(candidates),
            load_frac=params.load_frac,
            store_frac=params.store_frac,
        )
    draft.block(
        randint(rng.getrandbits, *params.instrs_per_block),
        K_RETURN,
        load_frac=params.load_frac,
        store_frac=params.store_frac,
    )


#: Per-category parameter presets.  ``n_funcs`` x mean function size sets the
#: instruction footprint; block-size ranges set the basic-block statistics
#: the paper reports in Figures 12-15.
CATEGORY_PARAMS: Dict[str, ProgramParams] = {
    "crypto": ProgramParams(
        n_funcs=120,
        n_handlers=10,
        shared_utils=8,
        blocks_per_func=(3, 7),
        instrs_per_block=(16, 56),
        loop_prob=0.14,
        loop_taken_prob=0.80,
        cond_prob=0.08,
        call_prob=0.46,
        indirect_frac=0.02,
        cond_bias_choices=(0.05, 0.1, 0.9, 0.95),
        zipf_s=0.8,
        max_call_depth=4,
    ),
    "int": ProgramParams(
        n_funcs=800,
        n_handlers=26,
        shared_utils=18,
        blocks_per_func=(4, 13),
        instrs_per_block=(4, 20),
        loop_prob=0.10,
        loop_taken_prob=0.85,
        cond_prob=0.28,
        call_prob=0.26,
        indirect_frac=0.08,
        cond_bias_choices=(0.1, 0.3, 0.5, 0.7, 0.9),
        zipf_s=1.1,
        max_call_depth=5,
    ),
    "fp": ProgramParams(
        n_funcs=230,
        n_handlers=14,
        shared_utils=10,
        blocks_per_func=(3, 7),
        instrs_per_block=(24, 96),
        loop_prob=0.16,
        loop_taken_prob=0.85,
        cond_prob=0.10,
        call_prob=0.42,
        indirect_frac=0.03,
        cond_bias_choices=(0.05, 0.1, 0.9),
        zipf_s=1.0,
        max_call_depth=4,
    ),
    "srv": ProgramParams(
        n_funcs=2600,
        n_handlers=40,
        shared_utils=30,
        blocks_per_func=(3, 10),
        instrs_per_block=(3, 14),
        loop_prob=0.05,
        loop_taken_prob=0.80,
        cond_prob=0.28,
        call_prob=0.40,
        indirect_frac=0.16,
        cond_bias_choices=(0.1, 0.2, 0.5, 0.8, 0.9),
        zipf_s=0.9,
        max_call_depth=4,
    ),
}


#: Default trace lengths per category: sized so each category's footprint
#: is fully traversed a few times (srv needs the longest traces to pressure
#: the 2K-entry Entangled table the way the paper's server traces do).
DEFAULT_INSTRUCTIONS: Dict[str, int] = {
    "crypto": 300_000,
    "int": 400_000,
    "fp": 400_000,
    "srv": 500_000,
}


@dataclass(frozen=True)
class WorkloadSpec:
    """Identity of one workload.

    ``make_workload`` turns a spec into a concrete :class:`Trace`; equal
    specs always generate identical traces.  Three kinds of spec share
    the type (so suites, sweeps, caching, and parallel workers treat
    them uniformly):

    * *synthetic* — the default; ``category`` picks the generator preset.
    * *microservice* — ``category == "microservice"``; ``tenants`` names
      the 1-4 services context-switched onto the core (``None`` draws a
      seeded mix).
    * *external* — ``trace_file`` points at an on-disk trace (our binary
      format, text, or ChampSim); the file's content is the workload and
      the generator knobs are unused.  Run keys include a digest of the
      file's bytes and the per-process trace memos key on its size,
      mtime and inode, so a file overwritten between runs is not served
      the old file's results (DESIGN §13 names the narrow exceptions).
    """

    name: str
    category: str
    seed: int
    n_instructions: int = 200_000
    params: Optional[ProgramParams] = None
    trace_file: Optional[str] = None
    tenants: Optional[Tuple[str, ...]] = None

    def resolve_params(self) -> ProgramParams:
        if self.params is not None:
            return self.params
        if self.category not in CATEGORY_PARAMS:
            raise ValueError(f"unknown category {self.category!r}")
        return CATEGORY_PARAMS[self.category]


def cvp_suite(
    per_category: int = 6, n_instructions: Optional[int] = None
) -> List[WorkloadSpec]:
    """The default evaluation suite: ``per_category`` workloads per category.

    Stands in for the paper's 959 CVP traces; seeds vary both the program
    shape and the execution path.
    """
    specs: List[WorkloadSpec] = []
    for category in CATEGORIES:
        for i in range(per_category):
            length = (
                n_instructions
                if n_instructions is not None
                else DEFAULT_INSTRUCTIONS[category]
            )
            specs.append(
                WorkloadSpec(
                    name=f"{category}_{i:02d}",
                    category=category,
                    seed=1000 * (CATEGORIES.index(category) + 1) + i,
                    n_instructions=length,
                )
            )
    return specs


def make_workload(spec: WorkloadSpec) -> Trace:
    """Materialize the trace for ``spec`` (deterministic in the spec).

    Dispatches on the spec kind: external trace files load through
    :mod:`repro.workloads.importers` (format auto-detected),
    ``microservice`` specs go through the multi-tenant RPC-chain
    generator, and everything else is a synthetic CFG program.
    """
    if spec.trace_file is not None:
        # Imported lazily: importers depends on this module for specs.
        from repro.workloads.importers import load_external_trace

        trace = load_external_trace(
            spec.trace_file, name=spec.name, category=spec.category
        )
        if spec.n_instructions and len(trace) > spec.n_instructions:
            trace = trace[: spec.n_instructions]
        return trace
    if spec.category == "microservice" or spec.tenants is not None:
        from repro.workloads.microservice import make_microservice_workload

        return make_microservice_workload(spec)
    params = spec.resolve_params()
    program = build_program(params, seed=spec.seed)
    return generate_trace(
        program,
        n_instructions=spec.n_instructions,
        name=spec.name,
        category=spec.category,
        seed=spec.seed + 7919,
        max_call_depth=params.max_call_depth,
    )


def workload_names(specs: Sequence[WorkloadSpec]) -> List[str]:
    return [spec.name for spec in specs]
