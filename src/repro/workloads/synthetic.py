"""Execution of CFG programs into instruction traces.

:class:`CfgInterpreter` performs a seeded stochastic walk over a
:class:`~repro.workloads.cfg.Program`: conditional branches are taken with
their configured probability, indirect transfers pick a weighted candidate,
calls push a software return stack, and a return from the entry function
restarts the program (modelling a server event loop).  The walk appends
retire-order records to the columns of a
:class:`~repro.workloads.trace.Trace`.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
from itertools import accumulate
from typing import Callable, Dict, List, Tuple

from repro.workloads.cfg import (
    DATA_REGION_SIZE,
    INSTRUCTION_SIZE,
    K_CALL,
    K_COND,
    K_FALLTHROUGH,
    K_INDIRECT_JUMP,
    K_JUMP,
    K_RETURN,
    Program,
)
from repro.workloads.trace import (
    FLAG_LOAD,
    FLAG_STORE,
    FLAG_TAKEN,
    BranchType,
    Trace,
)

_SHARED_REGION_BASE = 0x20_0000_0000
_SHARED_REGION_SIZE = 4 * 1024 * 1024

#: Terminator flag bytes (see :class:`~repro.workloads.trace.Trace`);
#: every transfer but a not-taken conditional is taken.
_COND = int(BranchType.CONDITIONAL)
_COND_TAKEN = _COND | FLAG_TAKEN
_DIRECT_JUMP = int(BranchType.DIRECT_JUMP) | FLAG_TAKEN
_INDIRECT_JUMP = int(BranchType.INDIRECT_JUMP) | FLAG_TAKEN
_DIRECT_CALL = int(BranchType.DIRECT_CALL) | FLAG_TAKEN
_INDIRECT_CALL = int(BranchType.INDIRECT_CALL) | FLAG_TAKEN
_RETURN = int(BranchType.RETURN) | FLAG_TAKEN


def randint(getrandbits: Callable[[int], int], lo: int, hi: int) -> int:
    """``Random.randint(lo, hi)``, draw for draw, in one call.

    ``getrandbits`` is the generator's bound method.  CPython's
    ``randint``, ``randrange`` and ``choice`` all reduce to
    ``Random._randbelow(n)``: draw ``n.bit_length()`` bits and redraw while
    the value is ``>= n``.  This replays that for ``n = hi - lo + 1``, so
    every draw keeps its order and value: ``seq[randint(bits, 0,
    len(seq) - 1)]`` is ``rng.choice(seq)``.  The generated traces depend
    on it; see DESIGN.md section 13.
    """
    n = hi - lo + 1
    if n <= 0:
        raise ValueError(f"empty range for randint({lo}, {hi})")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return lo + r


class CfgInterpreter:
    """Walks a program's CFG emitting a retire-order instruction stream.

    The walk reads the program's block columns and keeps its position as
    a block index.

    Args:
        program: the laid-out program.
        seed: RNG seed; the walk is fully deterministic given the seed.
        max_call_depth: calls beyond this depth are demoted to plain
            (non-branch) instructions, bounding the software stack the
            same way real servers bound recursion.
    """

    def __init__(
        self, program: Program, seed: int = 0, max_call_depth: int = 24
    ) -> None:
        self.program = program
        self.rng = random.Random(seed)
        self.max_call_depth = max_call_depth
        # The block each outstanding call resumes at; -1 where the call
        # was its function's last block.
        self._stack: List[int] = []
        self._block = program.entry_block
        self._restarts = 0
        # Candidate row -> (blocks, cumulative weights, total weight).
        self._choices: Dict[int, Tuple[List[int], List[float], float]] = {}

    @property
    def restarts(self) -> int:
        """How many times the walk returned from the entry and restarted."""
        return self._restarts

    def run(self, n_instructions: int) -> Trace:
        """Emit at least ``n_instructions`` records (rounded up to a block)
        as an unnamed trace.

        Body instructions are loads with probability ``load_frac``, stores
        with ``store_frac``; their data address is mostly in the
        function's own region, sometimes in the shared one.  Each block
        extends the columns with its pcs and zeroed flags, targets and
        data addresses, then fills in its memory instructions and
        terminator.
        """
        trace = Trace("")
        pcs, _sizes, flags, targets, data = trace.columns()
        program = self.program
        starts = program.start
        sizes = program.size
        kinds = program.kind
        block_targets = program.target
        probs = program.prob
        last = program.last
        owner = program.owner
        loads = program.load_frac
        stores = program.store_frac
        regions = program.func_region
        stack = self._stack
        max_depth = self.max_call_depth
        random_ = self.rng.random
        bits = self.rng.getrandbits
        # The data-address draws inline ``randint(bits, 0, n - 1)``.
        own_n = DATA_REGION_SIZE
        own_k = own_n.bit_length()
        shared_n = _SHARED_REGION_SIZE
        shared_k = shared_n.bit_length()
        b = self._block
        while len(pcs) < n_instructions:
            kind = kinds[b]
            base = starts[b]
            n = sizes[b]
            body = n if kind == K_FALLTHROUGH else n - 1
            first = len(pcs)
            pcs.extend(range(base, base + n * INSTRUCTION_SIZE, INSTRUCTION_SIZE))
            flags.frombytes(bytes(n))
            targets.frombytes(bytes(8 * n))
            data.frombytes(bytes(8 * n))
            load_frac = loads[b]
            mem_frac = load_frac + stores[b]
            region = regions[owner[b]]
            for i in range(first, first + body):
                roll = random_()
                is_load = roll < load_frac
                if is_load or roll < mem_frac:
                    if random_() < 0.8:
                        r = bits(own_k)
                        while r >= own_n:
                            r = bits(own_k)
                        addr = region + r
                    else:
                        r = bits(shared_k)
                        while r >= shared_n:
                            r = bits(shared_k)
                        addr = _SHARED_REGION_BASE + r
                    data[i] = addr & ~0x7
                    flags[i] = FLAG_LOAD if is_load else FLAG_STORE
            if kind == K_FALLTHROUGH:
                # Falling off a function's last block is an implicit return.
                b = b + 1 if not last[b] else self._unwind()
                continue
            i = first + body  # the terminator
            if kind == K_COND:
                dest = block_targets[b]
                targets[i] = starts[dest]
                if random_() < probs[b]:
                    flags[i] = _COND_TAKEN
                    b = dest
                else:
                    flags[i] = _COND
                    b = b + 1 if not last[b] else self._unwind()
            elif kind == K_JUMP:
                b = block_targets[b]
                flags[i] = _DIRECT_JUMP
                targets[i] = starts[b]
            elif kind == K_INDIRECT_JUMP:
                b = self._weighted_choice(block_targets[b])
                flags[i] = _INDIRECT_JUMP
                targets[i] = starts[b]
            elif kind == K_RETURN:
                b = self._unwind()
                flags[i] = _RETURN
                targets[i] = starts[b]
            else:
                if kind == K_CALL:
                    callee, call_flags = block_targets[b], _DIRECT_CALL
                else:
                    callee = self._weighted_choice(block_targets[b])
                    call_flags = _INDIRECT_CALL
                if len(stack) >= max_depth:
                    # Depth-bounded: demote the call to a plain
                    # instruction and continue with the fall-through block.
                    b = b + 1 if not last[b] else self._unwind()
                else:
                    stack.append(-1 if last[b] else b + 1)
                    b = callee
                    flags[i] = call_flags
                    targets[i] = starts[b]
        self._block = b
        trace.size.extend(array("I", [INSTRUCTION_SIZE]) * len(pcs))
        return trace

    def _unwind(self) -> int:
        """The block to resume at: after the innermost call that has a block
        left in its function; returning from the entry function restarts
        the event loop."""
        stack = self._stack
        while stack:
            resume = stack.pop()
            if resume >= 0:
                return resume
            # The call was the caller's last block: keep unwinding.
        self._restarts += 1
        return self.program.entry_block

    def _weighted_choice(self, row: int) -> int:
        """Pick a block of candidate row ``row`` with probability
        proportional to its weight."""
        choice = self._choices.get(row)
        if choice is None:
            pairs = self.program.candidates[row]
            weights = [w for _b, w in pairs]
            choice = self._choices[row] = (
                [b for b, _w in pairs],
                list(accumulate(weights, initial=0.0))[1:],
                sum(weights),
            )
        blocks, cumulative, total = choice
        pick = bisect_right(cumulative, self.rng.random() * total)
        return blocks[pick] if pick < len(blocks) else blocks[-1]


def generate_trace(
    program: Program,
    n_instructions: int,
    name: str,
    category: str = "unknown",
    seed: int = 0,
    max_call_depth: int = 24,
) -> Trace:
    """Interpret ``program`` and return a trace of ``n_instructions`` records."""
    interp = CfgInterpreter(program, seed=seed, max_call_depth=max_call_depth)
    trace = interp.run(n_instructions)[:n_instructions]
    trace.name = name
    trace.category = category
    return trace
