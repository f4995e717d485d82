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
import zlib
from array import array
from typing import Callable, Dict, List, Sequence, Tuple

from repro.workloads.cfg import (
    INSTRUCTION_SIZE,
    BasicBlock,
    Program,
    Terminator,
    TermKind,
)
from repro.workloads.trace import (
    FLAG_LOAD,
    FLAG_STORE,
    FLAG_TAKEN,
    BranchType,
    Trace,
)

_DATA_REGION_BASE = 0x10_0000_0000
_DATA_REGION_SIZE = 32 * 1024
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


#: Per-function walk tables: blocks, block start addresses, label ->
#: block index, and the base of the function's data region.
_Frame = Tuple[List[BasicBlock], List[int], Dict[str, int], int]


class CfgInterpreter:
    """Walks a program's CFG emitting a retire-order instruction stream.

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
        # Call stack of (function name, resume block index).
        self._stack: List[Tuple[str, int]] = []
        self._func = program.entry
        self._block_idx = 0
        self._restarts = 0
        self._frames: Dict[str, _Frame] = {}

    @property
    def restarts(self) -> int:
        """How many times the walk returned from the entry and restarted."""
        return self._restarts

    def _frame(self, name: str) -> _Frame:
        frame = self._frames.get(name)
        if frame is None:
            func = self.program.functions[name]
            # Stable per-function data region id (process-independent,
            # unlike the built-in str hash which varies with PYTHONHASHSEED).
            region = zlib.crc32(name.encode()) & 0xFFFF
            frame = self._frames[name] = (
                func.blocks,
                self.program.block_addresses(name),
                func.label_index,
                _DATA_REGION_BASE + region * _DATA_REGION_SIZE,
            )
        return frame

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
        random_ = self.rng.random
        bits = self.rng.getrandbits
        while len(pcs) < n_instructions:
            frame = self._frame(self._func)
            blocks, bases, _labels, region = frame
            block = blocks[self._block_idx]
            term = block.terminator
            has_branch = term.kind is not TermKind.FALLTHROUGH
            base = bases[self._block_idx]
            n = block.n_instructions
            body = n - 1 if has_branch else n
            start = len(pcs)
            pcs.extend(range(base, base + n * INSTRUCTION_SIZE, INSTRUCTION_SIZE))
            flags.frombytes(bytes(n))
            targets.frombytes(bytes(8 * n))
            data.frombytes(bytes(8 * n))
            load_frac = block.load_frac
            mem_frac = load_frac + block.store_frac
            for i in range(start, start + body):
                roll = random_()
                is_load = roll < load_frac
                if is_load or roll < mem_frac:
                    if random_() < 0.8:
                        addr = region + randint(bits, 0, _DATA_REGION_SIZE - 1)
                    else:
                        addr = _SHARED_REGION_BASE + randint(
                            bits, 0, _SHARED_REGION_SIZE - 1
                        )
                    data[i] = addr & ~0x7
                    flags[i] = FLAG_LOAD if is_load else FLAG_STORE
            if has_branch:
                flags[start + body], targets[start + body] = self._terminate(
                    frame, term
                )
            else:
                self._advance_fallthrough(blocks)
        trace.size.extend(array("I", [INSTRUCTION_SIZE]) * len(pcs))
        return trace

    # -- terminators ---------------------------------------------------------

    def _terminate(self, frame: _Frame, term: Terminator) -> Tuple[int, int]:
        """Transfer control past ``term``; returns the terminator's
        ``(flags, target)``, ``(0, 0)`` for a call demoted to a plain
        instruction."""
        blocks, bases, labels, _region = frame
        kind = term.kind
        if kind is TermKind.COND:
            taken = self.rng.random() < term.taken_prob
            target_idx = labels[term.target]
            if taken:
                self._block_idx = target_idx
                return _COND_TAKEN, bases[target_idx]
            self._advance_fallthrough(blocks)
            return _COND, bases[target_idx]
        if kind is TermKind.JUMP:
            self._block_idx = labels[term.target]
            return _DIRECT_JUMP, bases[self._block_idx]
        if kind is TermKind.INDIRECT_JUMP:
            self._block_idx = labels[self._weighted_choice(term.candidates)]
            return _INDIRECT_JUMP, bases[self._block_idx]
        if kind is TermKind.CALL:
            return self._do_call(blocks, term.target, _DIRECT_CALL)
        if kind is TermKind.INDIRECT_CALL:
            callee = self._weighted_choice(term.candidates)
            return self._do_call(blocks, callee, _INDIRECT_CALL)
        if kind is TermKind.RETURN:
            self._unwind()
            return _RETURN, self.program.block_addresses(self._func)[self._block_idx]
        raise AssertionError(f"unhandled terminator {term.kind}")

    def _do_call(
        self, blocks: List[BasicBlock], callee: str, flags: int
    ) -> Tuple[int, int]:
        if len(self._stack) >= self.max_call_depth:
            # Depth-bounded: demote the call to a plain instruction and
            # continue with the fall-through block.
            self._advance_fallthrough(blocks)
            return 0, 0
        self._stack.append((self._func, self._block_idx + 1))
        self._func = callee
        self._block_idx = 0
        return flags, self.program.function_address(callee)

    # -- helpers -------------------------------------------------------------

    def _advance_fallthrough(self, blocks: List[BasicBlock]) -> None:
        if self._block_idx + 1 < len(blocks):
            self._block_idx += 1
        else:
            # Implicit return at the end of the function.
            self._unwind()

    def _unwind(self) -> None:
        """Resume the innermost caller that has a block left after its
        call; returning from the entry function restarts the event loop."""
        functions = self.program.functions
        while self._stack:
            caller, resume_idx = self._stack.pop()
            if resume_idx < len(functions[caller].blocks):
                self._func = caller
                self._block_idx = resume_idx
                return
            # The call was the caller's last block: keep unwinding.
        self._restarts += 1
        self._func = self.program.entry
        self._block_idx = 0

    def _weighted_choice(self, candidates: Sequence[Tuple[str, float]]) -> str:
        total = sum(w for _c, w in candidates)
        roll = self.rng.random() * total
        acc = 0.0
        for cand, weight in candidates:
            acc += weight
            if roll < acc:
                return cand
        return candidates[-1][0]


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
