"""Control-flow-graph program model for synthetic workload generation.

A :class:`Program` is a struct of block columns in layout order: one
entry per basic block for its start address, instruction count,
terminator kind and target, and so on.  Programs are laid out in a flat
virtual address space (4-byte instructions, functions placed back to back
with alignment padding), then *executed* by
:class:`repro.workloads.synthetic.CfgInterpreter` to produce a
retire-order instruction trace.

Two paths fill the columns.  The generators draw straight into a
:class:`ProgramDraft`.  Hand-written programs are authored as
:class:`Function` objects made of :class:`BasicBlock` and
:class:`Terminator` (usually through :class:`ProgramBuilder`) and compiled
into the same columns.  ``Program.functions`` turns the columns back into
those objects on demand.

This is the substitute for the proprietary CVP traces: by varying the number
of functions, block sizes, loop structure, call-graph shape, and branch bias
we obtain instruction streams whose footprint and control-flow statistics
match the paper's workload categories.
"""

from __future__ import annotations

import enum
import zlib
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import add, mul
from typing import Dict, List, Optional, Sequence, Tuple

INSTRUCTION_SIZE = 4

#: Every function gets a data region of its own, picked by a hash of its
#: name, for the loads and stores of its blocks.
DATA_REGION_BASE = 0x10_0000_0000
DATA_REGION_SIZE = 32 * 1024


class TermKind(enum.Enum):
    """How a basic block transfers control to its successor."""

    FALLTHROUGH = "fallthrough"
    COND = "cond"
    JUMP = "jump"
    INDIRECT_JUMP = "indirect_jump"
    CALL = "call"
    INDIRECT_CALL = "indirect_call"
    RETURN = "return"


#: Terminator kinds as stored in ``Program.kind``: the position in
#: :class:`TermKind`'s definition order.
KINDS = tuple(TermKind)
K_FALLTHROUGH, K_COND, K_JUMP, K_INDIRECT_JUMP, K_CALL, K_INDIRECT_CALL, K_RETURN = (
    range(len(KINDS))
)
_KIND_CODE = {kind: code for code, kind in enumerate(KINDS)}

_DIRECT_KINDS = (TermKind.COND, TermKind.JUMP, TermKind.CALL)
_INDIRECT_KINDS = (TermKind.INDIRECT_JUMP, TermKind.INDIRECT_CALL)


@dataclass
class Terminator:
    """Terminator of a basic block.

    Attributes:
        kind: transfer kind.
        target: label of the taken-path block (COND/JUMP) within the same
            function, or the callee function name (CALL).
        taken_prob: probability the conditional is taken (COND only).
        candidates: ``(name_or_label, weight)`` choices for indirect
            transfers; labels for INDIRECT_JUMP, function names for
            INDIRECT_CALL.
    """

    kind: TermKind
    target: Optional[str] = None
    taken_prob: float = 0.5
    candidates: Sequence[Tuple[str, float]] = ()

    def __post_init__(self) -> None:
        if self.kind in _DIRECT_KINDS:
            if self.target is None:
                raise ValueError(f"{self.kind} terminator requires a target")
        elif self.kind in _INDIRECT_KINDS:
            if not self.candidates:
                raise ValueError(f"{self.kind} terminator requires candidates")
        if not 0.0 <= self.taken_prob <= 1.0:
            raise ValueError(f"taken_prob out of range: {self.taken_prob}")


@dataclass
class BasicBlock:
    """A compiler-level basic block.

    Attributes:
        label: unique label within its function.
        n_instructions: number of instructions including the terminator
            branch (if any); must be >= 1 for blocks with a branching
            terminator.
        terminator: control transfer at the end of the block.
        load_frac: fraction of non-branch instructions that are loads.
        store_frac: fraction of non-branch instructions that are stores.
    """

    label: str
    n_instructions: int
    terminator: Terminator
    load_frac: float = 0.2
    store_frac: float = 0.1

    def __post_init__(self) -> None:
        if self.n_instructions < 1:
            raise ValueError("a basic block needs at least one instruction")
        if self.load_frac + self.store_frac > 1.0:
            raise ValueError("load_frac + store_frac must not exceed 1.0")


@dataclass
class Function:
    """A function: an ordered list of basic blocks, entry first.

    The blocks are fixed at construction: ``label_index`` maps each
    block label to its position.
    """

    name: str
    blocks: List[BasicBlock]
    label_index: Dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError(f"function {self.name} has no blocks")
        self.label_index = {b.label: i for i, b in enumerate(self.blocks)}
        if len(self.label_index) != len(self.blocks):
            raise ValueError(f"function {self.name} has duplicate block labels")

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[0]

    def block_index(self, label: str) -> int:
        try:
            return self.label_index[label]
        except KeyError:
            raise KeyError(
                f"function {self.name}: no block labelled {label!r}"
            ) from None

    @property
    def n_instructions(self) -> int:
        return sum(b.n_instructions for b in self.blocks)


def _default_labels(n_blocks: int) -> Tuple[str, ...]:
    return tuple(f"b{i}" for i in range(n_blocks))


class ProgramDraft:
    """A program's blocks in the order they were generated, before layout.

    Open each function with :meth:`function`, then add its blocks in
    order, with :meth:`block` or by appending one entry per block to
    ``size``, ``kind``, ``target``, ``prob``, ``load_frac`` and
    ``store_frac`` directly.  Functions are numbered in the order they
    were opened.  A block's ``target`` is local to the draft: the target
    block's offset in its own function for COND/JUMP, the callee's function
    number for CALL, a row of :attr:`candidates` for the indirect kinds,
    and 0 otherwise.  Candidate rows hold ``(offset or function number,
    weight)`` pairs.  :meth:`build` lays the functions out in any order and
    resolves every target to a block index of the :class:`Program`.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.labels: List[Optional[Tuple[str, ...]]] = []
        self.first: List[int] = []
        self.size: List[int] = []
        self.kind: List[int] = []
        self.target: List[int] = []
        self.prob: List[float] = []
        self.load_frac: List[float] = []
        self.store_frac: List[float] = []
        self.candidates: List[List[Tuple[int, float]]] = []

    def function(self, name: str, labels: Optional[Sequence[str]] = None) -> None:
        """Open function ``name``; ``labels`` default to ``b0``, ``b1``, ...."""
        self.names.append(name)
        self.labels.append(None if labels is None else tuple(labels))
        self.first.append(len(self.size))

    def table(self, rows: List[Tuple[int, float]]) -> int:
        """Add a candidate table; returns its row, an indirect block's target."""
        self.candidates.append(rows)
        return len(self.candidates) - 1

    def block(
        self,
        size: int,
        kind: int,
        target: int = 0,
        prob: float = 0.5,
        load_frac: float = 0.2,
        store_frac: float = 0.1,
    ) -> None:
        """Append one block to the open function."""
        self.size.append(size)
        self.kind.append(kind)
        self.target.append(target)
        self.prob.append(prob)
        self.load_frac.append(load_frac)
        self.store_frac.append(store_frac)

    @classmethod
    def from_functions(cls, functions: Sequence[Function]) -> "ProgramDraft":
        """Compile authoring objects, numbering functions in list order.

        Resolves labels and callee names; an unknown one is an error.
        """
        draft = cls()
        numbers = {f.name: i for i, f in enumerate(functions)}
        for func in functions:
            labels = tuple(b.label for b in func.blocks)
            if labels == _default_labels(len(labels)):
                labels = None
            draft.function(func.name, labels)
            local = func.label_index
            for block in func.blocks:
                term = block.terminator
                where = f"{func.name}/{block.label}"
                kind = term.kind
                if kind in (TermKind.COND, TermKind.JUMP):
                    target = _resolve(
                        local, term.target, where, "branch target", "not in function"
                    )
                elif kind is TermKind.CALL:
                    target = _resolve(
                        numbers, term.target, where, "callee", "not defined"
                    )
                elif kind is TermKind.INDIRECT_JUMP:
                    target = draft.table([
                        (_resolve(local, label, where, "indirect target",
                                  "not in function"), w)
                        for label, w in term.candidates
                    ])
                elif kind is TermKind.INDIRECT_CALL:
                    target = draft.table([
                        (_resolve(numbers, callee, where, "indirect callee",
                                  "not defined"), w)
                        for callee, w in term.candidates
                    ])
                else:
                    target = 0
                draft.block(
                    block.n_instructions, _KIND_CODE[kind], target,
                    term.taken_prob, block.load_frac, block.store_frac,
                )
        return draft

    def build(
        self,
        entry: str,
        order: Optional[Sequence[int]] = None,
        base_address: int = 0x40_0000,
        func_align: int = 64,
    ) -> "Program":
        """Lay the functions out in ``order`` (function numbers; default:
        the order they were opened) and return the program."""
        program = Program.__new__(Program)
        self.lay_out(program, entry, order, base_address, func_align)
        return program

    def lay_out(
        self,
        program: "Program",
        entry: str,
        order: Optional[Sequence[int]],
        base_address: int,
        func_align: int,
    ) -> None:
        """Fill ``program``'s columns (see :meth:`build`) and check them.

        Every check on a program runs here, once: unique function names and
        labels, a defined entry, block sizes, probabilities and memory
        fractions, and that every target resolves.
        """
        names = self.names
        n_funcs = len(names)
        if order is None:
            order = range(n_funcs)
        if sorted(order) != list(range(n_funcs)):
            raise ValueError("layout order must list every function once")
        bounds = self.first + [len(self.size)]
        func_name = [names[f] for f in order]
        number = {name: j for j, name in enumerate(func_name)}
        if len(number) != n_funcs:
            raise ValueError("duplicate function names")
        if entry not in number:
            raise ValueError(f"entry function {entry!r} not defined")
        func_labels = [self.labels[f] for f in order]

        # Pass 1: put each function's blocks in layout order and lay them
        # out.  ``perm`` maps each block of the program to its draft entry.
        counts = [bounds[f + 1] - bounds[f] for f in order]
        for j, count in enumerate(counts):
            labels = func_labels[j]
            if not count:
                raise ValueError(f"function {func_name[j]} has no blocks")
            if labels is not None and (
                len(labels) != count or len(set(labels)) != count
            ):
                raise ValueError(
                    f"function {func_name[j]} has duplicate or missing block labels"
                )
        perm = list(chain.from_iterable(
            range(bounds[f], bounds[f + 1]) for f in order
        ))
        size = array("I", map(self.size.__getitem__, perm))
        kind = array("B", map(self.kind.__getitem__, perm))
        prob = array("d", map(self.prob.__getitem__, perm))
        load_frac = array("d", map(self.load_frac.__getitem__, perm))
        store_frac = array("d", map(self.store_frac.__getitem__, perm))
        func_first = array("I", accumulate(counts, initial=0))
        n_blocks = func_first.pop()
        owner = array("I", chain.from_iterable(
            repeat(j, count) for j, count in enumerate(counts)
        ))
        last = array("B", bytes(n_blocks))
        for end in func_first[1:]:
            last[end - 1] = 1
        if n_blocks:
            last[-1] = 1
        # Block addresses without padding, then each function's padding.
        unpadded = list(accumulate(
            map(mul, size, repeat(INSTRUCTION_SIZE)), initial=base_address
        ))
        padding = 0
        shifts = []
        for first in func_first:
            addr = unpadded[first] + padding
            if func_align > 1 and addr % func_align:
                padding += func_align - addr % func_align
            shifts.append(padding)
        start = array("Q", map(add, unpadded, chain.from_iterable(
            repeat(shift, count) for shift, count in zip(shifts, counts)
        )))
        addr = unpadded[-1] + padding

        program.entry = entry
        program.base_address = base_address
        program.func_align = func_align
        program.code_bytes = addr - base_address
        program.start = start
        program.size = size
        program.kind = kind
        program.prob = prob
        program.last = last
        program.owner = owner
        program.load_frac = load_frac
        program.store_frac = store_frac
        program.func_name = func_name
        program.func_first = func_first
        program.func_labels = func_labels
        program.func_region = array("Q", [
            DATA_REGION_BASE
            + (zlib.crc32(name.encode()) & 0xFFFF) * DATA_REGION_SIZE
            for name in func_name
        ])
        program.entry_block = func_first[number[entry]]
        program._number = number

        if size and min(size) < 1:
            raise ValueError(
                f"{program._block_name(size.index(min(size)))}: "
                "a basic block needs at least one instruction"
            )
        if prob and not 0.0 <= min(prob) <= max(prob) <= 1.0:
            bad = next(i for i, p in enumerate(prob) if not 0.0 <= p <= 1.0)
            raise ValueError(
                f"{program._block_name(bad)}: taken_prob out of range: {prob[bad]}"
            )
        if size and max(map(add, load_frac, store_frac)) > 1.0:
            bad = next(
                i for i, (load, store) in enumerate(zip(load_frac, store_frac))
                if load + store > 1.0
            )
            raise ValueError(
                f"{program._block_name(bad)}: "
                "load_frac + store_frac must not exceed 1.0"
            )

        # Pass 2: resolve draft-local targets to block indices.
        new_first = [0] * n_funcs
        for f, first in zip(order, func_first):
            new_first[f] = first
        targets: List[int] = []
        resolve = targets.append
        tables: List[Tuple[Tuple[int, float], ...]] = []
        candidates = self.candidates
        block_first = chain.from_iterable(
            repeat(first, count) for first, count in zip(func_first, counts)
        )
        block_count = chain.from_iterable(repeat(count, count) for count in counts)
        for i, k, t, first, count in zip(
            range(n_blocks), kind, map(self.target.__getitem__, perm),
            block_first, block_count,
        ):
            if k == K_COND or k == K_JUMP:
                if not 0 <= t < count:
                    raise ValueError(
                        f"{program._block_name(i)}: branch target #{t} "
                        "not in function"
                    )
                resolve(first + t)
            elif k == K_CALL:
                if not 0 <= t < n_funcs:
                    raise ValueError(
                        f"{program._block_name(i)}: callee #{t} not defined"
                    )
                resolve(new_first[t])
            elif k == K_FALLTHROUGH or k == K_RETURN:
                resolve(0)
            else:
                row = candidates[t]
                if not row:
                    raise ValueError(
                        f"{program._block_name(i)}: "
                        f"{KINDS[k]} terminator requires candidates"
                    )
                jump = k == K_INDIRECT_JUMP
                choices = []
                for c, w in row:
                    if not 0 <= c < (count if jump else n_funcs):
                        raise ValueError(
                            f"{program._block_name(i)}: indirect "
                            f"{'target' if jump else 'callee'} #{c} "
                            f"{'not in function' if jump else 'not defined'}"
                        )
                    if not w >= 0:
                        raise ValueError(
                            f"{program._block_name(i)}: "
                            f"candidate weight {w} is not >= 0"
                        )
                    choices.append((first + c if jump else new_first[c], w))
                resolve(len(tables))
                tables.append(tuple(choices))
        program.target = array("I", targets)
        program.candidates = tables


def _resolve(
    index: Dict[str, int], name: Optional[str], where: str, what: str, missing: str
) -> int:
    try:
        return index[name]  # type: ignore[index]
    except KeyError:
        raise ValueError(f"{where}: {what} {name!r} {missing}") from None


class Program:
    """A laid-out program ready for interpretation.

    The program is a set of parallel block columns in layout order; block
    ``i`` of the program is entry ``i`` of each:

    * ``start`` (address), ``size`` (instructions), ``load_frac`` and
      ``store_frac``;
    * ``kind``: the terminator's position in :data:`KINDS`, and ``prob``,
      its taken probability;
    * ``target``: the taken block for COND/JUMP, the callee's entry block
      for CALL, and a row of ``candidates`` for the indirect kinds, whose
      rows hold ``(block, weight)`` pairs;
    * ``last``: 1 on each function's last block, and ``owner``, the
      function's number.

    Per function, in layout order: ``func_name``, ``func_first`` (first
    block), ``func_region`` (data region base) and ``func_labels``
    (``None`` for ``b0``, ``b1``, ...).  ``functions`` rebuilds the
    authoring objects on demand.

    Args:
        functions: all functions; must include ``entry``.
        entry: name of the entry function.
        base_address: virtual address of the first function.
        func_align: alignment in bytes for each function start; padding
            between functions makes the instruction footprint realistic
            (functions do not share cache lines).
    """

    entry: str
    entry_block: int
    base_address: int
    func_align: int
    #: Total laid-out code size in bytes (including alignment padding).
    code_bytes: int
    start: array
    size: array
    kind: array
    target: array
    prob: array
    last: array
    owner: array
    load_frac: array
    store_frac: array
    candidates: List[Tuple[Tuple[int, float], ...]]
    func_name: List[str]
    func_first: array
    func_region: array
    func_labels: List[Optional[Tuple[str, ...]]]
    _number: Dict[str, int]

    def __init__(
        self,
        functions: Sequence[Function],
        entry: str,
        base_address: int = 0x40_0000,
        func_align: int = 64,
    ) -> None:
        ProgramDraft.from_functions(functions).lay_out(
            self, entry, None, base_address, func_align
        )

    def _columns(self) -> tuple:
        return (
            self.entry, self.base_address, self.func_align, self.start,
            self.size, self.kind, self.target, self.prob, self.last,
            self.owner, self.load_frac, self.store_frac, self.candidates,
            self.func_name, self.func_first, self.func_region,
            self.func_labels,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return self._columns() == other._columns()

    __hash__ = None  # type: ignore[assignment]

    def _labels(self, number: int) -> Tuple[str, ...]:
        """Block labels of function ``number``, in block order."""
        labels = self.func_labels[number]
        if labels is None:
            return _default_labels(len(self._block_range(number)))
        return labels

    def _block_name(self, block: int) -> str:
        """``function/label`` of block index ``block``, for messages."""
        number = self.owner[block]
        label = self._labels(number)[block - self.func_first[number]]
        return f"{self.func_name[number]}/{label}"

    def _block_range(self, number: int) -> range:
        end = (
            self.func_first[number + 1]
            if number + 1 < len(self.func_first)
            else len(self.size)
        )
        return range(self.func_first[number], end)

    @cached_property
    def functions(self) -> Dict[str, Function]:
        """The program as :class:`Function` objects, keyed by name in
        layout order; built on first use."""
        return {
            name: self._function(number)
            for number, name in enumerate(self.func_name)
        }

    def _function(self, number: int) -> Function:
        labels = self._labels(number)
        first = self.func_first[number]
        blocks = []
        for i in self._block_range(number):
            code = self.kind[i]
            kind = KINDS[code]
            target: Optional[str] = None
            candidates: Sequence[Tuple[str, float]] = ()
            if code == K_COND or code == K_JUMP:
                target = labels[self.target[i] - first]
            elif code == K_CALL:
                target = self.func_name[self.owner[self.target[i]]]
            elif code == K_INDIRECT_JUMP:
                row = self.candidates[self.target[i]]
                candidates = [(labels[b - first], w) for b, w in row]
            elif code == K_INDIRECT_CALL:
                row = self.candidates[self.target[i]]
                candidates = [(self.func_name[self.owner[b]], w) for b, w in row]
            blocks.append(BasicBlock(
                labels[i - first],
                self.size[i],
                Terminator(kind, target, self.prob[i], candidates),
                self.load_frac[i],
                self.store_frac[i],
            ))
        return Function(self.func_name[number], blocks)

    def function_address(self, name: str) -> int:
        return self.start[self.func_first[self._number[name]]]

    def block_address(self, func_name: str, label: str) -> int:
        number = self._number[func_name]
        try:
            offset = self._labels(number).index(label)
        except ValueError:
            raise KeyError(
                f"function {func_name}: no block labelled {label!r}"
            ) from None
        return self.start[self.func_first[number] + offset]

    def __repr__(self) -> str:
        return (
            f"Program(entry={self.entry!r}, functions={len(self.func_name)}, "
            f"code_bytes={self.code_bytes})"
        )


class ProgramBuilder:
    """Fluent helper for constructing small hand-written programs in tests."""

    def __init__(self, entry: str = "main", base_address: int = 0x40_0000) -> None:
        self._entry = entry
        self._base = base_address
        self._functions: List[Function] = []
        self._current: Optional[str] = None
        self._blocks: List[BasicBlock] = []

    def function(self, name: str) -> "ProgramBuilder":
        """Start a new function; closes out the previous one."""
        self._finish_function()
        self._current = name
        return self

    def block(
        self,
        label: str,
        n_instructions: int,
        terminator: Terminator,
        load_frac: float = 0.2,
        store_frac: float = 0.1,
    ) -> "ProgramBuilder":
        if self._current is None:
            raise ValueError("call .function() before .block()")
        self._blocks.append(
            BasicBlock(label, n_instructions, terminator, load_frac, store_frac)
        )
        return self

    def _finish_function(self) -> None:
        if self._current is not None:
            self._functions.append(Function(self._current, self._blocks))
            self._blocks = []
            self._current = None

    def build(self) -> Program:
        self._finish_function()
        return Program(self._functions, entry=self._entry, base_address=self._base)
