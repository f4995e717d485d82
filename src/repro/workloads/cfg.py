"""Control-flow-graph program model for synthetic workload generation.

A :class:`Program` is a set of :class:`Function` objects, each a list of
compiler-level :class:`BasicBlock` objects ending in a :class:`Terminator`.
Programs are laid out in a flat virtual address space (4-byte instructions,
functions placed back to back with alignment padding), then *executed* by
:class:`repro.workloads.synthetic.CfgInterpreter` to produce a retire-order
instruction trace.

This is the substitute for the proprietary CVP traces: by varying the number
of functions, block sizes, loop structure, call-graph shape, and branch bias
we obtain instruction streams whose footprint and control-flow statistics
match the paper's workload categories.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

INSTRUCTION_SIZE = 4


class TermKind(enum.Enum):
    """How a basic block transfers control to its successor."""

    FALLTHROUGH = "fallthrough"
    COND = "cond"
    JUMP = "jump"
    INDIRECT_JUMP = "indirect_jump"
    CALL = "call"
    INDIRECT_CALL = "indirect_call"
    RETURN = "return"


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


@dataclass
class _Layout:
    """Resolved addresses for one program."""

    #: function name -> start address of each block, in block order
    block_bases: Dict[str, List[int]] = field(default_factory=dict)
    total_bytes: int = 0


class Program:
    """A laid-out program ready for interpretation.

    Args:
        functions: all functions; must include ``entry``.
        entry: name of the entry function.
        base_address: virtual address of the first function.
        func_align: alignment in bytes for each function start; padding
            between functions makes the instruction footprint realistic
            (functions do not share cache lines).
    """

    def __init__(
        self,
        functions: Sequence[Function],
        entry: str,
        base_address: int = 0x40_0000,
        func_align: int = 64,
    ) -> None:
        self.functions: Dict[str, Function] = {f.name: f for f in functions}
        if len(self.functions) != len(functions):
            raise ValueError("duplicate function names")
        if entry not in self.functions:
            raise ValueError(f"entry function {entry!r} not defined")
        self.entry = entry
        self.base_address = base_address
        self.func_align = func_align
        self._layout = self._compute_layout()
        self._validate_targets()

    def _compute_layout(self) -> _Layout:
        layout = _Layout()
        block_bases = layout.block_bases
        align = self.func_align
        addr = self.base_address
        for name, func in self.functions.items():
            if align > 1 and addr % align:
                addr += align - addr % align
            bases = block_bases[name] = []
            for block in func.blocks:
                bases.append(addr)
                addr += block.n_instructions * INSTRUCTION_SIZE
        layout.total_bytes = addr - self.base_address
        return layout

    def _validate_targets(self) -> None:
        for func in self.functions.values():
            labels = func.label_index
            for block in func.blocks:
                term = block.terminator
                if term.kind in (TermKind.COND, TermKind.JUMP):
                    if term.target not in labels:
                        raise ValueError(
                            f"{func.name}/{block.label}: branch target "
                            f"{term.target!r} not in function"
                        )
                elif term.kind == TermKind.CALL:
                    if term.target not in self.functions:
                        raise ValueError(
                            f"{func.name}/{block.label}: callee "
                            f"{term.target!r} not defined"
                        )
                elif term.kind == TermKind.INDIRECT_JUMP:
                    for label, _w in term.candidates:
                        if label not in labels:
                            raise ValueError(
                                f"{func.name}/{block.label}: indirect target "
                                f"{label!r} not in function"
                            )
                elif term.kind == TermKind.INDIRECT_CALL:
                    for callee, _w in term.candidates:
                        if callee not in self.functions:
                            raise ValueError(
                                f"{func.name}/{block.label}: indirect callee "
                                f"{callee!r} not defined"
                            )

    def function_address(self, name: str) -> int:
        return self._layout.block_bases[name][0]

    def block_address(self, func_name: str, label: str) -> int:
        bases = self._layout.block_bases[func_name]
        return bases[self.functions[func_name].block_index(label)]

    def block_addresses(self, func_name: str) -> List[int]:
        """Start address of each block of ``func_name``, in block order."""
        return self._layout.block_bases[func_name]

    @property
    def code_bytes(self) -> int:
        """Total laid-out code size in bytes (including alignment padding)."""
        return self._layout.total_bytes

    def __repr__(self) -> str:
        return (
            f"Program(entry={self.entry!r}, functions={len(self.functions)}, "
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
