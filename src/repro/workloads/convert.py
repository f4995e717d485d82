"""Importing externally produced instruction traces.

Users with their own traces (e.g. dumped from a binary-instrumentation
tool) can convert them into :class:`~repro.workloads.trace.Trace` objects
through a simple line-oriented text format:

* **Minimal form** — one program counter per line (hex with ``0x`` prefix
  or decimal).  Branches are inferred: any non-sequential successor marks
  the previous instruction as a taken direct jump, as in
  :func:`repro.workloads.trace.trace_from_pcs`.
* **Extended form** — comma-separated
  ``pc,branch_type,taken,target[,mem,data_addr]`` where ``branch_type``
  is one of ``-`` (not a branch), ``cond``, ``jmp``, ``ijmp``, ``call``,
  ``icall``, ``ret``; ``taken`` is ``0``/``1``; ``mem`` is ``-``/``load``/
  ``store``.

Lines starting with ``#`` and blank lines are ignored.  The two forms can
be mixed freely (a line without commas is a minimal-form line).

Paths may be ``str`` or :class:`os.PathLike`; a ``.gz`` suffix reads and
writes the same format through gzip.  File writes go through the
crash-safe artifact layer (:mod:`repro.check.artifacts`), so a torn write
can never leave a half-trace behind.  For ChampSim-format binary traces
see :mod:`repro.workloads.champsim`; for one-stop loading of any external
format see :mod:`repro.workloads.importers`.
"""

from __future__ import annotations

import gzip
import io
import os
from typing import Iterable, List, Optional, TextIO, Union

from repro.check.artifacts import atomic_write_bytes, atomic_write_text
from repro.check.errors import TraceError
from repro.workloads.trace import BranchType, Instruction, Trace

PathOrFile = Union[str, "os.PathLike[str]", TextIO]

_BRANCH_NAMES = {
    "-": BranchType.NOT_BRANCH,
    "cond": BranchType.CONDITIONAL,
    "jmp": BranchType.DIRECT_JUMP,
    "ijmp": BranchType.INDIRECT_JUMP,
    "call": BranchType.DIRECT_CALL,
    "icall": BranchType.INDIRECT_CALL,
    "ret": BranchType.RETURN,
}

_BRANCH_CODES = {v: k for k, v in _BRANCH_NAMES.items()}


class TraceParseError(TraceError):
    """A malformed line in an external text trace file.

    Part of the :class:`~repro.check.errors.TraceError` taxonomy (and
    therefore a ``ValueError``), so text-import failures flow through the
    same structured CLI error handling and suite quarantine as binary
    ingestion errors.  Carries the file path (when parsing from a path)
    and the 1-based line number of the offending line.
    """

    def __init__(
        self,
        line_no: int,
        line: str,
        reason: str,
        path: Optional[str] = None,
    ) -> None:
        where = f"{path}: line {line_no}" if path else f"line {line_no}"
        super().__init__(
            f"{where}: {reason}: {line!r}", path=path, record_index=line_no - 1
        )
        self.line_no = line_no


def _is_pathlike(value: object) -> bool:
    return isinstance(value, (str, os.PathLike))


def _is_gz(path: Union[str, "os.PathLike[str]"]) -> bool:
    return os.fspath(path).endswith(".gz")


def _parse_int(text: str, line_no: int, line: str, path: Optional[str]) -> int:
    text = text.strip()
    try:
        return int(text, 16) if text.lower().startswith("0x") else int(text)
    except ValueError:
        raise TraceParseError(
            line_no, line, f"not a number: {text!r}", path=path
        ) from None


def _parse_extended(
    parts: List[str], line_no: int, line: str, path: Optional[str]
) -> Instruction:
    if len(parts) not in (4, 6):
        raise TraceParseError(
            line_no, line, f"expected 4 or 6 fields, got {len(parts)}", path=path
        )
    pc = _parse_int(parts[0], line_no, line, path)
    branch_name = parts[1].strip().lower()
    if branch_name not in _BRANCH_NAMES:
        raise TraceParseError(
            line_no, line, f"unknown branch type {branch_name!r}", path=path
        )
    branch_type = _BRANCH_NAMES[branch_name]
    taken_field = parts[2].strip()
    if taken_field not in ("0", "1"):
        raise TraceParseError(
            line_no, line, f"taken must be 0 or 1, got {taken_field!r}", path=path
        )
    taken = taken_field == "1"
    if taken and branch_type == BranchType.NOT_BRANCH:
        raise TraceParseError(line_no, line, "non-branch marked taken", path=path)
    target = _parse_int(parts[3], line_no, line, path)
    is_load = is_store = False
    data_addr = 0
    if len(parts) == 6:
        mem = parts[4].strip().lower()
        if mem not in ("-", "load", "store"):
            raise TraceParseError(
                line_no, line, f"unknown mem kind {mem!r}", path=path
            )
        is_load = mem == "load"
        is_store = mem == "store"
        data_addr = _parse_int(parts[5], line_no, line, path)
    return Instruction(
        pc=pc,
        branch_type=branch_type,
        taken=taken,
        target=target,
        is_load=is_load,
        is_store=is_store,
        data_addr=data_addr,
    )


def parse_text_trace(
    lines: Iterable[str],
    name: str = "imported",
    category: str = "unknown",
    path: Optional[str] = None,
) -> Trace:
    """Parse the text format described in the module docstring.

    ``path`` (when parsing file contents) is threaded into any
    :class:`TraceParseError` so the diagnosis names the file.
    """
    instructions: List[Instruction] = []
    pending_pc: Optional[int] = None

    def flush_pending(next_pc: Optional[int]) -> None:
        nonlocal pending_pc
        if pending_pc is None:
            return
        if next_pc is not None and next_pc != pending_pc + 4:
            instructions.append(
                Instruction(
                    pc=pending_pc,
                    branch_type=BranchType.DIRECT_JUMP,
                    taken=True,
                    target=next_pc,
                )
            )
        else:
            instructions.append(Instruction(pc=pending_pc))
        pending_pc = None

    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "," in line:
            inst = _parse_extended(line.split(","), line_no, line, path)
            flush_pending(inst.pc)
            instructions.append(inst)
        else:
            pc = _parse_int(line, line_no, line, path)
            flush_pending(pc)
            pending_pc = pc
    flush_pending(None)
    return Trace(name=name, instructions=instructions, category=category)


def read_text_trace(
    path_or_file: PathOrFile,
    name: Optional[str] = None,
    category: str = "unknown",
) -> Trace:
    """Read a text trace from a path (``str``/``os.PathLike``, optionally
    ``.gz``) or an open file object."""
    if _is_pathlike(path_or_file):
        path = os.fspath(path_or_file)
        opener = gzip.open if _is_gz(path) else open
        with opener(path, "rb") as fh:
            return parse_text_trace(
                _decoded_lines(fh, path),
                name=name or path, category=category, path=path,
            )
    return parse_text_trace(path_or_file, name=name or "imported", category=category)


def _decoded_lines(raw_lines: Iterable[bytes], path: str) -> Iterable[str]:
    """A file's lines as UTF-8; one that is not (a binary trace read as
    text) raises a :class:`TraceParseError` naming the file and line."""
    for line_no, raw in enumerate(raw_lines, start=1):
        try:
            yield raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceParseError(
                line_no, raw[:32].decode("utf-8", "replace"),
                f"not UTF-8 text ({exc.reason})", path=path,
            ) from None


def format_text_trace(trace: Trace) -> str:
    """The extended text form of a trace (lossless for our fields)."""
    out = io.StringIO()
    out.write(f"# trace {trace.name} category={trace.category}\n")
    for inst in trace:
        mem = "load" if inst.is_load else "store" if inst.is_store else "-"
        out.write(
            f"0x{inst.pc:x},{_BRANCH_CODES[inst.branch_type]},"
            f"{int(inst.taken)},0x{inst.target:x},{mem},0x{inst.data_addr:x}\n"
        )
    return out.getvalue()


def write_text_trace(trace: Trace, path_or_file: PathOrFile) -> None:
    """Export a trace to the extended text form (lossless for our fields).

    Paths are written atomically (tmp + fsync + rename — the crash-safe
    artifact-IO contract); a ``.gz`` path gzips the same text.
    """
    text = format_text_trace(trace)
    if _is_pathlike(path_or_file):
        path = os.fspath(path_or_file)
        if _is_gz(path):
            # mtime=0 keeps equal traces byte-identical on disk.
            atomic_write_bytes(
                path, gzip.compress(text.encode("utf-8"), mtime=0)
            )
        else:
            atomic_write_text(path, text)
    else:
        path_or_file.write(text)
