"""Instruction-trace representation and file IO.

A trace is the correct-path, retire-order instruction stream of a program,
the same abstraction ChampSim consumes.  Each record carries the program
counter, the instruction size in bytes, and — for branches — the branch
type, the taken/not-taken outcome, and the target.  Memory instructions
carry an effective data address so the L1D energy model has something to
count.

A :class:`Trace` stores its records as columns (stdlib ``array``s), the
struct-of-arrays the generators append to and the fetch-unit builder
reads; :class:`Instruction` objects are materialized only on demand.
The binary file format is a small custom fixed-width encoding (no
external dependencies); see :func:`write_trace` / :func:`read_trace`.
"""

from __future__ import annotations

import enum
import struct
import sys
import zlib
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, overload

from repro.check.artifacts import atomic_write_bytes
from repro.check.errors import (
    TraceCRCError,
    TraceError,
    TraceHeaderError,
    TraceMagicError,
    TracePayloadError,
    TraceRecordError,
    TraceTruncatedError,
    TraceVersionError,
)


class BranchType(enum.IntEnum):
    """Branch classification used by the front end.

    Mirrors ChampSim's branch taxonomy; the front end uses the type to pick
    the prediction structure (BTB, RAS, indirect target cache) and the
    misprediction-detection stage (decode vs. execute).
    """

    NOT_BRANCH = 0
    CONDITIONAL = 1        # direction predicted, target from BTB
    DIRECT_JUMP = 2        # always taken, target from BTB
    INDIRECT_JUMP = 3      # always taken, target from indirect target cache
    DIRECT_CALL = 4        # always taken, pushes RAS
    INDIRECT_CALL = 5      # always taken, pushes RAS, target from ITC
    RETURN = 6             # always taken, target from RAS

    @property
    def is_call(self) -> bool:
        return self in (BranchType.DIRECT_CALL, BranchType.INDIRECT_CALL)

    @property
    def is_indirect(self) -> bool:
        return self in (BranchType.INDIRECT_JUMP, BranchType.INDIRECT_CALL)

    @property
    def is_unconditional(self) -> bool:
        return self not in (BranchType.NOT_BRANCH, BranchType.CONDITIONAL)


@dataclass(frozen=True)
class Instruction:
    """One retire-order trace record.

    Attributes:
        pc: virtual address of the instruction.
        size: instruction size in bytes (used to compute the next PC).
        branch_type: :class:`BranchType` classification.
        taken: branch outcome; always False for non-branches.
        target: branch target when taken, else 0.
        is_load: instruction reads data memory.
        is_store: instruction writes data memory.
        data_addr: effective data address for loads/stores, else 0.
    """

    pc: int
    size: int = 4
    branch_type: BranchType = BranchType.NOT_BRANCH
    taken: bool = False
    target: int = 0
    is_load: bool = False
    is_store: bool = False
    data_addr: int = 0

    @property
    def is_branch(self) -> bool:
        return self.branch_type != BranchType.NOT_BRANCH

    @property
    def next_pc(self) -> int:
        """Architectural next PC given the recorded outcome."""
        if self.is_branch and self.taken:
            return self.target
        return self.pc + self.size


#: Flag byte of one record, shared by the ``flags`` column and the file
#: format: the branch type in the low nibble, then taken / load / store.
TYPE_MASK = 0x0F
FLAG_TAKEN = 0x10
FLAG_LOAD = 0x20
FLAG_STORE = 0x40
_FLAG_RESERVED = 0x80

#: Branch-type nibble of ``flags`` -> :class:`BranchType`.
BRANCH_TYPES = {int(branch_type): branch_type for branch_type in BranchType}

#: ``flags`` value -> the Instruction fields it encodes (branch type,
#: taken, is_load, is_store); None for an invalid branch type.
_FLAG_FIELDS: Tuple[Optional[Tuple[BranchType, bool, bool, bool]], ...] = tuple(
    (
        BRANCH_TYPES[flags & TYPE_MASK],
        bool(flags & FLAG_TAKEN),
        bool(flags & FLAG_LOAD),
        bool(flags & FLAG_STORE),
    )
    if flags & TYPE_MASK in BRANCH_TYPES
    else None
    for flags in range(256)
)

#: Flag bytes of non-branches, and of not-taken records, for counting
#: with ``bytes.translate(None, delete)``.
_NOT_BRANCH_FLAGS = bytes(f for f in range(256) if not f & TYPE_MASK)
_NOT_TAKEN_FLAGS = bytes(f for f in range(256) if not f & FLAG_TAKEN)


def _flags_of(inst: Instruction) -> int:
    flags = int(inst.branch_type) & TYPE_MASK
    if inst.taken:
        flags |= FLAG_TAKEN
    if inst.is_load:
        flags |= FLAG_LOAD
    if inst.is_store:
        flags |= FLAG_STORE
    return flags


def _view(pc: int, size: int, flags: int, target: int, data_addr: int) -> Instruction:
    """The :class:`Instruction` one row of the columns describes."""
    branch_type, taken, is_load, is_store = _FLAG_FIELDS[flags]
    return Instruction(
        pc, size, branch_type, taken, target, is_load, is_store, data_addr
    )


class Trace:
    """A retire-order instruction trace with identity metadata.

    The records are stored as five parallel ``array`` columns: ``pc``,
    ``size``, ``flags`` (the EPTR flag byte: branch type nibble, taken,
    load, store), ``target`` and ``data_addr``.  Generators append to the
    columns directly.  :class:`Instruction` is only a view: iterating,
    indexing and :attr:`instructions` materialize records on demand, and
    :attr:`instructions` keeps the list it built.  Slicing returns a
    trace over copied column slices.

    Attributes:
        name: workload name (e.g. ``srv_02``).
        category: workload category (``crypto``, ``int``, ``fp``, ``srv``,
            or ``cloud``).
    """

    def __init__(
        self,
        name: str,
        instructions: Iterable[Instruction] = (),
        category: str = "unknown",
    ) -> None:
        self.name = name
        self.category = category
        insts = list(instructions)
        self.pc = array("Q", [inst.pc for inst in insts])
        self.size = array("I", [inst.size for inst in insts])
        self.flags = array("B", [_flags_of(inst) for inst in insts])
        self.target = array("Q", [inst.target for inst in insts])
        self.data_addr = array("Q", [inst.data_addr for inst in insts])
        self._instructions: Optional[List[Instruction]] = insts or None
        #: Set by :func:`read_trace` in salvage mode when the file was
        #: damaged and only a record prefix was recovered; None otherwise.
        self.salvage: Optional["TraceSalvage"] = None

    @classmethod
    def from_columns(
        cls, name: str, category: str, columns: Sequence[array]
    ) -> "Trace":
        """A trace over ``columns`` (in :meth:`columns` order, not copied)."""
        trace = cls(name, category=category)
        trace.pc, trace.size, trace.flags, trace.target, trace.data_addr = columns
        return trace

    def columns(self) -> Tuple[array, array, array, array, array]:
        return (self.pc, self.size, self.flags, self.target, self.data_addr)

    def extend(self, other: "Trace") -> None:
        """Append ``other``'s records."""
        for mine, theirs in zip(self.columns(), other.columns()):
            mine.extend(theirs)
        self._instructions = None

    @property
    def instructions(self) -> List[Instruction]:
        """The records as :class:`Instruction` views (built once, cached)."""
        if self._instructions is None:
            self._instructions = list(map(_view, *self.columns()))
        return self._instructions

    def __len__(self) -> int:
        return len(self.pc)

    def __iter__(self) -> Iterator[Instruction]:
        if self._instructions is not None:
            return iter(self._instructions)
        return map(_view, *self.columns())

    @overload
    def __getitem__(self, index: int) -> Instruction: ...

    @overload
    def __getitem__(self, index: slice) -> "Trace": ...

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace.from_columns(
                self.name, self.category, [c[index] for c in self.columns()]
            )
        if self._instructions is not None:
            return self._instructions[index]
        return _view(*(column[index] for column in self.columns()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.name == other.name
            and self.category == other.category
            and self.columns() == other.columns()
        )

    def __repr__(self) -> str:
        return (
            f"Trace(name={self.name!r}, category={self.category!r}, "
            f"len={len(self)})"
        )

    def footprint_lines(self, line_size: int = 64) -> int:
        """Number of distinct instruction-cache lines touched."""
        return len({pc // line_size for pc in self.pc})

    def branch_count(self) -> int:
        return len(self.flags.tobytes().translate(None, _NOT_BRANCH_FLAGS))

    def branch_fraction(self) -> float:
        """Fraction of instructions that are branches."""
        if not len(self):
            return 0.0
        return self.branch_count() / len(self)

    def taken_branch_count(self) -> int:
        return len(self.flags.tobytes().translate(None, _NOT_TAKEN_FLAGS))


@dataclass
class TraceSalvage:
    """What salvage-mode loading recovered from a damaged trace file.

    Attached as ``Trace.salvage`` so callers can tell a clean load from a
    partial recovery — salvaged data is never returned silently.
    """

    recovered: int
    expected: int
    reasons: List[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return self.recovered == self.expected and not self.reasons

    def describe(self) -> str:
        detail = "; ".join(self.reasons) if self.reasons else "clean"
        return f"salvaged {self.recovered}/{self.expected} records ({detail})"


_MAGIC = b"EPTR"
_VERSION = 3  # CRC32 over header tail + payload
_RECORD = struct.Struct("<QIBBQQ")  # pc, size, branch_type|flags, pad, target, data_addr
_RECORD_SIZE = _RECORD.size

#: ``array`` typecode, byte offset and width of each column's field in a
#: record, in :meth:`Trace.columns` order (the pad byte at 13 is zero).
_FIELDS = (("Q", 0, 8), ("I", 8, 4), ("B", 12, 1), ("Q", 14, 8), ("Q", 22, 8))

#: Address-space contract for every pc/target/data_addr in a trace: the
#: simulator models a 58-bit line address space (virtual training), so a
#: 62-bit byte address leaves headroom for line arithmetic while catching
#: bit-flipped high bytes during ingestion.
_ADDRESS_BITS = 62
_MAX_ADDRESS = 1 << _ADDRESS_BITS
_MAX_INSTRUCTION_SIZE = 64
_MAX_BRANCH_TYPE = max(BranchType)

#: Valid byte values of the record lanes :func:`_lanes_valid` checks.
_VALID_FLAGS = bytes(
    f for f in range(256)
    if not f & _FLAG_RESERVED and f & TYPE_MASK <= _MAX_BRANCH_TYPE
)
_VALID_SIZES = bytes(range(1, _MAX_INSTRUCTION_SIZE + 1))
_VALID_ADDRESS_TOPS = bytes(range(_MAX_ADDRESS >> 56))

_BIG_ENDIAN = sys.byteorder == "big"


def _lanes(block: bytes, count: int) -> List[bytes]:
    """Byte lane ``i`` holds byte ``i`` of each of the first ``count``
    records of ``block``."""
    end = count * _RECORD_SIZE
    return [block[i:end:_RECORD_SIZE] for i in range(_RECORD_SIZE)]


def _lanes_valid(lanes: List[bytes]) -> bool:
    """Whether every record passes :func:`_validate_fields`, checked a
    whole lane at a time: flags, size in 1-64 (low byte in range, three
    high bytes zero), and the top byte of each address below 0x40."""
    return not (
        lanes[12].translate(None, _VALID_FLAGS)
        or lanes[8].translate(None, _VALID_SIZES)
        or any(lanes[i].translate(None, b"\0") for i in (9, 10, 11))
        or any(lanes[i].translate(None, _VALID_ADDRESS_TOPS) for i in (7, 21, 29))
    )


def _columns_from_lanes(lanes: List[bytes], count: int) -> List[array]:
    columns: List[array] = []
    for typecode, offset, width in _FIELDS:
        raw = bytearray(count * width)
        for byte in range(width):
            raw[byte::width] = lanes[offset + byte]
        column = array(typecode, raw)
        if _BIG_ENDIAN:
            column.byteswap()
        columns.append(column)
    return columns


def _pack_columns(trace: Trace) -> bytearray:
    """The fixed-width record block of ``trace``, built a lane at a time."""
    block = bytearray(len(trace) * _RECORD_SIZE)
    for column, (_typecode, offset, width) in zip(trace.columns(), _FIELDS):
        if _BIG_ENDIAN:
            column = array(column.typecode, column)
            column.byteswap()
        raw = column.tobytes()
        for byte in range(width):
            block[offset + byte::_RECORD_SIZE] = raw[byte::width]
    return block


def _validate_fields(
    pc: int, size: int, flags: int, target: int, data_addr: int
) -> Optional[str]:
    """Field-level validity of one record; returns a reason or None."""
    if flags & _FLAG_RESERVED:
        return f"reserved flag bit 0x{_FLAG_RESERVED:02x} is set"
    branch_nibble = flags & TYPE_MASK
    if branch_nibble > _MAX_BRANCH_TYPE:
        return f"branch type {branch_nibble} out of range (0-{int(_MAX_BRANCH_TYPE)})"
    if not 1 <= size <= _MAX_INSTRUCTION_SIZE:
        return f"instruction size {size} out of range (1-{_MAX_INSTRUCTION_SIZE})"
    for label, value in (("pc", pc), ("target", target), ("data_addr", data_addr)):
        if value >= _MAX_ADDRESS:
            return (
                f"{label} 0x{value:x} exceeds the {_ADDRESS_BITS}-bit "
                f"address space"
            )
    return None


def _first_bad_record(block: bytes, count: int) -> Tuple[int, str]:
    """Index and reason of the first invalid record (one is known to be)."""
    for index in range(count):
        pc, size, flags, _pad, target, data_addr = _RECORD.unpack_from(
            block, index * _RECORD_SIZE
        )
        reason = _validate_fields(pc, size, flags, target, data_addr)
        if reason is not None:
            return index, reason
    raise AssertionError("no invalid record in a block that failed validation")


def _serialize_header_tail(
    compress: bool, name_bytes: bytes, cat_bytes: bytes, count: int
) -> bytes:
    """Version byte through record count — the checksummed header region."""
    return (
        bytes([_VERSION, 1 if compress else 0])
        + struct.pack("<H", len(name_bytes))
        + name_bytes
        + struct.pack("<H", len(cat_bytes))
        + cat_bytes
        + struct.pack("<Q", count)
    )


def write_trace(trace: Trace, path: str, compress: bool = True) -> None:
    """Serialize a trace to ``path`` (atomically: tmp + fsync + rename).

    Format version 3: ``EPTR`` magic, version byte, compression byte,
    name and category as length-prefixed UTF-8, a record count, a CRC32
    over everything after the magic (header tail + stored payload), and
    the (optionally zlib-compressed) fixed-width record block.
    """
    payload = _pack_columns(trace)
    if compress:
        payload = zlib.compress(payload, level=6)
    header_tail = _serialize_header_tail(
        compress,
        trace.name.encode("utf-8"),
        trace.category.encode("utf-8"),
        len(trace),
    )
    crc = zlib.crc32(payload, zlib.crc32(header_tail))
    atomic_write_bytes(
        path, _MAGIC + header_tail + struct.pack("<I", crc) + payload
    )


def _read_lp_string(data: bytes, offset: int, path: str, label: str) -> Tuple[str, int]:
    """Length-prefixed UTF-8 string at ``offset``; raises TraceHeaderError."""
    if offset + 2 > len(data):
        raise TraceHeaderError(
            f"{path}: header truncated before the {label} length at byte "
            f"{offset}",
            path=path,
            offset=offset,
        )
    (length,) = struct.unpack_from("<H", data, offset)
    offset += 2
    if offset + length > len(data):
        raise TraceHeaderError(
            f"{path}: header truncated inside the {label} field at byte "
            f"{offset} ({length} bytes declared, {len(data) - offset} left)",
            path=path,
            offset=offset,
        )
    try:
        text = data[offset : offset + length].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceHeaderError(
            f"{path}: {label} field at byte {offset} is not valid UTF-8 "
            f"({exc})",
            path=path,
            offset=offset,
        ) from None
    return text, offset + length


def _decompress_salvage(payload: bytes) -> Tuple[bytes, Optional[str]]:
    """Best-effort decompression: the longest clean prefix plus a reason."""
    decompressor = zlib.decompressobj()
    chunks: List[bytes] = []
    error: Optional[str] = None
    # Feed in small pieces so output produced before the corruption point
    # is retained; a single decompress() call would discard everything.
    for start in range(0, len(payload), 4096):
        try:
            chunks.append(decompressor.decompress(payload[start : start + 4096]))
        except zlib.error as exc:
            error = f"compressed block is corrupt ({exc})"
            break
    else:
        try:
            chunks.append(decompressor.flush())
        except zlib.error as exc:
            error = f"compressed block ends mid-stream ({exc})"
        if error is None and not decompressor.eof:
            error = "compressed block is incomplete (stream did not finish)"
    return b"".join(chunks), error


def read_trace(path: str, salvage: bool = False) -> Trace:
    """Deserialize a trace written by :func:`write_trace`.

    Reads format version 3, the only one written.  Every error is
    a :class:`~repro.check.errors.TraceError` subclass (a ``ValueError``)
    carrying the file path, the byte offset of the damage, and — for
    record-level damage — the index of the first bad record.

    With ``salvage=True``, damage past the header is not fatal: the
    longest valid record *prefix* is recovered and the returned trace
    carries a :class:`TraceSalvage` on ``trace.salvage`` describing what
    was lost.  Header damage (magic, version, name/category/count) is
    unrecoverable and still raises.

    Raises:
        TraceError: the file is not a valid trace (bad magic, version,
            header, checksum, payload, or record), subject to the salvage
            rules above.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    problems: List[str] = []

    # -- header (damage here is fatal even in salvage mode) -----------------
    if data[:4] != _MAGIC:
        raise TraceMagicError(
            f"{path}: not a trace file (magic {data[:4]!r} at byte 0, "
            f"expected {_MAGIC!r})",
            path=path,
            offset=0,
        )
    if len(data) < 6:
        raise TraceHeaderError(
            f"{path}: header truncated after the magic ({len(data)} bytes)",
            path=path,
            offset=len(data),
        )
    version, compressed = data[4], data[5]
    if version != _VERSION:
        raise TraceVersionError(
            f"{path}: unsupported trace version {version} at byte 4 "
            f"(this reader speaks {_VERSION})",
            path=path,
            offset=4,
        )
    if compressed not in (0, 1):
        raise TraceHeaderError(
            f"{path}: compression byte {compressed} at byte 5 is neither "
            f"0 nor 1",
            path=path,
            offset=5,
        )
    offset = 6
    name, offset = _read_lp_string(data, offset, path, "name")
    category, offset = _read_lp_string(data, offset, path, "category")
    if offset + 8 > len(data):
        raise TraceHeaderError(
            f"{path}: header truncated before the record count at byte "
            f"{offset}",
            path=path,
            offset=offset,
        )
    (count,) = struct.unpack_from("<Q", data, offset)
    offset += 8

    # -- checksum ------------------------------------------------------------
    if offset + 4 > len(data):
        raise TraceHeaderError(
            f"{path}: header truncated before the checksum at byte "
            f"{offset}",
            path=path,
            offset=offset,
        )
    crc_region_end = offset
    (stored_crc,) = struct.unpack_from("<I", data, offset)
    offset += 4
    payload = data[offset:]
    record_size = _RECORD.size
    expected_bytes = count * record_size

    # An uncompressed short payload is reported as truncation (with the
    # first incomplete record) rather than as a checksum mismatch — the
    # more actionable diagnosis, and the one salvage can act on.
    if compressed or len(payload) >= expected_bytes:
        actual_crc = zlib.crc32(payload, zlib.crc32(data[4:crc_region_end]))
        if actual_crc != stored_crc:
            err = TraceCRCError(
                f"{path}: checksum mismatch (stored 0x{stored_crc:08x}, "
                f"computed 0x{actual_crc:08x}) — the file is corrupt or "
                f"torn",
                path=path,
                offset=crc_region_end,
            )
            if not salvage:
                raise err
            problems.append("checksum mismatch")

    # -- payload -------------------------------------------------------------
    if compressed:
        if salvage:
            block, decomp_error = _decompress_salvage(payload)
            if decomp_error is not None:
                problems.append(decomp_error)
        else:
            try:
                block = zlib.decompress(payload)
            except zlib.error as exc:
                raise TracePayloadError(
                    f"{path}: compressed record block starting at byte "
                    f"{offset} is corrupt ({exc})",
                    path=path,
                    offset=offset,
                ) from None
    else:
        block = payload

    if len(block) != expected_bytes:
        first_incomplete = min(len(block) // record_size, count)
        if len(block) < expected_bytes:
            err: TraceError = TraceTruncatedError(
                f"{path}: truncated record block ({len(block)} bytes, "
                f"expected {expected_bytes} = {count} records x "
                f"{record_size}B); first incomplete record is "
                f"#{first_incomplete} at payload byte "
                f"{first_incomplete * record_size}",
                path=path,
                offset=first_incomplete * record_size,
                record_index=first_incomplete,
            )
        else:
            err = TracePayloadError(
                f"{path}: record block has {len(block)} bytes, expected "
                f"{expected_bytes} ({len(block) - expected_bytes} trailing "
                f"bytes after record #{count})",
                path=path,
                offset=expected_bytes,
                record_index=count,
            )
        if not salvage:
            raise err
        problems.append(
            f"record block has {len(block)} of {expected_bytes} bytes"
        )

    # -- records -------------------------------------------------------------
    # Validated a lane at a time; only a block that fails is scanned
    # record by record, for the first bad index.
    complete_records = min(len(block) // record_size, count)
    lanes = _lanes(block, complete_records)
    recovered = complete_records
    if not _lanes_valid(lanes):
        index, reason = _first_bad_record(block, complete_records)
        base = index * record_size
        if not salvage:
            raise TraceRecordError(
                f"{path}: invalid record #{index} at payload byte {base}: "
                f"{reason}",
                path=path,
                offset=base,
                record_index=index,
            )
        problems.append(f"record #{index} at payload byte {base}: {reason}")
        recovered = index  # salvage keeps the longest *valid prefix* only
        lanes = [lane[:index] for lane in lanes]

    trace = Trace.from_columns(
        name, category, _columns_from_lanes(lanes, recovered)
    )
    if salvage and (problems or recovered != count):
        trace.salvage = TraceSalvage(
            recovered=recovered, expected=count, reasons=problems
        )
    return trace


def trace_from_pcs(
    name: str,
    pcs: Iterable[int],
    category: str = "unknown",
    size: int = 4,
) -> Trace:
    """Build a trace from a bare PC sequence, inferring taken branches.

    Any PC that does not follow its predecessor sequentially is encoded as
    the target of a taken direct jump on the predecessor.  Useful for unit
    tests that want to drive the simulator with a hand-written line stream.
    """
    pc_list = list(pcs)
    instructions: List[Instruction] = []
    for i, pc in enumerate(pc_list):
        nxt: Optional[int] = pc_list[i + 1] if i + 1 < len(pc_list) else None
        if nxt is not None and nxt != pc + size:
            instructions.append(
                Instruction(
                    pc=pc,
                    size=size,
                    branch_type=BranchType.DIRECT_JUMP,
                    taken=True,
                    target=nxt,
                )
            )
        else:
            instructions.append(Instruction(pc=pc, size=size))
    return Trace(name=name, instructions=instructions, category=category)
