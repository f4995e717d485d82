"""The Entangling Instruction Prefetcher (paper Sections II and III).

Operation summary:

* Every demand L1I access feeds the **basic-block tracker**: consecutive
  lines grow the current block; a non-consecutive line completes it (its
  size is stored in the Entangled table, possibly merged into a recent
  overlapping block) and starts a new block whose head is pushed into the
  **History buffer** with the access timestamp.
* A demand access to a head also **triggers prefetching**: the rest of the
  head's recorded basic block, plus — for every entangled destination —
  the destination's entire basic block.
* When a demand miss (or late prefetch) for a head **fills**, its measured
  latency selects a source: the most recent history head whose access is at
  least ``latency`` cycles older than the demand.  The destination is added
  to that source's compressed destination array (falling back to a second,
  older source when the first is full, then force-inserting by evicting the
  lowest-confidence destination).
* Timely / late / wrong prefetch feedback adjusts per-pair confidence.

All the Figure 11 ablation variants (BB / BBEnt / BBEntBB / Ent /
BBEntBB-Merge) are expressed through :class:`EntanglingConfig` switches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from repro.check.errors import ConfigError
from repro.core.compression import MODE_FIELD_BITS, CompressionScheme
from repro.core.entangled_table import BB_SIZE_BITS, EntangledTable, MAX_BB_SIZE
from repro.core.history import HistoryBuffer, HistoryEntry
from repro.prefetchers.base import FillInfo, InstructionPrefetcher, PrefetchRequest

TIMESTAMP_BITS = 20
TIMING_BITS = 12
HISTORY_PTR_BITS = 4
ACCESS_BIT = 1
WAY_BITS = 4

#: Merge distances the paper tunes per configuration (Section IV-B): the
#: low-budget table merges most aggressively.
DEFAULT_MERGE_DISTANCE = {2048: 15, 4096: 6, 8192: 5}


@dataclass(frozen=True)
class EntanglingConfig:
    """All knobs of the cost-effective Entangling prefetcher.

    The default is the paper's Entangling-4K.  The ablation switches map
    to Figure 11: disable ``prefetch_dsts`` for *BB*, ``prefetch_dst_bb``
    for *BBEnt*, ``merge_blocks`` for *BBEntBB*, and
    ``track_basic_blocks`` for *Ent* (which entangles raw lines).
    """

    entries: int = 4096
    ways: int = 16
    address_space: str = "virtual"
    history_size: int = 16
    merge_distance: Optional[int] = None

    #: Width of the per-destination confidence counters (paper: 2 bits).
    #: Wider counters hold pairs longer before invalidation but shrink
    #: every compression mode's address field.
    confidence_bits: int = 2

    #: Compression-mode whitelist (None = the paper's full Table I/II
    #: set).  Mode 1, the full-address fallback, is always available.
    allowed_modes: Optional[tuple] = None

    # Ablation switches (Figure 11)
    track_basic_blocks: bool = True
    prefetch_src_bb: bool = True
    prefetch_dsts: bool = True
    prefetch_dst_bb: bool = True
    merge_blocks: bool = True

    #: Block-size recording policy: "max" (paper) or "latest".
    bb_size_policy: str = "max"

    #: Published total storage in KB, overriding the first-principles
    #: arithmetic (used by EPI, whose paper-reported 127.9KB includes
    #: structures this model does not break out).
    storage_override_kb: Optional[float] = None

    #: Wrong-path protection (paper Section III-C1): newly computed pairs
    #: are staged in a separate structure and installed into the Entangled
    #: table only after this many further demand accesses (approximating
    #: "when the destination instruction commits").  0 installs
    #: immediately; since neither this simulator nor ChampSim models
    #: wrong-path execution, staging only delays installation slightly.
    commit_delay_accesses: int = 0

    # Structures whose Entangling metadata is accounted in storage_bits().
    l1i_lines: int = 512
    pq_entries: int = 32
    mshr_entries: int = 10

    def resolve_merge_distance(self) -> int:
        if self.merge_distance is not None:
            return self.merge_distance
        return DEFAULT_MERGE_DISTANCE.get(self.entries, 6)

    def compression_scheme(self) -> CompressionScheme:
        """The destination-compression scheme this variant trains with."""
        return CompressionScheme(
            self.address_space,
            confidence_bits=self.confidence_bits,
            allowed_modes=self.allowed_modes,
        )

    @property
    def label(self) -> str:
        return f"Entangling-{self.entries // 1024}K"

    #: The paper's per-entry destination field: 3-bit mode + 60-bit payload
    #: (virtual) or 2-bit mode + 44-bit payload (physical).
    EXPECTED_DST_FIELD_BITS = {"virtual": 63, "physical": 46}

    def validate(self) -> None:
        """Fail fast on structurally invalid Entangling variants.

        Raises :class:`~repro.check.errors.ConfigError` with an actionable
        message.  Beyond basic geometry (entries divisible into ways,
        power-of-two sets so the XOR fold indexes uniformly), this
        cross-checks the compression scheme's bit arithmetic against the
        paper's published budgets: the destination field must come out at
        exactly 63 bits (virtual) / 46 bits (physical), and every mode's
        slot layout must fit its payload.
        """
        if self.entries < 1 or self.ways < 1:
            raise ConfigError(
                f"Entangled table needs positive geometry, got "
                f"entries={self.entries}, ways={self.ways}"
            )
        if self.entries % self.ways:
            raise ConfigError(
                f"Entangled table entries ({self.entries}) must be a "
                f"multiple of the associativity ({self.ways})"
            )
        sets = self.entries // self.ways
        if sets & (sets - 1):
            raise ConfigError(
                f"Entangled table has {sets} sets "
                f"(entries={self.entries} / ways={self.ways}); the XOR-fold "
                f"index needs a power of two"
            )
        if self.address_space not in MODE_FIELD_BITS:
            raise ConfigError(
                f"address_space {self.address_space!r} is not one of "
                f"{tuple(MODE_FIELD_BITS)}"
            )
        if self.history_size < 1:
            raise ConfigError(
                f"history_size must be >= 1, got {self.history_size}"
            )
        if self.merge_distance is not None and self.merge_distance < 0:
            raise ConfigError(
                f"merge_distance must be >= 0, got {self.merge_distance}"
            )
        if self.bb_size_policy not in ("max", "latest"):
            raise ConfigError(
                f"bb_size_policy {self.bb_size_policy!r} is not 'max' or "
                f"'latest'"
            )
        if self.commit_delay_accesses < 0:
            raise ConfigError(
                f"commit_delay_accesses must be >= 0, got "
                f"{self.commit_delay_accesses}"
            )
        if not 1 <= self.confidence_bits <= 8:
            raise ConfigError(
                f"confidence_bits must be in [1, 8], got "
                f"{self.confidence_bits}"
            )
        if self.allowed_modes is not None and not self.allowed_modes:
            raise ConfigError(
                "allowed_modes must be None (all modes) or a non-empty "
                "whitelist of mode numbers"
            )
        # -- destination-mode bit-budget cross-check (paper Tables I/II) --
        try:
            scheme = self.compression_scheme()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        expected = self.EXPECTED_DST_FIELD_BITS[self.address_space]
        if scheme.entry_dst_field_bits != expected:
            raise ConfigError(
                f"{self.address_space} destination field is "
                f"{scheme.entry_dst_field_bits} bits "
                f"({MODE_FIELD_BITS[self.address_space]} mode + "
                f"{scheme.payload_bits} payload); the paper's array is "
                f"{expected} bits"
            )
        for spec in scheme.modes.values():
            if spec.slot_bits * spec.capacity > scheme.payload_bits:
                raise ConfigError(
                    f"mode {spec.mode}: {spec.capacity} slots of "
                    f"{spec.slot_bits} bits overflow the "
                    f"{scheme.payload_bits}-bit payload"
                )
            if spec.addr_bits + scheme.confidence_bits > spec.slot_bits:
                raise ConfigError(
                    f"mode {spec.mode}: {spec.addr_bits} address + "
                    f"{scheme.confidence_bits} confidence bits do not fit "
                    f"the {spec.slot_bits}-bit slot"
                )


@dataclass
class EntanglingStats:
    """Prefetcher-internal counters feeding Figures 12-15."""

    trigger_lookups: int = 0
    trigger_hits: int = 0
    sum_src_bb_size: int = 0
    sum_destinations: int = 0
    sum_dst_bb_size: int = 0
    destinations_seen: int = 0
    pairs_created: int = 0
    second_source_used: int = 0
    forced_insertions: int = 0
    blocks_completed: int = 0
    blocks_merged: int = 0
    entangle_attempts: int = 0
    entangle_no_source: int = 0
    fills_not_head: int = 0

    @property
    def avg_destinations_per_hit(self) -> float:
        if self.trigger_hits == 0:
            return 0.0
        return self.sum_destinations / self.trigger_hits

    @property
    def avg_src_bb_size(self) -> float:
        if self.trigger_hits == 0:
            return 0.0
        return self.sum_src_bb_size / self.trigger_hits

    @property
    def avg_dst_bb_size(self) -> float:
        if self.destinations_seen == 0:
            return 0.0
        return self.sum_dst_bb_size / self.destinations_seen

    @property
    def avg_prefetches_per_hit(self) -> float:
        """The paper's formula: bbsize + destinations * (1 + bbsize_dst)."""
        if self.trigger_hits == 0:
            return 0.0
        return self.avg_src_bb_size + self.avg_destinations_per_hit * (
            1.0 + self.avg_dst_bb_size
        )


class EntanglingPrefetcher(InstructionPrefetcher):
    """Cost-effective Entangling I-prefetcher."""

    def __init__(self, config: Optional[EntanglingConfig] = None) -> None:
        self.config = config or EntanglingConfig()
        self.config.validate()
        scheme = self.config.compression_scheme()
        self.table = EntangledTable(
            entries=self.config.entries, ways=self.config.ways, scheme=scheme
        )
        self.history = HistoryBuffer(self.config.history_size)
        self.estats = EntanglingStats()
        self.name = self.config.label
        self._merge_distance = self.config.resolve_merge_distance()
        # The config is frozen; snapshot the switches the per-access hot
        # paths read so they cost one attribute load instead of two.
        self._track_bb = self.config.track_basic_blocks
        self._pf_src_bb = self.config.prefetch_src_bb
        self._pf_dsts = self.config.prefetch_dsts
        self._pf_dst_bb = self.config.prefetch_dst_bb
        self._do_merge = self.config.merge_blocks
        self._bb_policy = self.config.bb_size_policy
        self._commit_delay = self.config.commit_delay_accesses

        # Basic-block tracker registers.
        self._head: Optional[int] = None
        self._size = 0
        self._head_entry: Optional[HistoryEntry] = None
        # Head demand misses awaiting their fill: line -> demand cycle.
        self._pending: Dict[int, int] = {}
        self._last_line: Optional[int] = None  # for the Ent (no-BB) variant
        # Speculative pairs staged until "commit" (Section III-C1):
        # entries are [sources, dst_line, remaining_accesses].
        self._staged: List[List[Any]] = []

    # -- demand accesses -----------------------------------------------------

    def on_demand_access(
        self, line_addr: int, hit: bool, cycle: int
    ) -> Iterable[PrefetchRequest]:
        if self._staged:
            self._commit_staged()
        if not self._track_bb:
            return self._on_access_no_bb(line_addr, hit, cycle)

        head = self._head
        if head is not None:
            last_line = head + self._size
            if line_addr == last_line:
                return ()  # re-access within the current block's last line
            if line_addr == last_line + 1 and self._size < MAX_BB_SIZE:
                self._size += 1
                entry = self._head_entry
                if entry is not None:
                    entry.bb_size = self._size
                return ()
            self._complete_block()

        # A new basic block starts here.
        self._head = line_addr
        self._size = 0
        self._head_entry = self.history.push(line_addr, cycle)
        if not hit:
            self._pending[line_addr] = cycle
        return self._trigger(line_addr)

    def _on_access_no_bb(
        self, line_addr: int, hit: bool, cycle: int
    ) -> Iterable[PrefetchRequest]:
        """The *Ent* ablation: every line is its own (size-0) block."""
        if line_addr == self._last_line:
            return ()
        self._last_line = line_addr
        self.history.push(line_addr, cycle)
        if not hit:
            self._pending[line_addr] = cycle
        return self._trigger(line_addr)

    def _complete_block(self) -> None:
        """The current block ended: record its size, maybe merging it."""
        head, size, entry = self._head, self._size, self._head_entry
        self.estats.blocks_completed += 1
        if self._do_merge:
            candidate = self.history.find_merge_candidate(
                head, self._merge_distance, exclude=entry
            )
            if candidate is not None:
                merged_size = max(candidate.bb_size, head + size - candidate.line_addr)
                if merged_size <= MAX_BB_SIZE:
                    candidate.bb_size = merged_size
                    self.table.update_bb_size(
                        candidate.line_addr, merged_size, "max"
                    )
                    if entry is not None:
                        self.history.remove(entry)
                    self.estats.blocks_merged += 1
                    return
        self.table.update_bb_size(head, size, self._bb_policy)

    # -- triggering prefetches ---------------------------------------------------

    def _trigger(self, line_addr: int) -> List[PrefetchRequest]:
        estats = self.estats
        estats.trigger_lookups += 1
        entry = self.table.lookup(line_addr)
        if entry is None:
            return []
        estats.trigger_hits += 1
        requests: List[PrefetchRequest] = []
        append = requests.append

        if self._pf_src_bb:
            estats.sum_src_bb_size += entry.bb_size
            for offset in range(1, entry.bb_size + 1):
                append(PrefetchRequest(line_addr + offset))

        if self._pf_dsts:
            estats.sum_destinations += len(entry.dsts)
            pf_dst_bb = self._pf_dst_bb
            for dst_line, _confidence in entry.dsts:
                pair = (line_addr, dst_line)
                append(PrefetchRequest(dst_line, src_meta=pair))
                if not pf_dst_bb:
                    continue
                dst_size = self.table.bb_size_of(dst_line)
                estats.destinations_seen += 1
                estats.sum_dst_bb_size += dst_size
                # Destination-block lines carry the pair token too: a wrong
                # or late block prefetch demotes the pair that triggered it
                # (the paper threads the src-entangled identity through the
                # PQ/MSHR/L1I for every prefetch).
                for offset in range(1, dst_size + 1):
                    append(PrefetchRequest(dst_line + offset, src_meta=pair))
        return requests

    # -- fills: building entangled pairs ---------------------------------------------

    def on_fill(self, info: FillInfo) -> Iterable[PrefetchRequest]:
        if not info.is_demand:
            return ()
        demand_cycle = self._pending.pop(info.line_addr, None)
        if demand_cycle is None:
            self.estats.fills_not_head += 1
            return ()  # not a basic-block head: covered by its head's block
        if info.demand_cycle is not None:
            demand_cycle = info.demand_cycle
        # The deadline uses the latency the *demand* observed: for late
        # prefetches that runs from the demand access, not from the
        # earlier prefetch issue (which would overstate the miss cost and
        # select needlessly old sources).
        latency = info.demand_latency
        deadline = demand_cycle - latency
        self._entangle(info.line_addr, deadline)
        return ()

    def _entangle(self, dst_line: int, deadline: int) -> None:
        """Pair ``dst_line`` with a source head accessed before ``deadline``."""
        self.estats.entangle_attempts += 1
        sources = []
        for entry in self.history.sources_not_younger_than(deadline):
            if entry.line_addr == dst_line:
                continue
            sources.append(entry.line_addr)
            if len(sources) == 2:
                break
        if not sources:
            self.estats.entangle_no_source += 1
            return
        if self._commit_delay > 0:
            self._staged.append([sources, dst_line, self._commit_delay])
            return
        self._install_pair(sources, dst_line)

    def _commit_staged(self) -> None:
        """Install staged pairs whose destination has now committed."""
        due = []
        for entry in self._staged:
            entry[2] -= 1
            if entry[2] <= 0:
                due.append(entry)
        if due:
            self._staged = [e for e in self._staged if e[2] > 0]
            for sources, dst_line, _left in due:
                self._install_pair(sources, dst_line)

    def _install_pair(self, sources, dst_line: int) -> None:
        first = sources[0]
        result = self.table.add_dest(first, dst_line, evict_if_full=False)
        if result in ("added", "exists"):
            if result == "added":
                self.estats.pairs_created += 1
            return
        # First source's array is full: try a second, earlier source.
        if len(sources) > 1:
            result = self.table.add_dest(sources[1], dst_line, evict_if_full=False)
            if result in ("added", "exists"):
                self.estats.second_source_used += 1
                if result == "added":
                    self.estats.pairs_created += 1
                return
        # Both full: insert into the first, evicting an old destination.
        self.table.add_dest(first, dst_line, evict_if_full=True)
        self.estats.forced_insertions += 1
        self.estats.pairs_created += 1

    # -- feedback ---------------------------------------------------------------------

    def on_prefetch_useful(self, line_addr: int, src_meta: Any, cycle: int) -> None:
        if isinstance(src_meta, tuple):
            self.table.increase_confidence(src_meta[0], src_meta[1])

    def on_prefetch_late(self, line_addr: int, src_meta: Any, cycle: int) -> None:
        if isinstance(src_meta, tuple):
            self.table.decrease_confidence(src_meta[0], src_meta[1])

    def on_evict_unused(self, line_addr: int, src_meta: Any, cycle: int) -> None:
        if isinstance(src_meta, tuple):
            self.table.decrease_confidence(src_meta[0], src_meta[1])

    def internals(self) -> Dict[str, Any]:
        """Figures 12-15's inputs: four averages and the destination formats
        as sorted ``[bits, count]`` pairs (JSON has no int keys)."""
        names = ("avg_destinations_per_hit", "avg_src_bb_size",
                 "avg_dst_bb_size", "avg_prefetches_per_hit")
        internals = {name: getattr(self.estats, name) for name in names}
        internals["format_bits"] = sorted(map(list, self.table.stats.format_bits.items()))
        return internals

    # -- storage (paper Section III-C3) --------------------------------------------------

    def storage_bits(self) -> int:
        if self.config.storage_override_kb is not None:
            return int(self.config.storage_override_kb * 8192)
        scheme = self.table.scheme
        history_bits = (
            self.config.history_size
            * (scheme.history_tag_bits + TIMESTAMP_BITS + BB_SIZE_BITS)
            + HISTORY_PTR_BITS
        )
        set_bits = max(1, (self.table.sets - 1).bit_length())
        src_info_bits = WAY_BITS + set_bits + ACCESS_BIT
        timing_bits = TIMING_BITS + HISTORY_PTR_BITS
        metadata_bits = (
            (self.config.pq_entries + self.config.mshr_entries)
            * (timing_bits + src_info_bits)
            + self.config.l1i_lines * src_info_bits
        )
        return self.table.storage_bits() + history_bits + metadata_bits
