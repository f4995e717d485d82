"""Shared state structures for the staged simulator core.

The reference :class:`~repro.sim.cache.SetAssociativeCache` keeps an
explicit ``last_use`` stamp per line and picks victims with a full
``min()`` scan per insertion — the single hottest operation of the whole
simulator (the L1D/L2/LLC traffic of the retire stage alone is over half
of a run's wall clock).  The staged core replaces it with dict-ordered
sets: Python dicts preserve insertion order, so *moving a key to the
end* on every LRU touch makes the first key of the set dict the LRU
victim, O(1) instead of O(ways).

Equivalence argument (load-bearing — the backends must be bit-identical):

* the reference stamps every touch/refresh with a strictly increasing
  tick and evicts ``min(last_use)``; move-to-end reproduces exactly that
  total order, with the dict's front as the minimum;
* FIFO victims are picked by ``inserted_at``, which refreshes never
  update — so in FIFO mode touches don't move keys and insertion order
  alone decides the victim;
* re-inserting a resident line refreshes (LRU: moves to end) and never
  evicts, matching ``SetAssociativeCache.insert``.

Two flavours: :class:`FastMetaCache` carries the per-line prefetch
metadata the L1I needs (access bit + source token); :class:`FastCache`
stores bare membership for the L1D/L2/LLC, where no consumer ever reads
line metadata.  Both expose the subset of the reference cache API the
simulator and the sanitizer facade use (``lookup`` / ``touch`` /
``contains`` / ``insert`` / ``invalidate`` / ``resident_lines`` /
``capacity`` / ``occupancy``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.sim.memory import MemoryHierarchy

__all__ = ["FastLine", "FastMetaCache", "FastCache", "FastHierarchy"]


class FastLine:
    """One resident L1I line: the metadata subset of ``CacheLine``."""

    __slots__ = ("line_addr", "prefetched", "src_meta")

    def __init__(self, line_addr: int) -> None:
        self.line_addr = line_addr
        self.prefetched = False
        self.src_meta: Any = None

    def __repr__(self) -> str:
        return f"FastLine(0x{self.line_addr:x}, prefetched={self.prefetched})"


class FastMetaCache:
    """Dict-ordered set-associative cache with per-line metadata (L1I)."""

    def __init__(self, sets: int, ways: int, replacement: str = "lru") -> None:
        if sets < 1 or ways < 1:
            raise ValueError("cache needs at least one set and one way")
        if replacement not in ("lru", "fifo"):
            raise ValueError(f"unknown replacement policy {replacement!r}")
        self.sets = sets
        self.ways = ways
        self.replacement = replacement
        self._lru = replacement == "lru"
        self._sets: List[Dict[int, FastLine]] = [dict() for _ in range(sets)]

    def lookup(self, line_addr: int, update_lru: bool = True) -> Optional[FastLine]:
        cache_set = self._sets[line_addr % self.sets]
        entry = cache_set.get(line_addr)
        if entry is not None and update_lru and self._lru:
            del cache_set[line_addr]
            cache_set[line_addr] = entry
        return entry

    def touch(self, entry: FastLine) -> None:
        """Promote a line found via a no-update probe (one LRU touch)."""
        if self._lru:
            cache_set = self._sets[entry.line_addr % self.sets]
            del cache_set[entry.line_addr]
            cache_set[entry.line_addr] = entry

    def contains(self, line_addr: int) -> bool:
        return line_addr in self._sets[line_addr % self.sets]

    def insert(self, line_addr: int) -> Optional[FastLine]:
        """Insert a line, returning the evicted line (if any)."""
        cache_set = self._sets[line_addr % self.sets]
        existing = cache_set.get(line_addr)
        if existing is not None:
            if self._lru:
                del cache_set[line_addr]
                cache_set[line_addr] = existing
            return None
        victim: Optional[FastLine] = None
        if len(cache_set) >= self.ways:
            victim = cache_set.pop(next(iter(cache_set)))
        cache_set[line_addr] = FastLine(line_addr)
        return victim

    def invalidate(self, line_addr: int) -> Optional[FastLine]:
        return self._sets[line_addr % self.sets].pop(line_addr, None)

    def resident_lines(self) -> List[int]:
        return [addr for cache_set in self._sets for addr in cache_set]

    @property
    def capacity(self) -> int:
        return self.sets * self.ways

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)


class FastCache:
    """Dict-ordered LRU cache without per-line metadata (L1D/L2/LLC).

    ``lookup`` returns a truthy sentinel on hit (callers only test
    ``is not None``); victims are discarded, matching every consumer of
    the data-side caches, which never reads the evicted line.
    """

    def __init__(self, sets: int, ways: int, replacement: str = "lru") -> None:
        if sets < 1 or ways < 1:
            raise ValueError("cache needs at least one set and one way")
        if replacement != "lru":
            raise ValueError("FastCache only models LRU (data-side caches)")
        self.sets = sets
        self.ways = ways
        self.replacement = replacement
        self._sets: List[Dict[int, bool]] = [dict() for _ in range(sets)]

    def lookup(self, line_addr: int, update_lru: bool = True) -> Optional[bool]:
        cache_set = self._sets[line_addr % self.sets]
        if line_addr not in cache_set:
            return None
        if update_lru:
            del cache_set[line_addr]
            cache_set[line_addr] = True
        return True

    def contains(self, line_addr: int) -> bool:
        return line_addr in self._sets[line_addr % self.sets]

    def insert(self, line_addr: int) -> None:
        cache_set = self._sets[line_addr % self.sets]
        if line_addr in cache_set:
            del cache_set[line_addr]
            cache_set[line_addr] = True
            return None
        if len(cache_set) >= self.ways:
            del cache_set[next(iter(cache_set))]
        cache_set[line_addr] = True
        return None

    def invalidate(self, line_addr: int) -> None:
        self._sets[line_addr % self.sets].pop(line_addr, None)

    def resident_lines(self) -> List[int]:
        return [addr for cache_set in self._sets for addr in cache_set]

    @property
    def capacity(self) -> int:
        return self.sets * self.ways

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)


class FastHierarchy(MemoryHierarchy):
    """A ``MemoryHierarchy`` whose L2/LLC are dict-ordered caches, built
    directly (never the reference caches first).

    ``MemoryHierarchy._access`` only calls ``lookup``/``insert`` and
    ignores eviction results, so the fast caches are drop-in; the walk
    logic (and its counter updates) stays the single shared
    implementation.
    """

    def __init__(self, config: Any, stats: Any) -> None:
        self.config = config
        self.stats = stats
        self.l2 = FastCache(config.l2_sets, config.l2_ways)
        self.llc = FastCache(config.llc_sets, config.llc_ways)
