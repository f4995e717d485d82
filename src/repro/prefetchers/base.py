"""The event-driven instruction-prefetcher interface.

The simulator drives prefetchers through the same events ChampSim exposes,
extended with the feedback channels the paper's Figure 5 requires:

* :meth:`~InstructionPrefetcher.on_demand_access` — every demand L1I
  access (FTQ enqueue; Fetch-Directed-Prefetching accesses count as
  demand, matching the paper's baseline).  Returns prefetch requests.
* :meth:`~InstructionPrefetcher.on_branch` — every retired-path branch
  with its outcome; used by RAS/BTB-directed prefetchers.
* :meth:`~InstructionPrefetcher.on_fill` — a miss or prefetch completed
  and filled the L1I; carries the timing metadata from the MSHR.
* :meth:`~InstructionPrefetcher.on_prefetch_useful` /
  :meth:`~InstructionPrefetcher.on_prefetch_late` /
  :meth:`~InstructionPrefetcher.on_evict_unused` — the timely / late /
  wrong prefetch feedback used to adjust confidence.

Every request may carry an opaque ``src_meta`` token.  The simulator
threads it through the PQ, the MSHR and the cache line (as the paper does
with the source-entangled fields) and hands it back in feedback events.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, NamedTuple, Optional

from repro.workloads.trace import BranchType


class PrefetchRequest(NamedTuple):
    """A prefetch for one instruction-cache line (an immutable value)."""

    line_addr: int
    src_meta: Any = None


class FillInfo(NamedTuple):
    """Timing metadata delivered with an L1I fill (from the MSHR entry);
    an immutable value, built positionally on the simulators' hot paths.

    Attributes:
        line_addr: the filled line.
        fill_cycle: when the line entered the cache.
        issue_cycle: when the request left for the hierarchy (demand miss
            time, or prefetch issue time for prefetch fills).
        is_demand: final state of the access bit — True for demand misses
            and for late prefetches.
        was_prefetch: the MSHR entry was allocated by a prefetch.
        demand_cycle: first demand access time, or None if never demanded.
        src_meta: source token of the triggering prefetch, if any.
    """

    line_addr: int
    fill_cycle: int
    issue_cycle: int
    is_demand: bool
    was_prefetch: bool
    demand_cycle: Optional[int]
    src_meta: Any = None

    @property
    def latency(self) -> int:
        """Measured fetch latency of this fill (from its own issue time)."""
        return self.fill_cycle - self.issue_cycle

    @property
    def demand_latency(self) -> int:
        """Miss latency as observed by the demanding access.

        For a late prefetch the demand arrived while the line was already
        in flight, so the latency it observed runs from ``demand_cycle``
        to the fill — not from the earlier prefetch issue.  Using
        :attr:`latency` there overstates the wait and makes
        latency-driven source selection (the paper's ``latency``-cycle
        deadline) pick sources older than required.  Demand misses
        observe the full issue-to-fill latency, identical to
        :attr:`latency`.
        """
        if self.was_prefetch and self.is_demand and self.demand_cycle is not None:
            return self.fill_cycle - self.demand_cycle
        return self.fill_cycle - self.issue_cycle

    @property
    def is_late_prefetch(self) -> bool:
        return self.was_prefetch and self.is_demand


class InstructionPrefetcher:
    """Base class; the default implementation never prefetches."""

    #: Human-readable name used in reports.
    name: str = "no"
    #: Ideal prefetchers make every L1I access hit (simulator support).
    is_ideal: bool = False
    #: Passive prefetchers never request anything and keep no state: every
    #: hook is a no-op returning ().  The staged core's guarded stages skip
    #: hook dispatch entirely for passive prefetchers, so only set it when
    #: *all* hooks are inherited no-ops.
    is_passive: bool = False

    def storage_bits(self) -> int:
        """Extra state this prefetcher adds, in bits."""
        return 0

    @property
    def storage_kb(self) -> float:
        return self.storage_bits() / 8192.0

    def internals(self) -> Dict[str, Any]:
        """JSON-ready internal statistics, carried in ``SimResult.internals``."""
        return {}

    def on_demand_access(
        self, line_addr: int, hit: bool, cycle: int
    ) -> Iterable[PrefetchRequest]:
        return ()

    def on_branch(
        self,
        pc: int,
        branch_type: BranchType,
        taken: bool,
        target: int,
        cycle: int,
    ) -> Iterable[PrefetchRequest]:
        return ()

    def on_fill(self, info: FillInfo) -> Iterable[PrefetchRequest]:
        return ()

    def on_prefetch_useful(self, line_addr: int, src_meta: Any, cycle: int) -> None:
        pass

    def on_prefetch_late(self, line_addr: int, src_meta: Any, cycle: int) -> None:
        pass

    def on_evict_unused(self, line_addr: int, src_meta: Any, cycle: int) -> None:
        pass

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class NullPrefetcher(InstructionPrefetcher):
    """The no-prefetch baseline (the paper's ``no`` configuration)."""

    name = "no"
    is_passive = True
