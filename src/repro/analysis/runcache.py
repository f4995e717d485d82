"""Cross-figure memoization of simulation results.

Every figure in the paper's evaluation is a suite x configuration sweep,
and several figures share (configuration, workload) pairs — the Figure
7-10 curves reuse most of Figure 6's field, Table IV re-runs the same
configurations for energy, and every ``run_suite`` call re-simulates the
``no`` baseline.  Since traces are generated deterministically from a
:class:`~repro.workloads.generators.WorkloadSpec` and the simulator is
deterministic in (trace, configuration), a (spec, config name, resolved
:class:`~repro.sim.config.SimConfig`, warm-up, resolved ``EntanglingConfig``
if the task carries one) tuple fully identifies a run: the
:class:`RunCache` memoizes :class:`~repro.sim.simulator.SimResult` stats
under a fingerprint of exactly that tuple.

Cached results are *detached* — full stats and the prefetcher's
``internals``, no live prefetcher object — so every figure driver,
reporting and export works transparently.

Disk entries are version-stamped and checksummed: a truncated file, a
schema from another format version, or a flipped byte is detected on
load, logged, and treated as a miss (re-simulate) — never a crash, never
silently served garbage.  The disk layer itself is the sharded v4
:class:`~repro.analysis.store.ShardedRunStore` (256 fan-out dirs,
size/age eviction, lease-based in-flight coalescing across processes,
read-only degradation on ENOSPC/EIO), which alone knows the entry
format and checksum.

The process-wide default cache is always on; set
``REPRO_RUN_CACHE_DIR`` to also persist results as JSON files so
repeated evaluations across processes skip finished simulations.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import json
import logging
import os
from typing import Any, Dict, Optional, Tuple

from repro.analysis.store import ShardedRunStore
from repro.core.entangling import EntanglingConfig
from repro.sim.config import SimConfig
from repro.sim.simulator import SimResult
from repro.sim.stats import SimStats
from repro.workloads.generators import WorkloadSpec

logger = logging.getLogger(__name__)

#: Version of the *key derivation* (the hashed payload below).  Bumped
#: whenever a change must produce new run keys (old entries become
#: misses).  v3: WorkloadSpec gained trace_file/tenants.  v4: a task's
#: resolved EntanglingConfig joins the payload, and entries carry
#: ``internals``.  The disk entry format is versioned separately, by
#: ``store.STORE_FORMAT``.
_KEY_FORMAT_VERSION = 4


def _canonical(value: Any) -> Any:
    """JSON-ready canonical form: dataclasses -> sorted field dicts."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        # Sort by the *emitted* key form (str) — plain sorted() raises
        # TypeError on mixed-type keys (e.g. an int-keyed config dict
        # from a tuner genome), and the JSON keys are strings anyway.
        return {
            str(k): _canonical(v)
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    return value


def _canonical_json(payload: Any) -> str:
    # Canonicalize first: sort_keys alone raises TypeError on mixed-type
    # dict keys, and _canonical is idempotent for already-canonical input.
    return json.dumps(_canonical(payload), sort_keys=True, separators=(",", ":"))


def run_key(
    spec: WorkloadSpec,
    config_name: str,
    sim_config: SimConfig,
    warmup_instructions: int,
    entangling_config: Optional[EntanglingConfig] = None,
) -> str:
    """Stable fingerprint of one simulation's full identity.

    ``sim_config`` must be the *resolved* configuration (after
    ``resolve_config`` applied pseudo-config/physical adjustments) so the
    same name with different base configs never collides.
    ``entangling_config`` is a task's already-resolved prefetcher config,
    so two configs under one name never share a key.

    Keys hash a canonical sorted-JSON encoding of the explicit field
    values (not ``repr``), so they are stable across Python versions and
    only change when a field's *value set* actually changes; adding or
    renaming a dataclass field deliberately produces new keys (old
    entries become misses, which is the safe direction).

    ``SimConfig.backend`` is excluded: every backend produces
    bit-identical signatures (enforced by ``tests/test_backends.py``), so
    a result computed by one core must be served to all of them — and a
    backend switch must never invalidate a warm cache.

    A ``trace_file`` spec's workload is the file's content, so a digest
    of its bytes joins the key (generated specs' keys are unaffected).
    """
    config_fields = _canonical(sim_config)
    config_fields.pop("backend", None)
    payload = {
        "format": _KEY_FORMAT_VERSION,
        "spec": _canonical(spec),
        "config_name": config_name,
        "sim_config": config_fields,
        "warmup_instructions": warmup_instructions,
    }
    if entangling_config is not None:
        payload["entangling_config"] = _canonical(entangling_config)
    if spec.trace_file is not None:
        payload["trace_digest"] = _file_digest(spec.trace_file)
    text = _canonical_json(payload)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def file_stamp(path: str) -> Optional[Tuple[int, int, int]]:
    """``(size, mtime_ns, inode)`` of ``path``, or None when it cannot be
    stat'ed.  Rewriting the file changes it, so memos of what a file
    holds key on it."""
    try:
        stat = os.stat(path)
    except OSError:
        return None
    return stat.st_size, stat.st_mtime_ns, stat.st_ino


def _file_digest(path: str) -> Optional[str]:
    """sha256 of the file's bytes, or None when unreadable (loading it
    fails too)."""
    stamp = file_stamp(path)
    try:
        return None if stamp is None else _stamped_digest(path, stamp)
    except OSError:
        return None


# Unbounded: an entry is a short hex string, and a bounded memo is swept
# clean by a config-major suite over more files than it holds, which
# then hashes every file once per configuration.
@functools.lru_cache(maxsize=None)
def _stamped_digest(path: str, stamp: Tuple[int, int, int]) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class RunCache:
    """In-process (optionally on-disk) memo of detached ``SimResult``s.

    ``get``/``put`` count hits, misses, and stores so drivers can assert
    "each unique simulation ran exactly once" and report wall-clock saved
    (the sum of the original runs' ``wall_seconds`` over all hits).
    ``disk_corrupt`` counts entries rejected by the integrity checks.
    """

    def __init__(self, disk_dir: Optional[str] = None) -> None:
        self.disk_dir = disk_dir
        #: The shared on-disk half (sharded v4 store with eviction and
        #: leases); None for a purely in-memory cache.
        self.store: Optional[ShardedRunStore] = (
            ShardedRunStore(disk_dir) if disk_dir else None
        )
        self._publisher: Optional[Any] = None
        self._mem: Dict[str, SimResult] = {}
        self.clear()

    @property
    def publisher(self) -> Optional[Any]:
        """Duck-typed telemetry hook (``repro.obs.events.EventBus``): when
        set, every get/put emits a cache_hit/cache_miss/cache_store event.
        Same zero-cost pattern as the sanitizer's ``checker`` attribute —
        a single ``is None`` check, no imports here, and publish failures
        never disturb the cache.  Propagated to the disk store so
        eviction/degradation events share the bus."""
        return self._publisher

    @publisher.setter
    def publisher(self, value: Optional[Any]) -> None:
        self._publisher = value
        if self.store is not None:
            self.store.publisher = value

    def __len__(self) -> int:
        return len(self._mem)

    # -- lookup / insert ----------------------------------------------------

    def _publish(self, type_: str, key: str, label: str) -> None:
        if self.publisher is None:
            return
        try:
            self.publisher.emit(type_, run=key, label=label)
        except Exception:  # noqa: BLE001 — telemetry never breaks the cache
            logger.debug("cache event publish failed", exc_info=True)

    def get(self, key: str, label: str = "") -> Optional[SimResult]:
        """The cached result for ``key``, or None (counts a hit/miss).

        Returns an independent copy: callers may mutate the stats (e.g.
        ``reset``) without corrupting the cache.  Served copies are
        stamped ``stats.from_cache = True`` (telemetry, signature-
        excluded): their ``wall_seconds`` / ``instrs_per_second`` belong
        to the *original* simulation — possibly another process or even
        another backend, since ``run_key`` ignores the backend field —
        so timing aggregation and speedup gates must skip them.

        ``label`` is pure telemetry provenance (the engine's
        ``config/workload`` task label) attached to published events.
        """
        result = self._mem.get(key)
        if result is None and self.store is not None:
            result = self._load_disk(key)
            if result is not None:
                self._mem[key] = result
                self.disk_hits += 1
        if result is None:
            self.misses += 1
            self._publish("cache_miss", key, label)
            return None
        return self._serve(key, result, label)

    def wait_probe(self, key: str, label: str = "") -> Optional[SimResult]:
        """Quiet disk probe for lease followers polling an in-flight key.

        Serves (and counts) a coalesced hit once the owning process has
        published; until then returns None *silently* — no miss counter,
        no cache_miss event — so a follower polling every 200ms does not
        distort cache statistics or flood the ledger.
        """
        if self.store is None:
            return None
        data, status = self.store.load(key)
        if status != "ok":
            return None
        result = self._deserialize(key, data)
        if result is None:
            return None
        self._mem[key] = result
        self.disk_hits += 1
        self.coalesced += 1
        return self._serve(key, result, label)

    def _serve(self, key: str, result: SimResult, label: str) -> SimResult:
        """Count a hit and return a ``from_cache``-stamped copy."""
        self.hits += 1
        self.wall_seconds_saved += result.stats.wall_seconds
        served = self._copy(result)
        served.stats.from_cache = True
        self._publish("cache_hit", key, label)
        return served

    def put(self, key: str, result: SimResult, label: str = "") -> None:
        """Store a detached copy of ``result`` under ``key``."""
        detached = self._copy(result)
        # The stored truth is never "served from a cache": the stamp is
        # applied per-get, so a round-tripped result cannot smuggle it in.
        detached.stats.from_cache = False
        self._mem[key] = detached
        self.stores += 1
        if self.store is not None:
            self._store_disk(key, detached)
        self._publish("cache_store", key, label)

    def clear(self) -> None:
        """Empty the in-memory cache and reset every counter.

        Disk entries (``disk_dir``) are *not* removed — they remain valid
        and will be re-loaded (counting as disk hits) on the next ``get``.
        """
        self._mem.clear()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.disk_hits = 0
        self.disk_corrupt = 0
        self.disk_stale = 0
        self.lease_waits = 0
        self.coalesced = 0
        self.lease_steals = 0
        self.wall_seconds_saved = 0.0

    def stats_line(self) -> str:
        """One-line summary for timing reports."""
        line = (
            f"run cache: {self.stores} unique simulations, {self.hits} hits "
            f"({self.disk_hits} from disk), {self.misses} misses, "
            f"~{self.wall_seconds_saved:.1f}s of simulation re-use"
        )
        if self.coalesced or self.lease_waits:
            line += (
                f", {self.coalesced} coalesced from concurrent evaluators "
                f"({self.lease_steals} lease steals)"
            )
        if self.disk_corrupt:
            line += f", {self.disk_corrupt} corrupt disk entries rejected"
        if self.store is not None and self.store.read_only:
            line += ", store DEGRADED read-only"
        return line

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _copy(result: SimResult) -> SimResult:
        return SimResult(
            trace_name=result.trace_name,
            category=result.category,
            prefetcher_name=result.prefetcher_name,
            stats=SimStats.from_dict(result.stats.to_dict()),
            internals=copy.deepcopy(result.internals),
        )

    def _load_disk(self, key: str) -> Optional[SimResult]:
        data, status = self.store.load(key)
        if status == "missing":
            return None
        if status == "stale":
            # Another format version is stale-by-definition, not corrupt.
            self.disk_stale += 1
            logger.warning(
                "run cache entry %s has an unknown format version; "
                "re-simulating", key,
            )
            return None
        if status == "corrupt":
            self.disk_corrupt += 1
            logger.warning(
                "run cache entry %s is torn/corrupt; re-simulating", key
            )
            return None
        return self._deserialize(key, data)

    def _deserialize(self, key: str, data: Dict[str, Any]) -> Optional[SimResult]:
        try:
            return SimResult(
                trace_name=data["trace_name"],
                category=data["category"],
                prefetcher_name=data["prefetcher_name"],
                stats=SimStats.from_dict(data["stats"]),
                internals=data["internals"],
            )
        except (KeyError, TypeError):
            self.disk_corrupt += 1
            logger.warning(
                "run cache entry %s failed to deserialize; re-simulating", key
            )
            return None

    def _store_disk(self, key: str, result: SimResult) -> None:
        # The store seals the payload (format stamp + checksum) and
        # publishes atomically; persistence stays best-effort — a
        # degraded (read-only) store leaves the in-memory copy standing.
        self.store.publish(
            key,
            {
                "trace_name": result.trace_name,
                "category": result.category,
                "prefetcher_name": result.prefetcher_name,
                "stats": result.stats.to_dict(),
                "internals": result.internals,
            },
        )


_global_cache: Optional[RunCache] = None


def get_run_cache() -> RunCache:
    """The process-wide cache, created on first use."""
    global _global_cache
    if _global_cache is None:
        _global_cache = RunCache(
            disk_dir=os.environ.get("REPRO_RUN_CACHE_DIR") or None
        )
    return _global_cache


def set_run_cache(cache: Optional[RunCache]) -> Optional[RunCache]:
    """Replace the process-wide cache (None re-creates it lazily).

    Returns the previous cache so callers can restore it.
    """
    global _global_cache
    previous = _global_cache
    _global_cache = cache
    return previous
