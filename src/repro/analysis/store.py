"""Crash-safe, multi-process shared run store (cache format v4).

The disk half of the run cache: one checksummed JSON file per run key,
shared by every process that evaluates against the same directory.  The
entry files are the store's only state — there is no index or journal
to keep in step with them, so a stored entry *is* completion.

* **Sharded layout** — entries live under 256 fan-out directories keyed
  by the first two hex digits of the run key
  (``<root>/ab/<key>.json``), so no single directory ever holds the
  whole corpus.

* **Eviction** — a size budget (``REPRO_RUN_CACHE_MAX_BYTES``) and an
  age bound (``REPRO_RUN_CACHE_MAX_AGE``, seconds) enforced
  LRU-by-mtime: every read and publish stamps the entry's mtime with
  ``os.utime``, so every process sharing the store agrees on recency.
  :meth:`ShardedRunStore.maintain` scans the shards; between scans the
  byte total grows with each publish and triggers the next sweep.

* **Leases** — a claim protocol (``O_CREAT|O_EXCL`` lease files
  carrying pid/host, heartbeat = mtime) lets concurrent evaluators
  coalesce identical in-flight run keys: one process simulates, the
  rest :func:`await_result` and serve the published entry.  Followers
  steal leases whose owner died (dead pid on this host, or mtime older
  than the lease TTL).  Orphaned leases and staging tmp files are
  reaped on store open.

* **Graceful degradation** — ENOSPC/EIO/EROFS on any store write flips
  the store to read-only (logged once, counted, surfaced as a
  ``store_degraded`` telemetry event); the evaluation proceeds
  uncached instead of crashing hours in.

Every write goes through :mod:`repro.check.artifacts`' atomic
write-replace, and every entry carries a format stamp and checksum — a
torn or tampered entry is detected on load and treated as a miss, never
served.  The deterministic chaos harness in :mod:`repro.check.fsfault`
drives all of this under injected filesystem faults.
"""

from __future__ import annotations

import errno
import json
import logging
import os
import re
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.check.artifacts import atomic_write_bytes

logger = logging.getLogger(__name__)

#: Disk-entry format written by this store.  Decoupled from the *key*
#: format (see ``repro.analysis.runcache._KEY_FORMAT_VERSION``): an entry
#: format change need not change any run key, and vice versa.
STORE_FORMAT = 4

#: Entry formats servable on read; any other stamp loads as ``stale``.
ACCEPTED_ENTRY_FORMATS = (STORE_FORMAT,)

#: Default lease time-to-live in seconds: a lease whose mtime is older
#: than this counts as abandoned and may be stolen.
DEFAULT_LEASE_TTL = 30.0

#: Default follower poll period, in seconds.
DEFAULT_LEASE_POLL = 0.2

#: Default cap on how long a follower waits on a live owner before
#: giving up and simulating locally, in seconds.
DEFAULT_LEASE_MAX_WAIT = 600.0

_ENTRY_NAME = re.compile(r"^[0-9a-f]{32}\.json$")
_SHARD_NAME = re.compile(r"^[0-9a-f]{2}$")

#: errno values that mean "this filesystem can no longer take writes" —
#: the triggers for read-only degradation (everything else stays the old
#: best-effort skip-this-write behaviour).
_DEGRADE_ERRNOS = frozenset(
    code
    for code in (
        errno.ENOSPC,
        errno.EIO,
        errno.EROFS,
        getattr(errno, "EDQUOT", None),
    )
    if code is not None
)


def _env_int(name: str) -> Optional[int]:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be an integer number of bytes, got {raw!r}"
        ) from None
    return value if value > 0 else None


def _env_age(name: str) -> Optional[float]:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be a number of seconds, got {raw!r}"
        ) from None
    return value if value > 0 else None


def _fsfault(op: str, path: str, scope: str) -> None:
    """Deterministic fault seam (see :mod:`repro.check.fsfault`).

    Zero-cost unless chaos is armed: nothing is imported when neither
    ``REPRO_FSFAULT`` is set nor an injector was installed in-process.
    """
    if (
        "repro.check.fsfault" not in sys.modules
        and not os.environ.get("REPRO_FSFAULT")
    ):
        return
    from repro.check.fsfault import fault_check

    fault_check(op, path, scope=scope)


def entry_checksum(data: Dict[str, Any]) -> str:
    """Checksum of a disk entry's payload (everything but ``checksum``):
    the first 16 hex digits of the SHA-256 of its sorted-key JSON."""
    import hashlib

    payload = {k: v for k, v in data.items() if k != "checksum"}
    text = json.dumps(
        _plain_canonical(payload), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _plain_canonical(value: Any) -> Any:
    """Canonical form for already-JSON-shaped data (sorted str keys)."""
    if isinstance(value, dict):
        return {
            str(k): _plain_canonical(v)
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (list, tuple)):
        return [_plain_canonical(item) for item in value]
    return value


# ---------------------------------------------------------------------------
# leases
# ---------------------------------------------------------------------------


@dataclass
class Lease:
    """One held claim on a run key.  ``path`` is None for the degraded
    stand-in lease (store could not create the file; the caller owns the
    work but nothing on disk coordinates it)."""

    key: str
    path: Optional[str]
    released: bool = False


@dataclass
class EntryInfo:
    """One on-disk entry as seen by a shard scan."""

    key: str
    path: str
    size: int
    mtime: float


class LeaseKeeper(threading.Thread):
    """Daemon heartbeating held leases (mtime refresh) every ``ttl/3``.

    Keeps a long-running owner's leases visibly alive so followers keep
    waiting instead of stealing; dies with the process, at which point
    the mtime goes stale and the TTL takes over.
    """

    def __init__(self, store: "ShardedRunStore", leases: List[Lease]):
        super().__init__(daemon=True, name="repro-lease-keeper")
        self.store = store
        self.leases = [lease for lease in leases if lease.path]
        self.interval = max(0.05, store.lease_ttl / 3.0)
        # NB: not ``_stop`` — that name shadows a threading.Thread
        # internal that ``join()`` calls.
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            for lease in self.leases:
                if lease.released or not lease.path:
                    continue
                try:
                    os.utime(lease.path)
                except OSError:
                    pass  # released/stolen/unwritable — TTL decides

    def stop(self) -> None:
        self._halt.set()


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------


class ShardedRunStore:
    """The shared on-disk half of the run cache (format v4).

    All methods are crash-safe and never raise for IO damage: reads
    report a status, writes return success, and an unwritable filesystem
    degrades the store to read-only instead of killing the evaluation.
    ``clock`` is injectable for deterministic age/eviction tests.
    """

    def __init__(
        self,
        root: str,
        max_bytes: Optional[int] = None,
        max_age: Optional[float] = None,
        lease_ttl: Optional[float] = None,
        clock: Callable[[], float] = time.time,
        reap_on_open: bool = True,
        auto_maintain: bool = True,
    ) -> None:
        self.root = root
        self.clock = clock
        self.max_bytes = (
            max_bytes
            if max_bytes is not None
            else _env_int("REPRO_RUN_CACHE_MAX_BYTES")
        )
        self.max_age = (
            max_age if max_age is not None else _env_age("REPRO_RUN_CACHE_MAX_AGE")
        )
        self.lease_ttl = lease_ttl if lease_ttl is not None else DEFAULT_LEASE_TTL
        import socket

        self.host = socket.gethostname()
        #: Duck-typed telemetry hook (an ``EventBus``): cache_evicted /
        #: store_degraded events, same zero-cost pattern as RunCache.
        self.publisher: Optional[Any] = None

        # degradation state
        self.read_only = False
        self.degrade_reason: Optional[str] = None
        self.write_errors = 0

        # counters
        self.evictions = 0
        self.evicted_bytes = 0
        self.reaped_leases = 0
        self.reaped_tmps = 0
        self.lease_claims = 0
        self.lease_conflicts = 0
        self.lease_steals = 0

        #: Eviction triggers between scans: the byte total and the oldest
        #: last use as of the last :meth:`maintain`, plus every publish
        #: since.  The scan in :meth:`maintain` is the authority.
        self._approx_bytes = 0
        self._oldest_use: Optional[float] = None

        try:
            os.makedirs(root, exist_ok=True)
        except OSError as exc:
            self._note_write_error(exc, "store root")
        if reap_on_open:
            self.reap()
        if auto_maintain and (
            self.max_age is not None or self.max_bytes is not None
        ):
            self.maintain()

    # -- paths --------------------------------------------------------------

    def shard_dir(self, key: str) -> str:
        return os.path.join(self.root, key[:2])

    def path_for(self, key: str) -> str:
        return os.path.join(self.shard_dir(key), f"{key}.json")

    def lease_path(self, key: str) -> str:
        return os.path.join(self.shard_dir(key), f"{key}.lease")

    # -- degradation --------------------------------------------------------

    def _note_write_error(self, exc: OSError, what: str) -> None:
        self.write_errors += 1
        if self.read_only or exc.errno not in _DEGRADE_ERRNOS:
            logger.debug("run store write to %s failed: %s", what, exc)
            return
        self.read_only = True
        self.degrade_reason = f"{what}: {exc}"
        # Log once, loudly: from here on the evaluation proceeds uncached.
        logger.error(
            "run store %s degraded to read-only (%s); evaluation continues "
            "uncached",
            self.root,
            self.degrade_reason,
        )
        self._publish(
            "store_degraded",
            payload={"root": self.root, "reason": self.degrade_reason},
        )

    def _publish(self, type_: str, **kwargs: Any) -> None:
        if self.publisher is None:
            return
        try:
            self.publisher.emit(type_, **kwargs)
        except Exception:  # noqa: BLE001 — telemetry never breaks the store
            logger.debug("store event publish failed", exc_info=True)

    # -- entries ------------------------------------------------------------

    def publish(self, key: str, payload: Dict[str, Any]) -> bool:
        """Seal ``payload`` (format + checksum) and publish it atomically.

        Returns False (without raising) when the store is read-only or
        the write failed; an ENOSPC/EIO/EROFS failure degrades the store.
        """
        if self.read_only:
            return False
        data = dict(payload)
        data["format"] = STORE_FORMAT
        data.pop("checksum", None)
        data["checksum"] = entry_checksum(data)
        path = self.path_for(key)
        now = self.clock()
        try:
            os.makedirs(self.shard_dir(key), exist_ok=True)
            blob = json.dumps(data).encode("utf-8")
            atomic_write_bytes(path, blob, fsync=False, scope="cache")
            os.utime(path, (now, now))
        except OSError as exc:
            self._note_write_error(exc, f"entry {key[:8]}")
            return False
        self._approx_bytes += len(blob)
        if self._oldest_use is None:
            self._oldest_use = now
        if self._over_budget() or self._has_expired(now):
            self.maintain(protect=frozenset((key,)))
        return True

    def load(self, key: str) -> Tuple[Optional[Dict[str, Any]], str]:
        """Read one entry: ``(data, status)`` with status in
        ``ok | missing | corrupt | stale`` (stale = unknown format
        version, by definition written by some other era — a miss, not
        damage)."""
        path = self.path_for(key)
        data, status = self._read_path(path)
        if status != "ok":
            return None, status
        now = self.clock()
        try:
            os.utime(path, (now, now))  # a use, for LRU order
        except OSError:
            pass
        return data, status

    def _read_path(self, path: str) -> Tuple[Optional[Dict[str, Any]], str]:
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            return None, "missing"
        except OSError:
            return None, "corrupt"
        try:
            data = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return None, "corrupt"
        if not isinstance(data, dict):
            return None, "corrupt"
        if data.get("format") not in ACCEPTED_ENTRY_FORMATS:
            return None, "stale"
        if data.get("checksum") != entry_checksum(data):
            return None, "corrupt"
        return data, "ok"

    # -- scanning -----------------------------------------------------------

    def scan(self) -> List[EntryInfo]:
        """Authoritative walk of every entry in every shard directory."""
        entries: List[EntryInfo] = []
        try:
            root_listing = list(os.scandir(self.root))
        except OSError:
            return entries
        for item in root_listing:
            if not (item.is_dir() and _SHARD_NAME.match(item.name)):
                continue
            try:
                shard_listing = list(os.scandir(item.path))
            except OSError:
                continue
            for sub in shard_listing:
                if not (sub.is_file() and _ENTRY_NAME.match(sub.name)):
                    continue
                try:
                    st = sub.stat()
                except OSError:
                    continue
                entries.append(
                    EntryInfo(sub.name[:-5], sub.path, st.st_size, st.st_mtime)
                )
        return entries

    def total_bytes(self) -> int:
        return sum(entry.size for entry in self.scan())

    def _over_budget(self) -> bool:
        return self.max_bytes is not None and self._approx_bytes > self.max_bytes

    def _has_expired(self, now: float) -> bool:
        # ``_oldest_use`` can only lag behind the truth (a load since the
        # scan made that entry younger), so this errs towards a sweep.
        return (
            self.max_age is not None
            and self._oldest_use is not None
            and now - self._oldest_use > self.max_age
        )

    # -- eviction -----------------------------------------------------------

    def maintain(
        self, protect: frozenset = frozenset(), force: bool = False
    ) -> Tuple[int, int]:
        """Enforce the age bound and byte budget; returns
        ``(entries_evicted, bytes_evicted)``.

        One shard scan is authoritative, so concurrent writers can never
        hide bytes from the budget.  Oldest mtime (last use) goes first;
        ``protect``\\ ed keys (the entry just published) are evicted only
        if the budget cannot be met without them — the byte budget is a
        hard ceiling.
        """
        if self.max_bytes is None and self.max_age is None and not force:
            return (0, 0)
        now = self.clock()
        evicted = 0
        evicted_bytes = 0
        survivors: List[EntryInfo] = []
        for entry in self.scan():
            if self.max_age is not None and now - entry.mtime > self.max_age:
                evicted += 1
                evicted_bytes += self._evict(entry, "age")
            else:
                survivors.append(entry)
        if self.max_bytes is not None:
            survivors.sort(key=lambda entry: (entry.key in protect, entry.mtime))
            total = sum(entry.size for entry in survivors)
            cut = 0
            while cut < len(survivors) and total > self.max_bytes:
                total -= survivors[cut].size
                evicted_bytes += self._evict(survivors[cut], "size")
                cut += 1
            evicted += cut
            survivors = survivors[cut:]
        self._approx_bytes = sum(entry.size for entry in survivors)
        self._oldest_use = min((entry.mtime for entry in survivors), default=None)
        return evicted, evicted_bytes

    def _evict(self, entry: EntryInfo, reason: str) -> int:
        try:
            os.unlink(entry.path)
        except OSError:
            return 0
        self.evictions += 1
        self.evicted_bytes += entry.size
        self._publish(
            "cache_evicted",
            run=entry.key,
            payload={"bytes": entry.size, "reason": reason},
        )
        return entry.size

    # -- leases -------------------------------------------------------------

    def claim(self, key: str) -> Optional[Lease]:
        """Try to claim ``key``: a :class:`Lease` when this process owns
        the simulation, None when another live process already does.

        An unwritable filesystem returns a path-less stand-in lease: the
        caller simulates locally and coalescing is silently off (never
        blocked) for this key.
        """
        path = self.lease_path(key)
        try:
            # Separate from the O_EXCL open below: a *file* squatting on
            # the shard path also raises FileExistsError, and that is a
            # write failure, not somebody else's lease.
            os.makedirs(self.shard_dir(key), exist_ok=True)
        except OSError as exc:
            self._note_write_error(exc, f"shard {key[:2]}")
            return Lease(key, None)
        try:
            _fsfault("lease", path, "cache")
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            self.lease_conflicts += 1
            return None
        except OSError as exc:
            self._note_write_error(exc, f"lease {key[:8]}")
            return Lease(key, None)
        try:
            os.write(
                fd,
                json.dumps(
                    {"pid": os.getpid(), "host": self.host,
                     "created": time.time()}
                ).encode("utf-8"),
            )
        except OSError:
            pass
        finally:
            os.close(fd)
        self.lease_claims += 1
        return Lease(key, path)

    def release(self, lease: Optional[Lease]) -> None:
        if lease is None or lease.released:
            return
        lease.released = True
        if lease.path:
            try:
                os.unlink(lease.path)
            except OSError:
                pass

    def lease_state(self, key: str) -> Tuple[str, Optional[Dict[str, Any]]]:
        """``("free"|"held"|"stale", info)`` for ``key``'s lease.

        Stale means the owner is provably gone: its pid is dead on this
        host, or the lease heartbeat (mtime) is older than the TTL.
        A torn/unreadable lease body falls back to the TTL alone.
        """
        path = self.lease_path(key)
        try:
            st = os.stat(path)
        except OSError:
            return "free", None
        info: Optional[Dict[str, Any]] = None
        try:
            with open(path, "rb") as fh:
                parsed = json.loads(fh.read().decode("utf-8"))
            if isinstance(parsed, dict):
                info = parsed
        except (OSError, ValueError, UnicodeDecodeError):
            info = None
        if time.time() - st.st_mtime > self.lease_ttl:
            return "stale", info
        if info is not None and info.get("host") == self.host:
            try:
                pid = int(info.get("pid", 0))
            except (TypeError, ValueError):
                pid = 0
            if pid > 0 and not _pid_alive(pid):
                return "stale", info
        return "held", info

    def steal(self, key: str) -> Optional[Lease]:
        """Take over a stale lease: reap it, then race an ``O_EXCL``
        claim.  Exactly one of several stealers wins; the losers get
        None and go back to waiting on the winner."""
        state, _info = self.lease_state(key)
        if state == "held":
            return None
        if state == "stale":
            try:
                os.unlink(self.lease_path(key))
            except OSError:
                pass
        lease = self.claim(key)
        if lease is not None and state == "stale":
            self.lease_steals += 1
        return lease

    def reap(self) -> Tuple[int, int]:
        """Remove provably-orphaned leases and staging tmp files.

        Called on open: a crashed fleet leaves lease files with dead
        owners and ``*.tmp`` staging files that never got renamed; both
        are garbage once stale for a TTL.
        """
        leases = tmps = 0
        now = time.time()
        try:
            listing = list(os.scandir(self.root))
        except OSError:
            return (0, 0)
        dirs = [self.root] + [
            item.path
            for item in listing
            if item.is_dir() and _SHARD_NAME.match(item.name)
        ]
        for directory in dirs:
            try:
                items = list(os.scandir(directory))
            except OSError:
                continue
            for item in items:
                if not item.is_file():
                    continue
                if item.name.endswith(".lease"):
                    key = item.name[: -len(".lease")]
                    state, _info = self.lease_state(key)
                    if state == "stale":
                        try:
                            os.unlink(item.path)
                            leases += 1
                        except OSError:
                            pass
                elif item.name.endswith(".tmp"):
                    try:
                        if now - item.stat().st_mtime > self.lease_ttl:
                            os.unlink(item.path)
                            tmps += 1
                    except OSError:
                        pass
        self.reaped_leases += leases
        self.reaped_tmps += tmps
        return leases, tmps

    # -- inspection ---------------------------------------------------------

    def verify(self, purge: bool = False) -> Dict[str, Any]:
        """Checksum-scan every entry; optionally purge the bad ones."""
        ok = corrupt = stale = purged = 0
        bad_paths: List[str] = []
        for entry in self.scan():
            _data, status = self._read_path(entry.path)
            if status == "ok":
                ok += 1
                continue
            if status == "stale":
                stale += 1
            else:
                corrupt += 1
            bad_paths.append(entry.path)
            if purge:
                try:
                    os.unlink(entry.path)
                    purged += 1
                except OSError:
                    pass
        return {
            "ok": ok,
            "corrupt": corrupt,
            "stale": stale,
            "purged": purged,
            "bad_paths": bad_paths,
        }

    def describe(self) -> List[str]:
        """Human-readable status lines for ``repro store stats``."""
        entries = self.scan()
        total = sum(e.size for e in entries)
        shards = len({e.key[:2] for e in entries})
        budget = (
            f"{self.max_bytes} bytes" if self.max_bytes is not None else "none"
        )
        age = f"{self.max_age:.0f}s" if self.max_age is not None else "none"
        lines = [
            f"store: {self.root}",
            f"entries: {len(entries)}, {total} bytes across {shards} "
            f"shard dir(s)",
            f"budget: {budget}, max age: {age}, lease ttl: "
            f"{self.lease_ttl:.0f}s",
            f"evictions: {self.evictions} ({self.evicted_bytes} bytes)",
            f"leases: {self.lease_claims} claimed, {self.lease_conflicts} "
            f"conflicts, {self.lease_steals} stolen, {self.reaped_leases} "
            f"reaped (+{self.reaped_tmps} tmp)",
        ]
        if self.read_only:
            lines.append(f"DEGRADED read-only: {self.degrade_reason}")
        return lines


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True  # e.g. EPERM: alive but not ours
    return True


# ---------------------------------------------------------------------------
# follower protocol (stampede coalescing)
# ---------------------------------------------------------------------------


def await_result(
    cache: Any,
    store: ShardedRunStore,
    key: str,
    label: str,
    bus: Optional[Any] = None,
    poll: float = DEFAULT_LEASE_POLL,
    max_wait: float = DEFAULT_LEASE_MAX_WAIT,
    clock: Callable[[], float] = time.time,
    sleep: Callable[[float], None] = time.sleep,
) -> Optional[Any]:
    """Follow an in-flight run key owned by another process.

    Polls the shared store until the owner publishes (returns the served
    result, counted as a coalesced hit on ``cache``) or the lease goes
    free/stale or ``max_wait`` elapses (returns None: the caller should
    :meth:`ShardedRunStore.steal` and simulate locally).
    """
    state, info = store.lease_state(key)
    owner = info.get("pid") if isinstance(info, dict) else None
    cache.lease_waits += 1
    started = clock()
    if bus is not None:
        try:
            bus.emit(
                "lease_wait",
                label=label,
                run=key,
                payload={"owner_pid": owner},
            )
        except Exception:  # noqa: BLE001
            logger.debug("lease_wait publish failed", exc_info=True)
    while True:
        hit = cache.wait_probe(key, label=label)
        if hit is not None:
            return hit
        state, _info = store.lease_state(key)
        if state != "held":
            return None
        if clock() - started > max_wait:
            logger.warning(
                "gave up waiting %.0fs on lease %s (%s); simulating locally",
                max_wait, key[:8], label,
            )
            return None
        sleep(poll)
