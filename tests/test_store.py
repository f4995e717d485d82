"""Unit tests for the sharded shared run store (cache format v4).

The contract under test: entries live under 256 fan-out shard
directories, and those entry files are the store's only state (opening
a store without a budget scans nothing, and no index file is written);
the byte budget and age bound evict LRU-by-last-use, deterministically
under an injected clock; leases coalesce in-flight keys and are
stealable exactly when their owner is provably gone; and an unwritable
filesystem degrades the store to read-only instead of raising.  A
hypothesis property pins the eviction invariants (budget is a hard
ceiling, survivors are the most recently used) across arbitrary
publish/touch/evict interleavings.
"""

import json
import os
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.store import (
    DEFAULT_LEASE_TTL,
    Lease,
    LeaseKeeper,
    ShardedRunStore,
    STORE_FORMAT,
    await_result,
    entry_checksum,
)


class FakeClock:
    """Injectable, manually-advanced time source for eviction tests."""

    def __init__(self, start: float = 1_000_000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _key(i: int) -> str:
    return f"{i:032x}"


def _payload(i: int, pad: int = 0) -> dict:
    return {
        "trace_name": f"t{i}",
        "category": "int",
        "prefetcher_name": "no",
        "stats": {"instructions": i, "pad": "x" * pad},
    }


def _store(tmp_path, **kwargs) -> ShardedRunStore:
    kwargs.setdefault("reap_on_open", False)
    return ShardedRunStore(str(tmp_path), **kwargs)


class TestShardedLayout:
    def test_publish_lands_in_shard_dir(self, tmp_path):
        store = _store(tmp_path)
        key = "ab" + "0" * 30
        assert store.publish(key, _payload(1))
        assert os.path.exists(
            os.path.join(str(tmp_path), "ab", f"{key}.json")
        )

    def test_roundtrip_ok(self, tmp_path):
        store = _store(tmp_path)
        key = _key(1)
        store.publish(key, _payload(1))
        data, status = store.load(key)
        assert status == "ok"
        assert data["stats"]["instructions"] == 1
        assert data["format"] == STORE_FORMAT

    def test_missing_is_missing(self, tmp_path):
        data, status = _store(tmp_path).load(_key(9))
        assert (data, status) == (None, "missing")

    def test_entry_sealed_with_checksum(self, tmp_path):
        store = _store(tmp_path)
        key = _key(2)
        store.publish(key, _payload(2))
        with open(store.path_for(key)) as fh:
            data = json.load(fh)
        assert data["checksum"] == entry_checksum(data)

    def test_torn_entry_is_corrupt_never_served(self, tmp_path):
        store = _store(tmp_path)
        key = _key(3)
        store.publish(key, _payload(3))
        path = store.path_for(key)
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(text[: len(text) // 2])
        data, status = store.load(key)
        assert (data, status) == (None, "corrupt")

    def test_future_format_is_stale_not_corrupt(self, tmp_path):
        store = _store(tmp_path)
        key = _key(4)
        store.publish(key, _payload(4))
        path = store.path_for(key)
        with open(path) as fh:
            data = json.load(fh)
        data["format"] = STORE_FORMAT + 1
        with open(path, "w") as fh:
            json.dump(data, fh)
        _data, status = store.load(key)
        assert status == "stale"


class TestEviction:
    def test_byte_budget_evicts_oldest_first(self, tmp_path):
        clock = FakeClock()
        store = _store(tmp_path, clock=clock)
        sizes = {}
        for i in range(6):
            key = _key(i)
            store.publish(key, _payload(i, pad=200))
            sizes[key] = os.path.getsize(store.path_for(key))
            clock.advance(10.0)
        entry = next(iter(sizes.values()))
        store.max_bytes = entry * 3  # room for ~3 entries
        evicted, freed = store.maintain()
        assert evicted == 3
        assert freed == sum(sizes[_key(i)] for i in range(3))
        # The three *newest* survive.
        for i in range(3):
            assert store.load(_key(i)) == (None, "missing")
        for i in range(3, 6):
            assert store.load(_key(i))[1] == "ok"
        assert store.total_bytes() <= store.max_bytes

    def test_touch_on_read_updates_lru_order(self, tmp_path):
        clock = FakeClock()
        store = _store(tmp_path, clock=clock)
        for i in range(3):
            store.publish(_key(i), _payload(i, pad=200))
            clock.advance(10.0)
        store.load(_key(0))  # oldest entry becomes most recently used
        clock.advance(1.0)
        store.max_bytes = os.path.getsize(store.path_for(_key(0))) * 2
        store.maintain()
        assert store.load(_key(0))[1] == "ok"
        assert store.load(_key(1)) == (None, "missing")

    def test_age_bound_sweeps_expired(self, tmp_path):
        clock = FakeClock()
        store = _store(tmp_path, clock=clock, max_age=100.0)
        store.publish(_key(0), _payload(0))
        clock.advance(50.0)
        store.publish(_key(1), _payload(1))
        clock.advance(60.0)  # key 0 is now 110s old, key 1 only 60s
        evicted, _freed = store.maintain()
        assert evicted == 1
        assert store.load(_key(0)) == (None, "missing")
        assert store.load(_key(1))[1] == "ok"

    def test_publish_triggers_maintain_over_budget(self, tmp_path):
        clock = FakeClock()
        store = _store(tmp_path, clock=clock)
        store.publish(_key(0), _payload(0, pad=200))
        entry = os.path.getsize(store.path_for(_key(0)))
        store.max_bytes = entry + entry // 2
        clock.advance(10.0)
        store.publish(_key(1), _payload(1, pad=200))
        # The just-published key is protected; the older one went.
        assert store.load(_key(1))[1] == "ok"
        assert store.load(_key(0)) == (None, "missing")
        assert store.evictions == 1

    def test_publish_triggers_age_sweep(self, tmp_path):
        clock = FakeClock()
        store = _store(tmp_path, clock=clock, max_age=100.0)
        store.publish(_key(0), _payload(0))
        clock.advance(150.0)
        store.publish(_key(1), _payload(1))
        assert store.evictions == 1
        assert store.load(_key(0)) == (None, "missing")
        assert store.load(_key(1))[1] == "ok"

    def test_protected_key_evicted_only_as_last_resort(self, tmp_path):
        """The byte budget is a hard ceiling: when one entry alone
        exceeds it, even the protected just-published key goes."""
        clock = FakeClock()
        store = _store(tmp_path, clock=clock, max_bytes=64)
        store.publish(_key(0), _payload(0, pad=500))
        assert store.total_bytes() == 0

    def test_eviction_emits_telemetry(self, tmp_path):
        events = []

        class Bus:
            def emit(self, type_, **kwargs):
                events.append((type_, kwargs))

        clock = FakeClock()
        store = _store(tmp_path, clock=clock)
        store.publisher = Bus()
        store.publish(_key(0), _payload(0, pad=200))
        clock.advance(10.0)
        store.max_bytes = 10
        store.maintain()
        assert [t for t, _ in events] == ["cache_evicted"]
        assert events[0][1]["payload"]["reason"] == "size"


class TestEntryFilesAreTheOnlyState:
    def _count_scans(self, monkeypatch):
        calls = []
        real_scan = ShardedRunStore.scan

        def counting_scan(self):
            calls.append(1)
            return real_scan(self)

        monkeypatch.setattr(ShardedRunStore, "scan", counting_scan)
        return calls

    def test_open_without_budget_scans_nothing(self, tmp_path, monkeypatch):
        seed = _store(tmp_path)
        for i in range(3):
            seed.publish(_key(i), _payload(i))
        scans = self._count_scans(monkeypatch)
        fresh = ShardedRunStore(str(tmp_path))
        assert scans == []
        assert fresh.load(_key(1))[1] == "ok"

    def test_open_with_budget_costs_one_maintain(self, tmp_path, monkeypatch):
        seed = _store(tmp_path)
        for i in range(3):
            seed.publish(_key(i), _payload(i))
        scans = self._count_scans(monkeypatch)
        _store(tmp_path, max_bytes=10_000_000)
        on_open = len(scans)
        scans.clear()
        _store(tmp_path, auto_maintain=False, max_bytes=10_000_000).maintain()
        assert on_open == len(scans) == 1

    def test_budget_accounting_writes_no_index(self, tmp_path):
        clock = FakeClock()
        store = _store(tmp_path, clock=clock, max_bytes=10_000_000,
                       max_age=100.0)
        for i in range(4):
            store.publish(_key(i), _payload(i))
            clock.advance(10.0)
        store.maintain(force=True)
        assert sorted(os.listdir(str(tmp_path))) == sorted(
            {_key(i)[:2] for i in range(4)}
        )


class TestLeases:
    def test_claim_conflict_release(self, tmp_path):
        store = _store(tmp_path)
        other = _store(tmp_path)
        key = _key(1)
        lease = store.claim(key)
        assert lease is not None and lease.path
        assert other.claim(key) is None
        assert other.lease_conflicts == 1
        store.release(lease)
        assert other.claim(key) is not None

    def test_lease_state_transitions(self, tmp_path):
        store = _store(tmp_path)
        key = _key(2)
        assert store.lease_state(key)[0] == "free"
        lease = store.claim(key)
        state, info = store.lease_state(key)
        assert state == "held"
        assert info["pid"] == os.getpid()
        store.release(lease)
        assert store.lease_state(key)[0] == "free"

    def test_dead_pid_is_stale_and_stealable(self, tmp_path):
        store = _store(tmp_path)
        key = _key(3)
        lease = store.claim(key)
        # Rewrite the lease body with a pid that cannot exist.
        with open(lease.path, "w") as fh:
            json.dump({"pid": 2 ** 22 + 1, "host": store.host}, fh)
        assert store.lease_state(key)[0] == "stale"
        stolen = store.steal(key)
        assert stolen is not None
        assert store.lease_steals == 1
        assert store.lease_state(key)[0] == "held"

    def test_expired_mtime_is_stale(self, tmp_path):
        store = _store(tmp_path, lease_ttl=0.05)
        key = _key(4)
        lease = store.claim(key)
        past = os.stat(lease.path).st_mtime - 10.0
        os.utime(lease.path, (past, past))
        assert store.lease_state(key)[0] == "stale"

    def test_steal_refuses_live_lease(self, tmp_path):
        store = _store(tmp_path)
        key = _key(5)
        store.claim(key)
        other = _store(tmp_path)
        assert other.steal(key) is None
        assert other.lease_steals == 0

    def test_torn_lease_body_falls_back_to_ttl(self, tmp_path):
        store = _store(tmp_path)
        key = _key(6)
        lease = store.claim(key)
        with open(lease.path, "w") as fh:
            fh.write("{torn")
        assert store.lease_state(key)[0] == "held"  # mtime fresh
        past = os.stat(lease.path).st_mtime - 2 * DEFAULT_LEASE_TTL
        os.utime(lease.path, (past, past))
        assert store.lease_state(key)[0] == "stale"

    def test_reap_removes_stale_leases_and_old_tmps(self, tmp_path):
        store = _store(tmp_path, lease_ttl=5.0)
        key = _key(7)
        lease = store.claim(key)
        past = os.stat(lease.path).st_mtime - 100.0
        os.utime(lease.path, (past, past))
        tmp = os.path.join(str(tmp_path), "dead.json.123.4.tmp")
        with open(tmp, "w") as fh:
            fh.write("x")
        os.utime(tmp, (past, past))
        leases, tmps = store.reap()
        assert (leases, tmps) == (1, 1)
        assert not os.path.exists(lease.path)
        assert not os.path.exists(tmp)

    def test_reap_keeps_fresh_tmps(self, tmp_path):
        store = _store(tmp_path)
        tmp = os.path.join(str(tmp_path), "live.json.123.4.tmp")
        with open(tmp, "w") as fh:
            fh.write("x")
        assert store.reap() == (0, 0)
        assert os.path.exists(tmp)

    def test_keeper_heartbeats_lease(self, tmp_path):
        store = _store(tmp_path, lease_ttl=0.3)
        lease = store.claim(_key(8))
        past = os.stat(lease.path).st_mtime - 10.0
        os.utime(lease.path, (past, past))
        keeper = LeaseKeeper(store, [lease])
        try:
            keeper.start()
            deadline = __import__("time").time() + 5.0
            while __import__("time").time() < deadline:
                if os.stat(lease.path).st_mtime > past + 5.0:
                    break
                __import__("time").sleep(0.02)
            assert os.stat(lease.path).st_mtime > past + 5.0
        finally:
            keeper.stop()
            keeper.join(timeout=5.0)


class TestDegradation:
    def _degrade(self, store: ShardedRunStore) -> None:
        import errno

        store._note_write_error(
            OSError(errno.ENOSPC, "no space left on device"), "test"
        )

    def test_enospc_flips_read_only_once(self, tmp_path):
        store = _store(tmp_path)
        self._degrade(store)
        assert store.read_only
        reason = store.degrade_reason
        self._degrade(store)
        assert store.degrade_reason == reason  # logged/recorded once
        assert store.write_errors == 2

    def test_read_only_publish_returns_false(self, tmp_path):
        store = _store(tmp_path)
        store.publish(_key(0), _payload(0))
        self._degrade(store)
        assert store.publish(_key(1), _payload(1)) is False
        assert store.load(_key(0))[1] == "ok"  # reads still work

    def test_benign_oserror_does_not_degrade(self, tmp_path):
        import errno

        store = _store(tmp_path)
        store._note_write_error(OSError(errno.EACCES, "denied"), "test")
        assert not store.read_only

    def test_degradation_emits_event(self, tmp_path):
        events = []

        class Bus:
            def emit(self, type_, **kwargs):
                events.append(type_)

        store = _store(tmp_path)
        store.publisher = Bus()
        self._degrade(store)
        assert events == ["store_degraded"]

    def test_degraded_claim_returns_pathless_lease(self, tmp_path):
        """An unwritable store never blocks the caller: claim hands out
        a stand-in lease so the simulation proceeds locally."""
        store = _store(tmp_path)
        # Make the shard dir creation fail by planting a file where the
        # directory should go.
        key = "cd" + "0" * 30
        with open(os.path.join(str(tmp_path), "cd"), "w") as fh:
            fh.write("in the way")
        lease = store.claim(key)
        assert lease is not None and lease.path is None
        store.release(lease)  # no-op, no raise


class TestAwaitResult:
    class _CacheStub:
        def __init__(self, results):
            self._results = results
            self.lease_waits = 0
            self.calls = 0

        def wait_probe(self, key, label=""):
            self.calls += 1
            return self._results.pop(0) if self._results else None

    def test_returns_hit_when_owner_publishes(self, tmp_path):
        store = _store(tmp_path)
        key = _key(1)
        store.claim(key)
        cache = self._CacheStub([None, None, "RESULT"])
        got = await_result(
            cache, store, key, "lbl", poll=0.0, max_wait=10.0,
            sleep=lambda s: None,
        )
        assert got == "RESULT"
        assert cache.lease_waits == 1

    def test_returns_none_when_lease_freed(self, tmp_path):
        store = _store(tmp_path)
        cache = self._CacheStub([])
        got = await_result(
            cache, store, _key(2), "lbl", poll=0.0, max_wait=10.0,
            sleep=lambda s: None,
        )
        assert got is None  # no lease at all -> steal path

    def test_gives_up_after_max_wait(self, tmp_path):
        store = _store(tmp_path)
        key = _key(3)
        store.claim(key)
        ticks = iter(range(100))
        got = await_result(
            cache := self._CacheStub([]), store, key, "lbl",
            poll=0.0, max_wait=3.0, clock=lambda: float(next(ticks)),
            sleep=lambda s: None,
        )
        assert got is None
        assert cache.calls > 1


class TestEnvKnobs:
    def test_budget_env_rejects_garbage(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_CACHE_MAX_BYTES", "lots")
        with pytest.raises(ValueError):
            ShardedRunStore(str(tmp_path))


class TestStoreCLI:
    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("flag", ["--max-bytes", "--max-age"])
    def test_evict_rejects_non_positive_budget(self, tmp_path, capsys,
                                               flag, value):
        """Like ``REPRO_RUN_CACHE_MAX_BYTES=0`` ("no budget"), a zero or
        negative flag is no budget: usage error, nothing evicted."""
        from repro.cli import main

        store = _store(tmp_path)
        for i in range(3):
            assert store.publish(_key(i), _payload(i))
        with pytest.raises(SystemExit) as exc:
            main(["store", str(tmp_path), "evict", flag, value])
        assert exc.value.code == 2
        assert "must be positive" in capsys.readouterr().err
        assert all(os.path.exists(store.path_for(_key(i))) for i in range(3))


class TestConcurrentWriters:
    def test_threaded_publish_load_never_garbage(self, tmp_path):
        """In-process analogue of the chaos harness: hammer publish/load
        on shared keys; every successful load passes the checksum."""
        store_a = _store(tmp_path)
        store_b = _store(tmp_path)
        errors = []

        def writer(store, base):
            for i in range(40):
                store.publish(_key(i % 4), _payload(base + i))

        def reader():
            probe = _store(tmp_path)
            for i in range(160):
                data, status = probe.load(_key(i % 4))
                if status not in ("ok", "missing"):
                    errors.append(status)
                if data is not None and "stats" not in data:
                    errors.append("schema hole")

        threads = [
            threading.Thread(target=writer, args=(store_a, 0)),
            threading.Thread(target=writer, args=(store_b, 1000)),
            threading.Thread(target=reader),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert _store(tmp_path).verify()["corrupt"] == 0


class TestEvictionProperty:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["publish", "touch"]),
                st.integers(0, 9),
                st.integers(1, 30),
            ),
            min_size=1,
            max_size=40,
        ),
        budget_entries=st.integers(1, 6),
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow,
                               HealthCheck.function_scoped_fixture],
    )
    def test_budget_is_hard_ceiling_and_lru_survives(
        self, tmp_path, ops, budget_entries
    ):
        """Under any publish/touch interleaving: after maintain() the
        store is within budget and the survivors are exactly the most
        recently used entries that fit."""
        import shutil

        root = os.path.join(str(tmp_path), "prop")
        shutil.rmtree(root, ignore_errors=True)
        clock = FakeClock()
        store = ShardedRunStore(root, clock=clock, reap_on_open=False)
        last_use = {}
        for op, i, dt in ops:
            clock.advance(float(dt))
            key = _key(i)
            if op == "publish":
                assert store.publish(key, _payload(i, pad=100))
                last_use[key] = clock.now
            elif key in last_use:
                store.load(key)
                last_use[key] = clock.now
        if not last_use:
            return  # nothing published this example
        sizes = {
            k: os.path.getsize(store.path_for(k)) for k in last_use
        }
        entry = max(sizes.values())
        store.max_bytes = entry * budget_entries
        store.maintain()
        total = store.total_bytes()
        assert total <= store.max_bytes
        survivors = {e.key for e in store.scan()}
        # Survivors must be a recency-suffix: no evicted key may be
        # more recently used than a surviving key.
        if survivors:
            oldest_kept = min(last_use[k] for k in survivors)
            for key in set(last_use) - survivors:
                assert last_use[key] <= oldest_kept
        for key in survivors:
            assert store.load(key)[1] == "ok"
