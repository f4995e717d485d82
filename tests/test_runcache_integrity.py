"""Integrity tests for the on-disk run cache.

The contract under test: a corrupted, truncated, tampered, or
wrong-version disk entry is detected on load and treated as a miss
(logged, re-simulated) — never raised, never silently served; concurrent
writers sharing a cache directory cannot publish interleaved garbage;
and ``run_key`` is a stable canonical fingerprint, pinned here so
accidental drift (repr changes, field reordering, cross-version
differences) fails loudly.
"""

import json
import os
import subprocess
import sys
import textwrap
import threading

import pytest

from repro.analysis.experiments import run_cached
from repro.analysis.runcache import RunCache, _canonical_json, run_key
from repro.analysis.store import STORE_FORMAT, entry_checksum
from repro.sim.config import SimConfig
from repro.sim.simulator import SimResult
from repro.sim.stats import SimStats
from repro.workloads.generators import WorkloadSpec, make_workload
from repro.workloads.trace import write_trace

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

SPEC = WorkloadSpec(name="rc_int", category="int", seed=31, n_instructions=12_000)


def _make_result(instructions: int = 1000) -> SimResult:
    stats = SimStats(instructions=instructions, cycles=2 * instructions)
    return SimResult(
        trace_name="t", category="int", prefetcher_name="no", stats=stats
    )


class TestRunKeyCanonical:
    def test_pinned_key_for_known_input(self):
        """Guards against fingerprint drift: a changed key silently
        invalidates (or collides with) every on-disk cache entry.  If
        this fails because the key derivation *deliberately* changed,
        bump ``_KEY_FORMAT_VERSION`` and re-pin."""
        spec = WorkloadSpec(
            name="pin", category="int", seed=7, n_instructions=50_000
        )
        assert (
            run_key(spec, "next_line", SimConfig(), 20_000)
            == "2aa7406c3a371cb8aa077d6482dbe39a"
        )

    def test_key_distinguishes_every_component(self):
        base = SimConfig()
        key = run_key(SPEC, "next_line", base, 1000)
        assert key != run_key(SPEC, "entangling_2k", base, 1000)
        assert key != run_key(SPEC, "next_line", base, 0)
        assert key != run_key(SPEC, "next_line", base.with_l1i_kb(64), 1000)
        other = WorkloadSpec(
            name="rc_int", category="int", seed=32, n_instructions=12_000
        )
        assert key != run_key(other, "next_line", base, 1000)
        assert key == run_key(SPEC, "next_line", SimConfig(), 1000)

    def test_mixed_type_dict_keys_do_not_crash(self):
        """Canonicalization sorts dict keys by ``str(k)``: a mapping that
        mixes int and str keys (e.g. a mode-whitelist keyed by degree)
        must serialize deterministically instead of raising TypeError on
        the ``int < str`` comparison."""
        mixed = {1: "a", "b": 2, 10: "c"}
        text = _canonical_json(mixed)
        assert text == _canonical_json({"b": 2, 10: "c", 1: "a"})
        assert json.loads(text) == {"1": "a", "10": "c", "b": 2}


class TestEntanglingConfigKeys:
    """Two configs under one name are two runs, not one cached result."""

    def _tasks(self):
        from repro.analysis.parallel import RunTask
        from repro.core.entangling import EntanglingConfig

        return [
            RunTask(SPEC, "variant", configs=(config, SimConfig()))
            for config in (EntanglingConfig(), EntanglingConfig(history_size=4))
        ]

    def test_task_keys_differ(self):
        from repro.analysis.parallel import task_key

        first, second = self._tasks()
        assert task_key(first) != task_key(second)
        assert task_key(first) == task_key(self._tasks()[0])

    def test_second_config_is_simulated_not_served(self, tmp_path):
        from repro.analysis.parallel import run_tasks_parallel

        cache = RunCache(disk_dir=str(tmp_path))
        first, second = (
            run_tasks_parallel([task], jobs=1, cache=cache).results[0]
            for task in self._tasks()
        )
        assert cache.stores == 2 and cache.hits == 0
        assert not second.stats.from_cache
        assert second.stats.signature() != first.stats.signature()


class TestInternals:
    def test_store_round_trips_internals(self, tmp_path):
        result = run_cached(SPEC, "entangling_4k", cache=RunCache())
        assert result.internals["format_bits"]
        writer = RunCache(disk_dir=str(tmp_path))
        writer.put("k" * 32, result)
        served = RunCache(disk_dir=str(tmp_path)).get("k" * 32)
        assert served.internals == result.internals
        assert served.stats.signature() == result.stats.signature()

    def test_baseline_internals_are_empty(self):
        assert run_cached(SPEC, "no", cache=RunCache()).internals == {}


class TestFromCacheStamp:
    def test_served_copy_is_stamped(self):
        cache = RunCache()
        cache.put("k" * 32, _make_result())
        served = cache.get("k" * 32)
        assert served.stats.from_cache is True

    def test_stored_copy_stays_unstamped(self):
        """Re-putting a served result must not freeze the stamp into the
        cache: every *store* records a fresh simulation."""
        cache = RunCache()
        cache.put("k" * 32, _make_result())
        served = cache.get("k" * 32)
        cache.put("m" * 32, served)
        round_tripped = cache._mem["m" * 32]
        assert round_tripped.stats.from_cache is False
        assert cache.get("m" * 32).stats.from_cache is True

    def test_stamp_excluded_from_signature(self):
        cache = RunCache()
        original = _make_result()
        cache.put("k" * 32, original)
        served = cache.get("k" * 32)
        assert served.stats.signature() == original.stats.signature()

    def test_disk_round_trip_stamped(self, tmp_path):
        writer = RunCache(disk_dir=str(tmp_path))
        writer.put("k" * 32, _make_result())
        reader = RunCache(disk_dir=str(tmp_path))
        served = reader.get("k" * 32)
        assert served is not None
        assert served.stats.from_cache is True

    def test_cross_backend_disk_hit_is_stamped(self, tmp_path):
        """run_key drops ``backend`` (all backends are bit-identical), so
        a result simulated by one backend serves requests from another —
        exactly the case where the cached wall-clock is *most* misleading
        and the stamp must travel with the disk entry."""
        ref_key = run_key(SPEC, "no", SimConfig(backend="reference"), 1000)
        staged_key = run_key(SPEC, "no", SimConfig(backend="staged"), 1000)
        assert ref_key == staged_key
        writer = RunCache(disk_dir=str(tmp_path))
        writer.put(ref_key, _make_result())
        reader = RunCache(disk_dir=str(tmp_path))
        served = reader.get(staged_key)
        assert served is not None
        assert served.stats.from_cache is True


class TestDiskIntegrity:
    def _path(self, cache: RunCache, key: str) -> str:
        # v4 layout: entries live under 256 shard dirs keyed by key[:2].
        return cache.store.path_for(key)

    def _seed_entry(self, tmp_path):
        writer = RunCache(disk_dir=str(tmp_path))
        writer.put("k" * 32, _make_result())
        return writer, self._path(writer, "k" * 32)

    def test_roundtrip_with_checksum(self, tmp_path):
        _writer, path = self._seed_entry(tmp_path)
        with open(path) as fh:
            data = json.load(fh)
        assert data["format"] == STORE_FORMAT
        assert "checksum" in data
        reader = RunCache(disk_dir=str(tmp_path))
        loaded = reader.get("k" * 32)
        assert loaded is not None
        assert loaded.stats.instructions == 1000
        assert reader.disk_hits == 1
        assert reader.disk_corrupt == 0

    def test_truncated_json_is_a_miss(self, tmp_path):
        _writer, path = self._seed_entry(tmp_path)
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(text[: len(text) // 2])
        reader = RunCache(disk_dir=str(tmp_path))
        assert reader.get("k" * 32) is None
        assert reader.misses == 1
        assert reader.disk_corrupt == 1

    def test_wrong_schema_is_a_miss(self, tmp_path):
        _writer, path = self._seed_entry(tmp_path)
        with open(path, "w") as fh:
            json.dump([1, 2, 3], fh)
        reader = RunCache(disk_dir=str(tmp_path))
        assert reader.get("k" * 32) is None
        assert reader.disk_corrupt == 1

    def test_wrong_format_version_is_a_miss(self, tmp_path):
        _writer, path = self._seed_entry(tmp_path)
        with open(path) as fh:
            data = json.load(fh)
        data["format"] = STORE_FORMAT + 1
        with open(path, "w") as fh:
            json.dump(data, fh)
        reader = RunCache(disk_dir=str(tmp_path))
        assert reader.get("k" * 32) is None

    def test_tampered_value_fails_checksum(self, tmp_path):
        _writer, path = self._seed_entry(tmp_path)
        with open(path) as fh:
            data = json.load(fh)
        data["stats"]["instructions"] = 999_999  # bit flip / partial write
        with open(path, "w") as fh:
            json.dump(data, fh)
        reader = RunCache(disk_dir=str(tmp_path))
        assert reader.get("k" * 32) is None
        assert reader.disk_corrupt == 1

    def test_missing_stats_key_is_a_miss(self, tmp_path):
        _writer, path = self._seed_entry(tmp_path)
        with open(path) as fh:
            data = json.load(fh)
        del data["stats"]
        del data["checksum"]
        data["checksum"] = entry_checksum(data)  # checksum passes, key absent
        with open(path, "w") as fh:
            json.dump(data, fh)
        reader = RunCache(disk_dir=str(tmp_path))
        assert reader.get("k" * 32) is None
        assert reader.disk_corrupt == 1

    def test_missing_internals_key_is_a_miss(self, tmp_path):
        """An entry written before results carried ``internals``."""
        _writer, path = self._seed_entry(tmp_path)
        with open(path) as fh:
            data = json.load(fh)
        del data["internals"]
        del data["checksum"]
        data["checksum"] = entry_checksum(data)
        with open(path, "w") as fh:
            json.dump(data, fh)
        reader = RunCache(disk_dir=str(tmp_path))
        assert reader.get("k" * 32) is None
        assert reader.disk_corrupt == 1

    def test_corrupt_entry_recomputed_and_healed(self, tmp_path):
        """End-to-end: a corrupted entry is re-simulated, not served."""
        cache = RunCache(disk_dir=str(tmp_path))
        original = run_cached(SPEC, "next_line", cache=cache)
        key = run_key(
            SPEC, "next_line", SimConfig(), int(SPEC.n_instructions * 0.4)
        )
        with open(self._path(cache, key), "w") as fh:
            fh.write('{"format": 2, "garbage"')
        fresh = RunCache(disk_dir=str(tmp_path))
        recomputed = run_cached(SPEC, "next_line", cache=fresh)
        assert fresh.disk_corrupt == 1
        assert fresh.stores == 1  # re-simulated and re-stored
        assert recomputed.stats.signature() == original.stats.signature()
        healed = RunCache(disk_dir=str(tmp_path))
        assert healed.get(key) is not None  # the rewrite repaired the entry

    def test_corruption_reported_in_stats_line(self, tmp_path):
        _writer, path = self._seed_entry(tmp_path)
        with open(path, "w") as fh:
            fh.write("not json")
        reader = RunCache(disk_dir=str(tmp_path))
        reader.get("k" * 32)
        assert "corrupt" in reader.stats_line()


class TestConcurrentWriters:
    def test_parallel_writers_never_publish_garbage(self, tmp_path):
        """Two caches hammering the same keys in the same directory (the
        two-parallel-sweeps scenario): every published file must parse
        and pass its checksum — old value or new value, never a blend."""
        keys = ["a" * 32, "b" * 32]
        n_rounds = 100
        errors = []

        def writer(worker: int):
            cache = RunCache(disk_dir=str(tmp_path))
            for i in range(n_rounds):
                for key in keys:
                    cache.put(key, _make_result(1000 + worker * n_rounds + i))

        def reader():
            cache = RunCache(disk_dir=str(tmp_path))
            for _ in range(n_rounds * 2):
                cache._mem.clear()  # force the disk path every time
                for key in keys:
                    try:
                        result = cache.get(key)
                    except Exception as exc:  # noqa: BLE001
                        errors.append(exc)
                        continue
                    if result is not None and result.stats.instructions < 1000:
                        errors.append(
                            ValueError(f"garbage load: {result.stats}")
                        )

        threads = [
            threading.Thread(target=writer, args=(0,)),
            threading.Thread(target=writer, args=(1,)),
            threading.Thread(target=reader),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        final = RunCache(disk_dir=str(tmp_path))
        for key in keys:
            assert final.get(key) is not None
        assert final.disk_corrupt == 0
        leftovers = [
            name
            for _dir, _subdirs, names in os.walk(str(tmp_path))
            for name in names
            if ".tmp" in name
        ]
        assert leftovers == []

    def test_tmp_names_unique_per_write(self):
        from repro.check.artifacts import _tmp_counter

        first = f"x.{os.getpid()}.{next(_tmp_counter)}.tmp"
        second = f"x.{os.getpid()}.{next(_tmp_counter)}.tmp"
        assert first != second


class TestClearSemantics:
    def test_clear_resets_counters(self):
        cache = RunCache()
        cache.put("k" * 32, _make_result())
        cache.get("k" * 32)
        cache.get("m" * 32)
        assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1
        assert cache.wall_seconds_saved >= 0.0
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 0
        assert cache.misses == 0
        assert cache.stores == 0
        assert cache.disk_hits == 0
        assert cache.disk_corrupt == 0
        assert cache.wall_seconds_saved == 0.0
        assert "0 unique simulations" in cache.stats_line()

    def test_clear_keeps_disk_entries(self, tmp_path):
        cache = RunCache(disk_dir=str(tmp_path))
        cache.put("k" * 32, _make_result())
        cache.clear()
        reloaded = cache.get("k" * 32)
        assert reloaded is not None  # served from disk after clear
        assert cache.disk_hits == 1


#: One process of the stale-trace repro: run next_line on a trace file
#: through the store at argv[2] and print the IPC.
_FILE_SUITE = textwrap.dedent("""
    import sys
    from repro.analysis.experiments import run_suite
    from repro.analysis.runcache import RunCache
    from repro.workloads.importers import file_workload_spec

    spec = file_workload_spec(sys.argv[1])
    evaluation = run_suite(
        [spec], ["next_line"], cache=RunCache(disk_dir=sys.argv[2]),
        checkpoint=None, jobs=1,
    )
    print(evaluation.stats("next_line", spec.name).ipc)
""")


class TestTraceFileKeys:
    def test_rewritten_trace_file_is_not_served_from_store(self, tmp_path):
        """Three processes share one store; the file is rewritten (same
        name, same length, other content) between the first two, and the
        second must match a fresh run rather than the first."""
        trace = str(tmp_path / "w.trc")
        env = dict(os.environ, PYTHONPATH=SRC)
        env.pop("REPRO_EVENTS", None)

        def write(seed):
            spec = WorkloadSpec(
                name="w", category="int", seed=seed, n_instructions=8000
            )
            write_trace(make_workload(spec), trace)

        def ipc(store):
            proc = subprocess.run(
                [sys.executable, "-c", _FILE_SUITE, trace, str(store)],
                capture_output=True, text=True, env=env, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            return float(proc.stdout)

        write(1)
        first = ipc(tmp_path / "shared")
        write(2)
        second = ipc(tmp_path / "shared")
        fresh = ipc(tmp_path / "fresh")
        assert second == fresh != first

    def _write(self, path, seed, n_instructions=8000):
        spec = WorkloadSpec(
            name="w", category="int", seed=seed, n_instructions=n_instructions
        )
        write_trace(make_workload(spec), path)

    def test_rewritten_trace_file_reloads_in_process(self, tmp_path):
        """One process, one store: after an in-place rewrite the suite
        simulates the new bytes instead of a memoized trace of the old."""
        from repro.analysis.experiments import run_suite
        from repro.workloads.importers import file_workload_spec

        trace = str(tmp_path / "w.trc")

        def ipc(cache):
            spec = file_workload_spec(trace)
            evaluation = run_suite(
                [spec], ["next_line"], cache=cache, checkpoint=None, jobs=1
            )
            return evaluation.stats("next_line", spec.name).ipc

        shared = RunCache(disk_dir=str(tmp_path / "shared"))
        self._write(trace, 1)
        first = ipc(shared)
        self._write(trace, 2)
        second = ipc(shared)
        fresh = ipc(RunCache(disk_dir=str(tmp_path / "fresh")))
        assert second == fresh != first

    @pytest.mark.parametrize("path", ["serial", "scheduler"])
    def test_file_rewritten_mid_run_is_not_stored(
        self, tmp_path, monkeypatch, path
    ):
        """A result simulated while its trace file changed is returned but
        stored under neither the old nor the new content's key."""
        from repro.analysis import experiments
        from repro.analysis.parallel import RunTask, run_tasks_parallel, task_key
        from repro.workloads.importers import file_workload_spec

        trace = str(tmp_path / "w.trc")
        self._write(trace, 1)
        spec = file_workload_spec(trace)
        old_key = task_key(RunTask(spec, "no"))
        simulate = experiments.simulate

        def rewrite_then_simulate(*args, **kwargs):
            self._write(trace, 2, n_instructions=9000)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(experiments, "simulate", rewrite_then_simulate)
        cache = RunCache()
        if path == "serial":
            result = run_cached(spec, "no", cache=cache)
        else:
            result = run_tasks_parallel(
                [RunTask(spec, "no")], jobs=1, cache=cache
            ).results[0]
        assert result is not None
        new_key = task_key(RunTask(spec, "no"))
        assert old_key != new_key
        assert cache.get(old_key) is None and cache.get(new_key) is None
