"""Tests for the multi-objective configuration tuner (``repro tune``).

Three guarantees matter most and are asserted end-to-end on tiny
workloads: seeded searches are bit-reproducible, a resumed search serves
every previously finished genome from the disk cache without
re-simulating, and the emitted front is mutually nondominated.
"""

import json
import os
import re
import subprocess
import sys
import threading
import time

import pytest

from repro.analysis.checkpoint import CheckpointManifest
from repro.analysis.parallel import RunTask, execute_task_attempt, task_key
from repro.analysis.pareto import dominates
from repro.analysis.runcache import RunCache
from repro.analysis.tune import (
    DEFAULT_SPACE,
    GeneticTuner,
    GridTuner,
    RandomTuner,
    TunableParam,
    genome_configs,
    genome_name,
    make_tuner,
    split_suite,
)
from repro.check.errors import ConfigError
from repro.obs.chrometrace import to_chrome_trace
from repro.obs.events import StatusAggregator, read_events
from repro.sim.config import SimConfig
from repro.workloads.generators import WorkloadSpec

TINY = [
    WorkloadSpec(name="tn_srv", category="srv", seed=3, n_instructions=12_000),
    WorkloadSpec(name="tn_int", category="int", seed=5, n_instructions=12_000),
]

#: Small space so grid/genetic tests stay fast while still exercising
#: both parameter kinds (entangling + sim).
SMALL_SPACE = (
    TunableParam("entries", "entangling", (1024, 4096)),
    TunableParam("history_size", "entangling", (8, 16)),
    TunableParam("prefetch_queue_size", "sim", (16, 32)),
)

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


class TestGenomeName:
    def test_stable_and_prefixed(self):
        genome = {"entries": 2048, "allowed_modes": (1, 2, 3, 4)}
        name = genome_name(genome)
        assert name.startswith("tuned:")
        assert len(name) == len("tuned:") + 16
        assert genome_name(genome) == name

    def test_key_order_irrelevant(self):
        a = genome_name({"entries": 2048, "ways": 8})
        b = genome_name({"ways": 8, "entries": 2048})
        assert a == b

    def test_tuple_and_list_values_agree(self):
        # JSON has no tuples; both spellings must hash identically or a
        # resumed search (JSON round-trip) would rename every genome.
        a = genome_name({"allowed_modes": (1, 3, 6)})
        b = genome_name({"allowed_modes": [1, 3, 6]})
        assert a == b

    def test_distinct_genomes_distinct_names(self):
        assert genome_name({"entries": 1024}) != genome_name({"entries": 2048})


class TestGenomeConfigs:
    def test_split_by_kind(self):
        ent, sim = genome_configs(
            {"entries": 4096, "prefetch_queue_size": 64},
            SimConfig(),
        )
        assert ent.entries == 4096
        assert sim.prefetch_queue_size == 64

    def test_pq_and_mshr_mirrored_into_entangling(self):
        ent, sim = genome_configs(
            {"prefetch_queue_size": 64, "l1i_mshrs": 16}, SimConfig()
        )
        assert ent.pq_entries == sim.prefetch_queue_size == 64
        assert ent.mshr_entries == sim.l1i_mshrs == 16

    def test_unset_params_keep_defaults(self):
        default = SimConfig()
        ent, sim = genome_configs({"entries": 1024}, default)
        assert sim.l1i_mshrs == default.l1i_mshrs
        assert ent.history_size == type(ent)().history_size

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError, match="not in the space"):
            genome_configs({"flux_capacitor": 1}, SimConfig())

    def test_invalid_combination_rejected(self):
        space = (TunableParam("entries", "entangling", (999,)),)
        with pytest.raises(ConfigError):
            genome_configs({"entries": 999}, SimConfig(), space)


class TestSplitSuite:
    def _suite(self, n):
        return [
            WorkloadSpec(
                name=f"w{i:02d}", category="srv", seed=i, n_instructions=1_000
            )
            for i in range(n)
        ]

    def test_deterministic_and_order_independent(self):
        suite = self._suite(8)
        a = split_suite(suite, 0.75, seed=7)
        b = split_suite(list(reversed(suite)), 0.75, seed=7)
        assert [s.name for s in a[0]] == [s.name for s in b[0]]
        assert [s.name for s in a[1]] == [s.name for s in b[1]]

    def test_partition_covers_suite(self):
        suite = self._suite(8)
        train, test = split_suite(suite, 0.75, seed=0)
        assert len(train) == 6 and len(test) == 2
        assert sorted(s.name for s in train + test) == [
            s.name for s in suite
        ]

    def test_different_seeds_differ(self):
        suite = self._suite(10)
        names = {
            tuple(s.name for s in split_suite(suite, 0.5, seed)[0])
            for seed in range(6)
        }
        assert len(names) > 1

    def test_full_fraction_tests_in_sample(self):
        suite = self._suite(4)
        train, test = split_suite(suite, 1.0, seed=0)
        assert [s.name for s in train] == [s.name for s in test]

    def test_single_workload_tests_in_sample(self):
        suite = self._suite(1)
        train, test = split_suite(suite, 0.75, seed=0)
        assert train == test
        assert len(train) == 1

    def test_train_side_never_empty(self):
        suite = self._suite(2)
        train, _test = split_suite(suite, 0.01, seed=0)
        assert len(train) >= 1


class TestTunerEvaluation:
    def test_grid_covers_the_whole_space(self):
        tuner = GridTuner(
            TINY, objectives=("ipc", "storage"), space=SMALL_SPACE,
            seed=1, train_fraction=1.0,
        )
        result = tuner.search()
        assert result.evaluated == 2 * 2 * 2
        assert result.front, "a full grid always yields a front"

    def test_grid_max_evals_truncates(self):
        tuner = GridTuner(
            TINY, objectives=("ipc", "storage"), space=SMALL_SPACE,
            seed=1, train_fraction=1.0, max_evals=3,
        )
        assert tuner.search().evaluated == 3

    def test_duplicate_genomes_share_one_evaluation(self):
        tuner = GridTuner(
            TINY, objectives=("ipc", "storage"), space=SMALL_SPACE,
            seed=1, train_fraction=1.0,
        )
        genome = {"entries": 1024, "history_size": 8}
        first, second = tuner.evaluate([genome, dict(genome)])
        assert first is second

    def test_invalid_genome_counted_not_fatal(self):
        space = SMALL_SPACE + (
            TunableParam("ways", "entangling", (8, 3)),  # 3 : not a power of two
        )
        tuner = GridTuner(
            TINY, objectives=("ipc", "storage"), space=space,
            seed=1, train_fraction=1.0,
        )
        good = {"entries": 1024, "history_size": 8, "ways": 8}
        bad = {"entries": 1024, "history_size": 8, "ways": 3}
        results = tuner.evaluate([good, bad])
        assert results[0] is not None
        assert results[1] is None
        assert tuner.invalid == 1

    def test_storage_objective_tracks_entries(self):
        tuner = GridTuner(
            TINY, objectives=("ipc", "storage"), space=SMALL_SPACE,
            seed=1, train_fraction=1.0,
        )
        small, large = tuner.evaluate(
            [
                {"entries": 1024, "history_size": 8},
                {"entries": 4096, "history_size": 8},
            ]
        )
        assert 0 < small.storage_bits < large.storage_bits


class TestDeterminism:
    def test_same_seed_same_front(self):
        fronts = []
        for _ in range(2):
            tuner = GeneticTuner(
                TINY, space=SMALL_SPACE, seed=7, train_fraction=1.0,
                cache=RunCache(), population=4, generations=2,
            )
            result = tuner.search()
            fronts.append(
                [(r.name, sorted(r.genome.items()), r.speedup, r.energy,
                  r.storage_bits) for r in result.front]
            )
        assert fronts[0] == fronts[1]

    def test_different_seeds_explore_differently(self):
        evaluated = set()
        for seed in (1, 2, 3):
            tuner = RandomTuner(
                TINY, space=SMALL_SPACE, seed=seed, train_fraction=1.0,
                cache=RunCache(), samples=4,
            )
            tuner._search()
            evaluated.add(tuple(sorted(tuner._results)))
        assert len(evaluated) > 1


class TestFrontQuality:
    def test_genetic_front_mutually_nondominated(self):
        tuner = GeneticTuner(
            TINY, space=SMALL_SPACE, seed=7, train_fraction=1.0,
            cache=RunCache(), population=4, generations=2,
        )
        result = tuner.search()
        assert len(result.front) >= 1
        vectors = [
            r.objective_vector(result.objectives) for r in result.front
        ]
        for a in vectors:
            for b in vectors:
                assert not dominates(a, b)
        # Front points carry held-out scores; here test == train.
        assert all(r.test_speedup is not None for r in result.front)

    def test_nothing_evaluated_dominates_the_front(self):
        tuner = GridTuner(
            TINY, objectives=("ipc", "storage"), space=SMALL_SPACE,
            seed=1, train_fraction=1.0,
        )
        result = tuner.search()
        front_vectors = [
            r.objective_vector(result.objectives) for r in result.front
        ]
        for scored in tuner._results.values():
            vector = scored.objective_vector(result.objectives)
            assert not any(dominates(vector, f) for f in front_vectors)


class TestResume:
    def test_second_run_resimulates_nothing(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        manifest_path = os.path.join(cache_dir, "tune_checkpoint.json")

        def run(resume):
            cache = RunCache(disk_dir=cache_dir)
            manifest = CheckpointManifest(manifest_path, resume=resume)
            tuner = GeneticTuner(
                TINY, space=SMALL_SPACE, seed=7, train_fraction=1.0,
                cache=cache, checkpoint=manifest,
                population=4, generations=2,
            )
            return tuner.search(), cache, manifest

        first, cache1, man1 = run(resume=False)
        assert cache1.stores > 0
        assert man1.marked > 0

        second, cache2, man2 = run(resume=True)
        assert cache2.stores == 0, "resume must not re-simulate"
        assert man2.marked == 0
        assert man2.resumed_hits > 0
        assert man2.resumed == man1.marked

        key = lambda r: (r.name, r.speedup, r.energy, r.storage_bits)
        assert [key(r) for r in first.front] == [key(r) for r in second.front]

    def test_fresh_manifest_discards_prior_progress(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        manifest = CheckpointManifest(path, resume=False)
        manifest.mark_done("k1", "tuned:abc", "w0")
        reloaded = CheckpointManifest(path, resume=False)
        assert "k1" not in reloaded
        assert reloaded.resumed == 0
        # The flag only gates what this process *trusts*; the file itself
        # is untouched until the next mark_done, so a later resume=True
        # open still sees the original progress.
        resumed = CheckpointManifest(path, resume=True)
        assert resumed.resumed == 1


class TestMakeTuner:
    def test_known_strategies(self):
        for strategy, cls in (
            ("grid", GridTuner),
            ("random", RandomTuner),
            ("genetic", GeneticTuner),
        ):
            tuner = make_tuner(strategy, TINY, space=SMALL_SPACE)
            assert isinstance(tuner, cls)
            assert tuner.strategy == strategy

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            make_tuner("simulated-annealing", TINY)

    def test_unknown_objective(self):
        with pytest.raises(ValueError, match="unknown objectives"):
            make_tuner("grid", TINY, objectives=("ipc", "latency"))

    def test_empty_suite_rejected(self):
        with pytest.raises(ValueError, match="at least one workload"):
            make_tuner("grid", [])


class TestDefaultSpace:
    def test_covers_both_kinds(self):
        kinds = {param.kind for param in DEFAULT_SPACE}
        assert kinds == {"entangling", "sim"}

    def test_every_param_has_choices(self):
        for param in DEFAULT_SPACE:
            assert len(param.values) >= 2, param.name

    def test_param_validation(self):
        with pytest.raises(ValueError):
            TunableParam("entries", "quantum", (1,))
        with pytest.raises(ValueError):
            TunableParam("entries", "entangling", ())


class TestOneScheduler:
    """Tune evaluates through the suite scheduler (``run_tasks_parallel``)."""

    def _tuner(self, cache, jobs=1):
        # Default train fraction: one train and one test workload, so
        # both the training batches and the held-out batch are covered.
        return GeneticTuner(
            TINY, space=SMALL_SPACE, seed=7, cache=cache, jobs=jobs,
            population=4, generations=2,
        )

    def test_front_identical_across_jobs_and_warm_store(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        serial = self._tuner(RunCache(), jobs=1).search()
        pooled = self._tuner(RunCache(disk_dir=cache_dir), jobs=2).search()
        warm = self._tuner(RunCache(disk_dir=cache_dir), jobs=2).search()
        assert serial.front
        assert pooled.to_dict() == serial.to_dict()
        assert warm.to_dict() == serial.to_dict()
        assert warm.cache_line.startswith("run cache: 0 unique simulations")

    def test_concurrent_tuner_pair_is_followed_not_simulated(self, tmp_path):
        """Two tuners share a cache dir; the first holds one pair's lease
        and publishes it after ~1 s.  The second follows that pair."""
        unique = self._tuner(RunCache())
        expected = unique.search().to_dict()
        cache_dir = str(tmp_path / "cache")
        holder = self._tuner(RunCache(disk_dir=cache_dir))
        genome = holder.random_genome()  # the follower's first genome too
        task = RunTask(
            holder.train[0], genome_name(genome),
            configs=genome_configs(genome, SimConfig(), SMALL_SPACE),
        )
        key = task_key(task)
        lease = holder.cache.store.claim(key)
        assert lease is not None

        def publish_later():
            time.sleep(1.0)
            holder.cache.put(key, execute_task_attempt(task, 0, in_process=True))
            holder.cache.store.release(lease)

        publisher = threading.Thread(target=publish_later)
        publisher.start()
        try:
            follower = self._tuner(RunCache(disk_dir=cache_dir))
            result = follower.search()
        finally:
            publisher.join(timeout=60.0)
        assert not publisher.is_alive()
        assert follower.cache.coalesced == 1
        assert follower.cache.lease_steals == 0
        assert holder.cache.stores == 1
        assert holder.cache.stores + follower.cache.stores == unique.cache.stores
        assert result.to_dict() == expected


def _tune_cli(tmp_path, out, events=None, env_extra=None):
    args = [
        sys.executable, "-m", "repro", "tune", "--strategy", "genetic",
        "--seed", "7", "--per-category", "1", "--instructions", "6000",
        "--population", "4", "--generations", "2", "--jobs", "2",
        "--out", str(tmp_path / out),
    ]
    if events:
        args += ["--events", str(tmp_path / events)]
    env = dict(os.environ, PYTHONPATH=SRC, REPRO_TASK_BACKOFF="0.01")
    env.pop("REPRO_FAULT_INJECT", None)
    env.update(env_extra or {})
    proc = subprocess.run(
        args, capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestTuneFaultInjection:
    """Regression: tune workers honour ``REPRO_FAULT_INJECT``, and the
    ``--events`` ledger counts every pair the search evaluated."""

    def test_injected_crashes_retry_and_ledger_counts_pairs(self, tmp_path):
        stdout = _tune_cli(
            tmp_path, "crash", events="ledger.jsonl",
            env_extra={"REPRO_FAULT_INJECT": "crash:1.0:first"},
        )
        _tune_cli(tmp_path, "clean")
        simulated = int(
            re.search(r"run cache: (\d+) unique simulations", stdout).group(1)
        )
        assert simulated > 0
        events = read_events(str(tmp_path / "ledger.jsonl")).events
        failed = [e for e in events if e.type == "attempt_failed"]
        assert len(failed) == simulated
        assert all("injected crash" in e.payload["error"] for e in failed)
        assert len({e.label for e in failed}) == simulated
        assert not [e for e in events if e.type == "quarantined"]

        crash = json.load(open(tmp_path / "crash.json"))
        clean = json.load(open(tmp_path / "clean.json"))
        assert crash["front"] and crash == clean

        status = StatusAggregator()
        for event in events:
            status.handle(event)
        assert status.done == status.total == simulated + status.cached
        assert status.failed == 0
        line = status.status_line()
        assert line.startswith(f"status: {status.total}/{status.total} done")

        tasks = [
            e for e in to_chrome_trace(events)["traceEvents"]
            if e["ph"] == "X" and e["name"] == "task"
        ]
        assert len(tasks) == simulated
