"""Multi-objective configuration search over the Entangling design space.

The paper fixes one design point per storage budget (Entangling-2K/4K/8K)
and motivates each knob with a one-dimensional sensitivity argument.
This module searches the joint space instead: a *genome* assigns values
to a subset of :class:`~repro.core.entangling.EntanglingConfig` and
:class:`~repro.sim.config.SimConfig` fields (table geometry, history
size, merge distance, confidence width, compression-mode whitelist,
PQ/MSHR sizing), and each genome is scored on several objectives at
once — geomean normalized IPC over a training suite, storage bits from
the first-principles accounting of ``EntanglingPrefetcher.storage_bits``,
and normalized energy from :mod:`repro.energy`.  The output is the
nondominated **Pareto front**, extending the paper's Figure 6
performance-vs-storage frontier with searched (not hand-picked) points.

Three strategies share one :class:`Tuner` interface: ``grid`` (exhaustive
cross product), ``random`` (seeded uniform sampling), and ``genetic``
(NSGA-II-style nondominated sorting + crowding selection with uniform
crossover and per-gene mutation).

Every simulation goes through the suite scheduler
(:func:`~repro.analysis.parallel.run_tasks_parallel`) as a
:class:`~repro.analysis.parallel.RunTask` carrying the genome's resolved
configs under a synthetic config name ``tuned:<hash>`` (``run_key``
covers only the config *name* and the :class:`SimConfig`, so the
entangling half of the genome must be folded into the name).  The tuner
has no scheduler of its own: the run cache, cross-process lease
coalescing, retries, quarantine, fault injection and telemetry are the
suite's.  Duplicate genomes — common in genetic populations — and the
shared ``no`` baseline are therefore free, and with a disk-backed cache
plus a :class:`~repro.analysis.checkpoint.CheckpointManifest` a killed
search resumes without re-simulating any finished genome: the search is
deterministic in its seed, so re-walking the genome sequence turns every
checkpointed run into a disk hit (asserted via the cache/manifest
counters).

Surfaced as ``repro tune`` and ``examples/tune_pareto.py``.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
from dataclasses import dataclass, field, replace
from random import Random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.checkpoint import CheckpointManifest
from repro.analysis.experiments import installed_event_bus
from repro.analysis.metrics import robust_geometric_mean
from repro.analysis.parallel import (
    RunTask,
    execute_task_attempt,
    run_tasks_parallel,
)
from repro.analysis.pareto import pareto_front_indices
from repro.analysis.runcache import RunCache, _canonical_json
from repro.check.errors import ConfigError
from repro.core.entangling import EntanglingConfig, EntanglingPrefetcher
from repro.energy.model import EnergyModel
from repro.sim.config import SimConfig
from repro.sim.simulator import SimResult
from repro.workloads.generators import WorkloadSpec

logger = logging.getLogger(__name__)

#: Genome-name format version: bump when the encoding (not the values)
#: changes, so stale cache entries become misses instead of mis-serving.
_GENOME_FORMAT_VERSION = 1

#: Genome prefix in run-cache config names (never collides with registry
#: names, which are plain identifiers).
GENOME_PREFIX = "tuned:"


@dataclass(frozen=True)
class TunableParam:
    """One searchable knob: its target config and its discrete values.

    ``kind`` is ``"entangling"`` (an :class:`EntanglingConfig` field) or
    ``"sim"`` (a :class:`SimConfig` field).  Values are discrete because
    every hardware knob here is (entries, ways, bit widths, whitelists);
    continuous parameters would need a different mutation operator.
    """

    name: str
    kind: str
    values: Tuple[object, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("entangling", "sim"):
            raise ValueError(f"unknown param kind {self.kind!r}")
        if not self.values:
            raise ValueError(f"param {self.name!r} has no values")


#: The default search space.  Geometry values are chosen so every
#: (entries, ways) combination yields a power-of-two set count, which
#: ``EntanglingConfig.validate`` requires for the XOR-fold index.
DEFAULT_SPACE: Tuple[TunableParam, ...] = (
    TunableParam("entries", "entangling", (1024, 2048, 4096, 8192)),
    TunableParam("ways", "entangling", (8, 16)),
    TunableParam("history_size", "entangling", (8, 16, 32)),
    TunableParam("merge_distance", "entangling", (None, 5, 6, 15)),
    TunableParam("confidence_bits", "entangling", (1, 2, 3)),
    TunableParam(
        "allowed_modes",
        "entangling",
        (None, (1, 2, 3, 4), (1, 3, 6), (1, 2, 4, 6)),
    ),
    TunableParam("prefetch_queue_size", "sim", (16, 32, 64)),
    TunableParam("l1i_mshrs", "sim", (8, 10, 16)),
)

#: Objective registry: name -> (description, extractor).  Every
#: objective is *minimized* (see repro.analysis.pareto), so maximized
#: quantities are negated in the extractor.
OBJECTIVES = {
    "ipc": (
        "geomean IPC normalized to the no-prefetch baseline (maximized)",
        lambda r: -r.speedup,
    ),
    "storage": (
        "prefetcher storage bits, first-principles accounting (minimized)",
        lambda r: float(r.storage_bits),
    ),
    "energy": (
        "geomean cache-hierarchy energy normalized to baseline (minimized)",
        lambda r: r.energy,
    ),
}


def genome_name(genome: Dict[str, object]) -> str:
    """Stable synthetic config name for one genome (``tuned:<hash>``).

    The run cache keys on (spec, config name, SimConfig, warm-up);
    entangling parameters are invisible to it, so they must be folded
    into the name.  Hashing the canonical sorted-JSON encoding makes the
    name stable across processes and Python versions — the property the
    resume path depends on.
    """
    payload = {"format": _GENOME_FORMAT_VERSION, "genome": genome}
    text = _canonical_json(_canonical_payload(payload))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
    return f"{GENOME_PREFIX}{digest}"


def _canonical_payload(value: object) -> object:
    """JSON-ready form of a genome payload (tuples -> lists, sorted keys)."""
    if isinstance(value, dict):
        return {
            str(k): _canonical_payload(v)
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (list, tuple)):
        return [_canonical_payload(item) for item in value]
    return value


def genome_configs(
    genome: Dict[str, object],
    base_sim: SimConfig,
    space: Sequence[TunableParam] = DEFAULT_SPACE,
) -> Tuple[EntanglingConfig, SimConfig]:
    """Materialize one genome into validated config objects.

    Unset params keep their dataclass defaults (grid searches over a
    sub-space stay honest).  The entangling config mirrors the genome's
    PQ/MSHR sizing into its ``pq_entries`` / ``mshr_entries`` fields so
    the storage objective accounts the metadata of the structures the
    simulation actually models.

    Raises:
        ConfigError: the genome combines structurally invalid values.
    """
    by_kind: Dict[str, Dict[str, object]] = {"entangling": {}, "sim": {}}
    known = {param.name: param.kind for param in space}
    for name, value in genome.items():
        kind = known.get(name)
        if kind is None:
            raise ConfigError(f"genome parameter {name!r} is not in the space")
        by_kind[kind][name] = value
    sim_config = replace(base_sim, **by_kind["sim"])
    ent_config = EntanglingConfig(
        **by_kind["entangling"],
        pq_entries=sim_config.prefetch_queue_size,
        mshr_entries=sim_config.l1i_mshrs,
    )
    ent_config.validate()
    return ent_config, sim_config


def split_suite(
    specs: Sequence[WorkloadSpec], train_fraction: float, seed: int
) -> Tuple[List[WorkloadSpec], List[WorkloadSpec]]:
    """Deterministic train/test split of a workload suite.

    The shuffle is seeded (independent of input order: specs are sorted
    by name first), the training side gets at least one workload, and a
    fraction >= 1 or a single-workload suite makes the test side equal
    to the training side (scored in-sample, flagged by the caller).
    """
    ordered = sorted(specs, key=lambda spec: spec.name)
    if train_fraction >= 1.0 or len(ordered) < 2:
        return ordered, list(ordered)
    rng = Random(seed ^ 0x5EED5)
    shuffled = list(ordered)
    rng.shuffle(shuffled)
    n_train = max(1, min(len(shuffled) - 1, round(len(shuffled) * train_fraction)))
    train = sorted(shuffled[:n_train], key=lambda spec: spec.name)
    test = sorted(shuffled[n_train:], key=lambda spec: spec.name)
    return train, test


@dataclass
class GenomeResult:
    """One evaluated genome and its objective scores."""

    name: str
    genome: Dict[str, object]
    #: geomean normalized IPC over the training suite (vs the ``no``
    #: baseline); 0.0 when every workload failed
    speedup: float = 0.0
    #: geomean normalized energy over the training suite (1.0 = baseline)
    energy: float = 0.0
    storage_bits: int = 0
    #: training workloads skipped (simulation fault or zero-IPC baseline)
    failures: int = 0
    #: geomean normalized IPC over the held-out suite (front points only)
    test_speedup: Optional[float] = None

    @property
    def storage_kb(self) -> float:
        return self.storage_bits / 8192.0

    def objective_vector(self, objectives: Sequence[str]) -> Tuple[float, ...]:
        return tuple(OBJECTIVES[name][1](self) for name in objectives)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "genome": _canonical_payload(self.genome),
            "speedup": self.speedup,
            "test_speedup": self.test_speedup,
            "energy": self.energy,
            "storage_bits": self.storage_bits,
            "storage_kb": self.storage_kb,
            "failures": self.failures,
        }


@dataclass
class TuneResult:
    """Outcome of one search: the front plus audit counters."""

    strategy: str
    seed: int
    objectives: Tuple[str, ...]
    train_workloads: List[str]
    test_workloads: List[str]
    evaluated: int = 0
    invalid: int = 0
    front: List[GenomeResult] = field(default_factory=list)
    cache_line: Optional[str] = None
    checkpoint_line: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "strategy": self.strategy,
            "seed": self.seed,
            "objectives": list(self.objectives),
            "train_workloads": self.train_workloads,
            "test_workloads": self.test_workloads,
            "evaluated": self.evaluated,
            "invalid": self.invalid,
            "front": [result.to_dict() for result in self.front],
        }

    def render(self) -> str:
        """The front as an aligned text table (Figure 6 extension)."""
        from repro.analysis.reporting import format_table

        params = sorted(
            {name for result in self.front for name in result.genome}
        )
        headers = (
            ["point"]
            + params
            + ["speedup", "test", "storage KB", "energy"]
        )
        rows = []
        for result in self.front:
            rows.append(
                [result.name.replace(GENOME_PREFIX, "")[:8]]
                + [_render_value(result.genome.get(p)) for p in params]
                + [
                    f"{result.speedup:.4f}",
                    (
                        f"{result.test_speedup:.4f}"
                        if result.test_speedup is not None
                        else "-"
                    ),
                    f"{result.storage_kb:.1f}",
                    f"{result.energy:.4f}",
                ]
            )
        title = (
            f"Pareto front ({self.strategy}, seed {self.seed}, "
            f"objectives {'/'.join(self.objectives)}): "
            f"{len(self.front)} nondominated of {self.evaluated} evaluated"
        )
        return title + "\n" + format_table(headers, rows)


def _render_value(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


#: Kept only because ``bench/tracing.py`` patches this name; every tune
#: pair runs through :func:`~repro.analysis.parallel.execute_task_attempt`.
_genome_worker = execute_task_attempt


class Tuner:
    """Shared machinery: genome evaluation, caching, front extraction.

    Subclasses implement :meth:`_search`, returning every evaluated
    :class:`GenomeResult`; :meth:`search` then extracts the nondominated
    front, scores it on the held-out suite, and assembles the
    :class:`TuneResult`.  All randomness flows from ``seed`` through
    ``self.rng`` — two searches with equal arguments produce equal
    results, which is what makes the cache-based resume exact.
    """

    strategy = "base"

    def __init__(
        self,
        specs: Sequence[WorkloadSpec],
        objectives: Sequence[str] = ("ipc", "storage", "energy"),
        space: Sequence[TunableParam] = DEFAULT_SPACE,
        base_config: Optional[SimConfig] = None,
        seed: int = 0,
        train_fraction: float = 0.75,
        cache: Optional[RunCache] = None,
        checkpoint: Optional[CheckpointManifest] = None,
        jobs: int = 1,
    ) -> None:
        if not specs:
            raise ValueError("tuner needs at least one workload spec")
        unknown = [name for name in objectives if name not in OBJECTIVES]
        if unknown:
            raise ValueError(
                f"unknown objectives {unknown}; choose from "
                f"{sorted(OBJECTIVES)}"
            )
        if not objectives:
            raise ValueError("tuner needs at least one objective")
        self.objectives = tuple(objectives)
        self.space = tuple(space)
        self.base_config = base_config or SimConfig()
        self.seed = seed
        self.rng = Random(seed)
        self.train, self.test = split_suite(specs, train_fraction, seed)
        self.cache = cache if cache is not None else RunCache()
        self.checkpoint = checkpoint
        self.jobs = max(1, jobs)
        self.invalid = 0
        self._degradation_warned = False
        self._energy_model = EnergyModel()
        #: workload name -> ``no`` baseline result (train and test)
        self._baselines: Optional[Dict[str, SimResult]] = None
        #: genome name -> GenomeResult, in first-evaluation order
        self._results: Dict[str, GenomeResult] = {}

    # -- strategy hook ------------------------------------------------------

    def _search(self) -> None:
        raise NotImplementedError

    def search(self) -> TuneResult:
        """Run the strategy and return the nondominated front."""
        self._search()
        evaluated = list(self._results.values())
        front = self._extract_front(evaluated)
        tested = self._run_pairs(
            {result.name: result.genome for result in front}, self.test
        )
        for result in front:
            result.test_speedup = self._suite_speedup(
                result.name, tested[result.name], self.test
            )[0]
        outcome = TuneResult(
            strategy=self.strategy,
            seed=self.seed,
            objectives=self.objectives,
            train_workloads=[spec.name for spec in self.train],
            test_workloads=[spec.name for spec in self.test],
            evaluated=len(evaluated),
            invalid=self.invalid,
            front=front,
            cache_line=self.cache.stats_line(),
            checkpoint_line=(
                self.checkpoint.stats_line()
                if self.checkpoint is not None
                else None
            ),
        )
        return outcome

    def _extract_front(
        self, evaluated: Sequence[GenomeResult]
    ) -> List[GenomeResult]:
        if not evaluated:
            return []
        points = [r.objective_vector(self.objectives) for r in evaluated]
        indices = pareto_front_indices(points)
        front = [evaluated[i] for i in indices]
        front.sort(key=lambda r: (r.objective_vector(self.objectives), r.name))
        return front

    # -- genome generation --------------------------------------------------

    def random_genome(self, rng: Optional[Random] = None) -> Dict[str, object]:
        rng = rng or self.rng
        return {
            param.name: rng.choice(param.values) for param in self.space
        }

    # -- evaluation ---------------------------------------------------------

    def evaluate(
        self, genomes: Sequence[Dict[str, object]]
    ) -> List[Optional[GenomeResult]]:
        """Score ``genomes`` (deduplicated), using the run cache.

        Returns one entry per input genome, aligned; ``None`` marks a
        structurally invalid genome (counted in ``self.invalid``).
        Workload-level faults degrade the genome's score (``failures``)
        instead of aborting the search.
        """
        prepared: List[Optional[Tuple[str, Dict[str, object]]]] = []
        for genome in genomes:
            name = genome_name(genome)
            if name in self._results:
                prepared.append((name, genome))
                continue
            try:
                genome_configs(genome, self.base_config, self.space)
            except (ConfigError, ValueError) as exc:
                self.invalid += 1
                logger.warning("invalid genome %s skipped: %s", name, exc)
                prepared.append(None)
                continue
            prepared.append((name, genome))
        fresh = {
            name: genome
            for entry in prepared
            if entry is not None
            for name, genome in [entry]
            if name not in self._results
        }
        if fresh:
            runs = self._run_pairs(fresh, self.train)
            for name, genome in fresh.items():
                self._results[name] = self._score(name, genome, runs[name])
        return [
            self._results[entry[0]] if entry is not None else None
            for entry in prepared
        ]

    def _run_pairs(
        self, genomes: Dict[str, Dict[str, object]], specs: Sequence[WorkloadSpec]
    ) -> Dict[str, Dict[str, SimResult]]:
        """Evaluate every (genome, workload) pair in one scheduler batch.

        Returns genome name -> workload name -> result; a pair the
        scheduler quarantined is absent.
        """
        if not genomes:
            return {}
        self._resolve_baselines()
        tasks = [
            RunTask(
                spec, name,
                configs=genome_configs(genome, self.base_config, self.space),
            )
            for name, genome in genomes.items()
            for spec in specs
        ]
        runs: Dict[str, Dict[str, SimResult]] = {name: {} for name in genomes}
        for task, result in zip(tasks, self._schedule(tasks, self.jobs)):
            if result is not None:
                runs[task.config_name][task.source.name] = result
        return runs

    def _resolve_baselines(self) -> None:
        """Simulate the ``no`` baseline of every train and test workload,
        once and in this process: pool workers forked later inherit the
        generated traces instead of regenerating them."""
        if self._baselines is not None:
            return
        specs = list({spec.name: spec for spec in self.train + self.test}.values())
        tasks = [RunTask(spec, "no", self.base_config) for spec in specs]
        self._baselines = {
            task.source.name: result
            for task, result in zip(tasks, self._schedule(tasks, jobs=1))
            if result is not None
        }

    def _schedule(
        self, tasks: List[RunTask], jobs: int
    ) -> List[Optional[SimResult]]:
        """One :func:`run_tasks_parallel` call, bracketed as a suite on
        the installed telemetry bus so a ledger replay counts its pairs."""
        bus = installed_event_bus()
        if bus is not None:
            bus.emit(
                "suite_started",
                payload={"n_tasks": len(tasks), "jobs": jobs},
            )
        outcome = run_tasks_parallel(
            tasks,
            jobs=jobs,
            cache=self.cache,
            checkpoint=self.checkpoint,
            events_bus=bus,
        )
        if bus is not None:
            bus.emit(
                "suite_finished",
                payload={
                    "completed": sum(r is not None for r in outcome.results),
                    "quarantined": len(outcome.report.quarantined),
                },
            )
        if outcome.report.store_degraded and not self._degradation_warned:
            self._degradation_warned = True
            logger.warning(
                "shared run store degraded to read-only; tuning continues "
                "uncached"
            )
        return outcome.results

    def _suite_speedup(
        self,
        name: str,
        runs: Dict[str, SimResult],
        specs: Sequence[WorkloadSpec],
    ) -> Tuple[float, float, int]:
        """(geomean speedup, geomean normalized energy, failures) of one
        genome's ``runs`` (workload name -> result) over ``specs``."""
        ratios: List[float] = []
        energies: List[float] = []
        failures = 0
        for spec in specs:
            base = self._baselines.get(spec.name)
            tuned = runs.get(spec.name)
            if (
                base is None
                or base.stats.ipc <= 0.0
                or tuned is None
                or tuned.stats.ipc <= 0.0
            ):
                failures += 1
                continue
            ratios.append(tuned.stats.ipc / base.stats.ipc)
            base_energy = self._energy_model.report(base.stats).total_nj
            tuned_energy = self._energy_model.report(tuned.stats).total_nj
            if base_energy > 0:
                energies.append(tuned_energy / base_energy)
        speedup = (
            robust_geometric_mean(ratios, context=f"tune {name}")
            if ratios
            else 0.0
        )
        # A genome with no surviving workloads must be *unfit*, not
        # free: zero energy would make it dominate real designs on the
        # minimized energy axis.
        energy = (
            robust_geometric_mean(energies, context=f"tune energy {name}")
            if energies
            else float("inf")
        )
        return speedup, energy, failures

    def _score(
        self, name: str, genome: Dict[str, object], runs: Dict[str, SimResult]
    ) -> GenomeResult:
        speedup, energy, failures = self._suite_speedup(name, runs, self.train)
        ent_config, _sim = genome_configs(genome, self.base_config, self.space)
        storage = EntanglingPrefetcher(ent_config).storage_bits()
        return GenomeResult(
            name=name,
            genome=dict(genome),
            speedup=speedup,
            energy=energy,
            storage_bits=storage,
            failures=failures,
        )


class GridTuner(Tuner):
    """Exhaustive cross product of the space (optionally capped).

    ``max_evals`` truncates the product in deterministic iteration order
    — the cap is reported, never silent (see ``TuneResult.evaluated``).
    """

    strategy = "grid"

    def __init__(self, *args, max_evals: Optional[int] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.max_evals = max_evals

    def _search(self) -> None:
        names = [param.name for param in self.space]
        combos = itertools.product(*(param.values for param in self.space))
        if self.max_evals is not None:
            combos = itertools.islice(combos, self.max_evals)
        genomes = [dict(zip(names, combo)) for combo in combos]
        total = 1
        for param in self.space:
            total *= len(param.values)
        if self.max_evals is not None and self.max_evals < total:
            logger.info(
                "grid search capped at %d of %d points", self.max_evals, total
            )
        self.evaluate(genomes)


class RandomTuner(Tuner):
    """Seeded uniform sampling of the space (duplicates are dropped)."""

    strategy = "random"

    def __init__(self, *args, samples: int = 32, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.samples = max(1, samples)

    def _search(self) -> None:
        genomes: List[Dict[str, object]] = []
        seen = set()
        # Bounded proposal loop: a tiny space can exhaust before
        # ``samples`` unique genomes exist.
        for _ in range(self.samples * 20):
            if len(genomes) >= self.samples:
                break
            genome = self.random_genome()
            name = genome_name(genome)
            if name in seen:
                continue
            seen.add(name)
            genomes.append(genome)
        self.evaluate(genomes)


class GeneticTuner(Tuner):
    """NSGA-II-lite: nondominated rank + crowding, tournament selection,
    uniform crossover, per-gene mutation.

    Duplicate offspring cost nothing (the run cache already holds their
    simulations), so no dedup pressure is applied beyond the archive.
    """

    strategy = "genetic"

    def __init__(
        self,
        *args,
        population: int = 12,
        generations: int = 4,
        mutation_rate: Optional[float] = None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.population = max(2, population)
        self.generations = max(1, generations)
        self.mutation_rate = (
            mutation_rate
            if mutation_rate is not None
            else 1.0 / max(1, len(self.space))
        )

    def _search(self) -> None:
        current = [self.random_genome() for _ in range(self.population)]
        parents = [r for r in self.evaluate(current) if r is not None]
        for _generation in range(1, self.generations):
            children = self._offspring(parents)
            child_results = [
                r for r in self.evaluate(children) if r is not None
            ]
            parents = self._select(parents + child_results)

    def _offspring(
        self, parents: Sequence[GenomeResult]
    ) -> List[Dict[str, object]]:
        if not parents:
            return [self.random_genome() for _ in range(self.population)]
        # Bind the parents' ranking once per generation: tournaments in
        # one brood all compare against the same (rank, crowding) map.
        self._ranking = self._ranked(parents)
        children = []
        for _ in range(self.population):
            a = self._tournament(parents)
            b = self._tournament(parents)
            child = self._crossover(a.genome, b.genome)
            children.append(self._mutate(child))
        return children

    def _ranked(
        self, pool: Sequence[GenomeResult]
    ) -> Dict[str, Tuple[int, float]]:
        """name -> (front rank, -crowding distance); lower is fitter."""
        from repro.analysis.pareto import crowding_distances, nondominated_sort

        points = [r.objective_vector(self.objectives) for r in pool]
        ranking: Dict[str, Tuple[int, float]] = {}
        for rank, front in enumerate(nondominated_sort(points)):
            crowd = crowding_distances(points, front)
            for idx in front:
                ranking[pool[idx].name] = (rank, -crowd[idx])
        return ranking

    def _tournament(self, pool: Sequence[GenomeResult]) -> GenomeResult:
        ranking = self._ranking
        a = self.rng.randrange(len(pool))
        b = self.rng.randrange(len(pool))
        return min(
            (pool[a], pool[b]), key=lambda r: (ranking[r.name], r.name)
        )

    def _crossover(self, a, b) -> Dict[str, object]:
        return {
            param.name: (
                a[param.name] if self.rng.random() < 0.5 else b[param.name]
            )
            for param in self.space
        }

    def _mutate(self, genome: Dict[str, object]) -> Dict[str, object]:
        mutated = dict(genome)
        for param in self.space:
            if self.rng.random() < self.mutation_rate:
                mutated[param.name] = self.rng.choice(param.values)
        return mutated

    def _select(self, pool: Sequence[GenomeResult]) -> List[GenomeResult]:
        unique: Dict[str, GenomeResult] = {}
        for result in pool:
            unique.setdefault(result.name, result)
        merged = list(unique.values())
        ranking = self._ranked(merged)
        merged.sort(key=lambda r: (ranking[r.name], r.name))
        return merged[: self.population]


STRATEGIES = {
    "grid": GridTuner,
    "random": RandomTuner,
    "genetic": GeneticTuner,
}


def make_tuner(strategy: str, *args, **kwargs) -> Tuner:
    """Instantiate a tuner by strategy name.

    Raises:
        ValueError: unknown strategy.
    """
    try:
        cls = STRATEGIES[strategy]
    except KeyError:
        raise ValueError(
            f"unknown strategy {strategy!r}; choose from {sorted(STRATEGIES)}"
        ) from None
    return cls(*args, **kwargs)
