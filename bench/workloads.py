"""The benchmark's workloads: what one repetition asks the program to do.

A :class:`Workload` is plain data, so the driver can read it without
importing ``repro`` and a child interpreter can rebuild it from JSON.
Tests shrink a workload with :func:`dataclasses.replace` instead of a
size flag.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

#: The synthetic CVP categories, in ``repro.workloads.generators`` order.
CATEGORIES = ("crypto", "int", "fp", "srv")

#: The sim_sweep field: every baseline of the paper's Fig. 6 plus the
#: three Entangling sizes and the one physical-address configuration.
SWEEP_CONFIGS = (
    "no", "next_line", "sn4l", "mana_4k", "pif", "rdip", "djolt", "fnl_mma",
    "entangling_2k", "entangling_4k", "entangling_8k", "entangling_4k_phys",
)


@dataclass(frozen=True)
class Workload:
    """One workload; ``seed`` (the benchmark's) picks the inputs."""

    name: str
    why: str
    categories: Tuple[str, ...] = CATEGORIES
    per_category: int = 1
    instructions: int = 100_000
    configs: Tuple[str, ...] = ("no",)
    #: configurations a separate process stores before the timed run
    prefill: Tuple[str, ...] = ()
    jobs: int = 1
    #: (population, generations): the timed run is ``repro tune`` instead
    #: of ``run_suite`` over ``configs``
    tune: Optional[Tuple[int, int]] = None

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Workload":
        fields = dict(data)
        for key in ("categories", "configs", "prefill", "tune"):
            if fields.get(key) is not None:
                fields[key] = tuple(fields[key])
        return cls(**fields)

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    def spec_names(self) -> List[str]:
        """Workload names, as ``cvp_suite`` spells them."""
        return [
            f"{category}_{i:02d}"
            for category in self.categories
            for i in range(self.per_category)
        ]

    def spec_seed(self, seed: int, category: str, index: int) -> int:
        """The ``WorkloadSpec`` seed of one trace, derived from ``seed``."""
        return seed * 1000 + 100 * CATEGORIES.index(category) + index

    def operations(self) -> List[str]:
        """Checked outputs of one repetition: ``config/workload`` pairs,
        plus the Pareto front for ``repro tune`` (whose suite is its own
        ``cvp_suite``, so only the ``no`` baselines are named pairs)."""
        if self.tune is not None:
            return ["front"] + [f"no/{name}" for name in self.spec_names()]
        return [
            f"{config}/{name}" for config in self.configs
            for name in self.spec_names()
        ]

    def expected_offpath(self) -> int:
        """Simulations that must leave the staged streak loops."""
        off = [c for c in self.configs if c.endswith("_phys") or c == "ideal"]
        return 0 if self.tune is not None else len(off) * len(self.spec_names())

    def tune_argv(self, seed: int, cache_dir: str, out_prefix: str) -> List[str]:
        population, generations = self.tune
        return [
            "tune", "--strategy", "genetic", "--seed", str(seed),
            "--per-category", str(self.per_category),
            "--instructions", str(self.instructions),
            "--population", str(population),
            "--generations", str(generations),
            "--jobs", str(self.jobs),
            "--cache-dir", cache_dir, "--out", out_prefix,
        ]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "gen_heavy",
            "12 distinct traces with the passive baseline only: trace "
            "generation dominates, simulator and prefetcher changes barely "
            "register",
            per_category=3, instructions=12_000,
        ),
        Workload(
            "sim_sweep",
            "2 traces x 12 prefetcher configs at jobs=1: simulator core and "
            "prefetcher hooks dominate; the _phys pair is the off-fast-path "
            "run",
            categories=("srv", "int"), instructions=30_000,
            configs=SWEEP_CONFIGS,
        ),
        Workload(
            "warm_incremental",
            "a prefilled disk store plus 4 new configs at jobs=2: store "
            "reads and writes, lease claims and pool dispatch",
            instructions=30_000,
            configs=("no", "next_line", "entangling_4k", "entangling_2k",
                     "mana_4k", "djolt", "pif"),
            prefill=("no", "next_line", "entangling_4k"),
            jobs=2,
        ),
        Workload(
            "tune_search",
            "repro tune --strategy genetic at jobs=2: the tuner, its "
            "checkpoint manifest and its own worker loop",
            instructions=20_000, tune=(8, 3), jobs=2,
        ),
    )
}
