"""One driver per table/figure in the paper's evaluation section.

Every ``fig*``/``tab*`` function runs the required simulations and returns
plain data (rows, dicts) mirroring what the paper plots; ``render_*``
helpers turn them into the text tables printed by the benchmarks and
recorded in EXPERIMENTS.md.  All drivers accept a workload suite so the
benchmarks can run scaled-down suites while the full evaluation uses
``cvp_suite(per_category=6)``.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.experiments import (
    EvaluationResult,
    _cached_workload,
    run_batch,
    run_suite,
)
from repro.analysis.metrics import (
    category_means,
    geometric_mean,
    percentile_curve,
    robust_geometric_mean,
)
from repro.analysis.oracle import OracleResult, run_oracle
from repro.analysis.parallel import RunTask
from repro.analysis.storage import prefetcher_storage_kb
from repro.analysis.reporting import format_table
from repro.core.compression import mode_table
from repro.core.entangling import EntanglingConfig
from repro.core.variants import ABLATION_NAMES, ablation_config
from repro.energy import EnergyModel
from repro.prefetchers.registry import available_prefetchers
from repro.sim.config import SimConfig
from repro.workloads.generators import WorkloadSpec

#: The prefetcher field of Figure 6, ordered by storage budget.
FIG6_CONFIGS = (
    "next_line",
    "sn4l",
    "mana_2k",
    "mana_4k",
    "entangling_2k",
    "l1i_64kb",
    "entangling_4k",
    "rdip",
    "l1i_96kb",
    "mana_8k",
    "entangling_8k",
    "fnl_mma",
    "djolt",
    "epi",
    "ideal",
)

#: The sub-64KB field used by the per-workload curve figures (7-10).
CURVE_CONFIGS = (
    "next_line",
    "sn4l",
    "mana_2k",
    "mana_4k",
    "entangling_2k",
    "entangling_4k",
    "rdip",
    "ideal",
)

#: The configurations of the energy table (Table IV).
TAB4_CONFIGS = (
    "next_line",
    "sn4l",
    "mana_2k",
    "mana_4k",
    "entangling_2k",
    "entangling_4k",
    "rdip",
)


# -- Figures 1 and 2 -----------------------------------------------------------


def fig1_fig2_oracle(
    specs: Sequence[WorkloadSpec],
    config: Optional[SimConfig] = None,
    max_distance: int = 10,
) -> List[OracleResult]:
    """The look-ahead oracle study over a suite (Figures 1 and 2)."""
    return [
        run_oracle(_cached_workload(spec), config=config, max_distance=max_distance)
        for spec in specs
    ]


def _render_by_distance(
    title: str, results: Sequence[OracleResult], field: str
) -> str:
    headers = ["workload"] + [f"d={d}" for d in range(1, 11)]
    rows = [
        [r.workload] + [getattr(r, field).get(d, 0.0) for d in range(1, 11)]
        for r in results
    ]
    return title + "\n" + format_table(headers, rows, float_format="{:.3f}")


def render_fig1(results: Sequence[OracleResult]) -> str:
    return _render_by_distance(
        "Fig 1 — fraction of timely prefetches vs look-ahead distance",
        results, "timely_fraction",
    )


def render_fig2(results: Sequence[OracleResult]) -> str:
    return _render_by_distance(
        "Fig 2 — prefetch accuracy vs look-ahead distance", results, "accuracy"
    )


# -- Tables I / II ---------------------------------------------------------------


def tab1_tab2_modes() -> Dict[str, List[Tuple[int, int, int]]]:
    """Compression mode tables for virtual (Table I) and physical (Table II)."""
    return {"virtual": mode_table("virtual"), "physical": mode_table("physical")}


def render_tab1_tab2() -> str:
    modes = tab1_tab2_modes()
    parts = []
    for kind, rows in modes.items():
        headers = ["mode", "destinations", "addr bits each"]
        title = "Table I (virtual)" if kind == "virtual" else "Table II (physical)"
        parts.append(title + "\n" + format_table(headers, rows))
    return "\n\n".join(parts)


# -- Figure 6 ----------------------------------------------------------------------


@dataclass
class Fig6Row:
    config: str
    storage_kb: float
    geomean_speedup: float


def fig6_ipc_vs_storage(
    specs: Sequence[WorkloadSpec],
    configs: Sequence[str] = FIG6_CONFIGS,
    jobs: Optional[int] = None,
) -> Tuple[List[Fig6Row], EvaluationResult]:
    """Geomean normalized IPC and storage per configuration (Figure 6)."""
    evaluation = run_suite(specs, list(configs), jobs=jobs)
    rows = [
        Fig6Row(
            config=name,
            storage_kb=prefetcher_storage_kb(name) if name != "ideal" else 0.0,
            geomean_speedup=evaluation.geomean_speedup(name),
        )
        for name in configs
    ]
    return rows, evaluation


def render_fig6(rows: Sequence[Fig6Row]) -> str:
    headers = ["config", "storage KB", "geomean IPC (norm.)"]
    table_rows = [[r.config, r.storage_kb, r.geomean_speedup] for r in rows]
    return "Fig 6 — IPC vs memory requirements\n" + format_table(
        headers, table_rows, float_format="{:.3f}"
    )


# -- Figures 7-10 (per-workload curves) ----------------------------------------------


def per_workload_curves(
    evaluation: EvaluationResult,
    metric: str,
    configs: Sequence[str] = CURVE_CONFIGS,
) -> Dict[str, List[float]]:
    """Sorted per-workload series per config for Figures 7 (ipc),
    8 (miss_ratio), 9 (coverage), 10 (accuracy)."""
    getters = {
        "ipc": evaluation.normalized_ipc,
        "miss_ratio": evaluation.miss_ratio,
        "coverage": evaluation.coverage,
        "accuracy": evaluation.accuracy,
    }
    if metric not in getters:
        raise ValueError(f"unknown curve metric {metric!r}")
    return {
        name: percentile_curve(list(getters[metric](name).values()))
        for name in configs
        if name in evaluation.runs
    }


def render_curves(title: str, curves: Dict[str, List[float]]) -> str:
    lines = [title]
    for name, series in curves.items():
        body = " ".join(f"{v:.3f}" for v in series)
        lines.append(f"  {name:16s} {body}")
    return "\n".join(lines)


# -- Table IV (energy) ------------------------------------------------------------------


def tab4_energy(
    specs: Sequence[WorkloadSpec],
    configs: Sequence[str] = TAB4_CONFIGS,
    jobs: Optional[int] = None,
) -> Tuple[List[List[object]], EvaluationResult]:
    """Average per-level energy (nJ) and normalized geomean (Table IV)."""
    evaluation = run_suite(specs, list(configs), jobs=jobs)
    model = EnergyModel()
    all_configs = ["no"] + [c for c in configs if c != "no"]
    reports = {
        name: {w: model.report(evaluation.stats(name, w)) for w in evaluation.workloads()}
        for name in all_configs
    }
    rows: List[List[object]] = []
    for name in all_configs:
        level_means = [
            statistics.mean(r.per_level[level] for r in reports[name].values())
            for level in ("L1I", "L1D", "L2C", "LLC")
        ]
        norm = 1.0 if name == "no" else geometric_mean(
            [reports[name][w].total_nj / reports["no"][w].total_nj for w in reports[name]]
        )
        rows.append([name, *level_means, norm])
    return rows, evaluation


def render_tab4(rows: Sequence[Sequence[object]]) -> str:
    headers = ["config", "L1I nJ", "L1D nJ", "L2C nJ", "LLC nJ", "geomean (norm.)"]
    return "Table IV — average energy per cache level\n" + format_table(
        headers, rows, float_format="{:.4g}"
    )


# -- Figure 11 (ablation) ------------------------------------------------------------------


def _entangling_task(
    spec: WorkloadSpec, config: EntanglingConfig, sim_config: SimConfig, name: str
) -> RunTask:
    """A task for ``config``: by registry name when it is ``entangling_<N>k``
    (so Figure 6's stored result serves it), else the resolved pair."""
    registry_name = f"entangling_{config.entries // 1024}k"
    if (
        config == EntanglingConfig(entries=config.entries)
        and registry_name in available_prefetchers()
    ):
        return RunTask(spec, registry_name, sim_config)
    return RunTask(spec, name, configs=(config, sim_config))


def fig11_ablation(
    specs: Sequence[WorkloadSpec],
    sizes: Sequence[int] = (2048, 4096, 8192),
    config: Optional[SimConfig] = None,
    jobs: Optional[int] = None,
) -> Dict[str, Dict[int, float]]:
    """Geomean speedup per ablation variant and table size (Figure 11):
    one scheduler batch, spec-major, each spec's ``no`` baseline first."""
    sim_config = config or SimConfig()
    cells = [(variant, size) for variant in ABLATION_NAMES for size in sizes]
    tasks: List[RunTask] = []
    for spec in specs:
        tasks.append(RunTask(spec, "no", sim_config))
        tasks.extend(
            _entangling_task(
                spec, ablation_config(variant, size), sim_config,
                f"{variant}-{size // 1024}K",
            )
            for variant, size in cells
        )
    results = iter(run_batch(tasks, jobs))
    ratios: Dict[Tuple[str, int], List[float]] = {cell: [] for cell in cells}
    for _spec in specs:
        base = next(results)
        for cell in cells:
            result = next(results)
            # A quarantined run or a zero-IPC baseline is skipped and
            # flagged by the geomean.
            ok = result is not None and base is not None and base.stats.ipc
            ratios[cell].append(result.stats.ipc / base.stats.ipc if ok else 0.0)
    out: Dict[str, Dict[int, float]] = {name: {} for name in ABLATION_NAMES}
    for (variant, size), cell_ratios in ratios.items():
        out[variant][size] = robust_geometric_mean(
            cell_ratios, context=f"fig11[{variant}, {size}]"
        )
    return out


def render_fig11(data: Dict[str, Dict[int, float]]) -> str:
    sizes = sorted(next(iter(data.values())))
    headers = ["variant"] + [f"{s // 1024}K" for s in sizes]
    rows = [[variant] + [data[variant][s] for s in sizes] for variant in data]
    return "Fig 11 — breakdown of the contributions to performance\n" + format_table(
        headers, rows, float_format="{:.3f}"
    )


# -- Figures 12-15 (Entangling internals) --------------------------------------------------


@dataclass
class InternalsResult:
    """Per-category means of the Entangling-internal statistics."""

    format_fractions: Dict[str, Dict[int, float]]   # Fig 12
    avg_destinations: Dict[str, float]              # Fig 13
    avg_src_bb_size: Dict[str, float]               # Fig 14
    avg_dst_bb_size: Dict[str, float]               # Fig 15
    avg_prefetches_per_hit: Dict[str, float]


def figs12_to_15_internals(
    specs: Sequence[WorkloadSpec],
    entries: int = 4096,
    config: Optional[SimConfig] = None,
    jobs: Optional[int] = None,
) -> InternalsResult:
    """Entangling's internal statistics per category, read from each
    result's ``internals`` (quarantined workloads are left out)."""
    sim_config = config or SimConfig()
    tasks = [
        _entangling_task(
            spec, EntanglingConfig(entries=entries), sim_config,
            f"entangling-{entries}",
        )
        for spec in specs
    ]
    categories = {spec.name: spec.category for spec in specs}
    internals = {
        spec.name: result.internals
        for spec, result in zip(specs, run_batch(tasks, jobs))
        if result is not None
    }

    format_fractions: Dict[str, Dict[int, float]] = {}
    for name, values in internals.items():
        counts = dict(values["format_bits"])
        bucket = format_fractions.setdefault(categories[name], {})
        total = sum(counts.values()) or 1
        for bits, count in counts.items():
            bucket[bits] = bucket.get(bits, 0.0) + count / total
    for cat, bucket in format_fractions.items():
        n = sum(1 for name in internals if categories[name] == cat)
        for bits in bucket:
            bucket[bits] /= n

    def means(field: str) -> Dict[str, float]:
        return category_means(
            {name: values[field] for name, values in internals.items()},
            categories,
        )

    return InternalsResult(
        format_fractions=format_fractions,
        avg_destinations=means("avg_destinations_per_hit"),
        avg_src_bb_size=means("avg_src_bb_size"),
        avg_dst_bb_size=means("avg_dst_bb_size"),
        avg_prefetches_per_hit=means("avg_prefetches_per_hit"),
    )


def render_figs12_to_15(result: InternalsResult) -> str:
    lines = ["Fig 12 — destination compression formats (fraction per category)"]
    for cat, bucket in sorted(result.format_fractions.items()):
        body = "  ".join(f"{bits}b:{frac:.2f}" for bits, frac in sorted(bucket.items()))
        lines.append(f"  {cat:8s} {body}")
    lines.append("Fig 13 — average entangled destinations per hit")
    for cat, value in sorted(result.avg_destinations.items()):
        lines.append(f"  {cat:8s} {value:.2f}")
    lines.append("Fig 14 — average basic-block size (triggering block)")
    for cat, value in sorted(result.avg_src_bb_size.items()):
        lines.append(f"  {cat:8s} {value:.2f}")
    lines.append("Fig 15 — average basic-block size (entangled destinations)")
    for cat, value in sorted(result.avg_dst_bb_size.items()):
        lines.append(f"  {cat:8s} {value:.2f}")
    lines.append("Average prefetches per Entangled-table hit")
    for cat, value in sorted(result.avg_prefetches_per_hit.items()):
        lines.append(f"  {cat:8s} {value:.1f}")
    return "\n".join(lines)


# -- Section IV-E (physical addresses) ---------------------------------------------------------


def sec4e_physical(
    specs: Sequence[WorkloadSpec],
    jobs: Optional[int] = None,
) -> Dict[str, float]:
    """Geomean speedups for physically-trained Entangling (Section IV-E)."""
    names = ["entangling_2k_phys", "entangling_4k_phys", "entangling_8k_phys"]
    evaluation = run_suite(
        specs, names, base_config=SimConfig().with_physical_addresses(), jobs=jobs
    )
    return {name: evaluation.geomean_speedup(name) for name in names}


def render_sec4e(speedups: Dict[str, float]) -> str:
    headers = ["config", "geomean IPC (norm.)"]
    rows = [[name, value] for name, value in speedups.items()]
    return "Section IV-E — physical-address training\n" + format_table(
        headers, rows, float_format="{:.3f}"
    )


# -- Figure 16 (CloudSuite) --------------------------------------------------------------------


FIG16_CONFIGS = (
    "next_line",
    "sn4l",
    "mana_2k",
    "mana_4k",
    "entangling_2k",
    "entangling_4k",
    "ideal",
)


def fig16_cloudsuite(
    specs: Sequence[WorkloadSpec],
    configs: Sequence[str] = FIG16_CONFIGS,
    jobs: Optional[int] = None,
) -> Tuple[Dict[str, Dict[str, float]], EvaluationResult]:
    """Normalized IPC per CloudSuite application (Figure 16)."""
    evaluation = run_suite(specs, list(configs), jobs=jobs)
    data = {name: evaluation.normalized_ipc(name) for name in configs}
    return data, evaluation


def _render_per_workload(title: str, data: Dict[str, Dict[str, float]]) -> str:
    workloads = sorted(next(iter(data.values())))
    headers = ["config"] + workloads
    rows = [[name] + [series[w] for w in workloads] for name, series in data.items()]
    return title + "\n" + format_table(headers, rows, float_format="{:.3f}")


def render_fig16(data: Dict[str, Dict[str, float]]) -> str:
    return _render_per_workload(
        "Fig 16 — normalized IPC for CloudSuite applications", data
    )


# -- Microservice extension (beyond the paper) -------------------------------------------------


MICROSERVICE_CONFIGS = (
    "next_line",
    "entangling_2k",
    "entangling_4k",
    "ideal",
)


def fig_microservice(
    specs: Optional[Sequence[WorkloadSpec]] = None,
    configs: Sequence[str] = MICROSERVICE_CONFIGS,
    jobs: Optional[int] = None,
) -> Tuple[Dict[str, Dict[str, float]], EvaluationResult]:
    """Normalized IPC per microservice workload (single- and multi-tenant).

    An extension beyond the paper's figures: SLOFetch-style RPC-chain
    services, alone and context-switched 2-4 to a core, showing how much
    prefetch reach survives multi-tenant L1I/BTB thrashing.  ``specs``
    defaults to :func:`repro.workloads.microservice.microservice_suite`.
    """
    if specs is None:
        from repro.workloads.microservice import microservice_suite

        specs = microservice_suite()
    return fig16_cloudsuite(specs, configs, jobs)


def render_fig_microservice(data: Dict[str, Dict[str, float]]) -> str:
    return _render_per_workload(
        "Microservices — normalized IPC (single- and multi-tenant)", data
    )
