"""CSV / metrics export of evaluation results and figure data.

Every figure driver in :mod:`repro.analysis.figures` returns plain data;
these helpers serialize that data so external plotting tools can redraw
the paper's figures from this reproduction's numbers.

Per-run counter values are read through the unified metrics registry
(:mod:`repro.obs.registry`) — one naming scheme shared with the JSON /
CSV / Prometheus exporters below — instead of reaching into each counter
dataclass separately.
"""

from __future__ import annotations

import csv
import io
from typing import TYPE_CHECKING, List, Mapping, Optional, Sequence, TextIO, Union

from repro.analysis.experiments import EvaluationResult
from repro.check.artifacts import atomic_write_text

if TYPE_CHECKING:
    from repro.obs.registry import MetricsRegistry

PathOrFile = Union[str, TextIO]


def _with_writer(path_or_file: PathOrFile, emit) -> None:
    if isinstance(path_or_file, str):
        # Render in memory, then atomically replace the target so a crash
        # mid-export can never leave a half-written CSV behind.  The
        # buffer uses newline="" like the direct-file path did, so the
        # csv module's \r\n row endings survive byte-for-byte.
        buffer = io.StringIO(newline="")
        emit(csv.writer(buffer))
        atomic_write_text(path_or_file, buffer.getvalue())
    else:
        emit(csv.writer(path_or_file))


def _write_text(path_or_file: PathOrFile, text: str) -> None:
    if isinstance(path_or_file, str):
        atomic_write_text(path_or_file, text)
    else:
        path_or_file.write(text)


def evaluation_metrics_registry(
    evaluation: EvaluationResult,
    config: str,
    workload: str,
    baseline: str = "no",
) -> MetricsRegistry:
    """The unified registry for one evaluation run.

    Simulator (and any prefetcher-internal) metrics from the run, plus
    the evaluation-level derived gauges (normalized IPC and coverage
    against ``baseline``), labelled with the run's identity.
    """
    from repro.obs.registry import registry_for_run

    result = evaluation.runs[config][workload]
    registry = registry_for_run(result)
    registry.register(
        "repro_eval_normalized_ipc",
        evaluation.normalized_ipc(config, baseline).get(workload, 0.0),
        kind="gauge",
        help=f"IPC normalized to the {baseline!r} baseline",
    )
    registry.register(
        "repro_eval_coverage",
        evaluation.coverage(config, baseline).get(workload, 0.0),
        kind="gauge",
        help="Fraction of baseline L1I misses eliminated",
    )
    registry.relabel({"config": config, "workload": workload})
    return registry


#: (CSV column, registry metric name) for the per-run evaluation export.
_EVAL_CSV_COLUMNS = (
    ("ipc", "repro_sim_ipc"),
    ("normalized_ipc", "repro_eval_normalized_ipc"),
    ("l1i_mpki", "repro_sim_l1i_mpki"),
    ("miss_ratio", "repro_sim_l1i_miss_ratio"),
    ("coverage", "repro_eval_coverage"),
    ("accuracy", "repro_sim_accuracy"),
    ("prefetches_sent", "repro_sim_prefetches_sent"),
    ("useful", "repro_sim_useful_prefetches"),
    ("late", "repro_sim_late_prefetches"),
    ("wrong", "repro_sim_wrong_prefetches"),
    ("wall_seconds", "repro_sim_wall_seconds"),
    ("instrs_per_sec", "repro_sim_instrs_per_second"),
)

_EVAL_CSV_FORMATS = {
    "ipc": "{:.6f}", "normalized_ipc": "{:.6f}", "l1i_mpki": "{:.4f}",
    "miss_ratio": "{:.6f}", "coverage": "{:.6f}", "accuracy": "{:.6f}",
    "wall_seconds": "{:.4f}", "instrs_per_sec": "{:.1f}",
}


def export_evaluation_csv(
    evaluation: EvaluationResult, path_or_file: PathOrFile
) -> None:
    """One row per (config, workload) with all headline metrics."""

    def emit(writer) -> None:
        writer.writerow(
            ["config", "workload", "category"]
            + [column for column, _metric in _EVAL_CSV_COLUMNS]
        )
        for config in evaluation.configs():
            for workload in sorted(evaluation.runs[config]):
                labels = {"config": config, "workload": workload}
                registry = evaluation_metrics_registry(
                    evaluation, config, workload
                )
                row: List[object] = [
                    config,
                    workload,
                    evaluation.categories.get(workload, "unknown"),
                ]
                for column, metric in _EVAL_CSV_COLUMNS:
                    value = registry.value(metric, labels)
                    template = _EVAL_CSV_FORMATS.get(column)
                    row.append(template.format(value) if template else value)
                writer.writerow(row)

    _with_writer(path_or_file, emit)


def export_metrics_json(
    registry: MetricsRegistry, path_or_file: PathOrFile, indent: Optional[int] = 2
) -> None:
    """Write a metrics registry as JSON (``{"metrics": [...]}``)."""
    _write_text(path_or_file, registry.to_json(indent=indent) + "\n")


def export_metrics_csv(registry: MetricsRegistry, path_or_file: PathOrFile) -> None:
    """Write a metrics registry as ``name,labels,kind,value`` CSV."""
    _write_text(path_or_file, registry.to_csv())


def export_metrics_prometheus(
    registry: MetricsRegistry, path_or_file: PathOrFile
) -> None:
    """Write a metrics registry in Prometheus text exposition format."""
    _write_text(path_or_file, registry.to_prometheus_text())


def export_curves_csv(
    curves: Mapping[str, Sequence[float]], path_or_file: PathOrFile
) -> None:
    """Figure 7-10 style sorted series: one column per configuration."""
    names = list(curves)
    length = max((len(v) for v in curves.values()), default=0)

    def emit(writer) -> None:
        writer.writerow(["rank"] + names)
        for rank in range(length):
            row: List[object] = [rank]
            for name in names:
                series = curves[name]
                row.append(f"{series[rank]:.6f}" if rank < len(series) else "")
            writer.writerow(row)

    _with_writer(path_or_file, emit)


def export_pareto_csv(result, path_or_file: PathOrFile) -> None:
    """One row per Pareto-front point of a :class:`~repro.analysis.tune.TuneResult`.

    Columns are the union of genome parameters (sorted) plus the
    objective scores, so external tools can redraw the searched Figure 6
    frontier without re-running the search.  Unset parameters and
    held-out scores render as empty cells; tuple-valued parameters
    (mode whitelists) are joined with ``|`` so the CSV stays
    single-delimiter.
    """
    params = sorted({name for point in result.front for name in point.genome})

    def render(value) -> object:
        if value is None:
            return ""
        if isinstance(value, (list, tuple)):
            return "|".join(str(v) for v in value)
        return value

    def emit(writer) -> None:
        writer.writerow(
            ["point"]
            + params
            + [
                "speedup",
                "test_speedup",
                "storage_bits",
                "storage_kb",
                "energy",
                "failures",
            ]
        )
        for point in result.front:
            writer.writerow(
                [point.name]
                + [render(point.genome.get(name)) for name in params]
                + [
                    f"{point.speedup:.6f}",
                    (
                        f"{point.test_speedup:.6f}"
                        if point.test_speedup is not None
                        else ""
                    ),
                    point.storage_bits,
                    f"{point.storage_kb:.2f}",
                    f"{point.energy:.6f}",
                    point.failures,
                ]
            )

    _with_writer(path_or_file, emit)


def export_series_csv(
    series: Mapping[object, float],
    path_or_file: PathOrFile,
    key_name: str = "key",
    value_name: str = "value",
) -> None:
    """A simple key->value mapping (e.g. Figure 1 distances, Figure 13
    category means)."""

    def emit(writer) -> None:
        writer.writerow([key_name, value_name])
        for key in sorted(series, key=str):
            writer.writerow([key, f"{series[key]:.6f}"])

    _with_writer(path_or_file, emit)
