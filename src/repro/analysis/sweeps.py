"""Micro-architectural parameter sweeps.

Helpers for sensitivity studies around the paper's fixed design points:
sweep any :class:`~repro.sim.config.SimConfig` field (prefetch-queue
size, MSHR count, FTQ depth, ...) or any
:class:`~repro.core.entangling.EntanglingConfig` field for one workload
suite and collect the headline metrics per point.  Each sweep is one
batch for the one scheduler (:func:`~repro.analysis.experiments.run_batch`):
the run store, ``jobs=N``, the ledger and quarantine all apply.

The paper itself motivates one of these: "our prefetcher would benefit
from a larger prefetch queue (32 entries employed in our evaluation), as
less prefetches would be discarded" (Section IV-D) —
``sweep_sim_parameter(..., "prefetch_queue_size", [16, 32, 64, 128])``
quantifies exactly that.
"""

from __future__ import annotations

import dataclasses
import logging
from typing import Callable, List, Optional, Sequence, Tuple

from repro.analysis.experiments import run_batch
from repro.analysis.metrics import robust_geometric_mean
from repro.analysis.parallel import RunTask
from repro.core.entangling import EntanglingConfig
from repro.sim.config import SimConfig
from repro.sim.simulator import SimResult
from repro.workloads.generators import WorkloadSpec

logger = logging.getLogger(__name__)


@dataclasses.dataclass
class SweepPoint:
    """Aggregate metrics for one parameter value.

    ``failures`` counts workloads that were skipped — either a run was
    quarantined by the scheduler or the baseline IPC is zero, so the
    speedup ratio is meaningless (the point aggregates over the
    survivors); a long sensitivity sweep degrades per-workload instead
    of dying wholesale.
    """

    value: object
    geomean_speedup: float
    mean_coverage: float
    mean_accuracy: float
    mean_pq_drops: float
    failures: int = 0


def _point(
    value: object,
    specs: Sequence[WorkloadSpec],
    legs: Sequence[Tuple[Optional[SimResult], Optional[SimResult]]],
) -> SweepPoint:
    """Aggregate one point from its per-spec ``(baseline, run)`` results."""
    rows: List[Tuple[float, float, float, float]] = []
    failures = 0
    for spec, (base, result) in zip(specs, legs):
        if base is None or result is None or base.stats.ipc <= 0.0:
            # Quarantined, or a zero-IPC baseline with no meaningful
            # ratio: skip-and-flag instead of poisoning the geomean.
            failures += 1
            logger.warning("sweep point %s skipped workload %s", value, spec.name)
            continue
        stats = result.stats
        rows.append((
            stats.ipc / base.stats.ipc, stats.coverage_vs(base.stats),
            stats.accuracy, float(stats.prefetches_dropped_pq_full),
        ))
    ratios = [row[0] for row in rows]
    # robust_geometric_mean skips-and-warns non-positive ratios (a
    # zero-IPC prefetcher run against a healthy baseline); surface those
    # skips in the point's failure count too.
    failures += sum(1 for ratio in ratios if ratio <= 0.0)
    n = max(1, len(rows))
    return SweepPoint(
        value=value,
        geomean_speedup=(
            robust_geometric_mean(ratios, context="sweep point") if ratios else 0.0
        ),
        mean_coverage=sum(row[1] for row in rows) / n,
        mean_accuracy=sum(row[2] for row in rows) / n,
        mean_pq_drops=sum(row[3] for row in rows) / n,
        failures=failures,
    )


def _sweep(
    specs: Sequence[WorkloadSpec],
    values: Sequence[object],
    legs: Callable[[WorkloadSpec, object], Tuple[RunTask, RunTask]],
    jobs: Optional[int],
) -> List[SweepPoint]:
    """One scheduler batch, spec-major, of each point's ``legs(spec,
    value)``: its baseline and its run.  The scheduler simulates a
    baseline several points share once, and every task keeps the default
    warm-up, so both legs of a ratio share one window."""
    points = [[legs(spec, value) for spec in specs] for value in values]
    cells = [(p, i) for i in range(len(specs)) for p in range(len(values))]
    results = iter(run_batch([t for p, i in cells for t in points[p][i]], jobs))
    legs_of = {cell: (next(results), next(results)) for cell in cells}
    return [
        _point(value, specs, [legs_of[p, i] for i in range(len(specs))])
        for p, value in enumerate(values)
    ]


def sweep_sim_parameter(
    specs: Sequence[WorkloadSpec],
    field: str,
    values: Sequence[object],
    config_name: str = "entangling_4k",
    base_config: Optional[SimConfig] = None,
    jobs: Optional[int] = None,
) -> List[SweepPoint]:
    """Sweep one :class:`SimConfig` field for registry config ``config_name``.

    Raises:
        ValueError: the field does not exist on :class:`SimConfig`.
    """
    config = base_config or SimConfig()
    if not hasattr(config, field):
        raise ValueError(f"SimConfig has no field {field!r}")

    def legs(spec: WorkloadSpec, value: object) -> Tuple[RunTask, RunTask]:
        swept = dataclasses.replace(config, **{field: value})
        return RunTask(spec, "no", swept), RunTask(spec, config_name, swept)

    return _sweep(specs, values, legs, jobs)


def sweep_entangling_parameter(
    specs: Sequence[WorkloadSpec],
    field: str,
    values: Sequence[object],
    base_config: Optional[EntanglingConfig] = None,
    sim_config: Optional[SimConfig] = None,
    jobs: Optional[int] = None,
) -> List[SweepPoint]:
    """Sweep one :class:`EntanglingConfig` field.

    Raises:
        ValueError: the field does not exist on :class:`EntanglingConfig`.
    """
    entangling_config = base_config or EntanglingConfig()
    if not hasattr(entangling_config, field):
        raise ValueError(f"EntanglingConfig has no field {field!r}")
    config = sim_config or SimConfig()

    def legs(spec: WorkloadSpec, value: object) -> Tuple[RunTask, RunTask]:
        variant = dataclasses.replace(entangling_config, **{field: value})
        return RunTask(spec, "no", config), RunTask(
            spec, f"entangling[{field}={value}]", configs=(variant, config)
        )

    return _sweep(specs, values, legs, jobs)


def render_sweep(title: str, points: Sequence[SweepPoint]) -> str:
    lines = [title]
    for point in points:
        line = (
            f"  {str(point.value):>8s}  speedup={point.geomean_speedup:.3f}  "
            f"coverage={point.mean_coverage:.3f}  "
            f"accuracy={point.mean_accuracy:.3f}  "
            f"pq_drops={point.mean_pq_drops:.0f}"
        )
        if point.failures:
            line += f"  ({point.failures} workload(s) failed, skipped)"
        lines.append(line)
    return "\n".join(lines)
