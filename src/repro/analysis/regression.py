"""Benchmark-regression sentinel over the ``BENCH_throughput.json`` trajectory.

``benchmarks/test_perf_throughput.py`` appends one record per run to the
trajectory file; until now the trajectory was written but never *read*.
This module closes the loop: :func:`check_trajectory` compares the
newest record against a robust baseline (the median of up to ``window``
prior records, per ``(config, workload, backend)`` triple — like-backend
comparisons only) and reports three classes of finding:

* **throughput regressions** — ``instrs_per_sec`` dropped by at least
  ``threshold`` (default 30%) against the baseline median.  Medians
  absorb the one-off noise of loaded CI machines; a real slowdown moves
  every subsequent record.
* **drifts** — the newest record's ``cycles`` or ``instructions``
  differ from the most recent prior record for the same pair.  The
  bench suite is fixed and the simulator deterministic, so *any* drift
  means simulated behaviour changed: a correctness alarm, not noise.
  An intentional behaviour change (a modeling fix) acknowledges the
  alarm with ``repro bench-check --allow-cycle-drift`` for one run.
* **speedup-gate failures** — with ``--require-speedup BACKEND:FACTOR``
  the newest record's per-backend geomean ``speedup_vs_reference`` must
  reach the required factor.  Unlike the history-based checks this
  gates even the very first trajectory record, so CI enforces the fast
  backends' raison d'être from day one.

The trajectory file itself is versioned from this PR on
(:data:`TRAJECTORY_SCHEMA_VERSION`) and capped at
:data:`DEFAULT_RETENTION` entries so it stops growing unboundedly;
legacy bare-list files load transparently and upgrade on the next
append.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

from repro.check.artifacts import atomic_write_json

logger = logging.getLogger(__name__)

__all__ = [
    "DEFAULT_RETENTION",
    "DEFAULT_THRESHOLD",
    "DEFAULT_WINDOW",
    "Finding",
    "SentinelReport",
    "TRAJECTORY_SCHEMA_VERSION",
    "check_trajectory",
    "load_trajectory",
    "parse_speedup_requirements",
    "retention_from_env",
    "save_trajectory",
]

#: Bumped whenever the record shape changes; the loader accepts the
#: legacy bare-list format (schema 1, implicit) and this version.
TRAJECTORY_SCHEMA_VERSION = 2

#: Entries kept in the trajectory file (oldest dropped beyond this).
DEFAULT_RETENTION = 50

#: Prior entries the baseline median may draw from.
DEFAULT_WINDOW = 10

#: Fractional ``instrs_per_sec`` drop that counts as a regression.
DEFAULT_THRESHOLD = 0.30

#: Synthetic pair name for the whole-suite aggregate throughput check.
AGGREGATE = "(aggregate)"


def retention_from_env(default: int = DEFAULT_RETENTION) -> int:
    raw = os.environ.get("REPRO_BENCH_KEEP")
    if raw is None or not raw.strip():
        return default
    try:
        value = int(raw.strip())
    except ValueError:
        raise ValueError(
            f"REPRO_BENCH_KEEP must be a positive integer, got {raw!r}"
        ) from None
    return max(1, value)


# ---------------------------------------------------------------------------
# trajectory I/O
# ---------------------------------------------------------------------------


def parse_trajectory(data: Any) -> List[Dict[str, Any]]:
    """Entries from either trajectory shape; raises ValueError otherwise."""
    if isinstance(data, list):
        return [e for e in data if isinstance(e, dict)]  # legacy bare list
    if isinstance(data, dict):
        version = data.get("schema_version")
        entries = data.get("entries")
        if version == TRAJECTORY_SCHEMA_VERSION and isinstance(entries, list):
            return [e for e in entries if isinstance(e, dict)]
        raise ValueError(
            f"unsupported trajectory schema_version {version!r} "
            f"(this tool reads {TRAJECTORY_SCHEMA_VERSION} and legacy lists)"
        )
    raise ValueError(f"unrecognized trajectory shape: {type(data).__name__}")


def load_trajectory(path: str, tolerant: bool = False) -> List[Dict[str, Any]]:
    """Entries at ``path``; [] when missing; ValueError when unreadable.

    With ``tolerant=True`` a corrupt or torn file is logged and treated
    as empty instead of raising, so an appender (the bench suite) can
    start a fresh trajectory rather than abort.  The strict default is
    what the gate (``repro bench-check``) wants: corruption there must
    be surfaced, not silently waved through.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
        return parse_trajectory(data)
    except FileNotFoundError:
        return []
    except (OSError, json.JSONDecodeError, UnicodeDecodeError, ValueError) as exc:
        if tolerant:
            logger.warning(
                "trajectory %s is unreadable (%s); starting fresh", path, exc
            )
            return []
        raise ValueError(f"trajectory {path} is unreadable: {exc}") from None


def save_trajectory(
    path: str,
    entries: List[Dict[str, Any]],
    retention: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Write entries in the v2 envelope, keeping only the newest ``retention``.

    Atomic (tmp + ``os.replace``) so a crash mid-write cannot truncate
    the trajectory.  Returns the entries actually written.
    """
    keep = retention if retention is not None else retention_from_env()
    kept = entries[-keep:]
    payload = {
        "schema_version": TRAJECTORY_SCHEMA_VERSION,
        "max_entries": keep,
        "entries": kept,
    }
    atomic_write_json(path, payload)
    return kept


# ---------------------------------------------------------------------------
# the sentinel
# ---------------------------------------------------------------------------


@dataclass
class Finding:
    """One comparison that tripped the sentinel."""

    kind: str  # "throughput" | "cycle_drift" | "instruction_drift" | "speedup"
    config: str
    workload: str
    baseline: float
    current: float
    #: Simulator backend of the compared runs; pre-backend trajectory
    #: records (no ``backend`` field) are implicitly "reference".
    backend: str = "reference"

    @property
    def delta(self) -> float:
        """Fractional change vs. baseline (negative = got worse/slower)."""
        if self.baseline == 0:
            return 0.0
        return (self.current - self.baseline) / self.baseline

    def describe(self) -> str:
        pair = f"{self.config}/{self.workload}".rstrip("/")
        if self.backend != "reference":
            pair = f"{pair}@{self.backend}"
        if self.kind == "speedup":
            return (
                f"SPEEDUP GATE {self.backend}: geomean "
                f"{self.current:.2f}x vs reference, required "
                f">= {self.baseline:.2f}x"
            )
        if self.kind == "throughput":
            return (
                f"REGRESSION {pair}: instrs_per_sec "
                f"{self.current:,.0f} vs baseline median {self.baseline:,.0f} "
                f"({self.delta:+.1%})"
            )
        metric = "cycles" if self.kind == "cycle_drift" else "instructions"
        return (
            f"DRIFT {pair}: {metric} {self.current:,.0f} vs prior "
            f"{self.baseline:,.0f} — simulated behaviour changed"
        )


@dataclass
class SentinelReport:
    """Outcome of one :func:`check_trajectory` pass."""

    findings: List[Finding] = field(default_factory=list)
    checked: int = 0            # (config, workload) pairs compared
    baseline_entries: int = 0   # prior entries the baseline drew from
    window: int = DEFAULT_WINDOW
    threshold: float = DEFAULT_THRESHOLD
    skipped: List[str] = field(default_factory=list)  # pairs with no history
    #: Pairs whose newest record carried non-numeric metric fields (a torn
    #: or hand-edited trajectory); logged and excluded, never compared.
    malformed: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[Finding]:
        return [f for f in self.findings if f.kind == "throughput"]

    @property
    def drifts(self) -> List[Finding]:
        return [
            f for f in self.findings
            if f.kind not in ("throughput", "speedup")
        ]

    @property
    def speedup_failures(self) -> List[Finding]:
        return [f for f in self.findings if f.kind == "speedup"]

    @property
    def ok(self) -> bool:
        return not self.findings

    def format(self) -> str:
        if self.baseline_entries == 0:
            lines = [
                "bench-check: no prior entries to compare against "
                "(need at least 2 trajectory records)"
            ]
            # Speedup gates apply to the newest record alone, so they
            # still fire (and still fail the check) without history.
            for finding in self.findings:
                lines.append("  " + finding.describe())
            if not self.findings:
                lines[0] += "; nothing to gate"
            return "\n".join(lines)
        lines = [
            f"bench-check: compared newest entry against "
            f"{self.baseline_entries} prior entr"
            f"{'y' if self.baseline_entries == 1 else 'ies'} "
            f"(window {self.window}, threshold {self.threshold:.0%}): "
            f"{self.checked} pairs checked"
        ]
        for finding in self.findings:
            lines.append("  " + finding.describe())
        if self.skipped:
            lines.append(
                f"  (no history for: {', '.join(sorted(self.skipped))})"
            )
        if self.malformed:
            lines.append(
                f"  (malformed records skipped: "
                f"{', '.join(sorted(self.malformed))})"
            )
        if self.ok:
            lines.append("  OK: no throughput regression, no drift")
        return "\n".join(lines)


def _runs_by_pair(
    entry: Dict[str, Any]
) -> Dict[Tuple[str, str, str], Dict[str, Any]]:
    """Newest-wins map of runs keyed by (config, workload, backend).

    Trajectory records that predate the backend field carry no
    ``backend`` key; those runs came from the reference engine, so they
    default to ``"reference"`` and stay comparable with new reference
    runs.  Runs from different backends never compare against each
    other — a staged run being 3x faster than a reference run is the
    point, not a regression signal.
    """
    out: Dict[Tuple[str, str, str], Dict[str, Any]] = {}
    for run in entry.get("runs", []) or []:
        if isinstance(run, dict) and "config" in run and "workload" in run:
            backend = run.get("backend") or "reference"
            out[(run["config"], run["workload"], backend)] = run
    return out


def parse_speedup_requirements(specs: List[str]) -> Dict[str, float]:
    """``["staged:1.8"]`` → ``{"staged": 1.8}``.

    Raises:
        ValueError: a spec is not ``BACKEND:FACTOR`` with a positive
            numeric factor.
    """
    requirements: Dict[str, float] = {}
    for spec in specs:
        backend, sep, raw_factor = spec.partition(":")
        backend = backend.strip().lower()
        try:
            factor = float(raw_factor.strip())
        except ValueError:
            factor = float("nan")
        if not sep or not backend or not factor > 0:
            raise ValueError(
                f"speedup requirement must be BACKEND:FACTOR with a "
                f"positive factor (e.g. staged:1.8), got {spec!r}"
            ) from None
        requirements[backend] = factor
    return requirements


def _check_speedups(
    newest: Dict[str, Any],
    requirements: Dict[str, float],
    report: "SentinelReport",
) -> None:
    """Gate per-backend geomean speedup_vs_reference in the newest entry.

    A required backend with no runs in the newest record fails the gate
    (current = 0): silently passing because the bench skipped a backend
    would defeat the CI gate's purpose.
    """
    speedups: Dict[str, List[float]] = {}
    for (_, _, backend), run in _runs_by_pair(newest).items():
        if run.get("from_cache"):
            # A cache-served run's wall-clock belongs to the original
            # simulation (possibly another backend); its "speedup" is
            # fiction and must not enter the gate's geomean.
            continue
        value = run.get("speedup_vs_reference")
        if isinstance(value, (int, float)) and value > 0:
            speedups.setdefault(backend, []).append(float(value))
    for backend, required in sorted(requirements.items()):
        values = speedups.get(backend, [])
        geomean = (
            math.exp(sum(math.log(v) for v in values) / len(values))
            if values else 0.0
        )
        report.checked += 1
        if geomean < required:
            report.findings.append(
                Finding(
                    "speedup", "", "", required, geomean, backend=backend
                )
            )


def check_trajectory(
    entries: List[Dict[str, Any]],
    window: int = DEFAULT_WINDOW,
    threshold: float = DEFAULT_THRESHOLD,
    require_speedups: Optional[Dict[str, float]] = None,
) -> SentinelReport:
    """Compare the newest entry against the prior-window baseline.

    Throughput: per (config, workload, backend) triple, the newest
    ``instrs_per_sec`` must not fall ``threshold`` or more below the
    *median* of the triple's values in the prior window — like-backend
    comparisons only, so a fast backend's numbers never mask (or fake)
    a reference regression.  Drift: the newest
    ``cycles``/``instructions`` must equal the triple's values in the
    *most recent* prior entry (older entries may legitimately differ —
    modeling fixes in past PRs changed behaviour once, and the alarm
    fired once, then).  ``require_speedups`` (see
    :func:`parse_speedup_requirements`) additionally gates the newest
    entry's per-backend geomean ``speedup_vs_reference``; unlike the
    history checks it applies even to the first trajectory record.
    """
    report = SentinelReport(window=window, threshold=threshold)
    if entries and require_speedups:
        _check_speedups(entries[-1], require_speedups, report)
    if len(entries) < 2:
        return report
    newest = entries[-1]
    prior = entries[max(0, len(entries) - 1 - window):-1]
    report.baseline_entries = len(prior)

    history: Dict[Tuple[str, str, str], List[Dict[str, Any]]] = {}
    aggregate_history: List[float] = []
    for entry in prior:
        for pair, run in _runs_by_pair(entry).items():
            history.setdefault(pair, []).append(run)
        aggregate = entry.get("aggregate", {})
        if isinstance(aggregate, dict):
            value = aggregate.get("instrs_per_sec")
            if isinstance(value, (int, float)) and value > 0:
                aggregate_history.append(float(value))

    def check_throughput(
        config: str, workload: str, current: Any, baselines: List[Any],
        backend: str = "reference",
    ) -> None:
        values = [v for v in baselines if isinstance(v, (int, float)) and v > 0]
        if not values or not isinstance(current, (int, float)):
            return
        base = median(values)
        if base > 0 and (base - current) / base >= threshold - 1e-9:
            report.findings.append(
                Finding(
                    "throughput", config, workload, base, float(current),
                    backend=backend,
                )
            )

    def numeric_fields_ok(run: Dict[str, Any]) -> bool:
        for key in ("instrs_per_sec", "cycles", "instructions"):
            value = run.get(key)
            if value is not None and not isinstance(value, (int, float)):
                return False
        return True

    for pair, run in sorted(_runs_by_pair(newest).items()):
        config, workload, backend = pair
        label = f"{config}/{workload}"
        if backend != "reference":
            label = f"{label}@{backend}"
        if not numeric_fields_ok(run):
            report.malformed.append(label)
            logger.warning(
                "bench-check: skipping malformed trajectory record for %s "
                "(non-numeric metric field)", label,
            )
            continue
        past = [r for r in history.get(pair, []) if numeric_fields_ok(r)]
        if not past:
            report.skipped.append(label)
            continue
        report.checked += 1
        check_throughput(
            config, workload, run.get("instrs_per_sec"),
            [r.get("instrs_per_sec", 0) or 0 for r in past],
            backend=backend,
        )
        reference = past[-1]
        for field_name, kind in (
            ("cycles", "cycle_drift"),
            ("instructions", "instruction_drift"),
        ):
            current = run.get(field_name)
            expected = reference.get(field_name)
            if (
                current is not None
                and expected is not None
                and current != expected
            ):
                report.findings.append(
                    Finding(
                        kind, config, workload, expected, current,
                        backend=backend,
                    )
                )

    newest_aggregate = newest.get("aggregate", {})
    if isinstance(newest_aggregate, dict) and aggregate_history:
        report.checked += 1
        check_throughput(
            AGGREGATE, "", newest_aggregate.get("instrs_per_sec"),
            aggregate_history,
        )
    return report
