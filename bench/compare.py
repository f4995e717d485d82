"""Compare two ``python -m bench run --out`` reports against the bounds."""

from __future__ import annotations

from typing import Any, Dict, List, Tuple


def verdict(a: Dict[str, Any], b: Dict[str, Any], bound: float, better: str) -> str:
    """``same``, ``better`` or ``worse`` by more than ``bound`` (a share
    of A's median), or ``unresolved`` when either side's quartiles are
    further apart than the bound."""
    base = a["median"]
    spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"]) / base
    if spread > bound:
        return "unresolved"
    change = (b["median"] - base) / base
    worse = change if better == "lower" else -change
    if worse > bound:
        return "worse"
    if worse < -bound:
        return "better"
    return "same"


def compare(
    a: Dict[str, Any], b: Dict[str, Any], benchmark: Dict[str, Any]
) -> Tuple[List[str], List[Tuple[str, str, str]]]:
    """Report lines and (workload, metric, verdict) for every pair both
    reports measured.  ``host.calib_s`` of both sides is shown so a host
    whose speed drifted between them is visible."""
    lines = [
        f"host.calib_s  A {a['host.calib_s']:.4f} s   B {b['host.calib_s']:.4f} s"
    ]
    verdicts = []
    for workload, entry in a["workloads"].items():
        other = b["workloads"].get(workload)
        if other is None:
            continue
        lines.append(f"== {workload}")
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            if name not in entry["e2e"] or name not in other["e2e"]:
                continue
            sa, sb = entry["e2e"][name], other["e2e"][name]
            result = verdict(sa, sb, metric["bound"], metric["better"])
            verdicts.append((workload, name, result))
            lines.append(
                f"   {name:<16} A {sa['median']:.6g} [{sa['q1']:.6g}, {sa['q3']:.6g}]"
                f"  B {sb['median']:.6g} [{sb['q1']:.6g}, {sb['q3']:.6g}]"
                f"  {metric['unit']}  bound {metric['bound']:.0%}: {result}"
            )
    return lines, verdicts
