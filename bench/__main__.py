"""Command line: ``python -m bench {measure,run,compare,golden}``.

* ``measure --workload W --seed S --seconds T --trace 0|1`` repeats one
  workload for about ``T`` seconds and prints, as its last line, one JSON
  object: ``correct``, ``attempted``, ``failed`` and the end-to-end
  (``--trace 0``) or per-layer (``--trace 1``) metrics of
  ``BENCHMARK.json``.
* ``run --seed S [--reps N] [--out FILE]`` runs every workload ``N``
  times round-robin plus one traced repetition each, prints every metric
  and writes the report for ``compare``.
* ``compare A.json B.json`` gives each (workload, end-to-end metric) a
  verdict against the bound in ``BENCHMARK.json``.
* ``golden`` recomputes ``bench/golden.json`` on the reference engine.

Exit codes: 0 success, 1 a check or verdict failed, 2 the program could
not be set up from this checkout.
"""

from __future__ import annotations

import argparse
import json
import sys

from bench import driver
from bench.compare import compare
from bench.workloads import WORKLOADS

#: Seeds the golden digests cover; seed 2 is held out from development.
GOLDEN_SEEDS = (1, 2)


def _measure(args: argparse.Namespace) -> int:
    benchmark = driver.load_benchmark()
    report = driver.measure(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    metrics = driver.split_metrics(report, benchmark, bool(args.trace))
    print(f"{args.workload}: {report['verified']}")
    for problem in report["problems"]:
        print(f"  ! {problem}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    correct = report["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _run(args: argparse.Namespace) -> int:
    benchmark = driver.load_benchmark()
    report = driver.run_all(list(WORKLOADS.values()), args.seed, reps=args.reps)
    text, ok = driver.format_report(report, benchmark)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
        print(f"wrote {args.out}")
    return 0 if ok else 1


def _compare(args: argparse.Namespace) -> int:
    reports = []
    for path in (args.a, args.b):
        with open(path) as fh:
            reports.append(json.load(fh))
    lines, verdicts = compare(reports[0], reports[1], driver.load_benchmark())
    print("\n".join(lines))
    return 1 if any(v == "worse" for _, _, v in verdicts) else 0


def _golden(args: argparse.Namespace) -> int:
    golden = driver.golden_digests(list(WORKLOADS.values()), GOLDEN_SEEDS)
    with open(driver.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {driver.GOLDEN_PATH}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    measure = sub.add_parser("measure", help="repeat one workload")
    measure.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    measure.add_argument("--seed", type=int, required=True)
    measure.add_argument("--seconds", type=float, required=True)
    measure.add_argument("--trace", type=int, choices=(0, 1), default=0)
    measure.set_defaults(func=_measure)
    run = sub.add_parser("run", help="every workload, then one traced rep each")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--reps", type=int, default=3)
    run.add_argument("--out", help="write the report here as JSON")
    run.set_defaults(func=_run)
    comp = sub.add_parser("compare", help="verdicts between two run reports")
    comp.add_argument("a")
    comp.add_argument("b")
    comp.set_defaults(func=_compare)
    gold = sub.add_parser("golden", help="recompute bench/golden.json")
    gold.set_defaults(func=_golden)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except driver.SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
