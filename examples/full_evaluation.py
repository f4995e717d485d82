#!/usr/bin/env python3
"""Regenerate every table and figure of the paper in one run.

Prints the complete text report recorded in EXPERIMENTS.md.  With the
default scale (one workload per CVP category) this takes ~10 minutes on
one core; pass ``--per-category N`` for a larger sweep and ``--jobs N``
(or ``REPRO_JOBS=N``) to fan simulations out over worker processes.

All figure drivers share one run cache, so each unique (configuration,
workload) pair is simulated exactly once even though several figures
sweep overlapping fields; a final summary reports the unique simulation
count, cache hits, and the wall-clock the cache saved.

With ``--cache-dir`` the run is also *resumable*: a checkpoint manifest
(``<cache-dir>/checkpoint.json`` unless ``--checkpoint`` overrides it)
records every finished (configuration, workload) pair, and ``--resume``
re-simulates only the pairs the interrupted run never completed — the
rest are served from the on-disk cache.  Worker faults are retried
(``--retries`` / ``--task-timeout``, or the ``REPRO_TASK_*`` env vars)
and persistent failures are quarantined and reported instead of killing
the evaluation.

With ``--trace PATH`` every suite, cache lookup, executor attempt, retry
backoff, and worker-side pipeline stage lands in one Chrome trace-event
JSON (load it at https://ui.perfetto.dev), rendered from the campaign's
telemetry events; with ``--events`` too, the same trace can be rendered
from the ledger later.  ``--progress`` renders a live status line
read from the telemetry event bus (equivalent to ``REPRO_PROGRESS=1``);
it counts the whole campaign, like ``repro top`` over its ledger.

With ``--events PATH`` every figure driver appends its telemetry to one
JSONL run ledger (equivalent to ``REPRO_EVENTS=PATH``) — inspect it with
``python -m repro events PATH --summary`` or watch it live from another
terminal with ``python -m repro top PATH``; ``python -m repro top PATH
--metrics-port N`` also serves its ``repro_engine_*`` gauges as
Prometheus text on ``http://127.0.0.1:N/metrics`` while it watches.

Usage::

    python examples/full_evaluation.py [--per-category N] [--jobs N]
        [--cache-dir DIR] [--resume] [--trace FILE] [--progress]
        [--events FILE] [--out FILE]
"""

import argparse
import os
import sys
import time

from repro.analysis.figures import (
    CURVE_CONFIGS,
    FIG6_CONFIGS,
    FIG16_CONFIGS,
    TAB4_CONFIGS,
    fig1_fig2_oracle,
    fig6_ipc_vs_storage,
    fig11_ablation,
    fig16_cloudsuite,
    fig_microservice,
    figs12_to_15_internals,
    per_workload_curves,
    render_curves,
    render_fig1,
    render_fig2,
    render_fig6,
    render_fig11,
    render_fig16,
    render_fig_microservice,
    render_figs12_to_15,
    render_sec4e,
    render_tab1_tab2,
    render_tab4,
    sec4e_physical,
    tab4_energy,
)
from repro.analysis.checkpoint import CheckpointManifest, set_checkpoint
from repro.analysis.experiments import resolve_jobs, run_suite, telemetry_scope
from repro.analysis.runcache import RunCache, set_run_cache
from repro.workloads import cloudsuite_suite, cvp_suite


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--per-category", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: REPRO_JOBS env or 1)")
    parser.add_argument("--cache-dir", type=str, default=None,
                        help="persist simulation results here (reused on rerun)")
    parser.add_argument("--checkpoint", type=str, default=None,
                        help="checkpoint manifest path (default: "
                             "<cache-dir>/checkpoint.json)")
    parser.add_argument("--resume", action="store_true",
                        help="resume from the checkpoint manifest: pairs it "
                             "records as done are served from the disk cache "
                             "and only missing pairs re-simulate")
    parser.add_argument("--retries", type=int, default=None,
                        help="retries per failed worker task "
                             "(default: REPRO_TASK_RETRIES or 2)")
    parser.add_argument("--task-timeout", type=float, default=None,
                        help="per-task timeout in seconds "
                             "(default: REPRO_TASK_TIMEOUT or none)")
    parser.add_argument("--trace", type=str, default=None, metavar="PATH",
                        help="write a Chrome trace-event JSON of the "
                             "whole evaluation to PATH (Perfetto-loadable)")
    parser.add_argument("--events", type=str, default=None, metavar="PATH",
                        help="append every telemetry event to this JSONL "
                             "run ledger (equivalent to REPRO_EVENTS)")
    parser.add_argument("--progress", action="store_true",
                        help="render a live status line from the telemetry "
                             "event bus, the counts 'repro top' shows for "
                             "the ledger (equivalent to REPRO_PROGRESS=1)")
    parser.add_argument("--out", type=str, default=None,
                        help="also write the report to this file")
    args = parser.parse_args()

    # The retry policy is read from the environment by every run_suite
    # call (including the ones inside figure drivers), so flags just
    # override the env vars for this process and its workers.
    if args.retries is not None:
        os.environ["REPRO_TASK_RETRIES"] = str(max(0, args.retries))
    if args.task_timeout is not None:
        os.environ["REPRO_TASK_TIMEOUT"] = str(args.task_timeout)
    if args.progress:
        os.environ["REPRO_PROGRESS"] = "1"

    jobs = resolve_jobs(args.jobs)
    # One shared cache for every figure driver in this process: figures
    # 6-10, Table IV, §IV-E, and Figure 16 sweep overlapping (config,
    # workload) fields, and each pair must simulate exactly once.
    cache = RunCache(disk_dir=args.cache_dir)
    set_run_cache(cache)

    checkpoint = None
    checkpoint_path = args.checkpoint or (
        os.path.join(args.cache_dir, "checkpoint.json")
        if args.cache_dir else None
    )
    if args.resume and checkpoint_path is None:
        parser.error("--resume needs --cache-dir (or --checkpoint PATH)")
    if args.resume and not args.cache_dir:
        print("warning: --resume without --cache-dir only tracks progress; "
              "finished pairs still re-simulate (no disk cache to serve "
              "them from)", file=sys.stderr)
    if checkpoint_path is not None:
        checkpoint = CheckpointManifest(checkpoint_path, resume=args.resume)
        set_checkpoint(checkpoint)

    # One telemetry scope for the whole campaign: every run_suite call
    # below — including the ones inside figure drivers — reuses its bus,
    # so all of them append to one ledger, feed one progress line, and
    # land in one execution trace.
    with telemetry_scope(
        args.events,
        args.trace,
        live=None,  # REPRO_PROGRESS, which --progress set above
    ):
        suite = cvp_suite(per_category=args.per_category)
        clouds = cloudsuite_suite(n_instructions=300_000)
        sections = []
        started_all = time.time()

        def section(title, body, started):
            elapsed = time.time() - started
            text = f"== {title} (computed in {elapsed:.0f}s) ==\n{body}"
            sections.append(text)
            print(text, flush=True)
            print(flush=True)

        t = time.time()
        oracle_results = fig1_fig2_oracle(suite)
        section("Figures 1-2", render_fig1(oracle_results) + "\n\n" +
                render_fig2(oracle_results), t)

        t = time.time()
        section("Tables I-II", render_tab1_tab2(), t)

        t = time.time()
        rows, _ = fig6_ipc_vs_storage(suite, FIG6_CONFIGS, jobs=jobs)
        section("Figure 6", render_fig6(rows), t)

        t = time.time()
        curve_eval = run_suite(suite, list(CURVE_CONFIGS), jobs=jobs)
        parts = []
        for fig, metric in (("Fig 7 — normalized IPC", "ipc"),
                            ("Fig 8 — L1I miss ratio", "miss_ratio"),
                            ("Fig 9 — coverage", "coverage"),
                            ("Fig 10 — accuracy", "accuracy")):
            parts.append(render_curves(fig, per_workload_curves(curve_eval, metric)))
        section("Figures 7-10", "\n\n".join(parts), t)

        t = time.time()
        energy_rows, _ = tab4_energy(suite, TAB4_CONFIGS, jobs=jobs)
        section("Table IV", render_tab4(energy_rows), t)

        t = time.time()
        ablation = fig11_ablation(suite, jobs=jobs)
        section("Figure 11", render_fig11(ablation), t)

        t = time.time()
        internals = figs12_to_15_internals(suite, jobs=jobs)
        section("Figures 12-15", render_figs12_to_15(internals), t)

        t = time.time()
        physical = sec4e_physical(suite, jobs=jobs)
        section("Section IV-E", render_sec4e(physical), t)

        t = time.time()
        cloud_data, _ = fig16_cloudsuite(clouds, FIG16_CONFIGS, jobs=jobs)
        section("Figure 16", render_fig16(cloud_data), t)

        t = time.time()
        msvc_data, _ = fig_microservice(jobs=jobs)
        section("Microservices (extension)", render_fig_microservice(msvc_data), t)

        total = time.time() - started_all
        lines = [
            "== Timing summary ==",
            f"total wall-clock:    {total:.0f}s (jobs={jobs})",
            f"unique simulations:  {cache.stores}",
            f"cache hits:          {cache.hits} ({cache.disk_hits} from disk)",
            f"wall-clock saved:    ~{cache.wall_seconds_saved:.0f}s of simulation",
        ]
        if cache.disk_corrupt:
            lines.append(
                f"corrupt entries:     {cache.disk_corrupt} rejected and "
                f"re-simulated"
            )
        if checkpoint is not None:
            lines.append(
                f"checkpoint:          {len(checkpoint)} pairs done "
                f"({checkpoint.resumed} resumed, {checkpoint.resumed_hits} "
                f"served from cache, {checkpoint.marked} newly completed)"
            )
        summary = "\n".join(lines)
        sections.append(summary)
        print(summary, flush=True)

    if args.events:
        print(f"run ledger written to {args.events} "
              f"(python -m repro events {args.events} --summary)",
              file=sys.stderr)
    if args.trace:
        print(f"execution trace written to {args.trace} "
              f"(load at https://ui.perfetto.dev)", file=sys.stderr)

    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n\n".join(sections) + "\n")
        print(f"report written to {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
