"""Command-line interface.

The subcommands mirror the typical workflow of a prefetching study::

    python -m repro gen  --category srv --seed 3 --instructions 500000 out.trc
    python -m repro import server.champsimtrace.gz out.trc
    python -m repro run  out.trc --prefetcher entangling_4k --warmup 200000
    python -m repro sweep out.trc --prefetchers no,next_line,entangling_4k
    python -m repro tune --strategy genetic --seed 7 --out front
    python -m repro trace out.trc --prefetcher entangling_4k --export out
    python -m repro events events.jsonl --summary
    python -m repro top events.jsonl --metrics-port 9095
    python -m repro store ~/.cache/repro-runs stats
    python -m repro chaos /tmp/chaos --writers 4 --expect-degraded

``gen`` writes a synthetic workload to a trace file (including the
multi-tenant ``microservice`` category); ``import`` converts an external
trace — ChampSim-format binary (raw or gzipped), the line-oriented text
format, or our native binary — into the native format; ``run`` simulates
a trace with one prefetcher configuration and prints the statistics;
``sweep`` compares several configurations on the same trace (and with
``--trace PATH`` writes a merged Chrome trace of the sweep's execution);
``tune`` runs a resumable multi-objective search over the Entangling
design space and emits the Pareto front (see
:mod:`repro.analysis.tune`);
``trace`` runs with the prefetch-lifecycle tracer attached (see
:mod:`repro.obs`) and prints per-pair timeliness histograms plus the
late/wrong breakdown.  ``run``/``sweep``/``trace`` accept
any supported trace format directly (the bytes are sniffed — see
:mod:`repro.workloads.importers`), so ``import`` is only needed when the
converted trace will be reused many times.

``run``, ``sweep`` and ``tune`` simulate through the one scheduler
(:func:`~repro.analysis.parallel.run_tasks_parallel`): ``run`` is one
in-process task, and ``--retries``/``--task-timeout`` move it into a
worker process.  ``run``/``sweep``/``trace`` load the trace here first,
so a damaged file is reported once (exit code 2).

Telemetry (:mod:`repro.obs.events`): ``run``/``sweep``/``tune`` accept
``--events PATH`` (or ``REPRO_EVENTS``) to append every lifecycle,
fault, cache, and sanitizer occurrence to a JSONL run ledger, through
one :func:`~repro.analysis.experiments.telemetry_scope`; the scheduler
brackets each batch as a suite.  ``run --check`` prints the verdict of
the run's ``sanitizer`` event, so it opens a bus without a ledger.
``events`` queries/tails a ledger, and ``top`` renders a live status
table from one; ``top --metrics-port N`` also serves the ledger's
engine gauges as Prometheus text while it runs, so an evaluation
started with ``--events`` can be scraped from another process.
Without those flags the telemetry modules are never imported (the
zero-cost contract of :mod:`repro.obs`).

Shared run store (:mod:`repro.analysis.store`): ``store`` inspects and
maintains a cache directory (entry/lease stats, forced eviction,
checksum verification, stale-lease reaping); ``chaos`` runs the
multi-process stress harness against one — optionally under injected
filesystem faults (``REPRO_FSFAULT=enospc:0.05,torn-rename:0.05``) —
asserting the store invariants (no torn entry served, byte budget held,
ENOSPC degrades to read-only, SIGKILLed lease owners are stolen from).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import List, Optional

from repro.prefetchers.registry import available_prefetchers
from repro.analysis.experiments import (
    TraceFile,
    _cached_workload,
    resolve_config,
    resolve_jobs,
    resolve_sim_config,
    telemetry_scope,
)
from repro.analysis.reporting import format_table
from repro.check import TraceError, sanitize_mode_from_env
from repro.sim.config import BACKENDS, SimConfig
from repro.sim.simulator import simulate
from repro.workloads.generators import (
    ALL_CATEGORIES,
    WorkloadSpec,
    make_workload,
)
from repro.workloads.trace import write_trace


class _InputError(Exception):
    """An unreadable or damaged input trace (:func:`main` exits 2)."""


def _trace_source(args: argparse.Namespace) -> TraceFile:
    """Load ``args.trace`` here, the way its tasks will read it.

    A damaged trace raises here, before any task is dispatched, instead
    of failing every attempt; the salvage note prints once.  The load is
    memoized, so an in-process attempt reuses it.
    """
    source = TraceFile(args.trace, getattr(args, "format", "auto"),
                       getattr(args, "salvage", False))
    try:
        trace = _cached_workload(source)
    except (OSError, TraceError) as exc:
        raise _InputError(exc) from exc
    if trace.salvage is not None:
        print(f"salvage: {args.trace}: {trace.salvage.describe()}",
              file=sys.stderr)
    return source


def _cmd_gen(args: argparse.Namespace) -> int:
    tenants = None
    if args.tenants:
        if args.category != "microservice":
            print("gen: --tenants only applies to --category microservice",
                  file=sys.stderr)
            return 2
        tenants = tuple(t.strip() for t in args.tenants.split(",") if t.strip())
    spec = WorkloadSpec(
        name=args.name or f"{args.category}_{args.seed}",
        category=args.category,
        seed=args.seed,
        n_instructions=args.instructions,
        tenants=tenants,
    )
    try:
        trace = make_workload(spec)
    except ValueError as exc:
        print(f"gen: {exc}", file=sys.stderr)
        return 2
    write_trace(trace, args.output)
    print(
        f"wrote {args.output}: {len(trace)} instructions, "
        f"{trace.footprint_lines()} lines "
        f"({trace.footprint_lines() * 64 // 1024} KB footprint)"
    )
    return 0


def _cmd_import(args: argparse.Namespace) -> int:
    from repro.workloads.importers import detect_trace_format, load_external_trace

    try:
        fmt = args.format
        if fmt == "auto":
            fmt = detect_trace_format(args.source)
        trace = load_external_trace(
            args.source,
            name=args.name,
            category=args.category,
            fmt=fmt,
            layout=args.layout,
            limit=args.limit,
            salvage=args.salvage,
        )
    except (OSError, TraceError) as exc:
        raise _InputError(exc) from exc
    if trace.salvage is not None:
        print(f"salvage: {args.source}: {trace.salvage.describe()}",
              file=sys.stderr)
    if not len(trace):
        print(f"import: {args.source}: no instructions recovered",
              file=sys.stderr)
        return 2
    write_trace(trace, args.output)
    print(
        f"imported {args.source} ({fmt}) -> {args.output}: "
        f"{len(trace)} instructions, {trace.branch_count()} branches, "
        f"{trace.footprint_lines()} lines "
        f"({trace.footprint_lines() * 64 // 1024} KB footprint), "
        f"name={trace.name!r} category={trace.category!r}"
    )
    return 0


def _telemetry(args: argparse.Namespace, live: bool = False):
    """The command's :func:`~repro.analysis.experiments.telemetry_scope`."""
    return telemetry_scope(
        events_path=args.events,
        trace_path=getattr(args, "trace_out", None),
        live=live,
    )


@contextmanager
def _scoped_environ(overrides: dict):
    """Set environment variables for one command, then restore them.

    Worker processes started inside the scope inherit the overrides;
    on exit (normal or not) each variable gets its previous value back,
    or is removed again if it was unset, so a later in-process command
    does not see them.
    """
    import os

    previous = {name: os.environ.get(name) for name in overrides}
    os.environ.update(overrides)
    try:
        yield
    finally:
        for name, value in previous.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _cmd_run(args: argparse.Namespace) -> int:
    if args.trace and args.trace_file:
        print("run: give either a positional trace or --trace-file, not both",
              file=sys.stderr)
        return 2
    args.trace = args.trace or args.trace_file
    if not args.trace:
        print("run: a trace is required (positional or --trace-file)",
              file=sys.stderr)
        return 2
    source = _trace_source(args)
    resolve_sim_config(args.prefetcher, SimConfig())  # an unknown name raises here
    overrides = {}
    if args.backend:
        # One switch covers both the in-process path and guarded worker
        # processes (the environment is inherited); an explicit
        # SimConfig.backend in library code still takes precedence.
        overrides["REPRO_BACKEND"] = args.backend
    if args.check:
        # Propagate to worker processes (guarded mode) and keep the
        # in-process path on the same code route as REPRO_SANITIZE=1.
        overrides["REPRO_SANITIZE"] = "1"
    # Guarded execution runs the simulation in a worker process, so a
    # hang can be timed out and a crash retried; otherwise the scheduler
    # runs it in this process.
    guarded = args.task_timeout is not None or args.retries is not None
    with _scoped_environ(overrides):
        sanitized = sanitize_mode_from_env() is not None
        summaries: List[str] = []

        def collect(event) -> None:
            if event.type == "sanitizer":
                summaries.append(event.payload["summary"])

        # The sanitizer verdict reaches this process as an event, so a
        # sanitized run needs a bus even without a ledger.
        with _telemetry(args, live=sanitized) as bus:
            if bus is not None:
                bus.subscribe(collect)
            (result,) = _run_trace_tasks(
                args, source, [args.prefetcher], jobs=2 if guarded else 1
            )
            if bus is not None:
                bus.unsubscribe(collect)
        if result is None:
            return 1
        from repro.sim.stages import resolve_backend

        stats = result.stats
        print(f"trace:      {result.trace_name} "
              f"({stats.instructions} measured instructions)")
        print(f"prefetcher: {result.prefetcher_name}")
        print(f"backend:    {resolve_backend(None).backend_name}")
        print(f"IPC:        {stats.ipc:.4f}")
        print(f"L1I MPKI:   {stats.l1i_mpki:.2f}")
        print(f"miss ratio: {stats.l1i_miss_ratio:.4f}")
        print(f"prefetches: sent={stats.prefetches_sent} "
              f"useful={stats.useful_prefetches} "
              f"late={stats.late_prefetches} wrong={stats.wrong_prefetches}")
        print(f"accuracy:   {stats.accuracy:.3f}")
        print(f"branches:   {stats.branches} "
              f"(mispredict rate {stats.branch_misprediction_rate:.3f})")
        print(f"sim speed:  {stats.instrs_per_second:,.0f} instrs/s "
              f"({stats.wall_seconds:.2f}s wall)")
        for line in summaries:
            print(line)
        return 0


def _cli_policy(args: argparse.Namespace):
    """Retry policy from ``--retries`` / ``--task-timeout`` (env fallback)."""
    from dataclasses import replace

    from repro.analysis.parallel import RetryPolicy

    policy = RetryPolicy.from_env()
    if getattr(args, "retries", None) is not None:
        policy = replace(policy, retries=max(0, args.retries))
    if getattr(args, "task_timeout", None) is not None:
        timeout = args.task_timeout if args.task_timeout > 0 else None
        policy = replace(policy, timeout=timeout)
    return policy


def _run_trace_tasks(
    args: argparse.Namespace, source: TraceFile, names: List[str], jobs: int
):
    """Run ``names`` on the trace ``source`` through the suite scheduler.

    Returns one result per name, None where the configuration was
    quarantined; quarantines (and flight recordings, when a bus is
    installed) are reported on stderr.  Trace-file tasks are never cached.
    """
    from repro.analysis.parallel import RunTask, run_tasks_parallel

    outcome = run_tasks_parallel(
        [RunTask(source, name, None, args.warmup) for name in names],
        jobs=jobs,
        cache=None,
        policy=_cli_policy(args),
    )
    for path in outcome.report.flight_recordings.values():
        print(f"flight recording: {path}", file=sys.stderr)
    for failure in outcome.report.quarantined:
        print(f"FAILED {failure.label} after {failure.attempts} "
              f"attempt(s): {failure.error}", file=sys.stderr)
    return outcome.results


def _cmd_sweep(args: argparse.Namespace) -> int:
    names = [n.strip() for n in args.prefetchers.split(",") if n.strip()]
    jobs = resolve_jobs(args.jobs)
    source = _trace_source(args)
    with _telemetry(args):
        results = _run_trace_tasks(
            args, source, names, jobs=jobs if len(names) > 1 else 1
        )
        baseline = None
        rows = []
        total_wall = 0.0
        for name, result in zip(names, results):
            if result is None:
                continue  # quarantined; reported above
            stats = result.stats
            total_wall += stats.wall_seconds
            if baseline is None:
                baseline = stats
            rows.append([
                name,
                stats.ipc,
                stats.ipc / baseline.ipc if baseline.ipc else 0.0,
                stats.l1i_mpki,
                stats.coverage_vs(baseline),
                stats.accuracy,
            ])
        if rows:
            print(format_table(
                ["config", "IPC", "vs first", "MPKI", "coverage", "accuracy"],
                rows,
                float_format="{:.3f}",
            ))
        print(f"({len(rows)}/{len(names)} configs, {total_wall:.1f}s of "
              f"simulation, jobs={jobs})")
    if args.trace_out:
        print(f"wrote execution trace {args.trace_out} "
              f"(load at https://ui.perfetto.dev)")
    return 0 if rows else 1


def _cmd_tune(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.analysis.checkpoint import CheckpointManifest
    from repro.analysis.export import export_pareto_csv
    from repro.analysis.runcache import RunCache
    from repro.analysis.tune import make_tuner
    from repro.check.artifacts import atomic_write_text
    from repro.workloads.generators import cvp_suite

    objectives = [o.strip() for o in args.objectives.split(",") if o.strip()]
    if args.resume and not args.cache_dir:
        print("tune: --resume needs --cache-dir (the disk run cache is "
              "what resumption serves finished genomes from)",
              file=sys.stderr)
        return 2
    suite = cvp_suite(
        per_category=args.per_category, n_instructions=args.instructions
    )
    cache = RunCache(disk_dir=args.cache_dir)
    checkpoint = None
    if args.cache_dir:
        checkpoint = CheckpointManifest(
            os.path.join(args.cache_dir, "tune_checkpoint.json"),
            resume=args.resume,
        )
    kwargs = {}
    if args.strategy == "genetic":
        kwargs = dict(
            population=args.population, generations=args.generations
        )
    elif args.strategy == "random":
        kwargs = dict(samples=args.population * args.generations)
    elif args.strategy == "grid":
        kwargs = dict(max_evals=args.max_evals)
    try:
        tuner = make_tuner(
            args.strategy,
            suite,
            objectives=objectives,
            seed=args.seed,
            train_fraction=args.train_fraction,
            cache=cache,
            checkpoint=checkpoint,
            jobs=resolve_jobs(args.jobs),
            **kwargs,
        )
    except ValueError as exc:
        print(f"tune: {exc}", file=sys.stderr)
        return 2
    with _telemetry(args):
        result = tuner.search()
    print(result.render())
    if result.invalid:
        print(f"({result.invalid} structurally invalid genome(s) skipped)")
    print(result.cache_line)
    if result.checkpoint_line:
        print(result.checkpoint_line)
    if args.out:
        json_path = args.out + ".json"
        atomic_write_text(
            json_path, json.dumps(result.to_dict(), indent=2) + "\n"
        )
        csv_path = args.out + ".csv"
        export_pareto_csv(result, csv_path)
        print(f"wrote {json_path}")
        print(f"wrote {csv_path}")
    return 0 if result.front else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.analysis.export import (
        export_metrics_csv,
        export_metrics_json,
        export_metrics_prometheus,
    )
    from repro.obs import (
        PhaseProfiler,
        PrefetchTracer,
        TimelinessReport,
        registry_for_run,
    )

    source = _trace_source(args)
    trace = _cached_workload(source)
    prefetcher, sim_config = resolve_config(args.prefetcher, SimConfig())
    tracer = PrefetchTracer(capacity=args.capacity, sample=args.sample)
    profiler = PhaseProfiler() if args.profile else None
    result = simulate(
        trace, prefetcher, config=sim_config,
        warmup_instructions=args.warmup, tracer=tracer, profiler=profiler,
    )
    stats = result.stats
    report = TimelinessReport.from_tracer(tracer)

    print(f"trace:      {result.trace_name} "
          f"({stats.instructions} measured instructions)")
    print(f"prefetcher: {result.prefetcher_name}")
    print(f"events:     {tracer.emitted} recorded, "
          f"{tracer.sampled_out} sampled out, "
          f"{'ring overflowed' if tracer.overflowed else 'complete stream'}")
    print(report.format(limit=args.top))

    ok = True
    if tracer.is_exact:
        # The acceptance cross-check: an exact trace's totals must equal
        # the architectural counters of the same run.
        expected = (
            stats.useful_prefetches, stats.late_prefetches,
            stats.wrong_prefetches,
        )
        observed = (report.useful, report.late, report.wrong)
        ok = observed == expected
        status = "OK" if ok else "MISMATCH"
        print(f"cross-check vs SimStats: {status} "
              f"(traced useful/late/wrong={observed}, counters={expected})")
        if not ok:
            print("cross-check failed: traced totals diverged from "
                  "architectural counters", file=sys.stderr)

    if profiler is not None:
        print(profiler.format("Simulator phase profile"))

    if args.export:
        registry = registry_for_run(
            result,
            labels={"workload": result.trace_name, "config": args.prefetcher},
        )
        for suffix, export in (
            (".json", export_metrics_json),
            (".csv", export_metrics_csv),
            (".prom", export_metrics_prometheus),
        ):
            path = args.export + suffix
            export(registry, path)
            print(f"wrote {path}")

    return 0 if ok else 1


def _ledger_path(args: argparse.Namespace, command: str) -> Optional[str]:
    """Positional ledger PATH with the ``REPRO_EVENTS`` fallback."""
    import os

    path = args.path or os.environ.get("REPRO_EVENTS", "").strip()
    if not path:
        print(f"{command}: give a ledger PATH (or set REPRO_EVENTS)",
              file=sys.stderr)
        return None
    return path


def _cmd_events(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.obs.events import (
        LedgerRead,
        event_matches,
        follow_events,
        read_events,
        summarize_events,
    )

    path = _ledger_path(args, "events")
    if path is None:
        return 2
    types = None
    if args.type:
        types = [t.strip() for t in args.type.split(",") if t.strip()]
    since, until = args.since, args.until
    if args.last is not None:
        since = time.time() - args.last

    def matches(event) -> bool:
        return event_matches(
            event, types=types, run=args.run, workload=args.workload,
            config=args.config, since=since, until=until,
        )

    if args.follow:
        shown = 0
        try:
            for event in follow_events(path, duration=args.duration):
                if not matches(event):
                    continue
                print(event.to_json_line(), flush=True)
                shown += 1
                if args.limit is not None and shown >= args.limit:
                    break
        except KeyboardInterrupt:
            pass
        return 0

    read = read_events(path)
    selected = [event for event in read.events if matches(event)]
    if args.summary:
        filtered = LedgerRead(
            events=selected, torn=read.torn, invalid=read.invalid,
        )
        print(json.dumps(summarize_events(filtered), indent=2,
                         sort_keys=True))
        return 0
    if args.limit is not None:
        selected = selected[-args.limit:]
    for event in selected:
        print(event.to_json_line())
    if read.torn or read.invalid:
        print(f"({read.torn} torn tail(s), {read.invalid} invalid line(s) "
              f"skipped)", file=sys.stderr)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    from repro.obs.events import LedgerStatus

    path = _ledger_path(args, "top")
    if path is None:
        return 2
    # One tail and one aggregator for the whole session: each refresh and
    # each scrape folds in only the bytes appended since the last read.
    ledger = LedgerStatus(path)
    server = None
    if args.port is not None:
        from repro.obs.exporthttp import MetricsHTTPServer, ledger_metrics_source

        server = MetricsHTTPServer(
            ledger_metrics_source(ledger), host=args.host, port=args.port
        )
        server.start()
        print(f"metrics: {server.url}", file=sys.stderr)
    deadline = None if args.duration is None else time.time() + args.duration
    try:
        while True:
            with ledger.current() as status:
                line, rows = status.status_line(), status.rows()
            print(line)
            if rows:
                print(format_table(["task", "status", "attempt", "age"],
                                   rows))
            if args.once or (deadline is not None
                             and time.time() >= deadline):
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    finally:
        if server is not None:
            server.stop()
        ledger.close()


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.analysis.store import ShardedRunStore

    # Defer maintenance so `evict` can report exactly what *it* removed
    # (auto-maintain would silently evict during construction).
    store = ShardedRunStore(
        args.dir,
        max_bytes=args.max_bytes,
        max_age=args.max_age,
        reap_on_open=False,
        auto_maintain=False,
    )
    if args.action == "stats":
        for line in store.describe():
            print(line)
        return 0
    if args.action == "reap":
        leases, tmps = store.reap()
        print(f"reaped {leases} stale lease(s), {tmps} orphaned tmp file(s)")
        return 0
    if args.action == "evict":
        if args.max_bytes is None and args.max_age is None:
            print(
                "store evict: set --max-bytes and/or --max-age "
                "(or REPRO_RUN_CACHE_MAX_BYTES / _MAX_AGE)",
                file=sys.stderr,
            )
            return 2
        evicted, freed = store.maintain(force=True)
        print(f"evicted {evicted} entr(ies), {freed} bytes freed; "
              f"{store.total_bytes()} bytes remain")
        return 0
    # verify
    outcome = store.verify(purge=args.purge)
    print(
        f"{outcome['ok']} ok, {outcome['corrupt']} corrupt, "
        f"{outcome['stale']} stale"
        + (f", {outcome['purged']} purged" if args.purge else "")
    )
    for path in outcome["bad_paths"]:
        print(f"  bad: {path}")
    return 0 if not outcome["bad_paths"] or args.purge else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.check.fsfault import lease_steal_check, run_store_stress

    failed = False
    if args.steal_check:
        steal = lease_steal_check(args.dir)
        print(f"lease steal: {'ok' if steal['ok'] else 'FAILED'} "
              f"(owner sigkilled={steal['owner_sigkilled']}, "
              f"state={steal['lease_state_seen']}, "
              f"stolen={steal['stolen']})")
        failed = failed or not steal["ok"]
    report = run_store_stress(
        args.dir,
        writers=args.writers,
        readers=args.readers,
        entries=args.entries,
        seconds=args.seconds,
        payload_bytes=args.payload_bytes,
        max_bytes=args.max_bytes,
        seed=args.seed,
        expect_degraded=args.expect_degraded,
    )
    summary = {k: v for k, v in report.items() if k != "reports"}
    print(json_module.dumps(summary, indent=2))
    failed = failed or not report["ok"]
    if failed:
        print("chaos: FAILED", file=sys.stderr)
        return 1
    print("chaos: ok", file=sys.stderr)
    return 0


def _add_telemetry_args(command_parser: argparse.ArgumentParser) -> None:
    """The ``--events`` flag shared by run/sweep/tune."""
    command_parser.add_argument(
        "--events",
        default=None,
        metavar="PATH",
        help="append telemetry events to a JSONL run ledger at PATH "
             "(default: REPRO_EVENTS env or off); inspect it with "
             "`repro events` / `repro top`",
    )


def _positive(convert):
    """An argparse ``type`` accepting only values of ``convert`` above 0."""

    def parse(text: str):
        value = convert(text)
        if value <= 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Entangling instruction prefetcher reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic workload trace")
    gen.add_argument("output", help="output trace file")
    gen.add_argument("--category", choices=ALL_CATEGORIES, default="srv")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--instructions", type=int, default=500_000)
    gen.add_argument("--name", default=None)
    gen.add_argument(
        "--tenants",
        default=None,
        metavar="SVC[,SVC...]",
        help="microservice category only: comma-separated services "
             "context-switched onto the core (e.g. social,search); "
             "default: a seeded mix of 2-4",
    )
    gen.set_defaults(func=_cmd_gen)

    imp = sub.add_parser(
        "import",
        help="convert an external trace (ChampSim/text/binary, optionally "
             "gzipped) to the native format",
    )
    imp.add_argument("source", help="external trace file")
    imp.add_argument("output", help="native-format output trace file")
    imp.add_argument(
        "--format",
        choices=("auto", "binary", "text", "champsim"),
        default="auto",
        help="source format (default: sniff the bytes)",
    )
    imp.add_argument(
        "--layout",
        choices=("auto", "legacy", "v2"),
        default="auto",
        help="ChampSim record layout (default: detect from the bytes)",
    )
    imp.add_argument(
        "--limit",
        type=int,
        default=None,
        help="keep at most this many leading records (ChampSim traces "
             "often hold hundreds of millions)",
    )
    imp.add_argument("--name", default=None, help="workload name override")
    imp.add_argument(
        "--category", default=None, help="workload category override"
    )
    imp.add_argument(
        "--salvage",
        action="store_true",
        help="recover the longest valid record prefix from a damaged "
             "source instead of failing",
    )
    imp.set_defaults(func=_cmd_import)

    run = sub.add_parser("run", help="simulate a trace with one prefetcher")
    run.add_argument(
        "trace", nargs="?", default=None,
        help="trace file in any supported format (see `repro gen`/`import`)",
    )
    run.add_argument(
        "--trace-file",
        default=None,
        metavar="PATH",
        help="external trace file (equivalent to the positional; the "
             "format is sniffed from the bytes)",
    )
    run.add_argument(
        "--format",
        choices=("auto", "binary", "text", "champsim"),
        default="auto",
        help="trace format (default: sniff the bytes)",
    )
    run.add_argument(
        "--prefetcher",
        default="entangling_4k",
        help=f"one of: {', '.join(available_prefetchers())}, "
             f"l1i_64kb, l1i_96kb",
    )
    run.add_argument("--warmup", type=int, default=0)
    run.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help="simulator engine (default: REPRO_BACKEND env or reference); "
             "both backends produce bit-identical statistics",
    )
    run.add_argument(
        "--check",
        action="store_true",
        help="attach the runtime invariant sanitizer (hardware-model "
             "contracts asserted every insertion/fill; equivalent to "
             "REPRO_SANITIZE=1)",
    )
    run.add_argument(
        "--salvage",
        action="store_true",
        help="recover the longest valid record prefix from a damaged "
             "trace file instead of failing ingestion",
    )
    run.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help="run in a worker process, timing out after this many seconds "
             "(default: REPRO_TASK_TIMEOUT or unguarded in-process run)",
    )
    run.add_argument(
        "--retries",
        type=int,
        default=None,
        help="retry a crashed/hung run this many times "
             "(default: REPRO_TASK_RETRIES or 2; implies worker-process mode)",
    )
    _add_telemetry_args(run)
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="compare prefetchers on one trace")
    sweep.add_argument("trace")
    sweep.add_argument(
        "--prefetchers",
        default="no,next_line,entangling_4k,ideal",
        help="comma-separated configuration names (first is the baseline)",
    )
    sweep.add_argument("--warmup", type=int, default=0)
    sweep.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: REPRO_JOBS env or 1 = serial)",
    )
    sweep.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help="per-configuration timeout in seconds for parallel sweeps "
             "(default: REPRO_TASK_TIMEOUT or none)",
    )
    sweep.add_argument(
        "--retries",
        type=int,
        default=None,
        help="retries per failed configuration before quarantining it "
             "(default: REPRO_TASK_RETRIES or 2)",
    )
    sweep.add_argument(
        "--trace",
        dest="trace_out",
        default=None,
        metavar="PATH",
        help="write a Chrome trace-event JSON of the sweep's execution "
             "(attempts, retries, backoffs), rendered from its telemetry "
             "events, to PATH — load it at https://ui.perfetto.dev",
    )
    _add_telemetry_args(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    tune = sub.add_parser(
        "tune",
        help="multi-objective search over the Entangling design space "
             "(emits the Pareto front; resumable via --cache-dir/--resume)",
    )
    tune.add_argument(
        "--strategy",
        choices=("genetic", "random", "grid"),
        default="genetic",
        help="search strategy (default: genetic, NSGA-II-style)",
    )
    tune.add_argument(
        "--generations",
        type=int,
        default=4,
        help="genetic generations (random: multiplies --population into "
             "the sample count; default 4)",
    )
    tune.add_argument(
        "--population",
        type=int,
        default=12,
        help="genomes per genetic generation (default 12)",
    )
    tune.add_argument(
        "--max-evals",
        type=int,
        default=None,
        help="cap on grid-search points (default: the full cross product)",
    )
    tune.add_argument(
        "--objectives",
        default="ipc,storage,energy",
        help="comma-separated objectives: ipc (maximized geomean "
             "normalized IPC), storage (bits), energy (normalized nJ)",
    )
    tune.add_argument(
        "--per-category",
        type=int,
        default=1,
        help="workloads per CVP category in the evaluation suite",
    )
    tune.add_argument(
        "--instructions",
        type=int,
        default=None,
        help="instructions per workload (default: the suite's own sizes)",
    )
    tune.add_argument(
        "--train-fraction",
        type=float,
        default=0.75,
        help="fraction of the suite used for search objectives; the rest "
             "scores the front out-of-sample (default 0.75)",
    )
    tune.add_argument(
        "--seed",
        type=int,
        default=0,
        help="search seed; equal seeds reproduce the front bit-for-bit",
    )
    tune.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for simulation fan-out "
             "(default: REPRO_JOBS env or 1 = serial)",
    )
    tune.add_argument(
        "--cache-dir",
        default=None,
        help="persist simulation results and the tune checkpoint here "
             "(makes the search resumable)",
    )
    tune.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted search: checkpointed genomes are "
             "served from the disk cache, never re-simulated",
    )
    tune.add_argument(
        "--out",
        default=None,
        metavar="PREFIX",
        help="write the Pareto front to PREFIX.json and PREFIX.csv",
    )
    _add_telemetry_args(tune)
    tune.set_defaults(func=_cmd_tune)

    traced = sub.add_parser(
        "trace",
        help="simulate with the prefetch-lifecycle tracer attached",
    )
    traced.add_argument("trace", help="trace file (see `repro gen`)")
    traced.add_argument(
        "--prefetcher",
        default="entangling_4k",
        help=f"one of: {', '.join(available_prefetchers())}, "
             f"l1i_64kb, l1i_96kb",
    )
    traced.add_argument("--warmup", type=int, default=0)
    traced.add_argument(
        "--capacity",
        type=int,
        default=1 << 20,
        help="tracer ring-buffer size in events (oldest overwritten beyond)",
    )
    traced.add_argument(
        "--sample",
        type=int,
        default=1,
        help="record ~1/N of the cache lines (1 = exact, full stream)",
    )
    traced.add_argument(
        "--top",
        type=int,
        default=10,
        help="worst (src, dst) pairs to list, ranked by late+wrong",
    )
    traced.add_argument(
        "--profile",
        action="store_true",
        help="also time the simulator's four phases and print the profile",
    )
    traced.add_argument(
        "--export",
        default=None,
        metavar="PREFIX",
        help="write the run's metrics registry to PREFIX.json/.csv/.prom",
    )
    traced.set_defaults(func=_cmd_trace)

    events = sub.add_parser(
        "events",
        help="query or tail a telemetry run ledger (see --events)",
    )
    events.add_argument(
        "path", nargs="?", default=None,
        help="ledger JSONL file (default: REPRO_EVENTS env)",
    )
    events.add_argument(
        "--type", default=None, metavar="T[,T...]",
        help="keep only these event types (comma-separated, e.g. "
             "task_failed,quarantined)",
    )
    events.add_argument(
        "--run", default=None, metavar="KEY",
        help="keep only events of this run key",
    )
    events.add_argument(
        "--workload", default=None,
        help="keep only events of this workload",
    )
    events.add_argument(
        "--config", default=None,
        help="keep only events of this configuration",
    )
    events.add_argument(
        "--since", type=float, default=None, metavar="EPOCH",
        help="keep only events at/after this Unix timestamp",
    )
    events.add_argument(
        "--until", type=float, default=None, metavar="EPOCH",
        help="keep only events at/before this Unix timestamp",
    )
    events.add_argument(
        "--last", type=float, default=None, metavar="SECONDS",
        help="keep only events from the trailing window (overrides --since)",
    )
    events.add_argument(
        "--limit", type=_positive(int), default=None,
        help="print at most this many events (the newest ones)",
    )
    events.add_argument(
        "--summary", action="store_true",
        help="print JSON counts per event type (+ torn/invalid line "
             "tallies) instead of the events",
    )
    events.add_argument(
        "--follow", action="store_true",
        help="tail the ledger, printing matching events as they arrive",
    )
    events.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="stop a --follow after this long (default: until Ctrl-C)",
    )
    events.set_defaults(func=_cmd_events)

    top = sub.add_parser(
        "top",
        help="live engine status table (and, with --metrics-port, "
             "Prometheus metrics) rendered from a run ledger",
    )
    top.add_argument(
        "path", nargs="?", default=None,
        help="ledger JSONL file (default: REPRO_EVENTS env)",
    )
    once_or_serve = top.add_mutually_exclusive_group()
    once_or_serve.add_argument(
        "--once", action="store_true",
        help="render one snapshot and exit",
    )
    once_or_serve.add_argument(
        "--metrics-port", dest="port", type=int, default=None,
        metavar="PORT",
        help="while refreshing, also serve the ledger's engine gauges as "
             "Prometheus text on http://HOST:PORT/metrics (0 = any free "
             "port; the URL is printed on stderr)",
    )
    top.add_argument(
        "--metrics-host", dest="host", default="127.0.0.1", metavar="HOST",
        help="bind address for --metrics-port (default 127.0.0.1)",
    )
    top.add_argument(
        "--interval", type=_positive(float), default=2.0, metavar="SECONDS",
        help="refresh period (default 2s)",
    )
    top.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="stop after this long (default: until Ctrl-C)",
    )
    top.set_defaults(func=_cmd_top)

    store = sub.add_parser(
        "store",
        help="inspect or maintain a shared run-store directory",
    )
    store.add_argument("dir", help="run cache directory (REPRO_RUN_CACHE_DIR)")
    store.add_argument(
        "action",
        choices=("stats", "evict", "verify", "reap"),
        help="stats: entry/shard/lease counters; evict: enforce the "
             "size/age budget now; verify: checksum-scan every entry; "
             "reap: remove stale leases and orphaned tmp files",
    )
    store.add_argument(
        "--max-bytes", type=_positive(int), default=None,
        help="size budget for evict (default: REPRO_RUN_CACHE_MAX_BYTES)",
    )
    store.add_argument(
        "--max-age", type=_positive(float), default=None, metavar="SECONDS",
        help="age bound for evict (default: REPRO_RUN_CACHE_MAX_AGE)",
    )
    store.add_argument(
        "--purge", action="store_true",
        help="with verify: delete entries that fail validation",
    )
    store.set_defaults(func=_cmd_store)

    chaos = sub.add_parser(
        "chaos",
        help="multi-process store stress test under injected filesystem "
             "faults (REPRO_FSFAULT)",
    )
    chaos.add_argument("dir", help="store directory to hammer (created)")
    chaos.add_argument("--writers", type=int, default=2)
    chaos.add_argument("--readers", type=int, default=2)
    chaos.add_argument(
        "--entries", type=int, default=50,
        help="distinct run keys each writer publishes (default 50)",
    )
    chaos.add_argument(
        "--seconds", type=float, default=20.0,
        help="stress deadline (default 20)",
    )
    chaos.add_argument("--payload-bytes", type=int, default=2048)
    chaos.add_argument(
        "--max-bytes", type=int, default=None,
        help="byte budget to enforce (and assert) during the stress",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--expect-degraded", action="store_true",
        help="fail unless at least one worker degraded to read-only "
             "(use with REPRO_FSFAULT=enospc:...)",
    )
    chaos.add_argument(
        "--steal-check", action="store_true",
        help="also SIGKILL a lease owner and assert the lease is stolen",
    )
    chaos.set_defaults(func=_cmd_chaos)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
