"""Spawn repetitions, measure them from outside, verify their outputs.

Each repetition runs in fresh interpreters (``bench.child``), one at a
time, started with ``os.posix_spawn`` in their own process group and
reaped with ``os.wait4``, whose resource usage covers the child and the
pool workers it joined.  Times come from ``time.monotonic``, which the
child shares, so "ready" is the child's own timestamp.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from bench import ROOT
from bench.tracing import layer_metrics
from bench.workloads import Workload

GOLDEN_PATH = os.path.join(ROOT, "bench", "golden.json")
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")
RUNS_DIR = os.path.join(ROOT, ".bench_runs")

#: No child may outlive this; one ``measure`` invocation must end in 180 s.
CHILD_TIMEOUT_S = 150.0
#: Stop starting repetitions after this long, whatever the minimum.
REP_BUDGET_S = 120.0
#: A traced repetition fails when more of its wall than this is
#: outside every layer's self time.
MAX_UNATTRIBUTED = 0.10


class SetupError(RuntimeError):
    """The program cannot be imported from this checkout."""


class ChildFailed(RuntimeError):
    """A child exited nonzero, timed out or wrote no result."""


def load_benchmark() -> Dict[str, Any]:
    with open(BENCHMARK_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def become_subreaper() -> None:
    """Adopt orphaned grandchildren, so a killed child's pool workers can
    be reaped here (Linux ``PR_SET_CHILD_SUBREAPER``; a no-op elsewhere)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _reap_group(pgid: int) -> None:
    """Kill whatever is left of a child's process group and wait for it."""
    _kill_group(pgid)
    while True:
        try:
            os.waitpid(-pgid, 0)
        except ChildProcessError:
            return


def child_env(backend: str, tmpdir: str) -> Dict[str, str]:
    """The driver's environment without ``REPRO_*`` knobs, plus the
    checkout's sources, the engine and a temp dir inside the checkout."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONPATH"
    }
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    env["REPRO_BACKEND"] = backend
    env["TMPDIR"] = tmpdir
    return env


@dataclass
class Exit:
    """What the driver saw of one child."""

    result: Dict[str, Any]
    spawned: float
    exited: float
    cpu_s: float
    maxrss_kb: int


def spawn(plan: Dict[str, Any], workdir: str, backend: str) -> Exit:
    """Run ``python -m bench.child`` on ``plan`` and wait for it."""
    phase = plan["phase"]
    plan = dict(plan, result=os.path.join(workdir, f"{phase}.result.json"))
    plan_path = os.path.join(workdir, f"{phase}.plan.json")
    log_path = os.path.join(workdir, f"{phase}.log")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    argv = [sys.executable, "-m", "bench.child", plan_path]
    spawned = time.monotonic()
    pid = os.posix_spawn(
        sys.executable, argv, child_env(backend, workdir),
        file_actions=actions, setpgroup=0,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (pid,))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        watchdog.cancel()
    exited = time.monotonic()
    _reap_group(pid)
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not os.path.exists(plan["result"]):
        with open(log_path, errors="replace") as fh:
            last = (fh.read().strip().splitlines() or [""])[-1]
        raise ChildFailed(f"{phase} child exited with {code}: {last}")
    with open(plan["result"]) as fh:
        result = json.load(fh)
    return Exit(
        result, spawned, exited, usage.ru_utime + usage.ru_stime, usage.ru_maxrss
    )


def probe(runs_dir: str) -> None:
    """Fail fast unless ``repro`` imports from this checkout's sources."""
    code = (
        "import sys, repro.cli; "
        f"sys.exit(0 if repro.cli.__file__.startswith({ROOT!r}) else 3)"
    )
    pid = os.posix_spawn(
        sys.executable, [sys.executable, "-c", code], child_env("staged", runs_dir)
    )
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise SetupError("cannot import repro from " + os.path.join(ROOT, "src"))


def host_calibration() -> float:
    """Seconds for a fixed pure-Python loop, best of 5: host speed, once
    per invocation (the minimum filters out momentary interference)."""
    timings = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(500_000):
            total += i * i
        timings.append(time.perf_counter() - start)
    return min(timings)


# ---------------------------------------------------------------------------
# repetitions
# ---------------------------------------------------------------------------


@dataclass
class Rep:
    """One repetition: its end-to-end numbers and checked outputs."""

    error: str = ""
    e2e: Dict[str, float] = field(default_factory=dict)
    #: process-layer numbers every repetition yields
    process: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    outputs: Dict[str, Optional[str]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.error


def run_rep(
    workload: Workload, seed: int, runs_dir: str, traced: bool = False
) -> Rep:
    """Prefill (if any) and the timed run, each in a fresh interpreter."""
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=runs_dir)
    plan = {
        "workload": workload.to_dict(),
        "seed": seed,
        "cache_dir": os.path.join(workdir, "store"),
    }
    rep = Rep()
    try:
        setup = 0.0
        if workload.prefill:
            done = spawn(dict(plan, phase="prefill"), workdir, "staged")
            setup += done.exited - done.spawned
        trace_dir = None
        if traced:
            trace_dir = os.path.join(workdir, "spans")
            os.mkdir(trace_dir)
        done = spawn(dict(plan, phase="timed", trace_dir=trace_dir), workdir, "staged")
        result = done.result
        wall = done.exited - result["ready"]
        exit_s = done.exited - result["done"]
        rep.e2e = {
            "wall_s": wall,
            "cpu_s": done.cpu_s - result["cpu_ready"],
            "sim_instr_per_s": result["simulated"] / wall,
            "peak_rss_mb": done.maxrss_kb / 1024.0,
            "setup_s": setup + result["ready"] - done.spawned,
        }
        rep.process = {
            "process.import_s": result["import_s"],
            "process.exit_s": exit_s,
            "process.obs_modules": result["obs_modules"],
        }
        rep.outputs = result["outputs"]
        if traced:
            workers = []
            for path in glob.glob(os.path.join(trace_dir, "worker-*.json")):
                with open(path) as fh:
                    workers.append(json.load(fh))
            rep.layers = layer_metrics(result["trace"], workers, wall, exit_s)
            rep.layers["store.bytes"] = result["store_bytes"]
    except ChildFailed as exc:
        rep.error = str(exc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return rep


def reference_digest(
    workload: Workload, seed: int, pair: str, runs_dir: str
) -> Optional[str]:
    """One pair simulated on the reference engine, with no store."""
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-check-", dir=runs_dir)
    plan = {
        "workload": workload.to_dict(), "seed": seed, "phase": "check",
        "pair": pair, "cache_dir": os.path.join(workdir, "store"),
    }
    try:
        return spawn(plan, workdir, "reference").result["outputs"][pair]
    except ChildFailed:
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# verification and summaries
# ---------------------------------------------------------------------------


def load_golden(path: Optional[str] = None) -> Dict[str, Any]:
    try:
        with open(path or GOLDEN_PATH) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def golden_for(
    golden: Dict[str, Any], workload: Workload, seed: int
) -> Optional[Dict[str, str]]:
    """The expected digests, if ``golden`` covers this workload, its
    sizes and this seed."""
    entry = golden.get(workload.name)
    if entry is None or Workload.from_dict(entry["workload"]) != workload:
        return None
    return entry["seeds"].get(str(seed))


@dataclass
class Verdict:
    """Checked operations of one workload's repetitions."""

    status: str = ""
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def verify(
    workload: Workload,
    seed: int,
    reps: Sequence[Rep],
    golden: Dict[str, Any],
    runs_dir: str,
) -> Verdict:
    """Count every repetition's operations against the golden digests.

    Seeds the golden file does not cover are ``unverified``: there every
    repetition must agree with the first, and one pair (chosen by the
    seed) must match the reference engine.
    """
    verdict = Verdict()
    expected = golden_for(golden, workload, seed)
    consensus = expected
    if consensus is None:
        consensus = next((rep.outputs for rep in reps if rep.ok), {})
    for index, rep in enumerate(reps):
        for op in workload.operations():
            got = rep.outputs.get(op)
            if not rep.ok:
                verdict.check(False, f"rep {index}: {op}: {rep.error}")
            elif got is None:
                verdict.check(False, f"rep {index}: {op}: missing or quarantined")
            else:
                verdict.check(got == consensus.get(op), f"rep {index}: {op}: digest differs")
    if expected is not None:
        verdict.status = "golden"
        return verdict
    pairs = sorted(op for op in workload.operations() if op != "front")
    pair = pairs[seed % len(pairs)]
    digest = reference_digest(workload, seed, pair, runs_dir)
    agrees = digest is not None and digest == consensus.get(pair)
    verdict.check(agrees, f"{pair}: reference engine disagrees")
    verdict.status = (
        f"unverified (reference engine {'agrees' if agrees else 'DISAGREES'} "
        f"on {pair})"
    )
    return verdict


def summary(values: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles (``statistics.quantiles``) and sample count."""
    values = list(values)
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "values": values}


def _medians(dicts: Sequence[Dict[str, float]]) -> Dict[str, float]:
    names = dicts[0] if dicts else {}
    return {name: statistics.median(d[name] for d in dicts) for name in names}


def workload_report(
    workload: Workload,
    seed: int,
    untraced: Sequence[Rep],
    traced: Sequence[Rep],
    golden: Dict[str, Any],
    runs_dir: str,
    calib_s: float,
) -> Dict[str, Any]:
    """Summaries, layer medians, self-checks and the error count."""
    verdict = verify(workload, seed, list(untraced) + list(traced), golden, runs_dir)
    good = [rep for rep in untraced if rep.ok]
    e2e = {
        name: summary(rep.e2e[name] for rep in good)
        for name in (good[0].e2e if good else ())
    }
    layers: Dict[str, float] = {}
    good_traced = [rep for rep in traced if rep.ok]
    if good_traced:
        layers = _medians([rep.layers for rep in good_traced])
        layers.update(_medians([rep.process for rep in good]))
        traced_wall = statistics.median(rep.e2e["wall_s"] for rep in good_traced)
        layers["trace.overhead_frac"] = (
            traced_wall / e2e["wall_s"]["median"] - 1.0 if good else 0.0
        )
        layers["host.calib_s"] = calib_s
        expected = workload.expected_offpath()
        for index, rep in enumerate(good_traced):
            for name in ("sim.offpath_calls", "sim.offpath_by_config"):
                verdict.check(
                    rep.layers[name] == expected,
                    f"traced rep {index}: {name} = {rep.layers[name]:g}, "
                    f"expected {expected}",
                )
            unattributed = rep.layers["trace.unattributed_frac"]
            verdict.check(
                unattributed <= MAX_UNATTRIBUTED,
                f"traced rep {index}: trace.unattributed_frac = "
                f"{unattributed:.3f} > {MAX_UNATTRIBUTED}",
            )
    return {
        "verified": verdict.status,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "error_rate": verdict.failed / max(1, verdict.attempted),
        "problems": verdict.problems,
        "e2e": e2e,
        "layers": layers,
    }


@contextlib.contextmanager
def invocation() -> Iterator[str]:
    """One invocation's work dir under ``.bench_runs``, after checking
    that the program imports from this checkout; removed on exit."""
    become_subreaper()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise SetupError(f"no program sources under {ROOT}/src")
    os.makedirs(RUNS_DIR, exist_ok=True)
    runs_dir = tempfile.mkdtemp(prefix="run-", dir=RUNS_DIR)
    try:
        probe(runs_dir)
        yield runs_dir
    finally:
        shutil.rmtree(runs_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# the two entry points
# ---------------------------------------------------------------------------


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    traced: bool,
    golden_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Repeat one workload for ``seconds`` (at least 3 untraced
    repetitions, or 2 untraced and 2 traced ones alternating)."""
    golden = load_golden(golden_path)
    untraced: List[Rep] = []
    traced_reps: List[Rep] = []
    with invocation() as runs_dir:
        calib_s = host_calibration()
        start = time.monotonic()
        while True:
            elapsed = time.monotonic() - start
            if traced:
                enough = len(untraced) >= 2 and len(traced_reps) >= 2
            else:
                enough = len(untraced) >= 3
            if (enough and elapsed >= seconds) or elapsed >= REP_BUDGET_S:
                break
            if traced and len(traced_reps) < len(untraced):
                traced_reps.append(run_rep(workload, seed, runs_dir, traced=True))
            else:
                untraced.append(run_rep(workload, seed, runs_dir))
        return workload_report(
            workload, seed, untraced, traced_reps, golden, runs_dir, calib_s
        )


def run_all(
    workloads: Sequence[Workload],
    seed: int,
    reps: int = 3,
    golden_path: Optional[str] = None,
) -> Dict[str, Any]:
    """``reps`` untraced repetitions per workload, round-robin so host
    drift lands on every workload, then one traced repetition each."""
    golden = load_golden(golden_path)
    untraced: Dict[str, List[Rep]] = {w.name: [] for w in workloads}
    with invocation() as runs_dir:
        calib_s = host_calibration()
        for _ in range(reps):
            for workload in workloads:
                untraced[workload.name].append(run_rep(workload, seed, runs_dir))
        report = {"seed": seed, "host.calib_s": calib_s, "workloads": {}}
        for workload in workloads:
            traced = [run_rep(workload, seed, runs_dir, traced=True)]
            report["workloads"][workload.name] = workload_report(
                workload, seed, untraced[workload.name], traced, golden,
                runs_dir, calib_s,
            )
        return report


def golden_digests(
    workloads: Sequence[Workload], seeds: Sequence[int]
) -> Dict[str, Any]:
    """Every operation's digest from a timed run on the reference engine."""
    golden: Dict[str, Any] = {}
    with invocation() as runs_dir:
        for workload in workloads:
            entry = {"workload": workload.to_dict(), "seeds": {}}
            for seed in seeds:
                workdir = tempfile.mkdtemp(dir=runs_dir)
                plan = {
                    "workload": workload.to_dict(), "seed": seed,
                    "phase": "timed", "cache_dir": os.path.join(workdir, "store"),
                }
                outputs = spawn(plan, workdir, "reference").result["outputs"]
                missing = [op for op in workload.operations() if outputs.get(op) is None]
                if missing:
                    raise ChildFailed(f"{workload.name} seed {seed}: no {missing}")
                entry["seeds"][str(seed)] = {
                    op: outputs[op] for op in workload.operations()
                }
            golden[workload.name] = entry
    return golden


def split_metrics(
    report: Dict[str, Any], benchmark: Dict[str, Any], traced: bool
) -> Dict[str, Dict[str, Any]]:
    """The ``BENCHMARK.json`` metrics of one workload report, with units."""
    section = benchmark["per_layer" if traced else "end_to_end"]
    out = {}
    for metric in section:
        name = metric["name"]
        if traced:
            value = report["layers"].get(name)
        else:
            value = report["e2e"].get(name, {}).get("median")
        if value is not None:
            out[name] = {"value": value, "unit": metric["unit"]}
    return out


def format_report(report: Dict[str, Any], benchmark: Dict[str, Any]) -> Tuple[str, bool]:
    """Human-readable lines for a ``run_all`` report, and overall success."""
    lines = [f"seed {report['seed']}, host.calib_s {report['host.calib_s']:.4f} s"]
    ok = True
    for name, entry in report["workloads"].items():
        ok = ok and entry["failed"] == 0
        lines.append("")
        lines.append(
            f"== {name}: {entry['verified']}, error_rate "
            f"{entry['error_rate']:.4f} ({entry['failed']}/{entry['attempted']})"
        )
        for problem in entry["problems"][:10]:
            lines.append(f"   ! {problem}")
        for metric in benchmark["end_to_end"]:
            s = entry["e2e"].get(metric["name"])
            if s is None:
                continue
            lines.append(
                f"   {metric['name']:<18} {s['median']:>14.6g} {metric['unit']:<8} "
                f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']}]"
            )
        for metric in benchmark["per_layer"]:
            value = entry["layers"].get(metric["name"])
            if value is not None:
                lines.append(
                    f"   {metric['name']:<30} {value:>14.6g} {metric['unit']}"
                )
    return "\n".join(lines), ok
