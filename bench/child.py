"""One phase of one repetition, in a fresh interpreter.

``python -m bench.child PLAN.json`` imports ``repro``, builds the inputs,
notes the moment it is ready, runs the phase, and writes a JSON result
named by the plan: timestamps (``time.monotonic``, comparable with the
driver's), the digest of every checked output, and, when traced, the
per-layer totals of this process.  Phases:

* ``prefill`` — store the workload's ``prefill`` configurations;
* ``timed`` — the measured run (``run_suite`` or ``repro tune``);
* ``check`` — simulate one named pair with no store, so another engine
  can be compared against the timed run's output.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from typing import Any, Dict, List, Optional

from bench.workloads import Workload


def stats_digest(stats: Any) -> str:
    """sha256 of a canonical ``SimStats.signature()``."""
    text = json.dumps(stats.signature(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def front_digest(front: Dict[str, Any]) -> str:
    """sha256 of a tune front's genome names and objective values."""
    points = [
        [p["name"], p["speedup"], p["energy"], p["storage_bits"], p["test_speedup"]]
        for p in front["front"]
    ]
    return hashlib.sha256(json.dumps(points).encode("utf-8")).hexdigest()


def store_files(root: str) -> List[str]:
    """Paths of the entries in a sharded run store."""
    if not os.path.isdir(root):
        return []
    return [
        entry.path
        for shard in os.scandir(root)
        if shard.is_dir() and len(shard.name) == 2
        for entry in os.scandir(shard.path)
        if entry.name.endswith(".json")
    ]


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def suite(workload: Workload, seed: int) -> List[Any]:
    """The workload's ``WorkloadSpec``s (``repro tune`` uses its own)."""
    from repro.workloads.generators import WorkloadSpec, cvp_suite

    if workload.tune is not None:
        return cvp_suite(
            per_category=workload.per_category,
            n_instructions=workload.instructions,
        )
    return [
        WorkloadSpec(
            name=f"{category}_{i:02d}",
            category=category,
            seed=workload.spec_seed(seed, category, i),
            n_instructions=workload.instructions,
        )
        for category in workload.categories
        for i in range(workload.per_category)
    ]


def _tune_outputs(specs: List[Any], cache_dir: str, front_path: str) -> Dict[str, Optional[str]]:
    """The front's digest and the stored ``no`` baseline of each workload."""
    from repro.analysis.experiments import resolve_warmup
    from repro.analysis.runcache import RunCache, run_key
    from repro.sim.config import SimConfig

    outputs: Dict[str, Optional[str]] = {"front": None}
    if os.path.exists(front_path):
        with open(front_path) as fh:
            outputs["front"] = front_digest(json.load(fh))
    cache = RunCache(disk_dir=cache_dir)
    for spec in specs:
        key = run_key(spec, "no", SimConfig(), resolve_warmup(spec, None))
        hit = cache.get(key)
        outputs[f"no/{spec.name}"] = stats_digest(hit.stats) if hit else None
    return outputs


def main(plan_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    workload = Workload.from_dict(plan["workload"])
    phase = plan["phase"]
    cache_dir = plan["cache_dir"]
    tune = workload.tune is not None and phase == "timed"

    started = time.monotonic()
    import repro.analysis.experiments as experiments
    import repro.analysis.parallel  # noqa: F401 — imported before ready, as in the CLI
    from repro.analysis.runcache import RunCache
    from repro.cli import main as cli_main

    import_s = time.monotonic() - started
    specs = suite(workload, plan["seed"])
    cache = None if tune else RunCache(disk_dir=cache_dir)
    entries_before = len(store_files(cache_dir))
    recorder = None
    if plan.get("trace_dir"):
        from bench.tracing import install

        recorder = install(plan["trace_dir"])

    ready = time.monotonic()
    cpu_ready = cpu_seconds()
    status = 0
    outputs: Dict[str, Optional[str]] = {}
    if phase == "check":
        config, name = plan["pair"].split("/")
        spec = next(s for s in specs if s.name == name)
        result = experiments.run_single(spec, config)
        outputs[plan["pair"]] = stats_digest(result.stats)
    elif tune:
        front_prefix = os.path.join(os.path.dirname(plan["result"]), "front")
        status = cli_main(workload.tune_argv(plan["seed"], cache_dir, front_prefix))
    else:
        configs = workload.prefill if phase == "prefill" else workload.configs
        evaluation = experiments.run_suite(
            specs, configs, jobs=workload.jobs, cache=cache
        )
        for config, per_workload in evaluation.runs.items():
            for name, result in per_workload.items():
                outputs[f"{config}/{name}"] = stats_digest(result.stats)
    done = time.monotonic()

    trace = recorder.snapshot() if recorder is not None else None
    if tune:
        outputs = _tune_outputs(specs, cache_dir, front_prefix + ".json")
    files = store_files(cache_dir)
    result = {
        "ready": ready,
        "done": done,
        "cpu_ready": cpu_ready,
        "import_s": import_s,
        "status": status,
        "outputs": outputs,
        "simulated": (len(files) - entries_before) * workload.instructions,
        "store_bytes": sum(os.path.getsize(path) for path in files),
        "obs_modules": sum(1 for m in sys.modules if m.startswith("repro.obs")),
        "trace": trace,
    }
    with open(plan["result"] + ".tmp", "w") as fh:
        json.dump(result, fh)
    os.replace(plan["result"] + ".tmp", plan["result"])
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
