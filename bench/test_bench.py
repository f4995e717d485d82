"""Harness tests: ``pytest bench/``.

Workloads run at reduced sizes, built with ``dataclasses.replace``; each
test still spawns real child interpreters on the staged engine.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

from bench import ROOT, driver
from bench import __main__ as cli
from bench.compare import compare
from bench.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = driver.load_benchmark()


def small(workload):
    """A few thousand instructions over two categories."""
    return replace(
        workload,
        instructions=4000,
        per_category=1,
        categories=workload.categories[:2],
        tune=(4, 2) if workload.tune else None,
    )


SMALL = {name: small(w) for name, w in WORKLOADS.items()}


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    """One untraced and one traced repetition of every small workload;
    no golden digests, so each seed is checked on the reference engine."""
    missing = str(tmp_path_factory.mktemp("golden") / "none.json")
    return driver.run_all(list(SMALL.values()), seed=1, reps=1, golden_path=missing)


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_every_metric_is_emitted(report):
    for name, entry in report["workloads"].items():
        assert entry["failed"] == 0, (name, entry["problems"])
        assert entry["verified"].startswith("unverified (reference engine agrees")
        for traced, section in ((False, "end_to_end"), (True, "per_layer")):
            emitted = driver.split_metrics(entry, BENCHMARK, traced)
            assert set(emitted) == {m["name"] for m in BENCHMARK[section]}, name
            for metric in emitted.values():
                assert isinstance(metric["value"], (int, float))


def test_layers_attribute_the_traced_wall(report):
    layers = {name: e["layers"] for name, e in report["workloads"].items()}
    assert layers["sim_sweep"]["sim.offpath_calls"] == 2
    assert layers["gen_heavy"]["prefetchers.hook_calls"] == 0
    assert layers["gen_heavy"]["parallel.tasks"] == 0
    assert layers["warm_incremental"]["store.hit_ratio"] > 0
    assert layers["warm_incremental"]["parallel.attempts"] > 0
    assert layers["tune_search"]["checkpoint.calls"] > 0
    for entry in layers.values():
        assert entry["trace.unattributed_frac"] <= driver.MAX_UNATTRIBUTED
        assert entry["sim.calls"] > 0 and entry["workloads.gen_calls"] > 0


def _report(wall):
    return {
        "host.calib_s": 0.1,
        "workloads": {"gen_heavy": {"e2e": {"wall_s": driver.summary(wall)}}},
    }


def test_compare_calls_a_slowdown_beyond_the_bound_worse(tmp_path):
    bound = next(m["bound"] for m in BENCHMARK["end_to_end"] if m["name"] == "wall_s")
    wall = [10.0, 10.1, 9.9, 10.05, 9.95]
    slower = [value * (1 + 2 * bound) for value in wall]
    _, verdicts = compare(_report(wall), _report([v * (1 + bound / 2) for v in wall]), BENCHMARK)
    assert verdicts == [("gen_heavy", "wall_s", "same")]
    _, verdicts = compare(_report(wall), _report(slower), BENCHMARK)
    assert verdicts == [("gen_heavy", "wall_s", "worse")]
    _, verdicts = compare(_report(wall), _report(wall), BENCHMARK)
    assert verdicts == [("gen_heavy", "wall_s", "same")]
    _, verdicts = compare(_report(slower), _report(wall), BENCHMARK)
    assert verdicts == [("gen_heavy", "wall_s", "better")]
    noisy = [5.0, 10.0, 15.0]
    _, verdicts = compare(_report(noisy), _report(wall), BENCHMARK)
    assert verdicts == [("gen_heavy", "wall_s", "unresolved")]

    paths = []
    for name, values in (("a", wall), ("b", slower)):
        paths.append(str(tmp_path / f"{name}.json"))
        with open(paths[-1], "w") as fh:
            json.dump(_report(values), fh)
    assert cli.main(["compare", paths[0], paths[0]]) == 0
    assert cli.main(["compare", paths[0], paths[1]]) == 1


def test_corrupted_golden_fails_the_run(tmp_path, monkeypatch, capsys):
    workload = SMALL["gen_heavy"]
    golden = driver.golden_digests([workload], [1])
    entry = golden["gen_heavy"]["seeds"]["1"]
    first = sorted(entry)[0]
    entry[first] = "0" * 64
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    monkeypatch.setattr(driver, "GOLDEN_PATH", str(path))
    monkeypatch.setattr(cli, "WORKLOADS", {"gen_heavy": workload})

    assert cli.main(["run", "--seed", "1", "--reps", "1"]) == 1
    assert "error_rate" in capsys.readouterr().out
    report = driver.run_all([workload], seed=1, reps=1)
    entry = report["workloads"]["gen_heavy"]
    assert entry["verified"] == "golden"
    assert entry["error_rate"] > 0
    assert all(first in problem for problem in entry["problems"])

    assert cli.main(
        ["measure", "--workload", "gen_heavy", "--seed", "1", "--seconds", "0"]
    ) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is False and last["failed"] >= 1


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "-m", "bench", "measure", "--workload", "gen_heavy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
