"""Lazy package exports and the lazy prefetcher registry.

Every package maps its exports to their defining modules in a ``_LAZY``
table and imports a module on a name's first use, and the registry
imports a prefetcher's module only when it builds one.  These tests pin
that the tables name the right modules, that the public API (attribute
access, star-imports, ``dir()``) is unchanged, that a plain run's import
line loads none of the modules it never executes, and that keying a
batch builds no prefetcher.
"""

import importlib
import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro.analysis.experiments as experiments
import repro.prefetchers.registry as registry
from repro.analysis.experiments import PSEUDO_CONFIGS, resolve_config, resolve_warmup
from repro.analysis.parallel import RunTask, task_key
from repro.analysis.runcache import run_key
from repro.sim.config import SimConfig
from repro.workloads.generators import WorkloadSpec

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.check",
    "repro.core",
    "repro.energy",
    "repro.obs",
    "repro.prefetchers",
    "repro.sim",
    "repro.workloads",
)

#: What a staged ``run_suite`` of generated traces never executes.
NEVER_EXECUTED = (
    "repro.workloads.importers",
    "repro.workloads.champsim",
    "repro.workloads.convert",
    "repro.workloads.microservice",
    "repro.workloads.cloudsuite",
    "repro.analysis.tune",
    "repro.analysis.pareto",
    "repro.analysis.export",
    "repro.analysis.sweeps",
    "repro.analysis.oracle",
    "repro.analysis.metrics",
    "repro.analysis.storage",
    "repro.energy",
    "repro.obs",
    "repro.prefetchers.next_line",
    "repro.prefetchers.sn4l",
    "repro.prefetchers.mana",
    "repro.prefetchers.pif",
    "repro.prefetchers.rdip",
    "repro.prefetchers.djolt",
    "repro.prefetchers.fnl_mma",
    "repro.prefetchers.ideal",
    "repro.core.split_table",
    "repro.core.variants",
    "repro.core.confidence",
)


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
def test_every_export_is_its_defining_modules_object(package_name):
    package = importlib.import_module(package_name)
    for name, module_name in package._LAZY.items():
        assert name in package.__all__, name
        value = getattr(importlib.import_module(module_name), name)
        assert getattr(package, name) is value, name
        # A table entry names the defining module, not a re-export.
        if hasattr(value, "__module__"):
            assert value.__module__ == module_name, name


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
def test_star_import_and_dir_cover_all(package_name):
    package = importlib.import_module(package_name)
    namespace = {}
    exec(f"from {package_name} import *", namespace)
    assert set(package.__all__) <= set(namespace)
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
def test_unknown_attribute_raises_attribute_error(package_name):
    package = importlib.import_module(package_name)
    with pytest.raises(AttributeError, match="no_such_export"):
        package.no_such_export
    assert not hasattr(package, "no_such_export")


def test_run_import_line_loads_only_what_a_run_executes():
    """The benchmark child's import line, in a fresh interpreter, then a
    batch keyed across every registry name: none of the never-executed
    modules load, and the public names still resolve afterwards."""
    script = textwrap.dedent(
        """
        import json, sys
        import repro.analysis.experiments
        import repro.analysis.parallel
        import repro.analysis.runcache
        import repro.cli
        from repro.analysis.parallel import RunTask, task_key
        from repro.prefetchers.registry import available_prefetchers
        from repro.workloads.generators import WorkloadSpec

        spec = WorkloadSpec(name="lazy", category="srv", seed=1, n_instructions=1000)
        for name in available_prefetchers():
            task_key(RunTask(spec, name))
        loaded = sorted(m for m in sys.modules if m.startswith("repro"))
        import repro
        assert callable(repro.simulate) and callable(repro.analysis.run_suite)
        print(json.dumps(loaded))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    leaked = sorted(
        module for module in loaded
        if any(module == name or module.startswith(name + ".")
               for name in NEVER_EXECUTED)
    )
    assert leaked == []
    assert "repro.sim.stages" not in loaded  # loads on simulate()'s first call


def test_task_key_builds_no_prefetcher(monkeypatch):
    spec = WorkloadSpec(name="key", category="int", seed=3, n_instructions=1000)
    names = registry.available_prefetchers() + list(PSEUDO_CONFIGS)
    base = SimConfig(l1i_mshrs=4)
    expected = {
        name: run_key(spec, name, resolve_config(name, base)[1], resolve_warmup(spec, None))
        for name in names
    }

    def refuse(name):
        raise AssertionError(f"keying built prefetcher {name!r}")

    monkeypatch.setattr(registry, "make_prefetcher", refuse)
    monkeypatch.setattr(experiments, "make_prefetcher", refuse)
    for name in names:
        assert task_key(RunTask(spec, name, base)) == expected[name], name
    with pytest.raises(KeyError, match="unknown prefetcher"):
        task_key(RunTask(spec, "hal9000"))
