"""Bit-identity and selection tests for the simulator backends.

The staged core (``repro.sim.stages``) promises *bit-identical*
:meth:`~repro.sim.stats.SimStats.signature` results against the
reference per-cycle simulator — not "statistically close", identical.
These tests pin that contract across the feature axes that select
different code paths inside the fast core:

* workload category (branchy int vs. loopy fp vs. miss-heavy srv);
* prefetcher kind (passive ``no`` → the monolithic passive loop; active
  ``next_line``/``entangling_4k``/``entangling_split_1k`` → the active
  streak loop);
* L1I replacement policy (LRU move-to-end vs. FIFO insertion order);
* address translation (a mapper disables the streak loops entirely,
  forcing the staged per-stage path);
* warmup (mid-run stats reset must land on the same cycle);
* attached observers (tracer event streams must match event-for-event,
  and the sanitizer must stay green on both streak loops).

Selection tests cover ``resolve_backend`` precedence (config beats
``REPRO_BACKEND`` beats default), the env-var validation error, and the
rejection of the retired ``numpy`` backend name on every entry point.
"""

from __future__ import annotations

import os

import pytest

from repro.check.errors import ConfigError
from repro.check.sanitize import Sanitizer
from repro.obs.tracer import PrefetchTracer
from repro.prefetchers.registry import make_prefetcher
from repro.sim.config import BACKENDS, SimConfig
from repro.sim.simulator import Simulator, simulate
from repro.sim.stages import StagedSimulator, backend_from_env, resolve_backend
from repro.workloads.generators import WorkloadSpec, make_workload

#: Backends under test beyond the reference anchor.
FAST_BACKENDS = ("staged",)

N_INSTRUCTIONS = 12_000


def _trace(category: str, seed: int = 7):
    spec = WorkloadSpec(
        name=f"bk_{category}",
        category=category,
        seed=seed,
        n_instructions=N_INSTRUCTIONS,
    )
    return make_workload(spec)


def _signature(
    trace,
    prefetcher_name: str,
    config: SimConfig,
    warmup: int = 0,
    tracer=None,
    checker=None,
):
    result = simulate(
        trace,
        make_prefetcher(prefetcher_name),
        config=config,
        warmup_instructions=warmup,
        tracer=tracer,
        checker=checker,
    )
    return result.stats.signature()


@pytest.fixture(autouse=True)
def _no_env_backend(monkeypatch):
    """Keep the suite hermetic: an outer REPRO_BACKEND (e.g. the CI
    staged-backend job) must not override the per-test config choices."""
    monkeypatch.delenv("REPRO_BACKEND", raising=False)


@pytest.mark.parametrize("backend", FAST_BACKENDS)
@pytest.mark.parametrize("category", ("int", "fp", "srv"))
@pytest.mark.parametrize(
    "prefetcher", ("no", "next_line", "entangling_4k", "entangling_split_1k")
)
def test_backend_bit_identical(backend, category, prefetcher):
    trace = _trace(category)
    reference = _signature(trace, prefetcher, SimConfig())
    fast = _signature(trace, prefetcher, SimConfig(backend=backend))
    assert fast == reference


@pytest.mark.parametrize("backend", FAST_BACKENDS)
@pytest.mark.parametrize("prefetcher", ("no", "entangling_4k"))
def test_backend_bit_identical_fifo(backend, prefetcher):
    trace = _trace("crypto")
    config = SimConfig(l1i_replacement="fifo")
    reference = _signature(trace, prefetcher, config)
    fast = _signature(trace, prefetcher, config.with_backend(backend))
    assert fast == reference


@pytest.mark.parametrize("backend", FAST_BACKENDS)
def test_backend_bit_identical_physical_addresses(backend):
    # A non-None address mapper disables the monolithic streak loops, so
    # this pins the staged per-stage path rather than the batch fast
    # paths.
    trace = _trace("int")
    config = SimConfig().with_physical_addresses()
    reference = _signature(trace, "entangling_4k", config)
    fast = _signature(trace, "entangling_4k", config.with_backend(backend))
    assert fast == reference


@pytest.mark.parametrize("backend", FAST_BACKENDS)
@pytest.mark.parametrize("warmup", (1, N_INSTRUCTIONS // 3))
def test_backend_bit_identical_with_warmup(backend, warmup):
    trace = _trace("srv")
    reference = _signature(trace, "no", SimConfig(), warmup=warmup)
    fast = _signature(trace, "no", SimConfig(backend=backend), warmup=warmup)
    assert fast == reference


@pytest.mark.parametrize("backend", FAST_BACKENDS)
def test_backend_identical_tracer_stream(backend):
    # A tracer also disables the streak loops; beyond the signature, the
    # emitted event stream itself must match event-for-event.
    trace = _trace("fp")
    ref_tracer = PrefetchTracer()
    fast_tracer = PrefetchTracer()
    reference = _signature(trace, "entangling_4k", SimConfig(), tracer=ref_tracer)
    fast = _signature(
        trace, "entangling_4k", SimConfig(backend=backend), tracer=fast_tracer
    )
    assert fast == reference
    assert fast_tracer.events() == ref_tracer.events()


@pytest.mark.parametrize("backend", FAST_BACKENDS)
@pytest.mark.parametrize("prefetcher", ("no", "entangling_4k"))
def test_backend_sanitizer_clean(backend, prefetcher):
    # A checker keeps the streak loops engaged: ``no`` runs the passive
    # loop under check_fill, ``entangling_4k`` the active one.
    trace = _trace("int")
    checker = Sanitizer(fatal=True)
    _signature(trace, prefetcher, SimConfig(backend=backend), checker=checker)
    report = checker.report()
    assert report.ok, report.summary_line()


# -- backend selection ----------------------------------------------------


def test_resolve_backend_default_is_reference():
    assert resolve_backend(None) is Simulator
    assert resolve_backend("reference") is Simulator


def test_resolve_backend_staged():
    assert resolve_backend("staged") is StagedSimulator


def test_env_backend_numpy_rejected(monkeypatch):
    # A stale selection fails loudly with the valid names rather than
    # silently running another engine.
    monkeypatch.setenv("REPRO_BACKEND", "numpy")
    with pytest.raises(ValueError, match="one of reference, staged, got 'numpy'"):
        resolve_backend(None)


def test_env_backend_fills_in(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "staged")
    assert backend_from_env() == "staged"
    assert resolve_backend(None) is StagedSimulator
    # The env value is normalized (case, whitespace).
    monkeypatch.setenv("REPRO_BACKEND", "  Staged ")
    assert backend_from_env() == "staged"


def test_config_backend_beats_env(monkeypatch):
    # An *explicit non-default* config choice wins over the env; the
    # default "reference" lets the env fill in (that is the documented
    # contract: REPRO_BACKEND applies when the config keeps the default).
    monkeypatch.setenv("REPRO_BACKEND", "staged")
    assert resolve_backend("reference") is StagedSimulator
    assert resolve_backend("staged") is StagedSimulator
    monkeypatch.setenv("REPRO_BACKEND", "reference")
    assert resolve_backend("staged") is StagedSimulator
    assert resolve_backend(None) is Simulator


def test_env_backend_unset_or_blank(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert backend_from_env() is None
    monkeypatch.setenv("REPRO_BACKEND", "   ")
    assert backend_from_env() is None


def test_env_backend_invalid_raises(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "turbo")
    with pytest.raises(ValueError, match="REPRO_BACKEND must be one of"):
        backend_from_env()
    with pytest.raises(ValueError, match="'turbo'"):
        resolve_backend(None)


def test_config_rejects_unknown_backend():
    with pytest.raises(ValueError, match="not one of"):
        SimConfig(backend="turbo")


def test_config_rejects_numpy_backend():
    with pytest.raises(ConfigError, match="'numpy' is not one of"):
        SimConfig(backend="numpy")


def test_backends_constant_shape():
    assert BACKENDS == ("reference", "staged")


def _gen_trace(tmp_path, capsys, instructions: int) -> str:
    from repro.cli import main

    trace_path = str(tmp_path / "cli.trc")
    assert main([
        "gen", trace_path, "--category", "int", "--seed", "3",
        "--instructions", str(instructions),
    ]) == 0
    capsys.readouterr()
    return trace_path


def test_cli_run_backend_numpy_exits_2(tmp_path, capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["run", str(tmp_path / "unused.trc"), "--backend", "numpy"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'numpy'" in capsys.readouterr().err


def test_cli_run_backend_flag(tmp_path, capsys):
    # `repro run --backend` routes through REPRO_BACKEND (so guarded
    # worker processes inherit it), reports the resolved engine, and
    # prints statistics identical to the reference run.
    from repro.cli import main

    trace_path = _gen_trace(tmp_path, capsys, 20_000)
    outputs = {}
    for argv_tail in ([], ["--backend", "staged"]):
        assert main([
            "run", trace_path, "--prefetcher", "entangling_4k",
            "--warmup", "5000", *argv_tail,
        ]) == 0
        outputs[tuple(argv_tail)] = capsys.readouterr().out

    reference_out = outputs[()]
    staged_out = outputs[("--backend", "staged")]
    assert "backend:    reference" in reference_out
    assert "backend:    staged" in staged_out
    # Identical architectural statistics, different engine label and
    # wall-clock telemetry.
    strip = lambda text: [
        line for line in text.splitlines()
        if not line.startswith(("backend:", "sim speed:"))
    ]
    assert strip(staged_out) == strip(reference_out)


def test_cli_run_flags_do_not_leak_into_later_runs(tmp_path, capsys, monkeypatch):
    # `--backend`/`--check` set REPRO_BACKEND/REPRO_SANITIZE only for
    # the duration of their own command: a later plain `run` in the
    # same process runs the reference engine without the sanitizer.
    from repro.cli import main

    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    trace_path = _gen_trace(tmp_path, capsys, 5_000)
    assert main([
        "run", trace_path, "--prefetcher", "no", "--backend", "staged",
        "--check",
    ]) == 0
    first = capsys.readouterr().out
    assert "backend:    staged" in first
    assert "sanitizer:" in first
    assert "REPRO_BACKEND" not in os.environ
    assert "REPRO_SANITIZE" not in os.environ

    assert main(["run", trace_path, "--prefetcher", "no"]) == 0
    second = capsys.readouterr().out
    assert "backend:    reference" in second
    assert "sanitizer:" not in second


def test_cli_run_flags_restore_previous_env_on_error(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.setenv("REPRO_BACKEND", "reference")
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    bad = tmp_path / "bad.trc"
    bad.write_bytes(b"\x00not a trace\xff" * 7)
    assert main(["run", str(bad), "--backend", "staged", "--check"]) == 2
    capsys.readouterr()
    assert os.environ["REPRO_BACKEND"] == "reference"
    assert "REPRO_SANITIZE" not in os.environ
