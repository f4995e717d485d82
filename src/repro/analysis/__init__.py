"""Analysis layer: metrics, the look-ahead oracle, experiment drivers, and
text reporting for every table and figure in the paper's evaluation.

Exports resolve lazily (see :mod:`repro`): ``run_suite`` loads the
engine, not the tuner, the oracle or the exporters."""

from repro import _lazy_exports

_LAZY = {
    "geometric_mean": "repro.analysis.metrics",
    "normalized_ipc": "repro.analysis.metrics",
    "percentile_curve": "repro.analysis.metrics",
    "prefetcher_storage_kb": "repro.analysis.storage",
    "storage_table": "repro.analysis.storage",
    "LookaheadOracle": "repro.analysis.oracle",
    "OracleObserver": "repro.analysis.oracle",
    "run_oracle": "repro.analysis.oracle",
    "EvaluationResult": "repro.analysis.experiments",
    "resolve_jobs": "repro.analysis.experiments",
    "run_cached": "repro.analysis.experiments",
    "run_single": "repro.analysis.experiments",
    "run_suite": "repro.analysis.experiments",
    "CheckpointManifest": "repro.analysis.checkpoint",
    "get_checkpoint": "repro.analysis.checkpoint",
    "set_checkpoint": "repro.analysis.checkpoint",
    "FaultInjector": "repro.analysis.parallel",
    "FaultReport": "repro.analysis.parallel",
    "RetryPolicy": "repro.analysis.parallel",
    "map_resilient": "repro.analysis.parallel",
    "RunCache": "repro.analysis.runcache",
    "get_run_cache": "repro.analysis.runcache",
    "set_run_cache": "repro.analysis.runcache",
    "format_table": "repro.analysis.reporting",
    "format_timing_table": "repro.analysis.reporting",
    "export_curves_csv": "repro.analysis.export",
    "export_evaluation_csv": "repro.analysis.export",
    "export_pareto_csv": "repro.analysis.export",
    "export_series_csv": "repro.analysis.export",
    "SweepPoint": "repro.analysis.sweeps",
    "sweep_entangling_parameter": "repro.analysis.sweeps",
    "sweep_sim_parameter": "repro.analysis.sweeps",
    "crowding_distances": "repro.analysis.pareto",
    "dominates": "repro.analysis.pareto",
    "nondominated_sort": "repro.analysis.pareto",
    "pareto_front_indices": "repro.analysis.pareto",
    "GeneticTuner": "repro.analysis.tune",
    "GridTuner": "repro.analysis.tune",
    "RandomTuner": "repro.analysis.tune",
    "TunableParam": "repro.analysis.tune",
    "TuneResult": "repro.analysis.tune",
    "Tuner": "repro.analysis.tune",
    "make_tuner": "repro.analysis.tune",
}

__all__ = list(_LAZY)

__getattr__, __dir__ = _lazy_exports(__name__, _LAZY)
