"""Analysis layer: metrics, the look-ahead oracle, experiment drivers, and
text reporting for every table and figure in the paper's evaluation."""

from repro.analysis.metrics import geometric_mean, normalized_ipc, percentile_curve
from repro.analysis.storage import prefetcher_storage_kb, storage_table
from repro.analysis.oracle import LookaheadOracle, OracleObserver, run_oracle
from repro.analysis.experiments import (
    EvaluationResult,
    resolve_jobs,
    run_cached,
    run_single,
    run_suite,
)
from repro.analysis.checkpoint import (
    CheckpointManifest,
    get_checkpoint,
    set_checkpoint,
)
from repro.analysis.parallel import (
    FaultInjector,
    FaultReport,
    RetryPolicy,
    map_resilient,
)
from repro.analysis.runcache import RunCache, get_run_cache, set_run_cache
from repro.analysis.reporting import format_table, format_timing_table
from repro.analysis.export import (
    export_curves_csv,
    export_evaluation_csv,
    export_pareto_csv,
    export_series_csv,
)
from repro.analysis.sweeps import (
    SweepPoint,
    sweep_entangling_parameter,
    sweep_sim_parameter,
)
from repro.analysis.pareto import (
    crowding_distances,
    dominates,
    nondominated_sort,
    pareto_front_indices,
)
from repro.analysis.tune import (
    GeneticTuner,
    GridTuner,
    RandomTuner,
    TunableParam,
    TuneResult,
    Tuner,
    make_tuner,
)

__all__ = [
    "geometric_mean",
    "normalized_ipc",
    "percentile_curve",
    "prefetcher_storage_kb",
    "storage_table",
    "LookaheadOracle",
    "OracleObserver",
    "run_oracle",
    "EvaluationResult",
    "resolve_jobs",
    "run_cached",
    "run_single",
    "run_suite",
    "CheckpointManifest",
    "get_checkpoint",
    "set_checkpoint",
    "FaultInjector",
    "FaultReport",
    "RetryPolicy",
    "map_resilient",
    "RunCache",
    "get_run_cache",
    "set_run_cache",
    "format_table",
    "format_timing_table",
    "export_curves_csv",
    "export_evaluation_csv",
    "export_pareto_csv",
    "export_series_csv",
    "SweepPoint",
    "sweep_entangling_parameter",
    "sweep_sim_parameter",
    "crowding_distances",
    "dominates",
    "nondominated_sort",
    "pareto_front_indices",
    "GeneticTuner",
    "GridTuner",
    "RandomTuner",
    "TunableParam",
    "TuneResult",
    "Tuner",
    "make_tuner",
]
