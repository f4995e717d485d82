"""Extension: the split Entangled table (paper Section III-C3 future work).

Compares the unified low-budget Entangling-2K against a split design
(1K-entry pairs-only table + 2K-entry block-size table) that costs less
storage.  The paper conjectures the split is "likely beneficial for
low-storage configurations"; this bench quantifies it on our workloads.
"""

from repro.analysis.experiments import run_batch
from repro.analysis.metrics import geometric_mean
from repro.analysis.parallel import RunTask
from repro.analysis.storage import prefetcher_storage_kb

#: registry name -> row label
DESIGNS = {
    "entangling_2k": "unified-2K",
    "entangling_split_1k": "split-1K+2Ksz",
    "entangling_split_2k": "split-2K+4Ksz",
}


def _evaluate(suite):
    """One scheduler batch: per spec, its ``no`` baseline and each design."""
    tasks = [
        RunTask(spec, name) for spec in suite for name in ("no", *DESIGNS)
    ]
    results = iter(run_batch(tasks))
    ratios = {name: [] for name in DESIGNS}
    for _spec in suite:
        base = next(results)
        for name in DESIGNS:
            ratios[name].append(next(results).stats.ipc / base.stats.ipc)
    return {
        label: (prefetcher_storage_kb(name), geometric_mean(ratios[name]))
        for name, label in DESIGNS.items()
    }


def test_ext_split_table(benchmark, suite):
    rows = benchmark.pedantic(_evaluate, args=(suite,), rounds=1, iterations=1)
    print()
    print("Extension — split vs unified Entangled table (low budget)")
    for label, (storage, speedup) in rows.items():
        print(f"  {label:16s} {storage:6.2f} KB  geomean speedup {speedup:.3f}")

    unified_kb, unified_speedup = rows["unified-2K"]
    split_kb, split_speedup = rows["split-1K+2Ksz"]
    bigger_kb, bigger_speedup = rows["split-2K+4Ksz"]
    # The split design is cheaper and still delivers a solid speedup; on
    # our workloads the benefit is roughly storage-proportional (the
    # paper's conjectured low-budget advantage does not clearly
    # materialize -- see EXPERIMENTS.md).
    assert split_kb < unified_kb
    assert split_speedup > 1.0
    assert split_speedup > unified_speedup - 0.08
    # Growing the split structures recovers most of the unified speedup.
    assert bigger_speedup > unified_speedup - 0.03
