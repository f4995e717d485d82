"""Extension: the block-size recording policy ablation.

The paper keeps the *maximum* observed basic-block size ("this decision
increases the coverage of the prefetcher at the cost of having extra
false positives", Section III-A1).  This bench quantifies the trade-off
against the tighter *latest*-size policy.
"""

from repro.analysis.sweeps import sweep_entangling_parameter


def _evaluate(suite):
    """One scheduler batch: per spec, its ``no`` baseline and one
    ``EntanglingConfig(bb_size_policy=...)`` run per policy."""
    points = sweep_entangling_parameter(suite, "bb_size_policy", ["max", "latest"])
    return {
        point.value: {
            "speedup": point.geomean_speedup,
            "coverage": point.mean_coverage,
            "accuracy": point.mean_accuracy,
        }
        for point in points
    }


def test_ext_bbsize_policy(benchmark, suite):
    data = benchmark.pedantic(_evaluate, args=(suite,), rounds=1, iterations=1)
    print()
    print("Extension — block-size policy (paper: max; alternative: latest)")
    for policy, metrics in data.items():
        print(f"  {policy:7s} speedup={metrics['speedup']:.3f} "
              f"coverage={metrics['coverage']:.3f} "
              f"accuracy={metrics['accuracy']:.3f}")

    # The paper's trade-off: max gains coverage, latest gains accuracy.
    assert data["max"]["coverage"] >= data["latest"]["coverage"] - 0.02
    assert data["latest"]["accuracy"] >= data["max"]["accuracy"] - 0.02
    assert data["max"]["speedup"] > 1.0 and data["latest"]["speedup"] > 1.0
