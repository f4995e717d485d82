"""Extension: History-buffer size sensitivity.

The cost-effective design uses a 16-entry history while the EPI variant
uses ~1000 entries.  This bench sweeps the size, verifying the paper's
implicit claim that 16 entries suffice (the source search is bounded by
timestamps, not by capacity, once the L1I miss latency is covered).
"""

from repro.analysis.sweeps import render_sweep, sweep_entangling_parameter


def test_ext_history_size(benchmark, suite):
    points = benchmark.pedantic(
        sweep_entangling_parameter,
        args=(suite, "history_size", [4, 16, 64, 256]),
        rounds=1,
        iterations=1,
    )
    print()
    print(render_sweep("Extension — History-buffer size sweep", points))

    data = {p.value: p.geomean_speedup for p in points}
    # 16 entries capture nearly all the benefit of much larger histories.
    assert data[16] >= data[256] - 0.02
    # Every size still improves on the no-prefetch baseline.
    assert all(v > 1.0 for v in data.values())
