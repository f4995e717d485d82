"""End-to-end and per-layer benchmark of the evaluation stack.

Run ``python -m bench run --seed 1`` for the full report, or
``python -m bench measure --workload gen_heavy --seed 1 --seconds 20
--trace 0`` for one workload (the ``BENCHMARK.json`` command).  See
``bench/README.md`` for the metric dictionary.
"""

import os

#: Root of the checkout the benchmark runs in (holds ``src/repro``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
