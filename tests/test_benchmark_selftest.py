"""The benchmark's self-test, run with the package tests so that an API
change which breaks the benchmark's traced wrappers fails here too."""

import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def test_benchmark_selftest_passes():
    if str(BENCHMARK) not in sys.path:
        sys.path.insert(0, str(BENCHMARK))
    import selftest
    assert selftest.run_quietly()
