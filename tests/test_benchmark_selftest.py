"""The benchmark's self-test, run with the package tests so that an API
change which breaks the benchmark's traced wrappers fails here too, and a
pin of one registry geometry to the benchmark's recorded reference."""

import json
import sys
from pathlib import Path

from treeplane.suite import canonical, instance_geometry

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"
if str(BENCHMARK) not in sys.path:
    sys.path.insert(0, str(BENCHMARK))


def test_benchmark_selftest_passes():
    import selftest
    assert selftest.run_quietly()


def test_geometry_matches_benchmark_reference():
    """Squares, touching pairs, types and clusters of n2d2-loose hash to the
    digest the geometry-build workload checks against."""
    import workloads
    tree, _, wd, ct = instance_geometry(canonical("n2d2-loose"))
    ref = json.loads((BENCHMARK / "reference.json").read_text())
    want = ref["geometry-build"]["n2d2-loose"]
    counts = workloads.geometry_counts(wd, ct)
    got = {k: counts[k] for k in ("squares", "max_level", "touching_pairs")}
    got["digest"] = workloads.geometry_digest(tree, wd, ct)
    assert got == want
