"""The benchmark's self-test, run with the package tests so that an API
change which breaks the benchmark's traced wrappers fails here too, and pins
of one registry geometry, of the ratio-trials rows and of the field-eval sums
to the benchmark's recorded reference."""

import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import treeplane.analysis
from treeplane.interpolant import AffinePolynomial, PatchedInterpolant
from treeplane.operators import (PlanarData, norm_ratio_experiment,
                                 planar_extend, tree_extend_from_planar)
from treeplane.suite import (canonical, full_instances, instance_geometry,
                             instance_tree)
from treeplane.tree_core import LeafFunction

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"
if str(BENCHMARK) not in sys.path:
    sys.path.insert(0, str(BENCHMARK))


def test_benchmark_selftest_passes():
    import selftest
    assert selftest.run_quietly()


def test_traced_ball_average_and_read_back_defaults():
    """The traced run binds ball_average's arguments to count its items, and
    field-eval reads the rule size off tree_extend_from_planar's defaults."""
    from tracing import Patches, Recorder
    rec = Recorder()
    with Patches(rec):
        got = treeplane.analysis.ball_average(
            AffinePolynomial(0.0, 0.0, 1.5), np.zeros((3, 2)), np.ones(3),
            rings=8, angles=16)
    assert np.allclose(got, 1.5, rtol=0, atol=1e-13)
    spans = [s for s in rec.spans if s[0] == "analysis.ball_average"]
    assert [s[4] for s in spans] == [8 * 16]
    params = inspect.signature(tree_extend_from_planar).parameters
    assert all(isinstance(params[k].default, int) and params[k].default >= 4
               for k in ("rings", "angles"))


def test_workload_ops_run_and_pass_their_checks(monkeypatch):
    """Each workload's own op path once, checked by the workload itself, so
    that a keyword the workloads pass and the package no longer takes fails
    here.  The registry trees and geometries come from the suite's cache."""
    import workloads
    ref = json.loads((BENCHMARK / "reference.json").read_text())

    def cached_tree(name, seed=None):
        assert seed is None
        return instance_tree(canonical(name))

    def cached_geometry(tree):
        inst = next(i for i in full_instances() if instance_tree(i) is tree)
        return instance_geometry(inst, workloads.KAPPA)[1:]

    monkeypatch.setattr(workloads, "registry_tree", cached_tree)
    monkeypatch.setattr(workloads, "geometry", cached_geometry)
    rt = workloads.RatioTrials(ref["seed"], ref["ratio-trials"])
    rt.setup()
    for op in rt.round_ops(0):
        rep, n = op.run()
        assert n == workloads.TRIALS_PER_CALL
        assert rt.check(op, rep) == [], op.key
    gb = workloads.GeometryBuild(ref["seed"], None)
    warm = workloads.Op(gb.WARMUP, None)
    out = gb._chain(workloads.registry_tree(gb.WARMUP))
    assert out[3]["ok"]
    assert gb.check(warm, out) == []
    fe = workloads.FieldEval(ref["seed"], ref["field-eval"])
    fe.setup()
    (op,) = fe.round_ops(0)
    out, n = op.run()
    assert n == 3 * workloads.FIELD_POINTS + fe.disk_points
    assert fe.check(op, out) == []


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


def test_ratio_rows_match_benchmark_reference():
    """The ratio-trials calls at the reference seed reproduce the recorded
    rows far inside the workload's own tolerance (quad_rel on rho_plane)."""
    import workloads
    ref = json.loads((BENCHMARK / "reference.json").read_text())
    for name in workloads.RatioTrials.INSTANCES:
        tree, ps, wd, ct = instance_geometry(canonical(name), workloads.KAPPA)
        rep = norm_ratio_experiment(tree, workloads.P,
                                    workloads.TRIALS_PER_CALL, ref["seed"],
                                    kappa=workloads.KAPPA,
                                    geometry=(ps, wd, ct))
        want = ref["ratio-trials"][name]
        assert [r["trial"] for r in rep["rows"]] == [w["trial"] for w in want]
        for r, w in zip(rep["rows"], want):
            assert r["rho_plane"] == pytest.approx(w["rho_plane"], rel=1e-12)
            assert r["rho_tree"] == pytest.approx(w["rho_tree"], rel=1e-12)
            assert r["quad_error"] == pytest.approx(w["quad_error"],
                                                    rel=1e-9)


def test_field_sums_match_benchmark_reference():
    """Draw 0 of field-eval at the reference seed, on the cached n2d2-loose
    geometry: the value, gradient, Hessian and node sums agree with the
    recorded reference to the workload's own tolerance."""
    import workloads
    ref = json.loads((BENCHMARK / "reference.json").read_text())
    tree, ps, wd, ct = instance_geometry(
        canonical(workloads.FieldEval.INSTANCE), workloads.KAPPA)
    fe = workloads.FieldEval(ref["seed"], ref["field-eval"])
    fe.tree = tree
    phi, pts = fe.draw(0)
    f = PlanarData.from_leaf_function(tree, ps, phi)
    F = planar_extend(tree, ps, wd, ct, f, workloads.P)
    nf = tree_extend_from_planar(tree, ps, wd, ct, phi, workloads.P)
    got = fe.sums(F.evaluate(pts, order=0), F.evaluate(pts, order=1),
                  F.evaluate(pts, order=2), nf)
    want = ref["field-eval"]["draws"][0]
    assert got.keys() == want.keys()
    for key, (s, a) in got.items():
        ws, wa = want[key]
        assert abs(s - ws) <= workloads.FIELD_RTOL * max(a, wa, 1e-300), \
            (key, s, ws)


def test_active_rows_read_the_per_square_coefs():
    """The traced run counts active rows from F.coefs: on a cluster-indexed
    interpolant (lifted data) and on a per-square one (the identity index)
    that count is the seminorm's own."""
    import workloads
    tree, ps, wd, ct = instance_geometry(canonical("n2d1-tight"),
                                         workloads.KAPPA)
    vals = np.random.default_rng(3).standard_normal(tree.n_leaves)
    f = PlanarData.from_leaf_function(tree, ps, LeafFunction.from_array(
        tree, vals - vals.mean()))
    F = planar_extend(tree, ps, wd, ct, f, workloads.P)
    assert F.pieces.shape == (ct.n_clusters, 3)
    G = PatchedInterpolant(wd, F.coefs, F.tail)
    assert G.pieces.shape == (wd.n, 3)
    for H in (F, G):
        want = treeplane.analysis._active_rows(H).size
        assert want > 0
        assert workloads.active_rows(H) == want
