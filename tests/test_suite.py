"""Registry shape and the check-runner report contract."""

import copy
import io
import json

import numpy as np
import pytest

from treeplane import analysis, suite
from treeplane.analysis import planar_seminorm
from treeplane.interpolant import pair_linf_sum
from treeplane.operators import (PlanarData, build_geometry,
                                 norm_ratio_experiment, planar_extend,
                                 write_experiment_csv)
from treeplane.suite import (CANONICAL, canonical, full_instances,
                             instance_geometry, instance_tree,
                             patching_survey, scale_sum_survey,
                             verify_instance, verify_tree)
from treeplane.tree_core import LeafFunction


def test_registry_shape():
    assert len(CANONICAL) == 18
    names = [i.name for i in CANONICAL]
    assert len(set(names)) == 18
    assert len(full_instances()) == 9
    for inst in CANONICAL:
        assert inst.epsilon <= 0.05 / inst.N + 1e-15
        if inst.full:
            assert inst.depth <= 2


def test_canonical_lookup():
    inst = canonical("n2d1-mid")
    assert (inst.N, inst.depth, inst.epsilon) == (2, 1, 0.01)
    with pytest.raises(KeyError, match="n9d9"):
        canonical("n9d9-x")


def test_geometry_is_cached():
    inst = canonical("n2d1-loose")
    a = instance_geometry(inst)
    b = instance_geometry(inst)
    assert a[0] is b[0] and a[2] is b[2]
    assert instance_tree(inst).n_leaves == 2


def test_full_tier_report():
    rep = verify_instance(canonical("n2d1-mid"), n_patch_fields=1,
                          n_ball_fields=1)
    assert rep["ok"]
    for key in ("partition", "stopping_rule", "frame", "base_points", "blend",
                "ball_containment", "boundary_pairs", "restriction",
                "patching", "ball_estimate", "assignment_cross_check"):
        assert rep["checks"][key]["ok"], key
    assert rep["constants"]["max_neighbors"] <= 12
    assert rep["constants"]["K_embedding"] >= 1.0
    assert set(rep["constants"]["max_R"]) == {"1.25", "1.5", "1.75"}
    json.dumps(rep)


def test_tree_tier_skips_planar_checks():
    rep = verify_instance(canonical("n2d3-loose"), n_ball_fields=1,
                          n_patch_fields=0)
    assert rep["ok"]
    assert "partition" not in rep["checks"]
    assert "restriction" not in rep["checks"]
    assert rep["checks"]["cluster_balls"]["ok"]
    assert rep["checks"]["ball_estimate"]["ok"]
    json.dumps(rep)


def test_refused_clusters_reported_not_raised():
    # at kappa=20 this instance's same-depth balls collide
    tree = instance_tree(canonical("n3d1-loose"))
    rep = verify_tree(tree, kappa=20.0, n_patch_fields=0, n_ball_fields=0)
    assert not rep["ok"]
    assert rep["checks"]["cluster_balls"]["ok"] is False
    assert rep["checks"]["cluster_balls"]["violations"]
    assert "partition" in rep["checks"]  # decomposition itself still runs
    assert "boundary_pairs" not in rep["checks"]


def test_reports_echo_the_geometry_kappa():
    # a geometry built at kappa=12 and passed in beside the default kappa:
    # the reports carry the kappa and K1 its clusters were built at
    tree = instance_tree(canonical("n2d1-tight"))
    geo = build_geometry(tree, kappa=12.0)
    K1 = geo[2].K1
    rep = verify_tree(tree, geometry=geo, n_patch_fields=0, n_ball_fields=0)
    assert rep["ok"]
    assert (rep["params"]["kappa"], rep["params"]["K1"]) == (12.0, K1)
    exp = norm_ratio_experiment(tree, p=1.5, n_trials=1, seed=0,
                                geometry=geo)
    assert (exp["kappa"], exp["K1"]) == (12.0, K1)
    buf = io.StringIO()
    write_experiment_csv(exp, buf)
    assert f"# kappa=12.0 K1={K1} " in buf.getvalue()


def test_scale_sum_survey_structure():
    insts = [canonical("n2d1-tight"), canonical("n2d1-mid")]
    surv = scale_sum_survey(instances=insts, p_values=(1.5,))
    assert set(surv["rows"]) == {"n2d1-tight", "n2d1-mid"}
    vals = [r["max_R"]["1.5"] for r in surv["rows"].values()]
    assert all(np.isfinite(vals)) and min(vals) > 0
    assert surv["spread"]["1.5"] == pytest.approx(max(vals) / min(vals))


def _frame_path_c_meas(tree, ps, wd, ct, n_fields, seed, p=1.5):
    """C_meas of the survey's seeded fields through the direct seminorm."""
    out = []
    for k in range(n_fields):
        vals = np.random.default_rng([seed, 31, k]).standard_normal(
            tree.n_leaves)
        f = PlanarData.from_leaf_function(
            tree, ps, LeafFunction.from_array(tree, vals - vals.mean()))
        F = planar_extend(tree, ps, wd, ct, f, p=p, backend="averaging")
        out.append(planar_seminorm(F, p)[0] ** p / pair_linf_sum(F, p)[0])
    return out


def _with_mixed_row(wd, ct):
    """ct with one cluster-boundary square relabelled to a third cluster,
    so that it touches two other clusters."""
    lab = ct.square_cluster
    src = np.repeat(np.arange(wd.n), np.diff(wd.neighbors_indptr))
    r = int(src[lab[wd.neighbors] != lab[src]][0])
    third = next(c for c in range(ct.n_clusters)
                 if c != lab[r] and c not in lab[wd.neighbors[src == r]])
    mixed = copy.copy(ct)
    mixed.square_cluster = lab.copy()
    mixed.square_cluster[r] = third
    return mixed


@pytest.mark.parametrize("name,mixed", [("n2d1-tight", False),
                                        ("n2d2-loose", False),
                                        ("n2d1-tight", True)])
def test_patching_survey_matches_planar_seminorm(name, mixed):
    tree, ps, wd, ct = instance_geometry(canonical(name))
    if mixed:
        ct = _with_mixed_row(wd, ct)
        assert analysis.edge_weights(wd, ct, 1.5).mixed_rows.size
    got = patching_survey(tree, ps, wd, ct, n_fields=2, seed=0)["C_meas"]
    want = _frame_path_c_meas(tree, ps, wd, ct, n_fields=2, seed=0)
    np.testing.assert_allclose(got, want, rtol=1e-11, atol=0.0)


def test_patching_survey_integrates_once(monkeypatch):
    calls = {"edge_weights": 0, "_hess_power_sum": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kw):
            calls[name] += 1
            return inner(*args, **kw)
        monkeypatch.setattr(module, name, wrapper)

    counted(suite, "edge_weights")
    counted(analysis, "_hess_power_sum")
    tree, ps, wd, ct = instance_geometry(canonical("n2d1-tight"))
    rep = patching_survey(tree, ps, wd, ct, n_fields=2, seed=0)
    assert rep["ok"] and len(rep["C_meas"]) == 2
    assert calls == {"edge_weights": 1, "_hess_power_sum": 0}


def test_patching_survey_error_estimate():
    tree, ps, wd, ct = instance_geometry(canonical("n2d1-tight"))
    rep = patching_survey(tree, ps, wd, ct, n_fields=2, seed=0)
    for c, err in zip(rep["C_meas"], rep["C_meas_error"], strict=True):
        assert np.isfinite(err) and 0.0 < err < 0.01 * c
