"""Round-trip pipelines: boundary data to the plane and back."""

import copy
import csv

import numpy as np
import pytest

from treeplane import operators
from treeplane.analysis import (PANEL_EDGES, _active_blocks, _block_classes,
                                _block_power, _blocks_power, _class_blocks,
                                _class_power, _configuration_classes,
                                _configurations, _hess_power_sum, _mirror,
                                _panel_reach, _panel_rule, _profile_table,
                                edge_weights, planar_seminorm)
from treeplane.clusters import assign_clusters, build_clusters
from treeplane.embedding import build_planar_set
from treeplane.interpolant import AffinePolynomial, PatchedInterpolant
from treeplane.operators import (PlanarData, _interpolant, _tree_backend,
                                 leaf_slopes, norm_ratio_experiment,
                                 planar_extend, tree_extend_from_planar,
                                 verify_restriction, write_experiment_csv)
from treeplane.suite import canonical, instance_geometry
from treeplane.tree_core import LeafFunction, WeightedTree
from treeplane.tree_extension import optimal_extension
from treeplane.whitney import decompose


def make_geometry(weights, N, epsilon, kappa=10.25):
    tree = WeightedTree(weights, N=N, epsilon=epsilon)
    ps = build_planar_set(tree)
    wd = decompose(ps)
    ct = build_clusters(tree, ps, kappa=kappa)
    assign_clusters(ct, wd)
    return tree, ps, wd, ct


@pytest.fixture(scope="module")
def pair():
    return make_geometry({"": 1.0, "0": 0.01, "1": 0.01}, N=2, epsilon=0.01)


@pytest.fixture(scope="module")
def tri():
    # three distinct leaf weights so random data gives non-degenerate ratios
    return make_geometry({"": 1.0, "0": 0.015, "1": 0.01, "2": 0.005},
                         N=3, epsilon=0.05 / 3)


def test_e1_values_constant_rule(pair):
    _, ps, _, _ = pair
    f = PlanarData(e2_values=np.zeros(ps.e2.shape[0]), e1_rule=2.5)
    k = np.array([0, 7, ps.e1_count - 1])
    assert np.array_equal(f.e1_values(ps, k), np.full(3, 2.5))


def test_e1_values_callable_rule(pair):
    _, ps, _, _ = pair
    f = PlanarData(e2_values=np.zeros(ps.e2.shape[0]),
                   e1_rule=lambda x1: 1.0 + 3.0 * x1)
    k = np.array([0, 5, 11])
    assert np.allclose(f.e1_values(ps, k), 1.0 + 3.0 * k * ps.delta,
                       rtol=0, atol=0)


def test_e1_values_out_of_range(pair):
    _, ps, _, _ = pair
    f = PlanarData(e2_values=np.zeros(ps.e2.shape[0]))
    with pytest.raises(ValueError, match="range"):
        f.e1_values(ps, np.array([ps.e1_count]))
    with pytest.raises(ValueError, match="range"):
        f.e1_values(ps, np.array([-1]))


def test_from_leaf_function_scales_by_weight(tri):
    tree, ps, _, _ = tri
    phi = LeafFunction.from_array(tree, [2.0, -1.0, 4.0])
    f = PlanarData.from_leaf_function(tree, ps, phi)
    assert np.array_equal(f.e2_values, phi.to_array(tree) * ps.e2[:, 1])
    assert f.e1_rule == 0.0


def test_leaf_slopes_of_affine_data(tri):
    _, ps, _, _ = tri
    A = AffinePolynomial(0.4, -1.3, 2.7)
    f = PlanarData.from_affine(ps, A)
    assert np.allclose(leaf_slopes(ps, f), A.c, rtol=1e-13, atol=0)


def test_leaf_slopes_invert_the_lift(tri):
    """Lifted data gives back exactly the slopes it was lifted from, so
    planar_extend of a lift extends phi itself."""
    for tree, ps, wd, ct in (tri, instance_geometry(canonical("n3d1-loose"))):
        rng = np.random.default_rng(29)
        for draw in range(20):
            phi = LeafFunction.from_array(
                tree, rng.standard_normal(tree.n_leaves))
            f = PlanarData.from_leaf_function(tree, ps, phi)
            assert np.array_equal(leaf_slopes(ps, f), phi.to_array(tree))
        Phi = _tree_backend("averaging")(tree, phi, 1.5).to_array(tree)
        F = planar_extend(tree, ps, wd, ct, f, p=1.5, backend="averaging")
        assert np.array_equal(F.coefs,
                              _interpolant(ps, wd, ct, f, Phi).coefs)


def test_tree_backend_dispatch():
    with pytest.raises(ValueError, match="unknown backend"):
        _tree_backend("steepest")


def test_zero_data_extends_to_zero(pair):
    tree, ps, wd, ct = pair
    f = PlanarData(e2_values=np.zeros(ps.e2.shape[0]))
    F = planar_extend(tree, ps, wd, ct, f, p=1.5)
    assert not F.coefs.any()
    assert (F.tail.a, F.tail.b, F.tail.c) == (0.0, 0.0, 0.0)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-4, 6, size=(200, 2))
    assert np.max(np.abs(F.evaluate(pts))) <= 1e-12


def test_affine_data_reproduced_exactly(tri):
    tree, ps, wd, ct = tri
    A = AffinePolynomial(0.3, -0.7, 1.1)
    f = PlanarData.from_affine(ps, A)
    F = planar_extend(tree, ps, wd, ct, f, p=1.5, backend="averaging")
    rng = np.random.default_rng(4)
    pts = rng.uniform(-3.5, 5.5, size=(500, 2))
    want = A.evaluate(pts)
    assert np.max(np.abs(F.evaluate(pts) - want)) <= 1e-10
    grads = F.evaluate(pts, order=1)
    assert np.max(np.abs(grads - np.array([A.b, A.c]))) <= 1e-10
    rep = verify_restriction(F, ps, f)
    assert rep["max_rel_e2"] <= 1e-10 and rep["max_rel_e1"] <= 1e-10


def test_restriction_identity_on_random_data(tri):
    tree, ps, wd, ct = tri
    rng = np.random.default_rng(5)
    phi = LeafFunction.from_array(tree, rng.standard_normal(3))
    f = PlanarData.from_leaf_function(tree, ps, phi)
    F = planar_extend(tree, ps, wd, ct, f, p=1.25)
    rep = verify_restriction(F, ps, f)
    assert rep["max_rel_e2"] <= 1e-12
    assert rep["max_rel_e1"] <= 1e-12
    assert rep["n_e1_sampled"] == ps.e1_count  # small grid: checked in full


def test_averaging_pipeline_is_linear(tri):
    tree, ps, wd, ct = tri
    rng = np.random.default_rng(6)
    v1, v2 = rng.standard_normal(3), rng.standard_normal(3)
    def coefs(vals):
        f = PlanarData.from_leaf_function(
            tree, ps, LeafFunction.from_array(tree, vals))
        return planar_extend(tree, ps, wd, ct, f, p=1.5,
                             backend="averaging").coefs
    combo = coefs(v1 + 2.0 * v2)
    scale = np.max(np.abs(combo)) or 1.0
    assert np.max(np.abs(combo - (coefs(v1) + 2.0 * coefs(v2)))) <= 1e-12 * scale


def test_round_trip_keeps_leaf_values(tri):
    tree, ps, wd, ct = tri
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(3)
    phi = LeafFunction.from_array(tree, vals)
    Phi = tree_extend_from_planar(tree, ps, wd, ct, phi, p=1.5)
    for leaf, v in zip(tree.leaf_ids, vals):
        assert Phi[leaf] == v


def test_round_trip_of_constant_is_constant(tri):
    tree, ps, wd, ct = tri
    phi = LeafFunction.from_array(tree, [1.7, 1.7, 1.7])
    Phi = tree_extend_from_planar(tree, ps, wd, ct, phi, p=1.5)
    arr = Phi.to_array(tree)
    assert np.max(np.abs(arr - 1.7)) <= 1e-9


def test_round_trip_solves_the_given_leaf_data(monkeypatch):
    # the tree solve must see phi itself, not slopes re-read off its lift
    tree, ps, wd, ct = instance_geometry(canonical("n3d1-loose"))
    seen = []

    def spy(tree, phi, p):
        seen.append(phi.to_array(tree))
        return optimal_extension(tree, phi, p)

    monkeypatch.setattr(operators, "optimal_extension", spy)
    for seed in range(20):
        vals = np.random.default_rng(seed).standard_normal(tree.n_leaves)
        phi = LeafFunction.from_array(tree, vals)
        tree_extend_from_planar(tree, ps, wd, ct, phi, p=1.5, rings=4,
                                angles=8)
        assert np.array_equal(seen[-1], vals), seed
    assert len(seen) == 20


def test_experiment_rejects_empty_run(tri):
    tree, ps, wd, ct = tri
    with pytest.raises(ValueError, match="n_trials"):
        norm_ratio_experiment(tree, p=1.5, n_trials=0, seed=1,
                              geometry=(ps, wd, ct))


def test_experiment_rows_and_summary(tri):
    tree, ps, wd, ct = tri
    rep = norm_ratio_experiment(tree, p=1.5, n_trials=3, seed=11,
                                quad_order=8, geometry=(ps, wd, ct))
    assert len(rep["rows"]) == 3
    rp = [r["rho_plane"] for r in rep["rows"]]
    rt = [r["rho_tree"] for r in rep["rows"]]
    assert all(np.isfinite(rp)) and all(np.isfinite(rt))
    assert min(rt) >= 1.0 - 1e-6
    assert rep["rho_plane"]["min"] == min(rp)
    assert rep["rho_plane"]["max"] == max(rp)
    assert rep["rho_tree"]["median"] == float(np.median(rt))
    for r in rep["rows"]:
        assert r["quad_error"] >= 0.0
        assert 0.0 <= r["quad_rel"] < 0.05


def test_experiment_deterministic(pair):
    tree, ps, wd, ct = pair
    kw = dict(p=1.5, n_trials=2, seed=42, quad_order=8,
              geometry=(ps, wd, ct))
    a = norm_ratio_experiment(tree, **kw)
    b = norm_ratio_experiment(tree, **kw)
    assert a["rows"] == b["rows"]


def test_experiment_geometry_matches_rebuild(pair):
    tree, ps, wd, ct = pair
    a = norm_ratio_experiment(tree, p=1.5, n_trials=1, seed=9, quad_order=8,
                              geometry=(ps, wd, ct))
    b = norm_ratio_experiment(tree, p=1.5, n_trials=1, seed=9, quad_order=8)
    assert a["rows"] == b["rows"]


def _lifted_interpolant(tree, ps, wd, ct, seed, p=1.5):
    rng = np.random.default_rng(seed)
    phi = LeafFunction.from_array(tree, rng.standard_normal(tree.n_leaves))
    Phi = optimal_extension(tree, phi, p).to_array(tree)
    f = PlanarData.from_leaf_function(tree, ps, phi)
    return Phi, _interpolant(ps, wd, ct, f, Phi)


def _assert_same_seminorm(ew, Phi, F):
    value, err = ew.seminorm(Phi, F)
    want_value, want_err = planar_seminorm(F, ew.p, quad_order=ew.quad_order)
    assert want_value > 0.0 and want_err > 0.0
    assert abs(value - want_value) <= 1e-12 * want_value
    assert abs(err - want_err) <= 1e-12 * want_value


@pytest.mark.parametrize("name", ["tri", "n3d1-loose"])
def test_edge_weights_match_planar_seminorm(name, tri):
    if name == "tri":
        tree, ps, wd, ct = tri
    else:
        tree, ps, wd, ct = instance_geometry(canonical(name))
    ew = edge_weights(wd, ct, 1.5)
    assert ew.mixed_rows.size == 0
    # every touching cluster pair is a tree edge on these instances
    a, b = ew.pairs.T
    assert np.all((tree.parent[b] == a) | (tree.parent[a] == b))
    for seed in (0, 1):
        Phi, F = _lifted_interpolant(tree, ps, wd, ct, seed)
        _assert_same_seminorm(ew, Phi, F)


def _single_other_rows(wd, lab):
    """Squares whose touching list holds exactly one other cluster, with
    the sorted cluster pair of each."""
    ip, nb = wd.neighbors_indptr, wd.neighbors
    src = np.repeat(np.arange(wd.n), np.diff(ip))
    rows, pairs = [], []
    for r in np.unique(src[lab[nb] != lab[src]]):
        others = set(lab[nb[ip[r]:ip[r + 1]]].tolist()) - {lab[r]}
        if len(others) == 1:
            rows.append(r)
            pairs.append(tuple(sorted((int(lab[r]), others.pop()))))
    return np.array(rows), pairs


def _unit_jumps(wd, lab, clusters):
    """For each cluster c, the interpolant whose piece is (0, 0, 1) on c and
    0 elsewhere: on a square touching one other cluster, with c one of the
    two, its Hessian is the unit jump's up to sign."""
    out = {}
    for c in set(clusters):
        coefs = np.zeros((wd.n, 3))
        coefs[lab == c, 2] = 1.0
        tail = AffinePolynomial(*coefs[np.flatnonzero(wd.boundary)[0]])
        out[c] = PatchedInterpolant(wd, coefs, tail)
    return out


@pytest.mark.parametrize("name", ["tri", "n2d1-tight", "n3d1-loose",
                                  "n2d2-loose", "n3d2-loose"])
def test_edge_weight_classes_match_per_row(name, tri):
    """The class table gives the weights of integrating every square with
    one other cluster on its own."""
    if name == "tri":
        tree, ps, wd, ct = tri
    else:
        tree, ps, wd, ct = instance_geometry(canonical(name))
    lab = ct.square_cluster
    rows, pairs = _single_other_rows(wd, lab)
    ew = edge_weights(wd, ct, 1.5)
    assert ew.n_rows == rows.size
    assert 0 < ew.n_classes < ew.n_rows
    index = {pq: i for i, pq in enumerate(map(tuple, ew.pairs.tolist()))}
    assert set(pairs) == set(index)
    pair_of_row = np.array([index[pq] for pq in pairs])
    jumps = _unit_jumps(wd, lab, [b for _, b in index])
    orders = (ew.quad_order, 2 * ew.quad_order)
    want = np.array([_hess_power_sum(jumps[b], rows[pair_of_row == i], 1.5,
                                     orders)
                     for (_, b), i in index.items()])
    for got, want_order in zip((ew.M_coarse, ew.M_fine), want.T,
                               strict=True):
        np.testing.assert_allclose(got, want_order, rtol=1e-10, atol=0.0)


def test_class_keys_fold_both_mirrors():
    """Each configuration class integrates to the same value from its key
    and from its three mirror images, which fall in the same class; the key
    integral is its first square's own integral up to delta^(2 - p)."""
    tree, ps, wd, ct = instance_geometry(canonical("n2d2-loose"))
    lab = ct.square_cluster.astype(np.int64)
    rows, pairs = _single_other_rows(wd, lab)
    _, conf = _configurations(wd, lab, rows)
    first, _ = _configuration_classes(conf)
    reps = tuple(c[first] for c in conf)
    images = [_mirror(reps, sx, sy) for sx in (1, -1) for sy in (1, -1)]
    _, cls = _configuration_classes(
        tuple(np.concatenate(parts) for parts in zip(*images)))
    cls = cls.reshape(4, first.size)
    assert np.all(cls == cls[0]) and np.unique(cls[0]).size == first.size
    # (image, order, class) at orders 12 and 24
    got = np.array([_class_power(key, 1.5, (12, 24))[0] for key in images])
    assert np.all(got[0] > 0.0)
    for g in got[1:]:
        np.testing.assert_allclose(g, got[0], rtol=1e-13, atol=0.0)
    R = rows[first]
    jumps = _unit_jumps(wd, lab, [pairs[i][1] for i in first])
    own = np.array([_hess_power_sum(jumps[pairs[i][1]], rows[i:i + 1], 1.5,
                                    (12,))[0]
                    for i in first])
    np.testing.assert_allclose(_class_power(reps, 1.5, (12,))[0][0],
                               own / wd.delta[R] ** 0.5, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("name", ["n2d2-loose", "n3d2-loose"])
def test_block_classes_match_blocks(name):
    """Summing block classes gives each class the integral of its whole
    padded touching list on every block, and the members of a block class,
    mirror images included, integrate equally."""
    tree, ps, wd, ct = instance_geometry(canonical(name))
    lab = ct.square_cluster.astype(np.int64)
    rows, _ = _single_other_rows(wd, lab)
    _, conf = _configurations(wd, lab, rows)
    first, _ = _configuration_classes(conf)
    reps = tuple(c[first] for c in conf)
    images = tuple(np.concatenate(parts) for parts in zip(
        *[_mirror(reps, sx, sy) for sx in (1, -1) for sy in (1, -1)]))
    dl, ox, oy, other, valid, height = reps
    npan = PANEL_EDGES.size - 1
    reach = _panel_reach()
    # every valid entry of the padded touching list on every active block
    b, px, py = _active_blocks(valid & other, reach[dl + 1, ox + 6],
                               reach[dl + 1, oy + 6])
    got_orders, n_blocks = _class_power(reps, 1.5, (12, 24))
    blocks = _class_blocks(images)
    head, cls = _block_classes(blocks)
    assert head.size == n_blocks
    assert n_blocks == _block_classes(_class_blocks(reps))[0].size
    assert head.size < blocks[0].size
    for order, got in zip((12, 24), got_orders, strict=True):
        gx, gw = _panel_rule(order)
        k = gx.size // npan
        table = [t.reshape(3, 13, npan, k) for t in _profile_table(order)]
        i, qx, qy = dl[b] + 1, px[:, None], py[:, None]
        U, Ux, Uxx = (t[i, ox[b] + 6, qx] * valid[b][:, :, None]
                      for t in table)
        V, Vy, Vyy = (t[i, oy[b] + 6, qy] for t in table)
        Y = height[b][:, None] / 8.0 + 0.5 * gx.reshape(npan, k)[py]
        wp = gw.reshape(npan, k)
        each = _block_power(U, Ux, Uxx, V, Vy, Vyy, Y[:, None, :],
                            other[b].astype(float), None, None, None, wp[px],
                            wp[py], 1.5)
        want = 0.25 * np.bincount(b, weights=each, minlength=first.size)
        assert np.all(got > 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

        each = _blocks_power(blocks, 1.5, order)
        assert np.all(each[head] > 0.0)
        np.testing.assert_allclose(each, each[head][cls], rtol=1e-13,
                                   atol=0.0)


def test_edge_weights_mixed_rows_match_planar_seminorm(tri):
    tree, ps, wd, ct = tri
    # relabel one square on a cluster boundary to a third cluster, so that
    # it (and squares around it) touch two other clusters
    lab = ct.square_cluster
    src = np.repeat(np.arange(wd.n), np.diff(wd.neighbors_indptr))
    hit = lab[wd.neighbors] != lab[src]
    r = int(src[hit][0])
    third = next(c for c in range(ct.n_clusters)
                 if c != lab[r] and c not in lab[wd.neighbors[src == r]])
    mixed = copy.copy(ct)
    mixed.square_cluster = lab.copy()
    mixed.square_cluster[r] = third
    ew = edge_weights(wd, mixed, 1.5)
    assert r in ew.mixed_rows
    for seed in (2, 3):
        Phi, F = _lifted_interpolant(tree, ps, wd, mixed, seed)
        # hand-set labels blend on the rows derived from them, too
        assert np.array_equal(np.flatnonzero(F.blend), mixed.cross_rows(wd))
        _assert_same_seminorm(ew, Phi, F)


def test_edge_weights_guards(tri):
    tree, ps, wd, ct = tri
    with pytest.raises(ValueError, match="quad_order"):
        edge_weights(wd, ct, 1.5, 3)
    bare = copy.copy(ct)
    bare.square_cluster = None
    with pytest.raises(ValueError, match="assigned"):
        edge_weights(wd, bare, 1.5)


def test_experiment_rows_within_plane_bound(tri):
    tree, ps, wd, ct = tri
    rep = norm_ratio_experiment(tree, p=1.5, n_trials=8, seed=17,
                                geometry=(ps, wd, ct))
    bound = rep["rho_plane_bound"]
    assert bound > 0.0 and 0.0 <= rep["rho_plane_bound_error"] < 0.01 * bound
    for r in rep["rows"]:
        assert r["rho_plane"] <= bound * (1.0 + 1e-12)
    # the averaging backend's numerator is not the trace energy's extension
    avg = norm_ratio_experiment(tree, p=1.5, n_trials=1, seed=17,
                                backend="averaging",
                                geometry=(ps, wd, ct))
    assert avg["rho_plane_bound"] is None
    assert avg["rho_plane_bound_error"] is None


def test_experiment_reports_edge_weight_counts():
    tree, ps, wd, ct = instance_geometry(canonical("n2d1-tight"))
    rep = norm_ratio_experiment(tree, p=1.5, n_trials=1, seed=5,
                                geometry=(ps, wd, ct))
    assert (rep["edge_weight_rows"], rep["edge_weight_classes"],
            rep["edge_weight_blocks"]) == (216, 81, 532)
    assert edge_weights(wd, ct, 1.5).n_blocks == 532


def test_csv_round_trip(tri, tmp_path):
    tree, ps, wd, ct = tri
    rep = norm_ratio_experiment(tree, p=1.25, n_trials=2, seed=3,
                                quad_order=8, geometry=(ps, wd, ct))
    path = tmp_path / "rows.csv"
    write_experiment_csv(rep, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ") and "constant" in lines[0]
    assert lines[1].startswith("# kappa=")
    assert f"rho_plane_bound={rep['rho_plane_bound']} " in lines[1]
    back = list(csv.DictReader(lines[2:]))
    assert len(back) == 2
    assert list(back[0]) == ["seed", "trial", "N", "depth", "epsilon", "p",
                             "backend", "rho_plane", "rho_tree", "quad_error",
                             "quad_rel"]
    for row, r in zip(back, rep["rows"]):
        assert float(row["rho_plane"]) == pytest.approx(r["rho_plane"],
                                                        rel=1e-15)
        assert int(row["trial"]) == r["trial"]
