import numpy as np
import pytest

from treeplane import WeightedTree, random_tree
from treeplane.embedding import (PlanarGeometryError, PlanarSet,
                                 build_planar_set, psi_all,
                                 verify_lemma_psi, verify_lemma_sep)
from treeplane.oracles import psi
from treeplane.whitney import _e1_count_interval


def depth1_binary(eps=0.01):
    return WeightedTree({"": 1.0, "0": eps, "1": eps}, N=2, epsilon=eps)


# -- psi ----------------------------------------------------------------------

def test_psi_root_zero():
    t = depth1_binary()
    assert psi(t, "") == 0.0


def test_psi_one_step_binary():
    # W_root * 1 / (N - 1) with N = 2
    assert psi(depth1_binary(), "1") == 1.0


def test_psi_two_step_ternary():
    eps = 0.01
    t = WeightedTree({"": 1.0, "0": eps, "1": eps, "2": eps,
                      "20": eps * eps, "21": eps * eps},
                     N=3, epsilon=eps)
    assert psi(t, "21") == pytest.approx(1.0 + eps / 2.0, rel=1e-15)


def test_psi_closed_sum_matches_recursion():
    t = random_tree(N=4, depth=3, epsilon=0.05, seed=3)
    psis = psi_all(t)
    for v in t.ids:
        assert psi(t, v) == pytest.approx(psis[t.index[v]], abs=1e-14)


def test_psi_unknown_node():
    with pytest.raises(KeyError):
        psi(depth1_binary(), "7")


# -- build_planar_set ---------------------------------------------------------

def test_depth1_binary_planar_set():
    ps = build_planar_set(depth1_binary(0.01))
    assert ps.delta == 0.01
    assert ps.e1_count == 200
    assert np.array_equal(ps.e2, [[0.0, 0.01], [1.0, 0.01]])
    assert ps.leaf_index == {"0": 0, "1": 1}


def test_e1_spacing_tracks_depth2_weights():
    eps = 0.05
    nodes = {"": 1.0}
    for a in "01":
        nodes[a] = eps
        for b in "01":
            nodes[a + b] = eps * eps
    ps = build_planar_set(WeightedTree(nodes, N=2, epsilon=eps))
    assert ps.delta == eps * eps  # grid spacing scales with the deepest level


def test_build_refuses_invalid_tree():
    bad = WeightedTree({"": 2.0, "0": 0.1, "1": 0.1}, N=2, epsilon=0.1)
    with pytest.raises(PlanarGeometryError, match="validation"):
        build_planar_set(bad)


def test_separation_on_generated_instances():
    for seed in range(6):
        t = random_tree(N=3, depth=2, epsilon=0.05 / 3, seed=seed)
        rep = verify_lemma_sep(build_planar_set(t))
        assert rep["ok"], rep


def test_e1_never_materialized_above_cap():
    nodes = {"": 1.0, "0": 1e-3, "1": 1e-3}
    for a in "01":
        for b in "01":
            nodes[a + b] = 1e-6
    ps = build_planar_set(WeightedTree(nodes, N=2, epsilon=1e-3))
    assert ps.e1_count == 2 * 10 ** 6
    with pytest.raises(PlanarGeometryError, match="cap"):
        ps.e1_points()
    # arithmetic queries keep working
    count, k0 = _e1_count_interval(ps, np.array([0.0]), np.array([1.0]))
    assert (count[0], k0[0]) == (10 ** 6 + 1, 0)


def test_export_round_trip(tmp_path):
    ps = build_planar_set(depth1_binary())
    path = tmp_path / "planar.json"
    ps.save(path)
    import json
    doc = json.loads(path.read_text())
    assert doc["delta"] == 0.01
    assert doc["e1"]["count"] == 200
    assert [r["leaf"] for r in doc["e2"]] == ["0", "1"]


# -- E1 window counts ---------------------------------------------------------

def test_e1_index_range_matches_scan():
    ps = build_planar_set(depth1_binary(0.01))
    xs = ps.e1_points()[:, 0]
    rng = np.random.default_rng(1)
    lo, hi = np.array([np.sort(rng.uniform(-0.2, 2.2, size=2))
                       for _ in range(300)]).T
    count, k0 = _e1_count_interval(ps, lo, hi)
    for c, k, a, b in zip(count, k0, lo, hi):
        mask = (xs >= a) & (xs <= b)
        assert c == mask.sum()
        if c > 0:
            assert np.flatnonzero(mask)[0] == k
    assert 0 < np.count_nonzero(count) < count.size


# -- verify_lemma_psi ---------------------------------------------------------

def test_lemma_psi_depth1_binary():
    t = depth1_binary()
    rep = verify_lemma_psi(t, build_planar_set(t))
    assert rep["order_preserving"] is True
    # single pair: gap 1 = W_lca, lower bound needs K >= W_lca/(N*gap) = 1/2,
    # upper needs K >= 1, so the smallest admissible K is exactly 1
    assert rep["K_measured"] == 1.0


def test_lemma_psi_generated_instances():
    for seed in range(6):
        t = random_tree(N=2, depth=3, epsilon=0.025, seed=seed)
        rep = verify_lemma_psi(t, build_planar_set(t))
        assert rep["order_preserving"] is True
        assert 1.0 <= rep["K_measured"] < 10.0


def test_lemma_psi_mirror_symmetry():
    eps = 0.02
    sub = {"0": 0.6, "1": 1.0}  # relative leaf weights of the hung subtree
    nodes = {"": 1.0, "0": eps, "1": eps}
    mirror = {"": 1.0, "0": eps, "1": eps}
    for d, u in sub.items():
        nodes["0" + d] = nodes["1" + d] = u * eps * eps
        flip = str(1 - int(d))
        mirror["0" + flip] = mirror["1" + flip] = u * eps * eps
    t = WeightedTree(nodes, N=2, epsilon=eps)
    m = WeightedTree(mirror, N=2, epsilon=eps)
    ka = verify_lemma_psi(t, build_planar_set(t))["K_measured"]
    kb = verify_lemma_psi(m, build_planar_set(m))["K_measured"]
    assert ka == pytest.approx(kb, rel=1e-9)


def test_lemma_psi_needs_two_leaves():
    t = WeightedTree({"": 1.0}, N=2, epsilon=0.5)
    ps = PlanarSet(delta=1.0, e1_count=2, e2=np.zeros((1, 2)),
                   leaf_ids=[""], leaf_index={"": 0})
    with pytest.raises(ValueError):
        verify_lemma_psi(t, ps)
