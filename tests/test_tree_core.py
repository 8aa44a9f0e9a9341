import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treeplane import (LeafFunction, NodeFunction, TreeStructureError,
                       WeightedTree, lca, random_tree, seminorm_tree, validate)
from treeplane.tree_core import DELTA_FLOOR


def two_leaf_tree(w0=0.01, w1=0.01, epsilon=0.01):
    return WeightedTree({"": 1.0, "0": w0, "1": w1}, N=2, epsilon=epsilon)


# -- construction -------------------------------------------------------------

def test_ids_sorted_and_indexed():
    t = random_tree(N=3, depth=2, epsilon=0.1, seed=0)
    assert t.ids == sorted(t.ids)
    assert all(t.ids[t.index[v]] == v for v in t.ids)
    assert t.weight("") == 1.0
    assert t.depth == 2


def test_parent_and_children():
    t = two_leaf_tree()
    assert t.parent[t.index["0"]] == t.index[""]
    assert t.parent[t.index["1"]] == t.index[""]
    assert t.is_leaf[t.index["0"]]
    assert not t.is_leaf[t.index[""]]
    assert t.leaf_ids == ["0", "1"]


def test_prefix_closure_required():
    with pytest.raises(TreeStructureError, match="prefix-closed"):
        WeightedTree({"": 1.0, "01": 0.01}, N=2, epsilon=0.1)


def test_missing_root_rejected():
    with pytest.raises(TreeStructureError, match="root"):
        WeightedTree({"0": 1.0}, N=2, epsilon=0.1)


def test_alphabet_checked():
    with pytest.raises(TreeStructureError, match="digits"):
        WeightedTree({"": 1.0, "2": 0.1, "0": 0.1}, N=2, epsilon=0.2)
    with pytest.raises(TreeStructureError):
        WeightedTree({"": 1.0}, N=1, epsilon=0.5)
    with pytest.raises(TreeStructureError):
        WeightedTree({"": 1.0}, N=11, epsilon=0.5)


def test_nonpositive_weight_rejected():
    with pytest.raises(TreeStructureError, match="weight"):
        WeightedTree({"": 1.0, "0": 0.0, "1": 0.1}, N=2, epsilon=0.2)


def test_delta_floor_enforced():
    ok = two_leaf_tree(w0=DELTA_FLOOR, w1=DELTA_FLOOR, epsilon=0.5)
    assert ok.delta == DELTA_FLOOR
    with pytest.raises(TreeStructureError, match="floor"):
        two_leaf_tree(w0=DELTA_FLOOR / 2, w1=DELTA_FLOOR, epsilon=0.5)


def test_shadow_blocks_are_exactly_the_prefixed_leaves():
    t = random_tree(N=3, depth=3, epsilon=0.1, seed=4)
    for v in t.ids:
        i = t.index[v]
        block = t.leaf_ids[t.leaf_lo[i]:t.leaf_hi[i]]
        assert block == [u for u in t.leaf_ids if u.startswith(v)]
        assert len(block) >= 1


def test_json_round_trip(tmp_path):
    t = random_tree(N=4, depth=2, epsilon=0.05, seed=9)
    path = tmp_path / "tree.json"
    t.save(path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"N", "epsilon", "nodes"}
    back = WeightedTree.from_file(path)
    assert back.ids == t.ids
    assert np.array_equal(back.weights, t.weights)
    assert back.N == t.N and back.epsilon == t.epsilon


# -- validate -----------------------------------------------------------------

def test_validate_single_root_empty():
    t = WeightedTree({"": 1.0}, N=2, epsilon=0.5)
    assert validate(t) == []


def test_validate_equality_case_passes():
    eps = 0.01
    t = two_leaf_tree(w0=eps, w1=eps, epsilon=eps)
    assert validate(t) == []


def test_validate_flags_decay_breach():
    eps = 0.01
    t = two_leaf_tree(w0=eps, w1=2 * eps, epsilon=eps)
    report = validate(t)
    assert [r["node"] for r in report] == ["1"]
    assert report[0]["kind"] == "decay"


def test_validate_flags_root_weight_and_chain():
    t = WeightedTree({"": 2.0, "0": 0.01, "00": 0.001, "01": 0.001},
                     N=2, epsilon=0.1)
    kinds = {(r["node"], r["kind"]) for r in validate(t)}
    assert ("", "root_weight") in kinds
    assert ("", "child_count") in kinds  # root has a single child


def test_validate_accepts_generator_output_and_catches_perturbation():
    for seed in range(5):
        t = random_tree(N=3, depth=3, epsilon=0.05, seed=seed)
        assert validate(t) == []
        nodes = {v: t.weight(v) for v in t.ids}
        victim = t.ids[1 + seed % (t.n_nodes - 1)]
        nodes[victim] = 1.5 * t.epsilon * t.weight(victim[:-1])
        bad = WeightedTree(nodes, N=t.N, epsilon=t.epsilon)
        assert any(r["node"] == victim and r["kind"] == "decay"
                   for r in validate(bad))


# -- lca ----------------------------------------------------------------------

def test_lca_examples():
    t = WeightedTree({"": 1.0, "0": 0.1, "00": 0.01, "01": 0.01,
                      "1": 0.1, "10": 0.01, "11": 0.01}, N=2, epsilon=0.1)
    assert lca(t, "01", "00") == "0"
    assert lca(t, "0", "01") == "0"
    assert lca(t, "00", "11") == ""
    assert lca(t, "10", "10") == "10"


def test_lca_unknown_node():
    t = two_leaf_tree()
    with pytest.raises(KeyError):
        lca(t, "0", "7")


# -- seminorm -----------------------------------------------------------------

def test_seminorm_constant_is_zero():
    t = random_tree(N=2, depth=2, epsilon=0.1, seed=2)
    phi = NodeFunction({v: 3.25 for v in t.ids})
    assert seminorm_tree(t, phi, 1.5) == 0.0


def test_seminorm_single_edge_pair():
    # one contributing edge: value is w^((2-p)/p)
    w, p = 0.07, 1.5
    t = two_leaf_tree(w0=w, w1=w, epsilon=0.1)
    phi = NodeFunction({"": 0.0, "0": 0.0, "1": 1.0})
    assert seminorm_tree(t, phi, p) == pytest.approx(w ** ((2 - p) / p), rel=1e-14)


def test_seminorm_p_range():
    t = two_leaf_tree()
    phi = NodeFunction({"": 0.0, "0": 1.0, "1": 0.0})
    seminorm_tree(t, phi, 2.0)  # closed endpoint allowed
    for bad in (1.0, 0.5, 2.1, -1.0):
        with pytest.raises(ValueError):
            seminorm_tree(t, phi, bad)


def test_seminorm_domain_mismatch():
    t = two_leaf_tree()
    with pytest.raises(ValueError, match="domain"):
        seminorm_tree(t, NodeFunction({"": 0.0, "0": 1.0}), 1.5)
    with pytest.raises(ValueError, match="domain"):
        LeafFunction({"0": 1.0, "": 0.0}).to_array(t)


@st.composite
def tree_and_values(draw, n_funcs=1):
    seed = draw(st.integers(0, 2 ** 16))
    n = draw(st.integers(2, 4))
    depth = draw(st.integers(1, 3))
    t = random_tree(N=n, depth=depth, epsilon=0.1, seed=seed)
    rng = np.random.default_rng(seed + 1)
    funcs = [NodeFunction.from_array(t, rng.uniform(-5, 5, t.n_nodes))
             for _ in range(n_funcs)]
    p = draw(st.floats(1.05, 2.0))
    return t, funcs, p


@settings(max_examples=40, deadline=None)
@given(tree_and_values(), st.floats(-3, 3))
def test_seminorm_homogeneity(tv, lam):
    t, (phi,), p = tv
    scaled = NodeFunction({v: lam * x for v, x in phi.values.items()})
    assert seminorm_tree(t, scaled, p) == pytest.approx(
        abs(lam) * seminorm_tree(t, phi, p), rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(tree_and_values(n_funcs=2))
def test_seminorm_triangle(tv):
    t, (f, g), p = tv
    s = NodeFunction({v: f[v] + g[v] for v in t.ids})
    lhs = seminorm_tree(t, s, p)
    rhs = seminorm_tree(t, f, p) + seminorm_tree(t, g, p)
    assert lhs <= rhs * (1 + 1e-12)


@settings(max_examples=25, deadline=None)
@given(tree_and_values())
def test_seminorm_vanishes_only_on_constants(tv):
    t, (phi,), p = tv
    if seminorm_tree(t, phi, p) == 0.0:
        vals = phi.to_array(t)
        assert np.all(vals == vals[0])


# -- generator ----------------------------------------------------------------

def test_random_tree_reproducible():
    a = random_tree(N=3, depth=2, epsilon=0.05, seed=11)
    b = random_tree(N=3, depth=2, epsilon=0.05, seed=11)
    assert a.ids == b.ids
    assert np.array_equal(a.weights, b.weights)


def test_random_tree_leaves_at_full_depth():
    t = random_tree(N=2, depth=3, epsilon=0.1, seed=5)
    assert all(len(v) == 3 for v in t.leaf_ids)


def test_random_tree_bad_params():
    with pytest.raises(ValueError):
        random_tree(N=2, depth=-1, epsilon=0.1, seed=0)
    with pytest.raises(ValueError):
        random_tree(N=2, depth=1, epsilon=1.5, seed=0)
