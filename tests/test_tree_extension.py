import numpy as np
import pytest

from treeplane import (ExtensionSolveError, LeafFunction, NodeFunction,
                       WeightedTree, averaging_extension,
                       harmonic_extension_p2, optimal_extension, random_tree,
                       seminorm_tree, trace_seminorm)
from treeplane import tree_extension
from treeplane.embedding import build_planar_set
from treeplane.interpolant import AffinePolynomial
from treeplane.operators import PlanarData, leaf_slopes
from treeplane.oracles import brute_force_extension
from treeplane.suite import canonical, instance_tree
from treeplane.tree_core import edge_energy


def golden_min(f, a, b, iters=200):
    # scalar convex minimizer, independent of the package solver
    g = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def star_tree(n_leaves, w=0.05):
    nodes = {"": 1.0}
    for k in range(n_leaves):
        nodes[str(k)] = w
    return WeightedTree(nodes, N=max(2, n_leaves), epsilon=w)


def random_instance(seed, N=2, depth=2, epsilon=0.05):
    t = random_tree(N=N, depth=depth, epsilon=epsilon, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    return t, LeafFunction.from_array(t, rng.standard_normal(t.n_leaves))


# -- optimal_extension --------------------------------------------------------

def test_constant_data_extends_constantly():
    t, _ = random_instance(0)
    phi = LeafFunction({v: 2.5 for v in t.leaf_ids})
    ext = optimal_extension(t, phi, 1.5)
    assert all(ext[v] == 2.5 for v in t.ids)
    assert seminorm_tree(t, ext, 1.5) == 0.0


def test_restriction_is_exact():
    t, phi = random_instance(3, N=3, depth=2)
    ext = optimal_extension(t, phi, 1.25)
    assert all(ext[v] == phi[v] for v in t.leaf_ids)


def test_star_tree_matches_golden_section_oracle():
    t = star_tree(3)
    phi = LeafFunction({"0": 0.0, "1": 0.0, "2": 3.0})
    p = 1.5
    ext = optimal_extension(t, phi, p)
    t_star = golden_min(lambda s: 2 * abs(s) ** p + abs(3 - s) ** p, 0.0, 3.0)
    # stationarity 2*sqrt(s) = sqrt(3-s) gives s = 0.6 exactly; the oracle
    # localizes to ~sqrt(machine eps) only, the objective being flat there
    assert t_star == pytest.approx(0.6, abs=1e-6)
    assert ext[""] == pytest.approx(t_star, abs=1e-6)


def test_p2_matches_linear_solve():
    for seed in (1, 2, 7):
        t, phi = random_instance(seed, N=3, depth=2, epsilon=0.1)
        a = optimal_extension(t, phi, 2.0).to_array(t)
        b = harmonic_extension_p2(t, phi).to_array(t)
        assert np.max(np.abs(a - b)) <= 1e-8


def test_matches_brute_force_energy():
    # every <=4-interior-node shape: star, single path of depth 2, binary depth 2
    shapes = [star_tree(4), random_tree(N=2, depth=2, epsilon=0.05, seed=5)]
    for t in shapes:
        rng = np.random.default_rng(17)
        phi = LeafFunction.from_array(t, rng.uniform(-2, 2, t.n_leaves))
        for p in (1.25, 1.5, 1.9):
            e_opt = edge_energy(t, optimal_extension(t, phi, p).to_array(t), p)
            e_bf = edge_energy(t, brute_force_extension(t, phi, p).to_array(t), p)
            assert e_opt <= e_bf + 1e-3
            assert abs(e_opt - e_bf) <= 1e-3 * max(1.0, e_bf)


def test_p_continuity_near_two():
    t, phi = random_instance(8, N=2, depth=2)
    e_near = edge_energy(t, optimal_extension(t, phi, 1.999).to_array(t), 1.999)
    e_two = edge_energy(t, harmonic_extension_p2(t, phi).to_array(t), 2.0)
    assert abs(e_near - e_two) <= 0.01 * e_two


def test_tol_validation():
    t, phi = random_instance(0)
    with pytest.raises(ValueError):
        optimal_extension(t, phi, 1.5, tol=0.0)


def test_newton_stall_raises(monkeypatch):
    # with no Newton step allowed every stage stalls; the solver must say so
    # and hand back its iterate instead of switching method
    monkeypatch.setattr(tree_extension, "NEWTON_MAX_ITER", 0)
    t, phi = random_instance(4)
    with pytest.raises(ExtensionSolveError) as info:
        optimal_extension(t, phi, 1.5)
    best = info.value.best.to_array(t)
    assert np.array_equal(best, averaging_extension(t, phi).to_array(t))
    assert np.isnan(info.value.residual)


@pytest.mark.parametrize("p", [1.25, 1.5, 1.75])
def test_affine_leaf_slopes_converge(p):
    # the leaf slopes of exactly affine planar data are 1.1 up to float noise
    # (span 1.6e-12, just above the near-constant cut-off), so Newton's
    # decrement must be judged against that noise, not stall below it
    tree = instance_tree(canonical("n2d2-mid"))
    ps = build_planar_set(tree)
    f = PlanarData.from_affine(ps, AffinePolynomial(0.3, -0.7, 1.1))
    phi = leaf_slopes(ps, f)
    vals = optimal_extension(tree, LeafFunction.from_array(tree, phi),
                             p).to_array(tree)
    assert np.array_equal(vals[tree.is_leaf], phi)
    assert np.max(np.abs(vals - 1.1)) <= 1e-11


# -- harmonic_extension_p2 ----------------------------------------------------

def test_p2_two_leaves_midpoint():
    t = star_tree(2)
    ext = harmonic_extension_p2(t, LeafFunction({"0": 0.0, "1": 1.0}))
    assert ext[""] == pytest.approx(0.5, abs=1e-14)


def test_p2_depth2_binary_against_dense_solve():
    t = WeightedTree({"": 1.0, "0": 0.1, "00": 0.01, "01": 0.01,
                      "1": 0.1, "10": 0.01, "11": 0.01}, N=2, epsilon=0.1)
    phi = LeafFunction({"00": 0.0, "01": 0.0, "10": 1.0, "11": 1.0})
    ext = harmonic_extension_p2(t, phi)
    # unknowns (root, "0", "1"); each interior value is the mean of its
    # tree neighbours, assembled and solved here independently
    A = np.array([[2.0, -1.0, -1.0],
                  [-1.0, 3.0, 0.0],
                  [-1.0, 0.0, 3.0]])
    b = np.array([0.0, 0.0, 2.0])
    x = np.linalg.solve(A, b)
    assert ext[""] == pytest.approx(x[0], abs=1e-12)
    assert ext["0"] == pytest.approx(x[1], abs=1e-12)
    assert ext["1"] == pytest.approx(x[2], abs=1e-12)


# -- trace_seminorm -----------------------------------------------------------

def test_trace_zero_for_constant():
    t, _ = random_instance(2)
    assert trace_seminorm(t, LeafFunction({v: -1.0 for v in t.leaf_ids}), 1.5) == 0.0


def test_trace_single_edge_is_zero():
    # root with one leaf child: the free root absorbs the value
    t = WeightedTree({"": 1.0, "0": 0.5}, N=2, epsilon=0.5)
    assert trace_seminorm(t, LeafFunction({"0": 4.0}), 1.5) == 0.0


def test_trace_star_equals_oracle_value():
    t = star_tree(3, w=0.05)
    phi = LeafFunction({"0": 0.0, "1": 0.0, "2": 3.0})
    p = 1.5
    oracle = (0.05 ** (2 - p) * (2 * 0.6 ** p + 2.4 ** p)) ** (1 / p)
    assert trace_seminorm(t, phi, p) == pytest.approx(oracle, rel=1e-6)


def test_trace_lower_bounds_every_extension():
    for seed in range(4):
        t, phi = random_instance(seed, N=3, depth=2)
        p = 1.5
        tr = trace_seminorm(t, phi, p)
        assert tr <= seminorm_tree(t, averaging_extension(t, phi), p) * (1 + 1e-9)
        rng = np.random.default_rng(seed)
        vals = averaging_extension(t, phi).to_array(t)
        vals[~t.is_leaf] += rng.standard_normal((~t.is_leaf).sum())
        assert tr <= seminorm_tree(t, NodeFunction.from_array(t, vals), p)


# -- averaging_extension ------------------------------------------------------

def test_averaging_mean_of_two():
    t = star_tree(2)
    ext = averaging_extension(t, LeafFunction({"0": 0.0, "1": 1.0}))
    assert ext[""] == 0.5


def test_averaging_is_exactly_linear():
    t, phi1 = random_instance(4, N=3, depth=3)
    rng = np.random.default_rng(99)
    phi2 = LeafFunction.from_array(t, rng.standard_normal(t.n_leaves))
    a, b = 2.0, -3.5
    combo = LeafFunction({v: a * phi1[v] + b * phi2[v] for v in t.leaf_ids})
    e1 = averaging_extension(t, phi1).to_array(t)
    e2 = averaging_extension(t, phi2).to_array(t)
    ec = averaging_extension(t, combo).to_array(t)
    assert np.allclose(ec, a * e1 + b * e2, rtol=1e-14, atol=0)


@pytest.mark.parametrize("c", [1.7, 1e5 / 3])
def test_averaging_exact_on_constants(c):
    for seed in range(5):
        t = random_tree(N=3, depth=3, epsilon=0.05, seed=seed)
        phi = LeafFunction({v: c for v in t.leaf_ids})
        assert np.all(averaging_extension(t, phi).to_array(t) == c)


def test_averaging_restricts_exactly():
    t, phi = random_instance(6, N=4, depth=2)
    ext = averaging_extension(t, phi)
    assert all(ext[v] == phi[v] for v in t.leaf_ids)


# -- brute_force_extension ----------------------------------------------------

def test_brute_force_rejects_large_interiors():
    t = random_tree(N=2, depth=3, epsilon=0.05, seed=0)  # 7 interior nodes
    phi = LeafFunction({v: 0.0 for v in t.leaf_ids})
    with pytest.raises(ValueError, match="interior"):
        brute_force_extension(t, phi, 1.5)


def test_brute_force_constant():
    t = star_tree(3)
    ext = brute_force_extension(t, LeafFunction({"0": 1.0, "1": 1.0, "2": 1.0}), 1.5)
    assert ext[""] == pytest.approx(1.0, abs=1e-10)


def test_brute_force_p2_matches_linear():
    t, phi = random_instance(12, N=2, depth=2)
    steps = 11
    bf = brute_force_extension(t, phi, 2.0, grid_steps=steps).to_array(t)
    lin = harmonic_extension_p2(t, phi).to_array(t)
    # best grid point after 3 refinements: spacing shrinks by 2/(steps-1) each pass
    vals = phi.to_array(t)
    window = vals.max() - vals.min() + 2.0
    resolution = window * (2.0 / (steps - 1)) ** 4
    assert np.max(np.abs(bf - lin)) <= resolution

