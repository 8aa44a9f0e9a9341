import numpy as np
import pytest

from treeplane import WeightedTree, analysis
from treeplane.embedding import build_planar_set
from treeplane.whitney import decompose, e2_anchor_indices
from treeplane.clusters import build_clusters
from treeplane.interpolant import AffinePolynomial, PatchedInterpolant
from treeplane.analysis import (GaussianBumpField, PANEL_EDGES, _active_rows,
                                _hess_power_sum, _panel_reach, _panel_rule,
                                _profile_table, ball_average,
                                ball_estimate_sums, disk_rule, disk_seminorm,
                                edge_weights, planar_seminorm)
from treeplane.operators import PlanarData, planar_extend
from treeplane.oracles import _hess_power_sum_pointwise
from treeplane.suite import CANONICAL, canonical, instance_geometry
from treeplane.tree_core import LeafFunction


@pytest.fixture(scope="module")
def small():
    tree = WeightedTree({"": 1.0, "0": 0.01, "1": 0.01}, N=2, epsilon=0.01)
    ps = build_planar_set(tree)
    wd = decompose(ps)
    return tree, ps, wd


def perturbed(wd, seed=0, scale=1.0, n_pieces=40):
    """Interpolant with a few hundred perturbed pieces.  Keeping the active
    set sparse mirrors the real pipelines (pieces differ only near cluster
    boundaries) and keeps the quadrature square count test-sized."""
    rng = np.random.default_rng(seed)
    tail = AffinePolynomial(0.1, -0.4, 0.2)
    coefs = np.tile([tail.a, tail.b, tail.c], (wd.n, 1))
    interior = np.flatnonzero(~wd.boundary)
    picks = rng.choice(interior, size=min(n_pieces, interior.size),
                       replace=False)
    coefs[picks] += scale * rng.standard_normal((picks.size, 3))
    return PatchedInterpolant(wd, coefs, tail)


@pytest.fixture(scope="module")
def lifted():
    """Averaging-backend interpolant of random leaf data on n2d2-loose, with
    its cluster tree: every piece is (0, 0, slope of its cluster)."""
    tree, ps, wd, ct = instance_geometry(canonical("n2d2-loose"))
    rng = np.random.default_rng(11)
    phi = LeafFunction.from_array(tree, rng.standard_normal(tree.n_leaves))
    f = PlanarData.from_leaf_function(tree, ps, phi)
    return ct, planar_extend(tree, ps, wd, ct, f, 1.5, backend="averaging")


class ProductField:
    """x1 * x2 with exact derivatives; exercises the field protocol with a
    non-affine input."""

    def evaluate(self, pts, order=0):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if order == 0:
            return pts[:, 0] * pts[:, 1]
        if order == 1:
            return pts[:, [1, 0]].copy()
        out = np.zeros((pts.shape[0], 2, 2))
        out[:, 0, 1] = out[:, 1, 0] = 1.0
        return out


class VerticalSquareField:
    """x2 ** 2; its vertical derivative is linear, so disk averages are exact
    and equal to twice the center height."""

    def evaluate(self, pts, order=0):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if order == 0:
            return pts[:, 1] ** 2
        if order == 1:
            return np.column_stack([np.zeros(pts.shape[0]), 2.0 * pts[:, 1]])
        out = np.zeros((pts.shape[0], 2, 2))
        out[:, 1, 1] = 2.0
        return out


def test_panel_rule_is_a_quadrature_on_the_interval():
    nodes, weights = _panel_rule(12)
    assert nodes.size == weights.size == (PANEL_EDGES.size - 1) * 8
    assert np.all(nodes > -1) and np.all(nodes < 1)
    assert weights.sum() == pytest.approx(2.0, abs=1e-14)
    for k in range(0, 13, 2):
        exact = 2.0 / (k + 1)
        assert np.sum(weights * nodes ** k) == pytest.approx(exact, abs=1e-13)


def test_panel_count_grows_with_order():
    n12, _ = _panel_rule(12)
    n24, _ = _panel_rule(24)
    assert n24.size == 2 * n12.size


@pytest.mark.parametrize("name", ["small", "n2d2-loose"])
def test_fast_and_pointwise_power_sums_agree(name, small):
    """General pieces (all of a, b, c differ) on squares from the top of
    the frame down to the deepest levels of a depth-2 instance, and pieces
    that differ in a and b only."""
    wd = small[2] if name == "small" else instance_geometry(canonical(name))[2]
    F = perturbed(wd, seed=3)
    rows = _active_rows(F)
    assert rows.size > 0
    for p in (1.25, 1.5, 2.0):
        a = _hess_power_sum_pointwise(F, rows, p, 8)
        (b,) = _hess_power_sum(F, rows, p, (8,))
        assert b == pytest.approx(a, rel=1e-12)
    coefs = F.coefs.copy()
    coefs[:, 2] = F.tail.c
    G = PatchedInterpolant(wd, coefs, F.tail)
    a = _hess_power_sum_pointwise(G, rows, 1.5, 8)
    assert a > 0.0
    (b,) = _hess_power_sum(G, rows, 1.5, (8,))
    assert b == pytest.approx(a, rel=1e-12)


def test_power_sum_matches_midpoint_grid_per_square(small):
    tree, ps, wd = small
    F = perturbed(wd, seed=4)
    rows = _active_rows(F)
    rng = np.random.default_rng(5)
    picks = rng.choice(rows, size=2, replace=False)
    p = 1.5
    gx, gw = _panel_rule(24)
    for r in picks:
        h = 0.5 * wd.delta[r]
        # panel-rule value on this square alone
        X, Y = np.meshgrid(wd.cx[r] + h * gx, wd.cy[r] + h * gx, indexing="ij")
        W = (gw[:, None] * gw[None, :]) * h ** 2
        H = F.evaluate(np.column_stack([X.ravel(), Y.ravel()]), order=2)
        frob = np.sqrt(H[:, 0, 0] ** 2 + 2 * H[:, 0, 1] ** 2 + H[:, 1, 1] ** 2)
        quad = float(np.sum(frob ** p * W.ravel()))
        # dense midpoint oracle; the band features are 0.05 * side wide, so
        # the cell count must keep dozens of cells inside each band
        m = 1600
        step = wd.delta[r] / m
        mids = wd.cx[r] - h + (np.arange(m) + 0.5) * step
        midy = wd.cy[r] - h + (np.arange(m) + 0.5) * step
        X, Y = np.meshgrid(mids, midy, indexing="ij")
        H = F.evaluate(np.column_stack([X.ravel(), Y.ravel()]), order=2)
        frob = np.sqrt(H[:, 0, 0] ** 2 + 2 * H[:, 0, 1] ** 2 + H[:, 1, 1] ** 2)
        dense = float(np.sum(frob ** p)) * step * step
        if dense > 0:
            assert quad == pytest.approx(dense, rel=2e-3)
        else:
            assert quad == 0.0


@pytest.mark.parametrize("field", ["lifted", "perturbed"])
def test_skipped_blocks_have_zero_hessian(field, small, lifted, monkeypatch):
    """Every node of a panel block the kernel leaves out has Hessian exactly
    0 under the generic point evaluator, at both orders of one call and at
    the lowest order, 4."""
    F = lifted[1] if field == "lifted" else perturbed(small[2], seed=3)
    wd = F.wd
    rows = np.sort(np.random.default_rng(6).choice(_active_rows(F), size=3,
                                                   replace=False))
    seen = []
    blocks = analysis._active_blocks
    monkeypatch.setattr(analysis, "_active_blocks",
                        lambda *args: seen.append(blocks(*args)) or seen[-1])
    npan = PANEL_EDGES.size - 1
    for orders in ((12, 24), (4,)):
        seen.clear()
        assert all(s > 0.0 for s in _hess_power_sum(F, rows, 1.5, orders))
        (b, px, py), = seen
        active = np.zeros((rows.size, npan, npan), dtype=bool)
        active[b, px, py] = True
        assert active.any(axis=(1, 2)).all() and not active.all()
        pts = []
        for order in orders:
            gx, _ = _panel_rule(order)
            k = gx.size // npan
            for i, r in enumerate(rows):
                h = 0.5 * wd.delta[r]
                xs = (wd.cx[r] + h * gx).reshape(npan, k)
                ys = (wd.cy[r] + h * gx).reshape(npan, k)
                for qx, qy in zip(*np.nonzero(~active[i])):
                    X, Y = np.meshgrid(xs[qx], ys[qy], indexing="ij")
                    pts.append(np.column_stack([X.ravel(), Y.ravel()]))
        H = F.evaluate(np.vstack(pts), order=2)
        assert np.all(H == 0.0)


def test_panel_reach_is_where_the_profiles_are_nonzero():
    """The order-free reach table marks exactly the panels on which some
    tabulated profile is nonzero, from order 8 to 96.  Below order 8 the
    three or four nodes per panel can miss a reached panel's thin slice of
    support, and the table holds more: only for equal squares at offset
    +-2 quarters, where a support edge falls inside a panel, and no touching
    square has that offset."""
    reach = _panel_reach()
    npan = PANEL_EDGES.size - 1
    for order in range(4, 97):
        # uncached: the test should not keep 93 tables alive
        table = _profile_table.__wrapped__(order)
        nonzero = np.logical_or.reduce(
            [np.any(t.reshape(3, 13, npan, -1) != 0, axis=-1) for t in table])
        if order >= 8:
            assert np.array_equal(reach, nonzero), order
        else:
            assert not np.any(nonzero & ~reach), order
            extra = {(int(d) - 1, int(o) - 6)
                     for d, o, _ in np.argwhere(reach & ~nonzero)}
            assert extra <= {(0, -2), (0, 2)}, order


def test_each_seminorm_call_gathers_once(small, monkeypatch):
    """One block gather serves both quadrature orders: `planar_seminorm` on
    one row batch and `edge_weights` each gather once."""
    calls = []
    gather = analysis._reaching_blocks
    monkeypatch.setattr(analysis, "_reaching_blocks",
                        lambda *args: calls.append(1) or gather(*args))
    # one perturbed piece: its square and the touching ones, one row batch
    F = perturbed(small[2], seed=3, n_pieces=1)
    assert 0 < _active_rows(F).size <= 13
    assert planar_seminorm(F, 1.5)[0] > 0.0
    assert len(calls) == 1
    calls.clear()
    tree, ps, wd, ct = instance_geometry(canonical("n2d1-tight"))
    assert edge_weights(wd, ct, 1.5).n_blocks > 0
    assert len(calls) == 1


def test_lifted_kernel_matches_pointwise_per_row(lifted):
    """On lifted data (pieces differing only in the vertical slope) the
    block kernel's integral over each single row matches the pointwise path,
    on squares that touch exactly one other cluster."""
    ct, F = lifted
    wd, lab = F.wd, ct.square_cluster
    ip, nb = wd.neighbors_indptr, wd.neighbors
    single = [r for r in _active_rows(F)
              if len(set(lab[nb[ip[r]:ip[r + 1]]].tolist()) - {lab[r]}) == 1]
    R = np.sort(np.random.default_rng(8).choice(single, size=4,
                                                replace=False))
    assert np.all(F.coefs[:, :2] == 0.0)
    got = np.array([_hess_power_sum(F, np.array([r]), 1.5, (12,))[0]
                    for r in R])
    want = [_hess_power_sum_pointwise(F, np.array([r]), 1.5, 12) for r in R]
    assert np.all(got > 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_planar_seminorm_zero_for_identical_pieces(small):
    tree, ps, wd = small
    poly = AffinePolynomial(2.0, -1.0, 3.0)
    coefs = np.tile([poly.a, poly.b, poly.c], (wd.n, 1))
    F = PatchedInterpolant(wd, coefs, poly)
    assert planar_seminorm(F, 1.5) == (0.0, 0.0)


def test_planar_seminorm_homogeneous_and_shift_invariant(small):
    tree, ps, wd = small
    F = perturbed(wd, seed=6)
    v0, _ = planar_seminorm(F, 1.5)
    s = 3.7
    Fs = PatchedInterpolant(wd, s * F.coefs,
                            AffinePolynomial(s * F.tail.a, s * F.tail.b,
                                             s * F.tail.c))
    vs, _ = planar_seminorm(Fs, 1.5)
    assert vs == pytest.approx(s * v0, rel=1e-10)
    shift = np.array([5.0, -2.0, 1.5])
    Fa = PatchedInterpolant(wd, F.coefs + shift,
                            AffinePolynomial(F.tail.a + shift[0],
                                             F.tail.b + shift[1],
                                             F.tail.c + shift[2]))
    va, _ = planar_seminorm(Fa, 1.5)
    assert va == pytest.approx(v0, rel=1e-10)


def test_planar_seminorm_error_shrinks_under_order_doubling(small):
    tree, ps, wd = small
    F = perturbed(wd, seed=7)
    v8, e8 = planar_seminorm(F, 1.5, quad_order=8)
    v16, e16 = planar_seminorm(F, 1.5, quad_order=16)
    assert e16 < e8
    assert abs(v16 - v8) <= e8


def test_planar_seminorm_guards(small):
    tree, ps, wd = small
    F = perturbed(wd, seed=8)
    with pytest.raises(ValueError):
        planar_seminorm(F, 1.5, quad_order=3)
    with pytest.warns(UserWarning, match="order doubling"):
        planar_seminorm(F, 1.5, refine_tol=1e-12)


def test_disk_rule_integrates_polynomials():
    center = np.array([0.7, -0.3])
    r = 1.3
    pts, w = disk_rule(center, r)
    assert w.sum() == pytest.approx(np.pi * r ** 2, rel=1e-13)
    # centered second moments of the disk
    dx = pts[:, 0] - center[0]
    dy = pts[:, 1] - center[1]
    assert np.sum(w * dx ** 2) == pytest.approx(np.pi * r ** 4 / 4, rel=1e-12)
    assert np.sum(w * dy ** 2) == pytest.approx(np.pi * r ** 4 / 4, rel=1e-12)
    assert np.sum(w * dx * dy) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        disk_rule(center, r, rings=2)


def test_ball_average_affine_exact():
    P = AffinePolynomial(0.3, 1.7, -2.4)
    centers = np.array([(0.0, 0.0), (4.0, -6.0), (1.0, 2.0)])
    got = ball_average(P, centers, np.array([0.5, 11.0, 0.01]))
    assert got.shape == (3,)
    assert np.allclose(got, -2.4, rtol=0, atol=1e-12)
    with pytest.raises(ValueError, match="centers"):
        ball_average(P, centers, np.array([0.5, 11.0]))


def test_ball_average_vertical_slope_of_product_field():
    # d2 of x1*x2 is x1, linear, so the disk mean is the center value
    G = ProductField()
    a, b, r = 1.25, -0.5, 0.75
    got = ball_average(G, np.array([[a, b]]), np.array([r]))
    assert got[0] == pytest.approx(a, abs=1e-12)


def test_ball_average_matches_monte_carlo(small):
    # disk kept above the refined strip so moderate ring counts resolve the
    # blend bands the disk crosses
    tree, ps, wd = small
    F = perturbed(wd, seed=9)
    center = np.array([1.0, 0.9])
    r = 0.5
    quad = ball_average(F, center[None], np.array([r]), rings=256,
                        angles=256)[0]
    rng = np.random.default_rng(10)
    n = 10 ** 6
    u = np.sqrt(rng.uniform(size=n)) * r
    th = rng.uniform(0, 2 * np.pi, size=n)
    pts = center + np.column_stack([u * np.cos(th), u * np.sin(th)])
    samples = F.evaluate(pts, order=1)[:, 1]
    mc = samples.mean()
    se = samples.std() / np.sqrt(n)
    assert abs(mc - quad) <= max(4 * se, 1e-3 * abs(quad))


def _per_disk_averages(F, centers, radii, rings, angles):
    """One disk_rule and one F.evaluate per disk: the reference for the
    batched ball_average, with the disk means of |d2 F|, the scale its
    rounding is relative to."""
    out = []
    for c, r in zip(centers, radii):
        pts, w = disk_rule(c, r, rings, angles)
        g = F.evaluate(pts, order=1)[:, 1]
        out.append((np.sum(g * w), np.sum(np.abs(g) * w)))
    return np.array(out).T / (np.pi * radii ** 2)


class EvaluateSpy:
    """Counts the points of every evaluate call on the wrapped field."""

    def __init__(self, F):
        self.F = F
        self.sizes = []

    def evaluate(self, pts, order=0):
        self.sizes.append(len(pts))
        return self.F.evaluate(pts, order)


@pytest.mark.parametrize("case, rings, angles", [
    ("lifted", 64, 128), ("bumps", 64, 128), ("bumps", 128, 256)])
def test_ball_average_batched_matches_per_disk(case, rings, angles, lifted):
    # the three internal balls of n2d2-loose share one batch; the 23 balls
    # of n3d3-tight take four disks per batch on the read-back rule (the
    # last batch short) and one per batch on the verifier rule
    if case == "lifted":
        ct, F = lifted
        inner = ~ct.tree.is_leaf
        centers, radii = ct.y[inner], ct.radius[inner]
        assert radii.size == 3
    else:
        ct = instance_geometry(canonical("n3d3-tight"))[3]
        F = GaussianBumpField.random(np.random.default_rng(17))
        centers, radii = ct.y, ct.radius
        assert radii.size == 23
    spy = EvaluateSpy(F)
    got = ball_average(spy, centers, radii, rings, angles)
    want, scale = _per_disk_averages(F, centers, radii, rings, angles)
    # the root ball of n3d3-tight averages to rounding noise (about 1e-18)
    assert np.all(np.abs(got - want) <= 1e-13 * scale)
    per = analysis.DISK_NODES // (rings * angles)
    assert len(spy.sizes) == -(-radii.size // per)
    assert max(spy.sizes) <= analysis.DISK_NODES
    assert sum(spy.sizes) == radii.size * rings * angles


def test_disk_seminorm_zero_for_affine():
    P = AffinePolynomial(1.0, 2.0, 3.0)
    assert disk_seminorm(P, np.array([0.5, 0.5]), 2.0, 1.5) == 0.0


def test_ball_estimate_sums_vanish_for_affine(small):
    tree, ps, wd = small
    ct = build_clusters(tree, ps, kappa=10.25)
    s1, s2 = ball_estimate_sums(ct, AffinePolynomial(0.5, -1.0, 2.0), 1.5)
    assert abs(s1) <= 1e-12
    assert abs(s2) <= 1e-12


def test_ball_estimate_sums_closed_form_on_two_leaves():
    # G = x2^2: every disk average of d2 G is twice the ball-center height,
    # every leaf jet has vertical slope equal to the leaf weight
    tree = WeightedTree({"": 1.0, "0": 0.01, "1": 0.007}, N=2, epsilon=0.01)
    ps = build_planar_set(tree)
    ct = build_clusters(tree, ps, kappa=10.25)
    p = 1.5
    w0, w1 = 0.01, 0.007
    s1, s2 = ball_estimate_sums(ct, VerticalSquareField(), p)
    want1 = abs(2 * w1 - 2 * w0) ** p * w1 ** (2 - p)
    want2 = w0 ** 2 + w1 ** 2
    assert s1 == pytest.approx(want1, rel=1e-12)
    assert s2 == pytest.approx(want2, rel=1e-12)


@pytest.mark.parametrize("name", [i.name for i in CANONICAL
                                  if i.depth == 1])
def test_ball_estimate_jet_matches_per_leaf_solve(name):
    # sum2 from the closed-form jet against one 3x3 solve per leaf
    tree, ps, _, ct = instance_geometry(canonical(name))
    G = GaussianBumpField.random(np.random.default_rng(19))
    p = 1.5
    _, s2 = ball_estimate_sums(ct, G, p)
    avg = ball_average(G, ct.y, ct.radius)
    kz, kw = e2_anchor_indices(ps)
    want = 0.0
    for j, i in enumerate(np.flatnonzero(tree.is_leaf)):
        P = np.array([ps.e2[j], [kz[j] * ps.delta, 0.0],
                      [kw[j] * ps.delta, 0.0]])
        _, _, c = np.linalg.solve(np.column_stack([np.ones(3), P]),
                                  G.evaluate(P))
        want += abs(c - avg[i]) ** p * tree.weights[i] ** (2.0 - p)
    assert s2 == pytest.approx(want, rel=1e-10)


def test_gaussian_bump_field_derivatives_match_differences():
    rng = np.random.default_rng(11)
    G = GaussianBumpField.random(rng)
    pts = rng.uniform(-1, 3, size=(50, 2))
    h = 1e-6
    gx = (G.evaluate(pts + [h, 0]) - G.evaluate(pts - [h, 0])) / (2 * h)
    grad = G.evaluate(pts, order=1)
    assert np.abs(gx - grad[:, 0]).max() <= 1e-8 * max(np.abs(grad).max(), 1)
    # second difference needs a larger step: at h=1e-6 the 1/h^2 roundoff
    # amplification alone reaches the tolerance
    h = 1e-4
    hxx = (G.evaluate(pts + [h, 0]) - 2 * G.evaluate(pts)
           + G.evaluate(pts - [h, 0])) / h ** 2
    H = G.evaluate(pts, order=2)
    assert np.abs(hxx - H[:, 0, 0]).max() <= 1e-4 * max(np.abs(H).max(), 1)


def test_gaussian_bump_field_deterministic():
    a = GaussianBumpField.random(np.random.default_rng(12))
    b = GaussianBumpField.random(np.random.default_rng(12))
    assert np.array_equal(a.centers, b.centers)
    assert np.array_equal(a.amps, b.amps)
    assert np.array_equal(a.widths, b.widths)


def test_ball_estimate_sums_bounded_for_smooth_field(small):
    tree, ps, wd = small
    ct = build_clusters(tree, ps, kappa=10.25)
    G = GaussianBumpField.random(np.random.default_rng(13))
    s1, s2 = ball_estimate_sums(ct, G, 1.5)
    assert np.isfinite(s1) and s1 >= 0
    assert np.isfinite(s2) and s2 >= 0
    assert s1 + s2 > 0

