import functools
import tracemalloc

import numpy as np
import pytest

from treeplane import WeightedTree
from treeplane.analysis import ball_average, planar_seminorm
from treeplane.clusters import assign_clusters, build_clusters
from treeplane.embedding import build_planar_set
from treeplane.operators import PlanarData, planar_extend
from treeplane.suite import canonical, instance_geometry
from treeplane.tree_core import LeafFunction
from treeplane.whitney import Q0_HI, Q0_LO, decompose
from treeplane.interpolant import (AffinePolynomial, PatchedInterpolant,
                                   _differing_pairs, pair_linf_sum)
from treeplane.oracles import linf_on_rect


@pytest.fixture(scope="module")
def small_wd():
    tree = WeightedTree({"": 1.0, "0": 0.01, "1": 0.01}, N=2, epsilon=0.01)
    ps = build_planar_set(tree)
    return decompose(ps)


def constant_interpolant(wd, poly):
    coefs = np.tile([poly.a, poly.b, poly.c], (wd.n, 1))
    return PatchedInterpolant(wd, coefs, poly)


def test_affine_polynomial_orders():
    P = AffinePolynomial(2.0, -1.0, 0.5)
    pts = np.array([[0.0, 0.0], [1.0, 2.0], [-3.0, 4.0]])
    assert np.array_equal(P.evaluate(pts), [2.0, 2.0, 7.0])
    assert np.array_equal(P.evaluate(pts, order=1),
                          np.tile([-1.0, 0.5], (3, 1)))
    assert np.array_equal(P.evaluate(pts, order=2), np.zeros((3, 2, 2)))
    assert P([1.0, 2.0]) == 2.0
    assert np.array_equal(P.gradient(), [-1.0, 0.5])
    with pytest.raises(ValueError):
        P.evaluate(pts, order=3)


def test_affine_polynomial_arithmetic():
    P = AffinePolynomial(1.0, 2.0, 3.0)
    Q = AffinePolynomial(0.5, -1.0, 1.0)
    assert (P - Q) == AffinePolynomial(0.5, 3.0, 2.0)


def test_linf_on_rect_matches_dense_max():
    P = AffinePolynomial(0.3, -1.2, 0.7)
    x0, y0, x1, y1 = -0.5, 1.0, 2.0, 1.75
    xs = np.linspace(x0, x1, 101)
    ys = np.linspace(y0, y1, 101)
    X, Y = np.meshgrid(xs, ys)
    dense = np.abs(P.a + P.b * X + P.c * Y).max()
    exact = linf_on_rect(P, x0, y0, x1, y1)
    assert exact >= dense - 1e-12
    assert exact == pytest.approx(dense, abs=1e-12)


def test_constructor_validation(small_wd):
    tail = AffinePolynomial(1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="shape"):
        PatchedInterpolant(small_wd, np.zeros((3, 3)), tail)
    bad = np.tile([1.0, 0.0, 0.0], (small_wd.n, 1))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        PatchedInterpolant(small_wd, bad, tail)
    # a frame square whose piece disagrees with the tail breaks the glue
    mismatched = np.tile([1.0, 0.0, 0.0], (small_wd.n, 1))
    row = int(np.flatnonzero(small_wd.boundary)[0])
    mismatched[row, 1] = 0.5
    with pytest.raises(ValueError, match="tail"):
        PatchedInterpolant(small_wd, mismatched, tail)
    # a piece table is read only through an index of one row per square
    one = np.array([[1.0, 0.0, 0.0]])
    zero = np.zeros(small_wd.n, dtype=np.int32)
    with pytest.raises(ValueError, match="table shape"):
        PatchedInterpolant(small_wd, one[:, :2], tail, piece_of=zero)
    with pytest.raises(ValueError, match="index shape"):
        PatchedInterpolant(small_wd, one, tail, piece_of=zero[1:])
    for bad_row in (-1, 1):
        index = zero.copy()
        index[-1] = bad_row
        with pytest.raises(ValueError, match="out of range"):
            PatchedInterpolant(small_wd, one, tail, piece_of=index)
    F = PatchedInterpolant(small_wd, one, tail, piece_of=zero)
    assert np.array_equal(F.coefs, np.tile(one, (small_wd.n, 1)))
    assert not F.coefs.flags.writeable


def test_identical_pieces_blend_to_that_affine(small_wd):
    poly = AffinePolynomial(0.7, -0.3, 1.9)
    F = constant_interpolant(small_wd, poly)
    rng = np.random.default_rng(11)
    inside = rng.uniform(-3, 5, size=(200, 2))
    outside = np.array([[5.0, 0.0], [-3.0001, 2.0], [0.0, 17.0]])
    pts = np.vstack([inside, outside])
    assert np.allclose(F.evaluate(pts), poly.evaluate(pts), atol=1e-12)
    assert np.allclose(F.evaluate(pts, order=1),
                       poly.evaluate(pts, order=1), atol=1e-12)
    # piece differences vanish identically, so the Hessian is exactly zero
    assert np.array_equal(F.evaluate(pts, order=2), np.zeros((203, 2, 2)))


def test_outside_uses_tail(small_wd):
    tail = AffinePolynomial(2.0, 1.0, -1.0)
    F = constant_interpolant(small_wd, tail)
    assert F((5.0, 0.0)) == tail((5.0, 0.0))
    assert F((-3.0 - 1e-12, 0.0)) == tail((-3.0 - 1e-12, 0.0))
    assert F((0.0, -3.0 - 1e-12)) == tail((0.0, -3.0 - 1e-12))


def perturbed_interpolant(wd, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    tail = AffinePolynomial(0.4, -0.2, 0.9)
    coefs = np.tile([tail.a, tail.b, tail.c], (wd.n, 1))
    interior = ~wd.boundary
    coefs[interior] += scale * rng.standard_normal((int(interior.sum()), 3))
    return PatchedInterpolant(wd, coefs, tail)


def test_single_point_shapes(small_wd):
    F = perturbed_interpolant(small_wd)
    x = np.array([0.3, 0.7])
    assert np.isscalar(float(F(x)))
    assert F.evaluate(x, order=1).shape == (2,)
    assert F.evaluate(x, order=2).shape == (2, 2)


def test_hessian_is_symmetric(small_wd):
    F = perturbed_interpolant(small_wd, seed=2)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2.9, 4.9, size=(500, 2))
    H = F.evaluate(pts, order=2)
    assert np.array_equal(H[:, 0, 1], H[:, 1, 0])


def fd_safe_points(wd, rng, n, min_delta=0.1):
    """Uniform frame points whose home square has side >= min_delta.  The
    blend transitions live in bands 0.05 * side wide, so a fixed difference
    step only resolves them where the side is not tiny."""
    out = np.empty((0, 2))
    while out.shape[0] < n:
        pts = rng.uniform(-2.9, 4.9, size=(2 * n, 2))
        keep = wd.delta[wd.locate(pts)] >= min_delta
        out = np.vstack([out, pts[keep]])
    return out[:n]


def test_hessian_matches_central_differences(small_wd):
    F = perturbed_interpolant(small_wd, seed=5)
    rng = np.random.default_rng(6)
    pts = fd_safe_points(small_wd, rng, 1000)
    h = 1e-5
    e1 = np.array([h, 0.0])
    e2 = np.array([0.0, h])
    v = lambda q: F.evaluate(q, order=0)
    fxx = (v(pts + e1) - 2 * v(pts) + v(pts - e1)) / h ** 2
    fyy = (v(pts + e2) - 2 * v(pts) + v(pts - e2)) / h ** 2
    fxy = (v(pts + e1 + e2) - v(pts + e1 - e2)
           - v(pts - e1 + e2) + v(pts - e1 - e2)) / (4 * h ** 2)
    H = F.evaluate(pts, order=2)
    scale = max(np.abs(H).max(), 1.0)
    assert np.abs(fxx - H[:, 0, 0]).max() <= 1e-4 * scale
    assert np.abs(fyy - H[:, 1, 1]).max() <= 1e-4 * scale
    assert np.abs(fxy - H[:, 0, 1]).max() <= 1e-4 * scale


def test_hessian_fd_near_e_with_scaled_step(small_wd):
    # inside the narrow bands the step must shrink with the square, or the
    # difference quotient measures its own truncation instead of the field
    wd = small_wd
    F = perturbed_interpolant(wd, seed=5)
    rng = np.random.default_rng(16)
    pts = rng.uniform([0.0, -0.02], [2.0, 0.02], size=(400, 2))
    d = wd.delta[wd.locate(pts)]
    keep = d <= 0.1
    pts, d = pts[keep], d[keep]
    assert pts.shape[0] >= 50
    H = F.evaluate(pts, order=2)
    hs = 1e-4 * d
    v = lambda q: F.evaluate(q, order=0)
    zero = np.zeros_like(hs)
    fxx = (v(pts + np.column_stack([hs, zero]))
           - 2 * v(pts) + v(pts - np.column_stack([hs, zero]))) / hs ** 2
    scale = max(np.abs(H).max(), 1.0)
    assert np.abs(fxx - H[:, 0, 0]).max() <= 1e-4 * scale


def test_gradient_matches_central_differences(small_wd):
    F = perturbed_interpolant(small_wd, seed=7)
    rng = np.random.default_rng(8)
    pts = fd_safe_points(small_wd, rng, 300)
    h = 1e-6
    gx = (F.evaluate(pts + [h, 0]) - F.evaluate(pts - [h, 0])) / (2 * h)
    gy = (F.evaluate(pts + [0, h]) - F.evaluate(pts - [0, h])) / (2 * h)
    G = F.evaluate(pts, order=1)
    scale = max(np.abs(G).max(), 1.0)
    assert np.abs(gx - G[:, 0]).max() <= 1e-6 * scale
    assert np.abs(gy - G[:, 1]).max() <= 1e-6 * scale


def test_pair_linf_sum_zero_for_identical_pieces(small_wd):
    F = constant_interpolant(small_wd, AffinePolynomial(3.0, 1.0, 2.0))
    total, worst = pair_linf_sum(F, 1.5)
    assert total == 0.0
    assert worst == 0.0


def test_pair_linf_sum_matches_dense_sampling(small_wd):
    wd = small_wd
    F = perturbed_interpolant(wd, seed=9)
    counts = np.diff(wd.neighbors_indptr)
    src = np.repeat(np.arange(wd.n), counts)
    dst = wd.neighbors
    keep = src != dst
    src, dst = src[keep], dst[keep]
    rng = np.random.default_rng(10)
    total = 0.0
    p = 1.5
    for i in rng.choice(src.size, size=40, replace=False):
        s, t = src[i], dst[i]
        dP = (AffinePolynomial(*F.pieces[F.piece_of[t]]) -
              AffinePolynomial(*F.pieces[F.piece_of[s]]))
        h = 0.5 * wd.delta[s]
        corner = linf_on_rect(dP, wd.cx[s] - h, wd.cy[s] - h,
                              wd.cx[s] + h, wd.cy[s] + h)
        xs = np.linspace(wd.cx[s] - h, wd.cx[s] + h, 41)
        ys = np.linspace(wd.cy[s] - h, wd.cy[s] + h, 41)
        X, Y = np.meshgrid(xs, ys)
        dense = np.abs(dP.a + dP.b * X + dP.c * Y).max()
        assert corner == pytest.approx(dense, abs=1e-12)
    full, worst = pair_linf_sum(F, p)
    assert full > 0.0
    assert worst > 0.0
    assert np.isfinite(full)


def test_sample_csv_round_trip(small_wd, tmp_path):
    F = perturbed_interpolant(small_wd, seed=12)
    path = tmp_path / "field.csv"
    F.sample_csv(path, nx=11, ny=7)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "x1,x2,value,d1,d2"
    assert len(rows) == 1 + 11 * 7
    first = [float(t) for t in rows[1].split(",")]
    assert first[2] == pytest.approx(F((first[0], first[1])), abs=1e-15)


# -- blend rows ------------------------------------------------------------------

BLEND_GEOMETRIES = ["tri", "n2d1-tight", "n3d1-loose", "n2d2-loose"]


@functools.lru_cache(maxsize=None)
def tri_geometry():
    tree = WeightedTree({"": 1.0, "0": 0.015, "1": 0.01, "2": 0.005}, N=3,
                        epsilon=0.05 / 3)
    ps = build_planar_set(tree)
    wd = decompose(ps)
    ct = build_clusters(tree, ps, kappa=10.25)
    assign_clusters(ct, wd)
    return tree, ps, wd, ct


def blend_geometry(name):
    if name == "tri":
        return tri_geometry()
    return instance_geometry(canonical(name))


def lifted_extension(tree, ps, wd, ct, seed):
    vals = np.random.default_rng(seed).standard_normal(tree.n_leaves)
    phi = LeafFunction.from_array(tree, vals - vals.mean())
    f = PlanarData.from_leaf_function(tree, ps, phi)
    return planar_extend(tree, ps, wd, ct, f, p=1.5, backend="averaging")


def general_extension(tree, ps, wd, ct, seed):
    """Non-affine grid data and random upper values: most pieces differ."""
    rng = np.random.default_rng(seed)
    f = PlanarData(e2_values=rng.standard_normal(ps.n_e2),
                   e1_rule=lambda x1: 0.3 * np.sin(3.0 * x1) + 0.1 * x1 ** 2)
    return planar_extend(tree, ps, wd, ct, f, p=1.5, backend="averaging")


def dense_differing_pairs(F):
    """Every touching list scanned, each pair (s, t), s < t, compared."""
    ip = F.wd.neighbors_indptr
    src, dst = np.repeat(np.arange(F.wd.n), np.diff(ip)), F.wd.neighbors
    once = src < dst
    src, dst = src[once], dst[once]
    differ = np.any(F.coefs[src] != F.coefs[dst], axis=1)
    return src[differ], dst[differ]


def blend_probe_points(tree, ps, ct, seed):
    """Points crowded around every cluster-ball circle (where squares of
    different clusters meet), around the upper points and along the grid,
    plus uniform points over a box reaching outside Q0."""
    rng = np.random.default_rng(seed)
    parts = []
    for i in range(1, tree.n_nodes):
        ang = rng.uniform(0.0, 2.0 * np.pi, 400)
        rad = ct.radius[i] * rng.uniform(0.7, 1.1, 400)
        parts.append(ct.y[i] + rad[:, None] * np.column_stack(
            [np.cos(ang), np.sin(ang)]))
    e2 = ps.e2[rng.integers(0, ps.n_e2, 2000)]
    parts.append(e2 + e2[:, 1:] * rng.uniform(-2.0, 2.0, (2000, 2)))
    parts.append(np.column_stack([rng.uniform(-0.1, 2.1, 2000),
                                  rng.uniform(-0.06, 0.06, 2000)]))
    parts.append(rng.uniform(Q0_LO - 1.0, Q0_HI + 1.0, (2000, 2)))
    return np.vstack(parts)


@pytest.mark.parametrize("name", BLEND_GEOMETRIES)
def test_differing_rows_are_blend_rows(name):
    """The interpolant of lifted data blends on the cluster-boundary
    squares, and they hold both squares of every touching pair whose pieces
    differ."""
    tree, ps, wd, ct = blend_geometry(name)
    F = lifted_extension(tree, ps, wd, ct, seed=5)
    assert not F.blend.all()
    assert np.array_equal(np.flatnonzero(F.blend), ct.cross_rows(wd))
    s, t = _differing_pairs(F)
    assert s.size > 0
    assert np.all(F.blend[s]) and np.all(F.blend[t])


@pytest.mark.parametrize("name", BLEND_GEOMETRIES)
def test_blend_row_scan_finds_every_differing_pair(name):
    """Scanning only the blend rows' touching lists gives the pairs of the
    dense scan over every touching list, in the same order, whether the
    blend rows are the interpolant's own, every row or just the rows of the
    differing pairs, on lifted and on general data."""
    tree, ps, wd, ct = blend_geometry(name)
    for extend in (lifted_extension, general_extension):
        F = extend(tree, ps, wd, ct, seed=5)
        # lifted data brings the cluster-boundary rows, general data every row
        assert F.blend.all() == (extend is general_extension)
        want = dense_differing_pairs(F)
        assert want[0].size > 0
        every = PatchedInterpolant(wd, F.coefs, F.tail)
        only = PatchedInterpolant(wd, F.coefs, F.tail, np.union1d(*want))
        for G in (F, every, only):
            got = _differing_pairs(G)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])


def pair_probe_points(wd, s, t):
    """One point per square of the touching pairs (s, t): inside the square,
    on the segment to the centre of one partner, where it has 1% of the
    side left to the edge.  The segment leaves the square through the
    contact with that partner, so the partner's bump reaches the point."""
    q, first = np.unique(np.concatenate([s, t]), return_index=True)
    r = np.concatenate([t, s])[first]
    dx, dy = wd.cx[r] - wd.cx[q], wd.cy[r] - wd.cy[q]
    lam = 0.49 * wd.delta[q] / np.maximum(np.abs(dx), np.abs(dy))
    return np.column_stack([wd.cx[q] + lam * dx, wd.cy[q] + lam * dy])


def assert_same_as_blending_everywhere(F, pts):
    full = PatchedInterpolant(F.wd, F.coefs, F.tail)
    inside = ((pts[:, 0] >= Q0_LO) & (pts[:, 0] < Q0_HI) &
              (pts[:, 1] >= Q0_LO) & (pts[:, 1] < Q0_HI))
    homed = F.blend[F.wd.locate(pts[inside])]
    assert homed.any() and not homed.all() and not inside.all()
    for order in (0, 1, 2):
        assert np.array_equal(F.evaluate(pts, order), full.evaluate(pts, order))


@pytest.mark.parametrize("name", ["tri", "n2d2-loose"])
def test_lifted_evaluate_matches_blending_every_row(name):
    """On a batch reaching outside Q0 (whose inside points are gathered)
    and on its inside points alone (a batch used as it is)."""
    tree, ps, wd, ct = blend_geometry(name)
    F = lifted_extension(tree, ps, wd, ct, seed=6)
    pts = blend_probe_points(tree, ps, ct, 7)
    # interleave the outside points, so gathered and batch places differ
    pts = pts[np.random.default_rng(7).permutation(pts.shape[0])]
    assert_same_as_blending_everywhere(F, pts)
    full = PatchedInterpolant(wd, F.coefs, F.tail)
    inside = F._inside(pts)
    for order in (0, 1, 2):
        got = F.evaluate(pts[inside], order)
        assert np.array_equal(got, full.evaluate(pts[inside], order))
        assert np.array_equal(got, F.evaluate(pts, order)[inside])


@pytest.mark.parametrize("name, data", [
    pytest.param("tri", "affine", id="tri"),
    pytest.param("n2d2-loose", "affine", id="n2d2-loose"),
    pytest.param("tri", "non-affine", id="tri-non-affine"),
    pytest.param("n2d2-loose", "non-affine", id="n2d2-loose-non-affine")])
def test_general_evaluate_matches_blending_every_row(name, data):
    """General planar data blends every square; blending only on the rows
    whose touching list holds a different piece gives the same numbers.
    Affine data's pieces differ only by rounding; non-affine data's differ
    genuinely, and they are probed on every row of a differing pair."""
    tree, ps, wd, ct = blend_geometry(name)
    if data == "affine":
        f = PlanarData.from_affine(ps, AffinePolynomial(0.3, -0.7, 1.1))
        G = planar_extend(tree, ps, wd, ct, f, p=1.5, backend="averaging")
    else:
        G = general_extension(tree, ps, wd, ct, seed=9)
    assert G.blend.all()
    s, t = _differing_pairs(G)
    F = PatchedInterpolant(wd, G.coefs, G.tail, np.union1d(s, t))
    pts = blend_probe_points(tree, ps, ct, 8)
    if data == "non-affine":
        # a point on every differing row, beside a square with another piece
        pts = np.vstack([pts, pair_probe_points(wd, s, t)])
    assert_same_as_blending_everywhere(F, pts)


# -- piece table -----------------------------------------------------------------

@pytest.mark.parametrize("name", ["n2d1-tight", "n2d2-loose"])
def test_cluster_pieces_match_per_square_pieces(name):
    """Lifted data's interpolant holds one piece per cluster, indexed by the
    cluster labels themselves.  A per-square interpolant built from its own
    coefs, tail and blend rows reads the same numbers: values, gradients and
    Hessians over the frame, in the strip, at E2 and on the grid, the
    differing pairs and their sum, the cluster-ball averages and, on the
    depth-1 tree, the seminorm."""
    tree, ps, wd, ct = blend_geometry(name)
    F = lifted_extension(tree, ps, wd, ct, seed=13)
    assert F.pieces.shape == (ct.n_clusters, 3)
    assert F.piece_of is ct.square_cluster
    G = PatchedInterpolant(wd, F.coefs, F.tail, np.flatnonzero(F.blend))
    assert np.array_equal(G.piece_of, np.arange(wd.n))
    rng = np.random.default_rng(14)
    n = 10_000
    far = rng.uniform(Q0_LO, Q0_HI, size=(n, 2))
    near = np.column_stack([rng.uniform(-0.1, 2.1, n),
                            rng.uniform(-0.06, 0.06, n)])
    k = rng.integers(0, ps.e1_count, 2_000)
    grid = np.column_stack([k * ps.delta, np.zeros(k.size)])
    for pts in (np.vstack([far, near]), ps.e2, grid):
        for order in (0, 1, 2):
            assert np.array_equal(F.evaluate(pts, order),
                                  G.evaluate(pts, order))
    for got, want in zip(_differing_pairs(F), _differing_pairs(G)):
        assert got.size > 0 and np.array_equal(got, want)
    assert pair_linf_sum(F, 1.5) == pair_linf_sum(G, 1.5)
    assert np.array_equal(ball_average(F, ct.y, ct.radius),
                          ball_average(G, ct.y, ct.radius))
    if name == "n2d1-tight":
        assert planar_seminorm(F, 1.5) == planar_seminorm(G, 1.5)


def test_lifted_planar_extend_memory_budget():
    """A warm planar_extend of lifted data on n2d2-loose visits no square:
    beyond the cluster-sized table it allocates only the blend mask, one
    byte per square."""
    tree, ps, wd, ct = blend_geometry("n2d2-loose")
    vals = np.random.default_rng(15).standard_normal(tree.n_leaves)
    phi = LeafFunction.from_array(tree, vals - vals.mean())
    f = PlanarData.from_leaf_function(tree, ps, phi)
    planar_extend(tree, ps, wd, ct, f, p=1.5)
    tracemalloc.start()
    try:
        F = planar_extend(tree, ps, wd, ct, f, p=1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert F.pieces.shape == (ct.n_clusters, 3)
    assert peak / wd.n <= 2.0
