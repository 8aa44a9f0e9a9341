import copy
import tracemalloc

import numpy as np
import pytest

from treeplane import WeightedTree, random_tree, whitney
from treeplane.analysis import _configurations
from treeplane.clusters import assign_clusters, build_clusters, pair_sets
from treeplane.embedding import PlanarSet, build_planar_set
from treeplane.oracles import DyadicSquare, decompose_naive, neighbors_naive
from treeplane.suite import canonical, instance_geometry, instance_tree
from treeplane.whitney import (MORTON_MAX_LEVEL, Q0_HI, Q0_LO, Q0_SIDE,
                               REL_TOL, TYPE_I, TYPE_II, TYPE_III,
                               WhitneyCapError, WhitneyDecomposition,
                               decompose, e2_anchor_indices, pou_table,
                               _count_in_dilates, _morton, _psi_terms,
                               active_table, dist_to_e1,
                               verify_basepoints, verify_boundary, verify_cz,
                               verify_dist_bd, verify_partition)


@pytest.fixture(scope="module")
def coarse():
    tree = WeightedTree({"": 1.0, "0": 1 / 32, "1": 1 / 16}, N=2, epsilon=1 / 16)
    ps = build_planar_set(tree)
    return ps, decompose(ps)


@pytest.fixture(scope="module")
def medium():
    tree = random_tree(N=2, depth=1, epsilon=0.05, seed=0)
    ps = build_planar_set(tree)
    return ps, decompose(ps)


def uniform_grid(level=3):
    k = 2 ** level
    ii, jj = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    return WhitneyDecomposition(None, np.full(k * k, level, dtype=np.int64),
                                ii.ravel(), jj.ravel())


# -- dyadic geometry ----------------------------------------------------------

def test_root_square_geometry():
    q = DyadicSquare(0, 0, 0)
    assert q.delta == 8.0
    assert q.corner == (-3.0, -3.0)
    assert q.rect() == (-3.0, -3.0, 5.0, 5.0)
    with pytest.raises(ValueError):
        q.parent()


def test_children_partition_parent():
    q = DyadicSquare(2, 1, 3)
    kids = q.children()
    assert len(kids) == 4
    assert all(c.parent() == q for c in kids)
    assert sum(c.delta ** 2 for c in kids) == q.delta ** 2


# -- decomposition ------------------------------------------------------------

def test_partition_exact(coarse, medium):
    for _, wd in (coarse, medium):
        assert verify_partition(wd)["ok"]


def test_side_floor(coarse, medium):
    for ps, wd in (coarse, medium):
        assert wd.delta.min() >= ps.delta / 20.0


def test_matches_naive_enumerator(coarse):
    ps, wd = coarse
    squares, types = decompose_naive(ps)
    assert wd.n == len(squares)
    for i, q in enumerate(squares):
        assert (wd.levels[i], wd.ixs[i], wd.iys[i]) == (q.level, q.ix, q.iy)
        assert wd.type_codes[i] == types[i]


def test_cap_reported():
    tree = random_tree(N=2, depth=1, epsilon=0.05, seed=1)
    ps = build_planar_set(tree)
    with pytest.raises(WhitneyCapError) as err:
        decompose(ps, cap=100)
    assert err.value.needed > 100


def test_cz_lemma_fields(coarse, medium):
    for _, wd in (coarse, medium):
        rep = verify_cz(wd)
        assert rep["ok"], rep
        assert rep["max_neighbors"] <= 12


def test_cz_report_independent_of_row_chunks(monkeypatch):
    _, _, wd, _ = instance_geometry(canonical("n2d2-loose"))
    want = verify_cz(wd)
    assert wd.n > 100 * 1000
    monkeypatch.setattr(whitney, "VERIFY_CHUNK", 1000)
    assert verify_cz(wd) == want


@pytest.mark.parametrize("chunk", [0, 1, -1])
@pytest.mark.parametrize("end", [0, -1])
def test_cz_chunks_see_every_row(medium, monkeypatch, chunk, end):
    # a square two levels off planted in one touching list fails both pair
    # checks, at the first and the last row of a chunk that can hold it
    _, wd = medium
    monkeypatch.setattr(whitney, "VERIFY_CHUNK", 1000)
    n_chunks = -(-wd.n // 1000)
    assert n_chunks >= 3 and wd.n % 1000 != 0
    lo = 1000 * (chunk % n_chunks)
    rows = range(lo, min(lo + 1000, wd.n))
    for row in (rows if end == 0 else reversed(rows)):
        gap = np.abs(wd.levels[row + 1:] - wd.levels[row])
        if gap.size and gap.max() > 1:
            far = row + 1 + int(np.argmax(gap))
            break
    else:
        pytest.fail("no row of the chunk has a later square two levels off")
    bad = copy.copy(wd)
    bad.neighbors = wd.neighbors.copy()
    bad.neighbors[wd.neighbors_indptr[row + 1] - 1] = far
    rep = verify_cz(bad)
    assert not rep["ok"]
    assert not rep["neighbor_touch_ok"] and not rep["neighbor_ratio_ok"]


# -- neighbors ----------------------------------------------------------------

def test_neighbors_include_self(coarse, medium):
    for _, wd in (coarse, medium):
        src = np.repeat(np.arange(wd.n), np.diff(wd.neighbors_indptr))
        own = np.bincount(src[wd.neighbors == src], minlength=wd.n)
        assert np.all(own == 1)


def test_uniform_grid_interior_has_nine():
    wd = uniform_grid(3)
    counts = np.diff(wd.neighbors_indptr)
    inner = (wd.ixs > 0) & (wd.ixs < 7) & (wd.iys > 0) & (wd.iys < 7)
    assert np.all(counts[inner] == 9)
    corner = (wd.ixs == 0) & (wd.iys == 0)
    assert counts[corner] == [4]
    edge = (wd.ixs == 0) & (wd.iys == 3)
    assert counts[edge] == [6]


def test_touching_lists_are_int32(coarse, medium):
    for _, wd in (coarse, medium, (None, uniform_grid(3))):
        assert wd.neighbors.dtype == np.int32
        assert wd.neighbors_indptr[0] == 0
        assert wd.neighbors_indptr[-1] == wd.neighbors.size


def test_neighbors_match_dilate_oracle(coarse, medium):
    for _, wd in (coarse, medium):
        oracle = neighbors_naive(wd)
        for i in range(wd.n):
            lo, hi = wd.neighbors_indptr[i], wd.neighbors_indptr[i + 1]
            assert wd.neighbors[lo:hi].tolist() == sorted(oracle[i])


# -- classification -----------------------------------------------------------

def test_types_partition(coarse, medium):
    for _, wd in (coarse, medium):
        assert np.all(np.isin(wd.type_codes, [TYPE_I, TYPE_II, TYPE_III]))
        assert np.all((wd.type_codes == TYPE_I) == (wd.e1_witness >= 0))
        assert np.all((wd.type_codes == TYPE_II) == (wd.e2_witness >= 0))


def test_classify_witnesses(coarse):
    # each witness is a point of E in its square's closed 1.1-dilate
    ps, wd = coarse
    h = 0.55 * wd.delta + REL_TOL * wd.delta
    i1 = np.flatnonzero(wd.type_codes == TYPE_I)
    k = wd.e1_witness[i1]
    assert i1.size and np.all((0 <= k) & (k < ps.e1_count))
    assert np.all(np.abs(k * ps.delta - wd.cx[i1]) <= h[i1])
    assert np.all(np.abs(wd.cy[i1]) <= h[i1])
    i2 = np.flatnonzero(wd.type_codes == TYPE_II)
    j = wd.e2_witness[i2]
    assert i2.size and np.all((0 <= j) & (j < ps.n_e2))
    assert np.all(np.abs(ps.e2[j, 0] - wd.cx[i2]) <= h[i2])
    assert np.all(np.abs(ps.e2[j, 1] - wd.cy[i2]) <= h[i2])
    mb = wd.boundary
    assert np.all(wd.type_codes[mb] == TYPE_III)
    assert np.all(wd.e1_witness[mb] == -1) and np.all(wd.e2_witness[mb] == -1)


def test_boundary_lemma(coarse, medium):
    for _, wd in (coarse, medium):
        rep = verify_boundary(wd)
        assert rep["ok"], rep
        assert rep["min_side"] >= 1.0


def test_dist_bd_reported(coarse, medium):
    for _, wd in (coarse, medium):
        rep = verify_dist_bd(wd)
        assert rep["ok"]
        assert 0 < rep["ratio_min"] <= rep["ratio_max"] < 2.0


# -- basepoints ---------------------------------------------------------------

def test_boundary_basepoints(coarse):
    # frame squares take the two ends of the grid
    ps, wd = coarse
    mb = wd.boundary
    assert np.all(wd.kz[mb] == 0)
    assert np.all(wd.kw[mb] == ps.e1_count - 1)


def test_type1_basepoints_adjacent(coarse):
    _, wd = coarse
    i = np.flatnonzero(wd.type_codes == TYPE_I)
    assert i.size
    assert np.array_equal(wd.kz[i], wd.e1_witness[i])
    assert np.all(np.abs(wd.kw[i] - wd.kz[i]) == 1)


def test_basepoints_in_50Q(coarse, medium):
    for _, wd in (coarse, medium):
        rep = verify_basepoints(wd)
        assert rep["ok"], rep


def test_e2_anchor_example():
    # leaf at (0.5, 0.1) on a 0.01 grid: z below, w one height to the right
    tree = WeightedTree({"": 1.0, "0": 0.01, "1": 0.1, "2": 0.01},
                        N=3, epsilon=0.1)
    ps = build_planar_set(tree)
    assert ps.delta == 0.01
    j = ps.leaf_index["1"]
    assert np.array_equal(ps.e2[j], [0.5, 0.1])
    kz, kw = e2_anchor_indices(ps)
    assert kz[j] * ps.delta == pytest.approx(0.5, abs=1e-15)
    assert kw[j] * ps.delta == pytest.approx(0.6, abs=1e-12)


def _nearest_grid_index(ps, x):
    """Brute force over the materialized grid: the E1 index nearest to each
    x, ties toward smaller x."""
    d = np.abs(ps.e1_points()[None, :, 0] - x[:, None])
    return np.argmax(d == d.min(axis=1, keepdims=True), axis=1)


def test_e2_anchor_z_is_nearest_grid_index(medium):
    registry = build_planar_set(instance_tree(canonical("n2d2-loose")))
    # one E2 point halfway between the grid points 0.5 and 1.0
    tie = PlanarSet(delta=0.5, e1_count=4, e2=np.array([[0.75, 0.5]]),
                    leaf_ids=["0"], leaf_index={"0": 0})
    for ps in (medium[0], registry, tie):
        kz, _ = e2_anchor_indices(ps)
        assert np.array_equal(kz, _nearest_grid_index(ps, ps.e2[:, 0]))
    assert e2_anchor_indices(tie)[0].tolist() == [1]


def test_e2_anchor_spread_bound(medium):
    ps, _ = medium
    kz, kw = e2_anchor_indices(ps)
    gap = np.abs(kw - kz) * ps.delta
    y = ps.e2[:, 1]
    assert np.all(gap >= y - ps.delta - 1e-15)
    assert np.all(gap <= y + ps.delta + 1e-15)


# -- partition of unity ---------------------------------------------------------

def test_pou_is_one_deep_inside():
    wd = uniform_grid(3)
    row = int(np.flatnonzero((wd.ixs == 4) & (wd.iys == 4))[0])
    indptr, sq, th, *derivs = pou_table(wd, [[wd.cx[row], wd.cy[row]]])
    assert indptr.tolist() == [0, 1] and sq.tolist() == [row]
    assert th.tolist() == [1.0]
    assert all(t.tolist() == [0.0] for t in derivs)


def test_pou_support_in_dilate(medium):
    _, wd = medium
    rng = np.random.default_rng(3)
    pts = np.column_stack([rng.uniform(-3, 5, 500), rng.uniform(-3, 5, 500)])
    indptr, sq, th, *_ = pou_table(wd, pts)
    pt_idx = np.repeat(np.arange(500), np.diff(indptr))
    half = 0.55 * wd.delta[sq]
    assert np.all(np.abs(pts[pt_idx, 0] - wd.cx[sq]) <= half)
    assert np.all(np.abs(pts[pt_idx, 1] - wd.cy[sq]) <= half)
    assert np.all((th >= 0) & (th <= 1))


def test_pou_sums_to_one(coarse, medium):
    for _, wd in (coarse, medium):
        rng = np.random.default_rng(7)
        pts = np.column_stack([rng.uniform(-3, 5, 4000),
                               rng.uniform(-3, 5, 4000)])
        indptr, sq, th, tx, ty, txx, txy, tyy = pou_table(wd, pts)
        pt_idx = np.repeat(np.arange(4000), np.diff(indptr))
        sums = np.bincount(pt_idx, weights=th, minlength=4000)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12
        # derivatives of the constant sum vanish
        assert np.max(np.abs(np.bincount(pt_idx, weights=tx, minlength=4000))) \
            <= 1e-9 / wd.delta.min()


def test_pou_active_sets_complete(medium):
    _, wd = medium
    rng = np.random.default_rng(11)
    pts = np.column_stack([rng.uniform(-3, 5, 300), rng.uniform(-3, 5, 300)])
    indptr, sq, *_ = pou_table(wd, pts)
    for k in range(300):
        half = 0.55 * wd.delta
        brute = set(np.flatnonzero(
            (np.abs(pts[k, 0] - wd.cx) <= half) &
            (np.abs(pts[k, 1] - wd.cy) <= half)).tolist())
        assert set(sq[indptr[k]:indptr[k + 1]].tolist()) == brute


def _theta(wd, row, pts):
    """theta of square row and its derivatives (tx, ty, txx, txy, tyy) at
    each point, read from pou_table; zero where the square is not active."""
    indptr, sq, *vals = pou_table(wd, pts)
    pt = np.repeat(np.arange(pts.shape[0]), np.diff(indptr))
    hit = sq == row
    out = np.zeros((6, pts.shape[0]))
    out[:, pt[hit]] = np.array(vals)[:, hit]
    return out


def _fd_check(wd, row, pts, h=1e-5):
    f0, tx, ty, txx, txy, tyy = _theta(wd, row, pts)
    grad = np.column_stack([tx, ty])
    hess = np.stack([txx, txy, txy, tyy], axis=1).reshape(-1, 2, 2)
    f = lambda step: _theta(wd, row, pts + np.array(step))[0]
    fd_g = np.empty((pts.shape[0], 2))
    fd_h = np.empty((pts.shape[0], 2, 2))
    for a in range(2):
        e = np.zeros(2)
        e[a] = h
        fp, fm = f(e), f(-e)
        fd_g[:, a] = (fp - fm) / (2 * h)
        fd_h[:, a, a] = (fp - 2 * f0 + fm) / h ** 2
    fpp, fmm = f([h, h]), f([-h, -h])
    fpm, fmp = f([h, -h]), f([-h, h])
    fd_h[:, 0, 1] = fd_h[:, 1, 0] = (fpp - fpm - fmp + fmm) / (4 * h ** 2)
    worst_g = np.max(np.abs(fd_g - grad) / np.maximum(1.0, np.abs(grad)))
    worst_h = np.max(np.abs(fd_h - hess) / np.maximum(1.0, np.abs(hess)))
    return worst_g, worst_h


def test_pou_derivatives_match_finite_differences(coarse):
    _, wd = coarse
    rng = np.random.default_rng(5)
    rows = rng.choice(wd.n, size=6, replace=False)
    for row in rows:
        cx, cy, d = wd.cx[row], wd.cy[row], wd.delta[row]
        local = np.column_stack([
            rng.uniform(cx - 0.7 * d, cx + 0.7 * d, 25),
            rng.uniform(cy - 0.7 * d, cy + 0.7 * d, 25)])
        local = local[(np.abs(local[:, 0] + 3) > 1e-3) &
                      (np.abs(local[:, 1] + 3) > 1e-3)]
        local = np.clip(local, -2.999, 4.999)
        wg, wh = _fd_check(wd, row, local, h=1e-5 * d)
        assert wg <= 1e-4, wg
        assert wh <= 1e-4, wh


def staircase(top):
    """Corner refinement of Q0 down to level `top`: three squares per level
    plus the last corner square."""
    levels, ixs, iys = [], [], []
    for lv in range(1, top + 1):
        for dx, dy in ((1, 0), (0, 1), (1, 1)):
            levels.append(lv)
            ixs.append(dx)
            iys.append(dy)
    levels.append(top)
    ixs.append(0)
    iys.append(0)
    return levels, ixs, iys


@pytest.mark.parametrize("top", [20, 31])
def test_partition_exact_on_deep_staircase(top):
    """Regression: morton span arithmetic must stay 64-bit once the level
    shift passes 31 bits; level 31 is the deepest key the decomposition
    accepts."""
    levels, ixs, iys = staircase(top)
    wd = WhitneyDecomposition(None, np.array(levels), np.array(ixs),
                              np.array(iys))
    assert wd.max_level == top
    assert verify_partition(wd) == {"ok": True, "mode": "morton"}
    # dropping one square must break the chain
    wd2 = WhitneyDecomposition(None, np.array(levels[1:]), np.array(ixs[1:]),
                               np.array(iys[1:]))
    assert not verify_partition(wd2)["ok"]
    # closed squares touch iff both coordinate intervals meet; Python ints
    sides = [1 << (top - lv) for lv in wd.levels.tolist()]
    xs = [ix * s for ix, s in zip(wd.ixs.tolist(), sides)]
    ys = [iy * s for iy, s in zip(wd.iys.tolist(), sides)]
    for i in range(wd.n):
        lo, hi = wd.neighbors_indptr[i], wd.neighbors_indptr[i + 1]
        brute = {j for j in range(wd.n)
                 if xs[j] <= xs[i] + sides[i] and xs[i] <= xs[j] + sides[j]
                 and ys[j] <= ys[i] + sides[i] and ys[i] <= ys[j] + sides[j]}
        assert wd.neighbors[lo:hi].tolist() == sorted(brute)
    centres = np.column_stack([wd.cx, wd.cy])
    assert np.array_equal(wd.locate(centres), np.arange(wd.n))


def test_level_past_morton_key_refused():
    levels, ixs, iys = staircase(32)
    with pytest.raises(ValueError, match="level 32 .* limit 31"):
        WhitneyDecomposition(None, np.array(levels), np.array(ixs),
                             np.array(iys))


def _morton_int(x: int, y: int) -> int:
    return sum(((x >> b & 1) << 2 * b) | ((y >> b & 1) << 2 * b + 1)
               for b in range(MORTON_MAX_LEVEL))


def test_deepest_corner_stays_exact():
    """The top-right corner of Q0 refined down to level 31 (94 squares):
    indices reach 2^31 - 1 and corners plus sides reach 2^31, past the
    int32 columns, so every value derived from them must be widened first.
    Each is checked against Python integers."""
    top = MORTON_MAX_LEVEL
    levels, ixs, iys = staircase(top)
    # mirror the staircase into the top-right corner
    ixs = [(1 << v) - 1 - i for v, i in zip(levels, ixs)]
    iys = [(1 << v) - 1 - j for v, j in zip(levels, iys)]
    ps = PlanarSet(delta=0.25, e1_count=9, e2=np.zeros((0, 2)), leaf_ids=[],
                   leaf_index={})
    wd = WhitneyDecomposition(ps, np.array(levels), np.array(ixs),
                              np.array(iys))
    assert wd.n == 94 and wd.max_level == top
    lv, ix, iy = (a.tolist() for a in (wd.levels, wd.ixs, wd.iys))
    side = [1 << (top - v) for v in lv]
    x0 = [i * s for i, s in zip(ix, side)]
    y0 = [j * s for j, s in zip(iy, side)]
    start = [_morton_int(x, y) for x, y in zip(x0, y0)]
    for got, want in zip(whitney.finest_grid(wd), (x0, y0, side)):
        assert got.dtype == np.int64 and got.tolist() == want
    assert wd.morton_starts.tolist() == start
    end = [a + s * s for a, s in zip(start, side)]
    assert end[:-1] == start[1:] and end[-1] == 1 << 2 * top
    top_ix = [(1 << v) - 1 for v in lv]
    assert wd.boundary.tolist() == [i in (0, t) or j in (0, t) for i, j, t
                                    in zip(ix, iy, top_ix)]
    assert verify_partition(wd)["ok"]
    cz = verify_cz(wd)
    assert cz["neighbor_touch_ok"] and cz["neighbor_ratio_ok"]
    for i in range(wd.n):
        lo, hi = wd.neighbors_indptr[i], wd.neighbors_indptr[i + 1]
        brute = [j for j in range(wd.n)
                 if x0[j] <= x0[i] + side[i] and x0[i] <= x0[j] + side[j]
                 and y0[j] <= y0[i] + side[i] and y0[i] <= y0[j] + side[j]]
        assert wd.neighbors[lo:hi].tolist() == brute
    rows = np.arange(wd.n)
    cand, (dl, ox, oy, _, valid, height) = _configurations(
        wd, np.zeros(wd.n, dtype=np.int64), rows)
    assert height.tolist() == [8 * j + 4 - 3 * (1 << v)
                               for j, v in zip(iy, lv)]
    for i, j in zip(*np.nonzero(valid)):
        c = int(cand[i, j])
        assert dl[i, j] == lv[c] - lv[i]
        assert ox[i, j] == (4 * (x0[c] - x0[i]) + 2 * (side[c] - side[i])) \
            // side[i]
        assert oy[i, j] == (4 * (y0[c] - y0[i]) + 2 * (side[c] - side[i])) \
            // side[i]


# -- deep-point shortcut ----------------------------------------------------------

# offsets from a square's centre in units of its side: the deep bound 0.375,
# the band a larger neighbour's dilate reaches (from 0.4), the reach of an
# equal neighbour (from 0.45), faces and corners (0.5)
_OFFSETS = (0.0, 0.3, 0.375, 0.4, 0.42, 0.45, 0.48, 0.5)


def _probe_points(wd, rows):
    off = np.array(sorted({s * o for o in _OFFSETS for s in (-1.0, 1.0)}))
    ox, oy = np.meshgrid(off, off, indexing="ij")
    r = np.repeat(rows, ox.size)
    pts = np.column_stack([wd.cx[r] + np.tile(ox.ravel(), rows.size) * wd.delta[r],
                           wd.cy[r] + np.tile(oy.ravel(), rows.size) * wd.delta[r]])
    return pts[np.all((pts >= -3.0) & (pts < 5.0), axis=1)]


def _brute_active(wd, pts, chunk=256):
    """Every square whose closed 1.1-dilate holds the point, by a full scan
    with the same float test the table uses."""
    half = 0.55 * wd.delta
    out = []
    for lo in range(0, pts.shape[0], chunk):
        P = pts[lo:lo + chunk]
        hit = (np.abs(P[:, 0, None] - wd.cx[None, :]) <= half) & \
              (np.abs(P[:, 1, None] - wd.cy[None, :]) <= half)
        out += [np.flatnonzero(h) for h in hit]
    return out


def _assert_table_matches_brute_force(wd, pts):
    indptr, sq, th, tx, ty, txx, txy, tyy = pou_table(wd, pts)
    brute = _brute_active(wd, pts)
    counts = np.array([b.size for b in brute])
    assert np.array_equal(indptr, np.concatenate([[0], np.cumsum(counts)]))
    assert np.array_equal(sq, np.concatenate(brute))
    # theta from psi over the brute-force sets, summed per point in entry order
    pt = np.repeat(np.arange(pts.shape[0]), counts)
    psi = _psi_terms(wd, sq, pts[pt])[0]
    total = np.bincount(pt, weights=psi, minlength=pts.shape[0])
    assert np.array_equal(th, psi / total[pt])
    ones = indptr[:-1][counts == 1]
    for t in (tx, ty, txx, txy, tyy):
        assert np.all(t[ones] == 0.0)
    return counts == 1


@pytest.mark.parametrize("top", [20, 31])
def test_active_sets_match_dilate_scan_on_staircase(top):
    """Deep and shallow probes of every staircase square, whose neighbours
    are twice, equally and half as large."""
    levels, ixs, iys = staircase(top)
    wd = WhitneyDecomposition(None, np.array(levels), np.array(ixs),
                              np.array(iys))
    pts = _probe_points(wd, np.arange(wd.n))
    single = _assert_table_matches_brute_force(wd, pts)
    assert np.any(single) and not np.all(single)


def test_active_sets_match_dilate_scan_near_size_changes(medium):
    _, wd = medium
    src = np.repeat(np.arange(wd.n), np.diff(wd.neighbors_indptr))
    step = wd.levels[wd.neighbors] - wd.levels[src]
    larger, smaller = np.unique(src[step < 0]), np.unique(src[step > 0])
    assert larger.size and smaller.size
    rng = np.random.default_rng(13)
    rows = np.concatenate([rng.choice(larger, 40, replace=False),
                           rng.choice(smaller, 40, replace=False)])
    pts = _probe_points(wd, rows)
    single = _assert_table_matches_brute_force(wd, pts)
    assert np.any(single) and not np.all(single)


def test_locate_independent_of_batch_order(medium):
    _, wd = medium
    rng = np.random.default_rng(17)
    pts = np.vstack([rng.uniform(-3, 5, size=(3000, 2)),
                     _probe_points(wd, rng.choice(wd.n, 50, replace=False))])
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    rows = wd.locate(pts)
    perm = rng.permutation(pts.shape[0])
    assert np.array_equal(wd.locate(pts[perm]), rows[perm])
    h = 0.5 * wd.delta[rows]
    assert np.all(np.abs(pts[:, 0] - wd.cx[rows]) <= h)
    assert np.all(np.abs(pts[:, 1] - wd.cy[rows]) <= h)


# -- cell table ------------------------------------------------------------------

def _grid_coords(wd, pts):
    """Finest-level grid coordinates of points of Q0."""
    L = wd.max_level
    return [np.clip(np.floor((pts[:, k] - Q0_LO) * 2.0 ** L / Q0_SIDE),
                    0, 2 ** L - 1).astype(np.int64) for k in (0, 1)]


def _locate_oracle(wd, pts):
    gx, gy = _grid_coords(wd, pts)
    return np.searchsorted(wd.morton_starts, _morton(gx, gy), "right") - 1


def _walk_levels(wd):
    """The levels of the cells the table holds: the top level, then steps
    of CELL_STEP levels, the last one cut at max_level."""
    levels = [wd.cell_level]
    while levels[-1] < wd.max_level:
        levels.append(min(levels[-1] + whitney.CELL_STEP, wd.max_level))
    return levels


def _locate_probes(wd, n_squares=4000, n_lines=64, seed=23):
    """Points on top-cell edges and corners (and just below them), on the
    cell edges and corners of every walk level around random squares (and
    just below them), on the faces and corners of squares, at Q0_LO and
    just below Q0_HI, and uniform over Q0."""
    rng = np.random.default_rng(seed)
    below = np.nextafter(Q0_HI, -np.inf)
    k = 1 << wd.cell_level
    lines = Q0_LO + np.arange(k) * (Q0_SIDE / k)
    lines = rng.choice(lines, min(n_lines, k), replace=False)
    lines = np.concatenate([lines, np.nextafter(lines, -np.inf),
                            [Q0_LO, below]])
    lines = lines[(lines >= Q0_LO) & (lines < Q0_HI)]
    lx, ly = np.meshgrid(lines, lines, indexing="ij")
    free = rng.uniform(Q0_LO, Q0_HI, lines.size)
    rows = rng.choice(wd.n, min(n_squares, wd.n), replace=False)
    h = 0.5 * wd.delta[rows]
    sq = []
    for ox in (-1.0, 0.0, 1.0):
        for oy in (-1.0, 0.0, 1.0):
            sq.append(np.column_stack([wd.cx[rows] + ox * h,
                                       wd.cy[rows] + oy * h]))
    edges = []
    for lv in _walk_levels(wd)[1:]:
        # the lower and upper edges of each sampled centre's cell of level lv
        side = Q0_SIDE / 2.0 ** lv
        ex, ey = (Q0_LO + (np.floor((c - Q0_LO) / side) + [[0], [1]]) * side
                  for c in (wd.cx[rows], wd.cy[rows]))
        cx, cy = np.broadcast_to(wd.cx[rows], ex.shape), \
            np.broadcast_to(wd.cy[rows], ey.shape)
        for x, y in ((ex, cy), (cx, ey), (ex, ey)):
            e = np.column_stack([x.ravel(), y.ravel()])
            edges += [e, np.nextafter(e, -np.inf)]
    pts = np.vstack([np.column_stack([lx.ravel(), ly.ravel()]),
                     np.column_stack([lines, free]),
                     np.column_stack([free, lines]),
                     *sq, np.nextafter(sq[-1], -np.inf), *edges,
                     rng.uniform(Q0_LO, Q0_HI, (5000, 2))])
    return np.minimum(np.maximum(pts, Q0_LO), below)


def _assert_cell_table(wd):
    """Walk the whole table from the top block: it is int32, the top block
    holds at most 4 cells per square, the blocks tile the table, every row
    entry's square covers its cell and every pointer entry's cell is split
    by finer squares.  Returns the share of top cells that are covered."""
    L, c0 = wd.max_level, wd.cell_level
    assert wd.cells.dtype == np.int32
    assert 0 <= c0 <= wd.max_level
    assert 4 ** c0 <= 4 * wd.n
    # the entries of one walk level: table positions and cell corners
    at = np.arange(4 ** c0)
    ix, iy = at % (1 << c0), at >> c0
    seen = np.zeros(wd.cells.size, dtype=np.int64)
    for lv, finer in zip(_walk_levels(wd), _walk_levels(wd)[1:] + [None]):
        seen += np.bincount(at, minlength=seen.size)
        entry = wd.cells[at]
        side = 1 << (L - lv)
        gx, gy = ix * side, iy * side
        row = np.searchsorted(wd.morton_starts, _morton(gx, gy), "right") - 1
        x0, y0, sq_side = whitney.finest_grid(wd, row)
        covers = ((x0 <= gx) & (gx + side <= x0 + sq_side) &
                  (y0 <= gy) & (gy + side <= y0 + sq_side))
        assert np.array_equal(entry >= 0, covers)
        assert np.array_equal(entry[covers], row[covers])
        if lv == c0:
            top_covered = covers.mean()
        if finer is None:
            assert np.all(covers)
            break
        # each split cell owns a block of 4^(finer - lv) cells, in Morton order
        k = np.arange(4 ** (finer - lv))
        dx, dy = whitney._compact_bits(k), whitney._compact_bits(k >> 1)
        split = ~covers
        at = (~entry[split][:, None] + k).ravel()
        ix = ((ix[split] << (finer - lv))[:, None] + dx).ravel()
        iy = ((iy[split] << (finer - lv))[:, None] + dy).ravel()
    assert np.all(seen == 1)
    return top_covered


def _assert_locate_matches_oracle(wd, pts):
    rows = wd.locate(pts)
    assert np.array_equal(rows, _locate_oracle(wd, pts))
    # containment up to the rounding of the grid conversion at faces
    h = 0.5 * wd.delta[rows] + 1e-14
    assert np.all(np.abs(pts[:, 0] - wd.cx[rows]) <= h)
    assert np.all(np.abs(pts[:, 1] - wd.cy[rows]) <= h)
    # the share of points whose top cell finer squares split
    gx, gy = _grid_coords(wd, pts)
    s = wd.max_level - wd.cell_level
    return np.mean(wd.cells[((gy >> s) << wd.cell_level) | (gx >> s)] < 0)


def test_locate_matches_search_on_registry_instance():
    wd = instance_geometry(canonical("n2d2-loose"))[2]
    assert _assert_cell_table(wd) > 0.99
    split = _assert_locate_matches_oracle(wd, _locate_probes(wd))
    assert 0.0 < split < 1.0


def test_locate_matches_search_on_medium(medium):
    _, wd = medium
    assert (wd.max_level - wd.cell_level) % 2 == 0
    _assert_cell_table(wd)
    split = _assert_locate_matches_oracle(wd, _locate_probes(wd))
    assert 0.0 < split < 1.0


@pytest.mark.parametrize("top", [20, 31])
def test_locate_matches_search_on_staircase(top):
    """Few squares give a coarse top level, so the probes of the deep
    corner squares walk many levels; max_level - cell_level is odd, so the
    last step is one level (on `medium` it is even)."""
    levels, ixs, iys = staircase(top)
    wd = WhitneyDecomposition(None, np.array(levels), np.array(ixs),
                              np.array(iys))
    assert wd.cell_level < 6 and (top - wd.cell_level) % 2 == 1
    _assert_cell_table(wd)
    split = _assert_locate_matches_oracle(wd, _locate_probes(wd))
    assert 0.0 < split < 1.0


def test_locate_when_cells_are_the_squares():
    """A uniform grid has fewer levels than 4n allows: the top level is the
    square level, the table is the top block alone and every point reads
    its row there."""
    wd = uniform_grid(3)
    assert wd.cell_level == wd.max_level == 3
    assert _assert_cell_table(wd) == 1.0
    assert wd.cells.size == 64
    assert np.array_equal(wd.cells[(wd.iys << 3) | wd.ixs], np.arange(wd.n))
    assert _assert_locate_matches_oracle(wd, _locate_probes(wd)) == 0.0


@pytest.mark.parametrize("n_pts", [0, 1])
def test_locate_empty_and_single_point(medium, n_pts):
    _, wd = medium
    # a point in the finest square, which walks every level
    deep = int(np.argmax(wd.levels))
    pts = np.array([[wd.cx[deep], wd.cy[deep]]])[:n_pts]
    rows = wd.locate(pts)
    assert rows.dtype == np.int64 and rows.shape == (n_pts,)
    assert np.array_equal(rows, _locate_oracle(wd, pts))
    assert rows.tolist() == [deep][:n_pts]


# -- E2 window queries -------------------------------------------------------------

def _dense_e2_count(ps, cx, cy, delta, r):
    """#(rQ cap E2) and the lowest row hit, from a full square-by-point mask."""
    h = 0.5 * r * delta + REL_TOL * delta
    mask = ((np.abs(ps.e2[None, :, 0] - cx[:, None]) <= h[:, None]) &
            (np.abs(ps.e2[None, :, 1] - cy[:, None]) <= h[:, None]))
    first = np.full(cx.shape[0], -1, dtype=np.int64)
    hit = mask.any(axis=1)
    first[hit] = np.argmax(mask[hit], axis=1)
    return mask.sum(axis=1), first


def _dense_dist_bd(wd):
    """verify_dist_bd with every square measured against every E2 point."""
    ps = wd.ps
    h = 0.5 * wd.delta
    x0, x1 = wd.cx - h, wd.cx + h
    y0, y1 = wd.cy - h, wd.cy + h
    d1 = dist_to_e1(ps, x0, y0, x1, y1)
    r = wd.delta / (ps.delta + d1)
    de = d1
    for ex, ey in ps.e2:
        dx = np.maximum(0.0, np.maximum(ex - x1, x0 - ex))
        dy = np.maximum(0.0, np.maximum(ey - y1, y0 - ey))
        de = np.minimum(de, np.hypot(dx, dy))
    m3 = (wd.type_codes == TYPE_III) & ~wd.boundary
    out = {"ratio_min": float(r.min()), "ratio_max": float(r.max())}
    if np.any(m3):
        q = wd.delta[m3] / de[m3]
        out["type3_ratio_min"] = float(q.min())
        out["type3_ratio_max"] = float(q.max())
    out["ok"] = np.isfinite(out["ratio_max"]) and out["ratio_min"] > 0
    return out


def _assert_e2_counts_match_dense(ps, cx, cy, delta):
    for r in (1.1, 3.0):
        _, n2, _, first = _count_in_dilates(ps, cx, cy, delta, r, chunk=1000)
        want_n2, want_first = _dense_e2_count(ps, cx, cy, delta, r)
        assert np.array_equal(n2, want_n2)
        assert np.array_equal(first, want_first)


def _e2_refined(ps, max_level):
    """Type-classified decomposition of Q0 that splits every square whose
    3-dilate holds a point of E2, down to max_level; E1 is ignored, so deep
    trees stay small.  Squares whose closed square holds no point of E are
    marked Type III for the distance report."""
    ex, ey = ps.e2[:, 0], ps.e2[:, 1]
    done, lv = [], 0
    ixs = iys = np.zeros(1, dtype=np.int64)
    while ixs.size:
        d = Q0_SIDE * 2.0 ** -lv
        cx, cy = Q0_LO + (ixs + 0.5) * d, Q0_LO + (iys + 0.5) * d
        split = np.any((np.abs(ex - cx[:, None]) <= 1.5 * d) &
                       (np.abs(ey - cy[:, None]) <= 1.5 * d), axis=1)
        split &= lv < max_level
        done.append((np.full(int((~split).sum()), lv), ixs[~split],
                     iys[~split]))
        sx, sy = ixs[split], iys[split]
        ixs = np.repeat(sx * 2, 4) + np.tile([0, 1, 0, 1], sx.size)
        iys = np.repeat(sy * 2, 4) + np.tile([0, 0, 1, 1], sx.size)
        lv += 1
    wd = WhitneyDecomposition(ps, *(np.concatenate(c) for c in zip(*done)))
    h = 0.5 * wd.delta
    holds = np.any((np.abs(ex - wd.cx[:, None]) <= h[:, None]) &
                   (np.abs(ey - wd.cy[:, None]) <= h[:, None]), axis=1)
    holds |= dist_to_e1(ps, wd.cx - h, wd.cy - h, wd.cx + h, wd.cy + h) == 0
    wd.type_codes = np.where(holds, TYPE_II, TYPE_III).astype(np.int8)
    return wd


@pytest.fixture(scope="module")
def thirteen():
    """random_tree(3, 3, 0.05, 1): 13 leaves, whose full decomposition has
    1.9M squares; the E2-refined one keeps the tests small."""
    ps = build_planar_set(random_tree(N=3, depth=3, epsilon=0.05, seed=1))
    assert ps.n_e2 == 13
    return ps, _e2_refined(ps, 18)


def _edge_squares(ps, r):
    """Squares whose r-dilate edge falls on an E2 x or y, within REL_TOL of
    the side and within a few ulps, at several sizes."""
    h_of = lambda d: 0.5 * r * d + REL_TOL * d      # as the counter forms it
    cx, cy, delta = [], [], []
    for d in Q0_SIDE * 2.0 ** -np.arange(2, 30, 3):
        for ex, ey in ps.e2:
            h = h_of(d)
            for t in (-2e-12, -1e-12, -1e-13, 0.0, 1e-13, 1e-12, 2e-12):
                for sx, sy in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)):
                    cx.append(ex - sx * h * (1 + t))
                    cy.append(ey - sy * h * (1 + t))
                    delta.append(d)
            # a window bound a few ulps either side of the point
            for side in (1.0, -1.0):
                c = ex - side * h
                for k in range(-4, 5):
                    cx.append(c + k * np.spacing(c))
                    cy.append(ey)
                    delta.append(d)
    return np.array(cx), np.array(cy), np.array(delta)


def test_e2_counts_match_dense_mask_on_registry_instance():
    ps, wd = instance_geometry(canonical("n2d2-loose"))[1:3]
    _assert_e2_counts_match_dense(ps, wd.cx, wd.cy, wd.delta)


def test_e2_counts_match_dense_mask_on_thirteen_leaves(thirteen):
    """The squares and their ancestors up to Q0, which sees every point."""
    ps, wd = thirteen
    lv, ix, iy = [wd.levels], [wd.ixs], [wd.iys]
    while lv[-1].max() > 0:
        up = lv[-1] > 0
        lv.append(lv[-1] - up)
        ix.append(ix[-1] >> up)
        iy.append(iy[-1] >> up)
    delta = Q0_SIDE * 2.0 ** -np.concatenate(lv)
    cx = Q0_LO + (np.concatenate(ix) + 0.5) * delta
    cy = Q0_LO + (np.concatenate(iy) + 0.5) * delta
    _assert_e2_counts_match_dense(ps, cx, cy, delta)
    _, n2, _, _ = _count_in_dilates(ps, cx, cy, delta, 1.1)
    assert n2.max() == 13


@pytest.mark.parametrize("r", [1.1, 3.0])
def test_e2_counts_match_dense_mask_on_window_edges(thirteen, r):
    ps, _ = thirteen
    cx, cy, delta = _edge_squares(ps, r)
    _assert_e2_counts_match_dense(ps, cx, cy, delta)
    _, n2, _, _ = _count_in_dilates(ps, cx, cy, delta, r)
    assert 0 < np.count_nonzero(n2) < n2.size


def test_e2_counts_without_e2():
    ps = PlanarSet(delta=0.25, e1_count=9, e2=np.zeros((0, 2)), leaf_ids=[],
                   leaf_index={})
    wd = decompose(ps)
    n1, n2, e1f, e2f = _count_in_dilates(ps, wd.cx, wd.cy, wd.delta, 1.1)
    assert not n2.any() and np.all(e2f == -1)
    assert np.array_equal(wd.type_codes == TYPE_I, n1 == 1)
    assert verify_dist_bd(wd) == _dense_dist_bd(wd)


def test_dist_bd_matches_dense_scan(coarse, medium, thirteen):
    registry = instance_geometry(canonical("n2d2-loose"))[2]
    for wd in (coarse[1], medium[1], thirteen[1], registry):
        rep = verify_dist_bd(wd)
        assert "type3_ratio_min" in rep
        assert rep == _dense_dist_bd(wd)


def test_e2_queries_refuse_unsorted_rows(medium):
    ps, wd = medium
    flipped = PlanarSet(delta=ps.delta, e1_count=ps.e1_count,
                        e2=ps.e2[::-1].copy(), leaf_ids=ps.leaf_ids[::-1],
                        leaf_index={})
    with pytest.raises(ValueError, match="sorted by x"):
        _count_in_dilates(flipped, wd.cx, wd.cy, wd.delta, 1.1)
    with pytest.raises(ValueError, match="sorted by x"):
        decompose(flipped)
    wd_flipped = WhitneyDecomposition(flipped, wd.levels, wd.ixs, wd.iys)
    with pytest.raises(ValueError, match="sorted by x"):
        verify_dist_bd(wd_flipped)


def test_pou_table_takes_known_home_rows(medium):
    _, wd = medium
    pts = np.random.default_rng(5).uniform(Q0_LO, Q0_HI, (4000, 2))
    home = wd.locate(pts)
    for got, want in zip(active_table(wd, pts, home), active_table(wd, pts)):
        assert np.array_equal(got, want)
    for got, want in zip(pou_table(wd, pts, home), pou_table(wd, pts)):
        assert np.array_equal(got, want)


# -- memory -------------------------------------------------------------------

_COLUMN_DTYPES = {
    "levels": np.int8, "ixs": np.int32, "iys": np.int32,
    "morton_starts": np.int64, "delta": np.float64, "cx": np.float64,
    "cy": np.float64, "type_codes": np.int8, "e1_witness": np.int32,
    "e2_witness": np.int32, "boundary": np.bool_,
    "neighbors_indptr": np.int32, "neighbors": np.int32, "kz": np.int32,
    "kw": np.int32, "cells": np.int32}


def test_decomposition_columns_are_lean():
    """Every stored column has its pinned dtype, no other array is stored,
    and the columns derivable from (levels, ixs, iys) are not stored."""
    _, _, wd, ct = instance_geometry(canonical("n2d1-loose"))
    arrays = {k: v.dtype for k, v in vars(wd).items()
              if isinstance(v, np.ndarray)}
    assert arrays == _COLUMN_DTYPES
    for name in ("morton_ends", "x0i", "y0i", "sidei"):
        assert not hasattr(wd, name)
    assert ct.square_cluster.dtype == np.int32


def test_touching_graph_memory_budget():
    """Traced peaks per square on a fresh n2d2-loose build, and the
    decomposition's size at rest.  Expanding every touching entry as an
    int64 (src, dst) pair costs about 546, 282 and 225 B/square at the three
    stages; the int32 lists from one in-place key sort, the row chunks of
    `verify_cz` and `pair_sets` on the cluster boundary rows take about
    303, 121 and 1.  With four columns derived and the index columns
    narrowed, decompose peaks at about 217 B/square and the decomposition
    holds about 114 at rest, against 303 and 177 with the four columns
    stored and the index columns int64.  The child blocks of the cell table
    add about 6.6 to both (224 and 120)."""
    tree = instance_tree(canonical("n2d2-loose"))
    ps = build_planar_set(tree)
    ct = build_clusters(tree, ps, kappa=10.25)
    tracemalloc.start()
    try:
        def extra(fn):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = fn()
            return out, tracemalloc.get_traced_memory()[1] - held
        wd, decompose_peak = extra(lambda: decompose(ps))
        _, cz_peak = extra(lambda: verify_cz(wd))
        assign_clusters(ct, wd)
        _, pair_peak = extra(lambda: pair_sets(ct, wd))
    finally:
        tracemalloc.stop()
    assert wd.n == 262_333
    at_rest = sum(v.nbytes for v in vars(wd).values()
                  if isinstance(v, np.ndarray))
    assert at_rest / wd.n < 125
    assert decompose_peak / wd.n < 240
    assert cz_peak / wd.n < 200
    assert pair_peak / wd.n < 100
