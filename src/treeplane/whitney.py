"""Whitney decomposition of Q0 = [-3,5)^2 relative to the planar boundary set.

A dyadic square splits while its 3-dilate sees two or more points of
E = E1 union E2; the surviving squares partition Q0 exactly (all square
arithmetic is integer), each sees at most one point in its 1.1-dilate, and the
side lengths stay above Delta/20.  On top of the decomposition this module
builds the touching graph, the I/II/III classification with witnesses, the
basepoint pairs on the grid E1 (stored as grid indices), and a C2 partition
of unity subordinate to the 1.1-dilates with analytic first and second
derivatives.

Conventions.  Dilates rQ are closed; point-membership predicates get a
1e-12 * side outward slack because E2 coordinates are floats, while
square-square predicates are exact in scaled integers (side * 20 makes the
1.1-dilate corners integral).  The touching relation is computed from shared
boundary: one sweep over vertical face lines finds face and corner contacts,
one over horizontal face lines finds the remaining face contacts, so each
touching pair is found exactly once.  That it coincides with "1.1-dilates
intersect" is rechecked on small instances against the brute-force
`treeplane.oracles.neighbors_naive`.

E is never scanned whole.  E1 is counted by arithmetic on its grid.  E2 is
sorted by x (psi increases along the leaves), so two `searchsorted` calls
give each square the contiguous run of E2 points inside its x-window, and
only those pairs meet the float predicates; counts, witnesses and distances
are those of a dense square-by-point scan.

Point lookups do work only where squares overlap.  `locate` reads the
containing square of most points from a table over the dyadic cells of one
coarse level, at most four cells per square; only points in a cell that
finer squares split fall back to a search of the sorted Morton codes.  A
touching square is at most twice as large, so its 1.1-dilate reaches at
most 0.1 * delta into a square: a point more than that inside its
containing square has that square as its only active one, with theta = 1
and vanishing derivatives, and skips both the touching-list scan and the
psi algebra.
"""

from __future__ import annotations

import numpy as np

from .embedding import PlanarSet

Q0_LO = -3.0
Q0_HI = 5.0
Q0_SIDE = 8.0
REL_TOL = 1e-12
SQUARE_CAP = 5 * 10 ** 6
K0 = 50.0
MORTON_MAX_LEVEL = 31
# rows per chunk when a verifier scans the touching lists
VERIFY_CHUNK = 16_384

TYPE_I, TYPE_II, TYPE_III = 1, 2, 3


class WhitneyCapError(RuntimeError):
    """Square budget exhausted; carries the size the run would need."""

    def __init__(self, needed: int, cap: int):
        super().__init__(
            f"decomposition needs more than {needed} squares (cap {cap}); "
            f"raise the cap or coarsen the tree")
        self.needed = needed
        self.cap = cap


# -- Morton codes --------------------------------------------------------------

def _spread_bits(v: np.ndarray) -> np.ndarray:
    v = v.astype(np.int64)
    v = (v | (v << 16)) & 0x0000FFFF0000FFFF
    v = (v | (v << 8)) & 0x00FF00FF00FF00FF
    v = (v | (v << 4)) & 0x0F0F0F0F0F0F0F0F
    v = (v | (v << 2)) & 0x3333333333333333
    v = (v | (v << 1)) & 0x5555555555555555
    return v


def _morton(ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
    return _spread_bits(ix) | (_spread_bits(iy) << 1)


# -- E counting ----------------------------------------------------------------

def _e1_count_interval(ps: PlanarSet, lo: np.ndarray, hi: np.ndarray):
    """Vectorized #(E1 cap [lo,hi] x {0}) plus the first index k0, with
    membership judged on the rounded float k*delta, so both agree bit for
    bit with a scan of the materialized grid; k0 is meaningful only where
    the count is positive."""
    d = ps.delta
    k0 = np.maximum(0, np.ceil(lo / d).astype(np.int64) - 2)
    k1 = np.minimum(ps.e1_count - 1, np.floor(hi / d).astype(np.int64) + 2)
    for _ in range(4):
        k0 = k0 + ((k0 <= k1) & (k0 * d < lo))
    for _ in range(4):
        k1 = k1 - ((k0 <= k1) & (k1 * d > hi))
    count = np.maximum(0, k1 - k0 + 1)
    return count, k0


def _e2_sorted(ps: PlanarSet) -> tuple[np.ndarray, np.ndarray]:
    """E2 x and y columns, refusing an E2 not sorted by x: the window
    queries below take contiguous runs of rows.  psi increases along the
    sorted leaves, so `build_planar_set` always yields sorted rows
    (`verify_lemma_psi` reports the order)."""
    ex, ey = ps.e2[:, 0], ps.e2[:, 1]
    if not np.all(ex[1:] >= ex[:-1]):
        raise ValueError("E2 rows must be sorted by x for the window queries")
    return ex, ey


def run_indices(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat indices of the runs [start, start + count), run after run: each
    entry is its run's start plus its rank in the run."""
    return (np.repeat(starts - np.cumsum(counts) + counts, counts) +
            np.arange(np.sum(counts)))


def touching_pairs(wd: WhitneyDecomposition, rows: np.ndarray):
    """(src, dst) over the touching lists of the ascending rows, list after
    list, so the pairs come in the order of a scan over all rows.  The lists
    are stored as int32; dst comes back as int64 because numpy gathers
    through int32 indices on a slow path."""
    ip = wd.neighbors_indptr
    cnt = ip[rows + 1] - ip[rows]
    return (np.repeat(rows, cnt),
            wd.neighbors[run_indices(ip[rows], cnt)].astype(np.int64))


def _e2_candidates(ex: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """(query, E2 row) pairs with lo <= x <= hi, grouped by query and
    ascending in row.  Each window is widened by 1e-9 of |lo| + |hi|, far
    above the rounding of any float predicate the callers then apply to the
    candidates, so the pairs are a superset and the answers stay exact."""
    pad = 1e-9 * (np.abs(lo) + np.abs(hi))
    a = np.searchsorted(ex, lo - pad, side="left")
    cnt = np.searchsorted(ex, hi + pad, side="right") - a
    # most windows are empty: expand only the others
    q = np.flatnonzero(cnt)
    a, cnt = a[q], cnt[q]
    return np.repeat(q, cnt), run_indices(a, cnt)


def _count_in_dilates(ps: PlanarSet, cx, cy, delta, r, chunk=200_000):
    """#(rQ cap E1), #(rQ cap E2) and the E2 witness row for square batches.

    E1 is counted by grid arithmetic; E2 is tested only inside each square's
    x-window, with the same predicate as a dense square-by-point mask, and
    the witness is the lowest row hit, as `argmax` over that mask gives."""
    n = cx.shape[0]
    tol = REL_TOL * delta
    h = 0.5 * r * delta + tol
    n1 = np.zeros(n, dtype=np.int64)
    e1_first = np.full(n, -1, dtype=np.int64)
    hit_y = np.abs(cy) <= h
    if np.any(hit_y):
        cnt, k0 = _e1_count_interval(ps, (cx - h)[hit_y], (cx + h)[hit_y])
        n1[hit_y] = cnt
        first = np.where(cnt > 0, k0, -1)
        e1_first[hit_y] = first
    n2 = np.zeros(n, dtype=np.int64)
    e2_first = np.full(n, -1, dtype=np.int64)
    ex, ey = _e2_sorted(ps)
    for s in range(0, n, chunk):
        e = min(n, s + chunk)
        bx, by, bh = cx[s:e], cy[s:e], h[s:e]
        i, j = _e2_candidates(ex, bx - bh, bx + bh)
        hit = (np.abs(ex[j] - bx[i]) <= bh[i]) & (np.abs(ey[j] - by[i]) <= bh[i])
        i, j = i[hit], j[hit]
        n2[s:e] = np.bincount(i, minlength=e - s)
        # rows ascend within a square: its first pair is the lowest row hit
        hit_sq, first = np.unique(i, return_index=True)
        e2_first[s + hit_sq] = j[first]
    return n1, n2, e1_first, e2_first


# -- decomposition -------------------------------------------------------------

class WhitneyDecomposition:
    """Parallel arrays over the squares, sorted by Morton code.

    levels/ixs/iys define the squares; delta/cx/cy are derived floats;
    type_codes hold 1/2/3 with witnesses e1_witness (grid index, Type I) and
    e2_witness (E2 row, Type II); boundary marks squares touching the frame.
    neighbors_indptr/neighbors gives the touching lists (self included).
    Base points kz/kw are grid indices into E1 (the points k * ps.delta on
    the axis), chosen per square type.  cells (`_cell_table`) holds, for
    each dyadic cell of level cell_level in Morton order, the row of the
    square containing it, or -1 where finer squares split it.
    """

    def __init__(self, ps: PlanarSet | None, levels, ixs, iys):
        self.max_level = int(np.max(levels))
        if self.max_level > MORTON_MAX_LEVEL:
            # keys are two interleaved level-L coordinates in one int64
            raise ValueError(
                f"square level {self.max_level} exceeds the Morton key limit "
                f"{MORTON_MAX_LEVEL}")
        self.ps = ps
        # the sort key, sorted, is morton_starts; rebinding frees the
        # unsorted copy before the touching graph takes its peak
        self.morton_starts = _morton_padded(levels, ixs, iys)
        order = np.argsort(self.morton_starts, kind="stable")
        self.morton_starts = self.morton_starts[order]
        self.levels = levels[order].astype(np.int32)
        self.ixs = ixs[order].astype(np.int64)
        self.iys = iys[order].astype(np.int64)
        self.n = self.levels.shape[0]
        self.delta = Q0_SIDE * np.exp2(-self.levels.astype(np.float64))
        self.cx = Q0_LO + (self.ixs + 0.5) * self.delta
        self.cy = Q0_LO + (self.iys + 0.5) * self.delta
        # int64 arithmetic: the shift reaches 2 * max_level bits on deep grids
        span = np.int64(1) << (2 * (self.max_level -
                                    self.levels.astype(np.int64)))
        self.morton_ends = self.morton_starts + span
        side = 1 << (self.max_level - self.levels.astype(np.int64))
        self.x0i = self.ixs * side      # corners at the finest-level grid
        self.y0i = self.iys * side
        self.sidei = side
        self.type_codes = np.zeros(self.n, dtype=np.int8)
        self.e1_witness = np.full(self.n, -1, dtype=np.int64)
        self.e2_witness = np.full(self.n, -1, dtype=np.int64)
        top = (1 << self.levels.astype(np.int64)) - 1
        self.boundary = ((self.ixs == 0) | (self.iys == 0) |
                         (self.ixs == top) | (self.iys == top))
        self.neighbors_indptr, self.neighbors = _touching_graph(
            self.x0i, self.y0i, self.sidei)
        self.kz = np.full(self.n, -1, dtype=np.int64)
        self.kw = np.full(self.n, -1, dtype=np.int64)
        # at most 4 cells per square: 4^cell_level <= 4n
        self.cell_level = min(self.max_level,
                              ((4 * self.n).bit_length() - 1) // 2)
        self.cells = _cell_table(self.levels, self.ixs, self.iys,
                                 self.cell_level)
        self._cell_spread = _spread_bits(
            np.arange(1 << self.cell_level)).astype(np.int32)

    # -- lookups ---------------------------------------------------------

    def locate(self, pts: np.ndarray) -> np.ndarray:
        """Row of the square containing each point (points must lie in Q0).

        The finest-level grid coordinates, shifted down to the cell level,
        index the cell table; a point in a cell of a square of level at most
        cell_level reads its row there.  The rest (cells that finer squares
        split) have their Morton codes looked up in sorted order and the
        rows scattered back: a sorted query walks `morton_starts` in one
        direction, which costs far less than a random-order binary search.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        L = self.max_level
        scale = (1 << L) / Q0_SIDE
        cx = np.clip(((pts[:, 0] - Q0_LO) * scale).astype(np.int64),
                     0, (1 << L) - 1)
        cy = np.clip(((pts[:, 1] - Q0_LO) * scale).astype(np.int64),
                     0, (1 << L) - 1)
        s = L - self.cell_level
        spread = self._cell_spread
        cell = spread.take(cx >> s) | (spread.take(cy >> s) << 1)
        rows = self.cells.take(cell).astype(np.int64)
        split = np.flatnonzero(rows < 0)
        codes = _morton(cx[split], cy[split])
        order = np.argsort(codes)
        rows[split[order]] = np.searchsorted(self.morton_starts, codes[order],
                                             side="right") - 1
        return rows


def _morton_padded(levels, ixs, iys) -> np.ndarray:
    shift = int(levels.max()) - levels.astype(np.int64)
    return _morton(ixs.astype(np.int64) << shift, iys.astype(np.int64) << shift)


def _cell_table(levels, ixs, iys, cell_level: int) -> np.ndarray:
    """int32 row of the square containing each dyadic cell of level
    cell_level, in Morton order, or -1 where squares of finer levels split
    the cell.  Squares of one level lv <= cell_level each cover one block of
    4^(cell_level - lv) consecutive cells, a row of the table viewed as
    (4^lv, 4^(cell_level - lv)), so each level is one broadcast write."""
    cells = np.full(1 << (2 * cell_level), -1, dtype=np.int32)
    for lv in range(cell_level + 1):
        rows = np.flatnonzero(levels == lv)
        if rows.size:
            cells.reshape(1 << (2 * lv), -1)[_morton(ixs[rows], iys[rows])] = \
                rows[:, None]
    return cells


def _touching_graph(x0, y0, side):
    """CSR touching lists (self included, ascending) from two exact sweeps
    over shared face lines that between them find each touching pair once.

    Two interior-disjoint axis-aligned squares intersect iff a right face
    meets a left face or a top face meets a bottom face.  The vertical-face
    sweep takes closed overlap along y, so it also finds the corner contacts;
    the horizontal-face sweep takes open overlap along x, so it finds only
    squares sharing a horizontal face of positive length.

    The lists are int32 (rows stay below 2^31 for any square cap up to
    2^31).  No entry is held as an int64 (src, dst) pair: each sweep keeps
    its pairs as int32, one int64 key src * n + dst per entry goes into a
    single array that is sorted and reduced to dst in place, and the row
    pointers are where the keys cross multiples of n.
    """
    n = x0.shape[0]
    pairs = [_face_pairs(x0, x0 + side, y0, y0 + side, True),
             _face_pairs(y0, y0 + side, x0, x0 + side, False)]
    keys = np.empty(n + 2 * sum(plus.size for plus, _ in pairs),
                    dtype=np.int64)
    keys[:n] = np.arange(n, dtype=np.int64) * (n + 1)    # self pairs
    at = n
    for plus, minus in pairs:
        for s, d in ((plus, minus), (minus, plus)):
            seg = keys[at:at + s.size]
            np.multiply(s, n, out=seg, dtype=np.int64)
            seg += d
            at += s.size
    del pairs, plus, minus, s, d, seg    # the pairs live on as keys
    # rows ascending by (src, dst)
    keys.sort()
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    np.remainder(keys, n, out=keys)
    return indptr, keys.astype(np.int32)


def _face_pairs(a_lo, a_hi, b, b_hi, closed):
    """int32 (plus, minus) rows of the squares whose "plus" face at a_hi
    meets the "minus" face at a_lo of another square on the same line,
    with b-overlap closed or open; the sweep's temporaries die on return."""
    n = a_lo.shape[0]
    # coordinates are at most 2^31, so the keys stay below 2^62 + 2^32
    key_shift = int(np.max(a_hi)) + 1
    order_minus = np.argsort(a_lo * key_shift + b,
                             kind="stable").astype(np.int32)
    minus_line = a_lo[order_minus]
    # within a line the b-intervals are disjoint, so b0 and b1 are both sorted
    comp0 = minus_line * key_shift + b[order_minus]
    comp1 = minus_line * key_shift + b_hi[order_minus]
    # closed: b1_j >= b_i and b0_j <= b1_i; open: both strict
    lo_idx = np.searchsorted(comp1, a_hi * key_shift + b,
                             side="left" if closed else "right")
    hi_idx = np.searchsorted(comp0, a_hi * key_shift + b_hi,
                             side="right" if closed else "left")
    counts = np.maximum(0, hi_idx - lo_idx)
    plus = np.repeat(np.arange(n, dtype=np.int32), counts)
    minus = order_minus[run_indices(lo_idx, counts)]
    return plus, minus


def decompose(ps: PlanarSet, cap: int = SQUARE_CAP) -> WhitneyDecomposition:
    """Whitney decomposition of Q0 relative to E, with types and basepoints.

    Splits while the closed 3-dilate contains two or more points of E; counts
    are arithmetic on the E1 grid plus a test of the E2 points in each
    square's x-window, found by `searchsorted`.  Raises WhitneyCapError when
    the square budget runs out.
    """
    if ps.n_e2 + min(ps.e1_count, 2) < 2:
        raise ValueError("need at least 2 points in E")
    done_lv, done_ix, done_iy = [], [], []
    lv = 0
    ixs = np.zeros(1, dtype=np.int64)
    iys = np.zeros(1, dtype=np.int64)
    total = 0
    while ixs.size:
        delta = Q0_SIDE * 2.0 ** -lv
        cx = Q0_LO + (ixs + 0.5) * delta
        cy = Q0_LO + (iys + 0.5) * delta
        n1, n2, _, _ = _count_in_dilates(ps, cx, cy, np.full(ixs.shape, delta), 3.0)
        keep = (n1 + n2) <= 1
        done_lv.append(np.full(int(keep.sum()), lv, dtype=np.int32))
        done_ix.append(ixs[keep])
        done_iy.append(iys[keep])
        total += int(keep.sum())
        sx, sy = ixs[~keep], iys[~keep]
        if total + 4 * sx.size > cap:
            raise WhitneyCapError(total + 4 * sx.size, cap)
        ixs = np.repeat(sx * 2, 4) + np.tile([0, 1, 0, 1], sx.size)
        iys = np.repeat(sy * 2, 4) + np.tile([0, 0, 1, 1], sx.size)
        lv += 1
    wd = WhitneyDecomposition(ps, np.concatenate(done_lv),
                              np.concatenate(done_ix), np.concatenate(done_iy))
    _classify_all(wd)
    _assign_basepoints(wd)
    return wd


def _classify_all(wd: WhitneyDecomposition) -> None:
    n1, n2, e1f, e2f = _count_in_dilates(wd.ps, wd.cx, wd.cy, wd.delta, 1.1)
    if np.any(n1 + n2 > 1):
        bad = int(np.argmax(n1 + n2 > 1))
        raise AssertionError(
            f"square row {bad} sees {int(n1[bad] + n2[bad])} points of E in its "
            f"1.1-dilate; the stopping rule should make this impossible")
    wd.type_codes = np.where(n1 == 1, TYPE_I,
                             np.where(n2 == 1, TYPE_II, TYPE_III)).astype(np.int8)
    wd.e1_witness = np.where(n1 == 1, e1f, -1)
    wd.e2_witness = np.where(n2 == 1, e2f, -1)


def e2_anchor_indices(ps: PlanarSet) -> tuple[np.ndarray, np.ndarray]:
    """Grid indices (z, w) for every E2 point: z under the point, w offset
    sideways by about the point's height, flipped when it would leave [0,2)."""
    x, y = ps.e2[:, 0], ps.e2[:, 1]
    d = ps.delta
    kz = np.clip(np.ceil(x / d - 0.5).astype(np.int64), 0, ps.e1_count - 1)
    target = np.where(x + y < 2.0, x + y, x - y)
    kw = np.clip(np.ceil(target / d - 0.5).astype(np.int64), 0, ps.e1_count - 1)
    zp = np.column_stack([kz * d, np.zeros_like(x)])
    wp = np.column_stack([kw * d, np.zeros_like(x)])
    dzx = np.hypot(x - zp[:, 0], y)
    dwx = np.hypot(x - wp[:, 0], y)
    dzw = np.abs(zp[:, 0] - wp[:, 0])
    lo, hi = y / 4.0, 4.0 * y
    ok = (dzx >= lo) & (dzx <= hi) & (dwx >= lo) & (dwx <= hi) & \
         (dzw >= lo) & (dzw <= hi)
    if not np.all(ok):
        bad = int(np.argmax(~ok))
        raise AssertionError(
            f"anchor distances for E2 point {bad} at ({x[bad]:.6g},{y[bad]:.6g}) "
            f"leave the factor-4 window: |x-z|={dzx[bad]:.3g} |x-w|={dwx[bad]:.3g} "
            f"|z-w|={dzw[bad]:.3g}")
    return kz, kw


def _assign_basepoints(wd: WhitneyDecomposition) -> None:
    ps = wd.ps
    d = ps.delta
    last = ps.e1_count - 1
    # generic Type III: grid point under the center, partner ~delta_Q away
    kz = np.clip(np.ceil(wd.cx / d - 0.5).astype(np.int64), 0, last)
    steps = np.maximum(1, np.rint(wd.delta / d).astype(np.int64))
    kw = np.where(kz + steps <= last, kz + steps,
                  np.where(kz - steps >= 0, kz - steps,
                           np.where(kz <= last - kz, last, 0)))
    # Type I: the witness grid point plus its immediate neighbor
    m1 = wd.type_codes == TYPE_I
    kz[m1] = wd.e1_witness[m1]
    kw[m1] = np.where(kz[m1] + 1 <= last, kz[m1] + 1, kz[m1] - 1)
    # Type II: the anchors of the witness E2 point
    az, aw = e2_anchor_indices(ps)
    m2 = wd.type_codes == TYPE_II
    kz[m2] = az[wd.e2_witness[m2]]
    kw[m2] = aw[wd.e2_witness[m2]]
    # frame squares: the two ends of the grid
    mb = wd.boundary
    kz[mb] = 0
    kw[mb] = last
    wd.kz, wd.kw = kz, kw


# -- partition of unity ----------------------------------------------------------

_T0, _T1 = 0.5, 0.55
_TW = _T1 - _T0
# deep-point bound in units of the containing side: touching dilates reach
# no closer to the centre than 0.4, and 0.375 leaves room for rounding
_DEEP = 0.375


def _profile(u: np.ndarray):
    """Even C2 bump: 1 on [0, 0.5], 0 from 0.55 on, quintic step between.
    Returns (g, g', g'')."""
    a = np.abs(u)
    s = np.clip((a - _T0) / _TW, 0.0, 1.0)
    g = 1.0 - s ** 3 * (10.0 - 15.0 * s + 6.0 * s * s)
    ds = np.where((a > _T0) & (a < _T1), np.sign(u) / _TW, 0.0)
    g1 = -30.0 * s ** 2 * (1.0 - s) ** 2 * ds
    g2 = -60.0 * s * (1.0 - s) * (1.0 - 2.0 * s) * ds * ds
    return g, g1, g2


def _psi_terms(wd: WhitneyDecomposition, rows: np.ndarray, pts: np.ndarray):
    """psi and derivatives for (point, square) pairs; pts aligned with rows."""
    d = wd.delta[rows]
    u = (pts[:, 0] - wd.cx[rows]) / d
    v = (pts[:, 1] - wd.cy[rows]) / d
    gu, gu1, gu2 = _profile(u)
    gv, gv1, gv2 = _profile(v)
    psi = gu * gv
    px = gu1 * gv / d
    py = gu * gv1 / d
    pxx = gu2 * gv / d ** 2
    pyy = gu * gv2 / d ** 2
    pxy = gu1 * gv1 / d ** 2
    return psi, px, py, pxx, pxy, pyy


def active_table(wd: WhitneyDecomposition, pts: np.ndarray,
                 home: np.ndarray | None = None):
    """CSR (indptr, square rows) of squares whose 1.1-dilate contains each
    point, ascending within a point.  home, when the caller has it, holds
    `wd.locate(pts)`.

    A touching square is at most twice as large as the containing square Q
    (`verify_cz`'s `neighbor_ratio_ok`), so its 1.1-dilate reaches at most
    0.1 * delta_Q into Q, and the dilate of a square that does not touch Q
    misses Q altogether.  A point within _DEEP * delta_Q of Q's centre on both
    axes therefore has Q as its only active square; only the other points
    gather candidates from the touching list of Q.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    m = pts.shape[0]
    if home is None:
        home = wd.locate(pts)
    reach = _DEEP * wd.delta[home]
    deep = (np.abs(pts[:, 0] - wd.cx[home]) < reach) & \
           (np.abs(pts[:, 1] - wd.cy[home]) < reach)
    near = np.flatnonzero(~deep)
    starts = wd.neighbors_indptr[home[near]]
    counts = wd.neighbors_indptr[home[near] + 1] - starts
    pt_idx = np.repeat(near, counts)
    cand = wd.neighbors[run_indices(starts, counts)]
    half = _T1 * wd.delta[cand]
    keep = (np.abs(pts[pt_idx, 0] - wd.cx[cand]) <= half) & \
           (np.abs(pts[pt_idx, 1] - wd.cy[cand]) <= half)
    pt_idx, cand = pt_idx[keep], cand[keep]
    counts_kept = np.bincount(pt_idx, minlength=m) + deep
    indptr = np.concatenate([[0], np.cumsum(counts_kept)]).astype(np.int64)
    # both groups are in point order: a deep point fills exactly its one slot
    at_deep = np.zeros(int(indptr[-1]), dtype=bool)
    at_deep[indptr[:-1][deep]] = True
    sq = np.empty(at_deep.size, dtype=wd.neighbors.dtype)
    sq[at_deep] = home[deep]
    sq[~at_deep] = cand
    return indptr, sq


def pou_table(wd: WhitneyDecomposition, pts: np.ndarray,
              home: np.ndarray | None = None):
    """theta and derivatives for all active (point, square) pairs.

    Returns (indptr, sq, theta, tx, ty, txx, txy, tyy) in CSR layout over the
    points; home, if given, is passed to `active_table`.  The normalizing
    sum is at least 1 everywhere in Q0 because every point lies in some
    square where its own psi is 1.  A point of Q0 with a single active
    square lies in that square, where psi is exactly 1 (the profile is 1 on
    |u| <= 0.5), so its theta is 1 and every derivative 0; the psi algebra
    runs only on points with two or more active squares.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    indptr, sq = active_table(wd, pts, home)
    reps = np.diff(indptr)
    th = np.ones(sq.size)
    tx, ty, txx, txy, tyy = (np.zeros(sq.size) for _ in range(5))
    multi = reps > 1
    at = np.repeat(multi, reps)
    m = int(np.count_nonzero(multi))
    pt_idx = np.repeat(np.arange(m), reps[multi])
    psi, px, py, pxx, pxy, pyy = _psi_terms(
        wd, sq[at], np.repeat(pts[multi], reps[multi], axis=0))
    S = np.bincount(pt_idx, weights=psi, minlength=m)
    Sx = np.bincount(pt_idx, weights=px, minlength=m)
    Sy = np.bincount(pt_idx, weights=py, minlength=m)
    Sxx = np.bincount(pt_idx, weights=pxx, minlength=m)
    Sxy = np.bincount(pt_idx, weights=pxy, minlength=m)
    Syy = np.bincount(pt_idx, weights=pyy, minlength=m)
    S_, Sx_, Sy_ = S[pt_idx], Sx[pt_idx], Sy[pt_idx]
    Sxx_, Sxy_, Syy_ = Sxx[pt_idx], Sxy[pt_idx], Syy[pt_idx]
    th[at] = psi / S_
    tx[at] = px / S_ - psi * Sx_ / S_ ** 2
    ty[at] = py / S_ - psi * Sy_ / S_ ** 2
    txx[at] = (pxx / S_ - 2.0 * px * Sx_ / S_ ** 2 - psi * Sxx_ / S_ ** 2
               + 2.0 * psi * Sx_ ** 2 / S_ ** 3)
    tyy[at] = (pyy / S_ - 2.0 * py * Sy_ / S_ ** 2 - psi * Syy_ / S_ ** 2
               + 2.0 * psi * Sy_ ** 2 / S_ ** 3)
    txy[at] = (pxy / S_ - (px * Sy_ + py * Sx_) / S_ ** 2 - psi * Sxy_ / S_ ** 2
               + 2.0 * psi * Sx_ * Sy_ / S_ ** 3)
    return indptr, sq, th, tx, ty, txx, txy, tyy


# -- geometry verifiers ----------------------------------------------------------

def verify_partition(wd: WhitneyDecomposition) -> dict:
    """Exact integer check that the squares tile Q0 without overlap."""
    ok_start = wd.morton_starts[0] == 0
    ok_chain = bool(np.all(wd.morton_starts[1:] == wd.morton_ends[:-1]))
    ok_end = int(wd.morton_ends[-1]) == 1 << (2 * wd.max_level)
    return {"ok": bool(ok_start and ok_chain and ok_end), "mode": "morton"}


def verify_cz(wd: WhitneyDecomposition) -> dict:
    """Stopping-rule and touching-graph properties with measured constants."""
    ps = wd.ps
    n1, n2, _, _ = _count_in_dilates(ps, wd.cx, wd.cy, wd.delta, 1.1)
    small = bool(np.all(n1 + n2 <= 1))
    # siblings are adjacent in Morton order: count one parent per run of
    # squares with the same level and parent square
    px, py = wd.ixs >> 1, wd.iys >> 1
    first = np.ones(wd.n, dtype=bool)
    first[1:] = ((wd.levels[1:] != wd.levels[:-1]) | (px[1:] != px[:-1]) |
                 (py[1:] != py[:-1]))
    rep = np.flatnonzero(first & (wd.levels > 0))
    pdelta = wd.delta[rep] * 2.0
    pcx = Q0_LO + (px[rep] + 0.5) * pdelta
    pcy = Q0_LO + (py[rep] + 0.5) * pdelta
    p1, p2, _, _ = _count_in_dilates(ps, pcx, pcy, pdelta, 3.0)
    parent_big = bool(np.all(p1 + p2 >= 2))
    counts = np.diff(wd.neighbors_indptr)
    ratio_ok = touch_ok = True
    for lo in range(0, wd.n, VERIFY_CHUNK):
        rows = np.arange(lo, min(lo + VERIFY_CHUNK, wd.n))
        src, dst = touching_pairs(wd, rows)
        # both checks are symmetric and hold on self pairs: test each pair once
        once = src < dst
        src, dst = src[once], dst[once]
        ratio_ok &= bool(np.all(np.abs(wd.levels[src] - wd.levels[dst]) <= 1))
        gap_x = np.maximum(wd.x0i[src] - (wd.x0i[dst] + wd.sidei[dst]),
                           wd.x0i[dst] - (wd.x0i[src] + wd.sidei[src]))
        gap_y = np.maximum(wd.y0i[src] - (wd.y0i[dst] + wd.sidei[dst]),
                           wd.y0i[dst] - (wd.y0i[src] + wd.sidei[src]))
        touch_ok &= bool(np.all((gap_x <= 0) & (gap_y <= 0)))
    delta_floor_ok = bool(np.all(wd.delta >= ps.delta / 20.0))
    return {
        "ok": small and parent_big and ratio_ok and touch_ok and delta_floor_ok
              and int(counts.max()) <= 12,
        "dilate_count_le_1": small,
        "parent_3dilate_ge_2": parent_big,
        "neighbor_ratio_ok": ratio_ok,
        "neighbor_touch_ok": touch_ok,
        "max_neighbors": int(counts.max()),
        "min_delta_over_Delta": float((wd.delta.min()) / ps.delta),
        "delta_floor_ok": delta_floor_ok,
    }


def verify_boundary(wd: WhitneyDecomposition) -> dict:
    """Frame squares: side >= 1, Type III, E inside the 50-dilate, and the
    two touch criteria (square vs 1.1-dilate against the frame) agree."""
    ps = wd.ps
    mb = wd.boundary
    tol = REL_TOL * wd.delta
    x0 = wd.cx - 0.55 * wd.delta - tol
    x1 = wd.cx + 0.55 * wd.delta + tol
    y0 = wd.cy - 0.55 * wd.delta - tol
    y1 = wd.cy + 0.55 * wd.delta + tol
    dil_touch = (x0 <= Q0_LO) | (x1 >= Q0_HI) | (y0 <= Q0_LO) | (y1 >= Q0_HI)
    agree = bool(np.all(dil_touch == mb))
    size_ok = bool(np.all(wd.delta[mb] >= 1.0))
    type_ok = bool(np.all(wd.type_codes[mb] == TYPE_III))
    # E inside 50Q for every frame square
    e_x_max = (ps.e1_count - 1) * ps.delta
    exs = np.concatenate([[0.0, e_x_max], ps.e2[:, 0]])
    eys = np.concatenate([[0.0, 0.0], ps.e2[:, 1]])
    hw = 25.0 * wd.delta[mb] + tol[mb]
    inside = np.all(
        (np.abs(exs[None, :] - wd.cx[mb, None]) <= hw[:, None]) &
        (np.abs(eys[None, :] - wd.cy[mb, None]) <= hw[:, None]))
    return {"ok": agree and size_ok and type_ok and bool(inside),
            "touch_criteria_agree": agree, "min_side": float(wd.delta[mb].min()),
            "all_type_iii": type_ok, "e_in_50Q": bool(inside)}


def dist_to_e1(ps: PlanarSet, x0, y0, x1, y1):
    """Distance from closed rectangles to the grid points of E1."""
    d = ps.delta
    last = ps.e1_count - 1
    count, _ = _e1_count_interval(ps, np.asarray(x0, dtype=float),
                                  np.asarray(x1, dtype=float))
    ka = np.clip(np.floor(x0 / d).astype(np.int64), 0, last)
    kb = np.clip(np.ceil(x1 / d).astype(np.int64), 0, last)
    gap_a = np.maximum(0.0, np.maximum(x0 - ka * d, ka * d - x1))
    gap_b = np.maximum(0.0, np.maximum(x0 - kb * d, kb * d - x1))
    hx = np.where(count >= 1, 0.0, np.minimum(gap_a, gap_b))
    hy = np.maximum(0.0, np.maximum(y0, -y1))
    return np.hypot(hx, hy)


def verify_dist_bd(wd: WhitneyDecomposition) -> dict:
    """Extremes of side / (Delta + dist(Q, E1)) over all squares, plus
    side / dist(Q, E) over non-frame Type III squares, in chunks of
    VERIFY_CHUNK rows."""
    ps = wd.ps
    ex, ey = _e2_sorted(ps)
    r_lo, r_hi, q_lo, q_hi = [], [], [], []
    for lo in range(0, wd.n, VERIFY_CHUNK):
        sl = slice(lo, lo + VERIFY_CHUNK)
        delta = wd.delta[sl]
        h = 0.5 * delta
        x0, x1 = wd.cx[sl] - h, wd.cx[sl] + h
        y0, y1 = wd.cy[sl] - h, wd.cy[sl] + h
        d1 = dist_to_e1(ps, x0, y0, x1, y1)
        r = delta / (ps.delta + d1)
        r_lo.append(r.min())
        r_hi.append(r.max())
        m3 = np.flatnonzero((wd.type_codes[sl] == TYPE_III) & ~wd.boundary[sl])
        if m3.size == 0:
            continue
        x0, x1, y0, y1, d1 = x0[m3], x1[m3], y0[m3], y1[m3], d1[m3]
        # dist(Q, x) >= its x-gap, so a point of E2 more than d1 away in x
        # cannot lower min(d1, .): only the points in the widened window count
        de = d1.copy()
        i, j = _e2_candidates(ex, x0 - d1, x1 + d1)
        dx = np.maximum(0.0, np.maximum(ex[j] - x1[i], x0[i] - ex[j]))
        dy = np.maximum(0.0, np.maximum(ey[j] - y1[i], y0[i] - ey[j]))
        np.minimum.at(de, i, np.hypot(dx, dy))
        q = delta[m3] / de
        q_lo.append(q.min())
        q_hi.append(q.max())
    out = {"ratio_min": float(np.min(r_lo)), "ratio_max": float(np.max(r_hi))}
    if q_lo:
        out["type3_ratio_min"] = float(np.min(q_lo))
        out["type3_ratio_max"] = float(np.max(q_hi))
    out["ok"] = np.isfinite(out["ratio_max"]) and out["ratio_min"] > 0
    return out


def verify_basepoints(wd: WhitneyDecomposition, k0: float = K0) -> dict:
    """Containment z,w in K0*Q for every square and the spread |z-w|/side."""
    tol = REL_TOL * wd.delta
    hw = 0.5 * k0 * wd.delta + tol
    zx = wd.kz * wd.ps.delta
    wx = wd.kw * wd.ps.delta
    on_axis = np.abs(wd.cy) <= hw       # z and w lie on the axis x2 = 0
    inz = (np.abs(zx - wd.cx) <= hw) & on_axis
    inw = (np.abs(wx - wd.cx) <= hw) & on_axis
    sep = np.abs(zx - wx)
    distinct = bool(np.all(sep > 0))
    spread = sep / wd.delta
    return {"ok": bool(np.all(inz) and np.all(inw)) and distinct,
            "z_contained": bool(np.all(inz)), "w_contained": bool(np.all(inw)),
            "distinct": distinct,
            "spread_min": float(spread.min()), "spread_max": float(spread.max())}
