"""Quadrature: the planar seminorm, its edge-weight form, disk averages, and
the two ball-estimate sums.

The seminorm integrates |Hessian|^p square by square with tensor
Gauss-Legendre rules and reports the change under one uniform order doubling
as its error estimate.  Squares on which every nearby piece is identical are
skipped outright: there the blend collapses to a single affine function and
the integrand vanishes identically, not just approximately.  The same holds
inside a square, block by block: the panel edges lie on the bumps' support
edges, so the fields are formed only on the (x-panel, y-panel) blocks that
the bump of some touching square with a different piece reaches; on every
other block each difference-weighted blend, and so the Hessian, is an exact
zero.  About a quarter of the blocks of a boundary square are reached.

For lifted leaf data the pieces differ only in their vertical slope, one per
cluster, so the seminorm to the power p is a sum over touching cluster pairs
of |jump|^p times a fixed weight.  `edge_weights` integrates those unit
jumps once (same kernel, same two orders), and only one square per class of
local configurations, which fix the integral up to the scale delta^(2-p);
squares touching two or more other clusters stay on the direct quadrature.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .clusters import ClusterTree
from .interpolant import PatchedInterpolant, affine_through
from .whitney import _profile, e2_anchor_indices

QUAD_CHUNK = 400_000

# Span [-1, 1] split where the blend changes analytic form.  Touching squares
# come in sizes half/equal/double at dyadic positions, so their bump bands
# (half-width 0.5 to 0.55 of their own side) cut a fixed set of offsets; the
# integrand is a smooth rational function strictly between these lines.
PANEL_EDGES = np.array([-1.0, -0.95, -0.9, -0.8, -0.05, 0.0,
                        0.05, 0.8, 0.9, 0.95, 1.0])


def _gl(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def _panel_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss rule on [-1, 1] over the panels.  The per-panel count
    grows with the requested order but stays below it: the pieces between
    edges are smooth, so moderate counts already converge, and |H|^p kinks
    inside a panel (p < 2) reward extra points more than extra exactness."""
    gx, gw = _gl(max(3, (2 * order) // 3))
    lo, hi = PANEL_EDGES[:-1], PANEL_EDGES[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    weights = (half[:, None] * gw[None, :]).ravel()
    return nodes, weights


def _active_rows(F: PatchedInterpolant) -> np.ndarray:
    """Rows whose touching list contains a square with a different piece.
    Elsewhere the local blend is one affine and the Hessian is exactly zero."""
    wd = F.wd
    counts = np.diff(wd.neighbors_indptr)
    src = np.repeat(np.arange(wd.n), counts)
    dst = wd.neighbors
    differ = np.any(F.coefs[src] != F.coefs[dst], axis=1)
    hit = np.bincount(src[differ], minlength=wd.n) > 0
    return np.flatnonzero(hit)


def _hess_power_sum_pointwise(F: PatchedInterpolant, rows: np.ndarray,
                              p: float, order: int) -> float:
    """Reference path: every node goes through the generic point evaluator."""
    wd = F.wd
    gx, gw = _panel_rule(order)
    per = gx.size * gx.size
    step = max(1, QUAD_CHUNK // per)
    total = 0.0
    for lo in range(0, rows.size, step):
        R = rows[lo:lo + step]
        h = 0.5 * wd.delta[R]
        shape = (R.size, gx.size, gx.size)
        X = np.broadcast_to(wd.cx[R][:, None, None] +
                            h[:, None, None] * gx[None, :, None], shape)
        Y = np.broadcast_to(wd.cy[R][:, None, None] +
                            h[:, None, None] * gx[None, None, :], shape)
        W = (gw[:, None] * gw[None, :])[None] * (h ** 2)[:, None, None]
        pts = np.column_stack([X.ravel(), Y.ravel()])
        H = F.evaluate(pts, order=2)
        frob = np.sqrt(H[:, 0, 0] ** 2 + 2.0 * H[:, 0, 1] ** 2 + H[:, 1, 1] ** 2)
        total += float(np.sum(frob ** p * W.ravel()))
    return total


def _touching_lists(wd, R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Touching lists of rows R padded to a rectangle by repeating their last
    entry: (cand, valid)."""
    indptr = wd.neighbors_indptr
    cnt = indptr[R + 1] - indptr[R]
    ar = np.arange(int(cnt.max(initial=0)))[None, :]
    valid = ar < cnt[:, None]
    cand = wd.neighbors[indptr[R][:, None] + np.minimum(ar, cnt[:, None] - 1)]
    return cand, valid


def _row_batches(wd, rows: np.ndarray, order: int):
    """Rows in batches sized for the tensor rule of `order`, each with its
    touching list padded to a rectangle: (R, cand, valid)."""
    m = _panel_rule(order)[0].size
    step = max(1, 2_000_000 // (m * m))
    for lo in range(0, rows.size, step):
        R = rows[lo:lo + step]
        yield (R, *_touching_lists(wd, R))


def _active_blocks(differ, xprof, yprof):
    """(row, x-panel, y-panel) index arrays of the panel blocks on which the
    bump of some differing entry is nonzero along both axes.

    differ (rows, entries) marks the valid touching entries whose piece
    differs from the row's; xprof and yprof are the 1-d profile triples
    (g, g', g''), each of shape (rows, entries, m), at the panel-rule nodes.
    """
    nr, ne, m = xprof[0].shape
    npan = PANEL_EDGES.size - 1

    def reach(prof):
        nz = np.zeros((nr, ne, npan), dtype=bool)
        for g in prof:
            nz |= np.any(g.reshape(nr, ne, npan, m // npan) != 0, axis=3)
        return nz

    hit = np.matmul((differ[:, :, None] & reach(xprof)).transpose(0, 2, 1),
                    reach(yprof))
    return np.nonzero(hit)


def _hess_power(wd, R, cand, valid, da, db, dc, p: float,
                order: int) -> np.ndarray:
    """Integral of |Hessian|^p over each row of R by the tensor panel rule,
    shape (R.size,).

    (da, db, dc) are the piece differences (touching square minus R) along
    the padded touching lists.  Tensor-grid nodes factor every bump into 1-d
    profiles, so each field (the normalizing sum, its derivatives, the
    difference-weighted blends) is a batched matrix product over the touching
    lists: roughly two orders of magnitude fewer profile evaluations than the
    pointwise path.  da and db may both be None, meaning zero (the pieces of
    lifted leaf data differ only in the vertical slope); their products are
    then skipped and every other term is computed as in the general case.

    Fields are formed only on the (x-panel, y-panel) blocks of each row that
    some differing bump reaches along both axes (`_active_blocks`).  That
    skips no nonzero node: the profile is exactly (0, 0, 0) from |u| = 0.55
    on, and the panel edges lie on those support edges, so on any other
    block every difference-weighted blend is a sum of exact zeros, and with
    it the Hessian.  Only the order of summation differs from integrating
    every node.
    """
    gx, gw = _panel_rule(order)
    npan = PANEL_EDGES.size - 1
    k = gx.size // npan
    nr, ne = cand.shape

    def mm(wk, A, B):
        if wk is None:
            return np.matmul(A.transpose(0, 2, 1), B)
        return np.matmul((wk[:, :, None] * A).transpose(0, 2, 1), B)

    h = 0.5 * wd.delta[R]
    xn = wd.cx[R][:, None] + h[:, None] * gx[None, :]
    yn = wd.cy[R][:, None] + h[:, None] * gx[None, :]

    d = wd.delta[cand][:, :, None]
    gu, gu1, gu2 = _profile((xn[:, None, :] - wd.cx[cand][:, :, None]) / d)
    vm = valid[:, :, None]
    xprof = (gu * vm, gu1 * vm / d, gu2 * vm / d ** 2)
    gv, gv1, gv2 = _profile((yn[:, None, :] - wd.cy[cand][:, :, None]) / d)
    yprof = (gv, gv1 / d, gv2 / d ** 2)

    differ = dc != 0
    if db is not None:
        differ |= (da != 0) | (db != 0)
    b, px, py = _active_blocks(differ & valid, xprof, yprof)
    U, Ux, Uxx = (g.reshape(nr, ne, npan, k)[b, :, px] for g in xprof)
    V, Vy, Vyy = (g.reshape(nr, ne, npan, k)[b, :, py] for g in yprof)
    X = xn.reshape(nr, npan, k)[b, px][:, :, None]
    Y = yn.reshape(nr, npan, k)[b, py][:, None, :]
    dc = dc[b]
    if db is not None:
        da, db = da[b], db[b]

    iS = 1.0 / mm(None, U, V)
    P = mm(None, Ux, V) * iS
    Q = mm(None, U, Vy) * iS
    Rxx = mm(None, Uxx, V) * iS - 2.0 * P * P
    Rxy = mm(None, Ux, Vy) * iS - 2.0 * P * Q
    Ryy = mm(None, U, Vyy) * iS - 2.0 * Q * Q

    def blend(A, B):
        """Blend of the difference affines under one derivative pair, with
        its db and dc parts (the pieces' own first derivatives)."""
        bc = mm(dc, A, B)
        if db is None:
            return Y * bc, None, bc
        bb = mm(db, A, B)
        return mm(da, A, B) + X * bb + Y * bc, bb, bc

    TAuv, Bdb_uv, Bdc_uv = blend(U, V)
    TAxv, Bdb_xv, Bdc_xv = blend(Ux, V)
    TAuy, Bdb_uy, Bdc_uy = blend(U, Vy)
    TAxxv = blend(Uxx, V)[0]
    TAuyy = blend(U, Vyy)[0]
    TAxy = blend(Ux, Vy)[0]

    sxx = TAxxv - 2.0 * P * TAxv - Rxx * TAuv
    sxy = TAxy - Q * TAxv - P * TAuy - Rxy * TAuv
    if db is not None:
        sxx = sxx + 2.0 * (Bdb_xv - P * Bdb_uv)
        sxy = sxy + Bdb_uy - Q * Bdb_uv
    Hxx = iS * sxx
    Hyy = iS * (TAuyy - 2.0 * Q * TAuy - Ryy * TAuv
                + 2.0 * (Bdc_uy - Q * Bdc_uv))
    Hxy = iS * (sxy + Bdc_xv - P * Bdc_uv)

    frob = np.sqrt(Hxx ** 2 + 2.0 * Hxy ** 2 + Hyy ** 2)
    wp = gw.reshape(npan, k)
    per_block = np.einsum("nij,ni,nj->n", frob ** p, wp[px], wp[py])
    return np.bincount(b, weights=per_block * (h ** 2)[b], minlength=nr)


def _hess_power_sum(F: PatchedInterpolant, rows: np.ndarray, p: float,
                    order: int) -> float:
    """Integral of |Hessian|^p over the given rows (same quantity as the
    pointwise path)."""
    co = F.coefs
    total = 0.0
    for R, cand, valid in _row_batches(F.wd, rows, order):
        da = co[cand, 0] - co[R, 0][:, None]
        db = co[cand, 1] - co[R, 1][:, None]
        dc = co[cand, 2] - co[R, 2][:, None]
        total += float(np.sum(_hess_power(F.wd, R, cand, valid, da, db, dc,
                                          p, order)))
    return total


def _order_doubling_estimate(coarse: float, fine: float, p: float,
                             refine_tol: float) -> tuple[float, float]:
    """(value, error) from the p-th powers at one order and at its double,
    warning when the error exceeds refine_tol * value."""
    value = fine ** (1.0 / p)
    err = abs(coarse ** (1.0 / p) - value)
    if err > refine_tol * max(value, 1e-300):
        warnings.warn(f"quadrature estimate moved by {err:.3e} "
                      f"({err / max(value, 1e-300):.2%} of {value:.6e}) "
                      f"under order doubling", stacklevel=3)
    return value, err


def planar_seminorm(F: PatchedInterpolant, p: float, quad_order: int = 12,
                    refine_tol: float = 0.01) -> tuple[float, float]:
    """Seminorm of F over the frame: (value, error estimate).

    value is the doubled-order result to the power 1/p; the estimate is the
    value-scale gap between the two orders.  A gap above refine_tol * value
    triggers a warning, not an exception.
    """
    if quad_order < 4:
        raise ValueError("quad_order must be at least 4")
    rows = _active_rows(F)
    if rows.size == 0:
        return 0.0, 0.0
    coarse = _hess_power_sum(F, rows, p, quad_order)
    fine = _hess_power_sum(F, rows, p, 2 * quad_order)
    return _order_doubling_estimate(coarse, fine, p, refine_tol)


@dataclass(frozen=True)
class EdgeWeights:
    """Seminorm to the power p of a unit jump across each touching cluster
    pair, for interpolants of lifted leaf data.

    Lifted data make every piece (0, 0, Phi[cluster]).  On a square whose
    touching list holds exactly one other cluster, the Hessian is the jump
    Phi[other] - Phi[own] times a fixed field, so the seminorm to the power
    p is sum over pairs |Phi[a] - Phi[b]|^p * M[pair], plus the direct
    integral over `mixed_rows`, the squares touching two or more other
    clusters.  pairs holds cluster rows (a < b); M_coarse and M_fine are the
    weights at quad_order and at 2 * quad_order.  n_rows counts the squares
    with one other cluster and n_classes their configuration classes, one
    integral each (see `edge_weights`); both are read-only output.
    """

    p: float
    quad_order: int
    pairs: np.ndarray
    M_coarse: np.ndarray
    M_fine: np.ndarray
    mixed_rows: np.ndarray
    n_rows: int
    n_classes: int

    def seminorm(self, Phi: np.ndarray, F: PatchedInterpolant,
                 refine_tol: float = 0.01) -> tuple[float, float]:
        """planar_seminorm(F, p, quad_order, refine_tol) for F the extension
        of lifted leaf data whose clusters carry the vertical slopes Phi; F
        is read only on the mixed rows."""
        jump = np.abs(Phi[self.pairs[:, 0]] - Phi[self.pairs[:, 1]]) ** self.p
        coarse = float(jump @ self.M_coarse)
        fine = float(jump @ self.M_fine)
        if self.mixed_rows.size:
            coarse += _hess_power_sum(F, self.mixed_rows, self.p,
                                      self.quad_order)
            fine += _hess_power_sum(F, self.mixed_rows, self.p,
                                    2 * self.quad_order)
        return _order_doubling_estimate(coarse, fine, self.p, refine_tol)


def _configuration_classes(wd, lab: np.ndarray,
                           rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Classes of rows with the same unit-jump field up to scale: (index in
    rows of each class's first row, class of each row).

    A unit jump on row r reads only r's touching list and the height of its
    centre, so a row's configuration is that list, each entry being (level
    difference, centre offsets in quarter sides of r, other-cluster flag),
    plus 4 * 2 * cy / delta.  Rows of one configuration have the same
    integral divided by delta^(2 - p).  |Hessian| is unchanged by y -> -y,
    which negates the y offsets and the height, so a configuration and its
    mirror share a class.  Integer arithmetic throughout.
    """
    cand, valid = _touching_lists(wd, rows)
    s = wd.sidei[rows][:, None]
    dside = wd.sidei[cand] - s
    ox = (4 * (wd.x0i[cand] - wd.x0i[rows][:, None]) + 2 * dside) // s
    oy = (4 * (wd.y0i[cand] - wd.y0i[rows][:, None]) + 2 * dside) // s
    dl = wd.levels[cand] - wd.levels[rows][:, None]
    other = lab[cand] != lab[rows][:, None]
    # 4 * 2 * cy / delta = 8 * (iy + 1/2 - 3 * 2^(l - 3)): y = 0 lies 3/8 of
    # the way up the frame [-3, 5]
    height = 8 * wd.iys[rows] + 4 - (3 << wd.levels[rows].astype(np.int64))
    # one integer per entry, digits (dl + 1, ox + 6, oy + 6, flag) in radix
    # (3, 13, 13, 2): touching squares have |dl| <= 1 and centre offsets
    # within 6 quarters; the padding sorts last
    keys = []
    for sign in (1, -1):
        entry = (((dl + 1) * 13 + ox + 6) * 13 + sign * oy + 6) * 2 + other
        entry = np.sort(np.where(valid, entry, 3 * 13 * 13 * 2), axis=1)
        keys.append(np.column_stack([sign * height, entry]))
    _, inv = np.unique(np.vstack(keys), axis=0, return_inverse=True)
    inv = inv.ravel()
    folded = np.minimum(inv[:rows.size], inv[rows.size:])
    _, first, cls = np.unique(folded, return_index=True, return_inverse=True)
    return first, cls.ravel()


def edge_weights(wd, ct: ClusterTree, p: float,
                 quad_order: int = 12) -> EdgeWeights:
    """Unit-jump weights of every touching cluster pair of the assigned
    decomposition (see EdgeWeights), at quad_order and its double.

    One row per configuration class is integrated; every row of the class
    takes that integral times (delta_row / delta_first)^(2 - p).
    """
    if quad_order < 4:
        raise ValueError("quad_order must be at least 4")
    if ct.square_cluster is None:
        raise ValueError("clusters are not assigned to squares")
    lab = ct.square_cluster.astype(np.int64)
    n = np.int64(ct.n_clusters)
    src = np.repeat(np.arange(wd.n), np.diff(wd.neighbors_indptr))
    other = lab[wd.neighbors] != lab[src]
    touch = np.unique(src[other] * n + lab[wd.neighbors][other])
    rows, partner = touch // n, touch % n
    n_other = np.bincount(rows, minlength=wd.n)
    mixed = np.flatnonzero(n_other >= 2)
    single = n_other[rows] == 1
    rows, partner = rows[single], partner[single]
    a = np.minimum(lab[rows], partner)
    b = np.maximum(lab[rows], partner)
    keys, pair_of_row = np.unique(a * n + b, return_inverse=True)
    first, cls = _configuration_classes(wd, lab, rows)
    reps = rows[first]
    scale = np.exp2((wd.levels[reps][cls] - wd.levels[rows]) * (2.0 - p))
    M = []
    for order in (quad_order, 2 * quad_order):
        per_class = np.concatenate([
            _hess_power(wd, R, cand, valid, None, None,
                        (lab[cand] != lab[R][:, None]).astype(float), p, order)
            for R, cand, valid in _row_batches(wd, reps, order)])
        M.append(np.bincount(pair_of_row, weights=scale * per_class[cls],
                             minlength=keys.size))
    pairs = np.column_stack([keys // n, keys % n])
    return EdgeWeights(float(p), int(quad_order), pairs, M[0], M[1], mixed,
                       int(rows.size), int(reps.size))


def disk_rule(center, radius: float, rings: int = 64,
              angles: int = 128) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights integrating over the disk (weights sum to its area).
    Gauss on the radius, uniform on the angle: exact for polynomials of
    moderate degree and for every trigonometric mode below the angle count."""
    if rings < 4 or angles < 4:
        raise ValueError("rings and angles must be at least 4")
    t, wt = _gl(rings)
    r = 0.5 * radius * (t + 1.0)
    wr = 0.5 * radius * wt * r
    th = 2.0 * np.pi * np.arange(angles) / angles
    wa = 2.0 * np.pi / angles
    X = center[0] + r[:, None] * np.cos(th)[None, :]
    Y = center[1] + r[:, None] * np.sin(th)[None, :]
    wgt = (wr[:, None] * wa) * np.ones((1, angles))
    return np.column_stack([X.ravel(), Y.ravel()]), wgt.ravel()


def ball_average(F, center, radius: float, deriv: int = 2, rings: int = 64,
                 angles: int = 128) -> float:
    """Mean of a first derivative of F over a closed disk."""
    if deriv not in (1, 2):
        raise ValueError("deriv selects a first derivative: 1 or 2")
    pts, wgt = disk_rule(np.asarray(center, dtype=float), radius, rings, angles)
    g = F.evaluate(pts, order=1)
    return float(np.sum(g[:, deriv - 1] * wgt) / (np.pi * radius ** 2))


def disk_seminorm(F, center, radius: float, p: float, rings: int = 64,
                  angles: int = 128) -> float:
    """Seminorm of F over a disk (same integrand as planar_seminorm)."""
    pts, wgt = disk_rule(np.asarray(center, dtype=float), radius, rings, angles)
    H = F.evaluate(pts, order=2)
    frob = np.sqrt(H[:, 0, 0] ** 2 + 2.0 * H[:, 0, 1] ** 2 + H[:, 1, 1] ** 2)
    return float(np.sum(frob ** p * wgt)) ** (1.0 / p)


def ball_estimate_sums(ct: ClusterTree, G, p: float, rings: int = 64,
                       angles: int = 128) -> tuple[float, float]:
    """The two left-hand sums of the ball estimate for a field G.

    First: parent jumps of disk averages of the vertical derivative, weighted
    by W^(2-p), over all non-root clusters.  Second: for each leaf cluster,
    the gap between the vertical slope of the three-point jet at its boundary
    point and the disk average, same weights.
    """
    tree, ps = ct.tree, ct.ps
    n = ct.n_clusters
    avg = np.empty(n)
    for i in range(n):
        avg[i] = ball_average(G, ct.y[i], float(ct.radius[i]), deriv=2,
                              rings=rings, angles=angles)
    w = tree.weights
    sum1 = float(np.sum(np.abs(avg[1:] - avg[tree.parent[1:]]) ** p *
                        w[1:] ** (2.0 - p)))
    kz, kw = e2_anchor_indices(ps)
    sum2 = 0.0
    leaf_rows = np.array([tree.index[v] for v in tree.leaf_ids])
    for j, i in enumerate(leaf_rows):
        x = ps.e2[j]
        zp = np.array([kz[j] * ps.delta, 0.0])
        wp = np.array([kw[j] * ps.delta, 0.0])
        vals = G.evaluate(np.array([x, zp, wp]), order=0)
        jet = affine_through(x, zp, wp, vals[0], vals[1], vals[2])
        sum2 += abs(jet.c - avg[i]) ** p * w[i] ** (2.0 - p)
    return sum1, float(sum2)


@dataclass(frozen=True)
class GaussianBumpField:
    """Sum of isotropic Gaussian bumps; smooth test input with exact
    derivatives for quadrature cross-checks."""

    centers: np.ndarray
    amps: np.ndarray
    widths: np.ndarray

    @classmethod
    def random(cls, rng: np.random.Generator, n_bumps: int = 3,
               box=((-1.0, 3.0), (-1.0, 2.0)),
               width_range=(0.3, 1.2), amp_scale: float = 1.0):
        (x0, x1), (y0, y1) = box
        centers = np.column_stack([rng.uniform(x0, x1, n_bumps),
                                   rng.uniform(y0, y1, n_bumps)])
        amps = amp_scale * rng.standard_normal(n_bumps)
        widths = rng.uniform(*width_range, n_bumps)
        return cls(centers, amps, widths)

    def evaluate(self, pts: np.ndarray, order: int = 0) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        dx = pts[:, None, 0] - self.centers[None, :, 0]
        dy = pts[:, None, 1] - self.centers[None, :, 1]
        s2 = self.widths[None, :] ** 2
        e = self.amps[None, :] * np.exp(-(dx ** 2 + dy ** 2) / (2.0 * s2))
        if order == 0:
            return e.sum(axis=1)
        if order == 1:
            return np.stack([(-dx / s2 * e).sum(axis=1),
                             (-dy / s2 * e).sum(axis=1)], axis=1)
        if order == 2:
            hxx = ((dx ** 2 / s2 - 1.0) / s2 * e).sum(axis=1)
            hyy = ((dy ** 2 / s2 - 1.0) / s2 * e).sum(axis=1)
            hxy = (dx * dy / s2 ** 2 * e).sum(axis=1)
            out = np.empty((pts.shape[0], 2, 2))
            out[:, 0, 0] = hxx
            out[:, 0, 1] = hxy
            out[:, 1, 0] = hxy
            out[:, 1, 1] = hyy
            return out
        raise ValueError("order must be 0, 1 or 2")


def patching_constant(F: PatchedInterpolant, p: float,
                      quad_order: int = 12) -> dict:
    """Measured ratio of the seminorm's p-th power to the touching-pair sum of
    sup-norm piece differences (the patching estimate, read as an equality)."""
    from .interpolant import pair_linf_sum
    lhs = planar_seminorm(F, p, quad_order=quad_order)[0] ** p
    rhs, worst = pair_linf_sum(F, p)
    if rhs == 0.0:
        c = 0.0 if lhs == 0.0 else float("inf")
    else:
        c = lhs / rhs
    return {"C_meas": c, "lhs": lhs, "rhs": rhs, "max_pair_diff": worst}
