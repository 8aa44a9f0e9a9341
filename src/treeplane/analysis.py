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
Both quadratures below gather their blocks one way, once per call for both
orders: the blocks, and the touching squares whose bumps reach each one,
come from an order-free table of the panels each bump's support meets, and
each block is integrated with only those squares.  They differ in the
profiles alone.  The direct quadrature evaluates them in floats at the
block's nodes in the frame, as the point evaluator does, which keeps it
within rounding of the pointwise oracle in `treeplane.oracles` at any
depth; the edge weights read them from a table per order, which keeps a
class integral independent of depth.

For lifted leaf data the pieces differ only in their vertical slope, one per
cluster, so the seminorm to the power p is a sum over touching cluster pairs
of |jump|^p times a fixed weight.  `edge_weights` integrates those unit
jumps once per geometry, for the ratio experiment and the verifier's
patching survey alike, and only once per class of local configurations,
which fix the integral up to the scale delta^(2-p); squares touching two or
more other clusters stay on the direct quadrature.  The unit that is
integrated is the panel block: the integrand on a block reads only its
panels, the square's height and the touching squares whose bumps reach it,
so each class of blocks, folded under both mirrors about the square's
centre, is integrated once per order on the unit square from its integer
configuration, and every configuration class sums its blocks.

Every disk average goes through `ball_average`, which reads k disks at once:
each scales one cached unit-disk rule, and the nodes of consecutive disks go
to the field's `evaluate` together, at most DISK_NODES per call.  The
ball-estimate sums read every cluster ball with one call, and every leaf's
three-point jet with `whitney.jet_slopes`, the formula the operators use to
read leaf slopes off planar data.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .clusters import ClusterTree
from .interpolant import PatchedInterpolant, _differing_pairs
from .whitney import _T1, _profile, finest_grid, jet_slopes

# nodes per batch of panel blocks: each field of a batch stays in cache.
# A (blocks, k, k) float64 field of a full batch is 8 * BLOCK_NODES bytes.
# From 16_384 (128 KiB, glibc's default mmap threshold) the batch fields
# sit at the threshold, which glibc raises when a larger mmapped block is
# freed, so whether they are mmapped, and page-fault on every allocation,
# depends on which arrays the process freed before: a ratio trial took
# thousands of faults per call at 16_384 and about one at 8_192.
BLOCK_NODES = 8_192
# disk nodes per field evaluation of a batched disk average: bounds the
# (nodes, bumps) temporaries of a field.  One verifier disk (128 x 256)
# fills a batch, so no call is larger than a one-disk call; four read-back
# disks (64 x 128) share one.
DISK_NODES = 32_768
# relative order-doubling gap above which a seminorm estimate warns
REFINE_TOL = 0.01

# Span [-1, 1] split where the blend changes analytic form.  Touching squares
# come in sizes half/equal/double at dyadic positions, so their bump bands
# (half-width 0.5 to 0.55 of their own side) cut a fixed set of offsets; the
# integrand is a smooth rational function strictly between these lines.
PANEL_EDGES = np.array([-1.0, -0.95, -0.9, -0.8, -0.05, 0.0,
                        0.05, 0.8, 0.9, 0.95, 1.0])


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=None)
def _gl(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], cached read-only."""
    return _read_only(*np.polynomial.legendre.leggauss(order))


@functools.lru_cache(maxsize=None)
def _panel_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss rule on [-1, 1] over the panels, cached read-only.
    The per-panel count grows with the requested order but stays below it:
    the pieces between edges are smooth, so moderate counts already
    converge, and |H|^p kinks inside a panel (p < 2) reward extra points
    more than extra exactness."""
    gx, gw = _gl(max(3, (2 * order) // 3))
    lo, hi = PANEL_EDGES[:-1], PANEL_EDGES[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    weights = (half[:, None] * gw[None, :]).ravel()
    return _read_only(nodes, weights)


def _active_rows(F: PatchedInterpolant) -> np.ndarray:
    """Rows whose touching list contains a square with a different piece.
    Elsewhere the local blend is one affine and the Hessian is exactly zero."""
    s, t = _differing_pairs(F)
    hit = np.zeros(F.wd.n, dtype=bool)
    hit[s] = True
    hit[t] = True
    return np.flatnonzero(hit)


def _batches(n: int, per: int, budget: int):
    """Slices of n items of `per` nodes each, at most `budget` nodes to a
    slice (at least one item)."""
    step = max(1, budget // per)
    return (slice(lo, lo + step) for lo in range(0, n, step))


def _touching_offsets(wd, rows: np.ndarray) -> tuple:
    """Touching lists of rows padded to a rectangle by repeating their last
    entry, in integer square coordinates: (cand, dl, ox, oy, valid), with
    the level difference dl and the centre offsets ox, oy in quarter sides
    of the row."""
    indptr = wd.neighbors_indptr
    cnt = indptr[rows + 1] - indptr[rows]
    ar = np.arange(int(cnt.max(initial=0)))[None, :]
    valid = ar < cnt[:, None]
    # int64, as `whitney.touching_pairs` gives: the lists are int32
    cand = wd.neighbors[indptr[rows][:, None] +
                        np.minimum(ar, cnt[:, None] - 1)].astype(np.int64)
    x0, y0, s = (c[:, None] for c in finest_grid(wd, rows))
    cx0, cy0, cs = finest_grid(wd, cand)
    dside = cs - s
    ox = (4 * (cx0 - x0) + 2 * dside) // s
    oy = (4 * (cy0 - y0) + 2 * dside) // s
    dl = wd.levels[cand] - wd.levels[rows][:, None]
    return cand, dl, ox, oy, valid


def _bump_args(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Profile arguments (3, 13, x.size) at the points x in [-1, 1] of the
    bump of every square that can touch a unit square centred at 0, indexed
    [dl + 1, o + 6] by level difference and centre offset o in quarter
    sides, and the scales 2^dl.  That square has side 2^-dl, so the
    argument is (x/2 - o/4) * 2^dl."""
    dl = np.arange(-1, 2)[:, None, None]
    o = np.arange(-6, 7)[None, :, None]
    s = np.exp2(dl)
    return (0.5 * x - 0.25 * o) * s, s


@functools.lru_cache(maxsize=None)
def _panel_reach() -> np.ndarray:
    """Panels (3, 13, npan) that each bump of `_bump_args` reaches, cached
    read-only: those whose open span meets the open support |u| < _T1 of
    the profile, which is exactly zero elsewhere.  No node enters, so one
    table serves every quadrature order."""
    u = _bump_args(PANEL_EDGES)[0]
    return _read_only((u[..., :-1] < _T1) & (u[..., 1:] > -_T1))[0]


@functools.lru_cache(maxsize=None)
def _profile_table(order: int) -> tuple:
    """Bump profiles (g, g', g'') of `_bump_args` at the panel-rule nodes of
    order, each of shape (3, 13, nodes), cached read-only; each argument
    is rounded once."""
    u, s = _bump_args(_panel_rule(order)[0])
    g, g1, g2 = _profile(u)
    return _read_only(g, g1 * s, g2 * (s * s))


def _active_blocks(differ, xreach, yreach):
    """(row, x-panel, y-panel) index arrays of the panel blocks on which the
    bump of some differing entry is nonzero along both axes.

    differ (rows, entries) marks the valid touching entries whose piece
    differs from the row's; xreach and yreach (rows, entries, npan) mark
    the panels their bumps reach along x and along y.
    """
    hit = np.matmul((differ[:, :, None] & xreach).transpose(0, 2, 1), yreach)
    return np.nonzero(hit)


def _reaching_blocks(dl, ox, oy, valid, differ) -> tuple:
    """Active panel blocks of rows with the padded touching lists
    (dl, ox, oy, valid) (`_touching_offsets`), and the entries that reach
    each one: (row, x-panel, y-panel, entry, on).

    A block is active when the bump of a valid entry marked in differ
    reaches it along both axes (`_active_blocks`).  That skips no nonzero
    node: the profile is exactly (0, 0, 0) from |u| = 0.55 on, and the
    panel edges lie on those support edges, so on any other block every
    difference-weighted blend is a sum of exact zeros, and with it the
    Hessian.  The panels a bump reaches depend only on its level difference
    and offset, so they are read from `_panel_reach` at any depth and for
    every order.  An entry reaches the block when its bump does so along
    both axes; any other entry's bump is exactly zero on the block along one
    axis, so it adds exact zeros to every field.  entry (blocks, width)
    indexes the reaching entries of the block's row in touching-list order,
    padded to the largest count of them; on marks the ones that are not
    padding.
    """
    reach = _panel_reach()
    xr, yr = reach[dl + 1, ox + 6], reach[dl + 1, oy + 6]
    b, px, py = _active_blocks(valid & differ, xr, yr)
    near = valid[b] & xr[b, :, px] & yr[b, :, py]
    width = int(near.sum(axis=1).max(initial=0))
    e = np.argsort(~near, axis=1, kind="stable")[:, :width]
    return b, px, py, e, np.take_along_axis(near, e, axis=1)


def _block_power(U, Ux, Uxx, V, Vy, Vyy, Y, dc, X, da, db, wx, wy,
                 p: float) -> np.ndarray:
    """Sum of |Hessian|^p of the blend times the node weights over each
    panel block, shape (blocks,).

    U, Ux, Uxx and V, Vy, Vyy (blocks, entries, k) are the bump profiles
    (g, g', g'') of the touching entries along the block's x and y nodes,
    zero in U on padding entries; (da, db, dc) (blocks, entries) are the
    piece differences, which are affine in X (blocks, k, 1) and Y
    (blocks, 1, k); wx, wy (blocks, k) are the node weights.  da, db and X
    may all be None, meaning zero (the pieces of lifted leaf data differ
    only in the vertical slope): their products are skipped and every other
    term is computed as in the general case.  Tensor-grid nodes factor
    every bump into 1-d profiles, so each field (the normalizing sum, its
    derivatives, the difference-weighted blends) is a batched matrix
    product over the entries.
    """
    def mm(wk, A, B):
        if wk is None:
            return np.matmul(A.transpose(0, 2, 1), B)
        return np.matmul((wk[:, :, None] * A).transpose(0, 2, 1), B)

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
    return np.einsum("nij,ni,nj->n", frob ** p, wx, wy)


def _hess_power_sum(F: PatchedInterpolant, rows: np.ndarray, p: float,
                    orders: tuple) -> list[float]:
    """Integrals of |Hessian|^p over the given rows, one per panel-rule
    order (same quantity as `oracles._hess_power_sum_pointwise`).

    The blocks are gathered once per batch of rows for all orders, as for
    the edge-weight classes: `_reaching_blocks` with the entries whose
    piece differs from the row's marked; only the nodes are per order.  The
    bump profiles differ: here they are evaluated in floats at each block's
    own nodes in the frame, for its reaching entries only, as the point
    evaluator does.  Profiles read from `_profile_table` round their
    arguments in the unit square instead, and that moves the sums of general
    data off the pointwise path by up to 2.2e-12 relative on a depth-1 tree
    and 9.3e-11 on a depth-2 one, through the steep bump edges; the
    edge-weight classes take the table so that a class integral does not
    depend on depth.  Rows are batched by the largest order's node count,
    blocks by BLOCK_NODES nodes (`_block_power`).
    """
    wd, co, idx = F.wd, F.pieces, F.piece_of
    npan = PANEL_EDGES.size - 1
    rules = [(gx.reshape(npan, -1), gw.reshape(npan, -1))
             for gx, gw in map(_panel_rule, orders)]
    totals = [0.0] * len(rules)
    per_row = max(gp.size for gp, _ in rules) ** 2
    for sl in _batches(rows.size, per_row, 2_000_000):
        R = rows[sl]
        cand, dl, ox, oy, valid = _touching_offsets(wd, R)
        jc, jr = idx[cand], idx[R]
        differ = np.any(co[jc] != co[jr][:, None], axis=2)
        blocks = _reaching_blocks(dl, ox, oy, valid, differ)
        for i, (gp, wp) in enumerate(rules):
            for bs in _batches(blocks[0].size, wp.shape[1] ** 2, BLOCK_NODES):
                b, px, py, e, on = (x[bs] for x in blocks)
                r, c = R[b], cand[b[:, None], e]
                kr, kc = jr[b], jc[b[:, None], e]
                h = 0.5 * wd.delta[r]
                xn = wd.cx[r][:, None] + h[:, None] * gp[px]
                yn = wd.cy[r][:, None] + h[:, None] * gp[py]
                d = wd.delta[c][:, :, None]
                gu, gu1, gu2 = _profile((xn[:, None] - wd.cx[c][:, :, None])
                                        / d)
                gv, gv1, gv2 = _profile((yn[:, None] - wd.cy[c][:, :, None])
                                        / d)
                m = on[:, :, None]
                da, db, dc = (co[kc, j] - co[kr, j][:, None]
                              for j in range(3))
                X = xn[:, :, None]
                if not (da.any() or db.any()):
                    da = db = X = None    # lifted data: only c differs
                per_block = _block_power(gu * m, gu1 * m / d, gu2 * m / d ** 2,
                                         gv, gv1 / d, gv2 / d ** 2,
                                         yn[:, None, :], dc, X, da, db,
                                         wp[px], wp[py], p)
                totals[i] += float(np.sum(per_block * h ** 2))
    return totals


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
                    refine_tol: float = REFINE_TOL) -> tuple[float, float]:
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
    coarse, fine = _hess_power_sum(F, rows, p, (quad_order, 2 * quad_order))
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
    with one other cluster, n_classes their configuration classes and
    n_blocks the classes of panel blocks, one integral each per order (see
    `edge_weights`); all three are read-only output.
    """

    p: float
    quad_order: int
    pairs: np.ndarray
    M_coarse: np.ndarray
    M_fine: np.ndarray
    mixed_rows: np.ndarray
    n_rows: int
    n_classes: int
    n_blocks: int

    def seminorm(self, Phi: np.ndarray,
                 F: PatchedInterpolant) -> tuple[float, float]:
        """planar_seminorm(F, p, quad_order) for F the extension
        of lifted leaf data whose clusters carry the vertical slopes Phi; F
        is read only on the mixed rows."""
        jump = np.abs(Phi[self.pairs[:, 0]] - Phi[self.pairs[:, 1]]) ** self.p
        coarse, fine = float(jump @ self.M_coarse), float(jump @ self.M_fine)
        if self.mixed_rows.size:
            c, f = _hess_power_sum(F, self.mixed_rows, self.p,
                                   (self.quad_order, 2 * self.quad_order))
            coarse, fine = coarse + c, fine + f
        return _order_doubling_estimate(coarse, fine, self.p, REFINE_TOL)


def _configurations(wd, lab: np.ndarray, rows: np.ndarray) -> tuple:
    """Padded touching lists cand of rows and the local configuration of
    each row in integer square coordinates: (cand, (dl, ox, oy, other,
    valid, height)), with (dl, ox, oy, valid) along cand as in
    `_touching_offsets`, the other-cluster flag, and the row's height
    8 * cy / delta.  A unit jump on the row reads nothing else."""
    cand, dl, ox, oy, valid = _touching_offsets(wd, rows)
    other = lab[cand] != lab[rows][:, None]
    # 8 * cy / delta = 8 * (iy + 1/2 - 3 * 2^(l - 3)): y = 0 lies 3/8 of
    # the way up the frame [-3, 5]
    height = (8 * wd.iys[rows].astype(np.int64) + 4 -
              (3 << wd.levels[rows].astype(np.int64)))
    return cand, (dl, ox, oy, other, valid, height)


def _mirror(conf: tuple, sx: int, sy: int) -> tuple:
    """conf under x -> sx * x and y -> sy * y about each row's centre; the
    height is measured along y, so it follows sy."""
    dl, ox, oy, other, valid, height = conf
    return dl, sx * ox, sy * oy, other, valid, sy * height


def _unique_rows(a: np.ndarray) -> np.ndarray:
    """Rank of each row of the 2-d integer array a among its distinct rows
    in lexicographic order (the inverse of np.unique(a, axis=0)), by one
    lexsort and a compare of adjacent sorted rows.  Each column is shifted
    to start at 0 and sorted in the narrowest unsigned type that holds it,
    which numpy sorts by radix when it has 16 bits or fewer."""
    cols = [c - c.min() for c in a.T]
    cols = [c.astype(np.min_scalar_type(c.max())) for c in cols]
    order = np.lexsort(cols[::-1])
    new = np.zeros(len(a), dtype=bool)
    new[0] = True
    for c in cols:
        s = c[order]
        new[1:] |= s[1:] != s[:-1]
    rank = np.empty(len(a), dtype=np.int64)
    rank[order] = np.cumsum(new) - 1
    return rank


def _mirror_classes(keys: list) -> tuple[np.ndarray, np.ndarray]:
    """Classes of the rows keyed by keys, one integer array per mirror
    image in the same row order; rows share a class when some images share
    a key.  (index of each class's first row, class of each row)."""
    rank = _unique_rows(np.vstack(keys)).reshape(len(keys), -1)
    _, first, cls = np.unique(rank.min(axis=0), return_index=True,
                              return_inverse=True)
    return first, cls.ravel()


def _mirror_keys(conf: tuple, sx: int, sy: int) -> list:
    """Key columns of each row of conf under x -> sx * x, y -> sy * y: the
    height, then the sorted entry codes with the padding last."""
    dl, ox, oy, other, valid, height = _mirror(conf, sx, sy)
    # one integer per entry, digits (dl + 1, ox + 6, oy + 6, flag) in radix
    # (3, 13, 13, 2): touching squares have |dl| <= 1 and centre offsets
    # within 6 quarters; the padding sorts last
    code = (((dl + 1) * 13 + ox + 6) * 13 + oy + 6) * 2 + other
    code = np.where(valid, code, 3 * 13 * 13 * 2)
    return [height[:, None], np.sort(code, axis=1)]


def _configuration_classes(conf: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Classes of rows with the same unit-jump integral up to the scale
    delta^(2 - p): (index of each class's first row, class of each row).

    Rows of one configuration (`_configurations`) share the integral over
    the unit square.  |Hessian| is unchanged by either mirror about the
    square's centre: y -> -y negates the y offsets and the height, x -> -x
    the x offsets, and each negates Hxy at most.  The panel rule is
    symmetric about 0, so a configuration and its three mirror images share
    a class.  Integer arithmetic throughout.
    """
    return _mirror_classes([np.hstack(_mirror_keys(conf, sx, sy))
                            for sx in (1, -1) for sy in (1, -1)])


def _class_blocks(conf: tuple) -> tuple:
    """Active panel blocks of the unit jump in each configuration of conf,
    each with the configuration of the touching entries that reach it
    (`_reaching_blocks`, with the other-cluster entries differing):
    (row, x-panel, y-panel, dl, ox, oy, other, on, height).

    (dl, ox, oy, other) (blocks, width) list the reaching entries in
    touching-list order, padded to the largest count of them; on marks the
    ones that are not padding, and height is the row's.
    """
    dl, ox, oy, other, valid, height = conf
    b, px, py, e, on = _reaching_blocks(dl, ox, oy, valid, other)
    r = b[:, None]
    return (b, px, py, dl[r, e], ox[r, e], oy[r, e], other[r, e], on,
            height[b])


def _block_classes(blocks: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Classes of the active blocks (`_class_blocks`) with the same
    integral: (index of each class's first block, class of each block).

    The integrand on a block reads only its panels, its row's height and
    the entries that reach it, so the key is (x-panel, y-panel) plus the
    key of that configuration, folded under both mirrors as in
    `_configuration_classes`: x -> -x also reverses the x-panels, y -> -y
    the y-panels.
    """
    _, px, py = blocks[:3]
    last = PANEL_EDGES.size - 2
    return _mirror_classes([
        np.column_stack([px if sx > 0 else last - px,
                         py if sy > 0 else last - py,
                         *_mirror_keys(blocks[3:], sx, sy)])
        for sx in (1, -1) for sy in (1, -1)])


def _blocks_power(blocks: tuple, p: float, order: int) -> np.ndarray:
    """Integral of |Hessian|^p of the unit jump over each of the given
    blocks (`_class_blocks`) in the rule's coordinates on [-1, 1]^2, shape
    (blocks,), from the entries that reach each block; on the unit square
    it is a quarter of this.  The field is y * theta_other, with
    y = height/8 + gx/2.
    """
    gx, gw = _panel_rule(order)
    npan = PANEL_EDGES.size - 1
    k = gx.size // npan
    table = [t.reshape(3, 13, npan, k) for t in _profile_table(order)]
    wp = gw.reshape(npan, k)
    out = []
    for sl in _batches(blocks[0].size, k * k, BLOCK_NODES):
        _, px, py, dl, ox, oy, other, on, height = (x[sl] for x in blocks)
        i, qx, qy = dl + 1, px[:, None], py[:, None]
        U, Ux, Uxx = (t[i, ox + 6, qx] * on[:, :, None] for t in table)
        V, Vy, Vyy = (t[i, oy + 6, qy] for t in table)
        Y = height[:, None] / 8.0 + 0.5 * gx.reshape(npan, k)[py]
        out.append(_block_power(U, Ux, Uxx, V, Vy, Vyy, Y[:, None, :],
                                (other & on).astype(float), None, None,
                                None, wp[px], wp[py], p))
    return np.concatenate(out)


def _class_power(conf: tuple, p: float, orders: tuple) -> tuple[list, int]:
    """Integral of |Hessian|^p of the unit jump over a unit square in each
    configuration of conf (`_configurations`), one array of shape (rows,)
    per panel-rule order, and the number of block classes integrated.

    The integral is the sum over the square's active panel blocks
    (`_class_blocks`), which repeat across configurations: they are
    gathered and classed (`_block_classes`) once, and each class is
    integrated at every order from its first block, with only the entries
    that reach it and the profiles of `_profile_table`, whatever its depth.
    A square of side delta integrates to delta^(2 - p) times this.
    """
    blocks = _class_blocks(conf)
    first, cls = _block_classes(blocks)
    heads = tuple(x[first] for x in blocks)
    return [0.25 * np.bincount(blocks[0],
                               weights=_blocks_power(heads, p, order)[cls],
                               minlength=len(conf[0]))
            for order in orders], int(first.size)


def edge_weights(wd, ct: ClusterTree, p: float,
                 quad_order: int = 12) -> EdgeWeights:
    """Unit-jump weights of every touching cluster pair of the assigned
    decomposition (see EdgeWeights), at quad_order and its double.

    The rows come from the touching lists of the squares on a cluster
    boundary, which `ClusterTree.cross_rows` gives; those lists are gathered
    once, for the cluster scan and the configurations alike.  The rows with
    one other cluster fall into configuration classes, folded under both
    mirrors (`_configuration_classes`).  Each class is integrated on the
    unit square from its integer configuration (`_class_power`): its active
    panel blocks fall into block classes across all configurations, and
    each block class is integrated once per order.  Every row takes its
    class integral times delta_row^(2 - p).
    """
    if quad_order < 4:
        raise ValueError("quad_order must be at least 4")
    if ct.square_cluster is None:
        raise ValueError("clusters are not assigned to squares")
    lab = ct.square_cluster.astype(np.int64)
    n = np.int64(ct.n_clusters)
    R = ct.cross_rows(wd)
    cand, conf = _configurations(wd, lab, R)
    at, j = np.nonzero(conf[4] & conf[3])     # valid entries of another cluster
    touch = np.unique(at * n + lab[cand[at, j]])
    at, partner = touch // n, touch % n
    n_other = np.bincount(at, minlength=R.size)
    mixed = R[n_other >= 2]
    single = n_other[at] == 1
    at, partner = at[single], partner[single]
    rows = R[at]
    a = np.minimum(lab[rows], partner)
    b = np.maximum(lab[rows], partner)
    keys, pair_of_row = np.unique(a * n + b, return_inverse=True)
    conf = tuple(c[at] for c in conf)
    first, cls = _configuration_classes(conf)
    reps = tuple(c[first] for c in conf)
    scale = wd.delta[rows] ** (2.0 - p)
    w, n_blocks = _class_power(reps, p, (quad_order, 2 * quad_order))
    M_coarse, M_fine = (np.bincount(pair_of_row, weights=scale * wo[cls],
                                    minlength=keys.size) for wo in w)
    pairs = np.column_stack([keys // n, keys % n])
    return EdgeWeights(float(p), int(quad_order), pairs, M_coarse, M_fine,
                       mixed, int(rows.size), int(first.size), n_blocks)


@functools.lru_cache(maxsize=None)
def _unit_disk(rings: int, angles: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the unit-disk rule, cached read-only: Gauss on
    the radius, uniform on the angle (weights sum to pi)."""
    if rings < 4 or angles < 4:
        raise ValueError("rings and angles must be at least 4")
    t, wt = _gl(rings)
    r = 0.5 * (t + 1.0)
    th = 2.0 * np.pi * np.arange(angles) / angles
    pts = np.stack([r[:, None] * np.cos(th), r[:, None] * np.sin(th)], axis=-1)
    wgt = np.repeat(0.5 * wt * r * (2.0 * np.pi / angles), angles)
    return _read_only(pts.reshape(-1, 2), wgt)


def disk_rule(center, radius: float, rings: int = 64,
              angles: int = 128) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights integrating over the disk (weights sum to its area):
    the unit-disk rule scaled.  Exact for polynomials of moderate degree and
    for every trigonometric mode below the angle count."""
    pts, wgt = _unit_disk(rings, angles)
    return np.asarray(center, dtype=float) + radius * pts, radius ** 2 * wgt


def ball_average(F, centers, radii, rings: int = 64,
                 angles: int = 128) -> np.ndarray:
    """Means of the vertical derivative of F over k closed disks, given by
    (k, 2) centres and (k,) radii.  Every disk scales the one unit-disk rule;
    the nodes of consecutive disks go to F.evaluate together, at most
    DISK_NODES per call, or one disk per call when a disk has more."""
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or centers.shape != (radii.size, 2):
        raise ValueError("centers must be (k, 2) and radii (k,)")
    pts, wgt = _unit_disk(rings, angles)
    per = max(1, DISK_NODES // wgt.size)
    out = np.empty(radii.size)
    for s in range(0, radii.size, per):
        nodes = centers[s:s + per, None] + radii[s:s + per, None, None] * pts
        g = F.evaluate(nodes.reshape(-1, 2), order=1)[:, 1]
        out[s:s + per] = g.reshape(-1, wgt.size) @ wgt / np.pi
    return out


def disk_seminorm(F, center, radius: float, p: float, rings: int = 64,
                  angles: int = 128) -> float:
    """Seminorm of F over a disk (same integrand as planar_seminorm)."""
    pts, wgt = disk_rule(center, radius, rings, angles)
    H = F.evaluate(pts, order=2)
    frob = np.sqrt(H[:, 0, 0] ** 2 + 2.0 * H[:, 0, 1] ** 2 + H[:, 1, 1] ** 2)
    return float(np.sum(frob ** p * wgt)) ** (1.0 / p)


def ball_estimate_sums(ct: ClusterTree, G, p: float, rings: int = 64,
                       angles: int = 128) -> tuple[float, float]:
    """The two left-hand sums of the ball estimate for a field G.

    First: parent jumps of disk averages of the vertical derivative, weighted
    by W^(2-p), over all non-root clusters.  Second: for each leaf cluster,
    the gap between the vertical slope of the three-point jet at its boundary
    point and the disk average, same weights.  Every disk average comes from
    one ball_average call, every jet slope from `whitney.jet_slopes` on G's
    values at the E2 points and their grid anchors.
    """
    tree, ps = ct.tree, ct.ps
    avg = ball_average(G, ct.y, ct.radius, rings, angles)
    w = tree.weights
    sum1 = float(np.sum(np.abs(avg[1:] - avg[tree.parent[1:]]) ** p *
                        w[1:] ** (2.0 - p)))
    slope = jet_slopes(ps, G.evaluate(ps.e2, order=0), lambda k: G.evaluate(
        np.column_stack([k * ps.delta, np.zeros(k.size)]), order=0))
    leaf = tree.is_leaf
    sum2 = float(np.sum(np.abs(slope - avg[leaf]) ** p *
                        w[leaf] ** (2.0 - p)))
    return sum1, sum2


@dataclass(frozen=True)
class GaussianBumpField:
    """Sum of isotropic Gaussian bumps; smooth test input with exact
    derivatives for quadrature cross-checks."""

    centers: np.ndarray
    amps: np.ndarray
    widths: np.ndarray

    @classmethod
    def random(cls, rng: np.random.Generator):
        """Three bumps: centres uniform on [-1, 3] x [-1, 2], standard normal
        amplitudes, widths uniform on [0.3, 1.2]."""
        centers = np.column_stack([rng.uniform(-1.0, 3.0, 3),
                                   rng.uniform(-1.0, 2.0, 3)])
        amps = rng.standard_normal(3)
        widths = rng.uniform(0.3, 1.2, 3)
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

