"""Cross-checks: independent, slow computations of what the production paths
compute fast.

Each oracle recomputes one production result by the most direct route: a
closed digit sum for the embedding, a recursive decomposition over
materialized E1, an O(n^2) dilate test, a
pointwise Hessian quadrature, a corner-by-corner sup of an affine piece, an
exhaustive grid search, a scan of every cluster ball.  Tests compare them
with the production functions on small instances; `suite.verify_tree` runs
`assign_clusters_naive` as its named assignment cross-check.  No
production path computes through this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import _panel_rule
from .clusters import ClusterTree, _square_in_ball
from .embedding import PlanarSet
from .interpolant import AffinePolynomial, PatchedInterpolant
from .tree_core import NodeFunction, WeightedTree, _check_p
from .tree_extension import _leaf_array
from .whitney import (Q0_LO, Q0_SIDE, REL_TOL, TYPE_I, TYPE_II, TYPE_III,
                      WhitneyCapError, WhitneyDecomposition, _morton_padded,
                      finest_grid)

QUAD_CHUNK = 400_000


# -- Whitney decomposition -----------------------------------------------------

@dataclass(frozen=True)
class DyadicSquare:
    level: int
    ix: int
    iy: int

    @property
    def delta(self) -> float:
        return Q0_SIDE * 2.0 ** -self.level

    @property
    def corner(self) -> tuple[float, float]:
        d = self.delta
        return (Q0_LO + self.ix * d, Q0_LO + self.iy * d)

    @property
    def center(self) -> tuple[float, float]:
        d = self.delta
        return (Q0_LO + (self.ix + 0.5) * d, Q0_LO + (self.iy + 0.5) * d)

    def rect(self, r: float = 1.0) -> tuple[float, float, float, float]:
        """Closed r-dilate as (x0, y0, x1, y1)."""
        cx, cy = self.center
        h = 0.5 * r * self.delta
        return (cx - h, cy - h, cx + h, cy + h)

    def parent(self) -> "DyadicSquare":
        if self.level == 0:
            raise ValueError("Q0 has no parent")
        return DyadicSquare(self.level - 1, self.ix >> 1, self.iy >> 1)

    def children(self) -> list["DyadicSquare"]:
        lv, ax, ay = self.level + 1, self.ix * 2, self.iy * 2
        return [DyadicSquare(lv, ax + dx, ay + dy)
                for dx in (0, 1) for dy in (0, 1)]


def decompose_naive(ps: PlanarSet, cap: int = 10 ** 5):
    """Independent recursive enumerator with materialized E1 and brute-force
    counting.  Returns (squares, types) sorted like the fast path.
    Checks `whitney.decompose` (squares, order and type codes)."""
    pts = np.vstack([ps.e1_points(), ps.e2]) if ps.e1_count else ps.e2

    def count(q: DyadicSquare, r: float) -> int:
        x0, y0, x1, y1 = q.rect(r)
        tol = REL_TOL * q.delta
        m = (pts[:, 0] >= x0 - tol) & (pts[:, 0] <= x1 + tol) & \
            (pts[:, 1] >= y0 - tol) & (pts[:, 1] <= y1 + tol)
        return int(m.sum())

    out: list[DyadicSquare] = []
    stack = [DyadicSquare(0, 0, 0)]
    while stack:
        q = stack.pop()
        if count(q, 3.0) <= 1:
            out.append(q)
            if len(out) > cap:
                raise WhitneyCapError(len(out), cap)
        else:
            stack.extend(q.children())
    levels = np.array([q.level for q in out], dtype=np.int64)
    ixs = np.array([q.ix for q in out], dtype=np.int64)
    iys = np.array([q.iy for q in out], dtype=np.int64)
    order = np.argsort(_morton_padded(levels, ixs, iys), kind="stable")
    squares = [out[i] for i in order]
    types = []
    for q in squares:
        n1 = count(q, 1.1) - _count_e2_rect(ps, q)
        n2 = _count_e2_rect(ps, q)
        types.append(TYPE_I if n1 == 1 else TYPE_II if n2 == 1 else TYPE_III)
    return squares, types


def _count_e2_rect(ps: PlanarSet, q: DyadicSquare) -> int:
    x0, y0, x1, y1 = q.rect(1.1)
    tol = REL_TOL * q.delta
    m = (ps.e2[:, 0] >= x0 - tol) & (ps.e2[:, 0] <= x1 + tol) & \
        (ps.e2[:, 1] >= y0 - tol) & (ps.e2[:, 1] <= y1 + tol)
    return int(m.sum())


def neighbors_naive(wd: WhitneyDecomposition) -> list[set[int]]:
    """O(n^2) dilate-intersection test in scaled integers: the 1.1-dilate of a
    square with corner x0 and side s on the finest grid (`finest_grid`)
    spans (20*x0 - s, 20*x0 + 21*s) in units of a twentieth of that grid.
    Checks the touching lists `wd.neighbors_indptr` / `wd.neighbors`."""
    L = wd.max_level
    if L > 25:
        raise ValueError("oracle limited to shallow decompositions")
    x0, y0, side = finest_grid(wd)
    a0, a1 = 20 * x0 - side, 20 * x0 + 21 * side
    b0, b1 = 20 * y0 - side, 20 * y0 + 21 * side
    out = []
    for i in range(wd.n):
        hit = (a0 <= a1[i]) & (a0[i] <= a1) & (b0 <= b1[i]) & (b0[i] <= b1)
        out.append(set(np.flatnonzero(hit).tolist()))
    return out


# -- embedding -----------------------------------------------------------------

def psi(tree: WeightedTree, v: str) -> float:
    """The horizontal embedding coordinate of v by the closed sum over its
    digits.  Checks the recursion of `embedding.psi_all`."""
    tree._require(v)
    total = 0.0
    prefix = ""
    for ch in v:
        total += tree.weight(prefix) * int(ch) / (tree.N - 1)
        prefix += ch
    return total


# -- quadrature ----------------------------------------------------------------

def _hess_power_sum_pointwise(F: PatchedInterpolant, rows: np.ndarray,
                              p: float, order: int) -> float:
    """Reference path: every node goes through the generic point evaluator.
    Checks `analysis._hess_power_sum`."""
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


# -- patching sum --------------------------------------------------------------

def linf_on_rect(P: AffinePolynomial, x0: float, y0: float, x1: float,
                 y1: float) -> float:
    """Sup of |P| over the rectangle, corner by corner: |affine| is convex,
    so the maximum sits at a corner.  Checks the closed-form corner max of
    `interpolant.pair_linf_sum`."""
    return max(abs(P.a + P.b * x + P.c * y) for x in (x0, x1) for y in (y0, y1))


# -- tree extension ------------------------------------------------------------

def brute_force_extension(tree: WeightedTree, phi, p: float,
                          grid_radius: float = 1.0,
                          grid_steps: int = 11) -> NodeFunction:
    """Exhaustive grid search over the interior values, refined 3 times.

    Only for oracle duty: at most 4 interior nodes.
    Checks `tree_extension.optimal_extension`.
    """
    p = _check_p(p)
    leaf_vals = _leaf_array(tree, phi)
    free = np.flatnonzero(~tree.is_leaf)
    if free.size > 4:
        raise ValueError(f"{free.size} interior nodes; brute force allows at most 4")
    vals = np.zeros(tree.n_nodes)
    for v, x in zip(tree.leaf_ids, leaf_vals):
        vals[tree.index[v]] = x
    if free.size == 0:
        return NodeFunction.from_array(tree, vals)
    lo = float(leaf_vals.min()) - grid_radius
    hi = float(leaf_vals.max()) + grid_radius
    centers = np.full(free.size, (lo + hi) / 2.0)
    half = np.full(free.size, (hi - lo) / 2.0)
    w = tree.weights[1:] ** (2.0 - p)
    par = tree.parent[1:]
    best = None
    for _ in range(4):  # initial pass + 3 refinements
        axes = [np.linspace(c - h, c + h, grid_steps) for c, h in zip(centers, half)]
        grids = np.meshgrid(*axes, indexing="ij")
        flat = np.stack([g.ravel() for g in grids], axis=1)       # (M, k)
        allv = np.broadcast_to(vals, (flat.shape[0], tree.n_nodes)).copy()
        allv[:, free] = flat
        d = allv[:, 1:] - allv[:, par]
        energy = np.abs(d) ** p @ w
        k = int(np.argmin(energy))
        best = flat[k]
        centers = best
        half = np.maximum(half * (2.0 / (grid_steps - 1)), 1e-14)
    vals[free] = best
    return NodeFunction.from_array(tree, vals)


# -- clusters ------------------------------------------------------------------

def assign_clusters_naive(ct: ClusterTree, wd: WhitneyDecomposition) -> np.ndarray:
    """Deepest containing cluster by scanning every ball, no descent.
    Checks `clusters.assign_clusters`."""
    tree = ct.tree
    rows = np.arange(wd.n)
    best_depth = np.zeros(wd.n, dtype=np.int64)
    ties = np.zeros(wd.n, dtype=np.int64)
    out = np.zeros(wd.n, dtype=np.int64)
    for ci in range(tree.n_nodes):
        inside = _square_in_ball(wd, rows, ct.y[ci], float(ct.radius[ci]))
        d = int(tree.depths[ci])
        deeper = inside & (d > best_depth)
        ties[inside & (best_depth == d) & (out != ci)] += 1
        out[deeper] = ci
        best_depth[deeper] = d
        ties[deeper] = 0
    if np.any(ties[best_depth > 0] > 0):
        raise AssertionError("deepest containing cluster not unique")
    return out
