"""Cluster tree over the planar boundary points and the square-to-cluster map.

Every tree node v yields a cluster: the E2 points of the leaves below v, with
weight W_v, a representative y_C (the first member in tree order, for
reproducibility), and a ball B_C centered at y_C of radius kappa * K1 * W_C.
The balls nest along ancestry and, at build time, are verified to be pairwise
disjoint within each depth; that is what makes the deepest-ball assignment of
Whitney squares unambiguous.

The literal ball chain one might hope for, disjointness of the 50-fold dilates
at every depth, cannot hold at desk-scale decay rates: sibling representatives
sit about W_parent/(N-1) apart while the dilated radii scale like
50 * kappa * K1 * epsilon * W_parent, so the dilates collide unless epsilon is
below roughly 1/(100 * kappa * K1 * N).  The build therefore asserts what the
construction uses (nesting, undilated disjointness, the root ball covering the
whole frame) and reports the largest dilation factor each instance sustains,
plus the separation margin of the dilates, as measured constants.
"""

from __future__ import annotations

import json

import numpy as np

from .embedding import PlanarSet
from .tree_core import WeightedTree
from .whitney import (Q0_HI, Q0_LO, TYPE_II, WhitneyDecomposition,
                      touching_pairs)

REL_TOL = 1e-12
KAPPA = 10.25   # default ball dilation; build_clusters needs kappa > 10


class ClusterBallError(RuntimeError):
    """Ball-property violations; carries the full list of findings."""

    def __init__(self, violations: list[str]):
        super().__init__("cluster ball properties failed:\n  " +
                         "\n  ".join(violations))
        self.violations = violations


class ClusterTree:
    """Clusters indexed like the tree nodes (cluster i = shadow of node i).

    member_points(i) gives the E2 points; y[i], radius[i] the ball;
    square_cluster is filled by assign_clusters.  `cross_rows` derives the
    squares whose touching list holds another cluster from square_cluster
    and caches them; setting square_cluster clears the cache.  kappa and K1
    are stored for reporting.
    """

    def __init__(self, tree: WeightedTree, ps: PlanarSet, kappa: float,
                 K1: float):
        self.tree = tree
        self.ps = ps
        self.kappa = float(kappa)
        self.K1 = float(K1)
        first_leaf = tree.leaf_lo
        self.y = ps.e2[first_leaf].copy()
        self.radius = kappa * K1 * tree.weights
        self.square_cluster = None
        self.report: dict = {}

    @property
    def square_cluster(self) -> np.ndarray | None:
        return self._square_cluster

    @square_cluster.setter
    def square_cluster(self, lab: np.ndarray | None) -> None:
        self._square_cluster = lab
        self._cross_rows = None

    def cross_rows(self, wd: WhitneyDecomposition) -> np.ndarray:
        """Ascending rows on a cluster boundary under square_cluster
        (`cross_cluster_rows`), computed on first use and cached until the
        labels are set again."""
        if self._cross_rows is None:
            self._cross_rows = cross_cluster_rows(wd, self.square_cluster)
        return self._cross_rows

    @property
    def n_clusters(self) -> int:
        return self.tree.n_nodes

    def member_points(self, i: int) -> np.ndarray:
        return self.ps.e2[self.tree.leaf_lo[i]:self.tree.leaf_hi[i]]

    def to_json_dict(self) -> dict:
        nodes = [{"node": v,
                  "weight": float(self.tree.weights[i]),
                  "y": [float(self.y[i, 0]), float(self.y[i, 1])],
                  "radius": float(self.radius[i]),
                  "members": int(self.tree.leaf_hi[i] - self.tree.leaf_lo[i])}
                 for i, v in enumerate(self.tree.ids)]
        return {"kappa": self.kappa, "K1": self.K1, "clusters": nodes}

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)
            fh.write("\n")


def auto_k1(tree: WeightedTree, ps: PlanarSet, kappa: float) -> float:
    """Smallest workable K1 with a 1.1 margin: every cluster must fit in the
    kappa-th part of its ball, and the root ball must swallow the frame."""
    first_leaf = tree.leaf_lo
    ys = ps.e2[first_leaf]
    need = 1.0
    for i in range(tree.n_nodes):
        pts = ps.e2[tree.leaf_lo[i]:tree.leaf_hi[i]]
        if pts.shape[0] > 1:
            d = np.hypot(pts[:, 0] - ys[i, 0], pts[:, 1] - ys[i, 1]).max()
            need = max(need, d / tree.weights[i])
    y0 = ys[0]
    corners = np.array([[Q0_LO, Q0_LO], [Q0_LO, Q0_HI], [Q0_HI, Q0_LO],
                        [Q0_HI, Q0_HI]])
    reach = np.hypot(corners[:, 0] - y0[0], corners[:, 1] - y0[1]).max()
    need = max(need, reach / kappa)  # root weight is 1
    return 1.1 * need


def build_clusters(tree: WeightedTree, ps: PlanarSet, kappa: float = KAPPA,
                   K1: float | None = None) -> ClusterTree:
    """Build and verify the cluster tree.

    kappa must exceed 10; K1 defaults to the per-instance choice of `auto_k1`.
    Raises ClusterBallError listing every violated property (nesting,
    containment, same-depth disjointness, frame coverage).
    """
    if kappa <= 10.0:
        raise ValueError(f"kappa = {kappa} must exceed 10")
    if K1 is None:
        K1 = auto_k1(tree, ps, kappa)
    if K1 < 1.0:
        raise ValueError(f"K1 = {K1} must be at least 1")
    ct = ClusterTree(tree, ps, kappa, K1)
    ct.report = _verify_balls(ct)
    if ct.report["violations"]:
        raise ClusterBallError(ct.report["violations"])
    return ct


def _verify_balls(ct: ClusterTree) -> dict:
    tree, ps = ct.tree, ct.ps
    kappa, K1 = ct.kappa, ct.K1
    tol = 1.0 + REL_TOL
    bad: list[str] = []
    # members must sit within radius/kappa of the representative
    member_margin = np.inf
    for i in range(tree.n_nodes):
        pts = ct.member_points(i)
        d = np.hypot(pts[:, 0] - ct.y[i, 0], pts[:, 1] - ct.y[i, 1])
        lim = ct.radius[i] / kappa
        if d.size:
            member_margin = min(member_margin, lim / max(d.max(), 1e-300))
            if d.max() > lim * tol:
                bad.append(f"member containment, node {tree.ids[i]!r}: distance "
                           f"{d.max():.4g} exceeds radius/kappa = {lim:.4g}")
    # the kappa-dilated ball must nest inside the parent ball
    nesting_margin = np.inf
    for i in range(1, tree.n_nodes):
        par = tree.parent[i]
        lhs = np.hypot(*(ct.y[i] - ct.y[par])) + kappa * ct.radius[i]
        nesting_margin = min(nesting_margin, ct.radius[par] / lhs)
        if lhs > ct.radius[par] * tol:
            bad.append(f"ball nesting, node {tree.ids[i]!r}: kappa-dilate reaches "
                       f"{lhs:.4g} > parent radius {ct.radius[par]:.4g}")
    # the radius formula itself; assert the identity
    if not np.allclose(ct.radius, kappa * K1 * tree.weights, rtol=1e-15):
        bad.append("radius formula: stored radii do not equal kappa*K1*W_C")
    # same-depth disjointness of the undilated balls, and the dilation factor
    # at which each depth would start to collide
    max_dilation = np.inf
    min_margin = np.inf
    for dep in range(1, int(tree.depths.max()) + 1):
        rows = np.flatnonzero(tree.depths == dep)
        if rows.size < 2:
            continue
        yy = ct.y[rows]
        rr = ct.radius[rows]
        dist = np.hypot(yy[:, None, 0] - yy[None, :, 0],
                        yy[:, None, 1] - yy[None, :, 1])
        rsum = rr[:, None] + rr[None, :]
        iu = np.triu_indices(rows.size, k=1)
        ratio = dist[iu] / rsum[iu]
        max_dilation = min(max_dilation, float(ratio.min()))
        min_margin = min(min_margin, float((dist[iu] - rsum[iu]).min()))
        if ratio.min() <= 1.0:
            k = int(np.argmin(ratio))
            a, b = iu[0][k], iu[1][k]
            bad.append(
                f"depth disjointness, depth {dep}: balls of {tree.ids[rows[a]]!r} and "
                f"{tree.ids[rows[b]]!r} overlap (centers {dist[a, b]:.4g} "
                f"apart, radii sum {rsum[a, b]:.4g})")
    # the root ball must cover the whole frame (descent starts there)
    corners = np.array([[Q0_LO, Q0_LO], [Q0_LO, Q0_HI], [Q0_HI, Q0_LO],
                        [Q0_HI, Q0_HI]])
    reach = np.hypot(corners[:, 0] - ct.y[0, 0],
                     corners[:, 1] - ct.y[0, 1]).max()
    if reach > ct.radius[0] * tol:
        bad.append(f"frame coverage: root ball radius {ct.radius[0]:.4g} misses "
                   f"a frame corner at distance {reach:.4g}")
    # separation of the 50-dilates relative to parent weights
    k0_dilate = 50.0
    gap_min = np.inf
    for dep in range(1, int(tree.depths.max()) + 1):
        rows = np.flatnonzero(tree.depths == dep)
        if rows.size < 2:
            continue
        yy, rr = ct.y[rows], ct.radius[rows]
        pw = tree.weights[tree.parent[rows]]
        iu = np.triu_indices(rows.size, k=1)
        dist = np.hypot(yy[:, None, 0] - yy[None, :, 0],
                        yy[:, None, 1] - yy[None, :, 1])[iu]
        gap = dist - k0_dilate * (rr[:, None] + rr[None, :])[iu]
        denom = (pw[:, None] + pw[None, :])[iu]
        gap_min = min(gap_min, float((tree.N * np.maximum(gap, 0.0) / denom).min()))
    # diameter-to-weight spread over the internal clusters
    diam_ratios = []
    for i in range(tree.n_nodes):
        pts = ct.member_points(i)
        if pts.shape[0] > 1:
            dd = np.hypot(pts[:, None, 0] - pts[None, :, 0],
                          pts[:, None, 1] - pts[None, :, 1]).max()
            diam_ratios.append(dd / tree.weights[i])
    return {
        "violations": bad,
        "member_margin": float(member_margin),
        "nesting_margin": float(nesting_margin),
        "same_depth_max_dilation": float(max_dilation),
        "same_depth_min_gap": float(min_margin),
        "dilate_gap_metric": float(gap_min),
        "diam_over_weight_min": float(min(diam_ratios)) if diam_ratios else None,
        "diam_over_weight_max": float(max(diam_ratios)) if diam_ratios else None,
    }


# -- square assignment -----------------------------------------------------------


def _square_in_ball(wd: WhitneyDecomposition, rows: np.ndarray, center,
                    radius: float) -> np.ndarray:
    """Closed containment of whole squares in a closed ball, by corner reach."""
    h = 0.5 * wd.delta[rows]
    dx = np.abs(wd.cx[rows] - center[0]) + h
    dy = np.abs(wd.cy[rows] - center[1]) + h
    tol = REL_TOL * wd.delta[rows]
    return np.hypot(dx, dy) <= radius + tol


def cross_cluster_rows(wd: WhitneyDecomposition, lab: np.ndarray) -> np.ndarray:
    """Ascending rows whose touching list holds a square of another cluster
    under the labels lab: the squares on a cluster boundary."""
    ip = wd.neighbors_indptr
    small = lab.astype(np.min_scalar_type(int(lab.max())))  # narrow gathers
    # take, not fancy indexing: it reads the int32 lists without a slow path
    hit = np.flatnonzero(small.take(wd.neighbors) !=
                         np.repeat(small, np.diff(ip)))
    # hit in the pointers' own dtype: mixed dtypes would widen ip per call
    return np.unique(np.searchsorted(ip, hit.astype(ip.dtype), "right") - 1)


def assign_clusters(ct: ClusterTree, wd: WhitneyDecomposition) -> np.ndarray:
    """Deepest cluster whose ball contains each square, by root-to-leaf descent.

    Stores and returns the array of cluster indices (tree-node rows), and
    caches the squares on a cluster boundary (`ClusterTree.cross_rows`).
    Raises on descent ambiguity (impossible while same-depth balls are
    disjoint) and asserts the two pinned cases: Type II squares land on the
    witness's leaf cluster and frame squares stay at the root.
    """
    tree = ct.tree
    n = wd.n
    assign = np.zeros(n, dtype=np.int32)
    frontier = {0: np.arange(n)}
    while frontier:
        nxt: dict[int, np.ndarray] = {}
        for ci, rows in frontier.items():
            taken = np.zeros(rows.size, dtype=bool)
            for child in tree.children[ci]:
                inside = _square_in_ball(wd, rows, ct.y[child],
                                         float(ct.radius[child]))
                both = taken & inside
                if np.any(both):
                    q = int(rows[np.flatnonzero(both)[0]])
                    raise AssertionError(
                        f"square row {q} fits the balls of two children of "
                        f"{tree.ids[ci]!r}; same-depth balls should be disjoint")
                taken |= inside
                if np.any(inside):
                    nxt[child] = rows[inside]
                assign[rows[inside]] = child
        frontier = nxt
    # pinned cases of the assignment
    m2 = wd.type_codes == TYPE_II
    if np.any(m2):
        leaf_rows = np.array([tree.index[v] for v in tree.leaf_ids])
        want = leaf_rows[wd.e2_witness[m2]]
        got = assign[m2]
        if not np.array_equal(got, want):
            k = int(np.flatnonzero(got != want)[0])
            raise AssertionError(
                f"a Type II square was assigned {tree.ids[int(got[k])]!r} "
                f"instead of its witness leaf {tree.ids[int(want[k])]!r}")
    if not np.all(assign[wd.boundary] == 0):
        raise AssertionError("a frame square left the root cluster")
    ct.square_cluster = assign
    ct.cross_rows(wd)    # every reader of the labels reads these rows
    return assign


def pair_sets(ct: ClusterTree, wd: WhitneyDecomposition,
              p_values: tuple[float, ...] = (1.5,)) -> dict:
    """Neighbor pairs straddling each parent-child cluster boundary and the
    scale sums R_C = sum delta_Q^(2-p) / W_C^(2-p) over them.

    Also asserts that every neighboring pair of squares has equal clusters or
    clusters one tree-edge apart.  Only the touching lists of the cluster
    boundary rows (`ClusterTree.cross_rows`) are read: every pair with two
    clusters has its source there, in the order of a scan over all rows.
    """
    if ct.square_cluster is None:
        assign_clusters(ct, wd)
    assign = ct.square_cluster
    tree = ct.tree
    src, dst = touching_pairs(wd, ct.cross_rows(wd))
    cs, cd = assign[src], assign[dst]
    differ = cs != cd
    par = tree.parent
    child_side = par[cs[differ]] == cd[differ]
    parent_side = par[cd[differ]] == cs[differ]
    if not np.all(child_side | parent_side):
        k = int(np.flatnonzero(~(child_side | parent_side))[0])
        qs = src[differ][k]
        raise AssertionError(
            f"touching squares {int(qs)} and {int(dst[differ][k])} carry "
            f"clusters {tree.ids[int(cs[differ][k])]!r} / "
            f"{tree.ids[int(cd[differ][k])]!r} that are not parent and child")
    # Q_C: (Q, Q') with C_Q = C, C_{Q'} = parent(C); orient accordingly
    qsel = src[differ][child_side]
    csel = cs[differ][child_side]
    r_values: dict[str, dict] = {}
    pair_count: dict[str, int] = {}
    for ci in range(1, tree.n_nodes):
        mask = csel == ci
        v = tree.ids[ci]
        pair_count[v] = int(mask.sum())
        if not np.any(mask):
            r_values[v] = {p: 0.0 for p in p_values}
            continue
        deltas = wd.delta[qsel[mask]]
        wc = tree.weights[ci]
        r_values[v] = {p: float(np.sum(deltas ** (2.0 - p)) / wc ** (2.0 - p))
                       for p in p_values}
    return {"R": r_values, "pair_counts": pair_count,
            "max_R": {p: max(r[p] for r in r_values.values()) if r_values else 0.0
                      for p in p_values}}
