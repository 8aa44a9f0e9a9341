"""The two directions of the tree-plane equivalence.

build_geometry runs the one chain from a tree to its geometry: the planar
set, its Whitney decomposition and the cluster tree with every square
assigned.
One piece builder makes every interpolant: the horizontal affine through
each square's two grid base points plus the vertical slope of the square's
cluster.  Where the horizontal affine is one everywhere, as for every lift
of leaf data, the interpolant holds one piece per cluster, indexed by the
cluster labels.  The slopes come from a tree extension backend, "optimal" or
"averaging", which extends leaf slopes to all clusters.  planar_extend reads
the leaf slopes off general boundary data on the planar set.
tree_extend_from_planar goes the other way: it extends the leaf data itself,
builds the interpolant of its lift, then reads every internal node value back
off in one batched ball_average call, the disk average of the vertical
derivative over the node's cluster ball.
norm_ratio_experiment runs both pipelines on random boundary data and reports
the seminorm ratios: it integrates the edge weights of the planar seminorm
once per call, solves the tree extension once per trial, and reports the
deterministic bound on rho_plane that the weights give with the optimal
backend.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analysis import EdgeWeights, ball_average, edge_weights
# re-exported beside the extensions: the direct seminorm of any of them
from .analysis import planar_seminorm  # noqa: F401
from .clusters import KAPPA, ClusterTree, assign_clusters, build_clusters
from .embedding import PlanarSet, build_planar_set
from .interpolant import AffinePolynomial, PatchedInterpolant
from .tree_core import (LeafFunction, NodeFunction, WeightedTree,
                        edge_energy, seminorm_tree)
from .tree_extension import averaging_extension, optimal_extension
from .whitney import (SQUARE_CAP, WhitneyDecomposition, decompose,
                      grid_affine, jet_slopes)

CAVEAT = ("ratio stability across instances is the reportable quantity; "
          "the equivalence constant itself is not computable from the proof")
# disk rule of the read-back from the plane to the tree
RINGS, ANGLES = 64, 128
# grid points verify_restriction compares, sampled at seed 0 above this
E1_SAMPLES = 10_000


@dataclass
class PlanarData:
    """Boundary values: one number per upper point, plus a grid rule.

    The grid part is huge and almost never read, so it is stored as either a
    constant or a callable on the first coordinate.  Data lifted from leaf
    slopes keeps those slopes (`lifted`, leaf order), which are its leaf
    slopes exactly.
    """

    e2_values: np.ndarray
    e1_rule: float | Callable[[np.ndarray], np.ndarray] = 0.0
    lifted: np.ndarray | None = None

    def __post_init__(self):
        self.e2_values = np.asarray(self.e2_values, dtype=float)

    def e1_values(self, ps: PlanarSet, k: np.ndarray) -> np.ndarray:
        # the int32 base points are read as they are: k * delta is float64
        k = np.asarray(k)
        if np.any((k < 0) | (k >= ps.e1_count)):
            raise ValueError("grid index out of range")
        if callable(self.e1_rule):
            return np.asarray(self.e1_rule(k * ps.delta), dtype=float)
        return np.full(k.shape, float(self.e1_rule))

    @classmethod
    def from_affine(cls, ps: PlanarSet, A: AffinePolynomial) -> "PlanarData":
        return cls(e2_values=A.evaluate(ps.e2),
                   e1_rule=lambda x1: A.a + A.b * x1)

    @classmethod
    def from_leaf_function(cls, tree: WeightedTree, ps: PlanarSet,
                           phi: LeafFunction) -> "PlanarData":
        """Zero on the grid, slope * weight at each upper point."""
        slopes = phi.to_array(tree)
        return cls(e2_values=slopes * ps.e2[:, 1], e1_rule=0.0,
                   lifted=slopes)


def build_geometry(tree: WeightedTree, kappa: float = KAPPA,
                   cap: int = SQUARE_CAP
                   ) -> tuple[PlanarSet, WhitneyDecomposition, ClusterTree]:
    """The planar set of a tree, its Whitney decomposition (at most cap
    squares) and its cluster tree with every square assigned a cluster."""
    ps = build_planar_set(tree)
    wd = decompose(ps, cap=cap)
    ct = build_clusters(tree, ps, kappa=kappa)
    assign_clusters(ct, wd)
    return ps, wd, ct


def _tree_backend(backend) -> Callable:
    if backend == "averaging":
        return lambda tree, phi, p: averaging_extension(tree, phi)
    if backend == "optimal":
        return lambda tree, phi, p: optimal_extension(tree, phi, p)
    raise ValueError(f"unknown backend {backend!r}")


def leaf_slopes(ps: PlanarSet, f: PlanarData) -> np.ndarray:
    """Vertical slope of the three-point jet at each upper point: the affine
    through the point and its two grid anchors, differentiated vertically.
    Lifted data returns the slopes it was lifted from, which that formula
    recovers only up to the last bit."""
    if f.lifted is not None:
        return f.lifted.copy()
    return jet_slopes(ps, f.e2_values, lambda k: f.e1_values(ps, k))


def _interpolant(ps: PlanarSet, wd: WhitneyDecomposition, ct: ClusterTree,
                 f: PlanarData, Phi: np.ndarray) -> PatchedInterpolant:
    """Pieces: the horizontal affine through each square's two grid base
    points, plus the vertical slope Phi of the square's cluster.  Frame
    squares end up carrying the global tail automatically (shared base
    points, root cluster).

    When the horizontal part is one affine everywhere (as for every lift of
    leaf data), pieces differ only across clusters: the table holds one
    piece per cluster, indexed by the cluster labels, and the squares on a
    cluster boundary, the only ones whose blend can mix pieces, are handed
    over as the blend rows.  A constant grid rule is one affine by itself,
    read at the frame's base points, so no square is visited.  Otherwise
    every square has its own piece and blends."""
    if ct.square_cluster is None:
        assign_clusters(ct, wd)
    frame = int(np.flatnonzero(wd.boundary)[0])
    e1 = functools.partial(f.e1_values, ps)
    if callable(f.e1_rule):
        a, b = grid_affine(ps, e1, wd.kz, wd.kw)
        a0, b0 = float(a[frame]), float(b[frame])
        one_affine = np.all(a == a0) and np.all(b == b0)
    else:
        a0, b0 = (float(v[0]) for v in grid_affine(
            ps, e1, wd.kz[frame:frame + 1], wd.kw[frame:frame + 1]))
        one_affine = True
    tail = AffinePolynomial(a0, b0, float(Phi[0]))
    if one_affine:
        pieces = np.column_stack([np.full(Phi.size, a0), np.full(Phi.size, b0),
                                  Phi])
        return PatchedInterpolant(wd, pieces, tail, ct.cross_rows(wd),
                                  ct.square_cluster)
    pieces = np.column_stack([a, b, Phi[ct.square_cluster]])
    return PatchedInterpolant(wd, pieces, tail)


def planar_extend(tree: WeightedTree, ps: PlanarSet, wd: WhitneyDecomposition,
                  ct: ClusterTree, f: PlanarData, p: float,
                  backend="optimal") -> PatchedInterpolant:
    """Extend boundary data to the plane: the tree backend extends the leaf
    slopes of the data to every cluster, and each square's piece takes its
    cluster's slope."""
    phi = LeafFunction.from_array(tree, leaf_slopes(ps, f))
    Phi = _tree_backend(backend)(tree, phi, p).to_array(tree)
    return _interpolant(ps, wd, ct, f, Phi)


def verify_restriction(F: PatchedInterpolant, ps: PlanarSet,
                       f: PlanarData) -> dict:
    """Largest relative mismatch between F and the data on both boundary
    parts (grid part sampled, E1_SAMPLES draws, when it is larger)."""
    got2 = np.atleast_1d(F.evaluate(ps.e2, order=0))
    scale2 = np.maximum(1.0, np.abs(f.e2_values))
    rel2 = float(np.max(np.abs(got2 - f.e2_values) / scale2)) if got2.size else 0.0
    if ps.e1_count <= E1_SAMPLES:
        k = np.arange(ps.e1_count)
    else:
        rng = np.random.default_rng(0)
        k = np.unique(rng.integers(0, ps.e1_count, size=E1_SAMPLES))
    pts = np.column_stack([k * ps.delta, np.zeros(k.size)])
    got1 = np.atleast_1d(F.evaluate(pts, order=0))
    want1 = f.e1_values(ps, k)
    rel1 = float(np.max(np.abs(got1 - want1) / np.maximum(1.0, np.abs(want1))))
    return {"max_rel_e2": rel2, "max_rel_e1": rel1, "n_e1_sampled": int(k.size)}


def _lift_and_read_back(tree: WeightedTree, ps: PlanarSet,
                        wd: WhitneyDecomposition, ct: ClusterTree,
                        phi: LeafFunction, Phi: np.ndarray, rings: int,
                        angles: int) -> tuple[PatchedInterpolant, np.ndarray]:
    """The interpolant of the lift of phi with cluster slopes Phi, and the
    node values read back off it: phi on the leaves, the disk average of the
    vertical derivative over the cluster ball on every internal node."""
    F = _interpolant(ps, wd, ct, PlanarData.from_leaf_function(tree, ps, phi),
                     Phi)
    vals = np.empty(tree.n_nodes)
    vals[tree.is_leaf] = phi.to_array(tree)
    inner = ~tree.is_leaf
    vals[inner] = ball_average(F, ct.y[inner], ct.radius[inner], rings, angles)
    return F, vals


def tree_extend_from_planar(tree: WeightedTree, ps: PlanarSet,
                            wd: WhitneyDecomposition, ct: ClusterTree,
                            phi: LeafFunction, p: float,
                            tree_backend="optimal", rings: int = RINGS,
                            angles: int = ANGLES) -> NodeFunction:
    """Extend leaf data through the plane: leaves keep their values exactly,
    every internal node gets the disk average of the vertical derivative of
    the planar extension of the lifted data over its cluster ball, all of
    them from one ball_average call on a rings x angles disk rule.  The tree
    backend extends phi itself, as planar_extend does for its lift."""
    Phi = _tree_backend(tree_backend)(tree, phi, p).to_array(tree)
    vals = _lift_and_read_back(tree, ps, wd, ct, phi, Phi, rings, angles)[1]
    return NodeFunction.from_array(tree, vals)


def _run_trial(tree: WeightedTree, ps: PlanarSet, wd: WhitneyDecomposition,
               ct: ClusterTree, ew: EdgeWeights, p: float, seed: int,
               backend, t: int) -> dict:
    rng = np.random.default_rng([seed, t])
    while True:
        vals = rng.standard_normal(tree.n_leaves)
        vals = vals - vals.mean()
        if np.ptp(vals) > 1e-12:
            break
    phi = LeafFunction.from_array(tree, vals)
    opt = optimal_extension(tree, phi, p)
    den = edge_energy(tree, opt.to_array(tree), p) ** (1.0 / p)
    ext = opt if backend == "optimal" else _tree_backend(backend)(tree, phi, p)
    Phi = ext.to_array(tree)
    F, node_vals = _lift_and_read_back(tree, ps, wd, ct, phi, Phi, RINGS,
                                       ANGLES)
    num_plane, quad_err = ew.seminorm(Phi, F)
    num_tree = seminorm_tree(tree, NodeFunction.from_array(tree, node_vals), p)
    return {
        "seed": seed, "trial": t, "N": tree.N, "depth": int(tree.depths.max()),
        "epsilon": tree.epsilon, "p": p, "backend": backend,
        "rho_plane": num_plane / den, "rho_tree": num_tree / den,
        "quad_error": quad_err,
        "quad_rel": quad_err / num_plane if num_plane > 0 else 0.0,
    }


def _plane_ratio_bound(tree: WeightedTree,
                      ew: EdgeWeights) -> tuple[float, float] | None:
    """Largest (M_e / W_e^(2-p))^(1/p) over tree edges, from the fine
    weights, and its gap to the same bound from the coarse weights.

    With the optimal backend, rho_plane^p is a mean of M_e / W_e^(2-p)
    weighted by the edge terms |dPhi_e|^p W_e^(2-p) of the trace energy, so
    the bound holds for every leaf data.  None when a mixed row or a
    touching pair that is not a tree edge breaks that form.
    """
    a, b = ew.pairs[:, 0], ew.pairs[:, 1]
    b_child = tree.parent[b] == a
    if ew.mixed_rows.size or not np.all(b_child | (tree.parent[a] == b)):
        return None
    w = tree.weights[np.where(b_child, b, a)] ** (2.0 - ew.p)
    fine = float(np.max(ew.M_fine / w, initial=0.0)) ** (1.0 / ew.p)
    coarse = float(np.max(ew.M_coarse / w, initial=0.0)) ** (1.0 / ew.p)
    return fine, abs(coarse - fine)


def norm_ratio_experiment(tree: WeightedTree, p: float, n_trials: int,
                          seed: int, backend="optimal", kappa: float = KAPPA,
                          quad_order: int = 12, geometry=None) -> dict:
    """Both seminorm ratios over random de-meaned leaf data.

    Per trial: rho_plane is the planar seminorm of the extension of the lifted
    data over the trace seminorm of the leaf data; rho_tree is the tree
    seminorm of the round trip (plane and back) over the same trace seminorm.
    The planar seminorm comes from edge weights integrated once per call, one
    integral per configuration class (`edge_weight_classes` classes over
    `edge_weight_rows` squares), summed from `edge_weight_blocks` classes of
    panel blocks; with the optimal backend their largest
    ratio to the tree weights bounds every rho_plane (`rho_plane_bound`,
    else None).  Deterministic given the seed; constant draws are resampled.
    kappa builds the geometry when none is given; the report carries the
    geometry's own kappa and K1.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    if geometry is None:
        geometry = build_geometry(tree, kappa=kappa)
    ps, wd, ct = geometry
    ew = edge_weights(wd, ct, p, quad_order)
    rows = [_run_trial(tree, ps, wd, ct, ew, p, seed, backend, t)
            for t in range(n_trials)]
    bound = _plane_ratio_bound(tree, ew) if backend == "optimal" else None
    rp = np.array([r["rho_plane"] for r in rows])
    rt = np.array([r["rho_tree"] for r in rows])
    return {
        "rows": rows,
        "caveat": CAVEAT,
        "kappa": ct.kappa, "K1": ct.K1, "quad_order": quad_order,
        "rho_plane_bound": None if bound is None else bound[0],
        "rho_plane_bound_error": None if bound is None else bound[1],
        "edge_weight_rows": ew.n_rows, "edge_weight_classes": ew.n_classes,
        "edge_weight_blocks": ew.n_blocks,
        "rho_plane": {"min": float(rp.min()), "median": float(np.median(rp)),
                      "max": float(rp.max())},
        "rho_tree": {"min": float(rt.min()), "median": float(np.median(rt)),
                     "max": float(rt.max())},
    }


def write_experiment_csv(report: dict, path) -> None:
    cols = ["seed", "trial", "N", "depth", "epsilon", "p", "backend",
            "rho_plane", "rho_tree", "quad_error", "quad_rel"]

    def emit(fh):
        fh.write(f"# {report['caveat']}\n")
        fh.write(f"# kappa={report['kappa']} K1={report['K1']} "
                 f"quad_order={report['quad_order']} "
                 f"rho_plane_bound={report['rho_plane_bound']} "
                 f"rho_plane_bound_error={report['rho_plane_bound_error']}\n")
        w = csv.DictWriter(fh, fieldnames=cols)
        w.writeheader()
        for r in report["rows"]:
            w.writerow({c: r[c] for c in cols})

    if hasattr(path, "write"):
        emit(path)
    else:
        with open(path, "w", newline="") as fh:
            emit(fh)
