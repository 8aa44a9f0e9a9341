"""Planar boundary set of a weighted tree.

A tree with leaf weights bounded below by Delta is mapped into the plane as
E = E1 union E2, where E1 is the implicit grid ([0,2) cap Delta*Z) x {0} and E2
collects one point (psi(v), W_v) per leaf.  The horizontal position psi walks
left to right through the tree: each digit shifts by the parent weight scaled
by digit/(N-1), so deeper digits move exponentially less and the leaf order is
preserved.

E1 is arithmetic only; with Delta near the 2^-40 floor the grid would hold ~10^12
points, so the decomposition reads it by index computations (counts in
windows, nearest grid indices) and nothing is materialized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import json
import math

import numpy as np

from .tree_core import WeightedTree, lca, validate

E1_MATERIALIZE_CAP = 10 ** 6
REL_TOL = 1e-12  # closed-comparison slack for float geometry predicates


class PlanarGeometryError(RuntimeError):
    """A geometric invariant of the boundary set failed verification."""


def psi_all(tree: WeightedTree) -> np.ndarray:
    """Horizontal embedding coordinate for every node, by the recursion
    psi(v) = psi(parent) + W_parent * digit / (N - 1), root at 0."""
    out = np.zeros(tree.n_nodes)
    scale = 1.0 / (tree.N - 1)
    for i, v in enumerate(tree.ids):
        if v:
            par = tree.parent[i]
            out[i] = out[par] + tree.weights[par] * int(v[-1]) * scale
    return out


@dataclass
class PlanarSet:
    """E1 (implicit grid) plus E2 (one point per leaf, x = psi, y = weight)."""

    delta: float
    e1_count: int
    e2: np.ndarray                       # (n_leaves, 2)
    leaf_ids: list[str]
    leaf_index: dict[str, int] = field(repr=False)

    @property
    def n_e2(self) -> int:
        return self.e2.shape[0]

    def e1_points(self) -> np.ndarray:
        """Materialized grid; refuses above the cap, where only index
        arithmetic reads E1."""
        if self.e1_count > E1_MATERIALIZE_CAP:
            raise PlanarGeometryError(
                f"e1_count = {self.e1_count} exceeds the materialization cap")
        xs = np.arange(self.e1_count) * self.delta
        return np.column_stack([xs, np.zeros_like(xs)])

    def to_json_dict(self) -> dict:
        return {
            "delta": self.delta,
            "e1": {"spacing": self.delta, "count": self.e1_count,
                   "range": [0.0, 2.0]},
            "e2": [{"leaf": v, "x": float(self.e2[i, 0]), "y": float(self.e2[i, 1])}
                   for i, v in enumerate(self.leaf_ids)],
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)
            fh.write("\n")


def build_planar_set(tree: WeightedTree) -> PlanarSet:
    """Map a tree to its planar boundary set.

    Refuses trees whose `validate` report is non-empty: the geometry below
    (separation, embedding bounds) is only guaranteed under the decay and
    root-weight conventions.  Raises if the separation properties
    (`verify_lemma_sep`) fail.
    """
    report = validate(tree)
    if report:
        raise PlanarGeometryError(
            f"tree fails validation ({len(report)} violation(s)); first: "
            f"{report[0]['message']}")
    delta = tree.delta
    e1_count = math.ceil(2.0 / delta)
    while (e1_count - 1) * delta >= 2.0:  # float-rounding guard at the right edge
        e1_count -= 1
    psis = psi_all(tree)
    leaf_rows = [tree.index[v] for v in tree.leaf_ids]
    e2 = np.column_stack([psis[leaf_rows], tree.weights[leaf_rows]])
    ps = PlanarSet(delta=delta, e1_count=e1_count, e2=e2,
                   leaf_ids=list(tree.leaf_ids),
                   leaf_index={v: j for j, v in enumerate(tree.leaf_ids)})
    rep = verify_lemma_sep(ps)
    if not rep["ok"]:
        bad = [k for k, val in rep.items() if val is False]
        raise PlanarGeometryError(f"separation properties failed: {bad}")
    return ps


def verify_lemma_sep(ps: PlanarSet) -> dict:
    """Check the separation properties of E = E1 union E2.

    in_unit_box      every point lies in [0,2) x [0,2)
    delta_separated  pairwise distances >= delta (up to 1e-12 relative slack)
    e1_bounds        delta <= y <= dist(x, E1) <= 2y for every x in E2
    e2_bounds        y <= dist(x, E2 minus x) for every x in E2

    E1's own spacing is delta by construction, so only E2-E2 and E2-E1
    distances are measured.
    """
    d = ps.delta
    slack = 1.0 + REL_TOL
    x, y = ps.e2[:, 0], ps.e2[:, 1]
    in_box = bool(np.all((x >= 0) & (x < 2) & (y >= 0) & (y < 2)))
    # E2 vs E1: nearest grid point realizes the distance
    kx = np.clip(np.ceil(x / d - 0.5).astype(np.int64), 0, ps.e1_count - 1)
    dist_e1 = np.hypot(x - kx * d, y)
    e1_lower = bool(np.all((y >= d / slack) & (dist_e1 >= y / slack)))
    e1_upper = bool(np.all(dist_e1 <= 2 * y * slack))
    sep_e1 = bool(np.all(dist_e1 >= d / slack))
    # E2 vs E2 pairwise
    if ps.n_e2 >= 2:
        diff = ps.e2[:, None, :] - ps.e2[None, :, :]
        dist2 = np.hypot(diff[..., 0], diff[..., 1])
        np.fill_diagonal(dist2, np.inf)
        nn = dist2.min(axis=1)
        sep_e2 = bool(np.all(nn >= d / slack))
        e2_bounds = bool(np.all(nn >= y / slack))
        min_gap = float(nn.min())
    else:
        sep_e2 = e2_bounds = True
        min_gap = float("inf")
    out = {
        "in_unit_box": in_box,
        "delta_separated": sep_e1 and sep_e2,
        "e1_bounds": e1_lower and e1_upper,
        "e2_bounds": e2_bounds,
        "min_e2_gap": min_gap,
        "min_e2_e1_dist": float(dist_e1.min()) if ps.n_e2 else float("inf"),
    }
    out["ok"] = in_box and out["delta_separated"] and out["e1_bounds"] and e2_bounds
    return out


def verify_lemma_psi(tree: WeightedTree, ps: PlanarSet) -> dict:
    """Distortion report for the embedding restricted to the leaves.

    order_preserving: psi is strictly increasing along the sorted leaf list.
    K_measured: smallest K >= 1 with K^-1 * W_lca / N <= |psi(w) - psi(v)|
        <= K * W_lca over all leaf pairs, with the lca from `tree_core.lca`.
    """
    if ps.n_e2 < 2:
        raise ValueError("need at least 2 leaves")
    xs = ps.e2[:, 0]
    order = bool(np.all(np.diff(xs) > 0))
    k_needed = 1.0
    leaves = ps.leaf_ids
    for i in range(len(leaves)):
        for j in range(i + 1, len(leaves)):
            w_lca = tree.weight(lca(tree, leaves[i], leaves[j]))
            gap = abs(xs[j] - xs[i])
            k_needed = max(k_needed, gap / w_lca, w_lca / (tree.N * gap))
    return {"order_preserving": order, "K_measured": float(k_needed)}
