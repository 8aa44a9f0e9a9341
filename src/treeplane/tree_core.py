"""Weighted rooted trees with digit-string node ids.

Nodes are strings over the alphabet {0..N-1}; the root is the empty string and
the parent of a node is obtained by dropping its last digit.  Weights decay
radially: the root has weight 1 and every other node carries at most epsilon
times its parent's weight.  Lexicographic order on ids equals depth-first tree
order, so the leaves of any subtree form a contiguous block in the sorted leaf
list; several downstream modules rely on that.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
import json
from typing import Iterable, Mapping

import numpy as np

# Minimum admissible leaf weight.  The planar grid has ~2/Delta points and the
# dyadic decomposition ~1/Delta squares near it, so anything below this floor
# is not representable at desk scale anyway.
DELTA_FLOOR = 2.0 ** -40

MAX_ALPHABET = 10  # single-character digits; ids have no separator


class TreeStructureError(ValueError):
    """Raised when a node set cannot form a tree at all."""


def _check_structure(nodes: Mapping[str, float], N: int) -> None:
    if not isinstance(N, (int, np.integer)) or N < 2:
        raise TreeStructureError(f"N must be an integer >= 2, got {N!r}")
    if N > MAX_ALPHABET:
        raise TreeStructureError(f"N = {N} exceeds the single-digit alphabet (max {MAX_ALPHABET})")
    if "" not in nodes:
        raise TreeStructureError("missing root node ''")
    digits = set("0123456789"[:N])
    for v in nodes:
        if any(ch not in digits for ch in v):
            raise TreeStructureError(f"node id {v!r} uses digits outside 0..{N - 1}")
        if v and v[:-1] not in nodes:
            raise TreeStructureError(f"node id {v!r} has no parent: ids must be prefix-closed")
    for v, w in nodes.items():
        w = float(w)
        if not np.isfinite(w) or w <= 0.0:
            raise TreeStructureError(f"node {v!r} has non-positive weight {w!r}")


class WeightedTree:
    """Rooted N-ary tree with radially decaying weights.

    Parameters
    ----------
    nodes : mapping id -> weight, prefix-closed, root '' included.
    N : alphabet size (>= 2).
    epsilon : decay factor in (0, 1) declared for this tree; `validate`
        reports nodes that exceed it.

    Construction enforces only what later stages cannot survive without
    (prefix closure, digit alphabet, positive weights, the 2^-40 leaf-weight
    floor).  Everything else -- root weight 1, decay, child counts -- is
    reported by `validate` so that malformed trees can be inspected.
    """

    def __init__(self, nodes: Mapping[str, float], N: int, epsilon: float):
        _check_structure(nodes, N)
        self.N = int(N)
        self.epsilon = float(epsilon)
        self.ids: list[str] = sorted(nodes)
        self.index: dict[str, int] = {v: i for i, v in enumerate(self.ids)}
        self.n_nodes = len(self.ids)
        self.weights = np.array([float(nodes[v]) for v in self.ids])
        self.depths = np.array([len(v) for v in self.ids], dtype=np.int32)
        self.parent = np.empty(self.n_nodes, dtype=np.int64)
        self.parent[0] = -1
        for i, v in enumerate(self.ids):
            if v:
                self.parent[i] = self.index[v[:-1]]
        self.children: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for i in range(1, self.n_nodes):
            self.children[self.parent[i]].append(i)
        self.is_leaf = np.array([not c for c in self.children])
        self.leaf_ids: list[str] = [v for v in self.ids if self.is_leaf[self.index[v]]]
        self.leaf_pos: dict[str, int] = {v: j for j, v in enumerate(self.leaf_ids)}
        self.n_leaves = len(self.leaf_ids)
        self.leaf_weights = np.array([nodes[v] for v in self.leaf_ids], dtype=float)
        self.delta = float(self.leaf_weights.min())
        if self.delta < DELTA_FLOOR:
            raise TreeStructureError(
                f"minimum leaf weight {self.delta:.3e} is below the 2^-40 floor"
            )
        # Subtree shadows: leaves with prefix v occupy [leaf_lo[v], leaf_hi[v]).
        self.leaf_lo = np.empty(self.n_nodes, dtype=np.int64)
        self.leaf_hi = np.empty(self.n_nodes, dtype=np.int64)
        for i, v in enumerate(self.ids):
            self.leaf_lo[i] = bisect_left(self.leaf_ids, v)
            self.leaf_hi[i] = bisect_left(self.leaf_ids, v + "￿")
        self.depth = int(self.depths.max())

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "WeightedTree":
        try:
            N = d["N"]
            epsilon = d["epsilon"]
            nodes = {rec["id"]: float(rec["weight"]) for rec in d["nodes"]}
        except (KeyError, TypeError) as exc:
            raise TreeStructureError(f"malformed tree document: {exc}") from exc
        return cls(nodes, N, epsilon)

    @classmethod
    def from_file(cls, path) -> "WeightedTree":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))

    def to_json_dict(self) -> dict:
        return {
            "N": self.N,
            "epsilon": self.epsilon,
            "nodes": [{"id": v, "weight": float(self.weights[self.index[v]])} for v in self.ids],
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)
            fh.write("\n")

    # -- basic queries ---------------------------------------------------

    def weight(self, v: str) -> float:
        return float(self.weights[self.index[v]])

    def _require(self, v: str) -> None:
        if v not in self.index:
            raise KeyError(f"unknown node id {v!r}")

    def __contains__(self, v: str) -> bool:
        return v in self.index

    def __repr__(self) -> str:
        return (
            f"WeightedTree(N={self.N}, epsilon={self.epsilon:g}, nodes={self.n_nodes}, "
            f"leaves={self.n_leaves}, depth={self.depth})"
        )


def lca(tree: WeightedTree, v: str, w: str) -> str:
    """Longest common prefix of two node ids."""
    tree._require(v)
    tree._require(w)
    n = 0
    for a, b in zip(v, w):
        if a != b:
            break
        n += 1
    return v[:n]


def validate(tree: WeightedTree) -> list[dict]:
    """Report every invariant violation; an empty list means the tree is valid.

    Each record has 'node', 'kind' and a human-readable 'message'.  Checked:
    root weight exactly 1, epsilon in (0, 1), weight decay W_v <= eps * W_parent,
    and child counts in {2..N} for non-leaves.
    """
    report: list[dict] = []

    def flag(node: str, kind: str, message: str) -> None:
        report.append({"node": node, "kind": kind, "message": message})

    if tree.weights[0] != 1.0:
        flag("", "root_weight", f"root weight {tree.weights[0]!r} != 1")
    if not (0.0 < tree.epsilon < 1.0):
        flag("", "epsilon", f"epsilon {tree.epsilon!r} outside (0, 1)")
    for i, v in enumerate(tree.ids):
        if v:
            wp = tree.weights[tree.parent[i]]
            if tree.weights[i] > tree.epsilon * wp:
                flag(v, "decay", f"weight {tree.weights[i]!r} > epsilon * parent weight "
                                 f"{tree.epsilon * wp!r}")
        nc = len(tree.children[i])
        if nc != 0 and not (2 <= nc <= tree.N):
            flag(v, "child_count", f"{nc} children, expected 2..{tree.N}")
    return report


def random_tree(N: int, depth: int, epsilon: float, seed: int) -> WeightedTree:
    """Seeded random tree: child counts uniform in {2..N}, child digits a random
    subset of the alphabet, weights W_v = U * epsilon * W_parent with U ~ U[0.5, 1].

    Every node above the requested depth gets children, so all leaves sit at
    `depth`; N >= 3 exercises non-perfect shapes through the varying child sets.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon {epsilon!r} outside (0, 1)")
    rng = np.random.default_rng(seed)
    nodes: dict[str, float] = {"": 1.0}
    frontier = [""]
    for _ in range(depth):
        nxt: list[str] = []
        for v in frontier:
            count = int(rng.integers(2, N + 1))
            digits = np.sort(rng.choice(N, size=count, replace=False))
            for d in digits:
                u = rng.uniform(0.5, 1.0)
                child = v + str(int(d))
                nodes[child] = u * epsilon * nodes[v]
                nxt.append(child)
        frontier = nxt
    return WeightedTree(nodes, N, epsilon)


# -- functions on trees ------------------------------------------------------


@dataclass(frozen=True)
class NodeFunction:
    """Real values on every node of a tree (domain checked against the tree)."""

    values: dict[str, float]

    def check(self, tree: WeightedTree) -> "NodeFunction":
        if set(self.values) != set(tree.ids):
            missing = set(tree.ids) - set(self.values)
            extra = set(self.values) - set(tree.ids)
            raise ValueError(f"domain mismatch: missing {sorted(missing)[:4]}, "
                             f"extra {sorted(extra)[:4]}")
        return self

    def to_array(self, tree: WeightedTree) -> np.ndarray:
        self.check(tree)
        return np.array([self.values[v] for v in tree.ids], dtype=float)

    @classmethod
    def from_array(cls, tree: WeightedTree, arr: Iterable[float]) -> "NodeFunction":
        arr = np.asarray(list(arr), dtype=float)
        if arr.shape != (tree.n_nodes,):
            raise ValueError(f"expected {tree.n_nodes} values, got {arr.shape}")
        return cls({v: float(arr[i]) for i, v in enumerate(tree.ids)})

    def __getitem__(self, v: str) -> float:
        return self.values[v]


@dataclass(frozen=True)
class LeafFunction:
    """Real values on the leaves only (boundary data)."""

    values: dict[str, float]

    def check(self, tree: WeightedTree) -> "LeafFunction":
        if set(self.values) != set(tree.leaf_ids):
            missing = set(tree.leaf_ids) - set(self.values)
            extra = set(self.values) - set(tree.leaf_ids)
            raise ValueError(f"domain mismatch: missing {sorted(missing)[:4]}, "
                             f"extra {sorted(extra)[:4]}")
        return self

    def to_array(self, tree: WeightedTree) -> np.ndarray:
        self.check(tree)
        return np.array([self.values[v] for v in tree.leaf_ids], dtype=float)

    @classmethod
    def from_array(cls, tree: WeightedTree, arr: Iterable[float]) -> "LeafFunction":
        arr = np.asarray(list(arr), dtype=float)
        if arr.shape != (tree.n_leaves,):
            raise ValueError(f"expected {tree.n_leaves} values, got {arr.shape}")
        return cls({v: float(arr[j]) for j, v in enumerate(tree.leaf_ids)})

    def __getitem__(self, v: str) -> float:
        return self.values[v]


def _check_p(p: float) -> float:
    p = float(p)
    # (1, 2] rather than (1, 2): the p = 2 endpoint is the linear oracle and all
    # weight exponents 2 - p degenerate to 0 there.
    if not 1.0 < p <= 2.0:
        raise ValueError(f"p = {p!r} outside (1, 2]")
    return p


def edge_energy(tree: WeightedTree, values: np.ndarray, p: float) -> float:
    """Sum over non-root nodes of |Phi(v) - Phi(parent)|^p * W_v^(2-p)."""
    p = _check_p(p)
    d = values[1:] - values[tree.parent[1:]]
    return float(np.sum(np.abs(d) ** p * tree.weights[1:] ** (2.0 - p)))


def seminorm_tree(tree: WeightedTree, phi: NodeFunction | Mapping[str, float],
                  p: float) -> float:
    """Weighted first-difference seminorm of a node function.

    Vanishes exactly on constants; positively 1-homogeneous; satisfies the
    triangle inequality (it is a weighted l^p norm of the edge differences).
    """
    if isinstance(phi, NodeFunction):
        values = phi.to_array(tree)
    else:
        values = NodeFunction(dict(phi)).to_array(tree)
    return edge_energy(tree, values, p) ** (1.0 / _check_p(p))
