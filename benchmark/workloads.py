"""The three benchmark workloads: inputs from the seed, the timed operations,
and the checks that each operation's output is right.

Every call into treeplane goes through a module attribute looked up at call
time (`tp.operators.planar_extend`, never a name bound at import), so the
traced run's wrappers see every call the untraced run makes.  A workload
object has `setup()`, `round_ops(k)` (the operations on the k-th input, each
an `Op`) and `check(op, out)` (a list of problems; empty means correct).
"""

from __future__ import annotations

import hashlib
import inspect
import math

import numpy as np

import treeplane as tp
import treeplane.analysis  # noqa: F401  (submodules reached as tp.<name>)
import treeplane.clusters  # noqa: F401
import treeplane.embedding  # noqa: F401
import treeplane.operators  # noqa: F401
import treeplane.suite  # noqa: F401
import treeplane.tree_core  # noqa: F401
import treeplane.whitney  # noqa: F401

P = 1.5                  # exponent of every seminorm in the benchmark
KAPPA = 10.25            # cluster dilation, the package-wide verify default
TRIALS_PER_CALL = 2      # ratio trials per norm_ratio_experiment call
FIELD_POINTS = 200_000   # batch points per field-eval draw
FIELD_DRAWS = 8          # distinct leaf-data draws; later draws cycle
QUAD_REL_GATE = 0.01     # the CLI's exit-3 quadrature gate
RHO_TREE_FLOOR = 1.0 - 1e-6
RHO_TREE_RTOL = 1e-6     # reference tolerance on rho_tree
FIELD_RTOL = 1e-9        # reference tolerance on field sums, of the abs sum
RESTRICTION_TOL = 1e-9
REPEAT_RTOL = 1e-12      # same input twice in one run


class Op:
    """One attempted operation: `run()` returns (output, work items); `key`
    names its input for the reference and repeat checks."""

    def __init__(self, key, run):
        self.key, self.run = key, run


def geometry(tree):
    """The planar chain up to assigned clusters, as the experiment path
    builds it."""
    ps = tp.embedding.build_planar_set(tree)
    wd = tp.whitney.decompose(ps)
    ct = tp.clusters.build_clusters(tree, ps, kappa=KAPPA)
    tp.clusters.assign_clusters(ct, wd)
    return ps, wd, ct


def registry_tree(name: str, seed: int | None = None):
    inst = tp.suite.canonical(name)
    return tp.tree_core.random_tree(inst.N, inst.depth, inst.epsilon,
                                    inst.seed if seed is None else seed)


def geometry_counts(wd, ct) -> dict:
    """Exact sizes of one geometry; bytes are computed from array nbytes."""
    nbytes = sum(v.nbytes for v in vars(wd).values()
                 if isinstance(v, np.ndarray))
    return {"squares": int(wd.n), "max_level": int(wd.max_level),
            "touching_pairs": int(wd.neighbors.size), "bytes": int(nbytes),
            "n_clusters": int(ct.n_clusters)}


def geometry_digest(tree, wd, ct) -> str:
    """sha256 over the squares, touching pairs, types and clusters, in an
    order fixed here (by level, ix, iy) so a row reorder is not a change."""
    order = np.lexsort((wd.iys, wd.ixs, wd.levels))
    rank = np.empty(wd.n, dtype=np.int64)
    rank[order] = np.arange(wd.n)
    h = hashlib.sha256()
    for arr in (wd.levels[order], wd.ixs[order], wd.iys[order],
                wd.type_codes[order]):
        h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    node_rank = {v: r for r, v in enumerate(sorted(tree.ids))}
    by_row = np.array([node_rank[v] for v in tree.ids], dtype=np.int64)
    h.update(by_row[ct.square_cluster][order].tobytes())
    src = np.repeat(np.arange(wd.n), np.diff(wd.neighbors_indptr))
    pairs = np.sort(rank[src] * np.int64(wd.n) + rank[wd.neighbors])
    h.update(pairs.tobytes())
    return h.hexdigest()


def active_rows(F) -> int:
    """Rows of F whose touching list holds a different piece: the rows the
    seminorm quadrature integrates (computed from F.coefs and the lists)."""
    wd = F.wd
    src = np.repeat(np.arange(wd.n), np.diff(wd.neighbors_indptr))
    differ = np.any(F.coefs[src] != F.coefs[wd.neighbors], axis=1)
    return int(np.unique(src[differ]).size)


def quad_nodes_per_row(quad_order: int) -> int:
    """Tensor nodes per active row over both orders planar_seminorm runs."""
    return sum(tp.analysis._panel_rule(q)[0].size ** 2
               for q in (quad_order, 2 * quad_order))


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


class RatioTrials:
    """norm_ratio_experiment at p=1.5 on two registry trees whose geometry is
    built in set-up and passed in."""

    name = "ratio-trials"
    item = "trials"
    setup_reps = 5
    distinct_rounds = 1       # every round repeats the same two calls
    reference_any_seed = False
    INSTANCES = ("n2d1-tight", "n3d1-loose")

    def __init__(self, seed: int, reference: dict | None):
        self.seed = seed
        self.reference = reference
        self.first: dict = {}
        self.rows: list[dict] = []

    def setup(self):
        self.geo = {}
        for name in self.INSTANCES:
            tree = registry_tree(name)
            self.geo[name] = (tree, geometry(tree))

    def round_ops(self, k: int):
        ops = []
        for name in self.INSTANCES:
            tree, geo = self.geo[name]

            def run(tree=tree, geo=geo):
                rep = tp.operators.norm_ratio_experiment(
                    tree, P, TRIALS_PER_CALL, self.seed, kappa=KAPPA,
                    geometry=geo)
                return rep, TRIALS_PER_CALL
            ops.append(Op(name, run))
        return ops

    def check(self, op: Op, rep) -> list[str]:
        bad = []
        rows = rep["rows"]
        self.rows.extend(rows)
        if len(rows) != TRIALS_PER_CALL:
            bad.append(f"{len(rows)} rows, want {TRIALS_PER_CALL}")
        for r in rows:
            vals = (r["rho_plane"], r["rho_tree"], r["quad_error"],
                    r["quad_rel"])
            if not all(math.isfinite(v) for v in vals):
                bad.append(f"trial {r['trial']}: non-finite row")
                continue
            if r["quad_rel"] > QUAD_REL_GATE:
                bad.append(f"trial {r['trial']}: quad_rel {r['quad_rel']:.3g}")
            if r["rho_tree"] < RHO_TREE_FLOOR:
                bad.append(f"trial {r['trial']}: rho_tree {r['rho_tree']!r}")
        if self.reference is not None:
            for r, want in zip(rows, self.reference[op.key]):
                tol = r["quad_rel"] * abs(r["rho_plane"])
                if abs(r["rho_plane"] - want["rho_plane"]) > tol:
                    bad.append(f"trial {r['trial']}: rho_plane "
                               f"{r['rho_plane']!r} vs {want['rho_plane']!r}")
                if not _close(r["rho_tree"], want["rho_tree"], RHO_TREE_RTOL):
                    bad.append(f"trial {r['trial']}: rho_tree "
                               f"{r['rho_tree']!r} vs {want['rho_tree']!r}")
        prev = self.first.setdefault(op.key, rows)
        for r, q in zip(rows, prev):
            if not (_close(r["rho_plane"], q["rho_plane"], REPEAT_RTOL) and
                    _close(r["rho_tree"], q["rho_tree"], REPEAT_RTOL)):
                bad.append(f"trial {r['trial']}: differs from the same call "
                           f"earlier in this run")
        return bad

    def geometry_counts(self) -> dict:
        return {name: geometry_counts(geo[1], geo[2])
                for name, (_, geo) in self.geo.items()}

    def reference_record(self, rep_by_key: dict) -> dict:
        return {k: [{c: r[c] for c in ("trial", "rho_plane", "rho_tree",
                                        "quad_error", "quad_rel")}
                    for r in rep["rows"]] for k, rep in rep_by_key.items()}


class GeometryBuild:
    """From tree to checked geometry on the registry trees n2d2-loose and
    n3d2-loose.

    The trees stay fixed and the workload seed drives `verify_tree` (its
    blend-check points and restriction data).  Grown from other tree seeds,
    the same shapes range from 190k to 890k squares, so peak memory and
    squares per second would follow the seed rather than the program.
    """

    name = "geometry-build"
    item = "squares"
    setup_reps = 5
    distinct_rounds = 1
    reference_any_seed = True    # the trees, hence the geometry, are fixed
    INSTANCES = ("n2d2-loose", "n3d2-loose")
    WARMUP = "n3d1-loose"

    def __init__(self, seed: int, reference: dict | None):
        self.seed = seed
        self.reference = reference
        self.first: dict = {}
        self.counts: dict = {}

    def setup(self):
        # the small warm-up chain lets first-call costs land in set-up
        self._chain(registry_tree(self.WARMUP))
        self.trees = {name: registry_tree(name) for name in self.INSTANCES}

    def _chain(self, tree):
        ps, wd, ct = geometry(tree)
        rep = tp.suite.verify_tree(tree, kappa=KAPPA, geometry=(ps, wd, ct),
                                   seed=self.seed, n_patch_fields=0,
                                   n_ball_fields=0)
        return tree, wd, ct, rep

    def round_ops(self, k: int):
        ops = []
        for name, tree in self.trees.items():
            def run(tree=tree):
                out = self._chain(tree)
                return out, out[1].n
            ops.append(Op(name, run))
        return ops

    def check(self, op: Op, out) -> list[str]:
        tree, wd, ct, rep = out
        bad = []
        if not rep["ok"]:
            failed = [k for k, c in rep["checks"].items()
                      if not c.get("ok", True)]
            bad.append(f"verify_tree not ok: {failed}")
        counts = geometry_counts(wd, ct)
        digest = geometry_digest(tree, wd, ct)
        self.counts[op.key] = counts
        if self.reference is not None:
            want = self.reference[op.key]
            for c in ("squares", "max_level", "touching_pairs"):
                if counts[c] != want[c]:
                    bad.append(f"{c} {counts[c]} vs {want[c]}")
            if digest != want["digest"]:
                bad.append("geometry digest differs from the reference")
        prev = self.first.setdefault(op.key, (counts, digest))
        if (counts, digest) != prev:
            bad.append("geometry differs from the same build earlier in "
                       "this run")
        return bad

    def geometry_counts(self) -> dict:
        return dict(self.counts)

    def reference_record(self, out_by_key: dict) -> dict:
        rec = {}
        for k, (tree, wd, ct, rep) in out_by_key.items():
            c = geometry_counts(wd, ct)
            rec[k] = {"squares": c["squares"], "max_level": c["max_level"],
                      "touching_pairs": c["touching_pairs"],
                      "digest": geometry_digest(tree, wd, ct)}
        return rec


class FieldEval:
    """planar_extend, evaluation at orders 0-2 on a point batch, and the
    round trip back to the tree, per seeded leaf-data draw on n2d2-loose."""

    name = "field-eval"
    item = "points"
    setup_reps = 3      # each set-up decomposes 262k squares
    distinct_rounds = FIELD_DRAWS
    reference_any_seed = False
    INSTANCE = "n2d2-loose"

    def __init__(self, seed: int, reference: dict | None):
        self.seed = seed
        self.reference = reference
        self.first: dict = {}

    def setup(self):
        self.tree = None
        self.geo = None   # drop the previous build before the next one
        self.tree = registry_tree(self.INSTANCE)
        self.geo = geometry(self.tree)
        sig = inspect.signature(tp.operators.tree_extend_from_planar)
        per_disk = (sig.parameters["rings"].default *
                    sig.parameters["angles"].default)
        self.disk_points = per_disk * int(np.sum(~self.tree.is_leaf))

    def draw(self, j: int):
        """Leaf data and a point batch: half uniform over the frame, half in
        the strip around the data (the mix of suite.blend_check)."""
        rng = np.random.default_rng([self.seed, j])
        vals = rng.standard_normal(self.tree.n_leaves)
        phi = tp.tree_core.LeafFunction.from_array(self.tree, vals - vals.mean())
        n_far = FIELD_POINTS // 2
        far = rng.uniform(tp.whitney.Q0_LO, tp.whitney.Q0_HI, size=(n_far, 2))
        m = FIELD_POINTS - n_far
        near = np.column_stack([rng.uniform(-0.1, 2.1, size=m),
                                rng.uniform(-0.06, 0.06, size=m)])
        return phi, np.vstack([far, near])

    def round_ops(self, k: int):
        j = k % FIELD_DRAWS
        phi, pts = self.draw(j)
        tree, (ps, wd, ct) = self.tree, self.geo

        def run():
            f = tp.operators.PlanarData.from_leaf_function(tree, ps, phi)
            F = tp.operators.planar_extend(tree, ps, wd, ct, f, P)
            v = F.evaluate(pts, order=0)
            g = F.evaluate(pts, order=1)
            H = F.evaluate(pts, order=2)
            nf = tp.operators.tree_extend_from_planar(tree, ps, wd, ct, phi, P)
            return ((f, F, v, g, H, nf),
                    3 * FIELD_POINTS + self.disk_points)
        return [Op(j, run)]

    def sums(self, v, g, H, nf) -> dict:
        node = nf.to_array(self.tree)
        out = {}
        for key, arr in (("value", v), ("grad", g), ("hess", H),
                         ("node", node)):
            out[key] = [float(np.sum(arr)), float(np.sum(np.abs(arr)))]
        return out

    def check(self, op: Op, out) -> list[str]:
        f, F, v, g, H, nf = out
        bad = []
        rep = tp.operators.verify_restriction(F, self.geo[0], f)
        worst = max(rep["max_rel_e2"], rep["max_rel_e1"])
        if not worst <= RESTRICTION_TOL:
            bad.append(f"restriction mismatch {worst:.3g}")
        got = self.sums(v, g, H, nf)
        wants = [self.first.setdefault(op.key, got)]
        if self.reference is not None:
            wants.append(self.reference["draws"][op.key])
        for want in wants:
            for key, (s, a) in got.items():
                ws, wa = want[key]
                if not abs(s - ws) <= FIELD_RTOL * max(a, wa, 1e-300):
                    bad.append(f"{key} sum {s!r} vs {ws!r}")
        return bad

    def geometry_counts(self) -> dict:
        return {self.INSTANCE: geometry_counts(self.geo[1], self.geo[2])}

    def reference_record(self, out_by_key: dict) -> dict:
        return {"draws": [self.sums(*out_by_key[j][2:])
                          for j in range(FIELD_DRAWS)]}


WORKLOADS = {w.name: w for w in (RatioTrials, GeometryBuild, FieldEval)}
