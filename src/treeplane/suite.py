"""Pinned verification instances and the package-wide check runner.

The registry fixes every tree the package's own checks run on.  Instances
whose minimum weight is large enough get the whole planar verification
(decomposition, blend, clusters, assignment, restriction); for the rest the
square count would blow past the decomposition budget (depth-3 trees reach
Delta ~ 1e-8, i.e. ~1e8 squares), so they get the checks that need no
decomposition.  `verify_tree` produces the check-by-check report; the
instance wrappers cache geometry so repeated checks share one decomposition.
The patching survey reads the seminorm of its lifted fields off edge
weights integrated once per call, as the ratio experiment does.  The
ball-estimate survey reads all cluster balls of a field with one batched
disk average, on one fixed disk rule (RINGS x ANGLES).
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass

import numpy as np

from .analysis import (GaussianBumpField, ball_estimate_sums, disk_seminorm,
                       edge_weights)
from .clusters import (KAPPA, ClusterBallError, ClusterTree,
                       assign_clusters, build_clusters, pair_sets)
from .embedding import build_planar_set, verify_lemma_psi, verify_lemma_sep
from .interpolant import pair_linf_sum
from .operators import (PlanarData, build_geometry, planar_extend,
                        verify_restriction)
from .oracles import assign_clusters_naive
from .tree_core import LeafFunction, WeightedTree, random_tree
from .whitney import (Q0_HI, Q0_LO, WhitneyCapError, decompose, pou_table,
                      verify_basepoints, verify_boundary, verify_cz,
                      verify_dist_bd, verify_partition)

EPS_NUMERATORS = (0.01, 0.02, 0.05)
_TAGS = {0.01: "tight", 0.02: "mid", 0.05: "loose"}
# disk rule of the ball-estimate survey and its frame-cover seminorm
RINGS, ANGLES = 128, 256
P = 1.5    # exponent of the patching and ball-estimate surveys
BLEND_POINTS = 10_000    # sample points of the partition-of-unity check
SURVEY_KAPPA = 20.0      # ball dilation of the scale-sum survey


@dataclass(frozen=True)
class Instance:
    """One pinned suite member; `full` marks decomposition feasibility."""

    name: str
    N: int
    depth: int
    epsilon: float
    seed: int
    full: bool


def _make_registry() -> tuple[Instance, ...]:
    out = []
    for N in (2, 3):
        for depth in (1, 2, 3):
            for num in EPS_NUMERATORS:
                # measured square counts: at most 39,499 at depth 1; at
                # depth 2, 262,333 (n2d2-loose), 632,446 (n3d2-loose) and
                # 1,637,320 (n2d2-mid).  n3d2-mid has 3,950,926, under
                # SQUARE_CAP, but is left out (6-7 s to build, 3 s to
                # check, 1.0 GB peak); the cap refuses n2d2-tight and
                # n3d2-tight.
                # Depth 3 is not decomposed.
                full = depth == 1 or (
                    depth == 2 and (num == 0.05 or (N == 2 and num == 0.02)))
                seed = 103 if (N == 3 and depth == 1) else 101
                out.append(Instance(name=f"n{N}d{depth}-{_TAGS[num]}",
                                    N=N, depth=depth, epsilon=num / N,
                                    seed=seed, full=full))
    return tuple(out)


CANONICAL: tuple[Instance, ...] = _make_registry()


def canonical(name: str) -> Instance:
    for inst in CANONICAL:
        if inst.name == name:
            return inst
    raise KeyError(f"unknown instance {name!r}; have "
                   f"{[i.name for i in CANONICAL]}")


def full_instances() -> tuple[Instance, ...]:
    return tuple(i for i in CANONICAL if i.full)


@functools.lru_cache(maxsize=None)
def instance_tree(inst: Instance) -> WeightedTree:
    return random_tree(N=inst.N, depth=inst.depth, epsilon=inst.epsilon,
                       seed=inst.seed)


@functools.lru_cache(maxsize=None)
def _geometry(inst: Instance, kappa: float):
    tree = instance_tree(inst)
    if inst.full:
        return (tree, *build_geometry(tree, kappa=kappa))
    ps = build_planar_set(tree)
    return tree, ps, None, build_clusters(tree, ps, kappa=kappa)


def instance_geometry(inst: Instance, kappa: float = KAPPA):
    """(tree, ps, wd or None, ct) with the decomposition cached per instance."""
    return _geometry(inst, float(kappa))


def clear_geometry_cache() -> None:
    _geometry.cache_clear()
    instance_tree.cache_clear()


def blend_check(wd, seed: int = 0) -> dict:
    """Partition-of-unity sums and support overlap at a mixed sample of
    BLEND_POINTS points.

    Half the points are uniform over the frame; the rest crowd the strip
    around the data so the deep squares get probed too.
    """
    rng = np.random.default_rng(seed)
    n_far = BLEND_POINTS // 2
    n_near = BLEND_POINTS - n_far
    far = rng.uniform(Q0_LO, Q0_HI, size=(n_far, 2))
    near = np.column_stack([rng.uniform(-0.1, 2.1, size=n_near),
                            rng.uniform(-0.06, 0.06, size=n_near)])
    pts = np.vstack([far, near])
    indptr, _, th = pou_table(wd, pts)[:3]
    reps = np.diff(indptr)
    sums = np.bincount(np.repeat(np.arange(pts.shape[0]), reps), weights=th,
                       minlength=pts.shape[0])
    err = float(np.max(np.abs(sums - 1.0)))
    return {"ok": err <= 1e-12, "max_sum_err": err,
            "max_overlap": int(reps.max()), "n_points": int(pts.shape[0])}


def _squares_in_assigned_balls(wd, ct: ClusterTree) -> dict:
    assign = ct.square_cluster
    yx, yy = ct.y[assign, 0], ct.y[assign, 1]
    r = ct.radius[assign]
    reach = np.hypot(np.abs(wd.cx - yx) + 0.5 * wd.delta,
                     np.abs(wd.cy - yy) + 0.5 * wd.delta)
    margin = float(np.min(r / reach))
    return {"ok": bool(np.all(reach <= r * (1.0 + 1e-12))),
            "min_margin": margin}


def _restriction_check(tree, ps, wd, ct, seed: int) -> dict:
    rng = np.random.default_rng([seed, 777])
    vals = rng.standard_normal(tree.n_leaves)
    phi = LeafFunction.from_array(tree, vals - vals.mean())
    f = PlanarData.from_leaf_function(tree, ps, phi)
    F = planar_extend(tree, ps, wd, ct, f, p=1.5, backend="averaging")
    rep = verify_restriction(F, ps, f)
    rep["ok"] = rep["max_rel_e2"] <= 1e-9 and rep["max_rel_e1"] <= 1e-9
    return rep


def patching_survey(tree, ps, wd, ct, n_fields: int, seed: int,
                    quad_order: int = 12) -> dict:
    """C_meas over random piecewise-affine fields from the extension pipeline:
    the seminorm's p-th power over the touching-pair sum of sup-norm piece
    differences (`pair_linf_sum`), the patching estimate read as an equality.

    The fields extend lifted leaf data, so the seminorm comes from edge
    weights integrated once per call, with each field's cluster slopes read
    off its pieces.  C_meas_error is the gap between the ratios at
    quad_order and at its double that the seminorm's error admits (exact
    when the coarse order reads higher, else an upper bound).
    """
    ew = edge_weights(wd, ct, P, quad_order)
    values, errors = [], []
    for k in range(n_fields):
        rng = np.random.default_rng([seed, 31, k])
        vals = rng.standard_normal(tree.n_leaves)
        phi = LeafFunction.from_array(tree, vals - vals.mean())
        f = PlanarData.from_leaf_function(tree, ps, phi)
        F = planar_extend(tree, ps, wd, ct, f, p=P, backend="averaging")
        Phi = np.zeros(ct.n_clusters)
        Phi[ct.square_cluster] = F.pieces[F.piece_of, 2]
        value, err = ew.seminorm(Phi, F)
        rhs = pair_linf_sum(F, P)[0]
        values.append(value ** P / rhs)
        errors.append(((value + err) ** P - value ** P) / rhs)
    finite = [v for v in values if np.isfinite(v) and v > 0]
    spread = max(finite) / min(finite) if finite else float("nan")
    return {"ok": bool(finite) and all(np.isfinite(values)),
            "C_meas": values, "C_meas_error": errors,
            "spread": float(spread), "p": P}


def frame_cover_seminorm(G, p: float) -> float:
    """Seminorm of a smooth field over a disk covering the whole frame."""
    center = np.array([0.5 * (Q0_LO + Q0_HI)] * 2)
    radius = 0.5 * (Q0_HI - Q0_LO) * np.sqrt(2.0)
    return disk_seminorm(G, center, radius, p, rings=RINGS, angles=ANGLES)


def ball_estimate_survey(ct: ClusterTree, n_fields: int, seed: int) -> dict:
    """Ratio of the two ball-estimate sums to the field's seminorm p-th power
    across random Gaussian-bump fields; the construction bounds it above.
    Each field's disk averages over all cluster balls come from one batched
    ball_average call inside ball_estimate_sums."""
    ratios = []
    for k in range(n_fields):
        rng = np.random.default_rng([seed, 67, k])
        G = GaussianBumpField.random(rng)
        s1, s2 = ball_estimate_sums(ct, G, P, rings=RINGS, angles=ANGLES)
        total = frame_cover_seminorm(G, P) ** P
        ratios.append(float((s1 + s2) / total) if total > 0 else 0.0)
    return {"ok": all(np.isfinite(ratios)), "ratios": ratios, "p": P}


def verify_tree(tree: WeightedTree, *, kappa: float = KAPPA, K0: float = 50.0,
                p_values=(1.25, 1.5, 1.75), seed: int = 0,
                n_patch_fields: int = 2,
                n_ball_fields: int = 2, quad_order: int = 12,
                geometry=None) -> dict:
    """Run every geometric check the tree admits and report each one.

    `geometry` reuses a prebuilt (ps, wd or None, ct) as given, and the
    report carries that cluster tree's kappa; otherwise the decomposition is
    attempted and skipped (not failed) if the square budget rules it out,
    and the clusters are built at kappa.
    Checks carrying an `ok` flag decide the overall verdict; everything else
    is a measured constant along for the ride.
    """
    checks: dict[str, dict] = {}
    skipped: dict[str, str] = {}
    if geometry is None:
        ps = build_planar_set(tree)
        ct = None
        try:
            wd = decompose(ps)
        except WhitneyCapError as exc:
            wd = None
            skipped["decomposition"] = str(exc)
    else:
        ps, wd, ct = geometry
    rep = verify_lemma_psi(tree, ps)
    checks["embedding_order"] = {"ok": rep["order_preserving"], **rep}
    checks["separation"] = verify_lemma_sep(ps)
    if ct is None:
        try:
            ct = build_clusters(tree, ps, kappa=kappa)
        except ClusterBallError as exc:
            checks["cluster_balls"] = {"ok": False,
                                       "violations": list(exc.violations)}
    if ct is not None:
        checks["cluster_balls"] = {"ok": not ct.report["violations"],
                                   **ct.report}
    if ct is not None and n_ball_fields > 0:
        checks["ball_estimate"] = ball_estimate_survey(ct, n_ball_fields,
                                                       seed)
    if wd is not None:
        checks["partition"] = verify_partition(wd)
        checks["stopping_rule"] = verify_cz(wd)
        checks["frame"] = verify_boundary(wd)
        checks["distance_bounds"] = verify_dist_bd(wd)
        checks["base_points"] = verify_basepoints(wd, k0=K0)
        checks["blend"] = blend_check(wd, seed=seed)
    if wd is not None and ct is not None:
        if ct.square_cluster is None:
            assign_clusters(ct, wd)
        checks["ball_containment"] = _squares_in_assigned_balls(wd, ct)
        try:
            qc = pair_sets(ct, wd, tuple(p_values))
            checks["boundary_pairs"] = {
                "ok": True,
                "max_R": {str(p): qc["max_R"][p] for p in p_values},
                "max_pair_count": max(qc["pair_counts"].values(), default=0)}
        except AssertionError as exc:
            checks["boundary_pairs"] = {"ok": False, "detail": str(exc)}
        if wd.n <= 60_000:
            naive = assign_clusters_naive(ct, wd)
            checks["assignment_cross_check"] = {
                "ok": bool(np.array_equal(naive, ct.square_cluster))}
        else:
            skipped["assignment_cross_check"] = "decomposition too large"
        checks["restriction"] = _restriction_check(tree, ps, wd, ct, seed)
        if n_patch_fields > 0:
            checks["patching"] = patching_survey(tree, ps, wd, ct,
                                                 n_patch_fields, seed,
                                                 quad_order=quad_order)
    constants = {
        "K_embedding": checks["embedding_order"]["K_measured"],
        "max_neighbors": checks.get("stopping_rule", {}).get("max_neighbors"),
        "max_overlap": checks.get("blend", {}).get("max_overlap"),
        "max_R": checks.get("boundary_pairs", {}).get("max_R"),
        "C_meas": checks.get("patching", {}).get("C_meas"),
        "ball_ratios": checks.get("ball_estimate", {}).get("ratios"),
    }
    return {
        "params": {"kappa": kappa if ct is None else ct.kappa,
                   "K1": None if ct is None else ct.K1,
                   "K0": K0, "seed": seed, "p_values": list(p_values),
                   "quad_order": quad_order},
        "checks": checks,
        "skipped": skipped,
        "constants": constants,
        "ok": all(c["ok"] for c in checks.values() if "ok" in c),
    }


def verify_instance(inst: Instance, kappa: float = KAPPA, **kw) -> dict:
    tree, ps, wd, ct = instance_geometry(inst, kappa=kappa)
    rep = verify_tree(tree, kappa=kappa, geometry=(ps, wd, ct), **kw)
    rep["instance"] = asdict(inst)
    return rep


def scale_sum_survey(instances=None, p_values=(1.25, 1.5, 1.75)) -> dict:
    """max_C R_C per instance at the fixed kappa SURVEY_KAPPA, with the
    cross-instance spread per exponent.

    Ball construction at a large kappa can refuse an instance whose same-depth
    balls would collide; that is the data's geometry, not a failure, so
    refusals are recorded and left out of the spread.
    """
    rows: dict[str, dict] = {}
    per_p: dict[float, list] = {p: [] for p in p_values}
    for inst in (full_instances() if instances is None else instances):
        tree, ps, wd, _ = instance_geometry(inst)
        if wd is None:
            continue
        try:
            ct = build_clusters(tree, ps, kappa=SURVEY_KAPPA)
        except ClusterBallError as exc:
            rows[inst.name] = {"refused": list(exc.violations)[:2]}
            continue
        assign_clusters(ct, wd)
        qc = pair_sets(ct, wd, tuple(p_values))
        rows[inst.name] = {"max_R": {str(p): qc["max_R"][p] for p in p_values}}
        for p in p_values:
            per_p[p].append(qc["max_R"][p])
    spread = {}
    for p, vals in per_p.items():
        pos = [v for v in vals if v > 0]
        spread[str(p)] = float(max(pos) / min(pos)) if pos else float("nan")
    return {"kappa": SURVEY_KAPPA, "rows": rows, "spread": spread,
            "n_measured": {str(p): len(per_p[p]) for p in p_values}}
