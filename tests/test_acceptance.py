"""Acceptance gate: six criteria, one test and one printed line each.

The file is meant to run as a whole (`pytest tests/test_acceptance.py -v`);
geometry is shared through the suite cache, verification reports between
criteria 1 and 2, and experiment runs between criteria 5 and 6, so
single-test runs recompute more than they must.  Budget is the
canonical-suite limit of ten minutes on one core.
"""

import numpy as np

from treeplane.analysis import ball_average
from treeplane.interpolant import AffinePolynomial
from treeplane.operators import (PlanarData, norm_ratio_experiment,
                                 planar_extend, tree_extend_from_planar,
                                 verify_restriction)
from treeplane.suite import (CANONICAL, ball_estimate_survey, blend_check,
                             canonical, instance_geometry, scale_sum_survey,
                             verify_instance)
from treeplane.tree_core import (LeafFunction, WeightedTree, edge_energy,
                                 random_tree)
from treeplane.tree_extension import harmonic_extension_p2, optimal_extension
from treeplane.embedding import build_planar_set
from treeplane.oracles import brute_force_extension, decompose_naive
from treeplane.whitney import decompose


def _line(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, detail


def _demeaned(tree, seed: int) -> LeafFunction:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(tree.n_leaves)
    return LeafFunction.from_array(tree, v - v.mean())


# verification reports shared between criteria 1 and 2
_REP: dict = {}


def _report(inst) -> dict:
    if inst.name not in _REP:
        _REP[inst.name] = verify_instance(inst)
    return _REP[inst.name]


# experiment runs shared between criteria 5 and 6
_EXP: dict = {}


def _experiment(name: str, p: float, trials: int = 50, seed: int = 2026):
    key = (name, p)
    if key not in _EXP:
        tree, ps, wd, ct = instance_geometry(canonical(name))
        _EXP[key] = norm_ratio_experiment(tree, p=p, n_trials=trials,
                                          seed=seed, geometry=(ps, wd, ct))
    return _EXP[key]


def test_criterion_1_exact_lemma_suite():
    failures = []
    n_checks = 0
    for inst in CANONICAL:
        rep = _report(inst)
        n_checks += len(rep["checks"])
        bad = [k for k, c in rep["checks"].items() if c.get("ok") is False]
        if bad:
            failures.append((inst.name, bad))
    _line(1, not failures,
          f"{n_checks} checks green on {len(CANONICAL)} instances"
          if not failures else f"failing: {failures}")


def test_criterion_2_measured_constant_stability():
    ks, neigh, c_meas = [], [], []
    for inst in CANONICAL:
        consts = _report(inst)["constants"]
        ks.append(consts["K_embedding"])
        if consts["max_neighbors"] is not None:
            neigh.append(consts["max_neighbors"])
        if consts["C_meas"]:
            c_meas.extend(consts["C_meas"])
    survey = scale_sum_survey()
    spreads = {p: s for p, s in survey["spread"].items() if np.isfinite(s)}
    patch_ok = all(np.isfinite(v) and v > 0 for v in c_meas)
    patch_spread = max(c_meas) / min(c_meas) if patch_ok else np.inf
    ok = (max(ks) <= 10.0 and max(neigh) <= 12 and len(spreads) == 3
          and all(s < 2.0 for s in spreads.values()) and patch_spread < 3.0)
    _line(2, ok,
          f"K={max(ks):.3g} (<=10), neighbors={max(neigh)} (<=12), "
          f"scale-sum spread at kappa=20 {max(spreads.values()):.3f}x (<2), "
          f"patching spread {patch_spread:.3f}x over {len(c_meas)} fields (<3); "
          "breaches exit 3 at the command line")


def test_criterion_3_oracle_equivalences():
    detail = []

    # tree solver vs brute-force grid, 3 interior nodes
    t = random_tree(N=2, depth=2, epsilon=0.02, seed=11)
    phi = _demeaned(t, 12)
    e_opt = edge_energy(t, optimal_extension(t, phi, 1.5).to_array(t), 1.5)
    e_bf = edge_energy(t, brute_force_extension(t, phi, 1.5).to_array(t), 1.5)
    gap = abs(e_bf - e_opt) / e_bf
    assert gap <= 1e-3
    detail.append(f"solver vs grid gap {gap:.1e}")

    # p=2 continuation vs the weighted linear solve
    lin = harmonic_extension_p2(t, phi).to_array(t)
    opt2 = optimal_extension(t, phi, 2.0).to_array(t)
    d2 = np.max(np.abs(opt2 - lin)) / max(1.0, np.max(np.abs(lin)))
    assert d2 <= 1e-8
    detail.append(f"p=2 vs linear {d2:.1e}")

    # decomposition vs the naive enumerator on a shallow instance
    t64 = WeightedTree({"": 1.0, "0": 1.0 / 16, "1": 1.0 / 32}, N=2,
                       epsilon=1.0 / 16)
    ps64 = build_planar_set(t64)
    wd64 = decompose(ps64)
    squares, types = decompose_naive(ps64)
    assert wd64.n == len(squares)
    for i, q in enumerate(squares):
        assert (wd64.levels[i], wd64.ixs[i], wd64.iys[i]) == \
            (q.level, q.ix, q.iy)
        assert wd64.type_codes[i] == types[i]
    detail.append(f"naive enumerator match on {wd64.n} squares")

    # disk average vs 10^6-sample Monte Carlo on a depth-1 cluster ball
    tree, ps, wd, ct = instance_geometry(canonical("n2d2-loose"))
    rng = np.random.default_rng(4)
    u = rng.uniform(0.8, 1.3, tree.n_leaves)
    phi_s = LeafFunction.from_array(tree, u * tree.leaf_weights)
    F = planar_extend(tree, ps, wd, ct,
                      PlanarData.from_leaf_function(tree, ps, phi_s), 1.5)
    i = next(j for j in range(1, tree.n_nodes) if not tree.is_leaf[j])
    c, r = ct.y[i], float(ct.radius[i])
    quad = ball_average(F, c[None], np.array([r]), rings=256, angles=512)[0]
    mc_rng = np.random.default_rng(99)
    n = 10 ** 6
    rad = r * np.sqrt(mc_rng.random(n))
    th = mc_rng.uniform(0.0, 2.0 * np.pi, n)
    pts = np.column_stack([c[0] + rad * np.cos(th), c[1] + rad * np.sin(th)])
    mc = float(F.evaluate(pts, order=1)[:, 1].mean())
    rel = abs(mc - quad) / abs(quad)
    assert rel <= 5e-4  # 3 significant digits
    detail.append(f"disk average vs MC {rel:.1e}")

    # Hessian vs central differences at fixed step; home square must be
    # wide next to the step or the quotient measures its own truncation
    tree_m, ps_m, wd_m, ct_m = instance_geometry(canonical("n2d1-mid"))
    F_m = planar_extend(tree_m, ps_m, wd_m, ct_m,
                        PlanarData.from_leaf_function(
                            tree_m, ps_m, _demeaned(tree_m, 21)), 1.5)
    rng = np.random.default_rng(22)
    pts = np.empty((0, 2))
    while pts.shape[0] < 1000:
        cand = rng.uniform(-2.9, 4.9, size=(2000, 2))
        pts = np.vstack([pts, cand[wd_m.delta[wd_m.locate(cand)] >= 0.1]])
    pts = pts[:1000]
    h = 1e-5
    e1, e2 = np.array([h, 0.0]), np.array([0.0, h])
    v = lambda q: F_m.evaluate(q, order=0)
    fxx = (v(pts + e1) - 2 * v(pts) + v(pts - e1)) / h ** 2
    fyy = (v(pts + e2) - 2 * v(pts) + v(pts - e2)) / h ** 2
    fxy = (v(pts + e1 + e2) - v(pts + e1 - e2)
           - v(pts - e1 + e2) + v(pts - e1 - e2)) / (4 * h ** 2)
    H = F_m.evaluate(pts, order=2)
    scale = max(np.abs(H).max(), 1.0)
    fd_rel = max(np.abs(fxx - H[:, 0, 0]).max(),
                 np.abs(fyy - H[:, 1, 1]).max(),
                 np.abs(fxy - H[:, 0, 1]).max()) / scale
    assert fd_rel <= 1e-4
    detail.append(f"hessian vs differences {fd_rel:.1e} at 1000 points")

    # partition of unity sums
    blend = blend_check(wd_m)
    assert blend["ok"] and blend["max_sum_err"] <= 1e-12
    detail.append(f"blend sums err {blend['max_sum_err']:.1e} at 10^4 points")

    _line(3, True, "; ".join(detail))


def test_criterion_4_extension_identities():
    tree, ps, wd, ct = instance_geometry(canonical("n2d1-mid"))
    phi = _demeaned(tree, 30)
    f = PlanarData.from_leaf_function(tree, ps, phi)
    F = planar_extend(tree, ps, wd, ct, f, 1.5)
    rest = verify_restriction(F, ps, f)
    assert rest["max_rel_e2"] <= 1e-9 and rest["max_rel_e1"] <= 1e-9

    A = AffinePolynomial(0.7, -0.3, 0.45)
    FA = planar_extend(tree, ps, wd, ct, PlanarData.from_affine(ps, A), 1.5,
                       backend="averaging")
    rng = np.random.default_rng(31)
    pts = rng.uniform(-2.9, 4.9, size=(2000, 2))
    want = A.evaluate(pts)
    aff = float(np.max(np.abs(FA.evaluate(pts) - want)
                       / np.maximum(1.0, np.abs(want))))
    assert aff <= 1e-10

    Phi = tree_extend_from_planar(tree, ps, wd, ct, phi, 1.5)
    assert all(Phi[v] == phi[v] for v in tree.leaf_ids)

    zero = LeafFunction.from_array(tree, np.zeros(tree.n_leaves))
    F0 = planar_extend(tree, ps, wd, ct,
                       PlanarData.from_leaf_function(tree, ps, zero), 1.5)
    z_plane = float(np.max(np.abs(F0.evaluate(pts))))
    Phi0 = tree_extend_from_planar(tree, ps, wd, ct, zero, 1.5)
    z_tree = max(abs(Phi0[v]) for v in tree.ids)
    assert z_plane <= 1e-12 and z_tree <= 1e-12

    _line(4, True,
          f"restriction {max(rest['max_rel_e2'], rest['max_rel_e1']):.1e}, "
          f"affine reproduction {aff:.1e}, leaf restriction exact, "
          f"zero pipelines {max(z_plane, z_tree):.1e}")


def test_criterion_5_ratio_experiment_echo():
    sweep = ["n2d1-tight", "n2d1-mid", "n2d1-loose"]
    extra = [("n2d1-loose", 1.25), ("n2d1-loose", 1.75), ("n3d1-loose", 1.5)]
    plane_all, tree_all = [], []
    caveat = ""
    headroom = np.inf
    for name, p in [(n, 1.5) for n in sweep] + extra:
        rep = _experiment(name, p)
        caveat = rep["caveat"]
        plane_all.extend(r["rho_plane"] for r in rep["rows"])
        tree_all.extend(r["rho_tree"] for r in rep["rows"])
        # the edge-weight bound holds for every trial, not just on average
        bound = rep["rho_plane_bound"]
        assert all(r["rho_plane"] <= bound * (1.0 + 1e-12)
                   for r in rep["rows"])
        headroom = min(headroom, bound / max(r["rho_plane"]
                                             for r in rep["rows"]))
    plane = np.array(plane_all)
    rho_t = np.array(tree_all)
    assert np.isfinite(plane).all() and np.isfinite(rho_t).all()
    assert rho_t.min() >= 1.0 - 1e-6
    # spread across epsilon at fixed (N=2, depth=1, p=1.5)
    pooled = np.array([r["rho_plane"] for n in sweep
                       for r in _experiment(n, 1.5)["rows"]])
    spread = float(pooled.max() / np.median(pooled))
    assert spread < 5.0
    assert "not computable" in caveat
    _line(5, True,
          f"{plane.size} trials finite, rho_tree min {rho_t.min():.12f}, "
          f"epsilon spread {spread:.3f}x (<5) at (N=2, depth=1, p=1.5); "
          f"every rho_plane within its edge-weight bound (least headroom "
          f"{headroom:.3f}x); caveat recorded: {caveat}")


def test_criterion_6_quadrature_self_consistency():
    worst = 0.0
    n_rows = 0
    for (name, p), rep in sorted(_EXP.items()):
        for r in rep["rows"]:
            worst = max(worst, r["quad_rel"])
            n_rows += 1
    assert n_rows > 0, "criterion 5 must run first to populate the rows"
    assert worst <= 0.01
    _, _, _, ct = instance_geometry(canonical("n2d1-loose"))
    survey = ball_estimate_survey(ct, n_fields=10, seed=8)
    ratios = np.array(survey["ratios"])
    assert np.isfinite(ratios).all() and ratios.max() < 1.0
    _line(6, True,
          f"quadrature refinement <= {worst:.2e} of value over {n_rows} "
          f"experiment rows; ball-estimate ratios in "
          f"[{ratios.min():.2e}, {ratios.max():.2e}] over 10 fields")
