"""Extension of leaf data to whole trees: optimal p-energy, the p=2 linear
solve and shadow averaging.

The trace seminorm of leaf data is the infimum of the tree seminorm over all
extensions; `optimal_extension` computes a minimizer by damped Newton on a
smoothed objective with continuation in the smoothing parameter, which is the
only non-linear solve in the package.
"""

from __future__ import annotations

import numpy as np

from .tree_core import (LeafFunction, NodeFunction, WeightedTree, _check_p,
                        edge_energy, seminorm_tree)

MU_FLOOR_REL = 1e-10      # continuation floor, relative to the data span
NEWTON_MAX_ITER = 80


class ExtensionSolveError(RuntimeError):
    """Solver failed to meet tolerance; carries the best iterate found."""

    def __init__(self, message: str, best: NodeFunction | None = None,
                 residual: float = np.nan):
        super().__init__(message)
        self.best = best
        self.residual = residual


def _leaf_array(tree: WeightedTree, phi) -> np.ndarray:
    if isinstance(phi, LeafFunction):
        return phi.to_array(tree)
    return LeafFunction(dict(phi)).to_array(tree)


def averaging_extension(tree: WeightedTree, phi) -> NodeFunction:
    """Phi(v) = mean of phi over the leaves below v.  Linear in phi, exact on
    constants, and restricts to phi on the leaves."""
    leaf_vals = _leaf_array(tree, phi)
    # the sums run over offsets from the first leaf, so constant data sum to
    # exact zeros and come back unrounded
    base = leaf_vals[0]
    cs = np.concatenate([[0.0], np.cumsum(leaf_vals - base)])
    means = (cs[tree.leaf_hi] - cs[tree.leaf_lo]) / (tree.leaf_hi - tree.leaf_lo)
    means += base
    # exact restriction: a singleton shadow must reproduce the leaf value bit for bit
    means[tree.is_leaf] = leaf_vals[
        [tree.leaf_pos[v] for v in np.array(tree.ids)[tree.is_leaf]]]
    return NodeFunction.from_array(tree, means)


def harmonic_extension_p2(tree: WeightedTree, phi) -> NodeFunction:
    """p = 2 minimizer via the normal equations (all weight coefficients are
    W^(2-p) = 1).  Dense solve; trees here are desk-scale."""
    leaf_vals = _leaf_array(tree, phi)
    vals = np.zeros(tree.n_nodes)
    for v, x in zip(tree.leaf_ids, leaf_vals):
        vals[tree.index[v]] = x
    free = np.flatnonzero(~tree.is_leaf)
    if free.size == 0:
        return NodeFunction.from_array(tree, vals)
    pos = {int(i): k for k, i in enumerate(free)}
    A = np.zeros((free.size, free.size))
    b = np.zeros(free.size)
    for i in range(1, tree.n_nodes):
        j = int(tree.parent[i])
        fi, fj = pos.get(i), pos.get(j)
        if fi is not None:
            A[fi, fi] += 1.0
        if fj is not None:
            A[fj, fj] += 1.0
        if fi is not None and fj is not None:
            A[fi, fj] -= 1.0
            A[fj, fi] -= 1.0
        elif fi is not None:
            b[fi] += vals[j]
        elif fj is not None:
            b[fj] += vals[i]
    x = np.linalg.solve(A, b)
    resid = np.max(np.abs(A @ x - b)) if free.size else 0.0
    scale = max(1.0, float(np.max(np.abs(leaf_vals))) if leaf_vals.size else 1.0)
    if resid > 1e-12 * scale:
        raise ExtensionSolveError(f"normal-equation residual {resid:.3e} too large",
                                  residual=resid)
    vals[free] = x
    return NodeFunction.from_array(tree, vals)


# -- smoothed p-energy solver -------------------------------------------------


def _objective(tree, vals, p, mu):
    d = vals[1:] - vals[tree.parent[1:]]
    w = tree.weights[1:] ** (2.0 - p)
    return float(np.sum(w * ((d * d + mu * mu) ** (p / 2.0) - mu ** p)))


def _grad_hess(tree, vals, p, mu, free, pos):
    d = vals[1:] - vals[tree.parent[1:]]
    w = tree.weights[1:] ** (2.0 - p)
    q = d * d + mu * mu
    s = w * p * d * q ** (p / 2.0 - 1.0)
    h = w * p * q ** (p / 2.0 - 2.0) * (mu * mu + (p - 1.0) * d * d)
    g = np.zeros(free.size)
    H = np.zeros((free.size, free.size))
    for e in range(tree.n_nodes - 1):
        c = e + 1
        par = int(tree.parent[c])
        fc, fp = pos.get(c), pos.get(par)
        if fc is not None:
            g[fc] += s[e]
            H[fc, fc] += h[e]
        if fp is not None:
            g[fp] -= s[e]
            H[fp, fp] += h[e]
        if fc is not None and fp is not None:
            H[fc, fp] -= h[e]
            H[fp, fc] -= h[e]
    return g, H


def optimal_extension(tree: WeightedTree, phi, p: float,
                      tol: float = 1e-7) -> NodeFunction:
    """Minimize the p-th power of the tree seminorm over extensions of phi.

    Damped Newton on sum w_e ((d^2 + mu^2)^(p/2) - mu^p) with mu -> mu/10
    continuation down to 1e-10 times the data span.  The smoothing gap per edge
    is at most mu^p * w_e, which bounds the distance to the infimum; `tol` is
    the relative objective tolerance requested through that bound.  A Newton
    stall raises ExtensionSolveError carrying the current iterate.

    Parameters
    ----------
    phi : LeafFunction or mapping leaf id -> value.
    p : exponent in (1, 2]; at 2 this reproduces `harmonic_extension_p2`.
    """
    p = _check_p(p)
    if tol <= 0:
        raise ValueError("tol must be positive")
    leaf_vals = _leaf_array(tree, phi)
    vals = averaging_extension(tree, phi).to_array(tree)
    free = np.flatnonzero(~tree.is_leaf)
    if free.size == 0:
        return NodeFunction.from_array(tree, vals)
    span = float(leaf_vals.max() - leaf_vals.min()) if leaf_vals.size else 0.0
    if span <= 1e-12 * float(np.max(np.abs(leaf_vals))):
        # constant up to float noise (the scale `noise` below treats as
        # zero): Newton cannot resolve the energy, and the averaging extension
        # restricts to phi exactly (and is the exact constant on constants)
        return NodeFunction.from_array(tree, vals)
    pos = {int(i): k for k, i in enumerate(free)}
    w_sum = float(np.sum(tree.weights[1:] ** (2.0 - p)))
    mu = 0.1 * span
    mu_floor = MU_FLOOR_REL * span
    # energies below the float noise of the data are indistinguishable from
    # zero; relative gap tests against them would never pass
    noise = (1e-12 * max(span, float(np.max(np.abs(leaf_vals))))) ** p * w_sum
    while True:
        ok = False
        decr = np.nan
        for _ in range(NEWTON_MAX_ITER):
            g, H = _grad_hess(tree, vals, p, mu, free, pos)
            jcur = _objective(tree, vals, p, mu)
            try:
                step = np.linalg.solve(H, -g)
            except np.linalg.LinAlgError:
                break
            # Newton decrement^2; for the convex stage objective it bounds the
            # remaining suboptimality near the optimum
            decr = -float(g @ step)
            if decr <= max(1e-12 * jcur, noise):
                ok = True
                break
            t = 1.0
            improved = False
            while t >= 2.0 ** -40:
                vals[free] += t * step
                jnew = _objective(tree, vals, p, mu)
                if jnew <= jcur - 1e-4 * t * decr:
                    improved = True
                    break
                vals[free] -= t * step
                t *= 0.5
            if not improved:
                # cannot improve in float arithmetic: accept as stationary
                # provided the predicted gain is already negligible
                ok = decr <= 1e-7 * max(jcur, 1e-300)
                break
        if not ok:
            raise ExtensionSolveError(
                f"Newton stalled at smoothing {mu:.3e} (decrement {decr:.3e})",
                best=NodeFunction.from_array(tree, vals), residual=decr)
        gap = mu ** p * w_sum
        jtrue = edge_energy(tree, vals, p)
        if mu <= mu_floor or gap <= tol * max(jtrue, noise):
            break
        mu = max(mu / 10.0, mu_floor)
    out = NodeFunction.from_array(tree, vals)
    jfinal = edge_energy(tree, vals, p)
    gap = mu ** p * w_sum
    if gap > 10.0 * max(tol, 1e-6) * max(jfinal, noise) and jfinal > noise:
        raise ExtensionSolveError(
            f"continuation floor reached with smoothing gap {gap:.3e} "
            f"above tolerance ({tol:g} rel of {jfinal:.3e})",
            best=out, residual=gap)
    return out


def trace_seminorm(tree: WeightedTree, phi, p: float) -> float:
    """Infimum of the tree seminorm over extensions of the leaf data."""
    return seminorm_tree(tree, optimal_extension(tree, phi, p), p)
