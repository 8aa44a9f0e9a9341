"""Affine pieces and the patched planar interpolant.

The interpolant is a partition-of-unity blend of one affine polynomial per
Whitney square, evaluated together with first and second derivatives.  The
evaluation subtracts the piece of one active square at each point before
blending: F = P_ref + sum theta_j (P_j - P_ref), which holds for any reference
because the theta_j sum to one.  The common part carries no second
derivatives, so the Hessian involves only piece differences, which is both the
numerically stable form and the shape the patching estimate sums.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .whitney import Q0_HI, Q0_LO, WhitneyDecomposition, pou_table

AREA_TOL = 1e-14
RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class AffinePolynomial:
    """P(x) = a + b x1 + c x2."""

    a: float
    b: float
    c: float

    def evaluate(self, pts: np.ndarray, order: int = 0) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        m = pts.shape[0]
        if order == 0:
            return self.a + self.b * pts[:, 0] + self.c * pts[:, 1]
        if order == 1:
            return np.tile(np.array([self.b, self.c]), (m, 1))
        if order == 2:
            return np.zeros((m, 2, 2))
        raise ValueError("order must be 0, 1 or 2")

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(self.a + self.b * x[0] + self.c * x[1])

    def gradient(self) -> np.ndarray:
        return np.array([self.b, self.c])

    def __add__(self, other: "AffinePolynomial") -> "AffinePolynomial":
        return AffinePolynomial(self.a + other.a, self.b + other.b,
                                self.c + other.c)

    def __sub__(self, other: "AffinePolynomial") -> "AffinePolynomial":
        return AffinePolynomial(self.a - other.a, self.b - other.b,
                                self.c - other.c)

    def __mul__(self, s: float) -> "AffinePolynomial":
        return AffinePolynomial(self.a * s, self.b * s, self.c * s)

    __rmul__ = __mul__

    def linf_on_rect(self, x0: float, y0: float, x1: float, y1: float) -> float:
        """Exact sup of |P| over the rectangle: |affine| is convex, so the
        maximum sits at a corner."""
        vals = [abs(self.a + self.b * x + self.c * y)
                for x in (x0, x1) for y in (y0, y1)]
        return max(vals)


def affine_through(p1, p2, p3, v1: float, v2: float, v3: float) -> AffinePolynomial:
    """The affine polynomial matching three values at three points."""
    P = np.array([p1, p2, p3], dtype=float)
    v = np.array([v1, v2, v3], dtype=float)
    d12 = P[1] - P[0]
    d13 = P[2] - P[0]
    cross = d12[0] * d13[1] - d12[1] * d13[0]
    scale = max(np.hypot(*d12), np.hypot(*d13), np.hypot(*(P[2] - P[1])))
    if abs(cross) <= AREA_TOL * scale ** 2:
        raise ValueError(f"points {P.tolist()} are colinear")
    M = np.column_stack([np.ones(3), P])
    a, b, c = np.linalg.solve(M, v)
    res = np.abs(M @ np.array([a, b, c]) - v).max()
    vscale = max(np.abs(v).max(), 1.0)
    if res > RESIDUAL_TOL * vscale:
        raise ValueError(f"interpolation residual {res:.3e} too large")
    return AffinePolynomial(float(a), float(b), float(c))


class PatchedInterpolant:
    """F = sum P_Q theta_Q on the frame, one fixed affine outside.

    coefs holds the per-square (a, b, c) rows aligned with the decomposition;
    every boundary square's piece must equal the tail polynomial, which is what
    makes the glued function match its outside formula across the frame edge.
    """

    def __init__(self, wd: WhitneyDecomposition, coefs: np.ndarray,
                 tail: AffinePolynomial):
        coefs = np.asarray(coefs, dtype=float)
        if coefs.shape != (wd.n, 3):
            raise ValueError(f"coefficient shape {coefs.shape} != ({wd.n}, 3)")
        if not np.all(np.isfinite(coefs)):
            raise ValueError("non-finite piece coefficients")
        t = np.array([tail.a, tail.b, tail.c])
        if not np.array_equal(coefs[wd.boundary],
                              np.broadcast_to(t, (int(wd.boundary.sum()), 3))):
            raise ValueError("frame squares must carry the tail polynomial")
        self.wd = wd
        self.coefs = coefs
        self.tail = tail

    def piece(self, row: int) -> AffinePolynomial:
        a, b, c = self.coefs[row]
        return AffinePolynomial(float(a), float(b), float(c))

    def _inside(self, pts: np.ndarray) -> np.ndarray:
        return ((pts[:, 0] >= Q0_LO) & (pts[:, 0] < Q0_HI) &
                (pts[:, 1] >= Q0_LO) & (pts[:, 1] < Q0_HI))

    def evaluate(self, pts: np.ndarray, order: int = 0) -> np.ndarray:
        """Values (order 0), gradients (1, shape (m,2)) or Hessians
        (2, shape (m,2,2)) at a batch of points anywhere in the plane."""
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        m = pts.shape[0]
        inside = self._inside(pts)
        if order == 0:
            out = np.empty(m)
            out[~inside] = self.tail.evaluate(pts[~inside])
        elif order == 1:
            out = np.empty((m, 2))
            out[~inside] = self.tail.gradient()
        elif order == 2:
            out = np.zeros((m, 2, 2))
        else:
            raise ValueError("order must be 0, 1 or 2")
        if not np.any(inside):
            return out[0] if single else out
        xin = pts[inside]
        indptr, sq, th, tx, ty, txx, txy, tyy = pou_table(self.wd, xin)
        ref = sq[indptr[:-1]]      # every point has at least one active square
        k = np.diff(indptr)
        pt = np.repeat(np.arange(xin.shape[0]), k)
        A = self.coefs
        da = A[sq, 0] - A[ref[pt], 0]
        db = A[sq, 1] - A[ref[pt], 1]
        dc = A[sq, 2] - A[ref[pt], 2]
        dP = da + db * xin[pt, 0] + dc * xin[pt, 1]
        mi = xin.shape[0]
        if order == 0:
            base = (A[ref, 0] + A[ref, 1] * xin[:, 0] + A[ref, 2] * xin[:, 1])
            out[inside] = base + np.bincount(pt, weights=th * dP, minlength=mi)
        elif order == 1:
            gx = A[ref, 1] + np.bincount(pt, weights=tx * dP + th * db,
                                         minlength=mi)
            gy = A[ref, 2] + np.bincount(pt, weights=ty * dP + th * dc,
                                         minlength=mi)
            out[inside] = np.column_stack([gx, gy])
        else:
            hxx = np.bincount(pt, weights=txx * dP + 2.0 * tx * db, minlength=mi)
            hyy = np.bincount(pt, weights=tyy * dP + 2.0 * ty * dc, minlength=mi)
            hxy = np.bincount(pt, weights=txy * dP + tx * dc + ty * db,
                              minlength=mi)
            blk = np.empty((mi, 2, 2))
            blk[:, 0, 0] = hxx
            blk[:, 0, 1] = hxy
            blk[:, 1, 0] = hxy
            blk[:, 1, 1] = hyy
            out[inside] = blk
        return out[0] if single else out

    def __call__(self, x) -> float:
        return float(self.evaluate(np.asarray(x, dtype=float), order=0))

    def sample_csv(self, path, nx: int = 101, ny: int = 101) -> None:
        """Grid samples (x1, x2, value, d1, d2) over the frame, for plotting."""
        xs = np.linspace(Q0_LO, Q0_HI, nx, endpoint=False)
        ys = np.linspace(Q0_LO, Q0_HI, ny, endpoint=False)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        pts = np.column_stack([X.ravel(), Y.ravel()])
        vals = np.atleast_1d(self.evaluate(pts, order=0))
        grads = np.atleast_2d(self.evaluate(pts, order=1))
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x1", "x2", "value", "d1", "d2"])
            for row in zip(pts[:, 0], pts[:, 1], vals, grads[:, 0], grads[:, 1]):
                w.writerow([f"{t:.17g}" for t in row])


def pair_linf_sum(F: PatchedInterpolant, p: float) -> tuple[float, float]:
    """sum over ordered touching pairs of sup_Q |P_Q - P_Q'|^p delta_Q^(2-2p),
    the right side of the patching estimate.  Also returns the largest single
    piece difference for reporting.  Only pairs whose pieces differ are
    summed: every other term, self pairs included, is exactly 0."""
    wd = F.wd
    counts = np.diff(wd.neighbors_indptr)
    src = np.repeat(np.arange(wd.n), counts)
    dst = wd.neighbors
    A = F.coefs
    da = A[src, 0] - A[dst, 0]
    db = A[src, 1] - A[dst, 1]
    dc = A[src, 2] - A[dst, 2]
    keep = (da != 0) | (db != 0) | (dc != 0)
    src, da, db, dc = src[keep], da[keep], db[keep], dc[keep]
    h = 0.5 * wd.delta[src]
    # corner max of |da + db x + dc y| over the source square
    base = da + db * wd.cx[src] + dc * wd.cy[src]
    linf = np.abs(base) + np.abs(db) * h + np.abs(dc) * h
    total = float(np.sum(linf ** p * wd.delta[src] ** (2.0 - 2.0 * p)))
    worst = float(linf.max()) if linf.size else 0.0
    return total, worst
