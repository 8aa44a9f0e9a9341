"""Affine pieces and the patched planar interpolant.

The interpolant is a partition-of-unity blend of one affine polynomial per
Whitney square, evaluated together with first and second derivatives.  The
pieces are stored as a table and an index: `pieces` holds k affine rows
(a, b, c) and the int32 `piece_of` gives each square's row.  Data lifted
from leaf slopes has one piece per cluster, so its table has one row per
cluster and its index is the cluster label of each square, shared with the
cluster tree: building it computes O(clusters) pieces, not O(squares),
and per square only checks the index and sets the blend mask.  General
data has one piece per square and passes the identity index, so every
interpolant is read through the index on one evaluation path.

The evaluation subtracts the piece of one active square at each point
before blending: F = P_ref + sum theta_j (P_j - P_ref), which holds for any
reference because the theta_j sum to one.  The common part carries no second
derivatives, so the Hessian involves only piece differences, which is both the
numerically stable form and the shape the patching estimate sums.

F blends only where pieces differ.  At a point whose home square (the one
containing it) touches only squares with its own piece, every active square
carries that piece, so F is that affine exactly, with zero Hessian.  Every
interpolant carries a blend-row mask that holds every square touching a
different piece; points homed elsewhere take their square's piece and skip
the partition-of-unity table.  By default every row is a blend row.  For
lifted leaf data the pieces differ only across clusters, so the blend rows
are the squares on a cluster boundary (876 of 262,333 on `n2d2-loose`);
general data keeps the default and blends every square.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .whitney import (Q0_HI, Q0_LO, WhitneyDecomposition, pou_table,
                      touching_pairs)

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

    def __sub__(self, other: "AffinePolynomial") -> "AffinePolynomial":
        return AffinePolynomial(self.a - other.a, self.b - other.b,
                                self.c - other.c)


class PatchedInterpolant:
    """F = sum P_Q theta_Q on the frame, one fixed affine outside.

    pieces holds k rows (a, b, c), and piece_of (int32, one entry per
    square of the decomposition) gives the row of each square's piece;
    piece_of=None is the identity, for one piece per square.  Lifted leaf
    data passes one row per cluster with the cluster labels as the index,
    which is kept as given, not copied.  Every boundary square's piece must
    equal the tail polynomial, which is what makes the glued function match
    its outside formula across the frame edge.

    blend is a boolean mask over the rows: the blend rows, which must hold
    every row whose touching list holds a different piece (any superset
    will do).  A point whose home square is not a blend row sees only
    squares with its home's piece, and the theta sum to one, so F there is
    that piece exactly.  blend_rows=None makes every row a blend row.
    """

    def __init__(self, wd: WhitneyDecomposition, pieces: np.ndarray,
                 tail: AffinePolynomial, blend_rows: np.ndarray | None = None,
                 piece_of: np.ndarray | None = None):
        pieces = np.asarray(pieces, dtype=float)
        if piece_of is None:
            if pieces.shape != (wd.n, 3):
                raise ValueError(f"coefficient shape {pieces.shape} != "
                                 f"({wd.n}, 3)")
            piece_of = np.arange(wd.n, dtype=np.int32)
        else:
            piece_of = np.asarray(piece_of, dtype=np.int32)
            if pieces.ndim != 2 or pieces.shape[1] != 3:
                raise ValueError(f"piece table shape {pieces.shape} != (k, 3)")
            if piece_of.shape != (wd.n,):
                raise ValueError(f"piece index shape {piece_of.shape} != "
                                 f"({wd.n},)")
            if piece_of.min() < 0 or piece_of.max() >= pieces.shape[0]:
                raise ValueError("piece index out of range")
        if not np.all(np.isfinite(pieces)):
            raise ValueError("non-finite piece coefficients")
        t = np.array([tail.a, tail.b, tail.c])
        framed = pieces[piece_of[wd.boundary]]
        if not np.array_equal(framed, np.broadcast_to(t, framed.shape)):
            raise ValueError("frame squares must carry the tail polynomial")
        self.wd = wd
        self.pieces = pieces
        self.piece_of = piece_of
        self.tail = tail
        self.blend = np.zeros(wd.n, dtype=bool)
        self.blend[slice(None) if blend_rows is None else blend_rows] = True

    @property
    def coefs(self) -> np.ndarray:
        """The per-square (a, b, c) rows, pieces[piece_of], read-only and
        gathered on each read."""
        rows = self.pieces[self.piece_of]
        rows.setflags(write=False)
        return rows

    def _inside(self, pts: np.ndarray) -> np.ndarray:
        return ((pts[:, 0] >= Q0_LO) & (pts[:, 0] < Q0_HI) &
                (pts[:, 1] >= Q0_LO) & (pts[:, 1] < Q0_HI))

    def evaluate(self, pts: np.ndarray, order: int = 0) -> np.ndarray:
        """Values (order 0), gradients (1, shape (m,2)) or Hessians
        (2, shape (m,2,2)) at a batch of points anywhere in the plane.

        Points outside the frame take the tail, points whose home square is
        not a blend row take that square's piece, and only the rest go
        through the partition-of-unity table."""
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
        if not inside.any():
            return out[0] if single else out
        A, idx = self.pieces, self.piece_of
        # a batch wholly inside the frame is located as it is, not copied
        at = None if inside.all() else np.flatnonzero(inside)
        # every point takes its home square's piece; those homed on a blend
        # row are overwritten by the blend below
        xin = pts if at is None else pts[at]
        home = self.wd.locate(xin)
        put = slice(None) if at is None else at
        # order 2 reads no piece: one piece's Hessian is the zeros above
        if order < 2:
            P = np.take(A, idx[home], axis=0)
            if order == 0:
                out[put] = P[:, 0] + P[:, 1] * xin[:, 0] + P[:, 2] * xin[:, 1]
            else:
                out[put] = P[:, 1:]
        mix = np.flatnonzero(self.blend[home])
        at = mix if at is None else at[mix]
        home = home[mix]
        if not at.size:
            return out[0] if single else out
        xin = pts[at]
        indptr, sq, th, tx, ty, txx, txy, tyy = pou_table(self.wd, xin, home)
        j = idx[sq]
        ref = j[indptr[:-1]]       # every point has at least one active square
        k = np.diff(indptr)
        pt = np.repeat(np.arange(xin.shape[0]), k)
        da = A[j, 0] - A[ref[pt], 0]
        db = A[j, 1] - A[ref[pt], 1]
        dc = A[j, 2] - A[ref[pt], 2]
        dP = da + db * xin[pt, 0] + dc * xin[pt, 1]
        mi = xin.shape[0]
        if order == 0:
            base = (A[ref, 0] + A[ref, 1] * xin[:, 0] + A[ref, 2] * xin[:, 1])
            out[at] = base + np.bincount(pt, weights=th * dP, minlength=mi)
        elif order == 1:
            gx = A[ref, 1] + np.bincount(pt, weights=tx * dP + th * db,
                                         minlength=mi)
            gy = A[ref, 2] + np.bincount(pt, weights=ty * dP + th * dc,
                                         minlength=mi)
            out[at] = np.column_stack([gx, gy])
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
            out[at] = blk
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


def _differing_pairs(F: PatchedInterpolant) -> tuple[np.ndarray, np.ndarray]:
    """Touching pairs (s, t), s < t, whose pieces differ.  Touching is
    symmetric and a self pair never differs, so each unordered pair is
    compared once.  The blend rows hold both squares of every differing
    pair, so only their touching lists are scanned: every list by default,
    the cluster-boundary rows' for lifted data."""
    src, dst = touching_pairs(F.wd, np.flatnonzero(F.blend))
    once = src < dst
    src, dst = src[once], dst[once]
    js, jt = F.piece_of[src], F.piece_of[dst]
    differ = np.zeros(src.size, dtype=bool)
    for col in np.ascontiguousarray(F.pieces.T):  # 1-D gathers beat row gathers
        differ |= col[js] != col[jt]
    return src[differ], dst[differ]


def pair_linf_sum(F: PatchedInterpolant, p: float) -> tuple[float, float]:
    """sum over ordered touching pairs of sup_Q |P_Q - P_Q'|^p delta_Q^(2-2p),
    the right side of the patching estimate.  Also returns the largest single
    piece difference for reporting.  Only pairs whose pieces differ are
    summed: every other term, self pairs included, is exactly 0."""
    wd = F.wd
    s, t = _differing_pairs(F)
    da, db, dc = (F.pieces[F.piece_of[s]] - F.pieces[F.piece_of[t]]).T
    linf = []
    for q in (s, t):    # both orientations; negating the difference is exact
        h = 0.5 * wd.delta[q]
        # corner max of |da + db x + dc y| over the source square
        base = da + db * wd.cx[q] + dc * wd.cy[q]
        linf.append(np.abs(base) + np.abs(db) * h + np.abs(dc) * h)
    delta = wd.delta[np.concatenate([s, t])]
    linf = np.concatenate(linf)
    total = float(np.sum(linf ** p * delta ** (2.0 - 2.0 * p)))
    worst = float(linf.max()) if linf.size else 0.0
    return total, worst
