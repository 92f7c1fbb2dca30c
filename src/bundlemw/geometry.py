"""Geometry of punctured unit spheres S^{D-1} in any ambient dimension.

Provides exponential/log maps, geodesic distance, parallel transport along
minimal geodesics, Frechet means, and moving frames: an orthonormal tangent
basis at a distinguished point, transported to arbitrary points to give a
consistent coordinate system on every tangent space.  Points and tangent
vectors are the rows of (n, D) arrays; a ``Point`` holds one unit vector,
such as a frame's base point or a Frechet mean.  All operations are pure
functions of immutable values and safe to share across threads.

Accuracy is only guaranteed away from the puncture: transports and logs to
points m with <p, m> <= -1 + 1e-10 raise :class:`AntipodalPoint`, and
conditioning degrades as <p, m> approaches -1 (we recommend staying above
-0.99).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ._jsonfile import read_json, write_json
from .errors import AntipodalPoint, NoConvergence

# <p,q> at or below -1 + ANTIPODE_TOL counts as the puncture.
ANTIPODE_TOL = 1e-10


class Point:
    """A point on the unit sphere, stored as a unit vector in R^D.

    Coordinates are renormalized on construction; zero vectors are rejected.
    """

    __slots__ = ("coords",)

    def __init__(self, coords):
        c = np.asarray(coords, dtype=float)
        if c.ndim != 1:
            raise ValueError("point coordinates must be a vector in R^D, D >= 2")
        self.coords = _unit_rows(c[None])[0]

    @property
    def dim(self) -> int:
        """Ambient dimension D."""
        return self.coords.size

    def __repr__(self) -> str:
        return f"Point({np.array2string(self.coords, precision=6)})"


def _unit_rows(X) -> np.ndarray:
    """The rows of X, points given in R^D with D >= 2, scaled to unit norm.

    Rejects non-finite and zero rows, and rows whose squared norm overflows.
    Row norms come from a per-row dot product, so one row gives the same bits
    alone or in a stack.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] < 2:
        raise ValueError("point coordinates must be vectors in R^D, D >= 2")
    if not np.isfinite(X).all():
        raise ValueError("point coordinates must be finite")
    with np.errstate(over="ignore"):
        sq = np.vecdot(X, X)
    if not np.isfinite(sq).all():
        raise ValueError("point coordinates are too large to normalize")
    norms = np.sqrt(sq)[:, None]
    if (norms < 1e-12).any():
        raise ValueError("cannot normalize a zero vector to the sphere")
    return X / norms


class MovingFrame:
    """A distinguished point with a full orthonormal tangent basis.

    ``matrix`` holds the d = D - 1 basis vectors at ``p`` as the rows of a
    read-only d x D array.  Each row must be tangent at ``p`` to 1e-10
    (relative to its norm), and its residual normal component is projected
    away; the Gram matrix must be the identity to 1e-10.  Transporting the
    basis to another point (see :func:`transport_frame`) yields the basis of
    the moving frame F(m) used to express tangent vectors and covariances in
    R^d coordinates.
    """

    __slots__ = ("p", "matrix")

    def __init__(self, p: Point, basis):
        self.p = p
        self.matrix = _tangent_basis(p.coords, basis)

    @property
    def dim(self) -> int:
        """Fiber dimension d = D - 1."""
        return self.matrix.shape[0]


def _tangent_basis(p: np.ndarray, basis) -> np.ndarray:
    """``basis`` checked and projected as :class:`MovingFrame` describes,
    for the unit vector p; returned as a new read-only d x D array."""
    B = np.array(basis, dtype=float)
    d = p.size - 1
    if B.shape != (d, p.size):
        raise ValueError(f"frame basis must be {d} x {p.size}, got shape {B.shape}")
    normal = np.vecdot(B, p)
    if np.any(np.abs(normal) > 1e-10 * np.maximum(1.0, _last_axis_norm(B))):
        raise ValueError("frame basis vectors must be tangent at the frame point")
    B -= np.outer(normal, p)
    if np.max(np.abs(B @ B.T - np.eye(d))) > 1e-10:
        raise ValueError("frame basis is not orthonormal")
    B.setflags(write=False)
    return B


def _angle_from_chords(c, chord, cochord):
    """Angle between unit vectors from their dot product and the norms of
    their difference and sum.

    Using 2*arcsin(chord/2) for acute pairs and pi - 2*arcsin(cochord/2)
    for obtuse ones keeps the result well conditioned at both ends; in
    particular bitwise-equal inputs give exactly zero.
    """
    acute = 2.0 * np.arcsin(np.clip(0.5 * chord, 0.0, 1.0))
    obtuse = np.pi - 2.0 * np.arcsin(np.clip(0.5 * cochord, 0.0, 1.0))
    return np.where(c >= 0.0, acute, obtuse)


def _last_axis_norm(A: np.ndarray) -> np.ndarray:
    """sqrt of the row-wise sum of squares, via the same reduction whether
    the input is a single vector or a stack, so scalar and batched callers
    produce bitwise-identical values."""
    return np.sqrt(np.sum(A * A, axis=-1))


def geodesic_distance(p: Point, q: Point) -> float:
    """Great-circle distance arccos(<p, q>) in [0, pi], a one-row call of
    :func:`pairwise_geodesic`."""
    return float(pairwise_geodesic(p.coords[None], q.coords[None])[0, 0])


def frechet_mean(X, weights=None, tol: float = 1e-10, max_iter: int = 200) -> Point:
    """Weighted Frechet (Karcher) mean of the rows of X (n x D).

    Rows are normalized to the sphere first.  Starting from the normalized
    Euclidean mean, iterates m <- exp_m(sum_i w_i log_m(x_i)) until the
    tangent update norm drops below ``tol``.  Uniqueness is only guaranteed
    when the points lie in an open geodesic ball of radius < pi/2 around
    the initializer; this is not checked.

    Raises
    ------
    NoConvergence
        After ``max_iter`` iterations without meeting ``tol``.
    AntipodalPoint
        If an iterate becomes antipodal to a data point.
    """
    if len(X) == 0:
        raise ValueError("frechet_mean needs at least one point")
    X = _unit_rows(X)
    n = X.shape[0]
    if weights is None:
        w = np.full(n, 1.0 / n)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (n,) or np.any(w < -1e-12):
            raise ValueError("weights must be a nonnegative vector matching the points")
        s = float(w.sum())
        if s <= 0:
            raise ValueError("weights must not sum to zero")
        w = np.clip(w, 0.0, None) / s
    m = w @ X
    n0 = float(np.linalg.norm(m))
    if n0 < 1e-12:
        raise ValueError("weighted Euclidean mean is zero; no stable initialization")
    m = m / n0
    for _ in range(max_iter):
        t = w @ log_batch(m, X)
        if float(np.linalg.norm(t)) < tol:
            return Point(m)
        m = exp_batch(m, t[None])[0]
    raise NoConvergence(f"Frechet mean did not converge in {max_iter} iterations")


def transport_frame(frame: MovingFrame, m: np.ndarray) -> np.ndarray:
    """The basis of F(m), the frame parallel-transported to the unit vector
    m, as a read-only d x D array.

    Transport is an isometry, so the rows are again orthonormal and tangent,
    now at m; they are checked and projected as :class:`MovingFrame` checks
    its basis.  At the frame's own point the basis comes back as it is, since
    re-projecting its rows would move their last bits.
    """
    if np.array_equal(frame.p.coords, m):
        return frame.matrix
    return _tangent_basis(m, transport_batch(frame.matrix, frame.p.coords, m))


def standard_frame(D: int) -> MovingFrame:
    """The frame at p = e_1 with basis (e_2, ..., e_D)."""
    return MovingFrame(Point(np.eye(D)[0]), np.eye(D)[1:])


# ---------------------------------------------------------------------------
# Batch kernels over coordinate arrays.  Rows are points / tangent vectors;
# geodesic_distance is a one-row call of pairwise_geodesic.

def exp_batch(m: np.ndarray, V: np.ndarray) -> np.ndarray:
    """exp_m applied to each row of the tangent array V (n x D)."""
    theta = np.linalg.norm(V, axis=1, keepdims=True)
    small = theta[:, 0] < 1e-14
    safe = np.where(theta < 1e-14, 1.0, theta)
    X = np.cos(theta) * m + np.sin(theta) * (V / safe)
    X[small] = m
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def log_batch(m: np.ndarray, X: np.ndarray) -> np.ndarray:
    """log_m applied to each row of the point array X (n x D)."""
    c = np.clip(np.sum(X * m, axis=-1), -1.0, 1.0)
    if np.any(c <= -1.0 + ANTIPODE_TOL):
        raise AntipodalPoint("log map undefined at the antipode")
    theta = _angle_from_chords(c, _last_axis_norm(X - m), _last_axis_norm(X + m))
    U = X - c[:, None] * m
    un = _last_axis_norm(U)
    scale = np.where(un < 1e-14, 0.0, theta / np.where(un < 1e-14, 1.0, un))
    return scale[:, None] * U


def transport_batch(V: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Transport each row of V from T_p to T_q along the minimal geodesic."""
    if np.array_equal(p, q):
        return V.copy()
    c = float(np.clip(p @ q, -1.0, 1.0))
    if c <= -1.0 + ANTIPODE_TOL:
        raise AntipodalPoint("parallel transport undefined to the antipode")
    return V - np.outer((V @ q) / (1.0 + c), p + q)


# Output cells per row block of the pairwise kernels.
_BLOCK_CELLS = 2**14


def pairwise_geodesic(X: np.ndarray, Y: Optional[np.ndarray] = None) -> np.ndarray:
    """Geodesic distance matrix between rows of X and rows of Y (default X),
    filled in row blocks of about 2^14 cells, each bitwise what one n x m x D
    broadcast gives.  Without Y the upper half is computed and mirrored; the
    formula is exactly symmetric in its two arguments.  numpy adds fewer
    than 8 terms in order and more in 8 partial sums, so below D = 8 the
    coordinates lead, one whole-block pass each with the same bits, and
    from D = 8 on they stay the last axis, as in the broadcast."""
    mirror = Y is None
    Y = X if mirror else Y
    out = np.empty((len(X), len(Y)))
    s = max(1, _BLOCK_CELLS // max(1, len(Y)))
    lead = X.shape[1] < 8
    if lead:
        X = np.ascontiguousarray(X.T)
        Y = X if mirror else np.ascontiguousarray(Y.T)
    axis = 0 if lead else -1
    for i in range(0, out.shape[0], s):
        j = i if mirror else 0
        A, B = ((X[:, i:i + s, None], Y[:, None, j:]) if lead
                else (X[i:i + s, None, :], Y[None, j:, :]))
        dif, tot = A - B, A + B
        block = _angle_from_chords(np.sum(A * B, axis=axis), np.sqrt(np.sum(dif * dif, axis=axis)),
                                   np.sqrt(np.sum(tot * tot, axis=axis)))
        out[i:i + s, j:] = block
        if mirror:
            out[j:, i:i + s] = block.T
    return out


# ---------------------------------------------------------------------------
# Serialization: frame.json = {"p": [...], "basis": [[...], ...]}

def frame_to_dict(frame: MovingFrame) -> dict:
    return {"p": frame.p.coords.tolist(), "basis": frame.matrix.tolist()}


def frame_from_dict(data: dict) -> MovingFrame:
    return MovingFrame(Point(data["p"]), data["basis"])


def save_frame(path, frame: MovingFrame) -> None:
    write_json(path, frame_to_dict(frame))


def load_frame(path) -> MovingFrame:
    return frame_from_dict(read_json(path))


def frames_equal(a: MovingFrame, b: MovingFrame, tol: float = 1e-8) -> bool:
    """Whether two frames have the same point and basis within ``tol``."""
    return (
        a.dim == b.dim
        and a.p.dim == b.p.dim
        and np.max(np.abs(a.p.coords - b.p.coords)) <= tol
        and np.max(np.abs(a.matrix - b.matrix)) <= tol
    )
