"""Geometry of punctured unit spheres S^{D-1} in any ambient dimension.

Provides exponential/log maps, geodesic distance, parallel transport along
minimal geodesics, Frechet means, and moving frames: an orthonormal tangent
basis at a distinguished point, transported to arbitrary points to give a
consistent coordinate system on every tangent space.  All operations are
pure functions of immutable values and safe to share across threads.

Accuracy is only guaranteed away from the puncture: transports and logs to
points m with <p, m> <= -1 + 1e-10 raise :class:`AntipodalPoint`, and
conditioning degrades as <p, m> approaches -1 (we recommend staying above
-0.99).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ._jsonfile import read_json, write_json
from .errors import AntipodalPoint, DegenerateFrame, NoConvergence

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

    Rejects non-finite and zero rows.  Row norms come from a per-row dot
    product, so one row gives the same bits alone or in a stack.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] < 2:
        raise ValueError("point coordinates must be vectors in R^D, D >= 2")
    if not np.isfinite(X).all():
        raise ValueError("point coordinates must be finite")
    norms = np.sqrt(np.vecdot(X, X))[:, None]
    if (norms < 1e-12).any():
        raise ValueError("cannot normalize a zero vector to the sphere")
    return X / norms


class TangentVector:
    """A vector in the tangent space of the sphere at ``base``.

    The component along ``base`` must vanish to 1e-10 (relative to the
    vector norm); the residual normal component is projected away exactly.
    """

    __slots__ = ("base", "vec")

    def __init__(self, base: Point, vec):
        v = np.asarray(vec, dtype=float)
        if v.shape != base.coords.shape:
            raise ValueError("tangent vector and base point dimensions differ")
        dot = float(v @ base.coords)
        if abs(dot) > 1e-10 * max(1.0, float(np.linalg.norm(v))):
            raise ValueError("vector is not tangent at the base point")
        self.base = base
        self.vec = v - dot * base.coords

    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))

    def __repr__(self) -> str:
        return f"TangentVector(base={self.base!r}, vec={np.array2string(self.vec, precision=6)})"


class MovingFrame:
    """A distinguished point with a full orthonormal tangent basis.

    ``matrix`` holds the d = D - 1 basis vectors at ``p`` as the rows of a
    read-only d x D array.  Each row must be tangent at ``p`` to 1e-10
    (relative to its norm), and its residual normal component is projected
    away; the Gram matrix must be the identity to 1e-10.  Transporting the
    basis to another point (see :func:`transport_frame`) yields the moving
    frame F(m) used to express tangent vectors and covariances in R^d
    coordinates.
    """

    __slots__ = ("p", "matrix")

    def __init__(self, p: Point, basis):
        B = np.array(basis, dtype=float)
        d = p.dim - 1
        if B.shape != (d, p.dim):
            raise ValueError(f"frame basis must be {d} x {p.dim}, got shape {B.shape}")
        normal = np.vecdot(B, p.coords)
        if np.any(np.abs(normal) > 1e-10 * np.maximum(1.0, _last_axis_norm(B))):
            raise ValueError("frame basis vectors must be tangent at the frame point")
        B -= np.outer(normal, p.coords)
        if np.max(np.abs(B @ B.T - np.eye(d))) > 1e-10:
            raise ValueError("frame basis is not orthonormal")
        B.setflags(write=False)
        self.p = p
        self.matrix = B

    @property
    def dim(self) -> int:
        """Fiber dimension d = D - 1."""
        return self.matrix.shape[0]


def sphere_exp(p: Point, v: TangentVector) -> Point:
    """Exponential map: follow the geodesic from ``p`` with velocity ``v``."""
    if v.base.dim != p.dim or np.max(np.abs(v.base.coords - p.coords)) > 1e-12:
        raise ValueError("tangent vector is not based at p")
    return Point(exp_batch(p.coords, v.vec[None])[0])


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


def sphere_log(p: Point, q: Point) -> TangentVector:
    """Inverse of :func:`sphere_exp`: the initial velocity of the minimal
    geodesic from ``p`` to ``q``.

    Raises
    ------
    AntipodalPoint
        If ``q`` is within tolerance of the antipode of ``p``, where the
        log map is undefined.
    """
    return TangentVector(p, log_batch(p.coords, q.coords[None])[0])


def _last_axis_norm(A: np.ndarray) -> np.ndarray:
    """sqrt of the row-wise sum of squares, via the same reduction whether
    the input is a single vector or a stack, so scalar and batched callers
    produce bitwise-identical values."""
    return np.sqrt(np.sum(A * A, axis=-1))


def geodesic_distance(p: Point, q: Point) -> float:
    """Great-circle distance arccos(<p, q>) in [0, pi]."""
    c = float(np.sum(p.coords * q.coords))
    chord = float(_last_axis_norm(p.coords - q.coords))
    cochord = float(_last_axis_norm(p.coords + q.coords))
    return float(_angle_from_chords(c, chord, cochord))


def parallel_transport(v: TangentVector, q: Point) -> TangentVector:
    """Transport ``v`` along the minimal geodesic from its base point to ``q``.

    The component along the geodesic rotates within the geodesic plane; the
    orthogonal component is unchanged.  Transport is a linear isometry.
    Transport to the base point itself returns ``v`` unchanged.
    """
    if np.array_equal(v.base.coords, q.coords):
        return v
    return TangentVector(q, transport_batch(v.vec[None], v.base.coords, q.coords)[0])


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


def build_reference_frame(p: Point, rng_seed: int = 0, basis=None) -> MovingFrame:
    """Construct an orthonormal tangent frame at ``p``.

    With ``basis`` given (a d x D array-like), that basis is validated and
    used directly.  Otherwise d = D - 1 random ambient directions are
    projected to the tangent space and orthonormalized by PCA (eigenvectors
    of their Gram operator), deterministically for a given ``rng_seed``.
    Eigenvector signs follow the first-nonzero-entry-positive convention.

    Raises
    ------
    DegenerateFrame
        If ten consecutive random draws are rank-deficient.
    """
    if basis is not None:
        return MovingFrame(p, basis)
    D = p.dim
    d = D - 1
    rng = np.random.default_rng(rng_seed)
    for _ in range(10):
        W = rng.standard_normal((d, D))
        W -= np.outer(W @ p.coords, p.coords)
        cov = W.T @ W
        evals, evecs = np.linalg.eigh(cov)
        order = np.argsort(evals)[::-1][:d]
        lam = evals[order]
        if lam[-1] <= 1e-10 * max(lam[0], 1e-30):
            continue
        B = evecs[:, order].T
        # eigenvectors of the projected Gram operator are tangent up to
        # rounding; re-project and fix the sign convention
        B -= np.outer(B @ p.coords, p.coords)
        B /= np.linalg.norm(B, axis=1, keepdims=True)
        for row in B:
            nz = np.flatnonzero(np.abs(row) > 1e-9)
            if nz.size and row[nz[0]] < 0:
                row *= -1.0
        return MovingFrame(p, B)
    raise DegenerateFrame("random tangent vectors were rank-deficient ten times")


def transport_frame(frame: MovingFrame, m: Point) -> MovingFrame:
    """Parallel-transport the frame basis to ``m``, giving F(m).

    Transport is an isometry, so the result is again a valid orthonormal
    frame, now based at ``m``.  Transport to the frame's own point returns
    the frame itself, since re-projecting its rows would move their last bits.
    """
    if np.array_equal(frame.p.coords, m.coords):
        return frame
    return MovingFrame(m, transport_batch(frame.matrix, frame.p.coords, m.coords))


def tangent_coordinates(frame: MovingFrame, v: TangentVector) -> np.ndarray:
    """Coordinates (<v, f_j>)_j of ``v`` in the frame based at the same point."""
    if np.max(np.abs(frame.p.coords - v.base.coords)) > 1e-12:
        raise ValueError("tangent vector and frame are based at different points")
    return frame.matrix @ v.vec


def tangent_from_coordinates(frame: MovingFrame, c) -> TangentVector:
    """Inverse of :func:`tangent_coordinates`: rebuild sum_j c_j f_j."""
    c = np.asarray(c, dtype=float)
    if c.shape != (frame.dim,):
        raise ValueError(f"expected {frame.dim} coordinates, got shape {c.shape}")
    return TangentVector(frame.p, c @ frame.matrix)


def standard_frame(D: int) -> MovingFrame:
    """The frame at p = e_1 with basis (e_2, ..., e_D)."""
    return MovingFrame(Point(np.eye(D)[0]), np.eye(D)[1:])


# ---------------------------------------------------------------------------
# Batch kernels over coordinate arrays.  Rows are points / tangent vectors;
# sphere_exp, sphere_log and parallel_transport are one-row calls of these.

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


def pairwise_geodesic(X: np.ndarray, Y: Optional[np.ndarray] = None) -> np.ndarray:
    """Geodesic distance matrix between rows of X and rows of Y (default X)."""
    if Y is None:
        Y = X
    c = np.sum(X[:, None, :] * Y[None, :, :], axis=-1)
    chord = _last_axis_norm(X[:, None, :] - Y[None, :, :])
    cochord = _last_axis_norm(X[:, None, :] + Y[None, :, :])
    return _angle_from_chords(c, chord, cochord)


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
