"""Geometry of punctured unit spheres S^{D-1} in any ambient dimension.

Provides exponential/log maps, geodesic distance, parallel transport along
minimal geodesics, Frechet means, and moving frames: an orthonormal tangent
basis at a distinguished point, transported to arbitrary points to give a
consistent coordinate system on every tangent space.  Points and tangent
vectors are the rows of (n, D) arrays; a single point, such as a frame's
base point or a Frechet mean, is one unit (D,) vector.  All operations are
pure functions of immutable values and safe to share across threads.

Accuracy is only guaranteed away from the puncture: transports and logs to
points m with <p, m> <= -1 + 1e-10 raise :class:`AntipodalPoint`, and
conditioning degrades as <p, m> approaches -1 (we recommend staying above
-0.99).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ._jsonfile import read_json
from .errors import AntipodalPoint, NoConvergence

# <p,q> at or below -1 + ANTIPODE_TOL counts as the puncture.
ANTIPODE_TOL = 1e-10


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

    ``p`` is given in R^D and stored scaled to unit norm, read-only;
    ``matrix`` holds the d = D - 1 basis vectors at ``p`` as the rows of a
    read-only d x D array.  Its entries must be finite and each row must be
    tangent at ``p`` to 1e-10 (relative to its norm); the residual normal
    component is projected away, and the Gram matrix must be the identity to
    1e-10.  Transporting the basis to another point (see
    :func:`transport_frame`) yields the basis of the moving frame F(m) used
    to express tangent vectors and covariances in R^d coordinates.
    """

    __slots__ = ("p", "matrix")

    def __init__(self, p, basis):
        self.p = _unit_rows(np.asarray(p, dtype=float)[None])[0]
        self.p.setflags(write=False)
        self.matrix = _tangent_basis(self.p, basis)

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
    if not np.isfinite(B).all():
        raise ValueError("frame basis entries must be finite")
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
    particular bitwise-equal inputs give exactly zero.  Chords are norms, so
    only their upper end is clipped.
    """
    acute = 2.0 * np.arcsin(np.minimum(0.5 * chord, 1.0))
    obtuse = np.pi - 2.0 * np.arcsin(np.minimum(0.5 * cochord, 1.0))
    return np.where(c >= 0.0, acute, obtuse)


def _last_axis_norm(A: np.ndarray) -> np.ndarray:
    """sqrt of the row-wise sum of squares, via the same reduction whether
    the input is a single vector or a stack, so scalar and batched callers
    produce bitwise-identical values."""
    return np.sqrt(np.sum(A * A, axis=-1))


def frechet_mean(X, tol: float = 1e-10, max_iter: int = 200) -> np.ndarray:
    """Frechet (Karcher) mean of the rows of X (n x D), a unit (D,) vector.

    Rows are normalized to the sphere first.  Starting from the normalized
    Euclidean mean, iterates m <- exp_m(mean_i log_m(x_i)) until the
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
    w = np.full(X.shape[0], 1.0 / X.shape[0])
    m = w @ X
    n0 = float(np.linalg.norm(m))
    if n0 < 1e-12:
        raise ValueError("Euclidean mean is zero; no stable initialization")
    m = m / n0
    for _ in range(max_iter):
        t = w @ log_batch(m, X)
        if float(np.linalg.norm(t)) < tol:
            return _unit_rows(m[None])[0]
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
    if np.array_equal(frame.p, m):
        return frame.matrix
    return _tangent_basis(m, _transport_batch(frame.matrix, frame.p, m))


def standard_frame(D: int) -> MovingFrame:
    """The frame at p = e_1 with basis (e_2, ..., e_D)."""
    return MovingFrame(np.eye(D)[0], np.eye(D)[1:])


# ---------------------------------------------------------------------------
# Batch kernels over coordinate arrays.  Rows are points / tangent vectors.

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


def _transport_batch(V: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Transport each row of V from T_p to T_q along the minimal geodesic."""
    if np.array_equal(p, q):
        return V.copy()
    c = float(np.clip(p @ q, -1.0, 1.0))
    if c <= -1.0 + ANTIPODE_TOL:
        raise AntipodalPoint("parallel transport undefined to the antipode")
    return V - np.outer((V @ q) / (1.0 + c), p + q)


# Output cells per row block of the pairwise kernels.
_BLOCK_CELLS = 2**14


def _layout(X: np.ndarray):
    """X laid out for the kernels' sums, and their axis: numpy adds under 8
    terms in order and more in 8 partial sums, so the broadcast's bits come
    with the coordinates leading below D = 8 and last from D = 8 on."""
    return (np.ascontiguousarray(X.T), 0) if X.shape[1] < 8 else (X, -1)


def _geodesic_cells(A: np.ndarray, B: np.ndarray, axis: int) -> np.ndarray:
    """Distances between the unit vectors of A and B, broadcast, with their
    coordinates along ``axis``; the formula is exactly symmetric in A and B."""
    dif, tot = A - B, A + B
    add = np.add.reduce  # np.sum's own reduction, without its wrapper
    return _angle_from_chords(add(A * B, axis=axis), np.sqrt(add(dif * dif, axis=axis)),
                              np.sqrt(add(tot * tot, axis=axis)))


def pairwise_geodesic(X: np.ndarray, Y: Optional[np.ndarray] = None) -> np.ndarray:
    """Geodesic distance matrix between rows of X and rows of Y (default X),
    filled in row blocks of about 2^14 cells, each bitwise what one n x m x D
    broadcast gives.  Without Y the upper half is computed and mirrored."""
    mirror = Y is None
    out = np.empty((len(X), len(X if mirror else Y)))
    s = max(1, _BLOCK_CELLS // max(1, out.shape[1]))
    X, axis = _layout(X)
    Y = X if mirror else _layout(Y)[0]
    for i in range(0, out.shape[0], s):
        j = i if mirror else 0
        A, B = ((X[:, i:i + s, None], Y[:, None, j:]) if axis == 0
                else (X[i:i + s, None, :], Y[None, j:, :]))
        block = _geodesic_cells(A, B, axis)
        out[i:i + s, j:] = block
        if mirror:
            out[j:, i:i + s] = block.T
    return out


def _pair_geodesic(X: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``pairwise_geodesic(X)[a, b]``, bit for bit, with no matrix."""
    A, axis = _layout(X[a])
    return _geodesic_cells(A, _layout(X[b])[0], axis)


# ---------------------------------------------------------------------------
# Serialization: frame.json = {"p": [...], "basis": [[...], ...]}

def frame_to_dict(frame: MovingFrame) -> dict:
    return {"p": frame.p.tolist(), "basis": frame.matrix.tolist()}


def _json_floats(value, field) -> np.ndarray:
    """``value``, numbers read from JSON, as a float array.  Python's json
    reads ``true`` and ``false`` as bools, which numpy takes for 1 and 0, so
    the rows that hold a 0 or a 1 are checked: a bool raises ValueError
    naming ``field``."""
    A = np.asarray(value, dtype=float)
    if A.ndim <= 2:
        rows = value if A.ndim == 2 else [value] if A.ndim == 1 else [[value]]
        hits = np.atleast_2d((A == 0.0) | (A == 1.0)).any(axis=1)
        if any(bool in set(map(type, rows[i])) for i in np.flatnonzero(hits)):
            raise ValueError(f"'{field}' must hold numbers, not booleans")
    return A


def frame_from_dict(data: dict, frames: Optional[dict] = None) -> MovingFrame:
    """The frame of a frame.json dict.  ``frames``, a dict kept between calls,
    holds the previous frame under the bits of its arrays: the same bits get it."""
    p, basis = _json_floats(data["p"], "p"), _json_floats(data["basis"], "basis")
    if frames is None:
        return MovingFrame(p, basis)
    key = (p.shape, basis.shape, p.tobytes(), basis.tobytes())
    if key not in frames:
        frames.clear()
        frames[key] = MovingFrame(p, basis)
    return frames[key]


def load_frame(path) -> MovingFrame:
    return frame_from_dict(read_json(path))


def frames_equal(a: MovingFrame, b: MovingFrame, tol: float = 1e-8) -> bool:
    """Whether two frames have the same point and basis within ``tol``."""
    return (
        a.matrix.shape == b.matrix.shape
        and np.max(np.abs(a.p - b.p)) <= tol
        and np.max(np.abs(a.matrix - b.matrix)) <= tol
    )
