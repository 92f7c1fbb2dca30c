"""SRVF shape analysis of closed planar contours.

A contour is resampled uniformly by arc length, differentiated cyclically,
and mapped to its square-root velocity function q = b' / sqrt(|b'|), which
after unit normalization lives on the sphere S^{2T-1}.  Translation
disappears with the derivative and scale with the normalization, so only
rotation and the choice of starting point (seam) remain.  One kernel aligns
an (n, 2, T) stack of SRVFs to a reference shape: rotation in closed form,
and optionally the seam, scoring all T circular shifts at once.

The shape distance is the geodesic distance between the unit rows of SRVFs
aligned to each other.  A stack aligned to one reference has the Frechet
mean of its rows as its mean, and its covariance is fitted from shooting
vectors in the standard frame at e_1.
A ``Contour`` holds one curve's samples; shapes are 2 x T arrays.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ._csvfile import read_table, write_table
from ._jsonfile import read_json
from .errors import ClusterTooSmall, DegenerateContour, DimensionMismatch
from .geometry import _BLOCK_CELLS, MovingFrame, log_batch, standard_frame, transport_frame


class Contour:
    """Ordered boundary samples of a closed planar curve, one point per column.

    The closing edge from the last column back to the first is implicit; an
    exactly repeated first point is dropped.  At least four distinct
    positions are required.
    """

    __slots__ = ("points",)

    def __init__(self, points):
        P = np.asarray(points, dtype=float)
        if P.ndim != 2 or P.shape[0] != 2:
            raise ValueError("contour points must form a 2 x T matrix")
        if not np.all(np.isfinite(P)):
            raise ValueError("contour points must be finite")
        if P.shape[1] >= 2 and np.array_equal(P[:, 0], P[:, -1]):
            P = P[:, :-1]
        if P.shape[1] < 4:
            raise ValueError("a contour needs at least 4 boundary points")
        self.points = P


def _resample_closed(P: np.ndarray, T: int) -> np.ndarray:
    """Uniform arc-length resampling of a closed polygon to T points."""
    closed = np.concatenate([P, P[:, :1]], axis=1)
    d = closed[:, 1:] - closed[:, :-1]
    seg = np.sqrt(d[0] * d[0] + d[1] * d[1])  # the edge norms, summed as np.linalg.norm does
    keep = seg > 0.0
    if not keep.any():
        raise DegenerateContour("contour has zero total length")
    # merge zero-length edges so interpolation breakpoints stay increasing
    verts = np.concatenate([closed[:, :-1][:, keep], closed[:, -1:]], axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg[keep])])
    s = np.arange(T) * (cum[-1] / T)
    return np.array([np.interp(s, cum, verts[0]), np.interp(s, cum, verts[1])])


def contour_to_srvf(contours, T: int = 100) -> np.ndarray:
    """(n, 2, T) unit SRVFs of contours after arc-length resampling to ``T``
    points; only the resampling runs per contour.

    Derivatives are cyclic central differences; samples with vanishing
    speed contribute zero columns.

    Raises
    ------
    DegenerateContour
        If a contour has zero length (all points coincident).
    """
    if T < 4:
        raise ValueError("T must be at least 4")
    B = np.array([_resample_closed(c.points, T) for c in contours])
    deriv = 0.5 * (np.roll(B, -1, axis=2) - np.roll(B, 1, axis=2))
    speed = np.linalg.norm(deriv, axis=1, keepdims=True)
    scale = np.where(speed < 1e-12, 0.0, 1.0 / np.sqrt(np.where(speed < 1e-12, 1.0, speed)))
    q = (deriv * scale).reshape(len(B), -1)
    # a per-row dot product gives the bits np.linalg.norm gives one row
    norms = np.sqrt(np.vecdot(q, q))
    if np.any(norms < 1e-12):
        raise DegenerateContour("SRVF vanished; contour is degenerate")
    return (q / norms[:, None]).reshape(B.shape)


def _stack(shapes) -> np.ndarray:
    """The (n, 2, T) float array of a non-empty stack of unit 2 x T SRVFs."""
    if len({np.shape(q) for q in shapes}) > 1:
        raise DimensionMismatch("shapes have different sample counts")
    Q = np.asarray(shapes, dtype=float)
    if Q.ndim != 3 or Q.shape[1] != 2 or len(Q) == 0:
        raise ValueError("SRVF samples must form 2 x T matrices")
    if np.any(np.abs(np.linalg.norm(Q, axis=(1, 2)) - 1.0) > 1e-10):
        raise ValueError("SRVF must have unit Frobenius norm")
    return Q


def align_shape(ref: np.ndarray, Q: np.ndarray,
                seam_search: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the (n, 2, T) stack Q aligned to the 2 x T ``ref``, and
    their (n, 2, 2) rotations.

    A row's rotation angle is atan2 of its net cross and dot products with
    ``ref``.  With seam search all T circular shifts are scored at once by
    the length of that (dot, cross) pair; a later shift wins only by more
    than 1e-12, so earlier seams win roundoff-level ties and self-alignment
    stays exact.  Blocks hold about ``_BLOCK_CELLS`` (shape, shift) pairs.
    """
    if Q.shape[1:] != ref.shape:
        raise DimensionMismatch("SRVFs have different sample counts")
    n, _, T = Q.shape
    shifts = T if seam_search else 1
    # row s gathers the samples of np.roll(q, s, axis=1), both coordinates
    idx = (np.arange(T) - np.arange(shifts)[:, None]) % T
    idx = np.concatenate([idx, idx + T], axis=1)
    aligned, rotations = np.empty_like(Q), np.empty((n, 2, 2))
    step = max(1, _BLOCK_CELLS // shifts)
    for i in range(0, n, step):
        # np.take keeps the products C-contiguous, so each sum runs along
        # its row in the order np.sum of one 2 x T product uses
        rolled = np.take(Q[i:i + step].reshape(-1, 2 * T), idx, axis=1)
        dot = (rolled * ref.ravel()).sum(-1)
        S = rolled.reshape(len(rolled), shifts, 2, T)
        cross = (ref[1] * S[:, :, 0] - ref[0] * S[:, :, 1]).sum(-1)
        val = np.hypot(dot, cross)
        best, pick = np.full(len(rolled), -np.inf), np.zeros(len(rolled), dtype=int)
        for shift in range(shifts):
            wins = val[:, shift] > best + 1e-12
            best[wins], pick[wins] = val[wins, shift], shift
        rows = np.arange(len(rolled))
        theta = np.arctan2(cross[rows, pick], dot[rows, pick])
        c, s = np.cos(theta), np.sin(theta)
        O = np.stack([c, -s, s, c], axis=-1).reshape(-1, 2, 2)
        aligned[i:i + step] = O @ S[rows, pick]
        rotations[i:i + step] = O
    return aligned, rotations


def shape_statistics(
    aligned,
    mean: np.ndarray,
    frame: MovingFrame = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Shooting-vector coordinates and covariance of an (n, 2, T) stack.

    Logs of the aligned shapes at the 2 x T unit ``mean`` are expressed in
    ``frame`` transported to the mean (default: the standard frame at e_1 on
    S^{2T-1}); the covariance is their Gram matrix with the n-1 divisor,
    a d x d array checked when it enters a mixture.  Its rank is at most
    n-1.
    """
    X = _stack(aligned)
    if len(X) < 2:
        raise ClusterTooSmall("need at least two shapes for a covariance")
    M = _stack([mean]).reshape(1, -1)
    if frame is None:
        frame = standard_frame(M.shape[1])
    m = M[0]  # unit within 1e-10; normalizing it again would move its last bits
    V = log_batch(m, X.reshape(len(X), -1)) @ transport_frame(frame, m).T
    return V, V.T @ V / (len(X) - 1)


# ---------------------------------------------------------------------------
# Contour files.  A .csv holds one contour (rows x,y per boundary point); a
# .json holds a list of 2 x T' arrays, one file per observation window.

def load_contour_file(path) -> list[Contour]:
    """The contours of one frame file; a file without any raises ValueError."""
    path = Path(path)
    arrays = read_json(path) if path.suffix == ".json" else [read_table(path)[1].T]
    if len(arrays) == 0:
        raise ValueError(f"no contour in {path}")
    return [Contour(np.asarray(a, dtype=float)) for a in arrays]


def load_contour_dir(path) -> dict[str, list[Contour]]:
    """All contour files of a directory, keyed by file stem, sorted by name."""
    path = Path(path)
    out: dict[str, list[Contour]] = {}
    for f in sorted(path.iterdir()):
        if f.suffix in (".csv", ".json"):
            out[f.stem] = load_contour_file(f)
    if not out:
        raise ValueError(f"no contour files found in {path}")
    return out


def save_distmat(path, D: np.ndarray, names=None) -> None:
    """distmat.csv: optional name header column plus the matrix rows."""
    header = None if names is None else "," + ",".join(str(n) for n in names)
    write_table(path, D, header, names)


def load_distmat(path) -> tuple[np.ndarray, list[str]]:
    header, D = read_table(path)
    return D, header[1:] if header and header[0] == "" else []
