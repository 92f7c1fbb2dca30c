"""SRVF shape analysis of closed planar contours.

A contour is resampled uniformly by arc length, differentiated cyclically,
and mapped to its square-root velocity function q = b' / sqrt(|b'|), which
after unit normalization lives on the sphere S^{2T-1}.  Translation
disappears with the derivative and scale with the normalization, so only
rotation and the choice of starting point (seam) remain; rotation is
removed with a closed-form Procrustes alignment, the seam optionally by
exhaustive search over all T circular shifts.

Shape distance is the arc length between aligned SRVFs on the sphere.
Means and covariances reuse the sphere machinery: the mean is a Frechet
mean of aligned shapes, covariances are fitted from shooting vectors in
the standard frame at e_1.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ._jsonfile import read_json, write_json
from .errors import ClusterTooSmall, DegenerateContour, DimensionMismatch, NoConvergence
from .geometry import (
    MovingFrame,
    Point,
    _unit_rows,
    frechet_mean,
    geodesic_distance,
    log_batch,
    standard_frame,
    transported_basis,
)


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

    @property
    def T(self) -> int:
        return self.points.shape[1]


class SrvfShape:
    """Discrete SRVF of a closed contour: a 2 x T matrix of unit Frobenius norm."""

    __slots__ = ("q",)

    def __init__(self, q):
        q = np.asarray(q, dtype=float)
        if q.ndim != 2 or q.shape[0] != 2:
            raise ValueError("SRVF samples must form a 2 x T matrix")
        if abs(np.linalg.norm(q) - 1.0) > 1e-10:
            raise ValueError("SRVF must have unit Frobenius norm")
        self.q = q

    @property
    def T(self) -> int:
        return self.q.shape[1]

    @property
    def flat(self) -> np.ndarray:
        """The shape as a unit vector in R^{2T}."""
        return self.q.ravel()


def _resample_closed(P: np.ndarray, T: int) -> np.ndarray:
    """Uniform arc-length resampling of a closed polygon to T points."""
    closed = np.column_stack([P, P[:, 0]])
    seg = np.linalg.norm(np.diff(closed, axis=1), axis=0)
    keep = seg > 0.0
    if not np.any(keep):
        raise DegenerateContour("contour has zero total length")
    # merge zero-length edges so interpolation breakpoints stay increasing
    verts = np.column_stack([closed[:, :-1][:, keep], closed[:, -1]])
    cum = np.concatenate([[0.0], np.cumsum(seg[keep])])
    total = cum[-1]
    s = np.arange(T) * (total / T)
    x = np.interp(s, cum, verts[0])
    y = np.interp(s, cum, verts[1])
    return np.vstack([x, y])


def contour_to_srvf(c: Contour, T: int = 100) -> SrvfShape:
    """SRVF of a contour after arc-length resampling to ``T`` points.

    Derivatives are cyclic central differences; samples with vanishing
    speed contribute zero columns.

    Raises
    ------
    DegenerateContour
        If the contour has zero length (all points coincident).
    """
    if T < 4:
        raise ValueError("T must be at least 4")
    B = _resample_closed(c.points, T)
    deriv = 0.5 * (np.roll(B, -1, axis=1) - np.roll(B, 1, axis=1))
    speed = np.linalg.norm(deriv, axis=0)
    scale = np.where(speed < 1e-12, 0.0, 1.0 / np.sqrt(np.where(speed < 1e-12, 1.0, speed)))
    q = deriv * scale
    norm = np.linalg.norm(q)
    if norm < 1e-12:
        raise DegenerateContour("SRVF vanished; contour is degenerate")
    return SrvfShape(q / norm)


def procrustes_rotation(q0: SrvfShape, q1: SrvfShape) -> np.ndarray:
    """The planar rotation O* minimizing ||q0 - O q1||_F, as a 2x2 matrix.

    Closed form: the optimal angle is atan2 of the net cross and dot
    products of corresponding columns.
    """
    if q0.T != q1.T:
        raise DimensionMismatch("SRVFs have different sample counts")
    a, b = q0.q, q1.q
    dot = float(np.sum(a * b))
    cross = float(np.sum(a[1] * b[0] - a[0] * b[1]))
    theta = np.arctan2(cross, dot)
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _aligned_inner(q0: SrvfShape, q1: SrvfShape) -> tuple[float, int, np.ndarray]:
    """Best Frobenius inner product of q1 against q0 over rotations only."""
    O = procrustes_rotation(q0, q1)
    return float(np.sum(q0.q * (O @ q1.q))), 0, O


def _aligned_inner_seam(q0: SrvfShape, q1: SrvfShape) -> tuple[float, int, np.ndarray]:
    """Best inner product over all circular shifts of q1 plus rotation."""
    a = q0.q
    best = (-np.inf, 0, np.eye(2))
    for shift in range(q1.T):
        b = np.roll(q1.q, shift, axis=1)
        dot = float(np.sum(a * b))
        cross = float(np.sum(a[1] * b[0] - a[0] * b[1]))
        val = float(np.hypot(dot, cross))
        # earlier seams win roundoff-level ties, keeping self-alignment exact
        if val > best[0] + 1e-12:
            theta = np.arctan2(cross, dot)
            c, s = np.cos(theta), np.sin(theta)
            best = (val, shift, np.array([[c, -s], [s, c]]))
    return best


def align_shape(q0: SrvfShape, q1: SrvfShape, seam_search: bool = True) -> SrvfShape:
    """q1 rotated (and optionally re-seamed) to best match q0."""
    _, shift, O = (_aligned_inner_seam if seam_search else _aligned_inner)(q0, q1)
    return SrvfShape(O @ np.roll(q1.q, shift, axis=1))


def shape_distance(q0: SrvfShape, q1: SrvfShape, seam_search: bool = True) -> float:
    """Geodesic shape distance in [0, pi] after rotation (and seam) alignment."""
    aligned = align_shape(q0, q1, seam_search=seam_search)
    return geodesic_distance(Point(q0.flat), Point(aligned.flat))


def pairwise_shape_distance(shapes, seam_search: bool = True) -> np.ndarray:
    """Symmetric matrix of shape distances with an exactly zero diagonal."""
    n = len(shapes)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            D[i, j] = D[j, i] = shape_distance(shapes[i], shapes[j], seam_search)
    return D


def shape_frechet_mean(
    shapes,
    tol: float = 1e-9,
    max_iter: int = 100,
    seam_search: bool = False,
) -> tuple[SrvfShape, list[SrvfShape]]:
    """Frechet mean of shapes with alternating alignment.

    Each round aligns every shape to the current mean, then moves the mean
    to the Frechet mean of the aligned unit vectors on S^{2T-1}.  Stops
    when the mean moves less than ``tol``.  Seam search inside the mean is
    off by default: re-seaming mid-iteration makes the objective piecewise
    and rarely changes well-sampled contours.

    Returns the mean and the aligned copies of the inputs.
    """
    if len(shapes) == 0:
        raise ValueError("need at least one shape")
    T = shapes[0].T
    for s in shapes:
        if s.T != T:
            raise DimensionMismatch("shapes have different sample counts")
    mean = shapes[0]
    aligned = list(shapes)
    for _ in range(max_iter):
        aligned = [align_shape(mean, s, seam_search=seam_search) for s in shapes]
        new_flat = frechet_mean(np.array([s.flat for s in aligned]), tol=min(tol, 1e-10))
        moved = geodesic_distance(Point(mean.flat), new_flat)
        mean = SrvfShape(new_flat.coords.reshape(2, T))
        if moved < tol:
            return mean, aligned
    raise NoConvergence(f"shape mean did not stabilize in {max_iter} rounds")


def shape_statistics(
    aligned,
    mean: SrvfShape,
    frame: MovingFrame = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Shooting-vector coordinates and covariance of aligned shapes.

    Logs of the aligned shapes at the mean are expressed in ``frame``
    transported to the mean (default: the standard frame at e_1 on
    S^{2T-1}); the covariance is their Gram matrix with the n-1 divisor,
    a d x d array checked when it enters a mixture.  Its rank is at most
    n-1.
    """
    if len(aligned) < 2:
        raise ClusterTooSmall("need at least two shapes for a covariance")
    T = mean.T
    if frame is None:
        frame = standard_frame(2 * T)
    m = _unit_rows(mean.flat[None])[0]
    X = np.array([s.flat for s in aligned])
    V = log_batch(m, X) @ transported_basis(frame, m).T
    return V, V.T @ V / (len(aligned) - 1)


# ---------------------------------------------------------------------------
# Contour files.  A .csv holds one contour (rows x,y per boundary point); a
# .json holds a list of 2 x T' arrays, one file per observation window.

def load_contour_file(path) -> list[Contour]:
    path = Path(path)
    if path.suffix == ".json":
        return [Contour(np.asarray(arr, dtype=float)) for arr in read_json(path)]
    rows = np.loadtxt(path, delimiter=",", skiprows=_csv_header_rows(path), ndmin=2)
    return [Contour(rows.T)]


def _csv_header_rows(path) -> int:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
    try:
        [float(v) for v in first.strip().split(",")]
        return 0
    except ValueError:
        return 1


def save_contours_json(path, contours) -> None:
    write_json(path, [c.points.tolist() for c in contours])


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
    D = np.asarray(D, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        if names is not None:
            fh.write("," + ",".join(str(n) for n in names) + "\n")
        for i, row in enumerate(D):
            prefix = f"{names[i]}," if names is not None else ""
            fh.write(prefix + ",".join(f"{v:.17g}" for v in row) + "\n")


def load_distmat(path) -> tuple[np.ndarray, list[str]]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    names: list[str] = []
    rows = []
    start = 0
    if lines and lines[0].startswith(","):
        names = lines[0].split(",")[1:]
        start = 1
    for ln in lines[start:]:
        parts = ln.split(",")
        if names:
            parts = parts[1:]
        rows.append([float(v) for v in parts])
    return np.array(rows), names
