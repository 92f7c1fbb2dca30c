"""Kendall shape space of planar triangles, identified with the 2-sphere.

A triangle is viewed as three complex numbers; quotienting translation and
scale gives a preshape on the complex 2-sphere, and quotienting planar
rotation (the Hopf fiber) lands on the ordinary 2-sphere.  The forward map
uses z1 and z2 only, legitimately: centering makes z3 redundant.

With z1 = x11 + i x12 and z2 = x21 + i x22 the forward map is

    y1 + i y2 = 2 z1 conj(z2),    y3 = |z2|^2 - |z1|^2,

followed by colatitude theta = arccos(y3 / r) and longitude
phi = atan2(y2, y1).  One checks directly that composing with the backward
parameterization z1 = sin(theta/2) e^{i(psi+phi)/2},
z2 = cos(theta/2) e^{i(psi-phi)/2} recovers (theta, phi) for every psi,
and that multiplying z by a unit complex number (a planar rotation of the
triangle) leaves y unchanged.

Triangles travel as (n, 3, 2) vertex arrays.  ``triangle_preshape`` maps
them to (n, 3) complex preshapes, ``hopf_forward`` maps those to (n, 3)
sphere rows, and ``hopf_backward`` maps n angle triples back to vertices.
Each row keeps the bits it gets alone: 2 z1 conj(z2) is written in reals, as
numpy's vectorized complex product fuses multiply and add, and the moduli
use ``hypot`` and ``float_power(h, 2.0)``, the functions behind the scalar
``abs(z)`` and ``h ** 2``.  A batch raises the error of its first row that
fails a check.
"""

from __future__ import annotations

import numpy as np

from ._csvfile import read_table, write_table
from .errors import DegenerateTriangle
from .geometry import _unit_rows

SPHERE_HEADER = "theta,phi,x,y,z"


def _raise_first(*checks) -> None:
    """Raise the error of the first row that fails a check; ``checks`` are
    (bad rows, error) pairs in the order one row is checked."""
    bad = np.array([rows for rows, _ in checks])
    if bad.any():
        raise checks[np.argmax(bad[:, np.argmax(bad.any(axis=0))])][1]


def _norms(Z) -> np.ndarray:
    """Row norms, summed as ``np.linalg.norm`` sums one complex vector."""
    return np.sqrt(np.vecdot(Z.real, Z.real) + np.vecdot(Z.imag, Z.imag))


def _not_preshape(Z) -> np.ndarray:
    s = Z.sum(axis=1)
    return (np.hypot(s.real, s.imag) > 1e-10) | (np.abs(_norms(Z) - 1.0) > 1e-10)


@np.errstate(over="ignore", invalid="ignore")
def triangle_preshape(V) -> np.ndarray:
    """The (n, 3) complex preshapes of (n, 3, 2) vertices; rows that overflow
    fail its checks without a numpy warning."""
    z = V[..., 0] + 1j * V[..., 1]
    z = z - z.mean(axis=1, keepdims=True)
    norm = _norms(z)
    Z = z / np.where(norm < 1e-12, 1.0, norm)[:, None]
    _raise_first(
        (norm < 1e-12, DegenerateTriangle("all vertices coincide")),
        (_not_preshape(Z), ValueError("preshape must be centered with unit norm")),
    )
    return Z


def _hopf_rows(Z) -> np.ndarray:
    """2 z1 conj(z2), |z2|^2 - |z1|^2 of each preshape row, over its norm."""
    # 2 z1 stays complex: its products are exact and keep the scalar signed zeros
    A, c, d = 2.0 * Z[:, 0], Z[:, 1].real, -Z[:, 1].imag
    h1, h2 = np.hypot(Z[:, 0].real, Z[:, 0].imag), np.hypot(c, d)
    y = np.stack([A.real * c - A.imag * d, A.real * d + A.imag * c,
                  np.float_power(h2, 2.0) - np.float_power(h1, 2.0)], axis=1)
    r = np.sqrt(np.vecdot(y, y))
    if (r < 1e-15).any():
        raise DegenerateTriangle("preshape maps to the origin")
    return y / r[:, None]


def hopf_forward(Z) -> np.ndarray:
    """Similarity classes of (n, 3) preshapes: (n, 3) points on the 2-sphere."""
    return _unit_rows(_hopf_rows(Z))


@np.errstate(over="ignore", invalid="ignore")
def hopf_backward(theta, phi, psi) -> np.ndarray:
    """(n, 3, 2) triangles of the shapes given by (n,) arrays theta and phi;
    psi picks the representative of each similarity class.  Non-finite
    angles fail its checks without a numpy warning."""
    s, c = np.sin(theta / 2.0), np.cos(theta / 2.0)
    a, b = (psi + phi) / 2.0, (psi - phi) / 2.0
    V = np.empty((theta.size, 3, 2))
    V[:, 0, 0], V[:, 0, 1] = np.cos(a) * s, np.sin(a) * s
    V[:, 1, 0], V[:, 1, 1] = np.cos(b) * c, np.sin(b) * c
    V[:, 2] = -(V[:, 0] + V[:, 1])
    _raise_first(
        (~((0.0 <= theta) & (theta <= np.pi)), ValueError("colatitude theta must lie in [0, pi]")),
        (~np.isfinite(V).all(axis=(1, 2)), ValueError("triangle vertices must be finite")),
    )
    return V


# ---------------------------------------------------------------------------
# triangles.csv: one triangle per row, columns x11 x12 x21 x22 x31 x32, rows
# ended by \r\n; sphere points end rows by \n.

def save_triangles(path, triangles) -> None:
    """Write (n, 3, 2) vertices."""
    V = np.asarray(triangles, dtype=float).reshape(-1, 6)
    write_table(path, V, "x11,x12,x21,x22,x31,x32", end="\r\n")


def load_triangles(path) -> np.ndarray:
    """The (n, 3, 2) vertices of a triangles.csv."""
    _, V = read_table(path)
    if V.shape[1] != 6:
        raise ValueError(f"{path}: each triangle row needs six values")
    if not np.isfinite(V).all():
        raise ValueError("triangle vertices must be finite")
    return V.reshape(-1, 3, 2)


def save_sphere_points(path, Y) -> None:
    """Write (n, 3) sphere rows after their colatitude theta in [0, pi] and
    longitude phi in (-pi, pi]."""
    theta, phi = np.arccos(np.clip(Y[:, 2], -1.0, 1.0)), np.arctan2(Y[:, 1], Y[:, 0])
    write_table(path, np.column_stack([theta, phi, Y]), SPHERE_HEADER)


def load_angles(path) -> np.ndarray:
    """(n, 3) theta, phi, psi of theta,phi[,psi] rows, psi = 0 where absent,
    or of the theta,phi,x,y,z rows that the forward map writes."""
    header, rows = read_table(path, ragged=True)
    widths, why = (2, 3), "theta,phi or theta,phi,psi"
    if header and [c.strip() for c in header] == SPHERE_HEADER.split(","):
        widths, why = (5,), SPHERE_HEADER
    if any(len(row) not in widths for row in rows):
        raise ValueError(f"{path}: each row needs {why}")
    return np.array([row[:3] if len(row) == 3 else row[:2] + [0.0] for row in rows])
