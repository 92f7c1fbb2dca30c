"""Shared builders for random test fixtures."""

import csv
import tracemalloc

import numpy as np

from bundlemw.gauss import BundleGaussian, GaussianMixture
from bundlemw.geometry import Point, build_reference_frame


def random_spd(rng, d, scale=1.0):
    A = rng.standard_normal((d, d))
    return scale * (A @ A.T) + 0.05 * np.eye(d)


def make_mixture(rng, K, D, frame=None, cov_scale=0.1):
    """Random mixture with basepoints scattered around the frame point."""
    if frame is None:
        frame = build_reference_frame(Point(np.eye(D)[-1]), rng_seed=17)
    comps = []
    for _ in range(K):
        m = Point(frame.p.coords + 0.8 * rng.standard_normal(D))
        comps.append(BundleGaussian(m, random_spd(rng, D - 1, cov_scale)))
    w = rng.random(K) + 0.1
    return GaussianMixture(w / w.sum(), comps, frame)


def broadcast_geodesic(X, Y):
    """Geodesic distances between rows of X and Y by one n x m x D broadcast,
    the formula pairwise_geodesic applies block by block."""
    c = np.sum(X[:, None, :] * Y[None, :, :], axis=-1)
    diff = X[:, None, :] - Y[None, :, :]
    summ = X[:, None, :] + Y[None, :, :]
    chord = np.sqrt(np.sum(diff * diff, axis=-1))
    cochord = np.sqrt(np.sum(summ * summ, axis=-1))
    acute = 2.0 * np.arcsin(np.clip(0.5 * chord, 0.0, 1.0))
    obtuse = np.pi - 2.0 * np.arcsin(np.clip(0.5 * cochord, 0.0, 1.0))
    return np.where(c >= 0.0, acute, obtuse)


def unit_rows(rng, n, D):
    X = rng.standard_normal((n, D))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def peak_alloc_bytes(f, *args, **kwargs):
    """Peak bytes allocated while ``f`` runs, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        f(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def rowwise_shape_points(V):
    """Sphere rows, theta and phi of (n, 3, 2) triangles by the per-row
    code that triangles_to_sphere replaced: one complex preshape, Hopf map
    and Point per row."""
    rows, thetas, phis = [], [], []
    for v in V:
        z = v[:, 0] + 1j * v[:, 1]
        z = z - z.mean()
        z = z / np.linalg.norm(z)
        z1, z2 = z[0], z[1]
        w = 2.0 * z1 * np.conj(z2)
        y = np.array([w.real, w.imag, abs(z2) ** 2 - abs(z1) ** 2])
        p = Point(y / np.linalg.norm(y))
        x1, x2, x3 = p.coords
        rows.append(p.coords)
        thetas.append(float(np.arccos(np.clip(x3, -1.0, 1.0))))
        phis.append(float(np.arctan2(x2, x1)))
    return np.array(rows), np.array(thetas), np.array(phis)


def rowwise_triangles(angle_rows):
    """(n, 3, 2) vertices of theta,phi[,psi] rows by the per-row code that
    sphere_to_triangles replaced, with Python floats as it parsed them."""
    out = []
    for vals in angle_rows:
        theta, phi, psi = (list(vals) + [0.0])[:3]
        s, c = np.sin(theta / 2.0), np.cos(theta / 2.0)
        x11 = np.cos((psi + phi) / 2.0) * s
        x12 = np.sin((psi + phi) / 2.0) * s
        x21 = np.cos((psi - phi) / 2.0) * c
        x22 = np.sin((psi - phi) / 2.0) * c
        out.append([[x11, x12], [x21, x22], [-(x11 + x21), -(x12 + x22)]])
    return np.array(out)


def rowwise_save_triangles(path, V):
    """triangles.csv as the per-row csv.writer wrote it."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x11", "x12", "x21", "x22", "x31", "x32"])
        for v in V:
            writer.writerow([f"{x:.17g}" for x in v.ravel()])


def rowwise_save_sphere_points(path, Y, theta, phi):
    """The forward map's theta,phi,x,y,z file as the per-row loop wrote it."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("theta,phi,x,y,z\n")
        for row in zip(theta.tolist(), phi.tolist(), *Y.T):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
