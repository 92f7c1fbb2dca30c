"""Shared builders for random test fixtures."""

import csv
import tracemalloc

import numpy as np

from bundlemw.gauss import GaussianMixture
from bundlemw.geometry import Point, build_reference_frame, geodesic_distance


def random_spd(rng, d, scale=1.0):
    A = rng.standard_normal((d, d))
    return scale * (A @ A.T) + 0.05 * np.eye(d)


def make_mixture(rng, K, D, frame=None, cov_scale=0.1):
    """Random mixture with basepoints scattered around the frame point."""
    if frame is None:
        frame = build_reference_frame(Point(np.eye(D)[-1]), rng_seed=17)
    means, covs = [], []
    for _ in range(K):
        means.append(Point(frame.p.coords + 0.8 * rng.standard_normal(D)).coords)
        covs.append(random_spd(rng, D - 1, cov_scale))
    w = rng.random(K) + 0.1
    return GaussianMixture(w / w.sum(), means, covs, frame)


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


def loop_minimal_form(weights, means, covs, tol=1e-9):
    """Weights, means and covariances of normalize_minimal_form by the
    per-component loop it replaced, on lists of rows and matrices: each
    component joins the first earlier representative within ``tol`` in
    geodesic and Frobenius distance, weights are summed in component order,
    and zero weights are dropped before renormalizing."""
    reps, summed = [], []
    for w, m, S in zip(weights, means, covs):
        for i, (r, R) in enumerate(reps):
            if broadcast_geodesic(m[None], r[None])[0, 0] <= tol and np.linalg.norm(S - R) <= tol:
                summed[i] += float(w)
                break
        else:
            reps.append((m, S))
            summed.append(float(w))
    kept = [(w, r) for w, r in zip(summed, reps) if w > 1e-15]
    w = np.array([k[0] for k in kept])
    return w / w.sum(), np.array([k[1][0] for k in kept]), np.array([k[1][1] for k in kept])


def loop_contour_to_srvf(points, T):
    """2 x T SRVF of one 2 x T' contour by the per-contour code that the
    stacked SRVF kernel replaced."""
    from bundlemw.contours import _resample_closed

    B = _resample_closed(points, T)
    deriv = 0.5 * (np.roll(B, -1, axis=1) - np.roll(B, 1, axis=1))
    speed = np.linalg.norm(deriv, axis=0)
    scale = np.where(speed < 1e-12, 0.0, 1.0 / np.sqrt(np.where(speed < 1e-12, 1.0, speed)))
    q = deriv * scale
    return q / np.linalg.norm(q)


def loop_procrustes_rotation(a, b):
    """The rotation of 2 x T b onto a by the closed form the alignment kernel
    replaced: atan2 of the net cross and dot products."""
    dot = float(np.sum(a * b))
    cross = float(np.sum(a[1] * b[0] - a[0] * b[1]))
    theta = np.arctan2(cross, dot)
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def loop_aligned_inner(a, b):
    O = loop_procrustes_rotation(a, b)
    return float(np.sum(a * (O @ b))), 0, O


def loop_aligned_inner_seam(a, q1):
    """Best inner product over the circular shifts of q1, one np.roll per
    shift; a later seam wins only by more than 1e-12."""
    best = (-np.inf, 0, np.eye(2))
    for shift in range(q1.shape[1]):
        b = np.roll(q1, shift, axis=1)
        dot = float(np.sum(a * b))
        cross = float(np.sum(a[1] * b[0] - a[0] * b[1]))
        val = float(np.hypot(dot, cross))
        if val > best[0] + 1e-12:
            theta = np.arctan2(cross, dot)
            c, s = np.cos(theta), np.sin(theta)
            best = (val, shift, np.array([[c, -s], [s, c]]))
    return best


def loop_align_shape(a, b, seam_search=True):
    """2 x T b rotated (and re-seamed) onto a, one shape at a time."""
    _, shift, O = (loop_aligned_inner_seam if seam_search else loop_aligned_inner)(a, b)
    return O @ np.roll(b, shift, axis=1)


def loop_shape_distance(a, b, seam_search=True):
    aligned = loop_align_shape(a, b, seam_search)
    return geodesic_distance(Point(a.ravel()), Point(aligned.ravel()))
