"""Shared builders for random test fixtures."""

import csv
import tracemalloc

import numpy as np

from bundlemw.gauss import GaussianMixture
from bundlemw.geometry import (
    _BLOCK_CELLS,
    MovingFrame,
    _angle_from_chords,
    _last_axis_norm,
    _unit_rows,
    pairwise_geodesic,
)


def unit(v):
    """v scaled to the unit sphere, bitwise as a MovingFrame scales its point."""
    return _unit_rows(np.asarray(v, dtype=float)[None])[0]


def geodesic(p, q):
    """Great-circle distance between the unit vectors p and q: a one-row call
    of pairwise_geodesic."""
    return float(pairwise_geodesic(np.reshape(p, (1, -1)), np.reshape(q, (1, -1)))[0, 0])


def random_frame(p, seed=0):
    """A seeded orthonormal frame at ``unit(p)``: the eigenvectors of the Gram
    operator of D - 1 random tangent directions, redrawn until they have full
    rank, each with its first nonzero entry positive."""
    p = unit(p)
    D, rng = p.size, np.random.default_rng(seed)
    lam = [0.0]
    while lam[-1] <= 1e-10 * max(lam[0], 1e-30):
        W = rng.standard_normal((D - 1, D))
        W -= np.outer(W @ p, p)
        evals, evecs = np.linalg.eigh(W.T @ W)
        order = np.argsort(evals)[::-1][: D - 1]
        lam = evals[order]
    B = evecs[:, order].T
    B -= np.outer(B @ p, p)
    B /= np.linalg.norm(B, axis=1, keepdims=True)
    for row in B:
        nz = np.flatnonzero(np.abs(row) > 1e-9)
        if nz.size and row[nz[0]] < 0:
            row *= -1.0
    return MovingFrame(p, B)


def energy_statistic(D, split, lo, hi, alpha=1.0):
    """Two-sample energy statistic of splitting [lo, hi) at ``split``, from
    the block means of D^alpha: the oracle of changepoint._scan_segment.

    With m = split - lo and n = hi - split it is
    (m n / (m + n)) (2 mean cross - mean within left - mean within right),
    the within means over distinct pairs.
    """
    A = np.asarray(D, dtype=float)[lo:hi, lo:hi] ** alpha
    m, n = split - lo, hi - split
    within_x = 2.0 * np.sum(A[:m, :m][np.triu_indices(m, 1)]) / (m * (m - 1))
    within_y = 2.0 * np.sum(A[m:, m:][np.triu_indices(n, 1)]) / (n * (n - 1))
    return (m * n / (m + n)) * (2.0 * np.mean(A[:m, m:]) - within_x - within_y)


def random_spd(rng, d, scale=1.0):
    A = rng.standard_normal((d, d))
    return scale * (A @ A.T) + 0.05 * np.eye(d)


def eigh_factors(S):
    """Square-root factors (K, d, r) of the stack S, one ``eigh`` per matrix,
    by the rule the mixture's factors must follow bit for bit: V sqrt(lambda)
    over the eigenvalues above d eps lambda_max, r the most any matrix keeps,
    and zero columns in front of the kept ones."""
    out = []
    for A in S:
        lam, V = np.linalg.eigh(A)
        kept = lam > A.shape[0] * np.finfo(float).eps * lam[-1]
        out.append(V[:, kept] * np.sqrt(lam[kept]))
    r = max(1, max(F.shape[1] for F in out))
    return np.array([np.hstack([np.zeros((len(F), r - F.shape[1])), F]) for F in out])


def make_mixture(rng, K, D, frame=None, cov_scale=0.1):
    """Random mixture with basepoints scattered around the frame point."""
    if frame is None:
        frame = random_frame(np.eye(D)[-1], 17)
    means, covs = [], []
    for _ in range(K):
        means.append(unit(frame.p + 0.8 * rng.standard_normal(D)))
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


def trailing_axis_geodesic(X, Y=None):
    """pairwise_geodesic by the block loop that keeps the coordinates on the
    last axis at every D, as the kernel still does from D = 8 on."""
    mirror = Y is None
    Y = X if mirror else Y
    out = np.empty((len(X), len(Y)))
    s = max(1, _BLOCK_CELLS // max(1, len(Y)))
    for i in range(0, len(X), s):
        j = i if mirror else 0
        A, B = X[i:i + s, None, :], Y[None, j:, :]
        block = _angle_from_chords(
            np.sum(A * B, axis=-1), _last_axis_norm(A - B), _last_axis_norm(A + B)
        )
        out[i:i + s, j:] = block
        if mirror:
            out[j:, i:i + s] = block.T
    return out


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
    code that hopf_forward replaced: one complex preshape, Hopf map and
    unit vector per row."""
    rows, thetas, phis = [], [], []
    for v in V:
        z = v[:, 0] + 1j * v[:, 1]
        z = z - z.mean()
        z = z / np.linalg.norm(z)
        z1, z2 = z[0], z[1]
        w = 2.0 * z1 * np.conj(z2)
        y = np.array([w.real, w.imag, abs(z2) ** 2 - abs(z1) ** 2])
        p = unit(y / np.linalg.norm(y))
        x1, x2, x3 = p
        rows.append(p)
        thetas.append(float(np.arccos(np.clip(x3, -1.0, 1.0))))
        phis.append(float(np.arctan2(x2, x1)))
    return np.array(rows), np.array(thetas), np.array(phis)


def rowwise_triangles(angle_rows):
    """(n, 3, 2) vertices of theta,phi[,psi] rows by the per-row code that
    hopf_backward replaced, with Python floats as it parsed them."""
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
    return geodesic(unit(a.ravel()), unit(aligned.ravel()))


def _ref_tree_potentials(cost, basis, K0, K1):
    adj = {}
    for i, j in basis:
        adj.setdefault(i, []).append((K0 + j, i, j))
        adj.setdefault(K0 + j, []).append((i, i, j))
    u = np.full(K0, np.nan)
    v = np.full(K1, np.nan)
    u[0] = 0.0
    stack = [0]
    seen = {0}
    while stack:
        node = stack.pop()
        for nxt, i, j in adj.get(node, ()):
            if nxt in seen:
                continue
            seen.add(nxt)
            if nxt >= K0:
                v[nxt - K0] = cost[i, j] - u[i]
            else:
                u[nxt] = cost[i, j] - v[j]
            stack.append(nxt)
    return u, v


def _ref_tree_solve(basis, a, b):
    K0, K1 = a.size, b.size
    x = np.zeros((K0, K1))
    rem = np.concatenate([a, b])
    adj = {node: set() for node in range(K0 + K1)}
    cell_of = {}
    for i, j in basis:
        adj[i].add(K0 + j)
        adj[K0 + j].add(i)
        cell_of[(i, K0 + j)] = (i, j)
    leaves = [node for node, nbrs in adj.items() if len(nbrs) == 1]
    while leaves:
        node = leaves.pop()
        if not adj[node]:
            continue
        (other,) = adj[node]
        i, j = cell_of[(node, other) if node < K0 else (other, node)]
        x[i, j] = max(rem[node], 0.0)
        rem[other] -= rem[node]
        rem[node] = 0.0
        adj[node].clear()
        adj[other].discard(node)
        if len(adj[other]) == 1:
            leaves.append(other)
    return x


def _ref_tree_path(basis, start, goal, K0):
    adj = {}
    for i, j in basis:
        adj.setdefault(i, []).append((K0 + j, (i, j)))
        adj.setdefault(K0 + j, []).append((i, (i, j)))
    parent = {start: (-1, (-1, -1))}
    stack = [start]
    while stack:
        node = stack.pop()
        if node == goal:
            break
        for nxt, cell in adj.get(node, ()):
            if nxt not in parent:
                parent[nxt] = (node, cell)
                stack.append(nxt)
    path = []
    node = goal
    while node != start:
        prev, cell = parent[node]
        path.append(cell)
        node = prev
    return path[::-1]


def reference_transportation(cost, w0, w1):
    """Plan, cost and (u, v) of the transportation simplex that rebuilt the
    basis tree from its list of cells at every pivot: one adjacency for the
    potentials, another for the entering cycle and a third for the final
    leaf peel.  Validation, the perturbation and the least-cost start are
    the solver's own; problems must have K0, K1 >= 2."""
    from bundlemw.transport import _CLEANUP, _EPS_PERTURB, _least_cost_start, _validate_simplex

    C = np.clip(np.asarray(cost, dtype=float), 0.0, None)
    K0, K1 = C.shape
    a0 = _validate_simplex(w0, K0, "w0")
    b0 = _validate_simplex(w1, K1, "w1")
    a = a0 + _EPS_PERTURB
    b = b0.copy()
    b[-1] += K0 * _EPS_PERTURB
    flow = _least_cost_start(C, a, b)
    basis = list(flow)
    x = np.zeros((K0, K1))
    x[tuple(zip(*basis))] = list(flow.values())
    while True:
        u, v = _ref_tree_potentials(C, basis, K0, K1)
        reduced = C - u[:, None] - v[None, :]
        reduced[tuple(zip(*basis))] = np.inf
        flat = int(np.argmin(reduced))
        if not reduced.flat[flat] < -1e-12:
            break
        entering = divmod(flat, K1)
        cycle = [entering] + _ref_tree_path(basis, entering[0], K0 + entering[1], K0)
        minus = cycle[1::2]
        theta = min(x[c] for c in minus)
        leaving = min(c for c in minus if x[c] <= theta)
        for c in cycle[0::2]:
            x[c] += theta
        for c in minus:
            x[c] -= theta
        x[leaving] = 0.0
        basis = [entering if c == leaving else c for c in basis]
    x = _ref_tree_solve(basis, a0, b0)
    x[x <= _CLEANUP] = 0.0
    return x, float(np.sum(x * C)), (u, v)


def _loop_scan_segment(A, min_size):
    L = A.shape[0]
    if L < 2 * min_size:
        return None
    lower = np.tril(A, -1).sum(axis=1)
    upper = np.triu(A, 1).sum(axis=1)
    head = np.concatenate([[0.0], np.cumsum(lower)])
    tail = np.concatenate([np.cumsum(upper[::-1])[::-1], [0.0]])
    total = head[L]
    ks = np.arange(min_size, L - min_size + 1)
    m = ks.astype(float)
    n = L - m
    cross = total - head[ks] - tail[ks]
    q = (m * n / (m + n)) * (
        2.0 * cross / (m * n)
        - 2.0 * head[ks] / (m * (m - 1))
        - 2.0 * tail[ks] / (n * (n - 1))
    )
    best = int(np.argmax(q))
    return int(ks[best]), float(q[best])


def loop_e_divisive(D, R, p0, min_size, alpha, seed):
    """(index, p_value, accepted, statistic) of every candidate by the
    E-divisive loop that rebuilt its triangle masks and split coefficients
    for every scan: np.tril/np.triu, np.ix_ gathers and default_rng.  D
    must be exactly symmetric and the parameters valid."""
    A = np.asarray(D, dtype=float) ** float(alpha)
    segments, points, round_idx = [(0, len(A))], [], 0
    while True:
        candidate = None
        for lo, hi in segments:
            hit = _loop_scan_segment(A[lo:hi, lo:hi], min_size)
            if hit is not None and (candidate is None or hit[1] > candidate[0]):
                candidate = (hit[1], lo + hit[0], lo, hi)
        if candidate is None:
            break
        q_obs, split, lo, hi = candidate
        exceed = 0
        for r in range(R):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(round_idx, r))
            )
            perm = rng.permutation(hi - lo)
            _, q_perm = _loop_scan_segment(A[lo:hi, lo:hi][np.ix_(perm, perm)], min_size)
            exceed += q_perm >= q_obs
        p = (1.0 + exceed) / (R + 1.0)
        points.append((split, p, p <= p0, q_obs))
        if p > p0:
            break
        segments.remove((lo, hi))
        segments.extend([(lo, split), (split, hi)])
        segments.sort()
        round_idx += 1
    return points
