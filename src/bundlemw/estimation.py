"""Mixture estimation from manifold samples.

Two clusterers feed the same covariance estimator.  Riemannian K-means
runs Lloyd iterations with geodesic assignments and Frechet-mean updates.
The mode-based alternative works purely from pairwise distances, given as
a matrix or computed from the points in row blocks of its upper triangle:
it counts neighbors within a quantile radius, takes local maxima of the
neighbor count as cluster modes, sends every point uphill to its mode, and
flags isolated points as outliers.  Mode clustering picks its own number
of clusters, which K-means cannot.

Covariances are fitted from shooting vectors: the log map of each member
at the cluster center, expressed in the transported frame, accumulated in
a Gram matrix with the n-1 divisor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._jsonfile import write_json
from .changepoint import check_distmat
from .errors import ClusterTooSmall, DimensionMismatch, EmptyCluster
from .gauss import GaussianMixture, normalize_minimal_form
from .geometry import (
    _BLOCK_CELLS,
    MovingFrame,
    _unit_rows,
    frechet_mean,
    log_batch,
    pairwise_geodesic,
    transport_frame,
)

OUTLIER = -1
# Largest n that `fit --method kmodes` takes.  Clustering from the points
# peaks near 2.3 n^2 bytes in 151 ms at the default q = 0.1, and near
# 8.6 n^2 in 153 ms at q = 1.0 (n = 2000, D = 3: tracemalloc, and the
# fastest of 15 runs in process on a shared 2-vCPU host).
KMODES_MAX_POINTS = 10_000


@dataclass
class Clustering:
    """Cluster assignment of n points.

    ``labels[i]`` indexes a cluster or equals OUTLIER (-1).  K-means fills
    ``centers``, a K x D array, with Frechet means; mode clustering fills
    ``modes`` with the data-point index of each cluster's mode instead,
    since it never sees coordinates.  ``converged`` is False when Lloyd iteration hit its
    budget before assignments stabilized.
    """

    labels: np.ndarray
    sizes: list[int]
    centers: Optional[np.ndarray] = None
    modes: Optional[list[int]] = None
    converged: bool = True

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=int)
        if self.centers is not None:
            self.centers = np.asarray(self.centers, dtype=float)
        K = len(self.sizes)
        valid = self.labels[self.labels != OUTLIER]
        if valid.size and (valid.min() < 0 or valid.max() >= K):
            raise ValueError("labels reference nonexistent clusters")
        counts = np.bincount(valid, minlength=K)
        if list(counts) != list(self.sizes):
            raise ValueError("sizes inconsistent with labels")

    @property
    def K(self) -> int:
        return len(self.sizes)

    @property
    def outliers(self) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.labels == OUTLIER)]


def _kmeanspp_indices(X: np.ndarray, K: int, rng: np.random.Generator) -> list[int]:
    """Seed center indices by distance-squared weighting on the rows of X."""
    n = X.shape[0]
    chosen = [int(rng.integers(n))]
    nearest = pairwise_geodesic(X, X[chosen])[:, 0]
    for _ in range(K - 1):
        dsq = nearest**2
        dsq[chosen] = 0.0
        total = dsq.sum()
        if total <= 0.0:
            pick = next(i for i in range(n) if i not in chosen)
        else:
            pick = int(rng.choice(n, p=dsq / total))
        chosen.append(pick)
        nearest = np.minimum(nearest, pairwise_geodesic(X, X[[pick]])[:, 0])
    return chosen


def riemannian_kmeans(
    X,
    K: int,
    seed: int = 0,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> Clustering:
    """Lloyd iteration on the rows of X (n x D, normalized to the sphere)
    with geodesic distances.

    Assignments go to the nearest center (smallest index wins ties);
    centers are updated to cluster Frechet means.  Clusters that empty out
    are refilled with the point currently farthest from its own center.
    Stops when the assignment stabilizes; if ``max_iter`` passes first the
    best-so-far result is returned with ``converged=False``.
    """
    X = _unit_rows(X)
    n = X.shape[0]
    if K < 1:
        raise ValueError("K must be at least 1")
    if n < K:
        raise EmptyCluster(f"cannot form {K} clusters from {n} points")
    rng = np.random.default_rng(seed)
    C = X[_kmeanspp_indices(X, K, rng)]
    labels = np.full(n, -2)
    converged = False
    for _ in range(max_iter):
        dist = pairwise_geodesic(X, C)
        new_labels = np.argmin(dist, axis=1)
        point_dist = dist[np.arange(n), new_labels]
        for k in range(K):
            if np.any(new_labels == k):
                continue
            sizes = np.bincount(new_labels, minlength=K)
            movable = sizes[new_labels] >= 2
            if not np.any(movable):
                raise EmptyCluster("cannot repopulate an empty cluster")
            far = int(np.argmax(np.where(movable, point_dist, -1.0)))
            new_labels[far] = k
            point_dist[far] = 0.0
        if np.array_equal(new_labels, labels):
            converged = True
            break
        labels = new_labels
        C = np.array([frechet_mean(X[labels == k], tol=tol) for k in range(K)])
    sizes = list(np.bincount(labels, minlength=K))
    return Clustering(labels=labels, sizes=sizes, centers=C, converged=converged)


def _upper_blocks(n):
    """(i, j) spans of the row blocks i..j-1 over columns i..n-1, of about
    2^14 cells each, that cover the upper triangle of an n x n matrix."""
    i = 0
    while i < n:
        j = min(n, i + max(1, _BLOCK_CELLS // (n - i)))
        yield i, j
        i = j


def _above(M):
    """The bool block M of rows i.. over columns i.., cleared in place on and
    below the diagonal, which only its first len(M) columns cross."""
    M[:, :len(M)] &= ~np.tri(len(M), dtype=bool)
    return M


def _radius_ranks(n, q):
    """The ranks in the strict upper triangle of the two entries that the
    ``q``-quantile of an exactly symmetric n x n matrix's off-diagonal
    entries interpolates between, the fraction between them, and the size
    of a buffer for them: twice the entries the ranks need plus one block,
    at most the triangle.  Sorted, the k-th off-diagonal entry is the
    (k // 2)-th of the triangle, so numpy's own interpolation between the
    two around the virtual index gives the quantile's bits."""
    N = n * (n - 1)
    h = (N - 1) * q
    lo = int(h)
    ks = [lo // 2, min(lo + 1, N - 1) // 2]
    return ks, h - lo, min(2 * ks[1] + 2 + max(n, _BLOCK_CELLS), N // 2)


def _radius(kept, ks, frac):
    """The quantile from ``kept``, every entry of the triangle up to rank
    ks[1] and any larger ones, partitioned in place.  ks[1] is ks[0] or the
    next rank, the smallest entry past ks[0]."""
    kept.partition(ks[0])
    pair = [kept[ks[0]], kept[ks[0]] if ks[1] == ks[0] else kept[ks[0] + 1:].min()]
    return float(np.quantile(np.array(pair), frac))


def _ball_held(n, q, blocks):
    """The radius and the ball of the upper blocks ``blocks``, all at hand
    (views of a matrix): where they are within the radius, above the
    diagonal, as one flat mask over their cells in order.  Their values
    stream through the buffer, partitioned in place down to the ``keep``
    smallest whenever the next block does not fit; once the radius is known,
    each block is compared with it once.
    """
    ks, frac, cap = _radius_ranks(n, q)
    keep = ks[1] + 1
    buf = np.empty(cap)
    fill = 0
    for B in blocks:
        v = B[_above(np.ones(B.shape, dtype=bool))]
        if fill + v.size > cap:
            buf[:fill].partition(keep - 1)
            fill = keep
        buf[fill:fill + v.size] = v
        fill += v.size
    r = _radius(buf[:fill], ks, frac)
    del buf
    ball = np.empty(sum(B.size for B in blocks), dtype=bool)
    off = 0
    for B in blocks:
        ball[off:off + B.size] = _above(B <= r).ravel()
        off += B.size
    return r, ball


def _ball_streamed(n, q, blocks):
    """:func:`_ball_held` of upper blocks that are computed one at a time
    and seen once.  The ball starts as the mask of the cells whose values
    the buffer holds, in order.  When the next block does not fit, the
    buffer keeps its entries <= t, its keep-th smallest, ties included, and
    later blocks enter filtered by <= t, so every entry within the radius
    survives to mark the ball.
    """
    ks, frac, cap = _radius_ranks(n, q)
    keep = ks[1] + 1
    ball = np.zeros(sum((j - i) * (n - i) for i, j in _upper_blocks(n)), dtype=bool)
    vals = np.empty(cap)
    fill, t, off = 0, np.inf, 0
    for B in blocks:
        below = _above(B <= t).ravel()
        v = B.ravel()[below]
        if fill + v.size > vals.size:
            t = np.partition(vals[:fill], keep - 1)[keep - 1]
            kept = vals[:fill] <= t
            seen = ball[:off]
            seen[seen] = kept
            fill = int(np.count_nonzero(kept))
            vals[:fill] = vals[:kept.size][kept]
            if fill + v.size > vals.size:  # ties at t: make room, up to the triangle
                size = min(max(2 * vals.size, fill + v.size), n * (n - 1) // 2)
                vals = np.concatenate([vals[:fill], np.empty(size - fill)])
        vals[fill:fill + v.size] = v
        ball[off:off + B.size] = below
        fill += v.size
        off += B.size
    r = _radius(vals[:fill].copy(), ks, frac)
    ball[ball] = vals[:fill] <= r
    return r, ball


def _kmodes(n, q, block, held):
    """Mode clustering of n points from their distances, given as the upper
    row blocks ``block(i, j)``: the distances of rows i..j-1 to columns
    i..n-1, of which only the strict upper triangle is read.  ``held`` says
    whether all the blocks may be at hand at once, as views of a matrix are.

    A point's neighbors are the other points within the radius.  Its ascent
    target is the member j of its ball, itself included, with the most
    neighbors, the smallest index on ties: the largest key
    counts[j] n + (n - 1 - j).  The targets' fixed points that have a
    neighbor are the modes.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError("quantile q must be in (0, 1]")
    if n < 2:
        return Clustering(labels=np.zeros(n, dtype=int), sizes=[n], modes=[0])
    blocks = (block(i, j) for i, j in _upper_blocks(n))
    _, ball = _ball_held(n, q, list(blocks)) if held else _ball_streamed(n, q, blocks)
    views, off = [], 0
    for i, j in _upper_blocks(n):
        views.append((i, j, ball[off:off + (j - i) * (n - i)].reshape(j - i, n - i)))
        off += (j - i) * (n - i)
    counts = np.zeros(n, dtype=np.intp)
    for i, j, M in views:
        counts[i:j] += np.count_nonzero(M, axis=1)
        counts[i:] += np.count_nonzero(M, axis=0)
    key = counts * n + np.arange(n - 1, -1, -1)
    best = key.copy()
    for i, j, M in views:
        np.maximum(best[i:j], np.where(M, key[i:], -1).max(axis=1), out=best[i:j])
        np.maximum(best[i:], np.where(M, key[i:j, None], -1).max(axis=0), out=best[i:])
    target = n - 1 - best % n
    root = target
    while not np.array_equal(root[root], root):
        root = root[root]
    modes = np.flatnonzero((target == np.arange(n)) & (counts > 0))
    labels = np.where(counts > 0, np.searchsorted(modes, root), OUTLIER)
    sizes = list(np.bincount(labels[labels != OUTLIER], minlength=len(modes)))
    return Clustering(labels=labels, sizes=sizes, modes=modes.tolist())


def kmodes_cluster(distmat, q: float = 0.1) -> Clustering:
    """Cluster from a distance matrix by neighbor-count ascent.

    The neighborhood radius r is the ``q``-quantile of off-diagonal
    distances.  Points with no neighbor within r are outliers; every other
    point walks to the neighbor with the highest neighbor count (smallest
    index on ties) until it reaches a local maximum, and those maxima are
    the cluster modes.  If every pairwise distance is zero, every point is
    every other's neighbor, and all points form one cluster around mode 0.

    Memory beyond the input peaks at the quantile's buffer, about 8 q n^2
    bytes for q < 0.5 and 4 n^2 bytes (the strict upper triangle) from there
    on; the ball, one byte per pair, follows it.  At n = 2000 that is
    0.9 n^2 bytes in 79 ms at q = 0.1 and 4.1 n^2 in 73 ms at q = 1.0
    (tracemalloc, and the fastest of 15 runs in process on a shared 2-vCPU
    host).
    """
    D = check_distmat(distmat)
    return _kmodes(D.shape[0], q, lambda i, j: D[i:j, i:], held=True)


def kmodes_from_points(X, q: float = 0.1) -> Clustering:
    """:func:`kmodes_cluster` of the geodesic distances between the rows of X
    (n x D, normalized to the sphere), with the same labels, modes and sizes,
    from upper row blocks of distances computed once each, with no n x n
    matrix.

    Memory peaks near 2.3 n^2 bytes at q = 0.1: the quantile's buffer, a
    copy of its values and the ball, one byte per pair.  From q = 0.5 on,
    the buffer holds the triangle's values, and the peak is near 8.6 n^2
    bytes.  ``KMODES_MAX_POINTS`` gives times.
    """
    X = _unit_rows(X)
    return _kmodes(len(X), q, lambda i, j: pairwise_geodesic(X[i:j], X[i:]), held=False)


def fit_mixture(X, clustering: Clustering, frame: MovingFrame) -> GaussianMixture:
    """Estimate a Gaussian mixture from the clustered rows of X (n x D,
    normalized to the sphere).

    Cluster k contributes weight n_k / n (outliers excluded from n), mean
    equal to the cluster center (Frechet mean or mode point, taken as it is:
    both are unit), and the Gram-form covariance of its frame-coordinate
    shooting vectors with the n_k - 1 divisor.  The result is reduced to
    minimal form.

    Raises
    ------
    ClusterTooSmall
        If any cluster has fewer than two members.
    DimensionMismatch
        If the rows of X do not lie in the frame's ambient dimension.
    """
    X = _unit_rows(X)
    if X.shape[1] != frame.p.size:
        raise DimensionMismatch(
            f"samples have {X.shape[1]} coordinates but the frame has {frame.p.size}"
        )
    if X.shape[0] != clustering.labels.size:
        raise ValueError("points and clustering labels have different lengths")
    total = int(np.sum(clustering.labels != OUTLIER))
    if total == 0:
        raise ClusterTooSmall("all points are outliers")
    members = [np.flatnonzero(clustering.labels == k) for k in range(clustering.K)]
    for k, idx in enumerate(members):
        if idx.size < 2:
            raise ClusterTooSmall(f"cluster {k} has {idx.size} members, needs at least 2")
    if clustering.centers is not None:
        means = clustering.centers
    elif clustering.modes is not None:
        means = X[clustering.modes]
    else:
        means = np.array([frechet_mean(X[idx]) for idx in members])
    covs = []
    for m, idx in zip(means, members):
        V = log_batch(m, X[idx]) @ transport_frame(frame, m).T
        covs.append(V.T @ V / (idx.size - 1))
    weights = [idx.size / total for idx in members]
    return normalize_minimal_form(GaussianMixture(weights, means, covs, frame))


# ---------------------------------------------------------------------------
# clustering.json: labels with outliers, plus whichever center form exists.

def clustering_to_dict(c: Clustering) -> dict:
    return {
        "labels": [int(l) for l in c.labels],
        "sizes": [int(s) for s in c.sizes],
        "modes": None if c.modes is None else [int(m) for m in c.modes],
        "centers": None if c.centers is None else c.centers.tolist(),
        "outliers": c.outliers,
        "converged": bool(c.converged),
    }


def save_clustering(path, c: Clustering) -> None:
    write_json(path, clustering_to_dict(c))
