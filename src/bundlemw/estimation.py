"""Mixture estimation from manifold samples.

Two clusterers feed the same covariance estimator.  Riemannian K-means
runs Lloyd iterations with geodesic assignments and Frechet-mean updates.
The mode-based alternative works purely from a distance matrix: it counts
neighbors within a quantile radius, takes local maxima of the neighbor
count as cluster modes, sends every point uphill to its mode, and flags
isolated points as outliers.  Mode clustering picks its own number of
clusters, which K-means cannot.

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
# Largest n that `fit --method kmodes` takes; its distances plus clustering
# peak near 8.8 n^2 bytes at the default q = 0.1 and 12 n^2 at q >= 0.5.
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


def _offdiag_quantile(D, q):
    """``np.quantile`` of an exactly symmetric n x n matrix's off-diagonal
    entries, with their maximum.  Sorted, the k-th off-diagonal entry is the
    (k // 2)-th of the strict upper triangle, so numpy's own interpolation
    between the two around the virtual index gives its bits.  The triangle
    streams row by row through a buffer of twice the ``keep`` entries the
    ranks need plus one row (at most the whole triangle), partitioned down
    to the ``keep`` smallest whenever the next row does not fit."""
    n = D.shape[0]
    N = n * (n - 1)
    h = (N - 1) * q
    lo = int(h)
    ks = [lo // 2, min(lo + 1, N - 1) // 2]
    keep = ks[1] + 1
    buf = np.empty(min(2 * keep + n, N // 2))
    fill, top = 0, 0.0
    for i in range(n - 1):
        row = D[i, i + 1:]
        if fill + row.size > buf.size:
            top = max(top, buf[:fill].max())
            buf[:fill].partition(keep - 1)
            fill = keep
        buf[fill:fill + row.size] = row
        fill += row.size
    kept = buf[:fill]
    top = max(top, kept.max())
    kept.partition(ks)
    return float(np.quantile(kept[ks], h - lo)), float(top)


def kmodes_cluster(distmat, q: float = 0.1) -> Clustering:
    """Cluster from a distance matrix by neighbor-count ascent.

    The neighborhood radius r is the ``q``-quantile of off-diagonal
    distances.  Points with no neighbor within r are outliers; every other
    point walks to the neighbor with the highest neighbor count (smallest
    index on ties) until it reaches a local maximum, and those maxima are
    the cluster modes.  If every pairwise distance is zero the matrix
    carries no structure and all points form one cluster around mode 0.

    Memory beyond the input peaks at the quantile's buffer, about 8 q n^2
    bytes for q < 0.5 and 4 n^2 bytes (the strict upper triangle) from
    there on; the ascent runs in row blocks and holds no n x n array.
    """
    D = check_distmat(distmat)
    n = D.shape[0]
    if not 0.0 < q <= 1.0:
        raise ValueError("quantile q must be in (0, 1]")
    r, top = _offdiag_quantile(D, q) if n > 1 else (0.0, 0.0)
    if top <= 0.0:
        return Clustering(labels=np.zeros(n, dtype=int), sizes=[n], modes=[0])
    rows = max(1, _BLOCK_CELLS // n)
    blocks = [slice(i, min(i + rows, n)) for i in range(0, n, rows)]
    counts = np.concatenate([np.count_nonzero(D[b] <= r, axis=1) for b in blocks])
    counts -= D.diagonal() <= r

    # ascent target: the ball member (self included, whatever the diagonal
    # holds) maximizing (neighbor count, -index); fixed points are the modes
    target = np.empty(n, dtype=np.intp)
    for b in blocks:
        own = np.arange(b.start, b.stop)
        rank = np.where(D[b] <= r, counts, -1)
        rank[own - b.start, own] = counts[own]
        target[b] = np.argmax(rank, axis=1)
    root = target
    while not np.array_equal(root[root], root):
        root = root[root]
    modes = np.flatnonzero((target == np.arange(n)) & (counts > 0))
    labels = np.where(counts > 0, np.searchsorted(modes, root), OUTLIER)
    sizes = list(np.bincount(labels[labels != OUTLIER], minlength=len(modes)))
    return Clustering(labels=labels, sizes=sizes, modes=modes.tolist())


def fit_mixture(X, clustering: Clustering, frame: MovingFrame) -> GaussianMixture:
    """Estimate a Gaussian mixture from the clustered rows of X (n x D,
    normalized to the sphere).

    Cluster k contributes weight n_k / n (outliers excluded from n), mean
    equal to the cluster center (Frechet mean or mode point), and the
    Gram-form covariance of its frame-coordinate shooting vectors with the
    n_k - 1 divisor.  The result is reduced to minimal form.

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
        means = _unit_rows(clustering.centers)
    elif clustering.modes is not None:
        means = _unit_rows(X[clustering.modes])
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
