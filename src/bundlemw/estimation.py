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

from ._jsonfile import read_json, write_json
from .changepoint import check_distmat
from .errors import ClusterTooSmall, EmptyCluster
from .gauss import BundleGaussian, CovarianceMatrix, GaussianMixture, normalize_minimal_form
from .geometry import (
    MovingFrame,
    Point,
    _unit_rows,
    frechet_mean,
    log_batch,
    pairwise_geodesic,
    transport_frame,
)

OUTLIER = -1


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


def _kmeanspp_indices(D: np.ndarray, K: int, rng: np.random.Generator) -> list[int]:
    """Seed center indices by distance-squared weighting on the data."""
    n = D.shape[0]
    chosen = [int(rng.integers(n))]
    for _ in range(K - 1):
        dsq = np.min(D[:, chosen], axis=1) ** 2
        dsq[chosen] = 0.0
        total = dsq.sum()
        if total <= 0.0:
            pick = next(i for i in range(n) if i not in chosen)
        else:
            pick = int(rng.choice(n, p=dsq / total))
        chosen.append(pick)
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
    C = X[_kmeanspp_indices(pairwise_geodesic(X), K, rng)]
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
        C = np.array([frechet_mean(X[labels == k], tol=tol).coords for k in range(K)])
    sizes = list(np.bincount(labels, minlength=K))
    return Clustering(labels=labels, sizes=sizes, centers=C, converged=converged)


def kmodes_cluster(distmat, q: float = 0.1) -> Clustering:
    """Cluster from a distance matrix by neighbor-count ascent.

    The neighborhood radius r is the ``q``-quantile of off-diagonal
    distances.  Points with no neighbor within r are outliers; every other
    point walks to the neighbor with the highest neighbor count (smallest
    index on ties) until it reaches a local maximum, and those maxima are
    the cluster modes.  If every pairwise distance is zero the matrix
    carries no structure and all points form one cluster around mode 0.
    """
    D = check_distmat(distmat)
    n = D.shape[0]
    if not 0.0 < q <= 1.0:
        raise ValueError("quantile q must be in (0, 1]")
    off = D[~np.eye(n, dtype=bool)]
    if off.size == 0 or np.max(off) <= 0.0:
        return Clustering(labels=np.zeros(n, dtype=int), sizes=[n], modes=[0])
    r = float(np.quantile(off, q))
    ball = (D <= r) & ~np.eye(n, dtype=bool)
    counts = ball.sum(axis=1)

    # ascent target: the ball member (self included) maximizing
    # (neighbor count, -index); fixed points are the modes
    target = np.empty(n, dtype=int)
    for i in range(n):
        cand = np.flatnonzero(ball[i])
        cand = np.append(cand, i)
        best = cand[np.lexsort((cand, -counts[cand]))][0]
        target[i] = best
    labels = np.full(n, OUTLIER)
    modes = sorted(int(i) for i in np.flatnonzero(target == np.arange(n)) if counts[i] > 0)
    mode_pos = {m: k for k, m in enumerate(modes)}
    for i in range(n):
        if counts[i] == 0:
            continue
        j = i
        while target[j] != j:
            j = target[j]
        labels[i] = mode_pos[j]
    sizes = list(np.bincount(labels[labels != OUTLIER], minlength=len(modes)))
    return Clustering(labels=labels, sizes=sizes, modes=modes)


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
    """
    X = _unit_rows(X)
    if X.shape[0] != clustering.labels.size:
        raise ValueError("points and clustering labels have different lengths")
    total = int(np.sum(clustering.labels != OUTLIER))
    if total == 0:
        raise ClusterTooSmall("all points are outliers")
    comps = []
    weights = []
    for k in range(clustering.K):
        idx = np.flatnonzero(clustering.labels == k)
        if idx.size < 2:
            raise ClusterTooSmall(f"cluster {k} has {idx.size} members, needs at least 2")
        if clustering.centers is not None:
            m = Point(clustering.centers[k])
        elif clustering.modes is not None:
            m = Point(X[clustering.modes[k]])
        else:
            m = frechet_mean(X[idx])
        local = transport_frame(frame, m)
        V = log_batch(m.coords, X[idx]) @ local.matrix.T
        cov = V.T @ V / (idx.size - 1)
        comps.append(BundleGaussian(m, CovarianceMatrix(cov)))
        weights.append(idx.size / total)
    mix = GaussianMixture(weights, comps, frame)
    return normalize_minimal_form(mix)


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


def clustering_from_dict(data: dict) -> Clustering:
    return Clustering(
        labels=np.asarray(data["labels"], dtype=int),
        sizes=list(data["sizes"]),
        centers=data.get("centers"),
        modes=data.get("modes"),
        converged=bool(data.get("converged", True)),
    )


def save_clustering(path, c: Clustering) -> None:
    write_json(path, clustering_to_dict(c))


def load_clustering(path) -> Clustering:
    return clustering_from_dict(read_json(path))
