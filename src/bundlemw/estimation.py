"""Mixture estimation from manifold samples.

Two clusterers feed the same covariance estimator.  Riemannian K-means
runs Lloyd iterations with geodesic assignments and Frechet-mean updates.
The mode-based alternative works purely from pairwise distances, given as
a matrix or ranked by the points' dot products, exact near the radius: it
counts neighbors within a quantile radius, takes local maxima of the
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
    _pair_geodesic,
    _unit_rows,
    frechet_mean,
    log_batch,
    pairwise_geodesic,
    transport_frame,
)

OUTLIER = -1
# Largest n that `fit --method kmodes` takes.  Clustering from the points
# peaks near 0.64 n^2 bytes, in 44 ms at the default q = 0.1 and 41 ms at
# q = 1.0 (n = 2000, D = 3: tracemalloc, and the fastest of 15 runs in
# process on a shared 2-vCPU host).
KMODES_MAX_POINTS = 10_000
# Bins over [-1, 1] of the dot-product histogram that finds the radius.
_DOT_BINS = 4096


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
    entries interpolates between, and the fraction between them.  Sorted,
    the k-th off-diagonal entry is the (k // 2)-th of the triangle, so
    numpy's own interpolation between the two around the virtual index gives
    the quantile's bits."""
    N = n * (n - 1)
    h = (N - 1) * q
    lo = int(h)
    return [lo // 2, min(lo + 1, N - 1) // 2], h - lo


def _select(chunks, ks, frac, total, n):
    """The quantile of the ``total`` values in ``chunks``, arrays of at most
    one upper block of an n x n matrix: np.quantile's linear formula, t >=
    0.5 branch included, at ``frac`` between the values of ranks ks, ks[1]
    being ks[0] or the next.  They stream through a buffer of twice the
    ks[1] + 1 smallest plus a block, at most ``total``, partitioned down to
    those whenever the next chunk does not fit.  When ks[0] lies in the upper
    half, the values are negated, which is exact, so that the buffer keeps
    the total - ks[0] largest instead."""
    sign = -1.0 if 2 * ks[0] >= total else 1.0
    if sign < 0:
        ks = [total - 1 - ks[1], total - 1 - ks[0]]
    keep = ks[1] + 1
    buf = np.empty(min(2 * keep + max(n, _BLOCK_CELLS), total))
    fill = 0
    for v in chunks:
        if fill + v.size > buf.size:
            buf[:fill].partition(keep - 1)
            fill = keep
        np.multiply(v, sign, out=buf[fill:fill + v.size])
        fill += v.size
    kept = buf[:fill]
    kept.partition(ks[0])
    a = float(kept[ks[0]])
    b = a if ks[1] == ks[0] else float(kept[ks[0] + 1:].min())
    if sign < 0:
        a, b = -b, -a
    return b - (b - a) * (1 - frac) if frac >= 0.5 else a + (b - a) * frac


def _ball_held(n, q, blocks):
    """The radius and the ball of the upper blocks ``blocks``, all at hand
    (views of a matrix): each block's cells above the diagonal within the
    radius.  Their values stream through :func:`_select`, then each block
    is compared with the radius once."""
    ks, frac = _radius_ranks(n, q)
    r = _select((B[_above(np.ones(B.shape, dtype=bool))] for B in blocks),
                ks, frac, n * (n - 1) // 2, n)
    return r, [_above(B <= r) for B in blocks]


def _ball_from_points(X, q):
    """:func:`_ball_held` of the geodesic distances between the unit rows of
    X, with no block of them built.  The pairs are sorted by their dot
    products, one matmul X[i:j] @ X[i:].T per block and pass, the same each
    pass; only those these cannot place get a distance, from the block
    kernel if they fill most of the block, else from the row-pair kernel.

    |x.y - cos d| <= delta = 64 D eps: a dot product is about D eps from the
    cosine of the angle, the kernel's d a few ulp from the angle, cos is
    1-Lipschitz, and delta leaves room for the float cos(r).  Order
    statistics move by at most delta, far less than a bin, so the pair of a
    ranked distance lies in its dot product's bin or a neighbor.  Pairs with
    x.y >= cos r + 2 delta are in the ball, <= cos r - 2 delta out; those
    between, all in those bins, are compared with r, unless their block's
    binned distances lie on one side of it.
    """
    n = len(X)
    ks, frac = _radius_ranks(n, q)

    def dots():
        return ((i, j, X[i:j] @ X[i:].T) for i, j in _upper_blocks(n))

    def bins(G):
        return ((G + 1.0) * (_DOT_BINS / 2)).astype(np.intp).clip(0, _DOT_BINS - 1)

    def exact(i, j, mask):
        if 2 * np.count_nonzero(mask) <= mask.size:
            return _pair_geodesic(X, *(k + i for k in np.nonzero(mask)))
        return pairwise_geodesic(X[i:j], X[i:])[mask]

    hist = np.zeros(_DOT_BINS + 1, dtype=np.intp)
    for i, j, G in dots():
        b = bins(G)
        b[:, :j - i][np.tri(j - i, dtype=bool)] = _DOT_BINS  # on and below the diagonal
        hist += np.bincount(b.ravel(), minlength=_DOT_BINS + 1)
    hist = hist[:_DOT_BINS]
    hi, lo = _DOT_BINS - 1 - np.searchsorted(np.cumsum(hist[::-1]), ks, side="right")
    above = int(hist[hi + 2:].sum())
    bounds = []  # the least and the greatest distance in each block's bins

    def binned():
        for i, j, G in dots():
            b = bins(G)
            d = exact(i, j, _above((b >= lo - 1) & (b <= hi + 1)))
            bounds.append((d.min(initial=np.inf), d.max(initial=-np.inf)))
            yield d

    r = _select(binned(), [k - above for k in ks], frac, int(hist[max(lo - 1, 0):hi + 2].sum()), n)
    delta = 64 * X.shape[1] * np.finfo(float).eps
    cut, ball = np.cos(r), []
    for (i, j, G), (least, most) in zip(dots(), bounds):
        M = G >= cut + 2 * delta
        edge = _above((G > cut - 2 * delta) & ~M)
        if most <= r:
            M |= edge
        elif least <= r and edge.any():
            M[edge] = exact(i, j, edge) <= r
        ball.append(_above(M))
    return r, ball


def _kmodes(n, q, ball_of):
    """Mode clustering of n points from the radius and the ball that
    ``ball_of()`` gives, as :func:`_ball_held` does, for the upper row
    blocks of :func:`_upper_blocks`.

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
    views = [(i, j, M) for (i, j), M in zip(_upper_blocks(n), ball_of()[1])]
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
    n = D.shape[0]
    return _kmodes(n, q, lambda: _ball_held(n, q, [D[i:j, i:] for i, j in _upper_blocks(n)]))


def kmodes_from_points(X, q: float = 0.1) -> Clustering:
    """:func:`kmodes_cluster` of the geodesic distances between the rows of X
    (n x D, normalized to the sphere), with the same labels, modes and sizes,
    and no n x n matrix: the pairs are sorted by their dot products, and
    only those near the radius get their distance, whose bits are the
    matrix's.

    Memory peaks near 0.64 n^2 bytes at any q on spread-out points: the
    ball, one byte per pair, and the few distances ranked.  n identical
    points, whose pairs all tie, peak near 1.5 n^2 bytes at q = 0.1 or 0.9,
    0.66 n^2 at q = 1.0, and 4.6 n^2 at q = 0.5, where half the pairs'
    distances are kept to rank.  ``KMODES_MAX_POINTS`` gives times.
    """
    X = _unit_rows(X)
    return _kmodes(len(X), q, lambda: _ball_from_points(X, q))


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
