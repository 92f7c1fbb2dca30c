import json

import numpy as np
import pytest

from bundlemw.errors import ClusterTooSmall, DimensionMismatch, EmptyCluster
from bundlemw.estimation import (
    OUTLIER,
    Clustering,
    _kmeanspp_indices,
    _offdiag_quantile,
    clustering_to_dict,
    fit_mixture,
    kmodes_cluster,
    riemannian_kmeans,
    save_clustering,
)
from bundlemw.gauss import GaussianMixture
from bundlemw.geometry import (
    MovingFrame,
    Point,
    frechet_mean,
    geodesic_distance,
    pairwise_geodesic,
)
from bundlemw.sampling import sample_mixture
from helpers import broadcast_geodesic, peak_alloc_bytes, random_frame, unit_rows


def cap_samples(rng, center, std, n):
    """Points scattered around a sphere point with tangent std ``std``, as rows."""
    pts = []
    c = np.asarray(center, dtype=float)
    c /= np.linalg.norm(c)
    for _ in range(n):
        pts.append(Point(c + std * rng.standard_normal(c.size)).coords)
    return np.array(pts)


def kmeanspp_from_full_matrix(X, K, rng):
    """k-means++ seeding read off the whole n x n distance matrix."""
    D = broadcast_geodesic(X, X)
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


def kmodes_by_row_loop(D, q):
    """Mode clustering with one Python pass per row for the ascent targets
    and one walk per point to its mode."""
    n = D.shape[0]
    off = D[~np.eye(n, dtype=bool)]
    if off.size == 0 or np.max(off) <= 0.0:
        return np.zeros(n, dtype=int), [0], [n]
    r = float(np.quantile(off, q))
    ball = (D <= r) & ~np.eye(n, dtype=bool)
    counts = ball.sum(axis=1)
    target = np.empty(n, dtype=int)
    for i in range(n):
        cand = np.append(np.flatnonzero(ball[i]), i)
        target[i] = cand[np.lexsort((cand, -counts[cand]))][0]
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
    return labels, modes, sizes


def tie_heavy_distmat(rng, n, isolated):
    """Symmetric integer distances in {1, ..., 12} with zero diagonal; the
    ``isolated`` rows sit at distance 20 from everything else."""
    A = rng.integers(1, 13, size=(n, n)).astype(float)
    D = np.triu(A, 1) + np.triu(A, 1).T
    lone = rng.choice(n, size=isolated, replace=False)
    D[lone, :] = D[:, lone] = 20.0
    np.fill_diagonal(D, 0.0)
    return D


class TestRiemannianKmeans:
    def test_single_cluster_is_frechet_mean(self):
        rng = np.random.default_rng(0)
        pts = cap_samples(rng, [0.0, 0.0, 1.0], 0.2, 40)
        out = riemannian_kmeans(pts, 1, seed=0)
        assert out.K == 1
        assert out.sizes == [40]
        assert out.converged
        ref = frechet_mean(pts)
        assert geodesic_distance(Point(out.centers[0]), ref) < 1e-8

    def test_two_separated_caps(self):
        rng = np.random.default_rng(1)
        a = cap_samples(rng, [0.0, 0.0, 1.0], 0.05, 200)
        b = cap_samples(rng, [1.0, 0.0, 0.0], 0.05, 200)
        truth = np.array([0] * 200 + [1] * 200)
        out = riemannian_kmeans(np.vstack([a, b]), 2, seed=3)
        assert out.converged
        # cluster numbering is arbitrary; align by majority vote
        flip = np.mean(out.labels[:200]) > 0.5
        pred = 1 - out.labels if flip else out.labels
        assert np.mean(pred == truth) >= 0.99

    def test_identical_points_resolved_by_empty_cluster_rule(self):
        pts = np.array([[0.0, 1.0, 0.0]] * 5)
        out = riemannian_kmeans(pts, 2, seed=0)
        assert sorted(out.sizes, reverse=True) == [4, 1]
        for c in out.centers:
            assert np.allclose(c, [0.0, 1.0, 0.0])

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        pts = cap_samples(rng, [0.0, 1.0, 0.0], 0.4, 60)
        r1 = riemannian_kmeans(pts, 3, seed=11)
        r2 = riemannian_kmeans(pts, 3, seed=11)
        assert np.array_equal(r1.labels, r2.labels)
        for c1, c2 in zip(r1.centers, r2.centers):
            assert np.array_equal(c1, c2)

    def test_too_few_points_raises(self):
        pts = np.array([[1.0, 0.0, 0.0]])
        with pytest.raises(EmptyCluster):
            riemannian_kmeans(pts, 2, seed=0)

    def test_every_cluster_nonempty(self):
        rng = np.random.default_rng(3)
        pts = cap_samples(rng, [0.0, 0.0, 1.0], 0.3, 30)
        out = riemannian_kmeans(pts, 5, seed=4)
        assert all(s >= 1 for s in out.sizes)
        assert sum(out.sizes) == 30

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 7])
    @pytest.mark.parametrize("K", [2, 4, 9])
    def test_seeding_matches_full_matrix(self, seed, K):
        rng = np.random.default_rng(seed)
        X = np.vstack([cap_samples(rng, c, 0.2, 50) for c in np.eye(3)])
        X[::7] = X[0]  # duplicate rows put zeros among the weights
        got = _kmeanspp_indices(X, K, np.random.default_rng(seed))
        assert got == kmeanspp_from_full_matrix(X, K, np.random.default_rng(seed))

    @pytest.mark.parametrize("seed", [0, 5])
    def test_seeding_of_identical_rows_matches_full_matrix(self, seed):
        X = np.array([[0.0, 0.6, 0.8]] * 12)
        got = _kmeanspp_indices(X, 5, np.random.default_rng(seed))
        assert got == kmeanspp_from_full_matrix(X, 5, np.random.default_rng(seed))

    def test_memory_is_linear_in_n(self):
        rng = np.random.default_rng(6)
        X = np.vstack([cap_samples(rng, c, 0.2, 1250) for c in np.eye(4)])
        assert peak_alloc_bytes(riemannian_kmeans, X, 4, seed=0) < 16 * 2**20


class TestKmodes:
    def two_blob_distmat(self):
        # 6 points: {0,1,2} mutually close, {3,4,5} mutually close, far apart
        D = np.full((6, 6), 10.0)
        for grp in ([0, 1, 2], [3, 4, 5]):
            for i in grp:
                for j in grp:
                    D[i, j] = 0.0 if i == j else 0.1
        return D

    def test_two_tight_clusters(self):
        out = kmodes_cluster(self.two_blob_distmat(), q=0.4)
        assert out.K == 2
        assert out.modes == [0, 3]
        assert list(out.labels) == [0, 0, 0, 1, 1, 1]
        assert out.outliers == []
        assert out.sizes == [3, 3]

    def test_isolated_point_is_outlier(self):
        D = np.full((5, 5), 0.1)
        np.fill_diagonal(D, 0.0)
        D[4, :] = D[:, 4] = 50.0
        D[4, 4] = 0.0
        out = kmodes_cluster(D, q=0.5)
        assert out.labels[4] == OUTLIER
        assert 4 in out.outliers
        assert set(out.labels[:4]) == {0}

    def test_all_zero_distances_single_cluster(self):
        out = kmodes_cluster(np.zeros((7, 7)))
        assert out.K == 1
        assert out.modes == [0]
        assert list(out.labels) == [0] * 7

    def test_depends_only_on_distmat(self):
        D = self.two_blob_distmat()
        perm = np.array([3, 0, 4, 1, 5, 2])
        Dp = D[np.ix_(perm, perm)]
        out = kmodes_cluster(D, q=0.4)
        outp = kmodes_cluster(Dp, q=0.4)
        # membership structure is preserved under relabeling
        for i in range(6):
            for j in range(6):
                same = out.labels[perm[i]] == out.labels[perm[j]]
                samep = outp.labels[i] == outp.labels[j]
                assert same == samep

    def test_real_sphere_data(self):
        rng = np.random.default_rng(5)
        a = cap_samples(rng, [0.0, 0.0, 1.0], 0.05, 60)
        b = cap_samples(rng, [1.0, 0.0, 0.0], 0.05, 60)
        X = np.vstack([a, b])
        # q must roughly match the within-cluster pair fraction; the default
        # 0.1 is below it here and would oversegment
        out = kmodes_cluster(pairwise_geodesic(X), q=0.3)
        assert out.K == 2
        first = set(out.labels[:60]) - {OUTLIER}
        second = set(out.labels[60:]) - {OUTLIER}
        assert len(first) == 1 and len(second) == 1 and first != second

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("q", [0.02, 0.1, 0.3, 1.0])
    def test_matches_row_loop_on_ties(self, seed, q):
        rng = np.random.default_rng(seed)
        D = tie_heavy_distmat(rng, int(rng.integers(2, 160)), isolated=seed % 3)
        out = kmodes_cluster(D, q=q)
        labels, modes, sizes = kmodes_by_row_loop(D, q)
        assert np.array_equal(out.labels, labels)
        assert out.modes == modes
        assert out.sizes == sizes

    @pytest.mark.parametrize("q", [0.02, 0.1])
    def test_matches_row_loop_on_sphere_data(self, q):
        rng = np.random.default_rng(12)
        X = np.vstack([cap_samples(rng, c, 0.15, 150) for c in np.eye(3)])
        D = pairwise_geodesic(X)
        out = kmodes_cluster(D, q=q)
        labels, modes, sizes = kmodes_by_row_loop(D, q)
        assert np.array_equal(out.labels, labels)
        assert out.modes == modes
        assert out.sizes == sizes

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("q", [0.002, 0.005])
    def test_repeated_points_with_a_tiny_diagonal_match_row_loop(self, seed, q):
        # r = 0 falls below the 1e-13 diagonal, yet each point stays in its own ball
        D = tie_heavy_distmat(np.random.default_rng(seed), 40, isolated=0)
        for i in range(0, 20, 2):
            D[i, i + 1] = D[i + 1, i] = 0.0
        np.fill_diagonal(D, 1e-13)
        out = kmodes_cluster(D, q=q)
        labels, modes, sizes = kmodes_by_row_loop(D, q)
        assert np.array_equal(out.labels, labels)
        assert out.modes == modes
        assert out.sizes == sizes

    @pytest.mark.parametrize("q, per_n2, slack_mib", [(0.1, 8 * 0.1, 2), (1.0, 4, 4)])
    def test_memory_is_the_quantile_buffer(self, q, per_n2, slack_mib):
        # 8 q n^2 bytes hold twice the ranked entries; from q = 0.5 on, the triangle
        n = 2000
        D = pairwise_geodesic(unit_rows(np.random.default_rng(13), n, 3))
        assert peak_alloc_bytes(kmodes_cluster, D, q=q) <= per_n2 * n * n + slack_mib * 2**20

    @staticmethod
    def assert_offdiag_quantile_is_numpys(D, q):
        off = D[~np.eye(D.shape[0], dtype=bool)]
        got, top = _offdiag_quantile(D, q)
        ref = np.quantile(off, q)
        assert np.float64(got).view(np.int64) == np.float64(ref).view(np.int64)
        assert top == np.max(off)

    @pytest.mark.parametrize("q", [1e-9, 0.02, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("n", [2, 3, 7, 160])
    def test_quantile_from_upper_triangle_is_bitwise_numpys(self, n, q):
        rng = np.random.default_rng(n)
        A = rng.random((n, n))
        for D in (np.triu(A, 1) + np.triu(A, 1).T, tie_heavy_distmat(rng, n, isolated=1),
                  np.full((n, n), 0.7) - 0.7 * np.eye(n)):
            self.assert_offdiag_quantile_is_numpys(D, q)

    @pytest.mark.parametrize("q", [1e-9, 0.02, 0.1, 0.5, 0.9])
    def test_quantile_streamed_through_many_refills_is_bitwise_numpys(self, q):
        D = pairwise_geodesic(unit_rows(np.random.default_rng(13), 2000, 3))
        self.assert_offdiag_quantile_is_numpys(D, q)

    def test_zero_off_diagonal_with_tiny_diagonal_is_one_cluster(self):
        D = np.zeros((5, 5))
        np.fill_diagonal(D, 1e-13)
        out = kmodes_cluster(D)
        assert out.modes == [0]
        assert list(out.labels) == [0] * 5

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, bad):
        D = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        D[0, 2] = D[2, 0] = bad
        with pytest.raises(ValueError):
            kmodes_cluster(D)

    def test_validation(self):
        with pytest.raises(ValueError):
            kmodes_cluster(np.zeros((2, 3)))
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            kmodes_cluster(bad)
        with pytest.raises(ValueError):
            kmodes_cluster(np.zeros((3, 3)), q=0.0)


class TestFitMixture:
    def test_two_point_cluster_formula(self):
        # tangent coordinates +-a along the first frame direction give
        # variance 2a^2 with the n-1 divisor
        frame = MovingFrame(Point([0.0, 0.0, 1.0]), np.eye(3)[:2])
        a = 0.3
        pts = np.array([
            Point([np.sin(a), 0.0, np.cos(a)]).coords,
            Point([-np.sin(a), 0.0, np.cos(a)]).coords,
        ])
        clus = Clustering(
            labels=np.array([0, 0]), sizes=[2], centers=[[0.0, 0.0, 1.0]]
        )
        mix = fit_mixture(pts, clus, frame)
        assert mix.K == 1
        cov = mix.covs[0]
        assert cov[0, 0] == pytest.approx(2 * a * a, abs=1e-12)
        assert abs(cov[0, 1]) < 1e-12 and abs(cov[1, 1]) < 1e-12

    def test_identical_points_zero_covariance(self):
        frame = random_frame(Point([0.0, 0.0, 1.0]), 0)
        p = Point([0.0, 1.0, 0.0])
        clus = Clustering(labels=np.zeros(4, dtype=int), sizes=[4], centers=[p.coords])
        mix = fit_mixture(np.array([p.coords] * 4), clus, frame)
        assert np.allclose(mix.covs[0], 0.0)
        assert np.allclose(mix.means[0], p.coords)

    def test_small_cluster_rejected(self):
        frame = random_frame(Point([0.0, 0.0, 1.0]), 0)
        clus = Clustering(
            labels=np.array([0, 0, 1]),
            sizes=[2, 1],
            centers=[[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
        )
        pts = np.array([[0.0, 0.1, 1.0], [0.1, 0.0, 1.0], [1.0, 0.1, 0.0]])
        with pytest.raises(ClusterTooSmall):
            fit_mixture(pts, clus, frame)

    def test_sample_dimension_must_match_the_frame(self):
        frame = random_frame(Point([0.0, 0.0, 0.0, 1.0]), 0)
        pts = cap_samples(np.random.default_rng(8), [0.0, 0.0, 1.0], 0.05, 6)
        clus = Clustering(labels=np.zeros(6, dtype=int), sizes=[6], centers=[[0.0, 0.0, 1.0]])
        with pytest.raises(DimensionMismatch, match="3.*4"):
            fit_mixture(pts, clus, frame)

    def test_outliers_excluded_from_weights(self):
        frame = random_frame(Point([0.0, 0.0, 1.0]), 0)
        rng = np.random.default_rng(6)
        pts = np.vstack([cap_samples(rng, [0.0, 0.0, 1.0], 0.05, 8), [[1.0, 0.0, 0.0]]])
        labels = np.array([0] * 8 + [OUTLIER])
        clus = Clustering(labels=labels, sizes=[8], modes=[0])
        mix = fit_mixture(pts, clus, frame)
        assert mix.weights[0] == pytest.approx(1.0)
        # mode point is used as the mean
        assert np.array_equal(mix.means[0], pts[0])

    def test_round_trip_recovery(self):
        frame = random_frame(Point([0.0, 0.0, 1.0]), 1)
        truth = GaussianMixture(
            [0.5, 0.5],
            [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
            [0.01 * np.eye(2), 0.01 * np.eye(2)],
            frame,
        )
        pts, _ = sample_mixture(truth, 3000, seed=7)
        clus = riemannian_kmeans(pts, 2, seed=0)
        mix = fit_mixture(pts, clus, frame)
        assert mix.K == 2
        # match fitted components to truth by basepoint
        for m in truth.means:
            dists = [geodesic_distance(Point(m), Point(h)) for h in mix.means]
            j = int(np.argmin(dists))
            assert dists[j] < 0.05
            assert abs(mix.weights[j] - 0.5) < 0.03
            rel = np.linalg.norm(mix.covs[j] - 0.01 * np.eye(2)) / 0.01 / np.sqrt(2)
            assert rel < 0.10

    def test_weights_form_simplex_and_covs_psd(self):
        rng = np.random.default_rng(8)
        frame = random_frame(Point([0.0, 0.0, 1.0]), 2)
        pts = cap_samples(rng, [0.0, 0.3, 1.0], 0.3, 90)
        clus = riemannian_kmeans(pts, 3, seed=1)
        mix = fit_mixture(pts, clus, frame)
        assert mix.weights.sum() == pytest.approx(1.0)
        for S in mix.covs:
            assert np.min(np.linalg.eigvalsh(S)) > -1e-12


class TestClusteringIO:
    def test_roundtrip_kmeans(self, tmp_path):
        rng = np.random.default_rng(9)
        pts = cap_samples(rng, [0.0, 0.0, 1.0], 0.3, 20)
        out = riemannian_kmeans(pts, 2, seed=5)
        path = tmp_path / "clustering.json"
        save_clustering(path, out)
        back = json.loads(path.read_text())
        assert back == clustering_to_dict(out)
        assert back["labels"] == out.labels.tolist()
        assert back["modes"] is None
        assert np.array_equal(back["centers"], out.centers)

    def test_roundtrip_kmodes(self, tmp_path):
        D = np.zeros((4, 4))
        D[0, 3] = D[3, 0] = 5.0
        D[1, 3] = D[3, 1] = 5.0
        D[2, 3] = D[3, 2] = 5.0
        D[0, 1] = D[1, 0] = D[0, 2] = D[2, 0] = D[1, 2] = D[2, 1] = 0.1
        out = kmodes_cluster(D, q=0.4)
        d = clustering_to_dict(out)
        assert set(d) == {"labels", "sizes", "modes", "centers", "outliers", "converged"}
        assert d["labels"] == out.labels.tolist()
        assert d["modes"] == out.modes
        assert d["outliers"] == out.outliers
        assert d["centers"] is None

    def test_inconsistent_sizes_rejected(self):
        with pytest.raises(ValueError):
            Clustering(labels=np.array([0, 0, 1]), sizes=[1, 1])
        with pytest.raises(ValueError):
            Clustering(labels=np.array([0, 2]), sizes=[1, 1])
