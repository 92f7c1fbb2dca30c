import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundlemw.errors import ClusterTooSmall, DimensionMismatch, EmptyCluster
from bundlemw.estimation import (
    OUTLIER,
    Clustering,
    _ball_from_points,
    _ball_held,
    _kmeanspp_indices,
    _upper_blocks,
    clustering_to_dict,
    fit_mixture,
    kmodes_cluster,
    kmodes_from_points,
    riemannian_kmeans,
    save_clustering,
)
from bundlemw.gauss import GaussianMixture
from bundlemw.geometry import (
    MovingFrame,
    _pair_geodesic,
    _unit_rows,
    frechet_mean,
    pairwise_geodesic,
)
from bundlemw.sampling import sample_mixture
from helpers import (
    broadcast_geodesic,
    geodesic,
    peak_alloc_bytes,
    random_frame,
    unit,
    unit_rows,
)


def cap_samples(rng, center, std, n):
    """Points scattered around a sphere point with tangent std ``std``, as rows."""
    pts = []
    c = np.asarray(center, dtype=float)
    c /= np.linalg.norm(c)
    for _ in range(n):
        pts.append(unit(c + std * rng.standard_normal(c.size)))
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


def assert_matches_row_loop(out, D, q):
    labels, modes, sizes = kmodes_by_row_loop(D, q)
    assert np.array_equal(out.labels, labels)
    assert out.modes == modes
    assert out.sizes == sizes


def repeated_blob_points(rng, n, D):
    """n points of four blobs in R^D, a third of them exact copies of others,
    so that distances tie at 0 and wherever a copied pair repeats one."""
    X = rng.standard_normal((4, D))[rng.integers(0, 4, n)] + 0.3 * rng.standard_normal((n, D))
    X[rng.choice(n, n // 3, replace=False)] = X[rng.integers(0, n, n // 3)]
    return X


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
        assert geodesic(out.centers[0], ref) < 1e-8

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
        assert_matches_row_loop(out, D, q)

    @pytest.mark.parametrize("q", [0.02, 0.1])
    def test_matches_row_loop_on_sphere_data(self, q):
        rng = np.random.default_rng(12)
        X = np.vstack([cap_samples(rng, c, 0.15, 150) for c in np.eye(3)])
        D = pairwise_geodesic(X)
        out = kmodes_cluster(D, q=q)
        assert_matches_row_loop(out, D, q)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("q", [0.002, 0.005])
    def test_repeated_points_with_a_tiny_diagonal_match_row_loop(self, seed, q):
        # r = 0 falls below the 1e-13 diagonal, yet each point stays in its own ball
        D = tie_heavy_distmat(np.random.default_rng(seed), 40, isolated=0)
        for i in range(0, 20, 2):
            D[i, i + 1] = D[i + 1, i] = 0.0
        np.fill_diagonal(D, 1e-13)
        out = kmodes_cluster(D, q=q)
        assert_matches_row_loop(out, D, q)

    @pytest.mark.parametrize("q, per_n2, slack_mib", [(0.1, 8 * 0.1, 2), (1.0, 4, 4)])
    def test_memory_is_the_quantile_buffer(self, q, per_n2, slack_mib):
        # 8 q n^2 bytes hold twice the ranked entries; from q = 0.5 on, the triangle
        n = 2000
        D = pairwise_geodesic(unit_rows(np.random.default_rng(13), n, 3))
        assert peak_alloc_bytes(kmodes_cluster, D, q=q) <= per_n2 * n * n + slack_mib * 2**20

    @staticmethod
    def assert_offdiag_quantile_is_numpys(D, q, X=None):
        # the radius is bitwise numpy's quantile, and the ball is every
        # upper-triangle cell of the row blocks within it: from the blocks of
        # the matrix and, given its points, from their dot products
        n = D.shape[0]
        ref = np.quantile(D[~np.eye(n, dtype=bool)], q)
        spans = list(_upper_blocks(n))
        ball = [(D[i:j, i:] <= ref) & np.triu(np.ones((j - i, n - i), dtype=bool), 1)
                for i, j in spans]
        balls = [_ball_held(n, q, [D[i:j, i:] for i, j in spans])]
        if X is not None:
            balls.append(_ball_from_points(X, q))
        for got, masks in balls:
            assert np.float64(got).view(np.int64) == np.float64(ref).view(np.int64)
            assert len(masks) == len(ball)
            assert all(np.array_equal(m, b) for m, b in zip(masks, ball))

    @pytest.mark.parametrize("q", [1e-9, 0.02, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("n", [2, 3, 7, 160])
    def test_quantile_from_upper_triangle_is_bitwise_numpys(self, n, q):
        rng = np.random.default_rng(n)
        A = rng.random((n, n))
        for D in (np.triu(A, 1) + np.triu(A, 1).T, tie_heavy_distmat(rng, n, isolated=1),
                  np.full((n, n), 0.7) - 0.7 * np.eye(n)):
            self.assert_offdiag_quantile_is_numpys(D, q)

    @pytest.mark.parametrize("q", [1e-9, 0.02, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("n", [2, 3, 7, 160])
    def test_quantile_from_points_is_bitwise_numpys(self, n, q):
        # spread-out points, five places that tie every distance, one place
        rng = np.random.default_rng(n)
        for X in (unit_rows(rng, n, 3), unit_rows(rng, 5, 4)[rng.integers(0, 5, n)],
                  np.tile(unit_rows(rng, 1, 3), (n, 1))):
            self.assert_offdiag_quantile_is_numpys(pairwise_geodesic(X), q, X)

    @pytest.mark.parametrize("q", [1e-9, 0.02, 0.1, 0.5, 0.9])
    def test_quantile_streamed_through_many_refills_is_bitwise_numpys(self, q):
        X = unit_rows(np.random.default_rng(13), 2000, 3)
        self.assert_offdiag_quantile_is_numpys(pairwise_geodesic(X), q, X)

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


class TestKmodesFromPoints:
    """The points entry runs the matrix path's rule on distances it computes
    in blocks: labels, modes and sizes are those of kmodes_cluster."""

    @staticmethod
    def assert_matches_matrix_and_row_loop(X, q):
        out = kmodes_from_points(X, q)
        D = pairwise_geodesic(_unit_rows(X))
        ref = kmodes_cluster(D, q)
        assert np.array_equal(out.labels, ref.labels)
        assert out.modes == ref.modes and out.sizes == ref.sizes
        assert_matches_row_loop(out, D, q)

    @pytest.mark.parametrize("D", [3, 8, 59])
    @pytest.mark.parametrize("q", [0.02, 0.1, 0.5, 1.0])
    def test_matches_matrix_path_and_row_loop(self, D, q):
        # n = 400 overflows the streamed buffer at q <= 0.1
        self.assert_matches_matrix_and_row_loop(
            repeated_blob_points(np.random.default_rng(D), 400, D), q)

    @pytest.mark.parametrize("q", [0.02, 0.1, 0.5, 1.0])
    def test_few_distinct_points_tie_at_the_radius(self, q):
        # five places, 80 points each: distances take at most 11 values
        rng = np.random.default_rng(7)
        X = rng.standard_normal((5, 3))[np.repeat(np.arange(5), 80)]
        D = pairwise_geodesic(_unit_rows(X))
        r = np.quantile(D[~np.eye(400, dtype=bool)], q)
        assert np.count_nonzero(np.triu(D == r, 1)) > 1
        self.assert_matches_matrix_and_row_loop(X, q)

    @pytest.mark.parametrize("q", [0.002, 0.02, 0.1])
    def test_points_on_ties_match_row_loop(self, q):
        # n = 700 overflows the buffer: twelve places tie every distance,
        # and two lone points sit apart from them
        rng = np.random.default_rng(3)
        X = np.vstack([unit_rows(rng, 12, 3)[rng.integers(0, 12, 698)], unit_rows(rng, 2, 3)])
        self.assert_matches_matrix_and_row_loop(X, q)

    @pytest.mark.parametrize("D", [2, 3, 7, 8, 9, 59])
    def test_row_pair_kernel_has_the_matrix_bits(self, D):
        # both layouts, with copies, antipodes and orthogonal pairs among the rows
        rng = np.random.default_rng(D)
        X = unit_rows(rng, 300, D)
        X[::5], X[1::7], X[2::11] = X[3], -X[4], np.eye(D)[rng.integers(0, D, 28)]
        a, b = rng.integers(0, 300, 4000), rng.integers(0, 300, 4000)
        got = _pair_geodesic(X, a, b)
        assert got.tobytes() == pairwise_geodesic(X)[a, b].tobytes()

    @pytest.mark.parametrize("q", [1e-9, 0.02, 0.1, 0.5, 1.0])
    def test_near_duplicates_whose_dot_products_round_to_one(self, q):
        rng = np.random.default_rng(8)
        X = unit_rows(rng, 4, 3)[rng.integers(0, 4, 300)] + 1e-9 * rng.standard_normal((300, 3))
        Xu = _unit_rows(X)
        assert np.mean((Xu @ Xu.T)[np.triu_indices(300, 1)] == 1.0) > 0.05
        self.assert_matches_matrix_and_row_loop(X, q)

    @pytest.mark.parametrize("q", [0.5, 0.9, 1.0])
    def test_antipodal_pairs(self, q):
        Y = unit_rows(np.random.default_rng(9), 150, 3)
        X = np.vstack([Y, -Y, -Y[:20]])
        self.assert_matches_matrix_and_row_loop(X, q)
        self.assert_matches_matrix_and_row_loop(np.vstack([Y[:1], -Y[:1]] * 40), q)

    @pytest.mark.parametrize("q", [0.02, 0.1, 0.5, 1.0])
    def test_pairs_that_straddle_orthogonal(self, q):
        # x.y within 1e-12 of 0, where the kernel turns from chords to cochords
        rng = np.random.default_rng(10)
        X = np.eye(4)[rng.integers(0, 4, 300)] + 1e-12 * rng.standard_normal((300, 4))
        dots = (_unit_rows(X) @ _unit_rows(X).T)[np.triu_indices(300, 1)]
        assert (dots > 0).any() and (dots < 0).any() and np.abs(dots[np.abs(dots) < 0.5]).max() < 1e-11
        self.assert_matches_matrix_and_row_loop(X, q)

    @pytest.mark.parametrize("q", [0.1, 1.0])
    @pytest.mark.parametrize("points", ["spread", "blobs"])
    def test_memory_is_the_ball(self, points, q):
        # one byte per pair for the ball, and the few distances ranked
        n = 2000
        rng = np.random.default_rng(13)
        X = unit_rows(rng, n, 3) if points == "spread" else repeated_blob_points(rng, n, 3)
        assert peak_alloc_bytes(kmodes_from_points, X, q=q) <= 0.75 * n * n

    @pytest.mark.parametrize("q", [0.9, 1.0])
    def test_memory_on_ties_with_the_rank_in_the_upper_half(self, q):
        # every pair ties, so every distance is ranked; the selection keeps
        # the pairs above the rank, not those below it
        n = 2000
        X = np.tile([0.3, -0.2, 0.9], (n, 1))
        assert peak_alloc_bytes(kmodes_from_points, X, q=q) <= 1.6 * n * n

    @pytest.mark.parametrize("q", [0.02, 0.1, 1.0])
    @pytest.mark.parametrize("n", [2, 3, 400])
    def test_identical_points_are_one_cluster(self, n, q):
        out = kmodes_from_points(np.tile([0.3, -0.2, 0.9], (n, 1)), q)
        assert out.modes == [0] and out.sizes == [n]
        assert list(out.labels) == [0] * n

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("q", [0.02, 0.1, 0.5, 1.0])
    def test_two_and_three_points(self, n, q):
        X = np.random.default_rng(n).standard_normal((n, 4))
        self.assert_matches_matrix_and_row_loop(X, q)
        self.assert_matches_matrix_and_row_loop(np.vstack([X[:1], X[:1], X[1:]])[:n], q)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 30), st.integers(1, 30),
           st.integers(2, 5), st.floats(1e-6, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_small_point_sets_with_duplicates(self, seed, n, distinct, D, q):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((distinct, D))[rng.integers(0, distinct, n)]
        self.assert_matches_matrix_and_row_loop(X, q)

    def test_validation(self):
        with pytest.raises(ValueError):
            kmodes_from_points(np.eye(3), q=0.0)
        with pytest.raises(ValueError):
            kmodes_from_points(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            kmodes_from_points(np.ones((3, 1)))


class TestFitMixture:
    def test_two_point_cluster_formula(self):
        # tangent coordinates +-a along the first frame direction give
        # variance 2a^2 with the n-1 divisor
        frame = MovingFrame([0.0, 0.0, 1.0], np.eye(3)[:2])
        a = 0.3
        pts = np.array([
            unit([np.sin(a), 0.0, np.cos(a)]),
            unit([-np.sin(a), 0.0, np.cos(a)]),
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
        frame = random_frame([0.0, 0.0, 1.0], 0)
        p = unit([0.0, 1.0, 0.0])
        clus = Clustering(labels=np.zeros(4, dtype=int), sizes=[4], centers=[p])
        mix = fit_mixture(np.array([p] * 4), clus, frame)
        assert np.allclose(mix.covs[0], 0.0)
        assert np.allclose(mix.means[0], p)

    def test_small_cluster_rejected(self):
        frame = random_frame([0.0, 0.0, 1.0], 0)
        clus = Clustering(
            labels=np.array([0, 0, 1]),
            sizes=[2, 1],
            centers=[[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
        )
        pts = np.array([[0.0, 0.1, 1.0], [0.1, 0.0, 1.0], [1.0, 0.1, 0.0]])
        with pytest.raises(ClusterTooSmall):
            fit_mixture(pts, clus, frame)

    def test_sample_dimension_must_match_the_frame(self):
        frame = random_frame([0.0, 0.0, 0.0, 1.0], 0)
        pts = cap_samples(np.random.default_rng(8), [0.0, 0.0, 1.0], 0.05, 6)
        clus = Clustering(labels=np.zeros(6, dtype=int), sizes=[6], centers=[[0.0, 0.0, 1.0]])
        with pytest.raises(DimensionMismatch, match="3.*4"):
            fit_mixture(pts, clus, frame)

    def test_outliers_excluded_from_weights(self):
        frame = random_frame([0.0, 0.0, 1.0], 0)
        rng = np.random.default_rng(6)
        pts = np.vstack([cap_samples(rng, [0.0, 0.0, 1.0], 0.05, 8), [[1.0, 0.0, 0.0]]])
        labels = np.array([0] * 8 + [OUTLIER])
        clus = Clustering(labels=labels, sizes=[8], modes=[0])
        mix = fit_mixture(pts, clus, frame)
        assert mix.weights[0] == pytest.approx(1.0)
        # mode point is used as the mean
        assert np.array_equal(mix.means[0], pts[0])

    def test_round_trip_recovery(self):
        frame = random_frame([0.0, 0.0, 1.0], 1)
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
            dists = [geodesic(m, h) for h in mix.means]
            j = int(np.argmin(dists))
            assert dists[j] < 0.05
            assert abs(mix.weights[j] - 0.5) < 0.03
            rel = np.linalg.norm(mix.covs[j] - 0.01 * np.eye(2)) / 0.01 / np.sqrt(2)
            assert rel < 0.10

    def test_weights_form_simplex_and_covs_psd(self):
        rng = np.random.default_rng(8)
        frame = random_frame([0.0, 0.0, 1.0], 2)
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
