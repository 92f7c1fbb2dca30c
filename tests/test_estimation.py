import numpy as np
import pytest

from bundlemw.errors import ClusterTooSmall, EmptyCluster
from bundlemw.estimation import (
    OUTLIER,
    Clustering,
    clustering_from_dict,
    clustering_to_dict,
    fit_mixture,
    kmodes_cluster,
    load_clustering,
    riemannian_kmeans,
    save_clustering,
)
from bundlemw.gauss import BundleGaussian, GaussianMixture
from bundlemw.geometry import (
    Point,
    build_reference_frame,
    frechet_mean,
    geodesic_distance,
    pairwise_geodesic,
)
from bundlemw.sampling import sample_gaussian, sample_mixture


def cap_samples(rng, center, std, n):
    """Points scattered around a sphere point with tangent std ``std``, as rows."""
    pts = []
    c = np.asarray(center, dtype=float)
    c /= np.linalg.norm(c)
    for _ in range(n):
        pts.append(Point(c + std * rng.standard_normal(c.size)).coords)
    return np.array(pts)


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
        frame = build_reference_frame(Point([0.0, 0.0, 1.0]), basis=np.eye(3)[:2])
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
        cov = mix.components[0].cov.mat
        assert cov[0, 0] == pytest.approx(2 * a * a, abs=1e-12)
        assert abs(cov[0, 1]) < 1e-12 and abs(cov[1, 1]) < 1e-12

    def test_identical_points_zero_covariance(self):
        frame = build_reference_frame(Point([0.0, 0.0, 1.0]), rng_seed=0)
        p = Point([0.0, 1.0, 0.0])
        clus = Clustering(labels=np.zeros(4, dtype=int), sizes=[4], centers=[p.coords])
        mix = fit_mixture(np.array([p.coords] * 4), clus, frame)
        assert np.allclose(mix.components[0].cov.mat, 0.0)
        assert np.allclose(mix.components[0].basepoint.coords, p.coords)

    def test_small_cluster_rejected(self):
        frame = build_reference_frame(Point([0.0, 0.0, 1.0]), rng_seed=0)
        clus = Clustering(
            labels=np.array([0, 0, 1]),
            sizes=[2, 1],
            centers=[[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
        )
        pts = np.array([[0.0, 0.1, 1.0], [0.1, 0.0, 1.0], [1.0, 0.1, 0.0]])
        with pytest.raises(ClusterTooSmall):
            fit_mixture(pts, clus, frame)

    def test_outliers_excluded_from_weights(self):
        frame = build_reference_frame(Point([0.0, 0.0, 1.0]), rng_seed=0)
        rng = np.random.default_rng(6)
        pts = np.vstack([cap_samples(rng, [0.0, 0.0, 1.0], 0.05, 8), [[1.0, 0.0, 0.0]]])
        labels = np.array([0] * 8 + [OUTLIER])
        clus = Clustering(labels=labels, sizes=[8], modes=[0])
        mix = fit_mixture(pts, clus, frame)
        assert mix.weights[0] == pytest.approx(1.0)
        # mode point is used as the mean
        assert np.array_equal(mix.components[0].basepoint.coords, pts[0])

    def test_round_trip_recovery(self):
        frame = build_reference_frame(Point([0.0, 0.0, 1.0]), rng_seed=1)
        truth = GaussianMixture(
            [0.5, 0.5],
            [
                BundleGaussian(Point([0.0, 0.0, 1.0]), 0.01 * np.eye(2)),
                BundleGaussian(Point([1.0, 0.0, 0.0]), 0.01 * np.eye(2)),
            ],
            frame,
        )
        pts, _ = sample_mixture(truth, 3000, seed=7)
        clus = riemannian_kmeans(pts, 2, seed=0)
        mix = fit_mixture(pts, clus, frame)
        assert mix.K == 2
        # match fitted components to truth by basepoint
        for g in truth.components:
            dists = [geodesic_distance(g.basepoint, h.basepoint) for h in mix.components]
            j = int(np.argmin(dists))
            assert dists[j] < 0.05
            assert abs(mix.weights[j] - 0.5) < 0.03
            rel = np.linalg.norm(mix.components[j].cov.mat - 0.01 * np.eye(2)) / 0.01 / np.sqrt(2)
            assert rel < 0.10

    def test_weights_form_simplex_and_covs_psd(self):
        rng = np.random.default_rng(8)
        frame = build_reference_frame(Point([0.0, 0.0, 1.0]), rng_seed=2)
        pts = cap_samples(rng, [0.0, 0.3, 1.0], 0.3, 90)
        clus = riemannian_kmeans(pts, 3, seed=1)
        mix = fit_mixture(pts, clus, frame)
        assert mix.weights.sum() == pytest.approx(1.0)
        for g in mix.components:
            assert np.min(np.linalg.eigvalsh(g.cov.mat)) > -1e-12


class TestClusteringIO:
    def test_roundtrip_kmeans(self, tmp_path):
        rng = np.random.default_rng(9)
        pts = cap_samples(rng, [0.0, 0.0, 1.0], 0.3, 20)
        out = riemannian_kmeans(pts, 2, seed=5)
        path = tmp_path / "clustering.json"
        save_clustering(path, out)
        back = load_clustering(path)
        assert np.array_equal(back.labels, out.labels)
        assert back.sizes == out.sizes
        assert back.modes is None
        for a, b in zip(back.centers, out.centers):
            assert np.allclose(a, b)

    def test_roundtrip_kmodes(self, tmp_path):
        D = np.zeros((4, 4))
        D[0, 3] = D[3, 0] = 5.0
        D[1, 3] = D[3, 1] = 5.0
        D[2, 3] = D[3, 2] = 5.0
        D[0, 1] = D[1, 0] = D[0, 2] = D[2, 0] = D[1, 2] = D[2, 1] = 0.1
        out = kmodes_cluster(D, q=0.4)
        d = clustering_to_dict(out)
        assert set(d) == {"labels", "sizes", "modes", "centers", "outliers", "converged"}
        back = clustering_from_dict(d)
        assert np.array_equal(back.labels, out.labels)
        assert back.modes == out.modes
        assert back.outliers == out.outliers

    def test_inconsistent_sizes_rejected(self):
        with pytest.raises(ValueError):
            Clustering(labels=np.array([0, 0, 1]), sizes=[1, 1])
        with pytest.raises(ValueError):
            Clustering(labels=np.array([0, 2]), sizes=[1, 1])
