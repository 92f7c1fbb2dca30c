import numpy as np
import pytest

from bundlemw.gauss import BundleGaussian, GaussianMixture
from bundlemw.geometry import (
    Point,
    build_reference_frame,
    frechet_mean,
    geodesic_distance,
    log_batch,
    transport_frame,
)
from bundlemw.sampling import (
    load_samples,
    sample_gaussian,
    sample_mixture,
    save_samples,
)


@pytest.fixture
def frame3():
    return build_reference_frame(Point([0.0, 0.0, 1.0]), rng_seed=0)


class TestSampleGaussian:
    def test_zero_covariance_returns_basepoint(self, frame3):
        m = Point([0.0, 1.0, 0.0])
        g = BundleGaussian(m, np.zeros((2, 2)))
        pts = sample_gaussian(g, frame3, 7, seed=1)
        assert len(pts) == 7
        for p in pts:
            assert np.allclose(p, m.coords, atol=1e-15)

    def test_deterministic_given_seed(self, frame3):
        g = BundleGaussian(Point([0.0, 0.0, 1.0]), 0.05 * np.eye(2))
        a = sample_gaussian(g, frame3, 50, seed=9)
        b = sample_gaussian(g, frame3, 50, seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        c = sample_gaussian(g, frame3, 50, seed=10)
        assert not np.allclose(a[0], c[0])

    def test_outputs_unit_norm(self, frame3):
        g = BundleGaussian(Point([0.0, 0.0, 1.0]), 0.5 * np.eye(2))
        pts = sample_gaussian(g, frame3, 200, seed=2)
        for p in pts:
            assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-12)

    def test_statistical_recovery(self, frame3):
        m = Point([0.0, 0.0, 1.0])
        sigma = 0.01 * np.eye(2)
        g = BundleGaussian(m, sigma)
        pts = sample_gaussian(g, frame3, 5000, seed=3)
        mean = frechet_mean(pts)
        assert geodesic_distance(mean, m) < 0.05
        local = transport_frame(frame3, mean)
        V = log_batch(mean.coords, pts) @ local.matrix.T
        S = V.T @ V / (len(pts) - 1)
        assert np.linalg.norm(S - sigma) / np.linalg.norm(sigma) < 0.10

    def test_truncation_stats_recorded(self, frame3):
        # enormous covariance forces redraws at the cut locus
        g = BundleGaussian(Point([0.0, 0.0, 1.0]), 4.0 * np.eye(2))
        stats = {}
        sample_gaussian(g, frame3, 500, seed=4, stats=stats)
        assert stats["accepted"] == 500
        assert stats["rejected"] > 0

    def test_small_covariance_no_rejections(self, frame3):
        g = BundleGaussian(Point([0.0, 0.0, 1.0]), 0.01 * np.eye(2))
        stats = {}
        sample_gaussian(g, frame3, 500, seed=5, stats=stats)
        assert stats == {"rejected": 0, "accepted": 500}

    def test_n_validation(self, frame3):
        g = BundleGaussian(Point([0.0, 0.0, 1.0]), np.eye(2))
        with pytest.raises(ValueError):
            sample_gaussian(g, frame3, 0, seed=0)


class TestSampleMixture:
    def make(self, frame, weights):
        comps = [
            BundleGaussian(Point([0.0, 0.0, 1.0]), 0.02 * np.eye(2)),
            BundleGaussian(Point([1.0, 0.0, 0.0]), 0.01 * np.eye(2)),
        ][: len(weights)]
        return GaussianMixture(weights, comps, frame)

    def test_single_component_matches_sample_gaussian(self, frame3):
        mix = self.make(frame3, [1.0])
        pts, labels = sample_mixture(mix, 40, seed=6)
        ref = sample_gaussian(mix.components[0], frame3, 40, seed=6)
        assert labels.tolist() == [0] * 40
        for a, b in zip(pts, ref):
            assert np.array_equal(a, b)

    def test_degenerate_weights_all_one_label(self, frame3):
        mix = self.make(frame3, [1.0, 0.0])
        _, labels = sample_mixture(mix, 100, seed=7)
        assert set(labels) == {0}

    def test_label_frequencies(self, frame3):
        mix = self.make(frame3, [0.7, 0.3])
        _, labels = sample_mixture(mix, 10000, seed=8)
        freq = np.bincount(labels, minlength=2) / 10000
        assert abs(freq[0] - 0.7) < 0.02
        assert abs(freq[1] - 0.3) < 0.02

    def test_component_streams_independent_of_label_order(self, frame3):
        # the first point drawn for component 1 matches across mixtures
        # with different weights (different label sequences)
        mix_a = self.make(frame3, [0.5, 0.5])
        mix_b = self.make(frame3, [0.1, 0.9])
        pts_a, lab_a = sample_mixture(mix_a, 200, seed=9)
        pts_b, lab_b = sample_mixture(mix_b, 200, seed=9)
        first_a = pts_a[list(lab_a).index(1)]
        first_b = pts_b[list(lab_b).index(1)]
        assert np.array_equal(first_a, first_b)

    def test_points_correspond_to_labels(self, frame3):
        mix = self.make(frame3, [0.5, 0.5])
        pts, labels = sample_mixture(mix, 400, seed=10)
        for p, lab in zip(pts, labels):
            m = mix.components[lab].basepoint
            assert geodesic_distance(Point(p), m) < 1.0


class TestSamplesIO:
    def test_roundtrip(self, tmp_path, frame3):
        mix = GaussianMixture(
            [0.6, 0.4],
            [
                BundleGaussian(Point([0.0, 0.0, 1.0]), 0.02 * np.eye(2)),
                BundleGaussian(Point([1.0, 0.0, 0.0]), 0.01 * np.eye(2)),
            ],
            frame3,
        )
        pts, labels = sample_mixture(mix, 25, seed=11)
        path = tmp_path / "samples.csv"
        save_samples(path, pts, labels)
        X, lab = load_samples(path)
        assert X.shape == (25, 3)
        assert np.array_equal(lab, labels)
        assert np.max(np.abs(X - pts)) == 0.0

    def test_header_written(self, tmp_path, frame3):
        g = BundleGaussian(Point([0.0, 0.0, 1.0]), 0.01 * np.eye(2))
        pts = sample_gaussian(g, frame3, 3, seed=12)
        path = tmp_path / "samples.csv"
        save_samples(path, pts)
        first = path.read_text().splitlines()[0]
        assert first == "x0,x1,x2,label"
        X, lab = load_samples(path)
        assert np.array_equal(lab, [-1, -1, -1])

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("x0,x1,x2,label\n")
        with pytest.raises(ValueError):
            load_samples(path)
