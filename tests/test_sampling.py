import numpy as np
import pytest

from bundlemw.gauss import GaussianMixture
from bundlemw.geometry import (
    frechet_mean,
    log_batch,
    transport_frame,
)
from bundlemw.sampling import (
    load_samples,
    sample_mixture,
    save_samples,
)
from helpers import geodesic, random_frame, unit


@pytest.fixture
def frame3():
    return random_frame([0.0, 0.0, 1.0], 0)


def sample_one(m, cov, frame, n, seed, stats=None):
    """n points from the bundle Gaussian at unit basepoint m: a K = 1 mixture."""
    mix = GaussianMixture([1.0], [m], [cov], frame)
    return sample_mixture(mix, n, seed, stats=stats)[0]


class TestSampleGaussian:
    def test_zero_covariance_returns_basepoint(self, frame3):
        m = unit([0.0, 1.0, 0.0])
        pts = sample_one(m, np.zeros((2, 2)), frame3, 7, seed=1)
        assert len(pts) == 7
        for p in pts:
            assert np.allclose(p, m, atol=1e-15)

    def test_deterministic_given_seed(self, frame3):
        a = sample_one([0.0, 0.0, 1.0], 0.05 * np.eye(2), frame3, 50, seed=9)
        b = sample_one([0.0, 0.0, 1.0], 0.05 * np.eye(2), frame3, 50, seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        c = sample_one([0.0, 0.0, 1.0], 0.05 * np.eye(2), frame3, 50, seed=10)
        assert not np.allclose(a[0], c[0])

    def test_outputs_unit_norm(self, frame3):
        pts = sample_one([0.0, 0.0, 1.0], 0.5 * np.eye(2), frame3, 200, seed=2)
        for p in pts:
            assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-12)

    def test_statistical_recovery(self, frame3):
        m = unit([0.0, 0.0, 1.0])
        sigma = 0.01 * np.eye(2)
        pts = sample_one(m, sigma, frame3, 5000, seed=3)
        mean = frechet_mean(pts)
        assert geodesic(mean, m) < 0.05
        V = log_batch(mean, pts) @ transport_frame(frame3, mean).T
        S = V.T @ V / (len(pts) - 1)
        assert np.linalg.norm(S - sigma) / np.linalg.norm(sigma) < 0.10

    def test_truncation_stats_recorded(self, frame3):
        # enormous covariance forces redraws at the cut locus
        stats = {}
        sample_one([0.0, 0.0, 1.0], 4.0 * np.eye(2), frame3, 500, seed=4, stats=stats)
        assert stats["accepted"] == 500
        assert stats["rejected"] > 0

    def test_small_covariance_no_rejections(self, frame3):
        stats = {}
        sample_one([0.0, 0.0, 1.0], 0.01 * np.eye(2), frame3, 500, seed=5, stats=stats)
        assert stats == {"rejected": 0, "accepted": 500}

    def test_n_validation(self, frame3):
        with pytest.raises(ValueError):
            sample_one([0.0, 0.0, 1.0], np.eye(2), frame3, 0, seed=0)


class TestSampleMixture:
    def make(self, frame, weights):
        K = len(weights)
        means = [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]][:K]
        return GaussianMixture(weights, means, [0.02 * np.eye(2), 0.01 * np.eye(2)][:K], frame)

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
            assert geodesic(p, mix.means[lab]) < 1.0


class TestSamplesIO:
    def test_roundtrip(self, tmp_path, frame3):
        mix = GaussianMixture(
            [0.6, 0.4],
            [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
            [0.02 * np.eye(2), 0.01 * np.eye(2)],
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
        pts = sample_one([0.0, 0.0, 1.0], 0.01 * np.eye(2), frame3, 3, seed=12)
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
