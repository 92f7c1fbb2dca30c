import numpy as np
import pytest
from scipy.linalg import sqrtm
from scipy.optimize import linear_sum_assignment

from bundlemw.errors import (
    DegenerateMatrix,
    DimensionMismatch,
    FrameMismatch,
    NotSymmetric,
)
from bundlemw.gauss import (
    GaussianMixture,
    _bures,
    _check_covs,
    check_same_frame,
    load_mixture,
    mixture_from_dict,
    mixture_to_dict,
    normalize_minimal_form,
    pairwise_w2sq,
    save_mixture,
)
from bundlemw.geometry import (
    _unit_rows,
    pairwise_geodesic,
    standard_frame,
)
from bundlemw.transport import mw2

from helpers import (
    eigh_roots,
    geodesic,
    loop_minimal_form,
    make_mixture,
    random_frame,
    random_spd,
    unit,
)


def check_cov(S):
    """One covariance through the stack check: the checked matrix and its root."""
    S, roots = _check_covs(np.array([S], dtype=float))
    return S[0], roots[0]


def bures(S0, S1):
    """The Bures term of one pair of covariances, by the stacked kernel."""
    A, roots = _check_covs(np.array([S0], dtype=float))
    B, _ = _check_covs(np.array([S1], dtype=float))
    return float(_bures(roots, A, B)[0, 0])


class TestCovarianceCheck:
    def test_symmetrizes_small_asymmetry(self):
        S, _ = check_cov([[1.0, 1e-8], [0.0, 2.0]])
        assert np.array_equal(S, S.T)

    def test_exactly_symmetric_stack_comes_back_as_it_is(self):
        S = np.array([random_spd(np.random.default_rng(0), 3)])
        assert _check_covs(S)[0] is S

    def test_rejects_large_asymmetry(self):
        with pytest.raises(NotSymmetric):
            check_cov([[1.0, 0.5], [0.0, 1.0]])

    def test_overflowing_asymmetry_is_not_symmetric(self):
        with np.errstate(all="raise"), pytest.raises(NotSymmetric):
            check_cov([[1.0, 1e308], [-1e308, 1.0]])

    def test_rejects_negative_definite(self):
        with pytest.raises(DegenerateMatrix):
            check_cov([[-1.0, 0.0], [0.0, 1.0]])

    def test_allows_rank_deficient(self):
        S, _ = check_cov([[1.0, 0.0], [0.0, 0.0]])
        assert S.shape == (2, 2)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            check_cov(np.zeros((2, 3)))


class TestRoots:
    """The roots a mixture or a matrix keeps are the eigh roots, bit for bit."""

    @pytest.mark.parametrize("d", [2, 5, 59])
    @pytest.mark.parametrize("rank", [None, 1])
    def test_roots_are_eigh_roots(self, d, rank):
        rng = np.random.default_rng(d)
        if rank is None:
            S = np.array([random_spd(rng, d) for _ in range(3)])
        else:
            # rank 1: the other eigenvalues are zero or roundoff, some below zero
            F = rng.standard_normal((3, d, rank))
            S = F @ np.swapaxes(F, 1, 2)
            S = 0.5 * (S + np.swapaxes(S, 1, 2))
        f = standard_frame(d + 1)
        mix = GaussianMixture(np.full(3, 1.0 / 3), np.tile(f.p, (3, 1)), S, f)
        assert np.array_equal(mix.roots, eigh_roots(mix.covs))
        for k in range(3):
            cov, root = check_cov(S[k])
            assert np.array_equal(root, eigh_roots(cov[None])[0])


class TestPsdSqrt:
    def test_identity(self):
        R = check_cov(np.eye(3))[1]
        assert np.allclose(R, np.eye(3))

    def test_diagonal(self):
        R = check_cov(np.diag([4.0, 9.0]))[1]
        assert np.allclose(R, np.diag([2.0, 3.0]))

    def test_square_recovers_input(self):
        rng = np.random.default_rng(0)
        for d in (2, 3, 6):
            S = random_spd(rng, d)
            R = check_cov(S)[1]
            rel = np.linalg.norm(R @ R - S) / np.linalg.norm(S)
            assert rel < 1e-8

    def test_rank_deficient_input(self):
        S = np.diag([1.0, 0.0])
        R = check_cov(S)[1]
        assert np.allclose(R @ R, S, atol=1e-12)


class TestBuresTerm:
    def test_equal_inputs_zero(self):
        rng = np.random.default_rng(1)
        S = random_spd(rng, 3)
        assert bures(S, S) == pytest.approx(0.0, abs=1e-10)

    def test_commuting_scaled_identity(self):
        assert bures(np.eye(2), 4.0 * np.eye(2)) == pytest.approx(2.0, abs=1e-12)

    def test_zero_against_s_gives_trace(self):
        rng = np.random.default_rng(2)
        S = random_spd(rng, 4)
        assert bures(np.zeros((4, 4)), S) == pytest.approx(np.trace(S), abs=1e-10)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            S0 = random_spd(rng, 3)
            S1 = random_spd(rng, 3)
            assert bures(S0, S1) == pytest.approx(bures(S1, S0), abs=1e-8)

    def test_commuting_case_is_frobenius_of_roots(self):
        rng = np.random.default_rng(4)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        a = rng.random(3) + 0.1
        b = rng.random(3) + 0.1
        S0 = Q @ np.diag(a) @ Q.T
        S1 = Q @ np.diag(b) @ Q.T
        expect = np.sum((np.sqrt(a) - np.sqrt(b)) ** 2)
        assert bures(S0, S1) == pytest.approx(expect, abs=1e-9)

    def test_monte_carlo_matches_discrete_ot(self):
        # empirical check: optimal matching cost between samples of two
        # centered Gaussians approaches the Bures term; a single n=2000
        # draw fluctuates by several percent, so average a few replicates
        rng = np.random.default_rng(5)
        S0 = np.array([[0.25, 0.05], [0.05, 0.3]])
        S1 = np.array([[4.0, -0.5], [-0.5, 3.0]])
        n = 2000
        costs = []
        for _ in range(4):
            X = rng.multivariate_normal(np.zeros(2), S0, size=n)
            Y = rng.multivariate_normal(np.zeros(2), S1, size=n)
            cost = ((X[:, None, :] - Y[None, :, :]) ** 2).sum(-1)
            rows, cols = linear_sum_assignment(cost)
            costs.append(cost[rows, cols].mean())
        emp = np.mean(costs)
        exact = bures(S0, S1)
        assert abs(emp - exact) / exact < 0.05


def gaussian(m, S, frame):
    """One bundle Gaussian: the K = 1 mixture at unit basepoint m."""
    return GaussianMixture([1.0], [m], [S], frame)


class TestBundleGaussianW2:
    def test_zero_for_identical(self):
        g = gaussian([0.0, 0.0, 1.0], np.eye(2), standard_frame(3))
        assert mw2(g, g).distance_sq == 0.0

    def test_pure_base_term(self):
        f = standard_frame(3)
        g0 = gaussian([0.0, 0.0, 1.0], np.zeros((2, 2)), f)
        g1 = gaussian([1.0, 0.0, 0.0], np.zeros((2, 2)), f)
        assert mw2(g0, g1).distance_sq == pytest.approx((np.pi / 2) ** 2, abs=1e-12)

    def test_pure_bures_term(self):
        f = standard_frame(3)
        g0 = gaussian([0.0, 0.0, 1.0], np.eye(2), f)
        g1 = gaussian([0.0, 0.0, 1.0], 4.0 * np.eye(2), f)
        assert mw2(g0, g1).distance_sq == pytest.approx(2.0, abs=1e-12)
        assert mw2(g0, g1).distance == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_symmetry_and_separation(self):
        rng = np.random.default_rng(6)
        f = standard_frame(4)
        for _ in range(10):
            g0 = gaussian(unit(rng.standard_normal(4)), random_spd(rng, 3), f)
            g1 = gaussian(unit(rng.standard_normal(4)), random_spd(rng, 3), f)
            a = mw2(g0, g1).distance_sq
            b = mw2(g1, g0).distance_sq
            assert a == pytest.approx(b, abs=1e-8)
            assert a > 1e-4

    def test_cov_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            GaussianMixture([1.0], [[0.0, 0.0, 1.0]], [np.eye(3)], standard_frame(3))


class TestGaussianMixture:
    def test_weight_validation(self):
        p = unit([0.0, 0.0, 1.0])
        f = random_frame(p, 0)
        means, covs = [p] * 2, [np.eye(2)] * 2
        with pytest.raises(ValueError):
            GaussianMixture([0.5, 0.4], means, covs, f)
        with pytest.raises(ValueError):
            GaussianMixture([1.5, -0.5], means, covs, f)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                GaussianMixture([bad, 0.5], means, covs, f)
        with pytest.raises(ValueError):
            GaussianMixture([np.nan], means[:1], covs[:1], f)
        GaussianMixture([0.5, 0.5], means, covs, f)

    def test_means_checked_not_normalized(self):
        f = standard_frame(3)
        m = np.array([0.0, 0.6, 0.8 + 2e-16])
        mix = GaussianMixture([1.0], [m], [np.eye(2)], f)
        assert np.array_equal(mix.means[0], m)
        with pytest.raises(ValueError):
            GaussianMixture([1.0], [2.0 * m], [np.eye(2)], f)
        with pytest.raises(ValueError):
            GaussianMixture([1.0], [[np.nan, 0.0, 1.0]], [np.eye(2)], f)
        with pytest.raises(DimensionMismatch):
            GaussianMixture([1.0], [m], [np.eye(3)], f)

    def test_arrays_read_only_and_shared(self):
        rng = np.random.default_rng(3)
        mix = make_mixture(rng, 2, 3)
        for a in (mix.weights, mix.means, mix.covs, mix.roots):
            with pytest.raises(ValueError):
                a[0] = 0.0
        f2 = random_frame(mix.frame.p, 4)
        other = GaussianMixture(mix.weights, mix.means, mix.covs, f2)
        assert other.means is mix.means and other.covs is mix.covs

    def test_basepoint_at_puncture_rejected(self):
        f = standard_frame(3)
        with pytest.raises(ValueError):
            GaussianMixture([1.0], [[-1.0, 0.0, 0.0]], [np.eye(2)], f)

    def test_frame_dimension_checked(self):
        f = standard_frame(4)
        with pytest.raises(DimensionMismatch):
            GaussianMixture([1.0], [[0.0, 0.0, 1.0]], [np.eye(2)], f)

    def test_check_same_frame(self):
        rng = np.random.default_rng(7)
        m0 = make_mixture(rng, 2, 3)
        m1 = make_mixture(rng, 2, 3)
        check_same_frame(m0, m1)
        f2 = random_frame(m0.frame.p, 99)
        m2 = GaussianMixture(m1.weights, m1.means, m1.covs, f2)
        with pytest.raises(FrameMismatch):
            check_same_frame(m0, m2)


class TestNormalizeMinimalForm:
    def test_merges_duplicates(self):
        p = unit([0.0, 0.0, 1.0])
        f = random_frame(p, 0)
        mix = GaussianMixture([0.5, 0.5], [p] * 2, [np.eye(2)] * 2, f)
        out = normalize_minimal_form(mix)
        assert out.K == 1
        assert out.weights[0] == pytest.approx(1.0)

    def test_minimal_mixture_unchanged(self):
        rng = np.random.default_rng(8)
        mix = make_mixture(rng, 3, 3)
        out = normalize_minimal_form(mix)
        assert out.K == 3
        assert np.allclose(out.weights, mix.weights)

    def test_drops_zero_weight(self):
        p = unit([0.0, 0.0, 1.0])
        q = unit([1.0, 0.0, 0.0])
        f = random_frame(p, 0)
        mix = GaussianMixture([1.0, 0.0], [p, q], [np.eye(2)] * 2, f)
        out = normalize_minimal_form(mix)
        assert out.K == 1
        assert np.allclose(out.means[0], p)

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        mix = make_mixture(rng, 4, 4)
        once = normalize_minimal_form(mix)
        twice = normalize_minimal_form(once)
        assert once.K == twice.K
        assert np.allclose(once.weights, twice.weights)

    def test_split_component_renormalizes(self):
        # the same mixture written with a component split in two reduces to
        # the same minimal form up to permutation
        rng = np.random.default_rng(10)
        mix = make_mixture(rng, 2, 3)
        f = mix.frame
        w0, w1 = mix.weights
        order = [1, 0, 0]
        split = GaussianMixture([w1, 0.5 * w0, 0.5 * w0], mix.means[order], mix.covs[order], f)
        out = normalize_minimal_form(split)
        assert out.K == 2
        pairs = {
            (round(float(w), 12), tuple(np.round(m, 10)))
            for w, m in zip(out.weights, out.means)
        }
        expect = {
            (round(float(w), 12), tuple(np.round(m, 10)))
            for w, m in zip(mix.weights, mix.means)
        }
        assert pairs == expect


    @pytest.mark.parametrize("seed", range(6))
    def test_matches_former_loop_bit_for_bit(self, seed):
        # duplicates 0.5e-9 (merged) and 2e-9 (kept) apart in basepoint and
        # in covariance, zero weights, and a chain 10 -> 10.7 -> 11.4 (x 1e-9)
        # whose third link is near the second but not the representative
        rng = np.random.default_rng(seed)
        f = standard_frame(3)
        p, t = np.array([0.0, 0.6, 0.8]), np.array([0.0, 0.8, -0.6])
        E = np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0)
        S = random_spd(rng, 2)
        spec = [(0.0, 0.0, 1.0), (0.5e-9, 0.0, 1.0), (0.0, 0.5e-9, 1.0), (0.0, 0.0, 0.0),
                (2e-9, 0.0, 1.0), (0.0, 2e-9, 1.0), (10e-9, 0.0, 1.0), (10.7e-9, 0.0, 1.0),
                (11.4e-9, 0.0, 1.0), (20e-9, 0.0, 0.0), (0.0, 0.0, 1.0)]
        if seed:
            spec = [spec[i] for i in rng.permutation(len(spec))]
        means = _unit_rows([np.cos(a) * p + np.sin(a) * t for a, _, _ in spec])
        covs = [S + e * E for _, e, _ in spec]
        w = np.array([x for _, _, x in spec]) * rng.uniform(0.5, 1.5, len(spec))
        mix = GaussianMixture(w / w.sum(), means, covs, f)
        out = normalize_minimal_form(mix)
        weights, M, C = loop_minimal_form(mix.weights, list(mix.means), list(mix.covs))
        # in the listed order: one group at 0, one each at 2e-9, two on the chain
        assert out.K == 5 if seed == 0 else out.K < mix.K
        assert np.array_equal(out.weights, weights)
        assert np.array_equal(out.means, M)
        assert np.array_equal(out.covs, C)


class TestPairwiseAndIO:
    def test_pairwise_matches_scalar(self):
        rng = np.random.default_rng(11)
        f = random_frame(np.eye(4)[-1], 17)
        m0 = make_mixture(rng, 3, 4, frame=f)
        m1 = make_mixture(rng, 5, 4, frame=f)
        P = pairwise_w2sq(m0, m1)
        assert P.shape == (3, 5)
        for i in range(3):
            for j in range(5):
                # independent of the batched kernels: scalar geodesic, scipy sqrtm
                S0, S1 = m0.covs[i], m1.covs[j]
                R0 = sqrtm(S0).real
                bures = np.trace(S0 + S1 - 2.0 * sqrtm(R0 @ S1 @ R0).real)
                base = geodesic(m0.means[i], m1.means[j]) ** 2
                assert P[i, j] == pytest.approx(base + bures, abs=1e-10)

    def test_pairwise_is_geodesic_plus_bures_of_eigh_roots(self):
        rng = np.random.default_rng(16)
        m0 = make_mixture(rng, 3, 6)
        m1 = make_mixture(rng, 4, 6, frame=m0.frame)
        expect = pairwise_geodesic(m0.means, m1.means) ** 2 + _bures(
            eigh_roots(m0.covs), m0.covs, m1.covs
        )
        assert np.array_equal(pairwise_w2sq(m0, m1), expect)

    def test_pairwise_commuting_closed_form(self):
        # S = Q diag(a) Q^T with one shared Q: Bures is sum (sqrt a - sqrt b)^2
        rng = np.random.default_rng(15)
        d = 59
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        f = random_frame(np.eye(d + 1)[-1], 17)

        def mix(K):
            evals = rng.uniform(0.1, 1.0, (K, d))
            means = [unit(f.p + 0.3 * rng.standard_normal(d + 1)) for _ in evals]
            covs = [Q @ np.diag(a) @ Q.T for a in evals]
            return GaussianMixture(np.full(K, 1.0 / K), means, covs, f), evals

        (m0, a), (m1, b) = mix(3), mix(4)
        M0, M1 = m0.means, m1.means
        geo = 2.0 * np.arcsin(0.5 * np.linalg.norm(M0[:, None] - M1[None], axis=-1))
        bures = ((np.sqrt(a)[:, None] - np.sqrt(b)[None]) ** 2).sum(axis=-1)
        expect = geo**2 + bures
        assert np.max(np.abs(pairwise_w2sq(m0, m1) - expect) / expect) <= 1e-10

    def test_pairwise_frame_mismatch(self):
        rng = np.random.default_rng(12)
        m0 = make_mixture(rng, 2, 3)
        f2 = random_frame(m0.frame.p, 5)
        m1 = GaussianMixture(m0.weights, m0.means, m0.covs, f2)
        with pytest.raises(FrameMismatch):
            pairwise_w2sq(m0, m1)

    def test_json_roundtrip(self, tmp_path):
        rng = np.random.default_rng(13)
        mix = make_mixture(rng, 3, 4)
        path = tmp_path / "mixture.json"
        save_mixture(path, mix)
        back = load_mixture(path)
        assert back.K == mix.K
        assert np.allclose(back.weights, mix.weights)
        assert np.allclose(back.means, mix.means)
        assert np.allclose(back.covs, mix.covs)
        assert np.allclose(back.frame.matrix, mix.frame.matrix)

    def test_dict_keys(self):
        rng = np.random.default_rng(14)
        mix = make_mixture(rng, 2, 3)
        d = mixture_to_dict(mix)
        assert set(d) == {"frame", "weights", "components"}
        assert set(d["components"][0]) == {"basepoint", "cov"}
        back = mixture_from_dict(d)
        assert back.K == 2
