import mpmath
import numpy as np
import pytest
from scipy.linalg import sqrtm, svdvals
from scipy.optimize import linear_sum_assignment
from scipy.stats import ortho_group

from bundlemw.contours import Contour, align_shape, contour_to_srvf, shape_statistics
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
    frechet_mean,
    pairwise_geodesic,
    standard_frame,
)
from bundlemw.transport import mw2

from helpers import (
    eigh_factors,
    geodesic,
    loop_minimal_form,
    make_mixture,
    random_frame,
    random_spd,
    unit,
)


def check_cov(S):
    """One covariance through the stack check: the checked matrix and its factor."""
    S, F = _check_covs(np.array([S], dtype=float))
    return S[0], F[0]


def single(S):
    """The K = 1 mixture of covariance S at the point of the standard frame."""
    f = standard_frame(len(S) + 1)
    return GaussianMixture([1.0], f.p[None], np.array([S], dtype=float), f)


def bures(S0, S1):
    """The Bures term of one pair of covariances, by the stacked kernel."""
    return float(_bures(single(S0), single(S1))[0, 0])


class TestCovarianceCheck:
    def test_symmetrizes_small_asymmetry(self):
        S = check_cov([[1.0, 1e-8], [0.0, 2.0]])[0]
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
        S = check_cov([[1.0, 0.0], [0.0, 0.0]])[0]
        assert S.shape == (2, 2)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            check_cov(np.zeros((2, 3)))


class TestFactors:
    """The factors a mixture or a matrix keeps are the eigh factors over the
    eigenvalues above d eps lambda_max, bit for bit, and multiply back to S."""

    @pytest.mark.parametrize("d", [2, 5, 59])
    @pytest.mark.parametrize("rank", [None, 1])
    def test_factors_are_eigh_factors(self, d, rank):
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
        assert mix.factors.shape == (3, d, rank or d)
        assert np.array_equal(mix.factors, eigh_factors(mix.covs))
        for k in range(3):
            cov, factor = check_cov(S[k])
            assert np.array_equal(factor, eigh_factors(cov[None])[0])

    def test_identity(self):
        F = check_cov(np.eye(3))[1]
        assert np.allclose(F @ F.T, np.eye(3), rtol=0.0, atol=1e-15)

    def test_diagonal(self):
        F = check_cov(np.diag([4.0, 9.0]))[1]
        assert np.allclose(np.abs(F), np.diag([2.0, 3.0]), rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_product_recovers_input(self, d):
        S = random_spd(np.random.default_rng(d), d)
        F = check_cov(S)[1]
        assert np.linalg.norm(F @ F.T - S) / np.linalg.norm(S) < 1e-14

    def test_rank_deficient_input(self):
        S = np.diag([1.0, 0.0])
        F = check_cov(S)[1]
        assert F.shape == (2, 1)
        assert np.array_equal(F @ F.T, S)

    def test_zero_covariance_has_one_zero_column(self):
        F = check_cov(np.zeros((3, 3)))[1]
        assert F.shape == (3, 1) and not F.any()

    def test_components_pad_to_the_largest_rank(self):
        # ranks 1 and 3 in d = 3: the rank-1 factor leads with two zero columns
        v = np.array([[1.0], [2.0], [2.0]]) / 3.0
        S = np.array([v @ v.T, np.diag([1.0, 2.0, 3.0])])
        F = _check_covs(S)[1]
        assert F.shape == (2, 3, 3) and not F[0, :, :2].any()
        assert np.allclose(F[0] @ F[0].T, S[0], rtol=0.0, atol=1e-15)


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


class TestBuresAccuracy:
    """Bures terms against closed forms and 50-digit values where the
    covariances are nearly identical or of low rank."""

    @pytest.mark.parametrize("d, rank, eps", [
        (2, 2, 1e-6), (2, 2, 1e-8), (10, 10, 1e-6), (10, 10, 1e-8), (50, 50, 1e-6),
        (50, 50, 1e-8), (59, 5, 1e-4), (59, 5, 1e-6), (59, 5, 1e-8),
    ])
    def test_commuting_oracle(self, d, rank, eps):
        # S = Q diag(a) Q^T on `rank` shared eigenvectors: Bures is
        # sum (sqrt a - sqrt b)^2 with b a relative perturbation eps of a
        rng = np.random.default_rng(d + rank)
        Q = ortho_group.rvs(d, random_state=d + rank)[:, :rank]
        a = rng.uniform(0.1, 1.0, rank)
        b = a * (1.0 + eps * rng.uniform(-1.0, 1.0, rank))
        S0, S1 = ((Q * e) @ Q.T for e in (a, b))
        expect = np.sum((np.sqrt(a) - np.sqrt(b)) ** 2)
        got = bures(0.5 * (S0 + S0.T), 0.5 * (S1 + S1.T))
        assert abs(got - expect) <= 1e-6 * expect

    @pytest.mark.parametrize("d", [2, 5])
    @pytest.mark.parametrize("kappa", [1e3, 1e7])
    def test_ill_conditioned_pairs_match_mpmath(self, d, kappa):
        # full rank with eigenvalues from 1 down to 1/kappa, S1 = G S0 G^T a
        # few percent away; 40 digits from the same float64 matrices
        rng = np.random.default_rng(d)
        Q = ortho_group.rvs(d, random_state=d)
        S0 = (Q * np.geomspace(1.0, 1.0 / kappa, d)) @ Q.T
        G = np.eye(d) + 0.05 * rng.standard_normal((d, d))
        S0, S1 = (0.5 * (S + S.T) for S in (S0, G @ S0 @ G.T))
        mpmath.mp.dps = 40
        E, V = mpmath.eigsy(mpmath.matrix(S0.tolist()))
        R = V * mpmath.diag([mpmath.sqrt(e) for e in E]) * V.T
        cross = mpmath.eigsy(R * mpmath.matrix(S1.tolist()) * R, eigvals_only=True)
        expect = np.trace(S0) + np.trace(S1) - 2 * sum(mpmath.sqrt(e) for e in cross)
        assert abs(bures(S0, S1) - expect) <= 1e-10 * expect

    def test_contour_pairs_match_mpmath(self):
        # four frames of six contours at T = 8 (d = 15, rank 5), as the
        # contours command fits them; the 50-digit Bures term comes from the
        # float64 shooting vectors V, since S = V^T V / (n - 1) = F F^T with
        # F = V^T / sqrt(n - 1)
        rng = np.random.default_rng(8)
        T, t = 8, np.linspace(0.0, 2.0 * np.pi, 40, endpoint=False)
        frame = standard_frame(2 * T)
        ref, frames = None, []
        for f in range(4):
            radius = [1.0 + 0.3 * np.cos(2 * t) + 0.35 * (f >= 2) * np.cos(3 * t)
                      + 0.03 * rng.standard_normal(t.size) for _ in range(6)]
            Q = contour_to_srvf([Contour(np.vstack([r * np.cos(t), r * np.sin(t)]))
                                 for r in radius], T)
            ref = Q[0] if ref is None else ref
            aligned, _ = align_shape(ref, Q)
            mean = frechet_mean(aligned.reshape(len(Q), -1))
            V, S = shape_statistics(aligned, mean.reshape(2, T), frame)
            frames.append((V, GaussianMixture([1.0], mean[None], S[None], frame)))
        mpmath.mp.dps = 50
        for i in range(4):
            for j in range(i + 1, 4):
                (V0, m0), (V1, m1) = frames[i], frames[j]
                F0, F1 = (mpmath.matrix(V.tolist()).T / mpmath.sqrt(len(V) - 1) for V in (V0, V1))
                nuclear = sum(mpmath.svd_r(F1.T * F0, compute_uv=False))
                expect = sum(x**2 for x in F0) + sum(x**2 for x in F1) - 2 * nuclear
                got = _bures(m0, m1)[0, 0]
                assert abs(got - expect) <= 1e-12 * expect, (i, j)


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
        for a in (mix.weights, mix.means, mix.covs, mix.factors):
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

    @pytest.mark.parametrize("rank", [None, 2])
    def test_pairwise_is_geodesic_plus_nuclear_norm_of_eigh_factors(self, rank):
        # full rank takes the Gram form, rank 2 in d = 5 the polar form; both
        # against tr S0 + tr S1 - 2 ||F1^T F0||_* by scipy's singular values
        rng = np.random.default_rng(16)
        f = random_frame(np.eye(6)[-1], 17)

        def mix(K):
            if rank is None:
                return make_mixture(rng, K, 6, frame=f)
            G = 0.3 * rng.standard_normal((K, 5, rank))
            means = [unit(f.p + 0.8 * rng.standard_normal(6)) for _ in range(K)]
            return GaussianMixture(np.full(K, 1.0 / K), means, G @ np.swapaxes(G, 1, 2), f)

        m0, m1 = mix(3), mix(4)
        F0, F1 = eigh_factors(m0.covs), eigh_factors(m1.covs)
        expect = pairwise_geodesic(m0.means, m1.means) ** 2
        for i in range(3):
            for j in range(4):
                nuclear = svdvals(F1[j].T @ F0[i]).sum()
                expect[i, j] += np.trace(m0.covs[i]) + np.trace(m1.covs[j]) - 2.0 * nuclear
        assert np.allclose(pairwise_w2sq(m0, m1), expect, rtol=1e-12, atol=0.0)

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

    def test_files_in_one_frame_share_it(self, tmp_path):
        # the frame arrays of b.json hold a.json's bits; c.json's basis is one
        # ulp away, and d.json's has -0.0 where a.json has 0.0
        mix = make_mixture(np.random.default_rng(17), 2, 3, frame=standard_frame(3))
        data = mixture_to_dict(mix)
        files = {name: mixture_to_dict(mix) for name in "abcd"}
        files["c"]["frame"]["basis"][0][1] = np.nextafter(data["frame"]["basis"][0][1], 2.0)
        files["d"]["frame"]["basis"][0][0] = -0.0
        frames = {}
        a, b, c, d = (mixture_from_dict(files[name], frames) for name in "abcd")
        assert a.frame is b.frame
        assert c.frame is not b.frame and d.frame is not c.frame
        for m in (c, d):
            check_same_frame(a, m)
        assert mixture_from_dict(data).frame is not mixture_from_dict(data).frame

    def test_dict_keys(self):
        rng = np.random.default_rng(14)
        mix = make_mixture(rng, 2, 3)
        d = mixture_to_dict(mix)
        assert set(d) == {"frame", "weights", "components"}
        assert set(d["components"][0]) == {"basepoint", "cov"}
        back = mixture_from_dict(d)
        assert back.K == 2
