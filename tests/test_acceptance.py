"""End-to-end acceptance checks, one test per criterion.

Each test is self-contained, deterministic, and asserts both the numerical
bound and (where stated) the runtime budget.
"""

import itertools
import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from helpers import make_mixture
from bundlemw.changepoint import e_divisive
from bundlemw.estimation import fit_mixture, riemannian_kmeans
from bundlemw.contours import Contour, contour_to_srvf, shape_distance
from bundlemw.gauss import (
    BundleGaussian,
    CovarianceMatrix,
    GaussianMixture,
    bures_term,
    w2sq_bundle_gaussian,
)
from bundlemw.geometry import (
    Point,
    build_reference_frame,
    frechet_mean,
    geodesic_distance,
    log_batch,
    pairwise_geodesic,
    sphere_exp,
    standard_frame,
    tangent_from_coordinates,
    transport_frame,
)
from bundlemw.sampling import sample_gaussian, sample_mixture
from bundlemw.transport import mw2, mw2_distance, solve_transportation
from bundlemw.triangles import (
    hopf_backward,
    hopf_forward,
    point_to_angles,
    triangle_preshape,
    triangle_shape_distance,
)


def reexpress(mix, new_frame):
    """The same mixture in the coordinates of another moving frame."""
    comps = []
    for g in mix.components:
        old_loc = transport_frame(mix.frame, g.basepoint)
        new_loc = transport_frame(new_frame, g.basepoint)
        R = new_loc.matrix @ old_loc.matrix.T
        comps.append(BundleGaussian(g.basepoint, CovarianceMatrix(R @ g.cov.mat @ R.T)))
    return GaussianMixture(mix.weights, comps, new_frame)


def test_01_bures_vs_empirical_optimal_transport():
    """Closed-form Gaussian W2 against discrete OT on samples, within 5%."""
    start = time.perf_counter()
    frame = standard_frame(3)
    m = frame.p
    g0 = BundleGaussian(m, CovarianceMatrix(np.eye(2)))
    g1 = BundleGaussian(m, CovarianceMatrix(np.diag([4.0, 1.0])))
    closed = w2sq_bundle_gaussian(g0, g1)
    assert closed == pytest.approx(1.0, abs=1e-12)
    assert closed == pytest.approx(bures_term(g0.cov, g1.cov), abs=1e-15)

    # empirical check: one 2000-sample discrete-OT estimate in d=2 has
    # seed-to-seed spread comparable to the 5% bound, so average a few
    # independent replicates of the stated size under one fixed seed
    estimates = []
    for k in range(4):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=101, spawn_key=(k,)))
        X = rng.standard_normal((2000, 2))
        Y = rng.standard_normal((2000, 2)) * np.array([2.0, 1.0])
        C = ((X[:, None, :] - Y[None, :, :]) ** 2).sum(axis=-1)
        rows, cols = linear_sum_assignment(C)
        estimates.append(C[rows, cols].mean())
    empirical = float(np.mean(estimates))
    assert abs(empirical - closed) / closed < 0.05
    assert time.perf_counter() - start < 60.0


def test_02_lp_matches_brute_force_permutations():
    """Uniform-marginal LP equals the best permutation for K up to 5."""
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    for trial in range(50):
        K = 2 + trial % 4
        C = rng.random((K, K))
        w = np.full(K, 1.0 / K)
        got = solve_transportation(C, w, w).cost
        best = min(
            sum(C[i, p[i]] for i in range(K)) / K
            for p in itertools.permutations(range(K))
        )
        assert abs(got - best) <= 1e-9
    assert time.perf_counter() - start < 5.0


def test_03_frame_invariance_and_cross_basepoint_stability():
    """MW2 is frame-independent at a fixed puncture and stable across punctures."""
    p = Point([0.0, 0.0, 1.0])
    for trial in range(20):
        rng = np.random.default_rng(300 + trial)
        F = build_reference_frame(p, rng_seed=2 * trial)
        G = build_reference_frame(p, rng_seed=2 * trial + 1)
        m0 = make_mixture(rng, 3, 3, frame=F)
        m1 = make_mixture(rng, 2, 3, frame=F)
        dF = mw2_distance(m0, m1)
        dG = mw2_distance(reexpress(m0, G), reexpress(m1, G))
        assert abs(dF - dG) <= 1e-8

    p2 = Point([np.sin(0.9), 0.0, np.cos(0.9)])
    for trial in range(20):
        rng = np.random.default_rng(600 + trial)
        F = build_reference_frame(p, rng_seed=trial)
        G = transport_frame(F, p2)
        m0 = make_mixture(rng, 3, 3, frame=F)
        m1 = make_mixture(rng, 2, 3, frame=F)
        dF = mw2_distance(m0, m1)
        dG = mw2_distance(reexpress(m0, G), reexpress(m1, G))
        assert abs(dF - dG) / dF < 0.05


def test_04_metric_axioms():
    """Symmetry, identity, and triangle inequality over 100 random triples."""
    frame = build_reference_frame(Point([0.0, 0.0, 1.0]), rng_seed=17)
    rng = np.random.default_rng(44)
    for _ in range(100):
        ms = [make_mixture(rng, int(rng.integers(1, 4)), 3, frame=frame) for _ in range(3)]
        d01 = mw2_distance(ms[0], ms[1])
        d12 = mw2_distance(ms[1], ms[2])
        d02 = mw2_distance(ms[0], ms[2])
        assert abs(d01 - mw2_distance(ms[1], ms[0])) <= 1e-10
        assert mw2_distance(ms[0], ms[0]) == 0.0
        assert d02 <= d01 + d12 + 1e-8


def test_05_zero_covariance_reduces_to_basepoint_transport():
    """All-zero covariances give exactly the geodesic-cost LP value."""
    frame = build_reference_frame(Point([0.0, 0.0, 1.0]), rng_seed=0)
    rng = np.random.default_rng(55)
    for _ in range(20):
        K0 = int(rng.integers(2, 5))
        K1 = int(rng.integers(2, 5))

        def mk(K):
            comps = [
                BundleGaussian(
                    Point(frame.p.coords + 0.7 * rng.standard_normal(3)),
                    np.zeros((2, 2)),
                )
                for _ in range(K)
            ]
            w = rng.random(K) + 0.2
            return GaussianMixture(w / w.sum(), comps, frame)

        m0, m1 = mk(K0), mk(K1)
        base = np.array(
            [
                [
                    geodesic_distance(g0.basepoint, g1.basepoint) ** 2
                    for g1 in m1.components
                ]
                for g0 in m0.components
            ]
        )
        ref = solve_transportation(base, m0.weights, m1.weights)
        assert mw2(m0, m1).distance_sq == ref.cost


def test_06_estimation_round_trip():
    """Cluster-then-fit recovers a well-separated three-component mixture."""
    start = time.perf_counter()
    frame = build_reference_frame(Point([0.0, 0.0, 1.0]), rng_seed=5)
    dirs = [np.array([0.0, 0.0]), np.array([1.25, 0.0]), np.array([-0.5, 1.2])]
    means = [sphere_exp(frame.p, tangent_from_coordinates(frame, v)) for v in dirs]
    seps = pairwise_geodesic(np.array([m.coords for m in means]))
    assert np.min(seps[np.triu_indices(3, 1)]) >= 1.0
    truth = GaussianMixture(
        [0.4, 0.35, 0.25],
        [BundleGaussian(m, CovarianceMatrix(0.01 * np.eye(2))) for m in means],
        frame,
    )
    points, _ = sample_mixture(truth, 1500, seed=3)
    clustering = riemannian_kmeans(points, 3, seed=0)
    est = fit_mixture(points, clustering, frame)

    matched = []
    for g in truth.components:
        dists = [geodesic_distance(g.basepoint, h.basepoint) for h in est.components]
        matched.append(int(np.argmin(dists)))
    assert sorted(matched) == [0, 1, 2]
    for k, g in enumerate(truth.components):
        h = est.components[matched[k]]
        assert abs(truth.weights[k] - est.weights[matched[k]]) <= 0.03
        assert geodesic_distance(g.basepoint, h.basepoint) <= 0.05
    assert mw2_distance(truth, est) <= 0.1
    assert time.perf_counter() - start < 30.0


def test_07_hopf_round_trip_and_fiber_independence():
    """Angles survive backward-then-forward; the third angle never matters."""
    rng = np.random.default_rng(7)
    thetas = rng.uniform(1e-3, np.pi - 1e-3, 1000)
    phis = rng.uniform(-np.pi, np.pi, 1000)
    psis = rng.uniform(0.0, 2 * np.pi, 1000)
    for theta, phi, psi in zip(thetas, phis, psis):
        tri = hopf_backward(theta, phi, psi)
        theta2, phi2 = point_to_angles(hopf_forward(triangle_preshape(tri)))
        assert abs(theta2 - theta) <= 1e-9
        dphi = (phi2 - phi + np.pi) % (2 * np.pi) - np.pi
        assert abs(dphi) <= 1e-9
    for theta, phi, psi in zip(thetas[:200], phis[:200], psis[:200]):
        t0 = hopf_backward(theta, phi, psi)
        t1 = hopf_backward(theta, phi, psi + 2.39996)
        assert triangle_shape_distance(t0, t1) <= 1e-9


def random_loop(rng, n=120):
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)
    x = np.cos(t)
    y = np.sin(t)
    for k in range(2, 6):
        ax, ay = rng.normal(scale=0.15 / k, size=2)
        px, py = rng.uniform(0, 2 * np.pi, size=2)
        x = x + ax * np.cos(k * t + px)
        y = y + ay * np.sin(k * t + py)
    return Contour(np.vstack([x, y]))


def test_08_srvf_similarity_invariance():
    """Shape distance ignores translation, rotation, and scale."""
    rng = np.random.default_rng(8)
    shapes = []
    for _ in range(50):
        c = random_loop(rng)
        q = contour_to_srvf(c, T=100)
        shapes.append(q)
        angle = float(rng.uniform(-np.pi, np.pi))
        R = np.array(
            [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
        )
        scale = float(rng.uniform(0.2, 5.0))
        shift = rng.standard_normal((2, 1))
        moved = Contour(scale * (R @ c.points) + shift)
        assert shape_distance(q, contour_to_srvf(moved, T=100)) < 1e-8
        assert shape_distance(q, q) == 0.0
    for a, b in zip(shapes[:25], shapes[25:]):
        assert abs(shape_distance(a, b) - shape_distance(b, a)) <= 1e-10


def test_09_changepoint_synthetic_sequence():
    """A mean jump at t=20 is found under the stated hyperparameters."""
    start = time.perf_counter()
    frame = standard_frame(3)

    def sequence(entropy_key, jump):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=2024, spawn_key=(entropy_key,))
        )
        mixes = []
        for t in range(60):
            center = np.array([1.0, 0.0]) if (jump and t >= 20) else np.zeros(2)
            v = center + 0.05 * rng.standard_normal(2)
            m = sphere_exp(frame.p, tangent_from_coordinates(frame, v))
            s = 0.01 + 0.002 * rng.random()
            mixes.append(
                GaussianMixture(
                    [1.0], [BundleGaussian(m, CovarianceMatrix(s * np.eye(2)))], frame
                )
            )
        return mixes

    def distmat(mixes):
        n = len(mixes)
        D = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                D[i, j] = D[j, i] = mw2_distance(mixes[i], mixes[j])
        return D

    hits = 0
    for run in range(20):
        D = distmat(sequence(run, jump=True))
        report = e_divisive(D, R=499, p0=0.0125, min_size=12, alpha=1.0, seed=run)
        accepted = report.accepted_indices
        if accepted and 18 <= accepted[0] <= 22 and report.points[0].p_value <= 0.0125:
            hits += 1
    assert hits >= 19

    clean = 0
    for run in range(20):
        D = distmat(sequence(100 + run, jump=False))
        report = e_divisive(D, R=499, p0=0.0125, min_size=12, alpha=1.0, seed=run)
        if not report.accepted_indices:
            clean += 1
    assert clean >= 19
    assert time.perf_counter() - start < 300.0


def test_10_sampler_statistics():
    """Sample moments of one bundle Gaussian match its parameters."""
    frame = build_reference_frame(Point([0.0, 0.0, 1.0]), rng_seed=9)
    m = sphere_exp(frame.p, tangent_from_coordinates(frame, np.array([0.7, 0.0])))
    cov = 0.01 * np.eye(2)
    g = BundleGaussian(m, CovarianceMatrix(cov))
    points = sample_gaussian(g, frame, 5000, seed=11)

    mean = frechet_mean(points)
    assert geodesic_distance(mean, m) <= 0.05

    local = transport_frame(frame, m)
    V = log_batch(m.coords, points) @ local.matrix.T
    emp = V.T @ V / len(points)
    assert np.linalg.norm(emp - cov) / np.linalg.norm(cov) <= 0.10
