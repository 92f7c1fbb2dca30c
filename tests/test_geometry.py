import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundlemw.errors import AntipodalPoint, NoConvergence
from bundlemw.geometry import (
    MovingFrame,
    Point,
    TangentVector,
    build_reference_frame,
    exp_batch,
    frames_equal,
    frechet_mean,
    geodesic_distance,
    load_frame,
    log_batch,
    pairwise_geodesic,
    parallel_transport,
    save_frame,
    sphere_exp,
    sphere_log,
    standard_frame,
    tangent_coordinates,
    tangent_from_coordinates,
    transport_batch,
    transport_frame,
)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def random_point(rng, D):
    return Point(rng.standard_normal(D))


def random_tangent(rng, p):
    v = rng.standard_normal(p.dim)
    v -= (v @ p.coords) * p.coords
    return TangentVector(p, v)


class TestPointAndTangent:
    def test_point_normalizes(self):
        p = Point([0.0, 0.0, 2.0])
        assert np.allclose(p.coords, [0, 0, 1])
        assert p.dim == 3

    def test_point_rejects_zero(self):
        with pytest.raises(ValueError):
            Point([0.0, 0.0, 0.0])

    def test_point_rejects_scalar_and_nan(self):
        with pytest.raises(ValueError):
            Point(1.0)
        with pytest.raises(ValueError):
            Point([np.nan, 0.0, 1.0])

    def test_tangent_rejects_normal_component(self):
        p = Point([0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            TangentVector(p, [0.0, 0.0, 0.5])

    def test_tangent_cleans_roundoff(self):
        p = Point([0.0, 0.0, 1.0])
        v = TangentVector(p, [1.0, 0.0, 1e-12])
        assert v.vec @ p.coords == 0.0
        assert v.norm() == pytest.approx(1.0)


class TestExpLogDistance:
    def test_exp_quarter_turn(self):
        p = Point([0.0, 0.0, 1.0])
        v = TangentVector(p, [np.pi / 2, 0.0, 0.0])
        q = sphere_exp(p, v)
        assert np.allclose(q.coords, [1.0, 0.0, 0.0], atol=1e-15)

    def test_exp_zero_vector_is_identity(self):
        p = Point(unit([1.0, 2.0, 2.0]))
        q = sphere_exp(p, TangentVector(p, np.zeros(3)))
        assert np.allclose(q.coords, p.coords)

    def test_log_recovers_direction_and_length(self):
        p = Point([0.0, 0.0, 1.0])
        q = Point([1.0, 0.0, 0.0])
        v = sphere_log(p, q)
        assert np.allclose(v.vec, [np.pi / 2, 0.0, 0.0], atol=1e-15)

    def test_log_antipodal_raises(self):
        p = Point([0.0, 0.0, 1.0])
        with pytest.raises(AntipodalPoint):
            sphere_log(p, Point([0.0, 0.0, -1.0]))

    def test_distance_quarter_and_half(self):
        p = Point([1.0, 0.0, 0.0])
        assert geodesic_distance(p, Point([0.0, 1.0, 0.0])) == pytest.approx(np.pi / 2)
        assert geodesic_distance(p, Point([-1.0, 0.0, 0.0])) == pytest.approx(np.pi)
        assert geodesic_distance(p, p) == 0.0

    @given(st.integers(0, 2**32 - 1), st.integers(3, 8))
    @settings(max_examples=60, deadline=None)
    def test_exp_log_roundtrip(self, seed, D):
        rng = np.random.default_rng(seed)
        p = random_point(rng, D)
        q = random_point(rng, D)
        if p.coords @ q.coords <= -0.99:
            q = Point(-q.coords)
        v = sphere_log(p, q)
        assert v.norm() == pytest.approx(geodesic_distance(p, q), abs=1e-12)
        q2 = sphere_exp(p, v)
        assert np.max(np.abs(q2.coords - q.coords)) < 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_log_exp_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        p = random_point(rng, 4)
        v = random_tangent(rng, p)
        if v.norm() > 3.0:
            v = TangentVector(p, v.vec * (3.0 / v.norm()))
        q = sphere_exp(p, v)
        w = sphere_log(p, q)
        assert np.max(np.abs(w.vec - v.vec)) < 1e-10


class TestParallelTransport:
    def test_orthogonal_direction_unchanged(self):
        p = Point([0.0, 0.0, 1.0])
        q = Point([1.0, 0.0, 0.0])
        v = parallel_transport(TangentVector(p, [0.0, 1.0, 0.0]), q)
        assert np.allclose(v.vec, [0.0, 1.0, 0.0], atol=1e-15)

    def test_along_geodesic_rotates(self):
        p = Point([0.0, 0.0, 1.0])
        q = Point([1.0, 0.0, 0.0])
        v = parallel_transport(TangentVector(p, [1.0, 0.0, 0.0]), q)
        assert np.allclose(v.vec, [0.0, 0.0, -1.0], atol=1e-15)

    def test_transport_to_same_point_is_identity(self):
        p = Point(unit([1.0, 1.0, 1.0]))
        v = TangentVector(p, np.cross(p.coords, [0.0, 0.0, 1.0]))
        w = parallel_transport(v, p)
        assert np.array_equal(w.vec, v.vec)

    def test_antipodal_raises(self):
        p = Point([0.0, 0.0, 1.0])
        with pytest.raises(AntipodalPoint):
            parallel_transport(TangentVector(p, [1.0, 0.0, 0.0]), Point([0.0, 0.0, -1.0]))

    @given(st.integers(0, 2**32 - 1), st.integers(3, 7))
    @settings(max_examples=60, deadline=None)
    def test_transport_is_isometry(self, seed, D):
        rng = np.random.default_rng(seed)
        p = random_point(rng, D)
        q = random_point(rng, D)
        if p.coords @ q.coords <= -0.99:
            q = Point(-q.coords)
        a = random_tangent(rng, p)
        b = random_tangent(rng, p)
        ta = parallel_transport(a, q)
        tb = parallel_transport(b, q)
        assert ta.vec @ q.coords == pytest.approx(0.0, abs=1e-10)
        assert ta.vec @ tb.vec == pytest.approx(a.vec @ b.vec, abs=1e-9)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_transport_inverts(self, seed):
        rng = np.random.default_rng(seed)
        p = random_point(rng, 5)
        q = random_point(rng, 5)
        if p.coords @ q.coords <= -0.99:
            q = Point(-q.coords)
        v = random_tangent(rng, p)
        back = parallel_transport(parallel_transport(v, q), p)
        assert np.max(np.abs(back.vec - v.vec)) < 1e-9


class TestFrechetMean:
    def test_midpoint_of_two_points(self):
        p = Point([1.0, 0.0, 0.0])
        q = Point([0.0, 1.0, 0.0])
        m = frechet_mean(np.array([p.coords, q.coords]))
        assert np.allclose(m.coords, unit([1.0, 1.0, 0.0]), atol=1e-10)

    def test_single_point(self):
        p = Point(unit([2.0, -1.0, 0.5]))
        m = frechet_mean(np.array([p.coords]))
        assert np.allclose(m.coords, p.coords)

    def test_weighted_mean_respects_weights(self):
        p = Point([1.0, 0.0, 0.0])
        q = Point([0.0, 1.0, 0.0])
        m = frechet_mean(np.array([p.coords, q.coords]), weights=[3.0, 1.0])
        # stationarity: 0.75 log_m(p) + 0.25 log_m(q) = 0
        lp = sphere_log(m, p).vec
        lq = sphere_log(m, q).vec
        assert np.max(np.abs(0.75 * lp + 0.25 * lq)) < 1e-9

    def test_stationarity_of_result(self):
        rng = np.random.default_rng(7)
        base = unit([0.0, 0.0, 1.0, 0.0])
        pts = [Point(base + 0.3 * rng.standard_normal(4)) for _ in range(25)]
        m = frechet_mean(np.array([x.coords for x in pts]))
        logs = np.array([sphere_log(m, x).vec for x in pts])
        assert np.linalg.norm(logs.mean(axis=0)) < 1e-9

    def test_bad_weights_rejected(self):
        p = Point([1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            frechet_mean(np.array([p.coords, p.coords]), weights=[1.0])
        with pytest.raises(ValueError):
            frechet_mean(np.array([p.coords, p.coords]), weights=[-1.0, 1.0])
        with pytest.raises(ValueError):
            frechet_mean(np.array([p.coords, p.coords]), weights=[0.0, 0.0])

    def test_degenerate_spread_raises(self):
        p = Point([1.0, 0.0, 0.0])
        q = Point([-1.0, 0.0, 0.0])
        with pytest.raises((ValueError, NoConvergence, AntipodalPoint)):
            frechet_mean(np.array([p.coords, q.coords]))


class TestFrames:
    def test_build_is_deterministic(self):
        p = Point(unit([1.0, 2.0, 3.0, 4.0]))
        f1 = build_reference_frame(p, rng_seed=42)
        f2 = build_reference_frame(p, rng_seed=42)
        assert frames_equal(f1, f2, tol=0.0)
        f3 = build_reference_frame(p, rng_seed=43)
        assert not frames_equal(f1, f3, tol=1e-6)

    def test_build_gives_orthonormal_tangent_basis(self):
        p = Point(unit([0.3, -0.2, 0.9, 0.1, -0.5]))
        f = build_reference_frame(p, rng_seed=0)
        B = f.matrix
        assert B.shape == (4, 5)
        assert np.max(np.abs(B @ B.T - np.eye(4))) < 1e-10
        assert np.max(np.abs(B @ p.coords)) < 1e-10

    def test_explicit_basis_override(self):
        p = Point([0.0, 0.0, 1.0])
        f = build_reference_frame(p, basis=[[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
        assert np.allclose(f.matrix, [[-1, 0, 0], [0, -1, 0]])

    def test_non_orthonormal_override_rejected(self):
        p = Point([0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            build_reference_frame(p, basis=[[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])

    def test_frame_requires_full_rank_count(self):
        p = Point([0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            MovingFrame(p, [[1.0, 0.0, 0.0]])

    def test_basis_row_with_normal_component_rejected(self):
        p = Point([0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            build_reference_frame(p, basis=[[1.0, 0.0, 1e-9], [0.0, 1.0, 0.0]])
        f = build_reference_frame(p, basis=[[1.0, 0.0, 1e-12], [0.0, 1.0, 0.0]])
        assert np.array_equal(f.matrix, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def test_basis_of_wrong_shape_rejected(self):
        p = Point([0.0, 0.0, 1.0])
        for basis in (
            [[1.0, 0.0, 0.0]],
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]],
            [[1.0, 0.0], [0.0, 1.0]],
        ):
            with pytest.raises(ValueError):
                build_reference_frame(p, basis=basis)

    def test_standard_frame(self):
        f = standard_frame(4)
        assert np.allclose(f.p.coords, [1, 0, 0, 0])
        assert np.allclose(f.matrix, np.eye(4)[1:])

    def test_transport_frame_stays_orthonormal(self):
        rng = np.random.default_rng(3)
        p = random_point(rng, 6)
        m = random_point(rng, 6)
        if p.coords @ m.coords <= -0.99:
            m = Point(-m.coords)
        f = build_reference_frame(p, rng_seed=1)
        g = transport_frame(f, m)
        assert g.p is m
        B = g.matrix
        assert np.max(np.abs(B @ B.T - np.eye(5))) < 1e-9
        assert np.max(np.abs(B @ m.coords)) < 1e-9

    def test_transport_frame_to_base_is_identity(self):
        p = Point(unit([1.0, -1.0, 2.0]))
        f = build_reference_frame(p, rng_seed=9)
        g = transport_frame(f, p)
        assert frames_equal(f, g, tol=0.0)

    def test_transport_preserves_frame_coordinates(self):
        # coordinates of a transported vector in the transported frame match
        # the original coordinates: transport commutes with the frame
        rng = np.random.default_rng(11)
        p = random_point(rng, 5)
        m = random_point(rng, 5)
        if p.coords @ m.coords <= -0.99:
            m = Point(-m.coords)
        f = build_reference_frame(p, rng_seed=2)
        v = random_tangent(rng, p)
        c0 = tangent_coordinates(f, v)
        c1 = tangent_coordinates(transport_frame(f, m), parallel_transport(v, m))
        assert np.max(np.abs(c0 - c1)) < 1e-9

    def test_coordinate_roundtrip(self):
        rng = np.random.default_rng(5)
        p = random_point(rng, 4)
        f = build_reference_frame(p, rng_seed=0)
        v = random_tangent(rng, p)
        w = tangent_from_coordinates(f, tangent_coordinates(f, v))
        assert np.max(np.abs(w.vec - v.vec)) < 1e-12

    def test_coordinate_base_mismatch_rejected(self):
        f = standard_frame(3)
        other = Point([0.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            tangent_coordinates(f, TangentVector(other, [1.0, 0.0, 0.0]))

    def test_save_load_roundtrip(self, tmp_path):
        p = Point(unit([0.1, 0.2, -0.3, 0.9]))
        f = build_reference_frame(p, rng_seed=4)
        path = tmp_path / "frame.json"
        save_frame(path, f)
        g = load_frame(path)
        assert frames_equal(f, g, tol=1e-15)
        data = json.loads(path.read_text())
        assert set(data) == {"p", "basis"}


class TestBatchKernels:
    def test_exp_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        p = random_point(rng, 4)
        V = np.array([random_tangent(rng, p).vec for _ in range(20)])
        V[3] = 0.0
        X = exp_batch(p.coords, V)
        for i in range(20):
            q = sphere_exp(p, TangentVector(p, V[i]))
            assert np.max(np.abs(X[i] - q.coords)) < 1e-12

    def test_log_batch_matches_scalar(self):
        rng = np.random.default_rng(1)
        p = random_point(rng, 4)
        X = np.array([random_point(rng, 4).coords for _ in range(20)])
        X = np.where((X @ p.coords)[:, None] <= -0.99, -X, X)
        L = log_batch(p.coords, X)
        for i in range(20):
            v = sphere_log(p, Point(X[i]))
            assert np.max(np.abs(L[i] - v.vec)) < 1e-12

    def test_transport_batch_matches_scalar(self):
        rng = np.random.default_rng(2)
        p = random_point(rng, 5)
        q = random_point(rng, 5)
        if p.coords @ q.coords <= -0.99:
            q = Point(-q.coords)
        V = np.array([random_tangent(rng, p).vec for _ in range(15)])
        W = transport_batch(V, p.coords, q.coords)
        for i in range(15):
            w = parallel_transport(TangentVector(p, V[i]), q)
            assert np.max(np.abs(W[i] - w.vec)) < 1e-12

    def test_pairwise_geodesic(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((6, 4))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        Dm = pairwise_geodesic(X)
        assert Dm.shape == (6, 6)
        assert np.allclose(np.diag(Dm), 0.0, atol=1e-7)
        assert np.allclose(Dm, Dm.T)
        assert Dm[1, 4] == pytest.approx(
            geodesic_distance(Point(X[1]), Point(X[4])), abs=1e-12
        )
