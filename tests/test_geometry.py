import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundlemw._jsonfile import write_json
from bundlemw.errors import AntipodalPoint, NoConvergence
from bundlemw.geometry import (
    MovingFrame,
    _transport_batch,
    exp_batch,
    frame_to_dict,
    frames_equal,
    frechet_mean,
    load_frame,
    log_batch,
    pairwise_geodesic,
    standard_frame,
    transport_frame,
)
from helpers import (
    broadcast_geodesic,
    geodesic,
    peak_alloc_bytes,
    random_frame,
    trailing_axis_geodesic,
    unit,
    unit_rows,
)


def random_point(rng, D):
    return unit(rng.standard_normal(D))


def near_point(rng, p):
    """A random unit vector kept off the antipode of p."""
    q = random_point(rng, p.size)
    return -q if p @ q <= -0.99 else q


def random_tangents(rng, p, n=1):
    V = rng.standard_normal((n, p.size))
    return V - np.outer(V @ p, p)


class TestFramePoint:
    def test_frame_point_normalizes(self):
        f = MovingFrame([0.0, 0.0, 2.0], np.eye(3)[:2])
        assert np.array_equal(f.p, [0, 0, 1])
        assert f.p.size == 3

    def test_frame_point_rejects_zero(self):
        with pytest.raises(ValueError):
            MovingFrame([0.0, 0.0, 0.0], np.eye(3)[:2])

    def test_frame_point_rejects_scalar_matrix_and_nan(self):
        for p in (1.0, np.eye(3), [np.nan, 0.0, 1.0]):
            with pytest.raises(ValueError):
                MovingFrame(p, np.eye(3)[:2])

    def test_frame_point_and_mean_are_unit_arrays(self):
        rng = np.random.default_rng(2)
        p = 3.0 * unit(rng.standard_normal(4))
        f = random_frame(p, 0)
        for x in (f.p, frechet_mean(p + 0.1 * rng.standard_normal((5, 4)))):
            assert type(x) is np.ndarray and x.shape == (4,)
            assert abs(np.sqrt(x @ x) - 1.0) <= 1e-15
        assert np.array_equal(MovingFrame(p, f.matrix).p, unit(p))
        assert not f.p.flags.writeable
        with pytest.raises(ValueError):
            f.p[0] = 1.0


class TestExpLogDistance:
    def test_exp_quarter_turn(self):
        q = exp_batch(np.array([0.0, 0.0, 1.0]), np.array([[np.pi / 2, 0.0, 0.0]]))[0]
        assert np.allclose(q, [1.0, 0.0, 0.0], atol=1e-15)

    def test_exp_zero_vector_is_identity(self):
        p = unit([1.0, 2.0, 2.0])
        q = exp_batch(p, np.zeros((1, 3)))[0]
        assert np.allclose(q, p)

    def test_log_recovers_direction_and_length(self):
        v = log_batch(np.array([0.0, 0.0, 1.0]), np.array([[1.0, 0.0, 0.0]]))[0]
        assert np.allclose(v, [np.pi / 2, 0.0, 0.0], atol=1e-15)

    def test_log_antipodal_raises(self):
        with pytest.raises(AntipodalPoint):
            log_batch(np.array([0.0, 0.0, 1.0]), np.array([[0.0, 0.0, -1.0]]))

    def test_distance_quarter_and_half(self):
        p = [1.0, 0.0, 0.0]
        assert geodesic(p, [0.0, 1.0, 0.0]) == pytest.approx(np.pi / 2)
        assert geodesic(p, [-1.0, 0.0, 0.0]) == pytest.approx(np.pi)
        assert geodesic(p, p) == 0.0

    @given(st.integers(0, 2**32 - 1), st.integers(3, 8))
    @settings(max_examples=60, deadline=None)
    def test_exp_log_roundtrip(self, seed, D):
        rng = np.random.default_rng(seed)
        p = random_point(rng, D)
        Q = np.array([near_point(rng, p) for _ in range(4)])
        V = log_batch(p, Q)
        assert np.allclose(np.linalg.norm(V, axis=1), pairwise_geodesic(p[None], Q)[0],
                           rtol=0.0, atol=1e-12)
        assert np.max(np.abs(V @ p)) < 1e-12
        assert np.max(np.abs(exp_batch(p, V) - Q)) < 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_log_exp_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        p = random_point(rng, 4)
        V = random_tangents(rng, p, 4)
        norms = np.linalg.norm(V, axis=1, keepdims=True)
        V = np.where(norms > 3.0, V * (3.0 / norms), V)
        W = log_batch(p, exp_batch(p, V))
        assert np.max(np.abs(W - V)) < 1e-10

    def test_batch_kernels_match_the_closed_forms(self):
        rng = np.random.default_rng(0)
        p = random_point(rng, 4)
        V = random_tangents(rng, p, 20)
        V[3] = 0.0
        theta = np.linalg.norm(V, axis=1, keepdims=True)
        expect = np.cos(theta) * p + np.sin(theta) * V / np.where(theta > 0, theta, 1.0)
        assert np.max(np.abs(exp_batch(p, V) - expect)) < 1e-12
        X = np.array([near_point(rng, p) for _ in range(20)])
        U = X - np.outer(X @ p, p)
        expect = np.arccos(X @ p)[:, None] * U / np.linalg.norm(U, axis=1, keepdims=True)
        assert np.max(np.abs(log_batch(p, X) - expect)) < 1e-12


class TestParallelTransport:
    p = np.array([0.0, 0.0, 1.0])
    q = np.array([1.0, 0.0, 0.0])

    def test_orthogonal_direction_unchanged(self):
        v = _transport_batch(np.array([[0.0, 1.0, 0.0]]), self.p, self.q)[0]
        assert np.allclose(v, [0.0, 1.0, 0.0], atol=1e-15)

    def test_along_geodesic_rotates(self):
        v = _transport_batch(np.array([[1.0, 0.0, 0.0]]), self.p, self.q)[0]
        assert np.allclose(v, [0.0, 0.0, -1.0], atol=1e-15)

    def test_transport_to_same_point_is_identity(self):
        p = unit([1.0, 1.0, 1.0])
        V = np.cross(p, [0.0, 0.0, 1.0])[None]
        assert np.array_equal(_transport_batch(V, p, p), V)

    def test_antipodal_raises(self):
        with pytest.raises(AntipodalPoint):
            _transport_batch(np.array([[1.0, 0.0, 0.0]]), self.p, -self.p)

    @given(st.integers(0, 2**32 - 1), st.integers(3, 7))
    @settings(max_examples=60, deadline=None)
    def test_transport_is_linear_isometry(self, seed, D):
        rng = np.random.default_rng(seed)
        p = random_point(rng, D)
        q = near_point(rng, p)
        A = random_tangents(rng, p, 3)
        T = _transport_batch(A, p, q)
        assert np.max(np.abs(T @ q)) < 1e-10
        assert np.max(np.abs(T @ T.T - A @ A.T)) < 1e-9
        a, b = rng.standard_normal(2)
        combo = _transport_batch((a * A[0] + b * A[1])[None], p, q)[0]
        assert np.max(np.abs(combo - (a * T[0] + b * T[1]))) < 1e-9

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_transport_inverts(self, seed):
        rng = np.random.default_rng(seed)
        p = random_point(rng, 5)
        q = near_point(rng, p)
        V = random_tangents(rng, p, 3)
        back = _transport_batch(_transport_batch(V, p, q), q, p)
        assert np.max(np.abs(back - V)) < 1e-9

    def test_matches_the_rotation_of_the_geodesic_plane(self):
        # the component along the geodesic turns with it; the rest is kept
        rng = np.random.default_rng(2)
        p = random_point(rng, 5)
        q = near_point(rng, p)
        V = random_tangents(rng, p, 15)
        u = log_batch(p, q[None])[0]
        theta = np.linalg.norm(u)
        u /= theta
        turn = (np.cos(theta) - 1.0) * u - np.sin(theta) * p
        expect = V + np.outer(V @ u, turn)
        assert np.max(np.abs(_transport_batch(V, p, q) - expect)) < 1e-12


class TestFrechetMean:
    def test_midpoint_of_two_points(self):
        m = frechet_mean(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        assert np.allclose(m, unit([1.0, 1.0, 0.0]), atol=1e-10)

    def test_single_point(self):
        p = unit([2.0, -1.0, 0.5])
        m = frechet_mean(np.array([p]))
        assert np.allclose(m, p)

    def test_stationarity_of_result(self):
        rng = np.random.default_rng(7)
        base = unit([0.0, 0.0, 1.0, 0.0])
        X = np.array([unit(base + 0.3 * rng.standard_normal(4)) for _ in range(25)])
        m = frechet_mean(X)
        assert np.linalg.norm(log_batch(m, X).mean(axis=0)) < 1e-9

    def test_degenerate_spread_raises(self):
        with pytest.raises((ValueError, NoConvergence, AntipodalPoint)):
            frechet_mean(np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]))


class TestFrames:
    def test_explicit_basis(self):
        f = MovingFrame([0.0, 0.0, 1.0], [[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
        assert np.allclose(f.matrix, [[-1, 0, 0], [0, -1, 0]])

    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(ValueError):
            MovingFrame([0.0, 0.0, 1.0], [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])

    def test_frame_requires_full_rank_count(self):
        p = [0.0, 0.0, 1.0]
        with pytest.raises(ValueError):
            MovingFrame(p, [[1.0, 0.0, 0.0]])

    def test_basis_row_with_normal_component_rejected(self):
        p = [0.0, 0.0, 1.0]
        with pytest.raises(ValueError):
            MovingFrame(p, [[1.0, 0.0, 1e-9], [0.0, 1.0, 0.0]])
        f = MovingFrame(p, [[1.0, 0.0, 1e-12], [0.0, 1.0, 0.0]])
        assert np.array_equal(f.matrix, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def test_basis_of_wrong_shape_rejected(self):
        p = [0.0, 0.0, 1.0]
        for basis in (
            [[1.0, 0.0, 0.0]],
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]],
            [[1.0, 0.0], [0.0, 1.0]],
        ):
            with pytest.raises(ValueError):
                MovingFrame(p, basis)

    def test_standard_frame(self):
        f = standard_frame(4)
        assert np.allclose(f.p, [1, 0, 0, 0])
        assert np.allclose(f.matrix, np.eye(4)[1:])

    def test_transport_frame_stays_orthonormal(self):
        rng = np.random.default_rng(3)
        f = random_frame(rng.standard_normal(6), 1)
        m = near_point(rng, f.p)
        B = transport_frame(f, m)
        assert not B.flags.writeable
        assert np.max(np.abs(B @ B.T - np.eye(5))) < 1e-9
        assert np.max(np.abs(B @ m)) < 1e-9

    def test_transport_frame_to_base_is_identity(self):
        f = random_frame(unit([1.0, -1.0, 2.0]), 9)
        assert transport_frame(f, f.p) is f.matrix

    def test_transport_frame_is_the_transported_basis(self):
        rng = np.random.default_rng(4)
        f = random_frame(rng.standard_normal(5), 3)
        m = near_point(rng, f.p)
        expect = MovingFrame(m, _transport_batch(f.matrix, f.p, m)).matrix
        assert np.array_equal(transport_frame(f, m), expect)

    def test_transport_preserves_frame_coordinates(self):
        # coordinates of a transported vector in the transported frame match
        # the original coordinates: transport commutes with the frame
        rng = np.random.default_rng(11)
        f = random_frame(rng.standard_normal(5), 2)
        p = f.p
        m = near_point(rng, p)
        V = random_tangents(rng, p, 4)
        c0 = V @ f.matrix.T
        c1 = _transport_batch(V, p, m) @ transport_frame(f, m).T
        assert np.max(np.abs(c0 - c1)) < 1e-9

    def test_coordinate_roundtrip(self):
        rng = np.random.default_rng(5)
        f = random_frame(rng.standard_normal(4), 0)
        V = random_tangents(rng, f.p, 4)
        assert np.max(np.abs((V @ f.matrix.T) @ f.matrix - V)) < 1e-12

    def test_frames_equal_within_tolerance(self):
        f = random_frame(unit([1.0, 2.0, 3.0, 4.0]), 42)
        assert frames_equal(f, random_frame(f.p, 42), tol=0.0)
        assert not frames_equal(f, random_frame(f.p, 43), tol=1e-6)
        shifted = MovingFrame(f.p, f.matrix + 1e-11 * f.p)
        assert frames_equal(f, shifted, tol=1e-10)

    def test_save_load_roundtrip(self, tmp_path):
        f = random_frame(unit([0.1, 0.2, -0.3, 0.9]), 4)
        path = tmp_path / "frame.json"
        write_json(path, frame_to_dict(f))
        g = load_frame(path)
        assert frames_equal(f, g, tol=1e-15)
        data = json.loads(path.read_text())
        assert set(data) == {"p", "basis"}


class TestBatchKernels:
    def test_pairwise_geodesic(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((6, 4))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        Dm = pairwise_geodesic(X)
        assert Dm.shape == (6, 6)
        assert np.allclose(np.diag(Dm), 0.0, atol=1e-7)
        assert np.allclose(Dm, Dm.T)
        assert Dm[1, 4] == pytest.approx(geodesic(X[1], X[4]), abs=1e-12)

    @pytest.mark.parametrize("n, D", [(1, 3), (300, 3), (257, 7), (129, 60)])
    def test_pairwise_geodesic_bitwise_equals_broadcast(self, n, D):
        rng = np.random.default_rng(n + D)
        X = unit_rows(rng, n, D)
        X[n // 2] = -X[0]  # one antipodal pair, on the obtuse branch
        Dm = pairwise_geodesic(X)
        assert np.array_equal(Dm, broadcast_geodesic(X, X))
        assert np.array_equal(Dm, Dm.T)

    @pytest.mark.parametrize(
        "n, m, D", [(300, 1, 3), (1, 300, 3), (257, 129, 7), (129, 257, 60), (300, 7, 3)]
    )
    def test_pairwise_geodesic_rectangular_bitwise_equals_broadcast(self, n, m, D):
        rng = np.random.default_rng(n * m + D)
        X, Y = unit_rows(rng, n, D), unit_rows(rng, m, D)
        assert np.array_equal(pairwise_geodesic(X, Y), broadcast_geodesic(X, Y))

    @pytest.mark.parametrize("D", [2, 3, 4, 10, 60])
    def test_distance_bitwise_equals_pairwise_and_scalar_formula(self, D):
        def scalar(p, q):
            c, diff, summ = np.sum(p * q), p - q, p + q
            if c >= 0.0:
                return 2.0 * np.arcsin(np.clip(0.5 * np.sqrt(np.sum(diff * diff)), 0.0, 1.0))
            return np.pi - 2.0 * np.arcsin(np.clip(0.5 * np.sqrt(np.sum(summ * summ)), 0.0, 1.0))

        rng = np.random.default_rng(D)
        X, Y = unit_rows(rng, 200, D), unit_rows(rng, 200, D)
        Y[:40] = X[:40]  # identical pairs
        Y[40:80] = -X[40:80]  # antipodal pairs
        Y[80:120] = unit_rows(rng, 1, D)[0] * 1e-9 - X[80:120]  # near-antipodal pairs
        Y[80:120] /= np.linalg.norm(Y[80:120], axis=1, keepdims=True)
        Y[120:160] = X[120:160] + 1e-9 * unit_rows(rng, 40, D)  # near-identical pairs
        Y[120:160] /= np.linalg.norm(Y[120:160], axis=1, keepdims=True)
        ps, qs = [unit(x) for x in X], [unit(y) for y in Y]
        P = pairwise_geodesic(np.array(ps), np.array(qs))
        for i, (p, q) in enumerate(zip(ps, qs)):
            assert pairwise_geodesic(p[None], q[None])[0, 0] == P[i, i] == scalar(p, q)
        assert np.all(np.diag(P)[:40] == 0.0)

    @pytest.mark.parametrize("D", [2, 3, 4, 5, 6, 7, 8, 9, 60, 200])
    def test_pairwise_geodesic_bitwise_equals_trailing_axis_kernel(self, D):
        rng = np.random.default_rng(D)
        X, Y = unit_rows(rng, 90, D), unit_rows(rng, 70, D)
        Y[:20] = X[:20]  # identical rows
        Y[20:40] = -X[20:40]  # antipodal rows
        Y[40:60] = 1e-9 * unit_rows(rng, 20, D) - X[40:60]  # near-antipodal rows
        Y[40:60] /= np.linalg.norm(Y[40:60], axis=1, keepdims=True)
        for args in [(X,), (X, Y), (Y, X), (np.vstack([X, Y]),)]:
            got, ref = pairwise_geodesic(*args), trailing_axis_geodesic(*args)
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize(
        "n, m, D",
        [(1, 1, 3), (1, 1, 60), (2000, None, 4), (600, 70, 3), (160, None, 5), (2, 9000, 3),
         (9000, 2, 6), (300, 1, 7)],
    )
    def test_pairwise_geodesic_shapes_bitwise_equal_trailing_axis_kernel(self, n, m, D):
        rng = np.random.default_rng(n + D)
        X = unit_rows(rng, n, D)
        args = (X,) if m is None else (X, unit_rows(rng, m, D))
        got, ref = pairwise_geodesic(*args), trailing_axis_geodesic(*args)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 40), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_pairwise_geodesic_random_shapes_equal_trailing_axis_kernel(self, seed, n, m, D):
        rng = np.random.default_rng(seed)
        X, Y = unit_rows(rng, n, D), unit_rows(rng, m, D)
        k = min(n, m) // 2
        Y[:k] = rng.choice([-1.0, 1.0], size=(k, 1)) * X[:k]
        for args in [(X,), (X, Y)]:
            got, ref = pairwise_geodesic(*args), trailing_axis_geodesic(*args)
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    def test_pairwise_geodesic_duplicate_rows_exactly_zero(self):
        rng = np.random.default_rng(8)
        X = unit_rows(rng, 40, 5)[rng.integers(40, size=300)]
        Dm = pairwise_geodesic(X)
        same = np.all(X[:, None, :] == X[None, :, :], axis=-1)
        assert np.all(Dm[same] == 0.0)
        assert np.all(Dm[~same] > 0.0)
        assert np.array_equal(Dm, Dm.T)

    def test_pairwise_geodesic_memory_is_the_output(self):
        n = 2000
        X = unit_rows(np.random.default_rng(9), n, 3)
        assert peak_alloc_bytes(pairwise_geodesic, X) <= 8 * n * n + 2 * 2**20
