import numpy as np
import pytest

from bundlemw.errors import DegenerateTriangle
from bundlemw.geometry import pairwise_geodesic
from bundlemw.triangles import (
    hopf_backward,
    hopf_forward,
    load_triangles,
    save_triangles,
    triangle_preshape,
)


def equilateral():
    return np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])


def transformed(t, scale=1.0, angle=0.0, shift=(0.0, 0.0)):
    R = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    return scale * t @ R.T + np.asarray(shift)


def preshape(t):
    return triangle_preshape(np.asarray(t)[None])[0]


def backward(theta, phi, psi=0.0):
    """The vertices of one shape."""
    return hopf_backward(np.array([theta]), np.array([phi]), np.array([psi]))[0]


def shape_distance(t0, t1):
    """Geodesic distance between the shape points of two triangles."""
    Y = hopf_forward(triangle_preshape(np.array([t0, t1])))
    return float(pairwise_geodesic(Y[:1], Y[1:])[0, 0])


def angles(Y):
    return np.arccos(np.clip(Y[:, 2], -1.0, 1.0)), np.arctan2(Y[:, 1], Y[:, 0])


class TestPreshape:
    def test_centered_unit_norm(self):
        z = preshape(equilateral())
        assert abs(z.sum()) < 1e-12
        assert np.linalg.norm(z) == pytest.approx(1.0, abs=1e-12)

    def test_idempotent(self):
        z = preshape(equilateral())
        z2 = preshape(np.column_stack([z.real, z.imag]))
        assert np.max(np.abs(z - z2)) < 1e-12

    def test_translation_invariance(self):
        t = equilateral()
        z1 = preshape(transformed(t, shift=(3.5, -2.0)))
        assert np.max(np.abs(preshape(t) - z1)) < 1e-12

    def test_scale_invariance(self):
        t = equilateral()
        assert np.max(np.abs(preshape(t) - preshape(transformed(t, scale=5.0)))) < 1e-12

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateTriangle):
            preshape([[1.0, 2.0]] * 3)


class TestHopfMaps:
    def test_round_trip_angles(self):
        rng = np.random.default_rng(0)
        theta = rng.uniform(1e-6, np.pi - 1e-6, 1000)
        phi = rng.uniform(-np.pi + 1e-6, np.pi - 1e-6, 1000)
        psi = rng.uniform(-np.pi, np.pi, 1000)
        theta2, phi2 = angles(hopf_forward(triangle_preshape(hopf_backward(theta, phi, psi))))
        assert np.max(np.abs(theta2 - theta)) < 1e-9
        assert np.max(np.abs(phi2 - phi)) < 1e-9

    def test_backward_output_centered(self):
        assert np.max(np.abs(backward(0.7, 1.1, 2.3).sum(axis=0))) < 1e-12

    def test_fiber_invariance(self):
        rng = np.random.default_rng(1)
        Z = triangle_preshape(rng.standard_normal((1, 3, 2)))
        Y = hopf_forward(Z)
        for alpha in (0.3, 1.7, -2.4):
            assert np.max(np.abs(hopf_forward(Z * np.exp(1j * alpha)) - Y)) < 1e-9

    def test_psi_does_not_change_shape(self):
        for theta, phi in [(0.4, 0.9), (2.0, -1.3), (1.5707, 3.0)]:
            t1 = backward(theta, phi, 0.1)
            t2 = backward(theta, phi, -2.8)
            assert shape_distance(t1, t2) < 1e-9

    def test_forward_unit_norm(self):
        rng = np.random.default_rng(2)
        Y = hopf_forward(triangle_preshape(rng.standard_normal((50, 3, 2))))
        assert np.max(np.abs(np.linalg.norm(Y, axis=1) - 1.0)) < 1e-12

    def test_theta_bounds_checked(self):
        with pytest.raises(ValueError):
            backward(-0.1, 0.0)
        with pytest.raises(ValueError):
            backward(3.2, 0.0)

    def test_forward_map_identity_regression(self):
        # regression pin for the algebraic form of the forward map: the
        # sphere coordinates equal (sin t cos p, sin t sin p, cos t) when
        # the input is the backward parameterization
        theta, phi, psi = 1.1, -0.6, 0.8
        t = backward(theta, phi, psi)
        z = t[:, 0] + 1j * t[:, 1]
        z1, z2 = z[0], z[1]
        w = 2.0 * z1 * np.conj(z2)
        y = np.array([w.real, w.imag, abs(z2) ** 2 - abs(z1) ** 2])
        expect = np.array(
            [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
        )
        assert np.max(np.abs(y - expect)) < 1e-12


class TestShapeDistance:
    def test_zero_on_self(self):
        t = equilateral()
        assert shape_distance(t, t) == 0.0

    def test_similarity_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            t = rng.standard_normal((3, 2))
            sim = transformed(
                t,
                scale=float(rng.uniform(0.2, 5.0)),
                angle=float(rng.uniform(-np.pi, np.pi)),
                shift=tuple(rng.standard_normal(2)),
            )
            assert shape_distance(t, sim) < 1e-9

    def test_symmetric_and_triangle_inequality(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            ts = rng.standard_normal((3, 3, 2))
            d01 = shape_distance(ts[0], ts[1])
            d10 = shape_distance(ts[1], ts[0])
            assert d01 == pytest.approx(d10, abs=1e-12)
            d12 = shape_distance(ts[1], ts[2])
            d02 = shape_distance(ts[0], ts[2])
            assert d02 <= d01 + d12 + 1e-10

    def test_distinct_shapes_positive(self):
        t1 = np.array([[0.0, 0.0], [1.0, 0.0], [0.9, 0.05]])
        assert shape_distance(equilateral(), t1) > 0.1


class TestTrianglesIO:
    def test_roundtrip(self, tmp_path):
        tris = np.random.default_rng(5).standard_normal((4, 3, 2))
        path = tmp_path / "triangles.csv"
        save_triangles(path, tris)
        assert np.array_equal(load_triangles(path), tris)

    def test_header_and_validation(self, tmp_path):
        path = tmp_path / "triangles.csv"
        save_triangles(path, equilateral()[None])
        assert path.read_text().splitlines()[0] == "x11,x12,x21,x22,x31,x32"
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2,3\n")
        with pytest.raises(ValueError):
            load_triangles(bad)
