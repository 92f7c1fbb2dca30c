"""The batch triangle maps against the per-row code they replaced: the same
bits, the same file bytes, and the error of the first row that fails."""

import numpy as np
import pytest

from bundlemw.errors import DegenerateTriangle
from bundlemw.triangles import (
    hopf_backward,
    hopf_forward,
    load_angles,
    load_triangles,
    save_sphere_points,
    save_triangles,
    triangle_preshape,
)

from helpers import (
    rowwise_save_sphere_points,
    rowwise_save_triangles,
    rowwise_shape_points,
    rowwise_triangles,
)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    if np.iscomplexobj(a):
        a, b = a.view(float), b.view(float)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def angle_rows(seed, n=10_000):
    """theta, phi, psi drawn as the sim_fit benchmark draws them."""
    rng = np.random.default_rng(seed)
    return np.column_stack(
        [
            rng.uniform(0.05, np.pi - 0.05, n),
            rng.uniform(-np.pi, np.pi, n),
            rng.uniform(0.0, 2.0 * np.pi, n),
        ]
    )


def small_int_triangles(seed, n=4000):
    """Vertices in {0, -0, +-1, +-2}: collinear rows, vertices at the
    centroid and signed zeros, the cases where only exact arithmetic gives
    the same longitude; rows whose vertices all coincide are dropped."""
    vals = np.array([0.0, -0.0, 1.0, -1.0, 2.0, -2.0])
    V = vals[np.random.default_rng(seed).integers(0, 6, (n, 3, 2))]
    return V[~np.all(V == V[:, :1], axis=(1, 2))]


def corpus():
    """Round-trip rows as the sim_fit benchmark makes them, random and
    small-integer triangles."""
    A = angle_rows(1)
    rng = np.random.default_rng(11)
    return np.concatenate(
        [
            hopf_backward(*A.T),
            rng.standard_normal((3000, 3, 2)) * 10.0 ** rng.integers(0, 5, (3000, 1, 1)),
            small_int_triangles(12),
        ]
    )


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_backward_matches_rowwise(seed):
    A = angle_rows(seed)
    short = np.arange(len(A)) % 3 == 0
    A[short, 2] = 0.0
    rows = [r[:2] if s else r for r, s in zip(A.tolist(), short)]
    assert same_bits(hopf_backward(*A.T), rowwise_triangles(rows))


def test_backward_matches_rowwise_at_the_poles():
    rows = [[0.0, 0.3], [np.pi, -0.4, 1.0], [0.0, -0.0, -0.0], [np.pi, np.pi], [0.5, -0.0]]
    A = np.array([(r + [0.0])[:3] for r in rows])
    assert same_bits(hopf_backward(*A.T), rowwise_triangles(rows))


def test_forward_matches_rowwise(tmp_path):
    V = corpus()
    Y = hopf_forward(triangle_preshape(V))
    rows, theta, phi = rowwise_shape_points(V)
    assert same_bits(Y, rows)
    # the angles the sphere file holds read back bit for bit
    save_sphere_points(tmp_path / "sphere.csv", Y)
    A = load_angles(tmp_path / "sphere.csv")
    assert same_bits(A[:, 0], theta) and same_bits(A[:, 1], phi)


def test_corpus_tells_the_rounding_apart():
    # each of these shortcuts changes some bits of the corpus, so a batch
    # map that took one would fail test_forward_matches_rowwise
    V = corpus()
    Z = triangle_preshape(V)
    h = np.hypot(Z.real, Z.imag)
    assert (np.float_power(h, 2.0) != h * h).any()
    assert (np.abs(Z) != h).any()
    A, c, d = 2.0 * Z[:, 0], Z[:, 1].real, -Z[:, 1].imag
    fused = A * np.conj(Z[:, 1])
    assert (fused.real != A.real * c - A.imag * d).any()
    z = V[..., 0] + 1j * V[..., 1]
    z = z - z.mean(axis=1, keepdims=True)
    norm = np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag))[:, None]
    assert (z.real / norm != Z.real).any()


def test_file_bytes_match_rowwise(tmp_path):
    V = corpus()
    save_triangles(tmp_path / "new.csv", V)
    rowwise_save_triangles(tmp_path / "old.csv", V)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert same_bits(load_triangles(tmp_path / "new.csv"), V)
    save_sphere_points(tmp_path / "new_sphere.csv", hopf_forward(triangle_preshape(V)))
    rowwise_save_sphere_points(tmp_path / "old_sphere.csv", *rowwise_shape_points(V))
    assert (tmp_path / "new_sphere.csv").read_bytes() == (tmp_path / "old_sphere.csv").read_bytes()


def test_each_row_gets_the_bits_it_gets_alone():
    A = angle_rows(3, n=20)
    V = hopf_backward(*A.T)
    Z = triangle_preshape(V)
    Y = hopf_forward(Z)
    for i in range(len(A)):
        assert same_bits(hopf_backward(*A[i:i + 1].T)[0], V[i])
        assert same_bits(triangle_preshape(V[i:i + 1])[0], Z[i])
        assert same_bits(hopf_forward(Z[i:i + 1])[0], Y[i])


def test_save_triangles_takes_a_stack_or_a_list(tmp_path):
    V = hopf_backward(*angle_rows(4, n=5).T)
    save_triangles(tmp_path / "a.csv", V)
    save_triangles(tmp_path / "b.csv", list(V))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestFirstFailingRow:
    # a centered preshape cannot be recovered from vertices 1e10 apart from
    # the origin and 1e-6 apart from each other
    far = [[1e10, 0.0], [1e10 + 1e-6, 0.0], [1e10, 1e-6]]
    flat = [[1.0, 2.0]] * 3
    ok = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]

    def test_preshape_error_before_a_later_degenerate_row(self):
        with pytest.raises(ValueError, match="centered with unit norm"):
            triangle_preshape(np.array([self.ok, self.far, self.flat]))

    def test_degenerate_error_before_a_later_preshape_error(self):
        with pytest.raises(DegenerateTriangle, match="coincide"):
            triangle_preshape(np.array([self.ok, self.flat, self.far]))

    def test_theta_error_before_a_later_non_finite_row(self):
        with pytest.raises(ValueError, match="theta"):
            hopf_backward(np.array([0.5, 3.2, 0.5]), np.array([0.0, 0.0, np.nan]),
                                np.zeros(3))

    def test_non_finite_error_before_a_later_theta_error(self):
        with pytest.raises(ValueError, match="finite"):
            hopf_backward(np.array([0.5, 0.5, 3.2]), np.array([0.0, np.nan, 0.0]),
                                np.zeros(3))

    def test_theta_error_wins_within_a_row(self):
        with pytest.raises(ValueError, match="theta"):
            hopf_backward(np.array([np.nan]), np.array([0.0]), np.array([0.0]))


class TestLoadAngles:
    def test_mixed_rows_get_psi_zero(self, tmp_path):
        path = tmp_path / "angles.csv"
        path.write_text("theta,phi,psi\n0.5,1.0\n0.6,1.1,2.0\n\n0.7,-1.2\n")
        assert np.array_equal(
            load_angles(path), [[0.5, 1.0, 0.0], [0.6, 1.1, 2.0], [0.7, -1.2, 0.0]]
        )

    def test_sphere_points_give_theta_and_phi(self, tmp_path):
        A = angle_rows(5, n=4)
        path = tmp_path / "sphere.csv"
        save_sphere_points(path, hopf_forward(triangle_preshape(hopf_backward(*A.T))))
        back = load_angles(path)
        assert np.array_equal(back[:, 2], np.zeros(4))
        assert np.max(np.abs(back[:, :2] - A[:, :2])) < 1e-9

    def test_sphere_points_need_five_values(self, tmp_path):
        path = tmp_path / "sphere.csv"
        path.write_text("theta,phi,x,y,z\n0.5,1.0,0,0,1\n0.5,1.0,2.0\n")
        with pytest.raises(ValueError, match="theta,phi,x,y,z"):
            load_angles(path)

    def test_angle_rows_need_two_or_three_values(self, tmp_path):
        path = tmp_path / "angles.csv"
        path.write_text("theta,phi\n0.5,1.0,0,0,1\n")
        with pytest.raises(ValueError, match="theta,phi or theta,phi,psi"):
            load_angles(path)
