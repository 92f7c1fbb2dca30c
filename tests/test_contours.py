import numpy as np
import pytest

from bundlemw.errors import (
    ClusterTooSmall,
    DegenerateContour,
    DimensionMismatch,
    NoConvergence,
)
from bundlemw.contours import (
    Contour,
    align_shape,
    contour_to_srvf,
    load_contour_dir,
    load_contour_file,
    load_distmat,
    pairwise_shape_distance,
    save_contours_json,
    save_distmat,
    shape_frechet_mean,
    shape_statistics,
)
from bundlemw.geometry import log_batch
from helpers import (
    geodesic,
    loop_align_shape,
    loop_contour_to_srvf,
    loop_procrustes_rotation,
    loop_shape_distance,
    unit,
)


def srvf(contour, T):
    return contour_to_srvf([contour], T)[0]


def rotation_onto(q0, q1):
    """The rotation that aligns q1 to q0 without seam search."""
    return align_shape(q0, q1[None], seam_search=False)[1][0]


def shape_distance(q0, q1, seam_search=True):
    return pairwise_shape_distance([q0, q1], seam_search)[0, 1]


def circle_contour(n=200, r=1.0, center=(0.0, 0.0), phase=0.0):
    t = np.linspace(0, 2 * np.pi, n, endpoint=False) + phase
    return Contour(np.vstack([center[0] + r * np.cos(t), center[1] + r * np.sin(t)]))


def square_contour():
    return Contour(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]).T)


def ellipse_contour(a=2.0, b=1.0, n=150):
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return Contour(np.vstack([a * np.cos(t), b * np.sin(t)]))


def rot(theta):
    return np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )


class TestContourType:
    def test_drops_duplicated_closing_point(self):
        P = np.array([[0, 1, 1, 0, 0], [0, 0, 1, 1, 0]], dtype=float)
        c = Contour(P)
        assert c.T == 4

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            Contour(np.zeros((2, 3)))

    def test_wrong_orientation_rejected(self):
        with pytest.raises(ValueError):
            Contour(np.zeros((5, 3)))


class TestContourToSrvf:
    def test_circle_has_constant_speed(self):
        norms = np.linalg.norm(srvf(circle_contour(100), 100), axis=0)
        assert np.max(np.abs(norms - 1.0 / np.sqrt(100))) < 1e-6

    def test_unit_frobenius_norm(self):
        assert np.linalg.norm(srvf(square_contour(), 64)) == pytest.approx(1.0, abs=1e-12)

    def test_translation_invariance(self):
        q0 = srvf(circle_contour(), 80)
        q1 = srvf(circle_contour(center=(5.0, -3.0)), 80)
        assert np.max(np.abs(q0 - q1)) < 1e-9

    def test_scale_invariance(self):
        q0 = srvf(circle_contour(), 80)
        q1 = srvf(circle_contour(r=3.0), 80)
        assert np.max(np.abs(q0 - q1)) < 1e-9

    def test_degenerate_contour_rejected(self):
        c = Contour.__new__(Contour)
        c.points = np.zeros((2, 5))
        with pytest.raises(DegenerateContour):
            contour_to_srvf([square_contour(), c], T=10)

    def test_small_T_rejected(self):
        with pytest.raises(ValueError):
            contour_to_srvf([circle_contour()], T=3)


class TestProcrustes:
    def test_identity_on_self(self):
        q = srvf(ellipse_contour(), 50)
        assert np.array_equal(rotation_onto(q, q), np.eye(2))

    def test_recovers_planted_rotation(self):
        rng = np.random.default_rng(0)
        raw = rng.standard_normal((2, 40))
        q0 = raw / np.linalg.norm(raw)
        q1 = rot(0.7) @ q0
        O = rotation_onto(q0, q1)
        assert np.max(np.abs(O - rot(-0.7))) < 1e-12
        assert np.linalg.norm(q0 - O @ q1) < 1e-12

    def test_special_orthogonal(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.standard_normal((2, 30))
            b = rng.standard_normal((2, 30))
            O = rotation_onto(a / np.linalg.norm(a), b / np.linalg.norm(b))
            assert np.max(np.abs(O @ O.T - np.eye(2))) < 1e-12
            assert np.linalg.det(O) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        q0 = srvf(circle_contour(), 40)
        q1 = srvf(circle_contour(), 50)
        with pytest.raises(DimensionMismatch):
            rotation_onto(q0, q1)


class TestShapeDistance:
    def test_zero_on_self(self):
        q = srvf(square_contour(), 100)
        assert shape_distance(q, q) == 0.0

    def test_rotated_copy_at_zero(self):
        q0 = srvf(ellipse_contour(), 100)
        assert shape_distance(q0, rot(1.3) @ q0) < 1e-9

    def test_seam_shifted_copy_at_zero(self):
        q0 = srvf(ellipse_contour(), 100)
        q1 = np.roll(q0, 17, axis=1)
        assert shape_distance(q0, q1) < 1e-9
        # without seam search the same pair is far apart
        assert shape_distance(q0, q1, seam_search=False) > 0.1

    def test_circle_vs_square_golden(self):
        qc = srvf(circle_contour(200), 100)
        qs = srvf(square_contour(), 100)
        d = shape_distance(qc, qs)
        assert d == pytest.approx(0.42576680560886576, abs=1e-9)
        assert shape_distance(qs, qc) == pytest.approx(d, abs=1e-10)

    def test_similarity_invariance_of_inputs(self):
        rng = np.random.default_rng(2)
        base = circle_contour(120)
        ref = srvf(ellipse_contour(), 100)
        d0 = shape_distance(ref, srvf(base, 100))
        for _ in range(5):
            A = rot(float(rng.uniform(-np.pi, np.pi)))
            scale = float(rng.uniform(0.3, 4.0))
            shift = rng.standard_normal((2, 1))
            moved = Contour(scale * (A @ base.points) + shift)
            d1 = shape_distance(ref, srvf(moved, 100))
            assert abs(d1 - d0) < 1e-8

    def test_pairwise_matrix(self):
        shapes = [
            srvf(circle_contour(), 60),
            srvf(square_contour(), 60),
            srvf(ellipse_contour(), 60),
        ]
        D = pairwise_shape_distance(shapes)
        assert np.array_equal(D, D.T)
        assert np.all(np.diag(D) == 0.0)
        assert D[0, 1] > 0.1 and D[0, 2] > 0.01

    def test_metric_axioms(self):
        rng = np.random.default_rng(3)
        Q = np.array([srvf(c, 30) for c in noisy_ellipses(rng, n=8)])
        D = pairwise_shape_distance(Q)
        assert np.all(D[~np.eye(len(Q), dtype=bool)] > 0.0)
        assert np.all(D[:, :, None] <= D[:, None, :] + D[None, :, :].transpose(0, 2, 1) + 1e-10)


def polygon_contours():
    """Regular 4- to 15-gons: their circular shifts tie exactly."""
    out = []
    for k in range(4, 16):
        t = np.arange(k) * (2 * np.pi / k)
        out.append(Contour(np.vstack([np.cos(t), np.sin(t)])))
    return out


def noisy_ellipses(rng, n=12, samples=80):
    """Contours shaped like a contour change-point frame: jittered ellipses."""
    t = np.linspace(0, 2 * np.pi, samples, endpoint=False)
    return [
        Contour(
            np.vstack([(1.3 + 0.05 * rng.standard_normal()) * np.cos(t), np.sin(t)])
            + 0.02 * rng.standard_normal((2, samples))
        )
        for _ in range(n)
    ]


def srvf_families(T):
    """Four (n, 2, T) stacks built by the per-contour reference: polygons,
    rolled copies of one shape, random SRVFs and noisy ellipses."""
    rng = np.random.default_rng(T)
    polygons = np.array([loop_contour_to_srvf(c.points, T) for c in polygon_contours()])
    ellipses = np.array([loop_contour_to_srvf(c.points, T) for c in noisy_ellipses(rng)])
    rolled = np.array([np.roll(ellipses[0], s, axis=1) for s in range(0, T, max(1, T // 10))])
    noise = rng.standard_normal((10, 2, T))
    noise /= np.linalg.norm(noise, axis=(1, 2), keepdims=True)
    return {"polygons": polygons, "rolled": rolled, "random": noise, "ellipses": ellipses}


@pytest.mark.parametrize("T", [8, 30, 100])
class TestAlignmentKernelMatchesPerShapeLoop:
    """The stacked kernels give the bits of the per-shape code they replaced."""

    def test_srvf_stack(self, T):
        rng = np.random.default_rng(T)
        for contours in (polygon_contours(), noisy_ellipses(rng)):
            Q = contour_to_srvf(contours, T)
            for c, q in zip(contours, Q):
                assert np.array_equal(q, loop_contour_to_srvf(c.points, T))

    @pytest.mark.parametrize("seam_search", [True, False])
    def test_aligned_stacks(self, T, seam_search):
        for Q in srvf_families(T).values():
            for ref in Q:
                aligned, rotations = align_shape(ref, Q, seam_search)
                for q, got, O in zip(Q, aligned, rotations):
                    assert np.array_equal(got, loop_align_shape(ref, q, seam_search))
                    if not seam_search:
                        assert np.array_equal(O, loop_procrustes_rotation(ref, q))

    @pytest.mark.parametrize("seam_search", [True, False])
    def test_pairwise_entries_are_shape_distances(self, T, seam_search):
        for Q in srvf_families(T).values():
            D = pairwise_shape_distance(Q, seam_search)
            for i in range(len(Q)):
                for j in range(i + 1, len(Q)):
                    d = shape_distance(Q[i], Q[j], seam_search)
                    assert D[i, j] == D[j, i] == d
                    assert d == loop_shape_distance(Q[i], Q[j], seam_search)


def point(q):
    return unit(np.ravel(q))


class TestShapeMean:
    def test_identical_shapes(self):
        q = srvf(ellipse_contour(), 50)
        mean, aligned = shape_frechet_mean([q.copy() for _ in range(4)])
        assert geodesic(point(mean), point(q)) < 1e-12
        for s in aligned:
            assert np.max(np.abs(s - q)) < 1e-12

    def test_two_shapes_midpoint(self):
        q0 = srvf(circle_contour(), 60)
        q1 = align_shape(q0, srvf(ellipse_contour(1.5, 1.0), 60)[None])[0][0]
        mean, aligned = shape_frechet_mean([q0, q1])
        d0 = geodesic(point(mean), point(aligned[0]))
        d1 = geodesic(point(mean), point(aligned[1]))
        assert d0 == pytest.approx(d1, abs=1e-8)
        total = geodesic(point(aligned[0]), point(aligned[1]))
        assert d0 + d1 == pytest.approx(total, abs=1e-8)

    def test_mean_is_fixed_point(self):
        shapes = [
            srvf(circle_contour(), 40),
            srvf(ellipse_contour(1.3, 1.0), 40),
            srvf(ellipse_contour(1.0, 1.4), 40),
        ]
        mean, aligned = shape_frechet_mean(shapes, tol=1e-12)
        mean2, _ = shape_frechet_mean([mean], tol=1e-12)
        assert geodesic(point(mean), point(mean2)) < 1e-10

    def test_mismatched_T_rejected(self):
        with pytest.raises(DimensionMismatch):
            shape_frechet_mean([srvf(circle_contour(), 40), srvf(circle_contour(), 50)])


class TestShapeStatistics:
    def setup_shapes(self):
        shapes = [srvf(ellipse_contour(1.0 + 0.2 * k, 1.0), 30) for k in range(5)]
        return shape_frechet_mean(shapes)

    def test_zero_covariance_for_identical(self):
        q = srvf(circle_contour(), 30)
        V, S = shape_statistics([q, q.copy()], q)
        assert np.max(np.abs(V)) < 1e-12
        assert np.max(np.abs(S)) < 1e-20

    def test_rank_bound(self):
        mean, aligned = self.setup_shapes()
        V, S = shape_statistics(aligned, mean)
        evals = np.linalg.eigvalsh(S)
        n = len(aligned)
        assert np.sum(evals > 1e-14 * max(evals.max(), 1e-30)) <= n - 1

    def test_parseval_row_norms(self):
        mean, aligned = self.setup_shapes()
        V, _ = shape_statistics(aligned, mean)
        logs = log_batch(point(mean), aligned.reshape(len(aligned), -1))
        assert np.allclose(np.linalg.norm(V, axis=1), np.linalg.norm(logs, axis=1),
                           rtol=0.0, atol=1e-10)

    def test_trace_identity(self):
        mean, aligned = self.setup_shapes()
        V, S = shape_statistics(aligned, mean)
        total = sum(geodesic(point(mean), point(s)) ** 2 for s in aligned)
        assert np.trace(S) == pytest.approx(total / (len(aligned) - 1), abs=1e-10)

    def test_needs_two_shapes(self):
        q = srvf(circle_contour(), 30)
        with pytest.raises(ClusterTooSmall):
            shape_statistics([q], q)

    def test_mean_must_be_a_unit_shape(self):
        q = srvf(circle_contour(), 30)
        with pytest.raises(ValueError, match="unit Frobenius norm"):
            shape_statistics([q, q], 2.0 * q)


class TestContourIO:
    def test_csv_roundtrip(self, tmp_path):
        c = square_contour()
        path = tmp_path / "frame0.csv"
        np.savetxt(path, c.points.T, delimiter=",", header="x,y")
        # numpy prefixes the header with '#'; loader must cope with plain too
        path.write_text("x,y\n" + "\n".join(f"{x},{y}" for x, y in c.points.T))
        back = load_contour_file(path)
        assert len(back) == 1
        assert np.max(np.abs(back[0].points - c.points)) < 1e-15

    def test_json_roundtrip(self, tmp_path):
        cs = [square_contour(), circle_contour(16)]
        path = tmp_path / "frame1.json"
        save_contours_json(path, cs)
        back = load_contour_file(path)
        assert len(back) == 2
        for a, b in zip(back, cs):
            assert np.max(np.abs(a.points - b.points)) == 0.0

    def test_dir_loader_sorted(self, tmp_path):
        save_contours_json(tmp_path / "b.json", [square_contour()])
        save_contours_json(tmp_path / "a.json", [circle_contour(16)])
        (tmp_path / "ignore.txt").write_text("not a contour")
        out = load_contour_dir(tmp_path)
        assert list(out) == ["a", "b"]

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            load_contour_dir(tmp_path)

    def test_distmat_roundtrip(self, tmp_path):
        D = np.array([[0.0, 1.5], [1.5, 0.0]])
        path = tmp_path / "distmat.csv"
        save_distmat(path, D, names=["f0", "f1"])
        back, names = load_distmat(path)
        assert names == ["f0", "f1"]
        assert np.max(np.abs(back - D)) == 0.0
        save_distmat(path, D)
        back2, names2 = load_distmat(path)
        assert names2 == []
        assert np.array_equal(back2, D)
