import itertools

import numpy as np
import pytest
from scipy.linalg import sqrtm
from scipy.optimize import linprog

from bundlemw.errors import FrameMismatch, InfeasibleWeights
from bundlemw.gauss import GaussianMixture, pairwise_w2sq
from bundlemw.geometry import MovingFrame, standard_frame
from bundlemw.transport import (
    MW2Result,
    TransportPlan,
    mw2,
    pairwise_mw2,
    result_to_dict,
    save_result,
    solve_transportation,
)

from helpers import geodesic, make_mixture, random_frame, reference_transportation, unit


def linprog_cost(C, w0, w1):
    """Reference optimum from the generic LP solver."""
    K0, K1 = C.shape
    A_eq = []
    for i in range(K0):
        row = np.zeros((K0, K1))
        row[i, :] = 1.0
        A_eq.append(row.ravel())
    for j in range(K1):
        col = np.zeros((K0, K1))
        col[:, j] = 1.0
        A_eq.append(col.ravel())
    res = linprog(
        C.ravel(),
        A_eq=np.array(A_eq),
        b_eq=np.concatenate([w0, w1]),
        bounds=(0, None),
        method="highs",
    )
    assert res.success
    return res.fun


def tie_heavy_problems(rng, n, k_max):
    """Integer costs in {0, ..., 3} with uniform marginals, square and
    rectangular in turn: degenerate problems with many optimal plans."""
    problems = []
    for k in range(n):
        K0 = int(rng.integers(2, k_max + 1))
        K1 = K0 if k % 2 == 0 else int(rng.integers(2, k_max + 1))
        C = rng.integers(0, 4, size=(K0, K1)).astype(float)
        problems.append((C, np.full(K0, 1.0 / K0), np.full(K1, 1.0 / K1)))
    return problems


class TestSolveTransportation:
    def test_antidiagonal_cost_picks_diagonal(self):
        plan = solve_transportation([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5], [0.5, 0.5])
        assert plan.cost == pytest.approx(0.0, abs=1e-10)
        assert np.allclose(plan.matrix, np.diag([0.5, 0.5]), atol=1e-8)

    def test_single_row_is_forced(self):
        C = np.array([[3.0, 1.0, 2.0]])
        w1 = np.array([0.2, 0.5, 0.3])
        plan = solve_transportation(C, [1.0], w1)
        assert np.allclose(plan.matrix, w1[None, :])
        assert plan.cost == pytest.approx(float(C[0] @ w1))

    def test_single_column_is_forced(self):
        C = np.array([[3.0], [1.0]])
        w0 = np.array([0.25, 0.75])
        plan = solve_transportation(C, w0, [1.0])
        assert np.allclose(plan.matrix[:, 0], w0)
        assert plan.cost == pytest.approx(1.5)

    def test_uniform_square_matches_best_permutation(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            K = int(rng.integers(2, 6))
            C = rng.random((K, K))
            w = np.full(K, 1.0 / K)
            plan = solve_transportation(C, w, w)
            best = min(
                sum(C[i, p[i]] for i in range(K)) / K
                for p in itertools.permutations(range(K))
            )
            assert plan.cost == pytest.approx(best, abs=1e-9)

    def test_matches_generic_lp_on_rectangular_problems(self):
        rng = np.random.default_rng(1)
        problems = []
        for k_max in (7, 40):
            for _ in range(25):
                K0 = int(rng.integers(2, k_max + 1))
                K1 = int(rng.integers(2, k_max + 1))
                C = rng.random((K0, K1)) * 10.0
                w0 = rng.random(K0) + 0.05
                w0 /= w0.sum()
                w1 = rng.random(K1) + 0.05
                w1 /= w1.sum()
                problems.append((C, w0, w1))
        problems += tie_heavy_problems(np.random.default_rng(15), 20, 40)
        for C, w0, w1 in problems:
            plan = solve_transportation(C, w0, w1)
            assert plan.cost == pytest.approx(linprog_cost(C, w0, w1), abs=1e-9)

    def test_plan_is_feasible_and_sparse(self):
        rng = np.random.default_rng(2)
        problems = []
        for _ in range(15):
            K0 = int(rng.integers(2, 9))
            K1 = int(rng.integers(2, 9))
            C = rng.random((K0, K1))
            w0 = rng.random(K0) + 0.01
            w0 /= w0.sum()
            w1 = rng.random(K1) + 0.01
            w1 /= w1.sum()
            problems.append((C, w0, w1))
        problems += tie_heavy_problems(np.random.default_rng(16), 20, 16)
        for C, w0, w1 in problems:
            K0, K1 = C.shape
            plan = solve_transportation(C, w0, w1)
            assert np.all(plan.matrix >= 0.0)
            assert np.max(np.abs(plan.matrix.sum(axis=1) - w0)) < 1e-8
            assert np.max(np.abs(plan.matrix.sum(axis=0) - w1)) < 1e-8
            assert np.count_nonzero(plan.matrix) <= K0 + K1 - 1

    def test_dual_certificate(self):
        rng = np.random.default_rng(3)
        problems = []
        for _ in range(10):
            K0 = int(rng.integers(2, 7))
            K1 = int(rng.integers(2, 7))
            C = rng.random((K0, K1))
            w0 = rng.random(K0) + 0.1
            w0 /= w0.sum()
            w1 = rng.random(K1) + 0.1
            w1 /= w1.sum()
            problems.append((C, w0, w1))
        problems += tie_heavy_problems(np.random.default_rng(17), 20, 16)
        for C, w0, w1 in problems:
            plan = solve_transportation(C, w0, w1)
            u, v = plan.potentials
            reduced = C - u[:, None] - v[None, :]
            assert np.min(reduced) > -1e-8
            # complementary slackness: mass only where reduced cost vanishes
            assert np.max(np.abs(plan.matrix * reduced)) < 1e-8
            # strong duality
            assert plan.cost == pytest.approx(float(u @ w0 + v @ w1), abs=1e-8)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        C = rng.random((5, 6))
        w0 = np.full(5, 0.2)
        w1 = rng.random(6) + 0.1
        w1 /= w1.sum()
        p1 = solve_transportation(C, w0, w1)
        p2 = solve_transportation(C, w0, w1)
        assert np.array_equal(p1.matrix, p2.matrix)
        assert p1.cost == p2.cost

    def test_invalid_weights_rejected(self):
        C = np.zeros((2, 2))
        with pytest.raises(InfeasibleWeights):
            solve_transportation(C, [0.7, 0.7], [0.5, 0.5])
        with pytest.raises(InfeasibleWeights):
            solve_transportation(C, [1.5, -0.5], [0.5, 0.5])
        with pytest.raises(InfeasibleWeights):
            solve_transportation(C, [1.0], [0.5, 0.5])

    def test_invalid_cost_rejected(self):
        with pytest.raises(ValueError):
            solve_transportation([[np.inf, 0.0]], [1.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            solve_transportation([[-1.0, 0.0]], [1.0], [0.5, 0.5])

    def test_degenerate_equal_marginals(self):
        # classic degenerate instance: partial sums tie everywhere
        C = np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 2.0], [3.0, 2.0, 1.0]])
        w = np.full(3, 1.0 / 3.0)
        plan = solve_transportation(C, w, w)
        assert plan.cost == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(plan.matrix, np.eye(3) / 3.0, atol=1e-8)


def continuous_problems(rng, n, k_max):
    """Uniform costs in [0, 10) with random marginals bounded away from 0."""
    problems = []
    for _ in range(n):
        K0, K1 = (int(k) for k in rng.integers(2, k_max + 1, size=2))
        w0 = rng.random(K0) + 0.05
        w1 = rng.random(K1) + 0.05
        problems.append((rng.random((K0, K1)) * 10.0, w0 / w0.sum(), w1 / w1.sum()))
    return problems


def integer_problems(rng, n, k_max):
    """continuous_problems with costs cut down to {0, ..., 4}: tied costs
    under marginals that do not tie."""
    return [(np.floor(C / 2.0), w0, w1) for C, w0, w1 in continuous_problems(rng, n, k_max)]


def mixture_problems(rng, n):
    """Pairwise squared W2 costs between S^2 mixtures of 6 to 16 components."""
    f = random_frame(np.eye(3)[-1], 17)
    problems = []
    for _ in range(n):
        m0, m1 = (make_mixture(rng, int(rng.integers(6, 17)), 3, frame=f) for _ in range(2))
        problems.append((pairwise_w2sq(m0, m1), m0.weights, m1.weights))
    return problems


class TestMatchesRebuildingReference:
    """The solver keeps one basis tree across pivots; its plans, costs and
    potentials equal bit for bit those of the reference that rebuilds the
    tree from the basis cells at every pivot."""

    @pytest.mark.parametrize(
        "problems",
        [
            pytest.param(lambda: mixture_problems(np.random.default_rng(20), 30), id="mixtures"),
            pytest.param(lambda: continuous_problems(np.random.default_rng(21), 25, 40),
                         id="continuous"),
            pytest.param(lambda: tie_heavy_problems(np.random.default_rng(22), 40, 40),
                         id="tie_heavy"),
            pytest.param(lambda: integer_problems(np.random.default_rng(23), 40, 20),
                         id="integer"),
            pytest.param(lambda: [(np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 2.0], [3.0, 2.0, 1.0]]),
                                   np.full(3, 1.0 / 3.0), np.full(3, 1.0 / 3.0))],
                         id="degenerate"),
        ],
    )
    def test_bit_identical(self, problems):
        for C, w0, w1 in problems():
            plan = solve_transportation(C, w0, w1)
            x, cost, (u, v) = reference_transportation(C, w0, w1)
            assert np.array_equal(plan.matrix, x)
            assert plan.cost == cost
            assert np.array_equal(plan.potentials[0], u)
            assert np.array_equal(plan.potentials[1], v)


class TestMW2:
    def test_self_distance_zero_with_diagonal_plan(self):
        rng = np.random.default_rng(5)
        mix = make_mixture(rng, 3, 3)
        res = mw2(mix, mix)
        assert res.distance == 0.0
        assert np.allclose(res.plan.matrix, np.diag(mix.weights), atol=1e-8)

    def test_single_component_reduces_to_gaussian_w2(self):
        rng = np.random.default_rng(6)
        m0 = make_mixture(rng, 1, 3)
        other = make_mixture(rng, 1, 3)
        m1 = GaussianMixture([1.0], other.means, other.covs, m0.frame)
        res = mw2(m0, m1)
        base = geodesic(m0.means[0], m1.means[0])
        S0, S1 = m0.covs[0], m1.covs[0]
        root = sqrtm(S0).real
        exact = base**2 + np.trace(S0 + S1 - 2.0 * sqrtm(root @ S1 @ root).real)
        assert res.distance_sq == pytest.approx(exact, abs=1e-12)
        assert res.distance == pytest.approx(np.sqrt(exact), abs=1e-12)

    def test_zero_covariance_reduces_to_base_transport(self):
        rng = np.random.default_rng(7)
        frame = random_frame([0.0, 0.0, 1.0], 0)
        for _ in range(5):
            K0 = int(rng.integers(2, 5))
            K1 = int(rng.integers(2, 5))
            draw = lambda K: [unit(frame.p + 0.7 * rng.standard_normal(3)) for _ in range(K)]
            pts0 = draw(K0)
            pts1 = draw(K1)
            mk = lambda pts: GaussianMixture(
                np.full(len(pts), 1.0 / len(pts)),
                pts,
                np.zeros((len(pts), 2, 2)),
                frame,
            )
            m0, m1 = mk(pts0), mk(pts1)
            res = mw2(m0, m1)
            base = np.array([[geodesic(p, q) ** 2 for q in pts1] for p in pts0])
            ref = solve_transportation(base, m0.weights, m1.weights)
            assert res.distance_sq == ref.cost

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        f = random_frame(np.eye(3)[-1], 17)
        for _ in range(10):
            m0 = make_mixture(rng, 3, 3, frame=f)
            m1 = make_mixture(rng, 4, 3, frame=f)
            assert mw2(m0, m1).distance == pytest.approx(
                mw2(m1, m0).distance, abs=1e-10
            )

    def test_triangle_inequality(self):
        rng = np.random.default_rng(9)
        f = random_frame(np.eye(3)[-1], 17)
        for _ in range(30):
            ms = [make_mixture(rng, int(rng.integers(1, 4)), 3, frame=f) for _ in range(3)]
            d01 = mw2(ms[0], ms[1]).distance
            d12 = mw2(ms[1], ms[2]).distance
            d02 = mw2(ms[0], ms[2]).distance
            assert d02 <= d01 + d12 + 1e-8

    def test_frame_mismatch_raises(self):
        rng = np.random.default_rng(10)
        m0 = make_mixture(rng, 2, 3)
        f2 = random_frame(m0.frame.p, 123)
        m1 = GaussianMixture(m0.weights, m0.means, m0.covs, f2)
        with pytest.raises(FrameMismatch):
            mw2(m0, m1)

    def test_result_serialization(self, tmp_path):
        rng = np.random.default_rng(11)
        f = random_frame(np.eye(3)[-1], 17)
        res = mw2(make_mixture(rng, 2, 3, frame=f), make_mixture(rng, 3, 3, frame=f))
        d = result_to_dict(res)
        assert set(d) == {"cost", "distance", "plan", "pairwise"}
        assert d["distance"] == pytest.approx(np.sqrt(d["cost"]))
        path = tmp_path / "plan.json"
        save_result(path, res)
        import json

        back = json.loads(path.read_text())
        assert back["cost"] == pytest.approx(res.distance_sq)
        assert np.allclose(back["plan"], res.plan.matrix)


class TestPairwiseMW2:
    @pytest.mark.parametrize("k_low, k_high", [(1, 2), (2, 6)])
    def test_entries_equal_mw2_exactly(self, k_low, k_high):
        rng = np.random.default_rng(12)
        f = random_frame(np.eye(4)[-1], 17)
        ms = [make_mixture(rng, int(rng.integers(k_low, k_high)), 4, frame=f) for _ in range(6)]
        D = pairwise_mw2(ms)
        assert D.shape == (6, 6)
        assert np.all(np.diag(D) == 0.0)
        for i, j in itertools.permutations(range(6), 2):
            assert D[i, j] == mw2(ms[min(i, j)], ms[max(i, j)]).distance

    def test_frames_compared_pair_by_pair_within_tolerance(self):
        # b and c sit 0.75e-8 on either side of the first frame: each is
        # within 1e-8 of it, but they are 1.5e-8 from each other
        rng = np.random.default_rng(13)
        f = standard_frame(4)

        def rotated(theta):
            c, s = np.cos(theta), np.sin(theta)
            B = f.matrix.copy()
            B[[0, 1]] = [c * B[0] + s * B[1], c * B[1] - s * B[0]]
            return MovingFrame(f.p, B)

        ms = [make_mixture(rng, 2, 4, frame=g) for g in (f, rotated(0.75e-8), rotated(-0.75e-8))]
        for b in ms[1:]:
            assert pairwise_mw2([ms[0], b])[0, 1] == mw2(ms[0], b).distance
        with pytest.raises(FrameMismatch):
            mw2(ms[1], ms[2])
        with pytest.raises(FrameMismatch):
            pairwise_mw2(ms)

    def test_frame_mismatch_raises(self):
        rng = np.random.default_rng(14)
        f = random_frame(np.eye(3)[-1], 17)
        ms = [make_mixture(rng, 2, 3, frame=f) for _ in range(3)]
        f2 = random_frame(f.p, 123)
        ms.append(GaussianMixture(ms[0].weights, ms[0].means, ms[0].covs, f2))
        with pytest.raises(FrameMismatch):
            pairwise_mw2(ms)
