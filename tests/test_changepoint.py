import json
import sys
import warnings

import numpy as np
import pytest

from bundlemw.changepoint import (
    ChangePoint,
    ChangePointReport,
    _scan_segment,
    check_distmat,
    e_divisive,
    report_to_dict,
    save_report,
)
from bundlemw.errors import NotSymmetric, SegmentTooSmall
from bundlemw.estimation import kmodes_cluster
from helpers import energy_statistic, peak_alloc_bytes


def block_distmat(n, boundary, within=0.0, cross=1.0):
    D = np.full((n, n), cross)
    D[:boundary, :boundary] = within
    D[boundary:, boundary:] = within
    np.fill_diagonal(D, 0.0)
    return D


def null_distmat(rng, n):
    x = rng.standard_normal(n)
    return np.abs(x[:, None] - x[None, :])


def brute_energy(D, split, lo, hi, alpha):
    X = range(lo, split)
    Y = range(split, hi)
    m, n = len(X), len(Y)
    cross = np.mean([D[i, j] ** alpha for i in X for j in Y])
    wx = np.mean([D[i, j] ** alpha for i in X for j in X if i != j])
    wy = np.mean([D[i, j] ** alpha for i in Y for j in Y if i != j])
    return (m * n / (m + n)) * (2 * cross - wx - wy)


class TestCheckDistmat:
    def test_symmetric_input_comes_back_uncopied(self):
        D = null_distmat(np.random.default_rng(1), 12)
        assert check_distmat(D) is D

    def test_small_asymmetry_is_symmetrized_into_a_new_array(self):
        D = null_distmat(np.random.default_rng(2), 12)
        D[0, 5] += 1e-12
        before = D.copy()
        out = check_distmat(D)
        assert out is not D
        assert np.array_equal(out, out.T)
        assert np.array_equal(D, before)

    def test_huge_symmetric_entries_unchanged_without_warning(self):
        D = np.array([[0.0, 1e308, 1.0], [1e308, 0.0, 1e308], [1.0, 1e308, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = check_distmat(D)
        assert np.array_equal(out, D)

    def test_symmetric_input_allocates_no_matrix(self):
        n = 2000
        D = null_distmat(np.random.default_rng(3), n)
        assert peak_alloc_bytes(check_distmat, D) <= 2**20

    def test_symmetrized_copy_is_the_half_sum(self):
        rng = np.random.default_rng(4)
        D = null_distmat(rng, 300)
        D += 1e-10 * rng.random((300, 300))
        np.fill_diagonal(D, 0.0)
        ref = np.multiply(np.add(D, D.T), 0.5)
        assert np.array_equal(check_distmat(D).view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize("q", [0.001, 0.1])
    def test_symmetrizing_entries_near_the_float_max_does_not_overflow(self, q):
        D = np.full((30, 30), 1e308)
        np.fill_diagonal(D, 0.0)
        D[2, 3], D[3, 2] = 1.0 + 1e-12, 1.0
        exact = D.copy()
        exact[2, 3] = 1.0
        with np.errstate(all="raise"):
            out = check_distmat(D)
            assert np.isfinite(out).all()
            assert np.array_equal(out, out.T)
            labels = kmodes_cluster(D, q=q).labels
            assert np.array_equal(labels, kmodes_cluster(exact, q=q).labels)

    def test_non_finite_entry_wins_over_asymmetry_in_an_earlier_block(self):
        D = null_distmat(np.random.default_rng(5), 300)
        D[0, 1] += 1.0
        D[-1, -2] = D[-2, -1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            check_distmat(D)

    def test_overflowing_asymmetry_is_not_symmetric(self):
        D = np.zeros((3, 3))
        D[0, 1], D[1, 0] = 1e308, -1e308
        with np.errstate(all="raise"), pytest.raises(NotSymmetric):
            check_distmat(D)


class TestEnergyStatistic:
    """The oracle against brute force, and the scan against the oracle."""

    def test_oracle_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(8, 16))
            M = np.abs(rng.standard_normal((n, n)))
            D = 0.5 * (M + M.T)
            np.fill_diagonal(D, 0.0)
            lo = int(rng.integers(0, 2))
            hi = int(rng.integers(n - 1, n + 1))
            split = int(rng.integers(lo + 2, hi - 1))
            alpha = float(rng.uniform(0.5, 2.0))
            got = energy_statistic(D, split, lo, hi, alpha)
            want = brute_energy(D, split, lo, hi, alpha)
            assert got == pytest.approx(want, rel=1e-10)

    def test_constant_off_diagonal_gives_zero(self):
        D = np.full((20, 20), 3.7)
        np.fill_diagonal(D, 0.0)
        _, q = _scan_segment(D, 2)
        assert abs(q) < 1e-12

    def test_two_block_closed_form(self):
        split, q = _scan_segment(block_distmat(20, 10), 2)
        assert split == 10
        assert q == pytest.approx(10.0, abs=1e-12)

    def test_alpha_irrelevant_for_unit_distances(self):
        D = block_distmat(20, 10)
        assert _scan_segment(D ** 1.0, 2) == pytest.approx(_scan_segment(D ** 2.0, 2), abs=1e-12)

    def test_can_be_negative(self):
        # distances larger within halves than across them
        D = block_distmat(8, 4, within=2.0, cross=1.0)
        split, q = _scan_segment(D, 4)
        assert split == 4
        assert q == pytest.approx(energy_statistic(D, 4, 0, 8), abs=1e-12)
        assert q < 0


class TestScanSegment:
    def test_finds_block_boundary_exactly(self):
        D = block_distmat(60, 30)
        split, q = _scan_segment(D, 12)
        assert split == 30
        assert q == pytest.approx(energy_statistic(D, 30, 0, 60), rel=1e-12)

    def test_agrees_with_exhaustive_scan(self):
        rng = np.random.default_rng(4)
        M = np.abs(rng.standard_normal((30, 30)))
        D = 0.5 * (M + M.T)
        np.fill_diagonal(D, 0.0)
        k, q = _scan_segment(D[2:28, 2:28] ** 1.3, 4)
        qs = {
            s: energy_statistic(D, s, 2, 28, alpha=1.3)
            for s in range(6, 25)
        }
        want_split = max(qs, key=lambda s: qs[s])
        assert 2 + k == want_split
        assert q == pytest.approx(qs[want_split], rel=1e-10)

    def test_respects_min_size(self):
        D = block_distmat(40, 3)  # boundary inside the margin
        split, _ = _scan_segment(D, 12)
        assert 12 <= split <= 28

    def test_segment_too_short(self):
        assert _scan_segment(block_distmat(20, 10), 12) is None
        assert _scan_segment(block_distmat(10, 5), 6) is None


class TestEDivisive:
    def test_detects_sharp_boundary(self):
        D = block_distmat(60, 30)
        report = e_divisive(D, R=199, seed=0)
        assert report.points[0].index == 30
        assert report.points[0].accepted
        assert report.points[0].p_value <= 0.0125

    def test_null_rarely_accepts(self):
        rng = np.random.default_rng(11)
        clean = 0
        for _ in range(20):
            D = null_distmat(rng, 40)
            report = e_divisive(D, R=199, seed=7)
            if not report.accepted_indices:
                clean += 1
        assert clean >= 19

    def test_two_jumps_found_in_effect_order(self):
        # means 0 / 10 / 14: the bigger jump at t=40 splits first
        x = np.concatenate([np.zeros(40), np.full(30, 10.0), np.full(30, 14.0)])
        rng = np.random.default_rng(5)
        x += 0.1 * rng.standard_normal(x.size)
        D = np.abs(x[:, None] - x[None, :])
        np.fill_diagonal(D, 0.0)
        report = e_divisive(D, R=199, seed=1)
        accepted = report.accepted_indices
        assert accepted[0] == 40
        assert 70 in accepted

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(6)
        D = null_distmat(rng, 40)
        r1 = e_divisive(D, R=99, seed=42)
        r2 = e_divisive(D, R=99, seed=42)
        assert r1 == r2

    def test_pvalues_in_range(self):
        D = block_distmat(60, 30)
        report = e_divisive(D, R=199, seed=0)
        for p in report.points:
            assert 1.0 / 200 <= p.p_value <= 1.0

    def test_min_size_margins_respected(self):
        D = block_distmat(60, 30)
        report = e_divisive(D, R=99, min_size=12, seed=0)
        bounds = [(0, 60)]
        for p in report.points:
            if not p.accepted:
                continue
            lo, hi = next(b for b in bounds if b[0] < p.index < b[1])
            assert p.index - lo >= 12
            assert hi - p.index >= 12
            bounds.remove((lo, hi))
            bounds.extend([(lo, p.index), (p.index, hi)])

    def test_stops_at_first_rejection(self):
        D = block_distmat(60, 30)
        report = e_divisive(D, R=199, seed=0)
        flags = [p.accepted for p in report.points]
        assert all(flags[:-1])  # only the last entry may be a rejection

    def test_hyperparams_echoed(self):
        D = block_distmat(30, 15)
        report = e_divisive(D, R=99, p0=0.05, min_size=5, alpha=1.5, seed=9)
        assert report.hyperparams == {
            "R": 99,
            "p0": 0.05,
            "min_size": 5,
            "alpha": 1.5,
            "seed": 9,
            "n": 30,
        }

    def test_too_few_points(self):
        D = block_distmat(20, 10)
        with pytest.raises(SegmentTooSmall):
            e_divisive(D, min_size=12)

    def test_bad_hyperparams(self):
        D = block_distmat(30, 15)
        with pytest.raises(ValueError):
            e_divisive(D, R=0)
        with pytest.raises(ValueError):
            e_divisive(D, p0=0.0)
        with pytest.raises(ValueError):
            e_divisive(D, min_size=1)
        with pytest.raises(ValueError):
            e_divisive(D, alpha=0.0)


class TestFloatRange:
    """N^2 max(D)^alpha above the float maximum is rejected; below it the
    statistic scales with the distances and nothing overflows."""

    BIG = sys.float_info.max

    def test_distances_at_the_float_max_are_rejected(self):
        D = np.full((30, 30), 1e308)
        np.fill_diagonal(D, 0.0)
        with np.errstate(all="raise"), pytest.raises(ValueError, match="float maximum"):
            e_divisive(D, R=19, min_size=2)

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_just_under_the_bound_runs_without_overflow(self, alpha):
        D = block_distmat(30, 15)
        scale = (0.99 * self.BIG / 30**2) ** (1.0 / alpha)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            big = e_divisive(scale * D, R=19, min_size=5, alpha=alpha)
        small = e_divisive(D, R=19, min_size=5, alpha=alpha)
        assert [p.index for p in big.points] == [p.index for p in small.points]
        assert big.points[0].statistic == pytest.approx(
            scale**alpha * small.points[0].statistic, rel=1e-12
        )

    def test_the_bound_depends_on_alpha(self):
        D = 1e153 * block_distmat(30, 15)
        assert e_divisive(D, R=19, min_size=5, alpha=1.0).points
        with pytest.raises(ValueError, match="float maximum"):
            e_divisive(D, R=19, min_size=5, alpha=2.0)


class TestReportIO:
    def test_roundtrip(self, tmp_path):
        D = block_distmat(30, 15)
        report = e_divisive(D, R=99, min_size=5, seed=2)
        path = tmp_path / "changepoints.json"
        save_report(path, report)
        assert json.loads(path.read_text()) == report_to_dict(report)

    def test_dict_shape(self):
        report = ChangePointReport(
            points=(ChangePoint(index=3, p_value=0.01, accepted=True, statistic=5.0),),
            hyperparams={"R": 9},
        )
        d = report_to_dict(report)
        assert d["points"][0] == {
            "index": 3,
            "p_value": 0.01,
            "accepted": True,
            "statistic": 5.0,
        }
        assert d["hyperparams"] == {"R": 9}
