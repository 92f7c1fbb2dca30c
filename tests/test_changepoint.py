import hashlib
import json
import sys
import warnings

import numpy as np
import pytest

from bundlemw import _pcg, changepoint
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
from helpers import energy_statistic, loop_e_divisive, peak_alloc_bytes


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

    @pytest.mark.parametrize("i, j", [(0, 299), (299, 0), (130, 5), (257, 140), (200, 199)])
    def test_asymmetry_in_any_tile_is_found(self, i, j):
        D = null_distmat(np.random.default_rng(6), 300)
        D[i, j] += 2e-8
        with pytest.raises(NotSymmetric):
            check_distmat(D)
        D[i, j] -= 1.5e-8
        out = check_distmat(D)
        assert out[i, j] == out[j, i] == D[i, j] * 0.5 + D[j, i] * 0.5

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

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_report_equals_the_loop_that_rebuilt_every_scan(self, alpha):
        # three planted segments with noise, so the test runs two or more rounds
        rng = np.random.default_rng(int(alpha * 10))
        rounds = []
        for trial in range(6):
            n = int(rng.integers(30, 60))
            cuts = np.sort(rng.choice(np.arange(8, n - 8), size=2, replace=False))
            segment = np.searchsorted(cuts, np.arange(n), "right")
            x = rng.standard_normal((n, 2)) + 2.5 * segment[:, None]
            D = np.sqrt(np.sum((x[:, None] - x[None]) ** 2, axis=-1))
            report = e_divisive(D, R=39, p0=0.05, min_size=5, alpha=alpha, seed=trial)
            got = [(p.index, p.p_value, p.accepted, p.statistic) for p in report.points]
            assert got == loop_e_divisive(D, 39, 0.05, 5, alpha, trial)
            rounds.append(len(got))
        assert max(rounds) >= 3

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


def numpy_permutation(seed, round_idx, r, L):
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(round_idx, r))
    return np.random.Generator(np.random.PCG64(seq)).permutation(L)


def streamed(seed, round_idx, spawn, L):
    chunks = list(_pcg.permutations(seed, round_idx, spawn, L))
    assert all(len(c) for c in chunks)
    return np.concatenate(chunks)


# sha256 of the little-endian int64 rows of _pcg.permutations(seed, round,
# spawn, L), as numpy 2.4's Generator gives them.  They pin the change points
# even if numpy changes its streams.  The cases: one chunk; a 70-bit seed; two
# chunks of L = 2; two-word spawn keys; the default R = 499 at L = 30, also in
# two chunks.
GOLDEN_STREAMS = [
    (0, 0, range(24), 24,
     "323d668b9b74979cdc12e908a967ace1c126cb0e2cc9bafba145f98ba8630c26"),
    (2**70, 5, range(69_990, 70_000), 257,
     "0d68c0c76a87a52c0c7970ca0659922648375cd458085852910892dc5b588916"),
    (3, 2, range(4200), 2,
     "a54f00f86efd8ec98daf9f8316e025235d1fb84605ec317b10d668864026b875"),
    (9, 1, range(2**32 - 4, 2**32 + 4), 24,
     "4e612b3fea030d554bb234caa38ad918a7b89ccb0e4f1fbf981209e45dbc2a9c"),
    (1, 0, range(499), 30,
     "5b47b6ed175106f58953c174a7baabd22bed8cb0d4da53d2294f8a8c0dfba001"),
]


class TestPermutationStreams:
    """_pcg's rows are numpy's Generator(PCG64(SeedSequence)).permutation."""

    @pytest.mark.parametrize("L", [2, 3, 4, 16, 17, 24, 60, 200, 257])
    @pytest.mark.parametrize("round_idx", [0, 1, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2**32 + 5, 2**70])
    def test_rows_are_numpys(self, seed, round_idx, L):
        for spawn in (range(0, 24), range(69_990, 70_000)):
            got = streamed(seed, round_idx, spawn, L)
            assert got.shape == (len(spawn), L)
            for row, r in zip(got, spawn):
                assert np.array_equal(row, numpy_permutation(seed, round_idx, r, L))

    @pytest.mark.parametrize("L, R", [(2, 4200), (17, 1000), (257, 600)])
    def test_chunks_join_in_order(self, L, R):
        assert len(list(_pcg.permutations(3, 2, range(R), L))) >= 2
        for r, row in enumerate(streamed(3, 2, range(R), L)):
            assert np.array_equal(row, numpy_permutation(3, 2, r, L))

    def test_two_word_spawn_keys(self):
        # SeedSequence takes r >= 2^32 as two words; the chunk splits there
        spawn = range(2**32 - 4, 2**32 + 4)
        assert [len(c) for c in _pcg.permutations(9, 1, spawn, 24)] == [4, 4]
        for row, r in zip(streamed(9, 1, spawn, 24), spawn):
            assert np.array_equal(row, numpy_permutation(9, 1, r, 24))

    @pytest.mark.parametrize("seed, round_idx, spawn, L, digest", GOLDEN_STREAMS,
                             ids=["one-chunk", "70-bit-seed", "refill", "two-word-keys", "R499"])
    def test_golden_digests(self, seed, round_idx, spawn, L, digest):
        rows = streamed(seed, round_idx, spawn, L)
        assert hashlib.sha256(rows.astype("<i8").tobytes()).hexdigest() == digest

    def test_one_point_draws_nothing(self):
        assert streamed(0, 0, range(5), 1).tolist() == [[0]] * 5


def planted_distmat(rng, n, cuts=3):
    at = np.sort(rng.choice(np.arange(8, n - 8), size=cuts, replace=False))
    segment = np.searchsorted(at, np.arange(n), "right")
    x = rng.standard_normal((n, 2)) + 1.8 * segment[:, None]
    return np.sqrt(np.sum((x[:, None] - x[None]) ** 2, axis=-1))


class TestStreamedPermutationTest:
    """e_divisive with _pcg's streams and batched scans reports what the
    loop over numpy's generators and single scans reports, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("n, min_size, R", [(24, 5, 199), (60, 8, 99), (200, 12, 39)])
    def test_report_equals_numpys_loop(self, n, min_size, R, alpha, seed):
        D = planted_distmat(np.random.default_rng(n + int(10 * alpha)), n)
        report = e_divisive(D, R=R, p0=0.05, min_size=min_size, alpha=alpha, seed=seed)
        got = [(p.index, p.p_value, p.accepted, p.statistic) for p in report.points]
        assert len(got) >= 2
        assert got == loop_e_divisive(D, R, 0.05, min_size, alpha, seed)

    def test_memory_does_not_grow_with_R(self):
        D = null_distmat(np.random.default_rng(8), 24)
        small = peak_alloc_bytes(e_divisive, D, R=499, min_size=8)
        assert peak_alloc_bytes(e_divisive, D, R=20_000, min_size=8) <= 1.2 * small


class TestSeed:
    D = block_distmat(30, 15)

    @pytest.mark.parametrize("seed", [None, 2.0, "3", [1, 2]])
    def test_non_integer_seed_fails_before_any_scan(self, monkeypatch, seed):
        def scan(*args):
            raise AssertionError("scanned before the seed was checked")

        monkeypatch.setattr(changepoint, "_scan_segment", scan)
        with pytest.raises(TypeError):
            e_divisive(self.D, R=19, min_size=5, seed=seed)

    def test_negative_seed_is_numpys_value_error(self):
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            e_divisive(self.D, R=19, min_size=5, seed=-1)

    def test_integer_likes_are_their_value(self):
        want = e_divisive(self.D, R=19, min_size=5, seed=1)
        for seed in (True, np.int64(1), np.uint8(1)):
            got = e_divisive(self.D, R=19, min_size=5, seed=seed)
            assert got == want
            assert type(got.hyperparams["seed"]) is int


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
