"""E-divisive change-point detection on a time-indexed distance matrix.

Each row/column of the matrix is one time point; entries are distances
between the populations observed at those times.  Candidate change points
maximize a two-sample energy statistic over admissible splits, and each
candidate is vetted by a permutation test restricted to the segment it
splits.  Detection proceeds by recursive bisection and terminates at the
first candidate whose permutation p-value exceeds the threshold.

The permutations of round k are numpy's PCG64 streams for (seed, k, r):
permutation r is what ``np.random.Generator(np.random.PCG64(
np.random.SeedSequence(seed, spawn_key=(k, r)))).permutation(L)`` returns.
``_pcg`` computes all R of them in one numpy pass, so they are pinned by
this package's code, not by the installed numpy, whose Generator streams
NEP 19 does not promise across versions.  The permuted blocks are scanned
in batches of about 2^14 cells.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass, field

import numpy as np

from ._jsonfile import write_json
from ._pcg import permutations
from .errors import NotSymmetric, SegmentTooSmall
from .geometry import _BLOCK_CELLS


def check_distmat(D):
    """Validate a distance matrix and return it exactly symmetrized.

    It must be square, nonempty, finite, symmetric to 1e-8 (else
    NotSymmetric), nonnegative, and zero on the diagonal to 1e-12.  Checked in
    square tiles of at most 2^14 cells, each against its mirror tile, an
    exactly symmetric float64 array comes back uncopied with no n x n
    temporary, any other as a new D / 2 + D.T / 2.
    """
    D = np.asarray(D, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {D.shape}")
    if D.size == 0:
        raise ValueError("distance matrix is empty")
    side = math.isqrt(_BLOCK_CELLS)
    blocks = [slice(i, i + side) for i in range(0, D.shape[0], side)]
    tiles = [(a, b) for a in blocks for b in blocks]
    if not all(np.isfinite(D[t]).all() for t in tiles):
        raise ValueError("distance matrix contains non-finite entries")
    with np.errstate(over="ignore"):  # an infinite difference is asymmetric
        gap = max(np.max(np.abs(D[a, b] - D[b, a].T)) for a, b in tiles if a.start <= b.start)
    if gap > 1e-8:
        raise NotSymmetric("distance matrix is asymmetric beyond 1e-8")
    if np.min(D) < 0:
        raise ValueError("distance matrix has negative entries")
    if np.max(np.abs(np.diag(D))) > 1e-12:
        raise ValueError("distance matrix diagonal must be zero")
    if gap == 0.0:
        return D
    S = D * 0.5  # halved before adding, so entries near the float max cannot overflow
    for a, b in tiles:
        S[a, b] += D[b, a].T * 0.5
    return S


@functools.lru_cache(maxsize=8)
def _scan_terms(L, min_size):
    """Strict lower and upper triangle masks of an L x L block and, for the
    splits m = min_size..L-min_size, n = L - m: m n / (m + n), m n, m (m - 1), n (n - 1)."""
    m = np.arange(min_size, L - min_size + 1).astype(float)
    n = L - m
    return (np.tri(L, k=-1, dtype=bool), ~np.tri(L, dtype=bool),
            m * n / (m + n), m * n, m * (m - 1), n * (n - 1))


def _split_scores(A, min_size):
    """Energy statistic of every admissible split of each L x L block in the
    (..., L, L) array A of alpha-powered distances, in O(L^2) per block via
    running sums of the upper triangle on each side of the split.  Row sums
    over the contiguous last axis and sequential cumsums give each block the
    bits it has alone."""
    L = A.shape[-1]
    low, up, scale, mn, mm, nn = _scan_terms(L, min_size)
    lower = np.where(low, A, 0.0).sum(axis=-1)
    upper = np.where(up, A, 0.0).sum(axis=-1)
    # head[k] = sum over i<j<k of A[i,j]; tail[k] = same for the block k..L
    zero = np.zeros(A.shape[:-2] + (1,))
    head = np.concatenate([zero, np.cumsum(lower, axis=-1)], axis=-1)
    tail = np.concatenate([np.cumsum(upper[..., ::-1], axis=-1)[..., ::-1], zero], axis=-1)
    ks = slice(min_size, L - min_size + 1)
    cross = head[..., L:] - head[..., ks] - tail[..., ks]
    return scale * (2.0 * cross / mn - 2.0 * head[..., ks] / mm - 2.0 * tail[..., ks] / nn)


def _scan_segment(A, min_size):
    """Best split of the alpha-powered block A, honoring min_size margins.

    Returns (k, Q) with k relative to the block start, or None when the
    block is too short to admit any split.
    """
    if A.shape[0] < 2 * min_size:
        return None
    q = _split_scores(A, min_size)
    best = int(np.argmax(q))
    return min_size + best, float(q[best])


def _exceedances(block, perms, min_size, q_obs):
    """How many of the blocks permuted by the rows of perms have a best
    split scoring at least q_obs, scanned about 2^14 cells at a time."""
    L = block.shape[0]
    step = max(1, _BLOCK_CELLS // (L * L))
    count = 0
    for s in range(0, len(perms), step):
        # the rows of every permuted block, then each one's columns
        batch = block.take(perms[s:s + step], axis=0)
        for k, perm in enumerate(perms[s:s + step]):
            batch[k] = batch[k].take(perm, axis=1)
        count += int(np.count_nonzero(_split_scores(batch, min_size).max(axis=-1) >= q_obs))
    return count


@dataclass(frozen=True)
class ChangePoint:
    """One tested candidate: location, permutation p-value, verdict."""

    index: int
    p_value: float
    accepted: bool
    statistic: float


@dataclass(frozen=True)
class ChangePointReport:
    """Sequential E-divisive output: candidates in detection order."""

    points: tuple
    hyperparams: dict = field(default_factory=dict)

    @property
    def accepted_indices(self):
        return [p.index for p in self.points if p.accepted]


def e_divisive(D, R=499, p0=0.0125, min_size=12, alpha=1.0, seed=0):
    """Recursive bisection with segment-restricted permutation tests.

    At each round the admissible split maximizing the energy statistic is
    located across all current segments, then vetted against R random
    permutations of the time indices inside the segment it would split:
    p = (1 + #{permuted Q >= observed Q}) / (R + 1).  Candidates with
    p <= p0 are accepted and their segment is bisected; the first rejected
    candidate ends the procedure and is included in the report.

    The statistic sums up to N^2 distances raised to alpha, so a matrix of N
    points with N^2 max(D)^alpha above the float maximum (about 1.8e308) is
    rejected with ValueError before any power is taken; the test runs in
    logarithms, so it cannot overflow itself.

    ``seed`` is an integer >= 0 (True and False count as 1 and 0); any other
    type raises TypeError and a negative seed ValueError, before any scan.
    """
    D = check_distmat(D)
    alpha = float(alpha)
    if not 0 < alpha <= 2:
        raise ValueError(f"alpha must lie in (0, 2], got {alpha}")
    R = int(R)
    min_size = int(min_size)
    if R < 1:
        raise ValueError("R must be at least 1")
    if not 0 < p0 <= 1:
        raise ValueError(f"p0 must lie in (0, 1], got {p0}")
    if min_size < 2:
        raise ValueError("min_size must be at least 2")
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    N = D.shape[0]
    if N < 2 * min_size:
        raise SegmentTooSmall(f"need at least {2 * min_size} time points, got {N}")
    top = float(np.max(D))
    if top > 0.0 and 2.0 * math.log(N) + alpha * math.log(top) > math.log(sys.float_info.max):
        raise ValueError(
            f"N^2 max(D)^alpha exceeds the float maximum (N = {N}, max(D) = {top:g}, "
            f"alpha = {alpha:g}); the energy statistic would overflow"
        )
    A = D ** alpha

    segments = [(0, N)]
    points = []
    round_idx = 0
    while True:
        candidate = None
        for lo, hi in segments:
            hit = _scan_segment(A[lo:hi, lo:hi], min_size)
            if hit is not None and (candidate is None or hit[1] > candidate[0]):
                candidate = (hit[1], lo + hit[0], lo, hi)
        if candidate is None:
            break
        q_obs, split, lo, hi = candidate

        block = A[lo:hi, lo:hi]
        exceed = 0
        for perms in permutations(seed, round_idx, range(R), hi - lo):
            exceed += _exceedances(block, perms, min_size, q_obs)
            del perms  # freed before the next chunk is drawn
        p = (1.0 + exceed) / (R + 1.0)
        accepted = p <= p0
        points.append(
            ChangePoint(index=split, p_value=p, accepted=accepted, statistic=q_obs)
        )
        if not accepted:
            break
        segments.remove((lo, hi))
        segments.extend([(lo, split), (split, hi)])
        segments.sort()
        round_idx += 1

    hyper = {
        "R": R,
        "p0": float(p0),
        "min_size": min_size,
        "alpha": alpha,
        "seed": seed,
        "n": N,
    }
    return ChangePointReport(points=tuple(points), hyperparams=hyper)


def report_to_dict(report):
    return {
        "hyperparams": dict(report.hyperparams),
        "points": [
            {
                "index": p.index,
                "p_value": p.p_value,
                "accepted": p.accepted,
                "statistic": p.statistic,
            }
            for p in report.points
        ],
    }


def save_report(path, report):
    write_json(path, report_to_dict(report))
