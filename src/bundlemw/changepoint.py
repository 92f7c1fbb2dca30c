"""E-divisive change-point detection on a time-indexed distance matrix.

Each row/column of the matrix is one time point; entries are distances
between the populations observed at those times.  Candidate change points
maximize a two-sample energy statistic over admissible splits, and each
candidate is vetted by a permutation test restricted to the segment it
splits.  Detection proceeds by recursive bisection and terminates at the
first candidate whose permutation p-value exceeds the threshold.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from ._jsonfile import write_json
from .errors import NotSymmetric, SegmentTooSmall
from .geometry import _BLOCK_CELLS


def check_distmat(D):
    """Validate a distance matrix and return it exactly symmetrized.

    It must be square, nonempty, finite, symmetric to 1e-8 (else
    NotSymmetric), nonnegative, and zero on the diagonal to 1e-12.  Checked in
    row blocks of about 2^14 cells, an exactly symmetric float64 array comes
    back uncopied with no n x n temporary, any other as a new D / 2 + D.T / 2.
    """
    D = np.asarray(D, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {D.shape}")
    if D.size == 0:
        raise ValueError("distance matrix is empty")
    rows = max(1, _BLOCK_CELLS // D.shape[0])
    blocks = [slice(i, i + rows) for i in range(0, D.shape[0], rows)]
    if not all(np.isfinite(D[b]).all() for b in blocks):
        raise ValueError("distance matrix contains non-finite entries")
    with np.errstate(over="ignore"):  # an infinite difference is asymmetric
        gap = max(np.max(np.abs(D[b] - D[:, b].T)) for b in blocks)
    if gap > 1e-8:
        raise NotSymmetric("distance matrix is asymmetric beyond 1e-8")
    if np.min(D) < 0:
        raise ValueError("distance matrix has negative entries")
    if np.max(np.abs(np.diag(D))) > 1e-12:
        raise ValueError("distance matrix diagonal must be zero")
    if gap == 0.0:
        return D
    S = D * 0.5  # halved before adding, so entries near the float max cannot overflow
    for b in blocks:
        S[b] += D[:, b].T * 0.5
    return S


def _scan_segment(A, min_size):
    """Best split of the alpha-powered block A, honoring min_size margins.

    Returns (k, Q) with k relative to the block start, or None when the
    block is too short to admit any split.  The whole scan is O(L^2) via
    running sums of the upper triangle on each side of the split.
    """
    L = A.shape[0]
    if L < 2 * min_size:
        return None
    lower = np.tril(A, -1).sum(axis=1)
    upper = np.triu(A, 1).sum(axis=1)
    # head[k] = sum over i<j<k of A[i,j]; tail[k] = same for the block k..L
    head = np.concatenate([[0.0], np.cumsum(lower)])
    tail = np.concatenate([np.cumsum(upper[::-1])[::-1], [0.0]])
    total = head[L]
    ks = np.arange(min_size, L - min_size + 1)
    m = ks.astype(float)
    n = L - m
    cross = total - head[ks] - tail[ks]
    q = (m * n / (m + n)) * (
        2.0 * cross / (m * n)
        - 2.0 * head[ks] / (m * (m - 1))
        - 2.0 * tail[ks] / (n * (n - 1))
    )
    best = int(np.argmax(q))
    return int(ks[best]), float(q[best])


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
    N = D.shape[0]
    if N < 2 * min_size:
        raise SegmentTooSmall(
            f"need at least {2 * min_size} time points, got {N}"
        )
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
            if hit is None:
                continue
            k, q = hit
            if candidate is None or q > candidate[0]:
                candidate = (q, lo + k, lo, hi)
        if candidate is None:
            break
        q_obs, split, lo, hi = candidate

        exceed = 0
        for r in range(R):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(round_idx, r))
            )
            perm = rng.permutation(hi - lo)
            block = A[lo:hi, lo:hi][np.ix_(perm, perm)]
            _, q_perm = _scan_segment(block, min_size)
            if q_perm >= q_obs:
                exceed += 1
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
        "seed": int(seed),
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
