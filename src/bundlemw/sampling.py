"""Wrapped-Gaussian sampling on the sphere through a moving frame.

Tangent coordinates are drawn from N(0, Sigma) in R^d, expressed in the
frame transported to the basepoint, and pushed through the exponential
map.  Draws whose tangent norm exceeds pi would wrap past the cut locus,
so they are rejected and redrawn; the rejection count is reported through
the optional ``stats`` argument since it signals a covariance too large
for the wrapped model to be trustworthy.

Sampling is deterministic given the seed.  Mixture sampling uses one
independent child stream per component (plus one for the labels), so the
points generated for component k do not depend on how many samples the
other components received.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ._csvfile import read_table, write_table
from .errors import NoConvergence
from .gauss import GaussianMixture
from .geometry import MovingFrame, exp_batch, transport_frame

_MAX_REDRAW_ROUNDS = 1000


def _component_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))


def _draw_points(m: np.ndarray, cov: np.ndarray, frame: MovingFrame, n: int,
                 rng: np.random.Generator, stats: Optional[dict] = None) -> np.ndarray:
    """n points from the bundle Gaussian with unit basepoint m and frame
    covariance cov."""
    basis = transport_frame(frame, m)
    evals, evecs = np.linalg.eigh(cov)
    L = evecs * np.sqrt(np.clip(evals, 0.0, None))
    d = cov.shape[0]
    coords = rng.standard_normal((n, d)) @ L.T
    rejected = 0
    for _ in range(_MAX_REDRAW_ROUNDS):
        norms = np.linalg.norm(coords, axis=1)
        bad = norms > np.pi
        if not np.any(bad):
            break
        rejected += int(bad.sum())
        coords[bad] = rng.standard_normal((int(bad.sum()), d)) @ L.T
    else:
        raise NoConvergence("tangent draws kept exceeding the cut locus; covariance too large")
    if stats is not None:
        stats["rejected"] = stats.get("rejected", 0) + rejected
        stats["accepted"] = stats.get("accepted", 0) + n
    return exp_batch(m, coords @ basis)


def sample_mixture(
    mix: GaussianMixture,
    n: int,
    seed: int,
    stats: Optional[dict] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` points from a mixture; returns the n x D points and the
    (n,) array of true labels.

    Components are chosen i.i.d. from the mixture weights using a label
    stream separate from the per-component coordinate streams.  ``stats``,
    if given, accumulates the keys ``accepted`` and ``rejected`` counting
    tangent draws kept and redrawn at the cut locus.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    w = mix.weights / mix.weights.sum()
    label_rng = np.random.default_rng(np.random.SeedSequence(seed))
    labels = label_rng.choice(mix.K, size=n, p=w)
    X = np.empty((n, mix.frame.p.size))
    for k in range(mix.K):
        idx = np.flatnonzero(labels == k)
        if idx.size == 0:
            continue
        X[idx] = _draw_points(
            mix.means[k], mix.covs[k], mix.frame, idx.size, _component_rng(seed, k), stats
        )
    return X, labels


# ---------------------------------------------------------------------------
# samples.csv: ambient coordinates then the component label, one row per point.

def save_samples(path, X, labels=None) -> None:
    X = np.asarray(X, dtype=float)
    labels = np.full(len(X), -1) if labels is None else np.asarray(labels).astype(int)
    header = ",".join([f"x{i}" for i in range(X.shape[1])] + ["label"])
    write_table(path, np.column_stack([X, labels]), header, end="\r\n")


def load_samples(path) -> tuple[np.ndarray, np.ndarray]:
    """Read samples.csv back as (coords array, label array).  A label that is
    not an integer in int64 range raises ValueError naming the file."""
    _, data = read_table(path)
    labels = data[:, -1]
    if not ((labels >= -2.0**63) & (labels < 2.0**63) & (labels == np.trunc(labels))).all():
        raise ValueError(f"{path}: labels must be integers in int64 range")
    return data[:, :-1], labels.astype(int)
