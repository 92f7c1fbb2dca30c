"""Wrapped-Gaussian sampling on the sphere through a moving frame.

Tangent coordinates are drawn from N(0, Sigma) in R^d, expressed in the
frame transported to the basepoint, and pushed through the exponential
map.  Draws whose tangent norm exceeds pi would wrap past the cut locus,
so they are rejected and redrawn; the rejection count is reported through
the optional ``stats`` argument since it signals a covariance too large
for the wrapped model to be trustworthy.

Every sampler is deterministic given its seed.  Mixture sampling uses one
independent child stream per component (plus one for the labels), so the
points generated for component k do not depend on how many samples the
other components received, and a K=1 mixture reproduces
:func:`sample_gaussian` exactly.
"""

from __future__ import annotations

import csv
from typing import Optional

import numpy as np

from .errors import NoConvergence
from .gauss import BundleGaussian, GaussianMixture
from .geometry import MovingFrame, exp_batch, transport_frame

_MAX_REDRAW_ROUNDS = 1000


def _component_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))


def _cov_factor(cov: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh(cov)
    return evecs * np.sqrt(np.clip(evals, 0.0, None))


def _draw_points(
    g: BundleGaussian,
    frame: MovingFrame,
    n: int,
    rng: np.random.Generator,
    stats: Optional[dict] = None,
) -> np.ndarray:
    local = transport_frame(frame, g.basepoint)
    L = _cov_factor(g.cov.mat)
    d = g.dim
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
    V = coords @ local.matrix
    return exp_batch(g.basepoint.coords, V)


def sample_gaussian(
    g: BundleGaussian,
    frame: MovingFrame,
    n: int,
    seed: int,
    stats: Optional[dict] = None,
) -> np.ndarray:
    """Draw ``n`` points from one bundle Gaussian, as the rows of an n x D array.

    ``stats``, if given, accumulates the keys ``accepted`` and ``rejected``
    counting tangent draws kept and redrawn at the cut locus.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return _draw_points(g, frame, n, _component_rng(seed, 0), stats)


def sample_mixture(
    mix: GaussianMixture,
    n: int,
    seed: int,
    stats: Optional[dict] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` points from a mixture; returns the n x D points and the
    (n,) array of true labels.

    Components are chosen i.i.d. from the mixture weights using a label
    stream separate from the per-component coordinate streams.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    w = mix.weights / mix.weights.sum()
    label_rng = np.random.default_rng(np.random.SeedSequence(seed))
    labels = label_rng.choice(mix.K, size=n, p=w)
    X = np.empty((n, mix.frame.p.dim))
    for k in range(mix.K):
        idx = np.flatnonzero(labels == k)
        if idx.size == 0:
            continue
        X[idx] = _draw_points(
            mix.components[k], mix.frame, idx.size, _component_rng(seed, k), stats
        )
    return X, labels


# ---------------------------------------------------------------------------
# samples.csv: ambient coordinates then the component label, one row per point.

def save_samples(path, X, labels=None) -> None:
    X = np.asarray(X, dtype=float)
    if labels is None:
        labels = [-1] * len(X)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(X.shape[1])] + ["label"])
        for row, lab in zip(X, labels):
            writer.writerow([f"{v:.17g}" for v in row] + [int(lab)])


def load_samples(path) -> tuple[np.ndarray, np.ndarray]:
    """Read samples.csv back as (coords array, label array)."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows and rows[0] and rows[0][-1] == "label":
        rows = rows[1:]
    if not rows:
        raise ValueError("samples file contains no data rows")
    data = np.array([[float(v) for v in row] for row in rows])
    return data[:, :-1], data[:, -1].astype(int)
