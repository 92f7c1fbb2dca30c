"""Bundle Gaussians on sphere tangent spaces and finite mixtures of them.

A bundle Gaussian is a basepoint m on the sphere together with a mean-zero
Gaussian on the tangent space at m.  Covariances are stored in the
coordinates of a moving frame transported to m, which makes the change of
basis between two basepoints the identity and reduces the squared
2-Wasserstein distance between two bundle Gaussians to

    d(m0, m1)^2 + tr(S0 + S1 - 2 (S0^{1/2} S1 S0^{1/2})^{1/2}).

A mixture is three arrays, weights (K,), means (K, D) and covariances
(K, d, d), plus the frame they are expressed in, so that distances between
mixtures from different frames can be rejected early.  Means are scaled to
unit length only where basepoints enter from JSON (:func:`mixture_from_dict`);
the mixture checks them but never normalizes them again, since normalizing a
unit row moves its last bit in about a third of rows.  A single bundle
Gaussian is a mixture with K = 1.
"""

from __future__ import annotations

import numpy as np

from ._jsonfile import read_json, write_json
from .errors import DegenerateMatrix, DimensionMismatch, FrameMismatch, NotSymmetric
from .geometry import (
    ANTIPODE_TOL,
    MovingFrame,
    _json_floats,
    _unit_rows,
    frame_from_dict,
    frame_to_dict,
    frames_equal,
    pairwise_geodesic,
)


def _check_covs(S) -> tuple[np.ndarray, np.ndarray]:
    """The stack S (K, d, d) of covariances, checked and symmetric, and its
    PSD square roots.

    Asymmetry beyond 1e-6 is rejected and below it symmetrized away; an
    exactly symmetric stack comes back as it is.  Eigenvalues below -1e-10,
    from one stacked ``eigh``, are rejected; the roots come from the same
    ``eigh``, with smaller negative roundoff clamped to zero.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 3 or S.shape[1] != S.shape[2]:
        raise ValueError("covariance must be a square matrix")
    if not np.isfinite(S).all():
        raise ValueError("covariance entries must be finite")
    ST = np.swapaxes(S, 1, 2)
    with np.errstate(over="ignore"):  # an infinite difference is asymmetric
        gap = np.max(np.abs(S - ST))
    if gap > 1e-6:
        raise NotSymmetric("covariance asymmetry exceeds 1e-6")
    if not np.array_equal(S, ST):
        S = 0.5 * (S + ST)
    evals, evecs = np.linalg.eigh(S)
    if np.min(evals) < -1e-10:
        raise DegenerateMatrix("covariance has an eigenvalue below -1e-10")
    roots = evecs * np.sqrt(np.clip(evals, 0.0, None))[:, None, :]
    return S, roots @ np.swapaxes(evecs, 1, 2)


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` itself if it is read-only, else a read-only copy."""
    a = a.copy() if a.flags.writeable else a
    a.setflags(write=False)
    return a


def _bures(roots: np.ndarray, S0: np.ndarray, S1: np.ndarray) -> np.ndarray:
    """K0 x K1 Bures terms between the stacks S0 and S1, given the PSD
    square roots of S0.  The cross terms S0^{1/2} S1 S0^{1/2} come from one
    batched ``matmul``, O(K0 K1 d^3), and their eigenvalues from one stacked
    ``eigvalsh``.  Identical pairs are exactly zero."""
    tr0 = np.trace(S0, axis1=1, axis2=2)
    tr1 = np.trace(S1, axis1=1, axis2=2)
    inner = roots[:, None] @ S1[None] @ roots[:, None]
    inner = 0.5 * (inner + np.swapaxes(inner, -1, -2))
    cross = np.sqrt(np.clip(np.linalg.eigvalsh(inner), 0.0, None)).sum(axis=-1)
    bures = np.clip(tr0[:, None] + tr1[None, :] - 2.0 * cross, 0.0, None)
    # identical pairs are exactly at distance zero; zero them out so
    # roundoff in the eigendecompositions cannot survive the final sqrt
    bures[(S0[:, None] == S1[None]).all(axis=(-2, -1))] = 0.0
    return bures


class GaussianMixture:
    """Finite mixture of bundle Gaussians in a common moving frame, as arrays.

    ``weights`` (K,) must be a probability vector: finite, nonnegative and
    summing to one within 1e-10.  ``means`` (K, D) must be unit rows within
    1e-10, and are checked, not normalized again.  Every mean must lie off
    the puncture of the frame, since the covariances ``covs`` (K, d, d) are
    interpreted in the frame transported to it; ``roots`` (K, d, d) holds
    their PSD square roots.  The arrays are stored read-only, so mixtures
    can share them.
    """

    __slots__ = ("weights", "means", "covs", "roots", "frame")

    def __init__(self, weights, means, covs, frame: MovingFrame):
        S = np.asarray(covs, dtype=float)
        if len(S) == 0:
            raise ValueError("a mixture needs at least one component")
        S, roots = _check_covs(S)
        M = np.asarray(means, dtype=float)
        if M.shape != (len(S), frame.p.size) or S.shape[1] != frame.dim:
            raise DimensionMismatch("component dimension does not match the frame")
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(S),):
            raise ValueError("weights and components have different lengths")
        with np.errstate(over="ignore"):  # an infinite sum is not 1
            if not np.isfinite(w).all() or np.any(w < -1e-10) or abs(float(w.sum()) - 1.0) > 1e-10:
                raise ValueError("weights must be a finite probability vector (sum 1 within 1e-10)")
        if not (np.abs(np.sqrt(np.vecdot(M, M)) - 1.0) <= 1e-10).all():
            raise ValueError("component basepoints must be unit vectors")
        if np.any(np.vecdot(M, frame.p) <= -1.0 + ANTIPODE_TOL):
            raise ValueError("component basepoint sits at the puncture of the frame")
        self.weights = _frozen(np.clip(w, 0.0, None))
        self.means = _frozen(M)
        self.covs = _frozen(S)
        roots.setflags(write=False)
        self.roots = roots
        self.frame = frame

    @property
    def K(self) -> int:
        return self.weights.size

    @property
    def dim(self) -> int:
        """Fiber dimension d."""
        return self.frame.dim


def check_same_frame(mix0: GaussianMixture, mix1: GaussianMixture, tol: float = 1e-8) -> None:
    """Raise FrameMismatch unless the two mixtures share a frame within tol."""
    if mix0.frame is not mix1.frame and not frames_equal(mix0.frame, mix1.frame, tol=tol):
        raise FrameMismatch("mixtures are expressed in different moving frames")


def normalize_minimal_form(mix: GaussianMixture, tol: float = 1e-9) -> GaussianMixture:
    """Merge duplicate components and drop zero-weight ones.

    Components whose basepoints are within geodesic distance ``tol`` and
    whose covariances are within Frobenius distance ``tol`` are merged by
    summing their weights in component order; the earliest component of
    each group supplies the representative basepoint and covariance.
    """
    near = pairwise_geodesic(mix.means) <= tol
    flat = mix.covs.reshape(mix.K, -1)
    reps: list[int] = []
    weights: list[float] = []
    for k, wk in enumerate(mix.weights):
        diff = flat[reps] - flat[k]
        match = near[k, reps] & (np.sqrt(np.vecdot(diff, diff)) <= tol)
        if match.any():
            weights[int(np.argmax(match))] += float(wk)
        else:
            reps.append(k)
            weights.append(float(wk))
    kept = [(w, k) for w, k in zip(weights, reps) if w > 1e-15]
    if not kept:
        raise ValueError("all components have zero weight")
    w = np.array([k[0] for k in kept])
    idx = [k[1] for k in kept]
    return GaussianMixture(w / w.sum(), mix.means[idx], mix.covs[idx], mix.frame)


def pairwise_w2sq(mix0: GaussianMixture, mix1: GaussianMixture) -> np.ndarray:
    """K0 x K1 matrix of squared W2 distances between all component pairs.

    Entry (i, j) is the squared W2 distance between components i and j:
    the squared geodesic distance between their means plus :func:`_bures`
    from mix0's stored square roots.

    Raises
    ------
    FrameMismatch
        If the mixtures are expressed in different moving frames.
    """
    check_same_frame(mix0, mix1)
    base = pairwise_geodesic(mix0.means, mix1.means) ** 2
    return base + _bures(mix0.roots, mix0.covs, mix1.covs)


# ---------------------------------------------------------------------------
# Serialization: mixture.json bundles the frame with the weights/components.

def mixture_to_dict(mix: GaussianMixture) -> dict:
    return {
        "frame": frame_to_dict(mix.frame),
        "weights": mix.weights.tolist(),
        "components": [
            {"basepoint": m, "cov": S} for m, S in zip(mix.means.tolist(), mix.covs.tolist())
        ],
    }


def mixture_from_dict(data: dict) -> GaussianMixture:
    """The mixture of a mixture.json dict.  Basepoints need not be unit;
    components of different sizes raise DimensionMismatch, and a boolean
    where a number belongs raises ValueError."""
    frame = frame_from_dict(data["frame"])
    means = [_json_floats(c["basepoint"], "basepoint") for c in data["components"]]
    covs = [_json_floats(c["cov"], "cov") for c in data["components"]]
    if len({m.shape for m in means}) > 1 or len({S.shape for S in covs}) > 1:
        raise DimensionMismatch("mixture components differ in dimension")
    return GaussianMixture(_json_floats(data["weights"], "weights"), _unit_rows(means), covs, frame)


def save_mixture(path, mix: GaussianMixture) -> None:
    write_json(path, mixture_to_dict(mix))


def load_mixture(path) -> GaussianMixture:
    return mixture_from_dict(read_json(path))

