"""Bundle Gaussians on sphere tangent spaces and finite mixtures of them.

A bundle Gaussian is a basepoint m on the sphere together with a mean-zero
Gaussian on the tangent space at m.  Covariances are stored in the
coordinates of a moving frame transported to m, which makes the change of
basis between two basepoints the identity and reduces the squared
2-Wasserstein distance between two bundle Gaussians to

    d(m0, m1)^2 + min_U ||F0 - F1 U||^2 = d(m0, m1)^2 + tr S0 + tr S1 - 2 ||F1^T F0||_*

over orthogonal r x r U, for factors S = F F^T of r columns (Bhatia, Jain and
Lim 2019), so a covariance of rank r << d, such as a contour's, works in r x r.

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
    square-root factors F (K, d, r), S = F F^T.

    Asymmetry beyond 1e-6 is rejected and below it symmetrized away; an
    exactly symmetric stack comes back as it is.  Eigenvalues below -1e-10,
    from one stacked ``eigh``, are rejected.  F = V sqrt(lambda) keeps the
    eigenvalues above d eps lambda_max of their matrix, since the rest are
    rounding noise whose roots would swamp a small Bures term; r is the most
    any component keeps, at least 1, and a component's other columns are 0.
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
    keep = evals > S.shape[1] * np.finfo(float).eps * evals[:, -1:]
    r = max(1, int(keep.sum(axis=1).max()))
    return S, evecs[:, :, -r:] * np.sqrt(np.where(keep, evals, 0.0)[:, None, -r:])


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` itself if it is read-only, else a read-only copy."""
    a = a.copy() if a.flags.writeable else a
    a.setflags(write=False)
    return a


def _bures(mix0: GaussianMixture, mix1: GaussianMixture) -> np.ndarray:
    """K0 x K1 Bures terms between the components of two mixtures, from their
    factors padded to a common r and A = F1^T F0 (r x r) for every pair.

    The Gram form tr S0 + tr S1 - 2 sum sqrt(eig(A^T A)) is kept where r = d,
    the smallest eigenvalue of A^T A is above 1e-8 of its largest and the value
    is at least 1e-3 (tr S0 + tr S1): there no small root or difference loses
    digits.  Other pairs, rank-deficient ones among them, take the polar
    residual ||F0 - F1 U||^2, U = W V^T from the SVD A = W s V^T, accurate at
    any rank.  Identical covariances are exactly 0."""
    r = max(mix0.factors.shape[2], mix1.factors.shape[2])
    F0, F1 = (F if F.shape[2] == r else np.pad(F, ((0, 0), (0, 0), (0, r - F.shape[2])))
              for F in (mix0.factors, mix1.factors))
    A = np.swapaxes(F1, 1, 2)[None] @ F0[:, None]
    tr = np.trace(mix0.covs, axis1=1, axis2=2)[:, None] + np.trace(mix1.covs, axis1=1, axis2=2)
    bures = np.full(A.shape[:2], -np.inf)
    if r == F0.shape[1]:
        mu = np.linalg.eigvalsh(np.swapaxes(A, -1, -2) @ A)
        gram = tr - 2.0 * np.sqrt(np.clip(mu, 0.0, None)).sum(axis=-1)
        bures = np.where(mu[..., 0] > 1e-8 * mu[..., -1], gram, bures)
    polar = ~(bures >= 1e-3 * tr)
    if polar.any():
        W, _, Vt = np.linalg.svd(A[polar])
        i, j = np.nonzero(polar)
        R = (F0[i] - F1[j] @ (W @ Vt)).reshape(len(i), -1)
        bures[polar] = np.vecdot(R, R)
    bures[(mix0.covs[:, None] == mix1.covs[None]).all(axis=(-2, -1))] = 0.0
    return bures


class GaussianMixture:
    """Finite mixture of bundle Gaussians in a common moving frame, as arrays.

    ``weights`` (K,) must be a probability vector: finite, nonnegative and
    summing to one within 1e-10.  ``means`` (K, D) must be unit rows within
    1e-10, and are checked, not normalized again.  Every mean must lie off
    the puncture of the frame, since the covariances ``covs`` (K, d, d) are
    interpreted in the frame transported to it; ``factors`` (K, d, r) holds
    their square-root factors S = F F^T (:func:`_check_covs`).  The arrays
    are stored read-only, so mixtures can share them.
    """

    __slots__ = ("weights", "means", "covs", "factors", "frame")

    def __init__(self, weights, means, covs, frame: MovingFrame):
        S = np.asarray(covs, dtype=float)
        if len(S) == 0:
            raise ValueError("a mixture needs at least one component")
        S, F = _check_covs(S)
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
        self.factors = _frozen(F)
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


def _minimal_form(weights, means: np.ndarray, covs: np.ndarray, tol: float = 1e-9):
    """The weights, means and covariances of the minimal form of a mixture's
    arrays, as :func:`normalize_minimal_form` describes it."""
    near = pairwise_geodesic(means) <= tol
    flat = covs.reshape(len(covs), -1)
    reps: list[int] = []
    summed: list[float] = []
    for k, wk in enumerate(weights):
        diff = flat[reps] - flat[k]
        match = near[k, reps] & (np.sqrt(np.vecdot(diff, diff)) <= tol)
        if match.any():
            summed[int(np.argmax(match))] += float(wk)
        else:
            reps.append(k)
            summed.append(float(wk))
    kept = [(w, k) for w, k in zip(summed, reps) if w > 1e-15]
    if not kept:
        raise ValueError("all components have zero weight")
    w = np.array([k[0] for k in kept])
    idx = [k[1] for k in kept]
    return w / w.sum(), means[idx], covs[idx]


def normalize_minimal_form(mix: GaussianMixture, tol: float = 1e-9) -> GaussianMixture:
    """Merge duplicate components and drop zero-weight ones.

    Components whose basepoints are within geodesic distance ``tol`` and
    whose covariances are within Frobenius distance ``tol`` are merged by
    summing their weights in component order; the earliest component of
    each group supplies the representative basepoint and covariance.
    """
    return GaussianMixture(*_minimal_form(mix.weights, mix.means, mix.covs, tol), mix.frame)


def pairwise_w2sq(mix0: GaussianMixture, mix1: GaussianMixture) -> np.ndarray:
    """K0 x K1 matrix of squared W2 distances between all component pairs.

    Entry (i, j) is the squared W2 distance between components i and j:
    the squared geodesic distance between their means plus the Bures term
    of their covariances from the stored factors (:func:`_bures`).

    Raises
    ------
    FrameMismatch
        If the mixtures are expressed in different moving frames.
    """
    check_same_frame(mix0, mix1)
    base = pairwise_geodesic(mix0.means, mix1.means) ** 2
    return base + _bures(mix0, mix1)


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


def mixture_from_dict(data: dict, frames: dict | None = None) -> GaussianMixture:
    """The mixture of a mixture.json dict.  Basepoints need not be unit;
    components of different sizes raise DimensionMismatch, and a boolean
    where a number belongs raises ValueError.  ``frames``: see :func:`frame_from_dict`."""
    frame = frame_from_dict(data["frame"], frames)
    means = [_json_floats(c["basepoint"], "basepoint") for c in data["components"]]
    covs = [_json_floats(c["cov"], "cov") for c in data["components"]]
    if len({m.shape for m in means}) > 1 or len({S.shape for S in covs}) > 1:
        raise DimensionMismatch("mixture components differ in dimension")
    return GaussianMixture(_json_floats(data["weights"], "weights"), _unit_rows(means), covs, frame)


def save_mixture(path, mix: GaussianMixture) -> None:
    write_json(path, mixture_to_dict(mix))


def load_mixture(path, frames: dict | None = None) -> GaussianMixture:
    return mixture_from_dict(read_json(path), frames)

