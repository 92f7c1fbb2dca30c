"""Bundle Gaussians on sphere tangent spaces and finite mixtures of them.

A bundle Gaussian is a basepoint m on the sphere together with a mean-zero
Gaussian on the tangent space at m.  Covariances are stored in the
coordinates of a moving frame transported to m, which makes the change of
basis between two basepoints the identity and reduces the squared
2-Wasserstein distance between two bundle Gaussians to

    d(m0, m1)^2 + tr(S0 + S1 - 2 (S0^{1/2} S1 S0^{1/2})^{1/2}).

Mixtures carry the frame they are expressed in so that distances between
mixtures from different frames can be rejected early.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ._jsonfile import read_json, write_json
from .errors import DegenerateMatrix, DimensionMismatch, FrameMismatch, NotSymmetric
from .geometry import (
    ANTIPODE_TOL,
    MovingFrame,
    Point,
    build_reference_frame,
    frame_from_dict,
    frame_to_dict,
    frames_equal,
    geodesic_distance,
    pairwise_geodesic,
)


class CovarianceMatrix:
    """Symmetric positive semidefinite d x d matrix.

    Inputs asymmetric beyond 1e-6 are rejected; smaller asymmetry is
    symmetrized away.  Eigenvalues below -1e-10 are rejected, negative
    roundoff above that is tolerated and clamped to zero where it matters
    (square roots, Bures terms).
    """

    __slots__ = ("mat",)

    def __init__(self, mat):
        m = np.asarray(mat, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("covariance must be a square matrix")
        if not np.all(np.isfinite(m)):
            raise ValueError("covariance entries must be finite")
        if np.max(np.abs(m - m.T)) > 1e-6:
            raise NotSymmetric("covariance asymmetry exceeds 1e-6")
        m = 0.5 * (m + m.T)
        if np.min(np.linalg.eigvalsh(m)) < -1e-10:
            raise DegenerateMatrix("covariance has an eigenvalue below -1e-10")
        self.mat = m

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def zero(cls, d: int) -> "CovarianceMatrix":
        return cls(np.zeros((d, d)))

    def __repr__(self) -> str:
        return f"CovarianceMatrix({np.array2string(self.mat, precision=6)})"


def _as_cov(S) -> CovarianceMatrix:
    return S if isinstance(S, CovarianceMatrix) else CovarianceMatrix(S)


def psd_sqrt(S) -> CovarianceMatrix:
    """Symmetric PSD square root via eigendecomposition.

    Negative eigenvalues from roundoff are clamped to zero, so the result
    squares back to ``S`` within 1e-8 relative Frobenius error.
    """
    S = _as_cov(S)
    evals, evecs = np.linalg.eigh(S.mat)
    root = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.T
    return CovarianceMatrix(0.5 * (root + root.T))


def bures_term(S0, S1) -> float:
    """tr(S0 + S1 - 2 (S0^{1/2} S1 S0^{1/2})^{1/2}), clamped to be >= 0.

    This is the covariance part of the Gaussian 2-Wasserstein distance; it
    is symmetric in its arguments and zero exactly when S0 = S1.
    """
    S0 = _as_cov(S0)
    S1 = _as_cov(S1)
    if S0.dim != S1.dim:
        raise DimensionMismatch(f"covariance dimensions differ: {S0.dim} vs {S1.dim}")
    if np.array_equal(S0.mat, S1.mat):
        return 0.0
    A = psd_sqrt(S0).mat
    inner = A @ S1.mat @ A
    cross_evals = np.linalg.eigvalsh(0.5 * (inner + inner.T))
    val = float(np.trace(S0.mat) + np.trace(S1.mat)) - 2.0 * float(
        np.sqrt(np.clip(cross_evals, 0.0, None)).sum()
    )
    return max(val, 0.0)


class BundleGaussian:
    """A basepoint on the sphere plus a tangent covariance in frame coordinates."""

    __slots__ = ("basepoint", "cov")

    def __init__(self, basepoint: Point, cov):
        cov = _as_cov(cov)
        if cov.dim != basepoint.dim - 1:
            raise DimensionMismatch(
                f"covariance is {cov.dim}x{cov.dim} but the tangent space has dimension {basepoint.dim - 1}"
            )
        self.basepoint = basepoint
        self.cov = cov

    @property
    def dim(self) -> int:
        """Fiber dimension d."""
        return self.cov.dim


def w2sq_bundle_gaussian(g0: BundleGaussian, g1: BundleGaussian) -> float:
    """Squared 2-Wasserstein distance between two bundle Gaussians.

    Both covariances must be expressed in the same transported frame
    family; under that convention the frame change between the basepoints
    drops out and the distance splits into a squared geodesic base term
    plus a Bures covariance term.
    """
    if g0.basepoint.dim != g1.basepoint.dim:
        raise DimensionMismatch("bundle Gaussians live on spheres of different dimension")
    base = geodesic_distance(g0.basepoint, g1.basepoint)
    return base * base + bures_term(g0.cov, g1.cov)


def w2_bundle_gaussian(g0: BundleGaussian, g1: BundleGaussian) -> float:
    return float(np.sqrt(w2sq_bundle_gaussian(g0, g1)))


class GaussianMixture:
    """Finite mixture of bundle Gaussians with a common moving frame.

    ``weights`` must be a probability vector (nonnegative, summing to one
    within 1e-10).  Every basepoint must lie off the puncture of the frame,
    since covariances are interpreted in the frame transported to it.
    """

    __slots__ = ("weights", "components", "frame")

    def __init__(self, weights, components: Sequence[BundleGaussian], frame: MovingFrame):
        w = np.asarray(weights, dtype=float)
        components = tuple(components)
        if len(components) == 0:
            raise ValueError("a mixture needs at least one component")
        if w.shape != (len(components),):
            raise ValueError("weights and components have different lengths")
        if np.any(w < -1e-10) or abs(float(w.sum()) - 1.0) > 1e-10:
            raise ValueError("weights must be a probability vector (sum 1 within 1e-10)")
        d = frame.dim
        for g in components:
            if g.dim != d or g.basepoint.dim != frame.p.dim:
                raise DimensionMismatch("component dimension does not match the frame")
            if float(g.basepoint.coords @ frame.p.coords) <= -1.0 + ANTIPODE_TOL:
                raise ValueError("component basepoint sits at the puncture of the frame")
        self.weights = np.clip(w, 0.0, None)
        self.components = components
        self.frame = frame

    @property
    def K(self) -> int:
        return len(self.components)

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
    summing their weights; the earliest component of each group supplies
    the representative basepoint and covariance.
    """
    reps: list[BundleGaussian] = []
    weights: list[float] = []
    for wk, g in zip(mix.weights, mix.components):
        for i, r in enumerate(reps):
            if (
                geodesic_distance(g.basepoint, r.basepoint) <= tol
                and np.linalg.norm(g.cov.mat - r.cov.mat) <= tol
            ):
                weights[i] += float(wk)
                break
        else:
            reps.append(g)
            weights.append(float(wk))
    kept = [(w, g) for w, g in zip(weights, reps) if w > 1e-15]
    if not kept:
        raise ValueError("all components have zero weight")
    w = np.array([k[0] for k in kept])
    return GaussianMixture(w / w.sum(), [k[1] for k in kept], mix.frame)


def _psd_roots(mix: GaussianMixture) -> np.ndarray:
    """PSD square roots (K, d, d) of the covariances, from one stacked ``eigh``."""
    evals, evecs = np.linalg.eigh(np.stack([g.cov.mat for g in mix.components]))
    return (evecs * np.sqrt(np.clip(evals, 0.0, None))[:, None, :]) @ np.transpose(
        evecs, (0, 2, 1)
    )


def pairwise_w2sq(
    mix0: GaussianMixture, mix1: GaussianMixture, roots0: np.ndarray | None = None
) -> np.ndarray:
    """K0 x K1 matrix of squared W2 distances between all component pairs.

    Batched equivalent of calling :func:`w2sq_bundle_gaussian` on the grid.
    The square roots of mix0's covariances come from one stacked ``eigh``;
    the K0 x K1 cross terms S0^{1/2} S1 S0^{1/2} come from one batched
    ``matmul`` and their eigenvalues from one stacked ``eigvalsh``.
    Identical covariances give an exactly zero Bures term.

    ``roots0`` may hold those square roots, (K0, d, d), as ``_psd_roots``
    computes them, so that a mixture paired with many others is factored
    once; the result is the same bit for bit.

    Raises
    ------
    FrameMismatch
        If the mixtures are expressed in different moving frames.
    """
    check_same_frame(mix0, mix1)
    if roots0 is None:
        roots0 = _psd_roots(mix0)
    M0 = np.array([g.basepoint.coords for g in mix0.components])
    M1 = np.array([g.basepoint.coords for g in mix1.components])
    base = pairwise_geodesic(M0, M1) ** 2

    S0 = np.stack([g.cov.mat for g in mix0.components])
    S1 = np.stack([g.cov.mat for g in mix1.components])
    tr0 = np.trace(S0, axis1=1, axis2=2)
    tr1 = np.trace(S1, axis1=1, axis2=2)
    # S0^{1/2} S1 S0^{1/2} for every pair by batched matmul, O(K0 K1 d^3)
    inner = roots0[:, None] @ S1[None] @ roots0[:, None]
    inner = 0.5 * (inner + np.swapaxes(inner, -1, -2))
    cross = np.sqrt(np.clip(np.linalg.eigvalsh(inner), 0.0, None)).sum(axis=-1)
    bures = np.clip(tr0[:, None] + tr1[None, :] - 2.0 * cross, 0.0, None)
    # identical component pairs are exactly at distance zero; zero them out
    # so roundoff in the eigendecompositions cannot survive the final sqrt
    bures[(S0[:, None] == S1[None]).all(axis=(-2, -1))] = 0.0
    return base + bures


# ---------------------------------------------------------------------------
# Serialization: mixture.json bundles the frame with the weights/components.

def mixture_to_dict(mix: GaussianMixture) -> dict:
    return {
        "frame": frame_to_dict(mix.frame),
        "weights": mix.weights.tolist(),
        "components": [
            {"basepoint": g.basepoint.coords.tolist(), "cov": g.cov.mat.tolist()}
            for g in mix.components
        ],
    }


def mixture_from_dict(data: dict) -> GaussianMixture:
    frame = frame_from_dict(data["frame"])
    comps = [
        BundleGaussian(Point(c["basepoint"]), CovarianceMatrix(np.asarray(c["cov"], dtype=float)))
        for c in data["components"]
    ]
    return GaussianMixture(data["weights"], comps, frame)


def save_mixture(path, mix: GaussianMixture) -> None:
    write_json(path, mixture_to_dict(mix))


def load_mixture(path) -> GaussianMixture:
    return mixture_from_dict(read_json(path))


def single_gaussian_mixture(g: BundleGaussian, frame=None) -> GaussianMixture:
    """Wrap one bundle Gaussian as a K=1 mixture (frame defaults to a
    deterministic frame at the basepoint)."""
    if frame is None:
        frame = build_reference_frame(g.basepoint, rng_seed=0)
    return GaussianMixture([1.0], [g], frame)
