"""Exception types shared across the package."""


class BundleMWError(Exception):
    """Base class for all package-specific errors."""


class AntipodalPoint(BundleMWError):
    """Log map / transport requested at (or too close to) the cut locus."""


class NoConvergence(BundleMWError):
    """An iterative solver exhausted its iteration budget."""


class DegenerateFrame(BundleMWError):
    """Random tangent vectors were rank-deficient; no frame constructed."""


class NotSymmetric(BundleMWError, ValueError):
    """A matrix expected to be symmetric is asymmetric beyond tolerance."""


class DimensionMismatch(BundleMWError):
    """Operands have incompatible dimensions."""


class InfeasibleWeights(BundleMWError):
    """A weight vector is not a valid probability simplex element."""


class FrameMismatch(BundleMWError):
    """Two mixtures are parameterized over different moving frames."""


class EmptyCluster(BundleMWError):
    """A cluster lost all of its members."""


class DegenerateMatrix(BundleMWError):
    """A distance matrix carries no usable structure."""


class ClusterTooSmall(BundleMWError):
    """A cluster has too few members for covariance estimation."""


class DegenerateTriangle(BundleMWError):
    """Triangle vertices coincide; no preshape exists."""


class DegenerateContour(BundleMWError):
    """Contour has zero length; no SRVF exists."""


class SegmentTooSmall(BundleMWError):
    """An energy-statistic segment has fewer than two elements."""
