"""Exception types shared across the package.

The base class decides the command-line exit code: a ``NumericalError``
exits 3, a package error that is also a ``ValueError`` exits 2.  Every
package error is exactly one of the two.
"""


class BundleMWError(Exception):
    """Base class for all package-specific errors."""


class NumericalError(BundleMWError):
    """A computation could not produce its result: the command exits 3."""


class AntipodalPoint(NumericalError):
    """Log map / transport requested at (or too close to) the cut locus."""


class NoConvergence(NumericalError):
    """An iterative solver exhausted its iteration budget."""


class EmptyCluster(NumericalError):
    """A cluster lost all of its members."""


class DegenerateMatrix(NumericalError):
    """A distance matrix carries no usable structure."""


class ClusterTooSmall(NumericalError):
    """A cluster has too few members for covariance estimation."""


class DegenerateTriangle(NumericalError):
    """Triangle vertices coincide; no preshape exists."""


class DegenerateContour(NumericalError):
    """Contour has zero length; no SRVF exists."""


class NotSymmetric(BundleMWError, ValueError):
    """A matrix expected to be symmetric is asymmetric beyond tolerance."""


class DimensionMismatch(BundleMWError, ValueError):
    """Operands have incompatible dimensions."""


class InfeasibleWeights(BundleMWError, ValueError):
    """A weight vector is not a valid probability simplex element."""


class FrameMismatch(BundleMWError, ValueError):
    """Two mixtures are parameterized over different moving frames."""


class SegmentTooSmall(BundleMWError, ValueError):
    """An energy-statistic segment has fewer than two elements."""
