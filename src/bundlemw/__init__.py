"""Gaussian mixtures on sphere tangent bundles and Wasserstein distances between them.

The sphere minus a point is parallelizable, so a single moving frame turns
every tangent space into a copy of R^(D-1).  Mixtures of fiber Gaussians
then admit a closed-form component distance (geodesic + Bures) and an exact
mixture distance through a small transportation LP.  The remaining modules
cover sampling, estimation from data, planar shape analysis (triangles via
the Hopf map, closed contours via square-root velocity functions), and
change-point detection over distance matrices.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it defines: the one list of what bundlemw exports.
# A name's module is imported on first access, so `import bundlemw` loads none.
_TABLE = {
    "changepoint": "ChangePoint ChangePointReport e_divisive report_to_dict save_report",
    "contours": """Contour align_shape contour_to_srvf load_contour_dir load_contour_file
        load_distmat pairwise_shape_distance save_contours_json save_distmat
        shape_frechet_mean shape_statistics""",
    "errors": """AntipodalPoint BundleMWError ClusterTooSmall DegenerateContour DegenerateFrame
        DegenerateMatrix DegenerateTriangle DimensionMismatch EmptyCluster FrameMismatch
        InfeasibleWeights NoConvergence NotSymmetric SegmentTooSmall""",
    "estimation": """OUTLIER Clustering clustering_to_dict fit_mixture kmodes_cluster
        riemannian_kmeans save_clustering""",
    "gauss": """GaussianMixture check_same_frame load_mixture mixture_from_dict
        mixture_to_dict normalize_minimal_form pairwise_w2sq save_mixture""",
    "geometry": """MovingFrame Point exp_batch frame_from_dict frame_to_dict frames_equal
        frechet_mean geodesic_distance load_frame log_batch pairwise_geodesic save_frame
        standard_frame transport_batch transport_frame""",
    "sampling": "load_samples sample_mixture save_samples",
    "transport": """MW2Result TransportPlan mw2 pairwise_mw2 result_to_dict save_result
        solve_transportation""",
    "triangles": "hopf_backward hopf_forward load_triangles save_triangles triangle_preshape",
}
_HOME = {name: module for module, names in _TABLE.items() for name in names.split()}

__all__ = list(_HOME)


def __getattr__(name):
    """Import the home module of a public name, and keep the value here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted(globals().keys() | _HOME.keys())
