"""The public names of ``bundlemw``: moving code between modules keeps every one."""

import bundlemw

PUBLIC = [
    "AntipodalPoint", "BundleGaussian", "BundleMWError", "ChangePoint", "ChangePointReport",
    "ClusterTooSmall", "Clustering", "Contour", "CovarianceMatrix", "DegenerateContour",
    "DegenerateFrame", "DegenerateMatrix", "DegenerateTriangle", "DimensionMismatch",
    "EmptyCluster", "FrameMismatch", "GaussianMixture", "InfeasibleWeights", "MW2Result",
    "MovingFrame", "NoConvergence", "NotSymmetric", "OUTLIER", "Point", "SegmentTooSmall",
    "SrvfShape", "TangentVector", "TransportPlan", "Triangle", "TrianglePreshape",
    "align_shape", "best_split", "build_reference_frame", "bures_term", "check_same_frame",
    "clustering_from_dict", "clustering_to_dict", "contour_to_srvf", "e_divisive",
    "energy_statistic", "exp_batch", "fit_mixture", "frame_from_dict", "frame_to_dict",
    "frames_equal", "frechet_mean", "geodesic_distance", "hopf_backward", "hopf_forward",
    "kmodes_cluster", "load_clustering", "load_contour_dir", "load_contour_file",
    "load_distmat", "load_frame", "load_mixture", "load_report", "load_samples",
    "load_triangles", "log_batch", "mixture_from_dict", "mixture_to_dict", "mw2",
    "mw2_distance", "normalize_minimal_form", "pairwise_geodesic", "pairwise_mw2",
    "pairwise_shape_distance", "pairwise_w2sq", "parallel_transport", "point_to_angles",
    "procrustes_rotation", "psd_sqrt", "report_from_dict", "report_to_dict",
    "riemannian_kmeans", "sample_gaussian", "sample_mixture", "save_clustering",
    "save_contours_json", "save_distmat", "save_frame", "save_mixture", "save_report",
    "save_result", "save_samples", "save_triangles", "shape_distance", "shape_frechet_mean",
    "shape_statistics", "single_gaussian_mixture", "solve_transportation", "sphere_exp",
    "sphere_log", "standard_frame", "tangent_coordinates", "tangent_from_coordinates",
    "transport_batch", "transport_frame", "triangle_preshape", "triangle_shape_distance",
    "w2_bundle_gaussian", "w2sq_bundle_gaussian",
]


def test_every_public_name_is_exported():
    assert len(PUBLIC) == 103
    assert set(bundlemw.__all__) == set(PUBLIC)
    for name in PUBLIC:
        assert hasattr(bundlemw, name), name
