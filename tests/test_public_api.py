"""The public names of ``bundlemw``: moving code between modules keeps every one,
and importing the package or running one subcommand loads only the modules it needs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bundlemw

PUBLIC = [
    "AntipodalPoint", "BundleMWError", "ChangePoint", "ChangePointReport",
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
    "procrustes_rotation", "report_from_dict", "report_to_dict", "result_to_dict",
    "riemannian_kmeans", "sample_mixture", "save_clustering", "save_contours_json",
    "save_distmat", "save_frame", "save_mixture", "save_report", "save_result",
    "save_samples", "save_triangles", "shape_distance", "shape_frechet_mean",
    "shape_statistics", "solve_transportation", "sphere_exp", "sphere_log",
    "standard_frame", "tangent_coordinates", "tangent_from_coordinates", "transport_batch",
    "transport_frame", "triangle_preshape", "triangle_shape_distance",
]


def test_every_public_name_is_exported():
    assert len(PUBLIC) == 98
    assert set(bundlemw.__all__) == set(PUBLIC)
    for name in PUBLIC:
        assert hasattr(bundlemw, name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from bundlemw import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(bundlemw.__all__)


def test_dir_lists_every_public_name():
    assert set(bundlemw.__all__) <= set(dir(bundlemw))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bundlemw.no_such_name


def loaded_modules(statements, cwd):
    """The bundlemw submodules, and numpy, held by a fresh interpreter after the statements."""
    script = f"""import sys
{statements}
print(*[m for m in sys.modules if m == "numpy" or m.startswith("bundlemw.")])"""
    env = dict(os.environ, PYTHONPATH=str(Path(bundlemw.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                         capture_output=True, text=True, check=True)
    return set(res.stdout.splitlines()[-1].split())


def test_importing_the_package_loads_no_module(tmp_path):
    assert loaded_modules("import bundlemw", tmp_path) == set()


def test_importing_the_cli_loads_no_numpy(tmp_path):
    assert loaded_modules("import bundlemw.cli", tmp_path) == {"bundlemw.cli", "bundlemw.errors"}


def test_triangles_loads_none_of_the_other_pipelines(tmp_path):
    (tmp_path / "tri.csv").write_text("0,0,1,0,0,1\n0,0,2,0,1,1.7\n")
    loaded = loaded_modules("from bundlemw import cli\n"
                            'assert cli.main(["triangles", "tri.csv", "--out", "out.csv"]) == 0',
                            tmp_path)
    assert "bundlemw.triangles" in loaded
    for module in ("contours", "estimation", "sampling", "changepoint", "transport", "gauss"):
        assert f"bundlemw.{module}" not in loaded
