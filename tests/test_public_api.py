"""The public names of ``bundlemw``: moving code between modules keeps every one,
and importing the package or running one subcommand loads only the modules it needs."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bundlemw

PUBLIC = [
    "AntipodalPoint", "BundleMWError", "ChangePoint", "ChangePointReport",
    "ClusterTooSmall", "Clustering", "Contour", "DegenerateContour", "DegenerateMatrix",
    "DegenerateTriangle", "DimensionMismatch", "EmptyCluster", "FrameMismatch",
    "GaussianMixture", "InfeasibleWeights", "MW2Result", "MovingFrame", "NoConvergence",
    "NotSymmetric", "NumericalError", "OUTLIER", "SegmentTooSmall", "TransportPlan",
    "align_shape", "check_same_frame", "clustering_to_dict", "contour_to_srvf",
    "e_divisive", "exp_batch", "fit_mixture", "frame_from_dict", "frame_to_dict",
    "frames_equal", "frechet_mean", "hopf_backward", "hopf_forward", "kmodes_cluster",
    "kmodes_from_points", "load_contour_dir", "load_contour_file", "load_distmat",
    "load_frame", "load_mixture", "load_samples", "load_triangles", "log_batch",
    "mixture_from_dict", "mixture_to_dict", "mw2", "normalize_minimal_form",
    "pairwise_geodesic", "pairwise_mw2", "pairwise_w2sq", "report_to_dict",
    "result_to_dict", "riemannian_kmeans", "sample_mixture", "save_clustering",
    "save_distmat", "save_mixture", "save_report", "save_result", "save_samples",
    "save_triangles", "shape_statistics", "solve_transportation", "standard_frame",
    "transport_frame", "triangle_preshape",
]

# The one-object-per-point layer over the array kernels (a single point is a
# unit (D,) array), the kernels' former names, an error class nothing raised and
# the helpers no command used: none of them is exported or defined any more.
REMOVED = {
    "geometry": """TangentVector sphere_exp sphere_log parallel_transport tangent_coordinates
        tangent_from_coordinates build_reference_frame transported_basis Point
        geodesic_distance save_frame transport_batch""",
    "triangles": """Triangle TrianglePreshape point_to_angles triangle_shape_distance
        preshape_batch triangles_to_sphere sphere_to_triangles load_vertices""",
    "contours": """SrvfShape procrustes_rotation shape_distance _srvf_stack _align
        pairwise_shape_distance shape_frechet_mean save_contours_json""",
    "gauss": "bures_term CovarianceMatrix _as_cov",
    "transport": "mw2_distance",
    "changepoint": "energy_statistic best_split load_report report_from_dict",
    "estimation": "load_clustering clustering_from_dict",
    "errors": "DegenerateFrame",
}


def test_every_public_name_is_exported():
    assert len(PUBLIC) == 69
    assert set(bundlemw.__all__) == set(PUBLIC)
    for name in PUBLIC:
        assert hasattr(bundlemw, name), name


def test_removed_names_are_gone():
    for module, names in REMOVED.items():
        home = importlib.import_module(f"bundlemw.{module}")
        for name in names.split():
            assert name not in bundlemw.__all__, name
            assert not hasattr(home, name), f"{module}.{name}"


def test_every_traced_name_resolves(monkeypatch):
    # bench/traced.py wraps these names in every traced benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    traced = importlib.import_module("traced")
    assert "_mw2_pair" in traced.TARGETS["cli"]
    for module, funcs in traced.TARGETS.items():
        home = importlib.import_module(f"bundlemw.{module}")
        for func in funcs:
            assert callable(getattr(home, func)), f"{module}.{func}"


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


@pytest.mark.parametrize("method", [["kmeans", "--K", "2"], ["kmodes"]])
def test_fit_loads_no_changepoint_module(tmp_path, method):
    (tmp_path / "samples.csv").write_text(
        "x0,x1,x2,label\n1,0,0,-1\n0.99,0.1,0,-1\n0.99,0,0.1,-1\n0.99,-0.1,0,-1\n"
        "0,1,0,-1\n0.1,0.99,0,-1\n0,0.99,0.1,-1\n-0.1,0.99,0,-1\n")
    (tmp_path / "frame.json").write_text('{"p": [1, 0, 0], "basis": [[0, 1, 0], [0, 0, 1]]}')
    args = ["fit", "samples.csv", "--frame", "frame.json", "--method", *method, "--out", "fit"]
    loaded = loaded_modules(f"from bundlemw import cli\nassert cli.main({args!r}) == 0", tmp_path)
    assert "bundlemw.estimation" in loaded
    assert not {"bundlemw.changepoint", "bundlemw._pcg"} & loaded
