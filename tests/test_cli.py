import builtins
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from bundlemw import cli, errors
from bundlemw.contours import (
    Contour,
    load_contour_dir,
    load_distmat,
    save_contours_json,
    save_distmat,
    shape_statistics,
)
from bundlemw.gauss import GaussianMixture, load_mixture, save_mixture
from bundlemw.geometry import (
    frame_to_dict,
    frames_equal,
    frechet_mean,
    pairwise_geodesic,
    save_frame,
    standard_frame,
)
from bundlemw.sampling import load_samples, save_samples
from bundlemw.triangles import (
    hopf_backward,
    hopf_forward,
    load_triangles,
    save_triangles,
    triangle_preshape,
)
from helpers import loop_align_shape, loop_contour_to_srvf, random_frame

FRAME = frame_to_dict(standard_frame(3))
GOOD = {"basepoint": [0.0, 0.6, 0.8], "cov": [[0.01, 0.0], [0.0, 0.02]]}
CONFIG = {
    "frame": FRAME,
    "mixture": {
        "weights": [0.5, 0.5],
        "components": [
            {"basepoint": [1.0, 0.0, 0.0], "cov": [[0.01, 0.0], [0.0, 0.01]]},
            {"basepoint": [0.0, 1.0, 0.0], "cov": [[0.02, 0.0], [0.0, 0.01]]},
        ],
    },
    "n": 200,
    "seed": 4,
}


@pytest.fixture
def workspace(tmp_path):
    save_frame(tmp_path / "frame.json", standard_frame(3))
    config = json.loads(json.dumps(CONFIG))
    (tmp_path / "config.json").write_text(json.dumps(config))
    return tmp_path, config


def run(args):
    return cli.main([str(a) for a in args])


def write_frames(fdir, n_frames=2, per_frame=3, seed=0):
    """A directory of contour files t0.json, t1.json, ...: noisy ellipses,
    one file per frame, that ``contours`` fits without failing."""
    rng = np.random.default_rng(seed)
    fdir.mkdir()
    t = np.linspace(0, 2 * np.pi, 40, endpoint=False)
    for f in range(n_frames):
        cs = []
        for _ in range(per_frame):
            r = 1.0 + 0.05 * rng.standard_normal()
            cs.append(Contour(np.vstack([r * np.cos(t), (1 + 0.3 * f) * r * np.sin(t)])))
        save_contours_json(fdir / f"t{f}.json", cs)
    return fdir


class TestSimulate:
    def test_writes_labeled_samples(self, workspace, capsys):
        tmp, config = workspace
        out = tmp / "samples.csv"
        assert run(["simulate", tmp / "config.json", "--out", out]) == 0
        X, labels = load_samples(out)
        assert X.shape == (200, 3)
        assert set(labels) == {0, 1}
        echo = json.loads(capsys.readouterr().out)
        assert len(echo["config_sha256"]) == 64
        assert echo["n"] == 200

    def test_byte_identical_rerun(self, workspace):
        tmp, _ = workspace
        a, b = tmp / "a.csv", tmp / "b.csv"
        run(["simulate", tmp / "config.json", "--out", a])
        run(["simulate", tmp / "config.json", "--out", b])
        assert a.read_bytes() == b.read_bytes()


class TestFit:
    def test_kmeans_round_trip(self, workspace, capsys):
        tmp, _ = workspace
        run(["simulate", tmp / "config.json", "--out", tmp / "samples.csv"])
        code = run(
            ["fit", tmp / "samples.csv", "--frame", tmp / "frame.json",
             "--method", "kmeans", "--K", "2", "--out", tmp / "fit"]
        )
        assert code == 0
        mix = load_mixture(tmp / "fit" / "mixture.json")
        assert mix.K == 2
        basepoints = sorted(
            tuple(np.round(m, 1)) for m in mix.means
        )
        assert np.allclose(basepoints[0], [0.0, 1.0, 0.0], atol=0.1)
        assert np.allclose(basepoints[1], [1.0, 0.0, 0.0], atol=0.1)

    def test_kmodes_path(self, workspace):
        tmp, _ = workspace
        run(["simulate", tmp / "config.json", "--out", tmp / "samples.csv"])
        code = run(
            ["fit", tmp / "samples.csv", "--frame", tmp / "frame.json",
             "--method", "kmodes", "--q", "0.3", "--out", tmp / "fitkm"]
        )
        assert code == 0
        assert (tmp / "fitkm" / "clustering.json").exists()

    def test_kmodes_on_rows_that_are_not_unit(self, workspace):
        tmp, _ = workspace
        rng = np.random.default_rng(0)
        caps = [c + 0.05 * rng.standard_normal((20, 3)) for c in np.eye(3)[:2]]
        caps = [c / np.linalg.norm(c, axis=1, keepdims=True) for c in caps]
        # the same sphere points, with the second cap's rows three times longer
        save_samples(tmp / "scaled.csv", np.vstack([caps[0], 3.0 * caps[1]]))
        code = run(
            ["fit", tmp / "scaled.csv", "--frame", tmp / "frame.json",
             "--method", "kmodes", "--q", "0.3", "--out", tmp / "fitkm"]
        )
        assert code == 0
        clustering = json.loads((tmp / "fitkm" / "clustering.json").read_text())
        assert sorted(clustering["sizes"]) == [20, 20]

    def test_kmodes_rejects_more_points_than_the_cap(self, workspace, capsys, monkeypatch):
        tmp, _ = workspace
        X = np.tile(np.eye(3), (3334, 1))[:10001]
        save_samples(tmp / "big.csv", X)

        def refuse(*args):
            raise AssertionError("the distance matrix must not be built")

        monkeypatch.setattr("bundlemw.estimation.pairwise_geodesic", refuse)
        code = run(
            ["fit", tmp / "big.csv", "--frame", tmp / "frame.json",
             "--method", "kmodes", "--out", tmp / "fitkm"]
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "10000" in err["message"]

    def test_kmodes_fit_holds_no_distance_matrix(self, workspace, capsys):
        # the n x n matrix alone would be 8 n^2 bytes; clustering from the
        # points peaks near 0.74 n^2, the ball and the few distances it ranks
        tmp, config = workspace
        n = 2000
        (tmp / "big.json").write_text(json.dumps(dict(config, n=n)))
        run(["simulate", tmp / "big.json", "--out", tmp / "big.csv"])
        argv = ["fit", tmp / "big.csv", "--frame", tmp / "frame.json",
                "--method", "kmodes", "--out", tmp / "fitkm"]
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= n * n

    def test_kmodes_fit_imports_no_masked_arrays(self, workspace):
        # np.quantile reaches np.unique, which imports numpy.ma
        tmp, _ = workspace
        run(["simulate", tmp / "config.json", "--out", tmp / "samples.csv"])
        script = ("import sys\nfrom bundlemw import cli\n"
                  "assert cli.main(['fit', 'samples.csv', '--frame', 'frame.json', "
                  "'--method', 'kmodes', '--out', 'fitkm']) == 0\n"
                  "print('numpy.ma' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        res = subprocess.run([sys.executable, "-c", script], cwd=tmp, env=env,
                             capture_output=True, text=True, check=True)
        assert res.stdout.splitlines()[-1] == "False"

    def test_memory_error_exits_3(self, workspace, capsys, monkeypatch):
        tmp, _ = workspace
        run(["simulate", tmp / "config.json", "--out", tmp / "samples.csv"])
        capsys.readouterr()

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.94 GiB")

        monkeypatch.setattr("bundlemw.estimation.riemannian_kmeans", exhausted)
        code = run(
            ["fit", tmp / "samples.csv", "--frame", tmp / "frame.json",
             "--method", "kmeans", "--K", "2", "--out", tmp / "fit"]
        )
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "MemoryError", "message": "Unable to allocate 8.94 GiB"}


class TestMw2AndDistmat:
    def test_self_distance_zero(self, workspace, capsys):
        tmp, _ = workspace
        run(["simulate", tmp / "config.json", "--out", tmp / "samples.csv"])
        run(["fit", tmp / "samples.csv", "--frame", tmp / "frame.json",
             "--K", "2", "--out", tmp / "fit"])
        capsys.readouterr()
        mx = tmp / "fit" / "mixture.json"
        assert run(["mw2", mx, mx, "--out", tmp / "plan.json"]) == 0
        echo = json.loads(capsys.readouterr().out)
        assert echo["distance"] == 0.0
        plan = json.loads((tmp / "plan.json").read_text())
        assert plan["distance"] == 0.0

    def test_non_unit_basepoints_accepted(self, workspace, capsys):
        tmp, config = workspace
        for name, point in (("a", [0.0, 0.6, 0.8]), ("b", [0.0, 3.0, 4.0])):
            comp = {"basepoint": point, "cov": GOOD["cov"]}
            (tmp / f"{name}.json").write_text(json.dumps(
                {"frame": config["frame"], "weights": [1.0], "components": [comp]}))
        assert run(["mw2", tmp / "a.json", tmp / "b.json"]) == 0
        assert json.loads(capsys.readouterr().out)["distance"] == 0.0

    def test_distmat_shape_and_parallel_agreement(self, workspace, capsys):
        tmp, config = workspace
        mixdir = tmp / "mixes"
        mixdir.mkdir()
        frame = config["frame"]
        for i in range(4):
            mix = {
                "frame": frame,
                "weights": [1.0],
                "components": [
                    {
                        "basepoint": [np.cos(0.3 * i), np.sin(0.3 * i), 0.0],
                        "cov": [[0.01, 0.0], [0.0, 0.01]],
                    }
                ],
            }
            (mixdir / f"m{i}.json").write_text(json.dumps(mix))
        out1 = tmp / "d1.csv"
        out2 = tmp / "d2.csv"
        assert run(["distmat", mixdir, "--out", out1]) == 0
        assert run(["distmat", mixdir, "--jobs", "2", "--out", out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        D, names = load_distmat(out1)
        assert names == ["m0", "m1", "m2", "m3"]
        assert np.array_equal(D, D.T)
        assert np.all(np.diag(D) == 0.0)
        assert D[0, 1] == pytest.approx(0.3, abs=1e-8)


class TestTransport:
    def test_known_plan(self, workspace, capsys):
        tmp, _ = workspace
        np.savetxt(tmp / "cost.csv", np.array([[0.0, 1.0], [1.0, 0.0]]), delimiter=",")
        code = run(
            ["transport", tmp / "cost.csv", "--w0", "0.5,0.5", "--w1", "0.5,0.5",
             "--out", tmp / "plan.json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["cost"] == 0.0
        payload = json.loads((tmp / "plan.json").read_text())
        assert payload["plan"] == [[0.5, 0.0], [0.0, 0.5]]

    @pytest.mark.parametrize("w0, code", [("0.5,0.500000005", 0), ("0.5,0.50000002", 2)])
    def test_marginal_tolerance(self, workspace, capsys, w0, code):
        # marginals must sum to 1 within 1e-8
        tmp, _ = workspace
        np.savetxt(tmp / "cost.csv", np.eye(2), delimiter=",")
        assert run(["transport", tmp / "cost.csv", "--w0", w0]) == code
        if code:
            assert json.loads(capsys.readouterr().err)["error"] == "InfeasibleWeights"


class TestChangepoint:
    def test_block_matrix_detection(self, workspace, capsys):
        tmp, _ = workspace
        n = 40
        D = np.full((n, n), 1.0)
        D[:20, :20] = 0.0
        D[20:, 20:] = 0.0
        np.fill_diagonal(D, 0.0)
        save_distmat(tmp / "D.csv", D)
        code = run(
            ["changepoint", tmp / "D.csv", "--R", "99", "--min-size", "8",
             "--seed", "1", "--out", tmp / "cps.json"]
        )
        assert code == 0
        echo = json.loads(capsys.readouterr().out)
        assert echo["accepted"] == [20]
        hyper = json.loads((tmp / "cps.json").read_text())["hyperparams"]
        assert hyper["R"] == 99
        assert hyper["min_size"] == 8
        assert hyper["p0"] == 0.0125

    def test_imports_no_numpy_random(self, workspace):
        # numpy.random brings secrets and OpenSSL's _hashlib with it
        tmp, _ = workspace
        save_distmat(tmp / "D.csv", np.abs(np.arange(30.0)[:, None] - np.arange(30.0)))
        script = ("import sys\nfrom bundlemw import cli\n"
                  "assert cli.main(['changepoint', 'D.csv', '--min-size', '5', '--R', '19']) == 0\n"
                  "print(sorted({'numpy.random', 'secrets', '_hashlib'} & set(sys.modules)))")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        res = subprocess.run([sys.executable, "-c", script], cwd=tmp, env=env,
                             capture_output=True, text=True, check=True)
        assert res.stdout.splitlines()[-1] == "[]"

    def test_negative_seed_exits_2(self, workspace, capsys):
        tmp, _ = workspace
        save_distmat(tmp / "D.csv", np.abs(np.arange(30.0)[:, None] - np.arange(30.0)))
        assert run(["changepoint", tmp / "D.csv", "--min-size", "5", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == (
            '{"error": "ValueError", "message": "expected non-negative integer"}\n')


class TestTriangles:
    def test_forward_then_backward(self, workspace, capsys):
        tmp, _ = workspace
        tris = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                         [[0.0, 0.0], [2.0, 0.0], [1.0, 1.7]]])
        save_triangles(tmp / "tri.csv", tris)
        assert run(["triangles", tmp / "tri.csv", "--out", tmp / "angles.csv"]) == 0
        rows = (tmp / "angles.csv").read_text().strip().splitlines()
        assert rows[0] == "theta,phi,x,y,z"
        assert len(rows) == 3
        angles_only = tmp / "angles_only.csv"
        angles_only.write_text(
            "theta,phi\n"
            + "\n".join(",".join(r.split(",")[:2]) for r in rows[1:])
            + "\n"
        )
        assert run(
            ["triangles", angles_only, "--mode", "backward", "--out", tmp / "tri2.csv"]
        ) == 0
        back = load_triangles(tmp / "tri2.csv")
        assert len(back) == 2
        # shapes agree even though the representatives differ
        Y0, Y1 = (hopf_forward(triangle_preshape(V)) for V in (tris, back))
        assert np.max(np.diag(pairwise_geodesic(Y0, Y1))) < 1e-9
        capsys.readouterr()

    def test_mixed_angle_rows_take_psi_zero(self, workspace, capsys):
        tmp, _ = workspace
        (tmp / "angles.csv").write_text("theta,phi,psi\n0.5,0.1\n1.0,0.2,0.7\n2.0,-1.0\n")
        assert run(
            ["triangles", tmp / "angles.csv", "--mode", "backward", "--out", tmp / "t.csv"]
        ) == 0
        capsys.readouterr()
        expect = hopf_backward(np.array([0.5, 1.0, 2.0]), np.array([0.1, 0.2, -1.0]),
                               np.array([0.0, 0.7, 0.0]))
        assert np.array_equal(load_triangles(tmp / "t.csv"), expect)


class TestContours:
    def test_per_frame_mixtures_share_frame(self, workspace, capsys):
        tmp, _ = workspace
        fdir = write_frames(tmp / "frames")
        out = tmp / "mixes"
        assert run(["contours", fdir, "--T", "30", "--out", out]) == 0
        capsys.readouterr()
        m0 = load_mixture(out / "t0.json")
        m1 = load_mixture(out / "t1.json")
        assert m0.K == 1 and m1.K == 1
        assert frames_equal(m0.frame, m1.frame)
        assert m0.frame.p.size == 60
        assert m0.dim == 59
        # the downstream distance matrix is immediately computable
        assert run(["distmat", out, "--out", tmp / "sd.csv"]) == 0
        D, _ = load_distmat(tmp / "sd.csv")
        assert D[0, 1] > 0.01

    def test_distmat_jobs_byte_identical_and_equal_to_mw2(self, workspace, capsys):
        # d = 39 with rank-2 covariances; at this seed one mean shape is not
        # a fixed point of renormalization, so re-parsing the mixtures for
        # another process would move the last bit of its distances
        tmp, _ = workspace
        fdir = write_frames(tmp / "frames", n_frames=6, seed=1)
        out = tmp / "mixes"
        assert run(["contours", fdir, "--T", "20", "--out", out]) == 0
        assert run(["distmat", out, "--jobs", "1", "--out", tmp / "d1.csv"]) == 0
        assert run(["distmat", out, "--jobs", "2", "--out", tmp / "d2.csv"]) == 0
        assert (tmp / "d1.csv").read_bytes() == (tmp / "d2.csv").read_bytes()
        capsys.readouterr()
        D, names = load_distmat(tmp / "d1.csv")
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                assert run(["mw2", out / f"{names[i]}.json", out / f"{names[j]}.json"]) == 0
                assert json.loads(capsys.readouterr().out)["distance"] == D[i, j]

    @pytest.mark.parametrize("seed", [0, 3])
    def test_mixtures_equal_per_shape_reference(self, workspace, capsys, seed):
        tmp, _ = workspace
        fdir = write_frames(tmp / "frames", n_frames=3, per_frame=4, seed=seed)
        assert run(["contours", fdir, "--T", "30", "--out", tmp / "mixes"]) == 0
        capsys.readouterr()
        frame = standard_frame(60)
        frames = load_contour_dir(fdir)
        shapes = {n: [loop_contour_to_srvf(c.points, 30) for c in cs] for n, cs in frames.items()}
        reference = shapes["t0"][0]
        for name, qs in shapes.items():
            aligned = np.array([loop_align_shape(reference, q) for q in qs])
            mean = frechet_mean(aligned.reshape(len(qs), -1))
            _, cov = shape_statistics(aligned, mean.reshape(2, 30), frame)
            mix = GaussianMixture([1.0], mean[None], cov[None], frame)
            save_mixture(tmp / "ref.json", mix)
            assert (tmp / "mixes" / f"{name}.json").read_bytes() == (tmp / "ref.json").read_bytes()


class TestArgErrors:
    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert cli.main(["mw2", "a.json", "b.json", "--bogus"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        capsys.readouterr()


# ---------------------------------------------------------------------------
# Exit codes: the class of an error decides its code.

EXIT_CODES = {
    errors.NoConvergence: 3, errors.AntipodalPoint: 3, errors.EmptyCluster: 3,
    errors.DegenerateMatrix: 3, errors.ClusterTooSmall: 3, errors.DegenerateTriangle: 3,
    errors.DegenerateContour: 3, MemoryError: 3, FloatingPointError: 3,
    errors.NotSymmetric: 2, errors.DimensionMismatch: 2, errors.InfeasibleWeights: 2,
    errors.FrameMismatch: 2, errors.SegmentTooSmall: 2,
    ValueError: 2, TypeError: 2, KeyError: 2, OSError: 2, OverflowError: 2,
}


def test_every_error_class_exits_with_its_pinned_code(monkeypatch, capsys):
    package = {c for c in vars(errors).values() if isinstance(c, type)
               and issubclass(c, errors.BundleMWError)} - {errors.BundleMWError, errors.NumericalError}
    assert package == {c for c in EXIT_CODES if issubclass(c, errors.BundleMWError)}
    assert sorted(EXIT_CODES[c] for c in package) == [2] * 5 + [3] * 7
    for c in package:
        assert issubclass(c, errors.NumericalError) != issubclass(c, ValueError), c
    for c, code in EXIT_CODES.items():
        def fail(args, c=c):
            raise c("pinned")

        monkeypatch.setattr(cli, "cmd_triangles", fail)
        assert cli.main(["triangles", "in.csv", "--out", "out.csv"]) == code, c
        assert json.loads(capsys.readouterr().err)["error"] == c.__name__


# ---------------------------------------------------------------------------
# Malformed inputs: every subcommand against a corpus of bad files and flags.
# A file's content is text, a callable that writes the path, or None for an
# empty directory.

DEEP = "[" * 200_000 + "]" * 200_000
SAMPLES = ("x0,x1,x2,label\n1,0,0,-1\n0.99,0.1,0,-1\n0.99,0,0.1,-1\n0.99,-0.1,0,-1\n"
           "0,1,0,-1\n0.1,0.99,0,-1\n0,0.99,0.1,-1\n-0.1,0.99,0,-1\n")


def mixture(components=(GOOD,), weights=(1.0,), frame=FRAME):
    return json.dumps({"frame": frame, "weights": weights, "components": components})


def one_component(cov, basepoint=GOOD["basepoint"]):
    return mixture([{"basepoint": basepoint, "cov": cov}])


def config(**fields):
    return json.dumps(dict(CONFIG, **fields))


def component_config(basepoint=(1.0, 0.0, 0.0), cov=((0.01, 0.0), (0.0, 0.01))):
    """A simulate config of one component."""
    return config(mixture={"weights": [1.0], "components": [{"basepoint": basepoint, "cov": cov}]})


def frame_file(dim=3):
    return lambda path: save_frame(path, standard_frame(dim))


def fit_files(samples=SAMPLES, frame=None):
    return {"samples.csv": samples, "frame.json": frame or frame_file()}


def distances(n, fill=1.0, pair=None):
    """A distmat.csv writer: ``fill`` off the zero diagonal, ``pair`` at (0, 1) and (1, 0)."""
    D = np.full((n, n), fill)
    np.fill_diagonal(D, 0.0)
    if pair is not None:
        D[0, 1], D[1, 0] = pair
    return lambda path: save_distmat(path, D)


def contours(last):
    """Two fittable frames and a last one, t9.json, with this content."""
    return {"frames": write_frames, "frames/t9.json": last}


def circle(scale=1.0, n=8):
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return (scale * np.vstack([np.cos(t), np.sin(t)])).tolist()


NAN, INF = float("nan"), float("inf")
SIMULATE = "simulate config.json --out samples.csv"
FIT = "fit samples.csv --frame frame.json --K 2 --out fit"
KMODES = "fit samples.csv --frame frame.json --method kmodes --q 0.5 --out fit"
MW2 = "mw2 bad.json good.json --out plan.json"
DISTMAT = "distmat mixes --out d.csv"
TRANSPORT = "transport cost.csv --out plan.json"
CHANGEPOINT = "changepoint D.csv --min-size 2 --R 19 --out cps.json"
FORWARD = "triangles in.csv --mode forward --out out.csv"
BACKWARD = "triangles in.csv --mode backward --out out.csv"
CONTOURS = "contours frames --T 30 --out mixes"

# id, command line, files, exit code, error class, a part of the message
CORPUS = [
    ("simulate-empty", SIMULATE, {"config.json": ""}, 2, "ValueError", "not valid JSON"),
    ("simulate-bad-json", SIMULATE, {"config.json": '{"frame": [,]}'}, 2, "ValueError", "line 1"),
    ("simulate-deep-nesting", SIMULATE, {"config.json": DEEP}, 2, "ValueError", "config.json"),
    ("simulate-huge-n", SIMULATE, {"config.json": config(n=10**30)}, 2, "OverflowError", ""),
    ("simulate-zero-n", SIMULATE, {"config.json": config(n=0)}, 2, "ValueError", "'n'"),
    ("simulate-float-n", SIMULATE, {"config.json": config(n=2.5)}, 2, "ValueError", "'n'"),
    ("simulate-bool-n", SIMULATE, {"config.json": config(n=True)}, 2, "ValueError", "'n'"),
    ("simulate-bool-seed", SIMULATE, {"config.json": config(seed=True)}, 2, "ValueError", "'seed'"),
    ("simulate-missing-section", SIMULATE,
     {"config.json": json.dumps({k: v for k, v in CONFIG.items() if k != "mixture"})},
     2, "ValueError", "mixture"),
    ("simulate-list", SIMULATE, {"config.json": "[1, 2]"}, 2, "ValueError", "frame"),
    ("simulate-frame-string", SIMULATE, {"config.json": config(frame="x")}, 2, "TypeError", ""),
    ("simulate-nan-basis", SIMULATE,
     {"config.json": config(frame={"p": [1, 0, 0], "basis": [[0, NAN, 0], [0, 0, 1]]})},
     2, "ValueError", "finite"),
    ("simulate-nan-cov", SIMULATE, {"config.json": component_config(cov=[[NAN, 0], [0, 1]])},
     2, "ValueError", "finite"),
    ("simulate-1e308-cov", SIMULATE,
     {"config.json": component_config(cov=[[1e308, 0], [0, 1e308]])}, 3, "FloatingPointError", ""),
    ("simulate-puncture", SIMULATE, {"config.json": component_config(basepoint=[-1, 0, 0])},
     2, "ValueError", "puncture"),
    ("simulate-missing-file", SIMULATE, {}, 2, "FileNotFoundError", ""),

    ("fit-empty", FIT, fit_files(""), 2, "ValueError", "samples.csv"),
    ("fit-comment-only", FIT, fit_files("# samples\n"), 2, "ValueError", "samples.csv"),
    ("fit-zero-rows", FIT, fit_files("x0,x1,x2,label\n"), 2, "ValueError", "no data rows"),
    ("fit-ragged", FIT, fit_files(SAMPLES + "1,0,-1\n"), 2, "ValueError", "line 10"),
    ("fit-one-column", FIT, fit_files("1\n2\n3\n"), 2, "ValueError", "R^D"),
    ("fit-inf", FIT, fit_files(SAMPLES + "inf,0,0,-1\n"), 2, "ValueError", "finite"),
    ("fit-kmodes-minus-inf", KMODES, fit_files(SAMPLES + "-inf,0,0,-1\n"), 2, "ValueError", "finite"),
    *[(f"fit-{label}-label", FIT, fit_files(SAMPLES + f"1,0,0,{label}\n"), 2, "ValueError",
       "samples.csv") for label in ("nan", "inf", "1e300", "0.5")],
    ("fit-all-at-puncture", "fit samples.csv --frame frame.json --K 1 --out fit",
     fit_files("x0,x1,x2,label\n-1,0,0,-1\n-1,0,0,-1\n-1,0,0,-1\n"), 3, "AntipodalPoint", ""),
    ("fit-more-clusters-than-points", "fit samples.csv --frame frame.json --K 99 --out fit",
     fit_files(), 3, "EmptyCluster", ""),
    ("fit-missing-K", "fit samples.csv --frame frame.json --out fit", fit_files(),
     2, "ValueError", "--K"),
    ("fit-missing-frame", "fit samples.csv --frame nope.json --K 2 --out fit",
     {"samples.csv": SAMPLES}, 2, "FileNotFoundError", ""),
    ("fit-frame-deep-nesting", FIT, fit_files(frame=DEEP), 2, "ValueError", "frame.json"),
    ("fit-frame-list", FIT, fit_files(frame="[1, 2]"), 2, "TypeError", ""),
    ("fit-frame-bool-basis", FIT,
     fit_files(frame=json.dumps({"p": [1, 0, 0], "basis": [[0, True, 0], [0, 0, True]]})),
     2, "ValueError", "'basis'"),
    ("fit-frame-bool-point", FIT,
     fit_files(frame=json.dumps({"p": [True, 0, 0], "basis": [[0, 1, 0], [0, 0, 1]]})),
     2, "ValueError", "'p'"),
    ("fit-frame-inf-basis", FIT,
     fit_files(frame=json.dumps({"p": [1, 0, 0], "basis": [[0, INF, 0], [0, 0, 1]]})),
     2, "ValueError", "finite"),
    *[(f"fit-{method}-frame-of-another-dimension", f"fit samples.csv --frame frame4.json "
       f"--method {method} --K 2 --q 0.3 --out fit",
       {"samples.csv": SAMPLES, "frame4.json": frame_file(4)}, 2, "DimensionMismatch", "")
      for method in ("kmeans", "kmodes")],
    ("fit-too-few-points-per-cluster", "fit tiny.csv --frame frame.json --K 3 --out fit",
     {"tiny.csv": "x0,x1,x2,label\n1,0,0,-1\n0,1,0,-1\n0,0,1,-1\n", "frame.json": frame_file()},
     3, "ClusterTooSmall", ""),
    *[(f"fit-{method}-{name}-row", f"fit bad.csv --frame frame.json --method {method} --K 2 "
       "--q 0.5 --out fit",
       {"bad.csv": f"x0,x1,x2,label\n1,0,0,-1\n0,1,0,-1\n{row},-1\n0,0,1,-1\n",
        "frame.json": frame_file()}, 2, "ValueError", "")
      for method in ("kmeans", "kmodes")
      for name, row in (("zero", "0,0,0"), ("nan", "nan,0,1"), ("1e308", "1e308,1e308,0"))],

    ("mw2-empty", MW2, {"bad.json": "", "good.json": mixture()}, 2, "ValueError", "bad.json"),
    ("mw2-deep-nesting", MW2, {"bad.json": DEEP, "good.json": mixture()},
     2, "ValueError", "bad.json"),
    ("mw2-list", MW2, {"bad.json": "[]", "good.json": mixture()}, 2, "TypeError", ""),
    ("mw2-null", MW2, {"bad.json": "null", "good.json": mixture()}, 2, "TypeError", ""),
    ("mw2-weights-object", MW2, {"bad.json": mixture(weights={"a": 1}), "good.json": mixture()},
     2, "TypeError", ""),
    ("mw2-cov-string", MW2, {"bad.json": one_component("x"), "good.json": mixture()}, 2, "ValueError", ""),
    ("mw2-ragged-cov", MW2, {"bad.json": one_component([[0.1], [0, 0.1]]), "good.json": mixture()},
     2, "ValueError", ""),
    ("mw2-nan-cov", MW2, {"bad.json": one_component([[NAN, 0], [0, 0.1]]), "good.json": mixture()},
     2, "ValueError", "finite"),
    ("mw2-minus-inf-cov", MW2, {"bad.json": one_component([[-INF, 0], [0, 0.1]]), "good.json": mixture()},
     2, "ValueError", "finite"),
    ("mw2-inf-basepoint", MW2,
     {"bad.json": one_component(GOOD["cov"], [INF, 0.6, 0.8]), "good.json": mixture()},
     2, "ValueError", "finite"),
    ("mw2-huge-integer", MW2, {"bad.json": one_component([[10**400, 0], [0, 1]]), "good.json": mixture()},
     2, "OverflowError", ""),
    ("mw2-1e308-weights", MW2,
     {"bad.json": mixture([GOOD, GOOD], [1e308, 1e308]), "good.json": mixture()},
     2, "ValueError", "probability"),
    ("mw2-bool-weights", MW2, {"bad.json": mixture(weights=[True]), "good.json": mixture()},
     2, "ValueError", "'weights'"),
    ("mw2-bool-frame-point", MW2, {"bad.json": mixture(frame=dict(FRAME, p=[True, False, False])),
                                   "good.json": mixture()}, 2, "ValueError", "'p'"),
    ("mw2-bool-cov", MW2, {"bad.json": one_component([[True, False], [False, True]]),
                           "good.json": mixture()}, 2, "ValueError", "'cov'"),
    ("mw2-zero-components", MW2, {"bad.json": mixture([], []), "good.json": mixture()},
     2, "ValueError", ""),
    ("mw2-missing-frame", MW2,
     {"bad.json": json.dumps({"weights": [1.0], "components": [GOOD]}), "good.json": mixture()},
     2, "KeyError", ""),
    ("mw2-other-frame", MW2, {"bad.json": mixture(frame=frame_to_dict(random_frame(
        [1.0, 0.0, 0.0], 5))), "good.json": mixture()}, 2, "FrameMismatch", ""),
    ("mw2-1e308-cov-big-small", "mw2 big.json small.json --out out",
     {"big.json": one_component([[1e308, 0.0], [0.0, 1e308]]), "small.json": mixture()},
     3, "FloatingPointError", ""),
    ("mw2-1e308-cov-big-big", "mw2 big.json big.json --out out",
     {"big.json": one_component([[1e308, 0.0], [0.0, 1e308]])}, 3, "FloatingPointError", ""),
    ("mw2-overflowing-asymmetry", "mw2 asym.json ok.json --out out",
     {"asym.json": one_component([[1.0, 1e308], [-1e308, 1.0]]), "ok.json": mixture()},
     2, "NotSymmetric", ""),
    ("mw2-1e308-basepoint", "mw2 bigbp.json ok.json --out out",
     {"bigbp.json": one_component(GOOD["cov"], [1e308, 1e308, 0.0]), "ok.json": mixture()},
     2, "ValueError", "too large"),
    *[(f"mw2-{name}", MW2, {"bad.json": mixture(components, weights), "good.json": mixture()},
       code, error, "")
      for name, components, weights, code, error in [
          ("asymmetric", [{"basepoint": [0.0, 0.6, 0.8], "cov": [[0.01, 0.5], [0.0, 0.02]]}],
           [1.0], 2, "NotSymmetric"),
          ("negative-eigenvalue",
           [{"basepoint": [0.0, 0.6, 0.8], "cov": [[-1.0, 0.0], [0.0, 0.02]]}],
           [1.0], 3, "DegenerateMatrix"),
          ("puncture", [{"basepoint": [-1.0, 0.0, 0.0], "cov": [[0.01, 0.0], [0.0, 0.02]]}],
           [1.0], 2, "ValueError"),
          ("short-basepoint", [{"basepoint": [0.0, 1.0], "cov": [[0.01, 0.0], [0.0, 0.02]]}],
           [1.0], 2, "DimensionMismatch"),
          ("missing-cov", [{"basepoint": [0.0, 0.6, 0.8]}], [1.0], 2, "KeyError"),
          ("second-asymmetric",
           [GOOD, {"basepoint": [0.0, 0.6, 0.8], "cov": [[0.01, 0.5], [0.0, 0.02]]}],
           [0.5, 0.5], 2, "NotSymmetric"),
          ("second-negative-eigenvalue",
           [GOOD, {"basepoint": [0.0, 0.6, 0.8], "cov": [[-1.0, 0.0], [0.0, 0.02]]}],
           [0.5, 0.5], 3, "DegenerateMatrix"),
          ("nan-weight", [GOOD], [NAN], 2, "ValueError"),
          ("ragged-basepoints",
           [GOOD, {"basepoint": [0.0, 0.0, 0.6, 0.8], "cov": [[0.01, 0.0], [0.0, 0.02]]}],
           [0.5, 0.5], 2, "DimensionMismatch"),
          ("ragged-covs",
           [GOOD, {"basepoint": [0.0, 0.6, 0.8], "cov": np.diag([0.01, 0.02, 0.03]).tolist()}],
           [0.5, 0.5], 2, "DimensionMismatch"),
      ]],

    ("distmat-no-mixture", "distmat empty --out d.csv", {"empty": None},
     2, "ValueError", "two mixture files"),
    ("distmat-empty-file", DISTMAT, {"mixes/a.json": mixture(), "mixes/b.json": ""},
     2, "ValueError", "b.json"),
    ("distmat-deep-nesting", DISTMAT, {"mixes/a.json": mixture(), "mixes/b.json": DEEP},
     2, "ValueError", "b.json"),
    ("distmat-nan-basepoint", DISTMAT,
     {"mixes/a.json": mixture(), "mixes/b.json": one_component(GOOD["cov"], [NAN, 0.6, 0.8])},
     2, "ValueError", "finite"),
    ("distmat-bool-basepoint", DISTMAT,
     {"mixes/a.json": mixture(), "mixes/b.json": one_component(GOOD["cov"], [False, True, False])},
     2, "ValueError", "'basepoint'"),
    ("distmat-bool-frame-basis", DISTMAT,
     {"mixes/a.json": mixture(), "mixes/b.json": mixture(
         frame=dict(FRAME, basis=[[False, True, False], [False, False, True]]))},
     2, "ValueError", "'basis'"),
    ("distmat-frame-mismatch", DISTMAT,
     {f"mixes/m{i}.json": json.dumps(dict(CONFIG["mixture"], frame=frame))
      for i, frame in enumerate([FRAME, FRAME, frame_to_dict(random_frame(
          [1.0, 0.0, 0.0], 5))])}, 2, "FrameMismatch", ""),
    ("distmat-1e308-cov", "distmat mixes --out out",
     {"mixes/big.json": one_component([[1e308, 0.0], [0.0, 1e308]]), "mixes/small.json": mixture()},
     3, "FloatingPointError", ""),

    *[(f"transport-{name}", TRANSPORT, {"cost.csv": text}, 2, "ValueError", "cost.csv")
      for name, text in (("empty", ""), ("blank", "\n\n\n"), ("comment-only", "# costs\n"),
                         ("ragged", "0,1\n1\n"), ("text", "0,1\n1,abc\n"))],
    *[(f"transport-{name}", TRANSPORT, {"cost.csv": f"0,{value}\n1,0\n"},
       2, "ValueError", "finite") for name, value in (("nan", "nan"), ("inf", "inf"),
                                                      ("minus-inf", "-inf"))],
    ("transport-1e308", TRANSPORT, {"cost.csv": "0,1e308\n1e308,0\n"},
     3, "FloatingPointError", ""),
    ("transport-short-marginal", "transport cost.csv --w0 0.5",
     {"cost.csv": lambda path: np.savetxt(path, np.eye(2), delimiter=",")},
     2, "ValueError", "--w0"),
    ("transport-nan-marginal", "transport cost.csv --w0 nan,nan --out plan.json",
     {"cost.csv": "0,1\n1,0\n"}, 2, "InfeasibleWeights", ""),
    ("transport-1e308-marginal", "transport cost.csv --w0 1e308,1e308 --out plan.json",
     {"cost.csv": "0,1\n1,0\n"}, 2, "InfeasibleWeights", "w0"),
    ("transport-text-marginal", "transport cost.csv --w0 a,b --out plan.json",
     {"cost.csv": "0,1\n1,0\n"}, 2, "ValueError", "--w0"),

    *[(f"changepoint-{name}", CHANGEPOINT, {"D.csv": text}, 2, "ValueError", message)
      for name, text, message in (
          ("empty", "", "D.csv"), ("comment-only", "# D\n", "D.csv"),
          ("ragged", "0,1\n1\n", "D.csv"), ("not-square", "0,1,2\n1,0,2\n", "square"),
          ("nonzero-diagonal", "1,1,1,1\n1,1,1,1\n1,1,1,1\n1,1,1,1\n", "diagonal"))],
    *[(f"changepoint-{name}", CHANGEPOINT, {"D.csv": distances(6, pair=pair)},
       2, "ValueError", message)
      for name, pair, message in (("nan", (NAN, NAN), "finite"), ("inf", (INF, INF), "finite"),
                                  ("negative", (-1.0, -1.0), "negative"))],
    ("changepoint-short-series", "changepoint D.csv --out cps.json",
     {"D.csv": distances(10, fill=0.0)}, 2, "SegmentTooSmall", ""),
    ("changepoint-overflowing-asymmetry", "changepoint D.csv --out cps.json",
     {"D.csv": distances(30, fill=0.0, pair=(1e308, -1e308))}, 2, "NotSymmetric", ""),
    ("changepoint-float-max", CHANGEPOINT, {"D.csv": distances(30, fill=1e308)},
     2, "ValueError", "float maximum"),

    *[(f"triangles-{name}", FORWARD, {"in.csv": text}, 2, "ValueError", message)
      for name, text, message in (
          ("empty", "", "in.csv"), ("comment-only", "# triangles\n", "in.csv"),
          ("ragged", "0,0,1,0,0,1\n0,0,1\n", "in.csv"), ("five-columns", "0,0,1,0,0\n", "six"),
          ("nan", "0,0,1,0,0,1\n0,nan,1,0,0,1\n", "finite"), ("inf", "0,0,inf,0,0,1\n", "finite"),
          ("overflowing-vertices", "x11,x12,x21,x22,x31,x32\n0,0,1e200,0,0,1e200\n", ""),
          ("1e308", "0,0,1e308,0,0,1e308\n", ""))],
    ("triangles-degenerate", FORWARD,
     {"in.csv": "x11,x12,x21,x22,x31,x32\n0,0,1,0,0,1\n2,2,2,2,2,2\n0,0,2,0,1,1.7\n"},
     3, "DegenerateTriangle", ""),
    *[(f"triangles-backward-{name}", BACKWARD, {"in.csv": text}, 2, "ValueError", message)
      for name, text, message in (
          ("empty", "", "in.csv"), ("short-row", "theta,phi\n0.1\n", "theta,phi"),
          ("four-columns", "0.5,0.1,0.1,0.1\n", "theta,phi"),
          ("theta-above-pi", "theta,phi\n0.5,0.1\n1.0,0.2\n3.2,0.3\n", "theta"),
          ("nan-theta", "theta,phi\nnan,0.1\n", "theta"),
          ("infinite-phi", "theta,phi\n0.5,inf\n", "finite"))],

    ("contours-missing-dir", "contours nowhere --out mixes", {}, 2, "FileNotFoundError", ""),
    ("contours-no-contour-file", "contours nothing --out mixes", {"nothing": None},
     2, "ValueError", "nothing"),
    *[(f"contours-{name}", CONTOURS, {"frames": write_frames, f"frames/{file}": text},
       2, "ValueError", file)
      for name, file, text in (("empty-first-json", "a0.json", "[]\n"),
                               ("empty-later-json", "z9.json", "[]\n"),
                               ("header-only-csv", "z9.csv", "x,y\n"),
                               ("empty-csv", "z9.csv", ""), ("comment-only-csv", "z9.csv", "# x\n"),
                               ("ragged-csv", "z9.csv", "x,y\n0,0\n1\n"),
                               ("empty-json", "z9.json", ""), ("deep-nesting", "z9.json", DEEP))],
    ("contours-json-object", CONTOURS, contours('{"a": 1}'), 2, "ValueError", ""),
    ("contours-json-null", CONTOURS, contours("null"), 2, "TypeError", ""),
    ("contours-three-rows", CONTOURS, contours("[[[0, 1, 0, 1], [0, 0, 1, 1], [1, 1, 1, 1]]]"),
     2, "ValueError", "2 x T"),
    ("contours-nan", CONTOURS, contours(json.dumps([circle(), circle()]).replace("1.0", "NaN", 1)),
     2, "ValueError", "finite"),
    ("contours-1e308", CONTOURS, contours(json.dumps([circle(1e308), circle()])),
     3, "FloatingPointError", ""),
    ("contours-zero-length", CONTOURS, contours(json.dumps([circle(0.0), circle()])),
     3, "DegenerateContour", ""),
    ("contours-too-few-points", CONTOURS, contours(json.dumps([[[0, 1], [0, 0]], circle()])),
     2, "ValueError", "4 boundary points"),
    # the first two frames fit; nothing of theirs may be written
    ("contours-later-frame-one-contour", CONTOURS, contours(json.dumps([circle()])),
     3, "ClusterTooSmall", ""),
]


@pytest.mark.parametrize("argv, files, code, error, message",
                         [row[1:] for row in CORPUS], ids=[row[0] for row in CORPUS])
def test_malformed_input(tmp_path, monkeypatch, capsys, argv, files, code, error, message):
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if content is None:
            path.mkdir()
        elif callable(content):
            content(path)
        else:
            path.write_text(content)
    before = sorted(tmp_path.rglob("*"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv.split()) == code
    # a warning would print a second stderr line from the console command
    assert caught == []
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    failure = json.loads(err)
    assert failure["error"] == error and message in failure["message"]
    assert code in (2, 3)
    assert issubclass(getattr(errors, error, None) or getattr(builtins, error), BaseException)
    assert sorted(tmp_path.rglob("*")) == before
