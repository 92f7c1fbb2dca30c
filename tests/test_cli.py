import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from bundlemw import cli, errors
from bundlemw.contours import (
    load_contour_dir,
    load_distmat,
    save_distmat,
    shape_statistics,
)
from bundlemw.gauss import GaussianMixture, load_mixture, save_mixture
from bundlemw.geometry import (
    Point,
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


@pytest.fixture
def workspace(tmp_path):
    frame = standard_frame(3)
    save_frame(tmp_path / "frame.json", frame)
    config = {
        "frame": frame_to_dict(frame),
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
    (tmp_path / "config.json").write_text(json.dumps(config))
    return tmp_path, config


def run(args):
    return cli.main([str(a) for a in args])


def run_console(tmp, *args):
    """Run the console command in ``tmp``: numpy's RuntimeWarnings go to the
    real stderr, which ``capsys`` does not see."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "bundlemw.cli", *args],
                          cwd=tmp, env=env, capture_output=True, text=True)


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

    def test_zero_n_rejected(self, workspace, capsys):
        tmp, config = workspace
        config["n"] = 0
        bad = tmp / "bad.json"
        bad.write_text(json.dumps(config))
        assert run(["simulate", bad, "--out", tmp / "s.csv"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "'n'" in err["message"]

    def test_malformed_json_reports_line(self, workspace, capsys):
        tmp, _ = workspace
        bad = tmp / "broken.json"
        bad.write_text('{"frame": [,]}')
        assert run(["simulate", bad, "--out", tmp / "s.csv"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "line 1" in err["message"]

    def test_missing_section_named(self, workspace, capsys):
        tmp, config = workspace
        del config["mixture"]
        bad = tmp / "nosection.json"
        bad.write_text(json.dumps(config))
        assert run(["simulate", bad, "--out", tmp / "s.csv"]) == 2
        assert "mixture" in json.loads(capsys.readouterr().err)["message"]


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

        monkeypatch.setattr("bundlemw.geometry.pairwise_geodesic", refuse)
        code = run(
            ["fit", tmp / "big.csv", "--frame", tmp / "frame.json",
             "--method", "kmodes", "--out", tmp / "fitkm"]
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "10000" in err["message"]

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

    def test_missing_frame_file(self, workspace, capsys):
        tmp, _ = workspace
        run(["simulate", tmp / "config.json", "--out", tmp / "samples.csv"])
        code = run(
            ["fit", tmp / "samples.csv", "--frame", tmp / "nope.json",
             "--K", "2", "--out", tmp / "fit"]
        )
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"

    def test_kmeans_requires_K(self, workspace, capsys):
        tmp, _ = workspace
        run(["simulate", tmp / "config.json", "--out", tmp / "samples.csv"])
        code = run(
            ["fit", tmp / "samples.csv", "--frame", tmp / "frame.json",
             "--out", tmp / "fit"]
        )
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("method", ["kmeans", "kmodes"])
    @pytest.mark.parametrize("bad_row", ["0,0,0", "nan,0,1"])
    def test_zero_or_nan_sample_row_rejected(self, workspace, capsys, method, bad_row):
        tmp, _ = workspace
        (tmp / "bad.csv").write_text(
            f"x0,x1,x2,label\n1,0,0,-1\n0,1,0,-1\n{bad_row},-1\n0,0,1,-1\n"
        )
        code = run(
            ["fit", tmp / "bad.csv", "--frame", tmp / "frame.json",
             "--method", method, "--K", "2", "--q", "0.5", "--out", tmp / "fit"]
        )
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ValueError"

    @pytest.mark.parametrize("method", ["kmeans", "kmodes"])
    def test_sample_row_whose_norm_overflows_exits_2(self, workspace, method):
        tmp, _ = workspace
        (tmp / "big.csv").write_text(
            "x0,x1,x2,label\n1,0,0,-1\n0,1,0,-1\n1e308,1e308,0,-1\n0,0,1,-1\n"
        )
        res = run_console(tmp, "fit", "big.csv", "--frame", "frame.json", "--method", method,
                          "--K", "2", "--q", "0.5", "--out", "fit")
        assert res.returncode == 2
        assert res.stdout == "" and res.stderr.count("\n") == 1
        assert json.loads(res.stderr)["error"] == "ValueError"
        assert not (tmp / "fit").exists()

    @pytest.mark.parametrize("method", ["kmeans", "kmodes"])
    def test_frame_of_another_dimension_rejected(self, workspace, capsys, method):
        tmp, _ = workspace
        run(["simulate", tmp / "config.json", "--out", tmp / "samples.csv"])
        save_frame(tmp / "frame4.json", standard_frame(4))
        capsys.readouterr()
        code = run(
            ["fit", tmp / "samples.csv", "--frame", tmp / "frame4.json",
             "--method", method, "--K", "2", "--q", "0.3", "--out", tmp / "fit"]
        )
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "DimensionMismatch"
        assert not (tmp / "fit").exists()

    def test_degenerate_cluster_is_numerical_failure(self, workspace, capsys):
        tmp, _ = workspace
        (tmp / "tiny.csv").write_text(
            "x0,x1,x2,label\n1,0,0,-1\n0,1,0,-1\n0,0,1,-1\n"
        )
        code = run(
            ["fit", tmp / "tiny.csv", "--frame", tmp / "frame.json",
             "--K", "3", "--out", tmp / "fit"]
        )
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "ClusterTooSmall"


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

    GOOD = {"basepoint": [0.0, 0.6, 0.8], "cov": [[0.01, 0.0], [0.0, 0.02]]}

    @pytest.mark.parametrize(
        "components, weights, code, error",
        [
            ([{"basepoint": [0.0, 0.6, 0.8], "cov": [[0.01, 0.5], [0.0, 0.02]]}],
             [1.0], 2, "NotSymmetric"),
            ([{"basepoint": [0.0, 0.6, 0.8], "cov": [[-1.0, 0.0], [0.0, 0.02]]}],
             [1.0], 3, "DegenerateMatrix"),
            ([{"basepoint": [-1.0, 0.0, 0.0], "cov": [[0.01, 0.0], [0.0, 0.02]]}],
             [1.0], 2, "ValueError"),
            ([{"basepoint": [0.0, 1.0], "cov": [[0.01, 0.0], [0.0, 0.02]]}],
             [1.0], 2, "DimensionMismatch"),
            ([{"basepoint": [0.0, 0.6, 0.8]}], [1.0], 2, "KeyError"),
            ([GOOD, {"basepoint": [0.0, 0.6, 0.8], "cov": [[0.01, 0.5], [0.0, 0.02]]}],
             [0.5, 0.5], 2, "NotSymmetric"),
            ([GOOD, {"basepoint": [0.0, 0.6, 0.8], "cov": [[-1.0, 0.0], [0.0, 0.02]]}],
             [0.5, 0.5], 3, "DegenerateMatrix"),
            ([GOOD], [float("nan")], 2, "ValueError"),
            ([GOOD, {"basepoint": [0.0, 0.0, 0.6, 0.8], "cov": [[0.01, 0.0], [0.0, 0.02]]}],
             [0.5, 0.5], 2, "DimensionMismatch"),
            ([GOOD, {"basepoint": [0.0, 0.6, 0.8], "cov": np.diag([0.01, 0.02, 0.03]).tolist()}],
             [0.5, 0.5], 2, "DimensionMismatch"),
        ],
        ids=["asymmetric", "negative-eigenvalue", "puncture", "short-basepoint", "missing-cov",
             "second-asymmetric", "second-negative-eigenvalue", "nan-weight",
             "ragged-basepoints", "ragged-covs"],
    )
    def test_malformed_mixture_file(self, workspace, capsys, components, weights, code, error):
        tmp, config = workspace
        good, bad = tmp / "good.json", tmp / "bad.json"
        good.write_text(json.dumps(
            {"frame": config["frame"], "weights": [1.0], "components": [self.GOOD]}))
        bad.write_text(json.dumps(
            {"frame": config["frame"], "weights": weights, "components": components}))
        assert run(["mw2", bad, good]) == code
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert json.loads(err)["error"] == error

    def test_non_unit_basepoints_accepted(self, workspace, capsys):
        tmp, config = workspace
        for name, point in (("a", [0.0, 0.6, 0.8]), ("b", [0.0, 3.0, 4.0])):
            comp = {"basepoint": point, "cov": self.GOOD["cov"]}
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

    def test_distmat_frame_mismatch_exits_2(self, workspace, capsys):
        tmp, config = workspace
        mixdir = tmp / "mixes"
        mixdir.mkdir()
        other = frame_to_dict(random_frame(Point([1.0, 0.0, 0.0]), 5))
        for i, frame in enumerate([config["frame"], config["frame"], other]):
            mix = dict(config["mixture"], frame=frame)
            (mixdir / f"m{i}.json").write_text(json.dumps(mix))
        assert run(["distmat", mixdir, "--out", tmp / "d.csv"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "FrameMismatch"

    @pytest.mark.parametrize(
        "args",
        [["mw2", "big.json", "small.json"], ["mw2", "big.json", "big.json"],
         ["distmat", "mixes"]],
        ids=["mw2-big-small", "mw2-big-big", "distmat"],
    )
    def test_overflow_exits_3(self, workspace, args):
        tmp, config = workspace
        (tmp / "mixes").mkdir()
        for name, cov in (("big", [[1e308, 0.0], [0.0, 1e308]]), ("small", self.GOOD["cov"])):
            text = json.dumps({"frame": config["frame"], "weights": [1.0],
                               "components": [{"basepoint": self.GOOD["basepoint"], "cov": cov}]})
            (tmp / f"{name}.json").write_text(text)
            (tmp / "mixes" / f"{name}.json").write_text(text)
        res = run_console(tmp, *args, "--out", "out")
        assert res.returncode == 3
        assert res.stderr.count("\n") == 1
        assert json.loads(res.stderr)["error"] == "FloatingPointError"
        assert not (tmp / "out").exists()

    def test_overflowing_asymmetry_exits_2(self, workspace):
        # S - S.T overflows to inf, which is asymmetric, not a numerical failure
        tmp, config = workspace
        for name, cov in (("asym", [[1.0, 1e308], [-1e308, 1.0]]), ("ok", self.GOOD["cov"])):
            (tmp / f"{name}.json").write_text(json.dumps(
                {"frame": config["frame"], "weights": [1.0],
                 "components": [{"basepoint": self.GOOD["basepoint"], "cov": cov}]}))
        res = run_console(tmp, "mw2", "asym.json", "ok.json", "--out", "out")
        assert res.returncode == 2
        assert res.stdout == "" and res.stderr.count("\n") == 1
        assert json.loads(res.stderr)["error"] == "NotSymmetric"
        assert not (tmp / "out").exists()

    def test_basepoint_whose_norm_overflows_exits_2(self, workspace):
        tmp, config = workspace
        (tmp / "bigbp.json").write_text(json.dumps(
            {"frame": config["frame"], "weights": [1.0],
             "components": [{"basepoint": [1e308, 1e308, 0.0], "cov": self.GOOD["cov"]}]}))
        (tmp / "ok.json").write_text(json.dumps(
            {"frame": config["frame"], "weights": [1.0], "components": [self.GOOD]}))
        res = run_console(tmp, "mw2", "bigbp.json", "ok.json", "--out", "out")
        assert res.returncode == 2
        assert res.stdout == "" and res.stderr.count("\n") == 1
        assert json.loads(res.stderr)["error"] == "ValueError"
        assert not (tmp / "out").exists()

    def test_distmat_needs_two_mixtures(self, workspace, capsys):
        tmp, _ = workspace
        empty = tmp / "empty"
        empty.mkdir()
        assert run(["distmat", empty, "--out", tmp / "d.csv"]) == 2
        capsys.readouterr()


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

    def test_bad_marginals(self, workspace, capsys):
        tmp, _ = workspace
        np.savetxt(tmp / "cost.csv", np.eye(2), delimiter=",")
        assert run(["transport", tmp / "cost.csv", "--w0", "0.5"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("text", ["", "\n\n\n", "# costs\n"],
                             ids=["empty", "blank", "comment"])
    def test_cost_file_without_data(self, workspace, capsys, text):
        tmp, _ = workspace
        (tmp / "cost.csv").write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["transport", tmp / "cost.csv", "--out", tmp / "plan.json"]) == 2
        assert caught == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(tmp / "cost.csv") in json.loads(err[0])["message"]
        assert not (tmp / "plan.json").exists()

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

    def test_short_series_rejected(self, workspace, capsys):
        tmp, _ = workspace
        D = np.zeros((10, 10))
        save_distmat(tmp / "D.csv", D)
        assert run(["changepoint", tmp / "D.csv"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "SegmentTooSmall"

    def test_overflowing_asymmetry_exits_2(self, workspace):
        tmp, _ = workspace
        D = np.zeros((30, 30))
        D[0, 1], D[1, 0] = 1e308, -1e308
        save_distmat(tmp / "D.csv", D)
        res = run_console(tmp, "changepoint", "D.csv", "--out", "cps.json")
        assert res.returncode == 2
        assert res.stdout == "" and res.stderr.count("\n") == 1
        assert json.loads(res.stderr)["error"] == "NotSymmetric"
        assert not (tmp / "cps.json").exists()

    def test_distances_near_the_float_max_exit_2(self, workspace):
        tmp, _ = workspace
        D = np.full((30, 30), 1e308)
        np.fill_diagonal(D, 0.0)
        save_distmat(tmp / "D.csv", D)
        res = run_console(tmp, "changepoint", "D.csv", "--min-size", "2", "--R", "19",
                          "--out", "cps.json")
        assert res.returncode == 2
        assert res.stdout == "" and res.stderr.count("\n") == 1
        err = json.loads(res.stderr)
        assert err["error"] == "ValueError" and "float maximum" in err["message"]
        assert not (tmp / "cps.json").exists()


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

    def test_bad_angle_rows(self, workspace, capsys):
        tmp, _ = workspace
        (tmp / "angles.csv").write_text("theta,phi\n0.1\n")
        code = run(
            ["triangles", tmp / "angles.csv", "--mode", "backward",
             "--out", tmp / "t.csv"]
        )
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "mode, rows, code, error",
        [
            # a degenerate triangle in row 2 of 3
            ("forward", "x11,x12,x21,x22,x31,x32\n0,0,1,0,0,1\n2,2,2,2,2,2\n0,0,2,0,1,1.7\n",
             3, "DegenerateTriangle"),
            ("forward", "0,0,1,0,0,1\n0,nan,1,0,0,1\n", 2, "ValueError"),
            ("backward", "theta,phi\n0.5,0.1\n1.0,0.2\n3.2,0.3\n", 2, "ValueError"),
        ],
    )
    def test_failing_row_writes_no_output(self, workspace, capsys, mode, rows, code, error):
        tmp, _ = workspace
        (tmp / "in.csv").write_text(rows)
        assert run(["triangles", tmp / "in.csv", "--mode", mode, "--out", tmp / "out.csv"]) == code
        assert json.loads(capsys.readouterr().err)["error"] == error
        assert not (tmp / "out.csv").exists()

    @pytest.mark.parametrize(
        "mode, rows",
        [
            ("backward", "theta,phi\n0.5,inf\n"),
            ("forward", "x11,x12,x21,x22,x31,x32\n0,0,1e200,0,0,1e200\n"),
        ],
        ids=["infinite-phi", "overflowing-vertices"],
    )
    def test_nonfinite_rows_print_one_stderr_line(self, workspace, mode, rows):
        tmp, _ = workspace
        (tmp / "in.csv").write_text(rows)
        res = run_console(tmp, "triangles", "in.csv", "--mode", mode, "--out", "out.csv")
        assert res.returncode == 2
        assert res.stderr.count("\n") == 1
        assert json.loads(res.stderr)["error"] == "ValueError"

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
    def make_frames(self, tmp, n_frames=2, per_frame=3, seed=0):
        from bundlemw.contours import Contour, save_contours_json

        rng = np.random.default_rng(seed)
        fdir = tmp / "frames"
        fdir.mkdir()
        t = np.linspace(0, 2 * np.pi, 40, endpoint=False)
        for f in range(n_frames):
            cs = []
            for _ in range(per_frame):
                r = 1.0 + 0.05 * rng.standard_normal()
                cs.append(
                    Contour(
                        np.vstack([r * np.cos(t), (1 + 0.3 * f) * r * np.sin(t)])
                    )
                )
            save_contours_json(fdir / f"t{f}.json", cs)
        return fdir

    def test_per_frame_mixtures_share_frame(self, workspace, capsys):
        tmp, _ = workspace
        fdir = self.make_frames(tmp)
        out = tmp / "mixes"
        assert run(["contours", fdir, "--T", "30", "--out", out]) == 0
        capsys.readouterr()
        m0 = load_mixture(out / "t0.json")
        m1 = load_mixture(out / "t1.json")
        assert m0.K == 1 and m1.K == 1
        assert frames_equal(m0.frame, m1.frame)
        assert m0.frame.p.dim == 60
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
        fdir = self.make_frames(tmp, n_frames=6, seed=1)
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

    def test_empty_dir(self, workspace, capsys):
        tmp, _ = workspace
        empty = tmp / "nothing"
        empty.mkdir()
        assert run(["contours", empty, "--out", tmp / "out"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "name, text",
        [("a0.json", "[]\n"), ("z9.json", "[]\n"), ("z9.csv", "x,y\n")],
        ids=["empty-first-json", "empty-later-json", "header-only-csv"],
    )
    def test_frame_without_contours(self, workspace, capsys, name, text):
        tmp, _ = workspace
        fdir = self.make_frames(tmp)
        (fdir / name).write_text(text)
        out = tmp / "mixes"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["contours", fdir, "--T", "30", "--out", out]) == 2
        assert caught == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and name in json.loads(err[0])["message"]
        assert not out.exists()

    @pytest.mark.parametrize("seed", [0, 3])
    def test_mixtures_equal_per_shape_reference(self, workspace, capsys, seed):
        tmp, _ = workspace
        fdir = self.make_frames(tmp, n_frames=3, per_frame=4, seed=seed)
        assert run(["contours", fdir, "--T", "30", "--out", tmp / "mixes"]) == 0
        capsys.readouterr()
        frame = standard_frame(60)
        frames = load_contour_dir(fdir)
        shapes = {n: [loop_contour_to_srvf(c.points, 30) for c in cs] for n, cs in frames.items()}
        reference = shapes["t0"][0]
        for name, qs in shapes.items():
            aligned = np.array([loop_align_shape(reference, q) for q in qs])
            mean = frechet_mean(aligned.reshape(len(qs), -1))
            _, cov = shape_statistics(aligned, mean.coords.reshape(2, 30), frame)
            mix = GaussianMixture([1.0], mean.coords[None], cov[None], frame)
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

    def test_every_package_error_has_one_exit_code(self):
        classes = [c for c in vars(errors).values()
                   if isinstance(c, type) and issubclass(c, errors.BundleMWError)
                   and c is not errors.BundleMWError]
        assert len(classes) >= 13
        for c in classes:
            assert (c in cli._NUMERICAL_ERRORS) + (c in cli._VALIDATION_ERRORS) == 1, c
