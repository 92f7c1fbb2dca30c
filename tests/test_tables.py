"""The CSV table files: exact bytes written, the arrays read back from every
layout the readers accept, and one typed error for a malformed table."""

import json

import numpy as np
import pytest

from bundlemw import cli
from bundlemw.contours import load_contour_file, load_distmat, save_distmat
from bundlemw.sampling import load_samples, save_samples
from bundlemw.transport import solve_transportation
from bundlemw.triangles import load_angles, load_triangles, save_sphere_points, save_triangles

X = np.array([[0.1, -0.0, 1.0], [1e-300, 2.5, -1 / 3]])
V = np.array([[[0, 0], [1, 0], [0.5, 0.1]], [[-1 / 3, 2], [1e10, -0.0], [3, 7e-5]]])
D = np.array([[0, 1 / 3], [1 / 3, 0]])

GOLDEN = {
    "samples-labels": (
        lambda p: save_samples(p, X, [0, 2]),
        b"x0,x1,x2,label\r\n0.10000000000000001,-0,1,0\r\n"
        b"1e-300,2.5,-0.33333333333333331,2\r\n",
    ),
    "samples": (
        lambda p: save_samples(p, X),
        b"x0,x1,x2,label\r\n0.10000000000000001,-0,1,-1\r\n"
        b"1e-300,2.5,-0.33333333333333331,-1\r\n",
    ),
    "triangles": (
        lambda p: save_triangles(p, V),
        b"x11,x12,x21,x22,x31,x32\r\n0,0,1,0,0.5,0.10000000000000001\r\n"
        b"-0.33333333333333331,2,10000000000,-0,3,6.9999999999999994e-05\r\n",
    ),
    "sphere": (
        lambda p: save_sphere_points(p, np.array([[0.6, 0, -0.8], [0, -0.0, 1]])),
        b"theta,phi,x,y,z\n2.4980915447965089,0,0.59999999999999998,0,-0.80000000000000004\n"
        b"0,-0,0,-0,1\n",
    ),
    "distmat-names": (
        lambda p: save_distmat(p, D, names=["f0", "f1"]),
        b",f0,f1\nf0,0,0.33333333333333331\nf1,0.33333333333333331,0\n",
    ),
    "distmat": (
        lambda p: save_distmat(p, D),
        b"0,0.33333333333333331\n0.33333333333333331,0\n",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_written_bytes(tmp_path, case):
    save, expected = GOLDEN[case]
    save(tmp_path / "table.csv")
    assert (tmp_path / "table.csv").read_bytes() == expected


SQUARE = np.array([[0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0]])


def contour(path):
    return (load_contour_file(path)[0].points,)


# (reader, file text, the arrays it gives)
ACCEPTED = {
    "samples-header": (
        load_samples, "x0,x1,label\r\n0.5,-1,2\r\n1e-3,0,-1\r\n",
        ([[0.5, -1.0], [1e-3, 0.0]], [2, -1]),
    ),
    "samples-no-header": (
        load_samples, "0.5,-1,2\n1e-3,0,-1\n", ([[0.5, -1.0], [1e-3, 0.0]], [2, -1]),
    ),
    "angles-theta-phi": (
        lambda p: (load_angles(p),), "theta,phi\n0.5,1.0\n0.6,1.1,2.0\n",
        ([[0.5, 1.0, 0.0], [0.6, 1.1, 2.0]],),
    ),
    "angles-comment-header": (
        lambda p: (load_angles(p),), "# theta,phi,psi\n0.5,1.0,0.25\n0.6,1.1\n",
        ([[0.5, 1.0, 0.25], [0.6, 1.1, 0.0]],),
    ),
    "angles-sphere-header": (
        lambda p: (load_angles(p),), "theta,phi,x,y,z\n0.5,1.0,0,0,1\n0.25,-2,1,0,0\n",
        ([[0.5, 1.0, 0.0], [0.25, -2.0, 0.0]],),
    ),
    "distmat-names": (
        load_distmat, ",a,b\na,0,0.5\nb,0.5,0\n", ([[0.0, 0.5], [0.5, 0.0]], ["a", "b"]),
    ),
    "distmat-names-with-hash": (
        load_distmat, ",#a,b#c\n#a,0,0.5\nb#c,0.5,0\n",
        ([[0.0, 0.5], [0.5, 0.0]], ["#a", "b#c"]),
    ),
    "distmat-no-names": (
        load_distmat, "0,0.5\n0.5,0\n", ([[0.0, 0.5], [0.5, 0.0]], []),
    ),
    "distmat-numeric-names": (
        load_distmat, ",001,002\n001,0,0.5\n002,0.5,0\n",
        ([[0.0, 0.5], [0.5, 0.0]], ["001", "002"]),
    ),
    "contour-header": (
        contour, "x,y\n0,0\n1,0\n1,1\n0,1\n", (SQUARE,),
    ),
    "contour-no-header": (
        contour, "0,0\n1,0\n1,1\n0,1\n", (SQUARE,),
    ),
    "contour-comment-header": (
        contour, "# x,y\n0,0\n1,0\n1,1\n0,1\n", (SQUARE,),
    ),
}


@pytest.mark.parametrize("case", sorted(ACCEPTED))
def test_accepted_layouts_read_the_same_arrays(tmp_path, case):
    reader, text, expected = ACCEPTED[case]
    path = tmp_path / "table.csv"
    path.write_text(text, encoding="utf-8", newline="")
    got = reader(path)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        if isinstance(a, list):
            assert a == b
        else:
            assert a.shape == np.shape(b) and np.array_equal(a, b)


def run(args):
    return cli.main([str(a) for a in args])


def test_cost_file_with_a_comment_line(tmp_path, capsys):
    C = np.array([[0.0, 2.0, 1.0], [3.0, 0.5, 0.0]])
    (tmp_path / "cost.csv").write_text("# costs\n0,2,1\n\n3,0.5,0\n")
    assert run(["transport", tmp_path / "cost.csv", "--out", tmp_path / "plan.json"]) == 0
    plan = solve_transportation(C, np.full(2, 0.5), np.full(3, 1 / 3))
    payload = json.loads((tmp_path / "plan.json").read_text())
    assert payload["cost"] == plan.cost and payload["plan"] == plan.matrix.tolist()
    capsys.readouterr()


def test_blank_and_comment_lines_are_skipped(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("# drawn by hand\nx0,x1,label\n\n0.5,-1,2\n  # more\n1e-3,0,-1\n\n")
    X, labels = load_samples(path)
    assert np.array_equal(X, [[0.5, -1.0], [1e-3, 0.0]]) and np.array_equal(labels, [2, -1])
    path = tmp_path / "triangles.csv"
    path.write_text("x11,x12,x21,x22,x31,x32\n\n0,0,1,0,0,1\n\n")
    assert np.array_equal(load_triangles(path), [[[0, 0], [1, 0], [0, 1]]])


def test_byte_order_mark_is_not_a_header(tmp_path):
    path = tmp_path / "distmat.csv"
    path.write_bytes(b"\xef\xbb\xbf0,0.5\n0.5,0\n")
    D, names = load_distmat(path)
    assert np.array_equal(D, [[0.0, 0.5], [0.5, 0.0]]) and names == []


def _stderr_message(capsys, path):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    message = json.loads(err[0])["message"]
    assert str(path) in message and "inhomogeneous" not in message
    return message


def test_trailing_comment_after_numbers_is_rejected(tmp_path, capsys):
    cost = tmp_path / "cost.csv"
    cost.write_text("0,1 # the first row\n1,0\n")
    assert run(["transport", cost, "--out", tmp_path / "plan.json"]) == 2
    assert "line 1" in _stderr_message(capsys, cost)
    assert not (tmp_path / "plan.json").exists()
    contour = tmp_path / "frame.csv"
    contour.write_text("x,y\n0,0\n1,0  # corner\n1,1\n0,1\n")
    with pytest.raises(ValueError, match="line 3"):
        load_contour_file(contour)


MALFORMED = {
    "samples-ragged": ("fit", "0.5,-1,2\n0.5,1\n"),
    "samples-text": ("fit", "x0,x1,label\n0.5,-1,2\n0.5,one,1\n"),
    "distmat-ragged": ("changepoint", "0,1\n1,0,2\n"),
    "distmat-names-ragged": ("changepoint", ",a,b\na,0,1\nb,1\n"),
    "distmat-text": ("changepoint", "0,1\n1,zero\n"),
    "cost-ragged": ("transport", "0,1\n1\n"),
    "cost-text": ("transport", "0,1\n1,x\n"),
    # a first row with a number in it is data, so its typo is no header
    "cost-text-first-row": ("transport", "0,x\n1,0\n2,5\n"),
    "samples-text-first-row": ("fit", "0.5,-l,2\n0.5,-1,2\n1e-3,0,-1\n"),
    "samples-header-with-numbers": ("fit", "0,1,label\n0.5,-1,2\n1e-3,0,-1\n"),
    "triangles-ragged": ("triangles", "0,0,1,0,0,1\n0,0,1,0\n"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_table_exits_2_naming_the_file(tmp_path, capsys, case):
    command, text = MALFORMED[case]
    path = tmp_path / "table.csv"
    path.write_text(text)
    frame = tmp_path / "frame.json"
    frame.write_text('{"p": [1, 0, 0], "basis": [[0, 1, 0], [0, 0, 1]]}')
    extra = {"fit": ["--frame", frame, "--K", "1", "--out", tmp_path],
             "triangles": ["--out", tmp_path / "out.csv"]}.get(command, [])
    assert run([command, path, *extra]) == 2
    _stderr_message(capsys, path)
