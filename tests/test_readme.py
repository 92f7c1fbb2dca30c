"""The Python quick start and the triangles commands in README.md run as
written and give what the README says."""

import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from bundlemw import cli
from bundlemw.geometry import pairwise_geodesic
from bundlemw.triangles import hopf_forward, load_triangles, save_triangles, triangle_preshape

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    section = README.read_text(encoding="utf-8").split("## Quick start (Python)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ns = {}
    exec(compile(code, str(README), "exec"), ns)
    assert ns["result"].distance == pytest.approx(0.40427, abs=1e-5)
    assert ns["mw2"](ns["estimate"], ns["mix1"]).distance < 0.05


def test_triangles_round_trip_runs(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("### triangles", 1)[1]
    commands = re.search(r"```sh\n(.*?)```", section, re.S).group(1).splitlines()
    rng = np.random.default_rng(0)
    triangles = rng.standard_normal((20, 3, 2))
    save_triangles(tmp_path / "triangles.csv", triangles)
    monkeypatch.chdir(tmp_path)
    for line in commands:
        program, *args = shlex.split(line)
        assert program == "bundlemw"
        assert cli.main(args) == 0
    rebuilt = load_triangles(tmp_path / "rebuilt.csv")
    assert rebuilt.shape == triangles.shape
    Y0, Y1 = (hopf_forward(triangle_preshape(V)) for V in (triangles, rebuilt))
    assert np.max(np.diag(pairwise_geodesic(Y0, Y1))) <= 1e-9
