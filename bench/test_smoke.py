"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest bench/test_smoke.py

Every workload must print exactly the metrics of BENCHMARK.json with their
units and pass every output check at two seeds; the traced contour run must
count one Bures batch per pair of frames, all of them in pool workers; and
without the program's sources the benchmark must fail without a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path.insert(0, str(BENCH))
from workloads import SIZES  # noqa: E402


def bench(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(res):
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, res.stderr
    return out["metrics"]


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_checks(workload, seed):
    metrics = result(bench(workload, seed, 0))
    assert units(metrics) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    metrics = result(bench(workload, 5, 1))
    assert units(metrics) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    if workload == "contour_cp":
        n = SIZES["smoke"]["contour_cp"]["frames"]
        assert metrics["gauss.pairwise_w2sq.calls"]["value"] == n * (n - 1) / 2
        assert metrics["cli.distmat.worker_busy_s"]["value"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    res = bench(WORKLOADS[0], 1, 0, cwd=tmp_path)
    assert res.returncode != 0
    assert not res.stdout.strip()
