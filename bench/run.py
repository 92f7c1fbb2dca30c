"""Benchmark of the bundlemw command-line pipelines.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It generates the workload's inputs from
the seed, then runs whole pipeline passes for S seconds.  Every stage is its
own ``python -m bundlemw.cli`` process with one BLAS thread, timed for wall
time, CPU time and peak RSS (both including ``--jobs`` workers).  The first
pass's outputs are checked against references that never import bundlemw;
every later pass must reproduce them byte for byte.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` (stage
runs, setup probes and output checks) and ``metrics``, the end-to-end
metrics of BENCHMARK.json with ``--trace 0`` and its per-layer metrics with
``--trace 1``.  The traced run alternates plain passes with passes run
through ``traced.py`` and reports the per-layer numbers of the traced ones.
NOTES.md says how each number is reduced over the passes of a run.

This process imports no numpy: a child's peak RSS counts what it inherits
at exec, so the process that starts the stages stays small.  Input
generation and the reference checks run as child processes of their own.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import traced  # noqa: E402  (plain Python; imports nothing of bundlemw)

BENCH = Path(__file__).resolve().parent
PROBES_PER_PASS = 3
MIN_PASSES = 2
# every process is killed once the run has lasted this long, so that a run
# ends within 180 s
RUN_LIMIT_S = 170
JOBS = min(2, len(os.sched_getaffinity(0)))
STAGE_METRICS = ("contours_s", "distmat_s", "fit_kmeans_s", "fit_kmodes_s",
                 "transport_s", "triangles_s")


def stages(workload: str, m: dict) -> list[tuple[str | None, list[str]]]:
    """(stage metric, CLI arguments) of one pass, relative to the run directory."""
    if workload == "contour_cp":
        return [
            ("contours_s", ["contours", "in/frames", "--T", str(m["T"]), "--out", "out/mix"]),
            ("distmat_s", ["distmat", "out/mix", "--jobs", str(JOBS), "--out", "out/distmat.csv"]),
            (None, ["changepoint", "out/distmat.csv", "--min-size", "8",
                    "--out", "out/report.json"]),
        ]
    if workload == "mixture_lp":
        a, b = m["mw2_pair"]
        return [
            ("distmat_s", ["distmat", "in/mix", "--jobs", "1", "--out", "out/distmat.csv"]),
            (None, ["changepoint", "out/distmat.csv", "--min-size", "8",
                    "--out", "out/report.json"]),
            ("transport_s", ["transport", "in/cost.csv", "--w0", m["w0"], "--w1", m["w1"],
                             "--out", "out/transport.json"]),
            (None, ["mw2", f"in/mix/{a}.json", f"in/mix/{b}.json", "--out", "out/plan.json"]),
        ]
    if workload == "sim_fit":
        fit = ["fit", "out/samples.csv", "--frame", "in/frame.json"]
        return [
            (None, ["simulate", "in/config.json", "--out", "out/samples.csv"]),
            ("fit_kmeans_s", fit + ["--method", "kmeans", "--K", str(m["K"]), "--seed", "0",
                                    "--out", "out/fit_kmeans"]),
            ("fit_kmodes_s", fit + ["--method", "kmodes", "--out", "out/fit_kmodes"]),
            (None, ["mw2", "out/fit_kmeans/mixture.json", "in/truth.json",
                    "--out", "out/mw2_kmeans.json"]),
            (None, ["mw2", "out/fit_kmodes/mixture.json", "in/truth.json",
                    "--out", "out/mw2_kmodes.json"]),
            ("triangles_s", ["triangles", "in/angles.csv", "--mode", "backward",
                             "--out", "out/triangles.csv"]),
            ("triangles_s", ["triangles", "out/triangles.csv", "--mode", "forward",
                             "--out", "out/sphere.csv"]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


class Run:
    """One benchmark run: a scratch directory, the stage environment and
    the tally of attempted and failed stage runs and checks."""

    def __init__(self, root: Path, workdir: Path):
        self.dir = workdir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
                        OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", TMPDIR=str(workdir))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def time_left(self) -> float:
        return max(self.deadline - time.monotonic(), 1.0)

    def helper(self, script: str, *args: str) -> str:
        """Run one of the benchmark's own numpy scripts; return its stdout."""
        res = subprocess.run([sys.executable, str(BENCH / script), *args], cwd=self.dir,
                             env=self.env, capture_output=True, text=True,
                             timeout=self.time_left())
        if res.returncode != 0:
            raise RuntimeError(f"{script} failed: {res.stderr.strip()[-2000:]}")
        return res.stdout

    def process(self, argv: list[str], log: Path) -> dict:
        """Run one process to completion: wall, CPU (its own and its reaped
        children's) and peak RSS from wait4."""
        with open(log.with_suffix(".out"), "wb") as out, \
                open(log.with_suffix(".err"), "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.dir, env=self.env, stdout=out, stderr=err,
                                    start_new_session=True)
            timer = threading.Timer(self.time_left(), _kill_group, (proc.pid,))
            timer.start()
            _, status, ru = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"rc": proc.returncode, "wall": wall, "cpu": ru.ru_utime + ru.ru_stime,
                "rss_mb": ru.ru_maxrss / 1024.0}

    def setup_probe(self) -> float:
        rec = self.process([sys.executable, "-m", "bundlemw.cli", "--help"], self.dir / "probe")
        self.check(rec["rc"] == 0, "setup probe exited nonzero")
        return rec["wall"]

    def run_pass(self, plan, traced_pass: bool) -> list[dict] | None:
        """One pipeline pass into out/; None when a stage failed."""
        for sub in ("out", "log", "spans"):
            shutil.rmtree(self.dir / sub, ignore_errors=True)
            (self.dir / sub).mkdir()
        records = []
        for i, (metric, args) in enumerate(plan):
            spans = self.dir / "spans" / str(i)
            if traced_pass:
                spans.mkdir()
                argv = [sys.executable, str(BENCH / "traced.py"), str(spans), *args]
            else:
                argv = [sys.executable, "-m", "bundlemw.cli", *args]
            rec = self.process(argv, self.dir / "log" / f"{i:02d}")
            rec.update(metric=metric, args=args, spans=spans)
            records.append(rec)
            if not self.check(rec["rc"] == 0, f"stage {' '.join(args)} exited {rec['rc']}"):
                return None
        return records

    def digest(self) -> dict:
        """sha256 of every output file and every stage's stdout."""
        files = sorted(p for sub in ("out", "log") for p in (self.dir / sub).rglob("*")
                       if p.is_file() and p.suffix != ".err")
        return {str(p.relative_to(self.dir)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in files}

    def verify(self, reference_digest: dict | None) -> dict:
        """Check the pass just run: against the references the first time,
        byte for byte against the first pass afterwards."""
        digest = self.digest()
        if reference_digest is None:
            try:
                checks = json.loads(self.helper("reference.py", "in", "out"))
            except RuntimeError as exc:  # outputs the references cannot read
                checks = [{"name": "reference", "ok": False, "detail": str(exc)}]
            for c in checks:
                self.check(c["ok"], f"{c['name']}: {c['detail']}")
            return digest
        self.check(digest == reference_digest, "outputs differ from the first pass: "
                   + ", ".join(k for k in digest if digest[k] != reference_digest.get(k)))
        return reference_digest


def _vm_hwm_mb() -> float:
    """High-water RSS of this process's own memory, not counting what its
    ru_maxrss inherited at exec."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def layer_metrics(records: list[dict]) -> dict:
    """Per-layer metrics of one traced pass."""
    values = dict.fromkeys(traced.metric_names(), 0.0)
    import_s = busy = distmat_wall = 0.0
    for rec in records:
        stage, main_s = traced.summarize(sorted(rec["spans"].glob("spans-*.json")))
        busy += stage.pop("worker_busy_s", 0.0)
        for k, v in stage.items():
            values[k] = values.get(k, 0.0) + v
        import_s += rec["wall"] - main_s
        if rec["args"][0] == "distmat" and rec["args"][rec["args"].index("--jobs") + 1] != "1":
            distmat_wall += rec["wall"]
    values["cli.import_s"] = import_s
    values["cli.distmat.worker_busy_s"] = busy
    values["cli.distmat.parallel_eff"] = busy / (JOBS * distmat_wall) if distmat_wall else 0.0
    return values


def _median_of(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def _fastest_sum(passes: list[list[dict]], field: str) -> float:
    """Stage by stage, the fastest run among the passes, added up.

    Other tenants of a shared host only ever slow a stage down, and they
    change its speed by up to 2x within seconds, so each stage's fastest
    run is the steadiest estimate of what the stage itself costs."""
    return sum(min(p[i][field] for p in passes) for i in range(len(passes[0])))


def _stage_times(records: list[dict]) -> dict:
    per_stage = dict.fromkeys(STAGE_METRICS, 0.0)
    for rec in records:
        if rec["metric"]:
            per_stage[rec["metric"]] += rec["wall"]
    return per_stage


def measure(run: Run, workload: str, seconds: float, trace: bool) -> dict:
    manifest = json.loads((run.dir / "in" / "manifest.json").read_text())
    plan = stages(workload, manifest)
    run.setup_probe()  # warm-up: bytecode caches and the page cache
    setup, plain, traced_passes = [], [], []
    kinds = (False, True) if trace else (False,)
    first = None
    start = time.perf_counter()
    pass_s = 0.0
    # a pass starts while at least half of one fits in the time left
    while (time.perf_counter() - start + pass_s / 2 < seconds or len(plain) < MIN_PASSES
           or (trace and len(traced_passes) < MIN_PASSES)):
        for traced_pass in kinds:
            # probes spread over the run see the same machine as the passes
            setup += [run.setup_probe() for _ in range(PROBES_PER_PASS)]
            t0 = time.perf_counter()
            records = run.run_pass(plan, traced_pass)
            if records is None:
                return {}
            pass_s = time.perf_counter() - t0
            first = run.verify(first)
            (traced_passes if traced_pass else plain).append(records)

    # a stage's ru_maxrss is at least the high-water RSS of the memory it
    # was forked from, ours; it is the stage's own only while ours is smaller
    own_mb = _vm_hwm_mb()
    smallest = min(r["rss_mb"] for p in plain for r in p)
    run.check(own_mb < smallest, f"run.py RSS {own_mb:.0f} MB >= stage RSS {smallest:.0f} MB")

    if not trace:
        return {
            "setup_s": statistics.median(setup),
            "pipeline_s": _fastest_sum(plain, "wall"),
            "pipeline_cpu_s": _fastest_sum(plain, "cpu"),
            "peak_rss_mb": statistics.median(max(r["rss_mb"] for r in p) for p in plain),
        }
    layers = _median_of([layer_metrics(p) for p in traced_passes])
    layers["trace.overhead_frac"] = (_fastest_sum(traced_passes, "wall")
                                     / _fastest_sum(plain, "wall") - 1.0)
    return {**_median_of([_stage_times(p) for p in plain]), **layers}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input sizes; 'smoke' is for the benchmark's own test")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "bundlemw" / "cli.py").is_file():
        print(f"bench: no bundlemw sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    (root / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".bench_work"))
    run = Run(root, workdir)
    try:
        run.helper("workloads.py", args.workload, str(args.seed), "in", "--size", args.size)
        values = measure(run, args.workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in run.problems:
        print(f"bench: FAILED {problem}", file=sys.stderr)
    # a failed run has no values; otherwise every listed metric must exist
    metrics = {m["name"]: {"value": values[m["name"]] if values else 0.0, "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": run.failed == 0 and bool(values), "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
