"""Traced stand-in for ``python -m bundlemw.cli``.

    python3 bench/traced.py SPANS_DIR CLI_ARGS...

runs the CLI with a span recorded around every call into the public
functions listed in TARGETS.  Each function is replaced at every
``bundlemw`` module namespace that holds it, since ``cli``, ``transport``,
``estimation`` and ``contours`` import by name.  Spans stay in memory and
each process writes ``SPANS_DIR/spans-<pid>.json`` when it exits; forked
``--jobs`` workers write their own file.

``summarize`` turns the span files of one stage into per-layer metrics.  It
is plain Python so ``run.py`` can import it without numpy or bundlemw;
everything that touches the program is inside ``main``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path


def _stats(args, kwargs) -> dict:
    stats = kwargs.get("stats", args[3] if len(args) > 3 else None)
    return stats or {}


# module -> function -> {quantity: counter(args, kwargs, result)}
TARGETS = {
    "geometry": {
        "pairwise_geodesic": {"cells": lambda a, k, r: r.size},
        "frechet_mean": {},
        "log_batch": {},
        "exp_batch": {},
        "transport_frame": {},
        "frames_equal": {},
    },
    "gauss": {
        # pair_d3 is the work the batched Bures einsum is labelled with
        "pairwise_w2sq": {
            "pairs": lambda a, k, r: r.size,
            "pair_d3": lambda a, k, r: r.size * a[0].dim ** 3,
        },
        "load_mixture": {"bytes": lambda a, k, r: os.path.getsize(a[0])},
        "mixture_from_dict": {},
        "mixture_to_dict": {},
        "save_mixture": {"bytes": lambda a, k, r: os.path.getsize(a[0])},
        "normalize_minimal_form": {},
    },
    "transport": {
        "solve_transportation": {
            "cells": lambda a, k, r: r.matrix.size,
            "support": lambda a, k, r: int((r.matrix != 0).sum()),
        },
        "mw2": {},
        "save_result": {},
    },
    "sampling": {
        "sample_mixture": {
            "accepted": lambda a, k, r: _stats(a, k).get("accepted", 0),
            "rejected": lambda a, k, r: _stats(a, k).get("rejected", 0),
        },
        "save_samples": {},
        "load_samples": {},
    },
    "estimation": {
        "riemannian_kmeans": {"converged": lambda a, k, r: int(r.converged)},
        "kmodes_cluster": {
            "modes": lambda a, k, r: r.K,
            "outliers": lambda a, k, r: len(r.outliers),
        },
        "fit_mixture": {},
    },
    "contours": {
        "load_contour_dir": {},
        "contour_to_srvf": {},
        "align_shape": {},
        "shape_statistics": {},
        "save_distmat": {},
        "load_distmat": {},
    },
    "changepoint": {
        "e_divisive": {
            "rounds": lambda a, k, r: len(r.points),
            "permutations": lambda a, k, r: r.hyperparams["R"] * len(r.points),
        },
    },
    "triangles": {
        "hopf_forward": {},
        "hopf_backward": {},
        "triangle_preshape": {},
        "load_triangles": {},
        "save_triangles": {},
    },
    # main: the whole command after imports; _mw2_pair: one pair in a worker
    "cli": {"main": {}, "_mw2_pair": {}},
}

# quantity counted as direct child spans of a given name, less `offset` per call:
# every Frechet iteration calls log_batch once; k-means calls
# pairwise_geodesic once for seeding and once per Lloyd iteration
CHILD_COUNTS = {
    "geometry.frechet_mean": ("iters", "geometry.log_batch", 0),
    "estimation.riemannian_kmeans": ("lloyd_iters", "geometry.pairwise_geodesic", -1),
}

MAIN_SPAN = "cli.main"
WORKER_SPAN = "cli._mw2_pair"


def metric_names() -> list[str]:
    """Every per-layer quantity ``summarize`` reports, zero when not called."""
    names = []
    for module, funcs in TARGETS.items():
        for func, counters in funcs.items():
            span = f"{module}.{func}"
            names += [f"{span}.calls", f"{span}.self_s"]
            names += [f"{span}.{quantity}" for quantity in counters]
            if span in CHILD_COUNTS:
                names.append(f"{span}.{CHILD_COUNTS[span][0]}")
    return names


class Tracer:
    """Spans of one process: [name, parent index, start, end, counts]."""

    def __init__(self, outdir: str):
        self.outdir = outdir
        self.spans: list = []
        self.stack: list[int] = []

    def wrap(self, name, fn, counters):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if counters:
                rec[4] = {q: count(args, kwargs, result) for q, count in counters.items()}
            return result

        return traced

    def forked(self) -> None:
        """In a forked worker: drop the parent's spans, write our own at exit."""
        import multiprocessing.util

        del self.spans[:], self.stack[:]
        multiprocessing.util.Finalize(None, self.dump, exitpriority=0)

    def dump(self) -> None:
        path = Path(self.outdir) / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps(self.spans), encoding="utf-8")


def install(tracer: Tracer) -> None:
    """Replace every target, at every bundlemw namespace that holds it."""
    import importlib
    import multiprocessing.util

    for module in TARGETS:
        importlib.import_module(f"bundlemw.{module}")
    namespaces = [m for n, m in list(sys.modules.items())
                  if n == "bundlemw" or n.startswith("bundlemw.")]
    for module, funcs in TARGETS.items():
        home = sys.modules[f"bundlemw.{module}"]
        for func, counters in funcs.items():
            orig = getattr(home, func)
            wrapped = tracer.wrap(f"{module}.{func}", orig, counters)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, attr, wrapped)
    # runs in each forked multiprocessing child after its own registry reset
    multiprocessing.util.register_after_fork(tracer, Tracer.forked)


def summarize(span_files) -> tuple[dict, float]:
    """Per-layer metrics of one stage from its span files, and the duration
    of the main span (0 when absent)."""
    out = defaultdict(float)
    main_s = 0.0
    for path in span_files:
        spans = json.loads(Path(path).read_text(encoding="utf-8"))
        child_time = [0.0] * len(spans)
        child_named = defaultdict(int)
        for name, parent, t0, t1, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
                child_named[(parent, name)] += 1
        for idx, (name, parent, t0, t1, counts) in enumerate(spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (t1 - t0) - child_time[idx]
            for key, value in (counts or {}).items():
                out[f"{name}.{key}"] += value
            if name in CHILD_COUNTS:
                key, child, offset = CHILD_COUNTS[name]
                out[f"{name}.{key}"] += child_named[(idx, child)] + offset
            if name == MAIN_SPAN:
                main_s += t1 - t0
            if name == WORKER_SPAN:
                out["worker_busy_s"] += t1 - t0
    return dict(out), main_s


def main() -> int:
    tracer = Tracer(sys.argv[1])
    install(tracer)
    import bundlemw.cli

    try:
        return bundlemw.cli.main(sys.argv[2:])
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main())
