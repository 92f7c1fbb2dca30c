"""Command-line pipelines built from the library modules.

Subcommands cover the full workflow: simulate samples from a mixture
config, fit mixtures back from samples, compute mixture distances and
transport plans, build distance matrices over mixture collections, run
change-point detection, and convert triangle / contour data to spherical
representations.

Every command is deterministic given --seed.  Exit codes: 0 on success,
2 for validation problems (bad files, bad flags, malformed inputs), 3 for
numerical failures (non-convergence, degenerate geometry, floating-point
overflow, division by zero and invalid operations).  The class of the error
decides: ``errors.NumericalError``, MemoryError and FloatingPointError exit
3; ValueError (every other package error is one), TypeError, KeyError,
OSError and OverflowError exit 2.  Failures print a one-line JSON object to
stderr with the error class and message.  Each command imports the modules
it uses, so a process loads only those, and ``--help`` loads no numpy.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import NumericalError


def __getattr__(name):
    """``_mw2_pair``: bench/traced.py looks up this name and times the rows
    of distmat by it.  It is imported on lookup, so importing this module
    loads no numpy."""
    if name != "_mw2_pair":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .transport import _mw2_row

    return _mw2_row


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _config_error(field, why):
    return ValueError(f"config field '{field}': {why}")


def cmd_simulate(args) -> int:
    import hashlib

    from ._jsonfile import parse_json
    from .gauss import mixture_from_dict
    from .sampling import sample_mixture, save_samples

    raw = Path(args.config).read_bytes()
    cfg = parse_json(raw, args.config)
    for field in ("frame", "mixture", "n", "seed"):
        if field not in cfg:
            raise _config_error(field, "missing")
    n = cfg["n"]
    if type(n) is not int or n < 1:  # a bool is an int, but not a count
        raise _config_error("n", f"must be a positive integer, got {n!r}")
    seed = cfg["seed"]
    if type(seed) is not int:
        raise _config_error("seed", f"must be an integer, got {seed!r}")
    mix_section = cfg["mixture"]
    for field in ("weights", "components"):
        if field not in mix_section:
            raise _config_error(f"mixture.{field}", "missing")
    mix = mixture_from_dict(dict(mix_section, frame=cfg["frame"]))
    stats = {}
    X, labels = sample_mixture(mix, n, seed, stats=stats)
    save_samples(args.out, X, labels)
    _emit(
        {
            "config_sha256": hashlib.sha256(raw).hexdigest(),
            "n": n,
            "K": mix.K,
            "truncation": stats,
            "out": str(args.out),
        }
    )
    return 0


def cmd_fit(args) -> int:
    from .estimation import KMODES_MAX_POINTS, fit_mixture, kmodes_from_points, riemannian_kmeans
    from .estimation import save_clustering
    from .gauss import save_mixture
    from .geometry import load_frame
    from .sampling import load_samples

    X, _ = load_samples(args.samples)
    frame = load_frame(args.frame)
    if args.method == "kmeans":
        if args.K is None:
            raise ValueError("--K is required with --method kmeans")
        clustering = riemannian_kmeans(X, args.K, seed=args.seed)
    elif len(X) > KMODES_MAX_POINTS:
        raise ValueError(f"--method kmodes takes at most {KMODES_MAX_POINTS} points, got {len(X)}")
    else:
        clustering = kmodes_from_points(X, q=args.q)
    mix = fit_mixture(X, clustering, frame)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    mixture_path = outdir / "mixture.json"
    clustering_path = outdir / "clustering.json"
    save_mixture(mixture_path, mix)
    save_clustering(clustering_path, clustering)
    _emit(
        {
            "K": mix.K,
            "outliers": len(clustering.outliers),
            "mixture": str(mixture_path),
            "clustering": str(clustering_path),
        }
    )
    return 0


def cmd_mw2(args) -> int:
    from .gauss import load_mixture
    from .transport import mw2, save_result

    mix0 = load_mixture(args.mixture_a)
    mix1 = load_mixture(args.mixture_b)
    res = mw2(mix0, mix1)
    if args.out is not None:
        save_result(args.out, res)
    _emit({"distance": res.distance, "distance_sq": res.distance_sq})
    return 0


def cmd_distmat(args) -> int:
    from .contours import save_distmat
    from .gauss import load_mixture
    from .transport import pairwise_mw2

    indir = Path(args.mixtures)
    paths = sorted(indir.glob("*.json"))
    if len(paths) < 2:
        raise ValueError(f"need at least two mixture files in {indir}")
    names = [p.stem for p in paths]
    frames = {}
    D = pairwise_mw2([load_mixture(p, frames) for p in paths])
    save_distmat(args.out, D, names=names)
    _emit({"n": len(names), "names": names, "out": str(args.out)})
    return 0


def _parse_weights(text, k, flag):
    import numpy as np

    if text is None:
        return np.full(k, 1.0 / k)
    try:
        w = np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise ValueError(f"{flag} must be comma-separated numbers") from exc
    if w.size != k:
        raise ValueError(f"{flag} has {w.size} entries, cost matrix needs {k}")
    return w


def cmd_transport(args) -> int:
    import numpy as np

    from ._csvfile import read_table
    from ._jsonfile import write_json
    from .transport import solve_transportation

    _, cost = read_table(args.cost)
    w0 = _parse_weights(args.w0, cost.shape[0], "--w0")
    w1 = _parse_weights(args.w1, cost.shape[1], "--w1")
    plan = solve_transportation(cost, w0, w1)
    payload = {
        "cost": plan.cost,
        "plan": plan.matrix.tolist(),
        "w0": w0.tolist(),
        "w1": w1.tolist(),
    }
    if args.out is not None:
        write_json(args.out, payload)
    _emit({"cost": plan.cost, "nonzeros": int(np.count_nonzero(plan.matrix))})
    return 0


def cmd_changepoint(args) -> int:
    from .changepoint import e_divisive, save_report
    from .contours import load_distmat

    D, _names = load_distmat(args.distmat)
    report = e_divisive(
        D,
        R=args.R,
        p0=args.p0,
        min_size=args.min_size,
        alpha=args.alpha,
        seed=args.seed,
    )
    if args.out is not None:
        save_report(args.out, report)
    _emit(
        {
            "accepted": report.accepted_indices,
            "tested": len(report.points),
            "p_values": [p.p_value for p in report.points],
        }
    )
    return 0


def cmd_triangles(args) -> int:
    from .triangles import (
        hopf_backward,
        hopf_forward,
        load_angles,
        load_triangles,
        save_sphere_points,
        save_triangles,
        triangle_preshape,
    )

    if args.mode == "forward":
        Y = hopf_forward(triangle_preshape(load_triangles(args.input)))
        save_sphere_points(args.out, Y)
    else:
        Y = hopf_backward(*load_angles(args.input).T)
        save_triangles(args.out, Y)
    _emit({"triangles": len(Y), "out": str(args.out)})
    return 0


def cmd_contours(args) -> int:
    from .contours import align_shape, contour_to_srvf, load_contour_dir, shape_statistics
    from .gauss import GaussianMixture, save_mixture
    from .geometry import frechet_mean, standard_frame

    frames = load_contour_dir(args.contours)
    T = args.T
    stacks = {name: contour_to_srvf(cs, T) for name, cs in frames.items()}
    reference = next(iter(stacks.values()))[0]
    sphere_frame = standard_frame(2 * T)
    mixtures = {}
    for name, Q in stacks.items():
        aligned, _ = align_shape(reference, Q, seam_search=True)
        mean = frechet_mean(aligned.reshape(len(Q), -1))
        _, cov = shape_statistics(aligned, mean.reshape(2, T), sphere_frame)
        mixtures[name] = GaussianMixture([1.0], mean[None], cov[None], sphere_frame)
    # every frame is fitted before the first file is written, so a failing
    # frame leaves no output behind
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, mix in mixtures.items():
        save_mixture(outdir / f"{name}.json", mix)
    _emit({"frames": len(stacks), "T": T, "out": str(outdir)})
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bundlemw",
        description="Gaussian mixtures on tangent bundles of punctured spheres: "
        "simulation, estimation, Wasserstein distances, and shape pipelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw labeled samples from a mixture config")
    p.add_argument("config", help="JSON config with frame, mixture, n, seed sections")
    p.add_argument("--out", required=True, help="output samples.csv path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="estimate a mixture from samples")
    p.add_argument("samples", help="samples.csv produced by simulate or external data")
    p.add_argument("--frame", required=True, help="frame.json for the mixture")
    p.add_argument("--method", choices=("kmeans", "kmodes"), default="kmeans")
    p.add_argument("--K", type=int, default=None, help="number of clusters (kmeans)")
    p.add_argument("--q", type=float, default=0.1, help="radius quantile (kmodes)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("mw2", help="mixture Wasserstein distance between two mixtures")
    p.add_argument("mixture_a")
    p.add_argument("mixture_b")
    p.add_argument("--out", default=None, help="optional plan.json output")
    p.set_defaults(func=cmd_mw2)

    p = sub.add_parser("distmat", help="pairwise MW2 matrix over a mixture directory")
    p.add_argument("mixtures", help="directory of mixture .json files")
    p.add_argument("--jobs", type=int, default=1, help="accepted; distmat runs in one process")
    p.add_argument("--out", required=True, help="output distmat.csv path")
    p.set_defaults(func=cmd_distmat)

    p = sub.add_parser("transport", help="solve a transportation problem from a cost CSV")
    p.add_argument("cost", help="cost matrix CSV")
    p.add_argument("--w0", default=None, help="row marginals, comma-separated")
    p.add_argument("--w1", default=None, help="column marginals, comma-separated")
    p.add_argument("--out", default=None, help="optional plan JSON output")
    p.set_defaults(func=cmd_transport)

    p = sub.add_parser("changepoint", help="E-divisive detection on a distance matrix")
    p.add_argument("distmat", help="distmat.csv with pairwise distances")
    p.add_argument("--p0", type=float, default=0.0125)
    p.add_argument("--R", type=int, default=499)
    p.add_argument("--min-size", dest="min_size", type=int, default=12)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="optional changepoints.json output")
    p.set_defaults(func=cmd_changepoint)

    p = sub.add_parser("triangles", help="map triangles to sphere points and back")
    p.add_argument("input", help="triangles.csv (forward) or an angle or sphere CSV (backward)")
    p.add_argument("--mode", choices=("forward", "backward"), default="forward")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_triangles)

    p = sub.add_parser("contours", help="fit per-frame shape Gaussians from contours")
    p.add_argument("contours", help="directory of contour files (one file per frame)")
    p.add_argument("--T", type=int, default=100, help="resampling resolution")
    p.add_argument("--out", required=True, help="output directory for mixtures")
    p.set_defaults(func=cmd_contours)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    import numpy as np

    try:
        # overflow, invalid operations and division by zero raise
        # FloatingPointError, exit 3, instead of warning past a wrong number
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except (NumericalError, MemoryError, FloatingPointError) as exc:
        _fail(exc)
        return 3
    except (ValueError, TypeError, KeyError, OSError, OverflowError) as exc:
        _fail(exc)
        return 2


def _fail(exc) -> None:
    print(
        json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}, sort_keys=True
        ),
        file=sys.stderr,
    )


if __name__ == "__main__":
    sys.exit(main())
