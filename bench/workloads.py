"""Seeded inputs for the benchmark workloads.

    python3 bench/workloads.py WORKLOAD SEED OUTDIR [--size full|smoke]

writes the program's inputs into OUTDIR together with ``manifest.json``,
which holds what the stages need on their command lines and what the output
checks expect (the planted change index, the generating angles, ...).  Only
numpy is used: nothing here imports bundlemw, so the checks in
``reference.py`` never share code with the program under test.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

# Sizes of one pipeline pass.  "full" is what the benchmark measures; the
# smoke test runs "smoke" to exercise every stage and check in seconds.
SIZES = {
    "full": {
        "contour_cp": {"frames": 24, "contours": 12, "T": 30, "samples": 80},
        "mixture_lp": {"mixtures": 24, "k_min": 6, "k_max": 16, "transport_k": 40},
        "sim_fit": {"n": 2000, "angles": 10000},
    },
    "smoke": {
        "contour_cp": {"frames": 24, "contours": 6, "T": 8, "samples": 40},
        "mixture_lp": {"mixtures": 16, "k_min": 2, "k_max": 4, "transport_k": 6},
        "sim_fit": {"n": 300, "angles": 200},
    },
}

# standard frame of S^2 at e1: every mixture of mixture_lp and sim_fit uses it
S2_FRAME = {"p": [1.0, 0.0, 0.0], "basis": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _s2_exp(p: np.ndarray, v: np.ndarray) -> np.ndarray:
    """exp map of S^2 at p for the tangent coordinates v in the frame at e1,
    carried to p by parallel transport along the minimal geodesic."""
    t = np.array([0.0, v[0], v[1]])
    e1 = np.array([1.0, 0.0, 0.0])
    t = t - ((t @ p) / (1.0 + float(p @ e1))) * (e1 + p)
    theta = float(np.linalg.norm(t))
    if theta == 0.0:
        return p.copy()
    x = np.cos(theta) * p + np.sin(theta) * t / theta
    return x / np.linalg.norm(x)


def _direction(polar: float, azimuth: float) -> np.ndarray:
    """Unit vector at angle ``polar`` from e1, turned by ``azimuth`` about e1."""
    return np.array(
        [np.cos(polar), np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth)]
    )


def _spd2(rng: np.random.Generator, scale: float) -> list:
    A = rng.normal(scale=scale, size=(2, 2))
    S = A @ A.T + 0.1 * scale * scale * np.eye(2)
    return S.tolist()


def _dirichlet(rng: np.random.Generator, k: int) -> list:
    w = rng.dirichlet(np.full(k, 2.0))
    return (w / w.sum()).tolist()


def contour_cp(rng: np.random.Generator, size: dict, out: Path) -> dict:
    """Frames of noisy closed contours whose mean shape changes mid-sequence."""
    n_frames, n_contours, n_samples = size["frames"], size["contours"], size["samples"]
    change = n_frames // 2
    frames_dir = out / "frames"
    frames_dir.mkdir()
    t = np.linspace(0.0, 2.0 * np.pi, n_samples, endpoint=False)
    for f in range(n_frames):
        bump = 0.0 if f < change else 0.35
        contours = []
        for _ in range(n_contours):
            r = 1.0 + 0.3 * np.cos(2.0 * t) + bump * np.cos(3.0 * t)
            for k in range(2, 6):
                a, phase = rng.normal(scale=0.04 / k), rng.uniform(0.0, 2.0 * np.pi)
                r = r + a * np.cos(k * t + phase)
            x, y = r * np.cos(t), r * np.sin(t)
            # random similarity and starting point: the program removes them
            angle = rng.uniform(-np.pi, np.pi)
            c, s = np.cos(angle), np.sin(angle)
            scale = rng.uniform(0.5, 2.0)
            shift = rng.normal(size=2)
            start = int(rng.integers(n_samples))
            P = scale * np.array([[c, -s], [s, c]]) @ np.vstack([x, y]) + shift[:, None]
            contours.append(np.roll(P, start, axis=1).tolist())
        (frames_dir / f"frame_{f:03d}.json").write_text(json.dumps(contours), encoding="utf-8")
    return {"T": size["T"], "frames": n_frames, "contours": n_contours, "change": change}


def mixture_lp(rng: np.random.Generator, size: dict, out: Path) -> dict:
    """S^2 mixtures with varying K whose centre moves mid-sequence, plus one
    standalone transportation problem."""
    n_mix = size["mixtures"]
    change = n_mix // 2
    mix_dir = out / "mix"
    mix_dir.mkdir()
    centres = [_direction(0.5, 0.3), _direction(0.5, 0.3 + 1.6)]
    # the same multiset of K at every seed, so that the LP work is the same
    ks = size["k_min"] + np.arange(n_mix) % (size["k_max"] - size["k_min"] + 1)
    names = []
    for i, K in enumerate(rng.permutation(ks)):
        centre = centres[0] if i < change else centres[1]
        comps = [
            {
                "basepoint": _s2_exp(centre, rng.normal(scale=0.25, size=2)).tolist(),
                "cov": _spd2(rng, 0.08),
            }
            for _ in range(K)
        ]
        name = f"mix_{i:03d}"
        _write_json(mix_dir / f"{name}.json",
                    {"frame": S2_FRAME, "weights": _dirichlet(rng, K), "components": comps})
        names.append(name)

    k = size["transport_k"]
    xs, ys = rng.normal(size=(k, 2)), rng.normal(size=(k, 2))
    cost = np.sum((xs[:, None, :] - ys[None, :, :]) ** 2, axis=-1)
    np.savetxt(out / "cost.csv", cost, delimiter=",", fmt="%.17g")
    w0, w1 = _dirichlet(rng, k), _dirichlet(rng, k)
    return {
        "change": change,
        "mixtures": names,
        "w0": ",".join(repr(v) for v in w0),
        "w1": ",".join(repr(v) for v in w1),
        "mw2_pair": [names[0], names[-1]],
    }


def sim_fit(rng: np.random.Generator, size: dict, out: Path) -> dict:
    """A well-separated K=4 mixture on S^2 to sample and fit, and
    (theta, phi, psi) rows for the triangle round trip."""
    comps = [
        {"basepoint": _direction(0.9, a).tolist(), "cov": _spd2(rng, 0.07)}
        for a in rng.uniform(0.0, 0.4) + np.arange(4) * (np.pi / 2.0)
    ]
    weights = (0.25 + 0.1 * rng.dirichlet(np.full(4, 2.0))) / 1.1
    truth = {"frame": S2_FRAME, "weights": (weights / weights.sum()).tolist(), "components": comps}
    _write_json(out / "truth.json", truth)
    _write_json(out / "frame.json", S2_FRAME)
    config = {
        "frame": S2_FRAME,
        "mixture": {"weights": truth["weights"], "components": comps},
        "n": size["n"],
        "seed": int(rng.integers(2**31)),
    }
    _write_json(out / "config.json", config)

    m = size["angles"]
    # colatitudes stay off the poles, where the longitude is undefined
    theta = rng.uniform(0.05, np.pi - 0.05, m)
    phi = rng.uniform(-np.pi, np.pi, m)
    psi = rng.uniform(0.0, 2.0 * np.pi, m)
    np.savetxt(out / "angles.csv", np.column_stack([theta, phi, psi]), delimiter=",",
               fmt="%.17g", header="theta,phi,psi", comments="")
    return {"n": size["n"], "K": 4, "angles": m}


GENERATORS = {"contour_cp": contour_cp, "mixture_lp": mixture_lp, "sim_fit": sim_fit}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(GENERATORS))
    parser.add_argument("seed", type=int)
    parser.add_argument("outdir")
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args()
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed, spawn_key=(7,)))
    manifest = GENERATORS[args.workload](rng, SIZES[args.size][args.workload], out)
    manifest.update(workload=args.workload, seed=args.seed, size=args.size)
    _write_json(out / "manifest.json", manifest)


if __name__ == "__main__":
    main()
