"""Print sha256 prefixes of every solver output, to compare two builds byte for byte.

Run as ``PYTHONPATH=src python tests/digest.py`` (or with the package
installed) in each checkout and compare the printed JSON objects; equal
output means equal bytes for every record below.  The records are:

* every driver's arrays and :class:`.DualResult` fields but the objective
  (step 1, step 2 on step 1's field, and ROF) at an iteration cap and at a
  ``tol`` stop, and each driver's objective on its own;
* both ``dual_step``\\ s, both KKT functions, the smoothing's also of a
  non-symmetric tensor dual, and both objectives;
* ``run_denoise``'s written payload, header and report, less its wall time
  and its steps' objectives, and those objectives on their own, for both
  models on an f64 volume and on an f32 volume with a value range.

An objective is a diagnostic, a sum over the grid whose rounding may change
while every output array keeps its bytes, so it is kept apart: a change to
the summation names only objective records, and a change to the outputs
names the arrays' records.

The grids cover 1 to 4 dimensions, a grid of three slabs and the scipy.fft
Poisson solve (70, 33, 16), a grid of four slabs whose exact steps and
Poisson solves split over two threads (24, 48, 48), a grid of six slabs whose
Poisson halves round differently from its whole products (17, 17, 17, 17), a
3-d grid of eight slabs, seven of 7 rows and a last of 1 (50, 48, 48), whose
lazy steps step chunks of step 1's slabs in place, over first, inner, last
and 1-row slabs, and a video-shaped block (16, 160, 160), sixteen 1-row slabs
that split every step.  ROF also runs on the benchmark's clip, which stacks
its frames last, 160x160x16: 27 slabs of 6 rows, where each group of a lazy
step steps its slabs in place in chunks of four, the last of them short.
Every solver also runs on the benchmark's frame, 64x64, one slab.
Every input holds some exact zeros.  ``taskset -c 0`` runs every update and every Poisson solve
on one thread, and no chunk in place.
The file has no ``test_`` prefix, so pytest does not collect it.

``python tests/digest.py --compare A.json B.json`` compares two printed
digests instead: it names every output whose bytes differ, or that one side
lacks, and exits 1 if there is any, else 0.
"""

import argparse
import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from tvstokes import (ReconstructionConfig, RofConfig, SmoothingConfig, grad, matching_field,
                      matching_kkt_residual, matching_objective, reconstruct, rof_denoise,
                      run_denoise, save_volume, smooth_gradient_field, smoothing_kkt_residual,
                      smoothing_objective)
from tvstokes import reconstruction, smoothing

SOLVE_GRIDS = [(40,), (12, 9), (6, 5, 8), (4, 3, 5, 4), (70, 33, 16), (32, 32, 32), (24, 48, 48),
               (17, 17, 17, 17), (50, 48, 48)]
CLIP = (160, 160, 16)  # ROF alone: the benchmark's clip
FRAME = (64, 64)  # the benchmark's frame, one slab
STOPS = {"cap": {"max_iters": 7, "tol": 0.0}, "tol": {"max_iters": 60, "tol": 3e-2}}
LAM1, LAM2, EPS = 0.2, 0.35, 1e-8


def digest(*values) -> str:
    """sha256 prefix of arrays (dtype, shape and bytes), bytes and the ``repr`` of anything else,
    a numpy scalar as the Python number it holds."""
    h = hashlib.sha256()
    for v in values:
        if isinstance(v, np.generic):
            v = v.item()
        if isinstance(v, np.ndarray):
            h.update(f"{v.dtype}{v.shape}".encode())
            h.update(np.ascontiguousarray(v).tobytes())
        elif isinstance(v, bytes):
            h.update(v)
        else:
            h.update(repr(v).encode())
    return h.hexdigest()[:16]


def result_digest(result) -> str:
    """Every field of a solver result but its objective, by name."""
    return digest(*(v for f in dataclasses.fields(result) if f.name != "objective"
                    for v in (f.name, getattr(result, f.name))))


def noisy(dims, seed: int) -> np.ndarray:
    """A smooth ramp plus noise, with about a tenth of its entries exactly zero."""
    rng = np.random.default_rng(seed)
    ramp = sum(np.indices(dims)) / max(sum(dims), 1)
    u = ramp + 0.2 * rng.standard_normal(dims)
    u[rng.random(dims) < 0.1] = 0.0
    return u


def feasible(shape, channel_ndim: int, seed: int) -> np.ndarray:
    """A random dual with pointwise tuple norms at most 0.9, some of its entries exactly zero."""
    rng = np.random.default_rng(seed)
    p = rng.standard_normal(shape)
    p[rng.random(shape) < 0.1] = 0.0
    axes = tuple(range(channel_ndim))
    norm = np.sqrt(np.sum(p * p, axis=axes, keepdims=True))
    return 0.9 * p / np.maximum(norm, 1.0)


def solver_records(dims, seed: int) -> dict:
    u, d = noisy(dims, seed), len(dims)
    g0, records = grad(u), {}
    for stop, params in STOPS.items():
        r1 = smooth_gradient_field(u, SmoothingConfig(lam=LAM1, **params))
        r2 = reconstruct(u, r1.g, ReconstructionConfig(lam=LAM2, eps=EPS, **params))
        r3 = rof_denoise(u, RofConfig(lam=LAM2, **params))
        m = matching_field(r1.g, EPS)
        records[f"{dims} {stop}"] = {
            "smoothing": result_digest(r1),
            "reconstruction": result_digest(r2),
            "rof": result_digest(r3),
            "smoothing result objective": digest(r1.objective),
            "reconstruction result objective": digest(r2.objective),
            "rof result objective": digest(r3.objective),
            "smoothing kkt": digest(smoothing_kkt_residual(r1.p, g0, LAM1)),
            "matching kkt": digest(matching_kkt_residual(r2.p, u, m, LAM2)),
            "rof kkt": digest(matching_kkt_residual(r3.p, u, np.zeros(dims), LAM2)),
            "smoothing objective": digest(smoothing_objective(r1.g, g0, LAM1)),
            "matching objective": digest(matching_objective(r2.u, u, r1.g, LAM2, EPS)),
        }
    p1 = feasible((d, d) + dims, 2, seed + 1)
    p2 = feasible((d,) + dims, 1, seed + 2)
    m = matching_field(grad(noisy(dims, seed + 3)), EPS)
    records[f"{dims} dual steps"] = {
        "smoothing": digest(smoothing.dual_step(p1, g0, SmoothingConfig(lam=LAM1))),
        "reconstruction": digest(
            reconstruction.dual_step(p2, u, m, ReconstructionConfig(lam=LAM2))),
        "smoothing kkt of a non-symmetric dual": digest(smoothing_kkt_residual(p1, g0, LAM1)),
    }
    return records


def rof_records(dims, seed: int) -> dict:
    """ROF's result and KKT value at an iteration cap and at a ``tol`` stop."""
    u, records = noisy(dims, seed), {}
    for stop, params in STOPS.items():
        r = rof_denoise(u, RofConfig(lam=LAM2, **params))
        records[f"{dims} {stop}"] = {
            "rof": result_digest(r),
            "rof result objective": digest(r.objective),
            "rof kkt": digest(matching_kkt_residual(r.p, u, np.zeros(dims), LAM2)),
        }
    return records


def run_records(directory: Path) -> dict:
    """``run_denoise``'s three written files, for both models on an f64 and an f32 volume; the
    report's objectives are digested apart from the rest of it."""
    volumes = {
        "f64 (32, 32, 32)": (noisy((32, 32, 32), 20), "f64", None),
        "f32 (16, 160, 160)": (255 * noisy((16, 160, 160), 21), "f32", (-60.0, 320.0)),
    }
    records = {}
    for name, (values, dtype, value_range) in volumes.items():
        inp = directory / f"in_{dtype}.raw"
        save_volume(values, inp, dtype=dtype, value_range=value_range)
        for model in ("tvstokes", "rof"):
            out, rep = directory / f"out_{dtype}_{model}.raw", directory / f"r_{dtype}_{model}.json"
            run_denoise(model, inp, output_path=out, report_path=rep, lam1=LAM1, lam2=LAM2,
                        lam=LAM2, max_iters=5, tol=1e-3)
            report = json.loads(rep.read_text())
            del report["wall_time_seconds"]
            objectives = {step: stats.pop("objective") for step, stats in report["steps"].items()}
            records[f"run {model} {name}"] = {
                "payload": digest(out.read_bytes()),
                "header": digest(out.with_suffix(".json").read_bytes()),
                "report": digest(json.dumps(report, sort_keys=True)),
                "report objectives": digest(json.dumps(objectives, sort_keys=True)),
            }
    return records


def differences(a: dict, b: dict) -> list[str]:
    """``"record: output"`` for every output whose digest differs between ``a`` and ``b``,
    or that one of them lacks, in sorted order."""
    return [f"{name}: {output}" for name in sorted(a.keys() | b.keys())
            for output in sorted(a.get(name, {}).keys() | b.get(name, {}).keys())
            if a.get(name, {}).get(output) != b.get(name, {}).get(output)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two printed digests instead of printing one")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(path).read_text()) for path in args.compare)
        diff = differences(a, b)
        for line in diff:
            print(f"differs: {line}")
        print(f"{len(diff)} of the outputs differ" if diff else "every output has the same bytes")
        return 1 if diff else 0
    records = {}
    for seed, dims in enumerate(SOLVE_GRIDS):
        records.update(solver_records(dims, seed))
    records.update(rof_records(CLIP, len(SOLVE_GRIDS)))
    records.update(solver_records(FRAME, len(SOLVE_GRIDS) + 1))
    with tempfile.TemporaryDirectory() as directory:
        records.update(run_records(Path(directory)))
    json.dump(records, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
