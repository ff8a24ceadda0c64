"""The benchmark's workloads: input generation and one job each.

Every workload builds its inputs from the run's seed with the library's
public functions and hands the program only those inputs.  A job is the unit
that is timed and checked:

* ``ct64_tvstokes`` -- one ``tvs denoise --model tvstokes`` call on a 64^3
  volume, in process through ``tvstokes.cli.main``;
* ``video_rof`` -- one ``tvs denoise --model rof`` call on a 160x160x16 f32
  video block that declares a value range;
* ``frames2d_tvstokes`` -- one 64x64 frame through ``smooth_gradient_field``
  and ``reconstruct``; a pass covers 200 independent frames.

The library modules are looked up at call time (``cli.main``,
``smoothing.smooth_gradient_field``), so the traced run's wrappers are the
functions a job calls.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tvstokes import cli, noise, reconstruction, smoothing, volume_io

_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}


@dataclass
class Case:
    """Generated inputs of one run: the clean signal and what the program gets."""

    clean: np.ndarray
    noisy: np.ndarray  # exactly what the program receives, widened to f64
    peak: float  # PSNR peak in the clean signal's units
    paths: dict | None = None  # input/output/report files for the CLI workloads


@dataclass
class JobOutput:
    """What one job produced, read back outside its timed interval."""

    key: int  # jobs with equal keys must produce bit-identical outputs
    u: np.ndarray
    kkt: float  # largest kkt_residual over the job's solves


def _phantom(n: int) -> np.ndarray:
    """Criterion-7 phantom: a quadratic ramp plus a ball, on an n^3 grid."""
    ax = np.arange(n) / (n - 1)
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    ramp = 0.9 * (x**2 + 0.6 * y**2 + 0.3 * z**2) / 1.9
    r = np.sqrt((x - 0.5) ** 2 + (y - 0.5) ** 2 + (z - 0.5) ** 2)
    return ramp + 0.5 * (r < 0.25)


class CliWorkload:
    """A workload whose job is one ``tvs denoise`` call on a saved volume."""

    name = ""
    why = ""
    dtype = "f64"
    value_range: tuple[float, float] | None = None

    def __init__(self, smoke: bool):
        self.smoke = smoke

    def argv(self) -> list[str]:
        raise NotImplementedError

    def make_clean(self, seed: int) -> tuple[np.ndarray, float]:
        raise NotImplementedError

    def setup(self, seed: int, workdir: Path, tag: str) -> Case:
        clean, peak = self.make_clean(seed)
        noisy = noise.add_gaussian_noise(clean, 0.1 * peak, seed)
        paths = {
            "input": workdir / f"{tag}_in.raw",
            "output": workdir / f"{tag}_out.raw",
            "report": workdir / f"{tag}_report.json",
        }
        volume_io.save_volume(noisy, paths["input"], dtype=self.dtype, value_range=self.value_range)
        # score against what the program actually reads, after any narrowing
        stored = noisy.astype(_DTYPES[self.dtype]).astype(np.float64)
        return Case(clean=clean, noisy=stored, peak=peak, paths=paths)

    def n_keys(self, case: Case) -> int:
        return 1

    def voxels_per_job(self, case: Case) -> int:
        return case.noisy.size

    def job(self, case: Case, i: int, max_iters: int | None = None, tol: str | None = None) -> int:
        """Run one job; returns the CLI exit code."""
        argv = self.argv()
        if max_iters is not None:
            argv[argv.index("--max-iters") + 1] = str(max_iters)
        if tol is not None:
            argv += ["--tol", tol]  # argparse keeps the last value given
        p = case.paths
        argv += ["--input", str(p["input"]), "--output", str(p["output"]), "--report", str(p["report"])]
        return cli.main(argv)

    def read_output(self, case: Case, i: int, code: int) -> JobOutput:
        if code != 0:
            raise RuntimeError(f"tvs denoise exited with code {code}")
        p = case.paths
        raw = np.fromfile(p["output"], dtype=_DTYPES[self.dtype])
        u = raw.astype(np.float64).reshape(case.noisy.shape)
        report = json.loads(Path(p["report"]).read_text(encoding="utf-8"))
        kkt = max(float(s["kkt_residual"]) for s in report["steps"].values())
        return JobOutput(key=0, u=u, kkt=kkt)

    def signal(self, case: Case, key: int) -> tuple[np.ndarray, np.ndarray]:
        """Clean and noisy signal that the output of a job with ``key`` denoises."""
        return case.clean, case.noisy


class Ct64Tvstokes(CliWorkload):
    """Step 1 (tensor dual plus spectral projector) dominates here.

    Both solves hit the 40-iteration cap, so the work per job is fixed; a
    step-1 or spectral change must show on this workload.
    """

    name = "ct64_tvstokes"
    why = ("step 1 (tensor fields ops, spectral projection, loop temporaries) does ~75-80% of the work; "
           "both solves hit the 40-iteration cap, so work per job is fixed")

    def argv(self) -> list[str]:
        iters = "10" if self.smoke else "40"
        return ["denoise", "--model", "tvstokes", "--lambda1", "0.2", "--lambda2", "0.35",
                "--max-iters", iters, "--tol", "1e-7"]

    def make_clean(self, seed: int) -> tuple[np.ndarray, float]:
        return _phantom(16 if self.smoke else 64), 1.0


class VideoRof(CliWorkload):
    """Only the vector-dual loop runs, with f32 IO and value-range normalization.

    No tensor or spectral work happens, so step-1 and spectral changes must
    predict no change here.
    """

    name = "video_rof"
    why = ("only the vector-dual loop runs, plus f32 widen/narrow IO and value-range normalization; "
           "no tensor or spectral work, so step-1 changes must show no change")
    dtype = "f32"
    value_range = (0.0, 255.0)

    def argv(self) -> list[str]:
        iters = "10" if self.smoke else "60"
        return ["denoise", "--model", "rof", "--lambda", "0.1", "--max-iters", iters]

    def make_clean(self, seed: int) -> tuple[np.ndarray, float]:
        side, frames = (32, 8) if self.smoke else (160, 16)
        return _moving_discs(side, frames, seed), 255.0


def _moving_discs(side: int, frames: int, seed: int) -> np.ndarray:
    """8-bit-range video of three discs moving on a flat background."""
    rng = np.random.default_rng([seed, 1])
    yy, xx = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    discs = [
        (rng.uniform(0.25, 0.75) * side, rng.uniform(0.25, 0.75) * side,
         rng.uniform(0.08, 0.18) * side, rng.uniform(120.0, 220.0),
         rng.uniform(-1.0, 1.0) * side / 100.0, rng.uniform(-1.0, 1.0) * side / 100.0)
        for _ in range(3)
    ]
    stack = []
    for t in range(frames):
        frame = np.full((side, side), 40.0)
        for cx, cy, r, value, vx, vy in discs:
            frame[(xx - cx - vx * t) ** 2 + (yy - cy - vy * t) ** 2 < r * r] = value
        stack.append(frame)
    return volume_io.stack_frames(stack)


class Frames2dTvstokes:
    """The same solvers on grids that fit in L2, called once per small frame.

    Per-call costs (validation, plan construction, kkt and objective
    diagnostics, Python dispatch) repeat for every frame; the workload does
    no file IO.
    """

    name = "frames2d_tvstokes"
    why = ("the same solvers on 64x64 frames that fit in L2, one call per frame: per-call costs "
           "(validation, plans, diagnostics, dispatch) repeat 200 times; no file IO")

    def __init__(self, smoke: bool):
        self.smoke = smoke
        self.iters = 10 if smoke else 50

    def setup(self, seed: int, workdir: Path, tag: str) -> Case:
        count, side = (6, 16) if self.smoke else (200, 64)
        rng = np.random.default_rng([seed, 2])
        ax = np.arange(side) / (side - 1)
        x, y = np.meshgrid(ax, ax, indexing="ij")
        clean = np.empty((count, side, side))
        for k in range(count):
            a, b = rng.uniform(0.2, 1.0, size=2)
            cx, cy = rng.uniform(0.3, 0.7, size=2)
            radius = rng.uniform(0.15, 0.3)
            ramp = 0.9 * (a * x**2 + b * y**2) / (a + b)
            clean[k] = ramp + 0.5 * ((x - cx) ** 2 + (y - cy) ** 2 < radius**2)
        noisy = noise.add_gaussian_noise(clean, 0.1, seed)
        return Case(clean=clean, noisy=noisy, peak=1.0)

    def n_keys(self, case: Case) -> int:
        return case.noisy.shape[0]

    def voxels_per_job(self, case: Case) -> int:
        return case.noisy[0].size

    def job(self, case: Case, i: int, max_iters: int | None = None, tol: str | None = None):
        frame = case.noisy[i % case.noisy.shape[0]]
        iters = self.iters if max_iters is None else max_iters
        stop = 1e-7 if tol is None else float(tol)
        r1 = smoothing.smooth_gradient_field(
            frame, smoothing.SmoothingConfig(lam=0.2, max_iters=iters, tol=stop))
        r2 = reconstruction.reconstruct(
            frame, r1.g, reconstruction.ReconstructionConfig(lam=0.35, max_iters=iters, tol=stop))
        return r2.u, max(r1.kkt_residual, r2.kkt_residual)

    def read_output(self, case: Case, i: int, result) -> JobOutput:
        u, kkt = result
        return JobOutput(key=i % case.noisy.shape[0], u=u, kkt=float(kkt))

    def signal(self, case: Case, key: int) -> tuple[np.ndarray, np.ndarray]:
        return case.clean[key], case.noisy[key]


WORKLOADS = {w.name: w for w in (Ct64Tvstokes, VideoRof, Frames2dTvstokes)}

