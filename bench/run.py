"""tvstokes benchmark: denoising workloads, end-to-end metrics, traced layers.

Run from the repository root::

    python3 bench/run.py --workload ct64_tvstokes --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --smoke          # all three, tiny sizes

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
jobs alternately with and without span wrappers and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans of a traced
run are written to ``bench/_work/traces/``.

The benchmark imports ``tvstokes`` from ``src/`` of the checkout it lives
in and exits with code 2, printing no result, when that is missing.
"""

from __future__ import annotations

import os

# Pin native thread pools to one thread, for this process and its children
# only, before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gzip
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import scipy

from tracing import JOB, TOP_LEVEL, MemScopes, Tracer, op_counts, summarize

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
REFERENCE_DIR = BENCH_DIR / "reference"

REF_SEED = 0  # inputs of the stored reference outputs
REF_TOL = 1e-4  # criterion-6 tolerance, max-abs against the stored reference
REF_SAMPLES = 4096  # output voxels compared against the reference
REF_FRAMES = 16  # frames2d: the reference jobs cover this many frames
SETUP_REPS = 5

END_TO_END = [
    ("setup_s", "s"),
    ("job_s", "s"),
    ("job_s_tail", "s"),
    ("mvox_per_s", "Mvox/s"),
    ("peak_mem_x_input", "x"),
    ("psnr_gain_db", "dB"),
    ("kkt_at_stop", "maxabs"),
    ("ok_frac", "ratio"),
]

FIELD_OPS = ["grad", "grad_vec", "adjoint_grad", "adjoint_grad_tensor", "validate_field",
             "unit_clip.c1", "unit_clip.c2", "max_tuple_norm.c1", "max_tuple_norm.c2"]
# layer prefix -> (solver span, {metric stem: diagnostic child span})
SOLVER_LAYERS = {
    "smoothing": ("smoothing.smooth_gradient_field", {
        "kkt": "smoothing.smoothing_kkt_residual",
        "objective": "smoothing.smoothing_objective"}),
    "reconstruction": ("reconstruction.reconstruct", {
        "matching_field": "reconstruction.matching_field",
        "kkt": "reconstruction.matching_kkt_residual",
        "objective": "reconstruction.matching_objective"}),
    "rof": ("rof.rof_denoise", {"kkt": "reconstruction.matching_kkt_residual"}),
}


def _per_layer_names() -> list[tuple[str, str]]:
    names = [("cli.main.self_s", "s"), ("pipeline.run_denoise.self_s", "s"),
             ("volume_io.load_volume.s", "s"), ("volume_io.save_volume.s", "s"),
             ("volume_io.bytes_read", "bytes"), ("volume_io.bytes_written", "bytes")]
    for layer, (solver, diags) in SOLVER_LAYERS.items():
        names += [(f"{solver}.s", "s"), (f"{layer}.self_s", "s"), (f"{layer}.iters", "count"),
                  (f"{layer}.ms_per_iter", "ms")]
        names += [(f"{layer}.{stem}.s", "s") for stem in diags]
        names += [(f"{layer}.peak_mem_x_input", "x"), (f"{layer}.op_bytes_per_iter", "bytes-computed")]
    names += [("spectral.project_gradient_field.self_s", "s"),
              ("spectral.project_gradient_field.calls", "count"),
              ("spectral.PoissonPlan.solve.self_s", "s"), ("spectral.PoissonPlan.solve.calls", "count"),
              ("spectral.PoissonPlan.init.s", "s"), ("spectral.PoissonPlan.init.count", "count")]
    for op in FIELD_OPS:
        names += [(f"fields.{op}.self_s", "s"), (f"fields.{op}.calls", "count"),
                  (f"fields.{op}.bytes", "bytes-computed")]
    names += [("metrics.staircase_metric.s", "s"), ("trace.overhead_frac", "ratio")]
    return names


PER_LAYER = _per_layer_names()


# -- environment --------------------------------------------------------------

def _cache_sizes() -> dict:
    """L2/L3 sizes in bytes from sysfs, per cache instance."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            factor = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
            sizes[f"L{level}_bytes"] = int(size.rstrip("KM")) * factor
    return sizes


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "threads_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                   "MKL_NUM_THREADS")},
        **_cache_sizes(),
    }


# -- helpers --------------------------------------------------------------------

def import_seconds() -> float:
    """Time ``import tvstokes`` in a fresh interpreter, as the interpreter sees it."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import tvstokes; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1])


def tail(times: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, else the maximum."""
    ordered = sorted(times)
    n = len(ordered)
    if n >= 11:
        return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n} passes, 10 beyond it"
    return ordered[-1], f"max of {n} passes (fewer than 11, no percentile has 10 beyond it)"


def reference_path(name: str, smoke: bool) -> Path:
    return REFERENCE_DIR / (f"{name}.smoke.npz" if smoke else f"{name}.npz")


def sample_index(size: int) -> np.ndarray:
    rng = np.random.default_rng(20201123)
    return np.sort(rng.choice(size, size=min(REF_SAMPLES, size), replace=False))


def record_reference(path: Path, u: np.ndarray) -> None:
    idx = sample_index(u.size)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, shape=np.array(u.shape), index=idx, values=u.reshape(-1)[idx],
                        mean=np.array(u.mean()))


def check_reference(path: Path, u: np.ndarray) -> tuple[bool, str]:
    if not path.is_file():
        return False, f"no stored reference {path.name}"
    with np.load(path) as ref:
        if tuple(ref["shape"]) != u.shape:
            return False, f"shape {u.shape} differs from reference {tuple(ref['shape'])}"
        diff = float(np.max(np.abs(u.reshape(-1)[ref["index"]] - ref["values"])))
        diff = max(diff, abs(float(u.mean()) - float(ref["mean"])))
    return diff <= REF_TOL, f"max-abs {diff:.3e} vs reference (tol {REF_TOL:g})"


def psnr_gain_db(clean, noisy, out, peak) -> float:
    def psnr(test):
        return 10.0 * np.log10(peak * peak / float(np.mean((clean - test) ** 2)))
    return float(psnr(out) - psnr(noisy))


def quality(wl, case, outputs) -> tuple[float, float]:
    """PSNR gain over the jobs' outputs taken together, and their largest kkt residual."""
    signals = [wl.signal(case, o.key) for o in outputs]
    gain = psnr_gain_db(np.stack([s[0] for s in signals]), np.stack([s[1] for s in signals]),
                        np.stack([o.u for o in outputs]), case.peak)
    return gain, max(o.kkt for o in outputs)


# -- one workload ---------------------------------------------------------------

class Run:
    """One workload run: set-up, reference job, timed jobs, metrics."""

    def __init__(self, wl, seed: int, seconds: float, trace: bool, smoke: bool, workdir: Path):
        self.wl, self.seed, self.seconds = wl, seed, seconds
        self.trace, self.smoke, self.workdir = trace, smoke, workdir
        self.attempted = 0
        self.failed = 0  # jobs that raised or failed a check
        self.problems: list[str] = []  # every failed check, jobs' and the run's own
        self.notes: dict = {}

    def fail(self, message: str, job: bool = True) -> None:
        self.failed += job
        self.problems.append(message)
        print(f"{self.wl.name}: FAILED {message}", flush=True)

    def setup(self):
        times = []
        for _ in range(1 if self.smoke else SETUP_REPS):
            t_import = import_seconds()
            t0 = time.perf_counter()
            case = self.wl.setup(self.seed, self.workdir, "run")
            times.append(t_import + time.perf_counter() - t0)
        self.notes["setup_samples_s"] = times
        return case, statistics.median(times)

    def reference_job(self, tracer, record: bool) -> tuple[int, tuple[float, float]]:
        """Untimed jobs on the reference seed under tracemalloc.

        The same jobs warm up the process and are checked against the stored
        reference output.  Returns the peak bytes of one job and the
        quality (PSNR gain, kkt) of the reference outputs, which depends on
        the code alone, not on the run's seed.
        """
        wl = self.wl
        case = self.case if self.seed == REF_SEED else wl.setup(REF_SEED, self.workdir, "ref")
        count = min(REF_FRAMES, wl.n_keys(case))
        outputs, peak = [], 0
        mem = MemScopes()
        if tracer is not None:
            tracer.mem = mem
            tracer.install()
        tracemalloc.start()
        try:
            for i in range(count):
                self.attempted += 1
                mem.enter()
                try:
                    result = wl.job(case, i)
                finally:
                    peak = max(peak, mem.exit())
                outputs.append(wl.read_output(case, i, result))
        except Exception as exc:  # a failing job is counted, not fatal
            self.fail(f"reference job raised {type(exc).__name__}: {exc}")
            return peak, (float("nan"), float("nan"))
        finally:
            tracemalloc.stop()
            if tracer is not None:
                tracer.uninstall()
                tracer.mem = None
        u = np.stack([o.u for o in outputs])
        path = reference_path(wl.name, self.smoke)
        if record:
            record_reference(path, u)
            print(f"{wl.name}: recorded reference {path.relative_to(ROOT)}", flush=True)
        ok, detail = check_reference(path, u) if np.isfinite(u).all() else (False, "non-finite")
        self.notes["reference"] = detail
        if not ok:
            self.fail(f"reference check: {detail}")
            return peak, (float("nan"), float("nan"))
        return peak, quality(wl, case, outputs)

    def check_job(self, i, result, first_digest, kept) -> None:
        wl, case = self.wl, self.case
        try:
            out = wl.read_output(case, i, result)
        except Exception as exc:
            self.fail(f"job {i}: {type(exc).__name__}: {exc}")
            return
        if not np.isfinite(out.u).all():
            self.fail(f"job {i}: non-finite output")
            return
        digest = hashlib.blake2b(out.u.tobytes(), digest_size=16).hexdigest()
        if out.key in first_digest:
            if digest != first_digest[out.key]:
                self.fail(f"job {i}: output differs from the first job with key {out.key}")
            return
        clean, noisy = wl.signal(case, out.key)
        if psnr_gain_db(clean, noisy, out.u, case.peak) <= 0.0:
            self.fail(f"job {i}: output is no closer to the clean signal than the input")
            return
        first_digest[out.key] = digest
        kept[out.key] = out

    def timed_jobs(self, tracer):
        """Whole passes over the inputs, at least three, until the time is up.

        A pass runs every distinct input once: one job for a volume, one job
        per frame.  Returns the mean job time of each untraced and each
        traced pass (traced runs alternate them), every job time, and the
        first output of each input.  Averaging over a pass keeps the frames'
        figure steady on a shared host whose speed switches between two
        levels every few seconds: there, the median of single frames moved
        between 26 and 44 ms across ten runs of one commit.
        """
        wl, case = self.wl, self.case
        keys = wl.n_keys(case)
        min_passes = 4 if self.trace else 3
        first_digest, kept = {}, {}
        plain, traced, job_times = [], [], []
        start = time.perf_counter()
        n = 0
        while n < min_passes or time.perf_counter() - start < self.seconds:
            with_trace = self.trace and n % 2 == 1
            if with_trace:
                tracer.install()
            pass_ns = 0
            for k in range(keys):
                i = n * keys + k
                if with_trace:
                    tracer.begin_job()
                t0 = time.perf_counter_ns()
                try:
                    result, error = wl.job(case, i), None
                except Exception as exc:
                    result, error = None, exc
                t1 = time.perf_counter_ns()
                if with_trace:
                    tracer.end_job(t0, t1)
                self.attempted += 1
                pass_ns += t1 - t0
                job_times.append((t1 - t0) / 1e9)
                if error is not None:
                    self.fail(f"job {i} raised {type(error).__name__}: {error}")
                else:
                    self.check_job(i, result, first_digest, kept)
            if with_trace:
                tracer.uninstall()
            (traced if with_trace else plain).append(pass_ns / keys / 1e9)
            n += 1
        return plain, traced, job_times, kept

    def execute(self, record: bool) -> dict:
        wl = self.wl
        self.case, setup_s = self.setup()
        tracer = Tracer() if self.trace else None
        peak, (gain, kkt) = self.reference_job(tracer, record)
        input_bytes = 8 * wl.voxels_per_job(self.case)
        per_iter = self.iteration_counts() if self.trace else None
        if per_iter is not None:
            self.notes["per_iteration"] = per_iter
        plain, traced, job_times, kept = self.timed_jobs(tracer)
        self.notes["jobs"] = len(job_times)
        if len(job_times) <= 64:
            self.notes["job_times_s"] = job_times
        else:
            self.notes["job_time_quartiles_s"] = statistics.quantiles(job_times, n=4)

        if kept:
            seed_gain, seed_kkt = quality(wl, self.case, [kept[k] for k in sorted(kept)])
            self.notes["psnr_gain_db_this_seed"] = seed_gain
            self.notes["kkt_at_stop_this_seed"] = seed_kkt
        if self.trace:
            metrics = self.layer_metrics(tracer, plain, traced, per_iter, input_bytes)
            self.write_trace(tracer, per_iter, metrics)
        else:
            job_s = statistics.median(plain)
            tail_s, tail_note = tail(plain)
            self.notes["job_s_tail"] = tail_note
            values = {
                "setup_s": setup_s,
                "job_s": job_s,
                "job_s_tail": tail_s,
                "mvox_per_s": wl.voxels_per_job(self.case) / job_s / 1e6,
                "peak_mem_x_input": peak / input_bytes,
                "psnr_gain_db": gain,
                "kkt_at_stop": kkt,
                "ok_frac": 1.0 - self.failed / self.attempted,
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        self.notes["working_set_bytes"] = peak
        return metrics

    def iteration_counts(self) -> dict:
        """Exact calls and computed bytes per op per solver iteration.

        Two untimed traced jobs at 1 and 2 iterations (tolerance 0) differ
        by exactly one iteration of each solver.
        """
        counts = []
        for iters in (1, 2):
            probe = Tracer()
            probe.install()
            probe.begin_job()
            try:
                self.wl.job(self.case, 0, max_iters=iters, tol="0")
            finally:
                probe.end_job(0, 0)
                probe.uninstall()
            counts.append(op_counts(probe.spans, *probe.jobs[0]))
        per_iter = {}
        for (solver, op, field), n in (counts[1] - counts[0]).items():
            per_iter.setdefault(solver, {}).setdefault(op, {})[field] = n
        return per_iter

    def layer_metrics(self, tracer, plain, traced, per_iter, input_bytes) -> dict:
        summaries = [summarize(tracer.spans, a, b) for a, b in tracer.jobs]
        jobs = len(summaries)
        # the self times of every span in a job add up to the job's wall time
        worst = max(abs(sum(e["self_ns"] for e in s["by_name"].values())
                        - (tracer.spans[a][3] - tracer.spans[a][2]))
                    for s, (a, _) in zip(summaries, tracer.jobs))
        self.notes["self_time_sum_error_ns"] = worst
        if worst > 0:
            self.fail(f"self times miss the traced wall time by {worst} ns", job=False)

        def total(name, field):
            return sum(s["by_name"].get(name, {}).get(field, 0) for s in summaries) / jobs

        def diag(solver, child):
            return sum(s["diag_ns"].get((solver, child), 0) for s in summaries) / jobs

        values = {
            "cli.main.self_s": total("cli.main", "self_ns") / 1e9,
            "pipeline.run_denoise.self_s": total("pipeline.run_denoise", "self_ns") / 1e9,
            "volume_io.load_volume.s": total("volume_io.load_volume", "ns") / 1e9,
            "volume_io.save_volume.s": total("volume_io.save_volume", "ns") / 1e9,
            "volume_io.bytes_read": total("volume_io.load_volume", "bytes"),
            "volume_io.bytes_written": total("volume_io.save_volume", "bytes"),
        }
        for layer, (solver, diags) in SOLVER_LAYERS.items():
            iters = total(solver, "iters")
            loop_ns = total(solver, "ns") - sum(diag(solver, child) for child in diags.values())
            values[f"{solver}.s"] = total(solver, "ns") / 1e9
            values[f"{layer}.self_s"] = total(solver, "self_ns") / 1e9
            values[f"{layer}.iters"] = iters
            values[f"{layer}.ms_per_iter"] = loop_ns / iters / 1e6 if iters else 0.0
            for stem, child in diags.items():
                values[f"{layer}.{stem}.s"] = diag(solver, child) / 1e9
            values[f"{layer}.peak_mem_x_input"] = tracer.solver_peaks.get(solver, 0) / input_bytes
            values[f"{layer}.op_bytes_per_iter"] = per_iter.get(solver, {}).get(TOP_LEVEL, {}).get("bytes", 0)
        for name in ("spectral.project_gradient_field", "spectral.PoissonPlan.solve"):
            values[f"{name}.self_s"] = total(name, "self_ns") / 1e9
            values[f"{name}.calls"] = total(name, "calls")
        values["spectral.PoissonPlan.init.s"] = total("spectral.PoissonPlan.init", "ns") / 1e9
        values["spectral.PoissonPlan.init.count"] = total("spectral.PoissonPlan.init", "calls")
        for op in FIELD_OPS:
            values[f"fields.{op}.self_s"] = total(f"fields.{op}", "self_ns") / 1e9
            values[f"fields.{op}.calls"] = total(f"fields.{op}", "calls")
            values[f"fields.{op}.bytes"] = total(f"fields.{op}", "bytes")
        values["metrics.staircase_metric.s"] = total("metrics.staircase_metric", "ns") / 1e9
        untraced = statistics.median(plain)
        values["trace.overhead_frac"] = (statistics.median(traced) - untraced) / untraced
        self.notes["traced_passes"] = len(traced)
        self.notes["untraced_passes"] = len(plain)
        self.notes["untraced_remainder_s"] = total(JOB, "self_ns") / 1e9
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

    def write_trace(self, tracer, per_iter, metrics) -> None:
        names = sorted({s[0] for s in tracer.spans})
        code = {n: i for i, n in enumerate(names)}
        jobs = []
        for first, last in tracer.jobs:
            t_base = tracer.spans[first][2]
            jobs.append([[i - first, (p - first) if p >= 0 else -1, code[n], t0 - t_base, t1 - t_base, b, it]
                         for i, (n, p, t0, t1, b, it) in enumerate(tracer.spans[first:last], start=first)])
        payload = {
            "workload": self.wl.name, "seed": self.seed, "smoke": self.smoke,
            "span_fields": ["id", "parent", "name", "start_ns", "end_ns", "bytes_computed", "iters"],
            "names": names, "jobs": jobs, "per_iteration": per_iter, "metrics": metrics,
            "environment": environment(),
        }
        out_dir = WORK / "traces"
        out_dir.mkdir(parents=True, exist_ok=True)
        suffix = ".smoke" if self.smoke else ""
        path = out_dir / f"{self.wl.name}-seed{self.seed}{suffix}.json.gz"
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(payload, fh)
        self.notes["trace_file"] = str(path.relative_to(ROOT))


# -- command line ---------------------------------------------------------------

def _print_metrics(name: str, metrics: dict, notes: dict) -> None:
    for key, entry in metrics.items():
        print(f"{name}  {key} = {entry['value']!r} {entry['unit']}", flush=True)
    for key, value in notes.items():
        print(f"{name}  note {key}: {json.dumps(value)}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="ct64_tvstokes, video_rof, frames2d_tvstokes, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, a few seconds in all")
    parser.add_argument("--record-reference", action="store_true",
                        help="store the reference-seed outputs as the new reference")
    args = parser.parse_args(argv)

    if not (SRC / "tvstokes" / "__init__.py").is_file():
        print(f"bench: tvstokes sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tvstokes
    from workloads import WORKLOADS

    if Path(tvstokes.__file__).resolve().parent != SRC / "tvstokes":
        print(f"bench: imported tvstokes from {tvstokes.__file__}, not {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"bench: unknown workload {unknown[0]!r}; choose from {list(WORKLOADS)} or all",
              file=sys.stderr)
        return 2

    print("env " + json.dumps(environment(), sort_keys=True), flush=True)
    workdir = WORK / f"run-{os.getpid()}"
    results = {}
    try:
        for name in names:
            wl = WORKLOADS[name](args.smoke)
            print(f"{name}: {wl.why}", flush=True)
            workdir.mkdir(parents=True, exist_ok=True)
            run = Run(wl, args.seed, args.seconds, bool(args.trace), args.smoke, workdir)
            metrics = run.execute(args.record_reference)
            l3 = _cache_sizes().get("L3_bytes")
            if l3:
                run.notes["working_set_x_L3"] = run.notes["working_set_bytes"] / l3
            _print_metrics(name, metrics, run.notes)
            results[name] = (run, metrics)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(r.failed for r, _ in results.values())
    attempted = sum(r.attempted for r, _ in results.values())
    correct = not any(r.problems for r, _ in results.values())
    if len(names) == 1:
        metrics = results[names[0]][1]
    else:
        metrics = {f"{n}.{k}": v for n, (_, m) in results.items() for k, v in m.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
