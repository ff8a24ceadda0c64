"""Spans and memory scopes for the traced run, recorded from outside the library.

The traced run replaces public tvstokes functions with timing wrappers at
module boundaries.  Every module namespace that bound the original function
gets the wrapper, so calls between modules (``smoothing`` calling
``fields.grad_vec``) and within one (``adjoint_grad_tensor`` calling
``adjoint_grad``) are both seen.  Uninstalling puts the originals back.

A span is ``[name, parent, t0_ns, t1_ns, nbytes, iters]``; spans live in one
list in memory and are written out when the run ends.  ``nbytes`` is
*computed* from array sizes (arguments plus a new result), not measured, and
for ``load_volume``/``save_volume`` it is the payload size on disk.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

# (module, attribute) of every wrapped function; its span is "module.attribute"
FUNCTIONS = [
    ("cli", "main"),
    ("pipeline", "run_denoise"),
    ("volume_io", "load_volume"),
    ("volume_io", "save_volume"),
    ("metrics", "staircase_metric"),
    ("smoothing", "smooth_gradient_field"),
    ("smoothing", "smoothing_kkt_residual"),
    ("smoothing", "smoothing_objective"),
    ("reconstruction", "reconstruct"),
    ("reconstruction", "matching_field"),
    ("reconstruction", "matching_kkt_residual"),
    ("reconstruction", "matching_objective"),
    ("rof", "rof_denoise"),
    ("spectral", "project_gradient_field"),
    ("fields", "grad"),
    ("fields", "grad_vec"),
    ("fields", "adjoint_grad"),
    ("fields", "adjoint_grad_tensor"),
    ("fields", "validate_field"),
    ("fields", "unit_clip"),
    ("fields", "max_tuple_norm"),
]
# (module, class, method, span name)
METHODS = [
    ("spectral", "PoissonPlan", "__init__", "spectral.PoissonPlan.init"),
    ("spectral", "PoissonPlan", "solve", "spectral.PoissonPlan.solve"),
]
SOLVERS = ("smoothing.smooth_gradient_field", "reconstruction.reconstruct", "rof.rof_denoise")
# ops whose span name gets a ".c<channel_ndim>" suffix (vector vs tensor dual)
SPLIT_BY_CHANNELS = ("fields.unit_clip", "fields.max_tuple_norm")
# solver children that run once per solve, after the loop
DIAGNOSTICS = (
    "smoothing.smoothing_kkt_residual",
    "smoothing.smoothing_objective",
    "reconstruction.matching_field",
    "reconstruction.matching_kkt_residual",
    "reconstruction.matching_objective",
)
JOB = "job"
OP_MODULES = ("fields.", "spectral.")
TOP_LEVEL = "top-level ops"


def _array_bytes(args, result) -> int:
    total = sum(a.nbytes for a in args if isinstance(a, np.ndarray))
    if isinstance(result, np.ndarray) and not any(result is a for a in args):
        total += result.nbytes
    return total


def _span_bytes(name: str, args, result) -> int:
    if name == "volume_io.load_volume":
        return os.path.getsize(args[0])
    if name == "volume_io.save_volume":
        return result.payload_bytes()
    if name.startswith(OP_MODULES):
        return _array_bytes(args, result)
    return 0


class MemScopes:
    """Nested tracemalloc peaks: bytes allocated above the level at entry."""

    def __init__(self):
        self._stack: list[list[int]] = []

    def _fold(self) -> int:
        current, peak = tracemalloc.get_traced_memory()
        for scope in self._stack:
            scope[1] = max(scope[1], peak)
        tracemalloc.reset_peak()
        return current

    def enter(self) -> None:
        current = self._fold()
        self._stack.append([current, current])

    def exit(self) -> int:
        self._fold()
        base, peak = self._stack.pop()
        return peak - base


class Tracer:
    """Installs the wrappers and keeps every span of the traced jobs."""

    def __init__(self):
        self.spans: list[list] = []
        self.jobs: list[tuple[int, int]] = []  # [first, last) span index per job
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        # set while the memory job runs: per-solver peak bytes above entry
        self.mem: MemScopes | None = None
        self.solver_peaks: dict[str, int] = {}
        self.recording = False

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "tvstokes" or name.startswith("tvstokes."))]
        for mod_name, attr in FUNCTIONS:
            original = getattr(sys.modules[f"tvstokes.{mod_name}"], attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapper)
        for mod_name, cls_name, method, span in METHODS:
            cls = getattr(sys.modules[f"tvstokes.{mod_name}"], cls_name)
            original = cls.__dict__[method]
            self._restore.append((cls, method, original))
            setattr(cls, method, self._wrap(span, original))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def _wrap(self, name, fn):
        split = name in SPLIT_BY_CHANNELS
        solver = name in SOLVERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                if solver and self.mem is not None:
                    self.mem.enter()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        peak = self.mem.exit()
                        self.solver_peaks[name] = max(self.solver_peaks.get(name, 0), peak)
                return fn(*args, **kwargs)
            label = name
            if split:
                channels = kwargs.get("channel_ndim", args[1] if len(args) > 1 else 1)
                label = f"{name}.c{channels}"
            span = [label, self._open[-1], 0, 0, 0, 0]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                self._open.pop()
            span[4] = _span_bytes(name, args, result)
            if solver:
                span[5] = int(result.iters)
            return result

        return traced

    # -- jobs ---------------------------------------------------------------

    def begin_job(self) -> None:
        self._open = [len(self.spans)]
        self.spans.append([JOB, -1, 0, 0, 0, 0])
        self.recording = True

    def end_job(self, t0: int, t1: int) -> None:
        """Close the job's root span over the job timer's own interval."""
        self.recording = False
        first = self._open[0]
        self.spans[first][2:4] = [t0, t1]
        self.jobs.append((first, len(self.spans)))
        self._open = []


def summarize(spans, first: int, last: int) -> dict:
    """Per-name totals for the spans of one job.

    Self time is a span's duration minus that of its direct children; the
    job root's self time is the part of the job no wrapper saw.
    """
    child_ns = defaultdict(int)
    diag_ns = defaultdict(int)  # (solver, diagnostic) -> ns
    for i in range(first + 1, last):
        name, parent, t0, t1 = spans[i][:4]
        child_ns[parent] += t1 - t0
        if name in DIAGNOSTICS and spans[parent][0] in SOLVERS:
            diag_ns[(spans[parent][0], name)] += t1 - t0
    by_name = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0, "bytes": 0, "iters": 0})
    for i in range(first, last):
        name, _, t0, t1, nbytes, iters = spans[i]
        entry = by_name[name]
        entry["calls"] += 1
        entry["ns"] += t1 - t0
        entry["self_ns"] += t1 - t0 - child_ns[i]
        entry["bytes"] += nbytes
        entry["iters"] += iters
    return {"by_name": dict(by_name), "diag_ns": dict(diag_ns)}


def op_counts(spans, first: int, last: int) -> Counter:
    """Calls and computed bytes per op, keyed ``(solver, op, "calls"|"bytes")``.

    The pseudo-op ``TOP_LEVEL`` sums the bytes of ops not nested in another
    op, so each array crossing an op boundary in the solver counts once.
    """
    solver_of = {}
    counts = Counter()
    for i in range(first, last):
        name, parent, _, _, nbytes, _ = spans[i]
        solver_of[i] = name if name in SOLVERS else solver_of.get(parent)
        solver = solver_of[i]
        if solver is None or not name.startswith(OP_MODULES):
            continue
        counts[(solver, name, "calls")] += 1
        counts[(solver, name, "bytes")] += nbytes
        if not spans[parent][0].startswith(OP_MODULES):
            counts[(solver, TOP_LEVEL, "bytes")] += nbytes
    return counts
