"""The projected dual step shared by every solver.

Each model solves its dual, a stack of channel grids along axis 0 with
pointwise tuple norms at most 1, by the projected step
``p <- unit_clip(p - tau * A(p))`` (Chambolle's variant, EMMCVPR 2005), which
is nonexpansive for ``tau <= 1/(2d)``.  It is not the semi-implicit division
``p <- (p - tau*w) / (1 + tau*|w|)``, ``w = A(p)``, of Chambolle's JMIV 2004
paper; both rules have the fixed points ``w + |w|*p = 0``, which
:func:`stationarity_residual` checks.  Every model's residual is a
forward-difference operator ``K`` of one potential computed from the whole
dual, ``A(p) = K(y)`` with ``y = potential(p)``: :func:`.fields.hessian` in
the smoothing, :func:`.fields.grad` in reconstruction and ROF.  A model
supplies the potential and ``K`` as a kernel that writes any rows ``[a, b)``
of the first grid axis.  Every solve ends in :func:`solve`, which computes
``y`` of the final dual once and takes :func:`kkt_residual` from it; the
driver recovers its primal solution from ``y``.  Every function here takes
one layout, channels stacked along axis 0.  ``_objective`` is every model's
primal objective, ``TV(x) + 1/(2*lam)*||x - x0||^2 + <x[0], m>``: the
smoothing has no shift, reconstruction's is ``m = divergence(g/|g|)``, as
``-<grad(u), g/|g|> = <u, m>``, and ROF has none.

A dual may be stored packed: ``channels`` then lists, in the order the tuple
norm adds their squares, the stored channel of every entry of the tuple, so
a stored channel listed twice counts twice.  Reconstruction and ROF store
their vector dual as it is.  The smoothing stores the ``d(d+1)/2`` channels
of its symmetric tensor dual along one leading axis and lists each
off-diagonal channel twice, in the C order of the ``(d, d)`` tensor, so its
norms equal the full tensor's bit for bit.

:func:`iterate` is one loop over steps: :func:`solve` runs it from a zero dual,
and each model's ``dual_step`` checks its input with :func:`require_feasible`
and runs one step, so single steps retrace a driver.  A step computes the
potential, then updates slab by slab over the first grid axis: the kernel
writes the slab's residual into slab-sized scratch, where the scaled step and
the clip run while the slab's channels stay in cache, and the clipped step goes
straight back into ``p``.  Once ``y`` is computed the old dual is read only
slab by slab, so a solve holds one dual, and all loop scratch, each group's
slab residual and two norm grids, lives one step: allocated after its
potential, freed before the next.  The clip divides channel by channel: one
division of the stacked slab by its norm grid, broadcast over the channels,
makes numpy allocate an iterator buffer every call, two grids of a 64x64
frame, and runs slower there.  The update is pointwise, so the result
depends neither on the slab size nor on the slab order.  :func:`kkt_residual` evaluates the
stationarity residual through the same kernel, a slab at a time.

The per-shape work runs once per solve, or once per shape: :func:`iterate`
takes its slabs and their views of ``p`` once, before the first step, and
the kernels and the potentials read their steps from the tables of
:mod:`.fields` and :class:`.PoissonPlan`.  A step only allocates its scratch,
views it and issues its ufuncs: it cuts its slab list into groups, calls
each group's update once, and makes no generator or helper call beyond the
tuple norm's squares (the witness's norm is written out inline), and its
constant operands are 0-d arrays, which numpy does not convert on every call.

The increment norm only decides whether to stop, so a step computes it
exactly only when it may stop: on the first step, on the last one allowed
and on a step whose *witness* does not rule out a stop.  An exact step keeps
one record of its largest increment, the squared norm, slab and flat index,
which gives the norm and the next witness.  The witness's slab runs first, and
its tuple norm, added in the same order as the full one, is a lower bound of
the max, so a witness above ``tol`` proves the step cannot stop before any
slab is written; otherwise every slab gets its exact increment before it is
written.  Every other step runs only the scaled step and the clip plus one
max of the clip norm: 17 passes per slab over a 3-channel vector dual and 38
over the 6-channel packed one, where an exact step takes 28 and 67, its clip
written back after the increment.  A finite clip norm means a finite step,
and a clipped dual is bounded, so a skipped increment is finite too; a slab
whose clip norm is not finite gets its exact increment before it is written,
and a non-finite one raises.  Results, iteration counts and the iteration at
which :class:`DivergenceError` is raised are therefore those of a loop that
computes the increment every step, bit for bit.

The update runs on the calling thread and one private worker thread, never
on more CPUs than the process's affinity mask holds, so ``taskset -c 0``
keeps it on one.  The worker starts with the first update that splits and
then waits for the next, and a forked child starts its own.  The slabs split
into two contiguous groups when each holds two slabs or more, else stay one
group: the calling thread runs the first, the worker the second, each in its
own scratch.  On a lazy step the witness's slab runs first, alone, on the
calling thread, and decides ``lazy`` before any other slab is written: the
slabs after it split, the worker takes the larger half and starts at once,
but waits for the witness's verdict before its first write.  The worker's
group is joined before :func:`iterate` goes on, returns or raises; the
groups' increment records are combined in slab order, and an error on the
worker is raised on the calling thread, so a :class:`DivergenceError` comes
at the same iteration.  The step is pointwise, so the bytes do not depend on
the number of threads.  An update on the worker never splits, so the worker
never waits for itself.  Only the update is split: the potential's
transposed operators are bound by memory bandwidth, and splitting its matrix
products changes OpenBLAS's rounding.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import DivergenceError, ParameterError, _check_positive, _is_number
from .fields import _spans, _sum_squares, _total_variation, max_tuple_norm
from .spectral import dual_step_bound

__all__ = [
    "DualConfig", "DualResult", "require_feasible", "iterate", "stationarity_residual",
    "kkt_residual", "solve",
]

_ONE = np.array(1.0)  # the clip's floor, 0-d: see fields._MINUS_ONE
_WORKER = "tvstokes-dual"  # the name of the update's worker thread (see ._worker)


def _workers() -> int:
    """Threads an update may split over: at most two, and no more than the CPUs this
    process may run on, so ``taskset -c 0`` keeps a solve on one; one on the worker thread,
    which never waits for itself."""
    if threading.current_thread().name == _WORKER:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return min(2, cpus)


@dataclass(frozen=True)
class DualConfig:
    """Iteration parameters of one dual solve, the home of their defaults, checked when built.

    ``tau=None`` resolves to the guaranteed step ``1/(2d)``.  Larger values
    are accepted but flagged by :meth:`tau_exceeds_bound`.  :func:`.run_denoise`
    and the CLI read their defaults from these fields.
    """

    lam: float = 0.1
    tau: float | None = None
    max_iters: int = 200
    tol: float = 1e-6

    def __post_init__(self) -> None:
        _check_positive("lam", self.lam)
        if self.tau is not None:
            _check_positive("tau", self.tau)
        if not _is_number(self.max_iters, Integral) or self.max_iters < 1:
            raise ParameterError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if not (_is_number(self.tol) and self.tol >= 0):  # a NaN tol would disable the stop rule
            raise ParameterError(f"tol must be nonnegative, got {self.tol!r}")

    def resolve_tau(self, ndim: int) -> float:
        return dual_step_bound(ndim) if self.tau is None else float(self.tau)

    def tau_exceeds_bound(self, ndim: int) -> bool:
        return self.resolve_tau(ndim) > dual_step_bound(ndim) + 1e-15


@dataclass(frozen=True)
class DualResult:
    """Diagnostics of a solve; each model adds its solution and final dual."""

    iters: int
    final_change: float
    kkt_residual: float
    objective: float


def require_feasible(p) -> None:
    """Raise unless ``p`` is finite with pointwise tuple norms at most 1."""
    if not max_tuple_norm(p) <= 1.0 + 1e-12:  # NaN fails too
        raise ParameterError("dual field violates the pointwise unit bound or is not finite")


def iterate(potential, kernel, p, tau: float, max_iters: int, tol: float, channels=None):
    """Iterate from the dual ``p``; returns ``(p, iters, final_change)``.

    Stops once the pointwise max norm of the increment drops to ``tol`` or
    after ``max_iters >= 1`` steps; a non-finite increment raises.
    ``channels`` lists the stored channel of each tuple entry (see the module
    docstring); by default every channel of ``p``, once, in order.

    The residual is ``A(p) = K(y)`` with ``y = potential(p)``:
    ``kernel(y, out, (a, b))`` writes rows ``[a, b)`` of the first grid axis
    of ``K(y)`` into ``out``, C-ordered, or allocates it when ``out`` is
    ``None``; it may run on the worker thread.  Only a private copy of
    ``p`` lives through a potential: each group's slab residual and two
    slab-sized norm grids live one step.  Each step equals
    ``unit_clip(p - tau*A(p))`` bit for bit, on one thread or two.  The
    increment's ``max_tuple_norm`` is computed, bit for bit, on the first and
    the last allowed step and on a step whose witness norm is at most ``tol``
    (see the module docstring); a slab whose clip norm is not finite gets its
    own exact increment on any step.
    """
    p = np.array(p, dtype=np.float64, order="C")
    grid = p.shape[1:]
    spans = _spans(grid)
    slabs = [(i, span, p[:, slice(*span)]) for i, span in enumerate(spans)]  # views of p
    work = (spans[0][1],) + grid[1:]  # a slab's grid
    if channels is None:
        channels = range(len(p))
    # what every group's update reads; 0-d operands: see fields._MINUS_ONE
    loop = (kernel, np.array(tau), tol, channels, range(len(p)), len(p) * math.prod(work),
            (2,) + work)
    workers = _workers()
    witness = None  # (slab, flat grid index in it) where the last exact increment peaked
    for iters in range(1, max_iters + 1):
        lazy = witness is not None and iters < max_iters
        order = slabs[witness[0]:] + slabs[:witness[0]] if lazy else slabs  # the witness's first
        rest = order[1:] if lazy else order
        # this thread's group and the worker's, when each holds two slabs or more; this
        # thread also runs the witness's slab, so the worker takes the larger half
        cut = len(rest) // 2 if workers > 1 and len(rest) > 3 else len(rest)
        mine, theirs = rest[:cut], rest[cut:]
        ys = [potential(p)] * (lazy + bool(mine) + bool(theirs))  # one reference per update
        peak = (-1.0, 0, 0)  # the step's largest exact squared increment, its slab and index
        outcome = verdict = None
        try:
            if theirs:  # started now, it writes nothing before the witness's verdict
                from . import _worker  # loaded by the first split: see its docstring

                verdict = _worker.Outcome() if lazy else None
                outcome = _worker.submit(_update, ys, theirs, lazy, None, iters, loop, verdict)
            if lazy:  # the witness's slab, on this thread, before any other is written
                lazy, peak = _update(ys, order[:1], True, witness[1], iters, loop, verdict)
            records = [_update(ys, mine, lazy, None, iters, loop)] if mine else []
        finally:
            if verdict is not None and verdict.value is None:  # the witness's slab raised
                verdict.give(False)
            if outcome is not None:  # joined, also when this thread raised
                outcome.wait()
        if outcome is not None:
            result, error = outcome.value
            if error is not None:
                raise error
            records.append(result)
        if lazy:
            continue
        for _, record in records:  # in slab order: the first of equal peaks stays
            if record[0] > peak[0]:
                peak = record
        change = math.sqrt(peak[0])  # max_tuple_norm of the increment
        witness = peak[1:]
        if change <= tol:
            break
    return p, iters, change


def _update(ys, slabs, lazy: bool, at, iters: int, loop, verdict=None):
    """Step the ``slabs`` of the dual in place, in order; return ``(lazy, peak)``.

    ``ys`` holds references to the potential; this group takes one and drops
    it after its last kernel call, so a potential that no other group still
    reads is freed before the norm grids are allocated.  Given the flat index
    ``at`` of the witness, the first slab's tuple norm of the increment there
    decides ``lazy`` before the slab is written, and is given to ``verdict``;
    given a ``verdict`` and no ``at``, the group waits for it before its first
    write and takes its ``lazy`` from it.  ``peak`` is the largest exact
    squared increment of the group, its slab and flat index; ``loop`` holds
    what :func:`iterate` computes once per solve.
    """
    kernel, tau, tol, channels, stored, size, work = loop
    y = ys.pop()
    step = np.empty(size)  # a slab's residual, then its step
    last, norms, peak = slabs[-1][0], None, (-1.0, 0, 0)
    for i, span, ps in slabs:
        qs = step[:ps.size].reshape(ps.shape)
        kernel(y, qs, span)  # then qs <- unit_clip(ps - tau*qs)
        # no scratch lives through a potential; the norms come after the kernel's
        # work grid and y are freed, as one slab's residual is dual-sized
        if i == last:
            del y
        if norms is None:
            norms = np.empty(work)
        rows = span[1] - span[0]
        n, t = norms[0, :rows], norms[1, :rows]
        np.multiply(qs, tau, out=qs)
        np.subtract(ps, qs, out=qs)
        _sum_squares(map(qs.__getitem__, channels), n, t)
        np.sqrt(n, out=n)
        np.maximum(n, _ONE, out=n)
        if at is not None:
            # the witness's norm of ps - qs/n, added as a slab's norms are, in Python
            # floats: a ufunc per single value takes several times as long
            scale, grid, total = n.item(at), n.size, 0.0
            for c in channels:  # in order: np.sum adds 8 or more terms pairwise
                d = ps.item(c * grid + at) - qs.item(c * grid + at) / scale
                total += d * d
            lazy, at = math.sqrt(total) > tol, None  # NaN fails too
            if verdict is not None:  # the worker's group may write now
                verdict.give(lazy)
        elif verdict is not None:
            lazy, verdict = verdict.wait(), None
        # the clip, channel by channel; the loop variable holds no view of the scratch
        if lazy and math.isfinite(n.max()):  # finite iff the slab's step is
            for c in stored:
                np.divide(qs[c], n, out=ps[c])
            continue
        for c in stored:
            np.divide(qs[c], n, out=qs[c])
        top, j = _increment(ps, qs, n, t, channels)
        if not math.isfinite(top):
            raise DivergenceError(f"dual update diverged at iteration {iters}")
        if top > peak[0]:
            peak = (top, i, j)
        np.copyto(ps, qs)
    return lazy, peak


def _increment(ps, qs, norm: np.ndarray, scratch: np.ndarray, channels):
    """Overwrite ``ps`` with ``ps - qs``; return its max squared tuple norm and where it is."""
    np.subtract(ps, qs, out=ps)  # minus the increment: p is not read again
    _sum_squares(map(ps.__getitem__, channels), norm, scratch)
    j = int(norm.argmax())  # the first NaN, if any
    return norm.flat[j], j


def stationarity_residual(w: np.ndarray, p: np.ndarray, channels=None) -> float:
    """Max-abs of ``w + |w| * p`` for ``w = A(p)`` and ``|w|`` the pointwise tuple norm.

    ``p`` is stored like ``w``, and ``channels`` lists the stored channel of
    each tuple entry, as for :func:`iterate`; by default every channel, in
    order.  The result is zero exactly at fixed points of the update, and NaN
    if ``w`` or ``p`` holds a NaN.  Computed channel by channel in two grid
    scratches.
    """
    if channels is None:
        channels = range(len(p))
    norm, term = np.empty((2,) + p.shape[1:])
    _sum_squares((w[c] for c in channels), norm, term)
    np.sqrt(norm, out=norm)
    worst = []
    for c in range(len(p)):
        np.multiply(norm, p[c], out=term)
        term += w[c]
        worst.append(np.abs(term, out=term).max())
    return float(np.max(worst))  # np.max keeps a NaN that Python's max may drop


def kkt_residual(kernel, y, p: np.ndarray, channels=None) -> float:
    """:func:`stationarity_residual` of ``w = K(y)`` and ``p``, one slab of ``w`` at a time.

    ``kernel(y, None, (a, b))`` returns rows ``[a, b)`` of ``w``, as for
    :func:`iterate`; the result equals ``stationarity_residual(w, p, ...)``
    bit for bit, since a max is exact.
    """
    return float(np.max([
        stationarity_residual(kernel(y, None, span), p[:, slice(*span)], channels)
        for span in _spans(p.shape[1:])
    ]))


def solve(potential, kernel, shape, cfg: DualConfig, channels=None):
    """Run :func:`iterate` from a zero dual of ``shape``; return ``(p, y, stats)``.

    The step is ``cfg``'s for the grid ``shape[1:]``.  ``y = potential(p)``
    of the final dual is computed once; ``stats`` holds every
    :class:`DualResult` field but ``objective``.  A potential the caller holds
    no other reference to is freed, with its data, on return.
    """
    p, iters, change = iterate(potential, kernel, np.broadcast_to(0.0, shape),  # copied
                               cfg.resolve_tau(len(shape) - 1), cfg.max_iters, cfg.tol, channels)
    y = potential(p)
    return p, y, {"iters": iters, "final_change": change,
                  "kkt_residual": kkt_residual(kernel, y, p, channels)}


def _objective(x: np.ndarray, data, lam: float, m=None) -> float:
    """``TV(x) + 1/(2*lam) * sum_k ||x[k] - x0[k]||^2``, plus ``<x[0], m>`` given a shift ``m``.

    ``data(k, out)`` returns channel ``k`` of ``x0``, which it may write into
    the grid ``out``.  The objective holds at most one grid and a slab.
    """
    value = _total_variation(x)
    diff = np.empty(x.shape[1:])

    def squared_norm(k):  # channel k's term of inner(x - x0, x - x0)
        np.subtract(x[k], data(k, diff), out=diff)
        return float(np.sum(np.square(diff, out=diff)))

    value += 0.5 / lam * sum(squared_norm(k) for k in range(len(x)))
    if m is not None:  # inner(x[0], m) in diff
        value += float(np.sum(np.multiply(x[0], m, out=diff)))
    return value
