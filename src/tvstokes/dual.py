"""The projected dual step shared by every solver.

Each model solves its dual, a stack of channel grids along axis 0 with
pointwise tuple norms at most 1, by the projected step
``p <- unit_clip(p - tau * A(p))`` (Chambolle's variant, EMMCVPR 2005), which
is nonexpansive for ``tau <= 1/(2d)``.  It is not the semi-implicit division
``p <- (p - tau*w) / (1 + tau*|w|)``, ``w = A(p)``, of Chambolle's JMIV 2004
paper; both rules have the fixed points ``w + |w|*p = 0``, which
:func:`stationarity_residual` checks.  Every model's residual is a
forward-difference operator ``K`` of one potential of the dual,
``A(p) = K(y)`` with ``y = potential(p)``: :func:`.fields.hessian` in the
smoothing, :func:`.fields.grad` in reconstruction and ROF.  A model
supplies the potential and ``K`` as a kernel that writes any rows ``[a, b)``
of the first grid axis.  The smoothing's potential, a Poisson solve, is
global; the vector models' is a :class:`RowPotential`, whose rows ``[a, b)``
read rows ``[a - 1, b)`` of the dual alone.  Every solve ends in
:func:`solve`, which computes ``y`` of the final dual once and takes
:func:`kkt_residual` from it; the
driver recovers its primal solution from ``y``.  Every function here takes
one layout, channels stacked along axis 0.  ``_objective`` is every model's
primal objective, ``TV(x) + 1/(2*lam)*||x - x0||^2 + <x[0], m>``: the
smoothing has no shift, reconstruction's is ``m = divergence(g/|g|)``, as
``-<grad(u), g/|g|> = <u, m>``, and ROF has none.  It works slab by slab in
two slab-sized grids, so a solve's tail holds no whole-grid temporary: each
term sums every row of the first axis over the later axes, then the vector
of row sums once, a sum that depends on neither the slab size nor the
thread count.

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
potential, freed before the next.  A row potential is computed inside the
update instead, a chunk of slabs at a time, so no whole-grid ``y`` exists in
the loop (see below).  The clip divides channel by channel: one
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
tuple norm's squares (the witness's norm is written out inline) and, on a
lazy step that splits, one call per chunk that runs the kernel's steps (see
below), and its constant operands are 0-d arrays, which numpy does not
convert on every call.

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

The update runs on the calling thread and one worker thread, never on more
CPUs than the process's affinity mask holds, so ``taskset -c 0`` keeps it on
one.  A solve on two CPUs and four slabs or more, :func:`solve` or
:func:`iterate` called alone, starts a worker of its own and joins it before
it returns or raises, so no thread outlives it; a loop of ``dual_step`` calls
starts one per step, about 0.1 ms.  The slabs split into two contiguous
groups when each holds two slabs or more, else stay one group: the calling
thread runs the first, the worker the second, each in its own scratch.  On a
lazy step the witness's slab runs first on the calling thread, and decides
``lazy`` before any other slab is written: the slabs after it split, the
worker takes the larger half and starts at once, but waits for the witness's
verdict before its first write.  The worker's group is joined before
:func:`iterate` goes on, returns or raises; the groups' increment records are
combined in slab order, and an error on the worker is raised on the calling
thread, so a :class:`DivergenceError` comes at the same iteration.  The step
is pointwise, so the bytes do not depend on the number of threads.  A worker
thread has no worker to share: it never waits for itself.  Beyond the update
and the row potential computed inside it (below), only step 1's Poisson
solves split, in fixed halves, the second on the solve's worker (see
:mod:`.spectral`).  Step 1's transposed operator, ``adjoint_hessian``, is
bound by memory bandwidth and stays on the calling thread.

A row potential runs split with the update.  The kernel of a slab ``[a, b)``
reads rows ``[a, b]`` of ``y``, its *window*, and ``y[r]`` reads
``p[0][r - 1]`` and ``p[:, r]``, so a window's rows are computed in the update,
on the thread that owns the slab, before the slab is written, and a
whole-grid ``y`` is never built.  Each group steps its slabs in grid order, a
*run*, but for the wrap of a lazy step's rotated order to row 0, whose first
row reads no earlier one.  One call computes the rows of a *chunk*, the next
slabs of a run up to ``_CHUNK`` entries (one slab at least), and the row after
them, its halo, which is the next chunk's first row, so the window carries it
over, computed from the old dual: chunks in place of single slabs cut the
ufunc calls that the two threads make, each of which gives up the interpreter
lock and waits to take it back.  A row where two runs meet reads a slab that
another thread, or this one earlier, writes, so it is computed from the old
dual before the step's first write and before the worker starts: the cut
between the two groups, and on a lazy step the witness's first row, which is
also the halo of the rotated order's last slab.  Every entry of ``y`` sees the
operations of the whole-grid potential in the same order, so the bytes do not
depend on where the rows are computed.

A lazy step that splits steps most of its slabs in place, a chunk per call.
Each ufunc call of the two threads gives up the interpreter lock and waits
to take it back, and a slab's step takes some 40 of them, so calls on larger
grids cut the waits, and in place they need no larger scratch.  Each group
first steps one slab as above, in its residual scratch: on the calling
thread the witness's, which decides the verdict, and on the worker its first
slab, which it starts before the verdict.  Once the step stays lazy, the
group steps the rest of its run in chunks: the slabs of a row potential's
chunk (see above) not yet stepped, or, for a whole-grid potential, the next
slabs of the run, as many as its scratch holds.  Each channel of the kernel,
of :func:`.fields.grad`, or of the packed Hessian from the first difference
it shares with its row, goes into one chunk-sized grid, is scaled by ``tau``
and subtracted straight from ``p``; the tuple norm then reads ``p``, and the
clip divides ``p`` in place.  The steps are those of the kernel's own table
(``fields._BLOCKS``), each moved onto the chunk's grid, and the ufuncs are
those of the slab step, so the bytes are too.  The chunk's grids are carved
from the group's own scratch.  With a row potential the block grid is the
residual scratch and the norm grid the window's rows that the chunk has
read, below the halo row it carries over.  With a whole-grid potential a
group of a split step holds one allocation, a slab's residual and norm
grids: each slab it steps in that residual gets the kernel from its table,
its work grid where the norm grids go, and a chunk's work grid, a row longer
than the chunk, and its block grid fill it, then hold the norm grid and its
scratch.  So no group holds a kernel call's own work grid beside its
scratch, and the packed 3-d Hessian's chunks are four slabs.  A chunk whose
clip norm is not finite is divided and then checked: the old dual is finite,
with norms at most 1, so the increment is finite exactly when the new
entries are, and :class:`DivergenceError` comes at the same iteration.
Exact steps and steps that do not split, on one CPU or fewer than five
slabs, a 64x64 frame among them, keep the slab step alone: chunks in place
cut the lock's hand-offs, which one thread does not make.
"""

from __future__ import annotations

import math
import os
import threading
from contextlib import nullcontext
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import DivergenceError, ParameterError, _check_positive, _is_number
from .fields import _BLOCKS, _diff, _forward, _run, _spans, _sum_squares, max_tuple_norm
from .spectral import dual_step_bound

__all__ = [
    "DualConfig", "DualResult", "RowPotential", "require_feasible", "iterate",
    "stationarity_residual", "kkt_residual", "solve",
]

_ONE = np.array(1.0)  # the clip's floor, 0-d: see fields._MINUS_ONE
# Grid entries of a row potential that one call computes, and of a chunk that a split
# lazy step steps in place, in whole slabs, one at least: on a 2-vCPU Xeon with two
# threads, chunks of four 16K-entry slabs in place of single slabs took a 64^3 step-2
# step and a 160x160x16 ROF step 15-20% less time, and 64K chunks in place 4-13% less
# than 32K ones
_CHUNK = 1 << 16
_WORKER = "tvstokes-dual"  # the name of a solve's worker thread (see _Worker)


def _workers() -> int:
    """Threads a solve may split over: at most two, and no more than the CPUs this process
    may run on, so ``taskset -c 0`` keeps a solve on one."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return min(2, cpus)


class Outcome:
    """A value one thread gives and another waits for: what a call on the worker thread
    returned or raised, ``(result, None)`` or ``(None, error)``, or the witness's verdict
    on a lazy step.  ``value`` is ``None`` until given; :meth:`wait` blocks until then."""

    __slots__ = ("_held", "value")

    def __init__(self):
        self._held, self.value = threading.Lock(), None
        self._held.acquire()

    def give(self, value) -> None:
        self.value = value
        self._held.release()

    def wait(self):
        with self._held:
            return self.value


class _Worker:
    """One solve's worker thread, started when built: it runs each call given to
    :meth:`submit` until :meth:`close`.  Each call is waited for before the next is given,
    so one slot and one lock hand it over.  In its ``with`` block it is this thread's
    worker in ``_LOCAL``, and it is closed on exit, also on a raise."""

    __slots__ = ("_call", "_given", "_thread")

    def __init__(self):
        self._call, self._given = None, threading.Lock()
        self._given.acquire()
        self._thread = threading.Thread(target=self._serve, name=_WORKER, daemon=True)
        self._thread.start()

    def submit(self, fn, *args) -> Outcome:
        """Run ``fn(*args)`` on the worker thread, under this thread's numpy error state."""
        outcome = Outcome()
        self._call = (fn, args, np.geterr(), outcome)
        self._given.release()
        return outcome

    def close(self) -> None:
        """Hand the thread ``None``, which ends it, and join it."""
        self._call = None
        self._given.release()
        self._thread.join()

    def __enter__(self):
        _LOCAL.worker = self
        return self

    def __exit__(self, *raised) -> None:
        _LOCAL.worker = None
        self.close()

    def _serve(self) -> None:
        while True:
            self._given.acquire()
            if self._call is None:
                return
            (fn, args, errstate, outcome), self._call = self._call, None
            try:
                with np.errstate(**errstate):
                    value = (fn(*args), None)
            except BaseException as error:  # raised where the outcome is read
                value = (None, error)
            del fn, args  # nothing of a finished call stays alive while the thread waits
            outcome.give(value)
            del value, outcome


class _Local(threading.local):
    worker = None  # the worker of the splitting solve this thread runs, if any


_LOCAL = _Local()


def _splitting(spans):
    """The context of a solve over the slabs ``spans``, which gives this thread's worker or
    ``None``: a new :class:`_Worker` on two workers and four slabs or more (where an update
    or a Poisson solve splits), unless a solve on this thread holds one, which it shares."""
    worker = _LOCAL.worker
    if worker is not None or len(spans) < 4 or _workers() < 2:
        return nullcontext(worker)
    return _Worker()


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


class RowPotential:
    """A potential computed by rows, such as the vector models' ``y = adjoint_grad(q) + ...``.

    ``rows(q, out, (a, b), scratch)`` writes rows ``[a, b)`` of the first grid
    axis of the potential of the dual ``q`` into the C-ordered grid ``out``,
    reading only rows ``[a - 1, b)`` of ``q``, given a C-ordered ``scratch``
    grid of ``b - a`` rows or more.  :func:`iterate` computes each slab's rows
    inside its update; called on a dual, the potential returns the whole
    grid, from the same function run slab by slab.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = rows

    def __call__(self, q) -> np.ndarray:
        y = np.empty(q.shape[1:])
        spans = _spans(y.shape)
        scratch = np.empty((spans[0][1],) + y.shape[1:])
        for a, b in spans:
            self.rows(q, y[a:b], (a, b), scratch)
        return y


def iterate(potential, kernel, p, tau: float, max_iters: int, tol: float, channels=None):
    """Iterate from the dual ``p``; returns ``(p, iters, final_change)``.

    Stops once the pointwise max norm of the increment drops to ``tol`` or
    after ``max_iters >= 1`` steps; a non-finite increment raises.
    ``channels`` lists the stored channel of each tuple entry (see the module
    docstring); by default every channel of ``p``, once, in order.

    The residual is ``A(p) = K(y)`` with ``y = potential(p)``:
    ``kernel(y, out, (a, b))`` writes rows ``[a, b)`` of the first grid axis
    of ``K(y)`` into ``out``, C-ordered, or allocates it when ``out`` is
    ``None``, reading rows ``[a, b]`` of ``y`` and, for the Hessian, the row
    after; it may run on the worker thread.  A :class:`RowPotential` is
    computed inside the update, and the kernel gets each slab's window of
    ``y`` alone, rows ``[a, b + 1)`` as rows ``[0, b - a]`` (see the module
    docstring); any other potential is called on the whole dual once per
    step.  Only a private copy of ``p``
    lives through a potential: each group's slab residual and two slab-sized
    norm grids live one step.  Each step equals ``unit_clip(p - tau*A(p))``
    bit for bit, on one thread or two.  The increment's ``max_tuple_norm`` is
    computed, bit for bit, on the first and the last allowed step and on a
    step whose witness norm is at most ``tol`` (see the module docstring); a
    slab whose clip norm is not finite gets its own exact increment on any
    step.
    """
    p = np.array(p, dtype=np.float64, order="C")
    grid = p.shape[1:]
    spans = _spans(grid)
    slabs = [(i, span, p[:, slice(*span)]) for i, span in enumerate(spans)]  # views of p
    work = (spans[0][1],) + grid[1:]  # a slab's grid
    slab, row = math.prod(work), math.prod(grid[1:])
    rowwise = potential.rows if isinstance(potential, RowPotential) else None
    with _splitting(spans) as worker:  # joined before this returns or raises
        # the kernel's table, on a grid where every step splits: a lazy step splits when the
        # slabs after the witness's make two groups of two or more; beside a row potential's
        # window no work grid of the kernel's fits
        table = _BLOCKS.get(kernel)  # its work shape, on the last slab, says if it has one
        worked = table is not None and table(grid[1:], grid[0] - spans[-1][0], 0)[1]
        if worker is None or len(slabs) < 5 or rowwise is not None and worked:
            table = None
        if channels is None:
            channels = range(len(p))
        # a row potential's window of y: a chunk's rows and the row after them
        chunk = max(1, _CHUNK // slab)  # slabs
        frame = (min(chunk * work[0] + 1, grid[0]),) + work[1:]
        size = len(p) * slab  # a slab's residual, also the row function's scratch
        pool = None  # a split group's one scratch without a row potential, and where it is cut
        if rowwise is not None:
            size = max(size, math.prod(frame))
        elif table is not None:
            # an in-place chunk's kernel work grid, a row longer than the chunk, and its block grid
            # take no more than a slab's residual, its norm grids and the kernel's work grid
            head = slab + row if worked else 0
            chunk = max(1, min(chunk, (size + 2 * slab + head - row) // (2 * slab)))
            pool = max(size + 2 * slab, 2 * chunk * slab + row)
            pool = (pool, (pool + row) // 2)
        # what every group's update reads; 0-d operands: see fields._MINUS_ONE
        loop = (kernel, rowwise, table, p, np.array(tau), tol, channels, range(len(p)), size,
                (2,) + work, frame, chunk, pool)
        witness = None  # (slab, flat grid index in it) where the last exact increment peaked
        for iters in range(1, max_iters + 1):
            lazy = witness is not None and iters < max_iters
            order = slabs[witness[0]:] + slabs[:witness[0]] if lazy else slabs  # witness's first
            # this thread's group and the worker's, when each holds two slabs or more; this
            # thread also runs the witness's slab, first, so the worker takes the larger half
            rest = len(order) - lazy
            cut = lazy + (rest // 2 if worker is not None and rest > 3 else rest)
            mine, theirs = order[:cut], order[cut:]
            if rowwise is None:
                y = potential(p)
            else:  # the rows where the groups' runs meet, from the old dual: each group's first
                y = {}
                for run in (mine, theirs):
                    a = run[0][1][0] if run else 0
                    if a > 0:
                        edge = np.empty((2,) + grid[1:])  # the row, then its scratch
                        rowwise(p, edge[:1], (a, a + 1), edge[1:])
                        y[a] = edge[0]
            ys = [y] * (1 + bool(theirs))  # one reference per group
            del y
            outcome = verdict = None
            try:
                if theirs:  # started now, it writes nothing before the witness's verdict
                    verdict = Outcome() if lazy else None
                    outcome = worker.submit(_update, ys, theirs, lazy, None, iters, loop, verdict)
                _LOCAL.worker = None  # busy: a solve that the kernel runs here starts its own
                # the witness's slab first, before any other is written
                lazy, peak = _update(ys, mine, lazy, witness[1] if lazy else None, iters, loop,
                                     verdict)
            finally:
                _LOCAL.worker = worker
                if verdict is not None and verdict.value is None:  # the witness's slab raised
                    verdict.give(False)
                if outcome is not None:  # joined, also when this thread raised
                    outcome.wait()
            if outcome is not None:
                result, error = outcome.value
                if error is not None:
                    raise error
                if result[1][0] > peak[0]:  # in slab order: the first of equal peaks stays
                    peak = result[1]
            if lazy:
                continue
            change = math.sqrt(peak[0])  # max_tuple_norm of the increment
            witness = peak[1:]
            if change <= tol:
                break
    return p, iters, change


def _update(ys, slabs, lazy: bool, at, iters: int, loop, verdict=None):
    """Step the ``slabs`` of the dual in place, in order; return ``(lazy, peak)``.

    ``ys`` holds references to the whole potential or, for a row potential,
    to the rows where the step's runs meet, by row; this group takes one and
    drops it after its last kernel call, so a potential that no other group
    still reads is freed before the norm grids are allocated.  A row
    potential's rows are computed here a chunk of slabs at a time, with the
    row after them, before the chunk's first slab is written, but for the rows
    where two runs meet and a chunk's first row that the chunk before in this
    group's run computed as its last, which the window carries over.  Given the flat index ``at``
    of the witness, the first slab's tuple norm of the increment there
    decides ``lazy`` before the slab is written, and is given to ``verdict``;
    given a ``verdict`` and no ``at``, the group waits for it before its
    first write and takes its ``lazy`` from it.  A group given a ``verdict``
    runs on a lazy step that splits: once its first slab is stepped and the
    step stays lazy, it steps the rest of each chunk in place, from the
    kernel's table (see the module docstring); without a row potential, a
    split step runs the kernel from its table into each slab's residual too,
    in one allocation with the chunks' grids.  ``peak`` is the largest
    exact squared increment of the group, its slab and flat index; ``loop``
    holds what :func:`iterate` computes once per solve.
    """
    kernel, rowwise, table, p, tau, tol, channels, stored, size, work, frame, chunk, pool = loop
    y, window, norms = ys.pop(), None, None
    inplace = verdict is not None and table is not None
    if rowwise is not None:
        step = np.empty(size)  # a slab's residual, then its step
        window = np.empty(frame)  # a chunk's rows of y and the row after them
        scratch = step[:window.size].reshape(frame)
        if inplace:  # a chunk's norm grid, then its block grid
            pool = window.ravel(), step
    elif table is not None:  # a slab's residual and norm grids, and the chunks', in one allocation
        step = np.empty(pool[0])
        norms = step[size:size + math.prod(work)].reshape(work)
        # the kernel's work grid, then the norm grid, and the block grid, then the norms' scratch
        pool = step[:pool[1]], step[pool[1]:]
    else:
        step = np.empty(size)
    last, end, peak = slabs[-1][0], p.shape[1], (-1.0, 0, 0)
    more = k = 0  # the chunk's slabs not yet stepped; the next slab
    while k < len(slabs):
        i, span, ps = slabs[k]
        a, b = span
        if not more and (rowwise is not None or inplace):  # a chunk: this slab and the run's next
            top = a  # rows [a, top) of y and the row after them, the halo
            for _, (c, d), _ in slabs[k:k + chunk]:
                if c != top:  # the wrap to the grid's first row ends a run
                    break
                more, top = more + 1, d
            if rowwise is not None:
                halo = top < end
                if a > 0:  # where two runs meet, or the halo of the chunk before
                    window[0] = y[a] if k == 0 else window[a - base]
                # the rows computed here: the halo too, unless the next run starts there
                first, stop = a + (a > 0), top + (halo and k + more < len(slabs))
                if first < stop:
                    rowwise(p, window[first - a:stop - a], (first, stop), scratch)
                if halo and stop == top:
                    window[top - a] = y[top]
                base = a
        if k and inplace and lazy:  # the chunk's slabs yet to step, in place
            tail, row = p.shape[2:], math.prod(p.shape[2:])
            if rowwise is None:  # from row a of y, which up to two rows follow
                src, rest = y.ravel()[a * row:], min(end - top, 2)
            else:  # from row a of the window, and its halo row unless the chunk ends the grid
                src, rest = window.ravel()[(a - base) * row:], int(top < end)
            pc = p[:, a:top]
            grid = pool[1][:pc[0].size].reshape(pc.shape[1:])
            _blocks(table(tail, top - a, rest), src, pool[0], grid, tau, pc)
            n = pool[0][:grid.size].reshape(grid.shape)
            _sum_squares(map(pc.__getitem__, channels), n, grid)
            np.sqrt(n, out=n)
            np.maximum(n, _ONE, out=n)
            finite = math.isfinite(n.max())
            for c in stored:
                np.divide(pc[c], n, out=pc[c])
            if not finite:  # the old dual is clipped: the increment is finite iff the new dual is
                _sum_squares(map(pc.__getitem__, channels), n, grid)
                if not math.isfinite(n.max()):
                    raise DivergenceError(f"dual update diverged at iteration {iters}")
            k, more = k + more, 0
            continue
        k, more = k + 1, more - 1
        qs = step[:ps.size].reshape(ps.shape)  # then qs <- unit_clip(ps - tau*qs)
        if rowwise is not None:
            kernel(window[a - base:b - base + (b < end)], qs, (0, b - a))
        elif table is not None:  # the kernel, its work grid where the norm grids go
            _forward(y, qs, span, table, step[size:])
        else:
            kernel(y, qs, span)
        # no scratch lives through a potential; the norms come after the kernel's
        # work grid, y and the window are freed, as one slab's residual is dual-sized
        if i == last:
            y = window = pool = None
        if norms is None:
            norms = np.empty(work)
        rows = b - a
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
                verdict = None
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


def _blocks(steps, src, scratch, grid, tau, pc) -> None:
    """Step the dual's chunk ``pc`` in place by a kernel's ``steps`` from the flat grid ``src``.

    ``steps`` is an entry of the kernel's table in ``fields._BLOCKS`` (see
    ``fields._forward``); the first differences go into a work grid at the
    front of the flat ``scratch``.  A step of the table writes channel ``c``
    of a stacked output from entry ``c * size``, ``size`` being the grid's:
    it runs with its ``to`` slice, and a flat ``zero`` slice, moved back by
    that, and a middle-axis ``zero`` without its channel index, into
    ``grid``, which is scaled by ``tau`` and subtracted from ``pc[c]``.
    """
    _, work, blocks = steps
    if work is None:  # grad's steps, all from src
        blocks = (((), blocks),)
    else:
        du = scratch[:math.prod(work)].reshape(work)
        mid = du.ravel()
    size, dst = grid.size, grid.ravel()
    for first, seconds in blocks:
        if first:
            _run(src, mid, du, first)
        for hi, lo, to, zero, flat in seconds:
            c = to.start // size
            at = c * size
            if zero is not None:
                zero = slice(zero.start - at, zero.stop - at, zero.step) if flat else zero[1:]
            _run(mid if first else src, dst, grid,
                 ((hi, lo, slice(to.start - at, to.stop - at), zero, flat),))
            np.multiply(grid, tau, out=grid)
            np.subtract(pc[c], grid, out=pc[c])


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
    with _splitting(_spans(shape[1:])):  # step 1's final Poisson solve splits too
        p, iters, change = iterate(potential, kernel, np.broadcast_to(0.0, shape),  # copied
                                   cfg.resolve_tau(len(shape) - 1), cfg.max_iters, cfg.tol,
                                   channels)
        y = potential(p)
    return p, y, {"iters": iters, "final_change": change,
                  "kkt_residual": kkt_residual(kernel, y, p, channels)}


def _objective(x: np.ndarray, data, lam: float, m=None) -> float:
    """``TV(x) + 1/(2*lam) * sum_k ||x[k] - x0[k]||^2``, plus ``<x[0], m>`` given a shift ``m``.

    ``data(k, (a, b), out)`` returns rows ``[a, b)`` of channel ``k`` of ``x0``,
    which it may write into the slab-sized grid ``out``.  The terms are taken
    slab by slab in two slab-sized grids: the TV term, each channel's squared
    distance and the shift each sum every row of the first axis over the later
    axes into a vector of row sums, which is then summed once, so the value
    does not depend on the slab size (on a 1-d grid it is one sum of the
    whole grid).
    """
    dims = x.shape[1:]
    spans, inner = _spans(dims), tuple(range(1, len(dims)))
    sums = np.empty((len(x) + (1 if m is None else 2), dims[0]))  # TV, each fit, the shift
    squares, step = np.empty((2, spans[0][1]) + dims[1:])
    for a, b in spans:
        rows, work = squares[:b - a], step[:b - a]
        diffs = (_diff(xc, axis, work)  # one halo row, as in grad
                 for xc in x[:, a:b + 1] for axis in range(len(dims)))
        _sum_squares(diffs, rows, work)
        np.sum(np.sqrt(rows, out=rows), axis=inner, out=sums[0, a:b])
        for k in range(len(x)):
            np.subtract(x[k, a:b], data(k, (a, b), work), out=work)
            np.sum(np.square(work, out=work), axis=inner, out=sums[1 + k, a:b])
        if m is not None:
            np.sum(np.multiply(x[0, a:b], m[a:b], out=work), axis=inner, out=sums[-1, a:b])
    totals = [float(np.sum(row)) for row in sums]
    value = totals[0] + 0.5 / lam * sum(totals[1:1 + len(x)])
    if m is not None:
        value += totals[-1]
    return value
