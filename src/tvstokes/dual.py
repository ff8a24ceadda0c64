"""The semi-implicit dual projection core shared by every solver.

Each model solves its dual, a field ``p`` with pointwise tuple norms at most 1
over ``channel_ndim`` leading axes, by the iteration
``p <- unit_clip(p - tau * A(p))`` (Chambolle, JMIV 2004), which is
nonexpansive for ``tau <= 1/(2d)``.  A model supplies its residual ``A(p)``,
the map recovering its primal solution from ``p`` and its objective.

A dual may be stored packed: ``channels`` then lists, in the order the tuple
norm adds their squares, the stored channel of every entry of the tuple, so
a stored channel listed twice counts twice.  Reconstruction and ROF store
their vector dual as it is.  The smoothing stores the ``d(d+1)/2`` channels
of its symmetric tensor dual along one leading axis and lists each
off-diagonal channel twice, in the C order of the ``(d, d)`` tensor, so its
norms equal the full tensor's bit for bit.

:func:`iterate` is the one loop: the drivers run it from a zero dual, and each
model's ``dual_step`` checks its input with :func:`require_feasible` and runs
one step of it, so single steps retrace a driver.  A step calls the residual
on the whole grid, then runs the pointwise update slab by slab over the first
grid axis, so that a slab's channels stay in cache across its passes; the
update is pointwise, so the result does not depend on the slab size.

The increment norm only decides whether to stop, so a step computes it
exactly only when it may stop or may diverge: the first step, the last one
allowed, a step whose clip norm is not finite somewhere, and a step whose
*witness* does not rule out a stop.  The witness is the grid point where the
last exact increment peaked; its tuple norm, added in the same order as the
full one, is a lower bound of the max, so a witness above ``tol`` proves the
step cannot stop.  Every other step runs only the scaled step and the clip
plus one max of the clip norm, 17 passes per slab over a 3-channel vector
dual and 38 over the 6-channel packed one instead of 25 and 61.  A finite
clip norm means a finite step, and a clipped dual is bounded, so a skipped
increment is finite too: results, iteration counts and the iteration at
which :class:`DivergenceError` is raised are those of a loop that computes
the increment every step, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import DivergenceError, ParameterError
from .fields import max_tuple_norm
from .spectral import dual_step_bound

__all__ = ["DualConfig", "DualResult", "require_feasible", "iterate", "stationarity_residual"]

# Grid entries per slab of the pointwise update: few enough that a slab's
# channels stay in L2 cache across the 17-61 passes of one step.  On a Xeon
# with 4 MiB L2 and one thread, 16K-32K entries timed best for the packed 64^3
# and the vector 160x160x16 dual; whole grids took 25-35% longer per update.
_SLAB = 1 << 15


@dataclass(frozen=True)
class DualConfig:
    """Iteration parameters of one dual solve.

    ``tau=None`` resolves to the guaranteed step ``1/(2d)``.  Larger values
    are accepted but flagged by :meth:`tau_exceeds_bound`.
    """

    lam: float = 0.1
    tau: float | None = None
    max_iters: int = 200
    tol: float = 1e-6

    def resolve_tau(self, ndim: int) -> float:
        return dual_step_bound(ndim) if self.tau is None else float(self.tau)

    def tau_exceeds_bound(self, ndim: int) -> bool:
        return self.resolve_tau(ndim) > dual_step_bound(ndim) + 1e-15

    def validate(self, ndim: int) -> float:
        """Check parameter ranges and return the resolved step size."""
        for name in ("lam", "tau", "tol"):  # True would pass as 1.0
            if isinstance(getattr(self, name), bool):
                raise ParameterError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not 0 < self.lam < math.inf:  # NaN fails every comparison
            raise ParameterError(f"lam must be positive and finite, got {self.lam}")
        if (isinstance(self.max_iters, bool) or not isinstance(self.max_iters, Integral)
                or self.max_iters < 1):
            raise ParameterError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if not self.tol >= 0:  # a NaN tol would disable the stop rule
            raise ParameterError(f"tol must be nonnegative, got {self.tol}")
        tau = self.resolve_tau(ndim)
        if not 0 < tau < math.inf:
            raise ParameterError(f"tau must be positive and finite, got {tau}")
        return tau


@dataclass(frozen=True)
class DualResult:
    """Final dual of a solve and its diagnostics."""

    p: np.ndarray
    iters: int
    final_change: float
    kkt_residual: float
    objective: float


def require_feasible(p, channel_ndim: int) -> None:
    """Raise unless ``p`` is finite with pointwise tuple norms at most 1."""
    if not max_tuple_norm(p, channel_ndim=channel_ndim) <= 1.0 + 1e-12:  # NaN fails too
        raise ParameterError("dual field violates the pointwise unit bound or is not finite")


def iterate(residual, p, channel_ndim: int, tau: float, max_iters: int, tol: float,
            channels=None):
    """Iterate from the dual ``p``; returns ``(p, iters, final_change)``.

    Stops once the pointwise max norm of the increment drops to ``tol`` or
    after ``max_iters >= 1`` steps; a non-finite increment raises.
    ``channels`` lists the stored channel of each tuple entry (see the module
    docstring); by default every channel over the first ``channel_ndim`` axes,
    once, in C order.

    ``residual(p, out)`` writes ``A(p)`` into ``out``.  The work arrays, a
    private copy of ``p`` and a scratch dual swapped every step plus two
    slab-sized grids, are allocated once.  Each step equals
    ``unit_clip(p - tau*A(p))`` bit for bit.  The increment's
    ``max_tuple_norm`` is computed, bit for bit, on the first and the last
    allowed step and on a step whose clip norm is not finite or whose
    witness norm is at most ``tol`` (see the module docstring); a second pass
    over the slabs computes it when the step's own pass has skipped it.
    """
    p = np.array(p, dtype=np.float64, order="C")
    q = np.empty_like(p)
    grid = p.shape[channel_ndim:]
    row = math.prod(grid[1:])  # grid entries per index of the first grid axis
    rows = max(1, _SLAB // row)  # the slab's span of the first grid axis
    lead = (slice(None),) * channel_ndim
    slabs = [(lead + (slice(a, a + rows),), slice(min(rows, grid[0] - a)))
             for a in range(0, grid[0], rows)]
    norm, scratch = np.empty((2, min(rows, grid[0])) + grid[1:])
    maxima = np.empty(len(slabs))
    peaks = [0] * len(slabs)  # where each slab's last exact increment peaked
    if channels is None:
        channels = list(np.ndindex(p.shape[:channel_ndim]))
    witness = None  # the index in p of the tuple where the last exact increment peaked
    for iters in range(1, max_iters + 1):
        residual(p, q)
        lazy = witness is not None and iters < max_iters
        for i, (slab, part) in enumerate(slabs):  # then q <- unit_clip(p - tau*q)
            ps, qs, n, t = p[slab], q[slab], norm[part], scratch[part]
            np.multiply(qs, tau, out=qs)
            np.subtract(ps, qs, out=qs)
            _sum_squares((qs[c] for c in channels), n, t)
            np.sqrt(n, out=n)
            np.divide(qs, np.maximum(n, 1.0, out=n), out=qs)
            if lazy:
                maxima[i] = n.max()  # finite iff the slab's step is; a NaN stays a NaN
            else:
                maxima[i], peaks[i] = _increment(ps, qs, n, t, channels)
        if lazy and not (math.isfinite(maxima.max()) and _norm_at(p, q, witness, channels) > tol):
            lazy = False
            for i, (slab, part) in enumerate(slabs):
                maxima[i], peaks[i] = _increment(p[slab], q[slab], norm[part], scratch[part],
                                                 channels)
        if not lazy:
            i = int(maxima.argmax())  # the first NaN, if any
            change = float(np.sqrt(maxima[i]))  # max_tuple_norm(q - p)
            if not math.isfinite(change):
                raise DivergenceError(f"dual update diverged at iteration {iters}")
            witness = lead + np.unravel_index(i * rows * row + peaks[i], grid)
        p, q = q, p
        if not lazy and change <= tol:
            break
    return p, iters, change


def _increment(ps, qs, norm: np.ndarray, scratch: np.ndarray, channels):
    """Overwrite ``ps`` with ``ps - qs``; return its max squared tuple norm and where it is."""
    np.subtract(ps, qs, out=ps)  # minus the increment: p is not read again
    _sum_squares((ps[c] for c in channels), norm, scratch)
    j = int(norm.argmax())  # the first NaN, if any
    return norm.flat[j], j


def _norm_at(p: np.ndarray, q: np.ndarray, at: tuple, channels) -> float:
    """Tuple norm of ``p - q`` at the grid point of ``at``, added as :func:`_sum_squares` adds."""
    d = p[at] - q[at]
    total = 0.0
    for c in channels:  # in order: np.sum adds 8 or more terms pairwise
        total += d[c] * d[c]
    return math.sqrt(total)


def _sum_squares(grids, out: np.ndarray, scratch: np.ndarray) -> None:
    """``out = sum(g*g for g in grids)`` in order; a grid may be ``scratch`` itself."""
    for i, g in enumerate(grids):
        if i:
            out += np.multiply(g, g, out=scratch)
        else:
            np.multiply(g, g, out=out)


def stationarity_residual(w: np.ndarray, p: np.ndarray, channel_ndim: int,
                          channels=None) -> float:
    """Max-abs of ``w + |w| * p`` for ``w = A(p)`` and ``|w|`` the pointwise tuple norm.

    ``channels`` lists the stored channel of ``w`` for each tuple entry, as
    for :func:`iterate`; by default ``w``'s channels over the first
    ``channel_ndim`` axes of ``p``, in C order.  ``p`` is either stored like
    ``w`` or holds one channel per tuple entry, in C order over its first
    ``channel_ndim`` axes.  The result is zero exactly at fixed points of
    the update, and NaN if ``w`` or ``p`` holds a NaN.  Computed channel by
    channel in two grid scratches.
    """
    entries = list(np.ndindex(p.shape[:channel_ndim]))
    if channels is None:
        channels = entries
    norm, term = np.empty((2,) + p.shape[channel_ndim:])
    _sum_squares((w[c] for c in channels), norm, term)
    np.sqrt(norm, out=norm)
    worst = []
    for e, c in zip(entries, entries if p.shape == w.shape else channels):
        np.multiply(norm, p[e], out=term)
        term += w[c]
        worst.append(np.abs(term, out=term).max())
    return float(np.max(worst))  # np.max keeps a NaN that Python's max may drop
