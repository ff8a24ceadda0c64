"""The semi-implicit dual projection core shared by every solver.

Each model solves its dual, a field ``p`` with pointwise tuple norms at most 1
over ``channel_ndim`` leading axes (1 for a vector dual, 2 for a tensor dual),
by the iteration ``p <- unit_clip(p - tau * A(p))`` (Chambolle, JMIV 2004),
which is nonexpansive for ``tau <= 1/(2d)``.  A model supplies its residual
``A(p)``, the map recovering its primal solution from ``p`` and its objective.

:func:`iterate` is the one loop: the drivers run it from a zero dual, and each
model's ``dual_step`` runs one step of it, so single steps retrace a driver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ParameterError
from .fields import max_tuple_norm, tuple_norm, unit_clip
from .spectral import dual_step_bound

__all__ = ["DualConfig", "DualResult", "checked_step", "iterate", "stationarity_residual"]


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
        if not 0 < self.lam < math.inf:  # NaN fails every comparison
            raise ParameterError(f"lam must be positive and finite, got {self.lam}")
        if self.max_iters < 1:
            raise ParameterError(f"max_iters must be >= 1, got {self.max_iters}")
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


def checked_step(p, residual, tau: float, channel_ndim: int) -> np.ndarray:
    """One step of :func:`iterate` from a feasible ``p``."""
    if max_tuple_norm(p, channel_ndim=channel_ndim) > 1.0 + 1e-12:
        raise ParameterError("dual field violates the pointwise unit bound")
    return iterate(residual, p, channel_ndim, tau, 1, 0.0)[0]


def iterate(residual, p, channel_ndim: int, tau: float, max_iters: int, tol: float):
    """Iterate from the dual ``p``; returns ``(p, iters, final_change)``.

    Stops once the pointwise max norm of the increment drops to ``tol`` or
    after ``max_iters >= 1`` steps; a non-finite increment raises.
    """
    for iters in range(1, max_iters + 1):
        p_next = unit_clip(p - tau * residual(p), channel_ndim=channel_ndim)
        change = max_tuple_norm(p_next - p, channel_ndim=channel_ndim)
        if not math.isfinite(change):
            raise DivergenceError(f"dual update diverged at iteration {iters}")
        p = p_next
        if change <= tol:
            break
    return p, iters, change


def stationarity_residual(w: np.ndarray, p: np.ndarray, channel_ndim: int) -> float:
    """Max-abs of ``w + |w| * p`` for ``w = A(p)`` and ``|w|`` the pointwise tuple norm.

    It is zero exactly at fixed points of the update.
    """
    return float(np.max(np.abs(w + tuple_norm(w, channel_ndim=channel_ndim) * p)))
