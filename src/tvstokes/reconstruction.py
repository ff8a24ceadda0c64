"""Image reconstruction from a smoothed gradient field: the second half.

Given the noisy image ``u0`` and the smoothed field ``g`` from the first
step, this module minimizes the vector-matching functional

    iso_l1(grad(u)) + 1/(2*lam) * ||u - u0||_2^2 - inner(grad(u), g/|g|)

over images ``u``.  Completing the square turns the last two terms into
``1/(2*lam) * ||u + lam*m - u0||_2^2`` up to a constant, where
``m = divergence(g/|g|)`` is a fixed scalar field computed once per solve.
The dual is solved by the iteration of :mod:`.dual` on a vector-valued dual
with the residual

    A(p) = grad(m + adjoint_grad(p) - u0/lam)

and the image is recovered as ``u = u0 - lam * (adjoint_grad(p) + m)``.
With ``m = 0`` this is plain isotropic TV denoising, which :mod:`.rof`
solves through :func:`solve_shifted`.

:func:`dual_step` and :func:`solve_shifted` are public at module level only,
not in ``__all__``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .dual import DualConfig, DualResult, checked_step, iterate, stationarity_residual
from .errors import DimensionError, ParameterError
from .fields import (
    adjoint_grad, divergence, grad, inner, iso_l1_norm, pointwise_normalize, validate_field,
)

__all__ = [
    "ReconstructionConfig", "ReconstructionResult", "matching_field", "reconstruct",
    "matching_objective", "matching_kkt_residual",
]


@dataclass(frozen=True)
class ReconstructionConfig(DualConfig):
    """Iteration parameters for the vector-matching solve.

    ``eps`` guards the normalization ``g/|g|`` where the smoothed field
    vanishes.
    """

    eps: float = 1e-8

    def validate(self, ndim: int) -> float:
        tau = super().validate(ndim)
        if not 0 < self.eps < np.inf:
            raise ParameterError(f"eps must be positive and finite, got {self.eps}")
        return tau


@dataclass(frozen=True)
class ReconstructionResult(DualResult):
    """Reconstructed image plus the final dual and solve diagnostics."""

    u: np.ndarray


def matching_field(g: np.ndarray, eps: float) -> np.ndarray:
    """Divergence of the guarded direction field ``g/|g|``.

    This is the constant shift folded into the data term; scaling ``g``
    leaves it unchanged wherever ``|g|`` clears the ``eps`` guard.
    """
    g = np.asarray(g, dtype=np.float64)
    return divergence(pointwise_normalize(g, eps))


def _residual(p, out, m, u0_scaled):
    """``A(p)``, written into ``out`` unless it is ``None``."""
    a = adjoint_grad(p)
    a += m
    a -= u0_scaled
    return grad(a, out=out)


def dual_step(
    p: np.ndarray, u0: np.ndarray, m: np.ndarray, cfg: ReconstructionConfig
) -> np.ndarray:
    """Apply one semi-implicit dual update to a feasible vector dual."""
    p = np.asarray(p, dtype=np.float64)
    u0 = np.asarray(u0, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    if p.shape != (u0.ndim,) + u0.shape or m.shape != u0.shape:
        raise DimensionError(
            f"field shapes disagree: dual {p.shape}, data {u0.shape}, matching {m.shape}"
        )
    tau = cfg.validate(u0.ndim)
    residual = partial(_residual, m=m, u0_scaled=u0 / cfg.lam)
    return checked_step(p, residual, tau, channel_ndim=1)


def solve_shifted(u0, m, cfg: DualConfig, tau: float, objective) -> ReconstructionResult:
    """Run the dual solve for data ``u0`` and shift ``m`` and recover the image.

    ``u0`` must be a validated field; ``objective(u)`` is the value reported
    for the recovered image.
    """
    # iterate copies the zero start; u0/lam is freed before the diagnostics run
    p, iters, change = iterate(
        partial(_residual, m=m, u0_scaled=u0 / cfg.lam),
        np.broadcast_to(0.0, (u0.ndim,) + u0.shape), 1, tau, cfg.max_iters, cfg.tol,
    )
    u = u0 - cfg.lam * (adjoint_grad(p) + m)
    return ReconstructionResult(
        u=u,
        p=p,
        iters=iters,
        final_change=change,
        kkt_residual=matching_kkt_residual(p, u0, m, cfg.lam),
        objective=objective(u),
    )


def reconstruct(
    u_noisy: np.ndarray, g: np.ndarray, cfg: ReconstructionConfig
) -> ReconstructionResult:
    """Rebuild an image whose gradient direction matches the smoothed field."""
    u_noisy = validate_field(u_noisy, "u_noisy")
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (u_noisy.ndim,) + u_noisy.shape:
        raise DimensionError(
            f"gradient field shape {g.shape} does not match image shape {u_noisy.shape}"
        )
    tau = cfg.validate(u_noisy.ndim)
    m = matching_field(g, cfg.eps)  # frozen across iterations
    return solve_shifted(
        u_noisy, m, cfg, tau, lambda u: matching_objective(u, u_noisy, g, cfg.lam, cfg.eps)
    )


def matching_objective(
    u: np.ndarray, u0: np.ndarray, g: np.ndarray, lam: float, eps: float
) -> float:
    """Value of the vector-matching functional at a candidate image."""
    if not 0 < lam < np.inf:  # NaN fails every comparison
        raise ParameterError(f"lam must be positive and finite, got {lam}")
    u = np.asarray(u, dtype=np.float64)
    u0 = np.asarray(u0, dtype=np.float64)
    if u.shape != u0.shape:
        raise DimensionError(f"shape mismatch: {u.shape} vs {u0.shape}")
    gu = grad(u)
    diff = u - u0
    return (
        iso_l1_norm(gu, channel_ndim=1)
        + 0.5 / lam * inner(diff, diff)
        - inner(gu, pointwise_normalize(g, eps))
    )


def matching_kkt_residual(
    p: np.ndarray, u0: np.ndarray, m: np.ndarray, lam: float
) -> float:
    """Max-abs residual of the dual stationarity conditions.

    With ``w = grad(m + adjoint_grad(p) - u0/lam)`` the fixed points satisfy
    ``w + |w| * p = 0`` entrywise.
    """
    if not 0 < lam < np.inf:
        raise ParameterError(f"lam must be positive and finite, got {lam}")
    p = np.asarray(p, dtype=np.float64)
    u0 = np.asarray(u0, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    return stationarity_residual(_residual(p, None, m, u0 / lam), p, channel_ndim=1)
