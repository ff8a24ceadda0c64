"""Gradient-field smoothing: the first half of the two-step denoiser.

Given a noisy image ``u0`` with gradient field ``g0 = grad(u0)``, this module
minimizes

    iso_l1(grad_vec(g)) + 1/(2*lam) * ||g - g0||_2^2

over fields ``g`` constrained to stay gradients of some image.  The
constraint is enforced through the orthogonal projector onto gradient fields,
and the minimum is found by the dual projection iteration of :mod:`.dual`
on a tensor-valued dual variable ``p`` with the residual

    A(p) = grad_vec(project(adjoint_grad_tensor(p)) - g0/lam)

The smoothed field is recovered from the final dual as
``g = g0 - lam * project(adjoint_grad_tensor(p))``.

:func:`dual_step` is public at module level only: in ``__all__`` it would
collide with the reconstruction step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .dual import DualConfig, DualResult, checked_step, iterate, stationarity_residual
from .errors import DimensionError, ParameterError
from .fields import adjoint_grad_tensor, grad, grad_vec, inner, iso_l1_norm, validate_field
from .spectral import PoissonPlan, project_gradient_field

__all__ = [
    "SmoothingConfig", "SmoothingResult", "smooth_gradient_field",
    "smoothing_objective", "smoothing_kkt_residual",
]


class SmoothingConfig(DualConfig):
    """Iteration parameters for the gradient-field smoothing solve."""


@dataclass(frozen=True)
class SmoothingResult(DualResult):
    """Smoothed gradient field plus the final dual and solve diagnostics."""

    g: np.ndarray


def _residual(p, out, g0_scaled, plan):
    """``A(p)``, written into ``out`` unless it is ``None``."""
    v = project_gradient_field(adjoint_grad_tensor(p), plan)
    v -= g0_scaled
    return grad_vec(v, out=out)


def _checked(lam, g0, f, lead: int):
    """``(g0, f)`` as float64 after checking ``lam``, that ``g0`` is a vector
    field and that ``f`` has shape ``g0.shape[:lead] + g0.shape``."""
    if not 0 < lam < np.inf:  # NaN fails every comparison
        raise ParameterError(f"lam must be positive and finite, got {lam}")
    g0, f = np.asarray(g0, dtype=np.float64), np.asarray(f, dtype=np.float64)
    if g0.ndim < 2 or g0.ndim != g0.shape[0] + 1:
        raise DimensionError(f"not a vector field: shape {g0.shape}")
    if f.shape != g0.shape[:lead] + g0.shape:
        raise DimensionError(f"field shape {f.shape} does not match data shape {g0.shape}")
    return g0, f


def _bind(p, g0, lam, plan=None):
    """Check the dual ``p`` against the data; return ``(residual, p)`` for :func:`iterate`."""
    g0, p = _checked(lam, g0, p, 1)
    if plan is None:
        plan = PoissonPlan(g0.shape[1:])
    return partial(_residual, g0_scaled=g0 / lam, plan=plan), p


def dual_step(p: np.ndarray, g0: np.ndarray, cfg: SmoothingConfig) -> np.ndarray:
    """Apply one semi-implicit dual update to a feasible tensor dual.

    Inputs must be finite with pointwise tuple norms of ``p`` at most 1;
    the output is feasible again by construction.
    """
    residual, p = _bind(p, g0, cfg.lam)
    return checked_step(p, residual, cfg.validate(len(p)), channel_ndim=2)


def smooth_gradient_field(u_noisy: np.ndarray, cfg: SmoothingConfig) -> SmoothingResult:
    """Smooth the gradient field of a noisy image by dual projection.

    Starts from a zero dual and iterates until the pointwise max norm of the
    dual increment drops to ``cfg.tol`` or ``cfg.max_iters`` is reached.
    """
    u_noisy = validate_field(u_noisy, "u_noisy")
    d = u_noisy.ndim
    tau = cfg.validate(d)
    plan = PoissonPlan(u_noisy.shape)
    g0 = grad(u_noisy)
    # iterate copies the zero start; g0/lam is freed before the diagnostics run
    p, iters, change = iterate(
        *_bind(np.broadcast_to(0.0, (d, d) + u_noisy.shape), g0, cfg.lam, plan),
        2, tau, cfg.max_iters, cfg.tol,
    )
    g = g0 - cfg.lam * project_gradient_field(adjoint_grad_tensor(p), plan)
    return SmoothingResult(
        g=g,
        p=p,
        iters=iters,
        final_change=change,
        kkt_residual=smoothing_kkt_residual(p, g0, cfg.lam, plan),
        objective=smoothing_objective(g, g0, cfg.lam),
    )


def smoothing_objective(g: np.ndarray, g0: np.ndarray, lam: float) -> float:
    """Value of the smoothing functional at a candidate field ``g``."""
    g0, g = _checked(lam, g0, g, 0)
    diff = g - g0
    return iso_l1_norm(grad_vec(g), channel_ndim=2) + 0.5 / lam * inner(diff, diff)


def smoothing_kkt_residual(
    p: np.ndarray, g0: np.ndarray, lam: float, plan: PoissonPlan | None = None
) -> float:
    """Max-abs residual of the dual stationarity conditions.

    With ``w = grad_vec(project(adjoint_grad_tensor(p)) - g0/lam)`` the
    fixed points satisfy ``w + |w| * p = 0`` entrywise, ``|w|`` being the
    pointwise tuple norm.
    """
    residual, p = _bind(p, g0, lam, plan)
    return stationarity_residual(residual(p, None), p, channel_ndim=2)
