"""Gradient-field smoothing: the first half of the two-step denoiser.

Given a noisy image ``u0`` with gradient field ``g0 = grad(u0)``, this module
minimizes

    iso_l1(grad_vec(g)) + 1/(2*lam) * ||g - g0||_2^2

over fields ``g`` constrained to stay gradients of some image.  The
constraint is enforced through the orthogonal projector onto gradient fields,
and the minimum is found by the dual projection iteration of :mod:`.dual`
on a tensor-valued dual variable ``p`` with the residual

    A(p) = grad_vec(project(adjoint_grad_tensor(p)) - g0/lam)

Both terms are gradients, so the residual runs through one scalar potential:

    A(p) = grad_vec(grad(y)),  y = solve(adjoint_grad(adjoint_grad_tensor(p)) - adjoint_grad(g0)/lam)

with ``solve`` the Poisson pseudo-solve of :class:`.PoissonPlan`.  That makes
``A(p)`` a discrete Hessian, symmetric because differences along distinct
axes commute, and the iteration keeps the dual symmetric.  The loop therefore
stores it packed: the ``d(d+1)/2`` channels ``l <= m`` of the layout of
:func:`.fields.hessian` (6 of 9 at d = 3), each off-diagonal channel counted
twice in the tuple norm; :func:`.fields.adjoint_hessian` takes it to the
potential's right-hand side and :func:`.fields.hessian` back.  The smoothed field is recovered from the
final dual as ``g = grad(u0 - lam*z)``, ``z = solve(adjoint_hessian(p))``, a
gradient by construction.  The result's ``p`` is the full ``(d, d)`` tensor.

:func:`dual_step` takes and returns full tensors.  It acts on the symmetric
part ``(p + p^T)/2`` of its input, which it checks for feasibility as given;
``A`` ignores the antisymmetric part, so a non-symmetric dual steps to the
symmetric dual its symmetric part steps to.  :func:`smoothing_kkt_residual`
likewise evaluates ``w = A(p)`` on the symmetric part and checks
``w + |w|*p`` on every entry of the given ``p``.

:func:`dual_step` is public at module level only: in ``__all__`` it would
collide with the reconstruction step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .dual import DualConfig, DualResult, iterate, require_feasible, stationarity_residual
from .errors import DimensionError, ParameterError
from .fields import adjoint_grad, adjoint_hessian, grad, hessian, validate_field
from .spectral import PoissonPlan

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


def _layout(d: int):
    """``(index, channels)`` of the packed dual.

    ``index[l, m]`` is the packed channel of tensor channel ``(l, m)``, so
    ``q[index]`` unpacks ``q``; ``channels`` lists it in C order, the order in
    which the tuple norm adds the squares.
    """
    index = np.empty((d, d), dtype=np.intp)
    upper = np.triu_indices(d)
    index[upper] = index.T[upper] = np.arange(len(upper[0]))
    return index, index.ravel().tolist()


def _pack(p: np.ndarray) -> np.ndarray:
    """Packed symmetric part ``(p_lm + p_ml)/2`` of a tensor field; exact for a symmetric one."""
    rows, cols = np.triu_indices(len(p))
    q = np.empty((len(rows),) + p.shape[2:])
    for k, (l, m) in enumerate(zip(rows, cols)):
        np.add(p[l, m], p[m, l], out=q[k])
        q[k] *= 0.5
    return q


def _data(g0: np.ndarray, lam: float) -> np.ndarray:
    """``adjoint_grad(g0)/lam``, the data term of the potential's Poisson equation."""
    f0 = adjoint_grad(g0)
    f0 /= lam
    return f0


def _potential(q, f0, plan):
    """``solve(adjoint_hessian(q) - f0)``, the potential of ``A`` at the packed dual ``q``."""
    s = adjoint_hessian(q)
    s -= f0
    return plan.solve(s, overwrite_x=True)


def _residual(q, out, f0, plan):
    """Packed ``A(q)``, written into ``out`` unless it is ``None``."""
    return hessian(_potential(q, f0, plan), out=out)


def _bind(g0, lam, plan):
    """The packed residual ``residual(q, out)`` of the data ``g0``, for :func:`iterate`."""
    return partial(_residual, f0=_data(g0, lam), plan=plan)


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


def dual_step(p: np.ndarray, g0: np.ndarray, cfg: SmoothingConfig) -> np.ndarray:
    """Apply one semi-implicit dual update to a feasible tensor dual.

    Inputs must be finite with pointwise tuple norms of ``p`` at most 1;
    the output is feasible again by construction.  The step acts on the
    symmetric part of ``p`` and returns a symmetric tensor.
    """
    g0, p = _checked(cfg.lam, g0, p, 1)
    tau = cfg.validate(len(p))
    require_feasible(p, channel_ndim=2)
    index, channels = _layout(len(p))
    residual = _bind(g0, cfg.lam, PoissonPlan(g0.shape[1:]))
    return iterate(residual, _pack(p), 1, tau, 1, 0.0, channels)[0][index]


def smooth_gradient_field(u_noisy: np.ndarray, cfg: SmoothingConfig) -> SmoothingResult:
    """Smooth the gradient field of a noisy image by dual projection.

    Starts from a zero dual and iterates until the pointwise max norm of the
    dual increment drops to ``cfg.tol`` or ``cfg.max_iters`` is reached.
    """
    u_noisy = validate_field(u_noisy, "u_noisy")
    d = u_noisy.ndim
    tau = cfg.validate(d)
    plan = PoissonPlan(u_noisy.shape)
    index, channels = _layout(d)
    # iterate copies the zero start; the data term is freed before the diagnostics run
    q, iters, change = iterate(
        _bind(grad(u_noisy), cfg.lam, plan),
        np.broadcast_to(0.0, (d * (d + 1) // 2,) + u_noisy.shape),
        1, tau, cfg.max_iters, cfg.tol, channels,
    )
    # the diagnostics read the packed dual: duplicated entries give identical
    # terms, so the KKT value equals smoothing_kkt_residual(p, ...) bit for bit
    kkt = stationarity_residual(_residual(q, None, _data(grad(u_noisy), cfg.lam), plan),
                                q, 1, channels)
    g = grad(u_noisy - cfg.lam * plan.solve(adjoint_hessian(q), overwrite_x=True))
    objective = smoothing_objective(g, grad(u_noisy), cfg.lam)
    return SmoothingResult(
        g=g,
        p=q[index],
        iters=iters,
        final_change=change,
        kkt_residual=kkt,
        objective=objective,
    )


def smoothing_objective(g: np.ndarray, g0: np.ndarray, lam: float) -> float:
    """Value of the smoothing functional at a candidate field ``g``."""
    g0, g = _checked(lam, g0, g, 0)
    diff = g - g0
    fidelity = 0.5 / lam * float(np.sum(np.square(diff, out=diff)))  # inner(diff, diff)
    del diff
    # iso_l1_norm(grad_vec(g), channel_ndim=2) bit for bit, one channel of g at a time
    squares = np.zeros_like(g[0])  # exact start: squares are never -0.0
    diffs = np.empty_like(g)
    for channel in g:
        for diff in grad(channel, out=diffs):
            squares += diff * diff
    return float(np.sum(np.sqrt(squares))) + fidelity


def smoothing_kkt_residual(
    p: np.ndarray, g0: np.ndarray, lam: float, plan: PoissonPlan | None = None
) -> float:
    """Max-abs residual of the dual stationarity conditions.

    With ``w = grad_vec(project(adjoint_grad_tensor(p)) - g0/lam)`` the
    fixed points satisfy ``w + |w| * p = 0`` entrywise, ``|w|`` being the
    pointwise tuple norm.  ``w`` is computed packed, from the symmetric part
    of ``p``.
    """
    g0, p = _checked(lam, g0, p, 1)
    if plan is None:
        plan = PoissonPlan(g0.shape[1:])
    s = adjoint_hessian(_pack(p))  # _potential, with the packed copy freed first
    s -= _data(g0, lam)
    w = hessian(plan.solve(s, overwrite_x=True))
    return stationarity_residual(w, p, 2, _layout(len(p))[1])
