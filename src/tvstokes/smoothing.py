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
potential's right-hand side and :func:`.fields.hessian` back.  The loop's
scratch dual, which the residual overwrites, is dead until ``hessian``
writes it, so the residual borrows it: from two channels up (d >= 2) the
right-hand side, the adjoint's two work grids and the in-place solve live
in its channels, and a step allocates only the solve's ping-pong grid and
``hessian``'s difference grid, one after the other.  The smoothed field is
recovered from the final dual as ``g = grad(u0 - lam*z)``,
``z = solve(adjoint_hessian(p))``, a gradient by construction.  The result's
``p`` is the full ``(d, d)`` tensor, unpacked last and in place: the packed
dual's buffer is resized to the tensor, so the two are never alive side by
side.

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
from .fields import _diff, adjoint_grad, adjoint_hessian, grad, hessian, validate_field
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


def _residual(q, out, f0, plan):
    """Packed ``A(q)``, written into ``out``, allocated first when ``None``.

    ``out`` is dead until :func:`.fields.hessian` writes it, so with two or
    more channels it lends them to the potential: the right-hand side
    ``adjoint_hessian(q) - f0`` goes to its last channel, the adjoint's two
    work grids are channels 0 and 1, and the solve runs in place.
    ``hessian`` reads the potential from the last channel before it writes
    that channel, last of all.  The result equals one computed in fresh
    arrays bit for bit.
    """
    if out is None:
        out = np.empty(q.shape)
    s = adjoint_hessian(q, out[-1], (out[0], out[1])) if len(out) > 1 else adjoint_hessian(q)
    s -= f0
    return hessian(plan.solve(s, overwrite_x=True), out=out)


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


def _unpack(p: np.ndarray) -> np.ndarray:
    """Unpack in place the packed dual held in the leading channels of the tensor ``p``."""
    d = len(p)
    flat = p.reshape((d * d,) + p.shape[2:])  # a view: p is C-ordered
    index = _layout(d)[0]
    # upper channels move to C order, each at or after its packed channel: last first
    for l, m in reversed(list(zip(*np.triu_indices(d)))):
        flat[l * d + m] = flat[index[l, m]]
    for l, m in zip(*np.tril_indices(d, -1)):
        p[l, m] = p[m, l]
    return p


def smooth_gradient_field(u_noisy: np.ndarray, cfg: SmoothingConfig) -> SmoothingResult:
    """Smooth the gradient field of a noisy image by dual projection.

    Starts from a zero dual and iterates until the pointwise max norm of the
    dual increment drops to ``cfg.tol`` or ``cfg.max_iters`` is reached.
    """
    u_noisy = validate_field(u_noisy, "u_noisy")
    d = u_noisy.ndim
    tau = cfg.validate(d)
    plan = PoissonPlan(u_noisy.shape)
    channels = _layout(d)[1]
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
    diff = grad(u_noisy)
    objective = _objective(g, np.subtract(g, diff, out=diff), cfg.lam)
    del diff
    # q owns its buffer and no view of it is alive: resize reallocates it in place of a copy
    q.resize((d, d) + u_noisy.shape)
    return SmoothingResult(
        g=g,
        p=_unpack(q),
        iters=iters,
        final_change=change,
        kkt_residual=kkt,
        objective=objective,
    )


def smoothing_objective(g: np.ndarray, g0: np.ndarray, lam: float) -> float:
    """Value of the smoothing functional at a candidate field ``g``."""
    g0, g = _checked(lam, g0, g, 0)
    return _objective(g, g - g0, lam)


def _objective(g: np.ndarray, diff: np.ndarray, lam: float) -> float:
    """:func:`smoothing_objective` from ``diff = g - g0``, which it overwrites."""
    fidelity = 0.5 / lam * float(np.sum(np.square(diff, out=diff)))  # inner(diff, diff)
    # iso_l1_norm(grad_vec(g), channel_ndim=2) bit for bit, one difference at a time
    squares = np.zeros_like(g[0])  # exact start: squares are never -0.0
    step = np.empty(g.shape[1:])  # C-ordered, as _diff writes it
    for channel in g:
        for axis in range(len(g)):
            _diff(channel, axis, step)
            squares += np.multiply(step, step, out=step)
    return float(np.sum(np.sqrt(squares, out=squares))) + fidelity


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
    s = adjoint_hessian(_pack(p))  # the potential, with the packed copy freed first
    s -= _data(g0, lam)
    w = hessian(plan.solve(s, overwrite_x=True))
    return stationarity_residual(w, p, 2, _layout(len(p))[1])
