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
stores it packed: the ``d(d+1)/2`` channels ``l <= m`` in the order of
``fields._layout`` (6 of 9 at d = 3), each off-diagonal channel counted
twice in the tuple norm; :func:`.fields.adjoint_hessian` takes it to the
potential's right-hand side and :func:`.fields.hessian` back, a slab of rows
at a time.  The adjoint works slab by slab in slab-sized scratch, so the
potential holds two grids while it is computed, the right-hand side and the
in-place solve's work grid; :func:`.dual.iterate` then writes each slab's
step straight back into the one packed dual.  The driver ends in
:func:`.dual.solve`, whose final potential ``y`` gives the KKT value and the
smoothed field ``g = -lam*grad(y)``, a gradient by construction with
``grad_vec(g) = -lam*A(p)``: ``y`` differs from the primal potential
``(u0 - lam*solve(adjoint_hessian(p)))/(-lam)`` by a constant.  The objective
is :mod:`.dual`'s, unshifted.  The result keeps the dual packed, as ``packed``;
its ``p``, the full ``(d, d)`` tensor, is unpacked afresh on each access.

:func:`dual_step` takes and returns full tensors.  It acts on the symmetric
part ``(p + p^T)/2`` of its input, which it checks for feasibility as given;
``A`` ignores the antisymmetric part, so a non-symmetric dual steps to the
symmetric dual its symmetric part steps to.  :func:`smoothing_kkt_residual`
likewise evaluates ``w = A(p)`` on the symmetric part, and checks
``w + |w|*p`` on every entry of the given ``p``: :func:`.dual.kkt_residual`
writes the packed Hessian one channel of a slab at a time, adds the squares
of the ``d*d`` tensor entries in C order, each off-diagonal channel twice,
and checks entry ``(l, m)`` of ``p`` against the packed channel of
``(l, m)``, so no unpacked slab is built.

:func:`dual_step` is public at module level only: in ``__all__`` it would
collide with the reconstruction step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual import DualConfig, DualResult, _objective, iterate, kkt_residual, require_feasible, solve
from .errors import DimensionError, _check_positive
from .fields import (_diff, _layout, _pack, adjoint_grad, adjoint_hessian, grad, hessian,
                     validate_field)
from .spectral import PoissonPlan

__all__ = [
    "SmoothingConfig", "SmoothingResult", "smooth_gradient_field",
    "smoothing_objective", "smoothing_kkt_residual",
]


SmoothingConfig = DualConfig  # the iteration parameters of the smoothing solve


@dataclass(frozen=True)
class SmoothingResult(DualResult):
    """Smoothed gradient field plus the final dual and solve diagnostics.

    ``packed`` is the final dual as the loop stores it (see :func:`.fields._layout`).
    """

    g: np.ndarray
    packed: np.ndarray

    @property
    def p(self) -> np.ndarray:
        """The final dual as the full symmetric ``(d, d)`` tensor, a new array."""
        return self.packed[np.array(_layout(self.packed.ndim - 1)[0])]


def _bind(g0, lam, plan):
    """``potential(q) = solve(adjoint_hessian(q) - adjoint_grad(g0)/lam)`` for :func:`iterate`.

    Its :func:`.fields.hessian` is ``A(q)``.  The data term is computed once, the
    adjoint in slab-sized scratch and the solve in place, so a call holds its
    own grid and the solve's one work grid.
    """
    f0 = adjoint_grad(g0)
    f0 /= lam

    def potential(q):
        y = adjoint_hessian(q)
        y -= f0
        return plan.solve(y, overwrite_x=True)

    return potential


def _checked(lam, g0, f, lead: int):
    """``(g0, f)`` as float64 after checking ``lam``, that ``g0`` is a vector
    field and that ``f`` has shape ``g0.shape[:lead] + g0.shape``."""
    _check_positive("lam", lam)
    g0, f = np.asarray(g0, dtype=np.float64), np.asarray(f, dtype=np.float64)
    if g0.ndim < 2 or g0.ndim != g0.shape[0] + 1:
        raise DimensionError(f"not a vector field: shape {g0.shape}")
    if f.shape != g0.shape[:lead] + g0.shape:
        raise DimensionError(f"field shape {f.shape} does not match data shape {g0.shape}")
    return g0, f


def dual_step(p: np.ndarray, g0: np.ndarray, cfg: SmoothingConfig) -> np.ndarray:
    """Apply one projected dual step ``unit_clip(p - tau*A(p))`` to a feasible tensor dual.

    Inputs must be finite with pointwise tuple norms of ``p`` at most 1;
    the output is feasible again by construction.  The step acts on the
    symmetric part of ``p`` and returns a symmetric tensor.
    """
    g0, p = _checked(cfg.lam, g0, p, 1)
    require_feasible(p.reshape((-1,) + p.shape[2:]))
    index, channels = _layout(len(p))
    potential = _bind(g0, cfg.lam, PoissonPlan(g0.shape[1:]))
    return iterate(potential, hessian, _pack(p), cfg.resolve_tau(len(p)), 1, 0.0,
                   channels)[0][np.array(index)]


def smooth_gradient_field(u_noisy: np.ndarray, cfg: SmoothingConfig) -> SmoothingResult:
    """Smooth the gradient field of a noisy image by dual projection.

    Starts from a zero dual and iterates until the pointwise max norm of the
    dual increment drops to ``cfg.tol`` or ``cfg.max_iters`` is reached.
    """
    u_noisy = validate_field(u_noisy, "u_noisy")
    d = u_noisy.ndim
    # duplicated packed entries give identical terms: the KKT value is smoothing_kkt_residual's
    q, y, stats = solve(_bind(grad(u_noisy), cfg.lam, PoissonPlan(u_noisy.shape)), hessian,
                        (d * (d + 1) // 2,) + u_noisy.shape, cfg, _layout(d)[1])
    g = grad(y)  # then -lam*grad(y), in place
    del y
    g *= -cfg.lam

    def data(k, span, out):  # rows of channel k of grad(u_noisy), one halo row as in grad
        return _diff(u_noisy[span[0]:span[1] + 1], k, out)

    return SmoothingResult(g=g, packed=q, **stats, objective=_objective(g, data, cfg.lam))


def smoothing_objective(g: np.ndarray, g0: np.ndarray, lam: float) -> float:
    """Value of the smoothing functional at a candidate field ``g``."""
    g0, g = _checked(lam, g0, g, 0)
    return _objective(g, lambda k, span, out: g0[k, slice(*span)], lam)


def smoothing_kkt_residual(p: np.ndarray, g0: np.ndarray, lam: float) -> float:
    """Max-abs residual of the dual stationarity conditions.

    With ``w = grad_vec(project(adjoint_grad_tensor(p)) - g0/lam)`` the
    fixed points satisfy ``w + |w| * p = 0`` entrywise, ``|w|`` being the
    pointwise tuple norm.  ``w`` is computed from the symmetric part of
    ``p`` as the packed Hessian, one channel of a slab at a time, and each
    entry ``(l, m)`` of ``p`` is checked against the packed channel of
    ``(l, m)``.
    """
    g0, p = _checked(lam, g0, p, 1)
    y = _bind(g0, lam, PoissonPlan(g0.shape[1:]))(_pack(p))
    entries = _layout(len(p))[1]  # the packed channel of each tensor entry, in C order
    return kkt_residual(hessian, y, p.reshape((-1,) + p.shape[2:]), entries, entries)
