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

whose potential ``y = m + adjoint_grad(p) - u0/lam`` the loop differentiates
one slab of rows at a time.  The potential is a :class:`.RowPotential`: its
rows ``[a, b)`` read rows ``[a - 1, b)`` of ``p``, so :func:`.dual.iterate`
computes each slab's rows of ``y``, and the row after them, inside the
update, a chunk of slabs at a time on the thread that steps them, and builds
no whole-grid ``y``; a row where two runs of slabs meet is computed from the
old dual before the step writes (see :mod:`.dual`).  The rows divide ``u0``
by ``lam`` into the caller's scratch, so the solve keeps no ``u0/lam`` grid.
:func:`solve_shifted` ends in :func:`.dual.solve`, which computes ``y`` of the
final dual once, the same rows over the whole grid, and takes the KKT value
from it; it recovers the image in place as
``u = u0 - lam*(y + u0/lam)``, which reproduces a constant ``u0`` exactly
where ``-lam*y`` may round, the quotient ``u0/lam`` again slab by slab in
slab-sized scratch.  The objective is :mod:`.dual`'s, shifted by ``m``, and
also works in slab-sized scratch, so the solve peaks at its final KKT value:
``u0``, the final dual and ``y``, plus three slab-sized grids, since
:func:`.dual.kkt_residual` writes one channel of a slab of the residual at a
time beside its norm and term grids.  Without a shift, ``m = None``,
this is plain isotropic TV denoising, which :mod:`.rof` solves through
:func:`solve_shifted`: the potential then adds no grid and the objective no
``<x, m>`` term.

:func:`dual_step` and :func:`solve_shifted` are public at module level only,
not in ``__all__``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual import (DualConfig, DualResult, RowPotential, _objective, iterate, kkt_residual,
                   require_feasible, solve)
from .errors import DimensionError, ParameterError, _check_positive
from .fields import (_adjoint_grad_rows, _spans, divergence, grad, pointwise_normalize,
                     validate_field)

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

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_positive("eps", self.eps)


@dataclass(frozen=True)
class ReconstructionResult(DualResult):
    """Reconstructed image plus the final dual and solve diagnostics."""

    u: np.ndarray
    p: np.ndarray


def matching_field(g: np.ndarray, eps: float) -> np.ndarray:
    """Divergence of the guarded direction field ``g/|g|``.

    This is the constant shift folded into the data term; scaling ``g``
    leaves it unchanged wherever ``|g|`` clears the ``eps`` guard.
    """
    g = np.asarray(g, dtype=np.float64)
    return divergence(pointwise_normalize(g, eps))


def _checked(lam, u0, v, s):
    """``(u0, v, s)`` as float64 after checking ``lam`` and that the vector
    field ``v`` and the scalar field ``s`` lie on the grid of ``u0``."""
    _check_positive("lam", lam)
    u0, v, s = (np.asarray(a, dtype=np.float64) for a in (u0, v, s))
    if v.shape != (u0.ndim,) + u0.shape or s.shape != u0.shape:
        raise DimensionError(
            f"field shapes disagree: data {u0.shape}, vector {v.shape}, scalar {s.shape}"
        )
    return u0, v, s


def _bind(u0, m, lam):
    """``potential(q) = adjoint_grad(q) + m - u0/lam``, whose :func:`.fields.grad` is ``A(q)``.

    A :class:`.RowPotential`: rows ``[a, b)`` of ``y`` read rows ``[a - 1, b)``
    of ``q``, so :func:`.dual.iterate` computes the rows of a chunk of slabs in
    the update, and the rows where two runs of slabs meet before the step
    writes; called on a dual, it gives the whole ``y`` from the same rows, slab
    by slab, for the final potential, the recovery and the KKT values.  It
    holds only ``u0`` and ``m``: each row range runs ``adjoint_grad``'s
    transposed stencils, adds ``m``, unless it is ``None`` (no shift), and
    subtracts ``u0/lam``, the quotient in the caller's scratch, with the bits
    of the whole-grid operations.
    """
    lam = np.array(lam)  # 0-d: see fields._MINUS_ONE

    def rows(q, out, span, scratch):
        _adjoint_grad_rows(q, out, span, scratch)
        a, b = span
        if m is not None:
            out += m[a:b]
        out -= np.divide(u0[a:b], lam, out=scratch[:b - a])

    return RowPotential(rows)


def dual_step(
    p: np.ndarray, u0: np.ndarray, m: np.ndarray, cfg: ReconstructionConfig
) -> np.ndarray:
    """Apply one projected dual step ``unit_clip(p - tau*A(p))`` to a feasible vector dual."""
    u0, p, m = _checked(cfg.lam, u0, p, m)
    require_feasible(p)
    return iterate(_bind(u0, m, cfg.lam), grad, p, cfg.resolve_tau(len(p)), 1, 0.0)[0]


def solve_shifted(u0, m, cfg: DualConfig) -> ReconstructionResult:
    """Run the dual solve for data ``u0`` and shift ``m`` and recover the image.

    ``u0`` must be a validated field; the objective is :mod:`.dual`'s, shifted
    by ``m``, or unshifted when ``m`` is ``None``.
    """
    p, u, stats = solve(_bind(u0, m, cfg.lam), grad, (u0.ndim,) + u0.shape, cfg)
    spans = _spans(u0.shape)
    quotient = np.empty((spans[0][1],) + u0.shape[1:])
    for a, b in spans:  # then u0 - lam*(y + u0/lam), in place
        u[a:b] += np.divide(u0[a:b], cfg.lam, out=quotient[:b - a])
    u *= cfg.lam
    np.subtract(u0, u, out=u)
    return ReconstructionResult(u=u, p=p, **stats, objective=_objective(
        u[None], lambda k, span, out: u0[slice(*span)], cfg.lam, m))


def reconstruct(
    u_noisy: np.ndarray, g: np.ndarray, cfg: ReconstructionConfig
) -> ReconstructionResult:
    """Rebuild an image whose gradient direction matches the smoothed field."""
    u_noisy = validate_field(u_noisy, "u_noisy")
    g = _checked(cfg.lam, u_noisy, g, u_noisy)[1]
    if not np.isfinite(g).all():
        raise ParameterError("g contains non-finite values")
    return solve_shifted(u_noisy, matching_field(g, cfg.eps), cfg)


def matching_objective(
    u: np.ndarray, u0: np.ndarray, g: np.ndarray, lam: float, eps: float
) -> float:
    """Value of the vector-matching functional at a candidate image.

    Its last term, ``-inner(grad(u), g/|g|)``, is ``inner(u, matching_field(g, eps))``.
    """
    u0, g, u = _checked(lam, u0, g, u)
    return _objective(u[None], lambda k, span, out: u0[slice(*span)], lam, matching_field(g, eps))


def matching_kkt_residual(
    p: np.ndarray, u0: np.ndarray, m: np.ndarray, lam: float
) -> float:
    """Max-abs residual of the dual stationarity conditions.

    With ``w = grad(m + adjoint_grad(p) - u0/lam)`` the fixed points satisfy
    ``w + |w| * p = 0`` entrywise.
    """
    u0, p, m = _checked(lam, u0, p, m)
    return kkt_residual(grad, _bind(u0, m, lam)(p), p)
