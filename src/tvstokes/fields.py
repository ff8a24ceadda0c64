"""Discrete differential calculus on d-dimensional grids.

Field layout conventions used throughout the package:

* scalar field   -- float64 array of shape ``(N1, ..., Nd)``
* vector field   -- ``(d, N1, ..., Nd)``, channel ``l`` holds the forward
  difference of a scalar field along axis ``l``
* tensor field   -- ``(d, d, N1, ..., Nd)``, channel ``(l, m)`` holds the
  axis-``m`` difference of vector channel ``l``

Channels lead so that grid-shaped reductions broadcast against them and every
axis-wise stencil streams the contiguous last axis.  The one-sided difference
stencil is ``[-1, +1]`` with a zero last row, which encodes homogeneous
Neumann boundaries; consequently a differentiated field always vanishes on
the final slice of its own axis.

Two private kernels carry the four operators: ``_grad`` under ``grad`` and
``grad_vec``, its transpose ``_adjoint`` under the two adjoints.  Both work
on one contiguous channel grid at a time, since a ufunc over a whole stacked
field makes numpy allocate iterator buffers of several grids.

Operators in this module assume finite float inputs (see
:func:`validate_field`); only cheap structural checks are performed here.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, ParameterError

__all__ = [
    "validate_field",
    "mode_apply",
    "grad",
    "grad_vec",
    "adjoint_grad",
    "adjoint_grad_tensor",
    "divergence",
    "tuple_norm",
    "unit_clip",
    "pointwise_normalize",
    "l2_norm",
    "iso_l1_norm",
    "max_tuple_norm",
    "inner",
]


def validate_field(u, name: str = "field") -> np.ndarray:
    """Return ``u`` as a float64 array after checking grid invariants.

    Every axis must have length >= 2 (the difference stencil needs two
    samples) and all values must be finite.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim < 1:
        raise DimensionError(f"{name} must have at least one axis")
    if any(n < 2 for n in u.shape):
        raise DimensionError(
            f"{name} has a degenerate axis in shape {u.shape}; every axis "
            "must have length >= 2"
        )
    if not np.isfinite(u).all():
        raise ParameterError(f"{name} contains non-finite values")
    return u


def _grad(u, lead: int) -> np.ndarray:
    """Forward differences of each channel ``u[c]``, ``c`` over the first ``lead`` axes.

    Output ``[c][axis]`` is the axis-``axis`` difference, zero on the last slice.
    """
    u = np.asarray(u, dtype=np.float64)
    dims = u.shape[lead:]
    out = np.empty(u.shape[:lead] + (len(dims),) + dims)
    for c in np.ndindex(u.shape[:lead]):
        for axis, dst in enumerate(out[c]):
            src, dst = u[c].swapaxes(0, axis), dst.swapaxes(0, axis)
            np.subtract(src[1:], src[:-1], out=dst[:-1])
            dst[-1] = 0.0
    return out


def _adjoint(p, lead: int) -> np.ndarray:
    """Transpose of :func:`_grad`: per channel, the axis-summed transpose stencil.

    Each axis term is rounded once before it is added, and the sum starts at
    ``-0.0``, the exact additive identity, so the result matches a term-wise
    evaluation bit for bit, signed zeros included.
    """
    p = np.asarray(p, dtype=np.float64)
    out = np.full(p.shape[:lead] + p.shape[lead + 1:], -0.0)
    for c in np.ndindex(p.shape[:lead]):
        for axis, v in enumerate(p[c]):
            dst, v = out[c].swapaxes(0, axis), v.swapaxes(0, axis)
            first, mid, last = dst[:1], dst[1:-1], dst[-1:]  # views, also in 1-d
            first -= v[:1]
            mid += v[:-2] - v[1:-1]
            last += v[-2:-1]
    return out


def mode_apply(u: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    """Apply a matrix to one axis of ``u``, leaving all other axes untouched.

    Output entry ``(..., j, ...)`` equals ``sum_k mat[j, k] * u[..., k, ...]``
    with ``j, k`` running along ``axis``.
    """
    u = np.asarray(u, dtype=np.float64)
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2:
        raise DimensionError(f"mode_apply needs a matrix, got shape {mat.shape}")
    if not -u.ndim <= axis < u.ndim:
        raise DimensionError(f"axis {axis} out of range for {u.ndim}-d field")
    axis %= u.ndim
    if mat.shape[1] != u.shape[axis]:
        raise DimensionError(
            f"matrix of shape {mat.shape} cannot act on axis {axis} of "
            f"length {u.shape[axis]}"
        )
    moved = np.moveaxis(u, axis, 0)
    out = mat @ moved.reshape(mat.shape[1], -1)
    out = out.reshape((mat.shape[0],) + moved.shape[1:])
    return np.moveaxis(out, 0, axis)


def grad(u: np.ndarray) -> np.ndarray:
    """Forward-difference gradient of a scalar field, shape ``(d, *dims)``."""
    return _grad(u, 0)


def grad_vec(g: np.ndarray) -> np.ndarray:
    """Channel-wise gradient of a vector field, shape ``(d, d, *dims)``.

    Output channel ``(l, m)`` is the axis-``m`` difference of channel ``l``.
    """
    return _grad(g, 1)


def adjoint_grad(p: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`grad`: channel-summed transpose stencil.

    Satisfies ``inner(grad(u), p) == inner(u, adjoint_grad(p))`` up to
    roundoff.
    """
    return _adjoint(p, 0)


def adjoint_grad_tensor(p: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`grad_vec`; output channel ``l`` sums over ``m``."""
    return _adjoint(p, 1)


def divergence(v: np.ndarray) -> np.ndarray:
    """Discrete divergence, defined as the negated gradient adjoint.

    With this sign, ``-inner(grad(u), v) == inner(u, divergence(v))``.
    """
    return -adjoint_grad(v)


def tuple_norm(q: np.ndarray, channel_ndim: int = 1) -> np.ndarray:
    """Pointwise Euclidean norm over the leading ``channel_ndim`` axes."""
    if channel_ndim < 1 or channel_ndim >= q.ndim:
        raise DimensionError(
            f"channel_ndim {channel_ndim} invalid for array of ndim {q.ndim}"
        )
    return np.sqrt(np.sum(q * q, axis=tuple(range(channel_ndim))))


def unit_clip(q: np.ndarray, channel_ndim: int = 1) -> np.ndarray:
    """Divide each channel tuple by ``max(1, |tuple|)``.

    Projects onto the pointwise unit ball: the result has tuple norms <= 1,
    entries already inside the ball are unchanged, and the map is
    idempotent and 1-Lipschitz.
    """
    q = np.asarray(q, dtype=np.float64)
    return q / np.maximum(1.0, tuple_norm(q, channel_ndim))


def pointwise_normalize(g: np.ndarray, eps: float) -> np.ndarray:
    """Divide each tuple by ``max(|tuple|, eps)``; a guarded direction field.

    Tuples with norm below ``eps`` shrink toward zero instead of blowing up,
    so the output is always finite with tuple norms <= 1.
    """
    if not 0 < eps < np.inf:
        raise ParameterError(f"eps must be positive and finite, got {eps}")
    g = np.asarray(g, dtype=np.float64)
    return g / np.maximum(tuple_norm(g, 1), eps)


def l2_norm(x: np.ndarray) -> float:
    """Root of the sum of squares over all entries and channels."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.sqrt(np.sum(x * x)))


def iso_l1_norm(q: np.ndarray, channel_ndim: int = 1) -> float:
    """Isotropic l1 norm: grid sum of pointwise tuple norms."""
    return float(np.sum(tuple_norm(q, channel_ndim)))


def max_tuple_norm(q: np.ndarray, channel_ndim: int = 1) -> float:
    """Largest pointwise tuple norm; the dual-feasibility max norm."""
    return float(np.max(tuple_norm(q, channel_ndim)))


def inner(x: np.ndarray, y: np.ndarray) -> float:
    """Euclidean inner product over all entries; shapes must match."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise DimensionError(f"inner product shape mismatch: {x.shape} vs {y.shape}")
    return float(np.sum(x * y))
