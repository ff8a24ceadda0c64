"""Discrete differential calculus on d-dimensional grids.

Field layout conventions used throughout the package:

* scalar field   -- float64 array of shape ``(N1, ..., Nd)``
* vector field   -- ``(d, N1, ..., Nd)``, channel ``l`` holds the forward
  difference of a scalar field along axis ``l``
* tensor field   -- ``(d, d, N1, ..., Nd)``, channel ``(l, m)`` holds the
  axis-``m`` difference of vector channel ``l``
* packed symmetric tensor field -- ``(d(d+1)/2, N1, ..., Nd)``, channel ``k``
  holds the ``k``-th pair ``(l, m)`` with ``l <= m`` in row-major order,
  standing for both ``(l, m)`` and ``(m, l)``; ``_layout`` is the one table
  of this order, where every reader of a packed field looks its channels up

Channels lead so that grid-shaped reductions broadcast against them and every
axis-wise stencil streams the contiguous last axis.  The one-sided difference
stencil is ``[-1, +1]`` with a zero last row, which encodes homogeneous
Neumann boundaries; consequently a differentiated field always vanishes on
the final slice of its own axis.

Two private one-axis kernels, the difference ``_diff`` and its transpose
``_diff_t``, carry every operator: ``grad`` and ``adjoint_grad``, and the
packed Hessian pair :func:`hessian` / :func:`adjoint_hessian` that the
gradient-field smoothing iterates on (public at module level only, not in
``__all__``).  The vector and tensor operators ``grad_vec`` and
``adjoint_grad_tensor`` are the scalar ``grad`` and ``adjoint_grad`` applied
channel by channel.  The kernels work on one C-ordered channel grid at a
time, since a ufunc over a whole stacked field makes numpy allocate iterator
buffers of several grids.  Along every axis they run one ufunc over the
flattened grids, offset by the axis stride (the product of the later axis
lengths), so the inner loop spans the whole grid rather than one row of the
last axis; the entries that wrap across a slice boundary are then
overwritten by the boundary slices.  The operators therefore copy an input of
another layout into C order, and the forward operators write into a caller's
``out`` array only when it is C-ordered with the result's shape.  The first
transposed slice is ``v[0] * -1.0``, not ``np.negative``: numpy 2.4.6's
``negative`` miscomputes operands strided by 64 bytes (a last axis of 8),
while the product is exact, signed zeros included.

One slab rule serves the whole package: :func:`_spans` cuts a grid into
slabs of rows ``[a, b)`` of its first axis, about ``_SLAB`` entries each.
``grad`` and ``hessian`` compute any such rows alone, bit for bit those rows
of the whole result: the first-axis difference reads one row past the range,
and the Hessian two, so the dual loop can evaluate its residual one slab at a
time.  The transposed operators run slab by slab themselves, with slab-sized
scratch: the first-axis transposed stencil reads one row before the range.
``adjoint_grad`` writes each slab's first-axis term and adds every later one;
:func:`adjoint_hessian` carries the one row of its inner term that the next
slab reads.  Every output entry sees the same operations in the same order
as over the whole grid, so the results do not depend on the slab size.

Every grid of tuple norms adds its squares through :func:`_sum_squares`, one
channel at a time in C order, the order of ``np.sum`` over the channels; the
dual loop's bit-for-bit claims rest on that one order.  ``_total_variation``
feeds it a gradient one difference at a time, slab by slab, into one grid of
squares that it sums whole, so it holds one grid and a slab.

Operators in this module assume finite float inputs (see
:func:`validate_field`); only cheap structural checks are performed here.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DimensionError, ParameterError, _check_positive

__all__ = [
    "validate_field",
    "grad",
    "grad_vec",
    "adjoint_grad",
    "adjoint_grad_tensor",
    "divergence",
    "unit_clip",
    "pointwise_normalize",
    "l2_norm",
    "max_tuple_norm",
    "inner",
]


# Grid entries per slab of the slab-blocked loops: few enough that a slab's
# channels stay in L2 cache across the 17-67 passes of one dual step.  On a
# Xeon with 4 MiB L2 and one thread, 16K-32K entries timed best for the packed
# 64^3 and the vector 160x160x16 dual; whole grids took 25-35% longer per update.
_SLAB = 1 << 15


def _spans(grid) -> list:
    """The slabs of ``grid``: rows ``[a, b)`` of its first axis, about ``_SLAB`` entries each."""
    rows = max(1, _SLAB // math.prod(grid[1:]))
    return [(a, min(a + rows, grid[0])) for a in range(0, grid[0], rows)]


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


def _diff(u, axis: int, out) -> np.ndarray:
    """Write the axis-``axis`` forward difference of the C-ordered grid ``u`` into ``out``.

    ``out`` may hold fewer rows of the first axis than ``u``: it then gets the
    first ``len(out)`` rows of the difference.  Along the first axis the row
    after them is a halo that the last row reads, so only a ``u`` that ends
    with ``out`` gives that row the zero of the grid's last row.
    """
    halo = axis == 0 and len(u) > len(out)
    if len(u) != len(out) + halo:
        u = u[:len(out) + halo]
    stride = math.prod(u.shape[axis + 1:])
    src, dst = u.reshape(-1), out.reshape(-1)  # views of C-ordered grids
    end = dst.size if halo else dst.size - stride
    np.subtract(src[stride:stride + end], src[:end], out=dst[:end])
    if not halo:
        out.swapaxes(0, axis)[-1] = 0.0  # also overwrites the differences that wrapped
    return out


def _diff_t(v, axis: int, out, scratch=None, last: bool = True) -> np.ndarray:
    """Transpose of :func:`_diff` applied to the C-ordered grid ``v``, or to rows of it.

    Writes into ``out``, or adds to it when given a ``scratch`` grid of its
    shape, which holds the term before it is added.  ``out`` may hold rows
    ``[a, b)`` of the first axis alone: ``v`` then holds those rows, after
    row ``a - 1`` unless ``a == 0`` (the first-axis stencil reads it), and
    ``last`` says whether ``b`` ends the grid.
    """
    if scratch is not None:
        out += _diff_t(v, axis, scratch, None, last)  # a + (-b) rounds as a - b
        return out
    halo = len(v) - len(out)
    if axis == 0:
        np.subtract(v[:-1], v[1:], out=out[1 - halo:])
        if not halo:  # out starts the grid
            np.multiply(v[:1], -1.0, out=out[:1])  # views in 1-d too
        if last:
            out[-1:] = v[-2:-1]
        return out
    if halo:
        v = v[1:]
    stride = math.prod(v.shape[axis + 1:])
    src = v.reshape(-1)
    np.subtract(src[:-stride], src[stride:], out=out.reshape(-1)[stride:])
    dst, v = out.swapaxes(0, axis), v.swapaxes(0, axis)
    np.multiply(v[:1], -1.0, out=dst[:1])  # np.negative: see the module docstring
    dst[-1:] = v[-2:-1]
    return out


def _output(out, shape) -> np.ndarray:
    """A new grid stack of ``shape``, or ``out`` after checking that the kernels can write it."""
    if out is None:
        return np.empty(shape)
    if out.shape != shape or not out.flags.c_contiguous:
        raise DimensionError(f"out must be a C-ordered array of shape {shape}")
    return out


def _span(rows, n: int) -> tuple:
    """``rows`` as ``(a, b)`` with ``0 <= a < b <= n``; ``None`` is the whole axis."""
    a, b = (0, n) if rows is None else rows
    if not 0 <= a < b <= n:
        raise DimensionError(f"rows {rows} are not a range of a first axis of length {n}")
    return a, b


def grad(u: np.ndarray, out: np.ndarray | None = None, rows=None) -> np.ndarray:
    """Forward-difference gradient of a scalar field, shape ``(d, *dims)``.

    Channel ``axis`` is the axis-``axis`` difference, zero on the last slice.
    ``rows=(a, b)`` computes rows ``[a, b)`` of the first grid axis only,
    shape ``(d, b - a, *dims[1:])``, bit for bit those of the whole gradient;
    they read ``u`` up to row ``b``.
    """
    u = np.asarray(u, dtype=np.float64, order="C")
    a, b = _span(rows, len(u))
    out = _output(out, (u.ndim, b - a) + u.shape[1:])
    block = u[a:b + 1]  # one halo row for the first-axis difference
    for axis, dst in enumerate(out):
        _diff(block, axis, dst)
    return out


def grad_vec(g: np.ndarray) -> np.ndarray:
    """Channel-wise gradient of a vector field, shape ``(d, d, *dims)``.

    Output channel ``(l, m)`` is the axis-``m`` difference of channel ``l``:
    ``grad_vec(g)[l]`` is ``grad(g[l])``.
    """
    g = np.asarray(g, dtype=np.float64, order="C")
    out = np.empty(g.shape[:1] + (g.ndim - 1,) + g.shape[1:])
    for gl, dst in zip(g, out):
        grad(gl, dst)
    return out


def adjoint_grad(p: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`grad`: channel-summed transpose stencil.

    Satisfies ``inner(grad(u), p) == inner(u, adjoint_grad(p))`` up to
    roundoff.  Slab by slab, the first axis writes its stencil directly;
    every later axis term is rounded into slab-sized scratch before it is
    added.  The result matches a term-wise sum started at ``-0.0``, the exact
    additive identity, bit for bit, signed zeros included.
    """
    p = np.asarray(p, dtype=np.float64, order="C")
    dims = p.shape[1:]
    out = np.empty(dims)
    spans = _spans(dims)
    scratch = np.empty((spans[0][1],) + dims[1:])
    for a, b in spans:
        # the slab's terms from row a - 1, which the first axis reads
        for axis, v in enumerate(p[:, max(a - 1, 0):b]):
            _diff_t(v, axis, out[a:b], scratch[:b - a] if axis else None, b == dims[0])
    return out


def adjoint_grad_tensor(p: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`grad_vec`: output channel ``l`` is ``adjoint_grad(p[l])``."""
    p = np.asarray(p, dtype=np.float64)
    out = np.empty(p.shape[:1] + p.shape[2:])
    for pl, dst in zip(p, out):
        dst[...] = adjoint_grad(pl)
    return out


@lru_cache  # hessian reads it on every call, and building it costs half a 64x64 hessian
def _layout(d: int):
    """``(index, channels)`` of the packed symmetric tensor field, read-only.

    ``index[l, m]`` is the packed channel of tensor channel ``(l, m)``, so
    ``q[index]`` unpacks ``q``; ``channels`` lists it in C order, the order of
    the tuple norm's squares, in Python ints, which index faster than numpy's.
    """
    index = np.empty((d, d), dtype=np.intp)
    upper = np.triu_indices(d)
    index[upper] = index.T[upper] = np.arange(len(upper[0]))
    index.flags.writeable = False
    return index, tuple(index.ravel().tolist())


def _pack(p: np.ndarray) -> np.ndarray:
    """Packed symmetric part ``(p_lm + p_ml)/2`` of a tensor field; exact for a symmetric one."""
    rows, cols = np.triu_indices(len(p))
    q = np.empty((len(rows),) + p.shape[2:])
    for k, (l, m) in enumerate(zip(rows, cols)):
        np.add(p[l, m], p[m, l], out=q[k])
        q[k] *= 0.5
    return q


def hessian(u: np.ndarray, out: np.ndarray | None = None, rows=None) -> np.ndarray:
    """Packed symmetric second differences of a scalar field, ``(d(d+1)/2, *dims)``.

    Channel ``k`` of pair ``(l, m)``, ``l <= m``, is the axis-``m`` difference
    of the axis-``l`` difference: channel ``(l, m)`` of ``grad_vec(grad(u))``,
    bit for bit, in ``d`` + ``d(d+1)/2`` stencil passes instead of ``d + d^2``.
    ``rows=(a, b)`` computes rows ``[a, b)`` of the first grid axis only, bit
    for bit those of the whole result; they read ``u`` up to row ``b + 1``.
    """
    u = np.asarray(u, dtype=np.float64, order="C")
    d = u.ndim
    a, b = _span(rows, len(u))
    out = _output(out, (d * (d + 1) // 2, b - a) + u.shape[1:])
    block = u[a:b + 2]  # two halo rows: the first-axis difference is differenced again
    channels, du = _layout(d)[1], np.empty((min(b + 1, len(u)) - a,) + u.shape[1:])
    for l in range(d):
        dl = _diff(block, l, du if l == 0 else du[:b - a])
        for m in range(l, d):
            _diff(dl, m, out[channels[l * d + m]])
    return out


def adjoint_hessian(q: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`hessian` when off-diagonal channels count twice.

    Equals ``adjoint_grad(adjoint_grad_tensor(p))`` for the symmetric tensor
    ``p`` that ``q`` packs, up to roundoff, as
    ``sum_l D_l^T (D_l^T q_ll + 2 sum_{m>l} D_m^T q_lm)``: transposed
    differences along distinct axes commute.

    Works slab by slab in two slab-sized grids: each ``row_l`` term above,
    then its transpose added into the output.  ``D_0^T row_0`` reads ``row_0``
    one row before the slab, so that row is carried over from the slab
    before, in a halo row.
    """
    q = np.asarray(q, dtype=np.float64, order="C")
    dims = q.shape[1:]
    d = len(dims)
    if d < 1 or len(q) != d * (d + 1) // 2:
        raise DimensionError(f"not a packed symmetric tensor field: shape {q.shape}")
    out, channels = np.empty(dims), _layout(d)[1]
    spans = _spans(dims)
    row = np.empty((1 + spans[0][1],) + dims[1:])  # the halo row, then a slab of row_l
    scratch = np.empty((spans[0][1],) + dims[1:])
    for a, b in spans:
        last, qs, rows, term = b == dims[0], q[:, max(a - 1, 0):b], out[a:b], scratch[:b - a]
        row_l, row_0 = row[1:1 + b - a], row[1 - (a > 0):1 + b - a]  # row_0 from a - 1
        # the last axis, the slowest to stride along, is written rather than added where it can be
        for l in reversed(range(d)):
            for i, m in enumerate(range(d - 1, l - 1, -1)):
                if m == l and i:
                    row_l *= 2.0
                _diff_t(qs[channels[l * d + m]], m, row_l, term if i else None, last)
            _diff_t(row_l if l else row_0, l, rows, term if l < d - 1 else None, last)
        row[:1] = row[b - a:b - a + 1]  # row_0's last row: the next slab's halo
    return out


def divergence(v: np.ndarray) -> np.ndarray:
    """Discrete divergence, defined as the negated gradient adjoint.

    With this sign, ``-inner(grad(u), v) == inner(u, divergence(v))``.
    """
    return -adjoint_grad(v)


def _sum_squares(grids, out: np.ndarray, scratch: np.ndarray) -> None:
    """``out = sum(g*g for g in grids)`` in order; a grid may be ``scratch`` itself."""
    for i, g in enumerate(grids):
        if i:
            out += np.multiply(g, g, out=scratch)
        else:
            np.multiply(g, g, out=out)


def _tuple_norm(q: np.ndarray, channel_ndim: int = 1) -> np.ndarray:
    """Pointwise Euclidean norm over the leading ``channel_ndim`` axes."""
    if channel_ndim < 1 or channel_ndim >= q.ndim:
        raise DimensionError(
            f"channel_ndim {channel_ndim} invalid for array of ndim {q.ndim}"
        )
    shape, dtype = q.shape[channel_ndim:], np.result_type(q, 0.0)
    norm, scratch = np.zeros(shape, dtype), np.empty(shape, dtype)  # no channels: zero norms
    _sum_squares((q[c] for c in np.ndindex(q.shape[:channel_ndim])), norm, scratch)
    return np.sqrt(norm, out=norm)


def unit_clip(q: np.ndarray, channel_ndim: int = 1) -> np.ndarray:
    """Divide each channel tuple by ``max(1, |tuple|)``.

    Projects onto the pointwise unit ball: the result has tuple norms <= 1,
    entries already inside the ball are unchanged, and the map is
    idempotent and 1-Lipschitz.
    """
    q = np.asarray(q, dtype=np.float64)
    return q / np.maximum(1.0, _tuple_norm(q, channel_ndim))


def pointwise_normalize(g: np.ndarray, eps: float) -> np.ndarray:
    """Divide each tuple by ``max(|tuple|, eps)``; a guarded direction field.

    Tuples with norm below ``eps`` shrink toward zero instead of blowing up,
    so the output is always finite with tuple norms <= 1.
    """
    g = np.asarray(g, dtype=np.float64)
    _check_positive("eps", eps)
    norm = _tuple_norm(g, 1)
    return g / np.maximum(norm, eps, out=norm)


def l2_norm(x: np.ndarray) -> float:
    """Root of the sum of squares over all entries and channels."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.sqrt(np.sum(x * x)))


def max_tuple_norm(q: np.ndarray, channel_ndim: int = 1) -> float:
    """Largest pointwise tuple norm; the dual-feasibility max norm."""
    return float(np.max(_tuple_norm(q, channel_ndim)))


def inner(x: np.ndarray, y: np.ndarray) -> float:
    """Euclidean inner product over all entries; shapes must match."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise DimensionError(f"inner product shape mismatch: {x.shape} vs {y.shape}")
    return float(np.sum(x * y))


def _total_variation(u: np.ndarray) -> float:
    """Grid sum of the tuple norms of the gradient of every channel ``u[c]``.

    Slab by slab, the squares are added one difference at a time, channels
    outer and axes inner, the C order of the gradient's channels, into one
    grid that is summed whole; each difference is rounded in slab-sized scratch.
    """
    dims = u.shape[1:]
    spans = _spans(dims)
    squares, step = np.empty(dims), np.empty((spans[0][1],) + dims[1:])
    for a, b in spans:
        rows = step[:b - a]
        diffs = (_diff(uc, axis, rows)  # one halo row, as in grad
                 for uc in u[:, a:b + 1] for axis in range(len(dims)))
        _sum_squares(diffs, squares[a:b], rows)
    return float(np.sum(np.sqrt(squares, out=squares)))
