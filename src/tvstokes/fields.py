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

Two private one-axis kernels, the difference and its transpose, carry every
operator: ``grad`` and ``adjoint_grad``, and the packed Hessian pair
:func:`hessian` / :func:`adjoint_hessian` that the gradient-field smoothing
iterates on (public at module level only, not in ``__all__``).  The vector
and tensor operators ``grad_vec`` and ``adjoint_grad_tensor`` are the scalar
``grad`` and ``adjoint_grad`` applied channel by channel.  The kernels work
on one C-ordered channel grid at a time, since a ufunc over a whole stacked
field makes numpy allocate iterator buffers of several grids.  Along every
axis they run one ufunc over the flattened grids, offset by the axis stride
(the product of the later axis lengths), so the inner loop spans the whole
grid rather than one row of the last axis; the entries that wrap across a
slice boundary are then overwritten by the boundary slices.  The operators
therefore copy an input of another layout into C order, and the forward
operators write into a caller's ``out`` array only when it is C-ordered with
the result's shape.  The first transposed slice is ``v[0] * -1.0``, not
``np.negative``: numpy 2.4.6's ``negative`` miscomputes operands strided by
64 bytes (a last axis of 8), while the product is exact, signed zeros
included.

The per-shape work runs once per slab geometry.  Each operator reads its
steps from a table built on its first call for a geometry and cached, as
``_layout`` is (``_grad_steps``, ``_hessian_steps``, ``_adjoint_grad_steps``
and ``_adjoint_hessian_steps``): the flat slices of every difference, offset
by the stride, the boundary slices, the halo decisions and the scratch
shapes.  A geometry is the grid's tail, the row count, whether the rows
start the grid and how many rows follow them, up to two, as far as the
operator's steps depend on them; the steps start at the rows' first entry,
and the caller applies the rows' offset by slicing its flat grids, so every
inner slab of a grid shares one entry.  A table holds ints, slices and
tuples of them, never an array, so a call only views its own arrays and
issues its ufuncs: :func:`_run` runs forward steps and :func:`_diff_t` one
transposed step.  This module is the tables' one reader.  ``_BLOCKS`` maps
the two forward kernels that :func:`.dual.iterate` and
:func:`.dual.kkt_residual` accept, ``grad`` and ``hessian``, to their
tables: the dual loop runs each slab's residual from them through
:func:`_forward`, without the kernels' own call.  A step of a stacked output
also runs onto a one-channel grid, moved there by :func:`_shifted`:
:func:`_diff` runs one channel of ``grad``'s steps, :func:`_subtract_scaled`
steps the dual loop's chunks of slabs in place from the same tables, one
channel at a time, and :func:`_channels` writes a slab's channels one at a
time into one grid, for the KKT value.
A boundary slice on the first or the last axis is a slice of the flat grid;
only a middle axis indexes the shaped grid.  The tables that one job of the
benchmark builds hold about 11 KiB for a 64x64 frame, 34 KiB for a
160x160x16 clip and 74 KiB for a 64^3 volume (tracemalloc).

One slab rule serves the whole package: :func:`_spans` cuts a grid into
slabs of rows ``[a, b)`` of its first axis, about ``_SLAB`` entries each.
``grad`` and ``hessian`` compute any such rows alone, bit for bit those rows
of the whole result: the first-axis difference reads one row past the range,
and the Hessian two, so the dual loop can evaluate its residual one slab at a
time.  The transposed operators run slab by slab themselves, with slab-sized
scratch: the first-axis transposed stencil reads one row before the range.
``adjoint_grad`` writes each slab's first-axis term and adds every later one,
and computes any rows alone, as the vector models' potential does inside the
dual update (see :mod:`.dual`); both run their rows through one slab loop,
:func:`_by_rows`.  :func:`adjoint_hessian` carries the one row of its inner
term that the next slab reads.  Every output entry sees the same
operations in the same order as over the whole grid, so the results do not
depend on the slab size.

Every grid of tuple norms adds its squares through :func:`_sum_squares`, one
channel at a time in C order, the order of ``np.sum`` over the channels; the
dual loop's bit-for-bit claims rest on that one order.  The objective's TV
term (``dual._objective``) feeds it a gradient one difference at a time, slab
by slab, into slab-sized scratch.

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
# 2-vCPU Xeon with 2 MiB of L2 per core, 16K entries took a packed 64^3 step on
# one thread about 4% less time than 32K, and whole grids 25-35% more per
# update.  The dual loop splits its update into two groups of slabs, one per
# thread, each with its own slab scratch: two of 16K hold the bytes of one of 32K.
_SLAB = 1 << 14


def _spans(grid) -> list:
    """The slabs of ``grid``: rows ``[a, b)`` of its first axis, about ``_SLAB`` entries each,
    as ``_SLAB`` is when called."""
    rows = max(1, _SLAB // math.prod(grid[1:]))
    starts = range(0, grid[0], rows)  # no list comprehension: a call of its own before 3.12
    return list(zip(starts, [*starts[1:], grid[0]]))


# Entries each table cache keeps, one per slab geometry: a grid's slabs share a
# few, a run takes a few dozen.
_STEPS = 1024

# The kernels' constant operands as 0-d arrays: a Python float operand costs a
# ufunc call about 0.15 us to convert, a tenth of a call on a 64-entry slice
_MINUS_ONE, _TWO = np.array(-1.0), np.array(2.0)


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


def _side(tail, axis: int, rows: int, at: int, lead: tuple, k: int):
    """Index of the slice at ``k`` along grid ``axis`` of ``rows`` rows of ``tail``.

    On the first axis ``k`` counts rows, ``-1`` being the row before them;
    on a later axis it is the index along that axis.  On the first and the
    last axis the index is a slice of the flat grid, whose first row starts
    at entry ``at``; on a middle axis it indexes the grid after ``lead``, the
    channel and the rows.
    """
    row = math.prod(tail)
    if axis == 0:
        return slice(at + k * row, at + (k + 1) * row)
    if axis == len(tail):
        return slice(at + k, at + rows * row, tail[-1])
    return lead + (slice(None),) * (axis - 1) + (slice(k, k + 1),)


def _step(tail, axis: int, rows: int, halo: bool, dst: int = 0, lead=()) -> tuple:
    """``(hi, lo, to, zero, flat)``: ``rows`` rows of the axis-``axis`` difference of a grid.

    The grid's rows hold ``tail`` and start at the first entry of the flat
    source; they are written from flat entry ``dst`` of the output, whose
    ``lead`` index picks the channel.  ``hi``, ``lo`` and ``to`` slice the
    flat grids; ``zero`` indexes the output's last slice along ``axis``
    (see :func:`_side`; ``flat`` says whether it slices the flat output), or
    is ``None`` when the source's next row is a halo that the last row reads
    (see :func:`_diff`).
    """
    stride = math.prod(tail[axis:])
    end = rows * math.prod(tail) - (0 if halo else stride)
    last = rows - 1 if axis == 0 else tail[axis - 1] - 1
    zero = None if halo else _side(tail, axis, rows, dst, lead + (slice(0, rows),), last)
    return (slice(stride, stride + end), slice(0, end), slice(dst, dst + end), zero,
            axis in (0, len(tail)))


def _run(src, dst, out, steps) -> None:
    """Run forward ``steps`` from the flat grid ``src`` into ``out``, whose flat view is ``dst``."""
    for hi, lo, to, zero, flat in steps:
        np.subtract(src[hi], src[lo], out=dst[to])
        if zero is not None:
            (dst if flat else out)[zero] = 0.0  # also overwrites the differences that wrapped


def _diff(u, axis: int, out) -> np.ndarray:
    """Write the axis-``axis`` forward difference of the C-ordered grid ``u`` into ``out``.

    ``out`` may hold fewer rows of the first axis than ``u``: it then gets the
    first ``len(out)`` rows of the difference.  Along the first axis the row
    after them is a halo that the last row reads, so only a ``u`` that ends
    with ``out`` gives that row the zero of the grid's last row.  The step is
    channel ``axis`` of :func:`grad`'s for the rows, moved onto ``out``.
    """
    steps = _grad_steps(u.shape[1:], len(out), len(u) - len(out))[2]  # it reads only rest > 0
    _shifted(u.ravel(), out.ravel(), out, steps[axis])
    return out


def _shifted(src, dst, grid, step) -> int:
    """Run ``step`` of channel ``c`` of a stacked output from the flat grid ``src`` into the
    one-channel ``grid``, whose flat view is ``dst``; return ``c``.

    The step writes channel ``c`` from entry ``c * size``, ``size`` being the
    grid's: it runs with its ``to`` slice, and a flat ``zero`` slice, moved
    back by that, and a middle-axis ``zero`` without its channel index.
    """
    hi, lo, to, zero, flat = step
    at = to.start  # c * size
    np.subtract(src[hi], src[lo], out=dst[:to.stop - at])
    if zero is not None:  # also overwrites the differences that wrapped
        if flat:
            dst[zero.start - at:zero.stop - at:zero.step] = 0.0
        else:
            grid[zero[1:]] = 0.0
    return at // len(dst)


def _step_t(tail, axis: int, a: int, b: int, n: int, src, dst) -> tuple:
    """``(lo, hi, to, first, end, flat)``: rows ``[a, b)`` of the transposed difference.

    The grid has ``n`` rows of ``tail``.  ``src`` and ``dst`` are ``(entry,
    lead, row)`` of the source and the output: the flat entry and the row
    where grid row ``a`` sits, and the index of the channel; a source read
    from row ``a - 1`` holds it in the row before.  ``lo``, ``hi`` and ``to``
    slice the flat grids; ``first`` is ``None`` or the index pair, source
    then output, of the slice that the stencil negates, and ``end``, output
    then source, of the slice that it copies (see :func:`_side` and ``flat``
    there).
    """
    (vo, vc, vr), (wo, wc, wr) = src, dst
    rows = b - a
    size, stride = rows * math.prod(tail), math.prod(tail[axis:])
    v, w = vc + (slice(vr, vr + rows),), wc + (slice(wr, wr + rows),)

    def sides(at, lead, *ks):
        return tuple(_side(tail, axis, rows, at, lead, k) for k in ks)

    if axis == 0:
        skip = stride if a == 0 else 0  # grid row 0 is negated, not differenced
        first = (*sides(vo, v, 0), *sides(wo, w, 0)) if a == 0 else None
        end = (*sides(wo, w, rows - 1), *sides(vo, v, rows - 2)) if b == n else None
        return (slice(vo + skip - stride, vo + size - stride), slice(vo + skip, vo + size),
                slice(wo + skip, wo + size), first, end, True)
    k = tail[axis - 1]
    return (slice(vo, vo + size - stride), slice(vo + stride, vo + size),
            slice(wo + stride, wo + size), (*sides(vo, v, 0), *sides(wo, w, 0)),
            (*sides(wo, w, k - 1), *sides(vo, v, k - 2)), axis == len(tail))


def _diff_t(src, dst, v, out, step) -> None:
    """Run one transposed-difference ``step`` from the grid ``v`` into ``out``, given their
    flat views ``src`` and ``dst``: the stencil's differences, its negated first slice and its
    copied last slice, in that order."""
    lo, hi, to, first, end, flat = step
    np.subtract(src[lo], src[hi], out=dst[to])
    if flat:
        v, out = src, dst
    if first is not None:
        # not np.negative: see the module docstring
        np.multiply(v[first[0]], _MINUS_ONE, out=out[first[1]])
    if end is not None:
        out[end[0]] = v[end[1]]


def grad(u: np.ndarray, out: np.ndarray | None = None, rows=None) -> np.ndarray:
    """Forward-difference gradient of a scalar field, shape ``(d, *dims)``.

    Channel ``axis`` is the axis-``axis`` difference, zero on the last slice.
    ``rows=(a, b)`` computes rows ``[a, b)`` of the first grid axis only,
    shape ``(d, b - a, *dims[1:])``, bit for bit those of the whole gradient;
    they read ``u`` up to row ``b``.
    """
    return _forward(u, out, rows, _grad_steps)


@lru_cache(_STEPS)
def _grad_steps(tail, rows: int, rest: int) -> tuple:
    """``(out shape, None, steps)`` of :func:`grad` at ``rows`` rows of ``tail`` that ``rest``
    rows of the grid follow, up to two (see :func:`_forward`): the step of every axis into its
    channel."""
    d, size = len(tail) + 1, rows * math.prod(tail)
    # the first axis reads the next row as a halo unless the rows end the grid
    return (d, rows) + tail, None, tuple(
        _step(tail, axis, rows, axis == 0 and rest > 0, axis * size, (axis,))
        for axis in range(d))


def _forward(u, out, rows, table, scratch=None) -> np.ndarray:
    """Rows ``rows`` of the forward kernel of ``table`` on the grid ``u``, into ``out``.

    ``table``, :func:`_grad_steps` or :func:`_hessian_steps`, is keyed by the
    rows' geometry: the grid's tail, the row count and how many rows follow,
    up to two.  Its steps read ``u`` from its first entry, so the rows'
    offset is applied here, by slicing the flat ``u``.  Without a work grid
    they write ``out``, which is checked or allocated; with one, which is cut
    from the flat ``scratch`` when given, they come in blocks, each the
    ``first`` difference into the work grid and its ``seconds`` into ``out``.
    """
    u = np.asarray(u, dtype=np.float64, order="C")
    n = len(u)
    a, b = (0, n) if rows is None else rows
    if not 0 <= a < b <= n:
        raise DimensionError(f"rows {rows} are not a range of a first axis of length {n}")
    rest = n - b  # not min(), whose call costs 0.1 us, 2% of a 64x64 frame's grad
    shape, work, steps = table(u.shape[1:], b - a, rest if rest < 2 else 2)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or not out.flags.c_contiguous:
        raise DimensionError(f"out must be a C-ordered array of shape {shape}")
    src, dst = u.ravel(), out.ravel()
    if a:
        src = src[a * (u.size // n):]
    if work is None:
        _run(src, dst, out, steps)
        return out
    du = np.empty(work) if scratch is None else scratch[:math.prod(work)].reshape(work)
    mid = du.ravel()
    for first, seconds in steps:
        _run(src, mid, du, first)
        _run(mid, dst, out, seconds)
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
    if len(p) != len(dims):
        raise DimensionError(f"not a vector field of one channel per grid axis: shape {p.shape}")
    return _by_rows(_adjoint_grad_rows, p)


def _by_rows(rows, x) -> np.ndarray:
    """The grid whose rows ``[a, b)`` ``rows(x, out, (a, b), scratch)`` writes into ``out``, slab by
    slab over the grid of the field ``x``'s channels, given one slab-sized ``scratch`` grid."""
    dims = x.shape[1:]
    spans = _spans(dims)
    out, scratch = np.empty(dims), np.empty((spans[0][1],) + dims[1:])
    for a, b in spans:
        rows(x, out[a:b], (a, b), scratch)
    return out


def _adjoint_grad_rows(p, out, rows, scratch) -> None:
    """Write rows ``[a, b)`` of :func:`adjoint_grad` of the C-ordered field ``p`` into ``out``.

    They read rows ``[a - 1, b)`` of ``p``'s first channel and rows ``[a, b)``
    of the others.  ``out`` is a C-ordered grid of ``b - a`` rows and
    ``scratch`` one of ``b - a`` rows or more, where every later axis term is
    rounded before it is added.
    """
    a, b = rows
    first, later, term, row = _adjoint_grad_steps(p.shape, b - a, a > 0, b == p.shape[1])
    src, dst, part = p.ravel(), out.ravel(), scratch.ravel()
    if a > 0:  # the steps read from the row before
        src, p = src[(a - 1) * row:], p[:, a - 1:]
    _diff_t(src, dst, p, out, first)
    for step in later:
        _diff_t(src, part, p, scratch, step)
        np.add(dst, part[term], out=dst)


@lru_cache(_STEPS)
def _adjoint_grad_steps(shape, rows: int, inner: bool, last: bool) -> tuple:
    """``(first, later, term, row)`` of :func:`_adjoint_grad_rows` of a field of ``shape``.

    The steps compute ``rows`` rows of the grid, which start after its first
    row when ``inner`` (the source is then read from the row before them on)
    and end it when ``last``; a grid's few row counts and ends share one
    table.  The first axis's step writes the output, the later axes' steps
    the scratch, both from their first entry; ``term`` slices the flat
    scratch that each later term is added from, and ``row`` is a grid row's
    size.
    """
    tail, a = shape[2:], int(inner)
    row, grid, b = math.prod(tail), math.prod(shape[1:]), a + rows
    steps = [_step_t(tail, k, a, b, b if last else b + 1, (k * grid + a * row, (k,), a), (0, (), 0))
             for k in range(shape[0])]
    return steps[0], tuple(steps[1:]), slice(0, rows * row), row


def adjoint_grad_tensor(p: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`grad_vec`: output channel ``l`` is ``adjoint_grad(p[l])``."""
    p = np.asarray(p, dtype=np.float64)
    out = np.empty(p.shape[:1] + p.shape[2:])
    for pl, dst in zip(p, out):
        dst[...] = adjoint_grad(pl)
    return out


@lru_cache  # the kernels' tables and the dual loop's callers read it
def _layout(d: int):
    """``(index, channels)`` of the packed symmetric tensor field, in Python ints.

    ``index[l][m]`` is the packed channel of tensor channel ``(l, m)``, so
    ``q[np.array(index)]`` unpacks ``q``; ``channels`` lists it in C order,
    the order of the tuple norm's squares.
    """
    index = [[0] * d for _ in range(d)]
    for k, (l, m) in enumerate((l, m) for l in range(d) for m in range(l, d)):
        index[l][m] = index[m][l] = k
    return tuple(map(tuple, index)), tuple(c for r in index for c in r)


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
    return _forward(u, out, rows, _hessian_steps)


@lru_cache(_STEPS)
def _hessian_steps(tail, rows: int, rest: int) -> tuple:
    """``(out shape, work shape, blocks)`` of :func:`hessian` at ``rows`` rows of ``tail`` that
    ``rest`` rows of the grid follow, up to two (see :func:`_forward`).

    Block ``l`` holds the axis-``l`` difference into the work grid, then its
    axis-``m`` differences, ``m >= l``, into the output.  The work grid holds
    one more row for the first axis, a halo of the first-axis difference, up
    to the grid's last row.
    """
    d = len(tail) + 1
    work, size, channels = rows + (rest > 0), rows * math.prod(tail), _layout(d)[1]
    blocks = []
    for l in range(d):
        r = work if l == 0 else rows
        first = _step(tail, l, r, l == 0 and rest > 1)
        seconds = tuple(_step(tail, m, rows, r > rows and m == 0, c * size, (c,))
                        for m in range(l, d) for c in (channels[l * d + m],))
        blocks.append(((first,), seconds))
    return (d * (d + 1) // 2, rows) + tail, (work,) + tail, tuple(blocks)


def adjoint_hessian(q: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`hessian` when off-diagonal channels count twice.

    Equals ``adjoint_grad(adjoint_grad_tensor(p))`` for the symmetric tensor
    ``p`` that ``q`` packs, up to roundoff, as
    ``sum_l D_l^T (D_l^T q_ll + 2 sum_{m>l} D_m^T q_lm)``: transposed
    differences along distinct axes commute.

    Works slab by slab in two slab-sized grids: each ``row_l`` term above,
    then its transpose added into the output.  ``D_0^T row_0`` reads ``row_0``
    one row before the slab, so that row is carried over from the slab
    before, in a halo row.  Each slab's steps read ``q`` from the row before
    it and write the output from its first row, so the slab's offset is
    applied here, by slicing both, and only after the first slab.
    """
    q = np.asarray(q, dtype=np.float64, order="C")
    dims = q.shape[1:]
    d = len(dims)
    if d < 1 or len(q) != d * (d + 1) // 2:
        raise DimensionError(f"not a packed symmetric tensor field: shape {q.shape}")
    # a grid of _SLAB entries or fewer is one slab: a 64x64 frame's call makes no _spans call
    spans = ((0, dims[0]),) if q.size <= len(q) * _SLAB else _spans(dims)
    shape, n, work = q.shape, dims[0], (spans[0][1],) + dims[1:]
    out, row, scratch = np.empty(dims), np.empty((1 + work[0],) + work[1:]), np.empty(work)
    qf, rf, of, part = q.ravel(), row.ravel(), out.ravel(), scratch.ravel()
    for a, b in spans:
        terms, carry = _adjoint_hessian_steps(shape, b - a, a > 0, b == n)
        qa, qfa, oa, ofa = q, qf, out, of
        if a:
            width = math.prod(dims[1:])
            qa, qfa, oa, ofa = q[:, a - 1:], qf[(a - 1) * width:], out[a:], of[a * width:]
        for inner, double, step, add in terms:
            v, src, w, dst = (qa, qfa, row, rf) if inner else (row, rf, oa, ofa)
            if double is not None:
                np.multiply(dst[double], _TWO, out=dst[double])
            if add is None:
                _diff_t(src, dst, v, w, step)
            else:
                _diff_t(src, part, v, scratch, step)
                np.add(dst[add[0]], part[add[1]], out=dst[add[0]])
        if carry is not None:  # row_0's last row: the next slab's halo
            rf[carry[0]] = rf[carry[1]]
    return out


@lru_cache(_STEPS)
def _adjoint_hessian_steps(shape, rows: int, inner: bool, last: bool) -> tuple:
    """``(terms, carry)`` of :func:`adjoint_hessian` of a packed field of ``shape`` on a slab.

    The slab holds ``rows`` rows, which start after the grid's first row when
    ``inner`` (``q`` is then read from the row before them on) and end it
    when ``last``, as for :func:`_adjoint_grad_steps`.  Its terms, in order,
    are ``(inner, double, step, add)``: an inner term takes a channel of
    ``q`` into ``row_l``, in the row buffer after its halo row, an outer one
    ``row_l`` (``row_0`` from its halo row) into the output, from the slab's
    first row; ``double`` slices ``row_l`` where it is doubled first.
    ``add`` holds the flat rows that a term computed in scratch is added to,
    then the scratch's.  ``carry`` copies ``row_0``'s last row into the halo
    row, for the next slab.
    """
    dims, tail = shape[1:], shape[2:]
    d, row, grid, a = len(dims), math.prod(tail), math.prod(dims), int(inner)
    b = a + rows
    n, channels, size = b if last else b + 1, _layout(d)[1], rows * row
    start, buf, term = (0, (), 0), slice(row, row + size), slice(0, size)  # scratch or output
    terms = []
    # the last axis, the slowest to stride along, is written rather than added where it can be
    for l in reversed(range(d)):
        for i, m in enumerate(range(d - 1, l - 1, -1)):
            c = channels[l * d + m]
            step = _step_t(tail, m, a, b, n, (c * grid + a * row, (c,), a),
                           start if i else (row, (), 1))
            terms.append((True, buf if m == l and i else None, step, (buf, term) if i else None))
        step = _step_t(tail, l, a, b, n, (row, (), 1), start)
        terms.append((False, None, step, (term, term) if l < d - 1 else None))
    return tuple(terms), None if last else (slice(0, row), slice(size, size + row))


# the forward kernels that dual.iterate and dual.kkt_residual accept, and the tables they run
# them from: each slab through _forward, each chunk in place through _subtract_scaled and each
# channel of a slab's KKT value through _channels
_BLOCKS = {grad: _grad_steps, hessian: _hessian_steps}


def _subtract_scaled(table, u, a: int, scratch, grid, tau, pc) -> None:
    """Subtract ``tau`` times the forward kernel of ``table`` on the C-ordered grid ``u`` from the
    dual's chunk ``pc`` in place, the kernel's rows from row ``a`` on, as many as ``pc``'s.

    As in :func:`_forward`, the table's entry is the rows' geometry, and
    their offset slices the flat ``u``.  Each channel ``c`` goes into ``grid`` by
    :func:`_shifted`, is scaled by ``tau`` and subtracted from ``pc[c]``; the
    kernel's first differences go into a work grid at the front of the flat
    ``scratch``.
    """
    _, work, blocks = table(pc.shape[2:], pc.shape[1], min(len(u) - a - pc.shape[1], 2))
    src, dst = u.ravel()[a * (u.size // len(u)):], grid.ravel()
    if work is not None:  # the first differences' work grid; grad's steps all read src
        du = scratch[:math.prod(work)].reshape(work)
        mid = du.ravel()
    for first, seconds in blocks if work else (((), blocks),):
        if first:
            _run(src, mid, du, first)
        for step in seconds:
            c = _shifted(mid if first else src, dst, grid, step)
            np.multiply(grid, tau, out=grid)
            np.subtract(pc[c], grid, out=pc[c])


def _channels(table, u, rows, order, grid, scratch):
    """Write channel ``c`` of rows ``rows`` of the forward kernel of ``table`` on the C-ordered
    grid ``u`` into the one-channel ``grid``, for each ``c`` of ``order`` in turn; yield ``grid``
    once it holds each.

    As in :func:`_forward`, the table's entry is the rows' geometry, and their
    offset slices the flat ``u``.  Each channel runs its own step by
    :func:`_shifted`.  A kernel with a work grid, the Hessian, writes the
    first difference that a channel reads into one at the front of the flat
    ``scratch``, and keeps it while the next channels read it too.
    """
    a, b = rows
    n = len(u)
    _, work, blocks = table(u.shape[1:], b - a, min(n - b, 2))
    src, dst = u.ravel()[a * (u.size // n):], grid.ravel()
    if work is not None:
        du = scratch[:math.prod(work)].reshape(work)
        mid = du.ravel()
    steps = {}  # each channel's first differences, if any, and its step
    for first, seconds in blocks if work else (((), blocks),):
        for step in seconds:
            steps[step[2].start // dst.size] = first, step
    held = None
    for c in order:
        first, step = steps[c]
        if first and first is not held:
            _run(src, mid, du, first)
            held = first
        _shifted(mid if first else src, dst, grid, step)
        yield grid


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

