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

The per-shape work runs once per shape.  Each operator reads its steps from
a table built on its first call for a grid shape and a row range (or slab
size) and cached, as ``_layout`` is: the flat slices of every difference,
offset by the stride, the boundary slices, the halo decisions and the scratch
shapes (``_grad_steps``, ``_hessian_steps``, ``_adjoint_grad_steps``,
``_adjoint_hessian_steps`` and ``_diff_steps``).  A table holds ints, slices
and tuples of them, never an array, so a call only views its own arrays and
issues its ufuncs: :func:`_run` runs forward steps and :func:`_diff_t` one
transposed step.  A boundary slice on the first or the last axis is a slice
of the flat grid; only a middle axis indexes the shaped grid.  The first
call on a shape in a process builds its table: 1-5 KB for a 64x64 frame, up
to 170 KB (``adjoint_hessian``'s) for the sixteen slabs of a 64^3 grid.

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
# 2-vCPU Xeon with 2 MiB of L2 per core, 16K entries took a packed 64^3 step on
# one thread about 4% less time than 32K, and whole grids 25-35% more per
# update.  The dual loop splits its update into two groups of slabs, one per
# thread, each with its own slab scratch: two of 16K hold the bytes of one of 32K.
_SLAB = 1 << 14


def _spans(grid, slab=None) -> list:
    """The slabs of ``grid``: rows ``[a, b)`` of its first axis, about ``slab`` entries each.

    ``slab`` defaults to ``_SLAB`` as it is when called.
    """
    rows = max(1, (_SLAB if slab is None else slab) // math.prod(grid[1:]))
    return [(a, min(a + rows, grid[0])) for a in range(0, grid[0], rows)]


# Entries each table cache keeps, one per grid shape and row range or slab
# size: a grid's slabs take one each in the forward tables, a run a few dozen.
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


def _step(tail, axis: int, rows: int, halo: bool, src: int, dst: int, lead=()) -> tuple:
    """``(hi, lo, to, zero, flat)``: ``rows`` rows of the axis-``axis`` difference of a grid.

    The grid's rows hold ``tail`` and start at flat entry ``src`` of the
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
    return (slice(src + stride, src + stride + end), slice(src, src + end), slice(dst, dst + end),
            zero, axis in (0, len(tail)))


def _run(src, dst, out, steps) -> None:
    """Run forward ``steps`` from the flat grid ``src`` into ``out``, whose flat view is ``dst``."""
    for hi, lo, to, zero, flat in steps:
        np.subtract(src[hi], src[lo], out=dst[to])
        if zero is not None:
            (dst if flat else out)[zero] = 0.0  # also overwrites the differences that wrapped


@lru_cache(_STEPS)
def _diff_steps(shape, rows: int, axis: int) -> tuple:
    """The one step of :func:`_diff` from a grid of ``shape`` into ``rows`` rows."""
    return (_step(shape[1:], axis, rows, axis == 0 and shape[0] > rows, 0, 0),)


def _diff(u, axis: int, out) -> np.ndarray:
    """Write the axis-``axis`` forward difference of the C-ordered grid ``u`` into ``out``.

    ``out`` may hold fewer rows of the first axis than ``u``: it then gets the
    first ``len(out)`` rows of the difference.  Along the first axis the row
    after them is a halo that the last row reads, so only a ``u`` that ends
    with ``out`` gives that row the zero of the grid's last row.
    """
    _run(u.ravel(), out.ravel(), out, _diff_steps(u.shape, len(out), axis))
    return out


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
    shape, steps = _grad_steps(u.shape, rows if rows is None else tuple(rows))
    out = _output(out, shape)
    _run(u.ravel(), out.ravel(), out, steps)
    return out


@lru_cache(_STEPS)
def _grad_steps(shape, rows) -> tuple:
    """``(out shape, steps)`` of :func:`grad` at ``rows`` of a grid of ``shape``."""
    (a, b), tail = _span(rows, shape[0]), shape[1:]
    row = math.prod(tail)
    # the first axis reads row b as a halo unless b ends the grid
    return (len(shape), b - a) + tail, tuple(
        _step(tail, axis, b - a, axis == 0 and b < shape[0], a * row, axis * (b - a) * row, (axis,))
        for axis in range(len(shape)))


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
    if len(p) != len(dims):  # inline: every dual step of the vector models calls this
        raise DimensionError(f"not a vector field of one channel per grid axis: shape {p.shape}")
    work, slabs = _adjoint_grad_steps(p.shape, _SLAB)
    out, scratch = np.empty(dims), np.empty(work)
    src, dst, part = p.ravel(), out.ravel(), scratch.ravel()
    for first, later, rows, term in slabs:
        _diff_t(src, dst, p, out, first)
        for step in later:
            _diff_t(src, part, p, scratch, step)
            np.add(dst[rows], part[term], out=dst[rows])
    return out


@lru_cache(_STEPS)
def _adjoint_grad_steps(shape, slab: int) -> tuple:
    """``(scratch shape, slabs)`` of :func:`adjoint_grad` of a field of ``shape``.

    Each slab holds the first axis's step into the output, the later axes'
    steps into scratch, and the flat rows of the output and the scratch that
    each later term is added from.
    """
    dims, tail = shape[1:], shape[2:]
    spans, row, grid = _spans(dims, slab), math.prod(tail), math.prod(dims)
    slabs = []
    for a, b in spans:
        steps = [_step_t(tail, k, a, b, dims[0], (k * grid + a * row, (k,), a),
                         (a * row, (), a) if k == 0 else (0, (), 0)) for k in range(shape[0])]
        slabs.append((steps[0], tuple(steps[1:]), slice(a * row, b * row), slice(0, (b - a) * row)))
    return (spans[0][1],) + tail, tuple(slabs)


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
    u = np.asarray(u, dtype=np.float64, order="C")
    shape, work, steps = _hessian_steps(u.shape, rows if rows is None else tuple(rows))
    out, du = _output(out, shape), np.empty(work)
    src, dst, mid = u.ravel(), out.ravel(), du.ravel()
    for first, seconds in steps:
        _run(src, mid, du, first)
        _run(mid, dst, out, seconds)
    return out


@lru_cache(_STEPS)
def _hessian_steps(shape, rows) -> tuple:
    """``(out shape, work shape, steps)`` of :func:`hessian` at ``rows`` of a grid of ``shape``.

    For each axis ``l`` the steps hold the axis-``l`` difference into the
    work grid, then its axis-``m`` differences, ``m >= l``, into the output.
    The work grid holds one more row for the first axis, a halo of the
    first-axis difference, up to the grid's last row.
    """
    (a, b), tail, d = _span(rows, shape[0]), shape[1:], len(shape)
    work, size, channels = min(b + 1, shape[0]) - a, (b - a) * math.prod(tail), _layout(d)[1]
    steps = []
    for l in range(d):
        r = work if l == 0 else b - a
        first = _step(tail, l, r, l == 0 and b + 1 < shape[0], a * math.prod(tail), 0)
        seconds = tuple(_step(tail, m, b - a, r > b - a and m == 0, 0, c * size, (c,))
                        for m in range(l, d) for c in (channels[l * d + m],))
        steps.append(((first,), seconds))
    return (d * (d + 1) // 2, b - a) + tail, (work,) + tail, tuple(steps)


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
    work, slabs = _adjoint_hessian_steps(q.shape, _SLAB)
    out, row, scratch = np.empty(dims), np.empty((1 + work[0],) + work[1:]), np.empty(work)
    qf, rf, of, part = q.ravel(), row.ravel(), out.ravel(), scratch.ravel()
    for terms, carry in slabs:
        for inner, double, step, add in terms:
            v, src, w, dst = (q, qf, row, rf) if inner else (row, rf, out, of)
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
def _adjoint_hessian_steps(shape, slab: int) -> tuple:
    """``(work shape, slabs)`` of :func:`adjoint_hessian` of a packed field of ``shape``.

    Each slab lists its terms in order, ``(inner, double, step, add)``: an
    inner term takes a channel of ``q`` into ``row_l``, in the row buffer
    after its halo row, an outer one ``row_l`` (``row_0`` from its halo row)
    into the output; ``double`` slices ``row_l`` where it is doubled first.
    ``add`` holds the flat rows that a term computed in scratch is added to,
    then the scratch's.  ``carry`` copies ``row_0``'s last row into the halo
    row, for the next slab.
    """
    dims, tail = shape[1:], shape[2:]
    d, spans, row, grid = len(dims), _spans(dims, slab), math.prod(tail), math.prod(dims)
    channels, slabs = _layout(d)[1], []
    for a, b in spans:
        size, scratch = (b - a) * row, (0, (), 0)
        rows, out, term = slice(row, row + size), (a * row, (), a), slice(0, size)
        terms = []
        # the last axis, the slowest to stride along, is written rather than added where it can be
        for l in reversed(range(d)):
            for i, m in enumerate(range(d - 1, l - 1, -1)):
                c = channels[l * d + m]
                step = _step_t(tail, m, a, b, dims[0], (c * grid + a * row, (c,), a),
                               scratch if i else (row, (), 1))
                terms.append((True, rows if m == l and i else None, step,
                              (rows, term) if i else None))
            step = _step_t(tail, l, a, b, dims[0], (row, (), 1), scratch if l < d - 1 else out)
            terms.append((False, None, step,
                          (slice(a * row, b * row), term) if l < d - 1 else None))
        carry = None if b == dims[0] else (slice(0, row), slice(size, size + row))
        slabs.append((tuple(terms), carry))
    return (spans[0][1],) + tail, tuple(slabs)


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
