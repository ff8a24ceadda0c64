"""Independent dense oracles and random-field helpers for the test suite.

The dense oracles are built from first principles (explicit stencils,
Kronecker products, SVD pseudoinverses) so they exercise none of the fast
paths they are used to check.  The reference implementations, ``mode_apply``,
``iso_l1_norm``, the naive dual loop, the full-tensor step-1 residual, the
whole-grid transposed operators and objective, the slice-by-slice
operators, the per-axis dense Poisson solve and the staircase expression,
are the simple forms that the library's paths replaced; tests compare the
two, bit for bit where the forms round alike.
"""

import math

import numpy as np

from tvstokes.errors import DimensionError
from tvstokes.fields import _diff, _sum_squares, adjoint_grad_tensor, grad_vec
from tvstokes.spectral import project_gradient_field


def dense_diff(n):
    """One-sided difference matrix, written out row by row."""
    mat = np.zeros((n, n))
    for i in range(n - 1):
        mat[i, i] = -1.0
        mat[i, i + 1] = 1.0
    return mat


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


def kron_chain(mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def dense_grad_matrix(dims):
    """Stacked per-axis difference operators acting on flattened fields.

    Row block l applies the difference along axis l; the block order matches
    the channel-major vector-field layout.
    """
    blocks = []
    for axis in range(len(dims)):
        mats = [np.eye(n) for n in dims]
        mats[axis] = dense_diff(dims[axis])
        blocks.append(kron_chain(mats))
    return np.vstack(blocks)


def dense_projector(dims, cutoff=1e-10):
    """Gradient-subspace projector assembled via an SVD pseudoinverse."""
    G = dense_grad_matrix(dims)
    GtG = G.T @ G
    U, s, Vt = np.linalg.svd(GtG)
    s_inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return G @ (Vt.T * s_inv) @ U.T @ G.T


def dense_laplacian_pinv(dims, cutoff=1e-10):
    """SVD pseudoinverse of the dense composed operator grad^T . grad."""
    G = dense_grad_matrix(dims)
    GtG = G.T @ G
    U, s, Vt = np.linalg.svd(GtG)
    s_inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return (Vt.T * s_inv) @ U.T


def signed_grid(dims, seed):
    """Random grid in which about a third of the entries are +0.0 or -0.0."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(dims)
    return np.where(rng.random(dims) < 0.35, np.copysign(0.0, rng.standard_normal(dims)), u)


def _slices(u, axis):
    """Contiguous copies of the slices of ``u`` along ``axis``."""
    return [np.take(u, i, axis=axis) for i in range(u.shape[axis])]


def naive_diff(u, axis):
    """The forward difference along ``axis``, slice by slice, zero on the last slice."""
    s = _slices(u, axis)
    return np.stack([b - a for a, b in zip(s, s[1:])] + [np.zeros_like(s[0])], axis=axis)


def naive_diff_t(v, axis, base=None):
    """``D^T v`` slice by slice, or ``base + D^T v`` computed as the update of each slice."""
    s = _slices(v, axis)
    if base is None:
        return np.stack([s[0] * -1.0] + [a - b for a, b in zip(s, s[1:-1])] + [s[-2]], axis=axis)
    b = _slices(base, axis)
    mid = [c + (x - y) for c, x, y in zip(b[1:-1], s, s[1:-1])]
    return np.stack([b[0] - s[0]] + mid + [b[-1] + s[-2]], axis=axis)


def naive_grad(u):
    """``grad`` slice by slice: channel ``l`` is the axis-``l`` difference."""
    return np.stack([naive_diff(u, axis) for axis in range(u.ndim)])


def naive_hessian(u):
    """``hessian`` slice by slice: the axis-``m`` difference of the axis-``l`` one, ``l <= m``,
    in the row-major order of the upper triangle."""
    d = u.ndim
    return np.stack([naive_diff(naive_diff(u, l), m) for l in range(d) for m in range(l, d)])


def naive_adjoint_grad(p):
    """``adjoint_grad`` slice by slice: the first axis's transposed difference, then each later
    one added, rounded on its own first."""
    out = naive_diff_t(p[0], 0)
    for axis in range(1, len(p)):
        out = out + naive_diff_t(p[axis], axis)
    return out


def naive_adjoint_hessian(q):
    """``adjoint_hessian`` slice by slice, adding its terms in its order: for ``l`` from the
    last axis down, ``row_l = D_m^T q_lm`` summed from the last ``m`` down to ``l + 1`` and
    doubled, plus ``D_l^T q_ll``, then ``D_l^T row_l`` added to the output."""
    d = q.ndim - 1
    rows, cols, index = symmetric_packing(d)
    out = None
    for l in reversed(range(d)):
        row = naive_diff_t(q[index[l, d - 1]], d - 1)
        for m in range(d - 2, l - 1, -1):
            if m == l:
                row = row * 2.0
            row = row + naive_diff_t(q[index[l, m]], m)
        term = naive_diff_t(row, l)
        out = term if out is None else out + term
    return out


def dense_poisson_solve(f):
    """``PoissonPlan.solve`` as the per-axis dense products it stands for.

    The orthonormal DCT-II matrix of each axis, written out, multiplies the
    grid along each axis in turn, the spectrum is divided by the eigenvalues
    ``sum_k (2 sin(pi i_k / (2 n_k)))^2`` with the constant mode dropped,
    and the transposed matrices multiply it back.  An axis before the last is
    a left product on the grid viewed as ``(lead, n, rest)``, the last a right
    product by the transpose; the products are the library's, so the bits are.
    """
    dims = f.shape

    def cosine(n):
        j = np.arange(n)
        c = np.sqrt(2.0 / n) * np.cos(np.pi * np.outer(j, 2 * j + 1) / (2.0 * n))
        c[0, :] = np.sqrt(1.0 / n)
        return c

    def along(x, c, axis):
        n = dims[axis]
        if axis == len(dims) - 1:
            return np.matmul(x.reshape(-1, n), c.T).reshape(dims)
        lead = math.prod(dims[:axis])
        return np.matmul(c, x.reshape(lead, n, -1)).reshape(dims)

    eigen = 0.0
    for axis, n in enumerate(dims):
        sigma = 2.0 * np.sin(np.pi * np.arange(n) / (2.0 * n))
        eigen = np.add.outer(eigen, sigma ** 2) if axis else sigma ** 2
    eigen[(0,) * len(dims)] = np.inf
    x = np.array(f, dtype=np.float64, order="C")
    for axis, n in enumerate(dims):
        x = along(x, cosine(n), axis)
    x = x * (1.0 / eigen)
    for axis, n in enumerate(dims):
        x = along(x, cosine(n).T, axis)
    return x


def rand_scalar(dims, seed):
    return np.random.default_rng(seed).standard_normal(dims)


def rand_vector(dims, seed):
    return np.random.default_rng(seed).standard_normal((len(dims),) + tuple(dims))


def rand_tensor(dims, seed):
    d = len(dims)
    return np.random.default_rng(seed).standard_normal((d, d) + tuple(dims))


def constant_cases(n=50, seed=0):
    """``n`` random ``(value, lam)`` pairs for constant inputs, over several decades of each:
    ``lam * (value/lam)`` rounds away from ``value`` for a good share of them."""
    rng = np.random.default_rng(seed)
    values = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    return list(zip(values.tolist(), (10.0 ** rng.uniform(-3.0, 1.0, n)).tolist()))


def feasible_vector(dims, seed, scale=1.0):
    """Random vector field with pointwise tuple norms at most ``scale``."""
    q = rand_vector(dims, seed)
    norms = np.sqrt(np.sum(q * q, axis=0))
    return scale * q / np.maximum(1.0, norms)


def feasible_tensor(dims, seed, scale=1.0):
    """Random tensor field with pointwise tuple norms at most ``scale``."""
    q = rand_tensor(dims, seed)
    norms = np.sqrt(np.sum(q * q, axis=(0, 1)))
    return scale * q / np.maximum(1.0, norms)


def tuple_norms(q, channel_ndim=1):
    """The grid of tuple norms over the leading ``channel_ndim`` axes.

    Adds the squares one channel at a time in C order, as the library does.
    """
    return np.sqrt(sum(q[c] * q[c] for c in np.ndindex(q.shape[:channel_ndim])))


def whole_stationarity_residual(w, p, channel_ndim=1):
    """Max-abs of ``w + |w|*p`` over the whole grids, ``|w|`` the :func:`tuple_norms` of ``w``
    over its leading ``channel_ndim`` axes; NaN if any entry is."""
    return float(np.max(np.abs(w + tuple_norms(w, channel_ndim) * p)))


def iso_l1_norm(q, channel_ndim=1):
    """Isotropic l1 norm: grid sum of the tuple norms over the leading ``channel_ndim`` axes."""
    return float(np.sum(tuple_norms(q, channel_ndim)))


def row_sum(grid):
    """Each row of the first axis summed over the later axes, then the row sums summed once:
    the summation order of ``dual._objective``."""
    return float(np.sum(np.sum(grid, axis=tuple(range(1, grid.ndim)))))


def brute_inner(x, y):
    """Inner product via a flat dot product, independent of fields.inner."""
    return float(np.dot(np.asarray(x, float).ravel(), np.asarray(y, float).ravel()))


def reference_iterate(residual, p, channel_ndim, tau, max_iters, tol):
    """The dual loop written naively: ``unit_clip(p - tau*A(p))`` and ``max_tuple_norm``.

    Allocates fresh arrays every step and reduces the channel axes with
    ``np.sum``; ``residual(p)`` returns ``A(p)``.  Returns ``(p, iters, change)``.
    """
    axes = tuple(range(channel_ndim))
    for iters in range(1, max_iters + 1):
        q = p - tau * residual(p)
        p_next = q / np.maximum(1.0, np.sqrt(np.sum(q * q, axis=axes)))
        step = p_next - p
        change = float(np.max(np.sqrt(np.sum(step * step, axis=axes))))
        p = p_next
        if change <= tol:
            break
    return p, iters, change


def symmetric_packing(d):
    """``(rows, cols, index)`` of the packed symmetric layout, written out independently.

    Packed channel ``k`` holds ``(rows[k], cols[k])``, the row-major upper
    triangle; ``index[l, m]`` is the packed channel of ``(l, m)`` and ``(m, l)``.
    """
    rows, cols = np.triu_indices(d)
    index = np.empty((d, d), dtype=int)
    index[rows, cols] = index[cols, rows] = np.arange(len(rows))
    return rows, cols, index


def full_tensor_residual(p, g0, lam, plan=None):
    """Step-1 residual on the full ``(d, d)`` tensor dual, the form the packed one replaced.

    ``A(p) = grad_vec(project(adjoint_grad_tensor(p)) - g0/lam)``: 12 stencil
    passes at d = 3 where the packed potential form takes 9 each way.
    """
    v = project_gradient_field(adjoint_grad_tensor(p), plan)
    v -= g0 / lam
    return grad_vec(v)


def whole_diff_t(v, axis, out, scratch=None):
    """The transposed difference over a whole C-ordered grid, into ``out`` or added to it."""
    if scratch is not None:
        out += whole_diff_t(v, axis, scratch)
        return out
    stride = math.prod(v.shape[axis + 1:])
    src = v.reshape(-1)
    np.subtract(src[:-stride], src[stride:], out=out.reshape(-1)[stride:])
    dst, v = out.swapaxes(0, axis), v.swapaxes(0, axis)
    np.multiply(v[:1], -1.0, out=dst[:1])
    dst[-1:] = v[-2:-1]
    return out


def whole_adjoint(p, lead):
    """``adjoint_grad`` (``lead=0``) or ``adjoint_grad_tensor`` (``lead=1``) in whole grids."""
    p = np.asarray(p, dtype=np.float64, order="C")
    dims = p.shape[lead + 1:]
    out = np.empty(p.shape[:lead] + dims)
    scratch = np.empty(dims)
    for c in np.ndindex(p.shape[:lead]):
        for axis, v in enumerate(p[c]):
            whole_diff_t(v, axis, out[c], scratch if axis else None)
    return out


def whole_adjoint_hessian(q):
    """``adjoint_hessian`` in whole grids: each ``row_l`` in full, then its transpose."""
    q = np.asarray(q, dtype=np.float64, order="C")
    dims = q.shape[1:]
    d = len(dims)
    out, row, scratch = (np.empty(dims) for _ in range(3))
    for l in reversed(range(d)):
        first = l * (2 * d - l + 1) // 2
        for i, m in enumerate(range(d - 1, l - 1, -1)):
            if m == l and i:
                row *= 2.0
            whole_diff_t(q[first + m - l], m, row, scratch if i else None)
        whole_diff_t(row, l, out, scratch if l < d - 1 else None)
    return out


def whole_objective(x, x0, lam, m=None, total=row_sum):
    """``dual._objective`` in whole grids: ``TV(x) + 1/(2*lam)*sum_k ||x[k] - x0[k]||^2``, plus
    ``<x[0], m>`` given ``m``, each term's grid summed by ``total``.

    By default each term sums its rows, then the row sums (:func:`row_sum`), as the library
    does; ``total=one_sum`` takes one sum of each whole grid, the objective's earlier form.
    """
    dims = x.shape[1:]
    squares, step = np.empty(dims), np.empty(dims)
    diffs = (_diff(x[c], axis, step) for c in range(len(x)) for axis in range(len(dims)))
    _sum_squares(diffs, squares, step)
    value = total(np.sqrt(squares)) + 0.5 / lam * sum(
        total(np.square(x[k] - x0[k])) for k in range(len(x)))
    if m is not None:
        value += total(x[0] * m)
    return value


def one_sum(grid):
    """One sum of the whole grid."""
    return float(np.sum(grid))


def reference_staircase(u):
    """``staircase_metric`` as one array expression per axis, fresh temporaries each time."""
    u = np.asarray(u, dtype=np.float64)
    core = tuple(slice(1, -1) for _ in range(u.ndim))
    acc = np.zeros(tuple(n - 2 for n in u.shape))
    for axis in range(u.ndim):
        lo = list(core)
        lo[axis] = slice(None, -2)
        hi = list(core)
        hi[axis] = slice(2, None)
        dd = u[tuple(hi)] - 2.0 * u[core] + u[tuple(lo)]
        acc += dd * dd
    return float(np.mean(np.sqrt(acc)))
