"""Discrete calculus: stencils, adjoints, pointwise projections, norms."""

import math
import sys

import numpy as np
import pytest

from tvstokes import (
    DimensionError,
    ParameterError,
    ReconstructionConfig,
    RofConfig,
    SmoothingConfig,
    adjoint_grad,
    adjoint_grad_tensor,
    divergence,
    grad,
    grad_vec,
    inner,
    l2_norm,
    max_tuple_norm,
    pointwise_normalize,
    reconstruct,
    rof_denoise,
    smooth_gradient_field,
    unit_clip,
    validate_field,
)
from tvstokes import dual, fields
from tvstokes.fields import _diff, _diff_t, adjoint_hessian, hessian
from oracles import (
    brute_inner, dense_diff, iso_l1_norm, mode_apply, naive_adjoint_grad, naive_adjoint_hessian,
    naive_diff, naive_diff_t, naive_grad, naive_hessian, one_sum, rand_scalar, rand_tensor,
    rand_vector, row_sum, signed_grid, tuple_norms, whole_adjoint, whole_adjoint_hessian,
    whole_objective,
)


# ---------------------------------------------------------------- mode_apply

def test_mode_apply_identity():
    u = rand_scalar((4, 5), 0)
    out = mode_apply(u, np.eye(4), 0)
    np.testing.assert_array_equal(out, u)


def test_mode_apply_matches_sum_convention():
    u = rand_scalar((3, 4, 5), 1)
    T = rand_scalar((4, 4), 2)
    got = mode_apply(u, T, 1)
    want = np.einsum("jk,ikl->ijl", T, u)
    np.testing.assert_allclose(got, want, atol=1e-13)


def test_mode_apply_diff_stencil_1d():
    out = mode_apply(np.array([1.0, 3.0, 2.0]), dense_diff(3), 0)
    np.testing.assert_array_equal(out, [2.0, -1.0, 0.0])


def test_mode_apply_size_mismatch():
    with pytest.raises(DimensionError):
        mode_apply(rand_scalar((4, 5), 3), np.eye(3), 0)


def test_mode_apply_commutes_across_distinct_axes():
    u = rand_scalar((3, 4, 5), 4)
    A = rand_scalar((3, 3), 5)
    B = rand_scalar((5, 5), 6)
    ab = mode_apply(mode_apply(u, B, 2), A, 0)
    ba = mode_apply(mode_apply(u, A, 0), B, 2)
    np.testing.assert_allclose(ab, ba, atol=1e-12)


# ---------------------------------------------------------------- gradient

def test_grad_constant_is_zero():
    g = grad(np.full((4, 3), 2.5))
    assert np.all(g == 0.0)
    assert np.all(adjoint_grad(g) == 0.0)


def test_grad_2d_example():
    g = grad(np.array([[0.0, 1.0], [2.0, 3.0]]))
    np.testing.assert_array_equal(g[0], [[2.0, 2.0], [0.0, 0.0]])
    np.testing.assert_array_equal(g[1], [[1.0, 0.0], [1.0, 0.0]])


def test_grad_1d_example():
    np.testing.assert_array_equal(grad(np.array([1.0, 3.0, 2.0]))[0], [2.0, -1.0, 0.0])


def test_grad_matches_dense_stencil_matrix():
    u = rand_scalar((3, 4, 5), 7)
    g = grad(u)
    for axis, n in enumerate(u.shape):
        np.testing.assert_allclose(g[axis], mode_apply(u, dense_diff(n), axis), atol=1e-13)


def test_grad_last_slice_vanishes():
    for dims, seed in [((5,), 8), ((3, 6), 9), ((4, 3, 5), 10)]:
        g = grad(rand_scalar(dims, seed))
        for axis in range(len(dims)):
            assert np.all(np.take(g[axis], -1, axis=axis) == 0.0)


def test_grad_vec_zero_and_shape():
    dims = (3, 4, 2)
    assert np.all(grad_vec(np.zeros((3,) + dims)) == 0.0)
    h = grad_vec(rand_vector(dims, 11))
    assert h.shape == (3, 3) + dims  # nine channels for d = 3


def test_grad_vec_example():
    g = grad(np.array([[0.0, 1.0], [2.0, 3.0]]))
    h = grad_vec(g)
    np.testing.assert_array_equal(h[0, 0], [[-2.0, -2.0], [0.0, 0.0]])


# ---------------------------------------------------------------- adjoints

def test_adjoint_grad_two_point_example():
    p = np.array([[1.0, 0.0]])
    np.testing.assert_array_equal(adjoint_grad(p), [-1.0, 1.0])
    u = np.array([0.3, 0.9])
    assert brute_inner(grad(u), p) == pytest.approx(brute_inner(u, adjoint_grad(p)), abs=1e-15)


def test_adjoint_grad_zero():
    assert np.all(adjoint_grad(np.zeros((2, 4, 4))) == 0.0)


# one channel short of a 2-d grid's two, which used to return the first axis's term
# alone, and one over, which used to raise numpy's IndexError
@pytest.mark.parametrize("shape", [(1, 5, 6), (3, 5, 6)], ids=str)
@pytest.mark.parametrize("op", [adjoint_grad, divergence], ids=lambda op: op.__name__)
def test_adjoint_grad_needs_one_channel_per_grid_axis(op, shape):
    with pytest.raises(DimensionError, match=r"one channel per grid axis"):
        op(np.zeros(shape))


def test_adjoint_identity_random():
    for dims, seed in [((3, 4, 5), 12), ((4, 4), 13), ((6,), 14), ((2, 3, 2, 4), 15)]:
        u = rand_scalar(dims, seed)
        p = rand_vector(dims, seed + 100)
        lhs = brute_inner(grad(u), p)
        rhs = brute_inner(u, adjoint_grad(p))
        assert abs(lhs - rhs) <= 1e-12 * l2_norm(u) * l2_norm(p)


def test_adjoint_tensor_identity_random():
    for dims, seed in [((4, 4), 16), ((3, 4, 5), 17)]:
        g = rand_vector(dims, seed)
        p = rand_tensor(dims, seed + 100)
        lhs = brute_inner(grad_vec(g), p)
        rhs = brute_inner(g, adjoint_grad_tensor(p))
        assert abs(lhs - rhs) <= 1e-12 * l2_norm(g) * l2_norm(p)


def test_adjoint_tensor_zero_and_single_channel():
    dims = (4, 5)
    assert np.all(adjoint_grad_tensor(np.zeros((2, 2) + dims)) == 0.0)
    # one nonzero channel (l, m) reduces to the vector adjoint on that channel
    p = np.zeros((2, 2) + dims)
    block = rand_scalar(dims, 18)
    p[1, 0] = block
    v = np.zeros((2,) + dims)
    v[0] = block
    out = adjoint_grad_tensor(p)
    np.testing.assert_array_equal(out[1], adjoint_grad(v))
    assert np.all(out[0] == 0.0)


# ---------------------------------------------------------------- divergence

def test_divergence_examples():
    assert np.all(divergence(np.zeros((1, 4))) == 0.0)
    np.testing.assert_array_equal(divergence(np.array([[1.0, 0.0]])), [1.0, -1.0])


def test_divergence_sign_identity():
    u = rand_scalar((4, 5), 19)
    v = rand_vector((4, 5), 20)
    lhs = -brute_inner(grad(u), v)
    rhs = brute_inner(u, divergence(v))
    assert abs(lhs - rhs) <= 1e-12 * l2_norm(u) * l2_norm(v)


# ---------------------------------------------------------------- clipping

def test_unit_clip_inside_ball_unchanged():
    q = np.array([[0.3], [0.4]])
    np.testing.assert_array_equal(unit_clip(q), q)


def test_unit_clip_scales_large_tuples():
    q = np.array([[3.0], [4.0]])
    np.testing.assert_allclose(unit_clip(q), [[0.6], [0.8]], atol=1e-15)


def test_unit_clip_zero_and_bound():
    assert np.all(unit_clip(np.zeros((2, 3, 3))) == 0.0)
    q = 10.0 * rand_tensor((4, 4), 21)
    clipped = unit_clip(q, channel_ndim=2)
    assert max_tuple_norm(clipped, channel_ndim=2) <= 1.0 + 1e-15


def test_unit_clip_idempotent():
    q = 3.0 * rand_vector((5, 5), 22)
    once = unit_clip(q)
    twice = unit_clip(once)
    np.testing.assert_allclose(twice, once, atol=1e-14)


def test_unit_clip_pointwise_lipschitz():
    rng = np.random.default_rng(23)
    for _ in range(200):
        a = rng.standard_normal(3) * 3
        b = rng.standard_normal(3) * 3
        ca = unit_clip(a.reshape(3, 1)).ravel()
        cb = unit_clip(b.reshape(3, 1)).ravel()
        assert np.linalg.norm(ca - cb) <= np.linalg.norm(a - b) + 1e-12


# ---------------------------------------------------------------- normalize

def test_pointwise_normalize_examples():
    q = np.array([[3.0], [4.0]])
    np.testing.assert_allclose(pointwise_normalize(q, 1e-8), [[0.6], [0.8]], atol=1e-15)
    assert np.all(pointwise_normalize(np.zeros((2, 3)), 1e-8) == 0.0)
    tiny = np.array([[1e-12], [0.0]])
    np.testing.assert_allclose(pointwise_normalize(tiny, 1e-8), [[1e-4], [0.0]], rtol=1e-12)


def test_pointwise_normalize_bad_eps():
    for eps in (0.0, True, float("nan"), float("inf")):  # True would pass as 1.0
        with pytest.raises(ParameterError):
            pointwise_normalize(np.zeros((1, 4)), eps)


# ---------------------------------------------------------------- norms

def test_norms_single_tuple():
    v = np.array([[3.0], [4.0]])
    assert l2_norm(v) == pytest.approx(5.0)
    assert iso_l1_norm(v) == pytest.approx(5.0)
    assert max_tuple_norm(v) == pytest.approx(5.0)


def test_norms_two_point_grid():
    v = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert iso_l1_norm(v) == pytest.approx(2.0)
    assert l2_norm(v) == pytest.approx(np.sqrt(2.0))


def test_iso_l1_tensor_tuple():
    q = np.full((3, 3, 1), 1.0 / 3.0)
    assert iso_l1_norm(q, channel_ndim=2) == pytest.approx(1.0)


def test_inner_shape_mismatch():
    with pytest.raises(DimensionError):
        inner(np.zeros((2, 3)), np.zeros((3, 2)))


def test_tuple_norm_bad_channel_ndim():
    with pytest.raises(DimensionError):
        max_tuple_norm(np.zeros((2, 3)), channel_ndim=2)


# ---------------------------------------------------------------- validation

def test_validate_field_rejects_degenerate_axis():
    with pytest.raises(DimensionError):
        validate_field(np.zeros((1, 4)))


def test_validate_field_rejects_non_finite():
    u = np.zeros((3, 3))
    u[1, 1] = np.nan
    with pytest.raises(ParameterError):
        validate_field(u)


# ------------------------------------------------------ the one-axis kernels

KERNEL_GRIDS = [lead + (n,) for n in (2, 3, 8, 16) for lead in [(), (3,), (2, 3), (2, 2, 3)]]


def _whole_diff_t(v, axis, out, scratch=None):
    """``_diff_t``'s step over the whole grid ``v``, into ``out``, or into ``scratch`` and then
    added to ``out``, as the slab loops add a term."""
    whole = (0, (), 0)  # flat entry, channel index and row of grid row 0
    step = fields._step_t(v.shape[1:], axis, 0, len(v), len(v), whole, whole)
    w = out if scratch is None else scratch
    _diff_t(v.ravel(), w.ravel(), v, w, step)
    if scratch is not None:
        out += scratch
    return out


@pytest.mark.parametrize("dims", KERNEL_GRIDS, ids=str)
def test_kernels_match_a_naive_slice_reference_bitwise(dims):
    u, base = signed_grid(dims, 30), signed_grid(dims, 31)
    for axis in range(len(dims)):
        got = _diff(u, axis, np.full(dims, np.nan))
        assert got.tobytes() == naive_diff(u, axis).tobytes()
        got = _whole_diff_t(u, axis, np.full(dims, np.nan))
        assert got.tobytes() == naive_diff_t(u, axis).tobytes()
        got = _whole_diff_t(u, axis, base.copy(), np.full(dims, np.nan))
        assert got.tobytes() == naive_diff_t(u, axis, base).tobytes()


@pytest.mark.parametrize("dims", [(5, 8), (3, 4, 8), (6, 5, 4)], ids=str)
def test_operators_give_the_c_ordered_result_on_other_layouts(dims):
    u, p = rand_scalar(dims, 32), rand_vector(dims, 33)
    for op, x in [(grad, u), (adjoint_grad, p), (hessian, u), (grad_vec, p),
                  (adjoint_grad_tensor, rand_tensor(dims, 34))]:
        want = op(x)
        assert op(np.asfortranarray(x)).tobytes() == want.tobytes()
        strided = np.repeat(x, 2, axis=-1)[..., ::2]  # a view that is not contiguous
        assert op(strided).tobytes() == want.tobytes()


@pytest.mark.parametrize("op, out", [
    (grad, np.empty((2, 5, 6), order="F")),
    (grad, np.empty((2, 5, 12))[..., ::2]),
    (grad, np.empty((2, 6, 5))),
    (hessian, np.empty((3, 5, 6), order="F")),
    (hessian, np.empty((3, 10, 6))[:, ::2]),
    (hessian, np.empty((2, 5, 6))),
], ids=["grad-fortran", "grad-strided", "grad-shape", "hessian-fortran", "hessian-strided",
        "hessian-shape"])
def test_forward_operators_reject_an_out_they_cannot_write(op, out):
    with pytest.raises(DimensionError):
        op(rand_scalar((5, 6), 35), out=out)


# 1-d to 4-d; a last axis of 8 strides its slices by 64 bytes (numpy 2.4.6's np.negative bug)
ROW_GRIDS = [(9,), (12,), (6, 5), (12, 8), (5, 4, 3), (8, 8, 8), (4, 3, 2, 8), (3, 2, 2, 3)]


def _row_ranges(n):
    """Row ranges ending at ``n``, ``n - 1``, ``n - 2`` and inside, from several starts."""
    ends = {n, n - 1, n - 2, n // 2, 1}
    return sorted({(a, b) for b in ends for a in (0, 1, b - 1, b - 2) if 0 <= a < b <= n})


@pytest.mark.parametrize("dims", ROW_GRIDS, ids=str)
def test_row_ranges_equal_the_rows_of_the_whole_result_bitwise(dims):
    """``grad`` and ``hessian`` over row ranges, and ``_diff``, which runs one channel of
    ``grad``'s steps: from the rows and the halo row after them it gives those rows of the
    whole gradient's channel, from the rows alone those of the rows' own gradient."""
    u = signed_grid(dims, 36)
    for op in (grad, hessian):
        whole = op(u)
        for a, b in _row_ranges(dims[0]):
            want = whole[:, a:b].tobytes()
            assert op(u, rows=(a, b)).tobytes() == want
            out = np.full(whole[:, a:b].shape, np.nan)  # stale contents must not leak
            assert op(u, out, (a, b)) is out and out.tobytes() == want
    whole = grad(u)
    for a, b in _row_ranges(dims[0]):
        own = grad(u[a:b])
        for axis in range(len(dims)):
            out = np.full((b - a,) + dims[1:], np.nan)
            assert _diff(u[a:b + 1], axis, out) is out
            assert out.tobytes() == whole[axis, a:b].tobytes()
            out = np.full((b - a,) + dims[1:], np.nan)
            assert _diff(u[a:b], axis, out).tobytes() == own[axis].tobytes()


@pytest.mark.parametrize("rows", [(0, 0), (3, 2), (-1, 2), (0, 6), (5, 6)], ids=str)
@pytest.mark.parametrize("op", [grad, hessian], ids=["grad", "hessian"])
def test_forward_operators_reject_rows_outside_the_first_axis(op, rows):
    with pytest.raises(DimensionError):
        op(rand_scalar((5, 6), 37), rows=rows)


@pytest.mark.parametrize("dims", [(5,), (4, 6), (3, 4, 8), (2, 3, 2, 4)], ids=str)
def test_the_objectives_tv_term_is_the_iso_l1_norm_of_the_gradient(dims):
    """At ``x0 = x`` the objective is its TV term: bit for bit the row sums of the
    gradient's tuple norms, and one whole-grid sum of them up to rounding (bit for bit
    on a 1-d grid, where a row is one entry)."""
    u, g = signed_grid(dims, 40), signed_grid((len(dims),) + dims, 41)
    for x, q, lead in ((u[None], grad(u), 1), (g, grad_vec(g), 2)):
        tv = dual._objective(x, lambda k, span, out: x[k, slice(*span)], 0.3)
        assert tv == row_sum(tuple_norms(q, lead))
        if len(dims) == 1:
            assert tv == iso_l1_norm(q, lead)
        assert tv == pytest.approx(iso_l1_norm(q, lead), rel=1e-13)


# 1-d, 4-d, a 2-d frame that one slab spans, first axes of length 2, and a grid the loop
# splits into three slabs
TABLE_GRIDS = [(9,), (3, 2, 4, 5), (64, 64), (2, 7), (2, 3, 5), (70, 33, 16)]


@pytest.mark.parametrize("dims", TABLE_GRIDS, ids=str)
def test_kernels_from_their_tables_match_the_slice_by_slice_operators_bitwise(dims):
    """Every operator run from its cached steps, on the whole grid and on the dual loop's slabs."""
    d = len(dims)
    u, p = signed_grid(dims, 50), signed_grid((d,) + dims, 51)
    q = signed_grid((d * (d + 1) // 2,) + dims, 52)
    for _ in range(2):  # the second time from the cached tables
        for op, naive in ((grad, naive_grad), (hessian, naive_hessian)):
            want = naive(u)
            assert op(u).tobytes() == want.tobytes()
            for a, b in fields._spans(dims):
                assert op(u, rows=(a, b)).tobytes() == want[:, a:b].tobytes()
        assert fields.adjoint_grad(p).tobytes() == naive_adjoint_grad(p).tobytes()
        assert adjoint_hessian(q).tobytes() == naive_adjoint_hessian(q).tobytes()


@pytest.mark.parametrize("dims", TABLE_GRIDS, ids=str)
def test_the_kernels_shifted_steps_give_each_channel_of_the_kernels_bytes(dims):
    """The in-place chunk runner moves each step of ``grad``'s and ``hessian``'s one table onto
    its channel's grid: over any run of rows, each channel it subtracts, scaled, from the dual
    in place is bit for bit those rows of the stacked kernel, scaled and subtracted."""
    u = signed_grid(dims, 54)
    n, tau = dims[0], np.array(0.3)
    for op, table in fields._BLOCKS.items():
        want = op(u)
        for a, b in {(0, n), (0, 1), (n - 1, n), (n // 2, n), (max(0, n // 2 - 1), n // 2 + 1)}:
            pc = signed_grid(want[:, a:b].shape, 55)
            expect = pc - np.multiply(want[:, a:b], tau)
            grid, scratch = np.full(pc.shape[1:], np.nan), np.full(2 * u.size, np.nan)
            fields._subtract_scaled(table, u, a, scratch, grid, tau, pc)
            assert pc.tobytes() == expect.tobytes(), (op.__name__, (a, b))


def _leaves(x):
    """The entries of nested tuples and lists, a slice's bounds and step among them."""
    if isinstance(x, (tuple, list)):
        return [leaf for item in x for leaf in _leaves(item)]
    if isinstance(x, slice):
        return [x.start, x.stop, x.step]
    return [x]


def test_no_cache_in_the_package_holds_an_array():
    """The cached tables hold ints, slices and tuples of them, so no cache keeps a grid or a
    numpy scalar alive; a new cache must be listed here to pass."""
    u = rand_scalar((6, 5, 4), 53)
    smooth_gradient_field(u, SmoothingConfig(lam=0.3, max_iters=3))  # fills the caches
    reconstruct(u, grad(u), ReconstructionConfig(lam=0.3, max_iters=3))
    caches = {f"{obj.__module__}.{obj.__qualname__}": obj
              for name, module in list(sys.modules.items()) if name.startswith("tvstokes")
              for obj in vars(module).values() if hasattr(obj, "cache_info")}
    calls = {
        "tvstokes.fields._layout": (3,),
        "tvstokes.fields._grad_steps": ((5, 4), 3, 1),
        "tvstokes.fields._hessian_steps": ((5, 4), 3, 2),
        "tvstokes.fields._adjoint_grad_steps": ((3, 6, 5, 4), 3, True, False),
        "tvstokes.fields._adjoint_hessian_steps": ((6, 6, 5, 4), 3, True, False),
    }
    assert set(caches) == set(calls)
    for name, args in calls.items():
        assert all(type(leaf) in (int, bool, type(None)) for leaf in _leaves(caches[name](*args)))
        assert caches[name].cache_info().currsize > 0


# 1-d to 4-d, first axes that 4 does not divide; a last axis of 8 strides by 64 bytes
BLOCK_GRIDS = [(9,), (13, 8), (7, 5), (5, 4, 3), (70, 33, 16), (11, 3, 8), (6, 3, 2, 8),
               (5, 2, 2, 3)]
# slab rows: 1, a ragged 4, one slab spanning the grid, and the package default
SLAB_ROWS = {"rows-1": lambda n: 1, "rows-4": lambda n: 4, "one-slab": lambda n: n,
             "default": None}


@pytest.mark.parametrize("rows", SLAB_ROWS, ids=str)
@pytest.mark.parametrize("dims", BLOCK_GRIDS, ids=str)
def test_slab_blocked_operators_equal_the_whole_grid_bitwise(dims, rows, monkeypatch):
    """The transposed operators and the objective give the whole-grid bytes at any slab size.

    The objective sums each term's rows, then the row sums: within rounding of one sum
    of each whole grid, its earlier form, which a dropped term or a wrong row range
    would leave far behind."""
    if SLAB_ROWS[rows] is not None:
        monkeypatch.setattr(fields, "_SLAB", SLAB_ROWS[rows](dims[0]) * math.prod(dims[1:]))
        spans = fields._spans(dims)
        assert len(spans) == -(-dims[0] // SLAB_ROWS[rows](dims[0]))
        assert rows != "rows-4" or spans[-1][1] - spans[-1][0] < 4  # a ragged last slab
    d = len(dims)
    p, t = signed_grid((d,) + dims, 42), signed_grid((d, d) + dims, 43)
    q, u = signed_grid((d * (d + 1) // 2,) + dims, 44), signed_grid(dims, 45)
    assert fields.adjoint_grad(p).tobytes() == whole_adjoint(p, 0).tobytes()
    assert fields.adjoint_grad_tensor(t).tobytes() == whole_adjoint(t, 1).tobytes()
    assert adjoint_hessian(q).tobytes() == whole_adjoint_hessian(q).tobytes()
    m = signed_grid(dims, 46)
    for x in (p, u[None]):
        x0 = signed_grid(x.shape, 47)
        for shift in (None, m):
            got = dual._objective(x, lambda k, span, out: x0[k, slice(*span)], 0.3, shift)
            assert got == whole_objective(x, x0, 0.3, shift)
            assert got == pytest.approx(whole_objective(x, x0, 0.3, shift, one_sum), rel=1e-13)


@pytest.mark.parametrize("dims", [(13, 8), (7, 5, 3)], ids=str)
def test_solver_outputs_do_not_depend_on_the_slab_size(dims, monkeypatch):
    u = signed_grid(dims, 46)

    def run():
        r1 = smooth_gradient_field(u, SmoothingConfig(lam=0.3, max_iters=6))
        r2 = reconstruct(u, r1.g, ReconstructionConfig(lam=0.3, max_iters=6))
        r3 = rof_denoise(u, RofConfig(lam=0.3, max_iters=6))
        return [r1.g.tobytes(), r1.packed.tobytes(), r2.u.tobytes(), r2.p.tobytes(),
                r3.u.tobytes()] + [(r.kkt_residual, r.objective) for r in (r1, r2, r3)]

    want = run()
    for rows in (1, 2):
        monkeypatch.setattr(fields, "_SLAB", rows * math.prod(dims[1:]))
        assert run() == want


def test_validate_field_widens_f32():
    u = validate_field(np.zeros((3, 3), dtype=np.float32))
    assert u.dtype == np.float64


# (70, 33, 16) spans three slabs of the default slab rule
@pytest.mark.parametrize("dims", [(5,), (4, 6), (3, 4, 5), (2, 3, 2, 4), (70, 33, 16)])
def test_vector_operators_act_channel_by_channel(dims):
    assert len(fields._spans(dims)) == (3 if dims == (70, 33, 16) else 1)
    g = rand_vector(dims, 23)
    p = rand_tensor(dims, 24)
    gv = grad_vec(g)
    at = adjoint_grad_tensor(p)
    for l in range(len(dims)):
        assert gv[l].tobytes() == grad(g[l]).tobytes()
        assert at[l].tobytes() == adjoint_grad(p[l]).tobytes()


# ------------------------------------------------- packed symmetric Hessian

@pytest.mark.parametrize("dims", [(5,), (4, 6), (3, 4, 5), (2, 3, 2, 4)])
def test_hessian_is_the_upper_triangle_of_grad_vec_grad(dims):
    u = rand_scalar(dims, 25)
    rows, cols = np.triu_indices(len(dims))
    want = grad_vec(grad(u))[rows, cols]
    assert hessian(u).tobytes() == want.tobytes()
    out = np.full_like(want, np.nan)
    assert hessian(u, out=out) is out and out.tobytes() == want.tobytes()


@pytest.mark.parametrize("dims", [(5,), (4, 6), (3, 4, 5), (2, 3, 2, 4), (8, 8, 8)])
def test_adjoint_hessian_identities(dims):
    d = len(dims)
    rows, cols = np.triu_indices(d)
    weights = np.where(rows == cols, 1.0, 2.0)  # off-diagonal channels count twice
    u = rand_scalar(dims, 26)
    t = rand_tensor(dims, 27)
    p = t + t.swapaxes(0, 1)
    q = p[rows, cols]
    h = hessian(u)
    lhs = sum(w * brute_inner(a, b) for w, a, b in zip(weights, h, q))
    assert abs(lhs - brute_inner(u, adjoint_hessian(q))) <= 1e-12 * l2_norm(u) * l2_norm(p)
    want = adjoint_grad(adjoint_grad_tensor(p))
    assert np.max(np.abs(adjoint_hessian(q) - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("shape", [(4,), (2, 4, 4), (6, 4, 4), (3, 4, 4, 4)])
def test_adjoint_hessian_rejects_unpacked_shapes(shape):
    with pytest.raises(DimensionError):
        adjoint_hessian(np.zeros(shape))
