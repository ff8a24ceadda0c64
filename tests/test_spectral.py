"""Spectral factorization, fast transforms, Poisson pseudo-solve, projector."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import fft

import tvstokes
from tvstokes import dual, fields, spectral
from tvstokes import (
    DimensionError,
    PoissonPlan,
    adjoint_grad,
    diff_factors,
    dual_step_bound,
    grad,
    grad_operator_norm,
    inner,
    project_gradient_field,
)
from tvstokes.spectral import _DENSE_MAX, _singular_values

from oracles import (
    dense_diff,
    dense_grad_matrix,
    dense_laplacian_pinv,
    dense_poisson_solve,
    dense_projector,
    mode_apply,
    rand_scalar,
    rand_vector,
)


# ------------------------------------------------------------- diff matrix

def test_diff_matrix_literals():
    np.testing.assert_array_equal(dense_diff(2), [[-1.0, 1.0], [0.0, 0.0]])
    np.testing.assert_array_equal(
        dense_diff(3), [[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, 0.0]]
    )


def test_diff_matrix_rank():
    for n in (2, 3, 5, 9):
        assert np.linalg.matrix_rank(dense_diff(n)) == n - 1


# ------------------------------------------------------------- SVD factors

def test_factors_n2_literal():
    f = diff_factors(2)
    np.testing.assert_allclose(f.sigma, [0.0, np.sqrt(2.0)], atol=1e-15)
    r = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(f.cosine, [[r, r], [r, -r]], atol=1e-15)
    np.testing.assert_allclose(f.sine, [[1.0]], atol=1e-15)


def test_factors_n4_sigma():
    f = diff_factors(4)
    want = [0.0, 2.0 * np.sin(np.pi / 8), np.sqrt(2.0), 2.0 * np.sin(3 * np.pi / 8)]
    np.testing.assert_allclose(f.sigma, want, atol=1e-15)
    np.testing.assert_allclose(f.sigma, [0.0, 0.76537, 1.41421, 1.84776], atol=1e-5)


def test_sigma_formula_exact():
    for n in range(2, 65):
        expected = 2.0 * np.sin(np.pi * np.arange(n) / (2.0 * n))
        np.testing.assert_array_equal(_singular_values(n), expected)


def test_sigma_monotone_and_bounded():
    for n in (2, 5, 16, 64):
        s = _singular_values(n)
        assert s[0] == 0.0
        assert np.all(np.diff(s) > 0.0)
        assert s[-1] < 2.0


def test_factor_orthogonality():
    for n in range(2, 33):
        f = diff_factors(n)
        np.testing.assert_allclose(f.cosine @ f.cosine.T, np.eye(n), atol=1e-12)
        np.testing.assert_allclose(f.sine @ f.sine.T, np.eye(n - 1), atol=1e-12)


def test_assembled_factorization_reproduces_diff():
    for n in range(2, 17):
        err = np.max(np.abs(diff_factors(n).assemble() - dense_diff(n)))
        assert err <= 1e-12, (n, err)


# ------------------------------------------------------------- fast DCT

def test_dct_constant_vector():
    out = fft.dct(np.ones(4), type=2, axis=0, norm="ortho")
    np.testing.assert_allclose(out, [2.0, 0.0, 0.0, 0.0], atol=1e-14)


def test_dct_round_trip_and_parseval():
    u = rand_scalar((5, 8), 0)
    fwd = fft.dct(u, type=2, axis=1, norm="ortho")
    np.testing.assert_allclose(fft.dct(fwd, type=3, axis=1, norm="ortho"), u, atol=1e-12)
    assert np.linalg.norm(fwd) == pytest.approx(np.linalg.norm(u), abs=1e-12)


def test_dct_matches_dense_factor():
    for n in (2, 3, 5, 16, 32):
        u = rand_scalar((4, n), n)
        C = diff_factors(n).cosine
        np.testing.assert_allclose(
            fft.dct(u, type=2, axis=1, norm="ortho"), mode_apply(u, C, 1), atol=1e-12
        )
        np.testing.assert_allclose(
            fft.dct(u, type=3, axis=1, norm="ortho"), mode_apply(u, C.T, 1), atol=1e-12
        )


# ------------------------------------------------------------- Poisson solve

def test_poisson_zero():
    assert np.all(PoissonPlan((4, 4)).solve(np.zeros((4, 4))) == 0.0)


def test_poisson_1d_example():
    D = dense_diff(3)
    f = D.T @ D @ np.array([1.0, 2.0, 4.0])
    np.testing.assert_allclose(f, [-1.0, -1.0, 2.0], atol=1e-15)
    sol = PoissonPlan(f.shape).solve(f)
    np.testing.assert_allclose(sol, [-4.0 / 3.0, -1.0 / 3.0, 5.0 / 3.0], atol=1e-12)
    np.testing.assert_allclose(sol, dense_laplacian_pinv((3,)) @ f, atol=1e-12)


def test_poisson_matches_dense_pseudoinverse():
    for dims, seed in [((3, 4), 1), ((4, 4, 4), 2)]:
        f = rand_scalar(dims, seed)
        f_range = adjoint_grad(rand_vector(dims, seed + 10))  # in-range input
        pinv = dense_laplacian_pinv(dims)
        for rhs in (f_range,):
            got = PoissonPlan(rhs.shape).solve(rhs)
            np.testing.assert_allclose(got.ravel(), pinv @ rhs.ravel(), atol=1e-10)
        # arbitrary input: constant-mode coefficient is discarded
        got = PoissonPlan(f.shape).solve(f)
        assert abs(np.sum(got)) <= 1e-9 * np.linalg.norm(f)


def test_poisson_range_identity():
    dims = (4, 5, 3)
    f = adjoint_grad(rand_vector(dims, 3))
    sol = PoissonPlan(f.shape).solve(f)
    back = adjoint_grad(grad(sol))
    np.testing.assert_allclose(back, f, atol=1e-10)


def test_poisson_plan_denominator_positive_off_origin():
    plan = PoissonPlan((3, 4, 5))
    denom = plan.denominator.copy()
    assert denom[0, 0, 0] == 0.0
    denom[0, 0, 0] = 1.0
    assert np.all(denom > 0.0)


@pytest.mark.parametrize("dims", [5, (4.7, 5), ("4", 4), (2.5, 3), ()], ids=repr)
@pytest.mark.parametrize("build", [PoissonPlan, grad_operator_norm],
                         ids=["PoissonPlan", "grad_operator_norm"])
def test_a_grid_shape_is_a_nonempty_sequence_of_integers(build, dims):
    """A non-integral axis was truncated by ``int`` and a bare integer raised ``TypeError``."""
    with pytest.raises(DimensionError):
        build(dims)


def test_a_grid_shape_takes_numpy_integers_as_ints():
    dims = PoissonPlan((np.int64(4), np.uint8(5))).dims
    assert dims == (4, 5) and all(type(n) is int for n in dims)
    assert grad_operator_norm((np.int64(4), 5)) == grad_operator_norm((4, 5))


def test_poisson_plan_shape_mismatch():
    with pytest.raises(DimensionError):
        PoissonPlan((4, 4)).solve(np.zeros((4, 5)))


# axes of 64 and 65 sit on both sides of _DENSE_MAX; a last axis of 8 once
# hit a numpy strided-ufunc bug; (2, 3, 40, 300) mixes short and long axes;
# (24, 48, 48) is four slabs, a solve in halves
SOLVE_GRIDS = [(64,), (65,), (17, 64), (64, 65), (9, 64, 8), (65, 12, 8), (3, 64, 5, 8),
               (2, 3, 40, 300), (24, 48, 48)]


def _pocketfft_solve(f):
    """The pseudo-solve written with scipy.fft's DCT pair."""
    denom = PoissonPlan(f.shape).denominator
    denom[(0,) * f.ndim] = np.inf
    spectrum = fft.dctn(f, type=2, norm="ortho") / denom
    return fft.idctn(spectrum, type=2, norm="ortho")


@pytest.mark.parametrize("dims", SOLVE_GRIDS)
def test_poisson_solve_matches_pocketfft(dims):
    f = rand_scalar(dims, len(dims))
    plan = PoissonPlan(dims)
    assert (plan._passes is not None) == (max(dims) <= _DENSE_MAX)
    want = _pocketfft_solve(f)
    for got in (plan.solve(f), plan.solve(f.copy(), overwrite_x=True)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("dims", SOLVE_GRIDS)
def test_poisson_solve_leaves_input_unchanged(dims):
    f = rand_scalar(dims, 1)
    before = f.copy()
    PoissonPlan(dims).solve(f)
    np.testing.assert_array_equal(f, before)


def test_poisson_solve_overwrite_x_copies_what_it_cannot_overwrite():
    f = rand_scalar((6, 5), 2)
    want = _pocketfft_solve(f)
    readonly = f.copy()
    readonly.flags.writeable = False
    for arg in (readonly, np.asfortranarray(f)):
        got = PoissonPlan(f.shape).solve(arg, overwrite_x=True)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    np.testing.assert_array_equal(readonly, f)


# (64, 33, 20) is three slabs: its halves would round differently from the whole products
@pytest.mark.parametrize("dims", [(2, 2), (5, 64), (3, 4, 7), (64, 64), (16, 16, 16),
                                  (64, 33, 20)], ids=str)
def test_poisson_solve_is_the_per_axis_dense_product_bitwise(dims):
    """The plan's products, built once, replay the per-axis dense solve call for call on a
    grid of fewer than four slabs."""
    assert len(fields._spans(dims)) < 4
    plan, f = PoissonPlan(dims), rand_scalar(dims, 5)
    want = dense_poisson_solve(f).tobytes()
    for _ in range(2):
        assert plan.solve(f).tobytes() == want
        assert plan.solve(f.copy(), overwrite_x=True).tobytes() == want


def test_poisson_plan_one_matrix_per_axis_length():
    def matrices(plan):  # the arrays the products view
        return {id(c if c.base is None else c.base)
                for passes in plan._passes for _, c, _ in passes}

    assert len(matrices(PoissonPlan((8, 8, 8)))) == 1
    assert len(matrices(PoissonPlan((8, 5, 8)))) == 2


def _spy(monkeypatch) -> list:
    """The returned list counts the halves handed to the worker thread."""
    submitted, submit = [], dual._Worker.submit

    def spy(*args):
        submitted.append(1)
        return submit(*args)

    monkeypatch.setattr(dual._Worker, "submit", spy)
    return submitted


# four slabs and more, 17^4's halves rounding differently from its whole products; then
# three slabs and two
@pytest.mark.parametrize("dims", [(24, 48, 48), (40, 48, 56), (64, 64, 64), (17, 17, 17, 17),
                                  (64, 33, 20), (32, 32, 32)], ids=str)
def test_a_solve_gives_the_same_bytes_on_one_and_two_workers(dims, monkeypatch):
    """A grid of four slabs or more solves in fixed halves wherever they run: inside a
    solve's worker block on two workers four halves go to the worker per solve; none on one,
    on a grid of fewer slabs or in a solve of its own, which runs both halves itself."""
    plan, f = PoissonPlan(dims), rand_scalar(dims, 21)
    halved = len(fields._spans(dims)) > 3
    assert (plan._phases is not None) == halved
    submitted = _spy(monkeypatch)
    monkeypatch.setattr(dual, "_workers", lambda: 1)
    with dual._splitting(fields._spans(dims)):
        want = plan.solve(f).tobytes()
    assert not submitted
    monkeypatch.setattr(dual, "_workers", lambda: 2)
    assert plan.solve(f).tobytes() == want and not submitted  # a solve of its own
    with dual._splitting(fields._spans(dims)):
        assert plan.solve(f).tobytes() == want
        assert len(submitted) == (4 if halved else 0)
        assert plan.solve(f.copy(), overwrite_x=True).tobytes() == want
    np.testing.assert_array_equal(f, rand_scalar(dims, 21))


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_an_error_in_a_half_is_raised_after_the_workers_half_is_joined(where, monkeypatch):
    """The error reaches the calling thread once the worker's half has finished, and the
    next solve gets the bytes of an untroubled one."""
    dims = (24, 48, 48)
    plan, f = PoissonPlan(dims), rand_scalar(dims, 22)
    want = plan.solve(f).tobytes()
    monkeypatch.setattr(dual, "_workers", lambda: 2)
    run, finished = spectral._run, []

    def failing(*args):
        on_worker = threading.current_thread().name == dual._WORKER
        if on_worker:
            time.sleep(0.05)  # the worker's half outlasts an error on the calling thread
        if on_worker == (where == "worker"):
            raise RuntimeError(f"half failed on the {where}")
        run(*args)
        finished.append(on_worker)

    monkeypatch.setattr(spectral, "_run", failing)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match=f"^half failed on the {where}$"):
        with dual._splitting(fields._spans(dims)):
            plan.solve(f)
    # the first phase only; on an error here, the worker's half finished before the raise
    assert finished == ([False] if where == "worker" else [True])
    assert threading.active_count() == threads  # the worker is joined
    monkeypatch.setattr(spectral, "_run", run)
    assert plan.solve(f).tobytes() == want


def test_a_solve_on_the_worker_thread_runs_both_halves_there(monkeypatch):
    """A row function on the worker thread that solves hands nothing to the worker, which
    would wait for itself; the test gives up on a hang."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    dims = (24, 48, 48)
    plan, f = PoissonPlan(dims), rand_scalar(dims, 23)
    want = plan.solve(f).tobytes()
    submitted, seen = _spy(monkeypatch), []

    def rows(q, out, span, scratch):
        if span[0] <= 15 < span[1]:  # the last row: the worker's group
            before = len(submitted)
            got = plan.solve(f).tobytes()
            seen.append((threading.current_thread().name, len(submitted) - before, got))
        out[...] = 0.0

    # one exact update of sixteen 1-row slabs, the last eight on the worker
    solver = threading.Thread(daemon=True, target=lambda: dual.iterate(
        dual.RowPotential(rows), fields.grad, np.zeros((3, 16, 160, 160)), 0.1, 1, 0.0))
    solver.start()
    solver.join(timeout=60)
    assert not solver.is_alive(), "a solve on the worker thread waited for itself"
    assert seen == [(dual._WORKER, 0, want)]


def test_threads_sharing_a_plan_get_the_sequential_bytes(monkeypatch):
    """Three threads solve with one plan at once, each handing its halves to a worker of its
    own, switching every 10 us: each gets the bytes of a solve on one thread."""
    dims = (24, 48, 48)
    plan = PoissonPlan(dims)
    inputs = [rand_scalar(dims, seed) for seed in (24, 25, 26)]
    want = [plan.solve(f).tobytes() for f in inputs]
    submitted = _spy(monkeypatch)
    monkeypatch.setattr(dual, "_workers", lambda: 2)
    got = [None] * len(inputs)

    def solve(k):
        with dual._splitting(fields._spans(dims)):
            got[k] = [plan.solve(inputs[k]).tobytes() for _ in range(5)]

    threads = [threading.Thread(target=solve, args=(k,)) for k in range(len(inputs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[w] * 5 for w in want] and len(submitted) == 4 * 5 * len(inputs)


def test_smoothing_bytes_do_not_depend_on_blas_threads():
    """The dense transforms run through BLAS; its thread count must not change a bit.  The
    grid is four slabs, so its Poisson solves run in halves."""
    script = (
        "import hashlib, numpy as np\n"
        "from tvstokes import SmoothingConfig, smooth_gradient_field\n"
        "u = np.random.default_rng(0).standard_normal((24, 48, 48))\n"
        "r = smooth_gradient_field(u, SmoothingConfig(lam=0.1, max_iters=3))\n"
        "print(hashlib.sha256(r.g.tobytes() + r.p.tobytes()).hexdigest())\n"
    )
    src = str(Path(tvstokes.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]


def test_scipy_fft_is_imported_by_the_first_long_axis_solve_only():
    """``import tvstokes.cli`` and dense solves leave scipy.fft unimported; a
    ``(70, 3)`` plan imports it and solves to the same bytes as with it preloaded."""
    script = (
        "import sys, numpy as np\n"
        "import tvstokes.cli\n"
        "from tvstokes import PoissonPlan\n"
        "assert 'scipy.fft' not in sys.modules\n"
        "f = np.random.default_rng(3).standard_normal((70, 3))\n"
        "PoissonPlan((64, 3)).solve(f[:64])\n"
        "assert 'scipy.fft' not in sys.modules\n"
        "x = PoissonPlan((70, 3)).solve(f)\n"
        "assert 'scipy.fft' in sys.modules\n"
        "sys.stdout.write(x.tobytes().hex())\n"
    )
    src = str(Path(tvstokes.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    f = np.random.default_rng(3).standard_normal((70, 3))
    assert proc.stdout == PoissonPlan((70, 3)).solve(f).tobytes().hex()


# ------------------------------------------------------------- projector

def test_projector_fixes_gradient_fields():
    u = rand_scalar((4, 5, 3), 4)
    g = grad(u)
    np.testing.assert_allclose(project_gradient_field(g), g, atol=1e-10)


def test_projector_1d_example():
    v = np.array([[5.0, -2.0, 7.0]])
    np.testing.assert_allclose(project_gradient_field(v), [[5.0, -2.0, 0.0]], atol=1e-12)


def test_projector_idempotent():
    v = rand_vector((4, 4, 4), 5)
    once = project_gradient_field(v)
    np.testing.assert_allclose(project_gradient_field(once), once, atol=1e-10)


def test_projector_matches_dense_oracle():
    for dims, seed in [((3, 4), 6), ((4, 4, 4), 7)]:
        Pi = dense_projector(dims)
        v = rand_vector(dims, seed)
        got = project_gradient_field(v).ravel()
        want = Pi @ v.ravel()
        assert np.max(np.abs(got - want)) <= 1e-9


def test_projector_self_adjoint():
    dims = (4, 5)
    v = rand_vector(dims, 8)
    w = rand_vector(dims, 9)
    lhs = inner(project_gradient_field(v), w)
    rhs = inner(v, project_gradient_field(w))
    assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))


# ------------------------------------------------------------- operator norm

def test_grad_operator_norm_1d():
    got = grad_operator_norm((64,))
    assert got == pytest.approx(2.0 * np.sin(63 * np.pi / 128), abs=1e-15)
    assert got == pytest.approx(1.99940, abs=1e-5)


def test_grad_operator_norm_asymptote():
    big = grad_operator_norm((10**6, 10**6, 10**6))
    assert big == pytest.approx(2.0 * np.sqrt(3.0), abs=1e-6)
    assert big == pytest.approx(3.4641, abs=1e-4)


def test_grad_operator_norm_dominates_dense_spectrum():
    dims = (4, 4)
    G = dense_grad_matrix(dims)
    top = float(np.linalg.eigvalsh(G @ G.T).max())
    assert grad_operator_norm(dims) ** 2 >= top - 1e-10
    # the closed form is in fact the exact spectral norm
    assert grad_operator_norm(dims) ** 2 == pytest.approx(top, abs=1e-10)


def test_step_bound_consistency():
    for dims in [(4,), (64,), (3, 4), (16, 16), (4, 4, 4), (2, 3, 4, 5)]:
        d = len(dims)
        assert 2.0 / grad_operator_norm(dims) ** 2 >= dual_step_bound(d) - 1e-12
