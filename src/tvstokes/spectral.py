"""Fast transforms and spectral solvers for the Neumann difference stencil.

The one-sided difference matrix ``D`` (zero last row) factorizes in closed
form as an SVD built from orthonormal cosine and sine transforms:

* singular values  ``sigma[i] = 2 sin(pi * i / (2n))`` for ``i = 0..n-1``
* right factor ``C``: the orthonormal DCT-II matrix, first row ``1/sqrt(n)``,
  row ``i >= 1`` equal to ``sqrt(2/n) * cos(pi * i * (2j+1) / (2n))``
* left factor: a block matrix pairing the DST-I matrix ``S`` with a
  wrap-around unit entry.  With ``[[0, S], [1, 0]]`` the product
  ``P @ diag(sigma) @ C`` equals ``-D`` (checked densely), so
  :meth:`DiffFactors.assemble` negates the sine block to reproduce ``D``
  exactly while keeping every factor orthogonal.

Because ``D^T D = C^T diag(sigma)^2 C`` holds per axis, the grid operator
``adjoint_grad . grad`` diagonalizes in the tensor DCT basis with eigenvalues
``sum_k sigma_k[i_k]^2``: the sum of *squared* per-axis singular values.  The
eigenvalue vanishes only at the all-zeros frequency (the constant mode),
which is the pseudoinverse nullspace; its coefficient is forced to zero.

The solve applies ``C`` along each axis, and ``C^T`` to go back.  On grids
whose axes are all at most ``_DENSE_MAX`` long it multiplies by the dense
matrices, one BLAS product per axis; on longer grids it calls scipy.fft's
orthonormal DCT pair, imported on the first such solve.  The two agree to
within 5e-15 relative.  The per-shape work runs once per plan:
:class:`PoissonPlan` builds the 2d products of a dense solve, each a matrix
view, a side and the grid's shape for it, and a solve replays them.

A dense solve on a grid of four slabs or more (:func:`.fields._spans`, the
dual update's threshold for a split) runs in four phases: the forward
first-axis product; the forward later products, then the division by the
eigenvalues; the inverse first-axis product; the inverse later products.
Each phase splits into two fixed halves of the first axis's rows, ``[0, h)``
and ``[h, n)`` with ``h = n // 2``: a first-axis half multiplies its rows of
the matrix by the whole grid, a later half works on its rows of each view.
The calling thread runs the first half, and the worker of the dual solve it
serves (:func:`.dual._splitting`) the second; a solve of its own, such as
``tvs project``'s, or one on a worker thread runs both, in turn.  The worker's
half is joined before the next phase.  The halves depend only on the grid, so
the bytes do not depend on the CPU count.  A half may round differently from
the whole product (on 17^4 by up to 4e-16 relative; on the 3-d grids
measured, not at all), so a grid of fewer slabs, every dense 2-d grid and
32^3 among them, issues the whole products.  A 64^3 solve took 2.92 ms whole
and 1.87 ms as halves on two threads (2.92-3.00 ms on one) on a 2-vCPU Xeon
with one BLAS thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import prod

import numpy as np

from .errors import DimensionError, ParameterError, _shape
from .fields import _spans, adjoint_grad, grad

__all__ = [
    "DiffFactors",
    "diff_factors",
    "grad_operator_norm",
    "dual_step_bound",
    "PoissonPlan",
    "project_gradient_field",
]

# Longest axis for which PoissonPlan.solve multiplies by the dense DCT matrix
# instead of calling scipy.fft.  On a Xeon with 4 MiB L2, one OpenBLAS thread
# and 2M-entry grids, the dense product took 0.23-0.82 of scipy.fft's time per
# axis for n <= 64, but 1.05 on the last axis at n = 96 and 2.03 at n = 256;
# whole solves ran 0.68x as long dense at 64^3, 2.1x at 256^2, 4.4x at 1024^2.
_DENSE_MAX = 64


def _singular_values(n: int) -> np.ndarray:
    """Singular values of the difference matrix: ``2 sin(pi*i/(2n))``."""
    if n < 2:
        raise DimensionError(f"need n >= 2, got {n}")
    return 2.0 * np.sin(np.pi * np.arange(n) / (2.0 * n))


@dataclass(frozen=True)
class DiffFactors:
    """Closed-form SVD factors of the difference matrix at one axis length.

    ``cosine`` is the n-by-n orthonormal DCT-II matrix, ``sine`` the
    (n-1)-by-(n-1) orthonormal DST-I matrix.  Dense factors are meant for
    verification at small n; :class:`PoissonPlan` multiplies by ``C`` on
    short axes only.
    """

    n: int
    sigma: np.ndarray
    cosine: np.ndarray
    sine: np.ndarray

    def assemble(self) -> np.ndarray:
        """Rebuild the difference matrix from the stored factors.

        Uses the sign-adjusted left factor ``[[0, -S], [1, 0]]`` so the
        product equals ``D`` rather than ``-D``.
        """
        left = np.zeros((self.n, self.n))
        left[: self.n - 1, 1:] = -self.sine
        left[self.n - 1, 0] = 1.0
        return left @ (self.sigma[:, None] * self.cosine)


def _dct_matrix(n: int) -> np.ndarray:
    """The n-by-n orthonormal DCT-II matrix, the right factor ``C``."""
    j = np.arange(n)
    cosine = np.sqrt(2.0 / n) * np.cos(np.pi * np.outer(j, 2 * j + 1) / (2.0 * n))
    cosine[0, :] = np.sqrt(1.0 / n)
    return cosine


def diff_factors(n: int) -> DiffFactors:
    """Compute the spectral factors of the difference matrix of size ``n``."""
    sigma = _singular_values(n)
    i = np.arange(1, n)
    sine = np.sqrt(2.0 / n) * np.sin(np.pi * np.outer(i, i) / n)
    return DiffFactors(n=n, sigma=sigma, cosine=_dct_matrix(n), sine=sine)


def grad_operator_norm(dims) -> float:
    """Spectral norm of the gradient operator at the given grid shape.

    Equals ``2 * ||[sin(pi*(N1-1)/(2*N1)), ...]||_2`` and approaches
    ``2*sqrt(d)`` as every axis grows.
    """
    s = sum(np.sin(np.pi * (n - 1) / (2.0 * n)) ** 2 for n in _shape(dims, 2, DimensionError))
    return float(2.0 * np.sqrt(s))


def dual_step_bound(ndim: int) -> float:
    """Largest dual step size with a nonexpansiveness guarantee: ``1/(2d)``.

    Follows from the gradient norm bound ``grad_operator_norm(dims)^2 < 4d``
    and the step condition ``tau <= 2 / norm^2``.
    """
    if ndim < 1:
        raise ParameterError(f"ndim must be >= 1, got {ndim}")
    return 1.0 / (2.0 * ndim)


class PoissonPlan:
    """Precomputed spectral data for the Neumann Poisson pseudo-solve.

    Holds one grid-sized array, the reciprocal eigenvalues of
    ``adjoint_grad . grad`` in the DCT basis, with the constant mode zeroed
    so that multiplying by it both inverts the spectrum and discards the
    nullspace coefficient.  When no axis is longer than ``_DENSE_MAX`` it
    also holds the n-by-n DCT-II matrix of each distinct axis length and the
    products a solve replays, forward then inverse, and on a grid of four
    slabs or more the four phases of its two halves (see the module
    docstring).  The plan is immutable after construction and safe to share
    across threads; a solve hands its halves to the calling thread's worker,
    if any, when it runs.
    """

    def __init__(self, dims):
        self.dims = dims = _shape(dims, 2, DimensionError)
        inverse = self.denominator
        inverse[(0,) * len(dims)] = np.inf
        self._inverse = np.divide(1.0, inverse, out=inverse)
        self._passes = self._phases = None
        if max(dims) <= _DENSE_MAX:
            cosine = {n: _dct_matrix(n) for n in set(dims)}
            # the 2d products of a solve, built once: each axis forward, then each inverse
            self._passes = tuple(tuple(_product(cosine[n].T if transpose else cosine[n], axis, dims)
                                       for axis, n in enumerate(dims))
                                 for transpose in (False, True))
            # the dual update's split threshold; a 1-d grid's one product is from the right
            if len(dims) > 1 and len(_spans(dims)) > 3:
                self._phases = _phases(self._passes, dims, self._inverse)

    @property
    def denominator(self) -> np.ndarray:
        """Eigenvalues ``sum_k sigma_k[i_k]^2``, computed afresh on access."""
        return reduce(np.add.outer, [_singular_values(n) ** 2 for n in self.dims])

    def solve(self, f: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
        """Pseudoinverse solve of ``adjoint_grad(grad(u)) = f``.

        The first spectral coefficient of the result is zero; exactness
        requires ``f`` in the operator's range (arbitrary input is accepted
        and its constant-mode coefficient discarded).  As in scipy.fft,
        ``overwrite_x=True`` lets the solve destroy ``f`` and return its
        buffer.  The dense solve allocates one more grid, its second buffer.
        """
        f = np.asarray(f, dtype=np.float64)
        if f.shape != self.dims:
            raise DimensionError(f"field shape {f.shape} does not match plan {self.dims}")
        if self._passes is None:
            # imported here alone: it is most of the package's import time, and
            # a grid whose axes are all short never needs it
            from scipy import fft

            fhat = fft.dctn(f, type=2, norm="ortho", overwrite_x=overwrite_x)
            fhat *= self._inverse
            return fft.idctn(fhat, type=2, norm="ortho", overwrite_x=True)  # fhat is ours
        writable = overwrite_x and f.flags.c_contiguous and f.flags.writeable
        x = f if writable else np.array(f, order="C")
        if self._phases is not None:
            return _halved(x, np.empty(self.dims), self._phases)
        forward, inverse = self._passes
        x, y = _transform(x, np.empty(self.dims), forward)
        x *= self._inverse
        return _transform(x, y, inverse)[0]  # 2d passes in all: back in x's buffer


def _product(c: np.ndarray, axis: int, dims) -> tuple:
    """``(left, matrix, shape)``: the product that applies the matrix ``c`` along ``axis``.

    The last axis multiplies ``c.T`` from the right, a view of the grid as
    rows of that axis; an earlier one multiplies ``c`` from the left, a view
    as a stack of ``(n, rest)`` matrices.
    """
    if axis == len(dims) - 1:
        return False, c.T, (prod(dims[:-1]), dims[-1])
    return True, c, (prod(dims[:axis]), dims[axis], prod(dims[axis + 1:]))


def _transform(x: np.ndarray, y: np.ndarray, passes) -> tuple:
    """Apply one product per axis, ping-ponging between ``x`` and ``y``; the result is in
    the first grid returned."""
    for left, c, shape in passes:
        if left:
            np.matmul(c, x.reshape(shape), out=y.reshape(shape))
        else:
            np.matmul(x.reshape(shape), c, out=y.reshape(shape))
        x, y = y, x
    return x, y


def _phases(passes, dims, inverse) -> tuple:
    """The four phases of a halved solve, each a pair of halves ``(products, scale)``.

    The halves are rows ``[0, h)`` and ``[h, n)`` of the first axis, ``h = n // 2``.
    Each direction has two phases: its first-axis product, whose half multiplies its
    rows of the matrix by the whole grid, and its later products, each on the half's
    rows of its view.  A product is ``(left, matrix, shape, source rows, target
    rows)``; the forward later phase's ``scale`` holds the half's rows of the grid and
    of the reciprocal eigenvalues, the other phases' ``None``.
    """
    n, rest = dims[0], prod(dims[1:])
    halves = (slice(0, n // 2), slice(n // 2, n))
    phases = []
    for forward, ((_, c, _), *later) in zip((True, False), passes):
        phases.append(tuple((((True, c[rows], (n, rest), slice(None), rows),), None)
                            for rows in halves))
        phases.append(tuple((tuple(_on_rows(product, rows, n) for product in later),
                             (rows, inverse[rows]) if forward else None)
                            for rows in halves))
    return tuple(phases)


def _on_rows(product, rows: slice, n: int) -> tuple:
    """A later axis's product on the rows of its view that the grid's rows ``rows`` span."""
    left, c, shape = product
    m = shape[0] // n  # rows of the view per row of the grid's first axis
    view = slice(rows.start * m, rows.stop * m)
    return left, c, shape, view, view


def _run(x: np.ndarray, y: np.ndarray, products, scale) -> None:
    """Run one half's products of a phase, from ``x`` to ``y`` and back in turn; then,
    given ``scale = (rows, inverse)``, multiply those rows of the result by ``inverse``."""
    for left, c, shape, source, target in products:
        if left:
            np.matmul(c, x.reshape(shape)[source], out=y.reshape(shape)[target])
        else:
            np.matmul(x.reshape(shape)[source], c, out=y.reshape(shape)[target])
        x, y = y, x
    if scale is not None:
        rows, inverse = scale
        np.multiply(x[rows], inverse, out=x[rows])


def _halved(x: np.ndarray, y: np.ndarray, phases) -> np.ndarray:
    """The dense solve in its halves, phase by phase; the second half of a phase runs on
    this thread's worker (see ``dual._LOCAL``) if it has one, else after the first here.

    The worker's half is joined before the next phase, a return or a raise, and its
    error is raised here.  The halves are the grid's alone, so the bytes do not depend
    on where they run.
    """
    from . import dual  # it imports this module

    worker = dual._LOCAL.worker
    for first, second in phases:
        outcome = None if worker is None else worker.submit(_run, x, y, *second)
        try:
            _run(x, y, *first)
        finally:
            if outcome is not None:  # joined, also when this thread raised
                outcome.wait()
        if outcome is None:
            _run(x, y, *second)
        elif outcome.value[1] is not None:
            raise outcome.value[1]
        if len(first[0]) % 2:
            x, y = y, x
    return x  # 2d products in all: back in x's buffer


def project_gradient_field(v: np.ndarray, plan: PoissonPlan | None = None) -> np.ndarray:
    """Orthogonal projection of a vector field onto the gradient subspace.

    Computes ``grad(plan.solve(adjoint_grad(v)))``; the result is the
    closest field expressible as ``grad(u)``.  Idempotent and self-adjoint.
    """
    v = np.asarray(v, dtype=np.float64)
    if plan is None:
        plan = PoissonPlan(v.shape[1:])
    return grad(plan.solve(adjoint_grad(v), overwrite_x=True))
