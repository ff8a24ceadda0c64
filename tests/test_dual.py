"""Shared dual-projection core: every solver validates its config the same way."""

import numpy as np
import pytest

from tvstokes import (
    ParameterError,
    ReconstructionConfig,
    RofConfig,
    SmoothingConfig,
    reconstruct,
    rof_denoise,
    smooth_gradient_field,
)

U = np.zeros((4, 4))
SOLVERS = {
    "smoothing": (SmoothingConfig, lambda cfg: smooth_gradient_field(U, cfg)),
    "reconstruction": (ReconstructionConfig, lambda cfg: reconstruct(U, np.zeros((2, 4, 4)), cfg)),
    "rof": (RofConfig, lambda cfg: rof_denoise(U, cfg)),
}
BAD = {
    "lam=0": {"lam": 0.0},
    "lam<0": {"lam": -1.0},
    "max_iters=0": {"max_iters": 0},
    "tol<0": {"tol": -1e-3},
    "tau=0": {"tau": 0.0},
    "tau<0": {"tau": -0.1},
    "lam=nan": {"lam": float("nan")},
    "lam=inf": {"lam": float("inf")},
    "tau=nan": {"tau": float("nan")},
    "tau=inf": {"tau": float("inf")},
    "tol=nan": {"tol": float("nan")},
}


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("bad", BAD)
def test_solver_rejects_out_of_range_config(solver, bad):
    config_cls, solve = SOLVERS[solver]
    with pytest.raises(ParameterError):
        solve(config_cls(**BAD[bad]))


@pytest.mark.parametrize("solver", SOLVERS)
def test_solver_accepts_default_config(solver):
    config_cls, solve = SOLVERS[solver]
    assert solve(config_cls()).iters == 1
