"""Isotropic TV denoising baseline on the same dual projection machinery.

Minimizes ``iso_l1(grad(u)) + 1/(2*lam) * ||u - u0||_2^2``: the
reconstruction model without a matching field, solved by
:func:`.reconstruction.solve_shifted` with its residual, recovery and
objective, so both models run one iteration kernel and their outputs are
directly comparable.
"""

from __future__ import annotations

import numpy as np

from .dual import DualConfig
from .fields import validate_field
from .reconstruction import ReconstructionResult, solve_shifted

__all__ = ["RofConfig", "rof_denoise"]


RofConfig = DualConfig  # the iteration parameters of the TV baseline


def rof_denoise(u_noisy: np.ndarray, cfg: RofConfig) -> ReconstructionResult:
    """Classical isotropic TV denoising via the dual projection iteration."""
    return solve_shifted(validate_field(u_noisy, "u_noisy"), None, cfg)  # no shift
