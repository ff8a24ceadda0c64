"""Batch orchestration: load, normalize, solve, save, report.

A denoising run is a pure function of the input bytes and the parameters;
reports echo every parameter (including the resolved step size) so a third
party can reproduce the run exactly.  Wall time is the only nondeterministic
report field.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .dual import DualConfig, DualResult
from .errors import ParameterError
from .fields import grad, validate_field
from .metrics import staircase_metric
from .reconstruction import ReconstructionConfig, reconstruct
from .rof import RofConfig, rof_denoise
from .smoothing import SmoothingConfig, smooth_gradient_field
from .spectral import grad_operator_norm, project_gradient_field
from .volume_io import (VolumeHeader, _check_targets, _default_header_path, _read_header,
                        _read_payload, _read_volume, _volume_files, write_atomic)

__all__ = ["RunReport", "run_denoise", "run_project"]

MODELS = ("tvstokes", "rof")


@dataclass
class RunReport:
    """Machine-readable record of one denoising run."""

    model: str
    dims: list[int]
    config: dict
    steps: dict[str, DualResult]
    wall_time_seconds: float
    normalization: dict | None = None
    metrics: dict | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        """Read back :meth:`to_dict`'s fields by name; a field with a default may be absent."""
        values = {f.name: data[f.name] for f in fields(cls) if f.name in data}
        values["steps"] = {name: DualResult(**stats) for name, stats in data["steps"].items()}
        return cls(**values)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))


def _stats(result) -> DualResult:
    """The :class:`.DualResult` fields of a model's result, without its arrays."""
    return DualResult(**{f.name: getattr(result, f.name) for f in fields(DualResult)})


def _normalize(u: np.ndarray, header: VolumeHeader) -> dict | None:
    """Rescale ``u`` in place to [0, 1] when the header declares a value range."""
    if header.value_range is None:
        return None
    lo, hi = header.value_range
    u -= lo
    u /= hi - lo
    return {"applied": True, "offset": float(lo), "scale": float(hi - lo)}


def _denormalize(u: np.ndarray, info: dict | None) -> None:
    """Undo :func:`_normalize` on ``u`` in place."""
    if info is not None:
        u *= info["scale"]
        u += info["offset"]


def _safe_staircase(u: np.ndarray) -> float | None:
    """:func:`.staircase_metric` of ``u``, or ``None`` where an axis is shorter than 3."""
    if any(n < 3 for n in u.shape):
        return None
    return staircase_metric(u)


def run_denoise(
    model: str,
    data_path,
    header_path=None,
    output_path=None,
    report_path=None,
    *,
    lam1: float = DualConfig.lam,
    lam2: float = DualConfig.lam,
    lam: float = DualConfig.lam,
    tau: float | None = DualConfig.tau,
    max_iters: int = DualConfig.max_iters,
    tol: float = DualConfig.tol,
    eps: float = ReconstructionConfig.eps,
) -> tuple[np.ndarray, RunReport]:
    """Denoise one volume end to end and return the output with its report.

    The defaults are :class:`.DualConfig`'s and ``ReconstructionConfig.eps``;
    ``tau=None`` resolves to the guaranteed step bound for the input's
    dimensionality.  When ``output_path``/``report_path`` are given the
    denoised volume and JSON report are written there, all files or none;
    clashing targets or missing or unwritable directories are refused before the read.
    """
    if model not in MODELS:
        raise ParameterError(f"unknown model {model!r}; expected one of {MODELS}")
    t_start = time.perf_counter()
    outputs = [] if output_path is None else [output_path, _default_header_path(output_path)]
    _check_targets(outputs + ([] if report_path is None else [report_path]))

    header, u = _read_volume(data_path, header_path)
    norm_info = _normalize(u, header)
    u = validate_field(u, "input volume")
    d = u.ndim

    shared = {"tau": tau, "max_iters": max_iters, "tol": tol}
    if model == "tvstokes":
        cfg1 = SmoothingConfig(lam=lam1, **shared)
        cfg = ReconstructionConfig(lam=lam2, eps=eps, **shared)  # checked before step 1 runs
        r1 = smooth_gradient_field(u, cfg1)
        steps = {"smoothing": _stats(r1)}
        g = r1.g
        del r1  # step 2 needs only g, not the step-1 dual
        result = reconstruct(u, g, cfg)
        del g
        steps["reconstruction"] = _stats(result)
        config = {"model": model, "lambda1": float(lam1), "lambda2": float(lam2), "eps": float(eps)}
    else:
        cfg = RofConfig(lam=lam, **shared)
        result = rof_denoise(u, cfg)
        steps = {"rof": _stats(result)}
        config = {"model": model, "lambda": float(lam)}
    out_raw = result.u
    del result  # and with it the final dual, before the metrics

    config.update(
        {
            "tau": cfg.resolve_tau(d),
            "tau_was_auto": tau is None,
            "tau_exceeds_bound": cfg.tau_exceeds_bound(d),
            # sharper admissible step estimated from the gradient norm;
            # informational only, the default stays at 1/(2d)
            "tau_limit_estimate": 2.0 / grad_operator_norm(u.shape) ** 2,
            "max_iters": int(max_iters),
            "tol": float(tol),
        }
    )

    _denormalize(out_raw, norm_info)
    metrics = {"psnr_db": None, "staircase": _safe_staircase(out_raw)}

    report = RunReport(
        model=model,
        dims=list(header.dims),
        config=config,
        steps=steps,
        normalization=norm_info,
        metrics=metrics,
        wall_time_seconds=time.perf_counter() - t_start,
    )

    files = [] if output_path is None else _volume_files(
        out_raw, output_path, dtype=header.dtype, value_range=header.value_range)[1]
    if report_path is not None:
        files.append((report_path, (report.to_json() + "\n").encode("utf-8")))
    write_atomic(*files)
    return out_raw, report


def run_project(data_path, header_path=None, output_path=None) -> list[Path]:
    """Project the input's gradient field and write one raw file per channel.

    Channel ``l`` of ``project_gradient_field(grad(u))`` goes to
    ``<output stem>_c<l>.raw`` with a matching header, all files or none, the
    targets checked before the payload is read.  Returns the payload paths.
    """
    header = _read_header(_default_header_path(data_path) if header_path is None else header_path)
    out = Path(output_path if output_path is not None else data_path)
    written = [out.with_name(f"{out.stem}_c{c}.raw") for c in range(len(header.dims))]
    _check_targets(written + [_default_header_path(path) for path in written])
    u = validate_field(_read_payload(data_path, header), "input volume")
    projected = project_gradient_field(grad(u))
    write_atomic(*(file for path, field in zip(written, projected)
                   for file in _volume_files(field, path)[1]))
    return written
