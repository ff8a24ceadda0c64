"""Command line front end.

Subcommands are thin wrappers over the library: ``denoise`` runs one model
on one volume, ``add-noise`` corrupts a volume reproducibly, ``metrics``
prints quality numbers, ``project`` writes the projected gradient channels,
``slice`` exports a PGM view.  Exit codes: 0 success, 2 usage or parameter
error, 3 IO or format error, 4 numerical divergence, 5 out of memory.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .dual import DualConfig
from .errors import DimensionError, DivergenceError, ParameterError, VolumeFormatError
from .metrics import psnr
from .noise import add_gaussian_noise
from .pipeline import MODELS, _safe_staircase, run_denoise, run_project
from .reconstruction import ReconstructionConfig
from .volume_io import (_check_targets, _default_header_path, _read_volume, export_slice,
                        load_volume, save_volume)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_MEMORY = 5

# run_denoise's keyword-only parameters, each the dest of one denoise flag
_SOLVER_KEYWORDS = ("lam1", "lam2", "lam", "tau", "max_iters", "tol", "eps")


def _tau_arg(text: str):
    if text == "auto":
        return None
    try:
        return float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"tau must be a float or 'auto', got {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvs",
        description="Gradient-field denoising for raw d-dimensional volumes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    den = sub.add_parser("denoise", help="denoise one volume")
    den.add_argument("--model", choices=MODELS, default="tvstokes")
    den.add_argument("--input", required=True, help="raw payload path")
    den.add_argument("--meta", default=None, help="JSON header path (default: input with .json)")
    den.add_argument("--lambda1", type=float, default=DualConfig.lam, dest="lam1",
                     help="smoothing fidelity weight (tvstokes)")
    den.add_argument("--lambda2", type=float, default=DualConfig.lam, dest="lam2",
                     help="reconstruction fidelity weight (tvstokes)")
    den.add_argument("--lambda", type=float, default=DualConfig.lam, dest="lam",
                     help="fidelity weight (rof)")
    den.add_argument("--tau", type=_tau_arg, default=DualConfig.tau,
                     help="dual step size, or 'auto' for 1/(2d)")
    den.add_argument("--max-iters", type=int, default=DualConfig.max_iters)
    den.add_argument("--tol", type=float, default=DualConfig.tol)
    den.add_argument("--eps", type=float, default=ReconstructionConfig.eps,
                     help="direction-field guard (tvstokes)")
    den.add_argument("--output", required=True, help="output raw payload path")
    den.add_argument("--report", default=None, help="output JSON report path")

    noi = sub.add_parser("add-noise", help="add reproducible Gaussian noise")
    noi.add_argument("--input", required=True)
    noi.add_argument("--meta", default=None)
    noi.add_argument("--sigma", type=float, required=True)
    noi.add_argument("--seed", type=int, default=0)
    noi.add_argument("--output", required=True)

    met = sub.add_parser("metrics", help="print quality metrics as JSON")
    met.add_argument("--ref", required=True, help="reference raw payload")
    met.add_argument("--ref-meta", default=None)
    met.add_argument("--test", required=True, help="test raw payload")
    met.add_argument("--test-meta", default=None)
    met.add_argument("--peak", type=float, default=None,
                     help="peak value (default: width of the reference's value range, else 1)")

    pro = sub.add_parser("project", help="write the projected gradient channels")
    pro.add_argument("--input", required=True)
    pro.add_argument("--meta", default=None)
    pro.add_argument("--output", required=True, help="stem for per-channel files")

    sli = sub.add_parser("slice", help="export a slice as 8-bit PGM")
    sli.add_argument("--input", required=True)
    sli.add_argument("--meta", default=None)
    sli.add_argument("--axis", type=int, default=None,
                     help="axis to slice (omit for 2-d inputs)")
    sli.add_argument("--index", type=int, default=None)
    sli.add_argument("--out", required=True)
    return parser


def _cmd_denoise(args) -> int:
    run_denoise(args.model, args.input, args.meta, args.output, args.report,
                **{name: getattr(args, name) for name in _SOLVER_KEYWORDS})
    return EXIT_OK


def _cmd_add_noise(args) -> int:
    _check_targets([args.output, _default_header_path(args.output)])  # before the read
    header, u = _read_volume(args.input, args.meta)
    noisy = add_gaussian_noise(u, args.sigma, args.seed)
    save_volume(noisy, args.output, dtype=header.dtype, value_range=header.value_range)
    return EXIT_OK


def _cmd_metrics(args) -> int:
    header, ref = _read_volume(args.ref, args.ref_meta)
    test = load_volume(args.test, args.test_meta)
    peak = args.peak
    if peak is None:
        peak = 1.0 if header.value_range is None else header.value_range[1] - header.value_range[0]
    value = psnr(ref, test, peak)
    payload = {
        "psnr_db": None if math.isinf(value) else value,
        "staircase": _safe_staircase(test),
    }
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def _cmd_project(args) -> int:
    run_project(args.input, args.meta, args.output)
    return EXIT_OK


def _cmd_slice(args) -> int:
    _check_targets([args.out])  # before the read
    header, u = _read_volume(args.input, args.meta)
    export_slice(u, args.axis, args.index, args.out, value_range=header.value_range)
    return EXIT_OK


_HANDLERS = {
    "denoise": _cmd_denoise,
    "add-noise": _cmd_add_noise,
    "metrics": _cmd_metrics,
    "project": _cmd_project,
    "slice": _cmd_slice,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ParameterError, DimensionError) as exc:
        print(f"tvs: parameter error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (VolumeFormatError, OSError) as exc:
        print(f"tvs: io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DivergenceError as exc:
        print(f"tvs: numerical divergence: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        print(f"tvs: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_MEMORY


if __name__ == "__main__":
    sys.exit(main())
