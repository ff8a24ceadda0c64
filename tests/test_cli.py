"""Command line pipeline: end-to-end runs, reports, determinism, exit codes."""

import argparse
import inspect
import json
import math
import os

import numpy as np
import pytest

from tvstokes import (
    ReconstructionConfig,
    RunReport,
    SmoothingConfig,
    VolumeHeader,
    add_gaussian_noise,
    grad,
    load_volume,
    reconstruct,
    run_denoise,
    run_project,
    save_volume,
    smooth_gradient_field,
)
from tvstokes.cli import _SOLVER_KEYWORDS, _build_parser, main
from tvstokes.dual import DualConfig, DualResult
from tvstokes.pipeline import MODELS

from oracles import rand_scalar


def write_volume(tmp_path, values, name="vol.raw", dtype="f64", value_range=None):
    path = tmp_path / name
    save_volume(values, path, dtype=dtype, value_range=value_range)
    return path


def make_noisy(tmp_path, dims=(8, 8, 8), seed=0, name="noisy.raw"):
    clean = rand_scalar(dims, seed) * 0.1 + 0.5
    noisy = add_gaussian_noise(clean, 0.05, seed=seed + 1)
    return write_volume(tmp_path, noisy, name=name)


# ------------------------------------------------------------------ denoise

def test_denoise_tvstokes_end_to_end(tmp_path):
    inp = make_noisy(tmp_path)
    out = tmp_path / "out.raw"
    rep = tmp_path / "report.json"
    code = main([
        "denoise", "--model", "tvstokes", "--input", str(inp),
        "--lambda1", "0.1", "--lambda2", "0.1", "--max-iters", "40",
        "--output", str(out), "--report", str(rep),
    ])
    assert code == 0
    result = load_volume(out)
    assert result.shape == (8, 8, 8)
    report = RunReport.from_json(rep.read_text())
    assert report.model == "tvstokes"
    assert set(report.steps) == {"smoothing", "reconstruction"}
    assert report.steps["smoothing"].iters >= 1
    assert report.config["tau"] == pytest.approx(1.0 / 6.0)
    assert report.config["tau_was_auto"] is True
    assert report.config["tau_limit_estimate"] >= 1.0 / 6.0  # sharper than the default
    assert report.metrics["staircase"] is not None


def test_denoise_rof_end_to_end(tmp_path):
    inp = make_noisy(tmp_path)
    out = tmp_path / "out.raw"
    rep = tmp_path / "report.json"
    code = main([
        "denoise", "--model", "rof", "--input", str(inp),
        "--meta", str(tmp_path / "noisy.json"), "--lambda", "0.15",
        "--tau", "auto", "--max-iters", "40",
        "--output", str(out), "--report", str(rep),
    ])
    assert code == 0
    report = RunReport.from_json(rep.read_text())
    assert set(report.steps) == {"rof"}
    assert report.config["lambda"] == 0.15
    assert report.config["tau"] == pytest.approx(1.0 / 6.0)  # resolved from 'auto'
    assert report.config["tau_was_auto"] is True
    assert report.config["tau_exceeds_bound"] is False


def test_denoise_tau_override_is_flagged(tmp_path):
    inp = make_noisy(tmp_path, dims=(6, 6))
    rep = tmp_path / "report.json"
    code = main([
        "denoise", "--input", str(inp), "--tau", "0.5", "--max-iters", "15",
        "--output", str(tmp_path / "o.raw"), "--report", str(rep),
    ])
    assert code == 0
    report = RunReport.from_json(rep.read_text())
    assert report.config["tau"] == 0.5
    assert report.config["tau_was_auto"] is False
    assert report.config["tau_exceeds_bound"] is True


def test_denoise_constant_volume_is_identity(tmp_path):
    inp = write_volume(tmp_path, np.full((6, 6, 6), 0.75))
    out = tmp_path / "out.raw"
    rep = tmp_path / "report.json"
    code = main([
        "denoise", "--input", str(inp), "--output", str(out), "--report", str(rep),
    ])
    assert code == 0
    assert load_volume(out).tobytes() == load_volume(inp).tobytes()
    report = RunReport.from_json(rep.read_text())
    assert report.steps["smoothing"].iters == 1
    assert report.steps["reconstruction"].iters == 1


def test_denoise_deterministic(tmp_path):
    inp = make_noisy(tmp_path)
    reports = []
    payloads = []
    for run in ("a", "b"):
        out = tmp_path / f"out_{run}.raw"
        rep = tmp_path / f"report_{run}.json"
        code = main([
            "denoise", "--input", str(inp), "--max-iters", "25",
            "--output", str(out), "--report", str(rep),
        ])
        assert code == 0
        payloads.append(out.read_bytes())
        data = json.loads(rep.read_text())
        data.pop("wall_time_seconds")
        reports.append(json.dumps(data, sort_keys=True))
    assert payloads[0] == payloads[1]
    assert reports[0] == reports[1]


def test_denoise_normalizes_with_value_range(tmp_path):
    u = rand_scalar((6, 6), 3) * 50.0 + 100.0
    inp = write_volume(tmp_path, u, value_range=(float(u.min()), float(u.max())))
    out = tmp_path / "out.raw"
    rep = tmp_path / "report.json"
    code = main([
        "denoise", "--input", str(inp), "--max-iters", "20",
        "--output", str(out), "--report", str(rep),
    ])
    assert code == 0
    report = RunReport.from_json(rep.read_text())
    assert report.normalization["applied"] is True
    assert report.normalization["offset"] == pytest.approx(float(u.min()))
    # output comes back in raw units
    result = load_volume(out)
    assert result.mean() == pytest.approx(u.mean(), rel=0.05)


def test_report_round_trip(tmp_path):
    inp = make_noisy(tmp_path, dims=(6, 6))
    rep = tmp_path / "report.json"
    main(["denoise", "--input", str(inp), "--max-iters", "10",
          "--output", str(tmp_path / "o.raw"), "--report", str(rep)])
    report = RunReport.from_json(rep.read_text())
    again = RunReport.from_json(RunReport.from_dict(report.to_dict()).to_json())
    assert again == report


def test_axis_permutation_equivariance(tmp_path):
    dims = (5, 6, 7)
    noisy = add_gaussian_noise(rand_scalar(dims, 4) * 0.2 + 0.5, 0.05, seed=7)
    perm = (2, 0, 1)
    inp_a = write_volume(tmp_path, noisy, name="a.raw")
    inp_b = write_volume(tmp_path, np.transpose(noisy, perm), name="b.raw")
    kwargs = dict(lam1=0.1, lam2=0.1, max_iters=30, tol=0.0)
    out_a, _ = run_denoise("tvstokes", inp_a, **kwargs)
    out_b, _ = run_denoise("tvstokes", inp_b, **kwargs)
    inverse = np.argsort(perm)
    np.testing.assert_allclose(np.transpose(out_b, inverse), out_a, atol=1e-10)


def test_run_denoise_equals_the_public_two_step_path(tmp_path):
    """The run is the two public solves, bit for bit, report included."""
    noisy = add_gaussian_noise(rand_scalar((5, 6, 8), 4) * 0.2 + 0.5, 0.05, seed=7)
    out, report = run_denoise("tvstokes", write_volume(tmp_path, noisy), lam1=0.2, lam2=0.35,
                              max_iters=15, tol=0.0)
    r1 = smooth_gradient_field(noisy, SmoothingConfig(lam=0.2, max_iters=15, tol=0.0))
    r2 = reconstruct(noisy, r1.g, ReconstructionConfig(lam=0.35, max_iters=15, tol=0.0))
    assert out.tobytes() == r2.u.tobytes()
    for name, r in (("smoothing", r1), ("reconstruction", r2)):
        assert report.steps[name] == DualResult(r.iters, r.final_change, r.kkt_residual, r.objective)


@pytest.mark.parametrize("model", MODELS)
def test_denoise_defaults_are_the_configs_defaults(tmp_path, model):
    """With no solver flag, and with no keyword, a run uses ``DualConfig()``'s
    parameters and ``ReconstructionConfig().eps``."""
    inp = make_noisy(tmp_path, dims=(6, 7))
    rep = tmp_path / "report.json"
    assert main(["denoise", "--model", model, "--input", str(inp),
                 "--output", str(tmp_path / "out.raw"), "--report", str(rep)]) == 0
    config = RunReport.from_json(rep.read_text()).config
    defaults = DualConfig()
    assert config["max_iters"] == defaults.max_iters and config["tol"] == defaults.tol
    assert defaults.tau is None and config["tau_was_auto"] is True
    assert config["tau"] == defaults.resolve_tau(2)
    lambdas = ("lambda1", "lambda2") if model == "tvstokes" else ("lambda",)
    assert [config[name] for name in lambdas] == [defaults.lam] * len(lambdas)
    assert config.get("eps", ReconstructionConfig().eps) == ReconstructionConfig().eps
    assert ("eps" in config) == (model == "tvstokes")
    assert run_denoise(model, inp)[1].config == config


def test_model_choices_are_the_pipelines_models():
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    model = next(a for a in sub.choices["denoise"]._actions if a.dest == "model")
    assert tuple(model.choices) == MODELS


# each denoise solver flag by its dest: the flag, a value that is no default, and its report key
SOLVER_FLAGS = {
    "lam1": ("--lambda1", 0.15, "lambda1"),
    "lam2": ("--lambda2", 0.25, "lambda2"),
    "lam": ("--lambda", 0.3, "lambda"),
    "tau": ("--tau", 0.2, "tau"),
    "max_iters": ("--max-iters", 3, "max_iters"),
    "tol": ("--tol", 1e-4, "tol"),
    "eps": ("--eps", 0.02, "eps"),
}


def test_denoise_forwards_run_denoises_keywords_by_name():
    """``_SOLVER_KEYWORDS`` is ``run_denoise``'s keyword-only parameters, each a denoise dest."""
    params = inspect.signature(run_denoise).parameters.values()
    assert _SOLVER_KEYWORDS == tuple(p.name for p in params if p.kind is p.KEYWORD_ONLY)
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(_SOLVER_KEYWORDS) <= {a.dest for a in sub.choices["denoise"]._actions}
    assert set(SOLVER_FLAGS) == set(_SOLVER_KEYWORDS)


@pytest.mark.parametrize("model", MODELS)
def test_every_denoise_solver_flag_reaches_the_report(tmp_path, model):
    inp = make_noisy(tmp_path, dims=(6, 7))
    rep = tmp_path / "report.json"
    argv = ["denoise", "--model", model, "--input", str(inp),
            "--output", str(tmp_path / "out.raw"), "--report", str(rep)]
    defaults = inspect.signature(run_denoise).parameters
    for name, (flag, value, _) in SOLVER_FLAGS.items():
        assert value != defaults[name].default
        argv += [flag, str(value)]
    assert main(argv) == 0
    config = RunReport.from_json(rep.read_text()).config
    echoed = {"lam1", "lam2", "eps"} if model == "tvstokes" else {"lam"}
    for name in echoed | {"tau", "max_iters", "tol"}:
        flag, value, key = SOLVER_FLAGS[name]
        assert config[key] == value, flag
    assert config["tau_was_auto"] is False
    keywords = {name: value for name, (_, value, _) in SOLVER_FLAGS.items()}
    assert run_denoise(model, inp, **keywords)[1].config == config


def test_report_reads_back_by_field_name_without_its_optional_fields(tmp_path):
    report = run_denoise("rof", make_noisy(tmp_path, dims=(6, 7)), max_iters=3)[1]
    data = report.to_dict()
    assert RunReport.from_dict(data) == report
    del data["normalization"], data["metrics"]
    back = RunReport.from_dict(data)
    assert back.normalization is None and back.metrics is None
    assert back.steps == report.steps and back.config == report.config


# ---------------------------------------------------------------- add-noise

def test_add_noise_deterministic(tmp_path):
    inp = write_volume(tmp_path, rand_scalar((8, 8), 5))
    outs = []
    for run in ("a", "b"):
        out = tmp_path / f"noisy_{run}.raw"
        code = main(["add-noise", "--input", str(inp), "--sigma", "0.2",
                     "--seed", "42", "--output", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    other = tmp_path / "noisy_c.raw"
    main(["add-noise", "--input", str(inp), "--sigma", "0.2", "--seed", "43",
          "--output", str(other)])
    assert other.read_bytes() != outs[0]


# ------------------------------------------------------------------ metrics

def test_metrics_command_output(tmp_path, capsys):
    u = rand_scalar((6, 6, 6), 6)
    ref = write_volume(tmp_path, u, name="ref.raw")
    test = write_volume(tmp_path, u + 0.5, name="test.raw")
    code = main(["metrics", "--ref", str(ref), "--test", str(test), "--peak", "1.0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["psnr_db"] == pytest.approx(6.0206, abs=1e-4)
    assert payload["staircase"] is not None


def test_metrics_identical_reports_null_psnr(tmp_path, capsys):
    u = rand_scalar((6, 6), 7)
    ref = write_volume(tmp_path, u, name="ref.raw")
    test = write_volume(tmp_path, u.copy(), name="test.raw")
    assert main(["metrics", "--ref", str(ref), "--test", str(test)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["psnr_db"] is None


def test_metrics_overflowing_peak_reports_a_finite_psnr(tmp_path, capsys):
    """``peak*peak/mse`` overflows at a peak of 1e160; only identical volumes print null."""
    u = rand_scalar((6, 6), 9)
    ref = write_volume(tmp_path, u, name="ref.raw")
    test = write_volume(tmp_path, u + 1e-3, name="test.raw")
    assert main(["metrics", "--ref", str(ref), "--test", str(test), "--peak", "1e160"]) == 0
    psnr_db = json.loads(capsys.readouterr().out)["psnr_db"]
    assert psnr_db is not None and math.isfinite(psnr_db)
    assert psnr_db == pytest.approx(3260.0, abs=0.1)


def test_metrics_peak_defaults_to_the_reference_value_range(tmp_path, capsys):
    """A 0-255 volume scores against a peak of 255, not 1, unless --peak says otherwise."""
    u = 250 * np.random.default_rng(8).random((6, 6, 6))  # and u + 4 stays in [0, 255]
    box = (0.0, 255.0)
    ref = write_volume(tmp_path, u, name="ref.raw", dtype="f32", value_range=box)
    test = write_volume(tmp_path, u + 4.0, name="test.raw", dtype="f32", value_range=box)
    scores = []
    for peak in ([], ["--peak", "255"], ["--peak", "1"]):
        assert main(["metrics", "--ref", str(ref), "--test", str(test), *peak]) == 0
        scores.append(json.loads(capsys.readouterr().out)["psnr_db"])
    assert scores[0] == scores[1] > 0 > scores[2]


# ------------------------------------------------------------------ project

def test_project_writes_gradient_channels(tmp_path):
    u = rand_scalar((5, 6, 4), 8)
    inp = write_volume(tmp_path, u)
    code = main(["project", "--input", str(inp), "--output", str(tmp_path / "g.raw")])
    assert code == 0
    g = grad(u)
    for channel in range(3):
        stored = load_volume(tmp_path / f"g_c{channel}.raw")
        np.testing.assert_allclose(stored, g[channel], atol=1e-10)


def test_failed_project_write_leaves_no_channel_file(tmp_path, monkeypatch):
    """The third temporary write, channel 1's payload, fails: channel 0 is not kept either."""
    import builtins
    import errno

    from tvstokes import volume_io

    inp = write_volume(tmp_path, rand_scalar((5, 6, 4), 8))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    opened = []

    def open_failing(file, mode="r", *args, **kwargs):
        if "x" in mode:
            opened.append(file)
            if len(opened) == 3:
                raise OSError(errno.ENOSPC, "No space left on device")
        return builtins.open(file, mode, *args, **kwargs)

    monkeypatch.setattr(volume_io, "open", open_failing, raising=False)
    with pytest.raises(OSError, match="No space"):
        run_project(inp, output_path=tmp_path / "g.raw")
    monkeypatch.undo()
    assert len(opened) == 3
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


# -------------------------------------------------------------------- slice

def test_slice_command(tmp_path):
    inp = write_volume(tmp_path, rand_scalar((4, 5, 6), 9))
    out = tmp_path / "view.pgm"
    code = main(["slice", "--input", str(inp), "--axis", "0", "--index", "2",
                 "--out", str(out)])
    assert code == 0
    assert out.read_bytes().startswith(b"P5\n6 5\n255\n")


# --------------------------------------------------------------- exit codes

def test_missing_input_exits_3(tmp_path):
    code = main(["denoise", "--input", str(tmp_path / "absent.raw"),
                 "--output", str(tmp_path / "o.raw")])
    assert code == 3


def test_bad_lambda_exits_2(tmp_path):
    inp = make_noisy(tmp_path, dims=(6, 6))
    code = main(["denoise", "--input", str(inp), "--lambda1", "-0.5",
                 "--output", str(tmp_path / "o.raw")])
    assert code == 2


@pytest.mark.parametrize("args", [
    ["denoise", "--model", "rof", "--lambda", "inf"],
    ["denoise", "--model", "rof", "--lambda", "nan"],
    ["denoise", "--lambda1", "inf"],
    ["denoise", "--lambda2", "inf"],
    ["denoise", "--tau", "nan"],
    ["denoise", "--tau", "inf"],
    ["denoise", "--eps", "nan"],
    ["denoise", "--tol", "nan"],
    ["add-noise", "--sigma", "nan"],
    ["add-noise", "--sigma", "0.1", "--seed", "-1"],
    ["add-noise", "--sigma", "0", "--seed", "-1"],
], ids=" ".join)
def test_non_finite_or_negative_parameter_exits_2(tmp_path, capsys, args):
    inp = make_noisy(tmp_path, dims=(6, 6, 6))
    out = tmp_path / "o.raw"
    code = main(args + ["--input", str(inp), "--output", str(out)])
    assert code == 2
    assert "parameter error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("peak", ["nan", "inf"])
def test_metrics_non_finite_peak_exits_2(tmp_path, capsys, peak):
    ref = write_volume(tmp_path, rand_scalar((6, 6), 1), name="ref.raw")
    test = write_volume(tmp_path, rand_scalar((6, 6), 2), name="test.raw")
    code = main(["metrics", "--ref", str(ref), "--test", str(test), "--peak", peak])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_payload_size_mismatch_exits_3(tmp_path):
    raw = tmp_path / "vol.raw"
    raw.write_bytes(b"\x00" * 8)
    from tvstokes.volume_io import _header_bytes, write_atomic

    write_atomic((tmp_path / "vol.json", _header_bytes(VolumeHeader(dims=(4, 4)))))
    code = main(["denoise", "--input", str(raw), "--output", str(tmp_path / "o.raw")])
    assert code == 3


def test_bad_tau_string_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["denoise", "--input", "x.raw", "--output", "y.raw", "--tau", "fast"])
    assert exc.value.code == 2


def test_slice_bad_axis_exits_2(tmp_path):
    inp = write_volume(tmp_path, rand_scalar((4, 5), 10))
    code = main(["slice", "--input", str(inp), "--axis", "7", "--index", "0",
                 "--out", str(tmp_path / "v.pgm")])
    assert code == 2


def test_console_module_entry(tmp_path):
    import subprocess
    import sys

    inp = write_volume(tmp_path, rand_scalar((6, 6), 11))
    out = tmp_path / "noisy.raw"
    proc = subprocess.run(
        [sys.executable, "-m", "tvstokes.cli", "add-noise", "--input", str(inp),
         "--sigma", "0.1", "--seed", "3", "--output", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_out_of_memory_exits_5(tmp_path, monkeypatch, capsys):
    import tvstokes.cli

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.50 GiB for an array")

    monkeypatch.setattr(tvstokes.cli, "run_denoise", exhausted)
    inp = make_noisy(tmp_path, dims=(6, 6))
    code = main(["denoise", "--input", str(inp), "--output", str(tmp_path / "o.raw")])
    assert code == 5
    err = capsys.readouterr().err
    assert err == "tvs: out of memory: Unable to allocate 7.50 GiB for an array\n"
    assert not (tmp_path / "o.raw").exists()


@pytest.mark.parametrize("field, value", [
    ("value_range", [0]),
    ("value_range", "ab"),
    ("value_range", 5),
    ("value_range", [0, "x"]),
    ("value_range", [0, 10**400]),
    ("value_range", [False, True]),
    ("dims", "44"),
    ("dims", [4, 4.7]),
    ("value_range", [-1e308, 1e308]),
])
def test_malformed_header_exits_3(tmp_path, capsys, field, value):
    raw = tmp_path / "vol.raw"
    raw.write_bytes(np.zeros(16).tobytes())
    header = VolumeHeader(dims=(4, 4)).to_dict()
    header[field] = value
    (tmp_path / "vol.json").write_text(json.dumps(header))
    code = main(["denoise", "--input", str(raw), "--output", str(tmp_path / "o.raw")])
    assert code == 3
    assert field in capsys.readouterr().err


def test_failed_report_write_keeps_previous_report(tmp_path, monkeypatch):
    import builtins
    import errno

    from tvstokes import volume_io

    inp = make_noisy(tmp_path, dims=(6, 6))
    rep = tmp_path / "report.json"
    run_denoise("rof", inp, report_path=rep, max_iters=3)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    class WriteFailsHalfway:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    def open_failing(file, mode="r", *args, **kwargs):
        fh = builtins.open(file, mode, *args, **kwargs)
        return WriteFailsHalfway(fh) if "x" in mode else fh

    monkeypatch.setattr(volume_io, "open", open_failing, raising=False)
    with pytest.raises(OSError, match="No space"):
        run_denoise("rof", inp, report_path=rep, max_iters=5)
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_missing_report_directory_exits_3_and_writes_no_output(tmp_path):
    inp = make_noisy(tmp_path, dims=(6, 6))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    code = main([
        "denoise", "--model", "rof", "--input", str(inp), "--max-iters", "3",
        "--output", str(tmp_path / "out.raw"), "--report", str(tmp_path / "nodir" / "r.json"),
    ])
    assert code == 3
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_report_on_the_outputs_header_exits_2_and_writes_nothing(tmp_path):
    """``--report out.json`` would replace ``out.raw``'s header and leave an unreadable volume."""
    inp = write_volume(tmp_path, rand_scalar((8, 8, 8), 2), name="in.raw", dtype="f32")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    code = main([
        "denoise", "--model", "rof", "--input", str(inp), "--max-iters", "3",
        "--output", str(tmp_path / "out.raw"), "--report", str(tmp_path / "out.json"),
    ])
    assert code == 2
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


REFUSED_TARGETS = {  # --output, --report, exit code
    "report-on-the-output": ("out.raw", "out.raw", 2),
    "report-on-the-outputs-header": ("out.raw", "out.json", 2),
    "output-in-a-missing-directory": ("nodir/out.raw", "r.json", 3),
    "report-in-a-missing-directory": ("out.raw", "nodir/r.json", 3),
}


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("case", REFUSED_TARGETS)
def test_refused_targets_exit_before_the_input_is_read(tmp_path, monkeypatch, case, model):
    """A clash or a missing directory is known from the paths alone, so no solve runs first."""
    import tvstokes.pipeline

    def read_volume(*args):
        raise AssertionError("the input was read before the targets were checked")

    monkeypatch.setattr(tvstokes.pipeline, "_read_volume", read_volume)
    inp = make_noisy(tmp_path, dims=(6, 6))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    output, report, code = REFUSED_TARGETS[case]
    assert main([
        "denoise", "--model", model, "--input", str(inp),
        "--output", str(tmp_path / output), "--report", str(tmp_path / report),
    ]) == code
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_project_into_a_missing_directory_exits_3_before_the_payload_is_read(tmp_path, monkeypatch):
    """The channel paths follow from the header's dims alone, so no projection runs first."""
    import tvstokes.pipeline

    reads = []
    monkeypatch.setattr(tvstokes.pipeline, "_read_payload", lambda *args: reads.append(args))
    inp = make_noisy(tmp_path, dims=(6, 6))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(["project", "--input", str(inp), "--output", str(tmp_path / "nodir/g.raw")]) == 3
    assert reads == []
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("command", ["denoise", "project"])
def test_unwritable_directory_exits_3_before_the_input_is_read(tmp_path, monkeypatch, command):
    """Writability is known from the directory alone, so no solve or projection runs first."""
    import tvstokes.pipeline
    import tvstokes.volume_io

    def unread(*args):
        raise AssertionError("the input was read before the targets were checked")

    def access(path, mode, **kwargs):  # as for a user without write permission
        return not mode & os.W_OK

    inp = make_noisy(tmp_path, dims=(6, 6))
    monkeypatch.setattr(tvstokes.pipeline, "_read_volume", unread)
    monkeypatch.setattr(tvstokes.pipeline, "_read_payload", unread)
    monkeypatch.setattr(tvstokes.volume_io.os, "access", access)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main([command, "--input", str(inp), "--output", str(tmp_path / "out.raw")]) == 3
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


CLI_REFUSALS = {  # arguments after --input, exit code, whether the directory is unwritable
    "add-noise-onto-its-header": (["add-noise", "--sigma", "0.1", "--output", "n.json"], 2, False),
    "add-noise-into-a-missing-directory": (
        ["add-noise", "--sigma", "0.1", "--output", "nodir/n.raw"], 3, False),
    "add-noise-into-an-unwritable-directory": (
        ["add-noise", "--sigma", "0.1", "--output", "n.raw"], 3, True),
    "slice-into-a-missing-directory": (
        ["slice", "--axis", "0", "--index", "1", "--out", "nodir/s.pgm"], 3, False),
    "slice-into-an-unwritable-directory": (
        ["slice", "--axis", "0", "--index", "1", "--out", "s.pgm"], 3, True),
}


@pytest.mark.parametrize("case", CLI_REFUSALS)
def test_add_noise_and_slice_refuse_their_targets_before_the_input_is_read(tmp_path, monkeypatch,
                                                                          case):
    """The clash, the missing and the unwritable directory are known from the paths alone,
    so no volume is read and no noise drawn first."""
    import tvstokes.cli
    import tvstokes.volume_io

    def read_volume(*args):
        raise AssertionError("the input was read before the targets were checked")

    def access(path, mode, **kwargs):  # as for a user without write permission
        return not mode & os.W_OK

    (command, *rest), code, unwritable = CLI_REFUSALS[case]
    inp = make_noisy(tmp_path, dims=(6, 6))
    monkeypatch.setattr(tvstokes.cli, "_read_volume", read_volume)
    if unwritable:
        monkeypatch.setattr(tvstokes.volume_io.os, "access", access)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    rest[-1] = str(tmp_path / rest[-1])
    assert main([command, "--input", str(inp), *rest]) == code
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


# ------------------------------------------------------------- header reads

READERS = {
    "run_denoise": lambda inp, tmp_path: run_denoise("tvstokes", inp, max_iters=2),
    "add-noise": lambda inp, tmp_path: main([
        "add-noise", "--input", str(inp), "--sigma", "0.1", "--output", str(tmp_path / "n.raw")]),
    "slice": lambda inp, tmp_path: main([
        "slice", "--input", str(inp), "--axis", "0", "--index", "1",
        "--out", str(tmp_path / "s.pgm")]),
    "project": lambda inp, tmp_path: main([
        "project", "--input", str(inp), "--output", str(tmp_path / "g.raw")]),
}


@pytest.mark.parametrize("call", READERS)
def test_input_header_is_read_once(tmp_path, monkeypatch, call):
    """One read pairs the payload with the header it was checked against."""
    import tvstokes.cli
    import tvstokes.pipeline
    import tvstokes.volume_io

    inp = make_noisy(tmp_path, dims=(4, 5, 6))
    reads = []
    original = tvstokes.volume_io._read_header

    def counting(path):
        reads.append(path)
        return original(path)

    for module in (tvstokes.volume_io, tvstokes.pipeline, tvstokes.cli):
        if hasattr(module, "_read_header"):
            monkeypatch.setattr(module, "_read_header", counting)
    READERS[call](inp, tmp_path)
    assert len(reads) == 1
