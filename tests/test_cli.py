"""Command line pipeline: end-to-end runs, reports, determinism, exit codes."""

import json

import numpy as np
import pytest

from tvstokes import (
    RunReport,
    VolumeHeader,
    add_gaussian_noise,
    grad,
    load_volume,
    run_denoise,
    save_volume,
)
from tvstokes.cli import main

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
    from tvstokes import write_header

    write_header(VolumeHeader(dims=(4, 4)), tmp_path / "vol.json")
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
