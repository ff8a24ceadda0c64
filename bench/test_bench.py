"""Smoke test of the benchmark: all three workloads at tiny sizes in a few seconds.

Run from the repository root with ``python -m pytest bench``; the tier-1
suite collects only ``tests/`` and does not run this file.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _smoke(trace: str) -> dict:
    done = _run("--workload", "all", "--smoke", "--seconds", "0.2", "--seed", "3", "--trace", trace)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced():
    return _smoke("0")


@pytest.fixture(scope="module")
def traced():
    return _smoke("1")


@pytest.mark.parametrize("run,section", [("untraced", "end_to_end"), ("traced", "per_layer")])
def test_smoke_prints_every_declared_metric(request, run, section):
    result = request.getfixturevalue(run)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {f"{w['name']}.{m['name']}" for w in SPEC["workloads"] for m in SPEC[section]}
    assert set(result["metrics"]) == expected
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if section == "end_to_end":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_smoke_trace_shows_which_layers_run(traced):
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    # step 1 outweighs step 2 on the tvstokes volume
    assert m["ct64_tvstokes.smoothing.smooth_gradient_field.s"] > m["ct64_tvstokes.reconstruction.reconstruct.s"]
    # the ROF video runs no smoothing, spectral or tensor work
    for name in ("smoothing.smooth_gradient_field.s", "spectral.PoissonPlan.solve.calls",
                 "fields.grad_vec.calls", "fields.unit_clip.c2.calls"):
        assert m[f"video_rof.{name}"] == 0
    assert m["video_rof.rof.iters"] > 0
    # the frames do no file IO and never enter the CLI
    assert m["frames2d_tvstokes.volume_io.bytes_read"] == 0
    assert m["frames2d_tvstokes.cli.main.self_s"] == 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = _run("--workload", "ct64_tvstokes", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
