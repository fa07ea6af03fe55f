"""The per-path kernel timing tool runs and reports every path."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from pyrstereo import MatchConfig, matcher

ROOT = Path(__file__).resolve().parent.parent


def test_kernel_timings_run_at_a_tiny_size(tmp_path):
    # It checks that the paths agree bit for bit before it times them.
    result = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "kernels.py"), "--size", "48x64x8",
         "--levels", "1", "--repeats", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    rows = report["48x64x8"]
    assert set(rows) == {"plane", "band planes", "window nz=3", "dsi_rows nz=9"}
    assert rows["window nz=3"]["entries"] > 0 and rows["dsi_rows nz=9"]["entries"] > 0
    for row in rows.values():
        assert all(ns > 0 for ns in row["ns_per_entry"])


def test_recorded_windows_start_one_below_the_prior(monkeypatch):
    """The windows timed are those selection asks for, around the prior, not its picks."""
    # kernels.py pins BLAS to one thread on import; the test's environment is restored.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    monkeypatch.syspath_prepend(str(ROOT / "stereobench"))
    kernels = importlib.import_module("kernels")
    priors, select = [], matcher._select_trusted

    def recording(engine, d_hat, c_hat, beta):
        priors.append(d_hat.copy())  # selection writes its picks into d_hat
        return select(engine, d_hat, c_hat, beta)

    monkeypatch.setattr(matcher, "_select_trusted", recording)
    scene = kernels.scenes.make_scene(kernels.scenes.scene_seeds(103, 1)[0], 48, 64, 8)
    _, windows, _ = kernels.level0_requests(scene, MatchConfig(d_max=8, levels=1))
    assert sum(ti.size for ti, _, _ in windows) > 0
    for ti, tj, z0 in windows:
        np.testing.assert_array_equal(z0, priors[-1][ti, tj].astype(np.intp) - 1)
