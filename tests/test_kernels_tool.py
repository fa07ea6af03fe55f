"""The per-path kernel timing tool runs and reports every path."""

import json
import subprocess
import sys
from pathlib import Path

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
