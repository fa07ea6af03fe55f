"""The per-stage peak memory tool runs and reports every stage."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_footprint_runs_at_a_tiny_size(tmp_path):
    result = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "footprint.py"), "--size", "48x64x8",
         "--levels", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert set(report) == {"layered", "noise"}
    for row in report.values():
        assert list(row["levels"]) == ["1", "0"]
        assert set(row["levels"]["1"]) == {"trusted", "band pass", "median"}
        assert set(row["levels"]["0"]) == {"upsample", "trusted", "band pass", "median"}
        stage_peaks = [mib for stages in row["levels"].values() for mib in stages.values()]
        assert all(mib > 0 for mib in stage_peaks)
        assert row["run_pipeline_mib"] >= max(stage_peaks)
        assert row["baseline_bm_mib"] > 0
        assert row["ratio"] == row["run_pipeline_mib"] / row["baseline_bm_mib"]
