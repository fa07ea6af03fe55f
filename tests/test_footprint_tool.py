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
        for levels in (row["levels"], row["from_run_start"]):
            assert list(levels) == ["1", "0"]
            assert set(levels["1"]) == {"engine", "trusted", "band pass", "median"}
            assert set(levels["0"]) == {"engine", "upsample", "trusted", "band pass", "median"}
        stage_peaks = [mib for stages in row["levels"].values() for mib in stages.values()]
        assert all(mib > 0 for mib in stage_peaks)
        # Above the run's start, a stage holds at least what it holds above its own.
        for level, stages in row["levels"].items():
            for stage, mib in stages.items():
                assert row["from_run_start"][level][stage] >= mib
        run_peaks = {f"level {level} {stage}": mib
                     for level, stages in row["from_run_start"].items()
                     for stage, mib in stages.items()}
        assert row["run_pipeline_mib"] >= max(run_peaks.values())
        if row["peak_stage"] != "outside the stages":
            assert run_peaks[row["peak_stage"]] == row["run_pipeline_mib"]
        assert row["baseline_bm_mib"] > 0
        assert row["ratio"] == row["run_pipeline_mib"] / row["baseline_bm_mib"]
