"""The per-stage peak memory tool runs and reports every stage, and the footprint grid."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import footprint  # noqa: E402


def test_footprint_runs_at_a_tiny_size(tmp_path):
    sizes = ["48x64x8", "40x56x6"]
    result = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "footprint.py"), "--size", sizes[0],
         "--size", sizes[1], "--levels", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    report = json.loads(lines[-1])
    assert list(report) == sizes
    # One summary line per size, in order, just before the JSON.
    assert [line.split()[0] for line in lines[-3:-1]] == sizes
    rows = [row for pairs in report.values() for row in pairs.values()]
    assert all(set(pairs) == {"layered", "noise"} for pairs in report.values())
    for row in rows:
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


# The grid: the CLI's size, a level ten times wider than it is tall, and a
# d_max above half the width, at the tool's default seed.  A cell whose peak
# is over twice block matching's is an open defect, kept visible by a
# strict xfail with the ratio it measured, so the fix that mends it must
# flip it.
_OVER = {("88x128x12", "noise"): "2.77x: a whole-level dense band's store and its ring",
         ("48x480x32", "layered"): "2.47x: one level, a store of 16-row bands, a third of it",
         ("48x480x32", "noise"): "2.51x: one level, a store of 16-row bands, a third of it",
         ("72x96x56", "layered"): "4.45x: one level, a store of 47-row bands, two thirds of it",
         ("72x96x56", "noise"): "4.47x: one level, a store of 47-row bands, two thirds of it"}
_GRID = [pytest.param(size, pair, marks=[pytest.mark.xfail(reason=_OVER[size, pair],
                                                           strict=True)]
                      if (size, pair) in _OVER else [])
         for size in ("88x128x12", "48x480x32", "72x96x56") for pair in ("layered", "noise")]


@pytest.mark.parametrize("size, pair", _GRID)
def test_footprint_grid_within_twice_block_matching(size, pair):
    config, pairs = footprint.make_pairs(size, 103)
    row = footprint.footprint(*pairs[pair], config)
    assert row["ratio"] <= 2.0
