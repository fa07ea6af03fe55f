"""The output fingerprint tool runs and prints one stable line per run."""

import json
import subprocess
import sys
from pathlib import Path

from pyrstereo import LevelTrace

ROOT = Path(__file__).resolve().parent.parent


def test_parity_runs_at_a_tiny_size(tmp_path):
    def run():
        result = subprocess.run(
            [sys.executable, str(ROOT / "benchmarks" / "parity.py"), "--run", "48x64x8:5",
             "--levels", "auto", "--levels", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        return result.stdout

    out = run()
    assert out == run()  # the same checkout prints the same lines
    lines = [json.loads(line) for line in out.splitlines()]
    assert [(row["run"], row["levels"]) for row in lines] == [("48x64x8:5", "auto"),
                                                             ("48x64x8:5", "0")]
    fields = set(LevelTrace.__dataclass_fields__) - {"seconds"} | {"pixels", "trusted_fraction"}
    for row in lines:
        for key in ("disparity_sha256", "cost_sha256", "baseline_sha256"):
            assert len(row[key]) == 64 and int(row[key], 16) >= 0
        assert row["trace"] and all(set(level) == fields for level in row["trace"])
    assert len(lines[1]["trace"]) == 1 and lines[1]["trace"][0]["trusted"] == 0
    assert lines[0]["baseline_sha256"] == lines[1]["baseline_sha256"]  # one scene


def test_parity_runs_at_the_paper_sign(tmp_path):
    result = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "parity.py"), "--run", "48x64x8:5",
         "--run", "48x64x8:5:paper", "--levels", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    plain, paper = (json.loads(line) for line in result.stdout.splitlines())
    assert paper["run"] == "48x64x8:5:paper"
    # The mirrored scene at the paper sign is another computation of the same size.
    for key in ("disparity_sha256", "cost_sha256", "baseline_sha256"):
        assert plain[key] != paper[key]
    assert paper["trace"][0]["selection_evals"] == plain["trace"][0]["selection_evals"]
