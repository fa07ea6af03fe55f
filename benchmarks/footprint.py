"""Peak memory of the matcher per level and stage, against block matching.

    python3 benchmarks/footprint.py [--size 375x450x64 ...] [--seed 103] [--levels K]

Run from the repository root; the package is imported from ``src/`` of
this checkout and the scenes from ``stereobench/scenes.py``.  At each size
(height x width x d_max; ``--size`` may be given more than once) two pairs
are matched: one layered scene and two independent uniform-noise images,
which leave almost nothing to trust.

Each pair is matched by ``run_pipeline`` under ``tracemalloc``.  Per level
and stage (engine, upsample, trusted selection, band pass, median) a row
prints two peaks in MiB: above that stage's start, then above the run's
start.  The first is what the stage itself holds; the second is what the
run holds while it runs, and the stage with the largest sets the run's
peak.  Then the whole run's peak above its start is printed with the
stage that set it, next to ``baseline_bm``'s peak on the same pair and
their ratio.  After every size's rows, one summary line per size gives
both pairs' peaks, ratios and peak stages.  The last line is one JSON
object with the same figures, keyed by size, then by pair.
"""

from __future__ import annotations

import argparse
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "stereobench"))

import scenes  # noqa: E402
from pyrstereo import MatchConfig, baseline_bm, matcher, run_pipeline  # noqa: E402

# The stages run_pipeline calls at every level, by their names in the matcher.
STAGES = {"engine": "CostEngine", "upsample": "upsample_prior", "trusted": "_select_trusted",
          "band pass": "_band_pass", "median": "selective_median"}
MIB = 2.0 ** 20


class StagePeaks:
    """Wraps each stage to record its peaks above its start and the run's, in call order.

    ``tracemalloc.reset_peak`` at a stage's start hides the peak reached
    before it, so the largest peak seen is kept for the whole run.
    """

    def __init__(self) -> None:
        # (stage, peak bytes above its start, peak bytes above the run's start)
        self.calls: list[tuple[str, int, int]] = []
        self.highest = 0
        self.base = 0

    def wrap(self, stage: str, fn):
        def staged(*args, **kwargs):
            start, peak = tracemalloc.get_traced_memory()
            self.highest = max(self.highest, peak)
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                self.highest = max(self.highest, peak)
                self.calls.append((stage, peak - start, peak - self.base))
        return staged

    def run(self, call) -> tuple[object, float]:
        """``call()``'s result and its peak above its start, in bytes."""
        tracemalloc.start()
        try:
            self.base = tracemalloc.get_traced_memory()[0]
            self.highest = 0
            result = call()
            self.highest = max(self.highest, tracemalloc.get_traced_memory()[1])
            return result, self.highest - self.base
        finally:
            tracemalloc.stop()


def pipeline_footprint(left, right, config) -> dict:
    """Per-level stage peaks, the whole run's peak and the stage that set it, in MiB.

    ``levels`` holds each stage's peak above its start, ``from_run_start``
    the same stages' peaks above the run's start.  ``peak_stage`` names the
    stage with the largest of these, or "outside the stages" when the run
    peaked between them.
    """
    peaks = StagePeaks()
    saved = {name: getattr(matcher, name) for name in STAGES.values()}
    try:
        for stage, name in STAGES.items():
            setattr(matcher, name, peaks.wrap(stage, saved[name]))
        (_, _, trace), total = peaks.run(lambda: run_pipeline(left, right, config))
    finally:
        for name, fn in saved.items():
            setattr(matcher, name, fn)
    # Levels run coarsest first, and each one ends with its median.
    levels = iter(trace.levels)
    by_level, from_start, level = {}, {}, None
    top_stage, top = "outside the stages", 0
    for stage, own, above_run in peaks.calls:
        if level is None:
            level = str(next(levels).level)
            by_level[level], from_start[level] = {}, {}
        by_level[level][stage] = own / MIB
        from_start[level][stage] = above_run / MIB
        if above_run >= top:
            top_stage, top = f"level {level} {stage}", above_run
        if stage == "median":
            level = None
    if total > top:
        top_stage = "outside the stages"
    return {"levels": by_level, "from_run_start": from_start,
            "run_pipeline_mib": total / MIB, "peak_stage": top_stage}


def footprint(left, right, config) -> dict:
    row = pipeline_footprint(left, right, config)
    _, bm = StagePeaks().run(lambda: baseline_bm(left, right, config.d_max, config.block))
    row["baseline_bm_mib"] = bm / MIB
    row["ratio"] = row["run_pipeline_mib"] / row["baseline_bm_mib"]
    return row


def make_pairs(size: str, seed: int, levels=None) -> tuple[MatchConfig, dict]:
    """The config and both pairs, layered and noise, at one HxWxD_MAX size."""
    height, width, d_max = (int(v) for v in size.split("x"))
    scene = scenes.make_scene(scenes.scene_seeds(seed, 1)[0], height, width, d_max)
    rng = np.random.default_rng(seed)
    return MatchConfig(d_max=d_max, levels=levels), {
        "layered": (scene.left, scene.right),
        "noise": (rng.random((height, width)), rng.random((height, width)))}


def size_report(size: str, seed: int, levels) -> dict:
    """Both pairs' footprints at one size, printed per level and stage."""
    config, pairs = make_pairs(size, seed, levels)
    report = {}
    for name, (left, right) in pairs.items():
        row = report[name] = footprint(left, right, config)
        print(f"{name} {size} seed {seed}: "
              "peak above the stage's start / above the run's start, MiB")
        for level, stages in row["levels"].items():
            run = row["from_run_start"][level]
            print(f"  level {level}  " + "  ".join(f"{s} {mib:5.2f}/{run[s]:5.2f}"
                                                    for s, mib in stages.items()))
        print(f"  run_pipeline {row['run_pipeline_mib']:.2f} ({row['peak_stage']})  "
              f"baseline_bm {row['baseline_bm_mib']:.2f}  ratio {row['ratio']:.2f}")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", action="append",
                        help="HxWxD_MAX of both pairs, repeatable (default: 375x450x64)")
    parser.add_argument("--seed", type=int, default=103, help="scene and noise seed")
    parser.add_argument("--levels", type=int, default=None,
                        help="pyramid halvings (default: automatic, as run_pipeline)")
    args = parser.parse_args(argv)

    report = {size: size_report(size, args.seed, args.levels)
              for size in args.size or ["375x450x64"]}
    print(f"summary, seed {args.seed}: run_pipeline MiB above its start "
          "(ratio to baseline_bm, stage setting the peak)")
    for size, pairs in report.items():
        print(f"  {size}  " + "  ".join(
            f"{name} {row['run_pipeline_mib']:.2f} ({row['ratio']:.2f}x, {row['peak_stage']})"
            for name, row in pairs.items()))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
