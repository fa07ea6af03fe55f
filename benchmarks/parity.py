"""Fingerprints of run_pipeline's outputs, for diffing two checkouts.

    python3 benchmarks/parity.py [--run 375x450x64:103 ...] [--levels auto --levels 0 ...]

Run from the repository root; the package is imported from ``src/`` of
this checkout and the scenes from ``stereobench/scenes.py``.  Each run is
one layered scene (height x width x d_max, and its seed) matched at one
pyramid depth.  A run ending in ``:paper`` mirrors both images left to
right, so that a left pixel's match sits at column j + d of the right
image, and matches them with ``sign="paper"``: the only check here on
the paper sign's branches of the costs and window kernels.  Every run
prints one JSON line: the SHA-256 of the disparity and cost maps' bytes,
each level's trace fields without ``seconds``, and the SHA-256 of
``baseline_bm``'s disparity and cost bytes on the same scene, the only
check here on the costs kernel's single-plane path, which
``run_pipeline`` never takes.  Two checkouts give the same outputs and
counts exactly when their lines are identical:

    python3 benchmarks/parity.py > a.jsonl   # in each checkout
    diff a.jsonl b.jsonl

The default runs are seeds 103 and 104 at 375x450, d_max 64 (the layered
workloads' scenes) and seeds 5 and 6 at 88x128, d_max 12 (the CLI
workload's), and seeds 103 and 5 mirrored at the paper sign, each at
levels auto, 0 and 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "stereobench"))

import scenes  # noqa: E402
from pyrstereo import MatchConfig, baseline_bm, run_pipeline  # noqa: E402
from pyrstereo.zncc import SIGN_PAPER_PLUS  # noqa: E402

DEFAULT_RUNS = ("375x450x64:103", "375x450x64:104", "88x128x12:5", "88x128x12:6",
                "375x450x64:103:paper", "88x128x12:5:paper")
DEFAULT_LEVELS = ("auto", "0", "1")


def fingerprint(run: str, levels: str) -> dict:
    """The hashed maps and the per-level counts of one run, and the hashed baseline maps."""
    size, seed, *sign = run.split(":")
    height, width, d_max = (int(v) for v in size.split("x"))
    scene = scenes.make_scene(scenes.scene_seeds(int(seed), 1)[0], height, width, d_max)
    config = MatchConfig(d_max=d_max, levels=None if levels == "auto" else int(levels),
                         sign=sign[0] if sign else MatchConfig.sign)
    left, right = scene.left, scene.right
    if config.sign == SIGN_PAPER_PLUS:  # mirrored, a left pixel's match is at j + d
        left, right = left[:, ::-1], right[:, ::-1]
    disparity, cost, trace = run_pipeline(left, right, config)
    baseline = hashlib.sha256()
    for a in baseline_bm(left, right, d_max, config.block, sign=config.sign)[:2]:
        baseline.update(a.tobytes())
    return {"run": run, "levels": levels,
            "disparity_sha256": hashlib.sha256(disparity.tobytes()).hexdigest(),
            "cost_sha256": hashlib.sha256(cost.tobytes()).hexdigest(),
            "trace": [{k: v for k, v in lt.to_dict().items() if k != "seconds"}
                      for lt in trace.levels],
            "baseline_sha256": baseline.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--run", action="append", default=None,
                        help="HxWxD_MAX:SEED[:paper] of a scene (repeatable; default: "
                             + ", ".join(DEFAULT_RUNS) + ")")
    parser.add_argument("--levels", action="append", default=None,
                        help="pyramid halvings, or auto (repeatable; default: "
                             + ", ".join(DEFAULT_LEVELS) + ")")
    args = parser.parse_args(argv)
    for run in args.run or DEFAULT_RUNS:
        for levels in args.levels or DEFAULT_LEVELS:
            print(json.dumps(fingerprint(run, levels)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
