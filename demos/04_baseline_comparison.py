"""Hierarchical matching versus single-level full search: accuracy and effort.

Run as: python demos/04_baseline_comparison.py
"""

import time

import numpy as np

from pyrstereo import (
    MatchConfig,
    baseline_bm,
    evaluate,
    interior_mask,
    run_pipeline,
    shifted_pair,
)

rng = np.random.default_rng(23)
height, width, shift = 96, 128, 6
left, right = shifted_pair(height, width, shift, rng, cutoff=0.02)

# Reference disparities: the planted shift, unknown where the true match
# leaves the frame.
mask = interior_mask((height, width), shift, 11, extra=2)
gt = np.where(mask, float(shift), np.nan)

# ---------------------------------------------------------------------------
# The hierarchy.
t0 = time.perf_counter()
disparity, cost, trace = run_pipeline(left, right, MatchConfig(d_max=32, levels=2))
ours_seconds = time.perf_counter() - t0
ours = evaluate(disparity, gt)
ours.total_evals = trace.total_evals

# The single-level full search (no repairs, exact eval count).
t0 = time.perf_counter()
base_d, base_c, base_evals = baseline_bm(left, right, 32, 11)
base_seconds = time.perf_counter() - t0
base = evaluate(base_d, gt)
base.total_evals = base_evals

print(f"{'':24s} {'hierarchy':>12s} {'full search':>12s}")
print(f"{'bad-2.0 (%)':24s} {ours.bad_2:12.3f} {base.bad_2:12.3f}")
print(f"{'avg abs error (px)':24s} {ours.avg_abs_err:12.4f} {base.avg_abs_err:12.4f}")
print(f"{'cost evaluations':24s} {ours.total_evals:12d} {base.total_evals:12d}")
print(f"{'wall time (s)':24s} {ours_seconds:12.2f} {base_seconds:12.2f}")

print(f"\nevaluation ratio (hierarchy / full search): "
      f"{ours.total_evals / base.total_evals:.3f}")
print("metric deltas (negative favors the hierarchy):")
for key in ("bad_1", "bad_2", "bad_4", "avg_abs_err"):
    print(f"  {key}: {getattr(ours, key) - getattr(base, key):+.4f}")
