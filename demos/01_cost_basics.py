"""Matching-cost basics: ZNCC values, cost vectors and evaluation counting.

Run as: python demos/01_cost_basics.py
"""

import numpy as np

from pyrstereo import CostEngine, dsi_entry, shifted_pair, zncc

rng = np.random.default_rng(7)

# ---------------------------------------------------------------------------
# ZNCC between two blocks is a correlation in [-1, 1].  Matching a block
# against itself gives exactly 1; flipping the contrast gives -1; adding
# gain or offset changes nothing.  That invariance is why it tolerates
# exposure differences between the two cameras.

img = rng.random((15, 15))
center = (7, 7)
print("self correlation:        ", zncc(img, img, center, center, half=3))
print("gain 2.5 + offset 0.3:   ", zncc(img, 2.5 * img + 0.3, center, center, half=3))
print("contrast flipped:        ", zncc(img, -img, center, center, half=3))

# Untextured blocks carry no matching information; their deviation is below
# the degeneracy epsilon and the cost pins to the floor value -1.
flat = np.full((15, 15), 0.5)
print("flat block vs texture:   ", zncc(flat, img, center, center, half=3))

# ---------------------------------------------------------------------------
# A cost engine evaluates these correlations between a left pixel and the
# right-image pixel shifted by a candidate disparity.  On a synthetic pair
# where right[i, j] == left[i, j + 4], the cost vector of an interior pixel
# peaks at exactly 4.

left, right = shifted_pair(32, 48, 4, rng, cutoff=0.1)
engine = CostEngine(left, right, block=5, d_max=8)
vector = engine.dsi_slice(16, 24).costs
print("\ncost vector at (16, 24):")
for z, value in enumerate(vector):
    marker = "  <-- planted shift" if z == 4 else ""
    print(f"  z={z}: {value:+.4f}{marker}")

# Single entries work too, and every evaluation is counted: the counter is
# the currency all complexity claims are audited in.
before = engine.counter.count
dsi_entry(engine, 16, 24, 4)
print("\nevaluations so far:", engine.counter.count, f"(+{engine.counter.count - before} for the single entry)")
