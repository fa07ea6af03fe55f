"""Matching-cost basics: ZNCC values, cost vectors and evaluation counting.

Run as: python demos/01_cost_basics.py
"""

import numpy as np

from pyrstereo import CostEngine, shifted_pair

rng = np.random.default_rng(7)

# ---------------------------------------------------------------------------
# ZNCC between two blocks is a correlation in [-1, 1].  Matching a block
# against itself gives exactly 1; flipping the contrast gives -1; adding
# gain or offset changes nothing.  That invariance is why it tolerates
# exposure differences between the two cameras.  A cost engine at d_max=0
# correlates each left block with the right block at the same place;
# plane(0) holds those costs for every pixel.

img = rng.random((15, 15))
center = (7, 7)


def same_place(left, right):
    return CostEngine(left, right, block=7, d_max=0).plane(0)[center]


print("self correlation:        ", same_place(img, img))
print("gain 2.5 + offset 0.3:   ", same_place(img, 2.5 * img + 0.3))
print("contrast flipped:        ", same_place(img, -img))

# Untextured blocks carry no matching information; their deviation is below
# the degeneracy epsilon and the cost pins to the floor value -1.
flat = np.full((15, 15), 0.5)
print("flat block vs texture:   ", same_place(flat, img))

# ---------------------------------------------------------------------------
# With d_max > 0 the engine correlates a left pixel with the right-image
# pixel shifted by each candidate disparity.  On a synthetic pair where
# right[i, j] == left[i, j + 4], the cost vector of an interior pixel peaks
# at exactly 4.

left, right = shifted_pair(32, 48, 4, rng, cutoff=0.1)
engine = CostEngine(left, right, block=5, d_max=8)
vector = engine.dsi_rows(np.array([16]), np.array([24]))[0]
print("\ncost vector at (16, 24):")
for z, value in enumerate(vector):
    marker = "  <-- planted shift" if z == 4 else ""
    print(f"  z={z}: {value:+.4f}{marker}")

# A window of one disparity gives a single entry, and every evaluation is
# counted: `engine.count` is the currency all complexity claims are audited in.
before = engine.count
engine.window(np.array([16]), np.array([24]), 4, 1)
print("\nevaluations so far:", engine.count, f"(+{engine.count - before} for the single entry)")
