"""Stereo pyramids and the per-level search schedules.

Run as: python demos/02_pyramid_schedules.py
"""

import numpy as np

from pyrstereo import auto_levels, build_pyramid, gaussian_downsample, shifted_pair

rng = np.random.default_rng(3)

# ---------------------------------------------------------------------------
# Each pyramid level halves the previous one after binomial smoothing.
# Constants survive exactly (the kernel sums to one), and odd dimensions
# round up so no border pixel is dropped.

img = rng.random((37, 51))
half = gaussian_downsample(img)
print(f"downsample: {img.shape} -> {half.shape}")
print("constant image stays constant:",
      np.array_equal(gaussian_downsample(np.full((10, 10), 0.25)),
                     np.full((5, 5), 0.25)))

# ---------------------------------------------------------------------------
# A full stereo pyramid pairs the halved images with the search bound and
# block size each level should be matched with: both halve per level, the
# bound flooring at 1 and the block staying odd with a floor of 3.

left, right = shifted_pair(180, 240, 9, rng)
pyramid = build_pyramid(left, right, d_max=64, levels=3, base_block=11)
print("\nlevel   size        d_max  block")
for level in pyramid:
    h, w = level.shape
    print(f"  {level.index}    {h:4d}x{w:<4d}   {level.d_max:3d}    {level.block:3d}")

# ---------------------------------------------------------------------------
# When no depth is given, the deepest usable pyramid is chosen: the
# coarsest level must still span four blocks along its short side and keep
# a disparity range of at least 2.

print("\nautomatic depth for common shapes (d_max=64, block 11):")
for shape in [(375, 450), (750, 900), (1500, 1800), (48, 64)]:
    k = auto_levels(shape[1], shape[0], 64, 11)
    print(f"  {shape[0]:4d}x{shape[1]:<4d} -> K={k}")
