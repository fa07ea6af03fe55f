"""Gaussian stereo pyramids and their per-level search schedules.

Each level halves the previous one (ceil division for odd sizes) after
smoothing with the separable 5-tap binomial kernel (1,4,6,4,1)/16 under
replicate borders.  Alongside the image pair every level carries the
disparity search bound and matching block size it should be searched with:
both halve per level, the bound flooring at 1 and the block rounding down
to the nearest odd size with a floor of 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .zncc import ConfigError, check_int, check_pair

__all__ = [
    "BINOMIAL_KERNEL",
    "PyramidLevel",
    "gaussian_downsample",
    "level_d_max",
    "level_block",
    "auto_levels",
    "build_pyramid",
]

BINOMIAL_KERNEL = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0


@dataclass(frozen=True)
class PyramidLevel:
    """One resolution level: the image pair plus its search parameters."""

    index: int
    left: np.ndarray
    right: np.ndarray
    d_max: int
    block: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.left.shape


def gaussian_downsample(img: np.ndarray) -> np.ndarray:
    """Smooth and decimate an image to half size.

    Output dimensions are ceil(input/2): decimation keeps the even source
    coordinates so the last row/column of odd inputs is never dropped.
    The image is extended by two replicated samples on every side once.
    Axis 0 is smoothed at the kept rows only, over all columns and the
    replicated ones; axis 1 then at the kept columns of those rows.  Each
    sample becomes x*K[2], plus the sum of its neighbours two apart times
    K[0], plus the sum of its neighbours one apart times K[1], added in
    that order (the order ``tests/oracles.py`` pins), so the result is the
    full smoothing decimated, bit for bit, as a contiguous array of its
    own.  Requires both dimensions to be at least 2.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2 or img.shape[0] < 2 or img.shape[1] < 2:
        raise ValueError(f"cannot downsample image of shape {img.shape}")
    h, w = img.shape
    k0, k1, k2 = BINOMIAL_KERNEL[:3]
    ext = np.empty((h + 4, w + 4))
    ext[2:h + 2, 2:w + 2] = img
    ext[2:h + 2, :2] = img[:, :1]
    ext[2:h + 2, w + 2:] = img[:, -1:]
    ext[:2] = ext[2]
    ext[h + 2:] = ext[h + 1]
    rows = ext[2:h + 2:2] * k2
    pair = ext[:h:2] + ext[4:h + 4:2]
    pair *= k0
    rows += pair
    np.add(ext[1:h + 1:2], ext[3:h + 3:2], out=pair)
    pair *= k1
    rows += pair
    del ext
    out = rows[:, 2:w + 2:2] * k2
    pair = pair[:, :out.shape[1]]
    np.add(rows[:, :w:2], rows[:, 4:w + 4:2], out=pair)
    pair *= k0
    out += pair
    np.add(rows[:, 1:w + 1:2], rows[:, 3:w + 3:2], out=pair)
    pair *= k1
    out += pair
    return out


def level_d_max(d_max: int, k: int) -> int:
    """Search bound at level k: floor(d_max / 2^k), never below 1."""
    return max(1, d_max >> k)


def level_block(base_block: int, k: int) -> int:
    """Block size at level k: halved per level, odd, never below 3."""
    b = base_block >> k
    if b % 2 == 0:
        b -= 1
    return max(b, 3)


def auto_levels(width: int, height: int, d_max: int, base_block: int) -> int:
    """Pick the deepest usable pyramid.

    Returns the largest K such that the coarsest level still spans at
    least four blocks along its short side and keeps a disparity range of
    at least 2; 0 when even one halving violates either constraint.
    """
    if min(width, height) <= 0 or d_max < 1 or base_block < 1:
        raise ValueError("width, height, d_max and base_block must be positive")
    k = 0
    while (
        min(width, height) / 2 ** (k + 1) >= 4 * base_block
        and d_max >> (k + 1) >= 2
    ):
        k += 1
    return k


def build_pyramid(left: np.ndarray, right: np.ndarray, d_max: int,
                  levels: int | None = None, base_block: int = 11,
                  ) -> tuple[PyramidLevel, ...]:
    """The levels of a rectified pair's pyramid, full resolution (0) first.

    ``levels`` is the number of halvings K (level 0 keeps the originals
    untouched); None selects K with :func:`auto_levels`.  An explicit K is
    rejected when the coarsest level would shrink below twice its block
    size or its disparity bound would fall below 2.  Images must be 2-D,
    of one shape and finite, since one NaN or inf would spread through
    every downsampled level.
    """
    left, right = check_pair(left, right)
    check_int("d_max", d_max, 1)
    check_int("base_block", base_block, 3, odd=True)

    height, width = left.shape
    if levels is None:
        levels = auto_levels(width, height, d_max, base_block)
    check_int("levels", levels, 0)

    if levels > 0:
        h, w = height, width
        for _ in range(levels):
            h, w = (h + 1) // 2, (w + 1) // 2
        if min(h, w) < 2 * level_block(base_block, levels):
            raise ConfigError(
                f"{levels} levels leave a {h}x{w} coarsest image, smaller than "
                f"twice its {level_block(base_block, levels)}-pixel block"
            )
        if d_max >> levels < 2:
            raise ConfigError(
                f"{levels} levels shrink the disparity range below 2 (d_max={d_max})"
            )

    built = [PyramidLevel(0, left, right, level_d_max(d_max, 0), level_block(base_block, 0))]
    cur_l, cur_r = left, right
    for k in range(1, levels + 1):
        cur_l = gaussian_downsample(cur_l)
        cur_r = gaussian_downsample(cur_r)
        built.append(PyramidLevel(k, cur_l, cur_r, level_d_max(d_max, k),
                                  level_block(base_block, k)))
    return tuple(built)
