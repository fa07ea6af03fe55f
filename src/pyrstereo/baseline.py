"""Single-level full-search block matcher: the reference the hierarchy is
measured against.

Every pixel is scored at every disparity in [0, d_max] by the cost
engine's planes (:func:`pyrstereo.matcher.match_coarsest`), so it
performs exactly width x height x (d_max + 1) evaluations and holds
O(width x height) memory whatever d_max is.  No repairs are applied to its
output.
"""

from __future__ import annotations

import numpy as np

from .matcher import match_coarsest
from .zncc import SIGN_MIDDLEBURY, CostEngine

__all__ = ["baseline_bm"]


def baseline_bm(left: np.ndarray, right: np.ndarray, d_max: int, block: int,
                sign: str = SIGN_MIDDLEBURY) -> tuple[np.ndarray, np.ndarray, int]:
    """Full-search disparity and cost maps plus the evaluation count.

    Per pixel, every disparity in [0, d_max] is scored with the engine's
    ZNCC definition (replicate-padded blocks, -1 for degenerate blocks or
    out-of-image right centers, clamped to [-1, 1]) and the smallest
    disparity among the largest computed costs wins.  Computed costs agree
    with direct summation to within roundoff, so disparities that tie
    exactly, as they often do on quantized images, resolve as
    :func:`~pyrstereo.matcher.match_coarsest` resolves them: the winner is
    the one roundoff puts ahead, not necessarily the smaller disparity.  In
    300 random pairs of 2-4 grey levels, 190 maps differ from a
    direct-summation loop in 777 pixels, all at such ties.
    """
    engine = CostEngine(left, right, block, d_max, sign=sign)
    disparity, cost = match_coarsest(engine)
    return disparity, cost, engine.count
