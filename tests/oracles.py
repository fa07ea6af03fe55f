"""Independent naive reference implementations used as test oracles.

Everything here is written as plain loops with extended-precision sums
(math.fsum), sharing no code with the package's optimized paths.  Slow on
purpose; correctness is the only goal.  Two exceptions:
``unbanded_selection`` checks the band pass's full search against a single
request and reuses the package's trusted selection to do so, and the
``ndimage_*`` oracles are the ``scipy.ndimage`` calls whose bits the
package's numpy filters reproduce, or, for ``ndimage_linear_upsample``,
whose values the cost upsample matches to rounding.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

from pyrstereo import matcher
from pyrstereo.pyramid import BINOMIAL_KERNEL

BINOMIAL_2D = np.outer([1, 4, 6, 4, 1], [1, 4, 6, 4, 1]) / 256.0


def clipped_patch(img, i, j, half):
    """Replicate-padded block around (i, j), by index clipping."""
    h, w = img.shape
    rows = [min(max(i + di, 0), h - 1) for di in range(-half, half + 1)]
    cols = [min(max(j + dj, 0), w - 1) for dj in range(-half, half + 1)]
    return np.array([[img[r, c] for c in cols] for r in rows])


def fsum_zncc(left_patch, right_patch, sigma_eps=1e-6):
    """Direct-summation ZNCC of two equal-size patches."""
    lp = np.asarray(left_patch, dtype=np.float64).ravel()
    rp = np.asarray(right_patch, dtype=np.float64).ravel()
    m = lp.size
    lmean = math.fsum(lp) / m
    rmean = math.fsum(rp) / m
    ldev = [v - lmean for v in lp]
    rdev = [v - rmean for v in rp]
    lss = math.fsum(v * v for v in ldev)
    rss = math.fsum(v * v for v in rdev)
    if math.sqrt(lss / m) < sigma_eps or math.sqrt(rss / m) < sigma_eps:
        return -1.0
    value = math.fsum(a * b for a, b in zip(ldev, rdev)) / math.sqrt(lss * rss)
    return min(1.0, max(-1.0, value))


def naive_cost(left, right, i, j, z, half, sigma_eps=1e-6, sign="middlebury"):
    """One (pixel, disparity) cost with the -1 out-of-range rule."""
    w = left.shape[1]
    col = j - z if sign == "middlebury" else j + z
    if col < 0 or col > w - 1:
        return -1.0
    return fsum_zncc(
        clipped_patch(left, i, j, half),
        clipped_patch(right, i, col, half),
        sigma_eps,
    )


def naive_dsi_vector(left, right, i, j, half, d_max, sigma_eps=1e-6,
                     sign="middlebury"):
    return np.array([
        naive_cost(left, right, i, j, z, half, sigma_eps, sign)
        for z in range(d_max + 1)
    ])


def naive_averaged_dsi(left, right, i, j, half, d_max, sigma_eps=1e-6):
    """Double-loop sum of neighbor cost vectors over the clipped 3x3."""
    h, w = left.shape
    total = np.zeros(d_max + 1)
    members = 0
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            m, n = i + di, j + dj
            if 0 <= m < h and 0 <= n < w:
                total += naive_dsi_vector(left, right, m, n, half, d_max, sigma_eps)
                members += 1
    return total, members


def naive_full_search(left, right, d_max, block, sigma_eps=1e-6, sign="middlebury"):
    """Quadruple-loop full search: the selection rule spelled out plainly."""
    h, w = left.shape
    half = block // 2
    disparity = np.zeros((h, w))
    cost = np.full((h, w), -1.0)
    for i in range(h):
        for j in range(w):
            best_c, best_z = -2.0, 0
            for z in range(d_max + 1):
                c = naive_cost(left, right, i, j, z, half, sigma_eps, sign)
                if c > best_c:
                    best_c, best_z = c, z
            disparity[i, j] = best_z
            cost[i, j] = best_c
    return disparity, cost


def loop_full_search(left: np.ndarray, right: np.ndarray, d_max: int, block: int,
                      sigma_eps: float = 1e-6, sign: str = "middlebury",
                      ) -> tuple[np.ndarray, np.ndarray, int]:
    """Loop-nest full search: disparity and cost maps plus the eval count.

    Block statistics are computed from scratch per block, sharing no
    machinery with the cost engine.  Per pixel, every disparity in
    [0, d_max] is scored with the same ZNCC definition as the engine
    (replicate-padded blocks, -1 for degenerate blocks or out-of-image
    right centers, clamped to [-1, 1]), keeping the smallest disparity on
    ties.  Counts exactly width x height x (d_max + 1) evaluations.
    """
    left = np.asarray(left, dtype=np.float64)
    right = np.asarray(right, dtype=np.float64)
    if left.ndim != 2 or left.shape != right.shape:
        raise ValueError(f"left/right shapes differ: {left.shape} vs {right.shape}")
    if block < 3 or block % 2 == 0:
        raise ValueError(f"block must be odd and >= 3, got {block}")
    if d_max < 0:
        raise ValueError(f"d_max must be >= 0, got {d_max}")
    if sign not in ("middlebury", "paper"):
        raise ValueError(f"unknown sign convention {sign!r}")

    height, width = left.shape
    half = block // 2
    area = block * block
    step = -1 if sign == "middlebury" else 1
    lpad = np.pad(left, half, mode="edge")
    rpad = np.pad(right, half, mode="edge")

    disparity = np.zeros((height, width))
    cost = np.full((height, width), -1.0)
    evals = 0

    for i in range(height):
        for j in range(width):
            lblock = lpad[i : i + block, j : j + block]
            lmean = lblock.mean()
            ldev = lblock - lmean
            lss = float((ldev * ldev).sum())
            left_ok = np.sqrt(lss / area) >= sigma_eps

            best_cost = -2.0
            best_z = 0
            for z in range(d_max + 1):
                evals += 1
                col = j + step * z
                if col < 0 or col > width - 1 or not left_ok:
                    c = -1.0
                else:
                    rblock = rpad[i : i + block, col : col + block]
                    rmean = rblock.mean()
                    rdev = rblock - rmean
                    rss = float((rdev * rdev).sum())
                    if np.sqrt(rss / area) < sigma_eps:
                        c = -1.0
                    else:
                        c = float((ldev * rdev).sum()) / np.sqrt(lss * rss)
                        c = min(1.0, max(-1.0, c))
                if c > best_cost:
                    best_cost = c
                    best_z = z
            disparity[i, j] = best_z
            cost[i, j] = best_cost

    return disparity, cost, evals


def naive_downsample(img):
    """Dense 5x5 binomial convolution (replicate borders), even decimation."""
    h, w = img.shape
    smoothed = np.zeros_like(img)
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for di in range(-2, 3):
                for dj in range(-2, 3):
                    r = min(max(i + di, 0), h - 1)
                    c = min(max(j + dj, 0), w - 1)
                    acc += BINOMIAL_2D[di + 2, dj + 2] * img[r, c]
            smoothed[i, j] = acc
    return smoothed[::2, ::2]


def naive_selective_median(disparity, cost, alpha):
    """Collect, filter and sort each 5x5 window explicitly."""
    h, w = disparity.shape
    out = disparity.copy()
    for i in range(h):
        for j in range(w):
            if cost[i, j] > alpha:
                continue
            pool = []
            for di in range(-2, 3):
                for dj in range(-2, 3):
                    m, n = i + di, j + dj
                    if 0 <= m < h and 0 <= n < w and cost[m, n] > alpha:
                        pool.append(disparity[m, n])
            if pool:
                pool.sort()
                out[i, j] = pool[(len(pool) - 1) // 2]
    return out


def naive_nn_double(coarse, target_shape):
    """Nearest-neighbor upsample with doubling, by direct index mapping."""
    h, w = target_shape
    out = np.empty((h, w))
    for i in range(h):
        for j in range(w):
            out[i, j] = 2.0 * coarse[i // 2, j // 2]
    return out


def naive_metrics(disparity, gt_values, gt_invalid, scale=1.0, taus=(1.0, 2.0, 4.0)):
    """Per-pixel counting of bad-tau rates and mean absolute error."""
    h, w = disparity.shape
    bad = {tau: 0 for tau in taus}
    total_err = 0.0
    evaluated = 0
    n_gt_invalid = 0
    n_out_invalid = 0
    for i in range(h):
        for j in range(w):
            out_bad = not math.isfinite(disparity[i, j])
            if out_bad:
                n_out_invalid += 1
            if gt_invalid[i, j]:
                n_gt_invalid += 1
            if out_bad or gt_invalid[i, j]:
                continue
            err = abs(disparity[i, j] * scale - gt_values[i, j])
            evaluated += 1
            total_err += err
            for tau in taus:
                if err > tau:
                    bad[tau] += 1
    rates = {tau: (100.0 * bad[tau] / evaluated if evaluated else 0.0) for tau in taus}
    avg = total_err / evaluated if evaluated else 0.0
    return rates, avg, evaluated, n_gt_invalid, n_out_invalid


def unbanded_selection(engine, d_hat, c_hat, beta):
    """Prior-guided selection with the full search in one request, not in bands.

    The trusted pixels are selected by the package's own trusted selection,
    on copies of the prior, which it consumes; every other pixel then takes
    the first maximum of its full cost vector, all of them from one
    ``dsi_rows`` call.  Returns the maps and the selection's counts, with
    ``selection_evals`` the entries the engine computed here.
    """
    before = engine.count
    disparity, cost, trusted, counts = matcher._select_trusted(engine, d_hat.copy(),
                                                               c_hat.copy(), beta)
    fi, fj = np.nonzero(~trusted)
    vectors = engine.dsi_rows(fi, fj)
    best = np.argmax(vectors, axis=1)
    disparity[fi, fj] = best
    cost[fi, fj] = vectors[np.arange(fi.shape[0]), best]
    return disparity, cost, {**counts, "selection_evals": engine.count - before}


def ndimage_box_mean(img, block):
    """Block means under replicate borders: the box filter of ``CostEngine``'s statistics."""
    return ndimage.uniform_filter(img, size=block, mode="nearest")


def ndimage_binomial(img):
    """Separable binomial smoothing under replicate borders, axis 0 first."""
    out = ndimage.correlate1d(img, BINOMIAL_KERNEL, axis=0, mode="nearest")
    return ndimage.correlate1d(out, BINOMIAL_KERNEL, axis=1, mode="nearest")


def ndimage_linear_upsample(c_coarse, target_shape):
    """Bilinear zoom onto the target's pixel centres, edge samples repeated outside."""
    (h, w), (ch, cw) = target_shape, c_coarse.shape
    return ndimage.zoom(c_coarse, (h / ch, w / cw), order=1, mode="nearest", grid_mode=True)


def ndimage_dilate3(mask):
    """A boolean mask grown by its 3x3 neighbourhood, False outside the mask."""
    return ndimage.binary_dilation(mask, np.ones((3, 3)))
