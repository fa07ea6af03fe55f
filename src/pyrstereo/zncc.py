"""Zero-mean normalized cross-correlation costs over a stereo level.

The matching cost between the block around a left pixel and the block
around a horizontally shifted right pixel is

    cost = sum((L - mean(L)) * (R - mean(R))) / (m * sigma_L * sigma_R)

over an odd (2n+1)x(2n+1) block of m pixels, where sigma is the root mean
squared deviation of the block.  The value lives in [-1, 1] and is clamped
there after roundoff.  Blocks always have full size thanks to replicate
padding; three situations yield the floor cost of -1 instead of a
correlation: a degenerate left block (sigma below ``sigma_eps``), a
degenerate right block, or a right-block center that falls outside the
image for the requested disparity.

:class:`CostEngine` evaluates these costs for a whole level.  It keeps a
running count of every (pixel, disparity) entry it computes in a
thread-safe :class:`EvalCounter`; the counts are the basis of all
complexity accounting downstream.  It has three evaluation paths:

- box-sum planes (``plane``, ``full_volume``): every pixel at one
  disparity, O(1) per pixel per disparity; a full search can take them
  one at a time and hold O(H*W) memory instead of the whole volume;
- row-shared full vectors (``dsi_rows``): a sparse pixel set at every
  disparity; each distinct block row is correlated once across all
  disparities and shared by the vertically adjacent pixels that need it;
- gathered triples (``at``): arbitrary (pixel, disparity) entries, each a
  direct product of its two blocks.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import uniform_filter

__all__ = [
    "SIGN_MIDDLEBURY",
    "SIGN_PAPER_PLUS",
    "PatchStats",
    "DsiSlice",
    "EvalCounter",
    "CostEngine",
    "patch_stats",
    "zncc",
    "dsi_entry",
]

# Matching direction for rectified pairs: a left-image feature sits at a
# smaller column in the right image, so the right center is (i, j - z).
SIGN_MIDDLEBURY = "middlebury"
# Literal (i, j + z) form, selectable for pairs rectified the other way.
SIGN_PAPER_PLUS = "paper"

_GATHER_CHUNK = 4096


@dataclass(frozen=True)
class PatchStats:
    """Mean and RMS deviation of one matching block."""

    mean: float
    sigma: float


@dataclass
class DsiSlice:
    """Costs of one pixel across candidate disparities."""

    pixel: tuple[int, int]
    costs: np.ndarray


class EvalCounter:
    """Exact, thread-safe tally of cost evaluations."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._count = 0

    def add(self, n: int) -> None:
        with self._lock:
            self._count += int(n)

    @property
    def count(self) -> int:
        return self._count

    def reset(self) -> None:
        with self._lock:
            self._count = 0


def _clipped_patch(img: np.ndarray, i: int, j: int, half: int) -> np.ndarray:
    """Full-size block around (i, j) under replicate padding."""
    h, w = img.shape
    if not (0 <= i < h and 0 <= j < w):
        raise ValueError(f"center ({i}, {j}) outside {h}x{w} image")
    rows = np.clip(np.arange(i - half, i + half + 1), 0, h - 1)
    cols = np.clip(np.arange(j - half, j + half + 1), 0, w - 1)
    return img[np.ix_(rows, cols)]


def patch_stats(img: np.ndarray, center: tuple[int, int], half: int) -> PatchStats:
    """Mean and RMS deviation of the block around ``center``."""
    patch = _clipped_patch(np.asarray(img, dtype=np.float64), center[0], center[1], half)
    mean = float(patch.mean())
    dev = patch - mean
    return PatchStats(mean=mean, sigma=float(np.sqrt((dev * dev).mean())))


def zncc(left: np.ndarray, right: np.ndarray, center_l: tuple[int, int],
         center_r: tuple[int, int], half: int, sigma_eps: float = 1e-6) -> float:
    """Correlate the blocks around two pixel centers.

    Returns a value in [-1, 1]; either block being degenerate (RMS
    deviation below ``sigma_eps``) yields -1.  Centers outside their image
    raise ValueError.
    """
    lp = _clipped_patch(np.asarray(left, dtype=np.float64), center_l[0], center_l[1], half)
    rp = _clipped_patch(np.asarray(right, dtype=np.float64), center_r[0], center_r[1], half)
    m = lp.size
    ld = lp - lp.mean()
    rd = rp - rp.mean()
    lss = float((ld * ld).sum())
    rss = float((rd * rd).sum())
    if np.sqrt(lss / m) < sigma_eps or np.sqrt(rss / m) < sigma_eps:
        return -1.0
    value = float((ld * rd).sum()) / np.sqrt(lss * rss)
    return float(min(1.0, max(-1.0, value)))


class CostEngine:
    """Disparity-cost evaluator for one pyramid level.

    Block means and deviations are precomputed once per image with box
    filters under replicate borders, so the three evaluation paths (box-sum
    planes, row-shared full vectors and gathered triples) share the same
    statistics and degeneracy decisions; they differ only in the order in
    which the cross sums are added.
    """

    def __init__(self, left: np.ndarray, right: np.ndarray, block: int, d_max: int,
                 sigma_eps: float = 1e-6, sign: str = SIGN_MIDDLEBURY,
                 counter: EvalCounter | None = None) -> None:
        left = np.ascontiguousarray(left, dtype=np.float64)
        right = np.ascontiguousarray(right, dtype=np.float64)
        for img in (left, right):
            if img.ndim != 2:
                raise ValueError(f"expected 2-D grayscale arrays, got shape {img.shape}")
            if not np.isfinite(img).all():
                raise ValueError("images contain non-finite values (NaN or inf)")
        if left.shape != right.shape:
            raise ValueError(f"left/right shapes differ: {left.shape} vs {right.shape}")
        if block < 3 or block % 2 == 0:
            raise ValueError(f"block must be odd and >= 3, got {block}")
        if d_max < 0:
            raise ValueError(f"d_max must be >= 0, got {d_max}")
        if sign not in (SIGN_MIDDLEBURY, SIGN_PAPER_PLUS):
            raise ValueError(f"unknown sign convention {sign!r}")

        self.height, self.width = left.shape
        self.block = block
        self.half = block // 2
        self.area = block * block
        self.d_max = int(d_max)
        self.sigma_eps = float(sigma_eps)
        self.sign = sign
        self.counter = counter if counter is not None else EvalCounter()

        self._lp = np.pad(left, self.half, mode="edge")
        self._rp = np.pad(right, self.half, mode="edge")
        self._lwin = sliding_window_view(self._lp, (block, block))
        self._rwin = sliding_window_view(self._rp, (block, block))

        self.mean_l, self.sigma_l = self._stats(left)
        self.mean_r, self.sigma_r = self._stats(right)
        self._ok_l = self.sigma_l >= self.sigma_eps
        self._ok_r = self.sigma_r >= self.sigma_eps

        # Full vectors read the right side along disparity as windows: the
        # window starting at column j covers right columns j-d_max..j+block-1
        # of the padded image (j..j+d_max+block-1 for the paper sign).  The
        # right arrays gain d_max zero columns on both sides so every window
        # stays in bounds; the added columns are degenerate, which applies
        # the out-of-range rule.
        d = self.d_max
        side = ((0, 0), (d, d))
        self._lrows = sliding_window_view(self._lp, block, axis=1)
        self._rsegs = sliding_window_view(np.pad(self._rp, side), d + block, axis=1)
        self._mean_rz, self._sigma_rz, self._ok_rz = (
            sliding_window_view(np.pad(a, side), d + 1, axis=1)
            for a in (self.mean_r, self.sigma_r, self._ok_r)
        )
        self._zstart = 0 if sign == SIGN_MIDDLEBURY else d

    def _stats(self, img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mean = uniform_filter(img, size=self.block, mode="nearest")
        mean_sq = uniform_filter(img * img, size=self.block, mode="nearest")
        var = np.maximum(mean_sq - mean * mean, 0.0)
        return mean, np.sqrt(var)

    def _right_cols(self, j: np.ndarray | int, z: np.ndarray | int):
        if self.sign == SIGN_MIDDLEBURY:
            return j - z
        return j + z

    def _check_z(self, z: int) -> int:
        z = int(z)
        if not 0 <= z <= self.d_max:
            raise ValueError(f"disparity {z} outside [0, {self.d_max}]")
        return z

    def plane(self, z: int) -> np.ndarray:
        """Costs of every pixel at one disparity, via box sums."""
        z = self._check_z(z)
        h, w, b = self.height, self.width, self.block
        lp, rp = self._lp, self._rp

        # Cross sums over matching blocks: multiply the padded images at
        # the z-column offset, then take valid-mode box sums. Columns that
        # never feed an in-range center are left at zero.
        prod = np.zeros_like(lp)
        if z == 0:
            np.multiply(lp, rp, out=prod)
        elif self.sign == SIGN_MIDDLEBURY:
            np.multiply(lp[:, z:], rp[:, :-z], out=prod[:, z:])
        else:
            np.multiply(lp[:, :-z], rp[:, z:], out=prod[:, :-z])
        cross = _valid_box_sum(prod, b)

        cols = self._right_cols(np.arange(w), z)
        in_range = (cols >= 0) & (cols <= w - 1)
        safe = np.clip(cols, 0, w - 1)
        mean_r = self.mean_r[:, safe]
        sigma_r = self.sigma_r[:, safe]
        ok = self._ok_l & self._ok_r[:, safe] & in_range[np.newaxis, :]

        cov = cross / self.area - self.mean_l * mean_r
        denom = np.where(ok, self.sigma_l * sigma_r, 1.0)
        cost = np.where(ok, np.clip(cov / denom, -1.0, 1.0), -1.0)
        self.counter.add(h * w)
        return cost

    def full_volume(self) -> np.ndarray:
        """All planes stacked as (d_max+1, H, W)."""
        volume = np.empty((self.d_max + 1, self.height, self.width))
        for z in range(self.d_max + 1):
            volume[z] = self.plane(z)
        return volume

    def at(self, rows: np.ndarray, cols: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Costs of arbitrary (pixel, disparity) triples.

        All three arrays share a shape; each entry counts as one
        evaluation, including out-of-range ones that return -1.
        """
        rows = np.asarray(rows, dtype=np.intp).ravel()
        cols = np.asarray(cols, dtype=np.intp).ravel()
        z = np.asarray(z, dtype=np.intp).ravel()
        if not (rows.shape == cols.shape == z.shape):
            raise ValueError("rows, cols and z must have identical shapes")
        if z.size and (z.min() < 0 or z.max() > self.d_max):
            raise ValueError(f"disparities outside [0, {self.d_max}]")

        out = np.empty(rows.shape[0])
        for start in range(0, rows.shape[0], _GATHER_CHUNK):
            sl = slice(start, start + _GATHER_CHUNK)
            out[sl] = self._gather(rows[sl], cols[sl], z[sl])
        self.counter.add(rows.shape[0])
        return out

    def _gather(self, rows, cols, z):
        w = self.width
        rcols = self._right_cols(cols, z)
        in_range = (rcols >= 0) & (rcols <= w - 1)
        safe = np.clip(rcols, 0, w - 1)

        lpat = self._lwin[rows, cols]
        rpat = self._rwin[rows, safe]
        cross = np.einsum("spq,spq->s", lpat, rpat)

        mean_r = self.mean_r[rows, safe]
        sigma_r = self.sigma_r[rows, safe]
        ok = self._ok_l[rows, cols] & self._ok_r[rows, safe] & in_range
        cov = cross / self.area - self.mean_l[rows, cols] * mean_r
        denom = np.where(ok, self.sigma_l[rows, cols] * sigma_r, 1.0)
        return np.where(ok, np.clip(cov / denom, -1.0, 1.0), -1.0)

    def dsi_rows(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Full cost vectors for a sparse pixel set, shape (S, d_max+1).

        Block row p of pixel (i, j) is padded row i+p at column j, so
        vertically adjacent pixels share block-1 of their block rows.  Pixels
        are taken in row-major order a chunk at a time; each distinct block
        row of a chunk is correlated once at every disparity, and a pixel's
        cross sums add its block rows in order.  Each entry is computed by
        the same operations whatever else is requested with it.
        """
        rows = np.asarray(rows, dtype=np.intp).ravel()
        cols = np.asarray(cols, dtype=np.intp).ravel()
        if rows.shape != cols.shape:
            raise ValueError("rows and cols must have identical shapes")
        out = np.empty((rows.shape[0], self.d_max + 1))
        order = np.lexsort((cols, rows))
        for start in range(0, order.shape[0], _GATHER_CHUNK):
            sel = order[start:start + _GATHER_CHUNK]
            out[sel] = self._shared_rows(rows[sel], cols[sel])
        self.counter.add(rows.shape[0] * (self.d_max + 1))
        return out

    def _shared_rows(self, rows, cols):
        b = self.block
        width = self._lp.shape[1]
        keys = (rows[:, np.newaxis] + np.arange(b)) * width + cols[:, np.newaxis]
        uniq, inverse = np.unique(keys, return_inverse=True)
        corr = self._block_row_corr(*np.divmod(uniq, width))
        inverse = inverse.reshape(keys.shape)
        cross = corr[inverse[:, 0]]
        for p in range(1, b):
            cross += corr[inverse[:, p]]
        del corr  # before the statistics' temporaries

        # The masking and the arithmetic of _gather, in place on cross.
        at = (rows, cols + self._zstart)
        ok = self._ok_l[rows, cols][:, np.newaxis] & self._ok_rz[at]
        cross /= self.area
        cross -= self.mean_l[rows, cols][:, np.newaxis] * self._mean_rz[at]
        cross /= np.where(ok, self.sigma_l[rows, cols][:, np.newaxis] * self._sigma_rz[at], 1.0)
        np.clip(cross, -1.0, 1.0, out=cross)
        cross[~ok] = -1.0
        return cross[:, ::-1] if self.sign == SIGN_MIDDLEBURY else cross

    def _block_row_corr(self, r, c):
        """1-D correlations of padded rows r at columns c, shape (U, d_max+1).

        Index k is disparity d_max-k under the Middlebury sign and disparity
        k under the paper sign.  The products run over (disparity, row)
        planes so each one is a single contiguous pass.
        """
        nz = self.d_max + 1
        lrow = np.ascontiguousarray(self._lrows[r, c].T)
        seg = np.ascontiguousarray(self._rsegs[r, c + self._zstart].T)
        corr = np.zeros((nz, r.shape[0]))
        term = np.empty_like(corr)
        for q in range(self.block):
            np.multiply(seg[q:q + nz], lrow[q], out=term)
            corr += term
        del seg, term
        return np.ascontiguousarray(corr.T)

    def dsi_slice(self, i: int, j: int) -> DsiSlice:
        """Cost vector of one pixel across all candidate disparities."""
        costs = self.dsi_rows(np.array([i]), np.array([j]))[0]
        return DsiSlice(pixel=(int(i), int(j)), costs=costs)


def _valid_box_sum(arr: np.ndarray, size: int) -> np.ndarray:
    """Box sums of every fully contained size x size window."""
    integral = np.zeros((arr.shape[0] + 1, arr.shape[1] + 1))
    integral[1:, 1:] = arr.cumsum(axis=0).cumsum(axis=1)
    return (
        integral[size:, size:]
        - integral[:-size, size:]
        - integral[size:, :-size]
        + integral[:-size, :-size]
    )


def dsi_entry(engine: CostEngine, i: int, j: int, z: int) -> float:
    """Cost of one pixel at one candidate disparity.

    Raises ValueError when z is outside [0, d_max]; a right-block center
    that leaves the image returns the floor cost -1 instead.
    """
    z = engine._check_z(z)
    return float(engine.at(np.array([i]), np.array([j]), np.array([z]))[0])
