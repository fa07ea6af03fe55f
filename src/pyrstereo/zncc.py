"""Zero-mean normalized cross-correlation costs over a stereo level.

The matching cost between the block around a left pixel and the block
around a horizontally shifted right pixel is

    cost = sum((L - mean(L)) * (R - mean(R))) / (m * sigma_L * sigma_R)

over an odd (2n+1)x(2n+1) block of m pixels, where sigma is the root mean
squared deviation of the block.  The value lives in [-1, 1] and is clamped
there after roundoff.  Blocks always have full size thanks to replicate
padding; three situations yield the floor cost of -1 instead of a
correlation: a degenerate left block (sigma below ``SIGMA_EPS``), a
degenerate right block, or a right-block center that falls outside the
image for the requested disparity.

:class:`CostEngine` evaluates these costs for one level of one run, in one
thread.  It adds every (pixel, disparity) entry it computes to the integer
``count``, the basis of all complexity accounting downstream.  It has two
evaluation paths, and both read one right image zero-padded by d_max+2
columns on each side, so the padding alone applies the out-of-range rule:

- planes (``plane``): every pixel at one disparity, a band of rows at a
  time; a full search can take them one at a time and hold O(H*W)
  memory instead of the whole volume.  The matcher's band pass takes the
  planes of one band of rows through the same routine;
- the window kernel (``window``): a sparse pixel set, each pixel at its
  own run of consecutive disparities; each distinct block row is
  correlated once across the run and shared by the vertically adjacent
  pixels that need it.  Full vectors (``dsi_rows``) are windows of
  d_max+1 disparities.

There is one summation order: a block's products are added along each
block row in column order, then the block rows in row order, and one
routine turns the sums into costs.  ``plane(z)[i, j]``,
``window([i], [j], z, 1)`` and the ``dsi_rows`` entry are therefore the
same bits.  Both images are first centred by one shared offset, the
mean of their two means, which ZNCC ignores; the sums then keep the
block deviations of bright, low-contrast images instead of cancelling
them, and no sum spans more than one block, so roundoff does not grow
with image size.
"""

from __future__ import annotations

import numbers

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import uniform_filter

__all__ = ["SIGMA_EPS", "SIGN_MIDDLEBURY", "SIGN_PAPER_PLUS", "CostEngine"]

# Matching direction for rectified pairs: a left-image feature sits at a
# smaller column in the right image, so the right center is (i, j - z).
SIGN_MIDDLEBURY = "middlebury"
# Literal (i, j + z) form, selectable for pairs rectified the other way.
SIGN_PAPER_PLUS = "paper"

# Blocks whose deviation falls below this are degenerate and cost -1.
SIGMA_EPS = 1e-6

# Cost entries per pass of the window kernel (pixels times window
# length); bounds its scratch memory and keeps each pass in cache.
_GATHER_CHUNK = 16384
# How far a window may reach past [0, d_max] on either side: a
# three-candidate window centred one step outside the range.
_REACH = 2
# Output entries per band of a plane (rows times width); bounds its
# scratch memory to a few bands instead of a few planes.
_PLANE_BAND = 65536


def check_pair(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both images as contiguous float64 arrays.

    Raises ValueError unless both are real, 2-D, non-empty, of one shape
    and finite.
    """
    if np.iscomplexobj(left) or np.iscomplexobj(right):
        raise ValueError("images are complex; expected real grayscale values")
    left = np.ascontiguousarray(left, dtype=np.float64)
    right = np.ascontiguousarray(right, dtype=np.float64)
    for img in (left, right):
        if img.ndim != 2:
            raise ValueError(f"expected 2-D grayscale arrays, got shape {img.shape}")
        if img.size == 0:
            raise ValueError(f"images have no pixels: shape {img.shape}")
        if not np.isfinite(img).all():
            raise ValueError("images contain non-finite values (NaN or inf)")
    if left.shape != right.shape:
        raise ValueError(f"left/right shapes differ: {left.shape} vs {right.shape}")
    return left, right


class CostEngine:
    """Disparity-cost evaluator for one pyramid level.

    Both images are centred by one shared offset, then block means and
    deviations are precomputed once per image with box filters under
    replicate borders.  The right image and its statistics are zero-padded
    once by d_max+2 columns on each side, and both evaluation paths (planes
    and the row-shared window kernel) read column slices of these padded
    arrays: the padded columns are degenerate, so a right block outside the
    image costs -1 on either path without a separate check.  The paths
    share statistics, degeneracy decisions, the order of the cross sums and
    the normalization, so they return the same bits for the same entry.
    """

    def __init__(self, left: np.ndarray, right: np.ndarray, block: int, d_max: int,
                 sign: str = SIGN_MIDDLEBURY) -> None:
        left, right = check_pair(left, right)
        if not isinstance(block, numbers.Integral) or block < 3 or block % 2 == 0:
            raise ValueError(f"block must be an odd integer >= 3, got {block!r}")
        if not isinstance(d_max, numbers.Integral) or d_max < 0:
            raise ValueError(f"d_max must be an integer >= 0, got {d_max!r}")
        if sign not in (SIGN_MIDDLEBURY, SIGN_PAPER_PLUS):
            raise ValueError(f"unknown sign convention {sign!r}")
        # ZNCC ignores a shared offset; without it, bright images lose the
        # deviations to cancellation in the sums of squares and products.
        offset = (left.mean() + right.mean()) / 2
        left, right = left - offset, right - offset

        self.height, self.width = left.shape
        self.block = block
        self.half = block // 2
        self.area = block * block
        self.d_max = int(d_max)
        self.sign = sign
        self.count = 0  # entries computed so far

        self._lp = np.pad(left, self.half, mode="edge")
        self._lrows = sliding_window_view(self._lp, block, axis=1)
        self.mean_l, self.sigma_l = self._stats(left)
        self._ok_l = self.sigma_l >= SIGMA_EPS

        # The right image and its statistics carry d_max+_REACH zero columns
        # on both sides, so a window at any legal disparity reads in bounds;
        # the added columns are degenerate, which applies the out-of-range
        # rule.
        pad = self._pad = self.d_max + _REACH
        side = ((0, 0), (pad, pad))
        mean_r, sigma_r = self._stats(right)
        self._rpz = np.pad(np.pad(right, self.half, mode="edge"), side)
        self._mean_rz = np.pad(mean_r, side)
        self._sigma_rz = np.pad(sigma_r, side)
        self._ok_rz = np.pad(sigma_r >= SIGMA_EPS, side)

    def _stats(self, img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mean = uniform_filter(img, size=self.block, mode="nearest")
        mean_sq = uniform_filter(img * img, size=self.block, mode="nearest")
        var = np.maximum(mean_sq - mean * mean, 0.0)
        return mean, np.sqrt(var)

    def _right_start(self, z0, nz: int = 1):
        """Padded right column of column 0's window at z0..z0+nz-1.

        Index k of the window is disparity z0+nz-1-k under the Middlebury
        sign and z0+k under the paper sign.
        """
        if self.sign == SIGN_MIDDLEBURY:
            return self._pad - z0 - (nz - 1)
        return self._pad + z0

    def plane(self, z: int) -> np.ndarray:
        """Costs of every pixel at one disparity, a band of rows at a time.

        Each entry adds the centred images' block products in the one order
        the window kernel uses, along each block row and then over the
        rows, so ``plane(z)[i, j]`` has the same bits as
        ``window([i], [j], z, 1)``.
        """
        z = int(z)
        if not 0 <= z <= self.d_max:
            raise ValueError(f"disparity {z} outside [0, {self.d_max}]")
        return self._rows(z, 0, self.height, np.empty((self.height, self.width)))

    def _rows(self, z: int, top: int, bottom: int, cost: np.ndarray) -> np.ndarray:
        """Plane ``z`` over rows top..bottom-1 into ``cost``, a band at a time."""
        w, b = self.width, self.block
        s = self._right_start(z)
        band = max(1, _PLANE_BAND // w)
        for i0 in range(top, bottom, band):
            n = min(band, bottom - i0)
            # Products of the padded images at the z-column offset, summed
            # along each block row (b column shifts, in order t) and then
            # over the block (b row shifts, in order p).
            rows = np.s_[i0:i0 + n + b - 1]
            prod = self._lp[rows] * self._rpz[rows, s:s + w + b - 1]
            rsum = prod[:, :w].copy()
            for t in range(1, b):
                rsum += prod[:, t:t + w]
            del prod
            cross = cost[i0 - top:i0 - top + n]
            np.copyto(cross, rsum[:n])
            for p in range(1, b):
                cross += rsum[p:p + n]
            del rsum
            left, right = np.s_[i0:i0 + n], np.s_[i0:i0 + n, s:s + w]
            self._normalize(cross, self._ok_l[left] & self._ok_rz[right],
                            self.mean_l[left], self._mean_rz[right],
                            self.sigma_l[left], self._sigma_rz[right])
        self.count += (bottom - top) * w
        return cost

    def window(self, rows: np.ndarray, cols: np.ndarray, z0, nz: int) -> np.ndarray:
        """Costs of each pixel at disparities z0..z0+nz-1, shape (S, nz).

        ``z0`` is one start per pixel, or one for all.  A window may reach
        up to two disparities past [0, d_max] on either side; entries there
        follow the same cost rule but are not counted, so the count grows
        by the number of entries inside [0, d_max].

        Block row p of pixel (i, j) is padded row i+p at column j.  Pixels
        are sorted by (column, z0, row) and taken a chunk at a time; a pixel
        shares the block rows that the previous pixel of its (column, z0)
        run already has, so each distinct block row is correlated once over
        the window.  A pixel's cross sums add its block rows in order p, so
        each entry is computed by the same operations whatever else is
        requested with it.
        """
        rows = np.asarray(rows, dtype=np.intp).ravel()
        cols = np.asarray(cols, dtype=np.intp).ravel()
        if rows.shape != cols.shape:
            raise ValueError("rows and cols must have identical shapes")
        z0 = np.asarray(z0, dtype=np.intp)
        z0 = np.broadcast_to(z0, rows.shape) if z0.ndim == 0 else z0.ravel()
        if z0.shape != rows.shape:
            raise ValueError("z0 must be a scalar or have one entry per pixel")
        nz = int(nz)
        if nz < 1:
            raise ValueError(f"window length must be >= 1, got {nz}")
        if z0.size and (z0.min() < -_REACH or z0.max() + nz - 1 > self.d_max + _REACH):
            raise ValueError(f"window reaches beyond [{-_REACH}, {self.d_max + _REACH}]")

        # The right image and statistics as windows: [i, s] holds row i
        # from padded column s on.
        right = tuple(sliding_window_view(a, n, axis=1) for a, n in (
            (self._rpz, nz + self.block - 1),
            (self._ok_rz, nz), (self._mean_rz, nz), (self._sigma_rz, nz)))
        out = np.empty((rows.shape[0], nz))
        order = np.lexsort((rows, z0, cols))
        chunk = max(1, _GATHER_CHUNK // nz)
        for start in range(0, order.shape[0], chunk):
            sel = order[start:start + chunk]
            out[sel] = self._window_chunk(rows[sel], cols[sel], z0[sel], nz, right)
        legal = np.minimum(z0 + nz - 1, self.d_max) - np.maximum(z0, 0) + 1
        self.count += int(np.maximum(legal, 0).sum())
        return out

    def _window_chunk(self, rows, cols, z0, nz, right):
        b = self.block
        segs, ok_r, mean_r, sigma_r = right
        # Block rows a pixel adds to the distinct ones: all b at the start
        # of a (column, z0) run, else those below the previous pixel's.
        new = np.full(rows.shape[0], b)
        run = (cols[1:] == cols[:-1]) & (z0[1:] == z0[:-1])
        np.minimum(rows[1:] - rows[:-1], b, out=new[1:], where=run)
        # A pixel's b block rows are consecutive distinct rows from first.
        ends = np.cumsum(new)
        first = ends - b
        owner = np.repeat(np.arange(rows.shape[0]), new)
        q = rows[owner] + np.arange(ends[-1]) - first[owner]

        # Right windows start at padded column s.
        s = cols + self._right_start(z0, nz)

        # Correlate each distinct block row over the window: index k against
        # right segment entries k..k+b-1, added in order t.  The products
        # run over (k, row) planes so each one is a single contiguous pass.
        lrow = np.ascontiguousarray(self._lrows[q, cols[owner]].T)
        seg = np.ascontiguousarray(segs[q, s[owner]].T)
        del q, owner
        corr = seg[:nz] * lrow[0]
        term = np.empty_like(corr)
        for t in range(1, b):
            np.multiply(seg[t:t + nz], lrow[t], out=term)
            corr += term
        del seg, term
        corr = np.ascontiguousarray(corr.T)

        # A pixel adds its b block rows in order p.
        cross = corr[first]
        for p in range(1, b):
            cross += corr[first + p]
        del corr  # before the statistics' temporaries

        self._normalize(cross, self._ok_l[rows, cols][:, np.newaxis] & ok_r[rows, s],
                        self.mean_l[rows, cols][:, np.newaxis], mean_r[rows, s],
                        self.sigma_l[rows, cols][:, np.newaxis], sigma_r[rows, s])
        return cross[:, ::-1] if self.sign == SIGN_MIDDLEBURY else cross

    def _normalize(self, cross, ok, mean_l, mean_r, sigma_l, sigma_r) -> None:
        """ZNCC from block cross sums, in place: -1 where ``ok`` is False."""
        cross /= self.area
        cross -= mean_l * mean_r
        cross /= np.where(ok, sigma_l * sigma_r, 1.0)
        np.clip(cross, -1.0, 1.0, out=cross)
        cross[~ok] = -1.0

    def dsi_rows(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Full cost vectors for a sparse pixel set, shape (S, d_max+1)."""
        return self.window(rows, cols, 0, self.d_max + 1)
