"""Zero-mean normalized cross-correlation costs over a stereo level.

The matching cost between the block around a left pixel and the block
around a horizontally shifted right pixel is

    cost = sum((L - mean(L)) * (R - mean(R))) / (m * sigma_L * sigma_R)

over an odd (2n+1)x(2n+1) block of m pixels, where sigma is the root mean
squared deviation of the block.  The value lives in [-1, 1] and is clamped
there after roundoff.  Blocks always have full size thanks to replicate
padding.  An entry costs the floor of -1 instead of a correlation when
its product of deviations is NaN: a degenerate block on either side, whose
deviation below ``SIGMA_EPS`` is stored as NaN where the statistics are
made, or a right-block center that falls outside the image for the
requested disparity, where the padding's deviation is NaN.

:class:`CostEngine` evaluates these costs for one level of one run, in one
thread.  It adds every (pixel, disparity) entry it computes to the integer
``count``, the basis of all complexity accounting downstream.  It has two
evaluation paths, and both read one right image and its statistics padded
by d_max+2 columns on each side, deviation NaN there, so the padding alone
applies the out-of-range rule:

- planes (``plane``): every pixel at one disparity; a full search can
  take them one at a time and hold O(H*W) memory instead of the whole
  volume.  One kernel fills a range of rows at a run of disparities,
  pixel-major, (row, column, disparity), in passes of whole rows of at
  most ``_PASS_ENTRIES`` entries.  A block row's sum is computed once:
  the sums live in a ring of padded rows, and the b-1 a range shares
  with the adjacent range above arrive in the ring that range returns.
  ``plane`` is the kernel at one disparity over the whole level; the
  matcher's band pass hands it a dense band's rows of its vector store,
  every disparity at once, and carries the ring from band to band;
- the window kernel (``window``): a sparse pixel set, each pixel at its
  own run of consecutive disparities; each distinct block row is
  correlated once across the run and shared by the vertically adjacent
  pixels that need it.  Full vectors (``dsi_rows``) are windows of
  d_max+1 disparities.  It gathers by flat index from the flattened padded
  arrays, and lays short windows out window-major, (window entry, pixel),
  so a three-candidate window costs about what a long one does per entry.

There is one summation order: a block's products are added along each
block row in column order, then the block rows in row order, and one
routine turns the sums into costs.  ``plane(z)[i, j]``,
``window([i], [j], z, 1)`` and the ``dsi_rows`` entry are therefore the
same bits.  Both images are first centred by one shared offset, the
mean of their two means, which ZNCC ignores; the sums then keep the
block deviations of bright, low-contrast images instead of cancelling
them.  A cross sum spans one block, but the block statistics are running
sums along each line (``_box_means``), whose roundoff grows with the
line's length.
"""

from __future__ import annotations

import numbers

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["SIGMA_EPS", "SIGN_MIDDLEBURY", "SIGN_PAPER_PLUS", "CostEngine"]

# Matching direction for rectified pairs: a left-image feature sits at a
# smaller column in the right image, so the right center is (i, j - z).
SIGN_MIDDLEBURY = "middlebury"
# Literal (i, j + z) form, selectable for pairs rectified the other way.
SIGN_PAPER_PLUS = "paper"

# Blocks whose deviation falls below this are degenerate: their deviation
# is stored as NaN, and every entry with a NaN deviation costs -1.
SIGMA_EPS = 1e-6

# Entries one pass of the window kernel gathers: b left and nz+b-1 right
# entries per distinct block row, 2 left and 2*nz right statistics per
# pixel, counted twice for long windows, which transpose them.  A pass's
# scratch stays within about as many float64s however few block rows its
# pixels share; isolated pixels gather all b block rows each.  A level of
# h*w pixels gathers level_budget(_GATHER_CHUNK, h * w, 8) entries a pass,
# so a small level's passes hold about its maps' size, not 2 MiB.
_GATHER_CHUNK = 1 << 18
# Windows at least this long are laid out pixel-major, (S, nz); shorter ones
# window-major, (nz, S), so no inner loop runs over a handful of entries.
# Measured at level 0 of 450x375 and 128x88 scenes, block 11: the two
# layouts cost the same per entry at about 11 disparities.
_LONG_WINDOW = 12
# How far a window may reach past [0, d_max] on either side: a
# three-candidate window centred one step outside the range.
_REACH = 2
# Output entries per pass of the costs kernel (rows times width times
# disparities, at least one row); bounds its scratch and its ring of
# block-row sums to a few passes instead of a few planes.
_PASS_ENTRIES = 65536


def is_integer(value) -> bool:
    """Whether ``value`` is an integer; a bool is not, though Python counts it as one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def level_budget(cap: int, pixels: int, share: float) -> int:
    """A scratch budget on a level of ``pixels`` pixels: ``share`` per pixel, at most ``cap``.

    The caps are the budgets level 0 of a 450x375 scene runs at, where
    smaller ones were measured slower; a smaller level holds scratch in
    proportion to its maps.  At least 1.
    """
    return max(1, min(cap, int(pixels * share)))


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


def _centred_padded(img: np.ndarray, offset: float, half: int, side: int) -> np.ndarray:
    """``img - offset`` edge-padded by ``half`` on every side, then by ``side`` zero columns."""
    h, w = img.shape
    out = np.zeros((h + 2 * half, w + 2 * (half + side)))
    padded = out[:, side:side + w + 2 * half]
    np.subtract(img, offset, out=padded[half:half + h, half:half + w])
    padded[:half] = padded[half]
    padded[half + h:] = padded[half + h - 1]
    padded[:, :half] = padded[:, half:half + 1]
    padded[:, half + w:] = padded[:, half + w - 1:half + w]
    return out


def _box_means(stack: np.ndarray, block: int) -> np.ndarray:
    """Mean of the square block around each pixel of each image, in place.

    ``stack`` holds images along axis 0, and each becomes its block means
    under replicate borders: running window sums down the columns, divided
    by the block size, then the same along the rows.  The running sum
    carries roundoff from one end of a line to the other.  It is kept on
    purpose: it is the order of the box filter the statistics were first
    made with, so every cost keeps its bits (``tests/oracles.py`` pins
    that filter).
    """
    mid = _running_sums(stack, np.empty(stack.shape), block, 1)
    mid /= block
    _running_sums(mid, stack, block, 2)
    stack /= block
    return stack


def _running_sums(x: np.ndarray, out: np.ndarray, block: int, axis: int) -> np.ndarray:
    """Window sums along ``axis`` of ``x``, its end samples repeated, into ``out``.

    The first window adds its samples in order, from 0.0; each next sum
    adds to the previous one the difference of the sample entering and the
    sample leaving the window, that difference taken first.
    """
    x, sums = x.swapaxes(0, axis), out.swapaxes(0, axis)
    n, half = x.shape[0], block // 2
    sums[0] = 0.0
    for t in range(-half, half + 1):
        sums[0] += x[min(max(t, 0), n - 1)]
    # Sum k takes in sample min(k + half, n - 1) and drops max(k - 1 - half, 0):
    # one subtraction per segment where neither end changes its clipping.
    clipped, inside = max(1, n - half), min(half + 2, n)
    bounds = sorted({1, clipped, inside, n})
    for a, b in zip(bounds, bounds[1:]):
        entering = x[a + half:b + half] if a < clipped else x[n - 1]
        leaving = x[0] if a < inside else x[a - 1 - half:b - 1 - half]
        np.subtract(entering, leaving, out=sums[a:b])
    sums.cumsum(axis=0, out=sums)  # in order along the axis
    return out


class CostEngine:
    """Disparity-cost evaluator for one pyramid level.

    Both images are centred by one shared offset, then block means and
    deviations are precomputed once per image with box filters under
    replicate borders.  The right image and its statistics are padded
    once by d_max+2 columns on each side, and both evaluation paths (planes
    and the row-shared window kernel) read column slices of these padded
    arrays.  Degeneracy is decided once, in ``_stats``: a deviation below
    ``SIGMA_EPS`` is stored as NaN, so ``sigma_l`` reads NaN at a degenerate
    left block.  The padded columns' deviation is NaN too, so a degenerate
    block on either side and a right block outside the image all make a
    NaN deviation product, which the normalization's clamp turns into -1.
    The costs kernel behind ``plane`` reads a run of disparities as strided
    views of column windows, writes pixel-major, and carries block-row sums
    between adjacent row ranges in a ring, so no padded row's products are
    computed twice along a level.  The window kernel reads the same arrays
    flattened, by flat index.  The paths share statistics, the order of
    the cross sums and the normalization, so they return the same bits
    for the same entry.
    """

    def __init__(self, left: np.ndarray, right: np.ndarray, block: int, d_max: int,
                 sign: str = SIGN_MIDDLEBURY) -> None:
        left, right = check_pair(left, right)
        if not is_integer(block) or block < 3 or block % 2 == 0:
            raise ValueError(f"block must be an odd integer >= 3, got {block!r}")
        if not is_integer(d_max) or d_max < 0:
            raise ValueError(f"d_max must be an integer >= 0, got {d_max!r}")
        if sign not in (SIGN_MIDDLEBURY, SIGN_PAPER_PLUS):
            raise ValueError(f"unknown sign convention {sign!r}")
        # ZNCC ignores a shared offset; without it, bright images lose the
        # deviations to cancellation in the sums of squares and products.
        offset = (left.mean() + right.mean()) / 2

        h, w = self.height, self.width = left.shape
        half = self.half = block // 2
        self.block = block
        self.area = block * block
        self.d_max = int(d_max)
        self.sign = sign
        self.count = 0  # entries computed so far

        # The right image and its statistics carry d_max+_REACH added columns
        # on both sides, so a window at any legal disparity reads in bounds;
        # the image and mean there are 0 and the deviation NaN, which
        # applies the out-of-range rule.  Each image is centred straight
        # into its padded array, and its statistics read it there: no
        # centred copy is made.
        pad = self._pad = self.d_max + _REACH
        self._lp = _centred_padded(left, offset, half, 0)
        self.mean_l, self.sigma_l = self._stats(self._lp[half:half + h, half:half + w])
        self._rpz = _centred_padded(right, offset, half, pad)
        mean_r, sigma_r = self._stats(self._rpz[half:half + h, pad + half:pad + half + w])
        # Allocated after the statistics, whose box filter needs scratch.
        self._mean_rz = np.zeros((h, w + 2 * pad))
        self._sigma_rz = np.full((h, w + 2 * pad), np.nan)
        self._mean_rz[:, pad:pad + w] = mean_r
        self._sigma_rz[:, pad:pad + w] = sigma_r
        # The costs kernel reads these arrays as windows of columns: index s
        # of a view's last axis is the columns from s on of every row, as
        # wide as a pixel's block rows or statistics reach.
        self._columns = tuple(sliding_window_view(a, n, axis=1).transpose(0, 2, 1)
                              for a, n in ((self._rpz, self._lp.shape[1]),
                                           (self._mean_rz, self.width),
                                           (self._sigma_rz, self.width)))

    def _stats(self, img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Block means and deviations, a degenerate block's deviation NaN.

        The image and its square are box-filtered as one stack, and the
        deviation sqrt(max(mean_sq - mean^2, 0)) is made in place of the
        mean squares, so both results share one buffer.
        """
        moments = np.empty((2,) + img.shape)
        moments[0] = img
        np.multiply(img, img, out=moments[1])
        mean, sigma = _box_means(moments, self.block)
        sigma -= mean * mean
        np.maximum(sigma, 0.0, out=sigma)
        np.sqrt(sigma, out=sigma)
        np.copyto(sigma, np.nan, where=sigma < SIGMA_EPS)
        return mean, sigma

    def _right_start(self, z0, nz: int = 1):
        """Padded right column of column 0's window at z0..z0+nz-1.

        Index k of the window is disparity z0+nz-1-k under the Middlebury
        sign and z0+k under the paper sign.
        """
        if self.sign == SIGN_MIDDLEBURY:
            return self._pad - z0 - (nz - 1)
        return self._pad + z0

    def plane(self, z: int) -> np.ndarray:
        """Costs of every pixel at one disparity.

        The level is walked in passes of ``_PASS_ENTRIES // width`` rows, each
        continuing from the block-row sums of the pass above.  Each entry
        adds the centred images' block products in the one order the window
        kernel uses, along each block row and then over the rows, so
        ``plane(z)[i, j]`` has the same bits as ``window([i], [j], z, 1)``.
        """
        z = int(z)
        if not 0 <= z <= self.d_max:
            raise ValueError(f"disparity {z} outside [0, {self.d_max}]")
        cost = np.empty((self.height, self.width, 1))
        self._costs(z, 0, cost)
        return cost[..., 0]

    def _costs(self, z0: int, top: int, out: np.ndarray, ring=None) -> np.ndarray:
        """Costs at z0..z0+g-1 of rows top..top+n-1 into ``out``, shape (n, w, g).

        Block row r of a pixel in row i is padded row i+r, and its sum adds
        the block's b products along the row in order t.  The sums live in
        ``ring``, shape (R, w, g): padded row r at index r % R.  A ring
        passed in holds padded rows top..top+b-2, the b-1 rows this range
        shares with the adjacent range above; None makes a new one.  The
        ring is returned holding the b-1 padded rows the range below shares,
        so ranges that follow one another carry their sums and copy none.

        A pass takes as many whole rows as keep it within ``_PASS_ENTRIES``
        entries, at least one.  It reads its block rows in runs, in row
        order: the rows the ring holds, then new ones computed into it, each
        run cut where the ring wraps around.  A run adds into the output
        rows that read it at every shift p it reaches, so each entry adds
        its b block rows in order p whatever the runs.  A new ring holds a
        pass's rows beside the b-1 carried ones; when a pass is shorter than
        b-1 rows, it holds only those b-1, and the rows a pass computes take
        the slots of rows it has read.  Disparity is the last axis of every
        array, and the right image and statistics are read as strided views
        of g columns, so nothing is gathered.
        """
        n, w, g = out.shape
        b = self.block
        m = min(n, max(1, _PASS_ENTRIES // (w * g)))
        if ring is None:
            ring = np.empty((m + b - 1 if m >= b - 1 else b - 1, w, g))
            done = top  # the first padded row without a sum in the ring
        else:
            done = top + b - 1
        size = ring.shape[0]
        # A plane's passes are tall, so it computes a run's products at once:
        # the b-1 rows beside a pass add little scratch, while computing them
        # apart made baseline_bm 7% slower at 88x128x12 and 13% slower at
        # 44x64x7.
        chunk = size if g == 1 else m
        # Index k of each view is disparity z0+k: the window's columns run
        # against the disparities under the Middlebury sign.
        s = self._right_start(z0, g)
        step = -1 if self.sign == SIGN_MIDDLEBURY else 1
        right, mean_r, sigma_r = (v[..., s:s + g][..., ::step] for v in self._columns)
        left, mean_l, sigma_l = (a[..., np.newaxis] for a in (self._lp, self.mean_l, self.sigma_l))
        for i0 in range(top, top + n, m):
            end = min(i0 + m, top + n)
            cross = out[i0 - top:end - top]
            # Runs of padded rows i0..end+b-2, in order: the ring's, then the
            # new ones, each cut where the ring wraps around.
            wraps = range((i0 // size + 1) * size, end + b - 1, size)
            stops = sorted({done, end + b - 1, *wraps})
            for r0, r1 in zip([i0, *stops], stops):
                base = r0 - r0 % size  # row r of the run is at ring index r-base
                # New rows, ``chunk`` at a time: the products summed along
                # the row, b column shifts in order t.
                for c0 in range(max(r0, done), r1, chunk):
                    c1 = min(c0 + chunk, r1)
                    prod = left[c0:c1] * right[c0:c1]
                    fresh = ring[c0 - base:c1 - base]
                    np.copyto(fresh, prod[:, :w])
                    for t in range(1, b):
                        fresh += prod[:, t:t + w]
                    del prod
                # Row r is block row p = r-i of output rows i: each run adds
                # at every shift p it reaches, in order.
                for p in range(max(0, r0 - end + 1), min(b, r1 - i0)):
                    lo, hi = max(i0, r0 - p), min(end, r1 - p)
                    rows = cross[lo - i0:hi - i0]
                    if p:
                        rows += ring[lo + p - base:hi + p - base]
                    else:
                        np.copyto(rows, ring[lo - base:hi - base])
            done = end + b - 1
            band = np.s_[i0:end]
            self._normalize(cross, mean_l[band], mean_r[band], sigma_l[band], sigma_r[band])
        self.count += n * w * g
        return ring

    def window(self, rows: np.ndarray, cols: np.ndarray, z0, nz: int,
               out: np.ndarray | None = None) -> np.ndarray:
        """Costs of each pixel at disparities z0..z0+nz-1, shape (S, nz).

        ``z0`` is one start per pixel, or one for all.  The costs are
        written into ``out`` if given, a C-contiguous float64 array of that
        shape, and returned in it.  A window may reach up to two
        disparities past [0, d_max] on either side; entries there follow
        the same cost rule but are not counted, so the count grows by the
        number of entries inside [0, d_max].

        Block row p of pixel (i, j) is padded row i+p at column j.  Pixels
        are sorted by (column, z0, row) and taken a chunk at a time; a pixel
        shares the block rows that the previous pixel of its (column, z0)
        run already has, so each distinct block row is correlated once over
        the window.  A chunk ends where its gathered entries reach the
        level's budget, ``_GATHER_CHUNK`` or 8 per pixel of the level if
        that is fewer, counted from the block rows its pixels add and their
        statistics, so its scratch is bounded however few rows the pixels
        share.  A pixel's cross sums add its block rows in order p,
        so each entry is computed by the same operations whatever else is
        requested with it.

        Every gather reads the flattened padded arrays at one flat index
        per pixel or block row.  Windows shorter than ``_LONG_WINDOW`` are
        window-major, (nz, S): each window entry is one ``take`` over the
        chunk, and the statistics broadcast along rows of S pixels.  Longer
        windows are pixel-major, (S, nz): segments and block rows are taken
        whole, from strided window views of the same arrays.  Either layout's
        chunk is scattered into the output by pixel row, and neither runs an
        inner loop over a few entries only.
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
        if out is None:
            out = np.empty((rows.shape[0], nz))
        elif (out.shape != (rows.shape[0], nz) or out.dtype != np.float64
              or not out.flags.c_contiguous):
            raise ValueError(f"out must be a C-contiguous float64 array of shape "
                             f"{(rows.shape[0], nz)}")

        if rows.size and (min(rows.min(), cols.min()) < 0 or rows.max() >= self.height
                          or cols.max() >= self.width):
            raise ValueError(f"pixels outside the {self.height}x{self.width} level")
        # Sort by (column, z0, row) through one integer key, and read the
        # sorted pixels back from the sorted key.
        span = self.d_max + 2 * _REACH + 1
        key = (cols * span + (z0 + _REACH)) * self.height + rows
        order = np.argsort(key, kind="stable")
        key = key.take(order)
        rows = key % self.height
        key //= self.height
        z0 = key % span - _REACH
        cols = key // span
        del key

        # The flattened left image, right image and right statistics; long
        # windows read them as strided views of their n-element windows.
        short = nz < _LONG_WINDOW
        lengths = (self.block, nz + self.block - 1, nz, nz)
        sources = tuple(a.ravel() if short else sliding_window_view(a.ravel(), n)
                        for a, n in zip((self._lp, self._rpz, self._mean_rz, self._sigma_rz),
                                        lengths))

        # Block rows a pixel adds to the distinct ones: all b at the start
        # of a (column, z0) run, else those below the previous pixel's.
        b = self.block
        new = np.full(rows.shape[0], b)
        run = (cols[1:] == cols[:-1]) & (z0[1:] == z0[:-1])
        np.minimum(rows[1:] - rows[:-1], b, out=new[1:], where=run)
        # A chunk's pixels end their gathers in one multiple of the budget;
        # long windows count theirs twice, for the transposed copies.
        gathered = new * (nz + 2 * b - 1) + 2 * (nz + 1)
        if not short:
            gathered *= 2
        np.cumsum(gathered, out=gathered)
        gathered //= level_budget(_GATHER_CHUNK, self.height * self.width, 8)
        starts = np.flatnonzero(np.diff(gathered, prepend=-1))
        del gathered

        # Each chunk's costs go straight to their pixels' output rows.
        # Window index k is disparity z0+k under the paper sign and
        # z0+nz-1-k under the Middlebury one.
        backwards = self.sign == SIGN_MIDDLEBURY
        for start, stop in zip(starts, np.append(starts[1:], rows.shape[0])):
            part = np.s_[start:stop]
            new[start] = b  # the chunk's first pixel shares no rows
            cross = self._window_chunk(rows[part], cols[part], z0[part], new[part], nz,
                                       sources)
            if short:
                cross = cross.T
            out[order[part]] = cross[:, ::-1] if backwards else cross
        legal = np.minimum(z0 + nz - 1, self.d_max) - np.maximum(z0, 0) + 1
        self.count += int(np.maximum(legal, 0).sum())
        return out

    def _window_chunk(self, rows, cols, z0, new, nz, sources):
        """Costs of sorted pixels by window index: (nz, S) if short, else (S, nz).

        ``new`` is the number of block rows each pixel adds to the distinct
        ones, b at the first.
        """
        b = self.block
        short = nz < _LONG_WINDOW
        left, right, mean, sigma = sources

        # A pixel's b block rows are consecutive distinct rows from first.
        ends = np.cumsum(new)
        first = ends - b
        distinct = ends[-1]

        # Flat index of each distinct block row's first element: padded row
        # i+p at column j on the left, at the window's first column s on
        # the right.  Both gathers end up (entry, distinct row).
        s = cols + self._right_start(z0, nz)
        lw, rw = self._lp.shape[1], self._rpz.shape[1]
        lidx = np.repeat((rows - first) * lw + cols, new)
        lidx += np.arange(0, distinct * lw, lw)
        ridx = np.repeat((rows - first) * rw + s, new)
        ridx += np.arange(0, distinct * rw, rw)
        lrow, seg = _gather(left, lidx, b, short), _gather(right, ridx, nz + b - 1, short)
        if not short:
            lrow, seg = np.ascontiguousarray(lrow.T), np.ascontiguousarray(seg.T)
        del lidx, ridx

        # Correlate each distinct block row over the window: index k against
        # right segment entries k..k+b-1, added in order t.  The products
        # run over (k, row) planes so each one is a single contiguous pass.
        corr = seg[:nz] * lrow[0]
        term = np.empty_like(corr)
        for t in range(1, b):
            np.multiply(seg[t:t + nz], lrow[t], out=term)
            corr += term
        del seg, lrow, term

        # A pixel adds its b block rows in order p: element by element from
        # the flattened (k, row) sums for short windows, whole rows of the
        # transposed (row, k) sums for long ones.
        if short:
            corr = corr.ravel()
            index, axis = first + np.arange(0, nz * distinct, distinct)[:, np.newaxis], None
        else:
            corr = np.ascontiguousarray(corr.T)
            index, axis = first, 0
        cross = corr.take(index, axis=axis)
        term = np.empty_like(cross)
        for p in range(1, b):
            corr[p:].take(index, axis=axis, out=term, mode="clip")
            cross += term
        del corr, term  # before the statistics' temporaries

        # Per-pixel statistics broadcast along the window axis.
        pixel = rows * self.width + cols
        mean_l, sigma_l = (a.ravel().take(pixel) for a in (self.mean_l, self.sigma_l))
        if not short:
            mean_l, sigma_l = mean_l[:, np.newaxis], sigma_l[:, np.newaxis]
        at = rows * self._mean_rz.shape[1] + s
        mean_r, sigma_r = _gather(mean, at, nz, short), _gather(sigma, at, nz, short)
        self._normalize(cross, mean_l, mean_r, sigma_l, sigma_r)
        return cross

    def _normalize(self, cross, mean_l, mean_r, sigma_l, sigma_r) -> None:
        """ZNCC from block cross sums, in place: -1 where a deviation is NaN.

        A NaN deviation makes the quotient NaN, which ``minimum`` keeps and
        ``fmax`` replaces by the floor, so the clamp to [-1, 1] applies the
        degeneracy rule too.
        """
        cross /= self.area
        scale = mean_l * mean_r
        cross -= scale
        np.multiply(sigma_l, sigma_r, out=scale)
        cross /= scale
        np.minimum(cross, 1.0, out=cross)
        np.fmax(cross, -1.0, out=cross)

    def dsi_rows(self, rows: np.ndarray, cols: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        """Full cost vectors for a sparse pixel set, shape (S, d_max+1), into ``out`` if given."""
        return self.window(rows, cols, 0, self.d_max + 1, out)


def _gather(source: np.ndarray, index: np.ndarray, n: int, short: bool) -> np.ndarray:
    """Elements index+k for k < n of a flattened array.

    Short windows read ``source`` itself, one ``take`` per k, into (n, S);
    long ones read its n-element window view by row, into (S, n).  Every
    index is in range by construction; ``mode="clip"`` lets ``take`` write
    into ``out`` directly, where the default mode would buffer a copy.
    """
    if not short:
        return source[index]
    taken = np.empty((n, index.shape[0]))
    for k, row in enumerate(taken):
        source[k:].take(index, out=row, mode="clip")
    return taken
