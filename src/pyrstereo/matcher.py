"""Coarse-to-fine block matching over a Gaussian stereo pyramid.

Every level runs the same steps, coarsest first.  A level receives the
coarser level's disparity and cost maps, upsampled, as a prior: pixels
whose interpolated cost clears the trust threshold ``beta`` are searched
only in a three-candidate window around twice the coarse disparity,
everything else falls back to a full search (all of the coarsest level,
whose prior is NaN).  Two repairs gated by ``alpha`` follow:

* low-cost pixels are re-selected on the cost vectors summed over their
  3x3 neighborhood (a disparity is trusted when nearby searches agree);
* remaining low-cost pixels take the median of the confident disparities
  in their 5x5 window.

The full search and the re-selection walk a level in bands of rows, the
re-selection one row behind, so a level holds the cost vectors of two
bands at most, and of those only the vectors it computed, in a compact
store.  Bands with nothing trusted share one region of a band and two rows.

All maps are float64; disparities are integer-valued with NaN marking
pixels that carry no usable value.  Public stages never mutate their
inputs; inside ``run_pipeline`` the band pass refines a level's maps in place.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .pyramid import build_pyramid
from .zncc import SIGN_MIDDLEBURY, SIGN_PAPER_PLUS, CostEngine

__all__ = [
    "ConfigError",
    "MatchConfig",
    "LevelTrace",
    "PipelineTrace",
    "match_coarsest",
    "refine_level",
    "upsample_prior",
    "selective_median",
    "run_pipeline",
]


# Low-cost pixels whose neighbor sums or median windows are held at a time.
_REFINE_CHUNK = 4096
# Full cost vectors one band of rows may hold (rows times width times
# disparities), unless that is under _BAND_MIN_ROWS rows: the window kernel
# recomputes the b-1 block rows a band shares with the band above, most of a
# shorter band's rows.  Planes carry those rows' sums from a dense band instead.
_BAND_ENTRIES = 1 << 19
_BAND_MIN_ROWS = 16
# Pixels per window call of the trusted selection, in whole rows (at least
# one); bounds the call's scratch memory to a fraction of a level's maps.
_TRUSTED_GROUP = 1 << 15


class ConfigError(ValueError):
    """A matching parameter is outside its legal range."""


@dataclass(frozen=True)
class MatchConfig:
    """Parameters of one matching run.

    ``levels=None`` selects the pyramid depth automatically.  ``alpha``
    gates the neighborhood re-selection and median repair; ``beta`` gates
    trust in the upsampled prior.  ``sign`` picks the column direction of
    the right-image search (see :mod:`pyrstereo.zncc`).
    """

    d_max: int
    levels: int | None = None
    block: int = 11
    alpha: float = 0.9
    beta: float = 0.9
    sign: str = SIGN_MIDDLEBURY

    def __post_init__(self) -> None:
        for name in ("d_max", "levels", "block"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.d_max < 1:
            raise ConfigError(f"d_max must be >= 1, got {self.d_max}")
        if self.levels is not None and self.levels < 0:
            raise ConfigError(f"levels must be >= 0, got {self.levels}")
        if self.block < 3 or self.block % 2 == 0:
            raise ConfigError(f"block must be odd and >= 3, got {self.block}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0.0 < self.beta < 1.0:
            raise ConfigError(f"beta must lie in (0, 1), got {self.beta}")
        if self.sign not in (SIGN_MIDDLEBURY, SIGN_PAPER_PLUS):
            raise ConfigError(f"unknown sign convention {self.sign!r}")


@dataclass
class LevelTrace:
    """Exact per-level counters plus stage wall times.

    Each full-search pixel has one reason: its prior disparity is not
    finite (``fallback_nan_prior``), else its prior cost is at most
    ``beta`` or NaN (``fallback_low_prior``), else no candidate of its
    window lies in [0, d_max] (``fallback_out_of_range``).
    """

    level: int
    height: int
    width: int
    d_max: int
    block: int
    trusted: int
    trusted_evals: int
    trusted_window_max: int
    full_search_pixels: int
    fallback_nan_prior: int
    fallback_low_prior: int
    fallback_out_of_range: int
    selection_evals: int
    refined: int
    refine_evals: int
    refine_reused: int
    median_replaced: int
    seconds: dict

    @property
    def pixels(self) -> int:
        return self.height * self.width

    @property
    def trusted_fraction(self) -> float:
        return self.trusted / self.pixels if self.pixels else 0.0

    @property
    def evals(self) -> int:
        return self.selection_evals + self.refine_evals

    def to_dict(self) -> dict:
        return {**asdict(self), "pixels": self.pixels,
                "trusted_fraction": self.trusted_fraction}


@dataclass
class PipelineTrace:
    """Counters for a full run, coarsest level first."""

    levels: list[LevelTrace] = field(default_factory=list)
    build_seconds: float = 0.0
    total_seconds: float = 0.0

    @property
    def total_evals(self) -> int:
        return sum(lt.evals for lt in self.levels)

    @property
    def trust_fractions(self) -> tuple[float, ...]:
        return tuple(lt.trusted_fraction for lt in self.levels)

    def to_dict(self) -> dict:
        return {**asdict(self), "levels": [lt.to_dict() for lt in self.levels],
                "total_evals": self.total_evals}


def match_coarsest(engine: CostEngine) -> tuple[np.ndarray, np.ndarray]:
    """Full-search disparity and cost maps for one level.

    Every pixel is evaluated at every candidate disparity (d_max+1 entries
    recorded per pixel); ties pick the smallest disparity.  The maps are a
    running argmax over the engine's planes, taken as each plane is
    computed, so no volume is built and memory stays O(H*W) for any d_max.
    """
    planes = map(engine.plane, range(engine.d_max + 1))
    cost = next(planes).copy()
    disparity = np.zeros(cost.shape)
    better = np.empty(cost.shape, dtype=bool)
    for z, plane in enumerate(planes, start=1):
        # Strictly greater, in ascending z: a tie keeps the smaller disparity.
        np.greater(plane, cost, out=better)
        np.copyto(disparity, z, where=better)
        np.copyto(cost, plane, where=better)
    return disparity, cost


def refine_level(engine: CostEngine, disparity: np.ndarray, cost: np.ndarray,
                 alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Re-select low-confidence pixels on neighborhood-summed cost vectors.

    Pixels with cost above ``alpha`` pass through untouched.  The rest take
    the disparity with the best cost summed over their (clipped) 3x3
    neighborhood; the stored cost is that sum divided by the neighborhood
    size, so it stays comparable to ``alpha`` at later gates.  This is the
    band pass with nothing left to select: it computes every needed vector.
    """
    if disparity.shape != (engine.height, engine.width) or cost.shape != disparity.shape:
        raise ValueError("maps must match the level dimensions")
    disparity, cost = disparity.astype(float), cost.astype(float)
    _band_pass(engine, disparity, cost, np.ones(cost.shape, dtype=bool), alpha)
    return disparity, cost


def upsample_prior(d_coarse: np.ndarray, c_coarse: np.ndarray,
                   target_shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Upsample coarse maps to the next finer level.

    Disparities replicate nearest-neighbor blocks and are doubled to
    convert them to the finer level's pixel units; NaN passes through.
    Costs are interpolated bilinearly on pixel centres: target pixel (i, j)
    reads the coarse map at ((i + 0.5) * ch / h - 0.5, (j + 0.5) * cw / w - 0.5),
    clamped to the edge samples, so a NaN cost reaches only the 4x4 targets
    around it.  The target must be the dyadic parent of the coarse maps.
    """
    h, w = target_shape
    ch, cw = d_coarse.shape
    if c_coarse.shape != (ch, cw):
        raise ValueError("disparity and cost maps differ in shape")
    if ch != (h + 1) // 2 or cw != (w + 1) // 2:
        raise ValueError(
            f"{ch}x{cw} maps cannot upsample to {h}x{w}: not the dyadic parent"
        )

    # The cost first: its passes' scratch is freed before d_hat is made.
    c_hat = _linear_upsample(np.asarray(c_coarse, dtype=np.float64), h, axis=0)
    c_hat = _linear_upsample(c_hat, w, axis=1)
    d_hat = np.asarray(d_coarse, dtype=np.float64).take(np.arange(h) // 2, axis=0)
    d_hat = d_hat.take(np.arange(w) // 2, axis=1)
    d_hat *= 2.0
    return d_hat, c_hat


def _linear_upsample(a: np.ndarray, n: int, axis: int) -> np.ndarray:
    """``a`` interpolated linearly at the centres of n pixels along ``axis``."""
    m = a.shape[axis]
    at = np.clip((np.arange(n) + 0.5) * (m / n) - 0.5, 0.0, m - 1.0)
    lo = at.astype(np.intp)
    t = (at - lo).reshape((n, 1) if axis == 0 else n)
    out = a.take(lo, axis=axis)
    out *= 1.0 - t
    hi = a.take(lo + 1, axis=axis, mode="clip")
    hi *= t
    out += hi
    return out


def _trusted_windows(trusted: np.ndarray, d_hat: np.ndarray):
    """Yields (rows, cols, z0) of the trusted pixels per range of whole rows.

    A range holds about ``_TRUSTED_GROUP`` pixels, and at least one row; z0
    is each pixel's window start, one below its prior.
    """
    h, w = trusted.shape
    step = max(1, _TRUSTED_GROUP // w)
    for top in range(0, h, step):
        ti, tj = np.nonzero(trusted[top:top + step])
        ti += top
        yield ti, tj, d_hat[ti, tj].astype(np.intp) - 1


def _select_trusted(engine: CostEngine, d_hat: np.ndarray, c_hat: np.ndarray, beta: float,
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Maps set at the trusted pixels, by window calls over row ranges; the mask; the counts.

    A pixel whose prior cost exceeds ``beta`` is searched at {d_hat-1, d_hat,
    d_hat+1} within [0, d_max], a tie keeping the smaller disparity.  The
    rest, a NaN prior's too, are left to the band pass.  The counts are keyed
    by their LevelTrace fields.
    """
    h, w, d_max = engine.height, engine.width, engine.d_max
    if d_hat.shape != (h, w) or c_hat.shape != (h, w):
        raise ValueError("prior maps must match the level dimensions")
    finite = np.isfinite(d_hat)
    confident = finite & (c_hat > beta)
    # The window around int(d_hat) holds a legal candidate: -1 <= int(d_hat) <= d_max+1.
    trusted = confident & (d_hat > -2) & (d_hat < d_max + 2)

    disparity, cost = np.empty((h, w)), np.empty((h, w))
    window_max, before = 0, engine.count
    for ti, tj, z0 in _trusted_windows(trusted, d_hat):
        costs = engine.window(ti, tj, z0, 3)
        # The first legal maximum: strictly greater, in ascending z, so a tie
        # keeps the smaller z.  A candidate outside [0, d_max] never wins:
        # the first starts below the floor of -1, the others are masked.
        best = np.where(z0 >= 0, costs[:, 0], -2.0)
        pick = np.zeros(ti.shape[0], dtype=np.intp)
        for k in (1, 2):
            better = (costs[:, k] > best) & (z0 + k >= 0) & (z0 + k <= d_max)
            np.copyto(best, costs[:, k], where=better)
            np.copyto(pick, k, where=better)
        disparity[ti, tj] = z0 + pick
        cost[ti, tj] = best
        legal = np.minimum(z0 + 2, d_max) - np.maximum(z0, 0) + 1
        window_max = max(window_max, int(legal.max(initial=0)))
    n, n_finite, n_confident = (int(np.count_nonzero(m)) for m in (trusted, finite, confident))
    return disparity, cost, trusted, dict(
        trusted=n, trusted_evals=engine.count - before, trusted_window_max=window_max,
        full_search_pixels=h * w - n, fallback_nan_prior=h * w - n_finite,
        fallback_low_prior=n_finite - n_confident, fallback_out_of_range=n_confident - n)


def _band_rows(height: int, width: int, nz: int) -> int:
    """Rows per band of the band pass on a level of this size and nz disparities.

    At least two where the level has two rows: refine trails selection by
    one row, and a band's rows must cover that halo row and the next.
    """
    return min(height, max(2, _BAND_MIN_ROWS, _BAND_ENTRIES // (width * nz)))


def _dilate3(mask: np.ndarray) -> np.ndarray:
    """A boolean mask grown by its 3x3 neighbourhood; outside the mask counts as False."""
    rows = mask.copy()
    rows[1:] |= mask[:-1]
    rows[:-1] |= mask[1:]
    grown = rows.copy()
    grown[:, 1:] |= rows[:, :-1]
    grown[:, :-1] |= rows[:, 1:]
    return grown


def _band_pass(engine: CostEngine, disparity: np.ndarray, cost: np.ndarray,
               trusted: np.ndarray, alpha: float) -> tuple[dict, float]:
    """Full search of the untrusted pixels and refine, a band of rows at a time, in place.

    Band k is selected, then rows top-1 to top+band-2 refined, the rows
    whose low pixels' 3x3 neighbors are all selected (the last band
    refines to the level's last row).  Selection fills the untrusted
    pixels of ``disparity`` and ``cost``, from planes over the band's rows
    if none of them is trusted (a dense band), else from the window kernel.
    Refine then overwrites the rows' low pixels; it reads only their
    selected costs and the stored vectors, and computes only the vectors
    that are missing, by one ``dsi_rows`` call per band.

    Only computed vectors are kept, as rows of d_max+1 costs in a store,
    and a slot map over the rows in flight points each pixel at its row.
    Refine reads one row above the rows it refines, so band k's vectors
    are read no more once band k+2 starts.  A band that is not dense takes
    one of two arenas, sized before the pass for its untrusted pixels and
    the trusted ones within 3x3 of an untrusted or low pixel, which covers
    every vector refine may add.  Dense bands share one region of band+2
    rows: a dense band below a dense band first moves that band's last two
    rows to the region's top.  Returns refine's counts, keyed by their
    LevelTrace fields, and seconds.
    """
    h, w, nz = engine.height, engine.width, engine.d_max + 1
    band = _band_rows(h, w, nz)
    slots = min(2 * band, h)
    reached = np.zeros((h, w), dtype=bool)  # the pixels whose vectors refine has read
    room = ~trusted  # and the trusted pixels within 3x3 of one that may be low
    np.less_equal(cost, alpha, out=room, where=trusted)
    room = _dilate3(room)
    tops = np.arange(0, h, band)
    counts = np.add.reduceat(np.count_nonzero(room, axis=1), tops)
    dense = np.add.reduceat(np.count_nonzero(trusted, axis=1), tops) == 0
    del room
    # Band k's vectors go to arena k % 2, which band k+2 reuses, unless the
    # band is dense; dense bands use the region after the arenas.
    sizes = [int(counts[a::2][~dense[a::2]].max(initial=0)) for a in (0, 1)]
    arena = np.cumsum([0] + sizes + [(band + 2) * w if dense.any() else 0])
    used = [0, 0]
    region, zero = int(arena[2]), int(arena[3])  # the store's last row stays zero
    store = np.empty((zero + 1, nz))
    store[zero] = 0.0
    # Store rows by row in flight (a ring over the level's rows) and padded
    # column.  The border columns and the last row point at the zero row,
    # so a neighbor outside the level adds zero.
    slot = np.full((slots + 1, w + 2), zero, dtype=np.int32)
    ring_row = np.append(np.arange(h) % slots, slots)  # rows -1 and h read the last row

    def enter(i, j, start):
        """Store rows from ``start`` for pixels (i, j), entered in the slot map."""
        slot[ring_row[i], j + 1] = np.arange(start, start + i.shape[0])
        return store[start:start + i.shape[0]]

    def claim(i, j):
        """Store rows in its band's arena for pixels (i, j) of one band."""
        a = (i[0] // band) % 2
        used[a] += i.shape[0]
        return enter(i, j, arena[a] + used[a] - i.shape[0])

    def reselect(i, j):
        """Low pixels (i, j) take the best of their 3x3 neighbors' summed vectors.

        A function, so its scratch is freed before the next band's planes.
        """
        for start in range(0, i.shape[0], _REFINE_CHUNK):
            ci, cj = i[start:start + _REFINE_CHUNK], j[start:start + _REFINE_CHUNK]
            summed = np.zeros((ci.shape[0], nz))  # neighbors add in (row, column) order
            for di in (-1, 0, 1):
                rows = ring_row[ci + di]
                for dj in (0, 1, 2):
                    summed += store[slot[rows, cj + dj]]
            members = ((ci > 0) + 1 + (ci < h - 1)) * ((cj > 0) + 1 + (cj < w - 1))
            best = np.argmax(summed, axis=1)
            disparity[ci, cj] = best
            cost[ci, cj] = summed[np.arange(ci.shape[0]), best] / members

    refined, refine_evals, refine_seconds = 0, 0, 0.0
    sums = None  # the last dense band's block-row sums, shared with the band below
    for k, top in enumerate(tops):
        bottom = min(top + band, h)
        used[k % 2] = 0  # band k-2's vectors are read no more
        fi, fj = np.nonzero(~trusted[top:bottom])
        fi += top
        if fi.size:
            if dense[k]:
                carry = k > 0 and dense[k - 1]  # the band above is in the region too
                if carry:  # its last two rows, which refine reads next, to the region's top
                    store[region:region + 2 * w] = store[region + band * w:region + (band + 2) * w]
                    slot[ring_row[top - 2:top], 1:-1] = np.arange(2 * w).reshape(2, w) + region
                vectors = enter(fi, fj, region + 2 * w)
                # One transposing copy: plane by plane touches each store row nz times.
                planes = np.empty((nz, bottom - top, w))
                # Planes continue block-row sums from a dense band only.
                sums = engine._planes(0, top, planes, sums if carry else None)
                vectors.reshape(bottom - top, w, nz)[...] = planes.transpose(1, 2, 0)
                del planes
            else:
                vectors = claim(fi, fj)
                vectors[...] = engine.dsi_rows(fi, fj)
            best = np.argmax(vectors, axis=1)
            disparity[fi, fj] = best
            cost[fi, fj] = vectors[np.arange(fi.shape[0]), best]

        t0 = time.perf_counter()
        # The rows to refine, whose low pixels' neighbors are all selected,
        # over them and their halo rows.
        upper, lower = max(top - 1, 0), bottom - 1 if bottom < h else h
        first, end = max(upper - 1, 0), min(lower + 1, h)
        low = np.zeros((end - first, w), dtype=bool)
        low[upper - first:lower - first] = cost[upper:lower] <= alpha
        read = _dilate3(low)
        mi, mj = np.nonzero(read & trusted[first:end] & ~reached[first:end])
        reached[first:end] |= read
        if mi.size:  # none are missing where the whole level was searched in full
            mi += first
            before = engine.count
            vectors = engine.dsi_rows(mi, mj)
            refine_evals += engine.count - before
            # Rows first..end-1 span bands k-1 and k, each with its own arena.
            for cut in range(first // band, (end - 1) // band + 1):
                lo, hi = np.searchsorted(mi, (cut * band, (cut + 1) * band))
                if hi > lo:
                    claim(mi[lo:hi], mj[lo:hi])[...] = vectors[lo:hi]
            del vectors
        li, lj = np.nonzero(low)
        li += first
        refined += li.shape[0]
        reselect(li, lj)
        refine_seconds += time.perf_counter() - t0
    # Refine read the vectors that selection computed, the untrusted ones.
    reused = int(np.count_nonzero(reached & ~trusted))
    return dict(refined=refined, refine_evals=refine_evals, refine_reused=reused), refine_seconds


def selective_median(disparity: np.ndarray, cost: np.ndarray,
                     alpha: float) -> np.ndarray:
    """Median repair of low-confidence disparities.

    Each pixel with cost at most ``alpha`` takes the median of the
    disparities in its 5x5 window whose own cost exceeds ``alpha`` (the
    window is clipped at borders, and the center never qualifies).  With an
    even count the lower middle element is used, so the result is always an
    existing disparity.  Pixels with no qualifying neighbor are kept.
    """
    if disparity.shape != cost.shape:
        raise ValueError("disparity and cost maps differ in shape")
    low = cost <= alpha
    if not low.any():
        return disparity.copy()

    # Pad costs below any legal alpha so clipped-away neighbors never qualify.
    cpad = np.pad(cost, 2, mode="constant", constant_values=-2.0)
    dpad = np.pad(disparity, 2, mode="constant", constant_values=0.0)
    cwin = sliding_window_view(cpad, (5, 5))
    dwin = sliding_window_view(dpad, (5, 5))

    out = disparity.copy()
    li, lj = np.nonzero(low)
    for start in range(0, li.shape[0], _REFINE_CHUNK):
        ci, cj = li[start:start + _REFINE_CHUNK], lj[start:start + _REFINE_CHUNK]
        cw = cwin[ci, cj].reshape(ci.shape[0], 25)
        dw = dwin[ci, cj].reshape(ci.shape[0], 25)
        qualifies = (cw > alpha) & np.isfinite(dw)
        counts = qualifies.sum(axis=1)

        pool = np.where(qualifies, dw, np.inf)
        pool.sort(axis=1)
        pick = np.maximum(counts - 1, 0) // 2
        medians = pool[np.arange(ci.shape[0]), pick]
        have = counts > 0
        out[ci[have], cj[have]] = medians[have]
    return out


def _count_changed(before: np.ndarray, after: np.ndarray) -> int:
    both_nan = np.isnan(before) & np.isnan(after)
    return int(np.sum(~both_nan & (before != after)))


def run_pipeline(left: np.ndarray, right: np.ndarray, config: MatchConfig,
                 ) -> tuple[np.ndarray, np.ndarray, PipelineTrace]:
    """Compute the full-resolution disparity and cost maps for a pair.

    Builds the pyramid, then matches each level from the coarsest down to
    level 0, each one around the upsampled result of the level before it
    (the coarsest has no prior).  Returns the level-0 maps and the complete
    trace of evaluation counters and stage timings.
    """
    t_start = time.perf_counter()
    pyramid = build_pyramid(left, right, config.d_max,
                            levels=config.levels, base_block=config.block)
    trace = PipelineTrace(build_seconds=time.perf_counter() - t_start)

    disparity = cost = None
    for level in reversed(pyramid):
        # A new engine per level, so its count holds this level's entries only.
        engine = CostEngine(level.left, level.right, level.block, level.d_max,
                            sign=config.sign)
        seconds = {}
        if disparity is None:  # the coarsest level: a NaN prior trusts no pixel
            d_hat = c_hat = np.broadcast_to(np.nan, level.shape)
        else:
            t0 = time.perf_counter()
            d_hat, c_hat = upsample_prior(disparity, cost, level.shape)
            seconds["upsample"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        disparity, cost, trusted, counts = _select_trusted(engine, d_hat, c_hat, config.beta)
        del d_hat, c_hat  # the band pass reads only the selected maps
        refine, seconds["refine"] = _band_pass(engine, disparity, cost, trusted, config.alpha)
        seconds["select"] = time.perf_counter() - t0 - seconds["refine"]

        t0 = time.perf_counter()
        filtered = selective_median(disparity, cost, config.alpha)
        seconds["median"] = time.perf_counter() - t0
        trace.levels.append(LevelTrace(
            level=level.index, height=level.shape[0], width=level.shape[1],
            d_max=level.d_max, block=level.block, **counts, **refine,
            selection_evals=engine.count - refine["refine_evals"],
            median_replaced=_count_changed(disparity, filtered), seconds=seconds))
        disparity = filtered

    trace.total_seconds = time.perf_counter() - t_start
    return disparity, cost, trace
