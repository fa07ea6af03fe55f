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
re-selection one row behind, so a level holds the cost vectors of one
band and the two rows above it at most, and of those only the vectors it
computed, in a compact store.  A band asks the engine once, for its
untrusted pixels' vectors and those of the trusted pixels the
re-selection may read (every pixel's, written straight into the store,
where it trusts nothing); the re-selection only reads the store.

All maps are float64; disparities are integer-valued with NaN marking
pixels that carry no usable value.  Public stages never mutate their
inputs; inside ``run_pipeline`` the trusted selection writes into the
upsampled prior's buffers, which become the level's maps, and the band
pass fills and refines those maps in place.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .pyramid import build_pyramid
from .zncc import SIGN_MIDDLEBURY, SIGN_PAPER_PLUS, CostEngine, is_integer, level_budget

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


# Low-cost pixels whose median windows are held at a time, on a level of
# h*w pixels level_budget(_REFINE_CHUNK, h * w, 1 / 16).  Refine's neighbor
# sums hold as many entries as that many 16-disparity vectors: at nz
# disparities level_budget(16 * _REFINE_CHUNK // nz, h * w, 1 / 16) pixels.
_REFINE_CHUNK = 4096
# Full cost vectors one band of rows may hold (rows times width times
# disparities), unless that is under _BAND_MIN_ROWS rows on a level with a
# trusted pixel: the window kernel recomputes the b-1 block rows a band
# shares with the band above, most of a shorter band's rows.  A floor of 2
# rows there made layered-hier's run_pipeline 8.7% slower, in 14 of 15
# alternating rounds.  A level that trusts nothing is dense bands only, and
# a dense band below a dense one reads those rows' sums from the ring the
# engine's costs kernel carries.
_BAND_ENTRIES = 1 << 18
_BAND_MIN_ROWS = 16
# Pixels per window call of the trusted selection, in whole rows (at least
# one); bounds the call's per-pixel arrays to a fraction of a level's maps,
# a few of the window kernel's chunks.  On a level of h*w pixels
# level_budget(_TRUSTED_GROUP, h * w, 1 / 4).
_TRUSTED_GROUP = 1 << 14


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
            if value is not None and not is_integer(value):
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

    ``refine_evals`` are the entries computed only because refine may read
    them: the full vectors of the trusted pixels within 3x3 of an untrusted
    pixel or of a trusted one whose cost is at most ``alpha``.  Refine
    reads the untrusted pixels' vectors from the full search, and
    ``selection_evals`` counts those.
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

    A range holds about ``_TRUSTED_GROUP`` pixels, or a quarter of the
    level if that is fewer, and at least one row; z0 is each pixel's window
    start, one below its prior.
    """
    h, w = trusted.shape
    step = max(1, level_budget(_TRUSTED_GROUP, h * w, 1 / 4) // w)
    for top in range(0, h, step):
        ti, tj = np.nonzero(trusted[top:top + step])
        ti += top
        yield ti, tj, d_hat[ti, tj].astype(np.intp) - 1


def _select_trusted(engine: CostEngine, d_hat: np.ndarray, c_hat: np.ndarray, beta: float,
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """The prior's maps, set at the trusted pixels by window calls; the mask; the counts.

    Consumes the prior: ``d_hat`` and ``c_hat`` become the level's
    disparity and cost maps, written in place.  A pixel whose prior cost
    exceeds ``beta`` is searched at {d_hat-1, d_hat, d_hat+1} within
    [0, d_max], a tie keeping the smaller disparity; a row range's window
    starts are read before its picks are written.  The rest, a NaN
    prior's too, keep their prior values for the band pass to overwrite.
    The counts are keyed by their LevelTrace fields.
    """
    h, w, d_max = engine.height, engine.width, engine.d_max
    if d_hat.shape != (h, w) or c_hat.shape != (h, w):
        raise ValueError("prior maps must match the level dimensions")
    finite = np.isfinite(d_hat)
    confident = finite & (c_hat > beta)
    # The window around int(d_hat) holds a legal candidate: -1 <= int(d_hat) <= d_max+1.
    trusted = confident & (d_hat > -2) & (d_hat < d_max + 2)
    n, n_finite, n_confident = (int(np.count_nonzero(m)) for m in (trusted, finite, confident))
    del finite, confident

    window_max, before = 0, engine.count
    for ti, tj, z0 in _trusted_windows(trusted, d_hat):
        costs = engine.window(ti, tj, z0, 3)
        # The first legal maximum: strictly greater, in ascending z, so a tie
        # keeps the smaller z.  A candidate outside [0, d_max] never wins:
        # the first starts below the floor of -1, the others are masked.  A
        # masked argmax took 572 us against this loop's 495 us per group of
        # 16,384 pixels.
        best = np.where(z0 >= 0, costs[:, 0], -2.0)
        pick = np.zeros(ti.shape[0], dtype=np.intp)
        for k in (1, 2):
            better = (costs[:, k] > best) & (z0 + k >= 0) & (z0 + k <= d_max)
            np.copyto(best, costs[:, k], where=better)
            np.copyto(pick, k, where=better)
        d_hat[ti, tj] = z0 + pick
        c_hat[ti, tj] = best
        legal = np.minimum(z0 + 2, d_max) - np.maximum(z0, 0) + 1
        window_max = max(window_max, int(legal.max(initial=0)))
    return d_hat, c_hat, trusted, dict(
        trusted=n, trusted_evals=engine.count - before, trusted_window_max=window_max,
        full_search_pixels=h * w - n, fallback_nan_prior=h * w - n_finite,
        fallback_low_prior=n_finite - n_confident, fallback_out_of_range=n_confident - n)


def _band_rows(height: int, width: int, nz: int, floor: int) -> int:
    """Rows per band of the band pass on a level of this size and nz disparities.

    At least ``floor``, and two where the level has two rows: refine trails
    selection by one row, and a band's rows must cover that halo row and
    the next.  The band pass passes ``_BAND_MIN_ROWS`` where the level
    trusts a pixel, else 2.
    """
    return min(height, max(2, floor, _BAND_ENTRIES // (width * nz)))


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
    pixels of ``disparity`` and ``cost``, from the engine's costs kernel
    over the band's rows if none of them is trusted (a dense band), else
    from the window kernel.
    Refine then overwrites the rows' low pixels from the stored vectors and
    the selected costs; it computes nothing.

    Only the vectors refine may read are held: the untrusted pixels' and
    those of the trusted pixels within 3x3 of an untrusted or low pixel,
    every pixel of a dense band.  They are rows of d_max+1 costs in a
    store, and a slot map over the rows in flight points each pixel at its
    row.  Refine reads one row above the rows it refines, so before band k
    the held vectors of rows top-2 and top-1 move to the store's top, and
    the band's follow them.  A dense band's store rows, pixel-major, are
    the costs kernel's output: it writes them in place, and a dense band
    below a dense one continues from the kernel's ring of block-row sums.
    Any other band makes one ``dsi_rows`` request, for its untrusted
    pixels, then its trusted held pixels.  Returns refine's counts, keyed
    by their LevelTrace fields, and seconds.
    """
    h, w, nz = engine.height, engine.width, engine.d_max + 1
    band = _band_rows(h, w, nz, _BAND_MIN_ROWS if trusted.any() else 2)
    chunk = level_budget(16 * _REFINE_CHUNK // nz, h * w, 1 / 16)
    slots = min(2 * band, h)
    held = ~trusted  # and the trusted pixels within 3x3 of one that may be low
    np.less_equal(cost, alpha, out=held, where=trusted)
    held = _dilate3(held)
    tops = np.arange(0, h, band)
    dense = np.add.reduceat(np.count_nonzero(trusted, axis=1), tops) == 0
    # The store holds rows top-2 .. bottom-1 of any band; its last row stays zero.
    zero = max(int(np.count_nonzero(held[max(top - 2, 0):top + band])) for top in tops)
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

    def reselect(i, j):
        """Low pixels (i, j) take the best of their 3x3 neighbors' summed vectors.

        A function, so its scratch is freed before the next band's costs.
        """
        for start in range(0, i.shape[0], chunk):
            ci, cj = i[start:start + chunk], j[start:start + chunk]
            summed = np.zeros((ci.shape[0], nz))  # neighbors add in (row, column) order
            for di in (-1, 0, 1):
                rows = ring_row[ci + di]
                for dj in (0, 1, 2):
                    summed += store[slot[rows, cj + dj]]
            members = ((ci > 0) + 1 + (ci < h - 1)) * ((cj > 0) + 1 + (cj < w - 1))
            best = np.argmax(summed, axis=1)
            disparity[ci, cj] = best
            cost[ci, cj] = summed[np.arange(ci.shape[0]), best] / members

    refined, requested, refine_seconds = 0, 0, 0.0
    sums = None  # a dense band's ring of block-row sums, carried to a dense band below
    for k, top in enumerate(tops):
        bottom = min(top + band, h)
        # Rows top-2 and top-1 to the store's top, read at their old slots first.
        ai, aj = np.nonzero(held[max(top - 2, 0):top])
        ai += max(top - 2, 0)
        start = ai.shape[0]
        store[:start] = store[slot[ring_row[ai], aj + 1]]
        enter(ai, aj, 0)
        del ai, aj
        fi, fj = np.nonzero(~trusted[top:bottom])
        fi += top
        if dense[k]:
            vectors = enter(fi, fj, start)
            sums = engine._costs(0, top, vectors.reshape(bottom - top, w, nz), sums)
        else:
            ri, rj = np.nonzero(held[top:bottom] & trusted[top:bottom])
            ri += top
            requested += ri.shape[0]
            i, j = np.concatenate((fi, ri)), np.concatenate((fj, rj))
            vectors = enter(i, j, start)
            engine.dsi_rows(i, j, out=vectors)
            vectors = vectors[:fi.shape[0]]  # selection's part
        if not dense[k + 1:k + 2].any():
            sums = None  # only a dense band below reads the ring: freed before refine
        best = np.argmax(vectors, axis=1)
        disparity[fi, fj] = best
        cost[fi, fj] = vectors[np.arange(fi.shape[0]), best]

        t0 = time.perf_counter()
        # The rows to refine, whose low pixels' neighbors are all selected.
        upper, lower = max(top - 1, 0), bottom - 1 if bottom < h else h
        li, lj = np.nonzero(cost[upper:lower] <= alpha)
        li += upper
        refined += li.shape[0]
        reselect(li, lj)
        refine_seconds += time.perf_counter() - t0
    return dict(refined=refined, refine_evals=requested * nz), refine_seconds


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
    if disparity.size == 0:
        return disparity.copy()
    low = cost <= alpha

    # Pad costs below any legal alpha so clipped-away neighbors never qualify.
    cpad = np.pad(cost, 2, mode="constant", constant_values=-2.0)
    dpad = np.pad(disparity, 2, mode="constant", constant_values=0.0)
    cwin = sliding_window_view(cpad, (5, 5))
    dwin = sliding_window_view(dpad, (5, 5))

    out = disparity.copy()
    li, lj = np.nonzero(low)
    chunk = level_budget(_REFINE_CHUNK, low.size, 1 / 16)
    for start in range(0, li.shape[0], chunk):
        ci, cj = li[start:start + chunk], lj[start:start + chunk]
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
    (the coarsest around a NaN prior, which trusts nothing).  The prior's
    maps become the level's, and each level is taken off the pyramid as it
    is matched, so a matched level's images are dropped.  Each level builds
    its own engine and drops it, with the trusted mask, once its band pass
    is done: the median repair reads the maps only, and no two levels'
    engines are ever held at once.  Returns the level-0 maps and the complete trace of
    evaluation counters and stage timings.
    """
    t_start = time.perf_counter()
    pyramid = list(build_pyramid(left, right, config.d_max,
                                 levels=config.levels, base_block=config.block))
    trace = PipelineTrace(build_seconds=time.perf_counter() - t_start)

    disparity = cost = None
    while pyramid:
        level = pyramid.pop()  # coarsest first; a matched level's images go with it
        # A new engine per level, so its count holds this level's entries only.
        engine = CostEngine(level.left, level.right, level.block, level.d_max,
                            sign=config.sign)
        seconds = {}
        if disparity is None:  # the coarsest level: a NaN prior trusts no pixel
            disparity, cost = np.full(level.shape, np.nan), np.full(level.shape, np.nan)
        else:
            t0 = time.perf_counter()
            disparity, cost = upsample_prior(disparity, cost, level.shape)
            seconds["upsample"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        # The prior's maps become the level's: selection writes the trusted
        # pixels into them, the band pass the rest.
        disparity, cost, trusted, counts = _select_trusted(engine, disparity, cost, config.beta)
        refine, seconds["refine"] = _band_pass(engine, disparity, cost, trusted, config.alpha)
        seconds["select"] = time.perf_counter() - t0 - seconds["refine"]
        selection_evals = engine.count - refine["refine_evals"]
        del engine, trusted  # the median reads the maps only

        t0 = time.perf_counter()
        filtered = selective_median(disparity, cost, config.alpha)
        seconds["median"] = time.perf_counter() - t0
        trace.levels.append(LevelTrace(
            level=level.index, height=level.shape[0], width=level.shape[1],
            d_max=level.d_max, block=level.block, **counts, **refine,
            selection_evals=selection_evals,
            median_replaced=_count_changed(disparity, filtered), seconds=seconds))
        disparity = filtered
        del filtered  # one name, so upsampling the maps can free them

    trace.total_seconds = time.perf_counter() - t_start
    return disparity, cost, trace
