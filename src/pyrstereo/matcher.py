"""Coarse-to-fine block matching over a Gaussian stereo pyramid.

Every level runs the same steps, coarsest first.  A level receives the
coarser level's disparity and cost maps, upsampled, as a prior: pixels
whose interpolated cost clears the trust threshold ``beta`` are searched
only in a three-candidate window around twice the coarse disparity,
everything else falls back to a full search.  The coarsest level has no
prior, so all of it is full search.  After selection, each level runs two
confidence-gated repairs controlled by ``alpha``:

* low-cost pixels are re-selected on the cost vectors summed over their
  3x3 neighborhood (a disparity is trusted when nearby searches agree);
* remaining low-cost pixels take the median of the confident disparities
  in their 5x5 window.

All maps are float64; disparities are integer-valued with NaN marking
pixels that carry no usable value.  Stages never mutate their inputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import binary_dilation, map_coordinates

from .pyramid import build_pyramid
from .zncc import SIGN_MIDDLEBURY, SIGN_PAPER_PLUS, CostEngine, EvalCounter

__all__ = [
    "ConfigError",
    "MatchConfig",
    "LevelTrace",
    "PipelineTrace",
    "SelectionStats",
    "match_coarsest",
    "refine_level",
    "upsample_prior",
    "select_with_prior",
    "selective_median",
    "run_pipeline",
]


# Low-cost pixels whose neighbor sums refine_level holds at a time.
_REFINE_CHUNK = 4096


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
class SelectionStats:
    """Bookkeeping of one prior-guided selection pass.

    ``vectors`` holds the rows, columns and full cost vectors of the pixels
    that fell back to full search, for :func:`refine_level` to read instead
    of recomputing them.  It is None when no pixel fell back, and when a
    level without a prior was searched by planes.
    """

    trusted: int = 0
    trusted_evals: int = 0
    window_max: int = 0
    full_search_pixels: int = 0
    evals: int = 0
    vectors: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, repr=False)


@dataclass
class LevelTrace:
    """Exact per-level counters plus stage wall times."""

    level: int
    height: int
    width: int
    d_max: int
    block: int
    trusted: int = 0
    trusted_evals: int = 0
    trusted_window_max: int = 0
    full_search_pixels: int = 0
    selection_evals: int = 0
    refined: int = 0
    refine_evals: int = 0
    refine_reused: int = 0
    median_replaced: int = 0
    seconds: dict = field(default_factory=dict)

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
        return {
            "level": self.level,
            "height": self.height,
            "width": self.width,
            "d_max": self.d_max,
            "block": self.block,
            "pixels": self.pixels,
            "trusted": self.trusted,
            "trusted_fraction": self.trusted_fraction,
            "trusted_evals": self.trusted_evals,
            "trusted_window_max": self.trusted_window_max,
            "full_search_pixels": self.full_search_pixels,
            "selection_evals": self.selection_evals,
            "refined": self.refined,
            "refine_evals": self.refine_evals,
            "refine_reused": self.refine_reused,
            "median_replaced": self.median_replaced,
            "seconds": dict(self.seconds),
        }


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
        return {
            "levels": [lt.to_dict() for lt in self.levels],
            "total_evals": self.total_evals,
            "build_seconds": self.build_seconds,
            "total_seconds": self.total_seconds,
        }

    def counts_dict(self) -> dict:
        """Counters only, with wall times stripped (for determinism checks)."""
        out = self.to_dict()
        out.pop("build_seconds")
        out.pop("total_seconds")
        for level in out["levels"]:
            level.pop("seconds")
        return out


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
                 alpha: float, vectors: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
                 ) -> tuple[np.ndarray, np.ndarray, int]:
    """Re-select low-confidence pixels on neighborhood-summed cost vectors.

    Pixels with cost above ``alpha`` pass through untouched.  The rest take
    the disparity with the best cost summed over their (clipped) 3x3
    neighborhood; the stored cost is that sum divided by the neighborhood
    size, so it stays comparable to ``alpha`` at later gates.

    ``vectors`` are full cost vectors this engine already computed, as
    ``(rows, cols, costs)`` (see :class:`SelectionStats`).  They are read
    instead of recomputed, so only the missing vectors are evaluated and
    counted; the maps are the same either way.  Returns the new maps and
    the number of vectors read from ``vectors``.
    """
    low = cost <= alpha
    if not low.any():
        return disparity.copy(), cost.copy(), 0

    h, w = cost.shape
    needed = binary_dilation(low, structure=np.ones((3, 3), dtype=bool))
    # Vector row of each needed pixel, with a border of -1 ("no neighbor"):
    # rows below known_n index the given vectors, the rest the computed ones.
    index = np.full((h + 2, w + 2), -1, dtype=np.intp)
    inner = index[1:-1, 1:-1]
    known = np.empty((0, engine.d_max + 1))
    reused = 0
    if vectors is not None:
        krows, kcols, known = vectors
        use = needed[krows, kcols]
        inner[krows[use], kcols[use]] = np.nonzero(use)[0]
        reused = int(np.count_nonzero(use))
    known_n = known.shape[0]
    mrows, mcols = np.nonzero(needed & (inner < 0))
    fresh = engine.dsi_rows(mrows, mcols)
    inner[mrows, mcols] = known_n + np.arange(mrows.shape[0])

    new_d = disparity.copy()
    new_c = cost.copy()
    li, lj = np.nonzero(low)
    for start in range(0, li.shape[0], _REFINE_CHUNK):
        ci = li[start:start + _REFINE_CHUNK]
        cj = lj[start:start + _REFINE_CHUNK]
        summed = np.zeros((ci.shape[0], engine.d_max + 1))
        members = np.zeros(ci.shape[0])
        for di in (0, 1, 2):
            for dj in (0, 1, 2):
                src = index[ci + di, cj + dj]
                members += src >= 0
                old = (src >= 0) & (src < known_n)
                summed[old] += known[src[old]]
                new = src >= known_n
                summed[new] += fresh[src[new] - known_n]
        best = np.argmax(summed, axis=1)
        new_d[ci, cj] = best.astype(np.float64)
        new_c[ci, cj] = summed[np.arange(ci.shape[0]), best] / members
    return new_d, new_c, reused


def upsample_prior(d_coarse: np.ndarray, c_coarse: np.ndarray,
                   target_shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Upsample coarse maps to the next finer level.

    Disparities replicate nearest-neighbor blocks and are doubled to
    convert them to the finer level's pixel units; NaN passes through.
    Costs are interpolated bicubically and clamped back into [-1, 1].
    The target must be the dyadic parent of the coarse maps.
    """
    h, w = target_shape
    ch, cw = d_coarse.shape
    if c_coarse.shape != (ch, cw):
        raise ValueError("disparity and cost maps differ in shape")
    if ch != (h + 1) // 2 or cw != (w + 1) // 2:
        raise ValueError(
            f"{ch}x{cw} maps cannot upsample to {h}x{w}: not the dyadic parent"
        )

    d_hat = 2.0 * np.repeat(np.repeat(d_coarse, 2, axis=0), 2, axis=1)[:h, :w]

    yi = (np.arange(h) + 0.5) * (ch / h) - 0.5
    xi = (np.arange(w) + 0.5) * (cw / w) - 0.5
    grid = np.meshgrid(yi, xi, indexing="ij")
    c_hat = map_coordinates(c_coarse, grid, order=3, mode="nearest")
    return d_hat, np.clip(c_hat, -1.0, 1.0)


def select_with_prior(engine: CostEngine, d_hat: np.ndarray | None,
                      c_hat: np.ndarray | None,
                      beta: float) -> tuple[np.ndarray, np.ndarray, SelectionStats]:
    """Disparity selection guided by an upsampled prior.

    Pixels whose interpolated cost exceeds ``beta`` are evaluated only at
    the candidates {d_hat-1, d_hat, d_hat+1} clipped to [0, d_max] (at most
    three evaluations); all other pixels, including those whose prior is
    NaN or leaves no legal candidate, get a full search.  Ties pick the
    smallest disparity in both branches.  With no prior (``d_hat`` and
    ``c_hat`` both None) every pixel is searched, by :func:`match_coarsest`.
    """
    h, w = engine.height, engine.width
    if d_hat is None or c_hat is None:
        if d_hat is not c_hat:
            raise ValueError("give both prior maps or neither")
        before = engine.counter.count
        disparity, cost = match_coarsest(engine)
        return disparity, cost, SelectionStats(
            full_search_pixels=h * w, evals=engine.counter.count - before)
    if d_hat.shape != (h, w) or c_hat.shape != (h, w):
        raise ValueError("prior maps must match the level dimensions")
    d_max = engine.d_max

    finite = np.isfinite(d_hat)
    center = np.where(finite, d_hat, 0.0).astype(np.intp)
    window_ok = finite & (center + 1 >= 0) & (center - 1 <= d_max)
    trusted = (c_hat > beta) & window_ok

    disparity = np.empty((h, w))
    cost = np.empty((h, w))
    stats = SelectionStats(trusted=int(trusted.sum()))

    before = engine.counter.count
    if stats.trusted:
        ti, tj = np.nonzero(trusted)
        z0 = center[ti, tj] - 1
        costs = engine.window(ti, tj, z0, 3)
        z = z0[:, np.newaxis] + np.arange(3)
        legal = (z >= 0) & (z <= d_max)
        costs[~legal] = -2.0  # below the floor: an illegal candidate never wins
        pick = np.argmax(costs, axis=1)  # the first maximum: ties keep the smallest z
        disparity[ti, tj] = (z0 + pick).astype(np.float64)
        cost[ti, tj] = costs[np.arange(ti.shape[0]), pick]
        stats.window_max = int(legal.sum(axis=1).max())
        stats.trusted_evals = engine.counter.count - before

    full = ~trusted
    stats.full_search_pixels = int(full.sum())
    if stats.full_search_pixels:
        fi, fj = np.nonzero(full)
        rows = engine.dsi_rows(fi, fj)
        best = np.argmax(rows, axis=1)
        disparity[fi, fj] = best.astype(np.float64)
        cost[fi, fj] = rows[np.arange(fi.shape[0]), best]
        stats.vectors = (fi, fj, rows)

    stats.evals = engine.counter.count - before
    return disparity, cost, stats


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

    li, lj = np.nonzero(low)
    cw = cwin[li, lj].reshape(li.shape[0], 25)
    dw = dwin[li, lj].reshape(li.shape[0], 25)
    qualifies = (cw > alpha) & np.isfinite(dw)
    counts = qualifies.sum(axis=1)

    pool = np.where(qualifies, dw, np.inf)
    pool.sort(axis=1)
    pick = np.maximum(counts - 1, 0) // 2
    medians = pool[np.arange(li.shape[0]), pick]

    out = disparity.copy()
    have = counts > 0
    out[li[have], lj[have]] = medians[have]
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
    counter = EvalCounter()
    alpha = config.alpha

    disparity = cost = None
    for level in reversed(pyramid):
        engine = CostEngine(level.left, level.right, level.block, level.d_max,
                            sign=config.sign, counter=counter)
        ltrace = LevelTrace(level=level.index, height=level.shape[0],
                            width=level.shape[1], d_max=level.d_max,
                            block=level.block)
        seconds = ltrace.seconds

        if disparity is not None:
            t0 = time.perf_counter()
            disparity, cost = upsample_prior(disparity, cost, level.shape)
            seconds["upsample"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        disparity, cost, stats = select_with_prior(engine, disparity, cost, config.beta)
        seconds["select"] = time.perf_counter() - t0
        ltrace.trusted = stats.trusted
        ltrace.trusted_evals = stats.trusted_evals
        ltrace.trusted_window_max = stats.window_max
        ltrace.full_search_pixels = stats.full_search_pixels
        ltrace.selection_evals = stats.evals

        before = counter.count
        ltrace.refined = int(np.sum(cost <= alpha))
        t0 = time.perf_counter()
        disparity, cost, ltrace.refine_reused = refine_level(engine, disparity, cost,
                                                             alpha, stats.vectors)
        seconds["refine"] = time.perf_counter() - t0
        ltrace.refine_evals = counter.count - before
        del stats  # its vectors are not needed past refine

        t0 = time.perf_counter()
        filtered = selective_median(disparity, cost, alpha)
        seconds["median"] = time.perf_counter() - t0
        ltrace.median_replaced = _count_changed(disparity, filtered)
        disparity = filtered
        trace.levels.append(ltrace)

    trace.total_seconds = time.perf_counter() - t_start
    return disparity, cost, trace
