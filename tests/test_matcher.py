"""Pipeline stage and end-to-end matcher tests."""

import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import binary_dilation

import pyrstereo
import pyrstereo.matcher as matcher
from oracles import (
    loop_full_search,
    naive_nn_double,
    naive_selective_median,
    ndimage_linear_upsample,
    unbanded_selection,
)
from pyrstereo import (
    ConfigError,
    CostEngine,
    MatchConfig,
    baseline_bm,
    build_pyramid,
    interior_mask,
    match_coarsest,
    refine_level,
    run_pipeline,
    selective_median,
    shifted_pair,
    upsample_prior,
)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"d_max": 0},
        {"d_max": 16, "alpha": 0.0},
        {"d_max": 16, "alpha": 1.01},
        {"d_max": 16, "beta": 1.0},
        {"d_max": 16, "block": 4},
        {"d_max": 16, "block": 1},
        {"d_max": 16, "levels": -1},
        {"d_max": 16, "beta": 0.0},
        {"d_max": 16, "sign": "up"},
        {"d_max": 8.5},
        {"d_max": 16, "block": 5.0},
        {"d_max": 16, "levels": 1.0},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigError):
        MatchConfig(**kwargs)


def test_match_coarsest_identical_pair():
    rng = np.random.default_rng(0)
    img = rng.random((12, 16))
    engine = CostEngine(img, img, block=3, d_max=5)
    disparity, cost = match_coarsest(engine)
    interior = np.s_[1:-1, 1:-1]
    assert np.all(disparity[interior] == 0)
    np.testing.assert_allclose(cost[interior], 1.0, atol=1e-9)
    assert engine.count == 12 * 16 * 6


def test_match_coarsest_equals_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(5):
        left, right = rng.random((14, 14)), rng.random((14, 14))
        engine = CostEngine(left, right, block=5, d_max=6)
        disparity, cost = match_coarsest(engine)
        expected_d, expected_c, evals = loop_full_search(left, right, 6, 5)
        np.testing.assert_array_equal(disparity, expected_d)
        np.testing.assert_allclose(cost, expected_c, atol=1e-9)
        assert evals == engine.count


def _volume_argmax(volume):
    disparity = np.argmax(volume, axis=0)
    cost = np.take_along_axis(volume, disparity[np.newaxis], axis=0)[0]
    return disparity.astype(np.float64), cost


def test_match_coarsest_equals_volume_argmax():
    rng = np.random.default_rng(3)
    left, right = rng.random((13, 17)), rng.random((13, 17))
    engine = CostEngine(left, right, block=3, d_max=9)
    volume = np.stack([engine.plane(z) for z in range(10)])
    got = match_coarsest(CostEngine(left, right, block=3, d_max=9))
    for a, b in zip(got, _volume_argmax(volume)):
        np.testing.assert_array_equal(a, b)

    # Planted ties: a quantized volume with a constant band ties nearly
    # every pixel; the smallest tied disparity must win, as in argmax.
    planted = np.round(volume * 2.0) / 2.0
    planted[:, :, :4] = -1.0
    engine.plane = lambda z: planted[z]
    got = match_coarsest(engine)
    expected = _volume_argmax(planted)
    for a, b in zip(got, expected):
        np.testing.assert_array_equal(a, b)
    assert np.all(got[0][:, :4] == 0)


def test_match_coarsest_peak_is_planes_not_volume():
    """The full search holds a fixed number of H x W planes, whatever d_max."""
    # A plane that fits in one band, and one computed over two bands.
    # The d_max=60 volume alone would take 61 planes.
    for (height, width, block, d_max), bound in [((40, 50, 3, 60), 10),
                                                 ((300, 320, 11, 30), 7)]:
        rng = np.random.default_rng(4)
        left, right = rng.random((height, width)), rng.random((height, width))
        engine = CostEngine(left, right, block=block, d_max=d_max)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            match_coarsest(engine)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < bound * height * width * 8


def test_match_coarsest_recovers_constant_shift():
    rng = np.random.default_rng(2)
    left, right = shifted_pair(24, 48, 3, rng, cutoff=0.15)
    engine = CostEngine(left, right, block=5, d_max=8)
    disparity, _ = match_coarsest(engine)
    mask = interior_mask(left.shape, 3, 5)
    assert np.mean(disparity[mask] == 3) >= 0.95


def test_refine_keeps_confident_pixels_bit_identical():
    rng = np.random.default_rng(3)
    left, right = shifted_pair(16, 24, 2, rng, cutoff=0.15)
    engine = CostEngine(left, right, block=3, d_max=5)
    disparity, cost = match_coarsest(engine)
    refined_d, refined_c = refine_level(engine, disparity, cost, alpha=0.9)
    keep = cost > 0.9
    np.testing.assert_array_equal(refined_d[keep], disparity[keep])
    np.testing.assert_array_equal(refined_c[keep], cost[keep])


def test_refine_noop_when_all_confident():
    rng = np.random.default_rng(4)
    img = shifted_pair(12, 18, 0, rng, cutoff=0.2)[0]
    engine = CostEngine(img, img, block=3, d_max=4)
    disparity = np.zeros((12, 18))
    cost = np.full((12, 18), 0.99)
    refined_d, refined_c = refine_level(engine, disparity, cost, alpha=0.9)
    np.testing.assert_array_equal(refined_d, disparity)
    np.testing.assert_array_equal(refined_c, cost)
    assert engine.count == 0


def test_refine_repairs_bad_pixel_from_neighborhood():
    rng = np.random.default_rng(5)
    left, right = shifted_pair(16, 32, 4, rng, cutoff=0.15)
    engine = CostEngine(left, right, block=3, d_max=8)
    disparity, cost = match_coarsest(engine)
    # Corrupt one interior pixel; its neighbors' vectors all peak at the
    # true shift, so the averaged re-selection must land there.
    disparity = disparity.copy()
    cost = cost.copy()
    disparity[8, 16] = 0.0
    cost[8, 16] = 0.1
    # Corner pixels sum their clipped 2x2 neighborhood, an edge pixel 2x3.
    cost[0, 0] = cost[15, 31] = cost[15, 10] = 0.1
    refined_d, refined_c = refine_level(engine, disparity, cost, alpha=0.9)
    assert refined_d[8, 16] == 4.0
    from oracles import naive_averaged_dsi

    for (i, j), size in [((8, 16), 9), ((0, 0), 4), ((15, 31), 4), ((15, 10), 6)]:
        expected, members = naive_averaged_dsi(left, right, i, j, 1, 8)
        assert members == size
        assert abs(refined_c[i, j] - expected.max() / members) <= 1e-9


def test_refine_rejects_maps_of_another_shape():
    rng = np.random.default_rng(6)
    engine = CostEngine(rng.random((16, 24)), rng.random((16, 24)), block=3, d_max=4)
    # Taller maps were cropped to the level without a word.
    for d_shape, c_shape in [((20, 24), (20, 24)), ((12, 24), (12, 24)), ((16, 24), (16, 23))]:
        with pytest.raises(ValueError, match="level dimensions"):
            refine_level(engine, np.zeros(d_shape), np.zeros(c_shape), alpha=0.9)


_NEIGHBORS = np.ones((3, 3), dtype=bool)


def _fallback_prior():
    """A level pair and a prior that trusts about half of its pixels."""
    rng = np.random.default_rng(31)
    left, right = shifted_pair(40, 56, 4, rng, cutoff=0.15)
    right = right + 0.05 * rng.standard_normal(right.shape)
    d_hat = np.full(left.shape, 4.0)
    c_hat = rng.uniform(0.5, 1.0, size=left.shape)
    return left, right, d_hat, c_hat


def test_refine_with_handed_vectors_is_bit_identical():
    """The band pass refines on selection's vectors: the maps of the stages run alone."""
    left, right, d_hat, c_hat = _fallback_prior()
    engine = CostEngine(left, right, block=5, d_max=10)
    disparity, cost, trusted, stats = matcher._select_trusted(engine, d_hat, c_hat, 0.75)
    # Below every cost nothing is low, so this pass only selects.
    selected = disparity.copy(), cost.copy()
    matcher._band_pass(CostEngine(left, right, block=5, d_max=10), *selected, trusted, -2.0)
    refine, _ = matcher._band_pass(engine, disparity, cost, trusted, 0.9)

    fresh = CostEngine(left, right, block=5, d_max=10)
    sel_d, sel_c, sel_stats = unbanded_selection(fresh, d_hat, c_hat, 0.75)
    np.testing.assert_array_equal(selected[0], sel_d)
    np.testing.assert_array_equal(selected[1], sel_c)
    assert stats.items() <= sel_stats.items()
    assert sel_stats["selection_evals"] == engine.count - refine["refine_evals"]
    assert 0 < stats["trusted"] < disparity.size
    want_d, want_c = refine_level(fresh, sel_d, sel_c, 0.9)
    # The pass refined the maps it was handed.
    np.testing.assert_array_equal(disparity, want_d)
    np.testing.assert_array_equal(cost, want_c)

    # Read, not computed again: the untrusted vectors in the 3x3-dilated low set.
    needed = binary_dilation(sel_c <= 0.9, structure=_NEIGHBORS)
    reused = np.count_nonzero(needed & ~trusted)
    assert reused > 0
    assert fresh.count - engine.count == reused * 11
    assert refine["refine_reused"] == reused
    assert refine["refined"] == np.count_nonzero(sel_c <= 0.9)


def _staged_pipeline(left, right, config):
    """run_pipeline's levels from stages run alone, selection not in bands.

    Per level, coarsest first: the maps refine returns, the median's
    output, and the level's selection counts, refine count, low pixels, and
    the size of the 3x3-dilated low set and of its untrusted part.
    """
    levels = []
    disparity = cost = None
    for level in reversed(build_pyramid(left, right, config.d_max, levels=config.levels,
                                        base_block=config.block)):
        engine = CostEngine(level.left, level.right, level.block, level.d_max,
                            sign=config.sign)
        if disparity is None:
            d_hat = c_hat = np.full(level.shape, np.nan)
        else:
            d_hat, c_hat = upsample_prior(disparity, cost, level.shape)
        sel_d, sel_c, stats = unbanded_selection(engine, d_hat, c_hat, config.beta)
        # A confident prior whose window holds a legal candidate; NaN never is.
        trusted = (c_hat > config.beta) & (d_hat > -2) & (d_hat < level.d_max + 2)
        assert np.count_nonzero(trusted) == stats["trusted"]
        disparity, cost = refine_level(engine, sel_d, sel_c, config.alpha)
        filtered = selective_median(disparity, cost, config.alpha)
        needed = binary_dilation(sel_c <= config.alpha, structure=_NEIGHBORS)
        levels.append({"maps": (disparity, cost, filtered), "stats": stats,
                       "refine_evals": engine.count - stats["selection_evals"],
                       "refined": int(np.count_nonzero(sel_c <= config.alpha)),
                       "needed": int(np.count_nonzero(needed)),
                       "reused": int(np.count_nonzero(needed & ~trusted))})
        disparity = filtered
    return disparity, cost, levels


def _recorded_pipeline(left, right, config):
    """run_pipeline, with the maps each level hands to the median and gets back."""
    seen = []

    def median(disparity, cost, alpha):
        filtered = selective_median(disparity, cost, alpha)
        seen.append((disparity, cost, filtered))
        return filtered

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matcher, "selective_median", median)
        disparity, cost, trace = run_pipeline(left, right, config)
    return disparity, cost, trace, seen


def test_pipeline_refine_reuse_is_exact():
    rng = np.random.default_rng(32)
    left, right = shifted_pair(96, 128, 6, rng, cutoff=0.05)
    right = right + 0.1 * rng.standard_normal(right.shape)
    config = MatchConfig(d_max=24, levels=2, block=7)
    got_d, got_c, got = run_pipeline(left, right, config)
    want_d, want_c, want = _staged_pipeline(left, right, config)
    np.testing.assert_array_equal(got_d, want_d)
    np.testing.assert_array_equal(got_c, want_c)

    # The coarsest level's selection computed every vector its refine reads.
    assert got.levels[0].refine_evals == 0
    assert got.levels[0].refine_reused == want[0]["needed"] > 0
    for a, b in zip(got.levels, want):
        assert a.refine_reused <= a.full_search_pixels
        assert b["refine_evals"] == b["needed"] * (a.d_max + 1)
        assert b["refine_evals"] - a.refine_evals == a.refine_reused * (a.d_max + 1)
        assert a.to_dict()["refine_reused"] == a.refine_reused
    assert sum(b["refine_evals"] for b in want) - sum(a.refine_evals for a in got.levels) \
        == sum(lt.refine_reused * (lt.d_max + 1) for lt in got.levels)


@st.composite
def _banded_inputs(draw):
    levels = draw(st.integers(0, 2))
    height = draw(st.integers(24, 56))
    width = draw(st.integers(24, 64))
    d_max = draw(st.integers(2 << levels, 16))
    shift = draw(st.integers(0, d_max // 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    left, right = shifted_pair(height, width, shift, rng, cutoff=0.15)
    right = right + draw(st.sampled_from([0.0, 0.05, 0.2])) * rng.standard_normal(right.shape)
    # Bands of 2 rows (the floor, as refine trails selection by one row) or
    # an odd number of rows at level 0; coarser levels get other heights
    # from the same budget.
    rows = draw(st.sampled_from([2, 3, 5, 7]))
    return left, right, MatchConfig(d_max=d_max, levels=levels, block=5), rows


@settings(max_examples=30, deadline=None)
@given(_banded_inputs())
def test_band_pass_equals_stages_at_any_band_height(inputs):
    left, right, config, rows = inputs
    # The stages alone, each level in one band: these levels fit the budget.
    want_d, want_c, want = _staged_pipeline(left, right, config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matcher, "_BAND_ENTRIES", rows * left.shape[1] * (config.d_max + 1))
        patch.setattr(matcher, "_BAND_MIN_ROWS", 1)
        got_d, got_c, trace, seen = _recorded_pipeline(left, right, config)
    np.testing.assert_array_equal(got_d, want_d)
    np.testing.assert_array_equal(got_c, want_c)
    assert len(seen) == len(want) == len(trace.levels)
    for maps, b, lt in zip(seen, want, trace.levels):
        for x, y in zip(maps, b["maps"]):
            np.testing.assert_array_equal(x, y)
        for name in ("trusted", "trusted_evals", "trusted_window_max",
                     "full_search_pixels", "selection_evals"):
            assert getattr(lt, name) == b["stats"][name]
        assert lt.refine_evals == (b["needed"] - lt.refine_reused) * (lt.d_max + 1)
        # The band pass tracks which vectors refine read across band halos.
        assert lt.refined == b["refined"]
        assert lt.refine_reused == b["reused"]


def test_band_rows_floor_is_two_rows(monkeypatch):
    """Refine trails selection by one row, so a band spans two rows where a level has them."""
    monkeypatch.setattr(matcher, "_BAND_MIN_ROWS", 1)
    monkeypatch.setattr(matcher, "_BAND_ENTRIES", 1)
    assert [matcher._band_rows(h, 40, 13) for h in (1, 2, 7)] == [1, 2, 2]


def _handoff_level(pattern, band):
    """A level pair and a prior whose bands of ``band`` rows follow ``pattern``.

    A band marked D has no trusted pixel (a dense band), one marked M
    trusts about 70% of its pixels (a mixed band).  The last band is one row.
    """
    rng = np.random.default_rng(42)
    left, right = shifted_pair(band * (len(pattern) - 1) + 1, 40, 4, rng, cutoff=0.15)
    right = right + 0.1 * rng.standard_normal(right.shape)
    d_hat = np.full(left.shape, 4.0)
    c_hat = np.where(rng.random(left.shape) < 0.7, 1.0, 0.0)
    for k, kind in enumerate(pattern):
        if kind == "D":
            c_hat[k * band:(k + 1) * band] = 0.0
    return left, right, d_hat, c_hat


@pytest.mark.parametrize("rows", [2, 3, None])
@pytest.mark.parametrize("pattern", ["DDMDMMDD", "MDDMMDDM", "D", "M"])
def test_band_handoffs_equal_stages(pattern, rows):
    """Dense and mixed bands after each other in every order, as the stages.

    Each pattern ends in a one-row band; a one-letter pattern is a one-row
    level.  ``rows=None`` is the default band floor, ``_BAND_MIN_ROWS``.
    """
    band = rows or matcher._BAND_MIN_ROWS
    left, right, d_hat, c_hat = _handoff_level(pattern, band)
    # The stages alone, the level in one band: it fits the default budget.
    fresh = CostEngine(left, right, block=5, d_max=12)
    sel_d, sel_c, stats = unbanded_selection(fresh, d_hat, c_hat, 0.9)
    want_d, want_c = refine_level(fresh, sel_d, sel_c, 0.9)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matcher, "_BAND_ENTRIES", 1)  # bands of _BAND_MIN_ROWS rows
        patch.setattr(matcher, "_BAND_MIN_ROWS", band)
        engine = CostEngine(left, right, block=5, d_max=12)
        disparity, cost, trusted, _ = matcher._select_trusted(engine, d_hat, c_hat, 0.9)
        refine, _ = matcher._band_pass(engine, disparity, cost, trusted, 0.9)
    tops = range(0, trusted.shape[0], band)
    assert [not trusted[t:t + band].any() for t in tops] == [kind == "D" for kind in pattern]
    assert all(not trusted[t:t + band].all() for t in tops)
    np.testing.assert_array_equal(disparity, want_d)
    np.testing.assert_array_equal(cost, want_c)
    needed = binary_dilation(sel_c <= 0.9, structure=_NEIGHBORS)
    reused = np.count_nonzero(needed & ~trusted)
    assert reused > 0
    assert refine["refine_reused"] == reused
    assert refine["refine_evals"] == fresh.count - stats["selection_evals"] - reused * 13
    assert refine["refined"] == np.count_nonzero(sel_c <= 0.9)


def test_flat_pipeline_counts_one_full_search():
    """levels=0 computes every vector once: refine reads what selection computed."""
    rng = np.random.default_rng(36)
    left, right = shifted_pair(48, 64, 3, rng, cutoff=0.15)
    right = right + 0.2 * rng.standard_normal(right.shape)
    _, _, trace = run_pipeline(left, right, MatchConfig(d_max=12, levels=0, block=5))
    (lt,) = trace.levels
    assert lt.refined > 0
    assert lt.refine_evals == 0 and lt.refine_reused > 0
    assert trace.total_evals == 48 * 64 * 13


def _traced_peak(run):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_untrusted_pair_peak_stays_near_block_matching():
    """With nothing to trust, the hierarchy keeps block matching's footprint."""
    rng = np.random.default_rng(37)
    left, right = rng.random((375, 450)), rng.random((375, 450))
    peak = _traced_peak(lambda: run_pipeline(left, right, MatchConfig(d_max=64)))
    bm_peak = _traced_peak(lambda: baseline_bm(left, right, 64, 11))
    # A whole level's vectors, or every low pixel's median window at once,
    # took eight times the baseline, and three bands of vectors in flight
    # 2.36 times; two, with dense bands in one region of band+2 rows, take
    # 1.79 times (27.70 against 15.49 MiB).
    assert peak < 2.2 * bm_peak


def test_layered_pair_peak_within_twice_block_matching():
    """Where most pixels are trusted, the hierarchy keeps block matching's footprint."""
    rng = np.random.default_rng(39)
    left, right = shifted_pair(375, 450, 12, rng, cutoff=0.05)
    right = right + 0.01 * rng.standard_normal(right.shape)
    trace = []
    peak = _traced_peak(lambda: trace.append(run_pipeline(left, right, MatchConfig(d_max=64))))
    bm_peak = _traced_peak(lambda: baseline_bm(left, right, 64, 11))
    assert trace[0][2].trust_fractions[-1] > 0.9
    # A dense ring of three bands' vectors at level 0 took 2.3 times the baseline.
    assert peak < 2 * bm_peak


def test_band_store_scales_with_vectors_held():
    """The band pass holds the vectors it computes, not whole bands of them."""
    rng = np.random.default_rng(40)
    h, w, d_max = 200, 240, 32
    nz = d_max + 1
    left, right = shifted_pair(h, w, 6, rng, cutoff=0.15)
    right = right + 0.005 * rng.standard_normal(right.shape)
    engine = CostEngine(left, right, block=7, d_max=d_max)
    d_hat, c_hat = np.full((h, w), 6.0), np.ones((h, w))
    for i, j in zip(rng.integers(0, h - 6, 60), rng.integers(0, w - 6, 60)):
        c_hat[i:i + 6, j:j + 6] = 0.0  # 6x6 patches of untrusted pixels
    disparity, cost, trusted, _ = matcher._select_trusted(engine, d_hat, c_hat, 0.9)
    assert 0.03 < np.mean(~trusted) < 0.07
    # Untrusted pixels, and trusted ones within 3x3 of one that may be low.
    held = np.count_nonzero(binary_dilation(~trusted | (cost <= 0.9), _NEIGHBORS))
    ring = 3 * matcher._band_rows(h, w, nz) * w * nz * 8
    peak = _traced_peak(lambda: matcher._band_pass(engine, disparity, cost, trusted, 0.9))
    # The store, one request's vectors on their way in and refine's neighbor
    # sums.
    bound = 2 * held * nz * 8 + 2 * matcher._REFINE_CHUNK * nz * 8
    assert bound < ring / 2
    assert peak < bound


def test_untrusted_level_holds_band_plus_two_rows_of_vectors():
    """With nothing trusted, dense bands share one region of band+2 rows of vectors."""
    rng = np.random.default_rng(41)
    h, w, d_max, block = 200, 240, 32, 7
    nz = d_max + 1
    engine = CostEngine(rng.random((h, w)), rng.random((h, w)), block=block, d_max=d_max)
    band = matcher._band_rows(h, w, nz)
    assert h % band and h // band > 2  # dense bands below dense ones, a short last band
    disparity, cost = np.empty((h, w)), np.empty((h, w))
    untrusted = np.zeros((h, w), dtype=bool)
    counts = []
    peak = _traced_peak(lambda: counts.append(
        matcher._band_pass(engine, disparity, cost, untrusted, 0.9)[0]))
    assert counts[0]["refined"] > 0.9 * h * w  # refine's scratch is at its largest
    row = w * nz * 8
    # The region's band+2 rows, one band of planes before their copy, the
    # b-1 rows of block-row sums carried between bands, and the pass
    # scratch.  Three whole bands of vectors took 19.2 MiB here, against
    # 11.5 MiB allowed.
    scratch = 6 * pyrstereo.zncc._PLANE_BAND * 8
    assert peak < (band + 2 + band + block - 1) * row + scratch


def test_refine_peak_is_one_vector_store(monkeypatch):
    """Where every pixel is low, refine holds two bands of vectors, plus scratch."""
    rng = np.random.default_rng(30)
    h, w, d_max = 200, 240, 32
    engine = CostEngine(rng.random((h, w)), rng.random((h, w)), block=5, d_max=d_max)
    disparity = np.zeros((h, w))
    cost = np.zeros((h, w))  # every pixel is low, so every vector is needed
    store = h * w * (d_max + 1) * 8
    scratch = 4 * matcher._REFINE_CHUNK * (d_max + 1) * 8
    # The default band, nearly a third of the level here, and 8-row bands.
    monkeypatch.setattr(matcher, "_BAND_MIN_ROWS", 1)
    for budget in (matcher._BAND_ENTRIES, 8 * w * (d_max + 1)):
        monkeypatch.setattr(matcher, "_BAND_ENTRIES", budget)
        slab = matcher._band_rows(h, w, d_max + 1) * w * (d_max + 1) * 8
        peak = _traced_peak(lambda: refine_level(engine, disparity, cost, alpha=0.9))
        # Summing all neighbors at once held four such stores.
        assert peak < 2 * store
        # The store's two bands, one band's vectors on their way in, scratch;
        # the bound dates from a store of three bands.
        assert peak < 4.5 * slab + scratch


def test_package_exports_matcher_api():
    assert set(matcher.__all__) <= set(pyrstereo.__all__)
    assert pyrstereo.LevelTrace is matcher.LevelTrace
    assert set(pyrstereo.__all__) == {
        "BAD_THRESHOLDS", "CalibInfo", "ConfigError", "CostEngine",
        "DecodeError", "EvalReport", "LevelTrace",
        "MalformedHeaderError", "MatchConfig", "MissingKeyError", "PipelineTrace",
        "PyramidLevel", "TruncatedPayloadError",
        "UnsupportedMaxvalError", "auto_levels", "baseline_bm", "build_pyramid",
        "evaluate", "gaussian_downsample", "interior_mask", "level_block", "level_d_max",
        "match_coarsest", "read_calib", "read_pfm", "read_pnm", "refine_level",
        "run_pipeline", "selective_median", "shifted_pair",
        "upsample_prior", "write_pfm", "write_pgm",
    }
    # A name that is no longer exported would otherwise bind its submodule
    # (pyrstereo.zncc) and fail only when called.
    assert not any(inspect.ismodule(getattr(pyrstereo, name)) for name in pyrstereo.__all__)


def test_refine_is_idempotent():
    rng = np.random.default_rng(6)
    left, right = shifted_pair(20, 28, 3, rng, cutoff=0.3)
    engine = CostEngine(left, right, block=3, d_max=6)
    disparity, cost = match_coarsest(engine)
    once_d, once_c = refine_level(engine, disparity, cost, alpha=0.9)
    twice_d, twice_c = refine_level(engine, once_d, once_c, alpha=0.9)
    # Pixels whose stored cost did not cross alpha are reprocessed from the
    # same image content, so a second pass changes nothing.
    crossed = (once_c > 0.9) != (cost > 0.9)
    np.testing.assert_array_equal(twice_d[~crossed], once_d[~crossed])
    np.testing.assert_array_equal(twice_c[~crossed], once_c[~crossed])


def test_stages_accept_read_only_maps():
    """Stages never mutate their inputs: read-only maps pass through unchanged."""
    rng = np.random.default_rng(41)
    left, right = shifted_pair(20, 28, 3, rng, cutoff=0.3)
    engine = CostEngine(left, right, block=3, d_max=6)
    disparity, cost = match_coarsest(engine)
    disparity[0, :2] = np.nan
    assert 0 < np.count_nonzero(cost <= 0.9) < cost.size  # pixels to repair, and to keep
    saved = disparity.copy(), cost.copy()
    for m in (disparity, cost):
        m.setflags(write=False)
    refine_level(engine, disparity, cost, alpha=0.9)
    selective_median(disparity, cost, alpha=0.9)
    upsample_prior(disparity, cost, (40, 56))
    np.testing.assert_array_equal(disparity, saved[0])
    np.testing.assert_array_equal(cost, saved[1])


def test_upsample_nn_doubles_blocks():
    coarse_d = np.array([[1.0, 2.0], [3.0, 4.0]])
    coarse_c = np.full((2, 2), 0.5)
    d_hat, c_hat = upsample_prior(coarse_d, coarse_c, (4, 4))
    expected = [[2, 2, 4, 4], [2, 2, 4, 4], [6, 6, 8, 8], [6, 6, 8, 8]]
    np.testing.assert_array_equal(d_hat, expected)
    np.testing.assert_array_equal(d_hat, naive_nn_double(coarse_d, (4, 4)))


def test_upsample_nn_odd_target():
    coarse = np.arange(6.0).reshape(2, 3)
    d_hat, _ = upsample_prior(coarse, np.zeros((2, 3)), (3, 5))
    np.testing.assert_array_equal(d_hat, naive_nn_double(coarse, (3, 5)))


def test_upsample_propagates_invalid():
    coarse_d = np.array([[1.0, np.nan], [3.0, 4.0]])
    d_hat, _ = upsample_prior(coarse_d, np.zeros((2, 2)), (4, 4))
    assert np.isnan(d_hat[0, 2]) and np.isnan(d_hat[1, 3])
    assert np.isfinite(d_hat[2:, :]).all()


def test_upsample_bilinear_preserves_constants_and_bounds():
    const = np.full((3, 4), 0.37)
    _, c_hat = upsample_prior(np.zeros((3, 4)), const, (6, 8))
    np.testing.assert_allclose(c_hat, 0.37, atol=1e-12)

    # A convex combination per pass: no output leaves its map's range, unclamped.
    rng = np.random.default_rng(34)
    spiky = np.tile(np.array([[1.0, -1.0]]), (4, 4))
    plateaus = rng.uniform(-1.0, 1.0, (19, 24))
    plateaus[3:11, 5:20] = -1.0
    plateaus[12:, :9] = 1.0
    for coarse in (spiky, plateaus, rng.uniform(-1.0, 1.0, (23, 17)) * 1e-3):
        for h, w in ((2 * coarse.shape[0], 2 * coarse.shape[1]),
                     (2 * coarse.shape[0] - 1, 2 * coarse.shape[1] - 1)):
            _, c_hat = upsample_prior(np.zeros(coarse.shape), coarse, (h, w))
            assert coarse.min() <= c_hat.min() and c_hat.max() <= coarse.max()


def test_upsample_bilinear_equals_zoom():
    # Odd and even sizes from 1x2 up, one full-size parent and a 1x1 map.
    rng = np.random.default_rng(33)
    shapes = [tuple(rng.integers(2, 60, size=2)) for _ in range(60)]
    shapes += [(1, 2), (2, 1), (1, 37), (375, 450), (1, 1)]
    for h, w in shapes:
        coarse = rng.uniform(-1.0, 1.0, size=((h + 1) // 2, (w + 1) // 2))
        _, c_hat = upsample_prior(np.zeros(coarse.shape), coarse, (h, w))
        assert c_hat.shape == (h, w) and c_hat.dtype == np.float64
        np.testing.assert_allclose(c_hat, ndimage_linear_upsample(coarse, (h, w)),
                                   rtol=0, atol=2 * np.finfo(float).eps)


def test_upsample_nan_cost_stays_local():
    rng = np.random.default_rng(35)
    coarse = rng.uniform(-1.0, 1.0, (6, 8))
    coarse[2, 3] = np.nan
    _, c_hat = upsample_prior(np.zeros((6, 8)), coarse, (12, 16))
    # Targets 2p-1 .. 2p+2 sample within one coarse pixel of p.
    outside = np.ones((12, 16), dtype=bool)
    outside[3:7, 5:9] = False
    assert np.isfinite(c_hat[outside]).all()
    assert np.isnan(c_hat[~outside]).any()


def test_upsample_rejects_non_dyadic_target():
    with pytest.raises(ValueError):
        upsample_prior(np.zeros((2, 2)), np.zeros((2, 2)), (5, 4))
    with pytest.raises(ValueError):
        upsample_prior(np.zeros((2, 2)), np.zeros((2, 3)), (4, 4))


def test_prior_guided_search_with_perfect_prior():
    rng = np.random.default_rng(7)
    left, right = shifted_pair(24, 40, 5, rng, cutoff=0.1)
    engine = CostEngine(left, right, block=5, d_max=12)
    d_hat = np.full((24, 40), 5.0)
    c_hat = np.full((24, 40), 1.0)
    disparity, cost, stats = unbanded_selection(engine, d_hat, c_hat, 0.9)
    mask = interior_mask(left.shape, 5, 5)
    assert np.mean(disparity[mask] == 5) >= 0.99
    assert stats["trusted"] == 24 * 40
    assert stats["trusted_window_max"] <= 3
    assert stats["selection_evals"] <= 3 * 24 * 40


def test_prior_guided_search_off_by_one_prior():
    rng = np.random.default_rng(8)
    left, right = shifted_pair(24, 40, 6, rng, cutoff=0.1)
    engine = CostEngine(left, right, block=5, d_max=12)
    d_hat = np.full((24, 40), 5.0)  # one below the truth
    c_hat = np.full((24, 40), 1.0)
    disparity, _, _ = unbanded_selection(engine, d_hat, c_hat, 0.9)
    mask = interior_mask(left.shape, 6, 5)
    assert np.mean(disparity[mask] == 6) >= 0.99


def test_prior_guided_search_respects_window():
    rng = np.random.default_rng(9)
    left, right = rng.random((16, 20)), rng.random((16, 20))
    engine = CostEngine(left, right, block=3, d_max=7)
    d_hat = np.full((16, 20), 4.0)
    c_hat = np.full((16, 20), 0.95)
    disparity, _, stats = unbanded_selection(engine, d_hat, c_hat, 0.9)
    assert np.isin(disparity, [3, 4, 5]).all()
    assert stats["trusted_evals"] == 3 * disparity.size


def test_prior_guided_search_without_trust_equals_full_search():
    rng = np.random.default_rng(10)
    left, right = rng.random((14, 18)), rng.random((14, 18))
    engine_a = CostEngine(left, right, block=3, d_max=6)
    engine_b = CostEngine(left, right, block=3, d_max=6)
    d_full, c_full = match_coarsest(engine_a)
    d_hat = np.zeros((14, 18))
    c_hat = np.full((14, 18), -1.0)
    d_sel, c_sel, stats = unbanded_selection(engine_b, d_hat, c_hat, 0.9)
    np.testing.assert_array_equal(d_sel, d_full)
    np.testing.assert_allclose(c_sel, c_full, atol=1e-9)
    assert stats["trusted"] == 0
    assert stats["selection_evals"] == 14 * 18 * 7


def test_prior_guided_search_invalid_prior_falls_back():
    rng = np.random.default_rng(11)
    left, right = rng.random((10, 12)), rng.random((10, 12))
    engine = CostEngine(left, right, block=3, d_max=4)
    d_hat = np.full((10, 12), np.nan)
    c_hat = np.full((10, 12), 1.0)  # trusted cost but unusable prior
    disparity, _, stats = unbanded_selection(engine, d_hat, c_hat, 0.9)
    assert stats["trusted"] == 0
    assert stats["full_search_pixels"] == 120
    assert np.isfinite(disparity).all()


@pytest.mark.parametrize("group", [7, matcher._TRUSTED_GROUP])
def test_trusted_pick_is_first_legal_maximum(monkeypatch, group):
    """Each window keeps its first legal maximum, as a masked argmax does."""
    monkeypatch.setattr(matcher, "_TRUSTED_GROUP", group)
    rng = np.random.default_rng(38)
    h, w, d_max = 12, 20, 6
    engine = CostEngine(rng.random((h, w)), rng.random((h, w)), block=3, d_max=d_max)
    # Centres 0 and d_max start windows at z0 = -1 and d_max - 1, with one
    # candidate outside [0, d_max]; -1 and d_max + 1 leave two outside.
    d_hat = rng.integers(-1, d_max + 2, size=(h, w)).astype(np.float64)
    d_hat[:, 0], d_hat[:, 1] = 0.0, d_max
    window = engine.window

    def planted(rows, cols, z0, nz):
        # Costs on a grid of three values tie most windows, illegal entries too.
        return np.round(window(rows, cols, z0, nz))

    monkeypatch.setattr(engine, "window", planted)
    disparity, cost, trusted, stats = matcher._select_trusted(engine, d_hat, np.ones((h, w)),
                                                              0.9)
    assert trusted.all() and stats["trusted_window_max"] == 3
    ti, tj = np.nonzero(trusted)
    z0 = d_hat[ti, tj].astype(np.intp) - 1
    z = z0[:, np.newaxis] + np.arange(3)
    masked = np.where((z >= 0) & (z <= d_max), window(ti, tj, z0, 3).round(), -2.0)
    pick = np.argmax(masked, axis=1)
    np.testing.assert_array_equal(disparity[ti, tj], z0 + pick)
    np.testing.assert_array_equal(cost[ti, tj], masked[np.arange(ti.shape[0]), pick])
    # Ties among legal maxima, and windows at both ends of the range.
    tied = (masked == masked.max(axis=1, keepdims=True)).sum(axis=1) > 1
    assert tied.sum() > h * w // 4
    assert tied[z0 == -1].any() and tied[z0 == d_max - 1].any()


def test_fallback_reasons_are_counted_apart():
    rng = np.random.default_rng(37)
    left, right = rng.random((6, 10)), rng.random((6, 10))
    engine = CostEngine(left, right, block=3, d_max=4)
    d_hat = np.full((6, 10), 2.0)
    c_hat = np.full((6, 10), 0.95)
    d_hat[0, :3] = [np.nan, np.inf, -np.inf]  # not finite, whatever the cost
    c_hat[0, 1] = 0.1
    c_hat[1, :4] = [0.9, 0.5, np.nan, -1.0]  # at most beta, or NaN
    d_hat[2, :5] = [-2.0, 6.0, 9.0, -1.0, 5.0]  # the first three leave [0, d_max]
    _, _, trusted, stats = matcher._select_trusted(engine, d_hat, c_hat, 0.9)
    assert stats["fallback_nan_prior"] == 3
    assert stats["fallback_low_prior"] == 4
    assert stats["fallback_out_of_range"] == 3
    assert stats["full_search_pixels"] == 10 == 60 - int(trusted.sum())
    assert stats["trusted"] == 50


def test_select_without_prior_is_full_search():
    """A NaN prior, the coarsest level's, trusts nothing: a full search."""
    rng = np.random.default_rng(14)
    left, right = rng.random((15, 19)), rng.random((15, 19))
    engine = CostEngine(left, right, block=3, d_max=7)
    nan = np.full((15, 19), np.nan)
    disparity, cost, stats = unbanded_selection(engine, nan, nan, 0.9)
    expected_d, expected_c = match_coarsest(CostEngine(left, right, block=3, d_max=7))
    np.testing.assert_array_equal(disparity, expected_d)
    np.testing.assert_array_equal(cost, expected_c)
    assert stats["trusted"] == 0
    assert stats["full_search_pixels"] == 15 * 19
    assert stats["selection_evals"] == engine.count == 15 * 19 * 8
    with pytest.raises(ValueError):
        matcher._select_trusted(engine, nan, np.zeros((15, 18)), 0.9)


def test_match_level_with_prior_composes_stages():
    rng = np.random.default_rng(12)
    left, right = shifted_pair(20, 30, 3, rng, cutoff=0.15)
    alpha = beta = 0.9
    engine_a = CostEngine(left, right, block=3, d_max=8)
    engine_b = CostEngine(left, right, block=3, d_max=8)
    d_hat = np.zeros((20, 30))
    c_hat = np.full((20, 30), -1.0)

    got_d, got_c, _ = unbanded_selection(engine_a, d_hat, c_hat, beta)
    got_d, got_c = refine_level(engine_a, got_d, got_c, alpha)
    got_d = selective_median(got_d, got_c, alpha)

    d0, c0 = match_coarsest(engine_b)
    d1, c1 = refine_level(engine_b, d0, c0, alpha)
    expected_d = selective_median(d1, c1, alpha)
    np.testing.assert_array_equal(got_d, expected_d)
    np.testing.assert_allclose(got_c, c1, atol=1e-9)


def test_selective_median_noop_when_confident():
    rng = np.random.default_rng(13)
    disparity = rng.integers(0, 9, size=(9, 9)).astype(float)
    cost = np.full((9, 9), 0.95)
    np.testing.assert_array_equal(selective_median(disparity, cost, 0.9), disparity)


def test_selective_median_unanimous_window():
    disparity = np.full((9, 9), 7.0)
    disparity[4, 4] = 2.0
    cost = np.full((9, 9), 0.99)
    cost[4, 4] = 0.0
    out = selective_median(disparity, cost, 0.9)
    assert out[4, 4] == 7.0


def test_selective_median_no_qualified_neighbors():
    disparity = np.arange(81.0).reshape(9, 9)
    cost = np.zeros((9, 9))
    np.testing.assert_array_equal(selective_median(disparity, cost, 0.9), disparity)


def test_selective_median_matches_window_oracle():
    rng = np.random.default_rng(14)
    for _ in range(25):
        disparity = rng.integers(0, 16, size=(9, 9)).astype(float)
        cost = rng.uniform(-1.0, 1.0, size=(9, 9))
        out = selective_median(disparity, cost, 0.6)
        np.testing.assert_array_equal(out, naive_selective_median(disparity, cost, 0.6))


def test_pipeline_identical_pair():
    rng = np.random.default_rng(15)
    img = shifted_pair(40, 40, 0, rng, cutoff=0.1)[0]
    config = MatchConfig(d_max=8, levels=2, block=5)
    disparity, cost, trace = run_pipeline(img, img, config)
    mask = interior_mask(img.shape, 0, 5, extra=2)
    assert np.mean(disparity[mask] == 0) >= 0.99
    assert len(trace.levels) == 3


def test_pipeline_recovers_constant_shift():
    rng = np.random.default_rng(16)
    left, right = shifted_pair(64, 64, 6, rng, cutoff=0.05)
    config = MatchConfig(d_max=16, levels=2, block=11)
    disparity, cost, trace = run_pipeline(left, right, config)
    mask = interior_mask(left.shape, 6, 11, extra=2)
    assert np.mean(np.abs(disparity[mask] - 6) <= 1) >= 0.95


def test_pipeline_k0_equals_full_search_plus_repairs():
    rng = np.random.default_rng(17)
    left, right = shifted_pair(16, 20, 2, rng, cutoff=0.2)
    config = MatchConfig(d_max=6, levels=0, block=3)
    got_d, got_c, trace = run_pipeline(left, right, config)

    engine = CostEngine(left, right, block=3, d_max=6)
    d0, c0 = match_coarsest(engine)
    d1, c1 = refine_level(engine, d0, c0, config.alpha)
    expected_d = selective_median(d1, c1, config.alpha)
    np.testing.assert_array_equal(got_d, expected_d)
    np.testing.assert_allclose(got_c, c1, atol=1e-12)
    assert len(trace.levels) == 1
    assert trace.levels[0].selection_evals == 16 * 20 * 7


def test_pipeline_trace_identity_and_ranges():
    rng = np.random.default_rng(18)
    left, right = shifted_pair(96, 96, 5, rng, cutoff=0.03)
    config = MatchConfig(d_max=16, levels=2, block=7)
    disparity, cost, trace = run_pipeline(left, right, config)

    assert np.all((disparity >= 0) & (disparity <= 16))
    assert cost.min() >= -1.0 and cost.max() <= 1.0

    for lt in trace.levels:
        assert (lt.fallback_nan_prior + lt.fallback_low_prior + lt.fallback_out_of_range
                == lt.full_search_pixels)
    assert trace.levels[0].fallback_nan_prior == trace.levels[0].pixels
    for lt in trace.levels[1:]:
        assert lt.selection_evals == lt.trusted_evals + lt.full_search_pixels * (lt.d_max + 1)
        assert lt.trusted + lt.full_search_pixels == lt.pixels
        assert lt.trusted_window_max <= 3
        bound = 3 * lt.trusted + (lt.d_max + 1) * (lt.pixels - lt.trusted) + lt.refine_evals
        assert lt.evals <= bound
    coarse = trace.levels[0]
    assert coarse.selection_evals == coarse.pixels * (coarse.d_max + 1)


def test_pipeline_rejects_mismatched_pair():
    with pytest.raises(ValueError):
        run_pipeline(np.zeros((8, 8)), np.zeros((8, 9)), MatchConfig(d_max=4, levels=0))


def test_pipeline_two_plane_scene():
    # Piecewise-constant disparity: a foreground rectangle at 12 over a
    # background at 4.  The left view is composed by sampling the right
    # image at each pixel's true offset, so matching has an exact answer
    # everywhere the sampled column exists.
    rng = np.random.default_rng(24)
    h, w = 128, 160
    canvas = shifted_pair(h, w, 0, rng, cutoff=0.03)[0]
    right = canvas
    true_d = np.full((h, w), 4.0)
    true_d[40:90, 60:120] = 12.0
    cols = (np.arange(w)[np.newaxis, :] - true_d).astype(int)
    valid = cols >= 0
    left = np.where(valid, right[np.arange(h)[:, np.newaxis], np.clip(cols, 0, w - 1)], 0.0)

    config = MatchConfig(d_max=16, levels=2, block=7)
    disparity, cost, trace = run_pipeline(left, right, config)

    # Score away from image borders, the composition margin, and a band
    # around the depth discontinuity where block matching is ill-posed.
    scored = valid & interior_mask((h, w), 12, 7, extra=2)
    edge = np.zeros((h, w), dtype=bool)
    edge[40 - 5 : 90 + 5, 60 - 5 : 120 + 5] = True
    edge[40 + 5 : 90 - 5, 60 + 5 : 120 - 5] = False
    scored &= ~edge
    agree = np.abs(disparity[scored] - true_d[scored]) <= 1
    assert np.mean(agree) >= 0.9


def test_pipeline_paper_sign_convention():
    rng = np.random.default_rng(20)
    # Mirror the pair so that left[i, j] == right[i, j + shift], the
    # geometry the literal (i, j + z) search direction expects.
    right, left = shifted_pair(64, 64, 5, rng, cutoff=0.05)
    config = MatchConfig(d_max=16, levels=2, block=11, sign="paper")
    disparity, _, _ = run_pipeline(left, right, config)
    mask = interior_mask(left.shape, 0, 11, extra=2)
    mask[:, -(5 + 7):] = False  # occluded margin sits on the right here
    assert np.mean(np.abs(disparity[mask] - 5) <= 1) >= 0.95


def _image(kind, shape, rng):
    if kind == "constant":
        return np.full(shape, rng.random())
    if kind == "2-level":
        return rng.integers(0, 2, size=shape).astype(np.float64)
    if kind == "uint8":
        return rng.integers(0, 256, size=shape, dtype=np.uint8)
    return rng.random(shape, dtype=np.float32)


@st.composite
def _pipeline_inputs(draw):
    height = draw(st.integers(1, 50))
    width = draw(st.integers(1, 60))
    d_max = draw(st.integers(1, width + 3))
    kind = draw(st.sampled_from(["constant", "2-level", "uint8", "float32"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _image(kind, (height, width), rng), _image(kind, (height, width), rng), d_max


@settings(max_examples=40, deadline=None)
@given(_pipeline_inputs())
def test_run_pipeline_boundary(inputs):
    left, right, d_max = inputs
    disparity, cost, _ = run_pipeline(left, right, MatchConfig(d_max=d_max))
    assert disparity.shape == cost.shape == left.shape
    assert np.all(disparity == np.round(disparity))
    assert disparity.min() >= 0 and disparity.max() <= d_max
    assert np.all(np.isfinite(cost))
    assert cost.min() >= -1.0 and cost.max() <= 1.0
