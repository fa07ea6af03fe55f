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
    grid_bicubic_upsample,
    loop_full_search,
    naive_nn_double,
    naive_selective_median,
)
from pyrstereo import (
    ConfigError,
    CostEngine,
    MatchConfig,
    build_pyramid,
    interior_mask,
    match_coarsest,
    refine_level,
    run_pipeline,
    select_with_prior,
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
    assert engine.counter.count == 12 * 16 * 6


def test_match_coarsest_equals_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(5):
        left, right = rng.random((14, 14)), rng.random((14, 14))
        engine = CostEngine(left, right, block=5, d_max=6)
        disparity, cost = match_coarsest(engine)
        expected_d, expected_c, evals = loop_full_search(left, right, 6, 5)
        np.testing.assert_array_equal(disparity, expected_d)
        np.testing.assert_allclose(cost, expected_c, atol=1e-9)
        assert evals == engine.counter.count


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
    refined_d, refined_c, _ = refine_level(engine, disparity, cost, alpha=0.9)
    keep = cost > 0.9
    np.testing.assert_array_equal(refined_d[keep], disparity[keep])
    np.testing.assert_array_equal(refined_c[keep], cost[keep])


def test_refine_noop_when_all_confident():
    rng = np.random.default_rng(4)
    img = shifted_pair(12, 18, 0, rng, cutoff=0.2)[0]
    engine = CostEngine(img, img, block=3, d_max=4)
    disparity = np.zeros((12, 18))
    cost = np.full((12, 18), 0.99)
    refined_d, refined_c, _ = refine_level(engine, disparity, cost, alpha=0.9)
    np.testing.assert_array_equal(refined_d, disparity)
    np.testing.assert_array_equal(refined_c, cost)
    assert engine.counter.count == 0


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
    cost[0, 0] = 0.1  # a corner pixel sums its clipped 2x2 neighborhood
    refined_d, refined_c, _ = refine_level(engine, disparity, cost, alpha=0.9)
    assert refined_d[8, 16] == 4.0
    from oracles import naive_averaged_dsi

    expected, members = naive_averaged_dsi(left, right, 8, 16, 1, 8)
    assert members == 9
    assert abs(refined_c[8, 16] - expected.max() / members) <= 1e-9
    expected, members = naive_averaged_dsi(left, right, 0, 0, 1, 8)
    assert members == 4
    assert abs(refined_c[0, 0] - expected.max() / members) <= 1e-9


def _fallback_level():
    """A level whose prior trusts about half the pixels, and its selection."""
    rng = np.random.default_rng(31)
    left, right = shifted_pair(40, 56, 4, rng, cutoff=0.15)
    right = right + 0.05 * rng.standard_normal(right.shape)
    d_hat = np.full(left.shape, 4.0)
    c_hat = rng.uniform(0.5, 1.0, size=left.shape)
    engine = CostEngine(left, right, block=5, d_max=10)
    disparity, cost, stats = select_with_prior(engine, d_hat, c_hat, beta=0.75)
    return left, right, engine, disparity, cost, stats


def test_refine_with_handed_vectors_is_bit_identical():
    left, right, engine, disparity, cost, stats = _fallback_level()
    fi, fj, vectors = stats.vectors
    assert vectors.shape == (stats.full_search_pixels, 11)
    assert 0 < stats.trusted < disparity.size

    before = engine.counter.count
    got_d, got_c, reused = refine_level(engine, disparity, cost, 0.9, stats.vectors)
    evals_with = engine.counter.count - before
    fresh = CostEngine(left, right, block=5, d_max=10)
    want_d, want_c, want_reused = refine_level(fresh, disparity, cost, 0.9)
    np.testing.assert_array_equal(got_d, want_d)
    np.testing.assert_array_equal(got_c, want_c)

    # Reused: the handed vectors inside the 3x3-dilated low set, not counted.
    needed = binary_dilation(cost <= 0.9, structure=np.ones((3, 3), dtype=bool))
    assert want_reused == 0
    assert reused == np.count_nonzero(needed[fi, fj]) > 0
    assert fresh.counter.count - evals_with == reused * 11


def test_pipeline_refine_reuse_is_exact(monkeypatch):
    rng = np.random.default_rng(32)
    left, right = shifted_pair(96, 128, 6, rng, cutoff=0.05)
    right = right + 0.1 * rng.standard_normal(right.shape)
    config = MatchConfig(d_max=24, levels=2, block=7)
    got_d, got_c, got = run_pipeline(left, right, config)

    recompute = matcher.refine_level
    monkeypatch.setattr(matcher, "refine_level",
                        lambda engine, d, c, alpha, vectors=None: recompute(engine, d, c, alpha))
    want_d, want_c, want = run_pipeline(left, right, config)
    np.testing.assert_array_equal(got_d, want_d)
    np.testing.assert_array_equal(got_c, want_c)
    assert got.levels[0].refine_reused == 0  # the coarsest level searches by planes
    assert sum(lt.refine_reused for lt in got.levels) > 0
    for a, b in zip(got.levels, want.levels):
        assert b.refine_reused == 0
        assert a.refine_reused <= a.full_search_pixels
        assert b.refine_evals - a.refine_evals == a.refine_reused * (a.d_max + 1)
        assert a.to_dict()["refine_reused"] == a.refine_reused
    assert want.total_evals - got.total_evals == sum(
        lt.refine_reused * (lt.d_max + 1) for lt in got.levels)


def test_refine_peak_is_one_vector_store():
    """Refine holds the needed cost vectors once, plus bounded scratch."""
    rng = np.random.default_rng(30)
    h, w, d_max = 200, 240, 32
    engine = CostEngine(rng.random((h, w)), rng.random((h, w)), block=5, d_max=d_max)
    disparity = np.zeros((h, w))
    cost = np.zeros((h, w))  # every pixel is low, so every vector is needed
    store = h * w * (d_max + 1) * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        refine_level(engine, disparity, cost, alpha=0.9)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # Summing all neighbors at once held four such stores.
    assert peak < 2 * store


def test_package_exports_matcher_api():
    assert set(matcher.__all__) <= set(pyrstereo.__all__)
    assert pyrstereo.SelectionStats is matcher.SelectionStats
    assert set(pyrstereo.__all__) == {
        "BAD_THRESHOLDS", "CalibInfo", "ConfigError", "CostEngine",
        "DecodeError", "EvalReport", "GroundTruthDisparity", "LevelTrace",
        "MalformedHeaderError", "MatchConfig", "MissingKeyError", "PipelineTrace",
        "PyramidLevel", "SelectionStats", "TruncatedPayloadError",
        "UnsupportedMaxvalError", "auto_levels", "baseline_bm", "build_pyramid",
        "evaluate", "gaussian_downsample", "interior_mask", "level_block", "level_d_max",
        "match_coarsest", "read_calib", "read_pfm", "read_pnm", "refine_level",
        "run_pipeline", "select_with_prior", "selective_median", "shifted_pair",
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
    once_d, once_c, _ = refine_level(engine, disparity, cost, alpha=0.9)
    twice_d, twice_c, _ = refine_level(engine, once_d, once_c, alpha=0.9)
    # Pixels whose stored cost did not cross alpha are reprocessed from the
    # same image content, so a second pass changes nothing.
    crossed = (once_c > 0.9) != (cost > 0.9)
    np.testing.assert_array_equal(twice_d[~crossed], once_d[~crossed])
    np.testing.assert_array_equal(twice_c[~crossed], once_c[~crossed])


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


def test_upsample_bicubic_preserves_constants_and_clamps():
    const = np.full((3, 4), 0.37)
    _, c_hat = upsample_prior(np.zeros((3, 4)), const, (6, 8))
    np.testing.assert_allclose(c_hat, 0.37, atol=1e-12)

    spiky = np.tile(np.array([[1.0, -1.0]]), (4, 4))
    _, c_hat = upsample_prior(np.zeros((4, 8)), spiky, (8, 16))
    assert c_hat.min() >= -1.0
    assert c_hat.max() <= 1.0


def test_upsample_bicubic_equals_grid_sampling():
    # Odd and even sizes from 1x2 up, and one full-size parent.
    rng = np.random.default_rng(33)
    shapes = [tuple(rng.integers(2, 60, size=2)) for _ in range(60)]
    shapes += [(1, 2), (2, 1), (1, 37), (375, 450)]
    for h, w in shapes:
        coarse = rng.uniform(-1.0, 1.0, size=((h + 1) // 2, (w + 1) // 2))
        _, c_hat = upsample_prior(np.zeros(coarse.shape), coarse, (h, w))
        np.testing.assert_array_equal(c_hat, grid_bicubic_upsample(coarse, (h, w)))
    # A 1x1 map is returned as it is; sampling it on the grid is 1 ulp off.
    coarse = np.array([[0.9009273926518706]])
    _, c_hat = upsample_prior(np.zeros((1, 1)), coarse, (1, 1))
    np.testing.assert_array_equal(c_hat, coarse)


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
    disparity, cost, stats = select_with_prior(engine, d_hat, c_hat, beta=0.9)
    mask = interior_mask(left.shape, 5, 5)
    assert np.mean(disparity[mask] == 5) >= 0.99
    assert stats.trusted == 24 * 40
    assert stats.trusted_window_max <= 3
    assert stats.selection_evals <= 3 * 24 * 40


def test_prior_guided_search_off_by_one_prior():
    rng = np.random.default_rng(8)
    left, right = shifted_pair(24, 40, 6, rng, cutoff=0.1)
    engine = CostEngine(left, right, block=5, d_max=12)
    d_hat = np.full((24, 40), 5.0)  # one below the truth
    c_hat = np.full((24, 40), 1.0)
    disparity, _, _ = select_with_prior(engine, d_hat, c_hat, beta=0.9)
    mask = interior_mask(left.shape, 6, 5)
    assert np.mean(disparity[mask] == 6) >= 0.99


def test_prior_guided_search_respects_window():
    rng = np.random.default_rng(9)
    left, right = rng.random((16, 20)), rng.random((16, 20))
    engine = CostEngine(left, right, block=3, d_max=7)
    d_hat = np.full((16, 20), 4.0)
    c_hat = np.full((16, 20), 0.95)
    disparity, _, stats = select_with_prior(engine, d_hat, c_hat, beta=0.9)
    assert np.isin(disparity, [3, 4, 5]).all()
    assert stats.trusted_evals == 3 * disparity.size


def test_prior_guided_search_without_trust_equals_full_search():
    rng = np.random.default_rng(10)
    left, right = rng.random((14, 18)), rng.random((14, 18))
    engine_a = CostEngine(left, right, block=3, d_max=6)
    engine_b = CostEngine(left, right, block=3, d_max=6)
    d_full, c_full = match_coarsest(engine_a)
    d_hat = np.zeros((14, 18))
    c_hat = np.full((14, 18), -1.0)
    d_sel, c_sel, stats = select_with_prior(engine_b, d_hat, c_hat, beta=0.9)
    np.testing.assert_array_equal(d_sel, d_full)
    np.testing.assert_allclose(c_sel, c_full, atol=1e-9)
    assert stats.trusted == 0
    assert stats.selection_evals == 14 * 18 * 7


def test_prior_guided_search_invalid_prior_falls_back():
    rng = np.random.default_rng(11)
    left, right = rng.random((10, 12)), rng.random((10, 12))
    engine = CostEngine(left, right, block=3, d_max=4)
    d_hat = np.full((10, 12), np.nan)
    c_hat = np.full((10, 12), 1.0)  # trusted cost but unusable prior
    disparity, _, stats = select_with_prior(engine, d_hat, c_hat, beta=0.9)
    assert stats.trusted == 0
    assert stats.full_search_pixels == 120
    assert np.isfinite(disparity).all()


def test_select_without_prior_is_full_search():
    rng = np.random.default_rng(14)
    left, right = rng.random((15, 19)), rng.random((15, 19))
    engine = CostEngine(left, right, block=3, d_max=7)
    disparity, cost, stats = select_with_prior(engine, None, None, beta=0.9)
    expected_d, expected_c = match_coarsest(CostEngine(left, right, block=3, d_max=7))
    np.testing.assert_array_equal(disparity, expected_d)
    np.testing.assert_array_equal(cost, expected_c)
    assert stats.trusted == 0
    assert stats.full_search_pixels == 15 * 19
    assert stats.selection_evals == engine.counter.count == 15 * 19 * 8
    with pytest.raises(ValueError):
        select_with_prior(engine, None, np.zeros((15, 19)), beta=0.9)


def test_match_level_with_prior_composes_stages():
    rng = np.random.default_rng(12)
    left, right = shifted_pair(20, 30, 3, rng, cutoff=0.15)
    alpha = beta = 0.9
    engine_a = CostEngine(left, right, block=3, d_max=8)
    engine_b = CostEngine(left, right, block=3, d_max=8)
    d_hat = np.zeros((20, 30))
    c_hat = np.full((20, 30), -1.0)

    got_d, got_c, _ = select_with_prior(engine_a, d_hat, c_hat, beta)
    got_d, got_c, _ = refine_level(engine_a, got_d, got_c, alpha)
    got_d = selective_median(got_d, got_c, alpha)

    d0, c0 = match_coarsest(engine_b)
    d1, c1, _ = refine_level(engine_b, d0, c0, alpha)
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
    d1, c1, _ = refine_level(engine, d0, c0, config.alpha)
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
