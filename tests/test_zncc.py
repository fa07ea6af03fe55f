"""ZNCC cost, cost-engine and evaluation-count tests."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fsum_zncc, naive_cost, naive_dsi_vector
from pyrstereo import (
    CostEngine,
    MatchConfig,
    baseline_bm,
    build_pyramid,
    run_pipeline,
    shifted_pair,
)
from pyrstereo.cli import EXIT_CONFIG, main
from pyrstereo.zncc import _GATHER_CHUNK, _LONG_WINDOW, _REACH, SIGMA_EPS, level_budget


def _random_images(rng, h=9, w=9):
    return rng.random((h, w)), rng.random((h, w))


def test_self_correlation_is_one():
    rng = np.random.default_rng(0)
    for _ in range(50):
        img = rng.random((9, 9))
        i, j = rng.integers(2, 7, size=2)
        assert abs(CostEngine(img, img, block=5, d_max=0).plane(0)[i, j] - 1.0) <= 1e-9


def test_symmetry():
    # Swapping the images swaps the sign convention: the left block at
    # (i, ja) against the right one at (i, jb) is the cost of the swapped
    # pair at (i, jb) with the other sign.
    rng = np.random.default_rng(1)
    for _ in range(50):
        left, right = _random_images(rng)
        i = int(rng.integers(0, 9))
        ja, jb = (int(c) for c in rng.integers(0, 9, size=2))
        z = abs(ja - jb)
        signs = ("middlebury", "paper") if ja >= jb else ("paper", "middlebury")
        a = CostEngine(left, right, block=5, d_max=z, sign=signs[0]).window([i], [ja], z, 1)
        b = CostEngine(right, left, block=5, d_max=z, sign=signs[1]).window([i], [jb], z, 1)
        assert abs(a[0, 0] - b[0, 0]) <= 1e-12


def test_affine_invariance():
    rng = np.random.default_rng(2)
    for _ in range(50):
        img = rng.random((11, 11))
        gain = float(rng.uniform(0.2, 5.0))
        offset = float(rng.uniform(-2.0, 2.0))
        center = tuple(rng.integers(3, 8, size=2))
        up = CostEngine(img, gain * img + offset, block=7, d_max=0).plane(0)[center]
        down = CostEngine(img, -gain * img + offset, block=7, d_max=0).plane(0)[center]
        assert abs(up - 1.0) <= 1e-6
        assert abs(down + 1.0) <= 1e-6


@pytest.mark.parametrize("sign", ["middlebury", "paper"])
@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("deviation", [0.0, 3e-7, 3e-6])
def test_degenerate_patch_rule(deviation, side, sign):
    """Below SIGMA_EPS a block costs exactly -1 on every path, as does a right block
    outside the image; just above it the cost is the oracle's."""
    rng = np.random.default_rng(3)
    h, w, d_max, block = 9, 40, 11, 5
    half = block // 2
    assert d_max + 1 >= _LONG_WINDOW  # so dsi_rows runs the long layout
    # Both images lie around 0.5, the shared offset, and the tested side is
    # nearly flat (a 1e-3 texture), so the box filters' running sums carry
    # little roundoff into a tiny deviation.
    textured = rng.random((h, w))
    textured += 0.5 - textured.mean()
    tested = 0.5 + 1e-3 * (rng.random((h, w)) - 0.5)
    # A +-deviation checkerboard in columns 14..25, every row: each block
    # inside it has a deviation within 0.1% of ``deviation``.
    patch = np.arange(14, 26)
    tested[:, patch] = 0.5 + deviation * (-1.0) ** np.add.outer(np.arange(h), patch)
    left, right = (tested, textured) if side == "left" else (textured, tested)
    inside = np.zeros(w, dtype=bool)  # block centres whose block lies in the patch
    inside[patch[half]:patch[-half - 1] + 1] = True
    engine = CostEngine(left, right, block=block, d_max=d_max, sign=sign)

    rows = np.repeat([0, 4, 8], w)
    cols = np.tile(np.arange(w), 3)
    z = np.arange(d_max + 1)
    right_col = cols[:, None] - z if sign == "middlebury" else cols[:, None] + z
    outside = (right_col < 0) | (right_col >= w)
    centre = np.broadcast_to(cols[:, None], right_col.shape) if side == "left" else right_col
    floor = outside | (inside[np.clip(centre, 0, w - 1)] & (deviation < SIGMA_EPS))
    assert floor[~outside].any() == (deviation < SIGMA_EPS)

    plane = np.stack([engine.plane(d)[rows, cols] for d in z], axis=1)
    vectors = engine.dsi_rows(rows, cols)
    z0 = rng.integers(0, d_max - 1, rows.shape[0])
    windows = engine.window(rows, cols, z0, 3)
    for k, (i, j) in enumerate(zip(rows, cols)):
        for d in z:
            got = [plane[k, d], vectors[k, d]]
            if 0 <= d - z0[k] < 3:
                got.append(windows[k, d - z0[k]])
            if floor[k, d]:
                assert got == [-1.0] * len(got)
            else:
                expected = naive_cost(left, right, i, j, d, half, sign=sign)
                assert max(abs(g - expected) for g in got) <= 1e-9


def test_specific_patches_match_fsum_oracle():
    rng = np.random.default_rng(4)
    for _ in range(30):
        left, right = _random_images(rng, 5, 5)
        value = CostEngine(left, right, block=3, d_max=0).plane(0)[2, 2]
        expected = fsum_zncc(left[1:4, 1:4], right[1:4, 1:4])
        assert abs(value - expected) <= 1e-12


def test_dsi_entry_identity_pair():
    rng = np.random.default_rng(6)
    img = rng.random((10, 12))
    engine = CostEngine(img, img, block=3, d_max=4)
    rows, cols = np.mgrid[1:9, 1:11]
    np.testing.assert_allclose(engine.window(rows, cols, 0, 1), 1.0, rtol=0, atol=1e-9)


def test_dsi_entry_constant_shift():
    rng = np.random.default_rng(7)
    left, right = shifted_pair(12, 24, 3, rng, cutoff=0.2)
    engine = CostEngine(left, right, block=3, d_max=6)
    rows, cols = np.mgrid[2:10, 6:20]
    np.testing.assert_allclose(engine.window(rows, cols, 3, 1), 1.0, rtol=0, atol=1e-9)


def test_dsi_entry_out_of_range_column():
    rng = np.random.default_rng(8)
    left, right = _random_images(rng, 8, 8)
    engine = CostEngine(left, right, block=3, d_max=6)
    assert engine.window([4], [2], 5, 1)[0, 0] == -1.0  # right center column 2-5 < 0
    with pytest.raises(ValueError):
        engine.plane(7)  # beyond d_max


def test_paper_sign_convention():
    rng = np.random.default_rng(9)
    # Under the literal form the right patch sits at (i, j + z): build the
    # mirrored pair where left[i, j] == right[i, j + shift].
    right, left = shifted_pair(12, 24, 3, rng, cutoff=0.2)
    engine = CostEngine(left, right, block=3, d_max=6, sign="paper")
    rows, cols = np.mgrid[2:10, 4:18]
    np.testing.assert_allclose(engine.window(rows, cols, 3, 1), 1.0, rtol=0, atol=1e-9)


def test_plane_and_gather_match_naive_dsi():
    rng = np.random.default_rng(10)
    left, right = _random_images(rng, 8, 10)
    engine = CostEngine(left, right, block=3, d_max=5)
    for z in range(6):
        plane = engine.plane(z)
        for i in range(8):
            for j in range(10):
                expected = naive_dsi_vector(left, right, i, j, 1, 5)[z]
                assert abs(plane[i, j] - expected) <= 1e-9
    rows = engine.dsi_rows(np.repeat(np.arange(8), 10), np.tile(np.arange(10), 8))
    for idx in range(80):
        i, j = divmod(idx, 10)
        np.testing.assert_allclose(
            rows[idx], naive_dsi_vector(left, right, i, j, 1, 5), atol=1e-9
        )


@st.composite
def _dsi_requests(draw, max_height=5):
    """A small pair, an engine setting and a request of pixels.

    Shapes go down to one row and widths below d_max; grey levels are
    quantized so constant (degenerate) blocks occur, or continuous so sums
    round.  The request lists every pixel, borders included, in a random
    order, plus repeats.
    """
    block = draw(st.sampled_from([3, 5, 11]))
    height = draw(st.integers(1, max_height))
    width = draw(st.integers(1, 8))
    d_max = draw(st.integers(0, width + 3))
    sign = draw(st.sampled_from(["middlebury", "paper"]))
    levels = draw(st.sampled_from([0, 1, 2, 16, 1 << 16]))  # 0: continuous
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if levels:
        left, right = rng.integers(0, levels, size=(2, height, width)) / levels
    else:
        left, right = rng.random((2, height, width))
    pixels = rng.permutation(height * width)
    pixels = np.concatenate([pixels, rng.choice(pixels, size=rng.integers(0, 4))])
    rows, cols = np.divmod(pixels, width)
    return left, right, block, d_max, sign, rows, cols


@settings(max_examples=40, deadline=None)
@given(_dsi_requests())
def test_dsi_rows_matches_naive_vectors(request):
    left, right, block, d_max, sign, rows, cols = request
    engine = CostEngine(left, right, block=block, d_max=d_max, sign=sign)
    got = engine.dsi_rows(rows, cols)
    assert got.shape == (rows.shape[0], d_max + 1)
    assert engine.count == rows.shape[0] * (d_max + 1)
    for k, (i, j) in enumerate(zip(rows, cols)):
        expected = naive_dsi_vector(left, right, i, j, block // 2, d_max, sign=sign)
        np.testing.assert_allclose(got[k], expected, rtol=0, atol=1e-9)


@st.composite
def _plane_splits(draw):
    """A pair and engine setting as in _dsi_requests, the row starts of
    adjacent row ranges, the starts of runs of disparities, and a pass size
    in entries, from one row of one disparity to the whole level.  Ranges
    and passes come shorter and longer than the b-1 rows they carry."""
    left, right, block, d_max, sign, _, _ = draw(_dsi_requests(max_height=16))
    height = left.shape[0]
    tops = draw(st.sets(st.integers(1, height), max_size=5)) - {height}
    starts = draw(st.sets(st.integers(1, d_max + 1), max_size=4)) - {d_max + 1}
    entries = draw(st.one_of(st.integers(1, 64), st.just(1 << 16)))
    return (left, right, block, d_max, sign, [0, *sorted(tops), height],
            [0, *sorted(starts), d_max + 1], entries)


@settings(max_examples=60, deadline=None)
@given(_plane_splits())
def test_planes_in_any_split_match_plane_and_naive_costs(split):
    # The costs kernel over each run of disparities, pixel-major, range by
    # range: ranges shorter than the b-1 rows they carry, passes of one row
    # or more (rings of b-1 rows, or a pass's rows beside them), and runs
    # written into strided views of one volume.
    left, right, block, d_max, sign, tops, starts, entries = split
    height, width = left.shape
    engine = CostEngine(left, right, block=block, d_max=d_max, sign=sign)
    got = np.empty((height, width, d_max + 1))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("pyrstereo.zncc._PASS_ENTRIES", entries)
        for z0, z1 in zip(starts, starts[1:]):
            ring = None
            for top, bottom in zip(tops, tops[1:]):
                carried = ring
                ring = engine._costs(z0, top, got[top:bottom, :, z0:z1], ring)
                assert ring.shape[1:] == (width, z1 - z0) and ring.shape[0] >= block - 1
                assert carried is None or ring is carried  # carried, not copied
    assert engine.count == got.size
    for z in range(d_max + 1):
        np.testing.assert_array_equal(got[..., z], engine.plane(z))
        for i in range(height):
            for j in range(width):
                expected = naive_cost(left, right, i, j, z, block // 2, sign=sign)
                assert abs(got[i, j, z] - expected) <= 1e-9


@st.composite
def _window_requests(draw):
    """A request as in _dsi_requests plus a window length and one start per
    pixel, reaching up to _REACH disparities past [0, d_max] on both sides."""
    left, right, block, d_max, sign, rows, cols = draw(_dsi_requests())
    nz = draw(st.integers(1, d_max + 1 + 2 * _REACH))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z0 = rng.integers(-_REACH, d_max + _REACH - nz + 2, size=rows.shape[0])
    return left, right, block, d_max, sign, rows, cols, z0, nz


@settings(max_examples=60, deadline=None)
@given(_window_requests())
def test_window_matches_naive_costs(request):
    left, right, block, d_max, sign, rows, cols, z0, nz = request
    engine = CostEngine(left, right, block=block, d_max=d_max, sign=sign)
    got = engine.window(rows, cols, z0, nz)
    assert got.shape == (rows.shape[0], nz)
    legal = 0
    for k, (i, j) in enumerate(zip(rows, cols)):
        for m in range(nz):
            z = z0[k] + m
            legal += 0 <= z <= d_max
            expected = naive_cost(left, right, i, j, z, block // 2, sign=sign)
            assert abs(got[k, m] - expected) <= 1e-9
    # Entries outside [0, d_max] follow the cost rule but are not counted.
    assert engine.count == legal
    # Every path gives the same bits for the same entry.
    full = engine.dsi_rows(rows, cols)
    for z in range(d_max + 1):
        single = engine.window(rows, cols, z, 1)[:, 0]
        assert np.array_equal(engine.plane(z)[rows, cols], single)
        assert np.array_equal(full[:, z], single)
    z = z0[:, np.newaxis] + np.arange(nz)
    inside = (z >= 0) & (z <= d_max)
    assert np.array_equal(got[inside], full[np.nonzero(inside)[0], z[inside]])


def test_bright_low_contrast_pair_matches_oracle():
    # Around 0.9 the deviations are 3e-5: sums of the raw intensities would
    # cancel them, and a running-sum table would lose more the larger the
    # image is.
    rng = np.random.default_rng(31)
    height, width, shift = 1000, 1500, 5
    noise = 0.9 + 3e-5 * rng.standard_normal((height, width + shift))
    left, right = noise[:, :width], noise[:, shift:]
    engine = CostEngine(left, right, block=11, d_max=8)
    rows = rng.integers(0, height, size=20)
    cols = rng.integers(0, width, size=20)
    windows = engine.window(rows, cols, 0, 9)
    for z in range(9):
        plane = engine.plane(z)[rows, cols]
        for k, (i, j) in enumerate(zip(rows, cols)):
            expected = naive_cost(left, right, i, j, z, 5)
            assert abs(plane[k] - expected) <= 1e-9
            assert abs(windows[k, z] - expected) <= 1e-9


def test_window_rejects_reach_beyond_padding():
    rng = np.random.default_rng(20)
    left, right = _random_images(rng, 6, 8)
    engine = CostEngine(left, right, block=3, d_max=4)
    for z0, nz in [(-_REACH - 1, 3), (4, 3 + _REACH), (0, 0)]:
        with pytest.raises(ValueError):
            engine.window(np.array([2]), np.array([3]), z0, nz)
    # Flat indices would wrap or clip silently: pixels must lie in the level.
    for i, j in [(-1, 3), (6, 3), (2, -1), (2, 8)]:
        with pytest.raises(ValueError, match="outside"):
            engine.window(np.array([i]), np.array([j]), 0, 3)
    # An empty request, with a scalar or a per-pixel start, computes nothing.
    empty = np.zeros(0, dtype=np.intp)
    for nz in (1, 3, 5):
        for z0 in (0, empty):
            assert engine.window(empty, empty, z0, nz).shape == (0, nz)
            out = np.empty((0, nz))
            assert engine.window(empty, empty, z0, nz, out=out) is out
    assert engine.dsi_rows(empty, empty).shape == (0, 5)
    out = np.empty((0, 5))
    assert engine.dsi_rows(empty, empty, out=out) is out
    assert engine.count == 0


@pytest.mark.parametrize("nz", [3, _LONG_WINDOW + 1])
def test_window_writes_into_out(nz):
    """Costs written into ``out`` are the returned array's bits, in either layout."""
    rng = np.random.default_rng(22)
    left, right = _random_images(rng, 12, 16)
    engine = CostEngine(left, right, block=3, d_max=nz + 2)
    rows, cols = np.divmod(rng.permutation(12 * 16)[:50], 16)
    z0 = rng.integers(-1, 3, size=50)
    want = engine.window(rows, cols, z0, nz)
    store = np.full((60, nz), np.nan)
    view = store[5:55]
    assert engine.window(rows, cols, z0, nz, out=view) is view
    np.testing.assert_array_equal(view, want)
    assert np.isnan(store[:5]).all() and np.isnan(store[55:]).all()
    full = np.empty((50, nz + 3))
    np.testing.assert_array_equal(engine.dsi_rows(rows, cols, out=full),
                                  engine.dsi_rows(rows, cols))
    count = engine.count
    for bad in (np.empty((49, nz)), np.empty((50, nz + 1)), np.empty(50 * nz),
                np.empty((100, nz))[::2], np.empty((50, nz), dtype=np.float32)):
        with pytest.raises(ValueError, match="out"):
            engine.window(rows, cols, z0, nz, out=bad)
    assert engine.count == count


# Kernel chunks of 1, 64 and 1000 gathered entries split (column, z0) runs:
# one pixel a chunk, a few, a few dozen.
SPLITTING_CHUNKS = (1, 64, 1000)


def _gathered_at_least(nz, block):
    """Entries the window kernel gathers for any pixel: one new block row, statistics."""
    return nz + 2 * block - 1 + 2 * (nz + 1)


def _gather_budget(height, width):
    """Entries one pass of the window kernel gathers on a level of this size."""
    return level_budget(_GATHER_CHUNK, height * width, 8)


def _window_bits(sign):
    # Three-candidate windows, more than one pass of the kernel, starts
    # shared by vertical neighbors as an upsampled prior gives them.
    rng = np.random.default_rng(21)
    width = 64
    height = _GATHER_CHUNK // (_gathered_at_least(3, 5) * width) + 3
    assert height * width * _gathered_at_least(3, 5) > 2 * _gather_budget(height, width)
    left, right = _random_images(rng, height, width)
    engine = CostEngine(left, right, block=5, d_max=9, sign=sign)
    starts = np.repeat(rng.integers(-1, 10, size=(height + 1) // 2), 2)[:height]
    pixels = rng.permutation(height * width)
    rows, cols = np.divmod(pixels, width)
    z0 = starts[rows]
    whole = engine.window(rows, cols, z0, 3)

    subset = rng.choice(pixels.shape[0], size=300, replace=False)
    np.testing.assert_array_equal(engine.window(rows[subset], cols[subset], z0[subset], 3),
                                  whole[subset])
    for k in subset[:5]:
        np.testing.assert_array_equal(
            engine.window(rows[k:k + 1], cols[k:k + 1], z0[k], 3)[0], whole[k])
    # Window length changes no entry: the same bits as full vectors and
    # single-disparity windows.
    full = engine.dsi_rows(rows[subset], cols[subset])
    for m in range(3):
        z = z0[subset] + m
        legal = (z >= 0) & (z <= 9)
        np.testing.assert_array_equal(whole[subset][legal, m], full[legal, z[legal]])
        np.testing.assert_array_equal(
            engine.window(rows[subset][legal], cols[subset][legal], z[legal], 1)[:, 0],
            whole[subset][legal, m])
    return whole


@pytest.mark.parametrize("sign", ["middlebury", "paper"])
def test_window_independent_of_request(sign, monkeypatch):
    whole = _window_bits(sign)
    for chunk in SPLITTING_CHUNKS:
        monkeypatch.setattr("pyrstereo.zncc._GATHER_CHUNK", chunk)
        np.testing.assert_array_equal(_window_bits(sign), whole)


def _dsi_rows_bits(sign):
    # More pixels than one chunk of the row-shared kernel holds.
    rng = np.random.default_rng(19)
    width = 64
    height = _GATHER_CHUNK // (_gathered_at_least(7, 5) * width) + 3
    assert height * width * _gathered_at_least(7, 5) > 2 * _gather_budget(height, width)
    left, right = _random_images(rng, height, width)
    engine = CostEngine(left, right, block=5, d_max=6, sign=sign)
    pixels = rng.permutation(height * width)
    rows, cols = np.divmod(pixels, width)
    whole = engine.dsi_rows(rows, cols)
    assert engine.count == height * width * 7

    subset = rng.choice(pixels.shape[0], size=300, replace=False)
    part = engine.dsi_rows(rows[subset], cols[subset])
    np.testing.assert_array_equal(part, whole[subset])
    for k in subset[:5]:
        np.testing.assert_array_equal(engine.dsi_rows(rows[k:k + 1], cols[k:k + 1])[0],
                                      whole[k])
    assert engine.count == (height * width + 300 + 5) * 7
    return whole


@pytest.mark.parametrize("sign", ["middlebury", "paper"])
def test_dsi_rows_vector_independent_of_request(sign, monkeypatch):
    whole = _dsi_rows_bits(sign)
    for chunk in SPLITTING_CHUNKS:
        monkeypatch.setattr("pyrstereo.zncc._GATHER_CHUNK", chunk)
        np.testing.assert_array_equal(_dsi_rows_bits(sign), whole)


def test_window_scratch_is_bounded_by_the_gather_budget():
    """Pixels that share no block rows still gather about one budget per chunk."""
    rng = np.random.default_rng(42)
    h, w, block, nz = 330, 200, 11, 3
    engine = CostEngine(*_random_images(rng, h, w), block=block, d_max=16)
    # One pixel every block rows down each column: all b block rows are new.
    rows, cols = np.divmod(np.arange(h // block * w), w)
    rows *= block
    isolated = block * (nz + 2 * block - 1) + 2 * (nz + 1)  # entries each pixel gathers
    assert _gather_budget(h, w) == _GATHER_CHUNK  # a level this large runs at the cap
    assert rows.size * isolated > 4 * _GATHER_CHUNK
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        engine.window(rows, cols, 5, nz)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # The call's per-pixel arrays (sort keys, order, block-row counts, the
    # output), then one chunk's scratch.  Chunks of a fixed number of
    # output entries gathered all 11 block rows of 5,461 pixels: 14.2 MiB.
    assert peak < rows.size * 16 * 8 + 1.25 * _GATHER_CHUNK * 8


def test_window_scratch_scales_with_a_small_level():
    """On a level smaller than the cap allows for, a pass gathers 8 entries per level pixel."""
    rng = np.random.default_rng(43)
    h, w, block, d_max = 88, 128, 11, 12
    engine = CostEngine(*_random_images(rng, h, w), block=block, d_max=d_max)
    # Every pixel at three candidates, starts shared down columns, as a
    # trusted selection asks for them.
    rows, cols = np.divmod(np.arange(h * w), w)
    z0 = rng.integers(-1, d_max, size=w)[cols]
    assert _gather_budget(h, w) == 8 * h * w < _GATHER_CHUNK
    assert rows.size * _gathered_at_least(3, block) > 3 * _gather_budget(h, w)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        engine.window(rows, cols, z0, 3)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # The call's per-pixel arrays, then one pass's scratch.  Passes of
    # _GATHER_CHUNK entries, 2 MiB, held more than the level's maps.
    assert peak < rows.size * 16 * 8 + 1.25 * 8 * h * w * 8


def test_engine_constructor_transient_is_two_images():
    """The constructor holds at most about two level images beyond what the engine keeps."""
    rng = np.random.default_rng(44)
    h, w = 375, 450
    left, right = _random_images(rng, h, w)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        engine = CostEngine(left, right, block=11, d_max=64)
        kept, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    # Centred copies of both images and the right statistics unpadded
    # beside their padded copies took 4.0 images.
    assert peak - kept <= 2.25 * h * w * 8
    del engine


def test_costs_stay_in_range():
    rng = np.random.default_rng(11)
    left, right = _random_images(rng, 16, 16)
    engine = CostEngine(left, right, block=5, d_max=8)
    volume = np.stack([engine.plane(z) for z in range(9)])
    assert volume.min() >= -1.0
    assert volume.max() <= 1.0


def test_counter_counts_every_entry():
    rng = np.random.default_rng(12)
    left, right = _random_images(rng, 8, 8)
    engine = CostEngine(left, right, block=3, d_max=4)
    engine.plane(0)
    assert engine.count == 64
    engine.window(np.array([1, 2, 3]), np.array([1, 2, 3]), np.array([0, 1, 2]), 1)
    assert engine.count == 64 + 3
    engine.dsi_rows(np.array([1]), np.array([2]))
    assert engine.count == 64 + 3 + 5
    engine.window(np.array([0]), np.array([0]), 0, 1)
    assert engine.count == 64 + 3 + 5 + 1


def test_identical_neighbor_vectors_keep_argmax():
    # When all nine neighborhood members share one cost vector the sum is
    # 9x that vector, so the selected disparity cannot change.
    rng = np.random.default_rng(16)
    for _ in range(100):
        vec = rng.uniform(-1.0, 1.0, size=7)
        summed = np.sum(np.tile(vec, (9, 1)), axis=0)
        np.testing.assert_allclose(summed, 9.0 * vec, rtol=1e-15)
        assert np.argmax(summed) == np.argmax(vec)


def test_argmax_invariant_under_positive_scaling():
    rng = np.random.default_rng(15)
    for _ in range(100):
        costs = rng.uniform(-1.0, 1.0, size=9)
        scale = float(rng.uniform(0.01, 50.0))
        assert np.argmax(costs) == np.argmax(scale * costs)


def test_engine_validation():
    img = np.zeros((6, 6))
    with pytest.raises(ValueError):
        CostEngine(img, np.zeros((6, 7)), block=3, d_max=4)
    with pytest.raises(ValueError):
        CostEngine(img, img, block=4, d_max=4)
    with pytest.raises(ValueError):
        CostEngine(img, img, block=3, d_max=4, sign="sideways")
    for shape in [(6, 6, 3), (6,)]:
        with pytest.raises(ValueError, match="expected 2-D grayscale arrays"):
            CostEngine(np.zeros(shape), np.zeros(shape), block=3, d_max=4)
        with pytest.raises(ValueError, match="expected 2-D grayscale arrays"):
            run_pipeline(np.zeros(shape), np.zeros(shape), MatchConfig(d_max=4))
    for shape in [(0, 6), (6, 0)]:
        with pytest.raises(ValueError, match="no pixels"):
            CostEngine(np.zeros(shape), np.zeros(shape), block=3, d_max=4)
    # Casting would drop the imaginary part and match the real part alone.
    rng = np.random.default_rng(34)
    real = rng.random((32, 32))
    for pair in [(real + 1j * real, real), (real, real.astype(np.complex64))]:
        with pytest.raises(ValueError, match="complex"):
            CostEngine(*pair, block=3, d_max=4)
        with pytest.raises(ValueError, match="complex"):
            build_pyramid(*pair, 4, levels=1, base_block=3)
        with pytest.raises(ValueError, match="complex"):
            run_pipeline(*pair, MatchConfig(d_max=4, block=3))
    # A fractional bound would be truncated to a smaller search, and True
    # would search d_max 1.
    for kwargs in [{"block": 3, "d_max": 8.5}, {"block": 3.0, "d_max": 4},
                   {"block": 3, "d_max": True}]:
        with pytest.raises(ValueError, match="integer"):
            CostEngine(real, real, **kwargs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["left", "right"])
def test_non_finite_input_is_rejected(bad, side, monkeypatch, tmp_path):
    # One non-finite pixel would otherwise spread through the running sums
    # (and through every pyramid level) and silently corrupt the maps
    # around it.
    rng = np.random.default_rng(4242)
    left, right = shifted_pair(128, 128, 7, rng, cutoff=0.02)
    pair = {"left": left, "right": right}
    pair[side][64, 64] = bad
    with pytest.raises(ValueError, match="non-finite"):
        build_pyramid(pair["left"], pair["right"], 32, levels=2)
    with pytest.raises(ValueError, match="non-finite"):
        CostEngine(pair["left"], pair["right"], block=11, d_max=32)
    with pytest.raises(ValueError, match="non-finite"):
        run_pipeline(pair["left"], pair["right"], MatchConfig(d_max=32, levels=2))
    with pytest.raises(ValueError, match="non-finite"):
        baseline_bm(pair["left"], pair["right"], 32, 11)
    # Image files cannot hold NaN; a decoder that returned it is caught too.
    monkeypatch.setattr("pyrstereo.cli.read_pnm", lambda path: pair[path])
    for command in ("compute", "baseline"):
        assert main([command, "left", "right", "--dmax", "32",
                     "--out", str(tmp_path / command)]) == EXIT_CONFIG
