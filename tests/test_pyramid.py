"""Pyramid construction and schedule tests."""

import numpy as np
import pytest

from oracles import naive_downsample
from pyrstereo import (
    auto_levels,
    build_pyramid,
    gaussian_downsample,
    level_block,
    level_d_max,
)


def test_constant_image_stays_constant():
    for value in (0.0, 0.25, 1.0):
        out = gaussian_downsample(np.full((9, 14), value))
        assert out.shape == (5, 7)
        np.testing.assert_array_equal(out, np.full((5, 7), value))


def test_output_shape_is_ceil_half():
    assert gaussian_downsample(np.zeros((4, 4))).shape == (2, 2)
    assert gaussian_downsample(np.zeros((5, 8))).shape == (3, 4)


def test_downsample_matches_dense_convolution_oracle():
    rng = np.random.default_rng(5)
    ramp = np.add.outer(np.arange(8.0), np.arange(8.0)) / 14.0
    for img in (ramp, rng.random((8, 8)), rng.random((7, 9))):
        np.testing.assert_allclose(
            gaussian_downsample(img), naive_downsample(img), atol=1e-12
        )


def test_downsample_rejects_degenerate():
    with pytest.raises(ValueError):
        gaussian_downsample(np.zeros((1, 8)))
    with pytest.raises(ValueError):
        gaussian_downsample(np.zeros((8, 1)))


def test_schedules():
    assert [level_d_max(64, k) for k in range(3)] == [64, 32, 16]
    assert [level_block(11, k) for k in range(3)] == [11, 5, 3]
    # Floor of 1 for the bound, floor of 3 (odd) for the block.
    assert level_d_max(5, 4) == 1
    assert level_block(9, 1) == 3  # 9 // 2 = 4, even -> 3
    assert level_block(7, 5) == 3


def test_build_pyramid_level_parameters():
    rng = np.random.default_rng(0)
    left, right = rng.random((40, 48)), rng.random((40, 48))
    pyr = build_pyramid(left, right, d_max=64, levels=2, base_block=11)
    assert [lv.d_max for lv in pyr] == [64, 32, 16]
    assert [lv.block for lv in pyr] == [11, 5, 3]
    assert [lv.shape for lv in pyr] == [(40, 48), (20, 24), (10, 12)]
    np.testing.assert_array_equal(pyr[0].left, left)
    np.testing.assert_array_equal(pyr[0].right, right)
    for coarse, fine in zip(pyr[1:], pyr[:-1]):
        assert coarse.shape == ((fine.shape[0] + 1) // 2, (fine.shape[1] + 1) // 2)
        assert coarse.d_max <= fine.d_max
        assert coarse.block <= fine.block
        assert coarse.block % 2 == 1
        # A level owns its pixels: a view would hold the full-size smoothed image.
        for img in (coarse.left, coarse.right):
            assert img.flags.c_contiguous and img.base is None


def test_build_pyramid_single_level():
    rng = np.random.default_rng(1)
    left, right = rng.random((16, 16)), rng.random((16, 16))
    pyr = build_pyramid(left, right, d_max=10, levels=0, base_block=5)
    assert len(pyr) == 1
    assert pyr[0].d_max == 10
    assert pyr[0].block == 5


def test_build_pyramid_rejects_too_deep():
    rng = np.random.default_rng(2)
    left, right = rng.random((32, 32)), rng.random((32, 32))
    with pytest.raises(ValueError):
        build_pyramid(left, right, d_max=64, levels=4, base_block=11)
    with pytest.raises(ValueError):
        build_pyramid(left, right, d_max=4, levels=2, base_block=3)


def test_build_pyramid_validates_inputs():
    with pytest.raises(ValueError):
        build_pyramid(np.zeros((8, 8)), np.zeros((8, 9)), d_max=4)
    with pytest.raises(ValueError):
        build_pyramid(np.zeros((8, 8)), np.zeros((8, 8)), d_max=0)
    with pytest.raises(ValueError):
        build_pyramid(np.zeros((8, 8)), np.zeros((8, 8)), d_max=4, base_block=4)
    for shape in [(8, 8, 3), (8,)]:
        with pytest.raises(ValueError, match="expected 2-D grayscale arrays"):
            build_pyramid(np.zeros(shape), np.zeros(shape), d_max=4)
    # Non-integer sizes fail the same way, not with a TypeError from ">>";
    # so do bools, which Python counts as integers.
    for kwargs in [{"d_max": 8.5}, {"d_max": 8, "levels": 1.5},
                   {"d_max": 8, "base_block": 11.0}, {"d_max": True},
                   {"d_max": 8, "levels": False}]:
        with pytest.raises(ValueError, match="must be an integer"):
            build_pyramid(np.zeros((64, 64)), np.zeros((64, 64)), **kwargs)


def test_auto_levels_examples():
    assert auto_levels(2960, 2016, 256, 11) == 5
    assert auto_levels(32, 32, 8, 11) == 0


def test_auto_levels_rejects_nonpositive():
    with pytest.raises(ValueError):
        auto_levels(0, 100, 16, 11)
    with pytest.raises(ValueError):
        auto_levels(100, 100, 0, 11)


def test_auto_levels_property():
    rng = np.random.default_rng(7)
    for _ in range(200):
        width = int(rng.integers(8, 4000))
        height = int(rng.integers(8, 4000))
        d_max = int(rng.integers(1, 512))
        block = int(rng.integers(1, 16))
        k = auto_levels(width, height, d_max, block)
        assert k >= 0
        if k > 0:
            assert min(width, height) / 2**k >= 4 * block
            assert d_max >> k >= 2
        assert (
            min(width, height) / 2 ** (k + 1) < 4 * block or d_max >> (k + 1) < 2
        )


def test_build_is_deterministic():
    rng = np.random.default_rng(9)
    left, right = rng.random((33, 47)), rng.random((33, 47))
    a = build_pyramid(left, right, d_max=16, levels=2, base_block=5)
    b = build_pyramid(left, right, d_max=16, levels=2, base_block=5)
    for la, lb in zip(a, b):
        np.testing.assert_array_equal(la.left, lb.left)
        np.testing.assert_array_equal(la.right, lb.right)
