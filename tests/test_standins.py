"""The numpy filters of the package against the scipy.ndimage calls they replace, bit for bit."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ndimage_binomial, ndimage_box_mean, ndimage_dilate3
from pyrstereo import CostEngine, matcher, pyramid, zncc
from pyrstereo.zncc import SIGMA_EPS

sides = st.integers(1, 80)


@st.composite
def maps(draw, height=sides, width=sides):
    """A float map of 1e-3 to 1e3 in magnitude, sometimes with plateaus of the -1 cost floor."""
    h, w = draw(height), draw(width)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    img = rng.uniform(-1.0, 1.0, (h, w)) * 10.0 ** draw(st.floats(-3.0, 3.0))
    for _ in range(draw(st.integers(0, 3))):
        i, j = rng.integers(0, h), rng.integers(0, w)
        img[i:i + rng.integers(1, h + 1), j:j + rng.integers(1, w + 1)] = -1.0
    return img


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert got.flags.c_contiguous
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@settings(max_examples=150, deadline=None)
@given(maps(), st.sampled_from([3, 5, 7, 9, 11]))
def test_block_statistics_are_uniform_filter(img, block):
    means = zncc._box_means(np.stack([img, img[::-1, ::-1] * 3.0]), block)
    assert_same_bits(means[0], ndimage_box_mean(img, block))
    assert_same_bits(means[1], ndimage_box_mean(img[::-1, ::-1] * 3.0, block))
    # The deviation made in place of the mean squares, degenerate blocks 0.
    mean, sigma = CostEngine(img, img, block, 0)._stats(img)
    want = np.sqrt(np.maximum(ndimage_box_mean(img * img, block) - mean * mean, 0.0))
    assert_same_bits(mean, ndimage_box_mean(img, block))
    assert_same_bits(sigma, np.where(want >= SIGMA_EPS, want, 0.0))


@settings(max_examples=150, deadline=None)
@given(maps())
def test_binomial_smooth_is_correlate1d(img):
    assert_same_bits(pyramid.binomial_smooth(img), ndimage_binomial(img))


@settings(max_examples=150, deadline=None)
@given(maps(), st.floats(0.0, 1.0))
def test_dilate3_is_binary_dilation(img, density):
    mask = np.abs(img) < density * np.abs(img).max()
    np.testing.assert_array_equal(matcher._dilate3(mask), ndimage_dilate3(mask))
