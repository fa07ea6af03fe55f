"""Layered stereo scenes with exact ground truth, made without pyrstereo.

A scene is a stack of textured layers seen by a rectified pair:

* a slanted background plane covering the whole frame,
* four fronto-parallel foreground objects (two rectangles, two ellipses)
  at integer disparities, whose vertical edges open occlusion bands,
* two low-contrast patches whose texture sits near the sensor noise,
* a gain and an offset applied to the right image only.

Each layer carries its own band-limited texture in left-image
coordinates.  A left pixel (y, x) of a layer with disparity d shows in the
right image at column x - d; the right image is rendered by inverting that
map per layer and keeping the nearest (largest-disparity) layer.  The true
disparity and the visibility mask therefore come from the geometry alone.

The layout is fixed up to seeded jitter of positions, sizes and depths, so
the share of occluded and low-contrast pixels stays nearly the same from
seed to seed while the textures and noise change completely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import map_coordinates

TEXTURE_STD = 0.12
TEXTURE_CUTOFF = 0.04  # cycles per pixel
LOW_CONTRAST = 0.03  # texture amplitude inside a low-contrast patch
NOISE_SIGMA = 0.004  # additive sensor noise on both images

# Interpolation tolerance of the self-check, in intensity units: the cubic
# resampling error of a texture band-limited to TEXTURE_CUTOFF.
SELF_CHECK_TOL = 1e-3


@dataclass
class Scene:
    """One rectified pair with its true left disparity.

    ``visible`` marks left pixels whose match lies inside the right image
    and shows the same layer there; every other pixel is occluded.
    """

    left: np.ndarray
    right: np.ndarray
    disparity: np.ndarray
    visible: np.ndarray


@dataclass
class _Layer:
    a: float  # disparity = a + bx * x + by * y
    bx: float
    by: float
    shape: str  # "all", "rect" or "ellipse"
    box: tuple[float, float, float, float]  # cy, cx, half height, half width
    texture: np.ndarray
    patch: tuple[float, float, float, float] | None = None  # low-contrast box

    def disparity(self, y, x):
        return self.a + self.bx * x + self.by * y

    def covers(self, y, x):
        if self.shape == "all":
            return np.ones(np.broadcast(y, x).shape, dtype=bool)
        cy, cx, hy, hx = self.box
        if self.shape == "rect":
            return (np.abs(y - cy) <= hy) & (np.abs(x - cx) <= hx)
        return ((y - cy) / hy) ** 2 + ((x - cx) / hx) ** 2 <= 1.0

    def source_column(self, y, xr):
        """Left column of this layer that lands on right column ``xr``."""
        return (xr + self.a + self.by * y) / (1.0 - self.bx)

    def intensity(self, y, x):
        """Texture value at left-frame coordinates, sampled by cubic spline."""
        values = map_coordinates(self.texture, [y, x], order=3, mode="nearest")
        if self.patch is None:
            return 0.5 + values
        return 0.5 + values * _patch_amplitude(self.patch, y, x)


def _patch_amplitude(patch, y, x):
    """1 outside the patch, LOW_CONTRAST inside: a smooth flat-topped bump."""
    cy, cx, hy, hx = patch
    inside = np.exp(-(((y - cy) / hy) ** 4) - ((x - cx) / hx) ** 4)
    return 1.0 - (1.0 - LOW_CONTRAST) * inside


def _texture(rng: np.random.Generator, height: int, width: int) -> np.ndarray:
    spectrum = np.fft.rfft2(rng.standard_normal((height, width)))
    fy = np.fft.fftfreq(height)[:, np.newaxis]
    fx = np.fft.rfftfreq(width)[np.newaxis, :]
    spectrum[(fy * fy + fx * fx) > TEXTURE_CUTOFF ** 2] = 0.0
    tex = np.fft.irfft2(spectrum, s=(height, width))
    return tex * (TEXTURE_STD / tex.std())


def _layers(rng: np.random.Generator, height: int, width: int, d_max: int) -> list[_Layer]:
    tex_w = width + d_max + 8

    def jitter(value, spread):
        return value + rng.uniform(-spread, spread)

    # Background: disparity rises from ~0.15 to ~0.35 of d_max across the frame.
    a = round(jitter(0.15, 0.01) * d_max)
    layers = [_Layer(
        a=float(a), bx=jitter(0.15, 0.01) * d_max / width,
        by=jitter(0.05, 0.005) * d_max / height, shape="all",
        box=(0.0, 0.0, 0.0, 0.0), texture=_texture(rng, height, tex_w),
        patch=(jitter(0.50, 0.02) * height, jitter(0.50, 0.02) * width,
               0.07 * height, 0.08 * width),
    )]

    depths = [0.40, 0.55, 0.70, 0.50]
    centers = [(0.28, 0.28), (0.28, 0.74), (0.72, 0.30), (0.72, 0.74)]
    shapes = ["rect", "ellipse", "ellipse", "rect"]
    for k, ((fy, fx), shape) in enumerate(zip(centers, shapes)):
        d = int(round(jitter(depths[k], 0.02) * d_max))
        cy, cx = jitter(fy, 0.02) * height, jitter(fx, 0.02) * width
        hy, hx = jitter(0.16, 0.01) * height, jitter(0.13, 0.01) * width
        patch = None
        if k == 3:
            patch = (cy, cx, 0.45 * hy, 0.45 * hx)
        layers.append(_Layer(a=float(d), bx=0.0, by=0.0, shape=shape,
                             box=(cy, cx, hy, hx),
                             texture=_texture(rng, height, tex_w), patch=patch))
    return layers


def _render(layers: list[_Layer], ys: np.ndarray, cols_of) -> tuple[np.ndarray, ...]:
    """Nearest covering layer per pixel, with its intensity and disparity.

    ``cols_of(layer)`` gives the left-frame column each pixel samples in
    that layer.
    """
    best_d = np.full(ys.shape, -np.inf)
    owner = np.zeros(ys.shape, dtype=np.intp)
    value = np.zeros(ys.shape)
    for k, layer in enumerate(layers):
        xs = cols_of(layer)
        d = np.where(layer.covers(ys, xs), layer.disparity(ys, xs), -np.inf)
        nearer = d > best_d
        best_d[nearer] = d[nearer]
        owner[nearer] = k
        value[nearer] = layer.intensity(ys[nearer], xs[nearer])
    return value, best_d, owner


def make_scene(seed, height: int, width: int, d_max: int) -> Scene:
    """Generate one scene; ``seed`` is anything numpy's default_rng takes.

    Runs :func:`self_check` on the noise-free rendering before adding
    noise, and raises AssertionError if the geometry is inconsistent.
    """
    rng = np.random.default_rng(seed)
    layers = _layers(rng, height, width, d_max)
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)

    left, disparity, owner_l = _render(layers, ys, lambda layer: xs)
    right_raw, _, owner_r = _render(layers, ys, lambda layer: layer.source_column(ys, xs))

    gain = float(rng.uniform(0.80, 0.92))
    offset = float(rng.uniform(0.02, 0.08))
    right = gain * right_raw + offset

    visible = _visibility(disparity, owner_l, owner_r)
    self_check(left, right, disparity, visible, owner_r, gain, offset)

    left = np.clip(left + rng.normal(0.0, NOISE_SIGMA, left.shape), 0.0, 1.0)
    right = np.clip(right + rng.normal(0.0, NOISE_SIGMA, right.shape), 0.0, 1.0)
    return Scene(left=left, right=right, disparity=disparity, visible=visible)


def _visibility(disparity, owner_l, owner_r) -> np.ndarray:
    """Left pixels whose match is in the image and shows the same layer."""
    height, width = disparity.shape
    ys = np.arange(height)[:, np.newaxis].repeat(width, axis=1)
    xr = np.arange(width)[np.newaxis, :] - disparity
    lo, hi = np.floor(xr).astype(np.intp), np.ceil(xr).astype(np.intp)
    inside = (lo >= 0) & (hi <= width - 1)
    lo_s, hi_s = np.clip(lo, 0, width - 1), np.clip(hi, 0, width - 1)
    return inside & (owner_r[ys, lo_s] == owner_l) & (owner_r[ys, hi_s] == owner_l)


def self_check(left, right, disparity, visible, owner_r, gain, offset) -> float:
    """Right sampled at x - d_true must reproduce the left on visible pixels.

    Uses Keys cubic interpolation along each right row, at pixels whose
    four interpolation taps all show the same layer.  Returns the largest
    deviation and raises AssertionError above :data:`SELF_CHECK_TOL`.
    """
    height, width = left.shape
    ys, xs = np.nonzero(visible)
    xr = xs - disparity[ys, xs]
    base = np.floor(xr).astype(np.intp)
    owner = owner_r[ys, np.clip(base, 0, width - 1)]
    taps_ok = np.ones(ys.shape, dtype=bool)
    for t in (-1, 0, 1, 2):
        col = base + t
        taps_ok &= (col >= 0) & (col <= width - 1)
        taps_ok &= owner_r[ys, np.clip(col, 0, width - 1)] == owner
    ys, xs, base = ys[taps_ok], xs[taps_ok], base[taps_ok]
    t = (xr[taps_ok] - base)
    p0, p1, p2, p3 = (right[ys, base + k] for k in (-1, 0, 1, 2))
    # Keys (Catmull-Rom) cubic: four local taps, no global prefilter.
    sampled = p1 + 0.5 * t * (p2 - p0 + t * (2 * p0 - 5 * p1 + 4 * p2 - p3
                                             + t * (3 * (p1 - p2) + p3 - p0)))
    err = np.abs((sampled - offset) / gain - left[ys, xs])
    worst = float(err.max()) if err.size else 0.0
    if not taps_ok.mean() > 0.5:
        raise AssertionError("self-check covers under half of the visible pixels")
    if worst > SELF_CHECK_TOL:
        raise AssertionError(f"right image misses the left by {worst:.2e} at x - d_true")
    return worst


def scene_seeds(seed: int, count: int) -> list[np.random.SeedSequence]:
    """Independent per-scene seeds derived from one run seed."""
    return np.random.SeedSequence(seed).spawn(count)
