"""Computations made apart from pyrstereo, used to check its outputs.

* A ZNCC by direct summation with ``math.fsum``: blocks under replicate
  padding (index clipping), -1 for a degenerate block or a right centre
  outside the image, clamped to [-1, 1].
* A PGM (binary P5) and PFM (grayscale Pf) reader and writer, so the
  package's codecs are checked against an encoder written separately.
* The scoring of a disparity map against the generator's truth.
"""

from __future__ import annotations

import math

import numpy as np

SIGMA_EPS = 1e-6


def _block(img: np.ndarray, i: int, j: int, half: int) -> list[float]:
    h, w = img.shape
    rows = [min(max(i + d, 0), h - 1) for d in range(-half, half + 1)]
    cols = [min(max(j + d, 0), w - 1) for d in range(-half, half + 1)]
    return [float(img[r, c]) for r in rows for c in cols]


def zncc_at(left: np.ndarray, right: np.ndarray, i: int, j: int, z: int,
            block: int) -> float:
    """Cost of left pixel (i, j) against right pixel (i, j - z)."""
    col = j - z
    if col < 0 or col > left.shape[1] - 1:
        return -1.0
    half = block // 2
    lp = _block(left, i, j, half)
    rp = _block(right, i, col, half)
    m = len(lp)
    lmean = math.fsum(lp) / m
    rmean = math.fsum(rp) / m
    ld = [v - lmean for v in lp]
    rd = [v - rmean for v in rp]
    lss = math.fsum(v * v for v in ld)
    rss = math.fsum(v * v for v in rd)
    if math.sqrt(lss / m) < SIGMA_EPS or math.sqrt(rss / m) < SIGMA_EPS:
        return -1.0
    value = math.fsum(a * b for a, b in zip(ld, rd)) / math.sqrt(lss * rss)
    return min(1.0, max(-1.0, value))


def zncc_mean3x3(left, right, i: int, j: int, z: int, block: int) -> float:
    """Mean of :func:`zncc_at` at disparity z over the clipped 3x3 around (i, j)."""
    h, w = left.shape
    costs = [
        zncc_at(left, right, i + di, j + dj, z, block)
        for di in (-1, 0, 1) for dj in (-1, 0, 1)
        if 0 <= i + di < h and 0 <= j + dj < w
    ]
    return math.fsum(costs) / len(costs)


def zncc_vector(left, right, i: int, j: int, d_max: int, block: int) -> list[float]:
    return [zncc_at(left, right, i, j, z, block) for z in range(d_max + 1)]


def write_pgm16(img: np.ndarray, path) -> np.ndarray:
    """Write intensities in [0, 1] as a 16-bit binary PGM.

    Returns the image as a reader recovers it (quantized to 1/65535).
    """
    q = np.round(np.clip(img, 0.0, 1.0) * 65535.0).astype(">u2")
    height, width = q.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n65535\n" % (width, height))
        fh.write(q.tobytes())
    return q.astype(np.float64) / 65535.0


def read_pgm(path) -> np.ndarray:
    """Read a binary P5 PGM without comments as float64 in [0, 1]."""
    magic, (width, height, maxval), body = _split_header(path, 3)
    if magic != b"P5":
        raise ValueError(f"{path}: not a binary PGM")
    dtype = ">u2" if int(maxval) > 255 else "u1"
    count = int(width) * int(height)
    pixels = np.frombuffer(body, dtype=dtype, count=count)
    return pixels.reshape(int(height), int(width)) / float(maxval)


def write_pfm(values: np.ndarray, path) -> None:
    """Little-endian grayscale PFM, bottom row first, NaN stored as +inf."""
    out = np.where(np.isnan(values), np.inf, values).astype("<f4")
    height, width = out.shape
    with open(path, "wb") as fh:
        fh.write(b"Pf\n%d %d\n-1.0\n" % (width, height))
        fh.write(out[::-1].tobytes())


def read_pfm(path) -> np.ndarray:
    """Grayscale PFM as float64 with the top row first; +inf stays +inf."""
    magic, (width, height, scale), body = _split_header(path, 3)
    if magic != b"Pf":
        raise ValueError(f"{path}: not a grayscale PFM")
    width, height = int(width), int(height)
    dtype = "<f4" if float(scale) < 0 else ">f4"
    flat = np.frombuffer(body, dtype=dtype, count=width * height)
    return flat.reshape(height, width)[::-1].astype(np.float64)


def _split_header(path, count: int) -> tuple[bytes, list[bytes], bytes]:
    """Magic, ``count`` header fields, and the payload after one whitespace byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    fields, pos = [], 0
    while len(fields) < count + 1:
        while data[pos : pos + 1].isspace():
            pos += 1
        end = pos
        while end < len(data) and not data[end : end + 1].isspace():
            end += 1
        if end == pos:
            raise ValueError(f"{path}: header ends early")
        fields.append(data[pos:end])
        pos = end
    return fields[0], fields[1:], data[pos + 1 :]


def score(disparity: np.ndarray, truth: np.ndarray, mask: np.ndarray) -> tuple[int, int, float, int]:
    """Bad-2 count, pixel count, sum of |d - d_true| and finite count on ``mask``.

    A non-finite output counts as bad and is left out of the error sum.
    """
    d = disparity[mask]
    t = truth[mask]
    finite = np.isfinite(d)
    err = np.abs(d[finite] - t[finite])
    bad = int(np.count_nonzero(err > 2.0)) + int(np.count_nonzero(~finite))
    return bad, int(d.size), math.fsum(err.tolist()), int(finite.sum())
