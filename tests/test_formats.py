"""PGM/PPM, PFM and calib codec tests."""

import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from pyrstereo import (
    DecodeError,
    MalformedHeaderError,
    MissingKeyError,
    TruncatedPayloadError,
    UnsupportedMaxvalError,
    read_calib,
    read_pfm,
    read_pnm,
    write_pfm,
    write_pgm,
)
from pyrstereo.formats import _next_token


def test_p5_normalization(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
    img = read_pnm(path)
    assert img.shape == (2, 2)
    np.testing.assert_allclose(
        img, [[0.0, 1.0], [128 / 255, 64 / 255]], rtol=0, atol=1e-12
    )


def test_p2_equals_p5(tmp_path):
    ascii_path = tmp_path / "a.pgm"
    binary_path = tmp_path / "b.pgm"
    ascii_path.write_bytes(b"P2\n# comment\n3 2\n255\n0 10 20\n30 40 255\n")
    binary_path.write_bytes(b"P5\n3 2\n255\n" + bytes([0, 10, 20, 30, 40, 255]))
    np.testing.assert_array_equal(read_pnm(ascii_path), read_pnm(binary_path))


def test_p6_p3_luminance(tmp_path):
    pixels = [10, 200, 33, 0, 255, 7]
    p6 = tmp_path / "c.ppm"
    p3 = tmp_path / "c3.ppm"
    p6.write_bytes(b"P6\n2 1\n255\n" + bytes(pixels))
    p3.write_bytes(("P3\n2 1\n255\n" + " ".join(map(str, pixels))).encode())
    img6 = read_pnm(p6)
    expected = np.array([
        (0.299 * 10 + 0.587 * 200 + 0.114 * 33) / 255,
        (0.299 * 0 + 0.587 * 255 + 0.114 * 7) / 255,
    ]).reshape(1, 2)
    np.testing.assert_allclose(img6, expected, atol=1e-12)
    np.testing.assert_array_equal(img6, read_pnm(p3))


def test_16bit_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    img = rng.random((7, 5))
    path = tmp_path / "w.pgm"
    write_pgm(img, path, maxval=65535)
    back = read_pnm(path)
    np.testing.assert_allclose(back, np.round(img * 65535) / 65535, atol=1e-12)


def test_16bit_ppm_decode(tmp_path):
    # Two-byte big-endian samples, three channels.
    samples = np.array([1000, 30000, 65535, 0, 500, 20000], dtype=">u2")
    path = tmp_path / "c16.ppm"
    path.write_bytes(b"P6\n2 1\n65535\n" + samples.tobytes())
    img = read_pnm(path)
    expected = np.array([
        (0.299 * 1000 + 0.587 * 30000 + 0.114 * 65535) / 65535,
        (0.299 * 0 + 0.587 * 500 + 0.114 * 20000) / 65535,
    ]).reshape(1, 2)
    np.testing.assert_allclose(img, expected, atol=1e-12)


def test_pgm_round_trip_8bit_quantization(tmp_path):
    rng = np.random.default_rng(11)
    for _ in range(5):
        img = rng.random((16, 16))
        path = tmp_path / "r.pgm"
        write_pgm(img, path)
        back = read_pnm(path)
        np.testing.assert_array_equal(back, np.round(img * 255) / 255)


def test_pgm_integer_valued_float_maxval(tmp_path):
    path = tmp_path / "f.pgm"
    write_pgm(np.full((2, 3), 0.5), path, maxval=1023.0)
    assert path.read_bytes().startswith(b"P5\n3 2\n1023\n")
    np.testing.assert_array_equal(read_pnm(path), np.full((2, 3), 512 / 1023))


def test_pgm_disparity_preview_scaling(tmp_path):
    path = tmp_path / "p.pgm"
    write_pgm(np.full((3, 4), 10.0), path, maxval=255, scale_max=64.0)
    raw = path.read_bytes()
    payload = raw.split(b"\n", 3)[3]
    assert set(payload) == {round(10 / 64 * 255)}


def test_pgm_nan_renders_zero(tmp_path):
    path = tmp_path / "n.pgm"
    arr = np.array([[np.nan, 32.0]])
    write_pgm(arr, path, maxval=255, scale_max=64.0)
    img = read_pnm(path)
    assert img[0, 0] == 0.0
    assert img[0, 1] == round(32 / 64 * 255) / 255


def test_write_errors(tmp_path):
    with pytest.raises(ValueError):
        write_pgm(np.zeros((0, 4)), tmp_path / "e.pgm")
    with pytest.raises(ValueError):
        write_pfm(np.zeros((0, 4)), tmp_path / "e.pfm")
    with pytest.raises(ValueError):
        write_pfm(np.zeros((2, 2)), tmp_path / "e.pfm", scale=0.0)
    for scale in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            write_pfm(np.zeros((2, 2)), tmp_path / "e.pfm", scale=scale)
    for scale_max in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            write_pgm(np.zeros((2, 2)), tmp_path / "e.pgm", scale_max=scale_max)
    for maxval in (300.5, 0.5, np.nan, np.inf):
        with pytest.raises(ValueError):
            write_pgm(np.zeros((2, 2)), tmp_path / "e.pgm", maxval=maxval)


@pytest.mark.parametrize(
    "payload, exc",
    [
        (b"P7\n2 2\n255\n" + bytes(4), MalformedHeaderError),
        (b"P5\n2 x\n255\n" + bytes(4), MalformedHeaderError),
        (b"P5\n2 2\n255\n" + bytes(3), TruncatedPayloadError),
        (b"P2\n2 2\n255\n1 2 3\n", TruncatedPayloadError),
        (b"P5\n2 2\n0\n" + bytes(4), UnsupportedMaxvalError),
        (b"P5\n2 2\n70000\n" + bytes(16), UnsupportedMaxvalError),
        (b"P5\n2 2\n255", MalformedHeaderError),
        (b"P2\n2 2\n100\n1 2 3 101\n", DecodeError),
        (b"P2\n1 1\n255\n" + b"9" * 401 + b"\n", DecodeError),  # too large for a float
        (b"P5\n2 2\n100\n" + bytes([0, 50, 100, 255]), DecodeError),
    ],
)
def test_pnm_decode_errors(tmp_path, payload, exc):
    path = tmp_path / "bad.pgm"
    path.write_bytes(payload)
    with pytest.raises(exc):
        read_pnm(path)


def test_pfm_single_value(tmp_path):
    path = tmp_path / "v.pfm"
    path.write_bytes(b"Pf\n1 1\n-1.0\n" + np.float32(5.0).tobytes())
    gt = read_pfm(path)
    assert gt.dtype == np.float64 and gt.shape == (1, 1)
    assert gt[0, 0] == 5.0


def test_pfm_infinity_masks_invalid(tmp_path):
    # Middlebury stores unknown pixels as +inf; any non-finite sample is NaN in memory.
    path = tmp_path / "inf.pfm"
    samples = np.array([np.inf, -np.inf, np.nan, 2.0], dtype="<f4")
    path.write_bytes(b"Pf\n4 1\n-1.0\n" + samples.tobytes())
    gt = read_pfm(path)
    assert np.isnan(gt[0, :3]).all() and gt[0, 3] == 2.0


def test_pfm_row_order_bottom_up(tmp_path):
    # On disk the bottom row comes first; in memory row 0 is the top.
    path = tmp_path / "rows.pfm"
    payload = np.array([3.0, 4.0, 1.0, 2.0], dtype="<f4").tobytes()
    path.write_bytes(b"Pf\n2 2\n-1.0\n" + payload)
    np.testing.assert_array_equal(read_pfm(path), [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("scale", [-1.0, 1.0])
def test_pfm_round_trip_both_endian(tmp_path, scale):
    rng = np.random.default_rng(int(scale + 2))
    values = rng.random((4, 4)).astype(np.float32).astype(np.float64)
    values[1, :3] = np.nan, np.inf, -np.inf  # each reads back as NaN
    path = tmp_path / "rt.pfm"
    write_pfm(values, path, scale=scale)
    back = read_pfm(path)
    assert back.dtype == np.float64
    np.testing.assert_array_equal(np.isnan(back), ~np.isfinite(values))
    mask = np.isfinite(values)
    np.testing.assert_array_equal(back[mask], values[mask])


@pytest.mark.parametrize(
    "payload, exc",
    [
        (b"PF\n1 1\n-1.0\n" + bytes(12), MalformedHeaderError),
        (b"Pf\n1 1\n0.0\n" + bytes(4), MalformedHeaderError),
        (b"Pf\n1 1\nnan\n" + bytes(4), MalformedHeaderError),
        (b"Pf\n1 1\ninf\n" + bytes(4), MalformedHeaderError),
        (b"Pf\n1 1\n-inf\n" + bytes(4), MalformedHeaderError),
        (b"Pf\n2 2\n-1.0\n" + bytes(8), TruncatedPayloadError),
    ],
)
def test_pfm_decode_errors(tmp_path, payload, exc):
    path = tmp_path / "bad.pfm"
    path.write_bytes(payload)
    with pytest.raises(exc):
        read_pfm(path)


def test_calib_parsing(tmp_path):
    path = tmp_path / "calib.txt"
    path.write_text("cam0=[100 0 50]\nndisp=70\n")
    assert read_calib(path).ndisp == 70

    path.write_text("ndisp=290\nwidth=2960\nheight=2016\n")
    calib = read_calib(path)
    assert (calib.ndisp, calib.width, calib.height) == (290, 2960, 2016)


@pytest.mark.parametrize("text", ["ndisp=inf\n", "ndisp=-inf\n", "ndisp=1e999\n",
                                  "ndisp=64\nwidth=1e999\n", "ndisp=64\nheight=-inf\n"])
def test_calib_infinite_value_is_malformed(tmp_path, text):
    path = tmp_path / "calib.txt"
    path.write_text(text)
    with pytest.raises(MalformedHeaderError):
        read_calib(path)


@pytest.mark.parametrize("text", ["ndisp=12.7\n", "ndisp=nan\n", "ndisp=64\nwidth=450.5\n",
                                  "ndisp=64\nheight=1e-3\n"])
def test_calib_fractional_value_is_malformed(tmp_path, text):
    path = tmp_path / "calib.txt"
    path.write_text(text)
    with pytest.raises(MalformedHeaderError):
        read_calib(path)


def test_calib_integer_valued_text(tmp_path):
    path = tmp_path / "calib.txt"
    path.write_text("ndisp=64.0\nwidth=4.5e2\nheight=375.000\n")
    calib = read_calib(path)
    assert (calib.ndisp, calib.width, calib.height) == (64, 450, 375)


def test_calib_missing_ndisp(tmp_path):
    path = tmp_path / "calib.txt"
    path.write_text("width=100\nheight=100\n")
    with pytest.raises(MissingKeyError):
        read_calib(path)


@st.composite
def _short_files(draw):
    """A P2/P5/P6/Pf header declaring up to 2^31 pixels per side, followed
    by fewer samples than it declares."""
    magic = draw(st.sampled_from([b"P2", b"P5", b"P6", b"Pf"]))
    width = draw(st.integers(1, 2**31))
    height = draw(st.integers(1, 2**31))
    if magic == b"Pf":
        third, sample_bytes = draw(st.sampled_from([b"-1.0", b"1.0"])), 4
    else:
        maxval = draw(st.sampled_from([1, 255, 256, 65535]))
        third, sample_bytes = str(maxval).encode(), (2 if maxval > 255 else 1)
        sample_bytes *= 3 if magic == b"P6" else 1
    needed = width * height * sample_bytes
    short = draw(st.integers(0, min(needed - 1, 256)))
    if magic == b"P2":
        payload = b"0 " * min(short, width * height - 1)
    else:
        payload = draw(st.binary(min_size=short, max_size=short))
    return b"%s\n%d %d\n%s\n" % (magic, width, height, third) + payload


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_short_files())
def test_declared_size_never_drives_allocation(tmp_path, data):
    # A header's dimensions are only a claim; a short payload must be
    # rejected before anything of the declared size is allocated.
    path = tmp_path / "fuzz.bin"
    path.write_bytes(data)
    reader = read_pfm if data.startswith(b"Pf") else read_pnm
    tracemalloc.start()
    try:
        with pytest.raises(DecodeError):
            reader(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _reference_tokens(buf: bytes) -> list[bytes]:
    return re.sub(rb"#[^\r\n]*", b"", buf).split()


_SPACE = st.sampled_from([b" ", b"\t", b"\r", b"\n", b"\x0b", b"\x0c"])
# Comment text may hold anything but a line end: '#', whitespace, token bytes.
_COMMENT = st.binary(max_size=8).map(
    lambda text: b"#" + text.replace(b"\r", b"").replace(b"\n", b""))


def _streams(token):
    """Tokens, whitespace and comments in any order; a comment may cut a
    token, close a line or end the stream with no newline."""
    piece = st.one_of(token, _SPACE, _COMMENT, _COMMENT.map(lambda c: c + b"\n"))
    return st.lists(piece, max_size=30).map(b"".join)


# Any bytes but whitespace and '#', non-ASCII and control bytes too.
_ANY_TOKEN = st.binary(min_size=1, max_size=4).map(
    lambda b: bytes(c for c in b if c not in b" \t\r\n\x0b\x0c#")).filter(bool)


@settings(max_examples=300, deadline=None)
@given(_streams(_ANY_TOKEN))
@example(b"P2 #c\n 3# tail 4\n5\x0b#eof")
def test_header_tokens_are_the_text_left_after_comments(buf):
    tokens, pos = [], 0
    while True:
        try:
            tok, pos = _next_token(buf, pos)
        except MalformedHeaderError:
            break
        tokens.append(tok)
    assert tokens == _reference_tokens(buf)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_streams(st.integers(0, 999).map(b"%d".__mod__)))
@example(b"1#2 3\n 4 #5\n6#eof")
def test_ascii_samples_are_the_text_left_after_comments(tmp_path, stream):
    samples = [int(tok) for tok in _reference_tokens(stream)]
    assume(samples and max(samples) <= 65535)
    path = tmp_path / "s.pgm"
    path.write_bytes(b"P2\n%d 1\n65535\n" % len(samples) + stream)
    np.testing.assert_array_equal(read_pnm(path), np.array([samples]) / 65535.0)
    path.write_bytes(b"P2\n%d 1\n65535\n" % (len(samples) + 1) + stream)
    with pytest.raises(TruncatedPayloadError):
        read_pnm(path)


def test_truncated_p2_with_long_whitespace_tail_fails_fast(tmp_path):
    path = tmp_path / "tail.pgm"
    path.write_bytes(b"P2\n2 2\n255\n1 2 3" + b" " * 10**6)
    t0 = time.perf_counter()
    with pytest.raises(TruncatedPayloadError):
        read_pnm(path)
    assert time.perf_counter() - t0 < 0.5
