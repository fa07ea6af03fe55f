"""File formats the stereo pipeline consumes and emits.

Readers and writers for:

* PGM/PPM (``P2``/``P3`` ASCII, ``P5``/``P6`` binary) intensity images,
* PFM (``Pf``) floating-point disparity maps, little- or big-endian,
* Middlebury-style ``calib.txt`` key=value files.

Images are plain ``(H, W)`` float64 arrays with intensities in [0, 1].
Disparity maps are plain ``(H, W)`` float64 arrays too, with NaN for
pixels with no usable value: :func:`write_pfm` stores those as +inf,
:func:`read_pfm` reads every non-finite sample back as NaN, and PGM
previews render them as 0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DecodeError",
    "MalformedHeaderError",
    "TruncatedPayloadError",
    "UnsupportedMaxvalError",
    "MissingKeyError",
    "CalibInfo",
    "read_pnm",
    "read_pfm",
    "write_pfm",
    "write_pgm",
    "read_calib",
]

# One token after any whitespace and '#' comments, as bytes.split() and
# re.sub(rb"#[^\r\n]*", b"", ...) would find it.  A comment must run to its
# line end, so backtracking never reads a comment's tail as a token.
_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*(?![^\r\n]))*([^\s#]+)")
_COMMENT = re.compile(rb"#[^\r\n]*")

# BT.601 luma weights used when a PPM input must be collapsed to one channel.
_LUMA = np.array([0.299, 0.587, 0.114])


class DecodeError(ValueError):
    """A file could not be decoded."""


class MalformedHeaderError(DecodeError):
    """Magic number, dimensions or scale line are unusable."""


class TruncatedPayloadError(DecodeError):
    """The pixel payload ends before width*height samples."""


class UnsupportedMaxvalError(DecodeError):
    """PNM maxval outside [1, 65535]."""


class MissingKeyError(DecodeError):
    """A required key is absent from a calibration file."""


@dataclass(frozen=True)
class CalibInfo:
    """Subset of a Middlebury calib.txt needed for matching.

    Only the disparity search range and image dimensions are kept; camera
    matrices are irrelevant to disparity-only processing.
    """

    ndisp: int
    width: int | None = None
    height: int | None = None


def _next_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    """The next token at or after ``pos`` and the position after it."""
    match = _TOKEN.match(buf, pos)
    if match is None:
        raise MalformedHeaderError("unexpected end of file in header")
    return match[1], match.end()


def _token_int(buf: bytes, pos: int, what: str) -> tuple[int, int]:
    tok, pos = _next_token(buf, pos)
    try:
        return int(tok), pos
    except ValueError:
        raise MalformedHeaderError(f"non-numeric {what}: {tok!r}") from None


def _read_header(path, magics: tuple[bytes, ...]) -> tuple[bytes, bytes, int, int, int]:
    """The file's bytes, its magic, width and height, and the position after them."""
    with open(path, "rb") as fh:
        buf = fh.read()
    magic, pos = _next_token(buf, 0)
    if magic not in magics:
        raise MalformedHeaderError(f"magic {magic!r} is not {b'/'.join(magics).decode()}")
    width, pos = _token_int(buf, pos, "width")
    height, pos = _token_int(buf, pos, "height")
    if width <= 0 or height <= 0:
        raise MalformedHeaderError(f"bad dimensions {width}x{height}")
    return buf, magic, width, height, pos


def _binary_payload(buf: bytes, pos: int, count: int, dtype: str) -> np.ndarray:
    """``count`` samples of ``dtype`` after the header's one whitespace byte, as float64."""
    if not buf[pos : pos + 1].isspace():
        raise MalformedHeaderError("missing whitespace before binary payload")
    size = count * np.dtype(dtype).itemsize
    payload = buf[pos + 1 : pos + 1 + size]
    if len(payload) < size:
        raise TruncatedPayloadError(f"payload holds {len(payload)} bytes, need {size}")
    return np.frombuffer(payload, dtype=dtype).astype(np.float64)


def read_pnm(path) -> np.ndarray:
    """Read a PGM or PPM file as a grayscale image in [0, 1].

    Supports the ASCII (P2/P3) and binary (P5/P6) encodings with maxval up
    to 65535 (two-byte big-endian samples).  Color images are converted to
    luminance with the 0.299/0.587/0.114 weights before normalization.
    ``#`` comments may stand wherever whitespace may, in the header and
    among ASCII samples.

    Raises :class:`MalformedHeaderError`, :class:`UnsupportedMaxvalError`
    or :class:`TruncatedPayloadError` on the corresponding defect.
    """
    buf, magic, width, height, pos = _read_header(path, (b"P2", b"P3", b"P5", b"P6"))
    maxval, pos = _token_int(buf, pos, "maxval")
    if not 1 <= maxval <= 65535:
        raise UnsupportedMaxvalError(f"maxval {maxval} outside [1, 65535]")
    color = magic in (b"P3", b"P6")
    count = width * height * (3 if color else 1)

    if magic in (b"P2", b"P3"):
        # No more tokens than bytes: a huge declared count must not overflow split.
        tokens = _COMMENT.sub(b"", buf[pos:]).split(None, min(count, len(buf)))[:count]
        try:
            data = np.array([int(tok) for tok in tokens], dtype=np.float64)
        except ValueError:
            raise DecodeError("non-numeric ASCII sample") from None
        except OverflowError:  # too many digits for a float, so far outside [0, maxval]
            raise DecodeError(f"ASCII sample outside [0, {maxval}]") from None
        if len(tokens) < count:
            raise TruncatedPayloadError(f"expected {count} samples, found {len(tokens)}")
    else:
        data = _binary_payload(buf, pos, count, ">u2" if maxval > 255 else "u1")

    if data.size and (data.min() < 0 or data.max() > maxval):
        raise DecodeError(
            f"sample value {int(data.max() if data.max() > maxval else data.min())} "
            f"outside [0, {maxval}]"
        )

    if color:
        rgb = data.reshape(height, width, 3)
        gray = rgb @ _LUMA
    else:
        gray = data.reshape(height, width)
    return gray / float(maxval)


def read_pfm(path) -> np.ndarray:
    """Read a single-channel PFM disparity map as an ``(H, W)`` float64 array.

    The scale line's sign selects endianness (negative = little endian) and
    rows are un-flipped from the on-disk bottom-up order.  Every non-finite
    sample (Middlebury's +inf "unknown" convention, -inf or NaN) reads as
    NaN.
    """
    buf, _, width, height, pos = _read_header(path, (b"Pf",))
    tok, pos = _next_token(buf, pos)
    try:
        scale = float(tok)
    except ValueError:
        raise MalformedHeaderError(f"non-numeric scale {tok!r}") from None
    if scale == 0.0 or not np.isfinite(scale):
        raise MalformedHeaderError(f"scale {tok!r} is zero or not finite")

    flat = _binary_payload(buf, pos, width * height, "<f4" if scale < 0 else ">f4")
    values = np.flipud(flat.reshape(height, width))
    return np.where(np.isfinite(values), values, np.nan)


def write_pfm(values: np.ndarray, path, scale: float = -1.0) -> None:
    """Write a 2-D array as a grayscale PFM file.

    NaN entries (the in-memory invalid marker) are stored as +inf.  The
    sign of ``scale`` selects the byte order written: negative for little
    endian, positive for big endian.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.size == 0:
        raise ValueError(f"expected a non-empty 2-D array, got shape {values.shape}")
    if scale == 0.0 or not np.isfinite(scale):
        raise ValueError(f"scale must be nonzero and finite, got {scale}")
    out = np.where(np.isnan(values), np.inf, values)
    dtype = "<f4" if scale < 0 else ">f4"
    height, width = out.shape
    with open(path, "wb") as fh:
        fh.write(b"Pf\n")
        fh.write(f"{width} {height}\n".encode("ascii"))
        fh.write(f"{scale:.6f}\n".encode("ascii"))
        fh.write(np.flipud(out).astype(dtype).tobytes())


def write_pgm(values: np.ndarray, path, maxval: int = 255, scale_max: float = 1.0) -> None:
    """Write a 2-D array as a binary PGM (P5) file.

    Values are mapped linearly from [0, scale_max] onto [0, maxval] and
    rounded; use ``scale_max=1.0`` for intensity images and the maximum
    disparity for disparity previews.  NaN renders as 0.  maxval above 255
    switches to two-byte big-endian samples.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.size == 0:
        raise ValueError(f"expected a non-empty 2-D array, got shape {values.shape}")
    if not 1 <= maxval <= 65535 or maxval != int(maxval):  # NaN and inf fail the range
        raise ValueError(f"maxval {maxval} is not an integer in [1, 65535]")
    if not 0 < scale_max < np.inf:  # NaN fails every comparison
        raise ValueError(f"scale_max must be positive and finite, got {scale_max}")
    scaled = np.round(np.nan_to_num(values, nan=0.0) / scale_max * maxval)
    scaled = np.clip(scaled, 0, maxval)
    dtype = ">u2" if maxval > 255 else "u1"
    height, width = values.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n{int(maxval)}\n".encode("ascii"))
        fh.write(scaled.astype(dtype).tobytes())


def read_calib(path) -> CalibInfo:
    """Parse a Middlebury calib.txt, keeping ndisp (required) and dims.

    Raises :class:`MissingKeyError` when ndisp is absent and
    :class:`MalformedHeaderError` when ndisp, width or height is below 1.
    """
    entries: dict[str, str] = {}
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        for line in fh:
            line = line.strip()
            if not line or "=" not in line:
                continue
            key, _, value = line.partition("=")
            entries[key.strip()] = value.strip()

    ndisp = _calib_int(entries, "ndisp")
    if ndisp is None:
        raise MissingKeyError("calib file lacks an ndisp entry")
    width, height = _calib_int(entries, "width"), _calib_int(entries, "height")
    for key, value in (("ndisp", ndisp), ("width", width), ("height", height)):
        if value is not None and value < 1:
            raise MalformedHeaderError(f"{key} must be >= 1, got {value}")
    return CalibInfo(ndisp=ndisp, width=width, height=height)


def _calib_int(entries: dict[str, str], key: str) -> int | None:
    """The integer value of ``key``, None when it is absent.

    Integer-valued text such as ``64.0`` is accepted; fractional or
    non-finite text is malformed.
    """
    if key not in entries:
        return None
    try:
        value = float(entries[key])
        if value.is_integer():  # False for inf and nan
            return int(value)
    except ValueError:
        pass
    raise MalformedHeaderError(f"bad {key} value {entries[key]!r}")
