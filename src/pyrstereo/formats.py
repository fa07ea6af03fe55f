"""File formats the stereo pipeline consumes and emits.

Readers and writers for:

* PGM/PPM (``P2``/``P3`` ASCII, ``P5``/``P6`` binary) intensity images,
* PFM (``Pf``) floating-point disparity maps, little- or big-endian,
* Middlebury-style ``calib.txt`` key=value files.

Images are plain ``(H, W)`` float64 arrays with intensities in [0, 1].
Disparity maps use NaN for pixels with no usable value; on PFM disk the
same pixels are stored as +inf, and PGM previews render them as 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DecodeError",
    "MalformedHeaderError",
    "TruncatedPayloadError",
    "UnsupportedMaxvalError",
    "MissingKeyError",
    "GroundTruthDisparity",
    "CalibInfo",
    "read_pnm",
    "read_pfm",
    "write_pfm",
    "write_pgm",
    "read_calib",
]

_WHITESPACE = b" \t\r\n\x0b\x0c"

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


@dataclass
class GroundTruthDisparity:
    """Reference disparities with a per-pixel validity mask.

    ``values`` is float64 with NaN at invalid entries; ``invalid`` is the
    boolean mask of those entries (unknown/occluded pixels, stored as +inf
    in Middlebury PFM files).
    """

    values: np.ndarray
    invalid: np.ndarray

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


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
    """Return the next whitespace-delimited token, skipping '#' comments."""
    n = len(buf)
    while pos < n:
        c = buf[pos : pos + 1]
        if c in _WHITESPACE:
            pos += 1
        elif c == b"#":
            while pos < n and buf[pos : pos + 1] not in b"\r\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise MalformedHeaderError("unexpected end of file in header")
    start = pos
    while pos < n and buf[pos : pos + 1] not in _WHITESPACE and buf[pos : pos + 1] != b"#":
        pos += 1
    return buf[start:pos], pos


def _token_int(buf: bytes, pos: int, what: str) -> tuple[int, int]:
    tok, pos = _next_token(buf, pos)
    try:
        return int(tok), pos
    except ValueError:
        raise MalformedHeaderError(f"non-numeric {what}: {tok!r}") from None


def read_pnm(path) -> np.ndarray:
    """Read a PGM or PPM file as a grayscale image in [0, 1].

    Supports the ASCII (P2/P3) and binary (P5/P6) encodings with maxval up
    to 65535 (two-byte big-endian samples).  Color images are converted to
    luminance with the 0.299/0.587/0.114 weights before normalization.

    Raises :class:`MalformedHeaderError`, :class:`UnsupportedMaxvalError`
    or :class:`TruncatedPayloadError` on the corresponding defect.
    """
    with open(path, "rb") as fh:
        buf = fh.read()

    magic, pos = _next_token(buf, 0)
    if magic not in (b"P2", b"P3", b"P5", b"P6"):
        raise MalformedHeaderError(f"unsupported PNM magic {magic!r}")
    color = magic in (b"P3", b"P6")
    ascii_encoded = magic in (b"P2", b"P3")

    width, pos = _token_int(buf, pos, "width")
    height, pos = _token_int(buf, pos, "height")
    maxval, pos = _token_int(buf, pos, "maxval")
    if width <= 0 or height <= 0:
        raise MalformedHeaderError(f"bad dimensions {width}x{height}")
    if not 1 <= maxval <= 65535:
        raise UnsupportedMaxvalError(f"maxval {maxval} outside [1, 65535]")

    channels = 3 if color else 1
    count = width * height * channels

    if ascii_encoded:
        tokens = []
        try:
            while len(tokens) < count:
                tok, pos = _next_token(buf, pos)
                tokens.append(int(tok))
        except MalformedHeaderError:
            raise TruncatedPayloadError(
                f"expected {count} samples, found {len(tokens)}"
            ) from None
        except ValueError:
            raise DecodeError("non-numeric ASCII sample") from None
        data = np.array(tokens, dtype=np.float64)
    else:
        if pos >= len(buf) or buf[pos : pos + 1] not in _WHITESPACE:
            raise MalformedHeaderError("missing whitespace before binary payload")
        pos += 1
        itemsize = 2 if maxval > 255 else 1
        payload = buf[pos : pos + count * itemsize]
        if len(payload) < count * itemsize:
            raise TruncatedPayloadError(
                f"payload holds {len(payload)} bytes, need {count * itemsize}"
            )
        dtype = ">u2" if maxval > 255 else "u1"
        data = np.frombuffer(payload, dtype=dtype).astype(np.float64)

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


def read_pfm(path) -> GroundTruthDisparity:
    """Read a single-channel PFM disparity map.

    The scale line's sign selects endianness (negative = little endian) and
    rows are un-flipped from the on-disk bottom-up order.  Non-finite
    samples (Middlebury's +inf "unknown" convention) populate the invalid
    mask and appear as NaN in ``values``.
    """
    with open(path, "rb") as fh:
        buf = fh.read()

    magic, pos = _next_token(buf, 0)
    if magic != b"Pf":
        raise MalformedHeaderError(f"bad PFM magic {magic!r} (expected grayscale 'Pf')")
    width, pos = _token_int(buf, pos, "width")
    height, pos = _token_int(buf, pos, "height")
    tok, pos = _next_token(buf, pos)
    try:
        scale = float(tok)
    except ValueError:
        raise MalformedHeaderError(f"non-numeric scale {tok!r}") from None
    if scale == 0.0 or not np.isfinite(scale):
        raise MalformedHeaderError(f"scale {tok!r} is zero or not finite")
    if width <= 0 or height <= 0:
        raise MalformedHeaderError(f"bad dimensions {width}x{height}")

    if pos >= len(buf) or buf[pos : pos + 1] not in _WHITESPACE:
        raise MalformedHeaderError("missing whitespace before binary payload")
    pos += 1
    count = width * height
    payload = buf[pos : pos + 4 * count]
    if len(payload) < 4 * count:
        raise TruncatedPayloadError(f"payload holds {len(payload)} bytes, need {4 * count}")

    dtype = "<f4" if scale < 0 else ">f4"
    flat = np.frombuffer(payload, dtype=dtype).astype(np.float64)
    values = np.flipud(flat.reshape(height, width)).copy()
    invalid = ~np.isfinite(values)
    values[invalid] = np.nan
    return GroundTruthDisparity(values=values, invalid=invalid)


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
    if not 1 <= maxval <= 65535:
        raise ValueError(f"maxval {maxval} outside [1, 65535]")
    if not 0 < scale_max < np.inf:  # NaN fails every comparison
        raise ValueError(f"scale_max must be positive and finite, got {scale_max}")
    scaled = np.round(np.nan_to_num(values, nan=0.0) / scale_max * maxval)
    scaled = np.clip(scaled, 0, maxval)
    dtype = ">u2" if maxval > 255 else "u1"
    height, width = values.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n{maxval}\n".encode("ascii"))
        fh.write(scaled.astype(dtype).tobytes())


def read_calib(path) -> CalibInfo:
    """Parse a Middlebury calib.txt, keeping ndisp (required) and dims.

    Raises :class:`MissingKeyError` when ndisp is absent.
    """
    entries: dict[str, str] = {}
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        for line in fh:
            line = line.strip()
            if not line or "=" not in line:
                continue
            key, _, value = line.partition("=")
            entries[key.strip()] = value.strip()

    if "ndisp" not in entries:
        raise MissingKeyError("calib file lacks an ndisp entry")
    try:
        ndisp = int(float(entries["ndisp"]))
    except (ValueError, OverflowError):  # int(inf) overflows
        raise MalformedHeaderError(f"bad ndisp value {entries['ndisp']!r}") from None
    if ndisp < 1:
        raise MalformedHeaderError(f"ndisp must be >= 1, got {ndisp}")

    def _opt_int(key: str) -> int | None:
        if key not in entries:
            return None
        try:
            return int(float(entries[key]))
        except (ValueError, OverflowError):
            raise MalformedHeaderError(f"bad {key} value {entries[key]!r}") from None

    return CalibInfo(ndisp=ndisp, width=_opt_int("width"), height=_opt_int("height"))
