"""Grayscale images, binary masks, and binary PGM (P5) file I/O.

Conventions used throughout the toolkit:

* a grayscale image is a float64 ``(H, W)`` array with values in ``[0, 1]``
* a binary mask is a bool ``(H, W)`` array (True = foreground)

Files are binary PGM (P5) only: dependency-free and bit-exact. Writes use
maxval 255 with foreground stored as 255 and background as 0, so that
``threshold(load_image(p), 0.5)`` round-trips any saved mask identically.
Mask files are read and written as bytes and never pass through a float
image: ``load_mask`` compares the integer payload with ``ceil(maxval / 2)``,
which gives the same mask as ``threshold(load_image(p), 0.5)`` for every
maxval, and ``save_mask`` writes 0 and 255 directly.
Every output file of the package (images, manifests, CSVs, checkpoints)
is written through ``write_atomic``.
"""

from __future__ import annotations

import contextlib
import os
import re

import numpy as np

from .errors import DimensionMismatch, FormatError

GrayImage = np.ndarray
BinaryMask = np.ndarray


def as_gray(data) -> GrayImage:
    """Validate and return a float64 (H, W) image with values in [0, 1]."""
    img = np.asarray(data, dtype=np.float64)
    if img.ndim != 2:
        raise DimensionMismatch(f"image must be 2-D, got shape {img.shape}")
    # written so that NaN, which fails every comparison, is rejected too
    if img.size and not (img.min() >= 0.0 and img.max() <= 1.0):
        raise ValueError("image intensities must lie in [0, 1]")
    return img


def as_mask(data) -> BinaryMask:
    """Validate and return a bool (H, W) mask."""
    mask = np.asarray(data)
    if mask.ndim != 2:
        raise DimensionMismatch(f"mask must be 2-D, got shape {mask.shape}")
    # bool input is returned as is, not copied: callers only read the mask
    # or copy it before editing
    return mask.astype(bool, copy=False)


def check_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch: {a.shape} vs {b.shape}")


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to ``path`` so that readers never see a partial file.

    The bytes go to ``<path>.tmp<pid>`` in the same directory, which is then
    renamed over ``path`` in one step: a crash midway leaves the previous
    file, not a truncated one. A failed write or rename removes the
    temporary file and raises an OSError that names ``path``.
    """
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc


# Whitespace and # comments, then one token. The lookahead makes a comment run
# to CR, LF or the end, so no token is ever read from inside a comment.
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*(?![^\r\n]))*([^\s#]+)")


def _next_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    """Return the next whitespace-delimited header token, skipping # comments."""
    found = _HEADER_TOKEN.match(buf, pos)
    if found is None:
        raise FormatError("truncated PGM header")
    return found[1], found.end()


def _read_pgm(path) -> tuple[np.ndarray, int]:
    """Read a binary PGM (P5) file as its (H, W) integer payload and maxval."""
    with open(path, "rb") as fh:
        buf = fh.read()

    magic, pos = _next_token(buf, 0)
    if magic != b"P5":
        raise FormatError(f"unsupported magic {magic!r}, expected P5")
    fields = []
    for _ in range(3):
        tok, pos = _next_token(buf, pos)
        if not tok.isdigit():
            raise FormatError(f"malformed header token {tok!r}")
        fields.append(int(tok))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError(f"invalid dimensions {width}x{height}")
    if not 0 < maxval <= 65535:
        raise FormatError(f"maxval {maxval} out of range (1..65535)")
    # exactly one whitespace byte separates the header from the payload
    if pos >= len(buf) or not buf[pos:pos + 1].isspace():
        raise FormatError("missing whitespace after maxval")
    pos += 1

    dtype = np.dtype(">u2") if maxval > 255 else np.dtype(np.uint8)
    count = width * height
    payload = buf[pos:pos + count * dtype.itemsize]
    if len(payload) < count * dtype.itemsize:
        raise FormatError("truncated PGM payload")
    raw = np.frombuffer(payload, dtype=dtype, count=count)
    return raw.reshape(height, width), maxval


def _write_pgm(data: np.ndarray, path) -> None:
    """Write a uint8 (H, W) array as binary PGM (P5), maxval 255."""
    height, width = data.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    write_atomic(path, header + data.tobytes())


def load_image(path) -> GrayImage:
    """Load a binary PGM (P5) file as a grayscale image scaled to [0, 1].

    Raises OSError if the file cannot be read and FormatError if it is not
    a well-formed P5 file (wrong magic, malformed header, bad maxval, or a
    truncated payload). Intensities are scaled by division by maxval.
    """
    raw, maxval = _read_pgm(path)
    return raw.astype(np.float64) / float(maxval)


def save_image(img: GrayImage, path) -> None:
    """Write a grayscale image as binary PGM (P5), maxval 255."""
    _write_pgm(np.rint(as_gray(img) * 255.0).astype(np.uint8), path)


def save_mask(mask: BinaryMask, path) -> None:
    """Write a binary mask as P5 with foreground 255 and background 0."""
    # astype, not a uint8 view: a bool array made by viewing other bytes may
    # hold values other than 0 and 1
    _write_pgm(as_mask(mask).astype(np.uint8) * 255, path)


def load_mask(path) -> BinaryMask:
    """Load a PGM and binarize it at intensity 0.5.

    For integers, value / maxval >= 0.5 exactly when value >= ceil(maxval / 2);
    no quotient below 0.5 rounds up to it, so this is the mask that
    ``threshold(load_image(path), 0.5)`` gives. A payload value above maxval
    raises the ValueError that ``threshold`` raises for an intensity above 1.
    """
    raw, maxval = _read_pgm(path)
    if raw.max() > maxval:
        raise ValueError("image intensities must lie in [0, 1]")
    return raw >= (maxval + 1) // 2


def threshold(img: GrayImage, t: float) -> BinaryMask:
    """Binarize an image: pixel is foreground iff intensity >= t."""
    img = as_gray(img)
    return img >= float(t)
