"""BFRS container: raw RGB frame sequences with an exact rational frame rate.

Layout (little-endian): 4-byte magic "BFRS", u16 version, u32 width, u32
height, u32 fps numerator, u32 fps denominator, u32 frame count, then
frame_count frames of height*width*3 uint8 RGB samples in row-major order.
"""

from __future__ import annotations

import struct
from fractions import Fraction

import numpy as np

from .core import as_rate

MAGIC = b"BFRS"
VERSION = 1
_HEADER = struct.Struct("<4sHIIIII")
HEADER_SIZE = _HEADER.size
FIELD_MAX = 0xFFFFFFFF  # every header field but magic and version is a u32


class BfrsFormatError(ValueError):
    """The file does not parse as a BFRS frame sequence."""


def write_bfrs(path, frames: np.ndarray, fps: Fraction) -> None:
    """Write uint8 frames of shape (n, h, w, 3) with the given frame rate."""
    arr = np.ascontiguousarray(frames)
    if arr.ndim != 4 or arr.shape[3] != 3:
        raise ValueError(f"frames must have shape (n, h, w, 3), got {arr.shape}")
    if arr.dtype != np.uint8:
        raise ValueError(f"BFRS stores uint8 samples, got dtype {arr.dtype}")
    fps = as_rate(fps, "fps")
    n, h, w, _ = arr.shape
    for label, value in (("width", w), ("height", h), ("frame count", n),
                         ("fps numerator", fps.numerator),
                         ("fps denominator", fps.denominator)):
        if value > FIELD_MAX:
            raise ValueError(f"{label} {value} does not fit in 32 bits")
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, VERSION, w, h, fps.numerator, fps.denominator, n))
        arr.tofile(f)


def read_bfrs(path) -> tuple[np.ndarray, Fraction]:
    """Read a BFRS file back into (frames, fps); the frames are a writable view
    past the header of the one array the file is read into."""
    data = np.fromfile(path, dtype=np.uint8)
    if data.size < HEADER_SIZE:
        raise BfrsFormatError(f"file is {data.size} bytes, shorter than the "
                              f"{HEADER_SIZE}-byte header")
    magic, version, w, h, fps_num, fps_den, n = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise BfrsFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise BfrsFormatError(f"unsupported version {version}, expected {VERSION}")
    if fps_den == 0 or fps_num == 0:
        raise BfrsFormatError(f"invalid frame rate {fps_num}/{fps_den}")
    if w == 0 or h == 0:
        raise BfrsFormatError(f"invalid frame size {w}x{h}")
    expected = HEADER_SIZE + n * h * w * 3
    if data.size != expected:
        raise BfrsFormatError(f"file is {data.size} bytes but the header implies "
                              f"{expected} ({n} frames of {w}x{h})")
    return data[HEADER_SIZE:].reshape(n, h, w, 3), Fraction(fps_num, fps_den)
