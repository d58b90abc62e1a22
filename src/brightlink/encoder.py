"""Transmitter side: payload framing and carrier-frame modulation."""

from __future__ import annotations

import zlib

import numpy as np

from .core import (
    ModulationParams,
    as_bits,
    bits_to_symbols,
    level_table,
    symbols_to_bits,
    validate_frames,
)

# The frame header is a fixed-length sync preamble followed by a 32-bit big-endian
# payload length (in bits); a CRC-32 over the payload closes the frame.
PREAMBLE_SYMBOLS = 16
LENGTH_BITS = 32
CRC_BITS = 32
MAX_PAYLOAD_BITS = 2**32 - 1

BUILTIN_CARRIERS = ("gray128", "gradient")


class CarrierTooShortError(ValueError):
    """The carrier clip has fewer frames than the framed message needs."""

    def __init__(self, needed: int, available: int):
        super().__init__(f"carrier provides {available} frames but the framed "
                         f"message needs {needed}")
        self.needed = needed
        self.available = available


def preamble_symbols(params: ModulationParams) -> np.ndarray:
    """Alternating top/bottom symbol indices used for sync and level estimation."""
    pattern = np.zeros(PREAMBLE_SYMBOLS, dtype=np.int64)
    pattern[0::2] = params.m - 1
    return pattern


def preamble_bits(params: ModulationParams) -> np.ndarray:
    return symbols_to_bits(preamble_symbols(params), params)


def bits_to_bytes(bits) -> bytes:
    """Pack bits into bytes, most significant bit first, zero-padding the tail."""
    return np.packbits(as_bits(bits)).tobytes()


def crc32_bits(payload_bits) -> np.ndarray:
    """CRC-32 (as in zip/png) of the packed payload, as 32 bits MSB first."""
    value = zlib.crc32(bits_to_bytes(payload_bits)) & 0xFFFFFFFF
    return _int_to_bits(value, CRC_BITS)


def frame_payload(payload_bits, params: ModulationParams) -> np.ndarray:
    """Wrap a payload in the preamble / length / payload / CRC frame."""
    payload = as_bits(payload_bits)
    if payload.size > MAX_PAYLOAD_BITS:
        raise ValueError(f"payload of {payload.size} bits exceeds the "
                         f"{MAX_PAYLOAD_BITS}-bit length field")
    return np.concatenate([
        preamble_bits(params),
        _int_to_bits(payload.size, LENGTH_BITS),
        payload,
        crc32_bits(payload),
    ])


def _int_to_bits(value: int, width: int) -> np.ndarray:
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    return ((value >> shifts) & 1).astype(np.uint8)


def frames_needed(payload_bit_count: int, params: ModulationParams) -> int:
    """Display frames required to carry a framed payload of the given size."""
    total_bits = PREAMBLE_SYMBOLS * params.bits_per_symbol + LENGTH_BITS \
        + payload_bit_count + CRC_BITS
    n_symbols = -(-total_bits // params.bits_per_symbol)
    return n_symbols * params.symbol_duration_frames


def encode_stream(payload_bits, carrier: np.ndarray,
                  params: ModulationParams) -> np.ndarray:
    """Imprint a framed payload onto a uint8 carrier clip.

    Each symbol scales the modulated plane by its level (rounded half up and
    clamped to 255) for symbol_duration_frames frames; the other planes and
    carrier frames beyond the message are passed through unmodified.
    """
    payload = as_bits(payload_bits)
    frames = validate_frames(carrier)
    if frames.dtype != np.uint8:
        raise ValueError(f"carrier frames must be uint8, got dtype {frames.dtype}")
    symbols = bits_to_symbols(frame_payload(payload, params), params)
    needed = symbols.size * params.symbol_duration_frames
    if frames.shape[0] < needed:
        raise CarrierTooShortError(needed, frames.shape[0])
    # One lookup table per level: scale, round half up, clamp to 255.
    luts = np.minimum(np.floor(level_table(params)[:, None] * np.arange(256.0) + 0.5),
                      255.0).astype(np.uint8)
    out = frames.copy()
    plane = out[:, :, :, params.channel]
    d = params.symbol_duration_frames
    for i, symbol in enumerate(symbols):
        plane[i * d:(i + 1) * d] = luts[symbol][plane[i * d:(i + 1) * d]]
    return out


def make_carrier(name: str, width: int, height: int, n_frames: int) -> np.ndarray:
    """Build a synthetic uint8 carrier clip of n_frames identical frames.

    "gray128" is a flat mid-gray field. "gradient" ramps every plane across the
    frame, which gives region means sub-quantizer resolution after the camera
    rounds pixels (a flat field would round every pixel the same way).
    """
    if width < 2 or height < 2:
        raise ValueError(f"carrier must be at least 2x2, got {width}x{height}")
    if n_frames < 1:
        raise ValueError(f"carrier needs at least one frame, got {n_frames}")
    frame = np.empty((height, width, 3), dtype=np.uint8)
    if name == "gray128":
        frame[:] = 128
    elif name == "gradient":
        x = (np.arange(width, dtype=np.int64) * 255) // (width - 1)
        y = (np.arange(height, dtype=np.int64) * 255) // (height - 1)
        frame[:, :, 0] = (y[:, None] + x[None, :]) // 2
        frame[:, :, 1] = x[None, :]
        frame[:, :, 2] = 255 - y[:, None]
    else:
        raise ValueError(f"unknown carrier {name!r}, expected one of {BUILTIN_CARRIERS}")
    return np.repeat(frame[None, :, :, :], n_frames, axis=0)
