"""Shared domain types: modulation parameters, bit/symbol mapping, frame checks."""

from __future__ import annotations

import math
import numbers
import os
import threading
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction

import numpy as np

# Brightness changes above this fraction are plainly visible on most panels.
# Larger depths are refused unless the caller explicitly opts in.
MAX_SAFE_DEPTH = 0.1

# CPUs this process may run on: the most threads one run_tasks call uses.
_CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
          else os.cpu_count() or 1)


def as_rate(value, name: str) -> Fraction:
    """value as an exact positive Fraction. Floats convert exactly, so the float
    30000/1001 is not the NTSC rate Fraction(30000, 1001)."""
    if (isinstance(value, (numbers.Rational, float)) and not isinstance(value, bool)
            and 0 < value < math.inf):
        return Fraction(int(value) if isinstance(value, numbers.Integral) else value)
    raise ValueError(f"{name} must be positive and finite, got {value!r}")


def as_int(value, name: str) -> int:
    """value as a Python int; only Python and numpy integers, not bools, are integers."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def as_seed(seed, name: str) -> int:
    """A noise seed as a Python int; only integers in [0, 2**64), not bools, are seeds."""
    if isinstance(seed, numbers.Integral) and not isinstance(seed, bool) and 0 <= seed < 2**64:
        return int(seed)
    raise ValueError(f"{name} must be an integer in [0, 2**64), got {seed!r}")


def floor_progression(n: int, a: int, b: int, den: int) -> np.ndarray:
    """floor((a + b k) / den) for k = 0 .. n-1 and integers a, b, den > 0, exactly,
    as int64; the terms are Python ints once they reach 2**62 (a float rate's
    denominator is near 2**52)."""
    k = np.arange(n, dtype=np.int64 if abs(a) + abs(b) * n + den < 1 << 62 else object)
    return ((a + b * k) // den).astype(np.int64, copy=False)


class Color(IntEnum):
    """RGB plane selector; the value doubles as the last-axis pixel index."""

    RED = 0
    GREEN = 1
    BLUE = 2

    @classmethod
    def parse(cls, name: str) -> "Color":
        try:
            return cls[name.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown color channel {name!r}, expected one of "
                             f"{[c.name.lower() for c in cls]}") from None


@dataclass(frozen=True)
class ModulationParams:
    """Amplitude-shift keying setup for one transmission.

    m:
        alphabet size, a power of two (2 = on/off keying).
    symbol_duration_frames:
        display frames held per symbol.
    depth:
        peak relative brightness increase of the modulated plane. The top
        symbol scales pixel values by (1 + depth); intermediate symbols are
        spaced evenly in between.
    channel:
        which color plane carries the modulation.
    frame_rate:
        display refresh rate in frames per second, held as an exact Fraction.
    allow_visible_depth:
        permit depth > MAX_SAFE_DEPTH (for experiments only).
    """

    m: int = 2
    symbol_duration_frames: int = 6
    depth: float = 0.03
    channel: Color = Color.RED
    frame_rate: Fraction = Fraction(30)
    allow_visible_depth: bool = False

    def __post_init__(self) -> None:
        for name in ("m", "symbol_duration_frames"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        if self.m < 2 or (self.m & (self.m - 1)) != 0:
            raise ValueError(f"m must be a power of two >= 2, got {self.m}")
        if self.symbol_duration_frames < 1:
            raise ValueError("symbol_duration_frames must be a positive integer, "
                             f"got {self.symbol_duration_frames}")
        if not math.isfinite(self.depth) or self.depth <= 0.0:
            raise ValueError(f"depth must be positive and finite, got {self.depth}")
        if self.depth > MAX_SAFE_DEPTH and not self.allow_visible_depth:
            raise ValueError(f"depth {self.depth} exceeds the imperceptibility "
                             f"ceiling {MAX_SAFE_DEPTH}; set allow_visible_depth "
                             "to override")
        if not isinstance(self.channel, Color):
            raise ValueError(f"channel must be a Color, got {self.channel!r}")
        object.__setattr__(self, "frame_rate", as_rate(self.frame_rate, "frame_rate"))

    @property
    def bits_per_symbol(self) -> int:
        return self.m.bit_length() - 1

    @property
    def symbol_rate(self) -> Fraction:
        """Symbols per second."""
        return self.frame_rate / self.symbol_duration_frames

    @property
    def bit_rate(self) -> Fraction:
        """Bits per second."""
        return self.bits_per_symbol * self.symbol_rate


@dataclass(frozen=True)
class SymbolSeries:
    """A sampled amplitude trace with its exact sample rate in samples per second."""

    values: np.ndarray
    sample_rate: Fraction

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError(f"values must be one-dimensional, got shape {values.shape}")
        if values.size and not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sample_rate", as_rate(self.sample_rate, "sample_rate"))

    def __len__(self) -> int:
        return self.values.size


def as_bits(bits) -> np.ndarray:
    """Coerce a bit sequence (array, list, or '0101' string) to a uint8 array."""
    if isinstance(bits, str):
        stripped = bits.replace(" ", "")
        if stripped and not set(stripped) <= {"0", "1"}:
            raise ValueError(f"bit string may contain only 0 and 1, got {bits!r}")
        arr = np.frombuffer(stripped.encode("ascii"), dtype=np.uint8) - ord("0")
        return arr.astype(np.uint8)
    arr = np.asarray(bits)
    if arr.ndim != 1:
        raise ValueError(f"bits must be one-dimensional, got shape {arr.shape}")
    if arr.size and not ((arr == 0) | (arr == 1)).all():
        raise ValueError("bits must contain only 0 and 1")
    return arr.astype(np.uint8)


def bits_to_symbols(bits, params: ModulationParams) -> np.ndarray:
    """Group bits (most significant first) into symbol indices, zero-padding the tail."""
    arr = as_bits(bits)
    k = params.bits_per_symbol
    remainder = arr.size % k
    if remainder:
        arr = np.concatenate([arr, np.zeros(k - remainder, dtype=np.uint8)])
    groups = arr.reshape(-1, k).astype(np.int64)
    weights = 1 << np.arange(k - 1, -1, -1, dtype=np.int64)
    return groups @ weights


def symbols_to_bits(symbols, params: ModulationParams) -> np.ndarray:
    """Expand symbol indices back into bits, most significant bit first."""
    arr = np.asarray(symbols, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"symbols must be one-dimensional, got shape {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= params.m):
        raise ValueError(f"symbol indices must lie in [0, {params.m}), "
                         f"got range [{arr.min()}, {arr.max()}]")
    k = params.bits_per_symbol
    shifts = np.arange(k - 1, -1, -1, dtype=np.int64)
    bits = (arr[:, None] >> shifts[None, :]) & 1
    return bits.reshape(-1).astype(np.uint8)


def level_table(params: ModulationParams) -> np.ndarray:
    """Gains for all m symbol indices in index order."""
    return 1.0 + params.depth * np.arange(params.m) / (params.m - 1)


def validate_frames(frames: np.ndarray) -> np.ndarray:
    """Check an NxHxWx3 frame sequence (uint8, or float within [0, 1])."""
    arr = np.asarray(frames)
    if arr.ndim != 4 or arr.shape[3] != 3:
        raise ValueError(f"frames must have shape (n, h, w, 3), got {arr.shape}")
    if arr.shape[0] < 1:
        raise ValueError("frame sequence must contain at least one frame")
    if arr.shape[1] < 1 or arr.shape[2] < 1:
        raise ValueError(f"frames must be at least 1x1, got {arr.shape}")
    return check_pixels(arr)


def check_pixels(arr: np.ndarray) -> np.ndarray:
    """arr, once its pixels are uint8, or float, finite and within [0, 1]."""
    if np.issubdtype(arr.dtype, np.floating):
        # Non-negative floats order as their bits, so one pass over the bits
        # accepts pixels in [0, 1] (longer floats have no such unsigned view).
        # The rest, -0.0 too, get two passes: NaN fails both comparisons and
        # an infinity fails one.
        bits = arr.dtype.str.replace("f", "u")  # same size and byte order
        if arr.size and not (arr.itemsize <= 8 and arr.view(bits).max()
                             <= np.array(1.0, arr.dtype).view(bits)):
            if not (arr.min() >= 0.0 and arr.max() <= 1.0):
                raise ValueError("float pixels must be finite and lie in [0, 1]")
    elif arr.dtype != np.uint8:
        raise ValueError(f"pixels must be uint8 or float in [0, 1], got dtype {arr.dtype}")
    return arr


def to_unit(frames: np.ndarray) -> np.ndarray:
    """Convert uint8 pixels to float64 in [0, 1]; pass float frames through."""
    arr = np.asarray(frames)
    if arr.dtype == np.uint8:
        unit = arr.astype(np.float64)
        unit /= 255.0
        return unit
    return arr.astype(np.float64, copy=False)


def quantize_unit(frames: np.ndarray, bits: int = 8) -> np.ndarray:
    """Quantize unit-range floats to 2**bits levels, rounding halves up.

    Returns uint8 for bits == 8 and float32 (still unit range, on the
    quantizer grid) otherwise; bits lie in [1, 24], as float32 cannot hold
    every level of a deeper grid.
    """
    if not 1 <= bits <= 24:
        raise ValueError(f"quantizer bits must lie in [1, 24], got {bits}")
    levels = (1 << bits) - 1
    q = np.multiply(frames, levels, dtype=np.float64)
    q += 0.5
    np.clip(q, 0, levels, out=q)
    if bits == 8:  # the cast truncates, which is floor on [0, 255]
        return q.astype(np.uint8)
    return (np.floor(q, out=q) / levels).astype(np.float32)


def run_tasks(tasks: Sequence, make_work: Callable[[], Callable],
              ahead: int | None = None) -> Iterator:
    """Yield each task's result in order, worked out on min(_CORES, len(tasks)) threads.

    Each thread makes its own work function and takes the next task when it
    is free. The caller is one of them: while its next result is not ready, it
    takes each task no thread has started. With ahead set, at most ahead tasks
    per thread are taken past the result last yielded. A worker's error is
    raised in the caller. Once the generator ends, closed or by an error, no
    task is taken and the workers are joined. One thread opens no pool.
    """
    n_threads = min(_CORES, len(tasks))
    if n_threads <= 1:
        yield from map(make_work(), tasks)
        return
    local = threading.local()

    def run(index: int):
        if not hasattr(local, "work"):
            local.work = make_work()
        return local.work(tasks[index])

    pool, futures, mine = ThreadPoolExecutor(n_threads - 1), deque(), {}
    try:
        for head in range(len(tasks)):
            end = len(tasks) if ahead is None else head + 1 + ahead * n_threads
            futures += [pool.submit(run, i)
                        for i in range(head + len(futures), min(end, len(tasks)))]
            for i, future in enumerate(futures):
                if futures[0].done():
                    break
                if not future.done() and future.cancel():  # no thread started it
                    mine[head + i] = run(head + i)
            future = futures.popleft()
            yield mine.pop(head) if future.cancelled() else future.result()
    finally:
        pool.shutdown(cancel_futures=True)
