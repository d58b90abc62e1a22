"""Receiver side: signal extraction, sync, level estimation, symbol decisions."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channel import check_homography, identity_homography, resampling_map
from .core import (
    Color,
    ModulationParams,
    SymbolSeries,
    as_int,
    as_rate,
    check_pixels,
    floor_progression,
    symbols_to_bits,
    to_unit,
    validate_frames,
)
from .encoder import CRC_BITS, LENGTH_BITS, crc32_bits, preamble_bits, preamble_symbols

# A preamble correlation below this is indistinguishable from scanning noise.
MIN_SYNC_CORRELATION = 0.5
# Payloads may replicate the preamble pattern, producing a second correlation
# peak mid-frame. The true start is the earliest peak, so any offset within
# this margin of the best counts as a candidate and the earliest one wins.
SYNC_PEAK_TOLERANCE = 0.1


class SyncError(RuntimeError):
    """No capture offset aligned with the preamble pattern."""


class DegenerateLevelsError(RuntimeError):
    """Preamble level estimates collapsed; the signal carries no usable swing."""


class FramingError(ValueError):
    """Decoded bitstream is too short for the declared frame layout."""


@dataclass(frozen=True)
class SyncResult:
    offset: int
    frames_per_symbol: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "frames_per_symbol",
                           as_rate(self.frames_per_symbol, "frames_per_symbol"))


@dataclass(frozen=True)
class LevelEstimate:
    """Amplitudes learned from the preamble.

    mu0/mu1 are the bottom and top symbol amplitudes, sigma the pooled
    per-sample noise deviation. level_means interpolates all m symbol
    amplitudes; thresholds holds the m-1 midpoint decision boundaries.
    """

    mu0: float
    mu1: float
    sigma: float
    level_means: np.ndarray
    thresholds: np.ndarray


@dataclass(frozen=True)
class DecodeReport:
    payload: np.ndarray
    series: SymbolSeries
    sync: SyncResult
    levels: LevelEstimate
    symbols: np.ndarray
    crc_ok: bool
    ber_vs_reference: float | None = None


@functools.lru_cache(maxsize=1)
def _rectify_weights(pull: bytes, height: int, width: int,
                     region: tuple[int, int, int, int]) -> np.ndarray:
    """Rectify, crop and mean as one fixed linear map: a weight per sensor pixel.

    pull holds the bytes of a checked float64 3x3 matrix, so a caller that
    changes its matrix in place gets new weights. A stream of calls with one
    homography, frame size and region builds them once; only the last
    read-only weight image is kept.
    """
    x, y, w, h = region
    index, weight = (a.reshape(4, height, width)[:, y:y + h, x:x + w]
                     for a in resampling_map(np.frombuffer(pull).reshape(3, 3),
                                             height, width))
    weights = np.bincount(index.ravel(), weight.ravel(),
                          minlength=height * width) / (w * h)
    weights.flags.writeable = False
    return weights


def extract_block_frames(height: int, width: int) -> int:
    """Frames per block in which extract_signal reduces a clip, counted from its
    first frame: a quarter million pixels bound the float copy on long clips. A
    sample depends on its block's rows in the last bit (see StagedSignal)."""
    return max(1, (1 << 18) // (height * width))


def extract_signal(frames: np.ndarray, homography: np.ndarray | None = None,
                   region: tuple[int, int, int, int] | None = None,
                   channel: Color = Color.RED,
                   sample_rate: Fraction = Fraction(1)) -> SymbolSeries:
    """Reduce captured frames to one amplitude sample per frame.

    homography is the forward display-to-sensor mapping the channel applied;
    when given, each capture is rectified back into display coordinates before
    measuring (a rectified pixel at display position p is pulled from sensor
    position H p). region is an (x, y, w, h) crop in the rectified frame; by
    default the whole frame is averaged. The weight image that rectifies,
    crops and averages is built once per homography, frame size and region,
    and kept after the call (8 bytes per sensor pixel) until a call with
    another homography, frame size or region builds the next.
    """
    planes = validate_frames(frames)[..., int(channel)]
    weights = _bound_weights(planes.shape[1:], homography, region)
    step = extract_block_frames(*planes.shape[1:])
    return SymbolSeries(np.concatenate([_block_samples(planes[k:k + step], weights)
                                        for k in range(0, len(planes), step)]), sample_rate)


def _bound_weights(size: tuple[int, int], homography, region) -> np.ndarray:
    """The kept weight image for (h, w) frames, once region and homography pass."""
    height, width = size
    x, y, w, h = ((0, 0, width, height) if region is None
                  else (as_int(v, "region value") for v in region))
    if w < 1 or h < 1:
        raise ValueError(f"region must have positive size, got {region}")
    if x < 0 or y < 0 or y + h > height or x + w > width:
        raise ValueError(f"region {region} falls outside frames of shape "
                         f"{(height, width)}")
    pull = identity_homography() if homography is None else check_homography(homography)
    return _rectify_weights(pull.tobytes(), height, width, (x, y, w, h))


def _block_samples(planes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    return to_unit(planes).reshape(-1, weights.size) @ weights


class StagedSignal:
    """One colour plane of a capture stream reduced to samples as it arrives.

    add takes the plane's captures in order, in (n, h, w) blocks of any size,
    and refuses values as validate_frames does. The first fixes the frame size
    and dtype and binds the weight image (a bad region or homography fails
    there). Each block is copied into a stage of extract_block_frames captures,
    reduced whenever it fills, so series() is bit for bit extract_signal on the
    whole clip with the same arguments.
    """

    def __init__(self, homography=None, region=None, sample_rate=Fraction(1)):
        self.homography, self.region, self.sample_rate = homography, region, sample_rate
        self.stage, self.weights, self.filled, self.values = None, None, 0, []

    def add(self, planes: np.ndarray) -> None:
        """Reduce the next captures: uint8, or float within [0, 1]."""
        arr = np.asarray(planes)
        if arr.ndim != 3 or self.stage is not None and (arr.shape[1:], arr.dtype) != (
                self.stage.shape[1:], self.stage.dtype):
            raise ValueError(f"planes must come in (n, h, w) blocks of one frame size "
                             f"and dtype, got {arr.shape} {arr.dtype}")
        if 0 in arr.shape[1:]:
            raise ValueError(f"frames must be at least 1x1, got {arr.shape}")
        check_pixels(arr)
        if self.stage is None:
            self.weights = _bound_weights(arr.shape[1:], self.homography, self.region)
            self.stage = np.empty((extract_block_frames(*arr.shape[1:]), *arr.shape[1:]),
                                  arr.dtype)
        while len(arr):
            take = min(len(self.stage) - self.filled, len(arr))
            self.stage[self.filled:self.filled + take] = arr[:take]
            self.filled, arr = self.filled + take, arr[take:]
            if self.filled == len(self.stage):
                self._reduce_stage()

    def _reduce_stage(self) -> None:
        self.values.append(_block_samples(self.stage[:self.filled], self.weights))
        self.filled = 0

    def series(self) -> SymbolSeries:
        """The samples of the whole stream, once every capture has been added."""
        if self.filled:
            self._reduce_stage()
        if not self.values:
            raise ValueError("frame sequence must contain at least one frame")
        return SymbolSeries(np.concatenate(self.values), self.sample_rate)


def received_frames_per_symbol(params: ModulationParams, camera_fps: Fraction) -> Fraction:
    """Capture frames spanned by one symbol, exactly."""
    return as_rate(camera_fps, "camera_fps") / params.symbol_rate


def synchronize(series: SymbolSeries, params: ModulationParams,
                camera_fps: Fraction) -> SyncResult:
    """Locate the preamble by sliding a +/-1 alternating template over the trace.

    Candidate offsets correlate within SYNC_PEAK_TOLERANCE of the best Pearson
    correlation; the earliest candidate wins, which keeps alternating payloads
    from being mistaken for the preamble. Raises SyncError when the trace is
    shorter than one preamble or the best correlation stays below
    MIN_SYNC_CORRELATION.
    """
    r = received_frames_per_symbol(params, camera_fps)
    template_len = math.ceil(len(preamble_symbols(params)) * r)
    values = series.values
    if len(values) < template_len:
        raise SyncError(f"trace of {len(values)} samples is shorter than the "
                        f"{template_len}-sample preamble")

    # Sample k sits at time (k + 0.5) capture periods, hence the half-sample
    # shift when assigning samples to template symbols.
    symbol_of = floor_progression(template_len, 1 / (2 * r), 1 / r)
    template = np.where(symbol_of % 2 == 0, 1.0, -1.0)
    t_centered = template - template.mean()
    t_norm = float(np.sqrt(np.sum(t_centered**2)))
    if t_norm == 0.0:
        raise SyncError("degenerate preamble template")

    corr = _window_correlation(values, t_centered, t_norm)

    peak = float(corr.max())
    if peak < MIN_SYNC_CORRELATION:
        raise SyncError(f"best preamble correlation {peak:.3f} below "
                        f"{MIN_SYNC_CORRELATION}; no transmission found")
    cutoff = max(MIN_SYNC_CORRELATION, peak - SYNC_PEAK_TOLERANCE)
    earliest = int(np.nonzero(corr >= cutoff)[0][0])
    return SyncResult(offset=earliest, frames_per_symbol=r)


def _window_correlation(values: np.ndarray, t_centered: np.ndarray,
                        t_norm: float) -> np.ndarray:
    """Pearson correlation of a zero-mean template with every trace window.

    Window norms come from running sums of the mean-removed trace (Lewis,
    "Fast Normalized Cross-Correlation", 1995): O(trace) memory. Windows with
    no variance read -inf.
    """
    size = t_centered.size
    x = values - values.mean()
    running = [np.concatenate(([0.0], np.cumsum(p))) for p in (x, x * x)]
    s1, s2 = (c[size:] - c[:-size] for c in running)
    with np.errstate(invalid="ignore", divide="ignore"):
        w_norm = np.sqrt(s2 - s1 * s1 / size)
        corr = np.correlate(x, t_centered, "valid") / (w_norm * t_norm)
    corr[~np.isfinite(corr)] = -np.inf
    return corr


def central_windows(sync: SyncResult, n_samples: int,
                    n_symbols: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Start and stop sample of each symbol's central window, clipped to [0, n).

    Edge samples may straddle a display-frame boundary, so decisions use the
    middle 50 percent of each symbol period, or the nearest-center sample when
    that rounds to nothing. By default the table ends with the first symbol
    that starts past the end of the trace. The bounds are exact.
    """
    r = sync.frames_per_symbol
    if n_symbols is None:
        n_symbols = max(0, math.ceil((n_samples - sync.offset) / r)) + 1
    # Symbol k's central samples lie in offset + (k + [1/4, 3/4]) r; ceil(x) = -floor(-x).
    start = -floor_progression(n_symbols, -(sync.offset + r / 4), -r)
    stop = -floor_progression(n_symbols, -(sync.offset + 3 * r / 4), -r)
    center = floor_progression(n_symbols, sync.offset + r / 2, r)
    empty = stop <= start
    start = np.where(empty, center, start)
    stop = np.where(empty, center + 1, stop)
    return np.clip(start, 0, n_samples), np.clip(stop, 0, n_samples)


def _window_means(values: np.ndarray, start: np.ndarray,
                  stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean of each non-empty window, and every sample's deviation from it.

    Windows are the rows of a zero-padded matrix, whose row sums equal those
    of the bare slices bit for bit unless window lengths straddle a multiple
    of eight (numpy's pairwise-sum block).
    """
    counts = stop - start
    column = np.arange(counts.max(initial=0))
    inside = column < counts[:, None]
    rows = np.where(inside, values[np.minimum(start[:, None] + column,
                                              len(values) - 1)], 0.0)
    means = rows.sum(axis=1) / counts
    return means, (rows - means[:, None])[inside]


def estimate_levels(series: SymbolSeries, sync: SyncResult,
                    params: ModulationParams) -> LevelEstimate:
    """Learn symbol amplitudes from the alternating preamble.

    The m per-symbol means are interpolated between the measured top and
    bottom amplitudes; sigma pools the within-symbol sample deviations.
    """
    values = series.values
    n_preamble = len(preamble_symbols(params))
    start, stop = central_windows(sync, len(values), n_preamble)
    counts = stop - start
    if not counts.all():
        raise DegenerateLevelsError(f"preamble symbol {np.argmin(counts)} has "
                                    "no samples")
    means, pooled = _window_means(values, start, stop)
    mu1 = float(means[0::2].mean())
    mu0 = float(means[1::2].mean())
    if not mu1 > mu0:
        raise DegenerateLevelsError(f"top amplitude {mu1:.6g} does not exceed "
                                    f"bottom amplitude {mu0:.6g}")
    dof = pooled.size - n_preamble
    sigma = float(np.sqrt(np.sum(pooled**2) / dof)) if dof > 0 else 0.0
    level_means = mu0 + (mu1 - mu0) * np.arange(params.m) / (params.m - 1)
    thresholds = (level_means[:-1] + level_means[1:]) / 2.0
    return LevelEstimate(mu0=mu0, mu1=mu1, sigma=sigma,
                         level_means=level_means, thresholds=thresholds)


def decide_symbols(series: SymbolSeries, sync: SyncResult, levels: LevelEstimate,
                   params: ModulationParams) -> np.ndarray:
    """Threshold each symbol's central-window mean into a symbol index.

    Every symbol up to the first one without a captured central-window sample
    is decided, so a capture that ends inside the last symbol still yields it.
    Values exactly on a threshold resolve to the higher symbol.
    """
    values = series.values
    start, stop = central_windows(sync, len(values))
    decided = int(np.argmin(stop > start))
    means, _ = _window_means(values, start[:decided], stop[:decided])
    return np.searchsorted(levels.thresholds, means, side="right")


def deframe(bits: np.ndarray, params: ModulationParams) -> tuple[np.ndarray, bool]:
    """Split a decoded bitstream into (payload, crc_ok).

    crc_ok requires both an intact preamble and a matching payload CRC. Raises
    FramingError only when the stream is too short to even carry the declared
    layout.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    expected_preamble = preamble_bits(params)
    header_end = expected_preamble.size + LENGTH_BITS
    if bits.size < header_end:
        raise FramingError(f"bitstream of {bits.size} bits is shorter than the "
                           f"{header_end}-bit header")
    preamble_ok = bool(np.array_equal(bits[:expected_preamble.size], expected_preamble))
    weights = 1 << np.arange(LENGTH_BITS - 1, -1, -1, dtype=np.int64)
    length = int(bits[expected_preamble.size:header_end] @ weights)
    if bits.size < header_end + length + CRC_BITS:
        raise FramingError(f"header declares {length} payload bits but only "
                           f"{bits.size - header_end - CRC_BITS} are present")
    payload = bits[header_end:header_end + length]
    crc_field = bits[header_end + length:header_end + length + CRC_BITS]
    crc_ok = preamble_ok and bool(np.array_equal(crc_field, crc32_bits(payload)))
    return payload, crc_ok


def bit_error_rate(decoded: np.ndarray, reference: np.ndarray) -> float:
    """Fraction of differing bits; length mismatches count as errors."""
    decoded = np.asarray(decoded, dtype=np.uint8)
    reference = np.asarray(reference, dtype=np.uint8)
    n = max(decoded.size, reference.size)
    if n == 0:
        return 0.0
    overlap = min(decoded.size, reference.size)
    errors = int(np.count_nonzero(decoded[:overlap] != reference[:overlap]))
    errors += n - overlap
    return errors / n


def decode_series(series: SymbolSeries, params: ModulationParams, camera_fps: Fraction,
                  reference_payload: np.ndarray | None = None) -> DecodeReport:
    """Decode a sample trace: sync, level estimation, decisions and deframing."""
    sync = synchronize(series, params, camera_fps)
    levels = estimate_levels(series, sync, params)
    symbols = decide_symbols(series, sync, levels, params)
    payload, crc_ok = deframe(symbols_to_bits(symbols, params), params)
    ber = None
    if reference_payload is not None:
        ber = bit_error_rate(payload, reference_payload)
    return DecodeReport(payload=payload, series=series, sync=sync, levels=levels,
                        symbols=symbols, crc_ok=crc_ok, ber_vs_reference=ber)


def decode_frames(frames: np.ndarray, params: ModulationParams, camera_fps: Fraction,
                  homography: np.ndarray | None = None,
                  region: tuple[int, int, int, int] | None = None,
                  reference_payload: np.ndarray | None = None) -> DecodeReport:
    """Run the full receive pipeline over captured frames: extract_signal,
    then decode_series.

    homography is the forward display-to-sensor mapping used by the channel;
    captures are rectified back into display coordinates before measuring.
    """
    series = extract_signal(frames, homography=homography, region=region,
                            channel=params.channel, sample_rate=camera_fps)
    return decode_series(series, params, camera_fps, reference_payload)
