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
    as_bits,
    as_int,
    as_rate,
    check_pixels,
    floor_progression,
    symbols_to_bits,
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
    """The exact symbol timeline of the trace of n_samples samples it was found
    in: symbol k spans samples offset + [k, k + 1) frames_per_symbol."""

    offset: int
    frames_per_symbol: Fraction
    n_samples: int

    def __post_init__(self) -> None:
        for name, check in (("offset", as_int), ("frames_per_symbol", as_rate),
                            ("n_samples", as_int)):
            object.__setattr__(self, name, check(getattr(self, name), name))
        if self.n_samples < 0:
            raise ValueError(f"n_samples must not be negative, got {self.n_samples}")
        if not 0 <= self.offset <= self.n_samples:
            raise ValueError(f"offset {self.offset} falls outside [0, {self.n_samples}]")

    @functools.cached_property
    def windows(self) -> np.ndarray:
        """Start and stop sample (rows) of each symbol's central window, clipped to
        [0, n_samples), through the first symbol that starts past the end.

        A central window, since edge samples may straddle a display-frame
        boundary, holds the sample indices in the middle half of [k r, (k + 1) r)
        past the offset, at r samples per symbol, or the index nearest the center
        when that half holds none. Sample i is the capture at (i + 1/2) frame
        periods, so the window sits half a sample after the middle of the samples
        that show the symbol: at r = 3, samples 0-2 show symbol 0 and 1-2 decide
        it; at r = 2, sample 1 does. The read-only table is built once, on
        first use, in integer arithmetic on the rate's numerator and denominator;
        every stage slices it."""
        o, n = self.offset, self.n_samples
        p, q = self.frames_per_symbol.numerator, self.frames_per_symbol.denominator
        count = -((o - n) * q // p) + 1
        # Symbol k's central samples lie in o + (k + [1/4, 3/4]) p / q; ceil(x) = -floor(-x).
        start, stop = (-floor_progression(count, -(4 * o * q + j * p), -4 * p, 4 * q)
                       for j in (1, 3))
        # An empty window, start == stop, falls back to stop - 1: the center lies
        # strictly between the two bounds, so that is the sample nearest it.
        table = np.minimum([np.minimum(start, stop - 1), stop], n)
        table.flags.writeable = False
        return table

    def windows_of(self, series: SymbolSeries) -> np.ndarray:
        """windows, once series is the trace this timeline was found in."""
        if len(series) != self.n_samples:
            raise ValueError(f"sync was found in a trace of {self.n_samples} samples, "
                             f"not {len(series)}")
        return self.windows


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
    """Frames per stage of StagedSignal, counted from a stream's first frame: a
    quarter million pixels bound the float copy. A sample depends on its stage's
    rows in the last bit, so stages fall on the same frames in any grouping."""
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
    default the whole frame is averaged. The checked clip's colour plane is
    one block of a StagedSignal, so any stream of it gives these samples.
    """
    signal = StagedSignal(homography, region, sample_rate)
    signal._reduce(validate_frames(frames)[..., int(channel)], whole=True)
    return signal.series()


def _block_samples(planes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Each plane's weighted sum, by BLAS on contiguous float64; uint8 raw, then / 255 once."""
    samples = np.ascontiguousarray(planes, np.float64).reshape(-1, weights.size) @ weights
    return samples / 255.0 if planes.dtype == np.uint8 else samples


class StagedSignal:
    """One colour plane of a capture stream reduced to samples as it arrives:
    the receiver's one reducer, which extract_signal feeds in one block.

    add takes the plane's captures in order, in (n, h, w) blocks of any size,
    and refuses values as validate_frames does. The first fixes the frame size
    and dtype and binds the kept weight image (a bad region or homography fails
    there). A whole stage of extract_block_frames captures is reduced where it
    lies when none is part filled, the rest through a copy: series() is the
    same in any grouping, bit for bit, for every dtype.
    """

    def __init__(self, homography=None, region=None, sample_rate=Fraction(1)):
        self.homography = identity_homography() if homography is None else homography
        self.region, self.sample_rate = region, as_rate(sample_rate, "sample_rate")
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
        self._reduce(check_pixels(arr))

    def _reduce(self, arr: np.ndarray, whole: bool = False) -> None:
        """add, once arr's shape and pixels are checked; whole says arr is the stream."""
        if self.stage is None:
            _, height, width = arr.shape
            x, y, w, h = ((0, 0, width, height) if self.region is None
                          else (as_int(v, "region value") for v in self.region))
            if w < 1 or h < 1:
                raise ValueError(f"region must have positive size, got {self.region}")
            if x < 0 or y < 0 or y + h > height or x + w > width:
                raise ValueError(f"region {self.region} falls outside frames of shape "
                                 f"{(height, width)}")
            pull = check_homography(self.homography)
            self.weights = _rectify_weights(pull.tobytes(), height, width, (x, y, w, h))
            self.stage = np.empty((extract_block_frames(height, width), height, width),
                                  arr.dtype)
        while len(arr):
            take = min(len(self.stage) - self.filled, len(arr))
            block, arr = arr[:take], arr[take:]
            if take < len(self.stage) and not whole:  # else reduced where it lies
                self.stage[self.filled:self.filled + take] = block
                block = self.stage
            self.filled += take
            if self.filled == len(self.stage) or whole:
                self.values.append(_block_samples(block, self.weights))
                self.filled = 0

    def series(self) -> SymbolSeries:
        """The samples of the whole stream, once every capture has been added."""
        if self.filled:
            self.values.append(_block_samples(self.stage[:self.filled], self.weights))
            self.filled = 0
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
    symbol_of = floor_progression(template_len, r.denominator, 2 * r.denominator,
                                  2 * r.numerator)
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
    return SyncResult(offset=earliest, frames_per_symbol=r, n_samples=len(values))


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

    The preamble's central windows are the first rows of sync's one window
    table. The m per-symbol means are interpolated between the measured top
    and bottom amplitudes; sigma pools the within-symbol sample deviations.
    Raises ValueError when series is not the trace sync was found in.
    """
    n_preamble = len(preamble_symbols(params))
    start, stop = sync.windows_of(series)[:, :n_preamble]
    counts = stop - start
    if not counts.all():
        raise DegenerateLevelsError(f"preamble symbol {np.argmin(counts)} has "
                                    "no samples")
    means, pooled = _window_means(series.values, start, stop)
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

    The windows are sync's one table. Every symbol up to the first one without
    a captured central-window sample is decided, so a capture that ends inside
    the last symbol still yields it. Values exactly on a threshold resolve to
    the higher symbol. Raises ValueError when series is not the trace sync was
    found in.
    """
    start, stop = sync.windows_of(series)
    decided = int(np.argmin(stop > start))
    means, _ = _window_means(series.values, start[:decided], stop[:decided])
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
    decoded, reference = as_bits(decoded), as_bits(reference)
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
    ber = None if reference_payload is None else bit_error_rate(payload, reference_payload)
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
