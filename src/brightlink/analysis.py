"""Error-rate prediction and measurement: Q-function model, Monte Carlo, sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .channel import ChannelParams, normalized_gain, transmit_gains
from .core import ModulationParams, as_bits, as_int, as_seed, run_tasks
from .decoder import StagedSignal, decode_series
from .encoder import encode_stream

MC_MIN_SYMBOLS = 10_000
_MC_CHUNK = 1 << 15
_SQRT2 = Fraction(math.isqrt(2 << 200), 1 << 100)  # sqrt(2) to 100 bits


def _q(x: float) -> float:
    y = x / math.sqrt(2.0)
    # First-order term for the part of x / sqrt(2) that rounding dropped,
    # which erfc amplifies by about x**2 (1e-13 relative at x = 37).
    dropped = float(Fraction(x) / _SQRT2 - Fraction(y)) if math.isfinite(y) else 0.0
    return 0.5 * math.erfc(y) - dropped * math.exp(-y * y) / math.sqrt(math.pi)


_q_array = np.vectorize(_q, otypes=[np.float64])


def q_function(x) -> np.ndarray | float:
    """Gaussian tail probability Q(x) = P(N(0,1) > x), from math.erfc."""
    result = _q_array(np.asarray(x, dtype=np.float64))
    return float(result) if np.isscalar(x) or np.ndim(x) == 0 else result


@dataclass(frozen=True)
class BerModel:
    """Binary decision model: two equiprobable Gaussian amplitude clusters of
    common deviation sigma, split at the midpoint threshold."""

    mu0: float
    mu1: float
    sigma: float

    def __post_init__(self) -> None:
        for name in ("mu0", "mu1", "sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.mu1 > self.mu0:
            raise ValueError(f"mu1 ({self.mu1}) must exceed mu0 ({self.mu0})")
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    @property
    def threshold(self) -> float:
        return (self.mu0 + self.mu1) / 2.0

    @classmethod
    def from_levels(cls, mu0: float, mu1: float, sigma: float) -> "BerModel":
        """Same as the constructor; kept for callers that still use it."""
        return cls(mu0=mu0, mu1=mu1, sigma=sigma)


def theoretical_ber(model: BerModel) -> float:
    """Error probability of the midpoint threshold detector, Q((mu1 - mu0) / (2 sigma))."""
    return q_function((model.mu1 - model.mu0) / (2.0 * model.sigma))


def monte_carlo_ber(model: BerModel, n_symbols: int, seed: int = 0) -> tuple[float, float]:
    """Simulate the binary channel and return (error rate, 3-sigma halfwidth).

    Draws n_symbols equiprobable symbols, adds cluster noise, thresholds, and
    counts errors. The halfwidth is three binomial standard errors at the
    measured rate. Chunks of _MC_CHUNK symbols, keyed (seed, chunk index),
    run on every core (core.run_tasks), at most one per thread ahead of the
    count last added, and their integer error counts add up, so results
    depend on neither the thread count nor history.
    """
    n_symbols = as_int(n_symbols, "n_symbols")
    if n_symbols < MC_MIN_SYMBOLS:
        raise ValueError(f"n_symbols must be at least {MC_MIN_SYMBOLS} for a "
                         f"meaningful estimate, got {n_symbols}")
    seed = as_seed(seed, "seed")
    mu = np.array([model.mu0, model.mu1])

    def count_errors(chunk: int) -> int:
        n = min(_MC_CHUNK, n_symbols - chunk * _MC_CHUNK)
        key = np.array([seed, chunk], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        sent = (rng.random(n) < 0.5).astype(np.int64)
        amplitude = mu[sent] + model.sigma * rng.standard_normal(n)
        decided = (amplitude >= model.threshold).astype(np.int64)
        return int(np.count_nonzero(decided != sent))

    errors = sum(run_tasks(range(-(-n_symbols // _MC_CHUNK)), lambda: count_errors, ahead=1))
    rate = errors / n_symbols
    halfwidth = 3.0 * math.sqrt(rate * (1.0 - rate) / n_symbols)
    return rate, halfwidth


@dataclass(frozen=True)
class SweepRow:
    """One distance point of a sweep; error holds the failure text if the
    pipeline broke at this distance and the numeric fields are then NaN."""

    distance_m: float
    delta_mu: float
    pe_theory: float
    pe_measured: float
    ci_halfwidth: float
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    slope: float


def fit_loglog_slope(x, y) -> float:
    """Least-squares slope of log10(y) against log10(x)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    keep = (x > 0) & (y > 0) & np.isfinite(x) & np.isfinite(y)
    if keep.sum() < 2:
        return float("nan")
    return float(np.polyfit(np.log10(x[keep]), np.log10(y[keep]), 1)[0])


def distance_sweep(distances, payload_bits, carrier: np.ndarray,
                   modulation: ModulationParams, channel: ChannelParams,
                   region: tuple[int, int, int, int] | None = None) -> SweepResult:
    """Run the full encode/capture/decode pipeline at each distance.

    Per distance the row records the measured amplitude swing between the top
    and bottom levels, the Q-function error prediction from the decoder's own
    level and noise estimates, and the measured error rate against the sent
    payload. A failing distance is recorded and the sweep continues. The
    returned slope fits log10(delta_mu) against log10(distance) over the rows
    that survived.

    The clip is sent once for all distances, carrying only the colour plane
    the receiver reads: each shown frame's plane is warped once and each
    capture's noise drawn once, so every distance sees the same noise (common
    random numbers). Each distance's plane is reduced to samples as it arrives
    (decoder.StagedSignal), so no distance holds its captured clip; a row is
    bit for bit what transmit and decode_frames give at that distance. The
    pass runs on every core: transmit's threads warp and draw each block
    while this one hands each distance its captures (channel.transmit_gains).
    """
    dist = [float(d) for d in distances]
    if len(dist) < 3:
        raise ValueError(f"a sweep needs at least 3 distances, got {len(dist)}")
    payload = as_bits(payload_bits)
    sent = encode_stream(payload, carrier, modulation)
    errors: dict[int, str] = {}
    gains = {}
    for i, d in enumerate(dist):
        try:
            gains[i] = normalized_gain(replace(channel.geometry, distance_m=d))
        except (ValueError, RuntimeError) as exc:
            errors[i] = str(exc)
    # An error here is the pass's or the region's: finite gains pass the value check.
    received = {i: StagedSignal(channel.affine, region, channel.camera_fps) for i in gains}
    try:
        transmit_gains(sent, modulation.frame_rate, channel,
                       [(gain, received[i].add) for i, gain in gains.items()],
                       modulation.channel, symbol_rate=modulation.symbol_rate)
    except (ValueError, RuntimeError) as exc:
        errors.update((i, str(exc)) for i in gains)

    rows = []
    for i, d in enumerate(dist):
        if i not in errors:
            try:
                report = decode_series(received.pop(i).series(), modulation,
                                       channel.camera_fps, reference_payload=payload)
                delta_mu = report.levels.mu1 - report.levels.mu0
                pe_theory = _decision_error_estimate(report)
                pe_measured = float(report.ber_vs_reference)
                n_bits = max(payload.size, 1)
                ci = 3.0 * math.sqrt(pe_measured * (1.0 - pe_measured) / n_bits)
                rows.append(SweepRow(d, delta_mu, pe_theory, pe_measured, ci))
                continue
            except (ValueError, RuntimeError) as exc:
                errors[i] = str(exc)
        nan = float("nan")
        rows.append(SweepRow(d, nan, nan, nan, nan, error=errors[i]))
    slope = fit_loglog_slope([r.distance_m for r in rows if r.error is None],
                             [r.delta_mu for r in rows if r.error is None])
    return SweepResult(rows=tuple(rows), slope=slope)


def _decision_error_estimate(report) -> float:
    """Q-model bit error rate using the decoder's level and noise estimates.

    The M levels lie (mu1 - mu0) / (M - 1) apart, and a decision averages the
    n samples of its symbol's central window, so it crosses each threshold
    next to its level with Q(spacing sqrt(n) / (2 sigma)). With equiprobable
    symbols in natural binary, crossing the threshold between b and b + 1
    flips popcount(b ^ (b + 1)) of the log2 M bits, which gives the
    nearest-neighbour factor 2 sum_b popcount(b ^ (b + 1)) / (M log2 M),
    exactly 1 for M = 2. The mean over the decided symbols weights one term
    per distinct n, which keeps a uniform n exact. A zero sigma estimate means
    a noiseless run, hence zero predicted errors.
    """
    levels = report.levels
    if levels.sigma == 0.0:
        return 0.0
    m = len(levels.level_means)
    spacing = (levels.mu1 - levels.mu0) / (m - 1)
    flips = sum((b ^ (b + 1)).bit_count() for b in range(m - 1))
    neighbour_factor = 2 * flips / (m * (m.bit_length() - 1))
    start, stop = report.sync.windows[:, :len(report.symbols)]
    n_central, n_symbols = np.unique(stop - start, return_counts=True)
    pe = q_function(spacing / (2.0 * levels.sigma / np.sqrt(n_central)))
    return float(np.sum(pe * (n_symbols / n_symbols.sum()))) * neighbour_factor
