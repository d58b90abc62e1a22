"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way on purpose and, except
encode_stream_reference, transmit_reference and distance_sweep_reference,
must not call into brightlink: these are the oracles the tests compare against.
encode_stream_reference is the earlier per-symbol encoder loop, kept to check
the per-level pass that replaced it; it reuses the package's framing and
level table, which are checked on their own.
transmit_reference is the earlier per-capture channel loop, kept to check the
block walk that replaced it; it reuses the package's resampling map and gain,
which have oracles of their own here, converts pixels with unit_reference and
quantizes with quantize_reference.
distance_sweep_reference is the earlier sweep, one transmit and one
decode_frames per distance, kept to check the single pass over the clip that
replaced it.
block_bounds_reference is the earlier layout of the channel's capture blocks,
kept to check the runs of whole display frames that replaced it on the
benchmark's frame sizes and rates.
decode_series_reference is the earlier receiver, which rebuilt each stage's
central windows in Fraction arithmetic, kept stage by stage to check the one
integer symbol timeline that replaced it; it reuses the package's trace
correlation, framing and error types, which are checked on their own.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
from scipy.integrate import quad

# Reflected CRC-32 polynomial (the zip/png one).
_CRC_POLY = 0xEDB88320


def crc32_reference(data: bytes) -> int:
    """Bit-at-a-time CRC-32: init 0xFFFFFFFF, reflected, final complement."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ _CRC_POLY
            else:
                crc >>= 1
    return crc ^ 0xFFFFFFFF


def pack_bits_reference(bits) -> bytes:
    """MSB-first bit packing with zero padding, one bit at a time."""
    out = bytearray()
    acc = 0
    count = 0
    for bit in bits:
        acc = (acc << 1) | int(bit)
        count += 1
        if count == 8:
            out.append(acc)
            acc = 0
            count = 0
    if count:
        out.append(acc << (8 - count))
    return bytes(out)


def q_reference(x: float) -> float:
    """Gaussian tail probability by direct numerical integration of the pdf."""
    pdf = lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)
    value, _ = quad(pdf, x, np.inf)
    return value


def monte_carlo_ber_reference(mu0: float, mu1: float, sigma: float, n_symbols: int,
                              seed: int, chunk: int) -> tuple[float, float]:
    """The Monte Carlo loop on one thread: chunk k of `chunk` symbols draws its
    symbols, then their noise, from a Philox keyed (seed, k), and errors add up."""
    errors = 0
    for k, first in enumerate(range(0, n_symbols, chunk)):
        n = min(chunk, n_symbols - first)
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, k], dtype=np.uint64)))
        sent = rng.random(n) < 0.5
        amplitude = np.where(sent, mu1, mu0) + sigma * rng.standard_normal(n)
        errors += int(np.count_nonzero((amplitude >= (mu0 + mu1) / 2.0) != sent))
    rate = errors / n_symbols
    return rate, 3.0 * math.sqrt(rate * (1.0 - rate) / n_symbols)


def surface_integrated_gain(distance: float, phi: float, theta: float,
                            display_area: float, aperture_area: float,
                            n: int = 64) -> float:
    """Exact link gain by double surface integration over both apertures.

    The display is a square of the given area centered at the origin, tilted
    by phi about the y axis; the aperture is a square centered at (0, 0, d),
    tilted by theta about the x axis. Each surface is split into an n-by-n
    grid of elements and every element pair contributes
    cos(alpha) * cos(beta) / (pi * r^2) with the true per-pair distance r and
    incidence angles alpha/beta against the surface normals.
    """
    l_disp = math.sqrt(display_area)
    l_aper = math.sqrt(aperture_area)

    n_disp = np.array([math.sin(phi), 0.0, math.cos(phi)])
    u_disp = np.array([math.cos(phi), 0.0, -math.sin(phi)])
    v_disp = np.array([0.0, 1.0, 0.0])

    center = np.array([0.0, 0.0, distance])
    n_aper = np.array([0.0, math.sin(theta), -math.cos(theta)])
    u_aper = np.array([1.0, 0.0, 0.0])
    v_aper = np.array([0.0, math.cos(theta), math.sin(theta)])

    ticks = (np.arange(n) + 0.5) / n - 0.5
    da, db = np.meshgrid(ticks * l_disp, ticks * l_disp, indexing="ij")
    display_pts = da.ravel()[:, None] * u_disp + db.ravel()[:, None] * v_disp
    aa, ab = np.meshgrid(ticks * l_aper, ticks * l_aper, indexing="ij")
    aperture_pts = center + aa.ravel()[:, None] * u_aper + ab.ravel()[:, None] * v_aper

    # Per pair (p, q): cos(alpha) = (q - p) . n_disp / r and
    # cos(beta) = (p - q) . n_aper / r, so the integrand
    # cos(alpha) cos(beta) / (pi r^2) equals the product of the two (clipped)
    # dot products over pi r^4. Everything decomposes into outer sums, which
    # sidesteps materializing the pairwise difference vectors. Chunking the
    # display axis bounds peak memory.
    q_norm2 = np.sum(aperture_pts**2, axis=1)
    q_dot_nd = aperture_pts @ n_disp
    q_dot_na = aperture_pts @ n_aper
    total = 0.0
    chunk = 64
    for start in range(0, display_pts.shape[0], chunk):
        p = display_pts[start:start + chunk]
        r2 = np.add.outer(np.sum(p**2, axis=1), q_norm2) - 2.0 * p @ aperture_pts.T
        facing_disp = np.subtract.outer(-(p @ n_disp), -q_dot_nd)
        facing_aper = np.subtract.outer(p @ n_aper, q_dot_na)
        np.clip(facing_disp, 0.0, None, out=facing_disp)
        np.clip(facing_aper, 0.0, None, out=facing_aper)
        total += float(np.sum(facing_disp * facing_aper / (math.pi * r2 * r2)))
    element_area = (display_area / n**2) * (aperture_area / n**2)
    return total * element_area


def nearest_level_index(value: float, levels) -> int:
    """Index of the closest level; ties go to the higher index."""
    best = 0
    best_dist = abs(value - levels[0])
    for i in range(1, len(levels)):
        dist = abs(value - levels[i])
        if dist <= best_dist:
            best = i
            best_dist = dist
    return best


def bilinear_pull_reference(image: np.ndarray, pull) -> np.ndarray:
    """Resample an HxW or HxWxC float image one pixel at a time.

    Output pixel (x, y) reads the source at pull @ (x, y, 1) by bilinear
    interpolation; corners outside the source read as black.
    """
    h, w = image.shape[:2]
    out = np.zeros(image.shape, dtype=np.float64)
    for y in range(h):
        for x in range(w):
            u, v, s = (pull[r][0] * x + pull[r][1] * y + pull[r][2] for r in range(3))
            sx, sy = u / s, v / s
            x0, y0 = math.floor(sx), math.floor(sy)
            fx, fy = sx - x0, sy - y0
            for cx, cy, weight in ((x0, y0, (1 - fx) * (1 - fy)),
                                   (x0 + 1, y0, fx * (1 - fy)),
                                   (x0, y0 + 1, (1 - fx) * fy),
                                   (x0 + 1, y0 + 1, fx * fy)):
                if 0 <= cx < w and 0 <= cy < h:
                    out[y, x] += weight * image[cy, cx]
    return out


def unit_reference(frame) -> np.ndarray:
    """Pixels as float64: uint8 divided by 255 one at a time, floats as they are."""
    frame = np.asarray(frame)
    return frame / 255.0 if frame.dtype == np.uint8 else frame.astype(np.float64)


def extract_reference(frames, pull, region, channel: int) -> list[float]:
    """Each frame's mean over an (x, y, w, h) region of its rectified plane.

    A uint8 frame is divided by 255 pixel by pixel first. The plane is pulled
    one pixel at a time by bilinear_pull_reference, and the region's pixels
    are summed exactly with math.fsum.
    """
    x, y, w, h = region
    pull = np.asarray(pull, dtype=np.float64).tolist()
    means = []
    for frame in np.asarray(frames):
        rectified = bilinear_pull_reference(unit_reference(frame)[:, :, channel], pull)
        means.append(math.fsum(rectified[y:y + h, x:x + w].ravel().tolist()) / (w * h))
    return means


def central_window_reference(offset: int, r, symbol: int, n_samples: int) -> np.ndarray:
    """Sample indices in the middle half of one symbol period, one symbol at a time.

    Indices run over [ceil(offset + (symbol + 1/4) r), ceil(offset + (symbol + 3/4) r));
    an empty range falls back to the single sample floor(offset + (symbol + 1/2) r).
    Indices outside the trace are dropped. The bounds are exact rationals; a
    float r stands for the binary value it holds.
    """
    r = Fraction(r)
    start = offset + (symbol + Fraction(1, 4)) * r
    stop = offset + (symbol + Fraction(3, 4)) * r
    indices = list(range(math.ceil(start), math.ceil(stop)))
    if not indices:
        indices = [math.floor(offset + (symbol + Fraction(1, 2)) * r)]
    return np.array([i for i in indices if 0 <= i < n_samples], dtype=np.int64)


def sliding_correlation_reference(values, template) -> np.ndarray:
    """Pearson correlation of template against every window, one window at a time.

    Windows without variance read -inf.
    """
    values = np.asarray(values, dtype=np.float64)
    t = np.asarray(template, dtype=np.float64) - np.mean(template)
    size = t.size
    corr = np.full(values.size - size + 1, -np.inf)
    for k in range(corr.size):
        window = values[k:k + size] - values[k:k + size].mean()
        norm = math.sqrt(float(np.sum(window**2)) * float(np.sum(t**2)))
        if norm > 0.0:
            corr[k] = float(np.sum(window * t)) / norm
    return corr


def correlation_reaches_reference(values, template, k: int, floor) -> bool:
    """Whether the Pearson correlation of template with the window at k is at
    least floor (>= 0), in exact rational arithmetic.

    Floats convert to Fractions without rounding, so a window that correlates
    exactly floor is settled as it is, not as float rounding leaves it.
    A window without variance never reaches the floor.
    """
    floor = Fraction(floor)
    assert floor >= 0
    t = [Fraction(float(v)) for v in template]
    window = [Fraction(float(v)) for v in values[k:k + len(t)]]
    t_mean = sum(t) / len(t)
    w_mean = sum(window) / len(t)
    cross = sum((a - w_mean) * (b - t_mean) for a, b in zip(window, t))
    w_sq = sum((a - w_mean) ** 2 for a in window)
    t_sq = sum((b - t_mean) ** 2 for b in t)
    if w_sq == 0 or t_sq == 0:
        return False
    # cross / sqrt(w_sq * t_sq) >= floor, squared: cross must not be negative.
    return cross >= 0 and cross * cross >= floor * floor * w_sq * t_sq


def near_integer(x) -> np.ndarray:
    """Where float results lie within 1e-9 of an integer: ties that float
    rounding may resolve either way, which exact arithmetic settles."""
    return np.abs(x - np.round(x)) < 1e-9


def shown_frame_reference(k: int, display_fps, camera_fps, n_in: int) -> int:
    """Display frame on screen at capture k's instant (k + 1/2) / camera_fps.

    Python integers throughout: frame floor((2k + 1) display / (2 camera)),
    so an instant exactly on a frame boundary shows the later frame. Floats
    stand for the binary values they hold.
    """
    display, camera = Fraction(display_fps), Fraction(camera_fps)
    numerator = (2 * k + 1) * display.numerator * camera.denominator
    denominator = 2 * display.denominator * camera.numerator
    return min(numerator // denominator, n_in - 1)


def encode_stream_reference(payload_bits, carrier: np.ndarray, params) -> np.ndarray:
    """Imprint a framed payload one symbol at a time, as the encoder did before
    its per-level pass: every symbol's frames go through its level's table."""
    from brightlink.core import bits_to_symbols, level_table
    from brightlink.encoder import frame_payload

    symbols = bits_to_symbols(frame_payload(payload_bits, params), params)
    luts = np.minimum(np.floor(level_table(params)[:, None] * np.arange(256.0) + 0.5),
                      255.0).astype(np.uint8)
    out = carrier.copy()
    plane = out[:, :, :, params.channel]
    d = params.symbol_duration_frames
    for i, symbol in enumerate(symbols):
        plane[i * d:(i + 1) * d] = luts[symbol][plane[i * d:(i + 1) * d]]
    return out


def capture_count_reference(n_in: int, display_fps, camera_fps) -> int:
    """Captures of an n_in-frame clip: its duration times the camera rate, rounded
    half to even, and at least one."""
    return max(1, round(n_in * Fraction(camera_fps) / Fraction(display_fps)))


def quantize_reference(frames, bits: int) -> np.ndarray:
    """Quantize unit-range floats to 2**bits levels, rounding halves up, in five
    passes: multiply, add one half, floor, clip, cast. uint8 at 8 bits, else
    float32 on the unit-range grid."""
    levels = 2**bits - 1
    q = np.asarray(frames, dtype=np.float64) * levels
    q = q + 0.5
    q = np.floor(q)
    q = np.clip(q, 0, levels)
    return q.astype(np.uint8) if bits == 8 else (q / levels).astype(np.float32)


def transmit_reference(frames: np.ndarray, display_fps, params) -> np.ndarray:
    """Capture a clip one frame at a time, as the channel did before its block walk.

    It keeps a one-frame cache of the last warped display frame and skips the
    warp for an identity homography. Each capture k shows the display frame
    of shown_frame_reference and adds noise from its own Philox stream keyed
    (seed, k).
    """
    from brightlink.channel import normalized_gain, resampling_map

    source = np.asarray(frames)
    n_in = source.shape[0]
    n_out = capture_count_reference(n_in, display_fps, params.camera_fps)
    src_index = [shown_frame_reference(k, display_fps, params.camera_fps, n_in)
                 for k in range(n_out)]

    gain = normalized_gain(params.geometry)
    # An identity mapping resamples every pixel from itself; skip the map.
    warp = None
    if params.affine[2, 2] == 0.0 or not np.array_equal(
            params.affine / params.affine[2, 2], np.eye(3)):
        warp = resampling_map(np.linalg.inv(params.affine), *source.shape[1:3])

    captured = []
    # Capture times are monotonic, so one cached source frame is enough.
    cached_idx = -1
    cached_unit = None
    for k in range(n_out):
        idx = int(src_index[k])
        if idx != cached_idx:
            unit = unit_reference(source[idx])
            if warp is not None:
                flat = unit.reshape(-1, 3)
                index, weight = warp
                out = flat[index[0]] * weight[0, :, None]
                for corner in range(1, 4):
                    out += flat[index[corner]] * weight[corner, :, None]
                unit = out.reshape(unit.shape)
            cached_idx, cached_unit = idx, unit * gain
        observed = cached_unit
        if params.noise_sigma > 0.0:
            key = np.array([params.rng_seed, k], dtype=np.uint64)
            noise = np.random.Generator(np.random.Philox(key=key)).normal(
                0.0, params.noise_sigma, size=observed.shape)
            observed = observed + noise
        captured.append(quantize_reference(observed, params.quantizer_bits))
    return np.stack(captured)


def block_bounds_reference(shown, height: int, width: int) -> list[int]:
    """Block edges of a capture walk, one block at a time, as the channel laid
    them out before its blocks became runs of whole display frames.

    From a block's first capture, the block takes about 2^16 values of
    captures, then runs on to the last capture of the display frame its last
    one shows; shown is the display frame of each capture, in order.
    """
    shown = np.asarray(shown)
    step = max(1, (1 << 16) // (3 * height * width))
    bounds = [0]
    while bounds[-1] < len(shown):
        last_shown = shown[min(bounds[-1] + step, len(shown)) - 1]
        bounds.append(int(np.searchsorted(shown, last_shown, side="right")))
    return bounds


def distance_sweep_reference(distances, payload_bits, carrier, modulation, channel,
                             region=None):
    """The distance sweep as one transmit and one decode_frames per distance.

    Each distance sends and decodes the whole clip on its own; the rows are
    built with the package's own formulas, so only the capture and the
    decode differ from distance_sweep.
    """
    from dataclasses import replace

    from brightlink.analysis import (SweepResult, SweepRow, _decision_error_estimate,
                                     fit_loglog_slope)
    from brightlink.channel import transmit
    from brightlink.core import as_bits
    from brightlink.decoder import decode_frames
    from brightlink.encoder import encode_stream

    dist = [float(d) for d in distances]
    payload = as_bits(payload_bits)
    sent = encode_stream(payload, carrier, modulation)
    rows = []
    for d in dist:
        try:
            params = replace(channel, geometry=replace(channel.geometry, distance_m=d))
            captured = transmit(sent, modulation.frame_rate, params,
                                symbol_rate=modulation.symbol_rate)
            report = decode_frames(captured, modulation, params.camera_fps,
                                   homography=params.affine, region=region,
                                   reference_payload=payload)
            delta_mu = report.levels.mu1 - report.levels.mu0
            pe_theory = _decision_error_estimate(report)
            pe_measured = float(report.ber_vs_reference)
            n_bits = max(payload.size, 1)
            ci = 3.0 * math.sqrt(pe_measured * (1.0 - pe_measured) / n_bits)
            rows.append(SweepRow(d, delta_mu, pe_theory, pe_measured, ci))
        except (ValueError, RuntimeError) as exc:
            nan = float("nan")
            rows.append(SweepRow(d, nan, nan, nan, nan, error=str(exc)))
    slope = fit_loglog_slope([r.distance_m for r in rows if r.error is None],
                             [r.delta_mu for r in rows if r.error is None])
    return SweepResult(rows=tuple(rows), slope=slope)


def floor_progression_reference(n: int, first: Fraction, step: Fraction) -> np.ndarray:
    """floor(first + k * step) for k = 0 .. n-1, exactly, from Fraction terms."""
    den = math.lcm(first.denominator, step.denominator)
    a, b = (x.numerator * (den // x.denominator) for x in (first, step))
    k = np.arange(n, dtype=np.int64 if abs(a) + abs(b) * n + den < 1 << 62 else object)
    return ((a + b * k) // den).astype(np.int64, copy=False)


def synchronize_reference(series, params, camera_fps):
    """The earlier synchronize: (offset, frames per symbol) of the preamble."""
    from brightlink.core import as_rate
    from brightlink.decoder import (MIN_SYNC_CORRELATION, SYNC_PEAK_TOLERANCE,
                                    SyncError, _window_correlation)
    from brightlink.encoder import preamble_symbols

    r = as_rate(camera_fps, "camera_fps") / params.symbol_rate
    template_len = math.ceil(len(preamble_symbols(params)) * r)
    values = series.values
    if len(values) < template_len:
        raise SyncError("trace is shorter than the preamble")
    symbol_of = floor_progression_reference(template_len, 1 / (2 * r), 1 / r)
    template = np.where(symbol_of % 2 == 0, 1.0, -1.0)
    t_centered = template - template.mean()
    t_norm = float(np.sqrt(np.sum(t_centered**2)))
    if t_norm == 0.0:
        raise SyncError("degenerate preamble template")
    corr = _window_correlation(values, t_centered, t_norm)
    peak = float(corr.max())
    if peak < MIN_SYNC_CORRELATION:
        raise SyncError("no transmission found")
    cutoff = max(MIN_SYNC_CORRELATION, peak - SYNC_PEAK_TOLERANCE)
    earliest = int(np.nonzero(corr >= cutoff)[0][0])
    return SimpleNamespace(offset=earliest, frames_per_symbol=r)


def central_windows_reference(sync, n_samples: int, n_symbols: int | None = None):
    """The earlier central_windows: each symbol's central window, from Fraction bounds."""
    r = sync.frames_per_symbol
    if n_symbols is None:
        n_symbols = max(0, math.ceil((n_samples - sync.offset) / r)) + 1
    start = -floor_progression_reference(n_symbols, -(sync.offset + r / 4), -r)
    stop = -floor_progression_reference(n_symbols, -(sync.offset + 3 * r / 4), -r)
    center = floor_progression_reference(n_symbols, sync.offset + r / 2, r)
    empty = stop <= start
    start = np.where(empty, center, start)
    stop = np.where(empty, center + 1, stop)
    return np.clip(start, 0, n_samples), np.clip(stop, 0, n_samples)


def window_means_reference(values, start, stop):
    """The earlier _window_means: rows of a zero-padded window matrix."""
    counts = stop - start
    column = np.arange(counts.max(initial=0))
    inside = column < counts[:, None]
    rows = np.where(inside, values[np.minimum(start[:, None] + column,
                                              len(values) - 1)], 0.0)
    means = rows.sum(axis=1) / counts
    return means, (rows - means[:, None])[inside]


def estimate_levels_reference(series, sync, params):
    """The earlier estimate_levels, on the preamble's own window table."""
    from brightlink.decoder import DegenerateLevelsError, LevelEstimate
    from brightlink.encoder import preamble_symbols

    values = series.values
    n_preamble = len(preamble_symbols(params))
    start, stop = central_windows_reference(sync, len(values), n_preamble)
    counts = stop - start
    if not counts.all():
        raise DegenerateLevelsError("a preamble symbol has no samples")
    means, pooled = window_means_reference(values, start, stop)
    mu1 = float(means[0::2].mean())
    mu0 = float(means[1::2].mean())
    if not mu1 > mu0:
        raise DegenerateLevelsError("top amplitude does not exceed bottom amplitude")
    dof = pooled.size - n_preamble
    if dof == 0:  # one sample per window: spread the means about their level
        pooled, dof = means - np.resize([mu1, mu0], n_preamble), n_preamble - 2
    sigma = float(np.sqrt(np.sum(pooled**2) / dof))
    level_means = mu0 + (mu1 - mu0) * np.arange(params.m) / (params.m - 1)
    thresholds = (level_means[:-1] + level_means[1:]) / 2.0
    return LevelEstimate(mu0=mu0, mu1=mu1, sigma=sigma,
                         level_means=level_means, thresholds=thresholds)


def decide_symbols_reference(series, sync, levels):
    """The earlier decide_symbols, on the all-symbol window table."""
    values = series.values
    start, stop = central_windows_reference(sync, len(values))
    decided = int(np.argmin(stop > start))
    means, _ = window_means_reference(values, start[:decided], stop[:decided])
    return np.searchsorted(levels.thresholds, means, side="right")


def decision_error_estimate_reference(report) -> float:
    """The earlier sweep prediction, on a window table of the decided symbols."""
    from brightlink.analysis import q_function

    levels = report.levels
    if levels.sigma == 0.0:
        return 0.0
    m = len(levels.level_means)
    spacing = (levels.mu1 - levels.mu0) / (m - 1)
    flips = sum((b ^ (b + 1)).bit_count() for b in range(m - 1))
    neighbour_factor = 2 * flips / (m * (m.bit_length() - 1))
    start, stop = central_windows_reference(report.sync, len(report.series),
                                            len(report.symbols))
    n_central, n_symbols = np.unique(stop - start, return_counts=True)
    pe = q_function(spacing / (2.0 * levels.sigma / np.sqrt(n_central)))
    return float(np.sum(pe * (n_symbols / n_symbols.sum()))) * neighbour_factor


def decode_series_reference(series, params, camera_fps, reference_payload):
    """The earlier decode_series, stage by stage, with the sweep's prediction.

    Returns a namespace of sync, levels, symbols, payload, crc_ok,
    ber_vs_reference and pe_theory; a failing stage raises as the package does.
    """
    from brightlink.core import symbols_to_bits
    from brightlink.decoder import bit_error_rate, deframe

    sync = synchronize_reference(series, params, camera_fps)
    levels = estimate_levels_reference(series, sync, params)
    symbols = decide_symbols_reference(series, sync, levels)
    payload, crc_ok = deframe(symbols_to_bits(symbols, params), params)
    report = SimpleNamespace(series=series, sync=sync, levels=levels, symbols=symbols,
                             payload=payload, crc_ok=crc_ok,
                             ber_vs_reference=bit_error_rate(payload, reference_payload))
    report.pe_theory = decision_error_estimate_reference(report)
    return report
