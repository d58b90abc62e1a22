import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brightlink.channel import (
    ChannelGeometry,
    ChannelParams,
    SamplingRateError,
    identity_homography,
    transmit,
)
from brightlink.core import Color, ModulationParams, SymbolSeries, as_bits
from brightlink.decoder import (
    MIN_SYNC_CORRELATION,
    SYNC_PEAK_TOLERANCE,
    DegenerateLevelsError,
    FramingError,
    LevelEstimate,
    SyncError,
    SyncResult,
    bit_error_rate,
    central_windows,
    decide_symbols,
    decode_frames,
    deframe,
    estimate_levels,
    extract_signal,
    received_frames_per_symbol,
    synchronize,
    _window_correlation,
)
from brightlink.encoder import encode_stream, frame_payload, frames_needed, make_carrier
from reference import (
    bilinear_pull_reference,
    central_window_reference,
    near_integer,
    nearest_level_index,
    sliding_correlation_reference,
)

OOK = ModulationParams(m=2)


def make_preamble_series(params, r, offset, high=0.8, low=0.2, tail=40,
                         noise=0.0, seed=0):
    """Synthetic amplitude trace: flat lead-in, alternating preamble, flat tail.

    Sample i is centered at time (i + 0.5) capture periods, matching the
    channel's resampling, so sample i of the preamble carries symbol
    floor((i - offset + 0.5) / r).
    """
    rng = np.random.default_rng(seed)
    n_preamble = 16
    total = offset + math.ceil(n_preamble * r) + tail
    values = np.full(total, low)
    for i in range(offset, total):
        j = math.floor((i - offset + 0.5) / r)
        if 0 <= j < n_preamble and j % 2 == 0:
            values[i] = high
    if noise:
        values = values + rng.normal(0.0, noise, size=total)
    return SymbolSeries(np.clip(values, 0.0, 1.0), sample_rate=30.0)


class TestExtractSignal:
    def test_means_one_value_per_frame(self):
        frames = np.zeros((3, 4, 4, 3), dtype=np.uint8)
        frames[0, :, :, 0] = 51
        frames[1, :, :, 0] = 102
        series = extract_signal(frames, sample_rate=30.0)
        assert series.sample_rate == 30.0
        assert np.allclose(series.values, [0.2, 0.4, 0.0])

    def test_region_crop(self):
        frames = np.zeros((1, 4, 8, 3), dtype=np.uint8)
        frames[0, :2, :4, 0] = 255
        full = extract_signal(frames)
        cropped = extract_signal(frames, region=(0, 0, 4, 2))
        assert full.values[0] == pytest.approx(0.25)
        assert cropped.values[0] == pytest.approx(1.0)

    def test_region_bounds_checked(self):
        frames = np.zeros((1, 4, 4, 3), dtype=np.uint8)
        with pytest.raises(ValueError, match="region"):
            extract_signal(frames, region=(2, 2, 4, 4))
        with pytest.raises(ValueError, match="region"):
            extract_signal(frames, region=(0, 0, 0, 2))

    def test_channel_selection(self):
        frames = np.zeros((1, 2, 2, 3), dtype=np.uint8)
        frames[0, :, :, 2] = 255
        assert extract_signal(frames, channel=Color.BLUE).values[0] == 1.0
        assert extract_signal(frames, channel=Color.RED).values[0] == 0.0

    def test_rectification_undoes_the_channel_warp(self):
        base = make_carrier("gradient", 16, 12, 1)
        shift = identity_homography()
        shift[0, 2] = 3.0
        shifted = transmit(base, 30.0, ChannelParams(affine=shift))
        direct = extract_signal(base, region=(4, 0, 8, 12))
        rectified = extract_signal(shifted, homography=shift, region=(4, 0, 8, 12))
        assert rectified.values[0] == pytest.approx(direct.values[0], abs=1e-9)


    def test_matches_per_frame_bilinear_reference(self):
        # Rectify, crop and mean fold into one weight image; the sums run in
        # another order than warping each frame, so allow float64 rounding.
        frames = np.random.default_rng(2).integers(0, 256, (3, 12, 16, 3), dtype=np.uint8)
        pull = [[0.97, -0.06, 1.4], [0.05, 0.95, -0.8], [0.0015, -0.001, 1.0]]
        x, y, w, h = 2, 1, 11, 9
        series = extract_signal(frames, homography=np.array(pull), region=(x, y, w, h),
                                channel=Color.GREEN)
        expected = [bilinear_pull_reference(frame / 255.0, pull)[y:y + h, x:x + w, 1].mean()
                    for frame in frames]
        np.testing.assert_allclose(series.values, expected, rtol=0.0, atol=1e-12)


def test_received_frames_per_symbol():
    assert received_frames_per_symbol(OOK, camera_fps=30.0) == 6.0
    assert received_frames_per_symbol(OOK, camera_fps=25.0) == 5.0
    half = ModulationParams(symbol_duration_frames=3)
    assert received_frames_per_symbol(half, camera_fps=20.0) == 2.0


class TestSynchronize:
    @pytest.mark.parametrize("offset", [0, 1, 7, 23])
    def test_finds_exact_offset(self, offset):
        series = make_preamble_series(OOK, r=6.0, offset=offset)
        sync = synchronize(series, OOK, camera_fps=30.0)
        assert sync.offset == offset
        assert sync.frames_per_symbol == 6.0

    def test_survives_noise(self):
        series = make_preamble_series(OOK, r=6.0, offset=11, noise=0.05, seed=4)
        assert synchronize(series, OOK, camera_fps=30.0).offset == 11

    def test_fractional_rate(self):
        series = make_preamble_series(OOK, r=2.5, offset=5)
        sync = synchronize(series, OOK, camera_fps=12.5)
        assert sync.frames_per_symbol == 2.5
        assert sync.offset == 5

    def test_too_short_trace(self):
        series = SymbolSeries(np.zeros(20), sample_rate=30.0)
        with pytest.raises(SyncError, match="shorter"):
            synchronize(series, OOK, camera_fps=30.0)

    def test_constant_trace_has_no_preamble(self):
        series = SymbolSeries(np.full(200, 0.5), sample_rate=30.0)
        with pytest.raises(SyncError):
            synchronize(series, OOK, camera_fps=30.0)

    def test_pure_noise_rejected(self):
        rng = np.random.default_rng(1)
        series = SymbolSeries(rng.uniform(0.4, 0.6, size=300), sample_rate=30.0)
        with pytest.raises(SyncError, match="correlation"):
            synchronize(series, OOK, camera_fps=30.0)

    def test_alternating_payload_does_not_steal_sync(self):
        # A payload of 1010... replays the preamble pattern mid-frame; the
        # earlier peak must win even when noise favors the later one.
        rng = np.random.default_rng(11)
        n = 16 * 6
        symbol = np.floor((np.arange(n) + 0.5) / 6).astype(int)
        burst = np.where(symbol % 2 == 0, 0.8, 0.2)
        gap = np.full(60, 0.2)
        values = np.concatenate([burst, gap, burst, gap])
        values = values + rng.normal(0.0, 0.02, size=values.size)
        series = SymbolSeries(np.clip(values, 0.0, 1.0), sample_rate=30.0)
        assert synchronize(series, OOK, camera_fps=30.0).offset == 0


class TestEstimateLevels:
    def test_recovers_clean_levels(self):
        series = make_preamble_series(OOK, r=6.0, offset=9, high=0.8, low=0.2)
        sync = SyncResult(offset=9, frames_per_symbol=6.0)
        levels = estimate_levels(series, sync, OOK)
        assert levels.mu1 == pytest.approx(0.8)
        assert levels.mu0 == pytest.approx(0.2)
        assert levels.sigma == pytest.approx(0.0, abs=1e-12)
        assert levels.thresholds.tolist() == [pytest.approx(0.5)]

    def test_sigma_estimates_sample_noise(self):
        series = make_preamble_series(OOK, r=8.0, offset=0, noise=0.01, seed=2)
        sync = SyncResult(offset=0, frames_per_symbol=8.0)
        levels = estimate_levels(series, sync, OOK)
        assert levels.sigma == pytest.approx(0.01, rel=0.5)

    def test_interpolates_intermediate_levels(self):
        qask = ModulationParams(m=4)
        series = make_preamble_series(qask, r=6.0, offset=0, high=0.9, low=0.3)
        sync = SyncResult(offset=0, frames_per_symbol=6.0)
        levels = estimate_levels(series, sync, qask)
        assert np.allclose(levels.level_means, [0.3, 0.5, 0.7, 0.9])
        assert np.allclose(levels.thresholds, [0.4, 0.6, 0.8])

    def test_flat_signal_is_degenerate(self):
        series = SymbolSeries(np.full(120, 0.5), sample_rate=30.0)
        sync = SyncResult(offset=0, frames_per_symbol=6.0)
        with pytest.raises(DegenerateLevelsError):
            estimate_levels(series, sync, OOK)


class TestDecideSymbols:
    def test_clean_four_level_decisions(self):
        qask = ModulationParams(m=4)
        sent = [0, 3, 1, 2, 3, 0, 2, 1]
        values = np.repeat([0.2 + 0.2 * s for s in sent], 4)
        series = SymbolSeries(values, sample_rate=30.0)
        sync = SyncResult(offset=0, frames_per_symbol=4.0)
        levels = LevelEstimate(mu0=0.2, mu1=0.8, sigma=0.0,
                               level_means=np.array([0.2, 0.4, 0.6, 0.8]),
                               thresholds=np.array([0.3, 0.5, 0.7]))
        assert decide_symbols(series, sync, levels, qask).tolist() == sent

    def test_tie_on_threshold_goes_high(self):
        values = np.array([0.5, 0.5, 0.49, 0.49, 0.51, 0.51])
        series = SymbolSeries(values, sample_rate=30.0)
        sync = SyncResult(offset=0, frames_per_symbol=2.0)
        levels = LevelEstimate(mu0=0.0, mu1=1.0, sigma=0.0,
                               level_means=np.array([0.0, 1.0]),
                               thresholds=np.array([0.5]))
        assert decide_symbols(series, sync, levels, OOK).tolist() == [1, 0, 1]

    @settings(max_examples=50)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    def test_matches_nearest_level_oracle(self, samples):
        # With one sample per symbol, midpoint thresholds pick the nearest
        # level (ties high), so brute force must agree.
        qask = ModulationParams(m=4)
        level_means = np.array([0.125, 0.375, 0.625, 0.875])
        levels = LevelEstimate(mu0=0.125, mu1=0.875, sigma=0.0,
                               level_means=level_means,
                               thresholds=(level_means[:-1] + level_means[1:]) / 2)
        series = SymbolSeries(np.array(samples), sample_rate=30.0)
        sync = SyncResult(offset=0, frames_per_symbol=1.0)
        got = decide_symbols(series, sync, levels, qask)
        expected = [nearest_level_index(v, level_means) for v in samples]
        assert got.tolist() == expected


class TestDeframe:
    def test_round_trip(self):
        payload = as_bits("110010111010")
        framed = frame_payload(payload, OOK)
        got, crc_ok = deframe(framed, OOK)
        assert crc_ok
        assert np.array_equal(got, payload)

    def test_payload_corruption_fails_crc(self):
        framed = frame_payload(as_bits("110010111010"), OOK)
        framed[16 + 32 + 3] ^= 1
        got, crc_ok = deframe(framed, OOK)
        assert not crc_ok
        assert got.size == 12

    def test_preamble_corruption_fails_crc(self):
        framed = frame_payload(as_bits("1100"), OOK)
        framed[0] ^= 1
        _, crc_ok = deframe(framed, OOK)
        assert not crc_ok

    def test_trailing_symbols_are_ignored(self):
        framed = frame_payload(as_bits("1100"), OOK)
        padded = np.concatenate([framed, np.zeros(13, dtype=np.uint8)])
        got, crc_ok = deframe(padded, OOK)
        assert crc_ok
        assert np.array_equal(got, as_bits("1100"))

    def test_short_header_raises(self):
        with pytest.raises(FramingError, match="header"):
            deframe(np.zeros(40, dtype=np.uint8), OOK)

    def test_truncated_payload_raises(self):
        framed = frame_payload(as_bits("1" * 32), OOK)
        with pytest.raises(FramingError, match="declares"):
            deframe(framed[:-20], OOK)


def test_bit_error_rate():
    assert bit_error_rate(as_bits("1010"), as_bits("1010")) == 0.0
    assert bit_error_rate(as_bits("1010"), as_bits("1110")) ==  0.25
    assert bit_error_rate(as_bits(""), as_bits("")) == 0.0
    # Missing bits count as errors against the longer stream.
    assert bit_error_rate(as_bits("10"), as_bits("1010")) == 0.5


class TestDecodeFrames:
    def test_noiseless_round_trip(self):
        payload = as_bits("1010101010101010")
        params = ModulationParams(m=2, symbol_duration_frames=2)
        carrier = make_carrier("gradient", 32, 24, frames_needed(16, params))
        sent = encode_stream(payload, carrier, params)
        captured = transmit(sent, 30.0, ChannelParams())
        report = decode_frames(captured, params, 30.0, reference_payload=payload)
        assert report.crc_ok
        assert np.array_equal(report.payload, payload)
        assert report.ber_vs_reference == 0.0
        assert report.sync.offset == 0

    def test_four_level_round_trip_with_rotation(self):
        payload = as_bits("011011100001")
        params = ModulationParams(m=4, symbol_duration_frames=2)
        carrier = make_carrier("gradient", 48, 36, frames_needed(12, params))
        sent = encode_stream(payload, carrier, params)
        angle = math.radians(10)
        cx, cy = 23.5, 17.5
        rotate = np.array([
            [math.cos(angle), -math.sin(angle),
             cx - cx * math.cos(angle) + cy * math.sin(angle)],
            [math.sin(angle), math.cos(angle),
             cy - cx * math.sin(angle) - cy * math.cos(angle)],
            [0.0, 0.0, 1.0]])
        channel = ChannelParams(affine=rotate)
        captured = transmit(sent, 30.0, channel)
        report = decode_frames(captured, params, 30.0, homography=rotate,
                               reference_payload=payload)
        assert report.crc_ok
        assert np.array_equal(report.payload, payload)

    def test_distance_and_noise_round_trip(self):
        payload = as_bits("1010101010101010")
        carrier = make_carrier("gradient", 64, 48, frames_needed(16, OOK))
        sent = encode_stream(payload, carrier, OOK)
        channel = ChannelParams(geometry=ChannelGeometry(distance_m=6.0),
                                noise_sigma=0.005, rng_seed=11)
        captured = transmit(sent, 30.0, channel, symbol_rate=OOK.symbol_rate)
        report = decode_frames(captured, OOK, 30.0, reference_payload=payload)
        assert report.crc_ok
        assert report.ber_vs_reference == 0.0
        assert report.levels.sigma > 0.0

    def test_unmodulated_carrier_fails_sync(self):
        frames = make_carrier("gray128", 16, 12, 200)
        with pytest.raises(SyncError):
            decode_frames(frames, OOK, 30.0)

    def test_singular_homography_rejected(self):
        frames = make_carrier("gray128", 8, 8, 600)
        with pytest.raises(ValueError, match="singular"):
            decode_frames(frames, OOK, 30.0, homography=np.zeros((3, 3)))


@pytest.mark.parametrize("frames_per_symbol", [3, 5, 6])
@pytest.mark.parametrize("camera_fps", [30000 / 1001, 31.0, 24.0, 12.0, 45.0])
def test_round_trip_across_camera_rates(camera_fps, frames_per_symbol):
    # Non-integer capture/display ratios end the capture part-way through the
    # last symbol; its central samples must still be decided.
    payload = as_bits("1010101010101010")
    params = ModulationParams(symbol_duration_frames=frames_per_symbol)
    carrier = make_carrier("gradient", 32, 24, frames_needed(payload.size, params))
    sent = encode_stream(payload, carrier, params)
    channel = ChannelParams(noise_sigma=0.002, camera_fps=camera_fps, rng_seed=1)
    if camera_fps < 2.0 * params.symbol_rate:
        with pytest.raises(SamplingRateError):
            transmit(sent, params.frame_rate, channel, symbol_rate=params.symbol_rate)
        return
    captured = transmit(sent, params.frame_rate, channel, symbol_rate=params.symbol_rate)
    report = decode_frames(captured, params, camera_fps, reference_payload=payload)
    assert report.crc_ok
    assert np.array_equal(report.payload, payload)


@settings(max_examples=10, deadline=None)
@given(payload=st.lists(st.integers(0, 1), min_size=1, max_size=24),
       m_exp=st.sampled_from([1, 2]))
def test_random_payload_round_trip(payload, m_exp):
    params = ModulationParams(m=2**m_exp, symbol_duration_frames=2)
    bits = np.array(payload, dtype=np.uint8)
    carrier = make_carrier("gradient", 32, 24, frames_needed(bits.size, params))
    sent = encode_stream(bits, carrier, params)
    captured = transmit(sent, 30.0, ChannelParams())
    report = decode_frames(captured, params, 30.0, reference_payload=bits)
    assert report.crc_ok
    assert np.array_equal(report.payload, bits)


# Frames per symbol from 1 to 20, plus the NTSC ratio 6000/1001 (6 at 29.97 fps).
RATES = st.one_of(st.floats(1.0, 20.0), st.just(6000 / 1001))
# Exact frames per symbol: small fractions, NTSC ratios and floats, which
# stand for the binary values they hold.
EXACT_RATES = st.one_of(
    st.sampled_from([Fraction(6000, 1001), Fraction(30000, 1001), Fraction(24000, 1001)]),
    st.fractions(1, 30, max_denominator=1001), st.floats(1.0, 30.0))


def link_trace(r, lead_in, payload_symbols, m, tail, noise, seed):
    """Amplitude trace of a lead-in, the alternating preamble and a payload.

    Sample i is centered at time (i + 0.5) capture periods, so it carries
    symbol floor((i - lead_in + 0.5) / r); samples outside every symbol read
    the bottom level. tail samples follow the last symbol (negative cuts it).
    """
    levels = 0.3 + 0.4 * np.arange(m) / (m - 1)
    symbols = np.concatenate([np.tile([m - 1, 0], 8), payload_symbols]).astype(int)
    n = max(1, lead_in + math.ceil(symbols.size * r) + tail)
    index = np.floor((np.arange(n) - lead_in + 0.5) / r).astype(int)
    inside = (index >= 0) & (index < symbols.size)
    values = np.where(inside, levels[symbols[np.where(inside, index, 0)]], levels[0])
    values = values + np.random.default_rng(seed).normal(0.0, noise, n)
    return SymbolSeries(values, sample_rate=30.0)


@st.composite
def links(draw):
    """(frames per symbol, lead-in, trace) of a noisy 4-level link."""
    r = draw(RATES)
    lead_in = draw(st.integers(0, 40))
    payload = np.array(draw(st.lists(st.integers(0, 3), max_size=20)), dtype=int)
    series = link_trace(r, lead_in, payload, 4, tail=draw(st.integers(-20, 30)),
                        noise=draw(st.floats(0.0, 0.05)),
                        seed=draw(st.integers(0, 2**32 - 1)))
    return r, lead_in, series


class TestWholeTraceReceiver:
    """The whole-trace receiver against per-symbol and per-window oracles."""

    @settings(max_examples=100, deadline=None)
    @given(r=RATES, offset=st.integers(-30, 60), n_samples=st.integers(0, 400))
    def test_central_windows_match_reference(self, r, offset, n_samples):
        sync = SyncResult(offset=offset, frames_per_symbol=r)
        for n_symbols in (None, 16):
            start, stop = central_windows(sync, n_samples, n_symbols)
            for j in range(start.size):
                assert np.array_equal(np.arange(start[j], stop[j]),
                                      central_window_reference(offset, r, j, n_samples))
        # By default the table runs through the first symbol that starts past
        # the end of the trace.
        start, stop = central_windows(sync, n_samples)
        assert stop[-1] == start[-1]
        assert central_window_reference(offset, r, start.size, n_samples).size == 0

    @settings(max_examples=100, deadline=None)
    @given(r=EXACT_RATES, offset=st.integers(-30, 60), n_samples=st.integers(0, 400))
    def test_central_windows_are_exact(self, r, offset, n_samples):
        start, stop = central_windows(SyncResult(offset=offset, frames_per_symbol=r),
                                      n_samples)
        n_symbols = max(0, math.ceil((n_samples - offset) / Fraction(r))) + 1
        assert start.size == n_symbols
        for j in range(n_symbols):
            assert np.array_equal(np.arange(start[j], stop[j]),
                                  central_window_reference(offset, r, j, n_samples))
        # The float bounds agree wherever none of them is within 1e-9 of an integer.
        symbol = np.arange(n_symbols)
        low, high, center = (offset + (symbol + f) * float(r) for f in (0.25, 0.75, 0.5))
        empty = np.ceil(high) <= np.ceil(low)
        float_start = np.clip(np.where(empty, np.floor(center), np.ceil(low)), 0, n_samples)
        float_stop = np.clip(np.where(empty, np.floor(center) + 1, np.ceil(high)),
                             0, n_samples)
        clear = ~(near_integer(low) | near_integer(high) | near_integer(center))
        assert np.array_equal(start[clear], float_start[clear])
        assert np.array_equal(stop[clear], float_stop[clear])

    @settings(max_examples=60, deadline=None)
    @given(link=links())
    def test_levels_and_decisions_match_reference(self, link):
        r, lead_in, series = link
        qask = ModulationParams(m=4)
        values = series.values
        sync = SyncResult(offset=lead_in, frames_per_symbol=r)
        windows = [central_window_reference(lead_in, r, j, values.size)
                   for j in range(16)]
        if any(w.size == 0 for w in windows):
            with pytest.raises(DegenerateLevelsError, match="no samples"):
                estimate_levels(series, sync, qask)
            return
        means = [values[w].mean() for w in windows]
        mu1, mu0 = np.mean(means[0::2]), np.mean(means[1::2])
        if not mu1 > mu0:
            with pytest.raises(DegenerateLevelsError):
                estimate_levels(series, sync, qask)
            return
        pooled = np.concatenate([values[w] - mean for w, mean in zip(windows, means)])
        dof = pooled.size - 16
        sigma = math.sqrt(np.sum(pooled**2) / dof) if dof > 0 else 0.0
        levels = estimate_levels(series, sync, qask)
        assert levels.mu0 == pytest.approx(mu0, rel=0.0, abs=1e-12)
        assert levels.mu1 == pytest.approx(mu1, rel=0.0, abs=1e-12)
        assert levels.sigma == pytest.approx(sigma, rel=0.0, abs=1e-12)

        expected = []
        while (w := central_window_reference(lead_in, r, len(expected), values.size)).size:
            expected.append(sum(t <= values[w].mean() for t in levels.thresholds))
        assert decide_symbols(series, sync, levels, qask).tolist() == expected

    @settings(max_examples=60, deadline=None)
    @given(link=links())
    # Noiseless, one sample of lead-in: the window at 0 correlates 0.9, the cutoff.
    @example(link=(20.0, 1, link_trace(20.0, 1, np.zeros(0, dtype=int), 4, tail=3,
                                       noise=0.0, seed=0)))
    def test_sync_matches_sliding_window_reference(self, link):
        r, _, series = link
        params = ModulationParams(m=4, frame_rate=30.0, symbol_duration_frames=1)
        camera_fps = 30.0 * r
        r = received_frames_per_symbol(params, camera_fps)
        size = math.ceil(16 * r)
        if series.values.size < size:
            with pytest.raises(SyncError, match="shorter"):
                synchronize(series, params, camera_fps)
            return
        # Sample k carries symbol floor((k + 1/2) / r), in Python integers.
        symbol_of = np.array([(2 * k + 1) * r.denominator // (2 * r.numerator)
                              for k in range(size)])
        template = np.where(symbol_of % 2 == 0, 1.0, -1.0)
        corr = sliding_correlation_reference(series.values, template)
        peak = corr.max()
        t_centered = template - template.mean()
        fast = _window_correlation(series.values, t_centered,
                                   float(np.sqrt(np.sum(t_centered**2))))
        if peak < MIN_SYNC_CORRELATION:
            with pytest.raises(SyncError, match="correlation"):
                synchronize(series, params, camera_fps)
            return
        assert fast.max() == pytest.approx(peak, rel=0.0, abs=1e-9)
        cutoff = max(MIN_SYNC_CORRELATION, peak - SYNC_PEAK_TOLERANCE)
        # The earliest candidate wins. A window within rounding of the cutoff
        # may count either way: noiseless traces put one exactly on it.
        offset = synchronize(series, params, camera_fps).offset
        assert corr[offset] >= cutoff - 1e-9
        assert not np.any(corr[:offset] >= cutoff + 1e-9)

    def test_sync_memory_is_linear_in_the_trace(self):
        # 50,000 samples at 6 frames per symbol: a 96-sample template. An
        # n x 96 float window matrix alone would take 38 MB.
        rng = np.random.default_rng(3)
        series = link_trace(6.0, 100, rng.integers(0, 2, 8300), 2, tail=4, noise=0.01,
                            seed=4)
        assert len(series) == 50_000
        tracemalloc.start()
        try:
            sync = synchronize(series, OOK, camera_fps=30.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sync.offset == 100
        assert peak < 8e6
