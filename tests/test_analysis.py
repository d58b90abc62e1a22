import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brightlink import channel as channel_module
from brightlink.analysis import (
    BerModel,
    distance_sweep,
    fit_loglog_slope,
    monte_carlo_ber,
    q_function,
    theoretical_ber,
)
from brightlink.channel import ChannelGeometry, ChannelParams, transmit
from brightlink.core import Color, ModulationParams, as_bits, to_unit
from brightlink.decoder import central_windows, decode_frames, extract_block_frames
from brightlink.encoder import encode_stream, frames_needed, make_carrier
from reference import capture_count_reference, distance_sweep_reference, q_reference

# Q(2) to machine precision; the usual tabulated value is 0.0228.
Q_AT_2 = 0.022750131948179216


class TestQFunction:
    def test_center_and_symmetry(self):
        assert q_function(0.0) == 0.5
        assert q_function(-1.5) == pytest.approx(1.0 - q_function(1.5), abs=1e-15)

    def test_frozen_value_at_two(self):
        assert q_function(2.0) == pytest.approx(Q_AT_2, abs=1e-15)

    @pytest.mark.parametrize("x", [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.5])
    def test_matches_numerical_integration(self, x):
        assert q_function(x) == pytest.approx(q_reference(x), abs=1e-12)

    def test_vectorized_and_decreasing(self):
        xs = np.linspace(0.0, 5.0, 21)
        values = q_function(xs)
        assert values.shape == xs.shape
        assert (np.diff(values) < 0).all()


class TestBerModel:
    def test_default_threshold_is_midpoint(self):
        model = BerModel(mu0=0.2, mu1=0.6, sigma=0.1)
        assert model.threshold == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ValueError, match="mu1"):
            BerModel(mu0=0.5, mu1=0.5, sigma=0.1)
        with pytest.raises(ValueError, match="sigma"):
            BerModel(mu0=0.0, mu1=1.0, sigma=0.0)

    @pytest.mark.parametrize("field", ["mu0", "mu1", "sigma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_values_that_are_not_finite_are_refused(self, field, value):
        fields = {**dict(mu0=0.0, mu1=1.0, sigma=0.25), field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            BerModel(**fields)

    def test_from_levels(self):
        model = BerModel.from_levels(0.1, 0.3, 0.05)
        assert model == BerModel(mu0=0.1, mu1=0.3, sigma=0.05)
        assert model.threshold == pytest.approx(0.2)


class TestTheoreticalBer:
    def test_symmetric_case_reduces_to_single_q(self):
        # (mu1 - mu0) / (2 sigma) = 2, so the error rate is Q(2).
        model = BerModel(mu0=0.0, mu1=1.0, sigma=0.25)
        assert theoretical_ber(model) == pytest.approx(Q_AT_2, abs=1e-15)
        assert theoretical_ber(model) == pytest.approx(q_reference(2.0), abs=1e-12)

    @given(margin=st.floats(0.2, 4.0), mu0=st.floats(-1.0, 1.0),
           sigma=st.floats(0.01, 2.0))
    def test_midpoint_threshold_matches_margin_formula(self, margin, mu0, sigma):
        mu1 = mu0 + 2.0 * margin * sigma
        model = BerModel(mu0, mu1, sigma)
        assert theoretical_ber(model) == pytest.approx(q_function(margin),
                                                       rel=1e-9)


class TestMonteCarloBer:
    def test_requires_enough_symbols(self):
        model = BerModel(0.0, 1.0, 0.25)
        with pytest.raises(ValueError, match="n_symbols"):
            monte_carlo_ber(model, 9_999)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seed_outside_64_bits(self, seed):
        model = BerModel(0.0, 1.0, 0.25)
        with pytest.raises(ValueError, match="seed"):
            monte_carlo_ber(model, 10_000, seed=seed)

    @pytest.mark.parametrize("seed", [1.5, np.float64(1.0)])
    def test_rejects_non_integer_seeds(self, seed):
        # The uint64 chunk key would truncate a float seed.
        with pytest.raises(ValueError, match="seed must be an integer"):
            monte_carlo_ber(BerModel(0.0, 1.0, 0.25), 10_000, seed=seed)

    def test_numpy_integer_seed_matches_the_python_int(self):
        model = BerModel(0.0, 1.0, 0.25)
        assert monte_carlo_ber(model, 10_000, seed=np.uint64(2**64 - 1)) == \
            monte_carlo_ber(model, 10_000, seed=2**64 - 1)

    def test_deterministic_per_seed(self):
        model = BerModel(0.0, 1.0, 0.25)
        assert monte_carlo_ber(model, 50_000, seed=5) == monte_carlo_ber(
            model, 50_000, seed=5)
        assert monte_carlo_ber(model, 50_000, seed=5) != monte_carlo_ber(
            model, 50_000, seed=6)

    def test_matches_theory_within_confidence(self):
        model = BerModel(0.0, 1.0, 0.25)
        rate, halfwidth = monte_carlo_ber(model, 100_000, seed=0)
        assert halfwidth == pytest.approx(
            3.0 * math.sqrt(rate * (1.0 - rate) / 100_000))
        assert abs(rate - Q_AT_2) < halfwidth

    def test_independent_of_chunking_against_plain_rng(self):
        # One chunk (n below the chunk size) reproduces a straightforward
        # single-generator simulation with the same key.
        model = BerModel(0.0, 1.0, 0.5)
        n = 20_000
        rate, _ = monte_carlo_ber(model, n, seed=9)
        rng = np.random.Generator(np.random.Philox(
            key=np.array([9, 0], dtype=np.uint64)))
        sent = (rng.random(n) < 0.5).astype(int)
        mu = np.array([0.0, 1.0])
        amplitude = mu[sent] + 0.5 * rng.standard_normal(n)
        expected = np.count_nonzero((amplitude >= 0.5).astype(int) != sent) / n
        assert rate == pytest.approx(expected, abs=1e-12)


class TestFitLoglogSlope:
    def test_exact_power_law(self):
        d = np.array([1.0, 2.0, 4.0, 8.0])
        assert fit_loglog_slope(d, 7.0 / d**2) == pytest.approx(-2.0, abs=1e-12)
        assert fit_loglog_slope(d, 3.0 * d**1.5) == pytest.approx(1.5, abs=1e-12)

    def test_ignores_nonpositive_points(self):
        d = np.array([1.0, 2.0, 4.0, 8.0])
        y = np.array([1.0, 0.25, 0.0, float("nan")])
        assert fit_loglog_slope(d, y) == pytest.approx(-2.0, abs=1e-12)

    def test_underdetermined_is_nan(self):
        assert math.isnan(fit_loglog_slope([1.0], [1.0]))
        assert math.isnan(fit_loglog_slope([1.0, 2.0], [0.0, 0.0]))


def _sweep_setup():
    modulation = ModulationParams(m=2, symbol_duration_frames=2)
    payload = as_bits("1010101010101010")
    carrier = make_carrier("gradient", 48, 32, frames_needed(16, modulation))
    channel = ChannelParams(quantizer_bits=16)
    return modulation, payload, carrier, channel


class TestDistanceSweep:
    def test_amplitude_swing_follows_inverse_square(self):
        modulation, payload, carrier, channel = _sweep_setup()
        result = distance_sweep([1.0, 2.0, 4.0], payload, carrier, modulation,
                                channel)
        assert all(row.error is None for row in result.rows)
        assert all(row.pe_measured == 0.0 for row in result.rows)
        assert result.slope == pytest.approx(-2.0, abs=0.02)
        swings = {row.distance_m: row.delta_mu for row in result.rows}
        assert swings[1.0] / swings[2.0] == pytest.approx(4.0, rel=0.01)

    def test_noiseless_rows_predict_zero_errors(self):
        modulation, payload, carrier, channel = _sweep_setup()
        result = distance_sweep([1.0, 2.0, 3.0], payload, carrier, modulation,
                                channel)
        assert all(row.pe_theory == 0.0 for row in result.rows)

    def test_failures_are_recorded_and_skipped(self):
        modulation, payload, carrier, channel = _sweep_setup()
        result = distance_sweep([1.0, 2.0, 1e9], payload, carrier, modulation,
                                channel)
        good = [row for row in result.rows if row.error is None]
        bad = [row for row in result.rows if row.error is not None]
        assert len(good) == 2 and len(bad) == 1
        assert bad[0].distance_m == 1e9
        assert math.isnan(bad[0].delta_mu)
        assert result.slope == pytest.approx(-2.0, abs=0.02)

    @pytest.mark.parametrize("frames_per_symbol, samples", [(3, 2), (6, 3)])
    def test_prediction_counts_central_window_samples(self, frames_per_symbol, samples):
        # Each decision averages its central window: 2 samples at 3 frames per
        # symbol (not floor(3 / 2) = 1) and 3 at 6 frames per symbol.
        modulation = ModulationParams(m=2, symbol_duration_frames=frames_per_symbol)
        payload = as_bits("1011001110001111")
        carrier = make_carrier("gradient", 32, 24, frames_needed(16, modulation))
        channel = ChannelParams(noise_sigma=0.004, quantizer_bits=16, rng_seed=11)
        result = distance_sweep([3.0, 4.0, 5.0], payload, carrier, modulation, channel)
        sent = encode_stream(payload, carrier, modulation)
        for row in result.rows:
            params = replace(channel, geometry=ChannelGeometry(distance_m=row.distance_m))
            report = decode_frames(transmit(sent, modulation.frame_rate, params),
                                   modulation, params.camera_fps)
            start, stop = central_windows(report.sync, len(report.series),
                                          len(report.symbols))
            assert np.all(stop - start == samples)
            mu0, mu1, sigma = report.levels.mu0, report.levels.mu1, report.levels.sigma
            assert 1e-30 < row.pe_theory < 0.5
            assert row.pe_theory == pytest.approx(
                q_function((mu1 - mu0) * math.sqrt(samples) / (2.0 * sigma)), rel=1e-9)
            if frames_per_symbol == 6:
                # Unchanged from the floor(r / 2) formula, to the last bit.
                assert row.pe_theory == q_function((mu1 - mu0) / (2.0 * (sigma / math.sqrt(3))))

    @pytest.mark.parametrize("m, neighbour_factor", [(4, 1.0), (8, 11 / 12)])
    def test_m_ary_prediction_uses_adjacent_spacing(self, m, neighbour_factor):
        # Adjacent levels lie (mu1 - mu0) / (m - 1) apart; the nearest-neighbour
        # factor 2 sum_b popcount(b ^ (b + 1)) / (m log2 m) is 2 * 4 / 8 for
        # m = 4 and 2 * 11 / 24 for m = 8.
        modulation = ModulationParams(m=m, symbol_duration_frames=6)
        payload = as_bits("1011001110001111" * 3)
        carrier = make_carrier("gradient", 32, 24, frames_needed(48, modulation))
        channel = ChannelParams(noise_sigma=0.004, quantizer_bits=16, rng_seed=11)
        result = distance_sweep([1.5, 2.0, 2.5], payload, carrier, modulation, channel)
        sent = encode_stream(payload, carrier, modulation)
        for row in result.rows:
            assert row.error is None
            params = replace(channel, geometry=ChannelGeometry(distance_m=row.distance_m))
            report = decode_frames(transmit(sent, modulation.frame_rate, params),
                                   modulation, params.camera_fps)
            mu0, mu1, sigma = report.levels.mu0, report.levels.mu1, report.levels.sigma
            spacing = (mu1 - mu0) / (m - 1)
            expected = neighbour_factor * q_function(spacing * math.sqrt(3) / (2.0 * sigma))
            assert 1e-30 < row.pe_theory < 0.5
            assert row.pe_theory == pytest.approx(expected, rel=1e-9)

    def test_needs_three_distances(self):
        modulation, payload, carrier, channel = _sweep_setup()
        with pytest.raises(ValueError, match="3 distances"):
            distance_sweep([1.0, 2.0], payload, carrier, modulation, channel)


WARP = np.array([[0.95, -0.066, 2.7], [0.066, 0.95, -0.35], [0.0002, -0.0001, 1.0]])
# Two rows fail on every clip: -1 m is no geometry, and at 1e9 m the swing is
# lost in the noise or under the quantizer's step.
SWEEP_DISTANCES = (1.0, 1.5, -1.0, 2.0, 3.0, 1e9)


def assert_sweeps_equal(got, expected):
    """Rows equal field by field; a failed row matches by its error text."""
    assert len(got.rows) == len(expected.rows)
    for row, ref in zip(got.rows, expected.rows):
        assert row.error == ref.error
        if ref.error is None:
            assert row == ref
        else:
            assert row.distance_m == ref.distance_m
            assert all(math.isnan(v) for v in (row.delta_mu, row.pe_theory,
                                               row.pe_measured, row.ci_halfwidth))
    assert got.slope == expected.slope or (math.isnan(got.slope)
                                           and math.isnan(expected.slope))


def sweep_case(width, height, camera_fps, m, bits, noise, region=None, color=Color.RED,
               frames_per_symbol=3, payload="1011001110001111"):
    modulation = ModulationParams(m=m, symbol_duration_frames=frames_per_symbol,
                                  depth=0.09, channel=color)
    payload = as_bits(payload)
    carrier = make_carrier("gradient", width, height,
                           frames_needed(payload.size, modulation))
    channel = ChannelParams(noise_sigma=noise, quantizer_bits=bits, camera_fps=camera_fps,
                            affine=WARP, rng_seed=2**64 - 5)
    return payload, carrier, modulation, channel, region


class TestSweepMatchesPerDistanceLoop:
    """distance_sweep sends the receiver's colour plane once for all distances;
    every row must be what one transmit and one decode_frames per distance
    give (tests/reference.py). The gradient's planes differ, so a sweep that
    carried the wrong plane would fail the green and blue cases."""

    @pytest.mark.parametrize("case", [
        (32, 24, 24.0, 2, 8, 0.003, None),
        (48, 36, 30.0, 4, 16, 0.0, (4, 3, 40, 30)),
        (32, 24, 60.0, 8, 8, 0.002, (2, 2, 24, 18)),
        (64, 48, Fraction(30000, 1001), 2, 16, 0.004, None),
        (40, 30, Fraction(30000, 1001), 4, 8, 0.0, None),
        (48, 36, 60.0, 2, 8, 0.0, None),
        (48, 36, 30.0, 4, 16, 0.003, (4, 3, 40, 30), Color.GREEN),
        (32, 24, 60.0, 2, 8, 0.002, None, Color.GREEN),
        (40, 30, Fraction(30000, 1001), 4, 16, 0.002, (2, 2, 32, 24), Color.BLUE),
        (32, 24, 24.0, 2, 8, 0.003, None, Color.BLUE),
    ], ids=["24fps_m2_8bit", "30fps_m4_16bit_region", "60fps_m8_8bit_region",
            "ntsc_m2_16bit", "ntsc_m4_8bit_noiseless", "60fps_m2_8bit_noiseless",
            "30fps_m4_16bit_region_green", "60fps_m2_8bit_green",
            "ntsc_m4_16bit_region_blue", "24fps_m2_8bit_blue"])
    def test_rows_match(self, case):
        payload, carrier, modulation, channel, region = sweep_case(*case)
        args = (payload, carrier, modulation, channel, region)
        assert_sweeps_equal(distance_sweep(SWEEP_DISTANCES, *args),
                            distance_sweep_reference(SWEEP_DISTANCES, *args))

    def test_partial_last_stage(self):
        # 60 fps captures of a 30 fps clip of 32x24 frames: 576 captures, one
        # full stage of 341 and a last one of 235.
        payload, carrier, modulation, channel, region = sweep_case(32, 24, 60.0, 2, 16,
                                                                   0.002)
        n_captures = capture_count_reference(len(encode_stream(payload, carrier, modulation)),
                                             modulation.frame_rate, channel.camera_fps)
        block = extract_block_frames(24, 32)
        assert n_captures > block and n_captures % block
        args = (payload, carrier, modulation, channel, region)
        assert_sweeps_equal(distance_sweep(SWEEP_DISTANCES, *args),
                            distance_sweep_reference(SWEEP_DISTANCES, *args))

    def test_frames_of_more_than_2_16_values(self):
        # A 160x140 frame holds 67,200 values: a channel block is one display
        # frame's captures and an extract_signal stage 11 captures.
        payload, carrier, modulation, channel, region = sweep_case(
            160, 140, 60.0, 2, 16, 0.003, frames_per_symbol=2, payload="1011")
        args = (payload, carrier, modulation, channel, region)
        assert_sweeps_equal(distance_sweep([1.0, 2.0, 1e9], *args),
                            distance_sweep_reference([1.0, 2.0, 1e9], *args))

    def test_a_row_whose_gain_overflows_fails_alone(self):
        # At 1e-160 m the gain overflows to inf, which normalized_gain refuses
        # before any capture is made; the other rows are sent as usual.
        payload, carrier, modulation, channel, region = sweep_case(32, 24, 30.0, 2, 16,
                                                                   0.002)
        distances = [1e-160, 1.0, 2.0, 3.0]
        result = distance_sweep(distances, payload, carrier, modulation, channel)
        expected = distance_sweep_reference(distances, payload, carrier, modulation,
                                            channel)
        assert_sweeps_equal(result, expected)
        assert [row.error is None for row in result.rows] == [False, True, True, True]
        assert "finite" in result.rows[0].error

    def test_sampling_guard_fails_every_open_row(self):
        payload, carrier, modulation, channel, region = sweep_case(32, 24, 8.0, 2, 8,
                                                                   0.002)
        result = distance_sweep(SWEEP_DISTANCES, payload, carrier, modulation, channel)
        assert_sweeps_equal(result, distance_sweep_reference(
            SWEEP_DISTANCES, payload, carrier, modulation, channel))
        errors = {row.error for row in result.rows if row.distance_m != -1.0}
        assert len(errors) == 1 and "below twice the symbol rate" in errors.pop()


@pytest.mark.parametrize("region", [(0, 0, 33, 24), (-1, 0, 8, 8), (0, 0, 8, 0),
                                    (1.5, 0, 8, 8)])
def test_a_bad_region_fails_every_row(region):
    # Every distance's receiver binds its weight image at its first block.
    payload, carrier, modulation, channel, _ = sweep_case(32, 24, 30.0, 2, 8, 0.002)
    args = (payload, carrier, modulation, channel, region)
    result = distance_sweep(SWEEP_DISTANCES, *args)
    assert_sweeps_equal(result, distance_sweep_reference(SWEEP_DISTANCES, *args))
    errors = {row.error for row in result.rows if row.distance_m != -1.0}
    assert len(errors) == 1 and "region" in errors.pop()


class TestSweepWork:
    """One pass over the clip's receiver plane, whatever the number of distances."""

    @pytest.mark.parametrize("n_distances", [3, 6])
    def test_each_frame_warped_and_each_capture_drawn_once(self, monkeypatch,
                                                           n_distances):
        # At 45 fps a display frame spans 1.5 captures, and every frame is shown.
        payload, carrier, modulation, channel, region = sweep_case(32, 24, 45.0, 2, 8,
                                                                   0.003)
        n_frames = len(encode_stream(payload, carrier, modulation))
        # Each block converts and warps one column per shown frame.
        converted, warped, drawn = [], [], []
        build_warp, generator = channel_module._warp_operator, np.random.Generator

        def counting_to_unit(pixels):
            converted.append(pixels.shape[1])
            return to_unit(pixels)

        class CountingWarp:
            def __init__(self, warp):
                self.warp = warp

            def __matmul__(self, unit):
                warped.append(unit.shape[1])
                return self.warp @ unit

        class CountingGenerator:
            def __init__(self, philox):
                self.philox, self.rng = philox, generator(philox)

            def normal(self, *args, **kwargs):
                drawn.append(int(self.philox.state["state"]["key"][1]))
                return self.rng.normal(*args, **kwargs)

        monkeypatch.setattr(channel_module, "to_unit", counting_to_unit)
        monkeypatch.setattr(channel_module, "_warp_operator",
                            lambda *key: CountingWarp(build_warp(*key)))
        monkeypatch.setattr(np.random, "Generator", CountingGenerator)
        distances = [1.0 + 0.5 * k for k in range(n_distances)]
        result = distance_sweep(distances, payload, carrier, modulation, channel)
        assert all(row.error is None for row in result.rows)
        assert converted == warped
        assert sum(converted) == n_frames
        assert drawn == list(range(capture_count_reference(n_frames, 30, 45)))


class TestSweepMemory:
    """Each distance holds one extract_signal stage of one colour plane and its
    samples, not its captured clip."""

    @pytest.mark.parametrize("bits, itemsize", [(8, 1), (16, 4)])
    def test_doubling_the_distances_adds_one_stage_each(self, bits, itemsize):
        # 96x72 frames: a stage is 37 captures of one plane, a clip 288; a
        # stage of all three planes would pass the bound.
        payload, carrier, modulation, channel, region = sweep_case(96, 72, 30.0, 2, bits,
                                                                   0.002)
        n_captures = len(encode_stream(payload, carrier, modulation))
        # One plane's stage, and the row's samples with room for the arrays of
        # the blocks they were reduced in.
        per_distance = (1 << 18) * itemsize + 2 * n_captures * 8
        assert n_captures * 96 * 72 * itemsize > 4 * per_distance

        def peak(n_distances):
            distances = [1.0 + 0.25 * k for k in range(n_distances)]
            tracemalloc.start()
            try:
                result = distance_sweep(distances, payload, carrier, modulation, channel)
                _, peak_bytes = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert all(row.error is None for row in result.rows)
            return peak_bytes

        # Build the kept warp and weights, and whatever a first run of either
        # size allocates for good, outside the measured runs.
        peak(3)
        peak(6)
        assert peak(6) - peak(3) <= 3 * per_distance
