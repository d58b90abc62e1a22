import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brightlink.analysis import (
    BerModel,
    distance_sweep,
    fit_loglog_slope,
    monte_carlo_ber,
    q_function,
    theoretical_ber,
)
from brightlink.channel import ChannelGeometry, ChannelParams, transmit
from brightlink.core import ModulationParams, as_bits
from brightlink.decoder import central_windows, decode_frames
from brightlink.encoder import encode_stream, frames_needed, make_carrier
from reference import q_reference

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
        model = BerModel.from_levels(mu0, mu1, sigma)
        assert theoretical_ber(model) == pytest.approx(q_function(margin),
                                                       rel=1e-9)


class TestMonteCarloBer:
    def test_requires_enough_symbols(self):
        model = BerModel.from_levels(0.0, 1.0, 0.25)
        with pytest.raises(ValueError, match="n_symbols"):
            monte_carlo_ber(model, 9_999)

    def test_deterministic_per_seed(self):
        model = BerModel.from_levels(0.0, 1.0, 0.25)
        assert monte_carlo_ber(model, 50_000, seed=5) == monte_carlo_ber(
            model, 50_000, seed=5)
        assert monte_carlo_ber(model, 50_000, seed=5) != monte_carlo_ber(
            model, 50_000, seed=6)

    def test_matches_theory_within_confidence(self):
        model = BerModel.from_levels(0.0, 1.0, 0.25)
        rate, halfwidth = monte_carlo_ber(model, 100_000, seed=0)
        assert halfwidth == pytest.approx(
            3.0 * math.sqrt(rate * (1.0 - rate) / 100_000))
        assert abs(rate - Q_AT_2) < halfwidth

    def test_independent_of_chunking_against_plain_rng(self):
        # One chunk (n below the chunk size) reproduces a straightforward
        # single-generator simulation with the same key.
        model = BerModel.from_levels(0.0, 1.0, 0.5)
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
