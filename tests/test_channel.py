import functools
import hashlib
import math
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brightlink import channel as channel_module
from brightlink import core as core_module
from brightlink.channel import (
    ChannelGeometry,
    ChannelParams,
    SamplingRateError,
    geometric_gain,
    identity_homography,
    normalized_gain,
    resampling_map,
    transmit,
    transmit_gains,
)
from brightlink.core import Color, quantize_unit, to_unit
from brightlink.decoder import extract_signal
from brightlink.encoder import make_carrier
from reference import (
    bilinear_pull_reference,
    block_bounds_reference,
    capture_count_reference,
    near_integer,
    shown_frame_reference,
    surface_integrated_gain,
    transmit_reference,
)


def translation(dx, dy):
    matrix = identity_homography()
    matrix[0, 2] = dx
    matrix[1, 2] = dy
    return matrix


# A small warped, noisy clip at 2.5 m and off-axis, whose captures the areas must not move.
AREA_CLIP = (make_carrier("gradient", 8, 6, 4), 30)
AREA_CHANNEL = ChannelParams(geometry=ChannelGeometry(distance_m=2.5, phi_rad=0.4,
                                                      theta_rad=0.2),
                             noise_sigma=0.01, affine=translation(0.3, 0.2), rng_seed=11)


class TestGeometry:
    def test_validation(self):
        with pytest.raises(ValueError, match="distance_m"):
            ChannelGeometry(distance_m=0.0)
        with pytest.raises(ValueError, match="phi_rad"):
            ChannelGeometry(phi_rad=math.pi / 2)
        with pytest.raises(ValueError, match="theta_rad"):
            ChannelGeometry(theta_rad=-0.1)
        with pytest.raises(ValueError, match="display_area_m2"):
            ChannelGeometry(display_area_m2=0.0)
        with pytest.raises(ValueError, match="aperture_area_m2"):
            ChannelGeometry(aperture_area_m2=-1e-6)

    def test_head_on_gain_at_one_meter(self):
        geometry = ChannelGeometry(distance_m=1.0)
        assert geometric_gain(geometry) == pytest.approx(0.11 * 2e-5 / math.pi,
                                                         rel=1e-12)

    @pytest.mark.parametrize("d", [0.5, 1.0, 2.0, 3.0, 6.0, 9.0])
    def test_gain_follows_inverse_square_law(self, d):
        base = geometric_gain(ChannelGeometry(distance_m=1.0))
        assert geometric_gain(ChannelGeometry(distance_m=d)) == pytest.approx(
            base / d**2, rel=1e-12)

    def test_gain_scales_with_both_cosines(self):
        base = geometric_gain(ChannelGeometry())
        tilted = ChannelGeometry(phi_rad=math.radians(60),
                                 theta_rad=math.radians(60))
        assert geometric_gain(tilted) == pytest.approx(base * 0.25, rel=1e-12)

    def test_normalized_gain_reference_is_head_on_one_meter(self):
        assert normalized_gain(ChannelGeometry(distance_m=1.0)) == 1.0
        geometry = ChannelGeometry(distance_m=3.0, phi_rad=0.3, theta_rad=0.7)
        expected = math.cos(0.3) * math.cos(0.7) / 9.0
        assert normalized_gain(geometry) == pytest.approx(expected, rel=1e-12)

    def test_a_gain_that_is_not_finite_names_its_input(self):
        # The areas cancel out of the relative gain, even where their product
        # is no float.
        assert normalized_gain(ChannelGeometry(display_area_m2=1e308,
                                               aperture_area_m2=1e308)) == 1.0
        # d^2 underflows to zero at 1e-160 m and overflows at 1e200 m; at
        # 1e-161 m it is subnormal and 1 / d^2 overflows.
        for d in (1e-160, 1e200, 1e-161):
            for gain in (normalized_gain, geometric_gain):
                with pytest.raises(ValueError,
                                   match=f"^distance {re.escape(str(d))} m gives no finite gain$"):
                    gain(ChannelGeometry(distance_m=d))
        # The absolute budget keeps the areas: their product overflows at
        # 1e308 m2 each and underflows to zero at 1e-300 m2 each.
        for area in (1e308, 1e-300):
            name = re.escape(str(area))
            with pytest.raises(ValueError, match=f"^display area {name} m2 and aperture area "
                                                 f"{name} m2 give no finite gain$"):
                geometric_gain(ChannelGeometry(display_area_m2=area, aperture_area_m2=area))

    @settings(max_examples=40, deadline=None)
    @given(st.floats(1e-300, 1e308), st.floats(1e-300, 1e308))
    def test_the_areas_never_reach_a_capture(self, display_area, aperture_area):
        geometry = replace(AREA_CHANNEL.geometry, display_area_m2=display_area,
                           aperture_area_m2=aperture_area)
        assert transmit(*AREA_CLIP, replace(AREA_CHANNEL, geometry=geometry)).tobytes() == \
            transmit(*AREA_CLIP, AREA_CHANNEL).tobytes()

    def test_point_formula_matches_surface_integration(self):
        # Far-field spot check; the broad randomized comparison lives in the
        # acceptance suite.
        area, aperture = 0.11, 2e-5
        d = 20.0 * math.sqrt(2 * area)
        phi, theta = math.radians(30), math.radians(45)
        geometry = ChannelGeometry(distance_m=d, phi_rad=phi, theta_rad=theta,
                                   display_area_m2=area, aperture_area_m2=aperture)
        exact = surface_integrated_gain(d, phi, theta, area, aperture)
        assert geometric_gain(geometry) == pytest.approx(exact, rel=1e-3)


class TestChannelParams:
    def test_defaults(self):
        params = ChannelParams()
        assert params.quantizer_bits == 8
        assert np.array_equal(params.affine, np.eye(3))

    @pytest.mark.parametrize("kwargs", [
        dict(noise_sigma=-0.1),
        dict(affine=np.zeros((3, 3))),
        dict(affine=np.eye(4)),
        dict(camera_fps=0.0),
        dict(camera_fps=True),
        dict(camera_fps=False),
        dict(quantizer_bits=0),
        dict(quantizer_bits=31),
        dict(rng_seed=-1),
        dict(rng_seed=2**64),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ChannelParams(**kwargs)

    @pytest.mark.parametrize("seed", [1.5, np.float64(1.0), True, False])
    def test_rejects_non_integer_seeds(self, seed):
        # The uint64 noise key would truncate a float seed; a bool is no integer.
        with pytest.raises(ValueError, match="rng_seed must be an integer"):
            ChannelParams(rng_seed=seed)

    @pytest.mark.parametrize("bits", [np.int64(16), np.uint8(16), np.int16(16)])
    def test_numpy_integer_quantizer_bits_give_the_same_capture(self, bits):
        params = ChannelParams(noise_sigma=0.05, quantizer_bits=bits)
        assert params.quantizer_bits == 16 and type(params.quantizer_bits) is int
        frames = make_carrier("gradient", 4, 4, 3)
        expected = transmit(frames, 30, ChannelParams(noise_sigma=0.05, quantizer_bits=16))
        assert transmit(frames, 30, params).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bits", [8.0, np.float64(8.0), 8.5, "8", True, np.bool_(True),
                                      None])
    def test_rejects_quantizer_bits_that_are_not_integers(self, bits):
        with pytest.raises(ValueError, match="^quantizer_bits must be an integer, got "):
            ChannelParams(quantizer_bits=bits)

    def test_numpy_integer_seed_keys_the_same_noise(self):
        frames = make_carrier("gradient", 4, 4, 3)
        big = ChannelParams(noise_sigma=0.05, rng_seed=np.uint64(2**64 - 1))
        assert big.rng_seed == 2**64 - 1 and type(big.rng_seed) is int
        expected = transmit(frames, 30, ChannelParams(noise_sigma=0.05, rng_seed=2**64 - 1))
        assert transmit(frames, 30, big).tobytes() == expected.tobytes()


def warp(frame, matrix):
    """Capture one frame through a noiseless head-on channel with this homography."""
    return transmit(frame[None], 30.0, ChannelParams(affine=matrix))[0]


class TestHomography:
    def test_apply_known_points(self):
        # A (2, -1) translation moves source pixel (x, y) to (x + 2, y - 1).
        frame = make_carrier("gradient", 16, 12, 1)[0]
        out = warp(frame, translation(2.0, -1.0))
        assert np.array_equal(out[0, 2], frame[1, 0])
        assert np.array_equal(out[3, 5], frame[4, 3])

    def test_projective_row_divides(self):
        # Scaling the whole matrix changes no projected point, so no pixel.
        frame = np.random.default_rng(1).integers(0, 256, (12, 16, 3), dtype=np.uint8)
        rotate = np.array([[0.96, -0.1, 2.2], [0.12, 0.97, -0.4], [0.002, 0.001, 1.0]])
        for c in (2.0, -0.5):
            assert np.array_equal(warp(frame, c * rotate), warp(frame, rotate))
        assert np.array_equal(warp(frame, 2.0 * identity_homography()), frame)

    def test_point_at_infinity_raises(self):
        # This pull homography sends row y = 1 of the output to w = 0.
        pull = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, -1.0]])
        frames = make_carrier("gradient", 8, 6, 1)
        with pytest.raises(ValueError, match="infinity"):
            transmit(frames, 30.0, ChannelParams(affine=np.linalg.inv(pull)))
        with pytest.raises(ValueError, match="infinity"):
            extract_signal(frames, homography=pull)

    def test_identity_warp_is_bit_exact(self):
        frame = make_carrier("gradient", 31, 17, 1)[0]
        assert np.array_equal(warp(frame, identity_homography()), frame)
        assert np.array_equal(extract_signal(frame[None], homography=np.eye(3)).values,
                              extract_signal(frame[None]).values)

    def test_integer_translation_shifts_content(self):
        frame = make_carrier("gradient", 16, 12, 1)[0]
        out = warp(frame, translation(3, 2))
        assert np.array_equal(out[2:, 3:], frame[:-2, :-3])
        # Pixels pulled from outside the source read as black.
        assert not out[:2, :].any()
        assert not out[:, :3].any()

    def test_doubling_scale_samples_even_grid_exactly(self):
        frame = make_carrier("gradient", 16, 12, 1)[0]
        matrix = np.diag([2.0, 2.0, 1.0])
        out = warp(frame, matrix)
        assert np.array_equal(out[0::2, 0::2], frame[:6, :8])

    def test_singular_matrix_raises(self):
        with pytest.raises(ValueError, match="singular"):
            ChannelParams(affine=np.zeros((3, 3)))
        with pytest.raises(ValueError, match="singular"):
            extract_signal(np.zeros((1, 2, 2, 3), dtype=np.uint8),
                           homography=np.zeros((3, 3)))


class TestTransmit:
    def test_head_on_one_meter_is_transparent(self):
        frames = make_carrier("gradient", 24, 18, 8)
        params = ChannelParams(geometry=ChannelGeometry(distance_m=1.0))
        assert np.array_equal(transmit(frames, 30.0, params), frames)

    def test_distance_halves_then_quarters_amplitude(self):
        frames = make_carrier("gray128", 16, 16, 4)
        base = transmit(frames, 30.0, ChannelParams())
        far = transmit(frames, 30.0, ChannelParams(
            geometry=ChannelGeometry(distance_m=2.0)))
        assert base[0, 0, 0, 0] == 128
        assert far[0, 0, 0, 0] == 32

    @pytest.mark.parametrize("bits", [8, 16])
    @pytest.mark.parametrize("distance_m", [1e-155, 1e-200, 1e200])
    def test_a_gain_that_is_no_finite_float_is_refused(self, bits, distance_m):
        # 1e-155 m overflows the gain to inf (NaN or garbage captures before),
        # 1e-200 m underflows d^2 to zero and 1e200 m overflows it.
        frames = make_carrier("gradient", 16, 12, 4)
        params = ChannelParams(geometry=ChannelGeometry(distance_m=distance_m),
                               noise_sigma=0.01, quantizer_bits=bits)
        with pytest.raises(ValueError, match="finite"):
            transmit(frames, 30.0, params)

    def test_same_seed_reproduces_noise_exactly(self):
        frames = make_carrier("gradient", 16, 12, 6)
        params = ChannelParams(noise_sigma=0.01, rng_seed=42)
        assert np.array_equal(transmit(frames, 30.0, params),
                              transmit(frames, 30.0, params))
        other = ChannelParams(noise_sigma=0.01, rng_seed=43)
        assert not np.array_equal(transmit(frames, 30.0, params),
                                  transmit(frames, 30.0, other))

    def test_noise_is_keyed_per_frame(self):
        # The first captures must not depend on how long the clip runs.
        short = make_carrier("gradient", 16, 12, 4)
        long = make_carrier("gradient", 16, 12, 9)
        params = ChannelParams(noise_sigma=0.01, rng_seed=7)
        out_short = transmit(short, 30.0, params)
        out_long = transmit(long, 30.0, params)
        assert np.array_equal(out_short, out_long[:4])

    def test_downsampling_picks_nearest_frame(self):
        # Frame k holds red value k; at half rate the captures see 1, 3, 5, ...
        frames = np.zeros((8, 4, 4, 3), dtype=np.uint8)
        for k in range(8):
            frames[k, :, :, 0] = k
        params = ChannelParams(camera_fps=15.0)
        out = transmit(frames, 30.0, params)
        assert out.shape[0] == 4
        assert out[:, 0, 0, 0].tolist() == [1, 3, 5, 7]

    def test_upsampling_repeats_frames(self):
        frames = np.zeros((3, 4, 4, 3), dtype=np.uint8)
        for k in range(3):
            frames[k, :, :, 0] = 10 * k
        params = ChannelParams(camera_fps=60.0)
        out = transmit(frames, 30.0, params)
        assert out[:, 0, 0, 0].tolist() == [0, 0, 10, 10, 20, 20]

    def test_sampling_guard(self):
        frames = make_carrier("gray128", 8, 8, 12)
        params = ChannelParams(camera_fps=9.0)
        with pytest.raises(SamplingRateError):
            transmit(frames, 30.0, params, symbol_rate=5.0)
        for rate in (math.nan, math.inf):
            with pytest.raises(ValueError, match="symbol_rate must be positive"):
                transmit(frames, 30.0, params, symbol_rate=rate)
        # Exactly twice the symbol rate is allowed.
        params = ChannelParams(camera_fps=10.0)
        assert transmit(frames, 30.0, params, symbol_rate=5.0).shape[0] == 4

    def test_output_stays_in_range_under_noise(self):
        frames = np.full((4, 8, 8, 3), 250, dtype=np.uint8)
        params = ChannelParams(noise_sigma=0.2, rng_seed=3)
        out = transmit(frames, 30.0, params)
        assert out.dtype == np.uint8

    def test_sixteen_bit_sensor_returns_grid_floats(self):
        frames = make_carrier("gradient", 8, 8, 2)
        params = ChannelParams(quantizer_bits=16,
                               geometry=ChannelGeometry(distance_m=3.0))
        out = transmit(frames, 30.0, params)
        assert out.dtype == np.float32
        scaled = out.astype(np.float64) * 65535
        assert np.allclose(scaled, np.round(scaled), atol=1e-6)

    def test_homography_is_applied(self):
        frames = make_carrier("gradient", 16, 12, 2)
        params = ChannelParams(affine=translation(4, 0))
        out = transmit(frames, 30.0, params)
        assert np.array_equal(out[0][:, 4:], frames[0][:, :-4])
        assert not out[0][:, :4].any()

    def test_perspective_warp_matches_bilinear_reference(self):
        frames = np.random.default_rng(4).integers(0, 256, (1, 12, 16, 3), dtype=np.uint8)
        affine = np.array([[0.94, 0.07, 1.1], [-0.05, 1.03, -0.6], [0.002, -0.0015, 1.0]])
        out = transmit(frames, 30.0, ChannelParams(affine=affine, quantizer_bits=16))[0]
        expected = bilinear_pull_reference(frames[0] / 255.0, np.linalg.inv(affine))
        # A 16-bit sensor rounds to within half a step of the resampled value.
        assert np.abs(out - expected).max() <= 0.5 / 65535 + 1e-9

    def test_near_identity_affine_is_still_warped(self):
        # A scale within np.allclose's default tolerance of the identity is a
        # real warp; extract_signal rectifies by it, so transmit must apply it.
        frames = np.random.default_rng(6).integers(0, 256, (1, 12, 16, 3), dtype=np.uint8)
        affine = np.diag([1.0 + 8e-6, 1.0, 1.0])
        out = transmit(frames, 30.0, ChannelParams(affine=affine, quantizer_bits=16))[0]
        plain = transmit(frames, 30.0, ChannelParams(quantizer_bits=16))[0]
        assert not np.array_equal(out, plain)
        expected = bilinear_pull_reference(frames[0] / 255.0, np.linalg.inv(affine))
        assert np.abs(out - expected).max() <= 0.5 / 65535 + 1e-9

    def test_affines_that_reach_past_the_frame_warp_quietly(self):
        # The determinant of diag(1e300, 1e300, 1) overflows, and its pull sends
        # every pixel but the first far outside the frame, where it reads black.
        # Tier-1's filterwarnings = error makes any numpy warning a failure.
        far = np.diag([1e300, 1e300, 1.0])
        frames = np.random.default_rng(8).integers(0, 256, (2, 12, 16, 3), dtype=np.uint8)
        # The forward warp pulls every pixel from within 1e-297 of the first.
        out = transmit(frames, 30.0, ChannelParams(affine=far))
        assert np.array_equal(out, np.broadcast_to(frames[:, :1, :1], frames.shape))
        values = extract_signal(frames, homography=far).values
        np.testing.assert_allclose(values, frames[:, 0, 0, 0] / 255.0 / 192, rtol=1e-15)
        _, weight = resampling_map(far, 12, 16)
        assert np.array_equal(weight.any(axis=0), np.arange(192) == 0)

    def test_a_pull_past_the_float_range_is_refused(self):
        frames = np.zeros((1, 12, 16, 3), dtype=np.uint8)
        with pytest.raises(ValueError, match="maps a pixel past the float range"):
            extract_signal(frames, homography=np.diag([1e308, 1e308, 1.0]))

    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    def test_each_weight_is_the_per_pixel_formula_bit_for_bit(self, seed):
        # Near a pixel edge a weight such as 1 - fy loses most of its digits,
        # so a coordinate's last bit sets its leading ones: the map must round
        # each coordinate as bilinear_pull_reference does, not as a BLAS
        # matrix product happens to. Pixel (3, 7) of the first pull has
        # 1 - fy = 3e-4; a matrix product put it 2.4e-12 apart in relative terms.
        height, width = 8, 4
        pull = np.eye(3) + np.array([
            [0.0, 0.0, 0.0],
            [0.030658860970932136, 0.00026357056418239706, 0.9117747775531666],
            [0.00026357056418239706, 0.0, 0.0]])
        if seed is not None:
            height, width = 24, 32
            rng = np.random.default_rng(seed)
            pull = np.eye(3) + np.array([[*rng.uniform(-0.05, 0.05, 2), rng.uniform(-2, 2)],
                                         [*rng.uniform(-0.05, 0.05, 2), rng.uniform(-2, 2)],
                                         [*rng.uniform(-1e-3, 1e-3, 2), 0.0]])
        index, weight = resampling_map(pull, height, width)
        rows = pull.tolist()
        for y in range(height):
            for x in range(width):
                u, v, s = (r[0] * x + r[1] * y + r[2] for r in rows)
                sx, sy = u / s, v / s
                x0, y0 = math.floor(sx), math.floor(sy)
                fx, fy = sx - x0, sy - y0
                corners = ((x0, y0, (1 - fx) * (1 - fy)), (x0 + 1, y0, fx * (1 - fy)),
                           (x0, y0 + 1, (1 - fx) * fy), (x0 + 1, y0 + 1, fx * fy))
                for k, (cx, cy, expected) in enumerate(corners):
                    valid = 0 <= cx < width and 0 <= cy < height
                    assert index[k, y * width + x] == (cy * width + cx if valid else 0)
                    assert weight[k, y * width + x] == (expected if valid else 0.0)


def numbered_clip(n):
    """n one-pixel display frames; frame i holds i in red (low byte) and green."""
    frames = np.zeros((n, 1, 1, 3), dtype=np.uint8)
    frames[:, 0, 0, 0] = np.arange(n) % 256
    frames[:, 0, 0, 1] = np.arange(n) // 256
    return frames


def shown_frames(n_in, display_fps, camera_fps):
    """Index of the display frame each capture of a numbered clip shows."""
    out = transmit(numbered_clip(n_in), display_fps, ChannelParams(camera_fps=camera_fps))
    return out[:, 0, 0, 0].astype(np.int64) + 256 * out[:, 0, 0, 1].astype(np.int64)


# Small exact rates, the NTSC rates, and floats, which stand for the binary
# values they hold.
CAPTURE_RATES = st.one_of(st.sampled_from([Fraction(30000, 1001), Fraction(24000, 1001)]),
                          st.fractions(1, 120, max_denominator=1001),
                          st.floats(1.0, 120.0))


class TestCaptureTiming:
    """Capture k shows the display frame on screen at (k + 1/2) / camera_fps,
    the later one when that instant is a frame boundary."""

    def test_boundary_instants_show_the_later_frame(self):
        # From 30 to 45 fps every third instant is a display-frame boundary.
        shown = shown_frames(130, 30, 45)
        assert shown.tolist() == [(2 * k + 1) * 30 // 90 for k in range(195)]
        # Float capture times would put capture 184 just before frame 123.
        assert shown[184] == 123

    def test_ntsc_display_to_30_fps_camera(self):
        # Float capture times would show the wrong frame from capture 11,511 on.
        display = Fraction(30000, 1001)
        shown = shown_frames(11_600, display, 30)
        assert len(shown) == capture_count_reference(11_600, display, 30) == 11_612
        assert shown.tolist() == [shown_frame_reference(k, display, 30, 11_600)
                                  for k in range(len(shown))]

    @settings(max_examples=100, deadline=None)
    @given(display=CAPTURE_RATES, camera=CAPTURE_RATES, n_in=st.integers(1, 60))
    def test_matches_integer_oracle_and_float_times_off_ties(self, display, camera, n_in):
        shown = shown_frames(n_in, display, camera)
        n_out = capture_count_reference(n_in, display, camera)
        assert shown.tolist() == [shown_frame_reference(k, display, camera, n_in)
                                  for k in range(n_out)]
        # Float capture times agree wherever they are not at a frame boundary.
        position = (np.arange(n_out) + 0.5) / float(camera) * float(display)
        clear = ~near_integer(position)
        assert np.array_equal(shown[clear], np.minimum(position.astype(np.int64),
                                                       n_in - 1)[clear])


def mean_red(frames):
    return float(extract_signal(frames, channel=Color.RED).values.mean())


class TestMeanReceivedAmplitude:
    def test_flat_field_amplitude(self):
        frames = make_carrier("gray128", 8, 8, 3)
        assert mean_red(frames) == pytest.approx(128 / 255)

    def test_inverse_square_ratios_on_fine_sensor(self):
        frames = make_carrier("gradient", 64, 48, 5)
        amplitudes = {}
        for d in (1.0, 2.0, 4.0):
            params = ChannelParams(geometry=ChannelGeometry(distance_m=d),
                                   quantizer_bits=16)
            amplitudes[d] = mean_red(transmit(frames, 30.0, params))
        assert amplitudes[1.0] / amplitudes[2.0] == pytest.approx(4.0, rel=0.01)
        assert amplitudes[2.0] / amplitudes[4.0] == pytest.approx(4.0, rel=0.01)

    def test_loglog_slope_is_minus_two_even_at_8_bits(self):
        frames = make_carrier("gradient", 64, 48, 5)
        distances = np.arange(1.0, 10.0)
        amplitudes = []
        for d in distances:
            params = ChannelParams(geometry=ChannelGeometry(distance_m=d))
            amplitudes.append(mean_red(transmit(frames, 30.0, params)))
        slope = np.polyfit(np.log10(distances), np.log10(amplitudes), 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.05)


def test_warped_noisy_capture_bytes_are_pinned():
    # Any change to the warp, the gain, the per-frame noise keying, the
    # resampling in time or the quantizer changes these bytes.
    frames = np.random.default_rng(5).integers(0, 256, (6, 18, 24, 3), dtype=np.uint8)
    affine = np.array([[0.95, 0.08, 1.3], [-0.06, 0.97, 0.7], [0.001, -0.0008, 1.0]])
    params = ChannelParams(geometry=ChannelGeometry(distance_m=1.5), noise_sigma=0.01,
                           affine=affine, camera_fps=24.0, rng_seed=3)
    digest = hashlib.sha256(transmit(frames, 30.0, params).tobytes()).hexdigest()
    assert digest == "f33f6b2055ca6f25127e3402717a7fa52b83cf87662f036575bcf84d063b9e13"


@pytest.mark.parametrize("settings, expected", [
    # The float32 quantizer path.
    (dict(quantizer_bits=16, rng_seed=3),
     "20dabcc5800fb57a54322a4ffb8c58aa8aa3eb86990c2cd0ffd1885620e1ce52"),
    # The largest seed: a Philox key word of 2**63 or more.
    (dict(rng_seed=2**64 - 1),
     "01e8d58545b215f9d7631ba06695332cf81e245618c8b69560052c65e504446c"),
])
def test_warped_noisy_capture_bytes_are_pinned_at_other_settings(settings, expected):
    # The clip and the homography of test_warped_noisy_capture_bytes_are_pinned.
    frames = np.random.default_rng(5).integers(0, 256, (6, 18, 24, 3), dtype=np.uint8)
    affine = np.array([[0.95, 0.08, 1.3], [-0.06, 0.97, 0.7], [0.001, -0.0008, 1.0]])
    params = ChannelParams(geometry=ChannelGeometry(distance_m=1.5), noise_sigma=0.01,
                           affine=affine, camera_fps=24.0, **settings)
    assert hashlib.sha256(transmit(frames, 30.0, params).tobytes()).hexdigest() == expected


def test_identity_noisy_capture_bytes_are_pinned():
    # The identity homography goes through the same sparse warp as any other;
    # these bytes were recorded when it still skipped the warp.
    frames = np.random.default_rng(8).integers(0, 256, (9, 20, 28, 3), dtype=np.uint8)
    params = ChannelParams(geometry=ChannelGeometry(distance_m=1.3), noise_sigma=0.02,
                           camera_fps=45.0, rng_seed=12)
    digest = hashlib.sha256(transmit(frames, 30.0, params).tobytes()).hexdigest()
    assert digest == "e6aa78e219a90a8436cc42cf0f990c4e744a8183346a35df8ab8e564d0bd23c1"


BLOCK_WALK_MATRICES = {
    "identity": identity_homography(),
    "near_identity": np.diag([1.0 + 8e-6, 1.0, 1.0]),
    "perspective": np.array([[0.95, -0.066, 2.7], [0.066, 0.95, -0.35],
                             [0.0002, -0.0001, 1.0]]),
}


def with_workers(cases):
    """Cross cases with forced thread counts 1, 2, 3 and 8; the one-thread
    case, which is how these tests ran before transmit used threads, keeps
    the id it had then."""
    return [pytest.param(*case, workers,
                         id="-".join(map(str, case)) + ("" if workers == 1
                                                        else f"-{workers}workers"))
            for case in cases for workers in (1, 2, 3, 8)]


@functools.cache
def reference_digest(clip, scaled, camera_fps, matrix, bits, noise, seed):
    """SHA-256, dtype and shape of transmit_reference's output, computed once
    for all forced thread counts."""
    frames = getattr(TestBlockWalk, clip)
    params = ChannelParams(geometry=ChannelGeometry(distance_m=1.4), noise_sigma=noise,
                           camera_fps=camera_fps, affine=BLOCK_WALK_MATRICES[matrix],
                           quantizer_bits=bits, rng_seed=seed)
    expected = transmit_reference(frames / 255.0 if scaled else frames, 30.0, params)
    return hashlib.sha256(expected.tobytes()).hexdigest(), expected.dtype, expected.shape


class TestBlockWalk:
    """transmit walks the clip in blocks of captures, which threads on separate
    cores take one at a time whatever the frame size; the per-capture loop it
    replaced (tests/reference.py) must give the same bytes at any thread count."""

    # 120 display frames of 24x32 at 24-60 fps give 96-240 captures: 4 to 9
    # blocks of 28 captures (2^16 values). 8 workers outnumber the blocks at 24 fps.
    CLIP = np.random.default_rng(21).integers(0, 256, (120, 24, 32, 3), dtype=np.uint8)

    @pytest.mark.parametrize("camera_fps, workers",
                             with_workers([(24.0,), (30.0,), (60.0,), (45.0,),
                                           (30000 / 1001,)]))
    @pytest.mark.parametrize("matrix", list(BLOCK_WALK_MATRICES))
    @pytest.mark.parametrize("bits", [8, 16])
    def test_matches_per_capture_loop(self, monkeypatch, camera_fps, workers, matrix, bits):
        monkeypatch.setattr(core_module, "_CORES", workers)
        # The largest 64-bit seed checks the rekeyed stream's uint64 key.
        for noise, seed in ((0.0, 17), (0.01, 17), (0.01, 2**64 - 1)):
            for scaled in (False, True):
                params = ChannelParams(geometry=ChannelGeometry(distance_m=1.4),
                                       noise_sigma=noise, camera_fps=camera_fps,
                                       affine=BLOCK_WALK_MATRICES[matrix],
                                       quantizer_bits=bits, rng_seed=seed)
                out = transmit(self.CLIP / 255.0 if scaled else self.CLIP, 30.0, params)
                assert out.size >= 3 * (1 << 16)
                digest, dtype, shape = reference_digest("CLIP", scaled, camera_fps,
                                                        matrix, bits, noise, seed)
                assert out.dtype == dtype
                assert out.shape == shape
                assert hashlib.sha256(out.tobytes()).hexdigest() == digest

    LARGE = np.random.default_rng(22).integers(0, 256, (4, 140, 160, 3), dtype=np.uint8)

    @pytest.mark.parametrize("camera_fps", [24.0, 60.0, 120.0])
    def test_frames_larger_than_a_block(self, camera_fps):
        # 160x140 pixels hold more than 2^16 values, so a block is the
        # captures of one display frame: 2 at 60 fps, 4 at 120 fps.
        params = ChannelParams(noise_sigma=0.01, camera_fps=camera_fps, rng_seed=2,
                               affine=BLOCK_WALK_MATRICES["perspective"])
        out = transmit(self.LARGE, 30.0, params)
        assert out.tobytes() == transmit_reference(self.LARGE, 30.0, params).tobytes()

    @pytest.mark.parametrize("clip, camera_fps, workers",
                             with_workers([("LARGE", 120.0), ("CLIP", 45.0)]))
    def test_each_shown_frame_converted_once(self, monkeypatch, clip, camera_fps, workers):
        # At 45 fps a display frame spans 1.5 captures, so fixed blocks of 28
        # captures would split some display frames between two blocks.
        frames = getattr(self, clip)
        params = ChannelParams(noise_sigma=0.01, camera_fps=camera_fps,
                               affine=BLOCK_WALK_MATRICES["perspective"])
        expected = transmit_reference(frames, 30.0, params)
        converted = []

        def counting_to_unit(pixels):
            converted.append(len(pixels))
            return to_unit(pixels)

        monkeypatch.setattr(core_module, "_CORES", workers)
        monkeypatch.setattr(channel_module, "to_unit", counting_to_unit)
        assert transmit(frames, 30.0, params).tobytes() == expected.tobytes()
        # The camera outruns the 30 fps display, so every display frame is shown.
        assert sum(converted) == len(frames)

    @staticmethod
    def count_executors(monkeypatch):
        """Force 8 cores and record the workers of each executor transmit opens."""
        opened = []

        def counting_executor(max_workers):
            opened.append(max_workers)
            return ThreadPoolExecutor(max_workers)

        monkeypatch.setattr(core_module, "_CORES", 8)
        monkeypatch.setattr(core_module, "ThreadPoolExecutor", counting_executor)
        return opened

    def test_one_block_calls_start_no_threads(self, monkeypatch):
        opened = self.count_executors(monkeypatch)
        params = ChannelParams(noise_sigma=0.01, camera_fps=24.0, rng_seed=5)
        # One capture of 160x140 is one block, and so are the 80 captures of
        # 100 frames of 16x12: a block holds 113 frames of 576 values.
        for clip in (self.LARGE[:1], make_carrier("gradient", 16, 12, 100)):
            assert transmit(clip, 30.0, params).tobytes() == \
                transmit_reference(clip, 30.0, params).tobytes()
        assert opened == []

    def test_small_frames_start_a_thread_per_block_up_to_the_cores(self, monkeypatch):
        opened = self.count_executors(monkeypatch)
        params = ChannelParams(noise_sigma=0.01, camera_fps=24.0, rng_seed=5)
        # The 240 captures of 300 frames of 16x12 are 3 blocks, and the 96
        # captures of CLIP 4: min(8, blocks) threads, of which the caller is one.
        for clip in (make_carrier("gradient", 16, 12, 300), self.CLIP):
            assert transmit(clip, 30.0, params).tobytes() == \
                transmit_reference(clip, 30.0, params).tobytes()
        assert opened == [2, 3]
        # 4 captures of 160x140 at the display's 24 fps are 4 blocks.
        transmit(self.LARGE, 24.0, params)
        assert opened == [2, 3, 3]

    # The frame size, rate and depth of each small benchmark link: long_payload,
    # the four camera rates of cli_batch, and sweep's 16-bit link. Each clip
    # is several blocks, so every forced thread count shares it out.
    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize("height, width, camera_fps, bits, n_in, matrix", [
        (12, 16, 30, 8, 400, "identity"),
        (24, 32, 30, 8, 120, "perspective"),
        (24, 32, 60, 8, 120, "perspective"),
        (24, 32, 24, 8, 120, "perspective"),
        (24, 32, Fraction(30000, 1001), 8, 120, "perspective"),
        (48, 64, 30, 16, 40, "perspective"),
    ])
    def test_small_benchmark_links_match_per_capture_loop(
            self, monkeypatch, workers, height, width, camera_fps, bits, n_in, matrix):
        monkeypatch.setattr(core_module, "_CORES", workers)
        clip = np.random.default_rng(23).integers(0, 256, (n_in, height, width, 3),
                                                  dtype=np.uint8)
        params = ChannelParams(noise_sigma=0.005, camera_fps=camera_fps,
                               affine=BLOCK_WALK_MATRICES[matrix], quantizer_bits=bits,
                               rng_seed=2**63 + 7)
        assert len(channel_module._plan(clip, 30, params, None).bounds) - 1 >= 3
        assert transmit(clip, 30, params).tobytes() == \
            transmit_reference(clip, 30, params).tobytes()

    def test_spans_hold_under_rapid_thread_switches(self, monkeypatch):
        # Threads share the output array, the warp and the blocks left to take;
        # switching threads every microsecond must not let one thread's writes
        # or draws reach another's blocks, nor two threads take one block.
        monkeypatch.setattr(core_module, "_CORES", 8)
        params = ChannelParams(noise_sigma=0.01, camera_fps=45.0, rng_seed=3,
                               affine=BLOCK_WALK_MATRICES["perspective"])
        expected = transmit_reference(self.CLIP, 30.0, params)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = transmit(self.CLIP, 30.0, params)
        finally:
            sys.setswitchinterval(interval)
        assert out.tobytes() == expected.tobytes()

    def test_worker_errors_reach_the_caller(self, monkeypatch):
        def failing_off_the_calling_thread(frames, bits):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("worker failed")
            return quantize_unit(frames, bits)

        monkeypatch.setattr(core_module, "_CORES", 2)
        monkeypatch.setattr(channel_module, "quantize_unit", failing_off_the_calling_thread)
        with pytest.raises(RuntimeError, match="worker failed"):
            transmit(self.CLIP, 30.0, ChannelParams())

    def test_free_thread_takes_the_blocks_of_a_stalled_one(self, monkeypatch):
        # While the worker sits on the first block it took, the caller takes
        # every other block; a split fixed in advance would leave the worker
        # its share and fail after the 10-s wait.
        monkeypatch.setattr(core_module, "_CORES", 2)
        params = ChannelParams(noise_sigma=0.01, camera_fps=30.0, rng_seed=4)
        caller_blocks = []
        others_done = threading.Event()

        def quantize_after_stall(frames, bits):
            if threading.current_thread() is threading.main_thread():
                caller_blocks.append(len(frames))
                if len(caller_blocks) == 4:
                    others_done.set()
            else:
                others_done.wait(timeout=10)
            return quantize_unit(frames, bits)

        monkeypatch.setattr(channel_module, "quantize_unit", quantize_after_stall)
        # 120 captures of 24x32 are 5 blocks of up to 28 captures.
        out = transmit(self.CLIP, 30.0, params)
        assert len(caller_blocks) >= 4
        assert out.tobytes() == transmit_reference(self.CLIP, 30.0, params).tobytes()

    def test_one_noise_generator_per_call(self, monkeypatch):
        # Two threads, whatever the host: a generator per capture would build
        # 40 for the short call and 400 for the long one.
        monkeypatch.setattr(core_module, "_CORES", 2)
        params = ChannelParams(noise_sigma=0.01, camera_fps=60.0, rng_seed=9)
        expected = transmit_reference(self.CLIP[:20], 30.0, params)
        philox = np.random.Philox
        built = []

        def counting_philox(*args, **kwargs):
            built.append(1)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting_philox)
        out = transmit(self.CLIP[:20], 30.0, params)
        assert len(out) == 40
        assert len(built) <= 2
        assert out.tobytes() == expected.tobytes()
        short_call = len(built)
        built.clear()
        assert len(transmit(np.concatenate([self.CLIP, self.CLIP[:80]]), 30.0, params)) == 400
        assert len(built) <= short_call


def flat_clip(n_in, height, width):
    """n_in black frames that share one pixel in memory: a layout costs no pixels."""
    return np.broadcast_to(np.zeros((1, 1, 1, 3), dtype=np.uint8), (n_in, height, width, 3))


# Every rate from 15 to 240 fps, the NTSC ones too.
LAYOUT_RATES = st.one_of(st.sampled_from([Fraction(30000, 1001), Fraction(24000, 1001),
                                          Fraction(60000, 1001)]),
                         st.fractions(15, 240, max_denominator=1001))


class TestBlockLayout:
    """transmit's blocks are every capture of a run of whole display frames."""

    # The frame size and the display and camera rates of each benchmark link:
    # warp_hd, long_payload, the four camera rates of cli_batch, and sweep.
    @pytest.mark.parametrize("height, width, camera_fps",
                             [(240, 320, 30), (12, 16, 30), (24, 32, 30), (24, 32, 60),
                              (24, 32, 24), (24, 32, Fraction(30000, 1001)), (48, 64, 30)])
    def test_benchmark_links_keep_the_earlier_blocks(self, height, width, camera_fps):
        params = ChannelParams(camera_fps=camera_fps)
        # Every clip length up to 400 frames, and long_payload's 12,768 frames.
        for n_in in [*range(1, 401), 12_768]:
            plan = channel_module._plan(flat_clip(n_in, height, width), 30, params, None)
            assert plan.bounds == block_bounds_reference(plan.shown, height, width), n_in

    @settings(max_examples=150, deadline=None)
    @given(display=LAYOUT_RATES, camera=LAYOUT_RATES, n_in=st.integers(1, 800),
           height=st.integers(1, 240), width=st.integers(1, 320))
    # The earlier layout put 32 captures, 73,728 values, in each block here.
    @example(display=30, camera=240, n_in=120, height=24, width=32)
    def test_blocks_are_runs_of_whole_frames_of_at_most_2_16_values(
            self, display, camera, n_in, height, width):
        plan = channel_module._plan(flat_clip(n_in, height, width), display,
                                    ChannelParams(camera_fps=camera), None)
        shown, bounds = plan.shown, plan.bounds
        assert bounds[0] == 0 and bounds[-1] == len(shown)
        assert all(start < end for start, end in zip(bounds[:-1], bounds[1:]))
        for start, end in zip(bounds[:-1], bounds[1:]):
            # A block starts with a display frame's first capture.
            assert start == 0 or shown[start] != shown[start - 1]
            frames = len(np.unique(shown[start:end]))
            assert (end - start) * 3 * height * width <= 1 << 16 or frames == 1
            assert plan.warps[frames].shape == (frames * height * width,) * 2


class TestWarpCache:
    """transmit builds its warp once per homography and frame size and keeps
    the last one; a kept warp gives the bytes a fresh one gives. Each test
    starts with no warp kept (tests/conftest.py)."""

    A = np.array([[0.95, 0.08, 1.3], [-0.06, 0.97, 0.7], [0.001, -0.0008, 1.0]])
    B = np.array([[1.02, -0.05, -0.9], [0.04, 0.99, 1.1], [-0.0012, 0.0007, 1.0]])
    CLIP = np.random.default_rng(31).integers(0, 256, (16, 18, 24, 3), dtype=np.uint8)

    def test_a_chunked_stream_builds_the_warp_once(self, monkeypatch):
        builds = []
        resampling_map = channel_module.resampling_map

        def counting_map(*args):
            builds.append(args)
            return resampling_map(*args)

        monkeypatch.setattr(channel_module, "resampling_map", counting_map)
        params = ChannelParams(affine=self.A, noise_sigma=0.01)
        for index, first in enumerate(range(0, 16, 2)):
            transmit(self.CLIP[first:first + 2], 30.0, replace(params, rng_seed=index))
        assert len(builds) == 1
        assert channel_module._warp_operator.cache_info().hits == 7

    def test_a_kept_warp_gives_the_bytes_of_a_fresh_one(self):
        params = ChannelParams(affine=self.A, noise_sigma=0.01, camera_fps=24.0, rng_seed=4)
        miss = transmit(self.CLIP, 30.0, params)
        hit = transmit(self.CLIP, 30.0, params)
        assert channel_module._warp_operator.cache_info().hits == 1
        assert hit.tobytes() == miss.tobytes()
        assert hit.tobytes() == transmit_reference(self.CLIP, 30.0, params).tobytes()

    def test_alternating_homographies_each_match_the_oracle(self):
        for affine in (self.A, self.B, self.A):
            params = ChannelParams(affine=affine, noise_sigma=0.01, rng_seed=9)
            out = transmit(self.CLIP, 30.0, params)
            assert out.tobytes() == transmit_reference(self.CLIP, 30.0, params).tobytes()
        # One warp is kept, so the second A cannot reuse the first.
        assert channel_module._warp_operator.cache_info().misses == 3

    def test_changing_the_matrix_in_place_rebuilds_the_warp(self):
        affine = self.A.copy()
        params = ChannelParams(affine=affine, quantizer_bits=16)
        assert params.affine is affine
        before = transmit(self.CLIP, 30.0, params)
        affine[0, 2] += 1.0
        after = transmit(self.CLIP, 30.0, params)
        assert after.tobytes() != before.tobytes()
        assert after.tobytes() == transmit_reference(self.CLIP, 30.0, params).tobytes()

    def test_the_kept_warp_is_read_only(self):
        transmit(self.CLIP[:1], 30.0, ChannelParams(affine=self.A))
        warp = channel_module._warp_operator(self.A.tobytes(), 18, 24, False)
        assert channel_module._warp_operator.cache_info().hits == 1
        for part in (warp.data, warp.indices, warp.indptr):
            assert not part.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            warp.data[0] = 2.0

    def test_only_the_last_warp_is_kept(self):
        for dx in range(20):
            transmit(self.CLIP[:1], 30.0, ChannelParams(affine=translation(dx, 0.5)))
        info = channel_module._warp_operator.cache_info()
        assert info.misses == 20
        assert info.currsize == 1


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), sigma=st.floats(0.001, 0.3))
def test_transmit_output_always_valid(seed, sigma):
    frames = make_carrier("gradient", 8, 6, 3)
    params = ChannelParams(noise_sigma=sigma, rng_seed=seed)
    out = transmit(frames, 30.0, params)
    assert out.dtype == np.uint8
    assert out.shape == frames.shape


@st.composite
def homographies(draw, width, height):
    """Warps whose weights are exactly 1, 0, 0, 0 (identity, whole-pixel shifts
    and flips), warps that leave sensor rows with no source pixel, and random
    mild perspectives."""
    kind = draw(st.sampled_from(["identity", "shift", "flip", "uncovered", "perspective"]))
    if kind == "identity":
        return identity_homography()
    if kind == "shift":
        return translation(draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
    if kind == "flip":  # x -> width - 1 - x, or y -> height - 1 - y
        axis = draw(st.integers(0, 1))
        matrix = identity_homography()
        matrix[axis, axis] = -1.0
        matrix[axis, 2] = (width, height)[axis] - 1
        return matrix
    if kind == "uncovered":  # rows past the shift, or below the stretch, read nothing
        matrix = translation(draw(st.floats(-1.0, 1.0)), draw(st.integers(1, height)))
        matrix[1, 1] = draw(st.floats(1.0, 3.0))
        return matrix
    small = st.floats(-0.2, 0.2)
    return np.array([[1.0 + draw(small), draw(small), draw(st.floats(-2.0, 2.0))],
                     [draw(small), 1.0 + draw(small), draw(st.floats(-2.0, 2.0))],
                     [draw(st.floats(-0.01, 0.01)), draw(st.floats(-0.01, 0.01)), 1.0]])


@st.composite
def channel_cases(draw):
    width, height = draw(st.integers(1, 16)), draw(st.integers(1, 12))
    display, camera = draw(st.sampled_from([(30, 24), (30, 45), (30, 60),
                                            (Fraction(30000, 1001), 30),
                                            (30, Fraction(30000, 1001))]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # A long clip of the larger frames spans several blocks, which threads share.
    n_in = draw(st.one_of(st.integers(1, 9), st.integers(100, 160)))
    clip = rng.integers(0, 256, (n_in, height, width, 3), dtype=np.uint8)
    if draw(st.booleans()):  # float pixels, some of them -0.0
        clip = clip / 255.0
        clip[rng.random(clip.shape) < 0.2] = -0.0
    if draw(st.booleans()):  # each frame stored column by column
        clip = clip.transpose(0, 2, 1, 3).copy().transpose(0, 2, 1, 3)
    params = ChannelParams(noise_sigma=draw(st.sampled_from([0.0, 0.01])),
                           affine=draw(homographies(width, height)), camera_fps=camera,
                           quantizer_bits=draw(st.sampled_from([8, 16])),
                           rng_seed=draw(st.integers(0, 2**64 - 1)))
    return clip, display, params


def received_blocks(clip, display, params, gains, plane):
    """Every block transmit_gains hands its receivers, in call order: block by
    block, each gain's after the one before it."""
    blocks = []
    assert transmit_gains(clip, display, params, [(gain, blocks.append) for gain in gains],
                          plane) is None
    return blocks


@settings(max_examples=200, deadline=None)
@given(case=channel_cases(), workers=st.sampled_from([1, 2, 8]))
def test_transmit_and_each_plane_of_transmit_gains_match_the_reference(case, workers):
    clip, display, params = case
    far = replace(params, geometry=ChannelGeometry(distance_m=1.7))
    expected = [transmit_reference(clip, display, p) for p in (params, far)]
    with mock.patch.object(core_module, "_CORES", workers):
        assert transmit(clip, display, params).tobytes() == expected[0].tobytes()
        for plane in Color:
            blocks = received_blocks(clip, display, params,
                                     [1.0, normalized_gain(far.geometry)], plane)
            for gain, reference in enumerate(expected):
                assert np.concatenate(blocks[gain::2]).tobytes() == \
                    reference[..., plane].tobytes()


class TestThreadedGains:
    """transmit_gains warps blocks and draws their noise on transmit's threads
    and applies the gains and runs the receivers on the caller, in capture order."""

    # 120 frames of 24x32: 5 blocks at 30 fps, 8 at 45 fps (TestBlockWalk.CLIP).
    CLIP = TestBlockWalk.CLIP

    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize("camera_fps, bits, noise", [(30.0, 8, 0.01), (45.0, 16, 0.01),
                                                         (60.0, 8, 0.0)])
    def test_each_plane_is_that_plane_of_transmit(self, monkeypatch, workers, camera_fps,
                                                  bits, noise):
        monkeypatch.setattr(core_module, "_CORES", workers)
        params = ChannelParams(noise_sigma=noise, camera_fps=camera_fps, quantizer_bits=bits,
                               affine=BLOCK_WALK_MATRICES["perspective"], rng_seed=2**64 - 9)
        assert len(channel_module._plan(self.CLIP, 30, params, None).bounds) - 1 >= 5
        far = replace(params, geometry=ChannelGeometry(distance_m=2.5))
        expected = [transmit(self.CLIP, 30.0, p) for p in (params, far)]
        assert expected[0].tobytes() == transmit_reference(self.CLIP, 30.0, params).tobytes()
        for plane in Color:
            blocks = received_blocks(self.CLIP, 30.0, params,
                                     [1.0, normalized_gain(far.geometry)], plane)
            for gain, reference in enumerate(expected):
                assert np.concatenate(blocks[gain::2]).tobytes() == \
                    reference[..., plane].tobytes()

    def test_a_worker_error_reaches_the_consumer(self, monkeypatch):
        def failing_off_the_calling_thread(frames):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("worker failed")
            return to_unit(frames)

        monkeypatch.setattr(core_module, "_CORES", 2)
        monkeypatch.setattr(channel_module, "to_unit", failing_off_the_calling_thread)
        with pytest.raises(RuntimeError, match="worker failed"):
            received_blocks(self.CLIP, 30.0, ChannelParams(noise_sigma=0.01), [1.0, 0.5],
                            Color.RED)

    @pytest.mark.parametrize("workers", [2, 8])
    def test_a_receiver_error_joins_every_worker(self, monkeypatch, workers):
        monkeypatch.setattr(core_module, "_CORES", workers)
        params = ChannelParams(noise_sigma=0.01, camera_fps=45.0)
        before = set(threading.enumerate())
        received = []

        def refuse(block):
            received.append((block, set(threading.enumerate()) - before))
            raise RuntimeError("receiver failed")

        with pytest.raises(RuntimeError, match="receiver failed"):
            try:
                transmit_gains(self.CLIP, 30.0, params, [(1.0, refuse), (0.5, refuse)],
                               Color.GREEN)
            finally:  # read while the error is in flight, before anything is collected
                left = set(threading.enumerate()) - before
        [(first, started)] = received
        assert started  # the workers ran ahead
        assert not left
        expected = transmit(self.CLIP, 30.0, params)[:len(first), ..., Color.GREEN]
        assert first.tobytes() == expected.tobytes()
