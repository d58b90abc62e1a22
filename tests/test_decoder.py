import dataclasses
import functools
import hashlib
import re
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from brightlink import core as core_module
from brightlink import decoder as decoder_module
from brightlink.channel import (
    ChannelGeometry,
    ChannelParams,
    SamplingRateError,
    identity_homography,
    transmit,
)
from brightlink.analysis import _decision_error_estimate, distance_sweep
from brightlink.core import (Color, ModulationParams, SymbolSeries, as_bits, bits_to_symbols,
                             symbols_to_bits)
from brightlink.decoder import (
    MIN_SYNC_CORRELATION,
    SYNC_PEAK_TOLERANCE,
    DegenerateLevelsError,
    FramingError,
    LevelEstimate,
    SyncError,
    SyncResult,
    bit_error_rate,
    decide_symbols,
    decode_frames,
    decode_series,
    StagedSignal,
    deframe,
    estimate_levels,
    extract_block_frames,
    extract_signal,
    received_frames_per_symbol,
    synchronize,
    _window_correlation,
)
from brightlink.encoder import encode_stream, frame_payload, frames_needed, make_carrier
from reference import (
    bilinear_pull_reference,
    central_window_reference,
    correlation_reaches_reference,
    decode_series_reference,
    extract_reference,
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

    @pytest.mark.parametrize("region", [(0.9, 0, 3.7, 3), (0, 0, 3.0, 3),
                                        (np.float64(0), 0, 3, 3), (0, "0", 3, 3),
                                        (True, 0, 3, 3), (0, 0, 3, None)])
    def test_region_values_must_be_integers(self, region):
        frames = np.random.default_rng(3).integers(0, 256, (2, 4, 4, 3), dtype=np.uint8)
        with pytest.raises(ValueError, match="^region value must be an integer, got "):
            extract_signal(frames, region=region)

    def test_numpy_integer_regions_crop_as_python_ones(self):
        frames = np.random.default_rng(3).integers(0, 256, (2, 4, 5, 3), dtype=np.uint8)
        expected = extract_signal(frames, region=(1, 0, 3, 2)).values
        for region in ((np.int64(1), np.uint8(0), np.int32(3), 2), np.array([1, 0, 3, 2])):
            assert extract_signal(frames, region=region).values.tobytes() == expected.tobytes()

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

    @pytest.mark.parametrize("dtype, warped, digest", [
        (np.float32, True, "84c8dfe5e0a2a623ec39f114622cd34ddbfffcfbb162e4576babb659c1c1d73c"),
        (np.float64, False, "806d50793bc6075f0e76a1c89925447cd052c8ea66dac83669f243035e6edf19"),
    ], ids=["float32_warped", "float64"])
    def test_float_clips_keep_their_bytes(self, dtype, warped, digest):
        # 16-bit captures arrive as float32. Recorded while uint8 pixels were
        # divided by 255 one at a time; float pixels are never divided, so
        # their samples keep these bytes. The clip spans two blocks. float64
        # was recorded again once its blocks, too, were reduced from a
        # contiguous copy by BLAS, as StagedSignal reduces them in any grouping;
        # before, a strided float64 view went through numpy's own loop.
        # float32_warped was recorded again once resampling_map rounded each
        # coordinate term by term, not through a BLAS matrix product: 195 of
        # its 360 samples moved, by at most 4.4e-16 in relative terms.
        frames = np.random.default_rng(17).random((360, 24, 32, 3), dtype=dtype)
        kwargs = (dict(homography=TestRectifyCache.A, region=(3, 2, 25, 19),
                       channel=Color.GREEN) if warped else {})
        values = extract_signal(frames, **kwargs).values
        assert hashlib.sha256(values.tobytes()).hexdigest() == digest

    def test_a_float_clip_has_its_pixels_checked_once(self, monkeypatch):
        checked = []
        check_pixels = core_module.check_pixels

        def counting_check(arr):
            checked.append(arr.size)
            return check_pixels(arr)

        monkeypatch.setattr(core_module, "check_pixels", counting_check)
        monkeypatch.setattr(decoder_module, "check_pixels", counting_check)
        frames = np.random.default_rng(8).random((360, 24, 32, 3), dtype=np.float32)
        assert len(frames) > extract_block_frames(24, 32)
        extract_signal(frames, homography=TestRectifyCache.A, region=(3, 2, 25, 19))
        assert checked == [frames.size]

    @pytest.mark.parametrize("rate", [0, -30, math.inf, math.nan, "30", None])
    def test_a_bad_sample_rate_fails_before_any_frame_is_reduced(self, rate, monkeypatch):
        reduced = []
        monkeypatch.setattr(decoder_module, "_block_samples",
                            lambda *args: reduced.append(args))
        frames = np.random.default_rng(9).integers(0, 256, (40, 12, 16, 3), dtype=np.uint8)
        with pytest.raises(ValueError, match="^sample_rate must be positive and finite"):
            extract_signal(frames, sample_rate=rate)
        with pytest.raises(ValueError, match="^sample_rate must be positive and finite"):
            StagedSignal(sample_rate=rate)
        assert reduced == []


class TestRectifyCache:
    """extract_signal builds its weight image once per homography, frame size
    and region and keeps the last one; kept weights give the values fresh
    ones give. Each test starts with no weights kept (tests/conftest.py)."""

    A = np.array([[0.97, -0.06, 1.4], [0.05, 0.95, -0.8], [0.0015, -0.001, 1.0]])
    B = np.array([[1.03, 0.04, -1.1], [-0.02, 1.01, 0.6], [-0.001, 0.0012, 1.0]])
    REGION = (2, 1, 11, 9)
    CLIP = np.random.default_rng(12).integers(0, 256, (16, 12, 16, 3), dtype=np.uint8)

    def expected(self, frames, pull):
        x, y, w, h = self.REGION
        return [bilinear_pull_reference(frame / 255.0, pull)[y:y + h, x:x + w, 0].mean()
                for frame in frames]

    def test_a_chunked_stream_builds_the_weights_once(self, monkeypatch):
        builds = []
        resampling_map = decoder_module.resampling_map

        def counting_map(*args):
            builds.append(args)
            return resampling_map(*args)

        monkeypatch.setattr(decoder_module, "resampling_map", counting_map)
        for first in range(0, 16, 2):
            extract_signal(self.CLIP[first:first + 2], homography=self.A, region=self.REGION)
        assert len(builds) == 1
        assert decoder_module._rectify_weights.cache_info().hits == 7

    def test_kept_weights_give_the_values_of_fresh_ones(self):
        miss = extract_signal(self.CLIP, homography=self.A, region=self.REGION).values
        hit = extract_signal(self.CLIP, homography=self.A, region=self.REGION).values
        assert decoder_module._rectify_weights.cache_info().hits == 1
        assert hit.tobytes() == miss.tobytes()
        np.testing.assert_allclose(hit, self.expected(self.CLIP, self.A), rtol=0.0, atol=1e-12)

    def test_alternating_homographies_each_match_the_oracle(self):
        frames = self.CLIP[:3]
        for pull in (self.A, self.B, self.A):
            series = extract_signal(frames, homography=pull, region=self.REGION)
            np.testing.assert_allclose(series.values, self.expected(frames, pull),
                                       rtol=0.0, atol=1e-12)
        assert decoder_module._rectify_weights.cache_info().misses == 3

    def test_changing_the_matrix_in_place_rebuilds_the_weights(self):
        frames = self.CLIP[:3]
        pull = self.A.copy()
        before = extract_signal(frames, homography=pull, region=self.REGION).values
        pull[0, 2] += 1.0
        after = extract_signal(frames, homography=pull, region=self.REGION).values
        assert not np.array_equal(after, before)
        np.testing.assert_allclose(after, self.expected(frames, pull), rtol=0.0, atol=1e-12)

    def test_a_new_region_rebuilds_the_weights(self):
        extract_signal(self.CLIP[:1], homography=self.A, region=self.REGION)
        whole = extract_signal(self.CLIP[:1], homography=self.A)
        assert decoder_module._rectify_weights.cache_info().misses == 2
        expected = bilinear_pull_reference(self.CLIP[0] / 255.0, self.A)[..., 0].mean()
        assert whole.values[0] == pytest.approx(expected, rel=0.0, abs=1e-12)

    def test_the_kept_weights_are_read_only(self):
        extract_signal(self.CLIP[:1], homography=self.A, region=self.REGION)
        weights = decoder_module._rectify_weights(self.A.tobytes(), 12, 16, self.REGION)
        assert decoder_module._rectify_weights.cache_info().hits == 1
        assert not weights.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            weights[0] = 1.0

    def test_only_the_last_weights_are_kept(self):
        for dx in range(20):
            pull = identity_homography()
            pull[0, 2] = dx / 4
            extract_signal(self.CLIP[:1], homography=pull)
        info = decoder_module._rectify_weights.cache_info()
        assert info.misses == 20
        assert info.currsize == 1


class TestExtractMatchesExactMeans:
    """A uint8 sample is the weighted sum of the raw pixel values divided by 255
    once, not a sum of pixels divided one at a time; both give the exact mean
    of the rectified region up to float64 rounding. StagedSignal, in any
    grouping, gives extract_signal's samples bit for bit for every dtype."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_uint8_and_float_clips_match_the_oracle(self, data):
        height, width = data.draw(st.integers(1, 24)), data.draw(st.integers(1, 32))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        shape = (data.draw(st.integers(1, 5)), height, width, 3)
        dtype = data.draw(st.sampled_from([np.uint8, np.float32, np.float64]))
        frames = (rng.integers(0, 256, shape, dtype=np.uint8) if dtype is np.uint8
                  else rng.random(shape, dtype=dtype))
        # Near the identity: a small linear part, a shift of a few pixels and
        # a slight perspective.
        small = st.floats(-0.05, 0.05)
        pull = np.eye(3) + np.array([
            [data.draw(small), data.draw(small), data.draw(st.floats(-2.0, 2.0))],
            [data.draw(small), data.draw(small), data.draw(st.floats(-2.0, 2.0))],
            [data.draw(st.floats(-1e-3, 1e-3)), data.draw(st.floats(-1e-3, 1e-3)), 0.0]])
        x, y = data.draw(st.integers(0, width - 1)), data.draw(st.integers(0, height - 1))
        region = (x, y, data.draw(st.integers(1, width - x)),
                  data.draw(st.integers(1, height - y)))
        color = data.draw(st.sampled_from(Color))

        def extract(clip):
            return extract_signal(clip, homography=pull, region=region,
                                  channel=color).values
        values = extract(frames)
        np.testing.assert_allclose(values, extract_reference(frames, pull, region, color),
                                   rtol=1e-13, atol=0.0)
        signal = StagedSignal(pull, region)
        sizes = data.draw(st.lists(st.integers(0, len(frames)), max_size=3))
        edges = [0, *sorted(sizes), len(frames)]
        for start, stop in zip(edges[:-1], edges[1:]):
            signal.add(frames[start:stop, :, :, color])
        assert signal.series().values.tobytes() == values.tobytes()
        if dtype is np.uint8:
            np.testing.assert_allclose(extract(frames / 255.0), values, rtol=1e-13, atol=0.0)


class TestStagedSignal:
    """The streaming reducer of one colour plane gives extract_signal's samples
    bit for bit, however its captures are grouped."""

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    def test_extract_signal_reduces_the_clip_where_it_lies(self, monkeypatch, dtype):
        # Two whole stages and half of one: each is reduced straight from the
        # caller's clip, the remainder too, never copied into the stage first.
        step = extract_block_frames(16, 24)
        rng = np.random.default_rng(7)
        frames = rng.integers(0, 256, (2 * step + step // 2, 16, 24, 3), dtype=np.uint8)
        if dtype is np.float64:
            frames = frames / 255.0
        signal = StagedSignal(TestRectifyCache.A)
        signal.add(frames[..., Color.GREEN])
        block_samples = decoder_module._block_samples
        from_clip = []

        def spying_block_samples(planes, weights):
            from_clip.append(np.shares_memory(planes, frames))
            return block_samples(planes, weights)

        monkeypatch.setattr(decoder_module, "_block_samples", spying_block_samples)
        values = extract_signal(frames, TestRectifyCache.A, channel=Color.GREEN).values
        assert from_clip == [True, True, True]
        assert values.tobytes() == signal.series().values.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_any_grouping_matches_extract_signal(self, data):
        height, width = data.draw(st.integers(6, 24)), data.draw(st.integers(6, 24))
        step = extract_block_frames(height, width)
        # Blocks smaller than, about as long as and longer than a stage.
        # Zero-length blocks among them, which change nothing.
        sizes = data.draw(st.lists(st.integers(0, 8) | st.integers(step - 2, step + 2)
                                   | st.integers(1, 2 * step + 1), min_size=1, max_size=5))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        shape = (sum(sizes), height, width, 3)
        dtype = data.draw(st.sampled_from([np.uint8, np.float32, np.float64]))
        frames = (rng.integers(0, 256, shape, dtype=np.uint8) if dtype is np.uint8
                  else rng.random(shape, dtype=dtype))
        x, y = data.draw(st.integers(0, width - 1)), data.draw(st.integers(0, height - 1))
        region = data.draw(st.none() | st.tuples(st.just(x), st.just(y),
                                                 st.integers(1, width - x),
                                                 st.integers(1, height - y)))
        color = data.draw(st.sampled_from(Color))
        views = data.draw(st.booleans())
        signal = StagedSignal(TestRectifyCache.A, region, Fraction(30000, 1001))
        edges = np.cumsum([0, *sizes])
        for start, stop in zip(edges[:-1], edges[1:]):
            block = frames[start:stop, :, :, color]
            signal.add(block if views else block.copy())

        def whole():
            return extract_signal(frames, homography=TestRectifyCache.A, region=region,
                                  channel=color, sample_rate=Fraction(30000, 1001))
        if not len(frames):
            with pytest.raises(ValueError) as refused:
                whole()
            with pytest.raises(ValueError) as streamed:
                signal.series()
            assert str(streamed.value) == str(refused.value)
            return
        got, expected = signal.series(), whole()
        assert got.sample_rate == expected.sample_rate
        assert got.values.tobytes() == expected.values.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, -0.5, 1.5, np.inf, -np.inf])
    def test_values_are_refused_as_validate_frames_refuses_them(self, bad):
        for dtype in (np.float16, np.float32, np.float64):
            frames = np.full((2, 4, 4, 3), 0.5, dtype=dtype)
            frames[1, 2, 3, 1] = bad
            with pytest.raises(ValueError) as whole:
                extract_signal(frames)
            signal = StagedSignal()
            signal.add(frames[:1, :, :, 1])
            with pytest.raises(ValueError) as streamed:
                signal.add(frames[1:, :, :, 1])
            assert str(streamed.value) == str(whole.value)
            # In one block, the bad value comes after its first element.
            with pytest.raises(ValueError) as at_once:
                StagedSignal().add(frames[:, :, :, 1])
            assert str(at_once.value) == str(whole.value)

    def test_a_stream_of_no_captures_is_refused_as_extract_signal_refuses_it(self):
        with pytest.raises(ValueError) as whole:
            extract_signal(np.zeros((0, 4, 4, 3), dtype=np.float32))
        assert str(whole.value) == "frame sequence must contain at least one frame"
        for blocks in ([], [np.zeros((0, 4, 4), np.float32)],
                       [np.zeros((0, 4, 4), np.uint8)] * 2):
            signal = StagedSignal()
            for block in blocks:
                signal.add(block)
            with pytest.raises(ValueError) as streamed:
                signal.series()
            assert str(streamed.value) == str(whole.value)

    @pytest.mark.parametrize("dtype", [np.uint8, np.float16, np.float32, np.float64])
    def test_a_zero_length_block_changes_nothing(self, dtype):
        rng = np.random.default_rng(5)
        planes = rng.integers(0, 256, (7, 5, 6), dtype=np.uint8)
        if dtype != np.uint8:
            planes = (planes / 255).astype(dtype)
        empty = planes[:0]
        plain, padded = StagedSignal(), StagedSignal()
        plain.add(planes)
        for block in (empty, planes[:3], empty, empty.copy(), planes[3:], empty):
            padded.add(block)
        assert padded.series().values.tobytes() == plain.series().values.tobytes()
        other = np.float32 if dtype == np.uint8 else np.uint8
        for block in (np.zeros((0, 5, 7), dtype), np.zeros((0, 5, 6), other),
                      np.zeros((0, 5, 6, 1), dtype)):
            with pytest.raises(ValueError, match="one frame size and dtype"):
                padded.add(block)

    @pytest.mark.parametrize("shape", [(2, 0, 4), (2, 4, 0), (1, 0, 0)])
    def test_frames_of_no_pixels_are_refused_as_extract_signal_refuses_them(self, shape):
        with pytest.raises(ValueError, match="frames must be at least 1x1"):
            extract_signal(np.zeros((*shape, 3), np.uint8))
        # A block of no captures is refused too, since its frames have no pixels.
        for block in (shape, (0, *shape[1:])):
            for dtype in (np.uint8, np.float32):
                with pytest.raises(ValueError, match=r"frames must be at least 1x1, got "
                                                     + re.escape(str(block))):
                    StagedSignal().add(np.zeros(block, dtype))

    def test_a_stream_binds_its_weights_once(self, monkeypatch):
        checks = []
        check_homography = decoder_module.check_homography

        def counting_check(*args):
            checks.append(args)
            return check_homography(*args)

        monkeypatch.setattr(decoder_module, "check_homography", counting_check)
        # 12 blocks over three full stages of 64 captures and a last one of 7.
        sizes = [1, 0, 50, 64, 63, 2, 9, 3, 5, 1, 0, 1]
        frames = np.random.default_rng(6).integers(0, 256, (sum(sizes), 64, 64, 3),
                                                   dtype=np.uint8)
        assert extract_block_frames(64, 64) == 64 and len(frames) == 3 * 64 + 7
        signal = StagedSignal(TestRectifyCache.A, TestRectifyCache.REGION)
        edges = np.cumsum([0, *sizes])
        for start, stop in zip(edges[:-1], edges[1:]):
            signal.add(frames[start:stop, :, :, 0])
        assert len(signal.values) == 3 and signal.filled == 7
        got = signal.series()
        info = decoder_module._rectify_weights.cache_info()
        assert (len(checks), info.hits + info.misses) == (1, 1)
        expected = extract_signal(frames, homography=TestRectifyCache.A,
                                  region=TestRectifyCache.REGION)
        assert got.values.tobytes() == expected.values.tobytes()

    @pytest.mark.parametrize("homography, region", [
        (np.zeros((3, 3)), None),
        (np.diag([1.0, 1.0, np.nan]), None),
        (np.eye(4), None),
        (None, (2, 2, 4, 4)),
        (None, (0, 0, 0, 2)),
        (None, (0.9, 0, 3.7, 3)),
        (np.zeros((3, 3)), (-1, 0, 2, 2)),
    ], ids=["singular", "not_finite", "not_3x3", "outside", "empty", "not_integers",
            "both"])
    def test_a_bad_homography_or_region_fails_at_the_first_block(self, homography,
                                                                  region):
        frames = np.random.default_rng(4).integers(0, 256, (3, 4, 4, 3), dtype=np.uint8)
        with pytest.raises(ValueError) as whole:
            extract_signal(frames, homography=homography, region=region)
        signal = StagedSignal(homography, region)
        with pytest.raises(ValueError) as streamed:
            signal.add(frames[:2, :, :, 0])
        assert str(streamed.value) == str(whole.value)
        assert (signal.stage, signal.filled, signal.values) == (None, 0, [])

    def test_blocks_of_another_size_or_dtype_are_refused(self):
        signal = StagedSignal()
        signal.add(np.zeros((3, 4, 4), dtype=np.uint8))
        for block in (np.zeros((1, 4, 5), np.uint8), np.zeros((1, 4, 4), np.float32),
                      np.zeros((1, 4, 4, 3), np.uint8)):
            with pytest.raises(ValueError, match="one frame size and dtype"):
                signal.add(block)


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

    def test_a_camera_at_half_the_symbol_rate_sees_a_degenerate_template(self):
        # At half a capture per symbol every capture lands in an odd symbol,
        # so the +/-1 template is constant.
        params = ModulationParams(symbol_duration_frames=1)
        series = SymbolSeries(np.zeros(200), sample_rate=15.0)
        with pytest.raises(SyncError, match="^degenerate preamble template$"):
            synchronize(series, params, camera_fps=15.0)

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


class TestSyncResult:
    @pytest.mark.parametrize("value", [5.0, np.float64(5.0), True, Fraction(5)])
    @pytest.mark.parametrize("name", ["offset", "n_samples"])
    def test_offset_and_length_must_be_integers(self, name, value):
        fields = {"offset": 5, "frames_per_symbol": 6, "n_samples": 120, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SyncResult(**fields)

    def test_numpy_integers_are_taken_as_python_ints(self):
        sync = SyncResult(offset=np.int64(5), frames_per_symbol=6, n_samples=np.uint16(120))
        assert type(sync.offset) is int and type(sync.n_samples) is int
        assert sync == SyncResult(offset=5, frames_per_symbol=6, n_samples=120)
        assert np.array_equal(sync.windows, SyncResult(5, 6, 120).windows)

    def test_a_negative_length_is_refused(self):
        with pytest.raises(ValueError, match="n_samples must not be negative"):
            SyncResult(offset=0, frames_per_symbol=6, n_samples=-1)

    @pytest.mark.parametrize("offset", [2**63, -2**63, -1, 121])
    def test_an_offset_outside_the_trace_is_refused(self, offset):
        with pytest.raises(ValueError, match=rf"offset {offset} falls outside \[0, 120\]"):
            SyncResult(offset=offset, frames_per_symbol=6, n_samples=120)

    def test_the_window_table_is_built_once_and_read_only(self):
        sync = SyncResult(offset=3, frames_per_symbol=Fraction(30000, 1001), n_samples=200)
        assert sync.windows is sync.windows
        assert sync.windows.shape == (2, 8) and sync.windows.dtype == np.int64
        with pytest.raises(ValueError, match="read-only"):
            sync.windows[0, 0] = 1

    def test_stages_refuse_a_trace_of_another_length(self):
        series = make_preamble_series(OOK, r=6.0, offset=9)
        sync = synchronize(series, OOK, camera_fps=30.0)
        assert sync.n_samples == len(series)
        levels = estimate_levels(series, sync, OOK)
        for n in (len(series) - 1, len(series) + 1):
            other = SymbolSeries(np.resize(series.values, n), sample_rate=30.0)
            with pytest.raises(ValueError, match=f"trace of {len(series)} samples, not {n}"):
                estimate_levels(other, sync, OOK)
            with pytest.raises(ValueError, match=f"trace of {len(series)} samples, not {n}"):
                decide_symbols(other, sync, levels, OOK)


class TestEstimateLevels:
    def test_recovers_clean_levels(self):
        series = make_preamble_series(OOK, r=6.0, offset=9, high=0.8, low=0.2)
        sync = SyncResult(offset=9, frames_per_symbol=6.0, n_samples=len(series))
        levels = estimate_levels(series, sync, OOK)
        assert levels.mu1 == pytest.approx(0.8)
        assert levels.mu0 == pytest.approx(0.2)
        assert levels.sigma == pytest.approx(0.0, abs=1e-12)
        assert levels.thresholds.tolist() == [pytest.approx(0.5)]

    def test_sigma_estimates_sample_noise(self):
        series = make_preamble_series(OOK, r=8.0, offset=0, noise=0.01, seed=2)
        sync = SyncResult(offset=0, frames_per_symbol=8.0, n_samples=len(series))
        levels = estimate_levels(series, sync, OOK)
        assert levels.sigma == pytest.approx(0.01, rel=0.5)

    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_one_sample_windows_pool_the_means_about_their_level(self, r):
        series = make_preamble_series(OOK, r=r, offset=3, noise=0.01, seed=4)
        sync = SyncResult(offset=3, frames_per_symbol=r, n_samples=len(series))
        start, stop = sync.windows_of(series)[:, :16]
        assert (stop - start == 1).all()
        levels = estimate_levels(series, sync, OOK)
        samples = series.values[start]
        assert levels.mu1 == samples[0::2].mean() and levels.mu0 == samples[1::2].mean()
        deviations = np.concatenate([samples[0::2] - levels.mu1, samples[1::2] - levels.mu0])
        assert levels.sigma == pytest.approx(math.sqrt(np.sum(deviations**2) / 14), rel=1e-12)
        assert levels.sigma == pytest.approx(0.01, rel=0.5)

    def test_interpolates_intermediate_levels(self):
        qask = ModulationParams(m=4)
        series = make_preamble_series(qask, r=6.0, offset=0, high=0.9, low=0.3)
        sync = SyncResult(offset=0, frames_per_symbol=6.0, n_samples=len(series))
        levels = estimate_levels(series, sync, qask)
        assert np.allclose(levels.level_means, [0.3, 0.5, 0.7, 0.9])
        assert np.allclose(levels.thresholds, [0.4, 0.6, 0.8])

    def test_flat_signal_is_degenerate(self):
        series = SymbolSeries(np.full(120, 0.5), sample_rate=30.0)
        sync = SyncResult(offset=0, frames_per_symbol=6.0, n_samples=len(series))
        with pytest.raises(DegenerateLevelsError):
            estimate_levels(series, sync, OOK)


class TestDecideSymbols:
    def test_clean_four_level_decisions(self):
        qask = ModulationParams(m=4)
        sent = [0, 3, 1, 2, 3, 0, 2, 1]
        values = np.repeat([0.2 + 0.2 * s for s in sent], 4)
        series = SymbolSeries(values, sample_rate=30.0)
        sync = SyncResult(offset=0, frames_per_symbol=4.0, n_samples=len(series))
        levels = LevelEstimate(mu0=0.2, mu1=0.8, sigma=0.0,
                               level_means=np.array([0.2, 0.4, 0.6, 0.8]),
                               thresholds=np.array([0.3, 0.5, 0.7]))
        assert decide_symbols(series, sync, levels, qask).tolist() == sent

    def test_tie_on_threshold_goes_high(self):
        values = np.array([0.5, 0.5, 0.49, 0.49, 0.51, 0.51])
        series = SymbolSeries(values, sample_rate=30.0)
        sync = SyncResult(offset=0, frames_per_symbol=2.0, n_samples=len(series))
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
        sync = SyncResult(offset=0, frames_per_symbol=1.0, n_samples=len(series))
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
    # Both sides read bit strings and lists as every payload argument does.
    assert bit_error_rate("1110", [1, 0, 1, 0]) == 0.25


@pytest.mark.parametrize("bad", [[1, -1, 0], [0, 2], [0.5, 1], "10x1", [[0, 1]]])
def test_bit_error_rate_refuses_what_is_not_bits(bad):
    # A -1 once wrapped to 255 and counted as one differing bit.
    for decoded, reference in ((bad, "101"), ("101", bad)):
        with pytest.raises(ValueError, match="bit"):
            bit_error_rate(decoded, reference)


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
        # A reference payload reads bit strings and lists as a sent payload does.
        for reference, ber in (("1010 1010 1010 1010", 0.0), ("1010101010101011", 1 / 16),
                               (list(payload[:8]), 0.5)):
            again = decode_frames(captured, params, 30.0, reference_payload=reference)
            assert again.ber_vs_reference == ber

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

    @pytest.mark.parametrize("frames_per_symbol, noise", [(2, 0.02), (2, 0.005),
                                                          (3, 0.02), (6, 0.005)])
    def test_sigma_is_the_region_noise_at_every_window_width(self, frames_per_symbol,
                                                             noise):
        # At 30 -> 30 fps, 2 frames per symbol put one capture in each central
        # window. The region mean of 32x24 8-bit pixels has noise
        # sqrt(noise**2 + step**2 / 12) / sqrt(768), 7.23e-4 at noise 0.02.
        payload = as_bits("1010110011110000" * 4)
        params = ModulationParams(m=2, symbol_duration_frames=frames_per_symbol)
        carrier = make_carrier("gradient", 32, 24, frames_needed(64, params))
        sent = encode_stream(payload, carrier, params)
        sigmas = []
        for seed in range(40):
            captured = transmit(sent, 30.0, ChannelParams(noise_sigma=noise, rng_seed=seed))
            report = decode_frames(captured, params, 30.0, reference_payload=payload)
            assert report.crc_ok and report.levels.sigma > 0.0
            sigmas.append(report.levels.sigma)
        expected = math.sqrt(noise**2 + (1 / 255) ** 2 / 12) / math.sqrt(32 * 24)
        assert np.mean(sigmas) == pytest.approx(expected, rel=0.1)

    def test_unmodulated_carrier_fails_sync(self):
        frames = make_carrier("gray128", 16, 12, 200)
        with pytest.raises(SyncError):
            decode_frames(frames, OOK, 30.0)

    def test_singular_homography_rejected(self):
        frames = make_carrier("gray128", 8, 8, 600)
        with pytest.raises(ValueError, match="singular"):
            decode_frames(frames, OOK, 30.0, homography=np.zeros((3, 3)))


WARP = np.array([[0.95, -0.066, 2.7], [0.066, 0.95, -0.35], [0.0002, -0.0001, 1.0]])


class TestDecodeSeries:
    """decode_frames is extract_signal followed by decode_series."""

    @pytest.mark.parametrize("m, camera_fps, homography, region", [
        (4, 30.0, WARP, (8, 6, 48, 36)),
        (8, Fraction(30000, 1001), None, None),
    ], ids=["warped_region", "ntsc"])
    def test_decode_frames_is_extract_then_decode_series(self, m, camera_fps,
                                                         homography, region):
        params = ModulationParams(m=m, symbol_duration_frames=5, depth=0.09)
        payload = as_bits("110100111000101101011001")
        carrier = make_carrier("gradient", 64, 48, frames_needed(payload.size, params))
        channel = ChannelParams(noise_sigma=0.002, camera_fps=camera_fps, rng_seed=9,
                                affine=identity_homography() if homography is None
                                else homography)
        captured = transmit(encode_stream(payload, carrier, params), params.frame_rate,
                            channel)
        whole = decode_frames(captured, params, camera_fps, homography=homography,
                              region=region, reference_payload=payload)
        series = extract_signal(captured, homography=homography, region=region,
                                channel=params.channel, sample_rate=camera_fps)
        staged = decode_series(series, params, camera_fps, reference_payload=payload)
        assert whole.crc_ok and whole.ber_vs_reference == 0.0
        for field in dataclasses.fields(whole):
            got, expected = getattr(staged, field.name), getattr(whole, field.name)
            if field.name == "series":
                assert got.sample_rate == expected.sample_rate
                got, expected = got.values, expected.values
            if field.name == "levels":
                assert (got.mu0, got.mu1, got.sigma) == (expected.mu0, expected.mu1,
                                                         expected.sigma)
                assert np.array_equal(got.level_means, expected.level_means)
                got, expected = got.thresholds, expected.thresholds
            if isinstance(expected, np.ndarray):
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected), field.name
            else:
                assert got == expected, field.name


@pytest.fixture
def window_builds(monkeypatch):
    """The SyncResults whose window table is built, one entry per build."""
    builds = []
    build = SyncResult.__dict__["windows"].func

    def counted(sync):
        builds.append(sync)
        return build(sync)

    spy = functools.cached_property(counted)
    spy.__set_name__(SyncResult, "windows")
    monkeypatch.setattr(SyncResult, "windows", spy)
    return builds


class TestReceivePath:
    """The stages called in turn, as the benchmark's receiver calls them."""

    @pytest.mark.parametrize("m, camera_fps, homography, region", [
        (4, 30.0, WARP, (8, 6, 48, 36)),
        (8, Fraction(30000, 1001), None, None),
    ], ids=["warped_region", "ntsc"])
    def test_stages_in_turn_are_decode_series_with_one_table(self, window_builds, m,
                                                             camera_fps, homography,
                                                             region):
        params = ModulationParams(m=m, symbol_duration_frames=5, depth=0.09)
        payload = as_bits("110100111000101101011001")
        carrier = make_carrier("gradient", 64, 48, frames_needed(payload.size, params))
        channel = ChannelParams(noise_sigma=0.002, camera_fps=camera_fps, rng_seed=9,
                                affine=identity_homography() if homography is None
                                else homography)
        captured = transmit(encode_stream(payload, carrier, params), params.frame_rate,
                            channel)
        series = extract_signal(captured, homography=homography, region=region,
                                channel=params.channel, sample_rate=camera_fps)
        whole = decode_series(series, params, camera_fps, reference_payload=payload)
        assert whole.crc_ok and window_builds == [whole.sync]

        sync = synchronize(series, params, camera_fps)
        levels = estimate_levels(series, sync, params)
        symbols = decide_symbols(series, sync, levels, params)
        got, crc_ok = deframe(symbols_to_bits(symbols, params), params)
        assert symbols.dtype == whole.symbols.dtype
        assert np.array_equal(symbols, whole.symbols)
        assert np.array_equal(got, whole.payload) and crc_ok == whole.crc_ok
        assert window_builds == [whole.sync, sync]

        # A sweep row decodes once and predicts pe_theory from the same table.
        del window_builds[:]
        result = distance_sweep([1.0, 1.2, 1.5], payload, carrier, params, channel,
                                region=region)
        assert all(row.error is None for row in result.rows)
        assert len(window_builds) == len(result.rows)


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
    @given(r=RATES, offset=st.integers(0, 60), n_samples=st.integers(0, 400))
    def test_central_windows_match_reference(self, r, offset, n_samples):
        assume(offset <= n_samples)
        start, stop = SyncResult(offset=offset, frames_per_symbol=r,
                                 n_samples=n_samples).windows
        for j in range(start.size):
            assert np.array_equal(np.arange(start[j], stop[j]),
                                  central_window_reference(offset, r, j, n_samples))
        # The table runs through the first symbol that starts past the end of
        # the trace.
        assert stop[-1] == start[-1]
        assert central_window_reference(offset, r, start.size, n_samples).size == 0

    @settings(max_examples=100, deadline=None)
    @given(r=EXACT_RATES, offset=st.integers(0, 60), n_samples=st.integers(0, 400))
    def test_central_windows_are_exact(self, r, offset, n_samples):
        assume(offset <= n_samples)
        start, stop = SyncResult(offset=offset, frames_per_symbol=r,
                                 n_samples=n_samples).windows
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
        if lead_in > len(series):  # a trace cut inside its lead-in
            with pytest.raises(ValueError, match=f"offset {lead_in} falls outside"):
                SyncResult(offset=lead_in, frames_per_symbol=r, n_samples=len(series))
            return
        sync = SyncResult(offset=lead_in, frames_per_symbol=r, n_samples=len(series))
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
        if dof == 0:  # one sample per window: each mean about its level
            pooled = np.array([mean - (mu0 if j % 2 else mu1) for j, mean in enumerate(means)])
            dof = 14
        sigma = math.sqrt(np.sum(pooled**2) / dof)
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
    # Noiseless, cut inside the preamble: window 0 correlates exactly 0.5, the
    # floor; the oracle rounds it to 0.49999999999999994, the receiver to 0.5000000000000001.
    @example(link=(2.4453125, 20, link_trace(2.4453125, 20, np.zeros(0, dtype=int), 4,
                                             tail=-17, noise=0.0, seed=0)))
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
        # A window within rounding of the floor is a tie that float rounding
        # may settle either way; exact arithmetic settles it.
        found = peak >= MIN_SYNC_CORRELATION + 1e-9 or any(
            correlation_reaches_reference(series.values, template, k, MIN_SYNC_CORRELATION)
            for k in np.nonzero(corr > MIN_SYNC_CORRELATION - 1e-9)[0])
        if not found:
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


# Camera rates against the 30-fps display: NTSC and film as exact Fractions and
# as the floats they round to, which convert exactly and so carry denominators
# near 2**52 (the Python-integer path of the window bounds).
TIMELINE_CAMERA_RATES = st.sampled_from([Fraction(30000, 1001), 30000 / 1001,
                                         Fraction(24000, 1001), 24000 / 1001,
                                         Fraction(24), Fraction(45)])


class TestSymbolTimelineOracle:
    """decode_series and the sweep's prediction against the earlier receiver,
    which rebuilt each stage's windows in Fraction arithmetic (reference.py)."""

    @settings(max_examples=150, deadline=None)
    @given(camera_fps=TIMELINE_CAMERA_RATES, frames=st.integers(1, 20),
           m=st.sampled_from([2, 4, 8]), bits=st.lists(st.integers(0, 1), max_size=24),
           lead_in=st.integers(0, 40), tail=st.integers(-20, 30),
           noise=st.floats(0.0, 0.05), seed=st.integers(0, 2**32 - 1))
    def test_decode_series_matches_the_per_stage_oracle(self, camera_fps, frames, m,
                                                        bits, lead_in, tail, noise, seed):
        params = ModulationParams(m=m, symbol_duration_frames=frames)
        r = received_frames_per_symbol(params, camera_fps)
        payload = as_bits(np.array(bits, dtype=np.uint8))
        framed = bits_to_symbols(frame_payload(payload, params), params)
        values = link_trace(float(r), lead_in, framed[16:], m, tail, noise, seed).values
        series = SymbolSeries(values, camera_fps)
        try:
            expected = decode_series_reference(series, params, camera_fps, payload)
        except (SyncError, DegenerateLevelsError, FramingError) as exc:
            with pytest.raises(type(exc)):
                decode_series(series, params, camera_fps, reference_payload=payload)
            return
        got = decode_series(series, params, camera_fps, reference_payload=payload)
        assert got.sync.offset == expected.sync.offset
        assert got.sync.frames_per_symbol == expected.sync.frames_per_symbol
        for name in ("mu0", "mu1", "sigma"):
            assert getattr(got.levels, name) == getattr(expected.levels, name), name
        for name in ("level_means", "thresholds"):
            assert np.array_equal(getattr(got.levels, name), getattr(expected.levels, name))
        for name in ("symbols", "payload"):
            assert getattr(got, name).dtype == getattr(expected, name).dtype
            assert np.array_equal(getattr(got, name), getattr(expected, name)), name
        assert got.crc_ok == expected.crc_ok
        assert got.ber_vs_reference == expected.ber_vs_reference
        assert _decision_error_estimate(got) == expected.pe_theory


class TestNoFalseAccept:
    """A trace that holds no intact message never decodes with crc_ok = true.

    Each trace ends in SyncError, DegenerateLevelsError or FramingError, or
    decodes with crc_ok = false. Any fallback the receiver tries after the
    nominal decode must keep this, on the same traces."""

    SEEDS = range(200)

    @staticmethod
    def outcome(series, params, camera_fps):
        """The error type a decode raises, or its crc_ok."""
        try:
            return decode_series(series, params, camera_fps).crc_ok
        except (SyncError, DegenerateLevelsError, FramingError) as exc:
            return type(exc)

    @pytest.mark.parametrize("camera_fps", [30, 24])
    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_carrier_only_traces(self, m, camera_fps):
        params = ModulationParams(m=m)
        r = float(received_frames_per_symbol(params, camera_fps))
        # A lead-in of minus the whole preamble, less one sample, leaves every
        # sample after the last symbol: the bottom level, which is the bare
        # carrier, plus noise, for tail - 1 samples.
        lead_in = -math.ceil(16 * r) - 1
        outcomes = []
        for seed in self.SEEDS:
            rng = np.random.default_rng(seed)
            series = link_trace(r, lead_in, np.zeros(0, dtype=int), m,
                                tail=int(rng.integers(2, 601)),
                                noise=float(rng.uniform(0.0, 0.05)), seed=seed)
            outcomes.append(self.outcome(SymbolSeries(series.values, camera_fps), params,
                                         camera_fps))
        assert True not in outcomes

    @pytest.mark.parametrize("camera_fps", [30, 24])
    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_valid_header_with_random_payload_and_crc(self, m, camera_fps):
        params = ModulationParams(m=m)
        r = float(received_frames_per_symbol(params, camera_fps))
        outcomes = []
        for seed in self.SEEDS:
            rng = np.random.default_rng(seed)
            length = int(rng.integers(0, 65))
            # The preamble and the 32-bit length field of a length-bit payload,
            # then length + 32 random bits in place of the payload and its CRC.
            framed = frame_payload(np.zeros(length, dtype=np.uint8), params)
            framed[-length - 32:] = rng.integers(0, 2, length + 32)
            symbols = bits_to_symbols(framed, params)[16:]
            series = link_trace(r, int(rng.integers(0, 40)), symbols, m,
                                tail=int(rng.integers(-10, 30)),
                                noise=float(rng.uniform(0.0, 0.02)), seed=seed)
            outcomes.append(self.outcome(SymbolSeries(series.values, camera_fps), params,
                                         camera_fps))
        assert True not in outcomes
        # Most traces reach the CRC check, so the test checks the CRC itself.
        assert outcomes.count(False) > len(outcomes) // 2
