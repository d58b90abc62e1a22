import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brightlink import core as core_module
from brightlink.core import (
    MAX_SAFE_DEPTH,
    Color,
    ModulationParams,
    SymbolSeries,
    as_bits,
    bits_to_symbols,
    check_pixels,
    level_table,
    quantize_unit,
    run_tasks,
    symbols_to_bits,
    to_unit,
    validate_frames,
)
from reference import quantize_reference


def test_color_parse():
    assert Color.parse("red") is Color.RED
    assert Color.parse(" Blue ") is Color.BLUE
    assert Color.GREEN == 1
    with pytest.raises(ValueError, match="unknown color"):
        Color.parse("cyan")


class TestModulationParams:
    def test_defaults_give_paper_demo_rates(self):
        params = ModulationParams()
        assert params.bits_per_symbol == 1
        assert params.symbol_rate == 5.0
        assert params.bit_rate == 5.0

    def test_bit_rate_scales_with_alphabet(self):
        assert ModulationParams(m=4).bit_rate == 10.0
        assert ModulationParams(m=8).bit_rate == 15.0
        assert ModulationParams(m=2, symbol_duration_frames=3).bit_rate == 10.0

    @pytest.mark.parametrize("m", [0, 1, 3, 5, 6, 7, 12])
    def test_rejects_non_power_of_two_alphabet(self, m):
        with pytest.raises(ValueError, match="power of two"):
            ModulationParams(m=m)

    def test_rejects_visible_depth_without_override(self):
        with pytest.raises(ValueError, match="imperceptibility"):
            ModulationParams(depth=MAX_SAFE_DEPTH + 0.01)
        params = ModulationParams(depth=0.2, allow_visible_depth=True)
        assert params.depth == 0.2

    @pytest.mark.parametrize("field", ["m", "symbol_duration_frames"])
    @pytest.mark.parametrize("value", [np.int64(4), np.uint8(4), np.int32(4)])
    def test_integer_fields_take_numpy_integers(self, field, value):
        params = ModulationParams(**{field: value})
        assert getattr(params, field) == 4 and type(getattr(params, field)) is int
        assert params == ModulationParams(**{field: 4})

    @pytest.mark.parametrize("field", ["m", "symbol_duration_frames"])
    @pytest.mark.parametrize("value", [2.5, 4.0, np.float64(4.0), "4", True, False,
                                       np.bool_(True), None, Fraction(4)])
    def test_integer_fields_refuse_everything_else(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            ModulationParams(**{field: value})

    @pytest.mark.parametrize("kwargs", [
        dict(depth=0.0),
        dict(depth=-0.01),
        dict(depth=float("nan")),
        dict(symbol_duration_frames=0),
        dict(frame_rate=0.0),
        dict(frame_rate=float("inf")),
        dict(frame_rate=True),  # not a 1-fps display
        dict(frame_rate=False),
        dict(channel=0),  # a Color, not its index
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ModulationParams(**kwargs)


def test_as_bits_accepts_strings_lists_arrays():
    expected = np.array([1, 0, 1, 1], dtype=np.uint8)
    assert np.array_equal(as_bits("1011"), expected)
    assert np.array_equal(as_bits([1, 0, 1, 1]), expected)
    assert np.array_equal(as_bits(expected), expected)
    assert as_bits("").size == 0


@pytest.mark.parametrize("bad", ["102", "abc", [0, 2], [[1, 0]], [-1]])
def test_as_bits_rejects_non_bits(bad):
    with pytest.raises(ValueError):
        as_bits(bad)


@pytest.mark.parametrize("bits", [
    [True, False], np.array([True, False]), [0, 1, 1], np.array([1, 0], np.int8),
    np.array([0, 1], np.uint64), np.array([-1, 1], np.int16), [0.0, 1.0],
    np.array([0.0, -0.0, 1.0], np.float32), [0.5], [1.0, np.nan], [np.inf, 0.0],
    [2, 1], np.array([1, 0, 2], np.uint8), np.array(["0", "1"]),
])
def test_as_bits_gives_the_verdict_of_a_membership_test(bits):
    arr = np.asarray(bits)
    if np.isin(arr, (0, 1)).all():
        assert np.array_equal(as_bits(bits), arr.astype(np.uint8))
    else:
        with pytest.raises(ValueError, match="bits must contain only 0 and 1"):
            as_bits(bits)


def test_bits_to_symbols_groups_msb_first():
    m4 = ModulationParams(m=4)
    assert np.array_equal(bits_to_symbols("1011", m4), [2, 3])
    m16 = ModulationParams(m=16)
    assert np.array_equal(bits_to_symbols("1011", m16), [11])


def test_bits_to_symbols_pads_tail_with_zeros():
    m4 = ModulationParams(m=4)
    # 5 bits at 2 bits per symbol: the last symbol reads 1 then a pad 0.
    assert np.array_equal(bits_to_symbols("10111", m4), [2, 3, 2])
    assert bits_to_symbols("", m4).size == 0


def test_symbols_to_bits_rejects_out_of_range():
    params = ModulationParams(m=4)
    with pytest.raises(ValueError, match="symbol indices"):
        symbols_to_bits([0, 4], params)
    with pytest.raises(ValueError, match="symbol indices"):
        symbols_to_bits([-1], params)


def test_symbols_to_bits_rejects_more_than_one_dimension():
    with pytest.raises(ValueError, match=r"^symbols must be one-dimensional, got shape \(1, 2\)$"):
        symbols_to_bits([[0, 1]], ModulationParams())


def _all_bitstreams(max_len):
    for n in range(max_len + 1):
        for value in range(1 << n):
            yield np.array([(value >> (n - 1 - i)) & 1 for i in range(n)],
                           dtype=np.uint8)


@pytest.mark.parametrize("m", [2, 4, 8])
def test_bit_symbol_round_trip_exhaustive(m):
    # Every bitstream up to 12 bits survives the round trip (modulo tail padding).
    params = ModulationParams(m=m)
    k = params.bits_per_symbol
    for bits in _all_bitstreams(12):
        back = symbols_to_bits(bits_to_symbols(bits, params), params)
        pad = (-bits.size) % k
        padded = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
        assert np.array_equal(back, padded)


@given(bits=st.lists(st.integers(0, 1), max_size=300),
       m_exp=st.integers(1, 5))
def test_bit_symbol_round_trip_property(bits, m_exp):
    params = ModulationParams(m=2**m_exp)
    arr = np.array(bits, dtype=np.uint8)
    symbols = bits_to_symbols(arr, params)
    back = symbols_to_bits(symbols, params)
    assert back.size % params.bits_per_symbol == 0
    assert np.array_equal(back[:arr.size], arr)
    assert not back[arr.size:].any()


def test_symbol_levels_are_evenly_spaced_within_depth():
    m4 = ModulationParams(m=4, depth=0.03)
    assert np.allclose(level_table(m4), [1.0, 1.01, 1.02, 1.03])
    assert level_table(m4)[0] == 1.0
    ook = ModulationParams(m=2, depth=0.03)
    assert level_table(ook).tolist() == [1.0, 1.03]


def bad_float_frames():
    """Float frames with infinities, or one bad value after the first element."""
    for dtype in (np.float16, np.float32, np.float64):
        for value in (np.inf, -np.inf):
            yield np.full((4, 6, 3), value, dtype=dtype), "all", value
        for value in (np.inf, -np.inf, np.nan, 1.5, -0.1):
            frame = np.full((4, 6, 3), 0.5, dtype=dtype)
            frame[2, 4, 1] = value
            yield frame, "one", value


class TestFrameValidation:
    def test_accepts_uint8_and_unit_floats(self):
        u8 = np.zeros((4, 6, 3), dtype=np.uint8)
        assert validate_frames(u8[None]) is not None
        unit = np.full((4, 6, 3), 0.25)
        assert validate_frames(unit[None]) is not None
        assert validate_frames(np.stack([u8, u8])) is not None

    @pytest.mark.parametrize("bad", [
        np.zeros((4, 6), dtype=np.uint8),
        np.zeros((4, 6, 4), dtype=np.uint8),
        np.zeros((0, 6, 3), dtype=np.uint8),
        np.zeros((4, 6, 3), dtype=np.int32),
        np.full((4, 6, 3), 1.5),
        np.full((4, 6, 3), -0.1),
        np.full((4, 6, 3), float("nan")),
        *(pytest.param(frame, id=f"{frame.dtype}-{where}-{value}")
          for frame, where, value in bad_float_frames()),
    ])
    def test_rejects_bad_frames(self, bad):
        with pytest.raises(ValueError):
            validate_frames(bad[None])

    def test_rejects_bad_sequences(self):
        with pytest.raises(ValueError):
            validate_frames(np.zeros((4, 6, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            validate_frames(np.zeros((0, 4, 6, 3), dtype=np.uint8))


def test_to_unit_scales_uint8():
    frame = np.array([[[0, 128, 255]]], dtype=np.uint8)
    unit = to_unit(frame)
    assert np.allclose(unit, [[[0.0, 128 / 255, 1.0]]])
    passthrough = np.full((1, 1, 3), 0.5)
    assert to_unit(passthrough).dtype == np.float64


SPECIAL_FLOATS = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 0.5, 2.0]


def special_floats(dtype):
    info = np.finfo(dtype)
    one = np.array(1.0, dtype)
    return [*SPECIAL_FLOATS, info.smallest_subnormal, -info.smallest_subnormal,
            info.tiny, info.max, -info.max, np.nextafter(one, dtype(2)),
            np.nextafter(one, dtype(0)), -np.nextafter(one, dtype(0))]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dtype=st.sampled_from([np.float16, np.float32, np.float64]))
def test_float_pixels_get_the_verdict_of_two_comparisons(data, dtype):
    values = data.draw(st.lists(st.sampled_from(special_floats(dtype))
                                | st.floats(0.0, 1.0, width=np.finfo(dtype).bits),
                                min_size=1, max_size=12))
    arr = np.array(values, dtype)
    if data.draw(st.booleans()):  # the other byte order reads the same values
        arr = arr.astype(arr.dtype.newbyteorder())
    two_passes = bool(arr.min() >= 0.0 and arr.max() <= 1.0)
    if two_passes:
        assert check_pixels(arr) is arr
    else:
        with pytest.raises(ValueError, match=r"must be finite and lie in \[0, 1\]"):
            check_pixels(arr)


@pytest.mark.parametrize("value, accepted", [(0.5, True), (-0.0, True), (1.0, True),
                                             (1.5, False), (np.nan, False)])
def test_long_double_pixels_take_the_two_comparisons(value, accepted):
    arr = np.array([[0.25, value]], np.longdouble)
    if accepted:
        assert check_pixels(arr) is arr
    else:
        with pytest.raises(ValueError, match="must be finite"):
            check_pixels(arr)


class TestQuantizeUnit:
    def test_rounds_half_up_at_8_bits(self):
        values = np.array([[[0.0, 127.5 / 255, 1.0]]])
        out = quantize_unit(values, 8)
        assert out.dtype == np.uint8
        assert out.tolist() == [[[0, 128, 255]]]

    def test_sixteen_bit_grid_is_float(self):
        out = quantize_unit(np.full((1, 1, 3), 1 / 3), 16)
        assert out.dtype == np.float32
        assert np.allclose(out * 65535, np.round(out * 65535), atol=1e-3)

    def test_one_bit_snaps_to_extremes(self):
        out = quantize_unit(np.array([0.2, 0.5, 0.9]), 1)
        assert out.tolist() == [0.0, 1.0, 1.0]

    def test_rejects_bad_bit_depths(self):
        for bits in (0, 31, -1):
            with pytest.raises(ValueError, match="quantizer bits"):
                quantize_unit(np.zeros(1), bits)

    @staticmethod
    def assert_matches_reference(values, bits):
        out = quantize_unit(values, bits)
        expected = quantize_reference(values, bits)
        assert out.dtype == (np.uint8 if bits == 8 else np.float32) == expected.dtype
        assert out.shape == values.shape
        assert out.tobytes() == expected.tobytes()

    @staticmethod
    def around(values):
        """values and their float neighbours on both sides, in values' dtype."""
        return np.concatenate([np.nextafter(values, values.dtype.type(-np.inf)), values,
                               np.nextafter(values, values.dtype.type(np.inf))])

    @pytest.mark.parametrize("bits", range(1, 17))
    def test_every_half_step_matches_the_reference(self, bits):
        # Each value that a capture rounds at, (j + 1/2) / levels, and the
        # floats next to it, from above the top level to below the bottom.
        levels = (1 << bits) - 1
        self.assert_matches_reference(
            self.around((np.arange(-1, levels + 1) + 0.5) / levels), bits)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), bits=st.integers(1, 30),
           dtype=st.sampled_from([np.float64, np.float32]))
    def test_matches_the_reference(self, data, bits, dtype):
        levels = (1 << bits) - 1
        steps = data.draw(st.lists(st.integers(-1, levels), min_size=1, max_size=8))
        outside = data.draw(st.lists(st.floats(-1e6, -0.0) | st.floats(1.0, 1e6)
                                     | st.sampled_from([-np.inf, np.inf]), max_size=4))
        inside = data.draw(st.lists(st.floats(0.0, 1.0), max_size=4))
        values = np.concatenate([self.around((np.array(steps, dtype) + dtype(0.5))
                                             / dtype(levels)),
                                 np.array(outside + inside, dtype)])
        self.assert_matches_reference(values.reshape(-1, 1, 1), bits)


def test_symbol_series_validation():
    series = SymbolSeries(np.array([0.1, 0.2]), sample_rate=30.0)
    assert len(series) == 2
    with pytest.raises(ValueError, match="finite"):
        SymbolSeries(np.array([0.1, float("nan")]), sample_rate=30.0)
    with pytest.raises(ValueError, match="sample_rate"):
        SymbolSeries(np.array([0.1]), sample_rate=0.0)
    with pytest.raises(ValueError, match="one-dimensional"):
        SymbolSeries(np.zeros((2, 2)), sample_rate=1.0)


class TestRunTasks:
    """run_tasks yields results in task order however many threads work them."""

    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize("ahead", [None, 1])
    def test_each_task_once_and_results_in_order(self, monkeypatch, workers, ahead):
        # More threads than cores, switching every microsecond: a task taken
        # twice, or a result yielded out of turn, fails the checks.
        monkeypatch.setattr(core_module, "_CORES", workers)
        made, ran = [], []

        def make_work():
            made.append(threading.get_ident())

            def work(task):
                ran.append(task)
                return task, float(np.sum(np.full(1000, task)))
            return work

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            found = list(run_tasks(range(300), make_work, ahead))
        finally:
            sys.setswitchinterval(interval)
        assert found == [(task, 1000.0 * task) for task in range(300)]
        assert sorted(ran) == list(range(300))
        # Each thread makes its work function once.
        assert len(made) == len(set(made)) <= workers

    def test_no_task_is_taken_ahead_per_thread_past_the_one_yielded(self, monkeypatch):
        monkeypatch.setattr(core_module, "_CORES", 3)
        taken = []

        def work(task):
            taken.append(task)
            time.sleep(0.001)
            return task

        reach = []
        for head in run_tasks(range(30), lambda: work, ahead=1):
            time.sleep(0.005)  # a slow consumer lets the workers run ahead
            reach.append(max(taken) - head)
        assert max(reach) == 3

    def test_a_worker_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(core_module, "_CORES", 2)

        def work(task):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("worker failed")
            time.sleep(0.001)
            return task

        with pytest.raises(RuntimeError, match="worker failed"):
            list(run_tasks(range(20), lambda: work))

    def test_one_task_runs_on_the_caller(self, monkeypatch):
        monkeypatch.setattr(core_module, "_CORES", 8)
        threads = []

        def work(task):
            threads.append(threading.current_thread())
            return task

        assert list(run_tasks([7], lambda: work)) == [7]
        assert threads == [threading.main_thread()]
