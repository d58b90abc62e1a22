import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brightlink.bfrs import (
    HEADER_SIZE,
    MAGIC,
    VERSION,
    BfrsFormatError,
    read_bfrs,
    write_bfrs,
)


def test_header_layout_is_frozen(tmp_path):
    frames = np.arange(6, dtype=np.uint8).reshape(1, 1, 2, 3)
    path = tmp_path / "tiny.bfrs"
    write_bfrs(path, frames, Fraction(30))
    data = path.read_bytes()
    expected_header = (b"BFRS" + struct.pack("<H", 1) + struct.pack("<I", 2)
                       + struct.pack("<I", 1) + struct.pack("<I", 30)
                       + struct.pack("<I", 1) + struct.pack("<I", 1))
    assert HEADER_SIZE == 26
    assert data[:26] == expected_header
    assert data[26:] == bytes(range(6))


def test_round_trip_preserves_frames_and_rational_rate(tmp_path):
    rng = np.random.default_rng(0)
    frames = rng.integers(0, 256, size=(5, 7, 11, 3), dtype=np.uint8)
    path = tmp_path / "clip.bfrs"
    write_bfrs(path, frames, Fraction(30000, 1001))
    got, fps = read_bfrs(path)
    assert np.array_equal(got, frames)
    assert fps == Fraction(30000, 1001)
    assert got.dtype == np.uint8


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 4), h=st.integers(1, 8), w=st.integers(1, 8),
       num=st.integers(1, 1000), den=st.integers(1, 1000))
def test_round_trip_property(tmp_path_factory, n, h, w, num, den):
    path = tmp_path_factory.mktemp("bfrs") / "clip.bfrs"
    frames = np.full((n, h, w, 3), 17, dtype=np.uint8)
    write_bfrs(path, frames, Fraction(num, den))
    got, fps = read_bfrs(path)
    assert got.shape == frames.shape
    assert fps == Fraction(num, den)


def test_write_and_read_hold_the_clip_at_most_once(tmp_path):
    frames = np.random.default_rng(0).integers(0, 256, size=(16, 240, 320, 3),
                                               dtype=np.uint8)
    path = tmp_path / "clip.bfrs"

    def traced_peak(fn, *args):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before

    tracemalloc.start()
    try:
        _, write_peak = traced_peak(write_bfrs, path, frames, Fraction(30))
        (got, _), read_peak = traced_peak(read_bfrs, path)
    finally:
        tracemalloc.stop()
    assert write_peak <= 0.1 * frames.nbytes
    assert read_peak <= 1.1 * frames.nbytes
    assert np.array_equal(got, frames)


class TestWriteValidation:
    def test_rejects_non_uint8(self, tmp_path):
        with pytest.raises(ValueError, match="uint8"):
            write_bfrs(tmp_path / "x.bfrs", np.zeros((1, 2, 2, 3)), Fraction(30))

    def test_rejects_bad_shape(self, tmp_path):
        with pytest.raises(ValueError, match="shape"):
            write_bfrs(tmp_path / "x.bfrs",
                       np.zeros((2, 2, 3), dtype=np.uint8), Fraction(30))

    def test_rejects_nonpositive_fps(self, tmp_path):
        with pytest.raises(ValueError, match="fps"):
            write_bfrs(tmp_path / "x.bfrs",
                       np.zeros((1, 2, 2, 3), dtype=np.uint8), Fraction(0))


    @pytest.mark.parametrize("fps, label", [(Fraction(2**32), "numerator"),
                                            (Fraction(1, 2**32), "denominator")])
    def test_rejects_a_rate_past_32_bits(self, tmp_path, fps, label):
        path = tmp_path / "x.bfrs"
        with pytest.raises(ValueError, match=f"^fps {label} 4294967296 does not fit in 32 bits$"):
            write_bfrs(path, np.zeros((1, 2, 2, 3), dtype=np.uint8), fps)
        assert not path.exists()


class TestReadValidation:
    def _valid_bytes(self):
        frames = np.zeros((2, 2, 2, 3), dtype=np.uint8)
        header = struct.pack("<4sHIIIII", MAGIC, VERSION, 2, 2, 30, 1, 2)
        return header + frames.tobytes()

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "x.bfrs"
        path.write_bytes(b"BFR")
        with pytest.raises(BfrsFormatError, match="header"):
            read_bfrs(path)

    def test_bad_magic(self, tmp_path):
        data = self._valid_bytes()
        path = tmp_path / "x.bfrs"
        path.write_bytes(b"JUNK" + data[4:])
        with pytest.raises(BfrsFormatError, match="magic"):
            read_bfrs(path)

    def test_unsupported_version(self, tmp_path):
        data = bytearray(self._valid_bytes())
        data[4:6] = struct.pack("<H", 9)
        path = tmp_path / "x.bfrs"
        path.write_bytes(bytes(data))
        with pytest.raises(BfrsFormatError, match="version"):
            read_bfrs(path)

    def test_zero_rate_rejected(self, tmp_path):
        data = bytearray(self._valid_bytes())
        data[18:22] = struct.pack("<I", 0)
        path = tmp_path / "x.bfrs"
        path.write_bytes(bytes(data))
        with pytest.raises(BfrsFormatError, match="frame rate"):
            read_bfrs(path)

    def test_size_mismatch(self, tmp_path):
        path = tmp_path / "x.bfrs"
        path.write_bytes(self._valid_bytes()[:-5])
        with pytest.raises(BfrsFormatError, match="bytes"):
            read_bfrs(path)

    def test_zero_dimensions_rejected(self, tmp_path):
        data = bytearray(self._valid_bytes())
        data[6:10] = struct.pack("<I", 0)
        path = tmp_path / "x.bfrs"
        path.write_bytes(bytes(data)[:HEADER_SIZE])
        with pytest.raises(BfrsFormatError, match="size"):
            read_bfrs(path)
