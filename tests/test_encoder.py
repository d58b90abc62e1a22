import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brightlink.core import Color, ModulationParams, as_bits
from brightlink.encoder import (
    BUILTIN_CARRIERS,
    CRC_BITS,
    LENGTH_BITS,
    MAX_PAYLOAD_BITS,
    PREAMBLE_SYMBOLS,
    CarrierTooShortError,
    bits_to_bytes,
    crc32_bits,
    encode_stream,
    frame_payload,
    frames_needed,
    make_carrier,
    preamble_bits,
    preamble_symbols,
)
from reference import crc32_reference, encode_stream_reference, pack_bits_reference

OOK = ModulationParams(m=2)
QASK = ModulationParams(m=4)


def test_preamble_alternates_top_and_bottom_symbols():
    assert preamble_symbols(OOK).tolist() == [1, 0] * 8
    assert preamble_symbols(QASK).tolist() == [3, 0] * 8
    assert "".join(map(str, preamble_bits(OOK))) == "10" * 8
    assert "".join(map(str, preamble_bits(QASK))) == "1100" * 8


def test_bits_to_bytes_packs_msb_first():
    assert bits_to_bytes("10101010") == b"\xaa"
    assert bits_to_bytes("1") == b"\x80"
    assert bits_to_bytes("") == b""


@given(bits=st.lists(st.integers(0, 1), max_size=200))
def test_bits_to_bytes_matches_reference(bits):
    assert bits_to_bytes(np.array(bits, dtype=np.uint8)) == pack_bits_reference(bits)


def test_crc32_known_vector():
    # Published CRC-32 check value for the ASCII digits 1-9.
    bits = np.unpackbits(np.frombuffer(b"123456789", dtype=np.uint8))
    value = int("".join(map(str, crc32_bits(bits))), 2)
    assert value == 0xCBF43926


@given(bits=st.lists(st.integers(0, 1), max_size=200))
def test_crc32_matches_bitwise_reference(bits):
    value = int("".join(map(str, crc32_bits(bits))), 2)
    assert value == crc32_reference(pack_bits_reference(bits))


def test_frame_payload_layout():
    payload = as_bits("1010101010101010")
    framed = frame_payload(payload, OOK)
    assert framed.size == PREAMBLE_SYMBOLS + LENGTH_BITS + 16 + CRC_BITS == 96
    assert np.array_equal(framed[:16], preamble_bits(OOK))
    length_field = framed[16:48]
    assert int("".join(map(str, length_field)), 2) == 16
    assert np.array_equal(framed[48:64], payload)
    assert np.array_equal(framed[64:], crc32_bits(payload))


def test_frame_payload_scales_with_alphabet():
    framed = frame_payload(as_bits("1010101010101010"), QASK)
    # 32 preamble bits for the 4-level alphabet, header fields unchanged.
    assert framed.size == 32 + LENGTH_BITS + 16 + CRC_BITS == 112


def test_frame_payload_empty_payload():
    framed = frame_payload(as_bits(""), OOK)
    assert framed.size == 16 + LENGTH_BITS + CRC_BITS
    assert int("".join(map(str, framed[16:48])), 2) == 0


def symbol_frames(value, params, payload=""):
    """Encode onto a flat carrier of one value, one frame per symbol."""
    params = ModulationParams(m=params.m, depth=params.depth, channel=params.channel,
                              symbol_duration_frames=1)
    carrier = np.full((frames_needed(len(payload), params), 2, 3, 3), value,
                      dtype=np.uint8)
    return encode_stream(payload, carrier, params)


class TestApplyLevel:
    # The preamble starts with the top symbol (m - 1), then the bottom one (0).
    def test_rounds_half_up_and_leaves_other_planes(self):
        out = symbol_frames(128, OOK)
        # 128 * 1.03 = 131.84, rounded half up to 132.
        assert (out[0, :, :, 0] == 132).all()
        assert (out[:, :, :, 1:] == 128).all()
        assert (out[1] == 128).all()
        # 8 * 1.0625 = 8.5 exactly: half up gives 9 where round-half-even gives 8.
        half = ModulationParams(m=2, depth=0.0625)
        assert symbol_frames(8, half)[0, 0, 0].tolist() == [9, 8, 8]

    def test_four_level_alphabet_on_mid_gray(self):
        # 16 preamble symbols and 16 length symbols precede the payload.
        out = symbol_frames(128, QASK, payload="00011011")
        assert out[32:36, 0, 0, 0].tolist() == [128, 129, 131, 132]

    def test_clamps_at_white(self):
        out = symbol_frames(250, OOK)
        assert out[0, 0, 0, 0] == 255

    def test_modulates_selected_plane_only(self):
        params = ModulationParams(channel=Color.BLUE)
        out = symbol_frames(100, params)
        assert out[0, 0, 0].tolist() == [100, 100, 103]

    def test_rejects_float_frames(self):
        carrier = np.zeros((frames_needed(0, OOK), 2, 2, 3))
        with pytest.raises(ValueError, match="uint8"):
            encode_stream("", carrier, OOK)


def test_four_level_encoding_bytes_are_pinned():
    # Any change to framing, symbol mapping, levels or rounding changes these bytes.
    m4 = ModulationParams(m=4, symbol_duration_frames=2)
    carrier = make_carrier("gradient", 40, 30, frames_needed(16, m4) + 3)
    frames = encode_stream("1011001110001111", carrier, m4)
    digest = hashlib.sha256(frames.tobytes()).hexdigest()
    assert digest == "df88bce442ae37b99df877716eabc7e3254882b32c553363a735bf27c6471ff0"


def test_frames_needed_counts_the_framed_message():
    # 96 framed bits at one bit per symbol, six frames per symbol.
    assert frames_needed(16, OOK) == 576
    assert frames_needed(16, QASK) == (32 + 32 + 16 + 32) // 2 * 6 == 336
    assert frames_needed(0, OOK) == 80 * 6
    # The largest payload the 32-bit length field declares.
    assert frames_needed(MAX_PAYLOAD_BITS, OOK) == (80 + MAX_PAYLOAD_BITS) * 6


@pytest.mark.parametrize("count", [-1, -100, 16.0, True, "16", None, 2**32])
def test_frames_needed_refuses_a_count_that_is_not_a_natural_number(count):
    with pytest.raises(ValueError, match="^payload_bit_count must "):
        frames_needed(count, OOK)
    assert frames_needed(np.int64(16), OOK) == frames_needed(16, OOK)


class TestEncodeStream:
    def test_demo_payload_fills_576_frames(self):
        carrier = make_carrier("gray128", 16, 12, 576)
        frames = encode_stream("1010101010101010", carrier, OOK)
        assert frames.shape == (576, 12, 16, 3)
        assert frames.dtype == np.uint8

    def test_symbol_levels_land_on_expected_red_values(self):
        carrier = make_carrier("gray128", 8, 8, 96)
        params = ModulationParams(m=2, symbol_duration_frames=1)
        frames = encode_stream("1010101010101010", carrier, params)
        reds = frames[:, :, :, 0].reshape(96, -1).mean(axis=1)
        # Preamble alternates 132/128; every symbol holds one frame.
        assert reds[0] == 132 and reds[1] == 128
        high = reds > 130
        expected_first = [True, False] * 8
        assert high[:16].tolist() == expected_first

    def test_trailing_frames_pass_through(self):
        carrier = make_carrier("gradient", 16, 12, 600)
        frames = encode_stream("1010101010101010", carrier, OOK)
        assert np.array_equal(frames[576:], carrier[576:])

    def test_carrier_too_short_reports_requirement(self):
        carrier = make_carrier("gray128", 8, 8, 100)
        with pytest.raises(CarrierTooShortError) as excinfo:
            encode_stream("1010101010101010", carrier, OOK)
        assert excinfo.value.needed == 576
        assert excinfo.value.available == 100
        assert "576" in str(excinfo.value)

    def test_green_blue_untouched_red_within_depth(self):
        carrier = make_carrier("gradient", 32, 24, 336)
        frames = encode_stream("1010101010101010", carrier, QASK)
        diff = frames.astype(np.int64) - carrier.astype(np.int64)
        assert diff[:, :, :, 1:].max() == 0 and diff[:, :, :, 1:].min() == 0
        # depth 0.03 on values up to 255 shifts red by at most 8 counts.
        assert diff[:, :, :, 0].min() >= 0
        assert diff[:, :, :, 0].max() <= 8


@settings(max_examples=25, deadline=None)
@given(payload=st.lists(st.integers(0, 1), max_size=48),
       m_exp=st.integers(1, 2))
def test_encode_never_exceeds_depth_bound(payload, m_exp):
    params = ModulationParams(m=2**m_exp, symbol_duration_frames=1)
    carrier = make_carrier("gradient", 16, 12,
                           frames_needed(len(payload), params))
    frames = encode_stream(np.array(payload, dtype=np.uint8), carrier, params)
    diff = frames.astype(np.int64) - carrier.astype(np.int64)
    assert not diff[:, :, :, 1:].any()
    assert diff[:, :, :, 0].min() >= 0
    assert diff[:, :, :, 0].max() <= 8


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_encoding_matches_the_per_symbol_loop(data):
    visible = data.draw(st.booleans())
    params = ModulationParams(
        m=data.draw(st.sampled_from([2, 4, 8, 16])),
        symbol_duration_frames=data.draw(st.integers(1, 6)),
        depth=data.draw(st.floats(1e-3, 0.5 if visible else 0.1)),
        channel=data.draw(st.sampled_from(Color)),
        allow_visible_depth=visible)
    payload = np.array(data.draw(st.lists(st.integers(0, 1), max_size=64)), dtype=np.uint8)
    n_frames = frames_needed(payload.size, params) + data.draw(st.integers(0, 7))
    shape = (n_frames, data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8)), 3)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    carrier = rng.integers(0, 256, shape, dtype=np.uint8)
    before = carrier.copy()
    frames = encode_stream(payload, carrier, params)
    assert np.array_equal(carrier, before)
    expected = encode_stream_reference(payload, carrier, params)
    assert frames.dtype == expected.dtype and frames.shape == expected.shape
    assert frames.tobytes() == expected.tobytes()


class TestMakeCarrier:
    def test_builtin_names_and_shapes(self):
        for name in BUILTIN_CARRIERS:
            frames = make_carrier(name, 20, 10, 3)
            assert frames.shape == (3, 10, 20, 3)
            assert frames.dtype == np.uint8
            assert np.array_equal(frames[0], frames[2])

    def test_gray128_is_flat(self):
        assert (make_carrier("gray128", 4, 4, 1) == 128).all()

    def test_gradient_spans_the_full_range(self):
        frame = make_carrier("gradient", 64, 48, 1)[0]
        red = frame[:, :, 0]
        assert red[0, 0] == 0 and red[-1, -1] == 255
        assert len(np.unique(red)) > 100

    def test_deterministic(self):
        assert np.array_equal(make_carrier("gradient", 16, 16, 2),
                              make_carrier("gradient", 16, 16, 2))

    def test_rejects_unknown_name_and_bad_sizes(self):
        with pytest.raises(ValueError, match="unknown carrier"):
            make_carrier("plasma", 8, 8, 1)
        with pytest.raises(ValueError, match="at least 2x2"):
            make_carrier("gray128", 1, 8, 1)
        with pytest.raises(ValueError, match="at least one frame"):
            make_carrier("gray128", 8, 8, 0)
