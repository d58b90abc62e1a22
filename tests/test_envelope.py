"""Capability envelope: how many links fail in each cell of a fixed grid.

Each cell sends a fixed set of 16x12 links through encode_stream, transmit and
decode_frames, and counts the links that do not return the sent payload with
crc_ok = true. A link fails with SyncError, DegenerateLevelsError or
FramingError, or decodes with crc_ok = false; none may return a wrong payload
with crc_ok = true. Each count must equal its record, failing cells included.
A fix lowers a count, and its change lowers the record; a higher count is a
regression, justified like a re-recorded pin. The terminal summary prints
every cell's count.

Rows (the numbers are those of the ROADMAP's directions):
- lead_in (direction 1): a gradient carrier and a 64-bit payload, sent after
  L = 0, 3, ..., 39 unmodulated carrier frames and before three symbols' worth
  more, at noise 0.002, for M = 2 and 4 and several display -> camera rates.
- alphabet (direction 10): carriers gray128 and gradient at M = 2, 4, 8 and
  16, 6 frames per symbol at 30 -> 30 fps, a 256-bit payload, noise 0, 0.002
  and 0.005 with 2 seeds each.
"""

from fractions import Fraction

import numpy as np
import pytest

from brightlink.channel import ChannelParams, transmit
from brightlink.core import ModulationParams
from brightlink.decoder import DegenerateLevelsError, FramingError, SyncError, decode_frames
from brightlink.encoder import encode_stream, frames_needed, make_carrier

WIDTH, HEIGHT = 16, 12
NTSC = Fraction(30000, 1001)
LEAD_INS = range(0, 40, 3)
NOISES = (0.0, 0.002, 0.005)
SEEDS = (0, 1)


def link_fails(payload, params, carrier_name, camera_fps, noise, seed, lead_in=0, tail=0):
    """Whether one link fails to return payload; a wrong payload with crc_ok
    = true fails the test instead."""
    n = frames_needed(payload.size, params)
    carrier = make_carrier(carrier_name, WIDTH, HEIGHT, lead_in + n + tail)
    sent = encode_stream(payload, carrier[lead_in:lead_in + n], params)
    shown = np.concatenate([carrier[:lead_in], sent, carrier[lead_in + n:]])
    channel = ChannelParams(noise_sigma=noise, camera_fps=camera_fps, rng_seed=seed)
    captured = transmit(shown, params.frame_rate, channel, symbol_rate=params.symbol_rate)
    try:
        report = decode_frames(captured, params, camera_fps)
    except (SyncError, DegenerateLevelsError, FramingError):
        return True
    exact = np.array_equal(report.payload, payload)
    assert exact or not report.crc_ok, "a wrong payload decoded with crc_ok = true"
    return not exact


def lead_in_failures(display_fps, camera_fps, frames_per_symbol, m):
    params = ModulationParams(m=m, symbol_duration_frames=frames_per_symbol,
                              frame_rate=display_fps)
    payload = np.random.default_rng(0).integers(0, 2, 64).astype(np.uint8)
    return sum(link_fails(payload, params, "gradient", camera_fps, 0.002, seed=lead_in,
                          lead_in=lead_in, tail=3 * frames_per_symbol)
               for lead_in in LEAD_INS)


def alphabet_failures(carrier_name, m):
    params = ModulationParams(m=m, symbol_duration_frames=6)
    return sum(link_fails(np.random.default_rng(seed).integers(0, 2, 256).astype(np.uint8),
                          params, carrier_name, Fraction(30), noise, seed)
               for noise in NOISES for seed in SEEDS)


def _rate(rate, ntsc="30000/1001"):
    return ntsc if rate == NTSC else str(rate)


def _lead_in_id(cell):
    display_fps, camera_fps, frames_per_symbol, m = cell
    rates = f"{_rate(display_fps, 'ntsc')}-{_rate(camera_fps, 'ntsc')}fps"
    return f"{rates}-r{frames_per_symbol}-m{m}"


# (display fps, camera fps, frames per symbol, M): lead-ins that fail, of 14.
LEAD_IN_ENVELOPE = {
    (Fraction(30), Fraction(30), 3, 2): 0,
    (Fraction(30), Fraction(30), 3, 4): 0,
    (Fraction(30), Fraction(30), 6, 2): 0,
    (Fraction(30), Fraction(30), 6, 4): 0,
    (Fraction(30), Fraction(25), 3, 2): 1,
    (Fraction(30), Fraction(25), 3, 4): 1,
    (Fraction(30), Fraction(25), 6, 2): 0,
    (Fraction(30), Fraction(25), 6, 4): 0,
    (Fraction(30), Fraction(45), 3, 2): 0,
    (Fraction(30), Fraction(45), 3, 4): 0,
    (Fraction(30), Fraction(45), 6, 2): 0,
    (Fraction(30), Fraction(45), 6, 4): 0,
    (Fraction(30), Fraction(60), 3, 2): 0,
    (Fraction(30), Fraction(60), 3, 4): 0,
    (Fraction(30), Fraction(60), 6, 2): 0,
    (Fraction(30), Fraction(60), 6, 4): 0,
    (Fraction(30), NTSC, 3, 2): 0,
    (Fraction(30), NTSC, 3, 4): 0,
    (Fraction(30), NTSC, 6, 2): 0,
    (Fraction(30), NTSC, 6, 4): 0,
    (Fraction(30), Fraction(24), 3, 2): 8,
    (Fraction(30), Fraction(24), 3, 4): 8,
    (Fraction(30), Fraction(24), 6, 2): 4,
    (Fraction(30), Fraction(24), 6, 4): 4,
    (NTSC, Fraction(30), 3, 2): 12,
    (NTSC, Fraction(30), 3, 4): 12,
    (NTSC, Fraction(30), 6, 2): 10,
    (NTSC, Fraction(30), 6, 4): 10,
    (Fraction(60), Fraction(45), 3, 2): 9,
    (Fraction(60), Fraction(45), 3, 4): 9,
    (Fraction(60), Fraction(45), 6, 2): 0,
    (Fraction(60), Fraction(45), 6, 4): 0,
}
# (carrier, M): links that fail, of 6.
ALPHABET_ENVELOPE = {
    ("gray128", 2): 0,
    ("gray128", 4): 0,
    ("gray128", 8): 6,
    ("gray128", 16): 6,
    ("gradient", 2): 0,
    ("gradient", 4): 0,
    ("gradient", 8): 0,
    ("gradient", 16): 6,
}


@pytest.mark.parametrize("cell", list(LEAD_IN_ENVELOPE), ids=_lead_in_id)
def test_lead_in_envelope(cell, envelope_log):
    display_fps, camera_fps, frames_per_symbol, m = cell
    failed = lead_in_failures(*cell)
    envelope_log(f"lead_in {_rate(display_fps)} -> {_rate(camera_fps)} fps, "
                 f"{frames_per_symbol} frames/symbol, M = {m}: failed {failed} of "
                 f"{len(LEAD_INS)} (record {LEAD_IN_ENVELOPE[cell]})")
    assert failed == LEAD_IN_ENVELOPE[cell]


@pytest.mark.parametrize("cell", list(ALPHABET_ENVELOPE), ids=lambda c: f"{c[0]}-m{c[1]}")
def test_alphabet_envelope(cell, envelope_log):
    failed = alphabet_failures(*cell)
    envelope_log(f"alphabet {cell[0]}, M = {cell[1]}: failed {failed} of "
                 f"{len(NOISES) * len(SEEDS)} (record {ALPHABET_ENVELOPE[cell]})")
    assert failed == ALPHABET_ENVELOPE[cell]
