"""A clip gives the same bytes however its frames lie in memory.

transmit and transmit_gains read a clip stored column by column through a warp
whose source pixels are numbered that way, and encode_stream copies a carrier
in its own memory order; none of them may change a byte for it."""

import hashlib
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from brightlink import channel as channel_module
from brightlink import core as core_module
from brightlink.analysis import distance_sweep
from brightlink.channel import ChannelGeometry, ChannelParams, transmit, transmit_gains
from brightlink.core import Color, ModulationParams, as_bits
from brightlink.encoder import encode_stream, frames_needed, make_carrier

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
PERSPECTIVE = np.array([[0.95, -0.066, 2.7], [0.066, 0.95, -0.35], [0.0002, -0.0001, 1.0]])


def layouts(clip):
    """clip's values stored four ways: row by row (C order), column by column
    within each frame, Fortran order, and C order walked by negative strides."""
    return {
        "C": np.ascontiguousarray(clip),
        "column": np.ascontiguousarray(clip.transpose(0, 2, 1, 3)).transpose(0, 2, 1, 3),
        "fortran": np.asfortranarray(clip),
        "reversed": np.ascontiguousarray(clip[::-1, ::-1, ::-1, ::-1])[::-1, ::-1, ::-1, ::-1],
    }


def stride_order(arr):
    return np.argsort(np.abs(arr.strides), kind="stable").tolist()


def digest(arrays):
    sha = hashlib.sha256()
    for arr in arrays:
        sha.update(np.ascontiguousarray(arr).tobytes())
    return sha.hexdigest()


# 40 display frames of 18x24: not square, so a transposed frame cannot pass.
CLIP = np.random.default_rng(41).integers(0, 256, (40, 18, 24, 3), dtype=np.uint8)
RATES = [30.0, 45.0, Fraction(30000, 1001)]


def test_the_layouts_hold_the_same_values_in_different_orders():
    found = layouts(CLIP)
    assert all(np.array_equal(clip, CLIP) for clip in found.values())
    assert found["column"].strides[2] > found["column"].strides[1]
    assert found["fortran"].flags.f_contiguous
    assert all(stride < 0 for stride in found["reversed"].strides)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("bits", [8, 16])
@pytest.mark.parametrize("camera_fps", RATES)
def test_transmit_gives_the_same_bytes_for_every_layout(monkeypatch, camera_fps, bits,
                                                       workers):
    # Two workers run the clip's blocks in threads.
    monkeypatch.setattr(core_module, "_CORES", workers)
    params = ChannelParams(geometry=ChannelGeometry(distance_m=1.4), noise_sigma=0.01,
                           affine=PERSPECTIVE, camera_fps=camera_fps,
                           quantizer_bits=bits, rng_seed=2**64 - 3)
    for clips in (layouts(CLIP), {name: clip / 255.0 for name, clip in layouts(CLIP).items()}):
        assert clips["column"].strides[2] > clips["column"].strides[1]
        found = {name: transmit(clip, 30.0, params) for name, clip in clips.items()}
        for name, out in found.items():
            assert out.flags.c_contiguous, name
            assert out.shape == found["C"].shape and out.dtype == found["C"].dtype, name
            assert out.tobytes() == found["C"].tobytes(), name


@pytest.mark.parametrize("bits", [8, 16])
@pytest.mark.parametrize("camera_fps", RATES)
def test_transmit_gains_gives_the_same_bytes_for_every_layout(camera_fps, bits):
    params = ChannelParams(noise_sigma=0.01, affine=PERSPECTIVE, camera_fps=camera_fps,
                           quantizer_bits=bits, rng_seed=7)
    found = {name: digest(transmit_gains(clip, 30.0, params, [1.0, 0.25], Color.GREEN))
             for name, clip in layouts(CLIP).items()}
    assert len(set(found.values())) == 1, found


def test_a_clip_stored_by_column_keeps_a_warp_numbered_by_column():
    clip = layouts(CLIP)["column"]
    transmit(clip, 30.0, ChannelParams(affine=PERSPECTIVE))
    channel_module._warp_operator(PERSPECTIVE.tobytes(), 18, 24, True)
    assert channel_module._warp_operator.cache_info().hits == 1
    # A Fortran-ordered clip is stored by column within each frame too.
    transmit(layouts(CLIP)["fortran"], 30.0, ChannelParams(affine=PERSPECTIVE))
    assert channel_module._warp_operator.cache_info().hits == 2


MODULATION = ModulationParams(m=4, symbol_duration_frames=2, depth=0.09, channel=Color.BLUE)
PAYLOAD = as_bits("1011001110001111")
CARRIER = np.random.default_rng(42).integers(
    0, 256, (frames_needed(PAYLOAD.size, MODULATION) + 3, 18, 24, 3), dtype=np.uint8)


@pytest.mark.parametrize("name", ["C", "column", "fortran", "reversed"])
def test_encode_stream_keeps_the_carriers_layout_and_values(name):
    carrier = layouts(CARRIER)[name]
    before = carrier.copy()
    out = encode_stream(PAYLOAD, carrier, MODULATION)
    assert np.array_equal(carrier, before)
    assert stride_order(out) == stride_order(carrier)
    assert all(stride > 0 for stride in out.strides)
    expected = encode_stream(PAYLOAD, CARRIER, MODULATION)
    assert expected.flags.c_contiguous
    assert np.ascontiguousarray(out).tobytes() == expected.tobytes()


@pytest.mark.parametrize("camera_fps, bits", [(30.0, 8), (45.0, 16),
                                              (Fraction(30000, 1001), 8)])
def test_distance_sweep_gives_the_same_rows_for_every_layout(camera_fps, bits):
    # The gradient decodes at every distance, and its planes ramp across both
    # axes, so a transposed frame would move the samples.
    modulation = ModulationParams(m=4, symbol_duration_frames=3, depth=0.09,
                                  channel=Color.BLUE)
    carrier = make_carrier("gradient", 24, 18, frames_needed(PAYLOAD.size, modulation))
    params = ChannelParams(noise_sigma=0.002, affine=PERSPECTIVE, camera_fps=camera_fps,
                           quantizer_bits=bits, rng_seed=11)
    found = [repr(distance_sweep((1.0, 1.5, 2.0, 1e9), PAYLOAD, clip, modulation, params))
             for clip in layouts(carrier).values()]
    assert "error=None" in found[0]
    assert found[1:] == found[:1] * 3


def test_the_benchmarks_panning_carrier_sends_as_its_contiguous_copy(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    import workloads

    modulation = ModulationParams(m=2, symbol_duration_frames=2)
    rng = np.random.default_rng(43)
    payload = rng.integers(0, 2, 8)
    carrier = workloads.panning_carrier(rng, 24, 18, frames_needed(8, modulation))
    # The benchmark's carrier is stored column by column within each frame.
    assert carrier.strides[2] > carrier.strides[1]
    params = ChannelParams(noise_sigma=0.005, affine=PERSPECTIVE, rng_seed=5)
    sent = encode_stream(payload, carrier, modulation)
    assert stride_order(sent) == stride_order(carrier)
    contiguous = encode_stream(payload, np.ascontiguousarray(carrier), modulation)
    assert np.array_equal(sent, contiguous)
    assert transmit(sent, 30.0, params).tobytes() == \
        transmit(contiguous, 30.0, params).tobytes()
