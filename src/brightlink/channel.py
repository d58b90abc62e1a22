"""Display-to-camera optical channel: geometry, warp, resampling, noise, quantization."""

from __future__ import annotations

import functools
import math
import os
import threading
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .core import (Color, as_int, as_rate, as_seed, floor_progression, quantize_unit,
                   to_unit, validate_frames)

# CPUs this process may run on: the most threads one transmit call uses.
_CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
          else os.cpu_count() or 1)


def identity_homography() -> np.ndarray:
    return np.eye(3, dtype=np.float64)


@dataclass(frozen=True)
class ChannelGeometry:
    """Physical layout of the display and the observing camera.

    distance_m:
        line-of-sight distance between display and aperture, in meters.
    phi_rad, theta_rad:
        angles between the line of sight and the display normal (phi) and the
        camera optical axis (theta). Both must stay below 90 degrees or the
        surfaces no longer face each other.
    display_area_m2, aperture_area_m2:
        emitting and collecting areas. Defaults: a 19-inch 4:3 panel and a
        small security-camera lens.
    """

    distance_m: float = 1.0
    phi_rad: float = 0.0
    theta_rad: float = 0.0
    display_area_m2: float = 0.11
    aperture_area_m2: float = 2.0e-5

    def __post_init__(self) -> None:
        for label in ("distance_m", "display_area_m2", "aperture_area_m2"):
            if not 0.0 < (value := getattr(self, label)) < math.inf:
                raise ValueError(f"{label} must be positive, got {value}")
        for label, angle in (("phi_rad", self.phi_rad), ("theta_rad", self.theta_rad)):
            if not 0.0 <= angle < math.pi / 2:
                raise ValueError(f"{label} must lie in [0, pi/2), got {angle}")


def geometric_gain(geometry: ChannelGeometry) -> float:
    """Fraction of display radiance collected by the aperture.

    Point-to-point approximation of the surface integral: both areas are
    treated as single elements at distance d, so the gain is
    A_display * A_aperture * cos(phi) * cos(theta) / (pi * d^2). Accurate when
    the distance is large against both apertures.
    """
    g = geometry
    return (g.display_area_m2 * g.aperture_area_m2
            * math.cos(g.phi_rad) * math.cos(g.theta_rad)
            / (math.pi * g.distance_m**2))


def normalized_gain(geometry: ChannelGeometry) -> float:
    """Gain relative to the same pair head-on at one meter.

    The reference keeps pixel amplitudes in a usable range: a head-on capture
    at one meter reproduces the display values, and everything else scales by
    cos(phi) * cos(theta) / d^2. A gain that is no finite float is a ValueError
    naming the areas, if their product leaves the positive floats, else d.
    """
    reference = geometric_gain(replace(geometry, distance_m=1.0, phi_rad=0.0, theta_rad=0.0))
    try:
        gain = geometric_gain(geometry) / reference
    except ArithmeticError:  # d^2 or the areas' product underflows to zero, or d^2 overflows
        gain = math.nan
    if not math.isfinite(gain):
        culprit = (f"distance {geometry.distance_m} m gives" if 0.0 < reference < math.inf
                   else f"display_area_m2 {geometry.display_area_m2} and aperture_area_m2 "
                        f"{geometry.aperture_area_m2} give")
        raise ValueError(f"{culprit} no finite gain")
    return gain


@dataclass(frozen=True)
class ChannelParams:
    """Full channel configuration for a capture run.

    affine is the forward 3x3 homography mapping display pixel coordinates to
    sensor pixel coordinates. noise_sigma is the per-pixel Gaussian noise level
    in unit-range amplitude. quantizer_bits sets the sensor bit depth; 8 yields
    uint8 output, anything else a float32 grid. rng_seed, an integer in
    [0, 2**64), keys the per-frame noise.
    """

    geometry: ChannelGeometry = ChannelGeometry()
    noise_sigma: float = 0.0
    affine: np.ndarray = field(default_factory=identity_homography)
    camera_fps: Fraction = Fraction(30)
    quantizer_bits: int = 8
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.noise_sigma) or self.noise_sigma < 0.0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        object.__setattr__(self, "affine", check_homography(self.affine, "affine"))
        object.__setattr__(self, "camera_fps", as_rate(self.camera_fps, "camera_fps"))
        object.__setattr__(self, "quantizer_bits",
                           as_int(self.quantizer_bits, "quantizer_bits"))
        if not 1 <= self.quantizer_bits <= 30:
            raise ValueError(f"quantizer_bits must be an int in [1, 30], "
                             f"got {self.quantizer_bits}")
        object.__setattr__(self, "rng_seed", as_seed(self.rng_seed, "rng_seed"))


class SamplingRateError(ValueError):
    """Camera frame rate is too low to resolve the symbol stream."""


def check_homography(matrix, name: str = "homography") -> np.ndarray:
    """Return matrix as a 3x3 float64 array, refusing non-finite or singular ones."""
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.shape != (3, 3):
        raise ValueError(f"{name} must be a 3x3 matrix, got shape {arr.shape}")
    with np.errstate(all="ignore"):  # a determinant past the float range is inf
        if not (np.all(np.isfinite(arr)) and abs(np.linalg.det(arr)) >= 1e-12):
            raise ValueError(f"{name} must be finite and not singular")
    return arr


def resampling_map(pull: np.ndarray, height: int,
                   width: int) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear resampling of a height x width frame through a pull homography.

    Output pixel (x, y) reads the source at pull @ (x, y, 1). Returns flat
    source indices and weights, both of shape (4, height * width), one row per
    bilinear corner; corners outside the source get weight 0, so pixels pulled
    from outside read as black. A pull that sends a pixel past the float range
    is a ValueError.
    """
    n_pix = height * width
    dest = np.empty((height, width, 3))
    dest[..., 0] = np.arange(width)
    dest[..., 1] = np.arange(height)[:, None]
    dest[..., 2] = 1.0
    with np.errstate(all="ignore"):  # coordinates past the float range are refused below
        projected = dest.reshape(n_pix, 3) @ pull.T
        w = projected[:, 2:]
        if np.any(np.abs(w) < 1e-12):
            raise ValueError("homography maps a pixel to infinity")
        source = projected[:, :2] / w
    if not np.all(np.isfinite(source)):
        raise ValueError("homography maps a pixel past the float range")
    # Far outside the frame a pixel reads black wherever it lies: clip it to fit the int cast.
    corner = np.floor(np.clip(source, -2, (width, height), out=source))
    (fx, fy), (x0, y0) = (source - corner).T, corner.astype(np.int64).T

    # Corner k sits dx = k % 2 columns right and dy = k // 2 rows down of
    # (x0, y0); it is in range when its column and its row are.
    in_column = ((x0 >= 0) & (x0 < width), (x0 >= -1) & (x0 < width - 1))
    in_row = ((y0 >= 0) & (y0 < height), (y0 >= -1) & (y0 < height - 1))
    weight_x = (1 - fx, fx)
    weight_y = (1 - fy, fy)
    first = y0 * width + x0
    index = np.empty((4, n_pix), dtype=np.int64)
    weight = np.empty((4, n_pix), dtype=np.float64)
    for k in range(4):
        dx, dy = k % 2, k // 2
        valid = in_column[dx] & in_row[dy]
        np.multiply(first + (dy * width + dx), valid, out=index[k])
        # Weights are never negative, so an out-of-range corner reads +0.0.
        np.multiply(weight_x[dx] * weight_y[dy], valid, out=weight[k])
    return index, weight


@functools.lru_cache(maxsize=1)
def _warp_operator(affine: bytes, height: int, width: int,
                   by_column: bool) -> sparse.csr_array:
    """The read-only CSR warp of height x width frames through a homography.

    affine holds the bytes of a checked float64 3x3 matrix, so a caller that
    changes its matrix in place gets a new warp. Its rows are the output
    pixels row by row; its columns number the source pixels column by column
    when by_column is set, as frames stored that way lie in memory. A stream
    of calls with one homography, frame size and layout builds the warp once;
    only the last is kept, alive until another call, 16 bytes per non-zero
    weight (at most 4 per pixel) and 8 per pixel.
    """
    pull = np.linalg.inv(np.frombuffer(affine).reshape(3, 3))
    index, weight = resampling_map(pull, height, width)
    if by_column:  # pixel y * width + x sits at x * height + y
        index = index % width * height + index // width
    # Each row keeps its non-zero corners in corner order. The running sum
    # starts at +0.0, so it never holds -0.0 and a zero product added to it
    # changes nothing: a pixel sums the same values in the same order as with
    # all 4 corners, and weights (1, 0, 0, 0) copy it exactly.
    kept = weight.T != 0.0
    n_pix = height * width
    warp = sparse.csr_array(
        (weight.T[kept], index.T[kept],
         np.concatenate(([0], np.cumsum(np.count_nonzero(kept, axis=1))))),
        shape=(n_pix, n_pix))
    for part in (warp.data, warp.indices, warp.indptr):
        part.flags.writeable = False
    return warp


def _block_warps(warp: sparse.csr_array, counts: set[int]) -> dict[int, sparse.csr_array]:
    """For each frame count n in counts, n copies of warp down a block diagonal.

    Applied to n frames as stored, one pixel per row, it warps each frame on
    its own. A clip's blocks give at most two frame counts, the full blocks'
    and the last block's. The larger is built once, with int32 indices as a
    block of frames holds at most 2^16 values; the other views its leading rows.
    """
    n_pix, nnz = warp.shape[0], warp.nnz
    most = max(counts)
    if most == 1:
        return {1: warp}
    offsets = np.arange(most, dtype=np.int32)[:, None]
    stacked = (np.tile(warp.data, most),
               (warp.indices.astype(np.int32) + offsets * n_pix).ravel(),
               np.append((warp.indptr[:-1].astype(np.int32) + offsets * nnz).ravel(),
                         np.int32(most * nnz)))
    return {n: sparse.csr_array((stacked[0][:n * nnz], stacked[1][:n * nnz],
                                 stacked[2][:n * n_pix + 1]),
                                shape=(n * n_pix, n * n_pix), copy=False)
            for n in counts}


class _Plan(NamedTuple):
    """What every block of one clip's walk shares, however many gains it sends."""

    source: np.ndarray      # the checked display clip, (n, w, h, 3) if stored by column
    shown: np.ndarray       # the display frame each capture shows
    bounds: list[int]       # block i: captures bounds[i]..bounds[i+1], of whole frames
    # The kept warp of the clip's homography, frame size and layout, on a block
    # diagonal, by the frame counts of the full and the last block (_block_warps).
    warps: dict[int, sparse.csr_array]
    size: tuple[int, int]   # the frames' (height, width)


def _plan(frames: np.ndarray, display_fps: Fraction, params: ChannelParams,
          symbol_rate: Fraction | None) -> _Plan:
    """Check the clip and the sampling guard, and lay out the capture blocks."""
    source = validate_frames(frames)
    # Display frames per capture: capture k, at (k + 1/2) / camera_fps, shows
    # display frame floor((k + 1/2) ratio).
    ratio = as_rate(display_fps, "display_fps") / params.camera_fps
    if symbol_rate is not None and params.camera_fps < 2 * as_rate(symbol_rate, "symbol_rate"):
        raise SamplingRateError(
            f"camera_fps {params.camera_fps} is below twice the symbol rate "
            f"{symbol_rate}; raise the camera rate or slow the symbols")

    n_in, height, width = source.shape[:3]
    n_out = max(1, round(n_in / ratio))
    p, q = ratio.numerator, ratio.denominator
    shown = np.minimum(floor_progression(n_out, p, 2 * p, 2 * q), n_in - 1)
    # A block is every capture of per_block shown frames, each warped once. A
    # frame shows in at most ceil(1 / ratio) captures, so a block's float copies
    # hold at most 2^16 values, or one frame's captures when those are more.
    per_block = max(1, (1 << 16) // (3 * height * width * math.ceil(1 / ratio)))
    firsts = np.flatnonzero(np.diff(shown, prepend=-1))  # each shown frame's first capture
    bounds = np.append(firsts[::per_block], n_out).tolist()
    # A clip stored column by column is read in its own memory order, so no
    # frame is transposed: the warp numbers its source pixels the same way.
    by_column = abs(source.strides[2]) > abs(source.strides[1])
    warp = _warp_operator(params.affine.tobytes(), height, width, by_column)
    return _Plan(source.transpose(0, 2, 1, 3) if by_column else source, shown, bounds,
                 _block_warps(warp, {min(per_block, len(firsts)),
                                     (len(firsts) - 1) % per_block + 1}), (height, width))


def _walk(plan: _Plan, blocks: Iterator[tuple[int, int]], gains: list[float],
          params: ChannelParams, plane: int | None = None
          ) -> Iterator[tuple[int, np.ndarray]]:
    """Send each block of captures taken from blocks at every gain.

    Yields, for each block and then for each gain in order, the block's first
    capture index and its captures, quantized: (n, h, w, 3), or (n, h, w) of
    colour plane `plane` alone. Each shown frame is converted and warped once
    and each capture's noise drawn once, at (h, w, 3), whatever the number of
    gains. A gain scales the warped frames gathered by capture, or, if it is
    the last and no frame repeats, the warped frames themselves; the draws are
    then added. One gain's floats are held at a time, freed before the next block.
    """
    planes = (slice(None),) if plane is None else (plane,)
    # Capture k reads the stream of key (seed, k) from its start, as a fresh
    # Philox would; its state is set from lists, which the setter reads faster.
    philox = np.random.Philox(key=np.array([params.rng_seed, 0], dtype=np.uint64))
    fresh, rng = philox.state, np.random.Generator(philox)
    fresh.update(state={name: word.tolist() for name, word in fresh["state"].items()},
                 buffer=fresh["buffer"].tolist())
    key = fresh["state"]["key"]
    for start, end in blocks:
        shown, capture_of = np.unique(plan.shown[start:end], return_inverse=True)
        # The shown frames as stored: one pixel per row, one plane per column.
        pixels = plan.source[(shown, ...) + planes]
        unit = to_unit(pixels).reshape(-1, 3 if plane is None else 1)
        warped = (plan.warps[len(shown)] @ unit).reshape((len(shown),) + plan.size
                                                         + pixels.shape[3:])
        del unit
        noise = None
        if params.noise_sigma > 0.0:
            noise = np.empty((end - start,) + plan.size + (3,))
            for k, draw in enumerate(noise, start):
                key[1] = k
                philox.state = fresh
                rng.standard_normal(out=draw)
            # normal(0, s) would draw 0.0 + s z: only the sign of a zero differs,
            # and it cannot reach observed, which is never -0.0.
            noise *= params.noise_sigma
            noise = noise[(...,) + planes]
        for i, gain in enumerate(gains):
            observed = (warped if i == len(gains) - 1 and len(shown) == end - start
                        else warped[capture_of])
            observed *= gain
            if noise is not None:
                observed += noise
            yield start, quantize_unit(observed, params.quantizer_bits)
            del observed
        del pixels, warped, noise


def transmit(frames: np.ndarray, display_fps: Fraction, params: ChannelParams,
             symbol_rate: Fraction | None = None) -> np.ndarray:
    """Push a display clip through the optical channel to sensor frames.

    Each capture is the display frame on screen at its instant (the later one
    on a frame boundary; rates are exact), warped through the homography,
    scaled by the normalized geometric gain, plus white Gaussian noise keyed
    by (seed, capture index), quantized to the sensor bit depth. The warp, one
    sparse operator kept after the call (see _warp_operator), is applied to
    blocks, each every capture of a run of whole display frames, so each shown
    frame is warped once. One thread per CPU, and no more threads than blocks,
    takes the blocks one at a time, whatever the frame size.

    Passing symbol_rate enables the sampling guard: the camera must run at
    twice the symbol rate or faster, otherwise captures can miss symbols
    entirely and decoding is hopeless.
    """
    gain = normalized_gain(params.geometry)
    plan = _plan(frames, display_fps, params, symbol_rate)
    captured = np.empty((len(plan.shown), *plan.size, 3),
                        dtype=np.uint8 if params.quantizer_bits == 8 else np.float32)
    blocks = iter(zip(plan.bounds[:-1], plan.bounds[1:]))
    claim = threading.Lock()

    def claim_next() -> tuple[int, int] | None:
        # A thread takes the next block when it is free, so a thread the
        # host stalls holds up one block, not a share of the call.
        with claim:
            return next(blocks, None)

    def walk() -> None:
        for start, captures in _walk(plan, iter(claim_next, None), [gain], params):
            captured[start:start + len(captures)] = captures

    # The draws and the warp run without the GIL; the bytes do not depend on the thread count.
    n_threads = min(_CORES, len(plan.bounds) - 1)
    if n_threads == 1:
        walk()
        return captured
    with ThreadPoolExecutor(n_threads - 1) as pool:
        futures = [pool.submit(walk) for _ in range(n_threads - 1)]
        walk()
        for future in futures:
            future.result()
    return captured


def transmit_gains(frames: np.ndarray, display_fps: Fraction, params: ChannelParams,
                   gains: list[float], plane: Color, symbol_rate: Fraction | None = None
                   ) -> Iterator[np.ndarray]:
    """transmit's colour plane `plane` at several gains, in one pass over the
    clip, on the calling thread.

    Yields, block by block in capture order, the block's (n, h, w) captures at
    each gain in turn; the gains stand in for params.geometry's. Only that
    plane is warped, each shown frame once, and each capture's noise is drawn
    as in transmit once for all gains, so every gain's captures are that plane
    of transmit's bytes at a geometry with that gain.
    """
    plan = _plan(frames, display_fps, params, symbol_rate)
    for _, captures in _walk(plan, zip(plan.bounds[:-1], plan.bounds[1:]), gains, params,
                             int(plane)):
        yield captures
