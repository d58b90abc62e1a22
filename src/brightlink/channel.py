"""Display-to-camera optical channel: geometry, warp, resampling, noise, quantization."""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from contextlib import closing
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .core import (Color, as_int, as_rate, as_seed, floor_progression, quantize_unit,
                   run_tasks, to_unit, validate_frames)


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
    """

    distance_m: float = 1.0
    phi_rad: float = 0.0
    theta_rad: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.distance_m < math.inf:
            raise ValueError(f"distance_m must be positive and finite, got {self.distance_m}")
        for label, angle in (("phi_rad", self.phi_rad), ("theta_rad", self.theta_rad)):
            if not 0.0 <= angle < math.pi / 2:
                raise ValueError(f"{label} must lie in [0, pi/2), got {angle}")


def geometric_gain(geometry: ChannelGeometry, display_area_m2: float = 0.11,
                   aperture_area_m2: float = 2.0e-5) -> float:
    """Fraction of display radiance collected by the aperture.

    A point-to-point approximation of the surface integral: A_display *
    A_aperture * cos(phi) * cos(theta) / (pi * d^2), accurate when d is large
    against both apertures. The default areas are a 19-inch 4:3 panel and a
    small security-camera lens; an area that is not positive and finite, or
    areas whose budget is no positive finite float, are a ValueError.
    """
    a, b = display_area_m2, aperture_area_m2
    for label, area in (("display_area_m2", a), ("aperture_area_m2", b)):
        if not 0.0 < area < math.inf:
            raise ValueError(f"{label} must be positive, got {area}")
    if 0.0 < (gain := a * b / math.pi * normalized_gain(geometry)) < math.inf:
        return gain
    raise ValueError(f"display area {a} m2 and aperture area {b} m2 give no finite gain")


def normalized_gain(geometry: ChannelGeometry) -> float:
    """Gain relative to the same pair head-on at one meter.

    The reference keeps pixel amplitudes in a usable range: a head-on capture
    at one meter reproduces the display values, and everything else scales by
    cos(phi) * cos(theta) / d^2. A distance that gives no finite gain, as when
    d^2 leaves the positive floats, is a ValueError.
    """
    g = geometry
    if (0.0 < (square := g.distance_m * g.distance_m) < math.inf
            and (gain := math.cos(g.phi_rad) * math.cos(g.theta_rad) / square) < math.inf):
        return gain
    raise ValueError(f"distance {g.distance_m} m gives no finite gain")


@dataclass(frozen=True)
class ChannelParams:
    """Full channel configuration for a capture run.

    affine is the forward 3x3 homography mapping display pixel coordinates to
    sensor pixel coordinates. noise_sigma is the per-pixel Gaussian noise level
    in unit-range amplitude. quantizer_bits, in [1, 24], sets the sensor bit
    depth; 8 yields uint8 output, anything else a float32 grid, which holds
    every level up to 24 bits. rng_seed, an integer in [0, 2**64), keys the
    per-frame noise.
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
        if not 1 <= self.quantizer_bits <= 24:
            raise ValueError(f"quantizer_bits must be an int in [1, 24], "
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
    xs = np.tile(np.arange(width, dtype=np.float64), height)
    ys = np.repeat(np.arange(height, dtype=np.float64), width)
    with np.errstate(all="ignore"):  # coordinates past the float range are refused below
        # Term by term, not a matrix product, which BLAS may fuse or reorder:
        # near a pixel edge a coordinate's last bit sets a weight's leading digits.
        u, v, w = (row[0] * xs + row[1] * ys + row[2] for row in pull)
        if np.any(np.abs(w) < 1e-12):
            raise ValueError("homography maps a pixel to infinity")
        source = np.stack((u, v), axis=1) / w[:, None]
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


def _preparer(plan: _Plan, params: ChannelParams, plane: int | None = None
              ) -> Callable[[tuple[int, int]], tuple[np.ndarray, ...]]:
    """One thread's function that readies a block of captures for any gain.

    From a block's capture bounds it gives the block's shown frames warped,
    (n, h, w, 3) or (n, h, w) of colour plane `plane`, each capture's frame
    among them, and the captures' scaled noise of that plane, or None. Each
    shown frame is converted and warped once and each capture's noise drawn
    once, at (h, w, 3), by the function's own generator.
    """
    planes = (slice(None),) if plane is None else (plane,)
    # Capture k reads the stream of key (seed, k) from its start, as a fresh
    # Philox would; its state is set from lists, which the setter reads faster.
    philox = np.random.Philox(key=np.array([params.rng_seed, 0], dtype=np.uint64))
    fresh, rng = philox.state, np.random.Generator(philox)
    fresh.update(state={name: word.tolist() for name, word in fresh["state"].items()},
                 buffer=fresh["buffer"].tolist())
    key = fresh["state"]["key"]
    # A plane's draws pass through one frame, so only that plane is kept.
    frame = None if plane is None else np.empty(plan.size + (3,))

    def prepare(block: tuple[int, int]) -> tuple[np.ndarray, ...]:
        start, end = block
        shown, capture_of = np.unique(plan.shown[start:end], return_inverse=True)
        # The shown frames as stored: one pixel per row, one plane per column.
        pixels = plan.source[(shown, ...) + planes]
        shape = (len(shown),) + plan.size + pixels.shape[3:]
        unit = to_unit(pixels).reshape(-1, 3 if plane is None else 1)
        # Freed as soon as it is read, so a thread holds no more mid-block
        # than the readied block it hands on.
        del pixels
        warped = (plan.warps[len(shown)] @ unit).reshape(shape)
        del unit
        if params.noise_sigma == 0.0:
            return warped, capture_of, None
        noise = np.empty((end - start,) + warped.shape[1:])
        for k, out in enumerate(noise, start):
            key[1] = k
            philox.state = fresh
            if frame is None:
                rng.standard_normal(out=out)
            else:
                out[...] = rng.standard_normal(out=frame)[..., plane]
        # normal(0, s) would draw 0.0 + s z: only the sign of a zero differs,
        # and it cannot reach observed, which is never -0.0.
        noise *= params.noise_sigma
        return warped, capture_of, noise

    return prepare


def _observe(ready: tuple[np.ndarray, ...], gain: float, bits: int,
             last: bool = True) -> np.ndarray:
    """A readied block's captures at gain, quantized to bits: the warped frames
    gathered by capture, or, on the last gain and if no frame repeats, the
    warped frames themselves, scaled, plus the noise."""
    warped, capture_of, noise = ready
    observed = warped if last and len(warped) == len(capture_of) else warped[capture_of]
    observed *= gain
    if noise is not None:
        observed += noise
    return quantize_unit(observed, bits)


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

    def send(prepare: Callable, block: tuple[int, int]) -> None:
        captured[slice(*block)] = _observe(prepare(block), gain, params.quantizer_bits)

    # The draws and the warp run without the GIL; the bytes do not depend on the thread count.
    for _ in run_tasks(list(zip(plan.bounds[:-1], plan.bounds[1:])),
                       lambda: functools.partial(send, _preparer(plan, params))):
        pass
    return captured


def transmit_gains(frames: np.ndarray, display_fps: Fraction, params: ChannelParams,
                   receivers: list[tuple[float, Callable[[np.ndarray], object]]], plane: Color,
                   symbol_rate: Fraction | None = None) -> None:
    """transmit's colour plane `plane` at several gains, in one pass over the clip.

    Block by block in capture order, calls each (gain, receive) pair in turn
    with the block's (n, h, w) captures at that gain; the gains stand in for
    params.geometry's. Only that plane is warped, each shown frame once, and
    each capture's noise is drawn as in transmit once for all gains, so every
    gain's captures are that plane of transmit's bytes at a geometry with that
    gain. The blocks are warped and their noise drawn on transmit's threads,
    at most one block per thread ahead of the one received; the gains are
    applied and the receivers run on the calling thread. An error, a
    receiver's included, is raised once the threads are joined.
    """
    plan = _plan(frames, display_fps, params, symbol_rate)
    with closing(run_tasks(list(zip(plan.bounds[:-1], plan.bounds[1:])),
                           lambda: _preparer(plan, params, int(plane)), ahead=1)) as ready:
        for block in ready:
            for i, (gain, receive) in enumerate(receivers):
                receive(_observe(block, gain, params.quantizer_bits, i == len(receivers) - 1))
