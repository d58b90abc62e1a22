"""Display-to-camera optical channel: geometry, warp, resampling, noise, quantization."""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np
from scipy import sparse

from .core import (as_rate, as_seed, floor_progression, quantize_unit, to_unit,
                   validate_frames)

# CPUs this process may run on: the most threads one transmit call uses.
_CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
          else os.cpu_count() or 1)
# Values per capture from which transmit uses threads: a block is then one
# display frame's captures, and each draw, which runs without the GIL, outlasts
# its Python work about 200 times. Smaller captures also ran faster in threads,
# but the gain swung with the host's load from one run to the next.
_SPLIT_MIN_VALUES = 1 << 16


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
    cos(phi) * cos(theta) / d^2.
    """
    reference = replace(geometry, distance_m=1.0, phi_rad=0.0, theta_rad=0.0)
    return geometric_gain(geometry) / geometric_gain(reference)


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
        if not isinstance(self.quantizer_bits, int) or not 1 <= self.quantizer_bits <= 30:
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
    if not np.all(np.isfinite(arr)) or abs(np.linalg.det(arr)) < 1e-12:
        raise ValueError(f"{name} must be finite and not singular")
    return arr


def resampling_map(pull: np.ndarray, height: int,
                   width: int) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear resampling of a height x width frame through a pull homography.

    Output pixel (x, y) reads the source at pull @ (x, y, 1). Returns flat
    source indices and weights, both of shape (4, height * width), one row per
    bilinear corner; corners outside the source get weight 0, so pixels pulled
    from outside read as black.
    """
    ys, xs = np.mgrid[0:height, 0:width]
    dest = np.column_stack([xs.ravel(), ys.ravel(), np.ones(height * width)])
    projected = dest @ pull.T
    w = projected[:, 2]
    if np.any(np.abs(w) < 1e-12):
        raise ValueError("homography maps a pixel to infinity")
    sx = projected[:, 0] / w
    sy = projected[:, 1] / w
    x0 = np.floor(sx)
    y0 = np.floor(sy)
    fx = sx - x0
    fy = sy - y0
    x0 = x0.astype(np.int64)
    y0 = y0.astype(np.int64)

    corners = ((x0, y0), (x0 + 1, y0), (x0, y0 + 1), (x0 + 1, y0 + 1))
    weights = ((1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy, fx * fy)
    index = np.empty((4, height * width), dtype=np.int64)
    weight = np.empty((4, height * width), dtype=np.float64)
    for k, ((cx, cy), wk) in enumerate(zip(corners, weights)):
        valid = (cx >= 0) & (cx < width) & (cy >= 0) & (cy < height)
        index[k] = np.where(valid, cy * width + cx, 0)
        weight[k] = np.where(valid, wk, 0.0)
    return index, weight


def transmit(frames: np.ndarray, display_fps: Fraction, params: ChannelParams,
             symbol_rate: Fraction | None = None) -> np.ndarray:
    """Push a display clip through the optical channel to sensor frames.

    Each capture is the display frame on screen at its instant (the later one
    on a frame boundary; rates are exact), warped through the homography,
    scaled by the normalized geometric gain, plus white Gaussian noise keyed
    by (seed, capture index), quantized to the sensor bit depth. The warp is
    one sparse operator per call, applied to blocks of captures that end on
    display-frame boundaries, so each shown frame is warped once.
    With frames of 2^16 values or more, one thread per CPU takes the blocks
    one at a time.

    Passing symbol_rate enables the sampling guard: the camera must run at
    twice the symbol rate or faster, otherwise captures can miss symbols
    entirely and decoding is hopeless.
    """
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
    src_index = np.minimum(floor_progression(n_out, ratio / 2, ratio), n_in - 1)

    gain = normalized_gain(params.geometry)
    # Each row keeps its 4 corners in order, zero weights included, so a pixel
    # sums its products in corner order and weights (1, 0, 0, 0) copy it exactly.
    index, weight = resampling_map(np.linalg.inv(params.affine), height, width)
    n_pix = height * width
    warp = sparse.csr_array((weight.T.ravel(), index.T.ravel(),
                             np.arange(0, 4 * n_pix + 1, 4)), shape=(n_pix, n_pix))

    captured = np.empty((n_out, height, width, 3),
                        dtype=np.uint8 if params.quantizer_bits == 8 else np.float32)
    # Blocks of about 2^16 values bound the float copies on long clips; a block
    # ends with the last capture of a display frame, so each is warped once.
    step = max(1, (1 << 16) // (3 * n_pix))
    bounds = [0]
    while bounds[-1] < n_out:
        last_shown = src_index[min(bounds[-1] + step, n_out) - 1]
        bounds.append(int(np.searchsorted(src_index, last_shown, side="right")))
    blocks = iter(zip(bounds[:-1], bounds[1:]))
    claim = threading.Lock()

    def walk() -> None:
        # One Philox per thread, reset to key (seed, k) and counter 0 before
        # capture k draws, so each capture reads its own stream from the start,
        # as a fresh generator would. A uint64 key keeps big seeds exact.
        philox = np.random.Philox(key=np.array([params.rng_seed, 0], dtype=np.uint64))
        rng = np.random.Generator(philox)
        fresh = philox.state
        key = fresh["state"]["key"]
        while True:
            # A thread takes the next block when it is free, so a thread the
            # host stalls holds up one block, not a share of the call.
            with claim:
                start, end = next(blocks, (n_out, n_out))
            if start == n_out:
                return
            shown, capture_of = np.unique(src_index[start:end], return_inverse=True)
            unit = to_unit(source[shown].transpose(1, 2, 0, 3).reshape(n_pix, -1))
            warped = ((warp @ unit) * gain).reshape(height, width, -1, 3).transpose(2, 0, 1, 3)
            observed = warped[capture_of]
            if params.noise_sigma > 0.0:
                for k, frame in enumerate(observed, start):
                    key[1] = k
                    philox.state = fresh
                    frame += rng.normal(0.0, params.noise_sigma, size=frame.shape)
            captured[start:end] = quantize_unit(observed, params.quantizer_bits)

    # One thread per core and no more threads than blocks. The draws and the
    # warp run without the GIL; the bytes do not depend on the thread count.
    n_threads = min(_CORES, len(bounds) - 1) if 3 * n_pix >= _SPLIT_MIN_VALUES else 1
    if n_threads == 1:
        walk()
        return captured
    with ThreadPoolExecutor(n_threads - 1) as pool:
        futures = [pool.submit(walk) for _ in range(n_threads - 1)]
        walk()
        for future in futures:
            future.result()
    return captured
