"""Display-to-camera optical channel: geometry, warp, resampling, noise, quantization."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse

from .core import quantize_unit, to_unit, validate_frames


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
        if not math.isfinite(self.distance_m) or self.distance_m <= 0.0:
            raise ValueError(f"distance_m must be positive, got {self.distance_m}")
        for label, angle in (("phi_rad", self.phi_rad), ("theta_rad", self.theta_rad)):
            if not 0.0 <= angle < math.pi / 2:
                raise ValueError(f"{label} must lie in [0, pi/2), got {angle}")
        for label, area in (("display_area_m2", self.display_area_m2),
                            ("aperture_area_m2", self.aperture_area_m2)):
            if not math.isfinite(area) or area <= 0.0:
                raise ValueError(f"{label} must be positive, got {area}")


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
    uint8 output, anything else a float32 grid. rng_seed drives the per-frame
    noise generator.
    """

    geometry: ChannelGeometry = ChannelGeometry()
    noise_sigma: float = 0.0
    affine: np.ndarray = field(default_factory=identity_homography)
    camera_fps: float = 30.0
    quantizer_bits: int = 8
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.noise_sigma) or self.noise_sigma < 0.0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        object.__setattr__(self, "affine", check_homography(self.affine, "affine"))
        if not math.isfinite(self.camera_fps) or self.camera_fps <= 0.0:
            raise ValueError(f"camera_fps must be positive, got {self.camera_fps}")
        if not isinstance(self.quantizer_bits, int) or not 1 <= self.quantizer_bits <= 30:
            raise ValueError(f"quantizer_bits must be an int in [1, 30], "
                             f"got {self.quantizer_bits}")
        if not 0 <= self.rng_seed < 2**64:
            raise ValueError(f"rng_seed must fit in 64 bits, got {self.rng_seed}")


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
    dest = np.column_stack([xs.ravel().astype(np.float64),
                            ys.ravel().astype(np.float64),
                            np.ones(height * width)])
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


def transmit(frames: np.ndarray, display_fps: float, params: ChannelParams,
             symbol_rate: float | None = None) -> np.ndarray:
    """Push a display clip through the optical channel to sensor frames.

    Each capture is the display frame shown at its instant (nearest in time),
    warped through the homography, scaled by the normalized geometric gain,
    plus white Gaussian noise keyed by (seed, capture index), quantized to the
    sensor bit depth. The warp is one sparse operator per call, applied to
    blocks of captures that end on display-frame boundaries: one product for
    the display frames a block shows, so each shown frame is warped once.

    Passing symbol_rate enables the sampling guard: the camera must run at
    twice the symbol rate or faster, otherwise captures can miss symbols
    entirely and decoding is hopeless.
    """
    source = validate_frames(frames)
    if not math.isfinite(display_fps) or display_fps <= 0.0:
        raise ValueError(f"display_fps must be positive, got {display_fps}")
    if symbol_rate is not None:
        if symbol_rate <= 0.0:
            raise ValueError(f"symbol_rate must be positive, got {symbol_rate}")
        if params.camera_fps < 2.0 * symbol_rate:
            raise SamplingRateError(
                f"camera_fps {params.camera_fps} is below twice the symbol rate "
                f"{symbol_rate}; raise the camera rate or slow the symbols")

    n_in, height, width = source.shape[:3]
    n_out = max(1, round(n_in / display_fps * params.camera_fps))
    capture_times = (np.arange(n_out) + 0.5) / params.camera_fps
    src_index = np.minimum((capture_times * display_fps).astype(np.int64), n_in - 1)

    gain = normalized_gain(params.geometry)
    # Each row keeps its 4 corners in order, zero weights included, so a pixel
    # sums its products in corner order and weights (1, 0, 0, 0) copy it exactly.
    index, weight = resampling_map(np.linalg.inv(params.affine), height, width)
    n_pix = height * width
    warp = sparse.csr_array((weight.T.ravel(), index.T.ravel(),
                             np.arange(0, 4 * n_pix + 1, 4)), shape=(n_pix, n_pix))

    # One Philox per call, reset to key (seed, k) and counter 0 before capture
    # k draws, so each capture reads its own stream from the start, as a fresh
    # generator would. A uint64 key keeps big seeds exact.
    philox = np.random.Philox(key=np.array([params.rng_seed, 0], dtype=np.uint64))
    rng = np.random.Generator(philox)
    fresh = philox.state
    key = fresh["state"]["key"]

    captured = np.empty((n_out, height, width, 3),
                        dtype=np.uint8 if params.quantizer_bits == 8 else np.float32)
    # Blocks of about 2^16 values bound the float copies on long clips; a block
    # ends with the last capture of a display frame, so each is warped once.
    step = max(1, (1 << 16) // (3 * n_pix))
    start = 0
    while start < n_out:
        stop = int(np.searchsorted(src_index, src_index[min(start + step, n_out) - 1],
                                   side="right"))
        shown, capture_of = np.unique(src_index[start:stop], return_inverse=True)
        unit = to_unit(source[shown].transpose(1, 2, 0, 3).reshape(n_pix, -1))
        warped = ((warp @ unit) * gain).reshape(height, width, -1, 3).transpose(2, 0, 1, 3)
        observed = warped[capture_of]
        if params.noise_sigma > 0.0:
            for k, frame in enumerate(observed, start):
                key[1] = k
                philox.state = fresh
                frame += rng.normal(0.0, params.noise_sigma, size=frame.shape)
        captured[start:stop] = quantize_unit(observed, params.quantizer_bits)
        start = stop
    return captured
