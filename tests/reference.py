"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way on purpose and, except
transmit_reference, must not call into brightlink: these are the oracles the
tests compare against. transmit_reference is the earlier per-capture channel
loop, kept to check the block walk that replaced it; it reuses the package's
resampling map, gain and quantizer, which have oracles of their own here.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

# Reflected CRC-32 polynomial (the zip/png one).
_CRC_POLY = 0xEDB88320


def crc32_reference(data: bytes) -> int:
    """Bit-at-a-time CRC-32: init 0xFFFFFFFF, reflected, final complement."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ _CRC_POLY
            else:
                crc >>= 1
    return crc ^ 0xFFFFFFFF


def pack_bits_reference(bits) -> bytes:
    """MSB-first bit packing with zero padding, one bit at a time."""
    out = bytearray()
    acc = 0
    count = 0
    for bit in bits:
        acc = (acc << 1) | int(bit)
        count += 1
        if count == 8:
            out.append(acc)
            acc = 0
            count = 0
    if count:
        out.append(acc << (8 - count))
    return bytes(out)


def q_reference(x: float) -> float:
    """Gaussian tail probability by direct numerical integration of the pdf."""
    pdf = lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)
    value, _ = quad(pdf, x, np.inf)
    return value


def surface_integrated_gain(distance: float, phi: float, theta: float,
                            display_area: float, aperture_area: float,
                            n: int = 64) -> float:
    """Exact link gain by double surface integration over both apertures.

    The display is a square of the given area centered at the origin, tilted
    by phi about the y axis; the aperture is a square centered at (0, 0, d),
    tilted by theta about the x axis. Each surface is split into an n-by-n
    grid of elements and every element pair contributes
    cos(alpha) * cos(beta) / (pi * r^2) with the true per-pair distance r and
    incidence angles alpha/beta against the surface normals.
    """
    l_disp = math.sqrt(display_area)
    l_aper = math.sqrt(aperture_area)

    n_disp = np.array([math.sin(phi), 0.0, math.cos(phi)])
    u_disp = np.array([math.cos(phi), 0.0, -math.sin(phi)])
    v_disp = np.array([0.0, 1.0, 0.0])

    center = np.array([0.0, 0.0, distance])
    n_aper = np.array([0.0, math.sin(theta), -math.cos(theta)])
    u_aper = np.array([1.0, 0.0, 0.0])
    v_aper = np.array([0.0, math.cos(theta), math.sin(theta)])

    ticks = (np.arange(n) + 0.5) / n - 0.5
    da, db = np.meshgrid(ticks * l_disp, ticks * l_disp, indexing="ij")
    display_pts = da.ravel()[:, None] * u_disp + db.ravel()[:, None] * v_disp
    aa, ab = np.meshgrid(ticks * l_aper, ticks * l_aper, indexing="ij")
    aperture_pts = center + aa.ravel()[:, None] * u_aper + ab.ravel()[:, None] * v_aper

    # Per pair (p, q): cos(alpha) = (q - p) . n_disp / r and
    # cos(beta) = (p - q) . n_aper / r, so the integrand
    # cos(alpha) cos(beta) / (pi r^2) equals the product of the two (clipped)
    # dot products over pi r^4. Everything decomposes into outer sums, which
    # sidesteps materializing the pairwise difference vectors. Chunking the
    # display axis bounds peak memory.
    q_norm2 = np.sum(aperture_pts**2, axis=1)
    q_dot_nd = aperture_pts @ n_disp
    q_dot_na = aperture_pts @ n_aper
    total = 0.0
    chunk = 64
    for start in range(0, display_pts.shape[0], chunk):
        p = display_pts[start:start + chunk]
        r2 = np.add.outer(np.sum(p**2, axis=1), q_norm2) - 2.0 * p @ aperture_pts.T
        facing_disp = np.subtract.outer(-(p @ n_disp), -q_dot_nd)
        facing_aper = np.subtract.outer(p @ n_aper, q_dot_na)
        np.clip(facing_disp, 0.0, None, out=facing_disp)
        np.clip(facing_aper, 0.0, None, out=facing_aper)
        total += float(np.sum(facing_disp * facing_aper / (math.pi * r2 * r2)))
    element_area = (display_area / n**2) * (aperture_area / n**2)
    return total * element_area


def nearest_level_index(value: float, levels) -> int:
    """Index of the closest level; ties go to the higher index."""
    best = 0
    best_dist = abs(value - levels[0])
    for i in range(1, len(levels)):
        dist = abs(value - levels[i])
        if dist <= best_dist:
            best = i
            best_dist = dist
    return best


def bilinear_pull_reference(image: np.ndarray, pull) -> np.ndarray:
    """Resample an HxWxC float image one pixel at a time.

    Output pixel (x, y) reads the source at pull @ (x, y, 1) by bilinear
    interpolation; corners outside the source read as black.
    """
    h, w = image.shape[:2]
    out = np.zeros(image.shape, dtype=np.float64)
    for y in range(h):
        for x in range(w):
            u, v, s = (pull[r][0] * x + pull[r][1] * y + pull[r][2] for r in range(3))
            sx, sy = u / s, v / s
            x0, y0 = math.floor(sx), math.floor(sy)
            fx, fy = sx - x0, sy - y0
            for cx, cy, weight in ((x0, y0, (1 - fx) * (1 - fy)),
                                   (x0 + 1, y0, fx * (1 - fy)),
                                   (x0, y0 + 1, (1 - fx) * fy),
                                   (x0 + 1, y0 + 1, fx * fy)):
                if 0 <= cx < w and 0 <= cy < h:
                    out[y, x] += weight * image[cy, cx]
    return out


def central_window_reference(offset: int, r, symbol: int, n_samples: int) -> np.ndarray:
    """Sample indices in the middle half of one symbol period, one symbol at a time.

    Indices run over [ceil(offset + (symbol + 1/4) r), ceil(offset + (symbol + 3/4) r));
    an empty range falls back to the single sample floor(offset + (symbol + 1/2) r).
    Indices outside the trace are dropped. The bounds are exact rationals; a
    float r stands for the binary value it holds.
    """
    r = Fraction(r)
    start = offset + (symbol + Fraction(1, 4)) * r
    stop = offset + (symbol + Fraction(3, 4)) * r
    indices = list(range(math.ceil(start), math.ceil(stop)))
    if not indices:
        indices = [math.floor(offset + (symbol + Fraction(1, 2)) * r)]
    return np.array([i for i in indices if 0 <= i < n_samples], dtype=np.int64)


def sliding_correlation_reference(values, template) -> np.ndarray:
    """Pearson correlation of template against every window, one window at a time.

    Windows without variance read -inf.
    """
    values = np.asarray(values, dtype=np.float64)
    t = np.asarray(template, dtype=np.float64) - np.mean(template)
    size = t.size
    corr = np.full(values.size - size + 1, -np.inf)
    for k in range(corr.size):
        window = values[k:k + size] - values[k:k + size].mean()
        norm = math.sqrt(float(np.sum(window**2)) * float(np.sum(t**2)))
        if norm > 0.0:
            corr[k] = float(np.sum(window * t)) / norm
    return corr


def near_integer(x) -> np.ndarray:
    """Where float results lie within 1e-9 of an integer: ties that float
    rounding may resolve either way, which exact arithmetic settles."""
    return np.abs(x - np.round(x)) < 1e-9


def shown_frame_reference(k: int, display_fps, camera_fps, n_in: int) -> int:
    """Display frame on screen at capture k's instant (k + 1/2) / camera_fps.

    Python integers throughout: frame floor((2k + 1) display / (2 camera)),
    so an instant exactly on a frame boundary shows the later frame. Floats
    stand for the binary values they hold.
    """
    display, camera = Fraction(display_fps), Fraction(camera_fps)
    numerator = (2 * k + 1) * display.numerator * camera.denominator
    denominator = 2 * display.denominator * camera.numerator
    return min(numerator // denominator, n_in - 1)


def capture_count_reference(n_in: int, display_fps, camera_fps) -> int:
    """Captures of an n_in-frame clip: its duration times the camera rate, rounded
    half to even, and at least one."""
    return max(1, round(n_in * Fraction(camera_fps) / Fraction(display_fps)))


def transmit_reference(frames: np.ndarray, display_fps, params) -> np.ndarray:
    """Capture a clip one frame at a time, as the channel did before its block walk.

    It keeps a one-frame cache of the last warped display frame and skips the
    warp for an identity homography. Each capture k shows the display frame
    of shown_frame_reference and adds noise from its own Philox stream keyed
    (seed, k).
    """
    from brightlink.channel import normalized_gain, resampling_map
    from brightlink.core import quantize_unit, to_unit

    source = np.asarray(frames)
    n_in = source.shape[0]
    n_out = capture_count_reference(n_in, display_fps, params.camera_fps)
    src_index = [shown_frame_reference(k, display_fps, params.camera_fps, n_in)
                 for k in range(n_out)]

    gain = normalized_gain(params.geometry)
    # An identity mapping resamples every pixel from itself; skip the map.
    warp = None
    if params.affine[2, 2] == 0.0 or not np.array_equal(
            params.affine / params.affine[2, 2], np.eye(3)):
        warp = resampling_map(np.linalg.inv(params.affine), *source.shape[1:3])

    captured = []
    # Capture times are monotonic, so one cached source frame is enough.
    cached_idx = -1
    cached_unit = None
    for k in range(n_out):
        idx = int(src_index[k])
        if idx != cached_idx:
            unit = to_unit(source[idx])
            if warp is not None:
                flat = unit.reshape(-1, 3)
                index, weight = warp
                out = flat[index[0]] * weight[0, :, None]
                for corner in range(1, 4):
                    out += flat[index[corner]] * weight[corner, :, None]
                unit = out.reshape(unit.shape)
            cached_idx, cached_unit = idx, unit * gain
        observed = cached_unit
        if params.noise_sigma > 0.0:
            key = np.array([params.rng_seed, k], dtype=np.uint64)
            noise = np.random.Generator(np.random.Philox(key=key)).normal(
                0.0, params.noise_sigma, size=observed.shape)
            observed = observed + noise
        captured.append(quantize_unit(observed, params.quantizer_bits))
    return np.stack(captured)
