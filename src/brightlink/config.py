"""Flat key=value run configuration shared by the command-line tools.

Example:

    # modem setup
    modulation.m = 2
    modulation.depth = 0.03
    channel.distance_m = 6.0
    channel.noise_sigma = 0.005

Unknown keys are rejected so typos fail loudly instead of silently keeping a
default.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .channel import ChannelGeometry, ChannelParams, identity_homography
from .core import Color, ModulationParams


class ConfigError(ValueError):
    """A config file could not be parsed or validated."""


@dataclass(frozen=True)
class RunConfig:
    modulation: ModulationParams
    channel: ChannelParams
    carrier_name: str
    carrier_width: int
    carrier_height: int
    region: tuple[int, int, int, int] | None
    reference_payload: Path | None


_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False,
                "yes": True, "no": False}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse key = value lines; '#' starts a comment, blank lines are skipped."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def _take(entries: dict[str, str], key: str, parse, default):
    if key not in entries:
        return default
    raw = entries.pop(key)
    try:
        return parse(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{key}: cannot parse {raw!r} ({exc})") from None


def _parse_bool(raw: str) -> bool:
    try:
        return _BOOL_VALUES[raw.lower()]
    except KeyError:
        raise ValueError("expected true/false") from None


def _parse_rate(raw: str) -> Fraction:
    """A decimal or exact rational like 30000/1001 that a BFRS header can store."""
    rate = Fraction(raw)
    if max(abs(rate.numerator), rate.denominator) > 0xFFFFFFFF:
        raise ValueError(f"{rate} does not fit the 32-bit rate fields of a BFRS header")
    return rate


def _parse_matrix(raw: str) -> np.ndarray:
    parts = raw.split()
    if len(parts) != 9:
        raise ValueError(f"expected 9 whitespace-separated numbers, got {len(parts)}")
    return np.array([float(p) for p in parts], dtype=np.float64).reshape(3, 3)


def _parse_region(raw: str) -> tuple[int, int, int, int]:
    parts = raw.split()
    if len(parts) != 4:
        raise ValueError(f"expected 'x y w h', got {len(parts)} values")
    return tuple(int(p) for p in parts)


def build_config(entries: dict[str, str]) -> RunConfig:
    """Assemble a RunConfig from parsed entries, applying defaults."""
    entries = dict(entries)
    try:
        modulation = ModulationParams(
            m=_take(entries, "modulation.m", int, 2),
            symbol_duration_frames=_take(entries, "modulation.symbol_duration_frames",
                                         int, 6),
            depth=_take(entries, "modulation.depth", float, 0.03),
            channel=_take(entries, "modulation.channel", Color.parse, Color.RED),
            frame_rate=_take(entries, "modulation.frame_rate", _parse_rate, Fraction(30)),
            allow_visible_depth=_take(entries, "modulation.allow_visible_depth",
                                      _parse_bool, False),
        )
        geometry = ChannelGeometry(
            distance_m=_take(entries, "channel.distance_m", float, 1.0),
            phi_rad=_take(entries, "channel.phi_rad", float, 0.0),
            theta_rad=_take(entries, "channel.theta_rad", float, 0.0),
            display_area_m2=_take(entries, "channel.display_area_m2", float, 0.11),
            aperture_area_m2=_take(entries, "channel.aperture_area_m2", float, 2.0e-5),
        )
        channel = ChannelParams(
            geometry=geometry,
            noise_sigma=_take(entries, "channel.noise_sigma", float, 0.0),
            affine=_take(entries, "channel.affine", _parse_matrix,
                         identity_homography()),
            camera_fps=_take(entries, "channel.camera_fps", _parse_rate, Fraction(30)),
            quantizer_bits=_take(entries, "channel.quantizer_bits", int, 8),
            rng_seed=_take(entries, "channel.seed", int, 0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    carrier_name = _take(entries, "carrier.name", str, "gradient")
    carrier_width = _take(entries, "carrier.width", int, 160)
    carrier_height = _take(entries, "carrier.height", int, 120)
    region = _take(entries, "decoder.region", _parse_region, None)
    reference = _take(entries, "decoder.reference_payload", Path, None)
    if entries:
        unknown = ", ".join(sorted(entries))
        raise ConfigError(f"unknown config keys: {unknown}")
    return RunConfig(modulation=modulation, channel=channel,
                     carrier_name=carrier_name, carrier_width=carrier_width,
                     carrier_height=carrier_height, region=region,
                     reference_payload=reference)


def load_config(path) -> RunConfig:
    """Read and validate a key=value config file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return build_config(parse_config_text(text))
