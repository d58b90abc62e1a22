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

from .bfrs import FIELD_MAX
from .channel import ChannelGeometry, ChannelParams
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


def _take(entries: dict[str, str], key: str, parse, default=None):
    if key not in entries:
        return default
    raw = entries.pop(key)
    try:
        return parse(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{key}: cannot parse {raw!r} ({exc})") from None


def _section(entries: dict[str, str], prefix: str, parsers: dict) -> dict:
    """Parse the keys under prefix that entries sets, as keyword arguments."""
    return {name: _take(entries, prefix + name, parse)
            for name, parse in parsers.items() if prefix + name in entries}


def _parse_bool(raw: str) -> bool:
    try:
        return _BOOL_VALUES[raw.lower()]
    except KeyError:
        raise ValueError("expected true/false") from None


def _parse_rate(raw: str) -> Fraction:
    """A decimal or exact rational like 30000/1001 that a BFRS header can store."""
    rate = Fraction(raw)
    if max(abs(rate.numerator), rate.denominator) > FIELD_MAX:
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


# Keys per section, in the order they are parsed and checked, each under the
# name of its field (channel.seed sets ChannelParams.rng_seed).
_MODULATION_KEYS = {"m": int, "symbol_duration_frames": int, "depth": float,
                    "channel": Color.parse, "frame_rate": _parse_rate,
                    "allow_visible_depth": _parse_bool}
_GEOMETRY_KEYS = {"distance_m": float, "phi_rad": float, "theta_rad": float}
_CAPTURE_KEYS = {"noise_sigma": float, "affine": _parse_matrix,
                 "camera_fps": _parse_rate, "quantizer_bits": int, "seed": int}


def build_config(entries: dict[str, str]) -> RunConfig:
    """Assemble a RunConfig from parsed entries; a key the entries leave out
    keeps its parameter type's default."""
    entries = dict(entries)
    try:
        modulation = ModulationParams(**_section(entries, "modulation.", _MODULATION_KEYS))
        geometry = ChannelGeometry(**_section(entries, "channel.", _GEOMETRY_KEYS))
        capture = _section(entries, "channel.", _CAPTURE_KEYS)
        if "seed" in capture:
            capture["rng_seed"] = capture.pop("seed")
        channel = ChannelParams(geometry=geometry, **capture)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    carrier_name = _take(entries, "carrier.name", str, "gradient")
    carrier_width = _take(entries, "carrier.width", int, 160)
    carrier_height = _take(entries, "carrier.height", int, 120)
    region = _take(entries, "decoder.region", _parse_region)
    if entries:
        unknown = ", ".join(sorted(entries))
        raise ConfigError(f"unknown config keys: {unknown}")
    return RunConfig(modulation=modulation, channel=channel,
                     carrier_name=carrier_name, carrier_width=carrier_width,
                     carrier_height=carrier_height, region=region)


def load_config(path) -> RunConfig:
    """Read and validate a key=value config file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return build_config(parse_config_text(text))
