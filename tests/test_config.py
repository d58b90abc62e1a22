import math
from dataclasses import MISSING, fields
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from brightlink.channel import ChannelParams
from brightlink.config import ConfigError, build_config, load_config, parse_config_text
from brightlink.core import Color, ModulationParams

DEMO_TEXT = """
# demo link setup
modulation.m = 2
modulation.symbol_duration_frames = 6
modulation.depth = 0.03
modulation.channel = red
modulation.frame_rate = 30
channel.distance_m = 6.0
channel.noise_sigma = 0.005
channel.camera_fps = 30
channel.seed = 7
carrier.name = gradient
carrier.width = 160
carrier.height = 120
"""


class TestParseText:
    def test_key_values_with_comments(self):
        entries = parse_config_text("a.b = 1  # trailing\n\n# full line\nc.d = x y\n")
        assert entries == {"a.b": "1", "c.d": "x y"}

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("not a pair")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("a = 1\na = 2")

    def test_empty_value(self):
        with pytest.raises(ConfigError, match="empty"):
            parse_config_text("a =")


class TestBuildConfig:
    def test_defaults(self):
        config = build_config({})
        assert config.modulation.m == 2
        assert config.modulation.depth == 0.03
        assert config.channel.quantizer_bits == 8
        assert config.carrier_name == "gradient"
        assert config.region is None
        assert config.modulation.frame_rate == Fraction(30)
        assert config.channel.camera_fps == Fraction(30)

    def test_empty_config_keeps_every_dataclass_default(self):
        config = build_config({})
        for params in (config.modulation, config.channel.geometry, config.channel):
            for f in fields(params):
                default = f.default_factory() if f.default is MISSING else f.default
                value = getattr(params, f.name)
                assert type(value) is type(default), f.name
                if isinstance(default, np.ndarray):
                    assert np.array_equal(value, default), f.name
                else:
                    assert value == default, f.name

    @pytest.mark.parametrize("key, raw, field, expected", [
        ("modulation.m", "4", "modulation.m", 4),
        ("modulation.symbol_duration_frames", "3",
         "modulation.symbol_duration_frames", 3),
        ("modulation.depth", "0.02", "modulation.depth", 0.02),
        ("modulation.channel", "green", "modulation.channel", Color.GREEN),
        ("modulation.frame_rate", "60", "modulation.frame_rate", Fraction(60)),
        ("modulation.allow_visible_depth", "yes", "modulation.allow_visible_depth", True),
        ("channel.distance_m", "2.5", "channel.geometry.distance_m", 2.5),
        ("channel.phi_rad", "0.25", "channel.geometry.phi_rad", 0.25),
        ("channel.theta_rad", "0.5", "channel.geometry.theta_rad", 0.5),
        ("channel.noise_sigma", "0.01", "channel.noise_sigma", 0.01),
        ("channel.affine", "1 0 2  0 1 3  0 0 1", "channel.affine",
         [[1, 0, 2], [0, 1, 3], [0, 0, 1]]),
        ("channel.camera_fps", "30000/1001", "channel.camera_fps", Fraction(30000, 1001)),
        ("channel.quantizer_bits", "12", "channel.quantizer_bits", 12),
        ("channel.seed", "42", "channel.rng_seed", 42),
    ])
    def test_each_key_sets_its_field(self, key, raw, field, expected):
        path = field.split(".")
        assert not np.array_equal(reduce(getattr, path, build_config({})), expected)
        assert np.array_equal(reduce(getattr, path, build_config({key: raw})), expected)

    def test_demo_text(self):
        config = build_config(parse_config_text(DEMO_TEXT))
        assert config.modulation.channel is Color.RED
        assert config.modulation.symbol_duration_frames == 6
        assert config.channel.geometry.distance_m == 6.0
        assert config.channel.noise_sigma == 0.005
        assert config.channel.rng_seed == 7
        assert config.carrier_width == 160

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            build_config({"modulation.n": "2"})
        # A reference payload file is given to decode with --reference.
        with pytest.raises(ConfigError, match="decoder.reference_payload"):
            build_config({"decoder.reference_payload": "payload.bin"})

    def test_bad_value_reports_key(self):
        with pytest.raises(ConfigError, match="modulation.m"):
            build_config({"modulation.m": "two"})

    @pytest.mark.parametrize("entries, message", [
        ({"modulation.m": "3", "modulation.depth": "x"}, "modulation.depth: cannot parse"),
        ({"channel.noise_sigma": "x", "modulation.m": "3"}, "power of two"),
        ({"channel.seed": "-1", "channel.distance_m": "0"}, "distance_m must be positive"),
        ({"carrier.width": "x", "channel.seed": "-1"}, "rng_seed must be an integer"),
        ({"modulation.zz": "1", "carrier.width": "x"}, "carrier.width: cannot parse"),
    ])
    def test_bad_keys_are_reported_in_section_order(self, entries, message):
        # A section parses all its keys before its type checks them; sections
        # go modulation, geometry, capture, carrier, then unknown keys.
        with pytest.raises(ConfigError, match=message):
            build_config(entries)

    def test_domain_validation_propagates(self):
        with pytest.raises(ConfigError, match="power of two"):
            build_config({"modulation.m": "3"})
        with pytest.raises(ConfigError, match="distance_m"):
            build_config({"channel.distance_m": "-1"})

    def test_affine_matrix(self):
        raw = "2 0 5  0 1 0  0 0 1"
        config = build_config({"channel.affine": raw})
        assert np.allclose(config.channel.affine,
                           [[2, 0, 5], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(ConfigError, match="9"):
            build_config({"channel.affine": "1 2 3"})

    def test_region(self):
        config = build_config({"decoder.region": "4 2 16 8"})
        assert config.region == (4, 2, 16, 8)
        with pytest.raises(ConfigError, match="x y w h"):
            build_config({"decoder.region": "4 2 16"})

    def test_bool_values(self):
        config = build_config({"modulation.allow_visible_depth": "true",
                               "modulation.depth": "0.2"})
        assert config.modulation.depth == 0.2
        with pytest.raises(ConfigError, match="true/false"):
            build_config({"modulation.allow_visible_depth": "maybe"})

    def test_rational_frame_rates(self):
        config = build_config({"modulation.frame_rate": "29.97",
                               "channel.camera_fps": "30000/1001"})
        assert config.modulation.frame_rate == Fraction(2997, 100)
        assert isinstance(config.modulation.frame_rate, Fraction)
        assert config.channel.camera_fps == Fraction(30000, 1001)
        assert isinstance(config.channel.camera_fps, Fraction)

    @pytest.mark.parametrize("key", ["modulation.frame_rate", "channel.camera_fps"])
    def test_rate_beyond_the_bfrs_header_is_rejected(self, key):
        # 29970029970029/10^12 needs more than the header's 32 bits per field.
        with pytest.raises(ConfigError, match=f"{key}.*32-bit"):
            build_config({key: "29.970029970029"})
        assert build_config({key: "4294967295/4294967294"})

    def test_quantizer_bits(self):
        config = build_config({"channel.quantizer_bits": "16"})
        assert config.channel.quantizer_bits == 16
        assert build_config({"channel.quantizer_bits": "24"}).channel.quantizer_bits == 24
        with pytest.raises(ConfigError, match="quantizer_bits"):
            build_config({"channel.quantizer_bits": "40"})


class TestExactRates:
    @pytest.mark.parametrize("rate", [math.nan, math.inf, 0, -1, "abc"])
    def test_bad_rates_raise(self, rate):
        with pytest.raises(ValueError, match="frame_rate must be positive"):
            ModulationParams(frame_rate=rate)
        with pytest.raises(ValueError, match="camera_fps must be positive"):
            ChannelParams(camera_fps=rate)

    def test_int_float_and_fraction_rates_are_equal(self):
        # A numpy integer becomes a Python int, which exact arithmetic cannot overflow.
        rates = (30.0, 30, Fraction(30), np.int64(30))
        modulations = [ModulationParams(frame_rate=r) for r in rates]
        cameras = [ChannelParams(camera_fps=r).camera_fps for r in rates]
        assert all(m == modulations[0] for m in modulations)
        assert cameras == [Fraction(30)] * 4
        assert all(type(rate) is Fraction and type(rate.numerator) is int
                   for rate in [m.frame_rate for m in modulations] + cameras)


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "demo.cfg"
    path.write_text(DEMO_TEXT, encoding="utf-8")
    config = load_config(path)
    assert config.channel.geometry.distance_m == 6.0


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.cfg")
