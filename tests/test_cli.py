import hashlib
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from brightlink import config as config_module
from brightlink.bfrs import read_bfrs, write_bfrs
from brightlink.cli import (
    EXIT_FORMAT,
    EXIT_INTEGRITY,
    EXIT_OK,
    EXIT_PIPELINE,
    EXIT_SYNC,
    EXIT_USAGE,
    build_parser,
    main,
)
from brightlink.config import RunConfig, load_config
from brightlink.decoder import decode_frames
from brightlink.encoder import make_carrier

DEMO_CFG = """
modulation.m = 2
modulation.symbol_duration_frames = 6
modulation.depth = 0.03
modulation.frame_rate = 30
channel.distance_m = 6.0
channel.noise_sigma = 0.005
channel.camera_fps = 30
channel.seed = 7
carrier.name = gradient
carrier.width = 64
carrier.height = 48
"""

PAYLOAD = "1010101010101010"


@pytest.fixture
def demo_cfg(tmp_path):
    path = tmp_path / "demo.cfg"
    path.write_text(DEMO_CFG, encoding="utf-8")
    return path


def with_key(text, key, value):
    """Config text with key's line, if any, replaced by key = value."""
    lines = [line for line in text.splitlines() if not line.startswith(f"{key} ")]
    return "\n".join([*lines, f"{key} = {value}"]) + "\n"


def run_link(tmp_path, cfg, payload=PAYLOAD):
    tx = tmp_path / "tx.bfrs"
    rx = tmp_path / "rx.bfrs"
    report = tmp_path / "report.txt"
    csv = tmp_path / "series.csv"
    assert main(["encode", "--config", str(cfg), "--payload-bits", payload,
                 "--out", str(tx)]) == EXIT_OK
    assert main(["channel", "--config", str(cfg), "--in", str(tx),
                 "--out", str(rx)]) == EXIT_OK
    code = main(["decode", "--config", str(cfg), "--in", str(rx),
                 "--report", str(report), "--csv", str(csv),
                 "--reference-bits", payload])
    return code, tx, rx, report, csv


def parse_report(path):
    entries = {}
    for line in path.read_text().splitlines():
        key, value = line.split(" = ", 1)
        entries[key] = value
    return entries


WARPED_M4_CFG = """
modulation.m = 4
modulation.symbol_duration_frames = 3
channel.noise_sigma = 0.003
channel.affine = 0.95 -0.066 2.7  0.066 0.95 -0.35  0.0002 -0.0001 1
channel.seed = 3
carrier.width = 64
carrier.height = 48
decoder.region = 8 6 48 36
"""

NTSC_M8_CFG = """
modulation.m = 8
modulation.symbol_duration_frames = 5
modulation.depth = 0.09
channel.camera_fps = 30000/1001
channel.noise_sigma = 0.001
channel.seed = 9
carrier.width = 48
carrier.height = 36
"""

# The warped link on the green plane at 16 bits, which only the sweep can send.
GREEN_16BIT_CFG = WARPED_M4_CFG + """modulation.channel = green
channel.quantizer_bits = 16
"""


class TestLinkRoundTrip:
    def test_encode_channel_decode(self, tmp_path, demo_cfg, capsys):
        code, tx, rx, report, csv = run_link(tmp_path, demo_cfg)
        assert code == EXIT_OK
        entries = parse_report(report)
        assert entries["crc_ok"] == "true"
        assert entries["payload_bits"] == "16"
        assert entries["payload_hex"] == "aaaa"
        assert entries["ber_vs_reference"] == "0"
        lines = csv.read_text().splitlines()
        assert lines[0] == "frame_index,time_s,amplitude"
        assert len(lines) == 1 + 576
        out = capsys.readouterr().out
        assert "5 bit/s" in out
        assert "crc_ok = true" in out

    def test_decode_without_series_csv(self, tmp_path, demo_cfg):
        _, _, rx, report, csv = run_link(tmp_path, demo_cfg)
        report.unlink()
        csv.unlink()
        code = main(["decode", "--config", str(demo_cfg), "--in", str(rx),
                     "--report", str(report)])
        assert code == EXIT_OK
        assert parse_report(report)["crc_ok"] == "true"
        assert not csv.exists()

    def test_payload_out_round_trips_bytes(self, tmp_path, demo_cfg):
        payload_file = tmp_path / "secret.bin"
        payload_file.write_bytes(b"\xde\xad\xbe\xef")
        tx = tmp_path / "tx.bfrs"
        rx = tmp_path / "rx.bfrs"
        recovered = tmp_path / "recovered.bin"
        assert main(["encode", "--config", str(demo_cfg), "--payload",
                     str(payload_file), "--out", str(tx)]) == EXIT_OK
        assert main(["channel", "--config", str(demo_cfg), "--in", str(tx),
                     "--out", str(rx)]) == EXIT_OK
        assert main(["decode", "--config", str(demo_cfg), "--in", str(rx),
                     "--report", str(tmp_path / "r.txt"),
                     "--csv", str(tmp_path / "s.csv"),
                     "--payload-out", str(recovered)]) == EXIT_OK
        assert recovered.read_bytes() == b"\xde\xad\xbe\xef"

    def test_channel_is_deterministic_per_seed(self, tmp_path):
        captures = []
        for sub, seed in (("a", 5), ("b", 5), ("c", 6)):
            (tmp_path / sub).mkdir()
            cfg = tmp_path / sub / "demo.cfg"
            cfg.write_text(with_key(DEMO_CFG, "channel.seed", seed), encoding="utf-8")
            captures.append(run_link(tmp_path / sub, cfg)[2].read_bytes())
        assert captures[0] == captures[1] != captures[2]

    def test_a_seed_does_not_reach_the_next_call(self, tmp_path, capsys):
        # main parses every call with one parser; an option given to one call
        # must not stay set for the next.
        ber_args = ["ber", "--q", "1", "--symbols", "10000"]
        assert main([*ber_args, "--seed", "5"]) == EXIT_OK
        seeded = capsys.readouterr().out
        assert main(ber_args) == EXIT_OK
        unseeded = capsys.readouterr().out
        assert build_parser() is build_parser()
        build_parser.cache_clear()
        assert main(ber_args) == EXIT_OK
        assert unseeded == capsys.readouterr().out
        assert unseeded != seeded

    def test_corrupted_capture_fails_integrity(self, tmp_path, demo_cfg, capsys):
        code, tx, rx, report, csv = run_link(tmp_path, demo_cfg)
        frames, fps = read_bfrs(rx)
        # Blank a payload symbol (frames 300-305 sit past the header).
        frames[300:306, :, :, 0] = 0
        write_bfrs(rx, frames, fps)
        code = main(["decode", "--config", str(demo_cfg), "--in", str(rx),
                     "--report", str(report), "--csv", str(csv)])
        assert code == EXIT_INTEGRITY
        assert parse_report(report)["crc_ok"] == "false"

    def test_a_crc_failure_against_a_reference_is_still_an_integrity_error(self, tmp_path,
                                                                          demo_cfg, capsys):
        # The reference bits pass through the usage converter; the CRC failure
        # that follows must keep its own exit code, not become a usage error.
        _, _, rx, report, _ = run_link(tmp_path, demo_cfg)
        frames, fps = read_bfrs(rx)
        frames[300:306, :, :, 0] = 0
        write_bfrs(rx, frames, fps)
        capsys.readouterr()
        code = main(["decode", "--config", str(demo_cfg), "--in", str(rx),
                     "--report", str(report), "--reference-bits", PAYLOAD])
        assert code == EXIT_INTEGRITY
        assert capsys.readouterr().err == "error: CRC check failed; payload is unreliable\n"


# 2 frames per symbol at 30 -> 30 fps: each central window holds one capture.
ONE_SAMPLE_CFG = """
modulation.m = 2
modulation.symbol_duration_frames = 2
channel.noise_sigma = 0.02
channel.camera_fps = 30
carrier.name = gradient
carrier.width = 32
carrier.height = 24
"""


def test_one_sample_windows_print_a_real_sigma_and_pe_theory(tmp_path, capsys):
    cfg = tmp_path / "one.cfg"
    cfg.write_text(ONE_SAMPLE_CFG, encoding="utf-8")
    payload = "1010110011110000" * 4
    code, _, _, report, _ = run_link(tmp_path, cfg, payload)
    assert code == EXIT_OK
    entries = parse_report(report)
    assert entries["crc_ok"] == "true"
    assert float(entries["sigma"]) > 0.0
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--distances", "1,1.5,2",
                 "--payload-bits", payload, "--out", str(out)]) == EXIT_OK
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 3 and all(float(row[2]) > 0.0 for row in rows)


class TestErrorPaths:
    def test_missing_config(self, tmp_path):
        code = main(["encode", "--config", str(tmp_path / "nope.cfg"),
                     "--payload-bits", "1", "--out", str(tmp_path / "x.bfrs")])
        assert code == EXIT_USAGE

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("modulation.mm = 2\n")
        code = main(["encode", "--config", str(cfg), "--payload-bits", "1",
                     "--out", str(tmp_path / "x.bfrs")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("key", ["channel.camera_fps", "modulation.frame_rate"])
    def test_rate_beyond_float_range_is_a_config_error(self, tmp_path, capsys, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = 1e400\n", encoding="utf-8")
        code = main(["encode", "--config", str(cfg), "--payload-bits", "1010",
                     "--out", str(tmp_path / "tx.bfrs")])
        assert code == EXIT_USAGE
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["channel.camera_fps", "modulation.frame_rate"])
    def test_rate_the_bfrs_header_cannot_store_is_a_config_error(self, tmp_path, capsys,
                                                                 key):
        # The rate is 29970029970029/10^12; its numerator needs 45 bits.
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = 29.970029970029\n", encoding="utf-8")
        code = main(["encode", "--config", str(cfg), "--payload-bits", "1010",
                     "--out", str(tmp_path / "tx.bfrs")])
        assert code == EXIT_USAGE
        assert key in capsys.readouterr().err
        assert not (tmp_path / "tx.bfrs").exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("command", ["ber"])
    def test_seed_outside_64_bits_is_a_usage_error(self, capsys, command, seed):
        assert main([command, "--q", "1", "--seed", seed]) == EXIT_USAGE
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["channel", "sweep"])
    def test_the_config_alone_seeds_the_channel(self, tmp_path, demo_cfg, capsys, command):
        # channel.seed is the one name for the noise seed of channel and sweep.
        args = {
            "channel": ["--in", str(tmp_path / "tx.bfrs"), "--out", str(tmp_path / "rx.bfrs")],
            "sweep": ["--distances", "1,2,3", "--out", str(tmp_path / "sweep.csv")],
        }[command]
        assert main([command, "--config", str(demo_cfg), *args, "--seed", "5"]) == EXIT_USAGE
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["channel", "--seed", "5"], "the following arguments are required: --config"),
        (["decode", "--in", "rx.bfrs", "--report", "r.txt"],
         "the following arguments are required: --config"),
        (["ber", "--q", "1", "--symbols", "x"], "argument --symbols: invalid int value: 'x'"),
        (["channel", "--config", "c", "--in", "i", "--out", "o", "--seed", "5"],
         "unrecognized arguments: --seed 5"),
        (["transmit"], "invalid choice: 'transmit'"),
        ([], "the following arguments are required: command"),
    ])
    def test_an_argparse_refusal_is_returned_not_raised(self, capsys, argv, message):
        assert main(argv) == EXIT_USAGE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["sweep", "-h"]])
    def test_help_is_returned_as_success(self, capsys, argv):
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: brightlink")

    @pytest.mark.parametrize("key, value, message", [
        ("carrier.name", "plaid", "unknown carrier 'plaid'"),
        ("carrier.width", "1", "at least 2x2, got 1x48"),
        ("carrier.height", "0", "at least 2x2, got 64x0"),
    ])
    @pytest.mark.parametrize("command", ["encode", "sweep"])
    def test_a_carrier_the_config_cannot_build_is_a_usage_error(self, tmp_path, capsys,
                                                                command, key, value,
                                                                message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(with_key(DEMO_CFG, key, value), encoding="utf-8")
        out = tmp_path / "out"
        args = {"encode": ["--payload-bits", PAYLOAD], "sweep": ["--distances", "1,2,4"]}
        code = main([command, "--config", str(cfg), *args[command], "--out", str(out)])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_a_carrier_file_is_used_whatever_the_carrier_keys_say(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(with_key(with_key(DEMO_CFG, "carrier.name", "plaid"),
                                "carrier.width", "1"), encoding="utf-8")
        carrier = tmp_path / "carrier.bfrs"
        write_bfrs(carrier, make_carrier("gray128", 8, 6, 600), 30)
        tx = tmp_path / "tx.bfrs"
        assert main(["encode", "--config", str(cfg), "--payload-bits", PAYLOAD,
                     "--carrier", str(carrier), "--out", str(tx)]) == EXIT_OK
        assert read_bfrs(tx)[0].shape == (600, 6, 8, 3)

    def test_bad_bfrs_file(self, tmp_path, demo_cfg):
        junk = tmp_path / "junk.bfrs"
        junk.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNKJUNK")
        code = main(["decode", "--config", str(demo_cfg), "--in", str(junk),
                     "--report", str(tmp_path / "r.txt"),
                     "--csv", str(tmp_path / "s.csv")])
        assert code == EXIT_FORMAT

    def test_unmodulated_input_fails_sync(self, tmp_path, demo_cfg):
        clip = tmp_path / "plain.bfrs"
        write_bfrs(clip, make_carrier("gray128", 64, 48, 200), 30)
        code = main(["decode", "--config", str(demo_cfg), "--in", str(clip),
                     "--report", str(tmp_path / "r.txt"),
                     "--csv", str(tmp_path / "s.csv")])
        assert code == EXIT_SYNC

    @pytest.mark.parametrize("key, value", [("channel.display_area_m2", "0.11"),
                                            ("channel.aperture_area_m2", "2e-5"),
                                            ("channel.quantizer_bits", "25")])
    def test_keys_that_no_capture_can_follow_are_usage_errors(self, tmp_path, capsys,
                                                             key, value):
        # The areas move no capture, and float32 cannot hold a 25-bit grid.
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(DEMO_CFG + f"{key} = {value}\n", encoding="utf-8")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--distances", "1,2,3",
                     "--out", str(out)]) == EXIT_USAGE
        assert key.split(".")[1] in capsys.readouterr().err
        assert not out.exists()

    def test_an_affine_past_the_float_range_fails_quietly(self, tmp_path, capsys):
        # Its determinant overflows, and rectifying through it pulls every pixel
        # but the first from far outside the frame: no numpy warning may reach
        # stderr, only the decode's own message, with a documented exit code.
        cfg = tmp_path / "far.cfg"
        cfg.write_text(DEMO_CFG + "channel.affine = 1e300 0 0 0 1e300 0 0 0 1\n")
        code, *_ = run_link(tmp_path, cfg)
        assert code == EXIT_SYNC
        assert capsys.readouterr().err == ("error: best preamble correlation 0.224 "
                                           "below 0.5; no transmission found\n")

    def test_sampling_guard_maps_to_pipeline_error(self, tmp_path):
        cfg = tmp_path / "slow.cfg"
        cfg.write_text(DEMO_CFG.replace("channel.camera_fps = 30",
                                        "channel.camera_fps = 8"))
        tx = tmp_path / "tx.bfrs"
        assert main(["encode", "--config", str(cfg), "--payload-bits", PAYLOAD,
                     "--out", str(tx)]) == EXIT_OK
        code = main(["channel", "--config", str(cfg), "--in", str(tx),
                     "--out", str(tmp_path / "rx.bfrs")])
        assert code == EXIT_PIPELINE

    def test_non_bfrs_quantizer_rejected_for_channel(self, tmp_path):
        cfg = tmp_path / "deep.cfg"
        cfg.write_text(DEMO_CFG + "channel.quantizer_bits = 16\n")
        tx = tmp_path / "tx.bfrs"
        assert main(["encode", "--config", str(cfg), "--payload-bits", PAYLOAD,
                     "--out", str(tx)]) == EXIT_OK
        code = main(["channel", "--config", str(cfg), "--in", str(tx),
                     "--out", str(tmp_path / "rx.bfrs")])
        assert code == EXIT_USAGE

    def test_a_capture_cut_short_is_an_integrity_error(self, tmp_path, capsys):
        cfg = tmp_path / "short.cfg"
        cfg.write_text("modulation.symbol_duration_frames = 3\n"
                       "carrier.width = 16\ncarrier.height = 12\n", encoding="utf-8")
        tx, rx, report = tmp_path / "tx.bfrs", tmp_path / "rx.bfrs", tmp_path / "r.txt"
        assert main(["encode", "--config", str(cfg), "--payload-bits", PAYLOAD,
                     "--out", str(tx)]) == EXIT_OK
        assert main(["channel", "--config", str(cfg), "--in", str(tx),
                     "--out", str(rx)]) == EXIT_OK
        frames, fps = read_bfrs(rx)
        assert len(frames) == 288
        write_bfrs(rx, frames[:-40], fps)
        capsys.readouterr()
        code = main(["decode", "--config", str(cfg), "--in", str(rx), "--report", str(report)])
        assert code == EXIT_INTEGRITY
        assert capsys.readouterr().err == ("error: header declares 16 payload bits "
                                           "but only 3 are present\n")
        assert not report.exists()

    @pytest.mark.parametrize("command, args, missing", [
        ("channel", ["--in", "{tmp}/tx.bfrs", "--out", "{tmp}/rx.bfrs"], "tx.bfrs"),
        ("decode", ["--in", "{tmp}/rx.bfrs", "--report", "{tmp}/r.txt"], "rx.bfrs"),
        ("encode", ["--payload-bits", PAYLOAD, "--out", "{tmp}/nodir/tx.bfrs"], "tx.bfrs"),
        ("encode", ["--payload", "{tmp}/p.bin", "--out", "{tmp}/tx.bfrs"], "p.bin"),
    ])
    def test_a_file_that_cannot_be_opened_is_a_usage_error(self, tmp_path, demo_cfg, capsys,
                                                           command, args, missing):
        args = [arg.format(tmp=tmp_path) for arg in args]
        assert main([command, "--config", str(demo_cfg), *args]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 2] No such file or directory") and missing in err

    def test_encode_without_a_payload_is_a_usage_error(self, tmp_path, demo_cfg, capsys):
        out = tmp_path / "tx.bfrs"
        assert main(["encode", "--config", str(demo_cfg), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == ("error: a payload is required "
                                           "(--payload-bits or --payload)\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, args", [
        ("encode", ["--payload-bits", "012", "--out", "{tmp}/out"]),
        ("decode", ["--in", "{tmp}/rx.bfrs", "--reference-bits", "2", "--report", "{tmp}/out"]),
        ("sweep", ["--distances", "1,2,3", "--payload-bits", "21", "--out", "{tmp}/out"]),
    ])
    def test_a_malformed_bit_string_is_a_usage_error(self, tmp_path, demo_cfg, capsys,
                                                     command, args):
        write_bfrs(tmp_path / "rx.bfrs", make_carrier("gray128", 8, 6, 4), 30)
        args = [arg.format(tmp=tmp_path) for arg in args]
        assert main([command, "--config", str(demo_cfg), *args]) == EXIT_USAGE
        assert "bit string may contain only 0 and 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_payload_sources_are_exclusive(self, tmp_path, demo_cfg):
        payload_file = tmp_path / "p.bin"
        payload_file.write_bytes(b"\x01")
        code = main(["encode", "--config", str(demo_cfg),
                     "--payload-bits", "10", "--payload", str(payload_file),
                     "--out", str(tmp_path / "x.bfrs")])
        assert code == EXIT_USAGE


# A 16x12 noisy link that decodes; each case adds base lines, if any, to it.
KEY_BASE_CFG = """
modulation.symbol_duration_frames = 3
channel.noise_sigma = 0.002
carrier.width = 16
carrier.height = 12
"""

# One value per config key, with the base lines that let the value show.
KEY_CASES = [
    ("modulation.m", "4", ""),
    ("modulation.symbol_duration_frames", "4", ""),
    ("modulation.depth", "0.05", ""),
    ("modulation.channel", "green", ""),
    ("modulation.frame_rate", "15", ""),
    ("modulation.allow_visible_depth", "true", "modulation.depth = 0.2"),
    ("channel.distance_m", "2", ""),
    ("channel.phi_rad", "0.5", ""),
    ("channel.theta_rad", "0.5", ""),
    ("channel.noise_sigma", "0.01", ""),
    ("channel.affine", "1 0 0.5  0 1 0.25  0 0 1", ""),
    ("channel.camera_fps", "45", ""),
    ("channel.quantizer_bits", "16", ""),
    ("channel.seed", "3", ""),
    ("carrier.name", "gray128", ""),
    ("carrier.width", "20", ""),
    ("carrier.height", "10", ""),
    ("decoder.region", "2 2 12 8", ""),
]


def test_the_key_cases_cover_every_config_key():
    tables = {"modulation.": config_module._MODULATION_KEYS,
              "channel.": config_module._GEOMETRY_KEYS | config_module._CAPTURE_KEYS}
    table_keys = {prefix + name for prefix, table in tables.items() for name in table}
    # The run config's other fields are read from these keys.
    assert [f.name for f in fields(RunConfig)] == ["modulation", "channel", "carrier_name",
                                                   "carrier_width", "carrier_height", "region"]
    other_keys = {"carrier.name", "carrier.width", "carrier.height", "decoder.region"}
    assert sorted(key for key, _, _ in KEY_CASES) == sorted(table_keys | other_keys)


@pytest.mark.parametrize("key, value, base", KEY_CASES)
def test_every_config_key_changes_an_artifact(tmp_path, capsys, key, value, base):
    # A key whose value moves no output byte and no exit code is a setting
    # that does nothing.
    def artifacts(text):
        cfg, tx, rx = tmp_path / "link.cfg", tmp_path / "tx.bfrs", tmp_path / "rx.bfrs"
        outputs = [tx, rx, tmp_path / "report.txt", tmp_path / "series.csv",
                   tmp_path / "sweep.csv"]
        for path in outputs:
            path.unlink(missing_ok=True)
        cfg.write_text(text, encoding="utf-8")
        codes = [main(["encode", "--config", str(cfg), "--payload-bits", "1011",
                       "--out", str(tx)]),
                 main(["channel", "--config", str(cfg), "--in", str(tx), "--out", str(rx)]),
                 main(["decode", "--config", str(cfg), "--in", str(rx),
                       "--report", str(outputs[2]), "--csv", str(outputs[3])]),
                 main(["sweep", "--config", str(cfg), "--distances", "1,1.5,2",
                       "--out", str(outputs[4])])]
        return codes, [path.read_bytes() if path.exists() else None for path in outputs]

    text = KEY_BASE_CFG + base + "\n"
    before, after = artifacts(text), artifacts(with_key(text, key, value))
    assert after[0][0] == EXIT_OK  # the config takes the value
    assert after != before


class TestSweepCommand:
    def test_writes_schema_and_slope(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("""
modulation.m = 2
modulation.symbol_duration_frames = 2
channel.noise_sigma = 0
channel.quantizer_bits = 16
carrier.name = gradient
carrier.width = 48
carrier.height = 32
""")
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", str(cfg),
                     "--distances", "1,2,4", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "d_m,delta_mu,pe_theory,pe_measured,ci_halfwidth"
        assert len(lines) == 4
        slope_line = capsys.readouterr().out.strip().splitlines()[-1]
        assert slope_line.startswith("slope = -2.0")

    def test_bad_distances(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("modulation.m = 2\n")
        code = main(["sweep", "--config", str(cfg), "--distances", "1,two",
                     "--out", str(tmp_path / "s.csv")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("distances, count", [("1,2", 2), ("3", 1), ("1,2,", 2),
                                                  (",", 0)])
    def test_fewer_than_three_distances_is_a_usage_error(self, tmp_path, capsys,
                                                         distances, count):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("modulation.m = 2\n")
        out = tmp_path / "s.csv"
        code = main(["sweep", "--config", str(cfg), "--distances", distances,
                     "--out", str(out)])
        assert code == EXIT_USAGE
        assert f"a sweep needs at least 3 distances, got {count}" in capsys.readouterr().err
        assert not out.exists()


    def test_a_camera_too_slow_for_the_symbols_fails_every_row_not_the_sweep(self,
                                                                            tmp_path,
                                                                            capsys):
        # 8 fps is under twice the 5 symbols/s: the pipeline refuses each
        # distance, which the sweep records per row; it is not a usage error.
        cfg = tmp_path / "slow.cfg"
        cfg.write_text(with_key(with_key(with_key(DEMO_CFG, "channel.camera_fps", "8"),
                                         "carrier.width", "16"), "carrier.height", "12"),
                       encoding="utf-8")
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(cfg), "--distances", "1,2,3",
                     "--out", str(out)]) == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 3 and all(row[1:] == ["nan"] * 4 for row in rows)
        captured = capsys.readouterr()
        assert captured.err.count("failed") == 3
        assert captured.out == "slope = nan\n"


class TestBerCommand:
    def test_table_matches_q_function(self, tmp_path, capsys):
        out = tmp_path / "ber.csv"
        code = main(["ber", "--q", "2", "--symbols", "50000", "--seed", "1",
                     "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "q,pe_theory,pe_mc,ci_halfwidth"
        q, pe_theory, pe_mc, ci = lines[1].split(",")
        assert float(pe_theory) == pytest.approx(0.022750131948, abs=1e-9)
        assert abs(float(pe_mc) - float(pe_theory)) < float(ci)

    def test_rejects_bad_q(self, tmp_path, capsys):
        assert main(["ber", "--q", "0"]) == EXIT_USAGE
        assert main(["ber", "--q", "abc"]) == EXIT_USAGE
        # sigma = 1/(2q) overflows to inf, or underflows to 0 from 2q = inf.
        out = tmp_path / "ber.csv"
        for q in ("1e-310", "1,1e308"):
            capsys.readouterr()
            assert main(["ber", "--q", q, "--out", str(out)]) == EXIT_USAGE
            assert "gives no positive finite sigma = 1/(2q)" in capsys.readouterr().err
            assert not out.exists()

    def test_rejects_too_few_symbols(self, capsys):
        assert main(["ber", "--q", "1", "--symbols", "5"]) == EXIT_USAGE
        assert "--symbols must be at least 10000" in capsys.readouterr().err


def test_python_dash_m_runs_the_entry_point(tmp_path):
    # pytest's pythonpath setting does not reach a child process.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def run(*args):
        return subprocess.run([sys.executable, "-m", "brightlink", *args], env=env,
                              capture_output=True, text=True, timeout=120)

    cfg = tmp_path / "bad.cfg"
    cfg.write_text("modulation.mm = 2\n", encoding="utf-8")
    bad = run("encode", "--config", str(cfg), "--payload-bits", "1",
              "--out", str(tmp_path / "x.bfrs"))
    assert bad.returncode == EXIT_USAGE
    assert "unknown config keys: modulation.mm" in bad.stderr
    ber = run("ber", "--q", "1", "--symbols", "10000")
    assert ber.returncode == EXIT_OK
    lines = ber.stdout.splitlines()
    assert lines[0] == "q,pe_theory,pe_mc,ci_halfwidth"
    assert len(lines) == 2 and lines[1].startswith("1,")


@pytest.mark.parametrize("text, report_digest, csv_digest", [
    (WARPED_M4_CFG, "c7ba1ce3e95c021c1e84da6b4a1cf52dc887439d7877d369a25a7aa31accc19f",
     "4190dd9d50ea1d305f95daf5f1076d58ba7fdefa0bc4a147278616a049aaabaf"),
    (NTSC_M8_CFG, "1209d1f2c52f5fc8518b0433e57df69bc39f64be5141b6cfae57339c32e3ccac",
     "14c457fa7e336af3352b456e97d188e45994cb4b78df3ed36a6ef61399e45615"),
], ids=["warped_m4", "ntsc_m8"])
def test_decode_artifacts_are_pinned(tmp_path, text, report_digest, csv_digest):
    # Any change to sync, level estimation, decisions or the printed report
    # changes these bytes. ntsc_m8's report was re-recorded when the receiver
    # came to divide each uint8 sample by 255 once: its sigma moved in the
    # 12th digit.
    cfg = tmp_path / "link.cfg"
    cfg.write_text(text, encoding="utf-8")
    code, _, _, report, csv = run_link(tmp_path, cfg, payload="110100111000101101011001")
    assert code == EXIT_OK
    assert hashlib.sha256(report.read_bytes()).hexdigest() == report_digest
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == csv_digest


@pytest.mark.parametrize("text, symbols, pe_measured", [
    (WARPED_M4_CFG, "303030303030303000000000000001203103202311212322103233222223",
     ["0", "0", "0", "0", "nan"]),
    (NTSC_M8_CFG, "7070707070707070000000000615161326335116765254",
     ["0", "0", "0", "0", "nan"]),
], ids=["warped_m4", "ntsc_m8"])
def test_decisions_are_pinned(tmp_path, capsys, text, symbols, pe_measured):
    # What the link decides, apart from the last bits of its samples: the sync
    # offset, every symbol, the payload and its CRC, and each sweep row's
    # measured error rate. Recorded while uint8 pixels were divided by 255
    # one at a time, before the receiver divided each sample once.
    cfg = tmp_path / "link.cfg"
    cfg.write_text(text, encoding="utf-8")
    payload = "110100111000101101011001"
    code, _, rx, report, _ = run_link(tmp_path, cfg, payload=payload)
    assert code == EXIT_OK
    entries = parse_report(report)
    assert (entries["sync_offset"], entries["payload_hex"], entries["crc_ok"]) == (
        "0", "d38b59", "true")
    config = load_config(cfg)
    frames, camera_fps = read_bfrs(rx)
    decoded = decode_frames(frames, config.modulation, camera_fps,
                            homography=config.channel.affine, region=config.region)
    assert "".join(map(str, decoded.symbols)) == symbols
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--distances", "1,1.5,2,3,1e9",
                 "--out", str(out)]) == EXIT_OK
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[3] for row in rows] == pe_measured


@pytest.mark.parametrize("text, csv_digest", [
    (WARPED_M4_CFG, "e1e7eb66d907ab59d4dcdb977fdd57e6f7bd626290b908ed1da5169b84dc37c6"),
    (NTSC_M8_CFG, "2b3d2a639109462c37e6daf9ededc4d7a73d1157646bc7b1d96e81e8e9b2188b"),
    (GREEN_16BIT_CFG, "ae28eefc8211fed8fa4cf2f134617f7750579fd0216792e127e459a5c02a29cb"),
], ids=["warped_m4", "ntsc_m8", "green_16bit"])
def test_sweep_csv_is_pinned(tmp_path, capsys, text, csv_digest):
    # green_16bit was recorded when the sweep sent all three planes once. The
    # first two were re-recorded when the receiver came to divide each uint8
    # sample by 255 once: pe_theory moved in its 12th digit on two rows each.
    # warped_m4 and green_16bit were re-recorded when resampling_map came to
    # round each coordinate term by term, not through a BLAS matrix product:
    # pe_theory moved in its 10th to 12th digit on two or three rows each.
    # The 1e9 m row fails and is printed as NaN.
    cfg = tmp_path / "link.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--distances", "1,1.5,2,3,1e9",
                 "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_digest
    err = capsys.readouterr().err
    assert err.count("failed") == 1
    assert "distance 1000000000 m failed: best preamble correlation" in err
