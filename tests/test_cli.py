import hashlib

import numpy as np
import pytest

from brightlink.bfrs import read_bfrs, write_bfrs
from brightlink.cli import (
    EXIT_FORMAT,
    EXIT_INTEGRITY,
    EXIT_OK,
    EXIT_PIPELINE,
    EXIT_SYNC,
    EXIT_USAGE,
    main,
)
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


def run_link(tmp_path, cfg, payload=PAYLOAD, seed=None):
    tx = tmp_path / "tx.bfrs"
    rx = tmp_path / "rx.bfrs"
    report = tmp_path / "report.txt"
    csv = tmp_path / "series.csv"
    assert main(["encode", "--config", str(cfg), "--payload-bits", payload,
                 "--out", str(tx)]) == EXIT_OK
    channel_args = ["channel", "--config", str(cfg), "--in", str(tx),
                    "--out", str(rx)]
    if seed is not None:
        channel_args += ["--seed", str(seed)]
    assert main(channel_args) == EXIT_OK
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

    def test_channel_is_deterministic_per_seed(self, tmp_path, demo_cfg):
        for sub in ("a", "b", "c"):
            (tmp_path / sub).mkdir()
        _, _, rx1, _, _ = run_link(tmp_path / "a", demo_cfg, seed=5)
        _, _, rx2, _, _ = run_link(tmp_path / "b", demo_cfg, seed=5)
        _, _, rx3, _, _ = run_link(tmp_path / "c", demo_cfg, seed=6)
        assert rx1.read_bytes() == rx2.read_bytes()
        assert rx1.read_bytes() != rx3.read_bytes()

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
    @pytest.mark.parametrize("command", ["channel", "sweep", "ber"])
    def test_seed_outside_64_bits_is_a_usage_error(self, tmp_path, demo_cfg, capsys,
                                                   command, seed):
        args = {
            "channel": ["--config", str(demo_cfg), "--in", str(tmp_path / "tx.bfrs"),
                        "--out", str(tmp_path / "rx.bfrs")],
            "sweep": ["--config", str(demo_cfg), "--distances", "1",
                      "--out", str(tmp_path / "sweep.csv")],
            "ber": ["--q", "1"],
        }[command]
        assert main([command, *args, "--seed", seed]) == EXIT_USAGE
        assert "--seed" in capsys.readouterr().err

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

    def test_payload_sources_are_exclusive(self, tmp_path, demo_cfg):
        payload_file = tmp_path / "p.bin"
        payload_file.write_bytes(b"\x01")
        code = main(["encode", "--config", str(demo_cfg),
                     "--payload-bits", "10", "--payload", str(payload_file),
                     "--out", str(tmp_path / "x.bfrs")])
        assert code == EXIT_USAGE


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

    def test_rejects_bad_q(self, tmp_path):
        assert main(["ber", "--q", "0"]) == EXIT_USAGE
        assert main(["ber", "--q", "abc"]) == EXIT_USAGE

    def test_rejects_too_few_symbols(self, capsys):
        assert main(["ber", "--q", "1", "--symbols", "5"]) == EXIT_USAGE
        assert "--symbols must be at least 10000" in capsys.readouterr().err


@pytest.mark.parametrize("text, report_digest, csv_digest", [
    (WARPED_M4_CFG, "c7ba1ce3e95c021c1e84da6b4a1cf52dc887439d7877d369a25a7aa31accc19f",
     "4190dd9d50ea1d305f95daf5f1076d58ba7fdefa0bc4a147278616a049aaabaf"),
    (NTSC_M8_CFG, "b7902d50e32bc09c27884f80b29882451d8d20e2157b8722b587466db34b5030",
     "14c457fa7e336af3352b456e97d188e45994cb4b78df3ed36a6ef61399e45615"),
], ids=["warped_m4", "ntsc_m8"])
def test_decode_artifacts_are_pinned(tmp_path, text, report_digest, csv_digest):
    # Any change to sync, level estimation, decisions or the printed report
    # changes these bytes.
    cfg = tmp_path / "link.cfg"
    cfg.write_text(text, encoding="utf-8")
    code, _, _, report, csv = run_link(tmp_path, cfg, payload="110100111000101101011001")
    assert code == EXIT_OK
    assert hashlib.sha256(report.read_bytes()).hexdigest() == report_digest
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == csv_digest
