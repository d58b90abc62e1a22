"""Smoke test of the benchmark: every workload at a tiny size, untraced and traced.

Run from the repository root:

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from brightlink import analysis, decoder  # noqa: E402


def tiny(name, tmp_path):
    if name == "warp_hd":
        # 32x24 pixels average too little noise away at 6 m.
        return workloads.WarpHD(3, width=32, height=24, payload_bits=4, distance_m=1.0)
    if name == "long_payload":
        return workloads.LongPayload(3, payload_bits=256)
    if name == "cli_batch":
        return workloads.CliBatch(3, tmp_path, width=16, height=12, payload_bits=8,
                                  combos=workloads.CLI_COMBOS[-4:])
    return workloads.Sweep(3, width=32, height=24, distances=(1.0, 2.0, 4.0),
                           payload_bits=4, mc_symbols=analysis.MC_MIN_SYMBOLS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_untraced_run_is_correct(name, tmp_path):
    workload = tiny(name, tmp_path)
    units, _, clip_sha = run.run_units(workload, 0.0, count=2)
    correct, problems = run.verdict(workload, units)
    assert correct, problems
    assert len(clip_sha) == 64
    metrics = run.end_to_end(units)
    assert set(metrics) | {"setup_s"} == set(run.E2E_UNITS)
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_reports_every_layer(name, tmp_path):
    workload = tiny(name, tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        units, wall, _ = run.run_units(workload, 0.0, count=1, tracer=tracer)
    finally:
        tracer.uninstall()
    assert not hasattr(decoder.decode_frames, "__wrapped__")
    layers = tracing.layer_metrics(tracer.spans, wall, wall)
    assert set(layers) == set(tracing.LAYER_UNITS)
    assert layers["decoder.extract_signal.s"] > 0
    assert layers["core.validate_frames.calls"] >= 2
    if name == "cli_batch":
        assert layers["bfrs.write_bfrs.s"] > 0 and layers["config.load_config.s"] > 0
        assert layers["cli.main.self_s"] > 0
    if name == "sweep":
        assert layers["analysis.distance_sweep.self_s"] > 0
        assert layers["analysis.monte_carlo_ber.symbols_per_s"] > 0
    for span, own in zip(tracer.spans, tracing._self_times(tracer.spans)):
        assert 0.0 <= own <= span.end - span.start


def test_wrong_payload_with_crc_ok_fails_the_run(tmp_path, monkeypatch):
    real = decoder.deframe

    def lying_deframe(*args, **kwargs):
        payload, _ = real(*args, **kwargs)
        flipped = payload.copy()
        flipped[0] ^= 1
        return flipped, True

    # decode_frames and the streamed warp_hd receiver both look deframe up here.
    monkeypatch.setattr(decoder, "deframe", lying_deframe)
    for name in ("warp_hd", "long_payload", "cli_batch"):
        workload = tiny(name, tmp_path)
        units, _, _ = run.run_units(workload, 0.0, count=1)
        correct, problems = run.verdict(workload, units)
        assert not correct
        assert "wrong payload with crc_ok = true" in problems


def test_host_probe_samples_between_pieces(tmp_path, monkeypatch):
    monkeypatch.setattr(hostspeed, "INTERVAL_S", 0.0)
    workload = tiny("warp_hd", tmp_path)
    probe = run.with_probe(workload)
    assert len(probe.samples) == 1
    units, _, _ = run.run_units(workload, 0.0, count=1)
    # Before each chunk is sent and received, before the tail, and at the end.
    assert len(probe.samples) == 1 + 2 * len(units[0].pieces) + 2
    assert probe.scale() > 0
    slow = run.end_to_end(units, scale=2.0)
    plain = run.end_to_end(units)
    for name in ("link_fps", "tx_fps", "rx_fps", "payload_bps"):
        assert slow[name] == pytest.approx(plain[name] / 2)
    assert slow["link_p50_s"] == pytest.approx(plain["link_p50_s"] * 2)


class SleepyWorkload(workloads.Workload):
    def prepare(self, index):
        return index

    def run(self, inputs):
        time.sleep(0.1)
        return workloads.Unit(links=1, links_ok=1, wall_s=0.1)


def test_run_stops_before_a_unit_that_would_end_late():
    units, _, _ = run.run_units(SleepyWorkload(), 0.25)
    assert len(units) == 2
    units, _, _ = run.run_units(SleepyWorkload(), 0.0)
    assert len(units) == 1


def test_benchmark_file_matches_the_reported_metrics():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_command_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH_DIR.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_command_prints_result_last(tmp_path):
    done = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload",
                           "long_payload", "--seed", "1", "--seconds", "0",
                           "--trace", "0"],
                          capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == set(run.E2E_UNITS)
