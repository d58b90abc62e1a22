"""End-to-end acceptance suite.

Each criterion runs as one test and reports a PASS/FAIL line in the terminal
summary. Workloads that produce artifact files run through module-scoped
fixtures so the determinism criterion can re-run them bit-for-bit.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from brightlink.analysis import BerModel, monte_carlo_ber, q_function
from brightlink.bfrs import read_bfrs
from brightlink.channel import ChannelGeometry, ChannelParams, geometric_gain, transmit
from brightlink.cli import EXIT_OK, main
from brightlink.core import ModulationParams, as_bits
from brightlink.decoder import decode_frames
from brightlink.encoder import encode_stream, frames_needed, make_carrier
from reference import surface_integrated_gain

DEMO_PAYLOAD = "1010101010101010"

DEMO_CFG = """
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
carrier.width = 96
carrier.height = 72
"""

SWEEP_CFG = """
modulation.m = 2
modulation.symbol_duration_frames = 6
modulation.depth = 0.03
modulation.frame_rate = 30
channel.noise_sigma = 0
channel.quantizer_bits = 16
channel.camera_fps = 30
carrier.name = gradient
carrier.width = 64
carrier.height = 48
"""

Q_POINTS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
MC_SYMBOLS = 100_000
MC_SEEDS = 20

N_PIPELINES = 200


@contextmanager
def criterion(log, number, name, budget_s, precomputed_s=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        log(f"criterion {number} ({name}): FAIL")
        raise
    elapsed = precomputed_s if precomputed_s is not None \
        else time.perf_counter() - start
    if budget_s is not None and elapsed > budget_s:
        log(f"criterion {number} ({name}): FAIL "
            f"(took {elapsed:.1f}s, budget {budget_s:.0f}s)")
        pytest.fail(f"criterion {number} exceeded its {budget_s:.0f}s budget "
                    f"({elapsed:.1f}s)")
    if budget_s is None:
        log(f"criterion {number} ({name}): PASS")
    else:
        log(f"criterion {number} ({name}): PASS "
            f"({elapsed:.1f}s within {budget_s:.0f}s)")


def center_warp(width, height, angle_deg, scale):
    """Rotation plus isotropic scale anchored at the frame center."""
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
    a = math.radians(angle_deg)
    cos, sin = math.cos(a) * scale, math.sin(a) * scale
    return np.array([
        [cos, -sin, cx - cos * cx + sin * cy],
        [sin, cos, cy - sin * cx - cos * cy],
        [0.0, 0.0, 1.0]])


def parse_report(path):
    return dict(line.split(" = ", 1) for line in path.read_text().splitlines())


def parse_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# Workload runners. Each is a pure function of its output directory so the
# determinism criterion can execute it twice and compare bytes.

def run_demo_link(outdir):
    outdir.mkdir(parents=True, exist_ok=True)
    cfg = outdir / "demo.cfg"
    cfg.write_text(DEMO_CFG, encoding="utf-8")
    paths = {name: outdir / name for name in
             ("tx.bfrs", "rx.bfrs", "report.txt", "series.csv")}
    start = time.perf_counter()
    codes = [
        main(["encode", "--config", str(cfg), "--payload-bits", DEMO_PAYLOAD,
              "--out", str(paths["tx.bfrs"])]),
        main(["channel", "--config", str(cfg), "--in", str(paths["tx.bfrs"]),
              "--out", str(paths["rx.bfrs"])]),
        main(["decode", "--config", str(cfg), "--in", str(paths["rx.bfrs"]),
              "--report", str(paths["report.txt"]),
              "--csv", str(paths["series.csv"]),
              "--reference-bits", DEMO_PAYLOAD]),
    ]
    elapsed = time.perf_counter() - start
    return {"codes": codes, "paths": paths, "elapsed": elapsed}


def run_distance_sweep(outdir):
    outdir.mkdir(parents=True, exist_ok=True)
    cfg = outdir / "sweep.cfg"
    cfg.write_text(SWEEP_CFG, encoding="utf-8")
    out = outdir / "sweep.csv"
    start = time.perf_counter()
    code = main(["sweep", "--config", str(cfg),
                 "--distances", "1,2,3,4,5,6,7,8,9", "--out", str(out)])
    elapsed = time.perf_counter() - start
    return {"code": code, "csv": out, "elapsed": elapsed}


def run_ber_artifact(outdir):
    outdir.mkdir(parents=True, exist_ok=True)
    out = outdir / "ber.csv"
    code = main(["ber", "--q", ",".join(str(q) for q in Q_POINTS),
                 "--symbols", str(MC_SYMBOLS), "--seed", "1",
                 "--out", str(out)])
    return {"code": code, "csv": out}


def draw_pipeline(index):
    rng = np.random.Generator(np.random.Philox(
        key=np.array([0xACC5, index], dtype=np.uint64)))
    n_bits = int(rng.integers(1, 65))
    m = int(rng.choice([2, 4]))
    angle = float(rng.uniform(-15.0, 15.0))
    scale = float(rng.uniform(0.5, 2.0))
    payload = rng.integers(0, 2, size=n_bits).astype(np.uint8)
    return n_bits, m, angle, scale, payload


def run_random_pipelines(outdir):
    outdir.mkdir(parents=True, exist_ok=True)
    out = outdir / "pipelines.csv"
    rows = ["index,m,payload_bits,angle_deg,scale,crc_ok,exact"]
    recovered = 0
    max_red_increase = 0
    other_planes_touched = False
    start = time.perf_counter()
    for i in range(N_PIPELINES):
        n_bits, m, angle, scale, payload = draw_pipeline(i)
        params = ModulationParams(m=m, symbol_duration_frames=2)
        carrier = make_carrier("gradient", 64, 48, frames_needed(n_bits, params))
        sent = encode_stream(payload, carrier, params)
        diff = sent.astype(np.int64) - carrier.astype(np.int64)
        max_red_increase = max(max_red_increase, int(diff[:, :, :, 0].max()))
        other_planes_touched |= bool(diff[:, :, :, 1:].any())
        warp = center_warp(64, 48, angle, scale)
        channel = ChannelParams(noise_sigma=0.0, affine=warp, rng_seed=i)
        captured = transmit(sent, 30.0, channel, symbol_rate=params.symbol_rate)
        report = decode_frames(captured, params, 30.0, homography=warp,
                               reference_payload=payload)
        exact = report.crc_ok and np.array_equal(report.payload, payload)
        recovered += bool(exact)
        rows.append(f"{i},{m},{n_bits},{angle:.12g},{scale:.12g},"
                    f"{int(report.crc_ok)},{int(exact)}")
    elapsed = time.perf_counter() - start
    out.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return {"csv": out, "recovered": recovered, "elapsed": elapsed,
            "max_red_increase": max_red_increase,
            "other_planes_touched": other_planes_touched}


@pytest.fixture(scope="module")
def acceptance_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def demo_run(acceptance_dir):
    return run_demo_link(acceptance_dir / "a" / "demo")


@pytest.fixture(scope="module")
def sweep_run(acceptance_dir):
    return run_distance_sweep(acceptance_dir / "a" / "sweep")


@pytest.fixture(scope="module")
def ber_run(acceptance_dir):
    return run_ber_artifact(acceptance_dir / "a" / "ber")


@pytest.fixture(scope="module")
def pipelines_run(acceptance_dir):
    return run_random_pipelines(acceptance_dir / "a" / "pipelines")


def test_criterion_1_demo_link(demo_run, acceptance_log):
    """The alternating 16-bit demo payload survives a 6 m noisy capture."""
    with criterion(acceptance_log, 1, "demo link at 6 m", 5.0,
                   precomputed_s=demo_run["elapsed"]):
        assert demo_run["codes"] == [EXIT_OK, EXIT_OK, EXIT_OK]
        report = parse_report(demo_run["paths"]["report.txt"])
        assert report["crc_ok"] == "true"
        assert report["payload_bits"] == "16"
        assert report["payload_hex"] == "aaaa"
        assert report["ber_vs_reference"] == "0"


def test_criterion_2_distance_law(sweep_run, acceptance_log):
    """Amplitude swing falls off as the inverse square of distance."""
    with criterion(acceptance_log, 2, "inverse-square sweep", 30.0,
                   precomputed_s=sweep_run["elapsed"]):
        assert sweep_run["code"] == EXIT_OK
        rows = parse_csv(sweep_run["csv"])
        assert len(rows) == 9
        swing = {float(r["d_m"]): float(r["delta_mu"]) for r in rows}
        distances = np.array(sorted(swing))
        slope = np.polyfit(np.log10(distances),
                           np.log10([swing[d] for d in distances]), 1)[0]
        assert -2.05 <= slope <= -1.95
        assert swing[1.0] / swing[2.0] == pytest.approx(4.0, rel=0.01)


def test_criterion_3_monte_carlo_matches_q(ber_run, acceptance_log):
    """Simulated error rates agree with the Q-function prediction."""
    with criterion(acceptance_log, 3, "Monte Carlo vs Q-function", 60.0):
        assert ber_run["code"] == EXIT_OK
        for q in Q_POINTS:
            theory = q_function(q)
            halfwidth = 3.0 * math.sqrt(theory * (1.0 - theory) / MC_SYMBOLS)
            model = BerModel(0.0, 1.0, 1.0 / (2.0 * q))
            hits = 0
            for seed in range(MC_SEEDS):
                rate, _ = monte_carlo_ber(model, MC_SYMBOLS, seed=seed)
                hits += abs(rate - theory) <= halfwidth
            assert hits >= 19, f"q={q}: only {hits}/{MC_SEEDS} runs in band"
        # The artifact file must carry the same agreement.
        for row in parse_csv(ber_run["csv"]):
            assert abs(float(row["pe_mc"]) - float(row["pe_theory"])) \
                <= float(row["ci_halfwidth"])


def test_criterion_4_link_budget_formula(acceptance_log):
    """The point formula matches full surface integration in the far field."""
    with criterion(acceptance_log, 4, "link budget vs integration", 30.0):
        rng = np.random.Generator(np.random.Philox(
            key=np.array([0xACC4, 0], dtype=np.uint64)))
        for _ in range(50):
            display_area = float(10.0 ** rng.uniform(-2.0, math.log10(0.5)))
            aperture_area = float(10.0 ** rng.uniform(-6.0, -4.0))
            diagonal = math.sqrt(2.0 * max(display_area, aperture_area))
            d = float(rng.uniform(10.0, 50.0)) * diagonal
            phi = float(rng.uniform(0.0, math.radians(60.0)))
            theta = float(rng.uniform(0.0, math.radians(60.0)))
            geometry = ChannelGeometry(distance_m=d, phi_rad=phi, theta_rad=theta)
            exact = surface_integrated_gain(d, phi, theta, display_area,
                                            aperture_area)
            gain = geometric_gain(geometry, display_area, aperture_area)
            rel_err = abs(gain - exact) / exact
            assert rel_err <= 0.01, (d, phi, theta, display_area, aperture_area,
                                     rel_err)


def test_criterion_5_randomized_pipelines(pipelines_run, acceptance_log):
    """200 randomized encode/warp/decode pipelines recover every payload."""
    with criterion(acceptance_log, 5, "randomized pipelines", 300.0,
                   precomputed_s=pipelines_run["elapsed"]):
        assert pipelines_run["recovered"] == N_PIPELINES
        rows = parse_csv(pipelines_run["csv"])
        assert len(rows) == N_PIPELINES
        assert all(r["crc_ok"] == "1" and r["exact"] == "1" for r in rows)


def test_criterion_6_imperceptibility(demo_run, pipelines_run, acceptance_log):
    """Depth 0.03 shifts red by at most 8 counts and never touches green/blue."""
    with criterion(acceptance_log, 6, "imperceptibility bound", None):
        # The demo transmission, checked against its own carrier.
        tx, _ = read_bfrs(demo_run["paths"]["tx.bfrs"])
        params = ModulationParams()
        carrier = make_carrier("gradient", 96, 72, frames_needed(16, params))
        diff = tx.astype(np.int64) - carrier.astype(np.int64)
        assert diff[:, :, :, 0].min() >= 0 and diff[:, :, :, 0].max() <= 8
        assert not diff[:, :, :, 1:].any()
        # Every randomized pipeline encode observed the same bound.
        assert pipelines_run["max_red_increase"] <= 8
        assert not pipelines_run["other_planes_touched"]
        # Fresh encodes across carriers and alphabets.
        for name in ("gray128", "gradient"):
            for m in (2, 4):
                p = ModulationParams(m=m, symbol_duration_frames=1)
                frames = make_carrier(name, 32, 24, frames_needed(16, p))
                sent = encode_stream(as_bits(DEMO_PAYLOAD), frames, p)
                delta = sent.astype(np.int64) - frames.astype(np.int64)
                assert delta[:, :, :, 0].min() >= 0
                assert delta[:, :, :, 0].max() <= 8
                assert not delta[:, :, :, 1:].any()


def test_criterion_7_deterministic_reruns(acceptance_dir, demo_run, sweep_run,
                                          ber_run, pipelines_run,
                                          acceptance_log):
    """Re-running every artifact workload reproduces identical bytes."""
    with criterion(acceptance_log, 7, "byte-identical reruns", None):
        second = acceptance_dir / "b"
        demo_b = run_demo_link(second / "demo")
        sweep_b = run_distance_sweep(second / "sweep")
        ber_b = run_ber_artifact(second / "ber")
        pipelines_b = run_random_pipelines(second / "pipelines")

        for name, path in demo_run["paths"].items():
            assert path.read_bytes() == demo_b["paths"][name].read_bytes(), name
        assert sweep_run["csv"].read_bytes() == sweep_b["csv"].read_bytes()
        assert ber_run["csv"].read_bytes() == ber_b["csv"].read_bytes()
        assert pipelines_run["csv"].read_bytes() == pipelines_b["csv"].read_bytes()
