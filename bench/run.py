"""Benchmark of the brightlink encode -> channel -> decode link.

Run from the repository root:

    python3 bench/run.py --workload warp_hd --seed 1 --seconds 25 --trace 0

Workloads: warp_hd, long_payload, cli_batch, sweep (see workloads.py).
With --trace 0 the run measures the end-to-end metrics with nothing patched.
Between timed pieces of work the run times a fixed host-speed probe
(hostspeed.py) and scales every time, set-up included, by what it reads, so
that stretches of a loaded shared machine move the figures less; the unscaled
figures are in the environment line.
With --trace 1 it runs the workload untraced for half the time, then the same
units again with spans around brightlink's public functions, and reports
per-layer metrics.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the run environment.
Spans and results are also written under bench/out/.

The package is imported from src/ next to this directory, never from an
installed copy; without it the run exits with status 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# One process generates the load; numpy's BLAS pool is pinned to one thread,
# which stays within nproc on any machine.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5


def configure_environment() -> None:
    """Pin the BLAS pool and make brightlink importable from src/."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    for path in (str(BENCH_DIR), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh processes of start-up to the first timed call.

    Each probe imports brightlink, numpy and scipy and builds the workload's
    parameters, then reports ready; input generation is not included.
    """
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen([sys.executable, str(BENCH_DIR / "setup_probe.py"),
                               workload, str(seed)],
                              stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            elapsed = perf_counter() - start
            probe.stdout.read()
        if probe.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with status {probe.returncode}")
        times.append(elapsed)
    return statistics.median(times)


def run_units(workload, seconds: float, count: int | None = None,
              tracer=None) -> tuple[list, float, str | None]:
    """Run units until the next would pass `seconds` if it took as long as the
    last (at least one unit), or run exactly `count` units.

    Returns the units, their summed wall time and the SHA-256 of the first
    captured clip.
    """
    units, wall, clip_sha = [], 0.0, None
    start = perf_counter()
    elapsed = last_unit = 0.0
    index = 0
    while (index < count) if count is not None else \
            (index == 0 or elapsed + last_unit <= seconds):
        inputs = workload.prepare(index)
        if tracer is not None:
            tracer.link = index
        unit = workload.run(inputs)
        if clip_sha is None and unit.clip is not None:
            clip_sha = hashlib.sha256(unit.clip).hexdigest()
        unit.clip = None
        del inputs  # free this unit's inputs before the next are built
        units.append(unit)
        wall += unit.wall_s
        index += 1
        last_unit = perf_counter() - start - elapsed
        elapsed += last_unit
    return units, wall, clip_sha


def p90(values: list[float]) -> float:
    """Interpolated 90th percentile; a single sample is its own percentile."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def piece_median(units: list, seconds) -> float:
    """Median over timed pieces of frames / seconds(piece), so one slow stretch
    of the run moves it less; pieces of failed links are left out."""
    rates = [p[0] / seconds(p) for u in units for p in u.pieces if p[0]]
    return statistics.median(rates) if rates else 0.0


def end_to_end(units: list, scale: float = 1.0) -> dict[str, float]:
    """End-to-end metrics; every time is multiplied by `scale` first."""
    links = sum(u.links for u in units)
    wall_s = sum(u.wall_s for u in units) * scale
    link_s = [t * scale for u in units for t in u.link_s]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "link_fps": sum(u.frames for u in units) / wall_s if wall_s else 0.0,
        "tx_fps": piece_median(units, lambda p: p[1] * scale),
        "rx_fps": piece_median(units, lambda p: p[2] * scale),
        "payload_bps": sum(u.bits_ok for u in units) / wall_s if wall_s else 0.0,
        "link_p50_s": statistics.median(link_s),
        "link_p90_s": p90(link_s),
        "peak_rss_mb": peak_kb * 1024 / 1e6,
        "success_ratio": sum(u.links_ok for u in units) / links,
    }


def verdict(workload, units: list) -> tuple[bool, list[str]]:
    """Apply the correctness gate.

    A wrong payload with crc_ok = true fails any run. Where the workload
    requires it, so does any other failed link; elsewhere failures only lower
    success_ratio.
    """
    failures = workload.check()
    problems = failures + [e for u in units for e in u.errors]
    correct = not failures and not any(u.wrong_crc_ok for u in units)
    if workload.every_link_must_pass:
        correct = correct and all(u.links_ok == u.links for u in units)
    return correct, problems


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """The checked-out commit, read from .git inside the checkout if there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


E2E_UNITS = {"setup_s": "s", "link_fps": "frames/s", "tx_fps": "frames/s",
             "rx_fps": "frames/s", "payload_bps": "bit/s", "link_p50_s": "s",
             "link_p90_s": "s", "peak_rss_mb": "MB", "success_ratio": "ratio"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "brightlink" / "__init__.py").is_file():
        print(f"error: brightlink sources not found under {SRC}", file=sys.stderr)
        return 2
    configure_environment()
    import brightlink
    import workloads

    if Path(brightlink.__file__).resolve().parent != SRC / "brightlink":
        print(f"error: imported brightlink from {brightlink.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        if args.trace:
            result, info = traced_run(workloads, args, Path(workdir))
        else:
            result, info = untraced_run(workloads, args, Path(workdir))
    info["env"] = environment(args)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = info.pop("spans", None)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({"info": info, "result": result},
                                                     indent=1))
    if spans is not None:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(spans))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


def untraced_run(workloads, args, workdir: Path):
    # The run's own imports are done; set-up is timed in fresh processes.
    setup_s = measure_setup(args.workload, args.seed)
    workload = workloads.make(args.workload, args.seed, workdir)
    probe = with_probe(workload)
    units, wall, clip_sha = run_units(workload, args.seconds)
    scale = probe.scale()
    metrics = {"setup_s": setup_s * scale, **end_to_end(units, scale)}
    correct, problems = verdict(workload, units)
    result = _result(correct, units,
                     {k: metric(v, E2E_UNITS[k]) for k, v in metrics.items()})
    info = _info(units, wall, clip_sha, problems)
    info["host_probe"] = {"samples": len(probe.samples),
                          "median_s": statistics.median(probe.samples),
                          "reference_s": probe.reference_s, "scale": scale}
    info["unscaled"] = {"setup_s": setup_s, **end_to_end(units)}
    return result, info


def with_probe(workload):
    """Sample host speed now, then between the workload's timed pieces."""
    import hostspeed

    probe = hostspeed.HostProbe()
    probe()
    workload.pause = probe
    return probe


def traced_run(workloads, args, workdir: Path):
    import tracing

    workload = workloads.make(args.workload, args.seed, workdir)
    with_probe(workload)
    plain, plain_wall, clip_sha = run_units(workload, args.seconds / 2)
    tracer = tracing.Tracer()
    traced_workload = workloads.make(args.workload, args.seed, workdir)
    with_probe(traced_workload)
    tracer.install()
    try:
        traced, traced_wall, _ = run_units(traced_workload, 0.0, count=len(plain),
                                           tracer=tracer)
    finally:
        tracer.uninstall()
    layers = tracing.layer_metrics(tracer.spans, traced_wall, plain_wall)
    ok_plain, problems = verdict(workload, plain)
    ok_traced, traced_problems = verdict(traced_workload, traced)
    units = plain + traced
    info = _info(units, plain_wall + traced_wall, clip_sha, problems + traced_problems)
    info["spans"] = tracer.dump()
    metrics = {k: metric(v, tracing.LAYER_UNITS[k]) for k, v in layers.items()}
    return _result(ok_plain and ok_traced, units, metrics), info


def _result(correct: bool, units: list, metrics: dict) -> dict:
    attempted = sum(u.links for u in units)
    failed = attempted - sum(u.links_ok for u in units)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _info(units: list, wall: float, clip_sha: str | None, problems: list[str]) -> dict:
    links = sum(u.links for u in units)
    return {
        "units": len(units),
        "links": links,
        "link_samples_beyond_p90": links - math.ceil(links * 0.9),
        "measured_wall_s": wall,
        "first_clip_sha256": clip_sha,
        "problems": problems[:50],
    }


if __name__ == "__main__":
    sys.exit(main())
