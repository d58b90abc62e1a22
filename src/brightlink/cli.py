"""Command-line front end: encode, channel, decode, sweep, and ber subcommands."""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    MC_MIN_SYMBOLS,
    BerModel,
    distance_sweep,
    monte_carlo_ber,
    theoretical_ber,
)
from .bfrs import BfrsFormatError, read_bfrs, write_bfrs
from .channel import transmit
from .config import ConfigError, RunConfig, load_config
from .core import as_bits, as_seed
from .decoder import (
    DegenerateLevelsError,
    FramingError,
    SyncError,
    decode_frames,
)
from .encoder import bits_to_bytes, encode_stream, frames_needed, make_carrier

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_SYNC = 4
EXIT_INTEGRITY = 5
EXIT_PIPELINE = 6

DEFAULT_SWEEP_PAYLOAD = "1010101010101010"


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _parse_numbers(raw: str, what: str) -> list[float]:
    try:
        return [float(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse {what} {raw!r}; expected "
                          "comma-separated numbers") from None


def _usage(check, *args, **kwargs):
    """check(*args, **kwargs), whose ValueError refuses what the user gave: exit 2."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _load_payload_bits(bits_arg: str | None, file_arg: str | None,
                       default: str | None = None) -> np.ndarray:
    if bits_arg is not None and file_arg is not None:
        raise ConfigError("give either a bit string or a payload file, not both")
    if file_arg is not None:
        data = Path(file_arg).read_bytes()
        return np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    if bits_arg is None and default is None:
        raise ConfigError("a payload is required (--payload-bits or --payload)")
    return _usage(as_bits, default if bits_arg is None else bits_arg)


def _carrier_for(config: RunConfig, carrier_path: str | None,
                 payload_bits: int) -> np.ndarray:
    if carrier_path is not None:
        frames, _ = read_bfrs(carrier_path)
        return frames
    n = frames_needed(payload_bits, config.modulation)
    return _usage(make_carrier, config.carrier_name, config.carrier_width,
                  config.carrier_height, n)


def cmd_encode(args) -> int:
    config = load_config(args.config)
    payload = _load_payload_bits(args.payload_bits, args.payload)
    carrier = _carrier_for(config, args.carrier, payload.size)
    frames = encode_stream(payload, carrier, config.modulation)
    write_bfrs(args.out, frames, config.modulation.frame_rate)
    n, h, w, _ = frames.shape
    print(f"wrote {n} frames ({w}x{h}) to {args.out}")
    print(f"payload {payload.size} bits at {_fmt(config.modulation.bit_rate)} bit/s "
          f"({_fmt(config.modulation.symbol_rate)} symbols/s)")
    return EXIT_OK


def cmd_channel(args) -> int:
    config = load_config(args.config)
    if config.channel.quantizer_bits != 8:
        raise ConfigError("channel command writes BFRS, which stores uint8; "
                          "set channel.quantizer_bits = 8")
    frames, display_fps = read_bfrs(args.infile)
    captured = transmit(frames, display_fps, config.channel,
                        symbol_rate=display_fps / config.modulation.symbol_duration_frames)
    write_bfrs(args.out, captured, config.channel.camera_fps)
    print(f"wrote {captured.shape[0]} frames to {args.out}")
    return EXIT_OK


def cmd_decode(args) -> int:
    config = load_config(args.config)
    frames, camera_fps = read_bfrs(args.infile)
    reference = None
    if args.reference_bits is not None or args.reference is not None:
        reference = _load_payload_bits(args.reference_bits, args.reference)
    report = decode_frames(frames, config.modulation, camera_fps,
                           homography=config.channel.affine, region=config.region,
                           reference_payload=reference)

    payload_bytes = bits_to_bytes(report.payload)
    lines = [
        f"payload_bits = {report.payload.size}",
        f"payload_hex = {payload_bytes.hex()}",
        f"crc_ok = {'true' if report.crc_ok else 'false'}",
        f"sync_offset = {report.sync.offset}",
        f"frames_per_symbol = {_fmt(report.sync.frames_per_symbol)}",
        f"mu0 = {_fmt(report.levels.mu0)}",
        f"mu1 = {_fmt(report.levels.mu1)}",
        f"sigma = {_fmt(report.levels.sigma)}",
    ]
    if report.ber_vs_reference is not None:
        lines.append(f"ber_vs_reference = {_fmt(report.ber_vs_reference)}")
    text = "\n".join(lines) + "\n"
    Path(args.report).write_text(text, encoding="utf-8")
    print(text, end="")

    if args.csv is not None:
        csv_lines = ["frame_index,time_s,amplitude"]
        for k, value in enumerate(report.series.values):
            t = (k + 0.5) / report.series.sample_rate
            csv_lines.append(f"{k},{_fmt(t)},{_fmt(value)}")
        Path(args.csv).write_text("\n".join(csv_lines) + "\n", encoding="utf-8")

    if args.payload_out is not None:
        Path(args.payload_out).write_bytes(payload_bytes)
    if not report.crc_ok:
        return _fail(EXIT_INTEGRITY, "CRC check failed; payload is unreliable")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    distances = _parse_numbers(args.distances, "distances")
    payload = _load_payload_bits(args.payload_bits, args.payload,
                                 default=DEFAULT_SWEEP_PAYLOAD)
    carrier = _carrier_for(config, None, payload.size)
    # A distance's failure is its row's; what escapes refuses an argument.
    result = _usage(distance_sweep, distances, payload, carrier, config.modulation,
                    config.channel, region=config.region)
    lines = ["d_m,delta_mu,pe_theory,pe_measured,ci_halfwidth"]
    for row in result.rows:
        lines.append(f"{_fmt(row.distance_m)},{_fmt(row.delta_mu)},"
                     f"{_fmt(row.pe_theory)},{_fmt(row.pe_measured)},"
                     f"{_fmt(row.ci_halfwidth)}")
        if row.error is not None:
            print(f"distance {_fmt(row.distance_m)} m failed: {row.error}",
                  file=sys.stderr)
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"slope = {_fmt(result.slope)}")
    return EXIT_OK


def cmd_ber(args) -> int:
    q_points = _parse_numbers(args.q, "q values")
    if not q_points or any(q <= 0 or not math.isfinite(q) for q in q_points):
        raise ConfigError("q values must be positive numbers")
    if args.symbols < MC_MIN_SYMBOLS:
        raise ConfigError(f"--symbols must be at least {MC_MIN_SYMBOLS}, got {args.symbols}")
    _usage(as_seed, args.seed, "--seed")
    models = []
    for q in q_points:
        # Unit swing with sigma = 1/(2q) puts the decision margin exactly at q.
        sigma = 1.0 / (2.0 * q)
        if not 0.0 < sigma < math.inf:
            raise ConfigError(f"q value {_fmt(q)} gives no positive finite "
                              f"sigma = 1/(2q), got {_fmt(sigma)}")
        models.append(BerModel(0.0, 1.0, sigma))
    lines = ["q,pe_theory,pe_mc,ci_halfwidth"]
    for q, model in zip(q_points, models):
        pe_theory = theoretical_ber(model)
        pe_mc, ci = monte_carlo_ber(model, args.symbols, seed=args.seed)
        lines.append(f"{_fmt(q)},{_fmt(pe_theory)},{_fmt(pe_mc)},{_fmt(ci)}")
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text, end="")
    return EXIT_OK


# parse_args fills a fresh namespace on each call, so one parser serves a process.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brightlink",
        description="Software modem for screen-brightness optical covert channels.")
    sub = parser.add_subparsers(dest="command", required=True)

    encode = sub.add_parser("encode", help="imprint a payload onto carrier frames")
    encode.add_argument("--config", required=True)
    encode.add_argument("--payload-bits", help="payload as a 0/1 string")
    encode.add_argument("--payload", help="payload file (bytes, MSB first)")
    encode.add_argument("--carrier", help="carrier BFRS file (default: synthetic "
                                          "carrier from the config)")
    encode.add_argument("--out", required=True, help="output BFRS path")
    encode.set_defaults(func=cmd_encode)

    channel = sub.add_parser("channel", help="simulate the display-to-camera link")
    channel.add_argument("--config", required=True)
    channel.add_argument("--in", dest="infile", required=True, help="input BFRS path")
    channel.add_argument("--out", required=True, help="output BFRS path")
    channel.set_defaults(func=cmd_channel)

    decode = sub.add_parser("decode", help="recover the payload from captured frames")
    decode.add_argument("--config", required=True)
    decode.add_argument("--in", dest="infile", required=True, help="input BFRS path")
    decode.add_argument("--report", required=True, help="report file path")
    decode.add_argument("--csv", help="optional per-frame amplitude CSV path")
    decode.add_argument("--payload-out", help="write recovered payload bytes here")
    decode.add_argument("--reference-bits", help="expected payload as a 0/1 string")
    decode.add_argument("--reference", help="expected payload file")
    decode.set_defaults(func=cmd_decode)

    sweep = sub.add_parser("sweep", help="measure amplitude and error rate over distance")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--distances", required=True,
                       help="comma-separated distances in meters")
    sweep.add_argument("--payload-bits", help="payload as a 0/1 string")
    sweep.add_argument("--payload", help="payload file")
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.set_defaults(func=cmd_sweep)

    ber = sub.add_parser("ber", help="compare theoretical and simulated error rates")
    ber.add_argument("--q", required=True,
                     help="comma-separated decision margins (mu1-mu0)/(2 sigma)")
    ber.add_argument("--symbols", type=int, default=100_000)
    ber.add_argument("--seed", type=int, default=0)
    ber.add_argument("--out", help="optional output CSV path")
    ber.set_defaults(func=cmd_ber)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed a refusal (2) or --help (0)
        return exc.code
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail(EXIT_USAGE, str(exc))
    except BfrsFormatError as exc:
        return _fail(EXIT_FORMAT, str(exc))
    except (SyncError, DegenerateLevelsError) as exc:
        return _fail(EXIT_SYNC, str(exc))
    except FramingError as exc:
        return _fail(EXIT_INTEGRITY, str(exc))
    except OSError as exc:
        return _fail(EXIT_USAGE, str(exc))
    except ValueError as exc:
        return _fail(EXIT_PIPELINE, str(exc))


def entrypoint() -> None:
    sys.exit(main(argv=None))


if __name__ == "__main__":
    entrypoint()
