"""Spans around brightlink's public functions, for the benchmark's traced run.

``Tracer.install`` replaces each traced function at every brightlink module
attribute that holds it, which is where callers look it up at call time
(``cli.transmit``, ``analysis.decode_frames``, ``decoder.synchronize``,
``encoder.validate_frames`` and so on). ``uninstall`` puts the originals back.
Spans and counts stay in memory; ``layer_metrics`` reduces them.
"""

from __future__ import annotations

import functools
import sys
import tracemalloc
from dataclasses import asdict, dataclass, field
from time import perf_counter

MODULES = ("brightlink", "brightlink.core", "brightlink.encoder", "brightlink.channel",
           "brightlink.decoder", "brightlink.analysis", "brightlink.bfrs",
           "brightlink.config", "brightlink.cli")


def _frames_out(args, kwargs, result):
    n, h, w = result.shape[:3]
    return {"frames": n, "pixels": n * h * w}


def _frames_in(args, kwargs, result):
    return {"frames": len(result)}


def _crc_ok(args, kwargs, result):
    return {"crc_ok": int(result[1])}


def _bytes_written(args, kwargs, result):
    frames = args[1] if len(args) > 1 else kwargs["frames"]
    return {"bytes": frames.nbytes}


def _bytes_read(args, kwargs, result):
    return {"bytes": result[0].nbytes}


def _symbols(args, kwargs, result):
    n = args[1] if len(args) > 1 else kwargs["n_symbols"]
    return {"symbols": n}


# Traced functions, named by the module that defines them, with the counts
# each span records from the call's arguments and result.
TRACED = {
    "channel.transmit": _frames_out,
    "decoder.decode_frames": None,
    "decoder.extract_signal": _frames_in,
    "decoder.synchronize": None,
    "decoder.estimate_levels": None,
    "decoder.decide_symbols": None,
    "decoder.deframe": _crc_ok,
    "encoder.encode_stream": None,
    "encoder.make_carrier": None,
    "core.validate_frames": None,
    "bfrs.write_bfrs": _bytes_written,
    "bfrs.read_bfrs": _bytes_read,
    "config.load_config": None,
    "cli.main": None,
    "analysis.distance_sweep": None,
    "analysis.monte_carlo_ber": _symbols,
}
# Peak traced allocation is taken around these calls only.
MEMORY_TRACED = ("decoder.synchronize",)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    link: int
    error: str | None = None
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.link = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [sys.modules[name] for name in MODULES]
        for name, counter in TRACED.items():
            module_name, attr = name.split(".")
            original = getattr(sys.modules[f"brightlink.{module_name}"], attr)
            wrapper = self._wrap(name, original, counter)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn, counter):
        measure_memory = name in MEMORY_TRACED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, 0.0, parent, self.link)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            if measure_memory:
                tracemalloc.start()
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                if measure_memory:
                    span.counts["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()
            if counter is not None:
                span.counts.update(counter(args, kwargs, result))
            return result

        return traced

    def dump(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


def _self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.end - span.start - covered)
    return result


# Decode failures, counted on the stage that raises them, so an error that
# passes up through decode_frames and cli.main counts once.
SYNC_ERRORS = (("decoder.synchronize", "SyncError"),
               ("decoder.estimate_levels", "DegenerateLevelsError"))
FRAMING_ERRORS = (("decoder.deframe", "FramingError"),)

LAYER_UNITS = {
    "channel.transmit.s": "s",
    "channel.transmit.mpix_per_s": "Mpix/s",
    "decoder.extract_signal.s": "s",
    "decoder.extract_signal.frames_per_s": "frames/s",
    "decoder.synchronize.s": "s",
    "decoder.synchronize.peak_mb": "MB",
    "decoder.estimate_levels.s": "s",
    "decoder.decide_symbols.s": "s",
    "decoder.deframe.s": "s",
    "decoder.decode_frames.self_s": "s",
    "decoder.sync_errors": "count",
    "decoder.framing_errors": "count",
    "decoder.crc_ok_ratio": "ratio",
    "encoder.encode_stream.s": "s",
    "encoder.make_carrier.s": "s",
    "core.validate_frames.s": "s",
    "core.validate_frames.calls": "count",
    "bfrs.write_bfrs.s": "s",
    "bfrs.read_bfrs.s": "s",
    "bfrs.mb_per_s": "MB/s",
    "config.load_config.s": "s",
    "cli.main.self_s": "s",
    "analysis.distance_sweep.self_s": "s",
    "analysis.monte_carlo_ber.s": "s",
    "analysis.monte_carlo_ber.symbols_per_s": "symbols/s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(spans: list[Span], traced_wall_s: float,
                  untraced_wall_s: float) -> dict[str, float]:
    """Reduce spans to the benchmark's per-layer metrics."""
    total: dict[str, float] = {name: 0.0 for name in TRACED}
    own: dict[str, float] = dict(total)
    calls: dict[str, int] = {name: 0 for name in TRACED}
    counts: dict[str, dict[str, int]] = {name: {} for name in TRACED}
    errors: dict[str, dict[str, int]] = {name: {} for name in TRACED}
    peak_bytes = 0
    for span, self_s in zip(spans, _self_times(spans)):
        total[span.name] += span.end - span.start
        own[span.name] += self_s
        calls[span.name] += 1
        for key, value in span.counts.items():
            counts[span.name][key] = counts[span.name].get(key, 0) + value
        if span.error is not None:
            errors[span.name][span.error] = errors[span.name].get(span.error, 0) + 1
        peak_bytes = max(peak_bytes, span.counts.get("peak_bytes", 0))

    def rate(name, key, scale=1.0):
        return counts[name].get(key, 0) / scale / total[name] if total[name] else 0.0

    # Every decode, through decode_frames or stage by stage, synchronizes once.
    decodes = calls["decoder.synchronize"]
    bfrs_s = total["bfrs.write_bfrs"] + total["bfrs.read_bfrs"]
    bfrs_bytes = counts["bfrs.write_bfrs"].get("bytes", 0) \
        + counts["bfrs.read_bfrs"].get("bytes", 0)
    return {
        "channel.transmit.s": total["channel.transmit"],
        "channel.transmit.mpix_per_s": rate("channel.transmit", "pixels", 1e6),
        "decoder.extract_signal.s": total["decoder.extract_signal"],
        "decoder.extract_signal.frames_per_s": rate("decoder.extract_signal", "frames"),
        "decoder.synchronize.s": total["decoder.synchronize"],
        "decoder.synchronize.peak_mb": peak_bytes / 1e6,
        "decoder.estimate_levels.s": total["decoder.estimate_levels"],
        "decoder.decide_symbols.s": total["decoder.decide_symbols"],
        "decoder.deframe.s": total["decoder.deframe"],
        "decoder.decode_frames.self_s": own["decoder.decode_frames"],
        "decoder.sync_errors": sum(errors[n].get(e, 0) for n, e in SYNC_ERRORS),
        "decoder.framing_errors": sum(errors[n].get(e, 0) for n, e in FRAMING_ERRORS),
        "decoder.crc_ok_ratio": (counts["decoder.deframe"].get("crc_ok", 0)
                                 / decodes if decodes else 0.0),
        "encoder.encode_stream.s": total["encoder.encode_stream"],
        "encoder.make_carrier.s": total["encoder.make_carrier"],
        "core.validate_frames.s": total["core.validate_frames"],
        "core.validate_frames.calls": calls["core.validate_frames"],
        "bfrs.write_bfrs.s": total["bfrs.write_bfrs"],
        "bfrs.read_bfrs.s": total["bfrs.read_bfrs"],
        "bfrs.mb_per_s": bfrs_bytes / 1e6 / bfrs_s if bfrs_s else 0.0,
        "config.load_config.s": total["config.load_config"],
        "cli.main.self_s": own["cli.main"],
        "analysis.distance_sweep.self_s": own["analysis.distance_sweep"],
        "analysis.monte_carlo_ber.s": total["analysis.monte_carlo_ber"],
        "analysis.monte_carlo_ber.symbols_per_s": rate("analysis.monte_carlo_ber",
                                                       "symbols"),
        "trace.wall_s": traced_wall_s,
        "trace.overhead_ratio": traced_wall_s / untraced_wall_s,
    }
