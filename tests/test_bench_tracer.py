"""The benchmark's tracer wraps package functions by name (bench/tracing.py's
TRACED), so a function renamed or moved in the package fails here, and not
first in a benchmark run. The rest of bench/test_smoke.py stays outside these
tests, since one of its tests depends on sleep timing."""

import sys
from collections import Counter
from pathlib import Path

import brightlink.cli  # noqa: F401  (imports every module the tracer patches)
from brightlink import decoder, encoder
from brightlink.core import ModulationParams, as_bits

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def traced_functions(tracing):
    return {name: getattr(sys.modules[f"brightlink.{name.split('.')[0]}"],
                          name.split(".")[1])
            for name in tracing.TRACED}


def test_the_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    originals = traced_functions(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = traced_functions(tracing)
        assert all(wrapped[name] is not originals[name] for name in originals)
        brightlink.cli.make_carrier("gray128", 2, 2, 1)
        assert [span.name for span in tracer.spans] == ["encoder.make_carrier"]
    finally:
        tracer.uninstall()
    assert traced_functions(tracing) == originals


def test_one_decode_records_one_span_per_receiver_stage(monkeypatch):
    # Each stage's span feeds its per-layer metric, so a stage that is no
    # longer called would read zero there.
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    params = ModulationParams(m=4, symbol_duration_frames=3)
    payload = as_bits("1101001110")
    carrier = encoder.make_carrier("gradient", 16, 12,
                                   encoder.frames_needed(payload.size, params))
    sent = encoder.encode_stream(payload, carrier, params)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = decoder.decode_frames(sent, params, 30.0)
    finally:
        tracer.uninstall()
    assert report.crc_ok
    spans = Counter(span.name for span in tracer.spans)
    for stage in ("decode_frames", "extract_signal", "synchronize", "estimate_levels",
                  "decide_symbols", "deframe"):
        assert spans[f"decoder.{stage}"] == 1, stage
