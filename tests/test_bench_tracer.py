"""The benchmark's tracer wraps package functions by name (bench/tracing.py's
TRACED), so a function renamed or moved in the package fails here, and not
first in a benchmark run. The rest of bench/test_smoke.py stays outside these
tests, since one of its tests depends on sleep timing."""

import sys
from pathlib import Path

import brightlink.cli  # noqa: F401  (imports every module the tracer patches)

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
