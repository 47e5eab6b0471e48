"""The benchmark's tracer must still find every attribute it wraps.

benchmarks/tracing.py times each layer by swapping named module and class
attributes of the package. An attribute that a refactor renames or removes
is skipped there and its per-layer metric silently reads zero, so this test
fails instead.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_probe_point_exists_and_is_restored():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, depth_of_shape={})
        assert tracer.missing == []
    finally:
        tracer.restore()
    assert tracer.unrestored() == []
