"""The benchmark's per-layer tracer (``bench/tracing.py``) rebinds attributes
of ``txsched.cli`` by name. A rename in the package must fail here, not
silently drop a per-layer metric."""

import importlib.util
from pathlib import Path

import txsched.cli as cli

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_exists():
    tracing = load_tracing()
    before = cli.load_config
    with tracing.Tracer().installed(cli) as missing:
        assert missing == []
        assert cli.load_config is not before
    assert cli.load_config is before
