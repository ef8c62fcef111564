"""The benchmark's per-layer tracer (``bench/tracing.py``) rebinds attributes
of ``txsched.cli`` by name. A rename in the package must fail here, not
silently drop a per-layer metric; only the layers named in RETIRED, whose
code is gone, may trace nothing."""

import importlib.util
from pathlib import Path

import txsched.cli as cli

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"
# spans whose function was removed from the package; the tracer still lists
# them, and their metrics read 0, until the benchmark drops them
RETIRED = {"cli.read_value_policy"}  # the CSV policy reader: simulate reads q_values.npy


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_exists():
    tracing = load_tracing()
    before = cli.load_config
    with tracing.Tracer().installed(cli) as missing:
        assert missing == [path for path, name, _ in tracing.TARGETS if name in RETIRED]
        assert cli.load_config is not before
    assert cli.load_config is before


def test_stopping_solve_is_traced_as_the_stopping_layer(tmp_path):
    # the per-layer numbers stay comparable: a stopping solve records its own
    # span and none under the general solver's name
    tracing = load_tracing()
    tracer = tracing.Tracer()
    argv = ["solve", "--config", str(ROOT / "configs" / "example.yaml"),
            "--out", str(tmp_path), "--quiet"]
    with tracer.installed(cli), tracer.command("solve", "run-0"):
        assert cli.main(argv) == 0
    names = [span.name for span in tracer.spans]
    assert names.count("stopping.solve") == 1
    assert "belief_mdp.value_iterate" not in names
