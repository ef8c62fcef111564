"""Which modules each entry point imports, in a fresh interpreter: a config
load imports neither the solver, the simulator nor the checks, and each
command imports only the modules it runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "example.yaml"
GENERAL = ROOT / "bench" / "workloads" / "general-slow.yaml"  # no costs.c_stop

SOLVER = ("txsched.belief_mdp", "txsched.stopping")
CHECKS = ("txsched.folding",)
SIMULATOR = ("txsched.sim", "numpy.random")

# every name ``txsched`` exported when the package imported all its modules
EXPORTS = [
    "ChannelModel", "CheckResult", "ConfigError", "ContractionReport", "ConvergenceError",
    "FixedThresholdPolicy", "FoldEquivalenceReport", "FoldedTP2Report", "HoldingCostTable",
    "LatticePolicy", "LtiSystem", "RunConfig", "SimConfig", "SimStats", "Solution",
    "SolverConfig", "StageCost", "SteadyStateCov", "StoppingProblem",
    "StructureViolationError", "ThresholdFunction", "ZeroLikelihoodError",
    "check_contraction", "check_mode_kernel_tp2", "composite_kernel",
    "composite_kernel_folded", "extract_threshold", "folded_observation",
    "folded_outcome_prob", "holding_cost_table", "is_tp2", "load_config",
    "make_gilbert_elliott", "make_persistent_failure", "measurement_update", "never_stop",
    "parse_config", "run_batch", "solve_stopping", "splitmix64", "steady_state_covariance",
    "stop_immediately", "success_margin", "time_update", "unfolded_tp2_counterexample",
    "value_iterate", "verify_fold_equivalence", "verify_folded_tp2",
    "verify_submodularity", "verify_threshold_monotone", "verify_update_monotonicity",
    "verify_value_monotonicity", "weight_profile",
]


def imported_after(code: str) -> set:
    """The modules in sys.modules after a fresh interpreter runs ``code``."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def run_command(args: list, out: Path, config: Path = CONFIG) -> set:
    argv = args + ["--config", str(config), "--out", str(out), "--quiet"]
    return imported_after(f"from txsched.cli import main\nassert main({argv!r}) == 0")


def test_config_load_imports_no_solver_simulator_or_check():
    mods = imported_after(f"import txsched\ntxsched.load_config({str(CONFIG)!r})")
    assert "txsched.config" in mods
    assert mods.isdisjoint(SOLVER + CHECKS + SIMULATOR + ("txsched.cli",))


@pytest.mark.parametrize("args, absent", [
    (["solve"], SIMULATOR + CHECKS),
    (["verify"], ("txsched.sim",)),
    (["simulate", "--policy", "never-stop"], SOLVER + CHECKS),
])
def test_command_imports_only_what_it_runs(tmp_path, args, absent):
    mods = run_command(args, tmp_path)
    assert mods.isdisjoint(absent), sorted(mods & set(absent))


@pytest.mark.parametrize("policy", ["never-stop", "solved"])
def test_simulate_draws_without_numpy_random(tmp_path, policy):
    # the simulator computes its PCG64 streams itself
    run_command(["solve"], tmp_path)
    mods = run_command(["simulate", "--policy", policy], tmp_path)
    assert "txsched.sim" in mods and "numpy.random" not in mods


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_general_problem_imports_no_stopping_solver(tmp_path, command):
    mods = run_command([command], tmp_path, GENERAL)
    assert "txsched.belief_mdp" in mods and "txsched.stopping" not in mods


def test_thresholds_on_fresh_artifacts_imports_no_solver(tmp_path):
    run_command(["solve"], tmp_path)
    mods = run_command(["thresholds"], tmp_path)
    absent = SOLVER + CHECKS + SIMULATOR
    assert mods.isdisjoint(absent), sorted(mods & set(absent))


def test_every_export_resolves():
    names = ", ".join(EXPORTS)
    imported_after(f"from txsched import {names}")
    imported_after("import txsched as tx\n"
                   f"assert all(getattr(tx, name) is not None for name in {EXPORTS!r})\n"
                   "assert sorted(tx.__all__) == sorted(set(tx.__all__))\n"
                   f"assert set({EXPORTS!r}) <= set(tx.__all__) <= set(dir(tx))\n"
                   "assert tx.sim.run_batch is tx.run_batch and tx.cli.main\n"
                   "assert tx.SolverConfig is tx.belief_mdp.SolverConfig\n"
                   "assert tx.SimConfig is tx.sim.SimConfig\n"
                   "assert not hasattr(tx, 'no_such_name')")


def test_package_version_is_the_project_version():
    # the two copies of the version: pyproject.toml's and txsched.__version__
    tomllib = pytest.importorskip("tomllib")
    import txsched
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == txsched.__version__
