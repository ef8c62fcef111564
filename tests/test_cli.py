import argparse
import hashlib
import io
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import event, example, given, settings, strategies as st

import txsched as tx
from conftest import ULP_NOISE_PLANT, channels, rowlist_write_solution_csvs
from oracles import _stream, loadtxt_read_value_policy_csv, run_episode
from txsched.cli import (EXIT_BROKEN_PIPE, EXIT_MODEL, StalePolicyError, _apply_overrides,
                         _build_policy, _fmt, _pipeline, _stored_solution, main,
                         write_solution_csvs)

ROOT = Path(__file__).resolve().parents[1]
CONFIG_FILES = ["configs/example.yaml", "bench/workloads/ref.yaml",
                "bench/workloads/fine-unstable.yaml", "bench/workloads/general-slow.yaml"]

BASE = {
    "system": {"A": [[0.85]], "C": [[1.0]], "Q": [[0.3]], "R": [[0.3]]},
    "channel": {"type": "ge", "p00": 0.9, "p11": 1.0,
                "lam_good": 0.9, "lam_bad": 0.2, "b0": 0.0},
    "costs": {"c_a": [0.0], "c_stop": 10.0},
    "solver": {"gamma": 0.95, "tau_max": 20, "grid_n": 40, "vi_tol": 1e-8},
    "sim": {"horizon": 40, "n_runs": 50, "seed": 321},
    "output": {"directory": "out"},
}


def write_cfg(tmp_path, overrides=None, name="cfg.yaml"):
    data = json.loads(json.dumps(BASE))
    for path, value in (overrides or {}).items():
        node = data
        keys = path.split(".")
        for k in keys[:-1]:
            node = node.setdefault(k, {})
        if value is None:
            node.pop(keys[-1], None)
        else:
            node[keys[-1]] = value
    data["output"]["directory"] = str(tmp_path / data["output"]["directory"])
    p = tmp_path / name
    p.write_text(yaml.safe_dump(data), encoding="utf-8")
    return p, data


class TestConfigValidation:
    def test_gamma_out_of_range_names_field(self, tmp_path):
        p, _ = write_cfg(tmp_path, {"solver.gamma": 1.5})
        with pytest.raises(tx.ConfigError, match="solver.gamma"):
            tx.load_config(p)

    def test_unknown_key_rejected(self, tmp_path):
        p, _ = write_cfg(tmp_path, {"solver.fudge": 3})
        with pytest.raises(tx.ConfigError, match="fudge"):
            tx.load_config(p)

    @pytest.mark.parametrize("section", ["solver", None])
    def test_unknown_keys_of_mixed_types_named(self, tmp_path, capsys, section):
        # YAML keys need not be strings; an int and a str key do not sort
        p, data = write_cfg(tmp_path)
        node = data if section is None else data[section]
        node.update({1: 2, "fudge": 3})
        p.write_text(yaml.safe_dump(data), encoding="utf-8")
        assert main(["solve", "--config", str(p)]) == 2
        where = section or "config"
        assert capsys.readouterr().err == f"config error: {where}.1: unknown key\n"
        assert not (tmp_path / "out").exists()

    def test_missing_section(self, tmp_path):
        p, _ = write_cfg(tmp_path, {"channel": None})
        with pytest.raises(tx.ConfigError, match="channel"):
            tx.load_config(p)

    def test_inverted_channel_rejected_at_load(self, tmp_path):
        p, _ = write_cfg(tmp_path, {"channel.lam_good": 0.2,
                                    "channel.lam_bad": 0.9})
        with pytest.raises(tx.ConfigError, match="channel"):
            tx.load_config(p)

    def test_c_a_length_checked(self, tmp_path):
        p, _ = write_cfg(tmp_path, {"costs.c_a": [0.0, 1.0]})
        with pytest.raises(tx.ConfigError, match="c_a"):
            tx.load_config(p)

    def test_cli_exit_code_on_bad_config(self, tmp_path, capsys):
        p, _ = write_cfg(tmp_path, {"solver.gamma": 1.5})
        assert main(["solve", "--config", str(p)]) == 2
        assert "solver.gamma" in capsys.readouterr().err

    def test_parse_error_reports_line(self, tmp_path, capsys):
        p = tmp_path / "broken.yaml"
        p.write_text("system: [unclosed\n  A: 1\n", encoding="utf-8")
        assert main(["solve", "--config", str(p)]) == 2
        assert "line" in capsys.readouterr().err

    def test_round_trip_value_identical(self, tmp_path):
        p, _ = write_cfg(tmp_path)
        cfg1 = tx.load_config(p)
        p2 = tmp_path / "redump.yaml"
        p2.write_text(yaml.safe_dump(cfg1.to_dict()), encoding="utf-8")
        cfg2 = tx.load_config(p2)
        assert cfg1.to_dict() == cfg2.to_dict()

    def test_exponent_without_dot_named_as_a_string(self, tmp_path, capsys):
        # YAML 1.1 reads 1e-9 as a string; the message says so and gives the
        # spelling that loads as a number
        p = tmp_path / "cfg.yaml"
        text = (ROOT / "configs" / "example.yaml").read_text(encoding="utf-8")
        p.write_text(text.replace("vi_tol: 1.0e-9", "vi_tol: 1e-9"), encoding="utf-8")
        assert main(["solve", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "solver.vi_tol" in err and "'1e-9'" in err
        assert "YAML 1.1 does not read as a number; write 1.0e-9" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, text, hint", [
        ("solver.gamma", "95e-2", "write 95.0e-2"), ("costs.c_stop", "1E1", "write 1.0e+1"),
        ("sim.n_runs", "1e3", "write the integer in digits")])
    def test_exponent_strings_rejected_with_a_hint(self, tmp_path, field, text, hint):
        p, _ = write_cfg(tmp_path, {field: text})
        with pytest.raises(tx.ConfigError, match=re.escape(hint)) as exc:
            tx.load_config(p)
        assert exc.value.path == field

    @pytest.mark.parametrize("overrides, field, shown", [
        ({"solver.vi_tol": float("nan")}, "solver.vi_tol", "nan"),
        ({"costs.c_stop": float("nan")}, "costs.c_stop", "nan"),
        ({"costs.c_a": [float("-inf")]}, "costs.c_a[0]", "-inf"),
        ({"channel.p00": float("nan")}, "channel.p00", "nan"),
        ({"system.A": [[float("inf")]]}, "system.A", "inf at index [0, 0]"),
        ({"system.A": [[float("nan")]]}, "system.A", "nan at index [0, 0]"),
        ({"system.R": 10**400}, "system.R", "an integer beyond the float64 range"),
        ({"channel": {"type": "explicit", "lam": [[0.9], [float("nan")]],
                      "mode_kernel": [[[0.9, 0.1], [0.0, 1.0]]], "b0": 0.0}},
         "channel.lam", "nan at index [1, 0]"),
        ({"channel": {"type": "explicit", "lam": [[0.9], [0.2]],
                      "mode_kernel": [[[0.9, 0.1], [0.0, float("inf")]]], "b0": 0.0}},
         "channel.mode_kernel", "inf at index [0, 1, 1]")])
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, overrides, field, shown):
        p, _ = write_cfg(tmp_path, overrides)
        assert main(["solve", "--config", str(p)]) == 2
        assert capsys.readouterr().err == f"config error: {field}: must be finite, got {shown}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides, field", [
        *(({f"system.{k}": [["0.3"]]}, f"system.{k}") for k in "ACQR"),
        ({"system.A": [[0.85, "0.1"], [0.0, 0.5]]}, "system.A"),
        ({"channel": {"type": "explicit", "lam": [["0.9"], [0.2]],
                      "mode_kernel": [[[0.9, 0.1], [0.0, 1.0]]], "b0": 0.0}}, "channel.lam"),
        ({"channel": {"type": "explicit", "lam": [[0.9], [0.2]],
                      "mode_kernel": [[[0.9, "0.1"], [0.0, 1.0]]], "b0": 0.0}},
         "channel.mode_kernel")])
    def test_text_in_a_matrix_rejected(self, tmp_path, capsys, overrides, field):
        # numpy would parse "0.3" as the number; the models' rule refuses text
        p, _ = write_cfg(tmp_path, overrides)
        assert main(["solve", "--config", str(p)]) == 2
        assert capsys.readouterr().err == \
            f"config error: {field}: must be numeric: got a string\n"
        assert not (tmp_path / "out").exists()

    def test_text_in_a_shipped_plant_rejected(self, tmp_path, capsys):
        text = (ROOT / "bench/workloads/ref.yaml").read_text(encoding="utf-8")
        assert "A: [[0.85]]" in text
        p = tmp_path / "cfg.yaml"
        p.write_text(text.replace("A: [[0.85]]", 'A: [["0.85"]]'), encoding="utf-8")
        assert main(["solve", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "config error: system.A: must be numeric: got a string\n"

    @pytest.mark.parametrize("cls, field, value", [
        (tx.SolverConfig, "gamma", 1.0), (tx.SolverConfig, "gamma", 0.0),
        (tx.SolverConfig, "gamma", True), (tx.SolverConfig, "gamma", "0.9"),
        (tx.SolverConfig, "tau_max", 0), (tx.SolverConfig, "tau_max", True),
        (tx.SolverConfig, "tau_max", 5.0), (tx.SolverConfig, "grid_n", 1),
        (tx.SolverConfig, "vi_tol", 0.0), (tx.SolverConfig, "vi_tol", float("inf")),
        (tx.SolverConfig, "max_sweeps", 0), (tx.SolverConfig, "max_sweeps", False),
        (tx.SolverConfig, "weight_eps", -0.5), (tx.SolverConfig, "weight_eps", [0.1]),
        (tx.SolverConfig, "tie_break", "middle"), (tx.SimConfig, "horizon", 0),
        (tx.SimConfig, "horizon", True), (tx.SimConfig, "n_runs", 0),
        (tx.SimConfig, "n_runs", 2.0), (tx.SimConfig, "seed", -1),
        (tx.SimConfig, "seed", 2**64), (tx.SimConfig, "seed", "7")])
    def test_dataclass_names_the_field_as_the_loader_does(self, tmp_path, cls, field, value):
        section = "solver" if cls is tx.SolverConfig else "sim"
        kw = dict(BASE[section], **{field: value})
        with pytest.raises(tx.ConfigError) as direct:
            cls(**kw)
        assert direct.value.path == f"{section}.{field}"
        p, _ = write_cfg(tmp_path, {f"{section}.{field}": value})
        with pytest.raises(tx.ConfigError) as loaded:
            tx.load_config(p)
        assert str(loaded.value) == str(direct.value)

    def test_dataclasses_accept_numpy_scalars(self):
        cfg = tx.SolverConfig(gamma=np.float32(0.9), tau_max=np.int64(5),
                              vi_tol=np.float64(1e-8), max_sweeps=np.uint16(9))
        assert (type(cfg.gamma), type(cfg.vi_tol), type(cfg.tau_max)) == (float, float, int)
        assert (cfg.gamma, cfg.tau_max, cfg.max_sweeps) == (float(np.float32(0.9)), 5, 9)
        sim = tx.SimConfig(horizon=np.int32(10), n_runs=np.int8(3), seed=np.uint64(2**64 - 1))
        assert (sim.horizon, sim.n_runs, sim.seed) == (10, 3, 2**64 - 1)
        assert type(sim.seed) is int

    def test_quoted_number_is_not_called_unread(self, tmp_path):
        p, _ = write_cfg(tmp_path, {"solver.vi_tol": "1.0e-9"})
        with pytest.raises(tx.ConfigError) as exc:
            tx.load_config(p)
        assert str(exc.value) == "solver.vi_tol: expected a number, got '1.0e-9'"

    @pytest.mark.parametrize("path", CONFIG_FILES)
    def test_libyaml_reads_what_the_python_loader_reads(self, path):
        text = (ROOT / path).read_text(encoding="utf-8")
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.safe_load(text)

    def test_explicit_channel(self, tmp_path):
        p, _ = write_cfg(tmp_path, {"channel": {
            "type": "explicit",
            "lam": [[0.9], [0.2]],
            "mode_kernel": [[[0.9, 0.1], [0.0, 1.0]]],
            "b0": 0.25}})
        cfg = tx.load_config(p)
        assert cfg.channel.initial_belief == 0.25

    def test_lam_list_is_one_action(self, tmp_path):
        # the model's rule: a lam list holds one action's two modes
        cfgs = []
        for i, lam in enumerate(([0.9, 0.2], [[0.9], [0.2]])):
            p, _ = write_cfg(tmp_path, {"channel": {
                "type": "explicit", "lam": lam,
                "mode_kernel": [[[0.9, 0.1], [0.0, 1.0]]], "b0": 0.0}}, name=f"c{i}.yaml")
            cfgs.append(tx.load_config(p))
        assert cfgs[0].channel.lam.tolist() == [[0.9], [0.2]]
        assert cfgs[0].to_dict() == cfgs[1].to_dict()
        assert cfgs[0].problem_sha256 == cfgs[1].problem_sha256

    def test_plant_from_a_list_is_the_model_plant(self, tmp_path):
        # a list is one row, whether the loader or a caller builds the plant
        p, data = write_cfg(tmp_path, {"system.A": [0.85]})
        cfg = tx.load_config(p)
        plant = tx.LtiSystem(A=[0.85], **{k: data["system"][k] for k in ("C", "Q", "R")})
        for k in ("A", "C", "Q", "R"):
            assert np.array_equal(getattr(cfg.system, k), getattr(plant, k))
        assert cfg.to_dict()["system"]["A"] == [[0.85]]


@st.composite
def configs(draw):
    unit = st.floats(0.0, 1.0)
    positive = st.floats(1e-12, 1e6)
    p00, lam_bad = draw(unit), draw(unit)
    return {
        "system": {"A": [[draw(st.floats(-2.0, 2.0))]], "C": [[draw(st.floats(0.1, 10.0))]],
                   "Q": [[draw(positive)]], "R": [[draw(positive)]]},
        "channel": {"type": "ge", "p00": p00, "p11": draw(st.floats(1.0 - p00, 1.0)),
                    "lam_good": draw(st.floats(lam_bad, 1.0)), "lam_bad": lam_bad,
                    "b0": draw(unit)},
        "costs": {"c_a": [0.0], "c_stop": draw(st.floats(0.0, 1e6))},
        "solver": {"gamma": draw(st.floats(1e-9, 1.0, exclude_max=True)),
                   "tau_max": draw(st.integers(1, 500)),
                   "grid_n": draw(st.integers(2, 5000)),
                   "vi_tol": draw(st.floats(1e-300, 1.0)),
                   "weight_eps": draw(positive)},
        "sim": {"horizon": draw(st.integers(1, 10**6)),
                "n_runs": draw(st.integers(1, 10**6)),
                "seed": draw(st.integers(0, 2**64 - 1))},
    }


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=configs())
def test_dumped_config_keeps_its_problem_hash(tmp_path_factory, data):
    p = tmp_path_factory.mktemp("cfg") / "cfg.yaml"
    p.write_text(yaml.safe_dump(data), encoding="utf-8")
    cfg = tx.load_config(p)
    p.write_text(yaml.safe_dump(cfg.to_dict()), encoding="utf-8")
    again = tx.load_config(p)
    assert again.problem_sha256 == cfg.problem_sha256
    assert again.to_dict() == cfg.to_dict()


def test_stable_convergence_failure_names_the_span_rule(tmp_path, capsys):
    # at gamma 0.9999 the span rule's rounding term is about 1.2e-7, above
    # vi_tol 1e-9: the message gives the numbers the rule reads, not sup |d|
    data = yaml.safe_load((ROOT / "bench/workloads/general-slow.yaml").read_text())
    data["solver"].update(gamma=0.9999, max_sweeps=200)
    data["output"]["directory"] = str(tmp_path / "out")
    p = tmp_path / "cfg.yaml"
    p.write_text(yaml.safe_dump(data), encoding="utf-8")
    assert main(["solve", "--config", str(p)]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"convergence failure: value iteration did not reach tol 1e-09 in 200 sweeps "
        r"\(span half-width 3\.6\d\de-08, rounding term 1\.16\de-07, gamma 0\.9999; "
        r"vi_tol is below this rounding floor\)\n", err), err
    data["solver"].update(gamma=0.99, max_sweeps=20, vi_tol=1.0e-6)
    p.write_text(yaml.safe_dump(data), encoding="utf-8")
    assert main(["solve", "--config", str(p)]) == 3
    err = capsys.readouterr().err
    assert "gamma 0.99)" in err and "rounding floor" not in err, err


def test_stopping_convergence_failure_names_the_span_rule(tmp_path, capsys):
    # the stopping problem fails through the same solve path as the general one
    p, _ = write_cfg(tmp_path, {"solver.max_sweeps": 2})
    assert main(["solve", "--config", str(p)]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"convergence failure: value iteration did not reach tol 1e-08 in 2 sweeps "
        r"\(span half-width \d\.\d{3}e[+-]\d\d, rounding term \d\.\d{3}e-\d\d, "
        r"gamma 0\.95\)\n", err), err
    assert not (tmp_path / "out" / "q_values.csv").exists()


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_plant_without_steady_state_fails_at_once(tmp_path, capsys):
    # a random walk that C does not observe: its error grows without bound, so
    # the check comes before the recursion, which would spend about 24 s failing
    p, _ = write_cfg(tmp_path, {"system.A": [[1.0]], "system.C": [[0.0]]})
    assert main(["solve", "--config", str(p)]) == 3
    assert capsys.readouterr().err == (
        "convergence failure: no steady state: (A, C) is not detectable; C does not observe "
        "the eigenvalue 1.0 of A\n")


class TestSolve:
    def test_writes_artifacts(self, tmp_path, capsys):
        p, data = write_cfg(tmp_path)
        assert main(["solve", "--config", str(p)]) == 0
        out = tmp_path / "out"
        for name in ("q_values.csv", "value_policy.csv", "thresholds.csv"):
            assert (out / name).exists()
        rows = (out / "thresholds.csv").read_text().strip().split("\n")
        assert rows[0] == "tau,b_th,is_sentinel"
        assert len(rows) == data["solver"]["tau_max"] + 2

    def test_threshold_csv_nonincreasing(self, tmp_path):
        p, _ = write_cfg(tmp_path)
        main(["solve", "--config", str(p), "--quiet"])
        rows = (tmp_path / "out" / "thresholds.csv").read_text().strip().split("\n")[1:]
        vals = [float("inf") if r.split(",")[2] == "1" else float(r.split(",")[1])
                for r in rows]
        assert all(vals[i + 1] <= vals[i] for i in range(len(vals) - 1))

    def test_rerun_byte_identical(self, tmp_path):
        p, _ = write_cfg(tmp_path)
        main(["solve", "--config", str(p), "--quiet"])
        first = {f.name: f.read_bytes()
                 for f in (tmp_path / "out").iterdir() if f.suffix == ".csv"}
        main(["solve", "--config", str(p), "--quiet"])
        second = {f.name: f.read_bytes()
                  for f in (tmp_path / "out").iterdir() if f.suffix == ".csv"}
        assert first == second

    def test_out_override(self, tmp_path):
        p, _ = write_cfg(tmp_path)
        other = tmp_path / "elsewhere"
        assert main(["solve", "--config", str(p), "--out", str(other),
                     "--quiet"]) == 0
        assert (other / "value_policy.csv").exists()

    def test_csv_round_trips_solution(self, tmp_path):
        p, _ = write_cfg(tmp_path)
        main(["solve", "--config", str(p), "--quiet"])
        cfg = tx.load_config(p)
        ss = tx.steady_state_covariance(cfg.system)
        table = tx.holding_cost_table(cfg.system, ss, cfg.solver.tau_max)
        sol = tx.solve_stopping(tx.StoppingProblem(
            channel=cfg.channel, holding=table, cfg=cfg.solver,
            c_stop=cfg.c_stop))
        rows = (tmp_path / "out" / "q_values.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == (cfg.solver.tau_max + 1) * (cfg.solver.grid_n + 1) * 2
        worst = 0.0
        for row in rows:
            t, b, a, q = row.split(",")
            i = round(float(b) * cfg.solver.grid_n)
            worst = max(worst, abs(sol.Qfun[int(t), i, int(a)] - float(q)))
        # 12 significant digits of values around 10
        assert worst < 1e-10
        vp = (tmp_path / "out" / "value_policy.csv").read_text().strip().split("\n")[1:]
        for row in vp:
            t, b, v, pol = row.split(",")
            i = round(float(b) * cfg.solver.grid_n)
            assert int(pol) == sol.policy[int(t), i]


    def test_prints_certified_error(self, tmp_path, capsys):
        p, _ = write_cfg(tmp_path)
        assert main(["solve", "--config", str(p)]) == 0
        line = next(l for l in capsys.readouterr().out.split("\n")
                    if l.startswith("value iteration: "))
        err = float(line.split("certified error ")[1].split(",")[0])
        assert 0.0 < err < BASE["solver"]["vi_tol"]

    def test_unstable_plant_certificate(self, tmp_path, capsys, monkeypatch):
        # an unstable plant stops on the span rule too: its certificate is an
        # absolute bound below vi_tol, and no lattice modulus enters it
        p, _ = write_cfg(tmp_path, {"system.A": [[1.05]], "channel.lam_bad": 0.5})
        monkeypatch.setattr("txsched.belief_mdp._lattice_moduli",
                            lambda stencil, s, gamma, m: [1.5] * m)
        assert main(["solve", "--config", str(p)]) == 0
        line = next(l for l in capsys.readouterr().out.split("\n")
                    if l.startswith("value iteration: "))
        err = float(line.split("certified error ")[1].split(",")[0])
        assert 0.0 < err < BASE["solver"]["vi_tol"] and "vi_tol" not in line

    @pytest.mark.parametrize("path, above", [("bench/workloads/fine-unstable.yaml", True),
                                             ("configs/example.yaml", False)])
    def test_notes_a_certificate_above_vi_tol(self, tmp_path, capsys, path, above):
        # at A = 1.2 the Q values reach about 3e9, and the rounding floor of
        # the sweep stops the solve above vi_tol: exit 0, and the line says so
        data = yaml.safe_load((ROOT / path).read_text())
        if above:
            data["system"]["A"], data["solver"]["grid_n"] = [[1.2]], 200
        data["output"]["directory"] = str(tmp_path / "out")
        p = tmp_path / "cfg.yaml"
        p.write_text(yaml.safe_dump(data), encoding="utf-8")
        assert main(["solve", "--config", str(p)]) == 0
        line = next(l for l in capsys.readouterr().out.split("\n")
                    if l.startswith("value iteration: "))
        err = float(line.split("certified error ")[1].split(",")[0])
        assert (err > 1e-9) == above
        assert line.endswith("; above solver.vi_tol 1e-09 (rounding floor)") == above
        assert re.search(r", \d+\.\d\ds(;|$)", line), line

    @pytest.mark.parametrize("path, workload", [
        ("configs/example.yaml", "ref"), ("bench/workloads/ref.yaml", "ref"),
        ("bench/workloads/fine-unstable.yaml", "fine-unstable"),
        ("bench/workloads/general-slow.yaml", "general-slow")])
    def test_shipped_configs_certify_vi_tol_with_reference_policy(self, path, workload):
        # every shipped config, unstable plant included, certifies its target
        # and solves to the policy recorded in the benchmark's reference
        cfg = tx.load_config(ROOT / path)
        _, sol = _pipeline(cfg)
        assert sol.certified_error <= cfg.solver.vi_tol
        with np.load(ROOT / "bench/reference" / workload / "solution.npz") as ref:
            assert np.array_equal(sol.policy, ref["policy"])

    def test_general_problem_at_gamma_099_default_max_sweeps(self, tmp_path, capsys):
        p, _ = write_cfg(tmp_path, {
            "channel": {"type": "explicit", "lam": [[0.6, 0.95], [0.1, 0.5]],
                        "mode_kernel": [[[0.9, 0.1], [0.0, 1.0]],
                                        [[0.95, 0.05], [0.2, 0.8]]], "b0": 0.0},
            "costs": {"c_a": [0.0, 1.0]}, "sim": None,
            "solver": {"gamma": 0.99, "tau_max": 60, "grid_n": 200, "vi_tol": 1e-9}})
        assert main(["solve", "--config", str(p)]) == 0
        out = capsys.readouterr().out
        assert "value iteration: 73 sweeps on grid 200 after 107 on grid 20, certified error " \
            in out

    def test_bytes_format_is_fmt(self):
        # the writer formats floats with b"%.12g", the reference writer with _fmt
        rng = np.random.default_rng(12)
        xs = rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64).tolist()
        xs += [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308,
               1e16, 1e-5, 123456789012.5, 10.0]
        assert (b"%.12g\n" * len(xs)) % tuple(xs) == "".join(_fmt(x) + "\n" for x in xs).encode()

    def test_streamed_csvs_equal_reference_writer(self, tmp_path, stopping_solution):
        p, _ = write_cfg(tmp_path, {"costs.c_stop": None})
        assert main(["solve", "--config", str(p), "--quiet"]) == 0
        cfg = tx.load_config(p)
        rng = np.random.default_rng(5)
        Q = rng.uniform(-1e3, 1e3, (4, 7, 3))
        Q[0, 0] = (-0.0, 1e-300, 1e300)
        Q[1, 2] = (np.nan, np.inf, 1.0 / 3.0)
        odd = tx.Solution(Qfun=Q, V=Q.min(axis=2), policy=rng.integers(0, 3, (4, 7)),
                          belief_grid=np.linspace(0.0, 1.0, 7), sweeps_used=1,
                          final_residual=0.0)
        # one row with both zeros, two NaN payloads and repeated values, and
        # a V that is none of its row's Q values (the writer tells values
        # apart by their bits)
        nan_a, nan_b = np.array([0x7FF8000000000001, 0xFFF8000000000ABC],
                                dtype=np.uint64).view(np.float64)
        Qh = np.array([[[0.0, -0.0], [nan_a, nan_b], [0.1, 0.1], [-0.0, 2.5]],
                       [[1.0, 1.0], [0.0, 0.0], [-0.0, -0.0], [nan_b, 7.0]]])
        Vh = np.array([[-0.0, nan_b, 0.25, 0.0], [1.0, -0.0, 0.0, 3.0]])
        hand = tx.Solution(Qfun=Qh, V=Vh, policy=np.array([[0, 1, 0, 1], [1, 1, 0, 0]]),
                           belief_grid=np.linspace(0.0, 1.0, 4), sweeps_used=1,
                           final_residual=0.0)
        ss = tx.steady_state_covariance(cfg.system)
        cost = tx.StageCost(holding=tx.holding_cost_table(cfg.system, ss, cfg.solver.tau_max),
                            action_costs=cfg.action_costs)
        # the constant-column literals: the stop column of a grid-2000 unstable
        # stopping solve, and hand-built columns whose V cells match the
        # literal's bits and action, or miss one of the two
        _, fine = _pipeline(tx.load_config(ROOT / "bench/workloads/fine-unstable.yaml"))
        assert (fine.Qfun[:, :, 1] == 10.0).all() and (fine.policy == 1).any()
        lattice = {}

        def add(name, Q, V, policy):
            lattice[name] = tx.Solution(Qfun=Q, V=V, policy=policy, sweeps_used=1,
                                        belief_grid=np.linspace(0.0, 1.0, Q.shape[1]),
                                        final_residual=0.0)

        base = rng.uniform(1.0, 20.0, (4, 6, 3))
        zero = base[:, :, :2].copy()
        zero[:, :, 1] = 0.0
        V, pol = zero[:, :, 0].copy(), np.zeros((4, 6), dtype=np.int64)
        V[0, :3], pol[0, :4] = 0.0, 1
        V[0, 3] = -0.0                  # a -0.0 under the stop action keeps its slot
        V[2], pol[2] = 0.0, 1           # a row of literals only; row 1 has none
        add("zero", zero, V, pol)
        nan = base[:, :, :2].copy()
        nan[:, :, 1] = nan_a
        V, pol = nan[:, :, 0].copy(), np.zeros((4, 6), dtype=np.int64)
        V[0, :3], pol[0, :4] = nan_a, 1
        V[0, 3] = nan_b                 # another payload keeps its slot
        V[0, 4] = nan_a                 # the constant's bits under action 0
        add("nan", nan, V, pol)
        tie = base[:, :, :2].copy()
        tie[:, :, 1] = 10.0
        tie[2, 4, 0] = 10.0
        V, pol = tie.min(axis=2), (tie[:, :, 1] <= tie[:, :, 0]).astype(np.int64)
        pol[2, 4] = 0                   # equal values, the policy names the other action
        add("tie", tie, V, pol)
        almost = zero.copy()
        almost[3, 5, 1] = -0.0
        add("almost", almost, almost.min(axis=2), almost.argmin(axis=2))
        two = base.copy()
        two[:, :, 1], two[:, :, 2] = 10.0, 2.5
        V, pol = two.min(axis=2), two.argmin(axis=2)
        V[1, :2], pol[1, :2] = 10.0, 1
        pol[3, 0] = 1                   # the other constant's bits under action 1
        add("two", two, V, pol)
        solutions = {"odd": odd, "hand": hand, "stopping": stopping_solution, "fine": fine,
                     **lattice}
        for name, sol in solutions.items():
            (tmp_path / name).mkdir()
            write_solution_csvs(sol, tmp_path / name)
        for sol, got in ((tx.value_iterate(cfg.channel, cost, cfg.solver), tmp_path / "out"),
                         *((sol, tmp_path / name) for name, sol in solutions.items())):
            ref = got.with_name(got.name + "_ref")
            ref.mkdir()
            rowlist_write_solution_csvs(sol, ref)
            for name in ("q_values.csv", "value_policy.csv"):
                assert (got / name).read_bytes() == (ref / name).read_bytes()
        assert b"\n0,0,0,0\n0,0,1,-0\n" in (tmp_path / "hand" / "q_values.csv").read_bytes()
        assert (tmp_path / "hand" / "value_policy.csv").read_text().splitlines()[1:5] == [
            "0,0,-0,0", "0,0.333333333333,nan,1", "0,0.666666666667,0.25,0", "0,1,0,1"]
        assert (tmp_path / "zero" / "value_policy.csv").read_text().splitlines()[3:5] == [
            "0,0.4,0,1", "0,0.6,-0,1"]
        assert (tmp_path / "tie" / "value_policy.csv").read_text().splitlines()[17] == \
            "2,0.8,10,0"


class TestThreeActions:
    """An explicit channel with three actions through the CLI."""

    CHANNEL = {"type": "explicit", "lam": [[0.6, 0.8, 0.95], [0.1, 0.3, 0.5]],
               "mode_kernel": [[[0.9, 0.1], [0.0, 1.0]], [[0.92, 0.08], [0.1, 0.9]],
                               [[0.95, 0.05], [0.2, 0.8]]], "b0": 0.0}

    def test_solve_and_verify(self, tmp_path, capsys):
        p, _ = write_cfg(tmp_path, {"channel": self.CHANNEL, "sim": None,
                                    "costs": {"c_a": [0.0, 0.4, 1.0]}})
        out = tmp_path / "out"
        assert main(["solve", "--config", str(p), "--quiet"]) == 0
        files = {f: (out / f).read_bytes() for f in ("q_values.csv", "value_policy.csv",
                                                      "q_values.npy")}
        assert main(["verify", "--config", str(p), "--quiet"]) == 0
        Q = np.load(out / "q_values.npy")
        assert Q.shape == (21, 41, 3) and len(set(np.argmin(Q, axis=2).ravel())) > 1
        rows = [line.split(",") for line in files["q_values.csv"].decode().splitlines()[1:]]
        assert [r[2] for r in rows] == ["0", "1", "2"] * (21 * 41)
        assert [r[:2] for r in rows[::3]] == [r[:2] for r in rows[1::3]] == \
            [r[:2] for r in rows[2::3]]
        values = [line.split(",")[2] for line in
                  files["value_policy.csv"].decode().splitlines()[1:]]
        assert values == [f"{v:.12g}" for v in Q.min(axis=2).ravel()]
        assert main(["solve", "--config", str(p), "--quiet"]) == 0
        assert all((out / f).read_bytes() == b for f, b in files.items())
        for command in ("simulate", "thresholds"):
            capsys.readouterr()
            with pytest.raises(SystemExit) as exc:
                main([command, "--config", str(p)])
            assert exc.value.code == 2
            assert f"{command} needs the stopping formulation" in capsys.readouterr().err


class TestVerify:
    def test_reference_config_passes(self, tmp_path, capsys):
        p, _ = write_cfg(tmp_path)
        assert main(["verify", "--config", str(p), "--quiet"]) == 0
        report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
        statuses = {c["check"]: c["status"] for c in report["checks"]}
        assert statuses["fold_equivalence"] == "pass"
        assert statuses["value_monotonicity"] == "pass"
        assert statuses["threshold_monotone"] == "pass"
        assert "fail" not in statuses.values()

    def test_general_problem_without_stopping(self, tmp_path):
        p, _ = write_cfg(tmp_path, {"costs.c_stop": None})
        assert main(["verify", "--config", str(p), "--quiet"]) == 0
        report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
        names = {c["check"] for c in report["checks"]}
        assert "threshold_monotone" not in names
        assert main(["solve", "--config", str(p), "--quiet"]) == 0
        assert not (tmp_path / "out" / "thresholds.csv").exists()

    def test_stable_plant_with_lam_bad_zero(self, tmp_path, capsys):
        # the unfavorable mode never delivers; the plant is stable, so the
        # contraction holds in the plain sup norm and verify must pass
        p, _ = write_cfg(tmp_path, {"channel.p00": 1.0, "channel.p11": 1.0,
                                    "channel.lam_good": 1.0, "channel.lam_bad": 0.0,
                                    "channel.b0": 0.5})
        assert main(["solve", "--config", str(p), "--quiet"]) == 0
        assert main(["verify", "--config", str(p), "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
        statuses = [c["status"] for c in report["checks"]]
        assert statuses.count("pass") == 9 and statuses.count("skip") == 1
        contraction = next(c for c in report["checks"] if c["check"] == "contraction")
        assert contraction["detail"].startswith("m=1, certified bound 0.95,")
        # a skipped check is reported as skipped, not counted as passed
        assert main(["verify", "--config", str(p)]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[-1] == "9/10 checks passed, 1 skipped"

    def test_plant_with_rounding_noise_in_cost_table(self, tmp_path, capsys):
        p, _ = write_cfg(tmp_path, {"system": ULP_NOISE_PLANT})
        assert main(["solve", "--config", str(p), "--quiet"]) == 0
        assert main(["verify", "--config", str(p)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.strip().split("\n")[-1] == "10/10 checks passed"

    def test_non_tp2_mode_kernel_fails(self, tmp_path):
        p, _ = write_cfg(tmp_path, {"channel": {
            "type": "explicit",
            "lam": [[0.9], [0.2]],
            "mode_kernel": [[[0.4, 0.6], [0.7, 0.3]]],
            "b0": 0.0}})
        assert main(["verify", "--config", str(p), "--quiet"]) == 4
        report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
        tp2 = next(c for c in report["checks"] if c["check"] == "mode_kernel_tp2")
        assert tp2["status"] == "fail"
        assert "witness" in tp2["detail"]


class TestSimulate:
    def test_requires_prior_solve_for_solved_policy(self, tmp_path, capsys):
        p, _ = write_cfg(tmp_path)
        assert main(["simulate", "--config", str(p), "--policy", "solved"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("stale policy: solve_record.json is missing, this config has ")
        assert err.endswith("; run solve first\n")
        assert not (tmp_path / "out" / "simstats_solved.json").exists()

    def test_seed_repeat_identical_bytes(self, tmp_path):
        p, _ = write_cfg(tmp_path)
        main(["solve", "--config", str(p), "--quiet"])
        main(["simulate", "--config", str(p), "--policy", "solved", "--quiet"])
        first = (tmp_path / "out" / "simstats_solved.json").read_bytes()
        main(["simulate", "--config", str(p), "--policy", "solved", "--quiet"])
        assert (tmp_path / "out" / "simstats_solved.json").read_bytes() == first

    def test_seed_override_changes_results(self, tmp_path):
        p, _ = write_cfg(tmp_path)
        main(["solve", "--config", str(p), "--quiet"])
        main(["simulate", "--config", str(p), "--policy", "never-stop", "--quiet"])
        base = json.loads((tmp_path / "out" / "simstats_never-stop.json").read_text())
        main(["simulate", "--config", str(p), "--policy", "never-stop",
              "--seed", "999", "--quiet"])
        other = json.loads((tmp_path / "out" / "simstats_never-stop.json").read_text())
        assert other["seed"] == 999
        assert other["mean_discounted_cost"] != base["mean_discounted_cost"]

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_is_a_usage_error(self, tmp_path, capsys, seed):
        # the bound is sim.seed's, but the command line is not the config
        p, _ = write_cfg(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(p), "--policy", "never-stop", "--seed", seed])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument --seed: must be {'>= 0' if seed == '-1' else '<='}" in err
        assert seed in err and "config error" not in err
        assert not (tmp_path / "out").exists()

    def test_largest_seed_overrides(self, tmp_path):
        p, _ = write_cfg(tmp_path, {"sim.n_runs": 3})
        assert main(["simulate", "--config", str(p), "--policy", "never-stop",
                     "--seed", str(2**64 - 1), "--quiet"]) == 0
        stats = json.loads((tmp_path / "out" / "simstats_never-stop.json").read_text())
        assert stats["seed"] == 2**64 - 1

    def test_horizon_one_costs(self, tmp_path, plant):
        p, _ = write_cfg(tmp_path, {"sim.horizon": 1, "sim.n_runs": 8})
        main(["simulate", "--config", str(p), "--policy", "stop-now", "--quiet"])
        stats = json.loads((tmp_path / "out" / "simstats_stop-now.json").read_text())
        assert stats["mean_discounted_cost"] == 10.0
        main(["simulate", "--config", str(p), "--policy", "never-stop", "--quiet"])
        stats = json.loads((tmp_path / "out" / "simstats_never-stop.json").read_text())
        ss = tx.steady_state_covariance(plant)
        assert stats["mean_discounted_cost"] == pytest.approx(
            float(np.trace(ss.Pbar)), rel=1e-12)

    @pytest.mark.parametrize("command", ["simulate", "thresholds"])
    def test_general_problem_is_a_usage_error(self, tmp_path, capsys, command):
        # the config is valid; the command serves the stopping problem only
        p, _ = write_cfg(tmp_path, {"costs.c_stop": None})
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(p)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: {command} needs the stopping formulation" in err
        assert "costs.c_stop" in err and "config error" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("policy", ["nope", "bogus", "threshold:abc", "threshold:",
                                        "threshold:nan"])
    def test_bad_policy_is_a_usage_error(self, tmp_path, capsys, policy):
        # argparse reports it, with exit 2; it is not a fault of the config
        p, _ = write_cfg(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(p), "--policy", policy])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --policy: " in err and repr(policy) in err
        assert "config error" not in err
        assert not (tmp_path / "out").exists()

    def test_no_trace_removes_an_old_one_of_its_policy(self, tmp_path):
        # a trace stays only beside the simstats of the run that wrote it
        traced, _ = write_cfg(tmp_path, {"output.emit_traces": True, "sim.n_runs": 20})
        p, _ = write_cfg(tmp_path, name="untraced.yaml")
        out = tmp_path / "out"
        for policy in ("never-stop", "stop-now"):
            assert main(["simulate", "--config", str(traced), "--policy", policy,
                         "--seed", "1", "--quiet"]) == 0
        assert main(["simulate", "--config", str(p), "--policy", "never-stop",
                     "--seed", "2", "--quiet"]) == 0
        assert sorted(f.name for f in out.iterdir()) == [
            "simstats_never-stop.json", "simstats_stop-now.json", "solve_record.json",
            "traces_stop-now.csv"]
        assert json.loads((out / "simstats_never-stop.json").read_text())["seed"] == 2

    def test_threshold_policy_and_traces(self, tmp_path):
        p, _ = write_cfg(tmp_path, {"output.emit_traces": True,
                                    "sim.n_runs": 5, "sim.horizon": 12})
        assert main(["simulate", "--config", str(p), "--policy",
                     "threshold:0.5", "--quiet"]) == 0
        cfg = tx.load_config(p)
        table = tx.holding_cost_table(cfg.system, tx.steady_state_covariance(cfg.system),
                                      cfg.solver.tau_max)
        # the per-episode writer the lockstep columns replaced
        lines = ["episode,t,theta,action,gamma_t,tau,belief,cost"]
        for ep in range(cfg.sim.n_runs):
            tr = run_episode(cfg.channel, table.costs, cfg.c_stop, cfg.solver.gamma,
                             tx.FixedThresholdPolicy(0.5), cfg.sim.horizon,
                             _stream(cfg.sim.seed, ep))
            for i in range(len(tr)):
                lines.append(f"{ep},{tr.t[i]},{tr.theta[i]},{tr.action[i]},"
                             f"{tr.success[i]},{tr.tau[i]},{_fmt(tr.belief[i])},"
                             f"{_fmt(tr.stage_cost[i])}")
        want = "".join(line + "\n" for line in lines).encode()
        assert (tmp_path / "out" / "traces_threshold_0.5.csv").read_bytes() == want
        assert len(lines) > cfg.sim.n_runs + 1 and any(",1,-1," in line for line in lines)


class TestOverrides:
    @pytest.mark.parametrize("args", [
        ["solve", "--out", "o"], ["verify", "--out", "o"], ["thresholds", "--out", "o"],
        ["simulate", "--policy", "never-stop", "--out", "o"],
        ["simulate", "--policy", "never-stop", "--seed", "7"],
        ["simulate", "--policy", "never-stop", "--out", "o", "--seed", "7"]])
    def test_one_parse_per_command(self, tmp_path, monkeypatch, args):
        # counted under every name a module may have bound it to
        calls, parse = [], tx.parse_config
        for module in ("txsched.config", "txsched.cli"):
            monkeypatch.setattr(sys.modules[module], "parse_config",
                                lambda data: calls.append(1) or parse(data), raising=False)
        p, _ = write_cfg(tmp_path, {"sim.n_runs": 4})
        args = [str(tmp_path / a) if a == "o" else a for a in args]
        assert main([args[0], "--config", str(p), "--quiet", *args[1:]]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("out, seed", [("elsewhere", None), (None, 7),
                                           ("elsewhere", 2**64 - 1)])
    def test_overrides_equal_a_reparse(self, tmp_path, out, seed):
        cfg = tx.load_config(ROOT / "configs/example.yaml")
        out = out and str(tmp_path / out)
        got = _apply_overrides(cfg, argparse.Namespace(out=out, seed=seed))
        raw = cfg.to_dict()
        raw["output"]["directory"] = out or raw["output"]["directory"]
        raw["sim"]["seed"] = raw["sim"]["seed"] if seed is None else seed
        ref = tx.parse_config(raw)
        assert got.to_dict() == ref.to_dict() == raw
        assert got.problem_sha256 == ref.problem_sha256 == cfg.problem_sha256
        assert (got.sim, got.output.directory) == (ref.sim, ref.output.directory)
        assert got.sim.seed == (cfg.sim.seed if seed is None else seed)

    def test_seed_without_a_sim_section(self, tmp_path, capsys):
        p, _ = write_cfg(tmp_path, {"sim": None})
        assert main(["simulate", "--config", str(p), "--policy", "never-stop",
                     "--seed", "3"]) == 2
        assert capsys.readouterr().err == (
            "config error: sim: cannot override the seed without a sim section\n")

    @pytest.mark.parametrize("field, value, flags, message", [
        ("output.directory", "", ["--out", "o"], "expected a nonempty string"),
        ("output.directory", 5, ["--out", "o", "--seed", "3"], "expected a nonempty string"),
        ("sim.seed", -1, ["--seed", "3"], "must be >= 0, got -1"),
        ("sim.seed", "x", ["--out", "o"], "expected an integer, got 'x'")])
    def test_invalid_file_value_fails_despite_an_override(self, tmp_path, capsys, field,
                                                          value, flags, message):
        p, data = write_cfg(tmp_path)
        section, key = field.split(".")
        data[section][key] = value
        p.write_text(yaml.safe_dump(data), encoding="utf-8")
        flags = [str(tmp_path / f) if f == "o" else f for f in flags]
        assert main(["simulate", "--config", str(p), "--policy", "never-stop", *flags]) == 2
        assert capsys.readouterr().err == f"config error: {field}: {message}\n"


class TestSolvedPolicyProvenance:
    def test_solve_records_problem_hash(self, tmp_path):
        p, _ = write_cfg(tmp_path)
        assert main(["solve", "--config", str(p), "--quiet"]) == 0
        record = json.loads((tmp_path / "out" / "solve_record.json").read_text())
        assert record == {"problem_sha256": tx.load_config(p).problem_sha256}

    @pytest.mark.parametrize("path, problem, whole", [
        ("configs/example.yaml",
         "f846a77c51721fb8eb4390df4f2bd5b3a4ea43bc5654b502caff83792bd401d8",
         "b19fa0898ede93719b3568cb4c5485631752e08d2d10c7ec4ff6ca09d1ab2ba1"),
        ("bench/workloads/ref.yaml",
         "f846a77c51721fb8eb4390df4f2bd5b3a4ea43bc5654b502caff83792bd401d8",
         "b19fa0898ede93719b3568cb4c5485631752e08d2d10c7ec4ff6ca09d1ab2ba1"),
        ("bench/workloads/fine-unstable.yaml",
         "30574a389e837700f3b8701cfc3952301da6922e8f99eca383c7fa6581b3a9b1",
         "2c7c59dc5191bfd0d618ce36e140e3b7f92960b695bc2e2dfae85f6db2898e1b"),
        ("bench/workloads/general-slow.yaml",
         "d8ef9499c622622233a4b86e34511f5f4735cd777993d52f4ef149c78e9d0fe2",
         "9371146ed11658c711fe9c7d53c9fcb699017f340e320180c49870bcc0e8be7c")])
    def test_shipped_configs_keep_their_hashes(self, tmp_path, path, problem, whole):
        # solve_record.json keys every output directory by problem_sha256, so
        # a change to how it or to_dict is derived would make the next
        # command empty every directory written before it
        cfg = tx.load_config(ROOT / path)
        assert cfg.problem_sha256 == problem
        text = json.dumps(cfg.to_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == whole
        other_seed = None if cfg.sim is None else cfg.sim.seed + 1
        for out, seed in ((str(tmp_path), None), (None, other_seed), (str(tmp_path), other_seed)):
            got = _apply_overrides(cfg, argparse.Namespace(out=out, seed=seed))
            assert got.problem_sha256 == problem

    def test_hash_ignores_output_and_sim_sections(self, tmp_path):
        p1, _ = write_cfg(tmp_path, name="a.yaml")
        p2, _ = write_cfg(tmp_path, {"output.directory": "other", "sim.seed": 5,
                                     "sim.n_runs": 7}, name="b.yaml")
        p3, _ = write_cfg(tmp_path, {"channel.lam_bad": 0.3}, name="c.yaml")
        h1, h2, h3 = (tx.load_config(p).problem_sha256 for p in (p1, p2, p3))
        assert h1 == h2 != h3

    def test_policy_of_another_config_refused(self, tmp_path, capsys):
        # same output directory and lattice shape, different channel: the
        # policy on disk was solved for the first config only
        p1, _ = write_cfg(tmp_path, name="a.yaml")
        p2, _ = write_cfg(tmp_path, {"channel.lam_bad": 0.6}, name="b.yaml")
        assert main(["solve", "--config", str(p1), "--quiet"]) == 0
        capsys.readouterr()
        assert main(["simulate", "--config", str(p2), "--policy", "solved",
                     "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "stale policy" in err and "not solved for this config" in err
        assert not (tmp_path / "out" / "simstats_solved.json").exists()

    def test_lattice_shape_mismatch_refused(self, tmp_path, capsys):
        p1, _ = write_cfg(tmp_path, name="a.yaml")
        p2, _ = write_cfg(tmp_path, {"solver.grid_n": 30, "solver.tau_max": 12,
                                     "output.directory": "out2"}, name="b.yaml")
        assert main(["solve", "--config", str(p1), "--quiet"]) == 0
        assert main(["solve", "--config", str(p2), "--quiet"]) == 0
        path = tmp_path / "out2" / "q_values.npy"
        path.write_bytes((tmp_path / "out" / "q_values.npy").read_bytes())
        capsys.readouterr()
        assert main(["simulate", "--config", str(p2), "--policy", "solved"]) == 2
        assert capsys.readouterr().err == (
            f"stale policy: {path} holds float64 (21, 41, 2), not float64 (13, 31, 2); "
            "run solve first\n")
        assert not (tmp_path / "out2" / "simstats_solved.json").exists()

    def test_missing_record_refused(self, tmp_path, capsys):
        p, _ = write_cfg(tmp_path)
        assert main(["solve", "--config", str(p), "--quiet"]) == 0
        (tmp_path / "out" / "solve_record.json").unlink()
        capsys.readouterr()
        assert main(["simulate", "--config", str(p), "--policy", "solved"]) == 2
        assert "solve_record.json is missing" in capsys.readouterr().err

    def test_reader_returns_the_solved_lattice(self, tmp_path):
        # the policy simulate acts on is the solver's, and the one that
        # value_policy.csv publishes
        p, _ = write_cfg(tmp_path)
        assert main(["solve", "--config", str(p), "--quiet"]) == 0
        cfg = tx.load_config(p)
        ss = tx.steady_state_covariance(cfg.system)
        table = tx.holding_cost_table(cfg.system, ss, cfg.solver.tau_max)
        sol = tx.solve_stopping(tx.StoppingProblem(
            channel=cfg.channel, holding=table, cfg=cfg.solver, c_stop=cfg.c_stop))
        policy = _build_policy(cfg, "solved", tmp_path / "out").policy
        assert policy.dtype == np.int64 and np.array_equal(policy, sol.policy)
        published, grid_n, tau_max = loadtxt_read_value_policy_csv(
            tmp_path / "out" / "value_policy.csv")
        assert (grid_n, tau_max) == (cfg.solver.grid_n, cfg.solver.tau_max)
        assert np.array_equal(published, policy)

    @pytest.mark.parametrize("edit", ["cut_last_row", "cut_mid_row", "cut_all_rows",
                                      "action_2", "bad_header", "missing", "directory"])
    def test_value_policy_csv_is_not_read_back(self, tmp_path, capsys, edit):
        # simulate takes its policy from q_values.npy: whatever becomes of
        # the published CSV, it runs the same episodes to the same bytes
        p, _ = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(p), "--quiet"]) == 0
        assert main(["simulate", "--config", str(p), "--policy", "solved", "--quiet"]) == 0
        want = (out / "simstats_solved.json").read_bytes()
        (out / "simstats_solved.json").unlink()
        path = out / "value_policy.csv"
        lines = path.read_text().split("\n")[:-1]
        if edit in ("missing", "directory"):
            path.unlink()
            if edit == "directory":
                path.mkdir()
        else:
            kept = {"cut_last_row": lines[:-1],
                    "cut_mid_row": lines[:-1] + [lines[-1][:5]],
                    "cut_all_rows": lines[:1],
                    "action_2": lines[:-1] + [lines[-1][:-1] + "2"],
                    "bad_header": ["tau,belief,policy,value"] + lines[1:]}[edit]
            path.write_text("\n".join(kept) + "\n")
        capsys.readouterr()
        assert main(["simulate", "--config", str(p), "--policy", "solved", "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        assert (out / "simstats_solved.json").read_bytes() == want

    def test_corrupt_record_refused(self, tmp_path, capsys):
        p, _ = write_cfg(tmp_path)
        assert main(["solve", "--config", str(p), "--quiet"]) == 0
        (tmp_path / "out" / "solve_record.json").write_text('{"problem_sha256": "\x01')
        capsys.readouterr()
        assert main(["simulate", "--config", str(p), "--policy", "solved"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("stale policy: ") and "solve_record.json is unreadable" in err
        assert not (tmp_path / "out" / "simstats_solved.json").exists()

    def test_out_and_seed_overrides_keep_the_policy_valid(self, tmp_path):
        p, _ = write_cfg(tmp_path)
        other = tmp_path / "elsewhere"
        assert main(["solve", "--config", str(p), "--out", str(other), "--quiet"]) == 0
        assert main(["simulate", "--config", str(p), "--out", str(other),
                     "--policy", "solved", "--seed", "999", "--quiet"]) == 0
        stats = json.loads((other / "simstats_solved.json").read_text())
        assert stats["seed"] == 999


class TestPolicyReader:
    """The policy that simulate --policy solved acts on against the one
    that solve published in value_policy.csv, read by np.loadtxt
    (tests/oracles.py)."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(ch=channels(max_actions=1), a=st.floats(-0.95, 0.95), grid_n=st.integers(2, 12),
           tau_max=st.integers(1, 120), gamma=st.floats(0.3, 0.95), c_stop=st.floats(0.5, 20.0))
    @example(ch=tx.ChannelModel(lam=[[0.125], [0.0]], mode_kernel=[[[0.0, 1.0], [1.0, 0.0]]]),
             a=0.0, grid_n=2, tau_max=1, gamma=0.40625, c_stop=0.5)  # solve exits 4
    def test_round_trip(self, tmp_path_factory, ch, a, grid_n, tau_max, gamma, c_stop):
        tmp = tmp_path_factory.mktemp("round_trip")
        p, _ = write_cfg(tmp, {
            "system.A": [[a]], "costs.c_stop": c_stop,
            "channel": {"type": "explicit", "lam": ch.lam.tolist(),
                        "mode_kernel": ch.mode_kernel.tolist(), "b0": 0.0},
            "solver": {"gamma": gamma, "tau_max": tau_max, "grid_n": grid_n, "vi_tol": 1e-6}})
        cfg, out = tx.load_config(p), tmp / "out"
        rc = main(["solve", "--config", str(p), "--quiet"])
        event(f"solve exits {rc}")
        if rc == 4:  # a stop region without a threshold: solve publishes nothing
            assert not (out / "value_policy.csv").exists()
            with pytest.raises(StalePolicyError, match="solve_record.json is missing"):
                _build_policy(cfg, "solved", out)
            return
        assert rc == 0
        policy = _build_policy(cfg, "solved", out).policy
        published, got_grid_n, got_tau_max = loadtxt_read_value_policy_csv(
            out / "value_policy.csv")
        assert (got_grid_n, got_tau_max) == (grid_n, tau_max)
        assert policy.dtype == published.dtype == np.int64
        assert np.array_equal(policy, published)


GENERAL = {
    "channel": {"type": "explicit", "lam": [[0.6, 0.95], [0.1, 0.5]],
                "mode_kernel": [[[0.9, 0.1], [0.0, 1.0]], [[0.95, 0.05], [0.2, 0.8]]],
                "b0": 0.0},
    "costs": {"c_a": [0.0, 1.0]}, "sim": None,
    "solver": {"gamma": 0.99, "tau_max": 60, "grid_n": 200, "vi_tol": 1e-9}}


# each way a q_values.npy can fail to vouch for its config, with the words
# verify gives for it
FAULTS = [
    ("missing", "No such file or directory"),
    ("stale_record", "solve_record.json records problem sha256 0123"),
    ("shape", "holds float64 (20, 41, 2), not float64 (21, 41, 2)"),
    ("dtype", "holds float32 (21, 41, 2), not float64 (21, 41, 2)"),
    ("nan", "holds a value that is not finite"),
    ("stop_column", "has a stop column other than costs.c_stop = 10.0"),
    ("truncated", "mmap length is greater than file size"),
    ("pickled", "Array can't be memory-mapped: Python objects in dtype"),
    ("pickle_file", "contains pickled (object) data"),
    ("empty", "No data left in file"),
    ("npz", "holds an .npz archive"),
    ("directory", "Is a directory")]


class _Unpickled(Exception):
    pass


def _unpickle_alarm():
    raise _Unpickled("q_values.npy was unpickled")


class _Alarm:
    def __reduce__(self):
        return _unpickle_alarm, ()


def _break_q_values(out: Path, fault: str):
    """Give the solve in out the named fault of FAULTS."""
    path = out / "q_values.npy"
    Q = np.load(path)
    if fault == "missing":
        path.unlink()
    elif fault == "stale_record":
        (out / "solve_record.json").write_text('{"problem_sha256": "0123"}')
    elif fault == "shape":
        np.save(path, Q[:-1])
    elif fault == "dtype":
        np.save(path, Q.astype(np.float32))
    elif fault == "nan":
        Q[3, 4, 0] = np.nan
        np.save(path, Q)
    elif fault == "stop_column":
        Q[2, 5, 1] = np.nextafter(10.0, 11.0)
        np.save(path, Q)
    elif fault == "truncated":
        path.write_bytes(path.read_bytes()[:-8])
    elif fault == "pickled":  # loading it unpickled would raise _Unpickled
        np.save(path, np.array([_Alarm()], dtype=object), allow_pickle=True)
    elif fault == "pickle_file":
        path.write_bytes(pickle.dumps(_Alarm()))
    elif fault == "empty":
        path.write_bytes(b"")
    elif fault == "npz":
        with open(path, "wb") as fh:
            np.savez(fh, q=Q)
    else:
        path.unlink()
        path.mkdir()


class TestStoredSolution:
    """verify and simulate --policy solved read the Q that solve wrote for
    their config (q_values.npy). Whenever that file cannot vouch for the
    config, verify solves again, to the same report, and simulate refuses it
    as a stale policy."""

    @pytest.fixture
    def solves(self, monkeypatch):
        """The number of belief_mdp._iterate calls so far, as a list."""
        import txsched.belief_mdp as bm
        calls, real = [], bm._iterate

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(bm, "_iterate", spy)
        return calls

    @staticmethod
    def verify(p, out, capsys):
        """verify's exit code, report bytes and the line naming its source."""
        capsys.readouterr()
        rc = main(["verify", "--config", str(p), "--out", str(out)])
        lines = capsys.readouterr().out.strip().split("\n")
        assert " checks passed" in lines[-1]
        return rc, (out / "verify_report.json").read_bytes(), lines[-2]

    def test_solve_writes_q_exactly(self, tmp_path):
        p, _ = write_cfg(tmp_path)
        assert main(["solve", "--config", str(p), "--quiet"]) == 0
        _, sol = _pipeline(tx.load_config(p))
        Q = np.load(tmp_path / "out" / "q_values.npy", allow_pickle=False)
        assert Q.dtype == np.float64 and Q.shape == (21, 41, 2)
        assert Q.tobytes() == sol.Qfun.tobytes()

    def test_verify_after_solve_solves_nothing(self, tmp_path, capsys, solves):
        p, _ = write_cfg(tmp_path)
        assert main(["solve", "--config", str(p), "--quiet"]) == 0
        assert solves == [1]
        rc, _, source = self.verify(p, tmp_path / "out", capsys)
        assert rc == 0 and solves == [1]
        assert source == (f"value checks on {tmp_path / 'out'}/q_values.npy "
                          "from the solve for this config")

    @pytest.mark.parametrize("config", [
        "configs/example.yaml", "general", "unstable", "bench/workloads/ref.yaml",
        "bench/workloads/fine-unstable.yaml", "bench/workloads/general-slow.yaml"])
    def test_report_is_the_same_on_both_paths(self, tmp_path, capsys, solves, config):
        problems = {"general": GENERAL, "unstable": {"system.A": [[1.05]],
                                                      "channel.lam_bad": 0.5}}
        p = write_cfg(tmp_path, problems[config])[0] if config in problems else ROOT / config
        rc, again, source = self.verify(p, tmp_path / "again", capsys)
        assert source.startswith("value checks on a new solve: solve_record.json is missing")
        assert main(["solve", "--config", str(p), "--out", str(tmp_path / "stored"),
                     "--quiet"]) == 0
        n = len(solves)
        assert self.verify(p, tmp_path / "stored", capsys)[:2] == (rc, again)
        assert len(solves) == n

    @pytest.mark.parametrize("fault, reason", FAULTS)
    def test_a_file_that_cannot_vouch_is_solved_again(self, tmp_path, capsys, solves,
                                                      fault, reason):
        p, _ = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(p), "--quiet"]) == 0
        rc, stored, _ = self.verify(p, out, capsys)
        _break_q_values(out, fault)
        n = len(solves)
        again = self.verify(p, out, capsys)
        assert again[:2] == (rc, stored)
        assert len(solves) > n
        assert again[2].startswith("value checks on a new solve: ") and reason in again[2]

    @pytest.mark.parametrize("fault, reason", FAULTS)
    def test_a_file_that_cannot_vouch_is_a_stale_policy(self, tmp_path, capsys, fault,
                                                        reason):
        p, _ = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(p), "--quiet"]) == 0
        _break_q_values(out, fault)
        capsys.readouterr()
        assert main(["simulate", "--config", str(p), "--policy", "solved"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("stale policy: ") and reason in captured.err
        assert captured.err.endswith("; run solve first\n")
        assert not (out / "simstats_solved.json").exists()

    def test_solution_arrays_are_read_only(self, tmp_path):
        p, _ = write_cfg(tmp_path)
        assert main(["solve", "--config", str(p), "--quiet"]) == 0
        cfg = tx.load_config(p)
        stored, why = _stored_solution(cfg, tmp_path / "out")
        assert why is None
        for sol in (_pipeline(cfg)[1], stored):
            for name in ("Qfun", "V", "policy"):
                a = getattr(sol, name)
                assert not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a[0, 0] = 0
        # the stored one is a copy in memory, not a map of the file that the
        # next solve rewrites
        a = stored.Qfun
        while a is not None and not isinstance(a, np.memmap):
            a = a.base
        assert a is None

    def test_a_partial_solve_leaves_no_record(self, tmp_path, capsys, monkeypatch, solves):
        # config X solved, then config Y's solve removes X's files and stops at
        # q_values.npy after writing its CSVs: nothing in the directory may
        # pass for X's solution
        px, _ = write_cfg(tmp_path, name="x.yaml")
        py, _ = write_cfg(tmp_path, {"channel.lam_bad": 0.6}, name="y.yaml")
        out = tmp_path / "out"
        assert main(["solve", "--config", str(px), "--quiet"]) == 0
        rc, report, _ = self.verify(px, out, capsys)
        policy_x = (out / "value_policy.csv").read_bytes()

        def csvs_then_blocked(sol, out_dir):
            write_solution_csvs(sol, out_dir)
            (out_dir / "q_values.npy").mkdir()

        monkeypatch.setattr("txsched.cli.write_solution_csvs", csvs_then_blocked)
        assert main(["solve", "--config", str(py), "--quiet"]) == 2
        assert capsys.readouterr().err == (
            f"output error: cannot write '{out / 'q_values.npy'}': Is a directory\n")
        (out / "q_values.npy").rmdir()
        assert (out / "value_policy.csv").read_bytes() != policy_x
        assert not (out / "solve_record.json").exists()
        assert not (out / "verify_report.json").exists()
        capsys.readouterr()
        assert main(["simulate", "--config", str(px), "--policy", "solved", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("stale policy: ") and "solve_record.json is missing" in err
        n = len(solves)
        again = self.verify(px, out, capsys)
        assert again[:2] == (rc, report) and len(solves) > n
        assert "solve_record.json is missing" in again[2]


class TestContractionModuli:
    """The lattice moduli L_1..L_m serve the contraction check alone: verify
    computes them once, and no solve computes them."""

    UNSTABLE = {"system.A": [[1.05]], "channel.lam_bad": 0.5, "solver.grid_n": 200}

    @pytest.fixture
    def grids(self, monkeypatch):
        """The grid_n of every _lattice_moduli call."""
        import txsched.belief_mdp as bm
        calls, real = [], bm._lattice_moduli

        def spy(stencil, s, gamma, m):
            calls.append(stencil[0].shape[1] - 1)
            return real(stencil, s, gamma, m)

        monkeypatch.setattr(bm, "_lattice_moduli", spy)
        return calls

    def test_verify_computes_them_once(self, tmp_path, grids):
        p, _ = write_cfg(tmp_path, self.UNSTABLE)
        assert main(["solve", "--config", str(p), "--quiet"]) == 0
        assert grids == []  # the solve stops on the span rule, which needs none
        assert main(["verify", "--config", str(p), "--quiet"]) == 0
        assert grids == [200]  # the contraction check's, on the final grid only
        report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
        row = next(r for r in report["checks"] if r["check"] == "contraction")
        assert row["status"] == "pass" and row["detail"].startswith("m=4, ")

    def test_check_alone_computes_them(self, tmp_path, grids):
        p, _ = write_cfg(tmp_path, self.UNSTABLE)
        cfg = tx.load_config(p)
        _pipeline(cfg)
        assert grids == []
        report = tx.check_contraction(cfg.channel, cfg.system, cfg.solver)
        assert grids == [200] and report.m == 4 and report.lattice_modulus < 1.0

    def test_stable_plant_computes_them(self, tmp_path, grids):
        p, _ = write_cfg(tmp_path)
        cfg = tx.load_config(p)
        _pipeline(cfg)
        assert grids == []
        report = tx.check_contraction(cfg.channel, cfg.system, cfg.solver)
        assert grids == [40] and report.lattice_modulus < 1.0


class TestCostOverflow:
    def test_simulate_long_horizon_unstable_plant(self, tmp_path, capsys):
        p, _ = write_cfg(tmp_path, {"system.A": [[1.2]], "channel.lam_bad": 0.5,
                                    "sim.horizon": 2000, "sim.n_runs": 4})
        assert main(["simulate", "--config", str(p), "--policy", "never-stop"]) == 2
        err = capsys.readouterr().err
        assert "sim.horizon" in err and "overflow" in err
        assert "Traceback" not in err

    def test_simulate_builds_the_table_to_its_horizon_only(self, tmp_path):
        # a table to solver.tau_max overflows here (the solve below exits 2);
        # the simulator reads the costs of tau < sim.horizon alone
        p, _ = write_cfg(tmp_path, {"system.A": [[1.3]], "channel.lam_bad": 0.5,
                                    "solver.tau_max": 1500})
        assert main(["simulate", "--config", str(p), "--policy", "never-stop",
                     "--quiet"]) == 0
        assert (tmp_path / "out" / "simstats_never-stop.json").exists()

    def test_solve_large_tau_max_unstable_plant(self, tmp_path, capsys):
        p, _ = write_cfg(tmp_path, {"system.A": [[1.3]], "channel.lam_bad": 0.5,
                                    "solver.tau_max": 1500})
        assert main(["solve", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert "solver.tau_max" in err and "overflow" in err


class TestThresholdsCommand:
    def test_prints_table(self, tmp_path, capsys):
        p, _ = write_cfg(tmp_path)
        assert main(["thresholds", "--config", str(p)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "tau,b_th,is_sentinel"
        assert len(lines) == BASE["solver"]["tau_max"] + 2

    def test_table_of_another_config_resolved(self, tmp_path, capsys):
        # a thresholds.csv left by a solve of another problem in the same
        # directory is not printed: the command solves the current config
        p1, _ = write_cfg(tmp_path, {"solver.tau_max": 60}, name="a.yaml")
        p2, _ = write_cfg(tmp_path, {"solver.tau_max": 20, "solver.grid_n": 50},
                          name="b.yaml")
        assert main(["solve", "--config", str(p1), "--quiet"]) == 0
        capsys.readouterr()
        assert main(["thresholds", "--config", str(p2)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "tau,b_th,is_sentinel"
        assert len(lines[1:]) == 21
        record = json.loads((tmp_path / "out" / "solve_record.json").read_text())
        assert record == {"problem_sha256": tx.load_config(p2).problem_sha256}

    def test_corrupt_record_resolved(self, tmp_path, capsys):
        p, _ = write_cfg(tmp_path)
        assert main(["solve", "--config", str(p), "--quiet"]) == 0
        record = tmp_path / "out" / "solve_record.json"
        record.write_text('{"problem_sha256": "\x01')
        capsys.readouterr()
        assert main(["thresholds", "--config", str(p)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "tau,b_th,is_sentinel"
        assert json.loads(record.read_text()) == {
            "problem_sha256": tx.load_config(p).problem_sha256}

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_stop_region_without_threshold(self, tmp_path, capsys):
        # a non-TP2 channel whose stop region at tau = 4 is not an upper
        # interval: solve fails cleanly and leaves the earlier solve's files,
        # so thresholds does not print the earlier problem's table
        p1, _ = write_cfg(tmp_path, name="a.yaml")
        p2, _ = write_cfg(tmp_path, {"channel.p00": 0.27, "channel.p11": 0.47,
                                     "channel.lam_good": 0.82, "channel.lam_bad": 0.003,
                                     "solver.tau_max": 30, "solver.grid_n": 40},
                          name="b.yaml")
        assert main(["solve", "--config", str(p1), "--quiet"]) == 0
        record = (tmp_path / "out" / "solve_record.json").read_bytes()
        capsys.readouterr()
        assert main(["solve", "--config", str(p2)]) == 4
        captured = capsys.readouterr()
        assert "tau=4" in captured.err and "Traceback" not in captured.err
        assert (tmp_path / "out" / "solve_record.json").read_bytes() == record
        assert main(["thresholds", "--config", str(p2)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tau=4" in captured.err and "Traceback" not in captured.err

    def test_convergence_failure_exit_code(self, tmp_path, capsys):
        p, _ = write_cfg(tmp_path, {"solver.max_sweeps": 2,
                                    "solver.vi_tol": 1e-14})
        assert main(["solve", "--config", str(p)]) == 3
        assert "convergence" in capsys.readouterr().err


class TestExitCodes:
    def test_closed_standard_output(self, tmp_path, capsys, monkeypatch):
        # the reader of stdout has gone (`txsched thresholds ... | head -2`)
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        p, _ = write_cfg(tmp_path)
        assert main(["solve", "--config", str(p), "--quiet"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["thresholds", "--config", str(p)]) == EXIT_BROKEN_PIPE == 141
        err = capsys.readouterr().err
        assert "config error" not in err and err == ""
        # stdout now points at os.devnull, so the flush at exit stays quiet
        assert not isinstance(sys.stdout, ClosedPipe)
        print("after the reader has gone")
        sys.stdout.close()

    @pytest.mark.parametrize("under_file", [False, True])
    def test_out_directory_that_cannot_be_created(self, tmp_path, capsys, under_file):
        # --out names a file, or a path under one: a usage error naming --out,
        # the path and the reason
        p, _ = write_cfg(tmp_path)
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "sub" if under_file else tmp_path / "afile"
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", str(p), "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        reason = "Not a directory" if under_file else "File exists"
        assert f"error: argument --out: cannot create directory {str(out)!r}: {reason}" in err
        assert "config error" not in err

    def test_configured_directory_that_cannot_be_created(self, tmp_path, capsys):
        (tmp_path / "afile").write_text("")
        p, _ = write_cfg(tmp_path, {"output.directory": "afile/sub"})
        assert main(["simulate", "--config", str(p), "--policy", "stop-now"]) == 2
        assert capsys.readouterr().err == (
            f"config error: output.directory: cannot create directory "
            f"{str(tmp_path / 'afile' / 'sub')!r}: Not a directory\n")

    def test_missing_config_is_a_config_error(self, tmp_path, capsys):
        assert main(["verify", "--config", str(tmp_path / "none.yaml")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "none.yaml" in err

    def test_directory_config_is_a_config_error(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Is a directory" in err, err

    @staticmethod
    def run_into_full_device(args):
        """The CLI in a new interpreter with standard output on /dev/full,
        so every flush of it fails with ENOSPC."""
        with open("/dev/full", "w") as full:
            return subprocess.run([sys.executable, "-m", "txsched.cli", *args], stdout=full,
                                  stderr=subprocess.PIPE, text=True, timeout=120,
                                  env={**os.environ, "PYTHONPATH": str(ROOT / "src")})

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize("command", ["solve", "verify", "thresholds"])
    def test_full_standard_output(self, tmp_path, command):
        # `txsched solve ... > /dev/full`: the config is valid, the print
        # fails; no second message follows at interpreter exit
        p, _ = write_cfg(tmp_path)
        proc = self.run_into_full_device([command, "--config", str(p)])
        assert (proc.returncode, proc.stderr) == (
            2, "output error: cannot write standard output: No space left on device\n")
        assert (tmp_path / "out" / "solve_record.json").exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_missing_config_with_full_standard_output(self, tmp_path):
        proc = self.run_into_full_device(["solve", "--config", str(tmp_path / "none.yaml")])
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: ") and "none.yaml" in proc.stderr
        assert proc.stderr.count("\n") == 1, proc.stderr

    @pytest.mark.parametrize("args, artifact", [
        (["solve"], "q_values.csv"),
        (["solve"], "value_policy.csv"),
        (["solve"], "q_values.npy"),
        (["verify"], "verify_report.json"),
        (["simulate", "--policy", "never-stop"], "simstats_never-stop.json"),
    ])
    def test_artifact_that_cannot_be_written(self, tmp_path, capsys, args, artifact):
        # the fault is in the output directory, not in the config; the record
        # names the config's problem, so the command removes no artifact
        p, _ = write_cfg(tmp_path)
        record = tmp_path / "out" / "solve_record.json"
        blocked = tmp_path / "out" / artifact
        blocked.mkdir(parents=True)
        record.write_text(json.dumps({"problem_sha256": tx.load_config(p).problem_sha256}))
        assert main([args[0], "--config", str(p), *args[1:]]) == 2
        assert capsys.readouterr().err == (
            f"output error: cannot write '{blocked}': Is a directory\n")
        assert not record.exists()

    def test_record_that_cannot_be_removed(self, tmp_path, capsys):
        # solve removes the old record before it writes anything
        p, _ = write_cfg(tmp_path)
        record = tmp_path / "out" / "solve_record.json"
        record.mkdir(parents=True)
        assert main(["solve", "--config", str(p)]) == 2
        assert capsys.readouterr().err == (
            f"output error: cannot remove '{record}': Is a directory\n")
        assert not (tmp_path / "out" / "q_values.csv").exists()

    def test_general_solve_removes_an_earlier_threshold_table(self, tmp_path):
        # a general problem has no threshold table, so a stopping problem's
        # must not stay beside its record
        out = str(tmp_path / "out")
        for path in ("configs/example.yaml", "bench/workloads/general-slow.yaml"):
            assert main(["solve", "--config", str(ROOT / path), "--out", out, "--quiet"]) == 0
        assert (tmp_path / "out" / "solve_record.json").exists()
        assert not (tmp_path / "out" / "thresholds.csv").exists()

    def test_threshold_table_that_cannot_be_removed(self, tmp_path, capsys):
        p, _ = write_cfg(tmp_path, {"costs.c_stop": None})
        path = tmp_path / "out" / "thresholds.csv"
        path.mkdir(parents=True)
        assert main(["solve", "--config", str(p)]) == 2
        assert capsys.readouterr().err == (
            f"output error: cannot remove '{path}': Is a directory\n")
        assert not (tmp_path / "out" / "q_values.csv").exists()

    def test_solve_of_another_problem_removes_its_report_and_simulations(self, tmp_path):
        # neither file names its config, so none may stay beside another's record
        out = tmp_path / "out"
        example = ["--config", str(ROOT / "configs/example.yaml"), "--out", str(out), "--quiet"]
        for args in (["solve"], ["verify"], ["simulate", "--policy", "never-stop"]):
            assert main([args[0], *example, *args[1:]]) == 0
        assert main(["solve", "--config", str(ROOT / "bench/workloads/general-slow.yaml"),
                     "--out", str(out), "--quiet"]) == 0
        assert sorted(f.name for f in out.iterdir()) == [
            "q_values.csv", "q_values.npy", "solve_record.json", "value_policy.csv"]

    def test_solve_keeps_the_report_and_simulations_of_its_own_problem(self, tmp_path):
        p, _ = write_cfg(tmp_path, {"output.emit_traces": True})
        other, _ = write_cfg(tmp_path, {"costs.c_stop": 12.0}, name="other.yaml")
        out = tmp_path / "out"
        for args in (["solve"], ["verify"], ["simulate", "--policy", "never-stop"]):
            assert main([args[0], "--config", str(p), "--quiet", *args[1:]]) == 0
        kept = ["simstats_never-stop.json", "traces_never-stop.csv", "verify_report.json"]
        before = {name: (out / name).read_bytes() for name in kept}
        assert main(["solve", "--config", str(p), "--quiet"]) == 0
        assert {name: (out / name).read_bytes() for name in kept} == before
        assert main(["solve", "--config", str(other), "--quiet"]) == 0
        assert not any((out / name).exists() for name in kept)

    def test_solve_over_an_unreadable_record_removes_the_report(self, tmp_path):
        p, _ = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(p), "--quiet"]) == 0
        (out / "solve_record.json").write_text("not json")
        assert main(["solve", "--config", str(p), "--quiet"]) == 0
        assert not (out / "verify_report.json").exists()

    def test_solve_after_verify_and_simulate_of_another_problem(self, tmp_path):
        # verify and simulate write the record that names their problem, so
        # none of their files stays beside another problem's solve
        out = tmp_path / "out"
        example = ["--config", str(ROOT / "configs/example.yaml"), "--out", str(out), "--quiet"]
        assert main(["verify", *example]) == 0
        assert main(["simulate", *example, "--policy", "never-stop"]) == 0
        assert sorted(f.name for f in out.iterdir()) == [
            "simstats_never-stop.json", "solve_record.json", "verify_report.json"]
        assert main(["solve", "--config", str(ROOT / "bench/workloads/general-slow.yaml"),
                     "--out", str(out), "--quiet"]) == 0
        assert sorted(f.name for f in out.iterdir()) == [
            "q_values.csv", "q_values.npy", "solve_record.json", "value_policy.csv"]

    @pytest.mark.parametrize("record", ["this", "other"])
    @pytest.mark.parametrize("names", ["this", "other", "none", "unreadable"])
    def test_the_record_not_the_report_decides(self, tmp_path, names, record):
        # the report's problem_sha256 is part of the artifact; solve keeps
        # the report when the record names its problem, whatever the report says
        p, _ = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(p), "--quiet"]) == 0
        report = out / "verify_report.json"
        data = json.loads(report.read_text())
        sha = tx.load_config(p).problem_sha256
        assert sorted(data) == ["checks", "problem_sha256"] and data["problem_sha256"] == sha
        assert json.loads((out / "solve_record.json").read_text()) == {"problem_sha256": sha}
        if names == "other":
            data["problem_sha256"] = "0" * 64
        elif names == "none":
            del data["problem_sha256"]
        report.write_text("not json" if names == "unreadable" else json.dumps(data))
        if record == "other":
            (out / "solve_record.json").write_text(json.dumps({"problem_sha256": "0" * 64}))
        before = report.read_bytes()
        assert main(["solve", "--config", str(p), "--quiet"]) == 0
        assert (report.read_bytes() if report.exists() else None) == (
            before if record == "this" else None)

    @pytest.mark.parametrize("args, written", [
        (["verify"], "verify_report.json"),
        (["simulate", "--policy", "never-stop"], "simstats_never-stop.json")])
    def test_verify_and_simulate_empty_another_problems_directory(self, tmp_path, args,
                                                                  written):
        p, _ = write_cfg(tmp_path)
        other, _ = write_cfg(tmp_path, {"costs.c_stop": 12.0, "output.emit_traces": True},
                             name="other.yaml")
        out = tmp_path / "out"
        for step in (["solve"], ["verify"], ["simulate", "--policy", "never-stop"]):
            assert main([step[0], "--config", str(other), "--quiet", *step[1:]]) == 0
        assert main([args[0], "--config", str(p), "--quiet", *args[1:]]) == 0
        assert sorted(f.name for f in out.iterdir()) == sorted([written, "solve_record.json"])
        assert json.loads((out / "solve_record.json").read_text()) == {
            "problem_sha256": tx.load_config(p).problem_sha256}

    @pytest.mark.parametrize("args", [["verify"], ["simulate", "--policy", "never-stop"]])
    def test_another_problems_artifact_that_cannot_be_removed(self, tmp_path, capsys, args):
        # verify and simulate remove another problem's artifacts as solve does,
        # and a removal that fails keeps the record that names their problem
        p, _ = write_cfg(tmp_path)
        other, _ = write_cfg(tmp_path, {"costs.c_stop": 12.0}, name="other.yaml")
        out = tmp_path / "out"
        assert main(["solve", "--config", str(other), "--quiet"]) == 0
        record = (out / "solve_record.json").read_bytes()
        blocked = out / "thresholds.csv"
        blocked.unlink()
        blocked.mkdir()
        capsys.readouterr()
        assert main([args[0], "--config", str(p), *args[1:]]) == 2
        assert capsys.readouterr() == ("", f"output error: cannot remove '{blocked}': "
                                           "Is a directory\n")
        assert sorted(f.name for f in out.iterdir()) == ["solve_record.json", "thresholds.csv"]
        assert (out / "solve_record.json").read_bytes() == record

    def test_report_that_cannot_be_removed(self, tmp_path, capsys):
        # the report goes before the record, which still names its problem
        p, _ = write_cfg(tmp_path)
        other, _ = write_cfg(tmp_path, {"costs.c_stop": 12.0}, name="other.yaml")
        out = tmp_path / "out"
        assert main(["solve", "--config", str(p), "--quiet"]) == 0
        record = (out / "solve_record.json").read_bytes()
        (out / "verify_report.json").mkdir()
        (out / "q_values.csv").unlink()
        assert main(["solve", "--config", str(other)]) == 2
        assert capsys.readouterr().err == (
            f"output error: cannot remove '{out / 'verify_report.json'}': Is a directory\n")
        assert (out / "solve_record.json").read_bytes() == record
        assert not (out / "q_values.csv").exists()

    @pytest.mark.parametrize("command", ["solve", "verify", "simulate", "thresholds"])
    def test_empty_out_is_a_usage_error(self, tmp_path, capsys, command):
        # the config's directory is fine; the fault is in the argument
        p, _ = write_cfg(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(p), "--out", ""])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"txsched {command}: error: argument --out: expected a nonempty string" in err
        assert "config error" not in err

    def test_unreadable_policy_file_is_a_stale_policy(self, tmp_path, capsys):
        p, _ = write_cfg(tmp_path)
        assert main(["solve", "--config", str(p), "--quiet"]) == 0
        path = tmp_path / "out" / "q_values.npy"
        path.unlink()
        path.mkdir()
        capsys.readouterr()
        assert main(["simulate", "--config", str(p), "--policy", "solved"]) == 2
        assert capsys.readouterr().err == (
            f"stale policy: cannot load '{path}': Is a directory; run solve first\n")

    @pytest.mark.parametrize("directory", [True, False])
    def test_unreadable_thresholds_file_is_an_output_error(self, tmp_path, capsys, directory):
        # the fault is in the output directory: an earlier solve's table
        p, _ = write_cfg(tmp_path)
        assert main(["solve", "--config", str(p), "--quiet"]) == 0
        path = tmp_path / "out" / "thresholds.csv"
        path.unlink()
        if directory:
            path.mkdir()
        else:
            path.write_bytes(b"\xfftau,b_th,is_sentinel\n")
        capsys.readouterr()
        assert main(["thresholds", "--config", str(p)]) == 2
        reason = ("Is a directory" if directory else
                  "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte")
        assert capsys.readouterr().err == f"output error: cannot read '{path}': {reason}\n"

    def test_zero_likelihood_is_a_model_inconsistency(self, tmp_path, capsys,
                                                      monkeypatch):
        def inconsistent(*args, **kwargs):
            raise tx.ZeroLikelihoodError("observed a zero-probability branch; "
                                         "channel tables are inconsistent")

        monkeypatch.setattr("txsched.sim.run_batch", inconsistent)
        p, _ = write_cfg(tmp_path)
        assert main(["simulate", "--config", str(p), "--policy", "never-stop"]) \
            == EXIT_MODEL == 5
        err = capsys.readouterr().err
        assert err.startswith("model inconsistency: observed a zero-probability branch")
        assert "config error" not in err


SOLVED = ("q_values.csv", "value_policy.csv", "q_values.npy", "thresholds.csv")
WRITES = {"solve": SOLVED, "thresholds": SOLVED, "verify": ("verify_report.json",),
          "simulate": ("simstats_never-stop.json",)}


@pytest.fixture(scope="module")
def two_problems(tmp_path_factory):
    """Two tiny stopping problems whose artifacts all differ: the config of
    each (problem, traces) and, per problem, the bytes of every file its
    commands write into a fresh directory."""
    root = tmp_path_factory.mktemp("two_problems")
    small = {"solver.grid_n": 20, "solver.tau_max": 10, "sim.n_runs": 50}
    configs, files = {}, {}
    for name, lam_bad in (("x", 0.2), ("y", 0.5)):
        for traces in (False, True):
            configs[name, traces] = write_cfg(
                root, {**small, "channel.lam_bad": lam_bad, "output.emit_traces": traces},
                name=f"{name}{int(traces)}.yaml")[0]
        out = root / name
        for args in (["solve"], ["verify"], ["simulate", "--policy", "never-stop"]):
            assert main([args[0], "--config", str(configs[name, True]), "--out", str(out),
                         "--quiet", *args[1:]]) == 0
        files[name] = {f.name: f.read_bytes() for f in out.iterdir()}
    assert len(files["x"]) == 8 and all(files["x"][f] != files["y"][f] for f in files["x"])
    return configs, files


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(steps=st.lists(st.tuples(st.sampled_from(sorted(WRITES)), st.sampled_from("xy"),
                                st.booleans()), min_size=1, max_size=8))
def test_a_directory_holds_the_files_of_the_last_problem(two_problems, tmp_path_factory,
                                                         steps):
    # after every command, each file in the directory is what a command of
    # the record's problem last wrote there, and the record names the problem
    # of the last command
    configs, files = two_problems
    out = tmp_path_factory.mktemp("steps")
    owner = {}  # file -> the problem whose command last wrote it
    for command, problem, traces in steps:
        args = ["--policy", "never-stop"] if command == "simulate" else []
        assert main([command, "--config", str(configs[problem, traces]), "--out", str(out),
                     "--quiet", *args]) == 0
        if owner.get("solve_record.json") != problem:
            owner.clear()
        if command == "simulate" and not traces:
            owner.pop("traces_never-stop.csv", None)
        if command != "thresholds" or "thresholds.csv" not in owner:
            written = WRITES[command] + (("traces_never-stop.csv",)
                                         if command == "simulate" and traces else ())
            owner.update(dict.fromkeys((*written, "solve_record.json"), problem))
        assert {f.name: f.read_bytes() for f in out.iterdir()} == {
            name: files[who][name] for name, who in owner.items()}
