import json

import numpy as np
import pytest
import yaml

import txsched as tx
from txsched.cli import main

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

    def test_explicit_channel(self, tmp_path):
        p, _ = write_cfg(tmp_path, {"channel": {
            "type": "explicit",
            "lam": [[0.9], [0.2]],
            "mode_kernel": [[[0.9, 0.1], [0.0, 1.0]]],
            "b0": 0.25}})
        cfg = tx.load_config(p)
        assert cfg.channel.initial_belief == 0.25


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

    def test_unknown_policy(self, tmp_path, capsys):
        p, _ = write_cfg(tmp_path)
        assert main(["simulate", "--config", str(p), "--policy", "nope"]) == 2

    def test_threshold_policy_and_traces(self, tmp_path):
        p, _ = write_cfg(tmp_path, {"output.emit_traces": True,
                                    "sim.n_runs": 5, "sim.horizon": 12})
        assert main(["simulate", "--config", str(p), "--policy",
                     "threshold:0.5", "--quiet"]) == 0
        traces = (tmp_path / "out" / "traces_threshold_0.5.csv").read_text()
        header = traces.strip().split("\n")[0]
        assert header == "episode,t,theta,action,gamma_t,tau,belief,cost"


class TestSolvedPolicyProvenance:
    def test_solve_records_problem_hash(self, tmp_path):
        p, _ = write_cfg(tmp_path)
        assert main(["solve", "--config", str(p), "--quiet"]) == 0
        record = json.loads((tmp_path / "out" / "solve_record.json").read_text())
        assert record == {"problem_sha256": tx.load_config(p).problem_sha256}

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
        (tmp_path / "out2" / "value_policy.csv").write_bytes(
            (tmp_path / "out" / "value_policy.csv").read_bytes())
        capsys.readouterr()
        assert main(["simulate", "--config", str(p2), "--policy", "solved"]) == 2
        err = capsys.readouterr().err
        assert "tau_max=20, grid_n=40" in err and "solver.grid_n=30" in err

    def test_missing_record_refused(self, tmp_path, capsys):
        p, _ = write_cfg(tmp_path)
        assert main(["solve", "--config", str(p), "--quiet"]) == 0
        (tmp_path / "out" / "solve_record.json").unlink()
        capsys.readouterr()
        assert main(["simulate", "--config", str(p), "--policy", "solved"]) == 2
        assert "solve_record.json is missing" in capsys.readouterr().err

    def test_out_and_seed_overrides_keep_the_policy_valid(self, tmp_path):
        p, _ = write_cfg(tmp_path)
        other = tmp_path / "elsewhere"
        assert main(["solve", "--config", str(p), "--out", str(other), "--quiet"]) == 0
        assert main(["simulate", "--config", str(p), "--out", str(other),
                     "--policy", "solved", "--seed", "999", "--quiet"]) == 0
        stats = json.loads((other / "simstats_solved.json").read_text())
        assert stats["seed"] == 999


class TestCostOverflow:
    def test_simulate_long_horizon_unstable_plant(self, tmp_path, capsys):
        p, _ = write_cfg(tmp_path, {"system.A": [[1.2]], "channel.lam_bad": 0.5,
                                    "sim.horizon": 2000, "sim.n_runs": 4})
        assert main(["simulate", "--config", str(p), "--policy", "never-stop"]) == 2
        err = capsys.readouterr().err
        assert "sim.horizon" in err and "overflow" in err
        assert "Traceback" not in err

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
