"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np
import pytest
import yaml

import txsched as tx
from conftest import (bayes_enumeration_oracle, fixed_point_oracle, random_channel,
                      sampled_contraction_ratio, sampled_update_monotonicity)
from txsched.belief_mdp import _action_tables
from txsched.cli import main


def report(num, description, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:02d}: {description}")
    assert ok, f"criterion {num:02d} failed: {description}"


def test_criterion_01_riccati_steady_state():
    t0 = time.perf_counter()
    sys_ = tx.LtiSystem(A=0.85, C=1.0, Q=0.3, R=0.3)
    ss = tx.steady_state_covariance(sys_, tol=1e-12)
    elapsed = time.perf_counter() - t0
    oracle = fixed_point_oracle(0.85, 1.0, 0.3, 0.3, tol=1e-12)
    root = (-0.38325 + np.sqrt(0.38325**2 + 4 * 0.7225 * 0.09)) / (2 * 0.7225)
    ok = (abs(ss.Pbar[0, 0] - oracle) < 1e-9
          and abs(ss.Pbar[0, 0] - root) < 1e-9
          and elapsed < 1.0)
    report(1, f"steady-state covariance {ss.Pbar[0, 0]:.9f} within 1e-9 of the "
              f"fixed-point oracle and the quadratic root ({elapsed * 1e3:.0f} ms)", ok)


def test_criterion_02_holding_cost_monotone(cost_table):
    diffs = np.diff(cost_table.costs)
    ok = bool(np.all(diffs >= 0)) and cost_table.tau_max == 60
    report(2, "holding cost nondecreasing over tau in [0, 60] "
              f"(min increment {diffs.min():.3e})", ok)


def test_criterion_03_fold_equivalence(ge_channel):
    rep = tx.verify_fold_equivalence(ge_channel, tau_max=60)
    ok = rep.identical and rep.max_abs_diff == 0.0
    rng = np.random.default_rng(20260811)
    checked = 0
    for _ in range(100):
        r = tx.verify_fold_equivalence(random_channel(rng), tau_max=60)
        ok = ok and r.identical and r.max_abs_diff == 0.0
        checked += 1
    report(3, f"unfolded and folded kernel assemblies identical (diff 0.0) on "
              f"the reference channel and {checked} random channels", ok)


def test_criterion_04_tp2_counterexample_and_folded_recovery(ge_channel):
    cex = tx.unfolded_tp2_counterexample(0.9)
    ok = (not cex) and cex.witness == ((0, 0), (2, 1)) \
        and cex.value == -(1.0 - 0.9) * 0.9 \
        and abs(cex.value - (-0.09)) < 1e-15
    ok = ok and bool(tx.verify_folded_tp2(ge_channel))
    rng = np.random.default_rng(17)
    for _ in range(100):
        ok = ok and bool(tx.verify_folded_tp2(random_channel(rng)))
    report(4, f"unfolded holding kernel minor {cex.value!r} at ((0,0),(2,1)); "
              "folded kernels TP2 on the reference channel and 100 random "
              "channels", ok)


def test_criterion_05_update_monotone_and_likelihood_dominance(ge_channel):
    rep = tx.verify_update_monotonicity(ge_channel, tau_max=60, grid_n=200,
                                        tol=1e-12)
    # 61 * 62 / 2 ordered tau pairs times 201 * 202 / 2 ordered belief pairs
    ok = rep.ok and rep.n_fsd_checks == 38_389_191
    oracle = sampled_update_monotonicity(ge_channel, tau_max=60, grid_n=200,
                                         n_samples=10_000, seed=20260811,
                                         tol=1e-12)
    ok = ok and oracle.ok and oracle.n_fsd_checks == 10_000
    report(5, f"belief update nondecreasing in tau, b, y over the 201-point "
              f"grid and tau <= 60 ({rep.n_update_checks} checks); likelihood "
              f"dominance on all {rep.n_fsd_checks} ordered state pairs, and "
              f"on {oracle.n_fsd_checks} sampled pairs by the sampled oracle", ok)


def test_criterion_06_value_monotonicity(ge_channel, cost_table):
    t0 = time.perf_counter()
    cfg = tx.SolverConfig(gamma=0.95, tau_max=60, grid_n=200, vi_tol=1e-9,
                          max_sweeps=2000)
    sol = tx.solve_stopping(tx.StoppingProblem(channel=ge_channel,
                                               holding=cost_table, cfg=cfg,
                                               c_stop=10.0))
    elapsed = time.perf_counter() - t0
    rep = tx.verify_value_monotonicity(sol, tol=1e-8)
    ok = rep.ok and elapsed < 30.0
    report(6, f"converged V and both Q slices monotone in tau and belief "
              f"({sol.sweeps_used} sweeps, {elapsed:.2f}s)", ok)


def test_criterion_07_threshold_structure(ge_channel, cost_table,
                                          stopping_solution):
    # upper-interval stop regions: extract_threshold raises otherwise
    th200 = tx.extract_threshold(stopping_solution)
    ok = bool(tx.verify_threshold_monotone(th200))
    ok = ok and bool(tx.verify_submodularity(stopping_solution, tol=1e-8))
    cfg400 = tx.SolverConfig(gamma=0.95, tau_max=60, grid_n=400, vi_tol=1e-9,
                             max_sweeps=2000)
    sol400 = tx.solve_stopping(tx.StoppingProblem(
        channel=ge_channel, holding=cost_table, cfg=cfg400, c_stop=10.0))
    th400 = tx.extract_threshold(sol400)
    same_sentinels = np.array_equal(th200.is_sentinel, th400.is_sentinel)
    both = ~(th200.is_sentinel | th400.is_sentinel)
    worst = float(np.max(np.abs(th200.b_th[both] - th400.b_th[both]))) \
        if both.any() else 0.0
    ok = ok and same_sentinels and worst <= 1.0 / 200 + 1e-12
    report(7, "stop region is an upper belief interval at every tau; "
              "threshold nonincreasing; stop advantage nonincreasing; "
              f"grid 200 vs 400 thresholds differ by {worst:.4f} <= 1/200", ok)


def test_criterion_08_bayes_oracle(cost_table):
    # the posteriors the program computes: the solver's two branches
    # (_action_tables, at any belief) and the beliefs the lockstep simulator
    # records in its traces
    rng = np.random.default_rng(20260811)
    worst = 0.0
    n = 10_000
    for _ in range(n):
        ch = random_channel(rng)
        tau = int(rng.integers(0, 100))
        b = float(rng.random())
        y = 0 if rng.random() < 0.5 else tau + 1
        expected = bayes_enumeration_oracle(ch, tau, b, y)
        if expected is None:
            continue
        _, t_succ, t_fail = _action_tables(ch, np.array([b]), 0)
        worst = max(worst, abs((t_succ if y == 0 else t_fail)[0] - expected))
    steps = 0
    for _ in range(20):
        ch = random_channel(rng)
        simcfg = tx.SimConfig(horizon=50, n_runs=10, seed=int(rng.integers(2**63)))
        _, tr = tx.run_batch(ch, cost_table.costs, 10.0, 0.95, tx.never_stop, simcfg,
                             collect_traces=True)
        first = np.append(True, tr["episode"][1:] != tr["episode"][:-1])
        worst = max(worst, float(np.max(np.abs(tr["belief"][first] - ch.initial_belief))))
        for i in np.flatnonzero(~first) - 1:  # row i + 1 holds the posterior after row i
            tau, b = int(tr["tau"][i]), float(tr["belief"][i])
            y = 0 if tr["gamma_t"][i] == 1 else tau + 1
            worst = max(worst, abs(tr["belief"][i + 1] - bayes_enumeration_oracle(ch, tau, b, y)))
            steps += 1
    ok = worst < 1e-12 and steps == 20 * 10 * 49
    report(8, f"solver posteriors match joint-enumeration oracle on {n} random "
              f"tuples, simulator trace beliefs on {steps} steps (max abs diff "
              f"{worst:.2e})", ok)


def test_criterion_09_contraction(plant, ge_channel, cost_table, solver_cfg):
    cost = tx.StageCost(holding=cost_table, action_costs=np.array([0.0]))
    rep = tx.check_contraction(ge_channel, plant, solver_cfg)
    ratio = sampled_contraction_ratio(ge_channel, plant, cost, solver_cfg, rep.m,
                                      trials=100, seed=20260811)
    ok = rep.m == 1 and rep.lattice_modulus <= solver_cfg.gamma + 1e-12 \
        and ratio < 1.0 and ratio <= solver_cfg.gamma + 1e-12 \
        and ratio <= rep.lattice_modulus + 1e-12
    sys_u = tx.LtiSystem(A=1.05, C=1.0, Q=0.3, R=0.3)
    ss_u = tx.steady_state_covariance(sys_u)
    table_u = tx.holding_cost_table(sys_u, ss_u, 60)
    ch_u = tx.make_gilbert_elliott(0.9, 1.0, 0.9, 0.5)
    cfg_u = tx.SolverConfig(gamma=0.95, tau_max=60, grid_n=60)
    cost_u = tx.StageCost(holding=table_u, action_costs=np.array([0.0]))
    rep_u = tx.check_contraction(ch_u, sys_u, cfg_u)
    ratio_u = sampled_contraction_ratio(ch_u, sys_u, cost_u, cfg_u, rep_u.m,
                                        trials=100, seed=20260811)
    ok = ok and rep_u.alpha < 1.0 and rep_u.certified_bound < 1.0 \
        and rep_u.lattice_modulus < 1.0 and ratio_u < 1.0 \
        and ratio_u <= rep_u.lattice_modulus + 1e-12
    report(9, f"reference config certifies m=1 (lattice modulus "
              f"{rep.lattice_modulus:.3f} <= gamma, sampled ratio {ratio:.3f}); "
              f"unstable case (rho=1.05, min success 0.5, alpha={rep_u.alpha:.3f}) "
              f"finds m={rep_u.m} with lattice modulus "
              f"{rep_u.lattice_modulus:.3f} < 1 (sampled ratio {ratio_u:.3f})", ok)


def test_criterion_10_closed_loop_dominance(plant, steady, ge_channel,
                                            stopping_solution):
    t0 = time.perf_counter()
    table = tx.holding_cost_table(plant, steady, 200)
    simcfg = tx.SimConfig(horizon=200, n_runs=10_000, seed=20260811)
    policies = {
        "solved": tx.LatticePolicy.from_solution(stopping_solution),
        "never-stop": tx.never_stop,
        "stop-now": tx.stop_immediately,
        "threshold-0.5": tx.FixedThresholdPolicy(0.5),
    }
    stats = {name: tx.run_batch(ge_channel, table.costs, 10.0, 0.95, pol, simcfg)
             for name, pol in policies.items()}
    elapsed = time.perf_counter() - t0
    solved = stats["solved"]
    baselines = {k: v for k, v in stats.items() if k != "solved"}
    dominated = {
        name: solved.mean_discounted_cost
        <= st.mean_discounted_cost - 2 * np.hypot(solved.stderr, st.stderr)
        for name, st in baselines.items()}
    best = min(baselines.values(), key=lambda st: st.mean_discounted_cost)
    within_best = abs(solved.mean_discounted_cost - best.mean_discounted_cost) \
        <= 2 * np.hypot(solved.stderr, best.stderr)
    ok = (all(dominated.values()) or within_best) and elapsed < 60.0
    summary = ", ".join(f"{k}={v.mean_discounted_cost:.3f}"
                        for k, v in stats.items())
    report(10, f"solved policy dominates every baseline by 2 SE or ties the "
               f"best ({summary}; {elapsed:.1f}s)", ok)


def test_criterion_11_end_to_end_determinism(tmp_path):
    data = {
        "system": {"A": [[0.85]], "C": [[1.0]], "Q": [[0.3]], "R": [[0.3]]},
        "channel": {"type": "ge", "p00": 0.9, "p11": 1.0,
                    "lam_good": 0.9, "lam_bad": 0.2, "b0": 0.0},
        "costs": {"c_a": [0.0], "c_stop": 10.0},
        "solver": {"gamma": 0.95, "tau_max": 30, "grid_n": 80, "vi_tol": 1e-9},
        "sim": {"horizon": 60, "n_runs": 100, "seed": 20260811},
    }
    outputs = []
    for run in ("one", "two"):
        out = tmp_path / run
        cfg_path = tmp_path / f"cfg_{run}.yaml"
        payload = dict(data)
        payload["output"] = {"directory": str(out)}
        cfg_path.write_text(yaml.safe_dump(payload), encoding="utf-8")
        assert main(["solve", "--config", str(cfg_path), "--quiet"]) == 0
        for policy in ("solved", "never-stop", "threshold:0.4"):
            assert main(["simulate", "--config", str(cfg_path),
                         "--policy", policy, "--quiet"]) == 0
        outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    ok = outputs[0] == outputs[1] and len(outputs[0]) >= 6
    report(11, f"two identical solve+simulate runs produced byte-identical "
               f"artifacts ({len(outputs[0])} files)", ok)
