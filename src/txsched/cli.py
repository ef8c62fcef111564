"""Command-line entry point: config in, CSV/JSON artifacts out.

Subcommands:
  solve       steady-state covariance -> holding costs -> value iteration
              (stopping solve when costs.c_stop is set); writes q_values.csv,
              value_policy.csv, thresholds.csv, and solve_record.json (the
              sha256 of the config sections that fix the solution).
  verify      runs the structural-verification battery and writes
              verify_report.json; nonzero exit on any asserted failure.
  simulate    Monte Carlo batch under --policy; writes simstats_<policy>.json
              and optional per-step traces. --policy solved refuses a
              value_policy.csv solved for another config.
  thresholds  prints the threshold table (from a prior solve of the same
              problem, by solve_record.json, otherwise solving first).

Exit codes: 0 ok, 2 config error (including a holding-cost table that
overflows float64 before solver.tau_max or sim.horizon, and a solved policy
that does not match the config), 3 convergence failure, 4 verification
failure (a failed verify check, or a solve or thresholds whose stop region is
not an upper belief interval at some tau; that solve writes no artifact).
All floats in CSV files are printed with 12 significant digits, LF line
endings; JSON keys are sorted. Outputs are a pure function of (config, seed):
reruns are byte-identical.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import belief_mdp, folding, sim, stopping
from .channel import check_mode_kernel_tp2
from .config import ConfigError, RunConfig, load_config
from .lti_estimation import (ConvergenceError, check_success_margin,
                             holding_cost_table, steady_state_covariance)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_VERIFICATION = 4

SOLVE_RECORD = "solve_record.json"


class StalePolicyError(Exception):
    """The solved policy on disk was not solved for the current config."""


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _write_lines(path: Path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def write_solution_csvs(sol, out_dir: Path):
    """q_values.csv: (tau, belief, action, q_value); value_policy.csv:
    (tau, belief, value, policy)."""
    q_lines = ["tau,belief,action,q_value"]
    vp_lines = ["tau,belief,value,policy"]
    grid = sol.belief_grid
    for tau in range(sol.tau_max + 1):
        for i, b in enumerate(grid):
            for a in range(sol.n_actions):
                q_lines.append(f"{tau},{_fmt(b)},{a},{_fmt(sol.Qfun[tau, i, a])}")
            vp_lines.append(f"{tau},{_fmt(b)},{_fmt(sol.V[tau, i])},{sol.policy[tau, i]}")
    _write_lines(out_dir / "q_values.csv", q_lines)
    _write_lines(out_dir / "value_policy.csv", vp_lines)


def write_thresholds_csv(th, out_dir: Path):
    lines = ["tau,b_th,is_sentinel"]
    for tau in range(th.tau_max + 1):
        lines.append(f"{tau},{_fmt(th.b_th[tau])},{int(th.is_sentinel[tau])}")
    _write_lines(out_dir / "thresholds.csv", lines)


def read_value_policy_csv(path: Path):
    """Reconstruct (policy lattice, belief grid) from a prior solve."""
    rows = path.read_text(encoding="utf-8").strip().split("\n")
    if rows[0] != "tau,belief,value,policy":
        raise ValueError(f"unexpected header in {path}: {rows[0]}")
    taus, beliefs, policies = [], [], []
    for row in rows[1:]:
        t, b, _v, p = row.split(",")
        taus.append(int(t))
        beliefs.append(float(b))
        policies.append(int(p))
    tau_max = max(taus)
    grid_n = len(set(beliefs)) - 1
    policy = np.array(policies, dtype=np.int64).reshape(tau_max + 1, grid_n + 1)
    return policy, grid_n, tau_max


def write_json(path: Path, obj):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _cost_table(cfg: RunConfig, ss, length: int, field: str):
    """Holding-cost table up to ``length``; an overflow names the config
    field that asked for that length."""
    try:
        return holding_cost_table(cfg.system, ss, length)
    except OverflowError as exc:
        raise ConfigError(field, f"{exc}; {field} = {length} needs holding "
                                 "costs beyond the float64 range for this plant") from None


def _pipeline(cfg: RunConfig):
    """Shared solve pipeline: covariance fixed point, cost table, solver."""
    ss = steady_state_covariance(cfg.system)
    table = _cost_table(cfg, ss, cfg.solver.tau_max, "solver.tau_max")
    if cfg.is_stopping:
        prob = stopping.StoppingProblem(channel=cfg.channel, holding=table,
                                        cfg=cfg.solver, c_stop=cfg.c_stop)
        sol = stopping.solve_stopping(prob)
    else:
        cost = belief_mdp.StageCost(holding=table, action_costs=cfg.action_costs)
        sol = belief_mdp.value_iterate(cfg.channel, cost, cfg.solver)
    return ss, table, sol


def cmd_solve(cfg: RunConfig, quiet: bool = False) -> int:
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    ss, table, sol = _pipeline(cfg)
    # a stop region without a threshold fails before any artifact is written,
    # so no earlier solve's files are paired with this config's record
    th = stopping.extract_threshold(sol) if cfg.is_stopping else None
    write_solution_csvs(sol, out_dir)
    write_json(out_dir / SOLVE_RECORD, {"problem_sha256": cfg.problem_sha256})
    if th is not None:
        write_thresholds_csv(th, out_dir)
    if not quiet:
        print(f"steady-state covariance trace: {_fmt(np.trace(ss.Pbar))}")
        print(f"value iteration: {sol.sweeps_used} sweeps, "
              f"residual {sol.final_residual:.3e}, "
              f"{time.perf_counter() - t0:.2f}s")
        print(f"wrote {out_dir}/q_values.csv, {out_dir}/value_policy.csv"
              + (f", {out_dir}/thresholds.csv" if cfg.is_stopping else ""))
    return EXIT_OK


def _verify_battery(cfg: RunConfig):
    """Run every structural check; yields (name, status, detail) with status
    'pass', 'fail', or 'skip'."""
    results = []

    def add(name, ok, detail, skip=False):
        results.append({"check": name, "status": "skip" if skip else
                        ("pass" if ok else "fail"), "detail": detail})

    res = check_mode_kernel_tp2(cfg.channel)
    add("mode_kernel_tp2", bool(res),
        "all per-action mode kernels TP2" if res else f"witness {res.witness}, "
        f"minor {res.value}")
    margin = check_success_margin(cfg.system, cfg.channel)
    add("success_margin", margin.ok,
        f"min success prob {_fmt(margin.min_success_prob)} vs bound "
        f"{_fmt(margin.bound)} (rho={_fmt(margin.spectral_radius)})")
    fold = folding.verify_fold_equivalence(cfg.channel, tau_max=cfg.solver.tau_max)
    add("fold_equivalence", fold.identical,
        f"max diff {fold.max_abs_diff}" + ("" if fold.identical else
                                           f" at {fold.witness}"))
    ftp2 = folding.verify_folded_tp2(cfg.channel)
    add("folded_tp2", bool(ftp2),
        "all variable pairs TP2" if ftp2 else
        f"failed pairs: {[(c.kernel, c.variables) for c in ftp2.failed()]}")
    lam = float(cfg.channel.lam[0, 0])
    cex = folding.unfolded_tp2_counterexample(lam)
    if 0.0 < lam < 1.0:
        expected = -(1.0 - lam) * lam
        ok = (not cex) and cex.value == expected
        add("unfolded_not_tp2", ok,
            f"minor {cex.value} (expected {expected}) at {cex.witness}")
    else:
        add("unfolded_not_tp2", True, "degenerate success probability, minor 0",
            skip=True)
    upd = belief_mdp.verify_update_monotonicity(
        cfg.channel, tau_max=cfg.solver.tau_max, grid_n=cfg.solver.grid_n)
    add("update_monotonicity", upd.ok,
        f"{upd.n_update_checks} update checks, likelihood dominance on all "
        f"{upd.n_fsd_checks} ordered state pairs" + ("" if upd.ok else
                     f"; violations {upd.update_violations[:3] + upd.fsd_violations[:3]}"))
    _, table, sol = _pipeline(cfg)
    mono = belief_mdp.verify_value_monotonicity(sol)
    add("value_monotonicity", mono.ok,
        "V and Q nondecreasing in tau and belief" if mono.ok else
        f"{mono.n_violations} violations, worst {mono.worst_drop} at {mono.witness}")
    if cfg.is_stopping:
        try:
            th = stopping.extract_threshold(sol)
            thres = stopping.verify_threshold_monotone(th)
            add("threshold_monotone", bool(thres),
                "threshold nonincreasing in tau" if thres else
                f"witness {thres.witness}")
        except stopping.StructureViolationError as exc:
            add("threshold_monotone", False, str(exc))
        sub = stopping.verify_submodularity(sol)
        add("stop_advantage_monotone", bool(sub),
            "stop advantage nonincreasing" if sub else
            f"witness {sub.witness}, rise {sub.value}")
    cost = belief_mdp.StageCost(
        holding=table,
        action_costs=np.zeros(cfg.channel.n_actions) if cfg.is_stopping
        else cfg.action_costs)
    contraction = belief_mdp.check_contraction(cfg.channel, cfg.system, cost,
                                               cfg.solver)
    add("contraction", contraction.ok,
        f"m={contraction.m}, certified bound {_fmt(contraction.certified_bound)}, "
        f"empirical ratio {_fmt(contraction.empirical_max_ratio)} over "
        f"{contraction.trials} trials")
    return results


def cmd_verify(cfg: RunConfig, quiet: bool = False) -> int:
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = _verify_battery(cfg)
    write_json(out_dir / "verify_report.json", {"checks": results})
    count = {s: sum(r["status"] == s for r in results) for s in ("pass", "fail", "skip")}
    if not quiet:
        for r in results:
            print(f"{r['status'].upper():4s} {r['check']}: {r['detail']}")
        print(f"{count['pass']}/{len(results)} checks passed"
              + (f", {count['skip']} skipped" if count["skip"] else ""))
    return EXIT_VERIFICATION if count["fail"] else EXIT_OK


def _stale_reason(cfg: RunConfig, out_dir: Path):
    """Why the solve artifacts in out_dir are not for cfg: None when
    solve_record.json records cfg's problem hash, otherwise what it holds."""
    record = out_dir / SOLVE_RECORD
    solved_for = (json.loads(record.read_text(encoding="utf-8")).get("problem_sha256")
                  if record.exists() else None)
    if solved_for == cfg.problem_sha256:
        return None
    found = f"records problem sha256 {solved_for}" if solved_for else "is missing"
    return f"{SOLVE_RECORD} {found}, this config has {cfg.problem_sha256}"


def _build_policy(cfg: RunConfig, name: str, out_dir: Path):
    if name == "solved":
        path = out_dir / "value_policy.csv"
        if not path.exists():
            raise FileNotFoundError(f"{path} not found; run solve first")
        stale = _stale_reason(cfg, out_dir)
        if stale:
            raise StalePolicyError(
                f"{path} was not solved for this config ({stale}); run solve first")
        policy, grid_n, tau_max = read_value_policy_csv(path)
        if (tau_max, grid_n) != (cfg.solver.tau_max, cfg.solver.grid_n):
            raise StalePolicyError(
                f"{path} holds a lattice with tau_max={tau_max}, grid_n={grid_n}, "
                f"but the config has solver.tau_max={cfg.solver.tau_max}, "
                f"solver.grid_n={cfg.solver.grid_n}; run solve first")
        return sim.LatticePolicy(policy, grid_n, tau_max)
    if name == "never-stop":
        return sim.never_stop
    if name == "stop-now":
        return sim.stop_immediately
    if name.startswith("threshold:"):
        return sim.FixedThresholdPolicy(float(name.split(":", 1)[1]))
    raise ValueError(f"unknown policy {name!r}; use solved, never-stop, "
                     f"stop-now, or threshold:<c>")


def write_traces_csv(traces, out_dir: Path, policy_name: str):
    lines = ["episode,t,theta,action,gamma_t,tau,belief,cost"]
    for ep, tr in enumerate(traces):
        for i in range(len(tr)):
            lines.append(f"{ep},{tr.t[i]},{tr.theta[i]},{tr.action[i]},"
                         f"{tr.success[i]},{tr.tau[i]},{_fmt(tr.belief[i])},"
                         f"{_fmt(tr.stage_cost[i])}")
    _write_lines(out_dir / f"traces_{policy_name}.csv", lines)


def cmd_simulate(cfg: RunConfig, policy_name: str, quiet: bool = False) -> int:
    if cfg.sim is None:
        raise ConfigError("sim", "missing section required by simulate")
    if not cfg.is_stopping:
        raise ConfigError("costs.c_stop", "simulate currently supports the "
                                          "stopping formulation only")
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    policy = _build_policy(cfg, policy_name, out_dir)
    ss = steady_state_covariance(cfg.system)
    if cfg.sim.horizon >= cfg.solver.tau_max:
        table = _cost_table(cfg, ss, cfg.sim.horizon, "sim.horizon")
    else:
        table = _cost_table(cfg, ss, cfg.solver.tau_max, "solver.tau_max")
    t0 = time.perf_counter()
    result = sim.run_batch(cfg.channel, table.costs, cfg.c_stop,
                           cfg.solver.gamma, policy, cfg.sim,
                           collect_traces=cfg.emit_traces)
    stats, traces = result if cfg.emit_traces else (result, None)
    payload = {
        "policy": policy_name,
        "seed": cfg.sim.seed,
        "n_runs": stats.n_runs,
        "horizon": stats.horizon,
        "gamma": cfg.solver.gamma,
        "mean_discounted_cost": stats.mean_discounted_cost,
        "stderr": stats.stderr,
        "truncation_bias_bound": stats.truncation_bias_bound,
        "stop_time_histogram": {str(k): v for k, v in
                                stats.stop_time_histogram.items()},
        "mode_occupancy": list(stats.mode_occupancy),
        "success_rate_per_mode": [None if np.isnan(r) else r
                                  for r in stats.success_rate_per_mode],
        "attempts_per_mode": list(stats.attempts_per_mode),
    }
    safe_name = policy_name.replace(":", "_")
    write_json(out_dir / f"simstats_{safe_name}.json", payload)
    if traces is not None:
        write_traces_csv(traces, out_dir, safe_name)
    if not quiet:
        print(f"policy {policy_name}: mean discounted cost "
              f"{_fmt(stats.mean_discounted_cost)} +- {_fmt(stats.stderr)} "
              f"({stats.n_runs} runs, {time.perf_counter() - t0:.2f}s)")
    return EXIT_OK


def cmd_thresholds(cfg: RunConfig, quiet: bool = False) -> int:
    if not cfg.is_stopping:
        raise ConfigError("costs.c_stop", "thresholds require the stopping "
                                          "formulation")
    out_dir = Path(cfg.out_dir)
    path = out_dir / "thresholds.csv"
    if not path.exists() or _stale_reason(cfg, out_dir):
        rc = cmd_solve(cfg, quiet=True)
        if rc != EXIT_OK:
            return rc
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    if not quiet:
        for line in lines:
            print(line)
    return EXIT_OK


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    raw = cfg.to_dict()
    changed = False
    if args.out is not None:
        raw["output"]["directory"] = args.out
        changed = True
    if getattr(args, "seed", None) is not None:
        if "sim" not in raw:
            raise ConfigError("sim", "cannot override the seed without a sim section")
        raw["sim"]["seed"] = args.seed
        changed = True
    if not changed:
        return cfg
    from .config import parse_config
    return parse_config(raw)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="txsched",
        description="Belief-state transmission scheduling: solve, verify, simulate.")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the YAML config")
    common.add_argument("--out", default=None, help="override output directory")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub.add_parser("solve", parents=[common], help="solve the scheduling problem")
    sub.add_parser("verify", parents=[common],
                   help="run the structural verification battery")
    p_sim = sub.add_parser("simulate", parents=[common], help="Monte Carlo batch")
    p_sim.add_argument("--policy", default="solved",
                       help="solved | never-stop | stop-now | threshold:<c>")
    p_sim.add_argument("--seed", type=int, default=None, help="override sim.seed")
    sub.add_parser("thresholds", parents=[common], help="print the threshold table")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg = _apply_overrides(cfg, args)
        if args.command == "solve":
            return cmd_solve(cfg, quiet=args.quiet)
        if args.command == "verify":
            return cmd_verify(cfg, quiet=args.quiet)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.policy, quiet=args.quiet)
        return cmd_thresholds(cfg, quiet=args.quiet)
    except (ConfigError, FileNotFoundError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StalePolicyError as exc:
        print(f"stale policy: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except stopping.StructureViolationError as exc:
        print(f"verification failure: no threshold policy: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
