"""Command-line entry point: config in, CSV/JSON artifacts out.

Subcommands:
  solve       steady-state covariance -> holding costs -> value iteration
              (stopping solve when costs.c_stop is set); writes q_values.csv,
              value_policy.csv, thresholds.csv, and solve_record.json (the
              sha256 of the config sections that fix the solution). Prints
              the sweep count of every belief grid the solve ran, the
              final grid first ("value iteration: 3 sweeps on grid 2000
              after 3 on grid 200 and 183 on grid 20, ..."), and the
              certified error of the solution (solver.vi_tol is its
              target), or "not certified".
  verify      runs the structural-verification battery and writes
              verify_report.json; nonzero exit on any asserted failure. The
              contraction check reports the analytic stage m and the exact
              modulus of T^m on the solver's lattice.
  simulate    Monte Carlo batch under --policy; writes simstats_<policy>.json
              and optional per-step traces. --policy solved refuses a
              missing or malformed value_policy.csv, or one solved for
              another config.
  thresholds  prints the threshold table (from a prior solve of the same
              problem, by solve_record.json, otherwise solving first).

Exit codes: 0 ok, 2 config or usage error (including a holding-cost table that
overflows float64 before solver.tau_max or sim.horizon, and a solved policy
that is missing, malformed or does not match the config, reported as "stale
policy"),
3 convergence failure (including a covariance fixed point under which the
holding cost falls by more than rounding), 4 verification failure (a failed
verify check, or a solve or thresholds whose stop region is not an upper
belief interval at some tau; that solve writes no artifact), 5 model
inconsistency (a simulated observation of zero likelihood: the channel's
tables contradict each other), 141 standard output closed by its reader
(`| head`; no message, like a process killed by SIGPIPE).
All floats in CSV files are printed with 12 significant digits, LF line
endings; JSON keys are sorted. Outputs are a pure function of (config, seed):
reruns are byte-identical.
"""

import argparse
import importlib
import json
import os
import sys
import time
import warnings
from itertools import chain
from pathlib import Path

import numpy as np

from .channel import check_mode_kernel_tp2
from .config import ConfigError, RunConfig, SimConfig, load_config, parse_config
from .lti_estimation import ConvergenceError, holding_cost_table, steady_state_covariance
from .stochastic_orders import StructureViolationError, ZeroLikelihoodError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_VERIFICATION = 4
EXIT_MODEL = 5
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer killed by it

SOLVE_RECORD = "solve_record.json"


def __getattr__(name):
    """The solver, simulator and check modules, which each command imports
    when it runs; ``cli.belief_mdp`` and the like resolve to them."""
    if name in ("belief_mdp", "folding", "sim", "stopping"):
        return importlib.import_module(f"{__package__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class StalePolicyError(Exception):
    """The solved policy on disk is missing or was not solved for the current
    config."""


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _write_lines(path: Path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def write_solution_csvs(sol, out_dir: Path):
    """q_values.csv: (tau, belief, action, q_value); value_policy.csv:
    (tau, belief, value, policy). Written one tau row at a time, each by a
    %-format of a template holding the belief strings and action labels: %s
    for tau, %.12g for Q and V, %d for the policy ('%.12g' % x equals _fmt(x)
    for every float). A Q column of one bit pattern over the lattice (the
    stop column) is formatted once, as a literal in the Q template. A V cell
    with those bits whose policy names that action is that literal too; its
    row is joined from per-belief pieces with tau between them."""
    beliefs = [_fmt(b) for b in sol.belief_grid]
    n_b, n_a = len(beliefs), sol.n_actions
    q_bits, v_bits = (np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
                      for x in (sol.Qfun, sol.V))
    const = [a for a in range(n_a) if (q_bits[..., a] == q_bits[0, 0, a]).all()]
    lits = {a: _fmt(sol.Qfun[0, 0, a]) for a in const}
    var = [a for a in range(n_a) if a not in lits]
    q_row = "".join(f"%s,{b},{a},{lits.get(a, '%.12g')}\n" for b in beliefs for a in range(n_a))
    # per belief, each action's tau slot (None), then its value slot unless a literal
    slots = [s for a in range(n_a) for s in ((None, a) if a in var else (None,))]
    q_args = [None] * (len(slots) * n_b)
    vp_row = "".join(f"%s,{b},%.12g,%d\n" for b in beliefs)
    vp_args = [None] * (3 * n_b)
    # what follows tau in a V row: row 0 %-slots, row 1 + j the literal of const[j]
    vp_pieces = np.array([[f",{b},%.12g,%d\n" for b in beliefs]] + [
        [f",{b},{lits[a]},{a}\n" for b in beliefs] for a in const], dtype=object)
    with open(out_dir / "q_values.csv", "w", encoding="utf-8", newline="\n") as q_fh, \
            open(out_dir / "value_policy.csv", "w", encoding="utf-8", newline="\n") as vp_fh:
        q_fh.write("tau,belief,action,q_value\n")
        vp_fh.write("tau,belief,value,policy\n")
        for tau in range(sol.tau_max + 1):
            t = str(tau)
            for c, a in enumerate(slots):
                q_args[c::len(slots)] = [t] * n_b if a is None else sol.Qfun[tau, :, a].tolist()
            q_fh.write(q_row % tuple(q_args))
            # the masks are disjoint: the policy names one action per cell
            piece = sum((1 + j) * ((v_bits[tau] == q_bits[0, 0, a]) & (sol.policy[tau] == a))
                        for j, a in enumerate(const))
            if np.any(piece):
                slot = piece == 0
                args = [None] * (2 * int(slot.sum()))
                args[::2], args[1::2] = sol.V[tau][slot].tolist(), sol.policy[tau][slot].tolist()
                vp_fh.write((t + t.join(vp_pieces[piece, np.arange(n_b)].tolist())) % tuple(args))
            else:
                vp_args[::3] = [t] * n_b
                vp_args[1::3] = sol.V[tau].tolist()
                vp_args[2::3] = sol.policy[tau].tolist()
                vp_fh.write(vp_row % tuple(vp_args))


def write_thresholds_csv(th, out_dir: Path):
    lines = ["tau,b_th,is_sentinel"]
    for tau in range(th.tau_max + 1):
        lines.append(f"{tau},{_fmt(th.b_th[tau])},{int(th.is_sentinel[tau])}")
    _write_lines(out_dir / "thresholds.csv", lines)


def read_value_policy_csv(path: Path):
    """Reconstruct (policy lattice, grid_n, tau_max) from a prior solve's
    value_policy.csv, reading only its tau and policy columns; a file that is
    not a full lattice of stop/continue actions raises StalePolicyError."""
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
        if header != "tau,belief,value,policy":
            raise ValueError(f"unexpected header {header!r}")
        with warnings.catch_warnings():  # an empty table is refused below
            warnings.simplefilter("ignore", UserWarning)
            cols = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 3),
                              dtype=np.int64, ndmin=2)
        tau, policy = cols[:, 0], cols[:, 1]
        n_tau = int(tau[-1]) + 1 if tau.size else 0
        if n_tau < 1 or tau.size % n_tau or not np.array_equal(
                tau, np.repeat(np.arange(n_tau), tau.size // n_tau)):
            raise ValueError(f"{tau.size} rows do not cover tau = 0, ..., "
                             "tau_max with one row per belief grid point")
        if not np.isin(policy, (0, 1)).all():
            raise ValueError("the policy column holds an action other than 0 and 1")
    except ValueError as exc:
        raise StalePolicyError(f"{path} is malformed ({exc}); run solve first") from None
    grid_n = tau.size // n_tau - 1
    return policy.reshape(n_tau, grid_n + 1), grid_n, n_tau - 1


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
    """Shared solve pipeline: covariance fixed point, cost table, solver;
    returns (covariance, solution)."""
    ss = steady_state_covariance(cfg.system)
    table = _cost_table(cfg, ss, cfg.solver.tau_max, "solver.tau_max")
    if cfg.is_stopping:
        from . import stopping
        prob = stopping.StoppingProblem(channel=cfg.channel, holding=table,
                                        cfg=cfg.solver, c_stop=cfg.c_stop)
        sol = stopping.solve_stopping(prob)
    else:
        from . import belief_mdp
        cost = belief_mdp.StageCost(holding=table, action_costs=cfg.action_costs)
        sol = belief_mdp.value_iterate(cfg.channel, cost, cfg.solver)
    return ss, sol


def cmd_solve(cfg: RunConfig, quiet: bool = False) -> int:
    out_dir = Path(cfg.out_dir)
    t0 = time.perf_counter()
    ss, sol = _pipeline(cfg)
    # a stop region without a threshold fails before any artifact is written,
    # so no earlier solve's files are paired with this config's record
    th = None
    if cfg.is_stopping:
        from . import stopping
        th = stopping.extract_threshold(sol)
    write_solution_csvs(sol, out_dir)
    write_json(out_dir / SOLVE_RECORD, {"problem_sha256": cfg.problem_sha256})
    if th is not None:
        write_thresholds_csv(th, out_dir)
    if not quiet:
        print(f"steady-state covariance trace: {_fmt(np.trace(ss.Pbar))}")
        certified = (f"certified error {sol.certified_error:.3e}"
                     if np.isfinite(sol.certified_error) else "not certified")
        after = " and ".join(f"{n} on grid {g}" for g, n in reversed(sol.coarse_levels))
        print(f"value iteration: {sol.sweeps_used} sweeps on grid {sol.grid_n}"
              + (f" after {after}" if after else "")
              + f", {certified}, residual {sol.final_residual:.3e}, "
              f"{time.perf_counter() - t0:.2f}s")
        print(f"wrote {out_dir}/q_values.csv, {out_dir}/value_policy.csv"
              + (f", {out_dir}/thresholds.csv" if cfg.is_stopping else ""))
    return EXIT_OK


def _verify_battery(cfg: RunConfig):
    """Run every structural check; yields (name, status, detail) with status
    'pass', 'fail', or 'skip'."""
    from . import belief_mdp, folding
    results = []

    def add(name, ok, detail, skip=False):
        results.append({"check": name, "status": "skip" if skip else
                        ("pass" if ok else "fail"), "detail": detail})

    res = check_mode_kernel_tp2(cfg.channel)
    add("mode_kernel_tp2", bool(res),
        "all per-action mode kernels TP2" if res else f"witness {res.witness}, "
        f"minor {res.value}")
    rho = cfg.system.spectral_radius()
    lam_min, bound = belief_mdp.success_margin(cfg.channel, rho)
    add("success_margin", lam_min > bound,
        f"min success prob {_fmt(lam_min)} vs bound {_fmt(bound)} (rho={_fmt(rho)})")
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
    _, sol = _pipeline(cfg)
    mono = belief_mdp.verify_value_monotonicity(sol)
    add("value_monotonicity", mono.ok,
        "V and Q nondecreasing in tau and belief" if mono.ok else
        f"{mono.n_violations} violations, worst {mono.worst_drop} at {mono.witness}")
    if cfg.is_stopping:
        from . import stopping
        try:
            th = stopping.extract_threshold(sol)
            thres = stopping.verify_threshold_monotone(th)
            add("threshold_monotone", bool(thres),
                "threshold nonincreasing in tau" if thres else
                f"witness {thres.witness}")
        except StructureViolationError as exc:
            add("threshold_monotone", False, str(exc))
        sub = stopping.verify_submodularity(sol)
        add("stop_advantage_monotone", bool(sub),
            "stop advantage nonincreasing" if sub else
            f"witness {sub.witness}, rise {sub.value}")
    contraction = belief_mdp.check_contraction(cfg.channel, cfg.system, cfg.solver)
    add("contraction", contraction.ok,
        f"m={contraction.m}, certified bound {_fmt(contraction.certified_bound)}, "
        f"lattice modulus {_fmt(contraction.lattice_modulus)}")
    return results


def cmd_verify(cfg: RunConfig, quiet: bool = False) -> int:
    out_dir = Path(cfg.out_dir)
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
    solve_record.json records cfg's problem hash, otherwise what it holds
    (or that it is missing or unreadable)."""
    record = out_dir / SOLVE_RECORD
    try:
        solved_for = json.loads(record.read_text(encoding="utf-8")).get("problem_sha256")
    except FileNotFoundError:
        found = "is missing"
    except (OSError, ValueError, AttributeError) as exc:
        found = f"is unreadable ({exc})"
    else:
        if solved_for == cfg.problem_sha256:
            return None
        found = f"records problem sha256 {solved_for}" if solved_for else "is missing"
    return f"{SOLVE_RECORD} {found}, this config has {cfg.problem_sha256}"


def _build_policy(cfg: RunConfig, name: str, out_dir: Path):
    from . import sim
    if name == "solved":
        path = out_dir / "value_policy.csv"
        if not path.exists():
            raise StalePolicyError(f"{path} not found; run solve first")
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
    return sim.FixedThresholdPolicy(float(name.split(":", 1)[1]))


def _policy_name(name: str) -> str:
    """The --policy argument; one ``_build_policy`` cannot build is a usage error."""
    if name not in ("solved", "never-stop", "stop-now"):
        kind, _, level = name.partition(":")
        if kind != "threshold":
            raise argparse.ArgumentTypeError(f"unknown policy {name!r}; use solved, "
                                             f"never-stop, stop-now, or threshold:<c>")
        from .sim import FixedThresholdPolicy
        try:
            FixedThresholdPolicy(float(level))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{name!r}: {exc}") from None
    return name


def _seed(text: str) -> int:
    """The --seed argument; one that sim.seed cannot hold is a usage error."""
    try:
        return SimConfig(horizon=1, n_runs=1, seed=int(text)).seed
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc).removeprefix("sim.seed: ")) from None


def write_traces_csv(traces: dict, out_dir: Path, policy_name: str):
    """traces_<policy>.csv from run_batch's trace columns, a row per step;
    the rows are formatted 64Ki at a time, to bound memory (%.12g is _fmt)."""
    cols = list(traces.values())
    row = ",".join("%.12g" if c.dtype.kind == "f" else "%d" for c in cols)
    lines = (row % r for i in range(0, cols[0].size, 1 << 16)
             for r in zip(*(c[i:i + (1 << 16)].tolist() for c in cols)))
    _write_lines(out_dir / f"traces_{policy_name}.csv", chain([",".join(traces)], lines))


def cmd_simulate(cfg: RunConfig, policy_name: str, quiet: bool = False) -> int:
    from . import sim
    if cfg.sim is None:
        raise ConfigError("sim", "missing section required by simulate")
    if not cfg.is_stopping:
        raise ConfigError("costs.c_stop", "simulate currently supports the "
                                          "stopping formulation only")
    out_dir = Path(cfg.out_dir)
    policy = _build_policy(cfg, policy_name, out_dir)
    ss = steady_state_covariance(cfg.system)
    table = _cost_table(cfg, ss, cfg.sim.horizon, "sim.horizon")
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
    seed = getattr(args, "seed", None)
    if args.out is None and seed is None:
        return cfg
    raw = cfg.to_dict()
    if args.out is not None:
        raw["output"]["directory"] = args.out
    if seed is not None:
        if "sim" not in raw:
            raise ConfigError("sim", "cannot override the seed without a sim section")
        raw["sim"]["seed"] = seed
    return parse_config(raw)


def _stdout_to_devnull():
    """Point standard output at os.devnull once its reader has gone, so the
    text still buffered, and the interpreter's flush at exit, go nowhere
    instead of raising BrokenPipeError again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, sys.stdout.fileno())
    except (AttributeError, OSError, ValueError):  # a stdout with no descriptor
        sys.stdout = os.fdopen(devnull, "w")
    else:
        os.close(devnull)


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
    p_sim.add_argument("--policy", default="solved", type=_policy_name,
                       help="solved | never-stop | stop-now | threshold:<c>")
    p_sim.add_argument("--seed", type=_seed, default=None, help="override sim.seed")
    sub.add_parser("thresholds", parents=[common], help="print the threshold table")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg = _apply_overrides(cfg, args)
        try:
            Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            reason = f"cannot create directory {cfg.out_dir!r}: {exc.strerror}"
            if args.out is not None:
                parser.error(f"argument --out: {reason}")
            raise ConfigError("output.directory", reason) from None
        if args.command == "solve":
            rc = cmd_solve(cfg, quiet=args.quiet)
        elif args.command == "verify":
            rc = cmd_verify(cfg, quiet=args.quiet)
        elif args.command == "simulate":
            rc = cmd_simulate(cfg, args.policy, quiet=args.quiet)
        else:
            rc = cmd_thresholds(cfg, quiet=args.quiet)
        sys.stdout.flush()  # a reader that has gone shows here, not at exit
        return rc
    except BrokenPipeError:
        _stdout_to_devnull()
        return EXIT_BROKEN_PIPE
    except (ConfigError, FileNotFoundError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StalePolicyError as exc:
        print(f"stale policy: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except StructureViolationError as exc:
        print(f"verification failure: no threshold policy: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except ZeroLikelihoodError as exc:
        print(f"model inconsistency: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
