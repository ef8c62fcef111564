"""Command-line entry point: config in, CSV/JSON artifacts out.

An output directory holds one problem's artifacts, and solve_record.json
(the sha256 of the config sections that fix the solution) names it. Just
before its first write a command removes the record, and first every artifact
if the record names another problem or none; it writes the record last.

Subcommands:
  solve       steady-state covariance -> holding costs -> value iteration
              (stopping solve when costs.c_stop is set); writes q_values.csv,
              value_policy.csv, q_values.npy (Q exactly), thresholds.csv and
              solve_record.json. Prints the sweep count of every belief grid
              the solve ran, the final grid first ("value iteration: 3
              sweeps on grid 2000 after 4 on grid 200 and 200 on grid 20,
              ..."), and the certified error of the solution (solver.vi_tol
              is its target), with a note at the end of the line when the
              error is above that target (the sweep's rounding floor).
  verify      runs the structural-verification battery and writes
              verify_report.json (its checks and the config's problem
              sha256) and solve_record.json; nonzero exit on any asserted
              failure. The value checks read the Q in q_values.npy of a
              solve for this config, and solve again when there is none; a
              line before the summary says which. The contraction check
              reports the analytic stage m and the exact modulus of T^m on
              the solver's lattice.
  simulate    Monte Carlo batch under --policy; writes simstats_<policy>.json,
              traces_<policy>.csv (or removes it) by output.emit_traces, and
              solve_record.json. --policy solved acts on the policy of the
              Q in q_values.npy of a solve for this config, read as verify
              reads it, and refuses the file when it cannot vouch for the
              config. No command reads value_policy.csv back.
  thresholds  prints the threshold table (from a prior solve of the same
              problem, by solve_record.json, otherwise solving first).

Exit codes: 0 ok, 2 config or usage error (including an empty --out, a
holding-cost table that overflows float64 before solver.tau_max or
sim.horizon, and a q_values.npy that --policy solved cannot act on: no
solve for this config, or a file that is missing, unreadable, malformed or
of another lattice, reported as "stale policy"), or an artifact that
cannot be written ("output error: cannot write '<path>': <OS reason>") or a
file a command cannot remove ("output error: cannot remove '<path>': <OS
reason>"), or an earlier solve's thresholds.csv that cannot be read ("output
error: cannot read '<path>': <reason>"), or a standard output that cannot be
written, as on a full device ("output error: cannot write standard output:
<OS reason>"),
3 convergence failure (including a plant with no steady state, as (A, C) is
not detectable, and a covariance fixed point under which the holding cost
falls by more than rounding), 4 verification failure (a failed
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
from contextlib import contextmanager
from dataclasses import asdict, replace
from itertools import accumulate, chain
from pathlib import Path

import numpy as np

from .channel import check_mode_kernel_tp2
from .config import ConfigError, OutputConfig, RunConfig, SimConfig, load_config
from .lti_estimation import ConvergenceError, holding_cost_table, steady_state_covariance
from .stochastic_orders import StructureViolationError, ZeroLikelihoodError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_VERIFICATION = 4
EXIT_MODEL = 5
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer killed by it

SOLVE_RECORD = "solve_record.json"
VERIFY_REPORT = "verify_report.json"
Q_VALUES = "q_values.npy"
ARTIFACTS = ("q_values.csv", "value_policy.csv", Q_VALUES, "thresholds.csv", VERIFY_REPORT,
             "simstats_*.json", "traces_*.csv")


def __getattr__(name):
    """The solver, simulator and check modules, which each command imports
    when it runs; ``cli.belief_mdp`` and the like resolve to them."""
    if name in ("belief_mdp", "folding", "sim", "stopping"):
        return importlib.import_module(f"{__package__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class StalePolicyError(Exception):
    """The q_values.npy on disk cannot vouch for the current config
    (_stored_solution says why)."""


class OutputError(Exception):
    """An artifact could not be written or removed, or one that an earlier
    solve wrote could not be read."""


@contextmanager
def _artifact(path: Path, binary: bool = False):
    """path opened for writing, as text in UTF-8 with LF line endings unless
    binary; an OSError while opening, writing or closing it is an OutputError
    naming the file."""
    try:
        with (open(path, "wb") if binary else
              open(path, "w", encoding="utf-8", newline="\n")) as fh:
            yield fh
    except OSError as exc:
        raise OutputError(f"cannot write '{path}': {exc.strerror or exc}") from None


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _write_lines(path: Path, lines):
    with _artifact(path) as fh:
        for line in lines:
            fh.write(line + "\n")


def write_solution_csvs(sol, out_dir: Path):
    """q_values.csv: (tau, belief, action, q_value); value_policy.csv:
    (tau, belief, value, policy). Written one tau row at a time, each by a
    bytes %-format of a template holding the belief strings and action
    labels: a NUL, which no formatted number holds, marks tau and is replaced
    by it; %.12g for Q and V, %d for the policy (b'%.12g' % x is
    _fmt(x).encode() for every float). A Q column of one bit pattern over the
    lattice (the stop column) is formatted once, as a literal in the Q
    template. A V cell with those bits whose policy names that action is that
    literal too. A V row is cut from one template per kind of cell, %-slots
    or the literal of an action, a run of cells of one kind at a time."""
    beliefs = [_fmt(b) for b in sol.belief_grid]
    n_a = sol.n_actions
    q_bits, v_bits = (np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
                      for x in (sol.Qfun, sol.V))
    const = [a for a in range(n_a) if (q_bits[..., a] == q_bits[0, 0, a]).all()]
    lits = {a: _fmt(sol.Qfun[0, 0, a]) for a in const}
    var = [a for a in range(n_a) if a not in lits]
    q_row = "".join(f"\0,{b},{a},{lits.get(a, '%.12g')}\n"
                    for b in beliefs for a in range(n_a)).encode()
    # kind of each V cell: 0 for %-slots, 1 + j for the literal of const[j]
    # (the masks are disjoint: the policy names one action per cell)
    kind = np.zeros(sol.policy.shape, dtype=np.intp)
    for j, a in enumerate(const):
        kind[(v_bits == q_bits[0, 0, a]) & (sol.policy == a)] = 1 + j
    # per kind, its template over every belief and where each belief's piece
    # starts (the pieces are ASCII, so a character is a byte)
    pieces = [[f"\0,{b},%.12g,%d\n" for b in beliefs]] + [
        [f"\0,{b},{lits[a]},{a}\n" for b in beliefs] for a in const]
    vp_rows = ["".join(p).encode() for p in pieces]
    starts = [[0, *accumulate(map(len, p))] for p in pieces]
    with _artifact(out_dir / "q_values.csv", binary=True) as q_fh, \
            _artifact(out_dir / "value_policy.csv", binary=True) as vp_fh:
        q_fh.write(b"tau,belief,action,q_value\n")
        vp_fh.write(b"tau,belief,value,policy\n")
        for tau in range(sol.tau_max + 1):
            t = b"%d" % tau
            q_fh.write(q_row.replace(b"\0", t) % tuple(sol.Qfun[tau][:, var].ravel().tolist()))
            ks = kind[tau]
            cuts = [0, *(np.flatnonzero(np.diff(ks)) + 1).tolist(), ks.size]
            row = b"".join(vp_rows[k][starts[k][i]:starts[k][j]]
                           for i, j, k in zip(cuts, cuts[1:], ks[cuts[:-1]].tolist()))
            slot = ks == 0
            args = [None] * (2 * int(np.count_nonzero(slot)))
            args[::2], args[1::2] = sol.V[tau][slot].tolist(), sol.policy[tau][slot].tolist()
            vp_fh.write(row.replace(b"\0", t) % tuple(args))


def write_thresholds_csv(th, out_dir: Path):
    lines = ["tau,b_th,is_sentinel"]
    for tau in range(th.tau_max + 1):
        lines.append(f"{tau},{_fmt(th.b_th[tau])},{int(th.is_sentinel[tau])}")
    _write_lines(out_dir / "thresholds.csv", lines)


def write_json(path: Path, obj):
    _write_lines(path, [json.dumps(obj, sort_keys=True, indent=2)])


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
    out_dir = Path(cfg.output.directory)
    t0 = time.perf_counter()
    ss, sol = _pipeline(cfg)
    # a stop region without a threshold fails before any file is removed or
    # written, so the directory keeps the problem its record names
    th = None
    if cfg.is_stopping:
        from . import stopping
        th = stopping.extract_threshold(sol)
    with _claim(cfg, out_dir):
        write_solution_csvs(sol, out_dir)
        with _artifact(out_dir / Q_VALUES, binary=True) as fh:
            np.save(fh, sol.Qfun)
        if th is not None:
            write_thresholds_csv(th, out_dir)
    if not quiet:
        after = " and ".join(f"{n} on grid {g}" for g, n in reversed(sol.coarse_levels))
        _say(f"steady-state covariance trace: {_fmt(np.trace(ss.Pbar))}",
             f"value iteration: {sol.sweeps_used} sweeps on grid {sol.grid_n}"
             + (f" after {after}" if after else "")
             + f", certified error {sol.certified_error:.3e}, residual "
             f"{sol.final_residual:.3e}, {time.perf_counter() - t0:.2f}s"
             + ("" if sol.certified_error <= cfg.solver.vi_tol else
                f"; above solver.vi_tol {cfg.solver.vi_tol:g} (rounding floor)"),
             f"wrote {out_dir}/q_values.csv, {out_dir}/value_policy.csv, {out_dir}/{Q_VALUES}"
             + (f", {out_dir}/thresholds.csv" if cfg.is_stopping else ""))
    return EXIT_OK


def _stored_solution(cfg: RunConfig, out_dir: Path):
    """(Solution, None) from the q_values.npy that solve wrote for cfg in
    out_dir, or (None, why not): the record is stale (_stale_reason), or the
    file does not load without unpickling, or it is not a finite float64
    array of cfg's lattice shape, or its stop column is not c_stop
    everywhere. The Solution is rebuilt as _solve builds it, with no
    certified error."""
    from . import belief_mdp
    stale = _stale_reason(cfg, out_dir)
    if stale:
        return None, stale
    path, s = out_dir / Q_VALUES, cfg.solver
    shape = (s.tau_max + 1, s.grid_n + 1, cfg.channel.n_actions + cfg.is_stopping)
    try:  # mapped, so a header that claims more than the file holds is refused unread
        Q = np.load(path, mmap_mode="r", allow_pickle=False)
    except (OSError, ValueError, EOFError) as exc:
        return None, f"cannot load '{path}': {getattr(exc, 'strerror', None) or exc}"
    if not isinstance(Q, np.ndarray) or Q.dtype != np.float64 or Q.shape != shape:
        found = f"{Q.dtype} {Q.shape}" if isinstance(Q, np.ndarray) else "an .npz archive"
        return None, f"{path} holds {found}, not float64 {shape}"
    if not np.isfinite(Q).all():
        return None, f"{path} holds a value that is not finite"
    if cfg.is_stopping and (Q[:, :, -1] != cfg.c_stop).any():
        return None, f"{path} has a stop column other than costs.c_stop = {cfg.c_stop}"
    # one copy, so no Solution maps a file that a later solve truncates
    return belief_mdp.solution_from_q(np.array(Q), s, cfg.is_stopping,
                                      sweeps_used=0, final_residual=np.inf), None


def _verify_battery(cfg: RunConfig):
    """Run every structural check; returns the rows (name, status, detail)
    with status 'pass', 'fail', or 'skip', and the source of the value
    checks: the Q that solve wrote for cfg, or a new solve when there is
    none (_stored_solution says why)."""
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
    out_dir = Path(cfg.output.directory)
    sol, why = _stored_solution(cfg, out_dir)
    if sol is None:
        _, sol = _pipeline(cfg)
    source = (f"value checks on a new solve: {why}" if why else
              f"value checks on {out_dir}/{Q_VALUES} from the solve for this config")
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
    return results, source


def cmd_verify(cfg: RunConfig, quiet: bool = False) -> int:
    out_dir = Path(cfg.output.directory)
    results, source = _verify_battery(cfg)
    with _claim(cfg, out_dir):
        write_json(out_dir / VERIFY_REPORT, {"checks": results,
                                             "problem_sha256": cfg.problem_sha256})
    count = {s: sum(r["status"] == s for r in results) for s in ("pass", "fail", "skip")}
    if not quiet:
        _say(*(f"{r['status'].upper():4s} {r['check']}: {r['detail']}" for r in results),
             source, f"{count['pass']}/{len(results)} checks passed"
             + (f", {count['skip']} skipped" if count["skip"] else ""))
    return EXIT_VERIFICATION if count["fail"] else EXIT_OK


def _stale_reason(cfg: RunConfig, out_dir: Path):
    """Why out_dir's solve_record.json does not name cfg's problem: None when
    it does, otherwise what it holds (or that it is missing or unreadable)."""
    try:
        solved_for = json.loads((out_dir / SOLVE_RECORD).read_text(
            encoding="utf-8")).get("problem_sha256")
    except FileNotFoundError:
        found = "is missing"
    except (OSError, ValueError, AttributeError) as exc:
        found = f"is unreadable ({exc})"
    else:
        if solved_for == cfg.problem_sha256:
            return None
        if solved_for:
            return (f"{SOLVE_RECORD} records problem sha256 {solved_for}: the directory was "
                    f"not solved for this config, which has {cfg.problem_sha256}")
        found = "is missing"
    return f"{SOLVE_RECORD} {found}, this config has {cfg.problem_sha256}"


@contextmanager
def _claim(cfg: RunConfig, out_dir: Path, *drop: str):
    """out_dir made cfg's for the block's writes: the files named in drop go,
    or every ARTIFACTS file when the record is not cfg's, then the record, which
    the block writes last. A failed removal is an OutputError; the record stays."""
    gone = ([path for pattern in ARTIFACTS for path in sorted(out_dir.glob(pattern))]
            if _stale_reason(cfg, out_dir) else [out_dir / name for name in drop])
    for path in (*gone, out_dir / SOLVE_RECORD):
        try:
            path.unlink(missing_ok=True)
        except OSError as exc:
            raise OutputError(f"cannot remove '{path}': {exc.strerror or exc}") from None
    yield
    write_json(out_dir / SOLVE_RECORD, {"problem_sha256": cfg.problem_sha256})


def _build_policy(cfg: RunConfig, name: str, out_dir: Path):
    from . import sim
    if name == "solved":
        sol, why = _stored_solution(cfg, out_dir)
        if why:
            raise StalePolicyError(f"{why}; run solve first")
        return sim.LatticePolicy(sol.policy)
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


def _out_dir(text: str) -> str:
    """The --out argument; one that output.directory cannot hold is a usage error."""
    try:
        return OutputConfig(directory=text).directory
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc).removeprefix("output.directory: ")) from None


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
    out_dir = Path(cfg.output.directory)
    policy = _build_policy(cfg, policy_name, out_dir)
    ss = steady_state_covariance(cfg.system)
    table = _cost_table(cfg, ss, cfg.sim.horizon, "sim.horizon")
    t0 = time.perf_counter()
    result = sim.run_batch(cfg.channel, table.costs, cfg.c_stop,
                           cfg.solver.gamma, policy, cfg.sim,
                           collect_traces=cfg.output.emit_traces)
    stats, traces = result if cfg.output.emit_traces else (result, None)
    # str keys sort lexicographically, as JSON keys; a NaN rate (no attempts) is null
    payload = {**asdict(stats), "policy": policy_name, "seed": cfg.sim.seed,
               "gamma": cfg.solver.gamma,
               "stop_time_histogram": {str(k): v for k, v in stats.stop_time_histogram.items()},
               "success_rate_per_mode": [None if np.isnan(r) else r
                                         for r in stats.success_rate_per_mode]}
    safe_name = policy_name.replace(":", "_")
    with _claim(cfg, out_dir, f"traces_{safe_name}.csv"):  # no older run's trace stays
        write_json(out_dir / f"simstats_{safe_name}.json", payload)
        if traces is not None:
            write_traces_csv(traces, out_dir, safe_name)
    if not quiet:
        _say(f"policy {policy_name}: mean discounted cost "
             f"{_fmt(stats.mean_discounted_cost)} +- {_fmt(stats.stderr)} "
             f"({stats.n_runs} runs, {time.perf_counter() - t0:.2f}s)")
    return EXIT_OK


def cmd_thresholds(cfg: RunConfig, quiet: bool = False) -> int:
    out_dir = Path(cfg.output.directory)
    path = out_dir / "thresholds.csv"
    if not path.exists() or _stale_reason(cfg, out_dir):
        cmd_solve(cfg, quiet=True)  # returns EXIT_OK or raises
    try:
        lines = path.read_text(encoding="utf-8").strip().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc  # a decode error has none
        raise OutputError(f"cannot read '{path}': {reason}") from None
    if not quiet:
        _say(*lines)
    return EXIT_OK


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    """cfg with --out as output.directory and --seed as sim.seed, each put
    into its section model by dataclasses.replace, which checks it again;
    to_dict and problem_sha256 read the models, so they follow."""
    changes, seed = {}, getattr(args, "seed", None)
    if args.out is not None:
        changes["output"] = replace(cfg.output, directory=args.out)
    if seed is not None:
        if cfg.sim is None:
            raise ConfigError("sim", "cannot override the seed without a sim section")
        changes["sim"] = replace(cfg.sim, seed=seed)
    return replace(cfg, **changes)


def _say(*lines):
    """Print lines to standard output and flush it. A failed write sends
    stdout to os.devnull, so the flush at exit adds no second message, and is
    an OutputError, unless the reader has gone (BrokenPipeError, exit 141)."""
    try:
        print(*lines, sep="\n")
        sys.stdout.flush()
    except OSError as exc:
        _stdout_to_devnull()
        if isinstance(exc, BrokenPipeError):
            raise
        raise OutputError(f"cannot write standard output: {exc.strerror or exc}") from None


def _stdout_to_devnull():
    """Point standard output at os.devnull once a write to it has failed (its
    reader has gone, or its device is full), so the text still buffered, and
    the interpreter's flush at exit, go nowhere instead of failing again."""
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
    common.add_argument("--out", type=_out_dir, default=None,
                        help="override output directory")
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
        cfg = _apply_overrides(load_config(args.config), args)
        if args.command in ("simulate", "thresholds") and not cfg.is_stopping:
            parser.error(f"{args.command} needs the stopping formulation, and the config "
                         "sets no costs.c_stop")
        try:
            Path(cfg.output.directory).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            reason = f"cannot create directory {cfg.output.directory!r}: {exc.strerror}"
            if args.out is not None:
                parser.error(f"argument --out: {reason}")
            raise ConfigError("output.directory", reason) from None
        if args.command == "simulate":
            return cmd_simulate(cfg, args.policy, quiet=args.quiet)
        command = {"solve": cmd_solve, "verify": cmd_verify, "thresholds": cmd_thresholds}
        return command[args.command](cfg, quiet=args.quiet)
    except BrokenPipeError:  # from _say, which sent stdout to os.devnull
        return EXIT_BROKEN_PIPE
    except StalePolicyError as exc:
        print(f"stale policy: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
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
    except (OSError, ValueError) as exc:  # ConfigError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
