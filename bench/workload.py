"""Runs one workload as a closed loop with a single caller, in its own process.

A pass runs the workload's CLI commands in order through
``txsched.cli.main``, in-process, each starting after the previous one
returns, in a fresh temporary output directory; every output is checked
against the reference after its command returns. Passes repeat until
``--seconds`` have elapsed. With ``--trace 1`` the passes alternate between
untraced and traced, and the traced ones give the per-layer metrics.

Writes one JSON document (metrics, per-pass timings, failures) to
``--result``; ``run.py`` starts this script and reads it.
"""

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import oracle
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# command -> (CLI arguments, end-to-end metric, root span name, simstats policy)
COMMANDS = {
    "solve": (["solve"], "solve_s", "cli.solve", ""),
    "verify": (["verify"], "verify_s", "cli.verify", ""),
    "simulate-solved": (["simulate", "--policy", "solved"], "simulate_solved_s",
                        "cli.simulate", "solved"),
    "simulate-never": (["simulate", "--policy", "never-stop"], "simulate_never_s",
                       "cli.simulate", "never-stop"),
}

# counts that must repeat exactly across passes of the same code
EXACT_COUNTS = ("belief_mdp.sweeps", "stopping.sweeps", "belief_mdp.contraction_m",
                "belief_mdp.update_checks", "stochastic_orders.fsd_checks",
                "sim.steps", "sim.episodes", "lti_estimation.calls",
                "belief_mdp.solve_calls", "cli.csv_bytes")

UNITS = {**dict.fromkeys(EXACT_COUNTS, "count"), "cli.csv_bytes": "B",
         "belief_mdp.sweep_ms": "ms", "stopping.sweep_ms": "ms",
         "belief_mdp.cell_updates_per_s": "1/s", "stopping.cell_updates_per_s": "1/s",
         "sim.steps_per_s": "1/s", "sim.mean_episode_steps": "steps",
         "belief_mdp.value_err": "abs", "trace.overhead_frac": "frac",
         "peak_rss_mb": "MB"}  # every other metric is in seconds


def load_workloads() -> dict:
    specs = json.loads((BENCH / "workloads" / "workloads.json").read_text(encoding="utf-8"))
    return {w["name"]: w for w in specs}


def check_output(ref, cmd: str, out: Path, seed: int):
    """(ok, detail, max |V - V_ref| or None) for one command's outputs."""
    if cmd == "solve":
        return ref.check_solve(out)
    if cmd == "verify":
        return (*ref.check_verify(out), None)
    return (*ref.check_simulate(out, COMMANDS[cmd][3], seed), None)


def run_pass(cli, spec, cfg_path: Path, seed: int, ref, work: Path, index: int,
             tracer=None) -> dict:
    out = Path(tempfile.mkdtemp(prefix="pass", dir=work))
    record = {"traced": tracer is not None, "commands": {}, "value_err": 0.0}
    try:
        for cmd in spec["commands"]:
            args, _, span_name, policy = COMMANDS[cmd]
            argv = args + ["--config", str(cfg_path), "--out", str(out), "--quiet"]
            if policy:
                argv += ["--seed", str(seed)]
            rc, detail = None, ""
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    with tracer.command(span_name, f"p{index}:{cmd}", policy.split("-")[0]):
                        rc = cli.main(argv)
            except Exception:  # the CLI's own failure: record it and go on
                detail = traceback.format_exc(limit=3)
            seconds = time.perf_counter() - t0
            ok = rc == 0
            if ok:
                try:
                    ok, detail, err = check_output(ref, cmd, out, seed)
                except Exception as exc:  # missing or malformed output counts as wrong
                    ok, detail, err = False, f"output check: {exc!r}", None
                if err is not None:
                    record["value_err"] = max(record["value_err"], err)
            elif not detail:
                detail = f"exit code {rc}"
            record["commands"][cmd] = {"seconds": seconds, "rc": rc, "ok": ok,
                                       "detail": detail}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    record["pipeline_s"] = sum(c["seconds"] for c in record["commands"].values())
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(tracer.spans)
        record["layers"]["belief_mdp.value_err"] = record["value_err"]
    return record


def summarize(spec, passes: list, trace: bool) -> tuple[dict, list]:
    """Metrics over the passes, and the errors found across them."""
    errors = [f"pass {i} {cmd}: {c['detail']}" for i, p in enumerate(passes)
              for cmd, c in p["commands"].items() if not c["ok"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = {}
    if not trace:
        # The mean, not the median, over passes: on a shared 2-vCPU host the
        # speed flips between two levels within seconds, and between runs the
        # median of 5-7 such samples spread up to 1.7x as much as the mean.
        for cmd in spec["commands"]:
            metrics[COMMANDS[cmd][1]] = statistics.fmean(
                p["commands"][cmd]["seconds"] for p in plain)
        metrics["pipeline_s"] = statistics.fmean(p["pipeline_s"] for p in plain)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return metrics, errors
    traced = [p for p in passes if p["traced"]]
    for name in traced[0]["layers"]:
        values = [p["layers"][name] for p in traced]
        if name in EXACT_COUNTS and len(set(values)) > 1:
            errors.append(f"count {name} drifted across passes: {values}")
        metrics[name] = statistics.median(values)
    metrics["trace.overhead_frac"] = (
        statistics.median(p["pipeline_s"] for p in traced)
        / statistics.median(p["pipeline_s"] for p in plain) - 1.0)
    return metrics, errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True,
                    help="directory for the passes' temporary output directories")
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args()

    import txsched
    from txsched import cli
    here = Path(txsched.__file__).resolve().parent
    if here != (ROOT / "src" / "txsched").resolve():
        print(f"txsched imported from {here}, not from this checkout", file=sys.stderr)
        return 2
    spec = load_workloads()[args.workload]
    cfg_path = BENCH / "workloads" / spec["config"]
    raw = txsched.load_config(cfg_path).to_dict()
    ref = oracle.Reference(args.workload, raw)

    passes, tracers, missing = [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        t0 = time.perf_counter()
        if args.trace and len(passes) % 2 == 1:
            tracer = tracing.Tracer()
            with tracer.installed(cli) as missing:
                passes.append(run_pass(cli, spec, cfg_path, args.seed, ref, args.work,
                                       len(passes), tracer))
            tracers.append(tracer)
        else:
            passes.append(run_pass(cli, spec, cfg_path, args.seed, ref, args.work,
                                   len(passes)))
        now = time.perf_counter()
        # start another pass only if at least half of one fits before the deadline
        if deadline - now < (now - t0) / 2 and len(passes) >= 1 + args.trace:
            break
    metrics, errors = summarize(spec, passes, bool(args.trace))
    result = {
        "workload": args.workload,
        "why": spec["why"],
        "seed": args.seed,
        "trace": args.trace,
        "config_sha256": hashlib.sha256(
            json.dumps(raw, sort_keys=True).encode("utf-8")).hexdigest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "txsched": getattr(txsched, "__version__", None),
        "metrics": {k: {"value": v, "unit": UNITS.get(k, "s")} for k, v in metrics.items()},
        "attempted": sum(len(p["commands"]) for p in passes),
        "failed": sum(not c["ok"] for p in passes for c in p["commands"].values()),
        "errors": errors,
        "unwrapped": missing,
        "passes": passes,
        "spans": [t.dump() for t in tracers],
    }
    args.result.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
