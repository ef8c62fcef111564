"""txsched benchmark: per-command wall time on fixed workloads.

Usage, from the root of a checkout:

    python3 bench/run.py [--workload ref|fine-unstable|general-slow|all]
                         [--seed N] [--seconds S] [--trace 0|1]

For each workload it measures set-up time in fresh interpreters, then runs
``workload.py`` in a child process with BLAS/OpenMP threads pinned to 1; the
child runs the workload's CLI commands as a closed loop with a single caller
for S seconds and checks every output against the recorded reference. The
seed is passed to ``simulate --seed``. ``--trace 0`` reports the end-to-end
metrics (setup_s is the median over fresh interpreters, command times the
mean over the run's passes), ``--trace 1`` the per-layer ones from a traced
run (medians over its traced passes). Every metric is
printed with its unit; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. The run record (machine,
versions, config hashes, per-pass timings, spans) goes to ``.bench_results/``,
outside the CLI's output directories.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 20260811  # the configs' sim.seed: simstats must match the reference bytes
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# time from a fresh interpreter's first statement to a validated config
SETUP_PROBE = """\
import time
t0 = time.perf_counter()
import sys, txsched
txsched.load_config(sys.argv[1])
print(repr(time.perf_counter() - t0))
"""


class BenchError(Exception):
    pass


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_ENV})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(work)
    return env


def run_child(cmd: list, env: dict, timeout: float) -> str:
    """Run a child to completion (killing it on timeout) and return stdout."""
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1]} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:2])} exited with code {proc.returncode}")
    return proc.stdout


def measure_setup(cfg_path: Path, env: dict) -> float:
    times = [float(run_child([sys.executable, "-c", SETUP_PROBE, str(cfg_path)], env, 60)
                   .strip().splitlines()[-1]) for _ in range(SETUP_PROBES)]
    return statistics.median(times)


def git_commit():
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "thread_env": {name: "1" for name in THREAD_ENV}}


def run_workload(name: str, spec: dict, args, work: Path, wanted: list) -> dict:
    env = child_env(work)
    cfg_path = BENCH / "workloads" / spec["config"]
    result_path = work / f"{name}.json"
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work), "--result", str(result_path)]
    run_child(cmd, env, CHILD_TIMEOUT_S)
    res = json.loads(result_path.read_text(encoding="utf-8"))
    if not args.trace:
        res["metrics"]["setup_s"] = {"value": measure_setup(cfg_path, env), "unit": "s"}
    for metric in wanted:
        got = res["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            raise BenchError(f"{name}: metric {metric['name']} [{metric['unit']}] "
                             f"not measured (got {got})")
    return res


def report(res: dict, wanted: list):
    n_plain = sum(not p["traced"] for p in res["passes"])
    print(f"workload {res['workload']}: seed {res['seed']}, {len(res['passes'])} passes "
          f"({n_plain} untraced), config sha256 {res['config_sha256'][:16]}")
    print(f"  why: {res['why']}")
    names = [m["name"] for m in wanted]
    names += sorted(set(res["metrics"]) - set(names))
    for name in names:
        m = res["metrics"][name]
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")
    rate = res["failed"] / res["attempted"]
    print(f"  {'error_rate':34s} {rate:>14.6g} ({res['failed']}/{res['attempted']} commands)")
    for err in res["errors"]:
        print(f"  ERROR {err}")
    if res["unwrapped"]:
        print(f"  not traced (attribute missing): {', '.join(res['unwrapped'])}")


def main() -> int:
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"]: w for w in
                 json.loads((BENCH / "workloads" / "workloads.json").read_text(encoding="utf-8"))}
    ap = argparse.ArgumentParser(description="txsched benchmark")
    ap.add_argument("--workload", default="all", choices=[*workloads, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=bench_spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "txsched" / "__init__.py").is_file():
        print(f"no txsched sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    wanted = bench_spec["per_layer" if args.trace else "end_to_end"]
    names = list(workloads) if args.workload == "all" else [args.workload]

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run", dir=ROOT / ".bench_work"))
    try:
        results = [run_workload(n, workloads[n], args, work, wanted) for n in names]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record_dir = ROOT / ".bench_results"
    record_dir.mkdir(exist_ok=True)
    run_facts = {"git_commit": git_commit(), **machine()}
    for res in results:
        report(res, wanted)
        stem = f"{res['workload']}_seed{args.seed}_trace{args.trace}"
        spans = res.pop("spans")
        (record_dir / f"{stem}.json").write_text(
            json.dumps({**run_facts, **res}, indent=1), encoding="utf-8")
        if args.trace:
            (record_dir / f"{stem}_spans.json").write_text(json.dumps(spans),
                                                           encoding="utf-8")
    print(f"run record: {record_dir}/ (git commit {run_facts['git_commit']}, "
          f"nproc {run_facts['nproc']}, {run_facts['cpu_model']})")

    prefix = len(results) > 1
    metrics = {(f"{r['workload']}." if prefix else "") + m["name"]: r["metrics"][m["name"]]
               for r in results for m in wanted}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0 and not any(r["errors"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
