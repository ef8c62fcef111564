"""Record the output oracle's references from the code in this checkout.

    PYTHONPATH=src python3 bench/record_reference.py [workload ...]

Runs each workload's commands once at its config's own sim seed and stores,
under ``bench/reference/<workload>/``: the solution arrays parsed from the
solve CSVs (``solution.npz``), the verify check statuses and the simstats
JSON files. The checked-in references were recorded from the seed code;
re-record only when an output change is intended, and say so.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import oracle
from workload import BENCH, COMMANDS, load_workloads


def record(name: str, spec: dict):
    from txsched import cli, load_config

    cfg_path = BENCH / "workloads" / spec["config"]
    raw = load_config(cfg_path).to_dict()
    dest = oracle.REFERENCE_DIR / name
    dest.mkdir(parents=True, exist_ok=True)
    out = Path(tempfile.mkdtemp())
    try:
        for cmd in spec["commands"]:
            args, _, _, policy = COMMANDS[cmd]
            rc = cli.main(args + ["--config", str(cfg_path), "--out", str(out), "--quiet"])
            if rc != 0:
                raise SystemExit(f"{name} {cmd}: exit code {rc}")
            if policy:
                shutil.copyfile(out / f"simstats_{policy}.json",
                                dest / f"simstats_{policy}.json")
        solver = raw["solver"]
        sol = oracle.read_solution(out, solver["tau_max"], solver["grid_n"],
                                   "c_stop" in raw["costs"])
        np.savez_compressed(dest / "solution.npz", **sol)
        (dest / "verify_statuses.json").write_text(
            json.dumps(oracle.verify_statuses(out)) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(out)


def main():
    specs = load_workloads()
    for name in sys.argv[1:] or specs:
        record(name, specs[name])
        print(f"recorded {oracle.REFERENCE_DIR / name}")


if __name__ == "__main__":
    main()
