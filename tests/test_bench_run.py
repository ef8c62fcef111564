"""The benchmark runs end to end on this checkout: every output of every
workload matches the recorded reference. An artifact change that the
benchmark would count as incorrect fails here first."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_workload_is_correct():
    # about 7 s; it writes only under .bench_results/ and .bench_work/
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "all", "--seconds", "1"],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (summary["correct"], summary["failed"]) == (True, 0), summary
    assert proc.returncode == 0
