"""Smoke test of the kernel benchmark script.

No other test runs the benchmark scripts, so a rename in the kernels could
break them unnoticed.  A tiny run must finish and end with a JSON row that
holds every field of the committed BENCH_kernels.json rows.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_kernels_runs_and_prints_a_full_row():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_kernels.py"), "--n", "5", "--codes", "2000", "--batch", "50"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    row = json.loads(run.stdout.strip().splitlines()[-1])
    assert isinstance(row, dict)
    committed = json.loads((ROOT / "BENCH_kernels.json").read_text())["rows"]
    keys = set().union(*committed) - {"tree", "round"}  # set when a row is committed
    assert keys <= row.keys(), sorted(keys - row.keys())
    assert row["n"] == 5 and row["codes"] == 2000 and row["batch"] == 50
