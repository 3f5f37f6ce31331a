"""Smoke tests of the benchmark scripts.

No other test runs the benchmark scripts, so a rename in the package could
break them unnoticed.  A tiny run must finish and end with a JSON row that
holds every field of the rows committed in the script's BENCH_*.json.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _last_row(script: str, *args: str) -> dict:
    """The JSON object on the last line a benchmark script prints."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    row = json.loads(run.stdout.strip().splitlines()[-1])
    assert isinstance(row, dict)
    return row


def _committed_rows(name: str) -> list[dict]:
    return json.loads((ROOT / name).read_text())["rows"]


def test_bench_kernels_runs_and_prints_a_full_row():
    row = _last_row("bench_kernels.py", "--n", "5", "--codes", "2000", "--batch", "50")
    keys = set().union(*_committed_rows("BENCH_kernels.json")) - {"tree", "round"}  # set when a row is committed
    assert keys <= row.keys(), sorted(keys - row.keys())
    assert row["n"] == 5 and row["codes"] == 2000 and row["batch"] == 50


def test_bench_kernels_skips_filter_range_above_its_cap():
    row = _last_row("bench_kernels.py", "--n", "8", "--codes", "2000", "--batch", "50")
    assert row["filter_range_ns_per_code"] is None and row["filter_range_ns_per_code_ref"] is None
    assert row["filter_codes_ns_per_code"] > 0 and row["n"] == 8


def test_bench_sweep_runs_and_prints_a_full_row():
    row = _last_row("bench_sweep.py", "--runs", "n5")
    committed = _committed_rows("BENCH_sweep.json")
    keys = set().union(*committed) - {"round"}  # set when a row is committed
    assert keys <= row.keys(), sorted(keys - row.keys())
    for nested in ("layers_s_ref", "counts"):
        inner = set().union(*(r[nested] for r in committed))
        assert inner <= row[nested].keys(), (nested, sorted(inner - row[nested].keys()))
    assert row["run"] == "n5" and row["stratum"] == 300 and row["ok"] is True


def test_bench_lambda_prime_runs_and_prints_a_full_row():
    row = _last_row("bench_lambda_prime.py", "--orders", "6")
    committed = _committed_rows("BENCH_lambda_prime.json")
    keys = set().union(*committed) - {"round"}  # set when a row is committed
    assert keys <= row.keys(), sorted(keys - row.keys())
    for timed in ("us_per_graph_ref", "hard_us_per_graph_ref"):
        for stat in ("median", "quartiles"):
            columns = set().union(*(r[timed][stat] for r in committed if r["n"] == 6))
            assert columns <= row[timed][stat].keys(), (timed, stat, sorted(columns - row[timed][stat].keys()))
    assert row["n"] == 6 and sum(row["lambda_prime_mix"].values()) == row["graphs"]
    assert sum(row["hard_lambda_prime_mix"].values()) == row["hard_graphs"]
