"""Time whole sweeps, end to end and layer by layer, as BENCH_sweep.json rows.

Runs, each with one job:

  n5          the exhaustive n=5 sweep
  n6          the exhaustive n=6 sweep
  n6-proof    the exhaustive n=6 sweep with proof cuts (the census run)
  n6-proof-out  n6-proof with an output directory: the checkpoint, records.csv,
              counterexamples.d6 and summary.json are written inside the
              timing, into a temporary directory removed after it
  n6-random   the seeded n=6 random fallback: 10^6 codes, seed 20260815

Each run is made REPEATS times untraced and once traced.  The untraced
runs give the whole-sweep wall seconds, raw and at reference speed, as
their medians: perfbench's calibration probe (perfbench.calibrate.Meter)
runs before and after each of them and scales its raw time to a machine
where the probe takes its reference time, so rows taken under different
host loads can be compared.  The traced run, under perfbench.tracer, gives
each layer's self seconds, scaled the same way, plus the tracer's call
counts.  Every run must give the same stratum, family counts and clause
tallies.  A row's artifact_bytes is the size of the files the traced run
wrote, 0 for a run without output.

Each row is printed as one JSON line and, with --out, appended to the rows
of that file (created if absent).  --tree labels the rows, e.g. with the
commit they time.

Usage:
    PYTHONPATH=src python benchmarks/bench_sweep.py [--runs n5,n6,n6-proof,n6-random]
        [--tree LABEL] [--out BENCH_sweep.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path

import arcconn
from arcconn import SweepSpec, _kernels

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.calibrate import Meter  # noqa: E402
from perfbench.tracer import SELF_TIME_METRICS, Tracer, layer_metrics  # noqa: E402

REPEATS = 3  # untraced runs per row

RUNS = {
    "n5": SweepSpec(n_lo=5, n_hi=5),
    "n6": SweepSpec(n_lo=6, n_hi=6),
    "n6-proof": SweepSpec(n_lo=6, n_hi=6, check_proof_cuts=True),
    "n6-proof-out": SweepSpec(n_lo=6, n_hi=6, check_proof_cuts=True),
    "n6-random": SweepSpec(n_lo=6, n_hi=6, mode="random", samples=10**6, seed=20_260_815),
}
# The runs that write their artifacts.
WRITES = {"n6-proof-out"}

# Tracer counts kept in a row beside the layer seconds.
COUNTS = (
    "kernels.codes",
    "kernels.survivors",
    "digraph.decode_calls",
    "families.match_calls",
    "connectivity.proof_candidates",
    "connectivity.cut_checks",
)


def _outcome(result) -> dict:
    return {
        "seen": result.seen,
        "stratum": result.stratum,
        "family_counts": dict(result.family_counts),
        "clause_tallies": result.clause_tallies,
        "ok": result.ok,
    }


def _out_dir(name: str):
    """A context giving the run's output directory: a new temporary one,
    removed on exit, for a run in WRITES, else None."""
    return tempfile.TemporaryDirectory(prefix="bench_sweep-") if name in WRITES else nullcontext()


def bench_run(name: str) -> dict:
    """One row: the run untraced REPEATS times, then traced once."""
    spec = RUNS[name]
    meter = Meter()
    walls = []
    outcomes = []
    for _ in range(REPEATS):
        with _out_dir(name) as out:
            meter.start()
            result = arcconn.run_sweep(spec, out_dir=out)
            walls.append(meter.lap())
        outcomes.append(_outcome(result))
    raw = statistics.median(w[0] for w in walls)
    ref = statistics.median(w[1] for w in walls)
    tracer = Tracer()
    with _out_dir(name) as out, tracer.installed():
        meter.start()
        # Looked up at call time, so that the tracer's patch is seen.
        traced = arcconn.run_sweep(spec, out_dir=out)
        traced_raw, traced_ref = meter.lap()
        artifact_bytes = sum(path.stat().st_size for path in Path(out).iterdir()) if out else 0
    outcomes.append(_outcome(traced))
    if any(outcome != outcomes[0] for outcome in outcomes):
        raise SystemExit(f"{name}: the sweeps of one row disagree")
    layers = layer_metrics(tracer, [traced_raw], artifact_bytes, traced_ref / ref - 1, traced_ref / traced_raw)
    return {
        "run": name,
        "backend": _kernels.backend_name(),
        "n": spec.n_lo,
        "mode": spec.mode,
        "proof_cuts": spec.check_proof_cuts,
        "jobs": spec.jobs,
        "python": platform.python_version(),
        "wall_s": round(raw, 3),
        "wall_s_ref": round(ref, 3),
        "wall_s_ref_runs": [round(w[1], 3) for w in walls],
        "stratum": result.stratum,
        "ok": result.ok,
        "artifact_bytes": artifact_bytes,
        "layers_s_ref": {metric: round(layers[metric], 4) for metric in SELF_TIME_METRICS.values()},
        "counts": {key: layers[key] for key in COUNTS},
        "trace_overhead_frac": round(layers["trace.overhead_frac"], 3),
        "trace_accounted_frac": round(layers["trace.accounted_frac"], 3),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", default=",".join(RUNS),
                        help=f"comma-separated runs out of {', '.join(RUNS)} (default all)")
    parser.add_argument("--tree", default="", help="label stored in each row")
    parser.add_argument("--out", help="JSON file whose rows the new rows are appended to")
    args = parser.parse_args()
    names = args.runs.split(",")
    unknown = [name for name in names if name not in RUNS]
    if unknown:
        parser.error(f"unknown run(s) {', '.join(unknown)}")

    rows = []
    for name in names:
        row = {"tree": args.tree, **bench_run(name)}
        print(json.dumps(row), flush=True)
        rows.append(row)
    if args.out:
        path = Path(args.out)
        data = json.loads(path.read_text()) if path.exists() else {
            "benchmark": "benchmarks/bench_sweep.py",
            "rows": [],
        }
        data["rows"] += rows
        path.write_text(json.dumps(data, indent=2) + "\n")


if __name__ == "__main__":
    main()
