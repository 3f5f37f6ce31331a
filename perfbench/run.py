"""Time-to-verdict benchmark for the arcconn verifier.

    python3 perfbench/run.py --workload census-n6 --seed 1 --seconds 30 --trace 0

Runs one workload (census-n6, sample-n7, params-large) through arcconn's
public API from the source tree next to this directory, judges every
output, and prints each metric by name with its unit.  The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones (untraced); with --trace 1
untraced and traced repetitions alternate over the same inputs and the
metrics are the per-layer ones.  Exits 1 when any output is wrong and 2
when the arcconn sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

SETUP_IMPORTS = 15  # fresh-process imports per run, spread over it; setup_s is their median
MIN_LATENCY_SAMPLES = 200  # per run, so that at least ten samples lie beyond p95
GROUP_SAMPLES = 1000  # latency samples per group of consecutive repetitions

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import arcconn\n"
    "print(repr(time.perf_counter() - t0), arcconn.backend_name())\n"
)


def import_seconds() -> float:
    """Wall time of `import arcconn` (with backend selection) in a fresh process."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        check=True, capture_output=True, text=True, timeout=60,
    ).stdout.split()
    return float(out[0])


def labels(args: argparse.Namespace) -> dict:
    import arcconn

    backend = arcconn.backend_name()
    reason = None
    if backend != "fast":
        if os.environ.get("ARCCONN_PURE"):
            reason = "ARCCONN_PURE is set"
        else:
            try:
                importlib.import_module("arcconn._fastcore")
            except ImportError as exc:
                reason = f"ImportError: {exc}"
    digest = hashlib.sha256()
    for path in sorted((SRC / "arcconn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except OSError:
            commit = "unknown (git not available)"
    return {
        "workload": args.workload,
        "backend": backend,
        "backend_reason": reason,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "jobs": 1,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, min(len(sorted_values) - 1, round(q * len(sorted_values) + 0.5) - 1))
    return sorted_values[k]


def run_untraced(work, seconds: float) -> tuple[dict, list, list[str]]:
    """Repeat the workload for `seconds`, in whole passes over its inputs.

    The fresh-process imports are spread over the same span, so that other
    load on the machine weighs on setup_s as much as on the workload.
    """
    from perfbench.calibrate import SHORT_ROUNDS, Meter

    meter, import_meter = Meter(work.probe_rounds), Meter(SHORT_ROUNDS)
    reps, setup = [], []
    samples = 0
    import_seconds()  # writes the bytecode cache, which users pay once
    t0 = time.perf_counter()
    t_end = t0 + seconds
    while (not reps or time.perf_counter() < t_end or samples < MIN_LATENCY_SAMPLES
           or len(reps) % work.reps_per_pass):
        while len(setup) < SETUP_IMPORTS and time.perf_counter() >= t0 + len(setup) * seconds / SETUP_IMPORTS:
            setup.append(_scaled_import(import_meter))
        rep = work.rep(len(reps), meter)
        reps.append(rep)
        samples += len(rep.latencies_s)
    while len(setup) < SETUP_IMPORTS:
        setup.append(_scaled_import(import_meter))
    groups = latency_groups(reps)
    p50 = statistics.median(percentile(g, 0.50) for g in groups)
    p95 = statistics.median(percentile(g, 0.95) for g in groups)
    walls = [r.wall_s for r in reps]
    notes = [
        f"wall_s from {len(walls)} repetitions: quartiles " + _fmt(_quartiles(walls))
        + f"; unscaled median {statistics.median(r.raw_wall_s for r in reps):.4f} s",
        f"latency from {samples} samples in {len(groups)} groups of consecutive "
        f"repetitions, at least {min(len(g) for g in groups)} samples per group",
        f"setup_s from {len(setup)} fresh-process imports: quartiles " + _fmt(_quartiles(setup)),
    ]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "latency_ms_p50": (p50 * 1e3, "ms"),
        "latency_ms_p95": (p95 * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return metrics, reps, notes


def latency_groups(reps) -> list[list[float]]:
    """Latencies of consecutive repetitions, sorted, in groups of at least
    GROUP_SAMPLES (a short remainder joins the last group).

    Percentiles are taken per group and their median is reported, so that a
    burst of load during one group moves the result no more than the median.
    """
    groups: list[list[float]] = []
    current: list[float] = []
    for rep in reps:
        current += rep.latencies_s
        if len(current) >= GROUP_SAMPLES:
            groups.append(sorted(current))
            current = []
    if current:
        if groups:
            groups[-1] = sorted(groups[-1] + current)
        else:
            groups.append(sorted(current))
    return groups


def _scaled_import(meter) -> float:
    meter.start()
    took = import_seconds()
    raw, ref = meter.lap()
    return took * ref / raw


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def _fmt(values: list[float]) -> str:
    return ", ".join(f"{v:.4f}" for v in values)


def run_traced(work, seconds: float) -> tuple[dict, list, list[str]]:
    """Alternate untraced and traced repetitions over the same inputs."""
    from perfbench import tracer as tr
    from perfbench.calibrate import Meter
    from perfbench.workloads import ParamsLarge, params_one

    tracer = tr.Tracer()
    meter = Meter(work.probe_rounds)

    def traced_rep(i: int):
        with tracer.installed():
            if isinstance(work, ParamsLarge):
                return work.rep(i, meter, latencies=False, one=tracer.wrap("bench.graph", params_one))
            return work.rep(i, meter, latencies=False)

    untraced, traced = [], []
    t_end = time.perf_counter() + seconds
    while not traced or time.perf_counter() < t_end or len(traced) % work.reps_per_pass:
        i = len(traced)
        # Alternate which pass runs first, so that warm-up favours neither.
        if i % 2:
            untraced.append(work.rep(i, meter, latencies=False))
        traced.append(traced_rep(i))
        if not i % 2:
            untraced.append(work.rep(i, meter, latencies=False))
    values = tr.layer_metrics(
        tracer,
        [r.raw_wall_s for r in traced],
        artifact_bytes=statistics.mean(r.artifact_bytes for r in traced),
        overhead_frac=statistics.median(r.wall_s for r in traced)
        / statistics.median(r.wall_s for r in untraced) - 1.0,
        scale=sum(r.wall_s for r in traced) / sum(r.raw_wall_s for r in traced),
    )
    WORKDIR.mkdir(exist_ok=True)
    spans_path = WORKDIR / f"spans-{work.name}.csv.gz"
    count = tracer.write(str(spans_path))
    notes = [f"{len(traced)} traced repetitions, {count} spans written to {spans_path.relative_to(ROOT)}"]
    if tracer.missing:
        notes.append("patch points absent: " + ", ".join(sorted(set(tracer.missing))))
    metrics = {name: (value, tr.LAYER_UNITS[name]) for name, value in values.items()}
    return metrics, untraced + traced, notes


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="arcconn time-to-verdict benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("label " + json.dumps(labels(args), sort_keys=True))
    work = WORKLOADS[args.workload](args.seed, WORKDIR)
    print(f"input {work.describe()}")
    if args.trace:
        metrics, reps, notes = run_traced(work, args.seconds)
    else:
        metrics, reps, notes = run_untraced(work, args.seconds)
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    for note in notes:
        print(f"note {note}")
    for problem in sorted({p for r in reps for p in r.problems}):
        print(f"FAIL {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_frac {failed / attempted:.6g} ratio ({failed} of {attempted} outputs wrong)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _bootstrap() -> int:
    if not (SRC / "arcconn" / "__init__.py").is_file():
        print(f"error: arcconn sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import arcconn

    if Path(arcconn.__file__).resolve().parent != SRC / "arcconn":
        print(f"error: imported arcconn from {arcconn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return main()


if __name__ == "__main__":
    sys.exit(_bootstrap())
