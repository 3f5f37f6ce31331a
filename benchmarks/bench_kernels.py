"""Time the bitmask enumeration kernels.

Times the strong/girth filter over a contiguous code range (filter_range) and
over a fixed random batch of codes (filter_codes, the sampled-sweep path),
each in ns/code, the four per-graph primitives (closure, strongness by two
reach searches, strong components, girth) on the same batch,
verify.measure on the girth-4 survivors of the filter_range run, in us per
graph, and the seeded random-mode sweep of 50,000 codes at n=7 (the
perfbench sample-n7 input class) in wall seconds.  The last line is one JSON
row with the fields of a BENCH_kernels.json entry.

Usage:
    python benchmarks/bench_kernels.py [--n 6] [--codes 200000] [--batch 2000]
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import time

from arcconn import Digraph, _kernels, verify

SAMPLE_SEED = 1000  # run_sweep seed of the n=7 sample sweep


def _time(fn, repeat: int = 3) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_filter(run) -> tuple[float, tuple[int, int, list[int]]]:
    out = {}

    def once():
        out["res"] = run()

    took = _time(once)
    return took, out["res"]


def bench_primitives(n: int, batch: list[int]) -> dict[str, float]:
    decoded = [_kernels.decode_code(n, code) for code in batch]
    # pred masks are built outside the clock, as a Digraph holds them already.
    paired = [(succ, Digraph.from_code(n, code).pred) for succ, code in zip(decoded, batch)]
    times = {}
    times["closure"] = _time(lambda: [_kernels.reach_closure(succ, n) for succ in decoded])
    times["strong"] = _time(lambda: [_kernels.is_strong(succ, pred, n) for succ, pred in paired])
    times["scc"] = _time(lambda: [_kernels.scc_masks(succ, n) for succ in decoded])
    times["girth"] = _time(lambda: [_kernels.girth(succ, pred, n) for succ, pred in paired])
    return times


def bench_measure(n: int, codes: list[int], repeat: int = 3) -> float:
    """Best time of verify.measure over the graphs, each decoded afresh per
    round (a Digraph memoises its strongness, girth and girth cycles) and
    outside the clock."""
    best = float("inf")
    for _ in range(repeat):
        graphs = [Digraph.from_code(n, code) for code in codes]
        t0 = time.perf_counter()
        for D in graphs:
            verify.measure(D)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_sample_sweep(repeat: int = 3) -> float:
    """Best wall seconds of run_sweep in random mode at n=7, girth 4, 50,000
    codes with seed SAMPLE_SEED, one job, no output directory."""
    spec = verify.SweepSpec(n_lo=7, n_hi=7, mode="random", samples=50_000, seed=SAMPLE_SEED, jobs=1)
    return _time(lambda: verify.run_sweep(spec), repeat)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=6, help="vertex count (default 6)")
    parser.add_argument("--codes", type=int, default=200_000,
                        help="filter this many codes from 0 (default 200000)")
    parser.add_argument("--batch", type=int, default=2_000,
                        help="random graphs for the per-primitive timings")
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    universe = 3 ** (args.n * (args.n - 1) // 2)
    batch = [rng.randrange(universe) for _ in range(args.batch)]

    filters = {
        "range": bench_filter(lambda: _kernels.filter_range(args.n, 0, args.codes, 4, True)),
        "codes": bench_filter(lambda: _kernels.filter_codes(args.n, batch, 4, True)),
    }
    ns_per_code = {}
    for op, (took, (seen, strong, kept)) in filters.items():
        ns_per_code[op] = per = took / seen * 1e9
        print(f"filter_{op} {seen} codes at n={args.n}: {took:8.3f}s "
              f"({per:7.0f} ns/code; strong={strong}, girth-4={len(kept)})")
    for op, took in bench_primitives(args.n, batch).items():
        per = took / args.batch * 1e6
        print(f"{op:8s} {args.batch} graphs: {took:8.3f}s  ({per:7.2f} us/graph)")
    kept = filters["range"][1][2]
    if kept:
        took = bench_measure(args.n, kept)
        per = took / len(kept) * 1e6
        print(f"measure  {len(kept)} graphs: {took:8.3f}s  ({per:7.2f} us/graph)")
    sweep = bench_sample_sweep()
    print(f"sample sweep n=7, 50000 codes, seed {SAMPLE_SEED}: {sweep:8.3f}s")
    print(json.dumps({
        "backend": _kernels.backend_name(),
        "n": args.n,
        "jobs": 1,
        "python": platform.python_version(),
        "codes": args.codes,
        "batch": args.batch,
        "filter_range_ns_per_code": round(ns_per_code["range"], 1),
        "filter_codes_ns_per_code": round(ns_per_code["codes"], 1),
        "sample_n7_sweep_s": round(sweep, 4),
    }))


if __name__ == "__main__":
    main()
