"""Time the bitmask enumeration kernels.

Times the strong/girth filter over seeded whole vertex-1 groups of
3**(2n-3) consecutive codes, the 3**(n-2) blocks that share D - {0, 1}
(filter_range; the groups are drawn at random, about --codes codes in all,
so that D - {0, 1} is as varied as in a census, whose chunks hold whole
groups; single blocks would mostly time each group's setup) and
over a fixed random batch of codes (filter_codes, the sampled-sweep path,
which judges 4,096 codes at a time in bit lanes), each in ns/code, the
per-graph primitives on the same batch, one graph at a time (decode_code,
strongness by two reach searches, strong components by
_kernels.strong_parts over the full vertex mask, girth), in us per graph,
verify.measure on the girth-4 survivors of the filter_range run, in us per
graph, and the seeded random-mode sweep of 50,000 codes at n=7 (the
perfbench sample-n7 input class) in wall seconds.  The last line is one JSON
row with the fields of a BENCH_kernels.json entry.

filter_range takes orders up to _kernels.RANGE_MAX_ORDER.  Above it the
filter_range run is skipped, its row keys are null, and verify.measure is
timed on the girth-4 survivors of the filter_codes run instead.

Every figure is the best of three repetitions, printed twice: in raw
seconds and in reference seconds.  perfbench's calibration probe
(perfbench.calibrate.Meter) runs between repetitions and scales each one
to a machine where the probe takes its reference time, so rows taken under
different host loads can be compared; the JSON keys ending in "_ref" hold
those figures.

Usage:
    PYTHONPATH=src python benchmarks/bench_kernels.py [--n 6] [--codes 200000] [--batch 2000]
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
from pathlib import Path

from arcconn import Digraph, _kernels, verify

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.calibrate import Meter  # noqa: E402

SAMPLE_SEED = 1000  # run_sweep seed of the n=7 sample sweep

Times = tuple[float, float]  # best (raw seconds, reference seconds)


def _time(fn, repeat: int = 3, setup=None) -> Times:
    """Best raw and best reference seconds of fn over repeat Meter segments;
    setup runs before each one, off the clock, and its value is fn's argument."""
    meter = Meter()
    raw = ref = float("inf")
    for _ in range(repeat):
        args = () if setup is None else (setup(),)
        meter.start()
        fn(*args)
        took, scaled = meter.lap()
        raw, ref = min(raw, took), min(ref, scaled)
    return raw, ref


def bench_filter(run) -> tuple[Times, tuple[int, int, list[int]]]:
    out = {}

    def once():
        out["res"] = run()

    took = _time(once)
    return took, out["res"]


def range_groups(rng: random.Random, n: int, codes: int) -> list[int]:
    """The first codes of whole vertex-1 groups drawn at random without
    repeats, ascending: round(codes / 3**(2n-3)) groups, at least one."""
    size = 3 ** (2 * n - 3)
    groups = _kernels.universe_size(n) // size
    count = min(groups, max(1, round(codes / size)))
    return [size * g for g in sorted(rng.sample(range(groups), count))]


def filter_groups(n: int, bases: list[int]) -> tuple[int, int, list[int]]:
    """filter_range, girth 4, over each whole group from bases, summed."""
    size = 3 ** (2 * n - 3)
    seen = strong = 0
    kept: list[int] = []
    for base in bases:
        s, k, survivors = _kernels.filter_range(n, base, base + size, 4)
        seen, strong = seen + s, strong + k
        kept += survivors
    return seen, strong, kept


def bench_primitives(n: int, batch: list[int]) -> dict[str, Times]:
    paired = [_kernels.decode_code(n, code) for code in batch]
    times = {}
    times["decode"] = _time(lambda: [_kernels.decode_code(n, code) for code in batch])
    times["strong"] = _time(lambda: [_kernels.is_strong(succ, pred, n) for succ, pred in paired])
    full = (1 << n) - 1
    times["scc"] = _time(lambda: [_kernels.strong_parts(succ, pred, full) for succ, pred in paired])
    times["girth"] = _time(lambda: [_kernels.girth(succ, pred, n) for succ, pred in paired])
    return times


def bench_measure(n: int, codes: list[int], repeat: int = 3) -> Times:
    """Best time of verify.measure over the graphs, each decoded afresh per
    round (a Digraph memoises its strongness, girth and girth cycles) and
    outside the clock."""

    def fresh():
        return [Digraph.from_code(n, code) for code in codes]

    def run(graphs):
        for D in graphs:
            verify.measure(D)

    return _time(run, repeat, setup=fresh)


def bench_sample_sweep(repeat: int = 3) -> Times:
    """Best wall seconds of run_sweep in random mode at n=7, girth 4, 50,000
    codes with seed SAMPLE_SEED, one job, no output directory."""
    spec = verify.SweepSpec(n_lo=7, n_hi=7, mode="random", samples=50_000, seed=SAMPLE_SEED, jobs=1)
    return _time(lambda: verify.run_sweep(spec), repeat)


def _round(value, digits):
    """round, passing None (a skipped run) through."""
    return None if value is None else round(value, digits)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=6, help="vertex count (default 6)")
    parser.add_argument("--codes", type=int, default=200_000,
                        help="filter about this many codes, in whole random groups (default 200000)")
    parser.add_argument("--batch", type=int, default=2_000,
                        help="random graphs for the per-primitive timings")
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    universe = _kernels.universe_size(args.n)
    batch = [rng.randrange(universe) for _ in range(args.batch)]

    filters = {}
    if args.n <= _kernels.RANGE_MAX_ORDER:
        bases = range_groups(rng, args.n, args.codes)
        filters["range"] = bench_filter(lambda: filter_groups(args.n, bases))
    else:
        print(f"filter_range skipped: n={args.n} is above RANGE_MAX_ORDER = {_kernels.RANGE_MAX_ORDER}")
    filters["codes"] = bench_filter(lambda: _kernels.filter_codes(args.n, batch, 4))
    ns_per_code, seen_codes = {"range": (None, None)}, {"range": None}
    for op, ((raw, ref), (seen, strong, kept)) in filters.items():
        ns_per_code[op], seen_codes[op] = (raw / seen * 1e9, ref / seen * 1e9), seen
        print(f"filter_{op} {seen} codes at n={args.n}: {raw:8.3f}s raw {ref:8.3f}s ref "
              f"({ns_per_code[op][0]:7.0f} raw {ns_per_code[op][1]:7.0f} ref ns/code; "
              f"strong={strong}, girth-4={len(kept)})")
    us_per_graph = {}
    for op, (raw, ref) in bench_primitives(args.n, batch).items():
        us_per_graph[op] = (raw / args.batch * 1e6, ref / args.batch * 1e6)
        print(f"{op:8s} {args.batch} graphs: {raw:8.3f}s raw {ref:8.3f}s ref "
              f"({us_per_graph[op][0]:7.2f} raw {us_per_graph[op][1]:7.2f} ref us/graph)")
    kept = filters.get("range", filters["codes"])[1][2]
    if kept:
        raw, ref = bench_measure(args.n, kept)
        print(f"measure  {len(kept)} graphs: {raw:8.3f}s raw {ref:8.3f}s ref "
              f"({raw / len(kept) * 1e6:7.2f} raw {ref / len(kept) * 1e6:7.2f} ref us/graph)")
    sweep, sweep_ref = bench_sample_sweep()
    print(f"sample sweep n=7, 50000 codes, seed {SAMPLE_SEED}: {sweep:8.3f}s raw {sweep_ref:8.3f}s ref")
    print(json.dumps({
        "backend": _kernels.backend_name(),
        "n": args.n,
        "jobs": 1,
        "python": platform.python_version(),
        "codes": args.codes,
        "batch": args.batch,
        "range_codes": seen_codes["range"],
        "filter_range_ns_per_code": _round(ns_per_code["range"][0], 1),
        "filter_codes_ns_per_code": round(ns_per_code["codes"][0], 1),
        "decode_us_per_code": round(us_per_graph["decode"][0], 2),
        "sample_n7_sweep_s": round(sweep, 4),
        "filter_range_ns_per_code_ref": _round(ns_per_code["range"][1], 1),
        "filter_codes_ns_per_code_ref": round(ns_per_code["codes"][1], 1),
        "decode_us_per_code_ref": round(us_per_graph["decode"][1], 2),
        "sample_n7_sweep_s_ref": round(sweep_ref, 4),
    }))


if __name__ == "__main__":
    main()
