"""Compare the compiled and pure-Python enumeration kernels.

Times the strong/girth filter over a contiguous code range (filter_range) and
over a fixed random batch of codes (filter_codes, the sampled-sweep path),
each in ns/code, and the three per-graph primitives (closure, strong
components, girth) on the same batch, then prints one row per backend with
the speedup.

Usage:
    python benchmarks/bench_kernels.py [--n 6] [--codes 200000] [--batch 2000]
"""

from __future__ import annotations

import argparse
import random
import time

from arcconn import _purecore

try:
    from arcconn import _fastcore
except ImportError:
    _fastcore = None


def _time(fn, repeat: int = 3) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_filter(run) -> tuple[float, tuple[int, int, int]]:
    out = {}

    def once():
        seen, strong, kept = run()
        out["res"] = (seen, strong, len(kept))

    took = _time(once)
    return took, out["res"]


def bench_primitives(mod, n: int, batch: list[int]) -> dict[str, float]:
    decoded = [mod.decode_code(n, code) for code in batch]
    times = {}
    times["closure"] = _time(lambda: [mod.reach_closure(succ, n) for succ in decoded])
    times["scc"] = _time(lambda: [mod.scc_masks(succ, n) for succ in decoded])
    times["girth"] = _time(lambda: [mod.girth(succ, n) for succ in decoded])
    return times


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

    backends = [("pure", _purecore)]
    if _fastcore is not None:
        backends.append(("fast", _fastcore))
    else:
        print("compiled backend not built; showing pure only")

    results = {}
    for name, mod in backends:
        filters = {
            "range": bench_filter(lambda: mod.filter_range(args.n, 0, args.codes, 4, True)),
            "codes": bench_filter(lambda: mod.filter_codes(args.n, batch, 4, True)),
        }
        prim = bench_primitives(mod, args.n, batch)
        results[name] = ({op: took for op, (took, _) in filters.items()}, prim)
        for op, (took, counts) in filters.items():
            per = took / counts[0] * 1e9
            print(f"{name:5s} filter_{op} {counts[0]} codes at n={args.n}: {took:8.3f}s "
                  f"({per:7.0f} ns/code; strong={counts[1]}, girth-4={counts[2]})")
        for op, took in prim.items():
            per = took / args.batch * 1e6
            print(f"      {op:8s} {args.batch} graphs: {took:8.3f}s  ({per:7.2f} us/graph)")

    if len(results) == 2:
        pure_f, pure_p = results["pure"]
        fast_f, fast_p = results["fast"]
        for op in pure_f:
            print(f"speedup filter_{op}: {pure_f[op] / fast_f[op]:6.1f}x")
        for op in pure_p:
            print(f"speedup {op:8s}: {pure_p[op] / fast_p[op]:6.1f}x")


if __name__ == "__main__":
    main()
