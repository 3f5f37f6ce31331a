"""Time lambda_prime_exact per order, with and without the one-arc pre-pass.

For each order, draws seeded strong oriented graphs of girth 4 by rejection
sampling (perfbench's draw_graph, as the params-large workload does), prints the mix of their lambda' values, and times
lambda_prime_exact (original reading) in us per graph twice: walking the
candidate vertex sets alone ("walk") and after the pre-pass that lists the
sets one arc cuts off ("pre-pass").  The library runs the pre-pass from
connectivity._HOST_PREPASS_MIN_ORDER up; near the crossover these columns
are a first guide, and the constant is settled on the end-to-end perfbench
workloads.  Each graph's girth cycles and strongness are computed before
the clock starts, as a Digraph memoises them and every caller of lambda'
has them already.

Usage:
    PYTHONPATH=src python benchmarks/bench_lambda_prime.py
"""

from __future__ import annotations

import random
import sys
import time
from collections import Counter
from pathlib import Path
from unittest import mock

from arcconn import Digraph, connectivity, girth_cycles, lambda_prime_exact

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.workloads import draw_graph  # noqa: E402

ORDERS = range(6, 17)
GRAPHS = 20  # per order
DENSITY = 0.4  # probability of drawing each vertex pair
SEED = 2024


def time_per_graph(graphs: list[Digraph], prepass_from: int) -> float:
    """Mean us per graph of lambda_prime_exact with the pre-pass from that order."""
    with mock.patch.object(connectivity, "_HOST_PREPASS_MIN_ORDER", prepass_from):
        t0 = time.perf_counter()
        for D in graphs:
            lambda_prime_exact(D)
        took = time.perf_counter() - t0
    return took / len(graphs) * 1e6


def main() -> None:
    rng = random.Random(SEED)
    print(f"pre-pass from order {connectivity._HOST_PREPASS_MIN_ORDER} in the library")
    for n in ORDERS:
        graphs = []
        for _ in range(GRAPHS):
            succ = draw_graph(rng, n, DENSITY)
            graphs.append(Digraph(n, [(u, v) for u in range(n) for v in range(n) if succ[u] >> v & 1]))
        for D in graphs:
            D.is_strong()  # memoised on D, as for every caller
            girth_cycles(D)
        mix = Counter(lambda_prime_exact(D).value for D in graphs)
        walk = time_per_graph(graphs, n + 1)
        prepass = time_per_graph(graphs, 0)
        values = ", ".join(f"{value}: {count}" for value, count in sorted(mix.items(), key=str))
        print(f"n={n:2d} {len(graphs)} graphs  lambda' {{{values}}}  "
              f"walk {walk:10.1f} us/graph  pre-pass {prepass:10.1f} us/graph")


if __name__ == "__main__":
    main()
