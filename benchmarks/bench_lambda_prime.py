"""Time lambda_prime_exact per order, with and without the one-arc pre-pass.

For each order, draws seeded strong oriented graphs of girth 4 by rejection
sampling, prints the mix of their lambda' values, and times
lambda_prime_exact (original reading) in us per graph twice: walking the
candidate vertex sets alone ("walk") and after the pre-pass that lists the
sets one arc cuts off ("pre-pass").  The library runs the pre-pass from
connectivity._HOST_PREPASS_MIN_ORDER up; near the crossover these columns
are a first guide, and the constant is settled on the end-to-end perfbench
workloads.  Each graph's girth cycles and strongness are computed before
the clock starts, as a Digraph memoises them and every caller of lambda'
has them already.

Usage:
    python benchmarks/bench_lambda_prime.py
"""

from __future__ import annotations

import random
import time
from collections import Counter
from unittest import mock

from arcconn import Digraph, connectivity, girth, girth_cycles, lambda_prime_exact

ORDERS = range(6, 17)
GRAPHS = 20  # per order
DENSITY = 0.4  # probability of drawing each vertex pair
SEED = 2024


def draw_graph(rng: random.Random, n: int) -> Digraph:
    """A strong oriented graph of girth exactly 4.

    Adds each vertex pair with probability DENSITY, in a random direction,
    unless the arc would close a directed triangle; rejects draws that are
    not strong or have no directed 4-cycle.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    while True:
        succ = [0] * n
        pred = [0] * n
        rng.shuffle(pairs)
        for i, j in pairs:
            if rng.random() >= DENSITY:
                continue
            u, v = (i, j) if rng.random() < 0.5 else (j, i)
            if succ[v] & pred[u]:
                continue  # v -> w -> u would close a triangle with u -> v
            succ[u] |= 1 << v
            pred[v] |= 1 << u
        D = Digraph(n, [(u, v) for u in range(n) for v in range(n) if succ[u] >> v & 1])
        if D.is_strong() and girth(D) == 4:
            return D


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
        graphs = [draw_graph(rng, n) for _ in range(GRAPHS)]
        for D in graphs:
            girth_cycles(D)  # memoised on D, as for every caller
        mix = Counter(lambda_prime_exact(D).value for D in graphs)
        walk = time_per_graph(graphs, n + 1)
        prepass = time_per_graph(graphs, 0)
        values = ", ".join(f"{value}: {count}" for value, count in sorted(mix.items(), key=str))
        print(f"n={n:2d} {len(graphs)} graphs  lambda' {{{values}}}  "
              f"walk {walk:10.1f} us/graph  pre-pass {prepass:10.1f} us/graph")


if __name__ == "__main__":
    main()
