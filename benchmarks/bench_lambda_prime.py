"""Time lambda_prime_exact per order: the walk, the one-arc pre-pass, the pair pass.

For each order, draws seeded strong oriented graphs of girth 4 by rejection
sampling (perfbench's draw_graph, as the params-large workload does), counts
the mix of their lambda' values under the library's own settings, and times
lambda_prime_exact (original reading) in us per graph three ways:

  walk       the candidate vertex sets alone, no pre-pass
  pre-pass   after the pass that lists the sets one arc cuts off
  pair-pass  after that pass and, when it finds none, the pass that lists
             the sets two arcs cut off (only on trees that have it)

Each column is timed on the GRAPHS graphs drawn first, and on a second
sample of HARD graphs with no cut of size 1 (lambda' >= 2, or no restricted
cut at all): the first such graphs in the same draw sequence, drawing on
past the first sample as needed.  These are the only graphs the pair pass
changes, and from order 8 up they are about one draw in twenty.  The library
runs the one-arc pass from connectivity._HOST_PREPASS_MIN_ORDER up and the
pair pass from connectivity._PAIR_PREPASS_MIN_ORDER up; these rows are the
evidence for both constants.  Each column's time is the median, with the
quartiles, of REPEATS runs, in reference us: perfbench's calibration probe
(perfbench.calibrate.Meter)
runs around each column and scales its raw time to a machine where the
probe takes its reference time.

Orders 6..16 get every column.  From order 20 up the walk takes seconds per
lambda' = 2 graph, so only the pair-pass column is timed there, and the mix
counts the graphs that lambda_prime_exact refuses (CapExceeded) as
"refused"; a refusal is timed up to the error.  Each graph's girth cycles
and strongness are computed before the clock starts, as a Digraph memoises
them and every caller of lambda' has them already.

Each row is printed as one JSON line and, with --out, appended to the rows
of that file (created if absent).  --orders picks the orders to time (all
of the above by default).  --tree labels the rows, e.g. with the commit
they time.

Usage:
    PYTHONPATH=src python benchmarks/bench_lambda_prime.py [--orders 6,7,8,9]
        [--tree LABEL] [--out BENCH_lambda_prime.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import statistics
import sys
from collections import Counter
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

from arcconn import (
    CapExceeded,
    Digraph,
    _kernels,
    connectivity,
    girth_cycles,
    lambda_prime_exact,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.calibrate import SHORT_ROUNDS, Meter  # noqa: E402
from perfbench.workloads import draw_graph  # noqa: E402

ORDERS = [*range(6, 17), *range(20, 25)]
WALK_MAX = 16  # the highest order whose walk and pre-pass columns are timed
GRAPHS = 40  # per order
HARD = 10  # graphs per order with no cut of size 1
DENSITY = 0.4  # probability of drawing each vertex pair
SEED = 2024
REPEATS = 9


def passes(n: int, unit: bool, pair: bool) -> ExitStack:
    """Patch the pass constants so that order n runs exactly the passes asked
    for; a constant the tree does not have is left out."""
    stack = ExitStack()
    for name, on in (("_HOST_PREPASS_MIN_ORDER", unit), ("_PAIR_PREPASS_MIN_ORDER", pair)):
        if hasattr(connectivity, name):
            stack.enter_context(mock.patch.object(connectivity, name, 0 if on else n + 1))
    return stack


def time_column(graphs: list[Digraph], meter: Meter, unit: bool, pair: bool) -> float:
    """Mean reference us per graph of lambda_prime_exact with the passes asked for."""
    with passes(graphs[0].n, unit, pair):
        meter.start()
        for D in graphs:
            try:
                lambda_prime_exact(D)
            except CapExceeded:
                pass
        _, ref = meter.lap()
    return ref / len(graphs) * 1e6


def lambda_prime_value(D: Digraph) -> str:
    """lambda'(D) under the library's own settings, or "refused"."""
    try:
        return str(lambda_prime_exact(D).value)
    except CapExceeded:
        return "refused"


def mix(values: list[str]) -> dict[str, int]:
    return dict(sorted(Counter(values).items()))


def draw(rng: random.Random, n: int) -> Digraph:
    succ = draw_graph(rng, n, DENSITY)
    D = Digraph(n, [(u, v) for u in range(n) for v in range(n) if succ[u] >> v & 1])
    D.is_strong()  # memoised on D, as for every caller
    girth_cycles(D)
    return D


def us_per_graph(graphs: list[Digraph], meter: Meter, columns: dict[str, tuple[bool, bool]]) -> dict:
    """Each column's mean reference us per graph over REPEATS runs, as the
    median and the quartiles of the runs."""
    runs: dict[str, list[float]] = {name: [] for name in columns}
    for _ in range(REPEATS):
        for name, (unit, pair) in columns.items():
            runs[name].append(time_column(graphs, meter, unit, pair))
    return {
        "median": {name: round(statistics.median(means), 1) for name, means in runs.items()},
        "quartiles": {
            name: [round(q, 1) for q in statistics.quantiles(means, n=4)[::2]]
            for name, means in runs.items()
        },
    }


def bench_order(n: int, meter: Meter) -> dict:
    rng = random.Random(SEED + n)
    graphs = [draw(rng, n) for _ in range(GRAPHS)]
    values = [lambda_prime_value(D) for D in graphs]
    hard = [(D, v) for D, v in zip(graphs, values) if v != "1"][:HARD]
    while len(hard) < HARD:
        D = draw(rng, n)
        v = lambda_prime_value(D)
        if v != "1":
            hard.append((D, v))
    columns = {"pair-pass": (True, True)} if hasattr(connectivity, "_PAIR_PREPASS_MIN_ORDER") else {}
    if n <= WALK_MAX:
        columns = {"walk": (False, False), "pre-pass": (True, False), **columns}
    return {
        "backend": _kernels.backend_name(),
        "python": platform.python_version(),
        "n": n,
        "graphs": GRAPHS,
        "lambda_prime_mix": mix(values),
        "us_per_graph_ref": us_per_graph(graphs, meter, columns),
        "hard_graphs": HARD,
        "hard_lambda_prime_mix": mix([v for _, v in hard]),
        "hard_us_per_graph_ref": us_per_graph([D for D, _ in hard], meter, columns),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--orders", default=",".join(map(str, ORDERS)),
                        help=f"comma-separated orders out of {', '.join(map(str, ORDERS))} (default all)")
    parser.add_argument("--tree", default="", help="label stored in each row")
    parser.add_argument("--out", help="JSON file whose rows the new rows are appended to")
    args = parser.parse_args()
    orders = args.orders.split(",")
    unknown = [order for order in orders if order not in map(str, ORDERS)]
    if unknown:
        parser.error(f"unknown order(s) {', '.join(unknown)}")
    print(f"passes from order {connectivity._HOST_PREPASS_MIN_ORDER} (one arc) and "
          f"{getattr(connectivity, '_PAIR_PREPASS_MIN_ORDER', 'none')} (pairs) in the library",
          file=sys.stderr)
    meter = Meter(SHORT_ROUNDS)
    rows = []
    for n in map(int, orders):
        row = {"tree": args.tree, **bench_order(n, meter)}
        print(json.dumps(row), flush=True)
        rows.append(row)
    if args.out:
        path = Path(args.out)
        data = json.loads(path.read_text()) if path.exists() else {
            "benchmark": "benchmarks/bench_lambda_prime.py",
            "rows": [],
        }
        data["rows"] += rows
        path.write_text(json.dumps(data, indent=2) + "\n")


if __name__ == "__main__":
    main()
