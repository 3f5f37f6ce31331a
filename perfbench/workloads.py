"""The benchmark's three workloads, their seeded inputs and correctness gates.

Every workload runs in this process with jobs=1 (the reference machine has
two cores, so parallel scaling is out of scope) and is measured in
repetitions: ``rep(i, meter)`` runs one unit of work through arcconn's
public API, times it from the call into the entry point until the result
returns, converts the time to reference seconds with the meter's probes
(see calibrate), and judges every output.  A repetition's inputs depend only
on the seed and i.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import arcconn
from arcconn import verify

from perfbench.calibrate import FULL_ROUNDS, SHORT_ROUNDS, Meter

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
CHUNKS_PER_SLICE = 9  # census-n6 chunks of 3^10 codes, each timed between probes


@dataclass
class Rep:
    """One repetition's times, in reference seconds (see calibrate), and verdicts."""

    wall_s: float
    raw_wall_s: float
    latencies_s: list[float]
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    artifact_bytes: int = 0


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="ascii") as fh:
        return json.load(fh)


@contextmanager
def timed_calls(owner: object, attr: str, sink: list[float]) -> Iterator[None]:
    """Append the duration of every call made through owner.attr to sink."""
    fn = getattr(owner, attr)
    clock = time.perf_counter

    def timed(*args, **kwargs):
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(clock() - t0)

    setattr(owner, attr, timed)
    try:
        yield
    finally:
        setattr(owner, attr, fn)


def _timed_sweep(meter: Meter, latencies: bool, spec, out_dir=None):
    """run_sweep(spec) timed; returns (result, wall, raw wall, latencies).

    With latencies, every check_graph call is timed, and a probe runs in the
    progress callback after every chunk, so that each chunk is scaled by the
    probes on either side.  Traced runs pass latencies=False: their spans
    must not contain probes.
    """
    sink: list[float] = []
    lat: list[float] = []
    walls = []

    def lap() -> None:
        raw, ref = meter.lap()
        walls.append((raw, ref))
        lat.extend(x * ref / raw for x in sink)
        sink.clear()

    def progress(message: str) -> None:
        if message.startswith("chunk "):
            lap()

    with timed_calls(verify, "check_graph", sink) if latencies else nullcontext():
        meter.start()
        result = arcconn.run_sweep(spec, out_dir=out_dir, progress=progress if latencies else None)
        lap()
    return result, sum(ref for _, ref in walls), sum(raw for raw, _ in walls), lat


def _sweep_gate(result) -> list[str]:
    """Seed-independent invariants every sweep must hold."""
    problems = []
    if not result.completed:
        problems.append("sweep did not complete")
    if result.counterexamples:
        problems.append(f"{len(result.counterexamples)} counterexample(s)")
    if result.accounting_ok is not True:
        problems.append("accounting: stratum != family + lambda'-connected")
    if len(result.records) != result.stratum:
        problems.append(f"{len(result.records)} records for a stratum of {result.stratum}")
    return problems


def census_gate(result, records_sha256: str, ref: dict) -> list[str]:
    """Seed-independent invariants plus the slice's pinned reference."""
    problems = _sweep_gate(result)
    for key in ("seen", "strong", "stratum", "lambda_prime_connected"):
        if getattr(result, key) != ref[key]:
            problems.append(f"{key} {getattr(result, key)} != reference {ref[key]}")
    if dict(result.family_counts) != ref["family_counts"]:
        problems.append(f"family counts {dict(result.family_counts)} != reference {ref['family_counts']}")
    if result.clause_tallies != ref["clause_tallies"]:
        problems.append("clause tallies differ from the reference")
    if records_sha256 != ref["records_sha256"]:
        problems.append("records.csv digest differs from the reference")
    return problems


class CensusN6:
    """Exhaustive n=6 sweep with proof cuts and artifacts over one code slice.

    The full census takes minutes on the pure backend, so a run sweeps one
    contiguous slice of 3^12 codes: the codes whose three most significant
    trits (the vertex pairs within {3, 4, 5}) are fixed.  The seed picks one
    of the six slices where exactly one arc joins those vertices.  Relabeling
    {3, 4, 5} maps these six slices onto each other graph by graph, so they
    hold isomorphic stratum graphs and equal counts, and every seed measures
    the same amount of work.
    """

    name = "census-n6"
    reps_per_pass = 1
    probe_rounds = FULL_ROUNDS

    def __init__(self, seed: int, workdir: Path) -> None:
        reference = load_reference()["census_n6"]
        self.slice_codes = reference["slice_codes"]
        self.slice_index = reference["symmetric_slices"][seed % len(reference["symmetric_slices"])]
        self.ref = reference["slices"][str(self.slice_index)]
        self.out_dir = workdir / f"census-n6-{os.getpid()}"

    def describe(self) -> str:
        lo = self.slice_index * self.slice_codes
        return (f"n=6 codes [{lo}, {lo + self.slice_codes}) (slice {self.slice_index}) in "
                f"{CHUNKS_PER_SLICE} chunks, proof cuts, artifacts")

    @contextmanager
    def _only_slice(self) -> Iterator[None]:
        # run_sweep has no code-range argument: keep the planned chunks
        # that make up this slice.
        plan = verify._plan_chunks
        lo = self.slice_index * CHUNKS_PER_SLICE

        def plan_slice(spec):
            return plan(spec)[lo : lo + CHUNKS_PER_SLICE]

        verify._plan_chunks = plan_slice
        try:
            yield
        finally:
            verify._plan_chunks = plan

    def rep(self, i: int, meter: Meter, latencies: bool = True) -> Rep:
        spec = arcconn.SweepSpec(
            n_lo=6, n_hi=6, check_proof_cuts=True, chunk_size=self.slice_codes // CHUNKS_PER_SLICE, jobs=1
        )
        shutil.rmtree(self.out_dir, ignore_errors=True)
        try:
            with self._only_slice():
                result, wall, raw, lat = _timed_sweep(meter, latencies, spec, str(self.out_dir))
            records = (self.out_dir / "records.csv").read_bytes()
            artifact_bytes = sum(p.stat().st_size for p in self.out_dir.iterdir())
        finally:
            shutil.rmtree(self.out_dir, ignore_errors=True)
        problems = census_gate(result, hashlib.sha256(records).hexdigest(), self.ref)
        attempted = max(len(result.records), 1)
        return Rep(wall, raw, lat, attempted, attempted if problems else 0, problems, artifact_bytes)


class SampleN7:
    """Seeded random-mode sweep at n=7 without an output directory.

    Each repetition draws a fresh sample (seed and repetition index fix it).
    About 0.16% of codes survive the filter, so the kernel filter over an
    explicit code list dominates on the pure backend.
    """

    name = "sample-n7"
    reps_per_pass = 1
    probe_rounds = FULL_ROUNDS
    samples = 50_000

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def describe(self) -> str:
        return f"n=7 random mode, {self.samples} codes per sweep, sweep seed {self.seed}*1000+rep"

    def rep(self, i: int, meter: Meter, latencies: bool = True) -> Rep:
        spec = arcconn.SweepSpec(
            n_lo=7, n_hi=7, mode="random", samples=self.samples, seed=self.seed * 1000 + i, jobs=1
        )
        result, wall, raw, lat = _timed_sweep(meter, latencies, spec)
        problems = _sweep_gate(result)
        if result.seen != self.samples:
            problems.append(f"saw {result.seen} codes, expected {self.samples}")
        attempted = max(len(result.records), 1)
        return Rep(wall, raw, lat, attempted, attempted if problems else 0, problems)


# -- params-large -------------------------------------------------------


def _preds(succ: list[int]) -> list[int]:
    n = len(succ)
    return [sum(1 << t for t in range(n) if succ[t] >> h & 1) for h in range(n)]


def _is_strong(succ: list[int]) -> bool:
    n = len(succ)
    full = (1 << n) - 1
    for masks in (succ, _preds(succ)):
        reach = frontier = 1
        while frontier:
            nxt = 0
            for v in range(n):
                if frontier >> v & 1:
                    nxt |= masks[v]
            frontier = nxt & ~reach
            reach |= frontier
        if reach != full:
            return False
    return True


def _has_4cycle(succ: list[int]) -> bool:
    """Directed 4-cycle a->b->c->d->a (valid when there is no triangle or digon)."""
    pred = _preds(succ)
    n = len(succ)
    for a in range(n):
        for b in range(n):
            if succ[a] >> b & 1:
                for c in range(n):
                    if succ[b] >> c & 1 and succ[c] & pred[a]:
                        return True
    return False


def draw_graph(rng: random.Random, n: int, density: float) -> list[int]:
    """Strong oriented graph of girth exactly 4, by seeded rejection sampling.

    Visits vertex pairs in random order and adds each with probability
    `density` in a random direction, unless the arc would close a directed
    triangle.  Draws that are not strong or have no directed 4-cycle are
    rejected.  Returns successor bitmasks.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    while True:
        succ = [0] * n
        pred = [0] * n
        rng.shuffle(pairs)
        for i, j in pairs:
            if rng.random() >= density:
                continue
            u, v = (i, j) if rng.random() < 0.5 else (j, i)
            if succ[v] & pred[u]:
                continue
            succ[u] |= 1 << v
            pred[v] |= 1 << u
        if _is_strong(succ) and _has_4cycle(succ):
            return succ


def digraph6(succ: list[int]) -> str:
    """digraph6 text: '&', chr(63 + n), row-major adjacency in 6-bit groups."""
    n = len(succ)
    bits = "".join("1" if succ[t] >> h & 1 else "0" for t in range(n) for h in range(n))
    bits += "0" * (-len(bits) % 6)
    return "&" + chr(63 + n) + "".join(chr(63 + int(bits[k : k + 6], 2)) for k in range(0, len(bits), 6))


def from_digraph6(text: str) -> list[int]:
    """Successor bitmasks of a digraph6 string written by digraph6()."""
    n = ord(text[1]) - 63
    bits = "".join(format(ord(ch) - 63, "06b") for ch in text[2:])
    return [sum(1 << h for h in range(n) if bits[t * n + h] == "1") for t in range(n)]


def relabel(succ: list[int], perm: list[int]) -> list[int]:
    """The same digraph with vertex v renamed perm[v]."""
    out = [0] * len(succ)
    for t, mask in enumerate(succ):
        for h in range(len(succ)):
            if mask >> h & 1:
                out[perm[t]] |= 1 << perm[h]
    return out


def params_gate(succ: list[int], pin: dict, D, match, lam, cert, xi_res, witness) -> list[str]:
    """Judge one `arcconn params` result on a strong girth-4 graph, n >= 6.

    pin holds the graph's lambda, lambda' and xi, which relabeling keeps.
    """
    n = len(succ)
    expected = sorted((t, h) for t in range(n) for h in range(n) if succ[t] >> h & 1)
    if D.n != n or sorted(D.arcs) != expected:
        return ["digraph6 round trip changed the graph"]
    problems = []
    if (witness is not None) != cert.found:
        problems.append("Theorem 1: existence witness disagrees with lambda'")
    if match is not None:
        problems.append(f"matched {match.params.describe()}, but the pinned graph is in no family")
    if not cert.found:
        return problems + ["no restricted arc-cut outside the exception families"]
    if len(set(cert.cut)) != cert.value:
        problems.append("cut size differs from the reported lambda'")
    if arcconn.is_restricted_arc_cut(D, cert.cut, reading=cert.reading) is None:
        problems.append("reported cut is not a restricted arc-cut")
    if not lam <= cert.value <= xi_res.value:
        problems.append(f"bounds: lambda {lam} <= lambda' {cert.value} <= xi {xi_res.value} fails")
    got = {"lambda": lam, "lambda_prime": cert.value, "xi": xi_res.value}
    if got != {key: pin[key] for key in got}:
        problems.append(f"{got} differs from the pinned {pin}")
    return problems


def make_pool(seed: int, orders: tuple[int, ...], per_order: int, density: float) -> list[list[int]]:
    """The pinned params-large graphs: per_order draws of each order, in order."""
    rng = random.Random(seed)
    return [draw_graph(rng, n, density) for n in orders for _ in range(per_order)]


class ParamsLarge:
    """The calls `arcconn params` makes, on strong girth-4 graphs of order 12-16.

    The graphs are a pinned pool of 20 per order, drawn once by seeded
    rejection sampling (make_pool) and stored with their lambda, lambda' and
    xi.  The run's seed relabels every graph at random and shuffles the
    batches, outside the timed section.  So each seed hands arcconn new
    labeled inputs as digraph6 text, while the measured work and the
    expected values stay the same.  lambda' tries every vertex subset, and
    its cost doubles with each order.  A repetition is one batch of one graph
    per order; runs cover whole passes over the pool.
    """

    name = "params-large"
    probe_rounds = SHORT_ROUNDS

    def __init__(self, seed: int, workdir: Path) -> None:
        ref = load_reference()["params_large"]
        self.orders = tuple(ref["orders"])
        per_order = ref["per_order"]
        rng = random.Random(seed)
        graphs = []
        for entry in ref["graphs"]:
            succ = from_digraph6(entry["d6"])
            perm = list(range(len(succ)))
            rng.shuffle(perm)
            graphs.append((relabel(succ, perm), entry))
        self.batches = [
            [graphs[k * per_order + b] for k in range(len(self.orders))] for b in range(per_order)
        ]
        rng.shuffle(self.batches)
        self.reps_per_pass = len(self.batches)

    def describe(self) -> str:
        return (f"{self.reps_per_pass} batches of one graph per order "
                f"{self.orders[0]}..{self.orders[-1]}, relabeled by the seed")

    def rep(self, i: int, meter: Meter, latencies: bool = True, one=None) -> Rep:
        """one(api, text) runs a graph's calls; the tracer passes a wrapped twin.

        Graphs take tens of milliseconds, so each one is bracketed by short
        calibration probes of its own; the batch's wall time is their sum.
        """
        batch = [(succ, digraph6(succ), pin) for succ, pin in self.batches[i % len(self.batches)]]
        api = arcconn
        one = one or params_one
        outputs, lat, raw = [], [], []
        for _, text, _ in batch:
            meter.start()
            outputs.append(one(api, text))
            took, ref = meter.lap()
            raw.append(took)
            lat.append(ref)
        failed = 0
        problems: list[str] = []
        for (succ, _, pin), out in zip(batch, outputs):
            found = params_gate(succ, pin, *out)
            failed += bool(found)
            problems += found
        return Rep(sum(lat), sum(raw), lat if latencies else [], len(batch), failed, problems)


def params_one(api, text: str):
    """One graph's `arcconn params` calls, looked up on the package at call time."""
    D = api.parse_digraph6(text)
    match = api.match_family(D)
    lam = api.arc_connectivity(D)
    cert = api.lambda_prime_exact(D)
    xi_res = api.xi(D)
    witness = api.lambda_prime_existence_witness(D)
    return D, match, lam, cert, xi_res, witness


WORKLOADS = {cls.name: cls for cls in (CensusN6, SampleN7, ParamsLarge)}
