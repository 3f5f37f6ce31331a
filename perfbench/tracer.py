"""Span tracer that wraps arcconn's public functions from the outside.

Each patch point names the attribute a calling module looks up at call time
(``arcconn.verify.match_family`` for calls made by ``check_graph``,
``arcconn.connectivity.is_restricted_arc_cut`` for calls made inside
lambda'), so replacing that attribute records every call made through it.
Spans live in memory as parallel arrays (name, start, end, parent) and are
written out once the run ends.  A span's self time is its duration minus
the durations of its direct children; calls are single-threaded and
properly nested, so children never overlap.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

# Span name -> per-layer metric reporting its summed self time.
SELF_TIME_METRICS = {
    "kernels.filter": "kernels.filter_s",
    "digraph.decode": "digraph.decode_s",
    "cycles.girth": "cycles.girth_s",
    "cycles.girth_cycles": "cycles.girth_cycles_s",
    "families.match": "families.match_s",
    "connectivity.lambda_prime": "connectivity.lambda_prime_s",
    "connectivity.lambda": "connectivity.lambda_s",
    "connectivity.xi": "connectivity.xi_s",
    "connectivity.exists": "connectivity.exists_s",
    "connectivity.proof_build": "connectivity.proof_build_s",
    "connectivity.cut_check": "connectivity.cut_check_s",
    "formats.d6": "formats.d6_s",
    "verify.check": "verify.check_self_s",
    "verify.sweep": "verify.sweep_self_s",
}

# Unit of every per-layer metric that layer_metrics reports.
LAYER_UNITS = {metric: "s" for metric in SELF_TIME_METRICS.values()}
LAYER_UNITS.update({
    "kernels.ns_per_code": "ns/code",
    "kernels.codes": "count",
    "kernels.survivors": "count",
    "kernels.survivor_ratio": "ratio",
    "digraph.decode_calls": "count",
    "cycles.cycles_listed": "count",
    "families.match_calls": "count",
    "families.hit_ratio": "ratio",
    "connectivity.proof_candidates": "count",
    "connectivity.cut_checks": "count",
    "connectivity.cut_accept_ratio": "ratio",
    "verify.from_row_calls": "count",
    "verify.artifact_bytes": "B",
    "trace.overhead_frac": "ratio",
    "trace.accounted_frac": "ratio",
})


def _tally_filter(counts: dict, result) -> None:
    seen, _strong, survivors = result
    counts["kernels.codes"] += seen
    counts["kernels.survivors"] += len(survivors)


def _tally_cycles(counts: dict, result) -> None:
    counts["cycles.cycles_listed"] += len(result)


def _tally_match(counts: dict, result) -> None:
    counts["families.match_hits"] += result is not None


def _tally_candidates(counts: dict, result) -> None:
    counts["connectivity.proof_candidates"] += len(result)


def _tally_cut(counts: dict, result) -> None:
    counts["connectivity.cut_accepts"] += result is not None


def patch_points() -> list[tuple[object, str, Optional[str], Optional[Callable]]]:
    """(owner, attribute, span name, tally) for every traced call site.

    A span name of None counts calls without recording spans.
    """
    import arcconn
    from arcconn import _kernels, connectivity, cycles, families, verify
    from arcconn.digraph import Digraph

    points: list[tuple[object, str, Optional[str], Optional[Callable]]] = [
        (_kernels, "filter_range", "kernels.filter", _tally_filter),
        (_kernels, "filter_codes", "kernels.filter", _tally_filter),
        (Digraph, "from_code", "digraph.decode", None),
        (verify.VerificationRecord, "from_row", None, None),
        (verify, "check_graph", "verify.check", None),
        (verify, "emit_digraph6", "formats.d6", None),
        (verify, "proof_cut_constructions", "connectivity.proof_build", _tally_candidates),
        (arcconn, "run_sweep", "verify.sweep", None),
        (arcconn, "parse_digraph6", "formats.d6", None),
    ]
    for owner, name in ((cycles, "girth"), (verify, "girth"), (connectivity, "girth"), (families, "girth")):
        points.append((owner, name, "cycles.girth", None))
    for owner, name in (
        (verify, "girth_cycles"),
        (connectivity, "girth_cycles"),
        (connectivity, "cycles_of_length"),
        (families, "cycles_of_length"),
    ):
        points.append((owner, name, "cycles.girth_cycles", _tally_cycles))
    for owner, name in ((verify, "is_restricted_arc_cut"), (connectivity, "is_restricted_arc_cut")):
        points.append((owner, name, "connectivity.cut_check", _tally_cut))
    for owner in (verify, arcconn):
        points += [
            (owner, "match_family", "families.match", _tally_match),
            (owner, "arc_connectivity", "connectivity.lambda", None),
            (owner, "xi", "connectivity.xi", None),
            (owner, "lambda_prime_existence_witness", "connectivity.exists", None),
            (owner, "lambda_prime_exact", "connectivity.lambda_prime", None),
        ]
    return points


class Tracer:
    """In-memory span store plus call counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, tally: Optional[Callable] = None) -> Callable:
        """fn wrapped in a span called name; tally(counts, result) afterwards."""
        nid = self._id(name)
        stack, name_of, start, end, parent = self._stack, self.name_of, self.start, self.end, self.parent
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if tally is not None:
                tally(counts, result)
            return result

        return traced

    def count(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self, points=None) -> Iterator["Tracer"]:
        """Patch every point for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, span, tally in patch_points() if points is None else points:
                raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
                if raw is None:
                    self.missing.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}")
                    continue
                is_cm = isinstance(raw, classmethod)
                fn = raw.__func__ if is_cm else raw
                if span is None:
                    wrapped = self.count(f"calls.{attr}", fn)
                else:
                    wrapped = self.wrap(span, fn, tally)
                saved.append((owner, attr, raw))
                setattr(owner, attr, classmethod(wrapped) if is_cm else wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        totals: dict[str, float] = defaultdict(float)
        for i, nid in enumerate(self.name_of):
            totals[self.names[nid]] += own[i]
        return dict(totals)

    def calls(self) -> dict[str, int]:
        totals: dict[str, int] = defaultdict(int)
        for nid in self.name_of:
            totals[self.names[nid]] += 1
        return dict(totals)

    def write(self, path: str) -> int:
        """Write spans as gzipped CSV (name,start,end,parent); returns the count."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("name,start_s,end_s,parent\n")
            for nid, s, e, p in zip(self.name_of, self.start, self.end, self.parent):
                fh.write(f"{self.names[nid]},{s - t0:.9f},{e - t0:.9f},{p}\n")
        return len(self.start)


def layer_metrics(tracer: Tracer, traced_walls: list[float], artifact_bytes: float,
                  overhead_frac: float, scale: float) -> dict[str, float]:
    """Per-layer metrics per repetition, from one tracer covering every traced rep.

    traced_walls are the unscaled wall times of the traced repetitions;
    times are multiplied by `scale`, the run's calibration factor.
    """
    reps = len(traced_walls)
    own = tracer.self_times()
    calls = tracer.calls()
    c = tracer.counts
    out: dict[str, float] = {}
    for span, metric in SELF_TIME_METRICS.items():
        out[metric] = own.get(span, 0.0) * scale / reps
    codes = c["kernels.codes"]
    out["kernels.ns_per_code"] = own.get("kernels.filter", 0.0) * scale / codes * 1e9 if codes else 0.0
    out["kernels.codes"] = codes / reps
    out["kernels.survivors"] = c["kernels.survivors"] / reps
    out["kernels.survivor_ratio"] = c["kernels.survivors"] / codes if codes else 0.0
    out["digraph.decode_calls"] = calls.get("digraph.decode", 0) / reps
    out["cycles.cycles_listed"] = c["cycles.cycles_listed"] / reps
    matches = calls.get("families.match", 0)
    out["families.match_calls"] = matches / reps
    out["families.hit_ratio"] = c["families.match_hits"] / matches if matches else 0.0
    out["connectivity.proof_candidates"] = c["connectivity.proof_candidates"] / reps
    checks = calls.get("connectivity.cut_check", 0)
    out["connectivity.cut_checks"] = checks / reps
    out["connectivity.cut_accept_ratio"] = c["connectivity.cut_accepts"] / checks if checks else 0.0
    out["verify.from_row_calls"] = c["calls.from_row"] / reps
    out["verify.artifact_bytes"] = artifact_bytes
    out["trace.overhead_frac"] = overhead_frac
    out["trace.accounted_frac"] = sum(own.values()) / sum(traced_walls)
    return out
