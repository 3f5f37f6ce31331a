"""Exhaustive and sampled sweeps that machine-check the structure theorems.

Per graph, ``measure`` computes every parameter where it is defined, and
``check_graph`` judges the theorem clauses from that :class:`Measurement`
into a flat :class:`VerificationRecord` whose clause columns hold one of
"pass", "fail", or "na" (the Digraph memoises the girth cycles several of
them read):

* ``theorem1_ok``: the girth-cycle witness criterion for restricted-cut
  existence agrees with the outcome of the exact minimum search.
* ``bounds_ok``: on strong girth-4 graphs with n >= 6 and no exception-family
  match, a restricted cut exists and lambda <= lambda' <= xi.
* ``family_consistency_ok``: exception-family members admit no restricted cut.
* ``proof_ok``: some constructive cut candidate over some girth cycle is a
  valid restricted cut of size at most xi (same stratum as ``bounds_ok``),
  as ``connectivity.proof_cut`` finds it.

Every restricted-cut question (the cut, its witness, the proof candidates)
is answered in ``connectivity``; this module reads the answers through its
public functions.

``run_sweep`` drives the bitmask kernels over a code range (exhaustive) or a
seeded sample, fans the survivors through ``check_graph``, and aggregates
commutatively so chunk order, chunk size, and worker count never change the
result.  Chunks carry ``VerificationRecord`` objects from the workers to the
aggregate, with the audit on also each graph's record under the other
reading, from which the aggregate derives the audit; records become rows of
text only on disk (the checkpoint's rows and other_rows).  With an output
directory it checkpoints per chunk (JSONL, resumable) and writes
records.csv, counterexamples.d6, summary.json, and, when the
definitional-reading audit is on, audit.json.

An exhaustive sweep judges each isomorphism class once.  Every field of a
record but ``graph_id`` and ``family_params`` is an invariant of the class:
the girth, strongness, lambda, lambda' and xi, the family, and every clause
verdict.  So ``run_sweep`` hands its exhaustive (range) chunks one class
memo, keyed by the order, ``Digraph.canonical_form`` and the reading, and
``check_graph`` measures only a graph whose class the memo lacks.  A graph
of a known class still goes through ``check_graph``, which takes its key
and copies the class's record with the graph's own digraph6 and, for a
family member, the parameters ``match_family`` would report for this
labeling (``_with_labeling``: a copy of the record's field dict with the
two swapped in, without a second run of the dataclass ``__init__``).
Those parameters are read without a second recognition: the miss that
measures a family class also lists every site where the class is a member
(``families._member_sites``: the girth cycles of H1 with their fan sizes,
the spines of H2..H7 with their parameters) in the labels of
``Digraph.canonical_labeling``, and a hit maps them back through its own
canonical labeling and takes the site ``match_family`` would meet first
(``families._site_params``).  An audit sweep reads these two fields once
and copies both readings' records of the class in ``_run_chunk``.  The
memo holds one record per class met and reading, with the class's sites:
at most 71 records at the n = 6 stratum, and the strong classes of orders
up to 6 with the girth filter off.  With jobs = 1 it spans the whole
sweep; a pool worker gets its own empty copy with each chunk, so with
jobs > 1 it spans one chunk.  A random chunk computes no key: a sample of
50,000 codes at n = 7 holds about 80 stratum graphs among 3,307 classes,
so a key would almost never find its class.  Nothing of the memo outlives
a ``run_sweep`` call.

Each file format is stated in one place:

* a row of records.csv or of the checkpoint: the fields of
  ``VerificationRecord`` in order (``RECORD_FIELDS``, ``to_row``,
  ``from_row``);
* the checkpoint header, and the spec in summary.json and audit.json:
  ``SweepSpec.fingerprint()``;
* a checkpoint chunk line: ``_Chunk.line`` and ``_Chunk.parse``;
* summary.json: ``SweepResult.summary()``, whose totals are sums over
  ``per_n``.
"""

from __future__ import annotations

import csv
import json
import multiprocessing
import os
import random
import time
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass, field, fields, replace
from itertools import repeat
from operator import attrgetter
from typing import Callable, NamedTuple, Optional

from . import _kernels
from .connectivity import (
    DefinitionReading,
    ORIGINAL_HOST,
    RESIDUAL_HOST,
    RestrictedCutCertificate,
    XiResult,
    arc_connectivity,
    lambda_prime_exact,
    lambda_prime_existence_witness,
    proof_cut,
    xi,
)
from .cycles import Cycle, girth
from .digraph import Arc, Digraph
from .errors import CapExceeded, InvalidVertex
from .families import FamilyMatch, Site, _member_sites, _site_params, match_family
from .formats import emit_digraph6

# Above this order SweepSpec.validate refuses an exhaustive sweep.  n = 7 has
# 3**21 = 10,460,353,203 labeled codes: filter_range takes about 9 min on one
# core over them, and decoding and canonicalizing the 15,576,000 stratum
# graphs about 5 min more, but a sweep of per-graph records would hold 15.6 M
# of them in memory and write a records.csv of about 1 GB (62 bytes a row at
# n = 6).  So random mode is the labeled route from n = 7 up to
# _kernels.CODE_MAX_ORDER.
EXHAUSTIVE_MAX_ORDER = 6

CLAUSE_FIELDS = ("theorem1_ok", "bounds_ok", "family_consistency_ok", "proof_ok")

AUDIT_EXAMPLE_CAP = 20


def sample_codes(n: int, count: int, seed: int) -> list[int]:
    """count codes of order n, drawn uniformly with repeats from seed.

    Each draw is size.bit_length() random bits, kept when it is a code and
    skipped otherwise, in stream order.  random.Random(seed).randrange(size)
    draws the same way on CPython 3.11, so these are the codes of count such
    calls, as the tests check, at 0.42-0.44 of their cost (50,000 codes at
    n = 7 in 5.2 against 12.3 ms, and in 6.6 against 14.9 ms on a busier
    host).
    """
    size = _kernels.universe_size(n)
    draw = random.Random(seed).getrandbits
    bits = size.bit_length()
    codes: list[int] = []
    while len(codes) < count:
        codes += [code for code in map(draw, repeat(bits, count - len(codes))) if code < size]
    return codes


@dataclass(frozen=True)
class VerificationRecord:
    """One graph's measurements plus per-clause verdicts.

    Its fields, in order, are the columns of records.csv and of the
    checkpoint's rows (RECORD_FIELDS); each cell is written by to_row and
    read back by the reader of its field's annotation.
    """

    graph_id: str
    n: int
    m: int
    girth: Optional[int]
    is_strong: bool
    family: Optional[str]
    family_params: Optional[str]
    lambda_: Optional[int]
    lambda_prime_exists: Optional[bool]
    lambda_prime: Optional[int]
    xi: Optional[int]
    theorem1_ok: str
    bounds_ok: str
    family_consistency_ok: str
    proof_ok: str
    reading: str

    def clauses(self) -> dict[str, str]:
        return {name: getattr(self, name) for name in CLAUSE_FIELDS}

    @property
    def passed(self) -> bool:
        return all(v != "fail" for v in self.clauses().values())

    def to_row(self) -> list[str]:
        # A cell is "" for None, "true" or "false" for a bool (True and
        # False are the only bools) and str() of an int or a str.
        return [
            "" if v is None else "true" if v is True else "false" if v is False else str(v)
            for v in _field_values(self)
        ]

    @classmethod
    def from_row(cls, row: list[str]) -> "VerificationRecord":
        if len(row) != len(_READERS):
            raise ValueError(f"expected {len(_READERS)} cells, got {len(row)}")
        return cls(*[read(cell) for read, cell in zip(_READERS, row)])


# The inverse of to_row's cell for each annotation a record field has.
_CELL_READERS: dict[str, Callable[[str], object]] = {
    "str": str,
    "int": int,
    "bool": lambda cell: cell == "true",
    "Optional[str]": lambda cell: cell or None,
    "Optional[int]": lambda cell: None if cell == "" else int(cell),
    "Optional[bool]": lambda cell: None if cell == "" else cell == "true",
}
_ATTRS = tuple(f.name for f in fields(VerificationRecord))
_field_values = attrgetter(*_ATTRS)
_READERS = tuple(_CELL_READERS[f.type] for f in fields(VerificationRecord))
# A column is named by its field; a trailing underscore only escapes a keyword.
RECORD_FIELDS = tuple(name.rstrip("_") for name in _ATTRS)


@dataclass(frozen=True)
class Measurement:
    """A graph's parameters; None where measure leaves one undefined or finds no witness."""

    girth: Optional[int]
    is_strong: bool
    match: Optional[FamilyMatch]
    lambda_: Optional[int]
    certificate: Optional[RestrictedCutCertificate]
    xi: Optional[XiResult]
    witness: Optional[tuple[Cycle, Arc]]


def measure(D: Digraph, reading: DefinitionReading = ORIGINAL_HOST) -> Measurement:
    """Every parameter of D where it is defined: lambda, lambda' and the
    existence witness on strong graphs with n >= 2, xi when D has a cycle."""
    g = girth(D)
    strong = D.is_strong()
    connected = strong and D.n >= 2
    return Measurement(
        girth=g,
        is_strong=strong,
        match=match_family(D),
        lambda_=arc_connectivity(D) if connected else None,
        certificate=lambda_prime_exact(D, reading=reading) if connected else None,
        xi=xi(D) if g is not None else None,
        witness=lambda_prime_existence_witness(D) if connected else None,
    )


# A sweep's class memo: for each isomorphism class met and each reading,
# keyed by _class_key, the record of the first graph judged in it and, for a
# family class, its sites in canonical labels (families._member_sites; an
# empty tuple otherwise).  One memo serves one sweep, so check_proof is the
# same for every record in it.
ClassKey = tuple[int, tuple[Arc, ...], DefinitionReading]
ClassMemo = dict[ClassKey, tuple[VerificationRecord, tuple[Site, ...]]]


def _class_key(D: Digraph, reading: DefinitionReading) -> ClassKey:
    return D.n, D.canonical_form(), reading


def _relabeled(rec: VerificationRecord, sites: tuple[Site, ...], D: Digraph) -> VerificationRecord:
    """rec, a record of D's class with the class's sites, with the two
    fields that depend on the labeling read off D: its digraph6, and a
    family member's parameters (the family is an invariant, but which
    parameters match_family reports is not: one H1 class holds labelings it
    reads as p=0,s=2 and as p=2,s=0).  The parameters are read off the
    sites through the inverse of the relabeling D.canonical_labeling, which
    the class key has settled, so match_family is not run again; any
    relabeling that attains the form gives the same answer, as the
    automorphisms of the canonical graph permute its sites."""
    params = None
    if sites:
        back = sorted(range(D.n), key=D.canonical_labeling().__getitem__)
        params = _site_params(sites, back).describe()
    return _with_labeling(rec, emit_digraph6(D), params)


def _with_labeling(rec: VerificationRecord, graph_id: str, family_params: Optional[str]) -> VerificationRecord:
    """rec with graph_id and family_params swapped in: a new record whose
    field dict is a copy of rec's with those two values replaced.  The
    frozen dataclass __init__, which dataclasses.replace runs, is not run:
    the fields are rec's, already read.  The copy compares, hashes and
    refuses assignment as replace's does."""
    values = rec.__dict__.copy()
    values["graph_id"] = graph_id
    values["family_params"] = family_params
    copy = object.__new__(VerificationRecord)
    object.__setattr__(copy, "__dict__", values)
    return copy


def check_graph(
    D: Digraph,
    reading: DefinitionReading = ORIGINAL_HOST,
    check_proof: bool = False,
    meas: Optional[Measurement] = None,
    memo: Optional[ClassMemo] = None,
) -> VerificationRecord:
    """Measure one graph and judge every theorem clause that applies to it.

    meas, when given, must be ``measure(D, reading)``; it is not taken again.
    memo, when given, is a sweep's class memo (see ``ClassMemo``): a graph
    whose class it holds under reading is not measured, and its record is
    the class's with the labeling's own graph_id and family_params.
    """
    if memo is not None:
        key = _class_key(D, reading)
        known = memo.get(key)
        if known is not None:
            return _relabeled(*known, D)
    if meas is None:
        meas = measure(D, reading)
    family = meas.match.family.value if meas.match else None
    cert = meas.certificate
    exists = None if cert is None else meas.witness is not None
    lp = cert.value if cert is not None and cert.found else None
    xi_val = meas.xi.value if meas.xi is not None else None
    theorem1 = "na" if cert is None else ("pass" if exists == cert.found else "fail")

    consistency = "na"
    if family is not None:
        consistency = "pass" if exists is False else "fail"

    in_stratum = meas.is_strong and meas.girth == 4 and D.n >= 6 and family is None
    bounds = "na"
    proof = "na"
    if in_stratum:
        if exists and lp is not None and meas.lambda_ is not None and xi_val is not None:
            bounds = "pass" if meas.lambda_ <= lp <= xi_val else "fail"
        else:
            bounds = "fail"
        if check_proof:
            proof = "pass" if proof_cut(D, reading, xi_val) else "fail"  # xi is set: girth 4

    rec = VerificationRecord(
        graph_id=emit_digraph6(D),
        n=D.n,
        m=D.m,
        girth=meas.girth,
        is_strong=meas.is_strong,
        family=family,
        family_params=meas.match.params.describe() if meas.match else None,
        lambda_=meas.lambda_,
        lambda_prime_exists=exists,
        lambda_prime=lp,
        xi=xi_val,
        theorem1_ok=theorem1,
        bounds_ok=bounds,
        family_consistency_ok=consistency,
        proof_ok=proof,
        reading=reading.value,
    )
    if memo is not None:
        sites = () if meas.match is None else _member_sites(D, meas.match.family, D.canonical_labeling())
        memo[key] = rec, sites
    return rec


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: order range, stratum filters, mode, and toggles."""

    n_lo: int
    n_hi: int
    mode: str = "exhaustive"
    samples: int = 0
    seed: int = 0
    reading: DefinitionReading = ORIGINAL_HOST
    girth: Optional[int] = 4
    audit_readings: bool = False
    check_proof_cuts: bool = False
    chunk_size: int = 250_000
    jobs: int = 1

    def __post_init__(self) -> None:
        # Both ends are orders, read as Digraph(n) reads one (InvalidVertex
        # unless an integer but a bool), so the spec holds them as ints.
        for end in ("n_lo", "n_hi"):
            object.__setattr__(self, end, _kernels._vertex(getattr(self, end)))
        # The counts, the seed and a girth filter are read as integers too,
        # so validate and _plan_chunks compute with ints.
        for name in ("samples", "seed", "chunk_size", "jobs"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.girth is not None:
            object.__setattr__(self, "girth", _integer("girth", self.girth))

    def validate(self) -> None:
        if self.n_lo < 1 or self.n_lo > self.n_hi:
            raise ValueError(f"bad order range {self.n_lo}..{self.n_hi}")
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"mode must be exhaustive or random, got {self.mode!r}")
        if self.mode == "random" and self.samples < 1:
            raise ValueError("random mode needs samples >= 1")
        if self.mode == "exhaustive" and (self.samples or self.seed):
            raise ValueError("samples and seed apply only to a sweep with --mode random")
        if self.girth is not None and self.girth < 2:
            raise ValueError("girth filter must be at least 2")
        if self.chunk_size < 1 or self.jobs < 1:
            raise ValueError("chunk_size and jobs must be positive")
        if self.mode == "exhaustive" and self.n_hi > EXHAUSTIVE_MAX_ORDER:
            raise CapExceeded(
                f"exhaustive enumeration at n={self.n_hi} is above order "
                f"{EXHAUSTIVE_MAX_ORDER}; sweep it with --mode random"
            )
        _kernels.check_codes(self.n_hi)  # random mode: codes stop at CODE_MAX_ORDER

    def fingerprint(self) -> dict[str, object]:
        """Every field in order but jobs, the one that changes neither chunk
        identities nor record content: the checkpoint header's spec."""
        spec = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "jobs"}
        return {**spec, "reading": self.reading.value}


def _integer(name: str, value: object) -> int:
    """The spec field name's value read as an order is (_kernels._vertex:
    any integer but a bool); anything else raises ValueError naming it."""
    try:
        return _kernels._vertex(value)
    except InvalidVertex:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _audit(base: list[VerificationRecord], other: list[VerificationRecord]) -> dict:
    """How each graph's record differs between the two readings.

    base and other hold the records of the sweep's reading and of the other
    one, both sorted by graph_id, so they pair up in order.  Counts the
    graphs whose existence, value or clause verdicts differ, with the first
    AUDIT_EXAMPLE_CAP graph ids of each.
    """
    ids: dict[str, list[str]] = {"existence": [], "value": [], **{name: [] for name in CLAUSE_FIELDS}}
    for a, b in zip(base, other):
        if a.lambda_prime_exists != b.lambda_prime_exists:
            ids["existence"].append(a.graph_id)
        if a.lambda_prime != b.lambda_prime:
            ids["value"].append(a.graph_id)
        for name in CLAUSE_FIELDS:
            if getattr(a, name) != getattr(b, name):
                ids[name].append(a.graph_id)
    return {
        "graphs": len(base),
        "existence_differs": len(ids["existence"]),
        "value_differs": len(ids["value"]),
        "clause_differs": {name: len(ids[name]) for name in CLAUSE_FIELDS},
        "examples": {
            "existence": ids["existence"][:AUDIT_EXAMPLE_CAP],
            "value": ids["value"][:AUDIT_EXAMPLE_CAP],
            "clauses": {name: ids[name][:AUDIT_EXAMPLE_CAP] for name in CLAUSE_FIELDS},
        },
    }


def _other_reading(reading: DefinitionReading) -> DefinitionReading:
    return RESIDUAL_HOST if reading is ORIGINAL_HOST else ORIGINAL_HOST


Task = tuple[str, int, str, object]


def _plan_chunks(spec: SweepSpec) -> list[Task]:
    tasks: list[Task] = []
    for n in range(spec.n_lo, spec.n_hi + 1):
        if spec.mode == "exhaustive":
            size = _kernels.universe_size(n)
            for lo in range(0, size, spec.chunk_size):
                hi = min(lo + spec.chunk_size, size)
                tasks.append((f"x:{n}:{lo}:{hi}", n, "range", (lo, hi)))
        else:
            codes = sample_codes(n, spec.samples, spec.seed + n)
            for i in range(0, len(codes), spec.chunk_size):
                part = codes[i : i + spec.chunk_size]
                tasks.append((f"r:{n}:{i}:{i + len(part)}", n, "codes", part))
    return tasks


class _Chunk(NamedTuple):
    """One planned chunk's outcome: the codes of order n it saw, the strong
    ones among them, the records of its stratum graphs and, in an audit
    sweep, their records under the other reading.

    In the checkpoint it is the line {"key": ..., "chunk": {"n", "seen",
    "strong", "rows", and "other_rows" in an audit sweep}}, with each record
    as its row; line writes it and parse reads it back.
    """

    n: int
    seen: int
    strong: int
    records: list[VerificationRecord]
    others: list[VerificationRecord]

    def line(self, key: str, audit: bool) -> str:
        rows = [rec.to_row() for rec in self.records]
        chunk = {"n": self.n, "seen": self.seen, "strong": self.strong, "rows": rows}
        if audit:
            chunk["other_rows"] = [rec.to_row() for rec in self.others]
        return json.dumps({"key": key, "chunk": chunk}) + "\n"

    @classmethod
    def parse(cls, entry: object, audit: bool) -> Optional[tuple[str, "_Chunk"]]:
        """The key and chunk of a decoded checkpoint line, or None if the
        line does not have the shape line gives it."""
        if not isinstance(entry, dict) or not isinstance(entry.get("key"), str):
            return None
        chunk = entry.get("chunk")
        lists = ("rows", "other_rows") if audit else ("rows",)
        if not (
            isinstance(chunk, dict)
            and all(isinstance(chunk.get(name), int) for name in ("n", "seen", "strong"))
            and all(isinstance(chunk.get(name), list) for name in lists)
            and all(isinstance(row, list) for name in lists for row in chunk[name])
        ):
            return None
        records = [VerificationRecord.from_row(row) for row in chunk["rows"]]
        others = [VerificationRecord.from_row(row) for row in chunk["other_rows"]] if audit else []
        return entry["key"], cls(chunk["n"], chunk["seen"], chunk["strong"], records, others)


def _run_chunk(args: tuple[SweepSpec, Task, Optional[ClassMemo]]) -> tuple[str, _Chunk]:
    spec, (key, n, kind, payload), memo = args
    target = 0 if spec.girth is None else spec.girth
    if kind == "range":
        lo, hi = payload
        seen, strong, codes = _kernels.filter_range(n, lo, hi, girth_target=target)
    else:
        seen, strong, codes = _kernels.filter_codes(n, payload, girth_target=target)
    records: list[VerificationRecord] = []
    others: list[VerificationRecord] = []  # the other reading's, when auditing
    other = _other_reading(spec.reading)
    for code in codes:
        D = Digraph.from_code(n, code)
        if not spec.audit_readings:
            records.append(check_graph(D, reading=spec.reading, check_proof=spec.check_proof_cuts, memo=memo))
            continue
        # Only lambda' and the proof clause depend on the reading.  Both
        # readings' records of a class enter the memo together, so D is
        # measured only when its class is new, and a known class is
        # relabelled once: graph_id and family_params do not depend on the
        # reading.
        known = memo.get(_class_key(D, spec.reading)) if memo is not None else None
        if known is not None:
            rec = _relabeled(*known, D)
            records.append(rec)
            others.append(_with_labeling(memo[_class_key(D, other)][0], rec.graph_id, rec.family_params))
            continue
        meas = measure(D, spec.reading)
        records.append(check_graph(D, reading=spec.reading, check_proof=spec.check_proof_cuts, meas=meas, memo=memo))
        if meas.certificate is not None:
            meas = replace(meas, certificate=lambda_prime_exact(D, reading=other))
        others.append(check_graph(D, reading=other, check_proof=spec.check_proof_cuts, meas=meas, memo=memo))
    return key, _Chunk(n, seen, strong, records, others)


# A record's clause verdicts, in CLAUSE_FIELDS order.
_clause_verdicts = attrgetter(*CLAUSE_FIELDS)


class _Verdicts(NamedTuple):
    """The clause verdicts of one chunk's records, each record read once:
    how many records hold each tuple of verdicts (in CLAUSE_FIELDS order),
    and each record with a failing clause, with the names of those clauses."""

    counts: Counter
    failures: list[tuple[VerificationRecord, list[str]]]

    @classmethod
    def read(cls, records: list[VerificationRecord]) -> "_Verdicts":
        verdicts = list(map(_clause_verdicts, records))
        failures = [
            (rec, [name for name, verdict in zip(CLAUSE_FIELDS, row) if verdict == "fail"])
            for rec, row in zip(records, verdicts)
            if "fail" in row
        ]
        return cls(Counter(verdicts), failures)


def _total(key: str) -> property:
    """A count over the whole sweep: the sum of one per_n key."""
    return property(lambda self: sum(slot[key] for slot in self.per_n.values()))


@dataclass
class SweepResult:
    """Aggregated sweep outcome plus the full record list."""

    spec: SweepSpec
    completed: bool
    per_n: dict[int, dict[str, int]] = field(default_factory=dict)
    family_counts: dict[str, int] = field(default_factory=dict)
    clause_tallies: dict[str, dict[str, int]] = field(default_factory=dict)
    records: list[VerificationRecord] = field(default_factory=list)
    counterexamples: list[VerificationRecord] = field(default_factory=list)
    audit: Optional[dict] = None
    accounting_ok: Optional[bool] = None
    runtime: float = 0.0
    paths: dict[str, str] = field(default_factory=dict)

    seen = _total("seen")
    strong = _total("strong")
    stratum = _total("stratum")
    family_total = _total("family")
    lambda_prime_connected = _total("lambda_prime_connected")

    @property
    def ok(self) -> bool:
        return self.completed and not self.counterexamples

    def summary(self) -> dict:
        return {
            "spec": self.spec.fingerprint(),
            "jobs": self.spec.jobs,
            "completed": self.completed,
            "seen": self.seen,
            "strong": self.strong,
            "stratum": self.stratum,
            "per_n": {str(n): dict(v) for n, v in sorted(self.per_n.items())},
            "family_counts": dict(sorted(self.family_counts.items())),
            "family_total": self.family_total,
            "lambda_prime_connected": self.lambda_prime_connected,
            "clause_tallies": {k: dict(v) for k, v in self.clause_tallies.items()},
            "counterexamples": len(self.counterexamples),
            "accounting_ok": self.accounting_ok,
            "ok": self.ok,
            "runtime_seconds": round(self.runtime, 3),
        }


def _aggregate(
    spec: SweepSpec, chunks: dict[str, _Chunk], verdicts: dict[str, _Verdicts], completed: bool
) -> SweepResult:
    """The sweep's result from its chunks and their _Verdicts, by key."""
    result = SweepResult(spec=spec, completed=completed)
    records: list[VerificationRecord] = []
    others: list[VerificationRecord] = []
    result.clause_tallies = {
        name: {"pass": 0, "fail": 0, "na": 0} for name in CLAUSE_FIELDS
    }
    for key, chunk in chunks.items():
        slot = result.per_n.setdefault(
            chunk.n, {"seen": 0, "strong": 0, "stratum": 0, "family": 0, "lambda_prime_connected": 0}
        )
        slot["seen"] += chunk.seen
        slot["strong"] += chunk.strong
        slot["stratum"] += len(chunk.records)
        records += chunk.records
        others += chunk.others
        for row, count in verdicts[key].counts.items():
            for name, verdict in zip(CLAUSE_FIELDS, row):
                result.clause_tallies[name][verdict] += count
        result.counterexamples += [rec for rec, _ in verdicts[key].failures]
    by_id = attrgetter("graph_id")
    records.sort(key=by_id)
    result.records = records
    result.counterexamples.sort(key=by_id)  # stable: the order they hold in records
    for rec in records:
        if rec.family is not None:
            result.family_counts[rec.family] = result.family_counts.get(rec.family, 0) + 1
            result.per_n[rec.n]["family"] += 1
        if rec.lambda_prime_exists:
            result.per_n[rec.n]["lambda_prime_connected"] += 1
    if spec.girth == 4:
        result.accounting_ok = (
            result.stratum == result.family_total + result.lambda_prime_connected
        )
    if spec.audit_readings:
        result.audit = _audit(records, sorted(others, key=by_id))
    return result


def _read_checkpoint(path: str, spec: SweepSpec, keys: set[str]) -> tuple[dict[str, _Chunk], int]:
    """The completed chunks of a checkpoint, and the byte offset just past
    its last line read whole, where a resumed run goes on writing.  A chunk
    under a key not in keys, the ones the sweep plans, raises ValueError:
    its counts would enter the totals and the sweep could never complete."""
    chunks: dict[str, _Chunk] = {}
    header_ok = False
    torn: Optional[int] = None  # a line that is not ASCII JSON, allowed only last
    end = 0
    offset = 0
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            start, offset = offset, offset + len(line)
            raw = line.strip()
            if not raw:
                continue
            if torn is not None:
                raise ValueError(
                    f"checkpoint line {torn} is not JSON, and only the last line "
                    "may be torn by an interrupted run"
                )
            try:
                entry = json.loads(raw.decode("ascii"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                torn = lineno
                continue
            end = start + len(line.rstrip())
            if isinstance(entry, dict) and "spec" in entry:
                if entry["spec"] != spec.fingerprint():
                    raise ValueError(
                        "checkpoint was written by a different sweep configuration; "
                        "remove it or rerun without --resume"
                    )
                header_ok = True
                continue
            if header_ok:
                parsed = _Chunk.parse(entry, spec.audit_readings)
                if parsed is None:
                    raise ValueError(
                        f"checkpoint line {lineno} is not a chunk entry "
                        "(an object with 'key' and 'chunk': n, seen, strong, rows, "
                        "and other_rows in an audit sweep)"
                    )
                key, chunk = parsed
                if key not in keys:
                    raise ValueError(
                        f"checkpoint line {lineno} holds chunk {key!r}, "
                        "which this sweep does not plan"
                    )
                chunks[key] = chunk
    if not header_ok:
        raise ValueError("checkpoint is missing its configuration header")
    return chunks, end


def _cut_checkpoint(path: str, end: int) -> None:
    """Drop what follows the last whole line at byte offset end (a torn
    line, or only that line's newline) and end the file with a newline, so
    the chunks a resumed run appends each start a line of their own."""
    with open(path, "r+b") as fh:
        fh.truncate(end)
        fh.seek(end)
        fh.write(b"\n")


def run_sweep(
    spec: SweepSpec,
    out_dir: Optional[str] = None,
    resume: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    _stop_after_chunks: Optional[int] = None,
) -> SweepResult:
    """Run the sweep described by spec, optionally checkpointing to out_dir."""
    spec.validate()
    if resume and out_dir is None:
        raise ValueError("resume needs an output directory holding the checkpoint")
    emit = progress or (lambda _msg: None)
    t0 = time.perf_counter()
    tasks = _plan_chunks(spec)
    chunks: dict[str, _Chunk] = {}
    ck_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        ck_path = os.path.join(out_dir, "checkpoint.jsonl")
        if resume and os.path.exists(ck_path):
            chunks, end = _read_checkpoint(ck_path, spec, {task[0] for task in tasks})
            _cut_checkpoint(ck_path, end)
            if chunks:
                emit(f"resumed {len(chunks)} completed chunk(s) from checkpoint")
        else:
            with open(ck_path, "w", encoding="ascii") as fh:
                fh.write(json.dumps({"spec": spec.fingerprint()}) + "\n")
    verdicts = {key: _Verdicts.read(chunk.records) for key, chunk in chunks.items()}

    # One class memo per sweep, for the exhaustive chunks only: a sample
    # meets few graphs of one class twice.  Chunks run here share it; a
    # pool worker gets a copy of it with each chunk.
    memo: ClassMemo = {}
    args = [(spec, task, memo if task[2] == "range" else None) for task in tasks if task[0] not in chunks]
    total = len(tasks)
    with ExitStack() as stack:
        ck_handle = stack.enter_context(open(ck_path, "a", encoding="ascii")) if ck_path else None
        if spec.jobs > 1 and len(args) > 1:
            # Leaving the stack terminates the pool, also on an early stop.
            pool = stack.enter_context(multiprocessing.get_context("fork").Pool(spec.jobs))
            results = pool.imap_unordered(_run_chunk, args)
        else:
            results = map(_run_chunk, args)
        for fresh, (key, chunk) in enumerate(results, 1):
            chunks[key] = chunk
            if ck_handle is not None:
                ck_handle.write(chunk.line(key, spec.audit_readings))
                ck_handle.flush()
            verdicts[key] = _Verdicts.read(chunk.records)
            for rec, bad in verdicts[key].failures:
                emit(f"counterexample {rec.graph_id} fails {', '.join(bad)}")
            emit(
                f"chunk {len(chunks)}/{total} key={key} "
                f"stratum={len(chunk.records)} of {chunk.seen} codes"
            )
            if _stop_after_chunks is not None and fresh >= _stop_after_chunks:
                break

    completed = len(chunks) == total
    result = _aggregate(spec, chunks, verdicts, completed)
    result.runtime = time.perf_counter() - t0
    if out_dir is not None and completed:
        result.paths = _write_artifacts(result, out_dir)
    return result


def _write_artifacts(result: SweepResult, out_dir: str) -> dict[str, str]:
    paths: dict[str, str] = {}

    records_path = os.path.join(out_dir, "records.csv")
    _atomic_write(records_path, _render_csv(result.records))
    paths["records"] = records_path

    cex_path = os.path.join(out_dir, "counterexamples.d6")
    lines = [rec.graph_id for rec in result.counterexamples]
    _atomic_write(cex_path, "".join(line + "\n" for line in lines))
    paths["counterexamples"] = cex_path
    if result.counterexamples:
        cex_csv = os.path.join(out_dir, "counterexamples.csv")
        _atomic_write(cex_csv, _render_csv(result.counterexamples))
        paths["counterexamples_csv"] = cex_csv

    summary_path = os.path.join(out_dir, "summary.json")
    _atomic_write(summary_path, json.dumps(result.summary(), indent=2) + "\n")
    paths["summary"] = summary_path

    if result.audit is not None:
        audit_path = os.path.join(out_dir, "audit.json")
        payload = {
            "spec": result.spec.fingerprint(),
            "readings": [result.spec.reading.value, _other_reading(result.spec.reading).value],
            **result.audit,
        }
        _atomic_write(audit_path, json.dumps(payload, indent=2) + "\n")
        paths["audit"] = audit_path
    return paths


def _render_csv(records: list[VerificationRecord]) -> str:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RECORD_FIELDS)
    for rec in records:
        writer.writerow(rec.to_row())
    return buf.getvalue()


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write(text)
    os.replace(tmp, path)


def read_records_csv(path: str) -> list[VerificationRecord]:
    with open(path, "r", encoding="ascii", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(RECORD_FIELDS):
            raise ValueError(f"unexpected records.csv header: {header}")
        return [VerificationRecord.from_row(row) for row in reader]
