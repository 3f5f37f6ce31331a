"""Sweep engine: enumeration, per-graph records, aggregation, checkpointing."""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import FrozenInstanceError, replace
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from arcconn import (
    CapExceeded,
    Digraph,
    Family,
    FamilyParams,
    InvalidVertex,
    SweepSpec,
    check_graph,
    emit_digraph6,
    family_census,
    generate,
    girth_cycles,
    is_restricted_arc_cut,
    match_family,
    parse_digraph6,
    proof_cut_constructions,
    run_sweep,
    xi,
)
from arcconn import _kernels, cli, verify
from arcconn.connectivity import ORIGINAL_HOST, RESIDUAL_HOST, proof_cut
from arcconn.verify import (
    RECORD_FIELDS,
    VerificationRecord,
    read_records_csv,
    sample_codes,
)

from .conftest import Label, oracle_canonical_form, stratum_codes


@pytest.mark.parametrize("reading", [ORIGINAL_HOST, RESIDUAL_HOST])
def test_proof_clause_matches_the_listed_candidates(reading):
    """proof_cut, behind the proof clause, builds candidates one at a time
    and stops at the first cut; it must return what trying every listed
    candidate of size at most the bound with is_restricted_arc_cut finds
    first, on the n = 6 stratum slice (family members, where it finds none,
    included) with xi and with xi - 1 as the bound."""
    verdicts = set()
    for code in stratum_codes(6):
        D = Digraph.from_code(6, code)
        for bound in (xi(D).value - 1, xi(D).value):
            listed = next((
                S
                for C in girth_cycles(D)
                for S in proof_cut_constructions(D, C)
                if len(S) <= bound and is_restricted_arc_cut(D, S, reading) is not None
            ), None)
            assert proof_cut(D, reading, bound) == listed
            verdicts.add(listed is not None)
    assert verdicts == {False, True}


def test_sampler_is_deterministic_and_seed_sensitive():
    a = sample_codes(7, 40, seed=42)
    assert a == sample_codes(7, 40, seed=42) != sample_codes(7, 40, seed=43)
    assert all(0 <= code < _kernels.universe_size(7) for code in a)


def test_sampler_codes_are_pinned():
    # The first codes as sampled before draws went through getrandbits: a
    # random-mode checkpoint written then resumes to the same records.
    assert sample_codes(7, 5, 42) == [2746317213, 8697354961, 1181241943, 958682846, 3163119785]
    assert sample_codes(18, 5, 1) == [
        1666751659450736849879294953297967219051784614422545715828389553054790133,
        2967664353272853881877376494162636962435750450668078955049934611761386875,
        8585999802357786671164802793842833052490871891278386882171642860330757772,
        315513080550148338770331072195899948805422710186768988777692139552254257,
        9703299481953401683715370772673528341963496912279177528048385958636396217,
    ]


@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_sampler_draws_the_randrange_stream(seed):
    for n in range(1, _kernels.CODE_MAX_ORDER + 1):
        rng = random.Random(seed)
        size = _kernels.universe_size(n)
        assert sample_codes(n, 60, seed) == [rng.randrange(size) for _ in range(60)], n


def test_sampler_arc_density_matches_uniform_trit_model():
    """Each unordered pair independently holds an arc (either direction)
    with probability 2/3; check the sample mean with binomial slack."""
    pairs = 6 * 5 // 2
    total = sum(Digraph.from_code(6, code).m for code in sample_codes(6, 2_000, seed=7))
    expected = 2_000 * pairs * 2 / 3
    sigma = (2_000 * pairs * (2 / 3) * (1 / 3)) ** 0.5
    assert abs(total - expected) < 6 * sigma


def test_check_graph_l8(l8):
    rec = check_graph(l8)
    assert rec.is_strong and rec.girth == 4 and rec.family is None
    assert rec.lambda_ == rec.lambda_prime == rec.xi == 1
    assert rec.theorem1_ok == "pass" and rec.bounds_ok == "pass"
    assert rec.family_consistency_ok == "na"
    assert rec.passed


def test_check_graph_family_member():
    rec = check_graph(generate(FamilyParams(Family.H1, (1, 1, 1, 1))))
    assert rec.family == "H1" and rec.lambda_prime_exists is False
    assert rec.xi == 4
    assert rec.theorem1_ok == "pass" and rec.family_consistency_ok == "pass"
    assert rec.bounds_ok == "na"


def test_check_graph_non_strong_is_all_na():
    rec = check_graph(Digraph(4, [(0, 1), (1, 2), (2, 3)]))
    assert not rec.is_strong
    assert set(rec.clauses().values()) == {"na"}
    assert rec.lambda_ is None and rec.lambda_prime is None


def test_check_graph_residual_reading_labelled():
    rec = check_graph(Digraph(3, [(0, 1), (1, 2), (2, 0)]), reading=RESIDUAL_HOST)
    assert rec.reading == "residual"


@given(st.sampled_from(RECORD_FIELDS))
def test_record_row_round_trip_field(field):
    D = Digraph(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 1), (5, 6), (6, 7), (7, 4)],
    )
    rec = check_graph(D)
    again = VerificationRecord.from_row(rec.to_row())
    assert again == rec
    attr = "lambda_" if field == "lambda" else field
    assert getattr(again, attr) == getattr(rec, attr)


def test_record_row_round_trip_cells():
    """Records holding None, bool, int and str cells come back from their rows."""
    base = check_graph(Digraph.from_code(6, 110009), check_proof=True)
    records = [
        base,
        check_graph(Digraph(3)),
        check_graph(Digraph(3, [(0, 1), (1, 2), (2, 0)]), reading=RESIDUAL_HOST),
        replace(base, girth=None, is_strong=False, family=None, family_params=None,
                lambda_=None, lambda_prime_exists=None, lambda_prime=None, xi=None),
        replace(base, lambda_prime_exists=True, lambda_prime=0, xi=7, family="H2", theorem1_ok="fail"),
    ]
    cells = {type(value) for rec in records for value in rec.__dict__.values()}
    assert cells == {type(None), bool, int, str}
    for rec in records:
        row = rec.to_row()
        assert all(type(cell) is str for cell in row) and len(row) == len(RECORD_FIELDS)
        assert VerificationRecord.from_row(row) == rec
    assert records[3].to_row()[3:11] == ["", "false", "", "", "", "", "", ""]
    assert records[4].to_row()[8:11] == ["true", "0", "7"]


def test_sweep_n4_pinned_counts(tmp_path):
    spec = SweepSpec(n_lo=4, n_hi=4)
    res = run_sweep(spec, out_dir=str(tmp_path / "out"))
    assert res.seen == 729 and res.strong == 66 and res.stratum == 6
    assert res.family_counts == {"H1": 6}
    assert res.lambda_prime_connected == 0
    assert res.accounting_ok and res.ok
    assert res.clause_tallies["theorem1_ok"] == {"pass": 6, "fail": 0, "na": 0}

    csv_rows = read_records_csv(res.paths["records"])
    assert [r.graph_id for r in csv_rows] == sorted(r.graph_id for r in csv_rows)
    assert csv_rows == res.records
    with open(res.paths["summary"]) as fh:
        summary = json.load(fh)
    assert summary["ok"] and summary["per_n"]["4"]["stratum"] == 6
    assert os.path.getsize(res.paths["counterexamples"]) == 0


def test_sweep_summary_independent_of_chunking_and_jobs():
    base = run_sweep(SweepSpec(n_lo=5, n_hi=5)).summary()
    chunked = run_sweep(SweepSpec(n_lo=5, n_hi=5, chunk_size=7_000)).summary()
    parallel = run_sweep(SweepSpec(n_lo=5, n_hi=5, chunk_size=7_000, jobs=2)).summary()
    for other in (chunked, parallel):
        for key in ("seen", "strong", "stratum", "family_counts", "clause_tallies"):
            assert other[key] == base[key]


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_resume_matches_uninterrupted(tmp_path, jobs):
    spec = SweepSpec(n_lo=5, n_hi=5, chunk_size=9_000, jobs=jobs)
    solid = run_sweep(spec, out_dir=str(tmp_path / "solid"))

    out = str(tmp_path / "resumed")
    part = run_sweep(spec, out_dir=out, _stop_after_chunks=3)
    assert not part.completed and "records" not in part.paths
    resumed = run_sweep(spec, out_dir=out, resume=True)
    assert resumed.completed
    assert resumed.summary() == {**solid.summary(), "runtime_seconds": resumed.summary()["runtime_seconds"]}
    with open(os.path.join(out, "records.csv")) as fh:
        with open(solid.paths["records"]) as fh2:
            assert fh.read() == fh2.read()


def test_audit_sweep_resume_matches_uninterrupted(tmp_path):
    """The other reading's records travel through the checkpoint as
    other_rows, so a resumed audit sweep writes the same audit.json and
    summary.json as one run straight through."""
    spec = SweepSpec(n_lo=6, n_hi=6, mode="random", samples=120_000, seed=3,
                     chunk_size=30_000, audit_readings=True)
    solid = run_sweep(spec, out_dir=str(tmp_path / "solid"))
    assert solid.audit["value_differs"] > 0 and solid.audit["examples"]["value"]

    out = tmp_path / "resumed"
    part = run_sweep(spec, out_dir=str(out), _stop_after_chunks=2)
    assert not part.completed
    resumed = run_sweep(spec, out_dir=str(out), resume=True)
    assert resumed.completed and resumed.audit == solid.audit
    assert (out / "audit.json").read_text() == (tmp_path / "solid" / "audit.json").read_text()
    summaries = [json.loads((d / "summary.json").read_text()) for d in (out, tmp_path / "solid")]
    for summary in summaries:
        summary.pop("runtime_seconds")
    assert summaries[0] == summaries[1]


def test_audit_sweep_resume_needs_the_other_readings_rows(tmp_path):
    """An audit sweep's chunk line without other_rows cannot be resumed:
    its audit would silently count fewer graphs."""
    spec = SweepSpec(n_lo=5, n_hi=5, chunk_size=10_000, audit_readings=True)
    out = tmp_path / "out"
    run_sweep(spec, out_dir=str(out))
    ck = out / "checkpoint.jsonl"
    lines = ck.read_text().splitlines()
    entry = json.loads(lines[1])
    del entry["chunk"]["other_rows"]
    lines[1] = json.dumps(entry)
    ck.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="checkpoint line 2 is not a chunk entry"):
        run_sweep(spec, out_dir=str(out), resume=True)


def test_sweep_parses_rows_only_when_resuming(tmp_path, monkeypatch):
    """Records travel as objects; only a checkpoint read back parses rows."""
    calls = []
    real = VerificationRecord.from_row.__func__

    def counting(cls, row):
        calls.append(row)
        return real(cls, row)

    monkeypatch.setattr(VerificationRecord, "from_row", classmethod(counting))
    spec = SweepSpec(n_lo=5, n_hi=5, chunk_size=9_000)
    fresh = run_sweep(spec, out_dir=str(tmp_path / "fresh"))
    assert fresh.completed and fresh.stratum > 0 and calls == []

    out = tmp_path / "resumed"
    run_sweep(spec, out_dir=str(out), _stop_after_chunks=3)
    with open(out / "checkpoint.jsonl") as fh:
        saved = [row for line in fh for row in json.loads(line).get("chunk", {}).get("rows", [])]
    assert calls == [] and saved
    resumed = run_sweep(spec, out_dir=str(out), resume=True)
    assert calls == saved
    assert resumed.records == fresh.records


def test_reading_audit_measures_each_graph_once(monkeypatch):
    """With the audit on, only lambda' is taken again for the other reading,
    and only the first graph of each class is measured.  A later family
    member reads its parameters off the class's sites, so match_family runs
    once per class."""
    import arcconn.verify as verify

    calls = {}
    for name in ("girth", "match_family", "arc_connectivity", "xi",
                 "lambda_prime_existence_witness", "lambda_prime_exact"):
        real = getattr(verify, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(verify, name, counting)
    res = run_sweep(SweepSpec(n_lo=5, n_hi=5, audit_readings=True, check_proof_cuts=True))
    graphs = res.stratum
    assert graphs == res.audit["graphs"] == 300
    classes = len({oracle_canonical_form(parse_digraph6(rec.graph_id)) for rec in res.records})
    assert classes == 3 and res.family_total == graphs
    assert calls == {
        "girth": classes,
        "match_family": classes,
        "arc_connectivity": classes,
        "xi": classes,
        "lambda_prime_existence_witness": classes,
        "lambda_prime_exact": 2 * classes,
    }


def test_measure_lists_girth_cycles_once(monkeypatch, l8):
    """The girth kernel, the cycle enumeration and the strongness kernel run
    once per graph measured: on the sweep path (H1 recognition and the proof
    clause included) and on the direct calls the params command makes.  An
    exhaustive sweep measures one graph per class; a later graph of a class
    takes no strongness run, no girth run and no enumeration, a family
    member included, since its parameters are read off the class's sites."""
    import arcconn
    import arcconn._kernels as kernels
    import arcconn.connectivity as connectivity
    import arcconn.cycles as cycles
    import arcconn.families as families

    calls = {}

    def count(key, real):
        def counting(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return real(*args, **kwargs)

        return counting

    # The filters judge codes with the same girth kernel, so a graph's girth
    # runs are counted where cycles.girth, their only caller, makes them.
    monkeypatch.setattr(cycles, "_kernels", SimpleNamespace(girth=count("girth", kernels.girth)))
    monkeypatch.setattr(kernels, "is_strong", count("is_strong", kernels.is_strong))
    # Every module that binds the enumeration, so no route to it goes uncounted.
    real_enum = cycles.cycles_of_length
    counting_enum = count("enumerations", real_enum)
    for owner in (cycles, connectivity, families, arcconn):
        if getattr(owner, "cycles_of_length", None) is real_enum:
            monkeypatch.setattr(owner, "cycles_of_length", counting_enum)

    res = run_sweep(SweepSpec(n_lo=5, n_hi=5, check_proof_cuts=True))
    assert res.stratum == 300
    assert res.family_counts.get("H1", 0) > 0
    # n=6 runs the proof clause, which n=5 (below its stratum) does not.
    res6 = run_sweep(SweepSpec(n_lo=6, n_hi=6, mode="random", samples=20_000,
                               seed=5, check_proof_cuts=True))
    assert res6.clause_tallies["proof_ok"]["pass"] > 0
    classes = {oracle_canonical_form(parse_digraph6(rec.graph_id)) for rec in res.records}
    h1_pass = [rec for rec in res.records if rec.family is not None and rec.m == 2 * rec.n - 4]
    h1_pass_classes = {oracle_canonical_form(parse_digraph6(rec.graph_id)) for rec in h1_pass}
    assert len(classes) == 3 and len(h1_pass) == 180 and len(h1_pass_classes) == 2
    measured = len(classes) + res6.stratum
    assert calls == {"girth": measured, "enumerations": measured, "is_strong": measured}

    h1 = generate(FamilyParams(Family.H1, (1, 1, 0, 0)))
    # generate has taken h1's girth and strongness, so measure a fresh copy.
    for D in (l8, Digraph(h1.n, h1.arcs)):
        calls.clear()
        arcconn.match_family(D)
        arcconn.arc_connectivity(D)
        arcconn.lambda_prime_exact(D)
        arcconn.xi(D)
        arcconn.lambda_prime_existence_witness(D)
        assert calls == {"girth": 1, "enumerations": 1, "is_strong": 1}


def _sweep_files(spec: SweepSpec, out) -> dict[str, bytes]:
    """The files a completed sweep writes, summary.json without its runtime."""
    res = run_sweep(spec, out_dir=str(out))
    assert res.completed
    files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "checkpoint.jsonl"}
    summary = json.loads(files["summary.json"])
    summary.pop("runtime_seconds")
    files["summary.json"] = json.dumps(summary).encode()
    return files


@pytest.mark.parametrize(
    "spec",
    [
        SweepSpec(n_lo=3, n_hi=5, girth=None, check_proof_cuts=True, chunk_size=9_000),
        SweepSpec(n_lo=3, n_hi=5, girth=None, check_proof_cuts=True, chunk_size=9_000, reading=RESIDUAL_HOST),
        SweepSpec(n_lo=4, n_hi=5, girth=None, check_proof_cuts=True, chunk_size=9_000, audit_readings=True),
    ],
    ids=["original", "residual", "audit"],
)
def test_class_memo_writes_the_files_of_a_sweep_without_it(tmp_path, monkeypatch, spec):
    """Records, summary and audit come out byte for byte as when every graph
    is measured, with one job (one memo across the chunks) and with two
    (each chunk its own memo)."""
    memo_on = _sweep_files(spec, tmp_path / "memo")
    two_jobs = _sweep_files(replace(spec, jobs=2), tmp_path / "jobs")
    real = verify.check_graph
    monkeypatch.setattr(verify, "check_graph", lambda *args, memo=None, **kwargs: real(*args, **kwargs))
    memo_off = _sweep_files(spec, tmp_path / "plain")
    assert memo_on == memo_off
    assert two_jobs == {**memo_off, "summary.json": two_jobs["summary.json"]}
    assert json.loads(two_jobs["summary.json"]) == {**json.loads(memo_off["summary.json"]), "jobs": 2}
    assert ("audit.json" in memo_on) == spec.audit_readings


def test_class_memo_reads_each_labelings_family_params():
    """Codes 110009 and 110010 of order 6 are one H1 class, which
    match_family reads with different parameters; a chunk holding both
    judges the class once and keeps each labeling's digraph6 and parameters."""
    codes = (110009, 110010)
    direct = [check_graph(Digraph.from_code(6, code), check_proof=True) for code in codes]
    assert [rec.family_params for rec in direct] == ["H1(p=0,q=0,r=1,s=1)", "H1(p=1,q=1,r=0,s=0)"]
    memo = {}
    spec = SweepSpec(n_lo=6, n_hi=6, check_proof_cuts=True)
    _, chunk = verify._run_chunk((spec, ("x:6:110009:110011", 6, "range", (110009, 110011)), memo))
    assert chunk.records == direct
    assert len(memo) == 1
    labeled = ("graph_id", "family_params")
    assert replace(direct[0], **{name: getattr(direct[1], name) for name in labeled}) == direct[1]


def _family_labelings(n: int, rnd: random.Random):
    """Every labeling of order 4..6, and 300 seeded ones at orders 7 and 8."""
    if n <= 6:
        return itertools.permutations(range(n))
    return (rnd.sample(range(n), n) for _ in range(300))


@pytest.mark.parametrize("n", range(4, 9))
def test_memo_hits_read_the_params_match_family_reports(n):
    """A memo hit reads its family parameters off the class's sites, listed
    once from the graph measured first, through its own canonical
    labeling.  On every labeling of every family class of order 4..6, and
    on 300 seeded labelings per class at orders 7 and 8, that reading is
    what match_family reports for the labeling, H1's rotated fan sizes and
    the spines of H2..H7 included."""
    rnd = random.Random(n)
    labelings = 0
    for params, G in family_census(n):
        first = G.relabel(rnd.sample(range(n), n))  # the graph a miss measures
        memo = {}
        check_graph(first, memo=memo)
        [(rec, sites)] = memo.values()
        assert sites and rec.family == params.family.value
        for perm in _family_labelings(n, rnd):
            E = G.relabel(perm)
            assert verify._relabeled(rec, sites, E).family_params == match_family(E).params.describe()
            labelings += 1
    assert labelings == {4: 24, 5: 3 * 120, 6: 11 * 720, 7: 16 * 300, 8: 27 * 300}[n]


def test_relabeled_copy_matches_dataclass_replace():
    """A memo hit's record is a copy of the class record's field dict
    with the two labeling fields swapped in: the record replace gives."""
    for code in (110009, 110010, 4_000_000, 0):
        rec = check_graph(Digraph.from_code(6, code), check_proof=True)
        for graph_id, params in (("E?~?", None), ("E?~?", "H1(p=0,q=0,r=1,s=1)")):
            copy = verify._with_labeling(rec, graph_id, params)
            assert copy == replace(rec, graph_id=graph_id, family_params=params)
            assert copy.to_row() == replace(rec, graph_id=graph_id, family_params=params).to_row()


def test_memo_hits_copy_the_class_record():
    """Over every stratum graph of one n = 6 slice (the codes whose pairs
    within {3, 4, 5} read 0, 0, 1), each memo hit's record is the class
    record with this labeling's digraph6 and family parameters: it equals
    and hashes like that replace copy, is a VerificationRecord, and is
    frozen."""
    _, _, codes = _kernels.filter_range(6, 3**12, 2 * 3**12, girth_target=4)
    memo = {}
    hits = 0
    for code in codes:
        D = Digraph.from_code(6, code)
        known, _ = memo.get(verify._class_key(D, ORIGINAL_HOST), (None, ()))
        rec = check_graph(D, check_proof=True, memo=memo)
        if known is None:
            continue
        hits += 1
        params = match_family(D).params.describe() if known.family is not None else None
        twin = replace(known, graph_id=emit_digraph6(D), family_params=params)
        assert rec == twin and hash(rec) == hash(twin)
        assert type(rec) is VerificationRecord
        with pytest.raises(FrozenInstanceError):
            rec.graph_id = "E?~?"
    assert (len(codes), hits) == (1_776, 1_710)


def test_sweep_reads_each_records_verdicts_once(tmp_path, monkeypatch):
    """run_sweep and its aggregate read a record's clause verdicts in one
    call per record, fresh or resumed, and tally them as clauses() reads."""
    calls = []
    read = verify._clause_verdicts
    monkeypatch.setattr(verify, "_clause_verdicts", lambda rec: calls.append(rec) or read(rec))
    spec = SweepSpec(n_lo=3, n_hi=5, girth=None, chunk_size=9_000)
    out = str(tmp_path / "out")
    run_sweep(spec, out_dir=out, _stop_after_chunks=2)
    fresh = len(calls)
    res = run_sweep(spec, out_dir=out, resume=True)
    assert fresh and len(calls) == fresh + len(res.records)
    tallies = {name: {"pass": 0, "fail": 0, "na": 0} for name in verify.CLAUSE_FIELDS}
    for rec in res.records:
        for name, verdict in rec.clauses().items():
            tallies[name][verdict] += 1
    assert res.clause_tallies == tallies


def test_verdicts_name_each_failing_clause():
    rec = check_graph(Digraph.from_code(6, 110009), check_proof=True)
    bad = replace(rec, theorem1_ok="fail", proof_ok="fail")
    verdicts = verify._Verdicts.read([rec, bad, rec])
    assert verdicts.failures == [(bad, ["theorem1_ok", "proof_ok"])]
    assert verdicts.counts == {tuple(rec.clauses().values()): 2, tuple(bad.clauses().values()): 1}


def test_sweep_resume_rejects_other_spec(tmp_path):
    out = str(tmp_path / "out")
    run_sweep(SweepSpec(n_lo=4, n_hi=4), out_dir=out)
    with pytest.raises(ValueError, match="different sweep configuration"):
        run_sweep(SweepSpec(n_lo=4, n_hi=4, girth=None), out_dir=out, resume=True)


def test_sweep_resume_needs_out_dir():
    with pytest.raises(ValueError, match="resume"):
        run_sweep(SweepSpec(n_lo=4, n_hi=4), resume=True)


@pytest.mark.parametrize("bad", ["{}", "[1, 2]", "7", '{"key": "x", "chunk": {"n": 4}}'])
def test_sweep_resume_rejects_malformed_chunk_line(tmp_path, bad):
    out = tmp_path / "out"
    run_sweep(SweepSpec(n_lo=4, n_hi=4), out_dir=str(out))
    ck = out / "checkpoint.jsonl"
    lines = ck.read_text().splitlines()
    ck.write_text("\n".join(lines + [bad]) + "\n")
    with pytest.raises(ValueError, match=f"checkpoint line {len(lines) + 1} "):
        run_sweep(SweepSpec(n_lo=4, n_hi=4), out_dir=str(out), resume=True)


def test_sweep_resume_rejects_a_chunk_the_sweep_does_not_plan(tmp_path, capsys):
    """A chunk line under a key the sweep does not plan would be counted
    into the totals and keep the sweep from ever completing; it names its
    line and key instead."""
    out = tmp_path / "out"
    spec = SweepSpec(n_lo=5, n_hi=5, chunk_size=10_000)
    run_sweep(spec, out_dir=str(out), _stop_after_chunks=5)
    ck = out / "checkpoint.jsonl"
    lines = ck.read_text().splitlines()
    stray = json.loads(lines[1])
    stray["key"] = "x:5:bogus"
    ck.write_text("\n".join(lines + [json.dumps(stray)]) + "\n")
    line = len(lines) + 1
    with pytest.raises(ValueError, match=f"checkpoint line {line} holds chunk 'x:5:bogus'"):
        run_sweep(spec, out_dir=str(out), resume=True)
    argv = ["sweep", "--n", "5", "--chunk-size", "10000", "--out", str(out), "--resume", "--quiet"]
    assert cli.main(argv) == 2
    assert f"checkpoint line {line} holds chunk 'x:5:bogus'" in capsys.readouterr().err


def test_sweep_resume_skips_torn_last_line(tmp_path):
    out = tmp_path / "out"
    spec = SweepSpec(n_lo=4, n_hi=4)
    fresh = run_sweep(spec, out_dir=str(out))
    ck = out / "checkpoint.jsonl"
    ck.write_text(ck.read_text() + '{"key": "4:0", "chu')
    assert run_sweep(spec, out_dir=str(out), resume=True).records == fresh.records


@pytest.mark.parametrize("tear", ["fragment", "newline"])
def test_sweep_resumed_after_a_torn_line_resumes_again(tmp_path, tear):
    """A resumed run writes after the last whole line, not after a torn
    one, so the checkpoint it leaves can be resumed once more."""
    spec = SweepSpec(n_lo=5, n_hi=5, chunk_size=10_000)
    solid = run_sweep(spec)
    out = tmp_path / "out"
    run_sweep(spec, out_dir=str(out), _stop_after_chunks=2)
    ck = out / "checkpoint.jsonl"
    text = ck.read_text()
    ck.write_text(text + '{"key": "5:0", "chu' if tear == "fragment" else text.rstrip("\n"))
    part = run_sweep(spec, out_dir=str(out), resume=True, _stop_after_chunks=1)
    assert not part.completed
    assert all(json.loads(line) for line in ck.read_text().splitlines())
    resumed = run_sweep(spec, out_dir=str(out), resume=True)
    assert resumed.completed and resumed.records == solid.records


def test_sweep_resume_skips_a_non_ascii_last_line(tmp_path):
    """A last line that is not ASCII is torn like one that is not JSON."""
    out = tmp_path / "out"
    spec = SweepSpec(n_lo=4, n_hi=4)
    fresh = run_sweep(spec, out_dir=str(out))
    ck = out / "checkpoint.jsonl"
    ck.write_bytes(ck.read_bytes() + b'{"key": "\xff')
    assert run_sweep(spec, out_dir=str(out), resume=True).records == fresh.records
    assert all(json.loads(line) for line in ck.read_text(encoding="ascii").splitlines())


def test_sweep_resume_names_a_non_ascii_line_before_the_last(tmp_path):
    out = tmp_path / "out"
    spec = SweepSpec(n_lo=5, n_hi=5, chunk_size=10_000)
    run_sweep(spec, out_dir=str(out))
    ck = out / "checkpoint.jsonl"
    lines = ck.read_bytes().splitlines()
    lines[2] = b"\xff" + lines[2]
    ck.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(ValueError, match="checkpoint line 3 is not JSON"):
        run_sweep(spec, out_dir=str(out), resume=True)


def test_sweep_resume_rejects_torn_line_before_the_last(tmp_path, capsys):
    """Only an interrupted run's last line may be torn: a line that is not
    JSON further up names its line instead of being skipped."""
    out = tmp_path / "out"
    spec = SweepSpec(n_lo=5, n_hi=5, chunk_size=10_000)
    run_sweep(spec, out_dir=str(out))
    ck = out / "checkpoint.jsonl"
    lines = ck.read_text().splitlines()
    assert len(lines) >= 4
    lines[2] = lines[2][: len(lines[2]) // 2]
    ck.write_text("\n".join(lines) + "\n\n")
    with pytest.raises(ValueError, match="checkpoint line 3 is not JSON"):
        run_sweep(spec, out_dir=str(out), resume=True)
    argv = ["sweep", "--n", "5", "--chunk-size", "10000", "--out", str(out), "--resume", "--quiet"]
    assert cli.main(argv) == 2
    assert "checkpoint line 3 is not JSON" in capsys.readouterr().err


def test_sweep_random_mode_records_match_direct_checks():
    spec = SweepSpec(n_lo=6, n_hi=6, mode="random", samples=3_000, seed=11)
    res = run_sweep(spec)
    assert res.seen == 3_000
    codes = sample_codes(6, 3_000, seed=11 + 6)
    directly = []
    for code in codes:
        D = Digraph.from_code(6, code)
        rec = check_graph(D)
        if rec.is_strong and rec.girth == 4:
            directly.append(rec)
    directly.sort(key=lambda r: r.graph_id)
    assert directly == res.records
    assert res.ok


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(n_lo=0, n_hi=4).validate()
    with pytest.raises(ValueError):
        SweepSpec(n_lo=4, n_hi=4, mode="stochastic").validate()
    with pytest.raises(ValueError):
        SweepSpec(n_lo=4, n_hi=4, mode="random").validate()
    SweepSpec(n_lo=4, n_hi=6).validate()
    for n_lo in (4, 7):
        with pytest.raises(CapExceeded, match="n=7 is above order 6; sweep it with --mode random"):
            SweepSpec(n_lo=n_lo, n_hi=7).validate()
    SweepSpec(n_lo=7, n_hi=7, mode="random", samples=1000).validate()
    SweepSpec(n_lo=4, n_hi=9, mode="random", samples=1).validate()
    SweepSpec(n_lo=18, n_hi=18, mode="random", samples=1).validate()
    for n_lo in (4, 19):
        with pytest.raises(CapExceeded, match="up to order 18, not n=19"):
            SweepSpec(n_lo=n_lo, n_hi=19, mode="random", samples=1).validate()
    for extra in ({"samples": 5}, {"seed": 3}, {"samples": 5, "seed": 3}):
        with pytest.raises(ValueError, match="only to a sweep with --mode random"):
            SweepSpec(n_lo=4, n_hi=4, **extra).validate()


def test_sweep_spec_reads_its_orders_as_digraph_does():
    for ends in ((4, Label(4)), (Label(4), 4), (Label(4), Label(5))):
        spec = SweepSpec(n_lo=ends[0], n_hi=ends[1])
        spec.validate()
        assert (type(spec.n_lo), type(spec.n_hi)) == (int, int)
    assert run_sweep(SweepSpec(n_lo=Label(4), n_hi=Label(4))).summary()["per_n"] == \
        run_sweep(SweepSpec(n_lo=4, n_hi=4)).summary()["per_n"]
    for ends in ((5, Label(4)), (Label(5), 4), (Label(5), Label(4)), (Label(0), 4)):
        with pytest.raises(ValueError, match="bad order range"):
            SweepSpec(n_lo=ends[0], n_hi=ends[1]).validate()
    for bad in (True, 4.0, "4"):
        with pytest.raises(InvalidVertex):
            SweepSpec(n_lo=bad, n_hi=4)
        with pytest.raises(InvalidVertex):
            SweepSpec(n_lo=4, n_hi=bad)


def test_sweep_spec_reads_its_counts_seed_and_girth_as_integers():
    """samples, seed, chunk_size, jobs and a girth filter are read as the
    orders are: an integer type other than int is held as an int, so
    validate compares it and _plan_chunks adds to the seed; a bool, a float
    or a str raises ValueError naming the field."""
    spec = SweepSpec(n_lo=5, n_hi=5, mode="random", samples=Label(300), seed=Label(7),
                     girth=Label(4), chunk_size=Label(100), jobs=Label(1))
    spec.validate()
    assert [type(getattr(spec, name)) for name in ("samples", "seed", "chunk_size", "jobs", "girth")] == [int] * 5
    assert [task[0] for task in verify._plan_chunks(spec)] == ["r:5:0:100", "r:5:100:200", "r:5:200:300"]
    plain = SweepSpec(n_lo=5, n_hi=5, mode="random", samples=300, seed=7, chunk_size=100)
    assert run_sweep(spec).records == run_sweep(plain).records
    assert SweepSpec(n_lo=4, n_hi=4, girth=None).girth is None
    for name in ("samples", "seed", "chunk_size", "jobs", "girth"):
        for bad in (True, 4.0, "4"):
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad!r}$"):
                SweepSpec(n_lo=4, n_hi=4, **{name: bad})


def test_sweep_counterexample_channel(tmp_path, monkeypatch):
    """Force a fake clause failure to prove counterexamples are emitted,
    persisted, and fail the run."""
    import arcconn.verify as verify

    real = verify.check_graph

    def sabotage(D, reading=None, check_proof=False, memo=None):
        rec = real(D, reading=reading or verify.ORIGINAL_HOST, check_proof=check_proof, memo=memo)
        if D.n == 4:
            rec = VerificationRecord(**{**rec.__dict__, "theorem1_ok": "fail"})
        return rec

    monkeypatch.setattr(verify, "check_graph", sabotage)
    seen_lines = []
    res = verify.run_sweep(
        verify.SweepSpec(n_lo=4, n_hi=4),
        out_dir=str(tmp_path / "out"),
        progress=seen_lines.append,
    )
    assert len(res.counterexamples) == 6
    assert not res.ok
    assert any("counterexample" in line for line in seen_lines)
    with open(res.paths["counterexamples"]) as fh:
        assert len(fh.read().splitlines()) == 6
    assert os.path.exists(res.paths["counterexamples_csv"])


def test_universe_size():
    assert [_kernels.universe_size(n) for n in range(5)] == [1, 1, 3, 27, 729]
    assert _kernels.universe_size(6) == 14_348_907
