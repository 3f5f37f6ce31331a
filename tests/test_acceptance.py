"""Acceptance gate: one verdict line per criterion, printed live.

Every test prints exactly one ``[PASS]``/``[FAIL]`` line (the family
round-trip prints its literal and adjusted variants separately) through
``capsys.disabled`` so the lines land in the terminal log even under
capture.  Tolerances are exact matches unless a runtime budget is stated.

Budgets asserted here: the n=5 sweep under 60 seconds, the n=6 exhaustive
sweep under 60 minutes, and the sampled n=6 fallback under 5 minutes, all
far above the measured times so slow machines still pass honestly.
"""

from __future__ import annotations

import json

import pytest

from arcconn import (
    CutOutcome,
    Digraph,
    Family,
    FamilyParams,
    SweepSpec,
    arc_connectivity,
    generate,
    lambda_prime_bruteforce,
    lambda_prime_exact,
    lambda_prime_exists,
    match_family,
    run_sweep,
    xi,
)
from arcconn import _kernels
from arcconn.families import _params_for_order
from arcconn.verify import sample_codes

from .conftest import brute_lambda

L8 = Digraph(
    8,
    [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 1), (5, 6), (6, 7), (7, 4)],
)

N6_FAMILY_COUNTS = {"H1": 1440, "H2": 210, "H3": 720, "H4": 360, "H6": 1440, "H7": 360}


def _report(capsys, ok: bool, name: str, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)


@pytest.fixture(scope="session")
def sweep_n5():
    return run_sweep(SweepSpec(n_lo=5, n_hi=5))


@pytest.fixture(scope="session")
def sweep_n6():
    return run_sweep(SweepSpec(n_lo=6, n_hi=6, check_proof_cuts=True))


def test_exhaustive_sweep_n5(sweep_n5, capsys):
    """All 59049 oriented graphs at n=5: Theorem 1 and family consistency."""
    res = sweep_n5
    ok = (
        res.ok
        and res.seen == 59_049
        and res.stratum == 300
        and res.clause_tallies["theorem1_ok"] == {"pass": 300, "fail": 0, "na": 0}
        and res.clause_tallies["family_consistency_ok"] == {"pass": 300, "fail": 0, "na": 0}
        and res.clause_tallies["bounds_ok"]["fail"] == 0
        and res.runtime < 60.0
    )
    _report(
        capsys, ok, "exhaustive theorem sweep n=5",
        f"59049 graphs, 300 strong girth-4 (all family members), "
        f"0 violations, {res.runtime:.1f}s (< 60s)",
    )
    assert ok


def test_exhaustive_sweep_n6_with_sampled_fallback(sweep_n6, capsys):
    """All 14,348,907 oriented graphs at n=6: Theorem 1 plus the bound
    lambda <= lambda' <= xi on every strong girth-4 non-family graph; then
    the documented sampled fallback (10^6 graphs, fixed seed)."""
    res = sweep_n6
    exhaustive_ok = (
        res.ok
        and res.seen == 14_348_907
        and res.stratum == 44_070
        and res.family_counts == N6_FAMILY_COUNTS
        and res.lambda_prime_connected == 39_540
        and res.clause_tallies["theorem1_ok"] == {"pass": 44_070, "fail": 0, "na": 0}
        and res.clause_tallies["bounds_ok"] == {"pass": 39_540, "fail": 0, "na": 4_530}
        and res.accounting_ok
        and res.runtime < 3_600.0
    )
    fallback = run_sweep(SweepSpec(n_lo=6, n_hi=6, mode="random", samples=10**6, seed=20_260_815))
    fallback_ok = fallback.ok and fallback.runtime < 300.0
    ok = exhaustive_ok and fallback_ok
    _report(
        capsys, ok, "exhaustive theorem sweep n=6",
        f"14348907 graphs, stratum 44070 = 4530 family + 39540 lambda'-connected, "
        f"0 violations, {res.runtime:.1f}s (< 3600s); sampled fallback 10^6 seed=20260815: "
        f"{len(fallback.records)} stratum records, 0 violations, "
        f"{fallback.runtime:.1f}s (< 300s)",
    )
    assert ok


def test_oracle_equivalence_exact_vs_bruteforce(capsys):
    """Exact and brute-force lambda' agree (existence and cardinality) on
    every strong girth-4 graph at n=5 and on 1000 seeded strong n=7 samples."""
    _, _, codes = _kernels.filter_range(5, 0, 3**10, girth_target=4)
    n5_checked = 0
    agree = True
    for code in codes:
        D = Digraph.from_code(5, code)
        cert = lambda_prime_exact(D)
        brute = lambda_prime_bruteforce(D, k_max=D.m)
        agree &= cert.outcome is brute.outcome and cert.value == brute.value
        n5_checked += 1

    strong_n7 = []
    for code in sample_codes(7, 10**4, seed=777):
        D = Digraph.from_code(7, code)
        if D.is_strong():
            strong_n7.append(D)
            if len(strong_n7) == 1_000:
                break
    n7_found = n7_nonexistent = 0
    for D in strong_n7:
        cert = lambda_prime_exact(D)
        if cert.found:
            brute = lambda_prime_bruteforce(D, k_max=cert.value)
            agree &= brute.outcome is CutOutcome.FOUND and brute.value == cert.value
            n7_found += 1
        else:
            # prove nonexistence by exhausting every subset
            brute = lambda_prime_bruteforce(D, k_max=D.m)
            agree &= brute.outcome is CutOutcome.NONEXISTENT
            n7_nonexistent += 1

    ok = agree and n5_checked == 300 and len(strong_n7) == 1_000
    _report(
        capsys, ok, "oracle equivalence exact = bruteforce",
        f"{n5_checked} strong girth-4 graphs at n=5 (all nonexistent, proven by "
        f"subset exhaustion) and 1000 seeded strong n=7 samples "
        f"({n7_found} found, {n7_nonexistent} nonexistent), zero tolerance",
    )
    assert ok


def test_lambda_against_bruteforce_all_strong_up_to_n5(capsys):
    """arc_connectivity equals the minimum disconnecting arc subset on every
    strong oriented graph with n <= 5.

    Graphs of minimum degree 1 return before any flow runs, so the flow path
    is checked on the rest: the 24 regular tournaments on 5 vertices.
    """
    checked = 0
    by_flow = 0
    agree = True
    for n in (2, 3, 4, 5):
        size = 3 ** (n * (n - 1) // 2)
        _, strong_count, codes = _kernels.filter_range(n, 0, size, girth_target=0)
        assert strong_count == len(codes)
        for code in codes:
            D = Digraph.from_code(n, code)
            lam = arc_connectivity(D)
            agree &= lam == brute_lambda(D)
            checked += 1
            if min(min(s.bit_count(), p.bit_count()) for s, p in zip(D.succ, D.pred)) >= 2:
                by_flow += 1
                agree &= n == 5 and D.m == 10 and lam == 2
    ok = agree and checked == 2 + 66 + 7_998 and by_flow == 24
    _report(
        capsys, ok, "lambda correctness vs brute force",
        f"{checked} strong oriented graphs with n <= 5 (2 + 66 + 7998), exact match; "
        f"{by_flow} of them (the regular 5-tournaments) through the flows",
    )
    assert ok


def test_named_instances(capsys):
    """Pinned values: L8, H1(1,1,1,1), and the bare 4-cycle."""
    l8_cert = lambda_prime_exact(L8)
    l8_brute = lambda_prime_bruteforce(L8, k_max=L8.m)
    l8_ok = (
        arc_connectivity(L8) == 1
        and brute_lambda(L8) == 1
        and l8_cert.found and l8_cert.value == 1
        and l8_brute.found and l8_brute.value == 1
        and xi(L8).value == 1
    )

    h1 = generate(FamilyParams(Family.H1, (1, 1, 1, 1)))
    h1_ok = (
        not lambda_prime_exists(h1)
        and lambda_prime_bruteforce(h1, k_max=h1.m).outcome is CutOutcome.NONEXISTENT
        and xi(h1).value == 4
    )

    c4 = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    c4_ok = (
        not lambda_prime_exists(c4)
        and lambda_prime_bruteforce(c4, k_max=c4.m).outcome is CutOutcome.NONEXISTENT
    )

    ok = l8_ok and h1_ok and c4_ok
    _report(
        capsys, ok, "named instances",
        "L8 lambda=lambda'=xi=1 (brute-force confirmed); H1(1,1,1,1) lambda' "
        "nonexistent with xi=4; bare 4-cycle lambda' nonexistent",
    )
    assert ok


# The seven parameterizations whose generated graphs are literally identical
# or isomorphic to a member of an earlier family, so no matcher can return
# their own label: H3 with p=q=0 collapses to H2(r,0) arc for arc, and every
# H5 member is isomorphic to H4(p-1) with the matching orientation.
EXPECTED_LITERAL_FAILURES = {
    ("H3", (0, 0, 0), ()),
    ("H3", (0, 0, 1), ()),
    ("H3", (0, 0, 2), ()),
    ("H5", (1,), ("xz",)),
    ("H5", (1,), ("zx",)),
    ("H5", (2,), ("xz",)),
    ("H5", (2,), ("zx",)),
}


def test_family_round_trip_up_to_n7(capsys):
    """match_family(generate(params)).family == params.family for every
    parameter choice with n <= 7.

    The literal criterion is unattainable: seven parameterizations collide
    with earlier families (see EXPECTED_LITERAL_FAILURES), which is a fact
    about the family definitions, not about the matcher.  The adjusted
    criterion requires an exact match that regenerates an isomorphic graph
    and labels collisions with the first family in H1..H7 order.
    """
    params_list = []
    for n in range(4, 8):
        params_list.extend(_params_for_order(n))

    literal_failures = set()
    adjusted_ok = True
    for params in params_list:
        D = generate(params)
        match = match_family(D)
        if match is None:
            adjusted_ok = False
            continue
        if match.family is not params.family:
            literal_failures.add((params.family.value, params.sizes, params.orientations))
            # the label must move to an earlier family, never a later one
            order = [f.value for f in Family]
            adjusted_ok &= order.index(match.family.value) < order.index(params.family.value)
        adjusted_ok &= generate(match.params).canonical_form() == D.canonical_form()

    literal_ok = not literal_failures
    _report(
        capsys, literal_ok, "family round-trip n <= 7 (literal)",
        f"{len(params_list) - len(literal_failures)}/{len(params_list)} parameter "
        f"sets return their own label; {len(literal_failures)} collide with an "
        f"earlier family (H3(0,0,r) = H2(r,0) arc for arc; H5(p) isomorphic to "
        f"H4(p-1)), so the literal 100% is unattainable",
    )
    adjusted_ok &= literal_failures == EXPECTED_LITERAL_FAILURES
    _report(
        capsys, adjusted_ok, "family round-trip n <= 7 (adjusted)",
        f"{len(params_list)}/{len(params_list)} parameter sets match exactly, "
        f"regenerate isomorphic graphs, and label the documented collisions "
        f"with the first containing family",
    )
    assert adjusted_ok
    assert literal_failures == EXPECTED_LITERAL_FAILURES


def test_proof_construction_property_n6(sweep_n6, capsys):
    """Every strong girth-4 non-family graph at n=6 admits a constructive
    cut over some girth cycle that is a valid restricted cut of size <= xi."""
    res = sweep_n6
    tallies = res.clause_tallies["proof_ok"]
    ok = tallies == {"pass": 39_540, "fail": 0, "na": 4_530}
    _report(
        capsys, ok, "proof-construction property n=6",
        f"{tallies['pass']} non-family stratum graphs each yield a valid "
        f"constructive cut of size <= xi; {tallies['na']} family members exempt",
    )
    assert ok


def test_definitional_reading_audit_artifact(tmp_path, capsys):
    """Run the n=5 sweep under both readings and emit the comparison report;
    the report itself is the artifact."""
    out = str(tmp_path / "audit_run")
    res = run_sweep(SweepSpec(n_lo=5, n_hi=5, audit_readings=True), out_dir=out)
    audit_path = res.paths.get("audit")
    ok = audit_path is not None
    payload = {}
    if ok:
        with open(audit_path) as fh:
            payload = json.load(fh)
        ok = (
            payload.get("graphs") == 300
            and set(payload.get("clause_differs", {})) == {
                "theorem1_ok", "bounds_ok", "family_consistency_ok", "proof_ok",
            }
            and "existence_differs" in payload
            and "value_differs" in payload
        )
    _report(
        capsys, ok, "definitional-reading audit n=5",
        f"audit.json written with per-clause difference counts "
        f"(existence differs: {payload.get('existence_differs')}, cardinality "
        f"differs: {payload.get('value_differs')}, clause verdicts differ: "
        f"{sum(payload.get('clause_differs', {}).values())})",
    )
    assert ok
