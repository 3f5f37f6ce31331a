"""Connectivity parameters: xi, lambda, restricted cuts, and both lambda' routes."""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import assume, example, given, strategies as st

from arcconn import (
    CutOutcome,
    Digraph,
    Family,
    FamilyParams,
    NotAFourCycle,
    NotAGirthCycle,
    NotStrong,
    ORIGINAL_HOST,
    RESIDUAL_HOST,
    UnknownArc,
    arc_connectivity,
    generate,
    is_restricted_arc_cut,
    lambda_prime_bruteforce,
    lambda_prime_exact,
    lambda_prime_existence_witness,
    lambda_prime_exists,
    proof_cut_constructions,
    xi,
    xi_of_cycle,
)
from arcconn import _kernels, connectivity, families

from .conftest import (
    stratum_codes,
    stratum_digraphs,
    brute_lambda,
    brute_lambda_prime,
    double_cycle_digraphs,
    oracle_proof_cut_constructions,
    oracle_restricted_witness,
    oracle_sccs,
    sparse_strong_digraphs,
    strong_digraphs,
)


# ---------------------------------------------------------------------------
# xi


def test_xi_l8(l8):
    res = xi(l8)
    assert res.value == 1
    assert res.cycle == (0, 1, 2, 3)


def test_xi_four_cycle(four_cycle):
    assert xi(four_cycle).value == 0
    assert xi_of_cycle(four_cycle, (0, 1, 2, 3)) == 0


def test_xi_of_cycle_rejects_non_girth_cycle(l8):
    with pytest.raises(NotAGirthCycle):
        xi_of_cycle(l8, (0, 1, 2))
    with pytest.raises(NotAGirthCycle):
        xi_of_cycle(l8, (0, 1, 3, 2))


@given(strong_digraphs(min_n=3, max_n=6))
def test_xi_is_min_over_girth_cycles(D):
    from arcconn import girth_cycles

    assume(D.n >= 3)
    res = xi(D)
    values = [xi_of_cycle(D, C) for C in girth_cycles(D)]
    assert res.value == min(values)
    assert xi_of_cycle(D, res.cycle) == res.value


# ---------------------------------------------------------------------------
# lambda


def test_arc_connectivity_l8(l8):
    assert arc_connectivity(l8) == 1


def test_arc_connectivity_requires_strong():
    with pytest.raises(NotStrong):
        arc_connectivity(Digraph(3, [(0, 1), (1, 2)]))
    with pytest.raises(NotStrong):
        arc_connectivity(Digraph(1, []))


@given(strong_digraphs(min_n=3, max_n=5))
def test_arc_connectivity_matches_bruteforce(D):
    assert arc_connectivity(D) == brute_lambda(D)


@given(strong_digraphs(min_n=3, max_n=6), st.randoms(use_true_random=False))
def test_arc_connectivity_relabel_invariant(D, rnd):
    perm = list(range(D.n))
    rnd.shuffle(perm)
    assert arc_connectivity(D.relabel(perm)) == arc_connectivity(D)
    assert arc_connectivity(D.reverse()) == arc_connectivity(D)


# ---------------------------------------------------------------------------
# is_restricted_arc_cut: pinned witnesses and the definition oracle


def test_restricted_cut_witnesses_l8(l8):
    comp, arc = is_restricted_arc_cut(l8, [(5, 1)])
    assert comp == (4, 5, 6, 7) and arc == (0, 1)
    comp, arc = is_restricted_arc_cut(l8, [(0, 4)])
    assert comp == (0, 1, 2, 3) and arc == (4, 5)


def test_restricted_cut_rejects_unknown_arc(l8):
    with pytest.raises(UnknownArc) as err:
        is_restricted_arc_cut(l8, [(1, 0)])
    assert err.value.arc == (1, 0)


def test_restricted_cut_non_cut(four_cycle):
    assert is_restricted_arc_cut(four_cycle, [(0, 1)]) is None


@given(strong_digraphs(min_n=3, max_n=6), st.data())
def test_restricted_cut_matches_definition_oracle(D, data):
    k = data.draw(st.integers(min_value=0, max_value=min(3, D.m)))
    S = data.draw(st.permutations(list(D.arcs))).copy()[:k]
    for reading, residual in ((ORIGINAL_HOST, False), (RESIDUAL_HOST, True)):
        ours = is_restricted_arc_cut(D, S, reading=reading)
        oracle = oracle_restricted_witness(D, S, residual_host=residual)
        if oracle is None:
            assert ours is None
        else:
            assert ours is not None
            comp, arc = ours
            # our scan has a pinned tie-break; the oracle only certifies
            # that some witness exists, so re-check ours against the oracle
            recheck = oracle_restricted_witness(D, S, residual_host=residual)
            assert recheck is not None
            gone = set(S)
            rest = [a for a in D.arcs if a not in gone]
            host = rest if residual else D.arcs
            assert arc in host
            assert arc[0] not in comp and arc[1] not in comp


# ---------------------------------------------------------------------------
# lambda': the two routes agree with each other and with the subset oracle


def test_lambda_prime_exact_l8(l8):
    cert = lambda_prime_exact(l8)
    assert cert.found and cert.value == 1
    assert cert.outcome is CutOutcome.FOUND
    comp, arc = is_restricted_arc_cut(l8, cert.cut)
    assert tuple(sorted(cert.component)) == comp


def test_lambda_prime_exact_requires_strong():
    with pytest.raises(NotStrong):
        lambda_prime_exact(Digraph(3, [(0, 1), (1, 2)]))


def test_lambda_prime_nonexistent_four_cycle(four_cycle):
    cert = lambda_prime_exact(four_cycle)
    assert not cert.found and cert.outcome is CutOutcome.NONEXISTENT
    assert not lambda_prime_exists(four_cycle)
    brute = lambda_prime_bruteforce(four_cycle, k_max=four_cycle.m)
    assert brute.outcome is CutOutcome.NONEXISTENT


def test_lambda_prime_bruteforce_unknown_below_bound(l8):
    # lambda'(L8) = 1, so searching below 1 proves nothing
    cert = lambda_prime_bruteforce(l8, k_max=0)
    assert cert.outcome is CutOutcome.UNKNOWN_BELOW_BOUND
    assert cert.searched_bound == 0


def test_bruteforce_default_searches_every_arc_set(l8, monkeypatch):
    """With no k_max the oracle searches up to |A(D)|: it assumes no bound
    from the theorems it checks, so it consults neither xi nor the family
    recognizer."""

    def consulted(D):
        raise AssertionError("the oracle consulted a bound it is meant to check")

    monkeypatch.setattr(connectivity, "xi", consulted)
    monkeypatch.setattr(families, "match_family", consulted)
    rng = random.Random(7)
    codes = [rng.randrange(3 ** 21) for _ in range(20_000)]
    strong = _kernels.filter_codes(7, codes[:40], 0)[2][:6]
    girth4 = _kernels.filter_codes(7, codes, 4)[2][:6]
    assert len(strong) == len(girth4) == 6
    h1 = generate(FamilyParams(Family.H1, (1, 0, 1, 0)))
    for D in [l8, h1] + [Digraph.from_code(7, c) for c in strong + girth4]:
        for reading in (ORIGINAL_HOST, RESIDUAL_HOST):
            default = lambda_prime_bruteforce(D, reading=reading)
            assert default == lambda_prime_bruteforce(D, k_max=D.m, reading=reading)
            assert default.outcome is not CutOutcome.UNKNOWN_BELOW_BOUND


@given(strong_digraphs(min_n=3, max_n=5))
def test_exact_equals_bruteforce_and_subset_oracle(D):
    for reading, residual in ((ORIGINAL_HOST, False), (RESIDUAL_HOST, True)):
        cert = lambda_prime_exact(D, reading=reading)
        brute = lambda_prime_bruteforce(D, k_max=D.m, reading=reading)
        oracle = brute_lambda_prime(D, residual_host=residual)
        if oracle is None:
            assert cert.outcome is CutOutcome.NONEXISTENT
            assert brute.outcome is CutOutcome.NONEXISTENT
        else:
            assert cert.found and brute.outcome is CutOutcome.FOUND
            assert cert.value == brute.value == oracle[0]


@given(strong_digraphs(min_n=3, max_n=6))
def test_exact_cut_is_a_valid_restricted_cut(D):
    for reading in (ORIGINAL_HOST, RESIDUAL_HOST):
        cert = lambda_prime_exact(D, reading=reading)
        if cert.found:
            witness = is_restricted_arc_cut(D, cert.cut, reading=reading)
            assert witness is not None
            assert len(cert.cut) == cert.value


@given(strong_digraphs(min_n=3, max_n=6))
def test_existence_witness_matches_exact(D):
    witness = lambda_prime_existence_witness(D)
    cert = lambda_prime_exact(D)
    assert (witness is not None) == cert.found
    assert lambda_prime_exists(D) == cert.found
    if witness is not None:
        cycle, arc = witness
        from arcconn import girth, is_cycle

        assert is_cycle(D, cycle) and len(cycle) == girth(D)
        assert arc[0] not in cycle and arc[1] not in cycle
        assert D.has_arc(*arc)


@given(strong_digraphs(min_n=3, max_n=6))
def test_readings_agree_on_existence(D):
    a = lambda_prime_exact(D, reading=ORIGINAL_HOST)
    b = lambda_prime_exact(D, reading=RESIDUAL_HOST)
    assert a.found == b.found
    if a.found:
        assert a.value <= b.value  # residual hosts are a subset of original hosts


@given(strong_digraphs(min_n=3, max_n=6), st.randoms(use_true_random=False))
def test_lambda_prime_relabel_and_reverse_invariant(D, rnd):
    perm = list(range(D.n))
    rnd.shuffle(perm)
    base = lambda_prime_exact(D)
    for other in (D.relabel(perm), D.reverse()):
        cert = lambda_prime_exact(other)
        assert cert.found == base.found
        assert cert.value == base.value


@given(strong_digraphs(min_n=4, max_n=6))
def test_theorem_bounds_on_connected_graphs(D):
    """Whenever a restricted cut exists, lambda <= lambda' and any valid cut
    built from a girth cycle bounds lambda' from above."""
    cert = lambda_prime_exact(D)
    if cert.found:
        assert arc_connectivity(D) <= cert.value


# ---------------------------------------------------------------------------
# proof-cut constructions


def test_proof_cuts_require_four_cycle(l8):
    with pytest.raises(NotAFourCycle):
        proof_cut_constructions(l8, (0, 1, 2))


def test_proof_cuts_l8(l8):
    candidates = proof_cut_constructions(l8, (0, 1, 2, 3))
    assert candidates, "expected at least the out-cut of the cycle itself"
    assert all(isinstance(S, tuple) for S in candidates)
    assert len({tuple(sorted(S)) for S in candidates}) == len(candidates)
    found = [S for S in candidates if is_restricted_arc_cut(l8, S) is not None]
    assert found
    assert min(len(S) for S in found) == 1


@given(st.sampled_from((5, 6)).flatmap(stratum_digraphs))
def test_proof_cuts_are_arcs_of_d(D):
    from arcconn import girth_cycles

    for C in girth_cycles(D):
        for S in proof_cut_constructions(D, C):
            for arc in S:
                assert D.has_arc(*arc)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_proof_cuts_match_set_membership_oracle_on_strata(n):
    """Same list, contents and order, as the set-membership builder on every
    girth cycle of the n <= 5 strata and of the n = 6 stratum slice."""
    from arcconn import girth_cycles

    for code in stratum_codes(n):
        D = Digraph.from_code(n, code)
        for C in girth_cycles(D):
            assert proof_cut_constructions(D, C) == oracle_proof_cut_constructions(D, C)


@given(st.one_of(strong_digraphs(min_n=7, max_n=7), sparse_strong_digraphs(min_n=7, max_n=7)))
def test_proof_cuts_match_set_membership_oracle_at_n7(D):
    """Every 4-cycle in every rotation, also where the girth is 3 and the
    4-cycles are listed afresh."""
    from arcconn import cycles_of_length

    for C in cycles_of_length(D, 4):
        for r in range(4):
            rotated = C[r:] + C[:r]
            assert proof_cut_constructions(D, rotated) == oracle_proof_cut_constructions(D, rotated)


# ---------------------------------------------------------------------------
# the lazy candidate order


def test_lambda_prime_stops_at_one_on_a_long_chain():
    """Ten 4-cycles in a chain, each sharing one vertex with the next (n=31):
    the first girth-cycle seed already gives a cut of size 1, the lower
    bound, so none of the 2^31 other vertex sets is looked at."""
    import time

    D = Digraph(31, [(3 * i + j, 3 * i + (j + 1) % 4) for i in range(10) for j in range(4)])
    t0 = time.perf_counter()
    cert = lambda_prime_exact(D)
    assert time.perf_counter() - t0 < 0.5
    assert cert.found and cert.value == 1
    assert cert.component == (0, 1, 2, 3)


def test_lambda_prime_finds_a_unit_cut_without_walking_vertex_sets():
    """A 2-arc-strong circulant on 18 vertices (arcs i->i+1, i->i+2) with a
    path 0 -> 18 -> 19 -> 9 hung on it (n=20): only the arcs of the path cut
    anything off, and what they cut off is the block.  No girth cycle is a
    host, and the walk would reach the block after about 2^20 sets; the
    one-arc pre-pass finds it directly."""
    import time

    block = [(i, (i + d) % 18) for i in range(18) for d in (1, 2)]
    D = Digraph(20, sorted(block + [(0, 18), (18, 19), (19, 9)]))
    t0 = time.perf_counter()
    cert = lambda_prime_exact(D)
    assert time.perf_counter() - t0 < 0.5
    assert cert.found and cert.value == 1
    assert cert.component == tuple(range(18))


def h1_member(n: int) -> Digraph:
    """An H1 member on n >= 4 vertices: a 4-cycle with n - 4 fans on one
    arc.  It has no restricted cut at all, so only the walk over every
    vertex set can show that lambda' does not exist."""
    from arcconn import Family, FamilyParams, generate

    return generate(FamilyParams(Family.H1, (n - 4, 0, 0, 0)))


def walk_limit_graphs(n: int) -> list[Digraph]:
    """An H1 member and the circulant with arcs i -> i+1, i -> i+2 on n
    vertices (lambda' = 3 at n = 21: a full walk finds it in about 5 s)."""
    circulant = Digraph(n, sorted((i, (i + d) % n) for i in range(n) for d in (1, 2)))
    return [h1_member(n), circulant]


@pytest.mark.parametrize("reading", [ORIGINAL_HOST, RESIDUAL_HOST])
def test_lambda_prime_refuses_the_walk_above_the_order_limit(reading):
    """Just above the limit, graphs with no cut of size 1 or 2 whose girth
    cycles give no cut of size 3 fail at once instead of walking 2^n vertex
    sets."""
    import time

    from arcconn import CapExceeded
    from arcconn.connectivity import _WALK_MAX_ORDER

    n = _WALK_MAX_ORDER + 1
    for D in walk_limit_graphs(n):
        t0 = time.perf_counter()
        with pytest.raises(CapExceeded, match=f"n={n} .* above order {_WALK_MAX_ORDER}"):
            lambda_prime_exact(D, reading=reading)
        assert time.perf_counter() - t0 < 1.0


def test_lambda_prime_two_beyond_the_walk_limit():
    """Two copies of the girth-4 circulant on 12 vertices (arcs i -> i+1,
    i -> i+3, 2-arc-strong), joined by two arcs each way (n=24): removing
    one arc leaves D strong, and the two arcs from one copy to the other
    cut off a copy.  No girth cycle is a host of flow 2, so the walk would
    meet the copies only after about 2^23 sets; the pair pass finds them."""
    import time

    from arcconn.connectivity import _WALK_MAX_ORDER

    copies = [(k + i, k + (i + d) % 12) for k in (0, 12) for i in range(12) for d in (1, 3)]
    D = Digraph(24, sorted(copies + [(0, 12), (6, 18), (15, 3), (21, 9)]))
    assert D.n > _WALK_MAX_ORDER
    for reading in (ORIGINAL_HOST, RESIDUAL_HOST):
        t0 = time.perf_counter()
        cert = lambda_prime_exact(D, reading=reading)
        assert time.perf_counter() - t0 < 1.0
        assert cert.found and cert.value == 2
        assert is_restricted_arc_cut(D, cert.cut, reading=reading) == (cert.component, cert.outside_arc)
        below = lambda_prime_bruteforce(D, k_max=1, reading=reading)
        assert below.outcome is CutOutcome.UNKNOWN_BELOW_BOUND


def test_walk_limit_applies_only_above_its_order(monkeypatch):
    from arcconn import CapExceeded, connectivity

    D = h1_member(9)
    monkeypatch.setattr(connectivity, "_WALK_MAX_ORDER", 9)
    assert lambda_prime_exact(D).outcome is CutOutcome.NONEXISTENT
    monkeypatch.setattr(connectivity, "_WALK_MAX_ORDER", 8)
    with pytest.raises(CapExceeded):
        lambda_prime_exact(D)


@pytest.mark.parametrize("n", range(1, 13))
def test_candidate_order_is_size_then_value(n):
    from arcconn.connectivity import _candidate_masks

    expected = sorted(
        (m for m in range(1 << n) if 2 <= m.bit_count() <= n - 2),
        key=lambda m: (m.bit_count(), m),
    )
    assert list(_candidate_masks(Digraph(n))) == expected


def test_candidate_order_puts_girth_cycle_seeds_first(l8):
    from arcconn.connectivity import _candidate_masks

    masks = list(_candidate_masks(l8))
    assert masks[:2] == [0b1111, 0b11110000]
    assert sorted(masks) == [m for m in range(1 << 8) if 2 <= m.bit_count() <= 6]


# ---------------------------------------------------------------------------
# the one-arc pre-pass: candidate sets whose contraction flow is 1


def oracle_unit_cut_hosts(D: Digraph, residual_host: bool) -> set[int]:
    """For each arc a, the non-trivial strong components of D - a with an
    arc outside them, in D or (residual_host) in D - a; as vertex masks."""
    hosts = set()
    for a in D.arcs:
        rest = [b for b in D.arcs if b != a]
        host = rest if residual_host else D.arcs
        for comp in oracle_sccs(D.n, rest):
            if len(comp) > 1 and any(t not in comp and h not in comp for t, h in host):
                hosts.add(sum(1 << v for v in comp))
    return hosts


def test_unit_cut_hosts_match_the_definition_exhaustively():
    from arcconn.connectivity import _unit_cut_hosts

    for n in range(2, 6):
        _, _, codes = _kernels.filter_range(n, 0, 3 ** (n * (n - 1) // 2), 0)
        for code in codes:
            D = Digraph.from_code(n, code)
            for reading, residual in ((ORIGINAL_HOST, False), (RESIDUAL_HOST, True)):
                assert _unit_cut_hosts(D, reading)[0] == oracle_unit_cut_hosts(D, residual)


@given(st.one_of(strong_digraphs(min_n=6, max_n=9), sparse_strong_digraphs(min_n=6, max_n=9)))
def test_unit_cut_hosts_match_the_definition(D):
    from arcconn.connectivity import _unit_cut_hosts

    for reading, residual in ((ORIGINAL_HOST, False), (RESIDUAL_HOST, True)):
        assert _unit_cut_hosts(D, reading)[0] == oracle_unit_cut_hosts(D, residual)


@given(st.one_of(
    strong_digraphs(min_n=7, max_n=9),
    sparse_strong_digraphs(min_n=7, max_n=9),
    double_cycle_digraphs(min_n=7, max_n=9),
))
def test_exact_is_minimum_after_the_host_prepass(D):
    """With both passes on, lambda' = 1 comes from the one-arc pass,
    lambda' = 2 from the pair pass and lambda' >= 3 from a walk that stops
    at 3; the brute-force oracle confirms each."""
    from unittest import mock

    for reading in (ORIGINAL_HOST, RESIDUAL_HOST):
        with mock.patch.object(connectivity, "_PAIR_PREPASS_MIN_ORDER", D.n):
            cert = lambda_prime_exact(D, reading=reading)
        if not cert.found:
            continue
        assert is_restricted_arc_cut(D, cert.cut, reading=reading) is not None
        # The oracle tries arc sets by increasing size, so a cut of the
        # same size also shows that no smaller one exists.
        brute = lambda_prime_bruteforce(D, k_max=cert.value, reading=reading)
        assert brute.found and brute.value == cert.value


@given(st.one_of(
    strong_digraphs(min_n=8, max_n=11),
    sparse_strong_digraphs(min_n=8, max_n=11),
    double_cycle_digraphs(min_n=8, max_n=11),
))
def test_host_prepass_keeps_the_walks_certificate(D):
    """With both passes, with the one-arc pass alone and with neither,
    lambda_prime_exact returns the same certificate: the first candidate of
    minimum flow in candidate order."""
    from unittest import mock

    def exact(unit: bool, pair: bool, reading):
        with mock.patch.object(connectivity, "_HOST_PREPASS_MIN_ORDER", 0 if unit else D.n + 1), \
                mock.patch.object(connectivity, "_PAIR_PREPASS_MIN_ORDER", 0 if pair else D.n + 1):
            return lambda_prime_exact(D, reading=reading)

    for reading in (ORIGINAL_HOST, RESIDUAL_HOST):
        both = exact(True, True, reading)
        assert both == exact(True, False, reading) == exact(False, False, reading)


# ---------------------------------------------------------------------------
# the pair pass: with the one-arc pass, the candidate sets whose contraction
# flow is at most 2


def oracle_pair_cut_hosts(D: Digraph) -> dict[bool, set[int]]:
    """For each pair of arcs {a, b}, the non-trivial strong components of
    D - {a, b} with an arc outside them, as vertex masks: under key False
    with the arc in D, under key True (residual host) with it in D - {a, b}."""
    hosts: dict[bool, set[int]] = {False: set(), True: set()}
    for pair in combinations(D.arcs, 2):
        rest = [b for b in D.arcs if b not in pair]
        for comp in oracle_sccs(D.n, rest):
            if len(comp) < 2:
                continue
            mask = sum(1 << v for v in comp)
            for residual_host, host in ((False, D.arcs), (True, rest)):
                if any(t not in comp and h not in comp for t, h in host):
                    hosts[residual_host].add(mask)
    return hosts


def test_pair_cut_hosts_match_the_definition_exhaustively():
    from arcconn.connectivity import _pair_cut_hosts, _unit_cut_hosts

    for n in range(2, 6):
        _, _, codes = _kernels.filter_range(n, 0, 3 ** (n * (n - 1) // 2), 0)
        for code in codes:
            D = Digraph.from_code(n, code)
            oracle = oracle_pair_cut_hosts(D)
            for reading, residual in ((ORIGINAL_HOST, False), (RESIDUAL_HOST, True)):
                hosts, bridges = _unit_cut_hosts(D, reading)
                assert hosts | _pair_cut_hosts(D, reading, bridges) == oracle[residual]


@given(st.one_of(
    strong_digraphs(min_n=6, max_n=10),
    sparse_strong_digraphs(min_n=6, max_n=10),
    double_cycle_digraphs(min_n=6, max_n=10),
))
# Here pairs of strong bridges give hosts of flow 2 that a search outside
# the components holding the other arc would miss.
@example(Digraph(8, [(0, 1), (0, 3), (1, 2), (1, 5), (2, 3), (2, 4), (2, 6), (2, 7),
                     (3, 4), (4, 5), (5, 3), (5, 7), (6, 0), (6, 7), (7, 1), (7, 3)]))
@example(Digraph(9, [(0, 2), (0, 8), (1, 4), (1, 6), (2, 3), (2, 4), (2, 8), (3, 4),
                     (3, 8), (4, 0), (4, 6), (5, 2), (5, 6), (6, 7), (7, 1), (8, 5)]))
def test_pair_cut_hosts_match_the_definition(D):
    from arcconn.connectivity import _pair_cut_hosts, _unit_cut_hosts

    oracle = oracle_pair_cut_hosts(D)
    for reading, residual in ((ORIGINAL_HOST, False), (RESIDUAL_HOST, True)):
        hosts, bridges = _unit_cut_hosts(D, reading)
        assert hosts | _pair_cut_hosts(D, reading, bridges) == oracle[residual]
