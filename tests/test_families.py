"""Exception-family generation, recognition, and census."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from arcconn import (
    Digraph,
    Family,
    FamilyParams,
    InvalidParams,
    family_census,
    generate,
    girth,
    lambda_prime_exists,
    match_family,
)
from arcconn.families import (
    _SPINE_RULES,
    _assemble,
    _bucket_outside,
    _incidence_table,
    _params_for_order,
)

from .conftest import stratum_codes, stratum_digraphs

# m - 2n for every member of each family
ARC_EXCESS = {
    Family.H1: -4, Family.H2: -4, Family.H3: -4,
    Family.H4: -3, Family.H5: -3, Family.H6: -3,
    Family.H7: -2,
}

# The roles each family's match carries, in order: its named vertices, then
# one fan role per size parameter, empty or not.
ROLE_KEYS = {
    Family.H1: "uvwzABCD",
    Family.H2: "uvwzxAB",
    Family.H3: "uvwzxABC",
    Family.H4: "uvwzxyA",
    Family.H5: "uvwzxA",
    Family.H6: "uvwzxAB",
    Family.H7: "uvwzxy",
}

# Isomorphism classes of family members per order, in all and per family.
# They do not depend on the labelling, so any canonical form reproduces them.
CENSUS_CLASSES = {4: 1, 5: 3, 6: 11, 7: 16, 8: 27}
CENSUS_FAMILIES = {
    6: {"H1": 3, "H2": 2, "H3": 2, "H4": 1, "H6": 2, "H7": 1},
    7: {"H1": 5, "H2": 2, "H3": 5, "H4": 1, "H6": 3},
    8: {"H1": 10, "H2": 3, "H3": 9, "H4": 1, "H6": 4},
}


def all_params_up_to(n_max: int) -> list[FamilyParams]:
    out = []
    for n in range(4, n_max + 1):
        out.extend(_params_for_order(n))
    return out


def assert_roles_certify(D: Digraph, match) -> None:
    """The roles, read in the generator's layout order, map the regenerated
    member onto D arc for arc."""
    roles = match.roles
    layout = [roles[k] for k in ("u", "v", "w", "z", "x", "y") if k in roles]
    for k in "ABCD":
        layout.extend(roles.get(k, ()))
    assert generate(match.params).relabel(layout) == D


def test_parse_family_names():
    assert Family.parse("H3") is Family.H3
    assert Family.parse("h3") is Family.H3
    with pytest.raises(InvalidParams):
        Family.parse("H9")


def test_param_validation_arity():
    with pytest.raises(InvalidParams):
        FamilyParams(Family.H1, (1, 2))
    with pytest.raises(InvalidParams):
        FamilyParams(Family.H2, (1, 1), ("xz",))


def test_param_validation_negative_and_h5_lower_bound():
    with pytest.raises(InvalidParams):
        FamilyParams(Family.H2, (-1, 0))
    with pytest.raises(InvalidParams):
        FamilyParams(Family.H5, (0,), ("xz",))
    FamilyParams(Family.H5, (1,), ("xz",))  # minimal legal


def test_param_validation_orientation_tokens():
    with pytest.raises(InvalidParams):
        FamilyParams(Family.H6, (0, 0), ("yv",))
    FamilyParams(Family.H6, (0, 0), ("zx",))
    FamilyParams(Family.H7, (), ("xz", "vy"))


def test_generate_bare_four_cycle(four_cycle):
    D = generate(FamilyParams(Family.H1, (0, 0, 0, 0)))
    assert D == four_cycle


def test_generated_members_are_strong_girth_four():
    for params in all_params_up_to(7):
        D = generate(params)
        assert D.n == params.n
        assert D.is_strong()
        assert girth(D) == 4


def test_generated_members_are_never_lambda_prime_connected():
    for params in all_params_up_to(7):
        assert not lambda_prime_exists(generate(params))


def test_match_bare_four_cycle(four_cycle):
    match = match_family(four_cycle)
    assert match is not None and match.family is Family.H1
    assert match.params.sizes == (0, 0, 0, 0)


def test_match_l8_is_none(l8):
    assert match_family(l8) is None


def test_match_assigns_consistent_roles():
    params = FamilyParams(Family.H4, (2,), ("yv",))
    D = generate(params)
    match = match_family(D)
    assert match is not None and match.family is Family.H4
    roles = match.roles
    u, v, w = roles["u"], roles["v"], roles["w"]
    assert D.has_arc(u, v) and D.has_arc(v, w)
    assert D.has_arc(roles["y"], v)


@given(st.sampled_from(all_params_up_to(7)), st.randoms(use_true_random=False))
def test_match_survives_relabeling(params, rnd):
    D = generate(params)
    perm = list(range(D.n))
    rnd.shuffle(perm)
    match = match_family(D.relabel(perm))
    assert match is not None
    regenerated = generate(match.params)
    assert regenerated.canonical_form() == D.canonical_form()


def test_match_roles_certify_an_isomorphism():
    for params in all_params_up_to(8):
        D = generate(params)
        for seed in (1, 2):
            perm = list(range(D.n))
            random.Random(seed).shuffle(perm)
            E = D.relabel(perm)
            match = match_family(E)
            assert match is not None, (params.describe(), seed)
            assert_roles_certify(E, match)


@given(stratum_digraphs(6))
def test_stratum_matches_carry_certifying_roles(D):
    match = match_family(D)
    if match is not None:
        assert_roles_certify(D, match)


@given(stratum_digraphs(5))
def test_every_stratum_graph_at_n5_is_a_family_member(D):
    assert match_family(D) is not None


def test_generated_members_have_their_family_arc_count():
    for params in all_params_up_to(9):
        D = generate(params)
        assert D.m == 2 * D.n + ARC_EXCESS[params.family]
        assert 2 * D.n - 4 <= D.m <= 2 * D.n - 2


def test_stratum_graphs_outside_the_arc_count_range_match_nothing():
    outside = 0
    for n in (5, 6):
        for code in stratum_codes(n):
            D = Digraph.from_code(n, code)
            if not 2 * n - 4 <= D.m <= 2 * n - 2:
                outside += 1
                assert match_family(D) is None
    assert outside > 0


def test_census_n4():
    members = family_census(4)
    assert len(members) == 1
    params, D = members[0]
    assert params.family is Family.H1 and D.m == 4


def test_census_n5():
    members = family_census(5)
    families = sorted(p.family.value for p, _ in members)
    assert families == ["H1", "H2", "H6"]


def test_census_rejects_tiny_orders():
    with pytest.raises(InvalidParams):
        family_census(3)


def test_census_has_no_isomorphic_duplicates():
    for n in (4, 5, 6, 7):
        members = family_census(n)
        forms = {D.canonical_form() for _, D in members}
        assert len(forms) == len(members)
        for params, D in members:
            assert params.n == n == D.n


def test_match_labels_respect_first_family_precedence():
    """Distinct parameterizations can describe the same graph; the matcher
    answers with the first family, in H1..H7 order, containing it."""
    overlap = generate(FamilyParams(Family.H3, (0, 0, 2)))
    match = match_family(overlap)
    assert match is not None and match.family is Family.H2
    assert match.params.sizes == (2, 0)

    h5 = generate(FamilyParams(Family.H5, (1,), ("xz",)))
    match = match_family(h5)
    assert match is not None and match.family is Family.H4


@pytest.mark.parametrize("p", range(1, 6))
@pytest.mark.parametrize("xz, yv", [("xz", "yv"), ("zx", "vy")])
def test_every_h5_member_is_an_h4_member(p, xz, yv):
    """H5(p, xz) is H4(p-1, yv) under u->w, v->z, w->u, z->v, x->y, a_1->x
    and a_i->a_(i-1): the map the families docstring states, in the
    generator's layouts (H5: u..x = 0..4, a_i = 4+i; H4: u..y = 0..5,
    a_j = 5+j)."""
    h5 = generate(FamilyParams(Family.H5, (p,), (xz,)))
    h4 = generate(FamilyParams(Family.H4, (p - 1,), (yv,)))
    assert h5.relabel([2, 3, 0, 1, 5, 4] + list(range(6, h5.n))) == h4
    assert h5.canonical_form() == h4.canonical_form()
    match = match_family(h5)
    assert match is not None and match.params == FamilyParams(Family.H4, (p - 1,), (yv,))


def test_census_class_counts_per_order():
    for n, classes in CENSUS_CLASSES.items():
        members = family_census(n)
        assert len(members) == classes
        if n in CENSUS_FAMILIES:
            assert Counter(p.family.value for p, _ in members) == CENSUS_FAMILIES[n]


def test_match_roles_keys_per_family():
    seen = set()
    for params in all_params_up_to(7):
        match = match_family(generate(params))
        assert "".join(match.roles) == ROLE_KEYS[match.family], params.describe()
        seen.add(match.family)
    assert seen == set(Family) - {Family.H5}
    # Every H5 member matches an earlier family first, so the H5 rule is
    # read on the generator's own spine u->v->w = 0->1->2.
    for p in (1, 2):
        params = FamilyParams(Family.H5, (p,), ("xz",))
        D = generate(params)
        inc = _incidence_table(D)
        rule = next(rule for rule in _SPINE_RULES if rule[0] is Family.H5)
        match = _assemble(D, inc, rule, 0, 1, 2, _bucket_outside(inc, 0, 1, 2))
        assert match is not None and match.params == params
        assert "".join(match.roles) == ROLE_KEYS[Family.H5]
        assert_roles_certify(D, match)
