"""Digraph construction, validation, and structural queries."""

from __future__ import annotations

import hashlib
import random
from operator import index

import pytest
from hypothesis import given, strategies as st

from arcconn import (
    CapExceeded,
    Digraph,
    InvalidDigraph,
    InvalidVertex,
    UnknownArc,
    _kernels,
    is_restricted_arc_cut,
)

from .conftest import (
    Label,
    delete_arcs,
    digraphs,
    induced,
    oracle_canonical_form,
    oracle_closure_size,
    oracle_sccs,
    oracle_strong,
    reverse,
    strong_components,
    trit_code,
)


def test_build_and_basic_queries(four_cycle):
    D = four_cycle
    assert D.n == 4 and D.m == 4
    assert D.has_arc(0, 1) and not D.has_arc(1, 0)


def test_has_arc_out_of_range_endpoints_are_absent(four_cycle):
    for tail, head in ((0, -1), (0, 4), (-1, 0), (4, 0), (0, 64)):
        assert not four_cycle.has_arc(tail, head)


def test_arcs_are_sorted_and_deduplicated_input_rejected():
    D = Digraph(3, [(2, 0), (0, 1)])
    assert D.arcs == ((0, 1), (2, 0))


def test_loop_rejected():
    with pytest.raises(InvalidDigraph) as err:
        Digraph(3, [(1, 1)])
    assert err.value.arc == (1, 1)
    assert "loop" in str(err.value)


def test_digon_rejected():
    with pytest.raises(InvalidDigraph) as err:
        Digraph(3, [(0, 1), (1, 0)])
    assert err.value.arc == (1, 0)
    assert "opposite" in str(err.value) or "digon" in str(err.value)


def test_duplicate_rejected():
    with pytest.raises(InvalidDigraph) as err:
        Digraph(3, [(0, 1), (0, 1)])
    assert err.value.arc == (0, 1)


def test_vertex_out_of_range_rejected():
    with pytest.raises(InvalidDigraph) as err:
        Digraph(3, [(0, 3)])
    assert err.value.arc == (0, 3)
    with pytest.raises(InvalidDigraph):
        Digraph(2, [(-1, 0)])


def test_immutable():
    D = Digraph(2, [(0, 1)])
    with pytest.raises(AttributeError):
        D.n = 5
    for memo in ("_strong", "_girth", "_girth_cycles"):
        with pytest.raises(AttributeError):
            setattr(D, memo, None)


def test_eq_and_hash():
    a = Digraph(3, [(0, 1), (1, 2)])
    b = Digraph(3, [(1, 2), (0, 1)])
    c = Digraph(3, [(0, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_strong_components_topological_order():
    # 3-cycle {0,1,2} feeding 3-cycle {3,4,5} feeding path 6 -> 7
    D = Digraph(8, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (5, 6), (6, 7)])
    comps = strong_components(D)
    assert comps == ((0, 1, 2), (3, 4, 5), (6,), (7,))
    flat = [v for comp in comps for v in comp]
    assert sorted(flat) == list(range(8))


@given(digraphs(max_n=7))
def test_strong_components_match_oracle(D):
    """The oracle's components, sorted by descending closure size, ties by
    lowest vertex."""
    oracle = oracle_sccs(D.n, D.arcs)
    oracle.sort(key=lambda comp: (-oracle_closure_size(D.n, D.arcs, min(comp)), min(comp)))
    assert strong_components(D) == tuple(tuple(sorted(comp)) for comp in oracle)


@given(digraphs(max_n=7))
def test_is_strong_matches_oracle(D):
    assert D.is_strong() == oracle_strong(D)


@given(digraphs(min_n=2, max_n=7))
def test_strong_components_are_topologically_sorted(D):
    comps = strong_components(D)
    index = {}
    for i, comp in enumerate(comps):
        for v in comp:
            index[v] = i
    for t, h in D.arcs:
        assert index[t] <= index[h]


# delete_arcs and induced build the derived digraphs other tests check
# the library on; they live in conftest.


def test_delete_arcs_unknown(l8):
    with pytest.raises(UnknownArc):
        delete_arcs(l8, [(1, 0)])
    H = delete_arcs(l8, [(0, 4)])
    assert H.m == l8.m - 1 and not H.has_arc(0, 4)


def test_induced_keeps_labels(l8):
    H, vmap = induced(l8, [4, 5, 6, 7])
    assert H.n == 4 and vmap == (4, 5, 6, 7)
    assert H.arcs == ((0, 1), (1, 2), (2, 3), (3, 0))


@given(digraphs(max_n=6))
def test_reverse_involution(D):
    assert reverse(reverse(D)) == D
    assert reverse(D).m == D.m


@given(digraphs(min_n=1, max_n=6), st.randoms(use_true_random=False))
def test_relabel_preserves_structure(D, rnd):
    perm = list(range(D.n))
    rnd.shuffle(perm)
    H = D.relabel(perm)
    assert H.m == D.m
    for t, h in D.arcs:
        assert H.has_arc(perm[t], perm[h])


@given(digraphs(min_n=1, max_n=6), st.randoms(use_true_random=False))
def test_canonical_form_is_isomorphism_invariant(D, rnd):
    perm = list(range(D.n))
    rnd.shuffle(perm)
    assert D.relabel(perm).canonical_form() == D.canonical_form()


def _assert_same_classes(graphs) -> None:
    """canonical_form and the brute oracle split graphs into the same
    classes, and each graph's form is its relabeling by canonical_labeling."""
    pairs = set()
    for D in graphs:
        form = D.canonical_form()
        assert D.relabel(D.canonical_labeling()).arcs == form, D
        brute = oracle_canonical_form(D)
        assert oracle_canonical_form(Digraph(D.n, form)) == brute, D
        pairs.add((D.n, form, brute))
    assert len({(n, form) for n, form, _ in pairs}) == len(pairs) == len({(n, brute) for n, _, brute in pairs})


def test_canonical_form_splits_small_graphs_as_the_brute_oracle():
    """Every oriented graph with n <= 4 and every strong one with n = 5."""
    small = [Digraph.from_code(n, code) for n in range(5) for code in range(3 ** (n * (n - 1) // 2))]
    _, _, strong5 = _kernels.filter_range(5, 0, 3**10, girth_target=0)
    assert len(small) == 761 and len(strong5) == 7_998
    _assert_same_classes(small + [Digraph.from_code(5, code) for code in strong5])


@given(digraphs(max_n=7), digraphs(max_n=7), st.randoms(use_true_random=False))
def test_canonical_form_splits_drawn_graphs_as_the_brute_oracle(D, E, rnd):
    perm = list(range(D.n))
    rnd.shuffle(perm)
    _assert_same_classes([D, D.relabel(perm), E])


def test_canonical_form_is_memoised(l8):
    assert l8.canonical_form() is l8.canonical_form()
    assert l8.canonical_labeling() is l8.canonical_labeling()
    assert Digraph(0).canonical_form() == () and Digraph(0).canonical_labeling() == ()
    fresh = Digraph(l8.n, l8.arcs)  # the labeling alone fills the memo, form included
    assert fresh.canonical_labeling() == l8.canonical_labeling() and fresh._canonical is not None


# SHA-256 of the lines repr((n, D.canonical_form())) for every code of every
# order n = 0..5, in code order, joined by newlines: 59,810 graphs.
CANONICAL_FORMS_TO_5_SHA256 = "2430984960e942860baaf1822f1584d83cd7bdf1184cbc17e60b07d1f70a16b6"


def test_canonical_forms_up_to_order_5_are_pinned():
    """The form of each labeled graph with n <= 5, not only the classes it
    splits them into: the class memo's keys, the family census and every
    isomorphism test read these exact tuples."""
    lines = [
        repr((n, Digraph.from_code(n, code).canonical_form()))
        for n in range(6)
        for code in range(_kernels.universe_size(n))
    ]
    assert len(lines) == 59_810
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CANONICAL_FORMS_TO_5_SHA256


@given(digraphs(max_n=7))
def test_code_round_trip(D):
    assert Digraph.from_code(D.n, trit_code(D)) == D


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_from_code_edge_codes_and_range(n):
    size = 3 ** (n * (n - 1) // 2)
    assert Digraph.from_code(n, 0) == Digraph(n)
    last = Digraph.from_code(n, size - 1)
    assert trit_code(last) == size - 1 and last.m == n * (n - 1) // 2
    for code in (-1, size):
        with pytest.raises(InvalidDigraph, match=f"n={n} is outside 0..{size - 1}"):
            Digraph.from_code(n, code)


def _assert_built_alike(n: int, code: int) -> Digraph:
    """from_code skips __init__; the graph must be the one __init__ builds
    from the decoded arcs, with no memo filled in."""
    D = Digraph.from_code(n, code)
    succ, _ = _kernels.decode_code(n, code)
    E = Digraph(n, [(v, u) for v in range(n) for u in range(n) if succ[v] >> u & 1])
    assert D.arcs == E.arcs and D.succ == E.succ and D.pred == E.pred
    assert D == E and hash(D) == hash(E)
    assert type(D.arcs) is tuple and type(D.succ) is tuple and type(D.pred) is tuple
    assert D._strong is None and D._girth is None and D._girth_cycles is None
    return D


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_from_code_matches_init_on_every_code(n):
    size = 3 ** (n * (n - 1) // 2)
    arc_sets = {_assert_built_alike(n, code).arcs for code in range(size)}
    assert len(arc_sets) == size  # every code its own graph: 27 at n = 3


@pytest.mark.parametrize("n", range(5, 22))
def test_from_code_matches_init_on_seeded_codes(n):
    """Orders up to CODE_MAX_ORDER decode through the word tables (5..18);
    the orders above it are refused (19..21)."""
    if n > _kernels.CODE_MAX_ORDER:
        with pytest.raises(CapExceeded, match=f"up to order 18, not n={n}"):
            Digraph.from_code(n, 0)
        return
    rng = random.Random(n)
    size = 3 ** (n * (n - 1) // 2)
    for code in [0, size - 1] + [rng.randrange(size) for _ in range(40)]:
        _assert_built_alike(n, code)
    for code in (-1, size):
        with pytest.raises(InvalidDigraph):
            Digraph.from_code(n, code)


def test_from_code_rejects_negative_order():
    with pytest.raises(InvalidVertex):
        Digraph.from_code(-1, 0)


def test_relabel_requires_permutation():
    D = Digraph(3, [(0, 1)])
    with pytest.raises(InvalidVertex):
        D.relabel([0, 0, 1])


@pytest.mark.parametrize("arc", [(0.5, 1), (True, 2), ("0", "1"), (0, 1.0), (None, 1)])
def test_arcs_with_non_integer_labels_are_refused(arc):
    with pytest.raises(InvalidVertex, match="is not an integer"):
        Digraph(3, [arc])


def test_every_label_reader_refuses_non_integers(four_cycle):
    with pytest.raises(InvalidVertex):
        is_restricted_arc_cut(four_cycle, [("0", "1")])
    readers = (
        lambda n, code: Digraph.from_code(n, code).arcs,
        lambda n, code: _kernels.decode_code(n, code),
        lambda n, code: _kernels.filter_range(n, code, 27),
        lambda n, code: _kernels.filter_range(n, 0, code),
        lambda n, code: _kernels.filter_codes(n, [index(code)]),  # a batch holds ints
    )
    for n in (True, 3.0):  # the vertex count is read as a label is
        with pytest.raises(InvalidVertex):
            Digraph(n, [])
        # and so is the order of every code reader
        for read in readers:
            with pytest.raises(InvalidVertex, match="is not an integer"):
                read(n, 0)
    # an order and a code of an integer type read as the ints they stand for;
    # code 23 is the 3-cycle 0 -> 2 -> 1 -> 0
    for read in readers:
        assert read(Label(3), Label(23)) == read(3, 23)
    for code in (True, 2.0, "1"):  # a code is an integer too, and not a bool
        with pytest.raises(InvalidDigraph, match="is not an integer"):
            Digraph.from_code(3, code)
    assert Digraph(3, [(Label(0), Label(1))]).arcs == ((0, 1),)
