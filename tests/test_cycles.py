"""Girth and fixed-length cycle enumeration against a permutation oracle."""

from __future__ import annotations

import pytest
from hypothesis import example, given, strategies as st

from arcconn import AcyclicDigraph, Digraph, cycles_of_length, girth, girth_cycles, is_cycle

from .conftest import (
    delete_arcs,
    digraphs,
    oracle_cycles_by_paths,
    oracle_cycles_of_length,
    oracle_girth,
    reverse,
    sparse_strong_digraphs,
    strong_digraphs,
)


def test_girth_known_instances(l8, four_cycle):
    assert girth(four_cycle) == 4
    assert girth(l8) == 4
    assert girth(Digraph(3, [(0, 1), (1, 2), (2, 0)])) == 3
    assert girth(Digraph(3, [(0, 1), (1, 2)])) is None


def test_girth_cycles_l8(l8):
    cycles = girth_cycles(l8)
    assert cycles == [(0, 1, 2, 3), (4, 5, 6, 7)]


def test_girth_cycles_memo_is_not_shared_with_callers(l8):
    first = girth_cycles(l8)
    second = girth_cycles(l8)
    assert first == second
    first.append((9, 9, 9, 9))
    first[0] = (7, 7, 7, 7)
    assert second == [(0, 1, 2, 3), (4, 5, 6, 7)]
    assert girth_cycles(l8) == second


def test_girth_cycles_requires_a_cycle():
    with pytest.raises(AcyclicDigraph):
        girth_cycles(Digraph(3, [(0, 1), (1, 2)]))


def test_cycles_are_canonical_rotations(four_cycle):
    assert cycles_of_length(four_cycle, 4) == [(0, 1, 2, 3)]


@given(digraphs(min_n=2, max_n=6))
def test_girth_matches_oracle(D):
    assert girth(D) == oracle_girth(D)


@given(st.one_of(digraphs(min_n=2, max_n=6), sparse_strong_digraphs(min_n=7, max_n=9)))
# Two triangles through vertex 0 make no 6-cycle: a path may not pass its root.
@example(Digraph(6, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]))
def test_cycle_enumeration_matches_oracle(D):
    """Every length from 2 to n; from n = 7 up the graphs are sparse strong
    ones, whose longer cycles the path oracle still lists quickly."""
    for length in range(2, D.n + 1):
        ours = cycles_of_length(D, length)
        assert sorted(ours) == ours  # deterministic order
        if D.n <= 6:
            assert set(ours) == oracle_cycles_of_length(D, length) == oracle_cycles_by_paths(D, length)
        else:
            assert set(ours) == oracle_cycles_by_paths(D, length)


@given(strong_digraphs(min_n=12, max_n=16))
def test_short_cycles_of_large_dense_graphs_match_oracle(D):
    """Lengths 3 and 4 on orders 12..16, where lambda' and xi list girth
    cycles of large graphs."""
    for length in (3, 4):
        assert set(cycles_of_length(D, length)) == oracle_cycles_by_paths(D, length)


@given(digraphs(min_n=2, max_n=6))
def test_girth_cycles_are_cycles_of_girth_length(D):
    g = girth(D)
    if g is None:
        return
    cycles = girth_cycles(D)
    assert cycles == cycles_of_length(D, g)
    for C in cycles:
        assert is_cycle(D, C)
        assert len(C) == g


@given(digraphs(min_n=2, max_n=6), st.randoms(use_true_random=False))
def test_derived_digraphs_have_their_own_girth_cycles(D, rng):
    """A derived digraph answers for its own arcs, never from the memo of
    the digraph it came from, whose girth and girth cycles are taken first."""
    if girth(D) is not None:
        girth_cycles(D)
    perm = list(range(D.n))
    rng.shuffle(perm)
    dropped = [a for a in D.arcs if rng.random() < 0.3]
    for E in (reverse(D), D.relabel(perm), delete_arcs(D, dropped)):
        g = girth(E)
        assert g == oracle_girth(E)
        if g is not None:
            assert set(girth_cycles(E)) == oracle_cycles_of_length(E, g)


def test_is_cycle_rejects_nonsense(four_cycle):
    assert not is_cycle(four_cycle, (0, 2, 1, 3))
    assert not is_cycle(four_cycle, (0, 1))
    assert not is_cycle(four_cycle, (0, 1, 2))
    assert is_cycle(four_cycle, (0, 1, 2, 3))
