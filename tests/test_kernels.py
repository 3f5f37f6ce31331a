"""The bitmask kernel module: backend label, range checks, large orders,
decode, the reach search behind every strongness test, the layered search
behind the flows and the lambda' passes, the strong-component split, the
arc-in-mask scan behind every restricted-cut witness, and the extension
step behind the tables of the vertex-0 split.

``filter_range`` and ``filter_codes`` are checked against independent
oracles in ``test_filter_oracle.py``.
"""

from __future__ import annotations

import random
import struct

import pytest
from hypothesis import given, strategies as st

import arcconn
from arcconn import _kernels
from arcconn.digraph import Digraph, _bits
from arcconn.errors import InvalidDigraph

from .conftest import (
    digraphs,
    induced,
    oracle_distances,
    oracle_girth,
    oracle_girth_bfs,
    oracle_sccs,
    oracle_strong,
    sparse_strong_digraphs,
    strong_components,
    trit_code,
)


def codes(n: int):
    return st.integers(min_value=0, max_value=3 ** (n * (n - 1) // 2) - 1)


def test_kernels_facade_backend():
    assert arcconn.backend_name() == _kernels.backend_name() == "pure"


@pytest.mark.parametrize("n", [1, 3, 5])
def test_filters_reject_codes_outside_the_universe(n):
    size = 3 ** (n * (n - 1) // 2)
    assert _kernels.filter_range(n, 0, size)[0] == size
    # the empty graph and the transitive tournament: neither is strong
    assert _kernels.filter_codes(n, [0, size - 1]) == (2, 0, [])
    assert _kernels.filter_range(n, 7, 7) == (0, 0, [])
    assert _kernels.filter_codes(n, []) == (0, 0, [])
    for lo, hi in ((-1, size), (0, size + 1), (size, size + 5), (-5, -1), (3, 2)):
        with pytest.raises(InvalidDigraph):
            _kernels.filter_range(n, lo, hi)
    for batch in ([size], [-1], [0, size], [size - 1, -1, 0]):
        with pytest.raises(InvalidDigraph, match=f"for n={n} is outside 0..{size - 1}"):
            _kernels.filter_codes(n, batch)
    # bools and non-integers at either end are refused, as decode_code refuses them
    for lo, hi in ((True, size), (0.0, size), (0, size - 0.5), (False, 1), (0, True), (0, str(size))):
        with pytest.raises(InvalidDigraph, match="is not an integer"):
            _kernels.filter_range(n, lo, hi)
    for batch in ([True], [False, 0], [0, 1.0], [0.5]):
        with pytest.raises(InvalidDigraph, match=f"for n={n} is not an integer"):
            _kernels.filter_codes(n, batch)
    with pytest.raises(InvalidDigraph, match="is not an integer"):
        _kernels.decode_code(n, True)


def test_kernels_work_past_64_vertices():
    # 70 vertices do not fit a 64-bit word; the bitmask kernels use Python
    # integers, so the answer must not depend on the order.
    n = 70
    arcs = [(i, (i + 1) % n) for i in range(n)]
    D = Digraph(n, arcs)
    assert D.is_strong()
    assert len(strong_components(D)) == 1
    assert arcconn.girth(D) == n


@given(codes(5))
def test_decode_matches_digraph_arcs(code):
    succ, pred = _kernels.decode_code(5, code)
    D = Digraph.from_code(5, code)
    assert trit_code(D) == code  # encoded pair by pair, apart from decode
    for t in range(5):
        for h in range(5):
            assert bool(succ[t] >> h & 1) == bool(pred[h] >> t & 1) == D.has_arc(t, h)


def _assert_lane_fields(n: int, block: list[int]) -> None:
    """_lane_fields against decode_code lane by lane: lane k of field v is
    succ[v] of code k, and of field n + v pred[v]; no lane spills."""
    size = _kernels._field_bytes(n)
    unpack = struct.Struct(f"<{len(block)}{_kernels._FORMATS[size]}").unpack
    fields = _kernels._lane_fields(n, block)
    assert len(fields) == 2 * n
    lanes = [unpack(field.to_bytes(len(block) * size, "little")) for field in fields]
    for k, code in enumerate(block):
        succ, pred = _kernels.decode_code(n, code)
        assert [lane[k] for lane in lanes] == succ + pred, (n, code)


@pytest.mark.parametrize("n", range(_kernels.CODE_MAX_ORDER + 1))
def test_lane_fields_match_decode_code_lane_by_lane(n):
    """Every order, so each field width and its edges at 8/9 and 16/17, on
    blocks of 1, 7, 4,096 and 4,097 codes with the first and the last code
    of the universe in them, and every code in one block for n <= 3."""
    size = _kernels.universe_size(n)
    rng = random.Random(n)
    for block in ([0], [size - 1]):
        _assert_lane_fields(n, block)
    for length in (7, 4096, 4097):
        block = [rng.randrange(size) for _ in range(length - 2)]
        _assert_lane_fields(n, [0, *block, size - 1])
    if n <= 3:
        _assert_lane_fields(n, list(range(size)))


@given(st.one_of(digraphs(min_n=1, max_n=7), sparse_strong_digraphs(min_n=3, max_n=7)))
def test_girth_matches_the_oracle(D):
    assert _kernels.girth(D.succ, D.pred, D.n) == (oracle_girth(D) or 0)


def _reach_covers(D: Digraph, mask: int) -> bool:
    """Strongness of D[X] by two reach calls from X's lowest vertex."""
    start = (mask & -mask).bit_length() - 1
    return _kernels.reach(D.succ, start, mask) == mask == _kernels.reach(D.pred, start, mask)


def _agrees_with_oracle(D: Digraph) -> None:
    for mask in range(1, 1 << D.n):
        X = [v for v in range(D.n) if mask >> v & 1]
        assert _reach_covers(D, mask) == oracle_strong(induced(D, X)[0]), (D, X)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_reach_decides_subset_strongness_exhaustively(n):
    for code in range(3 ** (n * (n - 1) // 2)):
        _agrees_with_oracle(Digraph.from_code(n, code))


@given(digraphs(min_n=5, max_n=7))
def test_reach_decides_subset_strongness(D):
    _agrees_with_oracle(D)
    full = (1 << D.n) - 1
    assert _kernels.is_strong(D.succ, D.pred, D.n) == _reach_covers(D, full) == oracle_strong(D)


def test_reach_stays_within_the_mask():
    succ = (0b010, 0b100, 0b001)  # the 3-cycle 0 -> 1 -> 2 -> 0
    assert _kernels.reach(succ, 0, 0b111) == 0b111
    assert _kernels.reach(succ, 0, 0b101) == 0b001  # 0 -> 1 is cut off
    assert _kernels.reach(succ, 1, 0b101) == 0  # start outside the mask


def _mask(vertices) -> int:
    return sum(1 << v for v in set(vertices))


def _oracle_rings(D: Digraph, start: int, seen: int) -> list[tuple[int, int]]:
    """Each breadth-first distance class from start avoiding seen, as a
    vertex mask, with the heads of its arcs."""
    dist = oracle_distances(D.n, D.arcs, _bits(start), _bits(seen))
    rings = [0] * (max(dist.values(), default=-1) + 1)
    for v, d in dist.items():
        rings[d] |= 1 << v
    return [(ring, _mask(h for t, h in D.arcs if ring >> t & 1)) for ring in rings]


def _assert_layers(D: Digraph, start: int, seen: int, sinks: int, rings: list[tuple[int, int]]) -> None:
    """layers against the oracle's rings: the rings up to and including the
    first with an arc into sinks, and the heads in sinks of that ring's
    arcs; every ring and 0 when none has one.  Past layer 0 no layer meets
    seen, and no two layers meet."""
    expected, hit = [], 0
    for ring, heads in rings:
        expected.append(ring)
        if heads & sinks:
            hit = heads & sinks
            break
    layers, got = _kernels.layers(D.succ, start, seen, sinks)
    assert (layers, got) == (expected, hit), (D, start, seen, sinks)
    union = 0
    for layer in layers[1:]:
        assert not layer & (seen | start | union)
        union |= layer


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_layers_match_breadth_first_distances_exhaustively(n):
    """Every graph with n <= 4, every start set, every seen set outside it
    and every sink set."""
    full = (1 << n) - 1
    for code in range(3 ** (n * (n - 1) // 2)):
        D = Digraph.from_code(n, code)
        for start in range(1 << n):
            rest = full & ~start
            seen = rest
            while True:  # every subset of rest, rest itself first
                rings = _oracle_rings(D, start, seen)
                for sinks in range(1 << n):
                    _assert_layers(D, start, seen, sinks, rings)
                if not seen:
                    break
                seen = (seen - 1) & rest


@given(st.one_of(digraphs(min_n=1, max_n=7), sparse_strong_digraphs(min_n=3, max_n=12)), st.data())
def test_layers_match_breadth_first_distances(D, data):
    masks = st.integers(min_value=0, max_value=(1 << D.n) - 1)
    start, seen, sinks = data.draw(masks), data.draw(masks), data.draw(masks)
    _assert_layers(D, start, seen, sinks, _oracle_rings(D, start, seen))


def test_layers_stop_after_the_first_layer_with_a_sink_successor():
    succ = (0b0010, 0b0100, 0b1000, 0b0001)  # the 4-cycle 0 -> 1 -> 2 -> 3 -> 0
    assert _kernels.layers(succ, 0b0001, 0, 0b1000) == ([0b0001, 0b0010, 0b0100], 0b1000)
    assert _kernels.layers(succ, 0b0001, 0b0100, 0b1000) == ([0b0001, 0b0010], 0)  # 2 is seen
    assert _kernels.layers(succ, 0b0001, 0, 0b0001) == ([0b0001, 0b0010, 0b0100, 0b1000], 0b0001)
    assert _kernels.layers(succ, 0, 0, 0b1111) == ([], 0)


def test_strongness_of_the_smallest_digraphs():
    assert Digraph(0).is_strong() is False
    assert Digraph(1).is_strong() is True
    assert _kernels.is_strong((), (), 0) is False


@given(digraphs(max_n=7), st.integers(min_value=0, max_value=2 ** 7 - 1))
def test_arc_within_is_the_smallest_arc_inside_the_mask(D, mask):
    mask &= (1 << D.n) - 1
    inside = [(t, h) for t, h in D.arcs if mask >> t & 1 and mask >> h & 1]
    assert _kernels.arc_within(D.succ, mask) == min(inside, default=None)


@given(digraphs(min_n=1, max_n=8), st.data())
def test_strong_parts_lists_the_nontrivial_components_within(D, data):
    comps = oracle_sccs(D.n, D.arcs)
    chosen = data.draw(st.lists(st.booleans(), min_size=len(comps), max_size=len(comps)))
    within = 0
    expected = []
    for comp, keep in zip(comps, chosen):
        mask = sum(1 << v for v in comp)
        if keep:
            within |= mask
            if len(comp) > 1:
                expected.append(mask)
    assert sorted(_kernels.strong_parts(D.succ, D.pred, within)) == sorted(expected)


def _oracle_tables(D: Digraph, girth=oracle_girth_bfs) -> _kernels.Tables:
    """D's Tables by another route: each vertex's closures by reach, each
    entry of a table as the entry without the set's lowest vertex joined
    with that vertex's row, and the girth by the given cycle oracle."""
    full = (1 << D.n) - 1
    fwd = [_kernels.reach(D.succ, v, full) for v in range(D.n)]
    bak = [_kernels.reach(D.pred, v, full) for v in range(D.n)]
    ahead, behind, heads = [0], [0], [0]
    for s in range(1, 1 << D.n):
        v = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        ahead.append(ahead[rest] | fwd[v])
        behind.append(behind[rest] | bak[v])
        heads.append(heads[rest] | D.succ[v])
    return _kernels.Tables(ahead, behind, heads, girth(D) or 0)


def _assert_grown(G: Digraph, grown: _kernels.Tables, out: int, into: int, girth=oracle_girth_bfs) -> None:
    """grown against the oracle on G plus a vertex x = G.n with the arcs
    x -> out and into -> x, and its strongness against the SCC oracle."""
    x = G.n
    D = Digraph(x + 1, [*G.arcs, *((x, v) for v in _bits(out)), *((v, x) for v in _bits(into))])
    assert grown == _oracle_tables(D, girth), (G, out, into)
    full = (1 << D.n) - 1
    assert (grown.ahead[1] == full == grown.behind[1]) == oracle_strong(D), (G, out, into)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_extend_matches_reach_and_the_oracles_exhaustively(m):
    """Every graph G on m <= 4 vertices and every pair of disjoint sets
    (out, into) of its vertices: so every graph with n <= 5 vertices, grown
    from the Tables of the graph on its first n - 1.  The girth is the
    breadth-first oracle's here (the permutation oracle made this test
    take 9.6 s instead of 2.7 over these 59,049 graphs); the hypothesis
    twin below uses the permutation oracle.  The cycle through the new
    vertex, 2 + dist(out, into) by the distance oracle, is also read under
    every cap from 2 to m + 2, which is 0 where it is longer."""
    full = (1 << m) - 1
    caps = range(2, m + 3)
    for code in range(3 ** (m * (m - 1) // 2)):
        G = Digraph.from_code(m, code)
        t = _kernels.tables(G.succ, G.pred)
        assert t == _oracle_tables(G), G
        for out in range(1 << m):
            dist = oracle_distances(m, G.arcs, _bits(out), ())
            rest = full & ~out
            into = rest
            while True:  # every subset of rest
                _assert_grown(G, _kernels.extend(t, out, into), out, into)
                cycle = 2 + min((dist[b] for b in _bits(into) if b in dist), default=m + 1)
                assert [_kernels._cycle_through(t.heads, out, into, cap) for cap in caps] == [
                    cycle if cycle <= cap else 0 for cap in caps
                ], (G, out, into)
                if not into:
                    break
                into = (into - 1) & rest


@given(
    st.one_of(digraphs(min_n=0, max_n=11), sparse_strong_digraphs(min_n=3, max_n=11)),
    st.data(),
)
def test_extend_matches_reach_and_the_oracles(G, data):
    """Up to n = 12: dense uniform draws (girth 3 mostly) and sparse strong
    ones (longer girths), with any disjoint out and into; the girth by the
    permutation oracle up to n = 7."""
    masks = st.integers(min_value=0, max_value=(1 << G.n) - 1)
    both = data.draw(masks)
    out = data.draw(masks) & both
    into = both & ~out
    girth = oracle_girth if G.n < 7 else oracle_girth_bfs
    t = _kernels.tables(G.succ, G.pred)
    assert t == _oracle_tables(G, girth), G
    _assert_grown(G, _kernels.extend(t, out, into), out, into, girth)


def test_extend_closes_the_shortest_cycle_through_the_new_vertex():
    # the path 0 -> 1 -> 2 -> 3; x -> out and into -> x close a cycle of
    # 2 + dist(out, into) arcs when into is reached from out
    t = _kernels.tables([0b0010, 0b0100, 0b1000, 0], [0, 0b0001, 0b0010, 0b0100])
    assert t.girth == 0
    assert _kernels.extend(t, 0b0001, 0b1000).girth == 5
    assert _kernels.extend(t, 0b0011, 0b1100).girth == 3  # x -> 1 -> 2 -> x
    assert _kernels.extend(t, 0b0100, 0b0010).girth == 0  # 2 never reaches 1
    assert _kernels.tables((), ()) == ([0], [0], [0], 0)
