"""The pure enumeration filters against the oracles in conftest.

``filter_range`` decodes D - {0, 1} once per vertex-1 group of 3**(2n-3)
codes and extends its tables by vertex 1 once per block of 3**(n-1) codes
that share D - 0, and ``filter_codes`` judges blocks of _kernels._LANES
codes at once, one code per bit lane; both must keep exactly the codes
whose graph, decoded here trit by trit, the Kosaraju and cycle oracles call
strong with the target girth.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from arcconn import CapExceeded, Digraph, _kernels

from .conftest import oracle_girth, oracle_girth_bfs, oracle_strong, trit_code

TARGETS = (0, 3, 4, 5)


def oracle_digraph(n: int, code: int) -> Digraph:
    """The graph of an enumeration code, read one trit per pair."""
    arcs = []
    for i, j in combinations(range(n), 2):
        code, t = divmod(code, 3)
        if t == 1:
            arcs.append((i, j))
        elif t == 2:
            arcs.append((j, i))
    return Digraph(n, arcs)


@lru_cache(maxsize=None)
def verdict(n: int, code: int) -> tuple[bool, int]:
    """(strong as the filter counts it, girth or 0)."""
    D = oracle_digraph(n, code)
    # The filter asks every vertex for an out- and an in-arc, so the lone
    # vertex is not strong there.
    strong = n > 1 and oracle_strong(D)
    g = oracle_girth(D) if n <= 7 else oracle_girth_bfs(D)
    return strong, g or 0


def expected(n, codes, girth_target):
    strong_count = 0
    kept = []
    for code in codes:
        strong, g = verdict(n, code)
        if not strong:
            continue
        strong_count += 1
        if girth_target and g != girth_target:
            continue
        kept.append(code)
    return len(codes), strong_count, kept


def check_window(n, lo, hi):
    codes = list(range(lo, hi))
    for girth_target in TARGETS:
        want = expected(n, codes, girth_target)
        assert _kernels.filter_range(n, lo, hi, girth_target) == want
        assert _kernels.filter_codes(n, codes, girth_target) == want


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_filters_match_oracles_on_every_code(n):
    check_window(n, 0, 3 ** (n * (n - 1) // 2))


@pytest.mark.parametrize("girth_target", TARGETS)
def test_lone_vertex_is_not_strong(girth_target):
    assert _kernels.filter_range(1, 0, 1, girth_target) == (1, 0, [])
    assert _kernels.filter_codes(1, [0], girth_target) == (1, 0, [])


@pytest.mark.parametrize("n", [0, 1])
def test_filters_follow_is_strong_below_two_vertices(n):
    """The filters count a code strong when is_strong calls its graph
    strong and every vertex has an out- and an in-arc.  The graph with no
    vertices is not strong; the lone vertex is, but it has no arc."""
    succ, pred = _kernels.decode_code(n, 0)
    assert _kernels.is_strong(succ, pred, n) is (n == 1)
    strong = _kernels.is_strong(succ, pred, n) and all(succ) and all(pred)
    for girth_target in TARGETS:
        want = (1, int(strong), [0] if strong and not girth_target else [])
        assert _kernels.filter_range(n, 0, 1, girth_target) == want
        assert _kernels.filter_codes(n, [0], girth_target) == want


def test_filter_codes_matches_oracles_on_a_seeded_n7_batch():
    # The filter's word tables cover n = 7 in three lookups of 7 trits; the
    # batch holds both ends of the code range and is not sorted.
    n = 7
    size = 3 ** (n * (n - 1) // 2)
    rng = random.Random(7)
    codes = [0, size - 1] + [rng.randrange(size) for _ in range(2000)]
    for girth_target in TARGETS:
        assert _kernels.filter_codes(n, codes, girth_target) == expected(n, codes, girth_target)


@st.composite
def unaligned_windows(draw):
    """Windows at n = 5..7 that start and end inside a block of 3**(n-1)
    codes, often straddling a block boundary."""
    n = draw(st.integers(min_value=5, max_value=7))
    block = 3 ** (n - 1)
    blocks = 3 ** ((n - 1) * (n - 2) // 2)
    boundary = block * draw(st.integers(min_value=1, max_value=blocks - 2))
    lo = boundary - draw(st.integers(min_value=-block + 1, max_value=24).filter(lambda d: d != 0))
    hi = lo + draw(st.integers(min_value=1, max_value=48))
    if hi % block == 0:
        hi += 1
    return n, lo, hi


@given(unaligned_windows())
def test_filters_match_oracles_on_unaligned_windows(window):
    check_window(*window)


@st.composite
def group_windows(draw):
    """Windows at n = 5..7 near the first code of a vertex-1 group of
    3**(2n-3) codes (the blocks that share D - {0, 1}), often straddling it;
    they start and end at any code, inside a block or at its edge."""
    n = draw(st.integers(min_value=5, max_value=7))
    group = 3 ** (2 * n - 3)
    groups = 3 ** ((n - 2) * (n - 3) // 2)
    boundary = group * draw(st.integers(min_value=1, max_value=groups - 1))
    lo = boundary - draw(st.integers(min_value=-24, max_value=48))
    return n, lo, lo + draw(st.integers(min_value=1, max_value=60))


@given(group_windows())
def test_filters_match_oracles_across_vertex_1_groups(window):
    check_window(*window)


def test_filter_range_matches_filter_codes_on_a_whole_n7_group():
    # D - {0, 1} is the 5-cycle 2 -> 3 -> 4 -> 5 -> 6 -> 2, so vertices 0
    # and 1 close shorter cycles through them or none.  All 81 * 729 codes
    # of the group, in one call and in pieces that cut blocks, against the
    # lane filter.
    n = 7
    group = 3 ** (2 * n - 3)
    base = trit_code(Digraph(n, [(v, v % 5 + 2) for v in range(2, 7)]))
    assert base % group == 0
    codes = range(base, base + group)
    for girth_target in TARGETS:
        want = _kernels.filter_codes(n, codes, girth_target)
        assert want[2]
        assert _kernels.filter_range(n, base, base + group, girth_target) == want
    cuts = [base, base + 1000, base + group // 3, base + group - 1, base + group]
    pieces = [_kernels.filter_range(n, lo, hi, 4) for lo, hi in zip(cuts, cuts[1:])]
    want = _kernels.filter_codes(n, codes, 4)
    assert (sum(p[0] for p in pieces), sum(p[1] for p in pieces), [c for p in pieces for c in p[2]]) == want


# D - 0 of one whole n = 7 block per girth target, as arcs among vertices
# 1..6: a census chunk is whole blocks, and unaligned_windows draws at most
# 48 codes.  The 6-cycle has girth 6, so vertex 0 closes cycles of 3..7
# arcs; the other two have the target's girth themselves.
SIX_CYCLE = [(v, v % 6 + 1) for v in range(1, 7)]
WHOLE_N7_BLOCKS = {
    0: SIX_CYCLE,
    3: [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 6), (6, 1)],
    4: [(1, 2), (2, 3), (3, 4), (4, 1), (4, 5), (5, 6), (6, 2)],
    5: SIX_CYCLE,
}


@pytest.mark.parametrize("girth_target", TARGETS)
def test_filter_range_matches_oracles_on_a_whole_n7_block(girth_target):
    n = 7
    block = 3 ** (n - 1)
    base = trit_code(Digraph(n, WHOLE_N7_BLOCKS[girth_target]))
    assert base % block == 0
    want = expected(n, range(base, base + block), girth_target)
    assert want[2]  # the block holds survivors
    assert _kernels.filter_range(n, base, base + block, girth_target) == want


def test_filter_codes_matches_oracles_at_order_18():
    # H = D - 0 is the cycle 1 -> 2 -> ... -> 17 -> 1, and the window runs
    # over vertex 0's trits towards vertices 1..7, so cycles through vertex
    # 0 of several lengths come and go.  filter_range does not take this
    # order (test_filter_range_refuses_orders_above_its_cap).
    n = _kernels.CODE_MAX_ORDER
    position = {pair: k for k, pair in enumerate(combinations(range(n), 2))}
    base = sum(3 ** position[(v, v + 1)] for v in range(1, n - 1))
    base += 2 * 3 ** position[(1, n - 1)]
    codes = range(base + 3**6 - 40, base + 3**6 + 25)
    for girth_target in TARGETS:
        assert _kernels.filter_codes(n, codes, girth_target) == expected(n, codes, girth_target)
    assert _kernels.filter_codes(n, codes, 4)[2]  # the window holds strong girth-4 graphs


@pytest.mark.parametrize("n", [8, 18])
def test_filter_range_refuses_orders_above_its_cap(n):
    # filter_range takes code ranges up to RANGE_MAX_ORDER = 7 and refuses
    # larger orders, an empty window too, before it builds a decode layout
    # or a choice list; filter_codes still reads these orders.
    assert _kernels.RANGE_MAX_ORDER == 7
    _kernels._layout.cache_clear()
    _kernels._low_choices.cache_clear()
    for lo, hi in ((0, 1), (5, 5)):
        with pytest.raises(CapExceeded, match=f"up to order 7, not n={n}"):
            _kernels.filter_range(n, lo, hi, 4)
    assert _kernels._layout.cache_info().currsize == 0
    assert _kernels._low_choices.cache_info().currsize == 0
    assert _kernels.filter_codes(n, [0], 4) == (1, 0, [])


@pytest.mark.parametrize("n", [19, 70])
def test_filters_refuse_orders_above_the_cap(n):
    # codes are read up to CODE_MAX_ORDER; an empty window or batch is
    # refused too, before any table is built
    _kernels._layout.cache_clear()
    for call in (
        lambda: _kernels.filter_range(n, 0, 1, 4),
        lambda: _kernels.filter_range(n, 5, 5),
        lambda: _kernels.filter_codes(n, [0], 4),
        lambda: _kernels.filter_codes(n, []),
    ):
        with pytest.raises(CapExceeded, match=f"up to order 18, not n={n}"):
            call()
    assert _kernels._layout.cache_info().currsize == 0


def test_decode_matches_trit_reading():
    """Word tables at every order up to CODE_MAX_ORDER: both halves of the
    packed word (succ and pred) against the trit reading, on the first and
    last code of each order and on seeded random codes.  The two orders
    above it are refused."""
    top = _kernels.CODE_MAX_ORDER
    rng = random.Random(11)
    for n in range(2, top + 1):
        size = 3 ** (n * (n - 1) // 2)
        layout = _kernels._layout(n)
        for code in [0, size - 1] + [rng.randrange(size) for _ in range(20)]:
            D = oracle_digraph(n, code)
            succ, pred = _kernels._split(layout, _kernels._pack(layout, code))
            assert list(succ) == list(D.succ), (n, code)
            assert list(pred) == list(D.pred), (n, code)
            assert _kernels.decode_code(n, code) == (list(D.succ), list(D.pred)), (n, code)
    for n in (top + 1, top + 2):
        with pytest.raises(CapExceeded, match=f"up to order {top}, not n={n}"):
            _kernels.decode_code(n, 0)


# The last and first order of each field width of the packed word: 1 byte
# up to n = 8, 2 up to 16, 4 up to CODE_MAX_ORDER = 18.  Past it, where the
# fields would widen to 8 bytes and then to n bits, codes are refused.
WIDTH_EDGES = (8, 9, 16, 17, 18)
REFUSED_WIDTH_EDGES = (32, 33, 64, 65, 70)


def test_field_widths_change_at_the_width_edges():
    widths = [_kernels._field_bytes(n) for n in WIDTH_EDGES]
    assert widths == [1, 2, 2, 4, 4]


@pytest.mark.parametrize("n", WIDTH_EDGES + REFUSED_WIDTH_EDGES)
def test_decode_matches_trit_reading_at_width_edges(n):
    if n > _kernels.CODE_MAX_ORDER:  # the trit reading is refused up front
        for call in (_kernels.decode_code, Digraph.from_code):
            with pytest.raises(CapExceeded, match=f"up to order 18, not n={n}"):
                call(n, 0)
        return
    size = 3 ** (n * (n - 1) // 2)
    rng = random.Random(n)
    for code in [0, size - 1] + [rng.randrange(size) for _ in range(10)]:
        D = oracle_digraph(n, code)
        assert _kernels.decode_code(n, code) == (list(D.succ), list(D.pred)), (n, code)
        E = Digraph.from_code(n, code)
        assert E == D and E.succ == D.succ and E.pred == D.pred, (n, code)


def layered_code(rng: random.Random, n: int, k: int) -> int:
    """A code whose arcs all go from one of k classes to the next, cyclically:
    every cycle has a multiple of k arcs, so strong draws have girth k."""
    cls = [0] * n
    for i, v in enumerate(rng.sample(range(n), n)):
        cls[v] = i % k
    arcs = [(u, v) for u in range(n) for v in range(n) if cls[v] == (cls[u] + 1) % k and rng.random() < 0.8]
    return trit_code(Digraph(n, arcs))


@pytest.mark.parametrize("n", [8, 9])
def test_filter_codes_matches_oracles_across_the_first_widening(n):
    # n = 9 is the first order with 2-byte fields.  Uniform codes are mostly
    # of girth 3; the layered ones give strong graphs of girth 4 and 5.
    size = 3 ** (n * (n - 1) // 2)
    rng = random.Random(n)
    codes = [0, size - 1] + [rng.randrange(size) for _ in range(300)]
    codes += [layered_code(rng, n, k) for k in (4, 5) for _ in range(100)]
    for girth_target in TARGETS:
        assert _kernels.filter_codes(n, codes, girth_target) == expected(n, codes, girth_target)
    assert all(expected(n, codes, girth_target)[2] for girth_target in TARGETS)


@pytest.mark.parametrize("n", [7, 9, 17])
def test_filter_codes_matches_oracles_across_lane_blocks(n):
    # Lanes are 1, 2 and 4 bytes wide at n = 7, 9 and 17.  The batch holds
    # two whole blocks and three codes more, drawn with repeats from a pool
    # of uniform and layered codes, and strong codes of girth 4 and 5 sit
    # on both sides of each block boundary.
    lanes = _kernels._LANES
    size = 3 ** (n * (n - 1) // 2)
    rng = random.Random(n)
    pool = [0, size - 1] + [rng.randrange(size) for _ in range(60)]
    pool += [layered_code(rng, n, k) for k in (4, 5) for _ in range(40)]
    by_girth = {g: [code for code in pool if verdict(n, code) == (True, g)] for g in (4, 5)}
    codes = [rng.choice(pool) for _ in range(2 * lanes + 3)]
    for boundary in (lanes, 2 * lanes):
        codes[boundary - 2 : boundary + 2] = (
            rng.choice(by_girth[4]), rng.choice(by_girth[5]), rng.choice(by_girth[5]), rng.choice(by_girth[4])
        )
    assert len(set(codes)) < len(codes) and codes != sorted(codes)
    for girth_target in (0, 3, 4, 5, 6):
        assert _kernels.filter_codes(n, codes, girth_target) == expected(n, codes, girth_target)


def test_filter_codes_takes_a_range_and_a_single_code():
    # filter_range hands filter_codes a range when n < 2; a range longer
    # than one block must agree with filter_range's vertex-0 split.
    lo, hi = 1000, 1000 + _kernels._LANES + 40
    for girth_target in TARGETS:
        assert _kernels.filter_codes(5, range(lo, hi), girth_target) == _kernels.filter_range(5, lo, hi, girth_target)
        assert _kernels.filter_codes(1, range(0, 1), girth_target) == (1, 0, [])
    rng = random.Random(3)
    for code in [layered_code(rng, 6, 4) for _ in range(10)] + [0, 3**15 - 1]:
        for girth_target in TARGETS:
            assert _kernels.filter_codes(6, [code], girth_target) == expected(6, [code], girth_target)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_filter_codes_keeps_nothing_above_the_order(n):
    # No cycle is longer than n; the strong codes are counted all the same.
    size = 3 ** (n * (n - 1) // 2)
    rng = random.Random(n)
    codes = [rng.randrange(size) for _ in range(500)]
    strong = _kernels.filter_codes(n, codes)[1]
    assert strong
    for girth_target in (n + 1, n + 2):
        assert _kernels.filter_codes(n, codes, girth_target) == (len(codes), strong, [])
