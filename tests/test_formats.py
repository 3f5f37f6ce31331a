"""Edge-list and digraph6 serialization: round trips and malformed input."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from arcconn import (
    Digraph,
    InvalidDigraph,
    InvariantViolation,
    ParseError,
    emit_digraph6,
    emit_edge_list,
    iter_digraph6,
    load,
    parse,
    parse_digraph6,
    parse_edge_list,
    save,
)
from arcconn.errors import LoopArc, SymmetricPair

from .conftest import digraphs


def test_four_cycle_digraph6_token(four_cycle):
    assert emit_digraph6(four_cycle) == "&CO`_"
    assert parse_digraph6("&CO`_") == four_cycle


def test_edge_list_with_comments_and_blanks():
    text = "# a square\n4 4\n0 1\n\n1 2\n2 3  # wraps\n3 0\n"
    D = parse_edge_list(text)
    assert D == Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def test_digraph6_round_trips_every_small_digraph():
    """Every oriented graph with n <= 4, masks included: the parser builds
    them from the payload, not from the arcs."""
    for n in range(5):
        for code in range(3 ** (n * (n - 1) // 2)):
            D = Digraph.from_code(n, code)
            E = parse_digraph6(emit_digraph6(D))
            assert E == D and (E.succ, E.pred) == (D.succ, D.pred)


@st.composite
def oriented_graphs(draw, min_n: int, max_n: int) -> Digraph:
    """An oriented graph of any order up to max_n from a drawn arc list,
    each pair kept in the orientation drawn first; not capped at the trit
    codes' orders, so it reaches digraph6's long header (n >= 63)."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    arcs: set[tuple[int, int]] = set()
    if n >= 2:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for t, h in draw(st.lists(pairs, max_size=3 * n)):
            if t != h and (h, t) not in arcs:
                arcs.add((t, h))
    return Digraph(n, sorted(arcs))


@given(st.one_of(digraphs(min_n=1, max_n=8), oriented_graphs(9, 20), oriented_graphs(60, 70)))
def test_round_trips(D):
    assert parse_edge_list(emit_edge_list(D)) == D
    E = parse_digraph6(emit_digraph6(D))
    assert E == D and (E.succ, E.pred) == (D.succ, D.pred)
    assert parse(emit_edge_list(D)) == D
    assert parse(emit_digraph6(D)) == D


@given(digraphs(min_n=1, max_n=8))
def test_emit_parse_emit_is_stable(D):
    for emit in (emit_edge_list, emit_digraph6):
        once = emit(D)
        assert emit(parse(once)) == once


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_edge_list("4 2\n0 1\nnot an arc\n")
    assert err.value.line == 3

    with pytest.raises(ParseError):
        parse_edge_list("")

    with pytest.raises(ParseError, match="claims"):
        parse_edge_list("3 2\n0 1\n")

    # only an optional '-' and ASCII digits: int() alone would read 10 and 1
    for text, line in (("3 1_0\n", 1), ("3 1\n0 +1\n", 2)):
        with pytest.raises(ParseError) as err:
            parse_edge_list(text)
        assert err.value.line == line

    # a digraph6 document holds one graph; comments may follow it
    assert parse("&CO`_\n# done\n") == parse_digraph6("&CO`_")
    with pytest.raises(ParseError) as err:
        parse("&CO_?\n# next\n\n&CA_?\n")
    assert err.value.line == 4


def test_edge_list_digon_is_invariant_violation():
    with pytest.raises(InvariantViolation) as err:
        parse_edge_list("2 2\n0 1\n1 0\n")
    assert err.value.line == 3


def test_edge_list_loop_is_invariant_violation():
    with pytest.raises(InvariantViolation):
        parse_edge_list("2 1\n1 1\n")


def test_digraph6_malformed_documents():
    for bad in ("", "CO`_", "&", "&CO`", "&CO`_?", "&" + chr(62)):
        with pytest.raises(ParseError):
            parse_digraph6(bad)


def test_digraph6_digon_is_invariant_violation():
    # n=2, adjacency bits 0110 -> chunk 011000 -> chr(63 + 24)
    with pytest.raises(InvariantViolation) as err:
        parse_digraph6("&" + chr(63 + 2) + chr(63 + 24))
    assert str(err.value) == (
        "digraph6 payload violates invariants: opposite arc already present (digons are not allowed)"
    )
    assert type(err.value.__cause__) is SymmetricPair and err.value.__cause__.arc == (1, 0)


def test_digraph6_loop_is_invariant_violation():
    # n=2, adjacency bits 1001 -> chunk 100100 -> chr(63 + 36)
    with pytest.raises(InvariantViolation) as err:
        parse_digraph6("&" + chr(63 + 2) + chr(63 + 36))
    assert str(err.value) == "digraph6 payload violates invariants: loops are not allowed"
    assert type(err.value.__cause__) is LoopArc and err.value.__cause__.arc == (0, 0)


def payload_token(n: int, bits: int) -> str:
    """The digraph6 token of an n*n-bit adjacency matrix, row-major with
    bit n*n - 1 first, loops and digons allowed; n <= 62."""
    need = (n * n + 5) // 6
    bits <<= need * 6 - n * n
    return "&" + chr(63 + n) + "".join(chr(63 + (bits >> 6 * k & 0x3F)) for k in reversed(range(need)))


def assert_parsed_as_init_builds(n: int, bits: int) -> None:
    """The token parses to the graph Digraph(n, arcs) builds from its arcs
    in row-major order, or raises InvariantViolation from the very error
    that call raises: same type, message and arc."""
    arcs = [(t, h) for t in range(n) for h in range(n) if bits >> (n * n - 1 - (t * n + h)) & 1]
    token = payload_token(n, bits)
    try:
        D = Digraph(n, arcs)
    except InvalidDigraph as exc:
        with pytest.raises(InvariantViolation) as err:
            parse_digraph6(token)
        cause = err.value.__cause__
        assert (type(cause), str(cause), cause.arc) == (type(exc), str(exc), exc.arc)
        assert str(err.value) == f"digraph6 payload violates invariants: {exc}"
        return
    E = parse_digraph6(token)
    assert (E.n, E.arcs, E.succ, E.pred) == (D.n, D.arcs, D.succ, D.pred)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_every_payload_parses_as_init_builds_it(n):
    """All 2^(n*n) adjacency matrices, loops and digons included."""
    for bits in range(1 << n * n):
        assert_parsed_as_init_builds(n, bits)


@given(st.integers(min_value=4, max_value=12).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=(1 << n * n) - 1))
))
def test_drawn_payloads_parse_as_init_builds_them(case):
    assert_parsed_as_init_builds(*case)


def test_first_offending_arc_in_row_major_order_is_named():
    # row 1 holds the loop (1, 1), which comes before the digon's later arc (2, 0)
    loop_first = [(0, 2), (1, 1), (2, 0)]
    # row 2 holds the digon's later arc (2, 1), which comes before the loop (2, 2)
    digon_first = [(1, 2), (2, 1), (2, 2)]
    for arcs, kind, arc in ((loop_first, LoopArc, (1, 1)), (digon_first, SymmetricPair, (2, 1))):
        bits = sum(1 << (8 - (t * 3 + h)) for t, h in arcs)
        with pytest.raises(InvariantViolation) as err:
            parse_digraph6(payload_token(3, bits))
        assert type(err.value.__cause__) is kind and err.value.__cause__.arc == arc


def seeded_digraph(n: int, seed: int) -> Digraph:
    """A Hamilton cycle and about 2n more arcs of a seeded draw, each pair
    oriented at most once."""
    rng = random.Random(seed)
    arcs = {(v, (v + 1) % n) for v in range(n)}
    for _ in range(2 * n):
        t, h = rng.sample(range(n), 2)
        if (h, t) not in arcs:
            arcs.add((t, h))
    return Digraph(n, sorted(arcs))


@pytest.mark.parametrize("n", [62, 63, 70])
def test_digraph6_round_trips_across_the_long_order_header(n):
    D = seeded_digraph(n, n)
    token = emit_digraph6(D)
    # n <= 62 is one order byte; from 63 it is '~' and n in three 6-bit bytes
    head = chr(63 + n) if n <= 62 else "~" + chr(63) + chr(63 + (n >> 6)) + chr(63 + (n & 0x3F))
    assert token == "&" + head + token[len(head) + 1 :]
    assert len(token) == 1 + len(head) + (n * n + 5) // 6
    assert parse_digraph6(token) == D
    assert parse(token) == D
    assert emit_digraph6(parse(token)) == token


def test_digraph6_rejects_orders_above_258047():
    with pytest.raises(ParseError, match="n <= 258047"):
        emit_digraph6(Digraph(258048, []))
    # '~~' opens the 8-byte header of larger orders
    with pytest.raises(ParseError, match="n <= 258047"):
        parse_digraph6("&~~??????")


def test_edge_list_rejects_orders_above_258047():
    """An edge list no graph id could name is refused at its header, before
    any vertex is allocated."""
    with pytest.raises(ParseError, match="n <= 258047") as info:
        parse_edge_list("258048 0\n")
    assert info.value.line == 1


def test_digraph6_long_order_header_is_checked():
    for bad in ("&~", "&~??", "&~?" + chr(62) + "?", "&~??" + chr(63 + 5)):
        with pytest.raises(ParseError):
            parse_digraph6(bad)
    # orders up to 62 take the one-byte header only
    with pytest.raises(ParseError, match="one-byte header"):
        parse_digraph6("&~??" + chr(63 + 2) + chr(63))


def test_save_load_auto_detect(tmp_path, l8):
    edges = tmp_path / "l8.edges"
    d6 = tmp_path / "l8.d6"
    save(l8, edges)
    save(l8, d6)
    assert load(edges) == l8
    assert load(d6) == l8
    assert edges.read_text().startswith("8 10\n")
    assert d6.read_text().startswith("&")


def test_iter_digraph6(four_cycle, l8):
    text = "# two graphs\n" + emit_digraph6(four_cycle) + "\n\n" + emit_digraph6(l8) + "\n"
    graphs = list(iter_digraph6(text))
    assert graphs == [four_cycle, l8]
