"""Edge-list and digraph6 serialization: round trips and malformed input."""

from __future__ import annotations

import random

import pytest
from hypothesis import given

from arcconn import (
    Digraph,
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

from .conftest import digraphs


def test_four_cycle_digraph6_token(four_cycle):
    assert emit_digraph6(four_cycle) == "&CO`_"
    assert parse_digraph6("&CO`_") == four_cycle


def test_edge_list_with_comments_and_blanks():
    text = "# a square\n4 4\n0 1\n\n1 2\n2 3  # wraps\n3 0\n"
    D = parse_edge_list(text)
    assert D == Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


@given(digraphs(min_n=1, max_n=8))
def test_round_trips(D):
    assert parse_edge_list(emit_edge_list(D)) == D
    assert parse_digraph6(emit_digraph6(D)) == D
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
    with pytest.raises(InvariantViolation):
        parse_digraph6("&" + chr(63 + 2) + chr(63 + 24))


def test_digraph6_loop_is_invariant_violation():
    # n=2, adjacency bits 1001 -> chunk 100100 -> chr(63 + 36)
    with pytest.raises(InvariantViolation):
        parse_digraph6("&" + chr(63 + 2) + chr(63 + 36))


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
