"""Pure-Python bitmask kernels.

Digraphs on n vertices are handled as adjacency bitmasks: ``succ[v]`` has bit
``u`` set iff the arc v->u is present.  These are the hot primitives behind
strongness/SCC/girth queries and the exhaustive enumeration filter.

``reach`` is the one reachability search of a single graph: the vertices of
a mask that one vertex reaches, forwards along succ or backwards along pred.
Strongness of a digraph (``is_strong``) and of an induced subgraph (lambda'
candidates in ``connectivity``) is two such searches from one vertex, and
``strong_parts`` lists strong components by two such searches per
component.  Sampled codes are judged by the lane filter below, which runs
the same two searches on many codes at once.  The vertex-0 split below
searches nothing: it grows every closure it reads by the extension step.

``layers`` is the one layered search: breadth-first from a vertex set, never
entering a seen mask, up to the first layer with a successor in a sink mask;
it returns the layers and the sinks hit.  Every augmenting path of
``connectivity``'s flows, its strong-bridge test and its pair pass's partner
paths come from it.  ``reach`` and ``girth`` keep their own loops: routed
through ``layers``, on the calls that perfbench's params-large pool makes,
``reach`` took 26% longer per call and ``girth`` 64% longer (it loses its
pruning at the shortest cycle so far), about 24 and 15 us more per graph
(pure Python 3.11.7, shared 2-core x86-64).

Enumeration encoding: unordered vertex pairs are listed lexicographically
((0,1), (0,2), ..., (n-2,n-1)); pair k holds a trit (0 = no arc, 1 = i->j,
2 = j->i) and a graph's code is sum(trit_k * 3**k).  This encoding can never
produce a loop or a digon.

Decoding builds one integer, the packed word, of 2n fields: succ[0..n-1],
then pred[0..n-1].  Each field is a whole number of bytes, 1, 2 or 4, so
the word's bytes read as n machine integers per half give every row at once
(``_split``, the one reader of a packed word).  Decoding reads the code 7
trits at a time, in code order and across row boundaries, and ORs in one
entry of a 3**7-entry table of whole packed words per group: three lookups
at n = 7.  The tables are built per order on first use.  Codes are read up
to order CODE_MAX_ORDER only: check_codes, which every code reader calls
first, refuses larger orders with CapExceeded.  The mask kernels (``reach``,
``strong_parts``, ``layers``, ``girth``, ``arc_within``) take any order.

Lane filter (``filter_codes``).  Sampled codes share no structure, so they
are judged _LANES = 4,096 at a time in bit lanes, broadword style ("SIMD
within a register", Knuth, TAOCP 4A 7.1.3).  A block is decoded one word
table at a time (_lane_fields): the block's digits of the table index a
bytes copy of it, one join makes one buffer of them, and the buffers are
ORed as integers into the block's packed words, which strided slices
transpose into 2n integers, succ[v] and pred[v] of every code, one 8-, 16-
or 32-bit lane per code.  The degree check, the forward and backward reach
from vertex 0 and the girth test are each a few integer operations per
vertex on the whole block (_judge_lanes).  No code is decoded or searched
on its own.  At n = 7 _judge_lanes takes about 0.29 us per code, of which
the decode is about two thirds, against 0.38 us when the decode ORed one
Python int per code and 1.8 us when each code was decoded and searched
alone (round 6 of BENCH_kernels.json).  The joins and ORs run over whole
packed words, so the decode costs more as they grow: filter_codes takes
13-15% longer at n = 16 and 41-46% longer at n = 18 than with one int per
code (round 10), orders where uniform codes find no stratum graph.

Vertex-0 split (``filter_range``).  The lowest n-1 trits are vertex 0's pairs,
so ``code = low + 3**(n-1) * code(H)`` where H = D - 0, and the lowest n-2
trits of code(H) are vertex 1's pairs with vertices 2..n-1.  So each
aligned block of 3**(n-1) consecutive codes shares H, whose ``low`` only
picks vertex 0's out-set O and in-set I (disjoint, since each pair holds
one trit), and each aligned vertex-1 group of 3**(n-2) consecutive blocks
shares H' = D - {0, 1}.  The split judges at two levels:

* per group, H' is decoded once and its ``Tables`` are grown vertex by
  vertex (``tables``): over its 2**(n-2) vertex sets, the unions of the
  forward closures, of the backward closures and of the successor rows,
  and girth(H');
* per block, one extension step (``extend``) adds vertex 1 to them, with
  its out-set O1 and in-set I1 from its trits.  The new vertex x reaches
  fwd(x) = x | ahead'[O1], and a vertex u of H' reaches fwd'(u) and, when
  fwd'(u) meets I1, fwd(x) too; the backward closures mirror this with
  behind'[I1] and O1, the rows of I1 gain x, and girth(H) = min(girth(H'),
  2 + dist_H'(O1, I1)), read by balls around O1 in the row table of H'.  Each
  table doubles, so H's tables take list operations on 2**(n-1) entries
  and no search.  The tables list x last: vertex v >= 2 of D is v - 2 in
  them, and vertex 1 is n - 2.

Each code of the block is then judged from H's tables for vertex 0:

* D is strong iff the vertices that H reaches from O and the vertices that
  reach I in H each cover V(H): a shortest path out of or into vertex 0
  never returns to it, so this is two lookups.  The lone vertex (n = 1) is
  not strong.
* girth(D) = min(girth(H), 2 + dist_H(O, I)): a cycle avoiding vertex 0 lies
  in H, and a shortest one through it is 0 -> a ~> b -> 0 with a in O and
  b in I.  This holds for every girth target, and costs at most
  girth_target - 2 lookups out from O in H's row table.

These are extend's identities for vertex 0 added to H, of which only its
own closures and the girth are read.  The (value, O, I) of vertex
0's trits come from one ascending list per pair of must-sets (the vertices
of H with no in-arc or no out-arc, which a strong D joins to vertex 0),
in the tables' labels, cut to the block's window by bisection.  The tables
grow as 2**(n-1) and the list as 3**(n-1), so filter_range takes orders up
to RANGE_MAX_ORDER = 7 and refuses larger ones with CapExceeded before it
builds any table: exhaustive sweeps stop at order 6, and sampled codes of
every order up to CODE_MAX_ORDER go through filter_codes.  ``extend`` adds
a vertex last to any Tables, so the same step can grow a graph vertex by
vertex for a generator.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from functools import lru_cache
from itertools import compress
from operator import index, itemgetter
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import CapExceeded, InvalidDigraph, InvalidVertex

BACKEND = "pure"

_choice_value = itemgetter(0)

# Codes per block of filter_codes, one lane each.  Against 4,096 lanes,
# the time per code at n = 7 is 6% higher at 2,048 and 2% lower at 8,192,
# and at n = 9 1% and 8% higher (24,576 seeded codes, girth 4, best of 7,
# three runs within 1%), while memory grows with the block: a block's
# buffers and integers peak at 0.68 MB at n = 7 and 0.86 MB at n = 9 (0.34
# and 0.44 MB at 2,048 lanes, 1.35 and 1.73 MB at 8,192, by tracemalloc).
_LANES = 4096

# The highest order whose codes are read.  No sweep needs more: of 20,000
# random codes none is strong with girth 4 at n = 12 or n = 19, and
# lambda_prime_exact refuses its vertex-set walk from order 21.  Its word
# tables hold 6.6 MiB of packed words (7.8 MB as Python ints, built in
# 13 ms), and filter_codes' bytes copy of them 8.6 MB more (built in about
# 20 ms); they grow as n**4 within one field width, and the 4-byte fields
# of n = 17 double them.
CODE_MAX_ORDER = 18

# The highest order whose code ranges filter_range judges, with tables of
# 2**(n-1) vertex sets and a choice list of 3**(n-1) trit values per block
# (module doc).  No exhaustive sweep runs above order 6.
RANGE_MAX_ORDER = 7


def backend_name() -> str:
    return BACKEND


@lru_cache(maxsize=None)
def universe_size(n: int) -> int:
    """Number of oriented graphs on n labelled vertices (3 per vertex pair),
    so codes run over 0 .. universe_size(n) - 1."""
    return 3 ** (n * (n - 1) // 2)


def _vertex(x: object) -> int:
    """x as a vertex label: any integer but a bool, else InvalidVertex."""
    if not isinstance(x, bool):
        try:
            return index(x)
        except TypeError:
            pass
    raise InvalidVertex(f"vertex label {x!r} is not an integer")


def check_codes(n: int, first: int = 0, last: int = -1) -> None:
    """The check in front of every code reader: raise InvalidVertex unless
    n is a non-negative integer (read as Digraph(n) reads it, so not a
    bool), CapExceeded when n is above CODE_MAX_ORDER, then InvalidDigraph
    unless codes first and last are integers, not bools, that encode graphs
    on n vertices.  When last < first (the defaults), only the order is
    checked."""
    if type(n) is not int:  # an int skips the read: decode_code runs this per code
        n = _vertex(n)
    if n < 0:
        raise InvalidVertex(f"vertex count must be non-negative, got {n}")
    if n > CODE_MAX_ORDER:
        raise CapExceeded(f"trit codes are read up to order {CODE_MAX_ORDER}, not n={n}")
    if type(first) is not int or type(last) is not int:
        for code in (first, last):
            try:
                _vertex(code)
            except InvalidVertex:
                raise InvalidDigraph(f"code {code!r} for n={n} is not an integer") from None
    if first > last:
        return
    size = universe_size(n)
    for code in (first, last):
        if not 0 <= code < size:
            raise InvalidDigraph(f"code {code} for n={n} is outside 0..{size - 1}")


def pair_table(n: int) -> list[tuple[int, int]]:
    """Lexicographic list of unordered vertex pairs of 0..n-1."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


# Trits per word-table lookup: one table of 3**7 packed words per 7 pairs.
_WORD_TRITS = 7
_WORD_SPAN = 3**_WORD_TRITS

# struct formats of one field, by its bytes (standard sizes, little-endian)
_FORMATS = {1: "B", 2: "H", 4: "I"}


def _field_bytes(n: int) -> int:
    """Bytes of one succ or pred field of a packed word: n bits rounded up
    to 1, 2 or 4 bytes, so that a field is one machine integer."""
    return 1 << (max(-(-n // 8), 1) - 1).bit_length()


class _Layout(NamedTuple):
    """Decode layout of one order (see _layout)."""

    size: int  # bytes per packed word
    unpack: Callable[..., tuple[int, ...]]  # n fields from a byte offset
    words: list


@lru_cache(maxsize=4)
def _layout(n: int) -> _Layout:
    """Decode layout for order n <= CODE_MAX_ORDER, built on first use.

    The packed word has 2n fields of w bits, a whole number of bytes
    (_field_bytes): succ[v] is field v, at bit w*v, and pred[v] is field
    n + v.  ``unpack`` reads n fields from the word's little-endian bytes,
    so _split takes each half with one call.  ``words`` holds one table per
    7 consecutive trits in code order, and ``words[c][g]`` is the whole
    packed word of those 7 pairs holding value g; an order below 2 has no
    pairs and one table, [0].
    """
    size = _field_bytes(n)
    w = 8 * size
    unpack = struct.Struct(f"<{n}{_FORMATS[size]}").unpack_from
    pred = n * w  # bit of pred[0]
    # The words of trits 0, 1, 2 of pair (i, j): no arc, i -> j, j -> i.
    trits = [
        (0, 1 << w * i + j | 1 << pred + w * j + i, 1 << pred + w * i + j | 1 << w * j + i)
        for i, j in pair_table(n)
    ]
    words = []
    for first in range(0, max(len(trits), 1), _WORD_TRITS):  # one table when n < 2
        table = [0]
        for choices in reversed(trits[first : first + _WORD_TRITS]):
            table = [q | word for q in table for word in choices]
        words.append(table)
    return _Layout(2 * n * size, unpack, words)


def _pack(layout: _Layout, code: int) -> int:
    """The packed word of a code, given its order's _layout."""
    q = 0
    for words in layout.words:
        code, g = divmod(code, _WORD_SPAN)
        q |= words[g]
    return q


def _split(layout: _Layout, q: int) -> tuple[Sequence[int], Sequence[int]]:
    """The succ and pred rows of a packed word, as tuples, the one way every
    reader takes them: two unpacks of its little-endian bytes."""
    fields = q.to_bytes(layout.size, "little")
    return layout.unpack(fields), layout.unpack(fields, layout.size >> 1)


def decode_code(n: int, code: int) -> tuple[list[int], list[int]]:
    """Successor and predecessor masks of the graph with the given
    enumeration code, as lists: the two halves of its packed word, read by
    _split.  Raises as check_codes does."""
    check_codes(n, code, code)
    layout = _layout(n)
    succ, pred = _split(layout, _pack(layout, code))
    return list(succ), list(pred)


def reach(rows: Sequence[int], start: int, within: int) -> int:
    """Vertices of the mask within that vertex start reaches along rows.

    rows[v] is v's successor mask (pred masks search backwards), and the
    search never leaves within; start counts only when it lies in within.
    """
    seen = frontier = 1 << start & within
    while frontier:
        nxt = 0
        while frontier:
            b = frontier & -frontier
            frontier ^= b
            nxt |= rows[b.bit_length() - 1]
        frontier = nxt & within & ~seen
        seen |= frontier
    return seen


def layers(rows: Sequence[int], start: int, seen: int, sinks: int) -> tuple[list[int], int]:
    """The layers of a breadth-first search along rows from the vertex set
    start, and the sinks it hit.

    Layer 0 is start; each next layer is what the last one reaches along
    rows outside seen and the earlier layers.  The search stops after the
    first layer that has a successor in sinks and returns those successors;
    when no layer has one, it returns the layers to exhaustion and 0.
    """
    found = []
    layer = start
    seen |= start
    while layer:
        found.append(layer)
        reached = 0
        while layer:
            b = layer & -layer
            layer ^= b
            reached |= rows[b.bit_length() - 1]
        if reached & sinks:
            return found, reached & sinks
        layer = reached & ~seen
        seen |= layer
    return found, 0


def arc_within(rows: Sequence[int], mask: int) -> Optional[tuple[int, int]]:
    """The smallest arc (t, h) of rows with t and h both in mask, or None."""
    rest = mask
    while rest:
        b = rest & -rest
        rest ^= b
        t = b.bit_length() - 1
        heads = rows[t] & mask
        if heads:
            return t, (heads & -heads).bit_length() - 1
    return None


def is_strong(succ: Sequence[int], pred: Sequence[int], n: int) -> bool:
    """Whether vertex 0 reaches every vertex and every vertex reaches it.

    The digraph with no vertices is not strong.
    """
    full = (1 << n) - 1
    return n > 0 and reach(succ, 0, full) == full and reach(pred, 0, full) == full


def strong_parts(succ: Sequence[int], pred: Sequence[int], within: int) -> list[int]:
    """The non-trivial strong components inside within, as vertex masks.

    within must be a union of strong components.  The component of its
    lowest vertex v is what v reaches backwards inside what it reaches
    forwards, and the rest of what v reaches and the rest of within are
    unions of components again, so each is split the same way (Fleischer,
    Hendrickson and Pinar's forward-backward split).
    """
    comps = []
    parts = [within]
    while parts:
        part = parts.pop()
        if part & (part - 1) == 0:
            continue  # at most one vertex
        v = (part & -part).bit_length() - 1
        ahead = reach(succ, v, part)
        comp = reach(pred, v, ahead)
        if comp != 1 << v:
            comps.append(comp)
        parts += (ahead & ~comp, part & ~ahead)
    return comps


def topological_key(succ: Sequence[int], comp: int, within: int) -> tuple[int, int]:
    """Sort key of a strong component for a topological order, sources
    first: minus the count of what its lowest vertex v reaches inside
    within (a component reaches strictly more than one it reaches), then v."""
    v = (comp & -comp).bit_length() - 1
    return -reach(succ, v, within).bit_count(), v


def girth(succ: Sequence[int], pred: Sequence[int], n: int) -> int:
    """Length of a shortest directed cycle; 0 if acyclic.

    pred must hold the same digraph's predecessor masks.
    """
    best = 0
    for v in range(n):
        back = pred[v]
        if not back or not succ[v]:
            continue
        frontier = succ[v]
        visited = frontier
        length = 1
        while frontier:
            if frontier & back:
                if best == 0 or length + 1 < best:
                    best = length + 1
                break
            if best and length + 1 >= best:
                break
            nxt = 0
            m = frontier
            while m:
                b = m & -m
                m ^= b
                nxt |= succ[b.bit_length() - 1]
            frontier = nxt & ~visited
            visited |= nxt
            length += 1
    return best


class Tables(NamedTuple):
    """A graph on vertices 0..m-1 by the tables the vertex-0 split reads
    (module doc), as ``extend`` grows it one vertex at a time.

    Entry s of a table is a union over the members of vertex set s:
    ``ahead[s]`` of their forward closures (a vertex and all it reaches),
    ``behind[s]`` of their backward closures, and ``heads[s]`` of their
    successor rows.  So the graph has m = len(heads).bit_length() - 1
    vertices, v's successor row is ``heads[1 << v]``, and its closures are
    ``ahead[1 << v]`` and ``behind[1 << v]``.
    """

    ahead: list[int]
    behind: list[int]
    heads: list[int]
    girth: int  # 0 when acyclic


def extend(t: Tables, out: int, into: int) -> Tables:
    """t's graph with one vertex x added last, its arcs x -> out and into -> x.

    out and into are disjoint masks of t's vertices.  x reaches itself and
    what out reaches; a vertex reaches x, and so all that x reaches, iff it
    reaches into; the backward closures mirror this.  Each row of into
    gains x, and x's row is out.  A shortest cycle through x is x -> a ~>
    b -> x with a in out and b in into, so girth = min(t.girth, 2 +
    dist(out, into)), read by balls around out in t.heads.  Each table
    doubles: the entries of the sets without x, then of the same sets
    with x.
    """
    ahead, behind, heads = t.ahead, t.behind, t.heads
    x = len(heads)  # 1 << m
    fwd = x | ahead[out]
    bak = x | behind[into]
    low = [a | fwd if a & into else a for a in ahead]
    grown_ahead = low + [a | fwd for a in low]
    low = [b | bak if b & out else b for b in behind]
    grown_behind = low + [b | bak for b in low]
    low = [h | x if s & into else h for s, h in enumerate(heads)]
    grown_heads = low + [h | out for h in low]
    g = t.girth
    if into:
        near, length = out, 2  # near: the vertices within length - 2 of out
        while near and not (g and length >= g):
            if near & into:
                g = length
                break
            wider = near | heads[near]
            if wider == near:
                break
            near, length = wider, length + 1
    return Tables(grown_ahead, grown_behind, grown_heads, g)


def tables(succ: Sequence[int], pred: Sequence[int]) -> Tables:
    """The Tables of the graph with rows succ and pred, grown by extend
    from the graph with no vertices, one vertex at a time in label order."""
    t = Tables([0], [0], [0], 0)
    for v, (out, into) in enumerate(zip(succ, pred)):
        below = (1 << v) - 1
        t = extend(t, out & below, into & below)
    return t


@lru_cache(maxsize=None)
def _low_choices(n: int, must_out: int, must_in: int) -> list[tuple[int, int, int]]:
    """(value, O, I) for each value below 3**(n-1) of vertex 0's trits at
    order n whose out-set O contains must_out and whose in-set I contains
    must_in, ascending.  O and I are in the labels of H = D - 0 grown from
    D - {0, 1} (module doc): vertex v >= 2 of D is v - 2 and vertex 1 is
    n - 2, so _trit_sets' bit 0 moves to the top.

    Keys are disjoint masks, so all entries over all keys of one order
    number at most 5**(n-1).
    """
    if must_out or must_in:
        return [
            choice
            for choice in _low_choices(n, 0, 0)
            if not (must_out & ~choice[1] or must_in & ~choice[2])
        ]
    top = n - 2
    return [
        (value, o >> 1 | (o & 1) << top, i >> 1 | (i & 1) << top)
        for value, (o, i) in enumerate(map(_trit_sets, range(3 ** (n - 1))))
    ]


@lru_cache(maxsize=None)
def _trit_sets(value: int) -> tuple[int, int]:
    """A vertex's out- and in-set from the trits of its pairs with the
    vertices above it: bit k for the pair with the k-th of them."""
    out = into = 0
    bit = 1
    while value:
        value, t = divmod(value, 3)
        if t == 1:
            out |= bit
        elif t == 2:
            into |= bit
        bit <<= 1
    return out, into


def _judge_block(n, H, base, first, last, girth_target, survivors):
    """Judge codes base+first .. base+last-1, which share H = D - 0 with
    its Tables in the labels of _low_choices (module doc).

    Appends the survivors in ascending order and returns the strong count.
    """
    ahead, behind, heads, g_h = H
    full = (1 << n - 1) - 1  # V(H)
    # A strong D gives vertex 0 every vertex of H with no in-arc as an
    # out-neighbour and every one with no out-arc as an in-neighbour.
    must_out = full & ~heads[full]
    must_in = 0
    for v in range(n - 1):
        if not heads[1 << v]:
            must_in |= 1 << v
    if must_out & must_in:
        return 0
    choices = _low_choices(n, must_out, must_in)
    window = choices[bisect_left(choices, first, key=_choice_value) : bisect_left(choices, last, key=_choice_value)]
    strong = [(value, o, i) for value, o, i in window if ahead[o] == full and behind[i] == full]
    if not (girth_target and strong):
        survivors += [base + value for value, _, _ in strong]
        return len(strong)
    # girth(D) <= girth(H), and an oriented graph has no cycle shorter than 3.
    if girth_target < 3 or 0 < g_h < girth_target:
        return len(strong)
    exact = g_h != girth_target
    for value, o, i in strong:
        # dist_H(O, I) >= k + 1 iff the k-ball around O misses I
        near = o
        for _ in range(girth_target - 3):
            near |= heads[near]
        if near & i or (exact and not (near | heads[near]) & i):
            continue
        survivors.append(base + value)
    return len(strong)


def filter_range(n: int, lo: int, hi: int, girth_target: int = 0) -> tuple[int, int, list[int]]:
    """Scan enumeration codes [lo, hi) and keep the strong ones, of girth
    girth_target when it is nonzero.

    Codes are taken a vertex-1 group at a time (module doc): the Tables of
    D - {0, 1} are built once per group, each block of the group extends
    them by vertex 1, and each code is judged by lookups for vertex 0.
    Partial groups and blocks at either end of the range are judged alike.

    Returns (seen, strong_count, survivor_codes), survivors ascending.
    Raises as check_codes does, then CapExceeded above RANGE_MAX_ORDER
    before any table is built, and InvalidDigraph when the range ends
    before it starts.
    """
    check_codes(n, lo, hi - 1)
    if n > RANGE_MAX_ORDER:
        raise CapExceeded(f"code ranges are filtered up to order {RANGE_MAX_ORDER}, not n={n}")
    if lo > hi:
        raise InvalidDigraph(f"code range {lo}..{hi} for n={n} ends before it starts")
    if n < 2:
        return filter_codes(n, range(lo, hi), girth_target)
    layout = _layout(n)
    block = 3 ** (n - 1)
    group = block * 3 ** (n - 2)
    strong_count = 0
    survivors: list[int] = []
    code = lo
    while code < hi:
        base = code - code % group
        succ, pred = _split(layout, _pack(layout, base))  # vertices 0 and 1 are isolated
        rest = tables([row >> 2 for row in succ[2:]], [row >> 2 for row in pred[2:]])  # D - {0, 1}
        end = min(base + group, hi)
        while code < end:
            start = code - code % block
            H = extend(rest, *_trit_sets((start - base) // block))
            strong_count += _judge_block(n, H, start, code - start, min(block, end - start), girth_target, survivors)
            code = start + block
    return hi - lo, strong_count, survivors


def filter_codes(n: int, codes: Sequence[int], girth_target: int = 0) -> tuple[int, int, list[int]]:
    """Like filter_range but over an explicit code sequence (sampled sweeps).

    Codes are judged _LANES at a time, all codes of a block at once in the
    bit lanes of Python integers (_judge_lanes).  The survivors keep the
    order and the repeats of codes.  Raises as check_codes does on the
    smallest and the largest code: the batch is not scanned code by code,
    since this is the sampled sweep's hot path, so the codes between them
    must be ints.
    """
    check_codes(n, min(codes, default=0), max(codes, default=-1))
    strong_count = 0
    survivors: list[int] = []
    for first in range(0, len(codes), _LANES):
        block = codes[first : first + _LANES]
        strong, flags = _judge_lanes(n, block, girth_target)
        strong_count += strong
        survivors += compress(block, flags)
    return len(codes), strong_count, survivors


@lru_cache(maxsize=4)
def _word_bytes(n: int) -> list[list[bytes]]:
    """The word tables of _layout(n), each packed word as its little-endian
    bytes, built on first use: the lane decode joins them."""
    layout = _layout(n)
    return [[q.to_bytes(layout.size, "little") for q in table] for table in layout.words]


def _lane_fields(n: int, block: Sequence[int]) -> list[int]:
    """The 2n fields of the codes of block, each as one integer of one lane
    per code: succ[0..n-1], then pred[0..n-1] (_judge_lanes).

    The codes must lie in the universe of order n, as check_codes finds.
    For each word table, the block's digits index its bytes copy
    (_word_bytes), one join makes the block's words of that table into one
    buffer, and its integer is ORed into the block's packed words.  The
    digits of the next table come from the quotients by 3**7, and the last
    table is indexed by the quotient itself, which is below its size.
    Strided slices of the packed words, which read the same on either byte
    order, then turn each field into one integer.
    """
    layout = _layout(n)
    size = _field_bytes(n)
    *inner, last = _word_bytes(n)
    packed = 0
    high = block
    for table in inner:
        packed |= int.from_bytes(b"".join([table[code % _WORD_SPAN] for code in high]), "little")
        high = [code // _WORD_SPAN for code in high]
    packed |= int.from_bytes(b"".join(map(last.__getitem__, high)), "little")
    buffer = packed.to_bytes(len(block) * layout.size, "little")
    column = bytearray(len(block) * size)
    fields = []
    for f in range(0, layout.size, size):
        for b in range(size):
            column[b::size] = buffer[f + b :: layout.size]
        fields.append(int.from_bytes(column, "little"))
    return fields


def _judge_lanes(n: int, block: Sequence[int], girth_target: int) -> tuple[int, bytes]:
    """The count of strong codes in block, and one flag byte per code,
    nonzero where the code is strong and of girth girth_target (of any girth
    when it is 0).

    Lane k of an integer is its bits w*k .. w*k+w-1, w = 8 * _field_bytes(n),
    and holds one field of code k.  _lane_fields turns each of the 2n fields
    into one integer: succ[v] and pred[v] of every code at once.  Each test
    is then a few integer operations per vertex on whole blocks:

    * degree: no field is zero, by the rule that
      ``((x & low) + low | x) & top`` has a lane's top bit iff that lane of
      x is nonzero;
    * strongness: vertex 0 reaches every vertex forwards and backwards.
      ``((r >> v) & ones) * full`` fills the lanes where r holds v, so the
      OR over v of ``rows[v]`` and that is one step from r along rows, lane
      by lane; r takes steps until it stops changing;
    * girth: with walks[v] the ends of the walks of L - 1 arcs from v, a
      lane has a closed walk of length L through v iff ``walks[v] & pred[v]``
      is nonzero there.  An oriented graph has no loop and no digon, so its
      girth is the target iff it has a closed walk of the target length and
      none of lengths 3 up to the target minus one.
    """
    size = _field_bytes(n)
    w = 8 * size
    lanes = len(block)
    fields = _lane_fields(n, block)
    succ, pred = fields[:n], fields[n:]

    ones = int.from_bytes(b"\1".ljust(size, b"\0") * lanes, "little")  # bit 0 of each lane
    top = ones << (w - 1)
    low = top - ones
    full = (1 << n) - 1
    every = ones * full  # all n vertices in each lane

    def nonzero(x: int) -> int:
        return ((x & low) + low | x) & top

    def heads(rows: Sequence[int], x: int) -> int:
        """The heads of the arcs out of x along rows, lane by lane."""
        y = 0
        for v, row in enumerate(rows):
            y |= row & ((x >> v) & ones) * full
        return y

    def closure(rows: Sequence[int], r: int) -> int:
        """r and all that r reaches along rows, lane by lane."""
        while (nxt := r | heads(rows, r)) != r:
            r = nxt
        return r

    live = top if n else 0  # the graph with no vertices is not strong
    for x in fields:
        live &= (x & low) + low | x
    start = live >> (w - 1) & every  # vertex 0 in each live lane
    strong = live & ~(nonzero(every ^ closure(succ, start)) | nonzero(every ^ closure(pred, start)))
    keep = strong
    if girth_target and not 3 <= girth_target <= n:
        keep = 0  # the girth is 0 or 3..n
    elif girth_target:
        walks = succ
        for length in range(3, girth_target + 1):
            if not keep:
                break
            walks = [heads(succ, walk) for walk in walks]
            closed = 0
            for walk, back in zip(walks, pred):
                closed |= walk & back
            keep &= nonzero(closed) if length == girth_target else ~nonzero(closed)
    return strong.bit_count(), (keep >> (w - 1)).to_bytes(lanes * size, "little")[::size]
