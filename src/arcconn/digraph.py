"""Oriented-graph value type and structural queries.

A Digraph is an immutable digraph on vertices 0..n-1 with no loops and no
digons (if u->v is present, v->u is not).  Adjacency is kept both as a sorted
arc tuple and as successor/predecessor bitmasks; the masks feed the bitmask
kernels for reachability, strong-component (_kernels.strong_parts) and girth
work.
"""

from __future__ import annotations

from itertools import chain, permutations, product
from typing import Iterable, Iterator, Optional, Sequence

from . import _kernels
from ._kernels import _vertex
from .errors import (
    DuplicateArc,
    InvalidDigraph,
    InvalidVertex,
    LoopArc,
    SymmetricPair,
    VertexOutOfRange,
)

Arc = tuple[int, int]


def _arc(raw: Iterable[object]) -> Arc:
    """A (tail, head) pair with both labels read by _vertex."""
    t, h = raw
    return _vertex(t), _vertex(h)


class Digraph:
    """Immutable oriented graph.

    Attributes:
        n: vertex count; vertices are 0..n-1.
        arcs: sorted tuple of (tail, head) pairs.
        succ: per-vertex successor bitmasks (bit u of succ[v] iff v->u).
        pred: per-vertex predecessor bitmasks.

    is_strong(), cycles.girth and cycles.girth_cycles memoise their
    answers in _strong, _girth (0 when acyclic) and _girth_cycles;
    canonical_form() and canonical_labeling() share _canonical, the pair
    (form, labeling).
    """

    __slots__ = ("n", "arcs", "succ", "pred", "_strong", "_canonical", "_girth", "_girth_cycles")

    def __init__(self, n: int, arcs: Iterable[Arc] = ()) -> None:
        n = _vertex(n)
        if n < 0:
            raise InvalidVertex(f"vertex count must be non-negative, got {n}")
        succ = [0] * n
        pred = [0] * n
        seen: set[Arc] = set()
        for raw in arcs:
            arc = _arc(raw)
            t, h = arc
            if not (0 <= t < n and 0 <= h < n):
                raise VertexOutOfRange(
                    f"arc endpoint outside 0..{n - 1}", arc=arc
                )
            if t == h:
                raise _orientation_fault(t, h)
            if arc in seen:
                raise DuplicateArc("arc listed twice", arc=arc)
            if (h, t) in seen:
                raise _orientation_fault(t, h)
            seen.add(arc)
            succ[t] |= 1 << h
            pred[h] |= 1 << t
        self._set(n, tuple(sorted(seen)), succ, pred)

    @classmethod
    def _from_masks(cls, n: int, succ: Sequence[int], pred: Sequence[int]) -> "Digraph":
        """The graph with successor masks succ and predecessor masks pred,
        built unchecked: the caller vouches that the two describe one
        oriented graph on 0..n-1.  The arcs are read off succ in sorted
        order."""
        arcs = []
        for v in range(n):
            m = succ[v]
            while m:
                b = m & -m
                m ^= b
                arcs.append((v, b.bit_length() - 1))
        D = object.__new__(cls)
        D._set(n, tuple(arcs), succ, pred)
        return D

    def _set(self, n: int, arcs: tuple[Arc, ...], succ: Sequence[int], pred: Sequence[int]) -> None:
        """Fill the slots of a new graph; the memos start empty."""
        init = object.__setattr__
        init(self, "n", n)
        init(self, "arcs", arcs)
        init(self, "succ", tuple(succ))
        init(self, "pred", tuple(pred))
        for memo in ("_strong", "_canonical", "_girth", "_girth_cycles"):
            init(self, memo, None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Digraph is immutable")

    # -- basics --------------------------------------------------------

    @property
    def m(self) -> int:
        """Arc count."""
        return len(self.arcs)

    def has_arc(self, tail: int, head: int) -> bool:
        return 0 <= tail < self.n and 0 <= head < self.n and bool(self.succ[tail] >> head & 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self.arcs == other.arcs

    def __hash__(self) -> int:
        return hash((self.n, self.arcs))

    def __repr__(self) -> str:
        if self.m <= 12:
            return f"Digraph({self.n}, {list(self.arcs)})"
        return f"Digraph(n={self.n}, m={self.m})"

    # -- connectivity structure ----------------------------------------

    def is_strong(self) -> bool:
        """Memoised: the arcs never change, and every measurement asks."""
        if self._strong is None:
            object.__setattr__(self, "_strong", _kernels.is_strong(self.succ, self.pred, self.n))
        return self._strong

    # -- derived digraphs ----------------------------------------------

    def relabel(self, perm: Sequence[int]) -> "Digraph":
        """Relabel vertices; perm[old] = new, a permutation of 0..n-1."""
        if sorted(perm) != list(range(self.n)):
            raise InvalidVertex("relabeling is not a permutation of 0..n-1")
        return Digraph(self.n, [(perm[t], perm[h]) for t, h in self.arcs])

    # -- enumeration encoding ------------------------------------------

    @classmethod
    def from_code(cls, n: int, code: int) -> "Digraph":
        """Graph with the given trit enumeration code (see _kernels).

        Built straight from the code's packed word by _from_masks: succ and
        pred are its two halves as decode_code reads them.  A trit code
        cannot encode a loop, a repeated arc or a digon, so the checks of
        __init__ are not run; decode_code checks only the order and the
        code, as _kernels.check_codes does: InvalidVertex unless the order
        is read as __init__ reads it, CapExceeded above
        _kernels.CODE_MAX_ORDER, and InvalidDigraph unless the code is an
        integer in range.  The order is the count of rows decode_code
        returns, so an integer type other than int is read, not kept.
        """
        succ, pred = _kernels.decode_code(n, code)
        return cls._from_masks(len(succ), succ, pred)

    # -- isomorphism-invariant form ------------------------------------

    def canonical_form(self) -> tuple[Arc, ...]:
        """Arc tuple minimized over relabelings; equal iff isomorphic.

        One refinement round orders the vertices before the search: a
        vertex's signature is its (out, in) degree pair, then the sorted
        degree pairs of its out-neighbours and of its in-neighbours, held as
        one integer per vertex that sorts as those tuples do (each multiset
        of degree pairs is a sum of count fields, see _canonical_form).  The
        vertices of equal signature form a cell, the cells are laid out in
        signature order, and only the relabelings that permute vertices
        within their cells are tried; when every cell holds one vertex, that
        one relabeling is the form, taken without a search.  An isomorphism
        maps every vertex to one of the same signature, so isomorphic graphs
        try the same set of relabeled arc tuples and reach the same minimum.
        The cost grows with the factorials of the cell sizes (n! relabelings
        when every vertex has one signature, as in a vertex-transitive
        graph), so this is meant for desk-scale graphs.  Memoised in
        _canonical, beside the relabeling that attains it
        (canonical_labeling).
        """
        if self._canonical is None:
            object.__setattr__(self, "_canonical", _canonical_form(self.n, self.arcs, self.succ, self.pred))
        return self._canonical[0]

    def canonical_labeling(self) -> tuple[int, ...]:
        """The relabeling perm (perm[old] = new) that canonical_form settles
        on: the one of single-vertex cells, else the first minimizing order
        of its search.  relabel(perm) has the canonical form as its arcs.
        Another graph of the class may be relabeled onto the form by a
        different map when the form has automorphisms; any two such maps
        differ by one of them.  Memoised with the form."""
        if self._canonical is None:
            self.canonical_form()
        return self._canonical[1]


def _canonical_form(
    n: int, arcs: tuple[Arc, ...], succ: Sequence[int], pred: Sequence[int]
) -> tuple[tuple[Arc, ...], tuple[int, ...]]:
    # The form, and the relabeling (new label of each vertex) that gives it.
    # A vertex's cell key is one integer that sorts as the tuple (degree
    # pair, sorted degree pairs of its out-neighbours, sorted degree pairs of
    # its in-neighbours) does.  A degree pair (out, in) is d = out * n + in,
    # below n * n.  A multiset of degree pairs is a sum of one w-bit count
    # field per pair, pair d in field n * n - 1 - d (a count is below
    # n < 2**w), so it fits in b bits.  The key is d << 2b, less the out-sum
    # << b, less the in-sum.  Two vertices of one degree pair have as many
    # out-neighbours, and as many in-neighbours; at the least pair whose
    # count differs, the vertex with more of it has both the smaller sorted
    # tuple and the larger sum, so the smaller key.
    w = n.bit_length()
    b = w * n * n
    degrees = [out.bit_count() * n + into.bit_count() for out, into in zip(succ, pred)]
    unit = [1 << b - w - w * d for d in degrees]
    keys = [d << b + b for d in degrees]
    for t, h in arcs:
        keys[t] -= unit[h] << b
        keys[h] -= unit[t]
    rank = dict(zip(sorted(keys), range(n)))
    if len(rank) == n:  # single-vertex cells leave one order to try
        perm = tuple(map(rank.__getitem__, keys))
        return tuple(sorted([(perm[t], perm[h]) for t, h in arcs])), perm
    cells: dict[int, list[int]] = {}
    for v in sorted(range(n), key=keys.__getitem__):
        cells.setdefault(keys[v], []).append(v)
    best: Optional[list[Arc]] = None
    best_perm: tuple[int, ...] = ()
    perm = [0] * n
    for order in map(chain.from_iterable, product(*map(permutations, cells.values()))):
        for new, v in enumerate(order):
            perm[v] = new
        cand = sorted([(perm[t], perm[h]) for t, h in arcs])
        if best is None or cand < best:
            best, best_perm = cand, tuple(perm)
    return tuple(best), best_perm  # n >= 2 here: some cell holds two vertices


def _orientation_fault(t: int, h: int) -> InvalidDigraph:
    """The error for the arc t -> h of a graph that holds it: a loop when
    t == h, else an arc whose opposite the graph already holds (a digon)."""
    if t == h:
        return LoopArc("loops are not allowed", arc=(t, h))
    return SymmetricPair("opposite arc already present (digons are not allowed)", arc=(t, h))


def _bits(mask: int) -> Iterator[int]:
    while mask:
        b = mask & -mask
        mask ^= b
        yield b.bit_length() - 1

