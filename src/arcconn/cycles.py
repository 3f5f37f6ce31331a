"""Girth and fixed-length directed cycle enumeration.

Cycles are vertex tuples in canonical rotation: the smallest vertex comes
first, and the tuple lists the cycle in arc direction.  Enumeration explores,
from each root r, only paths through vertices larger than r, so every cycle
is produced exactly once and already canonically rotated.  The last vertex
of a cycle is an in-neighbour of r, so it is taken from one mask (the
successors of the path's end among r's in-neighbours above r, off the
path), and a root with no in-neighbour above it starts no search.
"""

from __future__ import annotations

from typing import Optional

from . import _kernels
from .digraph import Digraph
from .errors import AcyclicDigraph

Cycle = tuple[int, ...]


def girth(D: Digraph) -> Optional[int]:
    """Length of a shortest directed cycle, or None if D is acyclic; memoised on D."""
    if D._girth is None:
        object.__setattr__(D, "_girth", _kernels.girth(D.succ, D.pred, D.n))
    return D._girth or None


def cycles_of_length(D: Digraph, g: int) -> list[Cycle]:
    """All directed cycles on exactly g vertices, canonical, sorted.

    An oriented graph has no cycles shorter than 3, so g < 3 yields [].
    """
    if g < 2 or g > D.n:
        return []
    succ = D.succ
    out: list[Cycle] = []
    path = [0] * g
    for root, into in enumerate(D.pred):
        free = -2 << root  # the vertices above root
        if into & free:  # a cycle rooted here ends with an arc from above root
            path[0] = root
            _extend(succ, into & free, root, 1, g, free, path, out)
    out.sort()
    return out


def _extend(succ, closing, v, depth, g, free, path, out):
    """Extend path[:depth], which ends at v, by the vertices in free (those
    above the root, off the path) to cycles of g vertices; the last vertex
    is one of closing (the root's in-neighbours above it), taken by one mask."""
    if depth == g - 1:
        m = succ[v] & free & closing
        while m:
            b = m & -m
            m ^= b
            path[depth] = b.bit_length() - 1
            out.append(tuple(path))
        return
    m = succ[v] & free
    while m:
        b = m & -m
        m ^= b
        u = b.bit_length() - 1
        path[depth] = u
        _extend(succ, closing, u, depth + 1, g, free ^ b, path, out)


def girth_cycles(D: Digraph) -> list[Cycle]:
    """All cycles of length girth(D), memoised on D but returned as a fresh
    list each call; raises AcyclicDigraph when none exist."""
    if D._girth_cycles is None:
        g = girth(D)
        if g is None:
            raise AcyclicDigraph("digraph has no directed cycle")
        object.__setattr__(D, "_girth_cycles", tuple(cycles_of_length(D, g)))
    return list(D._girth_cycles)


def is_cycle(D: Digraph, C: Cycle) -> bool:
    """True iff C is a directed cycle of D (distinct vertices, arcs present)."""
    k = len(C)
    if k < 2 or len(set(C)) != k or min(C) < 0 or max(C) >= D.n:
        return False
    succ = D.succ
    t = C[-1]
    for h in C:
        if not succ[t] >> h & 1:
            return False
        t = h
    return True
