"""Shared fixtures: independent oracles and hypothesis strategies.

The oracles here deliberately avoid the package's bitmask kernels.  They
work on plain adjacency dicts with textbook algorithms (Kosaraju for strong
components, permutation scans for cycles, subset enumeration for cuts) so
that agreement with the library is meaningful evidence.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Iterable, Optional

import pytest
from hypothesis import settings

from arcconn import Digraph, _kernels

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


def pytest_report_header(config):
    return f"arcconn backend: {_kernels.backend_name()}"


Arc = tuple[int, int]


# ---------------------------------------------------------------------------
# strong-component oracle (Kosaraju on dict adjacency)


def oracle_sccs(n: int, arcs: Iterable[Arc]) -> list[set[int]]:
    fwd: dict[int, list[int]] = {v: [] for v in range(n)}
    rev: dict[int, list[int]] = {v: [] for v in range(n)}
    for t, h in arcs:
        fwd[t].append(h)
        rev[h].append(t)

    seen: set[int] = set()
    order: list[int] = []

    def dfs1(root: int) -> None:
        stack = [(root, iter(fwd[root]))]
        seen.add(root)
        while stack:
            v, it = stack[-1]
            for w in it:
                if w not in seen:
                    seen.add(w)
                    stack.append((w, iter(fwd[w])))
                    break
            else:
                order.append(v)
                stack.pop()

    for v in range(n):
        if v not in seen:
            dfs1(v)

    comps: list[set[int]] = []
    assigned: set[int] = set()
    for v in reversed(order):
        if v in assigned:
            continue
        comp = {v}
        assigned.add(v)
        stack = [v]
        while stack:
            x = stack.pop()
            for w in rev[x]:
                if w not in assigned:
                    assigned.add(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(comp)
    return comps


def oracle_strong(D: Digraph) -> bool:
    return D.n > 0 and len(oracle_sccs(D.n, D.arcs)) == 1


# ---------------------------------------------------------------------------
# cycle oracle (permutation scan)


def oracle_cycles_of_length(D: Digraph, length: int) -> set[tuple[int, ...]]:
    """All directed cycles of exactly `length`, as min-rotated vertex tuples."""
    found: set[tuple[int, ...]] = set()
    for verts in permutations(range(D.n), length):
        if verts[0] != min(verts):
            continue  # canonical rotation starts at the smallest vertex
        if all(D.has_arc(verts[i], verts[(i + 1) % length]) for i in range(length)):
            found.add(verts)
    return found


def oracle_girth(D: Digraph) -> Optional[int]:
    for length in range(2, D.n + 1):
        if oracle_cycles_of_length(D, length):
            return length
    return None


def oracle_girth_bfs(D: Digraph) -> Optional[int]:
    """Girth as the minimum over arcs t->h of 1 + dist(h, t), by breadth-first
    search on dict adjacency; for orders too large for the permutation scan."""
    fwd: dict[int, list[int]] = {v: [] for v in range(D.n)}
    for t, h in D.arcs:
        fwd[t].append(h)
    best = None
    for t, h in D.arcs:
        dist = {h: 0}
        queue = [h]
        for x in queue:
            if x == t:
                if best is None or dist[t] + 1 < best:
                    best = dist[t] + 1
                break
            for y in fwd[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
    return best


# ---------------------------------------------------------------------------
# cut oracles (subset enumeration against the literal definitions)


def brute_lambda(D: Digraph) -> int:
    """Minimum number of arcs whose removal destroys strongness."""
    assert oracle_strong(D) and D.n >= 2
    arcs = D.arcs
    for k in range(1, len(arcs) + 1):
        for S in combinations(arcs, k):
            gone = set(S)
            rest = [a for a in arcs if a not in gone]
            if len(oracle_sccs(D.n, rest)) > 1:
                return k
    raise AssertionError("removing every arc must disconnect")


def oracle_restricted_witness(D: Digraph, S: Iterable[Arc], residual_host: bool = False):
    """(component, outside arc) per the literal definition, or None.

    The surviving strong component must be non-trivial and some arc, taken
    from the original digraph (default) or from the residue, must have both
    endpoints outside it.
    """
    gone = set(S)
    rest = [a for a in D.arcs if a not in gone]
    host = rest if residual_host else D.arcs
    for comp in oracle_sccs(D.n, rest):
        if len(comp) < 2:
            continue
        for t, h in host:
            if t not in comp and h not in comp:
                return comp, (t, h)
    return None


def brute_lambda_prime(D: Digraph, k_max: Optional[int] = None, residual_host: bool = False):
    """(size, cut) of a minimum restricted arc-cut, or None up to k_max."""
    arcs = D.arcs
    top = len(arcs) if k_max is None else min(k_max, len(arcs))
    for k in range(1, top + 1):
        for S in combinations(arcs, k):
            if oracle_restricted_witness(D, S, residual_host) is not None:
                return k, S
    return None


# ---------------------------------------------------------------------------
# strategies

from hypothesis import strategies as st


def digraph_codes(n: int):
    return st.integers(min_value=0, max_value=3 ** (n * (n - 1) // 2) - 1)


@st.composite
def digraphs(draw, min_n: int = 1, max_n: int = 6) -> Digraph:
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    code = draw(digraph_codes(n))
    return Digraph.from_code(n, code)


@st.composite
def strong_digraphs(draw, min_n: int = 3, max_n: int = 6) -> Digraph:
    """Strong oriented graphs: a Hamiltonian-cycle backbone plus whatever
    arcs of a random code do not conflict with it.  Not uniform, but varied
    and always strong (the exhaustive sweeps cover the uniform ground)."""
    n = draw(st.integers(min_value=max(3, min_n), max_value=max_n))
    perm = draw(st.permutations(list(range(n))))
    arcs = {(perm[i], perm[(i + 1) % n]) for i in range(n)}
    extra = Digraph.from_code(n, draw(digraph_codes(n)))
    for t, h in extra.arcs:
        if (t, h) not in arcs and (h, t) not in arcs:
            arcs.add((t, h))
    return Digraph(n, sorted(arcs))


@st.composite
def sparse_strong_digraphs(draw, min_n: int = 3, max_n: int = 6) -> Digraph:
    """A Hamiltonian cycle plus at most n further arcs: sparse enough that
    single arcs often cut off a strong part, which dense draws rarely do."""
    n = draw(st.integers(min_value=max(3, min_n), max_value=max_n))
    perm = draw(st.permutations(list(range(n))))
    arcs = {(perm[i], perm[(i + 1) % n]) for i in range(n)}
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for t, h in draw(st.lists(pairs, max_size=n)):
        if t != h and (h, t) not in arcs:
            arcs.add((t, h))
    return Digraph(n, sorted(arcs))


@st.composite
def double_cycle_digraphs(draw, min_n: int = 3, max_n: int = 6) -> Digraph:
    """Two Hamiltonian cycles, less the arcs of the second that would close a
    digon with the first.  Where the two are arc-disjoint no single arc cuts
    anything off, so most draws have lambda' >= 2 or no restricted cut,
    which the other strategies rarely give."""
    n = draw(st.integers(min_value=max(3, min_n), max_value=max_n))
    arcs: set[Arc] = set()
    for _ in range(2):
        perm = draw(st.permutations(list(range(n))))
        for i in range(n):
            t, h = perm[i], perm[(i + 1) % n]
            if (h, t) not in arcs:
                arcs.add((t, h))
    return Digraph(n, sorted(arcs))


from functools import lru_cache

from arcconn import _kernels


@lru_cache(maxsize=None)
def stratum_codes(n: int) -> tuple[int, ...]:
    """Codes of every strong girth-4 oriented graph on n <= 5 vertices, or a
    deterministic slice of them at n = 6."""
    hi = 3 ** (n * (n - 1) // 2)
    if n <= 5:
        _, _, kept = _kernels.filter_range(n, 0, hi, girth_target=4)
    else:
        _, _, kept = _kernels.filter_range(n, 0, hi // 24, girth_target=4)
    return tuple(kept)


def stratum_digraphs(n: int):
    return st.sampled_from(stratum_codes(n)).map(lambda code: Digraph.from_code(n, code))


@pytest.fixture
def l8() -> Digraph:
    """Two 4-cycles (0,1,2,3) and (4,5,6,7) linked by arcs 0->4 and 5->1."""
    return Digraph(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 1), (5, 6), (6, 7), (7, 4)],
    )


@pytest.fixture
def four_cycle() -> Digraph:
    return Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


# ---------------------------------------------------------------------------
# proof-cut candidate oracle: the set-membership builder that the mask-based
# connectivity.proof_cut_constructions replaced, kept verbatim so that the
# two can be held to the same list, contents and order


def _oracle_rotations(C):
    return [tuple(C[(i + j) % 4] for j in range(4)) for i in range(4)]


def _oracle_directed_candidates(succ, pred, C, fours):
    """The candidates of proof_cut_constructions in one orientation.

    succ/pred are the bitmasks of the digraph, fours its sorted 4-cycles.
    """
    from arcconn.digraph import _bits

    cand = []
    carcs = {(C[i], C[(i + 1) % 4]) for i in range(4)}
    cmask = 0
    for v in C:
        cmask |= 1 << v
    for C2 in fours:
        shared = sum((C2[i], C2[(i + 1) % 4]) in carcs for i in range(4))
        if shared >= 2:
            x2 = 0
            for v in C2:
                x2 |= 1 << v
            cand.append(tuple((t, h) for t in _bits(x2) for h in _bits(succ[t] & ~x2)))
    for u, v, w, z in _oracle_rotations(C):
        a1s = _bits(succ[u] & pred[v] & ~cmask)
        xs = list(_bits(succ[w] & pred[u] & ~cmask))
        for a1 in a1s:
            for x in xs:
                if x != a1:
                    cand.append(tuple(sorted([(u, a1), (v, w), (w, x)])))
        for a in _bits(succ[w] & pred[z] & pred[u] & ~cmask):
            cand.append(tuple(sorted([(z, u), (a, u)])))
    return cand


def oracle_proof_cut_constructions(D: Digraph, C) -> list[tuple[Arc, ...]]:
    """Candidate cuts the girth-4 upper-bound argument builds around C."""
    from arcconn.cycles import cycles_of_length, girth, girth_cycles, is_cycle
    from arcconn.errors import NotAFourCycle

    if not (is_cycle(D, C) and len(C) == 4):
        raise NotAFourCycle(f"{tuple(C)} is not a 4-cycle of the digraph")
    # On girth 4, the paper's case, the 4-cycles are the memoised girth cycles.
    fours = girth_cycles(D) if girth(D) == 4 else cycles_of_length(D, 4)
    cand = _oracle_directed_candidates(D.succ, D.pred, C, fours)
    # The reversed digraph swaps succ and pred; its 4-cycles are D's, read
    # backwards from the same smallest vertex.
    rev_fours = sorted((c[0], c[3], c[2], c[1]) for c in fours)
    rev_c = (C[0], C[3], C[2], C[1])
    for S in _oracle_directed_candidates(D.pred, D.succ, rev_c, rev_fours):
        cand.append(tuple(sorted((h, t) for t, h in S)))
    seen = set()
    out = []
    for S in cand:
        if S and S not in seen:
            seen.add(S)
            out.append(S)
    return out
