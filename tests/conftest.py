"""Shared fixtures: independent oracles and hypothesis strategies.

The oracles here deliberately avoid the package's bitmask kernels.  They
work on plain adjacency dicts with textbook algorithms (Kosaraju for strong
components, permutation scans for cycles, subset enumeration for cuts) so
that agreement with the library is meaningful evidence.  The flow oracle
is the dense Edmonds-Karp that connectivity._flow replaced, and the
canonical-form oracle is the brute search that Digraph.canonical_form
refined.  induced, reverse and delete_arcs build derived digraphs from arc
lists; trit_code and strong_components are readings of a digraph that only
the tests take.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Iterable, Optional

import pytest
from hypothesis import settings, strategies as st

from arcconn import Digraph, UnknownArc, _kernels

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


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
# derived digraphs, from arc lists


def induced(D: Digraph, X: Iterable[int]) -> tuple[Digraph, tuple[int, ...]]:
    """The subdigraph induced by X, relabeled to 0..|X|-1, and vmap with
    vmap[new label] = original vertex."""
    verts = sorted(set(X))
    index = {v: i for i, v in enumerate(verts)}
    arcs = [(index[t], index[h]) for t, h in D.arcs if t in index and h in index]
    return Digraph(len(verts), arcs), tuple(verts)


def reverse(D: Digraph) -> Digraph:
    """D with every arc turned around."""
    return Digraph(D.n, [(h, t) for t, h in D.arcs])


def delete_arcs(D: Digraph, S: Iterable[Arc]) -> Digraph:
    """D less the arcs S; UnknownArc for an arc D lacks."""
    gone = set(S)
    for arc in gone:
        if not D.has_arc(*arc):
            raise UnknownArc("arc not in the digraph", arc=arc)
    return Digraph(D.n, [a for a in D.arcs if a not in gone])


# ---------------------------------------------------------------------------
# readings of a digraph that only the tests take


def trit_code(D: Digraph) -> int:
    """The trit enumeration code of D, pair by pair in _kernels.pair_table
    order (digit 1 for i -> j, 2 for j -> i), apart from the word tables
    that decode it."""
    code = 0
    power = 1
    for i, j in _kernels.pair_table(D.n):
        if D.has_arc(i, j):
            code += power
        elif D.has_arc(j, i):
            code += 2 * power
        power *= 3
    return code


def strong_components(D: Digraph) -> tuple[tuple[int, ...], ...]:
    """D's strong components as _kernels.strong_parts finds them, with the
    single vertices it leaves out, as sorted vertex tuples in topological
    order (sources first, by _kernels.topological_key).  This reads the
    kernel; oracle_sccs is the independent route it is checked against."""
    full = (1 << D.n) - 1
    comps = _kernels.strong_parts(D.succ, D.pred, full)
    comps += [1 << v for v in range(D.n) if not sum(comps) >> v & 1]  # disjoint: sum is union
    comps.sort(key=lambda comp: _kernels.topological_key(D.succ, comp, full))
    return tuple(tuple(v for v in range(D.n) if comp >> v & 1) for comp in comps)


# ---------------------------------------------------------------------------
# canonical-form oracle (permutations within degree classes)


def oracle_canonical_form(D: Digraph) -> tuple[Arc, ...]:
    """The arc tuple minimized over the relabelings that keep the vertices
    sorted by (out, in) degree pair; equal iff isomorphic."""
    outs = {v: 0 for v in range(D.n)}
    ins = {v: 0 for v in range(D.n)}
    for t, h in D.arcs:
        outs[t] += 1
        ins[h] += 1
    groups: dict[tuple[int, int], list[int]] = {}
    for v in range(D.n):
        groups.setdefault((outs[v], ins[v]), []).append(v)
    blocks = [groups[k] for k in sorted(groups)]
    best: Optional[tuple[Arc, ...]] = None
    for choice in product(*map(permutations, blocks)):
        perm = {v: new for new, v in enumerate(v for order in choice for v in order)}
        cand = tuple(sorted((perm[t], perm[h]) for t, h in D.arcs))
        if best is None or cand < best:
            best = cand
    return best or ()


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


def oracle_cycles_by_paths(D: Digraph, length: int) -> set[tuple[int, ...]]:
    """oracle_cycles_of_length by depth-first search over simple paths on
    dict adjacency, from every start vertex; for orders too large for the
    permutation scan."""
    fwd: dict[int, list[int]] = {v: [] for v in range(D.n)}
    for t, h in D.arcs:
        fwd[t].append(h)
    found: set[tuple[int, ...]] = set()

    def walk(path: list[int]) -> None:
        if len(path) == length:
            if path[0] in fwd[path[-1]]:
                low = path.index(min(path))
                found.add(tuple(path[low:] + path[:low]))
            return
        for w in fwd[path[-1]]:
            if w not in path:
                walk(path + [w])

    if length >= 1:
        for v in range(D.n):
            walk([v])
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


def oracle_distances(n: int, arcs: Iterable[Arc], start: Iterable[int], avoid: Iterable[int]) -> dict[int, int]:
    """Breadth-first distances on dict adjacency from the vertex set start
    (each at distance 0) to every vertex reached without passing through
    avoid; start itself is not avoided."""
    fwd: dict[int, list[int]] = {v: [] for v in range(n)}
    for t, h in arcs:
        fwd[t].append(h)
    blocked = set(avoid)
    dist = {v: 0 for v in start}
    queue = deque(dist)
    while queue:
        x = queue.popleft()
        for y in fwd[x]:
            if y not in dist and y not in blocked:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


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


def oracle_closure_size(n: int, arcs: Iterable[Arc], v: int) -> int:
    """Number of vertices v reaches, itself included, by breadth-first search."""
    fwd: dict[int, list[int]] = {u: [] for u in range(n)}
    for t, h in arcs:
        fwd[t].append(h)
    seen = {v}
    queue = [v]
    for x in queue:
        for y in fwd[x]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return len(seen)


def oracle_witness_choice(D: Digraph, S: Iterable[Arc], residual_host: bool = False):
    """The witness is_restricted_arc_cut pins, or None: among the non-trivial
    strong components of D - S with an arc outside them (from D, or from the
    residue), the one whose lowest vertex reaches the fewest vertices in
    D - S, ties to the larger lowest vertex; with the smallest such arc."""
    gone = set(S)
    rest = [a for a in D.arcs if a not in gone]
    host = rest if residual_host else D.arcs
    best = None
    for comp in oracle_sccs(D.n, rest):
        outside = sorted((t, h) for t, h in host if t not in comp and h not in comp)
        if len(comp) < 2 or not outside:
            continue
        low = min(comp)
        key = (oracle_closure_size(D.n, rest, low), -low)
        if best is None or key < best[0]:
            best = key, (tuple(sorted(comp)), outside[0])
    return None if best is None else best[1]


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
# flow oracle (Edmonds-Karp on a dense capacity matrix)


def _oracle_augment(cap: list[list[int]], s: int, t: int) -> list[int]:
    """Breadth-first search tree from s along positive capacities.

    parent[v] is v's parent in the tree and -1 when the search has not
    reached v; the search stops as soon as it reaches t.
    """
    k = len(cap)
    parent = [-1] * k
    parent[s] = s
    queue = deque([s])
    while queue:
        v = queue.popleft()
        row = cap[v]
        for u in range(k):
            if parent[u] < 0 and row[u] > 0:
                parent[u] = v
                if u == t:
                    return parent
                queue.append(u)
    return parent


def _oracle_maxflow(cap: list[list[int]], s: int, t: int) -> tuple[int, list[int]]:
    """Edmonds-Karp on a dense capacity matrix (mutated into the residual).

    Returns the flow value and the last search tree, which marks the source
    side of the least minimum cut.
    """
    flow = 0
    while True:
        parent = _oracle_augment(cap, s, t)
        if parent[t] < 0:
            return flow, parent
        bottleneck = None
        v = t
        while v != s:
            p = parent[v]
            if bottleneck is None or cap[p][v] < bottleneck:
                bottleneck = cap[p][v]
            v = p
        v = t
        while v != s:
            p = parent[v]
            cap[p][v] -= bottleneck
            cap[v][p] += bottleneck
            v = p
        flow += bottleneck


def oracle_flow(D: Digraph, sources: int, sinks: int, keep: Optional[Arc] = None) -> tuple[int, int]:
    """(value, side) of connectivity._flow on D's successor masks, from a
    dense capacity matrix.

    Node 0 emits every arc that leaves sources and node 1 absorbs every arc
    that enters sinks from outside them; the vertices in neither set follow
    in sorted order, with parallel arcs summed.  keep's entry is infinite.
    side is sources with the vertices the last search reached.
    """
    inner = [v for v in range(D.n) if not (sources | sinks) >> v & 1]
    node = {v: i for i, v in enumerate(inner, 2)}
    cap = [[0] * (len(inner) + 2) for _ in range(len(inner) + 2)]
    for t, h in D.arcs:
        if sources >> t & 1:
            a = None if sources >> h & 1 else 0
        else:
            a = node.get(t)  # None for a sink
        b = 1 if sinks >> h & 1 else node.get(h)  # None for a source
        if a is not None and b is not None:
            cap[a][b] += 1
    if keep is not None:
        cap[node[keep[0]]][node[keep[1]]] = D.m + 1  # above every finite cut
    value, tree = _oracle_maxflow(cap, 0, 1)
    return value, sources | sum(1 << v for v in inner if tree[node[v]] >= 0)


# ---------------------------------------------------------------------------
# strategies


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


@st.composite
def linked_cycle_digraphs(draw, min_n: int = 3, max_n: int = 7) -> Digraph:
    """Directed cycles on disjoint vertex sets, joined in a ring by one arc
    from each to the next; the other vertices each get an in-arc from and
    an out-arc to distinct cycle vertices, and up to two arcs are added at
    random.  Always strong, and cuts of a few arcs often leave several
    non-trivial strong components, which the other strategies rarely do."""
    n = draw(st.integers(min_value=max(3, min_n), max_value=max_n))
    perm = draw(st.permutations(list(range(n))))
    k = draw(st.integers(min_value=1, max_value=n // 3))
    # each vertex past the first 3k joins a cycle or, on 0, stays outside
    homes = [draw(st.integers(min_value=0, max_value=k)) for _ in range(n - 3 * k)]
    cycles = [perm[3 * i : 3 * i + 3] + [v for v, c in zip(perm[3 * k :], homes) if c == i + 1] for i in range(k)]
    extra = [v for v, c in zip(perm[3 * k :], homes) if c == 0]
    arcs: set[Arc] = set()
    for C in cycles:
        arcs.update((C[i], C[(i + 1) % len(C)]) for i in range(len(C)))
    if len(cycles) > 1:
        for C, nxt in zip(cycles, cycles[1:] + cycles[:1]):
            link = st.tuples(st.sampled_from(C), st.sampled_from(nxt))
            arcs.add(draw(link.filter(lambda a: (a[1], a[0]) not in arcs)))
    core = [v for C in cycles for v in C]
    for v in extra:
        t, h = draw(st.lists(st.sampled_from(core), min_size=2, max_size=2, unique=True))
        arcs.update(((t, v), (v, h)))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for t, h in draw(st.lists(pairs, max_size=2)):
        if t != h and (h, t) not in arcs:
            arcs.add((t, h))
    return Digraph(n, sorted(arcs))


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
