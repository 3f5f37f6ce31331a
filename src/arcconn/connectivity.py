"""Arc connectivity, the degree bound xi, and restricted arc-cuts.

A restricted arc-cut of a strong digraph D is an arc set S such that D - S
has a non-trivial strong component D1 while the rest of the digraph still
carries an arc; lambda'(D) is the smallest size of such a cut.  The phrase
"D - V(D1) contains an arc" can read the arc either in D (OriginalHost) or
in D - S (ResidualHost); every entry point takes the reading explicitly and
defaults to OriginalHost.

Two independent routes compute lambda': lambda_prime_bruteforce enumerates
arc subsets by increasing size, while lambda_prime_exact minimizes, over the
vertex sets X that could host the surviving component, the max-flow value
between the split halves of X contracted to a single vertex.  They must agree
and the test suite holds them to that.

Both lambda and lambda_prime_exact stop at a lower bound.  A strong digraph
needs at least one arc removed to lose strongness, so a vertex of degree 1
settles lambda before any flow.  A restricted cut is never empty, so
lambda' >= 1.  Before the walk over vertex sets, lambda_prime_exact runs up
to two passes over the arcs:

* From order 7 up, the one-arc pass finds the sets that one arc cuts off:
  for each arc a whose removal breaks strongness, the non-trivial strong
  components of D - a with an arc outside them.  These are exactly the
  candidate sets whose contraction flow is 1.  If there are any, lambda' = 1
  and only the first of them in candidate order is walked.
* If there are none and the order is 8 or more, the pair pass finds the
  sets that two arcs cut off: the non-trivial strong components of
  D - {a, b} with an arc outside them (in D under OriginalHost, in
  D - {a, b} under ResidualHost).  It starts from the strong bridges and
  their components that the one-arc pass listed.  With no set of flow 1,
  these are exactly the candidate sets whose flow is 2.  If there are any,
  lambda' = 2 and only the first of them is walked; otherwise lambda' >= 3
  and the walk stops at a cut of size 3.

Where only the one-arc pass runs and finds nothing, the walk stops at a cut
of size 2.  Above order 20 both passes always run, and the walk goes no
further than the girth-cycle vertex sets: when no cut of size 1 or 2 exists
and none of them gives a cut of size 3, lambda_prime_exact raises
CapExceeded.  The certificate (cut, component, outside arc) is the one the
full search over all candidates would return: a flow that ends below its
limit runs exactly as an unlimited one, and the kept cut only changes on a
strictly smaller flow, so the full search keeps the first candidate, in
candidate order, whose flow is the minimum (and under ResidualHost its
first protected arc with that flow).

xi, the existence witness, the candidate order and the proof cuts all read
the girth cycles, which the Digraph memoises (see cycles).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

from . import _kernels
from .cycles import Cycle, cycles_of_length, girth, girth_cycles, is_cycle
from .digraph import Arc, Digraph, _bits
from .errors import CapExceeded, NotAFourCycle, NotAGirthCycle, NotStrong, UnknownArc


class DefinitionReading(Enum):
    """Where the witness arc outside the surviving component must live."""

    ORIGINAL_HOST = "original"
    RESIDUAL_HOST = "residual"

    @classmethod
    def parse(cls, text: str) -> "DefinitionReading":
        for member in cls:
            if member.value == text:
                return member
        raise ValueError(f"unknown reading {text!r}; use 'original' or 'residual'")


ORIGINAL_HOST = DefinitionReading.ORIGINAL_HOST
RESIDUAL_HOST = DefinitionReading.RESIDUAL_HOST


class CutOutcome(Enum):
    FOUND = "found"
    NONEXISTENT = "nonexistent"
    UNKNOWN_BELOW_BOUND = "unknown-below-bound"


@dataclass(frozen=True)
class XiResult:
    """Minimum degree-sum bound over girth cycles."""

    value: int
    cycle: Cycle
    side: str  # "out" or "in": which degree sum achieved the value


@dataclass(frozen=True)
class RestrictedCutCertificate:
    """Result of a lambda' computation, with witnesses when a cut exists."""

    outcome: CutOutcome
    reading: DefinitionReading
    cut: Optional[tuple[Arc, ...]] = None
    component: Optional[tuple[int, ...]] = None
    outside_arc: Optional[Arc] = None
    searched_bound: Optional[int] = None

    @property
    def found(self) -> bool:
        return self.outcome is CutOutcome.FOUND

    @property
    def value(self) -> Optional[int]:
        return len(self.cut) if self.cut is not None else None


# ---------------------------------------------------------------------------
# xi


def xi_of_cycle(D: Digraph, C: Cycle) -> int:
    """min(sum of out-degrees, sum of in-degrees) of C's vertices, minus g."""
    g = girth(D)
    if not is_cycle(D, C) or len(C) != g:
        raise NotAGirthCycle(f"{C} is not a girth cycle of the digraph")
    out_sum = sum(D.succ[v].bit_count() for v in C)
    in_sum = sum(D.pred[v].bit_count() for v in C)
    return min(out_sum, in_sum) - g


def xi(D: Digraph) -> XiResult:
    """Minimum of xi_of_cycle over all girth cycles, smallest cycle on ties."""
    cycles = girth_cycles(D)  # raises AcyclicDigraph when D has no cycle
    g = len(cycles[0])
    best: Optional[XiResult] = None
    for C in cycles:
        out_sum = sum(D.succ[v].bit_count() for v in C) - g
        in_sum = sum(D.pred[v].bit_count() for v in C) - g
        value = min(out_sum, in_sum)
        if best is None or value < best.value:
            side = "out" if out_sum <= in_sum else "in"
            best = XiResult(value=value, cycle=C, side=side)
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# unit-capacity max-flow


def _augment(cap: list[list[int]], s: int, t: int) -> list[int]:
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


def _maxflow(
    cap: list[list[int]], s: int, t: int, limit: Optional[int] = None
) -> tuple[int, list[int]]:
    """Edmonds-Karp on a dense capacity matrix (mutated into the residual).

    Returns the flow value and the last search tree.  With a limit,
    augmentation stops once flow >= limit; the value is then only a lower
    bound, which suffices for pruning.  A value below the limit is exact, and
    the tree then marks the source side of a minimum cut.
    """
    flow = 0
    parent: list[int] = []
    while limit is None or flow < limit:
        parent = _augment(cap, s, t)
        if parent[t] < 0:
            break
        bottleneck: Optional[int] = None
        v = t
        while v != s:
            p = parent[v]
            if bottleneck is None or cap[p][v] < bottleneck:
                bottleneck = cap[p][v]
            v = p
        assert bottleneck is not None and bottleneck > 0
        v = t
        while v != s:
            p = parent[v]
            cap[p][v] -= bottleneck
            cap[v][p] += bottleneck
            v = p
        flow += bottleneck
    return flow, parent


def arc_connectivity(D: Digraph) -> int:
    """lambda(D): minimum number of arcs whose removal destroys strongness.

    Menger reduction: the minimum over ordered pairs of arc-disjoint path
    counts, realized as 2(n-1) unit-capacity flows against a fixed root.
    """
    if D.n < 2 or not D.is_strong():
        raise NotStrong("arc connectivity needs a strong digraph on >= 2 vertices")
    n = D.n
    best = min(min(D.succ[v].bit_count(), D.pred[v].bit_count()) for v in range(n))
    if best == 1:
        return 1  # a strong digraph has lambda >= 1
    base = [[D.succ[i] >> j & 1 for j in range(n)] for i in range(n)]
    for v in range(1, n):
        for s, t in ((0, v), (v, 0)):
            cap = [row[:] for row in base]
            flow, _ = _maxflow(cap, s, t, limit=best)
            if flow < best:
                best = flow
    return best


# ---------------------------------------------------------------------------
# restricted arc-cuts


def _witness_scan(
    D: Digraph, succ: list[int], reading: DefinitionReading
) -> Optional[tuple[tuple[int, ...], Arc]]:
    """Shared core of the restricted-arc-cut test.

    succ must be D's successor masks with the cut taken out.  Scans the
    non-trivial strong components of the residue sink-first (reverse
    topological order) and returns the first one having an arc with both
    endpoints outside it, in D or in the residue as the reading says,
    together with the lexicographically smallest such arc.
    """
    full = (1 << D.n) - 1
    host_rows = D.succ if reading is ORIGINAL_HOST else succ
    for comp in reversed(_kernels.scc_masks(succ, D.n)):
        if comp.bit_count() < 2:
            continue
        arc = _kernels.arc_within(host_rows, full & ~comp)
        if arc is not None:
            return tuple(_bits(comp)), arc
    return None


def is_restricted_arc_cut(
    D: Digraph, S: Iterable[Arc], reading: DefinitionReading = ORIGINAL_HOST
) -> Optional[tuple[tuple[int, ...], Arc]]:
    """Witness (component, outside arc) if S is a restricted arc-cut, else None.

    The caller is responsible for D being strong; arcs not in D raise
    UnknownArc.
    """
    cut = []
    for raw in S:
        arc = (int(raw[0]), int(raw[1]))
        if not D.has_arc(*arc):
            raise UnknownArc("cut contains an arc not in the digraph", arc=arc)
        cut.append(arc)
    succ = list(D.succ)
    for t, h in cut:
        succ[t] &= ~(1 << h)
    return _witness_scan(D, succ, reading)


def lambda_prime_bruteforce(
    D: Digraph,
    k_max: Optional[int] = None,
    reading: DefinitionReading = ORIGINAL_HOST,
) -> RestrictedCutCertificate:
    """Oracle lambda': try every arc subset by increasing cardinality.

    k_max defaults to |A(D)|, so the oracle assumes no bound of the theorems
    it checks.  If the search space is capped below |A(D)| and nothing is
    found, the outcome is UNKNOWN_BELOW_BOUND rather than NONEXISTENT.
    """
    m = D.m
    k_max = m if k_max is None else min(k_max, m)
    arcs = D.arcs
    base = list(D.succ)
    for k in range(k_max + 1):
        for S in combinations(arcs, k):
            succ = base[:]
            for t, h in S:
                succ[t] &= ~(1 << h)
            witness = _witness_scan(D, succ, reading)
            if witness is not None:
                component, outside = witness
                return RestrictedCutCertificate(
                    outcome=CutOutcome.FOUND,
                    reading=reading,
                    cut=tuple(S),
                    component=component,
                    outside_arc=outside,
                )
    if k_max >= m:
        return RestrictedCutCertificate(outcome=CutOutcome.NONEXISTENT, reading=reading)
    return RestrictedCutCertificate(
        outcome=CutOutcome.UNKNOWN_BELOW_BOUND, reading=reading, searched_bound=k_max
    )


def _contracted_capacities(D: Digraph, mask: int) -> tuple[list[list[int]], list[tuple[Arc, int, int]]]:
    """Unit capacity matrix after contracting the vertex set into x_out/x_in.

    Node 0 emits everything leaving the set, node 1 absorbs everything
    entering it; outside vertices follow in sorted order.  A path 0 -> 1 is
    exactly a closed walk leaving and re-entering the set through outside
    vertices, so the min cut is the cheapest arc set destroying all of them.
    Returns (matrix, ends): ends lists (arc, a, b) for every arc of D not
    inside the set, in arc order, with a -> b its edge in the matrix.
    """
    node = [0] * D.n
    k = 2
    for v in range(D.n):
        if not mask >> v & 1:
            node[v] = k
            k += 1
    cap = [[0] * k for _ in range(k)]
    ends = []
    for t, h in D.arcs:
        t_in = mask >> t & 1
        h_in = mask >> h & 1
        if t_in and h_in:
            continue
        a = 0 if t_in else node[t]
        b = 1 if h_in else node[h]
        cap[a][b] += 1
        ends.append(((t, h), a, b))
    return cap, ends


def _seed_masks(D: Digraph) -> dict[int, None]:
    """The vertex sets of D's girth cycles with at most n - 2 vertices, in
    girth-cycle order, as an insertion-ordered set of masks."""
    n = D.n
    cycles = girth_cycles(D) if girth(D) is not None else []
    seeds: dict[int, None] = {}
    for C in cycles:
        m = 0
        for v in C:
            m |= 1 << v
        if m.bit_count() <= n - 2:
            seeds[m] = None
    return seeds


def _candidate_masks(D: Digraph) -> Iterator[int]:
    """Component-host candidates: girth-cycle vertex sets first, then all
    vertex sets with 2..n-2 vertices in (size, value) order.

    The masks are generated lazily, so a search that stops early never
    builds all 2^n of them.
    """
    n = D.n
    seeds = _seed_masks(D)
    yield from seeds
    for k in range(2, n - 1):
        m = (1 << k) - 1
        while not m >> n:
            if m not in seeds:
                yield m
            # Gosper's hack: the next larger mask with the same popcount.
            low = m & -m
            ripple = m + low
            m = (((ripple ^ m) >> 2) // low) | ripple


# From this order up, lambda_prime_exact looks for cuts of size 1 arc by arc
# before it walks any vertex set.  Measured end to end with perfbench
# (alternating runs against the walk alone): at n=6 the pre-pass costs more
# than it saves (census-n6 wall_s +18%, p50 latency +25%), at n=7 it already
# saves (sample-n7 p50 -6%, p95 -9%).
_HOST_PREPASS_MIN_ORDER = 7

# From this order up, when the one-arc pass finds no host, lambda_prime_exact
# looks for cuts of size 2 by arc pairs before it walks any vertex set.  Set
# from the rows of BENCH_lambda_prime.json (benchmarks/bench_lambda_prime.py,
# reference us per graph with no cut of size 1, one-arc pass alone against
# both passes, median and quartiles of 9 runs): the pair pass loses at n=7
# (218 [214, 221] against 147 [144, 151] us) and wins from n=8 up (267
# [267, 272] against 283 [276, 289] us at n=8, 362 against 507 at n=9).
_PAIR_PREPASS_MIN_ORDER = 8

# Above this order lambda_prime_exact runs both passes and walks no vertex set
# past the girth-cycle seeds: when the passes find no host and no seed gives
# a cut of size 3, it raises CapExceeded.  The walk doubles with each vertex;
# at n = 20 it took 4.2-8.5 s on three seeded lambda' = 2 graphs of girth 4
# and 2.5 s on an H1 member, which it walks to the end (pure Python 3.11.7,
# shared 2-core x86-64).
_WALK_MAX_ORDER = 20


def _unit_cut_hosts(
    D: Digraph, reading: DefinitionReading
) -> tuple[set[int], dict[Arc, list[int]]]:
    """The candidate sets whose contraction flow is 1, as vertex masks, and
    the strong bridges of D, each with the non-trivial strong components of
    D with it removed.

    A vertex set X has flow 1 exactly when, for some arc a, X is a strong
    component of D - a, and it is a candidate when some arc lies wholly
    outside it: in D under OriginalHost, in D - a under ResidualHost.  D - a
    is not strong exactly when the tail of a no longer reaches its head
    (a is a strong bridge), which one reach call decides; only then are its
    components listed.  _pair_cut_hosts starts from those lists.
    """
    n = D.n
    full = (1 << n) - 1
    succ, pred = list(D.succ), list(D.pred)
    host_rows = succ if reading is RESIDUAL_HOST else D.succ
    hosts: set[int] = set()
    bridges: dict[Arc, list[int]] = {}
    for t, h in D.arcs:
        succ[t] &= ~(1 << h)
        if not _kernels.reach(succ, t, full) >> h & 1:
            pred[h] &= ~(1 << t)
            comps = bridges[t, h] = list(_strong_parts(succ, pred, full))
            for comp in comps:
                if _kernels.arc_within(host_rows, full & ~comp) is not None:
                    hosts.add(comp)
            pred[h] |= 1 << t
        succ[t] |= 1 << h
    return hosts, bridges


def _strong_parts(succ: list[int], pred: list[int], within: int) -> Iterator[int]:
    """The non-trivial strong components inside within, as vertex masks.

    within must be a union of strong components.  The component of its
    lowest vertex v is what v reaches backwards inside what it reaches
    forwards, and the rest of what v reaches and the rest of within are
    unions of components again, so each is split the same way.
    """
    parts = [within]
    while parts:
        part = parts.pop()
        if part & (part - 1) == 0:
            continue  # at most one vertex
        v = (part & -part).bit_length() - 1
        ahead = _kernels.reach(succ, v, part)
        comp = _kernels.reach(pred, v, ahead)
        if comp != 1 << v:
            yield comp
        parts += (ahead & ~comp, part & ~ahead)


def _tail_head_path(succ: Sequence[int], pred: Sequence[int], t: int, h: int, n: int) -> Optional[int]:
    """One shortest t -> h path in D - (t, h), as an n*n-bit arc mask.

    succ must hold D's successor masks with the arc t -> h taken out, and
    pred D's own predecessor masks.  None when the path does not exist,
    that is, when the arc is a strong bridge of D.
    """
    layers = []
    seen = frontier = 1 << t
    while not frontier >> h & 1:
        layers.append(frontier)
        nxt = 0
        while frontier:
            b = frontier & -frontier
            frontier ^= b
            nxt |= succ[b.bit_length() - 1]
        frontier = nxt & ~seen
        if not frontier:
            return None
        seen |= frontier
    # Walk back one layer at a time; the path has at least two arcs, so the
    # removed arc, which ends at h and leaves layer 0, is never taken.
    path, v = 0, h
    for layer in reversed(layers):
        back = pred[v] & layer
        u = (back & -back).bit_length() - 1
        path |= 1 << (u * n + v)
        v = u
    return path


def _pair_cut_hosts(
    D: Digraph, reading: DefinitionReading, bridges: dict[Arc, list[int]]
) -> set[int]:
    """The candidate sets that two arcs cut off, as vertex masks.

    bridges is what _unit_cut_hosts returns beside its hosts: the strong
    bridges of D (the arcs whose removal breaks strongness), each with the
    non-trivial strong components of D without it.  The sets returned here
    and the hosts of _unit_cut_hosts together are the candidate sets whose
    contraction flow is at most 2.

    A vertex set X is one of those exactly when, for some two arcs a and b,
    X is a non-trivial strong component of D - {a, b} with an arc wholly
    outside it: in D under OriginalHost, in D - {a, b} under ResidualHost.
    A set of flow 2 lies strictly inside a strong component of D - a that
    removing b splits, and inside one of D - b that removing a splits, so
    the tail of a does not reach its head in D - {a, b}.  Hence b lies on
    every tail -> head path of a in D - a if a is not a strong bridge, and
    inside a non-trivial strong component of D - a if it is.  A pair is
    tried only when b is among a's partners (the arcs of one stored path,
    or of those components) and a among b's, and its components are
    searched for only inside the intersection of the two components.
    """
    n = D.n
    full = (1 << n) - 1
    succ, pred = list(D.succ), list(D.pred)
    host_rows = succ if reading is RESIDUAL_HOST else D.succ
    hosts: set[int] = set()
    partners: dict[Arc, int] = {}  # n*n-bit arc masks
    homes: dict[Arc, list[int]] = {}  # a strong bridge's components by vertex
    for t, h in D.arcs:
        comps = bridges.get((t, h))
        if comps is None:
            succ[t] &= ~(1 << h)
            partners[t, h] = _tail_head_path(succ, D.pred, t, h, n)
            succ[t] |= 1 << h
            continue
        # The tail and head of a bridge lie in different components, so
        # D's own rows give each component's arcs.
        home = [full] * n
        inside = 0
        for comp in comps:
            for v in _bits(comp):
                home[v] = comp
                inside |= (D.succ[v] & comp) << v * n
        partners[t, h], homes[t, h] = inside, home
    for a, mask in partners.items():
        ta, ha = a
        bit_a = 1 << (ta * n + ha)
        home_a = homes.get(a)
        for b in _bits(mask):
            tb, hb = divmod(b, n)
            if (tb, hb) <= a or not partners[tb, hb] & bit_a:
                continue
            home_b = homes.get((tb, hb))
            within = (home_a[tb] if home_a else full) & (home_b[ta] if home_b else full)
            succ[ta] &= ~(1 << ha)
            succ[tb] &= ~(1 << hb)
            pred[ha] &= ~(1 << ta)
            pred[hb] &= ~(1 << tb)
            for comp in _strong_parts(succ, pred, within):
                if comp not in hosts and _kernels.arc_within(host_rows, full & ~comp) is not None:
                    hosts.add(comp)
            succ[ta] |= 1 << ha
            succ[tb] |= 1 << hb
            pred[ha] |= 1 << ta
            pred[hb] |= 1 << tb
    return hosts


def lambda_prime_exact(
    D: Digraph, reading: DefinitionReading = ORIGINAL_HOST
) -> RestrictedCutCertificate:
    """Exact lambda' by contraction max-flow over candidate component sets.

    For each X inducing a strong subdigraph with an arc wholly outside it,
    the cheapest arc set whose removal leaves X as its own strong component
    is the min cut between the contracted halves of X.  X is strong when
    its lowest vertex reaches all of X forwards and backwards (two
    _kernels.reach calls).  Each X gets one contracted capacity matrix;
    the cut is read off the source side of the flow's last search tree.
    Under ResidualHost the witness arc must additionally survive the cut,
    so the flow runs once per choice of protected outside arc, each on a
    copy of that matrix with the arc's entry made infinite.  D's girth
    cycles seed the candidate order.

    From order _HOST_PREPASS_MIN_ORDER up, _unit_cut_hosts first lists the
    candidate sets whose flow is 1.  If there are none, from order
    _PAIR_PREPASS_MIN_ORDER up _pair_cut_hosts lists those whose flow is 2.
    If the last pass run finds any, only the first of them in candidate
    order is walked, and only until its flow is reached; otherwise the
    walk stops at the first cut one larger than that pass's flow.  Below
    both orders the walk stops at a cut of size 1.  Either way the
    certificate is the one the full walk over all candidates returns (see
    the module docstring).  Above order _WALK_MAX_ORDER both passes run,
    and when they find no host and no girth-cycle seed gives a cut of
    size 3, it raises CapExceeded rather than walk the 2^n vertex sets.
    """
    if D.n < 2 or not D.is_strong():
        raise NotStrong("lambda' is defined on strong digraphs with >= 2 vertices")
    succ, pred = D.succ, D.pred
    full = (1 << D.n) - 1
    inf = D.m + 1  # above every finite cut
    best: Optional[int] = None
    best_witness: Optional[tuple[tuple[Arc, ...], tuple[int, ...], Arc]] = None
    any_qualifying = False
    floor = 1  # the search stops at a cut of this size: no cut is smaller
    masks: Iterable[int] = _candidate_masks(D)
    seeds_only: Optional[dict[int, None]] = None  # if set, walk no other mask
    refuse = D.n > _WALK_MAX_ORDER
    if D.n >= _HOST_PREPASS_MIN_ORDER or refuse:
        hosts, bridges = _unit_cut_hosts(D, reading)
        flow = 1
        if not hosts and (D.n >= _PAIR_PREPASS_MIN_ORDER or refuse):
            # No set has flow 1, so the sets two arcs cut off have flow 2.
            flow, hosts = 2, _pair_cut_hosts(D, reading, bridges)
        if hosts:
            # lambda' = flow, and the walk would keep the first host in
            # candidate order: walk that one alone, stopping at that flow.
            seeds = [m for m in _seed_masks(D) if m in hosts]
            first = seeds[0] if seeds else min(hosts, key=lambda m: (m.bit_count(), m))
            masks, best, floor = [first], flow + 1, flow
        else:
            floor = flow + 1
            if refuse:
                seeds_only = _seed_masks(D)
    for mask in masks:
        if best == floor:
            break
        if seeds_only is not None and mask not in seeds_only:
            raise CapExceeded(
                f"lambda' at n={D.n} has no cut of size 1 or 2 and no girth cycle "
                f"gives one of size 3; walking the 2^{D.n} vertex sets is refused "
                f"above order {_WALK_MAX_ORDER}"
            )
        start = (mask & -mask).bit_length() - 1
        if _kernels.reach(succ, start, mask) != mask or _kernels.reach(pred, start, mask) != mask:
            continue
        if _kernels.arc_within(succ, full & ~mask) is None:
            continue  # no arc wholly outside X
        any_qualifying = True
        cap, ends = _contracted_capacities(D, mask)
        protect: list[Optional[tuple[int, int]]] = [None]
        if reading is RESIDUAL_HOST:
            # The unprotected flow lower-bounds every protected flow, so a
            # pruned unprotected run rules out the whole candidate set.
            probe = [row[:] for row in cap]
            if best is not None and _maxflow(probe, 0, 1, limit=best)[0] >= best:
                continue
            protect = [(a, b) for _, a, b in ends if a > 1 and b > 1]
        for entry in protect:
            net = cap
            if entry is not None:
                # Infinite capacity: no finite cut removes the protected arc.
                net = [row[:] for row in cap]
                net[entry[0]][entry[1]] = inf
            flow, tree = _maxflow(net, 0, 1, limit=best)
            if best is not None and flow >= best:
                continue
            # The min cut: the arcs from the tree's source side to the rest.
            cut = [arc for arc, a, b in ends if tree[a] >= 0 and tree[b] < 0]
            assert len(cut) == flow, "min cut must match the flow value"
            witness = is_restricted_arc_cut(D, cut, reading)
            assert witness is not None, "flow cut must certify as restricted"
            best = flow
            best_witness = (tuple(sorted(cut)), witness[0], witness[1])
            if best == floor:
                break
    if best_witness is None:
        if any_qualifying:
            # Qualifying sets exist, so some finite cut (e.g. the out-cut of
            # such a set) certifies; reaching here means a logic error.
            raise AssertionError("qualifying component set produced no cut")
        return RestrictedCutCertificate(outcome=CutOutcome.NONEXISTENT, reading=reading)
    cut, component, outside = best_witness
    return RestrictedCutCertificate(
        outcome=CutOutcome.FOUND,
        reading=reading,
        cut=cut,
        component=component,
        outside_arc=outside,
    )


def lambda_prime_existence_witness(D: Digraph) -> Optional[tuple[Cycle, Arc]]:
    """First girth cycle with an arc wholly outside it, plus that arc.

    A strong digraph on at least 2 vertices always has a cycle.
    """
    if D.n < 2 or not D.is_strong():
        raise NotStrong("lambda'-connectedness is defined on strong digraphs")
    for C in girth_cycles(D):
        arc = D.arc_outside(C)
        if arc is not None:
            return C, arc
    return None


def lambda_prime_exists(D: Digraph) -> bool:
    """Theorem-1 test: some girth cycle leaves an arc untouched."""
    return lambda_prime_existence_witness(D) is not None


# ---------------------------------------------------------------------------
# proof-derived cut candidates


def _arc_mask(n: int, C: Cycle) -> int:
    """The arcs of cycle C as the bits t * n + h of one n*n-bit mask."""
    mask = 0
    t = C[-1]
    for h in C:
        mask |= 1 << (t * n + h)
        t = h
    return mask


def _mask_arcs(mask: int, n: int) -> tuple[Arc, ...]:
    """The arcs of an n*n-bit arc mask, in sorted order."""
    return tuple(divmod(b, n) for b in _bits(mask))


def _patterns(
    succ: Sequence[int], pred: Sequence[int], C: Cycle, cmask: int, flip: bool
) -> list[tuple[Arc, ...]]:
    """The three-arc and two-arc patterns of every rotation of C.

    succ/pred are the masks of the orientation the patterns are built in,
    and cmask is C's vertex set.  With flip, that orientation is the
    reversed digraph, and each pattern is flipped back into D.
    """
    cand: list[tuple[Arc, ...]] = []
    off = ~cmask
    for i in range(4):
        u, v, w, z = C[i], C[i - 3], C[i - 2], C[i - 1]
        a1s = succ[u] & pred[v] & off
        xs = succ[w] & pred[u] & off
        if a1s and xs:
            # u->a1 and x->u, so a1 == x would be a digon, which a Digraph
            # cannot hold.
            for a1 in _bits(a1s):
                for x in _bits(xs):
                    S = [(a1, u), (w, v), (x, w)] if flip else [(u, a1), (v, w), (w, x)]
                    S.sort()
                    cand.append(tuple(S))
        for a in _bits(succ[w] & pred[z] & pred[u] & off):
            first, second = (z, a) if z < a else (a, z)
            cand.append(((u, first), (u, second)) if flip else ((first, u), (second, u)))
    return cand


def proof_cut_constructions(D: Digraph, C: Cycle) -> list[tuple[Arc, ...]]:
    """Candidate cuts the girth-4 upper-bound argument builds around C.

    Emits the out-cut of every 4-cycle sharing at least two arcs with C
    (including C itself), the three-arc pattern {u->a1, v->w, w->x}, and the
    two-arc pattern {z->u, a->u}, for every rotation of C where the needed
    arcs exist.  The argument fixes the orientation of C's degree sum without
    loss of generality, so the mirror images of all candidates (computed on
    the reversed digraph and flipped back) are emitted as well.  The list
    holds each candidate once, in first-emitted order, with its arcs sorted.

    Built on masks: arc sets are n*n-bit masks with bit t * n + h for the
    arc t -> h, so "shares at least two arcs" is one popcount, and a cut
    mask lists its arcs in sorted order.
    """
    if not (is_cycle(D, C) and len(C) == 4):
        raise NotAFourCycle(f"{tuple(C)} is not a 4-cycle of the digraph")
    # On girth 4, the paper's case, the 4-cycles are the memoised girth cycles.
    fours = girth_cycles(D) if girth(D) == 4 else cycles_of_length(D, 4)
    n = D.n
    succ, pred = D.succ, D.pred
    carcs = _arc_mask(n, C)
    cand: list[tuple[Arc, ...]] = []
    # A 4-cycle shares as many arcs with C as its reversal does with C's
    # reversal, so one arc mask per 4-cycle serves both orientations: its
    # out-cut here, and its in-cut, which is its out-cut in the reversed
    # digraph.  That digraph lists its 4-cycles read backwards from the
    # same smallest vertex, in sorted order.
    mirrored = []
    for C2 in fours:
        if (_arc_mask(n, C2) & carcs).bit_count() < 2:
            continue
        x2 = 0
        for v in C2:
            x2 |= 1 << v
        leaving = entering = 0
        for t in range(n):
            if x2 >> t & 1:
                leaving |= (succ[t] & ~x2) << t * n
            else:
                entering |= (succ[t] & x2) << t * n
        cand.append(_mask_arcs(leaving, n))
        mirrored.append(((C2[0], C2[3], C2[2], C2[1]), entering))
    cmask = 0
    for v in C:
        cmask |= 1 << v
    cand += _patterns(succ, pred, C, cmask, False)
    mirrored.sort()
    cand += [_mask_arcs(entering, n) for _, entering in mirrored]
    cand += _patterns(pred, succ, (C[0], C[3], C[2], C[1]), cmask, True)
    return [S for S in dict.fromkeys(cand) if S]
