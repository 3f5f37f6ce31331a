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

Every flow, for lambda and for lambda', is one _flow on successor masks:
its paths run from a source set into a sink set, so the contraction of X is
the flow from X into X, and _cut reads the arcs of a minimum cut off the
least source side.  No capacity matrix is built.  Each augmenting path,
each strong-bridge test and each partner path of the pair pass comes from
one _kernels.layers search; this module runs no search loop of its own.

The restricted-cut rule is stated once, in _residue_hosts: of the strong
parts of a residue D - S, those with an arc wholly outside them, read in D
or in the residue as the reading says.  The one-arc pass and the pair pass
read those hosts directly; is_restricted_arc_cut picks its witness among
them and is the one test of a given arc set, behind the certificate of the
walk, lambda_prime_bruteforce and proof_cut.

The surviving component holds a cycle, so it has at least g = girth(D)
vertices, and a girth cycle spans it if it has g; two vertices are left for
the outside arc.  So the candidate vertex sets are the girth cycles' (the
seeds), then every set of g+1..n-2 vertices: on the n=6 stratum, the seeds.

Both lambda and lambda_prime_exact stop at a lower bound.  A strong digraph
needs at least one arc removed to lose strongness, so a vertex of degree 1
settles lambda before any flow.  lambda_prime_exact walks the candidates
and stops at the first cut of the floor's size, no cut being smaller.  Up
to two passes over the arcs, each run only from the order where it was
measured to cost less than the walk it saves, set the floor and the masks
walked, and then one walk runs:

* Below order _HOST_PREPASS_MIN_ORDER = 8 no pass runs: the floor is 1 (a
  restricted cut is never empty) and the walk takes every candidate.
* From there up, the one-arc pass (_unit_cut_hosts) lists the hosts of
  D - a over the strong bridges a: exactly the candidate sets of flow 1.
  An arc is a strong bridge when it is its head's only in-arc, or when its
  tail no longer reaches its head; that search stops at the head, so only
  a bridge's runs to the end, and the pass keeps the layers of the others.
  Each arc is searched at most once per lambda_prime_exact call.
* If it finds none and the order is _PAIR_PREPASS_MIN_ORDER = 10 or more,
  the pair pass (_pair_cut_hosts) lists the hosts of D - {a, b}, starting
  from the strong bridges and components the one-arc pass stored and from
  the tail -> head paths it walks back through the kept layers.  With no
  set of flow 1, these are exactly the candidate sets whose flow is 2.
* If the last pass run found hosts, the floor is its flow and the walk
  takes the first host in candidate order alone.  Otherwise the floor is
  one more than that flow, and the walk takes every candidate, or above
  order _WALK_MAX_ORDER = 20 the seeds only and then raises CapExceeded.

The certificate (cut, component, outside arc) is the one the full search
over all candidates would return: a flow that ends below its limit runs
exactly as an unlimited one, and the kept cut only changes on a strictly
smaller flow, so the full search keeps the first candidate, in candidate
order, whose flow is the minimum (and under ResidualHost its first
protected arc with that flow).

xi, the existence witness, the candidate order and the proof cuts all read
the girth cycles, which the Digraph memoises (see cycles).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

from . import _kernels
from .cycles import Cycle, cycles_of_length, girth, girth_cycles, is_cycle
from .digraph import Arc, Digraph, _arc, _bits
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
# unit-capacity max-flow on successor masks


def _flow(
    rows: Sequence[int], sources: int, sinks: int, limit: Optional[int] = None, keep: Optional[Arc] = None
) -> tuple[int, int]:
    """The most arc-disjoint paths from sources to sinks along the successor
    masks rows, by shortest augmenting paths, and the least source side of
    a minimum cut.

    A path's first arc leaves sources, its last enters sinks and its inner
    vertices lie in neither, so sources == sinks == X is the flow between
    X's contracted halves.  An oriented graph has no digon, so a residual
    arc is an unused arc or a used one reversed: pushing a path flips its
    arcs.  keep, an arc between inner vertices, has infinite capacity: it
    stays in its row, its reversal there while a path uses it.

    Each augmenting path is walked back through the _kernels.layers of
    one search from sources.  With a limit, augmenting stops there, and the
    value is then a lower bound and side 0.  Below it, side is the union of
    the last search's layers, sources and what it reached, which every
    maximum flow shares.
    """
    res = list(rows)
    for x in _bits(sources):
        res[x] &= ~sources  # a first arc leaves sources
    kt, kh = keep or (-1, -1)
    value = used = 0  # used: the paths through keep
    while limit is None or value < limit:
        layers, heads = _kernels.layers(res, sources, sources | sinks, sinks)
        if not heads:
            return value, sum(layers)  # the layers are disjoint
        # Walk the layers back from the sinks, flipping one arc per layer;
        # no path may run an arc back into sources or out of sinks, so those
        # get no reversal.
        for layer in reversed(layers):
            while not res[(layer & -layer).bit_length() - 1] & heads:
                layer &= layer - 1
            t = (layer & -layer).bit_length() - 1
            hit = res[t] & heads
            h = (hit & -hit).bit_length() - 1
            if t == kt and h == kh:
                used += 1
                res[h] |= 1 << t
            elif t == kh and h == kt:
                used -= 1
                if not used:
                    res[t] ^= 1 << h
            else:
                res[t] ^= 1 << h
                if not (sources >> t | sinks >> h) & 1:
                    res[h] |= 1 << t
            heads = 1 << t
        value += 1
    return value, 0


def _cut(rows: Sequence[int], side: int, X: int) -> tuple[Arc, ...]:
    """The minimum cut of the flow between X's contracted halves, sorted:
    the arcs from side, the source side _flow gives, to the rest or into X,
    less those inside X."""
    cut: list[Arc] = []
    into = X | ~side
    for t in _bits(side):
        heads = rows[t] & (~side if X >> t & 1 else into)
        while heads:
            h = heads & -heads
            heads ^= h
            cut.append((t, h.bit_length() - 1))
    return tuple(cut)


def arc_connectivity(D: Digraph) -> int:
    """lambda(D): minimum number of arcs whose removal destroys strongness.

    Menger reduction over Schnorr's cyclic pairs (SIAM J. Comput. 8, 1979):
    a minimum cut leaves a vertex set X with no arc out of it, and some
    v in X has v+1 (mod n) outside X, so lambda is the least of the n
    arc-disjoint path counts v -> v+1, each a _flow on D's successor masks.
    """
    if D.n < 2 or not D.is_strong():
        raise NotStrong("arc connectivity needs a strong digraph on >= 2 vertices")
    n = D.n
    best = min(min(D.succ[v].bit_count(), D.pred[v].bit_count()) for v in range(n))
    if best == 1:
        return 1  # a strong digraph has lambda >= 1
    for v in range(n):
        best = min(best, _flow(D.succ, 1 << v, 1 << (v + 1) % n, limit=best)[0])
    return best


# ---------------------------------------------------------------------------
# restricted arc-cuts


def _residue_hosts(
    D: Digraph, arcs: Iterable[Arc], reading: DefinitionReading, within: Optional[int] = None
) -> tuple[list[int], list[int], list[tuple[int, Arc]]]:
    """The restricted-cut rule, stated once, on the residue D - arcs: its
    successor masks, its non-trivial strong parts inside within (a union of
    its strong components; every vertex by default), and the hosts among
    them: each part with an arc wholly outside it, and the smallest such
    arc, looked for in D under OriginalHost and in the residue under
    ResidualHost.
    """
    full = (1 << D.n) - 1
    succ, pred = list(D.succ), list(D.pred)
    for t, h in arcs:
        succ[t] &= ~(1 << h)
        pred[h] &= ~(1 << t)
    parts = _kernels.strong_parts(succ, pred, full if within is None else within)
    rows = D.succ if reading is ORIGINAL_HOST else succ
    hosts = []
    for comp in parts:
        arc = _kernels.arc_within(rows, full & ~comp)
        if arc is not None:
            hosts.append((comp, arc))
    return succ, parts, hosts


def is_restricted_arc_cut(
    D: Digraph, S: Iterable[Arc], reading: DefinitionReading = ORIGINAL_HOST
) -> Optional[tuple[tuple[int, ...], Arc]]:
    """Witness (component, outside arc) if S is a restricted arc-cut, else None.

    Among the hosts of D - S (_residue_hosts), the witness is the one whose
    lowest vertex reaches the fewest vertices in D - S, ties going to the
    larger lowest vertex (the last one in _kernels.topological_key order, so
    a sink-most one), with the lexicographically smallest arc outside it.
    The caller is responsible for D being strong; arcs not in D raise
    UnknownArc.
    """
    cut = []
    for raw in S:
        arc = _arc(raw)
        if not D.has_arc(*arc):
            raise UnknownArc("cut contains an arc not in the digraph", arc=arc)
        cut.append(arc)
    succ, _, found = _residue_hosts(D, cut, reading)
    if not found:
        return None
    if len(found) > 1:
        full = (1 << D.n) - 1
        found.sort(key=lambda c: _kernels.topological_key(succ, c[0], full))
    comp, arc = found[-1]
    return tuple(_bits(comp)), arc


def _found(
    reading: DefinitionReading, cut: tuple[Arc, ...], witness: tuple[tuple[int, ...], Arc]
) -> RestrictedCutCertificate:
    """The certificate of a restricted cut with its witness (component,
    outside arc)."""
    component, outside = witness
    return RestrictedCutCertificate(
        outcome=CutOutcome.FOUND,
        reading=reading,
        cut=cut,
        component=component,
        outside_arc=outside,
    )


def lambda_prime_bruteforce(
    D: Digraph,
    k_max: Optional[int] = None,
    reading: DefinitionReading = ORIGINAL_HOST,
) -> RestrictedCutCertificate:
    """Oracle lambda': try every arc subset by increasing cardinality.

    k_max defaults to |A(D)|, so the oracle assumes no bound of the theorems
    it checks.  If the search space is capped below |A(D)| and nothing is
    found, the outcome is UNKNOWN_BELOW_BOUND rather than NONEXISTENT.  A
    negative k_max raises ValueError.
    """
    if k_max is not None and k_max < 0:
        raise ValueError(f"k_max must be non-negative, got {k_max}")
    m = D.m
    k_max = m if k_max is None else min(k_max, m)
    arcs = D.arcs
    for k in range(k_max + 1):
        for S in combinations(arcs, k):
            witness = is_restricted_arc_cut(D, S, reading)
            if witness is not None:
                return _found(reading, tuple(S), witness)
    if k_max >= m:
        return RestrictedCutCertificate(outcome=CutOutcome.NONEXISTENT, reading=reading)
    return RestrictedCutCertificate(
        outcome=CutOutcome.UNKNOWN_BELOW_BOUND, reading=reading, searched_bound=k_max
    )


def _cycle_vertices(C: Cycle) -> int:
    """The vertex set of cycle C as a mask (its vertices are distinct)."""
    return sum(1 << v for v in C)


def _seed_masks(D: Digraph) -> dict[int, None]:
    """The vertex sets of D's girth cycles with at most n - 2 vertices, in
    girth-cycle order, as an insertion-ordered set of masks."""
    g = girth(D)
    if g is None or g > D.n - 2:
        return {}
    return dict.fromkeys(_cycle_vertices(C) for C in girth_cycles(D))


def _candidate_masks(D: Digraph, seeds: Iterable[int]) -> Iterator[int]:
    """Component-host candidates (see the module docstring): the seeds,
    then every vertex set with g+1..n-2 vertices in (size, value) order;
    nothing when D is acyclic.  The masks are generated lazily, so a search
    that stops early never builds all 2^n of them.
    """
    n = D.n
    yield from seeds
    for k in range((girth(D) or n) + 1, n - 1):  # no size when D is acyclic
        m = (1 << k) - 1
        while not m >> n:
            yield m
            # Gosper's hack: the next larger mask with the same popcount.
            low = m & -m
            ripple = m + low
            m = (((ripple ^ m) >> 2) // low) | ripple


# From this order up, lambda_prime_exact looks for cuts of size 1 arc by arc
# before it walks any vertex set.  Set from round 2 of BENCH_lambda_prime.json
# (benchmarks/bench_lambda_prime.py; reference us per graph, median [quartiles]
# of 9 runs; the one-arc pass against the walk alone) and held by round 4,
# where each arc is searched once by _kernels.layers: it loses at n=7 (67
# [66, 68] against 52 [51, 53] us) and wins from n=8 up (74 [73, 76] against
# 88 [86, 90] us at n=8, 95 against 190 at n=9).
_HOST_PREPASS_MIN_ORDER = 8

# From this order up, when the one-arc pass finds no host, lambda_prime_exact
# looks for cuts of size 2 by arc pairs before it walks any vertex set.  Set
# from the same rows, on the graphs with no cut of size 1 (the only ones it
# changes), both passes against the one-arc pass alone: the pair pass loses
# at n=9 (319 [314, 324] against 310 [303, 321] us in round 4) and wins from
# n=10 up (383 [342, 402] against 856 [819, 924] us).
_PAIR_PREPASS_MIN_ORDER = 10

# Above this order lambda_prime_exact runs both passes and walks no vertex set
# past the girth-cycle seeds: when the passes find no host and no seed gives
# a cut of size 3, it raises CapExceeded.  The walk doubles with each vertex;
# at n = 20 it took 4.2-8.5 s on three seeded lambda' = 2 graphs of girth 4
# and 2.5 s on an H1 member, which it walks to the end (pure Python 3.11.7,
# shared 2-core x86-64).
_WALK_MAX_ORDER = 20


def _unit_cut_hosts(
    D: Digraph, reading: DefinitionReading
) -> tuple[set[int], dict[Arc, list[int]], dict[Arc, list[int]]]:
    """The candidate sets whose contraction flow is 1, as vertex masks; the
    strong bridges of D, each with the non-trivial strong components of D
    with it removed; and every other arc with the layers of its search.

    A vertex set X has flow 1 exactly when, for some arc a, X is one of the
    hosts of the residue D - a (_residue_hosts).  D - a is not strong
    exactly when the tail of a no longer reaches its head (a is a strong
    bridge).  An arc that is its head's only in-arc is one; any other is
    searched once, by _kernels.layers from the tail's other out-neighbours,
    never entering the tail, up to the first layer with the head as a
    successor.  Only a strong bridge's search runs to exhaustion, and only
    then are its components listed.  _pair_cut_hosts starts from the
    bridges and the layers.
    """
    succ, pred = D.succ, D.pred
    hosts: set[int] = set()
    bridges: dict[Arc, list[int]] = {}
    searches: dict[Arc, list[int]] = {}
    for t, h in D.arcs:
        tail, head = 1 << t, 1 << h
        if pred[h] != tail:
            layers, hit = _kernels.layers(succ, succ[t] ^ head, tail, head)
            if hit:
                searches[t, h] = layers
                continue
        _, bridges[t, h], found = _residue_hosts(D, [(t, h)], reading)
        for comp, _ in found:
            hosts.add(comp)
    return hosts, bridges, searches


def _pair_cut_hosts(
    D: Digraph, reading: DefinitionReading, bridges: dict[Arc, list[int]], searches: dict[Arc, list[int]]
) -> set[int]:
    """The candidate sets that two arcs cut off, as vertex masks.

    bridges and searches are what _unit_cut_hosts returns beside its hosts:
    the strong bridges of D (the arcs whose removal breaks strongness),
    each with the non-trivial strong components of D without it, and every
    other arc with the layers of its search from tail to head.  The sets
    returned here and the hosts of _unit_cut_hosts together are the
    candidate sets whose contraction flow is at most 2.

    A vertex set X is one of those exactly when, for some two arcs a and b,
    X is one of the hosts of the residue D - {a, b} (_residue_hosts).
    A set of flow 2 lies strictly inside a strong component of D - a that
    removing b splits, and inside one of D - b that removing a splits, so
    the tail of a does not reach its head in D - {a, b}.  Hence b lies on
    every tail -> head path of a in D - a if a is not a strong bridge, and
    inside a non-trivial strong component of D - a if it is.  A pair is
    tried only when b is among a's partners (the arcs of one shortest such
    path, walked back through a's layers, or of those components) and a
    among b's, and its components are searched for only inside the
    intersection of the two components.
    """
    n = D.n
    full = (1 << n) - 1
    hosts: set[int] = set()
    partners: dict[Arc, int] = {}  # n*n-bit arc masks
    homes: dict[Arc, list[int]] = {}  # a strong bridge's components by vertex
    for (t, h), layers in searches.items():
        # One arc per layer, back from the head; the layers never hold the
        # tail, so the path ends with an arc out of it other than (t, h).
        path, v = 0, h
        for layer in reversed(layers):
            back = D.pred[v] & layer
            u = (back & -back).bit_length() - 1
            path |= 1 << (u * n + v)
            v = u
        partners[t, h] = path | 1 << (t * n + v)
    for a, comps in bridges.items():
        # The tail and head of a bridge lie in different components, so
        # D's own rows give each component's arcs.
        home = [full] * n
        inside = 0
        for comp in comps:
            for v in _bits(comp):
                home[v] = comp
                inside |= (D.succ[v] & comp) << v * n
        partners[a], homes[a] = inside, home
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
            for comp, _ in _residue_hosts(D, (a, (tb, hb)), reading, within)[2]:
                hosts.add(comp)
    return hosts


def _seeds_then_refuse(D: Digraph, seeds: Iterable[int]) -> Iterator[int]:
    """The girth-cycle seeds, then CapExceeded in place of the 2^n other
    vertex sets (the walk's masks above order _WALK_MAX_ORDER)."""
    yield from seeds
    raise CapExceeded(
        f"lambda' at n={D.n} has no cut of size 1 or 2 and no girth cycle "
        f"gives one of size 3; walking the 2^{D.n} vertex sets is refused "
        f"above order {_WALK_MAX_ORDER}"
    )


def _walk(
    D: Digraph, reading: DefinitionReading, masks: Iterable[int], seeds: dict[int, None], floor: int,
    best: Optional[int],
) -> RestrictedCutCertificate:
    """The certificate of the first cut of least contraction flow over
    masks, in their order, counting only flows below best (any flow when
    best is None); NONEXISTENT when no mask qualifies.

    Each mask X runs _flow from X into X on D's successor masks, and the
    cut is _cut of its side.  No cut is smaller than floor, so the walk
    stops at the first cut of that size.  Masks among seeds are strong.
    """
    succ, pred = D.succ, D.pred
    full = (1 << D.n) - 1
    kept: Optional[RestrictedCutCertificate] = None
    for mask in masks:
        start = (mask & -mask).bit_length() - 1
        if mask not in seeds and (
            _kernels.reach(succ, start, mask) != mask or _kernels.reach(pred, start, mask) != mask
        ):
            continue
        if _kernels.arc_within(succ, full & ~mask) is None:
            continue  # no arc wholly outside X
        keeps: list[Optional[Arc]] = [None]
        if reading is RESIDUAL_HOST:
            # The unprotected flow lower-bounds every protected flow, so a
            # pruned unprotected run rules out the whole candidate set.
            if best is not None and _flow(succ, mask, mask, best)[0] >= best:
                continue
            outside = full & ~mask
            keeps = [(t, h) for t in _bits(outside) for h in _bits(succ[t] & outside)]
        for keep in keeps:
            flow, side = _flow(succ, mask, mask, best, keep)
            if best is not None and flow >= best:
                continue
            cut = _cut(succ, side, mask)
            assert len(cut) == flow, "min cut must match the flow value"
            witness = is_restricted_arc_cut(D, cut, reading)
            assert witness is not None, "flow cut must certify as restricted"
            best = flow
            kept = _found(reading, cut, witness)
            if best == floor:
                return kept
    if kept is None and best is not None:
        # A bound is set only by a pass that found a set whose flow is below
        # it (with no bound, the first qualifying set always yields a cut).
        raise AssertionError("qualifying component set produced no cut")
    return kept or RestrictedCutCertificate(outcome=CutOutcome.NONEXISTENT, reading=reading)


def lambda_prime_exact(
    D: Digraph, reading: DefinitionReading = ORIGINAL_HOST
) -> RestrictedCutCertificate:
    """Exact lambda' by contraction max-flow over candidate component sets.

    For each X inducing a strong subdigraph with an arc wholly outside it,
    the cheapest arc set whose removal leaves X as its own strong component
    is the min cut between the contracted halves of X, one of the
    _candidate_masks.  X is strong when it is a seed or when its lowest
    vertex reaches all of X forwards and backwards (two _kernels.reach
    calls).  Each X gets one _flow from X into X on D's successor masks;
    the cut is read off the least source side of a minimum cut, which
    every maximum flow shares.  Under ResidualHost the witness arc must
    additionally survive the cut, so the flow runs once per choice of
    protected outside arc, which _flow keeps at infinite capacity.

    _unit_cut_hosts and _pair_cut_hosts set the floor and the masks, and
    then _walk runs once, as the module docstring says.  This relies on
    _HOST_PREPASS_MIN_ORDER <= _PAIR_PREPASS_MIN_ORDER <= _WALK_MAX_ORDER,
    so that both passes run wherever the walk may be refused.
    """
    if D.n < 2 or not D.is_strong():
        raise NotStrong("lambda' is defined on strong digraphs with >= 2 vertices")
    seeds = _seed_masks(D)
    floor, best, masks = 1, None, _candidate_masks(D, seeds)
    if D.n >= _HOST_PREPASS_MIN_ORDER:
        hosts, bridges, searches = _unit_cut_hosts(D, reading)
        if not hosts and D.n >= _PAIR_PREPASS_MIN_ORDER:
            # No set has flow 1, so the sets two arcs cut off have flow 2.
            floor, hosts = 2, _pair_cut_hosts(D, reading, bridges, searches)
        if hosts:
            # lambda' = floor, and the walk would keep the first host in
            # candidate order: walk that one alone, below floor + 1.
            masks = [m for m in seeds if m in hosts][:1] or [min(hosts, key=lambda m: (m.bit_count(), m))]
            best = floor + 1
        else:
            floor += 1
            if D.n > _WALK_MAX_ORDER:
                masks = _seeds_then_refuse(D, seeds)
    return _walk(D, reading, masks, seeds, floor, best)


def lambda_prime_existence_witness(D: Digraph) -> Optional[tuple[Cycle, Arc]]:
    """First girth cycle with an arc wholly outside it, plus that arc.

    A strong digraph on at least 2 vertices always has a cycle.
    """
    if D.n < 2 or not D.is_strong():
        raise NotStrong("lambda'-connectedness is defined on strong digraphs")
    for C in girth_cycles(D):
        arc = _kernels.arc_within(D.succ, (1 << D.n) - 1 & ~_cycle_vertices(C))
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
) -> Iterator[tuple[Arc, ...]]:
    """The three-arc and two-arc patterns of every rotation of C.

    succ/pred are the masks of the orientation the patterns are built in,
    and cmask is C's vertex set.  With flip, that orientation is the
    reversed digraph, and each pattern is flipped back into D.
    """
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
                    yield tuple(S)
        for a in _bits(succ[w] & pred[z] & pred[u] & off):
            first, second = (z, a) if z < a else (a, z)
            yield ((u, first), (u, second)) if flip else ((first, u), (second, u))


def _proof_cuts(D: Digraph, C: Cycle) -> Iterator[tuple[Arc, ...]]:
    """The candidates of proof_cut_constructions around the 4-cycle C, one
    at a time, in its order but with repeats and empty sets left in."""
    # On girth 4, the paper's case, the 4-cycles are the memoised girth cycles.
    fours = girth_cycles(D) if girth(D) == 4 else cycles_of_length(D, 4)
    n = D.n
    succ, pred = D.succ, D.pred
    carcs = _arc_mask(n, C)
    # A 4-cycle shares as many arcs with C as its reversal does with C's
    # reversal, so one arc mask per 4-cycle serves both orientations: its
    # out-cut here, and its in-cut, which is its out-cut in the reversed
    # digraph.  That digraph lists its 4-cycles read backwards from the
    # same smallest vertex, in sorted order.
    mirrored = []
    for C2 in fours:
        if (_arc_mask(n, C2) & carcs).bit_count() < 2:
            continue
        x2 = _cycle_vertices(C2)
        leaving = entering = 0
        for t in range(n):
            if x2 >> t & 1:
                leaving |= (succ[t] & ~x2) << t * n
            else:
                entering |= (succ[t] & x2) << t * n
        yield _mask_arcs(leaving, n)
        mirrored.append(((C2[0], C2[3], C2[2], C2[1]), entering))
    cmask = _cycle_vertices(C)
    yield from _patterns(succ, pred, C, cmask, False)
    mirrored.sort()
    yield from (_mask_arcs(entering, n) for _, entering in mirrored)
    yield from _patterns(pred, succ, (C[0], C[3], C[2], C[1]), cmask, True)


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
    mask lists its arcs in sorted order.  The candidates come from
    _proof_cuts, which proof_cut draws from one at a time.
    """
    if not (is_cycle(D, C) and len(C) == 4):
        raise NotAFourCycle(f"{tuple(C)} is not a 4-cycle of the digraph")
    return [S for S in dict.fromkeys(_proof_cuts(D, C)) if S]


def proof_cut(D: Digraph, reading: DefinitionReading, bound: int) -> Optional[tuple[Arc, ...]]:
    """The first candidate of proof_cut_constructions, around D's girth
    cycles in order, that is a restricted arc-cut of at most bound arcs, or
    None: the constructive half of the girth-4 upper-bound argument.

    The candidates are built one at a time by _proof_cuts and each is put
    to is_restricted_arc_cut, up to the first cut.  D must be strong; a
    girth other than 4 raises NotAFourCycle.
    """
    if girth(D) != 4:
        raise NotAFourCycle(f"proof cuts are built around 4-cycles; the girth is {girth(D)}")
    for C in girth_cycles(D):
        for S in _proof_cuts(D, C):
            if len(S) <= bound and is_restricted_arc_cut(D, S, reading) is not None:
                return S
    return None
