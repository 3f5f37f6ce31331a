"""Generators and recognizers for the seven exception families H1..H7.

Each family is a parameterized strong girth-4 oriented graph that is not
lambda'-connected: every girth cycle covers all arcs.  H1 is a 4-cycle
(u,v,w,z) with four optional fans of path-of-length-2 vertices between the
consecutive cycle vertices.  H2..H7 share the two 4-cycles (u,v,w,z,u) and
(u,v,w,x,u) and differ in the extra vertices:

  H2  fans w->a_i->u and u->b_i->w
  H3  fans u->a_i->v, v->b_i->w and w->c_i->u
  H4  a vertex y with u->y->w adjacent to v, plus a fan w->a_i->u
  H5  an arc between x and z, plus a non-empty fan u->a_i->w
  H6  an arc between x and z, plus fans u->a_i->v and v->b_i->w
  H7  an arc between x and z, plus a vertex y with u->y->w adjacent to v

The table _SHAPES is the one definition of these shapes: each family's fans
(one size parameter each, named p, q, r, s in order), whether x and z are
joined by an arc, and whether y exists.  The size names, the orientation
slots, the vertex counts, the generator, the parameter checks, the census
and the H2..H7 recognizer are all read off it.

"Adjacent" clauses carry an explicit orientation choice ("yv" means the arc
y->v, "xz" means x->z, and so on).  Empty fans are allowed everywhere except
H5, whose definition does not extend the empty-set allowance; the p=0 shape
is nevertheless reachable as H6 with both fans empty.

Generated members use a fixed vertex layout: u=0, v=1, w=2, z=3, then x,
then y where present, then the fan vertices in definition order.

H5 holds no graph that H4 does not.  The vertex map

  u -> w,  v -> z,  w -> u,  z -> v,  x -> y,  a_1 -> x,  a_i -> a_(i-1) (i >= 2)

carries H5(p, xz) onto H4(p-1, yv) and H5(p, zx) onto H4(p-1, vy) arc for
arc, for every p >= 1: the 4-cycle (u,v,w,z) onto (w,z,u,v), the path
w->x->u onto u->y->w, the x-z arc onto the y-v arc, u->a_1->w onto
w->x->u, and the rest of the fan onto H4's fan w->a_i->u.  match_family
answers with the first family in H1..H7 order, so it reports every H5
member as H4, and family_census has no H5 class.  The H5 rule stays, as
the definition lists the family.

Every member of H1, H2 and H3 has 2n-4 arcs, every member of H4, H5 and H6
has 2n-3, and H7 has 2n-2, so match_family rejects any graph whose arc
count lies outside [2n-4, 2n-2] without looking further.

A graph can be a member at several sites: for H1 the girth cycles whose
off-cycle vertices are all fans (_h1_sites, the fan test), for H2..H7 the
spines u->v->w at which the family's rule assembles (_spines and _assemble,
the spine rule).  match_family reports the first site it meets: the least
girth cycle in canonical rotation, or the least (u, v, w).  _member_sites
lists every site of a member, relabeled; a class memo keeps them in
canonical labels, and _site_params reads off them, for any labeling of the
class, the parameters match_family would report there, without matching
again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import product
from typing import Iterator, NamedTuple, Optional, Sequence, Union

from .cycles import Cycle, girth, girth_cycles
from .digraph import Arc, Digraph, _bits
from .errors import InvalidDigraph, InvalidParams

RoleValue = Union[int, tuple[int, ...]]
Incidence = tuple[int, int]  # a vertex's (succ, pred) masks


class Family(Enum):
    H1 = "H1"
    H2 = "H2"
    H3 = "H3"
    H4 = "H4"
    H5 = "H5"
    H6 = "H6"
    H7 = "H7"

    @classmethod
    def parse(cls, text: str) -> "Family":
        try:
            return cls[text.upper()]
        except KeyError:
            raise InvalidParams(f"unknown family {text!r}; expected H1..H7") from None


class _Shape(NamedTuple):
    fans: tuple[str, ...]  # one spine per size, in definition order: "wu" is w->a_i->u
    xz: bool = False  # an arc joins x and z
    y: bool = False  # a vertex y with u->y->w, adjacent to v


_SHAPES: dict[Family, _Shape] = {
    Family.H1: _Shape(("uv", "vw", "wz", "zu")),
    Family.H2: _Shape(("wu", "uw")),
    Family.H3: _Shape(("uv", "vw", "wu")),
    Family.H4: _Shape(("wu",), y=True),
    Family.H5: _Shape(("uw",), xz=True),
    Family.H6: _Shape(("uv", "vw"), xz=True),
    Family.H7: _Shape((), xz=True, y=True),
}

# The named vertices in layout order: every family but H1 has x.
_NAMED: dict[Family, str] = {
    fam: "uvwz" + "x" * (fam is not Family.H1) + "y" * shape.y
    for fam, shape in _SHAPES.items()
}

SIZE_NAMES: dict[Family, tuple[str, ...]] = {
    fam: tuple("pqrs"[: len(shape.fans)]) for fam, shape in _SHAPES.items()
}

# Orientation slots: each "is adjacent to" clause of the definition, with the
# two legal arc spellings; the first spelling is the generator default.
ORIENT_CHOICES: dict[Family, tuple[tuple[str, str], ...]] = {
    fam: (("xz", "zx"),) * shape.xz + (("yv", "vy"),) * shape.y
    for fam, shape in _SHAPES.items()
}


def _base_order(fam: Family) -> int:
    """Vertex count of the member with every fan empty."""
    return len(_NAMED[fam])


def _fans_admissible(fam: Family, sizes: Sequence[int]) -> bool:
    """False only for H5 with an empty fan, which its definition excludes."""
    return fam is not Family.H5 or sizes[0] >= 1


@dataclass(frozen=True)
class FamilyParams:
    family: Family
    sizes: tuple[int, ...] = ()
    orientations: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        names = SIZE_NAMES[self.family]
        if len(self.sizes) != len(names):
            raise InvalidParams(
                f"{self.family.value} takes sizes {names}, got {self.sizes}"
            )
        if any(s < 0 for s in self.sizes):
            raise InvalidParams("fan sizes must be non-negative")
        if not _fans_admissible(self.family, self.sizes):
            raise InvalidParams(f"{self.family.value} requires a non-empty fan (p >= 1)")
        choices = ORIENT_CHOICES[self.family]
        if len(self.orientations) != len(choices):
            raise InvalidParams(
                f"{self.family.value} takes {len(choices)} orientation choice(s), "
                f"got {self.orientations}"
            )
        for value, legal in zip(self.orientations, choices):
            if value not in legal:
                raise InvalidParams(
                    f"orientation {value!r} not one of {legal}"
                )

    @property
    def n(self) -> int:
        return _base_order(self.family) + sum(self.sizes)

    def describe(self) -> str:
        bits = [f"{k}={v}" for k, v in zip(SIZE_NAMES[self.family], self.sizes)]
        bits += list(self.orientations)
        return f"{self.family.value}({','.join(bits)})"


@dataclass(frozen=True)
class FamilyMatch:
    family: Family
    params: FamilyParams
    roles: dict[str, RoleValue] = field(compare=False)

    def describe(self) -> str:
        parts = []
        for key in ("u", "v", "w", "z", "x", "y", "A", "B", "C", "D"):
            if key in self.roles:
                parts.append(f"{key}={self.roles[key]}")
        return f"{self.params.describe()} roles: {', '.join(parts)}"


def generate(params: FamilyParams) -> Digraph:
    """Realize the family member with the fixed vertex layout.

    Raises InvalidParams if the parameters are out of range or the prescribed
    arcs fail the oriented / strong / girth-4 requirements.
    """
    shape = _SHAPES[params.family]
    named = _NAMED[params.family]
    pos = {name: i for i, name in enumerate(named)}
    core = ["uv", "vw", "wz", "zu"]
    if "x" in pos:
        core += ["wx", "xu"]
    core += params.orientations
    if shape.y:
        core += ["uy", "yw"]
    arcs: list[Arc] = [(pos[t], pos[h]) for t, h in core]
    nxt = len(named)
    for (t, h), count in zip(shape.fans, params.sizes):
        for _ in range(count):
            arcs += [(pos[t], nxt), (nxt, pos[h])]
            nxt += 1

    try:
        D = Digraph(nxt, arcs)
    except InvalidDigraph as exc:
        raise InvalidParams(f"parameters produce an invalid digraph: {exc}") from exc
    if not D.is_strong():
        raise InvalidParams("parameters produce a non-strong digraph")
    if girth(D) != 4:
        raise InvalidParams("parameters break the girth-4 requirement")
    return D


# ---------------------------------------------------------------------------
# recognition


def _incidence_table(D: Digraph) -> list[Incidence]:
    """Every vertex's incidence as its (succ, pred) mask pair.

    Two vertices have the same incident arcs exactly when their pairs are
    equal, so a prescribed incidence is one tuple of masks to compare with.
    """
    return list(zip(D.succ, D.pred))


# H1's fans as (tail, head) positions on its 4-cycle (u, v, w, z).
_H1_SIDES = tuple(("uvwz".index(t), "uvwz".index(h)) for t, h in _SHAPES[Family.H1].fans)


def _h1_sites(D: Digraph, inc: list[Incidence]) -> Iterator[tuple[Cycle, tuple[list[int], ...]]]:
    """Every girth cycle (u, v, w, z) of D whose off-cycle vertices are all
    fans, with the fans on its sides uv, vw, wz and zu, in girth_cycles
    order (canonical rotations, sorted); D has 2n-4 arcs.

    Every H1 member has girth 4, so only the girth cycles of a girth-4 graph
    are tried.  Once every vertex off the 4-cycle is a fan vertex, the cycle
    and fan arcs are 2n-4 distinct arcs of D, so they are all of its arcs.
    A vertex t on the fan from s to d has incidence (1 << d, 1 << s).  The
    four sides of a cycle are the same under every rotation, so a cycle
    passes in its canonical rotation or not at all.
    """
    if girth(D) != 4:
        return
    for C in girth_cycles(D):
        bits = [1 << c for c in C]
        side = {(bits[h], bits[t]): k for k, (t, h) in enumerate(_H1_SIDES)}
        fans: tuple[list[int], ...] = ([], [], [], [])
        cycle = bits[0] | bits[1] | bits[2] | bits[3]
        for t, pair in enumerate(inc):
            if cycle >> t & 1:
                continue
            k = side.get(pair)
            if k is None:
                break
            fans[k].append(t)
        else:
            yield C, fans


def _match_h1(D: Digraph, inc: list[Incidence]) -> Optional[FamilyMatch]:
    """H1 on a graph with 2n-4 arcs, at its first site."""
    for C, fans in _h1_sites(D, inc):
        params = FamilyParams(Family.H1, tuple(map(len, fans)))
        roles: dict[str, RoleValue] = dict(zip("uvwz", C))
        roles.update(zip("ABCD", map(tuple, fans)))
        return FamilyMatch(Family.H1, params, roles)
    return None


# Slots of _bucket_outside's buckets: the plain fan vertices of each spine,
# then the core and y patterns.
_FAN_SLOTS = ("wu", "uw", "uv", "vw")
_CORE, _Y = 4, 5


def _bucket_outside(inc: list[Incidence], u: int, v: int, w: int) -> Optional[list[list[int]]]:
    """Classify every non-spine vertex by its full incidence pattern.

    Slots 0..3 hold the plain vertices of the spines in _FAN_SLOTS (slot 0
    is w->t->u), _CORE holds w->t->u plus one more arc, and _Y holds
    u->t->w plus an arc with v.
    """
    U, V, W = 1 << u, 1 << v, 1 << w
    b: list[list[int]] = [[], [], [], [], [], []]
    exact = {
        (U, W): b[0],
        (W, U): b[1],
        (V, U): b[2],
        (W, V): b[3],
        (W | V, U): b[_Y],
        (W, U | V): b[_Y],
    }
    spine = U | V | W
    for t, pair in enumerate(inc):
        if spine >> t & 1:
            continue
        bucket = exact.get(pair)
        if bucket is not None:
            bucket.append(t)
            continue
        out, into = pair
        if out & U and into & W and out.bit_count() + into.bit_count() == 3:
            b[_CORE].append(t)
        else:
            return None
    return b


def _core_pair(inc: list[Incidence], core: list[int], u: int, w: int) -> Optional[tuple[int, int]]:
    """Resolve the two linked 4th-cycle vertices of the families with an
    x-z arc.

    Both carry the plain pattern w->t->u plus one arc joining them to each
    other.  Returns (z, x) with x the tail of the joining arc, so the
    recorded orientation token is always "xz".  Each core vertex has
    exactly one arc beyond w->t->u, so when c's extra arc joins d, it is
    d's extra arc too.
    """
    if len(core) != 2:
        return None
    c, d = core
    out, into = inc[c]
    if out & ~(1 << u) == 1 << d:
        return d, c  # c -> d
    if into & ~(1 << w) == 1 << d:
        return c, d  # d -> c
    return None


# H2..H7 as _assemble reads them: the family, its x-z arc, its number of y
# vertices, the bucket slot of each fan in definition order, and the fan
# slots it lacks.
_SPINE_RULES = tuple(
    (fam, shape.xz, int(shape.y), tuple(map(_FAN_SLOTS.index, shape.fans)),
     tuple(i for i, spine in enumerate(_FAN_SLOTS) if spine not in shape.fans))
    for fam, shape in _SHAPES.items() if "x" in _NAMED[fam]
)


def _spines(D: Digraph, inc: list[Incidence]) -> Iterator[tuple[int, int, int, list[list[int]]]]:
    """Every spine u->v->w with u and w not adjacent and every other vertex
    bucketed, in arc order and then head order, with its buckets.

    The buckets prescribe every arc at a vertex off the spine, and _assemble
    checks the arcs a bucket leaves open, so D is the member _assemble
    builds exactly when u and w are not adjacent.
    """
    succ, pred = D.succ, D.pred
    for u, v in D.arcs:
        for w in _bits(succ[v]):
            if (succ[u] | pred[u]) >> w & 1:
                continue
            b = _bucket_outside(inc, u, v, w)
            if b is not None:
                yield u, v, w, b


def _match_spines(D: Digraph, inc: list[Incidence]) -> Optional[FamilyMatch]:
    """The lowest of H2..H7 that D belongs to, in one pass over the spines.

    A spine is only tried for the families below the best match so far, so
    every family is judged on its first site.
    """
    best: Optional[FamilyMatch] = None
    limit = len(_SPINE_RULES)
    for u, v, w, b in _spines(D, inc):
        for i, rule in enumerate(_SPINE_RULES[:limit]):
            match = _assemble(D, inc, rule, u, v, w, b)
            if match is not None:
                best, limit = match, i
                break
        if limit == 0:
            return best
    return best


def _assemble(
    D: Digraph, inc: list[Incidence], rule: tuple, u: int, v: int, w: int, b: list[list[int]]
) -> Optional[FamilyMatch]:
    """The member of rule's family on spine u->v->w, if D is one.

    z and x are the linked core pair when the family has the x-z arc, and
    otherwise the first two plain w->t->u vertices, whose rest form the wu
    fan.  Every fan the family lacks must be empty.
    """
    fam, xz, ys, fan_slots, absent = rule
    if len(b[_Y]) != ys:
        return None
    plain = b[0]
    if xz:
        pair = _core_pair(inc, b[_CORE], u, w)
        if pair is None:
            return None
        z, x = pair
        orients = ["xz"]
    else:
        if b[_CORE] or len(plain) < 2:
            return None
        z, x, *plain = plain
        orients = []
    buckets = (plain, b[1], b[2], b[3])
    for slot in absent:
        if buckets[slot]:
            return None
    fans = [buckets[slot] for slot in fan_slots]
    sizes = tuple(map(len, fans))
    if not _fans_admissible(fam, sizes):
        return None
    roles: dict[str, RoleValue] = {"u": u, "v": v, "w": w, "z": z, "x": x}
    if ys:
        y = roles["y"] = b[_Y][0]
        orients.append("yv" if D.succ[y] >> v & 1 else "vy")
    roles.update(zip("ABCD", map(tuple, fans)))
    return FamilyMatch(fam, FamilyParams(fam, sizes, tuple(orients)), roles)


def match_family(D: Digraph) -> Optional[FamilyMatch]:
    """Exact recognizer: the first of H1..H7 whose arc prescription D equals.

    Returns None when D is not isomorphic to any generated member; at once
    when its arc count lies outside [2n-4, 2n-2].
    """
    n, m = D.n, D.m
    if not 2 * n - 4 <= m <= 2 * n - 2:
        return None
    inc = _incidence_table(D)
    if m == 2 * n - 4:
        match = _match_h1(D, inc)
        if match is not None:
            return match
    return _match_spines(D, inc)


# A place where a graph is a member of its family: for H1 a girth cycle
# (u, v, w, z) with the fan sizes on its sides uv, vw, wz and zu, for H2..H7
# a spine (u, v, w) with the member's parameters.
Site = tuple[tuple[int, ...], FamilyParams]


def _member_sites(D: Digraph, family: Family, labels: Sequence[int]) -> tuple[Site, ...]:
    """Every site of D, a member of family, with its vertices relabeled by
    labels (labels[old] = new).

    The sites of H1 are the cycles _h1_sites passes, those of H2..H7 the
    spines of _spines at which family's rule assembles: match_family
    reports the first one it meets.  An isomorphism maps the sites of one
    graph onto those of the other, so the sites of a class, listed once in
    its canonical labels, give every graph of the class its parameters
    (_site_params).
    """
    inc = _incidence_table(D)
    if family is Family.H1:
        found = [(C, FamilyParams(family, tuple(map(len, fans)))) for C, fans in _h1_sites(D, inc)]
    else:
        rule = next(rule for rule in _SPINE_RULES if rule[0] is family)
        found = []
        for u, v, w, b in _spines(D, inc):
            match = _assemble(D, inc, rule, u, v, w, b)
            if match is not None:
                found.append(((u, v, w), match.params))
    return tuple((tuple(map(labels.__getitem__, at)), params) for at, params in found)


def _site_params(sites: Sequence[Site], labels: Sequence[int]) -> FamilyParams:
    """The parameters match_family reports on the graph that the sites'
    graph becomes under labels (labels[old] = new): those of the first
    site it meets there.

    It meets H1's cycles in canonical rotation, in sorted order, so the
    least rotated cycle, whose fan sizes rotate with it; and the spines of
    H2..H7 in arc order and then head order, so the least (u, v, w).
    """
    best: Optional[tuple[list[int], int, FamilyParams]] = None
    for at, params in sites:
        moved = [labels[x] for x in at]
        k = moved.index(min(moved)) if params.family is Family.H1 else 0
        met = moved[k:] + moved[:k]
        if best is None or met < best[0]:
            best = met, k, params
    _, k, params = best
    if k:
        params = FamilyParams(Family.H1, params.sizes[k:] + params.sizes[:k])
    return params


# ---------------------------------------------------------------------------
# census


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _params_for_order(n: int) -> Iterator[FamilyParams]:
    for fam in Family:
        extra = n - _base_order(fam)
        if extra < 0:
            continue
        for sizes in _compositions(extra, len(SIZE_NAMES[fam])):
            if not _fans_admissible(fam, sizes):
                continue
            for orients in product(*ORIENT_CHOICES[fam]):
                yield FamilyParams(fam, sizes, orients)


def family_census(n: int) -> list[tuple[FamilyParams, Digraph]]:
    """One representative per isomorphism class of family members on n vertices.

    Members are generated for every admissible parameter choice and deduped
    by canonical form; each entry pairs the first parameter choice reaching
    the class with the canonically relabeled digraph.
    """
    if n < 4:
        raise InvalidParams("family members have at least 4 vertices")
    out: list[tuple[FamilyParams, Digraph]] = []
    seen: set[tuple[Arc, ...]] = set()
    for params in _params_for_order(n):
        D = generate(params)
        canon = D.canonical_form()
        if canon not in seen:
            seen.add(canon)
            out.append((params, Digraph(n, canon)))
    return out
