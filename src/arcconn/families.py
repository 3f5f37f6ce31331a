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

"Adjacent" clauses carry an explicit orientation choice ("yv" means the arc
y->v, "xz" means x->z, and so on).  Empty fans are allowed everywhere except
H5, whose definition does not extend the empty-set allowance; the p=0 shape
is nevertheless reachable as H6 with both fans empty.

Generated members use a fixed vertex layout: u=0, v=1, w=2, z=3, then x,
then y where present, then the fan vertices in definition order.

Every member of H1, H2 and H3 has 2n-4 arcs, every member of H4, H5 and H6
has 2n-3, and H7 has 2n-2, so match_family rejects any graph whose arc
count lies outside [2n-4, 2n-2] without looking further.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import product
from typing import Iterator, Optional, Union

from .cycles import girth, girth_cycles
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


SIZE_NAMES: dict[Family, tuple[str, ...]] = {
    Family.H1: ("p", "q", "r", "s"),
    Family.H2: ("p", "q"),
    Family.H3: ("p", "q", "r"),
    Family.H4: ("p",),
    Family.H5: ("p",),
    Family.H6: ("p", "q"),
    Family.H7: (),
}

# Orientation slots: each "is adjacent to" clause of the definition, with the
# two legal arc spellings; the first spelling is the generator default.
ORIENT_CHOICES: dict[Family, tuple[tuple[str, str], ...]] = {
    Family.H1: (),
    Family.H2: (),
    Family.H3: (),
    Family.H4: (("yv", "vy"),),
    Family.H5: (("xz", "zx"),),
    Family.H6: (("xz", "zx"),),
    Family.H7: (("xz", "zx"), ("yv", "vy")),
}


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
        if self.family is Family.H5 and self.sizes[0] < 1:
            raise InvalidParams("H5 requires a non-empty fan (p >= 1)")
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
        base = 4 if self.family is Family.H1 else 5
        if self.family in (Family.H4, Family.H7):
            base += 1
        return base + sum(self.sizes)

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


def _oriented_arc(token: str, pos: dict[str, int]) -> Arc:
    return pos[token[0]], pos[token[1]]


def generate(params: FamilyParams) -> Digraph:
    """Realize the family member with the fixed vertex layout.

    Raises InvalidParams if the parameters are out of range or the prescribed
    arcs fail the oriented / strong / girth-4 requirements.
    """
    fam = params.family
    pos = {"u": 0, "v": 1, "w": 2, "z": 3}
    nxt = 4
    if fam is not Family.H1:
        pos["x"] = nxt
        nxt += 1
    if fam in (Family.H4, Family.H7):
        pos["y"] = nxt
        nxt += 1
    arcs: list[Arc] = [
        (pos["u"], pos["v"]),
        (pos["v"], pos["w"]),
        (pos["w"], pos["z"]),
        (pos["z"], pos["u"]),
    ]
    if fam is not Family.H1:
        arcs += [(pos["w"], pos["x"]), (pos["x"], pos["u"])]
    for token in params.orientations:
        arcs.append(_oriented_arc(token, pos))
    if fam in (Family.H4, Family.H7):
        arcs += [(pos["u"], pos["y"]), (pos["y"], pos["w"])]

    fans = {
        Family.H1: ("uv", "vw", "wz", "zu"),
        Family.H2: ("wu", "uw"),
        Family.H3: ("uv", "vw", "wu"),
        Family.H4: ("wu",),
        Family.H5: ("uw",),
        Family.H6: ("uv", "vw"),
        Family.H7: (),
    }[fam]
    for spec, count in zip(fans, params.sizes):
        src, dst = pos[spec[0]], pos[spec[1]]
        for _ in range(count):
            arcs += [(src, nxt), (nxt, dst)]
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


def _match_h1(D: Digraph, inc: list[Incidence]) -> Optional[FamilyMatch]:
    """H1 on a graph with 2n-4 arcs.

    Every H1 member has girth 4, so only the girth cycles of a girth-4 graph
    are tried.  Once every vertex off the 4-cycle is a fan vertex, the cycle
    and fan arcs are 2n-4 distinct arcs of D, so they are all of its arcs.
    A vertex t on the fan from s to d has incidence (1 << d, 1 << s).  The
    four sides of a cycle are the same under every rotation, so a cycle
    matches in its canonical rotation or not at all.
    """
    if girth(D) != 4:
        return None
    for C in girth_cycles(D):
        u, v, w, z = C
        U, V, W, Z = 1 << u, 1 << v, 1 << w, 1 << z
        side = {(V, U): 0, (W, V): 1, (Z, W): 2, (U, Z): 3}
        fans: tuple[list[int], ...] = ([], [], [], [])
        cycle = U | V | W | Z
        for t, pair in enumerate(inc):
            if cycle >> t & 1:
                continue
            k = side.get(pair)
            if k is None:
                break
            fans[k].append(t)
        else:
            params = FamilyParams(Family.H1, tuple(len(fan) for fan in fans))
            roles: dict[str, RoleValue] = {"u": u, "v": v, "w": w, "z": z}
            roles.update(zip("ABCD", map(tuple, fans)))
            return FamilyMatch(Family.H1, params, roles)
    return None


@dataclass
class _Buckets:
    plain_p: list[int]
    plain_q: list[int]
    fan_a: list[int]
    fan_b: list[int]
    core_p: list[int]
    y_q: list[int]


def _bucket_outside(inc: list[Incidence], u: int, v: int, w: int) -> Optional[_Buckets]:
    """Classify every non-spine vertex by its full incidence pattern.

    plain_p is w->t->u, plain_q u->t->w, fan_a u->t->v, fan_b v->t->w,
    core_p w->t->u plus one more arc, and y_q u->t->w plus an arc with v.
    """
    U, V, W = 1 << u, 1 << v, 1 << w
    b = _Buckets([], [], [], [], [], [])
    exact = {
        (U, W): b.plain_p,
        (W, U): b.plain_q,
        (V, U): b.fan_a,
        (W, V): b.fan_b,
        (W | V, U): b.y_q,
        (W, U | V): b.y_q,
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
            b.core_p.append(t)
        else:
            return None
    return b


def _core_pair(
    inc: list[Incidence], b: _Buckets, u: int, w: int
) -> Optional[tuple[int, int, str]]:
    """Resolve the two linked 4th-cycle vertices of H5/H6/H7.

    Both carry the plain pattern w->t->u plus one arc joining them to each
    other.  Returns (z, x, orientation) with x the tail of the joining arc,
    so the recorded orientation token is always "xz".  Each core vertex has
    exactly one arc beyond w->t->u, so when c's extra arc joins d, it is
    d's extra arc too.
    """
    if len(b.core_p) != 2 or b.plain_p:
        return None
    c, d = b.core_p
    out, into = inc[c]
    if out & ~(1 << u) == 1 << d:
        return d, c, "xz"  # c -> d
    if into & ~(1 << w) == 1 << d:
        return c, d, "xz"  # d -> c
    return None


_SPINE_FAMILIES = (Family.H2, Family.H3, Family.H4, Family.H5, Family.H6, Family.H7)


def _match_spines(D: Digraph, inc: list[Incidence]) -> Optional[FamilyMatch]:
    """The lowest of H2..H7 that D belongs to, in one pass over the spines.

    Spines u->v->w are visited in arc order and bucketed once each.  A spine
    is only tried for the families below the best match so far, so every
    family is judged on its first matching spine.

    The buckets prescribe every arc at a vertex off the spine, and _assemble
    checks the arcs a bucket leaves open, so D is the prescribed graph
    exactly when u and w are not adjacent.
    """
    best: Optional[FamilyMatch] = None
    limit = len(_SPINE_FAMILIES)
    succ, pred = D.succ, D.pred
    for u, v in D.arcs:
        for w in _bits(succ[v]):
            if (succ[u] | pred[u]) >> w & 1:
                continue
            b = _bucket_outside(inc, u, v, w)
            if b is None:
                continue
            for i, fam in enumerate(_SPINE_FAMILIES[:limit]):
                match = _assemble(D, inc, fam, u, v, w, b)
                if match is not None:
                    best, limit = match, i
                    break
            if limit == 0:
                return best
    return best


def _assemble(
    D: Digraph, inc: list[Incidence], fam: Family, u: int, v: int, w: int, b: _Buckets
) -> Optional[FamilyMatch]:
    roles: dict[str, RoleValue] = {"u": u, "v": v, "w": w}
    if fam is Family.H2:
        if b.fan_a or b.fan_b or b.core_p or b.y_q or len(b.plain_p) < 2:
            return None
        z, x, *rest = b.plain_p
        params = FamilyParams(fam, (len(rest), len(b.plain_q)))
        roles.update(z=z, x=x, A=tuple(rest), B=tuple(b.plain_q))
    elif fam is Family.H3:
        if b.plain_q or b.core_p or b.y_q or len(b.plain_p) < 2:
            return None
        z, x, *rest = b.plain_p
        params = FamilyParams(fam, (len(b.fan_a), len(b.fan_b), len(rest)))
        roles.update(z=z, x=x, A=tuple(b.fan_a), B=tuple(b.fan_b), C=tuple(rest))
    elif fam is Family.H4:
        if b.plain_q or b.fan_a or b.fan_b or b.core_p:
            return None
        if len(b.y_q) != 1 or len(b.plain_p) < 2:
            return None
        y = b.y_q[0]
        z, x, *rest = b.plain_p
        orient = "yv" if D.succ[y] >> v & 1 else "vy"
        params = FamilyParams(fam, (len(rest),), (orient,))
        roles.update(z=z, x=x, y=y, A=tuple(rest))
    elif fam is Family.H5:
        if b.fan_a or b.fan_b or b.y_q or not b.plain_q:
            return None
        pair = _core_pair(inc, b, u, w)
        if pair is None:
            return None
        z, x, orient = pair
        params = FamilyParams(fam, (len(b.plain_q),), (orient,))
        roles.update(z=z, x=x, A=tuple(b.plain_q))
    elif fam is Family.H6:
        if b.plain_q or b.y_q:
            return None
        pair = _core_pair(inc, b, u, w)
        if pair is None:
            return None
        z, x, orient = pair
        params = FamilyParams(fam, (len(b.fan_a), len(b.fan_b)), (orient,))
        roles.update(z=z, x=x, A=tuple(b.fan_a), B=tuple(b.fan_b))
    elif fam is Family.H7:
        if b.plain_q or b.fan_a or b.fan_b or len(b.y_q) != 1:
            return None
        pair = _core_pair(inc, b, u, w)
        if pair is None:
            return None
        z, x, orient = pair
        y = b.y_q[0]
        y_orient = "yv" if D.succ[y] >> v & 1 else "vy"
        params = FamilyParams(fam, (), (orient, y_orient))
        roles.update(z=z, x=x, y=y)
    else:
        return None
    return FamilyMatch(fam, params, roles)


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
        extra = n - (4 if fam is Family.H1 else 5)
        if fam in (Family.H4, Family.H7):
            extra -= 1
        parts = len(SIZE_NAMES[fam])
        if extra < 0:
            continue
        for sizes in _compositions(extra, parts):
            if fam is Family.H5 and sizes[0] < 1:
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
