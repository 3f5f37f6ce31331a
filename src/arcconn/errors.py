"""Exception hierarchy for arcconn."""

from __future__ import annotations


class ArcConnError(Exception):
    """Base class for all arcconn errors."""


class InvalidDigraph(ArcConnError):
    """A digraph construction violated an invariant; ``arc`` names the offender."""

    def __init__(self, message: str, arc: tuple[int, int] | None = None):
        super().__init__(message)
        self.arc = arc


class LoopArc(InvalidDigraph):
    """An arc with tail == head."""


class SymmetricPair(InvalidDigraph):
    """Both (u, v) and (v, u) present; oriented graphs have no digons."""


class DuplicateArc(InvalidDigraph):
    """The same arc listed twice."""


class VertexOutOfRange(InvalidDigraph):
    """An arc endpoint outside 0..n-1."""


class InvalidVertex(ArcConnError):
    """A vertex-set argument contains a vertex not in the digraph."""


class UnknownArc(ArcConnError):
    """An arc-set argument contains an arc not in the digraph."""

    def __init__(self, message: str, arc: tuple[int, int] | None = None):
        super().__init__(message)
        self.arc = arc


class AcyclicDigraph(ArcConnError):
    """Operation requires at least one directed cycle."""


class NotStrong(ArcConnError):
    """Operation requires a strongly connected digraph."""


class NotAGirthCycle(ArcConnError):
    """The given cycle is not a shortest cycle of the digraph."""


class NotAFourCycle(ArcConnError):
    """The given vertex sequence is not a 4-cycle of the digraph."""


class InvalidParams(ArcConnError):
    """Family parameters are malformed or produce an invalid member."""


class CapExceeded(ArcConnError):
    """Requested work exceeds an order limit: an exhaustive sweep above
    verify.EXHAUSTIVE_MAX_ORDER (random mode covers those orders), a trit
    code of an order above _kernels.CODE_MAX_ORDER (its decode, filter or
    sampled sweep), a code range filtered above _kernels.RANGE_MAX_ORDER
    (filter_codes reads explicit codes up to CODE_MAX_ORDER), or a lambda'
    vertex-set walk above its limit."""


class ParseError(ArcConnError):
    """A document could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InvariantViolation(ParseError):
    """A parsed document encodes a digraph violating an invariant (loop/digon)."""
