"""Edge-list and digraph6 parsing/serialization.

Edge list is the human format: a header line "n m", then one "tail head"
line per arc, with '#' comments and blank lines ignored.  digraph6 is the
machine format used by standard graph-generation tools: '&', then the order
(chr(63+n) for n <= 62; '~' and n in three 6-bit bytes, each offset by 63,
for 63 <= n <= 258047), then the n*n row-major adjacency bits in 6-bit
chunks, each chunk offset by 63, zero-padded at the end.

A digraph6 payload is read straight into the graph's masks: the payload
bits, read backwards, are one integer whose n-bit fields are the successor
rows, and each column of the matrix is a predecessor mask.  Loops and digons
are found by one mask test per row, and the graph is built unchecked from
the masks (Digraph._from_masks), as Digraph.from_code builds it from a code.

Malformed documents raise ParseError with the offending line (edge list) or
byte (digraph6); documents that decode cleanly but violate the oriented-graph
invariants (loops, digons, duplicates) raise InvariantViolation.  In
digraph6 it names the first offending arc in row-major order, the loop or
the later arc of the digon, as the LoopArc or SymmetricPair it is raised
from, whose .arc holds that arc.
"""

from __future__ import annotations

import os
import re
from typing import Iterator

from .digraph import Digraph, _orientation_fault
from .errors import InvalidDigraph, InvariantViolation, ParseError


# An integer token: int() alone would also read '+3', '1_0' and non-ASCII digits.
_INT = re.compile(r"-?[0-9]+")


def emit_edge_list(D: Digraph) -> str:
    lines = [f"{D.n} {D.m}"]
    lines += [f"{t} {h}" for t, h in D.arcs]
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Digraph:
    header: tuple[int, int] | None = None
    arcs: list[tuple[tuple[int, int], int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or not all(_INT.fullmatch(p) for p in parts):
            what = "header 'n m'" if header is None else "arc line 'tail head'"
            raise ParseError(f"expected {what}, got {raw.strip()!r}", line=lineno)
        a, b = int(parts[0]), int(parts[1])
        if header is None:
            if a > _D6_MAX_ORDER:
                # Refused before any vertex is allocated: digraph6, the graph
                # id, could not name it.
                raise ParseError(f"edge lists handle n <= {_D6_MAX_ORDER} only, got {a}", line=lineno)
            header = (a, b)
        else:
            arcs.append(((a, b), lineno))
    if header is None:
        raise ParseError("document has no header line")
    n, m = header
    if n < 0 or m < 0:
        raise ParseError(f"header values must be non-negative, got {n} {m}")
    if len(arcs) != m:
        raise ParseError(f"header claims {m} arcs, document has {len(arcs)}")
    try:
        return Digraph(n, [arc for arc, _ in arcs])
    except InvalidDigraph as exc:
        line = next((ln for arc, ln in arcs if arc == exc.arc), None)
        raise InvariantViolation(str(exc), line=line) from exc


# The largest order of digraph6's long size header: '~' and 18 bits.
_D6_MAX_ORDER = 258047

# Each payload byte's six bits as text, for str.translate.
_D6_BITS = {63 + v: format(v, "06b") for v in range(64)}


def emit_digraph6(D: Digraph) -> str:
    n = D.n
    if n > _D6_MAX_ORDER:
        raise ParseError(f"digraph6 handles n <= {_D6_MAX_ORDER} only")
    if n <= 62:
        order = chr(63 + n)
    else:
        order = "~" + "".join(chr(63 + (n >> shift & 0x3F)) for shift in (12, 6, 0))
    bits = 0
    nbits = n * n
    for t, h in D.arcs:
        bits |= 1 << (nbits - 1 - (t * n + h))
    padded = (nbits + 5) // 6 * 6
    bits <<= padded - nbits
    chars = []
    for shift in range(padded - 6, -1, -6):
        chars.append(chr(63 + (bits >> shift & 0x3F)))
    return "&" + order + "".join(chars)


def parse_digraph6(text: str) -> Digraph:
    s = text.strip()
    if not s.startswith("&"):
        raise ParseError("digraph6 must start with '&'")
    if len(s) < 2:
        raise ParseError("digraph6 is missing the order byte")
    if s[1] != "~":
        n, start = ord(s[1]) - 63, 2
        if not 0 <= n <= 62:
            raise ParseError(f"unsupported order byte at position 1 (n={n})")
    else:
        digits = [ord(ch) - 63 for ch in s[2:5]]
        if len(digits) < 3 or not all(0 <= d < 64 for d in digits):
            raise ParseError("the order header '~' must be followed by three bytes '?'..'~'")
        n, start = digits[0] << 12 | digits[1] << 6 | digits[2], 5
        if n > _D6_MAX_ORDER:
            raise ParseError(f"digraph6 handles n <= {_D6_MAX_ORDER} only")
        if n <= 62:
            raise ParseError(f"order n={n} takes the one-byte header, not '~'")
    body = s[start:]
    need = (n * n + 5) // 6
    if len(body) != need:
        raise ParseError(f"expected {need} payload bytes for n={n}, got {len(body)}")
    if body and not ("?" <= min(body) and max(body) <= "~"):
        i = next(i for i, ch in enumerate(body) if not "?" <= ch <= "~")
        raise ParseError(f"payload byte {body[i]!r} out of range at position {i + start}")
    nn = n * n
    bits = body.translate(_D6_BITS)  # the matrix row by row, then the padding
    if "1" in bits[nn:]:
        raise ParseError("nonzero padding bits")
    # Row t is one n-bit field of the matrix read backwards (bit t * n + h
    # is the arc t -> h), and column h, read backwards, is h's in-arcs.
    word = int(bits[nn - 1 :: -1], 2) if nn else 0
    full = (1 << n) - 1
    succ = [word >> t * n & full for t in range(n)]
    pred = [int(bits[h:nn:n][::-1], 2) for h in range(n)]
    for v in range(n):
        # a loop at v, or an arc of row v closing a digon with an earlier row
        bad = succ[v] & pred[v] & ((2 << v) - 1)
        if bad:
            exc = _orientation_fault(v, (bad & -bad).bit_length() - 1)
            raise InvariantViolation(f"digraph6 payload violates invariants: {exc}") from exc
    return Digraph._from_masks(n, succ, pred)


def parse(text: str) -> Digraph:
    """Parse either format, sniffing digraph6 by its leading '&'.  A digraph6
    document holds one graph; iter_digraph6 reads one per line."""
    lines = [(k, raw.strip()) for k, raw in enumerate(text.splitlines(), start=1)]
    lines = [(k, line) for k, line in lines if line and not line.startswith("#")]
    if not lines:
        raise ParseError("document is empty")
    if not lines[0][1].startswith("&"):
        return parse_edge_list(text)
    if len(lines) > 1:
        raise ParseError("a digraph6 document holds one graph, found another line", line=lines[1][0])
    return parse_digraph6(lines[0][1])


def load(path: str | os.PathLike[str]) -> Digraph:
    with open(path, "r", encoding="ascii") as fh:
        return parse(fh.read())


def save(D: Digraph, path: str | os.PathLike[str]) -> None:
    """Write D in the format implied by the extension (.d6 for digraph6)."""
    text = emit_digraph6(D) + "\n" if str(path).endswith(".d6") else emit_edge_list(D)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def iter_digraph6(text: str) -> Iterator[Digraph]:
    """Parse a multi-graph document with one digraph6 token per line."""
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            yield parse_digraph6(line)
