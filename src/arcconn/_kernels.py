"""Kernel backend selection.

Imports the compiled ``_fastcore`` extension when it is available and falls
back to the pure-Python ``_purecore`` twin otherwise.  Set ARCCONN_PURE=1 to
force the fallback (useful for parity debugging and benchmarks).  Both
backends expose the same functions with identical semantics.

The compiled kernels pack masks into a single machine word, so graphs with
more than 64 vertices are routed to the pure backend regardless.
"""

from __future__ import annotations

import os

from . import _purecore

_reason = ""
if os.environ.get("ARCCONN_PURE"):
    _impl = _purecore
    _reason = "ARCCONN_PURE set"
else:
    try:
        from . import _fastcore as _impl  # type: ignore[no-redef]
    except ImportError as exc:
        _impl = _purecore
        _reason = f"ImportError: {exc}"

_FAST_MAX_N = 64

pair_table = _purecore.pair_table


def backend_name() -> str:
    return _impl.BACKEND


def backend_reason() -> str:
    """Why the pure backend was selected, or "" when the compiled one runs."""
    return _reason


def _pick(n: int):
    if n > _FAST_MAX_N:
        return _purecore
    return _impl


def decode_code(n: int, code: int) -> list[int]:
    return _pick(n).decode_code(n, code)


def is_strong(succ: list[int], n: int) -> bool:
    return _pick(n).is_strong(succ, n)


def scc_masks(succ: list[int], n: int) -> list[int]:
    return _pick(n).scc_masks(succ, n)


def girth(succ: list[int], n: int) -> int:
    return _pick(n).girth(succ, n)


def filter_range(n, lo, hi, girth_target=0, require_strong=True):
    return _pick(n).filter_range(n, lo, hi, girth_target, require_strong)


def filter_codes(n, codes, girth_target=0, require_strong=True):
    return _pick(n).filter_codes(n, codes, girth_target, require_strong)
