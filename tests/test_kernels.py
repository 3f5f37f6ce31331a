"""Parity between the pure-Python and compiled enumeration kernels.

Both backends must agree bit for bit on closure, strongness, component
masks, girth, and the filtered survivor streams, so either can stand in for
the other.  Only the parity tests need the compiled extension (the
``fastcore`` fixture skips them without it); the facade tests always run.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from arcconn import _kernels, _purecore
from arcconn.digraph import Digraph


@pytest.fixture(scope="module")
def fastcore():
    return pytest.importorskip("arcconn._fastcore")


def codes(n: int):
    return st.integers(min_value=0, max_value=3 ** (n * (n - 1) // 2) - 1)


@given(st.integers(min_value=1, max_value=8).flatmap(lambda n: st.tuples(st.just(n), codes(n))))
def test_primitives_agree(fastcore, nc):
    n, code = nc
    pure_succ = _purecore.decode_code(n, code)
    fast_succ = fastcore.decode_code(n, code)
    assert pure_succ == fast_succ
    assert _purecore.reach_closure(pure_succ, n) == fastcore.reach_closure(fast_succ, n)
    assert _purecore.is_strong(pure_succ, n) == fastcore.is_strong(fast_succ, n)
    assert _purecore.scc_masks(pure_succ, n) == fastcore.scc_masks(fast_succ, n)
    assert _purecore.girth(pure_succ, n) == fastcore.girth(fast_succ, n)


def test_filter_range_agrees_full_n4(fastcore):
    pure = _purecore.filter_range(4, 0, 3 ** 6, girth_target=4, require_strong=True)
    fast = fastcore.filter_range(4, 0, 3 ** 6, girth_target=4, require_strong=True)
    assert pure == fast
    seen, strong, kept = pure
    assert seen == 729 and strong == 66 and len(kept) == 6


@given(st.integers(min_value=0, max_value=3 ** 10 - 2_000))
def test_filter_range_agrees_on_slices_n5(fastcore, lo):
    hi = lo + 2_000
    for girth_target in (0, 3, 4):
        for require_strong in (True, False):
            pure = _purecore.filter_range(5, lo, hi, girth_target, require_strong)
            fast = fastcore.filter_range(5, lo, hi, girth_target, require_strong)
            assert pure == fast


@given(st.lists(codes(6), max_size=50))
def test_filter_codes_agrees(fastcore, batch):
    pure = _purecore.filter_codes(6, batch, girth_target=4, require_strong=True)
    fast = fastcore.filter_codes(6, batch, girth_target=4, require_strong=True)
    assert pure == fast


def test_kernels_facade_backend():
    assert _kernels.backend_name() in ("pure", "fast")


def test_pure_env_forces_pure_backend():
    env = dict(os.environ, ARCCONN_PURE="1")
    out = subprocess.run(
        [sys.executable, "-c", "from arcconn import _kernels; print(_kernels.backend_name())"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == "pure"


def test_large_order_routes_to_pure():
    # 70 vertices exceeds the compiled kernel's word width; the facade
    # must still answer through the pure path.
    n = 70
    arcs = [(i, (i + 1) % n) for i in range(n)]
    D = Digraph(n, arcs)
    assert D.is_strong()
    assert len(D.strong_components()) == 1


@given(codes(5))
def test_decode_matches_digraph_arcs(code):
    succ = _kernels.decode_code(5, code)
    D = Digraph.from_code(5, code)
    assert D.code == code  # Digraph.code encodes pair by pair, apart from decode
    for t in range(5):
        for h in range(5):
            assert bool(succ[t] >> h & 1) == D.has_arc(t, h)
