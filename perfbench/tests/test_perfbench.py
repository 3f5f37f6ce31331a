"""Tests of the benchmark itself: span arithmetic, gates, references, smoke runs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import arcconn  # noqa: E402
from perfbench import tracer as tr  # noqa: E402
from perfbench import workloads as wl  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _root_time(t: tr.Tracer) -> float:
    return sum(e - s for s, e, p in zip(t.start, t.end, t.parent) if p < 0)


def _spans(t: tr.Tracer, rows) -> None:
    """Load (name, start, end, parent) rows into a tracer's arrays."""
    for name, start, end, parent in rows:
        t.name_of.append(t._id(name))
        t.start.append(start)
        t.end.append(end)
        t.parent.append(parent)


def test_self_time_subtracts_direct_children_only():
    t = tr.Tracer()
    _spans(t, [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("leaf", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("leaf", 6.0, 6.5, 3),
        ("root", 20.0, 21.0, -1),
    ])
    own = t.self_times()
    assert own == pytest.approx({"root": 3.0 + 1.0, "a": 2.0, "leaf": 1.5, "b": 3.5})
    assert sum(own.values()) == pytest.approx(_root_time(t)) == pytest.approx(11.0)
    assert t.calls() == {"root": 2, "a": 1, "leaf": 2, "b": 1}


def test_wrapped_calls_nest_and_restore():
    box = SimpleNamespace()
    box.inner = lambda x: x + 1
    box.outer = lambda x: box.inner(x) * 2
    originals = (box.inner, box.outer)
    t = tr.Tracer()
    points = [(box, "outer", "outer", None), (box, "inner", "inner", None), (box, "gone", "x", None)]
    with t.installed(points):
        assert box.outer(1) == 4
    assert (box.inner, box.outer) == originals
    assert list(t.parent) == [-1, 0]
    assert t.missing == ["SimpleNamespace.gone"]
    assert sum(t.self_times().values()) == pytest.approx(_root_time(t))


def test_layer_metrics_cover_every_per_layer_metric():
    t = tr.Tracer()
    _spans(t, [("verify.sweep", 0.0, 2.0, -1), ("kernels.filter", 0.0, 1.0, 0)])
    t.counts["kernels.codes"] = 1000
    t.counts["kernels.survivors"] = 10
    out = tr.layer_metrics(t, [2.0], artifact_bytes=0, overhead_frac=0.25, scale=2.0)
    assert set(out) == {m["name"] for m in BENCH["per_layer"]}
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == tr.LAYER_UNITS
    assert out["kernels.filter_s"] == pytest.approx(2.0)
    assert out["kernels.ns_per_code"] == pytest.approx(2e6)
    assert out["kernels.survivor_ratio"] == pytest.approx(0.01)
    assert out["trace.overhead_frac"] == pytest.approx(0.25)
    assert out["trace.accounted_frac"] == pytest.approx(1.0)


def test_census_reference_slices_add_up_to_the_pinned_census():
    ref = wl.load_reference()["census_n6"]
    full = ref["full_census"]
    slices = ref["slices"]
    assert sorted(map(int, slices)) == list(range(27))
    assert sum(s["seen"] for s in slices.values()) == full["seen"] == 3 ** 15
    assert sum(s["stratum"] for s in slices.values()) == full["stratum"]
    assert sum(s["lambda_prime_connected"] for s in slices.values()) == full["lambda_prime_connected"]
    families: dict[str, int] = {}
    for s in slices.values():
        for name, count in s["family_counts"].items():
            families[name] = families.get(name, 0) + count
    assert families == full["family_counts"]
    assert sum(families.values()) == full["family_total"]
    sym = [slices[str(t)] for t in ref["symmetric_slices"]]
    keys = ("seen", "strong", "stratum", "lambda_prime_connected", "family_counts", "clause_tallies")
    assert all({k: s[k] for k in keys} == {k: sym[0][k] for k in keys} for s in sym)
    assert len({s["records_sha256"] for s in sym}) == len(sym)


def _fake_sweep(ref: dict) -> SimpleNamespace:
    return SimpleNamespace(
        completed=True, counterexamples=[], accounting_ok=True, records=[None] * ref["stratum"],
        seen=ref["seen"], strong=ref["strong"], stratum=ref["stratum"],
        lambda_prime_connected=ref["lambda_prime_connected"],
        family_counts=dict(ref["family_counts"]), clause_tallies=ref["clause_tallies"],
    )


def test_census_gate_trips_on_a_perturbed_reference():
    ref = wl.load_reference()["census_n6"]["slices"]["1"]
    result = _fake_sweep(ref)
    assert wl.census_gate(result, ref["records_sha256"], ref) == []
    for key, value in (("stratum", ref["stratum"] + 1), ("records_sha256", "0" * 64),
                       ("family_counts", {**ref["family_counts"], "H1": 0})):
        assert wl.census_gate(result, ref["records_sha256"], {**ref, key: value})
    result.counterexamples = [object()]
    assert wl.census_gate(result, ref["records_sha256"], ref)


def test_params_pool_is_reproducible_and_pinned():
    ref = wl.load_reference()["params_large"]
    pool = wl.make_pool(ref["seed"], tuple(ref["orders"]), ref["per_order"], ref["density"])
    assert [wl.digraph6(succ) for succ in pool] == [g["d6"] for g in ref["graphs"]]
    for succ in pool[:: ref["per_order"]]:
        D = arcconn.parse_digraph6(wl.digraph6(succ))
        assert D.is_strong() and arcconn.girth(D) == 4 and wl.from_digraph6(wl.digraph6(succ)) == succ


def test_params_gate_trips_on_wrong_results():
    entry = wl.load_reference()["params_large"]["graphs"][0]
    succ = wl.relabel(wl.from_digraph6(entry["d6"]), [3, 1, 4, 0, 5, 9, 2, 6, 8, 7, 11, 10])
    out = wl.params_one(arcconn, wl.digraph6(succ))
    assert wl.params_gate(succ, entry, *out) == []
    D, match, lam, cert, xi_res, witness = out
    # Removing nothing leaves D strong, so the empty set is no restricted cut.
    empty = type(cert)(outcome=cert.outcome, reading=cert.reading, cut=(),
                       component=cert.component, outside_arc=cert.outside_arc)
    assert wl.params_gate(succ, entry, D, match, lam, empty, xi_res, witness)
    assert wl.params_gate(succ, entry, D, match, lam, cert, xi_res, None)
    assert wl.params_gate(succ, {**entry, "xi": entry["xi"] + 1}, *out)
    other = list(succ)
    other[0] ^= other[0] & -other[0]
    assert wl.params_gate(other, entry, *out)


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(v["value"] > 0 for v in last["metrics"].values())
    else:
        assert last["metrics"]["trace.accounted_frac"]["value"] == pytest.approx(1.0, abs=0.01)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("census-n6", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
