"""CLI surface: output, witnesses, exit codes."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from arcconn import Digraph, emit_edge_list, parse_digraph6
from arcconn.cli import main

L8_ARCS = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 1), (5, 6), (6, 7), (7, 4)]


@pytest.fixture
def l8_file(tmp_path):
    path = tmp_path / "l8.edges"
    path.write_text(emit_edge_list(Digraph(8, L8_ARCS)))
    return str(path)


def test_params_human(l8_file, capsys):
    assert main(["params", l8_file]) == 0
    out = capsys.readouterr().out
    assert "girth 4" in out
    assert "lambda 1" in out
    assert "lambda' 1" in out
    assert "xi 1" in out
    assert "existence witness" in out


def test_params_json_carries_witnesses(l8_file, capsys):
    assert main(["params", l8_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lambda"] == 1 and payload["xi"]["value"] == 1
    cert = payload["lambda_prime"]
    assert cert["outcome"] == "found" and cert["value"] == 1
    # the witnesses must re-validate independently
    D = Digraph(8, L8_ARCS)
    from arcconn import is_restricted_arc_cut

    witness = is_restricted_arc_cut(D, [tuple(a) for a in cert["cut"]])
    assert witness is not None and list(witness[0]) == cert["component"]


def test_params_nonexistent_lambda_prime(tmp_path, capsys):
    path = tmp_path / "c4.edges"
    path.write_text("4 4\n0 1\n1 2\n2 3\n3 0\n")
    assert main(["params", str(path)]) == 0
    assert "lambda' nonexistent" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["params", "check"])
def test_lambda_prime_walk_limit_exits_two(tmp_path, capsys, command):
    from arcconn import Family, FamilyParams, generate
    from arcconn.connectivity import _WALK_MAX_ORDER

    n = _WALK_MAX_ORDER + 1
    D = generate(FamilyParams(Family.H1, (n - 4, 0, 0, 0)))  # no restricted cut
    path = tmp_path / "h1.edges"
    path.write_text(emit_edge_list(D))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert f"lambda' at n={n}" in err and f"above order {_WALK_MAX_ORDER}" in err


def test_check_exit_zero_and_clause_lines(l8_file, capsys):
    assert main(["check", l8_file, "--proof-cuts"]) == 0
    out = capsys.readouterr().out
    for clause in ("theorem1_ok", "bounds_ok", "family_consistency_ok", "proof_ok"):
        assert clause in out


def test_check_past_the_one_byte_digraph6_order(tmp_path, capsys):
    # a 4-cycle on a 60-arc cycle through vertex 3: lambda' = 1 by {3->4};
    # the record's graph_id takes digraph6's long order header from n = 63
    n = 63
    arcs = [(0, 1), (1, 2), (2, 3), (3, 0)] + [(v, v + 1) for v in range(3, n - 1)] + [(n - 1, 3)]
    D = Digraph(n, arcs)
    path = tmp_path / "c63.edges"
    path.write_text(emit_edge_list(D))
    assert main(["check", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["graph_id"].startswith("&~")
    assert parse_digraph6(payload["graph_id"]) == D
    assert (payload["lambda_prime"], payload["theorem1_ok"]) == ("1", "pass")


def test_check_json(l8_file, capsys):
    assert main(["check", l8_file, "--json", "--reading", "residual"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reading"] == "residual"
    assert payload["theorem1_ok"] == "pass"


def _h1_member(tmp_path):
    path = tmp_path / "h1.edges"
    assert main(["family", "gen", "H1", "--params", "1,1,1,1", "--out", str(path)]) == 0
    return path.read_text()


@pytest.mark.parametrize("make_text", [
    lambda tmp_path: emit_edge_list(Digraph(8, L8_ARCS)),
    lambda tmp_path: "4 4\n0 1\n1 2\n2 3\n3 0\n",
    lambda tmp_path: "3 2\n0 1\n1 2\n",
    _h1_member,
], ids=["l8", "four-cycle", "path", "h1"])
def test_params_and_check_report_the_same_measurement(tmp_path, capsys, make_text):
    path = tmp_path / "graph.edges"
    path.write_text(make_text(tmp_path))
    capsys.readouterr()
    assert main(["params", str(path), "--json"]) == 0
    params = json.loads(capsys.readouterr().out)
    assert main(["check", str(path), "--json"]) == 0
    cells = json.loads(capsys.readouterr().out)
    names = ("girth", "is_strong", "lambda", "lambda_prime", "xi", "lambda_prime_exists")
    check = {name: json.loads(cells[name]) if cells[name] else None for name in names}
    cert = params["lambda_prime"]
    assert check == {
        "girth": params["girth"],
        "is_strong": params["is_strong"],
        "lambda": params["lambda"],
        "lambda_prime": cert["value"] if cert else None,
        "xi": params["xi"]["value"] if params["xi"] else None,
        "lambda_prime_exists": params["existence_witness"] is not None if cert else None,
    }


def test_sweep_cli_writes_artifacts(tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    code = main(["sweep", "--n", "4..5", "--out", out_dir, "--quiet", "--audit-readings"])
    assert code == 0
    out = capsys.readouterr().out
    assert "counterexamples: 0" in out
    assert "accounting" in out
    for name in ("records.csv", "counterexamples.d6", "summary.json", "audit.json"):
        assert os.path.exists(os.path.join(out_dir, name))


def test_sweep_runs_as_a_module(tmp_path):
    out_dir = tmp_path / "out"
    run = subprocess.run(
        [sys.executable, "-m", "arcconn", "sweep", "--n", "4", "--out", str(out_dir), "--quiet"],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert re.search(r"^  runtime \d+\.\ds$", run.stdout, re.MULTILINE), run.stdout
    summary = json.loads((out_dir / "summary.json").read_text())
    assert (summary["completed"], summary["seen"], summary["stratum"]) == (True, 729, 6)
    assert "backend" not in summary


def test_sweep_cli_cap_is_usage_error(capsys):
    assert main(["sweep", "--n", "7"]) == 2
    assert "above order 6; sweep it with --mode random" in capsys.readouterr().err
    assert main(["sweep", "--n", "7", "--mode", "random", "--samples", "1000", "--quiet"]) == 0
    assert "codes seen 1000" in capsys.readouterr().out


def test_sweep_cli_random_above_the_code_cap_is_usage_error(tmp_path, capsys):
    out_dir = tmp_path / "out"
    argv = ["sweep", "--n", "19", "--mode", "random", "--samples", "10", "--out", str(out_dir)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "trit codes are read up to order 18, not n=19" in captured.err
    assert captured.out == "" and not out_dir.exists()  # refused before any chunk


@pytest.mark.parametrize("text", ["6..", "..6", "six", "5..6..7", ""])
def test_sweep_cli_malformed_order_range_is_usage_error(capsys, text):
    assert main(["sweep", "--n", text]) == 2
    assert f"bad order range {text!r}: give an order A or a range A..B" in capsys.readouterr().err


def test_sweep_cli_girth_flags_exclude_each_other(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--n", "5", "--girth", "5", "--no-girth-filter"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--samples", "5"], ["--seed", "3"], ["--samples", "5", "--seed", "3"]])
def test_sweep_cli_random_only_flags_in_exhaustive_mode_are_usage_errors(capsys, flags):
    assert main(["sweep", "--n", "4", *flags, "--quiet"]) == 2
    assert "--mode random" in capsys.readouterr().err


def test_sweep_cli_resume_without_out_is_usage_error(capsys):
    assert main(["sweep", "--n", "4", "--resume", "--quiet"]) == 2
    assert "resume" in capsys.readouterr().err


def test_sweep_cli_resume_on_malformed_checkpoint_is_usage_error(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["sweep", "--n", "4", "--out", out, "--quiet"]) == 0
    with open(os.path.join(out, "checkpoint.jsonl"), "a") as fh:
        fh.write("{}\n")
    capsys.readouterr()
    assert main(["sweep", "--n", "4", "--out", out, "--resume", "--quiet"]) == 2
    assert "checkpoint line" in capsys.readouterr().err


# checkpoint.jsonl of `sweep --n 3 --girth 3`: the spec header, then one
# chunk whose rows are the two directed triangles.
N3_CHECKPOINT = (
    '{"spec": {"n_lo": 3, "n_hi": 3, "mode": "exhaustive", "samples": 0, "seed": 0, "reading": "original", '
    '"girth": 3, "audit_readings": false, "check_proof_cuts": false, "chunk_size": 250000}}\n'
    '{"key": "x:3:0:27", "chunk": {"n": 3, "seen": 27, "strong": 2, "rows": ['
    '["&BP_", "3", "3", "3", "true", "", "", "1", "false", "", "0", "pass", "na", "na", "na", "original"], '
    '["&BKO", "3", "3", "3", "true", "", "", "1", "false", "", "0", "pass", "na", "na", "na", "original"]]}}\n'
)
# The same with --audit-readings: the rows under the other reading follow.
N3_AUDIT_CHECKPOINT = (
    '{"spec": {"n_lo": 3, "n_hi": 3, "mode": "exhaustive", "samples": 0, "seed": 0, "reading": "original", '
    '"girth": 3, "audit_readings": true, "check_proof_cuts": false, "chunk_size": 250000}}\n'
    '{"key": "x:3:0:27", "chunk": {"n": 3, "seen": 27, "strong": 2, "rows": ['
    '["&BP_", "3", "3", "3", "true", "", "", "1", "false", "", "0", "pass", "na", "na", "na", "original"], '
    '["&BKO", "3", "3", "3", "true", "", "", "1", "false", "", "0", "pass", "na", "na", "na", "original"]], '
    '"other_rows": ['
    '["&BP_", "3", "3", "3", "true", "", "", "1", "false", "", "0", "pass", "na", "na", "na", "residual"], '
    '["&BKO", "3", "3", "3", "true", "", "", "1", "false", "", "0", "pass", "na", "na", "na", "residual"]]}}\n'
)


@pytest.mark.parametrize("flags, pinned", [([], N3_CHECKPOINT), (["--audit-readings"], N3_AUDIT_CHECKPOINT)])
def test_sweep_checkpoint_bytes_are_pinned(tmp_path, flags, pinned):
    """A resumed run reads checkpoints that earlier versions wrote, so their
    bytes must not drift, and the pinned ones must resume to the same files."""
    argv = ["sweep", "--n", "3", "--girth", "3", "--quiet", *flags]
    fresh, resumed = tmp_path / "fresh", tmp_path / "resumed"
    assert main([*argv, "--out", str(fresh)]) == 0
    assert (fresh / "checkpoint.jsonl").read_bytes() == pinned.encode("ascii")

    resumed.mkdir()
    (resumed / "checkpoint.jsonl").write_bytes(pinned.encode("ascii"))
    assert main([*argv, "--out", str(resumed), "--resume"]) == 0
    names = ["checkpoint.jsonl", "records.csv", "counterexamples.d6"] + (["audit.json"] if flags else [])
    for name in names:
        assert (resumed / name).read_bytes() == (fresh / name).read_bytes(), name


def test_family_gen_to_stdout_and_match(tmp_path, capsys):
    assert main(["family", "gen", "H1", "--params", "p=1,q=1,r=1,s=1"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("8 12\n")

    path = tmp_path / "h1.d6"
    assert main(["family", "gen", "H1", "--params", "1,1,1,1", "--format", "d6",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["family", "match", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("H1(p=1,q=1,r=1,s=1)") and "u=" in out


def test_family_gen_defaults_orientations(capsys):
    assert main(["family", "gen", "H7"]) == 0
    capsys.readouterr()
    assert main(["family", "gen", "H6", "--orient", "zx", "--format", "d6"]) == 0
    token = capsys.readouterr().out.strip()
    from arcconn import generate, match_family, parse_digraph6

    D = parse_digraph6(token)
    match = match_family(D)
    # z and x complete the same three-path, so the two orientations are
    # isomorphic; the matcher may describe the graph through either one
    assert match is not None and match.family.value == "H6"
    assert generate(match.params).canonical_form() == D.canonical_form()


def test_family_match_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "tri.edges"
    path.write_text("3 3\n0 1\n1 2\n2 0\n")
    assert main(["family", "match", str(path)]) == 1
    assert "no family match" in capsys.readouterr().out


def test_family_census_cli(capsys):
    assert main(["family", "census", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 3 - 0  # three member lines
    assert main(["family", "census", "5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 3


def test_usage_errors_exit_two(tmp_path, capsys):
    assert main(["params", str(tmp_path / "missing.edges")]) == 2
    assert main(["family", "gen", "H5", "--params", "0"]) == 2
    digon = tmp_path / "digon.edges"
    digon.write_text("2 2\n0 1\n1 0\n")
    assert main(["params", str(digon)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    two = tmp_path / "two.d6"
    two.write_text("&CO_?\n&CA_?\n")
    for command in ("params", "check"):
        assert main([command, str(two)]) == 2
        assert "line 2" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "arcconn" in capsys.readouterr().out
