"""Command-line entry point.

Subcommands:

* ``params``: print girth, lambda, lambda' (with cut/component/arc
  witnesses), xi, the existence witness, and the family match for one graph.
* ``check``: run every theorem clause on one graph; exit 1 on any failure.
* ``sweep``: exhaustive or seeded-random verification sweep over an order
  range, with optional checkpointed output directory; exit 1 on
  counterexamples.
* ``family gen / match / census``: generate an exception-family member,
  recognize one, or list all members of a given order.

Exit codes: 0 success, 1 a check or match failed, 2 bad input or usage.
Diagnostics go to stderr; results go to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import __version__
from .connectivity import DefinitionReading, RestrictedCutCertificate
from .errors import ArcConnError, InvalidParams
from .families import (
    Family,
    FamilyParams,
    ORIENT_CHOICES,
    SIZE_NAMES,
    family_census,
    generate,
    match_family,
)
from .formats import emit_digraph6, emit_edge_list, load
from .verify import RECORD_FIELDS, SweepSpec, check_graph, measure, run_sweep


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (ArcConnError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcconn",
        description="Restricted arc-connectivity of oriented graphs: "
        "parameters, exception families, and theorem sweeps.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="compute connectivity parameters of one graph")
    p.add_argument("path", help="edge-list or digraph6 file")
    _add_reading(p)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("check", help="judge every theorem clause on one graph")
    p.add_argument("path", help="edge-list or digraph6 file")
    _add_reading(p)
    p.add_argument("--proof-cuts", action="store_true", help="also check the constructive cuts")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("sweep", help="verify the theorems over many graphs")
    p.add_argument("--n", required=True, metavar="A[..B]", help="order or order range")
    p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p.add_argument("--samples", type=int, default=0, help="samples per order (random mode)")
    p.add_argument("--seed", type=int, default=0)
    _add_reading(p)
    girth = p.add_mutually_exclusive_group()
    girth.add_argument("--girth", type=int, default=4, help="restrict to this girth (default 4)")
    girth.add_argument("--no-girth-filter", action="store_true", help="keep every girth")
    p.add_argument("--audit-readings", action="store_true",
                   help="evaluate both definitional readings and report differences")
    p.add_argument("--proof-cuts", action="store_true")
    p.add_argument("--chunk-size", type=int, default=250_000)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None, metavar="DIR", help="write artifacts here")
    p.add_argument("--resume", action="store_true", help="reuse DIR's checkpoint")
    p.add_argument("--quiet", action="store_true", help="suppress per-chunk progress")
    p.set_defaults(func=_cmd_sweep)

    fam = sub.add_parser("family", help="exception-family tools")
    fam_sub = fam.add_subparsers(dest="family_command", required=True)

    p = fam_sub.add_parser("gen", help="generate a family member")
    p.add_argument("family", help="one of " + ", ".join(f.value for f in Family))
    p.add_argument("--params", default="", metavar="SIZES",
                   help="fan sizes, e.g. '1,1,1,1' or 'p=1,q=1,r=1,s=1'")
    p.add_argument("--orient", default="", metavar="TOKENS",
                   help="orientation tokens, e.g. 'xz' or 'xz,vy'")
    p.add_argument("--out", default=None, metavar="FILE", help="write here instead of stdout")
    p.add_argument("--format", choices=("edges", "d6"), default="edges")
    p.set_defaults(func=_cmd_family_gen)

    p = fam_sub.add_parser("match", help="recognize a family member")
    p.add_argument("path", help="edge-list or digraph6 file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_family_match)

    p = fam_sub.add_parser("census", help="list all family members of one order")
    p.add_argument("n", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_family_census)

    return parser


def _add_reading(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--reading",
        choices=("original", "residual"),
        default="original",
        help="where the witness arc must live: the original digraph (default) "
        "or the residue after removing the cut",
    )


def _fmt_arc(arc: tuple[int, int]) -> str:
    return f"{arc[0]}->{arc[1]}"


def _fmt_arcs(arcs) -> str:
    return "{" + ", ".join(_fmt_arc(a) for a in arcs) + "}"


def _cert_dict(cert: RestrictedCutCertificate) -> dict:
    return {
        "outcome": cert.outcome.value,
        "reading": cert.reading.value,
        "value": cert.value,
        "cut": [list(a) for a in cert.cut] if cert.cut is not None else None,
        "component": list(cert.component) if cert.component is not None else None,
        "outside_arc": list(cert.outside_arc) if cert.outside_arc is not None else None,
    }


def _cmd_params(args: argparse.Namespace) -> int:
    D = load(args.path)
    meas = measure(D, DefinitionReading.parse(args.reading))
    match, cert, xi_res, witness = meas.match, meas.certificate, meas.xi, meas.witness

    if args.json:
        payload = {
            "n": D.n,
            "m": D.m,
            "girth": meas.girth,
            "is_strong": meas.is_strong,
            "family": match.params.describe() if match else None,
            "lambda": meas.lambda_,
            "lambda_prime": _cert_dict(cert) if cert else None,
            "xi": {"value": xi_res.value, "cycle": list(xi_res.cycle), "side": xi_res.side}
            if xi_res
            else None,
            "existence_witness": {"cycle": list(witness[0]), "arc": list(witness[1])}
            if witness
            else None,
        }
        print(json.dumps(payload, indent=2))
        return 0

    print(f"order {D.n}, arcs {D.m}")
    print(f"girth {meas.girth if meas.girth is not None else 'none (acyclic)'}")
    print(f"strong {'yes' if meas.is_strong else 'no'}")
    print(f"family {match.describe() if match else 'none'}")
    if meas.lambda_ is not None:
        print(f"lambda {meas.lambda_}")
    if cert is not None:
        if cert.found:
            print(
                f"lambda' {cert.value} ({cert.reading.value} reading)  "
                f"cut {_fmt_arcs(cert.cut)}  component {set(cert.component)}  "
                f"outside arc {_fmt_arc(cert.outside_arc)}"
            )
        else:
            print(f"lambda' nonexistent ({cert.reading.value} reading)")
    if xi_res is not None:
        print(f"xi {xi_res.value} via cycle {xi_res.cycle} ({xi_res.side}-degrees)")
    if witness is not None:
        print(f"existence witness: girth cycle {witness[0]} with outside arc {_fmt_arc(witness[1])}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    D = load(args.path)
    reading = DefinitionReading.parse(args.reading)
    rec = check_graph(D, reading=reading, check_proof=args.proof_cuts)
    if args.json:
        print(json.dumps(_record_dict(rec), indent=2))
    else:
        print(f"graph {rec.graph_id}  n={rec.n} m={rec.m} girth={rec.girth} "
              f"strong={'yes' if rec.is_strong else 'no'} family={rec.family_params or 'none'}")
        print(f"lambda={_na(rec.lambda_)} lambda'={_na(rec.lambda_prime)} "
              f"exists={_na(rec.lambda_prime_exists)} xi={_na(rec.xi)} reading={rec.reading}")
        for name, verdict in rec.clauses().items():
            print(f"  {name:<24} {verdict}")
    return 0 if rec.passed else 1


def _na(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def _record_dict(rec) -> dict:
    return dict(zip(RECORD_FIELDS, rec.to_row()))


def _parse_order_range(text: str) -> tuple[int, int]:
    lo_text, dots, hi_text = text.partition("..")
    try:
        lo = int(lo_text)
        return lo, int(hi_text) if dots else lo
    except ValueError:
        raise ValueError(f"bad order range {text!r}: give an order A or a range A..B") from None


def _cmd_sweep(args: argparse.Namespace) -> int:
    n_lo, n_hi = _parse_order_range(args.n)
    spec = SweepSpec(
        n_lo=n_lo,
        n_hi=n_hi,
        mode=args.mode,
        samples=args.samples,
        seed=args.seed,
        reading=DefinitionReading.parse(args.reading),
        girth=None if args.no_girth_filter else args.girth,
        audit_readings=args.audit_readings,
        check_proof_cuts=args.proof_cuts,
        chunk_size=args.chunk_size,
        jobs=args.jobs,
    )
    progress = None if args.quiet else lambda msg: print(msg, file=sys.stderr)
    result = run_sweep(spec, out_dir=args.out, resume=args.resume, progress=progress)

    print(f"sweep n={n_lo}..{n_hi} {spec.mode} reading={spec.reading.value}")
    print(f"  codes seen {result.seen}, strong {result.strong}, stratum {result.stratum}")
    fams = ", ".join(f"{k} {v}" for k, v in sorted(result.family_counts.items())) or "none"
    print(f"  families: {fams} (total {result.family_total})")
    print(f"  lambda'-connected: {result.lambda_prime_connected}")
    for name, tallies in result.clause_tallies.items():
        print(f"  {name:<24} pass {tallies['pass']}, fail {tallies['fail']}, na {tallies['na']}")
    if result.accounting_ok is not None:
        print(f"  accounting: stratum {result.stratum} = family {result.family_total} "
              f"+ lambda'-connected {result.lambda_prime_connected} "
              f"[{'ok' if result.accounting_ok else 'MISMATCH'}]")
    if result.audit is not None:
        print(f"  reading audit: {result.audit['graphs']} graphs, "
              f"existence differs {result.audit['existence_differs']}, "
              f"cardinality differs {result.audit['value_differs']}")
    print(f"  counterexamples: {len(result.counterexamples)}")
    for path_name, path in sorted(result.paths.items()):
        print(f"  wrote {path_name}: {path}")
    print(f"  runtime {result.runtime:.1f}s ({result.backend} backend)")
    return 0 if result.ok else 1


def _parse_sizes(family: Family, text: str) -> tuple[int, ...]:
    names = SIZE_NAMES[family]
    if not text.strip():
        return tuple(0 for _ in names)
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if all("=" in t for t in tokens):
        given = {}
        for t in tokens:
            key, _, value = t.partition("=")
            given[key.strip()] = int(value)
        unknown = sorted(set(given) - set(names))
        if unknown:
            raise InvalidParams(f"{family.value} has no size parameter {unknown[0]!r}")
        return tuple(given.get(name, 0) for name in names)
    if any("=" in t for t in tokens):
        raise InvalidParams("mixing positional and named sizes is ambiguous")
    return tuple(int(t) for t in tokens)


def _cmd_family_gen(args: argparse.Namespace) -> int:
    family = Family.parse(args.family)
    sizes = _parse_sizes(family, args.params)
    orient_text = [t.strip() for t in args.orient.split(",") if t.strip()]
    if not orient_text and ORIENT_CHOICES[family]:
        orient_text = [choices[0] for choices in ORIENT_CHOICES[family]]
    params = FamilyParams(family, sizes, tuple(orient_text))
    D = generate(params)
    text = emit_digraph6(D) + "\n" if args.format == "d6" else emit_edge_list(D)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"wrote {params.describe()} (n={D.n}, m={D.m}) to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_family_match(args: argparse.Namespace) -> int:
    D = load(args.path)
    match = match_family(D)
    if args.json:
        payload = None
        if match:
            payload = {
                "family": match.family.value,
                "params": match.params.describe(),
                "roles": {k: v for k, v in sorted(match.roles.items())},
            }
        print(json.dumps(payload, indent=2))
    else:
        print(match.describe() if match else "no family match")
    return 0 if match else 1


def _cmd_family_census(args: argparse.Namespace) -> int:
    members = family_census(args.n)
    if args.json:
        payload = [
            {"params": params.describe(), "graph": emit_digraph6(D)}
            for params, D in members
        ]
        print(json.dumps(payload, indent=2))
    else:
        for params, D in members:
            print(f"{params.describe():<28} {emit_digraph6(D)}")
        print(f"{len(members)} non-isomorphic member(s) at n={args.n}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
