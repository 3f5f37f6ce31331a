"""Restricted arc-connectivity toolkit for oriented graphs.

The package computes girth, arc-connectivity lambda, the restricted
arc-connectivity lambda', and the degree-sum bound xi of oriented graphs
(digraphs without loops or digons), recognizes and generates the seven
exception families of strong girth-4 graphs that admit no restricted
arc-cut, and machine-verifies the structure theorems tying these together
by exhaustive or seeded-random enumeration.
"""

from __future__ import annotations

__version__ = "0.1.0"

from ._kernels import backend_name
from .connectivity import (
    CutOutcome,
    DefinitionReading,
    ORIGINAL_HOST,
    RESIDUAL_HOST,
    RestrictedCutCertificate,
    XiResult,
    arc_connectivity,
    is_restricted_arc_cut,
    lambda_prime_bruteforce,
    lambda_prime_exact,
    lambda_prime_existence_witness,
    lambda_prime_exists,
    proof_cut_constructions,
    xi,
    xi_of_cycle,
)
from .cycles import cycles_of_length, girth, girth_cycles, is_cycle
from .digraph import Digraph
from .errors import (
    AcyclicDigraph,
    ArcConnError,
    CapExceeded,
    InvalidDigraph,
    InvalidParams,
    InvalidVertex,
    InvariantViolation,
    NotAFourCycle,
    NotAGirthCycle,
    NotStrong,
    ParseError,
    UnknownArc,
)
from .families import (
    Family,
    FamilyMatch,
    FamilyParams,
    family_census,
    generate,
    match_family,
)
from .formats import (
    emit_digraph6,
    emit_edge_list,
    iter_digraph6,
    load,
    parse,
    parse_digraph6,
    parse_edge_list,
    save,
)
from .verify import (
    SweepSpec,
    SweepResult,
    VerificationRecord,
    check_graph,
    run_sweep,
)

__all__ = [
    "__version__",
    "backend_name",
    "AcyclicDigraph",
    "ArcConnError",
    "CapExceeded",
    "CutOutcome",
    "DefinitionReading",
    "Digraph",
    "Family",
    "FamilyMatch",
    "FamilyParams",
    "InvalidDigraph",
    "InvalidParams",
    "InvalidVertex",
    "InvariantViolation",
    "NotAFourCycle",
    "NotAGirthCycle",
    "NotStrong",
    "ORIGINAL_HOST",
    "ParseError",
    "RESIDUAL_HOST",
    "RestrictedCutCertificate",
    "SweepResult",
    "SweepSpec",
    "UnknownArc",
    "VerificationRecord",
    "XiResult",
    "arc_connectivity",
    "check_graph",
    "cycles_of_length",
    "emit_digraph6",
    "emit_edge_list",
    "family_census",
    "generate",
    "girth",
    "girth_cycles",
    "is_cycle",
    "is_restricted_arc_cut",
    "iter_digraph6",
    "lambda_prime_bruteforce",
    "lambda_prime_exact",
    "lambda_prime_existence_witness",
    "lambda_prime_exists",
    "load",
    "match_family",
    "parse",
    "parse_digraph6",
    "parse_edge_list",
    "proof_cut_constructions",
    "run_sweep",
    "save",
    "xi",
    "xi_of_cycle",
]
