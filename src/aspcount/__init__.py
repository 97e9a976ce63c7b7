"""Exact answer-set counting for ground normal logic programs.

A program is encoded as a pair of CNFs, the Clark completion and the
copy-implication clauses over fresh copies of its loop atoms, with one
variable per class of equivalent atom literals and no rule whose positive
body cannot be derived; a total assignment over those variables is an
answer set exactly when it satisfies the completion and unit propagation
discharges every copy clause, that is, assigns every copy variable. The
engine counts such assignments with component decomposition and caching,
and a brute-force reduct oracle provides the ground truth for testing.
"""

from .analysis import DepGraph, LoopInfo, build_dep_graph, compute_loop_atoms
from .benchgen import (
    Graph,
    gen_choice_chain,
    gen_hamiltonian,
    gen_reachability,
    parse_graph,
    random_graph,
)
from .encode import Cnf, PairFormula, build_pair, emit_dimacs
from .engine import Engine, RunStats
from .errors import ResourceLimitError
from .oracle import brute_force_count, gl_reduct, is_answer_set, least_model
from .parser import ParseDiagnostic, ParseError, parse_program, render_program
from .program import AtomId, Constraint, Program, Rule, SymbolTable, validate

__version__ = "0.1.0"

__all__ = [
    "AtomId",
    "Cnf",
    "Constraint",
    "DepGraph",
    "Engine",
    "Graph",
    "LoopInfo",
    "PairFormula",
    "ParseDiagnostic",
    "ParseError",
    "Program",
    "ResourceLimitError",
    "Rule",
    "RunStats",
    "SymbolTable",
    "brute_force_count",
    "build_dep_graph",
    "build_pair",
    "compute_loop_atoms",
    "emit_dimacs",
    "gen_choice_chain",
    "gen_hamiltonian",
    "gen_reachability",
    "gl_reduct",
    "is_answer_set",
    "least_model",
    "parse_graph",
    "parse_program",
    "random_graph",
    "render_program",
    "validate",
]
