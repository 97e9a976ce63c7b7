"""Command-line surface: count / enumerate / hybrid / translate / oracle / gen / analyze.

The exact decimal count is the sole line on stdout; the JSON run report goes
to stderr when --stats json is given. Exit codes: 0 success, 1 parse or
usage error, 2 resource limit (partial stats are still emitted).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import benchgen
from .analysis import build_dep_graph, compute_loop_atoms, derivable_atoms
from .encode import build_pair, emit_dimacs
from .engine import DEFAULT_ENUM_THRESHOLD, Engine, RunStats
from .errors import ResourceLimitError
from .oracle import DEFAULT_ATOM_CAP, brute_force_count
from .parser import ParseError, parse_program, render_program
from .program import validate


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_float(text: str) -> float:
    value = float(text)
    if not value >= 0:  # also rejects nan, which compares false with everything
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--stats", choices=["json", "none"], default="none")
    common.add_argument("--no-cache", action="store_true")
    common.add_argument("--cache-limit-mb", type=_non_negative_int, default=1024)
    common.add_argument("--seed", type=int, default=None)

    parser = _Parser(prog="aspcount", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("count", parents=[common], help="exact answer-set count")
    p.add_argument("file")

    p = sub.add_parser("enumerate", parents=[common], help="count by enumeration up to a limit")
    p.add_argument("file")
    p.add_argument("--limit", type=_positive_int, default=DEFAULT_ENUM_THRESHOLD)

    p = sub.add_parser("hybrid", parents=[common], help="enumerate, fall back to counting")
    p.add_argument("file")
    p.add_argument("--threshold", type=_positive_int, default=DEFAULT_ENUM_THRESHOLD)
    p.add_argument("--budget", type=_non_negative_float, default=None, help="total seconds")

    p = sub.add_parser("translate", help="emit annotated DIMACS")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("oracle", help="brute-force count (small programs)")
    p.add_argument("file")
    p.add_argument("--cap", type=_non_negative_int, default=DEFAULT_ATOM_CAP)

    p = sub.add_parser("analyze", help="tightness, loop atoms, underivable atoms, warnings")
    p.add_argument("file")
    p.add_argument("--dump-graph", action="store_true")

    p = sub.add_parser("gen", help="generate benchmark instances")
    gen_sub = p.add_subparsers(dest="family", required=True)
    g = gen_sub.add_parser("chain")
    g.add_argument("n", type=int)
    g.add_argument("-o", "--output", default=None)
    g = gen_sub.add_parser("hamiltonian")
    g.add_argument("graph")
    g.add_argument("-o", "--output", default=None)
    g = gen_sub.add_parser("reach")
    g.add_argument("graph")
    g.add_argument("source", type=int)
    g.add_argument("target", type=int)
    g.add_argument("-o", "--output", default=None)
    return parser


def _write_out(text: str, output: str | None):
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def _report(args, answer_count, stats: RunStats, wall, setup, program, pair):
    """setup is (parse seconds, encode seconds), both inside wall."""
    if args.stats != "json":
        return
    n_copy_vars = len(pair.copy_vars)  # one copy per loop atom
    doc = {
        "mode": args.cmd,
        "answer_count": str(answer_count),
        "decisions": stats.decisions,
        "propagations": stats.propagations,
        "bcp_seconds": stats.bcp_time,
        "cache_lookups": stats.cache_lookups,
        "cache_hits": stats.cache_hits,
        "cache_hit_pct": stats.cache_hit_pct,
        "cache_entries": stats.cache_entries,
        "peak_cache_bytes": stats.peak_cache_bytes,
        "wall_seconds": wall,
        "parse_seconds": setup[0],
        "encode_seconds": setup[1],
        "tight": n_copy_vars == 0,
        "n_atoms": program.n_atoms,
        "n_rules": len(program.rules),
        "n_loop_atoms": n_copy_vars,
        "n_copy_vars": n_copy_vars,
        "n_clauses_f": len(pair.completion),
        "n_clauses_g": len(pair.copy_clauses),
        "n_vars": pair.n_vars,
        "path": stats.path or None,
    }
    print(json.dumps(doc), file=sys.stderr)


def _engine(args, pair) -> Engine:
    return Engine(
        pair,
        use_cache=not args.no_cache,
        cache_limit_bytes=args.cache_limit_mb << 20,
        seed=args.seed,
        budget=getattr(args, "budget", None),
    )


def _load(path: str):
    return parse_program(Path(path).read_text())


def _solve(args, engine: Engine):
    """(count, or None past enumerate's limit, stats) for args.cmd."""
    if args.cmd == "count":
        return engine.count()
    if args.cmd == "hybrid":
        return engine.hybrid(args.threshold)
    return engine.enumerate_up_to(args.limit)


def _cmd_solve(args) -> int:
    """count / enumerate / hybrid; wall_seconds runs from before the file is
    read, and parse_seconds (reading and parsing) and encode_seconds
    (build_pair) are parts of it."""
    t0 = time.perf_counter()
    program = _load(args.file)
    t1 = time.perf_counter()
    pair = build_pair(program)
    setup = (t1 - t0, time.perf_counter() - t1)
    try:
        n, stats = _solve(args, _engine(args, pair))
    except ResourceLimitError as e:
        wall = time.perf_counter() - t0
        _report(args, "exceeded", e.stats or RunStats(), wall, setup, program, pair)
        print(str(e), file=sys.stderr)
        return 2
    n = "exceeded" if n is None else n
    print(n)
    _report(args, n, stats, time.perf_counter() - t0, setup, program, pair)
    return 0


def _cmd_translate(args) -> int:
    pair = build_pair(_load(args.file))
    _write_out(emit_dimacs(pair), args.output)
    return 0


def _cmd_oracle(args) -> int:
    program = _load(args.file)
    try:
        n = brute_force_count(program, cap=args.cap)
    except ResourceLimitError as e:
        print(str(e), file=sys.stderr)
        return 2
    print(n)
    return 0


def _cmd_analyze(args) -> int:
    program = _load(args.file)
    graph = build_dep_graph(program)
    info = compute_loop_atoms(graph)
    print("tight: %s" % ("true" if not info.loop_atoms else "false"))
    print("loop_atoms: %s" % " ".join(program.symbol(a) for a in sorted(info.loop_atoms)))
    print("n_atoms: %d" % program.n_atoms)
    print("n_rules: %d" % len(program.rules))
    print("n_constraints: %d" % len(program.constraints))
    print("n_loop_atoms: %d" % len(info.loop_atoms))
    underivable = sorted(set(range(program.n_atoms)) - derivable_atoms(program))
    print("underivable: %s" % " ".join(program.symbol(a) for a in underivable))
    for warning in validate(program):
        print("warning: %s" % warning)
    if args.dump_graph:
        for u, v in sorted(graph.edges):
            print("%s %s" % (program.symbol(u), program.symbol(v)))
    return 0


def _cmd_gen(args) -> int:
    if args.family == "chain":
        program = benchgen.gen_choice_chain(args.n)
    elif args.family == "hamiltonian":
        program = benchgen.gen_hamiltonian(benchgen.parse_graph(Path(args.graph).read_text()))
    else:
        graph = benchgen.parse_graph(Path(args.graph).read_text())
        program = benchgen.gen_reachability(graph, args.source, args.target)
    _write_out(render_program(program), args.output)
    return 0


_DISPATCH = {
    "count": _cmd_solve,
    "enumerate": _cmd_solve,
    "hybrid": _cmd_solve,
    "translate": _cmd_translate,
    "oracle": _cmd_oracle,
    "analyze": _cmd_analyze,
    "gen": _cmd_gen,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    try:
        return _DISPATCH[args.cmd](args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())
