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


# the version of the --stats json key set; keys are only ever added, and
# each addition raises it
STATS_SCHEMA_VERSION = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _at_least(kind, low):
    """An argparse type: `kind(text)`, at least `low`. It bears `kind`'s name,
    so that an unreadable value reads "invalid int value" as with type=int."""
    def at_least(text: str):
        value = kind(text)
        if not value >= low:  # also rejects nan, which compares false with everything
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    at_least.__name__ = kind.__name__
    return at_least


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--stats", choices=["json", "none"], default="none")
    common.add_argument("--no-cache", action="store_true")
    common.add_argument("--cache-limit-mb", type=_at_least(int, 0), default=1024)
    common.add_argument("--budget", type=_at_least(float, 0), default=None, help="total seconds")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("-o", "--output", default=None)

    parser = _Parser(prog="aspcount", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("count", parents=[common], help="exact answer-set count")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_solve, solve=lambda e, a: e.count())

    p = sub.add_parser("enumerate", parents=[common], help="count by enumeration up to a limit")
    p.add_argument("file")
    p.add_argument("--limit", type=_at_least(int, 1), default=DEFAULT_ENUM_THRESHOLD)
    p.set_defaults(handler=_cmd_solve, solve=lambda e, a: e.enumerate_up_to(a.limit))

    p = sub.add_parser("hybrid", parents=[common], help="enumerate, fall back to counting")
    p.add_argument("file")
    p.add_argument("--threshold", type=_at_least(int, 1), default=DEFAULT_ENUM_THRESHOLD)
    p.set_defaults(handler=_cmd_solve, solve=lambda e, a: e.hybrid(a.threshold))

    p = sub.add_parser("translate", parents=[output], help="emit annotated DIMACS")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_translate)

    p = sub.add_parser("oracle", help="brute-force count (small programs)")
    p.add_argument("file")
    p.add_argument("--cap", type=_at_least(int, 0), default=DEFAULT_ATOM_CAP)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("analyze", help="tightness, loop atoms, underivable atoms, warnings")
    p.add_argument("file")
    p.add_argument("--dump-graph", action="store_true")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("gen", help="generate benchmark instances")
    p.set_defaults(handler=_cmd_gen)
    gen_sub = p.add_subparsers(dest="family", required=True)
    g = gen_sub.add_parser("chain", parents=[output])
    g.add_argument("n", type=int)
    g.set_defaults(make=lambda a: benchgen.gen_choice_chain(a.n))
    g = gen_sub.add_parser("hamiltonian", parents=[output])
    g.add_argument("graph")
    g.set_defaults(make=lambda a: benchgen.gen_hamiltonian(_graph(a.graph)))
    g = gen_sub.add_parser("reach", parents=[output])
    g.add_argument("graph")
    g.add_argument("source", type=int)
    g.add_argument("target", type=int)
    g.set_defaults(make=lambda a: benchgen.gen_reachability(_graph(a.graph), a.source, a.target))
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
        "schema_version": STATS_SCHEMA_VERSION,
        "mode": args.cmd,
        "answer_count": str(answer_count),
        "decisions": stats.decisions,
        "propagations": stats.propagations,
        "bcp_seconds": stats.bcp_time,
        "cache_lookups": stats.cache_lookups,
        "cache_hits": stats.cache_hits,
        "cache_hit_pct": stats.cache_hit_pct,
        "cache_entries": stats.cache_entries,
        "cache_evictions": stats.cache_evictions,
        "peak_cache_bytes": stats.peak_cache_bytes,
        "unfounded_literals": stats.unfounded,
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


def _load(path: str):
    return parse_program(Path(path).read_text())


def _graph(path: str):
    return benchgen.parse_graph(Path(path).read_text())


def _cmd_solve(args) -> int:
    """count / enumerate / hybrid, by `args.solve(engine, args)`; wall_seconds
    runs from before the file is read, and parse_seconds (reading and
    parsing) and encode_seconds (build_pair) are parts of it."""
    t0 = time.perf_counter()
    program = _load(args.file)
    t1 = time.perf_counter()
    pair = build_pair(program)
    setup = (t1 - t0, time.perf_counter() - t1)
    cap = args.cache_limit_mb << 20
    eng = Engine(pair, use_cache=not args.no_cache, cache_limit_bytes=cap, budget=args.budget)
    try:
        n, stats = args.solve(eng, args)
    except ResourceLimitError as e:
        _report(args, "exceeded", e.stats, time.perf_counter() - t0, setup, program, pair)
        raise
    n = "exceeded" if n is None else n
    print(n)
    _report(args, n, stats, time.perf_counter() - t0, setup, program, pair)
    return 0


def _cmd_translate(args) -> int:
    pair = build_pair(_load(args.file))
    _write_out(emit_dimacs(pair), args.output)
    return 0


def _cmd_oracle(args) -> int:
    print(brute_force_count(_load(args.file), cap=args.cap))
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
    """gen chain / hamiltonian / reach, by the family's `args.make(args)`."""
    _write_out(render_program(args.make(args)), args.output)
    return 0


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    try:
        return args.handler(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 1
    except ResourceLimitError as e:  # partial stats, if any, are already out
        print(str(e), file=sys.stderr)
        return 2
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())
