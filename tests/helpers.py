"""Shared test utilities: fixture programs, random generators, slow oracles."""

from __future__ import annotations

import itertools
import random
from typing import Mapping

from aspcount.analysis import derivable_atoms
from aspcount.benchgen import Graph
from aspcount.encode import Cnf
from aspcount.program import AtomId, Constraint, Program, Rule, SymbolTable

EXAMPLE1 = """\
a :- not b.
b :- not a.
c :- a, b.
c :- d.
d :- a.
d :- b, c.
e :- not a, not b.
"""


def id_of(table: SymbolTable, symbol: str) -> AtomId:
    """The id of an interned symbol."""
    return list(table).index(symbol)


def var_of(lit: int) -> int:
    return abs(lit) - 1


def render_graph(graph: Graph) -> str:
    """The edge-list text that `benchgen.parse_graph` reads."""
    edges = sorted(graph.edges)
    lines = ["%d %d" % (graph.n_nodes, len(edges))]
    lines += ["%d %d" % e for e in edges]
    return "\n".join(lines) + "\n"


def residual(cnf: Cnf, assignment: Mapping[int, bool]) -> Cnf:
    """Reference unit propagation of a partial assignment on a clause list.

    Satisfied clauses are removed, false literals are shrunk away, and
    derived unit clauses act as further assignments, to fixpoint. Returns
    the surviving clauses (duplicates kept: residual comparisons are over
    multisets). A conflict yields a single empty clause.
    """
    values: dict[int, bool] = dict(assignment)
    work = [list(c) for c in cnf.clauses]
    while True:
        survivors = []
        units: list[int] = []
        for clause in work:
            keep = []
            satisfied = False
            for l in clause:
                val = values.get(var_of(l))
                if val is None:
                    keep.append(l)
                elif val == (l > 0):
                    satisfied = True
                    break
            if satisfied:
                continue
            if not keep:
                return Cnf([()])
            if len(keep) == 1:
                units.append(keep[0])
            survivors.append(keep)
        consistent_units = {}
        for l in units:
            v = var_of(l)
            if consistent_units.get(v, l > 0) != (l > 0):
                return Cnf([()])
            consistent_units[v] = l > 0
        if not consistent_units:
            out = sorted(
                tuple(sorted(c, key=lambda l: (abs(l), l > 0))) for c in survivors
            )
            return Cnf(out)
        values.update(consistent_units)
        work = survivors


def path_text(n: int) -> str:
    """path(n): n negation pairs x_i/y_i joined by `:- x_i, x_{i+1}.`;
    Fibonacci(n + 2) answer sets."""
    lines = [f"x{i} :- not y{i}.\ny{i} :- not x{i}." for i in range(n)]
    lines += [f":- x{i}, x{i + 1}." for i in range(n - 1)]
    return "\n".join(lines) + "\n"


def random_program(rng: random.Random, max_atoms=8, max_rules=14) -> Program:
    """Small random program; roughly half the draws get a seeded positive
    cycle so non-tight cases stay plentiful."""
    n = rng.randint(2, max_atoms)
    table = SymbolTable()
    ids = [table.intern(f"a{i}") for i in range(n)]
    rules = []
    if rng.random() < 0.55:
        k = rng.randint(2, min(3, n))
        cyc = rng.sample(ids, k)
        for i, x in enumerate(cyc):
            guard = frozenset(rng.sample(ids, rng.randint(0, 1)))
            rules.append(Rule(x, frozenset({cyc[(i + 1) % k]}), guard))
    for _ in range(rng.randint(1, max_rules)):
        head = rng.choice(ids)
        if rng.random() < 0.15:
            rules.append(Rule(head, frozenset(), frozenset()))
            continue
        pos = frozenset(rng.sample(ids, rng.randint(0, 2)))
        neg = frozenset(rng.sample(ids, rng.randint(0, 2)))
        rules.append(Rule(head, pos, neg))
    constraints = []
    if rng.random() < 0.35:
        for _ in range(rng.randint(1, 2)):
            pos = frozenset(rng.sample(ids, rng.randint(0, 2)))
            neg = frozenset(rng.sample(ids, rng.randint(0, 2)))
            if pos or neg:
                constraints.append(Constraint(pos, neg))
    return Program(table, rules, constraints)


def disjoint_union(p1: Program, p2: Program) -> Program:
    """Union with atoms renamed apart (prefixes q1_/q2_)."""
    table = SymbolTable()
    maps = []
    for prefix, p in (("q1_", p1), ("q2_", p2)):
        maps.append({a: table.intern(prefix + p.symbol(a)) for a in range(p.n_atoms)})
    rules, constraints = [], []
    for mapping, p in zip(maps, (p1, p2)):
        for r in p.rules:
            rules.append(
                Rule(
                    mapping[r.head],
                    frozenset(mapping[a] for a in r.pos_body),
                    frozenset(mapping[a] for a in r.neg_body),
                )
            )
        for c in p.constraints:
            constraints.append(
                Constraint(
                    frozenset(mapping[a] for a in c.pos),
                    frozenset(mapping[a] for a in c.neg),
                )
            )
    return Program(table, rules, constraints)


def satisfies_completion(program: Program, m: frozenset[int]) -> bool:
    """Auxiliary-free semantic completion check: each atom holds iff one of
    its (satisfiable) bodies holds, and no constraint fires."""
    for atom in range(program.n_atoms):
        supported = any(
            r.head == atom
            and not r.body_unsatisfiable
            and r.pos_body <= m
            and not (r.neg_body & m)
            for r in program.rules
        )
        if (atom in m) != supported:
            return False
    return not any(c.pos <= m and not (c.neg & m) for c in program.constraints)


def derivable_part(program: Program) -> Program:
    """The program that build_pair encodes: the rules whose positive body
    lies inside the derivable atoms and holds neither the head nor an atom
    of the negative body."""
    derivable = derivable_atoms(program)
    rules = [
        r
        for r in program.rules
        if r.pos_body <= derivable
        and r.head not in r.pos_body
        and r.pos_body.isdisjoint(r.neg_body)
    ]
    return Program(program.atoms, rules, program.constraints)


def class_values(pair, m: frozenset[int]) -> dict[int, bool] | None:
    """The value of each original variable when exactly the atoms in m are
    true, read through the atom -> literal map; None when m gives two atoms
    of one class values their literals cannot both have."""
    values: dict[int, bool] = {}
    for a, lit in enumerate(pair.vars.lit_of_atom):
        val = (a in m) == (lit > 0)
        if values.setdefault(abs(lit) - 1, val) != val:
            return None
    return values


def extends_to_completion_model(pair, m: frozenset[int]) -> bool:
    """True iff the atom assignment for m, read through the atom map and
    extended over the body-auxiliary variables by evaluating their sets of
    body literals, satisfies every completion clause."""
    values = class_values(pair, m)
    if values is None:
        return False
    for body, v in pair.vars.aux_of_body.items():
        values[v] = all(values[abs(l) - 1] == (l > 0) for l in body)
    return all(
        any(values[abs(l) - 1] == (l > 0) for l in clause)
        for clause in pair.completion
    )


def copy_clauses_discharge(pair, m: frozenset[int]) -> bool:
    tau = class_values(pair, m)
    return tau is not None and len(residual(pair.copy_clauses, tau).clauses) == 0


def graph_ham_count(graph) -> int:
    """Directed Hamiltonian cycles by permutation enumeration."""
    n = graph.n_nodes
    count = 0
    for perm in itertools.permutations(range(1, n)):
        cycle = (0,) + perm
        if all((cycle[i], cycle[(i + 1) % n]) in graph.edges for i in range(n)):
            count += 1
    return count


def graph_reach_count(graph, source, target) -> int:
    """Subsets of intermediate nodes under which target stays reachable."""
    inter = [v for v in range(graph.n_nodes) if v not in (source, target)]
    count = 0
    for bits in range(1 << len(inter)):
        alive = {source, target} | {v for i, v in enumerate(inter) if bits >> i & 1}
        seen = {source}
        frontier = [source]
        while frontier:
            u = frontier.pop()
            for x, y in graph.edges:
                if x == u and y in alive and y not in seen:
                    seen.add(y)
                    frontier.append(y)
        if target in seen:
            count += 1
    return count
