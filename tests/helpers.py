"""Shared test utilities: fixture programs, random generators, slow oracles."""

from __future__ import annotations

import itertools
import random
from typing import Mapping

from aspcount.analysis import derivable_atoms
from aspcount.benchgen import Graph
from aspcount.encode import PairFormula
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


def residual(clauses, assignment: Mapping[int, bool]) -> list[tuple[int, ...]]:
    """Reference unit propagation of a partial assignment on a clause list.

    Satisfied clauses are removed, false literals are shrunk away, and
    derived unit clauses act as further assignments, to fixpoint. Returns
    the surviving clauses (duplicates kept: residual comparisons are over
    multisets). A conflict yields a single empty clause.
    """
    values: dict[int, bool] = dict(assignment)
    work = [list(c) for c in clauses]
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
                return [()]
            if len(keep) == 1:
                units.append(keep[0])
            survivors.append(keep)
        consistent_units = {}
        for l in units:
            v = var_of(l)
            if consistent_units.get(v, l > 0) != (l > 0):
                return [()]
            consistent_units[v] = l > 0
        if not consistent_units:
            out = sorted(
                tuple(sorted(c, key=lambda l: (abs(l), l > 0))) for c in survivors
            )
            return out
        values.update(consistent_units)
        work = survivors


def bits(mask: int) -> list[int]:
    """The set bits of a component mask, ascending: its variables, or its
    listed clauses as positions in `listed_ids`."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def lowest(mask: int) -> int:
    """A component's lowest variable."""
    return (mask & -mask).bit_length() - 1


def listed_ids(eng) -> list[int]:
    """The `canon` index of each listed clause (three or more literals), in
    the order of the bits of a component's clause mask."""
    return [ci for ci, c in enumerate(eng.canon) if len(c) > 2]


def root_component(eng) -> tuple[int, int]:
    """Every variable and every listed clause, as `decompose` takes them with
    mark 0."""
    return (1 << eng.n_vars) - 1, (1 << len(listed_ids(eng))) - 1


def with_unit(pair: PairFormula, lit: int) -> PairFormula:
    """The pair with the unit clause `lit` added to its completion: counting
    it counts the answer sets in which the non-copy literal `lit` is true."""
    return PairFormula(pair.completion + [(lit,)], pair.copy_clauses, pair.vars)


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


def branching_program(rng: random.Random, max_atoms=12) -> Program:
    """Small random program whose count is a real search: 2-4 even negation
    pairs (choices) first, the other atoms derived from them. Most draws get
    a positive cycle over derived atoms, guarded by choice atoms and
    supported from one, so non-tight cases stay plentiful; every derived
    rule has a positive body and at most one negated choice, and a draw may
    get one constraint. Keep max_atoms at 12 or below: the oracle is
    exponential in it."""
    n = rng.randint(6, max_atoms)
    table = SymbolTable()
    ids = [table.intern(f"a{i}") for i in range(n)]
    k = rng.randint(2, min(4, n // 2 - 1))
    choices, derived = ids[: 2 * k], ids[2 * k :]
    rules = []
    for x, y in zip(choices[::2], choices[1::2]):
        rules += [Rule(x, frozenset(), frozenset({y})), Rule(y, frozenset(), frozenset({x}))]
    if rng.random() < 0.6:
        cyc = rng.sample(derived, rng.randint(2, min(4, len(derived))))
        for i, x in enumerate(cyc):
            guard = frozenset(rng.sample(choices, rng.randint(0, 1)))
            rules.append(Rule(x, guard | {cyc[(i + 1) % len(cyc)]}, frozenset()))
        rules.append(Rule(cyc[0], frozenset({rng.choice(choices)}), frozenset()))
    for _ in range(rng.randint(len(derived), 2 * len(derived) + 1)):
        pos = frozenset(rng.sample(ids, rng.randint(1, 2)))
        neg = frozenset(rng.sample(choices, rng.randint(0, 1)))
        rules.append(Rule(rng.choice(derived), pos, neg))
    constraints = []
    if rng.random() < 0.3:
        constraints.append(Constraint(frozenset(rng.sample(ids, 2)), frozenset()))
    return Program(table, rules, constraints)


def guarded_program(rng: random.Random) -> Program:
    """Small random program whose derived heads have 2-4 bodies sharing 1-2
    guard literals, so that the completion factors many of them: 3 even
    negation pairs x_i/y_i (choices), then 2-3 derived atoms d_j. A guard is
    a choice literal, positive or negative, spelled per body through either
    atom of its pair (x_i and `not y_i` are one literal through the atom
    map). Each body adds 1-2 atoms outside the guard's pairs, other than its
    head, a choice one negated now and then; one in fifteen adds nothing and
    equals the guard, and one in fifteen adds only `not h`, its own head.
    Some draws add a fact f to every body of one head, which folds out of
    its guard, and some fix a derived head by a fact, `:- d.` or `:- not d.`.
    At most 10 atoms, for the oracle."""
    table = SymbolTable()
    k = 3
    xs = [table.intern(f"x{i}") for i in range(k)]
    ys = [table.intern(f"y{i}") for i in range(k)]
    derived = [table.intern(f"d{j}") for j in range(rng.randint(2, 3))]
    none = frozenset()
    rules = []
    for x, y in zip(xs, ys):
        rules += [Rule(x, none, frozenset({y})), Rule(y, none, frozenset({x}))]
    folded = None
    if rng.random() < 0.15:
        f = table.intern("f")
        rules.append(Rule(f, none, none))
        folded = rng.choice(derived)
    for h in derived:
        guard = [(i, rng.random() < 0.5) for i in rng.sample(range(k), rng.randint(1, 2))]
        others = [a for i in set(range(k)) - {i for i, _ in guard} for a in (xs[i], ys[i])]
        others += [d for d in derived if d != h]
        for _ in range(rng.randint(2, 4)):
            pos, neg = set(), set()
            for i, positive in guard:  # x_i as x_i or not y_i, -x_i as y_i or not x_i
                a, b = (xs[i], ys[i]) if positive else (ys[i], xs[i])
                if rng.random() < 0.5:
                    pos.add(a)
                else:
                    neg.add(b)
            if h == folded:
                pos.add(f)
            rest = rng.random()
            if rest < 1 / 15:  # nothing: the body is the guard
                pass
            elif rest < 2 / 15:  # not h alone, which keeps h from being factored
                neg.add(h)
            else:
                for a in rng.sample(others, rng.randint(1, 2)):
                    (neg if a not in derived and rng.random() < 0.25 else pos).add(a)
            rules.append(Rule(h, frozenset(pos), frozenset(neg)))
    constraints = []
    if rng.random() < 0.3:
        h = rng.choice(derived)
        kind = rng.randrange(3)
        if kind == 0:
            rules.append(Rule(h, none, none))
        else:
            atom = frozenset({h})
            constraints.append(Constraint(atom, none) if kind == 1 else Constraint(none, atom))
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
    return tau is not None and not residual(pair.copy_clauses, tau)


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
