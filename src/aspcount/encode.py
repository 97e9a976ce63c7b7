"""Pair representation of a program: completion CNF plus copy-implication CNF.

Literal convention: variable v (0-based) appears as the signed integer
+(v+1) / -(v+1), DIMACS style. `build_pair` first keeps only the rules
that can fire: positive body inside the derivable atoms
(`analysis.derivable_atoms`), head not in its own positive body, and no atom
both positive and negative in the body. So each atom outside the derivable
ones has no body and a unit -a. It then merges each head whose only body is
one literal other than itself, such as
`a :- not b.` or `a :- b.`, with that literal: the completion entails
a <-> L[a], so substituting one literal per class maps its models one to
one. Variables come in three contiguous blocks, in this order (see
`VarTable`):

  original  one per class of equivalent atom literals; atom a is the
            literal `lit_of_atom[a]`, positive for the class's smallest atom
  aux       one per distinct set of >= 2 body literals, read through the
            atom map, with no pair l, -l, that a head without a fact has
            beside another set (full biconditional, so the model count of
            the completion over all variables equals the count over atoms)
  copy      one fresh variable per loop atom

The completion CNF never mentions copy variables; every copy clause mentions
at least one. Copy clauses are built literally from the kept rules, through
the atom map.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import neg

from .analysis import LoopInfo, build_dep_graph, compute_loop_atoms, derivable_atoms
from .program import AtomId, Program


def pos_lit(v: int) -> int:
    return v + 1


class VarTable:
    """Variable ids as three contiguous blocks: originals [0, n_original),
    one per class of equivalent atom literals, auxiliaries [n_original,
    first_copy), copies [first_copy, len(self)). `lit_of_atom[a]` is the
    literal of atom a. The layout holds by construction: clark_completion
    makes every auxiliary before copy_operation makes the first copy."""

    def __init__(self, lit_of_atom: list[int]):
        self.lit_of_atom = lit_of_atom
        self.n_original = max(map(abs, lit_of_atom), default=0)
        self.aux_of_body: dict[frozenset[int], int] = {}
        self.copy_of_atom: dict[AtomId, int] = {}

    @property
    def first_copy(self) -> int:
        return self.n_original + len(self.aux_of_body)

    def __len__(self):
        return self.first_copy + len(self.copy_of_atom)


class Cnf:
    """Clause list in canonical form: each clause a tuple of distinct
    literals sorted by (variable, sign), and no clause twice. `add` takes a
    clause already in that form and drops it if it is already listed; the
    encoders build most clauses in order and sort the others."""

    def __init__(self, clauses=()):
        self.clauses: list[tuple[int, ...]] = list(clauses)
        self._seen = set(self.clauses)

    def add(self, clause: tuple[int, ...]) -> bool:
        if clause in self._seen:
            return False
        self._seen.add(clause)
        self.clauses.append(clause)
        return True

    def __len__(self):
        return len(self.clauses)

    def __iter__(self):
        return iter(self.clauses)


def _clause(lits) -> tuple[int, ...] | None:
    """The literals as a canonical clause, each once, or None when they hold
    some l and -l."""
    lits = set(lits)
    if len(set(map(abs, lits))) < len(lits):
        return None
    return tuple(sorted(lits, key=abs))


def _pair(a: int, b: int) -> tuple[int, ...] | None:
    """The clause a | b in canonical form, None when it is a tautology."""
    if a == b:
        return (a,)
    if a == -b:
        return None
    return (a, b) if abs(a) < abs(b) else (b, a)


def _merge_equivalent_atoms(n_atoms: int, by_head) -> list[int]:
    """The literal of each atom: one variable per class of atoms that a
    head's only body ties together when that body is one literal other than
    the head, numbered by each class's smallest atom."""
    ties: list[list[tuple[int, int]]] = [[] for _ in range(n_atoms)]
    for head, bodies in by_head.items():
        if len(bodies) == 1:
            ((pos, neg),) = bodies
            if len(pos) + len(neg) == 1:
                (b,) = pos or neg
                if b != head:  # only a :- not a. gets here: a keeps its own variable
                    sign = 1 if pos else -1
                    ties[head].append((b, sign))
                    ties[b].append((head, sign))
    lit = [0] * n_atoms
    n_classes = 0
    for a in range(n_atoms):
        if lit[a]:
            continue
        n_classes += 1
        lit[a] = n_classes
        todo = [a]
        for u in todo:  # grows while the walk reaches new atoms
            for w, sign in ties[u]:
                if not lit[w]:
                    lit[w] = sign * lit[u]
                    todo.append(w)
    return lit


def clark_completion(program: Program) -> tuple[Cnf, VarTable]:
    """Completion clauses plus constraint clauses, over the atom map.

    Each distinct body of a head is read once, as its set of literals
    through the map, and that set decides every case. Per head h: a set
    holding l and -l drops out; equal sets merge; an empty set (a fact)
    gives the unit h; otherwise h <-> (d_1 | ... | d_k), the unit -h when no
    set is left, where d_i is the set's lone literal, h itself when the set
    is h's only one, or else the set's BODY_AUX with d_i <-> set, shared by
    every head with an equal set. Each integrity constraint contributes its
    one clause. The completion entails a <-> L[a], so a contradictory set is
    false in every model, equal sets are equivalent, and an auxiliary is a
    function of the originals. The definition that joined h's class reads
    as {h} and gives only tautologies, which are not emitted; one that
    contradicts its class gives the units r and -r.
    """
    by_head: dict[AtomId, dict[tuple[frozenset, frozenset], None]] = {}
    for r in program.rules:
        by_head.setdefault(r.head, {})[r.pos_body, r.neg_body] = None
    lit = _merge_equivalent_atoms(program.n_atoms, by_head)
    cnf = Cnf()
    table = VarTable(lit)

    add = cnf.add
    aux_of_body = table.aux_of_body
    get = lit.__getitem__
    for atom, h in enumerate(lit):
        sets: dict[frozenset[int], tuple[frozenset, frozenset]] = {}
        for body in by_head.get(atom, ()):
            p, n = body
            key = frozenset([*map(get, p), *map(neg, map(get, n))]) if n else frozenset(map(get, p))
            if len(key) < 2 or key.isdisjoint(map(neg, key)):
                sets.setdefault(key, body)
        if frozenset() in sets:
            add((h,))
            continue
        disjuncts = []
        for key, (p, n) in sets.items():
            if len(key) == 1:
                (d,) = key
            else:
                # the clauses -d | l go out in the order of the body's
                # positive atoms, then its negative ones
                lits = [lit[a] for a in sorted(p)] + [-lit[a] for a in sorted(n)]
                if len(sets) == 1:  # h <-> the set: -h | l per l, h | -set
                    d = h
                    for l in lits:
                        if l != h:
                            add(_pair(-h, l))
                    if h not in key:
                        add(tuple(sorted({h, *map(neg, key)}, key=abs)))
                else:  # the next id, unless an earlier head defined this set
                    n_aux = len(aux_of_body)
                    d = pos_lit(aux_of_body.setdefault(key, table.n_original + n_aux))
                    if len(aux_of_body) > n_aux:  # d is above every literal of the set
                        for l in lits:
                            add((l, -d))
                        add(tuple(sorted(map(neg, key), key=abs)) + (d,))
            disjuncts.append(d)
        # a disjunct h, from the set {h} or naming h's only set, makes this
        # clause a tautology, as it makes -h | h
        if h not in disjuncts:
            clause = _clause([-h, *disjuncts])
            if clause is not None:
                add(clause)
        for d in disjuncts:
            if d != h:
                add(_pair(-d, h))

    for c in program.constraints:
        clause = _clause([*map(neg, map(get, c.pos)), *map(get, c.neg)])
        if clause is not None:
            add(clause)
    return cnf, table


def copy_operation(program: Program, info: LoopInfo, table: VarTable) -> Cnf:
    """Copy clauses: v' -> L[v] per loop atom v, and per rule whose head x is
    a loop atom the clause  -a1' | ... | -ak' | -L[b1] | ... | -L[bm] |
    L[c1] | ... | x'  (copies replace exactly the positive loop-atom body
    occurrences). Tautologies are kept."""
    cnf = Cnf()
    if not info.loop_atoms:
        return cnf
    lit = table.lit_of_atom
    for v in sorted(info.loop_atoms):
        table.copy_of_atom[v] = len(table)
    for v in sorted(info.loop_atoms):
        cnf.add((lit[v], -pos_lit(table.copy_of_atom[v])))  # a copy is above every original
    for r in program.rules:
        if r.head not in info.loop_atoms:
            continue
        lits = []
        for b in r.pos_body:
            if b in info.loop_atoms:
                lits.append(-pos_lit(table.copy_of_atom[b]))
            else:
                lits.append(-lit[b])
        lits += [lit[c] for c in r.neg_body]
        lits.append(pos_lit(table.copy_of_atom[r.head]))
        cnf.add(tuple(sorted(sorted(set(lits)), key=abs)))  # -v before v
    return cnf


@dataclass
class PairFormula:
    completion: Cnf  # never mentions a copy variable
    copy_clauses: Cnf  # every clause mentions at least one copy variable
    vars: VarTable

    @property
    def copy_vars(self) -> range:
        return range(self.vars.first_copy, len(self.vars))

    @property
    def n_vars(self) -> int:
        return len(self.vars)


def build_pair(program: Program) -> PairFormula:
    """The pair of the program without the rules that cannot fire (see the
    module docstring): none derives an atom in the reduct of an answer set,
    and every answer set of the other rules satisfies them."""
    derivable = derivable_atoms(program)
    rules = [
        r for r in program.rules
        if r.pos_body <= derivable and r.head not in r.pos_body
        and r.pos_body.isdisjoint(r.neg_body)
    ]
    program = Program(program.atoms, rules, program.constraints)
    info = compute_loop_atoms(build_dep_graph(program))
    completion, table = clark_completion(program)
    copies = copy_operation(program, info, table)
    return PairFormula(completion, copies, table)


def emit_dimacs(pair: PairFormula) -> str:
    """Annotated DIMACS text of completion & copy clauses conjoined.

    Comment lines list the 1-based variable ids of each block (`c orig`,
    `c aux`, `c copy`; empty blocks are omitted), then the literal of each
    atom in atom order (`c atoms`, omitted when there is no atom).
    """
    t = pair.vars
    blocks = (
        ("orig", 0, t.n_original),
        ("aux", t.n_original, t.first_copy),
        ("copy", t.first_copy, len(t)),
    )
    out = []
    for name, lo, hi in blocks:
        if lo < hi:
            out.append("c %s %s" % (name, " ".join(map(str, range(lo + 1, hi + 1)))))
    if t.lit_of_atom:
        out.append("c atoms %s" % " ".join(map(str, t.lit_of_atom)))
    clauses = pair.completion.clauses + pair.copy_clauses.clauses
    out.append("p cnf %d %d" % (pair.n_vars, len(clauses)))
    for c in clauses:
        out.append(" ".join(map(str, c)) + " 0")
    return "\n".join(out) + "\n"
