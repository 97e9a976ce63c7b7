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
  aux       one per distinct rest R_i of >= 2 literals, which stands
            for a disjunct d_i of h <-> C & (R_1 | ... | R_k), the one
            completion rule of each head (see `clark_completion`): a body
            of the head, read through the atom map and without its fixed
            literals, less the literals C that the rule takes out of every
            body (all of them when the head has one body), full
            biconditional, so the model count of the completion over all
            variables equals the count over atoms
  copy      one fresh variable per loop atom

The fixed literals are those the encoding has units for by itself: the
head of a fact, the negation of a head with no usable body, and the literal
of a one-literal integrity constraint, each through the atom map. Their
units come first, and they are folded into every other clause: no other
clause holds a fixed literal's variable, so the folded pair has the same
level-0 fixpoint as the unfolded one and the same models over its other
variables, and a body set that was one literal beside fixed-true ones gets
no auxiliary. Two fixed literals that contradict give the empty clause.

The completion CNF never mentions copy variables; every copy clause mentions
at least one. Copy clauses are built from the kept rules, through the atom
map, folded the same way, and none holds l and -l.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
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


def _clause(lits, true=frozenset(), false=frozenset()) -> tuple[int, ...] | None:
    """The literals as a canonical clause, each once and none of them in
    `false`, or None when they hold some l and -l or a literal in `true`."""
    lits = set(lits)
    if not lits.isdisjoint(map(neg, lits)):
        return None
    if true:
        if not lits.isdisjoint(true):
            return None
        lits = lits - false  # a new set: -= would walk all of `false`
    return tuple(sorted(lits, key=abs))


def _pair(a: int, b: int) -> tuple[int, ...] | None:
    """The clause a | b in canonical form, None when it is a tautology."""
    if a == b:
        return (a,)
    if a == -b:
        return None
    return (a, b) if abs(a) < abs(b) else (b, a)


def _merge_equivalent_atoms(n_atoms: int, by_head) -> tuple[list[int], set[AtomId]]:
    """The literal of each atom: one variable per class of atoms that a
    head's only body ties together when that body is one literal other than
    the head, numbered by each class's smallest atom. Also the heads whose
    tie holds under that numbering: each one's only body reads as its own
    literal."""
    ties: list[list[tuple[int, int]]] = [[] for _ in range(n_atoms)]
    defs = []
    for head, bodies in by_head.items():
        if len(bodies) == 1:
            ((pos, neg),) = bodies
            if len(pos) + len(neg) == 1:
                (b,) = pos or neg
                if b != head:  # only a :- not a. gets here: a keeps its own variable
                    sign = 1 if pos else -1
                    ties[head].append((b, sign))
                    ties[b].append((head, sign))
                    defs.append((head, b, sign))
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
    return lit, {head for head, b, sign in defs if lit[head] == sign * lit[b]}


def clark_completion(program: Program) -> tuple[list[tuple[int, ...]], VarTable, frozenset[int]]:
    """Completion clauses plus constraint clauses, over the atom map, and
    the fixed literals.

    Each distinct body of a head is read once, as its set of literals
    through the map; a set holding l and -l drops out and equal sets merge.
    A head that joined its class through its only body is skipped: that
    body reads as {h} and gives only tautologies (a body that contradicts
    its class is read, and gives the units r and -r). The fixed literals
    (see the module docstring) are each head with an empty set, the
    negation of each head with no set, and the literal of each one-literal
    constraint; their units go out first, or the empty clause alone when
    two of them contradict. Then every set, on one path whether or not a
    literal is fixed, is read without its fixed-true literals; a set holding
    a fixed-false one drops out, and the sets S_1..S_k left decide every
    case. Per head h: h fixed false gives -S_i per set (no set may hold); an
    empty set gives the unit h. Every other head gets one rule,
    h <-> C & (R_1 | ... | R_k) with R_i = S_i - C. C is S_1 when k = 1;
    for k >= 2 it is the literals every set holds, if h is not fixed, none
    of its sets equals them and none holds h or -h, and else empty. d_i
    stands for R_i: its lone literal, or else its auxiliary with
    d_i <-> R_i, shared by every head with an equal rest, and an empty R_i
    is true. The clauses are -h | c per c in C, -h | d_1 | ... | d_k unless
    some R_i is empty (the unit -h when no set is left) and h | -C | -d_i
    per i (h | -C for an empty R_i); none holding h and -h goes out, and
    with h fixed true no clause holding h does and -h is dropped from the
    others. An auxiliary's clauses -d_i | l go out in the order of l's
    variables, as the clauses -h | c do. Each integrity constraint
    contributes its one clause, folded the same way. The completion entails
    a <-> L[a], so a contradictory set is false in every model, equal sets
    are equivalent, and an auxiliary is a function of the originals.
    """
    by_head: dict[AtomId, dict[tuple[frozenset, frozenset], None]] = {}
    for r in program.rules:
        by_head.setdefault(r.head, {})[r.pos_body, r.neg_body] = None
    lit, merged = _merge_equivalent_atoms(program.n_atoms, by_head)
    clauses: dict[tuple[int, ...], None] = {}  # an ordered set
    table = VarTable(lit)

    add = clauses.setdefault
    aux_of_body = table.aux_of_body
    get = lit.__getitem__
    heads = []
    true: set[int] = set()  # the fixed literals
    for atom, h in enumerate(lit):
        if atom in merged:  # its only set is {h}, which gives only tautologies
            continue
        sets: dict[frozenset[int], None] = {}  # an ordered set
        for p, n in by_head.get(atom, ()):
            key = frozenset([*map(get, p), *map(neg, map(get, n))]) if n else frozenset(map(get, p))
            if len(key) < 2 or key.isdisjoint(map(neg, key)):
                sets[key] = None
        if frozenset() in sets:
            true.add(h)
        elif not sets:
            true.add(-h)
        else:
            heads.append((h, sets))
    constraints = []
    for c in program.constraints:
        clause = _clause([*map(neg, map(get, c.pos)), *map(get, c.neg)])
        if clause is not None:
            constraints.append(clause)
            if len(clause) == 1:
                true.add(clause[0])
    false = set(map(neg, true))
    if not true.isdisjoint(false):
        return [()], table, frozenset(true)
    for l in sorted(true, key=abs):
        add((l,))

    touched = true | false
    for h, sets in heads:
        if not touched.isdisjoint(chain.from_iterable(sets)):
            sets = dict.fromkeys(key - true for key in sets if key.isdisjoint(false))
        if h in false:  # no set may hold
            for key in sets:
                add(tuple(sorted(map(neg, key), key=abs)))
            continue
        if frozenset() in sets:
            if h not in true:
                add((h,))
            continue
        fixed = h in true
        # C: the one set, or the literals every set holds when h is factored
        if len(sets) == 1:
            (common,) = sets
        else:
            common = frozenset.intersection(*sets) if sets and not fixed else frozenset()
            if common and (common in sets or not {h, -h}.isdisjoint(chain.from_iterable(sets))):
                common = frozenset()
        for c in sorted(common, key=abs):
            clause = (c,) if fixed else _pair(-h, c)
            if clause is not None:
                add(clause)
        disjuncts = []  # d_i per rest R_i, None for an empty one
        for key in sets:
            rest = key - common if common else key
            if len(rest) == 1:
                (d,) = rest
            elif rest:  # the next id, unless an earlier head defined this set
                n_aux = len(aux_of_body)
                d = pos_lit(aux_of_body.setdefault(rest, table.n_original + n_aux))
                if len(aux_of_body) > n_aux:  # d is above every literal of the set
                    lits = sorted(rest, key=abs)
                    for l in lits:
                        add((l, -d))
                    add((*map(neg, lits), d))
            else:
                d = None
            disjuncts.append(d)
        if None not in disjuncts:  # else the disjunction holds
            clause = _clause([-h, *disjuncts], true, false)
            if clause is not None:
                add(clause)
        if not fixed:
            for d in disjuncts:  # h | -C | -d_i, or h | -C for the empty rest
                lits = {h, *map(neg, common)} if d is None else {h, -d, *map(neg, common)}
                if -h not in lits:  # no set holds l and -l, so only h can meet -h
                    add(tuple(sorted(lits, key=abs)))

    for clause in constraints:
        if not touched.isdisjoint(clause):
            clause = _clause(clause, true, false)
            if clause is None:
                continue
        add(clause)
    return list(clauses), table, frozenset(true)


def copy_operation(
    program: Program, info: LoopInfo, table: VarTable, fixed: frozenset[int]
) -> list[tuple[int, ...]]:
    """Copy clauses: v' -> L[v] per loop atom v, and per rule whose head x is
    a loop atom the clause  -a1' | ... | -ak' | -L[b1] | ... | -L[bm] |
    L[c1] | ... | x'  (copies replace exactly the positive loop-atom body
    occurrences), each read without the literals `fixed` makes false, and
    none that a literal of `fixed` satisfies or that holds l and -l."""
    clauses: dict[tuple[int, ...], None] = {}  # an ordered set
    add = clauses.setdefault
    lit = table.lit_of_atom
    false = set(map(neg, fixed))
    # a positive body atom reads as its copy when it is a loop atom
    body_lit = list(lit)
    for v in sorted(info.loop_atoms):
        table.copy_of_atom[v] = len(table)
        body_lit[v] = c = pos_lit(table.copy_of_atom[v])
        if lit[v] not in fixed:  # a copy is above every original
            add((-c,) if lit[v] in false else (lit[v], -c))
    get = body_lit.__getitem__
    for r in program.rules:
        if r.head in info.loop_atoms:
            lits = [*map(neg, map(get, r.pos_body)), *map(lit.__getitem__, r.neg_body), get(r.head)]
            clause = _clause(lits, fixed, false)
            if clause is not None:
                add(clause)
    return list(clauses)


@dataclass
class PairFormula:
    """Two lists of canonical clauses: each clause a tuple of literals
    strictly increasing by variable, and no clause twice in one list. The
    encoders add clauses to a dict used as an ordered set, building most of
    them in order and sorting the others."""

    completion: list[tuple[int, ...]]  # never mentions a copy variable
    copy_clauses: list[tuple[int, ...]]  # every clause mentions at least one copy variable
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
    completion, table, fixed = clark_completion(program)
    copies = copy_operation(program, info, table, fixed)
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
    clauses = pair.completion + pair.copy_clauses
    out.append("p cnf %d %d" % (pair.n_vars, len(clauses)))
    for c in clauses:
        out.append(" ".join([*map(str, c), "0"]))
    return "\n".join(out) + "\n"
