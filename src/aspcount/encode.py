"""Pair representation of a program: completion CNF plus copy-implication CNF.

Literal convention: variable v (0-based) appears as the signed integer
+(v+1) / -(v+1), DIMACS style. Variables come in three classes:

  ORIGINAL  one per atom; var id == atom id
  BODY_AUX  one per distinct rule body with >= 2 literals whose head atom
            has >= 2 defining rules (full biconditional, so the model count
            of the completion over all variables equals the count over atoms)
  COPY      one fresh variable per loop atom

The completion CNF never mentions COPY variables; every copy clause mentions
at least one. Copy clauses are built literally from the rules, including
both-polarity (tautological) clauses from self-loop rules: under the residual
semantics used for the vanishing test those clauses are what blocks a loop
atom from justifying itself, so they must not be simplified away.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .analysis import LoopInfo, build_dep_graph, compute_loop_atoms
from .program import AtomId, Program


def pos_lit(v: int) -> int:
    return v + 1


def neg_lit(v: int) -> int:
    return -(v + 1)


def var_of(lit: int) -> int:
    return abs(lit) - 1


class VarKind(Enum):
    ORIGINAL = "orig"
    BODY_AUX = "aux"
    COPY = "copy"


@dataclass(frozen=True)
class VarInfo:
    index: int
    kind: VarKind
    origin: int  # atom id for ORIGINAL/COPY, defining rule index for BODY_AUX


class VarTable:
    def __init__(self, n_atoms: int):
        self.infos = [VarInfo(v, VarKind.ORIGINAL, v) for v in range(n_atoms)]
        self.n_original = n_atoms
        self._aux_by_body: dict[tuple[frozenset, frozenset], int] = {}
        self.copy_of_atom: dict[AtomId, int] = {}

    def __len__(self):
        return len(self.infos)

    def aux_for_body(self, pos: frozenset, neg: frozenset, rule_idx: int) -> int:
        key = (pos, neg)
        got = self._aux_by_body.get(key)
        if got is not None:
            return got
        v = len(self.infos)
        self.infos.append(VarInfo(v, VarKind.BODY_AUX, rule_idx))
        self._aux_by_body[key] = v
        return v

    def new_copy(self, atom: AtomId) -> int:
        v = len(self.infos)
        self.infos.append(VarInfo(v, VarKind.COPY, atom))
        self.copy_of_atom[atom] = v
        return v

    def copy_vars(self) -> frozenset[int]:
        return frozenset(self.copy_of_atom.values())


class Cnf:
    """Clause list in canonical form: literals sorted by (variable, sign),
    duplicate literals merged, exact duplicate clauses dropped."""

    def __init__(self, clauses=()):
        self.clauses: list[tuple[int, ...]] = list(clauses)
        self._seen = set(self.clauses)

    def add(self, lits, keep_tautology=False) -> bool:
        clause = tuple(sorted(set(lits), key=lambda l: (abs(l), l > 0)))
        if not keep_tautology:
            seen_vars = set()
            for l in clause:
                if -l in seen_vars:
                    return False
                seen_vars.add(l)
        if clause in self._seen:
            return False
        self._seen.add(clause)
        self.clauses.append(clause)
        return True

    def __len__(self):
        return len(self.clauses)

    def __iter__(self):
        return iter(self.clauses)


def _body_literals(pos, neg) -> list[int]:
    return [pos_lit(a) for a in sorted(pos)] + [neg_lit(a) for a in sorted(neg)]


def clark_completion(program: Program) -> tuple[Cnf, VarTable]:
    """Completion clauses plus constraint clauses.

    Per atom a with usable defining bodies B1..Bk (contradictory bodies are
    false disjuncts and drop out; duplicate bodies for the same head merge):
    no bodies -> unit -a; a fact among them -> unit a; k == 1 -> direct
    biconditional; k >= 2 -> one BODY_AUX b_i per multi-literal body with
    b_i <-> B_i, then a <-> (d_1 | ... | d_k) over the disjunct literals.
    Each integrity constraint contributes its one clause.
    """
    cnf = Cnf()
    table = VarTable(program.n_atoms)

    by_head: dict[int, list[tuple[frozenset, frozenset, int]]] = {}
    for idx, r in enumerate(program.rules):
        if r.body_unsatisfiable:
            continue
        entries = by_head.setdefault(r.head, [])
        if all((r.pos_body, r.neg_body) != (p, n) for p, n, _ in entries):
            entries.append((r.pos_body, r.neg_body, idx))

    for atom in range(program.n_atoms):
        bodies = by_head.get(atom, [])
        head_lit = pos_lit(atom)
        if not bodies:
            cnf.add([-head_lit])
            continue
        is_fact = any(not p and not n for p, n, _ in bodies)
        if len(bodies) == 1 and not is_fact:
            lits = _body_literals(*bodies[0][:2])
            for l in lits:
                cnf.add([-head_lit, l])
            cnf.add([-l for l in lits] + [head_lit])
            continue
        disjuncts = []
        for p, n, rule_idx in bodies:
            lits = _body_literals(p, n)
            if not lits:
                continue  # the fact; handled below
            if len(lits) == 1:
                disjuncts.append(lits[0])
            else:
                b = pos_lit(table.aux_for_body(p, n, rule_idx))
                for l in lits:
                    cnf.add([-b, l])
                cnf.add([b] + [-l for l in lits])
                disjuncts.append(b)
        if is_fact:
            cnf.add([head_lit])
            continue
        cnf.add([-head_lit] + disjuncts)
        for d in disjuncts:
            cnf.add([-d, head_lit])

    for c in program.constraints:
        cnf.add([neg_lit(a) for a in c.pos] + [pos_lit(a) for a in c.neg])
    return cnf, table


def copy_operation(program: Program, info: LoopInfo, table: VarTable) -> Cnf:
    """Copy clauses: v' -> v per loop atom, and per rule whose head x is a
    loop atom the clause  -a1' | ... | -ak' | -b1 | ... | -bm | c1 | ... | x'
    (copies replace exactly the positive loop-atom body occurrences)."""
    cnf = Cnf()
    if not info.loop_atoms:
        return cnf
    for v in sorted(info.loop_atoms):
        table.new_copy(v)
    for v in sorted(info.loop_atoms):
        cnf.add([-pos_lit(table.copy_of_atom[v]), pos_lit(v)])
    for r in program.rules:
        if r.head not in info.loop_atoms:
            continue
        lits = []
        for b in sorted(r.pos_body):
            if b in info.loop_atoms:
                lits.append(-pos_lit(table.copy_of_atom[b]))
            else:
                lits.append(neg_lit(b))
        lits += [pos_lit(c) for c in sorted(r.neg_body)]
        lits.append(pos_lit(table.copy_of_atom[r.head]))
        cnf.add(lits, keep_tautology=True)
    return cnf


@dataclass
class PairFormula:
    completion: Cnf  # never mentions a copy variable
    copy_clauses: Cnf  # every clause mentions at least one copy variable
    vars: VarTable

    @property
    def copy_vars(self) -> frozenset[int]:
        return self.vars.copy_vars()

    @property
    def n_original(self) -> int:
        return self.vars.n_original

    @property
    def n_vars(self) -> int:
        return len(self.vars)


def build_pair(program: Program) -> PairFormula:
    info = compute_loop_atoms(build_dep_graph(program))
    completion, table = clark_completion(program)
    copies = copy_operation(program, info, table)
    return PairFormula(completion, copies, table)


def emit_dimacs(pair: PairFormula) -> str:
    """Annotated DIMACS text of completion & copy clauses conjoined.

    Comment lines list 1-based variable ids per class (`c orig`, `c aux`,
    `c copy`); classes with no variables are omitted.
    """
    groups: dict[VarKind, list[int]] = {k: [] for k in VarKind}
    for info in pair.vars.infos:
        groups[info.kind].append(info.index + 1)
    out = []
    for kind in (VarKind.ORIGINAL, VarKind.BODY_AUX, VarKind.COPY):
        if groups[kind]:
            out.append("c %s %s" % (kind.value, " ".join(map(str, groups[kind]))))
    clauses = pair.completion.clauses + pair.copy_clauses.clauses
    out.append("p cnf %d %d" % (pair.n_vars, len(clauses)))
    for c in clauses:
        out.append(" ".join(map(str, c)) + " 0")
    return "\n".join(out) + "\n"

