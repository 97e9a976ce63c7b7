"""Core data model: ground normal rules, integrity constraints, atom table."""

from __future__ import annotations

from dataclasses import dataclass, field

AtomId = int


class SymbolTable:
    """Bidirectional map between atom symbols and dense ids (0..n-1, intern order)."""

    __slots__ = ("_ids", "_names")

    def __init__(self):
        self._ids: dict[str, int] = {}
        self._names: list[str] = []

    def intern(self, symbol: str) -> AtomId:
        got = self._ids.get(symbol)
        if got is not None:
            return got
        if not symbol or symbol != symbol.strip():
            raise ValueError("atom symbol must be a nonempty token, got %r" % (symbol,))
        idx = len(self._names)
        self._ids[symbol] = idx
        self._names.append(symbol)
        return idx

    def name(self, atom: AtomId) -> str:
        return self._names[atom]

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._ids

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self):
        return iter(self._names)


@dataclass(frozen=True)
class Rule:
    head: AtomId
    pos_body: frozenset[AtomId]
    neg_body: frozenset[AtomId]

    @property
    def body_unsatisfiable(self) -> bool:
        # pos and neg share an atom: the body can never hold
        return bool(self.pos_body & self.neg_body)


@dataclass(frozen=True)
class Constraint:
    """Headless statement ':- pos, not neg.'; forbids pos true with neg false."""

    pos: frozenset[AtomId]
    neg: frozenset[AtomId]


@dataclass
class Program:
    """A ground normal program: immutable after construction, shareable."""

    atoms: SymbolTable
    rules: list[Rule] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def symbol(self, atom: AtomId) -> str:
        return self.atoms.name(atom)


def format_rule(program: Program, rule: Rule) -> str:
    body = _format_body(program, rule.pos_body, rule.neg_body)
    head = program.symbol(rule.head)
    return f"{head}." if not body else f"{head} :- {body}."


def format_constraint(program: Program, constraint: Constraint) -> str:
    return f":- {_format_body(program, constraint.pos, constraint.neg)}."


def _format_body(program: Program, pos, neg) -> str:
    parts = [program.symbol(a) for a in sorted(pos)]
    parts += ["not " + program.symbol(a) for a in sorted(neg)]
    return ", ".join(parts)


def validate(program: Program) -> list[str]:
    """Non-mutating lint pass; returns human-readable warnings.

    Flags rules whose body can never hold, and atoms that never appear in a
    rule head (the completion forces them false).
    """
    warnings = []
    heads = {r.head for r in program.rules}
    referenced: set[AtomId] = set()
    for r in program.rules:
        referenced.add(r.head)
        referenced |= r.pos_body | r.neg_body
        if r.body_unsatisfiable:
            warnings.append("body-unsatisfiable: " + format_rule(program, r))
    for c in program.constraints:
        referenced |= c.pos | c.neg
    for atom in sorted(referenced - heads):
        warnings.append(
            "never-in-head: %s (completion forces it false)" % program.symbol(atom)
        )
    return warnings
