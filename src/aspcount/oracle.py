"""Independent ground-truth implementations used to check the engine.

Everything here is deliberately naive and shares no machinery with the
search engine: reduct + least-model answer-set checking and exhaustive
counting.
"""

from __future__ import annotations

from typing import Iterable

from .errors import ResourceLimitError
from .program import AtomId, Program

DEFAULT_ATOM_CAP = 24


def gl_reduct(program: Program, m: Iterable[AtomId]) -> list[tuple[AtomId, frozenset[AtomId]]]:
    """Positive program: keep rules whose negative body misses M, drop the
    negative body. Constraints are not part of the reduct (checked separately)."""
    m = frozenset(m)
    return [
        (r.head, r.pos_body)
        for r in program.rules
        if not (r.neg_body & m)
    ]


def least_model(positive_rules: list[tuple[AtomId, frozenset[AtomId]]]) -> frozenset[AtomId]:
    derived: set[AtomId] = set()
    pending = list(positive_rules)
    changed = True
    while changed:
        changed = False
        rest = []
        for head, pos in pending:
            if pos <= derived:
                if head not in derived:
                    derived.add(head)
                    changed = True
            else:
                rest.append((head, pos))
        pending = rest
    return frozenset(derived)


def violates_constraints(program: Program, m: frozenset[AtomId]) -> bool:
    return any(c.pos <= m and not (c.neg & m) for c in program.constraints)


def is_answer_set(program: Program, m: Iterable[AtomId]) -> bool:
    m = frozenset(m)
    if violates_constraints(program, m):
        return False
    return least_model(gl_reduct(program, m)) == m


def brute_force_count(program: Program, cap: int = DEFAULT_ATOM_CAP) -> int:
    """Exhaustively test all 2^n interpretations."""
    n = program.n_atoms
    if n > cap:
        raise ResourceLimitError(f"{n} atoms exceeds the oracle cap of {cap}")
    count = 0
    for bits in range(1 << n):
        m = frozenset(a for a in range(n) if bits >> a & 1)
        if is_answer_set(program, m):
            count += 1
    return count

