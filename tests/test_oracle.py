import random

import pytest

from aspcount import (
    ResourceLimitError,
    brute_force_count,
    build_pair,
    gl_reduct,
    is_answer_set,
    least_model,
    parse_program,
)
from aspcount.encode import Cnf
from aspcount.program import Constraint, Program, Rule, SymbolTable

from helpers import EXAMPLE1, id_of, random_program, residual


def _ids(p, *symbols):
    return tuple(id_of(p.atoms, s) for s in symbols)


def test_gl_reduct_example1():
    p = parse_program(EXAMPLE1)
    a, b, c, d = _ids(p, "a", "b", "c", "d")
    reduct = set(gl_reduct(p, {a, c, d}))
    assert reduct == {
        (a, frozenset()),
        (c, frozenset({a, b})),
        (c, frozenset({d})),
        (d, frozenset({a})),
        (d, frozenset({b, c})),
    }


def test_gl_reduct_empty_interpretation_keeps_all_rules():
    p = parse_program(EXAMPLE1)
    assert len(gl_reduct(p, frozenset())) == len(p.rules)


def test_gl_reduct_positive_program_unchanged():
    p = parse_program("a :- b.\nb :- c.\nc.")
    for m in (frozenset(), frozenset({0}), frozenset({0, 1, 2})):
        assert len(gl_reduct(p, m)) == 3


def test_least_model_example1_reduct():
    p = parse_program(EXAMPLE1)
    a, c, d = _ids(p, "a", "c", "d")
    assert least_model(gl_reduct(p, {a, c, d})) == {a, c, d}


def test_least_model_no_facts():
    assert least_model([(0, frozenset({1}))]) == frozenset()


def test_least_model_chain():
    p = parse_program("a.\nb :- a.")
    assert least_model(gl_reduct(p, frozenset())) == {0, 1}


def test_is_answer_set_example1():
    p = parse_program(EXAMPLE1)
    a, b, c, d = _ids(p, "a", "b", "c", "d")
    assert is_answer_set(p, {b})
    assert is_answer_set(p, {a, c, d})
    assert not is_answer_set(p, {b, c, d})


def test_constraint_rejects_candidate():
    p = parse_program("a :- not b.\nb :- not a.\n:- a.")
    assert not is_answer_set(p, {0})
    assert is_answer_set(p, {1})
    assert brute_force_count(p) == 1


def test_brute_force_basics():
    assert brute_force_count(parse_program(EXAMPLE1)) == 2
    assert brute_force_count(parse_program("")) == 1
    assert brute_force_count(parse_program("a :- not a.")) == 0


def test_brute_force_cap():
    table = SymbolTable()
    for i in range(25):
        table.intern(f"a{i}")
    with pytest.raises(ResourceLimitError):
        brute_force_count(Program(table, [], []))


def test_residual_example1_assignments():
    p = parse_program(EXAMPLE1)
    pair = build_pair(p)
    a, b, c, d, e = range(5)
    t1 = {b: True, a: False, c: False, d: False, e: False}
    t3 = {b: True, c: True, d: True, a: False, e: False}
    assert residual(pair.copy_clauses, t1).clauses == []
    left = residual(pair.copy_clauses, t3).clauses
    assert left
    copy_vars = pair.copy_vars
    assert all(all(abs(l) - 1 in copy_vars for l in cl) for cl in left)


def test_residual_no_assignment_no_units():
    cnf = Cnf()
    cnf.add((1, 2))
    cnf.add((-2, 3))
    out = residual(cnf, {})
    assert sorted(out.clauses) == sorted(cnf.clauses)


def test_residual_conflict_is_empty_clause():
    cnf = Cnf()
    cnf.add((1,))
    cnf.add((-1,))
    assert residual(cnf, {}).clauses == [()]


def test_residual_propagates_derived_units():
    cnf = Cnf()
    cnf.add((1,))
    cnf.add((-1, 2))
    cnf.add((-2, 3, 4))
    assert residual(cnf, {}).clauses == [(3, 4)]


def test_least_model_monotone_in_facts():
    rng = random.Random(23)
    for _ in range(60):
        p = random_program(rng)
        reduct = gl_reduct(p, frozenset())
        base = least_model(reduct)
        extra = rng.randrange(p.n_atoms)
        assert base <= least_model(reduct + [(extra, frozenset())])


def test_brute_force_invariant_under_renaming():
    rng = random.Random(29)
    for _ in range(25):
        p = random_program(rng, max_atoms=6)
        perm = list(range(p.n_atoms))
        rng.shuffle(perm)
        table = SymbolTable()
        order = sorted(range(p.n_atoms), key=lambda a: perm[a])
        new_of_old = {}
        for old in order:
            new_of_old[old] = table.intern(f"renamed{perm[old]}")
        rules = [
            Rule(
                new_of_old[r.head],
                frozenset(new_of_old[x] for x in r.pos_body),
                frozenset(new_of_old[x] for x in r.neg_body),
            )
            for r in p.rules
        ]
        constraints = [
            Constraint(
                frozenset(new_of_old[x] for x in c.pos),
                frozenset(new_of_old[x] for x in c.neg),
            )
            for c in p.constraints
        ]
        assert brute_force_count(p) == brute_force_count(Program(table, rules, constraints))
