import pytest

from aspcount import brute_force_count, parse_program, validate
from aspcount.program import Constraint, Program, Rule, SymbolTable

from helpers import EXAMPLE1, id_of


def test_intern_idempotent():
    t = SymbolTable()
    assert t.intern("a") == t.intern("a")


def test_intern_contiguous():
    t = SymbolTable()
    assert t.intern("a") == 0
    assert t.intern("b") == 1
    assert len(t) == 2
    assert t.name(0) == "a" and id_of(t, "b") == 1


def test_intern_opaque_ground_terms():
    t = SymbolTable()
    v = t.intern("edge(1,2)")
    assert t.name(v) == "edge(1,2)"
    assert len(t) == 1


def test_intern_rejects_empty_or_padded():
    t = SymbolTable()
    with pytest.raises(ValueError):
        t.intern("")
    with pytest.raises(ValueError):
        t.intern(" a")


def test_validate_contradictory_body():
    p = parse_program("a :- b, not b.")
    warnings = validate(p)
    assert len([w for w in warnings if w.startswith("body-unsatisfiable")]) == 1


def test_validate_example1_clean():
    assert validate(parse_program(EXAMPLE1)) == []


def test_validate_body_only_atom():
    p = parse_program(EXAMPLE1 + ":- f.\n")
    warnings = validate(p)
    assert [w for w in warnings if w.startswith("never-in-head")] == [
        "never-in-head: f (completion forces it false)"
    ]


def test_validate_empty_program():
    assert validate(parse_program("")) == []


def test_validate_duplicate_rule():
    t = SymbolTable()
    a, b = t.intern("a"), t.intern("b")
    r = Rule(a, frozenset({b}), frozenset())
    p = Program(t, [r, r], [])
    assert any(w.startswith("duplicate-rule") for w in validate(p))


def test_duplicate_rules_do_not_change_count():
    t = SymbolTable()
    a, b = t.intern("a"), t.intern("b")
    rules = [
        Rule(a, frozenset(), frozenset({b})),
        Rule(b, frozenset(), frozenset({a})),
    ]
    base = Program(t, list(rules), [])
    doubled = Program(t, rules + rules, [])
    assert brute_force_count(base) == brute_force_count(doubled) == 2
