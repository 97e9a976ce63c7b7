import hashlib
import itertools
import random

import pytest

from aspcount import (
    Engine,
    brute_force_count,
    build_dep_graph,
    build_pair,
    compute_loop_atoms,
    emit_dimacs,
    gen_choice_chain,
    gen_hamiltonian,
    gen_reachability,
    is_answer_set,
    parse_program,
    random_graph,
)
from aspcount.encode import pos_lit

from helpers import (
    EXAMPLE1,
    copy_clauses_discharge,
    derivable_part,
    extends_to_completion_model,
    id_of,
    path_text,
    random_program,
    satisfies_completion,
    var_of,
)


def _clause(*lits):
    return tuple(sorted(lits, key=lambda l: (abs(l), l > 0)))


def _lits(program, pair, names):
    return [pair.vars.lit_of_atom[id_of(program.atoms, s)] for s in names]


def test_single_rule_atom_clauses_match_truth_table():
    p = parse_program(EXAMPLE1)
    pair = build_pair(p)
    a, b, e = _lits(p, pair, "abe")
    assert b == -a  # a :- not b. b :- not a. is one class
    involved = [c for c in pair.completion if any(abs(l) == abs(e) for l in c)]
    # e :- not a, not b. reads as the set {-a, a}, which is false: e has no
    # usable body, so its one clause is the unit -e
    expected = {_clause(-e)}
    assert set(involved) == expected and len(involved) == 1
    # independent check: those clauses define e <-> (not a and not b)
    for va, ve in itertools.product([False, True], repeat=2):
        val = {abs(a): va, abs(e): ve}

        def holds(l):
            return val[abs(l)] == (l > 0)

        sat = all(any(holds(l) for l in clause) for clause in expected)
        assert sat == (holds(e) == ((not holds(a)) and (not holds(b))))


def test_atom_without_rules_is_forced_false():
    pair = build_pair(parse_program("a :- b."))
    b = 1
    assert _clause(-pos_lit(b)) in pair.completion.clauses


def test_fact_yields_unit_clause():
    pair = build_pair(parse_program("a."))
    assert pair.completion.clauses == [(pos_lit(0),)]


def test_copy_operation_example1_exact():
    p = parse_program(EXAMPLE1)
    pair = build_pair(p)
    a, b, c, d = _lits(p, pair, "abcd")
    cc, cd = (pos_lit(pair.vars.copy_of_atom[id_of(p.atoms, s)]) for s in "cd")
    expected = {
        _clause(-cc, c),
        _clause(-cd, d),
        _clause(-a, -b, cc),  # -a | a | c': a copy clause keeps its tautology
        _clause(-cd, cc),
        _clause(-a, cd),
        _clause(-b, -cc, cd),
    }
    assert set(pair.copy_clauses.clauses) == expected
    assert len(pair.copy_clauses) == 6


def test_example1_bodies_the_map_contradicts_drop_out():
    # b is -a, so c :- a, b. reads as {a, -a} and e :- not a, not b. as
    # {-a, a}: both are false, with no auxiliary and no clause; the copy
    # clauses, built from the rules as written, are still the paper's six
    p = parse_program(EXAMPLE1)
    pair = build_pair(p)
    a, b, c, d, e = _lits(p, pair, "abcde")
    assert pair.n_vars == 7  # 4 classes, 1 auxiliary, 2 copies
    assert pair.vars.aux_of_body == {frozenset({b, c}): 4}
    x = pos_lit(4)
    assert set(pair.completion.clauses) == {
        _clause(-c, d),
        _clause(-d, c),
        _clause(-x, b),
        _clause(-x, c),
        _clause(x, -b, -c),
        _clause(-d, a, x),
        _clause(-a, d),
        _clause(-x, d),
        _clause(-e),
    }
    assert len(pair.completion) == 9
    cc = pos_lit(pair.vars.copy_of_atom[id_of(p.atoms, "c")])
    assert len(pair.copy_clauses) == 6 and _clause(-a, -b, cc) in pair.copy_clauses


def _choices(names):
    return "".join(f"{x} :- not n{x}.\nn{x} :- not {x}.\n" for x in names)


def test_fact_makes_no_auxiliary():
    p = parse_program("a.\na :- b, c.\na :- d, e.\n" + _choices("bcde"))
    pair = build_pair(p)
    assert not pair.vars.aux_of_body
    assert pair.completion.clauses == [_clause(*_lits(p, pair, "a"))]
    assert pair.n_vars == 5
    assert Engine(pair).count()[0] == brute_force_count(p) == 16


def test_equal_literal_bodies_share_one_auxiliary():
    # q's body x, not ny is p's body x, y through the map, as y is -ny
    text = "p :- x, y.\np :- z.\nq :- x, not ny.\nq :- not nz.\n" + _choices("xyz")
    p = parse_program(text)
    pair = build_pair(p)
    x, y, ny = _lits(p, pair, ["x", "y", "ny"])
    assert ny == -y
    assert list(pair.vars.aux_of_body) == [frozenset({x, y})]
    assert pair.n_vars == 6  # p, q, x, y, z and the one auxiliary
    assert Engine(pair).count()[0] == brute_force_count(p) == 8


def test_tight_program_has_no_copy_clauses():
    pair = build_pair(parse_program("a :- not b.\nb :- not a."))
    assert len(pair.copy_clauses) == 0
    assert not pair.copy_vars


def test_underivable_self_loop_is_a_unit():
    # a :- a. alone can never fire: a is outside the derivable atoms
    pair = build_pair(parse_program("a :- a."))
    assert pair.completion.clauses == [(-pos_lit(0),)]
    assert not pair.copy_vars and len(pair.copy_clauses) == 0


def test_self_supported_atom_gets_no_copy_variable():
    # a :- a. fires only once a :- not b. has derived a, so build_pair drops
    # it: a is no loop atom, and its one body a :- not b. merges it with -b
    p = parse_program("a :- a.\na :- not b.\nb :- not c.\nc :- not b.")
    pair = build_pair(p)
    a, b = _lits(p, pair, "ab")
    assert a == -b
    assert not pair.copy_vars and len(pair.copy_clauses) == 0
    assert not any(len(c) == 2 and c[0] == -c[1] for c in pair.completion)
    for use_cache in (True, False):
        assert Engine(pair, use_cache=use_cache).count()[0] == brute_force_count(p) == 2


def test_contradictory_body_does_not_block_a_merge():
    # a :- b, not b. is false everywhere, so build_pair drops it, and a's
    # only body left, c, merges a with c
    p = parse_program("a :- c.\na :- b, not b.\n" + _choices("bc"))
    pair = build_pair(p)
    a, c = _lits(p, pair, "ac")
    assert a == c
    assert pair.n_vars == 2 and not pair.vars.aux_of_body
    for use_cache in (True, False):
        assert Engine(pair, use_cache=use_cache).count()[0] == brute_force_count(p) == 4


def test_build_pair_example1_invariants():
    pair = build_pair(parse_program(EXAMPLE1))
    assert len(pair.copy_vars) == 2
    assert len(pair.copy_clauses) == 6
    copy_vars = pair.copy_vars
    for clause in pair.completion:
        assert not any(abs(l) - 1 in copy_vars for l in clause)
    for clause in pair.copy_clauses:
        assert any(abs(l) - 1 in copy_vars for l in clause)
    t = pair.vars
    assert t.n_original == 4  # a and b are one class
    assert t.first_copy - t.n_original == 1  # auxiliaries: d's body b, c only
    assert pair.n_vars - t.first_copy == 2  # copies


def test_variable_blocks_on_random_programs():
    # originals, auxiliaries and copies are contiguous blocks in that order;
    # the originals are one variable per class of the atom map, numbered by
    # each class's smallest atom, whose literal is positive
    rng = random.Random(23)
    programs = [random_program(rng) for _ in range(80)]
    programs.append(parse_program("a :- b, not c.\na :- not b.\nb :- not c.\nc :- not b."))
    programs.append(parse_program(""))
    seen_aux = seen_copy = seen_tight = 0
    for p in programs:
        pair = build_pair(p)
        t = pair.vars
        first, n = t.first_copy, pair.n_vars
        lits = t.lit_of_atom
        assert len(lits) == p.n_atoms
        firsts = [a for a in range(p.n_atoms) if abs(lits[a]) not in map(abs, lits[:a])]
        assert [lits[a] for a in firsts] == list(range(1, t.n_original + 1))
        assert sorted(t.aux_of_body.values()) == list(range(t.n_original, first))
        assert sorted(t.copy_of_atom.values()) == list(range(first, n))
        assert pair.copy_vars == range(first, n)

        assert not any(var_of(l) >= first for c in pair.completion for l in c)
        assert all(any(var_of(l) >= first for l in c) for c in pair.copy_clauses)
        # no binary clause is over one variable, (-v, v)
        clauses = pair.completion.clauses + pair.copy_clauses.clauses
        assert not any(len(c) == 2 and c[0] == -c[1] for c in clauses)

        blocks = {"orig": (0, t.n_original), "aux": (t.n_original, first), "copy": (first, n)}
        expected = {k: list(range(lo + 1, hi + 1)) for k, (lo, hi) in blocks.items() if lo < hi}
        if lits:
            expected["atoms"] = lits
        lines = [l.split() for l in emit_dimacs(pair).splitlines() if l.startswith("c ")]
        assert {w[1]: [int(x) for x in w[2:]] for w in lines} == expected
        assert [w[1] for w in lines] == list(expected)  # in block order

        tight = not compute_loop_atoms(build_dep_graph(derivable_part(p))).loop_atoms
        assert (not pair.copy_vars) == tight
        seen_aux += first > t.n_original
        seen_copy += n > first
        seen_tight += tight
    assert seen_aux and seen_copy and seen_tight


def test_empty_program_pair():
    pair = build_pair(parse_program(""))
    assert len(pair.completion) == 0 and len(pair.copy_clauses) == 0
    assert emit_dimacs(pair) == "p cnf 0 0\n"


def test_choice_chain_is_pure_completion():
    pair = build_pair(gen_choice_chain(20))
    assert len(pair.copy_clauses) == 0
    assert len(pair.completion) == 0
    assert pair.n_vars == 20  # one variable per negation pair
    assert Engine(pair).count()[0] == 1 << 20


def test_emit_dimacs_example1():
    pair = build_pair(parse_program(EXAMPLE1))
    text = emit_dimacs(pair)
    lines = text.strip().split("\n")
    assert lines[0] == "c orig 1 2 3 4"
    assert lines[1] == "c aux 5"
    assert lines[2] == "c copy 6 7"
    assert lines[3] == "c atoms 1 -1 2 3 4"  # a, b, c, d, e
    header = lines[4].split()
    assert header[:2] == ["p", "cnf"]
    assert int(header[2]) == 7  # 4 originals + 1 aux + 2 copies
    n_clauses = int(header[3])
    body = lines[5:]
    assert len(body) == n_clauses == len(pair.completion) + len(pair.copy_clauses)
    assert all(line.endswith(" 0") for line in body)


def test_emit_dimacs_tight_has_no_copy_ids():
    text = emit_dimacs(build_pair(parse_program("a :- not b.\nb :- not a.")))
    assert "c copy" not in text


def test_aux_variables_preserve_model_count():
    rng = random.Random(5)
    checked = 0
    while checked < 30:
        p = random_program(rng, max_atoms=5, max_rules=8)
        pair = build_pair(p)
        if pair.n_vars - len(pair.copy_vars) > 14:
            continue
        n_f_vars = pair.n_vars - len(pair.copy_vars)
        full = 0
        for bits in range(1 << n_f_vars):
            values = {v: bool(bits >> v & 1) for v in range(n_f_vars)}
            if all(
                any(values[abs(l) - 1] == (l > 0) for l in clause)
                for clause in pair.completion
            ):
                full += 1
        # the completion of the rules build_pair keeps; the atom map is one
        # to one on its models
        kept = derivable_part(p)
        plain = sum(
            satisfies_completion(kept, frozenset(m))
            for k in range(p.n_atoms + 1)
            for m in itertools.combinations(range(p.n_atoms), k)
        )
        assert full == plain
        checked += 1


def test_answer_set_characterization_on_random_programs():
    rng = random.Random(11)
    for _ in range(50):
        p = random_program(rng, max_atoms=6)
        pair = build_pair(p)
        for bits in range(1 << p.n_atoms):
            m = frozenset(a for a in range(p.n_atoms) if bits >> a & 1)
            lhs = extends_to_completion_model(pair, m) and copy_clauses_discharge(pair, m)
            assert lhs == is_answer_set(p, m)


# sha1 of emit_dimacs per family: clause order and literal order included. A
# change to how clauses are built that must not change the formula keeps
# these; one that changes it on purpose updates them here.
DIMACS_PINS = [
    ("example1", "89bd9ba0ba5c7dce6c9a14383bf22bd93a2d770c"),
    ("path", "a991447a67f1a2923a2b0074f60a41feff0821ce"),
    ("reach", "2e6a5568a9e26a0ef32e01393476b8c08cc1df45"),
    ("ham", "8a0cfddfa191e458563665b044b44d0c73ad1693"),
]


@pytest.mark.parametrize("family, digest", DIMACS_PINS)
def test_dimacs_is_pinned(family, digest):
    program = {
        "example1": lambda: parse_program(EXAMPLE1),
        "path": lambda: parse_program(path_text(40)),
        "reach": lambda: gen_reachability(random_graph(12, 28, seed=1), 0, 11),
        "ham": lambda: gen_hamiltonian(random_graph(9, 36, seed=1)),
    }[family]()
    text = emit_dimacs(build_pair(program))
    assert hashlib.sha1(text.encode()).hexdigest() == digest
