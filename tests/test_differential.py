"""Checks past the brute-force oracle's 24-atom cap: closed-form counts,
agreement between the count, cache-off and enumeration modes and between
a count and its split on one variable, propagation against a naive
unit-resolution closure, the invariants of decompose that the exact
cache key and decide rely on, the key's exactness itself, and that no
copy is ever a free singleton. Below the cap, the encoder's preprocessing
(dropped underivable rules, one variable per class of equivalent literals)
and counts under random branching are checked against the oracle."""

import math
import random
from collections import OrderedDict
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aspcount import (
    Engine,
    brute_force_count,
    build_pair,
    gen_hamiltonian,
    gen_reachability,
    is_answer_set,
    parse_program,
    random_graph,
)
from aspcount import engine as engine_module
from aspcount.analysis import derivable_atoms
from aspcount.benchgen import Graph
from aspcount.encode import PairFormula, VarTable
from aspcount.program import Constraint, Program, Rule, SymbolTable

from helpers import (
    bits,
    branching_program,
    graph_reach_count,
    listed_ids,
    lowest,
    path_text,
    random_program,
    root_component,
    with_unit,
)

ENUM_LIMIT = 16


@st.composite
def block_programs(draw):
    """A random non-tight program of 30-60 atoms cut into blocks of 3-6
    consecutive atoms. Each block has at most one even negation pair (a
    choice) with perhaps a constraint that rules out one of its sides, a
    positive cycle, and random rules whose heads are the block's other atoms, whose
    positive bodies may reach into the other block of its pair (blocks 2j
    and 2j+1), and whose negative bodies name only choice atoms. Three of
    the choices with no such constraint, where there are three, may not
    all take the same side, so that two components with equal variables
    and different listed clauses meet the cache. So each surviving set of
    choices has exactly one answer set, components stay small enough to
    count with the cache off, and the search still decomposes, hits the
    cache and meets loop atoms."""
    n = draw(st.integers(30, 60))
    bounds = [0]
    while n - bounds[-1] >= 6:
        bounds.append(bounds[-1] + draw(st.integers(3, 6)))
    bounds[-1] = n  # the last block takes the remainder (at most 8 atoms)
    blocks = [list(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]

    def atom_set(pool, max_size):
        return frozenset(draw(st.sets(st.sampled_from(pool), max_size=max_size)))

    rules, constraints, choices = [], [], []
    for b, atoms in enumerate(blocks):
        partner = blocks[b ^ 1] if b ^ 1 < len(blocks) else atoms
        choice = []
        if len(atoms) >= 4 and draw(st.integers(0, 3)) > 0:
            choice = draw(st.lists(st.sampled_from(atoms), min_size=2, max_size=2, unique=True))
            x, y = choice
            rules += [Rule(x, frozenset(), frozenset({y})), Rule(y, frozenset(), frozenset({x}))]
        derived = [a for a in atoms if a not in choice]
        cycle = draw(st.lists(st.sampled_from(derived), min_size=2, max_size=3, unique=True))
        others = [a for a in atoms if a not in cycle]
        for i, x in enumerate(cycle):
            guard = atom_set(others, 1) if others and b else frozenset()
            rules.append(Rule(x, guard | {cycle[(i + 1) % len(cycle)]}, frozenset()))
        if not b:
            # block 0's cycle is unguarded and supported from outside it, so
            # it stays derivable and build_pair keeps it: the pair is non-tight
            rules.append(Rule(cycle[0], frozenset(), frozenset(choice[:1])))
        for _ in range(draw(st.integers(1, len(atoms)))):
            head = draw(st.sampled_from(derived))
            if draw(st.integers(0, 9)) == 0:
                rules.append(Rule(head, frozenset(), frozenset()))
                continue
            pos = atom_set(draw(st.sampled_from((atoms, partner))), 2)
            neg = atom_set(choice, 1) if choice else frozenset()
            rules.append(Rule(head, pos, neg))
        if choice and draw(st.booleans()):
            # spares the branch where the choice atom is false
            pos = atom_set(atoms, 1) | {choice[0]}
            constraints.append(Constraint(frozenset(pos), frozenset()))
        elif choice:
            choices.append(choice)
    if len(choices) >= 3:
        # three choices that do not all take the same side: `:- x, y, z.`
        # and `:- x', y', z'.` (x' is not x) hold no unit before two of them
        # are set, and each side of whichever is set first leaves the other
        # two one component over one of the two clauses: equal variables,
        # different listed clauses
        picked = draw(st.lists(st.sampled_from(range(len(choices))), min_size=3, max_size=3, unique=True))
        for side in (0, 1):
            constraints.append(Constraint(frozenset(choices[k][side] for k in picked), frozenset()))

    table = SymbolTable()
    for a in range(n):
        table.intern(f"a{a}")
    return Program(table, rules, constraints)


@settings(max_examples=40, deadline=None)
@given(block_programs())
def test_count_agrees_with_cache_off_and_enumeration(program):
    pair = build_pair(program)
    assert pair.copy_vars  # non-tight
    n = Engine(pair).count()[0]
    assert Engine(pair, use_cache=False).count()[0] == n
    found = Engine(pair).enumerate_up_to(ENUM_LIMIT)[0]
    assert found == (n if n <= ENUM_LIMIT else None)


@settings(max_examples=40, deadline=None)
@given(block_programs(), st.integers(0, 10**6))
def test_count_is_sum_of_split_on_one_variable(program, pick):
    pair = build_pair(program)
    x = pick % pair.vars.first_copy + 1  # a non-copy variable, as a literal
    for use_cache in (True, False):
        n = Engine(pair, use_cache=use_cache).count()[0]
        split = [Engine(with_unit(pair, l), use_cache=use_cache).count()[0] for l in (x, -x)]
        assert sum(split) == n


def _residual(eng, variables):
    """The residual formula over a component's variables under the current
    assignment: every unsatisfied clause holding one of them, as its
    literals over them."""
    value, n = eng.lit_value, eng.n_vars
    owned = set(variables)
    return frozenset(
        tuple(l for l in cl if abs(l) - 1 in owned)
        for cl in eng.canon
        if any(abs(l) - 1 in owned for l in cl) and not any(value[n + l] == 1 for l in cl)
    )


@contextmanager
def _recording_cache(on_lookup=lambda comp: None):
    """Patches in the cache class that `reset` builds each run's cache
    from, one that records every component looked up and every component
    stored; yields the two lists, and calls `on_lookup` at each lookup."""
    looked, stored = [], []

    class RecordingCache(OrderedDict):
        def get(self, comp, default=None):
            looked.append(comp)
            on_lookup(comp)
            return super().get(comp, default)

        def __setitem__(self, comp, val):
            stored.append(comp)
            super().__setitem__(comp, val)

    engine_module.OrderedDict = RecordingCache
    try:
        yield looked, stored
    finally:
        engine_module.OrderedDict = OrderedDict


@settings(max_examples=40, deadline=None)
@given(block_programs())
def test_cache_key_determines_residual(program):
    # the component is the cache key
    pair = build_pair(program)
    eng = Engine(pair)
    residual_of = {}

    def check(comp):
        residual = _residual(eng, bits(comp[0]))
        assert residual_of.setdefault(comp, residual) == residual

    with _recording_cache(check) as (looked, _):
        n, stats = eng.count()
    # every lookup was recorded, and a search that branches looks up first
    assert len(looked) == stats.cache_lookups
    assert looked or stats.decisions == 0
    assert Engine(pair, use_cache=False).count()[0] == n


def _assert_cache_holds_only_searched(pair):
    """Counts `pair`, checking that no component looked up or stored is a
    free singleton, which is valued before the cache, or has a copy as its
    first variable, which count mode never meets."""
    with _recording_cache() as (looked, stored):
        stats = Engine(pair).count()[1]
    assert (len(looked), len(stored)) == (stats.cache_lookups, stats.cache_entries)
    for vs, _ in looked + stored:
        assert vs.bit_count() > 1 and lowest(vs) < pair.vars.first_copy
    return stats


@pytest.mark.parametrize(
    "make",
    [
        lambda: parse_program(path_text(40)),
        lambda: gen_reachability(random_graph(12, 28, seed=1), 0, 11),
        lambda: gen_hamiltonian(random_graph(9, 36, seed=7)),
    ],
    ids=["path", "reach", "ham"],
)
def test_cache_holds_only_searched_components(make):
    assert _assert_cache_holds_only_searched(build_pair(make())).cache_hits > 0


@settings(max_examples=40, deadline=None)
@given(block_programs())
def test_cache_holds_only_searched_components_on_block_programs(program):
    _assert_cache_holds_only_searched(build_pair(program))


@contextmanager
def _recording_components():
    """Patches `Engine.decompose` to record every component it returns;
    yields the list."""
    comps = []
    real = Engine.decompose

    def decompose(self, comp, mark):
        found = real(self, comp, mark)
        comps.extend(found)
        return found

    Engine.decompose = decompose
    try:
        yield comps
    finally:
        Engine.decompose = real


def _assert_no_copy_singleton(pair):
    """Counts `pair` with the cache on and off, checking that every free
    singleton `decompose` returns is a non-copy, which `_search` values at 2
    with no copy test (see the engine docstring); returns how many it saw."""
    with _recording_components() as comps:
        n = Engine(pair).count()[0]
        assert Engine(pair, use_cache=False).count()[0] == n
    singles = [lowest(vs) for vs, _ in comps if vs.bit_count() == 1]
    assert all(v < pair.vars.first_copy for v in singles)
    return len(singles)


def test_no_copy_is_a_free_singleton():
    # the three pinned instances and 1 000 random programs; ham meets no
    # free singleton and the random programs few, so this asserts only that
    # some were checked
    rng = random.Random(29)
    programs = [
        parse_program(path_text(40)),
        gen_reachability(random_graph(12, 28, seed=1), 0, 11),
        gen_hamiltonian(random_graph(9, 36, seed=1)),
    ]
    programs += [random_program(rng, max_atoms=10) for _ in range(1000)]
    assert sum(_assert_no_copy_singleton(build_pair(p)) for p in programs) > 0


@settings(max_examples=40, deadline=None)
@given(block_programs())
def test_no_copy_is_a_free_singleton_on_block_programs(program):
    _assert_no_copy_singleton(build_pair(program))


def test_unfounded_check_agrees_with_the_oracle():
    """Count mode's unfounded-set check on 1 500 small programs, one in three
    from `branching_program` and the others from `random_program`, and on
    the pinned reach and ham instances: `count()` with the cache on and off
    and `hybrid(3)` agree with the oracle, or with each other past it, and
    `decompose` never returns a component whose first variable is a copy,
    for which `_search` has no case (the engine docstring proves it cannot
    arise)."""
    rng = random.Random(27)
    programs = [
        branching_program(rng, max_atoms=10) if k % 3 == 0 else random_program(rng, max_atoms=10)
        for k in range(1500)
    ]
    programs += [
        gen_reachability(random_graph(12, 28, seed=1), 0, 11),
        gen_hamiltonian(random_graph(9, 36, seed=1)),
    ]
    derived = copy_first = 0
    for program in programs:
        pair = build_pair(program)
        with _recording_components() as comps:
            n, stats = Engine(pair).count()
            assert Engine(pair, use_cache=False).count()[0] == n
            assert Engine(pair).hybrid(3)[0] == n
        if program.n_atoms <= 12:
            assert n == brute_force_count(program)
        copy_first += sum(lowest(vs) >= pair.vars.first_copy for vs, _ in comps)
        derived += stats.unfounded > 0
    assert copy_first == 0
    assert derived >= 50  # the check derived literals, not only conflicts


@st.composite
def merge_programs(draw):
    """A program of 2-9 atoms made mostly of the shapes the encoder
    simplifies: one-literal rules, the head itself allowed (merged into one
    variable per class; build_pair drops a self-loop), negation pairs, a
    negation pair x, y beside a rule whose body holds both (the map makes it
    contradictory, as `x, y`, or one literal, as `x, not y`), positive
    cycles with or without outside support, the contradictory cycles
    `a :- not a.` and `a :- not b. b :- a.`, plus facts, conjunctions of two
    atoms, rules of up to four literals and constraints. Atoms that head no rule, or only rules over
    such atoms, are underivable."""
    n = draw(st.integers(2, 9))
    atom = st.integers(0, n - 1)
    rules, constraints = [], []

    def rule(head, pos=(), neg=()):
        rules.append(Rule(head, frozenset(pos), frozenset(neg)))

    for _ in range(draw(st.integers(1, n + 3))):
        kind = draw(st.sampled_from("oooooppnnccaalllxf"))
        a, b = draw(atom), draw(atom)
        if kind == "o":
            rule(a, *([[b], []] if draw(st.booleans()) else [[], [b]]))
        elif kind == "p":
            rule(a, neg=[b])
            rule(b, neg=[a])
        elif kind == "n":
            x, y = xy = draw(st.lists(atom, min_size=2, max_size=2, unique=True))
            rule(x, neg=[y])
            rule(y, neg=[x])
            pos, neg = [], []
            for z in xy:
                (pos if draw(st.booleans()) else neg).append(z)
            rule(draw(atom), pos, neg)
        elif kind == "c":
            cycle = draw(st.lists(atom, min_size=1, max_size=3, unique=True))
            for i, x in enumerate(cycle):
                rule(x, pos=[cycle[(i + 1) % len(cycle)]])
        elif kind == "a":
            rule(a, pos=[b, draw(atom)])
        elif kind == "l":
            rule(a, draw(st.sets(atom, max_size=2)), draw(st.sets(atom, max_size=2)))
        elif kind == "x" and a == b:
            rule(a, neg=[a])
        elif kind == "x":
            rule(a, neg=[b])
            rule(b, pos=[a])
        else:
            rule(a)
    for _ in range(draw(st.integers(0, 2))):
        pos, neg = draw(st.sets(atom, max_size=2)), draw(st.sets(atom, max_size=2))
        if pos or neg:
            constraints.append(Constraint(frozenset(pos), frozenset(neg)))
    table = SymbolTable()
    for a in range(n):
        table.intern(f"a{a}")
    return Program(table, rules, constraints)


@settings(max_examples=300, deadline=None)
@given(merge_programs())
def test_preprocessing_keeps_every_answer_set(program):
    expected = brute_force_count(program)
    pair = build_pair(program)
    # an auxiliary names a set of body literals read through the atom map,
    # and the map can make a set one literal or contradictory
    for body in pair.vars.aux_of_body:
        assert len(body) >= 2 and not any(-l in body for l in body)
    assert Engine(pair).count()[0] == expected
    assert Engine(pair, use_cache=False).count()[0] == expected
    assert Engine(pair).enumerate_up_to(1 << program.n_atoms)[0] == expected
    derivable = derivable_atoms(program)
    for bits in range(1 << program.n_atoms):
        m = frozenset(a for a in range(program.n_atoms) if bits >> a & 1)
        assert m <= derivable or not is_answer_set(program, m)


def test_branching_programs_agree_with_the_oracle_in_every_mode():
    """Programs that make the search branch, decompose and meet the cache,
    unlike most `random_program` draws, which count 0 or 1 by propagation
    alone."""
    rng = random.Random(25)
    draws = 150
    deciding = non_tight = hits = 0
    for _ in range(draws):
        program = branching_program(rng)
        expected = brute_force_count(program)
        pair = build_pair(program)
        n, stats = Engine(pair).count()
        assert n == expected
        assert Engine(pair, use_cache=False).count()[0] == expected
        assert Engine(pair).enumerate_up_to(1 << program.n_atoms)[0] == expected
        assert Engine(pair).hybrid(3)[0] == expected
        deciding += stats.decisions > 0
        non_tight += bool(pair.copy_vars)
        hits += stats.cache_hits
    assert deciding >= 0.8 * draws
    assert non_tight >= draws / 3
    assert hits > 0


@settings(max_examples=100, deadline=None)
@given(st.one_of(block_programs(), merge_programs()), st.integers(0, 2**32))
def test_leaf_is_an_answer_iff_every_copy_is_assigned(program, seed):
    """The lemma enumeration values its leaves by (engine module docstring),
    on random descents that give every non-copy variable a value: at each
    conflict-free fixpoint a copy is false exactly when its atom's literal
    is, and at the leaf every copy clause has a true literal exactly when no
    copy is unassigned."""
    pair = build_pair(program)
    eng = Engine(pair)
    n = eng.n_vars
    copy_clauses = eng.canon[len(pair.completion) :]
    rng = random.Random(seed)
    for _ in range(8):
        eng.reset()
        if not eng._apply_initial():
            return
        value = eng.lit_value
        for v in range(eng.first_copy):
            if value[n + v + 1] != -1:
                continue
            mark = len(eng.trail)
            lit = rng.choice((v + 1, -(v + 1)))
            for l in (lit, -lit):
                eng.assign(l)
                if eng.propagate() is None:
                    break
                eng.backtrack(mark)
            else:
                break  # both values conflict: no leaf below
            for a, c in pair.vars.copy_of_atom.items():
                atom_false = value[n + pair.vars.lit_of_atom[a]] == 0
                assert (value[n + c + 1] == 0) == atom_false
        else:
            # the reference: the copy clauses, read literal by literal
            clauses_hold = all(any(value[n + l] == 1 for l in c) for c in copy_clauses)
            assert clauses_hold == all(value[n + c + 1] != -1 for c in pair.copy_vars)


@pytest.mark.parametrize("n", [1, 30, 500])
def test_path_pair_has_one_variable_per_negation_pair(n):
    pair = build_pair(parse_program(path_text(n)))
    assert pair.n_vars == n
    assert Engine(pair).count()[0] == _fibonacci(n + 2)


def test_unreachable_target_counts_zero_without_deciding():
    # a cyclic graph on nodes 0-19 with no edge into node 20: r(20) is not
    # derivable, so its unit -r(20) meets the constraint's unit r(20)
    g = random_graph(20, 60, seed=2020)
    program = gen_reachability(Graph(21, g.edges), 0, 20)
    assert program.n_atoms == 59
    n, stats = Engine(build_pair(program)).count()
    assert n == 0
    assert stats.decisions == 0


@st.composite
def clause_sets(draw):
    """(variable count, clauses, assumption literals). The clauses mix
    units, binaries, tautological binaries (x or not x, which propagate
    must take though build_pair makes none) and clauses of 3-6 literals,
    whose scans pass several false slots before a true or a second
    unassigned one, drawn from a seeded rng so that assumptions often end
    in a conflict."""
    n = draw(st.integers(3, 8))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def lit():
        v = rng.randint(1, n)
        return v if rng.random() < 0.5 else -v

    clauses = {}  # an ordered set
    for kind in rng.choices("ubtl", weights=(1, 8, 1, 12), k=rng.randint(n, 4 * n)):
        if kind == "t":
            v = rng.randint(1, n)
            clauses[-v, v] = None
        else:
            size = {"u": 1, "b": 2, "l": rng.randint(3, 6)}[kind]
            lits = {lit() for _ in range(size)}
            clauses[tuple(sorted(lits, key=lambda l: (abs(l), l > 0)))] = None
    return n, list(clauses), [lit() for _ in range(rng.randint(1, n))]


def _closure(clauses, true):
    """Naive unit resolution from the set of true literals `true`: the
    closure, or None when some clause ends up with every literal false."""
    true = set(true)
    grew = True
    while grew:
        grew = False
        for c in clauses:
            if any(l in true for l in c):
                continue
            open_lits = [l for l in c if -l not in true]
            if not open_lits:
                return None
            if len(open_lits) == 1:
                true.add(open_lits[0])
                grew = True
    return true


@settings(max_examples=200, deadline=None)
@given(clause_sets())
def test_propagate_matches_naive_closure(formula):
    n, clauses, assumptions = formula
    eng = Engine(PairFormula(clauses, [], VarTable(list(range(1, n + 1)))))
    value = eng.lit_value

    def true_lits():
        lits = {l for l in range(-n, n + 1) if l and value[n + l] == 1}
        for v in range(1, n + 1):  # both slots of each variable agree
            assert value[n + v] == -1 == value[n - v] or value[n + v] + value[n - v] == 1
        assert lits == set(eng.trail)
        return lits

    closure = _closure(clauses, ())
    assert eng._apply_initial() == (closure is not None)
    if closure is None:
        return
    assert true_lits() == closure
    saved = []  # (mark, lit_value at mark) per assumption kept
    for lit in assumptions:
        mark = len(eng.trail)
        before = list(value)
        if not eng.assign(lit):
            assert -lit in true_lits()
            continue
        closure = _closure(clauses, true_lits())
        conflict = eng.propagate()
        assert (conflict is None) == (closure is not None)
        if conflict is None:
            assert true_lits() == closure
            saved.append((mark, before))
        else:
            # the literal found false where some clause, now all false, needed it
            assert 0 < abs(conflict) <= n and value[n + conflict] == 0
            assert any(
                conflict in c and all(value[n + l] == 0 for l in c) for c in eng.canon
            )
            eng.backtrack(mark)
            assert value == before and len(eng.trail) == mark
    for mark, before in reversed(saved):
        eng.backtrack(mark)
        assert value == before and len(eng.trail) == mark


def _fibonacci(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 60))
def test_path_counts_are_fibonacci(n):
    assert Engine(build_pair(parse_program(path_text(n)))).count()[0] == _fibonacci(n + 2)


def _full_clauses(eng, c):
    """A component's clause ids with its binary clauses made explicit: its
    listed ids plus every binary clause over two of its variables,
    ascending."""
    owned = set(bits(c[0]))
    ids = listed_ids(eng)
    listed = [ids[k] for k in bits(c[1])]  # three or more literals
    binary = [
        ci
        for ci, cl in enumerate(eng.canon)
        if len(cl) == 2 and {abs(l) - 1 for l in cl} <= owned
    ]
    return sorted([*listed, *binary])


def _check_partition(eng, variables, clause_idxs, comps):
    value, n = eng.lit_value, eng.n_vars
    unassigned = [v for v in variables if value[n + v + 1] == -1]
    unsatisfied = [
        ci for ci in clause_idxs if not any(value[n + l] == 1 for l in eng.canon[ci])
    ]
    full = [_full_clauses(eng, c) for c in comps]
    assert sorted(v for vs, _ in comps for v in bits(vs)) == unassigned
    assert sorted(ci for cids in full for ci in cids) == unsatisfied
    assert [lowest(vs) for vs, _ in comps] == sorted(lowest(vs) for vs, _ in comps)
    for c, cids in zip(comps, full):
        # each clause bit names a listed clause
        assert 0 <= c[1] < 1 << len(listed_ids(eng))
        # the key's soundness: every literal of a component clause is over
        # the component's variables or assigned false
        owned = set(bits(c[0]))
        for ci in cids:
            for l in eng.canon[ci]:
                assert abs(l) - 1 in owned or value[n + l] == 0
        # and the component is connected through its clauses
        reached = {lowest(c[0])}
        grew = True
        while grew:
            grew = False
            for ci in cids:
                vs = {abs(l) - 1 for l in eng.canon[ci]} & owned
                if vs & reached and not vs <= reached:
                    reached |= vs
                    grew = True
        assert reached == owned


def _engine_at_fixpoint(program, picks, phase):
    """An engine at the conflict-free fixpoint reached by setting the
    non-copy variables among `picks` in alternating phases (skipping any
    that conflict), or None when level 0 already conflicts."""
    eng = Engine(build_pair(program))
    if not eng._apply_initial():
        return None
    for v in picks:
        if v >= eng.first_copy or eng.lit_value[eng.n_vars + v + 1] != -1:
            continue
        mark = len(eng.trail)
        eng.assign(v + 1 if phase else -(v + 1))
        if eng.propagate() is not None:
            eng.backtrack(mark)
        phase = not phase
    return eng


def _splits(eng):
    """(variables, full clause ids, decompose's components) for the whole
    formula, then one level down: after branching on decide's pick in the
    component with the most clauses."""
    comps = eng.decompose(root_component(eng), 0)
    yield range(eng.n_vars), range(len(eng.canon)), comps
    parent = max(
        (c for c in comps if lowest(c[0]) < eng.first_copy),  # decide needs a non-copy
        key=lambda c: len(_full_clauses(eng, c)),
        default=None,
    )
    if parent is None or not _full_clauses(eng, parent):
        return
    v = eng.decide(parent)
    mark = len(eng.trail)
    eng.assign(v + 1)
    if eng.propagate() is None:
        yield bits(parent[0]), _full_clauses(eng, parent), eng.decompose(parent, mark)


@settings(max_examples=40, deadline=None)
@given(block_programs(), st.lists(st.integers(0, 99), max_size=12), st.booleans())
def test_decompose_partitions_parent(program, picks, phase):
    eng = _engine_at_fixpoint(program, picks, phase)
    if eng is None:
        return
    for variables, clause_idxs, comps in _splits(eng):
        _check_partition(eng, variables, clause_idxs, comps)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.booleans())
@example(3353, False)  # the root settles it: no decompose, and the count is 0
def test_trail_masks_match_the_assignment(seed, use_cache):
    """At every `decompose` of a count, the branch's masks that it derives
    from its parent's and the trail, read off as the union of the components
    it returns, equal those recomputed from `lit_value`: the parent's
    variables now unassigned, and its listed clauses now unsatisfied."""
    program = branching_program(random.Random(seed))
    eng = Engine(build_pair(program), use_cache=use_cache)
    ids = listed_ids(eng)
    n = eng.n_vars
    real = Engine.decompose
    calls = []

    def decompose(self, comp, mark):
        found = real(self, comp, mark)
        value = self.lit_value  # each count resets it
        want_vars = sum(1 << v for v in bits(comp[0]) if value[n + v + 1] == -1)
        want_clauses = sum(
            1 << k for k in bits(comp[1]) if not any(value[n + l] == 1 for l in eng.canon[ids[k]])
        )
        got_vars = got_clauses = 0
        for vs, cs in found:
            assert not (got_vars & vs or got_clauses & cs)  # disjoint
            got_vars |= vs
            got_clauses |= cs
        assert (got_vars, got_clauses) == (want_vars, want_clauses)
        calls.append(mark)
        return found

    Engine.decompose = decompose
    try:
        got = eng.count()[0]
    finally:
        Engine.decompose = real
    assert got == brute_force_count(program)
    if calls:
        assert calls[0] == 0  # the root, then one per open branch
    else:  # no root decompose: propagation at the root settled the count
        assert got == 0


def test_path_3000_counts_past_64_bit_masks():
    # masks of 3 000 variables; the decision count pins the search itself
    n, stats = Engine(build_pair(parse_program(path_text(3000)))).count()
    assert n == _fibonacci(3002)
    assert stats.decisions == 10_012


@settings(max_examples=40, deadline=None)
@given(block_programs(), st.lists(st.integers(0, 99), max_size=12), st.booleans())
def test_decide_picks_highest_recount(program, picks, phase):
    eng = _engine_at_fixpoint(program, picks, phase)
    if eng is None:
        return
    for _, _, comps in _splits(eng):
        # decide is handed only components with a free non-copy variable
        ids = listed_ids(eng)
        for c in (c for c in comps if lowest(c[0]) < eng.first_copy):
            # literals of each free non-copy variable in the listed clauses
            free = [v for v in bits(c[0]) if v < eng.first_copy]
            recount = dict.fromkeys(free, 0)
            for k in bits(c[1]):
                for l in eng.canon[ids[k]]:
                    if abs(l) - 1 in recount:
                        recount[abs(l) - 1] += 1
            v = eng.decide(c)
            assert v in free and recount[v] == max(recount[u] for u in free)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_complete_digraph_has_factorial_hamiltonian_cycles(n):
    g = Graph(n, frozenset((u, v) for u in range(n) for v in range(n) if u != v))
    assert Engine(build_pair(gen_hamiltonian(g))).count()[0] == math.factorial(n - 1)


def _reach_38():
    """(pair, count) of 20 reach instances of 38 atoms on 14-node digraphs."""
    rng = random.Random(1438)
    for _ in range(20):
        g = random_graph(14, rng.randint(26, 36), seed=rng.randrange(10**6))
        program = gen_reachability(g, 0, 13)
        assert program.n_atoms == 38
        yield build_pair(program), graph_reach_count(g, 0, 13)


def test_reach_matches_graph_count_on_38_atoms():
    for pair, want in _reach_38():
        assert Engine(pair).count()[0] == want


def test_any_branching_choice_counts_exactly(monkeypatch):
    # decide replaced by a seeded random pick among the component's free
    # non-copy variables: the count must not depend on which variable the
    # search branches on, not only on how decide breaks its ties
    pick = random.Random(5)
    monkeypatch.setattr(
        Engine, "decide", lambda self, comp: pick.choice(
            [v for v in bits(comp[0]) if v < self.first_copy])
    )
    rng = random.Random(2718)
    for _ in range(600):
        p = random_program(rng, max_atoms=10)
        pair = build_pair(p)
        want = brute_force_count(p)
        for use_cache in (True, False):
            assert Engine(pair, use_cache=use_cache).count()[0] == want
    for pair, want in _reach_38():
        assert Engine(pair).count()[0] == want
