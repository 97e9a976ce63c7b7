"""Checks past the brute-force oracle's 24-atom cap: closed-form counts,
agreement between the count, cache-off and enumeration modes, and the
invariants of decompose that the exact cache key and decide rely on."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspcount import (
    Engine,
    ExactCount,
    build_pair,
    gen_hamiltonian,
    gen_reachability,
    parse_program,
    random_graph,
)
from aspcount.benchgen import Graph
from aspcount.program import Constraint, Program, Rule, SymbolTable

from helpers import graph_reach_count, path_text

ENUM_LIMIT = 16


@st.composite
def block_programs(draw):
    """A random non-tight program of 30-60 atoms cut into blocks of 3-6
    consecutive atoms. Each block has at most one even negation pair (a
    choice) with perhaps a constraint that rules out one of its sides, a
    positive cycle, and random rules whose heads are the block's other atoms, whose
    positive bodies may reach into the other block of its pair (blocks 2j
    and 2j+1), and whose negative bodies name only choice atoms. So each
    surviving set of choices has exactly one answer set, components stay
    small enough to count with the cache off, and the search still
    decomposes, hits the cache and meets loop atoms."""
    n = draw(st.integers(30, 60))
    bounds = [0]
    while n - bounds[-1] >= 6:
        bounds.append(bounds[-1] + draw(st.integers(3, 6)))
    bounds[-1] = n  # the last block takes the remainder (at most 8 atoms)
    blocks = [list(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]

    def atom_set(pool, max_size):
        return frozenset(draw(st.sets(st.sampled_from(pool), max_size=max_size)))

    rules, constraints = [], []
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
            guard = atom_set(others, 1) if others else frozenset()
            rules.append(Rule(x, guard | {cycle[(i + 1) % len(cycle)]}, frozenset()))
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
    result = Engine(pair).enumerate_up_to(ENUM_LIMIT)
    if isinstance(result, ExactCount):
        assert result.count == n
    else:
        assert n > ENUM_LIMIT


def _fibonacci(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 60))
def test_path_counts_are_fibonacci(n):
    assert Engine(build_pair(parse_program(path_text(n)))).count()[0] == _fibonacci(n + 2)


def _check_partition(eng, variables, clause_idxs, comps):
    values = eng.values
    unassigned = [v for v in variables if values[v] == -1]
    unsatisfied = [
        ci
        for ci in clause_idxs
        if not any(values[abs(l) - 1] == (l > 0) for l in eng.canon[ci])
    ]
    assert sorted(v for c in comps for v in c.vars) == unassigned
    assert sorted(ci for c in comps for ci in c.clause_idxs) == unsatisfied
    assert [c.vars[0] for c in comps] == sorted(c.vars[0] for c in comps)
    for c in comps:
        assert list(c.vars) == sorted(c.vars)
        assert list(c.clause_idxs) == sorted(c.clause_idxs)
        # the key's soundness: every literal of a component clause is over
        # the component's variables or assigned false
        owned = set(c.vars)
        for ci in c.clause_idxs:
            for l in eng.canon[ci]:
                assert abs(l) - 1 in owned or values[abs(l) - 1] == (l < 0)
        # and the component is connected through its clauses
        reached = {c.vars[0]}
        grew = True
        while grew:
            grew = False
            for ci in c.clause_idxs:
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
        if v >= eng.first_copy or eng.values[v] != -1:
            continue
        mark = len(eng.trail)
        eng.assign(v + 1 if phase else -(v + 1))
        if eng.propagate() is not None:
            eng.backtrack(mark)
        phase = not phase
    return eng


def _splits(eng):
    """(variables, clause ids, decompose's components) for the whole
    formula, then one level down: after branching on decide's pick in the
    component with the most clauses."""
    everything = range(len(eng.canon))
    comps = eng.decompose(range(eng.n_vars), everything)
    yield range(eng.n_vars), everything, comps
    parent = max(comps, key=lambda c: len(c.clause_idxs), default=None)
    if parent is None or not parent.clause_idxs:
        return
    v = eng.decide(parent)
    if v is None:
        return
    eng.assign(v + 1)
    if eng.propagate() is None:
        yield parent.vars, parent.clause_idxs, eng.decompose(parent.vars, parent.clause_idxs)


@settings(max_examples=40, deadline=None)
@given(block_programs(), st.lists(st.integers(0, 99), max_size=12), st.booleans())
def test_decompose_partitions_parent(program, picks, phase):
    eng = _engine_at_fixpoint(program, picks, phase)
    if eng is None:
        return
    for variables, clause_idxs, comps in _splits(eng):
        _check_partition(eng, variables, clause_idxs, comps)


@settings(max_examples=40, deadline=None)
@given(block_programs(), st.lists(st.integers(0, 99), max_size=12), st.booleans())
def test_decompose_scores_match_recount(program, picks, phase):
    eng = _engine_at_fixpoint(program, picks, phase)
    if eng is None:
        return
    for _, _, comps in _splits(eng):
        for c in comps:
            recount = {v: 0 for v in c.vars}
            for ci in c.clause_idxs:
                for l in eng.canon[ci]:
                    if abs(l) - 1 in recount:
                        recount[abs(l) - 1] += 1
            assert {v: eng._score[v] for v in c.vars} == recount
            # and decide picks a non-copy variable of the highest score
            free = [v for v in c.vars if v < eng.first_copy]
            v = eng.decide(c)
            if free:
                assert v in free and recount[v] == max(recount[u] for u in free)
            else:
                assert v is None


@pytest.mark.parametrize("n", [4, 5, 6])
def test_complete_digraph_has_factorial_hamiltonian_cycles(n):
    g = Graph(n, frozenset((u, v) for u in range(n) for v in range(n) if u != v))
    assert Engine(build_pair(gen_hamiltonian(g))).count()[0] == math.factorial(n - 1)


def test_reach_matches_graph_count_on_38_atoms():
    rng = random.Random(1438)
    for k in range(20):
        g = random_graph(14, rng.randint(26, 36), seed=rng.randrange(10**6))
        program = gen_reachability(g, 0, 13)
        assert program.n_atoms == 38
        pair = build_pair(program)
        want = graph_reach_count(g, 0, 13)
        assert Engine(pair).count()[0] == want
        assert Engine(pair, seed=k).count()[0] == want
