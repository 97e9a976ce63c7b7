"""Checks past the brute-force oracle's 24-atom cap: closed-form counts,
agreement between the count, cache-off and enumeration modes, and the
structural invariants of decompose that the exact cache key relies on."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspcount import Engine, ExactCount, build_pair, count, enumerate_up_to, parse_program
from aspcount.program import Constraint, Program, Rule, SymbolTable

ENUM_LIMIT = 16

# Engine() raises the process-wide recursion limit for its recursive search,
# which Hypothesis reports after every example that builds a larger engine
pytestmark = pytest.mark.filterwarnings("ignore:The recursion limit will not be reset")


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
    n = count(pair)[0]
    assert count(pair, use_cache=False)[0] == n
    result = enumerate_up_to(pair, ENUM_LIMIT)
    if isinstance(result, ExactCount):
        assert result.count == n
    else:
        assert n > ENUM_LIMIT


def _path_text(n: int) -> str:
    lines = [f"x{i} :- not y{i}.\ny{i} :- not x{i}." for i in range(n)]
    lines += [f":- x{i}, x{i + 1}." for i in range(n - 1)]
    return "\n".join(lines) + "\n"


def _fibonacci(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 60))
def test_path_counts_are_fibonacci(n):
    assert count(build_pair(parse_program(_path_text(n))))[0] == _fibonacci(n + 2)


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


@settings(max_examples=40, deadline=None)
@given(block_programs(), st.lists(st.integers(0, 99), max_size=12), st.booleans())
def test_decompose_partitions_parent(program, picks, phase):
    pair = build_pair(program)
    eng = Engine(pair)
    if not eng._apply_initial():
        return
    for v in picks:
        if v >= eng.n_vars or eng.is_copy[v] or eng.values[v] != -1:
            continue
        mark = len(eng.trail)
        eng.assign(v + 1 if phase else -(v + 1), decision=True)
        if eng.propagate() is not None:
            eng.backtrack(mark)
        phase = not phase

    everything = range(len(eng.canon))
    comps = eng.decompose(range(eng.n_vars), everything)
    _check_partition(eng, range(eng.n_vars), everything, comps)

    # one level down: branch inside the largest component and split it
    parent = max(comps, key=lambda c: len(c.clause_idxs), default=None)
    if parent is None or not parent.clause_idxs:
        return
    v = eng.decide(parent)
    if v is None:
        return
    eng.assign(v + 1, decision=True)
    if eng.propagate() is None:
        subs = eng.decompose(parent.vars, parent.clause_idxs)
        _check_partition(eng, parent.vars, parent.clause_idxs, subs)
