import dataclasses
import random
import sys
import time

import pytest

from aspcount import (
    Engine,
    ResourceLimitError,
    brute_force_count,
    build_pair,
    gen_choice_chain,
    gen_hamiltonian,
    gen_reachability,
    parse_program,
    random_graph,
)
from aspcount.encode import Cnf, pos_lit

from helpers import EXAMPLE1, disjoint_union, id_of, path_text, random_program, residual


def _pair(text):
    return build_pair(parse_program(text))


# -- propagation ------------------------------------------------------------


def test_propagate_example1_after_b():
    p = parse_program(EXAMPLE1)
    pair = build_pair(p)
    eng = Engine(pair)
    a, b, c, d, e = pair.vars.lit_of_atom
    assert eng.assign(b)
    assert eng.propagate() is None
    n = eng.n_vars
    assert eng.lit_value[n + a] == 0
    # e :- not a, not b. reads as {-a, a} and drops out: e is only in its
    # unit -e, which _apply_initial sets and propagate does not
    assert (-e,) in pair.completion.clauses
    assert eng.lit_value[n + e] == -1
    assert eng.lit_value[n + c] == -1
    assert eng.lit_value[n + d] == -1


def test_count_rejects_assumptions_outside_the_formula():
    pair = _pair("a :- not b.\nb :- not a.")
    a, b = pair.vars.lit_of_atom
    eng = Engine(pair)
    assert eng.count([a])[0] == eng.count([-b])[0] == 1
    for lit in (0, eng.n_vars + 1, -eng.n_vars - 1):
        with pytest.raises(ValueError):
            eng.count([lit])


def test_propagate_detects_false_unit():
    pair = _pair("a :- not b.\nb :- not a.")
    a, b = pair.vars.lit_of_atom
    eng = Engine(pair)
    assert eng.assign(a)
    assert eng.propagate() is None
    # b is now false; asserting it true contradicts
    assert not eng.assign(b)


def test_full_assignment_leaves_copy_component():
    p = parse_program(EXAMPLE1)
    pair = build_pair(p)
    eng = Engine(pair)
    a, b, c, d, e = pair.vars.lit_of_atom
    for lit in (b, c, d, -a, -e):
        assert eng.assign(lit)
    assert eng.propagate() is None
    comps = eng.decompose(range(pair.n_vars))
    copy_comps = [
        comp for comp in comps if all(v in pair.copy_vars for v in comp.vars)
    ]
    assert len(copy_comps) == 1
    assert copy_comps[0].clause_idxs  # the cyclic support survives
    assert eng._search(copy_comps) == 0  # no non-copy variable: a leaf, not an answer


def test_conflict_on_contradictory_units():
    pair = _pair("a :- not a.")
    n, stats = Engine(pair).count()
    assert n == 0
    assert stats.decisions == 0


# -- decide / decompose -------------------------------------------------------


def test_decide_skips_copy_vars():
    p = parse_program(EXAMPLE1)
    pair = build_pair(p)
    eng = Engine(pair)
    comps = eng.decompose(range(pair.n_vars))
    # e's only clause is its unit -e, so it is a singleton beside the rest
    e = pair.vars.lit_of_atom[id_of(p.atoms, "e")]
    assert [comp.vars for comp in comps[1:]] == [(abs(e) - 1,)]
    v = eng.decide(comps[0])
    assert v is not None and v not in pair.copy_vars


def test_decide_none_on_copy_only_component():
    from aspcount.engine import Component

    p = parse_program(EXAMPLE1)
    pair = build_pair(p)
    eng = Engine(pair)
    cp = sorted(pair.copy_vars)
    copy_clauses = tuple(range(len(pair.completion), len(eng.canon)))
    assert eng.decide(Component(tuple(cp), copy_clauses)) is None


def test_clause_free_component_doubles_per_free_non_copy():
    from aspcount.engine import Component

    pair = build_pair(parse_program(EXAMPLE1))
    eng = Engine(pair)
    # two non-copy variables (the class of a and b, and c) free with every
    # clause satisfied, so decompose gives each its own singleton; a free
    # copy adds no factor
    free = (0, 1, pair.vars.first_copy)
    assert eng._search([Component((v,), ()) for v in free]) == 4


def test_decide_none_on_empty_component():
    from aspcount.engine import Component

    eng = Engine(_pair("a."))
    assert eng.decide(Component((), ())) is None


def test_decide_starts_path_in_its_middle_third():
    program = parse_program(path_text(301))
    pair = build_pair(program)
    eng = Engine(pair)
    assert eng._apply_initial()
    (root,) = eng.decompose(range(eng.n_vars))
    # the class of x_i and y_i; the lowest-index tie-break alone would pick x_1
    v = eng.decide(root)
    atom = pair.vars.lit_of_atom.index(v + 1)  # x_i, the class's smallest atom
    i = int(program.symbol(atom)[1:])
    assert 100 <= i <= 200


def test_path_is_dissected_at_every_level(monkeypatch):
    # the variables decompose walks sum to about n log n when every split
    # lands near the middle of its chain, and to about n^2 when the chain
    # is peeled from one end (tie = -index gives 2 003 992 here)
    walked = []
    real_decompose = Engine.decompose

    def spy(self, variables):
        walked.append(len(variables))
        return real_decompose(self, variables)

    monkeypatch.setattr(Engine, "decompose", spy)
    n, _ = Engine(_pair(path_text(1000))).count()
    a, b = 0, 1
    for _ in range(1002):
        a, b = b, a + b
    assert n == a  # Fibonacci(1002)
    assert sum(walked) <= 200_000


def test_tie_ranks_are_built_by_counting_only():
    eng = Engine(_pair(path_text(10)))
    assert eng._tie is None
    assert eng.enumerate_up_to(1000)[0] == 144
    assert eng._tie is None
    assert eng.count()[0] == 144
    assert eng._tie is not None


def test_decompose_disjoint_copies():
    p1 = parse_program(EXAMPLE1)
    p2 = parse_program(EXAMPLE1)
    program = parse_program(
        EXAMPLE1 + EXAMPLE1.replace("a", "a2").replace("b", "b2")
        .replace("c", "c2").replace("d", "d2").replace("e", "e2")
    )
    both = build_pair(program)
    eng = Engine(both)
    assert eng.propagate() is None
    comps = eng.decompose(range(both.n_vars))
    # one component per copy, plus e and e2, whose only clauses are their
    # units -e and -e2, which propagate does not set
    e_vars = [abs(both.vars.lit_of_atom[id_of(program.atoms, s)]) - 1 for s in ("e", "e2")]
    assert len(comps) == 4
    assert sorted(comp.vars for comp in comps if len(comp.vars) == 1) == [(v,) for v in e_vars]
    assert brute_force_count(p1) == brute_force_count(p2) == 2


def test_decompose_all_satisfied_yields_free_singletons():
    pair = _pair("a :- not b.\nb :- not a.")
    eng = Engine(pair)
    assert eng.assign(pos_lit(0))
    assert eng.propagate() is None
    # everything satisfied: no variables left at all here
    assert eng.decompose(range(pair.n_vars)) == []


@pytest.mark.parametrize(
    "text, loop_atoms",
    [
        # a is derivable, and unsupported where b holds
        ("a :- a.\na :- not b.\nb :- not c.\nc :- not b.", ""),
        ("a :- a.\na :- not b.\nb :- not a.", ""),
        # a two-atom loop, a self-loop on b and a's external support
        ("a :- b.\nb :- a.\nb :- b.\na :- not c.\nc :- not a.", "ab"),
    ],
    ids=["derivable", "negation-pair", "two-atom-loop"],
)
def test_self_loop_leaves_no_one_variable_binary(text, loop_atoms):
    # build_pair drops every rule whose head is in its positive body: a
    # self-supported atom gets a copy only from a longer loop, and no clause
    # is a binary x | -x, which no binary neighbour list could imply
    program = parse_program(text)
    pair = build_pair(program)
    expected = brute_force_count(program)
    for use_cache in (True, False):
        assert Engine(pair, use_cache=use_cache).count()[0] == expected
    copies = {program.symbol(a) for a in pair.vars.copy_of_atom}
    assert copies == set(loop_atoms)
    eng = Engine(pair)
    assert not any(len(c) == 2 and c[0] == -c[1] for c in eng.canon)
    assert eng._apply_initial()
    listed = {ci for comp in eng.decompose(range(eng.n_vars)) for ci in comp.clause_idxs}
    assert all(len(eng.canon[ci]) > 2 for ci in listed)


def test_free_variable_factors():
    # v true satisfies both constraint clauses, leaving z1/z2 free
    text = "v :- not w.\nw :- not v.\nz1 :- not y1.\ny1 :- not z1.\n"
    text += "z2 :- not y2.\ny2 :- not z2.\n:- not v, not z1, not z2.\n:- v, not z1, not z2."
    p = parse_program(text)
    assert Engine(build_pair(p)).count()[0] == brute_force_count(p) == 6


# -- counting ------------------------------------------------------------------


def test_count_example1():
    assert Engine(_pair(EXAMPLE1)).count()[0] == 2


def test_count_negation_pair():
    assert Engine(_pair("a :- not b.\nb :- not a.")).count()[0] == 2


def test_count_self_loop():
    assert Engine(_pair("a :- a.")).count()[0] == 1


def test_count_matches_oracle_on_random_suite():
    rng = random.Random(101)
    for _ in range(300):
        p = random_program(rng)
        assert Engine(build_pair(p)).count()[0] == brute_force_count(p)


def test_determinism_identity():
    rng = random.Random(59)
    for _ in range(40):
        p = random_program(rng)
        pair = build_pair(p)
        x = pair.vars.lit_of_atom[rng.randrange(p.n_atoms)]
        total = Engine(pair).count()[0]
        high = Engine(pair).count(assumptions=[x])[0]
        low = Engine(pair).count(assumptions=[-x])[0]
        assert total == high + low


def test_decomposition_identity():
    rng = random.Random(61)
    for _ in range(40):
        p1 = random_program(rng, max_atoms=5)
        p2 = random_program(rng, max_atoms=5)
        joined = disjoint_union(p1, p2)
        product = Engine(build_pair(p1)).count()[0] * Engine(build_pair(p2)).count()[0]
        assert Engine(build_pair(joined)).count()[0] == product


def test_cache_transparency():
    rng = random.Random(67)
    for _ in range(120):
        p = random_program(rng)
        pair = build_pair(p)
        assert Engine(pair).count()[0] == Engine(pair, use_cache=False).count()[0]


def test_cache_hits_on_duplicated_disjoint_gadget():
    gadget = (
        "v{0} :- not w{0}. w{0} :- not v{0}.\n"
        "z{0}a :- not u{0}a. u{0}a :- not z{0}a.\n"
        "z{0}b :- not u{0}b. u{0}b :- not z{0}b.\n"
        ":- not v{0}, not z{0}a, not z{0}b.\n"
        ":- v{0}, not z{0}a, not z{0}b.\n"
    )
    p = parse_program(gadget.format(1) + gadget.format(2))
    n, stats = Engine(build_pair(p)).count()
    assert n == brute_force_count(p) == 36
    assert stats.cache_hits > 0
    assert stats.cache_hits <= stats.cache_lookups


def test_cache_key_tells_apart_components_with_equal_vars():
    # the x/y/z/w component has the same variables whichever way a/b goes,
    # but its clause `:- x, z, a.` survives only while a holds
    p = parse_program(
        "a :- not b.\nb :- not a.\nx :- not y.\ny :- not x.\n"
        "z :- not w.\nw :- not z.\n:- x, z, a.\n:- y, w.\n"
    )
    assert Engine(build_pair(p)).count()[0] == brute_force_count(p) == 5


def test_no_decisions_on_copy_vars(monkeypatch):
    decided = []
    real_decide = Engine.decide

    def spy(self, comp):
        v = real_decide(self, comp)
        decided.append(v)
        return v

    monkeypatch.setattr(Engine, "decide", spy)
    rng = random.Random(71)
    for _ in range(60):
        p = random_program(rng)
        pair = build_pair(p)
        Engine(pair).count()
        assert set(decided).isdisjoint(pair.copy_vars)
        decided.clear()


def test_conjunction_soundness():
    # the conjunction of the two residuals determines each part: equal mixed
    # clause multisets can always be un-mixed into equal completion residuals
    # and equal copy residuals
    rng = random.Random(73)
    checked = 0
    premise_hits = 0
    for trial in range(2000):
        if checked >= 60:
            break
        p = random_program(rng)
        pair = build_pair(p)

        def random_tau():
            picked = [a for a in range(p.n_atoms) if rng.random() < 0.5]
            return {a: rng.random() < 0.5 for a in picked}

        t1 = random_tau()
        if trial % 2:
            t2 = dict(t1)  # nearby assignment: flip or drop one atom
            if t2 and rng.random() < 0.5:
                k = rng.choice(sorted(t2))
                t2[k] = not t2[k]
            elif t2:
                del t2[rng.choice(sorted(t2))]
        else:
            t2 = random_tau()
        parts = {
            (which, i): sorted(residual(cnf, t).clauses)
            for which, cnf in (("f", pair.completion), ("g", pair.copy_clauses))
            for i, t in ((1, t1), (2, t2))
        }
        if any(() in r for r in parts.values()):
            # conflicts are canonicalized to a single empty clause, which
            # says nothing about subformula equality; the engine never
            # compares conflicted residuals either
            continue
        checked += 1
        if sorted(parts[("f", 1)] + parts[("g", 1)]) == sorted(
            parts[("f", 2)] + parts[("g", 2)]
        ):
            premise_hits += 1
            assert parts[("f", 1)] == parts[("f", 2)]
            assert parts[("g", 1)] == parts[("g", 2)]
    assert checked >= 60
    assert premise_hits > 0  # the implication was actually exercised


# -- enumeration & hybrid ------------------------------------------------------


def test_enumerate_example1():
    assert Engine(_pair(EXAMPLE1)).enumerate_up_to(10)[0] == 2


def test_enumerate_chain20_exceeds():
    n, stats = Engine(build_pair(gen_choice_chain(20))).enumerate_up_to(100_000)
    assert n is None
    assert stats.decisions > 100_000


def test_enumerate_unsatisfiable():
    assert Engine(_pair("a :- not a.")).enumerate_up_to(5)[0] == 0


def test_enumerate_matches_count():
    rng = random.Random(79)
    for _ in range(60):
        p = random_program(rng, max_atoms=5)
        pair = build_pair(p)
        assert Engine(pair).enumerate_up_to(1 << 16)[0] == Engine(pair).count()[0]


def test_enumerate_limit_is_inclusive():
    pair = build_pair(gen_choice_chain(3))  # 8 answer sets
    assert Engine(pair).enumerate_up_to(8)[0] == 8
    assert Engine(pair).enumerate_up_to(7)[0] is None
    n, stats = Engine(pair).hybrid(threshold=8)
    assert (n, stats.path) == (8, "enumeration")
    n, stats = Engine(pair).hybrid(threshold=7)
    assert (n, stats.path) == (8, "counting")


def test_enumerate_limit_validation():
    with pytest.raises(ValueError):
        Engine(_pair("a.")).enumerate_up_to(0)


def test_hybrid_enumeration_path():
    n, stats = Engine(_pair(EXAMPLE1)).hybrid(threshold=100_000)
    assert n == 2
    assert stats.path == "enumeration"


def test_hybrid_counting_path():
    pair = build_pair(gen_choice_chain(8))
    n, stats = Engine(pair).hybrid(threshold=10)
    assert n == 256
    assert stats.path == "counting"


def test_hybrid_threshold_one():
    n, stats = Engine(_pair(EXAMPLE1)).hybrid(threshold=1)
    assert n == 2
    assert stats.path == "counting"


def test_search_depth_leaves_recursion_limit_alone():
    # enumerating chain(1000) decides 1000 variables on one path
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        eng = Engine(build_pair(gen_choice_chain(1000)))
        assert sys.getrecursionlimit() == 1000
        assert eng.enumerate_up_to(1)[0] is None
        assert sys.getrecursionlimit() == 1000
        assert eng.count()[0] == 1 << 1000
        assert sys.getrecursionlimit() == 1000
        assert eng.hybrid(threshold=1)[0] == 1 << 1000
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(saved)


# -- counter pins ---------------------------------------------------------------

# (result, decisions, propagations, cache lookups, hits and entries, peak
# cache bytes, path) per family and call. A change meant to keep the search
# as it is keeps these; one that moves them on purpose updates them here.
COUNTER_PINS = [
    ("path", "count", (267914296, 108, 93, 138, 54, 84, 7128, "")),
    ("path", "hybrid", (267914296, 200121, 61909, 138, 54, 84, 7128, "counting")),
    ("path", "enumerate_up_to(7)", (None, 32, 22, 0, 0, 0, 0, "")),
    ("reach", "count", (320, 188, 578, 174, 53, 121, 20873, "")),
    ("reach", "hybrid", (320, 1054, 3489, 0, 0, 0, 0, "enumeration")),
    ("reach", "enumerate_up_to(7)", (None, 21, 106, 0, 0, 0, 0, "")),
    ("reach", "count, use_cache=False", (320, 274, 857, 0, 0, 0, 0, "")),
    ("ham", "count", (48, 376, 5611, 319, 89, 230, 78960, "")),
    ("ham", "hybrid", (48, 366, 4534, 0, 0, 0, 0, "enumeration")),
    ("ham", "enumerate_up_to(7)", (None, 78, 998, 0, 0, 0, 0, "")),
]


@pytest.mark.parametrize("family, call, want", COUNTER_PINS)
def test_counters_are_pinned(family, call, want):
    program = {
        "path": lambda: parse_program(path_text(40)),
        "reach": lambda: gen_reachability(random_graph(12, 28, seed=1), 0, 11),
        "ham": lambda: gen_hamiltonian(random_graph(9, 36, seed=1)),
    }[family]()
    pair = build_pair(program)
    n, stats = {
        "count": lambda: Engine(pair).count(),
        "hybrid": lambda: Engine(pair).hybrid(),
        "enumerate_up_to(7)": lambda: Engine(pair).enumerate_up_to(7),
        "count, use_cache=False": lambda: Engine(pair, use_cache=False).count(),
    }[call]()
    got = (
        n, stats.decisions, stats.propagations, stats.cache_lookups, stats.cache_hits,
        stats.cache_entries, stats.peak_cache_bytes, stats.path,
    )
    assert got == want


# -- resource limits & stats ---------------------------------------------------


def test_budget_exhaustion():
    pair = build_pair(gen_choice_chain(12))
    with pytest.raises(ResourceLimitError) as err:
        Engine(pair, budget=0.0).count()
    assert err.value.stats is not None


@pytest.mark.parametrize("text", ["a.", ":- a. a :- not b. b :- not a.", "a :- not a."])
def test_zero_budget_exhausts_with_nothing_to_search(text):
    # propagation settles each at the root (the last in a conflict), so the
    # search meets no component to check the budget at
    eng = Engine(_pair(text), budget=0.0)
    for call in (eng.count, lambda: eng.enumerate_up_to(1), eng.hybrid):
        with pytest.raises(ResourceLimitError) as err:
            call()
        assert err.value.stats is eng.stats


def test_budget_runs_from_each_call():
    eng = Engine(build_pair(gen_choice_chain(4)), budget=0.1)
    assert eng.count()[0] == 16
    time.sleep(0.15)
    assert eng.count()[0] == 16
    time.sleep(0.15)
    assert eng.enumerate_up_to(100)[0] == 16
    time.sleep(0.15)
    assert eng.hybrid(threshold=2)[0] == 16


def test_hybrid_shares_one_deadline(monkeypatch):
    eng = Engine(build_pair(gen_choice_chain(4)), budget=60.0)
    seen = []
    real_check = Engine._check_deadline

    def spy(self):
        seen.append(self._deadline)
        real_check(self)

    monkeypatch.setattr(Engine, "_check_deadline", spy)
    n, stats = eng.hybrid(threshold=2)
    assert (n, stats.path) == (16, "counting")
    assert stats.cache_lookups > 0 and len(set(seen)) == 1


def _cut(self):
    raise ResourceLimitError("time budget exhausted", self._finalize())


def test_hybrid_cut_in_enumeration_names_it(monkeypatch):
    monkeypatch.setattr(Engine, "_check_deadline", _cut)
    with pytest.raises(ResourceLimitError) as info:
        Engine(_pair(path_text(8))).hybrid(threshold=1)
    assert info.value.stats.path == "enumeration"


def test_hybrid_cut_in_counting_keeps_enumeration_counters(monkeypatch):
    # the check cuts counting at its first cache miss, before its first
    # decision; path(8) has no unit, so counting has propagated nothing yet
    begun = []
    real_run = Engine._run

    def count_spy(self, limit=None, assumptions=()):
        if limit is None:
            begun.append(dataclasses.replace(self.stats))
        return real_run(self, limit, assumptions)

    def check(self):
        if self.stats.cache_lookups:
            _cut(self)

    monkeypatch.setattr(Engine, "_run", count_spy)
    monkeypatch.setattr(Engine, "_check_deadline", check)
    with pytest.raises(ResourceLimitError) as info:
        Engine(_pair(path_text(8))).hybrid(threshold=1)
    (enum,) = begun
    stats = info.value.stats
    assert stats.path == "counting"
    assert enum.decisions > 0 and stats.decisions == enum.decisions
    assert enum.propagations > 0 and stats.propagations == enum.propagations
    assert enum.bcp_time > 0 and stats.bcp_time >= enum.bcp_time


def test_cache_entry_cap():
    pair = build_pair(parse_program(EXAMPLE1))
    with pytest.raises(ResourceLimitError):
        Engine(pair, cache_limit_bytes=8).count()


def test_cache_eviction_keeps_counts_exact():
    pair = build_pair(gen_choice_chain(10))
    n, stats = Engine(pair, cache_limit_bytes=600).count()
    assert n == 1 << 10
    assert stats.peak_cache_bytes <= 600


def test_stats_zero_decisions_when_level0_solves():
    n, stats = Engine(_pair("a.\nb :- a.")).count()
    assert n == 1
    assert stats.decisions == 0
    assert stats.propagations > 0


def test_stats_fields_sane():
    n, stats = Engine(_pair(EXAMPLE1)).count()
    assert n == 2
    assert stats.cache_hits <= stats.cache_lookups
    assert stats.bcp_time >= 0.0
    assert stats.decisions >= 1


def test_seeded_tie_break_still_exact():
    rng = random.Random(83)
    for _ in range(40):
        p = random_program(rng)
        pair = build_pair(p)
        assert Engine(pair, seed=7).count()[0] == Engine(pair).count()[0]
