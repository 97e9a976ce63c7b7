import random
import sys
import time

import pytest

from aspcount import (
    Engine,
    ExactCount,
    Exceeded,
    ResourceLimitError,
    brute_force_count,
    build_pair,
    gen_choice_chain,
    parse_program,
    residual,
)
from aspcount.encode import Cnf, pos_lit

from helpers import EXAMPLE1, disjoint_union, path_text, random_program


def _pair(text):
    return build_pair(parse_program(text))


# -- propagation ------------------------------------------------------------


def test_propagate_example1_after_b():
    p = parse_program(EXAMPLE1)
    pair = build_pair(p)
    eng = Engine(pair)
    a, b, c, d, e = range(5)
    assert eng.assign(pos_lit(b))
    assert eng.propagate() is None
    n = eng.n_vars
    assert eng.lit_value[n + pos_lit(a)] == 0
    assert eng.lit_value[n + pos_lit(e)] == 0
    assert eng.lit_value[n + pos_lit(c)] == -1
    assert eng.lit_value[n + pos_lit(d)] == -1


def test_count_rejects_assumptions_outside_the_formula():
    eng = Engine(_pair("a :- not b.\nb :- not a."))
    assert eng.count([pos_lit(0)])[0] == eng.count([-pos_lit(1)])[0] == 1
    for lit in (0, eng.n_vars + 1, -eng.n_vars - 1):
        with pytest.raises(ValueError):
            eng.count([lit])


def test_propagate_detects_false_unit():
    pair = _pair("a :- not b.\nb :- not a.")
    eng = Engine(pair)
    assert eng.assign(pos_lit(0))
    assert eng.propagate() is None
    # b is now false; asserting it true contradicts
    assert not eng.assign(pos_lit(1))


def test_full_assignment_leaves_copy_component():
    p = parse_program(EXAMPLE1)
    pair = build_pair(p)
    eng = Engine(pair)
    a, b, c, d, e = range(5)
    for lit in (pos_lit(b), pos_lit(c), pos_lit(d), -pos_lit(a), -pos_lit(e)):
        assert eng.assign(lit)
    assert eng.propagate() is None
    comps = eng.decompose(range(pair.n_vars), range(len(eng.clauses)))
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
    comps = eng.decompose(range(pair.n_vars), range(len(eng.clauses)))
    assert len(comps) == 1
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
    # a and b free with every clause satisfied; a free copy adds no factor
    assert eng._search([Component((0, 1, pair.vars.first_copy), ())]) == 4


def test_decide_none_on_empty_component():
    from aspcount.engine import Component

    eng = Engine(_pair("a."))
    assert eng.decide(Component((), ())) is None


def test_decide_starts_path_in_its_middle_third():
    program = parse_program(path_text(301))
    eng = Engine(build_pair(program))
    assert eng._apply_initial()
    (root,) = eng.decompose(range(eng.n_vars), range(len(eng.canon)))
    # x_i or y_i; the lowest-index tie-break alone would pick x_1
    i = int(program.symbol(eng.decide(root))[1:])
    assert 100 <= i <= 200


def test_tie_ranks_are_built_by_counting_only():
    eng = Engine(_pair(path_text(10)))
    assert eng._tie is None
    assert eng.enumerate_up_to(1000) == ExactCount(144)
    assert eng._tie is None
    assert eng.count()[0] == 144
    assert eng._tie is not None


def test_decompose_disjoint_copies():
    p1 = parse_program(EXAMPLE1)
    p2 = parse_program(EXAMPLE1)
    both = build_pair(
        parse_program(
            EXAMPLE1 + EXAMPLE1.replace("a", "a2").replace("b", "b2")
            .replace("c", "c2").replace("d", "d2").replace("e", "e2")
        )
    )
    eng = Engine(both)
    assert eng.propagate() is None
    comps = eng.decompose(range(both.n_vars), range(len(eng.clauses)))
    assert len(comps) == 2
    assert brute_force_count(p1) == brute_force_count(p2) == 2


def test_decompose_all_satisfied_yields_free_singletons():
    pair = _pair("a :- not b.\nb :- not a.")
    eng = Engine(pair)
    assert eng.assign(pos_lit(0))
    assert eng.propagate() is None
    # everything satisfied: no variables left at all here
    assert eng.decompose(range(pair.n_vars), range(len(eng.clauses))) == []


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
        x = rng.randrange(p.n_atoms)
        total = Engine(pair).count()[0]
        high = Engine(pair).count(assumptions=[pos_lit(x)])[0]
        low = Engine(pair).count(assumptions=[-pos_lit(x)])[0]
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
    assert Engine(_pair(EXAMPLE1)).enumerate_up_to(10) == ExactCount(2)


def test_enumerate_chain20_exceeds():
    result = Engine(build_pair(gen_choice_chain(20))).enumerate_up_to(100_000)
    assert isinstance(result, Exceeded)
    assert result.elapsed > 0


def test_enumerate_unsatisfiable():
    assert Engine(_pair("a :- not a.")).enumerate_up_to(5) == ExactCount(0)


def test_enumerate_matches_count():
    rng = random.Random(79)
    for _ in range(60):
        p = random_program(rng, max_atoms=5)
        pair = build_pair(p)
        assert Engine(pair).enumerate_up_to(1 << 16) == ExactCount(Engine(pair).count()[0])


def test_enumerate_limit_is_inclusive():
    pair = build_pair(gen_choice_chain(3))  # 8 answer sets
    assert Engine(pair).enumerate_up_to(8) == ExactCount(8)
    assert isinstance(Engine(pair).enumerate_up_to(7), Exceeded)
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
        assert isinstance(eng.enumerate_up_to(1), Exceeded)
        assert sys.getrecursionlimit() == 1000
        assert eng.count()[0] == 1 << 1000
        assert sys.getrecursionlimit() == 1000
        assert eng.hybrid(threshold=1)[0] == 1 << 1000
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(saved)


# -- resource limits & stats ---------------------------------------------------


def test_budget_exhaustion():
    pair = build_pair(gen_choice_chain(12))
    with pytest.raises(ResourceLimitError) as err:
        Engine(pair, budget=0.0).count()
    assert err.value.stats is not None


def test_budget_runs_from_each_call():
    eng = Engine(build_pair(gen_choice_chain(4)), budget=0.1)
    assert eng.count()[0] == 16
    time.sleep(0.15)
    assert eng.count()[0] == 16
    time.sleep(0.15)
    assert eng.enumerate_up_to(100) == ExactCount(16)
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
