import dataclasses
import gc
import random
import sys
import time
import tracemalloc
from collections import OrderedDict

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
from aspcount.encode import pos_lit
from aspcount.engine import entry_bytes

from helpers import (
    EXAMPLE1, bits, disjoint_union, id_of, listed_ids, path_text, random_program, residual,
    root_component, with_unit,
)


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
    assert (-e,) in pair.completion
    assert eng.lit_value[n + e] == -1
    assert eng.lit_value[n + c] == -1
    assert eng.lit_value[n + d] == -1


def test_count_under_a_unit_clause():
    pair = _pair("a :- not b.\nb :- not a.")
    a, b = pair.vars.lit_of_atom
    assert Engine(with_unit(pair, a)).count()[0] == Engine(with_unit(pair, -b)).count()[0] == 1


def test_propagate_detects_false_unit():
    pair = _pair("a :- not b.\nb :- not a.")
    a, b = pair.vars.lit_of_atom
    eng = Engine(pair)
    assert eng.assign(a)
    assert eng.propagate() is None
    # b is now false; asserting it true contradicts
    assert not eng.assign(b)


def test_unfounded_check_conflicts_on_a_true_unsupported_loop():
    # with b true, `d :- a.` cannot fire, so c and d support only each other:
    # unit propagation leaves both copies unassigned, and the check, run as
    # at the root, finds the loop unfounded while c and d are true
    pair = build_pair(parse_program(EXAMPLE1))
    eng = Engine(pair)
    a, b, c, d, e = pair.vars.lit_of_atom
    for lit in (b, c, d):
        assert eng.assign(lit)
    assert eng.propagate() is None
    copies = [pos_lit(v) for v in pair.copy_vars]
    assert len(copies) == 2
    assert all(eng.lit_value[eng.n_vars + l] == -1 for l in copies)
    eng._build_index()
    eng._src = [-1] * len(copies)  # no source yet: each copy is re-sought
    assert eng._unfounded(0, list(range(len(copies)))) in copies
    assert eng.stats.unfounded == 0  # a conflict, with no literal derived


def test_unfounded_check_reseeks_a_true_copy_whose_source_dies():
    # the loop g -> f -> y -> g, each with its own way out: g :- a, g :- h
    # and y :- c. At the root g stands on f, f on y and y on c. Under h
    # (g true), L[f] false kills g's source; g must then re-seek (h), or it
    # keeps a dead pointer to f, and y, losing c, stands on g: the pointers
    # close the cycle y -> g -> f -> y. Back at the root that cycle holds
    # again, so with every way out false (a, h and c) the check must still
    # find the loop unfounded and falsify g, f and y
    choices = "acehk"
    text = "".join(f"{q} :- not {q}2. {q}2 :- not {q}.\n" for q in choices)
    text += "g :- f. g :- a. g :- h.\nf :- y, k.\ny :- g, e. y :- c.\n"
    program = parse_program(text)
    pair = build_pair(program)
    lit = {s: pair.vars.lit_of_atom[id_of(program.atoms, s)] for s in choices + "gfy"}
    eng = Engine(pair)
    assert eng._apply_initial()
    eng._build_index()
    n_copies = eng.n_vars - eng.first_copy
    eng._src = [-1] * n_copies  # as at the root: every copy is re-sought
    assert eng._unfounded(len(eng.trail), list(range(n_copies))) is None

    def branch(l):
        mark = len(eng.trail)
        assert eng.assign(l)
        assert eng.propagate() is None
        assert eng._unfounded(mark, []) is None
        return mark

    root = branch(-lit["a"])
    for l in (lit["h"], -lit["f"], -lit["c"]):
        branch(l)
    eng.backtrack(root)
    for l in (-lit["a"], -lit["h"], -lit["c"], lit["e"], lit["k"]):
        branch(l)
    assert [eng.lit_value[eng.n_vars + lit[s]] for s in "gfy"] == [0, 0, 0]


def test_unfounded_check_prunes_the_reach_frontier():
    # perfbench's reference counts 30 600 192 on this 30-node graph; with
    # unit propagation alone, the search makes 75 888 decisions
    program = gen_reachability(random_graph(30, 69, seed=1), 0, 29)
    n, stats = Engine(build_pair(program)).count()
    assert n == 30600192
    assert stats.decisions <= 20_000 and stats.unfounded > 0


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
    comps = eng.decompose(root_component(eng), 0)
    # e's only clause is its unit -e, so it is a singleton beside the rest
    e = pair.vars.lit_of_atom[id_of(p.atoms, "e")]
    assert [bits(vs) for vs, _ in comps[1:]] == [[abs(e) - 1]]
    v = eng.decide(comps[0])
    assert v in bits(comps[0][0]) and v not in pair.copy_vars


def test_clause_free_component_doubles_per_free_non_copy():
    pair = build_pair(parse_program(EXAMPLE1))
    eng = Engine(pair)
    # two non-copy variables (the class of a and b, and c) free with every
    # clause satisfied, so decompose gives each its own singleton
    assert eng._search([(1 << v, 0) for v in (0, 1)]) == 4


def test_decide_reads_only_its_component_and_the_assignment():
    # a deeper decompose under +-y and its backtrack leave A's pick as it was
    eng = Engine(build_pair(gen_reachability(random_graph(12, 28, seed=1), 0, 11)))
    assert eng._apply_initial()
    root = root_component(eng)
    comps = eng.decompose(root, 0)
    a = max(comps, key=lambda c: c[0].bit_count())
    for y in bits(a[0]):
        if y >= eng.first_copy:
            break
        for lit in (y + 1, -(y + 1)):
            eng.decompose(root, 0)
            want = eng.decide(a)
            mark = len(eng.trail)
            eng.assign(lit)
            if eng.propagate() is None:
                eng.decompose(a, mark)
            eng.backtrack(mark)
            assert eng.decide(a) == want


def test_decide_starts_path_in_its_middle_third():
    program = parse_program(path_text(301))
    pair = build_pair(program)
    eng = Engine(pair)
    assert eng._apply_initial()
    (root,) = eng.decompose(root_component(eng), 0)
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

    def spy(self, comp, mark):
        walked.append(comp[0].bit_count())
        return real_decompose(self, comp, mark)

    monkeypatch.setattr(Engine, "decompose", spy)
    n, _ = Engine(_pair(path_text(1000))).count()
    a, b = 0, 1
    for _ in range(1002):
        a, b = b, a + b
    assert n == a  # Fibonacci(1002)
    assert sum(walked) <= 200_000


def test_tie_ranks_are_built_by_counting_only():
    eng = Engine(_pair(path_text(10)))
    assert eng._occ is None
    assert eng.enumerate_up_to(1000)[0] == 144
    assert eng._occ is None
    assert eng.count()[0] == 144
    assert eng._occ is not None


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
    comps = eng.decompose(root_component(eng), 0)
    # one component per copy, plus e and e2, whose only clauses are their
    # units -e and -e2, which propagate does not set
    e_vars = [abs(both.vars.lit_of_atom[id_of(program.atoms, s)]) - 1 for s in ("e", "e2")]
    assert len(comps) == 4
    assert sorted(bits(vs) for vs, _ in comps if vs.bit_count() == 1) == [[v] for v in e_vars]
    assert brute_force_count(p1) == brute_force_count(p2) == 2


def test_decompose_all_satisfied_yields_free_singletons():
    pair = _pair("a :- not b.\nb :- not a.")
    eng = Engine(pair)
    assert eng.assign(pos_lit(0))
    assert eng.propagate() is None
    # everything satisfied: no variables left at all here
    assert eng.decompose(root_component(eng), 0) == []


def test_decompose_drops_a_clause_satisfied_by_its_third_literal():
    # the constraint is the one clause a | c | e over three negation pairs;
    # with e true and a, c unassigned, only its third literal satisfies it
    pair = _pair(
        "a :- not b. b :- not a. c :- not d. d :- not c. e :- not f. f :- not e.\n"
        ":- not a, not c, not e."
    )
    assert pair.completion + pair.copy_clauses == [(1, 2, 3)]
    eng = Engine(pair)
    assert eng.assign(3)
    assert eng.propagate() is None
    assert eng.decompose(root_component(eng), 0) == [(0b1, 0), (0b10, 0)]


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
    ids = listed_ids(eng)
    met = [k for _, cs in eng.decompose(root_component(eng), 0) for k in bits(cs)]
    assert all(k < len(ids) and len(eng.canon[ids[k]]) > 2 for k in met)


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
        high = Engine(with_unit(pair, x)).count()[0]
        low = Engine(with_unit(pair, -x)).count()[0]
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
    pair = build_pair(p)
    n = Engine(pair).count()[0]
    assert n == Engine(pair, use_cache=False).count()[0] == brute_force_count(p) == 36
    # the two copies have different variables, so no component searched in
    # one equals one of the other; path(12)'s searched components recur
    pair = _pair(path_text(12))
    n, stats = Engine(pair).count()
    assert n == Engine(pair, use_cache=False).count()[0] == 377
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
            (which, i): sorted(residual(cnf, t))
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


def test_hybrid_threshold_validation_names_the_threshold():
    with pytest.raises(ValueError, match="^threshold must be >= 1$"):
        Engine(_pair("a.")).hybrid(0)


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
    ("path", "count", (267914296, 108, 87, 85, 31, 54, 9885, "")),
    ("path", "hybrid", (267914296, 200121, 61903, 85, 31, 54, 9885, "counting")),
    ("path", "enumerate_up_to(7)", (None, 32, 22, 0, 0, 0, 0, "")),
    ("reach", "count", (320, 76, 300, 52, 14, 38, 7234, "")),
    ("reach", "hybrid", (320, 1054, 2842, 0, 0, 0, 0, "enumeration")),
    ("reach", "enumerate_up_to(7)", (None, 21, 91, 0, 0, 0, 0, "")),
    ("reach", "count, use_cache=False", (320, 104, 384, 0, 0, 0, 0, "")),
    ("ham", "count", (48, 296, 2117, 148, 0, 148, 28862, "")),
    ("ham", "hybrid", (48, 366, 2455, 0, 0, 0, 0, "enumeration")),
    ("ham", "enumerate_up_to(7)", (None, 78, 535, 0, 0, 0, 0, "")),
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
    eng = Engine(_pair(path_text(8)), budget=60.0)
    seen = []
    real_check = Engine._check_deadline

    def spy(self):
        seen.append(self._deadline)
        real_check(self)

    monkeypatch.setattr(Engine, "_check_deadline", spy)
    n, stats = eng.hybrid(threshold=2)
    assert (n, stats.path) == (55, "counting")
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

    def count_spy(self, limit=None):
        if limit is None:
            begun.append(dataclasses.replace(self.stats))
        return real_run(self, limit)

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


def test_oversized_cache_entry_raises_before_evicting():
    # the cap is one byte short of path(12)'s root entry, its 12 variables
    # worth Fibonacci(14), and any two entries exceed it: it holds one entry
    # at a time until the root, which raises and leaves the cache as it was
    cap = entry_bytes(((1 << 12) - 1, 0), 377) - 1
    assert 2 * entry_bytes((1, 0), 0) > cap
    eng = Engine(_pair(path_text(12)), cache_limit_bytes=cap)
    with pytest.raises(ResourceLimitError) as err:
        eng.count()
    stats = err.value.stats
    assert stats.cache_entries == len(eng._cache) == 1
    assert 0 < stats.peak_cache_bytes <= cap


def test_cache_eviction_keeps_counts_exact():
    # the cap holds four entries the size of path(20)'s root, its 20
    # variables worth Fibonacci(22); uncapped, the search stores 22 entries
    pair = _pair(path_text(20))
    cap = 4 * entry_bytes(((1 << 20) - 1, 0), 17711)
    eng = Engine(pair, cache_limit_bytes=cap)
    n, stats = eng.count()
    assert n == 17711
    assert stats.peak_cache_bytes <= cap
    assert stats.cache_evictions > 0 and stats.cache_entries == len(eng._cache)
    assert Engine(pair).count()[1].cache_evictions == 0


def test_capped_cache_matches_a_reference_lru():
    # one capped count of path(24) under a cap of four root entries, with
    # hits and evictions: replaying its lookups and stores on a reference
    # LRU gives the same surviving entries in the same order, evictions
    # and peak bytes
    events = []

    class Logged(OrderedDict):
        def get(self, key):
            events.append((key,))
            return super().get(key)

        def __setitem__(self, key, val):
            events.append((key, val))
            super().__setitem__(key, val)

    class Logging(Engine):
        def reset(self):
            super().reset()
            self._cache = Logged()

    cap = 4 * entry_bytes(((1 << 24) - 1, 0), 0)
    eng = Logging(_pair(path_text(24)), cache_limit_bytes=cap)
    n, stats = eng.count()
    assert n == 121393  # Fibonacci(26)
    ref, size, peak, evictions, peak_after_eviction = OrderedDict(), 0, 0, 0, False
    for key, *val in events:
        if not val:  # a lookup; a hit becomes the most recently used
            if key in ref:
                ref.move_to_end(key)
            continue
        need = entry_bytes(key, val[0])
        while size + need > cap:
            size -= entry_bytes(*ref.popitem(last=False))
            evictions += 1
        ref[key] = val[0]
        size += need
        if size > peak:
            peak, peak_after_eviction = size, evictions > 0
    assert stats.cache_hits > 0 and evictions > 0 and peak_after_eviction
    assert list(eng._cache.items()) == list(ref.items())
    assert (stats.cache_evictions, stats.peak_cache_bytes) == (evictions, peak)


@pytest.mark.parametrize(
    "make",
    [
        lambda: parse_program(path_text(400)),  # no listed clause
        lambda: gen_hamiltonian(random_graph(10, 45, seed=1)),  # listed clauses
    ],
    ids=["path(400)", "ham10"],
)
def test_cache_cap_counts_what_an_entry_holds(make):
    # the real bytes are the traced memory that clearing the cache frees; a
    # full collection empties CPython's free lists, both before tracing, so
    # that no entry reuses a block allocated untraced, and before measuring,
    # as the free lists would keep the freed tuples traced
    eng = Engine(build_pair(make()))
    gc.collect()
    tracemalloc.start()
    try:
        eng.count()
        assert len(eng._cache) >= 200
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        eng._cache.clear()
        gc.collect()
        real = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 0.8 <= eng._cache_bytes / real <= 1.25


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
