"""Acceptance suite: one test per criterion, one [PASS]/[FAIL] line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import random
import time
from contextlib import contextmanager

from aspcount import (
    Engine,
    Graph,
    brute_force_count,
    build_dep_graph,
    build_pair,
    compute_loop_atoms,
    gen_choice_chain,
    gen_hamiltonian,
    gen_reachability,
    is_answer_set,
    parse_program,
)
from aspcount.encode import pos_lit

from helpers import (
    EXAMPLE1,
    class_values,
    copy_clauses_discharge,
    disjoint_union,
    extends_to_completion_model,
    graph_ham_count,
    id_of,
    random_program,
    residual,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def _sorted_clause(*lits):
    return tuple(sorted(lits, key=lambda l: (abs(l), l > 0)))


def test_c01_example1_fidelity():
    with criterion(1, "Example 1: loop atoms, copy clauses, residuals, count 2"):
        t0 = time.perf_counter()
        p = parse_program(EXAMPLE1)
        a, b, c, d, e = (id_of(p.atoms, s) for s in "abcde")

        info = compute_loop_atoms(build_dep_graph(p))
        assert info.loop_atoms == {c, d}

        pair = build_pair(p)
        la, lb, lc, ld = (pair.vars.lit_of_atom[x] for x in (a, b, c, d))
        assert lb == -la  # a :- not b. b :- not a. is one class
        cc, cd = (pos_lit(pair.vars.copy_of_atom[x]) for x in (c, d))
        expected = {
            _sorted_clause(-cc, lc),
            _sorted_clause(-cd, ld),
            _sorted_clause(-la, -lb, cc),
            _sorted_clause(-cd, cc),
            _sorted_clause(-la, cd),
            _sorted_clause(-lb, -cc, cd),
        }
        assert set(pair.copy_clauses.clauses) == expected

        # the variable assignments of the atom sets {b}, {a, c, d}, {b, c, d}
        tau1 = class_values(pair, frozenset({b}))
        tau2 = class_values(pair, frozenset({a, c, d}))
        tau3 = class_values(pair, frozenset({b, c, d}))
        assert residual(pair.copy_clauses, tau1).clauses == []
        assert residual(pair.copy_clauses, tau2).clauses == []
        assert residual(pair.copy_clauses, tau3).clauses != []

        assert Engine(pair).count()[0] == 2
        assert brute_force_count(p) == 2
        assert time.perf_counter() - t0 < 1.0


def test_c02_answer_set_characterization_suite():
    with criterion(2, "completion + copy-residual check == reduct check, 500 programs"):
        t0 = time.perf_counter()
        rng = random.Random(202)
        non_tight = 0
        for i in range(500):
            max_atoms = 12 if i % 8 == 0 else 9
            p = random_program(rng, max_atoms=max_atoms)
            pair = build_pair(p)
            if pair.copy_vars:
                non_tight += 1
            for bits in range(1 << p.n_atoms):
                m = frozenset(x for x in range(p.n_atoms) if bits >> x & 1)
                lhs = extends_to_completion_model(pair, m) and copy_clauses_discharge(pair, m)
                assert lhs == is_answer_set(p, m), f"mismatch on program {i}, m={sorted(m)}"
        assert non_tight >= 150  # >= 30% of 500
        assert time.perf_counter() - t0 < 300


def test_c03_oracle_count_equivalence():
    with criterion(3, "engine count == brute force on 1000 random + generator instances"):
        t0 = time.perf_counter()
        rng = random.Random(303)
        for _ in range(1000):
            p = random_program(rng)
            assert Engine(build_pair(p)).count()[0] == brute_force_count(p)

        instances = [gen_choice_chain(n) for n in range(6)]
        instances += [
            gen_hamiltonian(Graph(3, frozenset({(0, 1), (1, 2), (2, 0)}))),
            gen_hamiltonian(Graph(2, frozenset({(0, 1), (1, 0)}))),
            gen_hamiltonian(Graph(3, frozenset({(0, 1), (1, 0)}))),
            gen_reachability(Graph(2, frozenset({(0, 1)})), 0, 1),
            gen_reachability(
                Graph(4, frozenset({(0, 1), (1, 3), (0, 2), (2, 3)})), 0, 3
            ),
            gen_reachability(Graph(3, frozenset({(1, 2)})), 0, 2),
            gen_reachability(Graph(3, frozenset({(0, 1), (1, 2), (2, 1)})), 0, 2),
        ]
        for p in instances:
            assert p.n_atoms <= 24
            assert Engine(build_pair(p)).count()[0] == brute_force_count(p)
        assert time.perf_counter() - t0 < 600


def test_c04_determinism_identity():
    with criterion(4, "count == count(x=0) + count(x=1) on 100 (program, atom) pairs"):
        rng = random.Random(404)
        for _ in range(100):
            p = random_program(rng)
            pair = build_pair(p)
            x = pair.vars.lit_of_atom[rng.randrange(p.n_atoms)]
            total = Engine(pair).count()[0]
            high = Engine(pair).count(assumptions=[x])[0]
            low = Engine(pair).count(assumptions=[-x])[0]
            assert total == high + low


def test_c05_decomposition_identity():
    with criterion(5, "count(P1 + P2 disjoint) == count(P1) * count(P2), 100 pairs"):
        rng = random.Random(505)
        for _ in range(100):
            p1 = random_program(rng, max_atoms=6)
            p2 = random_program(rng, max_atoms=6)
            product = Engine(build_pair(p1)).count()[0] * Engine(build_pair(p2)).count()[0]
            assert Engine(build_pair(disjoint_union(p1, p2))).count()[0] == product


def test_c06_cache_transparency_and_hits():
    with criterion(6, "cache on == cache off; hits on duplicated disjoint instance"):
        rng = random.Random(606)
        for _ in range(1000):
            p = random_program(rng, max_atoms=6)
            pair = build_pair(p)
            assert Engine(pair).count()[0] == Engine(pair, use_cache=False).count()[0]

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
        assert stats.cache_lookups > 0
        assert stats.cache_hit_pct > 0.0


def test_c07_scaling_smoke():
    with criterion(7, "chain(30) = 2^30 in < 1 s with <= 64 MiB cache; hybrid counts"):
        pair = build_pair(gen_choice_chain(30))
        t0 = time.perf_counter()
        n, stats = Engine(pair, cache_limit_bytes=64 << 20).count()
        wall = time.perf_counter() - t0
        assert n == 2**30 == 1073741824
        assert wall < 1.0
        assert stats.peak_cache_bytes <= 64 << 20
        assert stats.decisions < 1000  # decomposition, not enumeration

        n, stats = Engine(pair).hybrid(threshold=100_000)
        assert n == 2**30
        assert stats.path == "counting"


def test_c08_hamiltonian_sanity():
    with criterion(8, "K4 -> 6 and directed 3-cycle -> 1, matching graph brute force"):
        t0 = time.perf_counter()
        k4 = Graph(4, frozenset((u, v) for u in range(4) for v in range(4) if u != v))
        c3 = Graph(3, frozenset({(0, 1), (1, 2), (2, 0)}))
        n_k4 = Engine(build_pair(gen_hamiltonian(k4))).count()[0]
        n_c3 = Engine(build_pair(gen_hamiltonian(c3))).count()[0]
        assert n_k4 == graph_ham_count(k4) == 6
        assert n_c3 == graph_ham_count(c3) == 1
        assert time.perf_counter() - t0 < 5.0


def test_c09_ablation_metrics():
    with criterion(9, "runs report bcp_seconds, decisions, cache_hit_pct; 0 decisions on BCP-solved"):
        n, stats = Engine(build_pair(parse_program(EXAMPLE1))).count()
        assert n == 2
        assert stats.bcp_time >= 0.0
        assert stats.decisions >= 1
        assert 0.0 <= stats.cache_hit_pct <= 100.0

        n, stats = Engine(build_pair(parse_program("a.\nb :- a.\nc :- b, not d."))).count()
        assert n == 1
        assert stats.decisions == 0
        assert stats.propagations > 0


def test_c10_conjunction_soundness():
    with criterion(10, "equal conjoined residuals imply equal parts, 200 triples"):
        rng = random.Random(1010)
        checked = 0
        premise_hits = 0
        for trial in range(8000):
            if checked >= 200:
                break
            p = random_program(rng)
            pair = build_pair(p)

            def random_tau():
                picked = [x for x in range(p.n_atoms) if rng.random() < 0.5]
                return {x: rng.random() < 0.5 for x in picked}

            t1 = random_tau()
            if trial % 2 and t1:
                t2 = dict(t1)
                k = rng.choice(sorted(t2))
                if rng.random() < 0.5:
                    t2[k] = not t2[k]
                else:
                    del t2[k]
            else:
                t2 = random_tau()
            f1 = sorted(residual(pair.completion, t1).clauses)
            f2 = sorted(residual(pair.completion, t2).clauses)
            g1 = sorted(residual(pair.copy_clauses, t1).clauses)
            g2 = sorted(residual(pair.copy_clauses, t2).clauses)
            if any(() in r for r in (f1, f2, g1, g2)):
                continue  # conflicts collapse to the empty clause; no information
            checked += 1
            if sorted(f1 + g1) == sorted(f2 + g2):
                premise_hits += 1
                assert f1 == f2 and g1 == g2
        assert checked >= 200
        assert premise_hits > 0
