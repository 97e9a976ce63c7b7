import random
import sys

from aspcount import (
    Engine,
    brute_force_count,
    build_dep_graph,
    build_pair,
    compute_loop_atoms,
    parse_program,
)
from aspcount.analysis import DepGraph

from helpers import EXAMPLE1, random_program


def test_example1_dep_graph():
    p = parse_program(EXAMPLE1)
    graph = build_dep_graph(p)
    a, b, c, d, e = range(5)
    # only r3..r6 have positive bodies
    assert graph.edges == {(c, a), (c, b), (c, d), (d, a), (d, b), (d, c)}
    info = compute_loop_atoms(graph)
    assert info.loop_atoms == {c, d}
    assert info.loop_atoms  # not tight


def test_negative_bodies_contribute_no_edges():
    p = parse_program("a :- not b.\nb :- not a.")
    graph = build_dep_graph(p)
    assert graph.edges == frozenset()
    assert not compute_loop_atoms(graph).loop_atoms  # tight


def test_self_loop():
    p = parse_program("a :- a.")
    graph = build_dep_graph(p)
    assert graph.edges == {(0, 0)}
    info = compute_loop_atoms(graph)
    assert info.loop_atoms == {0}
    # a <- a alone admits only the empty answer set, unlike a fact
    assert brute_force_count(p) == 1


def test_constraints_contribute_no_edges():
    p = parse_program("a :- b.\n:- a, b.")
    assert build_dep_graph(p).edges == {(0, 1)}


def test_empty_program_tight():
    info = compute_loop_atoms(build_dep_graph(parse_program("")))
    assert not info.loop_atoms  # tight


def _reach_brute_force(edges):
    # transitive closure by repeated squaring of the adjacency relation
    reach = {(u, v) for u, v in edges}
    changed = True
    while changed:
        changed = False
        for u, v in list(reach):
            for x, y in list(reach):
                if v == x and (u, y) not in reach:
                    reach.add((u, y))
                    changed = True
    return reach


def test_loop_atoms_match_cycle_membership():
    rng = random.Random(3)
    for _ in range(120):
        n = rng.randint(1, 12)
        m = rng.randint(0, 2 * n)
        edges = frozenset(
            (rng.randrange(n), rng.randrange(n)) for _ in range(m)
        )
        info = compute_loop_atoms(DepGraph(n, edges))
        reach = _reach_brute_force(edges)
        assert info.loop_atoms == {v for v in range(n) if (v, v) in reach}


def test_one_long_cycle_is_one_scc():
    # a positive chain a_0 <- a_1 <- ... closed into one cycle, far deeper
    # than the default recursion limit
    n = 200_000
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        info = compute_loop_atoms(DepGraph(n, frozenset((v, (v + 1) % n) for v in range(n))))
    finally:
        sys.setrecursionlimit(saved)
    assert info.loop_atoms == frozenset(range(n))


def test_tight_programs_have_empty_copy_cnf_and_plain_counts():
    rng = random.Random(17)
    checked = 0
    while checked < 40:
        p = random_program(rng)
        pair = build_pair(p)
        if pair.copy_vars:
            continue
        assert len(pair.copy_clauses) == 0
        assert Engine(pair).count()[0] == brute_force_count(p)
        checked += 1
