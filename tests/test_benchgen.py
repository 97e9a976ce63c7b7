import random

import pytest

from aspcount import (
    Engine,
    Graph,
    brute_force_count,
    build_pair,
    gen_choice_chain,
    gen_hamiltonian,
    gen_reachability,
    parse_graph,
    parse_program,
    random_graph,
    render_program,
)
from helpers import graph_ham_count, graph_reach_count, render_graph


def _count(program):
    return Engine(build_pair(program)).count()[0]


# -- choice chains -------------------------------------------------------------


def test_chain_zero():
    p = gen_choice_chain(0)
    assert p.n_atoms == 0 and not p.rules
    assert _count(p) == 1


def test_chain_one():
    p = gen_choice_chain(1)
    assert _count(p) == brute_force_count(p) == 2


def test_chain_small_matches_oracle():
    p = gen_choice_chain(4)
    assert _count(p) == brute_force_count(p) == 16


def test_chain_twenty():
    assert _count(gen_choice_chain(20)) == 1 << 20


def test_chain_negative_rejected():
    with pytest.raises(ValueError):
        gen_choice_chain(-1)


def test_chain_is_tight():
    assert not build_pair(gen_choice_chain(5)).copy_vars


# -- graph model -----------------------------------------------------------------


def test_parse_graph_basic():
    g = parse_graph("2 1\n0 1\n")
    assert g.n_nodes == 2 and g.edges == {(0, 1)}


def test_parse_graph_duplicate_edges_collapse():
    g = parse_graph("3 2\n0 1\n0 1\n")
    assert g.edges == {(0, 1)}


def test_parse_graph_self_edge_rejected():
    with pytest.raises(ValueError):
        parse_graph("1 1\n0 0\n")


def test_parse_graph_malformed():
    with pytest.raises(ValueError):
        parse_graph("2 1\n0 x\n")
    with pytest.raises(ValueError):
        parse_graph("nope")
    with pytest.raises(ValueError):
        parse_graph("2 2\n0 1\n")
    with pytest.raises(ValueError, match="empty graph file"):
        parse_graph("")


def test_parse_graph_out_of_range():
    with pytest.raises(ValueError):
        parse_graph("2 1\n0 5\n")


def test_render_graph_round_trip():
    g = random_graph(5, 9, seed=3)
    assert parse_graph(render_graph(g)) == g


def test_random_graph_deterministic():
    assert random_graph(6, 10, seed=1) == random_graph(6, 10, seed=1)
    assert random_graph(6, 10, seed=1) != random_graph(6, 10, seed=2)


def test_random_graph_more_edges_than_pairs_rejected():
    assert len(random_graph(3, 6, seed=0).edges) == 6
    with pytest.raises(ValueError, match="more edges requested"):
        random_graph(3, 7, seed=0)


# -- Hamiltonian cycles ------------------------------------------------------------


def test_hamiltonian_three_cycle():
    g = Graph(3, frozenset({(0, 1), (1, 2), (2, 0)}))
    p = gen_hamiltonian(g)
    assert _count(p) == brute_force_count(p) == 1


def test_hamiltonian_k4():
    g = Graph(4, frozenset((u, v) for u in range(4) for v in range(4) if u != v))
    assert _count(gen_hamiltonian(g)) == graph_ham_count(g) == 6


def test_hamiltonian_isolated_node():
    g = Graph(3, frozenset({(0, 1), (1, 0)}))
    assert _count(gen_hamiltonian(g)) == 0


def test_hamiltonian_non_tight_on_cyclic_graph():
    g = Graph(3, frozenset({(0, 1), (1, 2), (2, 0)}))
    assert build_pair(gen_hamiltonian(g)).copy_vars


def test_hamiltonian_needs_two_nodes():
    with pytest.raises(ValueError):
        gen_hamiltonian(Graph(1, frozenset()))


def test_hamiltonian_random_graphs_match_graph_brute_force():
    rng = random.Random(41)
    for _ in range(12):
        n = rng.randint(2, 4)
        g = random_graph(n, rng.randint(0, n * (n - 1)), seed=rng.randrange(10**6))
        assert _count(gen_hamiltonian(g)) == graph_ham_count(g)


# -- reachability -------------------------------------------------------------------


def test_reachability_single_edge():
    p = gen_reachability(Graph(2, frozenset({(0, 1)})), 0, 1)
    assert _count(p) == brute_force_count(p) == 1


def test_reachability_disconnected():
    assert _count(gen_reachability(Graph(3, frozenset({(1, 2)})), 0, 2)) == 0


def test_reachability_diamond():
    g = Graph(4, frozenset({(0, 1), (1, 3), (0, 2), (2, 3)}))
    p = gen_reachability(g, 0, 3)
    assert _count(p) == brute_force_count(p) == 3


def test_reachability_non_tight_on_cyclic_graph():
    g = Graph(3, frozenset({(0, 1), (1, 2), (2, 1)}))
    assert build_pair(gen_reachability(g, 0, 2)).copy_vars


def test_reachability_argument_validation():
    g = Graph(3, frozenset({(0, 1)}))
    with pytest.raises(ValueError):
        gen_reachability(g, 1, 1)
    with pytest.raises(ValueError):
        gen_reachability(g, 0, 9)


def test_reachability_random_graphs_match_subset_brute_force():
    rng = random.Random(43)
    for _ in range(12):
        n = rng.randint(2, 5)
        g = random_graph(n, rng.randint(0, n * (n - 1)), seed=rng.randrange(10**6))
        src, tgt = rng.sample(range(n), 2)
        assert _count(gen_reachability(g, src, tgt)) == graph_reach_count(g, src, tgt)


# -- generic properties ----------------------------------------------------------------


def test_generators_deterministic():
    g = Graph(3, frozenset({(0, 1), (1, 2), (2, 0)}))
    assert render_program(gen_hamiltonian(g)) == render_program(gen_hamiltonian(g))
    assert render_program(gen_choice_chain(5)) == render_program(gen_choice_chain(5))


def test_generated_text_round_trips():
    g = Graph(3, frozenset({(0, 1), (1, 2), (2, 0)}))
    p = gen_hamiltonian(g)
    again = parse_program(render_program(p))
    assert _count(again) == _count(p)
