"""Deterministic benchmark-family generators and a tiny digraph model.

Choice constructs are compiled to negation pairs, and "exactly one" is
pairwise exclusion plus a per-node witness atom, so everything stays inside
ground normal rules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .program import Constraint, Program, Rule, SymbolTable


@dataclass(frozen=True)
class Graph:
    n_nodes: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-edge {u}->{v} not allowed")
            if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
                raise ValueError(f"edge {u}->{v} out of range 0..{self.n_nodes - 1}")


def parse_graph(text: str) -> Graph:
    """Edge-list format: first line "n m", then m lines "u v". Duplicate
    edges collapse; self-edges and out-of-range nodes are rejected."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty graph file")
    head = lines[0].split()
    if len(head) != 2 or not all(p.isdigit() for p in head):
        raise ValueError(f"bad header line {lines[0]!r}, expected 'n m'")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"header promises {m} edges, file has {len(lines) - 1}")
    edges = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise ValueError(f"bad edge line {ln!r}")
        edges.add((int(parts[0]), int(parts[1])))
    return Graph(n, frozenset(edges))


def random_graph(n_nodes: int, n_edges: int, seed: int) -> Graph:
    """Seeded uniform sample of n_edges ordered pairs (no self-edges)."""
    pairs = [(u, v) for u in range(n_nodes) for v in range(n_nodes) if u != v]
    if n_edges > len(pairs):
        raise ValueError("more edges requested than ordered pairs available")
    rng = random.Random(seed)
    return Graph(n_nodes, frozenset(rng.sample(pairs, n_edges)))


def gen_choice_chain(n: int) -> Program:
    """n independent negation pairs; tight; 2^n answer sets."""
    if n < 0:
        raise ValueError("n must be >= 0")
    table = SymbolTable()
    rules = []
    for i in range(n):
        x = table.intern(f"x{i}")
        y = table.intern(f"y{i}")
        rules.append(Rule(x, frozenset(), frozenset({y})))
        rules.append(Rule(y, frozenset(), frozenset({x})))
    return Program(table, rules, [])


def gen_hamiltonian(graph: Graph) -> Program:
    """Answer sets biject with directed Hamiltonian cycles of the graph.

    Per edge an in/out negation pair; per node "exactly one" selected
    outgoing and incoming edge (pairwise exclusion + witness atom); selected
    edges must reach every node from node 0, closing back through r(0).
    The reachability closure runs over every edge, so cyclic graphs yield
    non-tight programs.
    """
    if graph.n_nodes < 2:
        raise ValueError("need at least 2 nodes")
    table = SymbolTable()
    rules = []
    constraints = []
    edges = sorted(graph.edges)
    chosen = {}
    for u, v in edges:
        inside = table.intern(f"in({u},{v})")
        outside = table.intern(f"out({u},{v})")
        rules.append(Rule(inside, frozenset(), frozenset({outside})))
        rules.append(Rule(outside, frozenset(), frozenset({inside})))
        chosen[(u, v)] = inside
    reach = [table.intern(f"r({v})") for v in range(graph.n_nodes)]

    for node in range(graph.n_nodes):
        outgoing = [e for e in edges if e[0] == node]
        incoming = [e for e in edges if e[1] == node]
        for group, tag in ((outgoing, "picked_out"), (incoming, "picked_in")):
            witness = table.intern(f"{tag}({node})")
            for e in group:
                rules.append(Rule(witness, frozenset({chosen[e]}), frozenset()))
            constraints.append(Constraint(frozenset(), frozenset({witness})))
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    constraints.append(
                        Constraint(
                            frozenset({chosen[group[i]], chosen[group[j]]}),
                            frozenset(),
                        )
                    )

    for u, v in edges:
        if u == 0:
            rules.append(Rule(reach[v], frozenset({chosen[(u, v)]}), frozenset()))
        rules.append(Rule(reach[v], frozenset({reach[u], chosen[(u, v)]}), frozenset()))
    for node in range(graph.n_nodes):
        constraints.append(Constraint(frozenset(), frozenset({reach[node]})))
    return Program(table, rules, constraints)


def gen_reachability(graph: Graph, source: int, target: int) -> Program:
    """Answer sets biject with subsets of intermediate nodes kept "up" under
    which target stays reachable from source. Cyclic graphs are non-tight."""
    if source == target:
        raise ValueError("source and target must differ")
    for node in (source, target):
        if not (0 <= node < graph.n_nodes):
            raise ValueError(f"node {node} out of range")
    table = SymbolTable()
    rules = []
    up = {}
    for node in range(graph.n_nodes):
        if node in (source, target):
            continue
        u = table.intern(f"up({node})")
        d = table.intern(f"down({node})")
        rules.append(Rule(u, frozenset(), frozenset({d})))
        rules.append(Rule(d, frozenset(), frozenset({u})))
        up[node] = u
    reach = [table.intern(f"r({v})") for v in range(graph.n_nodes)]
    rules.append(Rule(reach[source], frozenset(), frozenset()))
    for u, v in sorted(graph.edges):
        body = {reach[u]}
        if v not in (source, target):
            body.add(up[v])
        rules.append(Rule(reach[v], frozenset(body), frozenset()))
    constraints = [Constraint(frozenset(), frozenset({reach[target]}))]
    return Program(table, rules, constraints)
