"""Seeded workload instances as `.gnp` program text.

The encodings follow the reachability, Hamiltonian-cycle and path families
of the package's generators, but are written out here so that a change to
those generators or to the program model cannot silently change what the
benchmark measures. Each instance carries the plain graph or size its
reference count is computed from; the program under test sees only `text`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Instance:
    index: int
    text: str
    n_nodes: int
    edges: tuple[tuple[int, int], ...]  # empty for path instances


def random_digraph(rng: random.Random, n: int, m: int) -> tuple[tuple[int, int], ...]:
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    return tuple(sorted(rng.sample(pairs, m)))


def reach_text(n: int, edges, source: int, target: int) -> str:
    """Answer sets = subsets of intermediate nodes kept up under which the
    target stays reachable from the source. Cyclic graphs are non-tight."""
    out = []
    for v in range(n):
        if v not in (source, target):
            out.append(f"up({v}) :- not down({v}).")
            out.append(f"down({v}) :- not up({v}).")
    out.append(f"r({source}).")
    for u, v in edges:
        if v in (source, target):
            out.append(f"r({v}) :- r({u}).")
        else:
            out.append(f"r({v}) :- r({u}), up({v}).")
    out.append(f":- not r({target}).")
    return "\n".join(out) + "\n"


def ham_text(n: int, edges) -> str:
    """Answer sets = directed Hamiltonian cycles: an in/out choice per edge,
    exactly one chosen edge out of and into every node, and every node
    reachable from node 0 over chosen edges."""
    out = []
    for u, v in edges:
        out.append(f"in({u},{v}) :- not out({u},{v}).")
        out.append(f"out({u},{v}) :- not in({u},{v}).")
    for node in range(n):
        for end, tag in ((0, "picked_out"), (1, "picked_in")):
            group = [e for e in edges if e[end] == node]
            for u, v in group:
                out.append(f"{tag}({node}) :- in({u},{v}).")
            out.append(f":- not {tag}({node}).")
            for i, (a, b) in enumerate(group):
                for c, d in group[i + 1 :]:
                    out.append(f":- in({a},{b}), in({c},{d}).")
    for u, v in edges:
        if u == 0:
            out.append(f"r({v}) :- in({u},{v}).")
        out.append(f"r({v}) :- r({u}), in({u},{v}).")
    for node in range(n):
        out.append(f":- not r({node}).")
    return "\n".join(out) + "\n"


def path_text(n: int) -> str:
    """n negation pairs with no two consecutive x atoms true; tight."""
    out = []
    for i in range(n):
        out.append(f"x{i} :- not y{i}.")
        out.append(f"y{i} :- not x{i}.")
    for i in range(n - 1):
        out.append(f":- x{i}, x{i + 1}.")
    return "\n".join(out) + "\n"


def _reach(rng: random.Random, n: int):
    edges = random_digraph(rng, n, round(2.3 * n))
    return reach_text(n, edges, 0, n - 1), n, edges


def _ham(rng: random.Random, m: int):
    edges = random_digraph(rng, HAM_NODES, m)
    return ham_text(HAM_NODES, edges), HAM_NODES, edges


def _path(rng: random.Random, n: int):
    return path_text(n), n, ()


HAM_NODES = 9

# workload name -> (size values, instance maker, engine call). The size is
# n for reach and path, and the edge count for ham (density 0.40-0.55 over
# 72 ordered pairs). Reach and ham graphs are kept small (12 and 9 nodes)
# so that a 30-second run solves about a thousand instances, which keeps p50
# and p90 steady from seed to seed; decompose still takes about 70% of reach
# search time and propagate about 75% of ham search time.
WORKLOADS = {
    "reach-count": ((12,), _reach, "count"),
    "path-count": (tuple(range(30, 111)), _path, "count"),
    "ham-hybrid": (tuple(range(29, 41)), _ham, "hybrid"),
}


def instances(workload: str, seed: int):
    """Endless, deterministic instance stream for one workload and seed.

    Sizes are drawn in blocks, each block a seeded permutation of all size
    values, so that every run of a few hundred instances sees nearly the
    same size mix and the spread between seeds stays small."""
    sizes, make, _ = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    index = 0
    while True:
        block = list(sizes)
        rng.shuffle(block)
        for size in block:
            yield Instance(index, *make(rng, size))
            index += 1
