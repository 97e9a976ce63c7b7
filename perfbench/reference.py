"""Reference counts that share no code with the package under test.

Each workload's count has a plain combinatorial meaning, so it is computed
straight from the graph or the size: a memoised frontier search for
reachability, a Held-Karp subset DP for Hamiltonian cycles, and the
Fibonacci closed form for paths. `self_check` tests these against
hand-computed cases and exhaustive enumeration before any run is trusted.
"""

from __future__ import annotations

import itertools
import math


def _adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
    return adj


def reach_count(n: int, edges, source: int, target: int) -> int:
    """Subsets of intermediate nodes (all but source and target) under which
    target is reachable from source through kept nodes.

    The search grows the reached set R one frontier node at a time, deciding
    it kept (joins R) or dropped (joins D); once target is adjacent to R,
    every undecided node is free."""
    adj = _adjacency(n, edges)
    inter = ((1 << n) - 1) & ~(1 << source) & ~(1 << target)
    memo: dict[tuple[int, int], int] = {}

    def count(reached: int, dropped: int, frontier: int) -> int:
        if frontier >> target & 1:
            return 1 << bin(inter & ~reached & ~dropped).count("1")
        open_ = frontier & inter & ~reached & ~dropped
        if not open_:
            return 0
        key = (reached, dropped)
        got = memo.get(key)
        if got is None:
            low = open_ & -open_
            v = low.bit_length() - 1
            got = count(reached | low, dropped, frontier | adj[v]) + count(
                reached, dropped | low, frontier
            )
            memo[key] = got
        return got

    return count(1 << source, 0, adj[source])


def reach_count_brute(n: int, edges, source: int, target: int) -> int:
    adj = _adjacency(n, edges)
    inter = [v for v in range(n) if v not in (source, target)]
    total = 0
    for k in range(len(inter) + 1):
        for kept in itertools.combinations(inter, k):
            allowed = (1 << source) | (1 << target)
            for v in kept:
                allowed |= 1 << v
            seen = 1 << source
            stack = [source]
            while stack:
                nxt = adj[stack.pop()] & allowed & ~seen
                seen |= nxt
                while nxt:
                    low = nxt & -nxt
                    stack.append(low.bit_length() - 1)
                    nxt ^= low
            total += seen >> target & 1
    return total


def ham_cycles(n: int, edges) -> int:
    """Directed Hamiltonian cycles, each counted once (paths start at node 0)."""
    adj = _adjacency(n, edges)
    full = (1 << n) - 1
    # paths[mask][v]: paths from 0 visiting exactly mask, ending at v
    paths = [[0] * n for _ in range(1 << n)]
    paths[1][0] = 1
    for mask in range(1, 1 << n, 2):
        row = paths[mask]
        for v in range(n):
            ways = row[v]
            if not ways:
                continue
            nxt = adj[v] & ~mask
            while nxt:
                low = nxt & -nxt
                paths[mask | low][low.bit_length() - 1] += ways
                nxt ^= low
    return sum(paths[full][v] for v in range(1, n) if adj[v] & 1)


def path_count(n: int) -> int:
    """Independent sets of a path with n nodes: Fibonacci(n + 2)."""
    a, b = 0, 1
    for _ in range(n + 2):
        a, b = b, a + b
    return a


def reference_count(workload: str, inst) -> int:
    if workload == "reach-count":
        return reach_count(inst.n_nodes, inst.edges, 0, inst.n_nodes - 1)
    if workload == "ham-hybrid":
        return ham_cycles(inst.n_nodes, inst.edges)
    return path_count(inst.n_nodes)


def self_check(rng) -> None:
    """Raises AssertionError when a reference disagrees with a case whose
    answer is known by hand or by exhaustive enumeration."""
    for n in range(2, 8):
        complete = [(u, v) for u in range(n) for v in range(n) if u != v]
        if ham_cycles(n, complete) != math.factorial(n - 1):
            raise AssertionError(f"ham_cycles(K_{n}) != {n - 1}!")
    if ham_cycles(4, [(0, 1), (1, 2), (2, 3), (3, 0)]) != 1:
        raise AssertionError("ham_cycles of a 4-cycle != 1")
    if ham_cycles(4, [(0, 1), (1, 2), (2, 0), (2, 3)]) != 0:
        raise AssertionError("ham_cycles of a graph with a sink != 0")
    if [path_count(n) for n in range(6)] != [1, 2, 3, 5, 8, 13]:
        raise AssertionError("path_count disagrees with Fibonacci(n + 2)")
    # a chain 0 -> 1 -> ... -> n-1 needs every intermediate node kept
    for n in range(2, 7):
        chain = [(v, v + 1) for v in range(n - 1)]
        if reach_count(n, chain, 0, n - 1) != 1:
            raise AssertionError(f"reach_count of a {n}-chain != 1")
    if reach_count(4, [(0, 3), (1, 2)], 0, 3) != 4:
        raise AssertionError("reach_count with a direct edge != 2^2")
    for _ in range(40):
        n = rng.randint(3, 9)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        edges = rng.sample(pairs, rng.randint(0, min(len(pairs), 3 * n)))
        got = reach_count(n, edges, 0, n - 1)
        want = reach_count_brute(n, edges, 0, n - 1)
        if got != want:
            raise AssertionError(f"reach_count {got} != brute force {want} on {edges}")
