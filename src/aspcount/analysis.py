"""Derivable atoms, positive dependency graph, SCCs, loop atoms, tightness."""

from __future__ import annotations

from dataclasses import dataclass

from .program import AtomId, Program


@dataclass(frozen=True)
class DepGraph:
    """Edges run head -> positive-body atom; constraints contribute nothing.

    Loop membership only depends on directed cycles, so the orientation
    choice is immaterial for everything downstream.
    """

    n_nodes: int
    edges: frozenset[tuple[AtomId, AtomId]]

    def successors(self) -> list[list[AtomId]]:
        succ: list[list[AtomId]] = [[] for _ in range(self.n_nodes)]
        for u, v in self.edges:
            succ[u].append(v)
        return succ


@dataclass(frozen=True)
class LoopInfo:
    """`scc_of[v]` is the index of atom v's SCC of the dependency graph.
    Indices are dense from 0 and in a topological order of the SCCs: an edge
    u -> v between two SCCs, from a rule's head to a positive body atom, has
    scc_of[u] < scc_of[v]. `loop_atoms` are the atoms on a directed cycle."""

    scc_of: tuple[int, ...]
    loop_atoms: frozenset[AtomId]


def derivable_atoms(program: Program) -> frozenset[AtomId]:
    """D, the least model of the rules with their negative bodies dropped,
    in one pass that counts each rule's positive body atoms not yet derived.

    Every answer set M is the least model of the reduct P^M, whose rules
    are rules of P with their negative literals removed, so M lies inside D
    and a rule whose positive body is not inside D never fires."""
    waiting = [len(r.pos_body) for r in program.rules]
    rules_of: list[list[int]] = [[] for _ in range(program.n_atoms)]
    for i, r in enumerate(program.rules):
        for b in r.pos_body:
            rules_of[b].append(i)
    derived = set()
    todo = [r.head for r in program.rules if not r.pos_body]
    while todo:
        a = todo.pop()
        if a in derived:
            continue
        derived.add(a)
        for i in rules_of[a]:
            waiting[i] -= 1
            if not waiting[i]:
                todo.append(program.rules[i].head)
    return frozenset(derived)


def build_dep_graph(program: Program) -> DepGraph:
    edges = set()
    for r in program.rules:
        for b in r.pos_body:
            edges.add((r.head, b))
    return DepGraph(program.n_atoms, frozenset(edges))


def compute_loop_atoms(graph: DepGraph) -> LoopInfo:
    """Atoms on some directed cycle: SCC of size >= 2, or a self-edge.

    SCCs by Kosaraju's two traversals, both iterative and linear in nodes
    plus edges: a DFS that lists the nodes by finishing time, then searches
    over the reversed edges, latest-finished node first, each of which
    labels one SCC with the next index."""
    n = graph.n_nodes
    succ = graph.successors()
    finished: list[AtomId] = []
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(succ[root]))]
        while stack:
            v, rest = stack[-1]
            for w in rest:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(succ[w])))
                    break
            else:
                stack.pop()
                finished.append(v)
    pred: list[list[AtomId]] = [[] for _ in range(n)]
    for u, v in graph.edges:
        pred[v].append(u)
    scc_of = [-1] * n
    n_sccs = 0
    loop = {v for v, w in graph.edges if v == w}
    for root in reversed(finished):
        if scc_of[root] != -1:
            continue
        scc_of[root] = n_sccs
        members = [root]
        for v in members:  # grows while the search reaches new nodes
            for u in pred[v]:
                if scc_of[u] == -1:
                    scc_of[u] = n_sccs
                    members.append(u)
        if len(members) > 1:
            loop.update(members)
        n_sccs += 1
    return LoopInfo(tuple(scc_of), frozenset(loop))
