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
    """Atoms on some directed cycle: SCC of size >= 2, or a self-edge."""
    scc_of = _tarjan(graph.n_nodes, graph.successors())
    size: dict[int, int] = {}
    for c in scc_of:
        size[c] = size.get(c, 0) + 1
    loop = {v for v in range(graph.n_nodes) if size[scc_of[v]] >= 2}
    loop |= {v for v, w in graph.edges if v == w}
    return LoopInfo(tuple(scc_of), frozenset(loop))


def _tarjan(n: int, succ: list[list[int]]) -> list[int]:
    """Iterative Tarjan; returns scc index per node (linear in nodes + edges)."""
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    scc_of = [-1] * n
    stack: list[int] = []
    counter = 0
    n_sccs = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, ei = work[-1]
            if ei == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while ei < len(succ[v]):
                w = succ[v][ei]
                ei += 1
                if index[w] == -1:
                    work[-1] = (v, ei)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if lowlink[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    scc_of[w] = n_sccs
                    if w == v:
                        break
                n_sccs += 1
            if work:
                u = work[-1][0]
                lowlink[u] = min(lowlink[u], lowlink[v])
    return scc_of
