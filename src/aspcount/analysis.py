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


@dataclass(frozen=True)
class LoopInfo:
    """`loop_atoms` are the atoms on a directed cycle of the dependency
    graph; a program is tight when it has none."""

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

    SCCs by Kosaraju's two traversals, both iterative and linear in edges:
    a DFS that lists the nodes by finishing time, then searches over the
    reversed edges, latest-finished node first, each of which collects the
    unclaimed nodes of one SCC. An atom with no edge is an SCC of its own
    and on no cycle, so neither traversal visits it: a program with no
    positive body costs nothing here."""
    succ: dict[AtomId, list[AtomId]] = {}
    pred: dict[AtomId, list[AtomId]] = {}
    for u, v in graph.edges:
        succ.setdefault(u, []).append(v)
        pred.setdefault(v, []).append(u)
    finished: list[AtomId] = []
    seen = set()
    for root in succ:  # every node with an edge is a root or reached from one
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(succ[root]))]
        while stack:
            v, rest = stack[-1]
            for w in rest:
                if w not in seen:
                    seen.add(w)
                    stack.append((w, iter(succ.get(w, ()))))
                    break
            else:
                stack.pop()
                finished.append(v)
    claimed = set()
    loop = {v for v, w in graph.edges if v == w}
    for root in reversed(finished):
        if root in claimed:
            continue
        claimed.add(root)
        members = [root]
        for v in members:  # grows while the search reaches new nodes
            for u in pred.get(v, ()):
                if u not in claimed:
                    claimed.add(u)
                    members.append(u)
        if len(members) > 1:
            loop.update(members)
    return LoopInfo(frozenset(loop))
