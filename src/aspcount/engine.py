"""Component-caching counter over the conjoined completion and copy clauses.

Search skeleton: decide an unassigned non-copy variable, propagate each
branch to fixpoint, split the parent component's unsatisfied clauses into
variable-disjoint components, count each component through an exact-key
LRU cache, multiply, and sum the branches. The search is one loop over an
explicit stack of frames, one per component being branched on, so its depth
never meets Python's recursion limit. Enumeration is the same loop over one
component, every non-copy variable and the copy clauses, with no cache and
no decomposition, branching on the lowest unassigned variable and stopping
once more than `limit` leaves are answers.

A component is (vars, clause ids): its sorted unassigned variables and the
ascending ids of its unsatisfied clauses. `decompose` finds components by
walking per-variable occurrence lists over the immutable canonical clauses,
restricted to the parent's clause ids. The cache key is that pair, and it
is exact: a surviving clause is unsatisfied and all its assigned literals
are false, so its residual is exactly its canonical literals restricted to
the component's variables; equal keys therefore mean identical residual
subformulas over identically-flagged variables.

The assignment is one array indexed by literal, as in MiniSat (Een &
Sorensson, SAT 2003): `lit_value[lit + n_vars]` is 1 (true), 0 (false) or
-1 (unassigned), and assigning or unassigning a literal writes the slots of
both polarities, so no literal test needs its variable or its sign.
Propagation works on the same slots. Binary clauses, most of each encoding,
are per-literal implication lists, as in sharpSAT (Thurley, SAT 2006);
clauses of three or more literals keep two watched literals over mutable
slot copies. For each literal made false, `propagate` walks its
implications first, then its watches.

Copy variables, the block from `first_copy` up (see `encode.VarTable`),
are propagated but never decided and never enumerated. One leaf test serves
both modes: once no non-copy variable is left to branch on, the component
is worth 1 if none of its clauses is unsatisfied and 0 otherwise (a loop
with no external justification). When counting, a component with no clause
left is worth a factor of 2 per free non-copy variable and 1 per free copy.
A component's variables are sorted, so its non-copies are the prefix below
`first_copy`.

Branching reuses the walk: `decompose` also counts, per variable, its
literals in its component's clauses, and `decide` takes the non-copy
variable with the highest count. The counts are never stale when read:
sibling components are variable-disjoint, and the search of one sibling
backtracks before the next is branched on, so the assignment over a
component's variables is still the one its `decompose` saw. Ties go to the
variable nearest a centroid of a tree decomposition of the primal graph
(built on the first `decide`), as in sharpSAT-TD (Korhonen & Jarvisalo,
CP 2021), so a long chain is split in its middle rather than peeled from
one end; remaining ties go to the smallest index, or to the seeded rng.
"""

from __future__ import annotations

import heapq
import time
from array import array
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import NamedTuple

from .encode import PairFormula
from .errors import ResourceLimitError

DEFAULT_CACHE_LIMIT = 1 << 30  # 1 GiB
DEFAULT_ENUM_THRESHOLD = 100_000


@dataclass
class RunStats:
    decisions: int = 0
    propagations: int = 0
    bcp_time: float = 0.0
    cache_lookups: int = 0
    cache_hits: int = 0
    cache_entries: int = 0
    peak_cache_bytes: int = 0
    path: str = ""  # set by hybrid(): "enumeration" or "counting"

    @property
    def cache_hit_pct(self) -> float:
        if not self.cache_lookups:
            return 0.0
        return 100.0 * self.cache_hits / self.cache_lookups


@dataclass(frozen=True)
class ExactCount:
    count: int


@dataclass(frozen=True)
class Exceeded:
    elapsed: float


class Component(NamedTuple):
    vars: tuple[int, ...]  # sorted, all unassigned at creation
    clause_idxs: tuple[int, ...]  # unsatisfied clauses over vars, ascending


def cache_key_bytes(variables, clause_idxs) -> bytes:
    """Exact component key: the variable count, the sorted variable ids,
    then the ascending clause ids (see the module docstring for why)."""
    return array("i", (len(variables), *variables, *clause_idxs)).tobytes()


class Engine:
    """One engine instance = one single-threaded search over one PairFormula."""

    def __init__(
        self,
        pair: PairFormula,
        *,
        use_cache: bool = True,
        cache_limit_bytes: int = DEFAULT_CACHE_LIMIT,
        seed: int | None = None,
        budget: float | None = None,
    ):
        self.n_vars = n = pair.n_vars
        self.first_copy = pair.vars.first_copy
        self.canon = pair.completion.clauses + pair.copy_clauses.clauses
        # enumeration's one component: every non-copy variable, copy clauses
        self._enum_root = Component(
            range(self.first_copy), range(len(pair.completion), len(self.canon))
        )
        self._has_empty_clause = any(not c for c in self.canon)
        self._unit_lits = [c[0] for c in self.canon if len(c) == 1]
        # A literal l has the slot l + n_vars, in `lit_value` and here.
        # Indexed by the slot of a literal made false: the (implied slot,
        # clause id) of each binary clause holding it, and the ids of the
        # long clauses (three or more literals) that watch it. clauses[ci]
        # is long clause ci as slots, watches in front (propagate swaps
        # them), or None for a shorter clause.
        implied: list[list[tuple[int, int]]] = [[] for _ in range(2 * n + 1)]
        watches: list[list[int]] = [[] for _ in range(2 * n + 1)]
        clauses: list[list[int] | None] = []
        for ci, c in enumerate(self.canon):
            long = None
            if len(c) == 2:
                a, b = c
                implied[a + n].append((b + n, ci))
                implied[b + n].append((a + n, ci))
            elif len(c) > 2:
                long = [l + n for l in c]
                watches[long[0]].append(ci)
                watches[long[1]].append(ci)
            clauses.append(long)
        self.implied = implied
        self.watches = watches
        self.clauses = clauses

        self.use_cache = use_cache
        self.cache_limit_bytes = cache_limit_bytes
        self.rng = None
        if seed is not None:
            import random

            self.rng = random.Random(seed)
        self.budget = budget
        self._deadline: float | None = None
        # decompose's occurrence lists, literal pairs and stamp arrays; built
        # by its first call, so that enumeration and set-up never pay for them
        self._occ: list[list[int]] | None = None
        self._lit_pairs: list[tuple[tuple[int, int], ...]] = []
        self._clause_mark: list[int] = []
        self._var_mark: list[int] = []
        self._score: list[int] = []
        self._stamp = 0
        # decide's tie ranks, built by its first call from the literal pairs
        self._tie: list[int] | None = None
        self._tie_span = 0

        self.reset()

    # -- assignment & propagation ------------------------------------------

    def reset(self):
        """A fresh empty assignment, trail, statistics and cache."""
        self.lit_value = [-1] * (2 * self.n_vars + 1)
        self.trail: list[int] = []
        self.qhead = 0
        self.stats = RunStats()
        self._cache: OrderedDict[bytes, int] = OrderedDict()
        self._cache_bytes = 0

    def assign(self, lit: int) -> bool:
        """Sets lit as a propagated literal, writing both its slot and its
        negation's in `lit_value`; returns False when it contradicts the
        current assignment."""
        value = self.lit_value
        n = self.n_vars
        cur = value[n + lit]
        if cur != -1:
            return cur == 1
        value[n + lit] = 1
        value[n - lit] = 0
        self.trail.append(lit)
        self.stats.propagations += 1
        return True

    def propagate(self) -> int | None:
        """Unit propagation to fixpoint; returns a falsified clause id or None.

        For each trail literal from `qhead` on, the slot of its negation is
        visited: its binary implications first, then the clauses of three or
        more literals watching it, whose other watch is moved to a literal
        not yet false where one exists."""
        t0 = time.perf_counter()
        value = self.lit_value
        implied = self.implied
        watches = self.watches
        clauses = self.clauses
        trail = self.trail
        n = self.n_vars
        n2 = 2 * n  # slot of -lit is n2 minus the slot of lit
        qhead = self.qhead
        found = 0
        conflict = None
        while qhead < len(trail):
            f = n - trail[qhead]  # the slot just made false
            qhead += 1
            for s, ci in implied[f]:
                x = value[s]
                if x == -1:
                    value[s] = 1
                    value[n2 - s] = 0
                    trail.append(s - n)
                    found += 1
                elif not x:
                    conflict = ci
                    break
            if conflict is not None:
                break
            wl = watches[f]
            i = 0
            end = len(wl)
            while i < end:
                ci = wl[i]
                clause = clauses[ci]
                if clause[0] == f:
                    clause[0] = clause[1]
                    clause[1] = f
                other = clause[0]
                x = value[other]
                if x == 1:
                    i += 1
                    continue
                for j in range(2, len(clause)):
                    s = clause[j]
                    if value[s]:  # unassigned (-1) or true (1)
                        clause[1] = s
                        clause[j] = f
                        end -= 1
                        wl[i] = wl[end]
                        wl.pop()
                        watches[s].append(ci)
                        break
                else:
                    if x:  # unassigned: the clause is unit
                        value[other] = 1
                        value[n2 - other] = 0
                        trail.append(other - n)
                        found += 1
                        i += 1
                    else:
                        conflict = ci
                        break
            if conflict is not None:
                break
        self.qhead = qhead
        self.stats.propagations += found
        self.stats.bcp_time += time.perf_counter() - t0
        return conflict

    def backtrack(self, mark: int):
        """Unassigns every trail literal from `mark` on, both slots of each."""
        value = self.lit_value
        n = self.n_vars
        trail = self.trail
        for lit in trail[mark:]:
            value[n + lit] = -1
            value[n - lit] = -1
        del trail[mark:]
        self.qhead = mark

    def _apply_initial(self, assumptions=()) -> bool:
        """Level-0 units and assumptions; False on immediate conflict."""
        if self._has_empty_clause:
            return False
        for lit in self._unit_lits:
            if not self.assign(lit):
                return False
        for lit in assumptions:
            if not self.assign(lit):
                return False
        return self.propagate() is None

    # -- decomposition & branching -----------------------------------------

    def decompose(self, variables, clause_idxs) -> list[Component]:
        """Variable-disjoint components of the unsatisfied clauses among
        `clause_idxs`, in ascending order of their smallest variable.
        Unassigned variables in no such clause come back as free singletons.
        Needs a conflict-free propagation fixpoint: every unsatisfied clause
        then has an unassigned variable, from which the walk reaches it.
        Also sets `_score[w]`, for each variable w of each component, to the
        number of w's literals in the component's clauses; `decide` reads it."""
        occ = self._occ
        if occ is None:
            occ = self._build_occurrences()
        lit_pairs = self._lit_pairs
        value = self.lit_value
        cmark = self._clause_mark
        vmark = self._var_mark
        score = self._score
        pos = self.n_vars + 1  # variable v's literal v + 1 has the slot pos + v
        self._stamp += 2
        live = self._stamp  # clause of the parent, not yet checked
        seen = live + 1  # clause checked, or variable reached
        for ci in clause_idxs:
            cmark[ci] = live
        comps = []
        for v in variables:
            if value[pos + v] != -1 or vmark[v] == seen:
                continue
            vmark[v] = seen
            score[v] = 0
            cvars = [v]
            cids = []
            for u in cvars:  # grows while the walk reaches new variables
                for ci in occ[u]:
                    if cmark[ci] != live:
                        continue
                    cmark[ci] = seen
                    pairs = lit_pairs[ci]
                    for _, s in pairs:
                        if value[s] == 1:
                            break  # satisfied
                    else:
                        cids.append(ci)
                        for w, s in pairs:
                            if value[s] == -1:
                                if vmark[w] == seen:
                                    score[w] += 1
                                else:
                                    vmark[w] = seen
                                    score[w] = 1
                                    cvars.append(w)
            cvars.sort()
            cids.sort()
            comps.append(Component(tuple(cvars), tuple(cids)))
        return comps

    def _build_occurrences(self) -> list[list[int]]:
        # (variable, literal slot) per canonical literal
        n = self.n_vars
        self._lit_pairs = [tuple((abs(l) - 1, l + n) for l in c) for c in self.canon]
        occ: list[list[int]] = [[] for _ in range(n)]
        for ci, pairs in enumerate(self._lit_pairs):
            for w, _ in pairs:
                occ[w].append(ci)
        self._occ = occ
        self._clause_mark = [0] * len(self.canon)
        self._var_mark = [0] * self.n_vars
        self._score = [0] * self.n_vars
        return occ

    def decide(self, comp: Component) -> int | None:
        """Non-copy variable of a component returned by `decompose` with the
        most literals in the component's clauses, read from `_score`. Ties go
        to the lowest tree-decomposition level (see `_build_tie`), then to
        the smallest index; the seeded rng instead picks among the variables
        tied on both score and level.

        `_score` is current for every component the search passes here: it
        was returned by the latest `decompose` to reach its variables (the
        components of one split are variable-disjoint and each is searched
        and backtracked before the next), and the assignment over its
        variables has not changed since."""
        free = comp.vars[: bisect_left(comp.vars, self.first_copy)]
        if not free:
            return None
        score = self._score
        tie = self._tie
        if tie is None:
            tie = self._build_tie()
        span = self._tie_span
        # one int per candidate, ordered by (score, -level, -index); the
        # variable is its key modulo first_copy, negated
        top = max([score[v] * span + tie[v] for v in free])
        best = -top % self.first_copy
        if self.rng is None:
            return best
        group = top + best
        return self.rng.choice([v for v in free if score[v] * span + tie[v] + v == group])

    def _build_tie(self) -> list[int]:
        """Tie ranks from a tree decomposition of the primal graph of the
        non-copy variables, as in Korhonen & Jarvisalo (CP 2021).

        A min-degree elimination makes one bag per eliminated variable (it
        and its neighbours at that moment); once the minimum degree is the
        number of variables left minus one, the rest is a clique and forms
        one last bag. A bag's parent is the bag of its first-eliminated other
        member. Centroid decomposition of that forest gives each bag a level
        (0 for each tree's centroid, one more per split), and a variable
        takes the lowest level of the bags holding it, so the separators of
        the largest pieces rank first. `_tie[v]` is -(level * first_copy + v)."""
        n = self.first_copy
        adj: list[set[int]] = [set() for _ in range(n)]
        for pairs in self._lit_pairs:
            vs = [w for w, _ in pairs if w < n]
            for w in vs:
                adj[w].update(vs)
        for w in range(n):
            adj[w].discard(w)

        # min-degree elimination; bags[i] is the bag made by step i
        pos = [-1] * n
        bags: list[list[int]] = []
        heap = [(len(adj[w]), w) for w in range(n)]
        heapq.heapify(heap)
        left = n
        while heap:
            d, w = heapq.heappop(heap)
            if pos[w] != -1 or d != len(adj[w]):
                continue  # eliminated, or its degree has changed since
            if d == left - 1:
                rest = [u for u in range(n) if pos[u] == -1]
                for u in rest:
                    pos[u] = len(bags)
                bags.append(rest)
                break
            pos[w] = len(bags)
            nbrs = adj[w]
            bags.append([w, *nbrs])
            for u in nbrs:
                a = adj[u]
                a.discard(w)
                a.update(nbrs)
                a.discard(u)
                heapq.heappush(heap, (len(a), u))
            left -= 1

        # the elimination forest, then its centroid decomposition
        # (n >= 1 here, so the loop above ended on the clique bag)
        nb = len(bags)
        tree: list[list[int]] = [[] for _ in range(nb)]
        todo = [(nb - 1, 0)]  # (bag, level) per piece to split; the roots first
        for i in range(nb - 1):
            others = bags[i][1:]
            if others:
                up = min([pos[u] for u in others])
                tree[i].append(up)
                tree[up].append(i)
            else:
                todo.append((i, 0))
        level = [-1] * nb  # -1 until the bag is a centroid
        par = [-1] * nb  # parent within the piece being split
        size = [1] * nb  # subtree size within that piece
        while todo:
            root, lev = todo.pop()
            par[root] = -1
            size[root] = 1
            order = [root]
            for b in order:  # the piece of the forest still holding root
                for c in tree[b]:
                    if level[c] == -1 and c != par[b]:
                        par[c] = b
                        size[c] = 1
                        order.append(c)
            for b in reversed(order):
                if b != root:
                    size[par[b]] += size[b]
            half = len(order) // 2
            centroid = root
            while True:  # step into the child holding over half, if any
                for c in tree[centroid]:
                    if level[c] == -1 and par[c] == centroid and size[c] > half:
                        centroid = c
                        break
                else:
                    break
            level[centroid] = lev
            todo.extend((c, lev + 1) for c in tree[centroid] if level[c] == -1)
        var_level = [nb] * n
        for i, bag in enumerate(bags):
            for u in bag:
                if level[i] < var_level[u]:
                    var_level[u] = level[i]
        self._tie_span = (max(var_level, default=0) + 1) * n
        self._tie = [-(var_level[v] * n + v) for v in range(n)]
        return self._tie

    # -- search ------------------------------------------------------------

    def count(self, assumptions=()) -> tuple[int, RunStats]:
        """Exact answer-set count of the models that make every assumption
        literal true. Resets search state (cache included); the time budget
        runs from this call."""
        assumptions = tuple(assumptions)
        for lit in assumptions:
            # a literal outside +-1..n_vars would index some other slot
            if not 0 < abs(lit) <= self.n_vars:
                raise ValueError(f"assumption {lit} is not a literal of this formula")
        self._arm_deadline()
        return self._count(assumptions)

    def _count(self, assumptions=()) -> tuple[int, RunStats]:
        self.reset()
        if not self._apply_initial(assumptions):
            return 0, self._finalize()
        roots = self.decompose(range(self.n_vars), range(len(self.canon)))
        return self._search(roots), self._finalize()

    def _finalize(self) -> RunStats:
        self.stats.cache_entries = len(self._cache)
        return self.stats

    def _arm_deadline(self):
        if self.budget is not None:
            self._deadline = time.perf_counter() + self.budget

    def _check_deadline(self):
        if self._deadline is not None and time.perf_counter() > self._deadline:
            raise ResourceLimitError("time budget exhausted", self._finalize())

    def _store(self, key: bytes, val: int):
        """Caches one component value, evicting least recently used entries
        to stay under the byte cap."""
        cache = self._cache
        size = len(key) + 64 + (val.bit_length() >> 3)
        while self._cache_bytes + size > self.cache_limit_bytes and cache:
            old_key, old_val = cache.popitem(last=False)
            self._cache_bytes -= len(old_key) + 64 + (old_val.bit_length() >> 3)
        if size > self.cache_limit_bytes:
            raise ResourceLimitError(
                "one cache entry exceeds the cache byte cap", self._finalize()
            )
        cache[key] = val
        self._cache_bytes += size
        if self._cache_bytes > self.stats.peak_cache_bytes:
            self.stats.peak_cache_bytes = self._cache_bytes

    def _leaf_value(self, clause_idxs) -> int:
        """1 if none of the clauses is unsatisfied, else 0 (a loop with no
        external justification); asked once no non-copy variable is left."""
        value = self.lit_value
        n = self.n_vars
        canon = self.canon
        for ci in clause_idxs:
            for l in canon[ci]:
                if value[n + l] == 1:
                    break
            else:
                return 0
        return 1

    def _search(self, roots, limit: int | None = None) -> int | None:
        """Product of the values of the components `roots`, by a depth-first
        search over one explicit stack of frames, one frame per component
        being branched on; the frame on top lives in local variables.

        Counting (`limit` is None) looks each component up in the cache
        before anything else, splits each branch with `decompose` and caches
        the sum of the two branches. Enumeration (`limit` set) is given one
        root and no cache; the open branch's only component is the frame's
        own, it branches on the lowest unassigned variable, and the search
        returns None as soon as more than `limit` leaves are answers."""
        counting = limit is None
        caching = counting and self.use_cache
        value = self.lit_value
        n = self.n_vars
        pos = n + 1  # slot of variable 0's literal 1
        trail = self.trail
        stats = self.stats
        first_copy = self.first_copy
        cache = self._cache
        key_of = cache_key_bytes  # read per call, so a patched name is used
        decompose = self.decompose
        decide = self.decide
        propagate = self.propagate
        backtrack = self.backtrack
        check_deadline = self._check_deadline
        leaf_value = self._leaf_value
        store = self._store
        found = 0
        stack = []  # the frames below the top one
        # the top frame: its component (None for the root frame) and cache
        # key, second branch literal (0 once taken), trail mark, sum over its
        # finished branches, and its open branch's components, next index
        # and running product
        comp = key = sub_key = None
        pending = total = 0
        mark = len(trail)
        subs, i, prod = roots, 0, 1
        while True:
            if prod and i < len(subs):
                sub = subs[i]
                i += 1
                if caching:
                    sub_key = key_of(sub.vars, sub.clause_idxs)
                    stats.cache_lookups += 1
                    got = cache.get(sub_key)
                    if got is not None:
                        stats.cache_hits += 1
                        cache.move_to_end(sub_key)
                        prod *= got
                        continue
                check_deadline()
                if counting:
                    # with no clause left, the free non-copies are counted
                    # unbranched; a free copy never tells answer sets apart
                    n_free = bisect_left(sub.vars, first_copy)
                    v = decide(sub) if n_free and sub.clause_idxs else None
                else:
                    # the lowest unassigned variable: the one component holds
                    # every non-copy variable v, whose literal v + 1 has the
                    # slot pos + v, and every variable up to the frame's own
                    # branch variable, trail[mark], was assigned when the
                    # frame was opened
                    n_free = 0
                    start = abs(trail[mark]) if comp is not None else 0
                    try:
                        v = value.index(-1, pos + start, pos + first_copy) - pos
                    except ValueError:
                        v = None
                if v is None:
                    val = leaf_value(sub.clause_idxs) << n_free
                    if val and not counting:
                        found += 1
                        if found > limit:
                            return None
                    if caching:
                        store(sub_key, val)
                    prod *= val
                    continue
                stack.append((comp, key, pending, mark, total, subs, i, prod))
                comp, key, total = sub, sub_key, 0
                mark = len(trail)
                lit = v + 1
                pending = -lit
            elif comp is None:
                return prod
            else:
                total += prod
                backtrack(mark)
                if not pending:
                    if caching:
                        store(key, total)
                    val = total
                    comp, key, pending, mark, total, subs, i, prod = stack.pop()
                    prod *= val
                    continue
                lit = pending
                pending = 0
            # set the branch literal, propagate, then open the branch
            value[n + lit] = 1
            value[n - lit] = 0
            trail.append(lit)
            stats.decisions += 1
            if propagate() is None:
                subs = decompose(comp.vars, comp.clause_idxs) if counting else (comp,)
                i, prod = 0, 1
            else:
                # the branch is worth 0; as components come only from a
                # conflict-free fixpoint, none ever holds a falsified clause
                subs, i, prod = (), 0, 0

    def enumerate_up_to(self, limit: int):
        """Depth-first enumeration over non-copy variables, no caching and
        no component product. Exceeded(elapsed) once `limit` is passed. The
        time budget runs from this call."""
        self._arm_deadline()
        return self._enumerate(limit)

    def _enumerate(self, limit: int):
        if limit < 1:
            raise ValueError("limit must be >= 1")
        self.reset()
        t0 = time.perf_counter()
        if not self._apply_initial():
            return ExactCount(0)
        found = self._search([self._enum_root], limit)
        if found is None:
            return Exceeded(time.perf_counter() - t0)
        return ExactCount(found)

    def hybrid(self, threshold: int = DEFAULT_ENUM_THRESHOLD) -> tuple[int, RunStats]:
        """Enumerate up to `threshold` answer sets; fall back to counting.
        One time budget, run from this call, covers both phases."""
        self._arm_deadline()
        result = self._enumerate(threshold)
        if isinstance(result, ExactCount):
            stats = self._finalize()
            stats.path = "enumeration"
            return result.count, stats
        enum_stats = replace(self.stats)
        n, stats = self._count()
        stats.decisions += enum_stats.decisions
        stats.propagations += enum_stats.propagations
        stats.bcp_time += enum_stats.bcp_time
        stats.path = "counting"
        return n, stats
