"""Component-caching counter over the conjoined completion and copy clauses.

Search skeleton: decide an unassigned non-copy variable, propagate each
branch to fixpoint, split the parent component's unsatisfied clauses into
variable-disjoint components, count each component through an exact-key
LRU cache, multiply, and sum the branches. The search is one loop over an
explicit stack of frames, one per component being branched on, so its depth
never meets Python's recursion limit; a frame's branch literal is the trail
literal at its mark, so it stores none. Enumeration is the same loop over one
component, every non-copy variable, with no cache and no decomposition; one
scan for the lowest unassigned variable both picks the branch variable and
values the leaf (see below), and the search stops once more than `limit`
leaves are answers.

A component is (vars, listed clause ids): its sorted unassigned variables
and the ascending ids of its unsatisfied listed clauses, those of three or
more literals. A binary clause is implied by the variables, as in sharpSAT
(Thurley, SAT 2006): at a conflict-free fixpoint it is unsatisfied exactly
when both its variables are unassigned. `decompose` finds components by
walking, from each reached variable, its binary neighbours and the
occurrence lists of its listed clauses. The cache key is that pair, and it
is exact: equal variable sets hold the same unsatisfied binary clauses, and
a listed clause in the key is unsatisfied with all its assigned literals
false, so its residual is its canonical literals restricted to the
component's variables.

The assignment is one array indexed by literal, as in MiniSat (Een &
Sorensson, SAT 2003): `lit_value[lit + n_vars]` is 1 (true), 0 (false) or
-1 (unassigned), and assigning or unassigning a literal writes the slots of
both polarities, so no literal test needs its variable or its sign.
Propagation works on the same slots and needs no clause ids. Binary
clauses, most of each encoding, are per-slot lists of implied slots, also as
in sharpSAT; a clause of three or more literals is one mutable list of slots,
its two watches in front, held by the watch lists of both. For each literal
made false, `propagate` walks its implied slots first, then its watch list,
and it reports a conflict as the literal it found false where a clause
needed it true.

Copy variables, the block from `first_copy` up (see `encode.VarTable`),
are propagated but never decided and never enumerated. A component's
variables are sorted, so its non-copies are the prefix below `first_copy`.
When counting, a component holds a clause exactly when it has two or more
variables or a listed clause. With no clause it is worth a factor of 2 per
free non-copy variable and 1 per free copy. With clauses but no non-copy
variable left to branch on it is worth 0, because every clause of a fresh
component is unsatisfied (a loop with no external justification).

Enumeration reads its leaves off the copy variables. At a conflict-free
fixpoint reached with no assumptions, a copy a' is false exactly when its
atom's literal L[a] is false:
  (i)  if a' is false, so is L[a]. Otherwise take the first copy a' on
       the trail made false while L[a] is not. A rule clause -a' | ... | z'
       propagated it, with z' false before it, so L[z] is false, and every
       other literal of that rule's body true; the completion then
       propagates L[a] false.
  (ii) if L[a] is false, -a' | L[a] propagates a' false.
So at a leaf, every non-copy variable assigned, an unassigned copy x' has
L[x] true, hence some body of x true, and that rule's copy clause has no
true literal: the leaf is no answer. A leaf with every variable assigned
satisfies every clause: it is an answer. The first unassigned variable
from the frame's branch variable on is thus a non-copy to branch on, a
copy (the leaf is worth 0) or none (the leaf is an answer). Count mode
takes copy-literal assumptions, under which (i) need not hold, and keeps
its own base cases.

Branching reuses the walk: `decompose` also counts, per variable, its
literals in its component's clauses, and `decide` takes the non-copy
variable with the highest count. The counts are never stale when read:
sibling components are variable-disjoint, and the search of one sibling
backtracks before the next is branched on, so the assignment over a
component's variables is still the one its `decompose` saw. Ties go to the
variable in the best-ranked separator of a nested dissection of the primal
graph on BFS layers (George & Liu, 1978; built with the occurrence lists
on the first `decompose`), after sharpSAT-TD's separators-first branching
(Korhonen & Jarvisalo, CP 2021), so a chain numbered along its length is
split in its middle, and each half in its middle, rather than peeled from
one end; remaining ties go to the smallest index, or to the seeded rng.
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
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


class Component(NamedTuple):
    vars: tuple[int, ...]  # sorted, all unassigned at creation
    clause_idxs: tuple[int, ...]  # its unsatisfied listed clauses, ascending


def cache_key_bytes(variables, clause_idxs) -> bytes:
    """Exact component key: the variable count, the sorted variable ids,
    then the ascending listed clause ids (see the module docstring for why)."""
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
        self._has_empty_clause = any(not c for c in self.canon)
        self._unit_lits = [c[0] for c in self.canon if len(c) == 1]
        # A literal l has the slot l + n_vars, in `lit_value` and here.
        # Indexed by the slot of a literal made false: the slot of the other
        # literal of each binary clause holding it, and the long clauses
        # (three or more literals) that watch it. A long clause is one
        # mutable list of slots, watches in front (propagate swaps them),
        # held by the watch lists of both its watches.
        implied: list[list[int]] = [[] for _ in range(2 * n + 1)]
        watches: list[list[list[int]]] = [[] for _ in range(2 * n + 1)]
        for c in self.canon:
            if len(c) == 2:
                a, b = c
                implied[a + n].append(b + n)
                implied[b + n].append(a + n)
            elif len(c) > 2:
                clause = [l + n for l in c]
                watches[clause[0]].append(clause)
                watches[clause[1]].append(clause)
        self.implied = implied
        self.watches = watches

        self.use_cache = use_cache
        self.cache_limit_bytes = cache_limit_bytes
        self.rng = None
        if seed is not None:
            import random

            self.rng = random.Random(seed)
        self.budget = budget
        self._deadline: float | None = None
        # decompose's binary neighbour lists, occurrence lists, literal pairs
        # and stamp arrays; built by its first call, so that enumeration and
        # set-up never pay for them
        self._nbrs: list[list[int]] = []
        self._occ: list[list[int]] | None = None
        self._lit_pairs: list[tuple[tuple[int, int], ...]] = []
        self._clause_mark: list[int] = []
        self._var_mark: list[int] = []
        self._score: list[int] = []
        self._stamp = 0
        # decide's tie ranks, built with the occurrence lists
        self._tie: list[int] | None = None
        self._tie_span = 0

        self.stats = RunStats()
        self.reset()

    # -- assignment & propagation ------------------------------------------

    def reset(self):
        """A fresh empty assignment, trail and cache; the statistics are
        begun by each public search call."""
        self.lit_value = [-1] * (2 * self.n_vars + 1)
        self.trail: list[int] = []
        self.qhead = 0
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
        """Unit propagation to fixpoint; returns None, or on a conflict the
        literal found false where a clause needed it true.

        For each trail literal from `qhead` on, the slot of its negation is
        visited: its implied slots first, then the clauses of three or more
        literals watching it, whose other watch is moved to a literal not yet
        false where one exists. The conflict literal is the implied literal
        of a binary clause or the other watch of a long one, whose clause
        then has every literal false."""
        t0 = time.perf_counter()
        value = self.lit_value
        implied = self.implied
        watches = self.watches
        trail = self.trail
        n = self.n_vars
        n2 = 2 * n  # slot of -lit is n2 minus the slot of lit
        qhead = self.qhead
        found = 0
        conflict = 0  # none yet: 0 is no literal
        while qhead < len(trail):
            f = n - trail[qhead]  # the slot just made false
            qhead += 1
            for s in implied[f]:
                x = value[s]
                if x == -1:
                    value[s] = 1
                    value[n2 - s] = 0
                    trail.append(s - n)
                    found += 1
                elif not x:
                    conflict = s - n
                    break
            if conflict:
                break
            wl = watches[f]
            i = 0
            end = len(wl)
            while i < end:
                clause = wl[i]
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
                        watches[s].append(clause)
                        break
                else:
                    if x:  # unassigned: the clause is unit
                        value[other] = 1
                        value[n2 - other] = 0
                        trail.append(other - n)
                        found += 1
                        i += 1
                    else:
                        conflict = other - n
                        break
            if conflict:
                break
        self.qhead = qhead
        self.stats.propagations += found
        self.stats.bcp_time += time.perf_counter() - t0
        return conflict or None

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
        """Level-0 units and assumptions; False on immediate conflict. The
        time budget is checked first, so a zero budget is exhausted even
        when propagation leaves nothing to search."""
        self._check_deadline()
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

    def decompose(self, variables) -> list[Component]:
        """Variable-disjoint components over the unassigned variables among
        `variables`, in ascending order of their smallest variable, each with
        its unsatisfied listed clauses; unassigned variables in no
        unsatisfied clause come back as free singletons.

        `variables` is every variable, or a component's at an earlier
        fixpoint on this branch. Satisfaction only grows down the search
        tree, so an unsatisfied clause holding one of them was then that
        component's, and the walk never leaves them. Needs a conflict-free
        propagation fixpoint: a binary clause is then unsatisfied exactly
        when both its variables are unassigned, and any unsatisfied clause
        has an unassigned variable, from which the walk reaches it.

        Also sets `_score[w]`, for each variable w of each component, to the
        number of w's literals in the component's clauses, binary ones
        included; `decide` reads it."""
        occ = self._occ
        if occ is None:
            occ = self._build_occurrences()
        nbrs = self._nbrs
        lit_pairs = self._lit_pairs
        value = self.lit_value
        cmark = self._clause_mark
        vmark = self._var_mark
        score = self._score
        pos = self.n_vars + 1  # variable v's literal v + 1 has the slot pos + v
        self._stamp += 1
        seen = self._stamp  # clause checked, or variable reached, this call
        comps = []
        for v in variables:
            if value[pos + v] != -1 or vmark[v] == seen:
                continue
            vmark[v] = seen
            score[v] = 0
            cvars = [v]
            cids = []
            for u in cvars:  # grows while the walk reaches new variables
                # each binary clause of u and an unassigned w adds one to
                # w's score here and one to u's from w's own list
                for w in nbrs[u]:
                    if value[pos + w] == -1:
                        if vmark[w] == seen:
                            score[w] += 1
                        else:
                            vmark[w] = seen
                            score[w] = 1
                            cvars.append(w)
                for ci in occ[u]:
                    if cmark[ci] == seen:
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
        # per variable, the other variable of each binary clause holding it
        # (build_pair makes no x | -x); per listed clause, (variable, literal
        # slot) per canonical literal (() for the others), and per variable
        # the listed clauses holding it. Units are never listed: at a
        # fixpoint they are satisfied.
        n = self.n_vars
        nbrs: list[list[int]] = [[] for _ in range(n)]
        occ: list[list[int]] = [[] for _ in range(n)]
        lit_pairs: list[tuple[tuple[int, int], ...]] = [()] * len(self.canon)
        for ci, c in enumerate(self.canon):
            if len(c) == 2:
                a = abs(c[0]) - 1
                b = abs(c[1]) - 1
                nbrs[a].append(b)
                nbrs[b].append(a)
            elif len(c) > 2:
                pairs = lit_pairs[ci] = tuple((abs(l) - 1, l + n) for l in c)
                for w, _ in pairs:
                    occ[w].append(ci)
        self._nbrs = nbrs
        self._lit_pairs = lit_pairs
        self._occ = occ
        self._clause_mark = [0] * len(self.canon)
        self._var_mark = [0] * n
        self._score = [0] * n
        self._build_tie()
        return occ

    def decide(self, comp: Component) -> int | None:
        """Non-copy variable of a component returned by `decompose` with the
        most literals in the component's clauses, read from `_score`. Ties go
        to the lowest BFS-layer rank (see `_build_tie`), then to the smallest
        index; the seeded rng instead picks among the variables tied on both
        score and rank.

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
        span = self._tie_span
        # one int per candidate, ordered by (score, -rank, -index); the
        # variable is its key modulo first_copy, negated
        top = max([score[v] * span + tie[v] for v in free])
        best = -top % self.first_copy
        if self.rng is None:
            return best
        group = top + best
        return self.rng.choice([v for v in free if score[v] * span + tie[v] + v == group])

    def _build_tie(self):
        """Tie ranks by nested dissection on BFS layers (George & Liu, SIAM J.
        Numer. Anal. 1978), for the separator-first branching of sharpSAT-TD
        (Korhonen & Jarvisalo, CP 2021).

        Each connected piece of the primal graph of the non-copy variables
        gets one BFS from its lowest variable, and each BFS layer separates
        the layers before it from those after it. Recursive bisection of the
        piece's distance range ranks the layers: the middle layer 0, the
        middles of the two halves 1, and so on, so the separators of the
        largest pieces rank first. A variable takes its layer's rank, and
        `_tie[v]` is -(rank * first_copy + v)."""
        n = self.first_copy
        nbrs = self._nbrs
        occ = self._occ
        lit_pairs = self._lit_pairs
        dist = [-1] * n  # BFS distance, then rank once the piece is ranked
        for root in range(n):
            if dist[root] != -1:
                continue
            dist[root] = 0
            piece = [root]
            for u in piece:  # grows while the BFS reaches new variables
                d = dist[u] + 1
                for w in nbrs[u]:
                    if w < n and dist[w] == -1:
                        dist[w] = d
                        piece.append(w)
                for ci in occ[u]:
                    for w, _ in lit_pairs[ci]:
                        if w < n and dist[w] == -1:
                            dist[w] = d
                            piece.append(w)
            # BFS order is distance order, so the last variable is the farthest
            layer_rank = [0] * (dist[piece[-1]] + 1)
            todo = [(0, len(layer_rank) - 1, 0)]
            while todo:
                lo, hi, r = todo.pop()
                if lo <= hi:
                    mid = (lo + hi) // 2
                    layer_rank[mid] = r
                    todo += (lo, mid - 1, r + 1), (mid + 1, hi, r + 1)
            for u in piece:
                dist[u] = layer_rank[dist[u]]
        self._tie_span = (max(dist, default=0) + 1) * n
        self._tie = [-(dist[v] * n + v) for v in range(n)]

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
        self._begin()
        return self._run(assumptions=assumptions)

    def _begin(self, path: str = ""):
        """Arms the time budget and starts the RunStats of one public call."""
        if self.budget is not None:
            self._deadline = time.perf_counter() + self.budget
        self.stats = RunStats(path=path)

    def _run(self, limit: int | None = None, assumptions=()) -> tuple[int | None, RunStats]:
        """One search from a fresh state: counting when `limit` is None,
        else enumeration up to `limit` answer sets (see `_search`)."""
        if limit is not None and limit < 1:
            raise ValueError("limit must be >= 1")
        self.reset()
        if not self._apply_initial(assumptions):
            return 0, self._finalize()
        if limit is None:
            roots = self.decompose(range(self.n_vars))
        else:
            # one component: every non-copy variable (enumeration never decomposes)
            roots = [Component(range(self.first_copy), ())]
        return self._search(roots, limit), self._finalize()

    def _finalize(self) -> RunStats:
        self.stats.cache_entries = len(self._cache)
        return self.stats

    def _check_deadline(self):
        if self._deadline is not None and time.perf_counter() >= self._deadline:
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

    def _search(self, roots, limit: int | None = None) -> int | None:
        """Product of the values of the components `roots`, by a depth-first
        search over one explicit stack of frames, one frame per component
        being branched on; the frame on top lives in local variables.

        Counting (`limit` is None) looks each component up in the cache
        before anything else, splits each branch with `decompose` and caches
        the sum of the two branches. Enumeration (`limit` set) is given one
        root and no cache; the open branch's only component is the frame's
        own, it branches on the lowest unassigned variable, values a leaf by
        its copies (see the module docstring), and the search returns None
        as soon as more than `limit` leaves are answers.

        A frame holds its component (None for the root frame) and cache
        key, trail mark, sum over its finished branches, and its open
        branch's components, next index and running product. Its branch
        literal is `trail[mark]`: the first branch is the branch variable's
        positive literal and the second its negation, so the frame is done
        when a branch with a negative literal there ends."""
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
        store = self._store
        found = 0
        stack = []  # the frames below the top one
        comp = key = sub_key = None
        total = 0
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
                    # a clause-free component is a free singleton: a non-copy
                    # doubles the count, a copy never tells answer sets
                    # apart; with clauses and no non-copy to branch on, the
                    # component is worth 0 (see the module docstring)
                    n_free = bisect_left(sub.vars, first_copy)
                    if len(sub.vars) > 1 or sub.clause_idxs:
                        v = decide(sub) if n_free else None
                        val = 0
                    else:
                        v = None
                        val = 1 << n_free
                else:
                    # the lowest unassigned variable: variable v's literal
                    # v + 1 has the slot pos + v, the copies come last, and
                    # every variable up to the frame's own branch variable,
                    # trail[mark], was assigned when the frame was opened
                    start = abs(trail[mark]) if comp is not None else 0
                    try:
                        v = value.index(-1, pos + start) - pos
                    except ValueError:  # every variable assigned: an answer
                        found += 1
                        if found > limit:
                            return None
                        continue
                    if v >= first_copy:  # a copy left unassigned: no answer
                        prod = 0
                        continue
                if v is None:
                    if caching:
                        store(sub_key, val)
                    prod *= val
                    continue
                stack.append((comp, key, mark, total, subs, i, prod))
                comp, key, total = sub, sub_key, 0
                mark = len(trail)
                lit = v + 1
            elif comp is None:
                return prod
            else:
                total += prod
                lit = -trail[mark]  # the second branch, or done if positive
                backtrack(mark)
                if lit > 0:
                    if caching:
                        store(key, total)
                    val = total
                    comp, key, mark, total, subs, i, prod = stack.pop()
                    prod *= val
                    continue
            # set the branch literal, propagate, then open the branch
            value[n + lit] = 1
            value[n - lit] = 0
            trail.append(lit)
            stats.decisions += 1
            if propagate() is None:
                subs = decompose(comp.vars) if counting else (comp,)
                i, prod = 0, 1
            else:
                # the branch is worth 0; as components come only from a
                # conflict-free fixpoint, none ever holds a falsified clause
                subs, i, prod = (), 0, 0

    def enumerate_up_to(self, limit: int) -> tuple[int | None, RunStats]:
        """(answer-set count, stats) by depth-first enumeration over the
        non-copy variables, no caching and no component product; the count
        is None once more than `limit` answer sets are found. The time budget
        runs from this call."""
        self._begin()
        return self._run(limit)

    def hybrid(self, threshold: int = DEFAULT_ENUM_THRESHOLD) -> tuple[int, RunStats]:
        """Enumerate up to `threshold` answer sets; fall back to counting
        when `enumerate_up_to` would return None. One time budget, run from
        this call, covers both phases, and one RunStats: counting adds to
        the enumeration's counters, and `path` names the phase running, also
        in a ResourceLimitError's stats."""
        self._begin("enumeration")
        found, stats = self._run(threshold)
        if found is not None:
            return found, stats
        self.stats.path = "counting"
        return self._run()
