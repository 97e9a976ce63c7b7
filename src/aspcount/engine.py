"""Component-caching counter over the conjoined completion and copy clauses.

Search skeleton: decide an unassigned non-copy variable, propagate each
branch to fixpoint (two watched literals over mutable copies of the
clauses), split the parent component's unsatisfied clauses into
variable-disjoint components, count each component through an exact-key
LRU cache, multiply, and sum the branches.

A component is (vars, clause ids): its sorted unassigned variables and the
ascending ids of its unsatisfied clauses. `decompose` finds components by
walking per-variable occurrence lists over the immutable canonical clauses,
restricted to the parent's clause ids. The cache key is that pair, and it
is exact: a surviving clause is unsatisfied and all its assigned literals
are false, so its residual is exactly its canonical literals restricted to
the component's variables; equal keys therefore mean identical residual
subformulas over identically-flagged variables.

Copy variables are propagated but never decided and never enumerated:
a component whose unassigned variables are all copies counts 0 (a loop
with no external justification), a free copy variable contributes a
factor of 1, and a free non-copy variable a factor of 2.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import NamedTuple

from .encode import PairFormula, VarKind
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


class _LimitHit(Exception):
    pass


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
        self.pair = pair
        self.n_vars = pair.n_vars
        self.is_copy = [info.kind is VarKind.COPY for info in pair.vars.infos]
        # canonical tuples for scanning; propagate swaps literals in the
        # mutable lists to keep its two watches in front
        self.canon = pair.completion.clauses + pair.copy_clauses.clauses
        self.clauses = [list(c) for c in self.canon]
        self.g_start = len(pair.completion)
        self._has_empty_clause = any(not c for c in self.canon)
        self._unit_lits = [c[0] for c in self.canon if len(c) == 1]
        self.watches: list[list[int]] = [[] for _ in range(2 * self.n_vars + 1)]
        for ci, c in enumerate(self.clauses):
            if len(c) >= 2:
                self.watches[c[0] + self.n_vars].append(ci)
                self.watches[c[1] + self.n_vars].append(ci)

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
        self._stamp = 0

        self.values = [-1] * self.n_vars
        self.trail: list[int] = []
        self.qhead = 0
        self.stats = RunStats()
        self._cache: OrderedDict[bytes, int] = OrderedDict()
        self._cache_bytes = 0

        sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * self.n_vars + 10_000))

    # -- assignment & propagation ------------------------------------------

    def reset(self):
        self.values = [-1] * self.n_vars
        self.trail = []
        self.qhead = 0
        self.stats = RunStats()
        self._cache = OrderedDict()
        self._cache_bytes = 0

    def assign(self, lit: int, decision: bool = False) -> bool:
        """Returns False when lit contradicts the current assignment."""
        v = abs(lit) - 1
        want = 1 if lit > 0 else 0
        cur = self.values[v]
        if cur != -1:
            return cur == want
        self.values[v] = want
        self.trail.append(lit)
        if decision:
            self.stats.decisions += 1
        else:
            self.stats.propagations += 1
        return True

    def propagate(self) -> int | None:
        """Unit propagation to fixpoint; returns a falsified clause index or None."""
        t0 = time.perf_counter()
        values = self.values
        watches = self.watches
        clauses = self.clauses
        trail = self.trail
        n = self.n_vars
        conflict = None
        while self.qhead < len(trail):
            lit = trail[self.qhead]
            self.qhead += 1
            fl = -lit
            wl = watches[fl + n]
            i = 0
            while i < len(wl):
                ci = wl[i]
                clause = clauses[ci]
                if clause[0] == fl:
                    clause[0], clause[1] = clause[1], clause[0]
                other = clause[0]
                oval = values[abs(other) - 1]
                if oval == (1 if other > 0 else 0):
                    i += 1
                    continue
                moved = False
                for j in range(2, len(clause)):
                    l2 = clause[j]
                    v2 = values[abs(l2) - 1]
                    if v2 == -1 or v2 == (1 if l2 > 0 else 0):
                        clause[1], clause[j] = l2, clause[1]
                        wl[i] = wl[-1]
                        wl.pop()
                        watches[l2 + n].append(ci)
                        moved = True
                        break
                if moved:
                    continue
                if oval == -1:
                    values[abs(other) - 1] = 1 if other > 0 else 0
                    trail.append(other)
                    self.stats.propagations += 1
                    i += 1
                else:
                    conflict = ci
                    break
            if conflict is not None:
                break
        self.stats.bcp_time += time.perf_counter() - t0
        return conflict

    def backtrack(self, mark: int):
        values = self.values
        trail = self.trail
        while len(trail) > mark:
            values[abs(trail.pop()) - 1] = -1
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
        then has an unassigned variable, from which the walk reaches it."""
        occ = self._occ
        if occ is None:
            occ = self._build_occurrences()
        lit_pairs = self._lit_pairs
        values = self.values
        cmark = self._clause_mark
        vmark = self._var_mark
        self._stamp += 2
        live = self._stamp  # clause of the parent, not yet checked
        seen = live + 1  # clause checked, or variable reached
        for ci in clause_idxs:
            cmark[ci] = live
        comps = []
        for v in variables:
            if values[v] != -1 or vmark[v] == seen:
                continue
            vmark[v] = seen
            cvars = [v]
            cids = []
            for u in cvars:  # grows while the walk reaches new variables
                for ci in occ[u]:
                    if cmark[ci] != live:
                        continue
                    cmark[ci] = seen
                    pairs = lit_pairs[ci]
                    for w, true_val in pairs:
                        if values[w] == true_val:
                            break  # satisfied
                    else:
                        cids.append(ci)
                        for w, _ in pairs:
                            if vmark[w] != seen and values[w] == -1:
                                vmark[w] = seen
                                cvars.append(w)
            cvars.sort()
            cids.sort()
            comps.append(Component(tuple(cvars), tuple(cids)))
        return comps

    def _build_occurrences(self) -> list[list[int]]:
        # (variable, value that makes the literal true) per canonical literal
        self._lit_pairs = [
            tuple((abs(l) - 1, 1 if l > 0 else 0) for l in c) for c in self.canon
        ]
        occ: list[list[int]] = [[] for _ in range(self.n_vars)]
        for ci, pairs in enumerate(self._lit_pairs):
            for w, _ in pairs:
                occ[w].append(ci)
        self._occ = occ
        self._clause_mark = [0] * len(self.canon)
        self._var_mark = [0] * self.n_vars
        return occ

    def decide(self, comp: Component) -> int | None:
        """Unassigned non-copy variable with the most occurrences in the
        component's clauses; ties go to the smallest index (or the seeded
        rng). Assigned variables are skipped, so only the clauses' residual
        literals count."""
        canon = self.canon
        scores: dict[int, int] = {}
        for ci in comp.clause_idxs:
            for l in canon[ci]:
                v = abs(l) - 1
                scores[v] = scores.get(v, 0) + 1
        best = None
        best_score = -1
        for v in comp.vars:
            if self.is_copy[v] or self.values[v] != -1:
                continue
            s = scores.get(v, 0)
            if s > best_score:
                best, best_score = v, s
        if best is not None and self.rng is not None:
            tied = [
                v
                for v in comp.vars
                if not self.is_copy[v]
                and self.values[v] == -1
                and scores.get(v, 0) == best_score
            ]
            best = self.rng.choice(tied)
        return best

    # -- counting ------------------------------------------------------------

    def count(self, assumptions=()) -> tuple[int, RunStats]:
        """Exact answer-set count. Resets search state (cache included); the
        time budget runs from this call."""
        self._arm_deadline()
        return self._count(assumptions)

    def _count(self, assumptions=()) -> tuple[int, RunStats]:
        self.reset()
        if not self._apply_initial(assumptions):
            return 0, self._finalize()
        total = 1
        for comp in self.decompose(range(self.n_vars), range(len(self.canon))):
            total *= self._cached_count(comp)
            if total == 0:
                break
        return total, self._finalize()

    def _finalize(self) -> RunStats:
        self.stats.cache_entries = len(self._cache)
        return self.stats

    def _arm_deadline(self):
        if self.budget is not None:
            self._deadline = time.perf_counter() + self.budget

    def _check_deadline(self):
        if self._deadline is not None and time.perf_counter() > self._deadline:
            raise ResourceLimitError("time budget exhausted", self._finalize())

    def _cached_count(self, comp: Component) -> int:
        if not self.use_cache:
            return self._count_component(comp)
        key = cache_key_bytes(comp.vars, comp.clause_idxs)
        self.stats.cache_lookups += 1
        cache = self._cache
        got = cache.get(key)
        if got is not None:
            self.stats.cache_hits += 1
            cache.move_to_end(key)
            return got
        val = self._count_component(comp)
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
        return val

    def _count_component(self, comp: Component) -> int:
        # a falsified clause can never be in comp.clause_idxs: components
        # are built only after a conflict-free propagation fixpoint, so the
        # empty-clause base case surfaces as a conflict in the branch loop
        self._check_deadline()
        if not comp.clause_idxs:
            # all clauses satisfied: free variables enumerate freely,
            # except copies, whose value never distinguishes answer sets
            return 1 << sum(1 for v in comp.vars if not self.is_copy[v])
        if all(self.is_copy[v] for v in comp.vars):
            return 0  # unresolved cyclic support only
        v = self.decide(comp)
        total = 0
        plit = v + 1
        for lit in (plit, -plit):
            mark = len(self.trail)
            self.assign(lit, decision=True)
            if self.propagate() is None:
                branch = 1
                for sub in self.decompose(comp.vars, comp.clause_idxs):
                    branch *= self._cached_count(sub)
                    if branch == 0:
                        break
                total += branch
            self.backtrack(mark)
        return total

    # -- enumeration & hybrid -----------------------------------------------

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
        branch_vars = [v for v in range(self.n_vars) if not self.is_copy[v]]
        g_range = range(self.g_start, len(self.clauses))
        values = self.values
        clauses = self.clauses
        found = 0

        def leaf_is_answer() -> bool:
            for ci in g_range:
                sat = False
                for l in clauses[ci]:
                    if values[abs(l) - 1] == (1 if l > 0 else 0):
                        sat = True
                        break
                if not sat:
                    return False  # cyclic support left unresolved
            return True

        def dfs():
            nonlocal found
            pick = None
            for v in branch_vars:
                if values[v] == -1:
                    pick = v
                    break
            if pick is None:
                if leaf_is_answer():
                    found += 1
                    if found > limit:
                        raise _LimitHit
                self._check_deadline()
                return
            plit = pick + 1
            for lit in (plit, -plit):
                mark = len(self.trail)
                self.assign(lit, decision=True)
                if self.propagate() is None:
                    dfs()
                self.backtrack(mark)

        try:
            dfs()
        except _LimitHit:
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


def count(pair: PairFormula, **options) -> tuple[int, RunStats]:
    return Engine(pair, **options).count()


def enumerate_up_to(pair: PairFormula, limit: int, **options):
    return Engine(pair, **options).enumerate_up_to(limit)


def hybrid_count(
    pair: PairFormula,
    threshold: int = DEFAULT_ENUM_THRESHOLD,
    budget: float | None = None,
    **options,
) -> tuple[int, RunStats]:
    return Engine(pair, budget=budget, **options).hybrid(threshold)
