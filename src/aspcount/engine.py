"""Component-caching counter over the conjoined completion and copy clauses.

Search skeleton: decide an unassigned non-copy variable, propagate each
branch to fixpoint and check it for unfounded sets, split the parent
component's unsatisfied clauses into variable-disjoint components, count
each non-trivial one through an exact-key LRU cache, multiply, and sum the
branches. Counting is one loop over an explicit stack of frames
(`_search`), so its depth never meets Python's recursion limit.
Enumeration is a loop of its own (`_enumerate`) over the non-copy
variables in index order, with no component, cache, decomposition or
unfounded-set check; one scan for the lowest unassigned variable both
picks the branch variable and values the leaf (see below).

A component is two ints, after sharpSAT's packed components (Thurley, SAT
2006): the mask of its unassigned variables and the mask of its unsatisfied
listed clauses, those of three or more literals (bit k for the k-th in
`canon`). A binary clause is implied by the variables: at a conflict-free
fixpoint it is unsatisfied exactly when both its variables are unassigned.
A branch takes its component's masks less each variable of the trail from
its branch literal on, and less each listed clause a true trail literal
holds, with no clause tested. This drops nothing from a sibling component,
as every literal of the branch is over the component's variables: a
propagated literal is the last open one of a clause that a false literal of
the branch left unit, unsatisfied at the parent's fixpoint and so the
component's, and the unfounded-set check derives no literal in a sibling
(see below). `decompose` floods what is left by binary neighbours and the
variables of the listed clauses it meets. The pair of masks is the exact
cache key: equal variable masks hold the same unsatisfied binary clauses,
and a listed clause in the mask has all its assigned literals false, so its
residual is its literals over the component's variables. The cache cap
charges an entry a byte per 8 bits of its masks and value, plus a fixed
overhead (see `entry_bytes`).

The assignment is one array indexed by literal, as in MiniSat (Een &
Sorensson, SAT 2003): `lit_value[lit + n_vars]` is 1 (true), 0 (false) or
-1 (unassigned), and assigning or unassigning a literal writes the slots of
both polarities, so no literal test needs its variable or its sign.
Propagation works on the same slots and needs no clause ids. Binary
clauses, most of each encoding, are per-slot lists of implied slots, also as
in sharpSAT; a clause of three or more literals is one tuple of its slots,
listed under every slot it holds. For each literal made false, `propagate`
walks its implied slots first, then scans each clause listed under it up
to a true slot or a second unassigned one. A scan that meets neither sets
the clause's one unassigned slot true; with none, every slot is false, and
`propagate` reports the conflict as the literal it found false where a
clause needed it true. There are no watched literals (Moskewicz et al.,
DAC 2001): in CPython, moving a watch costs more than the clause visits it
saves. No clause is ever written, so backtracking undoes nothing but the
assignment.

Copy variables, the block from `first_copy` up (see `encode.VarTable`),
are propagated but never decided, enumerated or assumed, so every copy on
the trail was propagated, and a component's non-copies are the bits of
its variable mask below `first_copy`. Both searches read the copies
alike: at a conflict-free fixpoint, a copy a' is false exactly when its
atom's literal L[a] is false:
  (i)  if a' is false, so is L[a]. Otherwise take the first copy a' on
       the trail made false while L[a] is not. A rule clause -a' | ... | z'
       propagated it, with z' false before it, so L[z] is false, and every
       other literal of that rule's body true; the completion then
       propagates L[a] false through its clause L[z] | -C | -d_i for the
       body's set C + R_i (see `encode.clark_completion`). When R_i is
       empty or a lone literal, that clause holds L[z] and the negation of
       every literal of the set, and makes L[a] false in one step. Else
       d_i is R_i's auxiliary and it takes two: with L[a] in R_i, the
       clause makes d_i false and then -R_i | d_i makes L[a] false; with
       L[a] in C, -R_i | d_i makes d_i true and then the clause L[a] false.
  (ii) if L[a] is false, -a' | L[a] propagates a' false; when L[a] is a
       fixed literal (see `encode`), that clause is the unit -a' if L[a] is
       fixed false, and there is none if it is fixed true, as L[a] is then
       never false.
So an unassigned copy x' has L[x] not false. If L[x] is unassigned, the
clause -x' | L[x] is unsatisfied. If L[x] is true, the completion keeps
some body of x not false, and by (i) that rule's copy clause has no true
literal. Either way x' is in an unsatisfied clause, which at a fixpoint has
another unassigned variable: no copy is ever a free singleton.

Count mode also checks for unfounded sets (`_unfounded`), after every
conflict-free propagation and once at the root. Each rule clause whose
positive copy literal is x' is one support of x; it holds while no literal
but x' is true, and it is founded when its body copies are founded in turn.
For a copy that is not false and has no founded support, the check
falsifies L[x] and propagates again; it is a conflict when L[x] is true
or fixed true. This is sound: a copy becomes true only by a derivation
along the trail, through a founded support, so a copy with none now is
never true below, and every answer set below, which assigns every copy,
has x' false and so, by (i), L[x] false. The check thus derives only
literals true in every answer set extending the assignment, and a branch
it ends counts 0 either way. The cache stays exact: a copy's foundedness
reads only the unsatisfied clauses that hold x' (a support with a true
literal is satisfied, and a true copy is founded), and those lie inside its
component, so the check derives no literal in a sibling component, and a
component's value is still a function of its key.

Foundedness is kept by source pointers: `_src[x]` is one support of x that
holds, and whose body copies have sources. A copy that is not false loses
its source when a literal kills it or when it reads a copy that lost its
own; only those copies re-seek one, and a copy that finds none keeps its
old pointer. A new source reads no lost copy, so sources form no cycle. A
support that holds still holds once assignments are undone, and a literal
that kills a copy's source is scanned by the check that completes its
fixpoint, which re-seeks the copy or leaves it unfounded and false, unless
it was false already. So at every fixpoint the search returns to, each
copy that is not false has a source that holds, and no pointer is restored
on backtracking.

Hence count mode meets no component whose first variable is a copy. In
one, all copies, take the copy x' lowest in the source DAG. Its source
holds and is unsatisfied, so its non-copy variables, outside the
component, are assigned and false, and its body copies, not false and
not in the component below x', are true: the source is unit on x', which
the fixpoint would have set true. The one component valued before the
cache, which so holds only components the search branched on, is the free
singleton, a non-copy by the above, worth 2 (at a fixpoint, a clause with
one unassigned variable is satisfied). Every other component has a
non-copy to branch on, and a branch with no component left has every
variable assigned and every clause satisfied: an answer.

Enumeration reads its leaves off the copies. At a leaf, every non-copy
variable assigned, an unassigned copy x' has L[x] true, and, as shown
above, some copy clause of x has no true literal: the leaf is no answer. A leaf with
every variable assigned satisfies every clause: it is an answer. The first
unassigned variable from the last branch variable on is thus a non-copy to
branch on, a copy (the leaf is worth 0) or none (the leaf is an answer).

Branching reads only the component it is handed: `decide` scores each
free non-copy variable by its literals in the component's listed clauses
(a popcount of two masks; binary clauses do not count) and takes the
highest score. Ties go to the variable in the best-ranked separator of a
nested dissection of the primal graph on BFS layers (George & Liu, 1978;
built by `_build_index` on the first `decompose`), after sharpSAT-TD's
separators-first branching (Korhonen & Jarvisalo, CP 2021), so a chain
numbered along its length is split in its middle, and each half in its
middle, rather than peeled from one end; remaining ties go to the smallest
index. On `path(3000)`, `count()` makes 10 012 decisions in 0.12-0.21 s,
and parsing plus `build_pair` add about 0.1 s (the median of 7 timed runs
in one process, over five processes; Python 3.11 on a 2-core shared VM,
raw `perf_counter` seconds).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass

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
    cache_evictions: int = 0
    peak_cache_bytes: int = 0
    unfounded: int = 0  # literals the unfounded-set check derived
    path: str = ""  # set by hybrid(): "enumeration" or "counting"

    @property
    def cache_hit_pct(self) -> float:
        if not self.cache_lookups:
            return 0.0
        return 100.0 * self.cache_hits / self.cache_lookups


def entry_bytes(comp: tuple[int, int], val: int) -> int:
    """Cache cap charge for comp -> val: a byte per 8 bits of its two masks
    and of the value, and 180 (fit with `tracemalloc`) for the key's tuple,
    the three ints' headers and the OrderedDict entry."""
    return ((comp[0].bit_length() + comp[1].bit_length() + val.bit_length()) >> 3) + 180


class Engine:
    """One engine instance = one single-threaded search over one PairFormula."""

    def __init__(
        self,
        pair: PairFormula,
        *,
        use_cache: bool = True,
        cache_limit_bytes: int = DEFAULT_CACHE_LIMIT,
        budget: float | None = None,
    ):
        self.n_vars = n = pair.n_vars
        self.first_copy = pair.vars.first_copy
        self.canon = pair.completion + pair.copy_clauses
        self._has_empty_clause = any(not c for c in self.canon)
        self._unit_lits = [c[0] for c in self.canon if len(c) == 1]
        # A literal l has the slot l + n_vars, in `lit_value` and here.
        # Indexed by the slot of a literal made false: the slot of the other
        # literal of each binary clause holding it, and the clauses of three
        # or more literals holding it. Such a clause is one tuple of its
        # slots, listed under each of them and never written.
        implied: list[list[int]] = [[] for _ in range(2 * n + 1)]
        occurs: list[list[tuple[int, ...]]] = [[] for _ in range(2 * n + 1)]
        for c in self.canon:
            if len(c) == 2:
                a, b = c
                implied[a + n].append(b + n)
                implied[b + n].append(a + n)
            elif len(c) > 2:
                clause = tuple([l + n for l in c])
                for s in clause:
                    occurs[s].append(clause)
        self.implied = implied
        self.occurs = occurs

        self.use_cache = use_cache
        self.cache_limit_bytes = cache_limit_bytes
        self.budget = budget
        self._deadline: float | None = None
        # the counting index (see `_build_index`), built by the first
        # `decompose`, so that enumeration and set-up never pay for it
        self._occ: list[int] | None = None

        self.stats = RunStats()
        self.reset()

    # -- assignment & propagation ------------------------------------------

    def reset(self):
        """A fresh empty assignment, trail and cache; the statistics are
        begun by each public search call."""
        self.lit_value = [-1] * (2 * self.n_vars + 1)
        self.trail: list[int] = []
        self.qhead = 0
        self._cache: OrderedDict[tuple[int, int], int] = OrderedDict()
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
        visited: its implied slots first, then each clause of three or more
        literals holding it, scanned until a true slot or a second unassigned
        one. A scan that meets neither sets its one unassigned slot true, or,
        with none, is a conflict. The conflict literal is the implied literal
        of a binary clause or the first literal of a longer one, whose clause
        then has every literal false."""
        t0 = time.perf_counter()
        value = self.lit_value
        implied = self.implied
        occurs = self.occurs
        trail = self.trail
        start = len(trail)
        n = self.n_vars
        n2 = 2 * n  # slot of -lit is n2 minus the slot of lit
        qhead = self.qhead
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
                elif not x:
                    conflict = s - n
                    break
            if conflict:
                break
            for clause in occurs[f]:
                unit = -1  # the one unassigned slot met, none yet
                for s in clause:
                    x = value[s]
                    if x:
                        if x == 1 or unit >= 0:
                            break
                        unit = s
                else:
                    if unit < 0:
                        conflict = clause[0] - n
                        break
                    value[unit] = 1
                    value[n2 - unit] = 0
                    trail.append(unit - n)
            if conflict:
                break
        self.qhead = qhead
        self.stats.propagations += len(trail) - start
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

    def _apply_initial(self) -> bool:
        """Level-0 units; False on immediate conflict. The time budget is
        checked first, so a zero budget is exhausted even when propagation
        leaves nothing to search."""
        self._check_deadline()
        if self._has_empty_clause:
            return False
        for lit in self._unit_lits:
            if not self.assign(lit):
                return False
        return self.propagate() is None

    # -- decomposition & branching -----------------------------------------

    def decompose(self, comp: tuple[int, int], mark: int) -> list[tuple[int, int]]:
        """The components of the branch of `comp` whose literals are
        `trail[mark:]` (see the module docstring), in ascending order of their
        lowest variable; its variables in no unsatisfied clause come back as
        free singletons. `comp` is a component at an earlier fixpoint on this
        branch, or every variable and listed clause with `mark` 0. Needs a
        conflict-free fixpoint, where any unsatisfied clause has an
        unassigned variable, from which the flood reaches it."""
        occ = self._occ
        if occ is None:
            occ = self._build_index()
        nbrs = self._nbrs
        clause_vars = self._clause_vars
        sat = self._sat
        n = self.n_vars
        rest, clauses = comp
        done = 0  # listed clauses the trail satisfies
        for lit in self.trail[mark:]:
            rest ^= 1 << (lit if lit > 0 else -lit) - 1
            done |= sat[n + lit]
        clauses &= ~done
        comps = []
        while rest:
            front = rest & -rest  # the lowest variable left
            left = rest ^ front
            found = 0
            while front:  # one level of the flood
                reach = 0
                while front:
                    v = front.bit_length() - 1
                    front ^= 1 << v
                    reach |= nbrs[v]
                    met = occ[v] & clauses
                    if met:
                        clauses ^= met
                        found |= met
                        while met:
                            k = met.bit_length() - 1
                            met ^= 1 << k
                            reach |= clause_vars[k]
                front = reach & left
                left ^= front
            comps.append((rest ^ left, found))
            rest = left
        return comps

    def _build_index(self) -> list[int]:
        """Builds the counting index and returns its occurrence masks. Per
        variable: the mask of its binary neighbours (build_pair makes no
        x | -x) and of the listed clauses holding it (units are never listed:
        at a fixpoint they are satisfied); per listed clause, the mask of its
        variables; per literal slot, the mask of the listed clauses it
        satisfies. Then the tie ranks and the supports of `_unfounded`."""
        n = self.n_vars
        nbrs = [0] * n
        occ = [0] * n
        sat = [0] * (2 * n + 1)
        clause_vars: list[int] = []
        for c in self.canon:
            if len(c) == 2:
                a, b = abs(c[0]) - 1, abs(c[1]) - 1
                nbrs[a] |= 1 << b
                nbrs[b] |= 1 << a
            elif len(c) > 2:
                bit = 1 << len(clause_vars)
                vs = 0
                for l in c:
                    occ[abs(l) - 1] |= bit
                    sat[l + n] |= bit
                    vs |= 1 << abs(l) - 1
                clause_vars.append(vs)
        self._nbrs = nbrs
        self._clause_vars = clause_vars
        self._sat = sat
        self._occ = occ
        self._build_tie()
        self._build_supports()
        return occ

    def _build_supports(self):
        """The supports of the unfounded-set check (see `_unfounded`), read
        off the copy clauses. A copy x' is named by the slot of -x', which
        is below `n_vars - first_copy`, and is true when x' is false. A
        clause whose positive copy literal is x' is one support of x: the
        copies are the last variables, so x' is its largest literal, and its
        other literals are the negated body, a body copy b as -b'. Per
        support: its head and the slots of its other literals; per copy: its
        supports, and the slot of L[x] from its clause -x' | L[x] (None when
        L[x] is fixed true, as there is then no such clause); per literal
        slot: the supports holding that literal beside the head, which it
        kills when true, so that a copy's slot lists the supports reading
        it."""
        n = self.n_vars
        first_copy = self.first_copy
        heads: list[int] = []
        others: list[tuple[int, ...]] = []
        supports: list[list[int]] = [[] for _ in range(n - first_copy)]
        atom_slot: list[int | None] = [None] * (n - first_copy)
        kills: list[list[int]] = [[] for _ in range(2 * n + 1)]
        for c in self.canon:
            if not c or abs(c[-1]) <= first_copy:  # no copy: sorted by variable
                continue
            h = max(c)
            if h > first_copy:
                s = len(heads)
                heads.append(n - h)
                rest = tuple([l + n for l in c if l != h])
                others.append(rest)
                supports[n - h].append(s)
                for slot in rest:
                    kills[slot].append(s)
            elif len(c) == 2:  # L[x] | -x'
                atom_slot[n + c[1]] = c[0] + n
        self._sup_head = heads
        self._sup_lits = others
        self._supports = supports
        self._atom_slot = atom_slot
        self._kills = kills
        self._slot_mark = [0] * (2 * n + 1)
        self._stamp = 0

    def _unfounded(self, start: int, lost: list[int]) -> int | None:
        """The unfounded-set check of count mode, by source pointers (Gebser,
        Kaufmann & Schaub, AIJ 2012; Simons, Niemelae & Soininen, AIJ 2002),
        over the supports of `_build_supports`: run at a conflict-free
        fixpoint, it falsifies L[x] for each copy x' with no founded support
        and propagates again, until no trail literal is left to scan.
        Returns None, or on a conflict the literal x' of a copy left
        unfounded while L[x] is true or fixed true.

        `_src[x]` is x's source: a support with no true literal beside its
        head, whose body copies have sources, so that sources form no cycle.
        The copies to re-seek are `lost` (at the root, every copy not false)
        and, among the copies not false, each whose source a trail literal
        from `start` on makes true, or whose source reads a copy to re-seek;
        the trail before `start` is a fixpoint the check has seen. A copy
        that finds no source keeps its old one, so no pointer is restored
        when the search backtracks (see the module docstring)."""
        value = self.lit_value
        trail = self.trail
        n = self.n_vars
        heads = self._sup_head
        others = self._sup_lits
        supports = self._supports
        atom_slot = self._atom_slot
        kills = self._kills
        src = self._src
        mark = self._slot_mark
        while True:
            self._stamp += 1
            stamp = self._stamp  # marks the copies lost this round
            for x in lost:
                mark[x] = stamp
            for lit in trail[start:]:
                for s in kills[n + lit]:
                    x = heads[s]
                    if src[x] == s and mark[x] != stamp and value[x] != 1:
                        mark[x] = stamp
                        lost.append(x)
            if not lost:
                return None
            for b in lost:  # grows: a source reading a lost copy is lost
                for s in kills[b]:
                    x = heads[s]
                    if src[x] == s and mark[x] != stamp and value[x] != 1:
                        mark[x] = stamp
                        lost.append(x)
            # try each support of each lost copy, and once a copy finds a
            # source, again each support that reads it
            todo = [s for x in lost for s in supports[x]]
            for s in todo:  # grows
                x = heads[s]
                if mark[x] != stamp:
                    continue  # found a source already
                for slot in others[s]:
                    if value[slot] == 1 or mark[slot] == stamp:
                        break  # killed, or reads a lost copy
                else:
                    src[x] = s
                    mark[x] = 0
                    todo += kills[x]
            start = len(trail)
            for x in lost:
                if mark[x] == stamp:  # unfounded
                    slot = atom_slot[x]
                    if slot is None or value[slot] == 1:
                        return n - x
                    if value[slot] == -1:
                        value[slot] = 0
                        value[2 * n - slot] = 1
                        trail.append(n - slot)
            if len(trail) == start:
                return None
            self.stats.unfounded += len(trail) - start
            conflict = self.propagate()
            if conflict is not None:
                return conflict
            lost = []

    def decide(self, comp: tuple[int, int]) -> int:
        """Free non-copy variable of `comp` with the most literals in the
        component's listed clauses (binary clauses do not count). Ties go to
        the lowest BFS-layer rank (see `_build_tie`), then to the smallest
        index. Needs the index of a first `decompose`, and a free non-copy
        variable in `comp`."""
        free, clauses = comp
        free &= self._non_copies
        if not clauses:  # every score is 0: the best rank's lowest variable
            for layer in self._rank_masks:
                layer &= free
                if layer:
                    return (layer & -layer).bit_length() - 1
        occ, tie, span = self._occ, self._tie, self._tie_span
        # one int per candidate, ordered by (score, -rank, -index); the
        # variable is its key modulo first_copy, negated
        top = -span
        while free:
            v = free.bit_length() - 1
            free ^= 1 << v
            key = (occ[v] & clauses).bit_count() * span + tie[v]
            if key > top:
                top = key
        return -top % self.first_copy

    def _build_tie(self):
        """Tie ranks by nested dissection on BFS layers (George & Liu, SIAM J.
        Numer. Anal. 1978), for the separator-first branching of sharpSAT-TD
        (Korhonen & Jarvisalo, CP 2021).

        Each connected piece of the primal graph of the non-copy variables
        gets one BFS from its lowest variable, and each BFS layer separates
        the layers before it from those after it. Recursive bisection of the
        piece's distance range ranks the layers: the middle layer 0, the
        middles of the two halves 1, and so on, so the separators of the
        largest pieces rank first. A variable takes its layer's rank;
        `_tie[v]` is -(rank * first_copy + v), and `_rank_masks[r]` the mask
        of the variables of rank r."""
        n = self.first_copy
        nbrs, occ, clause_vars = self._nbrs, self._occ, self._clause_vars
        self._non_copies = unseen = (1 << n) - 1
        rank_masks = [0] * n.bit_length()  # bisection depth is below it
        while unseen:
            front = unseen & -unseen  # the piece's lowest variable
            layers = []
            while front:
                unseen ^= front
                layers.append(front)
                reach = 0
                while front:
                    v = front.bit_length() - 1
                    front ^= 1 << v
                    reach |= nbrs[v]
                    met = occ[v]
                    while met:
                        k = met.bit_length() - 1
                        met ^= 1 << k
                        reach |= clause_vars[k]
                front = reach & unseen
            todo = [(0, len(layers) - 1, 0)]
            while todo:
                lo, hi, r = todo.pop()
                if lo <= hi:
                    mid = (lo + hi) // 2
                    rank_masks[r] |= layers[mid]
                    todo += (lo, mid - 1, r + 1), (mid + 1, hi, r + 1)
        self._tie = tie = [0] * n
        for r, layer in enumerate(rank_masks):
            while layer:
                v = layer.bit_length() - 1
                layer ^= 1 << v
                tie[v] = -(r * n + v)
        self._rank_masks = rank_masks
        self._tie_span = len(rank_masks) * n

    # -- search ------------------------------------------------------------

    def count(self) -> tuple[int, RunStats]:
        """Exact answer-set count. Resets search state (cache included); the
        time budget runs from this call."""
        self._begin()
        return self._run()

    def _begin(self, path: str = ""):
        """Arms the time budget and starts the RunStats of one public call."""
        if self.budget is not None:
            self._deadline = time.perf_counter() + self.budget
        self.stats = RunStats(path=path)

    def _run(self, limit: int | None = None) -> tuple[int | None, RunStats]:
        """One search from a fresh state: counting (`_search`), after the
        root's unfounded-set check, when `limit` is None, else enumeration up
        to `limit` answer sets (`_enumerate`)."""
        self.reset()
        if not self._apply_initial():
            return 0, self._finalize()
        if limit is not None:
            return self._enumerate(limit), self._finalize()
        if self._occ is None:
            self._build_index()
        root = ((1 << self.n_vars) - 1, (1 << len(self._clause_vars)) - 1)
        # no copy has a source yet, so every copy not false is re-sought
        n_copies = self.n_vars - self.first_copy
        self._src = [-1] * n_copies
        lost = [x for x in range(n_copies) if self.lit_value[x] != 1]
        if self._unfounded(len(self.trail), lost) is not None:
            return 0, self._finalize()
        return self._search(self.decompose(root, 0)), self._finalize()

    def _finalize(self) -> RunStats:
        self.stats.cache_entries = len(self._cache)
        return self.stats

    def _check_deadline(self):
        if self._deadline is not None and time.perf_counter() >= self._deadline:
            raise ResourceLimitError("time budget exhausted", self._finalize())

    def _store(self, comp: tuple[int, int], val: int):
        """Caches one component value, evicting least recently used entries
        to stay under the byte cap (see `entry_bytes`); an entry larger than
        the cap alone raises before anything is evicted."""
        cache = self._cache
        size = entry_bytes(comp, val)
        if size > self.cache_limit_bytes:
            raise ResourceLimitError(
                "one cache entry exceeds the cache byte cap", self._finalize()
            )
        while self._cache_bytes + size > self.cache_limit_bytes:
            self._cache_bytes -= entry_bytes(*cache.popitem(last=False))
            self.stats.cache_evictions += 1
        cache[comp] = val
        self._cache_bytes += size
        if self._cache_bytes > self.stats.peak_cache_bytes:
            self.stats.peak_cache_bytes = self._cache_bytes

    def _search(self, roots) -> int:
        """Product of the values of the components `roots`, by a depth-first
        search over one explicit stack of frames, one per component branched
        on; the frame on top lives in local variables. Free singletons are
        valued on the spot, the others looked up in the cache, each branch
        propagated, checked for unfounded sets when the pair has a copy, and
        split by `decompose`, and the sum of both branches cached.

        A frame holds its component (None for the root frame), trail mark,
        sum over its finished branches, and its open branch's components,
        next index and running product. Its branch literal is `trail[mark]`:
        the first branch is the branch variable's positive literal and the
        second its negation, so the frame is done when a branch with a
        negative literal there ends."""
        caching = self.use_cache
        value = self.lit_value
        n = self.n_vars
        trail = self.trail
        stats = self.stats
        cache = self._cache
        decompose = self.decompose
        decide = self.decide
        propagate = self.propagate
        unfounded = self._unfounded if self.first_copy < n else None  # no copy: no support
        backtrack = self.backtrack
        check_deadline = self._check_deadline
        store = self._store
        stack = []  # the frames below the top one
        comp = None
        total = 0
        mark = len(trail)
        subs, i, prod = roots, 0, 1
        while True:
            if prod and i < len(subs):
                sub = subs[i]
                i += 1
                # before the cache: a free singleton, always a non-copy (see
                # the module docstring)
                vs = sub[0]
                if not vs & (vs - 1):
                    prod *= 2
                    continue
                if caching:
                    stats.cache_lookups += 1
                    got = cache.get(sub)
                    if got is not None:
                        stats.cache_hits += 1
                        cache.move_to_end(sub)
                        prod *= got
                        continue
                v = decide(sub)
                check_deadline()
                stack.append((comp, mark, total, subs, i, prod))
                comp, total = sub, 0
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
                        store(comp, total)
                    val = total
                    comp, mark, total, subs, i, prod = stack.pop()
                    prod *= val
                    continue
            # set the branch literal, propagate, then open the branch
            value[n + lit] = 1
            value[n - lit] = 0
            trail.append(lit)
            stats.decisions += 1
            if propagate() is None and (unfounded is None or unfounded(mark, []) is None):
                subs = decompose(comp, mark)
                i, prod = 0, 1
            else:
                # the branch is worth 0; as components come only from a
                # conflict-free fixpoint, none ever holds a falsified clause
                subs, i, prod = (), 0, 0

    def _enumerate(self, limit: int) -> int | None:
        """Answer sets extending the current fixpoint, or None once more than
        `limit` are found, by a depth-first search whose scan for the lowest
        unassigned variable gives the branch variable or values the leaf
        (see the module docstring); a conflict is a leaf worth 0. `marks`
        holds the trail index of each open branch literal, positive first,
        and a leaf flips the deepest one still positive."""
        value = self.lit_value
        n = self.n_vars
        pos = n + 1  # variable v's literal v + 1 has the slot pos + v
        trail = self.trail
        first_copy = self.first_copy
        root = len(trail)
        marks: list[int] = []
        found = 0
        lit = 0  # the last branch literal; none yet, so the scan starts at 0
        conflict = None
        while True:
            v = first_copy  # a leaf, unless the scan finds a non-copy
            if conflict is None:
                try:
                    v = value.index(-1, pos + abs(lit)) - pos
                except ValueError:  # every variable assigned: an answer
                    found += 1
                    if found > limit:
                        return None
            if v < first_copy:
                self._check_deadline()
                marks.append(len(trail))
                lit = v + 1
            else:
                while marks and trail[marks[-1]] < 0:
                    marks.pop()  # both branches done
                if not marks:
                    self.backtrack(root)
                    return found
                lit = -trail[marks[-1]]
                self.backtrack(marks[-1])
            value[n + lit] = 1
            value[n - lit] = 0
            trail.append(lit)
            self.stats.decisions += 1
            conflict = self.propagate()

    def enumerate_up_to(self, limit: int) -> tuple[int | None, RunStats]:
        """(answer-set count, stats) by depth-first enumeration over the
        non-copy variables, no caching and no component product; the count
        is None once more than `limit` answer sets are found. The time budget
        runs from this call."""
        if limit < 1:
            raise ValueError("limit must be >= 1")
        self._begin()
        return self._run(limit)

    def hybrid(self, threshold: int = DEFAULT_ENUM_THRESHOLD) -> tuple[int, RunStats]:
        """Enumerate up to `threshold` answer sets; fall back to counting
        when `enumerate_up_to` would return None. One time budget, run from
        this call, covers both phases, and one RunStats: counting adds to
        the enumeration's counters, and `path` names the phase running, also
        in a ResourceLimitError's stats."""
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self._begin("enumeration")
        found, stats = self._run(threshold)
        if found is not None:
            return found, stats
        self.stats.path = "counting"
        return self._run()
