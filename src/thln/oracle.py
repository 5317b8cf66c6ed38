"""Budgeted exact search for covering paths and cycles on surviving views.

Every service runs one search core, ``_dfs_cover``: a deterministic
depth-first backtracking search for a path from a start node through every
node that stops on a node of a given set of ends. A covering path has the
single end t, entered only last; a covering cycle may stop on any neighbour
of its anchor (the view's first node of lowest degree), and a one-short
cycle is a covering cycle of the view without that node when its degree is
below two; two disjoint covering paths are one covering path through a
helper node. The search reads the view's rows as the view gives them, as
ids, and keeps its per-node arrays by local index, the id less ``base``, the
view's lowest id; a slot of that range that is no node stays empty, and the
helper takes the slot past it. Each attempt keeps, for every unvisited node,
its number of unvisited neighbours (``rdeg``), updated in O(degree) per
visit and backtrack; a visited node's count waits, and is right again when
the node is popped, as every node visited after it has been popped first.
Every expansion prunes unless an end is left and at most one unvisited node
has degree one counting the head (such nodes have rdeg <= 1, a set kept
apart) and that node is an end. This degree check costs O(|low set|) and is
the per-expansion prune. An attempt is one loop: it steps to the next head
(visiting the best successor left, backtracking over every path node that
has none) and expands it. The visit's walk over the head's row, which
updates rdeg, also builds the head's successor keys; the expansion only
drops the end's key (a path enters its end last) and the gated helper's. An
attempt's expansion, backtrack and cut-test counts stay in locals and are
written back to the call's budget state once, when it ends.

The cut test, one O(V) Hopcroft-Tarjan articulation pass, prunes when the
head and the unvisited nodes form a disconnected region, or a node of it
(the head too) leaves two hanging pieces, or one without an end. The pieces
depend on the region, not on the order a DFS meets them, so neither does the
decision. It runs only on the first expansion after a backtrack, and only
once the attempt has backtracked |V| times, the restart schedule's own
view-sized unit. On benchmark traffic it prunes in about one run in eight,
so a search that backtracks a little (a few dozen times on a 128-node view)
does better on the degree check alone. But it is what settles structural
absence: a cut vertex between two parts of the view blocks every covering
path, the degree check does not see it, and an attempt without the test
thrashes through the parts' orderings; so attempts that thrash and proofs
of absence keep it. Skipping it anywhere keeps the paths found: it only
removes subtrees that hold no covering path, and the successor order never
depends on it, so the search meets the same covering paths in the same
order, only later when an attempt's slice runs out first. At an attempt's
root that subtree is the whole search, so a root pass could only cut short
a search that has no answer, and a forward run that finds its path runs no
cut test at all.

Successors are tried lowest rdeg first, ties broken by a salted bijection of
the node id (one integer key, rdeg * the slot count + the node's rank under
that bijection), so identical inputs always explore the identical tree.
Salt 0's bijection is the id itself, and slots ascend with ids, so the ranks
of an attempt at salt 0 are the slots themselves (the two-path helper first)
and need no sort; a salted attempt ranks the same slots by a sorted list.

Attempts run in restart slices sized to the view (Luby, Sinclair and
Zuckerman 1993; Gomes, Selman and Kautz 1998): slice i of a search over |V|
nodes stops its attempt after ``max(64, 2|V|) * 2**(i // 2)`` expansions and
starts the next one with a fresh tie-break salt (paths also alternate their
direction); from slice 20 on an attempt is unbounded. A run with no
backtracking fits in the first slice, and a stalled one gives up after a
few passes over the view rather than after a fixed count.

An expansion budget separates "proven absent" (search space exhausted) from
"gave up" (budget exhausted). The slice caps depend on |V| only, never on
the budget, so a larger budget runs the same attempts to the same points and
then further: growing it can only turn "gave up" into one of the other two,
never change a found answer. Outcomes also count ``restarts`` (slices begun
after the first), ``backtracks`` (nodes popped off the path) and
``cut_tests`` (articulation passes run).

A search reads its view through a small protocol: ``nodes`` (the ids in
ascending order), ``rows()`` (a new list of every node's neighbours, in
``nodes`` order, read once per call by ``_snapshot``; in level order, which
no search depends on: successors go by key) and ``has_node`` for the
endpoints; the enumerator reads ``neighbors`` node by node. Rows must name
only nodes of the view: an id outside the range would index past the arrays
or alias another slot. A ``SurvivingView`` holds to that by its graph's
level order and symmetry, which its constructor judged once
(``topology.require_shape``); any other view's rows are checked once per
call, and a row that names no node of the view raises MalformedGraph.

``enumerate_ham_path_exists`` is a tiny, prune-free enumerator kept
deliberately independent of the main engine; tests use it as ground truth.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import chain, compress
from typing import Callable, NamedTuple, Optional

from .errors import MalformedGraph, PreconditionViolated
from .faults import SurvivingView, _require_alive

DEFAULT_MAX_EXPANSIONS = 5_000_000

_VIRTUAL = -1  # the two-path helper's id in the tie-break; never a real id


@dataclass(frozen=True)
class SearchBudget:
    """Limit on search-tree node expansions, shared by every phase of one
    search call. Counting expansions, not seconds, keeps answers independent
    of host speed."""

    max_expansions: int = DEFAULT_MAX_EXPANSIONS

    def __post_init__(self):
        if self.max_expansions <= 0:
            raise ValueError("max_expansions must be positive")


class SearchStatus(enum.Enum):
    FOUND = "found"
    PROVEN_ABSENT = "proven-absent"
    BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass(frozen=True)
class SearchOutcome:
    status: SearchStatus
    path: Optional[tuple[int, ...]] = None
    paths: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None
    missed: Optional[int] = None
    expansions: int = 0
    restarts: int = 0
    backtracks: int = 0
    cut_tests: int = 0

    @property
    def found(self) -> bool:
        return self.status is SearchStatus.FOUND


class _BudgetState:
    """Expansion budget and restart/backtrack/cut-test counters shared by the
    phases of one operation."""

    __slots__ = ("limit", "spent", "restarts", "backtracks", "cut_tests")

    def __init__(self, budget: Optional[SearchBudget]):
        self.limit = (budget or SearchBudget()).max_expansions
        self.spent = self.restarts = self.backtracks = self.cut_tests = 0

    @property
    def exhausted(self) -> bool:
        return self.spent >= self.limit

    def outcome(self, status: SearchStatus, **found) -> SearchOutcome:
        return SearchOutcome(status, expansions=self.spent, restarts=self.restarts,
                             backtracks=self.backtracks, cut_tests=self.cut_tests, **found)


class _Table(NamedTuple):
    """What a search reads of a view. Node ``v``'s slot is its local index
    ``v - base``: ``rows[v - base]`` is its row of neighbour ids, as the
    view gives it, and ``live[v - base]`` is 1. A slot of the range that is
    no node (a dead id, or a node a one-short cycle drops) holds an empty
    row and a 0. ``ids`` are the nodes in ascending order; the two-path
    helper follows them as ``_VIRTUAL``, in the slot past the range."""

    rows: list[tuple[int, ...]]
    live: bytearray
    ids: tuple[int, ...]
    base: int


def _snapshot(view) -> _Table:
    """The view's rows and nodes by local index, its lowest id as ``base``.

    A ``SurvivingView``, whose constructor judged its graph's shape, names
    only its nodes in its rows; any other view's rows are checked here, once
    per call, so that a row naming an id outside the range, which would
    index past a slot or alias another, or a dead id, raises MalformedGraph."""
    ids = tuple(view.nodes)
    rows = view.rows()
    if not isinstance(view, SurvivingView):
        known = set(ids)
        if not known.issuperset(chain.from_iterable(rows)):
            bad = next(w for row in rows for w in row if w not in known)
            raise MalformedGraph(f"node {bad} is in a row of the view, not in the view")
    base = ids[0] if ids else 0
    span = ids[-1] - base + 1 if ids else 0
    if span == len(ids):
        return _Table(rows, bytearray(b"\x01") * span, ids, base)
    table, live = [()] * span, bytearray(span)
    for v, row in zip(ids, rows):
        table[v - base] = row
        live[v - base] = 1
    return _Table(table, live, ids, base)


def _cut_prune(rows, base: int, head: int, remaining: bytearray, count: int, is_end) -> bool:
    """Structural infeasibility test for continuing a covering path.

    Works on the region H = {head} | remaining (``count`` nodes remaining),
    by local index: ``rows`` name ids, slot ``id - base``.
    Returns True (prune) when H is disconnected, or when a node of H leaves
    two pieces hanging (components of H minus it that miss the head; for the
    head, the components of remaining) or one holding no end: the
    continuation enters at most one piece and has to end inside it.
    """
    if not count:
        return False
    size = len(rows)
    disc = [0] * size  # 0: undiscovered; the head is 1
    has_t = is_end[:]  # once a node is discovered: its subtree holds an end
    hung = bytearray(size)  # a piece already hangs from this node
    disc[head] = 1
    counter = 2
    # v is the node being scanned and lv its low so far, the tree edge to its
    # parent included (lv <= disc[parent]); stack holds each ancestor of v as
    # (node, its row iterator, its low so far)
    v, it, lv = head, iter(rows[head]), 1
    stack = []
    while True:
        for w in it:
            w -= base
            d = disc[w]
            if d:
                if d < lv:
                    lv = d
            elif remaining[w]:
                stack.append((v, it, lv))
                disc[w] = lv = counter
                counter += 1
                v, it = w, iter(rows[w])
                break
        else:
            if not stack:
                return counter != count + 2  # disconnected
            p, it, lp = stack.pop()
            has_t[p] |= has_t[v]
            if lv >= disc[p]:
                # v's subtree hangs from p: no edge leaves it above p
                if not has_t[v] or hung[p]:
                    return True
                hung[p] = 1
            elif lv < lp:
                lp = lv
            v, lv = p, lp


#: Restart schedule (see the module docstring); |V| is ``len(ids)``, the
#: two-path helper included. A forward run takes |V| - 1 expansions, so it
#: fits in the first slice; the floor lets most searches on views of fewer
#: than 32 nodes finish in one slice too (9 in 10 on seeded n = 4 views).
_SLICE_FLOOR = 64
_BOUNDED_SLICES = 20


def _slice_cap(size: int, phase: int) -> Optional[int]:
    """Expansion cap of slice ``phase`` for a view of ``size`` nodes (None:
    unbounded). It reads the view size only, never the budget, which keeps
    found answers fixed as the budget grows."""
    if phase >= _BOUNDED_SLICES:
        return None
    return max(_SLICE_FLOOR, 2 * size) << (phase // 2)


def _tie(salt: int, c: int) -> int:
    """Tie-break key of id c: a bijection on ids mod 2**32 for every salt."""
    if salt == 0:
        return c
    return ((c + 0x9E3779B9 * salt) * 2654435761) & 0xFFFFFFFF


def _ranks(ids: tuple[int, ...], base: int, size: int, salt: int) -> tuple[list[int], list[int]]:
    """A rank for each of ``size`` slots, below ``size`` and ordered as the
    salted tie-break orders the ids, and the slots by rank.

    Salt 0 ranks by the id itself, and slots ascend with ids but for a
    trailing two-path helper, ``_VIRTUAL`` in slot -1, which ranks first; so
    that order is the slot itself and needs no sort. A salted order ranks
    the nodes 0..|V| - 1; a slot that is no node has no successor key, so
    its rank is never read."""
    if salt == 0:
        if ids[-1] == _VIRTUAL:
            return [*range(1, size), 0], [-1, *range(size - 1)]
        identity = list(range(size))  # its own inverse
        return identity, identity
    by_rank = [-1 if c == _VIRTUAL else c - base
               for c in sorted(ids, key=lambda c: _tie(salt, c))]
    rank = [0] * size
    for k, c in enumerate(by_rank):
        rank[c] = k
    return rank, by_rank


def _dfs_cover(
    table: _Table, s: int, ends: tuple[int, ...], ends_last: bool, state: _BudgetState,
    cap: Optional[int], salt: int, gate: Optional[tuple[int, int]] = None,
) -> tuple[SearchStatus, Optional[tuple[int, ...]], bool]:
    """One search attempt for a path from slot s through every node that
    stops on a node of ``ends`` (slots); with ``ends_last`` the ends are
    entered only last. ``gate = (h, src)`` lets the path enter slot h only
    from slot src.

    Returns (status, path of ids, cap_hit); ``cap_hit`` means this attempt
    was cut off by its slice of the schedule, not by the overall budget.
    """
    rows, live, ids, base = table
    size = len(rows)  # slots
    remaining = live[:]
    is_end = bytearray(size)
    for e in ends:
        is_end[e] = 1
    ends_left = sum(is_end)
    order = count = len(ids)  # |V|; unvisited nodes
    rdeg = list(map(len, rows))  # unvisited neighbours, kept for unvisited nodes
    # unvisited with rdeg <= 1 (never the helper here: both its ends live)
    low = {u for u in range(size) if rdeg[u] <= 1 and live[u]}
    rank, by_rank = _ranks(ids, base, size, salt)  # a successor's key is rdeg * size + rank
    last = ends[0] if ends_last else -1  # an ends-last path has one end
    last_id = last + base  # read only when ends_last
    banned, src = gate if gate is not None else (-1, -1)
    gated = frozenset(w - base for w in rows[banned]) - {src} if gate is not None else frozenset()
    spent, backtracks, cut_tests = state.spent, 0, 0
    stop = state.limit if cap is None else min(state.limit, spent + cap)
    path: list[int] = []
    # successor keys of each path node, popped from the end, under a root
    # entry whose one successor is s
    stack = [[rank[s]]]
    # the cut test is due at the first expansion after each backtrack from
    # the attempt's |V|-th on, never at the root: there it could prune only
    # a search with no covering path
    cut_due = False
    status = None
    while True:
        # step to the next head: visit the best successor left, backtracking
        # over every path node that has none
        while True:
            top = stack[-1]
            if top:
                v = by_rank[top.pop() % size]
                path.append(v)
                remaining[v] = 0
                count -= 1
                ends_left -= is_end[v]
                low.discard(v)
                keys = []  # v's successor keys, built while its row is walked
                for w in rows[v]:
                    w -= base
                    if remaining[w]:  # a visited node's rdeg waits for its pop
                        d = rdeg[w] - 1
                        rdeg[w] = d
                        keys.append(d * size + rank[w])
                        if d == 1:
                            low.add(w)
                if count:
                    break
                if is_end[v]:
                    status = SearchStatus.FOUND
                    break
            else:
                stack.pop()
                if len(stack) == 1:  # s has no successor left
                    status = SearchStatus.PROVEN_ABSENT
                    break
            # backtrack: pop the path's last node
            c = path.pop()
            backtracks += 1
            remaining[c] = 1
            count += 1
            ends_left += is_end[c]
            for w in rows[c]:
                w -= base
                if remaining[w]:
                    d = rdeg[w] + 1
                    rdeg[w] = d
                    if d == 2:
                        low.discard(w)
            if rdeg[c] <= 1:
                low.add(c)
            cut_due = backtracks >= order
        if status is not None:
            break
        # expand v, the head: prune checks, then order its successor keys
        if spent >= stop:
            status = SearchStatus.BUDGET_EXHAUSTED
            break
        spent += 1
        if not ends_left:  # no end is left to stop on
            keys = []
        else:
            stuck = False
            for u in low:  # degree rdeg[u] + [u adjacent to v] <= 1 needs rdeg <= 1
                d = rdeg[u] + (v + base in rows[u])
                if d == 0 or d == 1 and (stuck or not is_end[u]):
                    keys = []
                    break
                stuck = stuck or d == 1
            else:
                if cut_due:
                    cut_due = False
                    cut_tests += 1
                    if _cut_prune(rows, base, v, remaining, count, is_end):
                        keys = []
                # the end is entered only last (it is unvisited: ends_left),
                # and the gated helper only from src
                if keys and ends_last and count > 1 and last_id in rows[v]:
                    keys.remove(rdeg[last] * size + rank[last])
                if keys and v in gated and remaining[banned]:
                    keys.remove(rdeg[banned] * size + rank[banned])
                # keys never tie, so the order is total; reversed, to pop from the end
                keys.sort(reverse=True)
        stack.append(keys)
    state.spent = spent
    state.backtracks += backtracks
    state.cut_tests += cut_tests
    if status is SearchStatus.FOUND:
        return status, tuple(map(base.__add__, path)), False
    return status, None, status is SearchStatus.BUDGET_EXHAUSTED and not state.exhausted


_Answer = tuple[SearchStatus, Optional[tuple[int, ...]]]


def _engine(attempt: Callable[[Optional[int], int], tuple], size: int, state: _BudgetState) -> _Answer:
    """Run ``attempt(cap, phase)`` over the restart schedule of a view of
    ``size`` nodes; the final attempt runs on whatever budget remains. A
    single completed attempt settles absence, whichever slice it ran in."""
    phase = 0
    while True:
        status, path, cap_hit = attempt(_slice_cap(size, phase), phase)
        if status is SearchStatus.FOUND or status is SearchStatus.PROVEN_ABSENT:
            return status, path
        if not cap_hit or state.exhausted:
            return SearchStatus.BUDGET_EXHAUSTED, None
        phase += 1
        state.restarts += 1


def _path_engine(table: _Table, s: int, t: int, state: _BudgetState, gate=None,
                 gate_rev=None) -> _Answer:
    """Covering-path search from slot s to slot t; slices alternate forward
    and reversed endpoints (``gate_rev`` gates the reversed ones), with a
    fresh tie-break salt every second slice."""

    def attempt(cap, phase):
        rev = phase % 2 == 1
        a, b, g = (t, s, gate_rev) if rev else (s, t, gate)
        status, path, cap_hit = _dfs_cover(table, a, (b,), True, state, cap, phase // 2, g)
        return status, path[::-1] if rev and path else path, cap_hit

    return _engine(attempt, len(table.ids), state)


def _anchor(table: _Table) -> int:
    """The slot of the view's first node of lowest degree (slots ascend with
    ids): a covering cycle's anchor, and the node a one-short cycle misses."""
    rows = table.rows
    return min(compress(range(len(rows)), table.live), key=list(map(len, rows)).__getitem__)


def _cycle_engine(table: _Table, state: _BudgetState) -> _Answer:
    """Covering-cycle search: a covering path from the most constrained node
    (lowest degree, then lowest id, so that both forced edges of a degree-2
    node bind early) that stops on one of its neighbours. Every slice uses a
    fresh tie-break salt."""
    rows, live, ids, base = table
    if len(ids) < 3:
        return SearchStatus.PROVEN_ABSENT, None
    v0 = _anchor(table)
    ends = tuple(w - base for w in rows[v0])
    return _engine(
        lambda cap, phase: _dfs_cover(table, v0, ends, False, state, cap, phase),
        len(ids), state,
    )


def ham_path(view, s: int, t: int, budget: Optional[SearchBudget] = None) -> SearchOutcome:
    """Search for a path visiting every surviving node once, from s to t."""
    if s == t:
        raise PreconditionViolated("endpoints must be distinct")
    _require_alive(view, s, t)
    table = _snapshot(view)
    state = _BudgetState(budget)
    status, path = _path_engine(table, s - table.base, t - table.base, state)
    return state.outcome(status, path=path)


def ham_cycle(view, budget: Optional[SearchBudget] = None) -> SearchOutcome:
    """Search for a cycle visiting every surviving node exactly once."""
    table = _snapshot(view)
    state = _BudgetState(budget)
    status, path = _cycle_engine(table, state)
    return state.outcome(status, path=path)


def near_ham_cycle(view, budget: Optional[SearchBudget] = None) -> SearchOutcome:
    """Cycle covering all surviving nodes, or all but the first node of
    lowest degree.

    No cycle passes a node of degree at most one, so when the view's minimum
    degree is below two its first node of that degree is the ``missed`` node:
    the search is ``ham_cycle`` on the view without it. Otherwise it is
    ``ham_cycle`` on the view itself.
    """
    table = _snapshot(view)
    rows, live, ids, base = table
    state = _BudgetState(budget)
    if not ids:
        return state.outcome(SearchStatus.PROVEN_ABSENT)
    q = _anchor(table)
    if len(rows[q]) >= 2:
        status, path = _cycle_engine(table, state)
        return state.outcome(status, path=path)
    # drop q: its slot empties, and its id leaves its neighbour's row
    m = q + base
    rows, live = rows[:], live[:]
    for w in rows[q]:
        rows[w - base] = tuple(x for x in rows[w - base] if x != m)
    rows[q], live[q] = (), 0
    status, path = _cycle_engine(_Table(rows, live, tuple(v for v in ids if v != m), base), state)
    return state.outcome(status, path=path, missed=m if status is SearchStatus.FOUND else None)


def two_disjoint_spanning_paths(
    view, x1: int, y1: int, x2: int, y2: int, budget: Optional[SearchBudget] = None
) -> SearchOutcome:
    """Two node-disjoint paths x1-y1 and x2-y2 jointly covering every
    surviving node.

    Implemented as a single covering-path search from x1 to y2 through a
    helper node wedged between y1 and x2; the helper may only be entered
    from y1, which pins the segment pairing. It takes the slot past the
    range, slot -1, so rows and the path name it ``base - 1``, and it ranks
    as ``_VIRTUAL``.
    """
    endpoints = (x1, y1, x2, y2)
    if len(set(endpoints)) != 4:
        raise PreconditionViolated("the four endpoints must be distinct")
    _require_alive(view, *endpoints)
    rows, live, ids, base = _snapshot(view)
    a, b, c, d = (v - base for v in endpoints)
    helper = base - 1
    rows[b] += (helper,)
    rows[c] += (helper,)
    rows.append((y1, x2))
    live.append(1)
    state = _BudgetState(budget)
    status, path = _path_engine(
        _Table(rows, live, ids + (_VIRTUAL,), base), a, d, state, gate=(-1, b), gate_rev=(-1, c)
    )
    if status is not SearchStatus.FOUND:
        return state.outcome(status)
    cut = path.index(helper)
    return state.outcome(status, paths=(path[:cut], path[cut + 1 :]))


def enumerate_ham_path_exists(view, s: int, t: int) -> bool:
    """Exact existence test by exhaustive backtracking, no pruning heuristics.

    Hard-guarded to views of at most 12 surviving nodes.
    """
    nodes = tuple(view.nodes)
    if len(nodes) > 12:
        raise PreconditionViolated(f"enumeration guard admits at most 12 nodes, got {len(nodes)}")
    if s == t:
        raise PreconditionViolated("endpoints must be distinct")
    _require_alive(view, s, t)
    adj = {v: tuple(sorted(view.neighbors(v))) for v in nodes}
    total = len(nodes)

    def walk(v: int, visited: set[int]) -> bool:
        if len(visited) == total:
            return v == t
        for w in adj[v]:
            if w not in visited:
                visited.add(w)
                if walk(w, visited):
                    return True
                visited.remove(w)
        return False

    return walk(s, {s})
