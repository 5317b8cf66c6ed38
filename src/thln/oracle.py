"""Budgeted exact search for covering paths and cycles on surviving views.

Every service runs one search core, ``_dfs_cover``: a deterministic
depth-first backtracking search, on local node indices, for a path from a
start node through every node that stops on a node of a given set of ends. A
covering path has the single end t, entered only last; a covering cycle may
stop on any neighbour of its anchor; two disjoint covering paths are one
covering path through a helper node. Each attempt keeps, for every node, its
number of unvisited neighbours (``rdeg``), updated in O(degree) per visit and
backtrack. Every expansion prunes unless an end is left and at most one
unvisited node has degree one counting the head (such nodes have rdeg <= 1,
a set kept apart) and that node is an end. This degree check costs
O(|low set|) and is the per-expansion prune. An attempt is one loop: it
steps to the next head (visiting the best successor left, backtracking over
every path node that has none) and expands it. The visit's walk over the
head's row, which updates rdeg, also builds the head's successor keys; the
expansion only drops the end's key (a path enters its end last) and the
gated helper's. An attempt's expansion, backtrack and cut-test counts stay
in locals and are written back to the call's budget state once, when it
ends.

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
the node id (one integer key, rdeg * |V| + the node's rank under that
bijection), so identical inputs always explore the identical tree. Salt 0's
bijection is the id itself, and a view lists its ids in ascending order, so
the ranks of an attempt at salt 0 are the index order (the two-path helper
first) and need no sort.

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
ascending order), ``rows()`` (every node's neighbours, in ``nodes`` order,
read once per call by ``_snapshot``; in level order, which no search
depends on: successors go by key), ``has_node`` for the endpoints, and
``min_degree_witness`` (``near_ham_cycle``); the enumerator reads
``neighbors`` node by node.

``enumerate_ham_path_exists`` is a tiny, prune-free enumerator kept
deliberately independent of the main engine; tests use it as ground truth.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import MalformedGraph, PreconditionViolated, TooLarge

DEFAULT_MAX_EXPANSIONS = 5_000_000

_VIRTUAL = -1  # helper node used by the two-path reduction; never a real id


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


def _snapshot(view) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """The view's nodes (``ids``, index order) and one row of neighbour
    indices per node. A view lists its nodes in ascending id order, so index
    order is id order, which ``_ranks`` relies on for salt 0."""
    ids = tuple(view.nodes)
    index = dict(zip(ids, range(len(ids))))
    at = index.__getitem__
    try:
        return ids, [tuple(map(at, row)) for row in view.rows()]
    except KeyError as exc:  # rows out of level order: the graph fails check_shape
        raise MalformedGraph(f"node {exc.args[0]} is in a row of the view, not in the view") from exc


def _cut_prune(rows, head: int, remaining: bytearray, count: int, is_end) -> bool:
    """Structural infeasibility test for continuing a covering path.

    Works on the region H = {head} | remaining (``count`` nodes remaining).
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


#: Restart schedule (see the module docstring); |V| is ``len(rows)``, the
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


def _ranks(ids: tuple[int, ...], salt: int) -> tuple[list[int], list[int]]:
    """Each index's position in the salted tie-break order of the ids, and
    the indices in that order.

    Salt 0 ranks by the id itself, and ids ascend in index order (see
    ``_snapshot``) but for a trailing two-path helper, ``_VIRTUAL``, which
    ranks first; so that order needs no sort."""
    size = len(ids)
    if salt == 0:
        if ids and ids[-1] == _VIRTUAL:
            return [*range(1, size), 0], [size - 1, *range(size - 1)]
        identity = list(range(size))  # its own inverse
        return identity, identity
    by_rank = sorted(range(size), key=lambda c: _tie(salt, ids[c]))
    rank = [0] * size
    for k, c in enumerate(by_rank):
        rank[c] = k
    return rank, by_rank


def _dfs_cover(
    rows: list[tuple[int, ...]], ids: tuple[int, ...], s: int, ends: tuple[int, ...],
    ends_last: bool, state: _BudgetState, cap: Optional[int], salt: int,
    gate: Optional[tuple[int, int]] = None,
) -> tuple[SearchStatus, Optional[tuple[int, ...]], bool]:
    """One search attempt for a path from index s through every node that
    stops on a node of ``ends``; with ``ends_last`` the ends are entered only
    last. ``gate = (h, src)`` lets the path enter h only from src.

    Returns (status, path of ids, cap_hit); ``cap_hit`` means this attempt
    was cut off by its slice of the schedule, not by the overall budget.
    """
    size = len(rows)
    remaining = bytearray(b"\x01") * size
    is_end = bytearray(size)
    for e in ends:
        is_end[e] = 1
    ends_left = sum(is_end)
    count = size  # unvisited nodes
    rdeg = list(map(len, rows))  # unvisited neighbours, kept for every node
    low = {u for u in range(size) if rdeg[u] <= 1}  # unvisited with rdeg <= 1
    rank, by_rank = _ranks(ids, salt)  # a successor's key is rdeg * size + rank
    last = ends[0] if ends_last else -1  # an ends-last path has one end
    banned, src = gate if gate is not None else (-1, -1)
    gated = frozenset(rows[banned]) - {src} if gate is not None else frozenset()
    spent, backtracks, cut_tests = state.spent, 0, 0
    stop = state.limit if cap is None else min(state.limit, spent + cap)
    path: list[int] = []
    # successor keys of each path node, popped from the end, under a root
    # entry whose one successor is s
    stack = [[rank[s]]]
    # the cut test is due at the first expansion after each backtrack from
    # the attempt's size-th on, never at the root: there it could prune only
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
                    d = rdeg[w] - 1
                    rdeg[w] = d
                    if remaining[w]:
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
                d = rdeg[w] + 1
                rdeg[w] = d
                if d == 2 and remaining[w]:
                    low.discard(w)
            if rdeg[c] <= 1:
                low.add(c)
            cut_due = backtracks >= size
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
                d = rdeg[u] + (v in rows[u])
                if d == 0 or d == 1 and (stuck or not is_end[u]):
                    keys = []
                    break
                stuck = stuck or d == 1
            else:
                if cut_due:
                    cut_due = False
                    cut_tests += 1
                    if _cut_prune(rows, v, remaining, count, is_end):
                        keys = []
                # the end is entered only last (it is unvisited: ends_left),
                # and the gated helper only from src
                if keys and ends_last and count > 1 and last in rows[v]:
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
        return status, tuple(ids[i] for i in path), False
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


def _path_engine(rows, ids, s: int, t: int, state: _BudgetState, gate=None, gate_rev=None) -> _Answer:
    """Covering-path search from index s to index t; slices alternate
    forward and reversed endpoints (``gate_rev`` gates the reversed ones),
    with a fresh tie-break salt every second slice."""

    def attempt(cap, phase):
        rev = phase % 2 == 1
        a, b, g = (t, s, gate_rev) if rev else (s, t, gate)
        status, path, cap_hit = _dfs_cover(rows, ids, a, (b,), True, state, cap, phase // 2, g)
        return status, path[::-1] if rev and path else path, cap_hit

    return _engine(attempt, len(rows), state)


def _cycle_engine(rows, ids, state: _BudgetState) -> _Answer:
    """Covering-cycle search: a covering path from the most constrained node
    (lowest degree, then lowest id, so that both forced edges of a degree-2
    node bind early) that stops on one of its neighbours. Every slice uses a
    fresh tie-break salt."""
    if len(rows) < 3:
        return SearchStatus.PROVEN_ABSENT, None
    degrees = list(map(len, rows))
    v0 = degrees.index(min(degrees))  # the first of lowest degree: ids ascend
    return _engine(
        lambda cap, phase: _dfs_cover(rows, ids, v0, rows[v0], False, state, cap, phase),
        len(rows), state,
    )


def _require_alive(view, *nodes: int) -> None:
    for v in nodes:
        if not view.has_node(v):
            raise PreconditionViolated(f"node {v} is not in the surviving view")


def ham_path(view, s: int, t: int, budget: Optional[SearchBudget] = None) -> SearchOutcome:
    """Search for a path visiting every surviving node once, from s to t."""
    if s == t:
        raise PreconditionViolated("endpoints must be distinct")
    _require_alive(view, s, t)
    ids, rows = _snapshot(view)
    state = _BudgetState(budget)
    status, path = _path_engine(rows, ids, ids.index(s), ids.index(t), state)
    return state.outcome(status, path=path)


def ham_cycle(view, budget: Optional[SearchBudget] = None) -> SearchOutcome:
    """Search for a cycle visiting every surviving node exactly once."""
    ids, rows = _snapshot(view)
    state = _BudgetState(budget)
    status, path = _cycle_engine(rows, ids, state)
    return state.outcome(status, path=path)


def near_ham_cycle(view, budget: Optional[SearchBudget] = None) -> SearchOutcome:
    """Cycle covering all surviving nodes, or all but one.

    With minimum degree at least two a full cycle is attempted first; when
    that is proven absent (or the minimum degree is below two from the start)
    the search tries cycles missing exactly one node, preferring to drop the
    minimum-degree witness, then the remaining nodes in view order.
    """
    ids, rows = _snapshot(view)
    state = _BudgetState(budget)
    if not ids:
        return state.outcome(SearchStatus.PROVEN_ABSENT)
    delta, witness = view.min_degree_witness()
    if delta is not None and delta >= 2:
        status, path = _cycle_engine(rows, ids, state)
        if status is not SearchStatus.PROVEN_ABSENT:
            return state.outcome(status, path=path)
    first = ids.index(witness)
    for m in [first] + [i for i in range(len(ids)) if i != first]:
        if state.exhausted:
            return state.outcome(SearchStatus.BUDGET_EXHAUSTED)
        # drop m: indices above it shift down by one, and m (now -1) leaves
        # the rows of its neighbours
        shift = [*range(m), -1, *range(m, len(ids) - 1)]
        sub = [tuple(map(shift.__getitem__, r)) for r in rows]
        for i in rows[m]:
            sub[i] = tuple(x for x in sub[i] if x >= 0)
        del sub[m]
        status, path = _cycle_engine(sub, ids[:m] + ids[m + 1 :], state)
        if status is SearchStatus.FOUND:
            return state.outcome(status, path=path, missed=ids[m])
        if status is SearchStatus.BUDGET_EXHAUSTED:
            return state.outcome(status)
    return state.outcome(SearchStatus.PROVEN_ABSENT)


def two_disjoint_spanning_paths(
    view, x1: int, y1: int, x2: int, y2: int, budget: Optional[SearchBudget] = None
) -> SearchOutcome:
    """Two node-disjoint paths x1-y1 and x2-y2 jointly covering every
    surviving node.

    Implemented as a single covering-path search from x1 to y2 through a
    helper node (index N, id ``_VIRTUAL``) wedged between y1 and x2; the
    helper may only be entered from y1, which pins the segment pairing.
    """
    endpoints = (x1, y1, x2, y2)
    if len(set(endpoints)) != 4:
        raise PreconditionViolated("the four endpoints must be distinct")
    _require_alive(view, *endpoints)
    ids, rows = _snapshot(view)
    a, b, c, d = (ids.index(v) for v in endpoints)
    helper = len(ids)
    rows[b] += (helper,)
    rows[c] += (helper,)
    rows.append((b, c))
    state = _BudgetState(budget)
    status, path = _path_engine(
        rows, ids + (_VIRTUAL,), a, d, state, gate=(helper, b), gate_rev=(helper, c)
    )
    if status is not SearchStatus.FOUND:
        return state.outcome(status)
    cut = path.index(_VIRTUAL)
    return state.outcome(status, paths=(path[:cut], path[cut + 1 :]))


def enumerate_ham_path_exists(view, s: int, t: int) -> bool:
    """Exact existence test by exhaustive backtracking, no pruning heuristics.

    Hard-guarded to views of at most 12 surviving nodes.
    """
    nodes = tuple(view.nodes)
    if len(nodes) > 12:
        raise TooLarge(f"enumeration guard admits at most 12 nodes, got {len(nodes)}")
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
