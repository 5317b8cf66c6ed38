"""Budgeted exact search for covering paths and cycles on surviving views.

Every service runs one search core, ``_dfs_cover``: a deterministic
depth-first backtracking search for a path from a start node through every
node that stops on a node of a given set of ends. A covering path has the
single end t, entered only last; a covering cycle starts at an anchor and
may stop on any of its neighbours. Each expansion prunes unless an end is
left to stop on, at most one unvisited node has remaining degree one and
that node is an end, and the unvisited region stays reachable from the head
(no cut leaves a piece without an end). Successors are tried
lowest-remaining-degree first, ties broken by node index, so identical
inputs always explore the identical tree.

An expansion budget separates "proven absent" (search space exhausted) from
"gave up" (budget exhausted); growing the budget can only turn the latter
into one of the former two, never change a found answer.

``enumerate_ham_path_exists`` is a tiny, prune-free enumerator kept
deliberately independent of the main engine; tests use it as ground truth.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .errors import PreconditionViolated, TooLarge

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

    @property
    def found(self) -> bool:
        return self.status is SearchStatus.FOUND


class _BudgetState:
    """Mutable expansion counter shared by the phases of one operation."""

    __slots__ = ("remaining", "spent")

    def __init__(self, budget: SearchBudget):
        self.remaining = budget.max_expansions
        self.spent = 0

    def spend(self) -> bool:
        """Account one expansion; False once the budget is gone."""
        if self.remaining <= 0:
            return False
        self.remaining -= 1
        self.spent += 1
        return True

    @property
    def exhausted(self) -> bool:
        return self.remaining <= 0


def _snapshot(view) -> tuple[tuple[int, ...], dict[int, frozenset[int]]]:
    nodes = tuple(view.nodes)
    return nodes, {v: frozenset(view.neighbors(v)) for v in nodes}


def _cut_prune(adj, current: int, remaining: set[int], targets) -> bool:
    """Structural infeasibility test for continuing a covering path.

    Works on the region H = {current} | remaining. Returns True (prune) when
    H is disconnected, when the head or any articulation point leaves two or
    more hanging pieces, or when the single allowed hanging piece contains no
    node of ``targets`` (the continuation has to end inside that piece).
    """
    if not remaining:
        return False
    disc = {current: 0}
    low = {current: 0}
    has_t = {current: False}
    parent = {}
    counter = 1
    root_children = 0
    pieces: dict[int, int] = {}
    stack = [(current, iter(adj[current]))]
    while stack:
        v, it = stack[-1]
        advanced = False
        for w in it:
            if w != current and w not in remaining:
                continue
            if w == parent.get(v):
                continue
            if w in disc:
                if disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                parent[w] = v
                disc[w] = low[w] = counter
                counter += 1
                has_t[w] = w in targets
                if v == current:
                    root_children += 1
                stack.append((w, iter(adj[w])))
                advanced = True
                break
        if advanced:
            continue
        stack.pop()
        if stack:
            p = stack[-1][0]
            if low[v] < low[p]:
                low[p] = low[v]
            if has_t[v]:
                has_t[p] = True
            if p != current and low[v] >= disc[p]:
                # subtree under v only reaches the rest through p
                if not has_t[v]:
                    return True
                pieces[p] = pieces.get(p, 0) + 1
                if pieces[p] >= 2:
                    return True
    if counter != len(remaining) + 1:
        return True  # disconnected
    if root_children >= 2:
        return True
    return False


#: Fixed restart schedule: expansion caps per retry with fresh successor
#: tie-breaking (and, for paths, alternating search direction). A fixed
#: schedule keeps larger budgets exploring a superset of smaller ones, so a
#: found answer never changes when the budget grows.
_RESTART_SLICES = (
    5_000, 5_000, 10_000, 10_000, 20_000, 20_000,
    40_000, 40_000, 80_000, 80_000, 160_000, 160_000,
)


def _tie(salt: int, c: int) -> int:
    if salt == 0:
        return c
    return ((c + 0x9E3779B9 * salt) * 2654435761) & 0xFFFFFFFF


def _dfs_cover(
    adj: dict[int, frozenset[int]],
    nodes: Iterable[int],
    s: int,
    ends: frozenset[int],
    ends_last: bool,
    state: _BudgetState,
    cap: Optional[int],
    salt: int,
    gate: Optional[Callable[[int, int], bool]] = None,
) -> tuple[SearchStatus, Optional[tuple[int, ...]], bool]:
    """One search attempt for a path from s through every node that stops on
    a node of ``ends``; with ``ends_last`` the ends are entered only last.

    Returns (status, path, cap_hit); ``cap_hit`` means this attempt was cut
    off by its slice of the schedule, not by the overall budget.
    """
    remaining = set(nodes)
    remaining.discard(s)
    path = [s]
    stack: list[list[int]] = []
    spent_here = 0

    def expand(v: int) -> Optional[list[int]]:
        # one search-tree expansion: prune checks plus ordered successors
        nonlocal spent_here
        if cap is not None and spent_here >= cap:
            return None
        if not state.spend():
            return None
        spent_here += 1
        closers = ends & remaining
        if not closers:
            return []  # no end left to stop on
        stuck = 0
        for u in remaining:
            d = len(adj[u] & remaining) + (1 if v in adj[u] else 0)
            if d == 0:
                return []
            if d == 1:
                if u not in ends:
                    return []
                stuck += 1
                if stuck > 1:
                    return []
        if _cut_prune(adj, v, remaining, closers):
            return []
        cands = adj[v] & remaining
        if ends_last and len(remaining) > 1:
            cands = cands - ends
        if gate is not None:
            cands = {c for c in cands if gate(v, c)}
        return sorted(cands, key=lambda c: (len(adj[c] & remaining), _tie(salt, c)))

    succ = expand(s)
    if succ is None:
        return SearchStatus.BUDGET_EXHAUSTED, None, not state.exhausted
    stack.append(succ)
    while stack:
        top = stack[-1]
        if not top:
            stack.pop()
            if len(path) > 1:
                remaining.add(path.pop())
            continue
        c = top.pop(0)
        path.append(c)
        remaining.discard(c)
        if not remaining:
            if c in ends:
                return SearchStatus.FOUND, tuple(path), False
            remaining.add(path.pop())
            continue
        succ = expand(c)
        if succ is None:
            return SearchStatus.BUDGET_EXHAUSTED, None, not state.exhausted
        stack.append(succ)
    return SearchStatus.PROVEN_ABSENT, None, False


_Answer = tuple[SearchStatus, Optional[tuple[int, ...]]]


def _engine(attempt: Callable[[Optional[int], int], tuple], state: _BudgetState) -> _Answer:
    """Run ``attempt(cap, phase)`` over the restart schedule; the final
    attempt runs on whatever budget remains. A single completed attempt
    settles absence, whichever slice it ran in."""
    phase = 0
    while True:
        cap = _RESTART_SLICES[phase] if phase < len(_RESTART_SLICES) else None
        status, path, cap_hit = attempt(cap, phase)
        if status is SearchStatus.FOUND or status is SearchStatus.PROVEN_ABSENT:
            return status, path
        if not cap_hit or state.exhausted:
            return SearchStatus.BUDGET_EXHAUSTED, None
        phase += 1


def _path_engine(
    adj, nodes, s: int, t: int, state: _BudgetState, gate=None, gate_rev=None
) -> _Answer:
    """Covering-path search from s to t; slices alternate forward and
    reversed endpoints (``gate_rev`` filters the reversed ones), with a
    fresh tie-break salt every second slice."""

    def attempt(cap, phase):
        rev = phase % 2 == 1
        a, b, g = (t, s, gate_rev) if rev else (s, t, gate)
        status, path, cap_hit = _dfs_cover(
            adj, nodes, a, frozenset((b,)), True, state, cap, phase // 2, g
        )
        return status, path[::-1] if rev and path else path, cap_hit

    return _engine(attempt, state)


def _cycle_engine(adj, nodes, state: _BudgetState) -> _Answer:
    """Covering-cycle search: a covering path from the most constrained node
    (lowest degree, then lowest index, so that both forced edges of a
    degree-2 node bind early) that stops on one of its neighbours. Every
    slice uses a fresh tie-break salt."""
    if len(nodes) < 3:
        return SearchStatus.PROVEN_ABSENT, None
    v0 = min(nodes, key=lambda v: (len(adj[v]), v))
    return _engine(
        lambda cap, phase: _dfs_cover(adj, nodes, v0, adj[v0], False, state, cap, phase),
        state,
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
    budget = budget or SearchBudget()
    nodes, adj = _snapshot(view)
    state = _BudgetState(budget)
    status, path = _path_engine(adj, nodes, s, t, state)
    return SearchOutcome(status, path=path, expansions=state.spent)


def ham_cycle(view, budget: Optional[SearchBudget] = None) -> SearchOutcome:
    """Search for a cycle visiting every surviving node exactly once."""
    budget = budget or SearchBudget()
    nodes, adj = _snapshot(view)
    state = _BudgetState(budget)
    status, path = _cycle_engine(adj, nodes, state)
    return SearchOutcome(status, path=path, expansions=state.spent)


def near_ham_cycle(view, budget: Optional[SearchBudget] = None) -> SearchOutcome:
    """Cycle covering all surviving nodes, or all but one.

    With minimum degree at least two a full cycle is attempted first; when
    that is proven absent (or the minimum degree is below two from the start)
    the search tries cycles missing exactly one node, preferring to drop the
    minimum-degree witness, then the remaining nodes by index.
    """
    budget = budget or SearchBudget()
    nodes, adj = _snapshot(view)
    state = _BudgetState(budget)
    if not nodes:
        return SearchOutcome(SearchStatus.PROVEN_ABSENT, expansions=0)
    delta, witness = view.min_degree_witness()
    if delta is not None and delta >= 2:
        status, path = _cycle_engine(adj, nodes, state)
        if status is SearchStatus.FOUND:
            return SearchOutcome(status, path=path, expansions=state.spent)
        if status is SearchStatus.BUDGET_EXHAUSTED:
            return SearchOutcome(status, expansions=state.spent)
    order = [witness] + [v for v in nodes if v != witness]
    ran_out = False
    for m in order:
        if state.exhausted:
            ran_out = True
            break
        sub_nodes = [v for v in nodes if v != m]
        sub_adj = {v: adj[v] - {m} for v in sub_nodes}
        status, path = _cycle_engine(sub_adj, sub_nodes, state)
        if status is SearchStatus.FOUND:
            return SearchOutcome(status, path=path, missed=m, expansions=state.spent)
        if status is SearchStatus.BUDGET_EXHAUSTED:
            ran_out = True
            break
    final = SearchStatus.BUDGET_EXHAUSTED if ran_out else SearchStatus.PROVEN_ABSENT
    return SearchOutcome(final, expansions=state.spent)


def two_disjoint_spanning_paths(
    view, x1: int, y1: int, x2: int, y2: int, budget: Optional[SearchBudget] = None
) -> SearchOutcome:
    """Two node-disjoint paths x1-y1 and x2-y2 jointly covering every
    surviving node.

    Implemented as a single covering-path search from x1 to y2 through a
    helper node wedged between y1 and x2; the helper may only be entered from
    y1, which pins the segment pairing.
    """
    endpoints = (x1, y1, x2, y2)
    if len(set(endpoints)) != 4:
        raise PreconditionViolated("the four endpoints must be distinct")
    _require_alive(view, *endpoints)
    budget = budget or SearchBudget()
    nodes, adj = _snapshot(view)
    aug = {v: nbrs for v, nbrs in adj.items()}
    aug[y1] = aug[y1] | {_VIRTUAL}
    aug[x2] = aug[x2] | {_VIRTUAL}
    aug[_VIRTUAL] = frozenset((y1, x2))
    state = _BudgetState(budget)

    def gate_fwd(v, c):
        return c != _VIRTUAL or v == y1

    def gate_rev(v, c):
        return c != _VIRTUAL or v == x2

    status, path = _path_engine(
        aug, nodes + (_VIRTUAL,), x1, y2, state, gate=gate_fwd, gate_rev=gate_rev
    )
    if status is not SearchStatus.FOUND:
        return SearchOutcome(status, expansions=state.spent)
    cut = path.index(_VIRTUAL)
    p1, p2 = path[:cut], path[cut + 1 :]
    return SearchOutcome(status, paths=(p1, p2), expansions=state.spent)


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
