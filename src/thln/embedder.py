"""Fault-tolerant covering-path construction over the recursive decomposition.

Given an n-dimensional network (n >= 7), at most 2n-10 faults, and two
surviving endpoints that each keep another surviving neighbor, ``embed``
produces a path between them that visits every surviving node, or every
surviving node but one.

The solver works level by level on the decomposition. After relabeling the
halves so half 1 carries at least as many faults as half 2 (written f1 below,
with k the halves' dimension), it dispatches:

  case 1  f1 <= 2k-10          solve half 1 recursively, and half 2 recursively
                               when its own faults and endpoints meet the bound,
                               by search otherwise
  case 2  f1  = 2k-9, min degree of half 1 >= 2   covering cycle in half 1, splice
  case 3  f1  = 2k-9, min degree <= 1             near-covering cycle missing the
                                                  starved node, agents stand in
  case 4  f1  = 2k-8, min degree >= 2   one fault is imagined repaired, the cycle
                                        through it is cut into a covering path
  case 5  f1  = 2k-8, min degree <= 1   as case 4 from a near-covering cycle

Sub-labels name the endpoint placement and splice shape; ``_LABELS`` lists
every one. Cases 2 to 5 share one body: it fetches one cycle of half 1,
covering or near-covering, with the repaired fault of cases 4 and 5 restored
and the cycle cut there into a path, and dispatches over the placements to
the constructions on that cycle (cases 2, 3) or path (cases 4, 5). An
endpoint off the cycle or path is reached through a stand-in, its cross
partner or a half-1 neighbor. Labels appear in traces and are stable.

Every "choose any" step picks the first candidate in canonical order (path
order, then node index), so runs are reproducible. Choices the construction
guarantees but cannot find raise InternalContradiction instead of being
patched around. At dimension 7 the level is solved directly by exact search,
which the fault bound (at most 4) keeps feasible.

A covering path of half 2 (no node excluded) is the theorem's own instance
one dimension down whenever f2 <= 2k-10 and its endpoints meet the neighbor
condition, so for k >= 8 it is solved as a level of its own; when that level
comes back one short, exact search over the half runs instead. At k = 7 the
level would be the same single search, so half 2 is searched directly.
A chain of case-1 levels therefore bottoms out in dimension-7 searches.

A level's inputs are its surviving view and its decomposition node, whose
dimension is the level's: the root gets the view ``embed`` validated, every
lower level the view of the half of the level above that it covers. A
level's faults are the ones its view holds; each half's view holds that
half's share of them, so a half is the theorem's instance one dimension
down, and the root view is the one check that the faults belong to the
graph. Node ids are positions, so each half is a range of ids, and both
half views are derived from the level's own view by splitting its dead
nodes and the rows its faults touch at the cut: no level reads or copies
its half's other rows. A repaired fault (cases 4 and 5) leaves that share,
and nodes kept out of a half-2 search join it as node faults; those views
are built from the graph over the half's range, at the same cost.
A level's construction may begin at either endpoint: a split pair (one
endpoint in each half) is built from its half-1 endpoint, and a starved
endpoint in case 1, or an endpoint off the half-1 cycle or path when both
lie in half 1, is reached last. The level reverses its finished path once,
when it begins at t; a split pair records that as ``flipped: True``. Every
search-service call goes through one traced call on the runtime, which
records it and raises when a guaranteed answer is missing.

The trace holds one record per level, in solve order: ``id`` (that order),
``parent`` (the calling level's ``id``, None at the root) and ``half`` (the
half of the parent it covers, None at the root). Search records carry the
``level`` that issued them; a half-2 search run because the recursion came
back one short carries ``fallback: True``.

``splice`` only concatenates, and a level checks only its path's endpoints
and its length against its view: one node short names the missed node, by
one set difference, and any other shortfall raises InternalContradiction.
``embed`` checks the finished path against the root view once, in one pass
at C level (``SurvivingView.is_path``); only a path that fails it is walked
step by step to name the first fault: a repeated node made at any level
raises DisjointnessViolated, a node outside the view InternalContradiction
and a step that is not a surviving edge AdjacencyViolated. Each carries a
PathFault (``.fault``): the failing path position and the node ids its
message names, so a caller that speaks other ids can render it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from . import oracle
from .errors import (
    AdjacencyViolated,
    DisjointnessViolated,
    InternalContradiction,
    OracleBudgetExhausted,
    PathFault,
    PreconditionViolated,
    UnknownNode,
)
from .faults import (
    FaultSet,
    SurvivingView,
    neighbor_condition,
    partition_decomposition,
    surviving_view,
)
from .oracle import SearchBudget, SearchStatus
from .topology import DecompositionNode, ThlnGraph

PathSeq = tuple[int, ...]


# ----------------------------------------------------------------------
# path utilities


def splice(segments: Iterable[Sequence[int]]) -> PathSeq:
    """Concatenate non-empty node sequences into one path.

    Consecutive segments join over the step from the last node of one to the
    first node of the next. An empty segment fails; nothing else is checked
    here: ``embed`` checks the nodes and steps of the finished path once.
    """
    out: list[int] = []
    for seg in segments:
        if not seg:
            raise AdjacencyViolated("empty segment")
        out.extend(seg)
    return tuple(out)


# ----------------------------------------------------------------------
# results and traces


@dataclass(frozen=True)
class CaseTrace:
    """Chronological construction log: one record per solved level, one per
    search-service invocation. ``NODE_FIELDS`` names the record fields that
    hold node ids: a node, a pair, or a list of pairs."""

    records: tuple[dict, ...]
    NODE_FIELDS = frozenset({"agent", "cross", "ends", "fe", "missed", "q1", "starved"})

    def labels(self) -> tuple[str, ...]:
        return tuple(r["case"] for r in self.records if "case" in r)

    def top_case(self) -> Optional[str]:
        for r in self.records:
            if "case" in r:
                return r["case"]
        return None

    def to_json_obj(self) -> list:
        def conv(x):
            if isinstance(x, dict):
                return {k: conv(v) for k, v in sorted(x.items())}
            if isinstance(x, (list, tuple)):
                return [conv(v) for v in x]
            return x

        return [conv(r) for r in self.records]


@dataclass(frozen=True)
class EmbedResult:
    path: PathSeq
    missed: Optional[int]
    trace: CaseTrace

    @property
    def hamiltonian(self) -> bool:
        return self.missed is None

    @property
    def classification(self) -> str:
        return "hamiltonian" if self.missed is None else "near-hamiltonian"

    def to_json_obj(self) -> dict:
        return {
            "status": self.classification,
            "path": list(self.path),
            "missed": self.missed,
            "trace": self.trace.to_json_obj(),
        }


# ----------------------------------------------------------------------
# runtime plumbing


@dataclass
class _Runtime:
    graph: ThlnGraph
    budget: SearchBudget
    trace: list = field(default_factory=list)
    levels: int = 0  # levels started so far; the next level's id

    def traced(self, service: str, out, what: str, at_dim: int, **extra):
        """Record one search-service call in the trace and demand the answer
        the construction guarantees for ``what`` at dimension ``at_dim``:
        budget exhaustion raises OracleBudgetExhausted, a proven absence
        InternalContradiction. Returns ``out``."""
        rec = {
            "service": service, "status": out.status.value, "expansions": out.expansions,
            "restarts": out.restarts, "backtracks": out.backtracks, "cut_tests": out.cut_tests,
        }
        rec.update(extra)
        self.trace.append(rec)
        if out.status is SearchStatus.BUDGET_EXHAUSTED:
            raise OracleBudgetExhausted(
                f"search budget exhausted during {what} at dimension {at_dim}",
                trace=CaseTrace(tuple(self.trace)),
            )
        if out.status is SearchStatus.PROVEN_ABSENT:
            raise InternalContradiction(
                f"{what} at dimension {at_dim} was guaranteed but proven absent"
            )
        return out


class _Ctx:
    """Per-level working state: halves ordered by fault count, each with its
    own faults and view, the endpoints oriented so that a split pair starts
    in half 1, and traced access to the search services."""

    def __init__(self, rt: _Runtime, view: SurvivingView, decomp: DecompositionNode,
                 s: int, t: int, level_id: int):
        self.rt = rt
        self.id = level_id
        self.dim = decomp.dim
        self.k = decomp.dim - 1
        part = partition_decomposition(decomp, view.faults)
        h1, h2 = decomp.half1, decomp.half2
        v1, v2 = view.halves(part.f1, part.f2)
        halves = [(h1, decomp.child1, part.f1, v1), (h2, decomp.child2, part.f2, v2)]
        self.swapped = len(part.f2) > len(part.f1)
        if self.swapped:
            halves.reverse()
        (
            (self.h1, self.child1, self.f1, self.h1_view),
            (self.h2, self.child2, self.f2, self.h2_view),
        ) = halves
        self.fc_count = len(part.fc_direct)
        self.partner = decomp.partner
        self.view = view
        self.delta1 = self.h1_view.min_degree_witness()[0]
        # a split pair is built from its half-1 endpoint, so its path begins
        # at t when that endpoint is t
        self.split = (s in self.h1) != (t in self.h1)
        self.flipped = self.split and t in self.h1
        self.s, self.t = (t, s) if self.flipped else (s, t)

    def partner_ok(self, x: int) -> bool:
        return self.view.has_edge(x, self.partner(x))

    def cross_pairs(self, path) -> Iterator[int]:
        """Indexes i, ascending, where path[i] and path[i + 1] both keep a
        live cross edge."""
        ok = self.partner_ok
        return (i for i in range(len(path) - 1) if ok(path[i]) and ok(path[i + 1]))

    # -- traced search services

    def _traced(self, service: str, out, what: str, half: int, **extra):
        return self.rt.traced(
            service, out, what, self.dim, level=self.id, half=half, dim=self.k, **extra
        )

    def _h2_view_without(self, exclude: Iterable[int]) -> SurvivingView:
        """Half 2's view with the nodes of ``exclude`` taken out as faults."""
        if not exclude:
            return self.h2_view
        f = FaultSet(self.f2.nodes.union(exclude), self.f2.edges)
        return SurvivingView(self.rt.graph, f, scope=self.h2)

    def ham_path_h2(self, a: int, b: int, exclude: Iterable[int] = ()) -> PathSeq:
        extra = {}
        if (
            not exclude
            and self.k >= 8
            and len(self.f2) <= 2 * self.k - 10
            and neighbor_condition(self.h2_view, a, b)
        ):
            path, missed = self.recurse(a, b, half=2)
            if missed is None:
                return path
            extra["fallback"] = True
        out = oracle.ham_path(self._h2_view_without(exclude), a, b, self.rt.budget)
        return self._traced("ham_path", out, "half-2 covering path", 2, **extra).path

    def two_paths_h2(
        self, a1: int, b1: int, a2: int, b2: int, exclude: Iterable[int] = ()
    ) -> tuple[PathSeq, PathSeq]:
        v = self._h2_view_without(exclude)
        out = oracle.two_disjoint_spanning_paths(v, a1, b1, a2, b2, self.rt.budget)
        return self._traced(
            "two_disjoint_spanning_paths", out, "half-2 disjoint path cover", 2
        ).paths

    def cycle_h1(self, near: bool, restore=None) -> tuple[PathSeq, Optional[int]]:
        """A cycle through every half-1 node, or with ``near`` through every
        one but the returned node (None when it misses none), with
        ``restore``, one half-1 fault (a node id or an edge pair), repaired."""
        view = self.h1_view
        if restore is not None:
            f = FaultSet(self.f1.nodes - {restore}, self.f1.edges - {restore})
            view = SurvivingView(self.rt.graph, f, scope=self.h1)
        if not near:
            out = oracle.ham_cycle(view, self.rt.budget)
            return self._traced("ham_cycle", out, "half-1 covering cycle", 1).path, None
        out = oracle.near_ham_cycle(view, self.rt.budget)
        self._traced("near_ham_cycle", out, "half-1 near-covering cycle", 1, missed=out.missed)
        return out.path, out.missed

    def recurse(self, s: int, t: int, half: int = 1) -> tuple[PathSeq, Optional[int]]:
        """Solve one half (1 by default) as a level of its own."""
        view, decomp = (self.h1_view, self.child1) if half == 1 else (self.h2_view, self.child2)
        return _solve_level(self.rt, view, decomp, s, t, self.id, half)

    # -- cross-edge selection

    def cross_end(self, ok) -> Optional[int]:
        """The lowest node of half 1 whose cross edge survives and that
        ``ok`` accepts, or None."""
        # partner_ok holds only for live nodes, so half 1's range stands in
        # for its node list
        return next((u for u in self.h1 if self.partner_ok(u) and ok(u)), None)

    def first_cross_pair(self, path, interior: bool = False) -> int:
        """Index of the first consecutive pair on ``path`` whose cross edges
        both survive; with ``interior``, the first that holds neither end of
        ``path``."""
        pairs = self.cross_pairs(path[:-1] if interior else path)
        idx = next((i for i in pairs if i or not interior), None)
        if idx is None:
            raise InternalContradiction(
                f"no usable cross pair on a path of {len(path)} nodes at dimension {self.dim}"
            )
        return idx

    def detour(
        self, seq, exclude: Iterable[int] = (), interior: bool = False
    ) -> tuple[PathSeq, int]:
        """``seq`` with a covering path of half 2 less ``exclude`` spliced in
        at its first cross-usable pair (``first_cross_pair``), and that
        pair's index."""
        i = self.first_cross_pair(seq, interior)
        p2 = self.ham_path_h2(self.partner(seq[i]), self.partner(seq[i + 1]), exclude)
        return splice([seq[: i + 1], p2, seq[i + 1 :]]), i


# ----------------------------------------------------------------------
# cycle geometry helpers


def _canon_cycle(cyc: Sequence[int]) -> tuple[int, ...]:
    i = min(range(len(cyc)), key=lambda j: cyc[j])
    c = tuple(cyc[i:]) + tuple(cyc[:i])
    if len(c) > 2 and c[1] > c[-1]:
        c = (c[0],) + tuple(reversed(c[1:]))
    return c


def _cyc_walk(c: Sequence[int], i: int, j: int, step: int) -> list[int]:
    m = len(c)
    out = [c[i]]
    k = i
    while k != j:
        k = (k + step) % m
        out.append(c[k])
    return out


# ----------------------------------------------------------------------
# sub-labels

#: Every sub-label a level records, keyed by (major case, endpoint
#: placement, shape). The placement is "h1" (both endpoints in half 1),
#: "h2" (both in half 2) or "split". The shape is the construction's tag,
#: recorded as the level's ``shape`` unless it is None; "stand-in" marks an
#: endpoint off the half-1 cycle or path reached through a neighbour, and
#: case 1 tags only its starved-endpoint route. Cases 2 and 4 reach no
#: stand-in: their half-1 cycle or path misses no node. A construction this
#: table does not list raises KeyError.
_LABELS = {
    ("1", "h1", None): "1.1.1",
    ("1", "h1", "starved"): "1.1.2",
    ("1", "h2", None): "1.2",
    ("1", "split", None): "1.3",
    ("2", "h1", "d1"): "2.1.1",
    ("2", "h1", "d2-direct"): "2.1.2.1",
    ("2", "h1", "d2-bypass"): "2.1.2.2",
    ("2", "h1", "d3"): "2.1.3",
    ("2", "h2", None): "2.2",
    ("2", "split", "exit"): "2.3.1",
    ("2", "split", "blocked"): "2.3.2",
    ("3", "h1", "d1"): "3.1.1.1",
    ("3", "h1", "d3"): "3.1.1.1",
    ("3", "h1", "d2-direct"): "3.1.1.2",
    ("3", "h1", "d2-reattach"): "3.1.1.2",
    ("3", "h1", "stand-in"): "3.1.2",
    ("3", "h2", None): "3.2",
    ("3", "split", "exit"): "3.3.1",
    ("3", "split", "blocked"): "3.3.1",
    ("3", "split", "stand-in"): "3.3.2",
    ("4", "h1", "d1"): "4.1.1",
    ("4", "h1", "d2"): "4.1.2",
    ("4", "h1", "d3"): "4.1.3",
    ("4", "h2", "free"): "4.2.1",
    ("4", "h2", "one-end"): "4.2.2",
    ("4", "h2", "both-ends"): "4.2.3",
    ("4", "split", "free"): "4.3.1",
    ("4", "split", "vend"): "4.3.2",
    ("4", "split", "wend"): "4.3.2",
    ("4", "split", "uend-0"): "4.3.3",
    ("4", "split", "uend-1"): "4.3.3.1",
    ("4", "split", "uend-1z"): "4.3.3.1",
    ("4", "split", "uend-1chord"): "4.3.3.1",
    ("4", "split", "uend-2"): "4.3.3.2",
    ("5", "h1", "d1"): "5.1.1",
    ("5", "h1", "d2"): "5.1.1",
    ("5", "h1", "d3"): "5.1.1",
    ("5", "h1", "stand-in"): "5.1.2",
    ("5", "h2", "free"): "5.2",
    ("5", "h2", "one-end"): "5.2",
    ("5", "h2", "both-ends"): "5.2",
    ("5", "split", "free"): "5.3.1",
    ("5", "split", "vend"): "5.3.1",
    ("5", "split", "wend"): "5.3.1",
    ("5", "split", "uend-0"): "5.3.1",
    ("5", "split", "uend-1"): "5.3.1.1",
    ("5", "split", "uend-1z"): "5.3.1.1",
    ("5", "split", "uend-1chord"): "5.3.1.1",
    ("5", "split", "uend-1miss"): "5.3.1.1",
    ("5", "split", "uend-2"): "5.3.1.2",
    ("5", "split", "stand-in"): "5.3.2",
}


# ----------------------------------------------------------------------
# case 1: half 1 within the recursive bound


def solve_case1(ctx: _Ctx):
    if ctx.split:
        return _case1_split(ctx)
    if ctx.s in ctx.h1:
        return _case1_both_h1(ctx)
    return _case1_both_h2(ctx)


def _case1_both_h1(ctx: _Ctx):
    s, t = ctx.s, ctx.t
    hv = ctx.h1_view
    s_open = any(w != t for w in hv.neighbors(s))
    t_open = any(w != s for w in hv.neighbors(t))
    if s_open and t_open:
        p1, _missed = ctx.recurse(s, t)
        path, i = ctx.detour(p1)
        a, b = p1[i], p1[i + 1]
        cross = [[a, ctx.partner(a)], [b, ctx.partner(b)]]
        return path, _LABELS["1", "h1", None], {"cross": cross}
    if not s_open and not t_open:
        raise InternalContradiction(
            "both endpoints starved inside half 1 despite the case-1 fault bound"
        )
    # exactly one endpoint has no surviving intra-half neighbor besides the
    # other; route it through its cross edge and leave it off the recursive
    # path, so the path ends at it
    if not s_open:
        s, t = t, s
    if not ctx.partner_ok(t):
        raise InternalContradiction("starved endpoint lost its cross edge as well")
    t2 = ctx.partner(t)
    s_nbrs = set(hv.neighbors(s))
    u1 = ctx.cross_end(lambda u: u not in (s, t) and s_nbrs - {u}
                       and any(w != s for w in hv.neighbors(u)))
    if u1 is None:
        raise InternalContradiction("no cross edge avoiding both endpoints was usable")
    p1, missed = ctx.recurse(s, u1)
    if missed != t:
        raise InternalContradiction(
            "recursive path was bound to leave exactly the starved endpoint out"
        )
    p2 = ctx.ham_path_h2(ctx.partner(u1), t2)
    path = splice([p1, p2, [t]])
    detail = {"cross": [[u1, ctx.partner(u1)], [t, t2]], "starved": t}
    return path, _LABELS["1", "h1", "starved"], detail


def _case1_both_h2(ctx: _Ctx):
    s, t = ctx.s, ctx.t
    p2 = ctx.ham_path_h2(s, t)
    gen = ctx.cross_pairs(p2)
    i1 = next(gen, None)
    if i1 is None:
        raise InternalContradiction("no usable cross pair on the half-2 path")
    i2 = next((j for j in gen if j >= i1 + 2), None)
    i = next((i for i in (i1, i2) if i is not None
              and all(ctx.h1_view.degree(ctx.partner(x)) >= 2 for x in p2[i : i + 2])), None)
    if i is None:
        raise InternalContradiction(
            "both disjoint cross pairs hit the single low-degree node of half 1"
        )
    u1, v1 = ctx.partner(p2[i]), ctx.partner(p2[i + 1])
    p1, _missed = ctx.recurse(u1, v1)
    path = splice([p2[: i + 1], p1, p2[i + 1 :]])
    return path, _LABELS["1", "h2", None], {"cross": [[u1, p2[i]], [v1, p2[i + 1]]]}


def _case1_split(ctx: _Ctx):
    s, t = ctx.s, ctx.t  # s inside half 1, t inside half 2
    hv = ctx.h1_view
    s_nbrs = set(hv.neighbors(s))
    u1 = ctx.cross_end(lambda u: u != s and ctx.partner(u) != t and hv.degree(u) >= 2
                       and s_nbrs - {u})
    if u1 is None:
        raise InternalContradiction("no usable cross end in half 1 for the split pair")
    p1, _missed = ctx.recurse(s, u1)
    p2 = ctx.ham_path_h2(ctx.partner(u1), t)
    path = splice([p1, p2])
    return path, _LABELS["1", "split", None], {"cross": [[u1, ctx.partner(u1)]]}


# ----------------------------------------------------------------------
# cases 2 and 3: constructions on the half-1 cycle


def _cycle_h1_both(ctx: _Ctx, c, s, t):
    """Both endpoints on the half-1 cycle; returns (path, shape tag)."""
    m = len(c)
    pos = {v: i for i, v in enumerate(c)}
    if s not in pos or t not in pos:
        raise InternalContradiction("an endpoint is missing from the half-1 cycle")
    ps, pt = pos[s], pos[t]
    fwd = (pt - ps) % m
    d = min(fwd, m - fwd)

    if d == 1:
        return ctx.detour(_cyc_walk(c, ps, pt, -1 if fwd == 1 else 1))[0], "d1"

    if d == 2:
        step_short = 1 if fwd == 2 else -1
        x1 = c[(ps + step_short) % m]
        plong = _cyc_walk(c, ps, pt, -step_short)
        if ctx.partner_ok(x1):
            y1, z1 = plong[-2], plong[1]
            if ctx.partner_ok(y1):
                p2 = ctx.ham_path_h2(ctx.partner(y1), ctx.partner(x1))
                return splice([plong[:-1], p2, [x1, t]]), "d2-direct"
            if ctx.partner_ok(z1):
                p2 = ctx.ham_path_h2(ctx.partner(x1), ctx.partner(z1))
                return splice([[s, x1], p2, plong[1:]]), "d2-direct"
            raise InternalContradiction("both bypass anchors lost their cross edges")
        if len(c) == len(ctx.h1_view):
            # x1 stays out: the result misses exactly one node, so only a
            # cycle through every half-1 node may bypass it
            return ctx.detour(plong)[0], "d2-bypass"
        # reattach the skipped middle node through one of its cycle neighbors
        interior = plong[1:-1]
        x1_nbrs = set(ctx.h1_view.neighbors(x1))
        jy = next(
            (j for j in range(len(interior) - 1) if interior[j] in x1_nbrs), None
        )
        if jy is None:
            raise InternalContradiction(
                "skipped node kept no usable cycle neighbor despite its degree floor"
            )
        v1, y1, u1 = interior[0], interior[jy], interior[jy + 1]
        if not (ctx.partner_ok(v1) and ctx.partner_ok(u1)):
            raise InternalContradiction("reattachment anchors lost their cross edges")
        p2 = ctx.ham_path_h2(ctx.partner(v1), ctx.partner(u1))
        seg_back = list(reversed(interior[: jy + 1]))  # y1 .. v1
        seg_fwd = interior[jy + 1 :] + [t]  # u1 .. t
        return splice([[s, x1], seg_back, p2, seg_fwd]), "d2-reattach"

    arc_f = _cyc_walk(c, ps, pt, 1)  # s .. t forward
    arc_b = _cyc_walk(c, ps, pt, -1)  # s .. t backward
    u1, y1 = arc_f[1], arc_f[-2]
    x1, v1 = arc_b[1], arc_b[-2]
    if ctx.partner_ok(u1) and ctx.partner_ok(v1):
        p2 = ctx.ham_path_h2(ctx.partner(v1), ctx.partner(u1))
        return splice([arc_b[:-1], p2, arc_f[1:]]), "d3"
    if ctx.partner_ok(x1) and ctx.partner_ok(y1):
        p2 = ctx.ham_path_h2(ctx.partner(y1), ctx.partner(x1))
        return splice([arc_f[:-1], p2, arc_b[1:]]), "d3"
    raise InternalContradiction("both neighbor pairs around the endpoints are blocked")


def _cycle_h2_both(ctx: _Ctx, c, s, t):
    """Both endpoints in half 2: cut the cycle at its first edge whose ends
    keep cross partners other than s and t, and enter the path left over its
    ends, as ``_path_h2_both`` does when neither partner is an endpoint;
    returns (path, None)."""
    ring = c + c[:1]  # cycle edge i is ring[i], ring[i + 1]
    cut = next(
        (i for i in ctx.cross_pairs(ring)
         if ctx.partner(ring[i]) not in (s, t) and ctx.partner(ring[i + 1]) not in (s, t)),
        None,
    )
    if cut is None:
        raise InternalContradiction("no cycle edge had two usable cross partners")
    long_path = _cyc_walk(c, cut, (cut + 1) % len(c), -1)  # a .. b avoiding edge (a, b)
    return _path_h2_both(ctx, long_path, s, t)[0], None


def _cycle_split(ctx: _Ctx, c, s, t):
    """s on the half-1 cycle, t in half 2; returns (path, 'exit'|'blocked')."""
    m = len(c)
    pos = {v: i for i, v in enumerate(c)}
    if s not in pos:
        raise InternalContradiction("the half-1 endpoint is missing from the cycle")
    ps = pos[s]
    nxt, prv = c[(ps + 1) % m], c[(ps - 1) % m]
    nbrs = sorted((nxt, prv))

    exit_node = next(
        (w for w in nbrs if ctx.partner_ok(w) and ctx.partner(w) != t), None
    )
    if exit_node is not None:
        # the long way round from s to exit_node
        walk = _cyc_walk(c, ps, pos[exit_node], -1 if exit_node == nxt else 1)
        p2 = ctx.ham_path_h2(ctx.partner(exit_node), t)
        return splice([walk, p2]), "exit"

    # one side is blocked by the single outer fault and the other side's
    # partner is t itself: finish over that cross edge
    tside = next((w for w in nbrs if ctx.partner(w) == t and ctx.partner_ok(w)), None)
    if tside is None:
        raise InternalContradiction("both cycle neighbors of the endpoint are unusable")
    # the long way round, u1 .. v1 (= partner of t), with half 2 less t
    # spliced in at a pair that is neither end of it
    arc = _cyc_walk(c, ps, pos[tside], -1 if tside == nxt else 1)[1:]
    core = ctx.detour(arc, exclude={t}, interior=True)[0]
    return splice([[s], core, [t]]), "blocked"


# ----------------------------------------------------------------------
# cases 4 and 5: one fault imagined repaired, cycle cut into a path


def _canonical_faults(f1: FaultSet):
    """Half-1 faults in canonical order: node ids ascending, then edge pairs."""
    yield from sorted(f1.nodes)
    yield from sorted(f1.edges)


def _select_restorable_fault(ctx: _Ctx):
    """First half-1 fault whose repair keeps every node at degree >= 2."""
    for fe in _canonical_faults(ctx.f1):
        if isinstance(fe, tuple):  # an edge pair: its repair lowers no degree
            return fe
        deg = sum(
            1
            for w in ctx.rt.graph.adjacency[fe]
            if ctx.h1_view.has_node(w) and (min(fe, w), max(fe, w)) not in ctx.f1.edges
        )
        if deg >= 2:
            return fe
    raise InternalContradiction("no half-1 fault can be repaired without a degree gap")


def _cut_cycle(ctx: _Ctx, cyc: PathSeq, fe) -> PathSeq:
    """Remove the repaired element from the cycle, leaving a covering path of
    the unrepaired half. Falls back to the smallest cycle edge when the
    repaired element (a node id or an edge pair) is not on the cycle."""
    m = len(cyc)
    if not isinstance(fe, tuple):
        if fe not in cyc:
            raise InternalContradiction("repaired node missing from its covering cycle")
        i = cyc.index(fe)
        return tuple(cyc[i + 1 :]) + tuple(cyc[:i])
    u, v = fe
    for i in range(m):
        a, b = cyc[i], cyc[(i + 1) % m]
        if (a, b) == (u, v) or (a, b) == (v, u):
            return tuple(cyc[i + 1 :]) + tuple(cyc[: i + 1])
    # repaired edge unused: cut at the smallest edge on the cycle
    best = min(
        range(m),
        key=lambda i: (min(cyc[i], cyc[(i + 1) % m]), max(cyc[i], cyc[(i + 1) % m])),
    )
    return tuple(cyc[best + 1 :]) + tuple(cyc[: best + 1])


def _path_h1_both(ctx: _Ctx, p1: PathSeq, s, t):
    """Both endpoints on the half-1 path; the path begins at whichever of
    them comes first on the oriented half-1 path."""
    if s not in p1 or t not in p1:
        raise InternalContradiction("an endpoint is missing from the half-1 path")
    for seq in (tuple(p1), tuple(reversed(p1))):
        pos = {v: i for i, v in enumerate(seq)}
        pa, pb = sorted((pos[s], pos[t]))
        # the skipped-pair shape needs room past the far endpoint
        if pb - pa != 2 or pb < len(seq) - 2:
            break
    else:
        raise InternalContradiction("covering path too short to orient")
    u2, v2 = ctx.partner(seq[0]), ctx.partner(seq[-1])
    head = seq[pa::-1]  # the nearer endpoint back to the path's first node

    if pb - pa == 1:
        p2 = ctx.ham_path_h2(u2, v2)
        return splice([head, p2, seq[pb:][::-1]]), "d1"
    if pb - pa == 2:
        x1, y1 = seq[pa + 1], seq[pb + 1]
        p21, p22 = ctx.two_paths_h2(u2, v2, ctx.partner(x1), ctx.partner(y1))
        return splice([head, p21, seq[pb + 1 :][::-1], p22[::-1], [x1, seq[pb]]]), "d2"
    x1, y1 = seq[pa + 1], seq[pb - 1]
    p21, p22 = ctx.two_paths_h2(u2, ctx.partner(x1), v2, ctx.partner(y1))
    return splice([head, p21, seq[pa + 1 : pb], p22[::-1], seq[pb:][::-1]]), "d3"


def _path_h2_both(ctx: _Ctx, p1: PathSeq, s, t):
    """Both endpoints in half 2; the half-1 path is entered over its ends'
    cross edges."""
    u1, v1 = p1[0], p1[-1]
    u2, v2 = ctx.partner(u1), ctx.partner(v1)
    hit = {u2, v2} & {s, t}

    if not hit:
        p21, p22 = ctx.two_paths_h2(s, u2, v2, t)
        return splice([p21, p1, p22]), "free"

    if len(hit) == 1:
        seq = tuple(p1) if u2 in (s, t) else tuple(reversed(p1))
        head = ctx.partner(seq[0])
        tail_partner = ctx.partner(seq[-1])
        other = t if head == s else s
        p2 = ctx.ham_path_h2(tail_partner, other, exclude={head})
        path = splice([[head], seq, p2])
        if head != s:
            path = tuple(reversed(path))
        return path, "one-end"

    # s and t are the ends' partners: half 2 less them is spliced in at a
    # pair that is neither end of the path
    seq = tuple(p1) if u2 == s else tuple(reversed(p1))
    core = ctx.detour(seq, exclude={s, t}, interior=True)[0]
    return splice([[s], core, [t]]), "both-ends"


def _path_split(ctx: _Ctx, p1: PathSeq, s, t):
    """s on the half-1 path, t in half 2."""
    seq = tuple(p1)
    pos = {v: i for i, v in enumerate(seq)}
    L = len(seq) - 1
    if s not in pos:
        raise InternalContradiction("the half-1 endpoint is missing from the path")
    if pos[s] > L - 2:
        seq = tuple(reversed(seq))
        pos = {v: i for i, v in enumerate(seq)}
    ps = pos[s]
    u1, w1, v1 = seq[0], seq[ps + 1], seq[L]
    u2, w2, v2 = ctx.partner(u1), ctx.partner(w1), ctx.partner(v1)

    head = seq[ps::-1]  # s back to u1

    if t not in (u2, w2, v2):
        p21, p22 = ctx.two_paths_h2(u2, w2, v2, t)
        return splice([head, p21, seq[ps + 1 :], p22]), "free"

    if t == v2:
        p2 = ctx.ham_path_h2(u2, w2, exclude={t})
        return splice([head, p2, seq[ps + 1 :], [t]]), "vend"

    if t == w2:
        p2 = ctx.ham_path_h2(u2, v2, exclude={t})
        return splice([head, p2, seq[ps + 1 :][::-1], [t]]), "wend"

    # t is the partner of the near end
    if ps == 0:
        p2 = ctx.ham_path_h2(v2, t)
        return splice([seq, p2]), "uend-0"

    if ps == 1:
        on_path = sorted(
            pos[w] for w in ctx.h1_view.neighbors(u1) if w in pos and pos[w] >= 2
        )
        px = next((p for p in on_path if p >= 4), None)
        if px is not None:
            y1 = seq[px - 1]
            p21, p22 = ctx.two_paths_h2(w2, t, v2, ctx.partner(y1))
            return splice([[s, u1], seq[px:], p22, seq[2:px][::-1], p21]), "uend-1"
        if 3 in on_path:
            z1 = seq[4]
            p21, p22 = ctx.two_paths_h2(w2, ctx.partner(z1), v2, t)
            return splice([[s, u1], [seq[3], seq[2]], p21, seq[4:], p22]), "uend-1z"
        if 2 in on_path:
            p2 = ctx.ham_path_h2(v2, t)
            return splice([[s, u1], seq[2:], p2]), "uend-1chord"
        # u1 is the starved node, whose only neighbours are s and t: leave it out
        return splice([seq[1:], ctx.ham_path_h2(v2, t)]), "uend-1miss"

    x1 = seq[ps - 1]
    p21, p22 = ctx.two_paths_h2(ctx.partner(s), w2, v2, ctx.partner(x1), exclude={t})
    return splice([[s], p21, seq[ps + 1 :], p22, seq[:ps][::-1], [t]]), "uend-2"


# ----------------------------------------------------------------------
# cases 2 to 5: one body, one dispatch over the endpoint placements

#: the constructions on a half-1 cycle or path, by endpoint placement: both
#: in half 1, both in half 2, split (s in half 1); each returns (path, shape)
_CYCLE_SHAPES = (_cycle_h1_both, _cycle_h2_both, _cycle_split)
_PATH_SHAPES = (_path_h1_both, _path_h2_both, _path_split)


def _solve_cover(ctx: _Ctx, major: str):
    """Cover the level around one cycle of half 1: a covering cycle in cases
    2 and 4, a near-covering one, which misses the starved node, in cases 3
    and 5. Cases 4 and 5 first repair one fault: the first that leaves half
    1 at minimum degree 2 in case 4, the first in case 5; the cycle cut at
    it is a path of the unrepaired half. Those levels hold no fault outside
    half 1 (``_solve_level`` checks f2 = fc = 0)."""
    fe = None
    if major == "4":
        fe = _select_restorable_fault(ctx)
    elif major == "5":
        fe = next(_canonical_faults(ctx.f1))
    cyc, q1 = ctx.cycle_h1(near=major in ("3", "5"), restore=fe)
    if fe is None:
        return _dispatch(ctx, _CYCLE_SHAPES, _canon_cycle(cyc), q1, major, ctx.s, ctx.t)
    p1 = _cut_cycle(ctx, cyc, fe)
    path, label, detail = _dispatch(ctx, _PATH_SHAPES, p1, q1, major, ctx.s, ctx.t)
    detail.update(ends=[p1[0], p1[-1]], fe=list(fe) if isinstance(fe, tuple) else fe)
    return path, label, detail


def _dispatch(ctx: _Ctx, shapes, seq: PathSeq, q1: Optional[int], major: str, s: int, t: int):
    """Cover the level from s to t around ``seq``, a half-1 cycle (cases 2
    and 3, in ``_canon_cycle`` form) or path (cases 4 and 5) through every
    surviving half-1 node but ``q1`` (None when it misses none), with the
    constructions ``shapes`` on it. A split pair comes with s in half 1.
    Returns (path, label, detail)."""
    detail: dict = {} if q1 is None else {"q1": q1}
    if q1 in (s, t):
        # The endpoint off ``seq`` is reached from a stand-in: its cross
        # partner when that edge survives and the partner is not the other
        # endpoint, else its lowest half-1 neighbour besides the other
        # endpoint. A split pair whose half-2 end is that partner takes the
        # neighbour in every case, 4 and 5 included.
        off, other = (s, t) if s == q1 else (t, s)
        if ctx.partner_ok(off) and ctx.partner(off) != other:
            agent = ctx.partner(off)
        else:
            agent = next((w for w in sorted(ctx.h1_view.neighbors(off)) if w != other), None)
            if agent is None:
                raise InternalContradiction("off-cycle endpoint kept no usable neighbor")
        detail["agent"] = agent
        if other in ctx.h1:  # both in half 1: the path ends at the off endpoint
            core, _label, _inner = _dispatch(ctx, shapes, seq, q1, major, other, agent)
            detail["flipped"] = off == s
            return splice([core, [off]]), _LABELS[major, "h1", "stand-in"], detail
        core, _label, inner = _dispatch(ctx, shapes, seq, q1, major, agent, t)
        # pinned trace format: only a stand-in in half 2 records its inner shape
        if agent not in ctx.h1 and "shape" in inner:
            detail["shape"] = inner["shape"]
        return splice([[off], core]), _LABELS[major, "split", "stand-in"], detail
    h1_both, h2_both, split = shapes
    if s in ctx.h1 and t in ctx.h1:
        placement, (path, shape) = "h1", h1_both(ctx, seq, s, t)
    elif s in ctx.h1:
        placement, (path, shape) = "split", split(ctx, seq, s, t)
    else:
        placement, (path, shape) = "h2", h2_both(ctx, seq, s, t)
    if shape is not None:
        detail["shape"] = shape
    return path, _LABELS[major, placement, shape], detail


# ----------------------------------------------------------------------
# level solver and public entry point


def _solve_level(rt: _Runtime, view: SurvivingView, decomp: DecompositionNode, s: int, t: int,
                 parent: Optional[int] = None, half: Optional[int] = None):
    """Path from s to t over ``view``, the level of ``decomp``, and the node
    it misses (or None); ``parent`` is the calling level's id and ``half``
    the half of it this level covers, both None at the root."""
    dim = decomp.dim
    level_id = rt.levels
    rt.levels += 1
    rec: dict = {"dim": dim, "id": level_id, "parent": parent, "half": half}
    rt.trace.append(rec)
    if not neighbor_condition(view, s, t):
        raise InternalContradiction(
            f"level at dimension {dim} received endpoints violating the neighbor condition"
        )

    if dim == 7:
        # at most 4 faults keep the dimension-7 base covered by paths
        out = oracle.ham_path(view, s, t, rt.budget)
        path = rt.traced(
            "ham_path", out, "base covering path", 7, level=level_id, half=0, dim=7
        ).path
        rec.update(case="base", missed=None)
    else:
        ctx = _Ctx(rt, view, decomp, s, t, level_id)
        k = ctx.k
        f1 = len(ctx.f1)
        delta = ctx.delta1
        if delta is None:
            raise InternalContradiction("half 1 has no surviving node")
        if f1 <= 2 * k - 10:
            path, label, detail = solve_case1(ctx)
        elif f1 == 2 * k - 9:
            path, label, detail = _solve_cover(ctx, "2" if delta >= 2 else "3")
        elif f1 == 2 * k - 8 and not ctx.f2 and not ctx.fc_count:
            path, label, detail = _solve_cover(ctx, "4" if delta >= 2 else "5")
        else:
            raise PreconditionViolated(
                f"fault load f1={f1}, f2={len(ctx.f2)}, fc={ctx.fc_count} exceeds "
                f"the dispatch table at dimension {dim}"
            )
        if path[0] == t:  # the construction began at t
            path = path[::-1]
        if ctx.split:
            detail["flipped"] = ctx.flipped
        rec.update(
            case=label,
            f1=f1,
            f2=len(ctx.f2),
            fc=ctx.fc_count,
            delta1=delta,
            swapped=ctx.swapped,
        )
        rec.update(detail)

    if path[0] != s or path[-1] != t:
        raise InternalContradiction("assembled path has the wrong endpoints")
    # ends and length only: ``embed`` checks the nodes and steps once
    short = len(view) - len(path)
    missed = None
    if short == 1:
        off = view.node_set - set(path)
        if len(off) != 1 or off & {s, t}:
            raise InternalContradiction(
                f"a path one node short at dimension {dim} leaves out {sorted(off)}"
            )
        (missed,) = off
    elif short:
        raise InternalContradiction(f"assembled path misses {short} nodes at dimension {dim}")
    rec["missed"] = missed
    return path, missed


def embed(
    g: ThlnGraph,
    f: FaultSet,
    s: int,
    t: int,
    budget: Optional[SearchBudget] = None,
    *,
    enforce_bounds: bool = True,
) -> EmbedResult:
    """Covering (or one-short) path between s and t in the surviving graph.

    Requires dimension >= 7, at most ``2n - 10`` faults, both endpoints
    surviving and distinct, and each endpoint keeping a surviving neighbor
    besides the other (an endpoint id outside the graph raises UnknownNode).
    ``enforce_bounds=False`` drops the fault-count check for out-of-contract
    probing; everything else still applies.
    """
    budget = budget or SearchBudget()
    view = surviving_view(g, f)  # raises ForeignFault before any other check
    n = g.dimension
    if n < 7:
        raise PreconditionViolated(f"embedding needs dimension >= 7, got {n}")
    if enforce_bounds and len(f) > 2 * n - 10:
        raise PreconditionViolated(
            f"fault count {len(f)} exceeds the bound {2 * n - 10} at dimension {n}"
        )
    if s == t:
        raise PreconditionViolated("endpoints must be distinct")
    for v in (s, t):
        if not 0 <= v < g.num_nodes:
            raise UnknownNode(f"endpoint {v} is not a node of the graph")
        if not view.has_node(v):
            raise PreconditionViolated(f"endpoint {v} is faulty")
    if not neighbor_condition(view, s, t):
        raise PreconditionViolated(
            "neighbor condition: an endpoint has no surviving neighbor besides the other"
        )
    rt = _Runtime(graph=g, budget=budget)
    path, missed = _solve_level(rt, view, g.decomposition, s, t)
    # the one check of the path's nodes and steps, whichever level made them;
    # only a path that fails it is walked to name its first fault
    if not view.is_path(path):
        seen: set[int] = set()
        for i, v in enumerate(path):
            if v in seen:
                raise DisjointnessViolated(
                    PathFault("node {} repeated at position {position}", (v,), i)
                )
            if not view.has_node(v):
                raise InternalContradiction(
                    PathFault("node {} at position {position} is not a surviving node", (v,), i)
                )
            if i and not view.has_edge(path[i - 1], v):
                raise AdjacencyViolated(PathFault(
                    "({},{}) is not a surviving edge at position {position}",
                    (path[i - 1], v), i - 1,
                ))
            seen.add(v)
    return EmbedResult(path=tuple(path), missed=missed, trace=CaseTrace(tuple(rt.trace)))
