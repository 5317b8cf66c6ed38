"""Fault sets, fault sampling, the surviving subgraph view, and the fault
split across the top decomposition level.

A fault set holds failed nodes and failed edges. The surviving view is the
graph with faulty nodes removed and an edge present only when both endpoints
survive and the edge itself is not faulty. Faulting an edge whose endpoint is
already faulty is allowed and still counts toward the fault total; redundant
faults only make bound checks more conservative.
"""
from __future__ import annotations

import json
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Container, Iterable, KeysView, Optional

from .errors import (
    FaultyEndpoint,
    ForeignFault,
    MalformedGraph,
    NoDecomposition,
    PreconditionViolated,
)
from .topology import DecompositionNode, Edge, ThlnGraph, _norm_edge


@dataclass(frozen=True)
class FaultSet:
    """Failed nodes and failed edges; edge pairs are stored as (min, max)."""

    nodes: frozenset[int]
    edges: frozenset[Edge]

    @classmethod
    def of(cls, nodes: Iterable[int] = (), edges: Iterable[Edge] = ()) -> "FaultSet":
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop fault at node {u}")
            norm.add(_norm_edge(u, v))
        return cls(nodes=frozenset(nodes), edges=frozenset(norm))

    @classmethod
    def empty(cls) -> "FaultSet":
        return cls(frozenset(), frozenset())

    def __len__(self) -> int:
        return len(self.nodes) + len(self.edges)

    def restricted(self, node_set: Container[int]) -> "FaultSet":
        """Faults lying entirely inside ``node_set`` (edges need both ends)."""
        return FaultSet(
            nodes=frozenset(v for v in self.nodes if v in node_set),
            edges=frozenset(e for e in self.edges if e[0] in node_set and e[1] in node_set),
        )

    def validate_against(self, g: ThlnGraph) -> None:
        for v in self.nodes:
            if not (0 <= v < g.num_nodes):
                raise ForeignFault(f"faulty node {v} is not in the graph")
        for u, v in self.edges:
            # the range guard matters: adjacency[-1] is the last node's row
            if not (0 <= u < v < g.num_nodes and v in g.adjacency[u]):
                raise ForeignFault(f"faulty edge {(u, v)} is not in the graph")

    def to_json_obj(self) -> dict:
        return {
            "nodes": sorted(self.nodes),
            "edges": [list(e) for e in sorted(self.edges)],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json_obj(cls, obj) -> "FaultSet":
        """Raises ValueError unless ``obj`` is an object whose ``nodes`` are
        integers and whose ``edges`` are pairs of integers."""
        if not isinstance(obj, dict):
            raise ValueError(f"a fault file must hold an object, got {type(obj).__name__}")

        def node(x) -> int:
            if isinstance(x, bool) or not isinstance(x, int):
                raise ValueError(f"fault entries must be integers, got {x!r}")
            return x

        def edge(e) -> Edge:
            if not isinstance(e, list) or len(e) != 2:
                raise ValueError(f"a faulty edge must be a pair of integers, got {e!r}")
            return node(e[0]), node(e[1])

        nodes, edges = obj.get("nodes", []), obj.get("edges", [])
        if not isinstance(nodes, list) or not isinstance(edges, list):
            raise ValueError("fault 'nodes' and 'edges' must be lists")
        return cls.of(nodes=[node(v) for v in nodes], edges=[edge(e) for e in edges])

    @classmethod
    def from_json(cls, text: str) -> "FaultSet":
        return cls.from_json_obj(json.loads(text))


class SurvivingView:
    """Read-only fault-free subgraph, optionally narrowed to a range of ids
    (of step 1; any other step raises ValueError).

    A node is present iff it is in scope and not faulty; an edge is present
    iff both endpoints are present and the edge is not faulty. A view built
    from a graph validates its fault set (:class:`ForeignFault`); the views
    :meth:`halves` derives hold shares of faults validated already. A view
    stores one row dict, whose rows, like the graph's, list neighbours in
    ascending order, and the tuple of its nodes in ascending order
    (``nodes``); ``node_set`` is the dict's key view. Views are cheap to
    share and safe to use concurrently.

    The view keeps its fault set (``faults``), not its graph or scope. To
    leave nodes out of a view, add them to its faults as node faults: the
    view of a scope under ``F + X`` is the view of that scope under ``F``
    with exactly the nodes of X and their edges removed.

    Building one costs O(scope + faults x degree): a row that no fault
    touches is the graph's own row (kept as is when unscoped, sliced to the
    scope otherwise), and only the rows of a dead node's neighbours and of a
    faulty edge's endpoints are filtered against the faults. The views of a
    level's two halves are derived from the level's own view by
    :meth:`halves`, at one row slice and one comparison per node.
    """

    __slots__ = ("faults", "_adj", "_nodes")

    def __init__(
        self,
        graph: ThlnGraph,
        faults: FaultSet,
        scope: Optional[range] = None,
    ):
        faults.validate_against(graph)
        self.faults = faults
        rows = graph.adjacency
        if scope is None:
            adj = dict(enumerate(rows))  # the graph's own rows, shared
        elif scope.step != 1:
            raise ValueError(f"a view's scope must be a range of step 1, got {scope!r}")
        else:
            # walk the scope, not the whole graph; nodes outside the graph drop
            # out. Rows ascend, so a row's share of an id range is one slice.
            lo, hi = max(scope.start, 0), min(scope.stop, graph.num_nodes)
            adj = {v: rows[v][bisect_left(rows[v], lo):bisect_left(rows[v], hi)]
                   for v in range(lo, hi)}
        dead = faults.nodes
        bad_edge = faults.edges
        # only the rows of a dead node's neighbours and of a faulty edge's
        # endpoints lose an entry to the faults
        hit = {w for v in dead for w in rows[v]}
        hit.update(v for e in bad_edge for v in e)
        for v in dead:
            adj.pop(v, None)
        for v in hit.intersection(adj):
            adj[v] = tuple(w for w in adj[v] if w not in dead and _norm_edge(v, w) not in bad_edge)
        self._adj = adj
        self._nodes = tuple(adj)  # ascending: built in node order

    def halves(
        self, mid: int, f_low: FaultSet, f_high: FaultSet
    ) -> tuple["SurvivingView", "SurvivingView"]:
        """The views of this level's two halves, the ids below ``mid`` under
        ``f_low`` and the rest under ``f_high``: each half's share of this
        view's faults, as ``partition_decomposition`` splits them, which are
        not validated again.

        This view must hold exactly one level of a graph, whose halves are
        the ids below and from ``mid``, with its faults removed. A node's one
        neighbour in the other half is then its cross partner, which an
        ascending row lists last in the lower half and first in the upper
        half, so each derived row is the level's row with at most that one
        entry cut off. A row with two entries in the other half raises
        MalformedGraph.
        """
        nodes, adj = self._nodes, self._adj
        cut = bisect_left(nodes, mid)
        low, high = {}, {}
        for v in nodes[:cut]:
            row = adj[v]
            if row and row[-1] >= mid:
                row = row[:-1]
                if row and row[-1] >= mid:
                    raise MalformedGraph(f"node {v} has two neighbours across the cut at {mid}")
            low[v] = row
        for v in nodes[cut:]:
            row = adj[v]
            if row and row[0] < mid:
                row = row[1:]
                if row and row[0] < mid:
                    raise MalformedGraph(f"node {v} has two neighbours across the cut at {mid}")
            high[v] = row
        cls = type(self)
        views = cls.__new__(cls), cls.__new__(cls)
        for view, faults, rows in zip(views, (f_low, f_high), (low, high)):
            view.faults = faults
            view._adj = rows
            view._nodes = tuple(rows)
        return views

    @property
    def nodes(self) -> tuple[int, ...]:
        return self._nodes

    @property
    def node_set(self) -> KeysView[int]:
        return self._adj.keys()

    def __len__(self) -> int:
        return len(self._nodes)

    def has_node(self, v: int) -> bool:
        return v in self._adj

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        row = self._adj.get(u)
        return row is not None and v in row

    def min_degree_witness(self) -> tuple[Optional[int], Optional[int]]:
        """(minimum degree, lowest-index node attaining it); (None, None) if empty."""
        best_deg: Optional[int] = None
        best_node: Optional[int] = None
        for v in self._nodes:
            d = len(self._adj[v])
            if best_deg is None or d < best_deg:
                best_deg, best_node = d, v
        return best_deg, best_node


def sample_faults(g: ThlnGraph, count: int, rng: random.Random) -> FaultSet:
    """``count`` distinct faults drawn uniformly from the nodes and edges of
    ``g`` by one ``rng.sample`` call (no draw at all when ``count`` is 0)."""
    elements = [("node", v) for v in g.nodes] + [("edge", e) for e in g.edges]
    picked = rng.sample(elements, count) if count else []
    return FaultSet.of(
        nodes=(p for k, p in picked if k == "node"),
        edges=(p for k, p in picked if k == "edge"),
    )


def surviving_view(g: ThlnGraph, f: FaultSet) -> SurvivingView:
    """The fault-free subgraph of ``g`` under fault set ``f``."""
    return SurvivingView(g, f)


@dataclass(frozen=True)
class FaultPartition:
    """Fault set split across the top decomposition level.

    ``fc_direct`` holds the cross edges that are faulty themselves; a cross
    edge lost only to a faulty endpoint is not counted again.
    """

    f1: FaultSet
    f2: FaultSet
    fc_direct: frozenset[Edge]

    @property
    def counts(self) -> tuple[int, int, int]:
        return (len(self.f1), len(self.f2), len(self.fc_direct))


def partition_decomposition(decomp: DecompositionNode, f: FaultSet) -> FaultPartition:
    """Split ``f`` at one level: an edge with an end in each half is a cross
    fault."""
    h1, h2 = decomp.half1, decomp.half2
    cross = frozenset((u, v) for u, v in f.edges if u in h1 and v in h2)  # u < v
    return FaultPartition(f.restricted(h1), f.restricted(h2), cross)


def partition(g: ThlnGraph, f: FaultSet) -> FaultPartition:
    """Split ``f`` into half-1 faults, half-2 faults, and cross-edge faults."""
    if g.decomposition is None:
        raise NoDecomposition("cannot partition faults without a decomposition")
    f.validate_against(g)
    return partition_decomposition(g.decomposition, f)


def neighbor_condition(view: SurvivingView, s: int, t: int) -> bool:
    """True iff both endpoints keep a surviving neighbor besides each other.

    This is necessary for any path of length two or more between ``s`` and
    ``t`` to exist in the surviving graph.
    """
    if s == t:
        raise PreconditionViolated("endpoints must be distinct")
    for v in (s, t):
        if not view.has_node(v):
            raise FaultyEndpoint(f"endpoint {v} is not in the surviving view")
    s_ok = any(w != t for w in view.neighbors(s))
    t_ok = any(w != s for w in view.neighbors(t))
    return s_ok and t_ok
