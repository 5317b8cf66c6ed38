"""Fault sets, the draw of faults over a level and of endpoints, the surviving
subgraph view, and the fault split across the top decomposition level.

A fault set holds failed nodes and failed edges. The surviving view is the
graph, or one level of it, with faulty nodes removed and an edge present only
when both endpoints survive and the edge itself is not faulty; its rows keep
the graph's level order. Faulting an edge whose endpoint is
already faulty is allowed and still counts toward the fault total; redundant
faults only make bound checks more conservative.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import filterfalse
from operator import contains, itemgetter
from typing import Container, Iterable, Optional, Sequence

from .errors import ForeignFault, PreconditionViolated
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
    """Read-only fault-free subgraph, optionally narrowed to one level of
    the graph: an aligned block of 2^d ids, d >= 3, inside the graph (any
    other scope raises ValueError).

    A node is present iff it is in scope and not faulty; an edge is present
    iff both endpoints are present and the edge is not faulty. A view built
    from a graph validates its fault set (:class:`ForeignFault`); the views
    :meth:`halves` derives hold shares of faults validated already. Views are
    cheap to share and safe to use concurrently.

    A view holds no row per node. It holds its graph's rows, its level (id
    range and dimension d), its dead nodes in that range, and the filtered
    rows of the nodes its faults touch: a dead node's neighbours and a
    faulty edge's ends. Every other node's row is the graph row's share of
    the level, its first d entries, as graph rows are in level order
    (:class:`~thln.topology.ThlnGraph`). Rows keep that order, and
    ``nodes``, built when first asked for and then kept, lists the nodes in
    ascending order.

    The view keeps its fault set (``faults``), not its graph or scope, and
    its graph's ``shape_ok`` flag: on a graph that passes ``check_shape``
    every row names only nodes of the view, which search then need not
    check. To leave nodes out of a view, add them to its faults as node
    faults: the view of a scope under ``F + X`` is the view of that scope
    under ``F`` with exactly the nodes of X and their edges removed.

    Building one costs O(faults x degree), and so does deriving the views of
    a level's two halves by :meth:`halves`, which splits the dead set and the
    touched rows at the cut. ``len`` and ``min_degree_witness`` read the
    faults alone; ``nodes``, ``node_set`` and ``rows`` cost O(range).
    """

    __slots__ = ("faults", "shape_ok", "_adj", "_lo", "_hi", "_d", "_dead", "_touched", "_nodes")

    def __init__(
        self,
        graph: ThlnGraph,
        faults: FaultSet,
        scope: Optional[range] = None,
    ):
        faults.validate_against(graph)
        adj = graph.adjacency
        lo, hi, d = 0, len(adj), graph.dimension
        if scope is not None:
            lo, hi, size = scope.start, scope.stop, len(scope)
            d = size.bit_length() - 1
            if scope.step != 1 or d < 3 or size != 1 << d or lo % size or lo < 0 or hi > len(adj):
                raise ValueError(f"a view's scope must be a level of the graph, 2^d ids from "
                                 f"a multiple of 2^d with d >= 3, got {scope!r}")
        dead = frozenset(v for v in faults.nodes if lo <= v < hi)
        # only the rows of a dead node's neighbours and of a faulty edge's
        # ends lose an entry to the faults: the ones in ``gone``
        gone: dict[int, set[int]] = {}
        for v in dead:
            for w in adj[v]:
                gone.setdefault(w, set()).add(v)
        for u, w in faults.edges:
            gone.setdefault(u, set()).add(w)
            gone.setdefault(w, set()).add(u)
        touched = {v: tuple(filterfalse(lost.__contains__, adj[v][:d]))
                   for v, lost in gone.items() if lo <= v < hi and v not in dead}
        self._fill(faults, graph.shape_ok, adj, lo, hi, d, dead, touched)

    def _fill(self, faults, shape_ok, adj, lo, hi, d, dead, touched) -> "SurvivingView":
        self.faults = faults
        self.shape_ok = shape_ok
        self._adj = adj
        self._lo, self._hi, self._d = lo, hi, d
        self._dead = dead
        self._touched = touched
        self._nodes = None  # built when first asked for
        return self

    def halves(self, f_low: FaultSet, f_high: FaultSet) -> tuple["SurvivingView", "SurvivingView"]:
        """The views of this level's two halves, half 1 under ``f_low`` and
        half 2 under ``f_high``: each half's share of this view's faults, as
        ``partition_decomposition`` splits them, not validated again.

        A half's dead nodes are this view's on its side of the cut, and a
        touched row drops its last entry when that entry, the level's cross
        partner, lies across the cut. Which rows a graph holds is
        ``check_shape``'s business, not this split's.
        """
        d, mid = self._d - 1, self._lo + (1 << (self._d - 1))
        low_dead = frozenset(v for v in self._dead if v < mid)
        low, high = {}, {}
        for v, row in self._touched.items():
            side = v < mid
            (low if side else high)[v] = row[:-1] if row and (row[-1] < mid) != side else row
        cls = type(self)
        return (
            cls.__new__(cls)._fill(f_low, self.shape_ok, self._adj, self._lo, mid, d, low_dead, low),
            cls.__new__(cls)._fill(f_high, self.shape_ok, self._adj, mid, self._hi, d,
                                   self._dead - low_dead, high),
        )

    @property
    def nodes(self) -> tuple[int, ...]:
        if self._nodes is None:
            span = range(self._lo, self._hi)
            self._nodes = tuple(filterfalse(self._dead.__contains__, span) if self._dead else span)
        return self._nodes

    @property
    def node_set(self) -> frozenset[int]:
        return frozenset(self.nodes)

    def __len__(self) -> int:
        return self._hi - self._lo - len(self._dead)

    def has_node(self, v: int) -> bool:
        return self._lo <= v < self._hi and v not in self._dead

    def neighbors(self, v: int) -> tuple[int, ...]:
        """``v``'s row; KeyError when ``v`` is not a node of the view."""
        row = self._touched.get(v)
        if row is not None:
            return row
        if not self.has_node(v):
            raise KeyError(v)
        return self._adj[v][:self._d]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        row = self._touched.get(u)
        if row is not None:
            return v in row
        # an untouched node has no dead neighbour and no faulty edge
        lo, hi = self._lo, self._hi
        return lo <= u < hi and lo <= v < hi and u not in self._dead and v in self._adj[u]

    def rows(self) -> list[tuple[int, ...]]:
        """Every node's row, in ``nodes`` order."""
        ids = self.nodes
        share = map(itemgetter(slice(self._d)), map(self._adj.__getitem__, ids))
        # a touched node's filtered row, else the graph row's share
        return list(map(self._touched.get, ids, share))

    def is_path(self, path: Sequence[int]) -> bool:
        """True iff ``path`` holds no node twice, only nodes of this view,
        and steps only over edges of it. One pass at C level: a step between
        two live nodes of the range is an edge of the view iff it is in the
        graph row, or in the touched row when its first node has one."""
        seen = set(path)
        if len(seen) != len(path):
            return False
        if not seen:
            return True
        if min(seen) < self._lo or max(seen) >= self._hi or not self._dead.isdisjoint(seen):
            return False
        rows = list(self._adj)
        for v, row in self._touched.items():
            rows[v] = row
        return all(map(contains, map(rows.__getitem__, path[:-1]), path[1:]))

    def min_degree_witness(self) -> tuple[Optional[int], Optional[int]]:
        """(minimum degree, lowest-index node attaining it); (None, None) if empty.

        On a graph that passes ``check_shape`` every untouched node of a
        level of dimension d has degree d, so the touched rows and the
        lowest untouched node are read.
        """
        lo, hi, dead, touched = self._lo, self._hi, self._dead, self._touched
        # the lowest node neither dead nor touched, if any
        free = next((v for v in range(lo, hi) if v not in dead and v not in touched), None)
        pairs = [(len(row), v) for v, row in touched.items()]
        if free is not None:
            pairs.append((len(self.neighbors(free)), free))
        return min(pairs, default=(None, None))


def sample_faults(g: ThlnGraph, count: int, rng: random.Random,
                  scope: Optional[range] = None) -> FaultSet:
    """``count`` distinct faults drawn uniformly by one ``rng.sample`` call (none
    when ``count`` is 0) from the level ``scope`` (a view's; default the whole
    graph): its nodes ascending, then each link (u, w), u < w, in row order."""
    view = SurvivingView(g, FaultSet.empty(), scope)
    nodes = view.nodes
    elements = [("node", v) for v in nodes]
    elements += [("edge", (u, w)) for u, row in zip(nodes, view.rows()) for w in row if u < w]
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


def _require_alive(view, *endpoints: int) -> None:
    """Raise PreconditionViolated naming the first endpoint not in ``view``."""
    for v in endpoints:
        if not view.has_node(v):
            raise PreconditionViolated(f"endpoint {v} is not in the surviving view")


def neighbor_condition(view: SurvivingView, s: int, t: int) -> bool:
    """True iff both endpoints keep a surviving neighbor besides each other.

    This is necessary for any path of length two or more between ``s`` and
    ``t`` to exist in the surviving graph.
    """
    if s == t:
        raise PreconditionViolated("endpoints must be distinct")
    _require_alive(view, s, t)
    s_ok = any(w != t for w in view.neighbors(s))
    t_ok = any(w != s for w in view.neighbors(t))
    return s_ok and t_ok


def draw_endpoints(view: SurvivingView, rng: random.Random) -> Optional[tuple[int, int]]:
    """A pair ``rng.sample(view.nodes, 2)``, redrawn until it meets the
    neighbor condition; None after 1000 failed draws, or at once, with no
    draw, on a view of fewer than two nodes (possible out of contract)."""
    for _ in range(1000 if len(view) >= 2 else 0):
        s, t = rng.sample(view.nodes, 2)
        if neighbor_condition(view, s, t):
            return s, t
    return None
