"""Construction, decomposition, and serialization of twisted hypercube-like networks.

A dimension-n network here is an n-regular graph on 2^n nodes built
recursively: two dimension-(n-1) copies joined by a perfect matching of
cross edges, bottoming out at a fixed 3-regular 8-node twisted base graph.
Node identity is an integer index.

The decomposition is not stored; it is read off node ids, which are
positions in 0..2^n-1. The level of dimension d that holds a node is its
aligned block of 2^d ids: half 1 is the lower half of the block, and a
node's cross partner at that level is its one neighbour whose id first
differs from its own in bit d - 1. :func:`make_preset` numbers nodes that
way, and every row is stored in level order (see :class:`ThlnGraph`). A
graph loaded from a file is renumbered to the positions of the file's
decomposition tree, which the loader checks against the edges, and keeps the
file's ids to write back (``file_ids``).
:func:`check_shape` then checks the shape in one pass over the rows, and
over their level columns for symmetry.

Preset generators are provided for the classic twisted families (crossed,
Moebius, locally twisted) plus seeded random matchings, each named by a
:class:`VariantSpec` kind. A preset is written in one pass into one row
table: each 8-node base block, then each level's matching, in the recursive
definition's order (lower sub-level, upper sub-level, then the level), so the
random kind draws its matchings in that order. The three built-in 8-node
bases are judged by :func:`check_shape` once, at import, and every preset
reuses their rows; any other base comes in as a graph file. Every algorithm
in this package works on any graph passing those checks.

Every 8-node block of a graph known to pass the checks has a table of
covering paths: for each ordered pair of its nodes, the first Hamiltonian
path between them in depth-first order over ascending neighbours, or None
when the block has none (a bipartite base, for one). The blocks of one
graph that have the same rows share one table: every block of a random,
crossed or locally-twisted preset shares the default base's, and Moebius
blocks use one of two.
:func:`make_preset` records each block's table as it writes the block, and
a loaded or directly built graph's first surviving view judges it once by
:func:`require_shape`, whose passing :func:`check_shape` records them.
:func:`covering_path` reads them to write down a covering path of any
fault-free level by halves, without search.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import compress
from operator import ne
from typing import Iterable, Optional, Sequence

from .errors import MalformedGraph, PreconditionViolated, UnknownNode

Edge = tuple[int, int]
#: An 8-node block's covering paths in its local ids (id & 7): entry
#: ``a << 3 | b`` is a path from a to b through all 8 nodes, or None.
BlockTable = tuple[Optional[tuple[int, ...]], ...]

#: Default 8-node base: the twisted 3-cube (two 4-cycles under a crossed
#: matching). This is simultaneously the dimension-3 crossed cube and the
#: dimension-3 locally twisted cube. It is 3-regular, simple, connected,
#: and non-bipartite.
DEFAULT_BASE_EDGES: tuple[Edge, ...] = (
    (0, 1), (0, 2), (0, 4), (1, 3), (1, 7), (2, 3),
    (2, 6), (3, 5), (4, 5), (4, 6), (5, 7), (6, 7),
)

#: Dimension-3 0-Moebius cube: 4-cycle halves joined by the identity matching.
MOEBIUS0_BASE_EDGES: tuple[Edge, ...] = (
    (0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3),
    (2, 6), (3, 7), (4, 5), (4, 7), (5, 6), (6, 7),
)

#: Dimension-3 1-Moebius cube: same halves joined by the complement matching.
MOEBIUS1_BASE_EDGES: tuple[Edge, ...] = (
    (0, 1), (0, 2), (0, 7), (1, 3), (1, 6), (2, 3),
    (2, 5), (3, 4), (4, 5), (4, 7), (5, 6), (6, 7),
)

_VARIANT_KINDS = (
    "base3-default",
    "crossed",
    "mobius0",
    "mobius1",
    "locally-twisted",
    "random",
)


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class VariantSpec:
    """Which member of the family to build.

    ``kind`` is one of ``base3-default`` (dimension 3 only), ``crossed``,
    ``mobius0``, ``mobius1``, ``locally-twisted``, ``random``; all but
    ``random(seed)`` are built as ``VariantSpec(kind)``. Any other base
    comes in as a graph file, through the loader and :func:`check_shape`.
    """

    kind: str
    seed: Optional[int] = None

    def __post_init__(self):
        if self.kind not in _VARIANT_KINDS:
            raise ValueError(f"unknown variant kind {self.kind!r}")
        if self.kind == "random" and self.seed is None:
            raise ValueError("random variant requires a seed")

    @classmethod
    def random(cls, seed: int) -> "VariantSpec":
        return cls("random", seed=seed)


@dataclass(frozen=True, eq=False)
class DecompositionNode:
    """One level of the recursive two-half structure, derived from node ids.

    The level of dimension ``dim`` holds the nodes ``base`` to
    ``base + 2**dim - 1`` of ``graph``; half 1 holds the lower half of those
    ids. Everything below is computed on each access: ``half1`` and
    ``half2`` are id ranges, ``matching`` lists the cross edges as
    ``(u1, u2)`` with ``u1`` in half 1, and the children are None exactly
    when the halves are dimension-3 base graphs.
    """

    graph: "ThlnGraph" = field(repr=False)
    dim: int
    base: int = 0

    @property
    def half1(self) -> range:
        return range(self.base, self.base + (1 << (self.dim - 1)))

    @property
    def half2(self) -> range:
        return range(self.base + (1 << (self.dim - 1)), self.base + (1 << self.dim))

    @property
    def half1_set(self) -> frozenset[int]:
        return frozenset(self.half1)

    @property
    def matching(self) -> tuple[Edge, ...]:
        return tuple((u, self.partner(u)) for u in self.half1)

    def _child(self, i: int) -> Optional["DecompositionNode"]:
        if self.dim == 4:
            return None
        return DecompositionNode(self.graph, self.dim - 1, self.base + i * (1 << (self.dim - 1)))

    @property
    def child1(self) -> Optional["DecompositionNode"]:
        return self._child(0)

    @property
    def child2(self) -> Optional["DecompositionNode"]:
        return self._child(1)

    def partner(self, v: int) -> int:
        """The node matched with ``v`` across this level's cut: entry
        ``dim - 1`` of v's row, whose id first differs from v's in that bit."""
        # an id outside the graph, negative ones included, leaves every block
        if v >> self.dim != self.base >> self.dim:
            raise UnknownNode(f"node {v} is not a node of this dimension-{self.dim} level")
        row = self.graph.adjacency[v]
        if len(row) < self.dim or (v ^ row[self.dim - 1]).bit_length() != self.dim:
            raise MalformedGraph(f"node {v} has no cross partner at dimension {self.dim}")
        return row[self.dim - 1]


@dataclass(frozen=True, slots=True)
class ThlnGraph:
    """Immutable network: adjacency indexed by node id, ids being positions.

    The adjacency is the only store of edges, each row in level order (as
    built, loaded by :func:`_level_rows` and checked by ``check_shape``):
    v's 8-node block neighbours ascending, then its cross partner at level
    d at entry d - 1, d = 4..n. Built and loaded rows share one int object
    per id, so a graph holds 2^n ints however many rows name each.
    ``neighbors`` is a row ascending. ``edges`` (every ``(u, v)`` with
    ``u < v``, ascending for rows in level order) is rebuilt from the rows
    on each access; besides tests, only graph file I/O and the benchmark's
    own draws read it. ``decomposition`` derives the top level from the ids
    on each access (None for a dimension-3 base graph). ``file_ids`` is a loaded
    file's own id at each position, or None where ids are the file's; only
    graph file I/O and the command line read it. ``block_tables`` is set once
    the graph is known to pass ``check_shape``: :func:`make_preset` builds it
    so, and ``check_shape`` sets it on a pass, which a graph's first surviving
    view asks for (:func:`require_shape`). Entry i is the covering-path table
    of the 8-node block at ids 8i..8i + 7 (see :func:`covering_path`), one
    reference per block to a table its base shares.
    """

    dimension: int
    adjacency: tuple[tuple[int, ...], ...]
    file_ids: Optional[tuple[int, ...]] = field(default=None, repr=False)
    block_tables: Optional[tuple[BlockTable, ...]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "adjacency", tuple(map(tuple, self.adjacency)))

    @property
    def decomposition(self) -> Optional[DecompositionNode]:
        return DecompositionNode(self, self.dimension) if self.dimension > 3 else None

    @property
    def num_nodes(self) -> int:
        return len(self.adjacency)

    @property
    def nodes(self) -> range:
        return range(len(self.adjacency))

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(sorted(self.adjacency[v]))

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple((u, v) for u, row in enumerate(self.adjacency) for v in row if u < v)

    @property
    def num_edges(self) -> int:
        return sum(map(len, self.adjacency)) // 2


# ----------------------------------------------------------------------
# construction


def _adjacency_from_edges(n_nodes: int, edges: Iterable[Edge]) -> list[set[int]]:
    rows: list[set[int]] = [set() for _ in range(n_nodes)]
    for u, v in edges:
        rows[u].add(v)
        rows[v].add(u)
    return rows


def _level_rows(rows: Iterable[Iterable[int]]) -> list[list[int]]:
    """Each row in level order: by the dimension of the lowest level that
    holds both ends (at least 3), then by id."""
    return [sorted(row, key=lambda w, v=v: (max((v ^ w).bit_length(), 3), w))
            for v, row in enumerate(rows)]


def _checked_base(edges: Iterable[Edge]) -> ThlnGraph:
    """The dimension-3 graph of a built-in 8-node edge list, judged by
    :func:`check_shape`; raises :class:`MalformedGraph` naming the first
    failing root check."""
    g = ThlnGraph(3, _level_rows(_adjacency_from_edges(8, edges)))
    failures = check_shape(g).failures
    if failures:
        raise MalformedGraph(f"base graph fails check {failures[0].name}: {failures[0].detail}")
    return g


def _crossed_matching(m_bits: int) -> list[int]:
    # Pairs of bits from the bottom; within each pair a set low bit flips the
    # high bit. An odd leftover top bit is kept as is.
    out = []
    for u in range(1 << m_bits):
        v = u
        for i in range(m_bits // 2):
            if (u >> (2 * i)) & 1:
                v ^= 1 << (2 * i + 1)
        out.append(v)
    return out


def _locally_twisted_matching(m_bits: int) -> list[int]:
    # Odd nodes flip the top bit of the half-local index.
    return [u ^ ((u & 1) << (m_bits - 1)) for u in range(1 << m_bits)]


def _moebius_matching(m_bits: int, kind: int) -> list[int]:
    # 0-Moebius: the identity; 1-Moebius: the complement.
    full = (1 << m_bits) - 1 if kind else 0
    return [full ^ u for u in range(1 << m_bits)]


def _build_one_pass(n: int, base_at, matching_at) -> ThlnGraph:
    """Write a dimension-n graph into one row table, positions as ids.

    Levels are visited in the recursive definition's order: the lower
    sub-level, the upper sub-level, then the level's own matching (so rows
    come out in level order). Each 8-node block is written from the rows of
    ``base_at(offset)``, a built-in base graph, and takes its table; the
    level of dimension d at ``offset`` is joined by ``matching_at(d,
    offset)``, which maps each half-1 index to a half-2 index. Every entry
    is an element of one ``ids`` list, so the rows hold one int per id."""
    ids = list(range(1 << n))
    rows: list[list[int]] = []
    tables: list[BlockTable] = []
    for off in range(0, 1 << n, 8):
        block = ids[off:off + 8]
        base = base_at(off)
        rows += [[block[w] for w in row] for row in base.adjacency]
        tables += base.block_tables
        d, lo = 3, off
        while d < n and lo & (1 << d):  # an upper half ends here: its parent is whole
            d, lo = d + 1, lo - (1 << d)
            mid = lo + (1 << (d - 1))
            phi = matching_at(d, lo)
            upper = ids[mid:mid + len(phi)]
            for row, w in zip(rows[lo:mid], phi):
                row.append(upper[w])
            for u, w in zip(ids[lo:mid], phi):
                rows[mid + w].append(u)
    g = ThlnGraph(n, rows)
    # level order and symmetry hold by construction
    object.__setattr__(g, "block_tables", tuple(tables))
    return g


def make_preset(spec: VariantSpec, n: int) -> ThlnGraph:
    """Build a dimension-n member of the requested variant family.

    The graph is written in one pass into one row table (positions are ids):
    each 8-node base block, then each level's matching, in the recursive
    definition's order, lower sub-level, upper sub-level, then the level.
    The blocks reuse the rows of the built-in bases, validated once, at
    import. Each matching is a bijection by construction: an involution of
    the half's indices, or the random kind's one ``shuffle`` of them, drawn
    from a single generator seeded with ``spec.seed`` in that order (left
    half first, depth first), so equal seeds give identical graphs.
    """
    if n < 3:
        raise PreconditionViolated(f"dimension must be at least 3, got {n}")
    if spec.kind == "base3-default":
        if n != 3:
            raise PreconditionViolated(f"{spec.kind} is only defined at dimension 3")
        return _DEFAULT_BASE
    if spec.kind in ("mobius0", "mobius1"):
        # a level of dimension d is 1-Moebius when it is its parent's upper
        # half (bit d of its offset is set); the top level's kind is the spec's
        top = int(spec.kind == "mobius1") << n
        bases = [_MOEBIUS0_BASE, _MOEBIUS1_BASE]
        matchings = {(d, kind): _moebius_matching(d - 1, kind)
                     for d in range(4, n + 1) for kind in (0, 1)}
        return _build_one_pass(n, lambda off: bases[(top | off) >> 3 & 1],
                               lambda d, off: matchings[d, (top | off) >> d & 1])
    base = _DEFAULT_BASE
    if spec.kind == "random":
        rng = random.Random(spec.seed)

        def shuffled(d: int, _off: int) -> list[int]:
            perm = list(range(1 << (d - 1)))
            rng.shuffle(perm)
            return perm

        return _build_one_pass(n, lambda _off: base, shuffled)
    matching = {"crossed": _crossed_matching, "locally-twisted": _locally_twisted_matching}[spec.kind]
    matchings = {d: matching(d - 1) for d in range(4, n + 1)}
    return _build_one_pass(n, lambda _off: base, lambda d, _off: matchings[d])


# ----------------------------------------------------------------------
# shape checking


@dataclass(frozen=True)
class ShapeCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ShapeReport:
    checks: tuple[ShapeCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[ShapeCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


def _is_connected(adjacency: Sequence[Sequence[int]], nodes: range) -> bool:
    """Whether ``nodes`` (at least one) induce a connected subgraph."""
    seen = {nodes[0]}
    frontier = [nodes[0]]
    while frontier:
        v = frontier.pop()
        for w in adjacency[v]:
            if w in nodes and w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == len(nodes)


def _first_one_way(rows: Sequence[Sequence[int]], n: int) -> Optional[int]:
    """The first node whose row names an id whose row does not name it back,
    or None. In level order v sits in w's row at entry i for a
    level-(i + 1) partner and among the first three for a block neighbour,
    so those entries are tested first, a level's column at a time, and only
    the rows of the nodes they miss are scanned; when a row has another
    length or an id out of the graph, every row is."""
    size = len(rows)
    suspects = range(size)
    if n >= 3 and size and set(map(len, rows)) == {n}:
        cols = list(zip(*rows))
        if min(map(min, cols)) >= 0 and max(map(max, cols)) < size:
            ids = list(suspects)
            suspects = {v for v, (a, b, c) in enumerate(zip(*cols[:3]))
                        if v not in rows[a][:3] or v not in rows[b][:3] or v not in rows[c][:3]}
            for col in cols[3:]:
                back = list(map(col.__getitem__, col))
                if back != ids:
                    suspects.update(compress(ids, map(ne, back, ids)))
    row_of = dict(enumerate(rows))  # an entry that is no node names no row
    return min((v for v in suspects if not all(v in row_of.get(w, ()) for w in rows[v])),
               default=None)


def check_shape(g: ThlnGraph) -> ShapeReport:
    """Check the graph's shape over its rows: 2^n rows of n entries, each
    entry a node whose row names the row's node back, each row in level order
    (three other nodes of its 8-node block ascending, then at entry i a node
    first differing from it in bit i) and each 8-node block connected. By
    induction every level of dimension d is then d-regular and connected, its
    halves joined by a perfect matching (the loader checks a file's own). A
    failing check of the rows names the first node it fails at, in a loaded
    graph's file ids. Never raises; failures are carried in the report, and
    a graph that passes is given its block tables."""
    n, rows = g.dimension, g.adjacency
    size = len(rows)
    n_nodes = 1 << n if n >= 0 else 0  # a negative dimension fails node-count
    first: dict[str, int] = {}  # check name -> the first node it fails at
    for v, row in enumerate(rows):
        if len(row) != n:
            first.setdefault("regularity", v)
        elif not (n >= 3 and row[0] < row[1] < row[2] and v not in row[:3]
                  and row[0] >> 3 == row[2] >> 3 == v >> 3
                  and all((v ^ w).bit_length() == d for d, w in enumerate(row[3:], 4))):
            first.setdefault("level-order", v)
        if not v & 7 and not _is_connected(rows, range(v, min(v + 8, size))):
            first.setdefault("blocks-connected", v)
    one_way = _first_one_way(rows, n)
    if one_way is not None:
        first["symmetry"] = one_way

    def at_node(name: str, rule: str) -> ShapeCheck:
        v = first.get(name)
        return ShapeCheck(f"root: {name}", v is None, rule if v is None else
                          f"{rule}; first fails at node {(g.file_ids or range(size))[v]}")

    degrees = sum(map(len, rows))
    report = ShapeReport((
        ShapeCheck("root: node-count", n >= 0 and size == n_nodes,
                   f"expected {n_nodes}, got {size}"),
        at_node("regularity", f"every node needs degree {n}"),
        ShapeCheck("root: edge-count", degrees == n * n_nodes,
                   f"expected {n * n_nodes // 2} edges, got {degrees // 2}"),
        at_node("symmetry", "every entry is a node whose row names it back"),
        at_node("level-order", "every row lists its 8-node block, then a partner per level"),
        at_node("blocks-connected", "every 8-node block is connected"),
    ))
    if report.ok:
        # each row's block neighbours in local ids, 24 to a block
        local = [w & 7 for row in rows for w in row[:3]]
        memo: dict[tuple[int, ...], BlockTable] = {}
        object.__setattr__(g, "block_tables", tuple(_block_table(tuple(local[i:i + 24]), memo)
                                                    for i in range(0, len(local), 24)))
    return report


def require_shape(g: ThlnGraph) -> None:
    """Judge a graph without block tables by :func:`check_shape` (a pass
    records them) and raise :class:`MalformedGraph` naming its first failing
    check; a graph with tables has passed, and costs one attribute test."""
    if g.block_tables is None:
        failures = check_shape(g).failures
        if failures:
            bad = failures[0]
            detail = f" ({bad.detail})" if bad.detail else ""
            raise MalformedGraph(f"graph fails shape check {bad.name}{detail}")


def _block_table(key: tuple[int, ...], memo: dict[tuple[int, ...], BlockTable]) -> BlockTable:
    """The table of an 8-node block whose nodes' block neighbours, in local
    ids, are ``key``'s entries three at a time; ``memo`` holds the tables
    made so far, by key, for blocks to share."""
    table = memo.get(key)
    if table is None:
        nbrs = [key[i:i + 3] for i in range(0, 24, 3)]
        paths: list[Optional[tuple[int, ...]]] = [None] * 64

        def walk(path: list[int], seen: int) -> None:
            v = path[-1]
            if len(path) == 8:
                i = path[0] << 3 | v
                if paths[i] is None:
                    paths[i] = tuple(path)
                return
            for w in nbrs[v]:
                if not seen >> w & 1:
                    path.append(w)
                    walk(path, seen | 1 << w)
                    path.pop()

        for a in range(8):
            walk([a], 1 << a)
        table = memo[key] = tuple(paths)
    return table


def covering_path(g: ThlnGraph, lo: int, d: int, s: int, t: int) -> Optional[tuple[int, ...]]:
    """A path from s to t through every node of the level of dimension d at
    ``lo`` (distinct nodes of it), over the graph's edges, written by halves
    from the block tables, which the graph's first surviving view recorded;
    None when a block's table has no path for a pair asked of it. No fault
    is read: the caller holds a fault-free level.

    - d = 3: the block's table entry.
    - s and t in different halves: P(s -> u) in s's half, then P(partner(u)
      -> t), u the lowest node of s's half other than s whose partner is not
      t.
    - s and t in one half: P(s -> t) in it, with its first edge (s, b)
      detoured through the other half as s, P(partner(s) -> partner(b)), b.

    Each level costs O(2^d) list work, about d * 2^d in all."""
    tables, rows = g.block_tables, g.adjacency

    def cover(lo: int, d: int, s: int, t: int) -> Optional[list[int]]:
        if d == 3:
            local = tables[lo >> 3][(s & 7) << 3 | t & 7]
            return None if local is None else [lo | x for x in local]
        half = 1 << (d - 1)
        mine, other = (lo, lo + half) if s < lo + half else (lo + half, lo)
        if t >> (d - 1) != s >> (d - 1):
            u = mine
            while u == s or rows[u][d - 1] == t:
                u += 1
            head = cover(mine, d - 1, s, u)
            tail = None if head is None else cover(other, d - 1, rows[u][d - 1], t)
            return None if tail is None else head + tail
        inner = cover(mine, d - 1, s, t)
        if inner is None:
            return None
        detour = cover(other, d - 1, rows[s][d - 1], rows[inner[1]][d - 1])
        return None if detour is None else [s, *detour, *inner[1:]]

    path = cover(lo, d, s, t)
    return None if path is None else tuple(path)


#: The built-in bases, each judged by :func:`check_shape` once, here, at
#: import; :func:`make_preset` reuses them.
_DEFAULT_BASE, _MOEBIUS0_BASE, _MOEBIUS1_BASE = map(
    _checked_base, (DEFAULT_BASE_EDGES, MOEBIUS0_BASE_EDGES, MOEBIUS1_BASE_EDGES))


# ----------------------------------------------------------------------
# serialization


def _file_edges(g: ThlnGraph) -> Sequence[Edge]:
    """``g.edges`` in the file's ids, as ``(u, v)`` with ``u < v``, ascending."""
    ids = g.file_ids
    return sorted(g.edges if ids is None else (_norm_edge(ids[u], ids[v]) for u, v in g.edges))


def _decomposition_to_obj(node: Optional[DecompositionNode], ids: Sequence[int]):
    if node is None:
        return None
    matching = sorted([ids[u], ids[w]] for u, w in node.matching)  # half1's ids ascending
    return {
        "half1": [u for u, _ in matching],
        "matching": matching,
        "children": [_decomposition_to_obj(c, ids) for c in (node.child1, node.child2) if c],
    }


def graph_to_json_obj(g: ThlnGraph) -> dict:
    return {
        "dimension": g.dimension,
        "edges": [list(e) for e in _file_edges(g)],
        "decomposition": _decomposition_to_obj(g.decomposition, g.file_ids or g.nodes),
    }


def graph_to_json(g: ThlnGraph) -> str:
    """Canonical JSON, in the file's ids for a loaded graph: edges as sorted
    ``[u, v]`` pairs with ``u < v``, and each level's ``half1`` ascending."""
    return json.dumps(graph_to_json_obj(g), indent=2, sort_keys=True) + "\n"


def _json_int(x, what: str) -> int:
    """A JSON integer; strings, floats and booleans are rejected, not coerced."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise MalformedGraph(f"{what} must be an integer, got {x!r}")
    return x


def _json_fields(obj, what: str, *keys: str) -> list:
    if not isinstance(obj, dict) or not all(k in obj for k in keys):
        raise MalformedGraph(f"bad {what}: needs {', '.join(map(repr, keys))}")
    return [obj[k] for k in keys]


def _json_ints(xs, what: str) -> list[int]:
    if not isinstance(xs, list):
        raise MalformedGraph(f"{what} must be a list, got {xs!r}")
    return [_json_int(x, what) for x in xs]


def _json_pairs(xs, what: str) -> list[Edge]:
    if not isinstance(xs, list) or not all(isinstance(e, list) and len(e) == 2 for e in xs):
        raise MalformedGraph(f"{what} must be a list of integer pairs")
    return [(_json_int(u, what), _json_int(v, what)) for u, v in xs]


def _read_level(obj, nodes: set[int], dim: int, name: str,
                adjacency: Sequence[set[int]], order: list[int]) -> None:
    """Append one level's nodes to ``order`` in position order, checking the
    file's decomposition of it against the edges (``adjacency``, in the
    file's ids). The leaves keep their ids ascending."""
    if dim == 3:
        if obj is not None:
            raise MalformedGraph("a dimension-3 level has no decomposition")
        order.extend(sorted(nodes))
        return
    if obj is None:
        raise MalformedGraph(f"decomposition missing at dimension {dim}")
    half1, matching = _json_fields(obj, "decomposition object", "half1", "matching")
    half1 = _json_ints(half1, "half1")
    matching = _json_pairs(matching, "matching")
    children = obj.get("children") or [None, None]
    if not isinstance(children, list) or len(children) != 2:
        raise MalformedGraph("children must be absent or a pair")
    h1 = set(half1)
    if not h1 <= nodes:
        raise MalformedGraph("half1 contains foreign nodes")
    h2 = nodes - h1
    size = 1 << (dim - 1)
    firsts, seconds = {u for u, _ in matching}, {v for _, v in matching}
    # once the matching is a bijection of the halves, each of its ids has a row
    bijection = firsts <= h1 and seconds <= h2 and len(firsts) == len(seconds) == size
    for check, passed, detail in (
        ("halves-partition", len(half1) == len(h1) == len(h2) == size,
         f"each half needs {size} distinct nodes"),
        ("matching-size", len(matching) == size, f"expected {size}, got {len(matching)}"),
        ("matching-bijection", bijection, ""),
        ("matching-edges-present", bijection and all(v in adjacency[u] for u, v in matching), ""),
    ):
        if not passed:
            detail = f" ({detail})" if detail else ""
            raise MalformedGraph(f"decomposition fails check {name}: {check}{detail}")
    _read_level(children[0], h1, dim - 1, f"{name}.1", adjacency, order)
    _read_level(children[1], h2, dim - 1, f"{name}.2", adjacency, order)


def graph_from_json_obj(obj: dict) -> ThlnGraph:
    """Raises MalformedGraph unless ids and the dimension are JSON integers
    (no string, float or boolean is coerced), no edge is listed twice (in
    either order), the graph is well formed and
    its decomposition tree agrees with its edges. Nodes are renumbered to the
    positions that tree gives, keeping the file's ids as ``file_ids``."""
    dim, raw_edges = _json_fields(obj, "graph object", "dimension", "edges")
    dim = _json_int(dim, "dimension")
    raw_edges = _json_pairs(raw_edges, "edges")
    if dim < 3:
        raise MalformedGraph(f"dimension must be at least 3, got {dim}")
    # checked before 2^dim rows exist: fewer edges than half the nodes leave
    # a node with no edge
    if (2 * len(raw_edges)) >> dim == 0:
        raise MalformedGraph(
            f"{len(raw_edges)} edges cannot make a regular graph on 2^{dim} nodes"
        )
    n = 1 << dim
    for u, v in raw_edges:  # before any id indexes a row, as -1 would wrap
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise MalformedGraph(f"edge ({u},{v}) out of range for dimension {dim}")
    adjacency = _adjacency_from_edges(n, raw_edges)
    if sum(map(len, adjacency)) != 2 * len(raw_edges):  # the rows' sets folded a repeat
        seen: set[Edge] = set()
        for u, v in raw_edges:
            e = _norm_edge(u, v)
            if e in seen:
                raise MalformedGraph(f"edge ({e[0]},{e[1]}) is listed twice")
            seen.add(e)
    ids = list(range(n))  # one int per id
    order: list[int] = []
    _read_level(obj.get("decomposition"), set(ids), dim, "root", adjacency, order)
    position = [0] * n  # of each file id, sharing the ids' int objects
    for p, v in enumerate(order):
        position[v] = ids[p]
    rows = _level_rows([position[w] for w in adjacency[v]] for v in order)
    return ThlnGraph(dim, rows, None if order == ids else tuple(ids[v] for v in order))


def graph_from_json(text: str) -> ThlnGraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedGraph(f"invalid JSON: {exc}") from exc
    return graph_from_json_obj(obj)


def graph_to_dot(g: ThlnGraph) -> str:
    """Graphviz export in the file's ids; nodes labeled with their id in binary."""
    width = g.dimension
    lines = ["graph thln {"]
    for v in g.nodes:  # a file's ids are a permutation of the positions
        lines.append(f'  n{v} [label="{v:0{width}b}"];')
    for u, v in _file_edges(g):
        lines.append(f"  n{u} -- n{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
