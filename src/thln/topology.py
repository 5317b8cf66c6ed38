"""Construction, decomposition, and serialization of twisted hypercube-like networks.

A dimension-n network here is an n-regular graph on 2^n nodes built
recursively: two dimension-(n-1) copies joined by a perfect matching of
cross edges, bottoming out at a fixed 3-regular 8-node twisted base graph.
Node identity is an integer index. Graphs built by :func:`join` have halves
that are contiguous aligned ranges; a loaded graph need only pass
:func:`check_shape`, which does not check alignment. :func:`cross_partner`
builds the whole 2^n-entry partner map on every call.

Preset generators are provided for the classic twisted families (crossed,
Moebius, locally twisted) plus seeded random matchings. Presets are
convenience constructors validated structurally by :func:`check_shape`;
every algorithm in this package works on any graph passing those checks.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import (
    DimensionMismatch,
    MalformedBase,
    MalformedGraph,
    NoDecomposition,
    NotABijection,
    UnsupportedDimension,
)

Edge = tuple[int, int]

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
    "base3-custom",
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

    ``kind`` is one of ``base3-default``, ``base3-custom``, ``crossed``,
    ``mobius0``, ``mobius1``, ``locally-twisted``, ``random``. Custom base
    kinds carry an explicit 8-node edge list; the random kind carries a seed.
    """

    kind: str
    edges: Optional[tuple[Edge, ...]] = None
    seed: Optional[int] = None

    def __post_init__(self):
        if self.kind not in _VARIANT_KINDS:
            raise ValueError(f"unknown variant kind {self.kind!r}")
        if self.kind == "base3-custom" and self.edges is None:
            raise ValueError("base3-custom requires an edge list")
        if self.kind == "random" and self.seed is None:
            raise ValueError("random variant requires a seed")

    @classmethod
    def base3_default(cls) -> "VariantSpec":
        return cls("base3-default")

    @classmethod
    def base3_custom(cls, edges: Iterable[Edge]) -> "VariantSpec":
        return cls("base3-custom", edges=tuple(_norm_edge(u, v) for u, v in edges))

    @classmethod
    def crossed(cls) -> "VariantSpec":
        return cls("crossed")

    @classmethod
    def mobius0(cls) -> "VariantSpec":
        return cls("mobius0")

    @classmethod
    def mobius1(cls) -> "VariantSpec":
        return cls("mobius1")

    @classmethod
    def locally_twisted(cls) -> "VariantSpec":
        return cls("locally-twisted")

    @classmethod
    def random(cls, seed: int) -> "VariantSpec":
        return cls("random", seed=seed)


@dataclass(frozen=True)
class DecompositionNode:
    """One level of the recursive two-half structure.

    ``matching`` lists the cross edges as ``(u1, u2)`` with ``u1`` in the
    first half. Children describe the halves' own decompositions and are
    absent exactly when the halves are dimension-3 base graphs.
    """

    half1: tuple[int, ...]
    half2: tuple[int, ...]
    matching: tuple[Edge, ...]
    child1: Optional["DecompositionNode"] = None
    child2: Optional["DecompositionNode"] = None

    # Built on every access and not cached: a graph keeps its decomposition
    # for its lifetime, so callers hold these for as long as they need them.

    @property
    def partner_map(self) -> dict[int, int]:
        """Cross partner lookup covering both halves (an involution)."""
        m: dict[int, int] = {}
        for u, v in self.matching:
            m[u] = v
            m[v] = u
        return m

    @property
    def half1_set(self) -> frozenset[int]:
        return frozenset(self.half1)

    @property
    def half2_set(self) -> frozenset[int]:
        return frozenset(self.half2)


@dataclass(frozen=True)
class ThlnGraph:
    """Immutable network: adjacency indexed by node plus the decomposition tree.

    The adjacency is the only store of edges: ``edges`` (every ``(u, v)`` with
    ``u < v``, ascending) is rebuilt from its rows on each access.
    """

    dimension: int
    adjacency: tuple[tuple[int, ...], ...]
    decomposition: Optional[DecompositionNode]

    @property
    def num_nodes(self) -> int:
        return len(self.adjacency)

    @property
    def nodes(self) -> range:
        return range(len(self.adjacency))

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(sorted((u, v) for u, row in enumerate(self.adjacency) for v in row if u < v))

    @property
    def num_edges(self) -> int:
        return sum(map(len, self.adjacency)) // 2


# ----------------------------------------------------------------------
# construction


def _adjacency_from_edges(n_nodes: int, edges: Iterable[Edge]) -> tuple[tuple[int, ...], ...]:
    rows: list[set[int]] = [set() for _ in range(n_nodes)]
    for u, v in edges:
        rows[u].add(v)
        rows[v].add(u)
    return tuple(tuple(sorted(r)) for r in rows)


def _is_connected(adjacency: Sequence[Sequence[int]]) -> bool:
    n = len(adjacency)
    if n == 0:
        return False
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for w in adjacency[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == n


def make_base(spec: VariantSpec) -> ThlnGraph:
    """Build a dimension-3 base graph from a base3 variant spec.

    Raises :class:`MalformedBase` if a custom edge list is not a simple,
    connected, 3-regular graph on nodes 0..7.
    """
    if spec.kind == "base3-default":
        edges = DEFAULT_BASE_EDGES
    elif spec.kind == "base3-custom":
        edges = spec.edges or ()
    else:
        raise ValueError(f"make_base requires a base3 kind, got {spec.kind!r}")

    norm = [_norm_edge(u, v) for u, v in edges]
    for u, v in norm:
        if u == v:
            raise MalformedBase(f"self-loop at node {u}")
        if not (0 <= u < 8 and 0 <= v < 8):
            raise MalformedBase(f"edge ({u},{v}) outside nodes 0..7")
    if len(set(norm)) != len(norm):
        raise MalformedBase("duplicate edge in base list")
    if len(norm) != 12:
        raise MalformedBase(f"expected 12 edges, got {len(norm)}")
    adjacency = _adjacency_from_edges(8, norm)
    bad = [v for v in range(8) if len(adjacency[v]) != 3]
    if bad:
        raise MalformedBase(f"nodes {bad} do not have degree 3")
    if not _is_connected(adjacency):
        raise MalformedBase("base graph is not connected")
    return ThlnGraph(dimension=3, adjacency=adjacency, decomposition=None)


def _offset_decomposition(node: Optional[DecompositionNode], off: int) -> Optional[DecompositionNode]:
    if node is None:
        return None
    return DecompositionNode(
        half1=tuple(v + off for v in node.half1),
        half2=tuple(v + off for v in node.half2),
        matching=tuple((u + off, v + off) for u, v in node.matching),
        child1=_offset_decomposition(node.child1, off),
        child2=_offset_decomposition(node.child2, off),
    )


def join(
    g1: ThlnGraph,
    g2: ThlnGraph,
    matching: Union[Mapping[int, int], Iterable[Edge]],
) -> ThlnGraph:
    """Join two equal-dimension graphs with a perfect matching into one level up.

    ``matching`` maps each node of ``g1`` to a node of ``g2`` in the halves'
    own 0-based coordinates; the second half's identifiers are offset by
    ``2**g1.dimension`` in the result.
    """
    if g1.dimension != g2.dimension:
        raise DimensionMismatch(
            f"cannot join dimensions {g1.dimension} and {g2.dimension}"
        )
    n = g1.num_nodes
    phi = dict(matching.items()) if isinstance(matching, Mapping) else dict(matching)
    if sorted(phi.keys()) != list(range(n)) or sorted(phi.values()) != list(range(n)):
        raise NotABijection(
            "matching must map the first half's nodes onto the second half's nodes"
        )

    rows: list[list[int]] = [list(g1.adjacency[v]) for v in range(n)]
    rows += [[w + n for w in g2.adjacency[v]] for v in range(n)]
    for u, w in phi.items():
        rows[u].append(w + n)
        rows[w + n].append(u)
    adjacency = tuple(tuple(sorted(r)) for r in rows)

    decomposition = DecompositionNode(
        half1=tuple(range(n)),
        half2=tuple(range(n, 2 * n)),
        matching=tuple(sorted((u, phi[u] + n) for u in range(n))),
        child1=g1.decomposition,
        child2=_offset_decomposition(g2.decomposition, n),
    )
    return ThlnGraph(
        dimension=g1.dimension + 1, adjacency=adjacency, decomposition=decomposition
    )


def _crossed_matching(m_bits: int) -> dict[int, int]:
    # Pairs of bits from the bottom; within each pair a set low bit flips the
    # high bit. An odd leftover top bit is kept as is.
    out = {}
    for u in range(1 << m_bits):
        v = u
        for i in range(m_bits // 2):
            if (u >> (2 * i)) & 1:
                v ^= 1 << (2 * i + 1)
        out[u] = v
    return out


def _locally_twisted_matching(m_bits: int) -> dict[int, int]:
    # Odd nodes flip the top bit of the half-local index.
    return {u: u ^ ((u & 1) << (m_bits - 1)) for u in range(1 << m_bits)}


def _identity_matching(m_bits: int) -> dict[int, int]:
    return {u: u for u in range(1 << m_bits)}


def _complement_matching(m_bits: int) -> dict[int, int]:
    full = (1 << m_bits) - 1
    return {u: full - u for u in range(1 << m_bits)}


def _build_crossed(n: int) -> ThlnGraph:
    if n == 3:
        return make_base(VariantSpec.base3_default())
    g = _build_crossed(n - 1)
    return join(g, g, _crossed_matching(n - 1))


def _build_locally_twisted(n: int) -> ThlnGraph:
    if n == 3:
        return make_base(VariantSpec.base3_default())
    g = _build_locally_twisted(n - 1)
    return join(g, g, _locally_twisted_matching(n - 1))


def _build_moebius(n: int, kind: int) -> ThlnGraph:
    if n == 3:
        edges = MOEBIUS0_BASE_EDGES if kind == 0 else MOEBIUS1_BASE_EDGES
        return make_base(VariantSpec.base3_custom(edges))
    g1 = _build_moebius(n - 1, 0)
    g2 = _build_moebius(n - 1, 1)
    matching = _identity_matching(n - 1) if kind == 0 else _complement_matching(n - 1)
    return join(g1, g2, matching)


def _build_random(n: int, rng: random.Random) -> ThlnGraph:
    if n == 3:
        return make_base(VariantSpec.base3_default())
    g1 = _build_random(n - 1, rng)
    g2 = _build_random(n - 1, rng)
    perm = list(range(1 << (n - 1)))
    rng.shuffle(perm)
    return join(g1, g2, {u: perm[u] for u in range(len(perm))})


def make_preset(spec: VariantSpec, n: int) -> ThlnGraph:
    """Build a dimension-n member of the requested variant family.

    The random kind draws one matching per decomposition level from a single
    generator seeded with ``spec.seed`` (left half first, depth first), so
    equal seeds give identical graphs.
    """
    if n < 3:
        raise UnsupportedDimension(f"dimension must be at least 3, got {n}")
    if spec.kind in ("base3-default", "base3-custom"):
        if n != 3:
            raise UnsupportedDimension(f"{spec.kind} is only defined at dimension 3")
        return make_base(spec)
    if spec.kind == "crossed":
        return _build_crossed(n)
    if spec.kind == "locally-twisted":
        return _build_locally_twisted(n)
    if spec.kind == "mobius0":
        return _build_moebius(n, 0)
    if spec.kind == "mobius1":
        return _build_moebius(n, 1)
    if spec.kind == "random":
        return _build_random(n, random.Random(spec.seed))
    raise UnsupportedDimension(f"no preset for kind {spec.kind!r}")


def cross_partner(g: ThlnGraph, v: int) -> int:
    """The unique node matched with ``v`` across the top-level cut."""
    if g.decomposition is None:
        raise NoDecomposition("dimension-3 base graphs have no cross matching")
    return g.decomposition.partner_map[v]


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

    def summary(self) -> str:
        lines = [f"{'ok ' if c.passed else 'FAIL'} {c.name}"
                 + (f"  ({c.detail})" if c.detail and not c.passed else "")
                 for c in self.checks]
        return "\n".join(lines)


def check_shape(g: ThlnGraph) -> ShapeReport:
    """Verify every structural invariant, recursively, and report each check.

    Never raises; failures are carried in the report.
    """
    checks: list[ShapeCheck] = []

    def add(name, passed, detail=""):
        checks.append(ShapeCheck(name, bool(passed), detail))

    def level(label: str, dim: int, nodes: tuple[int, ...], decomp):
        node_set = set(nodes)
        add(f"{label}: node-count", len(nodes) == 1 << dim,
            f"expected {1 << dim}, got {len(nodes)}")
        deg_ok = True
        edge_count = 0
        for v in nodes:
            within = [w for w in g.adjacency[v] if w in node_set]
            edge_count += len(within)
            if len(within) != dim:
                deg_ok = False
        add(f"{label}: regularity", deg_ok, f"every node needs degree {dim} within the level")
        add(f"{label}: edge-count", edge_count == dim * (1 << dim),
            f"expected {dim * (1 << (dim - 1))} edges, got {edge_count // 2}")
        # connectivity within the level
        if nodes:
            seen = {nodes[0]}
            frontier = [nodes[0]]
            while frontier:
                v = frontier.pop()
                for w in g.adjacency[v]:
                    if w in node_set and w not in seen:
                        seen.add(w)
                        frontier.append(w)
            add(f"{label}: connected", len(seen) == len(nodes))

        if dim == 3:
            add(f"{label}: leaf-has-no-decomposition", decomp is None)
            return
        if decomp is None:
            add(f"{label}: decomposition-present", False, "missing above dimension 3")
            return
        h1, h2 = set(decomp.half1), set(decomp.half2)
        add(f"{label}: halves-partition",
            h1.isdisjoint(h2) and (h1 | h2) == node_set
            and len(h1) == len(h2) == 1 << (dim - 1))
        firsts = [u for u, _ in decomp.matching]
        seconds = [v for _, v in decomp.matching]
        add(f"{label}: matching-size", len(decomp.matching) == 1 << (dim - 1),
            f"expected {1 << (dim - 1)}, got {len(decomp.matching)}")
        add(f"{label}: matching-bijection",
            set(firsts) <= h1 and set(seconds) <= h2
            and len(set(firsts)) == len(firsts) and len(set(seconds)) == len(seconds))
        add(f"{label}: matching-edges-present",
            all(v in g.adjacency[u] for u, v in decomp.matching))
        cross = {(min(u, v), max(u, v))
                 for u in decomp.half1 for v in g.adjacency[u] if v in h2}
        add(f"{label}: cross-edges-equal-matching",
            cross == {(min(u, v), max(u, v)) for u, v in decomp.matching},
            "edges between the halves must be exactly the matching")
        level(f"{label}.1", dim - 1, decomp.half1, decomp.child1)
        level(f"{label}.2", dim - 1, decomp.half2, decomp.child2)

    level("root", g.dimension, tuple(g.nodes), g.decomposition)
    return ShapeReport(tuple(checks))


# ----------------------------------------------------------------------
# serialization


def _decomposition_to_obj(node: Optional[DecompositionNode]):
    if node is None:
        return None
    children = []
    if node.child1 is not None or node.child2 is not None:
        children = [
            _decomposition_to_obj(node.child1),
            _decomposition_to_obj(node.child2),
        ]
    return {
        "half1": sorted(node.half1),
        "matching": sorted([list(p) for p in node.matching]),
        "children": children,
    }


def graph_to_json_obj(g: ThlnGraph) -> dict:
    return {
        "dimension": g.dimension,
        "edges": [list(e) for e in g.edges],
        "decomposition": _decomposition_to_obj(g.decomposition),
    }


def graph_to_json(g: ThlnGraph) -> str:
    """Canonical JSON: edges as sorted ``[u, v]`` pairs with ``u < v``."""
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


def _decomposition_from_obj(obj, nodes: tuple[int, ...], dim: int) -> Optional[DecompositionNode]:
    if obj is None:
        if dim == 3:
            return None
        raise MalformedGraph(f"decomposition missing at dimension {dim}")
    half1, matching = _json_fields(obj, "decomposition object", "half1", "matching")
    half1 = tuple(sorted(_json_ints(half1, "half1")))
    matching = tuple(sorted(_json_pairs(matching, "matching")))
    children = obj.get("children") or []
    if not isinstance(children, list):
        raise MalformedGraph("children must be absent or a pair")
    node_set = set(nodes)
    if not set(half1) <= node_set:
        raise MalformedGraph("half1 contains foreign nodes")
    half2 = tuple(sorted(node_set - set(half1)))
    if children:
        if len(children) != 2:
            raise MalformedGraph("children must be absent or a pair")
        child1 = _decomposition_from_obj(children[0], half1, dim - 1)
        child2 = _decomposition_from_obj(children[1], half2, dim - 1)
    else:
        if dim - 1 != 3:
            raise MalformedGraph(f"children missing for dimension-{dim - 1} halves")
        child1 = child2 = None
    return DecompositionNode(half1, half2, matching, child1, child2)


def graph_from_json_obj(obj: dict) -> ThlnGraph:
    """Raises MalformedGraph unless ids and the dimension are JSON integers
    (no string, float or boolean is coerced) and the graph is well formed."""
    dim, raw_edges = _json_fields(obj, "graph object", "dimension", "edges")
    dim = _json_int(dim, "dimension")
    raw_edges = _json_pairs(raw_edges, "edges")
    if dim < 3:
        raise MalformedGraph(f"dimension must be at least 3, got {dim}")
    n = 1 << dim
    edges = set()
    for u, v in raw_edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise MalformedGraph(f"edge ({u},{v}) out of range for dimension {dim}")
        edges.add(_norm_edge(u, v))
    adjacency = _adjacency_from_edges(n, edges)
    decomposition = _decomposition_from_obj(obj.get("decomposition"), tuple(range(n)), dim)
    return ThlnGraph(dimension=dim, adjacency=adjacency, decomposition=decomposition)


def graph_from_json(text: str) -> ThlnGraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedGraph(f"invalid JSON: {exc}") from exc
    return graph_from_json_obj(obj)


def graph_to_dot(g: ThlnGraph) -> str:
    """Graphviz export; nodes labeled with the binary form of their index."""
    width = g.dimension
    lines = ["graph thln {"]
    for v in g.nodes:
        lines.append(f'  n{v} [label="{v:0{width}b}"];')
    for u, v in g.edges:
        lines.append(f"  n{u} -- n{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
