import dataclasses
import gc
import hashlib
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thln import (
    DEFAULT_BASE_EDGES,
    FaultSet,
    MalformedGraph,
    PreconditionViolated,
    SurvivingView,
    UnknownNode,
    VariantSpec,
    check_shape,
    embed,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    make_preset,
    validate_path,
)
from thln.faults import sample_faults
from thln.topology import (
    ThlnGraph,
    _checked_base,
    _level_rows,
    covering_path,
    graph_to_json_obj,
)

from conftest import base_graph, cross_partner

Q3_EDGES = [(u, u ^ (1 << b)) for u in range(8) for b in range(3) if u < u ^ (1 << b)]


def test_default_base_counts():
    g = make_preset(VariantSpec("base3-default"), 3)
    assert g.num_nodes == 8
    assert g.num_edges == 12
    assert all(g.degree(v) == 3 for v in g.nodes)
    assert g.decomposition is None


def test_default_base_is_not_bipartite():
    # the default base is genuinely twisted: it contains an odd cycle
    g = make_preset(VariantSpec("base3-default"), 3)
    color = {0: 0}
    stack = [0]
    odd_cycle = False
    while stack:
        v = stack.pop()
        for w in g.neighbors(v):
            if w not in color:
                color[w] = color[v] ^ 1
                stack.append(w)
            elif color[w] == color[v]:
                odd_cycle = True
    assert odd_cycle


def test_custom_base_degree_violation():
    bad = list(DEFAULT_BASE_EDGES[:11]) + [(0, 3)]  # node 7 drops to degree 2
    assert check_shape(base_graph(bad)).failures[0].name == "root: regularity"


def test_custom_base_accepts_binary_cube():
    g = base_graph(Q3_EDGES)
    assert check_shape(g).ok
    assert g.num_nodes == 8
    assert all(g.degree(v) == 3 for v in g.nodes)


#: two 4-cliques: 3-regular with 12 edges, but not connected
TWO_K4 = [(u, v) for block in (0, 4) for u in range(block, block + 4)
          for v in range(u + 1, block + 4)]


# the ids keep the names these cases had before MalformedBase was folded
# into MalformedGraph
@pytest.mark.parametrize("bad,loader_error,failing_check", [
    pytest.param([(0, 0)] + Q3_EDGES[:11], r"edge \(0,0\) out of range", None,
                 id="bad0-MalformedBase"),
    pytest.param(Q3_EDGES[:11] + [(0, 9)], r"edge \(0,9\) out of range", None,
                 id="bad1-MalformedBase"),
    pytest.param(Q3_EDGES[:11], None, "root: regularity", id="bad2-MalformedBase"),
    pytest.param(TWO_K4, None, "root: blocks-connected", id="two-k4"),
])
def test_custom_base_rejections(bad, loader_error, failing_check):
    # a list that is no base is turned away on the graph-file route: the
    # loader rejects what it cannot read before any row is built, and
    # check_shape names the first root check that a list it reads fails
    if loader_error is not None:
        with pytest.raises(MalformedGraph, match=loader_error):
            base_graph(bad)
    else:
        assert check_shape(base_graph(bad)).failures[0].name == failing_check


@pytest.mark.parametrize("bad,message", [
    pytest.param(TWO_K4, "base graph fails check root: blocks-connected",
                 id="bad1-base graph fails check root: blocks-connected"),
    pytest.param([(0, 0)] + Q3_EDGES[:11], "base graph fails check root: regularity",
                 id="bad2-base graph fails check root: regularity"),
    pytest.param(Q3_EDGES[:11], "base graph fails check root: regularity",
                 id="bad3-base graph fails check root: regularity"),
])
def test_custom_base_rejection_names_the_failing_check(bad, message):
    # the guard on the built-in lists names the first failing root check of
    # check_shape
    with pytest.raises(MalformedGraph, match=message):
        _checked_base(bad)


@pytest.mark.parametrize("kind,message", [
    ("no-such-kind", "unknown variant kind"),
    ("random", "requires a seed"),
])
def test_variant_spec_rejections(kind, message):
    with pytest.raises(ValueError, match=message):
        VariantSpec(kind)


def test_mobius0_joins_its_top_level_by_the_identity():
    g = make_preset(VariantSpec("mobius0"), 4)
    assert g.num_nodes == 16
    assert all(g.degree(v) == 4 for v in g.nodes)
    assert len(g.decomposition.matching) == 8
    assert cross_partner(g, 3) == 3 + 8


#: variant -> sha256 prefixes of ``graph_to_json`` at n = 3..10.
_PRESET_DIGESTS = {
    "crossed": (
        "23a7d25636dbc77e", "a8d0033aefd3f2ca", "7aaa9a602717b7d0", "c8903d07be688914",
        "e7436ee963b25784", "d60363fd3b343b58", "16619dd7be7330a2", "0fb5d429a4f0f8b8",
    ),
    "locally-twisted": (
        "23a7d25636dbc77e", "2092e638def26fb8", "3f2226cd5029f563", "7e825ff9657aa616",
        "88cee855dd5bdf60", "c69ebb2905e6dc9f", "52082dcedce81156", "e6dac3d19582c303",
    ),
    "mobius0": (
        "06ead98a843c6df8", "bee957cb8da09d53", "6d3a66d1bc5a068f", "de45e5f10725cc3a",
        "fb0d6ed89d4e7079", "a9a476f2dc7371b0", "ef34c30cb9cad894", "f7f0bee5d4f4e27c",
    ),
    "mobius1": (
        "67c2936b289d95ca", "2de3ef4880266bbd", "3e6f5b8764dd2a63", "07bfd95021565a5f",
        "92342c6810638190", "38f4312c9f1f673e", "469b50170657933a", "ad3ac1dd05d9c2e8",
    ),
    "random-1": (
        "23a7d25636dbc77e", "ab7eb7acd9bd9af5", "1fbfc0e1e5176775", "b68787ba7710f605",
        "9e76e15db1d6808b", "040b98cb8d262147", "70cbbd47556bdd3a", "9793ab6cbfe7054b",
    ),
    "random-2": (
        "23a7d25636dbc77e", "63a6800bfa476a2f", "3e49f30594b25052", "f03d246ebd228768",
        "8a369d894a3e9706", "2b03dcfe5d578df0", "743be55d54e38e5b", "ff26ffda1d009b87",
    ),
    "random-3": (
        "23a7d25636dbc77e", "c0266f972902a1c0", "c2c1e42dbf43d687", "3270db2f06577b04",
        "09fb53b4684aab29", "ac4ec802960b38b4", "6d0e9ceea5576f5a", "d2915a5685296cbc",
    ),
}


@pytest.mark.parametrize("name", sorted(_PRESET_DIGESTS))
def test_preset_graphs_are_pinned(name):
    spec = VariantSpec.random(int(name[-1])) if name.startswith("random") else VariantSpec(name)
    digests = tuple(hashlib.sha256(graph_to_json(make_preset(spec, n)).encode()).hexdigest()[:16]
                    for n in range(3, 11))
    assert digests == _PRESET_DIGESTS[name]


# past id 256 ints are not CPython's cached small ints, so n = 9 and 10 show
# whether each row entry is the graph's one int object for that id
@pytest.mark.parametrize("name", sorted(_PRESET_DIGESTS))
@pytest.mark.parametrize("n", [9, 10])
def test_built_and_loaded_rows_hold_one_int_object_per_id(name, n):
    spec = VariantSpec.random(int(name[-1])) if name.startswith("random") else VariantSpec(name)
    g = make_preset(spec, n)
    for h in (g, graph_from_json(graph_to_json(g))):
        assert len({id(w) for row in h.adjacency for w in row}) == h.num_nodes


def test_random_preset_counts_and_determinism():
    g = make_preset(VariantSpec.random(1), 7)
    assert g.num_nodes == 128
    assert g.num_edges == 448
    assert all(g.degree(v) == 7 for v in g.nodes)
    again = make_preset(VariantSpec.random(1), 7)
    assert graph_to_json(g) == graph_to_json(again)


def test_locally_twisted_4_decomposes():
    g = make_preset(VariantSpec("locally-twisted"), 4)
    assert g.num_nodes == 16
    assert all(g.degree(v) == 4 for v in g.nodes)
    d = g.decomposition
    assert len(d.half1) == len(d.half2) == 8
    assert d.child1 is None and d.child2 is None
    assert check_shape(g).ok


@pytest.mark.parametrize("kind", ["crossed", "mobius0", "mobius1", "locally-twisted"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_named_variants_pass_shape_checks(kind, n):
    g = make_preset(VariantSpec(kind), n)
    rep = check_shape(g)
    assert rep.ok, rep.failures
    assert g.num_nodes == 2 ** n
    assert g.num_edges == n * 2 ** (n - 1)


def test_base_kinds_only_at_dimension_3():
    with pytest.raises(PreconditionViolated):
        make_preset(VariantSpec("base3-default"), 4)
    with pytest.raises(PreconditionViolated):
        make_preset(VariantSpec.random(0), 2)


def test_cross_partner_involution_and_errors():
    g = make_preset(VariantSpec.random(4), 5)
    for v in g.nodes:
        assert cross_partner(g, cross_partner(g, v)) == v
    base = make_preset(VariantSpec("base3-default"), 3)
    assert base.decomposition is None


@pytest.mark.parametrize("v", [-1, 32, 10 ** 6])
def test_cross_partner_rejects_ids_outside_the_graph(v):
    g = make_preset(VariantSpec.random(4), 5)
    with pytest.raises(UnknownNode):
        cross_partner(g, v)
    with pytest.raises(UnknownNode):
        g.decomposition.partner(v)


def test_check_shape_flags_missing_edge():
    g = make_preset(VariantSpec.random(9), 5)
    u, v = g.edges[0]
    rows = [list(r) for r in g.adjacency]
    rows[u].remove(v)
    rows[v].remove(u)
    broken = dataclasses.replace(g, adjacency=tuple(tuple(r) for r in rows))
    rep = check_shape(broken)
    assert not rep.ok
    assert any("regularity" in c.name for c in rep.failures)


def test_check_shape_flags_short_matching():
    # two cross edges traded for one edge inside each half: the halves are
    # joined by 2 fewer edges than a perfect matching, every node keeps
    # degree 5, and each half breaks its regularity
    g = make_preset(VariantSpec.random(9), 5)
    d = g.decomposition
    a, b = next((a, b) for a in d.half1 for b in d.half1 if a < b and not g.has_edge(a, b)
                and not g.has_edge(d.partner(a), d.partner(b)))
    a2, b2 = d.partner(a), d.partner(b)
    rows = [set(r) for r in g.adjacency]
    for u, v in ((a, a2), (b, b2)):
        rows[u].remove(v)
        rows[v].remove(u)
    for u, v in ((a, b), (a2, b2)):
        rows[u].add(v)
        rows[v].add(u)
    broken = dataclasses.replace(g, adjacency=_level_rows(rows))
    rep = check_shape(broken)
    # root: regularity passes; a's row has no level-5 entry, so it is out of
    # level order, and a is the first node whose row is
    assert [c.name for c in rep.failures] == ["root: level-order"]
    assert rep.failures[0].detail.endswith(f"first fails at node {a}")


def _shape_by_definition(g):
    """Whether ``g`` has a THLN's shape by the recursive definition, level by
    level: 2^n rows making a simple undirected graph in which every level of
    dimension d (an aligned block of 2^d ids, d = 3..n) is d-regular and
    connected, with each row in level order: by the dimension of the lowest
    level holding v and the neighbour (at least 3), then by id."""
    n, rows = g.dimension, g.adjacency
    nodes = range(len(rows))
    if n < 3 or len(rows) != 1 << n:
        return False
    for v, row in enumerate(rows):
        if len(set(row)) != len(row) or not all(w in nodes and w != v and v in rows[w]
                                                for w in row):
            return False
    for d in range(3, n + 1):
        for base in range(0, 1 << n, 1 << d):
            level = range(base, base + (1 << d))
            if any(sum(w in level for w in rows[v]) != d for v in level):
                return False
            seen, stack = {base}, [base]
            while stack:
                for w in rows[stack.pop()]:
                    if w in level and w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) != len(level):
                return False
    return all(list(row) == sorted(row, key=lambda w, v=v: (max((v ^ w).bit_length(), 3), w))
               for v, row in enumerate(rows))


def _edited(g, drop=(), add=()):
    """``g``'s neighbour sets with the edges ``drop`` removed and ``add`` added."""
    rows = [set(r) for r in g.adjacency]
    for u, v in drop:
        rows[u].discard(v)
        rows[v].discard(u)
    for u, v in add:
        rows[u].add(v)
        rows[v].add(u)
    return rows


def _mutants(g, rng):
    """Seeded edits of ``g``'s edges, as neighbour sets: an edge removed, an
    edge added, 2-switches (a-b, c-d to a-c, b-d) of two edges of one level
    inside one block of it and of two edges of different levels, and block 0
    rewired as two 4-cliques."""
    edges = g.edges
    level = [max((u ^ v).bit_length(), 3) for u, v in edges]
    yield _edited(g, drop=[e for e in edges if e[1] < 8],
                  add=[(u, v) for u in range(8) for v in range(u + 1, 8) if u >> 2 == v >> 2])
    for _ in range(2):
        yield _edited(g, drop=[rng.choice(edges)])
        u, v = rng.sample(g.nodes, 2)
        if not g.has_edge(u, v):
            yield _edited(g, add=[(u, v)])
        i = rng.randrange(len(edges))
        d = level[i]
        same = [j for j, e in enumerate(edges) if level[j] == d and e[0] >> d == edges[i][0] >> d]
        other = [j for j in range(len(edges)) if level[j] != d]
        for j in (rng.choice(same), *([rng.choice(other)] if other else ())):
            (a, b), (c, e) = edges[i], edges[j][::rng.choice((1, -1))]
            if len({a, b, c, e}) == 4 and not g.has_edge(a, c) and not g.has_edge(b, e):
                yield _edited(g, drop=[(a, b), (c, e)], add=[(a, c), (b, e)])


@pytest.mark.parametrize("kind", ["loaded-base", "crossed", "mobius0", "mobius1",
                                  "locally-twisted", "random"])
def test_check_shape_agrees_with_the_definition(kind):
    # every preset and seeded mutants of it, each with its rows in level
    # order and ascending; the report holds the same six checks at every n
    rng = random.Random(kind)
    verdicts = set()
    graphs = ([base_graph(Q3_EDGES)] if kind == "loaded-base" else
              [make_preset(VariantSpec.random(n) if kind == "random" else VariantSpec(kind), n)
               for n in range(3, 9)])
    for g in graphs:
        for rows in [[set(r) for r in g.adjacency], *_mutants(g, rng)]:
            for ordered in (_level_rows(rows), [sorted(r) for r in rows]):
                h = ThlnGraph(g.dimension, ordered)
                rep = check_shape(h)
                assert len(rep.checks) == 6
                assert rep.ok == _shape_by_definition(h), (g.dimension, rep.failures)
                verdicts.add(rep.ok)
    assert verdicts == {True, False}


def _malformed(edit):
    """A random n = 5 graph's rows (as lists) with ``edit`` applied to them."""
    rows = [list(r) for r in make_preset(VariantSpec.random(4), 5).adjacency]
    edit(rows)
    return ThlnGraph(5, rows)


def _one_way(rows):
    # node 3's level-5 entry moves from its partner to another half-2 node,
    # which does not name 3 back; every degree and the level order hold
    rows[3][4] ^= 1


def _negative_id(rows):
    # a negative id whose bits first differ from 3's in bit 4, so only the
    # symmetry check can catch it
    rows[3][4] = next(w for w in range(-1, -64, -1) if (3 ^ w).bit_length() == 5)


@pytest.mark.parametrize("graph,failing", [
    (lambda: _malformed(_one_way), ["root: symmetry"]),
    (lambda: _malformed(lambda rows: rows[3].append(1000)),
     ["root: regularity", "root: edge-count", "root: symmetry"]),
    (lambda: _malformed(lambda rows: rows[3].__setitem__(4, 32)),
     ["root: symmetry", "root: level-order"]),
    (lambda: _malformed(_negative_id), ["root: symmetry"]),
    (lambda: _malformed(lambda rows: rows[3].__setitem__(1, rows[3][0])),
     ["root: symmetry", "root: level-order"]),
    (lambda: _malformed(lambda rows: rows.pop()),
     ["root: node-count", "root: edge-count", "root: symmetry"]),
    (lambda: _malformed(lambda rows: rows.append([])),
     ["root: node-count", "root: regularity"]),
    (lambda: ThlnGraph(2, [(1, 2), (0, 3), (0, 3), (1, 2)]), ["root: level-order"]),
    (lambda: ThlnGraph(0, []), ["root: node-count"]),
    (lambda: ThlnGraph(-1, [()]), ["root: node-count", "root: regularity"]),
], ids=["one-way-row", "extra-id-1000", "id-2^n", "negative-id", "duplicate-entry",
        "a-row-short", "a-row-over", "dimension-2", "dimension-0", "dimension-minus-1"])
def test_check_shape_fails_malformed_rows_without_raising(graph, failing):
    # the shape check is the one place a graph's rows are checked: an id out
    # of the graph fails it, never wraps or raises
    g = graph()
    rep = check_shape(g)
    assert [c.name for c in rep.failures] == failing
    # symmetry fails first at the first node whose row names an id whose row
    # does not name it back
    rows = g.adjacency
    one_way = next((v for v, row in enumerate(rows)
                    if any(w not in range(len(rows)) or v not in rows[w] for w in row)), None)
    symmetry = rep.checks[3]
    assert symmetry.name == "root: symmetry" and symmetry.passed == (one_way is None)
    assert one_way is None or symmetry.detail.endswith(f"first fails at node {one_way}")


def test_shape_check_names_the_failing_node_in_the_files_ids():
    # ids reversed, so each file id differs from its position; an extra cross
    # edge fails regularity first at one of its ends
    doc = graph_to_json_obj(make_preset(VariantSpec.random(2), 5))

    def flip(t):
        return {"half1": sorted(31 - v for v in t["half1"]),
                "matching": sorted([31 - u, 31 - v] for u, v in t["matching"]),
                "children": [flip(c) for c in t["children"]]}

    edges = {tuple(sorted((31 - u, 31 - v))) for u, v in doc["edges"]}
    tree = flip(doc["decomposition"])
    u = min(tree["half1"])
    w = min(w for w in range(32) if w not in tree["half1"] and (u, w) not in edges)
    g = graph_from_json(json.dumps({"dimension": 5, "edges": sorted(edges | {(u, w)}),
                                    "decomposition": tree}))
    assert g.file_ids is not None
    bad = check_shape(g).failures[0]
    assert bad.name == "root: regularity"
    assert int(bad.detail.rsplit(" ", 1)[1]) in (u, w)


def test_graph_files_are_canonical_whatever_the_row_order():
    # each row's base entries reversed: the rows are out of level order, but
    # the graph, and so its JSON and DOT files, are the canonical twin's
    g = make_preset(VariantSpec.random(1), 4)
    h = ThlnGraph(4, [row[2::-1] + row[3:] for row in g.adjacency])
    assert [c.name for c in check_shape(h).failures] == ["root: level-order"]
    assert graph_to_json(h) == graph_to_json(g)
    assert graph_to_dot(h) == graph_to_dot(g)


def test_json_roundtrip_is_byte_identical():
    g = make_preset(VariantSpec.random(6), 6)
    text = graph_to_json(g)
    assert graph_to_json(graph_from_json(text)) == text


def _half_as_graph(g, half, offset):
    half_set = set(half)
    rows = tuple(
        tuple(w - offset for w in g.adjacency[v] if w in half_set) for v in half
    )
    return ThlnGraph(g.dimension - 1, rows)


def test_decompose_then_join_rebuilds_identical_graph(join):
    # the reference join and the one-pass preset builder are checked against each other,
    # on every variant; one test id, so the original random case keeps its name
    specs = [VariantSpec("crossed"), VariantSpec("locally-twisted"), VariantSpec("mobius0"),
             VariantSpec("mobius1"), VariantSpec.random(13)]
    for spec in specs:
        for n in range(4, 9):
            g = make_preset(spec, n)
            d = g.decomposition
            half = 1 << (g.dimension - 1)
            g1 = _half_as_graph(g, d.half1, 0)
            g2 = _half_as_graph(g, d.half2, half)
            matching = {u: v - half for u, v in d.matching}
            rebuilt = join(g1, g2, matching)
            assert graph_to_json(rebuilt) == graph_to_json(g), (spec.kind, n)


def test_json_rejects_an_edge_listed_twice():
    # the rows' sets would fold the repeat, and the graph would write back
    # one edge fewer than its file lists
    doc = {"dimension": 3, "edges": [list(e) for e in DEFAULT_BASE_EDGES] + [[1, 0]]}
    with pytest.raises(MalformedGraph, match=r"^edge \(0,1\) is listed twice$"):
        graph_from_json(json.dumps(doc))


def test_json_rejects_malformed_documents():
    with pytest.raises(MalformedGraph):
        graph_from_json("not json at all [")
    with pytest.raises(MalformedGraph):
        graph_from_json(json.dumps({"dimension": 4, "edges": [[0, 99]]}))
    with pytest.raises(MalformedGraph):
        graph_from_json(json.dumps({"dimension": 4, "edges": [], "decomposition": None}))


def _root(doc, **fields):
    """``doc`` with ``fields`` of its root decomposition replaced."""
    return dict(doc, decomposition=dict(doc["decomposition"], **fields))


@pytest.mark.parametrize(
    "edit,message",
    [(lambda doc: [doc], "bad graph object"),
     (lambda doc: dict(doc, dimension=2), "dimension must be at least 3, got 2"),
     (lambda doc: dict(doc, edges=[[0, 16]] + doc["edges"][1:]), r"edge \(0,16\) out of range"),
     (lambda doc: dict(doc, decomposition=None), "decomposition missing at dimension 4"),
     (lambda doc: _root(doc, children=[{"half1": [], "matching": []}, None]),
      "a dimension-3 level has no decomposition"),
     (lambda doc: _root(doc, children=[None]), "children must be absent or a pair"),
     (lambda doc: _root(doc, half1=0), "half1 must be a list, got 0"),
     (lambda doc: _root(doc, half1=[99]), "half1 contains foreign nodes")],
    ids=["not-an-object", "dimension-2", "edge-out-of-range", "decomposition-missing",
         "decomposition-at-dimension-3", "children-not-a-pair", "half1-not-a-list",
         "half1-foreign-node"],
)
def test_json_rejects_a_malformed_document_naming_its_fault(edit, message):
    # each edit of a well-formed dimension-4 file trips one check of the
    # loader, past the checks before it
    doc = json.loads(graph_to_json(make_preset(VariantSpec.random(0), 4)))
    with pytest.raises(MalformedGraph, match=message):
        graph_from_json(json.dumps(edit(doc)))


@pytest.mark.parametrize("dim,edges", [(20, []), (30, [[0, 1]] * 1000), (10 ** 9, [])])
def test_json_rejects_a_dimension_its_edges_cannot_fill_before_allocating(dim, edges):
    # fewer edges than half the nodes leave a node with no edge; the file is
    # rejected before any of its 2^dim rows is built
    text = json.dumps({"dimension": dim, "edges": edges})
    tracemalloc.start()
    try:
        with pytest.raises(MalformedGraph, match="cannot make a regular graph"):
            graph_from_json(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc.update(dimension="4"),
        lambda doc: doc.update(dimension=4.0),
        lambda doc: doc["edges"].__setitem__(0, ["0", 1]),
        lambda doc: doc["edges"].__setitem__(0, [0, 1.6]),
        lambda doc: doc["edges"].__setitem__(0, [False, True]),
        lambda doc: doc["edges"].__setitem__(0, "01"),
        lambda doc: doc["decomposition"]["half1"].__setitem__(0, "0"),
        lambda doc: doc["decomposition"]["matching"][0].__setitem__(0, 0.0),
    ],
    ids=["dimension-string", "dimension-float", "edge-string", "edge-float",
         "edge-bools", "edge-not-a-pair", "half1-string", "matching-float"],
)
def test_json_rejects_ids_that_are_not_integers(edit):
    # like fault files, graph files must hold JSON integers: nothing is coerced
    g = make_preset(VariantSpec.random(0), 4)
    doc = json.loads(graph_to_json(g))
    assert doc["edges"][0] == [0, 1] and doc["decomposition"]["half1"][0] == 0
    assert doc["decomposition"]["matching"][0][0] == 0
    edit(doc)
    with pytest.raises(MalformedGraph):
        graph_from_json(json.dumps(doc))


def test_dot_export_labels_nodes_in_binary():
    g = make_preset(VariantSpec.random(0), 3)
    dot = graph_to_dot(g)
    assert 'label="000"' in dot and 'label="111"' in dot
    assert dot.count(" -- ") == g.num_edges


@given(seed=st.integers(0, 10 ** 6), n=st.integers(3, 6))
@settings(max_examples=25, deadline=None)
def test_random_presets_satisfy_count_invariants(seed, n):
    g = make_preset(VariantSpec.random(seed), n)
    assert g.num_nodes == 2 ** n
    assert g.num_edges == n * 2 ** (n - 1)
    if n > 3:
        assert len(g.decomposition.matching) == 2 ** (n - 1)
        for v in g.nodes:
            assert cross_partner(g, cross_partner(g, v)) == v


def test_edge_queries_leave_nothing_on_the_graph():
    # the adjacency is the only store of the edge relation: reading the edges,
    # validating a fault set and building a view must not grow the graph
    g = make_preset(VariantSpec.random(3), 9)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        edges = g.edges
        assert len(edges) == g.num_edges == 9 * 2 ** 8
        f = FaultSet.of(edges=[edges[len(edges) // 2]])
        f.validate_against(g)
        SurvivingView(g, f)
        del edges
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 32 * 1024


def test_only_a_graph_known_to_pass_the_shape_check_is_marked_shape_ok():
    # the mark is the block tables: a preset is built with them; a graph
    # built or loaded from rows has none until its first view, whose
    # constructor judges it once and records them; a failing graph raises at
    # every view (and every entry that builds one) and never gains tables;
    # and a replaced graph starts without them
    g = make_preset(VariantSpec.random(1), 6)
    assert g.block_tables is not None
    assert make_preset(VariantSpec("base3-default"), 3).block_tables is not None
    built = ThlnGraph(6, g.adjacency)
    loaded = graph_from_json(graph_to_json(g))
    assert built == g and built.block_tables is None and loaded.block_tables is None
    SurvivingView(built, FaultSet.of(nodes=[3]))
    SurvivingView(loaded, FaultSet.empty(), scope=g.decomposition.half2)
    assert built.block_tables == loaded.block_tables == g.block_tables
    bad = ThlnGraph(6, [row[::-1] for row in g.adjacency])
    d = bad.decomposition
    for build in (lambda: SurvivingView(bad, FaultSet.of(nodes=[3])),
                  lambda: SurvivingView(bad, FaultSet.empty(), scope=d.half1),
                  lambda: SurvivingView(bad, FaultSet.empty(), scope=d.half2),
                  lambda: sample_faults(bad, 2, random.Random(0)),
                  lambda: embed(bad, FaultSet.empty(), 0, 40)):
        with pytest.raises(MalformedGraph, match="graph fails shape check root: level-order"):
            build()
        assert bad.block_tables is None
    assert dataclasses.replace(g, adjacency=g.adjacency).block_tables is None


def test_a_graph_built_with_rows_out_of_level_order_fails_that_check_alone():
    # the graph stores its rows as given, and views and partners read them
    # in level order; embed's root view judges the graph, so it raises
    # MalformedGraph naming that check before any level runs. Reversed rows
    # break every partner; node 100's swapped level-7 and level-8 partners
    # would put a node of the other half into its dimension-7 search rows
    g = make_preset(VariantSpec.random(1), 8)
    swapped = [list(row) for row in g.adjacency]
    swapped[100][6:8] = swapped[100][7:5:-1]
    for rows in ([row[::-1] for row in g.adjacency], swapped):
        h = ThlnGraph(8, rows)
        assert sorted(h.edges) == list(g.edges)
        assert [c.name for c in check_shape(h).failures] == ["root: level-order"]
        with pytest.raises(MalformedGraph, match="graph fails shape check root: level-order"):
            embed(h, FaultSet.empty(), 0, 200)


# ----------------------------------------------------------------------
# covering paths of fault-free levels, written from the block tables


def _is_covering_path(g, lo, d, s, t, path):
    """The reference check: ``path`` runs from s to t through every node of
    the level of dimension d at ``lo`` once, over edges of the level."""
    return (path[0] == s and path[-1] == t and sorted(path) == list(range(lo, lo + (1 << d)))
            and all(v in g.adjacency[u] for u, v in zip(path, path[1:])))


_TABLE_SPECS = [VariantSpec.random(seed) for seed in range(3)] + [
    VariantSpec(kind) for kind in ("crossed", "locally-twisted", "mobius0", "mobius1")]


@pytest.mark.parametrize("spec", _TABLE_SPECS, ids=lambda spec: f"{spec.kind}{spec.seed or ''}")
def test_covering_path_covers_every_fault_free_level(spec):
    # every pair at d <= 4 and 200 seeded pairs above, on the whole graph
    # and on its last level one dimension down, whose ids do not start at 0
    for d in range(3, 9):
        g = make_preset(spec, d)
        rng = random.Random(f"covering/{d}")
        size = 1 << d
        pairs = ([(s, t) for s in range(size) for t in range(size) if s != t] if d <= 4
                 else [tuple(rng.sample(range(size), 2)) for _ in range(200)])
        for lo, dim in ((0, d), (size >> 1, d - 1)) if d > 3 else ((0, d),):
            for s, t in pairs:
                s, t = lo + s % (1 << dim), lo + t % (1 << dim)
                if s != t:
                    path = covering_path(g, lo, dim, s, t)
                    assert path is not None and _is_covering_path(g, lo, dim, s, t, path)


def test_preset_blocks_share_their_base_tables():
    # one table per base: every block of a random, crossed or
    # locally-twisted preset holds the default base's, a Moebius preset's
    # blocks one of two; a passing check_shape records equal tables
    default = make_preset(VariantSpec("base3-default"), 3).block_tables
    for spec, count in ((VariantSpec.random(1), 1), (VariantSpec("crossed"), 1),
                        (VariantSpec("locally-twisted"), 1), (VariantSpec("mobius0"), 2),
                        (VariantSpec("mobius1"), 2)):
        g = make_preset(spec, 6)
        assert len(g.block_tables) == 8 and len({id(t) for t in g.block_tables}) == count
        if count == 1:
            assert g.block_tables[0] is default[0]
        loaded = graph_from_json(graph_to_json(g))
        assert loaded.block_tables is None
        assert check_shape(loaded).ok and loaded.block_tables == g.block_tables
        assert len({id(t) for t in loaded.block_tables}) == count


def test_a_binary_cube_base_has_no_path_between_nodes_of_one_colour(join):
    # the 3-cube is bipartite: a path through its 8 nodes joins two nodes of
    # opposite colour, so a same-colour pair has no table entry, and a level
    # that needs one is searched, not built
    cube = base_graph(Q3_EDGES)
    assert check_shape(cube).ok
    assert covering_path(cube, 0, 3, 0, 3) is None
    assert _is_covering_path(cube, 0, 3, 0, 1, covering_path(cube, 0, 3, 0, 1))
    g, rng = cube, random.Random(0)
    while g.dimension < 7:
        perm = list(g.nodes)
        rng.shuffle(perm)
        g = join(g, g, dict(enumerate(perm)))
    assert check_shape(g).ok
    t = next(t for t in range(1, 128) if covering_path(g, 0, 7, 0, t) is None)
    res = embed(g, FaultSet.empty(), 0, t)
    assert validate_path(g, FaultSet.empty(), 0, t, res.path).is_hamiltonian
    level, search = res.trace.records
    assert level["case"] == "base" and search["service"] == "ham_path" and search["level"] == 0


def test_a_loaded_graph_embeds_as_its_preset_does():
    # a graph read back from its file has no tables until embed's root view
    # judges it; it then embeds as the preset does, with no explicit
    # check_shape: one intact level, written from the tables, and no search
    g = make_preset(VariantSpec.random(1), 9)
    loaded = graph_from_json(graph_to_json(g))
    assert loaded.block_tables is None
    res = embed(loaded, FaultSet.empty(), 3, 200)
    assert res.to_json_obj() == embed(g, FaultSet.empty(), 3, 200).to_json_obj()
    records = res.trace.records
    assert [r["case"] for r in records if "case" in r] == ["intact"]
    assert not any("service" in r for r in records)


def test_partner_rejects_a_row_without_its_level_entry():
    # partner reads entry d - 1 of a row in level order: a row too short for
    # the level, or one whose entry d - 1 lies at another level, raises
    # MalformedGraph, never IndexError and never a wrong node
    g = make_preset(VariantSpec.random(4), 5)
    d = g.decomposition
    v = 3
    row = g.adjacency[v]
    short = [*g.adjacency[:v], row[:4], *g.adjacency[v + 1:]]
    swapped = [*g.adjacency[:v], (*row[:3], row[4], row[3]), *g.adjacency[v + 1:]]
    for rows, levels in ((short, (5,)), (swapped, (4, 5))):
        h = ThlnGraph(5, rows)
        for level in levels:
            node = h.decomposition if level == 5 else h.decomposition.child1
            with pytest.raises(MalformedGraph, match="no cross partner"):
                node.partner(v)
    assert d.child1.partner(v) == row[3] and d.partner(v) == row[4]


@pytest.mark.parametrize("kind", ["crossed", "mobius0", "mobius1", "locally-twisted", "random"])
def test_loaded_rows_do_not_depend_on_the_files_edge_order(kind):
    # the loader puts rows in level order whatever order the file lists its
    # edges and their ends in
    spec = VariantSpec.random(1) if kind == "random" else VariantSpec(kind)
    rng = random.Random(kind)
    for n in range(4, 9):
        g = make_preset(spec, n)
        doc = graph_to_json_obj(g)
        edges = [[v, u] for u, v in doc["edges"]]
        rng.shuffle(edges)
        assert graph_from_json(json.dumps(dict(doc, edges=edges))).adjacency == g.adjacency
