import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thln import (
    FaultSet,
    ForeignFault,
    PreconditionViolated,
    SurvivingView,
    ThlnGraph,
    VariantSpec,
    embed,
    enumerate_ham_path_exists,
    ham_path,
    make_preset,
    neighbor_condition,
    surviving_view,
    two_disjoint_spanning_paths,
)
from thln.cli import main
from thln.errors import ThlnError
from thln.faults import draw_endpoints, partition_decomposition, sample_faults
from thln.topology import check_shape, graph_from_json, graph_to_json_obj
from thln.validate import validate_path

from conftest import cross_partner


def test_empty_faults_view_equals_graph(graph4):
    view = surviving_view(graph4, FaultSet.empty())
    assert view.nodes == tuple(graph4.nodes)
    for v in graph4.nodes:
        assert view.neighbors(v) == graph4.adjacency[v]


def test_node_fault_reduces_each_neighbor_by_one(graph4):
    v = 5
    view = surviving_view(graph4, FaultSet.of(nodes=[v]))
    assert not view.has_node(v)
    for w in graph4.neighbors(v):
        assert view.degree(w) == graph4.degree(w) - 1


def test_edge_fault_on_dead_endpoint_changes_nothing(graph4):
    u = 3
    v = graph4.neighbors(u)[0]
    only_node = surviving_view(graph4, FaultSet.of(nodes=[u]))
    both = surviving_view(graph4, FaultSet.of(nodes=[u], edges=[(u, v)]))
    assert only_node.nodes == both.nodes
    for w in both.nodes:
        assert only_node.neighbors(w) == both.neighbors(w)


def test_redundant_faults_still_count():
    f = FaultSet.of(nodes=[1], edges=[(1, 2)])
    assert len(f) == 2


def test_foreign_fault_rejected(graph4):
    with pytest.raises(ForeignFault):
        surviving_view(graph4, FaultSet.of(nodes=[999]))
    non_edge = next(
        (u, v)
        for u in graph4.nodes
        for v in graph4.nodes
        if u < v and not graph4.has_edge(u, v)
    )
    with pytest.raises(ForeignFault):
        surviving_view(graph4, FaultSet.of(edges=[non_edge]))


@pytest.mark.parametrize(
    "edge",
    [
        lambda g: (3, g.num_nodes),
        lambda g: (g.num_nodes, g.num_nodes + 1),
        # adjacency[-1] is the last node's row, so only the range check stops this
        lambda g: (-1, g.neighbors(g.num_nodes - 1)[0]),
    ],
    ids=["endpoint-past-the-end", "both-past-the-end", "negative-endpoint"],
)
def test_foreign_edge_outside_the_node_range_rejected(graph4, edge):
    f = FaultSet.of(edges=[edge(graph4)])
    with pytest.raises(ForeignFault):
        surviving_view(graph4, f)
    # the foreign fault is reported first, before the dimension and endpoint checks
    with pytest.raises(ForeignFault):
        embed(graph4, f, 0, 0)


def test_partition_example_three_dead_cross_edges(graph4):
    d = graph4.decomposition
    a = d.half1[2]
    x1 = d.half1[0]
    b = cross_partner(graph4, d.half1[5])  # partner distinct from a and x1
    assert a != x1
    x2 = cross_partner(graph4, x1)
    assert cross_partner(graph4, b) not in (a, x1)
    f = FaultSet.of(nodes=[a, b], edges=[(x1, x2)])
    part = partition_decomposition(d, f)
    assert part.counts == (1, 1, 1)
    assert part.fc_direct == {(x1, x2)}


def test_partition_empty_and_intra_edge(graph4):
    d = graph4.decomposition
    part = partition_decomposition(d, FaultSet.empty())
    assert part.counts == (0, 0, 0) and part.fc_direct == frozenset()
    h1 = set(d.half1)
    edge = next(e for e in graph4.edges if e[0] in h1 and e[1] in h1)
    part = partition_decomposition(d, FaultSet.of(edges=[edge]))
    assert part.counts == (1, 0, 0)
    assert part.fc_direct == frozenset()


def test_count_identity_and_effective_cross_brute_force():
    # |F| = |F1| + |F2| + |Fc-direct| over many random fault sets
    g = make_preset(VariantSpec.random(11), 5)
    rng = random.Random(0)
    for _ in range(10_000):
        f = sample_faults(g, rng.randrange(0, 9), rng)
        part = partition_decomposition(g.decomposition, f)
        assert len(f) == sum(part.counts)


# a half's minimum intra-half degree is read from a view scoped to the half


def test_analyze_half_no_faults(graph4):
    half = SurvivingView(graph4, FaultSet.empty(), scope=graph4.decomposition.half1)
    # halves of a dimension-4 network are 3-regular
    assert half.min_degree_witness() == (3, graph4.decomposition.half1[0])


def test_analyze_half_targeted_faults(graph4):
    h1 = graph4.decomposition.half1
    q = graph4.decomposition.half1[0]
    intra = [w for w in graph4.neighbors(q) if w in h1]
    half = SurvivingView(graph4, FaultSet.of(nodes=intra[:-1]), scope=h1)
    assert half.min_degree_witness() == (1, q)
    half0 = SurvivingView(graph4, FaultSet.of(nodes=intra), scope=h1)
    assert half0.min_degree_witness() == (0, q)


def test_analyze_half_reports_empty(graph4):
    h1 = graph4.decomposition.half1
    half = SurvivingView(graph4, FaultSet.of(nodes=h1), scope=h1)
    assert len(half) == 0
    assert half.min_degree_witness() == (None, None)


def test_neighbor_condition_basics(graph4):
    view = surviving_view(graph4, FaultSet.empty())
    assert neighbor_condition(view, 0, 9)

    s = 0
    t = graph4.neighbors(s)[0]
    others = [w for w in graph4.neighbors(s) if w != t]
    starved = surviving_view(graph4, FaultSet.of(nodes=others))
    assert not neighbor_condition(starved, s, t)


@pytest.mark.parametrize("call", [
    pytest.param(lambda view, dead: neighbor_condition(view, 0, dead), id="neighbor_condition"),
    pytest.param(lambda view, dead: ham_path(view, dead, 0), id="ham_path"),
    pytest.param(lambda view, dead: two_disjoint_spanning_paths(view, 0, 1, 2, dead),
                 id="two_disjoint_spanning_paths"),
    pytest.param(lambda view, dead: enumerate_ham_path_exists(view, 0, dead),
                 id="enumerate_ham_path_exists"),
])
def test_a_dead_endpoint_violates_the_precondition_by_name(graph4, call):
    # one check serves the neighbour condition and the search services: a
    # faulty endpoint, or one outside the view's level, is named
    for dead, view in ((5, SurvivingView(graph4, FaultSet.of(nodes=[5]), scope=range(8))),
                       (9, SurvivingView(graph4, FaultSet.empty(), scope=range(8)))):
        with pytest.raises(PreconditionViolated, match=f"^endpoint {dead} is not in the"):
            call(view, dead)


def test_neighbor_condition_one_spare_neighbor_each(graph4):
    s, t = 0, 9
    assert not graph4.has_edge(s, t)
    keep_s = graph4.neighbors(s)[0]
    keep_t = next(w for w in graph4.neighbors(t) if w not in (s, keep_s))
    dead = [w for w in graph4.neighbors(s) if w != keep_s]
    dead += [w for w in graph4.neighbors(t) if w not in (keep_t, s) and w not in dead]
    view = surviving_view(graph4, FaultSet.of(nodes=[w for w in dead if w not in (s, t)]))
    assert neighbor_condition(view, s, t)


def _all_simple_paths_of_length_two_or_more(view, s, t):
    found = []

    def walk(v, seen, length):
        if v == t and length >= 2:
            found.append(tuple(seen))
            return
        for w in view.neighbors(v):
            if w == t and length + 1 >= 2:
                found.append(tuple(seen) + (t,))
            elif w not in seen and w != t:
                walk(w, seen + [w], length + 1)

    walk(s, [s], 0)
    return found


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_failed_neighbor_condition_means_no_long_path(seed):
    # on tiny surviving views, a failed condition really does exclude every
    # path of length two or more
    rng = random.Random(seed)
    g = make_preset(VariantSpec.random(5), 4)
    keep = rng.sample(range(16), rng.randrange(3, 9))
    f = FaultSet.of(nodes=[v for v in g.nodes if v not in keep])
    view = surviving_view(g, f)
    s, t = rng.sample(view.nodes, 2)
    if not neighbor_condition(view, s, t):
        assert _all_simple_paths_of_length_two_or_more(view, s, t) == []


def test_view_scoping(graph4):
    half = SurvivingView(graph4, FaultSet.of(nodes=[3]), scope=range(8))
    assert half.node_set == frozenset(range(8)) - {3}
    for v in half.nodes:
        assert all(w < 8 for w in half.neighbors(v))
    # nodes are left out of a view as node faults over the same scope
    fewer = SurvivingView(graph4, FaultSet.of(nodes=[3, 0, 1]), scope=range(8))
    assert fewer.node_set == half.node_set - {0, 1}


@pytest.mark.parametrize(
    "scope",
    [range(0, 16, 2), range(15, -1, -1), range(4, 20), range(0, 4), range(5, 2),
     range(16, 24), range(-8, 0)],
    ids=["step-2", "descending", "unaligned", "under-8-ids", "empty", "past-the-end",
         "negative-start"],
)
def test_view_scope_must_be_a_level(graph4, scope):
    # a view's untouched rows are their first d entries, which holds on a
    # level of dimension d alone; read by its start and stop alone, the
    # step-2 scope would give all 16 nodes and the descending one none
    with pytest.raises(ValueError, match="level"):
        SurvivingView(graph4, FaultSet.empty(), scope=scope)
    with pytest.raises(ValueError, match="level"):  # the sampler takes a view's scope
        sample_faults(graph4, 1, random.Random(0), scope)


def _view_by_definition(g, f, scope):
    """Rows of the surviving view straight from its definition: a neighbour
    is kept when it is alive, in scope and joined by an edge that is not
    faulty. Each row is in level order."""
    alive = [v for v in g.nodes if v not in f.nodes and (scope is None or v in scope)]
    return {
        v: _in_level_order(
            v, (w for w in alive if g.has_edge(v, w) and (min(v, w), max(v, w)) not in f.edges)
        )
        for v in alive
    }


def _in_level_order(v, row):
    """``row`` of node v in level order: by the dimension of the lowest
    level holding v and the neighbour (at least 3), then by id."""
    return tuple(sorted(row, key=lambda w: (max((v ^ w).bit_length(), 3), w)))


def _assert_view_is(view, want, g):
    """``view`` against ``want``, its dict view from ``_view_by_definition``,
    on every member, including ids that are dead, outside the view's range
    or outside the graph."""
    assert view.nodes == tuple(want)
    assert view.node_set == frozenset(want)
    assert len(view) == len(want)
    assert _rows(view) == want
    assert view.rows() == list(want.values())
    assert view.min_degree_witness() == min(
        ((len(row), v) for v, row in want.items()), default=(None, None)
    )
    n = g.num_nodes
    probes = (-5, -1, *g.nodes, n, n + 3)
    for v in probes:
        assert view.has_node(v) == (v in want)
        if v in want:
            assert view.degree(v) == len(want[v])
        else:
            with pytest.raises(KeyError):
                view.neighbors(v)
            with pytest.raises(KeyError):
                view.degree(v)
        for w in (-1, n, *(g.adjacency[v] if 0 <= v < n else ())):
            assert view.has_edge(v, w) == (v in want and w in want[v])


def _relabelled_graph(g, seed):
    """``g`` read back from its file with every id moved by a seeded
    permutation, so the loader renumbers the file's ids to positions."""
    perm = list(range(g.num_nodes))
    random.Random(seed).shuffle(perm)
    doc = graph_to_json_obj(g)

    def tree(t):
        return {"half1": sorted(perm[v] for v in t["half1"]),
                "matching": sorted([perm[u], perm[v]] for u, v in t["matching"]),
                "children": [tree(c) for c in t["children"]]}

    doc = {"dimension": doc["dimension"],
           "edges": sorted(sorted([perm[u], perm[v]]) for u, v in doc["edges"]),
           "decomposition": tree(doc["decomposition"])}
    return graph_from_json(json.dumps(doc))


def _any_graph(rng):
    """A graph of dimension 4 to 6: a preset of any variant, or a random one
    read back from a relabelled file."""
    variant = rng.choice(("random", "crossed", "mobius0", "mobius1", "locally-twisted",
                          "relabelled"))
    if variant in ("random", "relabelled"):
        spec = VariantSpec.random(rng.randrange(4))
    else:
        spec = VariantSpec(variant)
    g = make_preset(spec, rng.choice((4, 5, 6)))
    return _relabelled_graph(g, rng.randrange(100)) if variant == "relabelled" else g


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_view_rows_match_their_definition(seed):
    rng = random.Random(seed)
    g = _any_graph(rng)
    f = sample_faults(g, rng.randrange(0, 2 * g.dimension + 1), rng)
    d = g.decomposition
    # a half of any level, an 8-node block included
    sub = rng.choice(list(_levels(d)))
    for scope in (None, d.half1, d.half2, rng.choice((sub.half1, sub.half2))):
        view = SurvivingView(g, f, scope=scope)
        _assert_view_is(view, _view_by_definition(g, f, scope), g)
        # nodes are left out as node faults over the same scope
        drop = frozenset(rng.sample(view.nodes, min(len(view), 3)))
        fewer = SurvivingView(g, FaultSet(f.nodes | drop, f.edges), scope=scope)
        narrow = frozenset(g.nodes if scope is None else scope) - drop
        _assert_view_is(fewer, _view_by_definition(g, f, narrow), g)


def test_min_degree_witness_reads_touched_and_untouched_nodes(graph4):
    # the lowest of the nodes of least degree, whether its row was filtered
    # against the faults or not
    d = graph4.decomposition
    h1 = d.half1
    cross = [(u, d.partner(u)) for u in h1]

    def check(view, scope, f, expected):
        assert view.min_degree_witness() == expected
        _assert_view_is(view, _view_by_definition(graph4, f, scope), graph4)

    # a faulty cross edge touches its half-1 end without lowering its degree
    # in half 1: a tie with the untouched nodes, broken by the lower id
    for u, expected in ((h1[0], (3, h1[0])), (h1[5], (3, h1[0]))):
        f = FaultSet.of(edges=[cross[u - h1[0]]])
        check(SurvivingView(graph4, f, scope=h1), h1, f, expected)
    # every node touched: by every cross edge, in half 1 and in the whole graph
    f = FaultSet.of(edges=cross)
    check(SurvivingView(graph4, f, scope=h1), h1, f, (3, h1[0]))
    check(SurvivingView(graph4, f), None, f, (3, 0))
    # and the same ties in derived views, whose touched rows are cut at the cut
    whole = SurvivingView(graph4, f)
    split = partition_decomposition(d, f)
    for half, own, view in zip((h1, d.half2), (split.f1, split.f2),
                               whole.halves(split.f1, split.f2)):
        check(view, half, own, (3, half[0]))
    # an empty view: every node of the level dead
    f = FaultSet.of(nodes=h1)
    check(SurvivingView(graph4, f, scope=h1), h1, f, (None, None))


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_view_over_an_id_range_matches_the_view_over_its_set(seed):
    # a built graph's halves are id ranges, and a view slices its rows to one
    rng = random.Random(seed)
    g = make_preset(VariantSpec.random(rng.randrange(4)), rng.choice((5, 6)))
    f = sample_faults(g, rng.randrange(0, 2 * g.dimension + 1), rng)
    d = g.decomposition
    n = g.num_nodes
    for scope in (d.half1, d.half2, d.child2.half1, range(n - 8, n)):
        view = SurvivingView(g, f, scope=scope)
        want = _view_by_definition(g, f, frozenset(scope))
        assert view.nodes == tuple(want)
        assert {v: view.neighbors(v) for v in view.nodes} == want


def _rows(view):
    return {v: view.neighbors(v) for v in view.nodes}


def _levels(d):
    while d is not None:  # depth first, every level of the decomposition
        yield d
        yield from _levels(d.child2)
        d = d.child1


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_half_view_from_its_own_faults_matches_the_whole_set(seed):
    # each level hands a half only its own share of the faults: a view over
    # a half built from partition_decomposition's f1 / f2 has the rows of
    # one built from the whole set, and so has the half's view derived from
    # its level's view by SurvivingView.halves, at every level; narrowing
    # the scope by X drops exactly X. Every view matches its definition,
    # and so do the views that leave nodes out (half-2 searches) and that
    # restore one fault (cases 4 and 5).
    rng = random.Random(seed)
    g = _any_graph(rng)
    f = sample_faults(g, rng.randrange(0, 2 * g.dimension + 1), rng)
    # a cross partner and a cross edge of random levels fail too, so that
    # derived rows lose the entry they would otherwise cut off
    levels = list(_levels(g.decomposition))
    d = rng.choice(levels)
    dead = d.partner(rng.choice((*d.half1, *d.half2)))
    d = rng.choice(levels)
    u = rng.choice(d.half1)
    f = FaultSet.of(nodes=f.nodes | {dead}, edges=f.edges | {(u, d.partner(u))})
    root = surviving_view(g, f)
    _assert_view_is(root, _view_by_definition(g, f, None), g)
    stack = [(g.decomposition, root)]
    while stack:
        d, level = stack.pop()
        split = partition_decomposition(d, level.faults)
        derived = level.halves(split.f1, split.f2)
        for half, own, child, view in zip(
            (d.half1, d.half2), (split.f1, split.f2), (d.child1, d.child2), derived
        ):
            built = SurvivingView(g, own, scope=half)
            assert view.faults == own
            assert view.nodes == built.nodes
            assert _rows(view) == _rows(built) == _rows(SurvivingView(g, f, scope=half))
            _assert_view_is(view, _view_by_definition(g, own, half), g)
            x = frozenset(rng.sample(half, rng.randrange(4)))
            narrow = SurvivingView(g, FaultSet(own.nodes | x, own.edges), scope=half)
            assert narrow.node_set == view.node_set - x
            assert _rows(narrow) == {
                v: tuple(w for w in view.neighbors(v) if w not in x) for v in narrow.nodes
            }
            _assert_view_is(narrow, _view_by_definition(g, own, frozenset(half) - x), g)
            if own:
                fault = rng.choice((*sorted(own.nodes), *sorted(own.edges)))
                kept = FaultSet(own.nodes - {fault}, own.edges - {fault})
                _assert_view_is(SurvivingView(g, kept, scope=half),
                                _view_by_definition(g, kept, half), g)
            if child is not None:
                stack.append((child, view))


def _shape_failures(g):
    return [c.name for c in check_shape(g).failures]


def test_shape_check_rejects_a_row_with_two_neighbours_across_the_cut(tmp_path, capsys):
    # a half-1 node with a second neighbour in half 2 breaks the root
    # level's degree; the views split faults, not rows, so the shape check is
    # the one place a graph's rows are checked
    for n in (4, 8):
        good = make_preset(VariantSpec.random(1), n)
        rows = [set(r) for r in good.adjacency]
        mid = 1 << (n - 1)
        u = 3
        w = next(w for w in range(mid, 2 * mid) if w not in rows[u])
        rows[u].add(w)
        rows[w].add(u)
        bad = ThlnGraph(n, [_in_level_order(v, r) for v, r in enumerate(rows)])
        assert _shape_failures(bad) == ["root: regularity", "root: edge-count"]
    # the n = 8 graph as a file, the good graph's with the extra edge: it
    # loads, and thln embed stops at its shape check
    doc = graph_to_json_obj(good)
    doc["edges"].append([u, w])
    gpath, fpath = tmp_path / "bad.json", tmp_path / "faults.json"
    gpath.write_text(json.dumps(doc))
    fpath.write_text(FaultSet.empty().to_json())
    assert graph_from_json(gpath.read_text()).adjacency == bad.adjacency
    code = main(["embed", "--graph", str(gpath), "--faults", str(fpath), "-s", "0", "-t", "5"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: graph fails shape check root: regularity")
    # embed itself skips the shape check: it raises a package error or returns
    # a path the validator accepts
    try:
        res = embed(bad, FaultSet.empty(), 0, 5)
    except ThlnError:
        return
    verdict = validate_path(bad, FaultSet.empty(), 0, 5, res.path)
    assert verdict.is_valid and verdict.missed == res.missed


def test_shape_check_rejects_an_upper_row_with_two_neighbours_across_the_cut():
    # moving half-1 node a's cross edge from its partner to w leaves a one
    # neighbour across the cut and w two: w's degree and a's old partner's
    # break the root level
    g = make_preset(VariantSpec.random(1), 4)
    rows = [set(r) for r in g.adjacency]
    mid, a = 8, 3
    a2 = cross_partner(g, a)
    w = next(w for w in range(mid, 16) if w != a2)
    rows[a] -= {a2}
    rows[a2] -= {a}
    rows[a].add(w)
    rows[w].add(a)
    bad = ThlnGraph(4, [_in_level_order(v, r) for v, r in enumerate(rows)])
    assert _shape_failures(bad) == ["root: regularity"]


def test_fault_set_json_roundtrip():
    f = FaultSet.of(nodes=[3, 1], edges=[(5, 2), (0, 7)])
    again = FaultSet.from_json(f.to_json())
    assert again == f
    assert f.to_json() == again.to_json()


@pytest.mark.parametrize("build,message", [
    (lambda: FaultSet.of(edges=[(3, 3)]), "self-loop fault at node 3"),
    (lambda: FaultSet.from_json_obj({"edges": [[1, 2, 3]]}), "must be a pair of integers"),
    (lambda: FaultSet.from_json_obj({"nodes": 5}), "must be lists"),
    (lambda: FaultSet.from_json_obj({"edges": {"1": 2}}), "must be lists"),
])
def test_malformed_fault_sets_are_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_neighbor_condition_needs_distinct_endpoints(graph4):
    with pytest.raises(PreconditionViolated, match="distinct"):
        neighbor_condition(surviving_view(graph4, FaultSet.empty()), 3, 3)


def test_the_empty_path_is_a_path_of_every_view(graph4):
    assert SurvivingView(graph4, FaultSet.of(nodes=[1, 2])).is_path(())


# ----------------------------------------------------------------------
# instance draws: faults over a level, then endpoints


def _elements_by_definition(g, scope):
    """What a draw over ``scope`` (None: the whole graph) picks from: the
    level's nodes ascending, then every link of ``g.edges`` inside it."""
    level = g.nodes if scope is None else scope
    return ([("node", v) for v in level]
            + [("edge", e) for e in g.edges if e[0] in level and e[1] in level])


def _draw_by_definition(elements, count, rng):
    picked = rng.sample(elements, count) if count else []
    return FaultSet.of(nodes=[p for k, p in picked if k == "node"],
                       edges=[p for k, p in picked if k == "edge"])


@pytest.mark.parametrize("kind", ["crossed", "locally-twisted", "mobius0", "mobius1", "random"])
def test_level_draw_matches_the_draw_over_listed_elements(kind):
    # the whole graph, both halves and one dimension-7 block, with no
    # count, one fault, the contract's 2n - 10, one past it, and 40
    for n in range(7, 13):
        for seed in (1, 2, 3):
            g = make_preset(VariantSpec.random(seed) if kind == "random" else VariantSpec(kind), n)
            d = g.decomposition
            for scope in (None, d.half1, d.half2, range(g.num_nodes - 128, g.num_nodes)):
                elements = _elements_by_definition(g, scope)
                for count in (0, 1, 2 * n - 10, 2 * n - 9, 40):
                    rng, ref = random.Random(seed), random.Random(seed)
                    got = sample_faults(g, count, rng, scope)
                    assert got == _draw_by_definition(elements, count, ref), (n, seed, scope, count)
                    assert rng.getstate() == ref.getstate()


def _pair_by_definition(view, rng):
    """The stress trial's redraw: at most 1000 draws, none below two nodes."""
    for _ in range(1000 if len(view) >= 2 else 0):
        s, t = rng.sample(view.nodes, 2)
        if neighbor_condition(view, s, t):
            return s, t
    return None


@pytest.mark.parametrize("alive", [(), (5,)], ids=["no-node", "one-node"])
def test_draw_endpoints_draws_nothing_from_a_view_under_two_nodes(graph4, alive):
    view = surviving_view(graph4, FaultSet.of(nodes=set(graph4.nodes) - set(alive)))
    rng = random.Random(0)
    state = rng.getstate()
    assert draw_endpoints(view, rng) is None
    assert rng.getstate() == state


def test_draw_endpoints_gives_up_after_1000_draws(graph4):
    # two adjacent survivors, each with only the other as neighbour
    u, w = 0, graph4.adjacency[0][0]
    view = surviving_view(graph4, FaultSet.of(nodes=set(graph4.nodes) - {u, w}))
    assert view.neighbors(u) == (w,) and view.neighbors(w) == (u,)
    rng, ref = random.Random(1), random.Random(1)
    assert draw_endpoints(view, rng) is None
    for _ in range(1000):
        ref.sample(view.nodes, 2)
    assert rng.getstate() == ref.getstate()


def test_draw_endpoints_returns_the_pair_the_redraw_loop_draws(graph4):
    seen = set()
    for seed in range(40):
        rng = random.Random(seed)
        keep = rng.sample(range(16), rng.randrange(4, 9))
        view = surviving_view(graph4, FaultSet.of(nodes=set(range(16)) - set(keep)))
        ref, first = random.Random(), random.Random()
        ref.setstate(rng.getstate())
        first.setstate(rng.getstate())
        want = _pair_by_definition(view, ref)
        assert draw_endpoints(view, rng) == want
        assert rng.getstate() == ref.getstate()
        seen.add(want == tuple(first.sample(view.nodes, 2)) if want else None)
    assert seen >= {True, False}  # pairs met at the first draw and after redraws
