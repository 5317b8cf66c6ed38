import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thln import (
    FaultSet,
    FaultyEndpoint,
    ForeignFault,
    MalformedGraph,
    NoDecomposition,
    SurvivingView,
    ThlnGraph,
    VariantSpec,
    cross_partner,
    embed,
    make_base,
    make_preset,
    neighbor_condition,
    partition,
    surviving_view,
)
from thln.faults import partition_decomposition, sample_faults


def test_empty_faults_view_equals_graph(graph4):
    view = surviving_view(graph4, FaultSet.empty())
    assert view.nodes == tuple(graph4.nodes)
    for v in graph4.nodes:
        assert view.neighbors(v) == graph4.neighbors(v)


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
    part = partition(graph4, f)
    assert part.counts == (1, 1, 1)
    assert part.fc_direct == {(x1, x2)}


def test_partition_empty_and_intra_edge(graph4):
    part = partition(graph4, FaultSet.empty())
    assert part.counts == (0, 0, 0) and part.fc_direct == frozenset()
    d = graph4.decomposition
    h1 = set(d.half1)
    edge = next(e for e in graph4.edges if e[0] in h1 and e[1] in h1)
    part = partition(graph4, FaultSet.of(edges=[edge]))
    assert part.counts == (1, 0, 0)
    assert part.fc_direct == frozenset()


def test_partition_needs_decomposition():
    base = make_base(VariantSpec("base3-default"))
    with pytest.raises(NoDecomposition):
        partition(base, FaultSet.empty())


def test_count_identity_and_effective_cross_brute_force():
    # |F| = |F1| + |F2| + |Fc-direct| over many random fault sets
    g = make_preset(VariantSpec.random(11), 5)
    rng = random.Random(0)
    for _ in range(10_000):
        f = sample_faults(g, rng.randrange(0, 9), rng)
        part = partition(g, f)
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

    with pytest.raises(FaultyEndpoint):
        neighbor_condition(starved, others[0], t)


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


@pytest.mark.parametrize("scope", [range(0, 16, 2), range(15, -1, -1)],
                         ids=["step-2", "descending"])
def test_view_scope_must_step_by_one(graph4, scope):
    # read by its start and stop alone, the first scope would give all 16
    # nodes and the second none
    with pytest.raises(ValueError, match="step 1"):
        SurvivingView(graph4, FaultSet.empty(), scope=scope)


def _view_by_definition(g, f, scope):
    """Rows of the surviving view straight from its definition: a neighbour
    is kept when it is alive, in scope and joined by an edge that is not
    faulty; walking the nodes in order keeps every row ascending."""
    alive = [v for v in g.nodes if v not in f.nodes and (scope is None or v in scope)]
    return {
        v: tuple(w for w in alive if g.has_edge(v, w) and (min(v, w), max(v, w)) not in f.edges)
        for v in alive
    }


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_view_rows_match_their_definition(seed):
    rng = random.Random(seed)
    g = make_preset(VariantSpec.random(rng.randrange(4)), rng.choice((4, 5, 6)))
    f = sample_faults(g, rng.randrange(0, 2 * g.dimension + 1), rng)
    d = g.decomposition
    n = g.num_nodes
    # a range that may reach ids outside the graph at either end
    stray = range(rng.randrange(-7, n), rng.randrange(0, n + 6))
    for scope in (None, d.half1, d.half2, stray):
        view = SurvivingView(g, f, scope=scope)
        want = _view_by_definition(g, f, scope)
        assert view.nodes == tuple(want)
        assert {v: view.neighbors(v) for v in view.nodes} == want
        # nodes are left out as node faults over the same scope
        drop = frozenset(rng.sample(view.nodes, min(len(view), 3)))
        fewer = SurvivingView(g, FaultSet(f.nodes | drop, f.edges), scope=scope)
        narrow = frozenset(g.nodes if scope is None else scope) - drop
        want = _view_by_definition(g, f, narrow)
        assert fewer.nodes == tuple(want)
        assert {v: fewer.neighbors(v) for v in fewer.nodes} == want


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_view_over_an_id_range_matches_the_view_over_its_set(seed):
    # a built graph's halves are id ranges, and a view slices its rows to one
    rng = random.Random(seed)
    g = make_preset(VariantSpec.random(rng.randrange(4)), rng.choice((5, 6)))
    f = sample_faults(g, rng.randrange(0, 2 * g.dimension + 1), rng)
    d = g.decomposition
    n = g.num_nodes
    for scope in (d.half1, d.half2, d.child2.half1, range(n - 5, n + 5)):
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
    # the scope by X drops exactly X
    rng = random.Random(seed)
    variant = rng.choice(("random", "crossed", "mobius0", "mobius1", "locally-twisted"))
    spec = VariantSpec.random(rng.randrange(4)) if variant == "random" else VariantSpec(variant)
    g = make_preset(spec, rng.choice((5, 6)))
    f = sample_faults(g, rng.randrange(0, 2 * g.dimension + 1), rng)
    # a cross partner and a cross edge of random levels fail too, so that
    # derived rows lose the entry they would otherwise cut off
    levels = list(_levels(g.decomposition))
    d = rng.choice(levels)
    dead = d.partner(rng.choice((*d.half1, *d.half2)))
    d = rng.choice(levels)
    u = rng.choice(d.half1)
    f = FaultSet.of(nodes=f.nodes | {dead}, edges=f.edges | {(u, d.partner(u))})
    stack = [(g.decomposition, surviving_view(g, f))]
    while stack:
        d, level = stack.pop()
        split = partition_decomposition(d, level.faults)
        derived = level.halves(d.half2.start, split.f1, split.f2)
        for half, own, child, view in zip(
            (d.half1, d.half2), (split.f1, split.f2), (d.child1, d.child2), derived
        ):
            built = SurvivingView(g, own, scope=half)
            assert view.faults == own
            assert view.nodes == built.nodes
            assert _rows(view) == _rows(built) == _rows(SurvivingView(g, f, scope=half))
            x = frozenset(rng.sample(half, rng.randrange(4)))
            narrow = SurvivingView(g, FaultSet(own.nodes | x, own.edges), scope=half)
            assert narrow.node_set == view.node_set - x
            assert _rows(narrow) == {
                v: tuple(w for w in view.neighbors(v) if w not in x) for v in narrow.nodes
            }
            if child is not None:
                stack.append((child, view))


def test_halves_reject_a_row_with_two_neighbours_across_the_cut():
    # a directly built graph may skip the shape check; a half-1 node with a
    # second neighbour in half 2 has no single cross partner to cut off
    for n in (4, 8):
        rows = [set(r) for r in make_preset(VariantSpec.random(1), n).adjacency]
        mid = 1 << (n - 1)
        u = 3
        w = next(w for w in range(mid, 2 * mid) if w not in rows[u])
        rows[u].add(w)
        rows[w].add(u)
        bad = ThlnGraph(n, tuple(map(tuple, rows)))
        f1, f2 = (FaultSet.empty(),) * 2
        with pytest.raises(MalformedGraph, match="two neighbours across the cut"):
            surviving_view(bad, FaultSet.empty()).halves(mid, f1, f2)
    with pytest.raises(MalformedGraph, match="two neighbours across the cut"):
        embed(bad, FaultSet.empty(), 0, 5)  # the n = 8 graph, at its top level


def test_halves_reject_an_upper_row_with_two_neighbours_across_the_cut():
    # moving half-1 node a's cross edge from its partner to w leaves a one
    # neighbour across the cut and w two, so only the half-2 rows trip
    g = make_preset(VariantSpec.random(1), 4)
    rows = [set(r) for r in g.adjacency]
    mid, a = 8, 3
    a2 = cross_partner(g, a)
    w = next(w for w in range(mid, 16) if w != a2)
    rows[a] -= {a2}
    rows[a2] -= {a}
    rows[a].add(w)
    rows[w].add(a)
    bad = ThlnGraph(4, tuple(map(tuple, rows)))
    f1, f2 = (FaultSet.empty(),) * 2
    with pytest.raises(MalformedGraph, match=f"node {w} has two neighbours across the cut"):
        surviving_view(bad, FaultSet.empty()).halves(mid, f1, f2)


def test_fault_set_json_roundtrip():
    f = FaultSet.of(nodes=[3, 1], edges=[(5, 2), (0, 7)])
    again = FaultSet.from_json(f.to_json())
    assert again == f
    assert f.to_json() == again.to_json()
