import dataclasses
import functools
import hashlib
import json
import random

import pytest

from thln import (
    AdjacencyViolated,
    DisjointnessViolated,
    FaultSet,
    ForeignFault,
    InternalContradiction,
    OracleBudgetExhausted,
    PreconditionViolated,
    SearchBudget,
    VariantSpec,
    check_shape,
    embed,
    graph_from_json,
    graph_to_json,
    make_preset,
    neighbor_condition,
    splice,
    surviving_view,
    validate_path,
)
from thln import cli, embedder
from thln.embedder import _Ctx, _Runtime, _canon_cycle, _cut_cycle, _select_restorable_fault
from thln.faults import SurvivingView, draw_endpoints, partition_decomposition, sample_faults
from thln.oracle import SearchStatus, ham_cycle, near_ham_cycle

from conftest import base_graph, cross_partner


def embed_and_check(g, f, s, t, **kw):
    res = embed(g, f, s, t, **kw)
    verdict = validate_path(g, f, s, t, res.path)
    assert verdict.is_valid, verdict.reason
    assert verdict.missed == res.missed
    if res.missed is not None:
        assert res.missed not in (s, t)
    return res


def probe_half1_cycle(g, f1_nodes=(), f1_edges=()):
    """Replicate the cycle the solver will compute for half 1."""
    h1 = range(g.num_nodes // 2)
    hv = SurvivingView(g, FaultSet.of(nodes=f1_nodes, edges=f1_edges), scope=h1)
    out = ham_cycle(hv)
    assert out.found
    return _canon_cycle(out.path)


# ----------------------------------------------------------------------
# whole-instance behavior


def test_dimension7_no_faults_is_hamiltonian():
    g = make_preset(VariantSpec.random(1), 7)
    res = embed_and_check(g, FaultSet.empty(), 3, 99)
    assert res.hamiltonian and len(res.path) == 128
    assert res.trace.labels() == ("base",)


def test_fault_bound_enforced(graph8):
    f = sample_faults(graph8, 7, random.Random(0))  # 2n-9 at n=8
    with pytest.raises(PreconditionViolated):
        embed(graph8, f, 0, 200)


@pytest.mark.parametrize(
    "n,s,t,reason",
    [(6, 0, 5, "embedding needs dimension >= 7, got 6"), (8, 5, 5, "endpoints must be distinct")],
    ids=["dimension-6", "equal-endpoints"],
)
def test_dimension_below_7_and_equal_endpoints_rejected(n, s, t, reason):
    with pytest.raises(PreconditionViolated) as err:
        embed(make_preset(VariantSpec.random(1), n), FaultSet.empty(), s, t)
    assert str(err.value) == reason


def test_faulty_endpoint_rejected(graph8):
    f = FaultSet.of(nodes=[17])
    with pytest.raises(PreconditionViolated):
        embed(graph8, f, 17, 40)


def test_neighbor_condition_rejected_at_n9(graph9):
    s = 12
    t = next(w for w in graph9.neighbors(s))
    others = [w for w in graph9.neighbors(s) if w != t]
    assert len(others) == 8  # exactly the budget 2n-10 at n=9
    f = FaultSet.of(nodes=others)
    with pytest.raises(PreconditionViolated, match="neighbor condition"):
        embed(graph9, f, s, t)


def test_budget_exhaustion_surfaces_with_trace():
    g = make_preset(VariantSpec.random(1), 7)
    with pytest.raises(OracleBudgetExhausted) as err:
        embed(g, FaultSet.empty(), 3, 99, SearchBudget(5))
    assert err.value.trace is not None


def test_embed_is_deterministic(graph8):
    f = sample_faults(graph8, 6, random.Random(5))
    s, t = draw_endpoints(surviving_view(graph8, f), random.Random(6))
    a = embed(graph8, f, s, t)
    b = embed(graph8, f, s, t)
    assert a.path == b.path
    assert a.trace.records == b.trace.records


def test_random_trials_validate_with_consistent_traces(graph8):
    rng = random.Random(11)
    seen = set()
    for _ in range(25):
        f = sample_faults(graph8, rng.randrange(0, 7), rng)
        s, t = draw_endpoints(surviving_view(graph8, f), rng)
        res = embed_and_check(graph8, f, s, t)
        top = res.trace.records[0]
        seen.add(top["case"][0] if top["case"] != "base" else "1")
        # the recorded dispatch must match independently measured quantities
        part_counts = sorted(
            (len(f.restricted(frozenset(range(128)))),
             len(f.restricted(frozenset(range(128, 256))))),
            reverse=True,
        )
        assert top["f1"] == part_counts[0]
        assert top["f2"] == part_counts[1]
        h1 = range(128, 256) if top["swapped"] else range(128)
        half = SurvivingView(graph8, f, scope=h1)
        assert top["delta1"] == half.min_degree_witness()[0]
    assert "1" in seen


def test_near_hamiltonian_never_misses_endpoints(graph9):
    # the half-2 shapes of the reduced-path case force a genuine near cover
    q = 40
    intra = sorted(w for w in graph9.neighbors(q) if w < 256)
    f = FaultSet.of(nodes=[1], edges=[(q, w) for w in intra[:7]])
    res = embed_and_check(graph9, f, 300, 400)
    assert res.missed == q
    assert res.missed not in (300, 400)


# ----------------------------------------------------------------------
# case dispatch fixtures (half 1 is nodes 0..127 at dimension 8)


CASE2_FAULTS = FaultSet.of(nodes=[1, 33, 65, 97, 120, 130])
CASE4_FAULTS = FaultSet.of(nodes=[1, 33, 65, 97, 120, 14])


@pytest.mark.parametrize(
    "s,t,prefix",
    [(5, 77, "2.1"), (140, 200, "2.2"), (5, 200, "2.3")],
)
def test_case2_endpoint_placements(graph8, s, t, prefix):
    res = embed_and_check(graph8, CASE2_FAULTS, s, t)
    assert res.trace.labels()[0].startswith(prefix)


@pytest.mark.parametrize(
    "s,t,prefix",
    [(5, 77, "4.1"), (140, 200, "4.2"), (5, 200, "4.3")],
)
def test_case4_endpoint_placements(graph8, s, t, prefix):
    res = embed_and_check(graph8, CASE4_FAULTS, s, t)
    assert res.trace.labels()[0].startswith(prefix)


def test_case1_lands_when_faults_spread(graph8):
    f = FaultSet.of(nodes=[1, 2, 130, 131], edges=[(5, next(iter(graph8.neighbors(5))),)])
    res = embed_and_check(graph8, f, 9, 99)
    assert res.trace.labels()[0].startswith("1.")


def test_case2_cycle_distance_shapes(graph8):
    c1 = probe_half1_cycle(graph8, f1_nodes=[1, 33, 65, 97, 120])
    outer = [200]  # single fault outside half 1, away from the probes
    base = [1, 33, 65, 97, 120]

    res = embed_and_check(graph8, FaultSet.of(nodes=base + outer), c1[10], c1[11])
    assert res.trace.labels()[0] == "2.1.1"

    res = embed_and_check(graph8, FaultSet.of(nodes=base + outer), c1[10], c1[12])
    assert res.trace.labels()[0] == "2.1.2.1"

    res = embed_and_check(graph8, FaultSet.of(nodes=base + outer), c1[10], c1[20])
    assert res.trace.labels()[0] == "2.1.3"


def test_case2_blocked_middle_yields_near_cover(graph8):
    # cut the skipped node's cross edge: the splice must leave it out
    c1 = probe_half1_cycle(graph8, f1_nodes=[1, 33, 65, 97, 120])
    s, x1, t = c1[10], c1[11], c1[12]
    f = FaultSet.of(nodes=[1, 33, 65, 97, 120], edges=[(x1, cross_partner(graph8, x1))])
    res = embed_and_check(graph8, f, s, t)
    assert res.trace.labels()[0] == "2.1.2.2"
    assert res.missed == x1


def test_case2_blocked_exit_with_partner_endpoint(graph8):
    c1 = probe_half1_cycle(graph8, f1_nodes=[1, 33, 65, 97, 120])
    i = 20
    s, a, b = c1[i], c1[i - 1], c1[i + 1]
    f = FaultSet.of(nodes=[1, 33, 65, 97, 120], edges=[(a, cross_partner(graph8, a))])
    res = embed_and_check(graph8, f, s, cross_partner(graph8, b))
    assert res.trace.labels()[0] == "2.3.2"


def _ctx(g, f, s, t):
    """The top-level working state ``embed`` builds for this instance."""
    rt = _Runtime(graph=g, budget=SearchBudget())
    return _Ctx(rt, surviving_view(g, f), g.decomposition, s, t, 0)


def _case4_path(graph8):
    ctx = _ctx(graph8, CASE4_FAULTS, 5, 77)
    fe = _select_restorable_fault(ctx)
    return _cut_cycle(ctx, ctx.cycle_h1(near=False, restore=fe)[0], fe)


@pytest.mark.parametrize(
    "pick,label",
    [
        (lambda p, g: (p[40], p[41]), "4.1.1"),
        (lambda p, g: (p[40], p[42]), "4.1.2"),
        (lambda p, g: (cross_partner(g, p[0]),
                       next(v for v in range(128, 256)
                            if v not in (cross_partner(g, p[0]), cross_partner(g, p[-1])))),
         "4.2.2"),
        (lambda p, g: (cross_partner(g, p[0]), cross_partner(g, p[-1])), "4.2.3"),
        (lambda p, g: (p[40], cross_partner(g, p[-1])), "4.3.2"),
        (lambda p, g: (p[0], cross_partner(g, p[0])), "4.3.3"),
        (lambda p, g: (p[1], cross_partner(g, p[0])), "4.3.3.1"),
        (lambda p, g: (p[5], cross_partner(g, p[0])), "4.3.3.2"),
    ],
)
def test_case4_splice_shapes(graph8, pick, label):
    p1 = _case4_path(graph8)
    s, t = pick(p1, graph8)
    res = embed_and_check(graph8, CASE4_FAULTS, s, t)
    assert res.trace.labels()[0] == label


def _cut_cross_edge(g, v):
    return FaultSet.of(nodes=[1, 33, 65, 97, 120], edges=[(v, cross_partner(g, v))])


@pytest.mark.parametrize(
    "build,label,shape",
    [
        # y1 lost its cross edge, so the short side is bypassed through z1:
        # the path leaves s for x1 and crosses there
        (lambda g, c, p: (_cut_cross_edge(g, c[13]), c[10], c[12],
                          (c[10], c[11], cross_partner(g, c[11]))),
         "2.1.2.1", "d2-direct"),
        # u1 lost its cross edge, so the detour runs through the pair (x1, y1):
        # the path walks forward to y1 and crosses there
        (lambda g, c, p: (_cut_cross_edge(g, c[11]), c[10], c[20],
                          tuple(c[10:20]) + (cross_partner(g, c[19]),)),
         "2.1.3", "d3"),
        # t is the partner of the node after s on the case-4 path
        (lambda g, c, p: (CASE4_FAULTS, p[40], cross_partner(g, p[41]), ()),
         "4.3.2", "wend"),
    ],
    ids=["d2-direct-z1", "d3-x1-y1", "wend"],
)
def test_second_choice_constructions(graph8, build, label, shape):
    c1 = probe_half1_cycle(graph8, f1_nodes=[1, 33, 65, 97, 120])
    f, s, t, head = build(graph8, c1, _case4_path(graph8))
    res = embed_and_check(graph8, f, s, t)
    assert res.trace.labels()[0] == label
    assert res.trace.records[0]["shape"] == shape
    assert res.path[: len(head)] == head


#: node 0 keeps only its half-1 edges to 1 and 2, and (0, 4), the lowest
#: fault, is the one repaired: the case-4 path starts 0, 1, 3, 2
CASE4_DEGREE2_END = FaultSet.of(edges=[(0, 4), (0, 14), (0, 28), (0, 45), (0, 90), (126, 127)])


def test_case4_split_pair_at_a_degree_two_path_end(graph8):
    # s sits next to the path's near end 0 and t is that end's partner; 0's
    # other on-path neighbour is at position 3, so the path leaves s for 0,
    # 2 and 3 before it crosses
    t = cross_partner(graph8, 0)
    ctx = _ctx(graph8, CASE4_DEGREE2_END, 1, t)
    fe = _select_restorable_fault(ctx)
    p1 = _cut_cycle(ctx, ctx.cycle_h1(near=False, restore=fe)[0], fe)
    assert ctx.h1_view.neighbors(0) == (1, 2) and p1[:4] == (0, 1, 3, 2)
    res = embed_and_check(graph8, CASE4_DEGREE2_END, 1, t)
    assert res.trace.top_case() == "4.3.3.1"
    assert res.trace.records[0]["shape"] == "uend-1z"
    assert res.path[:4] == (1, 0, 2, 3)


#: a 3-regular base whose nodes 0, 1 and 2 form a triangle
TRIANGLE_BASE = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5), (3, 6), (3, 7), (4, 6),
                 (4, 7), (5, 6), (5, 7)]
#: node 0 keeps only its half-1 edges to 1 and 2, which are adjacent, so the
#: case-4 path's end 0 has a chord to the node two along
CASE4_CHORD_FAULTS = FaultSet.of(edges=[(0, 3), (0, 12), (0, 26), (0, 60), (0, 121), (112, 113)])


def _triangle_graph8(join):
    """``TRIANGLE_BASE`` joined up to dimension 8, each level's matching one
    shuffle from a single seeded generator, lowest level first. No preset
    holds a triangle, so only such a graph reaches the ``uend-1chord`` shape."""
    g = base_graph(TRIANGLE_BASE)
    rng = random.Random(0)
    for d in range(3, 8):
        m = list(range(1 << d))
        rng.shuffle(m)
        g = join(g, g, dict(enumerate(m)))
    return g


def test_case4_chord_at_the_path_end_survives_a_file_round_trip(join):
    g = _triangle_graph8(join)
    assert check_shape(g).ok
    loaded = graph_from_json(graph_to_json(g))
    a, b = (embed_and_check(x, CASE4_CHORD_FAULTS, 2, 129) for x in (g, loaded))
    assert a.hamiltonian and len(a.path) == 256
    assert a.to_json_obj() == b.to_json_obj()


def _case5_path(graph9, f5):
    """The cut path of ``case5_setup``: node 1, its first fault, repaired and
    cut out of the near-covering cycle."""
    ctx = _ctx(graph9, f5, 7, 99)
    return _cut_cycle(ctx, ctx.cycle_h1(near=True, restore=1)[0], 1)


def test_case4_restored_node_cut_ends_at_its_cycle_neighbors(graph8):
    p1 = _case4_path(graph8)
    # the first canonical fault is node 1 and it is restored then cut out
    assert 1 not in p1
    assert len(p1) == 122  # 128 nodes minus 6 node faults
    for a, b in zip(p1, p1[1:]):
        assert graph8.has_edge(a, b)


# ----------------------------------------------------------------------
# reduced-degree cases end to end (dimension 9)


@pytest.fixture(scope="module")
def case3_setup(graph9):
    q = 40
    intra = sorted(w for w in graph9.neighbors(q) if w < 256)
    f = FaultSet.of(edges=[(q, w) for w in intra[:7]])
    return q, f


def test_case3_dispatch_reached(graph9, case3_setup):
    q, f = case3_setup
    half = SurvivingView(graph9, f, scope=range(256))
    assert half.min_degree_witness() == (1, q)


@pytest.mark.parametrize(
    "pick,label,expect_missed",
    [
        (lambda q: (7, 99), "3.1.1", True),
        (lambda q: (7, q), "3.1.2", False),
        (lambda q: (300, 400), "3.2", True),
        (lambda q: (7, 400), "3.3.1", True),
        (lambda q: (q, 400), "3.3.2", False),
    ],
)
def test_case3_endpoint_matrix(graph9, case3_setup, pick, label, expect_missed):
    q, f = case3_setup
    s, t = pick(q)
    res = embed_and_check(graph9, f, s, t)
    assert res.trace.labels()[0].startswith(label)
    assert (res.missed == q) == expect_missed


def test_case3_agents_when_cross_partner_is_blocked(graph9, case3_setup):
    q, f = case3_setup
    blocked = FaultSet.of(edges=sorted(f.edges) + [(q, cross_partner(graph9, q))])
    res = embed_and_check(graph9, blocked, 7, q)
    assert res.trace.labels()[0] == "3.1.2"
    assert res.hamiltonian
    res = embed_and_check(graph9, blocked, q, 400)
    assert res.trace.labels()[0] == "3.3.2"
    assert res.hamiltonian


def test_case3_blocked_middle_reattaches(graph9, case3_setup):
    q, f = case3_setup
    hv = SurvivingView(graph9, f, scope=range(256))
    out = near_ham_cycle(hv)
    assert out.found and out.missed == q
    c1 = _canon_cycle(out.path)
    s, x1, t = c1[10], c1[11], c1[12]
    blocked = FaultSet.of(edges=sorted(f.edges) + [(x1, cross_partner(graph9, x1))])
    res = embed_and_check(graph9, blocked, s, t)
    assert res.trace.labels()[0] == "3.1.1.2"
    assert res.missed == q  # the skipped node is pulled back in; only q stays out


@pytest.fixture(scope="module")
def case5_setup(graph9):
    q = 40
    intra = sorted(w for w in graph9.neighbors(q) if w < 256)
    # node 1 sorts first among the faults, so its repair cannot fix q
    return q, FaultSet.of(nodes=[1], edges=[(q, w) for w in intra[:7]])


@pytest.mark.parametrize(
    "pick,label,expect_missed",
    [
        (lambda q: (7, 99), "5.1.1", True),
        (lambda q: (7, q), "5.1.2", False),
        (lambda q: (300, 400), "5.2", True),
        (lambda q: (7, 400), "5.3.1", True),
        (lambda q: (q, 400), "5.3.2", False),
    ],
)
def test_case5_endpoint_matrix(graph9, case5_setup, pick, label, expect_missed):
    q, f = case5_setup
    s, t = pick(q)
    res = embed_and_check(graph9, f, s, t)
    assert res.trace.labels()[0].startswith(label)
    assert (res.missed == q) == expect_missed


def test_case5_degenerates_to_full_cover_at_n8(graph8):
    # at dimension 8 every half-1 fault sits next to the starved node, so
    # repairing any one of them restores minimum degree two
    q = 20
    intra = [w for w in graph8.neighbors(q) if w < 128]
    f = FaultSet.of(edges=[(q, w) for w in intra[:6]])
    res = embed_and_check(graph8, f, 5, 77)
    assert res.trace.labels()[0].startswith("5.1")
    assert res.hamiltonian


def test_starved_endpoint_routed_through_cross_edge_at_n10():
    g = make_preset(VariantSpec.random(5), 10)
    t_node = 70
    nbrs = [w for w in g.neighbors(t_node) if w < 512]
    s_node = nbrs[0]
    f = FaultSet.of(nodes=[w for w in nbrs if w != s_node])
    assert len(f) == 8  # 2k-10 at the dimension-10 dispatch
    res = embed_and_check(g, f, s_node, t_node)
    assert res.trace.labels()[0] == "1.1.2"
    assert res.hamiltonian


@pytest.fixture(scope="module")
def swap_instances(graph9, case3_setup, case5_setup):
    """name -> (graph, faults, s, t) for the shapes whose construction starts
    from one fixed endpoint, whichever of s and t that is."""
    q, f3 = case3_setup
    f5 = case5_setup[1]
    f3_cut = FaultSet.of(edges=sorted(f3.edges) + [(q, cross_partner(graph9, q))])
    g10 = make_preset(VariantSpec.random(5), 10)
    nbrs = [w for w in g10.neighbors(70) if w < 512]
    out = {
        "1.1.2": (g10, FaultSet.of(nodes=nbrs[1:]), nbrs[0], 70),
        "3.1.2": (graph9, f3, 7, q),
        "3.3.1": (graph9, f3, 7, 400),
        "3.3.2": (graph9, f3, q, 400),
        "3.1.2-agent": (graph9, f3_cut, 7, q),
        "3.3.2-agent": (graph9, f3_cut, q, 400),
        "5.1.1": (graph9, f5, 7, 99),
        "5.1.2": (graph9, f5, 7, q),
        "5.3.1": (graph9, f5, 7, 400),
        "5.3.2": (graph9, f5, q, 400),
    }
    # t is the partner of one end of the case-5 path, so half 2 is covered
    # from the other end's partner
    for i, end in enumerate(embed(graph9, f5, 300, 400).trace.records[0]["ends"]):
        out[f"5.2-one-end-{i}"] = (graph9, f5, 300, cross_partner(graph9, end))
    return out


@pytest.mark.parametrize(
    "name",
    ["1.1.2", "3.1.2", "3.3.1", "3.3.2", "3.1.2-agent", "3.3.2-agent",
     "5.1.1", "5.1.2", "5.3.1", "5.3.2", "5.2-one-end-0", "5.2-one-end-1"],
)
def test_swapped_endpoints_give_the_reversed_path(swap_instances, name):
    g, f, s, t = swap_instances[name]
    fwd, back = embed_and_check(g, f, s, t), embed_and_check(g, f, t, s)
    assert fwd.trace.top_case() == name.split("-")[0]
    if name.startswith("5.2"):
        assert fwd.trace.records[0]["shape"] == "one-end"
    assert back.path == fwd.path[::-1]
    assert back.trace.labels() == fwd.trace.labels()
    # the top level's `flipped`, where it records one, is the only field
    # of the trace that moves
    top_fwd, top_back = dict(fwd.trace.records[0]), dict(back.trace.records[0])
    if "flipped" in top_fwd:
        assert top_back.pop("flipped") is not top_fwd.pop("flipped")
    assert top_back == top_fwd
    assert back.trace.records[1:] == fwd.trace.records[1:]


# ----------------------------------------------------------------------
# half 2 by recursion


def uniform_instance(g, seed):
    """2n-10 uniform faults and endpoints drawn as ``thln stress`` draws them."""
    rng = random.Random(seed)
    f = sample_faults(g, 2 * g.dimension - 10, rng)
    s, t = draw_endpoints(surviving_view(g, f), rng)
    return f, s, t


def levels_of(res):
    return [r for r in res.trace.records if "case" in r]


def test_case1_chain_at_n10_searches_only_dimension7_views():
    g = make_preset(VariantSpec.random(0), 10)
    res = embed_and_check(g, *uniform_instance(g, 0))
    assert all(r["case"] == "base" or r["case"].startswith("1.") for r in levels_of(res))
    searches = [r for r in res.trace.records if "service" in r]
    # no search runs on a 256- or 512-node half: half 2 recursed as well
    assert len(searches) == 8
    assert all(r["service"] == "ham_path" and r["dim"] == 7 for r in searches)


def test_level_tree_rebuilds_from_the_trace_at_n10():
    g = make_preset(VariantSpec.random(0), 10)
    res = embed_and_check(g, *uniform_instance(g, 0))
    levels = levels_of(res)
    assert [r["id"] for r in levels] == list(range(len(levels)))
    by_id = {r["id"]: r for r in levels}
    children = {r["id"]: {} for r in levels}
    for r in levels[1:]:
        parent = by_id[r["parent"]]
        assert parent["id"] < r["id"] and r["dim"] == parent["dim"] - 1
        assert r["half"] not in children[parent["id"]]
        children[parent["id"]][r["half"]] = r["id"]
    root = levels[0]
    assert root["parent"] is None and root["half"] is None
    assert res.trace.top_case() == res.trace.labels()[0] == root["case"]
    # both halves recurse above dimension 8; at 8 half 2 is one search
    expected = {10: {1, 2}, 9: {1, 2}, 8: {1}, 7: set()}
    assert all(set(children[r["id"]]) == expected[r["dim"]] for r in levels)
    assert [r["dim"] for r in levels].count(7) == 4
    # one search per level at the bottom: a base level searches itself, a
    # dimension-8 level its half 2
    searches = [r for r in res.trace.records if "service" in r]
    assert sorted(r["level"] for r in searches) == [r["id"] for r in levels if r["dim"] <= 8]
    assert all((by_id[r["level"]]["dim"], r["half"]) in ((7, 0), (8, 2)) for r in searches)


def test_half2_falls_back_to_search_when_the_recursion_is_one_short(monkeypatch):
    real = embedder._solve_level

    def one_short_on_half2(rt, view, decomp, s, t, parent=None, half=None):
        path, missed = real(rt, view, decomp, s, t, parent, half)
        return (path, path[1]) if half == 2 else (path, missed)

    monkeypatch.setattr(embedder, "_solve_level", one_short_on_half2)
    g = make_preset(VariantSpec.random(0), 9)
    res = embed_and_check(g, *uniform_instance(g, 0))
    fallbacks = [r for r in res.trace.records if r.get("fallback")]
    assert len(fallbacks) == 1
    (fb,) = fallbacks
    assert fb["service"] == "ham_path" and fb["half"] == 2 and fb["dim"] == 8
    half2 = [r for r in levels_of(res) if r["half"] == 2 and r["parent"] == fb["level"]]
    assert len(half2) == 1


@pytest.mark.parametrize("n", [9, 10])
@pytest.mark.parametrize(
    "spec",
    [VariantSpec("crossed"), VariantSpec("mobius0"), VariantSpec("mobius1"),
     VariantSpec("locally-twisted")],
    ids=lambda spec: spec.kind,
)
def test_named_variants_validate_with_half2_recursion(spec, n):
    g = make_preset(spec, n)
    for seed in range(2):
        res = embed_and_check(g, *uniform_instance(g, seed))
        assert any(r["half"] == 2 for r in levels_of(res))


# ----------------------------------------------------------------------
# splice and cross-edge selection


def test_splice_basic(graph4):
    a = 0
    b = graph4.neighbors(a)[0]
    c = next(w for w in graph4.neighbors(b) if w != a)
    d = next(w for w in graph4.neighbors(c) if w not in (a, b))
    assert splice([(a, b), (c, d)]) == (a, b, c, d)


def test_splice_only_concatenates_and_rejects_empty_segments():
    # overlaps and non-edges at a junction pass here: ``embed`` checks the
    # finished path's nodes and steps once (see the mutant levels below)
    assert splice([(0, 1), (1, 0), (9,)]) == (0, 1, 1, 0, 9)
    assert splice(iter([[4], (5, 6)])) == (4, 5, 6)
    with pytest.raises(AdjacencyViolated, match="empty segment"):
        splice([(0, 1), ()])


def test_a_bad_step_made_below_the_root_is_caught(graph9, monkeypatch):
    # the first search of this instance is the dimension-7 base search two
    # levels down (case 1.1.1 at dimensions 9 and 8); it returns its path with
    # two interior nodes swapped, so the node set and the endpoints still
    # pass that level's checks but one step is not an edge
    s, t = 0, 5  # both inside half 1 of half 1
    calls = []
    search = embedder.oracle.ham_path

    def corrupted(view, a, b, budget=None):
        out = search(view, a, b, budget)
        calls.append(len(view))
        if len(calls) > 1:
            return out
        p = list(out.path)
        j = next(j for j in range(3, len(p) - 1) if not view.has_edge(p[0], p[j]))
        p[1], p[j] = p[j], p[1]
        return dataclasses.replace(out, path=tuple(p))

    monkeypatch.setattr(embedder.oracle, "ham_path", corrupted)
    with pytest.raises(AdjacencyViolated):
        embed(graph9, FaultSet.empty(), s, t)
    assert calls[0] == 128


def _repeat(path, j, partner):
    """``path`` with its node at j replaced by the one two before it, so the
    step into the copy is still an edge."""
    return path[:j] + (path[j - 2],) + path[j + 1 :]


def _foreign(path, j, partner):
    """``path`` with its node at j replaced by its cross partner, a node of
    the other half of the calling level."""
    return path[:j] + (partner(path[j]),) + path[j + 1 :]


def _two_short(path, j, partner):
    return path[:j] + path[j + 2 :]


@pytest.mark.parametrize(
    "mutate, raised",
    [(_repeat, DisjointnessViolated),
     (_foreign, (DisjointnessViolated, AdjacencyViolated, InternalContradiction)),
     (_two_short, InternalContradiction)],
    ids=["repeated-node", "other-half-node", "two-short"],
)
def test_a_bad_path_returned_below_the_root_is_caught(graph9, monkeypatch, mutate, raised):
    # levels check only their ends and length, and the root checks the
    # nodes and steps once: the first dimension-7 level (case 1.1.1 at
    # dimensions 9 and 8 above it, so its path keeps its orientation in the
    # result) hands its caller a corrupted path
    real = embedder._solve_level
    mutated = []

    def mutant(rt, view, decomp, s, t, parent=None, half=None):
        path, missed = real(rt, view, decomp, s, t, parent, half)
        if decomp.dim == 7 and not mutated:
            mutated.append(parent)
            # the caller covers half 1 of the root; its matching pairs the halves
            path = mutate(path, 4, graph9.decomposition.child1.partner)
        return path, missed

    monkeypatch.setattr(embedder, "_solve_level", mutant)
    with pytest.raises(raised):
        embed(graph9, FaultSet.empty(), 0, 5)
    assert mutated and mutated[0] is not None


def test_a_faulty_node_on_the_finished_path_is_caught_at_its_position(graph8, monkeypatch):
    # the root level hands back its path with node 10 replaced by the faulty
    # node 1, which no level has visited: the root check names it and where
    real = embedder._solve_level

    def mutant(rt, view, decomp, s, t, parent=None, half=None):
        path, missed = real(rt, view, decomp, s, t, parent, half)
        return (path[:10] + (1,) + path[11:] if parent is None else path), missed

    monkeypatch.setattr(embedder, "_solve_level", mutant)
    with pytest.raises(InternalContradiction) as err:
        embed(graph8, FaultSet.of(nodes=[1]), 5, 200)
    assert (err.value.fault.nodes, err.value.fault.position) == ((1,), 10)
    assert str(err.value) == "node 1 at position 10 is not a surviving node"


def test_the_root_check_names_each_fault_at_its_position(graph8, monkeypatch):
    # embed's one pass over the finished path only decides, and a walk names
    # the first fault when it fails. The root level hands back a fault-free
    # covering path, mutated: a step over a faulty edge between two live
    # nodes passes the graph rows and fails only through its first node's
    # touched row; a repeated node and ids outside the view fail earlier
    s, t = 5, 200
    clean = embed(graph8, FaultSet.empty(), s, t).path
    a, b = clean[10], clean[11]
    cases = [
        (FaultSet.of(edges=[(a, b)]), clean, AdjacencyViolated, (a, b), 10),
        (FaultSet.empty(), clean[:7] + (clean[5],) + clean[8:], DisjointnessViolated,
         (clean[5],), 7),
        (FaultSet.empty(), clean[:12] + (256,) + clean[13:], InternalContradiction, (256,), 12),
        (FaultSet.empty(), clean[:12] + (-1,) + clean[13:], InternalContradiction, (-1,), 12),
    ]
    real = embedder._solve_level
    for f, path, raised, nodes, position in cases:
        def mutant(rt, view, decomp, s, t, parent=None, half=None, path=path):
            out = real(rt, view, decomp, s, t, parent, half)
            return (path, None) if parent is None else out

        monkeypatch.setattr(embedder, "_solve_level", mutant)
        with pytest.raises(raised) as err:
            embed(graph8, f, s, t)
        assert (err.value.fault.nodes, err.value.fault.position) == (nodes, position)


def test_a_search_proving_a_guaranteed_answer_absent_is_a_contradiction(graph8, monkeypatch):
    # the first search, the dimension-7 base search of half 1, claims that
    # its covering path does not exist
    search = embedder.oracle.ham_path

    def absent(view, a, b, budget=None):
        out = search(view, a, b, budget)
        return dataclasses.replace(out, status=SearchStatus.PROVEN_ABSENT, path=None)

    monkeypatch.setattr(embedder.oracle, "ham_path", absent)
    with pytest.raises(InternalContradiction) as err:
        embed(graph8, FaultSet.of(nodes=[1]), 5, 200)
    assert str(err.value) == "base covering path at dimension 7 was guaranteed but proven absent"


@pytest.mark.parametrize("faults", [
    lambda g: FaultSet.of(nodes=[1, g.num_nodes]),
    lambda g: FaultSet.of(edges=[(0, next(w for w in g.nodes if w and not g.has_edge(0, w)))]),
], ids=["node-past-the-end", "non-edge"])
def test_a_foreign_fault_stops_at_the_root_view(graph8, monkeypatch, faults):
    # the root view is the one check that the faults belong to the graph:
    # each half's view takes its share of them unchecked, so a foreign fault
    # must stop before the first level starts
    real = embedder._solve_level
    levels = []

    def spy(*args):
        levels.append(args)
        return real(*args)

    monkeypatch.setattr(embedder, "_solve_level", spy)
    with pytest.raises(ForeignFault):
        embed(graph8, faults(graph8), 5, 200)
    assert not levels
    embed(graph8, FaultSet.of(nodes=[1]), 5, 200)
    assert levels


def test_select_cross_edge_first_pair(graph8):
    ctx = _ctx(graph8, FaultSet.empty(), 5, 77)
    path = tuple(range(10))  # nodes 0..9 need not be a real path for selection
    assert ctx.first_cross_pair(path) == 0
    blocked = _ctx(graph8, FaultSet.of(nodes=[ctx.partner(1)]), 5, 77)
    assert blocked.first_cross_pair(path) == 2


def test_select_cross_edge_candidate_floor(graph8):
    # with at most 6 blocked partners, a 122-node path keeps a usable pair:
    # 2^7 - (2*7 - 8) = 122 live cross edges at dimension 8
    f = sample_faults(graph8, 6, random.Random(2))
    view = surviving_view(graph8, f)
    partner = graph8.decomposition.partner
    live = sum(1 for u in range(128) if view.has_edge(u, partner(u)))
    assert live >= 2 ** 7 - (2 * 7 - 8)


def test_select_cross_edge_no_candidate(graph8):
    partner = graph8.decomposition.partner
    u = 0
    f = FaultSet.of(edges=[(u, partner(u)), (1, partner(1))])
    with pytest.raises(InternalContradiction, match="no usable cross pair"):
        _ctx(graph8, f, 5, 77).first_cross_pair((0, 1))


def test_degree_floor_arithmetic():
    # with a single starved node soaking k-1 faults, every other node keeps
    # degree k - (f1 - (k - 1)); the two reduced-degree dispatches rely on
    # floors of 8 and 7 at k = 9
    k = 9
    assert k - ((2 * k - 9) - (k - 1)) == 8
    assert k - ((2 * k - 8) - (k - 1)) == 7
    # candidate count on a covering path at k = 7
    assert 2 ** 7 - 2 * 7 + 8 == 122



# ----------------------------------------------------------------------
# pinned results


def _split_instance(case, seed):
    """Seeded n = 10 instance for top case ``case`` (1-5) with s in half 2
    and t in half 1, the half with more faults, so the top level solves the
    pair from t. Case 1 draws 2n - 10 uniform faults; cases 2-5 put 2k - 9
    (cases 2, 3) or 2k - 8 (cases 4, 5) faults inside the top half 1, and in
    cases 3 and 5 k - 1 of them starve one node down to one in-half edge."""
    g = make_preset(VariantSpec.random(seed), 10)
    d = g.decomposition
    rng = random.Random(100 * case + seed)
    count = {1: 10, 2: 9, 3: 9, 4: 10, 5: 10}[case]
    if case in (1, 2, 4):
        f = sample_faults(g, count, rng, None if case == 1 else d.half1)
    else:
        h1 = d.half1_set
        elements = [("node", v) for v in d.half1]
        elements += [("edge", e) for e in g.edges if e[0] in h1 and e[1] in h1]
        q = rng.choice(d.half1)
        intra = [w for w in g.neighbors(q) if w in h1]
        cut = [(q, w) for w in intra[:-1]]
        elements = [
            x for x in elements
            if x not in (("node", q), ("node", intra[-1]))
            and not (x[0] == "edge" and q in x[1])
        ]
        picked = rng.sample(elements, count - len(cut))
        f = FaultSet.of(
            nodes=[p for kind, p in picked if kind == "node"],
            edges=[p for kind, p in picked if kind == "edge"] + cut,
        )
    heavy = d.half1
    if len(f.restricted(d.half2)) > len(f.restricted(d.half1)):
        heavy = d.half2
    view = surviving_view(g, f)
    while True:
        s, t = rng.sample(view.nodes, 2)
        if s not in heavy and t in heavy and neighbor_condition(view, s, t):
            return g, f, s, t


@pytest.fixture(scope="module")
def pinned_instances(graph8, graph9, join):
    """name -> the (graph, faults, s, t) instances of every hand-built
    fixture above, and seeded n = 10 split pairs solved from t."""
    g8, g9 = graph8, graph9
    cp8 = functools.partial(cross_partner, g8)
    base = [1, 33, 65, 97, 120]
    c1 = probe_half1_cycle(g8, f1_nodes=base)
    p4 = _case4_path(g8)
    outer = FaultSet.of(nodes=base + [200])
    q = 40
    f3 = FaultSet.of(edges=[(q, w) for w in sorted(w for w in g9.neighbors(q) if w < 256)[:7]])
    f3_cut = FaultSet.of(edges=sorted(f3.edges) + [(q, cross_partner(g9, q))])
    f5 = FaultSet.of(nodes=[1], edges=f3.edges)
    cp9 = functools.partial(cross_partner, g9)
    c3 = _canon_cycle(near_ham_cycle(SurvivingView(g9, f3, scope=range(256))).path)
    f3_mid = FaultSet.of(edges=sorted(f3.edges) + [(c3[11], cp9(c3[11]))])
    f3_exit = FaultSet.of(edges=sorted(f3.edges) + [(c3[19], cp9(c3[19]))])
    p5 = _case5_path(g9, f5)
    h2_end = next(v for v in range(128, 256) if v not in (cp8(p4[0]), cp8(p4[-1])))
    f6 = sample_faults(g8, 6, random.Random(5))
    s6, t6 = draw_endpoints(surviving_view(g8, f6), random.Random(6))
    one = {
        "base-n7": (make_preset(VariantSpec.random(1), 7), FaultSet.empty(), 3, 99),
        "deterministic-n8": (g8, f6, s6, t6),
        "2.1": (g8, CASE2_FAULTS, 5, 77),
        "2.2": (g8, CASE2_FAULTS, 140, 200),
        "2.3": (g8, CASE2_FAULTS, 5, 200),
        "4.1": (g8, CASE4_FAULTS, 5, 77),
        "4.2": (g8, CASE4_FAULTS, 140, 200),
        "4.3": (g8, CASE4_FAULTS, 5, 200),
        "1-spread": (g8, FaultSet.of(nodes=[1, 2, 130, 131], edges=[(5, g8.neighbors(5)[0])]), 9, 99),
        "2.1.1": (g8, outer, c1[10], c1[11]),
        "2.1.2.1": (g8, outer, c1[10], c1[12]),
        "2.1.3": (g8, outer, c1[10], c1[20]),
        "2.1.2.2": (g8, _cut_cross_edge(g8, c1[11]), c1[10], c1[12]),
        "2.3.2": (g8, _cut_cross_edge(g8, c1[19]), c1[20], cp8(c1[21])),
        "4.1.1": (g8, CASE4_FAULTS, p4[40], p4[41]),
        "4.1.2": (g8, CASE4_FAULTS, p4[40], p4[42]),
        # two apart at the far end of the path, so it is read from the other end
        "4.1.2-far-end": (g8, CASE4_FAULTS, p4[-3], p4[-1]),
        "4.2.2": (g8, CASE4_FAULTS, cp8(p4[0]), h2_end),
        "4.2.3": (g8, CASE4_FAULTS, cp8(p4[0]), cp8(p4[-1])),
        "4.3.2-vend": (g8, CASE4_FAULTS, p4[40], cp8(p4[-1])),
        "4.3.2-wend": (g8, CASE4_FAULTS, p4[40], cp8(p4[41])),
        "4.3.3": (g8, CASE4_FAULTS, p4[0], cp8(p4[0])),
        "4.3.3.1": (g8, CASE4_FAULTS, p4[1], cp8(p4[0])),
        "4.3.3.2": (g8, CASE4_FAULTS, p4[5], cp8(p4[0])),
        "4.3.3.1-z": (g8, CASE4_DEGREE2_END, 1, cp8(0)),
        "4.3.3.1-uend-1chord": (_triangle_graph8(join), CASE4_CHORD_FAULTS, 2, 129),
        "2.1.2.1-z1": (g8, _cut_cross_edge(g8, c1[13]), c1[10], c1[12]),
        "2.1.3-x1-y1": (g8, _cut_cross_edge(g8, c1[11]), c1[10], c1[20]),
        "3.1.1": (g9, f3, 7, 99),
        "3.1.2": (g9, f3, 7, q),
        "3.2": (g9, f3, 300, 400),
        "3.3.1": (g9, f3, 7, 400),
        "3.3.2": (g9, f3, q, 400),
        "3.1.2-agent": (g9, f3_cut, 7, q),
        "3.3.2-agent": (g9, f3_cut, q, 400),
        "3.1.1.2": (g9, f3_mid, c3[10], c3[12]),
        "3.1.1.1-d1": (g9, f3, c3[10], c3[11]),
        "3.1.1.2-d2-direct": (g9, f3, c3[10], c3[12]),
        "3.3.1-blocked": (g9, f3_exit, c3[20], cp9(c3[21])),
        "5.1.1": (g9, f5, 7, 99),
        "5.1.2": (g9, f5, 7, q),
        "5.2": (g9, f5, 300, 400),
        "5.3.1": (g9, f5, 7, 400),
        "5.3.2": (g9, f5, q, 400),
        "5.1.1-d1": (g9, f5, p5[40], p5[41]),
        "5.1.1-d2": (g9, f5, p5[40], p5[42]),
        "5.2-both-ends": (g9, f5, cp9(p5[0]), cp9(p5[-1])),
        "5.3.1-vend": (g9, f5, p5[40], cp9(p5[-1])),
        "5.3.1-wend": (g9, f5, p5[40], cp9(p5[41])),
        "5.3.1-uend-0": (g9, f5, p5[0], cp9(p5[0])),
        "5.3.1.1-uend-1": (g9, f5, p5[1], cp9(p5[0])),
        "5.3.1.2-uend-2": (g9, f5, p5[5], cp9(p5[0])),
        "5.1-n8": (g8, FaultSet.of(edges=[(20, w) for w in g8.neighbors(20) if w < 128][:6]), 5, 77),
    }
    g = make_preset(VariantSpec.random(5), 10)
    nbrs = [w for w in g.neighbors(70) if w < 512]
    one["1.1.2-n10"] = (g, FaultSet.of(nodes=nbrs[1:]), nbrs[0], 70)
    g = make_preset(VariantSpec.random(0), 10)
    one["chain-n10"] = (g, *uniform_instance(g, 0))
    for spec in (VariantSpec("crossed"), VariantSpec("mobius0"), VariantSpec("mobius1"),
                 VariantSpec("locally-twisted")):
        for n in (9, 10):
            g = make_preset(spec, n)
            for seed in range(2):
                one[f"{spec.kind}-n{n}-{seed}"] = (g, *uniform_instance(g, seed))
    for case in range(1, 6):
        for seed in (1, 2):
            one[f"split-n10-case{case}-{seed}"] = _split_instance(case, seed)
    out = {name: [inst] for name, inst in one.items()}
    # case-5 split pairs at the starved end of the cut half-1 path: s is the
    # path's second node and t the starved node's partner, the starved node's
    # only neighbours (34 at n = 8, 28 at n = 9), so the path leaves it out
    out["5.3.1.1-uend-1miss"] = [
        (make_preset(VariantSpec.random(7), 8),
         FaultSet.of(nodes=[21, 32, 35, 43, 59], edges=[(34, 99)]), 38, 149),
        (make_preset(VariantSpec.random(3), 9),
         FaultSet.of(nodes=[22, 194],
                     edges=[(11, 28), (24, 28), (28, 30), (28, 45), (28, 120), (146, 150)]),
         29, 422),
    ]
    # case 3, the starved node q = 68 and its cross partner as the endpoints,
    # in both orders: q's stand-in is its other neighbour, not the partner
    g = make_preset(VariantSpec.random(1), 9)
    f = FaultSet.of(nodes=[20, 69, 70, 103, 167, 455], edges=[(68, 79), (68, 94)])
    out["3.3.2-partner-end"] = [(g, f, 68, 449), (g, f, 449, 68)]
    rng = random.Random(11)
    trials = []
    for _ in range(25):
        f = sample_faults(g8, rng.randrange(0, 7), rng)
        s, t = draw_endpoints(surviving_view(g8, f), rng)
        trials.append((g8, f, s, t))
    out["random-trials-n8"] = trials
    return out


#: name -> sha256 prefix of the canonical ``EmbedResult.to_json_obj()`` of
#: each instance, in order. The construction is deterministic, so any change
#: in a path, a case label or a trace record moves these digests.
_PINNED_RESULTS = {
    "1-spread": "d2faa09cfd22975c",
    "1.1.2-n10": "884a9235a4f30cfd",
    "2.1": "a97d3788abb3cc77",
    "2.1.1": "bcbc11ba0e6bb6d2",
    "2.1.2.1": "71665c8543fe0020",
    "2.1.2.1-z1": "27c3f678c90b7cb2",
    "2.1.2.2": "7064bdd64647bf72",
    "2.1.3": "6df9af992cbc3cae",
    "2.1.3-x1-y1": "23fb34ffb2c6f29a",
    "2.2": "45bd964d185a1a13",
    "2.3": "5a704279ae77ab08",
    "2.3.2": "8891fb5a1b1c50ed",
    "3.1.1": "7d17d6911fe5615d",
    "3.1.1.1-d1": "d3fc139b338ad21a",
    "3.1.1.2": "ff5f4e5d18c4d432",
    "3.1.1.2-d2-direct": "a81fbcaed881e8f8",
    "3.1.2": "244bf13d74dbe193",
    "3.1.2-agent": "f8b34dde4ae933d6",
    "3.2": "c063af94fb017bee",
    "3.3.1": "272c64303fad0376",
    "3.3.1-blocked": "434c9e44368c64c3",
    "3.3.2": "5dbb8c9229ebb1a7",
    "3.3.2-partner-end": "d6a42bcc5f64a4d2",
    "3.3.2-agent": "e300d946172284dc",
    "4.1": "58ca4d15951dcc92",
    "4.1.1": "2657f16c3d514e56",
    "4.1.2": "36ef089203d2b03b",
    "4.1.2-far-end": "1fd5f667f27a0391",
    "4.2": "a9976a25b6564a79",
    "4.2.2": "7856ffbf909c13a0",
    "4.2.3": "3c56f28caa6138d3",
    "4.3": "29376b65fbb8be03",
    "4.3.2-vend": "af40e9690293ba72",
    "4.3.2-wend": "c9e77f985955d205",
    "4.3.3": "cc0c491a6984c080",
    "4.3.3.1": "7cd9b44b63fd0df1",
    "4.3.3.1-uend-1chord": "0207fb326c95fdf3",
    "4.3.3.1-z": "7cb3369822cd0215",
    "4.3.3.2": "5df2032494f74060",
    "5.1-n8": "5d2d27614c239ddb",
    "5.1.1": "e0f7c79b33700ec0",
    "5.1.1-d1": "0cc7875a04e277a5",
    "5.1.1-d2": "a1dcc37c218c6885",
    "5.1.2": "b0dadf7955e209eb",
    "5.2": "bee4ccd4b1d2a73e",
    "5.2-both-ends": "f39ec06483d2f5a1",
    "5.3.1": "651da14420cfbc71",
    "5.3.1-uend-0": "2194c69f6e22f4a7",
    "5.3.1-vend": "902e7b687628355d",
    "5.3.1-wend": "0a4bc2c746918b6b",
    "5.3.1.1-uend-1": "7659f6713cebff06",
    "5.3.1.1-uend-1miss": "3e514a0af7904b75",
    "5.3.1.2-uend-2": "83042bbe24b397c2",
    "5.3.2": "c1cf30b78f316605",
    "base-n7": "d064407b99220f7f",
    "chain-n10": "4e08a456a76b7060",
    "crossed-n10-0": "2ea3d0d89be567fc",
    "crossed-n10-1": "be8ea63b244066e2",
    "crossed-n9-0": "510ecc35bbb7e2b8",
    "crossed-n9-1": "3d06bb5e61d030d2",
    "deterministic-n8": "ba08d6edb4a03dd4",
    "locally-twisted-n10-0": "061ed06638c8568d",
    "locally-twisted-n10-1": "5dde67d96bbebfd7",
    "locally-twisted-n9-0": "c226276bde42f53c",
    "locally-twisted-n9-1": "5ee59acffb8e358e",
    "mobius0-n10-0": "c5a34603df210de1",
    "mobius0-n10-1": "bd541a6950d23bd3",
    "mobius0-n9-0": "1083964c792fb8d7",
    "mobius0-n9-1": "989a1c5d39b828ee",
    "mobius1-n10-0": "e0dbb840e50ab304",
    "mobius1-n10-1": "e45c2d2e64f47888",
    "mobius1-n9-0": "16c3db77db62af9a",
    "mobius1-n9-1": "e0cbfe6799abb52b",
    "random-trials-n8": "0c5dd4ed887aa2f5",
    "split-n10-case1-1": "4fcc7468deb5f471",
    "split-n10-case1-2": "4e0366c27e9308f9",
    "split-n10-case2-1": "97c200d578dd5660",
    "split-n10-case2-2": "cb9c20f0df1f8ff9",
    "split-n10-case3-1": "dbb0de9cc07ee064",
    "split-n10-case3-2": "4a5f3f5bc1a9a672",
    "split-n10-case4-1": "7f5345c45f50dacb",
    "split-n10-case4-2": "8c1d04b17e67ce08",
    "split-n10-case5-1": "c2766b1cf188740e",
    "split-n10-case5-2": "055935aa7cb8fee2",
}


@pytest.mark.parametrize("name", sorted(_PINNED_RESULTS))
def test_embed_results_are_pinned(pinned_instances, name):
    results = [embed_and_check(*inst) for inst in pinned_instances[name]]
    label = name.split("-")[0]
    if label[0].isdigit():  # a hand-built fixture, named by the case it reaches
        assert all(r.trace.top_case().startswith(label) for r in results)
    body = json.dumps([r.to_json_obj() for r in results], sort_keys=True)
    assert hashlib.sha256(body.encode()).hexdigest()[:16] == _PINNED_RESULTS[name]


#: pinned instances named "<label>-<shape>": each reaches that sub-label
#: through that construction shape
_PINNED_SHAPES = [
    "3.1.1.1-d1", "3.1.1.2-d2-direct", "3.3.1-blocked", "4.3.3.1-uend-1chord", "5.1.1-d1",
    "5.1.1-d2", "5.2-both-ends", "5.3.1-vend", "5.3.1-wend", "5.3.1-uend-0", "5.3.1.1-uend-1",
    "5.3.1.2-uend-2", "5.3.1.1-uend-1miss",
]


@pytest.mark.parametrize("name", _PINNED_SHAPES)
def test_pinned_instances_reach_their_shape(pinned_instances, name):
    for inst in pinned_instances[name]:
        top = embed(*inst).trace.records[0]
        assert [top["case"], top["shape"]] == name.split("-", 1)


def _permuted_file(g, perm):
    """``g``'s file with every id v written as ``perm[v]``: the edges and
    every level's ``half1`` and ``matching``."""
    doc = json.loads(graph_to_json(g))

    def tree(t):
        if t is None:
            return None
        return {"half1": sorted(perm[v] for v in t["half1"]),
                "matching": sorted([perm[u], perm[v]] for u, v in t["matching"]),
                "children": [tree(c) for c in t["children"]]}

    doc = {"dimension": doc["dimension"],
           "edges": sorted(sorted([perm[u], perm[v]]) for u, v in doc["edges"]),
           "decomposition": tree(doc["decomposition"])}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _relabelled(g, seed):
    """``g``'s file with every id moved by a seeded permutation, so no half
    is an id range of the file."""
    perm = list(range(g.num_nodes))
    random.Random(seed).shuffle(perm)
    return _permuted_file(g, perm)


#: sha256 prefixes of ``EmbedResult.to_json_obj()`` on the relabelled graph,
#: renumbered to positions, with faults and endpoints drawn in positions.
_RELABELLED_RESULTS = {
    "uniform": "858deabaf2221957",
    "concentrated-2": "e23ca2d65d506e8a",
    "concentrated-4": "1074215a1da77d84",
}


def test_relabelled_graph_is_solved_through_its_file_decomposition():
    text = _relabelled(make_preset(VariantSpec.random(0), 8), 5)
    g = graph_from_json(text)
    ids = g.file_ids  # the file's id at each position
    assert ids is not None and sorted(ids) == list(g.nodes)
    assert check_shape(g).ok
    assert graph_to_json(g) == text
    d = g.decomposition
    root = json.loads(text)["decomposition"]
    assert sorted(ids[u] for u in d.half1) == root["half1"]
    assert sorted([ids[u], ids[cross_partner(g, u)]] for u in d.half1) == root["matching"]
    for placement, count in (("uniform", 6), ("concentrated-2", 5), ("concentrated-4", 6)):
        rng = random.Random(f"relabelled/{placement}")
        f = sample_faults(g, count, rng, None if placement == "uniform" else d.half1)
        assert sum(partition_decomposition(d, f).counts) == len(f)
        s, t = draw_endpoints(surviving_view(g, f), rng)
        res = embed_and_check(g, f, s, t)
        body = json.dumps(res.to_json_obj(), sort_keys=True)
        assert hashlib.sha256(body.encode()).hexdigest()[:16] == _RELABELLED_RESULTS[placement]


#: trace record fields that hold node ids (a node, a pair or a list of
#: pairs), and the fields that do not; every field a trace records is in one
_TRACE_NODE_KEYS = {"agent", "cross", "ends", "fe", "missed", "q1", "starved"}
_TRACE_OTHER_KEYS = {
    "backtracks", "case", "cut_tests", "delta1", "dim", "expansions", "f1", "f2", "fallback",
    "fc", "flipped", "half", "id", "level", "parent", "restarts", "service", "shape",
    "status", "swapped",
}


def _renamed(x, ids):
    if x is None:
        return None
    return [_renamed(y, ids) for y in x] if isinstance(x, list) else ids[x]


#: pinned instances at n = 8-10 whose traces hold every node field: cases 1-5,
#: with cross, starved, agent, q1, fe and ends records
_BLOCK_PERMUTED = [
    "1-spread", "1.1.2-n10", "chain-n10", "2.1.2.1", "2.3.2", "3.1.2-agent", "3.3.2-agent",
    "3.3.1-blocked", "3.2", "4.2.3", "4.3.3.1", "4.3.3.1-z", "5.1.2", "5.2-both-ends",
    "5.3.1.1-uend-1miss", "split-n10-case5-1", "3.3.2-partner-end",
]


def test_block_permuted_file_gives_the_built_result_in_its_ids(pinned_instances, tmp_path):
    # whole 8-node leaf blocks move and the offsets inside each block stay,
    # so the file renumbers to the built graph itself; ``thln embed`` on it
    # must give the built graph's result with every node id written as the
    # file's: the path, the missed node and every trace node field
    files, keys = {}, set()
    for name in _BLOCK_PERMUTED:
        for g, f, s, t in pinned_instances[name]:
            if id(g) not in files:
                blocks = list(range(g.num_nodes // 8))
                random.Random(g.num_nodes).shuffle(blocks)
                perm = [8 * blocks[v >> 3] + (v & 7) for v in g.nodes]
                gpath = tmp_path / f"g{len(files)}.json"
                gpath.write_text(_permuted_file(g, perm))
                loaded = graph_from_json(gpath.read_text())
                assert loaded.adjacency == g.adjacency and list(loaded.file_ids) == perm
                files[id(g)] = gpath, perm
            gpath, perm = files[id(g)]
            fpath, out = tmp_path / "f.json", tmp_path / "out.json"
            fpath.write_text(FaultSet.of(nodes=[perm[v] for v in f.nodes],
                                         edges=[(perm[u], perm[v]) for u, v in f.edges]).to_json())
            argv = ["embed", "--graph", str(gpath), "--faults", str(fpath),
                    "-s", str(perm[s]), "-t", str(perm[t]), "-o", str(out)]
            assert cli.main(argv) == 0, name
            want = embed(g, f, s, t).to_json_obj()
            for rec in want["trace"]:
                keys.update(rec)
                for k in _TRACE_NODE_KEYS & rec.keys():
                    rec[k] = _renamed(rec[k], perm)
            want.update(path=_renamed(want["path"], perm), missed=_renamed(want["missed"], perm))
            assert json.loads(out.read_text()) == want, name
    assert keys <= _TRACE_NODE_KEYS | _TRACE_OTHER_KEYS, keys - _TRACE_OTHER_KEYS
    assert _TRACE_NODE_KEYS <= keys


def _file_edges_of(doc):
    return {tuple(e) for e in doc["edges"]}


def test_cli_speaks_the_file_ids_of_a_relabelled_file(tmp_path, capsys):
    text = _relabelled(make_preset(VariantSpec.random(1), 8), 5)
    doc = json.loads(text)
    n_nodes, edges = 1 << doc["dimension"], _file_edges_of(doc)
    gpath = tmp_path / "relabelled.json"
    gpath.write_text(text)
    rng = random.Random("cli/relabelled")
    picked = rng.sample([("node", v) for v in range(n_nodes)]
                        + [("edge", e) for e in sorted(edges)], 6)
    dead = {v for k, v in picked if k == "node"}
    dead_edges = {e for k, e in picked if k == "edge"}
    fpath = tmp_path / "faults.json"
    fpath.write_text(json.dumps({"nodes": sorted(dead), "edges": [list(e) for e in dead_edges]}))

    def live_nbrs(v):
        return {w for e in edges if v in e for w in e if w != v
                and w not in dead and e not in dead_edges}

    alive = sorted(set(range(n_nodes)) - dead)
    while True:
        s, t = rng.sample(alive, 2)
        if live_nbrs(s) - {t} and live_nbrs(t) - {s}:
            break

    def run(*argv):
        code = cli.main(list(argv))
        return code, capsys.readouterr().err

    out = tmp_path / "out.json"
    code, _ = run("embed", "--graph", str(gpath), "--faults", str(fpath),
                  "-s", str(s), "-t", str(t), "-o", str(out))
    assert code == 0
    # the path read against the file's own edges and fault file
    r = json.loads(out.read_text())
    path = r["path"]
    assert path[0] == s and path[-1] == t and len(set(path)) == len(path)
    assert not set(path) & dead
    assert all(tuple(sorted(p)) in edges - dead_edges for p in zip(path, path[1:]))
    left = set(alive) - set(path)
    assert left == ({r["missed"]} if r["missed"] is not None else set())
    assert r["status"] == ("hamiltonian" if not left else "near-hamiltonian")

    # errors name the ids the user gave
    code, err = run("embed", "--graph", str(gpath), "--faults", str(fpath),
                    "-s", str(n_nodes + 5), "-t", str(t))
    assert code == 2 and err == f"error: endpoint {n_nodes + 5} is not a node of the graph\n"
    u = alive[0]
    w = next(w for w in range(n_nodes) if w != u and tuple(sorted((u, w))) not in edges)
    foreign = tmp_path / "foreign.json"
    foreign.write_text(json.dumps({"nodes": [], "edges": [[u, w]]}))
    code, err = run("embed", "--graph", str(gpath), "--faults", str(foreign),
                    "-s", str(s), "-t", str(t))
    assert code == 2 and err == f"error: faulty edge {(min(u, w), max(u, w))} is not in the graph\n"
    x = alive[1]
    faulty = tmp_path / "faulty.json"
    faulty.write_text(json.dumps({"nodes": [x], "edges": []}))
    code, err = run("embed", "--graph", str(gpath), "--faults", str(faulty),
                    "-s", str(x), "-t", str(next(v for v in alive if v != x)))
    assert code == 3 and err == f"precondition violated: endpoint {x} is faulty\n"

    # export lists the file's ids
    dot = tmp_path / "g.dot"
    assert run("export", "--graph", str(gpath), "-o", str(dot))[0] == 0
    lines = dot.read_text().splitlines()
    assert {tuple(int(x[1:]) for x in ln.strip(" ;").split(" -- "))
            for ln in lines if " -- " in ln} == edges
    assert run("check", "--graph", str(gpath))[0] == 0


def _repeat_at(path, j):
    """``path`` with its node at j replaced by the one two before it."""
    return path[:j] + (path[j - 2],) + path[j + 1 :]


@pytest.mark.parametrize("check", ["self-check", "root-check"])
def test_exit_1_messages_name_the_file_ids_of_a_relabelled_file(tmp_path, capsys, monkeypatch,
                                                                check):
    # a solver fault on a relabelled file: embed's own root check, or the
    # CLI's independent self-check after it, finds a repeated node; the exit-1
    # message names it by the file's id, not by its position
    text = _relabelled(make_preset(VariantSpec.random(1), 8), 5)
    g = graph_from_json(text)
    ids = g.file_ids
    gpath, fpath, out = tmp_path / "g.json", tmp_path / "f.json", tmp_path / "out.json"
    gpath.write_text(text)
    fpath.write_text(json.dumps({"nodes": [], "edges": []}))
    j = 6
    path = embed(g, FaultSet.empty(), 3, 200).path
    repeated = path[j - 2]
    assert ids[repeated] != repeated  # the file's id and the position differ
    if check == "self-check":
        real = cli.embed

        def mutant(*args, **kwargs):
            res = real(*args, **kwargs)
            return dataclasses.replace(res, path=_repeat_at(res.path, j))

        monkeypatch.setattr(cli, "embed", mutant)
        expected = f"self-check failed: repeated node {ids[repeated]} at path position {j}"
        err_line = "error: produced path failed independent validation\n"
    else:
        real = embedder._solve_level

        def mutant(rt, view, decomp, s, t, parent=None, half=None):
            p, missed = real(rt, view, decomp, s, t, parent, half)
            return (_repeat_at(p, j) if parent is None else p), missed

        monkeypatch.setattr(embedder, "_solve_level", mutant)
        expected = f"node {ids[repeated]} repeated at position {j}"
        err_line = f"error: {expected}\n"
    code = cli.main(["embed", "--graph", str(gpath), "--faults", str(fpath),
                     "-s", str(ids[3]), "-t", str(ids[200]), "-o", str(out)])
    assert code == 1 and capsys.readouterr().err == err_line
    record = json.loads(out.read_text())
    assert record["status"] == "error" and record["reason"] == expected


def test_exit_1_record_keeps_a_value_that_is_no_node_as_it_is(tmp_path, capsys, monkeypatch):
    # a solver fault puts an id past the graph on the path of a relabelled
    # file: the record and the self-check's finding write it as it is, and
    # the file's ids for the nodes around it
    text = _relabelled(make_preset(VariantSpec.random(1), 8), 5)
    ids = graph_from_json(text).file_ids
    gpath, fpath, out = tmp_path / "g.json", tmp_path / "f.json", tmp_path / "out.json"
    gpath.write_text(text)
    fpath.write_text(json.dumps({"nodes": [], "edges": []}))
    real = cli.embed

    def mutant(*args, **kwargs):
        res = real(*args, **kwargs)
        return dataclasses.replace(res, path=res.path[:6] + (999,) + res.path[7:])

    monkeypatch.setattr(cli, "embed", mutant)
    code = cli.main(["embed", "--graph", str(gpath), "--faults", str(fpath),
                     "-s", str(ids[3]), "-t", str(ids[200]), "-o", str(out)])
    assert code == 1
    record = json.loads(out.read_text())
    assert record["reason"] == "self-check failed: unknown node 999 at path position 6"
    path = real(graph_from_json(text), FaultSet.empty(), 3, 200).path
    assert record["path"] == [ids[v] for v in path[:6]] + [999] + [ids[v] for v in path[7:]]


def _starved_placement(n, case, seed):
    """Seeded random-variant instance of top case ``case`` (3 or 5): 2k - 9
    or 2k - 8 faults inside half 1, k - 1 of them cutting a node q down to
    one in-half edge, and the endpoints q and q's cross partner."""
    g = make_preset(VariantSpec.random(seed), n)
    h1 = g.decomposition.half1
    rng = random.Random(f"starved/{n}/{case}/{seed}")
    q = rng.choice(h1)
    intra = [w for w in g.neighbors(q) if w in h1]
    cut = [(q, w) for w in intra[:-1]]
    elements = [("node", v) for v in h1 if v not in (q, intra[-1])]
    elements += [("edge", e) for e in g.edges if e[0] in h1 and e[1] in h1 and q not in e]
    k = n - 1
    picked = rng.sample(elements, (2 * k - 9 if case == 3 else 2 * k - 8) - len(cut))
    f = FaultSet.of(nodes=[p for kind, p in picked if kind == "node"],
                    edges=[p for kind, p in picked if kind == "edge"] + cut)
    return g, f, q, cross_partner(g, q)


@pytest.mark.parametrize("n", [9, 10])
@pytest.mark.parametrize("case", [3, 5])
def test_starved_node_and_its_partner_as_endpoints(n, case):
    # the starved node q is off the half-1 cycle, and its cross partner is
    # the other endpoint, so q must be reached through another stand-in
    for seed in range(6):
        g, f, s, t = _starved_placement(n, case, seed)
        for a, b in ((s, t), (t, s)):
            res = embed_and_check(g, f, a, b)
            assert res.trace.top_case().startswith(str(case))


def test_pinned_split_pairs_are_solved_from_half_1(pinned_instances):
    for case in range(1, 6):
        for seed in (1, 2):
            (inst,) = pinned_instances[f"split-n10-case{case}-{seed}"]
            top = embed(*inst).trace.records[0]
            assert top["case"].startswith(str(case)) and top["flipped"] is True
