import dataclasses
import functools
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thln import (
    FaultSet,
    MalformedGraph,
    PreconditionViolated,
    SearchBudget,
    SearchStatus,
    SurvivingView,
    VariantSpec,
    embed,
    enumerate_ham_path_exists,
    ham_cycle,
    ham_path,
    make_preset,
    near_ham_cycle,
    surviving_view,
    two_disjoint_spanning_paths,
    validate_cycle,
    validate_path,
)
from thln import oracle
from thln.faults import sample_faults
from thln.topology import ThlnGraph


class FakeView:
    """Minimal adjacency view for hand-built search instances."""

    def __init__(self, edges):
        adj = {}
        for u, v in edges:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        self._adj = {v: tuple(sorted(ws)) for v, ws in adj.items()}

    @property
    def nodes(self):
        return tuple(sorted(self._adj))

    def has_node(self, v):
        return v in self._adj

    def neighbors(self, v):
        return self._adj[v]

    def rows(self):
        return [self._adj[v] for v in self.nodes]


def ring(n):
    return FakeView([(i, (i + 1) % n) for i in range(n)])


def brute_force_cycle_exists(view):
    nodes = view.nodes
    assert len(nodes) <= 8
    first, rest = nodes[0], nodes[1:]
    for perm in itertools.permutations(rest):
        seq = (first,) + perm
        if all(seq[(i + 1) % len(seq)] in view.neighbors(seq[i]) for i in range(len(seq))):
            return True
    return False


# ----------------------------------------------------------------------
# covering path


def test_path_on_ring_goes_the_long_way():
    out = ham_path(ring(8), 0, 1)
    assert out.found
    assert len(out.path) == 8 and out.path[0] == 0 and out.path[-1] == 1


def test_path_two_nodes():
    out = ham_path(FakeView([(4, 9)]), 4, 9)
    assert out.found and out.path == (4, 9)


def test_path_rejects_bad_endpoints():
    v = ring(5)
    with pytest.raises(PreconditionViolated):
        ham_path(v, 2, 2)
    with pytest.raises(PreconditionViolated):
        ham_path(v, 0, 77)


def test_small_fault_model_paths_always_found():
    # dimension 5 with up to n-3 = 2 faults stays coverable between any pair
    rng = random.Random(0)
    for trial in range(50):
        g = make_preset(VariantSpec.random(trial), 5)
        f = sample_faults(g, 2, rng)
        view = surviving_view(g, f)
        s, t = rng.sample(view.nodes, 2)
        out = ham_path(view, s, t)
        assert out.found, (trial, s, t)
        assert validate_path(g, f, s, t, out.path).is_hamiltonian


# ----------------------------------------------------------------------
# covering cycle


def test_cycle_on_base_graph():
    g = make_preset(VariantSpec("base3-default"), 3)
    out = ham_cycle(surviving_view(g, FaultSet.empty()))
    assert out.found
    assert validate_cycle(g, FaultSet.empty(), out.path).is_hamiltonian


def test_cycle_absent_on_path_graph():
    out = ham_cycle(FakeView([(0, 1), (1, 2), (2, 3)]))
    assert out.status is SearchStatus.PROVEN_ABSENT


def test_cycles_with_degree_bound_faults():
    # dimension 4 tolerates n-2 = 2 faults for a covering cycle
    rng = random.Random(1)
    for trial in range(200):
        g = make_preset(VariantSpec.random(1000 + trial), 4)
        f = sample_faults(g, 2, rng)
        out = ham_cycle(surviving_view(g, f))
        assert out.found, trial
        assert validate_cycle(g, f, out.path).is_hamiltonian


# ----------------------------------------------------------------------
# near cycle


def test_near_cycle_isolated_node_is_missed():
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(0, 2), (1, 3)]
    view = FakeView(edges)
    view._adj[9] = ()  # isolated node: any covering cycle must miss it
    out = near_ham_cycle(view)
    assert out.found and out.missed == 9


def test_near_cycle_degree_one_node(graph4):
    q = 2
    nbrs = graph4.neighbors(q)
    f = FaultSet.of(edges=[(q, w) for w in nbrs[:3]])
    view = surviving_view(graph4, f)
    assert view.degree(q) == 1
    out = near_ham_cycle(view)
    assert out.found and out.missed == q
    verdict = validate_cycle(graph4, f, out.path)
    assert verdict.is_near_hamiltonian and verdict.missed == q


def test_near_cycle_ground_truth_on_base():
    # independent enumeration confirms no full cycle once a node hits degree 1
    g = make_preset(VariantSpec("base3-default"), 3)
    q = 0
    f = FaultSet.of(edges=[(q, w) for w in g.neighbors(q)[:2]])
    view = surviving_view(g, f)
    assert not brute_force_cycle_exists(view)
    out = near_ham_cycle(view)
    assert out.found and out.missed == q


def test_near_cycle_prefers_full_cycle_when_possible(graph4):
    out = near_ham_cycle(surviving_view(graph4, FaultSet.empty()))
    assert out.found and out.missed is None


def test_large_fault_cycles_dimension7():
    # 2n-9 = 5 faults with minimum degree two: cycle must still exist
    rng = random.Random(3)
    done = 0
    while done < 5:
        g = make_preset(VariantSpec.random(rng.randrange(1 << 20)), 7)
        f = sample_faults(g, 5, rng)
        view = surviving_view(g, f)
        delta, _ = view.min_degree_witness()
        if delta < 2:
            continue
        out = near_ham_cycle(view)
        assert out.found and out.missed is None
        done += 1


def _starved_halves():
    """Half views of random-variant graphs at n = 7..10 (halves of dimension
    k = n - 1) with one node q kept to ``keep`` in-half links, the rest
    faulty, and max(0, k - 8) node faults drawn in the half away from q and
    the links it keeps: at keep = 1 and k >= 8 that is 2k - 9 faults, case
    3's count. Every third instance puts q at the half's lowest id. Yields
    (view, the view with q as a node fault, q, keep)."""
    rng = random.Random("starved-halves")
    for n in range(7, 11):
        g = make_preset(VariantSpec.random(n), n)
        k = n - 1
        for half in (g.decomposition.half1, g.decomposition.half2):
            for i in range(15):
                q = half[0] if i % 3 == 0 else rng.choice(half)
                links = [w for w in g.neighbors(q) if w in half]
                rng.shuffle(links)
                keep = (1, 1, 0, 1, 2)[i % 5]
                others = [v for v in half if v != q and v not in links[:keep]]
                nodes = rng.sample(others, max(0, k - 8))
                f = FaultSet.of(nodes=nodes, edges=[(q, w) for w in links[keep:]])
                yield (SurvivingView(g, f, scope=half),
                       SurvivingView(g, FaultSet.of([q, *nodes], f.edges), scope=half), q, keep)


def test_a_one_short_cycle_leaves_out_the_lowest_degree_node():
    # no cycle passes a node of degree <= 1: near_ham_cycle searches the view
    # without its first node of lowest degree, in the same tree as ham_cycle
    # on the view with that node a node fault (whose lowest id moves up when
    # the node is the half's lowest), and names it missed. At minimum degree
    # 2 or more it is ham_cycle itself
    seen = {0: 0, 1: 0, 2: 0}
    for view, without, q, keep in _starved_halves():
        assert view.min_degree_witness() == (keep, q)
        out = near_ham_cycle(view)
        if keep < 2:
            assert out.found and out == dataclasses.replace(ham_cycle(without), missed=q)
        else:
            assert out.found and out == ham_cycle(view)
        seen[keep] += 1
    assert seen == {0: 24, 1: 72, 2: 24}


# ----------------------------------------------------------------------
# disjoint spanning pair


def test_two_paths_on_k4():
    k4 = FakeView([(a, b) for a in range(4) for b in range(a + 1, 4)])
    out = two_disjoint_spanning_paths(k4, 0, 1, 2, 3)
    assert out.found
    p1, p2 = out.paths
    assert p1[0] == 0 and p1[-1] == 1
    assert p2[0] == 2 and p2[-1] == 3
    assert set(p1) | set(p2) == {0, 1, 2, 3}
    assert set(p1).isdisjoint(p2)


def test_two_paths_rejects_duplicate_endpoints(graph4):
    view = surviving_view(graph4, FaultSet.empty())
    with pytest.raises(PreconditionViolated):
        two_disjoint_spanning_paths(view, 1, 2, 1, 3)


def test_two_paths_dimension4_sweep(graph4):
    view = surviving_view(graph4, FaultSet.empty())
    rng = random.Random(4)
    for _ in range(100):
        x1, y1, x2, y2 = rng.sample(view.nodes, 4)
        out = two_disjoint_spanning_paths(view, x1, y1, x2, y2)
        assert out.found, (x1, y1, x2, y2)
        p1, p2 = out.paths
        assert p1[0] == x1 and p1[-1] == y1
        assert p2[0] == x2 and p2[-1] == y2
        assert set(p1).isdisjoint(p2)
        assert len(p1) + len(p2) == len(view)
        for seq in out.paths:
            for a, b in zip(seq, seq[1:]):
                assert graph4.has_edge(a, b)


# ----------------------------------------------------------------------
# exhaustive ground truth


def test_enumeration_triangle_and_star():
    tri = FakeView([(0, 1), (1, 2), (0, 2)])
    assert enumerate_ham_path_exists(tri, 0, 2)
    star = FakeView([(0, 1), (0, 2), (0, 3)])
    assert not enumerate_ham_path_exists(star, 1, 2)


def test_enumeration_guard():
    big = FakeView([(i, i + 1) for i in range(13)])
    with pytest.raises(PreconditionViolated, match="enumeration guard"):
        enumerate_ham_path_exists(big, 0, 13)


def test_search_agrees_with_enumeration(graph4):
    rng = random.Random(5)
    agreements = 0
    for _ in range(300):
        size = rng.randrange(2, 11)
        keep = rng.sample(range(16), size)
        f = FaultSet.of(nodes=[v for v in graph4.nodes if v not in keep])
        view = surviving_view(graph4, f)
        s, t = rng.sample(view.nodes, 2)
        truth = enumerate_ham_path_exists(view, s, t)
        out = ham_path(view, s, t)
        assert out.status is not SearchStatus.BUDGET_EXHAUSTED
        assert out.found == truth, (keep, s, t)
        agreements += 1
    assert agreements == 300


# ----------------------------------------------------------------------
# cross-cutting properties


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_found_results_validate(seed):
    rng = random.Random(seed)
    g = make_preset(VariantSpec.random(17), 4)
    f = sample_faults(g, rng.randrange(0, 4), rng)
    view = surviving_view(g, f)
    if len(view) < 4:
        return
    s, t = rng.sample(view.nodes, 2)
    out = ham_path(view, s, t)
    if out.found:
        assert validate_path(g, f, s, t, out.path).is_valid
    cyc = near_ham_cycle(view)
    if cyc.found:
        verdict = validate_cycle(g, f, cyc.path)
        assert verdict.is_valid
        assert verdict.missed == cyc.missed


def test_determinism_and_budget_monotonicity(graph4):
    view = surviving_view(graph4, FaultSet.empty())
    a = ham_path(view, 0, 9)
    b = ham_path(view, 0, 9)
    assert a == b
    # a found answer never changes when the budget grows
    small = ham_path(view, 0, 9, SearchBudget(a.expansions))
    assert small.found and small.path == a.path
    big = ham_path(view, 0, 9, SearchBudget(10 * a.expansions + 1000))
    assert big.path == a.path


def test_budget_exhaustion_is_reported(graph9):
    view = surviving_view(graph9, FaultSet.empty())
    out = ham_path(view, 0, 500, SearchBudget(10))
    assert out.status is SearchStatus.BUDGET_EXHAUSTED
    assert out.expansions == 10


_SERVICES = (ham_path, ham_cycle, near_ham_cycle, two_disjoint_spanning_paths)


@given(seed=st.integers(0, 10 ** 6), n=st.sampled_from((4, 5)), service=st.sampled_from(_SERVICES),
       cut=st.floats(0, 1), extra=st.integers(0, 5000))
@settings(max_examples=60, deadline=None)
def test_budget_monotonicity(seed, n, service, cut, extra):
    # a budget-limited run is a prefix of the unlimited one: below the
    # unlimited run's expansions E it gives up after exactly its budget, and
    # from E on it returns the unlimited answer unchanged
    rng = random.Random(seed)
    g = make_preset(VariantSpec.random(seed), n)
    view = surviving_view(g, sample_faults(g, rng.randrange(0, n - 1), rng))
    picks = {ham_path: 2, two_disjoint_spanning_paths: 4}.get(service, 0)
    if len(view) < max(picks, 3):
        return
    ends = rng.sample(view.nodes, picks)
    full = service(view, *ends)
    assert full.status is not SearchStatus.BUDGET_EXHAUSTED
    small = max(1, int(cut * full.expansions))
    for budget in (small, small + extra, full.expansions + extra):
        out = service(view, *ends, SearchBudget(budget))
        if budget >= full.expansions:
            assert out == full, budget
        else:
            assert out.status is SearchStatus.BUDGET_EXHAUSTED and out.expansions == budget


def test_restart_schedule_depends_on_the_view_size_only(monkeypatch):
    for size in range(1, 5000):
        caps = [oracle._slice_cap(size, i) for i in range(30)]
        # a forward run (size - 1 expansions, no backtracking) fits in slice 1
        assert caps[0] >= size
        assert caps[:20] == [max(64, 2 * size) << (i // 2) for i in range(20)]
        assert caps[20:] == [None] * 10  # unbounded from slice 20 on
    # every service passes its attempts the caps of its own row count (the
    # two-path search counts its helper node), whatever the view holds
    seen = []

    def give_up(table, s, ends, ends_last, state, cap, salt, gate=None):
        seen.append((len(table.ids), cap))
        state.spent = state.limit if cap is None else min(state.limit, state.spent + cap)
        return SearchStatus.BUDGET_EXHAUSTED, None, not state.exhausted

    monkeypatch.setattr(oracle, "_dfs_cover", give_up)
    rng = random.Random(12)
    for service in (ham_path, ham_cycle, two_disjoint_spanning_paths):
        for faults in (0, 3):
            g = make_preset(VariantSpec.random(faults), 5)
            view = surviving_view(g, sample_faults(g, faults, rng))
            seen.clear()
            picks = {ham_path: 2, two_disjoint_spanning_paths: 4}.get(service, 0)
            out = service(view, *rng.sample(view.nodes, picks))
            size = len(view) + (service is two_disjoint_spanning_paths)
            assert seen == [(size, oracle._slice_cap(size, i)) for i in range(21)]
            assert out.restarts == 20 and out.expansions == oracle.DEFAULT_MAX_EXPANSIONS


def test_a_forward_run_stays_in_the_first_slice():
    for n in (20, 33, 300):
        out = ham_path(ring(n), 0, 1)
        assert out.found and out.restarts == 0 and out.backtracks == 0
        assert out.expansions == n - 1


def test_rank_keys_order_successors_by_degree_then_tie_break():
    # the search sorts successors as rdeg * size + rank, size the slot
    # count, and maps each key back through the rank order to a slot, id -
    # base; on half 2 the ids are not 0..N-1, the lowest id here is dead and
    # so is another slot, and the two-path helper takes slot -1 and ranks as
    # its negative id
    rng = random.Random(13)
    view, _ = _half2_drawn(3, 2, 0, False)
    table = oracle._snapshot(view)
    base = table.base
    assert base == min(view.nodes) == 65 and len(table.rows) > len(table.ids)
    for ids, size in ((table.ids, len(table.rows)),
                      (table.ids + (oracle._VIRTUAL,), len(table.rows) + 1)):
        slot = {v: -1 if v == oracle._VIRTUAL else v - base for v in ids}
        for salt in range(4):
            rank, by_rank = oracle._ranks(ids, base, size, salt)
            ranks = sorted(rank[c] for c in slot.values())
            assert len(set(ranks)) == len(ids) and 0 <= ranks[0] and ranks[-1] < size
            for _ in range(200):
                cands = rng.sample(ids, rng.randrange(1, 8))
                rdeg = {v: rng.randrange(8) for v in cands}
                keys = sorted((rdeg[v] * size + rank[slot[v]] for v in cands), reverse=True)
                expected = sorted(cands, key=lambda v: (rdeg[v], oracle._tie(salt, v)),
                                  reverse=True)
                assert [by_rank[k % size] for k in keys] == [slot[v] for v in expected]


# ----------------------------------------------------------------------
# rows that name no node of the view


class _RowsView(FakeView):
    """A view that lists ``nodes`` and gives the rows ``rows``, as they are."""

    def __init__(self, nodes, rows):
        self._adj = dict(zip(nodes, map(tuple, rows)))


def _ring_rows(nodes):
    return [sorted({nodes[i - 1], nodes[(i + 1) % len(nodes)]}) for i in range(len(nodes))]


def _malformed_fake_views():
    """Rings on ids 10..17 with one entry in node 12's row that is no node
    of the view: an id below the lowest, above the highest, or a dead id
    (14) of the range."""
    full = tuple(range(10, 18))
    holed = tuple(v for v in full if v != 14)
    for nodes, extra in ((full, 5), (full, 30), (holed, 14)):
        rows = _ring_rows(nodes)
        rows[nodes.index(12)].append(extra)
        yield pytest.param(_RowsView(nodes, rows), id=f"fake-{extra}")


def _swapped_graph():
    """The n = 8 graph with the level-7 and level-8 partners of nodes 100
    and 200 swapped, and its decomposition."""
    g = make_preset(VariantSpec.random(1), 8)
    swapped = [list(row) for row in g.adjacency]
    for v in (100, 200):
        swapped[v][6:8] = swapped[v][7:5:-1]
    return ThlnGraph(8, swapped), g.decomposition


def _swapped_level_views():
    """The halves of the swapped graph as row views: each node of a half
    with its row's first 7 entries, the share of the half in a level-order
    row. Node 100's row in half 1 names a half-2 id (above the range), and
    node 200's row in half 2 a half-1 id (below the range)."""
    h, d = _swapped_graph()
    for name, half in (("half1", d.half1), ("half2", d.half2)):
        rows = [h.adjacency[v][:7] for v in half]
        yield pytest.param(_RowsView(tuple(half), rows), id=f"swapped-{name}")


def _malformed_level_cases():
    """Graphs that fail ``check_shape``, built from the n = 8 graph, each with
    the faults and scope of a view whose rows would name no node of it, and
    the first check it fails. Node 100's level-7 and level-8 partners
    swapped would put a half-2 id into its half-1 row (above the range), and
    node 200's the same way a half-1 id into its half-2 row (below the
    range). Node 100's level-4 partner replaced by a node x of its level-4
    block that does not name it back would leave x, once dead, in 100's row
    (a dead id of the range)."""
    h, d = _swapped_graph()
    g = make_preset(VariantSpec.random(1), 8)
    yield pytest.param(h, FaultSet.empty(), d.half1, "level-order", id="swapped-half1")
    yield pytest.param(h, FaultSet.empty(), d.half2, "level-order", id="swapped-half2")
    one_way = [list(row) for row in g.adjacency]
    x = next(x for x in range(96, 112) if x != 100 and x not in g.adjacency[100])
    one_way[100][3] = x
    yield pytest.param(ThlnGraph(8, one_way), FaultSet.of(nodes=[x]), d.half1, "symmetry",
                       id="one-way-dead")


@pytest.mark.parametrize("view", [*_malformed_fake_views(), *_swapped_level_views()])
def test_rows_that_name_no_node_of_the_view_raise_malformed_graph(view):
    # a row naming an id below the view's lowest, above its highest, or dead
    # in its range: every service raises MalformedGraph, never IndexError,
    # and never returns a path
    a, b, c, e = view.nodes[:4]
    for call in (lambda: ham_path(view, a, b), lambda: ham_cycle(view),
                 lambda: near_ham_cycle(view),
                 lambda: two_disjoint_spanning_paths(view, a, b, c, e)):
        with pytest.raises(MalformedGraph, match="is in a row of the view, not in the view"):
            call()


@pytest.mark.parametrize("graph,faults,scope,check", _malformed_level_cases())
def test_a_view_of_a_graph_that_fails_the_shape_check_raises_malformed_graph(graph, faults,
                                                                             scope, check):
    # such rows never reach a search: the view's constructor judges its
    # graph, and a failing one raises, naming its first failing check, and
    # gains no tables
    with pytest.raises(MalformedGraph, match=f"^graph fails shape check root: {check} "):
        SurvivingView(graph, faults, scope=scope)
    assert graph.block_tables is None


# ----------------------------------------------------------------------
# pinned search tree


@functools.lru_cache(maxsize=None)
def _pinned_graph(n):
    return make_preset(VariantSpec.random({4: 2, 7: 1, 10: 3}[n]), n)


def _drawn(n, faults, seed, picks):
    """Seeded instance: uniform faults, then ``picks`` distinct survivors."""
    graph = _pinned_graph(n)
    rng = random.Random(seed)
    view = surviving_view(graph, sample_faults(graph, faults, rng))
    return view, rng.sample(view.nodes, picks)


def _half1_drawn(faults, seed, picks, starved):
    """Seeded 512-node instance drawn like the concentrated benchmark: half 1
    of the dimension-10 graph with ``faults`` faults inside it, then ``picks``
    distinct survivors. A starved node keeps one in-half edge; its k - 1 = 8
    edge faults count towards ``faults``."""
    graph = _pinned_graph(10)
    h1 = graph.decomposition.half1
    rng = random.Random(seed)
    if not starved:
        f = sample_faults(graph, faults, rng, h1)
    else:
        elements = [("node", v) for v in h1]
        elements += [("edge", e) for e in graph.edges if e[0] in h1 and e[1] in h1]
        q = rng.choice(h1)
        intra = [w for w in graph.neighbors(q) if w in h1]
        cut = [(q, w) for w in intra[:-1]]
        elements = [
            x for x in elements
            if x != ("node", q) and x != ("node", intra[-1])
            and not (x[0] == "edge" and q in x[1])
        ]
        picked = rng.sample(elements, faults - len(cut))
        f = FaultSet.of(
            nodes=[p for k, p in picked if k == "node"],
            edges=[p for k, p in picked if k == "edge"] + cut,
        )
    view = SurvivingView(graph, f, scope=h1)
    return view, rng.sample(view.nodes, picks)


def _half2_drawn(faults, seed, picks, starved):
    """Seeded instance on half 2 of the dimension-7 graph, ids 64..127, whose
    lowest node 64 is dead: ``faults`` faults drawn inside the half, then node
    64, then ``picks`` distinct survivors. A starved node 65 keeps one in-half
    edge."""
    graph = _pinned_graph(7)
    h2 = graph.decomposition.half2
    rng = random.Random(seed)
    f = sample_faults(graph, faults, rng, h2)
    cut = [(65, w) for w in graph.neighbors(65) if w in h2][:-1] if starved else []
    f = FaultSet.of(f.nodes | {64}, sorted(f.edges) + cut)
    view = SurvivingView(graph, f, scope=h2)
    return view, rng.sample(view.nodes, picks)


def _first_slice_plus(extra):
    """Budget of ``extra`` expansions past the first slice of a search over
    ``size`` nodes (a two-path search counts its helper node)."""
    return lambda size: oracle._slice_cap(size, 0) + extra


def _pinned_call(service, n, faults, seed, budget=None, draw=None):
    """``draw``: None for uniform faults over the whole graph (half 1 at
    n = 10), "half2" for ``_half2_drawn``; a "starved" suffix starves a node."""
    picks = {ham_path: 2, two_disjoint_spanning_paths: 4}.get(service, 0)
    starved = (draw or "").endswith("starved")
    if (draw or "").startswith("half2"):
        view, ends = _half2_drawn(faults, seed, picks, starved)
    elif n == 10:
        view, ends = _half1_drawn(faults, seed, picks, starved)
    else:
        view, ends = _drawn(n, faults, seed, picks)
    if callable(budget):
        budget = budget(len(view) + (service is two_disjoint_spanning_paths))
    return service(view, *ends, budget and SearchBudget(budget))


#: (service, n, faults, seed, budget[, starved]) -> (status, expansions,
#: restarts, backtracks, cut tests, missed, digest of the path or path pair).
#: Every search is deterministic, so any change in pruning, in successor order
#: or in where the cut test runs moves these numbers. The n = 7
#: cases run past their first slice of max(64, 2|V|) expansions: the path and
#: the two-path pair finish in the reversed slice, the cycle in the first
#: salted restart.
#: The n = 10 cases search 508-512-node views of half 1 with 2k - 9 = 9 faults
#: in it, the scale of the embedder's cases 2-5.
#: The half-2 cases search views whose ids start at 64 and whose lowest id
#: is dead; each restarts with a salt of at least 1 (the path and the pair
#: in their third slice or later), and the one-short cycle drops its
#: starved node. A one-short search at minimum degree 2 or more is the
#: covering-cycle search: "near-n4-full-absent" is a plain proof of absence,
#: "cycle-n4-absent"'s tree, with nothing missed.
_PINNED_SEARCH_TREES = {
    "path-n4-found": ((ham_path, 4, 3, 0),
        ("found", 31, 0, 17, 1, None, "d63c987d15c44b08")),
    "path-n4-absent": ((ham_path, 4, 4, 8),
        ("proven-absent", 226, 2, 215, 22, None, None)),
    "path-n7-reversed-slice": ((ham_path, 7, 5, 90),
        ("found", 394, 1, 155, 2, None, "d9e933071d4c6c90")),
    "path-n7-budget-in-slice-2": ((ham_path, 7, 5, 90, _first_slice_plus(50)),
        ("budget-exhausted", 304, 1, 141, 2, None, None)),
    "cycle-n4-found": ((ham_cycle, 4, 2, 0),
        ("found", 25, 0, 10, 0, None, "3bcffaa4b8b0968e")),
    "cycle-n4-absent": ((ham_cycle, 4, 3, 2136),
        ("proven-absent", 517, 4, 494, 78, None, None)),
    "cycle-n7-budget-in-slice-2": ((ham_cycle, 7, 5, 135, _first_slice_plus(200)),
        ("budget-exhausted", 454, 1, 219, 1, None, None)),
    "cycle-n7-salted-restart": ((ham_cycle, 7, 5, 135),
        ("found", 491, 1, 243, 1, None, "c97799e04c2dfdd6")),
    "near-n4-full": ((near_ham_cycle, 4, 2, 0),
        ("found", 25, 0, 10, 0, None, "3bcffaa4b8b0968e")),
    "near-n4-degree-below-two": ((near_ham_cycle, 4, 3, 26),
        ("found", 15, 0, 2, 0, 14, "df6a42f59d8cb0c1")),
    "near-n4-full-absent": ((near_ham_cycle, 4, 3, 2136),
        ("proven-absent", 517, 4, 494, 78, None, None)),
    "near-n4-absent": ((near_ham_cycle, 4, 4, 342),
        ("proven-absent", 43, 0, 42, 2, None, None)),
    "near-n7-full-restart": ((near_ham_cycle, 7, 5, 135),
        ("found", 491, 1, 243, 1, None, "c97799e04c2dfdd6")),
    "two-n4-found": ((two_disjoint_spanning_paths, 4, 2, 0),
        ("found", 53, 0, 37, 4, None, "8bbcea9a66be0718")),
    "two-n4-absent": ((two_disjoint_spanning_paths, 4, 1, 171),
        ("proven-absent", 2767, 8, 2707, 466, None, None)),
    "two-n7-reversed-slice": ((two_disjoint_spanning_paths, 7, 1, 24),
        ("found", 402, 1, 159, 3, None, "1b26c53340bdc97f")),
    "cycle-n10-half1": ((ham_cycle, 10, 9, 0),
        ("found", 593, 0, 83, 0, None, "d1782a8ad05877e9")),
    "near-n10-half1-starved": ((near_ham_cycle, 10, 9, 0, None, "starved"),
        ("found", 521, 0, 11, 0, 394, "136b25ae42643b5c")),
    "two-n10-half1": ((two_disjoint_spanning_paths, 10, 9, 2),
        ("found", 840, 0, 331, 0, None, "3f83c036b7aad316")),
    "path-n7-half2-salted": ((ham_path, 7, 3, 25, None, "half2"),
        ("found", 312, 2, 147, 3, None, "815d5a27d9a8cb04")),
    "cycle-n7-half2-salted": ((ham_cycle, 7, 3, 44, None, "half2"),
        ("found", 319, 2, 155, 5, None, "84fc72172ceee8d3")),
    "near-n7-half2-starved": ((near_ham_cycle, 7, 2, 32, None, "half2-starved"),
        ("found", 187, 1, 73, 1, 65, "8181754ff89e0075")),
    "two-n7-half2-salted": ((two_disjoint_spanning_paths, 7, 3, 40, None, "half2"),
        ("found", 572, 3, 347, 23, None, "6df3ed9080a7db02")),
}


@functools.lru_cache(maxsize=None)
def _pinned_outcome(name):
    return _pinned_call(*_PINNED_SEARCH_TREES[name][0])


def _search_tree_fingerprint(out):
    body = out.path if out.path is not None else out.paths
    digest = None
    if body is not None:
        digest = hashlib.sha256(repr(body).encode()).hexdigest()[:16]
    return (out.status.value, out.expansions, out.restarts, out.backtracks, out.cut_tests,
            out.missed, digest)


@pytest.mark.parametrize("name", sorted(_PINNED_SEARCH_TREES))
def test_search_tree_is_pinned(name):
    expected = _PINNED_SEARCH_TREES[name][1]
    assert _search_tree_fingerprint(_pinned_outcome(name)) == expected


def test_near_cycle_budget_runs_out_at_exactly_its_value():
    # this one-short search misses its starved node 65 and finds its cycle
    # on the 61 other nodes at 187 expansions, in its second slice (the
    # first ends at 122): a smaller budget runs out at exactly that budget
    # and names no node missed, and 187 gives the unbounded answer
    service, n, faults, seed, _, draw = _PINNED_SEARCH_TREES["near-n7-half2-starved"][0]
    for budget in (1, 122, 123, 186):
        out = _pinned_call(service, n, faults, seed, budget, draw)
        assert out.status is SearchStatus.BUDGET_EXHAUSTED and out.path is None
        assert out.missed is None and out.expansions == budget
        assert out.restarts == (budget > 122)
    assert (_pinned_call(service, n, faults, seed, 187, draw)
            == _pinned_outcome("near-n7-half2-starved"))


def test_search_counters(monkeypatch):
    # restarts: slices begun after the first; backtracks: path pops
    for name in ("path-n7-reversed-slice", "cycle-n7-salted-restart",
                 "two-n7-reversed-slice", "near-n7-full-restart"):
        assert _pinned_outcome(name).restarts == 1, name
    for name in ("path-n4-found", "cycle-n4-found", "near-n4-full",
                 "near-n4-degree-below-two", "two-n4-found", "cycle-n10-half1"):
        assert _pinned_outcome(name).restarts == 0, name
    # proofs of absence on 16 nodes outgrow the 64-expansion first slice; a
    # one-short search at minimum degree 2 is the covering-cycle search
    for name, restarts in (("path-n4-absent", 2), ("cycle-n4-absent", 4),
                           ("near-n4-full-absent", 4), ("two-n4-absent", 8)):
        assert _pinned_outcome(name).restarts == restarts, name
    # when found, the last visit is not expanded; the two-path search's
    # path also holds its helper node
    for name, helper in (("path-n4-found", 0), ("two-n10-half1", 1)):
        out = _pinned_outcome(name)
        length = (sum(map(len, out.paths)) if out.paths else len(out.path)) + helper
        assert out.backtracks == out.expansions + 1 - length, name
    assert _pinned_outcome("cycle-n4-absent").backtracks > 0
    # a path search enters its end only last, so a single slice pops every
    # node it visited but those left on the path: each expansion visits one
    # more node, the root stays. On one unbounded slice the two proofs of
    # absence explore the trees they explored before the schedule was sized
    # to the view (uncached calls: the patch must not reach the pins)
    monkeypatch.setattr(oracle, "_slice_cap", lambda size, phase: None)
    for name, expansions in (("path-n4-absent", 98), ("two-n4-absent", 852)):
        out = _pinned_call(*_PINNED_SEARCH_TREES[name][0])
        assert out.restarts == 0 and out.expansions == expansions, name
        assert out.backtracks == out.expansions - 1, name


@pytest.mark.parametrize("name", sorted(_PINNED_SEARCH_TREES))
def test_cut_test_runs_only_where_the_search_turns_back(monkeypatch, name):
    # the cut test is due at the first expansion after each backtrack from an
    # attempt's |V|-th on: an attempt with b backtracks runs none when b < |V|
    # and at most b - |V| + 1 otherwise, and never one at its root. Counted
    # per attempt, off the counters each attempt adds to the call's state
    real, attempts = oracle._dfs_cover, []

    def counted(table, s, ends, ends_last, state, *rest):
        backtracks, cut_tests = state.backtracks, state.cut_tests
        answer = real(table, s, ends, ends_last, state, *rest)
        attempts.append((len(table.ids), state.backtracks - backtracks,
                         state.cut_tests - cut_tests))
        return answer

    monkeypatch.setattr(oracle, "_dfs_cover", counted)
    args, expected = _PINNED_SEARCH_TREES[name]
    out = _pinned_call(*args)
    assert _search_tree_fingerprint(out) == expected
    assert len(attempts) > out.restarts
    for size, backtracks, cut_tests in attempts:
        assert cut_tests <= max(0, backtracks - size + 1)
    # a proof of absence backtracks through every attempt's whole tree
    assert out.cut_tests > 0 or out.status is not SearchStatus.PROVEN_ABSENT


def test_a_forward_run_runs_no_cut_test():
    # a covering path found without backtracking: 31 expansions for 32
    # nodes, and no cut test, not even at the root
    g = make_preset(VariantSpec.random(1), 5)
    out = ham_path(surviving_view(g, FaultSet.empty()), 0, 25)
    assert out.found and validate_path(g, FaultSet.empty(), 0, 25, out.path).is_hamiltonian
    assert (out.expansions, out.restarts, out.backtracks, out.cut_tests) == (31, 0, 0, 0)


def test_cut_tests_are_few_on_a_forward_run():
    # a 512-node covering cycle found with fewer backtracks than nodes: every
    # expansion runs only the end and degree checks
    out = _pinned_outcome("cycle-n10-half1")
    assert out.cut_tests == 0 < out.backtracks


def test_trace_records_carry_the_search_counters(graph8):
    rng = random.Random(11)
    f = sample_faults(graph8, 6, rng)
    view = surviving_view(graph8, f)
    s, t = view.nodes[3], view.nodes[-3]
    searches = [r for r in embed(graph8, f, s, t).trace.records if "service" in r]
    assert [r["service"] for r in searches] == ["ham_cycle", "two_disjoint_spanning_paths"]
    for rec in searches:
        assert list(rec)[:6] == ["service", "status", "expansions", "restarts", "backtracks",
                                 "cut_tests"]
        # one attempt each, which backtracks fewer times than its half keeps
        # nodes (at least 128 - 6), so the cut test never comes due
        assert rec["restarts"] == 0 and 0 < rec["backtracks"] < rec["expansions"]
        assert rec["backtracks"] < 128 - len(f) and rec["cut_tests"] == 0


def test_degree_check_misses_no_prune(monkeypatch):
    # the kept degree counters decide the degree prune before the cut test
    # runs, so every cut test must see a region that the degree rule,
    # recounted from scratch, keeps: no node of degree 0, and at most one of
    # degree 1 (counting the head), which is an end
    real, seen = oracle._cut_prune, []

    def recount_then_cut(rows, base, head, remaining, count, is_end):
        # rows name ids, slot id - base; the helper's slot -1 is named base - 1
        region = [u for u in range(len(rows)) if remaining[u]]
        degree = {u: sum(remaining[w - base] for w in rows[u]) + (head + base in rows[u])
                  for u in region}
        ones = [u for u in region if degree[u] == 1]
        assert 0 not in degree.values()
        assert len(ones) <= 1 and all(is_end[u] for u in ones)
        seen.append(head)
        return real(rows, base, head, remaining, count, is_end)

    monkeypatch.setattr(oracle, "_cut_prune", recount_then_cut)
    for name in ("path-n4-absent", "cycle-n4-absent", "near-n4-absent",
                 "near-n4-degree-below-two", "two-n4-absent", "two-n7-half2-salted"):
        _pinned_call(*_PINNED_SEARCH_TREES[name][0])
    assert len(seen) > 100


@pytest.mark.parametrize("seed", [3, 4])
def test_a_cut_vertex_is_proven_to_block_every_covering_path(seed):
    # every neighbour of block 0 outside it is faulty but the lowest, which
    # is then a cut vertex of the 97-node view: no covering cycle exists, nor
    # a covering path between two nodes outside the block. The degree check
    # does not see this, and a search without the cut test runs out of this
    # budget; with the test due from an attempt's |V|-th backtrack on, the
    # proofs take about 7 |V| expansions
    g = make_preset(VariantSpec.random(seed), 7)
    cut, *faulty = sorted({w for v in range(8) for w in g.neighbors(v) if w >= 8})
    view = surviving_view(g, FaultSet.of(nodes=faulty))
    s, t = view.nodes[-2:]
    assert view.has_node(cut) and min(s, t) >= 8 and len(view) == 97
    budget = SearchBudget(20 * len(view))
    for out in (ham_path(view, s, t, budget), ham_cycle(view, budget)):
        assert out.status is SearchStatus.PROVEN_ABSENT and out.cut_tests > 0


# ----------------------------------------------------------------------
# the cut test


def _cut(edges, head, ends, visited=()):
    """``_cut_prune`` on a hand-built graph, its ids shifted by 40: the
    region is every node but the head and ``visited``; ``ends`` are the
    nodes a path may stop on."""
    rows, live, ids, base = oracle._snapshot(FakeView([(u + 40, v + 40) for u, v in edges]))
    remaining = bytearray(len(rows))
    for v in ids:
        remaining[v - base] = v - 40 != head and v - 40 not in visited
    is_end = bytearray(len(rows))
    for v in ends:
        is_end[v + 40 - base] = 1
    return oracle._cut_prune(rows, base, head + 40 - base, remaining, sum(remaining), is_end)


def test_cut_test_keeps_a_region_without_cut_nodes():
    ring6 = [(i, (i + 1) % 6) for i in range(6)]
    assert not _cut(ring6, 0, ends=[5])
    assert not _cut(ring6 + [(0, 3)], 0, ends=[3])
    # after the path 0, 1, 2 the region is the line 3-4-5 hanging off the head
    assert not _cut(ring6 + [(0, 3)], 2, ends=[5], visited=[0, 1])


def test_cut_test_prunes_a_disconnected_region():
    triangle_and_edge = [(0, 1), (1, 2), (2, 0), (3, 4)]
    assert _cut(triangle_and_edge, 0, ends=[1, 3])
    # visiting 1 cuts 2 off from the head
    assert _cut([(0, 1), (1, 2), (0, 3)], 0, ends=[2, 3], visited=[1])


def test_cut_test_prunes_when_the_head_is_a_cut_node():
    bowtie = [(0, 1), (1, 3), (3, 0), (0, 2), (2, 4), (4, 0)]
    assert _cut(bowtie, 0, ends=[3, 4])


def test_cut_test_prunes_a_cut_node_with_two_hanging_pieces():
    # 1 leaves the triangles {2, 3} and {4, 5}; a path through 1 can enter
    # only one of them, even though each holds an end
    edges = [(0, 1), (1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5)]
    assert _cut(edges, 0, ends=[3, 5])


def test_cut_test_prunes_a_hanging_piece_without_an_end():
    # 1 leaves the triangle {2, 3} hanging; the path must end inside it
    edges = [(0, 1), (0, 4), (1, 4), (1, 2), (1, 3), (2, 3)]
    assert _cut(edges, 0, ends=[4])
    assert not _cut(edges, 0, ends=[3])
    # on the line 2-3-4-5 left after the path 0, 1, 2, node 4 leaves {5}
    ring6 = [(i, (i + 1) % 6) for i in range(6)]
    assert _cut(ring6 + [(0, 3)], 2, ends=[4], visited=[0, 1])


def _cut_reference(adj, head, region, ends):
    """The cut test from its definition, by deleting nodes one at a time."""

    def pieces(nodes):
        left, out = set(nodes), []
        while left:
            todo = [left.pop()]
            piece = set(todo)
            while todo:
                for w in adj[todo.pop()]:
                    if w in left:
                        left.discard(w)
                        piece.add(w)
                        todo.append(w)
            out.append(piece)
        return out

    whole = region | {head}
    if not region:
        return False
    if len(pieces(whole)) > 1:
        return True
    for p in whole:
        hanging = [c for c in pieces(whole - {p}) if head not in c]
        if len(hanging) > 1 or (hanging and not hanging[0] & ends):
            return True
    return False


def _cuts_along(table, path, ends):
    """``_cut_prune`` at every prefix of ``path`` (slots), the root's one
    node included, with ``ends`` (slots) the nodes the path may stop on."""
    remaining = table.live[:]
    is_end = bytearray(len(table.rows))
    for e in ends:
        is_end[e] = 1
    count = len(table.ids)
    for v in path:
        remaining[v] = 0
        count -= 1
        yield oracle._cut_prune(table.rows, table.base, v, remaining, count, is_end)


class _Region:
    """The view on ``rows``'s slots that keeps the nodes of ``region``."""

    def __init__(self, rows, region):
        self.nodes = tuple(sorted(region))
        self._rows = {v: tuple(w for w in rows[v] if w in region) for v in region}

    def has_node(self, v):
        return v in self._rows

    def neighbors(self, v):
        return self._rows[v]


def _simple_paths(rows, s, t):
    """Every simple path from slot s that enters slot t only last."""
    path, on = [s], {s, t}

    def grow():
        yield path
        for w in rows[path[-1]]:
            if w not in on:
                path.append(w)
                on.add(w)
                yield from grow()
                on.discard(path.pop())

    yield from grow()


@pytest.mark.parametrize("n", [4, 5, 6])
def test_cut_test_never_prunes_a_prefix_of_a_covering_path(n):
    # the cut test removes only subtrees that hold no covering path, so it
    # keeps every prefix of a covering path, the root's included: which is
    # why an attempt's root needs no cut test. Checked along every validated
    # answer of the path, cycle and two-path services (the helper node in
    # the path), and on views of at most 12 nodes against the enumerator at
    # every prefix of every simple path from s
    rng = random.Random(f"cut-sound/{n}")
    prefixes = enumerated = 0
    for _ in range(100):
        g = make_preset(VariantSpec.random(rng.randrange(1 << 30)), n)
        f = sample_faults(g, rng.randrange(2 * n - 2), rng)
        scope = rng.choice((None, g.decomposition.half1, g.decomposition.half2))
        view = SurvivingView(g, f, scope=scope)
        if len(view) < 4:
            continue
        # the view as faults of the whole graph, for the validator
        outside = FaultSet.of(nodes=[v for v in g.nodes if not view.has_node(v)], edges=f.edges)
        # the search's own table: rows of ids by slot, id - base
        table = oracle._snapshot(view)
        rows, live, ids, base = table
        answers = []
        s, t = rng.sample(view.nodes, 2)
        out = ham_path(view, s, t)
        if out.found:
            assert validate_path(g, outside, s, t, out.path).is_hamiltonian
            answers.append((table, out.path, (t,)))
        out = ham_cycle(view)
        if out.found:
            assert validate_cycle(g, outside, out.path).is_hamiltonian
            answers.append((table, out.path, rows[out.path[0] - base]))
        x1, y1, x2, y2 = rng.sample(view.nodes, 4)
        out = two_disjoint_spanning_paths(view, x1, y1, x2, y2)
        if out.found:
            p1, p2 = out.paths
            for (a, b, p), other in (((x1, y1, p1), p2), ((x2, y2, p2), p1)):
                rest = FaultSet.of(nodes=outside.nodes | set(other), edges=f.edges)
                assert validate_path(g, rest, a, b, p).is_hamiltonian
            # the helper takes slot -1, past the range, named base - 1
            helper = base - 1
            two = rows[:]
            two[y1 - base] += (helper,)
            two[x2 - base] += (helper,)
            two.append((y1, x2))
            answers.append((oracle._Table(two, live + b"\x01", ids + (oracle._VIRTUAL,), base),
                            p1 + (helper,) + p2, (y2,)))
        for table_, path, ends in answers:
            slots = [v - base for v in path]
            assert not any(_cuts_along(table_, slots, [v - base for v in ends])), (ids, path)
            prefixes += len(path)
        if len(view) <= 12:
            local = [tuple(w - base for w in row) for row in rows]
            nodes = {v - base for v in ids}
            for path in _simple_paths(local, s - base, t - base):
                *_, cut = _cuts_along(table, path, (t - base,))
                if cut:
                    region = _Region(local, nodes - set(path[:-1]))
                    assert not enumerate_ham_path_exists(region, path[-1], t - base), path
                    enumerated += 1
    assert prefixes > 2000 and (n > 4 or enumerated > 500)


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=200, deadline=None)
def test_cut_test_matches_its_definition_in_any_dfs_order(seed):
    rng = random.Random(seed)
    size = rng.randrange(2, 10)
    density = rng.choice((0.25, 0.4, 0.6))
    edges = [(u, v) for u in range(size) for v in range(u + 1, size) if rng.random() < density]
    adj = {v: set() for v in range(size)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    head = rng.randrange(size)
    region = {v for v in range(size) if v != head and rng.random() < 0.8}
    ends = {v for v in region if rng.random() < 0.3}
    expected = _cut_reference(adj, head, region, ends)
    remaining = bytearray(v in region for v in range(size))
    is_end = bytearray(v in ends for v in range(size))
    base = rng.randrange(100)  # rows name ids, slot id - base
    for _ in range(3):
        rows = [tuple(w + base for w in rng.sample(sorted(adj[v]), len(adj[v])))
                for v in range(size)]
        assert oracle._cut_prune(rows, base, head, remaining, len(region), is_end) == expected


def test_a_view_too_small_for_a_cycle_has_none(graph4):
    # nodes 6 and 7 are all that is left of the block: no covering cycle,
    # and nothing left at all once they go too
    two = SurvivingView(graph4, FaultSet.of(nodes=range(6)), scope=range(8))
    assert len(two) == 2
    assert ham_cycle(two).status is SearchStatus.PROVEN_ABSENT
    empty = SurvivingView(graph4, FaultSet.of(nodes=range(8)), scope=range(8))
    assert near_ham_cycle(empty).status is SearchStatus.PROVEN_ABSENT


def test_the_enumerator_needs_distinct_endpoints(graph4):
    view = SurvivingView(graph4, FaultSet.empty(), scope=range(8))
    with pytest.raises(PreconditionViolated, match="distinct"):
        enumerate_ham_path_exists(view, 3, 3)
