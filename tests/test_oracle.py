import functools
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thln import (
    FaultSet,
    PreconditionViolated,
    SearchBudget,
    SearchStatus,
    TooLarge,
    VariantSpec,
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
from thln.faults import sample_faults


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

    def min_degree_witness(self):
        v = min(self.nodes, key=lambda u: (len(self._adj[u]), u))
        return len(self._adj[v]), v


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
    g = make_preset(VariantSpec.base3_default(), 3)
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
    g = make_preset(VariantSpec.base3_default(), 3)
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
    with pytest.raises(TooLarge):
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


# ----------------------------------------------------------------------
# pinned search tree


@functools.lru_cache(maxsize=None)
def _pinned_graph(n):
    return make_preset(VariantSpec.random({4: 2, 7: 1}[n]), n)


def _drawn(n, faults, seed, picks):
    """Seeded instance: uniform faults, then ``picks`` distinct survivors."""
    graph = _pinned_graph(n)
    rng = random.Random(seed)
    view = surviving_view(graph, sample_faults(graph, faults, rng))
    return view, rng.sample(view.nodes, picks)


def _pinned_call(service, n, faults, seed, budget=None):
    picks = {ham_path: 2, two_disjoint_spanning_paths: 4}.get(service, 0)
    view, ends = _drawn(n, faults, seed, picks)
    return service(view, *ends, budget and SearchBudget(budget))


#: (service, n, faults, seed, budget) -> (status, expansions, missed, digest
#: of the path or path pair). Every search is deterministic, so any change in
#: pruning or successor order moves these numbers. The n = 7 cases run past
#: the first 5,000-expansion slice: the path and the two-path pair finish in
#: the reversed slice, the cycle in the first salted restart.
_PINNED_SEARCH_TREES = {
    "path-n4-found": ((ham_path, 4, 3, 0),
        ("found", 30, None, "d63c987d15c44b08")),
    "path-n4-absent": ((ham_path, 4, 4, 8),
        ("proven-absent", 98, None, None)),
    "path-n7-reversed-slice": ((ham_path, 7, 5, 90),
        ("found", 5135, None, "d9e933071d4c6c90")),
    "path-n7-budget-in-slice-2": ((ham_path, 7, 5, 90, 5050),
        ("budget-exhausted", 5050, None, None)),
    "cycle-n4-found": ((ham_cycle, 4, 2, 0),
        ("found", 24, None, "3bcffaa4b8b0968e")),
    "cycle-n4-absent": ((ham_cycle, 4, 3, 2136),
        ("proven-absent", 130, None, None)),
    "cycle-n7-budget-in-slice-2": ((ham_cycle, 7, 5, 170, 5200),
        ("budget-exhausted", 5200, None, None)),
    "cycle-n7-salted-restart": ((ham_cycle, 7, 5, 170),
        ("found", 5315, None, "ee899f765afe6db5")),
    "near-n4-full": ((near_ham_cycle, 4, 2, 0),
        ("found", 24, None, "3bcffaa4b8b0968e")),
    "near-n4-degree-below-two": ((near_ham_cycle, 4, 3, 26),
        ("found", 15, 14, "df6a42f59d8cb0c1")),
    "near-n4-full-absent-then-missed": ((near_ham_cycle, 4, 3, 2136),
        ("found", 142, 7, "d8ff739d4c339489")),
    "near-n4-absent": ((near_ham_cycle, 4, 4, 342),
        ("proven-absent", 182, None, None)),
    "near-n7-full-restart": ((near_ham_cycle, 7, 5, 170),
        ("found", 5315, None, "ee899f765afe6db5")),
    "two-n4-found": ((two_disjoint_spanning_paths, 4, 2, 0),
        ("found", 53, None, "8bbcea9a66be0718")),
    "two-n4-absent": ((two_disjoint_spanning_paths, 4, 1, 171),
        ("proven-absent", 833, None, None)),
    "two-n7-reversed-slice": ((two_disjoint_spanning_paths, 7, 1, 24),
        ("found", 5139, None, "1b26c53340bdc97f")),
}


def _search_tree_fingerprint(out):
    body = out.path if out.path is not None else out.paths
    digest = None
    if body is not None:
        digest = hashlib.sha256(repr(body).encode()).hexdigest()[:16]
    return out.status.value, out.expansions, out.missed, digest


@pytest.mark.parametrize("name", sorted(_PINNED_SEARCH_TREES))
def test_search_tree_is_pinned(name):
    call, expected = _PINNED_SEARCH_TREES[name]
    assert _search_tree_fingerprint(_pinned_call(*call)) == expected
