import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thln import (
    FaultSet,
    PathStatus,
    VariantSpec,
    make_preset,
    surviving_view,
    validate_cycle,
    validate_path,
)
from thln.oracle import ham_path
from thln.topology import ThlnGraph


def _tiny_graph(edges, dim=3):
    # validators only look at adjacency and dimension
    rows = [set() for _ in range(2 ** dim)]
    for u, v in edges:
        rows[u].add(v)
        rows[v].add(u)
    return ThlnGraph(dim, tuple(tuple(sorted(r)) for r in rows), None)


NONE = FaultSet.empty()


def test_full_cover_is_hamiltonian(graph4):
    view = surviving_view(graph4, NONE)
    out = ham_path(view, 0, 9)
    verdict = validate_path(graph4, NONE, 0, 9, out.path)
    assert verdict.status is PathStatus.HAMILTONIAN


def test_missing_two_nodes_is_invalid(graph4):
    view = surviving_view(graph4, NONE)
    out = ham_path(view, 0, 9)
    verdict = validate_path(graph4, NONE, 0, out.path[-3], out.path[:-2])
    assert verdict.status is PathStatus.INVALID
    assert "covers" in verdict.reason


def test_dead_edge_reported_with_position(graph4):
    seq = (0, graph4.neighbors(0)[0])
    f = FaultSet.of(edges=[seq])
    verdict = validate_path(graph4, f, seq[0], seq[1], seq)
    assert verdict.status is PathStatus.INVALID
    assert verdict.position == 0
    assert "dead edge" in verdict.reason


def test_wrong_endpoints_and_repeats():
    g = make_preset(VariantSpec("base3-default"), 3)
    assert validate_path(g, NONE, 0, 5, (1, 3, 5)).status is PathStatus.INVALID
    assert validate_path(g, NONE, 0, 0, (0,)).status is PathStatus.INVALID
    bad = validate_path(g, NONE, 0, 1, (0, 1, 0, 1))
    assert bad.status is PathStatus.INVALID and bad.position == 2


@pytest.mark.parametrize(
    "faulty,t,seq,reason,position",
    [((), 99, (0, 99), "unknown node 99", 1),
     ((1,), 1, (0, 1), "faulty node 1", 1),
     ((), 1, (), "empty sequence", None),
     ((), 5, (0, 1), "ends at 1, expected 5", 1)],
    ids=["unknown-id", "faulty-node", "empty", "wrong-last-node"],
)
def test_path_verdict_names_the_first_failure(faulty, t, seq, reason, position):
    g = make_preset(VariantSpec("base3-default"), 3)
    verdict = validate_path(g, FaultSet.of(nodes=faulty), 0, t, seq)
    assert verdict.status is PathStatus.INVALID
    assert (verdict.reason, verdict.position) == (reason, position)


def test_empty_cycle_is_invalid():
    verdict = validate_cycle(make_preset(VariantSpec("base3-default"), 3), NONE, ())
    assert verdict.status is PathStatus.INVALID and verdict.reason == "empty sequence"


def test_cycle_triangle_and_near_cycle():
    tri = _tiny_graph([(0, 1), (1, 2), (0, 2)])
    f = FaultSet.of(nodes=[3, 4, 5, 6, 7])
    assert validate_cycle(tri, f, (0, 1, 2)).status is PathStatus.HAMILTONIAN

    # a 4-cycle plus one attached node: the 4-cycle is a near cover
    g = _tiny_graph([(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)])
    f = FaultSet.of(nodes=[5, 6, 7])
    verdict = validate_cycle(g, f, (0, 1, 2, 3))
    assert verdict.status is PathStatus.NEAR_HAMILTONIAN
    assert verdict.missed == 4


def test_cycle_requires_closing_edge():
    g = _tiny_graph([(0, 1), (1, 2), (2, 3), (3, 0)])
    f = FaultSet.of(nodes=[4, 5, 6, 7])
    assert validate_cycle(g, f, (0, 1, 2)).status is PathStatus.INVALID
    assert validate_cycle(g, f, (0, 1)).status is PathStatus.INVALID


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_reversed_sequence_swaps_endpoints(seed):
    rng = random.Random(seed)
    g = make_preset(VariantSpec.random(8), 4)
    f = FaultSet.of(nodes=rng.sample(range(16), rng.randrange(0, 3)))
    view = surviving_view(g, f)
    s, t = rng.sample(view.nodes, 2)
    out = ham_path(view, s, t)
    if not out.found:
        return
    fwd = validate_path(g, f, s, t, out.path)
    rev = validate_path(g, f, t, s, tuple(reversed(out.path)))
    assert fwd.status == rev.status
    assert fwd.missed == rev.missed
