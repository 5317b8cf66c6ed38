import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import pytest

from thln import VariantSpec, make_preset
from thln.topology import ThlnGraph, graph_from_json_obj


def cross_partner(g, v):
    """The reference partner: the node matched with ``v`` across the top
    level's cut, read off the decomposition the embedder reads. A
    dimension-3 base graph has no decomposition, so no cross matching."""
    assert g.decomposition is not None, "dimension-3 base graphs have no cross matching"
    return g.decomposition.partner(v)


def base_graph(edges):
    """The graph of a dimension-3 graph file listing ``edges``: an 8-node
    base other than the built-in ones comes in through the loader."""
    return graph_from_json_obj({"dimension": 3, "edges": [list(e) for e in edges]})


def _join(g1, g2, matching):
    """The reference builder of one level: equal-dimension ``g1`` and ``g2``
    joined by ``matching``, a dict from each node of ``g1`` onto a node of
    ``g2`` in the halves' own ids; ``g2``'s ids are offset by ``g1``'s size.
    Each row keeps its level order, its new cross partner last."""
    n = g1.num_nodes
    rows = [list(row) for row in g1.adjacency] + [[w + n for w in row] for row in g2.adjacency]
    for u, w in matching.items():
        rows[u].append(w + n)
        rows[w + n].append(u)
    return ThlnGraph(g1.dimension + 1, rows)


@pytest.fixture(scope="session")
def join():
    return _join


@pytest.fixture(scope="session")
def graph8():
    return make_preset(VariantSpec.random(7), 8)


@pytest.fixture(scope="session")
def graph9():
    return make_preset(VariantSpec.random(3), 9)


@pytest.fixture(scope="session")
def graph4():
    return make_preset(VariantSpec.random(2), 4)
