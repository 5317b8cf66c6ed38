"""Independent classification of node sequences against a graph and fault set.

This module recomputes liveness straight from the graph and the fault set
and never trusts the producer's claims; it is the arbiter the search and
embedding code must satisfy. Malformed input yields an Invalid verdict with
the first failing position, not an exception.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import PathFault
from .faults import FaultSet
from .topology import ThlnGraph, _norm_edge


class PathStatus(enum.Enum):
    HAMILTONIAN = "hamiltonian"
    NEAR_HAMILTONIAN = "near-hamiltonian"
    INVALID = "invalid"


@dataclass(frozen=True)
class PathClass:
    status: PathStatus
    missed: Optional[int] = None
    fault: Optional[PathFault] = None  # what makes an Invalid sequence invalid

    @property
    def reason(self) -> Optional[str]:
        return self.fault and str(self.fault)

    @property
    def position(self) -> Optional[int]:
        """The first failing index of an Invalid sequence, if it has one."""
        return self.fault and self.fault.position

    @property
    def is_hamiltonian(self) -> bool:
        return self.status is PathStatus.HAMILTONIAN

    @property
    def is_near_hamiltonian(self) -> bool:
        return self.status is PathStatus.NEAR_HAMILTONIAN

    @property
    def is_valid(self) -> bool:
        return self.status is not PathStatus.INVALID


def _invalid(text: str, nodes: tuple = (), position: Optional[int] = None) -> PathClass:
    return PathClass(PathStatus.INVALID, fault=PathFault(text, nodes, position))


def _classify(g: ThlnGraph, f: FaultSet, seq: Sequence[int], *, closed: bool) -> PathClass:
    """The walk checks shared by paths and cycles, then the cover: Invalid at
    the first failing position, else by the live nodes the walk leaves out."""
    alive = set(g.nodes) - f.nodes
    seen: set[int] = set()
    for i, v in enumerate(seq):
        if not isinstance(v, int) or not (0 <= v < g.num_nodes):
            return _invalid("unknown node {!r}", (v,), i)
        if v not in alive:
            return _invalid("faulty node {}", (v,), i)
        if v in seen:
            return _invalid("repeated node {}", (v,), i)
        seen.add(v)
    hops = len(seq) - 1 + (1 if closed else 0)
    for i in range(hops):
        u, v = seq[i], seq[(i + 1) % len(seq)]
        if not g.has_edge(u, v):
            return _invalid("({},{}) is not an edge", (u, v), i)
        if _norm_edge(u, v) in f.edges:
            return _invalid("dead edge ({},{})", (u, v), i)
    left = alive - seen
    if not left:
        return PathClass(PathStatus.HAMILTONIAN)
    if len(left) == 1:
        (missed,) = left
        return PathClass(PathStatus.NEAR_HAMILTONIAN, missed=missed)
    return _invalid(f"covers {len(seen)} of {len(alive)} surviving nodes")


def validate_path(
    g: ThlnGraph, f: FaultSet, s: int, t: int, seq: Sequence[int]
) -> PathClass:
    """Classify ``seq`` as a hamiltonian / near-hamiltonian s-t path or Invalid."""
    if not seq:
        return _invalid("empty sequence")
    if len(seq) < 2:
        return _invalid("a path needs at least two nodes")
    if seq[0] != s:
        return _invalid("starts at {}, expected {}", (seq[0], s), 0)
    if seq[-1] != t:
        return _invalid("ends at {}, expected {}", (seq[-1], t), len(seq) - 1)
    return _classify(g, f, seq, closed=False)


def validate_cycle(g: ThlnGraph, f: FaultSet, seq: Sequence[int]) -> PathClass:
    """Classify ``seq`` (closing edge required) as a covering cycle or Invalid."""
    if not seq:
        return _invalid("empty sequence")
    if len(seq) < 3:
        return _invalid("a cycle needs at least three nodes")
    return _classify(g, f, seq, closed=True)
