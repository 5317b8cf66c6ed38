"""Seeded workload generators, the timed operation of each workload, and the
correctness gate every result passes before it counts.

Every instance is generated here from the workload seed; ``thln`` receives
only the graph, the faults and the endpoints. Package functions are called
through their modules (``topology.make_preset``, ``embedder.embed``,
``oracle.<service>``) so that the traced run's wrappers see the calls.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Optional

from thln import embedder, faults, oracle, topology
from thln.faults import FaultSet, neighbor_condition
from thln.validate import validate_cycle, validate_path

N_EMBED = 10  # dimension of the embed workloads


@dataclass(frozen=True)
class EmbedCase:
    graph: topology.ThlnGraph
    faults: FaultSet
    s: int
    t: int
    expect: Optional[str]  # required top-level case, or None


@dataclass(frozen=True)
class ServiceCase:
    kind: str
    service: str
    graph: topology.ThlnGraph
    faults: FaultSet
    view: faults.SurvivingView
    ends: tuple[int, ...]
    starved: Optional[int]  # near_ham_cycle: the degree-1 node it must miss


# ----------------------------------------------------------------------
# generators


def _random_graph(rng: random.Random, n: int) -> topology.ThlnGraph:
    return topology.make_preset(topology.VariantSpec.random(rng.randrange(1 << 30)), n)


def _sample(rng: random.Random, elements: list, count: int) -> FaultSet:
    picked = rng.sample(elements, count)
    return FaultSet.of(
        nodes=(p for k, p in picked if k == "node"),
        edges=(p for k, p in picked if k == "edge"),
    )


def _endpoints(rng: random.Random, g, f: FaultSet) -> tuple[int, int]:
    view = faults.surviving_view(g, f)
    while True:
        s, t = rng.sample(view.nodes, 2)
        if neighbor_condition(view, s, t):
            return s, t


def build_uniform(rng: random.Random, count: int) -> list[EmbedCase]:
    """The ``stress`` sampler's distribution: a fresh random-variant graph
    per op, 2n - 10 faults uniform over nodes and links, endpoints resampled
    until the neighbor condition holds."""
    cases = []
    for _ in range(count):
        g = _random_graph(rng, N_EMBED)
        elements = [("node", v) for v in g.nodes] + [("edge", e) for e in g.edges]
        f = _sample(rng, elements, 2 * N_EMBED - 10)
        s, t = _endpoints(rng, g, f)
        cases.append(EmbedCase(g, f, s, t, None))
    return cases


#: Concentrated placements in op order: (required top case, starved node?,
#: fault count). k = n - 1 is the halves' dimension; 2k - 9 faults in half 1
#: select cases 2/3 and 2k - 8 select cases 4/5, the starved node (in-half
#: degree 1, which costs k - 1 edge faults) picks the odd case.
PLACEMENTS = (
    ("2", False, 2 * (N_EMBED - 1) - 9),
    ("4", False, 2 * (N_EMBED - 1) - 8),
    ("3", True, 1),
    ("5", True, 2),
)


def build_concentrated(rng: random.Random, count: int) -> list[EmbedCase]:
    """Every fault inside the top-level half 1; placements rotate so that the
    top level reaches cases 2, 4, 3 and 5 in turn."""
    k = N_EMBED - 1
    cases = []
    for i in range(count):
        expect, starved, extra = PLACEMENTS[i % len(PLACEMENTS)]
        g = _random_graph(rng, N_EMBED)
        h1 = g.decomposition.half1_set
        elements = [("node", v) for v in g.decomposition.half1]
        elements += [("edge", e) for e in g.edges if e[0] in h1 and e[1] in h1]
        if not starved:
            f = _sample(rng, elements, extra)
        else:
            q = rng.choice(g.decomposition.half1)
            intra = [w for w in g.neighbors(q) if w in h1]
            rng.shuffle(intra)
            keep = intra[k - 1]
            rest = [
                x for x in elements
                if x != ("node", q) and x != ("node", keep)
                and not (x[0] == "edge" and q in x[1])
            ]
            more = _sample(rng, rest, extra)
            f = FaultSet.of(more.nodes, list(more.edges) + [(q, w) for w in intra[: k - 1]])
        s, t = _endpoints(rng, g, f)
        cases.append(EmbedCase(g, f, s, t, expect))
    return cases


def _uniform_view(rng: random.Random, n: int, fault_count: int):
    """A fresh random-variant graph with ``fault_count`` faults uniform over
    nodes and links: ``cli._random_instance`` and the acceptance tests'
    ``sample_faults``."""
    g = _random_graph(rng, n)
    elements = [("node", v) for v in g.nodes] + [("edge", e) for e in g.edges]
    f = _sample(rng, elements, fault_count)
    return g, f, faults.surviving_view(g, f)


def _uniform(n: int, fault_count: int, n_ends: int):
    def sample(rng):
        g, f, view = _uniform_view(rng, n, fault_count)
        return g, f, view, tuple(rng.sample(view.nodes, n_ends)), None
    return sample


def _path_enum(rng):  # acceptance criterion 2: 2-10 of 16 nodes survive
    g = _random_graph(rng, 4)
    keep = rng.sample(range(16), rng.randrange(2, 11))
    f = FaultSet.of(nodes=[v for v in g.nodes if v not in keep])
    view = faults.surviving_view(g, f)
    return g, f, view, tuple(rng.sample(view.nodes, 2)), None


def _cycle_n7(rng):
    # `thln check` service-large-fault-cycle and acceptance criterion 4:
    # n = 7, 2n - 9 faults, redrawn until the minimum degree is at least 2
    while True:
        g, f, view = _uniform_view(rng, 7, 5)
        delta, _ = view.min_degree_witness()
        if delta is not None and delta >= 2:
            return g, f, view, (), None


def _near_n4(rng):
    # the oracle tests' degree-one near cycle: three of a node's four links
    # fail, so every covering cycle must miss that node
    g = _random_graph(rng, 4)
    q = rng.choice(g.nodes)
    nbrs = list(g.neighbors(q))
    rng.shuffle(nbrs)
    f = FaultSet.of(edges=[(q, w) for w in nbrs[:3]])
    return g, f, faults.surviving_view(g, f), (), q


#: search-small's op kinds in rotation: (kind, service, sampler). Every
#: sampler is one that the repository's ``thln check`` suites or its tests
#: already run. All but ``path-enum`` are inside the service guarantees, where
#: a FOUND answer is required; ``path-enum`` is beyond them, so its answers
#: are checked against ``oracle.enumerate_ham_path_exists``.
SEARCH_KINDS = (
    # `thln check` service-covering-path: n - 3 faults
    ("path-n4", "ham_path", _uniform(4, 1, 2)),
    # acceptance criterion 3
    ("path-n5", "ham_path", _uniform(5, 2, 2)),
    ("path-enum", "ham_path", _path_enum),
    # `thln check` service-covering-cycle: n - 2 faults
    ("cycle-n4", "ham_cycle", _uniform(4, 2, 0)),
    ("cycle-n7", "ham_cycle", _cycle_n7),
    ("near-n4", "near_ham_cycle", _near_n4),
    # `thln check` service-disjoint-path-cover: no faults
    ("pair-n4", "two_disjoint_spanning_paths", _uniform(4, 0, 4)),
    # acceptance criterion 5
    ("pair-n5", "two_disjoint_spanning_paths", _uniform(5, 1, 4)),
)


def build_search(rng: random.Random, count: int) -> list[ServiceCase]:
    """Direct service calls; the kind rotates with the op index and every
    instance has a graph of its own."""
    cases = []
    for i in range(count):
        kind, service, sampler = SEARCH_KINDS[i % len(SEARCH_KINDS)]
        g, f, view, ends, starved = sampler(rng)
        cases.append(ServiceCase(kind, service, g, f, view, ends, starved))
    return cases


# ----------------------------------------------------------------------
# timed calls and the correctness gate


def call_embed(case: EmbedCase):
    return embedder.embed(case.graph, case.faults, case.s, case.t)


def call_service(case: ServiceCase):
    return getattr(oracle, case.service)(case.view, *case.ends)


def check_embed(case: EmbedCase, res) -> Optional[str]:
    """None when ``res`` passes, else the reason it fails."""
    verdict = validate_path(case.graph, case.faults, case.s, case.t, res.path)
    if not verdict.is_valid:
        return f"invalid path: {verdict.reason}"
    if verdict.missed != res.missed:
        return f"missed {res.missed} but the validator finds {verdict.missed}"
    top = res.trace.top_case()
    if case.expect is not None and (top or "").split(".")[0] != case.expect:
        return f"generator drift: top case {top}, placement requires case {case.expect}"
    return None


def check_service(case: ServiceCase, out) -> Optional[str]:
    """None when ``out`` passes, else the reason it fails.

    A FOUND answer must pass the validator. Any other answer fails, except a
    proven-absent answer on ``path-enum`` that the enumerator confirms.
    Budget exhaustion always fails."""
    g, f = case.graph, case.faults
    if out.status is not oracle.SearchStatus.FOUND:
        if case.kind == "path-enum" and out.status is oracle.SearchStatus.PROVEN_ABSENT:
            if not oracle.enumerate_ham_path_exists(case.view, *case.ends):
                return None
            return "path-enum: proven absent, but the enumerator finds a covering path"
        return f"{case.kind}: {out.status.value} inside the service guarantee"
    if case.service == "ham_path":
        ok = validate_path(g, f, *case.ends, out.path).is_hamiltonian
    elif case.service == "ham_cycle":
        ok = validate_cycle(g, f, out.path).is_hamiltonian
    elif case.service == "near_ham_cycle":
        v = validate_cycle(g, f, out.path)
        ok = v.is_near_hamiltonian and v.missed == out.missed == case.starved
    else:
        # each path must cover what survives once the other path's nodes are
        # removed: disjoint, and jointly covering every surviving node
        x1, y1, x2, y2 = case.ends
        p1, p2 = out.paths
        ok = all(
            validate_path(g, FaultSet(f.nodes | frozenset(other), f.edges), a, b, p)
            .is_hamiltonian
            for p, other, a, b in ((p1, p2, x1, y1), (p2, p1, x2, y2))
        )
    return None if ok else f"{case.kind}: the validator rejects the {case.service} answer"


# ----------------------------------------------------------------------
# deterministic section


class Tally:
    """Counts that depend only on the code and the seed, kept apart from
    wall times. Only the first pass over the pool is tallied, so two runs
    with the same seed must agree exactly."""

    def __init__(self):
        self.services: dict[str, dict] = {}
        self.nodes: dict[str, int] = {}
        self.top_cases: dict[str, int] = {}
        self.levels = 0
        self.statuses: list[str] = []
        self.failures: dict[str, int] = {}
        self._digest = hashlib.sha256()

    def _service(self, name: str, status: str, expansions: int) -> None:
        rec = self.services.setdefault(name, {"calls": 0, "expansions": 0, "status": {}})
        rec["calls"] += 1
        rec["expansions"] += expansions
        rec["status"][status] = rec["status"].get(status, 0) + 1

    def add_nodes(self, name: str, nodes: int) -> None:
        """Surviving-view size seen by a service call (traced run only)."""
        self.nodes[name] = self.nodes.get(name, 0) + nodes

    def add_failure(self, error: str) -> None:
        reason = error.split(":")[0]
        self.failures[reason] = self.failures.get(reason, 0) + 1
        self._digest.update(b"failed")

    def add_embed(self, res) -> None:
        for rec in res.trace.records:
            if "service" in rec:
                self._service(rec["service"], rec["status"], rec["expansions"])
        labels = res.trace.labels()
        self.levels += len(labels)
        top = labels[0] if labels else "none"
        self.top_cases[top] = self.top_cases.get(top, 0) + 1
        self._digest.update(repr((res.path, res.missed)).encode())

    def add_service(self, case: ServiceCase, out) -> None:
        self._service(case.service, out.status.value, out.expansions)
        self.statuses.append(out.status.value[0])  # f / p / b
        self._digest.update(repr((out.status.value, out.path, out.paths, out.missed)).encode())

    def section(self) -> dict:
        out = {
            "services": {k: self.services[k] for k in sorted(self.services)},
            "levels": self.levels,
            "failures": dict(sorted(self.failures.items())),
            "results_sha256": self._digest.hexdigest(),
        }
        if self.top_cases:
            out["top_cases"] = dict(sorted(self.top_cases.items()))
        if self.statuses:
            out["status_sequence"] = "".join(self.statuses)
        if self.nodes:
            out["nodes"] = dict(sorted(self.nodes.items()))
        return out


# ----------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[random.Random, int], list]
    pool: int  # instances built in set-up; a run makes whole passes over them
    call: Callable
    check: Callable
    tally: Callable[[Tally, object, object], None]
    drift: Callable[[Tally], Optional[str]]


def _uniform_drift(tally: Tally) -> Optional[str]:
    total = sum(tally.top_cases.values())
    case1 = sum(c for label, c in tally.top_cases.items() if label.split(".")[0] == "1")
    if total and case1 < 0.9 * total:
        return f"generator drift: only {case1} of {total} ops dispatch case 1 at the top"
    return None


def _no_drift(tally: Tally) -> Optional[str]:
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "uniform-n10",
            "stress-campaign traffic at n=10: 2n-10 uniform faults, top case 1, "
            "recursion to dimension 7 with a ham_path search on every half 2",
            build_uniform, pool=32,
            call=call_embed, check=check_embed,
            tally=lambda t, case, res: t.add_embed(res), drift=_uniform_drift,
        ),
        Workload(
            "concentrated-n10",
            "all faults in top half 1: cases 2-5 in rotation, time in cycle and "
            "disjoint-path search on 512-node halves, no recursion",
            build_concentrated, pool=24,
            call=call_embed, check=check_embed,
            tally=lambda t, case, res: t.add_embed(res), drift=_no_drift,
        ),
        Workload(
            "search-small",
            "the four search services called directly on instances drawn like thln check "
            "and the test suite draw them (n=4,5,7): per-call set-up, slice restarts, "
            "enumerator-checked absent answers",
            build_search, pool=len(SEARCH_KINDS) * 350,
            call=call_service, check=check_service,
            tally=lambda t, case, out: t.add_service(case, out), drift=_no_drift,
        ),
    )
}
