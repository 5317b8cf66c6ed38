"""Spans around the calls into each thln layer, for the traced run only.

``Tracer.install`` replaces module attributes that the package looks up at
call time with timed wrappers:

- ``thln.topology.make_preset``                     -> ``topology.make_preset``
- ``thln.faults.SurvivingView`` (and the name
  ``thln.embedder`` imported)                       -> ``faults.SurvivingView``
- ``thln.embedder.partition_decomposition``         -> ``faults.partition``
- ``thln.oracle.<service>`` for the four services   -> ``oracle.<service>``
- ``thln.embedder.splice``                          -> ``embedder.splice``

``uninstall`` puts the originals back. No file of the package changes. The
benchmark opens an ``op`` span around each timed call and a ``validate`` span
around the correctness gate; layer spans opened inside an op become its
children. Spans stay in memory and are aggregated once the run ends.
"""
from __future__ import annotations

import functools
import time
from typing import Optional

from thln import embedder, faults, oracle, topology

SERVICES = ("ham_path", "ham_cycle", "near_ham_cycle", "two_disjoint_spanning_paths")


class Span:
    __slots__ = ("name", "parent", "start", "dur", "expansions", "nodes", "status")

    def __init__(self, name: str, parent: Optional[int]):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.dur = 0.0
        self.expansions = 0
        self.nodes = 0
        self.status = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans

    def open(self, name: str) -> Span:
        span = Span(name, self._open[-1] if self._open else None)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.dur = time.perf_counter() - span.start
        self._open.pop()

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        if self._open:
            raise RuntimeError("take() with spans still open")
        spans, self.spans = self.spans, []
        return spans

    # -- wrappers

    def _wrap(self, module, attr: str, name: str, note=None) -> None:
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                self.close(span)
            if note is not None:
                note(span, args, out)
            return out

        setattr(module, attr, traced)
        self._undo.append((module, attr, orig))

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        tracer = self
        base = faults.SurvivingView

        class TracedView(base):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                span = tracer.open("faults.SurvivingView")
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    tracer.close(span)

        for module in (faults, embedder):
            self._undo.append((module, "SurvivingView", module.SurvivingView))
            module.SurvivingView = TracedView

        def note_search(span, args, out):
            span.nodes = len(args[0])
            span.expansions = out.expansions
            span.status = out.status

        self._wrap(topology, "make_preset", "topology.make_preset")
        self._wrap(embedder, "partition_decomposition", "faults.partition")
        self._wrap(embedder, "splice", "embedder.splice")
        for svc in SERVICES:
            self._wrap(oracle, svc, f"oracle.{svc}", note_search)

    def uninstall(self) -> None:
        while self._undo:
            module, attr, orig = self._undo.pop()
            setattr(module, attr, orig)


def _per_op(total: float, n_ops: int) -> float:
    return total / n_ops if n_ops else 0.0


def layer_metrics(op_spans: list[Span], setup_spans: list[Span], n_ops: int,
                  setup_reps: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``name -> (value, unit)``.

    Counts and seconds are per timed op (per set-up for ``topology``).
    Ratios over a service that was never called read 0.
    """
    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    exps: dict[str, int] = {}
    nodes: dict[str, int] = {}
    absent: dict[str, int] = {}
    exhausted: dict[str, int] = {}
    child_s: dict[int, float] = {}
    for span in op_spans:
        calls[span.name] = calls.get(span.name, 0) + 1
        secs[span.name] = secs.get(span.name, 0.0) + span.dur
        if span.parent is not None:
            child_s[span.parent] = child_s.get(span.parent, 0.0) + span.dur
        if span.status is not None:
            exps[span.name] = exps.get(span.name, 0) + span.expansions
            nodes[span.name] = nodes.get(span.name, 0) + span.nodes
            if span.status is oracle.SearchStatus.PROVEN_ABSENT:
                absent[span.name] = absent.get(span.name, 0) + 1
            elif span.status is oracle.SearchStatus.BUDGET_EXHAUSTED:
                exhausted[span.name] = exhausted.get(span.name, 0) + 1
    self_s = sum(
        span.dur - child_s.get(i, 0.0)
        for i, span in enumerate(op_spans)
        if span.name == "op"
    )

    out: dict[str, tuple[float, str]] = {}
    for svc in SERVICES:
        key = f"oracle.{svc}"
        e, s = exps.get(key, 0), secs.get(key, 0.0)
        out[f"{key}.calls"] = (_per_op(calls.get(key, 0), n_ops), "count/op")
        out[f"{key}.s"] = (_per_op(s, n_ops), "s/op")
        out[f"{key}.expansions"] = (_per_op(e, n_ops), "count/op")
        out[f"{key}.nodes"] = (_per_op(nodes.get(key, 0), n_ops), "count/op")
        out[f"{key}.yield"] = (nodes.get(key, 0) / e if e else 0.0, "nodes/expansion")
        out[f"{key}.us_per_expansion"] = (1e6 * s / e if e else 0.0, "us")
        out[f"{key}.absent"] = (_per_op(absent.get(key, 0), n_ops), "count/op")
        out[f"{key}.exhausted"] = (_per_op(exhausted.get(key, 0), n_ops), "count/op")
    for key in ("faults.SurvivingView", "faults.partition", "embedder.splice"):
        out[f"{key}.calls"] = (_per_op(calls.get(key, 0), n_ops), "count/op")
        out[f"{key}.s"] = (_per_op(secs.get(key, 0.0), n_ops), "s/op")
    out["embedder.self_s"] = (_per_op(self_s, n_ops), "s/op")
    out["validate.s"] = (_per_op(secs.get("validate", 0.0), n_ops), "s/op")
    build = [s for s in setup_spans if s.name == "topology.make_preset"]
    out["topology.make_preset.calls"] = (len(build) / setup_reps, "count/setup")
    out["topology.make_preset.s"] = (sum(s.dur for s in build) / setup_reps, "s/setup")
    return out
