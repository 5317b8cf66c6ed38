"""Command-line surface: generate | embed | stress | check | export.

Exit codes are the scriptable contract:

  0  success (embed: a validating covering or one-short path was produced)
  1  a trial or suite failed validation
  2  bad configuration, unreadable input or an unwritable output path
  3  precondition violated (fault bound, faulty endpoint, neighbor condition)
  4  search budget exhausted

Every node id that ``embed`` reads or writes is the graph file's own, also
where the loader has renumbered the file's nodes to positions.

Every command honors ``--seed``; identical invocations write byte-identical
artifacts. Wall-clock numbers are therefore never written to report files
unless ``--timing`` is passed; the human summary on stderr always shows them.
"""
from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from .embedder import CaseTrace, embed
from .errors import (
    ForeignFault,
    MalformedGraph,
    OracleBudgetExhausted,
    PreconditionViolated,
    ThlnError,
    UnknownNode,
)
from .faults import FaultSet, draw_endpoints, sample_faults, surviving_view
from .oracle import (
    SearchBudget,
    ham_cycle,
    ham_path,
    two_disjoint_spanning_paths,
)
from .topology import (
    ThlnGraph,
    VariantSpec,
    check_shape,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    make_preset,
)
from .validate import validate_path

_VARIANT_CHOICES = ("random", "crossed", "mobius0", "mobius1", "locally-twisted", "default")
#: The largest dimension ``generate`` and ``stress`` accept: a graph holds
#: 2**n rows, so a larger n would exhaust memory before anything is written.
MAX_DIMENSION = 20


def _check_dimension_limit(n: int) -> None:
    if n > MAX_DIMENSION:
        raise PreconditionViolated(f"dimension must be at most {MAX_DIMENSION}, got {n}")


@dataclass
class RunConfig:
    """Configuration shared by the campaign-style commands."""

    seed: int = 0
    dimension: int = 8
    fault_count: int = 0
    trial_count: int = 0
    budget: SearchBudget = field(default_factory=SearchBudget)
    unsafe: bool = False
    timing: bool = False

    def validate(self) -> None:
        n = self.dimension
        if n < 7:
            raise PreconditionViolated(f"dimension must be at least 7, got {n}")
        _check_dimension_limit(n)
        elements = (1 << n) + n * (1 << (n - 1))  # nodes plus edges
        if not 0 <= self.fault_count <= elements:
            raise PreconditionViolated(
                f"fault count must be between 0 and {elements} at dimension {n}, "
                f"got {self.fault_count}"
            )
        if self.trial_count < 0:
            raise PreconditionViolated(f"trial count must be non-negative, got {self.trial_count}")
        bound = 2 * n - 10
        if not self.unsafe and self.fault_count > bound:
            raise PreconditionViolated(
                f"fault count {self.fault_count} exceeds {bound} at dimension "
                f"{n}; pass --unsafe to probe beyond the contract"
            )


def _default_budget(args) -> SearchBudget:
    """The budget from ``--budget``, else the default. Raises ValueError
    unless the value given is positive."""
    if args.budget is None:
        return SearchBudget()
    try:
        return SearchBudget(max_expansions=args.budget)
    except ValueError:
        raise ValueError(f"budget must be a positive integer, got {args.budget!r}") from None


def _variant_spec(name: str, seed: int) -> VariantSpec:
    if name == "random":
        return VariantSpec.random(seed)
    if name == "default":
        return VariantSpec("base3-default")
    return VariantSpec(name)


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _random_instance(n: int, fault_count: int, rng: random.Random):
    """Fresh random-variant graph, uniform faults, and the surviving view."""
    g = make_preset(VariantSpec.random(rng.randrange(1 << 30)), n)
    f = sample_faults(g, fault_count, rng)
    return g, f, surviving_view(g, f)


def _load_graph(path: str) -> ThlnGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_json(fh.read())


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# generate / export


def cmd_generate(args) -> int:
    try:
        _check_dimension_limit(args.n)  # before make_preset allocates 2**n rows
        g = make_preset(_variant_spec(args.variant, args.seed), args.n)
    except ThlnError as exc:
        _info(f"error: {exc}")
        return 2
    _write(args.out, graph_to_json(g))
    _info(
        f"generated {args.variant} dimension-{args.n}: "
        f"{g.num_nodes} nodes, {g.num_edges} edges"
    )
    return 0


def cmd_export(args) -> int:
    try:
        g = _load_graph(args.graph)
    except (OSError, MalformedGraph) as exc:
        _info(f"error: {exc}")
        return 2
    _write(args.out, graph_to_dot(g))
    return 0


# ----------------------------------------------------------------------
# embed


#: ``embed`` errors -> (exit code, stderr prefix); the first class that
#: matches wins, so UnknownNode comes before its base PreconditionViolated
_EMBED_EXITS = (
    ((ForeignFault, MalformedGraph, UnknownNode), 2, "error"),
    (PreconditionViolated, 3, "precondition violated"),
    (OracleBudgetExhausted, 4, "budget exhausted"),
    (ThlnError, 1, "error"),
)


def _to_positions(g: ThlnGraph, f: FaultSet, s: int, t: int) -> tuple[FaultSet, int, int]:
    """The fault file and the endpoints, in the graph file's ids, at ``g``'s
    positions. What ``embed`` rejects by naming a node, a foreign fault or a
    faulty endpoint, is rejected here first, in its order, by the file's id;
    an endpoint that is no id of the file is left for ``embed`` to reject."""
    position = dict(zip(g.file_ids or g.nodes, g.nodes))
    for v in f.nodes:
        if v not in position:
            raise ForeignFault(f"faulty node {v} is not in the graph")
    for u, v in f.edges:
        if not (u in position and v in position and g.has_edge(position[u], position[v])):
            raise ForeignFault(f"faulty edge {(u, v)} is not in the graph")
    for v in (s, t):  # an unknown endpoint comes before a faulty one
        if v not in position:
            break
        if v in f.nodes:
            raise PreconditionViolated(f"endpoint {v} is faulty")
    moved = FaultSet.of(nodes=[position[v] for v in f.nodes],
                        edges=[(position[u], position[v]) for u, v in f.edges])
    return moved, position.get(s, s), position.get(t, t)


def _self_check(verdict, missed: Optional[int], name=lambda v: v) -> Optional[str]:
    """Why a produced path fails its independent validation (``verdict``), in
    the node names ``name`` gives, or None when it passes: the validator's
    finding with its path position, or, for a path that validates but whose
    reported missed node is not the validator's, both missed nodes."""
    if verdict.is_valid and verdict.missed == missed:
        return None
    if verdict.fault is None:
        return f"missed node {name(verdict.missed)}, reported {name(missed)}"
    if verdict.position is None:
        return verdict.fault.say(name)
    return f"{verdict.fault.say(name)} at path position {verdict.position}"


def cmd_embed(args) -> int:
    try:
        budget = _default_budget(args)
        g = _load_graph(args.graph)
        with open(args.faults, "r", encoding="utf-8") as fh:
            f = FaultSet.from_json(fh.read())
    except (OSError, MalformedGraph, ValueError) as exc:
        _info(f"error: {exc}")
        return 2
    shape = check_shape(g)
    if not shape.ok:
        bad = shape.failures[0]
        detail = f" ({bad.detail})" if bad.detail else ""
        _info(f"error: graph fails shape check {bad.name}{detail}")
        return 2
    out_of_contract = args.unsafe and len(f) > 2 * g.dimension - 10
    ids = g.file_ids or g.nodes

    def name(x):
        """A node id, or nested lists of them, in the file's ids; a value that
        is no node (a path check may name one) as it is."""
        if isinstance(x, list):
            return [name(y) for y in x]
        return ids[x] if isinstance(x, int) and 0 <= x < len(ids) else x

    def emit(obj) -> None:
        """Write ``obj``, an ``EmbedResult.to_json_obj()`` or an error record
        of that form, with its path, missed node and trace node fields in the file's ids."""
        trace = [{k: name(v) if k in CaseTrace.NODE_FIELDS else v for k, v in rec.items()}
                 for rec in obj["trace"]]
        _write(args.out, _dump(dict(obj, path=name(obj["path"]), missed=name(obj["missed"]),
                                    trace=trace)))

    try:
        f, s, t = _to_positions(g, f, args.s, args.t)
        result = embed(g, f, s, t, budget, enforce_bounds=not args.unsafe)
    except ThlnError as exc:
        code, prefix = next((c, p) for cls, c, p in _EMBED_EXITS if isinstance(exc, cls))
        trace = getattr(exc, "trace", None)  # budget exhaustion carries its trace
        fault = getattr(exc, "fault", None)  # the root check's finding on the path
        reason = fault.say(name) if fault else str(exc)
        emit({"status": "error", "path": [], "missed": None,
              "trace": trace.to_json_obj() if trace else [], "reason": reason})
        _info(f"{prefix}: {reason}")
        return code

    reason = _self_check(validate_path(g, f, s, t, result.path), result.missed, name)
    if reason is not None:
        emit({"status": "error", "path": list(result.path), "missed": result.missed,
              "trace": result.trace.to_json_obj(),
              "reason": f"self-check failed: {reason}"})
        _info("error: produced path failed independent validation")
        return 1
    obj = result.to_json_obj()
    if out_of_contract:
        obj["status"] = "out-of-contract"
        obj["classification"] = result.classification
    emit(obj)
    _info(
        f"{result.classification}: {len(result.path)} nodes"
        + (f", missed {name(result.missed)}" if result.missed is not None else "")
    )
    return 0


# ----------------------------------------------------------------------
# stress


def _trial_seed(base: int, index: int) -> int:
    return base * (1 << 32) + index


def run_stress_trial(n: int, fault_count: int, seed: int,
                     budget: SearchBudget, enforce_bounds: bool = True) -> dict:
    """One self-contained seeded trial: fresh random graph, random faults,
    endpoints resampled until the neighbor condition holds, then embed and
    independently validate. Deterministic in its arguments."""
    rng = random.Random(seed)
    g, f, view = _random_instance(n, fault_count, rng)
    pair = draw_endpoints(view, rng)
    if pair is None:
        return {"ok": False, "error": "no endpoint pair met the neighbor condition"}
    s, t = pair

    started = time.perf_counter()
    try:
        result = embed(g, f, s, t, budget, enforce_bounds=enforce_bounds)
    except ThlnError as exc:
        return {
            "ok": False, "s": s, "t": t, "error": f"{type(exc).__name__}: {exc}",
            "elapsed_s": time.perf_counter() - started,
        }
    elapsed = time.perf_counter() - started
    reason = _self_check(validate_path(g, f, s, t, result.path), result.missed)
    return {
        "ok": reason is None,
        "s": s,
        "t": t,
        "status": result.classification,
        "missed": result.missed,
        "path_len": len(result.path),
        "cases": list(result.trace.labels()),
        "elapsed_s": elapsed,
        "error": None if reason is None else f"validation: {reason}",
    }


def run_stress(cfg: RunConfig) -> tuple[dict, list[float]]:
    """Run the campaign and build the deterministic report object. Trial
    wall-clock times are returned separately; they enter the report only
    when ``cfg.timing`` is set."""
    trials = [
        dict(run_stress_trial(cfg.dimension, cfg.fault_count, _trial_seed(cfg.seed, i),
                              cfg.budget, enforce_bounds=not cfg.unsafe), trial=i)
        for i in range(cfg.trial_count)
    ]
    elapsed = [rec.pop("elapsed_s", 0.0) for rec in trials]
    report = {
        "config": {
            "dimension": cfg.dimension,
            "faults": cfg.fault_count,
            "trials": cfg.trial_count,
            "seed": cfg.seed,
            "budget": cfg.budget.max_expansions,
            "unsafe": cfg.unsafe,
        },
        "successes": sum(1 for r in trials if r["ok"]),
        "statuses": Counter(r["status"] for r in trials if r.get("status")),
        "case_histogram": Counter(label for r in trials for label in r.get("cases", ())),
        "missed_frequency": Counter(str(r["missed"]) for r in trials
                                    if r.get("missed") is not None),
        "failures": [{"trial": r["trial"], "error": r.get("error")}
                     for r in trials if not r["ok"]],
        "trials": [dict(sorted(rec.items())) for rec in trials],
    }
    if cfg.timing and elapsed:
        report["timing_s"] = {
            "median": statistics.median(elapsed),
            "max": max(elapsed),
            "total": sum(elapsed),
        }
    return report, elapsed


def _stress_csv(report: dict, timing: bool, elapsed: list[float]) -> str:
    cols = ["trial", "ok", "status", "missed", "path_len", "top_case"]
    if timing:
        cols.append("elapsed_s")
    lines = [",".join(cols)]
    for i, rec in enumerate(report["trials"]):
        cases = rec.get("cases") or []
        row = [
            str(rec["trial"]),
            "1" if rec["ok"] else "0",
            rec.get("status") or "",
            "" if rec.get("missed") is None else str(rec["missed"]),
            str(rec.get("path_len") or ""),
            cases[0] if cases else "",
        ]
        if timing:
            row.append(f"{elapsed[i]:.6f}")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def cmd_stress(args) -> int:
    try:
        cfg = RunConfig(
            seed=args.seed,
            dimension=args.n,
            fault_count=args.faults,
            trial_count=args.trials,
            budget=_default_budget(args),
            unsafe=args.unsafe,
            timing=args.timing,
        )
        cfg.validate()
    except (PreconditionViolated, ValueError) as exc:
        _info(f"error: {exc}")
        return 2
    report, elapsed = run_stress(cfg)
    _write(args.out, _dump(report))
    if args.csv:
        _write(args.csv, _stress_csv(report, args.timing, elapsed))
    ok = report["successes"] == cfg.trial_count
    if elapsed:
        _info(
            f"stress: {report['successes']}/{cfg.trial_count} ok; "
            f"median {statistics.median(elapsed):.3f}s, max {max(elapsed):.3f}s"
        )
    else:
        _info(f"stress: 0 trials")
    return 0 if ok else 1


# ----------------------------------------------------------------------
# check


def _check_topology(seed: int) -> dict:
    bad = []
    for n in range(3, 7):
        for spec in [*map(VariantSpec, ("crossed", "mobius0", "mobius1", "locally-twisted")),
                     VariantSpec.random(seed + n)]:
            rep = check_shape(make_preset(spec, n))
            if not rep.ok:
                bad.append({"variant": spec.kind, "n": n,
                            "failures": [c.name for c in rep.failures]})
    return {"name": "topology-shape-sweep", "ok": not bad, "detail": {"failures": bad}}


def _service_suite(name: str, n: int, faults: int, seed: int, trials: int, run) -> dict:
    """``trials`` seeded draws of a random dimension-``n`` view under
    ``faults`` uniform faults, each handed to ``run(view, rng)`` for a
    service outcome."""
    rng = random.Random(seed)
    failures = []
    for trial in range(trials):
        out = run(_random_instance(n, faults, rng)[2], rng)
        if not out.found:
            failures.append({"trial": trial, "status": out.status.value})
    return {"name": name, "ok": not failures,
            "detail": {"n": n, "faults": faults, "trials": trials, "failures": failures}}


def _check_disjoint_paths_service(seed: int, draws: int, budget: SearchBudget) -> dict:
    n, failures = 4, []
    rng = random.Random(seed)
    g = make_preset(VariantSpec.random(seed), n)
    view = surviving_view(g, FaultSet.empty())
    for i in range(draws):
        x1, y1, x2, y2 = rng.sample(view.nodes, 4)
        out = two_disjoint_spanning_paths(view, x1, y1, x2, y2, budget)
        if not out.found:
            failures.append({"draw": i, "status": out.status.value})
    return {"name": "service-disjoint-path-cover", "ok": not failures,
            "detail": {"n": n, "faults": 0, "draws": draws, "failures": failures}}


def cmd_check(args) -> int:
    try:
        budget = _default_budget(args)
    except ValueError as exc:
        _info(f"error: {exc}")
        return 2
    if args.trials < 0:
        _info(f"error: trial count must be non-negative, got {args.trials}")
        return 2
    if args.graph:
        try:
            g = _load_graph(args.graph)
        except (OSError, MalformedGraph) as exc:
            _info(f"error: {exc}")
            return 2
        rep = check_shape(g)
        suites = [{
            "name": "graph-file-shape",
            "ok": rep.ok,
            "detail": {"failures": [{"check": c.name, "detail": c.detail}
                                    for c in rep.failures]},
        }]
    else:
        seed, trials = args.seed, args.trials
        suites = [
            _check_topology(seed),
            # covering paths must exist between any surviving pair with n-3 faults
            _service_suite("service-covering-path", 4, 1, seed, trials,
                           lambda v, rng: ham_path(v, *rng.sample(v.nodes, 2), budget)),
            # covering cycles must exist with n-2 faults
            _service_suite("service-covering-cycle", 4, 2, seed + 1, trials,
                           lambda v, rng: ham_cycle(v, budget)),
            # 2n-9 = 5 faults leave every node of the 7-regular graph at
            # degree >= 2, so each view keeps a covering cycle
            _service_suite("service-large-fault-cycle", 7, 5, seed + 2,
                           min(trials, max(trials // 10, 3)),
                           lambda v, rng: ham_cycle(v, budget)),
            _check_disjoint_paths_service(seed + 3, trials, budget),
        ]
    ok = all(s["ok"] for s in suites)
    _write(args.out, _dump({"ok": ok, "suites": suites}))
    for s in suites:
        _info(f"{'ok  ' if s['ok'] else 'FAIL'} {s['name']}")
    return 0 if ok else 1


# ----------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="thln", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="build a network and write canonical JSON")
    g.add_argument("--variant", choices=_VARIANT_CHOICES, default="random")
    g.add_argument("--n", type=int, required=True, help=f"dimension (3 to {MAX_DIMENSION})")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--out", default=None, help="output JSON (default stdout)")
    g.set_defaults(func=cmd_generate)

    e = sub.add_parser("embed", help="fault-tolerant covering path between two nodes")
    e.add_argument("--graph", required=True)
    e.add_argument("--faults", required=True)
    e.add_argument("-s", type=int, required=True)
    e.add_argument("-t", type=int, required=True)
    e.add_argument("--budget", type=int, default=None)
    e.add_argument("--unsafe", action="store_true",
                   help="allow fault counts beyond the contract bound")
    e.add_argument("-o", "--out", default=None)
    e.set_defaults(func=cmd_embed)

    s = sub.add_parser("stress", help="seeded random campaign with validation")
    s.add_argument("--n", type=int, default=8, help=f"dimension (7 to {MAX_DIMENSION})")
    s.add_argument("--faults", type=int, default=6)
    s.add_argument("--trials", type=int, default=200)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--budget", type=int, default=None)
    s.add_argument("--unsafe", action="store_true")
    s.add_argument("--timing", action="store_true",
                   help="include wall-clock numbers in the report (non-deterministic)")
    s.add_argument("-o", "--out", default=None)
    s.add_argument("--csv", default=None)
    s.set_defaults(func=cmd_stress)

    c = sub.add_parser("check", help="service guarantees and topology sweeps")
    c.add_argument("--graph", default=None,
                   help="check one graph file instead of the default suites")
    c.add_argument("--trials", type=int, default=50)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--budget", type=int, default=None)
    c.add_argument("-o", "--out", default=None)
    c.set_defaults(func=cmd_check)

    x = sub.add_parser("export", help="convert a graph JSON file to DOT")
    x.add_argument("--graph", required=True)
    x.add_argument("-o", "--out", default=None)
    x.set_defaults(func=cmd_export)

    return p


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:  # each command catches its reads: this is a write
        _info(f"error: {exc}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
