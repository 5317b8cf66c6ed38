#!/usr/bin/env python3
"""Benchmark of thln's ``embed`` and of its search services.

    python3 perfbench/run.py --workload uniform-n10 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``. The
run builds its pool of instances from ``--seed`` (set-up, timed several
times), then calls the workload's op on them in a closed loop, one op after
the other on one thread, in whole passes over the pool until ``--seconds``
have passed: at least one pass, so every run times the same instances. Every
result goes through the correctness gate.

Times are host-speed corrected (see ``HostClock``): each op and each set-up
is scaled by a fixed reference kernel's nominal time over its time measured
around that op. The raw wall times are in the full report under ``wall``.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` layer wrappers are installed and it holds the per-layer metrics
(see ``tracing.py``). The line before it is the full report, including the
deterministic section. A human summary goes to stderr.

Seeds: 1 is the default; 7919 is held out for confirming a claimed gain and
is not to be used while developing a change.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DET_DIR = ROOT / ".bench_build" / "perfbench"

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
SETUP_REPS = 5
# op_tail_s is the highest percentile, at most p99, that leaves at least 10
# ops per pass beyond it. Past p99 search-small's tail is the handful of
# slice restarts a seed happens to draw, which swings 50% between seeds.
TAIL_MIN_BEYOND = 10

# The reference kernel: a depth-first search over the 10-cube, the same kind
# of dict, set and list work as the package's searches.
REF_DIM = 10
REF_ADJ = [[v ^ (1 << i) for i in range(REF_DIM)] for v in range(1 << REF_DIM)]
REF_REPS = 25
#: The kernel's time on the host the figures in README.md come from (2-core
#: VM, Python 3.11); it fixes the unit, so corrected times read as seconds
#: on that host at its median speed.
REF_NOMINAL_S = 0.0185
#: Ops between two reference measurements span at least this much wall time.
REF_EVERY_S = 0.5


def _import_thln():
    if not (SRC / "thln" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'thln'} not found; run from the root of a thln checkout")
    sys.path.insert(0, str(SRC))
    import thln

    if Path(thln.__file__).resolve().parent != SRC / "thln":
        sys.exit(f"error: imported thln from {thln.__file__}, not from {SRC}")


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "thln").glob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _check_determinism(workload: str, seed: int, section: dict) -> list[str]:
    """Compare the deterministic section with the one stored by an earlier run
    of the same code and seed, then store the union. Returns the keys that
    differ."""
    DET_DIR.mkdir(parents=True, exist_ok=True)
    path = DET_DIR / f"det-{workload}-seed{seed}-{_source_digest()}.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    differ = sorted(k for k in section if k in stored and stored[k] != section[k])
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps({**stored, **section}, sort_keys=True))
    os.replace(tmp, path)
    return differ


def _reference_kernel() -> int:
    seen = 0
    for _ in range(REF_REPS):
        found = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in REF_ADJ[v]:
                if w not in found:
                    found.add(w)
                    stack.append(w)
        seen += len(found)
    return seen


class HostClock:
    """Host-speed correction of measured times.

    The VMs this benchmark runs on change speed by up to 2x within seconds to
    minutes, on each core apart, with CPU time equal to wall time; raw op
    times of the same instances moved 25% between passes. Between ops the
    clock times the reference kernel (no GC inside it, so heap the program
    leaves behind does not slow it), and every time measured between two
    reference runs is scaled by ``REF_NOMINAL_S`` over their mean. The same
    passes then moved 4%.
    """

    def __init__(self):
        self.refs: list[float] = []
        self._last_at = 0.0
        self._pending: list[tuple[list, int, float]] = []
        self.measure()

    def measure(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _reference_kernel()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        if self._pending:
            scale = REF_NOMINAL_S / ((self.refs[-1] + (t1 - t0)) / 2)
            for out, index, raw in self._pending:
                out[index] = raw * scale
            self._pending = []
        self.refs.append(t1 - t0)
        self._last_at = t1

    def record(self, out: list, raw: float) -> None:
        """Append ``raw`` to ``out``; it is replaced by its corrected value
        at the next reference run."""
        out.append(raw)
        self._pending.append((out, len(out) - 1, raw))

    def tick(self) -> None:
        """Run the reference kernel when ``REF_EVERY_S`` has passed."""
        if time.perf_counter() - self._last_at >= REF_EVERY_S:
            self.measure()

    def flush(self) -> None:
        if self._pending:
            self.measure()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(wl, seed: int, seconds: float, traced: bool) -> dict:
    from tracing import Tracer, layer_metrics
    from workloads import Tally

    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()

    # set-up: build every instance, several times; keep the last pool
    clock = HostClock()
    setup_times: list[float] = []
    setup_wall: list[float] = []
    pool = None
    for _ in range(SETUP_REPS):
        pool = None
        gc.collect()
        t0 = time.perf_counter()
        pool = wl.build(random.Random(f"{wl.name}:{seed}"), wl.pool)
        setup_wall.append(time.perf_counter() - t0)
        clock.record(setup_times, setup_wall[-1])
        clock.measure()
    assert len(pool) == wl.pool > TAIL_MIN_BEYOND
    setup_spans = tracer.take() if tracer else []
    gc.collect()
    gc.freeze()  # the pool is benchmark scaffolding; keep it out of GC passes

    tally = Tally()
    op_times: list[float] = []  # corrected
    op_wall: list[float] = []
    failed = 0
    errors: list[str] = []
    pairs: list[tuple[float, float]] = []

    def untraced(case) -> tuple[float, object]:
        # the traced run also runs every op with the wrappers removed; the
        # pairs give the tracing overhead, and the two results must match
        tracer.uninstall()
        t0 = time.perf_counter()
        try:
            again = wl.call(case)
        except Exception as exc:
            again = f"{type(exc).__name__}: {exc}"
        plain_dt = time.perf_counter() - t0
        tracer.install()
        return plain_dt, again

    deadline = time.perf_counter() + seconds
    i = 0
    while i < wl.pool or i % wl.pool or time.perf_counter() < deadline:
        case = pool[i % wl.pool]
        # alternate which run of a pair goes first, so a cache the first run
        # warms does not count as tracing overhead
        plain = untraced(case) if tracer and i % 2 else None
        first_span = len(tracer.spans) if tracer else 0
        span = tracer.open("op") if tracer else None
        t0 = time.perf_counter()
        try:
            out = wl.call(case)
            err = None
        except Exception as exc:  # every raised error is a failed op, not a crash
            out, err = None, f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        dt = time.perf_counter() - t0
        if tracer:
            tracer.close(span)
            vspan = tracer.open("validate")
        if err is None:
            err = wl.check(case, out)
        if tracer:
            tracer.close(vspan)
        op_wall.append(dt)
        clock.record(op_times, dt)
        if err is not None:
            failed += 1
            errors.append(f"op {i}: {err}")
        if i < wl.pool:
            if err is None:
                wl.tally(tally, case, out)
            else:
                tally.add_failure(err)
            if tracer:
                for sp in tracer.spans[first_span:]:
                    if sp.status is not None:
                        tally.add_nodes(sp.name.split(".", 1)[1], sp.nodes)
        if tracer:
            plain_dt, again = plain or untraced(case)
            pairs.append((dt, plain_dt))
            if err is None and out != again:
                errors.append(f"op {i}: traced and untraced runs disagree")
        i += 1
        clock.tick()
    clock.flush()
    gc.unfreeze()
    if tracer:
        tracer.uninstall()

    n = len(op_times)
    passes = n // wl.pool
    ordered = sorted(op_times)
    tail_rank = n - max(TAIL_MIN_BEYOND, wl.pool // 100) * passes  # nearest rank, 1-based
    drift = wl.drift(tally)
    if drift:
        errors.append(drift)
    section = tally.section()
    differ = _check_determinism(wl.name, seed, section)
    if differ:
        errors.append(f"deterministic section differs from an earlier run with seed {seed}: {differ}")

    report = {
        "workload": wl.name,
        "why": wl.why,
        "pool": wl.pool,
        "passes": passes,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "attempted": n,
        "failed": failed,
        "failed_frac": failed / n,
        "errors": errors[:20],
        "tail_percentile": 100 * tail_rank / n,
        "ops_beyond_tail": n - tail_rank,
        "setup_runs_s": setup_times,
        "wall": {
            "op_p50_s": statistics.median(op_wall),
            "op_tail_s": sorted(op_wall)[tail_rank - 1],
            "ops_per_s": n / sum(op_wall),
            "setup_s": statistics.median(setup_wall),
            "setup_runs_s": setup_wall,
        },
        "host_reference": {
            "nominal_s": REF_NOMINAL_S,
            "runs": len(clock.refs),
            "median_s": statistics.median(clock.refs),
            "min_s": min(clock.refs),
            "max_s": max(clock.refs),
        },
        "deterministic": section,
        "end_to_end": {
            "op_p50_s": (statistics.median(ordered), "s"),
            "op_tail_s": (ordered[tail_rank - 1], "s"),
            "ops_per_s": (n / sum(op_times), "1/s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        },
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
    }
    if tracer:
        per_layer = layer_metrics(tracer.take(), setup_spans, n, SETUP_REPS)
        per_layer["embedder.levels"] = (tally.levels / wl.pool, "count/op")
        traced_s = sum(t for t, _ in pairs)
        plain_s = sum(u for _, u in pairs)
        per_layer["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
        per_layer["trace.op_p50_s"] = (statistics.median(ordered), "s")
        report["per_layer"] = dict(sorted(per_layer.items()))
        report["overhead_pairs"] = len(pairs)
    report["correct"] = not errors
    return report


def _summary(report: dict) -> str:
    lines = [
        f"{report['workload']} seed {report['seed']}: {report['attempted']} ops, "
        f"{report['failed']} failed (failed_frac {report['failed_frac']:.4f}), "
        f"correct={not report['errors']}",
        f"op_tail_s is p{report['tail_percentile']:.4g}: "
        f"{report['ops_beyond_tail']} ops beyond it",
    ]
    for key in ("end_to_end", "per_layer"):
        for name, (value, unit) in report.get(key, {}).items():
            lines.append(f"  {name:<46} {value:>14.6g} {unit}")
    det = report["deterministic"]
    if "top_cases" in det:
        lines.append(f"  top cases: {det['top_cases']}")
    for name, rec in det["services"].items():
        lines.append(f"  {name}: {rec}")
    lines.extend(f"  error: {e}" for e in report["errors"])
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    _import_thln()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    report = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(_summary(report), file=sys.stderr)
    metrics = report["per_layer"] if args.trace else report["end_to_end"]
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
