#!/usr/bin/env python3
"""Scale record of ``embed``: one labelled point per run in out/BENCH_scale.json.

    python3 scripts/bench_scale.py --label NAME [--max-n 16] [--src DIR]

Cells: the random variant at n = 8..16 and the crossed, mobius0, mobius1 and
locally-twisted variants at n = 8..12 (both capped by ``--max-n``). Fault
placements per cell:

- ``uniform``: 2n - 10 faults drawn over all nodes and links;
- ``concentrated-2`` / ``concentrated-4``: 2k - 9 / 2k - 8 faults (k = n - 1)
  drawn over the nodes and links of top half 1, which select top cases 2
  and 4.

Both draws are ``thln.faults.sample_faults``, the sampler ``thln stress``
uses, over the whole graph or over half 1, and the endpoints are
``thln.faults.draw_endpoints``, the stress trial's redraw until the
neighbor condition holds.

Each cell runs three fixed seeds; the seed fixes the random variant's graph,
the faults and the endpoints. A cell keeps its deterministic part (top case,
level count and a digest of every level label, search expansions, restarts,
backtracks and cut tests, per seed) apart from its wall times and its graph
costs. Each seed's graph is built at least ``BUILD_REPEATS`` times and until
``MIN_BUILD_SPAN_S`` seconds of building have been timed, its embed is timed
``EMBED_REPEATS`` times, and each is the median of those; the cell's wall is
the p50 and max of the seeds' embed walls. The graph costs are the p50 of
the seeds' build seconds, the MB the last seed's graph retains, from one
more build of it under ``tracemalloc`` (which slows the build it watches,
so no timed build is traced), and ``embed_peak_mb``, the ``tracemalloc``
peak of one more untimed embed of the last seed's instance, which is what
the embed allocates on top of its graph. An embed peaks under twice what its
graph holds when ``embed_peak_mb`` is below ``retained_mb``.

Every build and embed time is corrected for host speed by ``HostClock``
from ``perfbench/run.py``: it is scaled by the reference kernel's nominal
time over the kernel's time measured around it, so points recorded at
different host speeds compare. The point records the kernel's raw times
under ``host_reference``.
Every path is checked with ``validate_path``. The point replaces any earlier
point of the same label, so points of other code sit side by side;
``--src`` runs the ``thln`` package of another checkout's ``src/``. That
checkout needs ``sample_faults`` with a ``scope`` and ``draw_endpoints``;
the cells of older code are already in the record.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import platform
import random
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "out" / "BENCH_scale.json"

SEEDS = (1, 2, 3)
NAMED = ("crossed", "mobius0", "mobius1", "locally-twisted")
RANDOM_MAX_N = 16
NAMED_MAX_N = 12
PLACEMENTS = ("uniform", "concentrated-2", "concentrated-4")
#: Timed embeds per seed; a seed's wall is their median.
EMBED_REPEATS = 3
#: Timed builds per graph, at least; its build seconds are their median.
BUILD_REPEATS = 3
#: Seconds of timed building per graph, at least: a build of a few ms
#: repeats until its times add up to this, so one slow build moves no median.
MIN_BUILD_SPAN_S = 0.2


def _host_clock():
    """A fresh ``HostClock`` from perfbench/run.py, which runs the reference
    kernel the benchmark's times are corrected by."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.HostClock()


def _fault_count(placement: str, n: int) -> int:
    k = n - 1
    return {"uniform": 2 * n - 10, "concentrated-2": 2 * k - 9, "concentrated-4": 2 * k - 8}[placement]


def _build(thln, spec, n: int, clock):
    """The graph and its build times, corrected when the clock next runs: at
    least ``BUILD_REPEATS`` builds, and more until ``MIN_BUILD_SPAN_S`` of
    them has been timed."""
    times = []
    spent = 0.0
    gc.collect()
    while len(times) < BUILD_REPEATS or spent < MIN_BUILD_SPAN_S:
        g = None  # freed before the next build
        start = time.perf_counter()
        g = thln.make_preset(spec, n)
        took = time.perf_counter() - start
        spent += took
        clock.record(times, took)
        clock.tick()
    return g, times


def _retained_mb(thln, spec, n: int) -> float:
    """MB that a fresh build of the graph still holds once it returns."""
    gc.collect()
    tracemalloc.start()
    try:
        g = thln.make_preset(spec, n)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del g
    return round(held / 1e6, 2)


def _embed_peak_mb(thln, g, f, s: int, t: int) -> float:
    """Peak MB that one embed of the instance allocates over its graph."""
    gc.collect()
    tracemalloc.start()
    try:
        thln.embed(g, f, s, t)
    except thln.ThlnError:
        pass  # the timed runs record the error
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return round(peak / 1e6, 2)


def _instance(thln, variant: str, n: int, placement: str, seed: int, graphs: dict, clock):
    """(graph spec, graph, its build times, faults, s, t)."""
    rng = random.Random(f"{variant}/{n}/{placement}/{seed}")
    if variant == "random":
        spec = thln.VariantSpec.random(rng.randrange(1 << 30))
        g, builds = _build(thln, spec, n, clock)
    else:
        spec = thln.VariantSpec(variant)
        if (variant, n) not in graphs:
            graphs[variant, n] = _build(thln, spec, n, clock)
        g, builds = graphs[variant, n]
    scope = None if placement == "uniform" else g.decomposition.half1
    f = thln.faults.sample_faults(g, _fault_count(placement, n), rng, scope)
    s, t = thln.faults.draw_endpoints(thln.surviving_view(g, f), rng)
    return spec, g, builds, f, s, t


def _run(thln, g, f, s: int, t: int, clock) -> tuple[dict, list[float]]:
    """The deterministic part of one embed and its run times, corrected when
    the clock next runs."""
    walls: list[float] = []
    for _ in range(EMBED_REPEATS):
        start = time.perf_counter()
        try:
            res = thln.embed(g, f, s, t)
        except thln.ThlnError as exc:
            clock.record(walls, time.perf_counter() - start)
            return {"error": type(exc).__name__}, walls
        clock.record(walls, time.perf_counter() - start)
        clock.tick()
    labels = res.trace.labels()
    searches = [r for r in res.trace.records if "service" in r]
    return {
        "valid": thln.validate_path(g, f, s, t, res.path).is_valid,
        "top_case": labels[0],
        "levels": len(labels),
        "labels_sha256": hashlib.sha256(repr(labels).encode()).hexdigest()[:16],
        "searches": len(searches),
        "expansions": sum(r["expansions"] for r in searches),
        "restarts": sum(r["restarts"] for r in searches),
        "backtracks": sum(r["backtracks"] for r in searches),
        "cut_tests": sum(r["cut_tests"] for r in searches),
    }, walls


def _cells(max_n: int):
    for n in range(8, min(max_n, RANDOM_MAX_N) + 1):
        for variant in ("random",) + (NAMED if n <= NAMED_MAX_N else ()):
            for placement in PLACEMENTS:
                yield variant, n, placement


def record(thln, max_n: int, clock) -> list[dict]:
    cells, graphs = [], {}
    for variant, n, placement in _cells(max_n):
        runs, seed_walls, seed_builds = [], [], []
        for seed in SEEDS:
            g = None  # the previous seed's graph is freed before the next build
            spec, g, builds, f, s, t = _instance(thln, variant, n, placement, seed, graphs, clock)
            det, walls = _run(thln, g, f, s, t, clock)
            runs.append({"seed": seed, **det})
            seed_walls.append(walls)
            seed_builds.append(builds)
            clock.measure()  # each seed's times are corrected by the kernel runs around them
        walls = [statistics.median(w) for w in seed_walls]
        builds = [statistics.median(b) for b in seed_builds]
        graph = {"build_p50_s": round(statistics.median(builds), 4),
                 "embed_peak_mb": _embed_peak_mb(thln, g, f, s, t),
                 "retained_mb": _retained_mb(thln, spec, n)}
        cells.append({
            "variant": variant, "n": n, "placement": placement,
            "faults": _fault_count(placement, n),
            "wall": {"p50_s": round(statistics.median(walls), 4), "max_s": round(max(walls), 4)},
            "graph": graph,
            "deterministic": runs,
        })
        print(f"{variant:>15} n={n:2d} {placement:>14}: p50 {statistics.median(walls):7.3f} s, "
              f"max {max(walls):7.3f} s, expansions {[r.get('expansions') for r in runs]}, "
              f"build {graph['build_p50_s']:.3f} s, {graph['retained_mb']} MB, "
              f"embed peak {graph['embed_peak_mb']} MB", file=sys.stderr)
    return cells


def _dumps(doc: dict) -> str:
    """The record as JSON with one line per cell, so that points diff cell by cell."""
    points = []
    for point in doc["points"]:
        meta = ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(point.items()) if k != "cells")
        cells = ",\n".join(f"    {json.dumps(c, sort_keys=True)}" for c in point["cells"])
        points.append(f'  {{{meta}, "cells": [\n{cells}\n  ]}}')
    return '{"points": [\n' + ",\n".join(points) + "\n]}\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="name of the point (replaces one of that name)")
    ap.add_argument("--max-n", type=int, default=RANDOM_MAX_N, help="largest dimension to run")
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the thln package")
    ap.add_argument("-o", "--output", type=Path, default=OUT)
    args = ap.parse_args(argv)
    if not 8 <= args.max_n <= RANDOM_MAX_N:
        ap.error(f"--max-n must be between 8 and {RANDOM_MAX_N}")
    sys.path.insert(0, str(args.src.resolve()))
    import thln

    clock = _host_clock()
    cells = record(thln, args.max_n, clock)
    point = {
        "label": args.label,
        "max_n": args.max_n,
        "embed_repeats": EMBED_REPEATS,
        "build_repeats": BUILD_REPEATS,
        "min_build_span_s": MIN_BUILD_SPAN_S,
        "host_reference": {
            "runs": len(clock.refs),
            "median_s": round(statistics.median(clock.refs), 5),
            "min_s": round(min(clock.refs), 5),
            "max_s": round(max(clock.refs), 5),
        },
        "python": platform.python_version(),
        "cells": cells,
    }
    doc = json.loads(args.output.read_text()) if args.output.exists() else {"points": []}
    doc["points"] = [p for p in doc["points"] if p["label"] != args.label] + [point]
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(_dumps(doc))
    bad = [c for c in point["cells"] for r in c["deterministic"] if not r.get("valid")]
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
