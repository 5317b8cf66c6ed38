#!/usr/bin/env python3
"""Run every workload once untraced and once traced, print every metric by
name with its unit, and optionally write the record file.

    python3 perfbench/record.py [--seed 1] [--seconds 20] [--out perfbench/BENCH_embed.json]

The untraced run gives the end-to-end metrics (host-speed corrected, with the
raw wall times beside them), the traced run the per-layer
metrics and the tracing overhead: every op of the traced run is run again
with the wrappers removed, and the overhead is the traced over the untraced
time of those pairs.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("uniform-n10", "concentrated-n10", "search-small")

#: Which end-to-end metric each per-layer metric should move, and where.
LAYER_MAP = [
    {"layer": "oracle", "metrics": "oracle.ham_path.{s,expansions,nodes}",
     "moves": "op_p50_s, ops_per_s", "workload": "uniform-n10",
     "note": "ham_path search on every half 2 is most of the op time"},
    {"layer": "oracle",
     "metrics": "oracle.{ham_cycle,near_ham_cycle,two_disjoint_spanning_paths}.{s,expansions}",
     "moves": "op_p50_s, ops_per_s", "workload": "concentrated-n10",
     "note": "cycle search on half 1 and the disjoint-path cover of half 2 take about half each"},
    {"layer": "oracle", "metrics": "oracle.<svc>.{yield,expansions}",
     "moves": "op_tail_s", "workload": "search-small",
     "note": "the n=7 cycle searches make the p99; backtracking in them adds expansions "
             "and lowers yield (1.0 means no backtracking)"},
    {"layer": "oracle", "metrics": "oracle.<svc>.us_per_expansion",
     "moves": "op_p50_s", "workload": "uniform-n10, concentrated-n10",
     "note": "cost per expansion (ROADMAP item 2); expansion counts are deterministic"},
    {"layer": "faults", "metrics": "faults.SurvivingView.{calls,s}",
     "moves": "op_p50_s", "workload": "uniform-n10",
     "note": "a few percent of the op; target of the scoped-view change (ROADMAP item 4)"},
    {"layer": "faults", "metrics": "faults.partition.{calls,s}",
     "moves": "op_p50_s", "workload": "uniform-n10", "note": "one fault split per level"},
    {"layer": "embedder", "metrics": "embedder.levels, oracle.ham_path.nodes",
     "moves": "op_p50_s, op_tail_s", "workload": "uniform-n10",
     "note": "recursion instead of search on half 2 (ROADMAP item 3) raises levels and cuts "
             "nodes; on concentrated-n10 only case-2/3 ops change; search-small bypasses it"},
    {"layer": "embedder", "metrics": "embedder.self_s, embedder.splice.{calls,s}",
     "moves": "op_p50_s", "workload": "uniform-n10, concentrated-n10",
     "note": "case dispatch and cross-edge selection: op time no layer span covers"},
    {"layer": "topology", "metrics": "topology.make_preset.{calls,s}",
     "moves": "setup_s", "workload": "all", "note": "graph construction in set-up"},
    {"layer": "validate", "metrics": "validate.s",
     "moves": "none", "workload": "all", "note": "the correctness gate, outside the op time"},
    {"layer": "benchmark", "metrics": "trace.{overhead_frac,op_p50_s}",
     "moves": "none", "workload": "all", "note": "cost of the traced run's wrappers"},
]


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    print(proc.stderr, file=sys.stderr, end="")
    return json.loads(proc.stdout.strip().splitlines()[-2])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--out", default=None, help="write the record JSON here")
    args = p.parse_args(argv)

    results, defs = {}, {}
    machine = None
    for wl in WORKLOADS:
        plain = _run(wl, args.seed, args.seconds, 0)
        traced = _run(wl, args.seed, args.seconds, 1)
        machine = plain["machine"]
        defs[wl] = {k: plain[k] for k in ("why", "pool", "tail_percentile")}
        results[wl] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "failed_frac": plain["failed_frac"],
            "op_tail": f"p{plain['tail_percentile']:.4g}, {plain['ops_beyond_tail']} of "
                       f"{plain['attempted']} ops beyond it",
            "end_to_end": plain["end_to_end"],
            "wall": plain["wall"],
            "host_reference": plain["host_reference"],
            "per_layer": traced["per_layer"],
            "tracing_overhead": {"paired_in_traced_run": traced["per_layer"]["trace.overhead_frac"][0],
                                 "pairs": traced["overhead_pairs"]},
            "deterministic": plain["deterministic"],
            "deterministic_traced": traced["deterministic"],
        }

    print("\nworkload          metric          value          unit")
    for wl, r in results.items():
        for name, (value, unit) in r["end_to_end"].items():
            print(f"{wl:<17} {name:<15} {value:<14.6g} {unit}")
        print(f"{wl:<17} {'failed_frac':<15} {r['failed_frac']:<14.6g} ratio")
        print(f"{wl:<17} raw wall op_p50 {r['wall']['op_p50_s']:.6g} s; reference kernel "
              f"median {r['host_reference']['median_s']:.6g} s (nominal "
              f"{r['host_reference']['nominal_s']} s)")
        print(f"{wl:<17} op_tail is {r['op_tail']}; tracing overhead "
              f"{r['tracing_overhead']['paired_in_traced_run']:+.2%} (paired)")
    if args.out:
        from run import HELD_OUT_SEED

        record = {
            "machine": machine,
            "seed": args.seed,
            "held_out_seed": HELD_OUT_SEED,
            "seconds": args.seconds,
            "workloads": defs,
            "layer_map": LAYER_MAP,
            "results": results,
        }
        Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
