import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_scale.py"
RECORD = Path(__file__).resolve().parent.parent / "out" / "BENCH_scale.json"
#: The committed point whose instances and search trees the script must
#: reproduce: a change that moves either records a new point and names it here.
PINNED_POINT = "deferred-cut-test"


def _load():
    spec = importlib.util.spec_from_file_location("bench_scale", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _runs(point):
    """(variant, n, placement) -> the deterministic runs of that cell."""
    return {(c["variant"], c["n"], c["placement"]): c["deterministic"] for c in point["cells"]}


def test_scale_record_is_deterministic_apart_from_wall_times(tmp_path):
    out = tmp_path / "BENCH_scale.json"
    out.write_text(json.dumps({"points": [{"label": "a", "cells": []}]}))
    bench = _load()
    for label in ("a", "b"):
        assert bench.main(["--label", label, "--max-n", "8", "-o", str(out)]) == 0
    points = json.loads(out.read_text())["points"]
    assert [p["label"] for p in points] == ["a", "b"]  # a point replaces its namesake
    assert points[0]["build_repeats"] == bench.BUILD_REPEATS
    assert points[0]["host_reference"]["runs"] >= 2  # times are corrected between runs
    assert points[0]["cells"]
    first, again = ([c["deterministic"] for c in p["cells"]] for p in points)
    assert first == again
    pinned = next(p for p in json.loads(RECORD.read_text())["points"] if p["label"] == PINNED_POINT)
    assert _runs(points[0]) == {key: runs for key, runs in _runs(pinned).items() if key[1] == 8}
    cells = points[0]["cells"]
    assert {(c["variant"], c["placement"]) for c in cells} == {
        (v, p) for v in ("random",) + bench.NAMED for p in bench.PLACEMENTS
    }
    for cell in cells:
        assert set(cell["wall"]) == {"p50_s", "max_s"}
        assert cell["graph"]["retained_mb"] > 0 and cell["graph"]["embed_peak_mb"] > 0
        tops = {r["top_case"].split(".")[0] for r in cell["deterministic"]}
        if cell["placement"] != "uniform":
            assert tops == {cell["placement"][-1]}
        for run in cell["deterministic"]:
            # a cut test runs only on the first expansion after a backtrack
            assert run["valid"] and run["cut_tests"] <= run["backtracks"]
            assert 0 <= run["restarts"] < run["expansions"]
