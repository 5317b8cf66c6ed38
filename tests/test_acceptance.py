"""Acceptance gate: executable reproductions of the construction's guarantees.

Each criterion builds a deterministic JSON artifact; criterion 9 reruns
criteria 1-8 with the same seeds and requires byte-identical artifacts.
Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""
import json
import random
import statistics
import time
from pathlib import Path

import pytest

from thln import (
    FaultSet,
    SearchBudget,
    SearchStatus,
    VariantSpec,
    embed,
    enumerate_ham_path_exists,
    ham_cycle,
    ham_path,
    make_preset,
    surviving_view,
    two_disjoint_spanning_paths,
    validate_cycle,
    validate_path,
)
from thln.cli import RunConfig, _dump, _stress_csv, main, run_stress
from thln.embedder import _canon_cycle
from thln.faults import SurvivingView, sample_faults

from conftest import cross_partner

#: committed by ``scripts/stress_campaign.py`` from criterion 6's configuration
STRESS_N8 = Path(__file__).resolve().parent.parent / "out" / "stress_n8.json"
STRESS_N8_CSV = STRESS_N8.with_suffix(".csv")
#: committed by ``scripts/service_checks.py``
CHECK = Path(__file__).resolve().parent.parent / "out" / "check.json"


def _artifact(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def _criterion1():
    started = time.perf_counter()
    table = {}
    ok = True
    for n in range(3, 11):
        for seed in range(5):
            g = make_preset(VariantSpec.random(seed), n)
            regular = all(g.degree(v) == n for v in g.nodes)
            ec = len(g.decomposition.matching) if g.decomposition else None
            entry = {
                "nodes": g.num_nodes,
                "edges": g.num_edges,
                "regular": regular,
                "cross_edges": ec,
            }
            ok = ok and g.num_nodes == 2 ** n and g.num_edges == n * 2 ** (n - 1)
            ok = ok and regular and (n == 3 or ec == 2 ** (n - 1))
            table[f"n{n}-seed{seed}"] = entry
    return _artifact(table), {"ok": ok, "elapsed": time.perf_counter() - started}


def _criterion2():
    started = time.perf_counter()
    g = make_preset(VariantSpec.random(42), 4)
    rng = random.Random(42)
    agreements = 0
    exists_count = 0
    for _ in range(1000):
        size = rng.randrange(2, 11)
        keep = rng.sample(range(16), size)
        f = FaultSet.of(nodes=[v for v in g.nodes if v not in keep])
        view = surviving_view(g, f)
        s, t = rng.sample(view.nodes, 2)
        truth = enumerate_ham_path_exists(view, s, t)
        out = ham_path(view, s, t)
        if out.status is SearchStatus.BUDGET_EXHAUSTED:
            continue
        if out.found == truth:
            agreements += 1
        exists_count += int(truth)
    art = _artifact({"trials": 1000, "agreements": agreements, "exists": exists_count})
    return art, {"agreements": agreements, "elapsed": time.perf_counter() - started}


def _criterion3():
    started = time.perf_counter()
    found = 0
    lengths = {}
    rng = random.Random(3)
    for trial in range(500):
        g = make_preset(VariantSpec.random(rng.randrange(1 << 30)), 5)
        f = sample_faults(g, 2, rng)
        view = surviving_view(g, f)
        s, t = rng.sample(view.nodes, 2)
        out = ham_path(view, s, t)
        if out.found and validate_path(g, f, s, t, out.path).is_hamiltonian:
            found += 1
            lengths[len(out.path)] = lengths.get(len(out.path), 0) + 1
    art = _artifact({"trials": 500, "found": found, "length_histogram": lengths})
    return art, {"found": found, "elapsed": time.perf_counter() - started}


def _boundary_faults(g, rng):
    """5 of one node q's 7 links failed, each as the neighbour or as the
    edge by a coin: q keeps degree 2, the floor of the 2n - 9 guarantee."""
    q = rng.randrange(g.num_nodes)
    links = rng.sample(g.neighbors(q), 5)
    heads = [rng.random() < 0.5 for _ in links]
    return FaultSet.of(nodes=[w for w, h in zip(links, heads) if h],
                       edges=[(q, w) for w, h in zip(links, heads) if not h])


def _criterion4():
    # 5 uniform faults at n = 7 leave every node at degree >= 2; the
    # boundary draws put one node at exactly 2
    started = time.perf_counter()
    budget = SearchBudget(5_000_000)
    rng = random.Random(4)
    counts = {}
    for draw, trials in (("uniform", 50), ("boundary", 50)):
        found, expansions = 0, []
        for _ in range(trials):
            g = make_preset(VariantSpec.random(rng.randrange(1 << 30)), 7)
            f = sample_faults(g, 5, rng) if draw == "uniform" else _boundary_faults(g, rng)
            view = surviving_view(g, f)
            if draw == "boundary":
                assert view.min_degree_witness()[0] == 2
            out = ham_cycle(view, budget)
            if out.found and validate_cycle(g, f, out.path).is_hamiltonian:
                found += 1
                expansions.append(out.expansions)
        counts[draw] = {"trials": trials, "found": found, "expansions": expansions}
    data = {k: v["found"] for k, v in counts.items()}
    return _artifact(counts), {**data, "elapsed": time.perf_counter() - started}


def _criterion5():
    started = time.perf_counter()
    rng = random.Random(5)
    found = 0
    for trial in range(200):
        g = make_preset(VariantSpec.random(rng.randrange(1 << 30)), 5)
        f = sample_faults(g, 1, rng)
        view = surviving_view(g, f)
        x1, y1, x2, y2 = rng.sample(view.nodes, 4)
        out = two_disjoint_spanning_paths(view, x1, y1, x2, y2)
        if not out.found:
            continue
        p1, p2 = out.paths
        cover = set(p1) | set(p2)
        if (
            p1[0] == x1 and p1[-1] == y1 and p2[0] == x2 and p2[-1] == y2
            and set(p1).isdisjoint(p2) and cover == set(view.nodes)
        ):
            found += 1
    art = _artifact({"draws": 200, "found": found})
    return art, {"found": found, "elapsed": time.perf_counter() - started}


def _criterion6():
    started = time.perf_counter()
    cfg = RunConfig(seed=1, dimension=8, fault_count=6, trial_count=200,
                    budget=SearchBudget())
    report, elapsed = run_stress(cfg)
    data = {
        "successes": report["successes"],
        "failures": report["failures"],
        "histogram": report["case_histogram"],
        "median": statistics.median(elapsed) if elapsed else 0.0,
        "elapsed": time.perf_counter() - started,
        "report_bytes": _dump(report).encode(),
        "csv_bytes": _stress_csv(report, False, elapsed).encode(),
    }
    return _artifact(report), data


def _criterion7():
    started = time.perf_counter()
    g = make_preset(VariantSpec.random(7), 8)
    fixtures = {
        "case1": (FaultSet.of(nodes=[1, 2, 130, 131]), 9, 99, "1."),
        "case2": (FaultSet.of(nodes=[1, 33, 65, 97, 120, 130]), 5, 77, "2."),
        "case4": (FaultSet.of(nodes=[1, 33, 65, 97, 120, 14]), 5, 77, "4."),
    }
    results = {}
    ok = True
    for name, (f, s, t, prefix) in fixtures.items():
        res = embed(g, f, s, t)
        verdict = validate_path(g, f, s, t, res.path)
        label = res.trace.labels()[0]
        good = verdict.is_valid and verdict.missed == res.missed and label.startswith(prefix)
        ok = ok and good
        results[name] = {"label": label, "status": res.classification, "valid": good}

    # a single half cannot drop below degree two with only 2k-9 = 5 faults at
    # k = 7: each fault removes at most one neighbor of any fixed node
    arithmetic_unreachable = (2 * 7 - 9) < 7 - 1
    q = 20
    intra = [w for w in g.neighbors(q) if w < 128]
    adversarial = FaultSet.of(edges=[(q, w) for w in intra[:5]])
    half1 = SurvivingView(g, adversarial, scope=range(128))
    min_degree, _ = half1.min_degree_witness()
    res = embed(g, adversarial, 5, 77)
    results["case3-unreachable"] = {
        "arithmetic": arithmetic_unreachable,
        "adversarial_min_degree": min_degree,
        "dispatched": res.trace.labels()[0],
    }
    ok = ok and arithmetic_unreachable and min_degree == 2
    ok = ok and res.trace.labels()[0].startswith("2.")
    return _artifact(results), {"ok": ok, "results": results,
                                "elapsed": time.perf_counter() - started}


def _criterion8():
    started = time.perf_counter()
    g = make_preset(VariantSpec.random(7), 8)
    inner = [1, 33, 65, 97, 120]
    hv = SurvivingView(g, FaultSet.of(nodes=inner), scope=range(128))
    c1 = _canon_cycle(ham_cycle(hv).path)
    s, x1, t = c1[10], c1[11], c1[12]
    f = FaultSet.of(nodes=inner, edges=[(x1, cross_partner(g, x1))])
    res = embed(g, f, s, t)
    verdict = validate_path(g, f, s, t, res.path)
    surviving = set(g.nodes) - f.nodes
    recount_missing = sorted(surviving - set(res.path))
    data = {
        "status": res.classification,
        "missed": res.missed,
        "expected_missed": x1,
        "valid": verdict.is_valid,
        "recount": recount_missing,
        "label": res.trace.labels()[0],
    }
    art = _artifact({"result": res.to_json_obj(), "recount_missing": recount_missing})
    data["elapsed"] = time.perf_counter() - started
    return art, data


_CRITERIA = {
    "c1": _criterion1,
    "c2": _criterion2,
    "c3": _criterion3,
    "c4": _criterion4,
    "c5": _criterion5,
    "c6": _criterion6,
    "c7": _criterion7,
    "c8": _criterion8,
}


def _run_all():
    out = {}
    for name, fn in _CRITERIA.items():
        out[name] = fn()
    return out


@pytest.fixture(scope="module")
def acceptance():
    return _run_all()


def _report(line):
    print(f"\nACCEPTANCE {line}")


def test_criterion1_structural_counts(acceptance):
    art, data = acceptance["c1"]
    assert data["ok"]
    assert data["elapsed"] < 5.0
    _report(f"1 PASS structural counts n=3..10 x 5 seeds ({data['elapsed']:.2f}s)")


def test_criterion2_oracle_ground_truth(acceptance):
    art, data = acceptance["c2"]
    assert data["agreements"] == 1000
    assert data["elapsed"] < 60.0
    _report(f"2 PASS search vs enumeration 1000/1000 ({data['elapsed']:.1f}s)")


def test_criterion3_small_fault_paths(acceptance):
    art, data = acceptance["c3"]
    assert data["found"] == 500
    assert data["elapsed"] < 120.0
    _report(f"3 PASS covering paths n=5 |F|=2: 500/500 ({data['elapsed']:.1f}s)")


def test_criterion4_large_fault_cycles(acceptance):
    art, data = acceptance["c4"]
    assert data["uniform"] == 50
    assert data["boundary"] == 50
    assert data["elapsed"] < 600.0
    _report(f"4 PASS covering cycles n=7 |F|=5: 50/50 uniform, 50/50 at min-degree 2 "
            f"({data['elapsed']:.1f}s)")


def test_criterion5_disjoint_path_covers(acceptance):
    art, data = acceptance["c5"]
    assert data["found"] == 200
    assert data["elapsed"] < 300.0
    _report(f"5 PASS disjoint path covers n=5 |F|=1: 200/200 ({data['elapsed']:.1f}s)")


def test_criterion6_embedding_campaign(acceptance):
    art, data = acceptance["c6"]
    assert data["successes"] == 200, data["failures"]
    assert data["failures"] == []
    assert data["report_bytes"] == STRESS_N8.read_bytes()
    assert data["csv_bytes"] == STRESS_N8_CSV.read_bytes()
    assert data["median"] < 5.0
    assert data["elapsed"] < 1800.0
    _report(
        "6 PASS embedding n=8 |F|=6: 200/200 validate, zero contradictions, "
        f"zero budget exhaustion, median {data['median'] * 1000:.0f}ms "
        f"({data['elapsed']:.1f}s)"
    )


def test_committed_check_report_is_reproduced(tmp_path):
    # the same arguments scripts/service_checks.py passes
    out = tmp_path / "check.json"
    assert main(["check", "--trials", "100", "--seed", "0", "-o", str(out)]) == 0
    assert out.read_bytes() == CHECK.read_bytes()


def test_criterion7_case_coverage(acceptance):
    art, data = acceptance["c7"]
    assert data["ok"], data["results"]
    _, c6data = acceptance["c6"]
    hist = c6data["histogram"]
    majors = {label.split(".")[0] for label in hist if label != "base"}
    fixture_majors = {v["label"].split(".")[0] for k, v in data["results"].items()
                      if k.startswith("case") and "label" in v and "unreachable" not in k}
    assert {"1", "2", "4"} <= (majors | fixture_majors)
    assert not any(label.startswith(("3.", "5.")) for label in hist)
    _report(
        f"7 PASS case coverage: fixtures {sorted(fixture_majors)}, "
        f"histogram majors {sorted(majors)}, reduced-degree case unreachable at n=8"
    )


def test_criterion8_near_hamiltonian_witness(acceptance):
    art, data = acceptance["c8"]
    assert data["status"] == "near-hamiltonian"
    assert data["missed"] == data["expected_missed"]
    assert data["valid"]
    assert data["recount"] == [data["missed"]]
    assert data["label"] == "2.1.2.2"
    assert data["elapsed"] < 30.0
    _report(
        f"8 PASS near-hamiltonian witness: missed node {data['missed']} "
        f"reported, validated, recount agrees ({data['elapsed']:.2f}s)"
    )


def test_criterion9_determinism(acceptance):
    rerun = _run_all()
    for name in _CRITERIA:
        assert rerun[name][0] == acceptance[name][0], f"{name} artifact changed"
    _report("9 PASS determinism: criteria 1-8 artifacts byte-identical on rerun")
