import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from thln import (
    FaultSet,
    SearchBudget,
    VariantSpec,
    cli,
    graph_from_json,
    graph_to_dot,
    make_preset,
    validate_path,
)
from thln.cli import main
from thln.topology import ShapeCheck, ShapeReport

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_writes_canonical_json(tmp_path, capsys):
    out = tmp_path / "g.json"
    code, _, err = run_cli(capsys, "generate", "--variant", "random", "--n", "8",
                           "--seed", "7", "-o", str(out))
    assert code == 0
    g = graph_from_json(out.read_text())
    assert g.num_nodes == 256
    assert "256 nodes" in err


def test_generate_is_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, "generate", "--variant", "random", "--n", "6", "--seed", "3", "-o", str(a))
    run_cli(capsys, "generate", "--variant", "random", "--n", "6", "--seed", "3", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_generate_rejects_tiny_dimension(capsys):
    code, _, err = run_cli(capsys, "generate", "--n", "2")
    assert code == 2
    assert err == "error: dimension must be at least 3, got 2\n"


@pytest.mark.parametrize("argv", [
    ["generate", "--n", "21"],
    ["generate", "--n", "40", "--variant", "crossed"],
    ["stress", "--n", "21", "--faults", "0", "--trials", "1"],
    ["stress", "--n", "40", "--trials", "1"],
])
def test_dimensions_above_the_limit_exit_2_before_building(capsys, monkeypatch, argv):
    # a graph of dimension 40 would hold 2**40 rows: reaching the builder at
    # all fails the test at once instead of exhausting memory
    def refuse(*args, **kwargs):
        raise AssertionError("make_preset was reached")

    monkeypatch.setattr(cli, "make_preset", refuse)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    n = argv[argv.index("--n") + 1]
    assert err == f"error: dimension must be at most {cli.MAX_DIMENSION}, got {n}\n"


@pytest.mark.parametrize("n,code", [(3, 0), (4, 2)])
def test_module_entry_point_generates_the_default_base(n, code):
    # the default variant is a dimension-3 base only; `python -m thln` runs
    # the same parser as the installed script
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-m", "thln", "generate", "--variant", "default", "--n", str(n)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert graph_from_json(proc.stdout).dimension == 3
    else:
        assert proc.stdout == ""
        assert proc.stderr == "error: base3-default is only defined at dimension 3\n"


def test_generate_default_writes_a_base_that_passes_the_file_check(tmp_path, capsys):
    gpath = tmp_path / "default.json"
    code, _, err = run_cli(capsys, "generate", "--variant", "default", "--n", "3", "-o", str(gpath))
    assert code == 0, err
    code, _, _ = run_cli(capsys, "check", "--graph", str(gpath), "-o", str(tmp_path / "check.json"))
    assert code == 0
    code, _, err = run_cli(capsys, "generate", "--variant", "default", "--n", "4",
                           "-o", str(tmp_path / "four.json"))
    assert code == 2
    assert err == "error: base3-default is only defined at dimension 3\n"
    assert not (tmp_path / "four.json").exists()


def test_export_missing_file_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "export", "--graph", str(tmp_path / "nope.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_export_writes_the_dot_rendering(tmp_path, capsys):
    g = tmp_path / "g.json"
    run_cli(capsys, "generate", "--variant", "crossed", "--n", "4", "-o", str(g))
    code, out, _ = run_cli(capsys, "export", "--graph", str(g))
    assert code == 0
    assert out == graph_to_dot(graph_from_json(g.read_text()))
    assert "label=" in out


@pytest.fixture()
def instance(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    run_cli(capsys, "generate", "--variant", "random", "--n", "8", "--seed", "7",
            "-o", str(gpath))
    fpath = tmp_path / "f.json"
    fpath.write_text(FaultSet.of(nodes=[1, 33, 130], edges=[(2, 3)]).to_json())
    return gpath, fpath


def test_embed_happy_path(instance, tmp_path, capsys):
    gpath, fpath = instance
    out = tmp_path / "r.json"
    code, _, err = run_cli(capsys, "embed", "--graph", str(gpath), "--faults",
                           str(fpath), "-s", "5", "-t", "200", "-o", str(out))
    assert code == 0
    result = json.loads(out.read_text())
    assert result["status"] in ("hamiltonian", "near-hamiltonian")
    g = graph_from_json(gpath.read_text())
    f = FaultSet.from_json(fpath.read_text())
    assert validate_path(g, f, 5, 200, result["path"]).is_valid
    assert result["trace"]


@pytest.mark.parametrize("argv", [
    ["generate", "--n", "8", "-o", "{missing}/g.json"],
    ["export", "--graph", "{graph}", "-o", "{missing}/g.dot"],
    ["embed", "--graph", "{graph}", "--faults", "{faults}", "-s", "5", "-t", "200",
     "-o", "{missing}/r.json"],
    ["stress", "--n", "7", "--faults", "0", "--trials", "0", "-o", "{missing}/r.json"],
    ["stress", "--n", "7", "--faults", "0", "--trials", "0", "--csv", "{missing}/t.csv"],
    ["check", "--trials", "0", "-o", "{missing}/c.json"],
], ids=["generate", "export", "embed", "stress-out", "stress-csv", "check"])
def test_an_unwritable_output_path_exits_2(instance, tmp_path, capsys, argv):
    # bad configuration, not a failed trial (exit 1): the error names the path
    gpath, fpath = instance
    missing = tmp_path / "missing"
    code, _, err = run_cli(capsys, *(a.format(graph=gpath, faults=fpath, missing=missing)
                                     for a in argv))
    assert code == 2
    assert err.startswith("error: ") and str(missing) in err
    assert "Traceback" not in err and not missing.exists()


def test_embed_too_many_faults_exits_3(instance, tmp_path, capsys):
    gpath, _ = instance
    fpath = tmp_path / "f7.json"
    fpath.write_text(FaultSet.of(nodes=[1, 2, 3, 4, 5, 6, 130]).to_json())
    code, out, err = run_cli(capsys, "embed", "--graph", str(gpath), "--faults",
                             str(fpath), "-s", "10", "-t", "200")
    assert code == 3
    assert json.loads(out)["status"] == "error"


@pytest.mark.parametrize(
    "n,s,t,reason",
    [(6, 0, 5, "embedding needs dimension >= 7, got 6"), (8, 5, 5, "endpoints must be distinct")],
    ids=["dimension-6", "equal-endpoints"],
)
def test_embed_dimension_below_7_or_equal_endpoints_exits_3(tmp_path, capsys, n, s, t, reason):
    gpath, fpath = tmp_path / "g.json", tmp_path / "f.json"
    run_cli(capsys, "generate", "--n", str(n), "--seed", "1", "-o", str(gpath))
    fpath.write_text(FaultSet.empty().to_json())
    code, out, err = run_cli(capsys, "embed", "--graph", str(gpath), "--faults", str(fpath),
                             "-s", str(s), "-t", str(t))
    assert code == 3
    assert err == f"precondition violated: {reason}\n"
    assert json.loads(out)["reason"] == reason


def test_embed_unsafe_reports_out_of_contract(instance, tmp_path, capsys):
    # seven faults at n = 8 are one past the bound 2n - 10, and this load
    # still embeds: four in one half, three in the other
    gpath, _ = instance
    fpath = tmp_path / "f7.json"
    fpath.write_text(FaultSet.of(nodes=[1, 2, 3, 130, 131, 132, 133]).to_json())
    argv = ["embed", "--graph", str(gpath), "--faults", str(fpath), "-s", "10", "-t", "200"]
    code, out, _ = run_cli(capsys, *argv, "--unsafe")
    assert code == 0
    result = json.loads(out)
    assert result["status"] == "out-of-contract"
    assert result["classification"] == "hamiltonian"
    assert len(result["path"]) == 249
    code, _, err = run_cli(capsys, *argv)
    assert code == 3
    assert err.startswith("precondition violated: fault count 7 exceeds the bound 6")


def test_embed_unsafe_past_the_dispatch_table_exits_3(instance, tmp_path, capsys):
    # six faults in one half is case 4's load, which needs the other half
    # fault-free; the seventh fault there leaves no case to dispatch to
    gpath, _ = instance
    fpath = tmp_path / "f7.json"
    fpath.write_text(FaultSet.of(nodes=[1, 2, 3, 4, 5, 6, 130]).to_json())
    code, out, err = run_cli(capsys, "embed", "--graph", str(gpath), "--faults",
                             str(fpath), "-s", "10", "-t", "200", "--unsafe")
    assert code == 3
    assert err.startswith("precondition violated: ") and "dispatch table" in err
    assert json.loads(out)["status"] == "error"


def test_embed_graph_failing_the_shape_check_exits_2(instance, tmp_path, capsys):
    # an edge inside a base block is no edge of any level's matching, so the
    # loader accepts the file without it; the shape check does not
    gpath, fpath = instance
    doc = json.loads(gpath.read_text())
    doc["edges"].remove(next(e for e in doc["edges"] if e[1] < 8))
    mutant = tmp_path / "m.json"
    mutant.write_text(json.dumps(doc))
    graph_from_json(mutant.read_text())
    code, out, err = run_cli(capsys, "embed", "--graph", str(mutant), "--faults",
                             str(fpath), "-s", "5", "-t", "200")
    assert code == 2
    assert err.startswith("error: graph fails shape check root: regularity")
    assert out == ""


def test_embed_path_failing_validation_exits_1(instance, tmp_path, capsys, monkeypatch):
    gpath, fpath = instance
    real = cli.embed

    def drop_last_step(*args, **kwargs):
        res = real(*args, **kwargs)
        return dataclasses.replace(res, path=res.path[:-2] + res.path[-1:])

    monkeypatch.setattr(cli, "embed", drop_last_step)
    code, out, err = run_cli(capsys, "embed", "--graph", str(gpath), "--faults",
                             str(fpath), "-s", "5", "-t", "200")
    assert code == 1
    assert err == "error: produced path failed independent validation\n"
    result = json.loads(out)
    assert result["status"] == "error"
    assert result["reason"].startswith("self-check failed")


def test_embed_path_that_leaves_nodes_out_exits_1(instance, tmp_path, capsys, monkeypatch):
    # every step of the produced path is sound, so the self-check's finding
    # is the whole sequence's: it covers too few surviving nodes
    gpath, fpath = instance
    g, f = graph_from_json(gpath.read_text()), FaultSet.from_json(fpath.read_text())
    real = cli.embed(g, f, 5, 200)
    prefix = real.path[:-2]
    monkeypatch.setattr(cli, "embed", lambda *a, **k: dataclasses.replace(real, path=prefix))
    out = tmp_path / "r.json"
    code, _, err = run_cli(capsys, "embed", "--graph", str(gpath), "--faults", str(fpath),
                           "-s", "5", "-t", str(prefix[-1]), "-o", str(out))
    assert code == 1
    assert err == "error: produced path failed independent validation\n"
    alive = g.num_nodes - len(f.nodes)
    assert json.loads(out.read_text())["reason"] == (
        f"self-check failed: covers {len(prefix)} of {alive} surviving nodes")


def test_embed_faulty_endpoint_exits_3(instance, capsys):
    gpath, fpath = instance
    code, out, _ = run_cli(capsys, "embed", "--graph", str(gpath), "--faults",
                           str(fpath), "-s", "1", "-t", "200")
    assert code == 3


@pytest.mark.parametrize("s,t", [("1000", "5"), ("5", "256"), ("-1", "5")],
                         ids=["s-past-the-end", "t-one-past-the-end", "s-negative"])
def test_embed_endpoint_outside_the_graph_exits_2(instance, capsys, s, t):
    # an id that names no node is bad input, not a faulty endpoint (exit 3)
    gpath, fpath = instance
    code, out, err = run_cli(capsys, "embed", "--graph", str(gpath), "--faults",
                             str(fpath), "-s", s, "-t", t)
    assert code == 2
    bad = s if s != "5" else t
    assert err == f"error: endpoint {bad} is not a node of the graph\n"
    assert json.loads(out)["status"] == "error"


@pytest.mark.parametrize("faults", [
    lambda g: FaultSet.of(nodes=[1, g.num_nodes]),
    lambda g: FaultSet.of(edges=[(0, next(w for w in g.nodes if w and not g.has_edge(0, w)))]),
], ids=["node-past-the-end", "non-edge"])
def test_embed_foreign_fault_exits_2(instance, tmp_path, capsys, faults):
    gpath, _ = instance
    f = faults(graph_from_json(gpath.read_text()))
    fpath = tmp_path / "foreign.json"
    fpath.write_text(f.to_json())
    code, out, err = run_cli(capsys, "embed", "--graph", str(gpath), "--faults",
                             str(fpath), "-s", "5", "-t", "200")
    assert code == 2
    assert err.startswith("error: faulty ") and err.endswith(" is not in the graph\n")
    assert json.loads(out)["status"] == "error"


def test_embed_rejects_a_graph_with_non_integer_ids(tmp_path, capsys):
    # "0" and 1.6 would load as 0 and 1 if ids were coerced with int()
    gpath = tmp_path / "g.json"
    run_cli(capsys, "generate", "--variant", "random", "--n", "8", "--seed", "7",
            "-o", str(gpath))
    doc = json.loads(gpath.read_text())
    doc["edges"] = [[str(u), v + 0.6] for u, v in doc["edges"]]
    gpath.write_text(json.dumps(doc))
    fpath = tmp_path / "f.json"
    fpath.write_text(FaultSet.empty().to_json())
    code, _, err = run_cli(capsys, "embed", "--graph", str(gpath), "--faults", str(fpath),
                           "-s", "5", "-t", "200")
    assert code == 2
    assert err == "error: edges must be an integer, got '0'\n"


def test_embed_tiny_budget_exits_4(instance, capsys):
    gpath, fpath = instance
    code, out, _ = run_cli(capsys, "embed", "--graph", str(gpath), "--faults",
                           str(fpath), "-s", "5", "-t", "200", "--budget", "10")
    assert code == 4


@pytest.mark.parametrize("command", ["embed", "stress", "check"])
@pytest.mark.parametrize("flag", [["--budget", "0"], ["--budget", "-5"]],
                         ids=["budget-zero", "budget-negative"])
def test_bad_budget_exits_2(instance, capsys, command, flag):
    # a budget that is not a positive integer is bad configuration
    gpath, fpath = instance
    argv = {
        "embed": ["--graph", str(gpath), "--faults", str(fpath), "-s", "5", "-t", "200"],
        "stress": ["--n", "8", "--faults", "6", "--trials", "1"],
        "check": ["--trials", "1"],
    }[command]
    code, _, err = run_cli(capsys, command, *argv, *flag)
    assert code == 2
    assert "budget" in err


def test_embed_graph_file_the_loader_rejects_exits_2(instance, capsys):
    gpath, fpath = instance
    doc = json.loads(gpath.read_text())
    doc["decomposition"]["children"] = doc["decomposition"]["children"][:1]
    gpath.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "embed", "--graph", str(gpath), "--faults", str(fpath),
                             "-s", "5", "-t", "200")
    assert code == 2
    assert (out, err) == ("", "error: children must be absent or a pair\n")


def test_embed_missing_file_exits_2(instance, capsys, tmp_path):
    gpath, _ = instance
    code, _, _ = run_cli(capsys, "embed", "--graph", str(gpath), "--faults",
                         str(tmp_path / "nope.json"), "-s", "5", "-t", "200")
    assert code == 2


def _cut_matching(doc):
    m = doc["decomposition"]["matching"]
    doc["decomposition"]["matching"] = m[: len(m) // 2]


def _rotate_matching(doc):
    m = doc["decomposition"]["matching"]
    seconds = [v for _, v in m]
    seconds = seconds[1:] + seconds[:1]
    doc["decomposition"]["matching"] = [[u, v] for (u, _), v in zip(m, seconds)]


def _swap_half1_node(doc):
    half1 = doc["decomposition"]["half1"]
    doc["decomposition"]["half1"] = sorted(half1[:-1] + [255])


@pytest.mark.parametrize(
    "edit,failing_check",
    [(_cut_matching, "root: matching-size"),
     (_rotate_matching, "root: matching-edges-present"),
     (_swap_half1_node, "root: matching-bijection")],
    ids=["matching-cut-in-half", "matching-rotated", "half1-node-swapped"],
)
def test_embed_shape_checks_the_graph(tmp_path, capsys, edit, failing_check):
    # a hand-edited decomposition is bad input (exit 2), not a crash or an
    # internal contradiction in the embedder
    gpath = tmp_path / "g.json"
    run_cli(capsys, "generate", "--variant", "random", "--n", "8", "--seed", "3",
            "-o", str(gpath))
    doc = json.loads(gpath.read_text())
    edit(doc)
    gpath.write_text(json.dumps(doc))
    fpath = tmp_path / "f.json"
    fpath.write_text(FaultSet.empty().to_json())
    code, _, err = run_cli(capsys, "embed", "--graph", str(gpath), "--faults", str(fpath),
                           "-s", "130", "-t", "200")
    assert code == 2
    assert failing_check in err


@pytest.mark.parametrize("edit,failing_check",
                         [(_cut_matching, "root: matching-size"),
                          (_rotate_matching, "root: matching-edges-present")],
                         ids=["matching-cut-in-half", "matching-rotated"])
def test_check_graph_whose_matching_disagrees_with_its_edges_exits_2(
        tmp_path, capsys, edit, failing_check):
    # the file's matching restates its cross edges; the loader checks it, so
    # a file where the two disagree is unreadable input
    gpath = tmp_path / "g.json"
    run_cli(capsys, "generate", "--variant", "random", "--n", "8", "--seed", "3",
            "-o", str(gpath))
    doc = json.loads(gpath.read_text())
    edit(doc)
    gpath.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "check", "--graph", str(gpath))
    assert code == 2
    assert failing_check in err


@pytest.mark.parametrize("text", ["[1, 2]", '{"nodes": [[1, 2]]}'],
                         ids=["not-an-object", "non-integer-node"])
def test_embed_malformed_fault_file_exits_2(instance, capsys, tmp_path, text):
    gpath, _ = instance
    fpath = tmp_path / "bad.json"
    fpath.write_text(text)
    code, _, err = run_cli(capsys, "embed", "--graph", str(gpath), "--faults", str(fpath),
                           "-s", "5", "-t", "200")
    assert code == 2
    assert "error:" in err


def test_stress_rejects_configs_it_cannot_run(capsys):
    # below dimension 7 every trial would break embed's precondition, a fault
    # count outside 0..(nodes + edges) cannot be sampled, and a negative trial
    # count runs nothing
    for argv in (["--n", "5", "--faults", "0", "--trials", "2"],
                 ["--n", "7", "--faults", "-1"],
                 ["--n", "7", "--faults", "100000", "--unsafe"],
                 ["--n", "8", "--trials", "-1"]):
        code, _, err = run_cli(capsys, "stress", *argv)
        assert code == 2, argv
        assert "error:" in err, argv


def test_check_rejects_a_negative_trial_count(tmp_path, capsys):
    out = tmp_path / "c.json"
    code, _, err = run_cli(capsys, "check", "--trials", "-5", "-o", str(out))
    assert code == 2
    assert "error:" in err
    assert not out.exists()


@pytest.mark.parametrize("trials", [0, 2])
def test_check_trial_count_bounds_every_service_suite(tmp_path, capsys, trials):
    out = tmp_path / "c.json"
    code, _, _ = run_cli(capsys, "check", "--trials", str(trials), "-o", str(out))
    assert code == 0
    counts = {s["name"]: s["detail"].get("trials", s["detail"].get("draws"))
              for s in json.loads(out.read_text())["suites"] if s["name"].startswith("service-")}
    assert counts == {"service-covering-path": trials, "service-covering-cycle": trials,
                      "service-large-fault-cycle": trials,
                      "service-disjoint-path-cover": trials}


def test_stress_zero_trials(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "stress", "--n", "8", "--trials", "0", "-o", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["successes"] == 0 and report["trials"] == []


def test_stress_small_run_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["stress", "--n", "8", "--faults", "6", "--trials", "3", "--seed", "1"]
    code, _, _ = run_cli(capsys, *args, "-o", str(a))
    assert code == 0
    run_cli(capsys, *args, "-o", str(b))
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())
    assert report["successes"] == 3
    assert "timing_s" not in report


def test_stress_fault_bound_needs_unsafe(capsys):
    code, _, _ = run_cli(capsys, "stress", "--n", "8", "--faults", "7", "--trials", "1")
    assert code == 2
    code, _, _ = run_cli(capsys, "stress", "--n", "8", "--faults", "7", "--trials", "1",
                         "--unsafe")
    assert code in (0, 1)  # out-of-contract trials may legitimately fail


def test_stress_unsafe_with_every_element_faulty_reports_the_failure(tmp_path, capsys):
    # 576 = 128 nodes + 448 edges at n = 7: no node survives to be an endpoint
    out = tmp_path / "r.json"
    code, _, err = run_cli(capsys, "stress", "--n", "7", "--faults", "576", "--trials", "1",
                           "--unsafe", "-o", str(out))
    assert code == 1
    assert "Traceback" not in err
    report = json.loads(out.read_text())
    assert report["successes"] == 0
    assert report["failures"] == [
        {"trial": 0, "error": "no endpoint pair met the neighbor condition"}
    ]


def test_stress_past_the_bound_fails_cleanly(tmp_path, capsys):
    # two faults past 2n - 10: trials 0 and 3 draw a fault load that no case
    # takes, and each fails as a PreconditionViolated, never a contradiction
    out = tmp_path / "r.json"
    code, _, err = run_cli(capsys, "stress", "--n", "8", "--faults", "8", "--trials", "4",
                           "--seed", "2", "--unsafe", "-o", str(out))
    assert code == 1
    assert err.startswith("stress: 2/4 ok;")
    error = ("PreconditionViolated: fault load f1=6, f2=2, fc=0 exceeds the dispatch table "
             "at dimension 8")
    assert json.loads(out.read_text())["failures"] == [
        {"trial": 0, "error": error}, {"trial": 3, "error": error}
    ]


def test_stress_trial_names_both_missed_nodes_when_they_disagree(monkeypatch):
    # the path validates, but embed reports one of its own nodes as missed:
    # the record names the validator's missed node and the reported one, in
    # the words of thln embed's self-check
    real, reported = cli.embed, []

    def misreport(*args, **kwargs):
        res = real(*args, **kwargs)
        reported.append(res.path[3])
        return dataclasses.replace(res, missed=res.path[3])

    monkeypatch.setattr(cli, "embed", misreport)
    record = cli.run_stress_trial(8, 6, 1, SearchBudget())
    assert record["ok"] is False
    assert record["error"] == f"validation: missed node None, reported {reported[0]}"


#: stand-ins for ``run_stress_trial``'s records, by trial index; no uniform
#: campaign has produced a near-hamiltonian trial, so none fills
#: ``missed_frequency``
_CANNED_TRIALS = [
    {"ok": True, "s": 3, "t": 9, "status": "near-hamiltonian", "missed": 17, "path_len": 126,
     "cases": ["2.1.2.2", "1.1"], "elapsed_s": 0.5, "error": None},
    {"ok": False, "s": 4, "t": 8, "status": "hamiltonian", "missed": None, "path_len": 127,
     "cases": ["1.1", "1.3"], "elapsed_s": 0.25, "error": "validation: not a path"},
    {"ok": False, "error": "no endpoint pair met the neighbor condition"},
]


@pytest.mark.parametrize("timing", [False, True], ids=["untimed", "timed"])
def test_stress_report_tallies_every_trial(monkeypatch, timing):
    calls = []

    def canned(n, fault_count, seed, budget, enforce_bounds=True):
        i = seed - cli._trial_seed(4, 0)
        calls.append((n, fault_count, i, enforce_bounds))
        return dict(_CANNED_TRIALS[i])

    monkeypatch.setattr(cli, "run_stress_trial", canned)
    cfg = cli.RunConfig(seed=4, dimension=7, fault_count=5, trial_count=3, unsafe=True,
                        timing=timing)
    report, elapsed = cli.run_stress(cfg)
    csv = cli._stress_csv(report, timing, elapsed).splitlines()
    assert calls == [(7, 5, i, False) for i in range(3)]
    assert elapsed == [0.5, 0.25, 0.0]
    assert report.pop("config") == {"dimension": 7, "faults": 5, "trials": 3, "seed": 4,
                                    "budget": cfg.budget.max_expansions, "unsafe": True}
    assert report.pop("successes") == 1
    assert report.pop("statuses") == {"near-hamiltonian": 1, "hamiltonian": 1}
    # every level's label counts, not only each trial's top case
    assert report.pop("case_histogram") == {"2.1.2.2": 1, "1.1": 2, "1.3": 1}
    assert report.pop("missed_frequency") == {"17": 1}
    assert report.pop("failures") == [
        {"trial": 1, "error": "validation: not a path"},
        {"trial": 2, "error": "no endpoint pair met the neighbor condition"},
    ]
    assert report.pop("trials") == [
        {**{k: v for k, v in rec.items() if k != "elapsed_s"}, "trial": i}
        for i, rec in enumerate(_CANNED_TRIALS)
    ]
    if timing:
        assert report.pop("timing_s") == {"median": 0.25, "max": 0.5, "total": 0.75}
    assert report == {}
    rows = ["0,1,near-hamiltonian,17,126,2.1.2.2", "1,0,hamiltonian,,127,1.1", "2,0,,,,"]
    header = "trial,ok,status,missed,path_len,top_case"
    if timing:
        header += ",elapsed_s"
        rows = [row + f",{t:.6f}" for row, t in zip(rows, elapsed)]
    assert csv == [header, *rows]


def test_stress_csv(tmp_path, capsys):
    csv = tmp_path / "t.csv"
    code, _, _ = run_cli(capsys, "stress", "--n", "8", "--faults", "4", "--trials", "2",
                         "--seed", "5", "-o", str(tmp_path / "r.json"), "--csv", str(csv))
    assert code == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0].startswith("trial,ok,status")
    assert len(lines) == 3


def test_check_default_suites(tmp_path, capsys):
    out = tmp_path / "c.json"
    code, _, err = run_cli(capsys, "check", "--trials", "10", "-o", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["ok"]
    names = {s["name"] for s in report["suites"]}
    assert "topology-shape-sweep" in names
    assert "service-disjoint-path-cover" in names


def test_check_budget_one_fails_every_service_suite(tmp_path, capsys):
    # one expansion settles no search, so every service trial and draw fails
    # and is recorded; the report is pinned byte for byte
    out = tmp_path / "c.json"
    code, _, _ = run_cli(capsys, "check", "--budget", "1", "--trials", "6", "--seed", "0",
                         "-o", str(out))
    assert code == 1
    suites = json.loads(out.read_text())["suites"]
    services = [s for s in suites if s["name"] != "topology-shape-sweep"]
    assert len(services) == 4
    for suite in services:
        detail = suite["detail"]
        count = "draws" if "draws" in detail else "trials"
        assert not suite["ok"]
        assert detail["failures"] == [
            {count[:-1]: i, "status": "budget-exhausted"} for i in range(detail[count])
        ]
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == "053b951763db75c1"


def test_check_topology_records_each_failing_spec(tmp_path, capsys, monkeypatch):
    # the sweep covers four named variants and one seeded random one at each
    # of n = 3..6; each spec that fails is recorded by kind and dimension
    bad = [make_preset(VariantSpec.random(4), 4), make_preset(VariantSpec("mobius1"), 5)]
    real = cli.check_shape

    def check(g):
        if g in bad:
            return ShapeReport((ShapeCheck("root: regularity", False, "stand-in"),))
        return real(g)

    monkeypatch.setattr(cli, "check_shape", check)
    out = tmp_path / "c.json"
    code, _, err = run_cli(capsys, "check", "--trials", "1", "-o", str(out))
    assert code == 1
    assert json.loads(out.read_text())["suites"][0] == {
        "name": "topology-shape-sweep", "ok": False, "detail": {"failures": [
            {"variant": "random", "n": 4, "failures": ["root: regularity"]},
            {"variant": "mobius1", "n": 5, "failures": ["root: regularity"]},
        ]},
    }
    assert "FAIL topology-shape-sweep" in err


def test_check_flags_mutant_graph(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    run_cli(capsys, "generate", "--variant", "random", "--n", "5", "--seed", "2",
            "-o", str(gpath))
    doc = json.loads(gpath.read_text())
    doc["edges"] = doc["edges"][1:]  # drop one edge: regularity must fail
    mutant = tmp_path / "m.json"
    mutant.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "check", "--graph", str(mutant),
                           "-o", str(tmp_path / "c.json"))
    assert code == 1
    report = json.loads((tmp_path / "c.json").read_text())
    assert not report["ok"]
    failures = report["suites"][0]["detail"]["failures"]
    assert any("regularity" in f["check"] for f in failures)
