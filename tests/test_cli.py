"""Command-line behavior: exit codes, reproducible output, file formats."""

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from expandercodes import bounds, cli, gf2, graphs, subcodes, tanner
from expandercodes.errors import InputError
from expandercodes.gf2 import BitMatrix

TRIANGLE = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)
ROOT = Path(__file__).resolve().parents[1]


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


@pytest.fixture
def triangle_alist(tmp_path):
    path = tmp_path / "triangle.alist"
    path.write_text(gf2.to_alist(BitMatrix(TRIANGLE)))
    return str(path)


# -- configuration ------------------------------------------------------------------


def test_config_round_trips_through_json():
    cfg = cli.RunConfig(command="verify", case="a", c=3, d=6, n=12,
                        alpha="1/2", seed=9, erasure_probs=(0.25, 0.5))
    again = cli.RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(InputError, match="mystery"):
        cli.RunConfig.from_dict({"command": "verify", "mystery": 1})


def test_usage_problems_exit_with_input_error(capsys):
    assert cli.main(["no-such-command"]) == 4
    assert cli.main(["verify", "--alpha"]) == 4
    assert "error" in capsys.readouterr().err


# -- construct ----------------------------------------------------------------------


def test_construct_stdout_document(capsys):
    code, out = run(capsys, ["construct", "--case", "a", "--c", "3",
                             "--d", "6", "--n", "12", "--seed", "7"])
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["seed"] == 7
    g = tanner.TannerGraph.from_json_dict(doc["graph"])
    assert (g.n_vars, g.n_checks) == (12, 6)
    assert g.biregular_degrees() == (3, 6)
    h = gf2.parse_alist(doc["alist"])
    assert np.array_equal(h.bits, g.to_parity_matrix().bits)
    assert doc["params"]["rate_bound"] == "1/2"


def test_construct_repeats_byte_identical(capsys):
    argv = ["construct", "--case", "a", "--c", "3", "--d", "6", "--n", "12",
            "--seed", "7"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_construct_out_writes_sibling_files(tmp_path, capsys):
    stem = str(tmp_path / "code")
    code, _ = run(capsys, ["construct", "--case", "c", "--base", "k4",
                           "--subcode", "spc3", "--out", stem])
    assert code == 0
    g = tanner.TannerGraph.from_json((tmp_path / "code.json").read_text())
    h = gf2.parse_alist((tmp_path / "code.alist").read_text())
    assert np.array_equal(h.bits, g.to_parity_matrix().bits)
    assert g.provenance == "case_c"


def test_construct_case_d_needs_two_subcodes(capsys):
    code = cli.main(["construct", "--case", "d", "--m", "2", "--c", "3",
                     "--d", "2", "--subcode", "rep2"])
    assert code == 4


# -- analyze ------------------------------------------------------------------------


def test_analyze_imported_graph(triangle_alist, capsys):
    code, out = run(capsys, ["analyze", "--input", triangle_alist,
                             "--alpha", "2/3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["graph"]["degrees"] == [2, 2]
    assert doc["code"]["value"]["dmin"] == 3
    assert doc["oracles"]["min_stopping_set"]["value"]["size"] == 3
    assert doc["oracles"]["bsc_pseudoweight"]["value"]["weight"] == 3
    assert doc["expansion"]["value"]["delta"] is not None
    assert "hht_spectrum" in doc


def test_analyze_accepts_combined_construct_document(tmp_path, capsys):
    _, out = run(capsys, ["construct", "--case", "a", "--c", "2", "--d", "4",
                          "--n", "8", "--seed", "3"])
    path = tmp_path / "combined.json"
    path.write_text(out)
    code, out2 = run(capsys, ["analyze", "--input", str(path)])
    assert code == 0
    assert json.loads(out2)["graph"]["n_vars"] == 8


def test_analyze_repeats_byte_identical(triangle_alist, capsys):
    argv = ["analyze", "--input", triangle_alist, "--alpha", "1/2"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_one_parser_serves_every_call(capsys):
    # a failed parse and a parse that appends subcodes leave the shared
    # parser as they found it
    assert cli._build_parser() is cli._build_parser()
    argv = ["analyze", "--case", "b", "--c", "2", "--d", "4", "--n", "8",
            "--subcode", "spc4", "--seed", "1", "--alpha", "1/2"]
    code, first = run(capsys, argv)
    assert code == 0
    assert cli.main(["analyze", "--case", "z"]) == 4
    capsys.readouterr()
    code, out = run(capsys, ["analyze", "--case", "d", "--base", "k3,2",
                             "--subcode", "rep2", "--subcode", "spc3"])
    assert code == 0
    assert json.loads(out)["config"]["subcodes"] == ["rep2", "spc3"]
    code, again = run(capsys, argv)
    assert code == 0
    assert again == first
    assert json.loads(first)["config"]["subcodes"] == ["spc4"]


# -- bounds -------------------------------------------------------------------------


def test_bounds_case_c_json(capsys):
    code, out = run(capsys, ["bounds", "--case", "c", "--base", "k4",
                             "--subcode", "spc3"])
    assert code == 0
    doc = json.loads(out)
    ids = [row["bound_id"] for row in doc["bounds"]]
    assert ids == ["C.dmin", "C.dmin_improved", "C.smin", "C.wbsc", "T5.awgn"]
    smin = doc["bounds"][ids.index("C.smin")]
    assert smin["applicable"] and Fraction(smin["value"]) > 1


def test_bounds_csv_header(capsys):
    code, out = run(capsys, ["bounds", "--case", "c", "--base", "k4",
                             "--subcode", "spc3", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == ("bound_id,quantity,value,applicable,"
                                   "meaningful,strict,conjectural,hypotheses")


def test_bounds_nothing_applicable_exits_two(tmp_path, capsys):
    ragged = tmp_path / "ragged.alist"
    ragged.write_text(gf2.to_alist(BitMatrix(
        np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8))))
    code, out = run(capsys, ["bounds", "--input", str(ragged)])
    assert code == 2
    doc = json.loads(out)
    assert all(not row["applicable"] for row in doc["bounds"])


# -- verify -------------------------------------------------------------------------


def test_verify_case_a_passes(capsys):
    # alpha = 1/5 keeps the subsets small enough that the expansion gate
    # actually clears 1/2 on ten variables
    code, out = run(capsys, ["verify", "--case", "a", "--c", "3", "--d", "6",
                             "--n", "10", "--seed", "5", "--alpha", "1/5"])
    assert code == 0
    rows = json.loads(out)["verification"]["rows"]
    assert not any(r["holds"] is False and not r["conjectural"] for r in rows)
    assert sum(1 for r in rows if r["holds"] is True) >= 1


def test_verify_failure_exits_three(monkeypatch, capsys):
    real = bounds.case_a_bounds

    def inflated(alpha, n, delta, c):
        dmin, smin, wbsc = real(alpha, n, delta, c)
        fake = dataclasses.replace(dmin, value=Fraction(10 ** 6),
                                   applicable=True, meaningful=True)
        return fake, smin, wbsc

    monkeypatch.setattr(bounds, "case_a_bounds", inflated)
    code, out = run(capsys, ["verify", "--case", "a", "--c", "3", "--d", "6",
                             "--n", "10", "--seed", "5", "--alpha", "1/2"])
    assert code == 3
    doc = json.loads(out)
    failed = [r for r in doc["verification"]["rows"] if r["holds"] is False]
    assert [r["bound_id"] for r in failed] == ["A.dmin"]


def test_verify_guard_exceeded_exits_five(capsys):
    code = cli.main(["verify", "--case", "a", "--c", "3", "--d", "6",
                     "--n", "10", "--alpha", "1/2", "--guard-subsets", "1"])
    assert code == 5
    assert "guard exceeded" in capsys.readouterr().err


def test_verify_nothing_checked_exits_two(tmp_path, capsys):
    ragged = tmp_path / "ragged.alist"
    ragged.write_text(gf2.to_alist(BitMatrix(
        np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8))))
    assert cli.main(["verify", "--input", str(ragged)]) == 2
    capsys.readouterr()


def test_verify_repeats_byte_identical(capsys):
    # k4 keeps a real gap between the certified eigenvalue and the local
    # distance ratio, so rows are checked rather than skipped
    argv = ["verify", "--case", "c", "--base", "k4", "--subcode", "spc3"]
    code, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert code == 0
    assert first == second


def test_verify_missing_input_exits_four(capsys):
    assert cli.main(["verify"]) == 4
    assert cli.main(["verify", "--input", "/nonexistent/path.json"]) == 4
    assert cli.main(["verify", "--case", "a", "--c", "3", "--d", "6",
                     "--n", "10", "--alpha", "0/0"]) == 4
    capsys.readouterr()


def test_malformed_graph_json_exits_four(tmp_path, capsys):
    # a missing top-level key, a label object without its parity rows, and
    # three values of the wrong type; each error names the key at fault
    graph = tanner.build_case_c(graphs.complete(4), subcodes.builtin("spc3")).to_json_dict()
    no_parity = [{"name": graph["labels"][0]["name"]}] + graph["labels"][1:]
    docs = {"short.json": ({"format": "tanner-graph", "n_vars": 3}, "'labels'"),
            "label.json": ({**graph, "labels": no_parity}, "'parity'"),
            "names.json": ({**graph, "labels": ["spc3"] * len(no_parity)}, "'labels'"),
            "edges.json": ({**graph, "edges": 5}, "'edges'"),
            "null.json": ({**graph, "labels": None}, "'labels'")}
    for name, (doc, key) in docs.items():
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        assert cli.main(["analyze", "--input", str(path)]) == 4, name
        assert key in capsys.readouterr().err, name


def _spc3_graph_doc():
    return tanner.build_case_c(graphs.complete(4), subcodes.builtin("spc3")).to_json_dict()


def _with_first_edge(doc, entry):
    return [[entry] + doc["edges"][0][1:]] + doc["edges"][1:]


def _with_first_parity(doc, rows):
    return [{**doc["labels"][0], "parity": rows}] + doc["labels"][1:]


# int() would truncate or parse each of these, and a digit-wise int() reads "333"
@pytest.mark.parametrize("key,bad", [
    ("n_vars", lambda doc: 6.9),
    ("n_vars", lambda doc: "6"),
    ("n_checks", lambda doc: 4.0),
    ("edges", lambda doc: _with_first_edge(doc, 0.5)),
    ("edges", lambda doc: _with_first_edge(doc, True)),
    ("labels", lambda doc: _with_first_parity(doc, ["333"])),
    ("labels", lambda doc: _with_first_parity(doc, [[1, 1, 1]])),
], ids=["n_vars-float", "n_vars-string", "n_checks-float", "edge-float", "edge-bool",
        "parity-digit-3", "parity-list"])
def test_inexact_graph_json_values_exit_four(tmp_path, capsys, key, bad):
    doc = _spc3_graph_doc()
    doc[key] = bad(doc)
    with pytest.raises(InputError, match=repr(key)):
        tanner.TannerGraph.from_json_dict(doc)
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["analyze", "--input", str(path)]) == 4
    assert repr(key) in capsys.readouterr().err


def _relabelled(doc, at, label):
    return {**doc, "labels": [label if i in at else lab
                              for i, lab in enumerate(doc["labels"])]}


def _contradicting_docs():
    b = subcodes.builtin
    case_b = tanner.build_case_b(2, 3, 6, b("spc3"), seed=1).to_json_dict()
    case_c = _spc3_graph_doc()
    rep3 = tanner.build_case_c(graphs.complete(4), b("rep3")).to_json_dict()["labels"][0]
    case_d = tanner.build_case_d(graphs.complete_bipartite(3, 2),
                                 b("rep2"), b("spc3")).to_json_dict()
    return {
        "case_a-labelled": {**case_b, "provenance": "case_a"},
        "case_b-unlabelled-check": _relabelled(case_b, {3}, None),
        "case_c-unlabelled": _relabelled(case_c, range(4), None),
        "case_c-two-labels": _relabelled(case_c, {2}, rep3),
        "case_d-unlabelled-check": _relabelled(case_d, {0}, None),
        "case_d-two-right-labels": _relabelled(case_d, {4}, rep3),
    }


@pytest.mark.parametrize("name", sorted(_contradicting_docs()))
def test_labels_contradicting_provenance_exit_four(tmp_path, capsys, name):
    # expander_params and graph_bounds trust the provenance, so a graph whose
    # labels contradict it is refused when read, not mid-command
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(_contradicting_docs()[name]))
    for command in ("construct", "analyze", "bounds", "verify"):
        assert cli.main([command, "--input", str(path), "--alpha", "1/2"]) == 4, command
        assert "label" in capsys.readouterr().err, command


# -- simulate -----------------------------------------------------------------------


def test_simulate_json_and_determinism(triangle_alist, capsys):
    argv = ["simulate", "--input", triangle_alist, "--erasure-probs",
            "0.3,0.6", "--trials", "200", "--seed", "11"]
    code, first = run(capsys, argv)
    assert code == 0
    doc = json.loads(first)
    assert [row["erasure_prob"] for row in doc["fer"]] == [0.3, 0.6]
    for row in doc["fer"]:
        assert row["trials"] == 200
        assert 0.0 <= row["ci_low"] <= row["fer"] <= row["ci_high"] <= 1.0
    _, second = run(capsys, argv)
    assert first == second


def test_simulate_trial_log(tmp_path, triangle_alist, capsys):
    log = tmp_path / "trials.csv"
    code, _ = run(capsys, ["simulate", "--input", triangle_alist,
                           "--erasure-probs", "0.5", "--trials", "50",
                           "--trial-log", str(log), "--format", "csv"])
    assert code == 0
    lines = log.read_text().splitlines()
    assert lines[0] == "prob_index,trial,seed,erased_hash,erased_count,outcome"
    assert len(lines) == 51
    outcomes = {line.split(",")[-1] for line in lines[1:]}
    assert outcomes <= {"stuck", "recovered"}


def test_simulate_bad_probability_list(triangle_alist, capsys):
    code = cli.main(["simulate", "--input", triangle_alist,
                     "--erasure-probs", "0.5,oops"])
    assert code == 4
    capsys.readouterr()



@pytest.mark.parametrize("probs, bad", [("nan", "nan"), ("0.5,nan", "nan"),
                                        ("inf", "inf"), ("-inf", "-inf")])
def test_simulate_refuses_non_finite_probabilities(probs, bad, capsys):
    code = cli.main(["simulate", "--case", "a", "--c", "2", "--d", "4", "--n", "8",
                     f"--erasure-probs={probs}"])
    assert code == 4
    err = capsys.readouterr().err
    assert f"erasure probability {bad} is not a finite number" in err
    assert "round-trip" not in err

# -- subcode catalog ----------------------------------------------------------------


def test_subcodes_listing(capsys):
    code, out = run(capsys, ["subcodes"])
    assert code == 0
    names = {row["name"] for row in json.loads(out)["subcodes"]}
    assert {"hamming74", "spc3", "rep2"} <= names
    code, out = run(capsys, ["subcodes", "--format", "csv"])
    assert out.splitlines()[0] == "name,length,dimension,dmin,rate"


# -- resources ----------------------------------------------------------------------


def test_file_inputs_are_closed(tmp_path):
    # every file the CLI reads is closed again: -X dev turns an unclosed
    # file into a ResourceWarning, and -W makes that an error on stderr
    base = tmp_path / "tri.txt"
    base.write_text("0 1\n1 2\n2 0\n")
    sub = tmp_path / "spc2.txt"
    sub.write_text("11\n")
    graph = tmp_path / "tri.alist"
    graph.write_text(gf2.to_alist(BitMatrix(TRIANGLE)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for argv in (["construct", "--case", "c", "--base", str(base), "--subcode", str(sub)],
                 ["analyze", "--input", str(graph)]):
        proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
                               "-m", "expandercodes.cli", *argv],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stderr == "", argv
