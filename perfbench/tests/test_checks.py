"""Each output check of the benchmark accepts a correct output and rejects a
deliberately corrupted one.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from expandercodes import graphs, subcodes, tanner  # noqa: E402

RING3 = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]])


# -- pure reference computations ----------------------------------------------------


def test_brute_force_dmin_on_known_codes():
    hamming = np.array([[1, 0, 1, 0, 1, 0, 1], [0, 1, 1, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1, 1]])
    assert checks.brute_force_dmin(hamming) == 3
    assert checks.brute_force_dmin(RING3) == 3
    assert checks.brute_force_dmin(np.eye(4, dtype=int)) is None


def test_nullspace_spans_the_code():
    hamming = np.array([[1, 0, 1, 0, 1, 0, 1], [0, 1, 1, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1, 1]])
    basis = checks.nullspace(hamming)
    assert basis.shape == (4, 7)
    assert not ((hamming @ basis.T) % 2).any()


def test_peel_finds_stopping_sets():
    residual = checks.peel(RING3, [[1, 1, 1], [1, 0, 0], [1, 1, 0]])
    assert residual.any(axis=1).tolist() == [True, False, False]


# -- verify-sweep rows --------------------------------------------------------------


GOOD_ROWS = [("A.dmin", "min_distance", F(3), True, False),
             ("A.smin", "min_stopping_set", F(3), True, False),
             ("A.wbsc", "bsc_pseudoweight", F(3), True, False),
             ("D.conjecture", "bsc_pseudoweight", F(3), False, True),
             ("C.dmin", "min_distance", None, None, False)]


def test_verify_rows_accept_a_correct_report():
    seen = {}
    assert checks.check_verify_rows(GOOD_ROWS, 3, seen) == []
    assert checks.check_floors(seen, {"A.dmin": 1, "A.wbsc": 1}) == []


@pytest.mark.parametrize("index, row", [
    (0, ("A.dmin", "min_distance", F(4), True, False)),      # wrong distance oracle
    (1, ("A.smin", "min_stopping_set", F(5), True, False)),  # stopping set above dmin
    (2, ("A.wbsc", "bsc_pseudoweight", F(3), False, False)),  # a FAIL row
])
def test_verify_rows_reject_corruption(index, row):
    rows = list(GOOD_ROWS)
    rows[index] = row
    assert checks.check_verify_rows(rows, 3)


def test_floors_reject_skipped_oracles():
    seen = {}
    checks.check_verify_rows(GOOD_ROWS[1:], 3, seen)
    assert checks.check_floors(seen, {"A.dmin": 1})


# -- analyze documents --------------------------------------------------------------


def ring_doc(**changes) -> str:
    third = ["1/3", "1/3", "1/3"]
    doc = {"code": {"value": {"dmin": 3}},
           "oracles": {"min_stopping_set": {"value": {"size": 3, "support": [0, 1, 2]}},
                       "bsc_pseudoweight": {"value": {"weight": 3, "witness": {"values": third}}},
                       "awgn_pseudoweight": {"value": {"weight": "3", "witness": {"values": third}}}}}
    for path, value in changes.items():
        node = doc
        keys = path.split("__")
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] = value
    return json.dumps(doc)


def test_analyze_accepts_a_correct_document():
    errors, done = checks.check_analyze(0, ring_doc(), 3, RING3, [None] * 3)
    assert errors == [] and done == 3


@pytest.mark.parametrize("rc, text", [
    (5, ring_doc()),
    (0, "not json"),
    (0, ring_doc(code__value__dmin=2)),
    (0, ring_doc(oracles__bsc_pseudoweight__value__weight=2)),
    (0, ring_doc(oracles__awgn_pseudoweight__value__weight="5/2")),
    (0, ring_doc(oracles__min_stopping_set__value={"size": 1, "support": [0]})),
])
def test_analyze_rejects_corruption(rc, text):
    errors, _ = checks.check_analyze(rc, text, 3, RING3, [None] * 3)
    assert errors


def test_labelled_stopping_set_needs_a_local_codeword():
    inc = np.ones((1, 3), dtype=int)
    rep3 = checks.local_codewords([[1, 1, 0], [0, 1, 1]])
    assert checks.stopping_set_errors([0, 1, 2], inc, [rep3]) == []
    assert checks.stopping_set_errors([0, 1], inc, [rep3])


# -- spectra and expansion ----------------------------------------------------------


def test_mu_check_brackets_the_second_eigenvalue():
    k4 = np.ones((4, 4)) - np.eye(4)
    assert checks.check_mu("1", k4, bipartite=False) == []
    assert checks.check_mu("9/10", k4, bipartite=False)
    assert checks.check_mu("11/10", k4, bipartite=False)
    k33 = np.zeros((6, 6))
    k33[:3, 3:] = k33[3:, :3] = 1
    assert checks.check_mu("0", k33, bipartite=True) == []
    assert checks.check_mu("1/2", k33, bipartite=True)


def test_expansion_check_rejects_a_wrong_profile():
    g = tanner.build_case_a(3, 6, 24, 7)
    inc = workloads.incidence(g)
    rng = np.random.default_rng(0)
    # the true profile at alpha = 1/8 (subsets of size at most 2)
    best = min((checks.expansion_ratio(inc, (i,) if i == j else (i, j)), (i,) if i == j else (i, j))
               for i in range(24) for j in range(i, 24))
    delta, witness = best
    assert checks.check_expansion(inc, F(1, 8), delta, witness, rng, 2000) == []
    other = next(w for w in [(0,), (1,), (0, 1)] if checks.expansion_ratio(inc, w) != delta)
    assert checks.check_expansion(inc, F(1, 8), delta, other, rng, 2000)
    assert checks.check_expansion(inc, F(1, 8), delta, tuple(range(5)), rng, 2000)
    assert checks.check_expansion(inc, F(1, 8), delta, None, rng, 2000)
    # a delta above the true minimum is caught by the random subsets
    assert checks.check_expansion(inc, F(1, 8), delta + F(1, 100), witness, rng, 20000)


# -- whole-pass checks on small inputs -------------------------------------------------


def test_bec_pass_check_rejects_corruption():
    w = workloads.BecFer()
    x = workloads.BecInputs(
        mc_graph=tanner.build_case_a(3, 6, 30, 1), mc_probs=(0.3, 0.5), mc_trials=4, mc_seed=2,
        labelled=tanner.build_case_c(graphs.named_graph("k4"), subcodes.builtin("spc3")),
        words=[], erasures=[], scan_graph=tanner.build_case_a(2, 4, 8, 3))
    basis = checks.nullspace(x.labelled.to_parity_matrix().bits)
    x.words = [basis[0], basis[1] ^ basis[2]]
    x.erasures = [np.array([0]), np.array([1, 2])]
    ref = w.reference(x)
    p = w.run_pass(x)
    assert w.check(x, ref, p).errors == []

    rows, trials, decoded, scan = p.outputs
    flipped = [(i, e, not s) if t == 0 else (i, e, s) for t, (i, e, s) in enumerate(trials)]
    bad_rows = [dataclasses.replace(rows[0], failures=rows[0].failures + 1)] + rows[1:]
    wrong_word = dataclasses.replace(decoded[0], word=decoded[0].word ^ 1)
    bad_scan = dataclasses.replace(scan, decoder_stuck=scan.decoder_stuck + 1)
    for outputs in [(rows, flipped, decoded, scan), (bad_rows, trials, decoded, scan),
                    (rows, trials, [wrong_word] + decoded[1:], scan),
                    (rows, trials, decoded, bad_scan)]:
        v = w.check(x, ref, workloads.Pass(p.wall_s, p.op_times, outputs))
        assert v.errors and v.failed >= 1


def test_verify_pass_check_rejects_corruption():
    w = workloads.VerifySweep()
    w.floors = {"A.dmin": 1}
    inst = [(tanner.build_case_a(2, 2, 7, 3, require_connected=True), F(2, 7))]
    ref = w.reference(inst)
    p = w.run_pass(inst)
    assert w.check(inst, ref, p).errors == []
    report = p.outputs[0]
    row = next(r for r in report.rows if r.quantity == "min_distance")
    bad = dataclasses.replace(report, rows=tuple(
        dataclasses.replace(r, oracle_value=r.oracle_value + 1) if r is row else r
        for r in report.rows))
    assert w.check(inst, ref, workloads.Pass(p.wall_s, p.op_times, [bad])).failed == 1


def test_bounds_pass_check_rejects_corruption():
    w = workloads.BoundsLarge()
    w.random_subsets = 500
    base = graphs.random_regular(12, 4, 5)
    inst = [("c", tanner.build_case_c(base, subcodes.builtin("spc4")), None, base),
            ("a", tanner.build_case_a(3, 6, 24, 5), F(1, 8), None)]
    ref = w.reference(inst)
    p = w.run_pass(inst)
    assert w.check(inst, ref, p).errors == []
    (r0, ctx0, prof0), (r1, ctx1, prof1) = p.outputs
    high_mu = dict(ctx0, mu_upper=str(F(ctx0["mu_upper"]) + F(1, 100)))
    wrong_witness = dataclasses.replace(prof1, witness=tuple(range(4)))
    for outputs in [[(r0, high_mu, prof0), (r1, ctx1, prof1)],
                    [(r0, ctx0, prof0), (r1, ctx1, wrong_witness)],
                    [(r0, ctx0, prof0), (r1, ctx1, None)]]:
        assert w.check(inst, ref, workloads.Pass(p.wall_s, p.op_times, outputs)).failed == 1
