"""Erasure decoding, the failure-structure scan, and Monte Carlo estimates."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from expandercodes import bec, graphs, subcodes, tanner
from expandercodes.errors import (
    ExpanderCodesError,
    InvalidKnownBits,
    LengthMismatch,
    SearchSpaceTooLarge,
)
from expandercodes.gf2 import BitMatrix, nullspace_basis, solve

REP3 = subcodes.builtin("rep3")
HAMMING = subcodes.builtin("hamming74")


def triangle():
    h = BitMatrix(np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8))
    return tanner.from_parity_matrix(h)


def single_check(label):
    n = label.length
    return tanner.TannerGraph(n, 1, [(j, 0, 0, j) for j in range(n)],
                              labels=[label])


# -- reference decoder ------------------------------------------------------------
#
# A flooding decoder: every round visits every check and solves its GF(2)
# system from scratch with gf2.solve and gf2.nullspace_basis.  Slow, but
# independent of the cached local rules and the frontier schedule of
# bec.decode_bec.


def _reference_local_parity(g, c) -> BitMatrix:
    label = g.labels[c]
    if label is not None:
        return label.h
    return BitMatrix(np.ones((1, g.check_degree(c)), dtype=np.uint8))


def _reference_determined_bits(h, known, unknown):
    b = np.zeros(h.rows, dtype=np.uint8)
    for j, val in known.items():
        if val:
            b ^= h.bits[:, j]
    if not unknown:
        if b.any():
            raise InvalidKnownBits("known bits violate a fully known check")
        return {}
    a = BitMatrix(h.bits[:, unknown])
    particular = solve(a, b)
    if particular is None:
        raise InvalidKnownBits("known bits are inconsistent at a check")
    free = np.zeros(len(unknown), dtype=np.uint8)
    for vec in nullspace_basis(a):
        free |= vec
    return {unknown[t]: int(particular[t])
            for t in range(len(unknown)) if not free[t]}


def reference_decode(g, erased, received=None):
    unknown = set(int(v) for v in erased)
    word = np.zeros(g.n_vars, dtype=np.uint8)
    if received is not None:
        word = np.asarray(received, dtype=np.uint8) & 1
    word[sorted(unknown)] = 0
    if received is not None and not unknown:
        if g.to_parity_matrix().mul_vec(word).any():
            raise InvalidKnownBits("received word violates a check")
    rounds = 0
    while unknown:
        filled = {}
        for c in range(g.n_checks):
            idx = g.check_vars(c)
            unk_local = [t for t, v in enumerate(idx) if v in unknown]
            known_local = {t: int(word[idx[t]]) for t in range(len(idx))
                           if idx[t] not in unknown}
            got = _reference_determined_bits(_reference_local_parity(g, c),
                                             known_local, unk_local)
            for t, val in got.items():
                v = idx[t]
                if v in filled and filled[v] != val:
                    raise InvalidKnownBits(
                        f"checks disagree on erased position {v}")
                filled[v] = val
        if not filled:
            break
        for v, val in filled.items():
            word[v] = val
            unknown.discard(v)
        rounds += 1
    residual = tuple(sorted(unknown))
    return bec.DecodeResult(word=None if residual else word,
                            residual=residual, rounds=rounds)


def _outcome(decode, g, erased, received):
    try:
        res = decode(g, erased, received)
    except ExpanderCodesError as exc:
        return ("raised", type(exc), str(exc))
    word = None if res.word is None else tuple(int(b) for b in res.word)
    return (res.residual, res.rounds, word)


def oracle_graphs():
    sub = subcodes.builtin
    return [
        tanner.build_case_a(2, 4, 10, seed=1),
        tanner.build_case_a(3, 6, 12, seed=2),
        tanner.build_case_b(2, 4, 8, sub("spc4"), seed=3),
        tanner.build_case_b(2, 3, 9, sub("rep3"), seed=4),
        tanner.build_case_b(2, 7, 7, sub("hamming74"), seed=5),
        tanner.build_case_b(2, 8, 8, sub("exthamming84"), seed=6),
        tanner.build_case_c(graphs.complete(4), sub("spc3")),
        tanner.build_case_c(graphs.prism(3), sub("rep3")),
        tanner.build_case_c(graphs.complete(8), sub("hamming74")),
        tanner.build_case_c(graphs.complete(9), sub("exthamming84")),
        tanner.build_case_d(graphs.random_biregular(6, 2, 3, seed=7),
                            sub("rep2"), sub("spc3")),
        tanner.build_case_d(graphs.complete_bipartite(7, 2),
                            sub("spc2"), sub("hamming74")),
        tanner.build_case_d(graphs.complete_bipartite(8, 2),
                            sub("rep2"), sub("exthamming84")),
    ]


def test_decode_matches_flooding_reference():
    rng = np.random.default_rng(2024)
    outcomes = set()
    for g in oracle_graphs():
        basis = nullspace_basis(g.to_parity_matrix())
        for trial in range(40):
            word = np.zeros(g.n_vars, dtype=np.uint8)
            for vec in basis:
                if rng.integers(2):
                    word ^= vec
            if trial % 2:
                # corrupt some known bits: the decoder must fail exactly as
                # the reference does, or recover exactly what it recovers
                word ^= (rng.random(g.n_vars) < 0.1).astype(np.uint8)
            p = (0.15, 0.35, 0.6)[trial % 3]
            erased = np.flatnonzero(rng.random(g.n_vars) < p)
            want = _outcome(reference_decode, g, erased, word)
            got = _outcome(bec.decode_bec, g, erased, word)
            assert got == want, (g, erased, word)
            outcomes.add(want[0] if want[0] == "raised" else bool(want[0]))
    # the draw reaches decoded, stuck and rejected inputs alike
    assert outcomes == {"raised", True, False}


def test_local_rules_exhaustive_on_builtin_labels():
    for name in subcodes.catalog():
        label = subcodes.builtin(name)
        d = label.length
        assert d <= 8
        rows = single_check(label).local_parity_masks()[0]
        full = (1 << d) - 1
        words = [sum(int(b) << j for j, b in enumerate(w)) for w in label.codewords]
        for u in range(1 << d):
            determined, consistency = bec._local_rule(rows, u)
            # t is determined iff no codeword inside the erased mask has a 1 at t
            free = 0
            for w in words:
                if w & ~u == 0:
                    free |= w
            assert [t for t, _ in determined] == [
                t for t in range(d) if (u >> t) & 1 and not (free >> t) & 1], (name, u)
            for w in words:
                y = w & ~u
                for t, dep in determined:
                    assert (dep & y).bit_count() % 2 == (w >> t) & 1
            # known bits pass every consistency mask iff a codeword has them
            known = full & ~u
            restrictions = {w & known for w in words}
            y = known
            while True:
                passes = all((m & y).bit_count() % 2 == 0 for m in consistency)
                assert passes == (y in restrictions), (name, u, y)
                if y == 0:
                    break
                y = (y - 1) & known


def test_decode_nothing_erased():
    g = triangle()
    res = bec.decode_bec(g, [])
    assert not res.stuck
    assert res.rounds == 0
    assert np.array_equal(res.word, [0, 0, 0])


def test_decode_single_unknown_fill():
    # one erased edge of the triangle is pinned by either endpoint check
    g = triangle()
    res = bec.decode_bec(g, [0], received=[0, 1, 1])
    assert not res.stuck
    assert np.array_equal(res.word, [1, 1, 1])


def test_decode_stuck_on_full_erasure():
    g = triangle()
    res = bec.decode_bec(g, [0, 1, 2])
    assert res.stuck
    assert res.word is None
    assert res.residual == (0, 1, 2)


def test_decode_multi_fill_beats_single_unknown_rule():
    # a repetition check recovers two erasures at once from one known bit;
    # a single-unknown peeler cannot
    g = single_check(REP3)
    res = bec.decode_bec(g, [0, 1], received=[0, 0, 1])
    assert not res.stuck
    assert np.array_equal(res.word, [1, 1, 1])


def test_decode_hamming_below_distance_always_recovers():
    g = single_check(HAMMING)
    words = [np.zeros(7, dtype=np.uint8)] + list(HAMMING.nonzero_codewords())
    for w in words[:5]:
        for erased in itertools.combinations(range(7), 2):
            res = bec.decode_bec(g, erased, received=w)
            assert not res.stuck
            assert np.array_equal(res.word, w)


def test_decode_rejects_contradictory_known_bits():
    g = triangle()
    with pytest.raises(InvalidKnownBits):
        bec.decode_bec(g, [], received=[1, 0, 0])


def test_decode_input_validation():
    g = triangle()
    with pytest.raises(LengthMismatch):
        bec.decode_bec(g, [7])
    with pytest.raises(LengthMismatch):
        bec.decode_bec(g, np.array([True, False]))
    with pytest.raises(LengthMismatch):
        bec.decode_bec(g, [0], received=[0, 0])


def test_decode_accepts_boolean_masks():
    g = triangle()
    res = bec.decode_bec(g, np.array([True, False, False]),
                         received=[0, 1, 1])
    assert not res.stuck


def test_decode_erasure_monotone():
    # every erasure pattern that decodes keeps decoding after removing a
    # position from it
    g = tanner.build_case_a(2, 4, 8, seed=4)
    for mask in range(1 << 8):
        erased = [b for b in range(8) if (mask >> b) & 1]
        if bec.decode_bec(g, erased).stuck:
            continue
        for drop in erased:
            sub = [v for v in erased if v != drop]
            assert not bec.decode_bec(g, sub).stuck


def test_decode_order_independent_under_relabeling():
    # permuting variable indices permutes the residual with them
    g = tanner.build_case_a(2, 4, 8, seed=1)
    perm = [3, 1, 4, 0, 6, 2, 7, 5]
    inv = [perm.index(i) for i in range(8)]
    edges = [(perm[v], c, vs, cs) for (v, c, vs, cs) in g.edges]
    h = tanner.TannerGraph(8, g.n_checks, edges)
    for mask in range(0, 1 << 8, 7):
        erased = [b for b in range(8) if (mask >> b) & 1]
        a = bec.decode_bec(g, erased)
        b = bec.decode_bec(h, [perm[v] for v in erased])
        assert a.stuck == b.stuck
        assert tuple(sorted(perm[v] for v in a.residual)) == b.residual


def test_scan_simple_graphs_agree_with_peeling_oracle():
    for seed in range(4):
        g = tanner.build_case_a(2, 4, 8, seed=seed)
        rep = bec.failure_equivalence_scan(g)
        assert rep.kind == "simple"
        assert rep.patterns == 2 ** 8
        assert rep.equivalent
        assert rep.stuck_without_structure == 0
        assert rep.structure_without_stuck == 0


def test_scan_triangle_counts():
    # the only stopping set of the triangle is everything, so exactly one
    # pattern fails
    rep = bec.failure_equivalence_scan(triangle())
    assert rep.patterns == 8
    assert rep.decoder_stuck == 1
    assert rep.structural == 1
    assert rep.equivalent


def test_scan_generalized_one_sided():
    g = tanner.build_case_c(graphs.complete(4), subcodes.builtin("spc3"))
    rep = bec.failure_equivalence_scan(g)
    assert rep.kind == "generalized"
    assert rep.patterns == 2 ** 6
    # supported patterns are never decoded; the converse may legitimately gap
    assert rep.structure_without_stuck == 0
    assert rep.decoder_stuck >= rep.structural


def test_scan_sampled_and_budget():
    g = tanner.build_case_a(2, 4, 8, seed=0)
    rep = bec.failure_equivalence_scan(g, samples=200, seed=5)
    assert rep.patterns == 200
    assert rep.equivalent
    with pytest.raises(SearchSpaceTooLarge):
        bec.failure_equivalence_scan(g, budget=100)


def test_wilson_interval_hand_values():
    low, high = bec.wilson_interval(0, 100)
    assert low == pytest.approx(0.0, abs=1e-12)
    assert 0.03 < high < 0.04
    low, high = bec.wilson_interval(50, 100)
    assert low < 0.5 < high
    assert high - low < 0.2
    low, high = bec.wilson_interval(100, 100)
    assert high == 1.0
    with pytest.raises(ValueError):
        bec.wilson_interval(0, 0)


def test_wilson_interval_covers_binomial_truth():
    # exact FER of the triangle at p = 1/2: only the all-erased pattern
    # fails, probability 1/8
    g = triangle()
    rows = bec.monte_carlo_fer(g, [0.5], trials=4000, seed=11)
    row = rows[0]
    assert row.trials == 4000
    assert row.ci_low <= 1 / 8 <= row.ci_high
    assert abs(row.fer - 1 / 8) < 0.03


def test_monte_carlo_determinism_and_hook():
    g = tanner.build_case_a(2, 4, 8, seed=2)
    log = []

    def hook(idx, t, erased, stuck):
        log.append((idx, t, tuple(int(v) for v in erased), bool(stuck)))

    rows1 = bec.monte_carlo_fer(g, [0.2, 0.4], trials=50, seed=7,
                                trial_hook=hook)
    rows2 = bec.monte_carlo_fer(g, [0.2, 0.4], trials=50, seed=7)
    assert rows1 == rows2
    assert len(log) == 100
    assert {idx for idx, *_ in log} == {0, 1}
    # stream depends only on (seed, prob index, trials): a shorter run
    # reproduces the first row bit for bit
    rows3 = bec.monte_carlo_fer(g, [0.2], trials=50, seed=7)
    assert rows3[0] == rows2[0]
    with pytest.raises(ValueError):
        bec.monte_carlo_fer(g, [1.5], trials=10, seed=0)


def test_monte_carlo_fer_monotone_in_probability():
    g = tanner.build_case_a(2, 4, 10, seed=3)
    rows = bec.monte_carlo_fer(g, [0.1, 0.5, 0.9], trials=400, seed=1)
    assert rows[0].fer <= rows[1].fer <= rows[2].fer
