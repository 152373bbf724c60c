"""Acceptance gates: bound soundness at scale, tightness and regression
constants, exhaustive lemma checks, decoder equivalence, cover consistency,
solver cross-checks, and reproducibility."""

import itertools
import json
import time
from collections import Counter
from fractions import Fraction

import numpy as np

from expandercodes import (
    bec,
    bounds,
    cli,
    expansion,
    gf2,
    graphs,
    lpsolve,
    polytope,
    subcodes,
    tanner,
)
from expandercodes.errors import SearchSpaceTooLarge
from expandercodes.gf2 import BitMatrix, nullspace_basis
from test_lpsolve import InfeasibleRegion, enumerate_vertices

F = Fraction


def ring(n):
    h = np.zeros((n, n), dtype=np.uint8)
    for i in range(n):
        h[i, i] = h[i, (i + 1) % n] = 1
    return tanner.from_parity_matrix(BitMatrix(h))


# -- 1: bound soundness over randomized instances ----------------------------------------


def soundness_instances():
    """Instance makers spanning all four constructions.

    Sizes follow the oracle tiers: pseudoweight comparisons stay at 14 or
    fewer variables, stopping-set and distance comparisons go up to 22.
    Oversized oracles are guard-skipped by the verifier itself, never
    silently passed.
    """
    rng = np.random.default_rng(97)

    def seeds(k):
        return [int(rng.integers(10 ** 6)) for _ in range(k)]

    inst = []

    def add(maker):
        inst.append(maker)

    for s in seeds(38):
        add(lambda s=s: (tanner.build_case_a(3, 6, 10, s), F(1, 5)))
    for s in seeds(15):
        add(lambda s=s: (tanner.build_case_a(3, 6, 12, s), F(1, 4)))
    for s in seeds(10):
        add(lambda s=s: (tanner.build_case_a(2, 4, 10, s), F(1, 5)))
    for s in seeds(8):
        add(lambda s=s: (tanner.build_case_a(2, 6, 9, s), F(2, 9)))
    for s in seeds(8):
        # connected (2,2) graphs are rings; odd lengths keep the exact
        # pseudoweight search off its worst-case tie plateau
        n = 7 + 2 * (s % 3)
        add(lambda s=s, n=n: (
            tanner.build_case_a(2, 2, n, s, require_connected=True), F(2, n)))
    for s in seeds(8):
        n = 16 + 2 * (s % 4)
        add(lambda s=s, n=n: (tanner.build_case_a(3, 6, n, s), F(2, n)))

    for s in seeds(16):
        add(lambda s=s: (
            tanner.build_case_b(2, 4, 10, subcodes.builtin("spc4"), s), F(1, 5)))
    for s in seeds(5):
        add(lambda s=s: (
            tanner.build_case_b(3, 6, 10, subcodes.builtin("spc6"), s), F(1, 5)))
    for s in seeds(4):
        add(lambda s=s: (
            tanner.build_case_b(2, 3, 9, subcodes.builtin("rep3"), s), F(2, 9)))
    for s in seeds(4):
        add(lambda s=s: (
            tanner.build_case_b(2, 4, 8, subcodes.builtin("rep4"), s), F(1, 4)))
    for s in seeds(3):
        add(lambda s=s: (
            tanner.build_case_b(2, 6, 9, subcodes.builtin("rep6"), s), F(2, 9)))
    for s in seeds(2):
        add(lambda s=s: (
            tanner.build_case_b(2, 7, 7, subcodes.builtin("hamming74"), s), F(2, 7)))
    for s in seeds(1):
        add(lambda s=s: (
            tanner.build_case_b(2, 7, 14, subcodes.builtin("hamming74"), s), F(1, 7)))
    for s in seeds(1):
        add(lambda s=s: (
            tanner.build_case_b(2, 7, 14, subcodes.builtin("spc7"), s), F(1, 7)))
    for s in seeds(2):
        add(lambda s=s: (
            tanner.build_case_b(2, 4, 16, subcodes.builtin("spc4"), s), F(1, 8)))
    for s in seeds(2):
        add(lambda s=s: (
            tanner.build_case_b(2, 3, 21, subcodes.builtin("spc3"), s), F(2, 21)))

    for name, sub in [("k4", "spc3"), ("k4", "rep3"), ("k5", "spc4"),
                      ("k5", "rep4"), ("k6", "spc5"), ("prism3", "spc3"),
                      ("prism3", "rep3"), ("cube", "spc3"),
                      ("petersen", "spc3"), ("k7", "spc6"), ("c6", "rep2"),
                      ("c5", "spc2")]:
        add(lambda name=name, sub=sub: (
            tanner.build_case_c(graphs.named_graph(name),
                                subcodes.builtin(sub)), None))
    for s in seeds(16):
        add(lambda s=s: (
            tanner.build_case_c(graphs.random_regular(6, 3, s),
                                subcodes.builtin("spc3")), None))
    for s in seeds(8):
        add(lambda s=s: (
            tanner.build_case_c(graphs.random_regular(8, 3, s),
                                subcodes.builtin("spc3")), None))
    for s in seeds(5):
        add(lambda s=s: (
            tanner.build_case_c(graphs.random_regular(6, 3, s),
                                subcodes.builtin("rep3")), None))
    for s in seeds(3):
        add(lambda s=s: (
            tanner.build_case_c(graphs.random_regular(5, 4, s),
                                subcodes.builtin("spc4")), None))
    for s in seeds(3):
        add(lambda s=s: (
            tanner.build_case_c(graphs.random_regular(10, 3, s),
                                subcodes.builtin("spc3")), None))

    for left, right in [("rep2", "spc3"), ("spc2", "spc3"), ("rep2", "rep3")]:
        add(lambda l=left, r=right: (
            tanner.build_case_d(graphs.complete_bipartite(3, 2),
                                subcodes.builtin(l), subcodes.builtin(r)), None))
    for left, right in [("rep3", "rep3"), ("spc3", "spc3"), ("rep3", "spc3")]:
        add(lambda l=left, r=right: (
            tanner.build_case_d(graphs.complete_bipartite(3, 3),
                                subcodes.builtin(l), subcodes.builtin(r)), None))
    add(lambda: (
        tanner.build_case_d(graphs.complete_bipartite(2, 3),
                            subcodes.builtin("rep3"), subcodes.builtin("rep2")), None))
    add(lambda: (
        tanner.build_case_d(graphs.complete_bipartite(2, 4),
                            subcodes.builtin("rep4"), subcodes.builtin("spc2")), None))
    for s in seeds(10):
        add(lambda s=s: (
            tanner.build_case_d(graphs.random_biregular(3, 2, 3, s),
                                subcodes.builtin("rep2"), subcodes.builtin("spc3")), None))
    for s in seeds(7):
        add(lambda s=s: (
            tanner.build_case_d(graphs.random_biregular(4, 2, 4, s),
                                subcodes.builtin("spc2"), subcodes.builtin("spc4")), None))
    for s in seeds(2):
        add(lambda s=s: (
            tanner.build_case_d(graphs.random_biregular(5, 2, 5, s),
                                subcodes.builtin("rep2"), subcodes.builtin("spc5")), None))
    for s in seeds(4):
        add(lambda s=s: (
            tanner.build_case_d(graphs.random_biregular(8, 2, 4, s),
                                subcodes.builtin("spc2"), subcodes.builtin("spc4")), None))
    return inst


def test_bound_soundness_sweep():
    start = time.monotonic()
    instances = soundness_instances()
    assert len(instances) >= 200
    checked = Counter()
    failures = []
    cases = Counter()
    for make in instances:
        g, alpha = make()
        cases[g.provenance] += 1
        report = bounds.verify_bounds(g, alpha=alpha)
        failures.extend((g.provenance, f) for f in report.failures)
        for row in report.rows:
            if row.skipped is None:
                checked[row.bound_id] += 1
    assert failures == []
    # all four constructions are present and every bound family was
    # actually compared against its oracle, not just skipped
    assert all(cases[k] >= 25 for k in ("case_a", "case_b", "case_c", "case_d"))
    floors = {"A.dmin": 40, "A.smin": 40, "A.wbsc": 30,
              "B.dmin": 25, "B.smin": 25, "B.wbsc": 20,
              "C.dmin": 12, "C.dmin_improved": 12, "C.smin": 10, "C.wbsc": 2,
              "D.dmin": 12, "D.smin": 12, "D.wbsc": 10, "D.wbsc_swapped": 10,
              "T5.awgn": 4}
    for bound_id, floor in floors.items():
        assert checked[bound_id] >= floor, (bound_id, checked[bound_id])
    assert time.monotonic() - start < 1800


# -- 2: degree-two rings meet the Gaussian-channel bound with equality ---------------------


def test_ring_bound_met_with_equality():
    for n in range(3, 13):
        g = ring(n)
        rep = bounds.tanner_awgn_bound(g)
        assert rep.applicable
        assert abs(rep.value - n) <= 1e-8
        weight, witness = polytope.min_awgn_pseudoweight(g)
        assert abs(weight - n) <= 1e-6
        assert polytope.validate(g, witness.values).valid


# -- 3: regression constants ---------------------------------------------------------------


def test_regression_constants_edge_variable_case():
    # complete graph on 8 vertices with the [7,4,3] local code; the exact
    # second eigenvalue of K8 is 1
    _, _, smin, wbsc = bounds.case_c_bounds(8, 7, 1, 3)
    assert smin.value == 4
    assert wbsc.value == 1
    assert smin.applicable and wbsc.applicable


def test_regression_constants_biregular_case():
    _, _, wbsc = bounds.case_a_bounds(F(1, 2), 20, F(3, 4), 8)
    assert wbsc.applicable
    assert wbsc.value == 8
    assert wbsc.strict


# -- 4: edge-count lemmas, exhaustively ----------------------------------------------------


def test_edge_count_lemmas_hold_exhaustively():
    rng = np.random.default_rng(5150)
    regular = []
    for _ in range(25):
        n, d = [(8, 3), (10, 3), (12, 3), (10, 4), (14, 3), (16, 3),
                (20, 3), (12, 4)][rng.integers(8)]
        regular.append(graphs.random_regular(n, d, int(rng.integers(10 ** 6))))
    for g in regular:
        rep = expansion.verify_alon_chung(g)
        assert rep.violations == 0
        assert rep.subsets_checked == 2 ** g.n - 1

    biregular = []
    for _ in range(25):
        m, c, d = [(6, 2, 3), (8, 2, 4), (9, 2, 3), (10, 2, 4), (12, 2, 3),
                   (12, 2, 4), (6, 3, 3), (12, 3, 4)][rng.integers(8)]
        biregular.append(
            graphs.random_biregular(m, c, d, int(rng.integers(10 ** 6))))
    for g in biregular:
        assert g.n_left + g.n_right <= 22
        rep = expansion.verify_janwa_lal(g)
        assert rep.violations == 0
        assert rep.subsets_checked == (2 ** g.n_left - 1) * (2 ** g.n_right - 1)


# -- 5: decoder failure is exactly the stopping-set condition ------------------------------


def random_plain_parity(rng, n_vars, n_checks):
    while True:
        bits = (rng.random((n_checks, n_vars)) < 0.35).astype(np.uint8)
        if bits.sum(axis=0).min() >= 1 and bits.sum(axis=1).min() >= 1:
            return tanner.from_parity_matrix(BitMatrix(bits))


def test_decoder_stuck_iff_erased_stopping_set():
    rng = np.random.default_rng(404)
    small = []
    for s in [int(rng.integers(10 ** 6)) for _ in range(6)]:
        small.append(tanner.build_case_a(2, 4, 10, s))
    for s in [int(rng.integers(10 ** 6)) for _ in range(6)]:
        small.append(tanner.build_case_a(3, 6, 12, s))
    for _ in range(8):
        n = int(rng.integers(6, 13))
        small.append(random_plain_parity(rng, n, int(rng.integers(3, n))))
    assert len(small) == 20
    for g in small:
        scan = bec.failure_equivalence_scan(g)
        assert scan.patterns == 2 ** g.n_vars
        assert scan.equivalent
        assert scan.stuck_without_structure == 0
        assert scan.structure_without_stuck == 0

    large = []
    for s in [int(rng.integers(10 ** 6)) for _ in range(4)]:
        large.append(tanner.build_case_a(2, 4, 14, s))
    for s in [int(rng.integers(10 ** 6)) for _ in range(3)]:
        large.append(tanner.build_case_a(3, 6, 16, s))
    for _ in range(3):
        n = int(rng.integers(13, 17))
        large.append(random_plain_parity(rng, n, int(rng.integers(5, 9))))
    assert len(large) == 10
    for g in large:
        scan = bec.failure_equivalence_scan(g, samples=10_000,
                                            seed=int(rng.integers(10 ** 6)))
        assert scan.patterns == 10_000
        assert scan.equivalent


# -- 6: cover reductions and extremal witnesses live in the polytope -----------------------


def single_labelled(wiring):
    """Tiny labelled graph from (subcode, incident variables) pairs."""
    edges = []
    var_sockets = Counter()
    for check, (name, vars_) in enumerate(wiring):
        for slot, v in enumerate(vars_):
            edges.append((v, check, var_sockets[v], slot))
            var_sockets[v] += 1
    n_vars = 1 + max(v for _, pairs in wiring for v in pairs)
    return tanner.TannerGraph(
        n_vars, len(wiring), tuple(edges),
        labels=tuple(subcodes.builtin(name) for name, _ in wiring))


def tiny_graphs():
    mats = [
        [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
        [[1, 1, 0], [0, 1, 1]],
        [[1, 1, 1]],
        [[1, 1]],
        [[1, 1], [1, 1]],
        [[1, 1, 1, 1]],
        [[1, 1, 0], [1, 1, 1]],
        [[1, 1, 0, 0], [0, 0, 1, 1]],
    ]
    out = [tanner.from_parity_matrix(BitMatrix(np.array(m, dtype=np.uint8)))
           for m in mats]
    out.append(single_labelled([("spc3", (0, 1, 2))]))
    out.append(single_labelled([("spc3", (0, 1, 2)), ("rep2", (0, 1))]))
    return out


def all_lifts(g, degree):
    """One cover of the given degree per class of copy renumbering.

    A spanning forest of the graph is fixed by merging components over
    g.edges in edge order.  Tree edges take the identity and the cotree
    edges take every permutation, in lexicographic order, so there are
    (degree!)^(|E| - |V| + #components) specs and the first is the
    identity cover.

    Nothing is lost.  Renumbering the copies inside each cloud, copy t of
    node x becoming copy sigma_x(t), turns the permutation pi of an edge
    (v, c) into sigma_c pi sigma_v^-1.  Walking each tree outward from a
    root with sigma = identity, every tree edge can be made the identity
    by choosing sigma at its far end.  The renumbered cover is isomorphic
    to the first, with the same sockets and labels; its codewords are the
    first cover's codewords permuted inside clouds, with the same cloud
    counts, so both covers reduce to the same set of points.
    """
    component = list(range(g.n_vars + g.n_checks))  # checks after variables
    cotree = []
    for e, (v, c, _, _) in enumerate(g.edges):
        a, b = component[v], component[g.n_vars + c]
        if a == b:
            cotree.append(e)
        else:
            component = [a if x == b else x for x in component]
    ident = tuple(range(degree))
    for combo in itertools.product(itertools.permutations(ident), repeat=len(cotree)):
        perms = [ident] * len(g.edges)
        for e, p in zip(cotree, combo):
            perms[e] = p
        yield tanner.LiftSpec(degree, tuple(perms))


def product_lifts(g, degree):
    """Every cover of the given degree, one permutation per edge in full
    product: the reference for all_lifts, which keeps one cover per class
    of copy renumbering."""
    perms = list(itertools.permutations(range(degree)))
    for combo in itertools.product(perms, repeat=len(g.edges)):
        yield tanner.LiftSpec(degree, combo)


def all_cover_reductions(g, max_degree, lifts=all_lifts):
    seen = set()
    for degree in range(1, max_degree + 1):
        for spec in lifts(g, degree):
            cover = tanner.build_lift(g, spec)
            basis = nullspace_basis(cover.to_parity_matrix())
            word = np.zeros(cover.n_vars, dtype=np.uint8)
            for i in range(1 << len(basis)):
                # Gray-code walk: step i flips the basis row of i's lowest set bit
                if i:
                    word ^= basis[(i & -i).bit_length() - 1]
                p = tanner.reduce_cover_codeword(word, g, lift=cover)
                seen.add(tuple(p.values))
    return seen


def test_all_lifts_count():
    # one cover per copy renumbering class: (l!)^(|E| - |V| + #components)
    g = tanner.TannerGraph(1, 1, [(0, 0, 0, 0)])
    assert sum(1 for _ in all_lifts(g, 2)) == 1
    assert sum(1 for _ in all_lifts(g, 3)) == 1
    tri = ring(3)
    assert sum(1 for _ in all_lifts(tri, 2)) == 2
    # the first spec is the identity cover
    assert next(all_lifts(tri, 3)).permutations == ((0, 1, 2),) * 6
    # the forest grows in edge order, so the last edge closes the cycle
    varying = {e for spec in all_lifts(tri, 2)
               for e, p in enumerate(spec.permutations) if p != (0, 1)}
    assert varying == {5}


def test_all_small_cover_reductions_validate():
    # every tiny graph up to degree 4, and two labelled constructions (225
    # covers each) up to degree 3
    pool = [(g, 4) for g in tiny_graphs()] + [
        (tanner.build_case_c(graphs.complete(4), subcodes.builtin("spc3")), 3),
        (tanner.build_case_b(2, 4, 4, subcodes.builtin("spc4"), seed=1), 3),
    ]
    assert len(pool) == 12
    fractional_seen = 0
    for g, max_degree in pool:
        assert g.n_vars <= 6
        points = all_cover_reductions(g, max_degree)
        assert points
        for values in points:
            assert polytope.validate(g, list(values)).valid, (g.n_vars, values)
        if any(0 < v < 1 for values in points for v in values):
            fractional_seen += 1
    # covers must contribute genuinely fractional points somewhere
    assert fractional_seen >= 2


def test_cover_classes_reduce_like_every_cover():
    # tiny graph index and degree cap, where the full product stays cheap
    tiny = tiny_graphs()
    for index, max_degree in [(1, 3), (2, 3), (3, 3), (4, 3), (8, 3), (5, 2), (7, 2)]:
        g = tiny[index]
        classes = all_cover_reductions(g, max_degree)
        assert classes == all_cover_reductions(g, max_degree, product_lifts), index


def test_extremal_witnesses_validate_and_respect_distance():
    pool = tiny_graphs() + [
        tanner.build_case_a(2, 4, 10, seed=3),
        tanner.build_case_a(3, 6, 8, seed=4),
        tanner.build_case_b(2, 4, 6, subcodes.builtin("spc4"), seed=5),
        tanner.build_case_c(graphs.complete(4), subcodes.builtin("spc3")),
        tanner.build_case_d(graphs.complete_bipartite(3, 2),
                            subcodes.builtin("rep2"), subcodes.builtin("spc3")),
    ]
    compared = 0
    for g in pool:
        try:
            dmin = gf2.code_params(g.to_parity_matrix()).dmin
        except ValueError:
            dmin = None
        got = polytope.min_bsc_pseudoweight(g)
        if got is not None:
            weight, witness = got
            assert polytope.validate(g, witness.values).valid
            if dmin is not None:
                assert weight <= dmin
                compared += 1
        got = polytope.min_awgn_pseudoweight(g)
        if got is not None:
            weight, witness = got
            assert polytope.validate(g, witness.values).valid
            if dmin is not None:
                assert weight <= dmin
    assert compared >= 10


# -- 7: solver cross-checks ----------------------------------------------------------------


def test_simplex_agrees_with_vertex_enumeration():
    rng = np.random.default_rng(1729)
    statuses = Counter()
    for _ in range(500):
        n = int(rng.integers(2, 7))
        rows = []
        for _ in range(int(rng.integers(1, 5))):
            coeffs = [F(int(rng.integers(-3, 4))) for _ in range(n)]
            sense = ("<=", ">=", "==")[int(rng.integers(0, 3))]
            rows.append((coeffs, sense, F(int(rng.integers(-2, 6)))))
        for i in range(n):
            unit = [F(1) if j == i else F(0) for j in range(n)]
            rows.append((unit, "<=", F(3)))
        objective = [F(int(rng.integers(-5, 6))) for _ in range(n)]
        prob = lpsolve.lp(n, objective, rows)
        res = lpsolve.lp_solve(prob)
        statuses[res.status] += 1
        if res.status == "infeasible":
            try:
                verts = enumerate_vertices(prob)
            except InfeasibleRegion:
                continue
            raise AssertionError(f"simplex said infeasible, found {len(verts)} vertices")
        assert res.status == "optimal"  # the box forbids unbounded
        verts = enumerate_vertices(prob)
        best = max(sum(c * v for c, v in zip(objective, vert))
                   for vert in verts)
        assert res.value == best
    assert statuses["optimal"] >= 250
    assert statuses["infeasible"] >= 30


def small_soundness_graphs():
    """The soundness instances on at most 10 variables: 156 graphs."""
    return [g for g, _ in (make() for make in soundness_instances()) if g.n_vars <= 10]


def test_awgn_vertices_match_the_basis_walk(monkeypatch):
    # The walk needs thousands of bases once a section has a few hundred
    # vertices, so it runs where double description holds at most 100 rays
    # at once (so at most 100 vertices).  The count of compared sections
    # pins that set: a wrong ray count cannot move a section out unnoticed.
    monkeypatch.setattr(polytope, "AWGN_RAY_BUDGET", 100)
    compared = 0
    for g in small_soundness_graphs():
        try:
            _, vertices = polytope._section_vertices(g)
        except SearchSpaceTooLarge:
            continue
        _, prob = polytope._section(g, range(g.n_vars))
        assert vertices == enumerate_vertices(prob), g.labels
        compared += 1
    assert compared == 113


def test_awgn_witnesses_validate_on_small_soundness_instances():
    for g in small_soundness_graphs():
        weight, witness = polytope.min_awgn_pseudoweight(g)
        assert polytope.awgn_weight(witness) == weight
        assert polytope.validate(g, witness).valid, g.labels


# -- 8: reports are byte-for-byte reproducible ----------------------------------------------


def test_analysis_and_verification_reproduce(tmp_path):
    argv_analyze = ["analyze", "--case", "a", "--c", "3", "--d", "6",
                    "--n", "10", "--seed", "9", "--alpha", "1/5"]
    argv_verify = ["verify", "--case", "c", "--base", "k4",
                   "--subcode", "spc3"]
    for tag, argv in (("analyze", argv_analyze), ("verify", argv_verify)):
        # identical argv both times; the report echoes its own destination,
        # so byte comparison needs the same path
        target = tmp_path / f"{tag}.json"
        assert cli.main(argv + ["--out", str(target)]) == 0
        first = target.read_bytes()
        assert cli.main(argv + ["--out", str(target)]) == 0
        assert target.read_bytes() == first
        json.loads(first)
