"""Fundamental polytope and cone machinery.

Oracles: stopping sets are recounted with plain set arithmetic; the
generalized support search is cross-checked by a scipy float LP built from
the raw definition (all local codewords, zero-forced off-support
coordinates) and by an exact-support search, `reference_min_stopping_set`,
which certifies each support with `cone_point_with_support`;
the local row descriptions are checked against the exact multiplier layout
and a hull LP over the codewords, and plain-check membership against every
odd-set inequality; the paper's threshold, half-set and quarter-set lemmas
are a reference function checked on random hull points; weight minima are
pinned on cycle codes where every value is known in closed form, and the
pruned BSC top-set search is compared with the unpruned staged search,
`reference_min_bsc_pseudoweight`; the presolved cone section is compared
with the unpresolved row builder, `reference_section`, by vertex sets and
LP optima.
"""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from expandercodes import graphs, lpsolve, polytope, subcodes, tanner
from expandercodes.errors import (
    DegreeTooLarge,
    DomainError,
    LengthMismatch,
    SearchSpaceTooLarge,
    SolverFailure,
    ZeroVector,
)
from expandercodes.gf2 import BitMatrix, code_params
from expandercodes.lpsolve import lp, lp_solve, maximize_each
from test_lpsolve import InfeasibleRegion, enumerate_vertices

F = Fraction
SPC3 = subcodes.builtin("spc3")
HAMMING = subcodes.builtin("hamming74")


def triangle():
    h = BitMatrix(np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8))
    return tanner.from_parity_matrix(h)


def square():
    h = BitMatrix(np.array([[1, 1, 0, 0], [0, 1, 1, 0],
                            [0, 0, 1, 1], [1, 0, 0, 1]], dtype=np.uint8))
    return tanner.from_parity_matrix(h)


def single_check(label):
    n = label.length
    return tanner.TannerGraph(n, 1, [(j, 0, 0, j) for j in range(n)],
                              labels=[label])


def is_simple_stopping(g, s):
    if not s:
        return False
    for c in range(g.n_checks):
        members = sum(1 for v in g.check_vars(c) if v in s)
        if members == 1:
            return False
    return True


def brute_min_stopping_size(g):
    for size in range(1, g.n_vars + 1):
        for combo in itertools.combinations(range(g.n_vars), size):
            if is_simple_stopping(g, set(combo)):
                return size
    return None


# -- validation -----------------------------------------------------------------------


def threshold_failures(c: int, local: list[Fraction], dmin: int) -> list[str]:
    """Necessary inequalities at one subcode check: threshold, half-set,
    quarter-set (worst subset = the largest entries)."""
    fails = []
    d = len(local)
    total = sum(local)
    for j, v in enumerate(local):
        if (dmin - 1) * v > total - v:
            fails.append(f"check {c}: threshold fails at local coordinate {j}")
            break
    desc = sorted(local, reverse=True)
    t_half = dmin // 2
    if t_half >= 1:
        top = sum(desc[:t_half])
        if top > total - top:
            fails.append(f"check {c}: half-set condition fails")
    t_quarter = dmin // 4
    if t_quarter >= 1:
        top = sum(desc[:t_quarter])
        if 3 * top > total - top:
            fails.append(f"check {c}: quarter-set condition fails")
    return fails


HULL_FAILURE = ("check 0: restriction outside local hull",)


def test_validate_simple():
    g = triangle()
    assert polytope.validate(g, [1, 1, 1]).valid
    assert polytope.validate(g, [F(1, 2)] * 3).valid
    assert polytope.validate(g, [0, 0, 0]).valid
    bad = polytope.validate(g, [1, 0, 0])
    assert not bad.valid
    assert any("sibling" in f for f in bad.failures)
    box = polytope.validate(g, [F(3, 2), F(3, 2), F(3, 2)])
    assert not box.valid
    with pytest.raises(LengthMismatch):
        polytope.validate(g, [1, 1])


def test_validate_generalized_levels():
    g = single_check(HAMMING)
    # {0, 1, 3} is not a weight-3 codeword support, so its indicator sits
    # outside the local hull; the counting inequalities all pass (the
    # threshold one with equality: 2*1 <= 2).
    p = [1, 1, 0, 1, 0, 0, 0]
    assert threshold_failures(0, p, HAMMING.dmin) == []
    rep = polytope.validate(g, p)
    assert not rep.valid
    assert rep.failures == HULL_FAILURE


def test_validate_generalized_half_set_alone_is_too_weak():
    g = single_check(HAMMING)
    # two lone ones: the half-set comparison 1 <= 1 holds, so of the
    # counting inequalities only the threshold one catches this point
    p = [1, 1, 0, 0, 0, 0, 0]
    assert threshold_failures(0, p, HAMMING.dmin) == [
        "check 0: threshold fails at local coordinate 0"]
    rep = polytope.validate(g, p)
    assert not rep.valid
    assert rep.failures == HULL_FAILURE


def test_validate_generalized_accepts_codewords_and_mixtures():
    g = single_check(HAMMING)
    words = HAMMING.nonzero_codewords()
    for w in words:
        assert polytope.validate(g, [int(b) for b in w]).valid
    mix = [(F(int(words[0, j])) + F(int(words[1, j]))) / 2 for j in range(7)]
    assert polytope.validate(g, mix).valid


def test_validate_generalized_plain_checks_still_checked():
    h = BitMatrix(np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8))
    g = tanner.from_parity_matrix(h)
    assert polytope.validate(g, [F(1, 2)] * 3).valid
    assert not polytope.validate(g, [1, 0, 0]).valid


@pytest.mark.parametrize("name", subcodes.catalog())
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_hull_points_pass_the_paper_counting_conditions(name, data):
    # a random rational convex combination of the label's codewords, the
    # zero word included, lies in the local hull; the paper's threshold,
    # half-set and quarter-set lemmas say it then passes all three
    label = subcodes.builtin(name)
    words = label.codewords
    weights = data.draw(st.lists(st.integers(0, 6), min_size=len(words),
                                 max_size=len(words)).filter(any))
    total = sum(weights)
    p = [sum(F(wt * int(words[w, j]), total) for w, wt in enumerate(weights))
         for j in range(label.length)]
    assert polytope.validate(single_check(label), p).valid
    assert threshold_failures(0, p, label.dmin) == []


# -- weights ----------------------------------------------------------------------------


def test_bsc_weight_hand_values():
    w = polytope.bsc_weight([1, 1, 1, 0, 0])
    assert (w.weight, w.e, w.tie) == (3, 2, False)
    w = polytope.bsc_weight([F(1, 2)] * 4)
    assert (w.weight, w.e, w.tie) == (4, 2, True)
    assert polytope.bsc_weight([1]).weight == 1
    assert polytope.bsc_weight([4, 1, 1, 1]).weight == 1
    assert polytope.bsc_weight([3, 1, 1, 1]).weight == 2  # 3 == 1+1+1 ties
    with pytest.raises(ZeroVector):
        polytope.bsc_weight([0, 0, 0])


def test_awgn_weight_hand_values():
    assert polytope.awgn_weight([1, 1, 1]) == 3
    assert polytope.awgn_weight([2, 1, 1]) == F(8, 3)
    assert polytope.awgn_weight([F(1, 2)] * 4) == 4
    with pytest.raises(ZeroVector):
        polytope.awgn_weight([0, 0])


def test_weights_refuse_negative_entries():
    for vals in ([1, -1], [2, -1], [0, F(-1, 3)]):
        with pytest.raises(DomainError):
            polytope.bsc_weight(vals)
        with pytest.raises(DomainError):
            polytope.awgn_weight(vals)
    # validation still reports such coordinates rather than refusing them
    rep = polytope.validate(triangle(), [1, -1, 0])
    assert "coordinate 1 = -1 outside [0,1]" in rep.failures


def test_weights_accept_pseudocodeword_objects():
    p = polytope.Pseudocodeword(values=(F(1), F(1), F(0)))
    assert polytope.bsc_weight(p).weight == 2
    assert polytope.awgn_weight(p) == 2
    assert p.support() == (0, 1)
    assert p.to_dict()["values"] == ["1", "1", "0"]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.fractions(min_value=0, max_value=1), min_size=1,
                max_size=8).filter(lambda v: any(v)),
       st.fractions(min_value=F(1, 7), max_value=7))
def test_weights_are_scale_invariant(vals, lam):
    scaled = [lam * v for v in vals]
    assert polytope.bsc_weight(vals) == polytope.bsc_weight(scaled)
    assert polytope.awgn_weight(vals) == polytope.awgn_weight(scaled)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.fractions(min_value=0, max_value=1), min_size=1,
                max_size=8).filter(lambda v: any(v)))
def test_awgn_weight_bounded_by_support(vals):
    w = polytope.awgn_weight(vals)
    assert 1 <= w <= sum(1 for v in vals if v)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.fractions(min_value=0, max_value=1), min_size=8,
                max_size=8))
def test_threshold_inequality_implies_subset_inequalities(vals):
    # at a single dmin-4 check, a vector passing the per-coordinate
    # threshold rule must also pass the half-set and quarter-set rules
    label = subcodes.builtin("exthamming84")
    g = single_check(label)
    total = sum(vals)
    if any((label.dmin - 1) * v > total - v for v in vals):
        return
    assert all("half-set" not in f and "quarter-set" not in f
               for f in threshold_failures(0, vals, label.dmin))


# -- stopping sets -------------------------------------------------------------------


def test_peel_matches_union_of_stopping_sets():
    for seed in range(4):
        g = tanner.build_case_a(2, 4, 8, seed=seed)
        union = set()
        for size in range(1, g.n_vars + 1):
            for combo in itertools.combinations(range(g.n_vars), size):
                if is_simple_stopping(g, set(combo)):
                    union |= set(combo)
        assert peel_set(g) == union


def test_peel_with_subcode_thresholds():
    g = single_check(HAMMING)
    assert peel_set(g) == frozenset(range(7))
    assert peel_set(g, {0, 1}) == frozenset()


def peel_set(g, subset=None) -> frozenset:
    """polytope._peel from `subset` (default: every variable), as a set."""
    s = (1 << g.n_vars) - 1 if subset is None else sum(1 << v for v in subset)
    s = polytope._peel(polytope._peel_rules(g), s)
    return frozenset(v for v in range(g.n_vars) if s >> v & 1)


def reference_peel(g, subset=None) -> frozenset:
    """The stopping-set peel on Python sets: drop the members of any check
    that touches the set fewer than its threshold times (2 at a plain
    check, the label's minimum distance otherwise) until none does."""
    s = set(range(g.n_vars) if subset is None else subset)
    thresholds = [2 if lab is None else lab.dmin for lab in g.labels]
    changed = True
    while changed and s:
        changed = False
        for c in range(g.n_checks):
            members = [v for v in g.check_vars(c) if v in s]
            if 0 < len(members) < thresholds[c]:
                s.difference_update(members)
                changed = True
    return frozenset(s)


PEEL_LABELS = [None, SPC3, subcodes.builtin("spc4"), subcodes.builtin("rep3"),
               subcodes.builtin("rep4"), HAMMING]


@st.composite
def mixed_graphs_and_subsets(draw):
    """A graph mixing plain checks with spc/rep/hamming74 labels on random
    variables, a plain check over any variable left uncovered, and a subset."""
    n = draw(st.integers(7, 13))
    checks = []
    for _ in range(draw(st.integers(1, 6))):
        label = draw(st.sampled_from(PEEL_LABELS))
        size = draw(st.integers(1, n)) if label is None else label.length
        checks.append((label, draw(st.permutations(range(n)))[:size]))
    missed = set(range(n)).difference(*(members for _, members in checks))
    if missed:
        checks.append((None, sorted(missed)))
    edges, var_socket = [], [0] * n
    for c, (_, members) in enumerate(checks):
        for j, v in enumerate(members):
            edges.append((v, c, var_socket[v], j))
            var_socket[v] += 1
    g = tanner.TannerGraph(n, len(checks), edges, labels=[lab for lab, _ in checks])
    return g, draw(st.sets(st.integers(0, n - 1)))


@settings(max_examples=300, deadline=None)
@given(mixed_graphs_and_subsets())
def test_mask_peel_matches_reference_peel(case):
    g, subset = case
    rules = polytope._peel_rules(g)
    for start in (subset, None):
        want = reference_peel(g, start)
        mask = (1 << g.n_vars) - 1 if start is None else sum(1 << v for v in start)
        assert polytope._peel(rules, mask) == sum(1 << v for v in want)


def test_min_stopping_set_simple_matches_brute_force():
    for seed in range(6):
        g = tanner.build_case_a(2, 4, 10, seed=seed)
        got = polytope.min_stopping_set(g)
        want = brute_min_stopping_size(g)
        if want is None:
            assert got is None
        else:
            assert len(got.support) == want
            assert is_simple_stopping(g, set(got.support))
            assert got.kind == "simple"


def test_min_stopping_set_none_when_peeled_away():
    g = tanner.from_parity_matrix(BitMatrix(np.array([[1]], dtype=np.uint8)))
    assert polytope.min_stopping_set(g) is None


def test_min_stopping_set_generalized_single_hamming_check():
    g = single_check(HAMMING)
    got = polytope.min_stopping_set(g)
    assert got.kind == "generalized"
    assert len(got.support) == 3
    assert got.witness is not None
    assert got.witness.support() == got.support
    assert polytope.validate(g, got.witness).valid


def scipy_support_feasible(g, support):
    """Exact-support cone feasibility from the raw definition, in floats."""
    support = set(support)
    n = g.n_vars
    cols = n
    word_cols = []
    for c in range(g.n_checks):
        if g.labels[c] is None:
            word_cols.append(None)
        else:
            k = g.labels[c].nonzero_codewords().shape[0]
            word_cols.append((cols, k))
            cols += k
    a_eq, b_eq, a_ub, b_ub = [], [], [], []
    for c in range(g.n_checks):
        idx = g.check_vars(c)
        if word_cols[c] is None:
            for i in idx:
                row = [0.0] * cols
                for j in idx:
                    row[j] -= 1.0
                row[i] += 2.0
                a_ub.append(row)
                b_ub.append(0.0)
        else:
            start, k = word_cols[c]
            words = g.labels[c].nonzero_codewords()
            for j, v in enumerate(idx):
                row = [0.0] * cols
                row[v] = 1.0
                for w in range(k):
                    row[start + w] = -float(words[w, j])
                a_eq.append(row)
                b_eq.append(0.0)
    bounds = []
    for i in range(n):
        if i in support:
            bounds.append((1.0, None))
        else:
            bounds.append((0.0, 0.0))
    bounds.extend([(0.0, None)] * (cols - n))
    res = linprog(c=[0.0] * cols, A_ub=np.array(a_ub) if a_ub else None,
                  b_ub=np.array(b_ub) if a_ub else None,
                  A_eq=np.array(a_eq) if a_eq else None,
                  b_eq=np.array(b_eq) if a_eq else None,
                  bounds=bounds, method="highs")
    return res.status == 0


def test_min_stopping_set_generalized_matches_scipy_oracle():
    g = tanner.build_case_c(graphs.complete(4), SPC3)
    got = polytope.min_stopping_set(g)
    assert got.kind == "generalized"
    assert scipy_support_feasible(g, got.support)
    smaller = [combo
               for size in range(1, len(got.support))
               for combo in itertools.combinations(range(g.n_vars), size)
               if scipy_support_feasible(g, combo)]
    assert smaller == []
    # the labelled graph is constraint-equivalent to the plain cycle code,
    # whose minimal stopping sets are the triangles of K4
    assert len(got.support) == 3


def reference_min_stopping_set(g):
    """The exact-support search: the same candidates and screen as
    min_stopping_set, on Python sets, and then a generalized candidate is
    certified by a cone point with exactly its support.  Returns (support,
    kind) or None."""
    core = sorted(reference_peel(g))
    words = [None if lab is None else
             [{v for v, bit in zip(g.check_vars(c), w) if bit} for w in lab.nonzero_codewords()]
             for c, lab in enumerate(g.labels)]
    for size in range(1, len(core) + 1):
        for combo in itertools.combinations(core, size):
            s = set(combo)
            hits = [(s.intersection(g.check_vars(c)), words[c]) for c in range(g.n_checks)]
            if any(hit and (len(hit) < 2 if ws is None else not any(w <= s for w in ws))
                   for hit, ws in hits):
                continue
            if g.all_simple:
                return combo, "simple"
            if cone_point_with_support(g, combo) is not None:
                return combo, "generalized"
    return None


def stranded_hamming_triple():
    """A Hamming check on seven variables, four of which also sit alone on
    a plain check.  The peel keeps the other three, {0, 1, 3}, which the
    Hamming check touches dmin = 3 times, but they hold no codeword, so the
    only cone point is zero."""
    edges = [(j, 0, 0, j) for j in range(7)]
    edges += [(v, c, 1, 0) for c, v in enumerate((2, 4, 5, 6), start=1)]
    return tanner.TannerGraph(7, 5, edges, labels=[HAMMING, None, None, None, None])


def labelled_support_pool():
    """Labelled graphs whose generalized stopping sets, and BSC minima on at
    most 14 variables, are checked against exact references."""
    b = subcodes.builtin
    pool = [stranded_hamming_triple(),
            tanner.build_case_c(graphs.complete(4), b("rep3")),
            tanner.build_case_c(graphs.prism(3), b("rep3")),
            tanner.build_case_c(graphs.complete(5), b("spc4")),
            tanner.build_case_c(graphs.complete(5), b("rep4")),
            tanner.build_case_d(graphs.complete_bipartite(3, 4), b("spc4"), b("rep3")),
            tanner.build_case_d(graphs.complete_bipartite(4, 3), b("rep3"), b("spc4")),
            tanner.build_case_d(graphs.complete_bipartite(2, 7), b("hamming74"), b("rep2")),
            tanner.build_case_d(graphs.complete_bipartite(2, 8), b("exthamming84"), b("spc2")),
            tanner.build_case_b(2, 7, 14, b("hamming74"), 1),
            tanner.build_case_b(2, 8, 16, b("exthamming84"), 0)]
    for s in range(2):
        pool += [tanner.build_case_b(2, 4, 8, b("spc4"), s),
                 tanner.build_case_b(3, 4, 12, b("spc4"), s),
                 tanner.build_case_b(2, 3, 6, b("rep3"), s),
                 tanner.build_case_b(2, 4, 8, b("rep4"), s),
                 tanner.build_case_b(2, 7, 7, b("hamming74"), s),
                 tanner.build_case_b(2, 8, 8, b("exthamming84"), s)]
    return pool


def test_min_stopping_set_matches_exact_support_reference():
    pool = labelled_support_pool()
    for g in pool:
        got = polytope.min_stopping_set(g)
        want = reference_min_stopping_set(g)
        assert (None if got is None else (got.support, got.kind)) == want, g.labels
        if got is not None:
            assert got.witness.support() == got.support
            assert polytope.validate(g, got.witness).valid
        if g.n_vars <= polytope.MAX_BSC_VARS:
            assert (bsc_matching_reference(g) is None) == (got is None), g.labels
    assert polytope.min_stopping_set(pool[0]) is None
    assert peel_set(pool[0]) == {0, 1, 3}


def test_min_bsc_runs_no_stopping_set_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the BSC oracle ran a stopping-set search")

    monkeypatch.setattr(polytope, "min_stopping_set", refuse)
    assert polytope.min_bsc_pseudoweight(triangle())[0] == 3
    assert polytope.min_bsc_pseudoweight(square())[0] == 4
    assert polytope.min_bsc_pseudoweight(single_check(HAMMING))[0] == 3
    assert polytope.min_bsc_pseudoweight(stranded_hamming_triple()) is None


def test_min_stopping_set_guards():
    with pytest.raises(SearchSpaceTooLarge):
        polytope.min_stopping_set(tanner.build_case_a(2, 4, 24, seed=0))


# -- cone points ---------------------------------------------------------------------


def cone_point_with_support(g, support):
    """A polytope point whose support is exactly `support`, or None: the
    reference for generalized stopping-set supports.

    Each support coordinate is maximized over the section on the support,
    in one maximize_each.  Proof: when every maximum is positive, the mean
    of the optimal points is a section point positive at every member; when
    one is zero (or the section is empty), no section point is positive
    there, so no cone point has that support.
    """
    if not support:
        return None
    vs, prob = polytope._section(g, support)
    k = len(vs)
    optima = []
    for res in maximize_each(prob, ([int(j == i) for j in range(k)] for i in range(k))):
        if res.status != "optimal" or res.value == 0:
            return None
        optima.append(res.x)
    return polytope._point(g, vs, [sum(col) / k for col in zip(*optima)],
                           f"support-forced:{','.join(map(str, vs))}")


def test_cone_point_with_support_on_triangle():
    g = triangle()
    p = cone_point_with_support(g, (0, 1, 2))
    assert p is not None
    assert p.support() == (0, 1, 2)
    assert polytope.validate(g, p).valid
    # two edges of a triangle leave a degree-1 check, so no exact support
    assert cone_point_with_support(g, (0, 1)) is None


def test_has_nonzero_cone_point_within():
    g = triangle()
    assert polytope.has_nonzero_cone_point_within(g, ()) is None
    assert polytope.has_nonzero_cone_point_within(g, (0, 1)) is None
    p = polytope.has_nonzero_cone_point_within(g, (0, 1, 2))
    assert p is not None
    assert polytope.validate(g, p).valid


def test_has_nonzero_cone_point_within_takes_any_iterable():
    # emptiness is read after the indices are collected, so iterators and
    # numpy index arrays give what the same indices in a tuple give
    g = tanner.build_case_a(2, 4, 6, seed=1)
    assert polytope.has_nonzero_cone_point_within(g, iter(())) is None
    assert polytope.has_nonzero_cone_point_within(g, np.array([], dtype=int)) is None
    for subset in ((0, 1), tuple(range(6))):
        want = polytope.has_nonzero_cone_point_within(g, subset)
        for form in (iter(subset), np.array(subset), (v for v in subset)):
            assert polytope.has_nonzero_cone_point_within(g, form) == want


def test_cone_point_with_support_labelled():
    g = single_check(HAMMING)
    w = HAMMING.nonzero_codewords()[0]
    support = tuple(j for j in range(7) if w[j])
    p = cone_point_with_support(g, support)
    assert p is not None
    assert p.support() == support
    # weight-2 supports are not codeword supports and the hull forbids them
    assert cone_point_with_support(g, (0, 1)) is None


@pytest.mark.parametrize("subset, bad", [({0, 1, 20}, 20), ({-1, 2}, -1)])
@pytest.mark.parametrize("oracle", [polytope.has_nonzero_cone_point_within,
                                    cone_point_with_support])
def test_subset_indices_outside_the_graph_are_refused(oracle, subset, bad):
    # index 20 touches no check, so a peel would keep it; index -1 would
    # wrap around to the last variable without touching any check row
    g = tanner.build_case_a(2, 4, 8, seed=0)
    with pytest.raises(DomainError, match=f"variable index {bad} outside range\\(8\\)"):
        oracle(g, subset)


@pytest.mark.parametrize("bad", [1.5, "a", None, F(1, 2), True, np.True_])
@pytest.mark.parametrize("oracle", [polytope.has_nonzero_cone_point_within,
                                    cone_point_with_support])
def test_subset_indices_that_are_not_integers_are_refused(oracle, bad):
    g = tanner.build_case_a(2, 4, 6, seed=1)
    with pytest.raises(DomainError, match="is not an integer"):
        oracle(g, [0, bad])
    # numpy integers are integers
    assert (oracle(g, list(np.arange(6, dtype=np.int32)))
            == oracle(g, [np.int64(v) for v in range(6)]) == oracle(g, range(6)))


# -- weight minima ---------------------------------------------------------------------


def test_min_bsc_on_cycle_codes():
    # odd cycle: strict crossing at e = 2, weight 3; even cycle: tie, weight 4
    w, p = polytope.min_bsc_pseudoweight(triangle())
    assert w == 3
    assert polytope.bsc_weight(p).weight == 3
    assert polytope.validate(triangle(), p).valid
    w, p = polytope.min_bsc_pseudoweight(square())
    assert w == 4
    assert polytope.bsc_weight(p).weight == 4


def test_min_bsc_single_hamming_check():
    g = single_check(HAMMING)
    w, p = polytope.min_bsc_pseudoweight(g)
    assert w == 3
    assert polytope.validate(g, p).valid


def test_min_bsc_none_and_guard():
    g = tanner.from_parity_matrix(BitMatrix(np.array([[1]], dtype=np.uint8)))
    assert polytope.min_bsc_pseudoweight(g) is None
    with pytest.raises(SearchSpaceTooLarge):
        polytope.min_bsc_pseudoweight(tanner.build_case_a(2, 4, 16, seed=0))


def test_min_bsc_at_most_dmin():
    for seed in range(4):
        g = tanner.build_case_a(2, 4, 10, seed=seed)
        res = polytope.min_bsc_pseudoweight(g)
        dmin = code_params(g.to_parity_matrix()).dmin
        if res is None:
            continue
        w, p = res
        assert polytope.validate(g, p).valid
        if dmin is not None:
            assert w <= dmin


def test_min_awgn_on_cycle_codes():
    # cycle code minima equal the girth of the base graph
    w, p = polytope.min_awgn_pseudoweight(triangle())
    assert w == 3
    assert polytope.awgn_weight(p) == 3
    w, p = polytope.min_awgn_pseudoweight(square())
    assert w == 4
    g = tanner.build_case_c(graphs.complete(4), SPC3)
    w, p = polytope.min_awgn_pseudoweight(g)
    assert w == 3
    assert polytope.validate(g, p).valid


def test_min_awgn_matches_cycle_space_on_prism():
    g = tanner.build_case_c(graphs.prism(3), SPC3)
    w, _ = polytope.min_awgn_pseudoweight(g)
    assert w == 3


def test_min_awgn_none_guard_and_budget(monkeypatch):
    g = tanner.from_parity_matrix(BitMatrix(np.array([[1]], dtype=np.uint8)))
    assert polytope.min_awgn_pseudoweight(g) is None
    with pytest.raises(SearchSpaceTooLarge):
        polytope.min_awgn_pseudoweight(tanner.build_case_a(2, 4, 66, seed=0))
    # a dense (3,6) cone trips the ray budget
    with pytest.raises(SearchSpaceTooLarge, match="rays"):
        polytope.min_awgn_pseudoweight(tanner.build_case_a(3, 6, 16, seed=3))
    # case_a(2,4,6, seed 0) has 11 vertices, and at most 15 rays at once
    small = tanner.build_case_a(2, 4, 6, seed=0)
    monkeypatch.setattr(polytope, "AWGN_RAY_BUDGET", 14)
    with pytest.raises(SearchSpaceTooLarge):
        polytope.min_awgn_pseudoweight(small)
    monkeypatch.setattr(polytope, "AWGN_RAY_BUDGET", 15)
    assert polytope.min_awgn_pseudoweight(small)[0] == 2


def test_min_awgn_builds_no_tableau(monkeypatch):
    # the vertices come from double description: no simplex runs, and an
    # empty ray list alone decides a trivial cone
    built = []

    class Counting(lpsolve._Tableau):
        def __init__(self, prob):
            built.append(prob)
            super().__init__(prob)

    monkeypatch.setattr(lpsolve, "_Tableau", Counting)
    trivial = tanner.from_parity_matrix(BitMatrix(np.array([[1]], dtype=np.uint8)))
    for g, expect_none in ((triangle(), False), (square(), False), (trivial, True)):
        assert (polytope.min_awgn_pseudoweight(g) is None) == expect_none
    assert built == []


def test_min_awgn_at_most_dmin():
    for seed in range(3):
        g = tanner.build_case_a(2, 4, 8, seed=seed)
        res = polytope.min_awgn_pseudoweight(g)
        dmin = code_params(g.to_parity_matrix()).dmin
        if res is None or dmin is None:
            continue
        assert res[0] <= dmin


# -- structural invariants ----------------------------------------------------------


def test_cover_reductions_validate_and_support_is_stopping():
    rng = np.random.default_rng(3)
    for seed in range(3):
        g = tanner.build_case_a(2, 4, 8, seed=seed)
        spec = tanner.random_lift(g, 2, seed=seed + 10)
        lift = tanner.build_lift(g, spec)
        from expandercodes.gf2 import nullspace_basis
        basis = nullspace_basis(lift.to_parity_matrix())
        if not basis:
            continue
        # a few random span elements
        for _ in range(5):
            coeffs = rng.integers(0, 2, size=len(basis))
            word = np.zeros(lift.n_vars, dtype=np.uint8)
            for b, take in zip(basis, coeffs):
                if take:
                    word ^= b
            if not word.any():
                continue
            p = tanner.reduce_cover_codeword(word, g, lift=lift)
            assert polytope.validate(g, p).valid
            support = set(p.support())
            if support:
                assert is_simple_stopping(g, support)


def test_every_minimal_stopping_set_supports_a_cone_point():
    for seed in range(3):
        g = tanner.build_case_a(2, 4, 8, seed=seed)
        minimal = []
        found = set()
        for size in range(1, g.n_vars + 1):
            for combo in itertools.combinations(range(g.n_vars), size):
                s = set(combo)
                if not is_simple_stopping(g, s):
                    continue
                if any(f < s for f in minimal):
                    continue
                minimal.append(frozenset(s))
        for s in minimal:
            assert cone_point_with_support(g, tuple(s)) is not None


# -- local row descriptions -------------------------------------------------------------

SMALL_LABELS = [label for label in map(subcodes.builtin, subcodes.catalog())
                if label.length <= 7]


def plain_check(d):
    return tanner.from_parity_matrix(BitMatrix(np.ones((1, d), dtype=np.uint8)))


def multiplier_system(g, subset):
    """The cone over points supported inside `subset` in the multiplier
    layout, kept as an independent reference for the row descriptions.

    Variables: one per subset coordinate (sorted), then one multiplier per
    (labelled check, nonzero local codeword vanishing off the subset).
    Plain checks give sibling-sum rows; labelled checks give the coupling
    equalities x_j = sum_w lambda_w w_j.  Returns (total variables, rows).
    """
    subset = sorted(set(subset))
    pos = {v: i for i, v in enumerate(subset)}
    specs = []
    cursor = len(subset)
    for c in range(g.n_checks):
        idx = g.check_vars(c)
        members = [j for j, v in enumerate(idx) if v in pos]
        if not members:
            continue
        label = g.labels[c]
        if label is None:
            specs.append((idx, members, None, cursor))
            continue
        words = label.nonzero_codewords()
        outside = [j for j in range(len(idx)) if j not in members]
        compatible = [w for w in words if not any(w[j] for j in outside)]
        specs.append((idx, members, compatible, cursor))
        cursor += len(compatible)
    rows = []
    for idx, members, compatible, start in specs:
        for j in members:
            coeffs = [F(0)] * cursor
            if compatible is None:
                for j2 in members:
                    coeffs[pos[idx[j2]]] -= 1
                coeffs[pos[idx[j]]] += 2
                rows.append((coeffs, "<=", F(0)))
            else:
                coeffs[pos[idx[j]]] = F(1)
                for t, w in enumerate(compatible):
                    coeffs[start + t] = -F(int(w[j]))
                rows.append((coeffs, "==", F(0)))
    return cursor, rows


def reference_stage_optimum(g, top):
    """Exact optimum of one top-set stage LP in the multiplier layout."""
    n = g.n_vars
    total, rows = multiplier_system(g, range(n))
    pad = [F(0)] * (total - n)
    rows.append(([F(1)] * n + pad, "==", F(1)))
    for i in top:
        for j in range(n):
            if j not in top:
                coeffs = [F(0)] * total
                coeffs[i], coeffs[j] = F(-1), F(1)
                rows.append((coeffs, "<=", F(0)))
    obj = [F(1) if i in top else F(-1) for i in range(n)] + pad
    return lp_solve(lp(total, obj, rows))


def reference_in_hull(label, local):
    """Hull membership as an LP over convex weights of the codewords."""
    words = label.codewords
    k = words.shape[0]
    rows = [([F(int(words[w, j])) for w in range(k)], "==", local[j])
            for j in range(label.length)]
    rows.append(([F(1)] * k, "==", F(1)))
    return lp_solve(lp(k, [F(0)] * k, rows)).status == "optimal"


def in_parity_polytope(local):
    """Box plus every odd-set inequality, by enumeration."""
    d = len(local)
    if not all(0 <= v <= 1 for v in local):
        return False
    return all(sum(1 - local[j] if j in s else local[j] for j in range(d)) >= 1
               for size in range(1, d + 1, 2)
               for s in map(set, itertools.combinations(range(d), size)))


def test_local_rows_are_facets_and_match_known_counts():
    for name in subcodes.catalog():
        label = subcodes.builtin(name)
        words = label.codewords.astype(int)
        rank = np.linalg.matrix_rank(words)
        for (facets, eqs), gens, r in (
                (polytope._cone_rows(label, label.length), words, rank),
                (polytope._hull_rows(label), np.hstack([np.ones((len(words), 1), int), words]),
                 rank + 1)):
            values = gens @ np.array(facets).T
            assert (values >= 0).all(), name
            for col in values.T:
                assert np.linalg.matrix_rank(gens[col == 0]) == r - 1, name
            assert len(eqs) == gens.shape[1] - r
            assert not (gens @ np.array(eqs, dtype=int).reshape(-1, gens.shape[1]).T).any()
    # facet counts of the cones (nonnegativity rows aside) and of the hulls
    kept = {}
    for name in ("spc6", "hamming74", "exthamming84", "rep4"):
        label = subcodes.builtin(name)
        kept[name] = sum(1 for a in polytope._cone_rows(label, label.length)[0] if min(a) < 0)
    assert kept == {"spc6": 6, "hamming74": 28, "exthamming84": 120, "rep4": 0}
    for d in range(4, 9):
        assert len(polytope._hull_rows(subcodes.builtin(f"spc{d}"))[0]) == 2 * d + 2 ** (d - 1)


def test_row_check_rejects_invalid_and_redundant_rows():
    gens = [(1, 1, 0), (1, 0, 1), (0, 1, 1)]  # spc3, a simplicial cone
    polytope._check_rows(gens, [(-1, 1, 1)], [], 3)
    # violated by (0,1,1); tight nowhere; tight on one generator only
    for bad in ((1, -1, 0), (1, 1, 1), (0, 0, 1)):
        with pytest.raises(SolverFailure):
            polytope._check_rows(gens, [bad], [], 3)
    with pytest.raises(SolverFailure):
        polytope._check_rows(gens, [], [(1, -1, 0)], 3)
    # a row vanishing on every generator of a lower-dimensional cone
    with pytest.raises(SolverFailure):
        polytope._check_rows([(1, 0, 0), (0, 1, 0)], [(0, 0, 1)], [], 2)


def test_completeness_certificate_refuses_a_missing_row():
    # without one of its rows the row cone is larger than the codeword
    # cone: it has an extreme ray that is no codeword, or a lineality space
    facets, eqs = polytope._cone_rows(HAMMING, 7)
    words = [tuple(int(b) for b in w) for w in HAMMING.nonzero_codewords()]
    for k in range(len(facets)):
        with pytest.raises(SolverFailure):
            polytope._certified((facets[:k] + facets[k + 1:], eqs), words)
    facets, eqs = polytope._hull_rows(HAMMING)
    words = [(1, *(int(b) for b in w)) for w in HAMMING.codewords]
    for k in (0, len(facets) - 1):
        with pytest.raises(SolverFailure):
            polytope._certified((facets[:k] + facets[k + 1:], eqs), words)
    facets, eqs = polytope._cone_rows(subcodes.builtin("rep3"), 3)
    with pytest.raises(SolverFailure):
        polytope._certified((facets, eqs[1:]), [(1, 1, 1)])
    # the cone of (1, 0) is x0 >= 0 with x1 = 0; without the equality the
    # one extreme ray is still (1, 0), but the half-plane holds a line
    polytope._certified((((1, 0),), ((0, 1),)), [(1, 0)])
    with pytest.raises(SolverFailure):
        polytope._certified((((1, 0),), ()), [(1, 0)])


def test_labels_are_certified_once(monkeypatch):
    # the certificate runs inside the cached row builders
    calls = []
    certified = polytope._certified
    monkeypatch.setattr(polytope, "_certified",
                        lambda *args: calls.append(args) or certified(*args))
    polytope._cone_rows.cache_clear()
    polytope._hull_rows.cache_clear()
    try:
        for _ in range(2):
            polytope._cone_rows(HAMMING, 7)
            polytope._hull_rows(HAMMING)
    finally:
        polytope._cone_rows.cache_clear()
        polytope._hull_rows.cache_clear()
    assert len(calls) == 2


def test_section_coefficients_are_ints():
    # the simplex takes ints as they are, with no Fraction round trip
    b = subcodes.builtin
    for g in (triangle(), single_check(HAMMING),
              tanner.build_case_c(graphs.complete(4), b("spc3")),
              tanner.build_case_d(graphs.complete_bipartite(3, 2), b("rep2"), b("spc3")),
              tanner.build_case_b(2, 8, 8, b("exthamming84"), 0)):
        _, prob = polytope._section(g, range(g.n_vars))
        values = [*prob.objective]
        for coeffs, _, rhs in prob.rows:
            values += [*coeffs, rhs]
        assert all(type(v) is int for v in values), g.labels


def reference_section(g, subset):
    """The normalized cone section without presolve: each check's rows in
    turn, repeats across checks and opposite inequality pairs kept, only
    rows with no positive coefficient in "<=" form dropped.  The reference
    for `polytope._section`, which must describe the same region."""
    vs = polytope._variables(g, subset)
    pos = {v: i for i, v in enumerate(vs)}
    rows = []
    for c in range(g.n_checks):
        idx = g.check_vars(c)
        members = [(j, pos[v]) for j, v in enumerate(idx) if v in pos]
        if not members:
            continue
        facets, eqs = polytope._cone_rows(g.labels[c], len(idx))
        local = {}
        for table, sense, sign in ((facets, "<=", -1), (eqs, "==", 1)):
            for a in table:
                coeffs = [0] * len(vs)
                for j, i in members:
                    coeffs[i] = sign * a[j]
                if any(v > 0 for v in coeffs) or (sense == "==" and any(coeffs)):
                    local[(tuple(coeffs), sense, 0)] = None
        rows.extend(local)
    rows.append(([1] * len(vs), "==", 1))
    return vs, lp(len(vs), [0] * len(vs), rows)


@functools.cache
def section_pool():
    """Small graphs of all four constructions and two rings, labelled with
    spc, rep and hamming74 codes, so the sections hold repeated rows,
    opposite pairs and equality rows."""
    b = subcodes.builtin
    return ([tanner.build_case_a(2, 4, 6, seed=s) for s in range(2)]
            + [tanner.build_case_a(2, 3, 6, seed=1), tanner.build_case_a(3, 6, 8, seed=0),
               seven_ring(), tanner.build_case_a(2, 2, 5, seed=1, require_connected=True),
               tanner.build_case_b(2, 4, 4, b("spc4"), seed=0),
               tanner.build_case_b(2, 3, 9, b("rep3"), seed=1),
               tanner.build_case_b(2, 7, 7, HAMMING, seed=1),
               tanner.build_case_c(graphs.complete(4), b("spc3")),
               tanner.build_case_c(graphs.complete(4), b("rep3")),
               tanner.build_case_c(graphs.prism(3), b("rep3")),
               tanner.build_case_d(graphs.complete_bipartite(3, 2), b("rep2"), b("spc3")),
               tanner.build_case_d(graphs.complete_bipartite(2, 3), b("rep3"), b("rep2"))])


@st.composite
def section_regions(draw):
    """A pool graph and a variable set: every variable, the peeled core, or
    a random nonempty subset."""
    g = draw(st.sampled_from(section_pool()))
    kind = draw(st.sampled_from(("full", "core", "subset")))
    subset = sorted(peel_set(g)) if kind == "core" else range(g.n_vars)
    if kind == "subset" or not subset:
        subset = draw(st.sets(st.integers(0, g.n_vars - 1), min_size=1))
    return g, sorted(subset)


def vertex_set(prob):
    try:
        return enumerate_vertices(prob)
    except InfeasibleRegion:
        return None


@settings(max_examples=150, deadline=None)
@given(section_regions(), st.data())
def test_presolved_section_matches_reference_section(case, data):
    g, subset = case
    vs, prob = polytope._section(g, subset)
    ref_vs, ref = reference_section(g, subset)
    assert vs == ref_vs and prob.rows[-1] == ref.rows[-1]
    # the presolve left no repeated row, no opposite inequality pair and
    # no inequality on an equality row's coefficients
    body = [(a, sense) for a, sense, _ in prob.rows[:-1]]
    assert len(set(body)) == len(body) <= len(ref.rows) - 1
    eqs = {a for a, sense in body if sense == "=="}
    eqs |= {tuple(-v for v in a) for a in eqs}
    for a, sense in body:
        if sense == "<=":
            assert a not in eqs and (tuple(-v for v in a), "<=") not in body
    k = len(vs)
    objectives = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k),
                                    min_size=1, max_size=4))
    got = [(r.status, r.value) for r in maximize_each(prob, objectives)]
    assert got == [(r.status, r.value) for r in maximize_each(ref, objectives)]
    if k <= 7:
        assert vertex_set(prob) == vertex_set(ref), (g.labels, subset)


def test_presolve_row_counts():
    # a ring's two rows per check are one equality, so its section is
    # the single point 1/7 everywhere; two hamming74 checks on the same
    # seven variables share all 28 of their rows
    ring = seven_ring()
    _, prob = polytope._section(ring, range(7))
    assert len(reference_section(ring, range(7))[1].rows) == 15
    assert [sense for _, sense, _ in prob.rows] == ["=="] * 8
    assert enumerate_vertices(prob) == [(F(1, 7),) * 7]
    g = tanner.build_case_b(2, 7, 7, HAMMING, seed=1)
    assert len(reference_section(g, range(7))[1].rows) == 57
    assert len(polytope._section(g, range(7))[1].rows) == 29


def test_spc_label_rows_equal_plain_closed_form():
    for d in range(3, 9):
        label, plain = single_check(subcodes.builtin(f"spc{d}")), plain_check(d)
        for size in range(1, d + 1):
            for subset in itertools.combinations(range(d), size):
                assert (set(polytope._section(label, subset)[1].rows)
                        == set(polytope._section(plain, subset)[1].rows))


def test_cone_points_match_multiplier_reference_on_single_checks():
    graphs_ = [(single_check(label), single_check(label)) for label in SMALL_LABELS]
    graphs_ += [(plain_check(d), single_check(subcodes.builtin(f"spc{d}")))
                for d in range(2, 8)]
    for g, ref in graphs_:
        for size in range(1, g.n_vars + 1):
            for support in itertools.combinations(range(g.n_vars), size):
                total, rows = multiplier_system(ref, support)
                rows += [([F(int(j == i)) for j in range(total)], ">=", F(1))
                         for i in range(size)]
                want = lp_solve(lp(total, [F(0)] * total, rows)).status == "optimal"
                vs, section = polytope._section(g, support)
                assert vs == list(support) and section.n_vars == size
                got = cone_point_with_support(g, support)
                assert (got is not None) == want, (g.labels, support)
                if got is not None:
                    assert got.support() == support
                    assert sum(got.values) == 1
                    assert polytope.validate(g, got).valid, (g.labels, support)


def test_bsc_top_set_optima_match_multiplier_reference():
    # Per stage, the best top-set optimum of the row LP without ordering
    # rows (what the oracle solves) equals the best optimum of the
    # multiplier-layout LP with E held on top by ordering rows: both are
    # 2 topsum_e(q) - 1 maximized over the section.  Soundness-sweep
    # instances: spc labels, rep labels, and both in one graph.
    b = subcodes.builtin
    pool = [tanner.build_case_c(graphs.complete(4), b("spc3")),
            tanner.build_case_c(graphs.complete(4), b("rep3")),
            tanner.build_case_d(graphs.complete_bipartite(3, 2), b("rep2"), b("spc3")),
            tanner.build_case_d(graphs.complete_bipartite(3, 2), b("spc2"), b("spc3"))]
    compared = 0
    for g in pool:
        # the region min_bsc_pseudoweight searches: the cone on the peeled
        # candidate set, normalized to mass 1
        active = sorted(peel_set(g))
        k = len(active)
        _, section = polytope._section(g, active)
        cap = len(polytope.min_stopping_set(g).support)
        for e in range(1, cap + 1):
            tops = list(itertools.combinations(range(k), e))
            got = list(maximize_each(section, ([F(1) if i in top else F(-1) for i in range(k)]
                                               for top in tops)))
            assert all(r.status == "optimal" for r in got)
            want = [reference_stage_optimum(g, tuple(active[i] for i in top)) for top in tops]
            want = [r.value for r in want if r.status == "optimal"]
            assert max(r.value for r in got) == max(want), (g.labels, e)
            compared += len(tops)
    assert compared >= 50


def vertex_bsc_pool():
    """Small graphs of every construction, each with a section small enough
    to enumerate its vertices."""
    b = subcodes.builtin
    pool = [triangle(), square(),
            tanner.build_case_c(graphs.complete(4), b("spc3")),
            tanner.build_case_c(graphs.complete(4), b("rep3")),
            tanner.build_case_d(graphs.complete_bipartite(3, 2), b("rep2"), b("spc3")),
            tanner.build_case_d(graphs.complete_bipartite(3, 2), b("spc2"), b("spc3")),
            tanner.build_case_d(graphs.complete_bipartite(2, 3), b("rep3"), b("rep2")),
            tanner.build_case_c(graphs.prism(3), b("rep3")),
            tanner.build_case_c(graphs.cycle(6), b("rep2")),
            tanner.build_case_c(graphs.cycle(5), b("spc2")),
            seven_ring()]
    pool += [tanner.build_case_a(2, 3, 6, seed=s) for s in range(2)]
    pool.append(zero_tie_case())
    pool += [tanner.build_case_a(2, 4, 6, seed=s) for s in range(6)]
    pool += [tanner.build_case_b(2, 4, 4, b("spc4"), seed=s) for s in range(3)]
    return pool


def test_min_bsc_equals_least_vertex_weight():
    # topsum_e is convex, so its maximum over the normalized cone section is
    # attained at a vertex; hence the least flipping-set weight over the
    # section is the least over its vertices, found here by enumeration.
    for g in vertex_bsc_pool():
        n = g.n_vars
        _, section = polytope._section(g, range(n))
        weight, witness = polytope.min_bsc_pseudoweight(g)
        assert weight == min(polytope.bsc_weight(v).weight for v in enumerate_vertices(section))
        assert polytope.bsc_weight(witness).weight == weight
        assert polytope.validate(g, witness).valid, g.labels


def seven_ring():
    """The cycle code of a 7-cycle: every coordinate maximum is 1/7, so no
    top set below stage 4 can reach half the mass."""
    return tanner.build_case_a(2, 2, 7, seed=1, require_connected=True)


def zero_tie_case():
    """Its deciding stage has a zero top-set optimum before a positive one."""
    return tanner.build_case_a(2, 3, 9, seed=1)


def reference_min_bsc_pseudoweight(g):
    """The staged top-set search with no pruning: every top set of every
    stage is solved until a stage decides."""
    core = polytope._peel(polytope._peel_rules(g), (1 << g.n_vars) - 1)
    if not core:
        return None
    vs, prob = polytope._section(g, [v for v in range(g.n_vars) if core >> v & 1])
    n = len(vs)
    tops = itertools.chain.from_iterable(
        itertools.combinations(range(n), e) for e in range(1, n + 1))
    results = polytope.maximize_each(prob, ([F(1) if i in top else F(-1) for i in range(n)]
                                            for top in tops))
    for e in range(1, n + 1):
        best = None
        for res in itertools.islice(results, math.comb(n, e)):
            if res.status == "infeasible":
                return None
            if res.status == "optimal" and res.value >= 0 and (
                    best is None or res.value > best.value):
                best = res
                if best.value > 0:
                    break
        if best is not None:
            return (2 * e - 1 if best.value > 0 else 2 * e,
                    polytope._point(g, vs, best.x, f"top-set-stage-{e}"))
    raise AssertionError("the staged search passed the last stage")


def count_objectives(monkeypatch):
    """Patch polytope.maximize_each to count the objectives it is handed;
    returns the running count as a one-element list."""
    count = [0]
    solve = polytope.maximize_each

    def counted(prob, objectives):
        def tally():
            for objective in objectives:
                count[0] += 1
                yield objective
        return solve(prob, tally())

    monkeypatch.setattr(polytope, "maximize_each", counted)
    return count


def bsc_matching_reference(g):
    """min_bsc_pseudoweight(g), asserted to give the reference's weight and
    a valid witness of that weight."""
    got, want = polytope.min_bsc_pseudoweight(g), reference_min_bsc_pseudoweight(g)
    assert (got is None) == (want is None), g.labels
    if got is not None:
        assert got[0] == want[0], g.labels
        for weight, witness in (got, want):
            assert polytope.validate(g, witness).valid, g.labels
            assert polytope.bsc_weight(witness).weight == weight
    return got


def test_pruned_bsc_search_matches_the_full_search(monkeypatch):
    # the labelled pool is compared in
    # test_min_stopping_set_matches_exact_support_reference
    for g in vertex_bsc_pool():
        bsc_matching_reference(g)
    count = count_objectives(monkeypatch)
    counts = []
    for search in (polytope.min_bsc_pseudoweight, reference_min_bsc_pseudoweight):
        count[0] = 0
        assert search(seven_ring())[0] == 7
        counts.append(count[0])
    # stage 1 gives M_i = 1/7, so stages 2 and 3 are skipped whole
    assert counts == [8, 64]


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 7).flatmap(lambda d: st.lists(
    st.fractions(min_value=0, max_value=1, max_denominator=4), min_size=d, max_size=d)))
def test_plain_check_and_spc_label_agree(local):
    d = len(local)
    want = in_parity_polytope(local)
    assert polytope.validate(plain_check(d), local).valid == want
    label = single_check(subcodes.builtin(f"spc{d}"))
    assert polytope.validate(label, local).valid == want
    assert reference_in_hull(subcodes.builtin(f"spc{d}"), local) == want


def test_all_ones_is_in_the_parity_polytope_exactly_for_even_degree():
    for d in range(2, 8):
        ones = [1] * d
        rep = polytope.validate(plain_check(d), ones)
        assert rep.valid == (d % 2 == 0)
        label = single_check(subcodes.builtin(f"spc{d}"))
        assert polytope.validate(label, ones).valid == (d % 2 == 0)
    # the odd-set failure names the whole check when no single coordinate
    # exceeds its siblings
    rep = polytope.validate(plain_check(3), [1, 1, 1])
    assert rep.failures == ("check 0: odd-set inequality fails on [0, 1, 2]",)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_LABELS).flatmap(lambda label: st.tuples(
    st.just(label), st.lists(st.fractions(min_value=0, max_value=1, max_denominator=3),
                             min_size=label.length, max_size=label.length))))
def test_hull_rows_match_hull_lp(case):
    label, local = case
    got = polytope.validate(single_check(label), local).valid
    assert got == reference_in_hull(label, local)


# -- cover realizability ----------------------------------------------------------------


def test_lift_realizability_integral_and_halves():
    g = triangle()
    got = tanner.lift_realizability_check(g, [1, 1, 1])
    assert got is not None and got.degree == 1
    got = tanner.lift_realizability_check(g, [F(1, 2)] * 3)
    assert got is not None and got.degree == 2
    spec = tanner.LiftSpec(got.degree, got.permutations)
    lift = tanner.build_lift(g, spec)
    assert lift.n_vars == 6


def test_lift_realizability_thirds_on_triangle():
    got = tanner.lift_realizability_check(triangle(), [F(1, 3)] * 3)
    assert got is not None and got.degree == 3


def test_lift_realizability_negative_cases():
    g = triangle()
    # (1/2, 1/2, 0) forces one parity cloud to see a single half-filled edge
    assert tanner.lift_realizability_check(g, [F(1, 2), F(1, 2), 0]) is None
    assert tanner.lift_realizability_check(g, [-1, 0, 0]) is None
    spc = single_check(SPC3)
    got = tanner.lift_realizability_check(spc, [F(1, 2), F(1, 2), 0])
    assert got is not None and got.degree == 2


def test_lift_realizability_guards():
    g = triangle()
    with pytest.raises(DegreeTooLarge):
        tanner.lift_realizability_check(g, [F(1, 5)] * 3)
    with pytest.raises(DegreeTooLarge):
        tanner.lift_realizability_check(g, [1, 1, 1], max_degree=6)
    big = tanner.build_case_a(2, 4, 12, seed=0)
    with pytest.raises(SearchSpaceTooLarge):
        tanner.lift_realizability_check(big, [0] * 12)
