"""Expansion profiles and the two spectral edge bounds.

The profile tests use a plain set-based recount as the oracle for delta, and
the original per-subset scan as the reference for the whole profile, witness
included; the edge-bound verifiers are exercised both on graphs where the
exact eigenvalue is known in closed form and with deliberately falsified
eigenvalue inputs, which must produce violations.
"""

import itertools
from fractions import Fraction
from math import ceil, comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expandercodes import expansion, graphs, subcodes, tanner
from expandercodes.errors import DomainError, NotRegular, SubsetSpaceTooLarge


def brute_profile(neighbor_sets, c, alpha):
    """Worst |N(U)| / (c |U|) over subsets of size < alpha * n, by sets."""
    n = len(neighbor_sets)
    smax = min(n, ceil(Fraction(alpha) * n) - 1)
    best = None
    for s in range(1, smax + 1):
        for combo in itertools.combinations(range(n), s):
            hood = set()
            for v in combo:
                hood |= neighbor_sets[v]
            ratio = Fraction(len(hood), c * s)
            if best is None or ratio < best:
                best = ratio
    return best


def reference_profile(g, alpha):
    """The scan vertex_expansion_profile replaced: every subset's union
    OR-ed anew, and its ratio compared as a Fraction."""
    alpha = Fraction(alpha)
    n, masks, c = expansion._left_neighbor_masks(g)
    smax = min(n, ceil(alpha * n) - 1)
    if smax < 1:
        return expansion.ExpansionProfile(alpha, n, c, Fraction(1), None, 0, True)
    best = None
    witness = None
    checked = 0
    for s in range(1, smax + 1):
        for combo in itertools.combinations(range(n), s):
            u = 0
            for v in combo:
                u |= masks[v]
            checked += 1
            ratio = Fraction(u.bit_count(), c * s)
            if best is None or ratio < best:
                best = ratio
                witness = combo
    return expansion.ExpansionProfile(alpha, n, c, best, witness, checked, False)


def pairs_graph(groups):
    """Degree-2 bipartite graph: the variables of group k all meet checks
    2k and 2k + 1, so every group is a set of twins."""
    edges = [(v, 2 * k + b) for k, group in enumerate(groups) for v in group
             for b in (0, 1)]
    n = sum(len(group) for group in groups)
    return graphs.BipartiteGraph(n, 2 * len(groups), tuple(edges))


def tanner_neighbor_sets(g):
    return [set(g.var_checks(v)) for v in range(g.n_vars)]


def bipartite_neighbor_sets(bg):
    sets = [set() for _ in range(bg.n_left)]
    for l, r in bg.edges:
        sets[l].add(r)
    return sets


def test_profile_matches_brute_force_on_tanner_graphs():
    for seed in range(4):
        g = tanner.build_case_a(2, 4, 8, seed=seed)
        prof = expansion.vertex_expansion_profile(g, Fraction(1, 2))
        oracle = brute_profile(tanner_neighbor_sets(g), 2, Fraction(1, 2))
        assert prof.delta == oracle
        assert not prof.vacuous
        # the witness attains delta
        hood = set()
        for v in prof.witness:
            hood |= set(g.var_checks(v))
        assert Fraction(len(hood), 2 * len(prof.witness)) == prof.delta


def test_profile_matches_brute_force_on_bipartite():
    bg = graphs.random_biregular(9, 2, 3, seed=13)
    prof = expansion.vertex_expansion_profile(bg, Fraction(2, 3))
    assert prof.delta == brute_profile(bipartite_neighbor_sets(bg), 2,
                                       Fraction(2, 3))
    assert prof.c == 2 and prof.n == 9


def test_profile_delta_never_exceeds_one():
    for seed in range(3):
        g = tanner.build_case_a(3, 4, 8, seed=seed)
        prof = expansion.vertex_expansion_profile(g, Fraction(3, 4))
        assert prof.delta <= 1


def test_profile_complete_bipartite_is_perfect_at_singletons():
    prof = expansion.vertex_expansion_profile(graphs.complete_bipartite(2, 2),
                                              Fraction(1))
    assert prof.delta == 1
    assert prof.witness == (0,)


def test_profile_vacuous_below_one_vertex():
    prof = expansion.vertex_expansion_profile(
        tanner.build_case_a(2, 4, 8, seed=0), Fraction(1, 8))
    assert prof.vacuous
    assert prof.delta == 1
    assert prof.witness is None
    assert prof.subsets_checked == 0


# the @example graphs: WIDE has 66 checks, more than one 64-bit word; in
# TWINS, delta = 1/2 is reached at sizes 2 and 4
WIDE = tanner.build_case_a(3, 6, 132, seed=4)
TWINS = pairs_graph([(0, 1), (2, 3), (4, 5)])


@st.composite
def profile_inputs(draw):
    seed = draw(st.integers(0, 10_000))
    kind = draw(st.sampled_from(["case_a", "case_b", "biregular"]))
    if kind == "case_a":
        c, d = draw(st.sampled_from([(2, 3), (2, 4), (3, 6)]))
        g = tanner.build_case_a(c, d, d * draw(st.integers(1, 12 // d)), seed)
    elif kind == "case_b":
        g = tanner.build_case_b(2, 4, 4 * draw(st.integers(1, 3)),
                                subcodes.builtin("spc4"), seed)
    else:
        g = graphs.random_biregular(3 * draw(st.integers(1, 4)), 2, 3, seed)
    return g, Fraction(draw(st.integers(1, 12)), 12)


@settings(max_examples=150, deadline=None)
@given(profile_inputs())
@example((WIDE, Fraction(3, 132)))
@example((TWINS, Fraction(1)))
def test_profile_equals_reference_scan(inputs):
    g, alpha = inputs
    prof = expansion.vertex_expansion_profile(g, alpha)
    assert prof == reference_profile(g, alpha)
    smax = min(prof.n, ceil(alpha * prof.n) - 1)
    assert prof.subsets_checked == sum(comb(prof.n, s) for s in range(1, smax + 1))


def test_wide_example_spans_more_than_one_word():
    assert WIDE.n_checks > 64


def test_witness_prefers_the_smaller_size_on_a_tie():
    # (0, 1) and (0, 1, 2, 3) both reach 1/2; the size-2 subset is returned
    sets = bipartite_neighbor_sets(TWINS)
    assert Fraction(len(set.union(*sets[:4])), 2 * 4) == Fraction(1, 2)
    prof = expansion.vertex_expansion_profile(TWINS, 1)
    assert prof.delta == Fraction(1, 2)
    assert prof.witness == (0, 1)


def test_witness_is_lexicographically_first_within_a_size():
    # sizes 1 and 2 only; (0, 3) and (1, 2) are the twin pairs, both at 1/2
    prof = expansion.vertex_expansion_profile(pairs_graph([(0, 3), (1, 2)]),
                                              Fraction(3, 4))
    assert prof.delta == Fraction(1, 2)
    assert prof.witness == (0, 3)


def test_profile_input_validation():
    g = tanner.build_case_a(2, 4, 8, seed=0)
    with pytest.raises(DomainError):
        expansion.vertex_expansion_profile(g, 0)
    with pytest.raises(DomainError):
        expansion.vertex_expansion_profile(g, Fraction(3, 2))
    with pytest.raises(SubsetSpaceTooLarge):
        expansion.vertex_expansion_profile(g, Fraction(1, 2), budget=3)
    import numpy as np
    from expandercodes.gf2 import BitMatrix
    ragged = tanner.from_parity_matrix(
        BitMatrix(np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)))
    with pytest.raises(NotRegular):
        expansion.vertex_expansion_profile(ragged, Fraction(1, 2))


def test_alon_chung_hand_values():
    assert expansion.alon_chung_bound(Fraction(1, 2), 4, 3, 1) == 2
    assert expansion.alon_chung_bound(0, 10, 3, 2) == 0
    # gamma = 1 counts every edge regardless of mu
    assert expansion.alon_chung_bound(1, 10, 3, 2) == 15
    with pytest.raises(DomainError):
        expansion.alon_chung_bound(Fraction(3, 2), 4, 3, 1)
    with pytest.raises(DomainError):
        expansion.alon_chung_bound(Fraction(1, 2), 4, 3, -1)
    with pytest.raises(DomainError):
        expansion.alon_chung_bound(Fraction(1, 2), 0, 3, 1)


def test_janwa_lal_hand_values():
    # single left and right vertex: d/m + mu
    assert expansion.janwa_lal_bound(1, 1, 2, 3, 6, 0) == Fraction(1, 2)
    assert expansion.janwa_lal_bound(1, 1, 2, 3, 6, 1) == Fraction(3, 2)
    assert expansion.janwa_lal_bound(0, 5, 2, 3, 6, 1) == Fraction(5, 2)
    with pytest.raises(DomainError):
        expansion.janwa_lal_bound(-1, 1, 2, 3, 6, 1)
    with pytest.raises(DomainError):
        expansion.janwa_lal_bound(1, 1, 2, 3, 6, -2)


def test_verify_alon_chung_exact_eigenvalues():
    # K_n has mu = 1 exactly, Petersen mu = 2 exactly.
    rep = expansion.verify_alon_chung(graphs.complete(6), mu=1)
    assert rep.holds and rep.violations == 0
    assert rep.subsets_checked == 2 ** 6 - 1
    assert rep.max_excess <= 0
    rep = expansion.verify_alon_chung(graphs.petersen(), mu=2)
    assert rep.holds


def test_verify_alon_chung_certified_mu():
    for g in (graphs.cycle(7), graphs.prism(4),
              graphs.random_regular(10, 3, seed=2)):
        rep = expansion.verify_alon_chung(g)
        assert rep.holds


def test_verify_alon_chung_catches_falsified_mu():
    # A 4-path inside C8 has 3 internal edges; with mu forced to 0 the bound
    # says at most 2.
    rep = expansion.verify_alon_chung(graphs.cycle(8), mu=0)
    assert not rep.holds
    assert rep.violations > 0
    assert rep.max_excess > 0
    assert rep.worst is not None


def test_verify_janwa_lal_exact_eigenvalues():
    # K_{3,3}: nontrivial second eigenvalue 0, crossing count meets the bound
    # with equality everywhere.
    rep = expansion.verify_janwa_lal(graphs.complete_bipartite(3, 3), mu=0)
    assert rep.holds and rep.violations == 0
    assert rep.max_excess == 0
    assert rep.subsets_checked == (2 ** 3 - 1) ** 2


def test_verify_janwa_lal_certified_mu():
    for seed in range(3):
        bg = graphs.random_biregular(6, 2, 3, seed=seed)
        rep = expansion.verify_janwa_lal(bg)
        assert rep.holds


def test_verify_janwa_lal_catches_falsified_mu():
    # with d < m an adjacent singleton pair already beats (d/m)|S||T|
    bg = graphs.random_biregular(6, 2, 3, seed=1)
    rep = expansion.verify_janwa_lal(bg, mu=0)
    assert not rep.holds
    assert rep.max_excess > 0


def test_verifier_budgets():
    with pytest.raises(SubsetSpaceTooLarge):
        expansion.verify_alon_chung(graphs.complete(6), mu=1, budget=10)
    with pytest.raises(SubsetSpaceTooLarge):
        expansion.verify_janwa_lal(graphs.complete_bipartite(3, 3), mu=0,
                                   budget=10)
