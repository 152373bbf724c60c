"""Spectrum computation against closed-form eigenvalues and exact residuals.

Families with known spectra (complete, cycle, Petersen, complete bipartite,
cube) pin the reported values.  Eigenpairs come from LAPACK, so a LAPACK
comparison is no independent check; the reference for the certified radius
is the exact-rational test below, which recomputes in Fraction arithmetic the
two residual norms the enclosure bounds in floating point.

The certified mu of a deflated matrix is checked against the float reading
it replaced: the second magnitude of a regular spectrum, and the float
+/-lambda pair matching, `nontrivial_second_eigenvalue`, of a bipartite one.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from expandercodes import expansion, graphs, spectral
from expandercodes.errors import DomainError, NotSymmetric, SimplificationFailed


def abs_sorted(values):
    return sorted(values, key=lambda v: (-abs(v), -v))


def test_complete_graph_spectrum():
    # K_n: n-1 once, -1 with multiplicity n-1.
    for n in range(2, 9):
        rep = spectral.spectrum(graphs.complete(n).adjacency())
        assert rep.mu1 == pytest.approx(n - 1, abs=1e-9)
        assert rep.mu2 == pytest.approx(1.0, abs=1e-9)
        expected = [float(n - 1)] + [-1.0] * (n - 1)
        assert rep.eigenvalues == pytest.approx(expected, abs=1e-9)


def test_cycle_spectrum():
    # C_n: 2 cos(2 pi k / n).
    for n in range(3, 11):
        rep = spectral.spectrum(graphs.cycle(n).adjacency())
        expected = [2.0 * math.cos(2.0 * math.pi * k / n) for k in range(n)]
        assert sorted(rep.eigenvalues) == pytest.approx(sorted(expected),
                                                        abs=1e-9)
        mu2_true = max(abs(v) for v in expected[1:])
        assert rep.mu2 == pytest.approx(mu2_true, abs=1e-9)


def test_petersen_spectrum():
    rep = spectral.spectrum(graphs.petersen().adjacency())
    expected = [3.0] + [-2.0] * 4 + [1.0] * 5
    assert abs_sorted(rep.eigenvalues) == pytest.approx(abs_sorted(expected),
                                                        abs=1e-9)
    assert rep.mu1 == pytest.approx(3.0, abs=1e-9)
    assert rep.mu2 == pytest.approx(2.0, abs=1e-9)


def test_cube_spectrum():
    # Q3: +/-3 once each, +/-1 three times each.
    rep = spectral.spectrum(graphs.cube().adjacency())
    expected = sorted([3.0, -3.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    assert sorted(rep.eigenvalues) == pytest.approx(expected, abs=1e-9)
    assert rep.mu2 == pytest.approx(3.0, abs=1e-9)


def test_ordering_ties_positive_first():
    # A diagonal input comes back exact, so the tie rule (equal magnitude:
    # positive first) is observable.
    rep = spectral.spectrum(np.diag([-2.0, 0.0, 2.0, 1.0]))
    assert rep.eigenvalues == (2.0, -2.0, 1.0, 0.0)


def _bipartite_adjacency(b):
    a = np.zeros((b.n_left + b.n_right,) * 2)
    for i, j in b.edges:
        a[i, b.n_left + j] = a[b.n_left + j, i] = 1.0
    return a


@pytest.mark.parametrize("adjacency, lam", [
    (graphs.cycle(6).adjacency(), 2.0),
    (_bipartite_adjacency(graphs.complete_bipartite(2, 3)), math.sqrt(6)),
    (_bipartite_adjacency(graphs.complete_bipartite(3, 3)), 3.0),
])
def test_bipartite_leading_pair_positive_first(adjacency, lam):
    # A bipartite spectrum has the exact pair +/-lambda on top; the computed
    # magnitudes differ in the last digits, and the tie rule must not follow
    # that rounding noise.
    rng = np.random.default_rng(17)
    n = adjacency.shape[0]
    for _ in range(12):
        p = rng.permutation(n)
        rep = spectral.spectrum(adjacency[np.ix_(p, p)])
        assert rep.eigenvalues[0] > 0
        assert rep.mu1 == pytest.approx(lam, abs=1e-9)
        assert rep.eigenvalues[1] == pytest.approx(-lam, abs=1e-9)


def test_residuals_and_error_bound_small():
    rep = spectral.spectrum(graphs.petersen().adjacency())
    assert all(r < 1e-8 for r in rep.residuals)
    assert 0.0 < rep.error_bound < 1e-8


def test_trivial_sizes():
    rep = spectral.spectrum(np.zeros((3, 3)))
    assert rep.eigenvalues == (0.0, 0.0, 0.0)
    one = spectral.spectrum([[5.0]])
    assert one.eigenvalues == (5.0,)
    assert one.mu1 == 5.0 and one.mu2 == 0.0


def test_not_symmetric_rejected():
    with pytest.raises(NotSymmetric):
        spectral.spectrum([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotSymmetric):
        spectral.spectrum(np.zeros((2, 3)))


def test_non_finite_rejected():
    with pytest.raises(DomainError):
        spectral.spectrum([[float("nan"), 1.0], [1.0, 0.0]])
    with pytest.raises(DomainError):
        spectral.spectrum([[float("inf"), 0.0], [0.0, 0.0]])


def test_determinism():
    a = graphs.random_regular(12, 4, seed=5).adjacency()
    r1 = spectral.spectrum(a)
    r2 = spectral.spectrum(a)
    assert r1 == r2


def nontrivial_second_eigenvalue(report, pair_tol=1e-6):
    """Float reference: second-largest |eigenvalue| after removing one
    +/-lambda_max pair, matched within pair_tol.  Returns (value, found)."""
    vals = list(report.eigenvalues)
    if len(vals) < 2:
        return 0.0, False
    lam = vals[0]
    scale = max(1.0, abs(lam))
    for i in range(1, len(vals)):
        if abs(vals[i] + lam) <= pair_tol * scale:
            rest = vals[1:i] + vals[i + 1:]
            return (max(abs(v) for v in rest) if rest else 0.0), True
    return abs(vals[1]), False


def union(g, h):
    """Disjoint union of two graphs of the same kind."""
    if isinstance(g, graphs.Graph):
        return graphs.Graph(g.n + h.n, g.edges + tuple(
            (u + g.n, v + g.n) for u, v in h.edges))
    return graphs.BipartiteGraph(
        g.n_left + h.n_left, g.n_right + h.n_right,
        g.edges + tuple((u + g.n_left, v + g.n_right) for u, v in h.edges))


def bipartite_cycle(k):
    """The 2k-cycle as a (2, 2)-biregular bipartite graph."""
    return graphs.BipartiteGraph(k, k, tuple(sorted(
        {(i, i) for i in range(k)} | {(i, (i + 1) % k) for i in range(k)})))


def bipartite_cube():
    """Q3 split into its even- and odd-weight vertices."""
    even = [u for u in range(8) if u.bit_count() % 2 == 0]
    odd = [u for u in range(8) if u.bit_count() % 2 == 1]
    edges = [(u, v) if u in even else (v, u) for u, v in graphs.cube().edges]
    return graphs.BipartiteGraph(4, 4, tuple(sorted(
        (even.index(u), odd.index(v)) for u, v in edges)))


def test_bipartite_pair_removal():
    # K_{3,3}: +/-3 and four zeros; the nontrivial second eigenvalue is 0.
    mu = expansion.biregular_mu(graphs.complete_bipartite(3, 3))
    assert 0 <= mu < Fraction(1, 10**9)
    # Cube is bipartite too: after removing +/-3 the next is 1.
    mu = expansion.biregular_mu(bipartite_cube())
    assert 1 <= mu < 1 + Fraction(1, 10**9)


def test_pair_removal_absent_for_complete_graph():
    # K_5 is not bipartite: only the degree 4 goes, the -1s stay.
    mu = expansion.regular_mu(graphs.complete(5))
    assert 1 <= mu < 1 + Fraction(1, 10**9)


def test_exactly_one_pair_removed():
    # Two copies of K_{2,3}: one +/-sqrt(6) pair is trivial, the second
    # copy's pair is a genuine nontrivial eigenvalue of the disconnected base.
    k23 = graphs.complete_bipartite(2, 3)
    mu = expansion.biregular_mu(union(k23, k23))
    assert 6 <= mu ** 2 and float(mu) <= math.sqrt(6) + 1e-9
    # the same for two random (2, 3)-biregular bases with c != d
    bg = union(graphs.random_biregular(6, 2, 3, seed=1),
               graphs.random_biregular(6, 2, 3, seed=2))
    mu = expansion.biregular_mu(bg)
    assert 6 <= mu ** 2 and float(mu) <= math.sqrt(6) + 1e-9


def test_certified_upper_bounds_true_value():
    cases = [
        (graphs.complete(7), Fraction(1)),
        (graphs.petersen(), Fraction(2)),
        (graphs.cycle(4), Fraction(2)),  # bipartite: -2 counts
    ]
    for g, true_mu in cases:
        upper = expansion.regular_mu(g)
        assert isinstance(upper, Fraction)
        assert true_mu <= upper < true_mu + Fraction(1, 10**9)


def test_certified_bipartite_upper():
    # K_{a,b} has no nontrivial eigenvalue at all.
    for a in range(1, 6):
        for b in range(1, 6):
            upper = expansion.biregular_mu(graphs.complete_bipartite(a, b))
            assert isinstance(upper, Fraction)
            assert 0 <= upper < Fraction(1, 10**9)


def test_ring_parity_mu2():
    # A (2, 2) ring of n checks: H H^T = 2I + A(C_n), with mu1 = 4 on the
    # all-ones vector and mu2 = 2 + 2 cos(2 pi / n).
    for n in range(3, 12):
        h = np.zeros((n, n))
        for i in range(n):
            h[i, i] = h[i, (i + 1) % n] = 1
        mu2 = spectral.certified_mu(n * (h @ h.T) - 4, n)
        true = 2 + 2 * math.cos(2 * math.pi / n)
        assert true - 1e-15 <= mu2 <= true + 1e-9  # 1e-15: rounding of cos


@st.composite
def regular_or_biregular(draw):
    kind = draw(st.sampled_from(["regular", "union", "cycle", "cube",
                                 "biregular", "biunion", "complete"]))
    seed = draw(st.integers(0, 10**6))
    if kind in ("regular", "union"):
        n = draw(st.integers(4, 12))
        d = draw(st.integers(2, min(5, n - 1)).filter(lambda d: n * d % 2 == 0))
        g = graphs.random_regular(n, d, seed)
        if kind == "union":
            g = union(g, graphs.random_regular(n, d, seed + 1))
        return g
    if kind == "cycle":
        return bipartite_cycle(draw(st.integers(2, 12)))
    if kind == "cube":
        return draw(st.sampled_from([graphs.cube(), bipartite_cube()]))
    if kind == "complete":
        return graphs.complete_bipartite(draw(st.integers(1, 6)),
                                         draw(st.integers(1, 6)))
    c, d, t = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(2, 4))
    try:
        g = graphs.random_biregular(d * t, c, d, seed)
        if kind == "biunion":
            g = union(g, graphs.random_biregular(d * t, c, d, seed + 1))
    except SimplificationFailed:
        reject()
    return g


@settings(max_examples=150, deadline=None)
@given(regular_or_biregular())
def test_certified_mu_matches_float_reference(g):
    # The references are the float readings the certificate replaced: the
    # second magnitude of a regular spectrum, the pair-matched value of a
    # bipartite one.  They carry eigh rounding, allowed below.
    if isinstance(g, graphs.Graph):
        a = g.adjacency()
        mu, ref = expansion.regular_mu(g), spectral.spectrum(a).mu2
    else:
        a = g.full_adjacency()
        mu = expansion.biregular_mu(g)
        ref, found = nontrivial_second_eigenvalue(spectral.spectrum(a))
        assert found
    rounding = 8 * len(a) * np.finfo(float).eps * max(1.0, a.sum(axis=1).max())
    assert isinstance(mu, Fraction)
    assert Fraction(ref) - Fraction(rounding) <= mu <= Fraction(ref) + Fraction(1, 10**9)


def test_hht_spectrum_matches_gram_matrix():
    h = np.array([[1, 1, 0, 1], [0, 1, 1, 1]], dtype=np.uint8)
    rep = spectral.hht_spectrum(h)
    oracle = abs_sorted(np.linalg.eigvalsh(h.astype(float) @ h.T.astype(float)))
    assert rep.eigenvalues == pytest.approx(oracle, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.data())
def test_spectrum_matches_lapack(n, data):
    entries = data.draw(st.lists(st.integers(-3, 3), min_size=n * n,
                                 max_size=n * n))
    m = np.array(entries, dtype=float).reshape(n, n)
    a = m + m.T
    rep = spectral.spectrum(a)
    oracle = sorted(np.linalg.eigvalsh(a))
    assert sorted(rep.eigenvalues) == pytest.approx(oracle, abs=1e-8)
    assert abs(rep.mu1) == pytest.approx(max(abs(v) for v in oracle), abs=1e-8)


def exact(m):
    return [[Fraction(float(x)) for x in row] for row in np.asarray(m)]


def exact_product(x, y):
    return [[sum(x[i][k] * y[k][j] for k in range(len(y)))
             for j in range(len(y[0]))] for i in range(len(x))]


def exact_frobenius_sq(m, diag):
    """Exact ||m - diag(diag)||_F^2."""
    return sum((m[i][j] - (diag[i] if i == j else 0)) ** 2
               for i in range(len(m)) for j in range(len(m)))


@st.composite
def small_integer_symmetric(draw):
    n = draw(st.integers(1, 12))
    entries = draw(st.lists(st.integers(-3, 3), min_size=n * n,
                            max_size=n * n))
    m = np.array(entries, dtype=float).reshape(n, n)
    return np.triu(m) + np.triu(m, 1).T


# Complete graphs and Petersen have highly repeated eigenvalues, where the
# computed eigenvectors of each eigenspace are least orthogonal.
REPEATED = [graphs.complete(n).adjacency() for n in range(2, 13)] + [
    graphs.petersen().adjacency()]


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from(REPEATED), small_integer_symmetric()))
def test_enclosure_covers_exact_residuals(a):
    a = np.asarray(a, dtype=float)
    w, v = np.linalg.eigh(a)
    e, delta = spectral._residual_bounds(a, w, v)
    V = exact(v)
    Vt = [list(col) for col in zip(*V)]
    W = [Fraction(float(x)) for x in w]
    assert e ** 2 >= exact_frobenius_sq(exact_product(Vt, exact_product(exact(a), V)), W)
    assert delta ** 2 >= exact_frobenius_sq(exact_product(Vt, V), [1] * len(W))
