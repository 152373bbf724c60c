import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expandercodes import gf2
from expandercodes.errors import DimensionTooLarge
from expandercodes.gf2 import BitMatrix


def brute_kernel(m: BitMatrix) -> set:
    """All vectors x with Mx = 0, by trying every x.  Independent of the
    echelon machinery under test."""
    out = set()
    for bits in itertools.product((0, 1), repeat=m.cols):
        x = np.array(bits, dtype=np.uint8)
        if not m.mul_vec(x).any():
            out.add(bits)
    return out


def brute_rank(m: BitMatrix) -> int:
    span = set()
    rows = [tuple(r) for r in m.bits]
    for picks in itertools.product((0, 1), repeat=len(rows)):
        v = np.zeros(m.cols, dtype=np.uint8)
        for p, r in zip(picks, rows):
            if p:
                v ^= np.array(r, dtype=np.uint8)
        span.add(tuple(v))
    return int(np.log2(len(span)))


def random_matrix(rng, rows, cols):
    return BitMatrix(rng.integers(0, 2, size=(rows, cols), dtype=np.uint8))


def test_rank_against_span_counting():
    rng = np.random.default_rng(0)
    for _ in range(40):
        m = random_matrix(rng, int(rng.integers(1, 5)), int(rng.integers(1, 6)))
        assert gf2.rank(m) == brute_rank(m)


def test_nullspace_basis_spans_kernel():
    rng = np.random.default_rng(1)
    for _ in range(40):
        m = random_matrix(rng, int(rng.integers(1, 5)), int(rng.integers(1, 7)))
        basis = gf2.nullspace_basis(m)
        for v in basis:
            assert not m.mul_vec(v).any()
        # basis generates exactly the kernel: 2^k combinations, all distinct
        kernel = brute_kernel(m)
        assert 2 ** len(basis) == len(kernel)
        generated = set()
        for picks in itertools.product((0, 1), repeat=len(basis)):
            v = np.zeros(m.cols, dtype=np.uint8)
            for p, b in zip(picks, basis):
                if p:
                    v ^= b
            generated.add(tuple(int(x) for x in v))
        assert generated == kernel


def test_solve_consistent_and_inconsistent():
    rng = np.random.default_rng(2)
    for _ in range(60):
        m = random_matrix(rng, int(rng.integers(1, 5)), int(rng.integers(1, 6)))
        x = rng.integers(0, 2, size=m.cols, dtype=np.uint8)
        b = m.mul_vec(x)
        sol = gf2.solve(m, b)
        assert sol is not None
        assert np.array_equal(m.mul_vec(sol), b)
    # x1 = 0 and x1 = 1 simultaneously
    m = BitMatrix(np.array([[1], [1]], dtype=np.uint8))
    assert gf2.solve(m, np.array([0, 1], dtype=np.uint8)) is None


def test_enumerate_codewords_matches_brute_kernel():
    rng = np.random.default_rng(3)
    for _ in range(25):
        m = random_matrix(rng, int(rng.integers(1, 4)), int(rng.integers(1, 6)))
        words = gf2.enumerate_codewords(m)
        assert {tuple(int(v) for v in w) for w in words} == brute_kernel(m)


def test_min_distance_hand_cases():
    # SPC[3]: nonzero even-weight words, lightest has weight 2
    spc = BitMatrix(np.array([[1, 1, 1]], dtype=np.uint8))
    assert gf2.min_distance_exhaustive(spc) == 2
    # repetition [3,1]: only 000 and 111
    rep = BitMatrix(np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8))
    assert gf2.min_distance_exhaustive(rep) == 3
    # Hamming [7,4]
    ham = BitMatrix(np.array([
        [1, 0, 1, 0, 1, 0, 1],
        [0, 1, 1, 0, 0, 1, 1],
        [0, 0, 0, 1, 1, 1, 1]], dtype=np.uint8))
    assert gf2.min_distance_exhaustive(ham) == 3


def test_min_distance_matches_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(30):
        m = random_matrix(rng, int(rng.integers(1, 4)), int(rng.integers(2, 7)))
        kernel = brute_kernel(m)
        weights = [sum(w) for w in kernel if any(w)]
        if not weights:
            with pytest.raises(ValueError):
                gf2.min_distance_exhaustive(m)
        else:
            assert gf2.min_distance_exhaustive(m) == min(weights)


def reference_min_distance(m: BitMatrix) -> int:
    """Minimum distance by int64 matrix products: every message block of
    2^16 nonzero messages is multiplied by the generator rows, mod 2.  The
    packed-word enumerator under test must agree with it."""
    basis = gf2.nullspace_basis(m)
    k = len(basis)
    gen = np.array(basis, dtype=np.int64)
    best = m.cols + 1
    for start in range(1, 1 << k, 1 << 16):
        idx = np.arange(start, min(start + (1 << 16), 1 << k), dtype=np.uint64)[:, None]
        msgs = ((idx >> np.arange(k, dtype=np.uint64)[None, :]) & 1).astype(np.int64)
        best = min(best, int((msgs @ gen % 2).sum(axis=1).min()))
    return best


def systematic_matrix(rng, n, k):
    """A random parity-check matrix [I | A] of a code of length n and
    dimension exactly k."""
    r = n - k
    a = rng.integers(0, 2, size=(r, k), dtype=np.uint8)
    return BitMatrix(np.concatenate([np.eye(r, dtype=np.uint8), a], axis=1))


@pytest.mark.parametrize("n, k", [(80, 1), (200, 1), (65, 5), (128, 12), (129, 16),
                                  (70, 17), (90, 18), (40, 19), (66, 20)])
def test_min_distance_matches_matmul_reference(n, k):
    # several packed words (n > 64), one vector, and dimensions on both
    # sides of the 2^16 table
    m = systematic_matrix(np.random.default_rng(n * 100 + k), n, k)
    assert len(gf2.nullspace_basis(m)) == k
    want = reference_min_distance(m)
    assert gf2.min_distance_exhaustive(m) == want
    assert gf2.code_params(m).dmin == want


def test_min_weight_reaches_past_the_table():
    # 17 vectors on 100 coordinates: vector i < 16 is e_i plus its own block
    # of five coordinates, and vector 16 is e_16 plus vector 0's block.  The
    # lone weight-2 word, vectors 0 and 16 together, needs the Gray walk.
    n = 100
    basis = []
    for i in range(17):
        v = np.zeros(n, dtype=np.uint8)
        v[i] = 1
        block = 20 + 5 * (i % 16)
        v[block:block + 5] = 1
        basis.append(v)
    assert gf2._min_weight(basis, n, 24) == 2
    assert gf2._min_weight(basis[:16], n, 24) == 6


def test_min_distance_dimension_guard():
    m = BitMatrix(np.zeros((1, 26), dtype=np.uint8))  # kernel dimension 26 > 24
    with pytest.raises(DimensionTooLarge):
        gf2.min_distance_exhaustive(m)


def test_code_params_fields():
    p = gf2.code_params(BitMatrix(np.array([[1, 1, 1]], dtype=np.uint8)))
    assert (p.n, p.k, p.dmin) == (3, 2, 2)
    assert p.epsilon == Fraction(2, 3)
    assert not p.has_idle_components
    # rank-n matrix: zero code
    p = gf2.code_params(BitMatrix.identity(3))
    assert p.k == 0 and p.dmin is None and p.epsilon is None
    assert p.idle_components == (0, 1, 2)


def test_idle_component_detection():
    # second coordinate forced to zero, others free-ish
    m = BitMatrix(np.array([[0, 1, 0]], dtype=np.uint8))
    p = gf2.code_params(m)
    assert p.idle_components == (1,)


def test_alist_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = random_matrix(rng, int(rng.integers(1, 5)), int(rng.integers(1, 8)))
        if not m.bits.any():
            continue  # alist needs at least one edge
        again = gf2.parse_alist(gf2.to_alist(m))
        assert again == m


def test_alist_rejects_malformed():
    with pytest.raises(ValueError):
        gf2.parse_alist("3\n")
    with pytest.raises(ValueError):
        # column degree list inconsistent with declared max
        gf2.parse_alist("2 1\n9 1\n9 9\n1\n1 \n1\n1\n")


def to_dense_text(m: BitMatrix) -> str:
    """One line of 0/1 characters per matrix row."""
    return "\n".join("".join(str(int(b)) for b in row) for row in m.bits) + "\n"


def test_dense_text_round_trip():
    m = BitMatrix(np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8))
    assert gf2.parse_dense_text(to_dense_text(m)) == m


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 2**20), st.data())
def test_rank_invariant_under_row_shuffle(rows, cols, seed, data):
    rng = np.random.default_rng(seed)
    m = random_matrix(rng, rows, cols)
    perm = data.draw(st.permutations(range(rows)))
    shuffled = BitMatrix(m.bits[list(perm)])
    assert gf2.rank(m) == gf2.rank(shuffled)


def test_row_echelon_pivots_are_descending_staircase():
    rng = np.random.default_rng(6)
    for _ in range(20):
        m = random_matrix(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        ech, pivots = gf2.row_echelon(m)
        assert pivots == sorted(pivots)
        for r, c in enumerate(pivots):
            assert ech[r, c] == 1
            assert not ech[:r, c].any() and not ech[r + 1:, c].any()
