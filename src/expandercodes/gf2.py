"""Dense GF(2) linear algebra: rank, nullspaces, exhaustive code parameters.

Matrices are stored as dense uint8 arrays with entries in {0, 1}; all
arithmetic is mod 2.  Everything here is exact.  The exhaustive operations
(minimum distance, full codeword enumeration) carry explicit dimension guards
and refuse rather than run forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionTooLarge, LengthMismatch

# Enumerating 2^k codewords stays comfortably in memory/time up to this k.
MAX_ENUM_DIM = 24


class BitMatrix:
    """A binary matrix over GF(2).

    Args:
        bits: anything array-like of shape (rows, cols); entries are reduced
            mod 2.  Both dimensions must be at least 1.
    """

    __slots__ = ("bits", "rows", "cols")

    def __init__(self, bits):
        arr = np.ascontiguousarray(np.asarray(bits, dtype=np.uint8) & 1)
        if arr.ndim != 2:
            raise ValueError("BitMatrix needs a 2-d array")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("BitMatrix dimensions must be positive")
        self.bits = arr
        self.rows, self.cols = arr.shape

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(np.eye(n, dtype=np.uint8))

    def mul_vec(self, x) -> np.ndarray:
        v = np.asarray(x, dtype=np.uint8) & 1
        if v.shape != (self.cols,):
            raise LengthMismatch(f"vector length {v.shape} != cols {self.cols}")
        return (self.bits.astype(np.int64) @ v.astype(np.int64)) % 2

    def __eq__(self, other):
        return isinstance(other, BitMatrix) and np.array_equal(self.bits, other.bits)

    def __hash__(self):
        return hash((self.rows, self.cols, self.bits.tobytes()))

    def __repr__(self):
        return f"BitMatrix({self.rows}x{self.cols})"


def row_echelon(m: BitMatrix) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot column list."""
    a = m.bits.copy()
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hit = np.nonzero(a[r:, c])[0]
        if hit.size == 0:
            continue
        p = r + hit[0]
        if p != r:
            a[[r, p]] = a[[p, r]]
        # clear the column everywhere else
        other = np.nonzero(a[:, c])[0]
        other = other[other != r]
        a[other] ^= a[r]
        pivots.append(c)
        r += 1
    return a, pivots


def rank(m: BitMatrix) -> int:
    return len(row_echelon(m)[1])


def nullspace_basis(m: BitMatrix) -> list[np.ndarray]:
    """Basis of the right nullspace {x : m x = 0 over GF(2)}.

    Returns one uint8 vector per free column; empty list when the map is
    injective.
    """
    a, pivots = row_echelon(m)
    cols = m.cols
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = np.zeros(cols, dtype=np.uint8)
        v[f] = 1
        for r, p in enumerate(pivots):
            if a[r, f]:
                v[p] = 1
        basis.append(v)
    return basis


def solve(m: BitMatrix, b) -> np.ndarray | None:
    """One solution of m x = b over GF(2), or None when inconsistent."""
    rhs = np.asarray(b, dtype=np.uint8) & 1
    if rhs.shape != (m.rows,):
        raise LengthMismatch("right-hand side length mismatch")
    aug = BitMatrix(np.concatenate([m.bits, rhs[:, None]], axis=1))
    a, pivots = row_echelon(aug)
    if m.cols in pivots:
        return None
    x = np.zeros(m.cols, dtype=np.uint8)
    for r, p in enumerate(pivots):
        x[p] = a[r, m.cols]
    return x


def _combinations(gen: np.ndarray) -> np.ndarray:
    """Every XOR combination of the rows of gen: row j of the result is the
    sum of the rows at the set bits of j, built by doubling."""
    table = np.zeros((1 << len(gen), gen.shape[1]), dtype=gen.dtype)
    for i, row in enumerate(gen):
        table[1 << i: 2 << i] = table[: 1 << i] ^ row
    return table


def enumerate_codewords(m: BitMatrix, max_dim: int = MAX_ENUM_DIM) -> np.ndarray:
    """All 2^k codewords of the code {x : m x = 0}, as a (2^k, n) array.

    Row order follows binary counting over the nullspace basis, so the
    all-zero word comes first.  Guarded by max_dim on k.
    """
    basis = nullspace_basis(m)
    k = len(basis)
    if k > max_dim:
        raise DimensionTooLarge(f"codeword enumeration needs 2^{k} words, guard is 2^{max_dim}")
    if k == 0:
        return np.zeros((1, m.cols), dtype=np.uint8)
    return _combinations(np.array(basis, dtype=np.uint8))


# Combinations of the first basis vectors are tabulated once; the rest are
# walked in Gray-code order, one XOR of the whole table per step.
_TABLE_DIM = 16
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _least_weight(words: np.ndarray) -> int:
    """Least weight over the rows of a packed uint64 word array, read byte
    by byte from a 256-entry popcount table."""
    return int(_POPCOUNT[words.view(np.uint8)].sum(axis=1).min())


def _min_weight(basis: list[np.ndarray], n: int, max_dim: int) -> int:
    """Least Hamming weight of a nonzero combination of the independent
    length-n GF(2) vectors in `basis`, each packed into ceil(n/64) uint64
    words.  DimensionTooLarge past max_dim vectors, ValueError on none.
    """
    k = len(basis)
    if k > max_dim:
        raise DimensionTooLarge(f"minimum distance needs 2^{k} words, guard is 2^{max_dim}")
    if k == 0:
        raise ValueError("zero-dimensional code has no nonzero codewords")
    bits = np.zeros((k, -(-n // 64) * 64), dtype=np.uint8)
    bits[:, :n] = basis
    gen = np.packbits(bits, axis=1).view(np.uint64)
    low = min(k, _TABLE_DIM)
    table = _combinations(gen[:low])
    best = _least_weight(table[1:])
    # every later combination has a high vector in it, so none is zero
    word = np.zeros(gen.shape[1], dtype=np.uint64)
    for step in range(1, 1 << (k - low)):
        word ^= gen[low + (step & -step).bit_length() - 1]
        best = min(best, _least_weight(table ^ word))
    return best


def min_distance_exhaustive(m: BitMatrix, max_dim: int = MAX_ENUM_DIM) -> int:
    """Minimum Hamming weight over all nonzero codewords of {x : m x = 0}.

    Args:
        m: parity-check matrix.
        max_dim: guard on the code dimension k.

    Raises:
        DimensionTooLarge: k exceeds the guard.
        ValueError: the code has no nonzero codeword (k = 0).
    """
    return _min_weight(nullspace_basis(m), m.cols, max_dim)


@dataclass(frozen=True)
class CodeParams:
    """Block length, dimension, exact minimum distance, relative distance.

    dmin and epsilon are None for the zero-dimensional code.  idle_components
    lists coordinates that are zero in every codeword.
    """

    n: int
    k: int
    dmin: int | None
    epsilon: Fraction | None
    idle_components: tuple[int, ...] = ()

    @property
    def has_idle_components(self) -> bool:
        return len(self.idle_components) > 0


def code_params(m: BitMatrix, max_dim: int = MAX_ENUM_DIM) -> CodeParams:
    """Exact parameters of the code with parity-check matrix m."""
    basis = nullspace_basis(m)
    k = len(basis)
    n = m.cols
    if k == 0:
        return CodeParams(n=n, k=0, dmin=None, epsilon=None,
                          idle_components=tuple(range(n)))
    # a coordinate is idle iff every basis vector is zero there
    stack = np.array(basis, dtype=np.uint8)
    idle = tuple(int(j) for j in np.nonzero(stack.sum(axis=0) == 0)[0])
    dmin = _min_weight(basis, n, max_dim)
    return CodeParams(n=n, k=k, dmin=dmin, epsilon=Fraction(dmin, n),
                      idle_components=idle)


# -- text formats ---------------------------------------------------------------

def to_alist(m: BitMatrix) -> str:
    """Serialize in alist format: header "n m", degree lists, 1-based indices."""
    h = m.bits
    n, rows = m.cols, m.rows
    col_deg = h.sum(axis=0)
    row_deg = h.sum(axis=1)
    max_col = max(int(col_deg.max(initial=0)), 1)
    max_row = max(int(row_deg.max(initial=0)), 1)
    lines = [f"{n} {rows}",
             f"{max_col} {max_row}",
             " ".join(str(int(d)) for d in col_deg),
             " ".join(str(int(d)) for d in row_deg)]
    # ragged lists are zero-padded to the max degree so no line is ever blank
    for j in range(n):
        idx = [str(int(i) + 1) for i in np.nonzero(h[:, j])[0]]
        lines.append(" ".join(idx + ["0"] * (max_col - len(idx))))
    for i in range(rows):
        idx = [str(int(j) + 1) for j in np.nonzero(h[i, :])[0]]
        lines.append(" ".join(idx + ["0"] * (max_row - len(idx))))
    return "\n".join(lines) + "\n"


def parse_alist(text: str) -> BitMatrix:
    """Parse alist text (zero-padded index lists are tolerated)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 4:
        raise ValueError("alist: too few lines")
    n, rows = (int(t) for t in lines[0].split())
    if n < 1 or rows < 1:
        raise ValueError("alist: bad dimensions")
    if len(lines) < 4 + n:
        raise ValueError("alist: missing column index lines")
    col_deg = [int(t) for t in lines[2].split()]
    row_deg = [int(t) for t in lines[3].split()]
    if len(col_deg) != n or len(row_deg) != rows:
        raise ValueError("alist: degree list lengths disagree with header")
    h = np.zeros((rows, n), dtype=np.uint8)
    for j in range(n):
        idx = [int(t) for t in lines[4 + j].split() if int(t) != 0]
        if len(idx) != col_deg[j]:
            raise ValueError(f"alist: column {j} degree mismatch")
        for i in idx:
            if not (1 <= i <= rows):
                raise ValueError(f"alist: row index {i} out of range")
            h[i - 1, j] = 1
    # row lists, when present, must agree
    if len(lines) >= 4 + n + rows:
        for i in range(rows):
            idx = sorted(int(t) for t in lines[4 + n + i].split() if int(t) != 0)
            if idx != [int(j) + 1 for j in np.nonzero(h[i, :])[0]]:
                raise ValueError(f"alist: row {i} disagrees with column lists")
    if not all(int(d) == row_deg[i] for i, d in enumerate(h.sum(axis=1))):
        raise ValueError("alist: row degrees disagree with matrix")
    return BitMatrix(h)


def parse_dense_text(text: str) -> BitMatrix:
    rows = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        if any(ch not in "01" for ch in ln):
            raise ValueError(f"dense matrix: bad character in line {ln!r}")
        rows.append([int(ch) for ch in ln])
    if not rows:
        raise ValueError("dense matrix: empty input")
    if len({len(r) for r in rows}) != 1:
        raise ValueError("dense matrix: ragged rows")
    return BitMatrix(np.array(rows, dtype=np.uint8))
