"""Exact rational linear programming.

The simplex is fraction-free (Edmonds, J. Res. NBS 1967; Bareiss, Math.
Comp. 1968): the tableau holds Python integers over one common denominator
D = |det B| of the current basis B.  Each row is scaled to integers once,
when the tableau is built; after that a pivot is integer multiplication and
one division by the previous D per entry, which Sylvester's identity makes
exact.  Every division is checked, and a remainder raises SolverFailure.
The tableau is condensed, as the integer dictionary of Avis's lrs (2000):
it stores only the nonbasic columns, because each basic column is D in its
own row and 0 elsewhere.  At a pivot the leaving variable takes the
entering variable's slot, and its new column there needs no division.
Every pivot decision compares the same rationals that a tableau of the
unscaled rows over Fraction would, so results are exact and deterministic
(Bland's rule, no cycling).  Variables are implicitly nonnegative; rows may
be <=, >= or ==.  LinearProgram entries are int or Fraction: an int is an
exact rational already, and every other number is converted to a Fraction.
maximize_each solves a sequence of objectives over one region, each from
the previous optimal basis, and reads each optimum's value off the integer
right-hand sides; lp_solve is its one-objective case.  Vertices are not
enumerated here: polytope reads them off its double-description routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import SolverFailure

F0 = Fraction(0)
F1 = Fraction(1)

_SENSES = ("<=", ">=", "==")


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)  # floats: exact binary expansion


def _exact(x) -> int | Fraction:
    """x as an exact rational: an int as it is, anything else a Fraction."""
    return x if isinstance(x, int) else _frac(x)


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective . x  subject to rows, x >= 0 componentwise.

    rows are (coefficients, sense, rhs) triples with sense in {"<=", ">=", "=="}.
    """

    n_vars: int
    objective: tuple[int | Fraction, ...]
    rows: tuple[tuple[tuple[int | Fraction, ...], str, int | Fraction], ...]


def lp(n_vars: int, objective, rows) -> LinearProgram:
    """Validating constructor: ints are kept, other numbers become Fractions."""
    if n_vars < 1:
        raise ValueError("LP needs at least one variable")
    obj = tuple(_exact(v) for v in objective)
    if len(obj) != n_vars:
        raise ValueError("objective length mismatch")
    out = []
    for coeffs, sense, rhs in rows:
        cs = tuple(_exact(v) for v in coeffs)
        if len(cs) != n_vars:
            raise ValueError("row length mismatch")
        if sense not in _SENSES:
            raise ValueError(f"bad sense {sense!r}")
        out.append((cs, sense, _exact(rhs)))
    return LinearProgram(n_vars=n_vars, objective=obj, rows=tuple(out))


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None
    x: tuple[Fraction, ...] | None


def _scaled(values) -> tuple[list[int], int]:
    """Rationals times the lcm L of their denominators: (integers, L)."""
    fs = [_exact(v) for v in values]
    scale = math.lcm(*(v.denominator for v in fs))
    return [v.numerator * (scale // v.denominator) for v in fs], scale


def _eliminate(row: list[int], rowr: list[int], k: int, p: int, d: int) -> list[int]:
    """(row*p - row[k]*rowr) / d with row[k] read as 0, every division
    checked for exactness.

    rowr is the pivot row as the pivot leaves it, so slot k of the result
    is the leaving variable's entry.  d divides each numerator exactly when
    it divides their gcd.
    """
    f = row[k]
    if f:
        num = [a * p - f * b for a, b in zip(row, rowr)]
        num[k] = -f * rowr[k]
    elif p == d:
        return row
    else:
        num = [a * p for a in row]
    if d == 1:
        return num
    if math.gcd(*num) % d:
        raise SolverFailure(f"inexact fraction-free division by {d}")
    return [v // d for v in num]


class _Tableau:
    """Condensed fraction-free simplex tableau with Bland's rule.

    Only nonbasic columns are stored, as in the integer dictionary of Avis's
    lrs (2000): T[i] holds row i's entries in the columns of the variables
    cols[0], cols[1], ... as Python integers, with its right-hand side last.
    Entry T[i][k] stands for the rational T[i][k] / D, where D = |det B| of
    the current basis B; the column of the variable basic in row r is
    implied, D in row r and 0 elsewhere.  A pivot on (r, j) moves the leaving
    variable into the slot of j: its column there is sgn * D in row r and
    -sgn * T[i][j] in row i, sgn being the sign of the pivot entry, and
    needs no division.  Every rule reads variable indices, never stored
    positions, so the slot order changes no decision.

    Built rows are first flipped to a nonnegative right-hand side, then
    scaled by the lcm L_i of their denominators; slack and artificial
    columns stay unit columns, so those variables stand for L_i times the
    unscaled ones.  Their values are never reported, and phase 1 weighs
    artificial i by 1/L_i so that it minimizes the unscaled infeasibility.
    These positive row and column scales keep the sign of every reduced cost
    and the order of every ratio of one column, so each pivot is the one a
    Fraction tableau of the unscaled rows would take.
    """

    def __init__(self, prob: LinearProgram):
        n = prob.n_vars
        norm_rows = []
        for coeffs, sense, rhs in prob.rows:
            vals = [*coeffs, rhs]
            if rhs < 0:
                vals = [-v for v in vals]
                sense = {"<=": ">=", ">=": "<=", "==": "=="}[sense]
            norm_rows.append((*_scaled(vals), sense))
        # variables: the n originals, one slack per inequality row, then one
        # artificial per >= or == row, each in row order
        slacks = [i for i, (_, _, s) in enumerate(norm_rows) if s != "=="]
        art_rows = [i for i, (_, _, s) in enumerate(norm_rows) if s != "<="]
        self.n_orig = n
        self.n_struct = n + len(slacks)  # columns that survive phase 1
        self.n_art = len(art_rows)
        # phase 1 weighs artificial i by -1/L_i; the integer costs are those
        # weights times the lcm of the L_i
        scale = math.lcm(*(norm_rows[i][1] for i in art_rows))
        self.art_cost = [-(scale // norm_rows[i][1]) for i in art_rows]
        slack = {i: n + k for k, i in enumerate(slacks)}
        art = {i: self.n_struct + k for k, i in enumerate(art_rows)}
        # a <= row starts on its slack, every other row on its artificial;
        # the originals and the surplus slacks of >= rows start nonbasic
        basis = [slack[i] if s == "<=" else art[i] for i, (_, _, s) in enumerate(norm_rows)]
        surplus = [i for i in slacks if norm_rows[i][2] == ">="]
        self.cols = list(range(n)) + [slack[i] for i in surplus]
        self.T = [vals[:-1] + [-int(i == s) for s in surplus] + vals[-1:]
                  for i, (vals, _, _) in enumerate(norm_rows)]
        self.D = 1
        self.basis = basis
        self.m = len(self.T)
        self.ncols = self.n_struct + self.n_art

    def pivot(self, r: int, j: int) -> None:
        """Pivot on row r and variable j: row r is kept (negated if its entry
        p at j is negative), every other row i becomes
        (T[i]*|p| - T[i][j]*T[r]) / D, slot j takes the leaving variable's
        column, and D becomes |p|."""
        T, d = self.T, self.D
        k = self.cols.index(j)
        rowr = T[r]
        p = rowr[k]
        if p == 0:
            raise SolverFailure("pivot on zero entry")
        if p < 0:
            rowr = T[r] = [-v for v in rowr]
            p = -p
            rowr[k] = -d
        else:
            rowr[k] = d
        for i in range(self.m):
            if i != r:
                T[i] = _eliminate(T[i], rowr, k, p, d)
        self.D = p
        self.cols[k] = self.basis[r]
        self.basis[r] = j

    def _reduced_costs(self, cost: list[int]) -> list[int]:
        """D times the reduced costs of integer costs, in the stored slots,
        objective slot last; a basic variable's reduced cost is 0."""
        obj = [self.D * cost[c] for c in self.cols] + [0]
        for r, c in enumerate(self.basis):
            f = cost[c]
            if f:
                obj = [a - f * b for a, b in zip(obj, self.T[r])]
        return obj

    def run_bland(self, cost: list[int]) -> str:
        """Maximize cost.x from the current feasible basis; returns status.

        The costs are integers, one per variable: rational costs scaled by a
        positive integer keep every sign of the reduced-cost row.  That row
        is pivoted along with the tableau.  The entering variable is the
        least one with a positive reduced cost.
        """
        obj = self._reduced_costs(cost)
        T, basis, cols = self.T, self.basis, self.cols
        while True:
            enter = min((c for c, v in zip(cols, obj) if v > 0), default=-1)
            if enter < 0:
                return "optimal"
            k = cols.index(enter)
            rows = [i for i in range(self.m) if T[i][k] > 0]
            if not rows:
                return "unbounded"
            # least ratio, ties to the least basic variable
            best_r = min(self._least_ratios(rows, -1, k), key=basis.__getitem__)
            d = self.D
            self.pivot(best_r, enter)
            obj = _eliminate(obj, T[best_r], k, self.D, d)

    def _least_ratios(self, rows: list[int], col: int, k: int) -> list[int]:
        """The rows i of `rows` with the least T[i][col] / T[i][k], in order.

        Needs T[i][k] > 0.  Both entries of a ratio carry the same D, so the
        ratios order as in a Fraction tableau; they are compared
        cross-multiplied.
        """
        T = self.T
        best = rows[:1]
        bn, bd = T[rows[0]][col], T[rows[0]][k]
        for i in rows[1:]:
            num, den = T[i][col], T[i][k]
            cmp = num * bd - bn * den
            if cmp < 0:
                best, bn, bd = [i], num, den
            elif cmp == 0:
                best.append(i)
        return best

    def solution(self) -> list[Fraction]:
        x = [F0] * self.n_orig
        for r, c in enumerate(self.basis):
            if c < self.n_orig:
                x[c] = Fraction(self.T[r][-1], self.D)
        return x

    def value(self, cost: list[int], scale: int) -> Fraction:
        """The objective (cost / scale).x at the current basis, from the
        integer right-hand sides: one division, by D * scale."""
        n = len(cost)
        return Fraction(sum(cost[c] * self.T[r][-1] for r, c in enumerate(self.basis) if c < n),
                        self.D * scale)

    def phase1(self) -> bool:
        """Drive artificials to zero; True when feasible.  On success the
        artificial columns are stripped and redundant rows dropped.

        A nonbasic artificial keeps its stored column until then, because
        Bland's rule may enter it again.
        """
        if self.n_art:
            n_struct = self.n_struct
            self.run_bland([0] * n_struct + self.art_cost)  # bounded below by construction
            for r, c in enumerate(self.basis):
                if c >= n_struct and self.T[r][-1] != 0:
                    return False
            # pivot zero-level artificials out on the least structural
            # variable with a nonzero entry; drop the rows that have none
            drop = []
            for r in range(self.m):
                if self.basis[r] >= n_struct:
                    j = min((c for c, v in zip(self.cols, self.T[r]) if c < n_struct and v),
                            default=-1)
                    if j >= 0:
                        self.pivot(r, j)
                    else:
                        drop.append(r)
            for r in reversed(drop):
                del self.T[r], self.basis[r]
            self.m = len(self.T)
            keep = [k for k, c in enumerate(self.cols) if c < n_struct]
            self.T = [[row[k] for k in keep] + row[-1:] for row in self.T]
            self.cols = [self.cols[k] for k in keep]
            self.ncols = n_struct
            self.n_art = 0
        return True


def maximize_each(prob: LinearProgram, objectives):
    """Maximize each objective in turn over the region of `prob`, exactly.

    A generator: one LpResult per objective, solved when it is requested.
    The objective field of `prob` is ignored.  Phase 1 runs once; each
    Bland phase 2 starts from the basis the previous one ended on, which is
    feasible also after an unbounded objective.
    """
    tb = _Tableau(prob)
    feasible = tb.phase1()
    for objective in objectives:
        cost, scale = _scaled(objective)
        if len(cost) != prob.n_vars:
            raise ValueError("objective length mismatch")
        if not feasible:
            yield LpResult(status="infeasible", value=None, x=None)
        elif tb.run_bland(cost + [0] * (tb.ncols - prob.n_vars)) == "unbounded":
            yield LpResult(status="unbounded", value=None, x=None)
        else:
            yield LpResult(status="optimal", value=tb.value(cost, scale), x=tuple(tb.solution()))


def lp_solve(prob: LinearProgram) -> LpResult:
    """Exact two-phase simplex with Bland's rule (deterministic, terminating)."""
    return next(maximize_each(prob, [prob.objective]))
