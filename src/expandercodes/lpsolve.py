"""Exact rational linear programming and vertex enumeration.

The simplex is fraction-free (Edmonds, J. Res. NBS 1967; Bareiss, Math.
Comp. 1968): the tableau holds Python integers over one common denominator
D = |det B| of the current basis B.  Each row is scaled to integers once,
when the tableau is built; after that a pivot is integer multiplication and
one division by the previous D per entry, which Sylvester's identity makes
exact.  Every division is checked, and a remainder raises SolverFailure.
Every pivot decision compares the same rationals that a tableau of the
unscaled rows over Fraction would, so results are exact and deterministic
(Bland's rule, no cycling).  Variables are implicitly nonnegative; rows may
be <=, >= or ==.  maximize_each solves a sequence of objectives over one
region, each from the previous optimal basis; lp_solve is its one-objective
case.

enumerate_vertices walks the basis graph of a bounded polyhedron under a
lexicographic perturbation, which makes every pivot unique and covers every
vertex even on degenerate polytopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InfeasibleRegion, SearchSpaceTooLarge, SolverFailure

F0 = Fraction(0)
F1 = Fraction(1)

_SENSES = ("<=", ">=", "==")


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)  # floats: exact binary expansion


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective . x  subject to rows, x >= 0 componentwise.

    rows are (coefficients, sense, rhs) triples with sense in {"<=", ">=", "=="}.
    """

    n_vars: int
    objective: tuple[Fraction, ...]
    rows: tuple[tuple[tuple[Fraction, ...], str, Fraction], ...]


def lp(n_vars: int, objective, rows) -> LinearProgram:
    """Validating constructor with Fraction coercion."""
    if n_vars < 1:
        raise ValueError("LP needs at least one variable")
    obj = tuple(_frac(v) for v in objective)
    if len(obj) != n_vars:
        raise ValueError("objective length mismatch")
    out = []
    for coeffs, sense, rhs in rows:
        cs = tuple(_frac(v) for v in coeffs)
        if len(cs) != n_vars:
            raise ValueError("row length mismatch")
        if sense not in _SENSES:
            raise ValueError(f"bad sense {sense!r}")
        out.append((cs, sense, _frac(rhs)))
    return LinearProgram(n_vars=n_vars, objective=obj, rows=tuple(out))


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None
    x: tuple[Fraction, ...] | None


def _scaled(values) -> tuple[list[int], int]:
    """Rationals times the lcm L of their denominators: (integers, L)."""
    fs = [_frac(v) for v in values]
    scale = math.lcm(*(v.denominator for v in fs))
    return [v.numerator * (scale // v.denominator) for v in fs], scale


def _eliminate(row: list[int], rowr: list[int], j: int, p: int, d: int) -> list[int]:
    """(row*p - row[j]*rowr) / d, every division checked for exactness.

    d divides each numerator exactly when it divides their gcd.
    """
    f = row[j]
    if f:
        num = [a * p - f * b for a, b in zip(row, rowr)]
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
    """Dense fraction-free simplex tableau with Bland and lexicographic rules.

    T[i] is row i as Python integers with its right-hand side last; entry
    T[i][k] stands for the rational T[i][k] / D, where D = |det B| of the
    current basis B, so a basic column holds D in its row and 0 elsewhere.
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
        nslack = sum(1 for (_, _, s) in norm_rows if s != "==")
        self.n_orig = n
        self.n_struct = n + nslack  # columns that survive phase 1
        art_rows = []
        T, basis = [], []
        si = 0
        for i, (vals, _, sense) in enumerate(norm_rows):
            row = vals[:-1] + [0] * nslack
            if sense == "<=":
                row[n + si] = 1
                basis.append(n + si)
                si += 1
            elif sense == ">=":
                row[n + si] = -1
                basis.append(None)
                art_rows.append(i)
                si += 1
            else:
                basis.append(None)
                art_rows.append(i)
            T.append(row)
        # artificial columns appended after structural ones, then the rhs
        self.n_art = len(art_rows)
        self.art_cost = [Fraction(-1, norm_rows[i][1]) for i in art_rows]
        for k, i in enumerate(art_rows):
            for r_i, row in enumerate(T):
                row.append(1 if r_i == i else 0)
            basis[i] = self.n_struct + k
        for row, (vals, _, _) in zip(T, norm_rows):
            row.append(vals[-1])
        self.T = T
        self.D = 1
        self.basis = basis
        self.m = len(T)
        self.ncols = self.n_struct + self.n_art

    def pivot(self, r: int, j: int) -> None:
        """Pivot on (r, j): row r is kept (negated if T[r][j] < 0), every
        other row i becomes (T[i]*p - T[i][j]*T[r]) / D, and D becomes |p|."""
        T, d = self.T, self.D
        rowr = T[r]
        p = rowr[j]
        if p == 0:
            raise SolverFailure("pivot on zero entry")
        if p < 0:
            rowr = T[r] = [-v for v in rowr]
            p = -p
        for i in range(self.m):
            if i != r:
                T[i] = _eliminate(T[i], rowr, j, p, d)
        self.D = p
        self.basis[r] = j

    def _reduced_costs(self, cost: list[int]) -> list[int]:
        """D times the reduced costs of integer costs, objective slot last."""
        obj = [self.D * c for c in cost] + [0]
        for r, c in enumerate(self.basis):
            f = cost[c]
            if f:
                obj = [a - f * b for a, b in zip(obj, self.T[r])]
        return obj

    def run_bland(self, cost) -> str:
        """Maximize cost.x from the current feasible basis; returns status.

        The rational costs are scaled to integers, which keeps every sign of
        the reduced-cost row; that row is pivoted along with the tableau.
        """
        obj = self._reduced_costs(_scaled(cost)[0])
        T, basis = self.T, self.basis
        while True:
            enter = next((j for j in range(self.ncols) if obj[j] > 0), -1)
            if enter < 0:
                return "optimal"
            rows = [i for i in range(self.m) if T[i][enter] > 0]
            if not rows:
                return "unbounded"
            # least ratio, ties to the least basic column
            best_r = min(self._least_ratios(rows, -1, enter), key=basis.__getitem__)
            d = self.D
            self.pivot(best_r, enter)
            obj = _eliminate(obj, T[best_r], enter, self.D, d)

    def _least_ratios(self, rows: list[int], col: int, j: int) -> list[int]:
        """The rows i of `rows` with the least T[i][col] / T[i][j], in order.

        Needs T[i][j] > 0.  Both entries of a ratio carry the same D, so the
        ratios order as in a Fraction tableau; they are compared
        cross-multiplied.
        """
        T = self.T
        best = rows[:1]
        bn, bd = T[rows[0]][col], T[rows[0]][j]
        for i in rows[1:]:
            num, den = T[i][col], T[i][j]
            cmp = num * bd - bn * den
            if cmp < 0:
                best, bn, bd = [i], num, den
            elif cmp == 0:
                best.append(i)
        return best

    def lex_leaving(self, j: int, lex_cols: list[int]) -> int:
        """Leaving row for entering column j under the lexicographic rule:
        least rhs ratio, ties broken by the ratios of lex_cols in turn, then
        by row order."""
        rows = [i for i in range(self.m) if self.T[i][j] > 0]
        if not rows:
            raise SolverFailure("unbounded region in vertex enumeration")
        for col in (-1, *lex_cols):
            if len(rows) == 1:
                break
            rows = self._least_ratios(rows, col, j)
        return rows[0]

    def solution(self) -> list[Fraction]:
        x = [F0] * self.n_orig
        for r, c in enumerate(self.basis):
            if c < self.n_orig:
                x[c] = Fraction(self.T[r][-1], self.D)
        return x

    def phase1(self) -> bool:
        """Drive artificials to zero; True when feasible.  On success the
        artificial columns are stripped and redundant rows dropped."""
        if self.n_art:
            self.run_bland([F0] * self.n_struct + self.art_cost)  # bounded below by construction
            for r, c in enumerate(self.basis):
                if c >= self.n_struct and self.T[r][-1] != 0:
                    return False
            # pivot zero-level artificials out, drop redundant rows
            drop = []
            for r in range(self.m):
                if self.basis[r] >= self.n_struct:
                    j = next((jj for jj in range(self.n_struct) if self.T[r][jj] != 0), -1)
                    if j >= 0:
                        self.pivot(r, j)
                    else:
                        drop.append(r)
            for r in reversed(drop):
                del self.T[r], self.basis[r]
            self.m = len(self.T)
        self.T = [row[: self.n_struct] + row[-1:] for row in self.T]
        self.ncols = self.n_struct
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
        cost = [_frac(v) for v in objective]
        if len(cost) != prob.n_vars:
            raise ValueError("objective length mismatch")
        if not feasible:
            yield LpResult(status="infeasible", value=None, x=None)
        elif tb.run_bland(cost + [F0] * (tb.ncols - prob.n_vars)) == "unbounded":
            yield LpResult(status="unbounded", value=None, x=None)
        else:
            x = tb.solution()
            value = sum(c * v for c, v in zip(cost, x))
            yield LpResult(status="optimal", value=value, x=tuple(x))


def lp_solve(prob: LinearProgram) -> LpResult:
    """Exact two-phase simplex with Bland's rule (deterministic, terminating)."""
    return next(maximize_each(prob, [prob.objective]))


def enumerate_vertices(prob: LinearProgram, budget: int = 200_000) -> list[tuple[Fraction, ...]]:
    """All vertices of the bounded region {x >= 0, rows}, exactly.

    Walks the basis graph under a lexicographic perturbation (every original
    vertex keeps at least one lex-feasible basis, and the perturbed polytope
    is simple, so the walk is exhaustive).  The objective field is ignored.

    Raises SolverFailure when the region is unbounded, SearchSpaceTooLarge
    when the basis count exceeds the budget, and InfeasibleRegion when the
    region is empty.
    """
    tb = _Tableau(prob)
    if not tb.phase1():
        raise InfeasibleRegion("empty feasible region")
    ncols = tb.ncols
    lex_cols = list(tb.basis)  # identity block at walk start: a valid perturbation

    seen = {frozenset(tb.basis)}
    points: dict[tuple[Fraction, ...], None] = {}
    points[tuple(tb.solution())] = None
    stack = [iter(range(ncols))]
    trail: list[tuple[int, int]] = []
    while stack:
        it = stack[-1]
        moved = False
        for j in it:
            if j in tb.basis:
                continue
            r = tb.lex_leaving(j, lex_cols)
            out = tb.basis[r]
            key = frozenset(b if i != r else j for i, b in enumerate(tb.basis))
            if key in seen:
                continue
            seen.add(key)
            if len(seen) > budget:
                raise SearchSpaceTooLarge(f"vertex enumeration exceeded {budget} bases")
            tb.pivot(r, j)
            trail.append((r, out))
            points[tuple(tb.solution())] = None
            stack.append(iter(range(ncols)))
            moved = True
            break
        if not moved:
            stack.pop()
            if trail and stack:
                r, out = trail.pop()
                tb.pivot(r, out)
    return sorted(points.keys())
