"""Exact rational linear programming and vertex enumeration.

The simplex code works entirely in fractions.Fraction: results are exact and
deterministic (Bland's rule, no cycling).  Variables are implicitly
nonnegative; rows may be <=, >= or ==.  maximize_each solves a sequence of
objectives over one region, each from the previous optimal basis; lp_solve
is its one-objective case.

enumerate_vertices walks the basis graph of a bounded polyhedron under a
lexicographic perturbation, which makes every pivot unique and covers every
vertex even on degenerate polytopes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InfeasibleRegion, SearchSpaceTooLarge, SolverFailure

F0 = Fraction(0)
F1 = Fraction(1)

_SENSES = ("<=", ">=", "==")


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        return Fraction(x)  # exact binary expansion
    return Fraction(x)


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


class _Tableau:
    """Dense simplex tableau over Fraction with Bland and lexicographic rules."""

    def __init__(self, prob: LinearProgram):
        n = prob.n_vars
        norm_rows = []
        for coeffs, sense, rhs in prob.rows:
            c, r = list(coeffs), rhs
            if r < 0:
                c = [-v for v in c]
                r = -r
                sense = {"<=": ">=", ">=": "<=", "==": "=="}[sense]
            norm_rows.append((c, sense, r))
        nslack = sum(1 for (_, s, _) in norm_rows if s != "==")
        self.n_orig = n
        self.n_struct = n + nslack  # columns that survive phase 1
        art_rows = []
        T, rhs_col, basis = [], [], []
        si = 0
        for i, (c, sense, r) in enumerate(norm_rows):
            row = c + [F0] * nslack
            if sense == "<=":
                row[n + si] = F1
                basis.append(n + si)
                si += 1
            elif sense == ">=":
                row[n + si] = -F1
                basis.append(None)
                art_rows.append(i)
                si += 1
            else:
                basis.append(None)
                art_rows.append(i)
            T.append(row)
            rhs_col.append(r)
        # artificial columns appended after structural ones
        self.n_art = len(art_rows)
        for k, i in enumerate(art_rows):
            for r_i, row in enumerate(T):
                row.append(F1 if r_i == i else F0)
            basis[i] = self.n_struct + k
        self.T = T
        self.rhs = rhs_col
        self.basis = basis
        self.m = len(T)
        self.ncols = self.n_struct + self.n_art

    def pivot(self, r: int, j: int) -> None:
        T, rhs = self.T, self.rhs
        piv = T[r][j]
        if piv == 0:
            raise SolverFailure("pivot on zero entry")
        inv = F1 / piv
        T[r] = [v * inv for v in T[r]]
        rhs[r] *= inv
        rowr = T[r]
        for i in range(self.m):
            if i == r:
                continue
            f = T[i][j]
            if f:
                rowi = T[i]
                T[i] = [a - f * b for a, b in zip(rowi, rowr)]
                rhs[i] -= f * rhs[r]
        self.basis[r] = j

    def _reduced_costs(self, cost: list[Fraction]) -> list[Fraction]:
        obj = cost[:]
        for r, c in enumerate(self.basis):
            f = obj[c]
            if f:
                rowr = self.T[r]
                obj = [a - f * b for a, b in zip(obj, rowr)]
        return obj

    def run_bland(self, cost: list[Fraction]) -> str:
        """Maximize cost.x from the current feasible basis; returns status."""
        obj = self._reduced_costs(cost)
        while True:
            enter = -1
            for j in range(self.ncols):
                if obj[j] > 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            best_r, best_ratio = -1, None
            for i in range(self.m):
                a = self.T[i][enter]
                if a > 0:
                    ratio = self.rhs[i] / a
                    if (best_ratio is None or ratio < best_ratio
                            or (ratio == best_ratio and self.basis[i] < self.basis[best_r])):
                        best_r, best_ratio = i, ratio
            if best_r < 0:
                return "unbounded"
            f = obj[enter]
            rowp = self.T[best_r]
            piv = rowp[enter]
            self.pivot(best_r, enter)
            rowr = self.T[best_r]
            obj = [a - f * b for a, b in zip(obj, rowr)]

    def solution(self) -> list[Fraction]:
        x = [F0] * self.ncols
        for r, c in enumerate(self.basis):
            x[c] = self.rhs[r]
        return x[: self.n_orig]

    def phase1(self) -> bool:
        """Drive artificials to zero; True when feasible.  On success the
        artificial columns are stripped and redundant rows dropped."""
        if self.n_art:
            cost = [F0] * self.ncols
            for j in range(self.n_struct, self.ncols):
                cost[j] = -F1
            self.run_bland(cost)  # bounded below by construction
            for r, c in enumerate(self.basis):
                if c >= self.n_struct and self.rhs[r] != 0:
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
                del self.T[r], self.rhs[r], self.basis[r]
            self.m = len(self.T)
        self.T = [row[: self.n_struct] for row in self.T]
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
    m, ncols = tb.m, tb.ncols
    lex_cols = list(tb.basis)  # identity block at walk start: a valid perturbation

    def lex_leaving(j: int) -> int:
        rows = [i for i in range(m) if tb.T[i][j] > 0]
        if not rows:
            raise SolverFailure("unbounded region in vertex enumeration")
        keys = {i: tb.rhs[i] / tb.T[i][j] for i in rows}
        for col in lex_cols:
            best = min(keys.values())
            rows = [i for i in rows if keys[i] == best]
            if len(rows) == 1:
                return rows[0]
            keys = {i: tb.T[i][col] / tb.T[i][j] for i in rows}
        best = min(keys.values())
        rows = [i for i in rows if keys[i] == best]
        return rows[0]

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
            r = lex_leaving(j)
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
