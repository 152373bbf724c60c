import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expandercodes import lpsolve
from expandercodes.errors import SearchSpaceTooLarge, SolverFailure
from expandercodes.lpsolve import _Tableau, lp, lp_solve, maximize_each

F = Fraction
F0 = F(0)
F1 = F(1)


class FractionTableau:
    """Dense simplex tableau over Fraction: the reference for _Tableau.

    The same rules on the unscaled rows, with every entry a Fraction; the
    fraction-free tableau must take the same pivots and reach the same
    points.
    """

    def __init__(self, prob):
        n = prob.n_vars
        norm_rows = []
        for coeffs, sense, rhs in prob.rows:
            # lp() keeps ints; int / int would divide to a float
            c, r = [F(v) for v in coeffs], F(rhs)
            if r < 0:
                c = [-v for v in c]
                r = -r
                sense = {"<=": ">=", ">=": "<=", "==": "=="}[sense]
            norm_rows.append((c, sense, r))
        nslack = sum(1 for (_, s, _) in norm_rows if s != "==")
        self.n_orig = n
        self.n_struct = n + nslack
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

    def pivot(self, r, j):
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

    def _reduced_costs(self, cost):
        obj = cost[:]
        for r, c in enumerate(self.basis):
            f = obj[c]
            if f:
                obj = [a - f * b for a, b in zip(obj, self.T[r])]
        return obj

    def run_bland(self, cost):
        obj = self._reduced_costs(cost)
        while True:
            enter = next((j for j in range(self.ncols) if obj[j] > 0), -1)
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
            self.pivot(best_r, enter)
            obj = [a - f * b for a, b in zip(obj, self.T[best_r])]

    def lex_leaving(self, j, lex_cols):
        rows = [i for i in range(self.m) if self.T[i][j] > 0]
        if not rows:
            raise SolverFailure("unbounded region in vertex enumeration")
        keys = {i: self.rhs[i] / self.T[i][j] for i in rows}
        for col in lex_cols:
            best = min(keys.values())
            rows = [i for i in rows if keys[i] == best]
            if len(rows) == 1:
                return rows[0]
            keys = {i: self.T[i][col] / self.T[i][j] for i in rows}
        best = min(keys.values())
        rows = [i for i in rows if keys[i] == best]
        return rows[0]

    def solution(self):
        x = [F0] * self.ncols
        for r, c in enumerate(self.basis):
            x[c] = self.rhs[r]
        return x[: self.n_orig]

    def value(self, cost, scale):
        """The objective (cost / scale).x, as a sum of Fraction products over
        the solution."""
        return sum(F(c, scale) * v for c, v in zip(cost, self.solution()))

    def phase1(self):
        if self.n_art:
            cost = [F0] * self.ncols
            for j in range(self.n_struct, self.ncols):
                cost[j] = -F1
            self.run_bland(cost)
            for r, c in enumerate(self.basis):
                if c >= self.n_struct and self.rhs[r] != 0:
                    return False
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


class InfeasibleRegion(Exception):
    """The region handed to enumerate_vertices is empty."""


class WalkTableau(_Tableau):
    """The integer tableau with the lexicographic ratio test of the walk."""

    def lex_leaving(self, j: int, lex_cols: list[int]) -> int:
        """Leaving row for entering variable j under the lexicographic rule:
        least rhs ratio, ties broken by the ratios of the lex_cols variables
        in turn, then by row order.

        The implied column of a variable basic in row b has ratio 0 in every
        row but b, so it breaks a tie by dropping row b.
        """
        cols = self.cols
        k = cols.index(j)
        rows = [i for i in range(self.m) if self.T[i][k] > 0]
        if not rows:
            raise SolverFailure("unbounded region in vertex enumeration")
        rows = self._least_ratios(rows, -1, k)
        for col in lex_cols:
            if len(rows) == 1:
                break
            if col in cols:
                rows = self._least_ratios(rows, cols.index(col), k)
            else:
                b = self.basis.index(col)
                if b in rows:
                    rows.remove(b)
        return rows[0]


def enumerate_vertices(prob, budget: int = 200_000, tableau=WalkTableau):
    """All vertices of the bounded region {x >= 0, rows}, exactly, sorted:
    the reference vertex oracle.

    Walks the basis graph under a lexicographic perturbation (every original
    vertex keeps at least one lex-feasible basis, and the perturbed polytope
    is simple, so the walk is exhaustive).  The objective field is ignored.
    `tableau` is WalkTableau or FractionTableau; both take the same pivots.

    Raises SolverFailure when the region is unbounded, SearchSpaceTooLarge
    when the basis count exceeds the budget, and InfeasibleRegion when the
    region is empty.
    """
    tb = tableau(prob)
    if not tb.phase1():
        raise InfeasibleRegion("empty feasible region")
    ncols = tb.ncols
    lex_cols = list(tb.basis)  # the walk-start basis, D times the identity: a valid perturbation

    seen = {frozenset(tb.basis)}
    points = {tuple(tb.solution()): None}
    stack = [iter(range(ncols))]
    trail = []
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
    return sorted(points)


def run_with_tableau(tableau, solve, check=lambda tb: None):
    """solve() with lpsolve's tableau class replaced: (pivots, outcome).

    pivots lists every (row, column) pivot in order; the outcome is solve's
    return value, or the class of the solver error it raised.  check(tb)
    runs after every pivot.
    """
    pivots = []
    pivot = tableau.pivot

    def recorded(self, r, j):
        pivots.append((r, j))
        pivot(self, r, j)
        check(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tableau, "pivot", recorded)
        mp.setattr(lpsolve, "_Tableau", tableau)
        try:
            outcome = solve()
        except (InfeasibleRegion, SearchSpaceTooLarge, SolverFailure) as exc:
            outcome = type(exc)
    return pivots, outcome


def brute_force_optimum(prob):
    """Exact LP optimum by enumerating candidate basic points.

    Every vertex of {x >= 0, rows} makes n of the constraints (rows plus
    coordinate planes) tight with a unique solution.  Solving each n-subset
    by rational elimination and keeping the feasible points gives all
    vertices; the optimum over a bounded region is their best objective.
    Assumes the feasible region is bounded (callers add a box).
    """
    n = prob.n_vars
    planes = []
    for coeffs, sense, rhs in prob.rows:
        planes.append((coeffs, rhs))
        if sense == "==":  # equalities are tight everywhere; keep once
            pass
    for i in range(n):
        unit = tuple(F(1) if j == i else F(0) for j in range(n))
        planes.append((unit, F(0)))
    best = None
    points = set()
    for combo in itertools.combinations(range(len(planes)), n):
        a = [[planes[i][0][j] for j in range(n)] for i in combo]
        b = [planes[i][1] for i in combo]
        x = _solve_exact(a, b)
        if x is None:
            continue
        if _feasible(prob, x):
            points.add(tuple(x))
    for x in points:
        val = sum(c * v for c, v in zip(prob.objective, x))
        if best is None or val > best:
            best = val
    return best, points


def _solve_exact(a, b):
    n = len(b)
    m = [row[:] + [rhs] for row, rhs in zip(a, b)]
    col = 0
    for r in range(n):
        piv = next((i for i in range(r, n) if m[i][col] != 0), None)
        if piv is None:
            return None  # singular: not a vertex basis
        m[r], m[piv] = m[piv], m[r]
        inv = F(1) / m[r][col]
        m[r] = [v * inv for v in m[r]]
        for i in range(n):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [v - f * w for v, w in zip(m[i], m[r])]
        col += 1
    return [m[i][n] for i in range(n)]


def _feasible(prob, x):
    if any(v < 0 for v in x):
        return False
    for coeffs, sense, rhs in prob.rows:
        lhs = sum(c * v for c, v in zip(coeffs, x))
        if sense == "<=" and lhs > rhs:
            return False
        if sense == ">=" and lhs < rhs:
            return False
        if sense == "==" and lhs != rhs:
            return False
    return True


def random_bounded_lp(rng, n):
    rows = []
    for _ in range(int(rng.integers(1, 5))):
        coeffs = [F(int(rng.integers(-3, 4))) for _ in range(n)]
        sense = ["<=", ">="][int(rng.integers(0, 2))]
        rows.append((coeffs, sense, F(int(rng.integers(-2, 5)))))
    # box keeps the region bounded so the oracle is total
    for i in range(n):
        unit = [F(1) if j == i else F(0) for j in range(n)]
        rows.append((unit, "<=", F(4)))
    obj = [F(int(rng.integers(-3, 4))) for _ in range(n)]
    return lp(n, obj, rows)


def test_handbook_cases():
    r = lp_solve(lp(1, [1], [([1], "<=", 1)]))
    assert r.status == "optimal" and r.value == 1 and r.x == (F(1),)
    r = lp_solve(lp(1, [1], [([1], ">=", 1), ([1], "<=", 0)]))
    assert r.status == "infeasible"
    r = lp_solve(lp(1, [1], []))
    assert r.status == "unbounded"


def test_degenerate_equalities():
    # redundant equality pair still solvable
    r = lp_solve(lp(2, [1, 1], [([1, 1], "==", 1), ([2, 2], "==", 2)]))
    assert r.status == "optimal" and r.value == 1


def test_against_brute_force_vertices():
    rng = np.random.default_rng(7)
    agree = 0
    for _ in range(80):
        prob = random_bounded_lp(rng, int(rng.integers(1, 4)))
        res = lp_solve(prob)
        best, _points = brute_force_optimum(prob)
        if best is None:
            assert res.status == "infeasible"
        else:
            assert res.status == "optimal"
            assert res.value == best
            assert _feasible(prob, res.x)
            agree += 1
    assert agree > 20  # the generator must not be degenerate


def int_vectors(n):
    return st.lists(st.integers(-3, 3), min_size=n, max_size=n)


@st.composite
def region_and_objectives(draw):
    """A small LP region, boxed or not, and a list of objectives over it."""
    n = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(int_vectors(n), st.sampled_from(["<=", ">=", "=="]),
                                   st.integers(-2, 4)), max_size=4))
    if draw(st.booleans()):
        rows += [([int(j == i) for j in range(n)], "<=", 4) for i in range(n)]
    objectives = draw(st.lists(int_vectors(n), min_size=1, max_size=5))
    return lp(n, [0] * n, rows), objectives


@settings(max_examples=200, deadline=None)
@given(region_and_objectives())
# an empty region: every objective is infeasible
@example((lp(1, [0], [([1], ">=", 1), ([1], "<=", 0)]), [[1], [-1]]))
# unbounded, bounded after it, unbounded again, bounded again
@example((lp(2, [0, 0], [([1, -1], "<=", 1)]), [[1, 1], [-1, 0], [0, 1], [1, -1]]))
def test_maximize_each_matches_fresh_solves(case):
    prob, objectives = case
    got = list(maximize_each(prob, objectives))
    assert len(got) == len(objectives)
    for objective, res in zip(objectives, got):
        want = lp_solve(lp(prob.n_vars, objective, prob.rows))
        assert (res.status, res.value) == (want.status, want.value)
        if res.status == "optimal":
            assert _feasible(prob, res.x)
            assert res.value == sum(c * v for c, v in zip(objective, res.x))


def test_enumerate_vertices_unit_simplex():
    prob = lp(3, [0, 0, 0], [([1, 1, 1], "==", 1)])
    verts = set(enumerate_vertices(prob))
    assert verts == {(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))}


def test_enumerate_vertices_square():
    prob = lp(2, [0, 0], [([1, 0], "<=", 1), ([0, 1], "<=", 1)])
    verts = set(enumerate_vertices(prob))
    assert verts == {(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))}


def test_enumerate_vertices_matches_brute_force():
    rng = np.random.default_rng(8)
    for _ in range(40):
        prob = random_bounded_lp(rng, int(rng.integers(1, 4)))
        _best, points = brute_force_optimum(prob)
        if not points:
            continue
        assert set(enumerate_vertices(prob)) == points


def test_enumerate_vertices_budget():
    # 8-cube has 256 bases; a budget of 10 must trip the guard
    rows = [([F(1) if j == i else F(0) for j in range(8)], "<=", F(1))
            for i in range(8)]
    prob = lp(8, [0] * 8, rows)
    with pytest.raises(SearchSpaceTooLarge):
        enumerate_vertices(prob, budget=10)


def test_lp_validation_errors():
    with pytest.raises(ValueError):
        lp(0, [], [])
    with pytest.raises(ValueError):
        lp(2, [1], [])
    with pytest.raises(ValueError):
        lp(1, [1], [([1, 2], "<=", 1)])
    with pytest.raises(ValueError):
        lp(1, [1], [([1], "<", 1)])
    with pytest.raises(ValueError):
        next(maximize_each(lp(1, [1], []), [[1, 2]]))


# coefficients with denominators, including floats' binary expansions, so
# that rows need the build-time integer scaling
coefficients = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.sampled_from([0.5, -0.25, 0.1, -1.5, 2.75, 1 / 3]))


@st.composite
def mixed_region_and_objectives(draw):
    """A region with rational and float rows of every sense, objectives over it.

    Negative right-hand sides flip senses; >= and == rows start on
    artificials, whose phase-1 drive-out may pivot on negative entries; a
    rescaled copy of an equality row is redundant and gets dropped.  Most
    regions hold an anchor point, so that phase 2 runs; the rest may be
    empty.  Up to seven rows over at most four variables make rows
    outnumber the stored nonbasic columns; in about half the anchored
    regions every row is tight at the anchor, a degenerate vertex whose
    ratio ties go to Bland's and the lexicographic tie-breaks.
    """
    n = draw(st.integers(1, 4))
    vector = st.lists(coefficients, min_size=n, max_size=n)
    anchor = draw(st.one_of(st.none(), st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    slack = st.just(0) if draw(st.booleans()) else st.integers(0, 2)
    rows = []
    for coeffs, sense in draw(st.lists(st.tuples(vector, st.sampled_from(["<=", ">=", "=="])),
                                       max_size=7)):
        if anchor is None:
            rhs = draw(coefficients)
        else:
            rhs = sum(F(a) * x for a, x in zip(coeffs, anchor))
            rhs += {"<=": 1, ">=": -1, "==": 0}[sense] * draw(slack)
        rows.append((coeffs, sense, rhs))
    if rows and draw(st.booleans()):
        coeffs, _, rhs = rows[0]
        k = draw(st.sampled_from([1, -2, F(3, 2)]))
        rows += [(coeffs, "==", rhs), ([k * F(v) for v in coeffs], "==", k * F(rhs))]
    if draw(st.booleans()):
        rows += [([int(j == i) for j in range(n)], "<=", 3) for i in range(n)]
    objectives = draw(st.lists(vector, min_size=1, max_size=4))
    return lp(n, [0] * n, draw(st.permutations(rows))), objectives


@settings(max_examples=300, deadline=None)
@given(mixed_region_and_objectives())
# redundant equalities after a negative right-hand side: drive-out and drop
@example((lp(2, [0, 0], [([-1, -1], ">=", -2), ([1, 1], "==", 1), ([2, 2], "==", 2),
                         ([F(1, 3), 0.5], "<=", 1)]), [[1, 0], [0, -1]]))
# five rows over two columns, all tight at (1, 1): Bland's ratio test ties
@example((lp(2, [0, 0], [([1, 1], "<=", 2), ([1, 0], "<=", 1), ([0, 1], "<=", 1),
                         ([1, 2], "<=", 3), ([2, 1], "<=", 3)]), [[1, 1], [1, 0]]))
# two rows tie at ratio 0 from the origin; the first lex column is the slack
# basic in row 0, so lex_leaving drops row 0
@example((lp(2, [0, 0], [([1, -1], "<=", 0), ([2, -1], "<=", 0), ([1, 0], "<=", 1),
                         ([0, 1], "<=", 1)]), [[1, 0], [1, 1]]))
# the surplus of the >= row is variable 3 in stored slot 2, and later pivots
# move every entering variable away from its own slot
@example((lp(2, [0, 0], [([1, 0], "<=", 2), ([1, 1], ">=", 1), ([0, 1], "<=", 2)]),
          [[1, 1], [-1, 0]]))
# an int row and a Fraction row tie at ratio 1/3; Bland's rule takes the
# lesser basic variable, the slack of row 1
@example((lp(3, [0, 0, 0], [([0, 3, 0], ">=", 1), ([0, F(3), 0], "<=", 1),
                            ([0, 0, 0], "<=", 0), ([0, 0, 0], "<=", 0)]), [[0, 0, 0]]))
def test_integer_tableau_takes_the_fraction_pivots(case):
    prob, objectives = case

    def solve_each():
        return [(r.status, r.value, r.x) for r in maximize_each(prob, objectives)]

    def condensed(tb):
        # one stored slot per nonbasic variable, each row its slots and rhs
        assert len(tb.cols) == tb.ncols - tb.m
        assert sorted(tb.cols + tb.basis) == list(range(tb.ncols))
        assert all(len(row) == len(tb.cols) + 1 for row in tb.T)

    want = run_with_tableau(FractionTableau, solve_each)
    assert run_with_tableau(_Tableau, solve_each, condensed) == want
    want = run_with_tableau(FractionTableau,
                            lambda: enumerate_vertices(prob, 500, FractionTableau))
    assert run_with_tableau(WalkTableau, lambda: enumerate_vertices(prob, 500),
                            condensed) == want


def test_inexact_division_raises():
    # one pivot makes D = 2; a stored entry changed by one then leaves a
    # remainder at the next pivot, which floor division would swallow
    tb = _Tableau(lp(2, [0, 0], [([2, 1], "<=", 4), ([1, 3], "<=", 6)]))
    tb.pivot(0, 0)
    # variable 0 entered row 0; slack 2 left and took its stored slot
    assert tb.D == 2 and tb.basis == [0, 3] and tb.cols == [2, 1]
    assert tb.T == [[1, 1, 4], [-1, 5, 8]]
    tb.T[0][0] += 1
    with pytest.raises(SolverFailure):
        tb.pivot(1, 1)
