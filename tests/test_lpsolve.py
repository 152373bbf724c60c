import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expandercodes.errors import SearchSpaceTooLarge
from expandercodes.lpsolve import enumerate_vertices, lp, lp_solve, maximize_each

F = Fraction


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
