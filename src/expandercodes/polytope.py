"""Fundamental cone/polytope machinery: validation, weights, exact minima.

Every local code has one inequality description.  A plain parity check keeps
its closed form: in the cone, each incident coordinate is at most the sum of
the others; in the polytope (the parity polytope), the box plus the odd-set
inequalities, tested through the most violated odd set, found greedily.  A
subcode label gets the facet rows of its codeword cone, and of its codeword
hull, from one exact double-description routine (`_facets`); when built,
each row is checked valid and facet-defining, the list is certified
complete by running the routine once more on the rows, and the rows are
cached per label.  Membership in the fundamental polytope is therefore one
test: the box, then each check's own description.

Every cone question is an LP over one region, the normalized cone section
(`_section`): the cone points supported inside a set of variables, one LP
variable per member, with coordinate sum 1.  `_section` is the one LP
builder, and it presolves: every distinct row once, opposite inequalities
as one equality, no inequality that an equality row already implies.
Every section point lies in the polytope, and a set has one exactly when
it holds a nonzero cone point.  So a generalized stopping set, the support
of a cone point (Vontobel & Koetter 2005), is the least screened candidate
set whose section is nonempty.  The block-error (flipping-set) weight
minimum comes from a staged top-set search over the section on the peeled
core: one exact simplex, warm-started from one top set's optimal basis to
the next.
Stage 1 maximizes each coordinate, so it yields M_i, the largest q_i on the
section; a later top set E with sum_E M_i < 1/2 is skipped unsolved, since
every section point has mass(E) <= sum_E M_i and so a negative optimum
2 mass(E) - 1, which cannot decide a stage.
The Gaussian-channel minimum comes from maximizing the squared norm over
the section on every variable, which is attained at a vertex; the vertices
are the extreme rays of the cone, which the same double-description
routine finds by polarity.  Every value, witness and discarded candidate
rests on exact rational arithmetic; no float decides anything here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from numbers import Integral

from .errors import (
    DomainError,
    LengthMismatch,
    SearchSpaceTooLarge,
    SolverFailure,
    ZeroVector,
)
from .lpsolve import F0, F1, LinearProgram, lp, lp_solve, maximize_each

MAX_BSC_VARS = 14
MAX_AWGN_VARS = 64
MAX_STOP_SIMPLE = 22
MAX_STOP_GENERAL = 16
# Dense parity cones explode in intermediate rays long before they finish.
# Over the 205 soundness instances (2-core x86-64, Python 3.11): the 118
# sections with at most 72 vertices peak at 79 rays; at 2,000 the ten
# slowest, (3,6) cones on 16-22 variables among them, are refused within
# 1.4 s, and every section that finishes takes at most 1.7 s.
AWGN_RAY_BUDGET = 2_000


@dataclass(frozen=True)
class Pseudocodeword:
    """A rational point of the fundamental polytope (or cone, rescaled)."""

    values: tuple[Fraction, ...]
    certificate: str = ""

    def __len__(self):
        return len(self.values)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.values) if v != 0)

    def to_dict(self) -> dict:
        return {"values": [str(v) for v in self.values],
                "certificate": self.certificate}


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    failures: tuple[str, ...] = ()


@dataclass(frozen=True)
class StoppingSet:
    support: tuple[int, ...]
    kind: str  # "simple" | "generalized"
    witness: Pseudocodeword | None = None


@dataclass(frozen=True)
class BscWeight:
    weight: int
    e: int
    tie: bool  # equality between the top-e mass and the rest


def _coerce_values(p) -> list[Fraction]:
    vals = p.values if isinstance(p, Pseudocodeword) else p
    return [v if isinstance(v, Fraction) else Fraction(v) for v in vals]


def _weight_values(p) -> list[Fraction]:
    vals = _coerce_values(p)
    if any(v < 0 for v in vals):
        raise DomainError("weight undefined on a vector with a negative entry")
    return vals


def _check_length(g, vals) -> None:
    if len(vals) != g.n_vars:
        raise LengthMismatch(f"vector length {len(vals)} != n_vars {g.n_vars}")


# -- local code descriptions ---------------------------------------------------------


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _rref(rows, ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals, zero rows dropped, and
    its pivot columns."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][col]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            f = m[i][col]
            if i != r and f:
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
    return m[: len(pivots)], pivots


def _integral(vec) -> tuple[int, ...]:
    """The primitive integer vector along a nonzero rational vector."""
    den = lcm(*(Fraction(v).denominator for v in vec))
    ints = [int(v * den) for v in vec]
    g = gcd(*ints)
    return tuple(v // g for v in ints)


def _independent(rows, limit: int) -> list[int]:
    """Indices of the integer rows independent of the rows before them, at
    most `limit` of them; their count is the rank.  Fraction-free: each row
    is reduced by the echelon rows kept so far, cross-multiplied and divided
    by the gcd of its entries at every step, and kept if nonzero."""
    echelon = []  # (pivot column, row)
    chosen = []
    for i, v in enumerate(rows):
        if len(chosen) == limit:
            break
        for p, e in echelon:
            if v[p]:
                f, h = e[p], v[p]
                v = [f * x - h * y for x, y in zip(v, e)]
                c = gcd(*v)
                if c > 1:
                    v = [x // c for x in v]
        p = next((k for k, x in enumerate(v) if x), None)
        if p is not None:
            echelon.append((p, v))
            chosen.append(i)
    return chosen


def _facets(gens, budget: int | None = None) -> tuple[tuple[tuple[int, ...], ...],
                                                       tuple[tuple[int, ...], ...]]:
    """Inequality description of the cone spanned by integer vectors `gens`.

    Returns (facets, equalities): the cone is {x : a.x >= 0 for each facet
    row a, e.x = 0 for each equality row e}; the equalities span the
    orthogonal complement of the generators' span.  On that span the
    projection to the pivot coordinates is one to one, so the facets are
    found there by double description: start from the simplicial cone of r
    independent generators, and let each further generator cut the dual
    rays, pairing every positive ray with every adjacent negative one
    (adjacent: no third ray is tight on every generator both are tight on).
    SearchSpaceTooLarge as soon as more than `budget` dual rays are held.
    By polarity the facet rows are the extreme rays of the cone
    {x : g.x >= 0 for every generator g}, as primitive integer vectors.

    Every row is checked exactly by _check_rows before it is returned, so
    every row is valid and facet-defining, and the row cone contains the
    generated cone.
    """
    m = len(gens[0])
    basis, pivots = _rref(gens, m)
    r = len(pivots)
    eqs = []
    for f in range(m):
        if f not in pivots:
            e = [F1 if j == f else F0 for j in range(m)]
            for row, p in zip(basis, pivots):
                e[p] = -row[f]
            eqs.append(_integral(e))
    pts = [tuple(v[p] for p in pivots) for v in gens]
    chosen = _independent(pts, r)
    inv, _ = _rref([list(pts[i]) + [int(t == k) for k in range(r)]
                    for t, i in enumerate(chosen)], 2 * r)
    done = sum(1 << i for i in chosen)
    # dual rays with the mask of processed generators each is tight on
    rays = [(_integral([inv[i][r + k] for i in range(r)]), done & ~(1 << c))
            for k, c in enumerate(chosen)]
    for j, p in enumerate(pts):
        if done >> j & 1:
            continue
        s = [_dot(a, p) for a, _ in rays]
        kept = sum(1 for v in s if v >= 0)
        new = []
        for u in (k for k, v in enumerate(s) if v > 0):
            for w in (k for k, v in enumerate(s) if v < 0):
                common = rays[u][1] & rays[w][1]
                if common.bit_count() >= r - 2 and not any(
                        k != u and k != w and t & common == common
                        for k, (_, t) in enumerate(rays)):
                    a = _integral([s[u] * x - s[w] * y
                                   for x, y in zip(rays[w][0], rays[u][0])])
                    new.append((a, common | 1 << j))
                    if budget is not None and kept + len(new) > budget:
                        raise SearchSpaceTooLarge(
                            f"double description exceeded {budget} rays")
        rays = [(a, t | (1 << j if s[k] == 0 else 0))
                for k, (a, t) in enumerate(rays) if s[k] >= 0] + new
        done |= 1 << j
    facets = sorted(tuple(dict(zip(pivots, a)).get(j, 0) for j in range(m)) for a, _ in rays)
    _check_rows(gens, facets, eqs, r)
    return tuple(facets), tuple(eqs)


def _check_rows(gens, facets, eqs, r: int) -> None:
    """Raise SolverFailure unless every generator satisfies every row and
    each facet row is tight on generators of rank r - 1 (facet-defining).
    A row positive on some generator is tight on rank at most r - 1."""
    for row in facets:
        values = [_dot(row, v) for v in gens]
        tight = [v for v, x in zip(gens, values) if x == 0]
        if min(values) < 0 or max(values) == 0 or len(_independent(tight, r - 1)) != r - 1:
            raise SolverFailure(f"facet row {row} failed its exact check")
    if any(_dot(e, v) for e in eqs for v in gens):
        raise SolverFailure("equality row failed its exact check")


def _certified(rows, words):
    """The (facets, equalities) `rows` of the cone of the primitive integer
    vectors `words`, once certified complete; SolverFailure otherwise.

    The row cone contains the words' cone (_check_rows).  Its extreme rays
    are the facet rows of the cone spanned by the rows, with both signs of
    each equality (polarity).  When that cone is full-dimensional, the row
    cone is pointed and so the cone of its extreme rays; when each of those
    is a positive multiple of a word, which for primitive vectors means
    equal to one, the row cone lies inside the words' cone.
    """
    facets, eqs = rows
    rays, lineality = _facets([*facets, *eqs, *(tuple(-v for v in e) for e in eqs)])
    if lineality or not set(rays) <= set(words):
        raise SolverFailure("the rows cut out more than the cone of the codewords")
    return rows


@lru_cache
def _cone_rows(label, d: int):
    """(facets, equalities) of the local codeword cone at a check of degree
    d, as in _facets, certified complete.  A plain parity
    check (label None) has the closed form: each coordinate at most the sum
    of the others."""
    if label is None:
        return tuple(tuple(-1 if j == t else 1 for j in range(d)) for t in range(d)), ()
    words = [tuple(int(b) for b in w) for w in label.nonzero_codewords()]
    return _certified(_facets(words), words)


@lru_cache
def _hull_rows(label):
    """(facets, equalities) of a label's codeword hull: the cone rows of the
    homogenized codewords (1, w), so a row (b, a) reads b + a.x >= 0
    (resp. == 0), certified complete."""
    words = [(1, *(int(b) for b in w)) for w in label.codewords]
    return _certified(_facets(words), words)


# -- validation -------------------------------------------------------------------


def _odd_set_failures(c: int, idx, local: list[Fraction]) -> list[str]:
    """The most violated parity-polytope inequality at a plain check, if any.

    For every odd subset S of the check, sum_S (1 - x) + sum_rest x >= 1.
    The left side is least for S = {x > 1/2}, with the cheapest single flip
    when that set is even.  |S| = 1 is the sibling-sum (cone) inequality.
    """
    if not local:
        return []
    odd = {j for j, v in enumerate(local) if 2 * v > 1}
    slack = sum(min(v, 1 - v) for v in local) - 1
    if len(odd) % 2 == 0:
        flip = min(range(len(local)), key=lambda j: abs(1 - 2 * local[j]))
        slack += abs(1 - 2 * local[flip])
        odd ^= {flip}
    if slack >= 0:
        return []
    if len(odd) == 1:
        return [f"check {c}: coordinate {idx[min(odd)]} exceeds sibling sum"]
    return [f"check {c}: odd-set inequality fails on {sorted(idx[j] for j in odd)}"]


def _outside_hull(label, local: list[Fraction]) -> bool:
    facets, eqs = _hull_rows(label)
    return (any(a[0] + _dot(a[1:], local) < 0 for a in facets)
            or any(e[0] + _dot(e[1:], local) != 0 for e in eqs))


def validate(g, p) -> ValidationReport:
    """Membership of p in the fundamental polytope: the box and, at each
    check, its one local description (the parity polytope's odd-set
    inequalities at a plain check, the hull rows at a labelled one)."""
    vals = _coerce_values(p)
    _check_length(g, vals)
    failures = [f"coordinate {i} = {v} outside [0,1]"
                for i, v in enumerate(vals) if not 0 <= v <= 1]
    for c in range(g.n_checks):
        idx = g.check_vars(c)
        local = [vals[i] for i in idx]
        label = g.labels[c]
        if label is None:
            failures.extend(_odd_set_failures(c, idx, local))
        elif _outside_hull(label, local):
            failures.append(f"check {c}: restriction outside local hull")
    return ValidationReport(valid=not failures, failures=tuple(failures))


# -- weights ----------------------------------------------------------------------


def bsc_weight(p) -> BscWeight:
    """Flipping-set weight: with entries sorted descending, e is the least
    count whose mass reaches the mass of the rest; weight 2e on a tie, 2e-1
    when the top mass strictly exceeds the rest."""
    vals = _weight_values(p)
    total = sum(vals)
    if total == 0:
        raise ZeroVector("weight undefined on the zero vector")
    desc = sorted(vals, reverse=True)
    top = F0
    for e, v in enumerate(desc, start=1):
        top += v
        rest = total - top
        if top >= rest:
            tie = top == rest
            return BscWeight(weight=2 * e if tie else 2 * e - 1, e=e, tie=tie)
    raise SolverFailure("unreachable: cumulative mass never crossed half")


def awgn_weight(q):
    """(sum q)^2 / sum q^2; exact Fraction in, exact Fraction out."""
    vals = _weight_values(q)
    s = sum(vals)
    ss = sum(v * v for v in vals)
    if ss == 0:
        raise ZeroVector("weight undefined on the zero vector")
    return (s * s) / ss


# -- the normalized cone section -----------------------------------------------------


def _variables(g, subset) -> list[int]:
    """The distinct indices of `subset`, sorted, as ints; DomainError names
    the first one that is not an integer (Python or numpy; a bool, as in a
    mask passed by mistake, is not), or else the first one outside
    range(g.n_vars)."""
    vs = list(subset)
    bad = [v for v in vs if not isinstance(v, Integral) or isinstance(v, bool)]
    if bad:
        raise DomainError(f"variable index {bad[0]!r} is not an integer")
    vs = sorted({int(v) for v in vs})
    bad = [v for v in vs if not 0 <= v < g.n_vars]
    if bad:
        raise DomainError(f"variable index {bad[0]} outside range({g.n_vars})")
    return vs


def _section(g, subset) -> tuple[list[int], LinearProgram]:
    """The normalized cone section over `subset`: the cone points supported
    inside it with coordinate sum 1, as an LP with one variable per member
    of vs, the distinct members of `subset` sorted.

    Off-subset coordinates are identically zero, so only checks touching the
    subset matter, and each local row keeps its member coefficients.  Setting
    coordinates to zero in a local cone's rows gives exactly the cone of the
    local codewords vanishing there, because codewords are nonnegative.
    Rows with no positive coefficient in "<=" form are implied by x >= 0 and
    dropped.  The rows of all checks are then presolved as one set, which
    changes only the description, not the region: each distinct row is
    kept once; a pair a.q <= 0, -a.q <= 0 becomes the one row a.q = 0; an
    inequality on the coefficients of an equality row, up to sign, goes;
    the rows left keep their first-occurrence order.  Repeated and opposite
    rows are pure degeneracy for the simplex: a (2,2,7) ring's 14 local
    rows become 7 equalities, and two hamming74 checks on the same 7
    variables give 28 rows, not 56.  The mass row sum(q) = 1 comes last.
    Every coefficient is an int, which the simplex takes as it is.  A
    section point lies in the fundamental polytope: at every check it is
    sum_w lambda_w w with sum_w lambda_w <= sum_w lambda_w |w| <= 1, and the
    zero word takes the rest.  DomainError names an index that is not an
    integer or lies outside range(g.n_vars).
    """
    vs = _variables(g, subset)
    pos = {v: i for i, v in enumerate(vs)}
    found = {}  # (coeffs, sense) -> None, in first-occurrence order
    for c in range(g.n_checks):
        idx = g.check_vars(c)
        members = [(j, pos[v]) for j, v in enumerate(idx) if v in pos]
        if not members:
            continue
        facets, eqs = _cone_rows(g.labels[c], len(idx))
        for table, sense, sign in ((facets, "<=", -1), (eqs, "==", 1)):
            for a in table:
                coeffs = [0] * len(vs)
                for j, i in members:
                    coeffs[i] = sign * a[j]
                if any(v > 0 for v in coeffs) or (sense == "==" and any(coeffs)):
                    found[tuple(coeffs), sense] = None
    # presolve: a . q <= 0 with -a . q <= 0 is a . q = 0, and an equality
    # (up to sign) makes both inequalities on its coefficients redundant
    rows = {}
    for a, sense in found:
        neg = tuple(-v for v in a)
        if sense == "==" or (neg, "<=") in found:
            if (neg, "==") not in rows:
                rows[a, "=="] = None
        elif (a, "==") not in found and (neg, "==") not in found:
            rows[a, "<="] = None
    rows = [(a, sense, 0) for a, sense in rows]
    rows.append(([1] * len(vs), "==", 1))
    return vs, lp(len(vs), [0] * len(vs), rows)


def _point(g, vs, x, certificate: str) -> Pseudocodeword:
    """The section point x over the variables vs, on every variable."""
    values = [F0] * g.n_vars
    for v, q in zip(vs, x):
        values[v] = q
    return Pseudocodeword(values=tuple(values), certificate=certificate)


def has_nonzero_cone_point_within(g, subset) -> Pseudocodeword | None:
    """A point of the normalized cone section over `subset` (a nonzero cone
    point supported inside it, scaled to mass 1), or None.  DomainError
    names an index that is not an integer or lies outside range(g.n_vars).
    `subset` may be any iterable of indices, an iterator or a numpy array
    included."""
    vs = _variables(g, subset)
    if not vs:
        return None
    vs, prob = _section(g, vs)
    res = lp_solve(prob)
    return _point(g, vs, res.x, "subset-supported") if res.status == "optimal" else None


# -- stopping sets ------------------------------------------------------------------


def _peel_rules(g) -> list[tuple[int, int]]:
    """One (variable mask, threshold) pair per check: bit v of the mask is
    variable v, and the threshold is 2 at a plain check and the label's
    minimum distance at a labelled one."""
    return [(sum(1 << v for v in g.check_vars(c)), 2 if lab is None else lab.dmin)
            for c, lab in enumerate(g.labels)]


def _peel(rules, s: int) -> int:
    """Largest subset of the variable mask s that every check touches either
    not at all or at least its threshold times: a check touching s fewer
    times loses its members from s, until none does.  The fixpoint is the
    union of all qualifying subsets, so the visiting order does not matter."""
    changed = True
    while changed and s:
        changed = False
        for mask, threshold in rules:
            hit = s & mask
            if hit and hit.bit_count() < threshold:
                s ^= hit
                changed = True
    return s


def min_stopping_set(g) -> StoppingSet | None:
    """Smallest nonempty stopping set, or None when there is none.

    Candidates are the subsets of the peeled core (`_peel` from every
    variable), by increasing size, each screened on integer masks: every
    touched plain check touched at least twice, every touched subcode check
    holding a local codeword inside the candidate.  Plain-parity graphs
    ("simple"): the first candidate passing the screen is the answer;
    guarded at 22 variables.  Subcode graphs ("generalized"): the first
    candidate S whose normalized section is nonempty is the answer, and its
    section point has support exactly S.  Proof: every cone point support
    lies in the core and passes the screen, so a section point with a
    smaller support would have made that support an earlier answer.
    Guarded at 16 variables.
    """
    kind = "simple" if g.all_simple else "generalized"
    limit = MAX_STOP_SIMPLE if kind == "simple" else MAX_STOP_GENERAL
    if g.n_vars > limit:
        raise SearchSpaceTooLarge(f"{g.n_vars} variables exceed the {kind} guard ({limit})")
    rules = _peel_rules(g)
    core = _peel(rules, (1 << g.n_vars) - 1)
    if not core:
        return None
    active = [v for v in range(g.n_vars) if core >> v & 1]
    # A support S must meet every plain check's rule, and every subcode
    # check it touches must have a local codeword whose ones all land in S;
    # the codewords are kept as variable masks.
    word_masks = [None if label is None else
                  tuple(sum(1 << v for v, b in zip(g.check_vars(c), w) if b)
                        for w in label.nonzero_codewords())
                  for c, label in enumerate(g.labels)]
    for size in range(1, len(active) + 1):
        for combo in itertools.combinations(active, size):
            s_mask = 0
            for v in combo:
                s_mask |= 1 << v
            ok = True
            for (mask, threshold), wm in zip(rules, word_masks):
                hit = mask & s_mask
                if not hit:
                    continue
                if wm is None:
                    if hit.bit_count() < threshold:
                        ok = False
                        break
                elif not any(m & ~s_mask == 0 for m in wm):
                    ok = False
                    break
            if not ok:
                continue
            if kind == "simple":
                return StoppingSet(support=combo, kind="simple")
            witness = has_nonzero_cone_point_within(g, combo)
            if witness is not None:
                return StoppingSet(support=combo, kind="generalized", witness=witness)
    return None


# -- exact block-error weight minimum -----------------------------------------------


def min_bsc_pseudoweight(g) -> tuple[int, Pseudocodeword] | None:
    """Exact minimum flipping-set weight over the fundamental cone.

    The region is the normalized section over the peeled core, which is
    exact: the support of every cone point survives peeling.  Stage e = 1,
    2, ... maximizes mass(E) - mass(rest) for every candidate top set E of
    size e.  No ordering rows put E on top, because the best of these optima
    is 2 topsum_e(q) - 1 maximized over the region either way.  The first
    stage with a nonnegative optimum decides: weight 2e-1 when some optimum
    is positive, 2e when the best optima are exactly zero; the optimal point
    of the deciding top set has exactly that weight.  Every objective is
    solved in exact arithmetic, each from the previous optimal basis, and no
    candidate is dropped on float evidence.  A section point with support S
    decides by stage ceil(|S|/2), because its top ceil(|S|/2) entries hold
    at least half its mass; so a nonempty section always decides, by the
    last stage at the latest (E = the core, optimum 1).

    Stage 1 objectives are 2 q_i - 1, so when stage 1 does not decide, its
    n optima are exact and negative, and M_i = (optimum_i + 1) / 2 is the
    largest q_i on the section.  A later top set E with sum_E M_i < 1/2 is
    skipped without an LP: every section point has mass(E) <= sum_E M_i, so
    its optimum 2 max mass(E) - 1 is negative, neither a positive optimum
    nor the exact-zero tie.  The comparison is exact, on integers: with L
    the lcm of the denominators of the M_i, it reads 2 sum_E L M_i < L.
    The other top sets are solved in the same combination order, with
    integer +-1 objectives, so the deciding stage and its first positive
    (or zero) top set are those of the full search; only the warm-start
    chain is shorter, so where that top set's LP has several optima the
    witness may be another of them.

    Returns None when the section is empty, that is, when the cone has no
    nonzero point.  Guarded at 14 variables.
    """
    if g.n_vars > MAX_BSC_VARS:
        raise SearchSpaceTooLarge(f"{g.n_vars} variables exceed the guard ({MAX_BSC_VARS})")
    core = _peel(_peel_rules(g), (1 << g.n_vars) - 1)
    if not core:
        return None
    vs, prob = _section(g, (v for v in range(g.n_vars) if core >> v & 1))
    n = len(vs)
    # one simplex for every objective: each is pushed just before its result
    # is pulled, so a skipped top set costs no LP and the next solved one
    # starts from the last optimal basis
    feed = []
    results = maximize_each(prob, iter(feed.pop, None))
    maxima = []  # M_i = (stage-1 optimum + 1) / 2, the largest q_i on the section
    for e in range(1, n + 1):
        if e == 2:
            # M_i = nums[i] / scale over the lcm of their denominators
            scale = lcm(*(m.denominator for m in maxima))
            nums = [m.numerator * (scale // m.denominator) for m in maxima]
        best = None
        for top in itertools.combinations(range(n), e):
            if e > 1 and 2 * sum(nums[i] for i in top) < scale:
                continue  # mass(E) <= sum of M_i < 1/2: the optimum is negative
            feed.append([1 if i in top else -1 for i in range(n)])
            res = next(results)
            if res.status == "infeasible":
                return None  # phase 1 failed: every objective reads the same
            if e == 1:
                maxima.append((res.value + 1) / 2)
            if res.value >= 0 and (best is None or res.value > best.value):
                best = res
                if best.value > 0:
                    break  # the sign settles the stage
        if best is not None:
            return (2 * e - 1 if best.value > 0 else 2 * e,
                    _point(g, vs, best.x, f"top-set-stage-{e}"))
    raise SolverFailure("staged search passed the last stage without success")


# -- exact Gaussian-channel weight minimum -------------------------------------------


def _section_vertices(g) -> tuple[list[int], list[tuple[Fraction, ...]]]:
    """The variables and the sorted vertices of the normalized cone section
    over every variable; no vertex when the cone is trivial.

    The vertices are the extreme rays of the cone {q >= 0, section rows},
    scaled to mass 1.  By polarity, _facets finds those rays as the facets
    of the cone spanned by the unit vectors, -a for each row a.q <= 0 and
    both a and -a for each row a.q = 0; the mass row only normalizes.
    SearchSpaceTooLarge past AWGN_RAY_BUDGET intermediate rays.
    """
    n = g.n_vars
    vs, prob = _section(g, range(n))
    gens = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    for a, sense, _ in prob.rows[:-1]:
        gens.append(tuple(-v for v in a))
        if sense == "==":
            gens.append(a)
    rays, _ = _facets(gens, budget=AWGN_RAY_BUDGET)
    return vs, sorted(tuple(Fraction(x, total) for x in ray)
                      for ray in rays for total in (sum(ray),))


def min_awgn_pseudoweight(g) -> tuple[Fraction, Pseudocodeword] | None:
    """Exact minimum Gaussian-channel weight over the fundamental cone.

    On the normalized cone section the weight is 1 / sum(q^2), so the minimum
    weight is attained where sum(q^2) is largest; a convex function attains
    its maximum at a vertex (_section_vertices), and the witness is the first
    vertex of greatest squared norm in sorted order.  Returns None when the
    cone is trivial.  Guarded at 64 variables plus AWGN_RAY_BUDGET rays.
    """
    if g.n_vars > MAX_AWGN_VARS:
        raise SearchSpaceTooLarge(f"{g.n_vars} variables exceed the guard ({MAX_AWGN_VARS})")
    vs, vertices = _section_vertices(g)
    if not vertices:
        return None
    best = max(vertices, key=lambda v: sum(q * q for q in v))
    return F1 / sum(q * q for q in best), _point(g, vs, best, "norm-max-vertex")
