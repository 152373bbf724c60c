"""Fundamental cone/polytope machinery: validation, weights, exact minima.

For graphs whose checks are all plain parity constraints, membership is the
classic inequality system: entries in [0, 1] and, at every check, each
incident coordinate at most the sum of the others.  For subcode-labelled
graphs the exact local condition is membership of the restriction in the
convex hull of the local codewords; the inequality relaxations (threshold,
half-set and quarter-set conditions) are necessary only, and both levels are
available.

Weight minimization is exact: the block-error (flipping-set) weight comes
from a staged top-set LP search over the cone, and the Gaussian-channel
weight from maximizing the squared norm over the normalized cone section,
which is attained at a vertex and therefore solvable by exact vertex
enumeration.  A float LP prescreen (scipy) only prunes candidates; every
reported decision is re-established in exact rational arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np
from scipy.optimize import linprog

from .errors import (
    LengthMismatch,
    SearchSpaceTooLarge,
    SolverFailure,
    SubcodeMissing,
    ZeroVector,
    DegreeTooLarge,
)
from .lpsolve import F0, F1, LinearProgram, lp, lp_solve, enumerate_vertices

MAX_BSC_VARS = 14
MAX_AWGN_VARS = 64
MAX_STOP_SIMPLE = 22
MAX_STOP_GENERAL = 16
# Dense parity cones explode in basis count long before they finish, and
# each exact pivot costs milliseconds.  The default is a ceiling, not a fast
# failure: on (3,6) all-parity graphs of 16 variables the guard trips only
# after about a minute of exact pivots.  Cycle-code and small-subcode cones
# enumerate within a few hundred bases.
AWGN_BASIS_BUDGET = 5_000


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
    level: str
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


def _check_length(g, vals) -> None:
    if len(vals) != g.n_vars:
        raise LengthMismatch(f"vector length {len(vals)} != n_vars {g.n_vars}")


# -- validation -------------------------------------------------------------------


def validate_simple(g, p) -> ValidationReport:
    """Membership of p in the polytope of an all-parity graph.

    Checks the box constraints and, at each check, every incident coordinate
    against the sum of its siblings.
    """
    if not g.all_simple:
        raise SubcodeMissing("graph carries subcode labels; use validate_generalized")
    vals = _coerce_values(p)
    _check_length(g, vals)
    failures = []
    for i, v in enumerate(vals):
        if not (0 <= v <= 1):
            failures.append(f"coordinate {i} = {v} outside [0,1]")
    for c in range(g.n_checks):
        idx = g.check_vars(c)
        total = sum(vals[i] for i in idx)
        for i in idx:
            if vals[i] > total - vals[i]:
                failures.append(f"check {c}: coordinate {i} exceeds sibling sum")
    return ValidationReport(valid=not failures, level="simple",
                            failures=tuple(failures))


def _threshold_failures(c: int, local: list[Fraction], dmin: int) -> list[str]:
    """Necessary inequalities at one subcode check: threshold, half-set,
    quarter-set (worst subset = the largest entries)."""
    fails = []
    d = len(local)
    total = sum(local)
    for j, v in enumerate(local):
        if (dmin - 1) * v > total - v:
            fails.append(f"check {c}: threshold fails at local coordinate {j}")
            break
    desc = sorted(local, reverse=True)
    t_half = dmin // 2
    if t_half >= 1:
        top = sum(desc[:t_half])
        if top > total - top:
            fails.append(f"check {c}: half-set condition fails")
    t_quarter = dmin // 4
    if t_quarter >= 1:
        top = sum(desc[:t_quarter])
        if 3 * top > total - top:
            fails.append(f"check {c}: quarter-set condition fails")
    return fails


def _hull_membership(label, local: list[Fraction]) -> bool:
    """Exact test: local in convex hull of the subcode codewords (zero included)."""
    words = label.codewords
    k, d = words.shape
    rows = []
    for j in range(d):
        coeffs = tuple(Fraction(int(words[w, j])) for w in range(k))
        rows.append((coeffs, "==", local[j]))
    rows.append((tuple(F1 for _ in range(k)), "==", F1))
    prob = lp(k, [F0] * k, rows)
    return lp_solve(prob).status == "optimal"


def validate_generalized(g, p, level: str = "exact") -> ValidationReport:
    """Membership test for subcode-labelled graphs.

    level="necessary": box constraints plus the threshold/half-set/quarter-set
    inequalities (plain parity checks use the sibling-sum rule).
    level="exact": additionally requires each local restriction to lie in the
    convex hull of the local codewords, which is the defining condition.
    """
    if level not in ("necessary", "exact"):
        raise ValueError(f"unknown level {level!r}")
    vals = _coerce_values(p)
    _check_length(g, vals)
    failures = []
    for i, v in enumerate(vals):
        if not (0 <= v <= 1):
            failures.append(f"coordinate {i} = {v} outside [0,1]")
    for c in range(g.n_checks):
        idx = g.check_vars(c)
        local = [vals[i] for i in idx]
        label = g.labels[c]
        if label is None:
            total = sum(local)
            for j, v in enumerate(local):
                if v > total - v:
                    failures.append(f"check {c}: coordinate exceeds sibling sum")
                    break
        else:
            failures.extend(_threshold_failures(c, local, label.dmin))
            if level == "exact" and not _hull_membership(label, local):
                failures.append(f"check {c}: restriction outside local hull")
    return ValidationReport(valid=not failures, level=level,
                            failures=tuple(failures))


# -- weights ----------------------------------------------------------------------


def bsc_weight(p) -> BscWeight:
    """Flipping-set weight: with entries sorted descending, e is the least
    count whose mass reaches the mass of the rest; weight 2e on a tie, 2e-1
    when the top mass strictly exceeds the rest."""
    vals = _coerce_values(p)
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
    vals = _coerce_values(q)
    s = sum(vals)
    ss = sum(v * v for v in vals)
    if ss == 0:
        raise ZeroVector("weight undefined on the zero vector")
    return (s * s) / ss


# -- cone row systems --------------------------------------------------------------


@dataclass(frozen=True)
class _ConeSystem:
    """LP variable layout for the fundamental cone restricted to a subset.

    Variables: one per subset coordinate (in sorted order), then one
    multiplier per (check, admitted nonzero local codeword) for each subcode
    check.  Simple checks contribute sibling-sum inequalities; subcode checks
    contribute exact coupling equalities.
    """

    subset: tuple[int, ...]
    total_vars: int
    rows: tuple[tuple[tuple[Fraction, ...], str, Fraction], ...]
    multiplier_slices: tuple[tuple[int, int], ...]  # per check (start, stop)

    @property
    def n_vars(self) -> int:
        return len(self.subset)


def _polytope_scale(system: _ConeSystem, point: tuple[Fraction, ...]) -> Fraction:
    """Scale factor putting a cone point inside the polytope: divide by the
    largest local multiplier sum (and by max q for plain-parity graphs)."""
    worst = max((v for v in point[: system.n_vars]), default=F0)
    for start, stop in system.multiplier_slices:
        if stop > start:
            s = sum(point[start:stop])
            if s > worst:
                worst = s
    return worst if worst > 1 else F1


# -- stopping sets ------------------------------------------------------------------


def _check_thresholds(g) -> list[int]:
    return [2 if lab is None else lab.dmin for lab in (g.labels[c] for c in range(g.n_checks))]


def peel_to_max_stopping_subset(g, subset=None) -> frozenset:
    """Largest subset of `subset` meeting the neighborhood criterion: every
    check touching it does so at least threshold times (2 for plain parity,
    the local minimum distance for subcodes).  Computed by peeling; for
    all-parity graphs this is exactly the union of contained stopping sets."""
    s = set(range(g.n_vars) if subset is None else subset)
    thresholds = _check_thresholds(g)
    changed = True
    while changed and s:
        changed = False
        for c in range(g.n_checks):
            members = [v for v in g.check_vars(c) if v in s]
            if 0 < len(members) < thresholds[c]:
                s.difference_update(members)
                changed = True
    return frozenset(s)


def _within_system(g, subset) -> _ConeSystem:
    """Cone rows restricted to points supported inside `subset`.

    Off-subset coordinates are identically zero, so only checks touching the
    subset matter, and a subcode check admits only local codewords vanishing
    on its off-subset sockets.  With every variable in the subset this is the
    full fundamental cone.
    """
    subset = sorted(set(subset))
    pos = {v: i for i, v in enumerate(subset)}
    k = len(subset)
    specs = []
    cursor = k
    for c in range(g.n_checks):
        idx = g.check_vars(c)
        members = [j for j, v in enumerate(idx) if v in pos]
        if not members:
            continue
        label = g.labels[c]
        if label is None:
            specs.append((c, idx, members, None, (cursor, cursor)))
            continue
        words = label.nonzero_codewords()
        outside = [j for j in range(len(idx)) if j not in set(members)]
        compatible = [w for w in range(words.shape[0])
                      if not any(words[w, j] for j in outside)]
        specs.append((c, idx, members, (words, compatible),
                      (cursor, cursor + len(compatible))))
        cursor += len(compatible)
    total = cursor
    rows = []
    for c, idx, members, local, (start, stop) in specs:
        if local is None:
            for j in members:
                coeffs = [F0] * total
                for j2 in members:
                    coeffs[pos[idx[j2]]] -= F1
                coeffs[pos[idx[j]]] += 2 * F1
                rows.append((tuple(coeffs), "<=", F0))
        else:
            words, compatible = local
            for j in members:
                coeffs = [F0] * total
                coeffs[pos[idx[j]]] = F1
                for t, w in enumerate(compatible):
                    coeffs[start + t] = -Fraction(int(words[w, j]))
                rows.append((tuple(coeffs), "==", F0))
    return _ConeSystem(subset=tuple(subset), total_vars=total, rows=tuple(rows),
                       multiplier_slices=tuple(rng for _, _, _, _, rng in specs))


def _within_witness(g, subset, extra_rows, certificate) -> Pseudocodeword | None:
    system = _within_system(g, subset)
    total, k = system.total_vars, system.n_vars
    rows = list(system.rows)
    for coeffs, sense, rhs in extra_rows(total, k):
        rows.append((tuple(coeffs), sense, rhs))
    res = lp_solve(lp(total, [F0] * total, rows))
    if res.status != "optimal":
        return None
    scale = _polytope_scale(system, res.x)
    values = [F0] * g.n_vars
    for i, v in enumerate(system.subset):
        values[v] = res.x[i] / scale
    return Pseudocodeword(values=tuple(values), certificate=certificate)


def cone_point_with_support(g, support) -> Pseudocodeword | None:
    """A cone point whose support is exactly `support`, or None.

    Feasibility LP on the induced subgraph with every support coordinate at
    least 1; the witness is rescaled into the polytope.
    """
    support = sorted(set(support))

    def extra(total, k):
        for i in range(k):
            unit = [F0] * total
            unit[i] = F1
            yield unit, ">=", F1

    return _within_witness(g, support, extra,
                           f"support-forced:{','.join(map(str, support))}")


def has_nonzero_cone_point_within(g, subset) -> Pseudocodeword | None:
    """A nonzero cone point supported inside `subset`, or None."""
    if not subset:
        return None

    def extra(total, k):
        mass = [F0] * total
        for i in range(k):
            mass[i] = F1
        yield mass, "==", F1

    return _within_witness(g, subset, extra, "subset-supported")


def min_stopping_set(g, kind: str | None = None) -> StoppingSet | None:
    """Smallest nonempty stopping set, or None when there is none.

    Plain-parity graphs ("simple"): exhaustive by increasing size over the
    peeled candidate set, guarded at 22 variables.  Subcode graphs
    ("generalized"): candidate subsets pass the threshold criterion first,
    then an exact LP certifies a cone point supported exactly there; guarded
    at 16 variables.
    """
    if kind is None:
        kind = "simple" if g.all_simple else "generalized"
    if kind == "simple" and not g.all_simple:
        raise SubcodeMissing("graph has subcode labels but kind='simple' requested")
    limit = MAX_STOP_SIMPLE if kind == "simple" else MAX_STOP_GENERAL
    if g.n_vars > limit:
        raise SearchSpaceTooLarge(f"{g.n_vars} variables exceed the {kind} guard ({limit})")
    active = sorted(peel_to_max_stopping_subset(g))
    if not active:
        return None
    # Bitmask screens per check: which variables it touches, and for subcode
    # checks the variable-index masks of its local codewords.  A support S is
    # only possible if every touched subcode check has a codeword whose ones
    # all land inside S.
    var_masks = []
    word_masks = []
    for c in range(g.n_checks):
        idx = g.check_vars(c)
        mask = 0
        for v in idx:
            mask |= 1 << v
        var_masks.append(mask)
        label = g.labels[c]
        if label is None:
            word_masks.append(None)
            continue
        words = label.nonzero_codewords()
        masks = []
        for w in range(words.shape[0]):
            m = 0
            for j, v in enumerate(idx):
                if words[w, j]:
                    m |= 1 << v
            masks.append(m)
        word_masks.append(tuple(masks))
    for size in range(1, len(active) + 1):
        for combo in itertools.combinations(active, size):
            s_mask = 0
            for v in combo:
                s_mask |= 1 << v
            ok = True
            for c in range(g.n_checks):
                hit = var_masks[c] & s_mask
                if not hit:
                    continue
                wm = word_masks[c]
                if wm is None:
                    if hit.bit_count() < 2:
                        ok = False
                        break
                elif not any(m & ~s_mask == 0 for m in wm):
                    ok = False
                    break
            if not ok:
                continue
            if kind == "simple":
                return StoppingSet(support=tuple(sorted(combo)), kind="simple")
            witness = cone_point_with_support(g, combo)
            if witness is not None:
                return StoppingSet(support=tuple(sorted(combo)), kind="generalized",
                                   witness=witness)
    return None


# -- exact block-error weight minimum -----------------------------------------------


def _float_arrays(total: int, rows) -> tuple:
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for coeffs, sense, rhs in rows:
        fc = [float(v) for v in coeffs]
        if sense == "<=":
            a_ub.append(fc)
            b_ub.append(float(rhs))
        elif sense == ">=":
            a_ub.append([-v for v in fc])
            b_ub.append(-float(rhs))
        else:
            a_eq.append(fc)
            b_eq.append(float(rhs))
    return (np.array(a_ub) if a_ub else None, np.array(b_ub) if b_ub else None,
            np.array(a_eq) if a_eq else None, np.array(b_eq) if b_eq else None)


def _stage_rows(system: _ConeSystem, top: tuple[int, ...]):
    """Rows for one top-set subproblem: cone, normalization, ordering."""
    n, total = system.n_vars, system.total_vars
    rows = list(system.rows)
    norm = [F0] * total
    for i in range(n):
        norm[i] = F1
    rows.append((tuple(norm), "==", F1))
    inside = set(top)
    for i in top:
        for j in range(n):
            if j not in inside:
                coeffs = [F0] * total
                coeffs[i] = -F1
                coeffs[j] = F1
                rows.append((tuple(coeffs), "<=", F0))  # q_j <= q_i
    return rows


def _gap_objective(system: _ConeSystem, top: tuple[int, ...]) -> list[Fraction]:
    n, total = system.n_vars, system.total_vars
    obj = [F0] * total
    inside = set(top)
    for i in range(n):
        obj[i] = F1 if i in inside else -F1
    return obj


def min_bsc_pseudoweight(g) -> tuple[int, Pseudocodeword] | None:
    """Exact minimum flipping-set weight over the fundamental cone.

    Staged search on e = 1, 2, ...: for every candidate top set E of size e
    (subsets of the peeled candidate set), maximize mass(E) - mass(rest) over
    the normalized cone with E on top.  The first stage with a nonnegative
    optimum decides: weight 2e-1 when some optimum is positive, 2e when the
    best optima are exactly zero.  A float LP prescreen discards clearly
    negative candidates; every surviving decision is re-solved exactly.

    Returns None when the cone has no nonzero point.  Guarded at 14 variables.
    """
    if g.n_vars > MAX_BSC_VARS:
        raise SearchSpaceTooLarge(f"{g.n_vars} variables exceed the guard ({MAX_BSC_VARS})")
    active = sorted(peel_to_max_stopping_subset(g))
    if not active:
        return None
    smin = min_stopping_set(g)
    if smin is None:
        return None
    cap = len(smin.support)
    system = _within_system(g, range(g.n_vars))
    total = system.total_vars
    for e in range(1, cap + 1):
        best_gap = None
        best_witness = None
        for top in itertools.combinations(active, e):
            rows = _stage_rows(system, top)
            a_ub, b_ub, a_eq, b_eq = _float_arrays(total, rows)
            c = np.array([-float(v) for v in _gap_objective(system, top)])
            screen = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                             bounds=(0, None), method="highs")
            if screen.status == 2:  # infeasible
                continue
            if screen.status == 0 and -screen.fun < -1e-6:
                continue  # safely negative gap
            res = lp_solve(lp(total, _gap_objective(system, top), rows))
            if res.status != "optimal":
                continue
            if res.value is not None and res.value >= 0:
                if best_gap is None or res.value > best_gap:
                    best_gap = res.value
                    best_witness = res.x
                if best_gap > 0:
                    # Sign settles the stage: any earlier-deciding top set
                    # would have surfaced in a smaller stage.
                    break
        if best_gap is not None:
            weight = 2 * e - 1 if best_gap > 0 else 2 * e
            scale = _polytope_scale(system, best_witness)
            values = tuple(v / scale for v in best_witness[: system.n_vars])
            pc = Pseudocodeword(values=values, certificate=f"top-set-stage-{e}")
            return weight, pc
    raise SolverFailure("staged search passed the stopping-set cap without success")


# -- exact Gaussian-channel weight minimum -------------------------------------------


def min_awgn_pseudoweight(g, basis_budget: int = AWGN_BASIS_BUDGET
                          ) -> tuple[Fraction, Pseudocodeword] | None:
    """Exact minimum Gaussian-channel weight over the fundamental cone.

    On the normalized cone section the weight is 1 / sum(q^2), so the minimum
    weight is attained where sum(q^2) is largest; a convex function attains
    its maximum at a vertex, so the exact value comes from enumerating the
    section's vertices in rational arithmetic.  Returns None when the cone is
    trivial.  Guarded at 64 variables plus a basis-count budget.
    """
    if g.n_vars > MAX_AWGN_VARS:
        raise SearchSpaceTooLarge(f"{g.n_vars} variables exceed the guard ({MAX_AWGN_VARS})")
    system = _within_system(g, range(g.n_vars))
    n, total = system.n_vars, system.total_vars
    rows = list(system.rows)
    norm = [F0] * total
    for i in range(n):
        norm[i] = F1
    rows.append((tuple(norm), "==", F1))
    prob = lp(total, [F0] * total, rows)
    feas = lp_solve(prob)
    if feas.status != "optimal":
        return None
    vertices = enumerate_vertices(prob, budget=basis_budget)
    best_ss = F0
    best_point = None
    for v in vertices:
        ss = sum(q * q for q in v[:n])
        if ss > best_ss or (ss == best_ss and best_point is not None and v < best_point):
            best_ss = ss
            best_point = v
    if best_point is None or best_ss == 0:
        return None
    weight = F1 / best_ss
    scale = _polytope_scale(system, best_point)
    values = tuple(q / scale for q in best_point[:n])
    return weight, Pseudocodeword(values=values, certificate="norm-max-vertex")


# -- cover realizability --------------------------------------------------------------


MAX_LIFT_VARS = 10
MAX_LIFT_DEGREE = 4


@dataclass(frozen=True)
class LiftWitness:
    degree: int
    permutations: tuple[tuple[int, ...], ...]


def _distribute_local_codewords(words: np.ndarray, counts: list[int], degree: int):
    """Multiset of `degree` local codewords whose column sums equal counts,
    found by depth-first search; None when impossible."""
    d = len(counts)

    def rec(level: int, remaining: list[int], start: int, chosen: list[int]):
        if level == degree:
            return list(chosen) if all(r == 0 for r in remaining) else None
        # prune: remaining ones must fit in the levels left
        left = degree - level
        if any(r > left or r < 0 for r in remaining):
            return None
        for w in range(start, words.shape[0]):
            row = words[w]
            nxt = [remaining[j] - int(row[j]) for j in range(d)]
            if any(v < 0 for v in nxt):
                continue
            chosen.append(w)
            got = rec(level + 1, nxt, w, chosen)
            if got is not None:
                return got
            chosen.pop()
        return None

    return rec(0, list(counts), 0, [])


def lift_realizability_check(g, p, max_degree: int = MAX_LIFT_DEGREE):
    """Search for a cover of degree up to max_degree realizing p exactly.

    p must be rational; candidate degrees are the multiples of the least
    common denominator.  Returns a LiftWitness on success, None when no cover
    within the degree cap realizes p (inconclusive for larger degrees).
    Guarded at 10 variables and degree 4.
    """
    vals = _coerce_values(p)
    _check_length(g, vals)
    if g.n_vars > MAX_LIFT_VARS:
        raise SearchSpaceTooLarge(f"{g.n_vars} variables exceed the guard ({MAX_LIFT_VARS})")
    if max_degree > MAX_LIFT_DEGREE:
        raise DegreeTooLarge(f"degree cap {max_degree} exceeds the guard ({MAX_LIFT_DEGREE})")
    if any(v < 0 or v > 1 for v in vals):
        return None
    base_l = 1
    for v in vals:
        base_l = base_l * v.denominator // gcd(base_l, v.denominator)
    if base_l > max_degree:
        raise DegreeTooLarge(f"denominator {base_l} exceeds the degree cap {max_degree}")
    from . import tanner  # deferred: tanner imports this module for Pseudocodeword

    for degree in range(base_l, max_degree + 1, base_l):
        counts = [int(v * degree) for v in vals]
        assignment = {}
        feasible = True
        for c in range(g.n_checks):
            idx = g.check_vars(c)
            label = g.labels[c]
            if label is None:
                d = len(idx)
                words = np.array([[ (w >> j) & 1 for j in range(d)]
                                  for w in range(1 << d)
                                  if bin(w).count("1") % 2 == 0], dtype=np.uint8)
            else:
                words = label.codewords
            local_counts = [counts[i] for i in idx]
            chosen = _distribute_local_codewords(words, local_counts, degree)
            if chosen is None:
                feasible = False
                break
            assignment[c] = (words, chosen)
        if not feasible:
            continue
        perms = _assemble_permutations(g, counts, assignment, degree)
        spec = tanner.LiftSpec(degree=degree, permutations=tuple(perms))
        lift = tanner.build_lift(g, spec)
        word = np.zeros(lift.n_vars, dtype=np.uint8)
        for v in range(g.n_vars):
            word[v * degree: v * degree + counts[v]] = 1
        reduced = tanner.reduce_cover_codeword(word, g, lift)
        if list(reduced.values) != vals:
            raise SolverFailure("internal: assembled cover does not reduce to p")
        return LiftWitness(degree=degree, permutations=tuple(perms))
    return None


def _assemble_permutations(g, counts, assignment, degree):
    """Edge permutations matching the canonical cloud patterns (first
    counts[v] copies of variable v are ones) to the chosen local codewords."""
    perms = []
    for v, c, _vs, _cs in g.edges:
        words, chosen = assignment[c]
        j = g.check_vars(c).index(v)
        one_copies = [t for t in range(degree) if words[chosen[t], j] == 1]
        zero_copies = [t for t in range(degree) if words[chosen[t], j] == 0]
        perm = [0] * degree
        ones = list(range(counts[v]))
        zeros = list(range(counts[v], degree))
        for src, dst in zip(ones, one_copies):
            perm[src] = dst
        for src, dst in zip(zeros, zero_copies):
            perm[src] = dst
        perms.append(tuple(perm))
    return perms
