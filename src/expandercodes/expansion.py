"""Vertex expansion profiles and spectral edge-counting inequalities.

The expansion profile of a constraint graph is the worst neighborhood ratio
|N(U)| / (c |U|) over variable subsets strictly smaller than a size cutoff.
It is computed exhaustively under an explicit subset budget, so results are
exact and reproducible rather than sampled.

Two spectral edge bounds are provided with exhaustive verifiers: the
Alon-Chung internal-edge bound for regular graphs and the Janwa-Lal
crossing-edge bound for biregular bipartite graphs.  Verification compares
exact rational counts against the bound evaluated at a certified upper
eigenvalue estimate (caller-supplied or computed), so a pass is meaningful
despite float spectra.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb

import numpy as np

from .errors import DomainError, NotRegular, SubsetSpaceTooLarge
from .graphs import BipartiteGraph, Graph
from .lpsolve import _frac
from .spectral import certified_mu

SUBSET_BUDGET = 20_000_000


@dataclass(frozen=True, slots=True)
class ExpansionProfile:
    """Worst-case neighborhood expansion over small variable subsets."""

    alpha: Fraction
    n: int
    c: int
    delta: Fraction
    witness: tuple[int, ...] | None
    subsets_checked: int
    vacuous: bool

    def to_dict(self) -> dict:
        return {"alpha": str(self.alpha), "n": self.n, "c": self.c,
                "delta": str(self.delta),
                "witness": list(self.witness) if self.witness else None,
                "subsets_checked": self.subsets_checked,
                "vacuous": self.vacuous}


def _left_neighbor_masks(g) -> tuple[int, list[int], int]:
    """(variable count, per-variable check bitmask, common left degree)."""
    if isinstance(g, BipartiteGraph):
        c, _ = g.biregular_degrees()
        masks = [0] * g.n_left
        for (l, r) in g.edges:
            masks[l] |= 1 << r
        return g.n_left, masks, c
    degs = {g.var_degree(v) for v in range(g.n_vars)}
    if len(degs) != 1:
        raise NotRegular("variable degrees are not constant")
    masks = [0] * g.n_vars
    for v in range(g.n_vars):
        for ch in g.var_checks(v):
            masks[v] |= 1 << ch
    return g.n_vars, masks, degs.pop()


def vertex_expansion_profile(g, alpha, budget: int = SUBSET_BUDGET) -> ExpansionProfile:
    """Exhaustive expansion profile over subsets of size strictly below
    alpha * n.

    delta is the minimum of |N(U)| / (c |U|); the witness is the first subset
    attaining it in size-then-lexicographic order.  When no nonempty subset
    qualifies the profile is vacuous with delta = 1.
    """
    alpha = _frac(alpha)
    if alpha <= 0 or alpha > 1:
        raise DomainError(f"alpha = {alpha} outside (0, 1]")
    n, masks, c = _left_neighbor_masks(g)
    smax = min(n, ceil(alpha * n) - 1)
    if smax < 1:
        return ExpansionProfile(alpha, n, c, Fraction(1), None, 0, True)
    total = sum(comb(n, s) for s in range(1, smax + 1))
    if total > budget:
        raise SubsetSpaceTooLarge(
            f"{total} subsets exceed the budget ({budget}); lower alpha or raise it")
    # Size by size, each (s-1)-prefix's union is OR-ed once and extended by
    # every larger index in order, so subsets are visited lexicographically
    # and the first integer minimum of a size is its first witness.
    best = None
    witness = None
    for s in range(1, smax + 1):
        lo = None
        for prefix in itertools.combinations(range(n - 1), s - 1):
            u = 0
            for v in prefix:
                u |= masks[v]
            start = prefix[-1] + 1 if prefix else 0
            counts = [(u | m).bit_count() for m in masks[start:]]
            k = min(counts)
            if lo is None or k < lo:
                lo = k
                first = prefix + (start + counts.index(k),)
        ratio = Fraction(lo, c * s)
        if best is None or ratio < best:
            best = ratio
            witness = first
    return ExpansionProfile(alpha, n, c, best, witness, total, False)


# -- internal-edge bound for regular graphs -------------------------------------------


def alon_chung_bound(gamma, n: int, d: int, mu) -> Fraction:
    """Upper bound on edges inside a subset of gamma * n vertices of a
    d-regular graph whose nontrivial eigenvalues are at most mu in absolute
    value: (nd/2) (gamma^2 + (mu/d)(gamma - gamma^2))."""
    gamma, mu = _frac(gamma), _frac(mu)
    if not 0 <= gamma <= 1:
        raise DomainError(f"gamma = {gamma} outside [0, 1]")
    if n < 1 or d < 1:
        raise DomainError("need n >= 1 and d >= 1")
    if mu < 0:
        raise DomainError("mu must be nonnegative")
    return Fraction(n * d, 2) * (gamma * gamma + (mu / d) * (gamma - gamma * gamma))


@dataclass(frozen=True)
class EdgeBoundReport:
    holds: bool
    subsets_checked: int
    violations: int
    max_excess: Fraction  # count minus bound, at the worst subset
    worst: tuple


def regular_mu(g: Graph) -> Fraction:
    """Certified upper bound on the largest nontrivial |eigenvalue| of a
    d-regular graph: the top magnitude of n A - d J, over n."""
    return certified_mu(g.n * g.adjacency() - g.regular_degree(), g.n)


def verify_alon_chung(g: Graph, mu=None, budget: int = SUBSET_BUDGET
                      ) -> EdgeBoundReport:
    """Check the internal-edge bound on every nonempty subset, exactly.

    With mu omitted, `regular_mu(g)` is used; overestimating mu only loosens
    the bound, so a pass stays meaningful.  The bound depends on the subset
    only through its size, so subsets are screened with numpy against
    per-size integer thresholds; the excess is then evaluated in rationals at
    the per-size maxima.
    """
    d = g.regular_degree()
    n = g.n
    if (1 << n) - 1 > budget:
        raise SubsetSpaceTooLarge(f"2^{n} subsets exceed the budget ({budget})")
    if mu is None:
        mu = regular_mu(g)
    mu = _frac(mu)
    bounds = [alon_chung_bound(Fraction(s, n), n, d, mu) for s in range(n + 1)]
    # smallest integer count that violates the bound for a size-s subset
    thresholds = np.array([int(b) + 1 for b in bounds], dtype=np.int64)
    best_count = [-1] * (n + 1)
    best_subset = [None] * (n + 1)
    edge_u = np.array([u for (u, _) in g.edges], dtype=np.uint32)
    edge_v = np.array([v for (_, v) in g.edges], dtype=np.uint32)
    violations = 0
    checked = 0
    chunk = 1 << 16
    for lo in range(1, 1 << n, chunk):
        ss = np.arange(lo, min(lo + chunk, 1 << n), dtype=np.uint32)
        inside = ((ss[:, None] >> edge_u) & 1) & ((ss[:, None] >> edge_v) & 1)
        counts = inside.sum(axis=1).astype(np.int64)
        sizes = np.zeros(len(ss), dtype=np.int64)
        for b in range(n):
            sizes += (ss >> b) & 1
        checked += len(ss)
        violations += int((counts >= thresholds[sizes]).sum())
        for s in range(1, n + 1):
            mask = sizes == s
            if mask.any():
                j = int(np.argmax(np.where(mask, counts, -1)))
                if int(counts[j]) > best_count[s]:
                    best_count[s] = int(counts[j])
                    best_subset[s] = int(ss[j])
    max_excess = None
    worst = None
    for s in range(1, n + 1):
        if best_count[s] < 0:
            continue
        excess = Fraction(best_count[s]) - bounds[s]
        if max_excess is None or excess > max_excess:
            max_excess = excess
            worst = tuple(b for b in range(n) if (best_subset[s] >> b) & 1)
    return EdgeBoundReport(holds=violations == 0, subsets_checked=checked,
                           violations=violations, max_excess=max_excess,
                           worst=worst)


# -- crossing-edge bound for biregular bipartite graphs --------------------------------


def janwa_lal_bound(size_s: int, size_t: int, c: int, d: int, m: int, mu
                        ) -> Fraction:
    """Upper bound on edges between S (left, |left| = m, degree c) and T
    (right, degree d) when the nontrivial spectrum is at most mu:
    (d/m) |S| |T| + (mu/2)(|S| + |T|)."""
    if size_s < 0 or size_t < 0 or c < 1 or d < 1 or m < 1:
        raise DomainError("sizes must be nonnegative and parameters positive")
    mu = _frac(mu)
    if mu < 0:
        raise DomainError("mu must be nonnegative")
    return Fraction(d, m) * size_s * size_t + (mu / 2) * (size_s + size_t)


def biregular_mu(bg: BipartiteGraph) -> Fraction:
    """Certified upper bound on the largest nontrivial |eigenvalue| of a
    (c, d)-biregular bipartite graph with m left vertices: the top magnitude
    of m A - d K, over m, where K is all ones on the off-diagonal blocks."""
    _, d = bg.biregular_degrees()
    m = bg.n_left
    left = np.arange(m + bg.n_right) < m
    return certified_mu(m * bg.full_adjacency() - d * np.not_equal.outer(left, left), m)


def verify_janwa_lal(bg: BipartiteGraph, mu=None, budget: int = SUBSET_BUDGET
                     ) -> EdgeBoundReport:
    """Check the crossing-edge bound on every nonempty S x T pair, exactly.

    With mu omitted, `biregular_mu(bg)` is used.  Same per-size
    threshold screen as the internal-edge verifier, with a (|S|, |T|) table.
    """
    c, d = bg.biregular_degrees()
    m, n = bg.n_left, bg.n_right
    pairs = ((1 << m) - 1) * ((1 << n) - 1)
    if pairs > budget:
        raise SubsetSpaceTooLarge(f"{pairs} subset pairs exceed the budget ({budget})")
    if mu is None:
        mu = biregular_mu(bg)
    mu = _frac(mu)
    bounds = [[janwa_lal_bound(s, t, c, d, m, mu) for t in range(n + 1)]
              for s in range(m + 1)]
    thresholds = np.array([[int(b) + 1 for b in row] for row in bounds],
                          dtype=np.int64)
    edge_l = np.array([l for (l, _) in bg.edges], dtype=np.uint32)
    edge_r = np.array([r for (_, r) in bg.edges], dtype=np.uint32)
    t_all = np.arange(1, 1 << n, dtype=np.uint32)
    t_sizes = np.zeros(len(t_all), dtype=np.int64)
    for b in range(n):
        t_sizes += (t_all >> b) & 1
    right_in_t = (t_all[:, None] >> edge_r) & 1  # (2^n - 1, |E|)
    best_count = {}
    best_pair = {}
    violations = 0
    checked = 0
    for s_mask in range(1, 1 << m):
        left_in_s = (np.uint32(s_mask) >> edge_l) & 1
        counts = (right_in_t & left_in_s).sum(axis=1).astype(np.int64)
        size_s = int(s_mask).bit_count()
        checked += len(t_all)
        violations += int((counts >= thresholds[size_s][t_sizes]).sum())
        for t in range(1, n + 1):
            mask = t_sizes == t
            j = int(np.argmax(np.where(mask, counts, -1)))
            if not mask[j]:
                continue
            key = (size_s, t)
            if int(counts[j]) > best_count.get(key, -1):
                best_count[key] = int(counts[j])
                best_pair[key] = (s_mask, int(t_all[j]))
    max_excess = None
    worst = None
    for (s, t), count in best_count.items():
        excess = Fraction(count) - bounds[s][t]
        if max_excess is None or excess > max_excess:
            max_excess = excess
            s_mask, t_mask = best_pair[(s, t)]
            worst = (tuple(b for b in range(m) if (s_mask >> b) & 1),
                     tuple(b for b in range(n) if (t_mask >> b) & 1))
    return EdgeBoundReport(holds=violations == 0, subsets_checked=checked,
                           violations=violations, max_excess=max_excess,
                           worst=worst)
