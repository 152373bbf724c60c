"""Erasure decoding on constraint graphs and failure-structure comparison.

The decoder repeats local solves to a fixpoint: at each check, the known
bits fix a linear system over GF(2) for the unknown ones, and every unknown
whose value is constant across the solution set is filled in.  For plain
parity checks this is the classic single-unknown rule; for labelled checks
it recovers everything whenever the local erasure count is below the local
minimum distance, and often more.

Each local solve is a cached rule.  For a check's parity rows and its local
erased mask, one reduction gives a dependency mask per determined position
(its value is the parity of the known bits under the mask) and the
consistency masks the known bits must satisfy; the rule is computed on first
use and then looked up.  Rounds follow a frontier: the first visits every
check, each later one only the checks next to positions filled in the round
before.  This equals a sweep over every check in every round: a check none
of whose positions was just filled sees what it saw at its last visit, and
that visit found no contradiction (it would have raised) and nothing to fill
(a fill puts the check on the next frontier).  Determinability is monotone
in the known set, so the fixpoint does not depend on the schedule; the
argument above shows that the round count and the errors raised do not
either.

The scan relates decoding failure to graph structure.  On all-parity graphs
failure is equivalent to the erasure set containing a nonempty stopping set,
and the scan checks both directions against an independent peeling oracle.
On labelled graphs one direction is a theorem (an erasure set supporting a
nonzero cone point is never recovered) and is asserted; the converse can
fail, and the scan counts the gap instead of pretending otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import sqrt

import numpy as np

from .errors import InvalidKnownBits, LengthMismatch, SearchSpaceTooLarge
from .gf2 import BitMatrix, row_echelon
from .polytope import has_nonzero_cone_point_within, peel_to_max_stopping_subset

Z_95 = 1.959963984540054
SCAN_BUDGET = 1 << 20
# Local rules kept per (parity rows, erased mask); filled on first use.
RULE_CACHE_SIZE = 1 << 16


@dataclass(frozen=True)
class DecodeResult:
    word: np.ndarray | None  # recovered word, None while bits remain unknown
    residual: tuple[int, ...]  # still-unknown positions
    rounds: int

    @property
    def stuck(self) -> bool:
        return bool(self.residual)


def _as_erasure_set(g, erased) -> set[int]:
    arr = np.asarray(erased)
    if arr.dtype == bool:
        if arr.shape != (g.n_vars,):
            raise LengthMismatch("erasure mask length differs from n_vars")
        return set(int(i) for i in np.flatnonzero(arr))
    out = set(int(i) for i in arr.reshape(-1)) if arr.size else set()
    if any(i < 0 or i >= g.n_vars for i in out):
        raise LengthMismatch("erasure index out of range")
    return out


@lru_cache(maxsize=RULE_CACHE_SIZE)
def _local_rule(rows: tuple[int, ...], u: int
                ) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """Decoding rule of one check for the local erased mask u.

    rows are the check's parity rows as socket masks.  Returns
    (determined, consistency): determined lists (t, dep) for every erased
    socket t whose value is fixed by the known ones, value_t = parity(dep & y)
    with y the known local bits; the known bits are consistent with the check
    exactly when parity(mask & y) is even for every consistency mask.  Both
    come from one reduction of [h[:, U] | I]: a row whose U part reduced to
    e_t expresses x_t through known bits, and a row whose U part vanished is
    a parity check on known bits alone.
    """
    erased = [t for t in range(u.bit_length()) if (u >> t) & 1]
    k, r = len(erased), len(rows)
    a = np.zeros((r, k + r), dtype=np.uint8)
    for i, row in enumerate(rows):
        a[i, :k] = [(row >> t) & 1 for t in erased]
        a[i, k + i] = 1
    reduced, _ = row_echelon(BitMatrix(a))
    determined, consistency = [], []
    for line in reduced:
        mask = 0
        for i in np.flatnonzero(line[k:]):
            mask ^= rows[i]
        hits = np.flatnonzero(line[:k])
        if hits.size == 0 and mask:
            consistency.append(mask)
        elif hits.size == 1:
            determined.append((erased[hits[0]], mask & ~u))
    return tuple(sorted(determined)), tuple(consistency)


def decode_bec(g, erased, received=None) -> DecodeResult:
    """Iterative erasure decoding to a fixpoint.

    received supplies the known bits (erased positions are ignored); the
    default is the zero word.  Raises InvalidKnownBits when the known bits
    contradict a check, which means the input was not a codeword pattern.
    """
    unknown = _as_erasure_set(g, erased)
    if received is None:
        bits = [0] * g.n_vars
    else:
        rec = np.asarray(received, dtype=np.uint8) & 1
        if rec.shape != (g.n_vars,):
            raise LengthMismatch("received word length differs from n_vars")
        # the rounds below never run without unknowns, so validate here
        if not unknown and g.to_parity_matrix().mul_vec(rec).any():
            raise InvalidKnownBits("received word violates a check")
        bits = rec.tolist()
        for v in unknown:
            bits[v] = 0
    rows = g.local_parity_masks()
    frontier = range(g.n_checks)
    rounds = 0
    while unknown:
        filled = {}
        for c in frontier:
            idx = g.check_vars(c)
            u = y = 0
            for t, v in enumerate(idx):
                if v in unknown:
                    u |= 1 << t
                elif bits[v]:
                    y |= 1 << t
            determined, consistency = _local_rule(rows[c], u)
            for mask in consistency:
                if (mask & y).bit_count() & 1:
                    raise InvalidKnownBits(
                        "known bits are inconsistent at a check" if u
                        else "known bits violate a fully known check")
            for t, dep in determined:
                v = idx[t]
                val = (dep & y).bit_count() & 1
                if filled.setdefault(v, val) != val:
                    raise InvalidKnownBits(
                        f"checks disagree on erased position {v}")
        if not filled:
            break
        for v, val in filled.items():
            bits[v] = val
            unknown.discard(v)
        rounds += 1
        frontier = sorted({c for v in filled for c in g.var_checks(v)})
    residual = tuple(sorted(unknown))
    return DecodeResult(word=None if residual else np.array(bits, dtype=np.uint8),
                        residual=residual, rounds=rounds)


# -- structure scan ---------------------------------------------------------------


def _peel_single_unknown(check_vars_list, n: int, erased: frozenset) -> frozenset:
    """Independent oracle for all-parity graphs: repeatedly fill any erased
    position that is the lone erased member of some check."""
    e = set(erased)
    changed = True
    while changed and e:
        changed = False
        for idx in check_vars_list:
            members = [v for v in idx if v in e]
            if len(members) == 1:
                e.discard(members[0])
                changed = True
    return frozenset(e)


@dataclass(frozen=True)
class FailureScanReport:
    kind: str  # "simple" | "generalized"
    patterns: int
    decoder_stuck: int
    structural: int  # patterns containing the structural failure witness
    stuck_without_structure: int
    structure_without_stuck: int

    @property
    def equivalent(self) -> bool:
        return self.stuck_without_structure == 0 and self.structure_without_stuck == 0


def failure_equivalence_scan(g, samples: int | None = None, seed: int = 0,
                             budget: int = SCAN_BUDGET) -> FailureScanReport:
    """Compare decoding failure with the structural predicate over erasure
    patterns (exhaustive when 2^n fits the budget, otherwise sampled).

    All-parity graphs: predicate is "contains a nonempty stopping set" via an
    independent single-unknown peeler; the two must agree exactly.  Labelled
    graphs: predicate is "supports a nonzero cone point"; predicate without
    failure would refute a theorem and raises, failure without predicate is
    counted and reported.
    """
    n = g.n_vars
    if samples is None:
        if (1 << n) > budget:
            raise SearchSpaceTooLarge(
                f"2^{n} erasure patterns exceed the budget ({budget}); pass samples=")
        total = 1 << n
        patterns = (frozenset(b for b in range(n) if (mask >> b) & 1)
                    for mask in range(total))
    else:
        rng = np.random.default_rng([seed, n, samples])
        total = samples
        patterns = (frozenset(int(i) for i in np.flatnonzero(rng.integers(0, 2, n)))
                    for _ in range(samples))
    simple = g.all_simple
    check_vars_list = [g.check_vars(c) for c in range(g.n_checks)]
    stuck_count = 0
    structural = 0
    stuck_no_struct = 0
    struct_no_stuck = 0
    for e in patterns:
        res = decode_bec(g, sorted(e))
        if simple:
            has_struct = bool(_peel_single_unknown(check_vars_list, n, e))
        else:
            core = peel_to_max_stopping_subset(g, e)
            has_struct = bool(core) and has_nonzero_cone_point_within(g, core) is not None
        stuck_count += res.stuck
        structural += has_struct
        if res.stuck and not has_struct:
            stuck_no_struct += 1
        if has_struct and not res.stuck:
            struct_no_stuck += 1
    if struct_no_stuck and not simple:
        raise AssertionError(
            "a supported erasure pattern was decoded; this contradicts the "
            "cone-support obstruction")
    return FailureScanReport(kind="simple" if simple else "generalized",
                             patterns=total, decoder_stuck=stuck_count,
                             structural=structural,
                             stuck_without_structure=stuck_no_struct,
                             structure_without_stuck=struct_no_stuck)


# -- Monte Carlo ------------------------------------------------------------------


@dataclass(frozen=True)
class FerRow:
    erasure_prob: float
    trials: int
    failures: int
    fer: float
    ci_low: float
    ci_high: float

    def to_dict(self) -> dict:
        return {"erasure_prob": self.erasure_prob, "trials": self.trials,
                "failures": self.failures, "fer": self.fer,
                "ci_low": self.ci_low, "ci_high": self.ci_high}


def wilson_interval(failures: int, trials: int, z: float = Z_95) -> tuple[float, float]:
    if trials < 1:
        raise ValueError("trials must be positive")
    phat = failures / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def monte_carlo_fer(g, erasure_probs, trials: int, seed: int,
                    trial_hook=None) -> list[FerRow]:
    """Frame-erasure rate of the fixpoint decoder on the all-zero word,
    one row per channel parameter, with a 95% score interval.

    trial_hook, when given, receives (prob_index, trial_index, erased, stuck)
    for every trial; the trial stream depends only on (seed, prob_index,
    trials), so logs are reproducible and mergeable across probabilities.
    """
    rows = []
    for idx, p in enumerate(erasure_probs):
        p = float(p)
        if not 0 <= p <= 1:
            raise ValueError(f"erasure probability {p} outside [0, 1]")
        rng = np.random.default_rng([seed, idx, trials])
        failures = 0
        for t in range(trials):
            erased = np.flatnonzero(rng.random(g.n_vars) < p)
            stuck = decode_bec(g, erased).stuck
            failures += stuck
            if trial_hook is not None:
                trial_hook(idx, t, erased, stuck)
        low, high = wilson_interval(failures, trials)
        rows.append(FerRow(erasure_prob=p, trials=trials, failures=failures,
                           fer=failures / trials, ci_low=low, ci_high=high))
    return rows
