"""Erasure decoding on constraint graphs and failure-structure comparison.

The decoder repeats local solves to a fixpoint: at each check, the known
bits fix a linear system over GF(2) for the unknown ones, and every unknown
whose value is constant across the solution set is filled in.  For plain
parity checks this is the classic single-unknown rule; for labelled checks
it recovers everything whenever the local erasure count is below the local
minimum distance, and often more.

The decoder keeps two integer masks per check over its sockets: u[c], the
erased sockets, and y[c], the known sockets that carry a 1.  Both are set
once from the erased positions and the received word, through each
variable's (check, socket bit) pairs (`TannerGraph.var_sockets`); a filled
position then clears its bit in u, and sets it in y when its value is 1, at
its own checks only.  A check visit is one cached-rule lookup on u[c]: for
the check's parity rows and that mask, one reduction gives a dependency mask
per determined socket (its value is the parity of y[c] under the mask) and
the consistency masks y[c] must satisfy; the rule is computed on first use.
Rounds follow a frontier: the first visits every check, each later one only
the checks next to positions filled in the round before.  This equals a
sweep over every check in every round: a check none of whose positions was
just filled has the masks of its last visit, and that visit found no
contradiction (it would have raised) and nothing to fill (a fill puts the
check on the next frontier).  Determinability is monotone in the known set,
so the fixpoint does not depend on the schedule; the argument above shows
that the round count and the errors raised do not either.

The scan relates decoding failure to graph structure.  It enumerates
erasure patterns as integer masks over the variables and runs the same
fixpoint on each.  Its structural predicate comes from the stopping-set peel
of `polytope` on the same mask: the largest subset that every check touches
either not at all or at least its threshold times (2 at a plain check, the
label's minimum distance otherwise).  On all-parity graphs failure is
equivalent to that core being nonempty, i.e. to the erasure set containing a
stopping set, and the scan checks both directions.  On labelled graphs the
predicate is that the core supports a nonzero cone point (one exact LP);
one direction is a theorem (such an erasure set is never recovered) and is
asserted; the converse can fail, and the scan counts the gap instead of
pretending otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import sqrt

import numpy as np

from .errors import DomainError, InvalidKnownBits, LengthMismatch, SearchSpaceTooLarge
from .gf2 import BitMatrix, row_echelon
from .polytope import _peel, _peel_rules, has_nonzero_cone_point_within

Z_95 = 1.959963984540054
SCAN_BUDGET = 1 << 20
# Local rules kept per (parity rows, erased mask); filled on first use.
RULE_CACHE_SIZE = 1 << 16


@dataclass(frozen=True, slots=True)
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
        return set(np.flatnonzero(arr).tolist())
    if not arr.size:
        return set()
    if arr.dtype.kind not in "iu":
        raise DomainError(f"erasure indices must be integers, got dtype {arr.dtype}")
    out = set(arr.reshape(-1).tolist())
    if min(out) < 0 or max(out) >= g.n_vars:
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


def _fixpoint(g, unknown: set[int], bits: list[int]) -> int:
    """Fill every position the checks determine, in place: filled positions
    leave `unknown` and take their value in `bits`, which must be 0 at every
    unknown position on entry.  Returns the number of rounds."""
    sockets = g.var_sockets()
    rows = g.local_parity_masks()
    u = [0] * g.n_checks
    y = [0] * g.n_checks
    for v in unknown:
        for c, b in sockets[v]:
            u[c] |= b
    for v in compress(range(len(bits)), bits):
        for c, b in sockets[v]:
            y[c] |= b
    frontier = range(g.n_checks)
    rounds = 0
    while unknown:
        filled = {}
        for c in frontier:
            determined, consistency = _local_rule(rows[c], u[c])
            yc = y[c]
            for mask in consistency:
                if (mask & yc).bit_count() & 1:
                    raise InvalidKnownBits(
                        "known bits are inconsistent at a check" if u[c]
                        else "known bits violate a fully known check")
            if determined:
                idx = g.check_vars(c)
                for t, dep in determined:
                    v = idx[t]
                    val = (dep & yc).bit_count() & 1
                    if filled.setdefault(v, val) != val:
                        raise InvalidKnownBits(
                            f"checks disagree on erased position {v}")
        if not filled:
            break
        touched = set()
        for v, val in filled.items():
            bits[v] = val
            unknown.discard(v)
            for c, b in sockets[v]:
                u[c] ^= b
                if val:
                    y[c] |= b
                touched.add(c)
        rounds += 1
        frontier = sorted(touched)
    return rounds


def decode_bec(g, erased, received=None) -> DecodeResult:
    """Iterative erasure decoding to a fixpoint.

    erased is a boolean mask over the variables or a list of integer
    positions; non-integer positions raise DomainError rather than being
    truncated.  received supplies the known bits (erased positions are
    ignored); the default is the zero word.  Raises InvalidKnownBits when
    the known bits contradict a check, which means the input was not a
    codeword pattern; a received word that decodes to a full word is
    checked against every parity row.
    """
    unknown = _as_erasure_set(g, erased)
    if received is None:
        bits = [0] * g.n_vars
    else:
        rec = np.asarray(received, dtype=np.uint8) & 1
        if rec.shape != (g.n_vars,):
            raise LengthMismatch("received word length differs from n_vars")
        bits = rec.tolist()
        for v in unknown:
            bits[v] = 0
    rounds = _fixpoint(g, unknown, bits)
    residual = tuple(sorted(unknown))
    # the fixpoint stops once nothing is unknown, before it revisits the
    # checks next to its last fills, so a full word is checked once here
    if received is not None and not residual and g.to_parity_matrix().mul_vec(bits).any():
        raise InvalidKnownBits("received word violates a check")
    return DecodeResult(word=None if residual else np.array(bits, dtype=np.uint8),
                        residual=residual, rounds=rounds)


# -- structure scan ---------------------------------------------------------------


@dataclass(frozen=True, slots=True)
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

    Each pattern is peeled once (`polytope._peel`, rules built once per
    scan).  All-parity graphs: predicate is "the peeled core is nonempty",
    i.e. the pattern contains a stopping set; the two must agree exactly.
    Labelled graphs: predicate is "the core supports a nonzero cone point";
    predicate without failure would refute a theorem and raises, failure
    without predicate is counted and reported.  A negative sample count
    raises ValueError; zero samples give a vacuous report.
    """
    n = g.n_vars
    if samples is None:
        if (1 << n) > budget:
            raise SearchSpaceTooLarge(
                f"2^{n} erasure patterns exceed the budget ({budget}); pass samples=")
        total = 1 << n
        masks = range(total)
    else:
        if samples < 0:
            raise ValueError(f"samples must be non-negative, got {samples}")
        rng = np.random.default_rng([seed, n, samples])
        total = samples
        masks = (sum(1 << int(i) for i in np.flatnonzero(rng.integers(0, 2, n)))
                 for _ in range(samples))
    simple = g.all_simple
    rules = _peel_rules(g)
    stuck_count = 0
    structural = 0
    stuck_no_struct = 0
    struct_no_stuck = 0
    for mask in masks:
        unknown = {v for v in range(n) if mask >> v & 1}
        _fixpoint(g, unknown, [0] * n)
        stuck = bool(unknown)
        core = _peel(rules, mask)
        has_struct = bool(core) and (simple or has_nonzero_cone_point_within(
            g, [v for v in range(n) if core >> v & 1]) is not None)
        stuck_count += stuck
        structural += has_struct
        if stuck and not has_struct:
            stuck_no_struct += 1
        if has_struct and not stuck:
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


@dataclass(frozen=True, slots=True)
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
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
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
