"""Lower bounds from expansion and spectra, with oracle-backed verification.

Every bound is reported with its gating hypotheses spelled out, the computed
value (exact rational), whether the hypotheses hold, and whether the value is
positive enough to say anything.  Values are computed even when a hypothesis
fails, so near-misses are visible; `applicable` is what gates any claim.

Verification recomputes each applicable bound from the graph itself
(expansion profile, certified eigenvalue estimates) and compares it against
an exact oracle: exhaustive minimum distance, exact smallest stopping set,
and the exact pseudoweight minimizers.  Eigenvalue estimates enter every
formula in the direction that can only weaken the bound, so a reported PASS
is meaningful despite float spectra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor

from . import polytope, tanner
from .errors import (
    GuardExceeded,
    InconsistentParameters,
    InputError,
    NotRegular,
)
from .gf2 import min_distance_exhaustive
from .expansion import biregular_mu, regular_mu, vertex_expansion_profile
from .lpsolve import _frac
from .spectral import certified_mu


@dataclass(frozen=True, slots=True)
class Hypothesis:
    name: str
    holds: bool

    def to_dict(self) -> dict:
        return {"name": self.name, "holds": self.holds}


@dataclass(frozen=True, slots=True)
class BoundReport:
    """One lower bound: its value, gating hypotheses, and flags.

    quantity names what is bounded; strict means the bound is a strict
    inequality; meaningful means applicable with a positive value (a bound
    at or below zero is vacuously true and claims nothing).
    """

    bound_id: str
    quantity: str
    value: Fraction | None
    applicable: bool
    meaningful: bool
    strict: bool
    conjectural: bool
    hypotheses: tuple[Hypothesis, ...]

    def to_dict(self) -> dict:
        return {"bound_id": self.bound_id, "quantity": self.quantity,
                "value": None if self.value is None else str(self.value),
                "applicable": self.applicable, "meaningful": self.meaningful,
                "strict": self.strict, "conjectural": self.conjectural,
                "hypotheses": [h.to_dict() for h in self.hypotheses]}


def _report(bound_id: str, quantity: str, value, hyps,
            strict: bool = False, conjectural: bool = False) -> BoundReport:
    applicable = all(h.holds for h in hyps)
    meaningful = applicable and value is not None and value > 0
    return BoundReport(bound_id=bound_id, quantity=quantity, value=value,
                       applicable=applicable, meaningful=meaningful,
                       strict=strict, conjectural=conjectural,
                       hypotheses=tuple(hyps))


# -- biregular constructions --------------------------------------------------------


def case_a_bounds(alpha, n: int, delta, c: int) -> tuple[BoundReport, ...]:
    """Bounds for a plain-parity biregular graph known to expand by a factor
    of delta * c on variable subsets smaller than alpha * n."""
    alpha, delta = _frac(alpha), _frac(delta)
    target = alpha * n
    h_half = Hypothesis("delta > 1/2", delta > Fraction(1, 2))
    dmin = _report("A.dmin", "min_distance", target, [h_half])
    smin = _report("A.smin", "min_stopping_set", target, [h_half])
    h_w = Hypothesis("delta > 2/3 + 1/(3c)",
                     delta > Fraction(2, 3) + Fraction(1, 3 * c))
    h_int = Hypothesis("delta * c is an integer", (delta * c).denominator == 1)
    value = None
    if 2 * delta != 1:
        value = 2 * (target - 1) * (3 * delta - 2) / (2 * delta - 1) - 1
    wbsc = _report("A.wbsc", "bsc_pseudoweight", value, [h_w, h_int], strict=True)
    return (dmin, smin, wbsc)


def case_b_bounds(alpha, n: int, delta, c: int, d: int,
                  local_dmin: int) -> tuple[BoundReport, ...]:
    """Bounds for a biregular graph whose checks share one subcode of
    minimum distance local_dmin (= epsilon * d)."""
    alpha, delta = _frac(alpha), _frac(delta)
    ed = local_dmin
    if ed < 1 or ed > d:
        raise InconsistentParameters(f"local distance {ed} outside 1..{d}")
    target = alpha * n
    h_exp = Hypothesis(f"delta > 1/{ed}", delta > Fraction(1, ed))
    dmin = _report("B.dmin", "min_distance", target, [h_exp])
    smin = _report("B.smin", "min_stopping_set", target, [h_exp])
    h_w = Hypothesis(f"delta > 2/{ed + 1} + 1/({c}*{ed + 1})",
                     delta > Fraction(2, ed + 1) + Fraction(1, c * (ed + 1)))
    h_int = Hypothesis("delta * c is an integer", (delta * c).denominator == 1)
    value = None
    if ed * delta != 1:
        value = 2 * (target - 1) * ((ed + 1) * delta - 2) / (ed * delta - 1) - 1
    wbsc = _report("B.wbsc", "bsc_pseudoweight", value, [h_w, h_int], strict=True)
    return (dmin, smin, wbsc)


# -- single-sided edge-variable construction ------------------------------------------


def case_c_bounds(n: int, d: int, mu, local_dmin: int) -> tuple[BoundReport, ...]:
    """Bounds for the edge-variable construction over a connected d-regular
    base on n vertices with nontrivial eigenvalues at most mu in absolute
    value; local_dmin is the subcode minimum distance (= epsilon * d).

    Connectivity and regularity of the base are the caller's to ensure;
    these reports gate only on the numeric hypotheses.
    """
    mu = _frac(mu)
    if (n * d) % 2 != 0:
        raise InconsistentParameters("n * d must be even")
    if local_dmin < 1 or local_dmin > d:
        raise InconsistentParameters(f"local distance {local_dmin} outside 1..{d}")
    big_n = Fraction(n * d, 2)
    eps = Fraction(local_dmin, d)
    h_mu = Hypothesis("mu < d", mu < d)
    h_gap = Hypothesis("epsilon > mu/d", eps > mu / d)
    ratio = None if mu >= d else (eps - mu / d) / (1 - mu / d)
    dmin = _report("C.dmin", "min_distance",
                   None if ratio is None else big_n * ratio * ratio,
                   [h_mu, h_gap])
    dmin_improved = _report("C.dmin_improved", "min_distance",
                            None if ratio is None else big_n * eps * ratio,
                            [h_mu, h_gap])
    smin = _report("C.smin", "min_stopping_set",
                   None if ratio is None else big_n * eps * ratio, [h_mu])
    wvalue = None
    if mu < d:
        wvalue = big_n * eps * (eps / 2 - mu / d) / (1 - mu / d)
    wbsc = _report("C.wbsc", "bsc_pseudoweight", wvalue, [h_mu])
    return (dmin, dmin_improved, smin, wbsc)


# -- two-sided edge-variable construction ---------------------------------------------


def case_d_bounds(c: int, d: int, m: int, n: int, mu,
                  dmin_left: int, dmin_right: int) -> tuple[BoundReport, ...]:
    """Bounds for the two-sided edge-variable construction: m left checks of
    degree c with a [c, ., dmin_left] label, n right checks of degree d with
    a [d, ., dmin_right] label, nontrivial adjacency eigenvalues at most mu.
    """
    mu = _frac(mu)
    if m * c != n * d:
        raise InconsistentParameters(f"edge counts differ: {m}*{c} != {n}*{d}")
    if not (1 <= dmin_left <= c) or not (1 <= dmin_right <= d):
        raise InconsistentParameters("local distances outside their lengths")
    big_n = Fraction(m * c)
    e1 = Fraction(dmin_left, c)
    e2 = Fraction(dmin_right, d)
    cross = big_n * (e1 * e2 - mu * (e1 * c + e2 * d) / (2 * c * d))
    h_order = Hypothesis("e2*d >= e1*c", e2 * d >= e1 * c)
    h_half = Hypothesis("e1*c > mu/2", e1 * c > mu / 2)
    dmin = _report("D.dmin", "min_distance", cross, [h_order, h_half])
    smin = _report("D.smin", "min_stopping_set", cross, [])
    wbsc = _report("D.wbsc", "bsc_pseudoweight",
                   big_n * Fraction(c, d) * e1 * (e1 / 2 - mu / c), [h_order])
    h_swap = Hypothesis("e1*c >= e2*d >= 2*mu",
                        e1 * c >= e2 * d and e2 * d >= 2 * mu)
    wswap = _report("D.wbsc_swapped", "bsc_pseudoweight",
                    big_n * Fraction(d, c) * e2 * (e2 / 2 - mu / d), [h_swap])
    h_conj = Hypothesis("e2*d >= e1*c > 2*mu", e2 * d >= e1 * c and e1 * c > 2 * mu)
    conj = _report("D.conjecture", "bsc_pseudoweight",
                   big_n * (e1 * e2 / 2 - mu * (e1 * c + e2 * d) / (2 * c * d)),
                   [h_conj], conjectural=True)
    return (dmin, smin, wbsc, wswap, conj)


# -- parity-oriented Gaussian-channel bound --------------------------------------------


def tanner_awgn_bound(g) -> BoundReport:
    """Gaussian-channel pseudoweight bound n(4j - mu2*m) / ((mu1 - mu2)*m)
    for a connected (j, m)-biregular all-parity graph, where mu1 = j*m and
    mu2 are the two largest eigenvalues of H H^T.

    mu1 = j*m is exact, with the all-ones eigenvector; mu2 is the certified
    top magnitude of M H H^T - j m J over M (M checks), an upper estimate,
    which can only lower the bound.
    """
    hyps = []
    regular = True
    j = m = None
    try:
        j, m = g.biregular_degrees()
    except NotRegular:
        regular = False
    hyps.append(Hypothesis("graph is (j, m)-biregular", regular))
    hyps.append(Hypothesis("all checks are plain parity", g.all_simple))
    hyps.append(Hypothesis("graph is connected", g.is_connected()))
    if not all(h.holds for h in hyps):
        return _report("T5.awgn", "awgn_pseudoweight", None, hyps)
    h = g.to_parity_matrix().bits.astype(float)
    mu1_exact = Fraction(j * m)
    mu2 = certified_mu(len(h) * (h @ h.T) - j * m, len(h))
    if mu2 >= mu1_exact:
        # numerically degenerate spectrum; the bound needs mu1 > mu2
        hyps.append(Hypothesis("mu1 > mu2", False))
        return _report("T5.awgn", "awgn_pseudoweight", None, hyps)
    n = g.n_vars
    value = Fraction(n) * (4 * j - mu2 * m) / ((mu1_exact - mu2) * m)
    return _report("T5.awgn", "awgn_pseudoweight", value, hyps)


# -- verification against exact oracles ------------------------------------------------


# slots: callers keep many reports, so each row and report stays small
@dataclass(frozen=True, slots=True)
class VerificationRow:
    bound_id: str
    quantity: str
    bound_value: Fraction | None
    oracle_value: Fraction | None  # None with holds=True means "no witness exists"
    holds: bool | None  # None when skipped
    skipped: str | None
    strict: bool
    conjectural: bool

    def to_dict(self) -> dict:
        return {"bound_id": self.bound_id, "quantity": self.quantity,
                "bound_value": None if self.bound_value is None else str(self.bound_value),
                "oracle_value": None if self.oracle_value is None else str(self.oracle_value),
                "holds": self.holds, "skipped": self.skipped,
                "strict": self.strict, "conjectural": self.conjectural}


@dataclass(frozen=True, slots=True)
class VerificationReport:
    provenance: str
    rows: tuple[VerificationRow, ...]
    context: dict

    @property
    def failures(self) -> tuple[VerificationRow, ...]:
        return tuple(r for r in self.rows if r.holds is False and not r.conjectural)

    @property
    def checked(self) -> int:
        return sum(1 for r in self.rows if r.holds is not None)

    def to_dict(self) -> dict:
        return {"provenance": self.provenance, "context": self.context,
                "rows": [r.to_dict() for r in self.rows]}


def _oracle(g, quantity: str):
    """Exact minimum for the named quantity, or None when no nonzero witness
    exists (trivial code / empty cone).  Raises GuardExceeded subtypes when
    the instance is too large for exact computation."""
    if quantity == "min_distance":
        h = g.to_parity_matrix()
        try:
            return Fraction(min_distance_exhaustive(h))
        except ValueError:
            return None  # zero-dimensional code, no nonzero codeword
    if quantity == "min_stopping_set":
        s = polytope.min_stopping_set(g)
        return None if s is None else Fraction(len(s.support))
    if quantity == "bsc_pseudoweight":
        got = polytope.min_bsc_pseudoweight(g)
        return None if got is None else Fraction(got[0])
    if quantity == "awgn_pseudoweight":
        got = polytope.min_awgn_pseudoweight(g)
        return None if got is None else got[0]
    raise InputError(f"unknown quantity {quantity!r}")


def _verify_one(g, rep: BoundReport, oracle_cache: dict) -> VerificationRow:
    if not rep.applicable:
        return VerificationRow(rep.bound_id, rep.quantity, rep.value, None,
                               None, "hypotheses not satisfied", rep.strict,
                               rep.conjectural)
    if not rep.meaningful:
        # A bound at or below zero holds for every nonzero point; running
        # the oracle would confirm nothing.
        return VerificationRow(rep.bound_id, rep.quantity, rep.value, None,
                               None, "bound not positive", rep.strict,
                               rep.conjectural)
    try:
        if rep.quantity not in oracle_cache:
            oracle_cache[rep.quantity] = _oracle(g, rep.quantity)
        oracle = oracle_cache[rep.quantity]
    except GuardExceeded as exc:
        return VerificationRow(rep.bound_id, rep.quantity, rep.value, None,
                               None, str(exc), rep.strict, rep.conjectural)
    if oracle is None:
        return VerificationRow(rep.bound_id, rep.quantity, rep.value, None,
                               True, None, rep.strict, rep.conjectural)
    holds = oracle > rep.value if rep.strict else oracle >= rep.value
    return VerificationRow(rep.bound_id, rep.quantity, rep.value, oracle,
                           bool(holds), None, rep.strict, rep.conjectural)


def integer_expansion_rate(delta, c: int) -> Fraction:
    """Largest delta' <= delta with delta' * c an integer."""
    delta = _frac(delta)
    return Fraction(floor(delta * c), c)


def graph_bounds(g, alpha=None, subset_budget=None) -> tuple[tuple[BoundReport, ...], dict]:
    """Bound reports appropriate to a graph's construction, computed from
    measured expansion (biregular cases; alpha required) or certified
    spectra (edge-variable cases), plus the parity-oriented bound whenever
    its shape hypotheses can hold.  Returns (reports, context)."""
    context: dict = {"provenance": g.provenance}
    reports: list[BoundReport] = []
    if g.provenance in ("case_a", "case_b"):
        if alpha is None:
            raise InputError("alpha is required for expansion-profile bounds")
        c, d = g.biregular_degrees()
        kwargs = {} if subset_budget is None else {"budget": subset_budget}
        profile = vertex_expansion_profile(g, alpha, **kwargs)
        delta = profile.delta
        delta_int = integer_expansion_rate(delta, c)
        context.update({"alpha": str(profile.alpha), "delta": str(delta),
                        "delta_integer": str(delta_int), "c": c, "d": d,
                        "vacuous_profile": profile.vacuous})
        if g.provenance == "case_a":
            dmin, smin, _ = case_a_bounds(alpha, g.n_vars, delta, c)
            _, _, wbsc = case_a_bounds(alpha, g.n_vars, delta_int, c)
            reports += [dmin, smin, wbsc]
        else:
            ed = g.labels[0].dmin
            context["local_dmin"] = ed
            dmin, smin, _ = case_b_bounds(alpha, g.n_vars, delta, c, d, ed)
            _, _, wbsc = case_b_bounds(alpha, g.n_vars, delta_int, c, d, ed)
            reports += [dmin, smin, wbsc]
    elif g.provenance == "case_c":
        base = tanner.reconstruct_base(g)
        d = base.regular_degree()
        mu = regular_mu(base)
        context.update({"base_n": base.n, "d": d, "mu_upper": str(mu)})
        reports += list(case_c_bounds(base.n, d, mu, g.labels[0].dmin))
    elif g.provenance == "case_d":
        base = tanner.reconstruct_bipartite_base(g)
        c, d = base.biregular_degrees()
        mu = biregular_mu(base)
        context.update({"m": base.n_left, "n": base.n_right, "c": c, "d": d,
                        "mu_upper": str(mu)})
        reports += list(case_d_bounds(c, d, base.n_left, base.n_right, mu,
                                      g.labels[0].dmin,
                                      g.labels[base.n_left].dmin))
    reports.append(tanner_awgn_bound(g))
    return tuple(reports), context


def verify_bounds(g, alpha=None, subset_budget=None) -> VerificationReport:
    """Compare every applicable bound against its exact oracle.

    Rows are PASS (holds=True), FAIL (False), or skipped (None) when the
    hypotheses fail or an exact oracle would exceed its guard.  Conjectural
    rows are marked and never counted as failures.
    """
    reports, context = graph_bounds(g, alpha=alpha, subset_budget=subset_budget)
    cache: dict = {}
    rows = tuple(_verify_one(g, rep, cache) for rep in reports)
    return VerificationReport(provenance=g.provenance, rows=rows, context=context)
