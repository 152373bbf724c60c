"""Reference computations and output checkers for the benchmark.

Everything here is written against the problem definitions, with numpy and
fractions only; nothing imports expandercodes.  Each checker takes the
program's output plus the benchmark's own view of the input (parity and
incidence matrices as 0/1 arrays) and returns a list of error strings, empty
when the output is correct.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

MAX_BRUTE_VARS = 24


# -- GF(2) reference ------------------------------------------------------------------


def brute_force_dmin(h) -> int | None:
    """Minimum weight of a nonzero x with h x = 0 over GF(2), from all 2^n
    words; None when the zero word is the only solution."""
    h = np.asarray(h, dtype=np.int64) & 1
    m, n = h.shape
    if n > MAX_BRUTE_VARS or m > 62:
        raise ValueError(f"{m}x{n} is too large for brute force")
    cols = (h << np.arange(m, dtype=np.int64)[:, None]).sum(axis=0)
    syndrome = np.zeros(1 << n, dtype=np.int64)
    weight = np.zeros(1 << n, dtype=np.int8)
    for j in range(n):
        half = 1 << j
        syndrome[half:2 * half] = syndrome[:half] ^ cols[j]
        weight[half:2 * half] = weight[:half] + 1
    zero = np.flatnonzero(syndrome[1:] == 0) + 1
    return None if zero.size == 0 else int(weight[zero].min())


def nullspace(h) -> np.ndarray:
    """Basis (rows) of {x : h x = 0} over GF(2), by Gauss-Jordan elimination."""
    a = np.asarray(h, dtype=np.uint8).copy() & 1
    m, n = a.shape
    pivots = []
    row = 0
    for col in range(n):
        hits = np.flatnonzero(a[row:, col]) + row
        if len(hits) == 0:
            continue
        p = hits[0]
        a[[row, p]] = a[[p, row]]
        others = np.flatnonzero(a[:, col])
        others = others[others != row]
        a[others] ^= a[row]
        pivots.append(col)
        row += 1
        if row == m:
            break
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = np.zeros((len(free), n), dtype=np.uint8)
    for k, f in enumerate(free):
        basis[k, f] = 1
        for r, pc in enumerate(pivots):
            basis[k, pc] = a[r, f]
    return basis


def local_codewords(h) -> list[np.ndarray]:
    """Nonzero words of a short code given by its parity matrix."""
    h = np.asarray(h, dtype=np.int64) & 1
    d = h.shape[1]
    words = (np.arange(1, 1 << d)[:, None] >> np.arange(d)) & 1
    ok = ~((words @ h.T) % 2).any(axis=1)
    return [w.astype(np.uint8) for w in words[ok]]


# -- pseudoweights --------------------------------------------------------------------


def flipping_weight(values) -> int:
    """BSC (flipping-set) weight: least e whose top-e mass reaches the rest;
    2e on a tie, 2e - 1 otherwise."""
    vals = sorted((Fraction(v) for v in values), reverse=True)
    total = sum(vals)
    if total <= 0:
        raise ValueError("flipping weight needs a nonzero nonnegative vector")
    top = Fraction(0)
    for e, v in enumerate(vals, start=1):
        top += v
        if top >= total - top:
            return 2 * e if top == total - top else 2 * e - 1
    raise ValueError("unreachable")


def awgn_weight(values) -> Fraction:
    vals = [Fraction(v) for v in values]
    return sum(vals) ** 2 / sum(v * v for v in vals)


# -- erasure decoding -----------------------------------------------------------------


def peel(incidence, erased) -> np.ndarray:
    """Residual erasures after single-unknown peeling, for a batch of
    patterns (rows of `erased`) on an all-parity graph."""
    inc = np.asarray(incidence, dtype=np.int32)
    e = np.array(erased, dtype=bool, ndmin=2)
    while True:
        single = (e.astype(np.int32) @ inc.T) == 1
        clear = ((single.astype(np.int32) @ inc) > 0) & e
        if not clear.any():
            return e
        e &= ~clear


def all_patterns(n: int) -> np.ndarray:
    return ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(bool)


# -- checkers -------------------------------------------------------------------------


def check_verify_rows(rows, dmin, floors_seen=None) -> list[str]:
    """rows: (bound_id, quantity, oracle_value, holds, conjectural) tuples of
    one verification report; dmin: brute-force minimum distance."""
    errors = []
    for bound_id, quantity, oracle, holds, conjectural in rows:
        if holds is False and not conjectural:
            errors.append(f"{bound_id}: FAIL row")
        if holds is not None and floors_seen is not None:
            floors_seen[bound_id] = floors_seen.get(bound_id, 0) + 1
        if quantity == "min_distance" and holds is not None:
            got = None if oracle is None else Fraction(oracle)
            if got != dmin:
                errors.append(f"{bound_id}: distance oracle {got} != brute force {dmin}")
        elif oracle is not None and dmin is not None and Fraction(oracle) > dmin:
            errors.append(f"{bound_id}: {quantity} oracle {oracle} exceeds dmin {dmin}")
    return errors


def check_floors(seen: dict, floors: dict) -> list[str]:
    return [f"{b}: checked {seen.get(b, 0)} times, floor {f}"
            for b, f in floors.items() if seen.get(b, 0) < f]


def stopping_set_errors(support, incidence, labels) -> list[str]:
    """support is a stopping set: every plain check it touches meets it at
    least twice, and every labelled check it touches holds the support of a
    nonzero local codeword inside it.  labels[c] is None for a plain check,
    else the list of nonzero local codewords in the check's socket order."""
    inc = np.asarray(incidence, dtype=bool)
    s = np.zeros(inc.shape[1], dtype=bool)
    s[list(support)] = True
    errors = []
    if not s.any():
        return ["empty stopping set"]
    for c in range(inc.shape[0]):
        members = np.flatnonzero(inc[c])
        hit = s[members]
        if not hit.any():
            continue
        if labels[c] is None:
            if hit.sum() < 2:
                errors.append(f"check {c} meets the support once")
        elif not any(not (w.astype(bool) & ~hit).any() for w in labels[c]):
            errors.append(f"check {c} holds no local codeword inside the support")
    return errors


def check_analyze(rc: int, text: str, dmin, incidence, labels) -> tuple[list[str], int]:
    """Checks one `analyze` document; returns (errors, oracle values returned)."""
    if rc != 0:
        return [f"exit code {rc}"], 0
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"], 0
    errors = []
    code = doc.get("code", {}).get("value")
    if code is None or code.get("dmin") != dmin:
        errors.append(f"code dmin {None if code is None else code.get('dmin')} != brute force {dmin}")
    oracles = doc.get("oracles", {})
    completed = sum(1 for v in oracles.values() if "value" in v)
    smin = oracles.get("min_stopping_set", {}).get("value")
    if smin is not None:
        errors += stopping_set_errors(smin["support"], incidence, labels)
        if len(smin["support"]) != smin["size"] or smin["size"] > dmin:
            errors.append(f"stopping set size {smin['size']} is inconsistent or above dmin {dmin}")
    bsc = oracles.get("bsc_pseudoweight", {}).get("value")
    if bsc is not None:
        w = flipping_weight(bsc["witness"]["values"])
        if w != bsc["weight"] or w > dmin:
            errors.append(f"BSC weight {bsc['weight']}, recomputed {w}, dmin {dmin}")
    awgn = oracles.get("awgn_pseudoweight", {}).get("value")
    if awgn is not None:
        w = awgn_weight(awgn["witness"]["values"])
        if w != Fraction(awgn["weight"]) or w > dmin:
            errors.append(f"AWGN weight {awgn['weight']}, recomputed {w}, dmin {dmin}")
    return errors, completed


def second_eigenvalue(adj, bipartite: bool) -> float:
    """Second-largest |eigenvalue|; for a bipartite graph one +/-lambda_max
    pair is removed first."""
    vals = np.linalg.eigvalsh(np.asarray(adj, dtype=float))
    order = list(vals[np.argsort(-np.abs(vals), kind="stable")])
    lam = max(order)
    order.remove(lam)
    if bipartite:
        partner = min(order, key=lambda v: abs(v + lam))
        order.remove(partner)
    return float(max(abs(v) for v in order))


def check_mu(mu_upper, adj, bipartite: bool, slack: float = 1e-6) -> list[str]:
    """The certified estimate is at least the reference second eigenvalue
    and at most `slack` above it.  The reference carries eigvalsh rounding
    of about n * eps * ||A||, which is allowed below."""
    ref = second_eigenvalue(adj, bipartite)
    n = len(adj)
    rounding = 8 * n * np.finfo(float).eps * max(1.0, float(np.abs(adj).sum(axis=1).max()))
    mu = Fraction(mu_upper)
    errors = []
    if mu < Fraction(ref) - Fraction(rounding):
        errors.append(f"certified mu {float(mu)!r} is below eigvalsh {ref!r}")
    if mu > Fraction(ref) + Fraction(slack):
        errors.append(f"certified mu {float(mu)!r} is more than {slack} above eigvalsh {ref!r}")
    return errors


def expansion_ratio(incidence, subset) -> Fraction:
    inc = np.asarray(incidence, dtype=bool)
    c = int(inc[:, subset[0]].sum())
    return Fraction(int(inc[:, list(subset)].any(axis=1).sum()), c * len(subset))


def check_expansion(incidence, alpha, delta, witness, rng, samples: int) -> list[str]:
    """The witness attains delta with size below alpha * n, and `samples`
    random subsets of the allowed sizes all expand by at least delta."""
    inc = np.asarray(incidence, dtype=bool)
    n = inc.shape[1]
    alpha, delta = Fraction(alpha), Fraction(delta)
    errors = []
    if witness is None or len(witness) == 0:
        return ["no expansion witness"]
    if not len(witness) < alpha * n:
        errors.append(f"witness size {len(witness)} is not below alpha*n = {alpha * n}")
    got = expansion_ratio(inc, witness)
    if got != delta:
        errors.append(f"witness expands by {got}, reported delta {delta}")
    smax = -(-alpha.numerator * n // alpha.denominator) - 1
    c = int(inc[:, 0].sum())
    sizes = rng.integers(1, smax + 1, samples)
    for size in range(1, smax + 1):
        k = int((sizes == size).sum())
        if k == 0:
            continue
        subsets = np.argsort(rng.random((k, n)), axis=1)[:, :size]
        touched = inc[:, subsets].any(axis=2).sum(axis=0)
        worst = int(touched.min())
        if Fraction(worst, c * size) < delta:
            errors.append(f"a random {size}-subset expands by {Fraction(worst, c * size)} < delta {delta}")
    return errors
