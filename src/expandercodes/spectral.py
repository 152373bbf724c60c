"""Symmetric eigenvalue computation with a certified error radius.

Eigenpairs come from LAPACK (`numpy.linalg.eigh`); the error radius is an
a-posteriori enclosure that accounts for every rounding in its own
evaluation, so downstream exact-rational comparisons can use a sound upper
estimate of the second eigenvalue.  Eigenvalues are ordered by decreasing
absolute value (ties, magnitudes within twice the error radius: positive
first), which is the ordering the spectral bounds consume.

The enclosure.  With (w, V) from eigh, let e bound ||V^T A V - diag(w)||_F
and delta bound ||V^T V - I||_F.  Weyl's inequality on V^T A V = diag(w) + E
places the k-th eigenvalue of V^T A V within e of w_k, and Ostrowski's
theorem gives lambda_k(V^T A V) = theta_k lambda_k(A) with theta_k in
[1 - delta, 1 + delta].  Hence every |lambda_k(A) - w_k| is at most
e + (rho + e) delta / (1 - delta), with rho = max |w|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, NotSymmetric, SolverFailure

SYMMETRY_REL = 1e-12

_U = Fraction(1, 2**53)  # unit roundoff of float64
_ETA = Fraction(1, 2**1074)  # smallest subnormal float64


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues sorted by |value| descending (ties, magnitudes within
    2 * error_bound: positive first).

    mu1 is the first entry (signed), mu2 the second-largest |value|.
    residuals are ||A v - lambda v|| per eigenpair in the same order.
    error_bound is a certified bound on |reported - true| for every
    eigenvalue, from the rounding-aware enclosure in the module docstring.
    """

    eigenvalues: tuple[float, ...]
    mu1: float
    mu2: float
    residuals: tuple[float, ...]
    error_bound: float

    def to_dict(self) -> dict:
        return {
            "eigenvalues": list(self.eigenvalues),
            "mu1": self.mu1,
            "mu2": self.mu2,
            "residuals": list(self.residuals),
            "error_bound": self.error_bound,
        }


def _float_up(q: Fraction) -> float:
    """The least float not below q."""
    f = float(q)
    return f if Fraction(f) >= q else math.nextafter(f, math.inf)


def _sqrt_up(q: Fraction) -> Fraction:
    """A float upper bound on sqrt(q), as an exact Fraction."""
    r = math.sqrt(_float_up(q))
    while Fraction(r) ** 2 < q:
        r = math.nextafter(r, math.inf)
    return Fraction(r)


def _frobenius_up(x: np.ndarray) -> Fraction:
    """Upper bound on the exact Frobenius norm of a float array.

    The float sum of squares loses at most a factor (1 - u)^N and N eta / 2
    to underflow over N entries, in any summation order.
    """
    total = float(np.square(x).sum())
    if not math.isfinite(total):
        raise SolverFailure("spectrum certificate overflowed")
    m = x.size
    return _sqrt_up((Fraction(total) + m * _ETA) / (1 - m * _U))


def _residual_bounds(a: np.ndarray, w: np.ndarray, v: np.ndarray
                     ) -> tuple[Fraction, Fraction]:
    """Exact upper bounds (e, delta) on ||V^T A V - diag(w)||_F and
    ||V^T V - I||_F, for the float arrays a, w, v as given.

    Each norm is the float norm of the computed residual plus the a-priori
    rounding bound of its products, gamma_k |V|^T |A| |V| with k = 2n and
    gamma_k |V|^T |V| with k = n, where gamma_k = k u / (1 - k u) (Higham,
    Accuracy and Stability, sec. 3.5), plus an entrywise allowance of
    3 n^2 max(1, max|V|) eta for underflow.
    """
    n = a.shape[0]
    absv = np.abs(v)
    vmax = Fraction(float(absv.max(initial=0.0)))
    slack = 3 * n * n * max(Fraction(1), vmax) * _ETA
    diag = np.diag_indices(n)

    def bound(resid, gram, k):
        g = k * _U / (1 - k * _U)
        return (_frobenius_up(resid) / (1 - _U)
                + g / (1 - g) * (_frobenius_up(gram) + n * slack) + n * slack)

    r = v.T @ (a @ v)
    r[diag] -= w
    h = v.T @ v
    h[diag] -= 1.0
    e = bound(r, absv.T @ (np.abs(a) @ absv), 2 * n)
    delta = bound(h, absv.T @ absv, n)
    return e, delta


def spectrum(a) -> SpectrumReport:
    """Full spectrum of a symmetric matrix via LAPACK eigh, with a certified
    error radius.

    Raises NotSymmetric when max|A - A^T| exceeds 1e-12 relative to the entry
    scale, DomainError on a non-finite entry, and SolverFailure when LAPACK
    fails or the computed eigenvectors are too far from orthonormal
    (delta >= 1/2) to certify.
    """
    A = np.array(a, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotSymmetric("matrix must be square")
    if not np.isfinite(A).all():
        raise DomainError("matrix has non-finite entries")
    n = A.shape[0]
    scale = max(1.0, float(np.abs(A).max(initial=0.0)))
    if float(np.abs(A - A.T).max(initial=0.0)) > SYMMETRY_REL * scale:
        raise NotSymmetric("matrix is not symmetric within 1e-12")
    A = (A + A.T) / 2.0
    try:
        vals, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"eigh failed: {exc}") from exc

    e, delta = _residual_bounds(A, vals, V)
    if delta >= Fraction(1, 2):
        raise SolverFailure(f"eigenvectors too far from orthonormal (delta {float(delta):.3g})")
    rho = Fraction(float(np.abs(vals).max(initial=0.0)))
    error_bound = _float_up(e + (rho + e) * delta / (1 - delta))

    by_size = sorted(range(n), key=lambda i: -abs(vals[i]))
    # Magnitudes within 2 * error_bound of a group's largest cannot be told
    # apart, so they count as tied: an exact +/-lambda pair comes out
    # positive first whatever the rounding.
    groups: list[list[int]] = []
    for i in by_size:
        if groups and abs(vals[groups[-1][0]]) - abs(vals[i]) <= 2 * error_bound:
            groups[-1].append(i)
        else:
            groups.append([i])
    order = [i for grp in groups for i in sorted(grp, key=lambda i: vals[i] < 0)]
    eigenvalues = tuple(float(vals[i]) for i in order)
    norms = np.linalg.norm(A @ V - V * vals, axis=0)
    residuals = tuple(float(norms[i]) for i in order)
    mu1 = eigenvalues[0] if n > 0 else 0.0
    mu2 = abs(float(vals[by_size[1]])) if n > 1 else 0.0
    return SpectrumReport(eigenvalues=eigenvalues, mu1=mu1, mu2=mu2,
                          residuals=residuals, error_bound=error_bound)


def hht_spectrum(h) -> SpectrumReport:
    """Spectrum of H H^T for a 0/1 parity-check matrix H (integer Gram matrix)."""
    bits = np.asarray(h.bits if hasattr(h, "bits") else h, dtype=float)
    return spectrum(bits @ bits.T)


def nontrivial_second_eigenvalue(report: SpectrumReport,
                                 pair_tol: float = 1e-6) -> tuple[float, bool]:
    """Second-largest |eigenvalue| after removing one +/-lambda_max pair.

    The adjacency spectrum of a connected bipartite graph pairs lambda_max
    with -lambda_max; both are structural, so the expansion-relevant quantity
    is the next one down.  Exactly one pair is removed (multiplicities beyond
    the pair are genuine).  Returns (value, pair_found).
    """
    vals = list(report.eigenvalues)
    if len(vals) < 2:
        return 0.0, False
    lam = vals[0]
    scale = max(1.0, abs(lam))
    for i in range(1, len(vals)):
        if abs(vals[i] + lam) <= pair_tol * scale:
            rest = vals[1:i] + vals[i + 1:]
            return (max(abs(v) for v in rest) if rest else 0.0), True
    return abs(vals[1]), False


def certified_mu_upper(report: SpectrumReport):
    """Sound rational upper estimate of mu2: reported value plus the
    certified error.  Exact float-to-rational conversion, no rounding."""
    return Fraction(report.mu2) + Fraction(report.error_bound)


def certified_bipartite_mu_upper(report: SpectrumReport, pair_tol: float = 1e-6):
    """Sound rational upper estimate of the nontrivial second eigenvalue of
    a bipartite adjacency spectrum.  Returns (value, pair_found); when no
    -lambda_max partner is found the estimate falls back to mu2, which is
    still an upper bound."""
    mu, pair_found = nontrivial_second_eigenvalue(report, pair_tol)
    return Fraction(mu) + Fraction(report.error_bound), pair_found
