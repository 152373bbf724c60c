"""Symmetric eigenvalue computation with a certified error radius.

Eigenpairs come from LAPACK (`numpy.linalg.eigh`); the error radius is an
a-posteriori enclosure that accounts for every rounding in its own
evaluation.  Eigenvalues are ordered by decreasing absolute value (ties,
magnitudes within twice the error radius: positive first).

The spectral bounds need mu, the largest nontrivial |eigenvalue|.  Every
trivial eigenvector is known exactly, so each caller removes it from an
integer matrix and reads one certified top magnitude with `certified_mu`;
no eigenvalue is matched or dropped by a float test.
- d-regular graph on n vertices: the all-ones vector carries d, and
  n A - d J has spectrum n * {0, lambda_2, ..., lambda_n}.
- (c, d)-biregular bipartite graph, m left vertices: (sqrt(c) 1, +-sqrt(d) 1)
  carry +-sqrt(cd), and their rank-2 removal is exactly (d/m) K, with K all
  ones on the two off-diagonal blocks; use m A - d K.
- H H^T of a (j, m)-biregular parity matrix with M rows: the all-ones
  vector carries j m; use M H H^T - j m J.
Only the global vectors are removed: in a disconnected graph every further
component keeps its d (or +-sqrt(cd)), a genuine nontrivial eigenvalue.

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


def certified_mu(a, scale) -> Fraction:
    """Sound rational upper bound on max |eigenvalue of a| / scale.

    Callers pass an integer matrix with the trivial eigenvalues already
    deflated exactly, so that its top magnitude is scale * mu.  Integer
    entries are exact in float, so the certified radius covers the matrix
    itself and the result is a true upper bound on mu.
    """
    report = spectrum(a)
    return (Fraction(abs(report.mu1)) + Fraction(report.error_bound)) / scale
