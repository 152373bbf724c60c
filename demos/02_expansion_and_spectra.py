"""
Measuring expansion, exactly
============================

Distance bounds for these codes are driven by two graph quantities: the
vertex expansion of small subsets and the second adjacency eigenvalue.
Both are computed here with verifiable error control.
"""

from fractions import Fraction

from expandercodes import expansion, graphs, spectral, tanner

# Exhaustive vertex expansion of a small random code graph.  delta is the
# worst ratio |N(S)| / (c|S|) over nonempty variable subsets of size at
# most alpha * n, as an exact rational.
g = tanner.build_case_a(3, 6, 10, seed=5)
profile = expansion.vertex_expansion_profile(g, Fraction(1, 5))
print("delta =", profile.delta, "witnessed by subset", profile.witness)

# The subset scan is exponential, so a budget guard refuses sizes that
# would silently take hours.  Raise the budget only on purpose.

# Second eigenvalues come from LAPACK's symmetric eigensolver plus an error
# radius that accounts for every rounding in its own evaluation: the returned
# interval is guaranteed to contain the true value.
pet = graphs.named_graph("petersen")
report = spectral.spectrum(pet.adjacency())
print("Petersen eigenvalues:", [round(v, 6) for v in report.eigenvalues[:4]],
      "...")
mu = spectral.certified_mu_upper(report)
print("certified upper bound on mu:", float(mu), "(true value is 2)")

# Alon and Chung's lemma: a d-regular graph whose second eigenvalue is mu
# has at most |U|/2 * (d|U|/n + mu(1 - |U|/n)) internal edges on any vertex
# subset U.  The check below tries every subset of the Petersen graph.
rep = expansion.verify_alon_chung(pet)
print("Alon-Chung on Petersen: violations =", rep.violations,
      "subsets =", rep.subsets_checked, "max excess =", rep.max_excess)

# Janwa and Lal's bipartite analogue, exercised on K_{3,3}, where the
# bipartite-adjusted second eigenvalue is 0 and the bound is tight.
k33 = graphs.named_graph("k3,3")
rep = expansion.verify_janwa_lal(k33, mu=0)
print("Janwa-Lal on K3,3: violations =", rep.violations,
      "max excess =", rep.max_excess)

# Overestimating mu only loosens these bounds, so certified upper bounds
# keep every downstream claim sound.  Feeding a too-small mu is the easy
# way to watch the verifier catch a falsified hypothesis:
cyc = graphs.named_graph("c8")
rep = expansion.verify_alon_chung(cyc, mu=0)
print("cycle with mu forced to 0: violations =", rep.violations)
