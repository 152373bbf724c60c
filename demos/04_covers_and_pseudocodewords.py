"""
Graph covers and pseudocodewords
================================

Iterative decoders cannot tell a Tanner graph from its finite covers, so
the objects that matter for decoding are cover codewords averaged down to
the base graph.  Those averages live in the fundamental polytope; their
weights, not the classical minimum distance, control decoder behavior.
"""

import numpy as np

from expandercodes import polytope, tanner
from expandercodes.gf2 import BitMatrix, nullspace_basis

# A triangle of parity checks, the smallest graph whose covers produce
# fractional points.
h = BitMatrix(np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8))
tri = tanner.from_parity_matrix(h)

# A degree-2 cover duplicates every node and rewires each edge by a
# permutation of the two copies.
spec = tanner.random_lift(tri, degree=2, seed=3)
cover = tanner.build_lift(tri, spec)
print("cover:", cover.n_vars, "variables over", tri.n_vars)

# Codewords of the cover average down to rational points on the base.
basis = nullspace_basis(cover.to_parity_matrix())
word = basis[0]
p = tanner.reduce_cover_codeword(word, tri, lift=cover)
print("cover codeword reduces to", [str(v) for v in p.values])

# The reduction is always a point of the fundamental polytope.
print("valid:", polytope.validate(tri, p.values).valid)

# The all-half point is the classic pseudocodeword of an odd cycle: no
# codeword sits at (1/2, 1/2, 1/2), yet every decoder-visible condition
# accepts it.
from fractions import Fraction
half = [Fraction(1, 2)] * 3
print("all-half valid:", polytope.validate(tri, half).valid)

# Its effective weights on the two standard channels:
print("BSC weight:", polytope.bsc_weight(half).weight)
print("AWGN weight:", polytope.awgn_weight(half))

# Searching the whole polytope for the minimum-weight points gives the
# decoding-relevant analogue of minimum distance.
w, witness = polytope.min_bsc_pseudoweight(tri)
print("min BSC pseudoweight:", w, "at", [str(v) for v in witness.values])
w, witness = polytope.min_awgn_pseudoweight(tri)
print("min AWGN pseudoweight:", w)

# Every polytope point of a simple graph is realized by some finite cover.
# The search below reconstructs a cover and the permutations that produce
# a requested point.
lw = tanner.lift_realizability_check(tri, half)
print("realized in a cover of degree", lw.degree)

# Stopping sets are the supports that can trap erasure decoding; the
# smallest one here is the triangle itself.
s = polytope.min_stopping_set(tri)
print("min stopping set:", s.support)
