"""
Erasure decoding and where it gets stuck
========================================

The erasure decoder fills erased positions from each check's cached local
rule; on plain parity checks that rule is peeling, which fills a position
when a check sees exactly one unknown.  Rounds after the first revisit only
the checks next to freshly filled positions.  On an all-parity graph the
decoder fails precisely when the erased set contains a nonempty stopping
set, and that equivalence is checked here by direct enumeration before
running a frame-error-rate sweep.
"""

import numpy as np

from expandercodes import bec, polytope, tanner

g = tanner.build_case_a(2, 4, 10, seed=2)

# Decode a specific erasure pattern of a known codeword (all zeros).
result = bec.decode_bec(g, erased=[0, 3, 7], received=np.zeros(10, dtype=np.uint8))
print("residual erasures:", result.residual, "rounds:", result.rounds)
print("stuck:", result.stuck)

# The structural counterpart: does the erased set contain a stopping set?
s = polytope.min_stopping_set(g)
print("smallest stopping set in the graph:", s.support)

# Erase exactly that set and the decoder must stall.
stuck = bec.decode_bec(g, erased=s.support)
print("erasing it stalls the decoder:", stuck.stuck)

# Sweep every erasure pattern and compare decoder failure against the
# structural condition pattern by pattern.
scan = bec.failure_equivalence_scan(g)
print("patterns:", scan.patterns, "decoder stuck:", scan.decoder_stuck,
      "structural:", scan.structural, "equivalent:", scan.equivalent)

# Monte Carlo frame error rate with Wilson score intervals.  The seed
# fixes the whole sweep, so rows are reproducible.
rows = bec.monte_carlo_fer(g, erasure_probs=[0.1, 0.2, 0.3, 0.4],
                           trials=2000, seed=11)
print(f"{'p':>5} {'FER':>9} {'95% interval':>22}")
for row in rows:
    print(f"{row.erasure_prob:>5.2f} {row.fer:>9.4f} "
          f"[{row.ci_low:.4f}, {row.ci_high:.4f}]")
