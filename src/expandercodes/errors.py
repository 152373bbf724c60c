"""Exception taxonomy shared across the package.

Two broad families matter for callers: InputError (bad arguments, malformed
files, parameter mismatches) and GuardExceeded (a request whose exhaustive or
exact computation would not finish at desk scale).  The CLI maps these to
distinct exit codes.
"""


class ExpanderCodesError(Exception):
    """Base class for all package-specific errors."""


class InputError(ExpanderCodesError):
    """Invalid input: bad parameters, inconsistent data, malformed files."""


class GuardExceeded(ExpanderCodesError):
    """A size guard tripped; the exact computation was refused, not attempted."""


# -- guards ------------------------------------------------------------------

class DimensionTooLarge(GuardExceeded):
    """Codeword enumeration dimension exceeds the exhaustive guard."""


class SubsetSpaceTooLarge(GuardExceeded):
    """Subset enumeration would exceed the configured budget."""


class SearchSpaceTooLarge(GuardExceeded):
    """Support/stopping-set search space exceeds the exhaustive guard."""


class DegreeTooLarge(GuardExceeded):
    """Requested cover degree exceeds the realizability search guard."""


# -- input problems ----------------------------------------------------------

class InfeasibleDegrees(InputError):
    """Degree sequence admits no bipartite graph (divisibility fails)."""


class SubcodeLengthMismatch(InputError):
    """Constraint degree does not equal the subcode block length."""


class NotRegular(InputError):
    """A regular graph or matrix was required, degrees are not constant."""


class NotConnected(InputError):
    """A connected graph was required."""


class SpecIncomplete(InputError):
    """Cover specification does not assign a permutation to every edge."""


class NotACodewordInCover(InputError):
    """Vector fails the parity checks of the cover graph."""


class NotSymmetric(InputError):
    """Matrix is not symmetric within tolerance."""


class DomainError(InputError):
    """Numeric argument outside its documented domain."""


class UnknownSubcode(InputError):
    """Subcode name not in the builtin catalog."""


class LengthMismatch(InputError):
    """Vector length does not match the graph or matrix."""


class SubcodeMissing(InputError):
    """Operation requires subcode labels that the graph does not carry."""


class ZeroVector(InputError):
    """Weight functional undefined on the all-zero vector."""


class InvalidKnownBits(InputError):
    """Known positions contradict a parity constraint."""


class InconsistentParameters(InputError):
    """Stated parameters contradict each other (e.g. mc != nd)."""


# -- numeric / search failures -------------------------------------------------

class SimplificationFailed(ExpanderCodesError):
    """Random graph resampling exhausted its retry budget."""


class SolverFailure(ExpanderCodesError):
    """LP/QP machinery failed (budget, unbounded region, repair failure)."""


class InfeasibleRegion(ExpanderCodesError):
    """Feasible region of an optimization problem is empty."""
