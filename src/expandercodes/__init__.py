"""Expander-based LDPC codes: constructions, exact pseudoweight oracles,
and spectral/expansion lower bounds with verification.

The public surface groups as:

- construction: TannerGraph, build_case_a/b/c/d, base graphs and subcode
  catalog;
- covers, all in `tanner`: LiftSpec, build_lift, reduce_cover_codeword
  (cover codeword to pseudocodeword) and lift_realizability_check (back);
- exact analysis: minimum distance, stopping sets, BSC/AWGN pseudoweight
  minima over the fundamental cone, all guard-gated;
- bounds: per-construction BoundReport sets and verify_bounds, which pits
  every applicable bound against the exact oracles;
- channels: erasure decoding, failure scans, Monte Carlo FER.
"""

from .bec import DecodeResult, decode_bec, failure_equivalence_scan, monte_carlo_fer
from .bounds import (
    BoundReport,
    Hypothesis,
    VerificationReport,
    case_a_bounds,
    case_b_bounds,
    case_c_bounds,
    case_d_bounds,
    graph_bounds,
    tanner_awgn_bound,
    verify_bounds,
)
from .errors import ExpanderCodesError, GuardExceeded, InputError
from .expansion import (
    ExpansionProfile,
    alon_chung_bound,
    janwa_lal_bound,
    verify_alon_chung,
    verify_janwa_lal,
    vertex_expansion_profile,
)
from .gf2 import (
    BitMatrix,
    CodeParams,
    code_params,
    min_distance_exhaustive,
    parse_alist,
    to_alist,
)
from .graphs import BipartiteGraph, Graph, named_graph, random_biregular, random_regular
from .polytope import (
    BscWeight,
    Pseudocodeword,
    StoppingSet,
    awgn_weight,
    bsc_weight,
    min_awgn_pseudoweight,
    min_bsc_pseudoweight,
    min_stopping_set,
    validate,
)
from .spectral import SpectrumReport, hht_spectrum, spectrum
from .subcodes import SubcodeSpec, builtin as builtin_subcode, catalog as subcode_catalog
from .tanner import (
    LiftSpec,
    TannerGraph,
    build_case_a,
    build_case_b,
    build_case_c,
    build_case_d,
    build_lift,
    expander_params,
    from_parity_matrix,
    lift_realizability_check,
    reduce_cover_codeword,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
