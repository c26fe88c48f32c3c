"""Holant values on bounded-degree multigraphs via polymer expansions.

The package covers the full pipeline: exact brute-force reference values,
the translation of a Holant instance into a polymer model, convergence
certificates and closed-form parameter regions, a deterministic truncated
cluster-expansion approximation, a Markov-chain sampler with an annealed
counting estimator, and reductions for linear-system solution counting and
perfect-matching polynomials.

`__all__` is the library API; each layer's functions are imported from their
own modules, and `holant.oracle` holds the reference computations.
"""

from .bounds import FAMILIES, KpReport, RegionReport, region_bounds, verify_kp
from .errors import (
    ConditionViolated,
    DegenerateDistribution,
    GateExceeded,
    HolantError,
    InvalidFugacity,
    NotInF0,
    ParseError,
    RegionViolation,
    UnsupportedWeights,
)
from .expansion import ApproxReport, approx_polynomial_report, approx_problem_report
from .graph import Hypergraph, MultiGraph
from .linsys import (
    LinearSystem,
    LinsysReport,
    brute_weighted_count,
    parse_matrix_file,
    parse_pm_file,
    pm_polynomial_graph,
    pm_polynomial_hypergraph,
    weighted_count,
)
from .mcmc import FprasReport, fpras_estimate, mixing_time, sample_assignments, tau_floor
from .oracle import ExactResult, brute_holant, brute_polymer_z, exact_gibbs
from .signatures import (
    Signature,
    SignatureAssignment,
    assignment_from_json,
    assignment_to_json,
    make_signature,
    uniform_assignment,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxReport",
    "ConditionViolated",
    "DegenerateDistribution",
    "ExactResult",
    "FAMILIES",
    "FprasReport",
    "GateExceeded",
    "HolantError",
    "Hypergraph",
    "InvalidFugacity",
    "KpReport",
    "LinearSystem",
    "LinsysReport",
    "MultiGraph",
    "NotInF0",
    "ParseError",
    "RegionReport",
    "RegionViolation",
    "Signature",
    "SignatureAssignment",
    "UnsupportedWeights",
    "approx_polynomial_report",
    "approx_problem_report",
    "assignment_from_json",
    "assignment_to_json",
    "brute_holant",
    "brute_polymer_z",
    "brute_weighted_count",
    "exact_gibbs",
    "fpras_estimate",
    "make_signature",
    "mixing_time",
    "parse_matrix_file",
    "parse_pm_file",
    "pm_polynomial_graph",
    "pm_polynomial_hypergraph",
    "region_bounds",
    "sample_assignments",
    "tau_floor",
    "uniform_assignment",
    "verify_kp",
    "weighted_count",
]
