"""Exact equivariant Poincare polynomial calculator for the moduli of
semistable rank-(2,1) Higgs bundles (non-fixed, fixed, and projectivized
determinant), with identity-verification suites.

All arithmetic is exact: integer truncated power series and rational
parameter comparisons.  See the CLI (`higgsbetti --help`) or the README
for entry points.
"""

from .assemble import (
    AssemblyResult,
    ModuliReport,
    RouteEquivalenceReport,
    ab_cancellation_residual,
    moduli_poincare,
    pu21_poincare,
    su21_closed_form,
    su21_stratum_route,
    su_ab_cancellation_residual,
    torelli_anomalous_part,
    u21_closed_form,
    u21_stratum_route,
    verify_route_equivalence,
)
from .bradlow import (
    BradlowProvider,
    FileBackedProvider,
    MaximalCaseProvider,
    SymbolicProvider,
    maximal_first_term,
    maximal_moduli_min,
    maximal_pairs_equivariant,
    provider_from_file,
    sigma_min_of,
    sigma_of,
    ww_difference,
    ww_from_invariants,
)
from .errors import (
    ParameterError,
    ProviderFileError,
    RangeViolationError,
    UnspecifiedDimensionError,
)
from .ingredients import (
    CoverParams,
    ab_semistable_rank2,
    bg_rank1,
    bg_rank2,
    bg_su21,
    bg_u21,
    gothen_cover_poincare,
    jacobian_poincare,
    projective_poincare,
    sym_poincare,
    v_dim,
)
from .params import (
    HalfInt,
    ModuliParams,
    canonicalize,
    delta_set,
    gamma3_trivial,
    kirwan_su_surjective,
    make_params,
    region_of,
    s_tau,
    torelli_trivial,
)
from .series import (
    PolynomialWindow,
    RationalExpr,
    TruncatedSeries,
    binomial_power,
    default_order,
    geometric_inverse,
    is_polynomial_window,
)
from .strata import (
    StratumDescriptor,
    StratumKind,
    critical_set_poincare,
    enumerate_critical,
    negative_dim,
    negative_pair_cohomology,
    negative_pair_kinds,
    table_note,
)

__version__ = "0.1.0"

__all__ = [
    "AssemblyResult", "BradlowProvider", "CoverParams",
    "FileBackedProvider", "HalfInt", "MaximalCaseProvider", "ModuliParams",
    "ModuliReport", "ParameterError", "PolynomialWindow", "ProviderFileError",
    "RangeViolationError", "RationalExpr", "RouteEquivalenceReport",
    "StratumDescriptor", "StratumKind", "SymbolicProvider", "TruncatedSeries",
    "UnspecifiedDimensionError", "ab_cancellation_residual",
    "ab_semistable_rank2", "bg_rank1", "bg_rank2", "bg_su21", "bg_u21",
    "binomial_power", "canonicalize", "critical_set_poincare", "default_order",
    "delta_set", "enumerate_critical", "gamma3_trivial",
    "geometric_inverse", "gothen_cover_poincare", "is_polynomial_window",
    "jacobian_poincare", "kirwan_su_surjective", "make_params",
    "maximal_first_term", "maximal_moduli_min", "maximal_pairs_equivariant",
    "moduli_poincare", "negative_dim", "negative_pair_cohomology",
    "negative_pair_kinds", "projective_poincare", "provider_from_file",
    "pu21_poincare", "region_of", "s_tau", "sigma_min_of", "sigma_of",
    "su21_closed_form", "su21_stratum_route", "su_ab_cancellation_residual",
    "sym_poincare", "table_note", "torelli_anomalous_part", "torelli_trivial",
    "u21_closed_form", "u21_stratum_route", "v_dim", "verify_route_equivalence",
    "ww_difference", "ww_from_invariants",
]
