"""Exact equivariant Poincare polynomial calculator for the moduli of
semistable rank-(2,1) Higgs bundles (non-fixed, fixed, and projectivized
determinant), with identity-verification suites.

All arithmetic is exact: integer truncated power series and rational
parameter comparisons.  See the CLI (`higgsbetti --help`) or the README
for entry points.
"""

from importlib import import_module

__version__ = "0.1.0"

# the public names by defining module; each module is imported when it or
# one of its names is first looked up, so ``import higgsbetti`` loads none
_NAMES_BY_MODULE = {
    "assemble": (
        "AssemblyResult", "pu21_poincare", "su21_closed_form", "su21_stratum_route",
        "u21_closed_form", "u21_stratum_route",
    ),
    "bradlow": (
        "BradlowProvider", "FileBackedProvider", "MaximalCaseProvider",
        "maximal_moduli_min", "maximal_pairs_equivariant", "provider_from_file",
        "ww_difference", "ww_from_invariants",
    ),
    "errors": (
        "ParameterError", "ProviderFileError", "RangeViolationError",
        "UnspecifiedDimensionError",
    ),
    "ingredients": (
        "ab_semistable_rank2", "bg_rank1", "bg_rank2", "bg_su21", "bg_u21",
        "gothen_cover_poincare", "jacobian_poincare", "projective_poincare",
        "sym_poincare", "v_dim",
    ),
    "params": (
        "ModuliParams", "canonicalize", "delta_set", "gamma3_trivial",
        "kirwan_su_surjective", "make_params", "region_of", "s_tau",
        "torelli_trivial",
    ),
    "series": (
        "RationalExpr", "TruncatedSeries", "binomial_power", "default_order",
        "geometric_inverse",
    ),
    "strata": (
        "KINDS", "StratumDescriptor", "critical_set_poincare", "critical_table",
        "enumerate_critical", "negative_dim", "table_note",
    ),
    "verify": (
        "RouteEquivalenceReport", "torelli_anomalous_part",
        "verify_route_equivalence",
    ),
}
_MODULE_OF = {name: module for module, names in _NAMES_BY_MODULE.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(import_module(f"{__name__}.{module}"), name)
    elif name in _NAMES_BY_MODULE:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF, *_NAMES_BY_MODULE})
