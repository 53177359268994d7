"""Critical-set enumeration and per-stratum topological data.

The nonminimal critical sets of the Yang-Mills-Higgs flow come in seven
kinds.  A descriptor is a kind plus a half-integer index l (the degree of
the destabilizing line subbundle; the A kind sits at l = d2/2):

    A   l = d2/2                      rank-2 summand semistable, zero field
    B1  d2/2 < l < d1                 three line bundles, zero field
    B2  l = d1 > d2/2                 three line bundles, field unconstrained
    B3  d1 < l                        three line bundles, zero field
    C1  (d1+d2)/3 < l <= d2-d1+2g-2   split stable (1,1)-piece, section to Q
    C2  (2d2-d1)/3 < l < d1           split stable (1,1)-piece, section to S
    C3  d1 < l <= d1+2g-2             split stable (1,1)-piece, field from S

This module renders the classification table (equivariant series of each
critical set) and the constant dimension formulas of the negative normal
directions.  The index ranges (``params.kind_range``), the exponent m of
each C kind's S^m X (``params.sym_exponent``) and the shift
h^{0,1}(S*Q) (``params.h01_s_star_q``) live in ``params``, where the
stratum route of ``assemble`` reads them too.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .errors import ParameterError, UnspecifiedDimensionError
from .ingredients import SEMISTABLE, atiyah_bott_series, jacobian_block, sym_factor
from .params import (C1_EXPONENT_NOTE, MAX_ORDER, HalfInt, ModuliParams,
                     _require_valid, canonicalize, h01_s_star_q, kind_indices,
                     kind_range, region_of, sym_exponent)
from .records import Frozen, dataclass_compatible
from .series import TruncatedSeries, resolve_order


class StratumKind(str, Enum):
    A = "A"
    B1 = "B1"
    B2 = "B2"
    B3 = "B3"
    C1 = "C1"
    C2 = "C2"
    C3 = "C3"


_KIND_ORDER = {k: i for i, k in enumerate(StratumKind)}


def admits(kind: StratumKind, p: ModuliParams, ell: HalfInt) -> bool:
    """Whether the kind's validity range contains the index l."""
    if kind is StratumKind.A:
        return ell.doubled == p.d2
    return ell.is_integer and ell.as_int() in kind_indices(p, kind.value, ell.as_int())


@dataclass_compatible
class StratumDescriptor(Frozen):
    __slots__ = _fields = ("kind", "ell", "params")

    def __init__(self, kind: StratumKind, ell: HalfInt, params: ModuliParams):
        if not admits(kind, params, ell):
            raise ParameterError(
                f"l = {ell} is outside the {kind.value} range for "
                f"(g, d1, d2) = ({params.g}, {params.d1}, {params.d2})"
            )
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "params", params)

    def __str__(self) -> str:
        return f"{self.kind.value}@{self.ell}"


def enumerate_critical(p: ModuliParams, l_max: HalfInt) -> list[StratumDescriptor]:
    """All descriptors with index at most l_max, sorted by (l, kind)."""
    _require_valid(p)
    half = HalfInt(p.d2)
    found = [StratumDescriptor(StratumKind.A, half, p)] if half <= l_max else []
    top = l_max.doubled // 2  # the largest integer index at most l_max
    for kind in list(StratumKind)[1:]:
        found += [StratumDescriptor(kind, HalfInt.from_int(l), p)
                  for l in kind_indices(p, kind.value, top)]
    return sorted(found, key=lambda s: (s.ell, _KIND_ORDER[s.kind]))


def critical_set_key(s: StratumDescriptor) -> tuple[str, int, int | None]:
    """What the critical set's series depends on besides the order: the
    row (A, B or C), the genus, and the parity of d2 for A or the
    symmetric-product exponent m for C (``params.sym_exponent``; None for B).
    """
    p, g = s.params, s.params.g
    if s.kind is StratumKind.A:
        return "A", g, p.d2 % 2
    if s.kind in (StratumKind.B1, StratumKind.B2, StratumKind.B3):
        return "B", g, None
    return "C", g, sym_exponent(p, s.kind.value, s.ell.as_int())


def critical_set_poincare(s: StratumDescriptor, order: int) -> TruncatedSeries:
    """Equivariant series of one critical set, per the classification
    table; a function of ``critical_set_key(s)`` and the order alone."""
    row, g, x = critical_set_key(s)
    if row == "A":  # P(J) times the rank-2 semistable stratum, over (1-t^2)^2
        return atiyah_bott_series(g, x, 3, SEMISTABLE, order, 2)
    if row == "B":
        return jacobian_block(g, 3, 2, 2, 2).expand(order)
    return jacobian_block(g, 2, 2, 2).expand(order, ((1, 0, (sym_factor(x, g, order),)),))


def kind_range_description(kind: StratumKind, p: ModuliParams) -> str:
    """Human-readable validity range of the index l for one kind."""
    if kind is StratumKind.A:
        return f"l = d2/2 = {Fraction(p.d2, 2)}"
    if kind is StratumKind.B2:
        # l = d1 > d2/2 holds exactly when tau > 0
        if p.tau > 0:
            return f"l = d1 = {p.d1}"
        return f"l = d1 = {p.d1} (empty: tau {'=' if p.tau == 0 else '<'} 0)"
    lower, upper, closed = kind_range(p, kind.value)
    if upper is None:
        return f"l > {lower}"
    return f"{lower} < l {'<=' if closed else '<'} {upper}"


# the critical-set table shows the coefficients of degrees 0..HEAD_DEGREE
HEAD_DEGREE = 5


def critical_table(p: ModuliParams, l_max: HalfInt | None = None,
                   order: int | None = None) -> dict:
    """The JSON document of ``higgsbetti strata``: a row per descriptor with
    index at most l_max, and the kinds with none.  A point with tau < 0 is
    tabulated at its dual, as assemblies are.  l_max defaults to d1 + 2g - 2
    and may exceed that by MAX_ORDER at most: every index above d1 is a row."""
    p, transforms = canonicalize(p)
    order = resolve_order(p.g, order)
    default = p.d1 + 2 * p.g - 2
    if l_max is None:
        l_max = HalfInt.from_int(default)
    if l_max.value > default + MAX_ORDER:
        raise ParameterError(
            f"lmax {l_max} is more than {MAX_ORDER} above the default "
            f"d1 + 2g - 2 = {default}")
    descriptors = enumerate_critical(p, l_max)
    rows = []
    for s in descriptors:
        try:
            dims = negative_dim(s)
        except ParameterError:
            dims = {}
        rows.append({
            "kind": s.kind.value,
            "l": str(s.ell),
            "range": kind_range_description(s.kind, p),
            "region": region_of(p, s.ell),
            "dimensions": dims,
            "series_head": [str(c) for c in
                            critical_set_poincare(s, min(order, HEAD_DEGREE)).coeffs],
            "note": table_note(s.kind),
        })
    present = {s.kind for s in descriptors}
    doc = {"params": p.describe(), "l_max": str(l_max), "order": order, "rows": rows,
           "empty_kinds": [k.value for k in StratumKind if k not in present]}
    if transforms:
        doc["transforms"] = transforms
    return doc


def table_note(kind: StratumKind) -> str | None:
    """Transcription caveats attached to table rows."""
    return C1_EXPONENT_NOTE if kind is StratumKind.C1 else None


def negative_dim(s: StratumDescriptor, component: str | None = None):
    """Exact constant dimensions of negative normal directions.

    Only the closed constants are returned: the B1 nonzero-section fiber
    dimension 2g-2+l-d1, the C2 harmonic-space dimension 2g-2+l-d2, and
    the h^{0,1}(S*Q) = g-1+2l-d2 component for the kinds whose index
    makes deg(S*Q) < 0.  Anything else raises, since the remaining
    summands have no constant formula.
    """
    p, g = s.params, s.params.g
    dims: dict[str, int] = {}
    if s.kind is StratumKind.B1:
        dims["nonzero_fiber_dim"] = 2 * g - 2 + s.ell.as_int() - p.d1
    elif s.kind is StratumKind.C2:
        dims["dim"] = 2 * g - 2 + s.ell.as_int() - p.d2
    elif s.kind in (StratumKind.B2, StratumKind.B3, StratumKind.C1, StratumKind.C3):
        # deg(S*Q) = d2 - 2l < 0 on these ranges
        dims["h01_s_star_q"] = h01_s_star_q(p, s.ell.as_int())
    if component is None:
        if not dims:
            raise UnspecifiedDimensionError(
                f"no constant dimension formula is stated for {s.kind.value}"
            )
        return dims
    if component not in dims:
        raise UnspecifiedDimensionError(
            f"dimension {component!r} is not specified for {s.kind.value}"
        )
    return dims[component]
