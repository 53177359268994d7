"""Critical-set enumeration and per-stratum topological data.

The nonminimal critical sets of the Yang-Mills-Higgs flow come in seven
kinds, named by the strings of ``KINDS``.  A descriptor is a kind name
plus an index l, the degree of the destabilizing line subbundle: an
``int``, except for A, whose l = d2/2 is a ``Fraction``:

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

from fractions import Fraction
from math import floor

from .errors import ParameterError, UnspecifiedDimensionError
from .ingredients import SEMISTABLE, atiyah_bott_series, jacobian_block, sym_factor
from .params import (C1_EXPONENT_NOTE, MAX_ORDER, ModuliParams,
                     _require_valid, canonicalize, h01_s_star_q, kind_indices,
                     kind_range, region_of, sym_exponent)
from .records import Frozen, dataclass_compatible
from .series import TruncatedSeries, resolve_order


# the stratum kinds in table order
KINDS = ("A", "B1", "B2", "B3", "C1", "C2", "C3")


def admits(kind: str, p: ModuliParams, ell: int | Fraction) -> bool:
    """Whether the kind's validity range contains the index l."""
    if kind == "A":
        return 2 * ell == p.d2
    l = floor(ell)
    return l == ell and l in kind_indices(p, kind, l)


@dataclass_compatible
class StratumDescriptor(Frozen):
    __slots__ = _fields = ("kind", "ell", "params")

    def __init__(self, kind: str, ell: int | Fraction, params: ModuliParams):
        if not admits(kind, params, ell):
            raise ParameterError(
                f"l = {ell} is outside the {kind} range for "
                f"(g, d1, d2) = ({params.g}, {params.d1}, {params.d2})"
            )
        object.__setattr__(self, "kind", kind)
        # l is stored as d2/2 for A and as an int for every other kind
        object.__setattr__(self, "ell", Fraction(params.d2, 2) if kind == "A" else floor(ell))
        object.__setattr__(self, "params", params)

    def __str__(self) -> str:
        return f"{self.kind}@{self.ell}"


def enumerate_critical(p: ModuliParams, l_max: int | Fraction) -> list[StratumDescriptor]:
    """All descriptors with index at most l_max, sorted by (l, kind)."""
    _require_valid(p)
    half = Fraction(p.d2, 2)
    found = [StratumDescriptor("A", half, p)] if half <= l_max else []
    for kind in KINDS[1:]:
        found += [StratumDescriptor(kind, l, p)
                  for l in kind_indices(p, kind, floor(l_max))]
    # a stable sort: descriptors of equal l keep the KINDS order
    return sorted(found, key=lambda s: s.ell)


def critical_set_key(s: StratumDescriptor) -> tuple[str, int, int | None]:
    """What the critical set's series depends on besides the order: the
    row (A, B or C), the genus, and the parity of d2 for A or the
    symmetric-product exponent m for C (``params.sym_exponent``; None for B).
    """
    p, g = s.params, s.params.g
    row = s.kind[0]
    if row == "A":
        return row, g, p.d2 % 2
    if row == "B":
        return row, g, None
    return row, g, sym_exponent(p, s.kind, s.ell)


def critical_set_poincare(s: StratumDescriptor, order: int) -> TruncatedSeries:
    """Equivariant series of one critical set, per the classification
    table; a function of ``critical_set_key(s)`` and the order alone."""
    row, g, x = critical_set_key(s)
    if row == "A":  # P(J) times the rank-2 semistable stratum, over (1-t^2)^2
        return atiyah_bott_series(g, x, 3, SEMISTABLE, order, 2)
    if row == "B":
        return jacobian_block(g, 3, 2, 2, 2).expand(order)
    return jacobian_block(g, 2, 2, 2).expand(order, ((1, 0, (sym_factor(x, g, order),)),))


def kind_range_description(kind: str, p: ModuliParams) -> str:
    """Human-readable validity range of the index l for one kind."""
    if kind == "A":
        return f"l = d2/2 = {Fraction(p.d2, 2)}"
    if kind == "B2":
        # l = d1 > d2/2 holds exactly when tau > 0
        if p.tau > 0:
            return f"l = d1 = {p.d1}"
        return f"l = d1 = {p.d1} (empty: tau {'=' if p.tau == 0 else '<'} 0)"
    lower, upper, closed = kind_range(p, kind)
    if upper is None:
        return f"l > {lower}"
    return f"{lower} < l {'<=' if closed else '<'} {upper}"


# the critical-set table shows the coefficients of degrees 0..HEAD_DEGREE
HEAD_DEGREE = 5


def critical_table(p: ModuliParams, l_max: int | Fraction | None = None,
                   order: int | None = None) -> dict:
    """The JSON document of ``higgsbetti strata``: a row per descriptor with
    index at most l_max, and the kinds with none.  A point with tau < 0 is
    tabulated at its dual, as assemblies are.  l_max defaults to d1 + 2g - 2
    and may exceed that by MAX_ORDER at most: every index above d1 is a row."""
    p, transforms = canonicalize(p)
    order = resolve_order(p.g, order)
    default = p.d1 + 2 * p.g - 2
    if l_max is None:
        l_max = default
    if l_max > default + MAX_ORDER:
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
            "kind": s.kind,
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
           "empty_kinds": [k for k in KINDS if k not in present]}
    if transforms:
        doc["transforms"] = transforms
    return doc


def table_note(kind: str) -> str | None:
    """Transcription caveats attached to table rows."""
    return C1_EXPONENT_NOTE if kind == "C1" else None


def negative_dim(s: StratumDescriptor) -> dict[str, int]:
    """Exact constant dimensions of negative normal directions.

    Only the closed constants are returned: the B1 nonzero-section fiber
    dimension 2g-2+l-d1, the C2 harmonic-space dimension 2g-2+l-d2, and
    the h^{0,1}(S*Q) = g-1+2l-d2 component for the kinds whose index
    makes deg(S*Q) < 0.  Anything else raises, since the remaining
    summands have no constant formula.
    """
    p, g = s.params, s.params.g
    dims: dict[str, int] = {}
    if s.kind == "B1":
        dims["nonzero_fiber_dim"] = 2 * g - 2 + s.ell - p.d1
    elif s.kind == "C2":
        dims["dim"] = 2 * g - 2 + s.ell - p.d2
    elif s.kind != "A":
        # deg(S*Q) = d2 - 2l < 0 on these ranges
        dims["h01_s_star_q"] = h01_s_star_q(p, s.ell)
    if not dims:
        raise UnspecifiedDimensionError(
            f"no constant dimension formula is stated for {s.kind}")
    return dims
