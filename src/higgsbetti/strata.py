"""Critical-set enumeration and per-stratum topological data.

The nonminimal critical sets of the Yang-Mills-Higgs flow come in seven
kinds.  A descriptor is a kind plus a half-integer index l (the degree of
the destabilizing line subbundle; the A kind sits at l = d2/2):

    A   l = d2/2                      rank-2 summand semistable, zero field
    B1  d2/2 < l < d1                 three line bundles, zero field
    B2  l = d1                        three line bundles, field unconstrained
    B3  d1 < l                        three line bundles, zero field
    C1  (d1+d2)/3 < l <= d2-d1+2g-2   split stable (1,1)-piece, section to Q
    C2  (2d2-d1)/3 < l < d1           split stable (1,1)-piece, section to S
    C3  d1 < l <= d1+2g-2             split stable (1,1)-piece, field from S

This module renders the classification table (equivariant series of each
critical set), the constant dimension formulas of the negative normal
directions, and the relative-cohomology series of the displayed
negative-normal pairs, as labeled diagnostic data.  The assembler does
not consume these; it uses the consolidated per-stratum route terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import ParameterError, RangeViolationError, UnspecifiedDimensionError
from .ingredients import ab_semistable_rank2, jacobian_poincare, sym_poincare
from .params import HalfInt, ModuliParams, _require_valid, index_bounds
from .series import TruncatedSeries


class StratumKind(str, Enum):
    A = "A"
    B1 = "B1"
    B2 = "B2"
    B3 = "B3"
    C1 = "C1"
    C2 = "C2"
    C3 = "C3"


_KIND_ORDER = {k: i for i, k in enumerate(StratumKind)}


def _ranges(p: ModuliParams) -> dict[StratumKind, tuple[int, int, bool]]:
    """Index ranges of B1, C1, C2 and C3, in integers: a fractional open
    end is kept as its floor (see ``params.index_bounds``)."""
    d1, bounds = p.d1, index_bounds(p)
    return {
        # (exclusive lower, exclusive/inclusive upper, upper inclusive?)
        StratumKind.B1: (bounds.half_d2, d1, False),
        StratumKind.C1: (bounds.c1_low, bounds.c1_top, True),
        StratumKind.C2: (bounds.c2_low, d1, False),
        StratumKind.C3: (d1, d1 + 2 * p.g - 2, True),
    }


def admits(kind: StratumKind, p: ModuliParams, ell: HalfInt) -> bool:
    """Whether the kind's validity range contains the index l."""
    v = ell.value
    if kind is StratumKind.A:
        return v == Fraction(p.d2, 2)
    if not ell.is_integer:
        return False
    if kind is StratumKind.B2:
        # the middle line-splitting exists only when d1 exceeds d2/2
        return v == p.d1 and Fraction(p.d2, 2) < p.d1
    if kind is StratumKind.B3:
        return v > p.d1
    lo, hi, inclusive = _ranges(p)[kind]
    return lo < v <= hi if inclusive else lo < v < hi


@dataclass(frozen=True)
class StratumDescriptor:
    kind: StratumKind
    ell: HalfInt
    params: ModuliParams

    def __post_init__(self):
        if not admits(self.kind, self.params, self.ell):
            raise ParameterError(
                f"l = {self.ell} is outside the {self.kind.value} range for "
                f"(g, d1, d2) = ({self.params.g}, {self.params.d1}, {self.params.d2})"
            )

    def __str__(self) -> str:
        return f"{self.kind.value}@{self.ell}"


def enumerate_critical(p: ModuliParams, l_max: HalfInt) -> list[StratumDescriptor]:
    """All descriptors with index at most l_max, sorted by (l, kind)."""
    _require_valid(p)
    found: list[StratumDescriptor] = []
    half = HalfInt(p.d2)
    if half <= l_max:
        found.append(StratumDescriptor(StratumKind.A, half, p))
    for kind in (StratumKind.B1, StratumKind.B2, StratumKind.B3,
                 StratumKind.C1, StratumKind.C2, StratumKind.C3):
        l = _smallest_admitted(kind, p)
        if l is None:
            continue
        while Fraction(l) <= l_max.value:
            ell = HalfInt.from_int(l)
            if not admits(kind, p, ell):
                break
            found.append(StratumDescriptor(kind, ell, p))
            l += 1
    return sorted(found, key=lambda s: (s.ell, _KIND_ORDER[s.kind]))


def _smallest_admitted(kind: StratumKind, p: ModuliParams) -> int | None:
    if kind is StratumKind.B2:
        return p.d1 if admits(kind, p, HalfInt.from_int(p.d1)) else None
    if kind is StratumKind.B3:
        return p.d1 + 1
    lo, hi, inclusive = _ranges(p)[kind]
    l = lo + 1  # smallest integer strictly above lo
    ok = l <= hi if inclusive else l < hi
    return l if ok else None


def critical_set_poincare(s: StratumDescriptor, order: int) -> TruncatedSeries:
    """Equivariant series of one critical set, per the classification table.

    The C1 row uses the symmetric-product exponent d2 - l - d1 + 2g - 2
    (the value forced by the section degree in the C1 construction and by
    every downstream display); see table_note("C1").
    """
    p, g = s.params, s.params.g
    jac = jacobian_poincare(g, order)
    if s.kind is StratumKind.A:
        return (jac * ab_semistable_rank2(p.d2, g, order)).over_one_minus(2, 2)
    if s.kind in (StratumKind.B1, StratumKind.B2, StratumKind.B3):
        return (jac * jac * jac).over_one_minus(2, 2, 2)
    l = s.ell.as_int()
    if s.kind is StratumKind.C1:
        m = p.d2 - l - p.d1 + 2 * g - 2
    elif s.kind is StratumKind.C2:
        m = l - p.d1 + 2 * g - 2
    else:  # C3
        m = p.d1 - l + 2 * g - 2
    if m < 0:
        raise RangeViolationError(
            f"negative symmetric-product exponent {m} for {s}"
        )
    return (jac * jac * sym_poincare(m, g, order)).over_one_minus(2, 2)


def kind_range_description(kind: StratumKind, p: ModuliParams) -> str:
    """Human-readable validity range of the index l for one kind."""
    g, d1, d2 = p.g, p.d1, p.d2
    if kind is StratumKind.A:
        return f"l = d2/2 = {Fraction(d2, 2)}"
    if kind is StratumKind.B1:
        return f"{Fraction(d2, 2)} < l < {d1}"
    if kind is StratumKind.B2:
        return f"l = d1 = {d1}" + ("" if Fraction(d2, 2) < d1 else " (empty: tau = 0)")
    if kind is StratumKind.B3:
        return f"l > {d1}"
    if kind is StratumKind.C1:
        return f"{Fraction(d1 + d2, 3)} < l <= {d2 - d1 + 2 * g - 2}"
    if kind is StratumKind.C2:
        return f"{Fraction(2 * d2 - d1, 3)} < l < {d1}"
    return f"{d1} < l <= {d1 + 2 * g - 2}"


def table_note(kind: StratumKind) -> str | None:
    """Transcription caveats attached to table rows."""
    if kind is StratumKind.C1:
        return (
            "symmetric-product exponent taken as d2-l-d1+2g-2, the degree of "
            "the section bundle in the C1 construction; the printed table row "
            "carries l-d1+2g-2, inconsistent with every other display"
        )
    return None


def negative_dim(s: StratumDescriptor, component: str | None = None):
    """Exact constant dimensions of negative normal directions.

    Only the closed constants are returned: the B1 nonzero-section fiber
    dimension 2g-2+l-d1, the C2 harmonic-space dimension 2g-2+l-d2, and
    the h^{0,1}(S*Q) = g-1+2l-d2 component for the kinds whose index
    forces deg(S*Q) < 0.  Anything else raises, since the remaining
    summands have no constant formula.
    """
    p, g = s.params, s.params.g
    dims: dict[str, int] = {}
    if s.kind is StratumKind.B1:
        dims["nonzero_fiber_dim"] = 2 * g - 2 + s.ell.as_int() - p.d1
    elif s.kind is StratumKind.C2:
        dims["dim"] = 2 * g - 2 + s.ell.as_int() - p.d2
    elif s.kind in (StratumKind.B2, StratumKind.B3, StratumKind.C1, StratumKind.C3):
        # deg(S*Q) = d2 - 2l < 0 on these ranges, so h^0 = 0 and the
        # Riemann-Roch value is constant
        dims["h01_s_star_q"] = g - 1 + 2 * s.ell.as_int() - p.d2
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


# Registry of the displayed negative-normal-pair cohomology series.
# Each entry maps to (shift exponent, jacobian power, sym exponents,
# euler factors), all as functions of (g, d1, d2, l).  A pair may also be
# a difference of two such shapes.


def _pair_shapes(s: StratumDescriptor) -> dict[str, list[tuple]]:
    p = s.params
    g, d1, d2 = p.g, p.d1, p.d2
    l = s.ell.as_int() if s.ell.is_integer else None
    k = s.kind
    c1_top = d2 - d1 + 2 * g - 2
    shapes: dict[str, list[tuple]] = {}
    if k is StratumKind.C1:
        shapes["eta-,eta''"] = [(+1, 2 * (d2 - 2 * l + g - 1), 2, (l - d1 + 2 * g - 2,), 2)]
        shapes["eta',eta''"] = [
            (+1, 2 * (d2 - 2 * l + g - 1), 1,
             (d2 - d1 + 2 * g - 2 - l, d1 - l + 2 * g - 2), 1)
        ]
    elif k is StratumKind.B1:
        shapes["nu-,nu''"] = [(+1, 2 * (2 * l - d2 + g - 1), 3, (), 3)]
        if l <= c1_top:
            shapes["nu',omega"] = [(+1, 2 * (l - d1 + 2 * g - 2), 2, (l - d1 + 2 * g - 2,), 2)]
            shapes["omega,nu''"] = [
                (+1, 2 * (2 * l - d2 + g - 1), 2, (d2 - d1 + 2 * g - 2 - l,), 2)
            ]
        else:
            shapes["nu',nu''"] = [(+1, 2 * (l - d1 + 2 * g - 2), 2, (l - d1 + 2 * g - 2,), 2)]
    elif k is StratumKind.C2:
        shapes["zeta-,zeta'"] = [(+1, 2 * (l - d1 + 2 * g - 2), 2, (l - d1 + 2 * g - 2,), 2)]
    elif k is StratumKind.C3:
        if l <= c1_top:
            shapes["zeta-,zeta''"] = [(+1, 2 * (2 * l - d2 + g - 1), 2, (d1 - l + 2 * g - 2,), 2)]
            shapes["zeta',zeta''"] = [
                (+1, 2 * (2 * l - d2 + g - 1), 1,
                 (d2 - d1 - l + 2 * g - 2, d1 - l + 2 * g - 2), 1)
            ]
            shapes["zeta-,zeta'"] = [
                (+1, 2 * (2 * l - d2 + g - 1), 2, (d1 - l + 2 * g - 2,), 2),
                (-1, 2 * (2 * l - d2 + g - 1), 1,
                 (d2 - d1 - l + 2 * g - 2, d1 - l + 2 * g - 2), 1),
            ]
        else:
            shapes["zeta-,zeta'"] = [
                (+1, 2 * (2 * l - d2 + 2 * g - 2), 2, (d1 - l + 2 * g - 2,), 2)
            ]
    elif k is StratumKind.B2:
        if d1 <= c1_top:
            # two euler factors on the main pair, as displayed
            shapes["nu-,nu''"] = [(+1, 2 * (2 * d1 - d2 + g - 1), 3, (), 2)]
            shapes["nu',nu''"] = [
                (+1, 2 * (2 * d1 - d2 + g - 1), 2, (d2 - 2 * d1 + 2 * g - 2,), 1)
            ]
        else:
            shapes["nu-,nu'"] = [(+1, 2 * (2 * d1 - d2 + g - 1), 3, (), 3)]
    elif k is StratumKind.B3:
        shapes["nu-,nu''"] = [(+1, 2 * (2 * l - d2 + g - 1), 3, (), 3)]
        if l <= c1_top:
            shapes["omega,nu''"] = [
                (+1, 2 * (2 * l - d2 + g - 1), 2, (d2 - d1 - l + 2 * g - 2,), 2)
            ]
            shapes["nu',omega"] = [
                (+1, 2 * (2 * l - d2 + g - 1), 2, (d1 - l + 2 * g - 2,), 2),
                (-1, 2 * (2 * l - d2 + g - 1), 1,
                 (d2 - d1 - l + 2 * g - 2, d1 - l + 2 * g - 2), 1),
            ]
        elif l <= d1 + 2 * g - 2:
            shapes["nu',nu''"] = [
                (+1, 2 * (2 * l - d2 + 2 * g - 2), 2, (d1 - l + 2 * g - 2,), 2)
            ]
        else:
            shapes["nu-,nu'"] = [(+1, 2 * (2 * l - d2 + g - 1), 3, (), 3)]
    return shapes


def negative_pair_kinds(s: StratumDescriptor) -> list[str]:
    """Names of the displayed pairs available for this descriptor."""
    return sorted(_pair_shapes(s))


def negative_pair_cohomology(
    s: StratumDescriptor, pair_kind: str, order: int
) -> TruncatedSeries:
    """Relative-cohomology series of one displayed negative-normal pair.

    Shape: t^{2 codim} times jacobian and symmetric-product factors over
    (1-t^2) to the number of circle factors.  A shift or exponent that
    evaluates negative raises RangeViolationError rather than clamping.
    """
    shapes = _pair_shapes(s)
    if pair_kind not in shapes:
        raise ParameterError(
            f"unknown pair {pair_kind!r} for {s.kind.value}; "
            f"available: {', '.join(sorted(shapes))}"
        )
    g = s.params.g
    total = TruncatedSeries.zero(order)
    for sign, shift, jac_pow, sym_exps, euler_pow in shapes[pair_kind]:
        if shift < 0:
            raise RangeViolationError(
                f"negative degree shift {shift} for pair ({pair_kind}) at {s}"
            )
        if any(m < 0 for m in sym_exps):
            raise RangeViolationError(
                f"negative symmetric-product exponent for pair ({pair_kind}) at {s}"
            )
        piece = TruncatedSeries.one(order)
        jac = jacobian_poincare(g, order)
        for _ in range(jac_pow):
            piece = piece * jac
        for m in sym_exps:
            piece = piece * sym_poincare(m, g, order)
        piece = piece.over_one_minus(*[2] * euler_pow)
        total = total + piece.shifted(shift).scale(sign)
    return total
