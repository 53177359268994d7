"""Headline assemblies: closed forms, stratum-sum routes, verification.

Each group admits two independent computations of the equivariant series
of the semistable locus:

  closed form      Bradlow pairs block plus a finite sum over the C1
                   range (products of symmetric-product series for the
                   non-fixed determinant group, cover polynomials for the
                   fixed-determinant group);

  stratum route    classifying-space total minus one labeled block per
                   critical stratum, with the semistable-bundle block and
                   the line-splitting tail canceling identically by the
                   Atiyah-Bott recursion.

Results default to relative mode: the two absolute pairs series enter as
explicit unknowns with series coefficients, linked by the exact
wall-crossing difference, so route equivalence is decidable without any
imported values.  A provider can substitute absolute values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .bradlow import BradlowProvider, SymbolicProvider, ww_difference
from .errors import ParameterError
from .ingredients import (
    CoverParams,
    ab_semistable_rank2,
    bg_su21,
    bg_u21,
    gothen_cover_poincare,
    jacobian_poincare,
    line_splitting_sum,
    sym_poincare,
    v_dim,
)
from .params import ModuliParams, canonicalize, s_tau
from .series import (
    PolynomialWindow,
    TruncatedSeries,
    is_polynomial_window,
    resolve_order,
)

PAIRS = "pairs_equivariant"
MODULI_MIN = "moduli_min"


@dataclass(frozen=True)
class TermValue:
    """One labeled, fully expanded summand of an assembly."""

    label: str
    series: TruncatedSeries

    def negated(self) -> "TermValue":
        return TermValue(f"-({self.label})", -self.series)


@dataclass(frozen=True)
class AssemblyResult:
    """Known series plus explicit unknown blocks a*pairs + b*moduli_min.

    The expanded terms always sum to the known series exactly.  In
    absolute mode the unknown map is empty.  ``params`` is the point
    assembled; ``transforms`` records how it was reached from the point
    asked for (a dualization when that point has tau < 0).
    """

    group: str
    params: ModuliParams
    order: int
    mode: str
    series: TruncatedSeries
    unknown: dict[str, TruncatedSeries]
    terms: tuple[TermValue, ...]
    transforms: tuple[dict, ...] = ()

    def __sub__(self, other: "AssemblyResult") -> "AssemblyResult":
        if self.order != other.order:
            raise ParameterError("order mismatch between assemblies")
        unknown: dict[str, TruncatedSeries] = {}
        for key in sorted(set(self.unknown) | set(other.unknown)):
            zero = TruncatedSeries.zero(self.order)
            diff = self.unknown.get(key, zero) - other.unknown.get(key, zero)
            if not diff.is_zero():
                unknown[key] = diff
        return replace(
            self,
            group=f"{self.group}-minus-{other.group}" if self.group != other.group
            else self.group,
            mode="absolute" if not unknown else "relative",
            series=self.series - other.series,
            unknown=unknown,
            terms=self.terms + tuple(t.negated() for t in other.terms),
        )

    def scaled_by(self, factor: TruncatedSeries) -> "AssemblyResult":
        return replace(
            self,
            series=self.series * factor,
            unknown={k: v * factor for k, v in self.unknown.items()},
            terms=tuple(TermValue(t.label, t.series * factor) for t in self.terms),
        )

    def eliminate_pairs(self) -> "AssemblyResult":
        """Rewrite the pairs unknown as moduli_min plus the concrete
        wall-crossing difference."""
        if PAIRS not in self.unknown:
            return self
        coeff = self.unknown[PAIRS]
        ww = ww_difference(self.params, self.order)
        unknown = dict(self.unknown)
        del unknown[PAIRS]
        zero = TruncatedSeries.zero(self.order)
        merged = unknown.get(MODULI_MIN, zero) + coeff
        if merged.is_zero():
            unknown.pop(MODULI_MIN, None)
        else:
            unknown[MODULI_MIN] = merged
        extra = TermValue("wall-crossing-elimination", coeff * ww)
        return replace(
            self,
            mode="absolute" if not unknown else "relative",
            series=self.series + extra.series,
            unknown=unknown,
            terms=self.terms + (extra,),
        )

    def to_json_dict(self) -> dict:
        def _coeffs(s: TruncatedSeries | None):
            return None if s is None else [str(c) for c in s.coeffs]

        doc = {
            "group": self.group,
            "g": self.params.g,
            "d1": self.params.d1,
            "d2": self.params.d2,
            "order": self.order,
            "mode": self.mode,
            "coefficients": _coeffs(self.series),
            "unknown_coefficients": {
                PAIRS: _coeffs(self.unknown.get(PAIRS)),
                MODULI_MIN: _coeffs(self.unknown.get(MODULI_MIN)),
            },
            "terms": [
                {"label": t.label, "coefficients": _coeffs(t.series)}
                for t in self.terms
            ],
        }
        if self.transforms:
            doc["transforms"] = list(self.transforms)
        return doc


class _Builder:
    """Collects the terms of one assembly at a point with tau >= 0."""

    def __init__(self, group: str, p: ModuliParams, order: int,
                 transforms: list[dict]):
        self.group = group
        self.p = p
        self.order = order
        self.transforms = tuple(transforms)
        self.jac = jacobian_poincare(p.g, order)
        self.known = TruncatedSeries.zero(order)
        self.terms: list[TermValue] = []
        self.unknown: dict[str, TruncatedSeries] = {}
        self.unknown_labels: dict[str, str] = {}

    def add(self, label: str, series: TruncatedSeries) -> None:
        if series.is_zero():
            return
        self.known = self.known + series
        self.terms.append(TermValue(label, series))

    def add_unknown(self, name: str, coeff: TruncatedSeries, label: str) -> None:
        zero = TruncatedSeries.zero(self.order)
        self.unknown[name] = self.unknown.get(name, zero) + coeff
        self.unknown_labels[name] = label

    def finish(self, provider: BradlowProvider | None) -> AssemblyResult:
        provider = provider or SymbolicProvider()
        p, order = self.p, self.order
        values: dict[str, TruncatedSeries | None] = {}
        if self.unknown:
            pairs = provider.pairs_equivariant(p.e, p.sigma, p.g, order)
            mm = provider.moduli_min(p.e, p.g, order)
            # one known side determines the other through the difference
            if pairs is None and mm is not None:
                pairs = mm + ww_difference(p, order)
            elif mm is None and pairs is not None:
                mm = pairs - ww_difference(p, order)
            values = {PAIRS: pairs, MODULI_MIN: mm}
        unknown: dict[str, TruncatedSeries] = {}
        known = self.known
        terms = list(self.terms)
        for name, coeff in self.unknown.items():
            value = values.get(name)
            if value is None:
                unknown[name] = coeff
            else:
                concrete = coeff * value
                known = known + concrete
                terms.append(TermValue(self.unknown_labels[name], concrete))
        return AssemblyResult(
            group=self.group,
            params=p,
            order=order,
            mode="absolute" if not unknown else "relative",
            series=known,
            unknown=unknown,
            terms=tuple(terms),
            transforms=self.transforms,
        )


def _assembly(group: str):
    """Turn a term-adding body into the public builder
    ``(p, provider=None, order=None, *, force=False) -> AssemblyResult``.

    This is the one way into every assembly.  It refuses |tau| > 2g-2
    unless forced, dualizes a point with tau < 0 to (-d1, -d2) through
    ``canonicalize`` (duality of Higgs bundles identifies the two moduli
    spaces, so every series depends on tau only up to sign), resolves the
    order, runs the body on a fresh builder and substitutes the provider.
    """

    def decorate(body):
        def build(
            p: ModuliParams,
            provider: BradlowProvider | None = None,
            order: int | None = None,
            *,
            force: bool = False,
        ) -> AssemblyResult:
            if not p.valid and not force:
                raise ParameterError(
                    f"tau = {p.tau} violates |tau| <= 2g-2 = {2 * p.g - 2}; "
                    "pass force to compute anyway"
                )
            point, transforms = canonicalize(p)
            b = _Builder(group, point, resolve_order(p.g, order), transforms)
            body(b)
            return b.finish(provider)

        build.__name__ = build.__qualname__ = body.__name__
        build.__doc__ = body.__doc__
        return build

    return decorate


def _c1_ells(p: ModuliParams) -> list[int]:
    lo = Fraction(p.d1 + p.d2, 3)
    hi = p.d2 - p.d1 + 2 * p.g - 2
    return list(range(lo.__floor__() + 1, hi + 1))


def _c2_sum_ells(p: ModuliParams) -> list[int]:
    # C2-type block, top member l = d2/2 included when d2 is even
    lo = Fraction(2 * p.d2 - p.d1, 3)
    hi = Fraction(p.d2, 2)
    return list(range(lo.__floor__() + 1, hi.__floor__() + 1))


def _b1_diff_ells(p: ModuliParams) -> list[int]:
    lo = Fraction(p.d2, 2)
    hi = Fraction(p.d1 + p.d2, 3)
    return list(range(lo.__floor__() + 1, hi.__floor__() + 1))


def _mu(p: ModuliParams, l: int) -> int:
    return 2 * (p.g - 1 + 2 * l - p.d2)


def _cover_exponents(p: ModuliParams, l: int) -> tuple[int, int]:
    return (p.d2 - p.d1 + 2 * p.g - 2 - l, p.d1 - l + 2 * p.g - 2)


def _add_c1_sum(b: _Builder) -> None:
    p, order = b.p, b.order
    g = p.g
    for l in _c1_ells(p):
        m1, m2 = _cover_exponents(p, l)
        if b.group == "u21":
            piece = (b.jac * sym_poincare(m1, g, order)
                     * sym_poincare(m2, g, order)).over_one_minus(2)
            label = f"C1[l={l}]"
        elif b.group == "su21":
            piece = gothen_cover_poincare(CoverParams(m1, m2, g), order)
            label = f"cover-sum[l={l}]"
        else:  # pu21: 3-torsion invariant part of the cover
            piece = sym_poincare(m1, g, order) * sym_poincare(m2, g, order)
            label = f"invariant-cover-sum[l={l}]"
        b.add(label, piece.shifted(_mu(p, l)))


def _add_closed_form(b: _Builder) -> None:
    b.add_unknown(PAIRS, b.jac.over_one_minus(2), "pairs-block")
    _add_c1_sum(b)


@_assembly("u21")
def u21_closed_form(b: _Builder) -> None:
    """Equivariant series of the semistable locus, closed form.

    Bradlow block (P(J)/(1-t^2)) * pairs_equivariant plus the C1 sum of
    t^{2(g-1+2l-d2)} P(J) P(S^{d2-d1+2g-2-l}) P(S^{d1-l+2g-2})/(1-t^2).
    """
    _add_closed_form(b)


@_assembly("u21")
def u21_stratum_route(b: _Builder) -> None:
    """Equivariant series via the per-stratum Morse-theoretic sum.

    Classifying-space total minus one labeled block per critical stratum.
    The semistable-bundle block and the line-splitting tail cancel the
    total identically (Atiyah-Bott); the rest is the Bradlow moduli block
    and three finite sums.  The even-d2 boundary term of the A-stratum is
    kept explicitly: for tau > 0 it cancels the top member of the C2 sum
    (the consolidation asserted by tests), while at tau = 0 that member
    does not exist and the term survives.
    """
    p, order, jac = b.p, b.order, b.jac
    g, d1, d2 = p.g, p.d1, p.d2
    b.add("classifying-total", bg_u21(g, order))
    b.add("semistable-bundle-block",
          -(jac * ab_semistable_rank2(d2, g, order)).over_one_minus(2))
    b.add("line-splitting-tail", -line_splitting_sum(g, d2, order, 3))
    b.add_unknown(MODULI_MIN, jac.over_one_minus(2), "bradlow-moduli-block")
    if d2 % 2 == 0:
        boundary = (jac * jac * sym_poincare(p.e // 2, g, order)).over_one_minus(2, 2)
        b.add("even-degree-boundary", boundary.shifted(p.e))
    for l in _c2_sum_ells(p):
        piece = jac * jac * sym_poincare(l - d1 + 2 * g - 2, g, order)
        piece = piece.over_one_minus(2, 2)
        b.add(f"C2[l={l}]", -piece.shifted(2 * (2 * g - 2 + l - d1)))
    for l in _b1_diff_ells(p):
        m = d2 - d1 + 2 * g - 2 - l
        piece = (jac * jac * sym_poincare(m, g, order)).over_one_minus(2, 2)
        b.add(f"B1-diff[l={l}]", piece.shifted(_mu(p, l)))
    _add_c1_sum(b)


@_assembly("su21")
def su21_closed_form(b: _Builder) -> None:
    """Fixed-determinant closed form: Bradlow block plus the cover sum."""
    _add_closed_form(b)


@_assembly("su21")
def su21_stratum_route(b: _Builder) -> None:
    """Fixed-determinant stratum sum, item for item as displayed.

    The bookkeeping of the A-item against the closed form's Bradlow block
    is not fully displayed in the source material, so this route is
    diagnostic: its residual against the closed form is reported with
    term provenance, never asserted to vanish.
    """
    p, order, jac = b.p, b.order, b.jac
    g, d1, d2 = p.g, p.d1, p.d2
    b.add("classifying-total", bg_su21(g, order))
    b.add("semistable-bundle-block", -ab_semistable_rank2(d2, g, order))
    b.add("line-splitting-tail", -line_splitting_sum(g, d2, order, 2))
    b.add_unknown(MODULI_MIN, TruncatedSeries.one(order), "bradlow-moduli-block")
    if d2 % 2 == 0:
        boundary = jac * sym_poincare(p.e // 2, g, order)
        b.add("even-degree-boundary", boundary.shifted(p.e))
    for l in _c2_sum_ells(p):
        piece = (jac * sym_poincare(l - d1 + 2 * g - 2, g, order)).over_one_minus(2, 2)
        b.add(f"C2[l={l}]", -piece.shifted(2 * (2 * g - 2 + l - d1)))
    for l in _b1_diff_ells(p):
        m = d2 - d1 + 2 * g - 2 - l
        piece = (jac * sym_poincare(m, g, order)).over_one_minus(2)
        b.add(f"B1-diff[l={l}]", piece.shifted(_mu(p, l)))
    _add_c1_sum(b)


@_assembly("pu21")
def pu21_poincare(b: _Builder) -> None:
    """3-torsion invariant part: the fixed-determinant closed form with
    each cover polynomial replaced by the bare product of symmetric
    products (the Bradlow block carries a trivial action and is kept)."""
    _add_closed_form(b)


# every assembly, keyed by (group, route)
BUILDERS = {
    ("u21", "closed"): u21_closed_form,
    ("u21", "stratum"): u21_stratum_route,
    ("su21", "closed"): su21_closed_form,
    ("su21", "stratum"): su21_stratum_route,
    ("pu21", "closed"): pu21_poincare,
}


def ab_cancellation_residual(g: int, d2: int, order: int) -> TruncatedSeries:
    """Classifying total minus semistable-bundle block minus tail.

    Zero identically; this is the identity that pins the classifying
    space normalizations.
    """
    jac = jacobian_poincare(g, order)
    return (
        bg_u21(g, order)
        - (jac * ab_semistable_rank2(d2, g, order)).over_one_minus(2)
        - line_splitting_sum(g, d2, order, 3)
    )


def su_ab_cancellation_residual(g: int, d2: int, order: int) -> TruncatedSeries:
    """Fixed-determinant analog of the cancellation; also identically zero."""
    return (
        bg_su21(g, order)
        - ab_semistable_rank2(d2, g, order)
        - line_splitting_sum(g, d2, order, 2)
    )


def torelli_anomalous_part(p: ModuliParams, order: int | None = None) -> dict[int, int]:
    """Degrees where the Torelli action is nontrivial, with dimensions.

    For each anomalous degree 6g-6+tau/2+2l the dimension is the
    coefficient (3^{2g}-1) C(2g-2, m1) C(2g-2, m2) of its cover summand.
    """
    tau = p.tau
    if tau.denominator != 1 or int(tau) % 2 != 0:
        raise ParameterError("the Toledo invariant must be an even integer here")
    if not 0 <= tau <= 2 * p.g - 2:
        raise ParameterError("tau outside [0, 2g-2]")
    out: dict[int, int] = {}
    for degree, (m1, m2) in s_tau(p.g, int(tau)).items():
        out[degree] = v_dim(CoverParams(m1, m2, p.g))
    return out


@dataclass(frozen=True)
class RouteEquivalenceReport:
    """Concrete residual of closed form minus stratum route (relative mode,
    pairs eliminated through the wall-crossing difference)."""

    group: str
    params: ModuliParams
    order: int
    residual: TruncatedSeries
    residual_unknowns: dict[str, TruncatedSeries]
    closed_terms: tuple[TermValue, ...]
    route_terms: tuple[TermValue, ...]

    @property
    def zero(self) -> bool:
        return self.residual.is_zero() and all(
            s.is_zero() for s in self.residual_unknowns.values()
        )

    def first_nonzero_degree(self) -> int | None:
        for k in range(self.order + 1):
            if self.residual.coeffs[k] != 0:
                return k
            for s in self.residual_unknowns.values():
                if s.coeffs[k] != 0:
                    return k
        return None

    def term_provenance(self, degree: int) -> dict[str, int]:
        """Coefficient at one degree of every contributing labeled term."""
        out: dict[str, int] = {}
        for t in self.closed_terms:
            c = t.series.coeffs[degree]
            if c:
                out[f"closed:{t.label}"] = c
        for t in self.route_terms:
            c = t.series.coeffs[degree]
            if c:
                out[f"route:{t.label}"] = c
        return out


def verify_route_equivalence(
    group: str, p: ModuliParams, order: int | None = None
) -> RouteEquivalenceReport:
    """Closed form minus stratum route with provider unknowns eliminated.

    A zero residual (series and remaining unknown coefficients) means the
    two transcriptions are mutually consistent.  Nonzero residuals are
    findings, reported with per-term provenance, never exceptions.
    """
    if (group, "stratum") not in BUILDERS:
        raise ParameterError(f"no route pair for group {group!r}")
    closed = BUILDERS[(group, "closed")](p, None, order)
    route = BUILDERS[(group, "stratum")](p, None, order)
    diff = (closed - route).eliminate_pairs()
    return RouteEquivalenceReport(
        group=group,
        params=closed.params,
        order=closed.order,
        residual=diff.series,
        residual_unknowns=dict(diff.unknown),
        closed_terms=closed.terms,
        route_terms=route.terms,
    )


@dataclass(frozen=True)
class ModuliReport:
    result: AssemblyResult
    polynomial: PolynomialWindow | None
    nonnegative: bool | None


def moduli_poincare(
    p: ModuliParams,
    provider: BradlowProvider | None = None,
    order: int | None = None,
    *,
    window: int | None = None,
    force: bool = False,
) -> ModuliReport:
    """Moduli-space series (1-t^2) times the equivariant series, defined
    in the coprime classes only, with a truncation-window polynomiality
    probe (heuristic: truncation can only falsify polynomiality)."""
    if not p.is_coprime:
        raise ParameterError(
            "moduli series defined only in the coprime case (d1+d2 not "
            "divisible by 3)"
        )
    equivariant = u21_closed_form(p, provider, order, force=force)
    one_minus_t2 = TruncatedSeries.from_coeffs([1, 0, -1], equivariant.order)
    result = replace(equivariant.scaled_by(one_minus_t2), group="moduli")
    if result.mode == "absolute":
        w = window if window is not None else max(2, result.order // 4)
        return ModuliReport(
            result=result,
            polynomial=is_polynomial_window(result.series, w),
            nonnegative=result.series.is_nonnegative(),
        )
    return ModuliReport(result=result, polynomial=None, nonnegative=None)
