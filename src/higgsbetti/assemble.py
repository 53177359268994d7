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

Every assembly is a sum of blocks.  A block is the factor and the
denominator that all strata of one kind share: P(J)/(1-t^2) for C1,
P(J)^2/(1-t^2)^2 for C2, B1-diff and the boundary term of the u21 route,
1/((1-t^2)^k (1-t^4)) for the Atiyah-Bott block of a route, and 1 for
the cover sums.  A term is (label, sign, shift, local numerator, block),
the local numerator being P(S^m1) P(S^m2), a Gothen cover polynomial or
P(S^m).  The builder adds each term's shifted numerator into its block's
sum, and ``finish`` makes one factor product and one division per block.
A term's own expansion is made only when it is read (JSON ``terms``,
residual provenance), and provenance expands only up to the degree it
asks for.  Every block is a unit power series, so a term is dropped
exactly when its shifted numerator vanishes below the order.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from functools import cached_property

from .bradlow import BradlowProvider, SymbolicProvider, ww_difference
from .errors import ParameterError
from .ingredients import (
    CoverParams,
    ab_semistable_rank2,
    atiyah_bott_numerators,
    bg_su21,
    bg_u21,
    gothen_cover_poincare,
    jacobian_poincare,
    jacobian_polynomial,
    line_splitting_sum,
    sym_poincare,
    v_dim,
)
from .params import ModuliParams, canonicalize, index_bounds, s_tau
from .series import (
    PolynomialWindow,
    TruncatedSeries,
    is_polynomial_window,
    polynomial_product,
    resolve_order,
)

PAIRS = "pairs_equivariant"
MODULI_MIN = "moduli_min"


@dataclass(frozen=True, eq=False)
class Block:
    """factor(t) / prod_a (1 - t^a): what every term of one stratum kind
    shares.  The factor is a polynomial with constant term 1."""

    factor: tuple[int, ...]
    denominators: tuple[int, ...] = ()

    def expand(self, numerator, order: int) -> TruncatedSeries:
        """numerator * factor / prod_a (1 - t^a), truncated at order."""
        cs = list(numerator[: order + 1])
        if self.factor != (1,):
            cs = polynomial_product(cs, self.factor)[: order + 1]
        return TruncatedSeries.from_coeffs(cs, order).over_one_minus(*self.denominators)


# the block of a term that is its own expansion
PLAIN = Block((1,))


@dataclass(frozen=True, eq=False)
class TermValue:
    """One labeled summand sign * t^shift * numerator * block of an
    assembly, truncated at order.  ``numerator`` holds the first
    order - shift + 1 coefficients of the term's own polynomial; ``series``
    expands the term the first time it is read.  Terms compare by label
    and expansion."""

    label: str
    sign: int
    shift: int
    numerator: tuple[int, ...]
    block: Block
    order: int

    @classmethod
    def of_series(cls, label: str, series: TruncatedSeries) -> "TermValue":
        return cls(label, 1, 0, series.coeffs, PLAIN, series.order)

    @cached_property
    def series(self) -> TruncatedSeries:
        return self.expanded(self.order)

    def expanded(self, order: int) -> TruncatedSeries:
        """The term truncated at order (at most its own order)."""
        if order > self.order:
            raise ParameterError(f"term holds order {self.order}, asked for {order}")
        cs = [0] * min(self.shift, order + 1)
        cs += self.numerator[: order + 1 - len(cs)]
        out = self.block.expand(cs, order)
        return -out if self.sign < 0 else out

    def coefficient(self, degree: int) -> int:
        return self.expanded(degree).coeffs[degree]

    def negated(self) -> "TermValue":
        return replace(self, label=f"-({self.label})", sign=-self.sign)

    def scaled_by(self, factor: TruncatedSeries) -> "TermValue":
        n = len(self.numerator)
        return replace(self, numerator=polynomial_product(
            self.numerator, factor.coeffs[:n])[:n])

    def __eq__(self, other):
        if not isinstance(other, TermValue):
            return NotImplemented
        return (self.label, self.series) == (other.label, other.series)

    def __hash__(self):
        return hash((self.label, self.series))


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
            terms=tuple(t.scaled_by(factor) for t in self.terms),
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
        extra = TermValue.of_series("wall-crossing-elimination", coeff * ww)
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
    """Collects the terms of one assembly at a point with tau >= 0.

    Each term's shifted numerator goes into its block's accumulator;
    ``finish`` expands every block once.
    """

    def __init__(self, group: str, p: ModuliParams, order: int,
                 transforms: list[dict]):
        self.group = group
        self.p = p
        self.order = order
        self.transforms = tuple(transforms)
        self.jac = jacobian_poincare(p.g, order)
        self.blocks: dict[tuple, Block] = {}
        self.sums: dict[Block, list[int]] = {}
        self.terms: list[TermValue] = []
        self.unknown: dict[str, TruncatedSeries] = {}
        self.unknown_labels: dict[str, str] = {}

    def block(self, jac_power: int, *denominators: int) -> Block:
        """The block P(J)^jac_power / prod_a (1 - t^a), one per shape."""
        key = (jac_power, denominators)
        if key not in self.blocks:
            self.blocks[key] = Block(jacobian_polynomial(self.p.g, jac_power),
                                     denominators)
        return self.blocks[key]

    def add(self, label: str, sign: int, shift: int, numerator, block: Block) -> None:
        """Add sign * t^shift * numerator * block; a term that vanishes
        below the order is dropped (every block is a unit series)."""
        numerator = tuple(numerator[: max(self.order - shift + 1, 0)])
        if not any(numerator):
            return
        acc = self.sums.get(block)
        if acc is None:
            acc = self.sums[block] = [0] * (self.order + 1)
        end = shift + len(numerator)
        acc[shift:end] = map(operator.add if sign > 0 else operator.sub,
                             acc[shift:end], numerator)
        self.terms.append(TermValue(label, sign, shift, numerator, block, self.order))

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
        known = TruncatedSeries.zero(order)
        for block, acc in self.sums.items():
            known = known + block.expand(acc, order)
        terms = list(self.terms)
        for name, coeff in self.unknown.items():
            value = values.get(name)
            if value is None:
                unknown[name] = coeff
            else:
                concrete = TermValue.of_series(self.unknown_labels[name], coeff * value)
                known = known + concrete.series
                terms.append(concrete)
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


def _c1_ells(p: ModuliParams) -> range:
    bounds = index_bounds(p)
    return range(bounds.c1_low + 1, bounds.c1_top + 1)


def _c2_sum_ells(p: ModuliParams) -> range:
    # C2-type block, top member l = d2/2 included when d2 is even
    bounds = index_bounds(p)
    return range(bounds.c2_low + 1, bounds.half_d2 + 1)


def _b1_diff_ells(p: ModuliParams) -> range:
    bounds = index_bounds(p)
    return range(bounds.half_d2 + 1, bounds.c1_low + 1)


def _mu(p: ModuliParams, l: int) -> int:
    return 2 * (p.g - 1 + 2 * l - p.d2)


def _cover_exponents(p: ModuliParams, l: int) -> tuple[int, int]:
    return (p.d2 - p.d1 + 2 * p.g - 2 - l, p.d1 - l + 2 * p.g - 2)


def _sym(b: _Builder, m: int) -> tuple[int, ...]:
    return sym_poincare(m, b.p.g, b.order).coeffs


def _add_c1_sum(b: _Builder) -> None:
    p, order = b.p, b.order
    block = b.block(1, 2) if b.group == "u21" else PLAIN
    for l in _c1_ells(p):
        m1, m2 = _cover_exponents(p, l)
        shift = _mu(p, l)
        if shift > order:
            break
        if b.group == "su21":
            local = gothen_cover_poincare(CoverParams(m1, m2, p.g), order).coeffs
            label = f"cover-sum[l={l}]"
        else:
            # u21: P(J) P(S^m1) P(S^m2)/(1-t^2); pu21: the 3-torsion
            # invariant part of the cover, P(S^m1) P(S^m2)
            n = order - shift + 1
            local = polynomial_product(_sym(b, m1)[:n], _sym(b, m2)[:n])
            label = f"C1[l={l}]" if b.group == "u21" else f"invariant-cover-sum[l={l}]"
        b.add(label, 1, shift, local, block)


def _add_closed_form(b: _Builder) -> None:
    b.add_unknown(PAIRS, b.jac.over_one_minus(2), "pairs-block")
    _add_c1_sum(b)


def _add_atiyah_bott_block(b: _Builder, line_factors: int) -> None:
    """Classifying total, semistable-bundle block and line-splitting tail,
    over (1-t^2)^line_factors (1-t^4); they cancel identically."""
    total, semistable, tail = atiyah_bott_numerators(
        b.p.g, b.p.d2 % 2 == 1, line_factors)
    block = b.block(0, *[2] * line_factors, 4)
    b.add("classifying-total", 1, 0, total, block)
    b.add("semistable-bundle-block", -1, 0, semistable, block)
    b.add("line-splitting-tail", -1, 0, tail, block)


def _add_route_sums(b: _Builder, boundary: Block, c2: Block, b1_diff: Block) -> None:
    """The even-degree boundary term and the C2 and B1-diff sums, each a
    symmetric product over its block."""
    p = b.p
    g, d1, d2 = p.g, p.d1, p.d2
    if d2 % 2 == 0:
        b.add("even-degree-boundary", 1, p.e, _sym(b, p.e // 2), boundary)
    for l in _c2_sum_ells(p):
        b.add(f"C2[l={l}]", -1, 2 * (2 * g - 2 + l - d1),
              _sym(b, l - d1 + 2 * g - 2), c2)
    for l in _b1_diff_ells(p):
        b.add(f"B1-diff[l={l}]", 1, _mu(p, l), _sym(b, d2 - d1 + 2 * g - 2 - l), b1_diff)


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
    _add_atiyah_bott_block(b, 3)
    b.add_unknown(MODULI_MIN, b.jac.over_one_minus(2), "bradlow-moduli-block")
    c2 = b.block(2, 2, 2)  # P(J)^2/(1-t^2)^2
    _add_route_sums(b, c2, c2, c2)
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
    _add_atiyah_bott_block(b, 2)
    b.add_unknown(MODULI_MIN, TruncatedSeries.one(b.order), "bradlow-moduli-block")
    _add_route_sums(b, b.block(1), b.block(1, 2, 2), b.block(1, 2))
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
        """Coefficient at one degree of every contributing labeled term
        (each term expanded only up to that degree)."""
        out: dict[str, int] = {}
        for side, terms in (("closed", self.closed_terms), ("route", self.route_terms)):
            for t in terms:
                c = t.coefficient(degree)
                if c:
                    out[f"{side}:{t.label}"] = c
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
