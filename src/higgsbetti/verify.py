"""Identity verification suites behind ``higgsbetti verify``, and the
identities they check: route equivalence and the Torelli anomalous part.
These reach the assemblies through ``assemble.BUILDERS``; no builder
depends on this module, so a ``compute`` process never loads it.  The
Atiyah-Bott block has no identity here: ``ab-cancellation`` checks each
of its parts against binomials.  The route residual is written once, in
``verify_route_equivalence``, from the two sides' series and unknowns
alone: it negates no term, and keeps each side's own terms for
provenance, unlisted, so a zero residual lists none.

Each suite takes a grid (``{"g": (lo, hi)}``, empty for its default
genera) and returns a SuiteResult.  A hard suite that fails makes the CLI
exit 1 and carries a counterexample; a diagnostic suite only reports.
SUITES maps each suite name to its function, in the CLI's run order,
which is the order of definition below.
"""

from __future__ import annotations

from itertools import chain, islice
from math import comb
from typing import NamedTuple

from . import assemble, bradlow, errors, ingredients, params, series
from .records import dataclass_compatible


def torelli_anomalous_part(p: params.ModuliParams) -> dict[int, int]:
    """Degrees where the Torelli action is nontrivial, with dimensions.

    For each anomalous degree 6g-6+tau/2+2l the dimension is the
    coefficient (3^{2g}-1) C(2g-2, m1) C(2g-2, m2) of its cover summand.
    """
    params._require_valid(p)
    p, _ = params.canonicalize(p)  # a point with tau < 0 has the part of its dual
    if p.tau.denominator != 1 or p.tau % 2 != 0:
        raise errors.ParameterError("the Toledo invariant must be an even integer here")
    return {degree: ingredients.v_dim(m1, m2, p.g)
            for degree, (m1, m2) in params.s_tau(p.g, int(p.tau)).items()}


@dataclass_compatible
class RouteEquivalenceReport(NamedTuple):
    """Concrete residual of closed form minus stratum route (relative mode,
    pairs eliminated through the wall-crossing difference)."""

    group: str
    params: params.ModuliParams
    residual: series.TruncatedSeries
    residual_unknowns: dict[str, series.TruncatedSeries]
    closed_terms: tuple[assemble.TermValue, ...]
    route_terms: tuple[assemble.TermValue, ...]

    @property
    def zero(self) -> bool:
        return self.residual.is_zero() and all(
            s.is_zero() for s in self.residual_unknowns.values()
        )

    def first_nonzero_degree(self) -> int | None:
        for k in range(self.residual.order + 1):
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


assemble.terms_fields(RouteEquivalenceReport, "closed_terms", "route_terms")


def verify_route_equivalence(
    group: str, p: params.ModuliParams, order: int | None = None
) -> RouteEquivalenceReport:
    """Closed form minus stratum route with provider unknowns eliminated.

    A zero residual (series and remaining unknown coefficients) means the
    two transcriptions are mutually consistent.  Nonzero residuals are
    findings, reported with per-term provenance, never exceptions.
    """
    if (group, "stratum") not in assemble.BUILDERS:
        raise errors.ParameterError(f"no route pair for group {group!r}")
    closed = assemble.BUILDERS[(group, "closed")](p, None, order)
    route = assemble.BUILDERS[(group, "stratum")](p, None, order)
    # closed minus route: each unknown's coefficient subtracted in sorted
    # key order, a zero difference dropped; then the pairs unknown rewritten
    # as moduli_min plus the wall-crossing difference (Thaddeus flips)
    order = closed.order
    zero = series.TruncatedSeries.zero(order)
    unknowns = {}
    for key in sorted(closed.unknown.keys() | route.unknown.keys()):
        diff = closed.unknown.get(key, zero) - route.unknown.get(key, zero)
        if not diff.is_zero():
            unknowns[key] = diff
    residual = closed.series - route.series
    pairs = unknowns.pop(assemble.PAIRS, None)
    if pairs is not None:
        merged = unknowns.get(assemble.MODULI_MIN, zero) + pairs
        if merged.is_zero():
            unknowns.pop(assemble.MODULI_MIN, None)
        else:
            unknowns[assemble.MODULI_MIN] = merged
        residual = residual + pairs * bradlow.ww_difference(closed.params, order)
    # each side's terms as its build left them: unpacking a result reads
    # its fields as held, past the listing ``terms`` property, and
    # provenance lists them when it reads them
    *_, closed_terms, _ = closed
    *_, route_terms, _ = route
    return RouteEquivalenceReport(
        group=group,
        params=closed.params,
        residual=residual,
        residual_unknowns=unknowns,
        closed_terms=closed_terms,
        route_terms=route_terms,
    )


@dataclass_compatible
class SuiteResult(NamedTuple):
    name: str
    hard: bool
    passed: bool
    details: list[str]
    counterexample: dict | None = None


SUITES: dict = {}


class _Failed(Exception):
    """Raised by a suite body; its one argument is the counterexample."""


def _suite(name: str, hard: bool = True):
    """Register the decorated body in SUITES as the suite ``name``.  The
    body takes the grid and returns the details of a pass, or raises
    _Failed with its counterexample; the suite returns its SuiteResult."""
    def register(body):
        def suite(grid) -> SuiteResult:
            try:
                details = body(grid)
            except _Failed as failed:
                return SuiteResult(name, hard, False, [], failed.args[0])
            return SuiteResult(name, hard, True, details)

        suite.__name__ = suite.__qualname__ = body.__name__
        suite.__doc__ = body.__doc__
        SUITES[name] = suite
        return suite

    return register


def _grid_genera(grid: dict[str, tuple[int, int]], default=(2, 3)) -> list[int]:
    lo, hi = grid.get("g", default)
    return list(range(lo, hi + 1))


def _first_difference(expected, got) -> dict:
    """The lowest degree at which two series differ, with both coefficients
    there (all None when they agree)."""
    k = next((k for k, (e, c) in enumerate(zip(expected.coeffs, got.coeffs)) if e != c),
             None)
    return {"degree": k, "expected": None if k is None else expected.coeffs[k],
            "got": None if k is None else got.coeffs[k]}


# each byte b, a word's top byte, to its 5-bit try b >> 3 less 9; the
# bytes of the tries 19..31, which ``randint(-9, 9)`` refuses, are deleted
_TRY_DIGIT = bytes(((b >> 3) - 9) % 256 for b in range(256))
_REFUSED = bytes(range(19 << 3, 256))
_WORDS = 4096  # the 32-bit words, each one try, that ``_digits`` draws at once


def _digits(rng):
    """The endless stream of ``rng.randint(-9, 9)`` draws, drawn in C: the
    first 5-bit draw below 19, less 9, is what ``randint(-9, 9)`` takes
    from the generator on CPython 3.10 to 3.13.  A 5-bit draw is the top
    5 bits of one 32-bit word, and ``getrandbits(32 * _WORDS)`` returns
    the next ``_WORDS`` words little-endian, so byte 4i+3 of a block is
    the top byte of word i: one block gives ``_WORDS`` tries."""

    def block():
        top = rng.getrandbits(32 * _WORDS).to_bytes(4 * _WORDS, "little")[3::4]
        return memoryview(top.translate(_TRY_DIGIT, _REFUSED)).cast("b").tolist()

    return chain.from_iterable(iter(block, None))


@_suite("series-laws")
def _suite_series_laws(grid) -> list[str]:
    import random

    from . import strata  # no other suite, and no CLI command but strata, uses it

    digits = _digits(random.Random(20210817))
    order = 24
    count = 1000

    def rand_series():
        return series.TruncatedSeries(tuple(islice(digits, order + 1)))

    for i in range(count):
        a, b, c = rand_series(), rand_series(), rand_series()
        ab = a * b
        if (a + b) + c != a + (b + c) or a * (b * c) != ab * c \
                or a * (b + c) != ab + a * c or ab != b * a:
            raise _Failed({"instance": i, "law": "ring axioms"})
        m = order // 2
        if ab.truncated(m) != a.truncated(m) * b.truncated(m):
            raise _Failed({"instance": i, "law": "truncation coherence"})
    # expansion recovery and nonnegativity of the rendered table
    checked = set()
    for g in _grid_genera(grid):
        expr = series.RationalExpr(
            tuple(series.binomial_power(2 * g, 2 * g).coeffs), (2, 2, 4))
        back = expr.expand(order) * expr.denominator_polynomial(order)
        if back != series.TruncatedSeries.from_coeffs(expr.numerator, order):
            raise _Failed({"g": g, "law": "expand recovery"})
        for p in params.valid_points(g):
            for s in strata.enumerate_critical(p, p.d1 + 2 * g - 2):
                # the series is a function of its key: check each key once
                key = strata.critical_set_key(s)
                if key in checked:
                    continue
                checked.add(key)
                if not strata.critical_set_poincare(s, order).is_nonnegative():
                    raise _Failed({"stratum": str(s), "law": "nonnegativity"})
    return [f"ring laws and truncation coherence on {count} instances",
            "expansion recovery and critical-set nonnegativity"]


def _ab_closed_form(g: int, d2: int, line_factors: int, order: int) -> tuple:
    """Atiyah-Bott's block from binomials alone: the classifying total
    (1+t)^{2g(k-1)} (1+t^3)^{2g}, the semistable block (total minus tail)
    and the line-splitting tail t^f (1+t)^{2gk}, each over
    (1-t^2)^k (1-t^4), k = line_factors, with f = 2g for odd d2 and
    2g+2 for even d2."""
    jac = series.binomial_power(2 * g, order)
    total = series.TruncatedSeries.from_coeffs(
        [comb(2 * g, k // 3) if k % 3 == 0 else 0 for k in range(order + 1)])
    tail = jac.shifted(2 * g if d2 % 2 else 2 * g + 2)
    for _ in range(line_factors - 1):
        total, tail = total * jac, tail * jac
    denominator = (2,) * line_factors + (4,)
    return tuple(s.over_one_minus(*denominator) for s in (total, total - tail, tail))


@_suite("ab-cancellation")
def _suite_ab_cancellation(grid) -> list[str]:
    laws = ("classifying total", "semistable block", "line-splitting tail")
    for g in _grid_genera(grid):
        order = series.default_order(g)
        for d2 in range(0, 4):
            for k in (2, 3):
                for part, expected in enumerate(_ab_closed_form(g, d2, k, order)):
                    got = ingredients.atiyah_bott_series(g, d2, k, part, order)
                    if got != expected:
                        raise _Failed({"g": g, "d2": d2, "k": k, "law": laws[part],
                                       **_first_difference(expected, got)})
    return ["classifying total, semistable block and line-splitting tail of "
            "both parities against binomials on the (g, d2) grid, rank 2 and "
            "rank (2,1)"]


def _route_reports(group: str, grid):
    """(p, the route-equivalence report at p) at every valid point of the
    grid's genera, at the default order."""
    for g in _grid_genera(grid):
        for p in params.valid_points(g):
            yield p, verify_route_equivalence(group, p)


@_suite("route-u21")
def _suite_route_u21(grid) -> list[str]:
    checked = 0
    for p, rep in _route_reports("u21", grid):
        checked += 1
        if not rep.zero:
            k = rep.first_nonzero_degree()
            raise _Failed({"g": p.g, "d1": p.d1, "d2": p.d2, "degree": k,
                           "expected": 0, "got": rep.residual.coeffs[k],
                           "terms": rep.term_provenance(k)})
    # 2g+1 values of d1, each with the 3g-2 values of d2 - 2 d1 in
    # -(3g-3)..0: a grid that checked fewer points proved less
    expected = sum((2 * g + 1) * (3 * g - 2) for g in _grid_genera(grid))
    if checked != expected:
        raise _Failed({"law": "point count", "expected": expected, "got": checked})
    return [f"zero residual on {checked} parameter tuples"]


@_suite("route-su21", hard=False)
def _suite_route_su21(grid) -> list[str]:
    details = []
    for p, rep in _route_reports("su21", grid):
        if rep.zero:
            details.append(f"(g={p.g}, d1={p.d1}, d2={p.d2}): zero")
            continue
        k = rep.first_nonzero_degree()
        prov = rep.term_provenance(k)
        head = ", ".join(f"{lbl}: {c}" for lbl, c in sorted(prov.items())[:4])
        unknown = {n: s.coeffs[k] for n, s in rep.residual_unknowns.items()}
        details.append(
            f"(g={p.g}, d1={p.d1}, d2={p.d2}): first residual at degree {k}, "
            f"series {rep.residual.coeffs[k]}, unknown {unknown}, terms [{head}]")
    return details


@_suite("gothen")
def _suite_gothen(grid) -> list[str]:
    for g in _grid_genera(grid):
        for m1 in range(0, 2 * g + 1):
            for m2 in range(0, 2 * g + 1):
                order = 2 * (m1 + m2)  # the degree: the whole polynomial
                got = ingredients.gothen_cover_poincare(m1, m2, g, order)
                base = ingredients.sym_poincare(m1, g, order) \
                    * ingredients.sym_poincare(m2, g, order)
                expected = base
                if m1 <= 2 * g - 2 and m2 <= 2 * g - 2:
                    expected = base + series.TruncatedSeries.monomial(
                        m1 + m2, order, ingredients.v_dim(m1, m2, g))
                if got != expected:
                    raise _Failed({"g": g, "m1": m1, "m2": m2})
                # a 3^{2g}-fold unramified cover multiplies the Euler
                # characteristic by 3^{2g}, and chi(S^m X) = (-1)^m C(2g-2, m)
                # (Macdonald: sum_m chi(S^m X) x^m = (1-x)^{2g-2})
                chi = got.evaluate(-1)
                euler = 3 ** (2 * g) * (-1) ** (m1 + m2) \
                    * comb(2 * g - 2, m1) * comb(2 * g - 2, m2)
                if chi != euler:
                    raise _Failed({"g": g, "m1": m1, "m2": m2,
                                   "law": "euler characteristic",
                                   "expected": euler, "got": chi})
    spot = ingredients.gothen_cover_poincare(1, 1, 2, 8)
    if spot.coeffs[:5] != (1, 8, 338, 8, 1):
        raise _Failed({"spot": "cover(1,1) at g=2", "got": spot.coeffs[:5]})
    return ["cover polynomials match the invariant/anomalous split and the "
            "covers' Euler characteristics"]


@_suite("maximal")
def _suite_maximal(grid) -> list[str]:
    provider = bradlow.MaximalCaseProvider()
    for g in _grid_genera(grid):
        # the bottom-chamber pairs space at e = g-1 is smooth and projective
        # of real dimension 2(e+2g-2) = 6g-6, so by Poincare duality its
        # series is a nonnegative palindromic polynomial of that degree
        top = 6 * g - 6
        moduli = bradlow.maximal_moduli_min(g, top + 2)
        mirror = series.TruncatedSeries.from_coeffs(moduli.coeffs[top::-1], top + 2)
        if moduli != mirror or not moduli.coeffs[top] or not moduli.is_nonnegative():
            raise _Failed({"g": g, "law": "duality",
                           **_first_difference(mirror, moduli)})
        order = 4 * g + 20
        jac = ingredients.jacobian_poincare(g, order)
        geo2 = series.geometric_inverse(2, order)
        expected = jac * jac * geo2 * geo2
        p = params.make_params(g, 2 * g - 2, g - 1)
        res = assemble.u21_closed_form(p, provider, order)
        if res.mode != "absolute" or res.series != expected:
            raise _Failed({"g": g, "mode": res.mode,
                           **_first_difference(expected, res.series)})
        route = assemble.u21_stratum_route(p, provider, order)
        if route.series != expected:
            raise _Failed({"g": g, "law": "stratum route at maximal"})
    return ["closed form and route agree; the bottom-chamber pairs series "
            "obeys Poincare duality"]


@_suite("torelli")
def _suite_torelli(grid) -> list[str]:
    for g in _grid_genera(grid, default=(2, 6)):
        order = series.default_order(g)
        for tau in range(0, 2 * g - 1, 2):
            p = params.make_params(g, tau, tau // 2)
            if p.tau != tau or p.mod3_class != 0:
                raise _Failed({"g": g, "tau": tau, "law": "point"})
            su = assemble.su21_closed_form(p, None, order)
            pu = assemble.pu21_poincare(p, None, order)
            if su.unknown != pu.unknown:
                raise _Failed({"g": g, "tau": tau, "law": "difference not concrete"})
            support = {k: c for k, c in enumerate((su.series - pu.series).coeffs) if c}
            expected = torelli_anomalous_part(p)
            if support != expected:
                raise _Failed({"g": g, "tau": tau, "expected": expected,
                               "got": support})
            labels = params.s_tau(g, tau)
            # Kirwan surjectivity holds where no summand is anomalous; Torelli
            # can act only through a Lambda^m of a Prym part with 0 < m < 2g-2
            for name, derived in (
                ("kirwan_su_surjective", not labels),
                ("torelli_trivial", all(m in (0, 2 * g - 2)
                                        for pair in labels.values() for m in pair)),
            ):
                got = getattr(params, name)(g, tau)
                if got != derived:
                    raise _Failed({"g": g, "tau": tau, "law": name,
                                   "expected": derived, "got": got})
    return ["anomalous support matches the index set and predicates"]


@_suite("shift-invariance")
def _suite_shift_invariance(grid) -> list[str]:
    built = set()  # every point built, of every genus
    for g in _grid_genera(grid, default=(2, 2)):
        order = series.default_order(g)

        def value(q):
            """The wall-crossing difference at q, and each builder's series
            and unknowns."""
            results = {name: fn(q, None, order) for name, fn in assemble.BUILDERS.items()}
            return (bradlow.ww_difference(q, order),
                    {name: (res.series, res.unknown) for name, res in results.items()})

        # a shift keeps c = d2 - 2 d1, so c names a point's shift class:
        # each point built is compared with its class's first value
        first: dict[int, tuple] = {}
        for p in params.valid_points(g):
            c = p.d2 - 2 * p.d1
            if c not in first:
                first[c] = value(p)
                built.add(p)
            base_ww, base = first[c]
            # k = 0 is p itself: comparing it with base would test only determinism
            for k in (-2, -1, 1, 2):
                q = p.tensor_shift(k)
                if q in built:
                    continue  # compared already
                built.add(q)
                ww, shifted = value(q)
                if ww != base_ww:
                    raise _Failed({"g": g, "d1": p.d1, "d2": p.d2, "k": k,
                                   "object": "wall-crossing difference"})
                for (group, route), got in shifted.items():
                    if got != base[group, route]:
                        raise _Failed({"g": g, "d1": p.d1, "d2": p.d2, "k": k,
                                       "object": f"{group}-{route}"})
    # each of the 3g-2 classes of valid_points has its points at the 2g+1
    # values of d1 and two shifts past each end: a grid that built fewer
    # slots compared less
    expected = sum((2 * g + 5) * (3 * g - 2) for g in _grid_genera(grid, default=(2, 2)))
    if len(built) != expected:
        raise _Failed({"law": "orbit count", "expected": expected, "got": len(built)})
    return ["assemblies and the wall-crossing difference are invariant under "
            "degree shifts"]
