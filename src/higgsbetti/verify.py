"""Identity verification suites behind ``higgsbetti verify``.

Each suite takes a grid (``{"g": (lo, hi)}``, empty for its default
genera) and returns a SuiteResult.  A hard suite that fails makes the CLI
exit 1 and carries a counterexample; a diagnostic suite only reports.
SUITES maps each suite name to its function, in the CLI's run order,
which is the order of definition below.
"""

from __future__ import annotations

from functools import partial
from itertools import islice
from math import comb
from typing import NamedTuple

from . import assemble, bradlow, ingredients, params, series
from .records import dataclass_compatible


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


def _digits(rng):
    """The endless stream of ``rng.randint(-9, 9)`` draws, drawn in C: the
    first 5-bit draw below 19, less 9, is what ``randint(-9, 9)`` takes
    from the generator on CPython 3.10 to 3.13."""
    bits = iter(partial(rng.getrandbits, 5), -1)
    return map((-9).__add__, filter((19).__gt__, bits))


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
    for g in _grid_genera(grid):
        expr = series.RationalExpr(
            tuple(series.binomial_power(2 * g, 2 * g).coeffs), (2, 2, 4))
        back = expr.expand(order) * expr.denominator_polynomial(order)
        if back != series.TruncatedSeries.from_coeffs(expr.numerator, order):
            raise _Failed({"g": g, "law": "expand recovery"})
        for p in params.valid_points(g):
            for s in strata.enumerate_critical(
                    p, params.HalfInt.from_int(p.d1 + 2 * g - 2)):
                if not strata.critical_set_poincare(s, order).is_nonnegative():
                    raise _Failed({"stratum": str(s), "law": "nonnegativity"})
    return [f"ring laws and truncation coherence on {count} instances",
            "expansion recovery and critical-set nonnegativity"]


def _ab_closed_form(g: int, d2: int, order: int) -> series.TruncatedSeries:
    """Atiyah-Bott's semistable rank-2 stratum from binomials alone:
    (1+t)^{2g} [(1+t^3)^{2g} - t^f (1+t)^{2g}] / ((1-t^2)^2 (1-t^4)),
    with f = 2g for odd d2 and 2g+2 for even d2."""
    jac = series.binomial_power(2 * g, order)
    cube = series.TruncatedSeries.from_coeffs(
        [comb(2 * g, k // 3) if k % 3 == 0 else 0 for k in range(order + 1)])
    f = 2 * g if d2 % 2 else 2 * g + 2
    return (jac * (cube - jac.shifted(f))).over_one_minus(2, 2, 4)


@_suite("ab-cancellation")
def _suite_ab_cancellation(grid) -> list[str]:
    for g in _grid_genera(grid):
        order = series.default_order(g)
        zero = series.TruncatedSeries.zero(order)
        for d2 in range(0, 4):
            for law, expected, got in (
                ("closed form", _ab_closed_form(g, d2, order),
                 ingredients.ab_semistable_rank2(d2, g, order)),
                ("u21 residual", zero, assemble.ab_cancellation_residual(g, d2, order)),
                ("su21 residual", zero, assemble.su_ab_cancellation_residual(g, d2, order)),
            ):
                if got != expected:
                    raise _Failed({"g": g, "d2": d2, "law": law,
                                   **_first_difference(expected, got)})
    return ["closed form of both parities and zero residual on the (g, d2) "
            "grid, both groups"]


@_suite("route-u21")
def _suite_route_u21(grid) -> list[str]:
    checked = 0
    for g in _grid_genera(grid):
        order = series.default_order(g)
        for p in params.valid_points(g):
            rep = assemble.verify_route_equivalence("u21", p, order)
            checked += 1
            if not rep.zero:
                k = rep.first_nonzero_degree()
                raise _Failed({"g": p.g, "d1": p.d1, "d2": p.d2, "degree": k,
                               "expected": 0, "got": rep.residual.coeffs[k],
                               "terms": rep.term_provenance(k)})
    return [f"zero residual on {checked} parameter tuples"]


@_suite("route-su21", hard=False)
def _suite_route_su21(grid) -> list[str]:
    details = []
    for g in _grid_genera(grid):
        order = series.default_order(g)
        for p in params.valid_points(g):
            rep = assemble.verify_route_equivalence("su21", p, order)
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
                c = ingredients.CoverParams(m1, m2, g)
                order = 2 * (m1 + m2)  # the degree: the whole polynomial
                got = ingredients.gothen_cover_poincare(c, order)
                base = ingredients.sym_poincare(m1, g, order) \
                    * ingredients.sym_poincare(m2, g, order)
                expected = base
                if m1 <= 2 * g - 2 and m2 <= 2 * g - 2:
                    expected = base + series.TruncatedSeries.monomial(
                        m1 + m2, order, ingredients.v_dim(c))
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
    spot = ingredients.gothen_cover_poincare(ingredients.CoverParams(1, 1, 2), 8)
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
            assert p.tau == tau and p.mod3_class == 0
            diff = assemble.su21_closed_form(p, None, order) \
                - assemble.pu21_poincare(p, None, order)
            if diff.unknown:
                raise _Failed({"g": g, "tau": tau, "law": "difference not concrete"})
            support = {k: c for k, c in enumerate(diff.series.coeffs) if c}
            expected = {deg: ingredients.v_dim(ingredients.CoverParams(m1, m2, g))
                        for deg, (m1, m2) in params.s_tau(g, tau).items()}
            anomalous = assemble.torelli_anomalous_part(p)
            if support != expected or anomalous != expected:
                raise _Failed({"g": g, "tau": tau, "expected": expected,
                               "got": support})
            empty = not expected
            if empty != params.gamma3_trivial(g, tau) \
                    or empty != params.kirwan_su_surjective(g, tau):
                raise _Failed({"g": g, "tau": tau, "law": "predicate coherence"})
    return ["anomalous support matches the index set and predicates"]


@_suite("shift-invariance")
def _suite_shift_invariance(grid) -> list[str]:
    for g in _grid_genera(grid, default=(2, 2)):
        order = series.default_order(g)
        for p in params.valid_points(g):
            base = {key: fn(p, None, order) for key, fn in assemble.BUILDERS.items()}
            base_ww = bradlow.ww_difference(p, order)
            # k = 0 is p itself: comparing it with base would test only determinism
            for k in (-2, -1, 1, 2):
                q = p.tensor_shift(k)
                if bradlow.ww_difference(q, order) != base_ww:
                    raise _Failed({"g": g, "d1": p.d1, "d2": p.d2, "k": k,
                                   "object": "wall-crossing difference"})
                for (group, route), fn in assemble.BUILDERS.items():
                    shifted = fn(q, None, order)
                    if shifted.series != base[group, route].series \
                            or shifted.unknown != base[group, route].unknown:
                        raise _Failed({"g": g, "d1": p.d1, "d2": p.d2, "k": k,
                                       "object": f"{group}-{route}"})
    return ["assemblies and the wall-crossing difference are invariant under "
            "degree shifts"]
