"""Acceptance gate: every identity at its exact tolerance.

All assertions are coefficientwise integer equalities up to the stated
truncation order; nothing is approximate.  One test per criterion (the
terminal summary prints a pass/fail line for each).
"""

import random
from math import comb

from higgsbetti.assemble import (
    pu21_poincare,
    su21_closed_form,
    su21_stratum_route,
    u21_closed_form,
    u21_stratum_route,
)
from higgsbetti.bradlow import (
    MaximalCaseProvider,
    maximal_pairs_equivariant,
    ww_difference,
)
from higgsbetti.ingredients import (
    gothen_cover_poincare,
    jacobian_poincare,
    projective_poincare,
    sym_poincare,
    v_dim,
)
from higgsbetti.params import (
    gamma3_trivial,
    kirwan_su_surjective,
    make_params,
    s_tau,
    torelli_trivial,
    valid_points,
)
from higgsbetti.series import TruncatedSeries, geometric_inverse
from higgsbetti.strata import critical_set_poincare, enumerate_critical
from higgsbetti.verify import torelli_anomalous_part, verify_route_equivalence


def test_criterion_01_maximal_closed_form():
    for (g, d1, d2) in [(2, 2, 1), (3, 4, 2)]:
        order = 4 * g + 20
        res = u21_closed_form(make_params(g, d1, d2), MaximalCaseProvider(), order)
        jac = jacobian_poincare(g, order)
        geo2 = geometric_inverse(2, order)
        assert res.mode == "absolute"
        assert res.series == jac * jac * geo2 * geo2, (g, d1, d2)
    spot = u21_closed_form(make_params(2, 2, 1), MaximalCaseProvider(), 28)
    assert spot.series.coeffs[:5] == (1, 8, 30, 72, 129)


def _times(p, q, order):
    """The product of two coefficient lists, cut at order."""
    out = [0] * (order + 1)
    for i, a in enumerate(p[:order + 1]):
        for j, b in enumerate(q[:order + 1 - i]):
            out[i + j] += a * b
    return out


def test_criterion_02_atiyah_bott_cancellation():
    # Each route's Atiyah-Bott terms against hand binomials: over
    # (1-t^2)^k (1-t^4), k = 3 for u21 and 2 for su21, the classifying
    # total P(J)^{k-1} (1+t^3)^{2g}, the line-splitting tail t^f P(J)^k
    # (f = 2g for odd d2, 2g+2 for even d2) and the semistable-bundle
    # block, their difference.  The route subtracts the last two, so the
    # three terms sum to zero.
    for g in (2, 3, 4):
        order = 8 * g + 24
        jac = [comb(2 * g, i) for i in range(2 * g + 1)]
        cube = [comb(2 * g, i // 3) if i % 3 == 0 else 0 for i in range(6 * g + 1)]
        for d2 in range(0, 4):
            p = make_params(g, d2, d2)  # tau = 2 d2 / 3 >= 0
            for route, k in ((u21_stratum_route, 3), (su21_stratum_route, 2)):
                total, tail = cube, [0] * (2 * g if d2 % 2 else 2 * g + 2) + jac
                for _ in range(k - 1):
                    total, tail = _times(total, jac, order), _times(tail, jac, order)
                terms = {t.label: t.series for t in route(p, None, order).terms}
                for label, numerator in (
                    ("classifying-total", total),
                    ("semistable-bundle-block", [c - d for d, c in zip(total, tail)]),
                    ("line-splitting-tail", [-c for c in tail]),
                ):
                    expected = list(numerator)
                    for a in [2] * k + [4]:  # divide by 1 - t^a
                        for i in range(a, order + 1):
                            expected[i] += expected[i - a]
                    assert terms[label] == TruncatedSeries.from_coeffs(expected), \
                        (g, d2, k, label)
                assert (terms["classifying-total"] + terms["semistable-bundle-block"]
                        + terms["line-splitting-tail"]).is_zero(), (g, d2, k)


def test_criterion_03_u21_route_equivalence():
    for g in (2, 3):
        order = 8 * g + 24
        for p in valid_points(g):
            rep = verify_route_equivalence("u21", p, order)
            assert rep.zero, (p.g, p.d1, p.d2, rep.first_nonzero_degree())


def _maximal_first_term(g, order):
    """The maximal-case telescoping sum

        P(J)^2 P(CP^{2g-3})/(1-t^2) + t^{4g-4} P(J)^2/(1-t^2)^2,

    which collapses to P(J)^2/(1-t^2)^2 exactly."""
    jac = jacobian_poincare(g, order)
    first = (jac * jac * projective_poincare(2 * g - 3, order)).over_one_minus(2)
    second = (jac * jac).over_one_minus(2, 2).shifted(4 * g - 4)
    return first + second


def test_criterion_04_maximal_bradlow_telescoping():
    for g in (2, 3, 4, 5):
        order = 4 * g + 20
        jac = jacobian_poincare(g, order)
        geo2 = geometric_inverse(2, order)
        assert _maximal_first_term(g, order) == jac * jac * geo2 * geo2, g


def test_criterion_05_gothen_cover_consistency():
    for g in (2, 3):
        order = 8 * g + 4
        for m1 in range(0, 2 * g + 1):
            for m2 in range(0, 2 * g + 1):
                got = gothen_cover_poincare(m1, m2, g, order)
                expected = sym_poincare(m1, g, order) * sym_poincare(m2, g, order)
                if m1 <= 2 * g - 2 and m2 <= 2 * g - 2:
                    expected = expected + TruncatedSeries.monomial(
                        m1 + m2, order, v_dim(m1, m2, g))
                assert got == expected, (g, m1, m2)
    spot = gothen_cover_poincare(1, 1, 2, 8)
    assert spot.coeffs[:5] == (1, 8, 338, 8, 1)


def test_criterion_06_torelli_kirwan_coherence():
    for g in range(2, 7):
        order = 8 * g + 24
        for tau in range(0, 2 * g - 1, 2):
            p = make_params(g, tau, tau // 2)
            assert p.tau == tau and p.mod3_class == 0
            su, pu = su21_closed_form(p, None, order), pu21_poincare(p, None, order)
            assert su.unknown == pu.unknown, (g, tau)
            support = {k: c for k, c in enumerate((su.series - pu.series).coeffs) if c}
            expected = {deg: v_dim(m1, m2, g)
                        for deg, (m1, m2) in s_tau(g, tau).items()}
            assert support == expected, (g, tau)
            assert torelli_anomalous_part(p) == expected
            empty = not support
            assert empty == gamma3_trivial(g, tau), (g, tau)
            assert empty == kirwan_su_surjective(g, tau), (g, tau)
    # borderline: g = 4, tau = 4 = 4(g-1)/3
    p = make_params(4, 4, 2)
    diff = su21_closed_form(p, None, 56).series - pu21_poincare(p, None, 56).series
    support = {k: c for k, c in enumerate(diff.coeffs) if c}
    assert support == {24: 3 ** 8 - 1}
    assert s_tau(4, 4) == {24: (0, 2 * 4 - 2)}
    assert torelli_trivial(4, 4) and not gamma3_trivial(4, 4)


def test_criterion_07a_difference_formula_spot_value():
    # Spot value at (g, d1, d2) = (2, 2, 1): maximal Toledo, e = 1, sigma = 1.
    # The only wall is the top wall j = sigma = 1.  Its critical set is
    # S^{e-sigma} X x Jac = S^0 X x Jac with one U(1) left, so the term is
    #   t^{2(g-1+2 sigma-e)} P(J) P(S^0 X)/(1-t^2) = t^4 (1+t)^4/(1-t^2),
    # with a single Jacobian factor (Thaddeus 1994).  The value once stated
    # here, t^4 (1+t)^8/(1-t^2), carried P(J) twice: it makes
    # pairs_equivariant - ww below negative, and a code path giving it fails
    # criteria 03 and 08d.  Coefficients are written out so that the check
    # does not reuse jacobian_poincare or geometric_inverse.
    order = 24
    got = ww_difference(make_params(2, 2, 1), order)
    expected = TruncatedSeries.from_coeffs([0, 0, 0, 0, 1, 4, 7] + [8] * 18)
    assert got == expected, (
        f"computed {list(got.coeffs)}; expected t^4*(1+t)^4/(1-t^2) = "
        f"{list(expected.coeffs)}")
    # pairs_equivariant at the maximal point minus the wall-crossing sum is
    # the lowest-chamber moduli space, a P^{e+g-2} = CP^1 bundle over the
    # Jacobian: P(J) P(CP^1) = (1+t)^4 (1+t^2).  A second Jacobian factor
    # in the wall term would make this difference negative.
    lowest = maximal_pairs_equivariant(2, order) - got
    assert lowest.is_nonnegative(), list(lowest.coeffs)
    assert lowest == TruncatedSeries.from_coeffs([1, 4, 7, 8, 7, 4, 1], order), (
        f"computed {list(lowest.coeffs)}; expected (1+t)^4*(1+t^2)")


def test_criterion_07b_difference_formula_vanishing():
    for g in (2, 3):
        for p in valid_points(g):
            if not p.is_coprime:
                continue
            lo, hi = p.d2 / 2, (p.d1 + p.d2) / 3
            if any(lo < l < hi for l in range(-6 * g, 6 * g)):
                continue
            assert ww_difference(p, 4 * g + 8).is_zero(), (p.g, p.d1, p.d2)


def test_criterion_08a_series_ring_laws_randomized():
    rng = random.Random(987654321)
    order = 20
    for i in range(1000):
        a, b, c = (
            TruncatedSeries(tuple(rng.randint(-99, 99) for _ in range(order + 1)))
            for _ in range(3)
        )
        assert (a + b) + c == a + (b + c), i
        assert a * (b * c) == (a * b) * c, i
        assert a * (b + c) == a * b + a * c, i
        m = rng.randint(0, order)
        assert (a * b).truncated(m) == a.truncated(m) * b.truncated(m), i


def test_criterion_08b_sym_palindromicity_and_domination():
    for g in (2, 3, 4):
        order = 8 * g + 2
        bound = jacobian_poincare(g, order) * geometric_inverse(2, order)
        for m in range(0, 4 * g + 1):
            s = sym_poincare(m, g, order)
            for k in range(2 * m + 1):
                assert s.coeffs[k] == s.coeffs[2 * m - k], (g, m, k)
            if m >= 1:
                assert s.coeffs[1] == 2 * g, (g, m)
            assert all(a <= b for a, b in zip(s.coeffs, bound.coeffs)), (g, m)


def test_criterion_08c_tensor_shift_invariance_of_assemblies():
    builders = (u21_closed_form, u21_stratum_route, su21_closed_form,
                su21_stratum_route, pu21_poincare)
    order = 36
    for (g, d1, d2) in [(2, 2, 1), (2, 0, 0), (2, 1, 1), (3, 4, 2)]:
        p = make_params(g, d1, d2)
        base = [fn(p, None, order) for fn in builders]
        for k in range(-2, 3):
            q = p.tensor_shift(k)
            for fn, expected in zip(builders, base):
                got = fn(q, None, order)
                assert got.series == expected.series, (fn.__name__, g, d1, d2, k)
                assert got.unknown == expected.unknown, (fn.__name__, g, d1, d2, k)


def test_criterion_08d_nonnegativity():
    provider = MaximalCaseProvider()
    for g in (2, 3):
        order = 4 * g + 16
        p = make_params(g, 2 * g - 2, g - 1)
        for fn in (u21_closed_form, u21_stratum_route, su21_closed_form,
                   pu21_poincare):
            res = fn(p, provider, order)
            assert res.mode == "absolute"
            assert res.series.is_nonnegative(), fn.__name__
        for q in valid_points(g):
            for s in enumerate_critical(q, q.d1 + 2 * g - 2):
                assert critical_set_poincare(s, order).is_nonnegative(), str(s)


def test_criterion_09_su_route_residual_diagnostic():
    reports = []
    for g in (2, 3):
        order = 8 * g + 24
        for p in valid_points(g):
            rep = verify_route_equivalence("su21", p, order)
            k = rep.first_nonzero_degree()
            if k is not None:
                prov = rep.term_provenance(k)
                unknown = {n: s.coeffs[k] for n, s in rep.residual_unknowns.items()}
                assert prov or unknown, (p.g, p.d1, p.d2)
                reports.append((p.g, p.d1, p.d2, k))
    # the suite completes and emits provenance; it is never asserted zero
    assert reports
