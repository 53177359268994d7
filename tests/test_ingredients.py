import inspect
from math import comb

import pytest

from higgsbetti import ingredients
from higgsbetti.errors import ParameterError
from higgsbetti.ingredients import (
    ab_semistable_rank2,
    bg_rank1,
    bg_rank2,
    bg_su21,
    bg_u21,
    gothen_cover_poincare,
    jacobian_poincare,
    projective_poincare,
    sym_poincare,
    sym_polynomial,
    v_dim,
)
from higgsbetti.series import TruncatedSeries, geometric_inverse


def _sym_oracle(m, g, order):
    """Independent bivariate expansion of (1+xt)^{2g} / ((1-x)(1-xt^2)).

    Polynomials in x of degree <= m with truncated t-series coefficients;
    the answer is the x^m coefficient.
    """
    def x_mul(A, B):
        out = [[0] * (order + 1) for _ in range(m + 1)]
        for i, a in enumerate(A):
            for j, b in enumerate(B):
                if i + j > m:
                    continue
                target = out[i + j]
                for u, au in enumerate(a):
                    if au:
                        for v, bv in enumerate(b):
                            if bv and u + v <= order:
                                target[u + v] += au * bv
        return out

    def const(c):
        out = [[0] * (order + 1) for _ in range(m + 1)]
        out[0][0] = c
        return out

    base = const(1)
    if m >= 1 and order >= 1:
        base[1][1] = 1  # x*t
    acc = const(1)
    for _ in range(2 * g):
        acc = x_mul(acc, base)
    geo_x = [[1 if u == 0 else 0 for u in range(order + 1)] for _ in range(m + 1)]
    geo_xt2 = [[0] * (order + 1) for _ in range(m + 1)]
    for k in range(m + 1):
        if 2 * k <= order:
            geo_xt2[k][2 * k] = 1
    acc = x_mul(acc, geo_x)
    acc = x_mul(acc, geo_xt2)
    return TruncatedSeries(tuple(acc[m]))


def test_jacobian_examples():
    assert jacobian_poincare(2, 8).coeffs[:5] == (1, 4, 6, 4, 1)
    assert jacobian_poincare(3, 10).coeffs[:7] == (1, 6, 15, 20, 15, 6, 1)
    assert jacobian_poincare(3, 10).evaluate(1) == 4 ** 3
    with pytest.raises(ParameterError):
        jacobian_poincare(1, 4)


def test_sym_examples():
    assert sym_poincare(0, 2, 6) == TruncatedSeries.one(6)
    assert sym_poincare(1, 2, 6) == TruncatedSeries.from_coeffs([1, 4, 1], 6)
    assert sym_poincare(2, 2, 6) == TruncatedSeries.from_coeffs([1, 4, 7, 4, 1], 6)
    assert sym_poincare(-1, 2, 6).is_zero()


@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("m", [0, 1, 2, 3, 5, 8])
def test_sym_against_oracle(m, g):
    order = 2 * m + 2
    assert sym_poincare(m, g, order) == _sym_oracle(m, g, order)


def _sym_double_sum(m, g):
    """P_t(S^m X) by the docstring's double sum over i and the even
    powers of t, as in ``sym_polynomial``'s first form."""
    if m < 0:
        return (0,)
    out = [0] * (2 * m + 1)
    for i in range(min(2 * g, m) + 1):
        for d in range(i, 2 * m - i + 1, 2):
            out[d] += comb(2 * g, i)
    return tuple(out)


@pytest.mark.parametrize("g", range(2, 12))
def test_sym_polynomial_matches_the_double_sum(g):
    for m in range(-1, 8 * g + 1):
        assert sym_polynomial(m, g) == _sym_double_sum(m, g), m


@pytest.mark.parametrize("g", [2, 3, 4])
def test_sym_palindromic_and_b1(g):
    order = 8 * g + 2
    for m in range(0, 4 * g + 1):
        s = sym_poincare(m, g, order)
        assert s.degree() == (2 * m if m >= 0 else None)
        for k in range(2 * m + 1):
            assert s.coeffs[k] == s.coeffs[2 * m - k]
        if m >= 1:
            assert s.coeffs[1] == 2 * g
        assert s.coeffs[0] == 1


@pytest.mark.parametrize("g", [2, 3, 4])
def test_sym_domination(g):
    order = 8 * g
    bound = jacobian_poincare(g, order) * geometric_inverse(2, order)
    for m in range(0, 4 * g + 1):
        s = sym_poincare(m, g, order)
        assert all(a <= b for a, b in zip(s.coeffs, bound.coeffs))


def test_projective_examples():
    assert projective_poincare(1, 6) == TruncatedSeries.from_coeffs([1, 0, 1], 6)
    assert projective_poincare(0, 4) == TruncatedSeries.one(4)
    assert projective_poincare(2 * 2 - 3, 6) == projective_poincare(1, 6)
    assert projective_poincare(-2, 4).is_zero()


def test_bg_examples():
    # (1+4t+6t^2)(1+t^2) = 1+4t+7t^2
    assert bg_rank1(2, 2) == TruncatedSeries.from_coeffs([1, 4, 7])
    assert bg_rank2(2, 2) == TruncatedSeries.from_coeffs([1, 4, 8])
    for g in (2, 3):
        assert bg_u21(g, 12) == bg_rank2(g, 12) * bg_rank1(g, 12)
        assert bg_su21(g, 12) == bg_rank2(g, 12)


def test_no_cache_is_keyed_by_order():
    # a value cached per order is one copy per order of an order-free value
    cached = {name for name, fn in vars(ingredients).items()
              if hasattr(fn, "cache_info")}
    assert cached == {"sym_polynomial", "jacobian_polynomial", "jacobian_block",
                      "atiyah_bott_numerators"}
    for name in cached:
        assert "order" not in inspect.signature(getattr(ingredients, name)).parameters


def test_ab_semistable_examples():
    assert ab_semistable_rank2(1, 2, 2) == TruncatedSeries.from_coeffs([1, 4, 8])
    # first unstable stratum of degree 1 enters at t^4
    full = ab_semistable_rank2(1, 2, 6)
    assert full.truncated(3) == bg_rank2(2, 6).truncated(3)
    assert full != bg_rank2(2, 6)


@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("d2", [-1, 0, 1, 2, 3])
def test_ab_semistable_parity(d2, g):
    order = 8 * g
    assert ab_semistable_rank2(d2, g, order) == ab_semistable_rank2(d2 + 2, g, order)


def test_gothen_examples():
    g = 2
    assert gothen_cover_poincare(0, 0, g, 6).coeffs[0] == 81
    spot = gothen_cover_poincare(1, 1, g, 8)
    assert spot.coeffs[:5] == (1, 8, 338, 8, 1)
    free = gothen_cover_poincare(2 * g - 1, 0, g, 10)
    assert free == sym_poincare(3, g, 10) * sym_poincare(0, g, 10)


def test_v_dim_examples():
    assert v_dim(1, 1, 2) == 320
    assert v_dim(0, 2 * 4 - 2, 4) == 3 ** 8 - 1
    assert v_dim(2 * 2 - 1, 0, 2) == 0
    # a negative exponent (of either factor, past the top 2g-2 or not) and
    # genus 1 are refused by v_dim, and so by every cover
    for m1, m2, g, message in ((-1, 0, 2, "nonnegative"), (0, -9, 2, "nonnegative"),
                               (0, 0, 1, "genus")):
        for refused in (lambda: v_dim(m1, m2, g),
                        lambda: gothen_cover_poincare(m1, m2, g, 8)):
            with pytest.raises(ParameterError, match=message):
                refused()


@pytest.mark.parametrize("g", [2, 3])
def test_gothen_euler_bookkeeping(g):
    order = 8 * g + 4
    for m1 in range(0, 2 * g + 1):
        for m2 in range(0, 2 * g + 1):
            cover = gothen_cover_poincare(m1, m2, g, order)
            base = sym_poincare(m1, g, order) * sym_poincare(m2, g, order)
            expected = base.evaluate(-1)
            if m1 <= 2 * g - 2 and m2 <= 2 * g - 2:
                expected += (-1) ** (m1 + m2) * v_dim(m1, m2, g)
            assert cover.evaluate(-1) == expected


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_pow(p, n):
    out = [1]
    for _ in range(n):
        out = _poly_mul(out, p)
    return out


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("d2", [0, 1, 2, 3])
def test_ab_semistable_odd_degree_closed_form(d2, g):
    # Harder-Narasimhan closed form of the rank-2 semistable stratum of
    # either parity, independent of the Atiyah-Bott recursion:
    # (1+t)^{2g} [(1+t^3)^{2g} - t^f (1+t)^{2g}] / ((1-t^2)^2 (1-t^4)),
    # with f = 2g for odd d2 and 2g+2 for even d2
    order = 60
    jac = _poly_pow([1, 1], 2 * g)
    first = _poly_pow([1, 0, 0, 1], 2 * g)
    second = [0] * (2 * g if d2 % 2 else 2 * g + 2) + jac
    bracket = [a - b for a, b in zip(first, second + [0] * (len(first) - len(second)))]
    numer = TruncatedSeries.from_coeffs(_poly_mul(jac, bracket)[:order + 1], order)
    geo2, geo4 = geometric_inverse(2, order), geometric_inverse(4, order)
    assert ab_semistable_rank2(d2, g, order) == numer * geo2 * geo2 * geo4
