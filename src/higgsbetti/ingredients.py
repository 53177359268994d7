"""Closed-form ingredient series.

Jacobians, symmetric products of the surface, projective spaces, gauge
classifying spaces, the Atiyah-Bott recursion for the rank-2 semistable
stratum, and the Gothen polynomials of the 3^{2g}-fold covers of products
of symmetric products.  The cached values (symmetric products, Jacobian
powers and blocks, the Atiyah-Bott numerators) are polynomials or
rational expressions with no order in their key; a series of some order
is expanded from them when it is asked for.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import accumulate
from math import comb

from .errors import ParameterError
from .series import RationalExpr, TruncatedSeries, polynomial_product


def _require_genus(g: int) -> None:
    if g < 2:
        raise ParameterError("genus must be at least 2")


def jacobian_poincare(g: int, order: int) -> TruncatedSeries:
    """P_t of the Jacobian, a real 2g-torus: (1+t)^{2g}."""
    return jacobian_block(g, 1).expand(order)


@lru_cache(maxsize=None)
def sym_polynomial(m: int, g: int) -> tuple[int, ...]:
    """P_t of the m-th symmetric product of a genus-g surface, untruncated.

    Macdonald's generating function sum_m P_t(S^m X) x^m =
    (1+xt)^{2g} / ((1-x)(1-xt^2)); extracting the x^m coefficient gives

        P_t(S^m X) = sum_{i=0}^{min(2g,m)} C(2g, i) t^i (1 + t^2 + ... + t^{2(m-i)})

    a palindromic polynomial of degree 2m with constant term 1.  For
    d <= m the terms with i <= d and i = d mod 2 reach t^d, so the
    coefficient is a parity prefix sum of C(2g, i); the degrees above m
    mirror those below.  Negative m yields the zero polynomial (0,) (the
    empty symmetric product) without complaint, so a summation range that
    runs below m = 0 is not detected here.  A polynomial, so the cache key
    holds no order.
    """
    _require_genus(g)
    if m < 0:
        return (0,)
    low = [comb(2 * g, i) for i in range(min(2 * g, m) + 1)]
    low += [0] * (m + 1 - len(low))
    low[0::2] = accumulate(low[0::2])
    low[1::2] = accumulate(low[1::2])
    return tuple(low + low[-2::-1])


def sym_factor(m: int, g: int, order: int) -> tuple[int, ...]:
    """A polynomial equal to P_t(S^m X) in every degree up to order, of
    degree at most 2 order: for m >= order the coefficient of t^d, d <=
    order, is the sum of C(2g, i) over i <= d with i = d mod 2, whatever
    m is, so S^m X is cut to S^order X."""
    return sym_polynomial(min(m, order), g)


def sym_poincare(m: int, g: int, order: int) -> TruncatedSeries:
    """P_t(S^m X) truncated at order (see ``sym_polynomial``)."""
    return TruncatedSeries.from_coeffs(sym_factor(m, g, order), order)


def projective_poincare(n: int, order: int) -> TruncatedSeries:
    """P_t of complex projective n-space: 1 + t^2 + ... + t^{2n}."""
    if n < 0:
        return TruncatedSeries.zero(order)
    cs = [0] * (order + 1)
    for k in range(0, min(n, order // 2) + 1):
        cs[2 * k] = 1
    return TruncatedSeries(tuple(cs))


def bg_rank1(g: int, order: int) -> TruncatedSeries:
    """Classifying space of the line-bundle gauge group: (1+t)^{2g}/(1-t^2)."""
    return jacobian_block(g, 1, 2).expand(order)


@lru_cache(maxsize=None)
def jacobian_polynomial(g: int, power: int = 1) -> tuple[int, ...]:
    """Coefficients of P(J)^power = (1+t)^{2g power}, untruncated."""
    _require_genus(g)
    n = 2 * g * power
    return tuple(comb(n, i) for i in range(n + 1))


@lru_cache(maxsize=None)
def jacobian_block(g: int, power: int, *denominators: int) -> RationalExpr:
    """P(J)^power / prod_a (1 - t^a), the factor and denominator that all
    terms of one stratum kind share; cached, so it is validated once."""
    return RationalExpr(jacobian_polynomial(g, power), denominators)


@lru_cache(maxsize=None)
def atiyah_bott_numerators(
    g: int, odd_d2: bool, line_factors: int
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Numerators over (1-t^2)^k (1-t^4), k = line_factors, of the
    Atiyah-Bott block: the classifying total P(J)^{k-1} (1+t^3)^{2g}, the
    semistable block (total minus tail) and the line-splitting tail
    t^f P(J)^k, with f = 2g for odd d2 and 2g+2 for even d2.

    The tail is the sum over the unstable types l > d2/2 of
    t^{2(g-1+2l-d2)} (P(J)/(1-t^2))^k: consecutive exponents differ by 4,
    so it is its first term over (1 - t^4).  Every Atiyah-Bott series is
    one of these numerators over its block (``atiyah_bott_series``):
    k = 2 gives the rank-2 gauge group, k = 3 the rank-(2,1) one.
    Polynomials, so the cache key holds no order.
    """
    one_plus_t3 = [comb(2 * g, k // 3) if k % 3 == 0 else 0 for k in range(6 * g + 1)]
    total = polynomial_product(jacobian_polynomial(g, line_factors - 1), one_plus_t3)
    first = 2 * g if odd_d2 else 2 * g + 2
    tail = (0,) * first + jacobian_polynomial(g, line_factors)
    n = max(len(total), len(tail))
    semistable = tuple(map(operator.sub, total + (0,) * (n - len(total)),
                           tail + (0,) * (n - len(tail))))
    return total, semistable, tail


# the parts of ``atiyah_bott_numerators``, by position
TOTAL, SEMISTABLE, TAIL = range(3)


def atiyah_bott_block(g: int, line_factors: int, *extra: int) -> RationalExpr:
    """The denominator (1-t^2)^k (1-t^4) of the Atiyah-Bott numerators,
    k = line_factors, with one more factor (1 - t^a) for each a in extra."""
    return jacobian_block(g, 0, *[2] * line_factors, 4, *extra)


def atiyah_bott_series(g: int, d2: int, line_factors: int, part: int, order: int,
                       *extra: int) -> TruncatedSeries:
    """One part (TOTAL, SEMISTABLE or TAIL) of the Atiyah-Bott block of
    degree d2 and k = line_factors, over ``atiyah_bott_block``, truncated
    at order."""
    numerator = atiyah_bott_numerators(g, d2 % 2 == 1, line_factors)[part]
    return atiyah_bott_block(g, line_factors, *extra).expand(order, ((1, 0, (numerator,)),))


def bg_rank2(g: int, order: int) -> TruncatedSeries:
    """Classifying space of the rank-2 gauge group:
    (1+t)^{2g} (1+t^3)^{2g} / ((1-t^2)^2 (1-t^4))."""
    return atiyah_bott_series(g, 1, 2, TOTAL, order)  # the same for either parity


def bg_u21(g: int, order: int) -> TruncatedSeries:
    """Classifying space of the full rank-(2,1) gauge group, the rank-2
    one times the line-bundle one:
    (1+t)^{4g} (1+t^3)^{2g} / ((1-t^2)^3 (1-t^4))."""
    return atiyah_bott_series(g, 1, 3, TOTAL, order)


def bg_su21(g: int, order: int) -> TruncatedSeries:
    """Classifying space of the fixed-determinant gauge group.

    Pinned to the rank-2 value, so that the fixed-determinant route's
    Atiyah-Bott block is the k = 2 block of ``atiyah_bott_numerators``.
    """
    return bg_rank2(g, order)


def ab_semistable_rank2(d2: int, g: int, order: int) -> TruncatedSeries:
    """Equivariant series of the rank-2 degree-d2 semistable stratum.

    Atiyah-Bott recursion: the classifying-space total minus one term
    t^{2(2l - d2 + g - 1)} (BU(1)-gauge)^2 for each unstable type l > d2/2,
    where BU(1)-gauge has series P(J)/(1-t^2).  The result depends on d2
    only through the exponent arithmetic, hence only on its parity.
    """
    return atiyah_bott_series(g, d2, 2, SEMISTABLE, order)


def v_dim(m1: int, m2: int, g: int) -> int:
    """Dimension (3^{2g}-1) C(2g-2, m1) C(2g-2, m2) of the anomalous summand
    of the cover of S^{m1}X x S^{m2}X.

    Out-of-range binomials vanish, so this is 0 unless mi <= 2g-2; a
    negative exponent raises, as every cover goes through here.
    """
    if m1 < 0 or m2 < 0:
        raise ParameterError("cover exponents must be nonnegative")
    _require_genus(g)
    n = 2 * g - 2
    if m1 > n or m2 > n:
        return 0
    return (3 ** (2 * g) - 1) * comb(n, m1) * comb(n, m2)


def gothen_cover(m1: int, m2: int, g: int, order: int,
                 shift: int = 0) -> tuple[tuple, tuple]:
    """Gothen's formula for the 3^{2g}-fold cover of S^{m1}X x S^{m2}X,

        P_t = P_t(S^{m1}X) P_t(S^{m2}X) + v t^{m1+m2},

    times t^shift, as its two entries (sign, shift, factors) of
    ``shifted_product_sum``: the product of ``sym_factor`` of m1 and m2
    (exact up to order) and the monomial v t^{m1+m2}, v = v_dim(m1, m2, g),
    which is 0 unless both mi lie in 0..2g-2.
    """
    v = v_dim(m1, m2, g)
    factors = (sym_factor(m1, g, order), sym_factor(m2, g, order))
    return (1, shift, factors), (1, shift + m1 + m2, ((v,),))


def gothen_cover_poincare(m1: int, m2: int, g: int, order: int) -> TruncatedSeries:
    """The cover polynomial of ``gothen_cover`` truncated at order."""
    entries = gothen_cover(m1, m2, g, order)  # checks the exponents first
    return jacobian_block(g, 0).expand(order, entries)


# the ops of ``higgsbetti ingredients`` by name: each takes the genus, the
# order and, by keyword, the integers m, n, d2, m1 and m2 it reads; each
# gives a series but vdim, which gives an integer
OPS = {
    "jacobian": lambda g, order, **_: jacobian_poincare(g, order),
    "sym": lambda g, order, m, **_: sym_poincare(m, g, order),
    "projective": lambda g, order, n, **_: projective_poincare(n, order),
    "bg-rank1": lambda g, order, **_: bg_rank1(g, order),
    "bg-rank2": lambda g, order, **_: bg_rank2(g, order),
    "bg-u21": lambda g, order, **_: bg_u21(g, order),
    "bg-su21": lambda g, order, **_: bg_su21(g, order),
    "ab-semistable": lambda g, order, d2, **_: ab_semistable_rank2(d2, g, order),
    "gothen": lambda g, order, m1, m2, **_: gothen_cover_poincare(m1, m2, g, order),
    "vdim": lambda g, order, m1, m2, **_: v_dim(m1, m2, g),
}
