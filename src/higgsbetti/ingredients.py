"""Closed-form ingredient series.

Jacobians, symmetric products of the surface, projective spaces, gauge
classifying spaces, the Atiyah-Bott recursion for the rank-2 semistable
stratum, and the Gothen polynomials of the 3^{2g}-fold covers of products
of symmetric products.  All functions are pure and cached.
"""

from __future__ import annotations

from dataclasses import dataclass
import operator
from functools import lru_cache
from math import comb

from .errors import ParameterError
from .series import (
    RationalExpr,
    TruncatedSeries,
    binomial_power,
    polynomial_product,
)


@dataclass(frozen=True)
class CoverParams:
    """Exponents (m1, m2) and genus for the covers of S^{m1}X x S^{m2}X."""

    m1: int
    m2: int
    g: int

    def __post_init__(self):
        if self.m1 < 0 or self.m2 < 0:
            raise ParameterError("cover exponents must be nonnegative")
        if self.g < 2:
            raise ParameterError("genus must be at least 2")


def _require_genus(g: int) -> None:
    if g < 2:
        raise ParameterError("genus must be at least 2")


@lru_cache(maxsize=None)
def jacobian_poincare(g: int, order: int) -> TruncatedSeries:
    """P_t of the Jacobian, a real 2g-torus: (1+t)^{2g}."""
    _require_genus(g)
    return binomial_power(2 * g, order)


@lru_cache(maxsize=None)
def sym_poincare(m: int, g: int, order: int) -> TruncatedSeries:
    """P_t of the m-th symmetric product of a genus-g surface.

    Macdonald's generating function sum_m P_t(S^m X) x^m =
    (1+xt)^{2g} / ((1-x)(1-xt^2)); extracting the x^m coefficient gives

        P_t(S^m X) = sum_{i=0}^{min(2g,m)} C(2g, i) t^i (1 + t^2 + ... + t^{2(m-i)})

    a palindromic polynomial of degree 2m.  Negative m yields the zero
    series (the empty symmetric product) without complaint, so a
    summation range that runs below m = 0 is not detected here.
    """
    _require_genus(g)
    if m < 0:
        return TruncatedSeries.zero(order)
    out = [0] * (order + 1)
    for i in range(0, min(2 * g, m) + 1):
        c = comb(2 * g, i)
        for k in range(0, m - i + 1):
            d = i + 2 * k
            if d > order:
                break
            out[d] += c
    return TruncatedSeries(tuple(out))


@lru_cache(maxsize=None)
def projective_poincare(n: int, order: int) -> TruncatedSeries:
    """P_t of complex projective n-space: 1 + t^2 + ... + t^{2n}."""
    if n < 0:
        return TruncatedSeries.zero(order)
    cs = [0] * (order + 1)
    for k in range(0, min(n, order // 2) + 1):
        cs[2 * k] = 1
    return TruncatedSeries(tuple(cs))


@lru_cache(maxsize=None)
def bg_rank1(g: int, order: int) -> TruncatedSeries:
    """Classifying space of the line-bundle gauge group: (1+t)^{2g}/(1-t^2)."""
    _require_genus(g)
    return jacobian_poincare(g, order).over_one_minus(2)


@lru_cache(maxsize=None)
def jacobian_polynomial(g: int, power: int = 1) -> tuple[int, ...]:
    """Coefficients of P(J)^power = (1+t)^{2g power}, untruncated."""
    _require_genus(g)
    n = 2 * g * power
    return tuple(comb(n, i) for i in range(n + 1))


@lru_cache(maxsize=None)
def atiyah_bott_numerators(
    g: int, odd_d2: bool, line_factors: int
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Numerators over (1-t^2)^k (1-t^4), k = line_factors, of the
    Atiyah-Bott block of a stratum route: the classifying total
    P(J)^{k-1} (1+t^3)^{2g}, the semistable block (total minus tail) and
    the line-splitting tail t^f P(J)^k, with f = 2g for odd d2 and 2g+2
    for even d2 (see ``line_splitting_sum``).  k = 2 gives
    ``bg_rank2``, ``ab_semistable_rank2`` and ``line_splitting_sum(.., 2)``;
    k = 3 gives ``bg_u21``, P(J) ``ab_semistable_rank2``/(1-t^2) and
    ``line_splitting_sum(.., 3)``.  The three satisfy total = semistable
    + tail exactly.  Polynomials, so the cache key holds no order.
    """
    one_plus_t3 = [comb(2 * g, k // 3) if k % 3 == 0 else 0 for k in range(6 * g + 1)]
    total = polynomial_product(jacobian_polynomial(g, line_factors - 1), one_plus_t3)
    first = 2 * g if odd_d2 else 2 * g + 2
    tail = (0,) * first + jacobian_polynomial(g, line_factors)
    n = max(len(total), len(tail))
    semistable = tuple(map(operator.sub, total + (0,) * (n - len(total)),
                           tail + (0,) * (n - len(tail))))
    return total, semistable, tail


@lru_cache(maxsize=None)
def bg_rank2(g: int, order: int) -> TruncatedSeries:
    """Classifying space of the rank-2 gauge group:
    (1+t)^{2g} (1+t^3)^{2g} / ((1-t^2)^2 (1-t^4))."""
    _require_genus(g)
    total = atiyah_bott_numerators(g, True, 2)[0]  # the same for either parity
    return RationalExpr(total, (2, 2, 4)).expand(order)


def bg_u21(g: int, order: int) -> TruncatedSeries:
    """Classifying space of the full rank-(2,1) gauge group."""
    return bg_rank2(g, order) * bg_rank1(g, order)


def bg_su21(g: int, order: int) -> TruncatedSeries:
    """Classifying space of the fixed-determinant gauge group.

    Pinned to the rank-2 value by requiring the fixed-determinant analog
    of the Atiyah-Bott cancellation to vanish identically.
    """
    return bg_rank2(g, order)


def line_splitting_sum(g: int, d2: int, order: int, line_factors: int) -> TruncatedSeries:
    """Sum over integers l > d2/2 of t^{2(g-1+2l-d2)} (P(J)/(1-t^2))^line_factors.

    Consecutive exponents differ by 4, so the sum is its first term over
    (1 - t^4); the first exponent is 2g when d2 is odd, 2g+2 when even.
    """
    jac = jacobian_poincare(g, order)
    block = jac
    for _ in range(line_factors - 1):
        block = block * jac
    first = 2 * (g - 1 + 2 * (d2 // 2 + 1) - d2)
    return block.over_one_minus(*[2] * line_factors, 4).shifted(first)


@lru_cache(maxsize=None)
def ab_semistable_rank2(d2: int, g: int, order: int) -> TruncatedSeries:
    """Equivariant series of the rank-2 degree-d2 semistable stratum.

    Atiyah-Bott recursion: the classifying-space total minus one term
    t^{2(2l - d2 + g - 1)} (BU(1)-gauge)^2 for each unstable type l > d2/2,
    where BU(1)-gauge has series P(J)/(1-t^2).  The result depends on d2
    only through the exponent arithmetic, hence only on its parity.
    """
    return bg_rank2(g, order) - line_splitting_sum(g, d2, order, 2)


def v_dim(c: CoverParams) -> int:
    """Dimension (3^{2g}-1) C(2g-2, m1) C(2g-2, m2) of the anomalous summand.

    Out-of-range binomials vanish, so this is 0 unless 0 <= mi <= 2g-2.
    """
    n = 2 * c.g - 2

    def _safe_comb(k: int) -> int:
        return comb(n, k) if 0 <= k <= n else 0

    return (3 ** (2 * c.g) - 1) * _safe_comb(c.m1) * _safe_comb(c.m2)


def gothen_cover_poincare(c: CoverParams, order: int) -> TruncatedSeries:
    """Gothen's formula for the 3^{2g}-fold cover of S^{m1}X x S^{m2}X:

        P_t = P_t(S^{m1}X) P_t(S^{m2}X) + v t^{m1+m2}

    with the correction v = v_dim(m1, m2) present iff both mi <= 2g-2
    (it vanishes automatically otherwise, but the branch is kept explicit
    to mirror the two printed cases).
    """
    product = sym_poincare(c.m1, c.g, order) * sym_poincare(c.m2, c.g, order)
    if c.m1 <= 2 * c.g - 2 and c.m2 <= 2 * c.g - 2:
        return product + TruncatedSeries.monomial(c.m1 + c.m2, order, v_dim(c))
    return product
