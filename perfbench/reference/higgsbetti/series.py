"""Exact truncated formal power series arithmetic over the integers.

Everything downstream reduces to arithmetic on series in one variable t
with arbitrary-precision integer coefficients, truncated at a fixed order
N.  The only denominators that ever occur are products of factors
(1 - t^a), which expand into geometric series with 0/1 coefficients, so
all computations stay in exact integer arithmetic: no floats, no
rationals, no symbolic simplification.

All values are immutable; all operations are pure functions of their
inputs and safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import ParameterError


def default_order(g: int) -> int:
    """Default truncation order, comfortably above desk-scale top degrees."""
    return 8 * g + 24


def _as_coeff_tuple(coeffs) -> tuple[int, ...]:
    out = []
    for c in coeffs:
        if isinstance(c, bool) or not isinstance(c, int):
            raise ParameterError(f"coefficients must be integers, got {c!r}")
        out.append(c)
    if not out:
        raise ParameterError("a series needs at least the degree-0 coefficient")
    return tuple(out)


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients c_0..c_N of sum_k c_k t^k, truncated at order N.

    ``coeffs[k]`` is the coefficient of ``t^k``; the order is
    ``len(coeffs) - 1``.  Binary operations require equal orders and
    never report coefficients beyond the order.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_coeff_tuple(self.coeffs))

    # -- constructors -------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs, order: int | None = None) -> "TruncatedSeries":
        """Build a series from a coefficient list, zero-padded or cut to order."""
        cs = list(coeffs)
        if order is not None:
            if order < 0:
                raise ParameterError("order must be nonnegative")
            cs = cs[: order + 1] + [0] * (order + 1 - len(cs))
        return cls(tuple(cs))

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls.from_coeffs([], order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.from_coeffs([1], order)

    @classmethod
    def monomial(cls, degree: int, order: int, coefficient: int = 1) -> "TruncatedSeries":
        """c * t^degree truncated at order (zero if degree > order)."""
        if degree < 0:
            raise ParameterError("monomial degree must be nonnegative")
        cs = [0] * (order + 1)
        if degree <= order:
            cs[degree] = coefficient
        return cls(tuple(cs))

    # -- basic queries -------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> int:
        if not 0 <= k <= self.order:
            raise ParameterError(f"degree {k} outside 0..{self.order}")
        return self.coeffs[k]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_nonnegative(self) -> bool:
        """Betti-number sanity check used by the higher modules."""
        return all(c >= 0 for c in self.coeffs)

    def degree(self) -> int | None:
        """Largest index with a nonzero coefficient, None for the zero series."""
        for k in range(self.order, -1, -1):
            if self.coeffs[k] != 0:
                return k
        return None

    def evaluate(self, x: int) -> int:
        """Evaluate the truncated polynomial at an integer point (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- arithmetic ----------------------------------------------------

    def _check_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ParameterError(
                f"order mismatch: {self.order} vs {other.order}"
            )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_order(other)
        return TruncatedSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_order(other)
        return TruncatedSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        n = self.order
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(tuple(out))

    __rmul__ = __mul__

    def scale(self, c: int) -> "TruncatedSeries":
        return TruncatedSeries(tuple(c * a for a in self.coeffs))

    def shifted(self, k: int) -> "TruncatedSeries":
        """Multiply by t^k; coefficients shifted past the order are lost."""
        if k < 0:
            raise ParameterError("shift exponent must be nonnegative")
        n = self.order
        out = [0] * (n + 1)
        for i in range(n + 1 - k):
            out[i + k] = self.coeffs[i]
        return TruncatedSeries(tuple(out))

    def truncated(self, m: int) -> "TruncatedSeries":
        if not 0 <= m <= self.order:
            raise ParameterError(f"cannot truncate order {self.order} to {m}")
        return TruncatedSeries(self.coeffs[: m + 1])

    # -- serialization (exact: decimal strings, no floats) --------------

    def to_json_dict(self) -> dict:
        return {"order": self.order, "coefficients": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "TruncatedSeries":
        try:
            order = int(data["order"])
            coeffs = [int(s) for s in data["coefficients"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParameterError(f"malformed series payload: {exc}") from exc
        if len(coeffs) != order + 1:
            raise ParameterError("series payload length does not match order")
        return cls(tuple(coeffs))

    def __str__(self) -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                factor = "t" if k == 1 else f"t^{k}"
                parts.append(factor if c == 1 else f"{c}*{factor}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(t^{self.order + 1})"


def add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Coefficientwise sum of two series of equal order."""
    return a + b


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the common order."""
    if not isinstance(b, TruncatedSeries):
        raise ParameterError("mul expects two series")
    return a * b


def geometric_inverse(a: int, order: int) -> TruncatedSeries:
    """Expansion of 1/(1 - t^a): coefficient 1 at multiples of a, else 0."""
    if a < 1:
        raise ParameterError("geometric_inverse needs a >= 1")
    cs = [0] * (order + 1)
    for k in range(0, order + 1, a):
        cs[k] = 1
    return TruncatedSeries(tuple(cs))


def binomial_power(k: int, order: int) -> TruncatedSeries:
    """(1 + t)^k truncated at order."""
    if k < 0:
        raise ParameterError("binomial_power needs k >= 0")
    return TruncatedSeries(tuple(comb(k, j) for j in range(order + 1)))


def polynomial_product(p, q) -> tuple[int, ...]:
    """Full (untruncated) product of two integer coefficient lists."""
    p, q = list(p), list(q)
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            if b:
                out[i + j] += a * b
    return tuple(out)


@dataclass(frozen=True)
class RationalExpr:
    """numerator(t) / prod_i (1 - t^{a_i}) with a finite integer numerator.

    The denominator is kept factored as a multiset of exponents a_i >= 1;
    every denominator that occurs downstream has this shape.
    """

    numerator: tuple[int, ...]
    denom_exponents: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "numerator", tuple(int(c) for c in self.numerator))
        exps = tuple(sorted(int(a) for a in self.denom_exponents))
        if any(a < 1 for a in exps):
            raise ParameterError("denominator exponents must be >= 1")
        object.__setattr__(self, "denom_exponents", exps)

    def expand(self, order: int) -> TruncatedSeries:
        out = TruncatedSeries.from_coeffs(self.numerator, order)
        for a in self.denom_exponents:
            out = out * geometric_inverse(a, order)
        return out

    def denominator_polynomial(self, order: int) -> TruncatedSeries:
        """prod_i (1 - t^{a_i}) as a truncated series (for recovery checks)."""
        poly = (1,)
        for a in self.denom_exponents:
            factor = [0] * (a + 1)
            factor[0], factor[a] = 1, -1
            poly = polynomial_product(poly, factor)
        return TruncatedSeries.from_coeffs(poly, order)


def expand(expr: RationalExpr, order: int) -> TruncatedSeries:
    """Numerator times the product of geometric inverses, truncated."""
    return expr.expand(order)


@dataclass(frozen=True)
class PolynomialWindow:
    """Result of the heuristic polynomiality probe.

    Truncation can only falsify polynomiality, never prove it, so the
    positive answer means "no coefficient in the top window".
    """

    is_polynomial: bool
    degree: int | None
    window: int


def is_polynomial_window(f: TruncatedSeries, window: int) -> PolynomialWindow:
    """True iff the top `window` coefficients vanish; reports the top degree."""
    if window < 1:
        raise ParameterError("window must be positive")
    if window > f.order:
        raise ParameterError("window exceeds the truncation order")
    clean = all(c == 0 for c in f.coeffs[f.order - window + 1 :])
    return PolynomialWindow(is_polynomial=clean, degree=f.degree(), window=window)
