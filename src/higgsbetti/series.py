"""Exact truncated formal power series arithmetic over the integers.

Everything downstream reduces to arithmetic on series in one variable t
with arbitrary-precision integer coefficients, truncated at a fixed order
N.  The only denominators that ever occur are products of factors
(1 - t^a), so all computations stay in exact integer arithmetic: no
floats, no rationals, no symbolic simplification.

Validation happens at the boundary only.  The constructor,
``from_coeffs``, ``monomial``, the scalar of ``scale``, ``RationalExpr``
and the provider-file parser (``parse_integer``) reject anything but
exact integers; a float or bool never becomes a coefficient.  Results of
internal arithmetic (``+``, ``-``, unary ``-``, ``*``, ``shifted``,
``truncated``, ``over_one_minus``) are built from already-checked
coefficients and go through ``_trusted``, which skips the per-coefficient
check.

Products use Kronecker substitution: a polynomial is evaluated at
t = 2^(8w), one slot of w bytes per coefficient, and one big-integer
product stands for the whole convolution.  ``_pack`` and ``_unpack`` are
the home of that format; the one other place that writes it is the
narrow ``TruncatedSeries`` product (below), which repeats their 1-8 byte
steps inline.  A packed value is exact and signed; to read
it back, an offset 2^(8w-1) is added to every slot, which makes each slot
the digit c_k + 2^(8w-1) with no borrows between slots.  That is right as
long as every |c_k| is below 2^(8w-1), so w always comes from a bound on
the result's coefficients plus a sign bit.  Slots of up to 8 bytes are
rounded up to 1, 2, 4 or 8 bytes, which ``struct`` converts in one call
with its signed codes: a pack writes each slot in two's complement and
one XOR with the offset flips every slot's top bit, which turns it into
the digit.  Each such (w, n) layout, the compiled ``struct.Struct``, the
offset and the mask of n slots, is built once and kept in a bounded
cache (``_layout``).  Wider slots (hundred-bit products at high genus)
are packed by one unsigned ``struct`` call of 8-byte chunks, spread to
the slots, when every coefficient lies in [0, 2^64), as a symmetric
product's do up to g = 32.  Any other sequence is packed, and wide slots
are read back, one slot at a time.  Packed values may be reduced modulo
2^(8wn), which is truncation at t^n.

``shifted_product_sum`` is the one sum kernel.  It forms a whole sum
factor * sum_j sign_j t^shift_j prod_i f_ji (an assembly block's
numerator) as one big-integer expression and unpacks it once, and its w
comes from the l1 norms of the factors.  ``_slot_width`` is the one
slot-width rule and ``_packed_product`` the one packed product.  Most
of its sums are short (tens of coefficients), so its cost per call
counts as much as the big-integer products: each factor is cut once,
and that cut gives both its norm and its pack.  A factor given twice in
a row (P(S^m) P(S^m), every C1 term at tau = 0) is cut and packed once
and squared, which CPython does faster than a general product.  A
``TruncatedSeries`` product is one Kronecker step with no entries to
classify: both factors packed at the width of their norms, one product,
one unpack.  It is the most frequent short product (``series-laws``
makes 8000 at order 24), so at slots of 1-8 bytes ``__mul__`` runs the
step in its own frame, with one ``_layout`` lookup, one signed pack per
factor (one for a square) and an unpack straight into the result's
tuple; wider slots, and a zero factor, go through ``_product``.
``polynomial_product`` is the sum with one term.

Division by (1 - t^a) is the in-place recurrence c[k] += c[k-a], O(N) per
factor, in place of a product with the geometric series.

Each result tuple is built once, from a list or whole by ``struct``:
short intermediate tuples (prefix tuples concatenated with slices,
tuple(generator) + zeros) stay in CPython's tuple free lists after use
and raise peak memory.

All values are immutable; all operations are pure functions of their
inputs and safe for concurrent use.
"""

from __future__ import annotations

import operator
import re
import struct
from functools import lru_cache
from itertools import accumulate
from math import comb

from .errors import ParameterError
from .records import Frozen, dataclass_compatible

_DECIMAL = re.compile(r"[-+]?[0-9]+")
# slot widths that struct converts in one call, and their signed codes
_STRUCT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


def default_order(g: int) -> int:
    """Default truncation order 8g+24, a rule of thumb, not a degree bound.

    Equivariant series have no top degree, so every order cuts them.  It
    holds every C1 product t^s P(S^m1) P(S^m2) whole (degree 10g-10) up
    to g = 17, but the moduli polynomial (1-t^2) u21 at a coprime point,
    whose degree reaches 14(g-1), only up to g = 6: from g = 7 on it cuts
    that polynomial, so pass a larger order where a polynomial is to be
    read whole."""
    return 8 * g + 24


def resolve_order(g: int, order: int | None) -> int:
    """The truncation order to use: the default for None, else ``order``;
    below 1 raises."""
    order = default_order(g) if order is None else order
    if order < 1:
        raise ParameterError("order must be at least 1")
    return order


def _require_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(f"{what} must be an integer, got {value!r}")
    return value


def parse_integer(value, what: str = "coefficient") -> int:
    """An exact integer from outside input: an int (not bool) or a
    decimal-integer string.  Floats, bools and anything else raise."""
    if isinstance(value, str) and _DECIMAL.fullmatch(value):
        try:
            return int(value)
        except ValueError as exc:  # beyond the interpreter's digit limit
            raise ParameterError(f"{what} {value[:20]!r}...: {exc}") from exc
    return _require_int(value, what)


def _as_coeff_tuple(coeffs) -> tuple[int, ...]:
    out = tuple(coeffs)
    for c in out:
        if type(c) is not int:  # fast path; int subclasses other than bool pass
            _require_int(c, "coefficient")
    if not out:
        raise ParameterError("a series needs at least the degree-0 coefficient")
    return out


def _padded(coeffs, order: int) -> list:
    """coeffs cut or zero-padded to order + 1 entries, as a new list."""
    if order < 0:
        raise ParameterError("order must be nonnegative")
    cs = list(coeffs[: order + 1])
    cs += [0] * (order + 1 - len(cs))
    return cs


def _slot_width(bound: int) -> int:
    """Bytes per slot for coefficients at most ``bound`` in absolute
    value: the bits of the bound and a sign bit, rounded up to 1, 2, 4 or
    8 bytes, which ``struct`` converts in one call, else the bytes the
    bits need."""
    w = (bound.bit_length() + 8) // 8
    return 1 << (w - 1).bit_length() if w <= 8 else w


def _slot_offset(w: int, n: int) -> int:
    """The offset 2^(8w-1) in each of n slots of w bytes, as one integer."""
    return int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")


@lru_cache(maxsize=256)
def _layout(w: int, n: int) -> tuple:
    """For n slots of w bytes, w in ``_STRUCT_CODES``: the compiled signed
    ``struct.Struct``, the offset of ``_slot_offset`` and the mask
    2^(8wn) - 1, shared by ``_pack`` and ``_unpack``.  For wider slots
    only the unsigned ``struct.Struct`` of n 8-byte chunks, so that no
    layout holds w*n-byte integers."""
    if w in _STRUCT_CODES:
        return (struct.Struct(f"<{n}{_STRUCT_CODES[w]}"), _slot_offset(w, n),
                (1 << (8 * w * n)) - 1)
    return struct.Struct(f"<{n}Q")


def _spread(raw: bytes, w: int) -> bytearray:
    """The 8-byte chunks of ``raw`` as the low bytes of w-byte slots, with
    zeros above them: one strided copy per byte of a chunk."""
    buf = bytearray(len(raw) // 8 * w)
    for j in range(8):
        buf[j::w] = raw[j::8]
    return buf


def _pack(c, w: int) -> int:
    """The exact value sum_k c_k 2^(8wk) of a signed coefficient sequence,
    each c_k in [-2^(8w-1), 2^(8w-1)).  At 1, 2, 4 or 8 bytes the slots
    are written in two's complement by one signed ``struct`` call;
    flipping each slot's top bit (one XOR with the offset) makes each
    slot the digit c_k + 2^(8w-1), and the offsets are subtracted as one
    integer.  Wider slots take one unsigned ``struct`` call of 8-byte
    chunks, spread to the slots, if every c_k fits [0, 2^64): ``struct``
    checks every value against its code and raises rather than wrap.  Any
    other sequence is written as offset digits one slot at a time.  Either
    way a value out of range raises, it never wraps."""
    if w in _STRUCT_CODES:
        layout, offset, _ = _layout(w, len(c))
        return (int.from_bytes(layout.pack(*c), "little") ^ offset) - offset
    try:
        return int.from_bytes(_spread(_layout(w, len(c)).pack(*c), w), "little")
    except struct.error:
        pass
    digits = map((1 << (8 * w - 1)).__add__, c)
    raw = b"".join([d.to_bytes(w, "little") for d in digits])
    return int.from_bytes(raw, "little") - _slot_offset(w, len(c))


def _unpack(x: int, w: int, n: int) -> list:
    """Coefficients 0..n-1 of a packed value x, known only modulo
    2^(8wn), whose coefficients 0..n-1 each lie below 2^(8w-1) in absolute
    value.  Adding an offset to every slot makes each slot the digit
    c_k + 2^(8w-1), with no borrows between slots; flipping each digit's
    top bit then leaves c_k in two's complement, read slot by slot."""
    size = w * n
    if w in _STRUCT_CODES:
        layout, offset, mask = _layout(w, n)
        return list(layout.unpack((((x + offset) & mask) ^ offset).to_bytes(size, "little")))
    offset = _slot_offset(w, n)
    data = (((x + offset) & ((1 << (8 * size)) - 1)) ^ offset).to_bytes(size, "little")
    view = memoryview(data)
    return [int.from_bytes(view[k : k + w], "little", signed=True)
            for k in range(0, size, w)]


def _packed_product(factors, w: int) -> int:
    """The product of ``factors``, each packed at w bytes per slot.  A
    factor that is the same object as the one before it is packed once,
    so f times f is x * x, which CPython squares about a third faster."""
    prod = last = None
    for f in factors:
        if f is not last:
            last, x = f, _pack(f, w)
        prod = x if prod is None else prod * x
    return 1 if prod is None else prod


def _product(factors, norm: int, size: int) -> list:
    """Coefficients 0..size-1 of the product of ``factors``, each at most
    size long, whose l1 norms multiply to ``norm``: one Kronecker step."""
    if not norm:  # a zero factor, whose slots would not hold the others
        return [0] * size
    w = _slot_width(norm)
    return _unpack(_packed_product(factors, w), w, size)


def shifted_product_sum(terms, size: int, factor=(1,)) -> list:
    """Coefficients 0..size-1 of factor * sum_j sign_j t^shift_j prod_i f_ji.

    ``terms`` holds entries (sign, shift, factors): a sign of +1 or -1, a
    shift >= 0 and a sequence of integer coefficient sequences, whose
    product is 1 when it is empty.  Each factor is cut to size - shift
    coefficients, which changes no coefficient below size.

    The sum is one big-integer expression at t = 2^(8w): each term is one
    product of its packed factors shifted by whole slots, and the sum,
    reduced modulo 2^(8w size) (modulo t^size), is multiplied by the
    packed factor and unpacked once.  The slot width comes from an exact
    bound: every coefficient of a sum of products is at most the sum over
    its terms of the product of the factors' l1 norms (the l1 norm of a
    product is at most the product of the norms), times the l1 norm of
    the factor, and one more bit holds the sign.

    Slots as wide as the largest coefficient make every product slower,
    so two kinds of term do not set the width of the products.  A term
    whose cut factors are all constants (a monomial, such as a Gothen
    cover's correction) is added to its coefficient after the unpack, or
    as a shifted integer when the slots hold it, and a sum of monomials
    alone (the expansion of an expression itself) is summed as shifted
    multiples of the factor, one slice each, with no packing.  A factor
    that needs wider slots than the products is applied after the sum is
    unpacked and packed again at the wider width.  Terms of one factor
    each multiply nothing before the factor: under the factor 1 they are
    added slice by slice, unpacked, and under another they are packed
    once, at the width of the whole sum.
    """
    factor = factor[:size]
    if size <= 0 or not any(factor):
        return [0] * max(size, 0)
    products, monomials, bound = [], [], 0
    for sign, shift, factors in terms:
        n = size - shift
        if n <= 0:
            continue
        cuts, norm, constant, last = [], 1, True, None
        for f in factors:
            if f is not last:  # a repeated factor is cut once
                last, cut = f, f[:n]
                cut_norm = sum(map(abs, cut))
                constant = constant and len(cut) == 1
            cuts.append(cut)
            norm *= cut_norm
        if not norm:
            continue
        if constant:
            c = sign
            for f in cuts:
                c *= f[0]
            monomials.append((shift, c))
        else:
            bound += norm
            products.append((sign, shift, cuts))
    if not products:  # monomials alone: shifted multiples of the factor
        cs = [0] * size
        for shift, c in monomials:
            end = min(size, shift + len(factor))
            cs[shift:end] = map(operator.add, cs[shift:end], map(c.__mul__, factor))
        return cs
    plain = tuple(factor) == (1,)
    single = all(len(factors) == 1 for _, _, factors in products)
    if plain and single:  # single factors under 1: nothing to multiply
        cs = [0] * size
        for sign, shift, (cut,) in products:
            end = shift + len(cut)
            op = operator.add if sign > 0 else operator.sub
            cs[shift:end] = map(op, cs[shift:end], cut)
        for shift, c in monomials:
            cs[shift] += c
        return cs
    wide = (bound + sum(abs(c) for _, c in monomials)) * sum(map(abs, factor))
    w_wide = _slot_width(wide)
    # single factors multiply nothing before the factor: pack them as wide
    w = w_wide if single else _slot_width(bound)
    total = 0
    for sign, shift, factors in products:
        prod = _packed_product(factors, w)
        if shift:
            prod <<= 8 * w * shift
        total = total + prod if sign > 0 else total - prod
    if w == w_wide:
        for shift, c in monomials:
            total += c << (8 * w * shift)
    else:
        cs = _unpack(total, w, size)
        for shift, c in monomials:
            cs[shift] += c
        if plain:
            return cs
        total, w = _pack(cs, w_wide), w_wide
    if plain:
        return _unpack(total, w, size)
    total = (total & ((1 << (8 * w * size)) - 1)) * _pack(factor, w)
    return _unpack(total, w, size)


def _over_one_minus(cs: list, exponents) -> "TruncatedSeries":
    """cs / prod_a (1 - t^a), dividing in place by the recurrence
    c[k] += c[k-a], run as a prefix sum along each residue class mod a."""
    for a in exponents:
        if a < 1:
            raise ParameterError("division by 1 - t^a needs a >= 1")
        for r in range(min(a, len(cs))):
            cs[r::a] = accumulate(cs[r::a])
    return _trusted(tuple(cs))


def _trusted(coeffs: tuple) -> "TruncatedSeries":
    """A series over coefficients known to be exact ints (no re-validation)."""
    out = object.__new__(TruncatedSeries)
    object.__setattr__(out, "coeffs", coeffs)
    return out


@dataclass_compatible
class TruncatedSeries(Frozen):
    """Coefficients c_0..c_N of sum_k c_k t^k, truncated at order N.

    ``coeffs[k]`` is the coefficient of ``t^k``; the order is
    ``len(coeffs) - 1``.  Binary operations require equal orders and
    never report coefficients beyond the order.
    """

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", _as_coeff_tuple(coeffs))

    # the coefficient tuple is the whole value
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs, order: int | None = None) -> "TruncatedSeries":
        """Build a series from a coefficient list, zero-padded or cut to order."""
        cs = list(coeffs)
        if order is not None:
            cs = _padded(cs, order)
        return cls(tuple(cs))

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return _trusted(tuple(_padded((), order)))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return _trusted(tuple(_padded((1,), order)))

    @classmethod
    def monomial(cls, degree: int, order: int, coefficient: int = 1) -> "TruncatedSeries":
        """c * t^degree truncated at order (zero if degree > order)."""
        if degree < 0:
            raise ParameterError("monomial degree must be nonnegative")
        cs = _padded((), order)
        if degree <= order:
            cs[degree] = _require_int(coefficient, "coefficient")
        return _trusted(tuple(cs))

    # -- basic queries -------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_nonnegative(self) -> bool:
        """Betti-number sanity check used by the higher modules."""
        return all(c >= 0 for c in self.coeffs)

    def evaluate(self, x: int) -> int:
        """Evaluate the truncated polynomial at an integer point (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- arithmetic ----------------------------------------------------

    def _check_order(self, other: "TruncatedSeries") -> None:
        if len(self.coeffs) != len(other.coeffs):
            raise ParameterError(
                f"order mismatch: {self.order} vs {other.order}"
            )

    # a sum or difference with anything but a series is NotImplemented, so
    # that Python raises TypeError, as it does for ``1 + s``
    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if other.__class__ is not self.__class__:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) != len(b):
            self._check_order(other)
        return _trusted(tuple(list(map(operator.add, a, b))))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if other.__class__ is not self.__class__:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) != len(b):
            self._check_order(other)
        return _trusted(tuple(list(map(operator.sub, a, b))))

    def __neg__(self) -> "TruncatedSeries":
        return _trusted(tuple(list(map(operator.neg, self.coeffs))))

    def __mul__(self, other):
        """The product at this order, one Kronecker step.  At slots of 1-8
        bytes the step runs here, as ``_pack`` and ``_unpack`` would run
        it: each factor packed by one signed ``struct`` call (once for a
        square), one product, and one unpack straight into the result's
        tuple.  Wider slots and a zero factor go through ``_product``."""
        if not isinstance(other, TruncatedSeries):
            return self.scale(other) if isinstance(other, int) else NotImplemented
        a, b = self.coeffs, other.coeffs
        n = len(a)
        if n != len(b):
            self._check_order(other)
        norm = sum(map(abs, a))
        norm *= norm if a is b else sum(map(abs, b))
        w = _slot_width(norm)
        if w > 8 or not norm:
            return _trusted(tuple(_product((a, b), norm, n)))
        layout, offset, mask = _layout(w, n)
        x = (int.from_bytes(layout.pack(*a), "little") ^ offset) - offset
        x *= x if a is b else (int.from_bytes(layout.pack(*b), "little") ^ offset) - offset
        out = object.__new__(TruncatedSeries)
        object.__setattr__(out, "coeffs", layout.unpack(
            (((x + offset) & mask) ^ offset).to_bytes(w * n, "little")))
        return out

    __rmul__ = __mul__

    def scale(self, c: int) -> "TruncatedSeries":
        _require_int(c, "scalar")
        return _trusted(tuple([c * a for a in self.coeffs]))

    def shifted(self, k: int) -> "TruncatedSeries":
        """Multiply by t^k; coefficients shifted past the order are lost."""
        if k < 0:
            raise ParameterError("shift exponent must be nonnegative")
        n = len(self.coeffs)
        out = [0] * n
        if k < n:
            out[k:] = self.coeffs[: n - k]
        return _trusted(tuple(out))

    def truncated(self, m: int) -> "TruncatedSeries":
        if not 0 <= m <= self.order:
            raise ParameterError(f"cannot truncate order {self.order} to {m}")
        return _trusted(self.coeffs[: m + 1])

    def over_one_minus(self, *exponents: int) -> "TruncatedSeries":
        """Divide by prod_a (1 - t^a), one O(N) recurrence per factor.

        Equal to multiplying by geometric_inverse(a, order) for each a.
        """
        return _over_one_minus(list(self.coeffs), exponents)

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
    return tuple(shifted_product_sum(((1, 0, (p, q)),), len(p) + len(q) - 1))


@dataclass_compatible
class RationalExpr(Frozen):
    """numerator(t) / prod_i (1 - t^{a_i}) with a finite integer numerator.

    The denominator is kept factored as a multiset of exponents a_i >= 1;
    every denominator that occurs downstream has this shape.  Every sum of
    terms over a shared factor and denominator (an assembly block, the
    wall-crossing sum, a critical set) is one ``expand`` of such a value.
    """

    __slots__ = _fields = ("numerator", "denom_exponents")

    def __init__(self, numerator, denom_exponents=()):
        object.__setattr__(self, "numerator",
                           tuple([parse_integer(c) for c in numerator]))
        exps = tuple(sorted([parse_integer(a, "denominator exponent")
                             for a in denom_exponents]))
        if any(a < 1 for a in exps):
            raise ParameterError("denominator exponents must be >= 1")
        object.__setattr__(self, "denom_exponents", exps)

    def expand(self, order: int, terms=((1, 0, ()),)) -> TruncatedSeries:
        """The sum of the entries (sign, shift, factors) of
        ``shifted_product_sum`` times this expression, truncated at order:
        one ``shifted_product_sum`` with the numerator as its factor and
        one division.  The default entry is 1, which expands the
        expression itself."""
        if order < 0:
            raise ParameterError("order must be nonnegative")
        return _over_one_minus(shifted_product_sum(terms, order + 1, self.numerator),
                               self.denom_exponents)

    def denominator_polynomial(self, order: int) -> TruncatedSeries:
        """prod_i (1 - t^{a_i}) as a truncated series (for recovery checks)."""
        poly = (1,)
        for a in self.denom_exponents:
            factor = [0] * (a + 1)
            factor[0], factor[a] = 1, -1
            poly = polynomial_product(poly, factor)
        return TruncatedSeries.from_coeffs(poly, order)
