import dataclasses
import json
import math
import operator
import random
import struct

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from higgsbetti.bradlow import maximal_provider_record, provider_from_file
from higgsbetti.cli import main
from higgsbetti.errors import ParameterError, ProviderFileError
from higgsbetti import series
from higgsbetti.params import make_params
from higgsbetti.series import (
    RationalExpr,
    TruncatedSeries,
    binomial_power,
    geometric_inverse,
    polynomial_product,
    _pack,
    _spread,
    _unpack,
    shifted_product_sum,
)


def S(coeffs, order=None):
    return TruncatedSeries.from_coeffs(coeffs, order)


def _json_series(tmp_path, order, coefficients) -> TruncatedSeries:
    """A series read back from JSON: the moduli_min of a g = 2 provider
    record (e = sigma = 1) with these fields, through provider_from_file,
    the package's one reader of series from JSON."""
    record = {"g": 2, "e": 1, "sigma": {"num": 1, "den": 1}, "order": order,
              "moduli_min": coefficients}
    path = tmp_path / "series.json"
    path.write_text(json.dumps(record))
    return provider_from_file(path).lookup(2, 1, order)[1]


def test_add_examples():
    assert S([1, 1, 0]) + S([1, 0, 1]) == S([2, 1, 1])
    f = S([3, -1, 2, 5])
    assert f + TruncatedSeries.zero(3) == f
    assert S([1, -1]) + S([0, 1]) == S([1, 0])


def test_add_order_mismatch():
    with pytest.raises(ParameterError):
        S([1, 1]) + S([1, 1, 1])


@pytest.mark.parametrize("op", [operator.add, operator.sub])
@pytest.mark.parametrize("other", [1, 1.5, None, (1, 2, 3)], ids=repr)
def test_a_sum_with_anything_but_a_series_is_a_type_error(op, other):
    # on either side, as for a product with a float: never an AttributeError
    for a, b in ((S([1, 2]), other), (other, S([1, 2]))):
        with pytest.raises(TypeError):
            op(a, b)


@pytest.mark.parametrize("refused, message", [
    pytest.param(lambda: TruncatedSeries(()), "degree-0 coefficient", id="empty"),
    pytest.param(lambda: S([1, 2], -1), "order must be nonnegative", id="negative-order"),
    pytest.param(lambda: S([1, 2]).over_one_minus(0), "a >= 1", id="over-one-minus-t0"),
    pytest.param(lambda: TruncatedSeries.monomial(-1, 3), "degree must be nonnegative",
                 id="monomial-below-0"),
    pytest.param(lambda: S([1, 2]).shifted(-1), "shift exponent", id="shift-below-0"),
    pytest.param(lambda: S([1, 2]).truncated(2), "cannot truncate order 1 to 2",
                 id="truncated-past-order"),
    pytest.param(lambda: binomial_power(-1, 3), "k >= 0", id="binomial-power-below-0"),
    pytest.param(lambda: RationalExpr((1,), (0,)), "exponents must be >= 1",
                 id="denominator-1-t0"),
    pytest.param(lambda: series.parse_integer("1" + "0" * 5000), "limit",
                 id="integer-past-digit-limit"),
])
def test_an_argument_outside_the_domain_is_refused(refused, message):
    with pytest.raises(ParameterError, match=message):
        refused()


def test_series_value_semantics():
    f, same = S([3, -1, 2]), TruncatedSeries((3, -1, 2))
    assert f == same and hash(f) == hash(same) and len({f, same}) == 1
    assert f != S([3, -1, 2], 3) and f != S([3, -1, 3])
    # another class, even one holding the same tuple, is never equal
    assert f != (3, -1, 2) and f != make_params(3, -1, 2) and not f == (3, -1, 2)
    assert dataclasses.replace(f) == f
    assert dataclasses.replace(f, coeffs=(1,)) == S([1])
    assert dataclasses.asdict(f) == {"coeffs": (3, -1, 2)}
    for op in (operator.add, operator.mul):
        with pytest.raises(ParameterError, match=r"^order mismatch: 2 vs 3$"):
            op(f, S([3, -1, 2], 3))
    # a zero factor beside coefficients too wide for the zero's own slots
    assert TruncatedSeries.zero(2) * S([2**70, -(2**70), 1]) == TruncatedSeries.zero(2)


def test_mul_examples():
    assert S([1, 1], 2) * S([1, 1], 2) == S([1, 2, 1])
    f = S([2, 0, -3, 1, 4])
    assert f * TruncatedSeries.one(4) == f
    inv = geometric_inverse(2, 6)
    assert inv * S([1, 0, -1], 6) == TruncatedSeries.one(6)


def test_geometric_inverse_examples():
    assert geometric_inverse(2, 6) == S([1, 0, 1, 0, 1, 0, 1])
    assert geometric_inverse(4, 5) == S([1, 0, 0, 0, 1, 0])
    assert geometric_inverse(1, 3) == S([1, 1, 1, 1])
    with pytest.raises(ParameterError):
        geometric_inverse(0, 5)


def test_binomial_power_examples():
    assert binomial_power(4, 10) == S([1, 4, 6, 4, 1], 10)
    assert binomial_power(0, 5) == TruncatedSeries.one(5)
    assert binomial_power(8, 2) == S([1, 8, 28])


def test_expand_examples():
    assert RationalExpr((1, 4, 6, 4, 1), (2,)).expand(2) == S([1, 4, 7])
    assert RationalExpr((1,), (2, 2)).expand(4) == S([1, 0, 2, 0, 3])
    assert RationalExpr((0, 0, 0, 0, 1), (4,)).expand(9) == S(
        [0, 0, 0, 0, 1, 0, 0, 0, 1, 0])
    with pytest.raises(ParameterError):
        RationalExpr((1,), (2,)).expand(-1)


def test_expand_recovery():
    expr = RationalExpr((1, 4, 6, 4, 1), (2, 2, 4))
    back = expr.expand(16) * expr.denominator_polynomial(16)
    assert back == S(expr.numerator, 16)


def test_json_round_trip(tmp_path):
    f = S([10**40, -3, 0, 7], 8)
    assert _json_series(tmp_path, f.order, [str(c) for c in f.coeffs]) == f


def test_shift_and_scale():
    f = S([1, 2, 3], 4)
    assert f.shifted(2) == S([0, 0, 1, 2, 3])
    assert f.shifted(5) == TruncatedSeries.zero(4)
    assert f.scale(-2) == S([-2, -4, -6], 4)


series_strategy = st.builds(
    TruncatedSeries,
    st.tuples(*[st.integers(min_value=-50, max_value=50) for _ in range(13)]),
)


@settings(max_examples=150, deadline=None)
@given(series_strategy, series_strategy, series_strategy)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=100, deadline=None)
@given(series_strategy, series_strategy, st.integers(min_value=0, max_value=12))
def test_truncation_coherence(a, b, m):
    assert (a * b).truncated(m) == a.truncated(m) * b.truncated(m)
    assert (a + b).truncated(m) == a.truncated(m) + b.truncated(m)


def naive_product(a, b, size):
    """Reference convolution: coefficients 0..size-1 of a*b."""
    out = [0] * size
    for i, x in enumerate(a[:size]):
        for j, y in enumerate(b[: size - i]):
            out[i + j] += x * y
    return out


@st.composite
def padded_coeffs(draw, length):
    """length signed coefficients of up to ~400 bits, with runs of leading
    and trailing zeros (all zeros when the core is empty)."""
    bits = draw(st.sampled_from([1, 8, 64, 400]))
    lead = draw(st.integers(min_value=0, max_value=length))
    core = draw(st.integers(min_value=0, max_value=length - lead))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    cs = [0] * lead + [rng.randint(-(2**bits), 2**bits) for _ in range(core)]
    return cs + [0] * (length - len(cs))


@st.composite
def series_pairs(draw):
    order = draw(st.one_of(st.integers(min_value=0, max_value=30),
                           st.integers(min_value=0, max_value=300)))
    return (draw(padded_coeffs(order + 1)), draw(padded_coeffs(order + 1)))


@settings(max_examples=60, deadline=None)
@given(series_pairs())
def test_product_matches_naive_convolution(pair):
    a, b = pair
    n = len(a)
    got = TruncatedSeries(tuple(a)) * TruncatedSeries(tuple(b))
    assert list(got.coeffs) == naive_product(a, b, n)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=60).flatmap(padded_coeffs),
       st.integers(min_value=1, max_value=60).flatmap(padded_coeffs))
def test_polynomial_product_matches_naive_convolution(p, q):
    assert list(polynomial_product(p, q)) == naive_product(p, q, len(p) + len(q) - 1)


@pytest.mark.parametrize("bits", [7, 8, 63, 64, 400])
@pytest.mark.parametrize("length", [12, 16, 64, 256])
def test_product_at_the_coefficient_bound(bits, length):
    # |c_k| reaches length * M^2, the most the packed slot must hold
    m = 2**bits - 1
    for a, b in [([m] * length, [m] * length), ([m] * length, [-m] * length),
                 ([m if i % 2 else -m for i in range(length)], [-m] * length)]:
        got = TruncatedSeries(tuple(a)) * TruncatedSeries(tuple(b))
        assert list(got.coeffs) == naive_product(a, b, length)
        assert list(polynomial_product(a, b)) == naive_product(a, b, 2 * length - 1)


def _both_products(a, b):
    """Check ``*`` on a and b zero-padded to one length, and
    ``polynomial_product`` on a and b as given, against the convolution."""
    assert list(polynomial_product(a, b)) == naive_product(a, b, len(a) + len(b) - 1)
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    got = TruncatedSeries(tuple(a)) * TruncatedSeries(tuple(b))
    assert list(got.coeffs) == naive_product(a, b, n)


@pytest.mark.parametrize("short", range(1, 12))
def test_public_products_with_a_short_operand(short):
    rng = random.Random(short)
    for bits in (1, 8, 64, 400):
        a = [rng.randint(-(2**bits), 2**bits) for _ in range(short)]
        b = [rng.randint(-(2**bits), 2**bits) for _ in range(40)]
        _both_products(a, b)
        _both_products(b, a)


@pytest.mark.parametrize("a, b", [
    ([5], [7]), ([-3], [0]), ([0], [4, 5]), ([2], [1, -1, 3]), ([0, 0], [0, 0]),
    ([0, 0, 0], [1, 2, 3]), ([1, 2, 0, 0], [3, 0, 0, 0]), ([0, 0, 9, 0, 0], [0, -4, 0]),
])
def test_public_products_of_edge_operands(a, b):
    # length-1 operands, all-zero operands and trailing zeros
    _both_products(a, b)
    _both_products(b, a)


@pytest.mark.parametrize("bits", [7, 8, 15, 16, 31, 32, 63, 64, 400])
def test_public_products_at_the_norm_bound(bits):
    # one nonzero coefficient per operand makes a coefficient of the
    # product equal the product of the l1 norms, 2^bits - 1: the slot must
    # hold all its bits and a sign bit
    m = 2**bits - 1
    pairs = [(m, 1), (1, m)]
    if bits % 2 == 0:
        pairs.append((2 ** (bits // 2) - 1, 2 ** (bits // 2) + 1))
    for x, y in pairs:
        for sx, sy in [(1, 1), (1, -1), (-1, -1)]:
            _both_products([sx * x, 0], [sy * y, 0])
            _both_products([sx * x, 0, 0], [0, 0, sy * y])
            _both_products([sx * x], [0, sy * y])


@pytest.mark.parametrize("w", [1, 2, 4, 8, 9])
def test_product_at_the_slot_width_boundaries(w):
    # a norm product of 2^(8w-1) - 1 takes w-byte slots and 2^(8w-1) the
    # next width; past 2^63 (w = 8) the product leaves the narrow path
    edge = 2 ** (8 * w - 1)
    assert series._slot_width(edge - 1) == w < series._slot_width(edge)
    half = 2 ** (4 * w - 2)
    root = math.isqrt(edge)  # root^2 < edge < (root + 1)^2
    for norm in (edge - 1, edge):
        cases = [
            ([0, -1, 0, 0, 0, 0], [norm - 3, -1, 0, 2, 0, 0]),  # -t * b
            ([-1, 0, 0, 0, 0, 0], [0, 0, -norm, 0, 0, 0]),  # a coefficient is the norm
        ]
        if norm == edge:  # two factors of two terms each, of norms 2^(4w) and 2^(4w-1)
            cases.append(([2 * half, -2 * half, 0, 0, 0, 0], [-half, 0, half, 0, 0, 0]))
        for a, b in cases:
            assert sum(map(abs, a)) * sum(map(abs, b)) == norm
            _both_products(a, b)
            _both_products(b, a)
    for r in (root, root + 1):  # squares just below and just above the edge
        f = TruncatedSeries((r - 2, 1, 0, -1, 0, 0))
        assert (sum(map(abs, f.coeffs)) ** 2 < edge) == (r == root)
        assert list((f * f).coeffs) == naive_product(f.coeffs, f.coeffs, 6)
    big = TruncatedSeries((edge, -edge, 0, 3, 0, 1))
    zero = TruncatedSeries.zero(5)
    assert big * zero == zero and zero * big == zero and zero * zero == zero
    with pytest.raises(ParameterError, match="order mismatch"):
        big * TruncatedSeries.zero(4)
    with pytest.raises(ParameterError, match="order mismatch"):
        TruncatedSeries.one(6) * big


def naive_product_sum(terms, size, factor):
    """Reference for shifted_product_sum: full products by convolution,
    shifted, summed, times factor, cut to size."""
    total = [0] * size
    for sign, shift, factors in terms:
        prod = [1]
        for f in factors:
            prod = naive_product(prod, f, len(prod) + len(f) - 1)
        for k, c in enumerate(prod):
            if shift + k < size:
                total[shift + k] += sign * c
    return naive_product(total, factor, size)


@st.composite
def polynomials(draw):
    """A signed polynomial of up to ~400-bit coefficients, a constant, a
    zero polynomial, or a bound-tight one: +-(2^b - 1) followed by zeros,
    whose one coefficient is its l1 norm and fills b bits."""
    bits = draw(st.sampled_from([1, 7, 8, 16, 63, 64, 400]))
    kind = draw(st.sampled_from(["signed", "constant", "zero", "tight", "unsigned64"]))
    length = 1 if kind == "constant" else draw(st.integers(1, 9))
    if kind == "zero":
        return (0,) * length
    if kind == "unsigned64":  # nonnegative, as a symmetric product at g = 32
        u64 = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([2**63, 2**64 - 1]))
        return tuple(draw(st.lists(u64, min_size=length, max_size=length)))
    if kind == "tight":
        m = draw(st.sampled_from([-1, 1])) * (2**bits - 1)
        return (m,) + (0,) * (length - 1)
    return tuple(draw(st.lists(st.integers(-(2**bits), 2**bits),
                               min_size=length, max_size=length)))


@st.composite
def term_factors(draw):
    """Up to three polynomials, sometimes with one drawn object given
    twice in a row, as a C1 term with m1 = m2 holds it."""
    factors = draw(st.lists(polynomials(), max_size=3))
    if factors and draw(st.booleans()):
        k = draw(st.integers(0, len(factors) - 1))
        factors.insert(k, factors[k])
    return factors


@st.composite
def product_sums(draw):
    size = draw(st.integers(0, 24))
    terms = draw(st.lists(st.tuples(st.sampled_from([-1, 1]), st.integers(0, size + 4),
                                    term_factors()),
                          max_size=5))
    factor = draw(st.one_of(st.just((1,)), polynomials()))
    return terms, size, factor


@settings(max_examples=200, deadline=None)
@given(product_sums())
@example(([(1, 3, ((1, 2, 3), (4, 5))), (-1, 0, ((1, 1),))], 4, (1,)))  # cut to a constant
@example(([(1, 0, ()), (-1, 1, ((3,),))], 5, (1, 2, 3)))  # monomials alone
# a monomial wider than the products, under 1 (a Gothen cover's shape)
@example(([(1, 0, ((1, 1), (1, 1))), (1, 2, ((1000,),))], 5, (1,)))
# two-factor products under a factor that widens the slots (a u21 C1 term)
@example(([(1, 0, ((1, 1), (1, 1)))], 5, (100, 100)))
def test_shifted_product_sum_matches_naive_convolution(case):
    terms, size, factor = case
    assert shifted_product_sum(terms, size, factor) == naive_product_sum(terms, size, factor)


@pytest.mark.parametrize("bits", [7, 8, 15, 16, 31, 32, 63, 64, 400])
def test_shifted_product_sum_at_the_norm_bound(bits):
    # a constant followed by zeros makes the l1 bound exact: the result is
    # the bound itself (a bare constant is a monomial, added after the unpack)
    m = 2**bits - 1
    for sign in (1, -1):
        for terms, factor in [([(sign, 0, ((m, 0),))], (1,)),
                              ([(sign, 1, ((m, 0), (1, 1)))], (1,)),
                              ([(sign, 0, ((1, 0),))], (m, 0)),
                              ([(sign, 0, ((m,),)), (1, 1, ((1, 0),))], (m, 0)),
                              ([(1, 0, ((m, 0),)), (sign, 0, ((m, 0),))], (1,)),
                              ([(1, 0, ((1, 0),)), (sign, 1, ((1, 0),))], (m, 0)),
                              ([(sign, 0, ((m,),))], (1,))]:
            assert shifted_product_sum(terms, 3, factor) == \
                naive_product_sum(terms, 3, factor)


def _cut_product_sum(terms, size, factor):
    """Reference for shifted_product_sum by schoolbook convolution, each
    product cut at size - shift as it grows."""
    total = [0] * size
    for sign, shift, factors in terms:
        prod = [1]
        for f in factors:
            prod = naive_product(prod, f, max(size - shift, 0))
        for k, c in enumerate(prod):
            total[shift + k] += sign * c
    return naive_product(total, factor, size)


def test_the_kernel_matches_a_schoolbook_convolution_past_genus_32():
    # from g = 33 on, P(S^m) holds coefficients of 2^64 and more, so its
    # packs go one slot at a time, a path the pinned outputs (g <= 32) do
    # not reach: seeded signed sums of products of symmetric products,
    # squares included, against the schoolbook product
    from higgsbetti.ingredients import sym_polynomial

    rng = random.Random(128)
    wide = 0
    for _ in range(32):
        g, size = rng.randint(33, 128), rng.randint(50, 200)

        def sym():
            return sym_polynomial(rng.randint(0, size // 2 + 8), g)

        terms = []
        for _ in range(rng.randint(1, 4)):
            factors = [sym() for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.5:
                factors.insert(0, factors[0])  # the same object twice: a square
            wide += sum(max(f) >= 2**64 for f in factors)
            terms.append((rng.choice((-1, 1)), rng.randint(0, size // 4), tuple(factors)))
        factor = rng.choice(((1,), sym()))
        assert shifted_product_sum(terms, size, factor) == \
            _cut_product_sum(terms, size, factor), (g, size)
        a, b = (S(sym(), size - 1) - S(sym(), size - 1).shifted(rng.randint(1, 9))
                for _ in range(2))
        for x, y in ((a, b), (a, a)):
            assert list((x * y).coeffs) == naive_product(x.coeffs, y.coeffs, size), (g, size)
    assert wide >= 32


def _round_trip(c, w):
    packed = _pack(c, w)
    assert packed == sum(x << (8 * w * k) for k, x in enumerate(c))
    assert _unpack(packed, w, len(c)) == c


@pytest.mark.parametrize("w", [1, 2, 4, 8, 9, 17, 18, 25])
def test_pack_round_trips_the_ends_of_a_slot(w):
    # a slot of w bytes holds -2^(8w-1) .. 2^(8w-1) - 1
    top = 2 ** (8 * w - 1)
    _round_trip([top - 1, -(top - 1), -top, 0, -top, top - 1], w)


@pytest.mark.parametrize("w", [9, 17, 18, 25])
def test_wide_slots_take_one_struct_call_only_for_coefficients_that_fit_it(w, monkeypatch):
    # wider slots spread the chunks of one unsigned 8-byte struct call;
    # anything negative or from 2^64 on goes slot by slot
    spread = []
    monkeypatch.setattr(series, "_spread", lambda raw, w: spread.append(w) or _spread(raw, w))
    for c, struct_path in [([0, 2**63, 2**64 - 1, 1, 0], True),
                           ([2**64 - 1] * 3, True),
                           ([-(2**63), 2**63 - 1, -1, 0], False),
                           ([-1], False),
                           ([0, 2**64, 1], False),
                           ([-1, 2**63], False),
                           ([-(2**63) - 1, 5], False),
                           ([-(2**70), 2**70, 3], False)]:
        spread.clear()
        _round_trip(c, w)
        assert spread == ([w] if struct_path else []), c


@pytest.mark.parametrize("w", [1, 2, 4, 8, 9, 17, 18, 25])
def test_pack_refuses_a_coefficient_beyond_its_slot(w):
    top = 2 ** (8 * w - 1)
    for c in ([top], [0, top, 1], [-top - 1], [2**64 - 1, top], [-1, -top - 1]):
        with pytest.raises((struct.error, OverflowError)):
            _pack(c, w)


def test_the_slot_layout_cache_is_bounded():
    info = series._layout.cache_info()
    assert 0 < info.maxsize < float("inf")
    for n in range(1, info.maxsize + 40):  # more (width, length) layouts than it keeps
        _pack([n] * n, 18)
        _pack([n] * n, 2)
    assert series._layout.cache_info().currsize == info.maxsize
    # a wide layout keeps one compiled struct, no offsets of w*n bytes
    assert isinstance(series._layout(18, 4000), struct.Struct)


def _square_cases():
    rng = random.Random(24)
    for bits in (8, 63, 64, 400):
        f = tuple(rng.randint(0, 2**bits - 1) for _ in range(30))
        yield f
        yield tuple(c if k % 3 else -c for k, c in enumerate(f))


@pytest.mark.parametrize("f", list(_square_cases()))
def test_a_term_holding_one_factor_twice_is_its_square(f):
    # the same object twice is packed once and squared; the cut (size -
    # shift coefficients) is sometimes shorter than the factor
    copy = tuple(list(f))
    assert copy is not f
    for size, shift in [(59, 0), (40, 0), (45, 7), (12, 2), (1, 0)]:
        want = naive_product_sum([(1, shift, (f, copy))], size, (1,))
        assert shifted_product_sum([(1, shift, (f, f))], size) == want
        assert shifted_product_sum([(1, shift, (f, copy))], size) == want
        mixed = [(1, shift, (f, f)), (-1, 0, (f, f, copy)), (1, 1, ((3, 1), f, f))]
        assert shifted_product_sum(mixed, size, (2, -1)) == \
            naive_product_sum(mixed, size, (2, -1))
    a = TruncatedSeries(f)
    assert list((a * a).coeffs) == naive_product(f, copy, len(f))


def naive_expansion(numerator, exponents, terms, order):
    """Reference for RationalExpr.expand: the numerator times the
    convolved entries, times one geometric series per denominator factor."""
    out = TruncatedSeries(tuple(naive_product_sum(terms, order + 1, numerator)))
    for a in exponents:
        out = out * geometric_inverse(a, order)
    return out


@settings(max_examples=200, deadline=None)
@given(product_sums(), st.lists(st.integers(1, 5), max_size=3))
@example(([(1, 0, ())], 6, (1,)), [2])  # an empty-factor entry: 1/(1-t^2)
@example(([(-1, 2, ((3,), (5,)))], 6, (1, 1)), [2, 4])  # a monomial entry
@example(([(1, 0, ((1, 2),)), (1, 1, ((0, 0), (1,)))], 5, (2, -1)), [1])  # zero factor
@example(([(1, 9, ((1, 1),)), (-1, 1, ((1, 1),))], 6, (3,)), [3])  # shift past the order
@example(([(1, 0, ((1, 2, 3),)), (1, 2, ((7,),))], 8, (4, 0, -2)), [])  # non-unit numerator
def test_rational_expand_matches_naive_oracle(case, exponents):
    terms, size, numerator = case
    order = max(size - 1, 0)
    assert RationalExpr(numerator, exponents).expand(order, terms) == \
        naive_expansion(numerator, exponents, terms, order)


def test_product_of_zero_series():
    z = TruncatedSeries.zero(40)
    f = TruncatedSeries.from_coeffs(range(1, 42))
    assert z * f == z and f * z == z and z * z == z
    assert TruncatedSeries.zero(0) * TruncatedSeries.one(0) == TruncatedSeries.zero(0)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=120).flatmap(lambda n: padded_coeffs(n + 1)))
def test_division_by_one_minus_t_a_matches_geometric_inverse(cs):
    f = TruncatedSeries(tuple(cs))
    order = f.order
    for a in range(1, 7):
        assert f.over_one_minus(a) == f * geometric_inverse(a, order)
    assert f.over_one_minus(2, 2, 4) == (
        f * geometric_inverse(2, order) * geometric_inverse(2, order)
        * geometric_inverse(4, order))
    expr = RationalExpr(tuple(cs), (1, 3))
    assert expr.expand(order) == (
        f * geometric_inverse(1, order) * geometric_inverse(3, order))


def _exact(f):
    return type(f.coeffs) is tuple and all(type(c) is int for c in f.coeffs)


def test_internal_results_hold_exact_ints(tmp_path):
    f = S([3, -1, 0, 2] + [5] * 30)
    g = S([1, 1] + [-7] * 32)
    results = [
        f + g, f - g, -f, f * g, f * 3, 3 * f, f.scale(-2), f.shifted(4),
        f.shifted(40), f.truncated(5), f.over_one_minus(2, 3),
        TruncatedSeries.zero(5), TruncatedSeries.one(5),
        TruncatedSeries.monomial(3, 5, 7), RationalExpr((1, 2), (2,)).expand(9),
        RationalExpr(("4", 1), (2,)).expand(9),
        _json_series(tmp_path, 2, ["1", 2, "-3"]),
    ]
    assert all(_exact(r) for r in results)
    assert all(type(c) is int for c in polynomial_product([1, 2], [3, 4]))


@pytest.mark.parametrize("bad", [1.5, 2.0, True, "2", None])
def test_scalars_must_be_ints(bad):
    f = S([1, 2, 3])
    with pytest.raises(ParameterError):
        f.scale(bad)
    with pytest.raises(ParameterError):
        TruncatedSeries.monomial(1, 3, bad)


def test_bool_factor_is_rejected():
    with pytest.raises(ParameterError):
        S([1, 2]) * True


@pytest.mark.parametrize(
    "bad", [1.7, 1.0, True, False, "1.7", "1e3", " 1", "", None, [1]])
def test_json_series_rejects_non_integer_coefficients(tmp_path, bad):
    with pytest.raises(ProviderFileError):
        _json_series(tmp_path, 1, ["1", bad])


@pytest.mark.parametrize("order", [1.0, True, "1.0"])
def test_json_series_rejects_non_integer_order(tmp_path, order):
    with pytest.raises(ProviderFileError):
        _json_series(tmp_path, order, [1, 2])


def test_json_series_rejects_string_coefficients_payload(tmp_path):
    with pytest.raises(ProviderFileError):
        _json_series(tmp_path, 1, "12")


@pytest.mark.parametrize("numerator, exponents", [
    ((1, 1.5), (2,)), ((1, True), (2,)), ((1.0,), ()), ((1,), (2.0,)), ((1,), (True,)),
])
def test_rational_expr_rejects_non_integer_input(numerator, exponents):
    with pytest.raises(ParameterError):
        RationalExpr(numerator, exponents)


@pytest.mark.parametrize("key, value", [
    ("g", 2.0), ("order", True), ("e", "1.0"), ("moduli_min", "123"),
])
def test_provider_file_rejects_non_integer_fields(tmp_path, key, value):
    record = maximal_provider_record(2, 24)
    record[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(record))
    with pytest.raises(ProviderFileError):
        provider_from_file(path)


@pytest.mark.parametrize("spoil", [
    lambda cs: [int(c) + 0.4 for c in cs],  # int() would truncate these silently
    lambda cs: cs[:3] + [True] + cs[4:],
])
def test_provider_file_with_float_or_bool_coefficients_fails(tmp_path, capsys, spoil):
    record = maximal_provider_record(2, 24)
    record["pairs_equivariant"] = None
    record["moduli_min"] = spoil(record["moduli_min"])
    path = tmp_path / "spoiled.json"
    path.write_text(json.dumps(record))
    with pytest.raises(ProviderFileError):
        provider_from_file(path)
    code = main(["compute", "--group", "u21", "--genus", "2", "--d1", "2",
                 "--d2", "1", "--provider", f"file:{path}", "--order", "20"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
