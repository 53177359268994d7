import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from higgsbetti.errors import ParameterError, RangeViolationError
from higgsbetti.params import (
    ModuliParams,
    canonicalize,
    delta_set,
    gamma3_trivial,
    h01_s_star_q,
    kind_indices,
    kind_range,
    kirwan_su_surjective,
    make_params,
    region_of,
    s_tau,
    sym_exponent,
    torelli_trivial,
    valid_points,
)


def test_make_params_examples():
    p = make_params(2, 2, 1)
    assert (p.tau, p.e, p.sigma, p.sigma_min, p.mod3_class) == (
        2, 1, 1, Fraction(3, 4), 0)
    assert p.valid

    p = make_params(2, 0, 0)
    assert (p.tau, p.e, p.sigma, p.mod3_class) == (0, 4, 2, 0)

    p = make_params(2, 3, 0)
    assert p.tau == 4 and not p.valid
    # a copy with other degrees reads its invariants from them
    p = dataclasses.replace(make_params(2, 0, 0), d1=3, d2=0)
    assert p == make_params(2, 3, 0) and p.tau == 4 and not p.valid
    p = make_params(3, 2, 1)._replace(d1=4, d2=5)
    assert p == make_params(3, 2, 1).tensor_shift(2)
    assert p.describe() == make_params(3, 4, 5).describe()
    assert ModuliParams._fields == ("g", "d1", "d2")

    with pytest.raises(ParameterError):
        make_params(1, 0, 0)


def test_sigma_identity_everywhere():
    for g in (2, 3, 4):
        for d1 in range(-3, 7):
            for d2 in range(-5, 9):
                p = make_params(g, d1, d2)
                assert p.sigma == Fraction(p.e + 2 * g - 2, 3)
                assert p.sigma_min == Fraction(p.e, 2) + Fraction(1, 4)


@given(st.integers(2, 200), st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_invariants_equal_the_paper_expressions(g, d1, d2):
    p = make_params(g, d1, d2)
    tau = Fraction(2, 3) * (2 * d1 - d2)
    assert p.tau == tau and p.valid == (abs(tau) <= 2 * g - 2)
    assert p.e == d2 - 2 * d1 + 4 * g - 4
    assert p.sigma == 2 * g - 2 + Fraction(d2 - 2 * d1, 3)
    assert p.sigma_min == 2 * g - 2 - d1 + Fraction(d2, 2) + Fraction(1, 4)
    # the identities make_params used to assert on every call
    assert p.sigma == Fraction(p.e + 2 * g - 2, 3)
    assert p.sigma_min == Fraction(p.e, 2) + Fraction(1, 4)
    assert all(type(x) is Fraction for x in (p.tau, p.sigma, p.sigma_min))
    assert type(p.e) is int


@given(st.integers(2, 50), st.integers(-10**4, 10**4), st.integers(-10**4, 10**4))
def test_index_bounds_are_the_floors_of_the_endpoints(g, d1, d2):
    # the integer index bounds are the floors of kind_range's Fraction ends,
    # and kind_indices starts at the first integer above each of them
    p = make_params(g, d1, d2)
    ends = {"B1": Fraction(d2, 2), "C2": Fraction(2 * d2 - d1, 3),
            "C1": Fraction(d1 + d2, 3)}
    for kind, lower in ends.items():
        assert kind_range(p, kind).lower == lower
        assert kind_indices(p, kind, lower.__floor__() + 1).start == lower.__floor__() + 1
    assert kind_range(p, "C1").upper == d2 - d1 + 2 * g - 2


def test_canonicalize():
    p, transforms = canonicalize(make_params(2, 0, 3))
    assert p.tau == 2 and transforms == [{"op": "dualize", "d1": 0, "d2": -3}]

    shifted = make_params(2, 2, 1).tensor_shift(1)
    assert (shifted.d1, shifted.d2, shifted.tau) == (3, 3, 2)

    p, transforms = canonicalize(make_params(3, 1, 2))
    assert p.tau == 0 and transforms == []


def test_delta_set_examples():
    p = make_params(2, 2, 1)
    assert delta_set(p, 3) == [Fraction(1, 2), 1, 2, 3]
    p = make_params(2, 2, 2)
    assert delta_set(p, 3) == [1, 2, 3]
    p = make_params(2, 0, 0)
    assert delta_set(p, 2) == [0, 1, 2]
    # a half-integer or rational bound keeps the indices at most it
    assert delta_set(p, Fraction(5, 2)) == delta_set(p, Fraction(7, 3)) == [0, 1, 2]


def test_region_examples():
    p = make_params(2, 2, 1)
    assert region_of(p, 1) == "II"
    assert region_of(p, 3) == "III"
    assert region_of(make_params(2, 0, 0), 1) == "I"
    # the half-integer member sits in region II when tau > 0
    assert region_of(p, Fraction(1, 2)) == "II"
    with pytest.raises(ParameterError):
        region_of(p, -5)


def test_region_of_refuses_an_index_that_is_no_half_integer():
    with pytest.raises(ParameterError, match="l = 1/3 is not in the index set"):
        region_of(make_params(2, 2, 1), Fraction(1, 3))


def test_region_partition():
    # each index set member lands in exactly one region (or none)
    for g in (2, 3):
        for p in valid_points(g):
            for k in delta_set(p, p.d1 + 2 * g + 2):
                assert region_of(p, k) in {"I", "II", "III", "none"}


def test_region_of_refuses_exactly_the_non_members():
    # region_of decides membership without building delta_set; it must
    # accept exactly the members, half-integers and points below too
    for g in (2, 3):
        for p in valid_points(g):
            for doubled in range(2 * p.d2 - 8, 2 * (p.d1 + 2 * g + 2)):
                k = Fraction(doubled, 2)
                if k in delta_set(p, k):
                    assert region_of(p, k) in {"I", "II", "III", "none"}
                else:
                    with pytest.raises(ParameterError, match="not in the index set"):
                        region_of(p, k)


def test_s_tau_examples():
    assert s_tau(2, 2) == {}
    assert s_tau(2, 0) == {8: (1, 1), 10: (0, 0)}
    assert s_tau(4, 4) == {24: (0, 6)}
    for g, tau in ((3, 1), (3, -2)):  # odd, negative
        with pytest.raises(ParameterError):
            s_tau(g, tau)


def test_s_tau_member_congruences():
    for g in range(2, 7):
        for tau in range(0, 2 * g - 1, 2):
            for _, (m1, m2) in s_tau(g, tau).items():
                assert m2 - m1 == 3 * tau // 2
                assert (m1 - m2) % 3 == 0


def test_predicates():
    assert kirwan_su_surjective(2, 2)
    assert not kirwan_su_surjective(4, 4)  # boundary, g = 1 mod 3
    assert not kirwan_su_surjective(3, 0)
    assert torelli_trivial(4, 4) and not gamma3_trivial(4, 4)
    assert not torelli_trivial(2, 0) and not gamma3_trivial(2, 0)
    assert torelli_trivial(2, 2) and gamma3_trivial(2, 2)
    # a Fraction tau on the boundary |tau| = 4(g-1)/3 is decided exactly
    assert torelli_trivial(2, Fraction(-4, 3)) and not kirwan_su_surjective(2, Fraction(4, 3))
    assert not torelli_trivial(2, Fraction(4, 3) - Fraction(1, 10**30))


def test_gamma3_matches_empty_index_set():
    for g in range(2, 7):
        for tau in range(0, 2 * g - 1, 2):
            assert gamma3_trivial(g, tau) == (not s_tau(g, tau))


def test_shift_covariance_of_delta_and_regions():
    p = make_params(2, 2, 1)
    q = p.tensor_shift(3)
    lm = 6
    shifted = [ell + 3 for ell in delta_set(p, lm)]
    assert shifted == delta_set(q, lm + 3)
    for ell in delta_set(p, lm):
        assert region_of(p, ell) == region_of(q, ell + 3)


def test_delta_set_properties():
    for g in (2, 3):
        for p in valid_points(g):
            d1, d2 = p.d1, p.d2
            lm = d1 + 2 * g
            members = delta_set(p, lm)
            assert members == sorted(set(members))
            assert all(ell <= lm for ell in members)
            assert Fraction(d2, 2) in members
            for ell in members:
                if ell != int(ell):
                    assert ell == Fraction(d2, 2)


def test_region_matches_kind_ranges():
    from fractions import Fraction as F

    for g in (2, 3):
        for p in valid_points(g):
            d1, d2 = p.d1, p.d2
            c1_top = d2 - d1 + 2 * g - 2
            for ell in delta_set(p, d1 + 2 * g + 2):
                region = region_of(p, ell)
                if F(d1 + d2, 3) < ell <= c1_top:
                    assert region == "I"
                if ell > max(d1, c1_top):
                    assert region == "III"


@pytest.mark.parametrize("g", [2, 3, 4])
def test_valid_points_against_brute_force(g):
    want = [(d1, d2) for d1 in range(0, 2 * g + 1)
            for d2 in range(-12 * g, 12 * g + 1)
            if abs(Fraction(2 * (2 * d1 - d2), 3)) <= 2 * g - 2
            and 2 * d1 - d2 >= 0]
    got = [(p.d1, p.d2) for p in valid_points(g)]
    assert got == want
    assert all(p.g == g and p.valid and p.tau >= 0 for p in valid_points(g))


@pytest.mark.parametrize("g", [2, 3])
def test_kind_ranges_hold_the_ends_of_the_index_bounds(g):
    from math import floor

    for p in valid_points(g):
        d1, d2 = p.d1, p.d2
        c1 = kind_range(p, "C1")
        assert (floor(kind_range(p, "B1").lower), floor(kind_range(p, "C2").lower),
                floor(c1.lower), c1.upper) == (
            floor(Fraction(d2, 2)), floor(Fraction(2 * d2 - d1, 3)),
            floor(Fraction(d1 + d2, 3)), d2 - d1 + 2 * g - 2)
        assert kind_range(p, "C3") == (p.d1, p.d1 + 2 * g - 2, True)
        assert kind_range(p, "B3") == (p.d1, None, False)
    with pytest.raises(ParameterError, match="no index range"):
        kind_range(p, "A")


def _in_kind(p, kind, l):
    """l lies in the kind's range, read off kind_range's Fraction ends."""
    if kind == "B2":
        return l == p.d1 > Fraction(p.d2, 2)
    lower, upper, closed = kind_range(p, kind)
    return lower < l and (upper is None or l < upper or (closed and l == upper))


@given(st.integers(2, 50), st.integers(-10**4, 10**4), st.integers(-10**4, 10**4),
       st.sampled_from(["B1", "B2", "B3", "C1", "C2", "C3"]), st.integers(-3, 40))
def test_kind_indices_are_the_integers_of_kind_range(g, d1, d2, kind, reach):
    p = make_params(g, d1, d2)
    # no member lies below the first integer above the lower end
    first = d1 if kind == "B2" else kind_range(p, kind).lower.__floor__() + 1
    top = first + reach
    assert list(kind_indices(p, kind, top)) == [
        l for l in range(first - 3, top + 1) if _in_kind(p, kind, l)]
    with pytest.raises(ParameterError, match="no index range"):
        kind_indices(p, "A", top)


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_exponents_reach_zero_at_the_closed_range_ends(g):
    # the ranges (_kind_ends) and the exponents are written apart: the C1
    # and C3 ranges end where S^m X does, at m = 0, and C2's S^m X ends at
    # l = d1 - 2g + 2
    for p in valid_points(g):
        for kind in ("C1", "C3"):
            upper = kind_range(p, kind).upper
            assert sym_exponent(p, kind, upper) == 0, (p, kind)
            with pytest.raises(RangeViolationError, match=f"exponent -1 for {kind}@"):
                sym_exponent(p, kind, upper + 1)
        assert sym_exponent(p, "C2", p.d1 - 2 * g + 2) == 0
        with pytest.raises(RangeViolationError, match="exponent -1 for C2@"):
            sym_exponent(p, "C2", p.d1 - 2 * g + 1)


@pytest.mark.parametrize("g", [2, 3, 4, 5, 8])
def test_a_c1_index_has_exponents_below_its_shift(g):
    # at tau >= 0 the C1 exponents m1 (C1) and m2 (C3) at an index l lie
    # below its Morse shift s = 2 h^{0,1}(S*Q), so no index the C1 sum
    # reaches at an order holds an exponent past that order
    for p in valid_points(g):
        for l in kind_indices(p, "C1"):
            s = 2 * h01_s_star_q(p, l)
            assert max(sym_exponent(p, "C1", l), sym_exponent(p, "C3", l)) < s, (p, l)


@pytest.mark.parametrize("kind", ["A", "B1", "B2", "B3", "c1", "C4", ""])
def test_a_kind_without_an_exponent_is_refused(kind):
    # only C1, C2 and C3 have a symmetric-product exponent; any other kind
    # is refused by name, never read as one of them
    p = make_params(3, 1, 0)
    with pytest.raises(ParameterError, match="no symmetric-product exponent"):
        sym_exponent(p, kind, 1)
