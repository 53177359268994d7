from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from higgsbetti.errors import ParameterError
from higgsbetti.params import (
    HalfInt,
    canonicalize,
    delta_set,
    gamma3_trivial,
    index_bounds,
    kirwan_su_surjective,
    make_params,
    region_of,
    s_tau,
    torelli_trivial,
    valid_points,
)


def H(n):
    return HalfInt.from_int(n)


def test_make_params_examples():
    p = make_params(2, 2, 1)
    assert (p.tau, p.e, p.sigma, p.sigma_min, p.mod3_class) == (
        2, 1, 1, Fraction(3, 4), 0)
    assert p.valid

    p = make_params(2, 0, 0)
    assert (p.tau, p.e, p.sigma, p.mod3_class) == (0, 4, 2, 0)

    p = make_params(2, 3, 0)
    assert p.tau == 4 and not p.valid

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
    bounds = index_bounds(make_params(g, d1, d2))
    assert bounds.half_d2 == Fraction(d2, 2).__floor__()
    assert bounds.c2_low == Fraction(2 * d2 - d1, 3).__floor__()
    assert bounds.c1_low == Fraction(d1 + d2, 3).__floor__()
    assert bounds.c1_top == d2 - d1 + 2 * g - 2


def test_canonicalize():
    p, transforms = canonicalize(make_params(2, 0, 3))
    assert p.tau == 2 and transforms == [{"op": "dualize", "d1": 0, "d2": -3}]

    shifted = make_params(2, 2, 1).tensor_shift(1)
    assert (shifted.d1, shifted.d2, shifted.tau) == (3, 3, 2)

    p, transforms = canonicalize(make_params(3, 1, 2))
    assert p.tau == 0 and transforms == []


def test_delta_set_examples():
    p = make_params(2, 2, 1)
    assert delta_set(p, H(3)) == [HalfInt(1), H(1), H(2), H(3)]
    p = make_params(2, 2, 2)
    assert delta_set(p, H(3)) == [H(1), H(2), H(3)]
    p = make_params(2, 0, 0)
    assert delta_set(p, H(2)) == [H(0), H(1), H(2)]


def test_region_examples():
    p = make_params(2, 2, 1)
    assert region_of(p, H(1)) == "II"
    assert region_of(p, H(3)) == "III"
    assert region_of(make_params(2, 0, 0), H(1)) == "I"
    # the half-integer member sits in region II when tau > 0
    assert region_of(p, HalfInt(1)) == "II"
    with pytest.raises(ParameterError):
        region_of(p, H(-5))


def test_region_partition():
    # each index set member lands in exactly one region (or none)
    for g in (2, 3):
        for d1 in range(0, 2 * g + 1):
            for d2 in range(2 * d1 - (3 * g - 3), 2 * d1 + 1):
                p = make_params(g, d1, d2)
                if not p.valid:
                    continue
                for k in delta_set(p, H(d1 + 2 * g + 2)):
                    assert region_of(p, k) in {"I", "II", "III", "none"}


def test_s_tau_examples():
    assert s_tau(2, 2) == {}
    assert s_tau(2, 0) == {8: (1, 1), 10: (0, 0)}
    assert s_tau(4, 4) == {24: (0, 6)}
    with pytest.raises(ParameterError):
        s_tau(3, 1)


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


def test_gamma3_matches_empty_index_set():
    for g in range(2, 7):
        for tau in range(0, 2 * g - 1, 2):
            assert gamma3_trivial(g, tau) == (not s_tau(g, tau))


def test_shift_covariance_of_delta_and_regions():
    p = make_params(2, 2, 1)
    q = p.tensor_shift(3)
    lm = H(6)
    shifted = [ell.shifted(3) for ell in delta_set(p, lm)]
    assert shifted == delta_set(q, lm.shifted(3))
    for ell in delta_set(p, lm):
        assert region_of(p, ell) == region_of(q, ell.shifted(3))


def test_delta_set_properties():
    for g in (2, 3):
        for d1 in range(0, 2 * g + 1):
            for d2 in range(2 * d1 - (3 * g - 3), 2 * d1 + 1):
                p = make_params(g, d1, d2)
                if not p.valid:
                    continue
                lm = H(d1 + 2 * g)
                members = delta_set(p, lm)
                assert members == sorted(set(members))
                assert all(ell <= lm for ell in members)
                assert HalfInt(d2) in members
                for ell in members:
                    if not ell.is_integer:
                        assert ell == HalfInt(d2)


def test_region_matches_kind_ranges():
    from fractions import Fraction as F

    for g in (2, 3):
        for d1 in range(0, 2 * g + 1):
            for d2 in range(2 * d1 - (3 * g - 3), 2 * d1 + 1):
                p = make_params(g, d1, d2)
                if not p.valid:
                    continue
                c1_top = d2 - d1 + 2 * g - 2
                for ell in delta_set(p, H(d1 + 2 * g + 2)):
                    region = region_of(p, ell)
                    v = ell.value
                    if F(d1 + d2, 3) < v <= c1_top:
                        assert region == "I"
                    if v > max(d1, c1_top):
                        assert region == "III"


def test_halfint_behaviour():
    assert str(HalfInt(3)) == "3/2"
    assert str(HalfInt(4)) == "2"
    assert HalfInt(4).as_int() == 2
    with pytest.raises(ParameterError):
        HalfInt(3).as_int()
    assert HalfInt.from_fraction(Fraction(5, 2)) == HalfInt(5)
    with pytest.raises(ParameterError):
        HalfInt.from_fraction(Fraction(1, 3))


@pytest.mark.parametrize("g", [2, 3, 4])
def test_valid_points_against_brute_force(g):
    want = [(d1, d2) for d1 in range(0, 2 * g + 1)
            for d2 in range(-12 * g, 12 * g + 1)
            if abs(Fraction(2 * (2 * d1 - d2), 3)) <= 2 * g - 2
            and 2 * d1 - d2 >= 0]
    got = [(p.d1, p.d2) for p in valid_points(g)]
    assert got == want
    assert all(p.g == g and p.valid and p.tau >= 0 for p in valid_points(g))
