import re
from fractions import Fraction

import pytest

from higgsbetti.assemble import u21_stratum_route
from higgsbetti.errors import ParameterError, UnspecifiedDimensionError
from higgsbetti.ingredients import (
    ab_semistable_rank2,
    jacobian_poincare,
    sym_poincare,
)
from higgsbetti.params import make_params, valid_points
from higgsbetti.series import geometric_inverse
from higgsbetti.strata import (
    KINDS,
    StratumDescriptor,
    admits,
    critical_set_key,
    critical_set_poincare,
    enumerate_critical,
    kind_range_description,
    negative_dim,
    table_note,
)


def _names(descriptors):
    return [str(s) for s in descriptors]


def test_enumerate_example_1():
    p = make_params(2, 2, 1)
    got = _names(enumerate_critical(p, 4))
    assert got == ["A@1/2", "B1@1", "C2@1", "B2@2",
                   "B3@3", "C3@3", "B3@4", "C3@4"]


def test_enumerate_example_2():
    p = make_params(2, 0, 0)
    got = _names(enumerate_critical(p, 2))
    assert got == ["A@0", "B3@1", "C1@1", "C3@1", "B3@2", "C1@2", "C3@2"]


def test_enumerate_below_all_ranges():
    p = make_params(2, 2, 1)
    assert enumerate_critical(p, 0) == []
    assert _names(enumerate_critical(p, Fraction(1, 2))) == ["A@1/2"]


def test_b_kinds_partition_integers_above_half_d2():
    for g in (2, 3):
        for p in valid_points(g):
            d1, d2 = p.d1, p.d2
            for l in range(d2 // 2 - 2, d1 + 2 * g + 3):
                hits = [k for k in ("B1", "B2", "B3") if admits(k, p, l)]
                expected = 1 if 2 * l > d2 else 0
                assert len(hits) == expected, (g, d1, d2, l, hits)


def test_enumeration_is_complete():
    # every (kind, l) admitted below l_max appears exactly once
    for g in (2, 3):
        for (d1, d2) in [(0, 0), (2, 1), (2, 2), (2 * g, 2 * g), (1, 2)]:
            p = make_params(g, d1, d2)
            if not p.valid:
                continue
            lm = d1 + 2 * g
            listed = {(s.kind, s.ell) for s in enumerate_critical(p, lm)}
            assert len(listed) == len(enumerate_critical(p, lm))
            for kind in KINDS:
                for doubled in range(-6, 2 * (d1 + 2 * g) + 1):
                    ell = Fraction(doubled, 2)
                    if ell <= lm and admits(kind, p, ell):
                        assert (kind, ell) in listed, (g, d1, d2, kind, str(ell))


def _table_admits(kind, p, l):
    """The module docstring's table, in Fractions; l is a Fraction."""
    g, d1, d2 = p.g, p.d1, p.d2
    if kind == "A":
        return l == Fraction(d2, 2)
    if l.denominator != 1:
        return False
    return {
        "B1": Fraction(d2, 2) < l < d1,
        "B2": l == d1 > Fraction(d2, 2),
        "B3": d1 < l,
        "C1": Fraction(d1 + d2, 3) < l <= d2 - d1 + 2 * g - 2,
        "C2": Fraction(2 * d2 - d1, 3) < l < d1,
        "C3": d1 < l <= d1 + 2 * g - 2,
    }[kind]


@pytest.mark.parametrize("g", [2, 3, 4])
def test_admits_and_enumeration_follow_the_table(g):
    for q in valid_points(g):
        for p in (q, q.dual()):
            low, high = 2 * min(p.d1, p.d2 // 2) - 6, 2 * (p.d1 + 2 * g) + 2
            for doubled in range(low, high + 1):
                l = Fraction(doubled, 2)
                table = [k for k in KINDS if _table_admits(k, p, l)]
                assert [k for k in KINDS if admits(k, p, l)] == table, (p, doubled)
            for top in range(low, high + 1, 3):  # integer and half-integer l_max
                expected = sorted((Fraction(doubled, 2), i)
                                  for doubled in range(low, top + 1)
                                  for i, k in enumerate(KINDS)
                                  if _table_admits(k, p, Fraction(doubled, 2)))
                got = [(s.ell, KINDS.index(s.kind))
                       for s in enumerate_critical(p, Fraction(top, 2))]
                assert got == expected, (p, top)


def test_descriptor_range_validation():
    p = make_params(2, 2, 1)
    with pytest.raises(ParameterError):
        StratumDescriptor("C1", 1, p)  # C1 range empty here
    with pytest.raises(ParameterError):
        StratumDescriptor("B1", Fraction(1, 2), p)  # not an integer


# B1 and C2 hold the rational 3/2 in their ranges at this point
HALF_INTEGER_POINT = make_params(2, 2, 1)


def test_an_a_index_other_than_half_d2_is_refused():
    with pytest.raises(ParameterError, match="outside the A range"):
        StratumDescriptor("A", Fraction(1, 3), HALF_INTEGER_POINT)


@pytest.mark.parametrize("kind", KINDS[1:])
def test_a_half_integer_index_is_refused_for_an_integer_kind(kind):
    with pytest.raises(ParameterError, match=f"l = 3/2 is outside the {kind} range"):
        StratumDescriptor(kind, Fraction(3, 2), HALF_INTEGER_POINT)


def test_a_descriptor_stores_an_int_index_and_d2_over_2_for_a():
    p = HALF_INTEGER_POINT
    assert type(StratumDescriptor("B2", Fraction(2), p).ell) is int
    assert StratumDescriptor("A", Fraction(1, 2), p).ell == Fraction(1, 2)
    assert type(StratumDescriptor("A", 0, make_params(2, 0, 0)).ell) is Fraction
    for s in enumerate_critical(p, 4):
        assert type(s.ell) is (Fraction if s.kind == "A" else int)


def test_a_rational_lmax_enumerates_the_indices_at_most_it():
    p = HALF_INTEGER_POINT
    assert enumerate_critical(p, Fraction(7, 3)) == enumerate_critical(p, 2)
    assert enumerate_critical(p, Fraction(1, 3)) == enumerate_critical(p, 0) == []


@pytest.mark.parametrize("point, description", [
    ((2, 0, 3), "l = d1 = 0 (empty: tau < 0)"),  # tau = -2
    ((3, -1, 0), "l = d1 = -1 (empty: tau < 0)"),  # tau = -4/3
    ((2, 0, 0), "l = d1 = 0 (empty: tau = 0)"),
    ((2, 2, 1), "l = d1 = 2"),  # tau = 2
])
def test_b2_range_names_why_it_is_empty(point, description):
    assert kind_range_description("B2", make_params(*point)) == description


def test_critical_set_series_examples():
    order = 12
    p = make_params(2, 2, 1)
    jac = jacobian_poincare(2, order)
    geo2 = geometric_inverse(2, order)

    b1 = critical_set_poincare(StratumDescriptor("B1", 1, p), order)
    assert b1 == jac * jac * jac * geo2 * geo2 * geo2

    c3 = critical_set_poincare(StratumDescriptor("C3", 3, p), order)
    assert c3 == jac * jac * sym_poincare(1, 2, order) * geo2 * geo2

    a = critical_set_poincare(StratumDescriptor("A", Fraction(1, 2), p), order)
    assert a == jac * ab_semistable_rank2(1, 2, order) * geo2 * geo2

    q = make_params(2, 0, 0)
    c1 = critical_set_poincare(StratumDescriptor("C1", 1, q), order)
    # corrected exponent d2 - l - d1 + 2g - 2 = 1
    assert c1 == jac * jac * sym_poincare(1, 2, order) * geo2 * geo2
    assert table_note("C1")


def test_critical_set_series_nonnegative_and_shift_invariant():
    order = 16
    for (g, d1, d2) in [(2, 2, 1), (2, 0, 0), (3, 4, 2), (3, 1, 2)]:
        p = make_params(g, d1, d2)
        for s in enumerate_critical(p, d1 + 2 * g - 2):
            val = critical_set_poincare(s, order)
            assert val.is_nonnegative()
            q = p.tensor_shift(2)
            moved = StratumDescriptor(s.kind, s.ell + 2, q)
            assert critical_set_poincare(moved, order) == val


def test_negative_dim_examples():
    p = make_params(2, 2, 1)
    b1 = StratumDescriptor("B1", 1, p)
    assert negative_dim(b1)["nonzero_fiber_dim"] == 1

    c2 = StratumDescriptor("C2", 1, p)
    assert negative_dim(c2)["dim"] == 2

    q = make_params(3, 3, 0)
    c2b = StratumDescriptor("C2", 2, q)
    assert negative_dim(c2b)["dim"] == 6

    # h^{0,1}(S*Q) = g - 1 + 2l - d2
    c3 = StratumDescriptor("C3", 3, p)
    assert negative_dim(c3) == {"h01_s_star_q": 6}
    c1 = StratumDescriptor("C1", 1, make_params(2, 0, 0))
    assert negative_dim(c1)["h01_s_star_q"] == 3

    a = StratumDescriptor("A", Fraction(1, 2), p)
    with pytest.raises(UnspecifiedDimensionError):
        negative_dim(a)


def _route_terms(p, order):
    return {t.label: t for t in u21_stratum_route(p, None, order).terms}


# The u21 route keeps one negative-normal pair per stratum: B1-diff[l] is the
# B1 pair (omega, nu''), C2[l] is minus the C2 pair (zeta-, zeta') and C1[l]
# is the C1 pair (eta', eta'') with the shift 2(2l-d2+g-1).


def test_negative_pair_examples():
    order = 12
    jac = jacobian_poincare(2, order)
    geo2 = geometric_inverse(2, order)

    # (2, 2, 1), B1 at l = 1: shift 2(2l - d2 + g - 1) = 4 over
    # P(J)^2 P(S^{d2-d1+2g-2-l}) = P(J)^2 P(S^0) over (1-t^2)^2
    b1 = _route_terms(make_params(2, 2, 1), order)["B1-diff[l=1]"]
    assert b1.series == (jac * jac * geo2 * geo2).shifted(4)

    # (2, 2, 2), C2 at l = 1: shift 2(l - d1 + 2g - 2) = 2 over
    # P(J)^2 P(S^1)/(1-t^2)^2, with the sign of a subtracted stratum
    c2 = _route_terms(make_params(2, 2, 2), order)["C2[l=1]"]
    assert c2.series == -(jac * jac * sym_poincare(1, 2, order) * geo2 * geo2).shifted(2)

    # (2, 0, 0), C1 at l = 1: shift 2(2l - d2 + g - 1) = 6, where the
    # displayed 2(d2 - 2l + g - 1) is -2, over P(J) P(S^1)^2/(1-t^2)
    c1 = _route_terms(make_params(2, 0, 0), order)["C1[l=1]"]
    assert [shift for _, shift, _ in c1.entries] == [6]
    sym1 = sym_poincare(1, 2, order)
    assert c1.series == (jac * sym1 * sym1 * geo2).shifted(6)


def test_negative_pair_shift_invariance():
    # a tensor shift moves every stratum index l to l + 1 and keeps its term
    order = 14

    def moved(label):
        return re.sub(r"l=(-?\d+)", lambda m: f"l={int(m.group(1)) + 1}", label)

    for point in [(2, 2, 1), (2, 2, 2), (2, 0, 0), (3, 3, 2), (3, 4, 2)]:
        p = make_params(*point)
        base = {moved(label): t.series for label, t in _route_terms(p, order).items()}
        shifted = {label: t.series
                   for label, t in _route_terms(p.tensor_shift(1), order).items()}
        assert shifted == base, point
        assert any(label.startswith(("C1", "C2", "B1")) for label in base)


def test_each_c2_route_term_is_its_table_row_shifted():
    # what the critical-set table shows for C2@l is what the route sums:
    # C2[l] = -t^{2m} critical_set_poincare(C2@l), m the row's exponent
    terms = 0
    for g in (2, 3, 4, 5):
        for p in valid_points(g):
            route = u21_stratum_route(p)
            for t in route.terms:
                match = re.fullmatch(r"C2\[l=(-?\d+)\]", t.label)
                if match is None:
                    continue
                s = StratumDescriptor("C2", int(match[1]), p)
                _, _, m = critical_set_key(s)
                assert t.series == -critical_set_poincare(s, route.order).shifted(2 * m), \
                    (p, t.label)
                terms += 1
    assert terms == 259
