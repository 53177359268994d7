import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higgsbetti.assemble import (
    BUILDERS,
    ab_cancellation_residual,
    moduli_poincare,
    pu21_poincare,
    su21_closed_form,
    su21_stratum_route,
    su_ab_cancellation_residual,
    torelli_anomalous_part,
    u21_closed_form,
    u21_stratum_route,
    verify_route_equivalence,
)
from higgsbetti.bradlow import (
    FileBackedProvider,
    MaximalCaseProvider,
    maximal_provider_record,
    provider_from_file,
)
from higgsbetti.errors import ParameterError
from higgsbetti.ingredients import jacobian_poincare, sym_poincare
from higgsbetti.params import make_params, valid_points
from higgsbetti.series import TruncatedSeries, geometric_inverse


def _support(series):
    return {k: c for k, c in enumerate(series.coeffs) if c}


def test_u21_closed_maximal():
    p = make_params(2, 2, 1)
    res = u21_closed_form(p, MaximalCaseProvider(), 24)
    jac = jacobian_poincare(2, 24)
    geo2 = geometric_inverse(2, 24)
    assert res.mode == "absolute"
    assert res.series == jac * jac * geo2 * geo2
    assert res.series.coeffs[:5] == (1, 8, 30, 72, 129)
    # term-sum integrity
    total = TruncatedSeries.zero(24)
    for t in res.terms:
        total = total + t.series
    assert total == res.series


def test_u21_closed_relative_structure():
    order = 20
    p = make_params(2, 0, 0)
    res = u21_closed_form(p, None, order)
    jac = jacobian_poincare(2, order)
    geo2 = geometric_inverse(2, order)
    assert res.mode == "relative"
    assert res.unknown["pairs_equivariant"] == jac * geo2
    expected_known = TruncatedSeries.zero(order)
    for l in (1, 2):
        piece = jac * sym_poincare(2 - l, 2, order) * sym_poincare(2 - l, 2, order) \
            * geo2
        expected_known = expected_known + piece.shifted(2 * (1 + 2 * l))
    assert res.series == expected_known


def test_tensor_shift_pair_gives_identical_series():
    order = 28
    a = u21_closed_form(make_params(2, 2, 1), None, order)
    b = u21_closed_form(make_params(2, 3, 3), None, order)
    assert a.series == b.series and a.unknown == b.unknown


def test_ab_block_vanishes():
    for g in (2, 3):
        order = 8 * g + 24
        for d2 in range(0, 4):
            assert ab_cancellation_residual(g, d2, order).is_zero()
            assert su_ab_cancellation_residual(g, d2, order).is_zero()


def test_stratum_route_equals_closed_at_maximal():
    p = make_params(2, 2, 1)
    route = u21_stratum_route(p, MaximalCaseProvider(), 24)
    closed = u21_closed_form(p, MaximalCaseProvider(), 24)
    assert route.mode == "absolute"
    assert route.series == closed.series


def test_even_d2_boundary_cancels_c2_top_member():
    # for tau > 0 and even d2 the boundary term equals the negated
    # l = d2/2 member of the C2 sum
    p = make_params(2, 2, 2)
    assert p.tau > 0 and p.d2 % 2 == 0
    route = u21_stratum_route(p, None, 30)
    labels = {t.label: t.series for t in route.terms}
    assert "even-degree-boundary" in labels
    assert f"C2[l={p.d2 // 2}]" in labels
    assert (labels["even-degree-boundary"] + labels[f"C2[l={p.d2 // 2}]"]).is_zero()


def test_stratum_route_matches_consolidated_transcription_for_positive_tau():
    # the consolidated print drops the even-degree boundary term and uses a
    # strict C2 range; for tau > 0 that equals the raw per-stratum sum
    from fractions import Fraction

    from higgsbetti.assemble import ab_cancellation_residual as _  # noqa: F401
    from higgsbetti.ingredients import ab_semistable_rank2, bg_u21

    order = 30
    for g in (2, 3):
        for d1 in range(0, 2 * g + 1):
            for d2 in range(2 * d1 - (3 * g - 3), 2 * d1 + 1):
                p = make_params(g, d1, d2)
                if not p.valid or p.tau <= 0:
                    continue
                jac = jacobian_poincare(g, order)
                geo2 = geometric_inverse(2, order)
                known = bg_u21(g, order) \
                    - jac * ab_semistable_rank2(d2, g, order) * geo2
                l = d2 // 2 + 1
                while 2 * (g - 1 + 2 * l - d2) <= order:
                    known = known - (jac * jac * jac * geo2 * geo2 * geo2).shifted(
                        2 * (g - 1 + 2 * l - d2))
                    l += 1
                lo = Fraction(2 * d2 - d1, 3).__floor__() + 1
                for l in range(lo, (d2 - 1) // 2 + 1 if d2 % 2 == 0 else d2 // 2 + 1):
                    # strict upper bound l < d2/2
                    piece = jac * jac * sym_poincare(l - d1 + 2 * g - 2, g, order) \
                        * geo2 * geo2
                    known = known - piece.shifted(2 * (2 * g - 2 + l - d1))
                lo = Fraction(d2, 2).__floor__() + 1
                hi = Fraction(d1 + d2, 3).__floor__()
                for l in range(lo, hi + 1):
                    piece = jac * jac \
                        * sym_poincare(d2 - d1 + 2 * g - 2 - l, g, order) \
                        * geo2 * geo2
                    known = known + piece.shifted(2 * (g - 1 + 2 * l - d2))
                for l in range(Fraction(d1 + d2, 3).__floor__() + 1,
                               d2 - d1 + 2 * g - 2 + 1):
                    piece = jac * sym_poincare(d2 - d1 + 2 * g - 2 - l, g, order) \
                        * sym_poincare(d1 - l + 2 * g - 2, g, order) * geo2
                    known = known + piece.shifted(2 * (g - 1 + 2 * l - d2))
                route = u21_stratum_route(p, None, order)
                assert route.series == known, (g, d1, d2)
                assert route.unknown["moduli_min"] == jac * geo2


def test_su21_closed_maximal_matches_u21():
    p = make_params(2, 2, 1)
    su = su21_closed_form(p, MaximalCaseProvider(), 24)
    jac = jacobian_poincare(2, 24)
    geo2 = geometric_inverse(2, 24)
    assert su.series == jac * jac * geo2 * geo2
    # empty anomalous range: the invariant part agrees
    pu = pu21_poincare(p, MaximalCaseProvider(), 24)
    assert pu.series == su.series


def test_su_minus_pu_support():
    order = 20
    p = make_params(2, 0, 0)
    diff = su21_closed_form(p, None, order) - pu21_poincare(p, None, order)
    assert diff.mode == "absolute"
    assert _support(diff.series) == {8: 320, 10: 80}
    assert diff.series.is_nonnegative()


def test_torelli_anomalous_examples():
    assert torelli_anomalous_part(make_params(2, 0, 0), 20) == {8: 320, 10: 80}
    assert torelli_anomalous_part(make_params(4, 4, 2), 40) == {24: 6560}
    assert torelli_anomalous_part(make_params(2, 2, 1), 20) == {}
    with pytest.raises(ParameterError):
        torelli_anomalous_part(make_params(3, 1, 0), 20)  # tau = 4/3


def test_route_equivalence_u21_zero():
    for (g, d1, d2) in [(2, 2, 1), (2, 0, 0), (2, 1, 1), (3, 4, 2), (3, 2, 2)]:
        rep = verify_route_equivalence("u21", make_params(g, d1, d2))
        assert rep.zero, (g, d1, d2, rep.first_nonzero_degree())


def test_route_equivalence_su21_reports():
    rep = verify_route_equivalence("su21", make_params(2, 2, 1), 20)
    # the fixed-determinant bookkeeping mismatch is a finding, not an error
    assert not rep.zero
    k = rep.first_nonzero_degree()
    assert k is not None
    assert "moduli_min" in rep.residual_unknowns
    assert isinstance(rep.term_provenance(k), dict)
    with pytest.raises(ParameterError):
        verify_route_equivalence("pu21", make_params(2, 2, 1), 10)


def test_assembly_substitutes_through_one_sided_provider():
    # a provider knowing only the bottom-chamber series still yields an
    # absolute closed form: the pairs block is derived through the
    # wall-crossing difference
    from higgsbetti.bradlow import BradlowProvider, maximal_moduli_min

    class MinOnly(BradlowProvider):
        name = "min-only"

        def pairs_equivariant(self, e, sigma, g, order):
            return None

        def moduli_min(self, e, g, order):
            return maximal_moduli_min(g, order) if e == g - 1 else None

    p = make_params(2, 2, 1)
    res = u21_closed_form(p, MinOnly(), 24)
    ref = u21_closed_form(p, MaximalCaseProvider(), 24)
    assert res.mode == "absolute" and res.series == ref.series


def test_term_sum_integrity_everywhere():
    order = 24
    builders = (u21_closed_form, u21_stratum_route, su21_closed_form,
                su21_stratum_route, pu21_poincare)
    for (g, d1, d2) in [(2, 2, 1), (2, 0, 0), (2, 1, 2), (3, 3, 3)]:
        p = make_params(g, d1, d2)
        for provider in (None, MaximalCaseProvider()):
            for fn in builders:
                res = fn(p, provider, order)
                total = TruncatedSeries.zero(order)
                for t in res.terms:
                    total = total + t.series
                assert total == res.series, (fn.__name__, g, d1, d2)
                elim = res.eliminate_pairs()
                total = TruncatedSeries.zero(order)
                for t in elim.terms:
                    total = total + t.series
                assert total == elim.series, (fn.__name__, g, d1, d2)


def test_invalid_params_refused_unless_forced():
    p = make_params(2, 3, 0)
    with pytest.raises(ParameterError):
        u21_closed_form(p, None, 10)
    res = u21_closed_form(p, None, 10, force=True)
    assert res.mode == "relative"


def test_moduli_poincare_errors_and_relative():
    with pytest.raises(ParameterError):
        moduli_poincare(make_params(2, 0, 0), None, 16)  # non-coprime
    rep = moduli_poincare(make_params(2, 1, 0), None, 16)
    assert rep.result.mode == "relative"
    # (1-t^2) * (P(J)/(1-t^2)) = P(J)
    assert rep.result.unknown["pairs_equivariant"] == jacobian_poincare(2, 16)
    assert rep.polynomial is None


def test_moduli_poincare_concrete_via_file_provider(tmp_path):
    import json

    p = make_params(2, 1, 0)  # coprime, e = 2, sigma = 4/3, empty wall range
    order = 16
    pairs = (jacobian_poincare(2, order) * geometric_inverse(2, order)).coeffs
    record = {
        "g": 2, "e": 2, "sigma": {"num": 4, "den": 3}, "order": order,
        "pairs_equivariant": [str(c) for c in pairs],
        "moduli_min": [str(c) for c in pairs],
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(record))
    rep = moduli_poincare(p, provider_from_file(path), order)
    assert rep.result.mode == "absolute"
    assert rep.nonnegative
    assert rep.polynomial is not None


@pytest.mark.parametrize("g", [2, 3, 4])
def test_maximal_provider_at_the_negative_maximal_point(g):
    # tau = -(2g-2) is the dual of the maximal point
    p = make_params(g, -(2 * g - 2), -(g - 1))
    res = u21_closed_form(p, MaximalCaseProvider())
    jac = jacobian_poincare(g, res.order)
    geo2 = geometric_inverse(2, res.order)
    assert res.mode == "absolute"
    assert res.series == jac * jac * geo2 * geo2


@pytest.mark.parametrize("g", [2, 3])
def test_every_builder_at_the_dual_point_matches(g):
    order = 20
    for p in valid_points(g):
        q = p.dual()
        for key, fn in BUILDERS.items():
            own, dual = fn(p, None, order), fn(q, None, order)
            assert (dual.series, dual.unknown) == (own.series, own.unknown), (key, q)
            doc = dual.to_json_dict()
            if q.tau < 0:
                assert (doc["d1"], doc["d2"]) == (p.d1, p.d2)
                assert doc["transforms"] == [{"op": "dualize", "d1": p.d1, "d2": p.d2}]
            else:
                assert "transforms" not in doc and "transforms" not in own.to_json_dict()


@st.composite
def _truncation_cases(draw):
    g = draw(st.integers(2, 4))
    d1 = draw(st.integers(-3, 3))
    c = draw(st.integers(-(3 * g - 3), 3 * g - 3))  # every tau, both signs
    high = draw(st.integers(1, 48))
    low = draw(st.integers(1, high))
    return draw(st.sampled_from(sorted(BUILDERS))), make_params(g, d1, 2 * d1 + c), high, low


@settings(max_examples=400, deadline=None)
@given(_truncation_cases())
def test_truncation_coherence_of_every_builder(case):
    key, p, high, low = case
    full, short = BUILDERS[key](p, None, high), BUILDERS[key](p, None, low)
    assert full.series.truncated(low) == short.series
    assert {k: v.truncated(low) for k, v in full.unknown.items()} == short.unknown


def _term_sum(res):
    total = TruncatedSeries.zero(res.order)
    for t in res.terms:
        total = total + t.series
    return total


@st.composite
def _term_sum_cases(draw):
    g = draw(st.integers(2, 4))
    d1 = draw(st.integers(-3, 3))
    c = draw(st.integers(-(3 * g - 3), 3 * g - 3))  # every tau, both signs
    p = make_params(g, d1, 2 * d1 + c)
    keys = sorted(BUILDERS)
    provider = draw(st.sampled_from([None, MaximalCaseProvider()]))
    return (draw(st.sampled_from(keys)), draw(st.sampled_from(keys)), p,
            draw(st.integers(1, 120)), provider, draw(st.integers(0, 120)))


@settings(max_examples=300, deadline=None)
@given(_term_sum_cases())
def test_terms_sum_to_the_series(case):
    # terms are kept as block numerators and expanded when read; their
    # expansions must add up to the series the blocks were summed into
    key, other_key, p, order, provider, degree = case
    res = BUILDERS[key](p, provider, order)
    other = BUILDERS[other_key](p, provider, order)
    for derived in (res, res - other, res.eliminate_pairs(),
                    (res - other).eliminate_pairs()):
        assert _term_sum(derived) == derived.series
    if p.is_coprime:
        moduli = moduli_poincare(p, provider, order).result
        assert _term_sum(moduli) == moduli.series
    k = min(degree, order)
    for t in res.terms:
        assert t.expanded(k) == t.series.truncated(k)
        assert t.coefficient(k) == t.series.coeffs[k]


@pytest.mark.parametrize("g", [2, 3, 4])
def test_atiyah_bott_terms_match_the_ingredients(g):
    # the route's block numerators against the ingredient series
    from higgsbetti.ingredients import (
        ab_semistable_rank2, bg_su21, bg_u21, line_splitting_sum)

    order = 8 * g + 24
    jac = jacobian_poincare(g, order)
    for d2 in (0, 1):
        p = make_params(g, d2, d2)  # tau = 2 d2 / 3 >= 0
        u21 = {t.label: t.series for t in u21_stratum_route(p, None, order).terms}
        assert u21["classifying-total"] == bg_u21(g, order)
        assert u21["semistable-bundle-block"] == \
            -(jac * ab_semistable_rank2(d2, g, order)).over_one_minus(2)
        assert u21["line-splitting-tail"] == -line_splitting_sum(g, d2, order, 3)
        su21 = {t.label: t.series for t in su21_stratum_route(p, None, order).terms}
        assert su21["classifying-total"] == bg_su21(g, order)
        assert su21["semistable-bundle-block"] == -ab_semistable_rank2(d2, g, order)
        assert su21["line-splitting-tail"] == -line_splitting_sum(g, d2, order, 2)
