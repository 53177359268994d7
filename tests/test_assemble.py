import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higgsbetti.assemble import (
    BUILDERS,
    MODULI_MIN,
    PAIRS,
    PLAIN,
    TermValue,
    pu21_poincare,
    su21_closed_form,
    su21_stratum_route,
    u21_closed_form,
    u21_stratum_route,
)
from higgsbetti.bradlow import (
    MaximalCaseProvider,
    provider_from_file,
    ww_difference,
)
from higgsbetti.errors import ParameterError
from higgsbetti.ingredients import (
    ab_semistable_rank2,
    atiyah_bott_block,
    bg_su21,
    bg_u21,
    gothen_cover,
    gothen_cover_poincare,
    jacobian_block,
    jacobian_poincare,
    sym_poincare,
)
from higgsbetti.params import kind_indices, make_params, valid_points
from higgsbetti.series import RationalExpr, TruncatedSeries, default_order, geometric_inverse
from higgsbetti.verify import torelli_anomalous_part, verify_route_equivalence


def _assembly_caches():
    from higgsbetti import assemble

    # the lru_caches and the store of relative builds, not the store's class
    return {name: fn for name, fn in vars(assemble).items()
            if hasattr(fn, "cache_info") and not isinstance(fn, type)
            and fn.__module__ == assemble.__name__}


def _clear_assembly_caches():
    for fn in _assembly_caches().values():
        fn.cache_clear()


def _scaled(term, factor):
    # the term times a series: the factor appended to each entry's factors
    return TermValue(term.label,
                     tuple((sign, shift, (*factors, factor.coeffs))
                           for sign, shift, factors in term.entries),
                     term.block, term.order)


def _support(series):
    return {k: c for k, c in enumerate(series.coeffs) if c}


def _line_splitting_sum(g, d2, line_factors, order):
    """The Atiyah-Bott tail written term by term: one
    t^{2(g-1+2l-d2)} (P(J)/(1-t^2))^k for each unstable type l > d2/2,
    k = line_factors, with no closed form over (1 - t^4)."""
    block = jacobian_poincare(g, order) * geometric_inverse(2, order)
    power = TruncatedSeries.monomial(0, order)
    for _ in range(line_factors):
        power = power * block
    total = TruncatedSeries.zero(order)
    l = d2 // 2 + 1
    while 2 * (g - 1 + 2 * l - d2) <= order:
        total = total + power.shifted(2 * (g - 1 + 2 * l - d2))
        l += 1
    return total


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
    # the classifying total is the semistable block plus the line-splitting
    # tail summed type by type, for both routes' k
    for g in (2, 3):
        order = 8 * g + 24
        jac_over = jacobian_poincare(g, order) * geometric_inverse(2, order)
        for d2 in range(0, 4):
            semistable = ab_semistable_rank2(d2, g, order)
            assert (bg_u21(g, order) - jac_over * semistable
                    - _line_splitting_sum(g, d2, 3, order)).is_zero(), (g, d2)
            assert (bg_su21(g, order) - semistable
                    - _line_splitting_sum(g, d2, 2, order)).is_zero(), (g, d2)


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

    from higgsbetti.ingredients import ab_semistable_rank2, bg_u21

    order = 30
    for g in (2, 3):
        for p in valid_points(g):
            if p.tau <= 0:
                continue
            d1, d2 = p.d1, p.d2
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
    su, pu = su21_closed_form(p, None, order), pu21_poincare(p, None, order)
    # the same pairs unknown on both sides: the difference is concrete
    assert su.unknown == pu.unknown
    diff = su.series - pu.series
    assert _support(diff) == {8: 320, 10: 80}
    assert diff.is_nonnegative()


def test_torelli_anomalous_examples():
    assert torelli_anomalous_part(make_params(2, 0, 0)) == {8: 320, 10: 80}
    assert torelli_anomalous_part(make_params(4, 4, 2)) == {24: 6560}
    assert torelli_anomalous_part(make_params(2, 2, 1)) == {}
    with pytest.raises(ParameterError):
        torelli_anomalous_part(make_params(3, 1, 0))  # tau = 4/3


@pytest.mark.parametrize("g", [2, 3, 4])
def test_torelli_anomalous_part_at_negative_tau_is_that_of_the_dual(g):
    # (0, 3) at g = 3 has tau = -2 and raised "tau outside [0, 2g-2]"
    checked = 0
    for q in valid_points(g):
        if q.tau > 0 and q.tau % 2 == 0:
            assert torelli_anomalous_part(q.dual()) == torelli_anomalous_part(q), q
            checked += 1
    assert checked
    assert torelli_anomalous_part(make_params(3, 0, 3)) == {15: 2912, 17: 2912}
    with pytest.raises(ParameterError, match="outside"):
        torelli_anomalous_part(make_params(g, 0, 3 * g))  # tau = -2g


def test_route_equivalence_u21_zero():
    for (g, d1, d2) in [(2, 2, 1), (2, 0, 0), (2, 1, 1), (3, 4, 2), (3, 2, 2)]:
        rep = verify_route_equivalence("u21", make_params(g, d1, d2))
        assert rep.zero, (g, d1, d2, rep.first_nonzero_degree())
        assert rep.first_nonzero_degree() is None
    # a residual held by an unknown alone starts where the unknown does
    unknown = rep._replace(residual_unknowns={
        MODULI_MIN: TruncatedSeries.monomial(2, rep.residual.order)})
    assert not unknown.zero and unknown.first_nonzero_degree() == 2


def test_route_equivalence_su21_reports():
    rep = verify_route_equivalence("su21", make_params(2, 2, 1), 20)
    # the fixed-determinant bookkeeping mismatch is a finding, not an error
    assert not rep.zero
    k = rep.first_nonzero_degree()
    assert k is not None
    assert "moduli_min" in rep.residual_unknowns
    assert isinstance(rep.term_provenance(k), dict)
    # the terms each side lists, unnegated; the values are those of the
    # su21 bookkeeping, which ROADMAP item 2 changes
    assert (k, rep.term_provenance(k)) == (
        1, {"route:classifying-total": 4, "route:semistable-bundle-block": -4})
    assert rep.term_provenance(8) == {
        "route:classifying-total": 193, "route:semistable-bundle-block": -63,
        "route:line-splitting-tail": -130, "route:B1-diff[l=1]": 8}
    with pytest.raises(ParameterError):
        verify_route_equivalence("pu21", make_params(2, 2, 1), 10)


@pytest.mark.parametrize("group", ["u21", "su21"])
def test_the_route_residual_is_that_of_the_eliminated_difference(group):
    # the rule written out on each side's series and unknowns: the pairs
    # unknown is moduli_min plus the wall-crossing difference, so a side
    # a*pairs + b*moduli_min + s is (a+b)*moduli_min + s + a*ww; the
    # residual is the difference of the two sides, and its only unknown,
    # moduli_min, is listed when its coefficient is nonzero (route-su21
    # prints the unknowns' dict, so its key order is pinned too)
    for g in (2, 3, 4):
        for q in valid_points(g):
            for p in (q, q.dual()):
                rep = verify_route_equivalence(group, p)
                sides = []
                for route in ("closed", "stratum"):
                    res = BUILDERS[group, route](p)
                    zero = TruncatedSeries.zero(res.order)
                    pairs = res.unknown.get(PAIRS, zero)
                    ww = ww_difference(res.params, res.order)
                    sides.append((res.series + pairs * ww,
                                  res.unknown.get(MODULI_MIN, zero) + pairs))
                (closed, closed_mm), (route, route_mm) = sides
                mm = closed_mm - route_mm
                assert rep.residual == closed - route, p
                assert list(rep.residual_unknowns.items()) == (
                    [] if mm.is_zero() else [(MODULI_MIN, mm)]), p


def test_assembly_substitutes_through_one_sided_provider():
    # a provider knowing only the bottom-chamber series still yields an
    # absolute closed form: the pairs block is derived through the
    # wall-crossing difference
    from higgsbetti.bradlow import BradlowProvider, maximal_moduli_min

    class MinOnly(BradlowProvider):
        def lookup(self, g, e, order):
            return None, (maximal_moduli_min(g, order) if e == g - 1 else None)

    p = make_params(2, 2, 1)
    res = u21_closed_form(p, MinOnly(), 24)
    ref = u21_closed_form(p, MaximalCaseProvider(), 24)
    assert res.mode == "absolute" and res.series == ref.series


def _file_provider(tmp_path, record, keep):
    """A file provider holding ``record`` with only the series in keep."""
    import json

    record = dict(record)
    for key in ("pairs_equivariant", "moduli_min"):
        if key not in keep:
            record[key] = None
    path = tmp_path / f"{'-'.join(keep)}.json"
    path.write_text(json.dumps(record))
    return provider_from_file(path)


def test_one_sided_records_give_the_same_assembly(tmp_path):
    # a record carrying both series, the pairs series alone or moduli_min
    # alone: every builder derives what it needs and writes the same JSON,
    # which at the maximal point is the maximal provider's too
    from higgsbetti.bradlow import maximal_provider_record, ww_from_invariants

    order = 20
    mm = jacobian_poincare(2, order) * sym_poincare(2, 2, order)
    pairs = mm + ww_from_invariants(2, 4, order)  # (2, 0, 0): e = 4, sigma = 2
    assert pairs != mm
    nonmaximal = {"g": 2, "e": 4, "sigma": {"num": 2, "den": 1}, "order": order,
                  "pairs_equivariant": [str(c) for c in pairs.coeffs],
                  "moduli_min": [str(c) for c in mm.coeffs]}
    cases = [(make_params(g, 2 * g - 2, g - 1), maximal_provider_record(g, order))
             for g in (2, 3, 4)]
    cases.append((make_params(2, 0, 0), nonmaximal))
    for p, record in cases:
        providers = [_file_provider(tmp_path, record, keep) for keep in
                     (("pairs_equivariant", "moduli_min"), ("pairs_equivariant",),
                      ("moduli_min",))]
        if p.e == p.g - 1:
            providers.append(MaximalCaseProvider())
        for key, fn in BUILDERS.items():
            docs = [fn(p, provider, order).to_json_dict() for provider in providers]
            assert docs[0]["mode"] == "absolute", (key, p)
            assert all(doc == docs[0] for doc in docs), (key, p)


def test_a_held_series_is_used_without_the_wall_crossing_sum(tmp_path, monkeypatch):
    # the builder derives the other side only for the unknown it holds:
    # the closed form takes the maximal provider's pairs series and the
    # route a record's moduli_min as they are
    from higgsbetti import bradlow

    record = bradlow.maximal_provider_record(2, 20)
    min_only = _file_provider(tmp_path, record, ("moduli_min",))
    p = make_params(2, 2, 1)
    want_closed = u21_closed_form(p, MaximalCaseProvider(), 20).to_json_dict()
    want_route = u21_stratum_route(p, MaximalCaseProvider(), 20).to_json_dict()

    def refuse(*args):
        raise AssertionError("wall-crossing sum computed")

    monkeypatch.setattr(bradlow, "ww_from_invariants", refuse)
    assert u21_closed_form(p, MaximalCaseProvider(), 20).to_json_dict() == want_closed
    assert u21_stratum_route(p, min_only, 20).to_json_dict() == want_route
    with pytest.raises(AssertionError, match="wall-crossing sum computed"):
        u21_stratum_route(p, MaximalCaseProvider(), 20)


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


def test_invalid_params_are_refused():
    # the moduli space is empty beyond |tau| = 2g-2 (Milnor-Wood)
    for p in [
        make_params(2, 3, 0),  # tau = 4 > 2g-2 = 2
        make_params(2, -3, 0),  # tau = -4
        make_params(2, 129, 10**20),  # a sum over every index up to d2 would never end
        # a copy of (2, 0, 0) moved to tau = 4 derives its bound from (d1, d2)
        dataclasses.replace(make_params(2, 0, 0), d1=3, d2=0),
    ]:
        for fn in BUILDERS.values():
            with pytest.raises(ParameterError, match="2g-2"):
                fn(p, None, 10)


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
    if high != low:
        with pytest.raises(ParameterError, match="order mismatch"):
            full.series - short.series


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
    return (draw(st.sampled_from(keys)), p, draw(st.integers(1, 120)), provider,
            draw(st.integers(0, 120)))


@settings(max_examples=300, deadline=None)
@given(_term_sum_cases())
def test_terms_sum_to_the_series(case):
    # terms are kept as block numerators and expanded when read; their
    # expansions must add up to the series the blocks were summed into
    key, p, order, provider, degree = case
    res = BUILDERS[key](p, provider, order)
    assert _term_sum(res) == res.series
    k = min(degree, order)
    for t in res.terms:
        assert t.expanded(k) == t.series.truncated(k)
        assert t.coefficient(k) == t.series.coeffs[k]
        with pytest.raises(ParameterError, match="holds order"):
            t.expanded(t.order + 1)


@pytest.mark.parametrize("key", sorted(BUILDERS))
def test_reading_a_term_leaves_its_numerator_unformed(key):
    # a read expands the entries at the degree read, and a factor appended
    # to each entry scales the term
    order = 40
    res = BUILDERS[key](make_params(3, 1, 0), None, order)
    one = TruncatedSeries.one(order)
    one_minus_t2 = TruncatedSeries.from_coeffs([1, 0, -1], order)
    for t in res.terms:
        for k in (0, 7, order):
            assert t.coefficient(k) == t.series.coeffs[k]
        assert _scaled(t, one) == t
        assert _scaled(t, one_minus_t2).series == t.series * one_minus_t2


@pytest.mark.parametrize("g", [2, 3, 4])
def test_atiyah_bott_terms_match_the_ingredients(g):
    # the route's block numerators against the ingredient series, with
    # the tail summed type by type
    order = 8 * g + 24
    jac = jacobian_poincare(g, order)
    for d2 in (0, 1):
        p = make_params(g, d2, d2)  # tau = 2 d2 / 3 >= 0
        u21 = {t.label: t.series for t in u21_stratum_route(p, None, order).terms}
        assert u21["classifying-total"] == bg_u21(g, order)
        assert u21["semistable-bundle-block"] == \
            -(jac * ab_semistable_rank2(d2, g, order)).over_one_minus(2)
        assert u21["line-splitting-tail"] == -_line_splitting_sum(g, d2, 3, order)
        su21 = {t.label: t.series for t in su21_stratum_route(p, None, order).terms}
        assert su21["classifying-total"] == bg_su21(g, order)
        assert su21["semistable-bundle-block"] == -ab_semistable_rank2(d2, g, order)
        assert su21["line-splitting-tail"] == -_line_splitting_sum(g, d2, 2, order)


@pytest.mark.parametrize("route, line_factors", [
    (u21_stratum_route, 3), (su21_stratum_route, 2)])
def test_the_atiyah_bott_block_is_listed_but_not_expanded(monkeypatch, route, line_factors):
    # its three numerators sum to zero by construction, so a build lists
    # its terms first and expands nothing over its block
    g, order = 3, 30
    block = atiyah_bott_block(g, line_factors)
    expanded = []
    expand = RationalExpr.expand

    def recording(self, *args, **kwargs):
        expanded.append(self)
        return expand(self, *args, **kwargs)

    monkeypatch.setattr(RationalExpr, "expand", recording)
    for d2 in (0, 1):
        _clear_assembly_caches()  # so that the build expands its other blocks
        res = route(make_params(g, d2, d2), None, order)
        assert expanded and not any(b is block for b in expanded)
        assert [t.label for t in res.terms[:3]] == [
            "classifying-total", "semistable-bundle-block", "line-splitting-tail"]
        assert all(t.block is block for t in res.terms[:3])
        zero = TruncatedSeries.zero(order)
        assert sum((t.series for t in res.terms[:3]), zero) == zero
        assert not any(t.block is block for t in res.terms[3:])
        expanded.clear()


def test_scaled_term_keeps_the_coefficients_past_its_own_polynomial():
    # a term's polynomial may be shorter than order - shift + 1; scaling
    # it must still reach every degree up to the order
    one_minus_t2 = TruncatedSeries.from_coeffs([1, 0, -1], 5)
    term = TermValue("x", ((1, 0, ((1,),)),), PLAIN, 5)
    assert _scaled(term, one_minus_t2).series == one_minus_t2
    shifted = TermValue("y", ((-1, 2, ((1, 1),)),), PLAIN, 5)  # -t^2 (1 + t)
    assert _scaled(shifted, one_minus_t2).series == \
        TruncatedSeries.from_coeffs([0, 0, -1, -1, 1, 1], 5)


@pytest.mark.parametrize("g, m1, m2", [(2, 1, 1), (2, 3, 0), (3, 2, 4)])
def test_negated_and_scaled_gothen_term(g, m1, m2):
    # a cover term has two entries, the product and the monomial; negating
    # both entries' signs or scaling the term must carry both, over a plain
    # and a Jacobian block
    order, shift = 16, 3
    entries = gothen_cover(m1, m2, g, order, shift)
    cover = gothen_cover_poincare(m1, m2, g, order).shifted(shift)
    scale = TruncatedSeries.from_coeffs([1, 0, -1, 5], order)
    jac_over = jacobian_poincare(g, order) * geometric_inverse(2, order)
    for block, want in ((PLAIN, cover), (jacobian_block(g, 1, 2), cover * jac_over)):
        term = TermValue("cover", entries, block, order)
        negated = TermValue("cover", tuple((-sign, s, factors) for sign, s, factors in entries),
                            block, order)
        assert term.series == want
        assert negated.series == -want
        assert _scaled(term, scale).series == want * scale
        assert _scaled(negated, scale).series == -(want * scale)


def test_the_five_builders_and_a_tensor_shift_share_one_c1_numerator():
    # every builder carries the same C1 sum of products and the same C1
    # entries, and the dual and a tensor shift keep the exponents and shifts
    from higgsbetti import assemble

    assemble._c1_table.cache_clear()
    p, order = make_params(3, 1, 0), 40
    for fn in BUILDERS.values():
        fn(p, None, order)
    assert assemble._c1_table.cache_info().misses == 1
    for q in (p.dual(), p.tensor_shift(2)):
        for fn in BUILDERS.values():
            fn(q, None, order)
    assert assemble._c1_table.cache_info().misses == 1


def test_u21_expands_its_c1_sum_and_unknown_once_per_point_and_order():
    # both u21 routes at a point, its dual and a tensor shift share one
    # expansion of the C1 sum over lambda and one of the unknown's
    # coefficient, as the two unknowns lie over the same lambda
    from higgsbetti import assemble

    _clear_assembly_caches()
    p, order = make_params(3, 1, 0), 40
    for q in (p, p.dual(), p.tensor_shift(2)):
        for fn in (u21_closed_form, u21_stratum_route):
            unknown = fn(q, None, order).unknown
            assert list(unknown.values()) == [jacobian_block(3, 1, 2).expand(order)]
    assert assemble._c1_over_lambda.cache_info().misses == 1
    assert assemble._block_expansion.cache_info().misses == 1


def test_every_assembly_cache_is_bounded():
    caches = _assembly_caches()
    assert {"_c1_table", "_c1_over_lambda", "_block_expansion", "_store"} <= set(caches)
    for name, fn in caches.items():
        assert 0 < fn.cache_info().maxsize < float("inf"), name


@pytest.mark.parametrize("g", [2, 3])
def test_a_served_build_equals_a_built_one(g):
    # at every point and its dual: the second build is served from the
    # store, and lists its terms by running the body again; results compare
    # field by field (group, params, series, unknown, terms, transforms)
    import json

    from higgsbetti.assemble import _store

    for fn in BUILDERS.values():
        for p in valid_points(g):
            for q in (p, p.dual()):
                _store.cache_clear()
                built, served = fn(q), fn(q)
                assert _store.cache_info()[:2] == (1, 1)  # hits, misses
                assert served is not built and served.unknown is not built.unknown
                assert served == built
                assert json.dumps(served.to_json_dict()).encode() == \
                    json.dumps(built.to_json_dict()).encode()


def test_a_served_build_expands_nothing(monkeypatch):
    from higgsbetti import assemble, series

    p, order = make_params(3, 1, 0), 40
    built = {(key, q): fn(q, None, order)
             for key, fn in BUILDERS.items() for q in (p, p.dual())}

    def refused(*args, **kwargs):
        raise AssertionError("a served build expanded")

    hits = assemble._store.cache_info().hits
    monkeypatch.setattr(RationalExpr, "expand", refused)
    monkeypatch.setattr(series, "shifted_product_sum", refused)
    monkeypatch.setattr(assemble, "shifted_product_sum", refused)
    for (key, q), result in built.items():
        served = BUILDERS[key](q, None, order)
        assert (served.series, served.unknown) == (result.series, result.unknown)
    assert assemble._store.cache_info().hits == hits + len(built)


def test_provider_builds_bypass_the_store(tmp_path):
    import json

    from higgsbetti.assemble import _store
    from higgsbetti.bradlow import maximal_provider_record

    g, order = 3, 30
    p = make_params(g, 2 * g - 2, g - 1)  # the maximal point, tau = 2g-2
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(maximal_provider_record(g, order)))
    u21_closed_form(p, None, order)  # kept
    info = _store.cache_info()
    for provider in (MaximalCaseProvider(), provider_from_file(path)):
        for fn in BUILDERS.values():
            assert fn(p, provider, order).mode == "absolute"
    assert _store.cache_info() == info


def test_the_store_keeps_only_what_int64_holds_exactly():
    from higgsbetti.assemble import _store

    unknown = (MODULI_MIN, TruncatedSeries.one(2))
    _store.keep("kept", TruncatedSeries((2**63 - 1, -(2**63), 0)), unknown)
    series, value = _store.get("kept")
    assert (series.coeffs, value) == ((2**63 - 1, -(2**63), 0), unknown)
    assert all(type(c) is int for c in series.coeffs)
    for key, coeffs in (("above", (1, 2**63, 0)), ("below", (0, 0, -(2**63) - 1))):
        _store.keep(key, TruncatedSeries(coeffs), unknown)
        assert _store.get(key) is None
    assert _store.cache_info().currsize == 3
    # every relative build at g = 32 holds a coefficient beyond int64
    _store.cache_clear()
    for fn in BUILDERS.values():
        fn(make_params(32, 0, 0), None, 280)
    assert _store.cache_info().currsize == 0


def test_the_store_drops_its_oldest_entries_first(monkeypatch):
    from higgsbetti.assemble import _store

    monkeypatch.setattr(_store, "budget", 10)
    unknown = (MODULI_MIN, TruncatedSeries.one(3))
    for key in "abc":
        _store.keep(key, TruncatedSeries((1, 2, 3, 4)), unknown)
    assert list(_store.entries) == ["b", "c"] and _store.cache_info().currsize == 8
    _store.keep("d", TruncatedSeries(tuple(range(11))), unknown)  # past it
    assert list(_store.entries) == ["b", "c"]
    # through the builders: a point built two points ago is built again
    _store.cache_clear()
    order = 40
    monkeypatch.setattr(_store, "budget", 2 * (order + 1))
    points = [make_params(3, d1, 0) for d1 in (0, 1, 2)]
    first = [u21_closed_form(p, None, order) for p in points]
    assert _store.cache_info()[:2] == (0, 3)
    assert u21_closed_form(points[2], None, order).series == first[2].series
    assert u21_closed_form(points[0], None, order).series == first[0].series
    assert _store.cache_info()[:2] == (1, 4)
    assert _store.cache_info().currsize <= 2 * (order + 1)


def test_a_served_result_copies_as_the_built_one_and_owns_its_unknowns():
    import copy
    import pickle

    p, order = make_params(3, 0, 1), 40  # tau < 0: served with a dualization
    built = su21_stratum_route(p, None, order)
    for clone in (lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy):
        assert clone(su21_stratum_route(p, None, order)) == built
    served = su21_stratum_route(p, None, order)
    served.unknown.clear()
    served.transforms[0]["op"] = "mutated"
    again = su21_stratum_route(p, None, order)
    assert again.unknown == built.unknown and again.transforms == built.transforms


def test_concurrent_builds_share_the_store(monkeypatch):
    # more threads than cores, switching often, on a store that evicts as it
    # goes: a lost update would miscount the lookups or the coefficients held
    import sys
    from concurrent.futures import ThreadPoolExecutor

    from higgsbetti.assemble import _store

    points = [q for p in valid_points(2) for q in (p, p.dual())] * 4
    want = [u21_stratum_route(q, None, 30).series for q in points]
    _store.cache_clear()
    monkeypatch.setattr(_store, "budget", 31 * 7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            got = list(pool.map(lambda q: u21_stratum_route(q, None, 30).series,
                                points, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    info = _store.cache_info()
    assert got == want and info.hits + info.misses == len(points)
    assert info.currsize == 31 * len(_store.entries) <= 31 * 7


# (point, order) past the pinned genera: g = 33 is the first genus whose
# large P(S^m) are packed slot by slot, and at (40, 0, 0) the order keeps
# 18 of the 78 C1 indices
_HIGH_GENUS = [((33, 0, 0), 280), ((40, 0, 0), 150), ((64, 3, -10), 120),
               ((100, 0, -50), 100), ((128, 5, 0), 80)]


@pytest.mark.parametrize("point, order", _HIGH_GENUS,
                         ids=[f"g{g}-{d1}-{d2}" for (g, d1, d2), _ in _HIGH_GENUS])
def test_u21_routes_agree_and_builders_are_shift_invariant_at_high_genus(point, order):
    p = make_params(*point)
    rep = verify_route_equivalence("u21", p, order)
    assert rep.zero, rep.first_nonzero_degree()
    if point == (40, 0, 0):
        c1 = [t for t in rep.closed_terms if t.label.startswith("C1[")]
        assert (len(c1), len(kind_indices(p, "C1"))) == (18, 78)
    results = {key: fn(p, None, order) for key, fn in BUILDERS.items()}
    _clear_assembly_caches()  # the shifted point builds every part anew
    for key, fn in BUILDERS.items():
        shifted = fn(p.tensor_shift(3), None, order)
        assert (shifted.series, shifted.unknown) == \
            (results[key].series, results[key].unknown), key


def test_the_c1_numerator_stops_at_the_order(monkeypatch):
    # every C1 term has degree 10g-10: below it the numerator holds the
    # order's coefficients, above it the whole polynomial, which orders
    # past the degree share
    from higgsbetti import assemble

    table, sizes = assemble._c1_table, []

    def recording(*args):
        out = table(*args)
        numerator_entry, _ = out  # (1, 0, (numerator,))
        sizes.append(len(numerator_entry[2][0]))
        return out

    monkeypatch.setattr(assemble, "_c1_table", recording)
    for order in (150, 400):
        u21_closed_form(make_params(64, 0, 0), None, order)
        assert sizes.pop() == order + 1
    table.cache_clear()
    for order in (100, 200):
        pu21_poincare(make_params(3, 0, 0), None, order)
        assert sizes.pop() == 21
    assert table.cache_info().misses == 1


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_every_builder_lists_the_c1_terms_each_index_derives(g):
    # the C1 terms come from a cached table and no term of it is checked
    # with _reaches: at every point and its dual, each builder lists the
    # C1 terms derived here index by index, each reaching the order
    from higgsbetti.assemble import _reaches
    from higgsbetti.ingredients import sym_factor
    from higgsbetti.params import canonicalize, h01_s_star_q, kind_indices, sym_exponent

    rows = {"u21": ("C1", False, 1), "su21": ("cover-sum", True, 0),
            "pu21": ("invariant-cover-sum", False, 0)}
    for q in (q for p in valid_points(g) for q in (p, p.dual())):
        p = canonicalize(q)[0]  # the point a builder assembles (q at tau = 0)
        for order in (1, 2, 7, default_order(g)):
            derived = {}
            for group, (name, cover, power) in rows.items():
                block, terms = jacobian_block(g, power, *[2] * power), []
                for l in kind_indices(p, "C1"):
                    s = 2 * h01_s_star_q(p, l)
                    m1, m2 = sym_exponent(p, "C1", l), sym_exponent(p, "C3", l)
                    entries = gothen_cover(m1, m2, g, order, s) if cover else \
                        ((1, s, (sym_factor(m1, g, order), sym_factor(m2, g, order))),)
                    if any(_reaches(e, order) for e in entries):
                        terms.append((f"{name}[l={l}]", entries, block, order))
                        assert not TermValue(*terms[-1]).series.is_zero()
                derived[group] = terms
            for (group, _), fn in BUILDERS.items():
                name = rows[group][0]
                listed = [(t.label, t.entries, t.block, t.order)
                          for t in fn(q, None, order).terms
                          if t.label.startswith(f"{name}[")]
                assert listed == derived[group], (q, group, order)


@pytest.mark.parametrize("key", sorted(BUILDERS))
def test_terms_sum_to_the_series_at_genus_32(key):
    # hundred-bit coefficients on 18-byte slots: the shared numerator
    # against each term's own expansion
    res = BUILDERS[key](make_params(32, 0, 0), None, 280)
    assert _term_sum(res) == res.series


def test_terms_sum_to_the_series_at_the_maximal_point_at_genus_32():
    res = u21_closed_form(make_params(32, 62, 31), MaximalCaseProvider(), 1120)
    assert res.mode == "absolute"
    assert _term_sum(res) == res.series


@pytest.fixture
def term_spies(monkeypatch):
    """The TermValues ``assemble`` makes, the entries it checks with
    ``_reaches`` and the labels of the terms expanded, from here on."""
    from types import SimpleNamespace

    from higgsbetti import assemble

    spies = SimpleNamespace(made=[], checked=[], expanded=[])
    reaches = assemble._reaches

    class Spy(TermValue):
        def __init__(self, *args):
            spies.made.append(self)
            super().__init__(*args)

        def expanded(self, order):
            spies.expanded.append(self.label)
            return super().expanded(order)

    def spy_reaches(entry, order):
        spies.checked.append(entry)
        return reaches(entry, order)

    monkeypatch.setattr(assemble, "TermValue", Spy)
    monkeypatch.setattr(assemble, "_reaches", spy_reaches)
    return spies


# points with even and odd d2 and a dual, at an order low enough that the
# routes drop terms
_LAZY_POINTS = [(3, 2, 2), (3, -2, -2), (3, 3, 1)]


@pytest.mark.parametrize("key", sorted(BUILDERS))
def test_terms_are_listed_when_first_read(term_spies, key):
    # a build records its terms and makes none; the first read lists them
    # and checks the entries, and every later read, of the result or of a
    # copy made by _replace, returns the same terms, each expanded once
    for point in _LAZY_POINTS:
        res = BUILDERS[key](make_params(*point), None, 12)
        clone = res._replace(series=res.series)
        assert term_spies.made == term_spies.checked == [], point
        terms = res.terms
        assert type(terms) is tuple and term_spies.made == list(terms) != []
        assert bool(term_spies.checked) == (key[1] == "stratum")
        assert res.terms is terms and clone.terms is terms
        assert [t.series for t in res.terms] == [t.series for t in clone.terms]
        assert term_spies.expanded == [t.label for t in terms]
        term_spies.made.clear()
        term_spies.checked.clear()
        term_spies.expanded.clear()


def test_a_route_lists_only_the_terms_that_reach_its_order():
    # the listing drops a term exactly when it is zero at the order, and
    # the build's series is the sum of what it lists
    p, order = make_params(3, 2, 2), 6
    res = u21_stratum_route(p, None, order)
    low = [t.label for t in res.terms]
    high = u21_stratum_route(p, None, 40).terms
    assert set(low) < {t.label for t in high}
    assert [t.label for t in high if not t.expanded(order).is_zero()] == low
    assert _term_sum(res) == res.series


def test_a_provided_value_is_listed_even_when_zero(tmp_path):
    # an added term that reaches nothing is dropped, but a provider's value
    # is listed as given
    import json

    p, order = make_params(2, 1, 0), 16  # e = 2, sigma = 4/3
    record = {"g": 2, "e": 2, "sigma": {"num": 4, "den": 3}, "order": order,
              "moduli_min": ["0"] * (order + 1)}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(record))
    res = u21_stratum_route(p, provider_from_file(path), order)
    assert res.mode == "absolute" and res.terms[-1].label == "bradlow-moduli-block"
    assert res.terms[-1].series.is_zero()


def test_a_zero_route_residual_lists_neither_side(term_spies):
    rep = verify_route_equivalence("u21", make_params(3, 2, 2), 20)
    assert rep.zero and term_spies.made == []
    assert rep.term_provenance(0) and term_spies.made


@pytest.mark.parametrize("make", [
    lambda: u21_stratum_route(make_params(3, 2, 2), None, 20),
    lambda: verify_route_equivalence("u21", make_params(3, 2, 2), 20),
], ids=["AssemblyResult", "RouteEquivalenceReport"])
def test_unlisted_values_copy_and_compare_as_listed(make):
    import copy
    import pickle

    for clone in (lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy,
                  copy.copy, dataclasses.replace):
        value, other = make(), make()
        copied = clone(value)
        assert copied == other and other == copied and not copied != other
        assert copied == value and repr(copied) == repr(other)
        if clone is not copy.copy:  # which shares what the value holds
            held = dict(zip(type(copied)._fields, copied))
            assert all(type(held[name]) is tuple for name in held if "terms" in name)
    # asdict turns each listed term into a dict of its fields
    fields = dataclasses.asdict(make())
    assert all(type(t) is dict and t["label"]
               for name in fields if "terms" in name for t in fields[name])
