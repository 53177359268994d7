import contextlib
import io
import json
import math
import re
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from higgsbetti.bradlow import (
    MaximalCaseProvider,
    _parse_record,
    maximal_moduli_min,
    maximal_pairs_equivariant,
    maximal_provider_record,
    provider_for_spec,
    provider_from_file,
    ww_difference,
    ww_from_invariants,
)
from higgsbetti.assemble import u21_closed_form
from higgsbetti.cli import main
from higgsbetti.errors import ProviderFileError
from higgsbetti.ingredients import jacobian_poincare, projective_poincare, sym_poincare
from higgsbetti.params import MAX_ORDER, make_params
from higgsbetti.series import TruncatedSeries, geometric_inverse


def _ww_oracle(g, e, sigma, order):
    """The wall sum of the bradlow docstring, written with products only."""
    def t(k):
        return TruncatedSeries.monomial(k, order)

    def block(m):  # P(J) P(S^m X) / (1-t^2)
        return (jacobian_poincare(g, order) * sym_poincare(m, g, order)
                * geometric_inverse(2, order))

    half = Fraction(e, 2)
    total = TruncatedSeries.zero(order)
    for j in range(math.floor(half) + 1, math.ceil(sigma)):  # e/2 < j < sigma
        total = total + (t(2 * (g - 1 + 2 * j - e)) - t(2 * (e - j))) * block(e - j)
    if sigma.denominator == 1 and sigma > half:
        s = int(sigma)
        total = total + t(2 * (g - 1 + 2 * s - e)) * block(e - s)
    elif sigma == half:
        total = total + t(e) * block(e // 2)
    return total


def test_sigma_examples():
    p = make_params(2, 2, 1)
    assert p.sigma == 1 and p.sigma_min == Fraction(3, 4)
    p = make_params(2, 0, 0)
    assert p.sigma == 2 and p.sigma_min == Fraction(9, 4) and p.e == 4
    p = make_params(3, 1, 2)
    assert p.e == 8 and p.sigma == Fraction(8 + 4, 3)


def test_ww_at_maximal_point():
    # single top wall: t^4 (1+t)^4 / (1-t^2)
    w = ww_difference(make_params(2, 2, 1), 24)
    want = (jacobian_poincare(2, 24) * geometric_inverse(2, 24)).shifted(4)
    assert w == want


def test_ww_vanishes_for_empty_coprime():
    for (g, d1, d2) in [(2, 1, 0), (2, 2, 3), (3, 1, 0), (3, 2, 3)]:
        p = make_params(g, d1, d2)
        assert p.is_coprime
        assert ww_difference(p, 8 * g).is_zero(), (g, d1, d2)


def test_ww_zero_toledo_boundary_term():
    # tau = 0: single bottom-wall term t^{4g-4} P(J) P(S^{2g-2})/(1-t^2)
    p = make_params(2, 1, 2)
    w = ww_difference(p, 20)
    want = (jacobian_poincare(2, 20) * sym_poincare(2, 2, 20)
            * geometric_inverse(2, 20)).shifted(4)
    assert w == want


def test_ww_matches_invariant_coordinates():
    # the whole valid domain |tau| <= 2g-2, tau < 0 included
    for g in (2, 3, 4):
        order = 6 * g + 10
        for d1 in range(-1, 3):
            for c in range(-(3 * g - 3), 3 * g - 2):
                p = make_params(g, d1, 2 * d1 + c)
                assert p.valid
                w = ww_difference(p, order)
                assert w == _ww_oracle(g, p.e, p.sigma, order), (g, p.d1, p.d2)
                assert w == ww_from_invariants(g, p.e, order)
                if p.tau < 0:
                    assert w.is_zero(), (g, p.d1, p.d2)


def test_the_wall_crossing_sum_is_summed_once_per_key():
    # a bounded cache: every point of one (g, e), its dual and its shifts
    # share one sum
    assert 0 < ww_from_invariants.cache_info().maxsize < 10**6
    ww_from_invariants.cache_clear()
    first = ww_from_invariants(3, 5, 40)
    assert ww_from_invariants(3, 5, 40) is first
    assert ww_from_invariants.cache_info()[:2] == (1, 1)  # hits, misses
    ww_from_invariants.cache_clear()
    again = ww_from_invariants(3, 5, 40)
    assert again is not first and again == first


def test_ww_zero_at_negative_toledo():
    # sigma < e/2: no walls, in particular no bottom-wall term when 3 | d1+d2
    p = make_params(2, 0, 3)
    assert p.tau < 0 and p.mod3_class == 0
    assert ww_difference(p, 40).is_zero()


def test_ww_shift_invariance():
    order = 30
    p = make_params(3, 4, 3)
    base = ww_difference(p, order)
    assert not base.is_zero()
    for k in (-2, -1, 1, 2):
        assert ww_difference(p.tensor_shift(k), order) == base


def test_maximal_telescoping():
    # maximal_pairs_equivariant returns P(J)/(1-t^2); its docstring's sum
    # P(J) (P(CP^{2g-3}) + t^{4g-4}/(1-t^2)) must telescope to it
    for g in (2, 3, 4, 5):
        order = 4 * g + 20
        jac = jacobian_poincare(g, order)
        wall = geometric_inverse(2, order).shifted(4 * g - 4)
        assert jac * (projective_poincare(2 * g - 3, order) + wall) == \
            maximal_pairs_equivariant(g, order), g


def test_maximal_provider_consistency():
    for g in (2, 3):
        order = 6 * g + 12
        p = make_params(g, 2 * g - 2, g - 1)
        pairs = maximal_pairs_equivariant(g, order)
        mm = maximal_moduli_min(g, order)
        assert pairs - mm == ww_difference(p, order)
        assert mm.is_nonnegative()
    # pinned bottom-chamber value at g = 2: (1+t)^4 (1+t^2)
    assert maximal_moduli_min(2, 10) == TruncatedSeries.from_coeffs(
        [1, 4, 7, 8, 7, 4, 1], 10)


def test_provider_queries():
    # the maximal provider holds the pairs series at e = g-1 alone
    provider = MaximalCaseProvider()
    assert provider.lookup(2, 1, 10) == (maximal_pairs_equivariant(2, 10), None)
    assert provider.lookup(3, 2, 10) == (maximal_pairs_equivariant(3, 10), None)
    assert provider.lookup(2, 2, 10) == (None, None)
    assert provider.lookup(2, 3, 10) == (None, None)


def test_relative_provider_is_none():
    # no provider is relative mode: the builders keep their unknown
    assert provider_for_spec("relative", make_params(2, 2, 1)) is None


def test_provider_file_round_trip(tmp_path):
    record = maximal_provider_record(2, 16)
    path = tmp_path / "provider.json"
    path.write_text(json.dumps(record))
    provider = provider_from_file(path)
    assert provider.lookup(2, 1, 12) == (maximal_pairs_equivariant(2, 12),
                                         maximal_moduli_min(2, 12))
    assert provider.lookup(2, 2, 12) == (None, None)
    with pytest.raises(ProviderFileError):
        provider.lookup(2, 1, 40)  # beyond the stored order


def test_provider_file_mismatch_names_degree(tmp_path):
    record = maximal_provider_record(2, 16)
    coeffs = [int(c) for c in record["pairs_equivariant"]]
    coeffs[4] += 1
    record["pairs_equivariant"] = [str(c) for c in coeffs]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(record))
    with pytest.raises(ProviderFileError, match="difference mismatch at degree 4"):
        provider_from_file(path)


def test_provider_file_nonmaximal_record_with_nonzero_difference(tmp_path):
    # invariants of (g, d1, d2) = (2, 0, 0): e = 4, sigma = 2, and the
    # wall-crossing difference is the nonzero bottom-wall term
    g, e, order = 2, 4, 20
    ww = ww_from_invariants(g, e, order)
    assert not ww.is_zero()
    mm = jacobian_poincare(g, order) * sym_poincare(2, g, order)
    pairs = mm + ww
    record = {
        "g": g, "e": e, "sigma": {"num": 2, "den": 1}, "order": order,
        "pairs_equivariant": [str(c) for c in pairs.coeffs],
        "moduli_min": [str(c) for c in mm.coeffs],
    }
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(record))
    provider = provider_from_file(path)
    assert provider.lookup(g, e, order) == (pairs, mm)


def test_provider_file_single_series_derives_other(tmp_path):
    # the record returns the one series it carries; the closed form,
    # which needs the other, derives it and matches the maximal provider
    record = maximal_provider_record(2, 16)
    record["pairs_equivariant"] = None
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(record))
    provider = provider_from_file(path)
    assert provider.lookup(2, 1, 14) == (None, maximal_moduli_min(2, 14))
    p = make_params(2, 2, 1)
    res = u21_closed_form(p, provider, 14)
    assert res.mode == "absolute"
    assert res.to_json_dict() == u21_closed_form(p, MaximalCaseProvider(), 14).to_json_dict()


def _write(tmp_path, payload, name="rec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("field, value, message", [
    ("g", 1, "genus 1"),
    ("sigma", {"num": 10 ** 6, "den": 1}, "sigma = 1000000"),
    ("e", 0, "e = 0 outside 1..7"),
    ("e", 8, "e = 8 outside 1..7"),
    ("g", 129, "genus 129; it must be in 2..128"),
    # sigma is compared on integers, and printed as the Fraction it names
    ("sigma", {"num": 4, "den": 2}, "sigma = 2; (e + 2g - 2)/3 = 1"),
    ("sigma", {"num": 1, "den": 0}, "malformed provider record: Fraction(1, 0)"),
    # a list of the wrong length is refused by its length, before any
    # coefficient is converted
    ("pairs_equivariant", ["x"] + ["0"] * 21,
     "malformed provider record: pairs_equivariant length does not match order 20"),
])
def test_provider_file_rejects_inconsistent_invariants(tmp_path, capsys, field, value,
                                                       message):
    record = maximal_provider_record(2, 20)  # g = 2, e = 1, sigma = 1
    record["pairs_equivariant"] = None
    record[field] = value
    path = _write(tmp_path, record)
    with pytest.raises(ProviderFileError, match=re.escape(message)):
        provider_from_file(path)
    code = main(["compute", "--group", "u21", "--genus", "2", "--d1", "2",
                 "--d2", "1", "--provider", f"file:{path}", "--order", "20"])
    assert code == 2
    assert message in capsys.readouterr().err


def test_provider_file_order_is_held_to_the_budget(tmp_path, capsys):
    path = _write(tmp_path, maximal_provider_record(2, MAX_ORDER + 1))
    message = f"order {MAX_ORDER + 1}, above the largest supported, {MAX_ORDER}"
    with pytest.raises(ProviderFileError, match=message):
        provider_from_file(path)
    code = main(["compute", "--group", "u21", "--genus", "2", "--d1", "2",
                 "--d2", "1", "--provider", f"file:{path}", "--order", "20"])
    assert code == 2
    assert message in capsys.readouterr().err
    provider_from_file(_write(tmp_path, maximal_provider_record(2, MAX_ORDER)))
    # an order out of budget is refused before the record's series are
    # looked at: with none, with the series of another order, or with
    # coefficients that would not parse
    record = maximal_provider_record(2, 20)
    record.update(order=-1, pairs_equivariant=None, moduli_min=None)
    with pytest.raises(ProviderFileError, match="negative order -1"):
        provider_from_file(_write(tmp_path, record))
    for order, refusal in ((-1, "negative order -1"), (MAX_ORDER + 1, message)):
        for series in (maximal_provider_record(2, 20), {
                "pairs_equivariant": ["x"] * 3, "moduli_min": ["1.5"]}):
            record = dict(maximal_provider_record(2, 20), order=order)
            record.update(pairs_equivariant=series["pairs_equivariant"],
                          moduli_min=series["moduli_min"])
            with pytest.raises(ProviderFileError, match=refusal):
                provider_from_file(_write(tmp_path, record))


def test_provider_file_rejects_duplicate_records(tmp_path):
    record = maximal_provider_record(2, 20)
    other = dict(record, pairs_equivariant=None)
    with pytest.raises(ProviderFileError, match=r"two records for \(g, e\) = \(2, 1\)"):
        provider_from_file(_write(tmp_path, [record, other]))


@pytest.mark.parametrize("content", [
    b"\xff\xfe{}",  # not UTF-8
    b'{"g": 1' + b"0" * 5000 + b"}",  # past the interpreter's 4300-digit limit
    b"[" * 100_000 + b"]" * 100_000,  # nested past the recursion limit
    b"{not json",
    None,  # missing
])
def test_unreadable_provider_file_exits_2(tmp_path, monkeypatch, capsys, content):
    if content is not None:
        (tmp_path / "x.json").write_bytes(content)
    monkeypatch.chdir(tmp_path)
    path = "./x.json"  # messages name it as typed
    with pytest.raises(ProviderFileError, match="cannot read provider file"):
        provider_from_file(path)
    code = main(["compute", "--group", "u21", "--genus", "2", "--d1", "2",
                 "--d2", "1", "--provider", f"file:{path}"])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith(f"error: cannot read provider file {path}: ")
    if content is None:
        assert out.err.endswith(f"No such file or directory: '{path}'\n")


@pytest.mark.parametrize("spell", [
    str,
    lambda path: path,  # a pathlib.Path
    lambda path: path.name,
    lambda path: f"./{path.name}",
])
def test_provider_file_path_as_str_path_or_relative(tmp_path, monkeypatch, capsys, spell):
    path = _write(tmp_path, maximal_provider_record(2, 20))
    monkeypatch.chdir(tmp_path)
    provider = provider_from_file(spell(path))
    assert provider.lookup(2, 1, 20)[1] == maximal_moduli_min(2, 20)
    code = main(["compute", "--group", "u21", "--genus", "2", "--d1", "2", "--d2", "1",
                 "--provider", f"file:{spell(path)}", "--order", "20", "--format", "csv"])
    assert code == 0 and capsys.readouterr().out.startswith("degree,betti\n0,1\n1,8\n")


def test_provider_file_answers_each_record_by_genus_and_degree(tmp_path):
    order = 20
    mm = jacobian_poincare(2, order) * sym_poincare(2, 2, order)
    nonmaximal = {  # (g, d1, d2) = (2, 0, 0): e = 4, sigma = 2
        "g": 2, "e": 4, "sigma": {"num": 2, "den": 1}, "order": order,
        "pairs_equivariant": None, "moduli_min": [str(c) for c in mm.coeffs],
    }
    records = [maximal_provider_record(2, order), nonmaximal,
               maximal_provider_record(3, order)]
    provider = provider_from_file(_write(tmp_path, records))
    assert provider.lookup(2, 1, order) == (maximal_pairs_equivariant(2, order),
                                            maximal_moduli_min(2, order))
    assert provider.lookup(3, 2, order) == (maximal_pairs_equivariant(3, order),
                                            maximal_moduli_min(3, order))
    assert provider.lookup(2, 4, order) == (None, mm)
    assert provider.lookup(2, 4, 12) == (None, mm.truncated(12))
    assert provider.lookup(2, 3, order) == (None, None)
    # a one-sided record holds the order of the series it carries
    with pytest.raises(ProviderFileError, match=f"holds order {order}, need {order + 1}"):
        provider.lookup(2, 4, order + 1)


_junk = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12), st.floats(allow_nan=False),
    st.text(max_size=3), st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.sampled_from(["num", "den"]), st.integers(-3, 12)),
)

_integer_or_fraction = st.one_of(
    st.integers(-3, 30),
    st.fixed_dictionaries({"num": st.integers(-3, 30), "den": st.integers(-1, 4)}),
)


@st.composite
def _provider_records(draw):
    """A consistent record at some g = 2..4, then junk in some fields."""
    g = draw(st.integers(2, 4))
    e = draw(st.integers(g - 1, 7 * g - 7))
    sigma = Fraction(e + 2 * g - 2, 3)
    order = draw(st.integers(0, 12))
    mm = [draw(st.integers(-5, 5)) for _ in range(order + 1)]
    pairs = TruncatedSeries(tuple(mm)) + ww_from_invariants(g, e, order)
    record = {
        "g": g, "e": e, "sigma": {"num": sigma.numerator, "den": sigma.denominator},
        "order": order,
        "pairs_equivariant": draw(st.sampled_from([None, [str(c) for c in pairs.coeffs]])),
        "moduli_min": mm,
    }
    for key in draw(st.lists(st.sampled_from(sorted(record) + ["extra"]), max_size=3)):
        if draw(st.booleans()):
            record.pop(key, None)
        else:
            record[key] = draw(st.one_of(_integer_or_fraction, _junk))
    return draw(st.one_of(st.just(record), _junk))


@settings(max_examples=300, deadline=None)
@given(_provider_records())
def test_parse_record_loads_or_raises_provider_file_error(data):
    try:
        g, e, pairs, min_moduli = _parse_record(data)
    except ProviderFileError:
        return
    assert g >= 2 and g - 1 <= e <= 7 * g - 7
    sigma = Fraction(int(data["sigma"]["num"]), int(data["sigma"]["den"]))
    assert sigma == Fraction(e + 2 * g - 2, 3)
    assert pairs is not None or min_moduli is not None


# faults of a provider file, each of which the CLI refuses with exit 2
_FILE_FAULTS = ["flip", "float", "bool", "sigma", "e", "short", "duplicate", "non-json"]


@st.composite
def _provider_files(draw):
    """(text, g, stored order, fault): an exported maximal record at g = 2..3
    with at most one fault of ``_FILE_FAULTS``."""
    g, order = draw(st.integers(2, 3)), draw(st.integers(1, 16))
    record = maximal_provider_record(g, order)
    fault = draw(st.sampled_from([None, None, *_FILE_FAULTS]))
    series = draw(st.sampled_from(["pairs_equivariant", "moduli_min"]))
    if fault == "flip":
        k = draw(st.integers(0, order))
        record[series][k] = str(int(record[series][k]) + draw(st.sampled_from([-1, 1])))
    elif fault in ("float", "bool"):
        value = draw(st.sampled_from([1.0, 2.5])) if fault == "float" else \
            draw(st.booleans())
        field = draw(st.sampled_from(["g", "e", "order", "sigma", series]))
        if field == "sigma":
            record["sigma"][draw(st.sampled_from(["num", "den"]))] = value
        elif field == series:
            record[series][draw(st.integers(0, order))] = value
        else:
            record[field] = value
    elif fault == "sigma":
        record["sigma"] = {"num": g - 1 + draw(st.sampled_from([-1, 1, 3])), "den": 1}
    elif fault == "e":
        e = draw(st.sampled_from([g - 2, 7 * g - 6, -1]))
        sigma = Fraction(e + 2 * g - 2, 3)
        record.update(e=e, sigma={"num": sigma.numerator, "den": sigma.denominator})
    elif fault == "short":
        del record[series][draw(st.integers(0, order)):]
    text = json.dumps([record, record] if fault == "duplicate" else record)
    if fault == "non-json":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text, g, order, fault


@settings(max_examples=150, deadline=None)
@given(_provider_files(), st.sampled_from(["u21", "su21", "pu21"]),
       st.sampled_from(["closed", "stratum"]), st.integers(1, 20), st.booleans())
def test_compute_with_a_drawn_provider_file_exits_0_or_2(tmp_path_factory, drawn, group,
                                                         route, order, dual):
    # the rules of the CLI grammar fuzzer, end to end through a file: a
    # clean record answers at the maximal point up to its stored order,
    # and every fault (or an order past the stored one) is an exit 2
    text, g, stored, fault = drawn
    if group == "pu21" and route == "stratum":
        route = "closed"
    path = tmp_path_factory.mktemp("provider") / "provider.json"
    path.write_text(text)
    d1, d2 = (2 * g - 2, g - 1) if not dual else (2 - 2 * g, 1 - g)
    argv = ["compute", "--group", group, "--route", route, "--genus", str(g),
            "--d1", str(d1), "--d2", str(d2), "--order", str(order),
            "--provider", f"file:{path}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    assert code == (0 if fault is None and order <= stored else 2), (argv, err.getvalue())
    if code == 2:
        assert out.getvalue() == ""
        assert "error:" in err.getvalue().splitlines()[-1]
    else:
        assert out.getvalue() and err.getvalue() == ""
