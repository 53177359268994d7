import json
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from higgsbetti.bradlow import (
    MaximalCaseProvider,
    SymbolicProvider,
    _parse_record,
    maximal_first_term,
    maximal_moduli_min,
    maximal_pairs_equivariant,
    maximal_provider_record,
    provider_from_file,
    sigma_min_of,
    sigma_of,
    ww_difference,
    ww_from_invariants,
)
from higgsbetti.cli import main
from higgsbetti.errors import ProviderFileError
from higgsbetti.ingredients import jacobian_poincare, sym_poincare
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
    assert sigma_of(p) == 1 and sigma_min_of(p) == Fraction(3, 4)
    p = make_params(2, 0, 0)
    assert sigma_of(p) == 2 and sigma_min_of(p) == Fraction(9, 4) and p.e == 4
    p = make_params(3, 1, 2)
    assert p.e == 8 and sigma_of(p) == Fraction(8 + 4, 3)


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
                assert w == ww_from_invariants(g, p.e, p.sigma, order)
                if p.tau < 0:
                    assert w.is_zero(), (g, p.d1, p.d2)


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
    for g in (2, 3, 4, 5):
        order = 4 * g + 20
        jac = jacobian_poincare(g, order)
        geo2 = geometric_inverse(2, order)
        assert maximal_first_term(g, order) == jac * jac * geo2 * geo2


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
    provider = MaximalCaseProvider()
    assert provider.pairs_equivariant(1, Fraction(1), 2, 10) is not None
    assert provider.pairs_equivariant(2, Fraction(1), 2, 10) is None
    assert provider.moduli_min(1, 2, 10) is not None
    assert provider.moduli_min(3, 2, 10) is None
    sym = SymbolicProvider()
    assert sym.pairs_equivariant(1, Fraction(1), 2, 10) is None
    assert sym.moduli_min(1, 2, 10) is None


def test_provider_file_round_trip(tmp_path):
    record = maximal_provider_record(2, 16)
    path = tmp_path / "provider.json"
    path.write_text(json.dumps(record))
    provider = provider_from_file(path)
    assert provider.pairs_equivariant(1, Fraction(1), 2, 12) == \
        maximal_pairs_equivariant(2, 12)
    assert provider.moduli_min(1, 2, 12) == maximal_moduli_min(2, 12)
    with pytest.raises(ProviderFileError):
        provider.moduli_min(1, 2, 40)  # beyond the stored order


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
    g, e, sigma, order = 2, 4, Fraction(2), 20
    ww = ww_from_invariants(g, e, sigma, order)
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
    assert provider.pairs_equivariant(e, sigma, g, order) == pairs
    assert provider.moduli_min(e, g, order) == mm


def test_provider_file_single_series_derives_other(tmp_path):
    record = maximal_provider_record(2, 16)
    record["pairs_equivariant"] = None
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(record))
    provider = provider_from_file(path)
    assert provider.pairs_equivariant(1, Fraction(1), 2, 14) == \
        maximal_pairs_equivariant(2, 14)


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
])
def test_provider_file_rejects_inconsistent_invariants(tmp_path, capsys, field, value,
                                                       message):
    record = maximal_provider_record(2, 20)  # g = 2, e = 1, sigma = 1
    record["pairs_equivariant"] = None
    record[field] = value
    path = _write(tmp_path, record)
    with pytest.raises(ProviderFileError, match=message):
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
    assert provider.moduli_min(1, 2, 20) == maximal_moduli_min(2, 20)
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
    assert provider.moduli_min(1, 2, order) == maximal_moduli_min(2, order)
    assert provider.moduli_min(2, 3, order) == maximal_moduli_min(3, order)
    assert provider.moduli_min(4, 2, order) == mm
    assert provider.pairs_equivariant(4, Fraction(2), 2, order) == \
        mm + ww_from_invariants(2, 4, Fraction(2), order)
    assert provider.pairs_equivariant(4, Fraction(7, 3), 2, order) is None
    assert provider.moduli_min(3, 2, order) is None


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
    pairs = TruncatedSeries(tuple(mm)) + ww_from_invariants(g, e, sigma, order)
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
        rec = _parse_record(data)
    except ProviderFileError:
        return
    assert rec.g >= 2 and rec.g - 1 <= rec.e <= 7 * rec.g - 7
    assert rec.sigma == Fraction(rec.e + 2 * rec.g - 2, 3)
    assert rec.pairs is not None or rec.min_moduli is not None
