import argparse
import ast
import json
import os
import threading
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from higgsbetti.cli import MAX_GRID_GENUS, build_parser, main
from higgsbetti.params import MAX_GENUS, MAX_ORDER, valid_points
from higgsbetti.series import TruncatedSeries


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_csv_golden(capsys):
    code, out, _ = run(
        capsys, "compute", "--group", "u21", "--genus", "2", "--d1", "2",
        "--d2", "1", "--provider", "maximal", "--order", "20", "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "degree,betti"
    assert rows[1:6] == ["0,1", "1,8", "2,30", "3,72", "4,129"]


def test_compute_json_relative(capsys):
    code, out, _ = run(
        capsys, "compute", "--group", "pu21", "--genus", "2", "--d1", "0",
        "--d2", "0", "--provider", "relative", "--format", "json", "--order", "12")
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "relative"
    assert doc["unknown_coefficients"]["pairs_equivariant"] is not None
    assert doc["unknown_coefficients"]["moduli_min"] is None
    # exact round trip and deterministic serialization
    code2, out2, _ = run(
        capsys, "compute", "--group", "pu21", "--genus", "2", "--d1", "0",
        "--d2", "0", "--provider", "relative", "--format", "json", "--order", "12")
    assert out2 == out


def test_compute_rejects_invalid_tau(capsys):
    code, _, err = run(
        capsys, "compute", "--group", "su21", "--genus", "2", "--d1", "3",
        "--d2", "0")
    assert code == 2
    assert "tau = 4 outside [-(2g-2), 2g-2]" in err
    code, out, err = run(capsys, "compute", "--group", "pu21", "--route", "stratum",
                         "--genus", "2", "--d1", "2", "--d2", "1")
    assert (code, out) == (2, "")
    assert "group 'pu21' has no 'stratum' route" in err


def test_compute_has_no_force_option(capsys):
    # nothing overrides the Toledo bound: beyond it the moduli space is empty
    argv = ["compute", "--group", "u21", "--genus", "2", "--d1", "129",
            "--d2", "99999999999999999999", "--route", "stratum"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--force"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --force" in err
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and "2g-2" in err


def test_compute_rejects_misplaced_maximal_provider(capsys):
    code, _, err = run(
        capsys, "compute", "--group", "u21", "--genus", "2", "--d1", "0",
        "--d2", "0", "--provider", "maximal")
    assert code == 2 and "maximal" in err
    code, out, err = run(
        capsys, "compute", "--group", "u21", "--genus", "2", "--d1", "0",
        "--d2", "0", "--provider", "bogus")
    assert (code, out) == (2, "") and "unknown provider 'bogus'" in err


def test_compute_csv_needs_concrete_series(capsys):
    code, _, err = run(
        capsys, "compute", "--group", "u21", "--genus", "2", "--d1", "0",
        "--d2", "0", "--format", "csv")
    assert code == 2 and "relative" in err


def test_strata_table(capsys):
    code, out, _ = run(
        capsys, "strata", "--genus", "2", "--d1", "2", "--d2", "1",
        "--lmax", "4")
    assert code == 0
    body = [line for line in out.splitlines()[1:] if line.strip()]
    assert len(body) == 9  # 8 descriptors plus the explicit empty C1 row
    assert any("C1: none in range" in line for line in body)


def test_strata_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "strata", "--genus", "2", "--d1", "2", "--d2", "1",
        "--lmax", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 8
    assert doc["empty_kinds"] == ["C1"]
    assert doc["rows"][0] == json.loads(json.dumps(doc["rows"][0]))


@pytest.mark.parametrize("g", [2, 3])
def test_strata_at_every_point_and_its_dual(capsys, g):
    # a point with tau < 0 is tabulated at its dual point
    for p in valid_points(g):
        argv = ["strata", "--genus", str(g), "--format", "json"]
        code, out, err = run(capsys, *argv, "--d1", str(p.d1), "--d2", str(p.d2))
        assert code == 0, (p, err)
        own = json.loads(out)
        assert "transforms" not in own
        code, out, err = run(capsys, *argv, "--d1", str(-p.d1), "--d2", str(-p.d2))
        assert code == 0, (p, err)
        dual = json.loads(out)
        if p.tau > 0:  # at tau = 0 the dual point is a point of its own
            assert dual.pop("transforms") == [{"op": "dualize", "d1": p.d1, "d2": p.d2}]
            assert dual == own
        else:
            assert "transforms" not in dual
    code, out, _ = run(capsys, "strata", "--genus", "2", "--d1", "0", "--d2", "3")
    assert code == 0 and "(2, 0, -3)" in out and "dual of (0, 3)" in out


def test_strata_head_at_a_low_order(capsys):
    # the head holds the coefficients up to min(order, 5)
    argv = ["strata", "--genus", "2", "--d1", "1", "--d2", "0", "--format", "json"]
    code, out, _ = run(capsys, *argv, "--order", "3")
    assert code == 0
    low = json.loads(out)["rows"]
    code, out, _ = run(capsys, *argv)
    high = json.loads(out)["rows"]
    assert [len(r["series_head"]) for r in low] == [4] * len(low)
    assert [len(r["series_head"]) for r in high] == [6] * len(high)
    assert [r["series_head"][:4] for r in high] == [r["series_head"] for r in low]


def test_verify_single_suites(capsys):
    for suite in ("maximal", "gothen", "ab-cancellation"):
        code, out, _ = run(capsys, "verify", "--suite", suite, "--grid", "g=2..3")
        assert code == 0, (suite, out)
        assert "pass" in out


def test_verify_all_suites_small_grid(capsys):
    code, out, _ = run(capsys, "verify", "--grid", "g=2..2")
    assert code == 0
    for suite in ("series-laws", "ab-cancellation", "route-u21", "route-su21",
                  "gothen", "maximal", "torelli", "shift-invariance"):
        assert f"{suite}" in out


def test_verify_route_su21_is_diagnostic(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "route-su21", "--grid", "g=2..2")
    assert code == 0
    assert "(diagnostic)" in out
    assert "residual" in out


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == 2 and "unknown suite" in err


# the help at 80 columns, byte for byte, as the argparse of CPython 3.11 formats it
TOP_HELP = """\
usage: higgsbetti [-h] {compute,strata,verify,ingredients,export} ...

Exact equivariant Poincare polynomials of rank-(2,1) Higgs bundle moduli, with
identity verification.

positional arguments:
  {compute,strata,verify,ingredients,export}
    compute             assemble a Poincare series
    strata              enumerate critical sets
    verify              run identity verification suites
    ingredients         evaluate one ingredient series
    export              write a maximal-case provider file

options:
  -h, --help            show this help message and exit
"""
VERIFY_HELP = """\
usage: higgsbetti verify [-h] [--suite SUITE] [--grid GRID]
                         [--format {text,json}] [--out OUT]

options:
  -h, --help            show this help message and exit
  --suite SUITE         suite name or 'all': series-laws, ab-cancellation,
                        route-u21, route-su21, gothen, maximal, torelli,
                        shift-invariance
  --grid GRID           e.g. g=2..3
  --format {text,json}
  --out OUT
"""


@pytest.mark.parametrize("argv, expected", [
    (["--help"], TOP_HELP),
    (["verify", "--help"], VERIFY_HELP),
])
def test_help_text_is_pinned(capsys, monkeypatch, argv, expected):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr() == (expected, "")


# argument errors at 80 columns, byte for byte (CPython 3.11's argparse)
TOP_USAGE = "usage: higgsbetti [-h] {compute,strata,verify,ingredients,export} ...\n"
ARGUMENT_ERRORS = [
    ([], TOP_USAGE + "higgsbetti: error: the following arguments are required: command\n"),
    (["bogus"], TOP_USAGE + "higgsbetti: error: argument command: invalid choice: 'bogus' "
     "(choose from 'compute', 'strata', 'verify', 'ingredients', 'export')\n"),
    (["compute"], """\
usage: higgsbetti compute [-h] --genus GENUS --d1 D1 --d2 D2 [--order ORDER]
                          [--format {text,json,csv}] [--out OUT] --group
                          {u21,su21,pu21} [--route {closed,stratum}]
                          [--provider PROVIDER]
higgsbetti compute: error: the following arguments are required: --genus/-g, --d1, --d2, --group
"""),
]


@pytest.mark.parametrize("argv, expected", ARGUMENT_ERRORS)
def test_argument_errors_are_pinned(capsys, monkeypatch, argv, expected):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", expected)


def test_a_call_adds_the_arguments_of_its_own_command_alone(capsys, monkeypatch):
    import higgsbetti.cli as cli

    parsers = []

    def recording(argv):
        parsers.append(build_parser(argv))
        return parsers[-1]

    monkeypatch.setattr(cli, "build_parser", recording)
    assert main(["compute", "--group", "u21", "-g", "2", "--d1", "0", "--d2", "0",
                 "--order", "4"]) == 0
    [subparsers] = [a for a in parsers[0]._actions
                    if isinstance(a, argparse._SubParsersAction)]
    added = {name: [a.dest for a in sp._actions if a.dest != "help"]
             for name, sp in subparsers.choices.items()}
    assert list(added) == ["compute", "strata", "verify", "ingredients", "export"]
    assert "group" in added.pop("compute") and not any(added.values())


def test_verify_help_lists_the_suites_in_definition_order(capsys):
    import higgsbetti.verify as verify
    source = Path(verify.__file__).read_text()
    declared = [node.args[0].value for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_suite"]
    assert declared == list(verify.SUITES) and len(declared) == 8
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "suite name or 'all': " + ", ".join(declared) + " --grid" in help_text


def test_series_laws_draws_what_randint_draws():
    # the suite's 1000 instances of three series with 25 coefficients each
    import random
    from itertools import islice

    from higgsbetti.verify import _digits
    rng = random.Random(20210817)
    expected = [rng.randint(-9, 9) for _ in range(3 * 25 * 1000)]
    assert list(islice(_digits(random.Random(20210817)), len(expected))) == expected


def test_verify_hard_failure_exit_code(capsys, monkeypatch):
    import higgsbetti.cli as cli

    def failing(grid):
        return cli.SuiteResult(
            "maximal", True, False, [],
            {"g": 2, "degree": 3, "expected": 0, "got": 1})

    monkeypatch.setitem(cli.SUITES, "maximal", failing)
    code, out, _ = run(capsys, "verify", "--suite", "maximal")
    assert code == 1
    assert "FAIL" in out and "counterexample" in out and '"degree": 3' in out


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "maximal",
                       "--grid", "g=2..2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] and doc["suites"][0]["name"] == "maximal"


def test_verify_gothen_passes_at_genus_12(capsys):
    # the cover's monomial v t^{m1+m2} lies past any fixed small order here
    code, out, _ = run(capsys, "verify", "--suite", "gothen", "--grid", "g=12..12")
    assert code == 0, out


def test_gothen_suite_catches_a_wrong_anomalous_dimension(monkeypatch):
    # v = (3^{2g}-1) C(2g-2, m1)^2 in the cover and in its re-typed formula
    # alike, right at the spot value m1 = m2 = 1: only the Euler
    # characteristic 3^{2g} chi(S^m1 X) chi(S^m2 X) sees it
    from higgsbetti import ingredients, verify

    monkeypatch.setattr(ingredients, "v_dim", lambda m1, m2, g: (3 ** (2 * g) - 1)
                        * comb(2 * g - 2, m1) ** 2)
    result = verify.SUITES["gothen"]({"g": (2, 2)})
    assert not result.passed
    assert result.counterexample == {"g": 2, "m1": 0, "m2": 1,
                                     "law": "euler characteristic",
                                     "expected": -162, "got": -82}


def test_torelli_suite_catches_a_strict_torelli_bound(monkeypatch):
    # |tau| > 4(g-1)/3 in place of >=: at (g, tau) = (4, 4) the one
    # anomalous summand has (m1, m2) = (0, 6), on which Torelli acts trivially
    from fractions import Fraction

    from higgsbetti import params, verify

    monkeypatch.setattr(params, "torelli_trivial",
                        lambda g, tau: abs(Fraction(tau)) > Fraction(4 * (g - 1), 3))
    result = verify.SUITES["torelli"]({})
    assert not result.passed
    assert result.counterexample == {"g": 4, "tau": 4, "law": "torelli_trivial",
                                     "expected": True, "got": False}


def test_torelli_suite_refuses_a_point_of_another_class(monkeypatch):
    # make_params giving (g, tau, tau/2 + 1), of class 1 and another tau:
    # the suite names the point, with or without python -O
    from higgsbetti import params, verify

    make = params.make_params
    monkeypatch.setattr(params, "make_params", lambda g, d1, d2: make(g, d1, d2 + 1))
    result = verify.SUITES["torelli"]({"g": (2, 2)})
    assert not result.passed
    assert result.counterexample == {"g": 2, "tau": 0, "law": "point"}


def test_torelli_suite_compares_the_builders_with_the_anomalous_part(monkeypatch):
    # every anomalous degree moved up by 2: the su21 - pu21 support of the
    # builders still reads {8: 320, 10: 80} at (g, tau) = (2, 0), and the
    # counterexample shows the two sides apart
    from higgsbetti import verify

    part = verify.torelli_anomalous_part
    monkeypatch.setattr(verify, "torelli_anomalous_part",
                        lambda p: {k + 2: v for k, v in part(p).items()})
    result = verify.SUITES["torelli"]({"g": (2, 2)})
    assert not result.passed
    assert result.counterexample == {"g": 2, "tau": 0, "expected": {10: 320, 12: 80},
                                     "got": {8: 320, 10: 80}}


def test_maximal_suite_catches_a_shifted_top_wall(monkeypatch):
    # the top wall t^{2(g-1+2 sigma-e)} P(J) P(S^{e-sigma} X)/(1-t^2) moved
    # up by t^2: closed form and route share the wall-crossing sum, so only
    # Poincare duality of the bottom-chamber pairs space sees it first
    from higgsbetti import bradlow, ingredients, verify

    ww = bradlow.ww_from_invariants

    def shifted_top_wall(g, e, order):
        out = ww(g, e, order)
        s, rem = divmod(e + 2 * g - 2, 3)  # sigma = (e+2g-2)/3
        if rem == 0 and 2 * s > e:
            a = 2 * (g - 1 + 2 * s - e)
            sym = ingredients.sym_factor(e - s, g, order)
            out = out + ingredients.jacobian_block(g, 1, 2).expand(
                order, ((1, a + 2, (sym,)), (-1, a, (sym,))))
        return out

    monkeypatch.setattr(bradlow, "ww_from_invariants", shifted_top_wall)
    result = verify.SUITES["maximal"]({"g": (2, 2)})
    assert not result.passed
    assert result.counterexample == {"g": 2, "law": "duality", "degree": 0,
                                     "expected": 7, "got": 1}


def test_route_u21_fails_when_valid_points_stops_early(monkeypatch):
    # d1 stopping two values early: every point left still has a zero
    # residual and is still shift-invariant, so only the counts see it:
    # route-u21's points, (2g+1)(3g-2) per genus, 20 + 49 at g = 2..3, and
    # shift-invariance's orbit slots, (2g+5)(3g-2), 36 + 77
    from higgsbetti import params, verify

    points = params.valid_points
    monkeypatch.setattr(params, "valid_points",
                        lambda g: (p for p in points(g) if p.d1 < 2 * g - 1))
    for suite, counterexample in (
            ("route-u21", {"law": "point count", "expected": 69, "got": 47}),
            ("shift-invariance", {"law": "orbit count", "expected": 113, "got": 91})):
        result = verify.SUITES[suite]({"g": (2, 3)})
        assert not result.passed and result.counterexample == counterexample
    monkeypatch.undo()
    assert verify.SUITES["route-u21"]({"g": (2, 3)}).details == [
        "zero residual on 69 parameter tuples"]
    assert verify.SUITES["shift-invariance"]({"g": (2, 3)}).passed


def test_route_u21_fails_when_a_route_block_is_corrupted(monkeypatch):
    # the u21 row's C2 block one 1/(1-t^2) short: only the route reads
    # it, and the first point with a C2 term shows it in the residual
    from higgsbetti import assemble, verify

    label, cover, power, (boundary, _, b1_diff) = assemble._GROUPS["u21"]
    monkeypatch.setitem(assemble._GROUPS, "u21",
                        (label, cover, power, (boundary, (2, 2), b1_diff)))
    result = verify.SUITES["route-u21"]({"g": (2, 3)})
    assert not result.passed
    assert result.counterexample == {
        "g": 2, "d1": 0, "d2": -2, "degree": 4, "expected": 0, "got": -1,
        "terms": {"route:classifying-total": 193,
                  "route:semistable-bundle-block": -193,
                  "route:even-degree-boundary": 63, "route:C2[l=-1]": -62}}


def _one_more_at_degree_0(fn):
    """fn with 1 added at degree 0 of its result's ``series``."""
    def wrapped(*args):
        res = fn(*args)
        return res._replace(series=res.series + TruncatedSeries.one(res.order))
    return wrapped


def _parity_swapped(fn):
    """fn(g, odd_d2, line_factors) with the parity of d2 swapped: every
    Atiyah-Bott tail starts 2 degrees off, and a route's three
    Atiyah-Bott terms still cancel."""
    return lambda g, odd_d2, line_factors: fn(g, not odd_d2, line_factors)


# how each function named below is broken
_MUTANTS = {"u21_closed_form": _one_more_at_degree_0,
            "atiyah_bott_numerators": _parity_swapped}


@pytest.mark.parametrize("suite, module, name, counterexample", [
    ("maximal", "assemble", "u21_closed_form",
     {"g": 2, "mode": "absolute", "degree": 0, "expected": 1, "got": 2}),
    ("ab-cancellation", "ingredients", "atiyah_bott_numerators",
     {"g": 2, "d2": 0, "k": 2, "law": "semistable block", "degree": 4,
      "expected": 33, "got": 32}),
])
def test_counterexample_reports_a_degree_0_difference(monkeypatch, suite, module, name,
                                                      counterexample):
    # each suite reports the lowest degree at which a mutant differs
    import higgsbetti
    from higgsbetti import verify

    owner = getattr(higgsbetti, module)
    monkeypatch.setattr(owner, name, _MUTANTS[name](getattr(owner, name)))
    result = verify.SUITES[suite]({"g": (2, 2)})
    assert not result.passed and result.counterexample == counterexample


def _count_calls(monkeypatch, counts, name, owner, key):
    """Replace owner[key] (a dict entry) or owner.key (an attribute) by a
    wrapper that adds 1 to counts[name] on each call."""
    is_dict = isinstance(owner, dict)
    fn = owner[key] if is_dict else getattr(owner, key)

    def counted(*args):
        counts[name] += 1
        return fn(*args)

    if is_dict:
        monkeypatch.setitem(owner, key, counted)
    else:
        monkeypatch.setattr(owner, key, counted)


def _count_shift_invariance_calls(monkeypatch) -> dict[str, int]:
    from higgsbetti import assemble, bradlow

    counts = {"builds": 0, "ww": 0}
    for key in list(assemble.BUILDERS):
        _count_calls(monkeypatch, counts, "builds", assemble.BUILDERS, key)
    _count_calls(monkeypatch, counts, "ww", bradlow, "ww_difference")
    return counts


def test_shift_invariance_builds_each_point_once(monkeypatch):
    # valid_points(2..3) lists 69 points in 36 + 77 orbit slots (d1 running
    # two past each end of 0..2g); five builds a slot, where building at
    # every point and its four shifts made 1725 builds and 345 differences
    from higgsbetti import verify

    counts = _count_shift_invariance_calls(monkeypatch)
    result = verify.SUITES["shift-invariance"]({"g": (2, 3)})
    assert result.passed
    assert counts == {"builds": 565, "ww": 113}


def test_shift_invariance_catches_a_cover_exponent_that_moves_with_d1(monkeypatch):
    # the C3 exponent (the second cover exponent) plus d1 mod 2 for d1 > 2:
    # a point is still compared with each of its shifts, so the first point
    # to differ from a shift, and the first object, are what building every
    # shift found
    from higgsbetti import assemble, verify

    exponent = assemble.sym_exponent

    def mutated(p, kind, l):
        return exponent(p, kind, l) + (p.d1 % 2 if kind == "C3" and p.d1 > 2 else 0)

    monkeypatch.setattr(assemble, "sym_exponent", mutated)
    result = verify.SUITES["shift-invariance"]({"g": (2, 3)})
    assert not result.passed
    assert result.counterexample == {"g": 2, "d1": 1, "d2": 0, "k": 2,
                                     "object": "u21-closed"}


def test_shift_invariance_catches_a_wall_crossing_difference_that_moves_with_d1(
        monkeypatch):
    # the difference doubled from d1 = 3 on: (3, 3) is the first slot past
    # d1 = 2, reached from (1, -1), whose tau = 2 has a top wall, and the
    # difference is compared before any builder
    from higgsbetti import bradlow, verify

    ww = bradlow.ww_difference
    monkeypatch.setattr(bradlow, "ww_difference",
                        lambda p, order: ww(p, order) * (2 if p.d1 >= 3 else 1))
    result = verify.SUITES["shift-invariance"]({"g": (2, 3)})
    assert not result.passed
    assert result.counterexample == {"g": 2, "d1": 1, "d2": -1, "k": 2,
                                     "object": "wall-crossing difference"}


def test_series_laws_expands_each_critical_set_row_once(monkeypatch):
    # S^3 X negated: the first stratum of exponent 3 is C2@-1 at g = 3,
    # the 161st descriptor in the suite's order, and the 10th distinct key
    from higgsbetti import strata, verify

    sym_factor = strata.sym_factor

    def negated_at_3(m, g, order):
        factor = sym_factor(m, g, order)
        return tuple(-c for c in factor) if m == 3 else factor

    counts = {"expanded": 0}
    _count_calls(monkeypatch, counts, "expanded", strata, "critical_set_poincare")
    assert verify.SUITES["series-laws"]({"g": (2, 3)}).passed
    keys = {strata.critical_set_key(s)
            for g in (2, 3) for p in valid_points(g)
            for s in strata.enumerate_critical(p, p.d1 + 2 * g - 2)}
    assert counts["expanded"] == len(keys) == 12

    monkeypatch.setattr(strata, "sym_factor", negated_at_3)
    counts["expanded"] = 0
    result = verify.SUITES["series-laws"]({"g": (2, 3)})
    assert not result.passed
    assert result.counterexample == {"stratum": "C2@-1", "law": "nonnegativity"}
    assert counts["expanded"] == 10


def test_a_negative_symmetric_product_exponent_is_a_range_violation():
    # tau = 4 > 2g - 2 at (g, d1, d2) = (2, 3, 0): C2@0 has m = l - d1 + 2g - 2 = -1
    from higgsbetti import strata
    from higgsbetti.errors import RangeViolationError
    from higgsbetti.params import make_params

    s = strata.StratumDescriptor("C2", 0, make_params(2, 3, 0))
    with pytest.raises(RangeViolationError, match="exponent -1 for C2@0"):
        strata.critical_set_key(s)
    with pytest.raises(RangeViolationError, match="exponent -1 for C2@0"):
        strata.critical_set_poincare(s, 8)


def test_suite_memos_live_inside_one_call(monkeypatch):
    # a second run asks for what the first did: no suite keeps a memo
    # between calls, and the store of relative builds is bounded, so a
    # worker's memory grows with the grids it has run only up to the store's
    # budget
    from higgsbetti import strata, verify

    counts = _count_shift_invariance_calls(monkeypatch)
    counts["expanded"] = 0
    _count_calls(monkeypatch, counts, "expanded", strata, "critical_set_poincare")
    for name in ("shift-invariance", "series-laws"):
        runs = []
        for _ in range(2):
            before = dict(counts)
            result = verify.SUITES[name]({"g": (2, 3)})
            runs.append((result, {k: counts[k] - before[k] for k in counts}))
        assert runs[0] == runs[1]
        assert runs[0][0].passed and any(runs[0][1].values())
    for module, dicts in ((verify, {"SUITES"}), (strata, set())):
        names = vars(module)
        assert {k for k, v in names.items()
                if isinstance(v, dict) and not k.startswith("__")} == dicts
        assert not [k for k, v in names.items() if hasattr(v, "cache_info")
                    and v.__module__ == module.__name__]


def test_ingredients_ops(capsys):
    code, out, _ = run(
        capsys, "ingredients", "--op", "sym", "--m", "2", "--genus", "2",
        "--order", "6", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[1:6] == ["0,1", "1,4", "2,7", "3,4", "4,1"]

    code, out, _ = run(
        capsys, "ingredients", "--op", "vdim", "--m1", "1", "--m2", "1",
        "--genus", "2")
    assert code == 0 and out.strip() == "320"


def test_ingredients_json_document_of_a_series(capsys):
    from higgsbetti.ingredients import gothen_cover_poincare, sym_poincare

    for argv, want in (
            (["--op", "sym", "--m", "3", "--genus", "3"], sym_poincare(3, 3, 12)),
            (["--op", "gothen", "--m1", "1", "--m2", "2", "--genus", "2"],
             gothen_cover_poincare(1, 2, 2, 12))):
        code, out, _ = run(capsys, "ingredients", *argv, "--order", "12",
                           "--format", "json")
        assert code == 0
        assert json.loads(out) == {"op": argv[1], "order": 12,
                                   "coefficients": [str(c) for c in want.coeffs]}


def test_export_provider_and_file_round_trip(capsys, tmp_path):
    path = tmp_path / "provider.json"
    code, _, _ = run(
        capsys, "export", "--what", "provider", "--genus", "2",
        "--order", "24", "--out", str(path))
    assert code == 0
    code, out, _ = run(
        capsys, "compute", "--group", "u21", "--genus", "2", "--d1", "2",
        "--d2", "1", "--provider", f"file:{path}", "--order", "20",
        "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[1:6] == ["0,1", "1,8", "2,30", "3,72", "4,129"]


def test_export_writes_no_result(capsys):
    # a result is written by compute --out PATH
    with pytest.raises(SystemExit) as exc:
        main(["export", "--what", "result", "-g", "2", "--d1", "2", "--d2", "1",
              "--out", os.devnull])
    assert exc.value.code == 2
    assert "invalid choice: 'result'" in capsys.readouterr().err


@pytest.mark.parametrize("order", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["compute", "--group", "u21", "-g", "2", "--d1", "2", "--d2", "1"],
    ["strata", "-g", "2", "--d1", "2", "--d2", "1"],
    ["ingredients", "--op", "sym", "--m", "2", "-g", "2"],
    ["export", "--what", "provider", "-g", "2", "--out", os.devnull],
])
def test_order_below_one_is_refused(capsys, argv, order):
    code, out, err = run(capsys, *argv, "--order", order)
    assert code == 2 and out == ""
    assert "order must be at least 1" in err


def test_maximal_provider_at_the_negative_maximal_point(capsys):
    # (d1, d2) = (-2, -1) at g = 2 has tau = -2, the dual of (2, 1)
    code, out, _ = run(
        capsys, "compute", "--group", "u21", "-g", "2", "--d1", "-2", "--d2", "-1",
        "--provider", "maximal", "--order", "20", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[1:6] == ["0,1", "1,8", "2,30", "3,72", "4,129"]


def test_su21_at_negative_tau(capsys):
    code, out, _ = run(
        capsys, "compute", "--group", "su21", "-g", "2", "--d1", "0", "--d2", "2",
        "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["d1"], doc["d2"]) == (0, -2)
    assert doc["transforms"] == [{"op": "dualize", "d1": 0, "d2": -2}]


@pytest.mark.parametrize("argv", [
    ["compute", "--group", "u21", "--d1", "0", "--d2", "0"],
    ["strata", "--d1", "0", "--d2", "0"],
    ["ingredients", "--op", "jacobian"],
    ["export", "--what", "provider", "--out", os.devnull],
])
def test_genus_above_the_cap_is_refused(capsys, argv):
    code, out, err = run(capsys, *argv, "-g", str(MAX_GENUS + 1), "--order", "4")
    assert code == 2 and out == ""
    assert f"genus {MAX_GENUS + 1}" in err


@pytest.mark.parametrize("text", ["9" * 5000, "x" * 5000], ids=["nines", "letters"])
@pytest.mark.parametrize("argv", [
    ["compute", "--group", "u21", "--d1", "0", "--d2", "0", "-g"],
    ["strata", "--d1", "0", "--d2", "0", "--lmax"],
], ids=["genus", "lmax"])
def test_a_refused_integer_is_quoted_in_part(capsys, argv, text):
    # the first digits of a number past int()'s digit limit, or of a value
    # that is no number, not the whole 5000 characters
    with pytest.raises(SystemExit) as exc:
        main([*argv, text])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert repr(text[:20]) + "..." in err and len(err) < 1000


@pytest.mark.parametrize("digits", [1000, 4300])
@pytest.mark.parametrize("argv", [
    ["compute", "--group", "u21", "-g", "2", "--d2", "0"],
    ["strata", "-g", "2", "--d2", "0"],
])
def test_a_tau_too_long_to_print_is_refused_in_a_short_message(capsys, argv, digits):
    # at 4300 nines, 2 d1 has 4301 digits, which str() refuses
    code, out, err = run(capsys, *argv, "--d1", "9" * digits)
    assert code == 2 and out == ""
    assert "|tau| > 10^19, outside [-(2g-2), 2g-2] = [-2, 2]" in err and len(err) < 200


@pytest.mark.parametrize("genus", ["1", "0", "-3"])
def test_genus_below_two_is_refused_before_the_order(capsys, genus):
    # the default order 8g+24 is below 1 at g = -3; the genus is named first
    for argv in (["compute", "--group", "u21", "--d1", "0", "--d2", "0"],
                 ["strata", "--d1", "0", "--d2", "0"],
                 ["ingredients", "--op", "jacobian"],
                 ["ingredients", "--op", "projective", "--n", "2"],
                 ["export", "--what", "provider", "--out", os.devnull]):
        code, out, err = run(capsys, *argv, "-g", genus)
        assert code == 2 and out == ""
        assert f"genus {genus} is outside the supported range 2..{MAX_GENUS}" in err


def test_strata_lmax_is_held_to_the_order_budget(capsys):
    # every index above d1 is a B3 row: lmax at most MAX_ORDER above the
    # default d1 + 2g - 2 = 2 is tabulated, anything above exits 2
    argv = ["strata", "-g", "2", "--d1", "0", "--d2", "0", "--format", "json"]
    top = 2 + MAX_ORDER
    code, out, _ = run(capsys, *argv, "--lmax", str(top))
    assert code == 0
    rows = json.loads(out)["rows"]
    assert (rows[-1]["kind"], rows[-1]["l"], rows[-1]["region"]) == ("B3", str(top), "III")
    for lmax in (f"{2 * top + 1}/2", str(10**6)):
        code, out, err = run(capsys, *argv, "--lmax", lmax)
        assert code == 2 and out == ""
        assert f"more than {MAX_ORDER} above the default d1 + 2g - 2 = 2" in err


@pytest.mark.parametrize("lmax, message", [
    ("1/3", "'1/3' is not a half-integer"),
    ("1/0", "'1/0' has a zero denominator"),  # was a ZeroDivisionError traceback
    # Fraction's other spellings: the first built 10^9999999, and its
    # message raised ValueError (exit 1, a traceback)
    ("1e9999999", "'1e9999999' is not written n or n/m"),
    ("2.5", "'2.5' is not written n or n/m"),
])
def test_strata_lmax_that_is_no_half_integer_is_an_argument_error(capsys, lmax, message):
    with pytest.raises(SystemExit) as exc:
        main(["strata", "-g", "2", "--d1", "0", "--d2", "0", "--lmax", lmax])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert f"argument --lmax: {message}" in out.err


def test_a_negative_lmax_is_written_with_an_equals_sign():
    # argparse reads the -3/2 of "--lmax -3/2" as an option; "--lmax=-3/2" parses
    argv = ["strata", "-g", "2", "--d1", "0", "--d2", "0", "--lmax=-3/2"]
    args = build_parser(argv).parse_args(argv)
    assert args.lmax == Fraction(-3, 2)


@pytest.mark.parametrize("argv", [
    ["compute", "--group", "u21", "--d1", "0", "--d2", "0"],
    ["strata", "--d1", "0", "--d2", "0"],
    ["ingredients", "--op", "jacobian"],
    ["export", "--what", "provider", "--out", os.devnull],
])
def test_order_above_the_budget_is_refused(capsys, argv):
    code, out, err = run(capsys, *argv, "-g", "2", "--order", str(MAX_ORDER + 1))
    assert code == 2 and out == ""
    assert f"order {MAX_ORDER + 1}" in err


def test_order_at_the_budget_is_accepted(capsys):
    code, out, _ = run(capsys, "ingredients", "--op", "jacobian", "-g", "2",
                       "--order", str(MAX_ORDER), "--format", "csv")
    assert code == 0 and len(out.splitlines()) == MAX_ORDER + 2


@pytest.mark.parametrize("grid, message", [
    ("g=3..2", "empty"),  # used to pass, having checked no point
    ("h=2..3", "unknown grid key"),  # used to run the default genera
    ("g=1..2", "2.."),
    (f"g=2..{MAX_GENUS + 1}", "2.."),
    ("g=2..3,g=5..5", "one g=lo..hi"),  # used to run g = 5 alone
    ("g3", "bad grid"),
    (f"g=2..{MAX_GENUS}", f"2..{MAX_GRID_GENUS}"),  # used to run for days
    # spellings every integer option refuses, which int() used to read
    ("g=2..1_0", "bad grid range"),
    ("g= 2", "bad grid range"),
    ("g=\u0662", "bad grid range"),
    ("g=2 ..3", "bad grid range"),
    # past the interpreter's 4300-digit limit of int(), which used to raise
    pytest.param("g=2.." + "9" * 5000, "bad grid range", id="g=2..<5000 nines>"),
    pytest.param("g=" + "0" * 4999 + "2", "bad grid range", id="g=<4999 zeros>2"),
])
def test_verify_refuses_a_bad_grid(capsys, grid, message):
    code, out, err = run(capsys, "verify", "--suite", "route-u21", "--grid", grid)
    assert code == 2 and out == ""
    assert message in err


# ------------------------------------------------------------- the writer

COMPUTE = ["compute", "--group", "u21", "-g", "2", "--d1", "2", "--d2", "1",
           "--provider", "maximal", "--order", "20"]
STRATA = ["strata", "-g", "2", "--d1", "2", "--d2", "1", "--lmax", "4"]
VERIFY = ["verify", "--suite", "gothen", "--grid", "g=2..2"]


@pytest.mark.parametrize("argv", [
    [*COMPUTE, "--format", "text"],
    [*COMPUTE, "--format", "json"],
    [*COMPUTE, "--format", "csv"],
    [*STRATA, "--format", "text"],
    [*STRATA, "--format", "json"],
    ["ingredients", "--op", "sym", "--m", "2", "-g", "2", "--order", "6"],
    ["ingredients", "--op", "vdim", "--m1", "1", "--m2", "1", "--format", "json"],
    [*VERIFY, "--format", "text"],
    [*VERIFY, "--format", "json"],
])
def test_out_bytes_equal_stdout_bytes(capsys, tmp_path, argv):
    code, expected, _ = run(capsys, *argv)
    assert code == 0
    # a rewritten file that was longer holds exactly the new bytes after
    fresh, rewritten = tmp_path / "fresh", tmp_path / "rewritten"
    rewritten.write_bytes(b"\0" * (2 * len(expected) + 7))
    for path in (fresh, rewritten):
        assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
        assert path.read_bytes() == expected.encode()


def test_export_rewrites_a_file_to_the_bytes_of_a_fresh_one(capsys, tmp_path):
    argv = ["export", "--what", "provider", "-g", "2", "--order", "24", "--out"]
    fresh, rewritten = tmp_path / "fresh.json", tmp_path / "rewritten.json"
    rewritten.write_text("{}" * 10_000)
    for path in (fresh, rewritten):
        assert run(capsys, *argv, str(path)) == (0, "", "")
    assert rewritten.read_bytes() == fresh.read_bytes()
    assert json.loads(fresh.read_text())["g"] == 2


def test_out_through_a_symlink_updates_the_target(capsys, tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("old contents, longer than the new ones" * 1000)
    link.symlink_to(target.name)
    code, expected, _ = run(capsys, *COMPUTE, "--format", "json")
    assert run(capsys, *COMPUTE, "--format", "json", "--out", str(link))[0] == 0
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_bytes() == expected.encode()


def test_out_keeps_the_inode_hard_links_and_mode(capsys, tmp_path):
    path, other = tmp_path / "out.txt", tmp_path / "hard-link.txt"
    path.write_text("x" * 50_000)
    path.chmod(0o640)
    os.link(path, other)
    before = path.stat()
    assert run(capsys, *COMPUTE, "--out", str(path))[0] == 0
    after = path.stat()
    assert (after.st_ino, after.st_mode, after.st_nlink) == \
        (before.st_ino, before.st_mode, 2)
    assert other.read_bytes() == path.read_bytes() != b"x" * 50_000


def test_a_new_out_file_gets_the_umask_mode(capsys, tmp_path):
    path = tmp_path / "new.txt"
    old = os.umask(0o027)
    try:
        assert run(capsys, *COMPUTE, "--out", str(path))[0] == 0
    finally:
        os.umask(old)
    assert path.stat().st_mode & 0o777 == 0o640


def test_out_to_devnull(capsys):
    assert run(capsys, *COMPUTE, "--format", "json", "--out", os.devnull) == (0, "", "")


def test_out_to_a_fifo_delivers_the_whole_output(capsys, tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    try:
        code = main([*VERIFY, "--format", "json", "--out", str(fifo)])
    finally:
        reader.join(timeout=10)
        if reader.is_alive():  # the writer never opened the FIFO: end the read
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=10)
    assert code == 0 and not reader.is_alive()
    code, expected, _ = run(capsys, *VERIFY, "--format", "json")
    assert received == [expected.encode()]


@pytest.mark.parametrize("argv", [VERIFY, [*COMPUTE, "--format", "json"]])
@pytest.mark.parametrize("where, reason", [
    ("missing/x.json", "No such file or directory"),
    (".", "Is a directory"),
])
def test_an_unwritable_out_is_a_parameter_error(capsys, tmp_path, argv, where, reason):
    path = tmp_path / where
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 2 and out == ""
    assert err == f"error: cannot write --out {path}: {reason}\n"


def _file_writers(tree: ast.AST) -> list[tuple[int, str]]:
    """Calls that may open a file for writing: (line, what)."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        name = fn.id if isinstance(fn, ast.Name) else \
            fn.attr if isinstance(fn, ast.Attribute) else None
        if name in ("write_text", "write_bytes"):
            found.append((node.lineno, name))
        elif name == "open" and isinstance(fn, ast.Attribute) \
                and isinstance(fn.value, ast.Name) and fn.value.id == "os":
            found.append((node.lineno, "os.open"))
        elif name == "open":
            # builtin open(file, mode) or Path(...).open(mode)
            args = node.args[1:2] if isinstance(fn, ast.Name) else node.args[:1]
            mode = next((k.value for k in node.keywords if k.arg == "mode"),
                        args[0] if args else ast.Constant("r"))
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+")):
                found.append((node.lineno, "open"))
    return sorted(found)


def test_emit_is_the_only_file_writer():
    import higgsbetti.cli
    package = Path(higgsbetti.cli.__file__).parent
    outside, in_emit = [], []
    for source in sorted(package.glob("*.py")):
        tree = ast.parse(source.read_text(), filename=str(source))
        emit = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name == "_emit"]
        inside = {line for fn in emit for line, _ in _file_writers(fn)}
        outside += [(source.name, line, what) for line, what in _file_writers(tree)
                    if line not in inside]
        in_emit += [(source.name, what) for fn in emit for _, what in _file_writers(fn)]
    assert outside == []
    # the check sees the writer it exempts, so it is not vacuous
    assert ("cli.py", "open") in in_emit


def _calls(tree: ast.AST, owner: str, name: str) -> list[ast.Call]:
    """The calls of ``owner.name`` (``name`` alone when owner is empty)."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and (isinstance(node.func, ast.Attribute) and node.func.attr == name
                 and isinstance(node.func.value, ast.Name) and node.func.value.id == owner
                 or isinstance(node.func, ast.Name) and not owner and node.func.id == name)]


def _reads(tree: ast.AST, attr: str) -> list[int]:
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and node.attr == attr and isinstance(node.value, ast.Name)
            and node.value.id == "args"]


def test_the_cli_only_parses_arguments_and_formats_output():
    import higgsbetti.cli
    tree = ast.parse(Path(higgsbetti.cli.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    # JSON documents are written by the one renderer; besides them, only a
    # failed verify suite's counterexample is one line of JSON in its text
    dumps = _calls(tree, "json", "dumps")
    in_render = _calls(functions["_render"], "json", "dumps")
    [line] = [call for call in dumps if call not in in_render]
    assert line in _calls(functions["cmd_verify"], "json", "dumps") and in_render
    commands = {name: fn for name, fn in functions.items() if name.startswith("cmd_")}
    for name, fn in commands.items():
        # a command leaves --format to _render and branches on no --op
        assert _reads(fn, "format") == [], name
        tests = [node.test for node in ast.walk(fn) if isinstance(node, (ast.If, ast.IfExp))]
        tests += [node.subject for node in ast.walk(fn) if isinstance(node, ast.Match)]
        tests += [node for node in ast.walk(fn) if isinstance(node, ast.Compare)]
        assert [line for t in tests for line in _reads(t, "op")] == [], name
    # each command's --format choices are exactly the formats its _render builds
    parser = higgsbetti.cli.build_parser([name.removeprefix("cmd_") for name in commands])
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    for command, sp in subparsers.choices.items():
        fmt = next((a for a in sp._actions if a.dest == "format"), None)
        offered = set(fmt.choices) if fmt else {sp.get_default("format")}
        [render] = _calls(commands[sp.get_default("fn").__name__], "", "_render")
        assert {k.arg for k in render.keywords} == offered, command
