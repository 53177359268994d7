import json
import os

import pytest

from higgsbetti.cli import main
from higgsbetti.params import MAX_GENUS, MAX_ORDER


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
    assert "2g-2" in err


def test_compute_rejects_misplaced_maximal_provider(capsys):
    code, _, err = run(
        capsys, "compute", "--group", "u21", "--genus", "2", "--d1", "0",
        "--d2", "0", "--provider", "maximal")
    assert code == 2 and "maximal" in err


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
])
def test_verify_refuses_a_bad_grid(capsys, grid, message):
    code, out, err = run(capsys, "verify", "--suite", "route-u21", "--grid", grid)
    assert code == 2 and out == ""
    assert message in err
