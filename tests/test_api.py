import copy
import dataclasses
import os
import pickle
import pprint
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import higgsbetti
from higgsbetti import cli, verify
from higgsbetti.assemble import (
    PLAIN,
    TermValue,
    moduli_poincare,
    u21_closed_form,
    verify_route_equivalence,
)
from higgsbetti.bradlow import _ProviderRecord
from higgsbetti.errors import ParameterError
from higgsbetti.ingredients import CoverParams
from higgsbetti.params import HalfInt, make_params
from higgsbetti.series import PolynomialWindow, RationalExpr, TruncatedSeries
from higgsbetti.strata import StratumDescriptor, StratumKind
from higgsbetti.verify import SuiteResult


def test_every_exported_name_resolves():
    for name in higgsbetti.__all__:
        assert getattr(higgsbetti, name, None) is not None, name
    assert len(set(higgsbetti.__all__)) == len(higgsbetti.__all__)


def test_cli_runs_the_verify_suites_in_place():
    # one dict: code that swaps a suite in cli.SUITES changes what verify runs
    assert cli.SUITES is verify.SUITES
    assert cli.SuiteResult is verify.SuiteResult


# ---------------------------------------------------------- import footprint


def _modules_loaded_by(statement: str) -> set[str]:
    """The modules a fresh interpreter loads to run ``statement``, beyond
    those its start-up loaded.  The interpreter runs without ``site``,
    whose ``.pth`` files may import modules (pathlib, say) of their own."""
    code = ("import sys; before = set(sys.modules); " + statement
            + "; print(); print(*sorted(set(sys.modules) - before))")
    src = str(Path(higgsbetti.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    return set(proc.stdout.splitlines()[-1].split())


# what no compute process runs: verify's suites, JSON and file paths
NOT_FOR_COMPUTE = {"higgsbetti.verify", "json", "pathlib"}


def test_the_cli_does_not_import_what_compute_never_runs():
    loaded = _modules_loaded_by("import higgsbetti.cli")
    assert "higgsbetti.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "higgsbetti.strata", *NOT_FOR_COMPUTE}


COMPUTE = ["compute", "-g", "2", "--d1", "2", "--d2", "1", "--group", "u21"]


@pytest.mark.parametrize("argv, needed", [
    ([*COMPUTE, "--format", "text"], set()),
    ([*COMPUTE, "--format", "csv", "--provider", "maximal"], set()),
    ([*COMPUTE, "--format", "json"], {"json"}),
    (["verify", "--suite", "gothen", "--grid", "g=2..2"], {"higgsbetti.verify"}),
])
def test_a_cli_process_imports_only_what_its_command_runs(argv, needed):
    loaded = _modules_loaded_by(
        f"import higgsbetti.cli; assert higgsbetti.cli.main({argv!r}) == 0")
    assert needed <= loaded
    assert not loaded & (NOT_FOR_COMPUTE - needed)


def test_importing_the_package_loads_no_submodule():
    loaded = _modules_loaded_by("import higgsbetti")
    assert "higgsbetti" in loaded
    assert not [m for m in loaded if m.startswith("higgsbetti.")]


def test_submodules_are_attributes_of_the_package():
    loaded = _modules_loaded_by(
        "import higgsbetti; higgsbetti.series.TruncatedSeries((1,))")
    assert "higgsbetti.series" in loaded and "higgsbetti.strata" not in loaded
    assert higgsbetti.strata.StratumDescriptor is StratumDescriptor
    assert {"assemble", "series", "strata"} <= set(dir(higgsbetti))
    with pytest.raises(AttributeError):
        higgsbetti.no_such_name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from higgsbetti import *", namespace)
    assert set(higgsbetti.__all__) <= set(namespace)
    assert set(higgsbetti.__all__) <= set(dir(higgsbetti))


# ------------------------------------------------------------- value classes

P = make_params(2, 1, 0)

# each factory builds a new value; two calls give equal values
VALUES = {
    "HalfInt": lambda: HalfInt(3),
    "ModuliParams": lambda: make_params(2, 1, 0),
    "PolynomialWindow": lambda: PolynomialWindow(True, 4, 2),
    "_ProviderRecord": lambda: _ProviderRecord(2, 1, Fraction(1),
                                               TruncatedSeries((1, 4)), None),
    "AssemblyResult": lambda: u21_closed_form(P, None, 12),
    "RouteEquivalenceReport": lambda: verify_route_equivalence("u21", P, 12),
    "ModuliReport": lambda: moduli_poincare(P, None, 12),
    "SuiteResult": lambda: SuiteResult("laws", True, True, ["checked"]),
    "TruncatedSeries": lambda: TruncatedSeries((1, 2, 3)),
    "RationalExpr": lambda: RationalExpr((1, 1), (4, 2)),
    "CoverParams": lambda: CoverParams(1, 2, 3),
    "StratumDescriptor": lambda: StratumDescriptor(StratumKind.A, HalfInt(0), P),
    "TermValue": lambda: TermValue("x", ((1, 0, ((1, 1),)),), PLAIN, 5),
}
# a dict or list field makes these unhashable, as they always were
UNHASHABLE = {"AssemblyResult", "RouteEquivalenceReport", "ModuliReport", "SuiteResult"}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_classes_are_immutable_and_compare_by_fields(name):
    a, b = VALUES[name](), VALUES[name]()
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b
    if name not in UNHASHABLE:
        assert hash(a) == hash(b)
    for field in type(a)._fields:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert a == b
    assert pickle.loads(pickle.dumps(a)) == a and copy.deepcopy(a) == a


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_classes_work_with_the_dataclasses_functions(name):
    a = VALUES[name]()
    assert dataclasses.is_dataclass(a) and dataclasses.is_dataclass(type(a))
    assert [f.name for f in dataclasses.fields(a)] == list(type(a)._fields)
    assert dataclasses.replace(a) == a
    assert dataclasses.asdict(a).keys() == set(type(a)._fields)
    pprint.pformat(a)


def test_dataclasses_replace_changes_one_field():
    result = VALUES["AssemblyResult"]()
    other = dataclasses.replace(result, series=-result.series)
    assert type(other) is type(result) and other != result
    assert other.series == -result.series and other.terms == result.terms
    assert dataclasses.replace(HalfInt(3), doubled=5) == HalfInt(5)
    with pytest.raises(ParameterError):
        dataclasses.replace(TruncatedSeries((1, 2)), coeffs=(1.5,))


def test_values_with_different_fields_differ():
    assert TruncatedSeries((1, 2, 3)) != TruncatedSeries((1, 2, 4))
    assert RationalExpr((1, 1), (2,)) != RationalExpr((1, 1), (4,))
    assert CoverParams(1, 2, 3) != CoverParams(2, 1, 3)
    assert StratumDescriptor(StratumKind.A, HalfInt(0), P) != \
        StratumDescriptor(StratumKind.A, HalfInt(0), make_params(2, 0, 0))


def test_term_values_compare_by_label_and_expansion():
    # t + t^2 as one entry, and as two
    one = TermValue("x", ((1, 1, ((1, 1),)),), PLAIN, 5)
    two = TermValue("x", ((1, 1, ((1,),)), (1, 2, ((1,),))), PLAIN, 5)
    assert one == two and hash(one) == hash(two)
    assert one != TermValue("y", one.entries, PLAIN, 5)


def test_half_integers_sort_by_value():
    values = [HalfInt(3), HalfInt(-1), HalfInt.from_int(1), HalfInt(1)]
    assert sorted(values) == [HalfInt(-1), HalfInt(1), HalfInt(2), HalfInt(3)]
    assert HalfInt(1) < HalfInt.from_int(1) <= HalfInt(2) < HalfInt(3)
    assert max(values) == HalfInt(3)


def test_series_and_rational_expressions_never_equal_a_tuple():
    s = TruncatedSeries((1, 2, 3))
    for other in ((1, 2, 3), ((1, 2, 3),), s.coeffs):
        assert s != other and other != s
    r = RationalExpr((1, 1), (2,))
    for other in (((1, 1), (2,)), (1, 1), r.numerator):
        assert r != other and other != r
