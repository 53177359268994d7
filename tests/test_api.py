import copy
import dataclasses
import os
import pickle
import pprint
import subprocess
import sys
from pathlib import Path

import pytest

import higgsbetti
from higgsbetti import cli, verify
from higgsbetti.assemble import TermValue, u21_closed_form
from higgsbetti.errors import ParameterError
from higgsbetti.ingredients import jacobian_block
from higgsbetti.params import make_params
from higgsbetti.series import RationalExpr, TruncatedSeries
from higgsbetti.strata import StratumDescriptor
from higgsbetti.verify import SuiteResult, verify_route_equivalence


def test_every_exported_name_resolves():
    for name in higgsbetti.__all__:
        assert getattr(higgsbetti, name, None) is not None, name
    assert len(set(higgsbetti.__all__)) == len(higgsbetti.__all__)


def test_no_module_checks_with_assert():
    # ``python -O`` drops assert statements, so a suite check written as
    # one would pass whatever it checks; CI runs ``verify`` under -O
    import ast

    package = Path(higgsbetti.__file__).parent
    asserts = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.Assert)]
    assert len(list(package.glob("*.py"))) > 10 and asserts == []


def test_every_builder_is_reachable_by_its_name():
    # the benchmark's tracer and the README look the builders up by name
    from higgsbetti import assemble

    for fn in assemble.BUILDERS.values():
        assert getattr(assemble, fn.__name__) is fn
        assert getattr(higgsbetti, fn.__name__) is fn
        assert fn.__doc__


# the identities the verify suites check, and their records
IDENTITY_API = ("RouteEquivalenceReport", "torelli_anomalous_part", "verify_route_equivalence")


@pytest.mark.parametrize("name", IDENTITY_API)
def test_the_identity_api_lives_in_verify_alone(name):
    from higgsbetti import assemble, series

    assert getattr(higgsbetti, name) is getattr(verify, name)
    assert not hasattr(assemble, name) and not hasattr(series, name)


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


# what no compute process runs: verify's suites, JSON, file paths and
# exact rationals (``fractions`` imports ``decimal``), as a compute decides
# its comparisons on integers
NOT_FOR_COMPUTE = {"higgsbetti.verify", "json", "pathlib", "fractions", "decimal"}


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
    "ModuliParams": lambda: make_params(2, 1, 0),
    "AssemblyResult": lambda: u21_closed_form(P, None, 12),
    "RouteEquivalenceReport": lambda: verify_route_equivalence("u21", P, 12),
    "SuiteResult": lambda: SuiteResult("laws", True, True, ["checked"]),
    "TruncatedSeries": lambda: TruncatedSeries((1, 2, 3)),
    "RationalExpr": lambda: RationalExpr((1, 1), (4, 2)),
    "StratumDescriptor": lambda: StratumDescriptor("A", 0, P),
    "TermValue": lambda: TermValue("x", ((1, 0, ((1, 1),)),), jacobian_block(2, 0), 5),
}
# a dict or list field makes these unhashable, as they always were
UNHASHABLE = {"AssemblyResult", "RouteEquivalenceReport", "SuiteResult"}


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
    assert dataclasses.replace(P, d1=3) == make_params(2, 3, 0)
    with pytest.raises(ParameterError):
        dataclasses.replace(TruncatedSeries((1, 2)), coeffs=(1.5,))


def test_a_replaced_result_reads_its_mode_and_order_from_its_series():
    result = VALUES["AssemblyResult"]()
    assert (result.mode, result.order) == ("relative", 12)
    assert result._replace(unknown={}).mode == "absolute"
    cut = dataclasses.replace(result, series=result.series.truncated(5))
    assert cut.order == 5 and cut.to_json_dict()["order"] == 5
    assert not {"order", "mode"} & set(type(result)._fields)
    assert "order" not in VALUES["RouteEquivalenceReport"]()._fields


def test_values_with_different_fields_differ():
    assert TruncatedSeries((1, 2, 3)) != TruncatedSeries((1, 2, 4))
    assert RationalExpr((1, 1), (2,)) != RationalExpr((1, 1), (4,))
    assert StratumDescriptor("A", 0, P) != StratumDescriptor("A", 0, make_params(2, 0, 0))


def test_term_values_compare_by_label_and_expansion():
    # t + t^2 as one entry, and as two
    plain = jacobian_block(2, 0)
    one = TermValue("x", ((1, 1, ((1, 1),)),), plain, 5)
    two = TermValue("x", ((1, 1, ((1,),)), (1, 2, ((1,),))), plain, 5)
    assert one == two and hash(one) == hash(two)
    assert one != TermValue("y", one.entries, plain, 5)


def test_series_and_rational_expressions_never_equal_a_tuple():
    s = TruncatedSeries((1, 2, 3))
    for other in ((1, 2, 3), ((1, 2, 3),), s.coeffs):
        assert s != other and other != s
    r = RationalExpr((1, 1), (2,))
    for other in (((1, 1), (2,)), (1, 1), r.numerator):
        assert r != other and other != r
