import higgsbetti
from higgsbetti import cli, verify


def test_every_exported_name_resolves():
    for name in higgsbetti.__all__:
        assert getattr(higgsbetti, name, None) is not None, name
    assert len(set(higgsbetti.__all__)) == len(higgsbetti.__all__)


def test_cli_runs_the_verify_suites_in_place():
    # one dict: code that swaps a suite in cli.SUITES changes what verify runs
    assert cli.SUITES is verify.SUITES
    assert cli.SuiteResult is verify.SuiteResult
