"""Empties the process-wide assembly store before each test, and prints
one pass/fail line per acceptance criterion after the run."""

import re

import pytest

_ACCEPTANCE = re.compile(r"test_acceptance\.py::test_criterion_(\w+)")


@pytest.fixture(autouse=True)
def _empty_assembly_store():
    # a test that patches the program's internals must build, not be
    # served a result that another test built
    from higgsbetti import assemble

    assemble._store.cache_clear()


def pytest_terminal_summary(terminalreporter):
    lines = []
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            m = _ACCEPTANCE.search(getattr(report, "nodeid", ""))
            if m:
                lines.append((m.group(1), status.upper()))
    if not lines:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, status in sorted(lines):
        word = "PASS" if status == "PASSED" else "FAIL"
        terminalreporter.write_line(f"criterion {name}: {word}")
