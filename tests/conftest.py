"""Prints one pass/fail line per acceptance criterion after the run, and
holds the oracles that more than one test module uses."""

import re

import pytest

from higgsbetti.ingredients import jacobian_poincare, projective_poincare

_ACCEPTANCE = re.compile(r"test_acceptance\.py::test_criterion_(\w+)")


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


@pytest.fixture
def maximal_first_term():
    """The maximal-case telescoping sum of (g, order)

        P(J)^2 P(CP^{2g-3})/(1-t^2) + t^{4g-4} P(J)^2/(1-t^2)^2,

    which collapses to P(J)^2/(1-t^2)^2 exactly."""
    def first_term(g, order):
        jac = jacobian_poincare(g, order)
        first = (jac * jac * projective_poincare(2 * g - 3, order)).over_one_minus(2)
        second = (jac * jac).over_one_minus(2, 2).shifted(4 * g - 4)
        return first + second

    return first_term
