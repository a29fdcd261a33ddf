"""Fixtures shared across test modules."""

import pytest

from carafe.gradcheck import DEFAULT_TOL, check_op


@pytest.fixture(scope="session")
def registry_report():
    """check_op(name, seed=0, tol=tol), computed once per session per (name,
    tol), so criterion 5 and the registry tests assert on the same reports.
    Both ask from the default tier, the fast one."""
    reports = {}

    def report(name, tol=DEFAULT_TOL):
        if (name, tol) not in reports:
            reports[name, tol] = check_op(name, seed=0, tol=tol)
        return reports[name, tol]

    return report
