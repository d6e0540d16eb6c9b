"""Shared least-factor sieves from the oracles, built once per session."""

import sys

import pytest

from oracles import build_factor_sieve


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay acceptance verdict lines after capture is released."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "VERDICT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def sieve2():
    """F_2 sieve through degree 18; covers every desk-scale check."""
    return build_factor_sieve(2, 18)


@pytest.fixture(scope="session")
def sieve3():
    """F_3 sieve through degree 9."""
    return build_factor_sieve(3, 9)


@pytest.fixture(scope="session")
def sieve5():
    """F_5 sieve through degree 7."""
    return build_factor_sieve(5, 7)
