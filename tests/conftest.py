"""Shared fixtures: the expensive sweeps run once per session, and
acceptance verdict lines are replayed in the terminal summary so they stay
visible under output capture."""

from __future__ import annotations

import pytest

from acceptance_log import ACCEPTANCE_LINES

from bianchisurf.census import leading_constants_bundle
from bianchisurf.verify import SWEEP_DS, sweep


@pytest.fixture(scope="session")
def master_sweep():
    """Order and area reports over the master range (every d, D <= 200)."""
    return sweep()


@pytest.fixture(scope="session")
def constants_bundle():
    """Leading-constant reports at the default truncation prime."""
    return leading_constants_bundle(SWEEP_DS)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
