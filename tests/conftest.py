"""Fixtures shared by the lint tests."""

import pytest

from repro.analysis.rules import apply_suppressions, collect_findings
from repro.analysis.walker import collect_sources, default_package_root


@pytest.fixture(scope="session")
def real_sources():
    """The shipped ``repro`` tree, parsed once per test session."""
    return collect_sources([default_package_root()])


@pytest.fixture(scope="session")
def real_findings(real_sources):
    """Every raw (pre-waiver) finding of every rule on the shipped tree:
    the session's one real-tree lint, which the per-family tests filter."""
    return collect_findings(real_sources)


@pytest.fixture(scope="session")
def real_unwaived(real_sources, real_findings):
    """What ``python -m repro lint`` would print for the shipped tree."""
    return apply_suppressions(real_findings, real_sources)
