"""Fixtures shared by the lint tests."""

import pytest

from repro.analysis import dataflow, rules
from repro.analysis.dataflow import index_functions
from repro.analysis.rules import apply_suppressions, collect_findings
from repro.analysis.walker import collect_sources, default_package_root


@pytest.fixture(scope="session")
def real_sources():
    """The shipped ``repro`` tree, parsed once per test session."""
    return collect_sources([default_package_root()])


@pytest.fixture(scope="session")
def real_index(real_sources):
    """The shipped tree's function index, the one a lint run shares."""
    return index_functions(real_sources)


@pytest.fixture(scope="session")
def real_index_builds():
    """The size of every function index the session's real-tree lint built."""
    return []


@pytest.fixture(scope="session")
def real_findings(real_sources, real_index_builds):
    """Every raw (pre-waiver) finding of every rule on the shipped tree:
    the session's one real-tree lint, which the per-family tests filter.
    Each function index it builds is recorded in ``real_index_builds``."""
    def counted(sources):
        real_index_builds.append(len(sources))
        return index_functions(sources)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rules, "index_functions", counted)
        patch.setattr(dataflow, "index_functions", counted)
        return collect_findings(real_sources)


@pytest.fixture(scope="session")
def real_unwaived(real_sources, real_findings):
    """What ``python -m repro lint`` would print for the shipped tree."""
    return apply_suppressions(real_findings, real_sources)
