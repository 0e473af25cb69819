"""Fixtures shared by the lint tests, and the Hypothesis profiles.

Tier-1 runs the ``derandomized`` profile: every property test draws the
same examples on every run (seeded from the test itself, no example
database), so a pass or a failure reproduces.  ``scripts/check.sh``
selects ``fresh`` (``--hypothesis-profile=fresh``): new random draws
each run, with failing examples saved and replayed, so the gate still
finds new counterexamples.
"""

import pytest
from hypothesis import settings

from repro.analysis import dataflow, rules
from repro.analysis.dataflow import index_functions
from repro.analysis.rules import apply_suppressions, collect_findings
from repro.analysis.walker import collect_sources, default_package_root

settings.register_profile("derandomized", derandomize=True, database=None)
settings.register_profile("fresh", derandomize=False)
settings.load_profile("derandomized")


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
