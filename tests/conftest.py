"""Fixtures shared by the lint tests."""

import pytest

from repro.analysis.walker import collect_sources, default_package_root


@pytest.fixture(scope="session")
def real_sources():
    """The shipped ``repro`` tree, parsed once per test session."""
    return collect_sources([default_package_root()])
