"""The e2e benchmark's traced pass patches the program by name.

``benchmarks/e2e/layers.py`` lists the boundaries it wraps: a method in
``METHODS`` must be defined in that class's own ``__dict__`` (the
patcher reads ``cls.__dict__[method]``), and a function in
``FUNCTIONS`` must resolve in its module.  The patcher also reads
``Simulator.__dict__["process"]``, and ``run.py`` empties and reads the
verification cache through ``workloads.crypto``.  A refactor that moves
or renames one of these breaks the benchmark; this catches it without
running it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.sim.clock import Simulator

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_e2e_{name}", E2E / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up
    spec.loader.exec_module(module)
    return module


LAYERS = _load("layers")


@pytest.mark.parametrize("module_name, class_name, method", [
    (module_name, class_name, method)
    for entries in LAYERS.METHODS.values()
    for module_name, class_name, methods in entries
    for method in methods
])
def test_method_boundary_is_defined_on_its_class(module_name, class_name, method):
    cls = getattr(importlib.import_module(module_name), class_name)
    assert callable(cls.__dict__.get(method))


@pytest.mark.parametrize("module_name, function", [
    entry for entries in LAYERS.FUNCTIONS.values() for entry in entries
])
def test_function_boundary_resolves(module_name, function):
    assert callable(getattr(importlib.import_module(module_name), function, None))


def test_the_patcher_wraps_the_simulators_own_process():
    assert callable(Simulator.__dict__.get("process"))


def test_run_reaches_the_verification_cache_through_workloads_crypto():
    crypto = _load("workloads").crypto
    crypto.reset_verification_cache()
    stats = crypto.verification_cache_stats()
    assert (stats["hits"], stats["misses"]) == (0, 0)
