"""The e2e benchmark's traced pass patches the program by name.

``benchmarks/e2e/layers.py`` lists the boundaries it wraps: a method in
``METHODS`` must be defined in that class's own ``__dict__`` (the
patcher reads ``cls.__dict__[method]``), and a function in
``FUNCTIONS`` must resolve in its module.  A refactor that moves or
renames one breaks the traced pass; this catches it without running
the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("_e2e_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _layers()


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
