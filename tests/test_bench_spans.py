"""The benchmark's tracer wraps functions by name; every name it lists must
resolve in the package, or ``bench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


# the tracer also counts transform lookups through laplace.transform_of
@pytest.mark.parametrize("module_name,path", [
    (module_name, path) for module_name, paths in _traced().items() for path in paths
] + [("laplace", "transform_of")])
def test_traced_name_resolves(module_name, path):
    owner = importlib.import_module(f"choqint.{module_name}")
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)
