"""The benchmark's tracer wraps functions by name; every name it lists must
resolve in the package, or ``bench/run.py --trace 1`` breaks, and a traced
run must still see the layers it reports."""

import contextlib
import importlib
import importlib.util
import io
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the tracer also counts transform lookups through laplace.transform_of
@pytest.mark.parametrize("module_name,path", [
    (module_name, path) for module_name, paths in _spans().TRACED.items() for path in paths
] + [("laplace", "transform_of")])
def test_traced_name_resolves(module_name, path):
    owner = importlib.import_module(f"choqint.{module_name}")
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)


def test_traced_derive_shows_the_transform_layers():
    # transforms share their samples, so evaluate runs less often than
    # forward_laplace; the trace must still see transforms and their own
    # evaluations (the ladder's and the rule's levels), in a derive and in
    # an identify, whose transforms take many s at a time.  Transforms take
    # no Gauss-Legendre pass, and no other layer of an inverse solve does
    from choqint.cli import main

    for argv in (["derive", "--f", "pow(t-1,3.5)", "--m", "t^2/2", "--a", "1",
                  "--t", "1.1:3:5"],
                 ["identify", "--f", "pow(t-2,5.5)", "--g", "sqrt(t-2)", "--a", "2",
                  "--t", "2.1:5:10"]):
        tracer = _spans().Tracer()
        tracer.install()
        try:
            with (contextlib.redirect_stdout(io.StringIO()),
                  contextlib.redirect_stderr(io.StringIO())):
                code = main(argv)
        finally:
            tracer.uninstall()
        tracer.collect()
        metrics = {name: value for name, (value, _) in tracer.metrics().items()}
        assert code == 0, argv[0]
        assert metrics["laplace.transforms"] > 0, argv[0]
        assert metrics["quadrature.passes"] == 0, argv[0]
        assert metrics["laplace.truncation.evaluate_calls"] > 0, argv[0]
        assert metrics["exprlang.evaluate.calls"] < metrics["laplace.transforms"], argv[0]
