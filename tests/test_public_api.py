"""The package exports only what a caller needs; internals live in their
modules."""

import choqint
from choqint.errors import ChoqintError, InvalidArgumentError

PUBLIC = {
    "__version__",
    # expressions
    "Expr", "parse", "evaluate", "differentiate", "render", "substitute",
    # capacities
    "Distortion", "IntervalCapacity", "MonotoneCertificate", "distorted_capacity",
    # forward integrals
    "ChoquetProblem", "HereditaryCheck", "choquet_level_set", "choquet_convolution",
    "choquet_general", "check_hereditary", "shift_to_origin",
    # configurations
    "QuadratureConfig", "DEFAULT_QUADRATURE", "InversionConfig", "DEFAULT_INVERSION",
    # transforms and solvers
    "transform_of", "invert_laplace", "SolveReport", "Verdict",
    "solve_problem1", "solve_problem2", "solve_problem3",
    # errors
    "ChoqintError", "ParseError", "DomainError", "NonDifferentiableError",
    "InvalidDistortionError", "NotInFPlusError", "InvalidIntervalError",
    "DivergentIntegralError", "NonPositiveSError", "OriginNotZeroError",
    "GVanishesError",
}


def test_all_is_the_public_surface():
    assert len(choqint.__all__) == len(PUBLIC) == 40
    assert set(choqint.__all__) == PUBLIC


def test_a_refused_argument_is_a_value_error_outside_the_public_names():
    # every library check of a caller's argument raises this type, which the
    # command line maps to exit 2
    assert issubclass(InvalidArgumentError, ChoqintError)
    assert issubclass(InvalidArgumentError, ValueError)
    assert issubclass(choqint.InvalidIntervalError, InvalidArgumentError)
    assert "InvalidArgumentError" not in choqint.__all__


def test_every_public_name_resolves():
    for name in choqint.__all__:
        assert hasattr(choqint, name), name
