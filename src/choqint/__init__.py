"""Choquet integral calculus on intervals [a, t] with respect to distorted
Lebesgue measures: forward integrals by three cross-checking routes, the
inverse problem (Choquet derivative), and distortion identification."""

from .capacity import (
    Distortion,
    IntervalCapacity,
    MonotoneCertificate,
    capacity_tau_derivative,
    certify_samples,
    check_f_plus,
    distorted_capacity,
)
from .choquet import (
    ChoquetProblem,
    HereditaryCheck,
    as_grid,
    check_hereditary,
    choquet_convolution,
    choquet_general,
    choquet_level_set,
    shift_to_origin,
    uniform_grid,
)
from .errors import (
    ChoqintError,
    DivergentIntegralError,
    DomainError,
    GVanishesError,
    InvalidDistortionError,
    InvalidIntervalError,
    NonDifferentiableError,
    NonPositiveSError,
    NotInFPlusError,
    OriginNotZeroError,
    ParseError,
)
from .exprlang import Expr, differentiate, evaluate, parse, render, substitute
from .laplace import (
    DEFAULT_INVERSION,
    InversionConfig,
    SolveReport,
    Verdict,
    forward_laplace,
    invert_laplace,
    solve_problem1,
    solve_problem2,
    solve_problem3,
    stehfest_weights,
    transform_of,
)
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig, graded_mesh, integrate

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # expressions
    "Expr", "parse", "evaluate", "differentiate", "render", "substitute",
    # capacities
    "Distortion", "IntervalCapacity", "MonotoneCertificate",
    "certify_samples", "check_f_plus", "distorted_capacity",
    "capacity_tau_derivative",
    # forward integrals
    "ChoquetProblem", "HereditaryCheck", "as_grid", "uniform_grid",
    "choquet_level_set", "choquet_convolution", "choquet_general",
    "check_hereditary", "shift_to_origin",
    # quadrature
    "QuadratureConfig", "DEFAULT_QUADRATURE", "graded_mesh", "integrate",
    # transforms and solvers
    "InversionConfig", "DEFAULT_INVERSION",
    "forward_laplace", "transform_of", "invert_laplace", "stehfest_weights",
    "SolveReport", "Verdict",
    "solve_problem1", "solve_problem2", "solve_problem3",
    # errors
    "ChoqintError", "ParseError", "DomainError", "NonDifferentiableError",
    "InvalidDistortionError", "NotInFPlusError", "InvalidIntervalError",
    "DivergentIntegralError", "NonPositiveSError", "OriginNotZeroError",
    "GVanishesError",
]
