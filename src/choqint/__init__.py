"""Choquet integral calculus on intervals [a, t] with respect to distorted
Lebesgue measures: forward integrals by three cross-checking routes, the
inverse problem (Choquet derivative), and distortion identification."""

from .capacity import (
    Distortion,
    IntervalCapacity,
    MonotoneCertificate,
    distorted_capacity,
)
from .choquet import (
    ChoquetProblem,
    HereditaryCheck,
    check_hereditary,
    choquet_convolution,
    choquet_general,
    choquet_level_set,
    shift_to_origin,
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
    invert_laplace,
    solve_problem1,
    solve_problem2,
    solve_problem3,
    transform_of,
)
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # expressions
    "Expr", "parse", "evaluate", "differentiate", "render", "substitute",
    # capacities
    "Distortion", "IntervalCapacity", "MonotoneCertificate", "distorted_capacity",
    # forward integrals
    "ChoquetProblem", "HereditaryCheck",
    "choquet_level_set", "choquet_convolution", "choquet_general",
    "check_hereditary", "shift_to_origin",
    # quadrature
    "QuadratureConfig", "DEFAULT_QUADRATURE",
    # transforms and solvers
    "InversionConfig", "DEFAULT_INVERSION",
    "transform_of", "invert_laplace",
    "SolveReport", "Verdict",
    "solve_problem1", "solve_problem2", "solve_problem3",
    # errors
    "ChoqintError", "ParseError", "DomainError", "NonDifferentiableError",
    "InvalidDistortionError", "NotInFPlusError", "InvalidIntervalError",
    "DivergentIntegralError", "NonPositiveSError", "OriginNotZeroError",
    "GVanishesError",
]
