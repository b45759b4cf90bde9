"""Forward Choquet integration over [a, t] by three routes.

For a nondecreasing integrand g and a capacity mu, the Choquet integral is

    (C) int_a^t g dmu = g(a) mu([a, t]) + int_{g(a)}^{g(t)} mu([s_alpha, t]) dalpha

where s_alpha is the leftmost point with g >= alpha (every superlevel set of
g on [a, t] is an interval).  That level-set form is the brute-force oracle.
Two fast routes exist when mu([tau, t]) is differentiable in tau:

    (C) int_a^t g dmu = - int_a^t  d/dtau mu([tau, t]) g(tau) dtau

and, for a distorted Lebesgue measure mu([u, v]) = m(v - u),

    (C) int_a^t g dmu = int_a^t m'(t - tau) g(tau) dtau.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .capacity import (
    Distortion,
    IntervalCapacity,
    _tau_derivative_grid,
    require_f_plus,
)
from .errors import InvalidIntervalError
from .exprlang import Add, Expr, Num, Var, build, evaluate, substitute
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig, integrate

__all__ = [
    "ChoquetProblem",
    "as_grid",
    "uniform_grid",
    "choquet_level_set",
    "choquet_convolution",
    "choquet_general",
    "check_hereditary",
    "shift_to_origin",
    "HereditaryCheck",
]

Measure = Union[Distortion, IntervalCapacity]

#: absolute tolerance, in tau, of the level-set bisection
BISECTION_TOL = 1e-12


def as_grid(points) -> np.ndarray:
    """Validate a strictly increasing evaluation grid."""
    grid = np.asarray(points, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ValueError("grid must be a non-empty 1-d sequence")
    if grid.size > 1 and np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly increasing")
    return grid


def uniform_grid(start: float, stop: float, points: int) -> np.ndarray:
    if points < 2:
        raise ValueError("grid needs at least 2 points")
    if stop <= start:
        raise ValueError("stop must exceed start")
    return np.linspace(start, stop, points)


@dataclass(frozen=True)
class ChoquetProblem:
    """Interval origin, integrand, measure, and evaluation grid of one
    Choquet integral equation.  Construction certifies the integrand; the
    measure, a :class:`Distortion` or an :class:`IntervalCapacity`, is
    trusted as it was built (a distortion is validated there)."""

    a: float
    g: Expr
    measure: Measure
    t_grid: np.ndarray

    def __post_init__(self):
        grid = as_grid(self.t_grid)
        if grid[0] < self.a:
            raise ValueError("t_grid must start at or after a")
        object.__setattr__(self, "t_grid", grid)
        require_f_plus("g", self.g, self.a, grid[-1])


def _check_t(problem: ChoquetProblem, t: float) -> None:
    if t < problem.a:
        raise InvalidIntervalError(f"t = {t!r} precedes the origin a = {problem.a!r}")


def choquet_level_set(problem: ChoquetProblem, t: float,
                      cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Brute-force route straight from the superlevel-set definition.

    The alpha-integrand mu([s_alpha, t]) is found by bisection on the
    predicate g(tau) >= alpha, which needs only continuity and monotonicity
    of g (leftmost crossing, so flat spots resolve to the left edge).
    """
    _check_t(problem, t)
    if t == problem.a:
        return 0.0
    a = problem.a
    g = problem.g
    g_a = evaluate(g, a)
    g_t = evaluate(g, t)
    base = g_a * float(problem.measure.evaluate(a, t))
    if g_t <= g_a:
        return base

    def alpha_integrand(alphas: np.ndarray) -> np.ndarray:
        lo = np.full_like(alphas, a)
        hi = np.full_like(alphas, t)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            reached = evaluate(g, mid) >= alphas
            hi = np.where(reached, mid, hi)
            lo = np.where(reached, lo, mid)
            if float(np.max(hi - lo)) <= BISECTION_TOL:
                break
        return np.asarray(problem.measure.evaluate(hi, t), dtype=float)

    return base + integrate(alpha_integrand, g_a, g_t, cfg)


def _convolution_integrand(problem: ChoquetProblem, a: float, t: float):
    """m'(u) g(t - u) on u = t - tau in [0, t - a], for an origin a at or
    after the problem's.  A distortion with m' singular at 0 (concave m) is
    then sampled near u = 0, where floats are dense, instead of near tau = t."""
    d, g = problem.measure, problem.g
    return lambda u: d.density(u) * evaluate(g, np.maximum(t - u, a))


def _general_integrand(problem: ChoquetProblem, a: float, t: float):
    """-d/dtau mu([tau, t]) g(tau) at tau = t - u, u in [0, t - a], for an
    origin a at or after the problem's.

    The difference step at u is min(h, 1e-5 min(u, t - a - u)).  h =
    1e-5 max(1, t - a) follows the interval length, not the position t, so
    a far-off origin does not coarsen it; the distance to the nearer end
    keeps the step from straddling a singular m' of a concave m at tau = t.
    """
    cap, g = problem.measure, problem.g
    h = 1e-5 * max(1.0, t - a)

    def integrand(u: np.ndarray) -> np.ndarray:
        taus = np.maximum(t - u, a)
        steps = np.minimum(h, 1e-5 * np.minimum(u, t - a - u))
        return -_tau_derivative_grid(cap, taus, t, steps, a) * evaluate(g, taus)

    return integrand


def choquet_convolution(problem: ChoquetProblem, t: float,
                        cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Fast route for distorted Lebesgue measures: int_a^t m'(t-tau) g(tau) dtau."""
    if not isinstance(problem.measure, Distortion):
        raise TypeError("convolution route requires a distorted Lebesgue measure")
    _check_t(problem, t)
    return integrate(_convolution_integrand(problem, problem.a, t), 0.0, t - problem.a, cfg)


def choquet_general(problem: ChoquetProblem, t: float,
                    cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """General-capacity route: - int_a^t d/dtau mu([tau, t]) g(tau) dtau."""
    _check_t(problem, t)
    return integrate(_general_integrand(problem, problem.a, t), 0.0, t - problem.a, cfg)


class HereditaryCheck(NamedTuple):
    lhs: float
    rhs: float
    gap: float


def check_hereditary(problem: ChoquetProblem, a_split: float, t: float,
                     cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> HereditaryCheck:
    """Verify that the integral over [a, t] decomposes at a_split.

    lhs is the Choquet integral over the whole of [a, t].  rhs adds the
    genuine Choquet integral of the same g over [a_split, t] to the
    complementary contribution of [a, a_split] at the same outer level t
    (the kernel keeps its argument t, which is exactly what makes the
    decomposition an identity; the two standalone integrals alone do not
    add up, because the measure is not additive).
    """
    _check_t(problem, t)
    if not problem.a <= a_split <= t:
        raise InvalidIntervalError(
            f"split {a_split!r} must lie between a = {problem.a!r} and t = {t!r}"
        )
    if isinstance(problem.measure, Distortion):
        integrand_of = _convolution_integrand
    else:
        integrand_of = _general_integrand
    whole = integrand_of(problem, problem.a, t)
    lhs = integrate(whole, 0.0, t - problem.a, cfg)
    # the genuine integral over [a_split, t] restricts the certified g; it
    # is empty, so 0, when a_split = t
    main = integrate(integrand_of(problem, a_split, t), 0.0, t - a_split, cfg)
    # [a, a_split] is u in [t - a_split, t - a]
    complement = integrate(whole, t - a_split, t - problem.a, cfg)
    rhs = complement + main
    return HereditaryCheck(lhs, rhs, abs(lhs - rhs))


def _rebased(h: Expr, a: float) -> Expr:
    """h(r + a) as an expression in r: [a, t] carried to [0, t - a]."""
    return substitute(h, build(Add, Var(), Num(a)))


def shift_to_origin(problem: ChoquetProblem) -> ChoquetProblem:
    """Rebase the problem at a = 0: integrand r -> g(r + a), measure and
    grid shifted by a.  A distortion, translation invariant, is its own
    shift; the rebased g is a new expression tree, which the new problem
    certifies."""
    a = problem.a
    return ChoquetProblem(0.0, _rebased(problem.g, a), problem.measure.shifted(a),
                          problem.t_grid - a)
