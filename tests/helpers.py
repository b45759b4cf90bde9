"""Shared oracles and problem builders for the test suite."""

import math

import numpy as np

from choqint import ChoquetProblem, Distortion, parse


def beta_integral(p: float, q: float, T: float) -> float:
    """Closed form of int_0^T (T - u)^p u^q du via the Beta function."""
    return T ** (p + q + 1) * math.gamma(p + 1) * math.gamma(q + 1) / math.gamma(p + q + 2)


def sqrt_forward_value(a: float, t: float) -> float:
    """Forward integral of g = sqrt(tau - a) against m = t^2/2.

    m'(x) = x, so the value is int_0^T (T - u) u^(1/2) du with T = t - a,
    which the Beta identity evaluates to (4/15) T^(5/2)."""
    return beta_integral(1.0, 0.5, t - a)


def sqrt_problem(a: float, t_grid) -> ChoquetProblem:
    g = parse(f"sqrt(t - ({a!r}))")
    grid = np.asarray(t_grid, dtype=float)
    d = Distortion.from_expression("t^2/2", upper=max(float(grid[-1]) - a, 1.0))
    return ChoquetProblem(a, g, d, grid)


def random_monotone_problem(rng: np.random.Generator) -> ChoquetProblem:
    """A random admissible problem on the grid [a, t]: monotone
    polynomial-plus-sqrt integrand, quadratic/cubic distortion, origin a in
    [-5, 5], span t - a up to 10."""
    a = float(rng.uniform(-5.0, 5.0))
    span = float(rng.uniform(0.5, 10.0))
    c = [float(x) for x in rng.uniform(0.0, 2.0, size=5)]
    d_coef = [float(x) for x in rng.uniform(0.05, 2.0, size=3)]
    shifted = f"(t - ({a!r}))"
    g_src = (f"{c[0]!r} + {c[1]!r}*{shifted} + {c[2]!r}*{shifted}^2"
             f" + {c[3]!r}*{shifted}^3 + {c[4]!r}*sqrt{shifted}")
    m_src = f"{d_coef[0]!r}*t + {d_coef[1]!r}*t^2 + {d_coef[2]!r}*t^3"
    t = a + span
    d = Distortion.from_expression(m_src, upper=span + 1.0)
    return ChoquetProblem(a, parse(g_src), d, np.array([a, t]))
