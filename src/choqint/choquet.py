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
from .errors import DivergentIntegralError, InvalidDistortionError, InvalidIntervalError
from .exprlang import Add, Expr, Num, Var, build, evaluate, substitute
from .quadrature import (
    DEFAULT_QUADRATURE,
    QuadratureConfig,
    _pass_nodes,
    integrate,
)

__all__ = [
    "ChoquetProblem",
    "as_grid",
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

#: most alpha nodes bisected at once by the level-set route: the nodes of
#: every grid point share one bisection, in batches small enough that the
#: expression temporaries stay in cache and peak memory stays flat
LEVEL_SET_BATCH = 8192


def as_grid(points) -> np.ndarray:
    """Validate a strictly increasing evaluation grid."""
    grid = np.asarray(points, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ValueError("grid must be a non-empty 1-d sequence")
    if grid.size > 1 and np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly increasing")
    return grid


@dataclass(frozen=True)
class ChoquetProblem:
    """Interval origin, integrand, measure, and evaluation grid of one
    Choquet integral equation; every route evaluates it on ``t_grid``.
    Construction certifies the integrand on [a, t_grid[-1]]; the measure, a
    :class:`Distortion` or an :class:`IntervalCapacity`, is trusted as it
    was built (a distortion is validated there, and its window must cover
    the longest interval, t_grid[-1] - a)."""

    a: float
    g: Expr
    measure: Measure
    t_grid: np.ndarray

    def __post_init__(self):
        grid = as_grid(self.t_grid)
        if grid[0] < self.a:
            raise ValueError("t_grid must start at or after a")
        object.__setattr__(self, "t_grid", grid)
        if isinstance(self.measure, Distortion):
            _require_window(self.measure, float(grid[-1] - self.a))
        require_f_plus("g", self.g, self.a, grid[-1])


def _require_window(d: Distortion, span: float) -> None:
    """The validation window [0, d.upper] must cover the longest interval
    length ``span`` that the distortion is asked about."""
    if d.upper < span:
        raise InvalidDistortionError(
            f"distortion validated on [0, {d.upper!r}], shorter than "
            f"the longest interval t - a = {span!r}"
        )


def _batched(fn, out: np.ndarray, cost: int = 1) -> np.ndarray:
    """out[part] = fn(part) for consecutive slices ``part`` of ``out``, each
    of at most LEVEL_SET_BATCH nodes, where an entry costs ``cost`` nodes
    (an entry that costs more than LEVEL_SET_BATCH goes alone)."""
    step = max(1, LEVEL_SET_BATCH // cost)
    for start in range(0, out.size, step):
        part = slice(start, start + step)
        out[part] = fn(part)
    return out


def _level_points(g: Expr, a: float, alphas: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """s_alpha, the leftmost tau in [a, t] with g(tau) >= alpha, for every
    (alpha, t) pair, by bisection on that predicate, which needs only
    continuity and monotonicity of g (flat spots resolve to the left edge).

    A bracket is final once it is within BISECTION_TOL or its ends are
    adjacent floats that halving no longer moves: the midpoint is ``hi``, or
    it is ``lo`` where g(lo) < alpha is known.  Beyond |a| of about 1e4 no
    bracket can reach the tolerance, so that second rule ends the loop."""
    lo = np.full_like(alphas, a)
    hi = ts.copy()
    lo_below = np.zeros(alphas.shape, dtype=bool)
    mid = 0.5 * (lo + hi)
    for _ in range(100):
        reached = evaluate(g, mid) >= alphas
        hi = np.where(reached, mid, hi)
        lo = np.where(reached, lo, mid)
        lo_below |= ~reached
        mid = 0.5 * (lo + hi)
        if np.all((hi - lo <= BISECTION_TOL) | (mid == hi) | ((mid == lo) & lo_below)):
            break
    return hi


def _alpha_integrals(problem: ChoquetProblem, ts: np.ndarray, g_a: float, g_ts: np.ndarray,
                     cfg: QuadratureConfig) -> np.ndarray:
    """int_{g(a)}^{g(t_i)} mu([s_alpha, t_i]) dalpha for every t_i, with
    :func:`integrate`'s mesh doubling and stopping rule per point.  The
    alpha nodes of one refinement level of every unconverged point are
    bisected together, LEVEL_SET_BATCH nodes at a time."""
    a, g, mu = problem.a, problem.g, problem.measure

    def quadrature_pass(points: np.ndarray, cells: int) -> np.ndarray:
        passes = [_pass_nodes(g_a, float(g_ts[i]), cells, cfg.endpoint_grading,
                              cfg.nodes_per_subinterval) for i in points]
        alphas = np.concatenate([nodes for nodes, _ in passes])
        owners, per_point = ts[points], passes[0][0].size

        def level_measure(part: slice) -> np.ndarray:
            nodes = alphas[part]
            t_nodes = owners[np.arange(part.start, part.start + nodes.size) // per_point]
            return mu.evaluate(_level_points(g, a, nodes, t_nodes), t_nodes)

        # each batch's mu([s_alpha, t]) overwrites the alpha nodes it came from
        levels = _batched(level_measure, alphas).reshape(len(passes), per_point)
        return np.array([float(values @ weights)
                         for (_, weights), values in zip(passes, levels)])

    cells = cfg.subintervals
    pending = np.arange(ts.size)
    prev = quadrature_pass(pending, cells)
    out = np.empty(ts.size)
    for _ in range(cfg.max_refinements):
        cells *= 2
        cur = quadrature_pass(pending, cells)
        done = np.abs(cur - prev) <= cfg.refinement_tolerance * (1.0 + np.abs(cur))
        out[pending[done]] = cur[done]
        pending, prev = pending[~done], cur[~done]
        if not pending.size:
            return out
    raise DivergentIntegralError(
        f"quadrature did not stabilize after {cfg.max_refinements} mesh doublings "
        f"at t = {float(ts[pending[0]])!r}"
    )


def choquet_level_set(problem: ChoquetProblem,
                      cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> np.ndarray:
    """Brute-force route straight from the superlevel-set definition, at
    every point of the problem's grid.

    The alpha-integrand mu([s_alpha, t]) bisects for s_alpha; s_alpha
    depends on alpha alone, so one bisection serves the nodes of every t.
    Each t keeps its own convergence test.
    """
    a, g, ts = problem.a, problem.g, problem.t_grid
    g_a = float(evaluate(g, a))
    g_ts = _batched(lambda part: evaluate(g, ts[part]), np.empty(ts.size))
    values = g_a * _batched(lambda part: problem.measure.evaluate(a, ts[part]),
                            np.empty(ts.size))
    values[ts == a] = 0.0
    open_ = (ts > a) & (g_ts > g_a)
    if np.any(open_):
        values[open_] += _alpha_integrals(problem, ts[open_], g_a, g_ts[open_], cfg)
    return values


def _convolution_integrand(problem: ChoquetProblem, a: float, t: float):
    """m'(u) g(t - u) on u = t - tau in [0, t - a], for an origin a at or
    after the problem's.  A distortion with m' singular at 0 (concave m) is
    then sampled near u = 0, where floats are dense, instead of near tau = t."""
    d, g = problem.measure, problem.g
    return lambda u: d.density(u) * evaluate(g, np.maximum(t - u, a))


def _general_integrand(problem: ChoquetProblem, a: float, t: float):
    """-d/dtau mu([tau, t]) g(tau) at tau = t - u, u in [0, t - a], for an
    origin a at or after the problem's.

    The difference step at u is 1e-5 min(u, t - a - u).  It follows the
    distance to the nearer end of the interval, not the position t, so a
    far-off origin does not coarsen it, and it never straddles a singular
    m' of a concave m at tau = t.
    """
    cap, g = problem.measure, problem.g

    def integrand(u: np.ndarray) -> np.ndarray:
        taus = np.maximum(t - u, a)
        steps = 1e-5 * np.minimum(u, t - a - u)
        return -_tau_derivative_grid(cap, taus, t, steps, a) * evaluate(g, taus)

    return integrand


def _integrate_on_grid(problem: ChoquetProblem, integrand_of,
                       cfg: QuadratureConfig) -> np.ndarray:
    """int_0^{t - a} integrand_of(problem, a, t) du at every t of the grid."""
    a = problem.a
    return np.array([integrate(integrand_of(problem, a, t), 0.0, t - a, cfg)
                     for t in problem.t_grid.tolist()])


def choquet_convolution(problem: ChoquetProblem,
                        cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> np.ndarray:
    """Fast route for distorted Lebesgue measures, int_a^t m'(t-tau) g(tau)
    dtau at every point of the problem's grid."""
    if not isinstance(problem.measure, Distortion):
        raise TypeError("convolution route requires a distorted Lebesgue measure")
    return _integrate_on_grid(problem, _convolution_integrand, cfg)


def choquet_general(problem: ChoquetProblem,
                    cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> np.ndarray:
    """General-capacity route, - int_a^t d/dtau mu([tau, t]) g(tau) dtau at
    every point of the problem's grid."""
    return _integrate_on_grid(problem, _general_integrand, cfg)


class HereditaryCheck(NamedTuple):
    lhs: float
    rhs: float
    gap: float


def check_hereditary(problem: ChoquetProblem, a_split: float,
                     cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> HereditaryCheck:
    """Verify that the integral over [a, t] decomposes at a_split, at the
    end of the problem's grid, t = t_grid[-1].

    lhs is the Choquet integral over the whole of [a, t].  rhs adds the
    genuine Choquet integral of the same g over [a_split, t] to the
    complementary contribution of [a, a_split] at the same outer level t
    (the kernel keeps its argument t, which is exactly what makes the
    decomposition an identity; the two standalone integrals alone do not
    add up, because the measure is not additive).
    """
    t = float(problem.t_grid[-1])
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
