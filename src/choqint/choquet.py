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

import math
from dataclasses import dataclass, fields
from typing import NamedTuple, Union

import numpy as np

from .capacity import (
    Distortion,
    IntervalCapacity,
    _tau_derivative_grid,
    require_f_plus,
)
from .errors import (
    DivergentIntegralError,
    InvalidArgumentError,
    InvalidDistortionError,
    InvalidIntervalError,
)
from .exprlang import Add, Expr, Num, Sub, Var, build, evaluate
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig, integrate_rows

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


def as_grid(points, a: float) -> np.ndarray:
    """Validate a finite, strictly increasing evaluation grid that starts at
    or after the origin ``a``, itself finite."""
    if not math.isfinite(a):
        raise InvalidArgumentError(f"the origin a must be finite, got {a!r}")
    grid = np.asarray(points, dtype=float)
    if grid.ndim != 1 or grid.size < 1 or not np.isfinite(grid).all():
        raise InvalidArgumentError("grid must be a non-empty 1-d sequence of finite points")
    if grid.size > 1 and np.any(np.diff(grid) <= 0.0):
        raise InvalidArgumentError("grid must be strictly increasing")
    if grid[0] < a:
        raise InvalidArgumentError(
            f"grid start {float(grid[0])!r} precedes the interval origin {float(a)!r}")
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
        grid = as_grid(self.t_grid, self.a)
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


def _midpoint(magnitude: float):
    """The bisection's midpoint of [lo, hi]: 0.5 (lo + hi), or, where the ends
    reach ``magnitude`` >= 2^1022 and lo + hi can overflow, 0.5 lo + 0.5 hi
    (the same bits for normal doubles, at a few percent more time)."""
    if magnitude < 2.0 ** 1022:
        return lambda lo, hi: 0.5 * (lo + hi)
    return lambda lo, hi: 0.5 * lo + 0.5 * hi


def _tree_points(a: float, ts: np.ndarray, depth: int, half) -> np.ndarray:
    """Row i: a, the midpoints of the first ``depth`` halvings of [a, ts_i]
    in increasing order, and ts_i (2^depth + 1 points), each midpoint the
    float the bisection computes from its bracket."""
    points = np.stack([np.full_like(ts, a), ts], axis=1)
    for _ in range(depth):
        finer = np.empty((ts.size, 2 * points.shape[1] - 1))
        finer[:, ::2] = points
        finer[:, 1::2] = half(points[:, :-1], points[:, 1:])
        points = finer
    return points


def _level_points(g: Expr, a: float, alphas: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """s_alpha, the leftmost tau in [a, t] with g(tau) >= alpha, for every
    (alpha, t) pair, by bisection on that predicate, which needs only
    continuity and monotonicity of g (flat spots resolve to the left edge).

    A bracket is final once it is within BISECTION_TOL or its ends are
    adjacent floats that halving no longer moves: the midpoint is ``hi``, or
    it is ``lo`` where g(lo) < alpha is known.  Beyond |a| of about 1e4 no
    bracket can reach the tolerance, so that second rule ends the loop.  Each
    bracket stops at its own first final halving, whatever the other pairs.

    The first ``depth`` halvings are read off one table: g at the 2^depth - 1
    midpoints they can visit in each run of pairs that share one t, no more
    points than the run has pairs.  Each pair walks the table with the
    halvings' own test, g(mid) >= alpha, so it reaches their bracket, bit
    for bit, monotone g or not; the loop goes on from there."""
    lo = np.full_like(alphas, a)
    hi = np.broadcast_to(ts, alphas.shape)
    magnitude = max(abs(a), float(np.max(np.abs(hi))))
    half = _midpoint(magnitude)
    # a final bracket is at most `closed` wide, and a halving keeps over half a bracket
    # less half an ulp: none is final before log2(narrowest/closed) - 1 halvings; test sooner
    narrowest = float(np.min(hi)) - a
    closed = max(BISECTION_TOL, float(np.spacing(magnitude)))
    first_test = (max(int(min(np.log2(narrowest / closed), 100.0)) - 3, 0)
                  if narrowest > closed else 0)
    starts = np.flatnonzero(np.concatenate(([True], hi[1:] != hi[:-1])))
    lengths = np.diff(np.append(starts, alphas.size))
    # no halving the table replaces may skip a stop test
    depth = min(int(lengths.min() + 1).bit_length() - 1, first_test)
    if depth:
        points = _tree_points(a, hi[starts], depth, half)
        table = np.empty_like(points)
        table[:, 1:-1] = evaluate(g, points[:, 1:-1])
        points, table = points.ravel(), table.ravel()
        # each pair's bracket [points[at], points[at + 1]] as the halvings narrow it:
        # the halving of level k probes the midpoint 2^k points to the right of lo
        at = np.repeat(np.arange(0, points.size, 2 ** depth + 1), lengths)
        for level in range(depth - 1, -1, -1):
            at += (table[2 ** level:].take(at) < alphas) << level
        lo, hi = points.take(at), points[1:].take(at)
    mid = half(lo, hi)
    for step in range(depth, 100):
        if step == first_test:
            # every halving so far split a bracket over 8 closed widths wide, so lo
            # moved whenever g(mid) < alpha: lo > a says whether it ever was
            lo_below = lo > a
        reached = evaluate(g, mid) >= alphas
        hi = np.where(reached, mid, hi)
        lo = np.where(reached, lo, mid)
        mid = half(lo, hi)
        if step >= first_test:
            lo_below |= ~reached
            final = (hi - lo <= BISECTION_TOL) | (mid == hi) | ((mid == lo) & lo_below)
            if final.all():
                break
            # a final bracket collapses onto hi, where further halvings move nothing
            lo = np.where(final, hi, lo)
            mid = np.where(final, hi, mid)
    return hi


def _level_integrand(problem: ChoquetProblem, a: float, t: float | np.ndarray):
    """mu([s_alpha, t]) as a function of alpha in [g(a), g(t)]."""
    return lambda alphas: problem.measure.evaluate(_level_points(problem.g, a, alphas, t), t)


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
    g_ts = np.broadcast_to(evaluate(g, ts), ts.shape)
    # as in float arithmetic, an overflow is inf, unwarned, until the check below
    with np.errstate(over="ignore", invalid="ignore"):
        values = g_a * np.broadcast_to(problem.measure.evaluate(a, ts), ts.shape)
    values[ts == a] = 0.0
    open_ = (ts > a) & (g_ts > g_a)
    integrals = integrate_rows(
        lambda rows, alphas: _level_integrand(problem, a, ts[rows])(alphas), g_a,
        np.where(open_, g_ts, g_a), cfg, at=ts)
    with np.errstate(over="ignore", invalid="ignore"):
        values[open_] += integrals[open_]
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise DivergentIntegralError(
            f"the level-set integral is not finite at t = {float(ts[bad[0]])!r}")
    return values


def _convolution_integrand(problem: ChoquetProblem, a: float, t: float | np.ndarray):
    """m'(u) g(t - u) on u = t - tau in [0, t - a], for an origin a at or
    after the problem's.  A distortion with m' singular at 0 (concave m) is
    then sampled near u = 0, where floats are dense, instead of near tau = t."""
    d, g = problem.measure, problem.g
    return lambda u: d.density(u) * evaluate(g, np.maximum(t - u, a))


def _general_integrand(problem: ChoquetProblem, a: float, t: float | np.ndarray):
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


def choquet_convolution(problem: ChoquetProblem,
                        cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> np.ndarray:
    """Fast route for distorted Lebesgue measures, int_a^t m'(t-tau) g(tau)
    dtau at every point of the problem's grid."""
    if not isinstance(problem.measure, Distortion):
        raise TypeError("convolution route requires a distorted Lebesgue measure")
    a, ts = problem.a, problem.t_grid
    return integrate_rows(lambda rows, u: _convolution_integrand(problem, a, ts[rows])(u),
                          0.0, ts - a, cfg, at=ts)


def choquet_general(problem: ChoquetProblem,
                    cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> np.ndarray:
    """General-capacity route, - int_a^t d/dtau mu([tau, t]) g(tau) dtau at
    every point of the problem's grid."""
    a, ts = problem.a, problem.t_grid
    return integrate_rows(lambda rows, u: _general_integrand(problem, a, ts[rows])(u),
                          0.0, ts - a, cfg, at=ts)


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
    integrand_of = (_convolution_integrand if isinstance(problem.measure, Distortion)
                    else _general_integrand)
    # rows: the whole of [a, t]; the genuine integral over [a_split, t], which
    # restricts the certified g (empty, so 0, when a_split = t); and the
    # complement [a, a_split], that is u in [t - a_split, t - a]
    origins = np.array([problem.a, a_split, problem.a])
    lhs, main, complement = integrate_rows(
        lambda rows, u: integrand_of(problem, origins[rows], t)(u),
        np.array([0.0, 0.0, t - a_split]), np.array([t - problem.a, t - a_split, t - problem.a]),
        cfg, at=np.full(3, t)).tolist()
    rhs = complement + main
    return HereditaryCheck(lhs, rhs, abs(lhs - rhs))


def _rebased(h: Expr, a: float) -> Expr:
    """h(r + a) as an expression in r: [a, t] carried to [0, t - a].  A
    constant added to ``x + c`` or ``x - c`` joins ``c`` where they add
    exactly, so a rebased ``t - a`` is ``r``, not ``r`` rounded at ``|a|``;
    only added constants move, which have no domain of their own.  (Not in
    ``build``: ``render`` must give back the tree it parsed.)"""
    if isinstance(h, (Var, Num)):
        return build(Add, Var(), Num(a)) if isinstance(h, Var) else h
    args = [_rebased(getattr(h, f.name), a) for f in fields(h)]
    lhs = args[0]
    if (type(h) in (Add, Sub) and type(lhs) in (Add, Sub)
            and isinstance(args[1], Num) and isinstance(lhs.rhs, Num)):
        inner = lhs.rhs.value if type(lhs) is Add else -lhs.rhs.value
        outer = args[1].value if type(h) is Add else -args[1].value
        total = inner + outer
        if inner - (total - (total - inner)) + (outer - (total - inner)) == 0.0:  # exact (TwoSum)
            return build(Add, lhs.lhs, Num(total))
    return build(type(h), *args)


def shift_to_origin(problem: ChoquetProblem) -> ChoquetProblem:
    """Rebase the problem at a = 0: integrand r -> g(r + a), measure and
    grid shifted by a.  A distortion, translation invariant, is its own
    shift; the rebased g is a new expression tree, which the new problem
    certifies."""
    a = problem.a
    return ChoquetProblem(0.0, _rebased(problem.g, a), problem.measure.shifted(a),
                          problem.t_grid - a)
