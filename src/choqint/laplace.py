"""Numeric Laplace machinery and the three solvers of the integral equation

    f(t) = f(a) + (C) int_a^t g dmu,     mu = m o lambda,  f(a) = 0.

Rebasing everything at the origin (f_a(r) = f(r + a), g_a(r) = g(r + a))
turns the equation into an ordinary convolution on [0, inf), whose transform
factorizes as  F_a(s) = s M(s) G_a(s).  Each solver isolates one factor:

    problem 1 (integrate):  f(t) = Linv[ s M(s) G_a(s) ](t - a)
    problem 2 (derive):     g(t) = Linv[ F_a(s) / (s M(s)) ](t - a)
    problem 3 (identify):   m(u) = Linv[ F_a(s) / (s G_a(s)) ](u)

Inversion is Gaver-Stehfest: real-axis only, which is what lets the forward
transforms be computed numerically.  Every solve is cross-checked by an
independent convolution of the recovered samples before a verdict is issued.
"""

from __future__ import annotations

import math
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np

from .capacity import (
    MONOTONE_SLACK,
    Distortion,
    MonotoneCertificate,
    certify_samples,
    require_f_plus,
)
from .choquet import (
    ChoquetProblem,
    _rebased,
    _require_window,
    as_grid,
    choquet_convolution,
)
from .errors import (
    DivergentIntegralError,
    DomainError,
    GVanishesError,
    NonPositiveSError,
    OriginNotZeroError,
)
from .exprlang import Expr, evaluate, render
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig, convolve, integrate

__all__ = [
    "InversionConfig",
    "DEFAULT_INVERSION",
    "TRANSFORM_QUADRATURE",
    "forward_laplace",
    "transform_of",
    "invert_laplace",
    "stehfest_weights",
    "Verdict",
    "SolveReport",
    "solve_problem1",
    "solve_problem2",
    "solve_problem3",
]

LN2 = math.log(2.0)

#: truncation target of the tail bound exp(-sT) (1 + h(T)) (1 + 1/s)
TAIL_BOUND = 1e-12

#: transforms are refined to the rounding floor: Stehfest weights amplify
#: uncorrelated per-node errors by ~1e7, so anything looser leaks into the
#: inverted values; a transform that misses it raises DivergentIntegralError
TRANSFORM_QUADRATURE = QuadratureConfig(
    subintervals=48,
    nodes_per_subinterval=24,
    refinement_tolerance=1e-14,
    max_refinements=7,
    endpoint_grading=0.5,
)

#: transform values kept between solves, over every kept expression
KEPT_TRANSFORM_VALUES = 8192

#: relative defect allowed before a recovered solution is rejected
RESIDUAL_THRESHOLD = 1e-2

#: a monotonicity violation larger than this fraction of the value scale is
#: decisive; smaller ones yield Inconclusive instead of a false negative
DECISIVE_RATIO = 1e-3


@dataclass(frozen=True)
class InversionConfig:
    stehfest_terms: int = 16

    def __post_init__(self):
        if self.stehfest_terms % 2 != 0 or not 8 <= self.stehfest_terms <= 20:
            raise ValueError("stehfest_terms must be even and between 8 and 20")


DEFAULT_INVERSION = InversionConfig()


@lru_cache(maxsize=8)
def stehfest_weights(n: int) -> tuple[float, ...]:
    """Salzer summation weights, computed exactly before rounding once."""
    half = n // 2
    weights = []
    for k in range(1, n + 1):
        total = Fraction(0)
        for j in range((k + 1) // 2, min(k, half) + 1):
            total += Fraction(
                j ** half * math.factorial(2 * j),
                math.factorial(half - j) * math.factorial(j)
                * math.factorial(j - 1) * math.factorial(k - j)
                * math.factorial(2 * j - k),
            )
        weights.append(float(total * (-1) ** (k + half)))
    return tuple(weights)


def _solve_tridiagonal(sub, diag, sup, rhs) -> np.ndarray:
    """Thomas elimination for the tridiagonal system whose row i reads
    sub[i] x[i-1] + diag[i] x[i] + sup[i] x[i+1] = rhs[i]."""
    n = len(diag)
    # no pivoting: the spline's end rows are not diagonally dominant, but
    # for increasing knots every pivot stays positive
    c, r = [0.0] * n, [0.0] * n
    c[0], r[0] = sup[0] / diag[0], rhs[0] / diag[0]
    for i in range(1, n):
        den = diag[i] - sub[i] * c[i - 1]
        c[i] = sup[i] / den
        r[i] = (rhs[i] - sub[i] * r[i - 1]) / den
    x = r
    for i in range(n - 2, -1, -1):
        x[i] -= c[i] * x[i + 1]
    return np.array(x)


class _CubicSpline:
    """Not-a-knot cubic spline through (x, y) and its exact derivative.

    The knot slopes solve the C2 system closed by a continuous third
    derivative at the second and the next-to-last knot, so the spline
    reproduces cubic polynomials; beyond the end knots the end cubics
    continue."""

    def __init__(self, x, y):
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        if (self.x.ndim != 1 or self.x.size < 4 or self.y.shape != self.x.shape
                or np.any(np.diff(self.x) <= 0.0)):
            raise ValueError("knots must be strictly increasing, at least four")
        h = np.diff(self.x)
        d = np.diff(self.y) / h
        n = self.x.size
        sub, diag, sup, rhs = np.zeros(n), np.empty(n), np.zeros(n), np.empty(n)
        sub[1:-1], diag[1:-1], sup[1:-1] = h[1:], 2.0 * (h[:-1] + h[1:]), h[:-1]
        rhs[1:-1] = 3.0 * (h[1:] * d[:-1] + h[:-1] * d[1:])
        w = h[0] + h[1]
        diag[0], sup[0] = h[1], w
        rhs[0] = ((h[0] + 2.0 * w) * h[1] * d[0] + h[0] ** 2 * d[1]) / w
        w = h[-2] + h[-1]
        sub[-1], diag[-1] = w, h[-2]
        rhs[-1] = (h[-1] ** 2 * d[-2] + (2.0 * w + h[-1]) * h[-2] * d[-1]) / w
        k = _solve_tridiagonal(sub.tolist(), diag.tolist(), sup.tolist(), rhs.tolist())
        # cell i: y_i + k_i r + c2_i r^2 + c3_i r^3 with r = q - x_i
        self.k = k
        self.c2 = (3.0 * d - 2.0 * k[:-1] - k[1:]) / h
        self.c3 = (k[:-1] + k[1:] - 2.0 * d) / h ** 2

    def _cell(self, q):
        q = np.asarray(q, dtype=float)
        i = np.clip(np.searchsorted(self.x, q, side="right") - 1, 0, self.x.size - 2)
        return i, q - self.x[i]

    def __call__(self, q):
        i, r = self._cell(q)
        return self.y[i] + r * (self.k[i] + r * (self.c2[i] + r * self.c3[i]))

    def derivative(self, q):
        i, r = self._cell(q)
        return self.k[i] + r * (2.0 * self.c2[i] + 3.0 * r * self.c3[i])


class _SampleStore:
    """The samples of one transformed function, shared by every ``s`` it
    serves.

    ``ladder[k]`` is the tail penalty log(1 + |h(2^k)|) of the truncation
    search (inf where h overflows), grown one rung at a time as searches
    reach it, so a function defined only on a window raises where a search
    leaves the window, never earlier.  ``passes`` maps a quadrature pass,
    (T, number of nodes), to h at its nodes: every transform integrates
    with ``TRANSFORM_QUADRATURE``, so the nodes of a pass over [0, T]
    depend on nothing else.
    """

    def __init__(self, h: Callable[[np.ndarray], np.ndarray]):
        # an Expr is callable too: Expr.__call__ is evaluate
        self.fn = lambda pts: np.asarray(h(pts), dtype=float)
        self.ladder: list[float] = []
        self.passes: dict[tuple[float, int], np.ndarray] = {}

    def rung(self, k: int) -> float:
        while len(self.ladder) <= k:
            try:
                h_T = abs(float(self.fn(np.array([2.0 ** len(self.ladder)]))[0]))
                penalty = math.log1p(h_T) if math.isfinite(h_T) else math.inf
            except DomainError as exc:
                if exc.reason != "non-finite result":
                    raise
                penalty = math.inf  # overflowed: the bound certainly fails here
            self.ladder.append(penalty)
        return self.ladder[k]

    def values(self, T: float, points: np.ndarray) -> np.ndarray:
        key = (T, points.size)
        if key not in self.passes:
            self.passes[key] = self.fn(points)
        return self.passes[key]


def _truncation_exponent(store: _SampleStore, s: float, target: float,
                         start: int = 0) -> int:
    """Smallest k >= ``start`` whose T = 2^k satisfies
    exp(-sT) (1+|h(T)|) (1+1/s) <= target.

    A search for a tighter target may resume at the window of a looser
    one: every rung below it failed the looser target, so it fails the
    tighter one too, and the window found is the same."""
    log_target = math.log(target)
    log_factor = math.log1p(1.0 / s)
    for k in range(start, 120):
        if -s * 2.0 ** k + store.rung(k) + log_factor <= log_target:
            return k
    raise DivergentIntegralError(
        "no truncation window: the function outgrows exp(-s t) "
        f"at s = {s!r}"
    )


def forward_laplace(h: Callable[[np.ndarray], np.ndarray], s: float, *,
                    _store: _SampleStore | None = None) -> float:
    """Numeric transform int_0^T exp(-s t) h(t) dt with a certified tail.

    T satisfies exp(-sT) (1 + h(T)) (1 + 1/s) <= 1e-12 and is then extended
    until the same bound is small relative to the transform value itself
    (absolute tail errors at different s would otherwise be amplified by the
    Stehfest weights).  ``h`` must be defined and polynomially bounded on
    [0, inf); exponential growth raises :class:`DivergentIntegralError`.

    ``h`` is sampled through a sample store: the truncation ladder h(2^k)
    and h at the nodes of each quadrature pass.  ``transform_of`` passes
    the store of its function, so every s it serves shares the samples;
    called alone, the transform builds a store of its own and drops it on
    return.  Either way the values are the same bits.
    """
    s = float(s)
    if s <= 0.0:
        raise NonPositiveSError(f"transform variable must be positive, got {s!r}")
    store = _SampleStore(h) if _store is None else _store

    def transform_to(T: float) -> float:
        def integrand(points: np.ndarray) -> np.ndarray:
            out = np.multiply(points, -s)
            np.exp(out, out=out)
            out *= store.values(T, points)
            return out

        return integrate(integrand, 0.0, T, TRANSFORM_QUADRATURE, absolute_floor=0.0)

    k = _truncation_exponent(store, s, TAIL_BOUND)
    first = transform_to(2.0 ** k)
    if first == 0.0:
        return first
    # floored at the smallest normal float, 2^-1022: a subnormal value's target would round to 0
    target = max(min(TAIL_BOUND, 1e-14 * abs(first)), 2.0 ** -1022)
    k_refined = _truncation_exponent(store, s, target, start=k)
    if k_refined == k:
        return first
    return transform_to(2.0 ** k_refined)


#: the s -> value memos of transformed expressions, kept across solves
#: (see ``transform_of``), least recently used first
_KEPT: OrderedDict[str, dict[float, float]] = OrderedDict()
# solves in several threads share the kept memos
_KEPT_LOCK = threading.Lock()


def _keep(key: str, memo: dict[float, float]) -> None:
    """Keep a dropped closure's values under ``key``, as the most recently
    used memo; then drop whole memos, least recently used first, until at
    most ``KEPT_TRANSFORM_VALUES`` values are kept.  A memo above the cap on
    its own is not kept, and takes the values kept under its key with it."""
    if not memo:
        return
    with _KEPT_LOCK:
        memo.update(_KEPT.pop(key, ()))
        if len(memo) > KEPT_TRANSFORM_VALUES:
            return
        _KEPT[key] = memo
        kept = sum(map(len, _KEPT.values()))
        while kept > KEPT_TRANSFORM_VALUES:
            kept -= len(_KEPT.popitem(last=False)[1])


def transform_of(h: Callable[[np.ndarray], np.ndarray]) -> Callable[[float], float]:
    """Memoized s -> L(h)(s), the working representation of a transform.

    The closure owns one sample store of ``h`` (see ``forward_laplace``):
    h is evaluated once per truncation rung and once per quadrature pass,
    whatever the number of s served; the samples live as long as the
    closure, which a solver keeps for one solve.  The values of an ``Expr``
    outlive the closure, up to ``KEPT_TRANSFORM_VALUES`` of them in the
    process, so a later solve with the same expression, a distortion say,
    transforms only the s it has not seen.  They are keyed by ``render(h)``,
    the text that evaluates identically, not by ``Expr`` equality:
    ``t*0.0 == t*-0.0``, yet the two evaluate to zeros of opposite sign.
    A transform depends only on how h evaluates and on s, so a kept value
    has the bits of a fresh one.  The closure starts from a copy of the kept
    values and adds its own to them when it is dropped (``_keep``), so a
    solve never loses values under it, and taking a value costs one dict
    store.  A callable's memo lives with its closure.
    """
    store = _SampleStore(h)
    key = render(h) if isinstance(h, Expr) else None
    with _KEPT_LOCK:
        memo = dict(_KEPT.get(key, ()))

    def fn(s: float) -> float:
        if s not in memo:
            memo[s] = forward_laplace(h, s, _store=store)
        return memo[s]

    if key is not None:
        weakref.finalize(fn, _keep, key, memo).atexit = False
    return fn


def invert_laplace(F: Callable[[float], float], t: float,
                   cfg: InversionConfig = DEFAULT_INVERSION) -> float:
    """Gaver-Stehfest inversion (ln 2 / t) sum_k V_k F(k ln 2 / t)."""
    t = float(t)
    if t <= 0.0:
        raise ValueError(f"inversion time must be positive, got {t!r}")
    weights = stehfest_weights(cfg.stehfest_terms)
    scale = LN2 / t
    return scale * math.fsum(w * F((k + 1) * scale) for k, w in enumerate(weights))


# ---------------------------------------------------------------------------
# Solvers

class Verdict(Enum):
    EXISTS = "Exists"
    DOES_NOT_EXIST = "DoesNotExistInFPlus"
    INCONCLUSIVE = "Inconclusive"


@dataclass
class SolveReport:
    """Samples of the recovered function plus the evidence for the verdict."""

    grid: np.ndarray
    values: np.ndarray
    certificate: MonotoneCertificate
    residual: float
    verdict: Verdict
    first_point_excluded: bool = False

    @property
    def samples(self) -> list[tuple[float, float]]:
        return list(zip(self.grid.tolist(), self.values.tolist()))


def _inversion_grid(a: float, t_grid: np.ndarray) -> np.ndarray:
    """Inversion at t - a = 0 is undefined: a grid that starts exactly at a
    is nudged to a + span/1000, or halfway to its second point where that
    one is nearer (from 1001 points on)."""
    grid = as_grid(t_grid, a)
    if grid.size < 2:
        raise ValueError("solver grid needs at least 2 points")
    if grid[0] > a:
        return grid
    nudged = a + (grid[-1] - grid[0]) / 1000.0
    if not a < nudged < grid[1]:
        nudged = a + (grid[1] - a) / 2.0
        if not a < nudged < grid[1]:
            raise ValueError("solver grid has no point between a and its second point")
    grid = grid.copy()
    grid[0] = nudged
    return grid


def _invert_on_grid(F: Callable[[float], float], offsets: np.ndarray,
                    inversion: InversionConfig) -> np.ndarray:
    return np.array([invert_laplace(F, u, inversion) for u in offsets])


def _flag_first_point(values: np.ndarray) -> bool:
    """Inversion can blow up against the left edge; a wild first sample is
    excluded from the certificate (only the first may be excluded)."""
    if values.size < 3:
        return False
    v0 = values[0]
    rest = np.abs(values[1:])
    return bool(not math.isfinite(v0) or abs(v0) > 100.0 * (rest.max() + 1.0))


def _noise_slack(values: np.ndarray, floor: float = MONOTONE_SLACK) -> float:
    """Certificate slack for inverted samples, at least ``floor``: the
    Stehfest floor is ~1e-7 relative, so flat stretches of a genuinely
    monotone recovery wiggle at that scale and must not read as violations."""
    scale = float(np.max(np.abs(values))) if values.size else 0.0
    return max(floor, 1e-6 * scale)


def _solver_verdict(values: np.ndarray, cert: MonotoneCertificate, residual: float,
                    residual_tol: float, decisive_ratio: float,
                    strictly_increasing: bool = False) -> Verdict:
    """Decisive when the certificate's worst negativity or drop exceeds
    ``decisive_ratio`` times the value scale."""
    scale = max(1.0, float(np.max(np.abs(values))) if values.size else 0.0)
    if cert.max_violation > decisive_ratio * scale:
        return Verdict.DOES_NOT_EXIST
    ok = cert.is_monotone
    if strictly_increasing:
        ok = ok and bool(np.all(np.diff(values) > 1e-12)) and bool(np.all(values >= 0.0))
    if ok and residual <= residual_tol:
        return Verdict.EXISTS
    return Verdict.INCONCLUSIVE


def _require_tolerances(**tolerances: float) -> None:
    """Each solver tolerance must be finite and nonnegative (NaN is neither)."""
    for name, value in tolerances.items():
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


def solve_problem1(g: Expr, d: Distortion, a: float, t_grid,
                   quadrature: QuadratureConfig = DEFAULT_QUADRATURE,
                   inversion: InversionConfig = DEFAULT_INVERSION,
                   residual_threshold: float = 1e-3) -> SolveReport:
    """Forward problem by transform inversion, cross-checked by quadrature.

    Residual is the worst relative gap against the direct convolution route;
    the verdict certifies that the computed f is itself admissible.
    """
    _require_tolerances(residual_threshold=residual_threshold)
    problem = ChoquetProblem(a, g, d, t_grid)
    grid = problem.t_grid
    G = transform_of(_rebased(g, a))
    M = transform_of(d.m)

    def F(s: float) -> float:
        return s * M(s) * G(s)

    offsets = grid - a
    values = np.zeros_like(offsets)
    positive = offsets > 0.0
    values[positive] = _invert_on_grid(F, offsets[positive], inversion)

    reference = choquet_convolution(problem, quadrature)
    residual = float(np.max(np.abs(values - reference) / (1.0 + np.abs(reference))))

    cert = certify_samples(grid, values, _noise_slack(values))
    verdict = _solver_verdict(values, cert, residual, residual_threshold, DECISIVE_RATIO)
    return SolveReport(grid, values, cert, residual, verdict)


def _solve_inverse(f: Expr, a: float, t_grid, quadrature: QuadratureConfig,
                   inversion: InversionConfig, residual_threshold: float,
                   decisive_ratio: float, monotone_slack: float, *,
                   denominator: Callable[[float], float], denominator_name: str,
                   kernel: Callable[[np.ndarray], np.ndarray], recovers_m: bool,
                   admissible: tuple = ()) -> SolveReport:
    """The inverse pipeline shared by problems 2 and 3, on offsets u = t - a.

    Checks f(a) = 0 and that f (and the ``admissible`` named expressions)
    are in F+, inverts F_a(s) / denominator(s), excludes a wild first
    sample, and certifies the rest.  The recovery is then verified by a
    not-a-knot cubic spline with knots at 0, a graded ladder
    u_0 {1/16, 1/8, 1/4, 1/2, 3/4} in the leading gap (u_0 the first kept
    offset) and the kept report offsets: the report values are reused and
    only the five ladder offsets are inverted again.  The spline is
    convolved against ``kernel`` at every kept offset in one batched pass
    (see ``quadrature.convolve``); f must be reproduced within
    ``residual_threshold`` for the verdict Exists.  The spline's error is
    fourth order, so the residual follows the error of the recovery rather
    than the interpolant's.  With ``recovers_m`` the samples are a
    distortion m, pinned at m(0) = 0, whose step density (the spline's
    derivative) meets the kernel g_a, and the report grid is u itself;
    otherwise they are g, extrapolated linearly to u = 0 from the first two
    ladder samples, against the kernel m'.
    """
    _require_tolerances(residual_threshold=residual_threshold,
                        decisive_ratio=decisive_ratio, monotone_slack=monotone_slack)
    grid = _inversion_grid(a, t_grid)
    f_at_a = evaluate(f, a)
    if abs(f_at_a) > 1e-9:
        raise OriginNotZeroError(f"f(a) = {f_at_a!r}, the equation requires f(a) = 0")
    for name, h in (("f", f), *admissible):
        require_f_plus(name, h, a, grid[-1])

    Fa = transform_of(_rebased(f, a))

    def Q(s: float) -> float:
        den = denominator(s)
        if den == 0.0 or abs(den) < 1e-280:
            raise GVanishesError(f"{denominator_name} vanished at s = {s!r}")
        return Fa(s) / den

    offsets = grid - a
    values = _invert_on_grid(Q, offsets, inversion)
    report_grid = offsets if recovers_m else grid

    excluded = _flag_first_point(values)
    kept = slice(1, None) if excluded else slice(None)
    kept_values = values[kept]
    cert = certify_samples(report_grid[kept], kept_values,
                           _noise_slack(kept_values, monotone_slack))

    kept_u = offsets[kept]
    ladder = kept_u[0] * np.array([1 / 16, 1 / 8, 1 / 4, 1 / 2, 3 / 4])
    ladder_v = _invert_on_grid(Q, ladder, inversion)
    knots_u = np.concatenate(([0.0], ladder, kept_u))
    # g at u = 0 is the line through the ladder's first two samples, at
    # u_0/16 and u_0/8, clipped at 0
    at_zero = 0.0 if recovers_m else max(0.0, 2.0 * ladder_v[0] - ladder_v[1])
    spline = _CubicSpline(knots_u, np.concatenate(([at_zero], ladder_v, kept_values)))
    # identify convolves the step density of m against g, derive g against m'
    recovered = spline.derivative if recovers_m else spline
    reproduced = convolve(kernel, recovered, kept_u, knots_u, quadrature.nodes_per_subinterval)
    target = evaluate(f, grid[kept])
    residual = float(np.max(np.abs(reproduced - target) / (1.0 + np.abs(target))))

    verdict = _solver_verdict(kept_values, cert, residual, residual_threshold,
                              decisive_ratio, strictly_increasing=recovers_m)
    return SolveReport(report_grid, values, cert, residual, verdict, excluded)


def solve_problem2(f: Expr, d: Distortion, a: float, t_grid,
                   quadrature: QuadratureConfig = DEFAULT_QUADRATURE,
                   inversion: InversionConfig = DEFAULT_INVERSION,
                   residual_threshold: float = RESIDUAL_THRESHOLD,
                   decisive_ratio: float = DECISIVE_RATIO,
                   monotone_slack: float = MONOTONE_SLACK) -> SolveReport:
    """Recover the derivative g of f with respect to the distorted measure.

    g(t) = Linv[F_a(s) / (s M(s))](t - a).  The recovered samples are
    certified for admissibility (slack at least ``monotone_slack``) and fed
    back, as a cubic spline, through the forward convolution against m';
    f must be reproduced within ``residual_threshold`` for the verdict
    Exists.  The distortion's window [0, d.upper] must cover the longest
    interval, t_grid[-1] - a, or :class:`InvalidDistortionError` is raised
    before any transform is taken.
    """
    _require_window(d, float(as_grid(t_grid, a)[-1]) - a)
    M = transform_of(d.m)
    return _solve_inverse(
        f, a, t_grid, quadrature, inversion, residual_threshold, decisive_ratio, monotone_slack,
        denominator=lambda s: s * M(s), denominator_name="s M(s)",
        kernel=d.density, recovers_m=False)


def solve_problem3(f: Expr, g: Expr, a: float, t_grid,
                   quadrature: QuadratureConfig = DEFAULT_QUADRATURE,
                   inversion: InversionConfig = DEFAULT_INVERSION,
                   residual_threshold: float = RESIDUAL_THRESHOLD,
                   decisive_ratio: float = DECISIVE_RATIO,
                   monotone_slack: float = MONOTONE_SLACK) -> SolveReport:
    """Identify the distortion m from f and g.

    m(u) = Linv[F_a(s) / (s G_a(s))](u).  The distortion lives on interval
    lengths, so the report grid is the input grid shifted to the measure
    domain (t - a).  Verdict Exists needs nonnegative, strictly increasing
    samples whose convolution against g reproduces f within
    ``residual_threshold``.
    """
    g_a = _rebased(g, a)
    G = transform_of(g_a)
    return _solve_inverse(
        f, a, t_grid, quadrature, inversion, residual_threshold, decisive_ratio, monotone_slack,
        denominator=lambda s: s * G(s), denominator_name="s G_a(s)",
        kernel=g_a, recovers_m=True, admissible=(("g", g),))
