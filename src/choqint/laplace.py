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
    _defined,
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
    NON_FINITE_RESULT,
    DivergentIntegralError,
    DomainError,
    GVanishesError,
    InvalidArgumentError,
    NonPositiveSError,
    NotInFPlusError,
    OriginNotZeroError,
)
from .exprlang import Expr, breakpoints, evaluate, render
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig, _batched, convolve

__all__ = [
    "InversionConfig",
    "DEFAULT_INVERSION",
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

#: a transform stops where two levels of its rule agree to this, relative: the
#: rounding floor, since Stehfest weights amplify per-node errors by ~1e7
TRANSFORM_TOL = 1e-14

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
            raise InvalidArgumentError("stehfest_terms must be even and between 8 and 20")


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


#: the rule's reach in tau: exp-sinh nodes x - b from 1e-200 to past the
#: ladder's last window, 2^120; tanh-sinh nodes to about 1e-200 half-widths
#: from either end, where cosh(pi/2 sinh tau)^2 stays below 1e200
EXP_SINH_TAU = (-math.asinh(400.0 * math.log(10.0) / math.pi), math.asinh(240.0 * LN2 / math.pi))
TANH_SINH_TAU = math.asinh(200.0 * math.log(10.0) / math.pi)

#: the first level whose change is tested, and the last: steps 1 to 2^-12 in tau
FIRST_TESTED_LEVEL, MAX_LEVEL = 3, 12

#: most terms exp(-s x) w h one block of a level sum computes at once
BLOCK_TERMS = 65536

#: most kinks a rule is cut at, the nearest 0 first: each piece costs as
#: many nodes as [0, inf) does, and a tree with thousands of abs calls is valid input
MAX_KINKS = 16


def _level_taus(lo: float, hi: float, level: int) -> np.ndarray:
    """The taus in [lo, hi] ``level`` adds: integers, then odd multiples of 2^-level."""
    k = np.arange(math.ceil(lo * 2 ** level), math.floor(hi * 2 ** level) + 1)
    return (k if level == 0 else k[k % 2 == 1]) / 2.0 ** level


class _Rule:
    """The double-exponential rule of one function (Takahasi & Mori 1974),
    shared by every s it serves: [0, inf) cut at the kinks the expression
    names, tanh-sinh nodes on each finite piece and exp-sinh nodes on the
    last, all on trapezoid steps 2^-j in tau.  ``levels[j]`` holds the nodes
    level j adds, sorted in x, their weights dx/dtau, and h at a prefix of
    them that grows as windows reach further.  ``ladder[k]`` is the tail
    penalty log(1 + |h(2^k)|) (inf where h overflows), grown one rung at a
    time, so a function defined only on a window raises where a search
    leaves it.  ``transforms`` maps each s served to its value."""

    def __init__(self, h: Callable[[np.ndarray], np.ndarray], transforms=()):
        # an Expr is callable too: Expr.__call__ is evaluate
        self.fn = lambda pts: np.asarray(h(pts), dtype=float)
        cuts = (0.0, *(breakpoints(h, 0.0, 2.0 ** 120)[:MAX_KINKS] if isinstance(h, Expr) else ()))
        self.pieces = [(lo, hi, 0.5 * hi - 0.5 * lo) for lo, hi in zip(cuts, cuts[1:])]
        self.tail, self.ladder, self.levels = cuts[-1], [], []
        self.transforms: dict[float, float] = dict(transforms)
        self.lock = threading.Lock()

    def rung(self, k: int) -> float:
        while len(self.ladder) <= k:
            try:
                h_T = abs(float(self.fn(np.array([2.0 ** len(self.ladder)]))[0]))
                penalty = math.log1p(h_T) if math.isfinite(h_T) else math.inf
            except DomainError as exc:
                if exc.reason != NON_FINITE_RESULT:
                    raise
                penalty = math.inf  # overflowed: the bound certainly fails here
            self.ladder.append(penalty)
        return self.ladder[k]

    def level(self, j: int, reach: float) -> list[np.ndarray]:
        """Level ``j``'s nodes, weights and h, sampled at every node up to ``reach``."""
        while len(self.levels) <= j:
            tau = _level_taus(-TANH_SINH_TAU, TANH_SINH_TAU, len(self.levels))
            y = 0.5 * math.pi * np.sinh(tau)
            # tanh-sinh nodes placed from the nearer end, free of cancellation
            edge, weight = 2.0 / (1.0 + np.exp(2.0 * np.abs(y))), np.cosh(tau) / np.cosh(y) ** 2
            parts = [(np.where(y < 0.0, lo + half * edge, hi - half * edge),
                      0.5 * math.pi * half * weight) for lo, hi, half in self.pieces]
            tau = _level_taus(*EXP_SINH_TAU, len(self.levels))
            gap = np.exp(0.5 * math.pi * np.sinh(tau))
            parts.append((self.tail + gap, 0.5 * math.pi * np.cosh(tau) * gap))
            self.levels.append([np.concatenate(column) for column in zip(*parts)] + [np.empty(0)])
        x, _, hx = entry = self.levels[j]
        if (sampled := int(np.searchsorted(x, reach, side="right"))) > hx.size:
            entry[2] = np.concatenate((hx, self.fn(x[hx.size:sampled])))
        return entry


def _level_sums(rule: _Rule, j: int, s: np.ndarray, T: np.ndarray) -> np.ndarray:
    """sum exp(-s_i x) h(x) dx/dtau over the nodes x <= T_i of level ``j``, a
    prefix.  Each row spans the whole level, zero past its window, and is
    summed alone, pairwise: one order, so a value has the bits of its s alone."""
    x, w, hx = rule.level(j, float(T.max()))
    ends = np.searchsorted(x, T, side="right")
    reach = int(ends.max())

    def rows(part: slice) -> np.ndarray:
        terms = np.zeros((ends[part].size, x.size))
        block = terms[:, :reach]
        np.exp(np.multiply.outer(-s[part], x[:reach], out=block), out=block)
        block *= w[:reach]  # exp(-s x) w first: w h may overflow where the term does not
        with np.errstate(over="ignore", invalid="ignore"):
            block *= hx[:reach]
            np.copyto(block, 0.0, where=np.arange(reach) >= ends[part, None])
            return terms.sum(axis=1)

    return _batched(rows, np.empty(s.size), cost=x.size, nodes=BLOCK_TERMS)


def _integrals(rule: _Rule, s: np.ndarray, T: np.ndarray) -> np.ndarray:
    """The rule's integrals of exp(-s_i x) h(x) over [0, T_i]: level j, the
    trapezoid sum of step 2^-j, is half the last plus its own nodes.  An s
    stops at the first level from ``FIRST_TESTED_LEVEL`` on that moves it by
    at most ``TRANSFORM_TOL`` relative (to at least 2^-1022, so a subnormal
    value can stop); a sum not finite, or no stop by ``MAX_LEVEL``, raises."""
    out, pending, prev = np.empty(s.size), np.arange(s.size), np.zeros(s.size)
    for j in range(MAX_LEVEL + 1):
        cur = 0.5 * prev + 2.0 ** -j * _level_sums(rule, j, s[pending], T[pending])
        if (bad := np.flatnonzero(~np.isfinite(cur))).size:
            raise DivergentIntegralError(
                f"the transform is not finite at s = {float(s[pending[bad[0]]])!r}")
        if j >= FIRST_TESTED_LEVEL:
            done = np.abs(cur - prev) <= TRANSFORM_TOL * np.maximum(np.abs(cur), 2.0 ** -1022)
            out[pending[done]] = cur[done]
            pending, cur = pending[~done], cur[~done]
            if not pending.size:
                return out
        prev = cur
    raise DivergentIntegralError(f"the transform did not converge in {MAX_LEVEL} levels "
                                 f"at s = {float(s[pending[0]])!r}")


def _truncation_exponent(rule: _Rule, s: np.ndarray, target: np.ndarray,
                         start: np.ndarray | int = 0) -> np.ndarray:
    """For every i, the smallest k >= ``start_i`` whose T = 2^k satisfies
    exp(-s_i T) (1+|h(T)|) (1+1/s_i) dx/dtau(T) <= target_i (the exp-sinh
    map's dx/dtau: a jump where the rule's sum ends would move every level
    by about its size times the step).  The searches climb the ladder
    together, as far as the furthest needs; a tighter target may resume at
    a looser one's window, since every rung below failed the looser one."""
    # the logs in scalar arithmetic: the bits of a search for one s
    log_target = np.array([math.log(x) for x in target.tolist()])
    log_factor = np.array([math.log1p(1.0 / x) for x in s.tolist()])
    start = np.broadcast_to(start, s.shape)
    k, searching = start.copy(), np.arange(s.size)
    for rung in range(int(start.min()) if s.size else 0, 120):
        if not searching.size:
            break
        stretch = rung * LN2 + math.log(0.5 * math.pi * math.hypot(1.0, 2.0 / math.pi * rung * LN2))
        bound = -s[searching] * 2.0 ** rung + rule.rung(rung) + stretch + log_factor[searching]
        hit = (bound <= log_target[searching]) & (start[searching] <= rung)
        k[searching[hit]] = rung
        searching = searching[~hit]
    if searching.size:
        raise DivergentIntegralError("no truncation window: the function outgrows exp(-s t) "
                                     f"at s = {float(s[searching[0]])!r}")
    return k


def _transforms(rule: _Rule, s_values: list[float]) -> dict[float, float]:
    """The transforms of the rule's function at every s of ``s_values``.
    Every s has a first window from the absolute tail target, past the last
    kink, where h may grow from 0; its sum of step 1/8 there sets the
    refined window, and the integral there sets it again, until it stays."""
    s = np.array(list(dict.fromkeys(s_values)))
    refused = ~(s > 0.0)  # NaN too
    if refused.any():
        raise NonPositiveSError(
            f"transform variable must be positive, got {float(s[refused][0])!r}")

    def refined(values: np.ndarray, k: np.ndarray) -> np.ndarray:
        """The windows from 2^k on where the tail bound is small relative to
        ``values`` (at least 2^-1022); a value 0 or not finite keeps 2^k."""
        k, rows = k.copy(), np.flatnonzero((values != 0.0) & np.isfinite(values))
        target = np.maximum(np.minimum(TAIL_BOUND, 1e-14 * np.abs(values[rows])), 2.0 ** -1022)
        k[rows] = _truncation_exponent(rule, s[rows], target, start=k[rows])
        return k

    k = _truncation_exponent(rule, s, np.full(s.size, TAIL_BOUND),
                             start=max(0, math.floor(math.log2(rule.tail)) + 1) if rule.tail else 0)
    k = refined(2.0 ** -FIRST_TESTED_LEVEL * sum(
        _level_sums(rule, j, s, 2.0 ** k) for j in range(FIRST_TESTED_LEVEL + 1)), k)
    values, moved = np.empty(s.size), np.arange(s.size)
    while moved.size:
        values[moved] = _integrals(rule, s[moved], 2.0 ** k[moved])
        moved, k = np.flatnonzero((grown := refined(values, k)) != k), grown
    return dict(zip(s.tolist(), values.tolist()))


def forward_laplace(h: Callable[[np.ndarray], np.ndarray], s: float, *,
                    _rule: _Rule | None = None, _batch=()) -> float:
    """Numeric transform int_0^T exp(-s t) h(t) dt with a certified tail, by
    a double-exponential rule (``_Rule``), halving its step in tau until two
    levels agree to ``TRANSFORM_TOL`` relative.  T satisfies exp(-sT) (1 +
    h(T)) (1 + 1/s) dx/dtau(T) <= 1e-12, and is then extended until the
    bound is small relative to the value itself (the Stehfest weights would
    amplify absolute tail errors).  ``h`` must be defined and polynomially
    bounded on [0, inf); exponential growth, a sum that is not finite and
    one that does not converge raise :class:`DivergentIntegralError`.

    ``transform_of`` passes its rule and the ``_batch`` of s it asks for:
    the first call for an s of the batch transforms every s of it missing
    from the rule's table.  Either way the values are the same bits, and a
    batch that fails raises what its first failing s raises alone.
    """
    s = float(s)
    rule = _Rule(h) if _rule is None else _rule
    with rule.lock:
        if s not in rule.transforms:
            batch = [x for x in _batch if x not in rule.transforms] if s in _batch else [s]
            try:
                rule.transforms.update(_transforms(rule, batch))
            except Exception:  # any failure, h's own too: raise the first failing s's own
                for x in batch if len(batch) > 1 else ():
                    _transforms(rule, [x])
                raise
        return rule.transforms[s]


#: dropped closures' transform tables by rendered text, least recently used first
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


def transform_of(h: Callable[[np.ndarray], np.ndarray]) -> Callable:
    """Memoized s -> L(h)(s), the working representation of a transform.

    The closure takes one s and returns a float, or a list, tuple or array
    of s and returns an array of their values: the s it has not seen are
    the batch of each of their ``forward_laplace`` calls, so the first of
    them transforms them all.  A solver asks this way, once per stage, for
    every s the stage inverts from.  The closure owns one rule of ``h``
    (``_Rule``): h is sampled once per truncation rung and once per node of
    each level reached, whatever the number of s served.

    The rule's table of an ``Expr`` starts from a copy of the values kept
    under ``render(h)`` and is kept in their place when the closure is
    dropped (``_keep``), up to ``KEPT_TRANSFORM_VALUES`` values in the
    process: a later solve with the same expression, a distortion say,
    transforms only the s it has not seen.  The key is the text that
    evaluates identically, not ``Expr`` equality: ``t*0.0 == t*-0.0``, yet
    the two evaluate to zeros of opposite sign.  A transform depends only
    on how h evaluates and on s, so a kept value has the bits of a fresh
    one.  A callable's values live with its closure.
    """
    key = render(h) if isinstance(h, Expr) else None
    with _KEPT_LOCK:
        rule = _Rule(h, _KEPT.get(key, ()))
    memo = rule.transforms

    def fn(s):
        if not isinstance(s, (list, tuple, np.ndarray)):
            return memo[s] if s in memo else forward_laplace(h, s, _rule=rule)
        wanted = [float(x) for x in s]
        missing = [x for x in dict.fromkeys(wanted) if x not in memo]
        for x in missing:
            forward_laplace(h, x, _rule=rule, _batch=missing)
        return np.array([memo[x] for x in wanted])

    if key is not None:
        weakref.finalize(fn, _keep, key, memo).atexit = False
    return fn


def _stehfest_nodes(t: float, terms: int) -> list[float]:
    """The s that inversion at t reads: k ln 2 / t for k = 1 .. terms."""
    return [(k + 1) * (LN2 / t) for k in range(terms)]


def invert_laplace(F: Callable[[float], float], t: float,
                   cfg: InversionConfig = DEFAULT_INVERSION) -> float:
    """Gaver-Stehfest inversion (ln 2 / t) sum_k V_k F(k ln 2 / t); a sum
    that overflows raises :class:`DivergentIntegralError`."""
    t = float(t)
    if not 0.0 < t < math.inf:
        need = "finite" if t > 0.0 else "positive"
        raise InvalidArgumentError(f"inversion time must be {need}, got {t!r}")
    weights = stehfest_weights(cfg.stehfest_terms)
    terms = [w * F(s) for w, s in zip(weights, _stehfest_nodes(t, cfg.stehfest_terms))]
    try:
        return LN2 / t * math.fsum(terms)
    except (ValueError, OverflowError):
        # a weight pushed a term past the largest double: inf - inf, or a
        # partial sum that overflows (a NaN term alone sums to NaN)
        raise DivergentIntegralError(f"the Stehfest sum overflows at t = {t!r}") from None


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
        raise InvalidArgumentError("solver grid needs at least 2 points")
    if grid[0] > a:
        return grid
    nudged = a + (grid[-1] - grid[0]) / 1000.0
    if not a < nudged < grid[1]:
        nudged = a + (grid[1] - a) / 2.0
        if not a < nudged < grid[1]:
            raise InvalidArgumentError("solver grid has no point between a and its second point")
    grid = grid.copy()
    grid[0] = nudged
    return grid


def _invert_on_grid(F: Callable[[np.ndarray], np.ndarray], offsets: np.ndarray,
                    inversion: InversionConfig) -> np.ndarray:
    """F inverted at every offset.  F takes an array of s: it is called once,
    on the Stehfest nodes of every positive offset, and each inversion reads
    its nodes' values."""
    nodes = np.array([s for u in offsets.tolist() if u > 0.0
                      for s in _stehfest_nodes(u, inversion.stehfest_terms)])
    values = dict(zip(nodes.tolist(), F(nodes).tolist()))
    return np.array([invert_laplace(values.__getitem__, u, inversion) for u in offsets])


def _flag_first_point(values: np.ndarray) -> bool:
    """Inversion can blow up against the left edge; a wild first sample is
    excluded from the certificate (only the first may be excluded)."""
    if values.size < 3:
        return False
    v0 = float(values[0])
    # in float arithmetic: the bound may overflow to inf, unwarned
    bound = 100.0 * (float(np.abs(values[1:]).max()) + 1.0)
    return not math.isfinite(v0) or abs(v0) > bound


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
        ok = ok and bool(np.all(np.diff(values) > 0.0)) and bool(np.all(values >= 0.0))
    if ok and residual <= residual_tol:
        return Verdict.EXISTS
    return Verdict.INCONCLUSIVE


def _require_tolerances(**tolerances: float) -> None:
    """Each solver tolerance must be finite and nonnegative (NaN is neither)."""
    for name, value in tolerances.items():
        if not 0.0 <= value < math.inf:
            raise InvalidArgumentError(f"{name} must be finite and nonnegative, got {value!r}")


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

    def F(s: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
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


def _verification_ladder(u0: float) -> np.ndarray:
    """The offsets in (0, u0) that an inverse solve inverts again to verify."""
    return u0 * np.array([1 / 16, 1 / 8, 1 / 4, 1 / 2, 3 / 4])


def _solve_inverse(f: Expr, a: float, t_grid, quadrature: QuadratureConfig,
                   inversion: InversionConfig, residual_threshold: float,
                   decisive_ratio: float, monotone_slack: float, *,
                   transform: Callable, transform_name: str,
                   kernel: Callable[[np.ndarray], np.ndarray], recovers_m: bool,
                   admissible: tuple = ()) -> SolveReport:
    """The inverse pipeline shared by problems 2 and 3, on offsets u = t - a.

    Checks f(a) = 0 and that f (and the ``admissible`` named expressions)
    are in F+, inverts F_a(s) / (s transform(s)), excludes a wild first
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
    with _defined(NotInFPlusError, f"f is not defined at a = {float(a)!r}"):
        f_at_a = evaluate(f, a)
    if abs(f_at_a) > 1e-9:
        raise OriginNotZeroError(f"f(a) = {f_at_a!r}, the equation requires f(a) = 0")
    for name, h in (("f", f), *admissible):
        require_f_plus(name, h, a, grid[-1])

    Fa = transform_of(_rebased(f, a))

    def Q(s: np.ndarray) -> np.ndarray:
        # as in float arithmetic, an overflow is inf and inf * 0 is nan, unwarned
        with np.errstate(over="ignore", invalid="ignore"):
            den = s * transform(s)
            fa = Fa(s)
            vanished = s[np.abs(den) < 1e-280]
            if vanished.size:
                raise GVanishesError(f"s {transform_name} vanished at s = {float(vanished[0])!r}")
            return fa / den

    offsets = grid - a
    values = _invert_on_grid(Q, offsets, inversion)
    report_grid = offsets if recovers_m else grid

    excluded = _flag_first_point(values)
    kept = slice(1, None) if excluded else slice(None)
    kept_values = values[kept]
    cert = certify_samples(report_grid[kept], kept_values,
                           _noise_slack(kept_values, monotone_slack))

    kept_u = offsets[kept]
    ladder = _verification_ladder(kept_u[0])
    ladder_v = _invert_on_grid(Q, ladder, inversion)
    knots_u = np.concatenate(([0.0], ladder, kept_u))
    # as in float arithmetic, an overflow is inf and inf - inf is nan, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
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
        transform=M, transform_name="M(s)",
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
        transform=G, transform_name="G_a(s)",
        kernel=g_a, recovers_m=True, admissible=(("g", g),))
