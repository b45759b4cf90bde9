"""Distorted Lebesgue measures, interval capacities, and monotone certificates.

A distorted Lebesgue measure is determined by a distortion ``m`` with
``m(0) = 0``, nonnegative and nondecreasing: a :class:`Distortion` is itself
the interval capacity ``mu([u, v]) = m(v - u)``, validated once, where it is
built.  Capacities are exposed only through interval evaluation
``mu([u, v])`` — superlevel sets of monotone integrands on ``[a, t]`` are
intervals, so nothing more is ever needed here.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from numbers import Real
from typing import Callable

import numpy as np

from .errors import (
    NON_FINITE_RESULT,
    DomainError,
    InvalidArgumentError,
    InvalidDistortionError,
    NotInFPlusError,
)
from .exprlang import Expr, differentiate, evaluate, parse, render

__all__ = [
    "MonotoneCertificate",
    "certify_samples",
    "check_f_plus",
    "Distortion",
    "IntervalCapacity",
    "distorted_capacity",
]

#: below quadrature noise, above double-precision rounding
MONOTONE_SLACK = 1e-10

#: a distortion is exact input: m(0) = 0 and its samples are held to rounding
DISTORTION_SLACK = 1e-12

#: uniform samples of a distortion over its validation window [0, upper]
DISTORTION_POINTS = 401

#: uniform samples of an F+ certificate over its window [a, t_max]
F_PLUS_POINTS = 201


@dataclass(frozen=True)
class MonotoneCertificate:
    """Verdict of a sampled nonnegativity-and-monotonicity check.

    ``row_ok`` judges every sample: nonnegative and no decrease from its
    predecessor, within the slack.  ``violation_index`` is the index of the
    first offending sample (None when the verdict is Monotone);
    ``max_violation`` is the largest observed negativity or adjacent
    decrease.
    """

    grid: np.ndarray
    row_ok: tuple[bool, ...]
    max_violation: float

    @property
    def violation_index(self) -> int | None:
        return next((i for i, ok in enumerate(self.row_ok) if not ok), None)

    @property
    def is_monotone(self) -> bool:
        return all(self.row_ok)

    @property
    def verdict(self) -> str:
        if self.is_monotone:
            return "Monotone"
        return f"ViolatedAt({self.violation_index})"


def certify_samples(grid, values, slack: float = MONOTONE_SLACK) -> MonotoneCertificate:
    """Certify that ``values`` sampled on ``grid`` are nonnegative and
    nondecreasing within ``slack`` (absolute), row by row."""
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    row_ok = []
    max_violation = 0.0
    for i, v in enumerate(values):
        drop = max(-v, values[i - 1] - v if i else 0.0)
        if drop > max_violation:
            max_violation = drop
        row_ok.append(bool(drop <= slack))  # a NaN sample is not certified
    return MonotoneCertificate(grid, tuple(row_ok), max_violation)


def check_f_plus(h: Expr, a: float, t_max: float) -> MonotoneCertificate:
    """Sample ``h`` on a uniform grid over [a, t_max] and certify membership
    in the class of nonnegative nondecreasing functions."""
    if t_max <= a:
        raise InvalidArgumentError("t_max must exceed a")
    grid = np.linspace(a, t_max, F_PLUS_POINTS)
    return certify_samples(grid, evaluate(h, grid))


@contextmanager
def _defined(error: type[Exception], what: str):
    """Raise a :class:`DomainError` from the block as ``error``, its message
    after ``what``: an input undefined on its own window is inadmissible.
    An overflow stays a DomainError, a numerical failure."""
    try:
        yield
    except DomainError as exc:
        if exc.reason == NON_FINITE_RESULT:
            raise
        raise error(f"{what}: {exc}") from exc


def require_f_plus(name: str, h: Expr, a: float, t_end: float) -> None:
    """The admissibility gate: certify ``h`` in F+ on its working window
    [a, t_end] ([a, a + 1] when t_end = a), or raise :class:`NotInFPlusError`
    naming the function, the window and the first violated sample, or the
    first point where ``h`` is undefined."""
    t_max = t_end if t_end > a else a + 1.0
    with _defined(NotInFPlusError, f"{name} is not defined on [{float(a)!r}, {float(t_max)!r}]"):
        cert = check_f_plus(h, a, t_max)
    if not cert.is_monotone:
        raise NotInFPlusError(
            f"{name} is not nonnegative and nondecreasing on "
            f"[{float(a)!r}, {float(t_max)!r}]: {cert.verdict}"
        )


@dataclass(frozen=True)
class Distortion:
    """A distortion ``m`` with its symbolic derivative, and the interval
    capacity mu([u, v]) = m(v - u) it defines, translation invariant since
    only the length enters.  Construction validates ``m`` on its window
    [0, upper] and derives ``m_prime``, so every distortion is valid and
    every route trusts it from then on."""

    m: Expr
    upper: float = 10.0
    m_prime: Expr = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _validate_distortion(self.m, self.upper)
        object.__setattr__(self, "m_prime", differentiate(self.m))

    @classmethod
    def from_expression(cls, m, upper: float = 10.0) -> "Distortion":
        """Build a distortion from source text or a parsed tree.

        Checks m(0) = 0 (to 1e-12) and nonnegativity/monotonicity on a dense
        grid over [0, upper]; raises :class:`InvalidDistortionError` on
        failure.
        """
        return cls(parse(m) if isinstance(m, str) else m, upper)

    def density(self, lengths):
        """m' applied to interval lengths."""
        return evaluate(self.m_prime, lengths)

    def evaluate(self, u, v):
        """mu([u, v]) = m(v - u)."""
        return evaluate(self.m, np.asarray(v) - np.asarray(u))

    def shifted(self, offset: float) -> "Distortion":
        """mu([u + offset, v + offset]): by translation invariance, mu itself."""
        return self


def _validate_distortion(expr: Expr, upper: float) -> None:
    if not isinstance(upper, Real) or not 0.0 < upper < np.inf:
        raise InvalidDistortionError(
            f"validation window [0, {upper!r}] needs a finite positive upper end"
        )
    with _defined(InvalidDistortionError, f"m is not defined on [0.0, {float(upper)!r}]"):
        at_zero = evaluate(expr, 0.0)
        if abs(at_zero) > DISTORTION_SLACK:
            raise InvalidDistortionError(
                f"m(0) = {at_zero!r}, expected 0 for '{render(expr)}'"
            )
        grid = np.linspace(0.0, upper, DISTORTION_POINTS)
        values = evaluate(expr, grid)
    cert = certify_samples(grid, values, DISTORTION_SLACK)
    if not cert.is_monotone:
        t_bad = float(grid[cert.violation_index])
        raise InvalidDistortionError(
            f"m is negative or decreasing at t = {t_bad!r} ({cert.verdict}) for '{render(expr)}'"
        )


@dataclass(frozen=True)
class IntervalCapacity:
    """A monotone set function evaluated on closed intervals [u, v], u <= v.

    ``evaluator`` must work on ndarrays: it is called once on the broadcast
    ``u``, ``v`` and must return values of their broadcast shape.
    """

    evaluator: Callable

    def evaluate(self, u, v):
        u_arr = np.asarray(u, dtype=float)
        v_arr = np.asarray(v, dtype=float)
        shape = np.broadcast_shapes(u_arr.shape, v_arr.shape)
        out = np.asarray(self.evaluator(u_arr, v_arr), dtype=float)
        if out.shape != shape:
            raise TypeError(
                f"capacity evaluator returned shape {out.shape} for intervals of shape {shape}"
            )
        return float(out) if shape == () else out

    def shifted(self, offset: float) -> "IntervalCapacity":
        """The capacity nu([u, v]) = mu([u + offset, v + offset])."""
        base = self.evaluate
        return IntervalCapacity(lambda u, v: base(u + offset, v + offset))


def distorted_capacity(d: Distortion) -> IntervalCapacity:
    """The capacity mu([u, v]) = m(v - u) of a distortion, as a general
    :class:`IntervalCapacity`, so that routes treat it like any other
    capacity.  ``d`` was validated where it was built.
    """
    return IntervalCapacity(d.evaluate)


def _tau_derivative_grid(c: IntervalCapacity, taus: np.ndarray, t: float,
                         h: float | np.ndarray, lower: float) -> np.ndarray:
    """d/dtau mu([tau, t]) at every tau by differences with step ``h``.

    Steps shrink one-sidedly near the interval ends so the capacity is never
    evaluated outside [lower, t]; the difference stays second-order accurate
    wherever both steps equal ``h``.
    """
    up = np.minimum(h, np.maximum(t - taus, 0.0))
    down = np.minimum(h, np.maximum(taus - lower, 0.0))
    total = up + down
    total[total == 0.0] = 1.0  # degenerate zero-length interval; numerator is 0 too
    return (c.evaluate(taus + up, t) - c.evaluate(taus - down, t)) / total
