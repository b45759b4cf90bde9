"""Closed forms and accuracy bounds, computed apart from choqint.

Every workload input is a power family.  With ``m(u) = c u^q`` and
``g(t) = k (t - a)^r`` the Beta identity gives

    (C) int_a^t g dmu = int_a^t m'(t - tau) g(tau) dtau
                      = k c q B(q, r + 1) (t - a)^(q + r).

The inverse problems recover a power ``A u^p`` from its transform
``A Gamma(p + 1) / s^(p + 1)``: ``g`` for derive (``p = r``), ``m`` for
identify (``p = q``).  Gaver-Stehfest applied to that exact transform
returns ``A u^p S(p)`` with ``S`` independent of ``u``, so ``|S(p) - 1|`` is
the method's truncation error for the family.  A relative error ``d`` in
every transform value becomes at most ``d (ln2/u) sum_k |V_k F(s_k)|``, which
for the family is ``d |A u^p| R(p)``.  ``S`` and ``R`` are computed here from
Salzer weights built in exact rational arithmetic and summed in 50-digit
decimals.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

STEHFEST_TERMS = 16


def beta(x: float, y: float) -> float:
    return math.gamma(x) * math.gamma(y) / math.gamma(x + y)


def forward_constant(c: float, q: float, r: float, k: float = 1.0) -> float:
    """K with (C) int_a^t k (tau - a)^r d(c u^q o lambda) = K (t - a)^(q + r)."""
    return k * c * q * beta(q, r + 1.0)


@lru_cache(maxsize=None)
def salzer_weights(n: int = STEHFEST_TERMS) -> tuple[Fraction, ...]:
    """Gaver-Stehfest weights V_1..V_n, exact."""
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
        weights.append(total * (-1) ** (k + half))
    return tuple(weights)


@lru_cache(maxsize=None)
def _stehfest_sums(p: float, n: int = STEHFEST_TERMS) -> tuple[float, float]:
    """(S(p), R(p)): Stehfest applied to Gamma(p+1)/s^(p+1), and the sum of
    the absolute terms, both relative to the exact u^p."""
    with localcontext() as ctx:
        ctx.prec = 50
        ln2 = Decimal(2).ln()
        exponent = -Decimal(repr(p + 1.0))
        signed = Decimal(0)
        absolute = Decimal(0)
        for k, w in enumerate(salzer_weights(n), start=1):
            term = Decimal(w.numerator) / Decimal(w.denominator) * (exponent * Decimal(k).ln()).exp()
            signed += term
            absolute += abs(term)
        scale = (-Decimal(repr(p)) * ln2.ln()).exp()
        gamma = Decimal(repr(math.gamma(p + 1.0)))
        return float(gamma * scale * signed), float(gamma * scale * absolute)


def truncation_error(p: float) -> float:
    """Relative Stehfest truncation error for recovering u^p."""
    return abs(_stehfest_sums(p)[0] - 1.0)


def print_unit(*values: float) -> float:
    """One unit in the 9th significant digit of the largest of ``values``
    (reports print floats with %.9g)."""
    top = max(abs(v) for v in values)
    return 10.0 ** (math.floor(math.log10(top)) - 8) if top > 0.0 else 0.0


#: the CLI's default quadrature tolerance, which every forward value meets
#: relative to 1 + |value|
REFINEMENT_TOL = 1e-8

#: the tolerance the transforms are refined to (laplace.TRANSFORM_QUADRATURE);
#: each of the two transforms in an inverted quotient carries it into every
#: Stehfest node, so it, not eps, sets the rounding floor of a value
TRANSFORM_TOL = 1e-14
QUOTIENT_TRANSFORMS = 2

EXIT_CODES = {"Exists": 0, "Inconclusive": 0, "DoesNotExistInFPlus": 5,
              "Pass": 0, "Fail": 6}

#: verdicts that are answers; the others are non-answers
ANSWERS = {"derive": ("Exists", "DoesNotExistInFPlus"),
           "identify": ("Exists", "DoesNotExistInFPlus"),
           "verify": ("Pass",)}


@dataclass
class Outcome:
    """``status`` is "ok", "failed" (the program gave no answer on an input
    that meets a known fault) or "wrong" (any other non-answer, or an answer
    that contradicts the closed form)."""

    status: str
    reason: str = ""
    points: int = 0
    worst_rel: float = 0.0


@dataclass
class Check:
    """One reported float and the closed-form value it is held to."""

    row: int
    column: str
    value: float
    exact: float
    bound: float


def inverse_bound(exact: float, p: float) -> float:
    """Allowed |value - exact| of an inverted sample, before print rounding."""
    total = _stehfest_sums(p)[1]
    return abs(exact) * (truncation_error(p)
                         + QUOTIENT_TRANSFORMS * TRANSFORM_TOL * total)


def value_checks(op, report: dict) -> list[Check]:
    """Every reported float with its closed-form value and allowed error."""
    rows = report["results"]
    checks = []
    if op.command == "verify":
        K = forward_constant(op.c, op.q, op.r, op.k)
        for i, (t, row) in enumerate(zip(op.grid, rows)):
            exact = K * (t - op.a) ** (op.q + op.r)
            for column in ("value", "oracle_value"):
                checks.append(Check(i, column, row[column], exact,
                                    REFINEMENT_TOL * (1.0 + abs(exact))))
        return checks
    scale, p = (op.k, op.r) if op.command == "derive" else (op.c, op.q)
    skip_first = report["certificate"]["first_point_excluded"]
    for i, (t, row) in enumerate(zip(op.grid, rows)):
        if i == 0 and skip_first:
            continue
        exact = scale * (t - op.a) ** p
        checks.append(Check(i, "value", row["value"], exact, inverse_bound(exact, p)))
    return checks


def _grid_column(op) -> list[float]:
    """The reported ``t`` column: identify reports lengths t - a."""
    if op.command == "identify":
        return [t - op.a for t in op.grid]
    return list(op.grid)


def check(op, code: int, stdout: str) -> Outcome:
    """Judge one operation's exit code and JSON report against its closed form."""
    no_answer = "failed" if op.known_fault else "wrong"
    if not stdout:
        return Outcome(no_answer, f"exit {code}, no report")
    report = json.loads(stdout)
    rows = report["results"]
    verdict = report.get("verdict")
    if code != EXIT_CODES.get(verdict, -1):
        return Outcome("wrong", f"exit {code} does not match verdict {verdict}", len(rows))
    if verdict not in ANSWERS[op.command]:
        return Outcome(no_answer, f"verdict {verdict}", len(rows))
    if verdict != op.expect:
        return Outcome("wrong", f"verdict {verdict}, expected {op.expect}", len(rows))
    if len(rows) != len(op.grid):
        return Outcome("wrong", f"{len(rows)} rows for a {len(op.grid)}-point grid", len(rows))
    for i, (t, row) in enumerate(zip(_grid_column(op), rows)):
        if abs(row["t"] - t) > print_unit(t):
            return Outcome("wrong", f"row {i}: t = {row['t']!r}, expected {t!r}", len(rows))
    if op.command != "verify":
        flags = [row["monotone_ok"] for row in rows]
        increasing = op.expect == "Exists"
        if all(flags) != increasing or report["certificate"]["monotone"] != increasing:
            return Outcome("wrong", f"monotone flags {flags} for a "
                           f"{'n in' if increasing else ' de'}creasing closed form", len(rows))
    worst = 0.0
    for ch in value_checks(op, report):
        error = abs(ch.value - ch.exact)
        if error > ch.bound + print_unit(ch.value, ch.exact):
            return Outcome("wrong", f"row {ch.row} {ch.column} = {ch.value!r}, closed form "
                           f"{ch.exact!r}, allowed error {ch.bound:.3g}", len(rows))
        if ch.exact != 0.0:
            worst = max(worst, error / abs(ch.exact))
    return Outcome("ok", "", len(rows), worst)


def self_check(op, code: int, stdout: str) -> list[str]:
    """Feed ``check`` two corrupted copies of an accepted report: one value
    moved to three times its allowed error, and the verdict flipped with its
    exit code.  Returns the corruptions not judged wrong."""
    report = json.loads(stdout)
    ch = value_checks(op, report)[-1]
    moved = copy.deepcopy(report)
    moved["results"][ch.row][ch.column] = ch.exact + 3.0 * (ch.bound + print_unit(ch.exact))
    flipped = copy.deepcopy(report)
    flipped["verdict"] = {"Exists": "DoesNotExistInFPlus",
                          "DoesNotExistInFPlus": "Exists", "Pass": "Fail"}[report["verdict"]]
    missed = []
    for name, corrupt, corrupt_code in (
            ("value past its bound", moved, code),
            ("flipped verdict", flipped, EXIT_CODES[flipped["verdict"]])):
        status = check(op, corrupt_code, json.dumps(corrupt)).status
        if status != "wrong":
            missed.append(f"{op.command}: {name} judged {status}")
    return missed
