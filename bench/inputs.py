"""Seeded workload inputs: rounds of choqint CLI invocations with known answers.

Every input is a power family (see ``oracle``): ``m(u) = c u^q``,
``g(t) = k (t - a)^r`` and ``f = K (t - a)^(q + r)``.  A workload is an
endless sequence of rounds; every round has the same make-up, so the share
of operations with a given expected outcome is the same in every run
whatever its length.  All draws come from ``random.Random`` seeded with the
workload name and ``--seed``, so one seed always gives the same operations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from oracle import forward_constant

#: q ranges, one per slot: concave, between linear and quadratic, cubic-ish
Q_CLASSES = ((0.55, 0.85), (1.2, 1.8), (2.8, 3.0))

#: r ranges of the derive slots whose derivative exists.  The third slot's
#: Stehfest truncation error (1.3e-6 to 1.7e-6 relative) is the largest
#: error of a derive run, so accuracy_digits reads it steadily.  The fourth
#: slot draws -0.35 <= r <= -0.2, a decreasing derivative; below that the
#: rounding floor of u^r would overtake it and vary from run to run.
R_CLASSES = ((0.3, 0.9), (1.0, 1.8), (2.4, 2.5))

DERIVE_POINTS = 20
IDENTIFY_POINTS = 50
VERIFY_POINTS = 30

#: derive settings (m, a, grid) shared by the operations of a run: two per
#: q class, one for each sign of a.  More settings average the operation
#: cost over more draws, fewer make m's transforms repeat more often.
DERIVE_POOL = 6

#: verify inputs with |a| >= 1e3.  They do not depend on the seed: today the
#: general-capacity route's finite-difference step scales with |t| instead
#: of the interval length, so each of them reports Fail (exit 6).
LARGE_ORIGIN_VERIFY = (
    # (c, q, r, k, a, length)
    (1.0, 2.0, 1.5, 1.0, 1000.0, 2.0),
    (0.5, 1.5, 0.5, 2.0, -2000.0, 2.0),
    (2.0, 2.5, 1.0, 0.5, 1500.0, 1.5),
    (1.0, 1.2, 2.0, 1.0, -1000.0, 2.5),
)


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the closed form its report is checked against."""

    command: str
    argv: tuple[str, ...]
    a: float
    grid: tuple[float, ...]
    c: float
    q: float
    r: float
    k: float
    expect: str
    #: the input meets a known fault of the program (LARGE_ORIGIN_VERIFY):
    #: a non-answer counts as failed, not as wrong
    known_fault: bool = False


def _num(x: float) -> str:
    return repr(float(x))


def _shifted(a: float) -> str:
    """``t - a`` as expression text."""
    return f"t - {_num(a)}" if a >= 0.0 else f"t + {_num(-a)}"


def _power(scale: float, a: float, p: float) -> str:
    return f"{_num(scale)}*pow({_shifted(a)}, {_num(p)})"


def uniform_grid(start: float, stop: float, points: int) -> tuple[float, ...]:
    """The CLI's inclusive uniform grid ``--t START:STOP:POINTS``."""
    step = (stop - start) / (points - 1)
    grid = [start + i * step for i in range(points)]
    grid[-1] = stop
    return tuple(grid)


def _op(command: str, a: float, start: float, stop: float, points: int,
        c: float, q: float, r: float, k: float, expect: str,
        known_fault: bool = False) -> Op:
    f = _power(forward_constant(c, q, r, k), a, q + r)
    g = _power(k, a, r)
    m = f"{_num(c)}*pow(t, {_num(q)})"
    functions = {"derive": ("--f", f, "--m", m),
                 "identify": ("--f", f, "--g", g),
                 "verify": ("--g", g, "--m", m)}[command]
    argv = (command, *functions, "--a", _num(a),
            f"--t={_num(start)}:{_num(stop)}:{points}", "--format", "json")
    return Op(command, argv, a, uniform_grid(start, stop, points), c, q, r, k, expect,
              known_fault)


def _draw(rng: random.Random, lo: float, hi: float, digits: int = 4) -> float:
    return round(rng.uniform(lo, hi), digits)


def _scale(rng: random.Random) -> float:
    return round(10.0 ** rng.uniform(-0.5, 0.5), 4)


def _origin(rng: random.Random, sign: float) -> float:
    """|a| in [0.1, 10] with the given sign, three decimals."""
    return sign * round(10.0 ** rng.uniform(-1.0, 1.0), 3)


def derive_rounds(seed: int) -> Iterator[list[Op]]:
    """Four derive operations per round on 20-point grids.  Each draws a
    fresh ``f`` but takes its (m, a, grid) from a pool of six settings, used
    in turn, so the transform M(s) repeats across operations.  The fourth has
    ``r < 0``: a decreasing derivative, verdict DoesNotExistInFPlus."""
    rng = random.Random(f"derive/{seed}")
    sign = rng.choice((-1.0, 1.0))
    pool = []
    for j in range(DERIVE_POOL):
        lo, hi = Q_CLASSES[j % len(Q_CLASSES)]
        length = _draw(rng, 1.5, 2.5, 3)
        pool.append((_scale(rng), _draw(rng, lo, hi), _origin(rng, sign * (-1) ** j), length))
    index = 0
    while True:
        ops = []
        for slot in range(4):
            c, q, a, length = pool[index % DERIVE_POOL]
            index += 1
            if slot < 3:
                r, expect = _draw(rng, *R_CLASSES[slot]), "Exists"
            else:
                r, expect = _draw(rng, -0.35, -0.2), "DoesNotExistInFPlus"
            ops.append(_op("derive", a, a + length / DERIVE_POINTS, a + length,
                           DERIVE_POINTS, c, q, r, _scale(rng), expect))
        yield ops


def identify_rounds(seed: int) -> Iterator[list[Op]]:
    """One identify operation per round on a 50-point grid, with fresh
    (f, g, a) every time, so no transform repeats.  Successive rounds cycle
    through the q classes."""
    rng = random.Random(f"identify/{seed}")
    sign = rng.choice((-1.0, 1.0))
    index = 0
    while True:
        lo, hi = Q_CLASSES[index % len(Q_CLASSES)]
        index += 1
        sign = -sign
        a = _origin(rng, sign)
        length = _draw(rng, 1.5, 2.5, 3)
        yield [_op("identify", a, a + length / IDENTIFY_POINTS, a + length,
                   IDENTIFY_POINTS, _scale(rng), _draw(rng, lo, hi),
                   _draw(rng, 0.3, 2.5), _scale(rng), "Exists")]


def verify_rounds(seed: int) -> Iterator[list[Op]]:
    """Four verify operations per round on 30-point grids starting at a:
    three with fresh (g, m, a) and |a| <= 10, which pass, and one of the
    fixed large-origin inputs.  m is never concave (q >= 1)."""
    rng = random.Random(f"verify/{seed}")
    sign = rng.choice((-1.0, 1.0))
    index = 0
    while True:
        ops = []
        for lo, hi in ((1.0, 1.6), (1.6, 2.3), (2.3, 3.0)):
            sign = -sign
            a = _origin(rng, sign)
            length = _draw(rng, 1.5, 2.5, 3)
            ops.append(_op("verify", a, a, a + length, VERIFY_POINTS, _scale(rng),
                           _draw(rng, lo, hi), _draw(rng, 0.3, 2.5), _scale(rng), "Pass"))
        c, q, r, k, a, length = LARGE_ORIGIN_VERIFY[index % len(LARGE_ORIGIN_VERIFY)]
        index += 1
        ops.append(_op("verify", a, a, a + length, VERIFY_POINTS, c, q, r, k, "Pass",
                       known_fault=True))
        yield ops


WORKLOADS = {
    "derive": derive_rounds,
    "identify": identify_rounds,
    "verify": verify_rounds,
}
