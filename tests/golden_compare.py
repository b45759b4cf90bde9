"""Compare a CLI report with its committed golden file.

Float digits are not byte-stable across numpy/BLAS builds: the 16
Gaver-Stehfest weights sum to about 1.5e10 in absolute value, so ULP-level
differences in summation order reach the 5th to 9th printed digit of an
inverted value.  A run therefore matches its golden when

* the exit code is the pinned one;
* every byte outside the numbers agrees (CSV header, JSON key order,
  strings, booleans, null), and so do the numbers that are not computed
  floats: the input echo, the grid, the ``monotone_ok`` flags, the
  certificate's ``violation_index`` and the hereditary split;
* forward values (``value``, ``oracle_value`` of integrate/verify) agree to
  the run's ``refinement_tol``, relative;
* inverted values agree to ``C_ROUNDING`` times their Stehfest rounding bound
  ``eps (ln2/u) sum_k |V_k Q(s_k)|``, where ``Q`` is the solver's quotient
  transform, computed here from the public ``transform_of``;
  ``max_violation`` and ``residual`` agree to that bound propagated through
  the certificate and the verification spline and convolution, and the
  residual keeps its judgement against ``residual_tol``;
* gap fields (``gap``, ``*_gap``) sit at or below the tolerance the program
  judges them by; their value is rounding noise and is not compared.

Every float comparison also allows one unit in the 9th significant digit,
because the CLI prints floats with ``%.9g``.
"""

from __future__ import annotations

import difflib
import json
import math
import re
from functools import lru_cache

import numpy as np

from choqint import differentiate, evaluate, parse, transform_of
from choqint.cli import build_parser
from choqint.laplace import _CubicSpline, _verification_ladder, stehfest_weights
from golden_manifest import GOLDEN

EPS = float(np.finfo(float).eps)
LN2 = math.log(2.0)

#: two runs, each within one rounding bound of the exact-arithmetic result,
#: can differ from each other by two bounds
C_ROUNDING = 2.0

#: the property gaps of ``verify`` and the flag that sets each one's threshold
GAP_TOLERANCES = {
    "max_level_set_gap": "route_tol",
    "max_general_gap": "route_tol",
    "hereditary_gap": "hereditary_tol",
    "max_shift_gap": "shift_tol",
}

_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?')


def mask_numbers(text: str) -> str:
    """``text`` with every number outside a JSON string replaced by ``#``."""
    return _TOKEN.sub(lambda m: m.group(0) if m.group(0).startswith('"') else "#", text)


def parse_args(argv):
    return build_parser().parse_args(argv)


def parse_report(text: str, fmt: str) -> dict:
    """The report as JSON would hold it; a CSV report becomes its
    ``columns`` and ``results``."""
    if fmt == "json":
        return json.loads(text)
    header, *lines = text.splitlines()
    columns = header.split(",")
    rows = [dict(zip(columns, map(float, line.split(",")))) for line in lines]
    return {"columns": columns, "results": rows}


def print_unit(*values: float) -> float:
    """One unit in the 9th significant digit of the largest of ``values``."""
    top = max(abs(v) for v in values)
    return 10.0 ** (math.floor(math.log10(top)) - 8) if top > 0.0 else 0.0


@lru_cache(maxsize=None)
def _quotient(command: str, f: str, other: str, a: float):
    """The solver's quotient transform Q, whose inverse is the reported
    function: F_a / (s M) for derive, F_a / (s G_a) for identify."""
    def rebased(src):
        expr = parse(src)
        return transform_of(lambda x: evaluate(expr, x + a))

    F = rebased(f)
    D = transform_of(parse(other)) if command == "derive" else rebased(other)
    return lambda s: F(s) / (s * D(s))


def stehfest_rounding_bound(args, offsets) -> np.ndarray:
    """``eps (ln2/u) sum_k |V_k Q(k ln2/u)|`` at every offset ``u``: the
    rounding floor of one Gaver-Stehfest inversion of the run's ``Q``."""
    other = args.m if args.command == "derive" else args.g
    Q = _quotient(args.command, args.f, other, args.a)
    weights = stehfest_weights(args.stehfest_terms)
    bounds = []
    for u in offsets:
        scale = LN2 / float(u)
        total = sum(abs(w * Q((k + 1) * scale)) for k, w in enumerate(weights))
        bounds.append(EPS * scale * total)
    return np.array(bounds)


def inverse_offsets(args, report) -> np.ndarray:
    """Inversion offsets u of the reported rows (identify reports u itself)."""
    ts = np.array([row["t"] for row in report["results"]], dtype=float)
    return ts - args.a if args.command == "derive" else ts


def value_bounds(args, report) -> np.ndarray:
    """Allowed per-row drift of ``value``, before print rounding."""
    if args.command in ("derive", "identify"):
        return C_ROUNDING * stehfest_rounding_bound(args, inverse_offsets(args, report))
    values = np.array([row["value"] for row in report["results"]], dtype=float)
    return args.refinement_tol * np.abs(values)


def _verification_knots(kept: np.ndarray) -> np.ndarray:
    """The knots of the solver's verification spline: 0, a graded ladder in
    the leading gap, the only offsets it inverts again, and the kept report
    offsets (``laplace._solve_inverse``)."""
    return np.concatenate(([0.0], _verification_ladder(kept[0]), kept))


def residual_bound(args, report) -> float:
    """Value bound propagated through the verification convolution.

    The solver interpolates its knot values y_j by a cubic spline, which is
    linear in them: sum_j y_j l_j, with l_j the cardinal spline through the
    j-th unit vector.  Derive convolves that spline of g against m'; identify
    convolves its derivative, the step density of m, against g.  Cardinal
    splines change sign, so a drift delta_j of y_j moves the interpolant by
    at most sum_j |l_j| delta_j (derive) or sum_j |l_j'| delta_j (identify),
    and since the kernel is nonnegative, the same convolution applied to that
    envelope bounds the drift of the reproduced f(t)."""
    u = inverse_offsets(args, report)
    kept = u[1:] if report["certificate"]["first_point_excluded"] else u
    knots = _verification_knots(kept)
    drift = C_ROUNDING * stehfest_rounding_bound(args, knots[1:])
    if args.command == "derive":
        # the solver's value at u = 0 is 2 y_1 - y_2, the line through the
        # first two ladder samples
        at_zero = 2.0 * drift[0] + drift[1]
        density = differentiate(parse(args.m))

        def kernel(T, x):
            return evaluate(density, T - x)
    else:
        at_zero = 0.0  # m(0) = 0 is pinned
        g = parse(args.g)

        def kernel(T, x):
            return evaluate(g, args.a + T - x)

    drift = np.concatenate(([at_zero], drift))
    cardinals = [_CubicSpline(knots, unit) for unit in np.eye(knots.size)]

    def envelope(x):
        if args.command == "derive":
            return sum(d * np.abs(c(x)) for d, c in zip(drift, cardinals))
        return sum(d * np.abs(c.derivative(x)) for d, c in zip(drift, cardinals))

    nodes, weights = np.polynomial.legendre.leggauss(args.nodes)
    f = parse(args.f)
    worst = 0.0
    for T in kept:
        cuts = knots[knots <= T]
        mids, halves = 0.5 * (cuts[1:] + cuts[:-1]), 0.5 * (cuts[1:] - cuts[:-1])
        x = mids[:, None] + halves[:, None] * nodes
        reproduced_drift = float(np.sum(halves * ((kernel(T, x) * envelope(x)) @ weights)))
        worst = max(worst, reproduced_drift / (1.0 + abs(evaluate(f, args.a + T))))
    return worst


def _judging_args(argv):
    """Parsed flags of the run; for ``integrate --verify`` those of the
    ``verify`` battery, whose ``route_tol`` judges the same gap column."""
    if argv[0] == "integrate" and "--verify" in argv:
        return parse_args(["verify", *(x for x in argv[1:] if x != "--verify")])
    return parse_args(argv)


def _leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path, node


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _judged_leaves(argv, golden_text: str, fresh_text: str):
    """(golden leaf, problems of the fresh leaf) for every leaf of two
    reports whose structure outside the numbers agrees, in document order."""
    args = _judging_args(argv)
    golden = parse_report(golden_text, args.format)
    fresh = parse_report(fresh_text, args.format)
    rows = golden["results"]
    bounds = value_bounds(args, golden)

    def near(path, g, f, bound):
        if abs(f - g) > bound + print_unit(g, f):
            return [f"{path}: {f!r} vs golden {g!r}, allowed drift {bound:.3g}"]
        return []

    def at_or_below(path, f, tol):
        if f > tol + print_unit(f):
            return [f"{path}: {f!r} above its tolerance {tol:.3g}"]
        return []

    # equal masks give both reports the same leaves in the same order
    for (path, g), (_, f) in zip(_leaves(golden), _leaves(fresh)):
        key = path[-1]
        if path[0] == "inputs" or not _is_number(g):
            problems = [f"{path}: {f!r} != golden {g!r}"] if g != f else []
        elif key == "value":
            problems = near(path, g, f, bounds[path[1]])
        elif key == "oracle_value":
            problems = near(path, g, f, args.refinement_tol * abs(g))
        elif key == "max_violation":
            problems = near(path, g, f, 2.0 * float(bounds.max()))
        elif key == "residual":
            problems = near(path, g, f, residual_bound(args, golden))
            if (f <= args.residual_tol) != (g <= args.residual_tol):
                problems.append(f"{path}: {f!r} judged otherwise than golden {g!r} "
                                f"against residual_tol {args.residual_tol!r}")
        elif key == "gap":
            problems = at_or_below(path, f, args.route_tol * (1.0 + abs(rows[path[1]]["value"])))
        elif key in GAP_TOLERANCES:
            problems = at_or_below(path, f, getattr(args, GAP_TOLERANCES[key]))
        else:
            problems = [f"{path}: {f!r} != golden {g!r}"] if g != f else []
        yield g, problems


def report_mismatches(argv, golden_text: str, fresh_text: str) -> list[str]:
    """Every way ``fresh_text`` fails to match ``golden_text``; empty if it
    matches."""
    golden_mask, fresh_mask = mask_numbers(golden_text), mask_numbers(fresh_text)
    if fresh_mask != golden_mask:
        diff = difflib.unified_diff(golden_mask.splitlines(), fresh_mask.splitlines(),
                                    "golden", "fresh", lineterm="")
        return ["structure differs outside the numbers:", *diff]
    return [problem for _, problems in _judged_leaves(argv, golden_text, fresh_text)
            for problem in problems]


def keep_accepted_numbers(argv, golden_text: str, fresh_text: str) -> str:
    """``fresh_text`` with every number that the comparator accepts put back
    to the golden's digits, so only numbers that moved beyond their bound
    change.  A report whose structure outside the numbers differs is
    returned as it is."""
    if mask_numbers(fresh_text) != mask_numbers(golden_text):
        return fresh_text
    accepted = [not problems for g, problems in _judged_leaves(argv, golden_text, fresh_text)
                if _is_number(g)]
    old = [m.group(0) for m in _TOKEN.finditer(golden_text) if not m.group(0).startswith('"')]
    if len(old) != len(accepted):
        raise ValueError(f"{len(old)} numbers in the text, {len(accepted)} in the report")
    kept = iter(zip(old, accepted))

    def pick(match):
        token = match.group(0)
        if token.startswith('"'):
            return token
        golden_token, ok = next(kept)
        return golden_token if ok else token

    return _TOKEN.sub(pick, fresh_text)


def assert_run_matches_golden(name: str, argv, expected_exit: int, proc) -> None:
    """Check a finished CLI run against its exit code and golden file."""
    assert proc.returncode == expected_exit, proc.stderr
    golden_text = (GOLDEN / name).read_text(encoding="utf-8")
    problems = report_mismatches(argv, golden_text, proc.stdout)
    assert not problems, "\n".join(problems)
