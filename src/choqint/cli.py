"""Command line front end.

Subcommands, each with the settings it reads (``SETTINGS``)::

    integrate  --g EXPR --m EXPR [--verify]   quadrature, --monotone-slack
    derive     --f EXPR --m EXPR              --nodes, inversion
    identify   --f EXPR --g EXPR              --nodes, inversion
    verify     --g EXPR --m EXPR              quadrature, route tolerances

quadrature: --subintervals --nodes --refinement-tol --max-refinements --grading
inversion: --stehfest-terms --monotone-slack --residual-tol --decisive-ratio
route tolerances: --route-tol --hereditary-tol --shift-tol

Every subcommand also takes --a A and --t START:STOP:POINTS, and echoes its
inputs and settings, no others, in the report.  The value of --a, --t or a
function flag may start with a minus ('--a -1e3' reads as '--a=-1e3').  A
flag another subcommand reads is a usage error, as is a non-finite A, START
or STOP, a negative, infinite or NaN tolerance, an ``--output`` path that
cannot be written, and any argument the library refuses with
``InvalidArgumentError``, such as a grid whose points the doubles near A
cannot keep apart.  Reports go to stdout or ``--output`` as CSV
(default) or JSON; timing and diagnostics go to stderr.  Exit codes: 0
success, 2 expression or usage error, 3 inadmissible input (not
nonnegative/nondecreasing, bad distortion, f(a) != 0), 4 numerical failure,
5 derive found no admissible derivative, 6 verification gap above threshold.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import __version__
from .capacity import MONOTONE_SLACK, Distortion, certify_samples
from .choquet import (
    ChoquetProblem,
    as_grid,
    check_hereditary,
    choquet_convolution,
    choquet_general,
    choquet_level_set,
    shift_to_origin,
)
from .errors import (
    ChoqintError,
    InvalidArgumentError,
    InvalidDistortionError,
    NotInFPlusError,
    OriginNotZeroError,
    ParseError,
)
from .exprlang import parse
from .laplace import (
    DECISIVE_RATIO,
    DEFAULT_INVERSION,
    RESIDUAL_THRESHOLD,
    InversionConfig,
    Verdict,
    solve_problem2,
    solve_problem3,
)
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig
from .report import RunReport

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INADMISSIBLE = 3
EXIT_NUMERICAL = 4
EXIT_NO_DERIVATIVE = 5
EXIT_VERIFY_FAILED = 6


#: the most points a grid takes: a larger one is refused before it is built
MAX_POINTS = 100_000


def _t_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected START:STOP:POINTS")
    try:
        start, stop, points = finite(parts[0]), finite(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if points < 2:
        raise argparse.ArgumentTypeError("need at least 2 grid points")
    if points > MAX_POINTS:
        raise argparse.ArgumentTypeError(f"need at most {MAX_POINTS} grid points")
    if stop <= start:
        raise argparse.ArgumentTypeError("STOP must exceed START")
    return start, stop, points


def finite(text: str) -> float:
    """A finite number; argparse names this type in its error."""
    if not np.isfinite(value := float(text)):
        raise ValueError(f"{text!r} is not finite")
    return value


def tolerance(text: str) -> float:
    """A finite nonnegative number; argparse names this type in its error."""
    if (value := finite(text)) < 0.0:
        raise ValueError(text)
    return value


FORWARD = ("integrate", "verify")
INVERSE = ("derive", "identify")

#: (flag, type, default, the subcommands that read it); a subcommand takes
#: and echoes exactly its own settings, in this order.  Defaults are the
#: library's; only verify's route tolerances are the CLI's own
SETTINGS = (
    ("--subintervals", int, DEFAULT_QUADRATURE.subintervals, FORWARD),
    ("--nodes", int, DEFAULT_QUADRATURE.nodes_per_subinterval, FORWARD + INVERSE),
    ("--refinement-tol", float, DEFAULT_QUADRATURE.refinement_tolerance, FORWARD),
    ("--max-refinements", int, DEFAULT_QUADRATURE.max_refinements, FORWARD),
    ("--grading", float, DEFAULT_QUADRATURE.endpoint_grading, FORWARD),
    ("--stehfest-terms", int, DEFAULT_INVERSION.stehfest_terms, INVERSE),
    ("--monotone-slack", tolerance, MONOTONE_SLACK, ("integrate",) + INVERSE),
    ("--residual-tol", tolerance, RESIDUAL_THRESHOLD, INVERSE),
    ("--decisive-ratio", tolerance, DECISIVE_RATIO, INVERSE),
    ("--route-tol", tolerance, 1e-5, ("verify",)),
    ("--hereditary-tol", tolerance, 1e-6, ("verify",)),
    ("--shift-tol", tolerance, 1e-10, ("verify",)),
)


#: subcommand: (help, the two input functions it takes)
COMMANDS = {
    "integrate": ("forward Choquet integral of g", "g", "m"),
    "derive": ("derivative of f with respect to the measure", "f", "m"),
    "identify": ("identify the distortion from f and g", "f", "g"),
    "verify": ("cross-route property battery on g and m", "g", "m"),
}
_ROLES = {"f": "integral", "g": "integrand", "m": "distortion"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="choqint",
        description="Choquet integral calculus on [a, t] for distorted "
                    "Lebesgue measures",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, *functions) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name in functions:
            p.add_argument(f"--{name}", required=True, help=f"{_ROLES[name]} expression in t")
        if command == "integrate":
            p.add_argument("--verify", action="store_true",
                           help="add level-set oracle values and gaps")
        p.add_argument("--a", type=finite, default=0.0, help="interval origin (default 0)")
        p.add_argument("--t", type=_t_range, required=True, metavar="START:STOP:POINTS",
                       help="uniform evaluation grid, inclusive endpoints")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default="-", help="output path, '-' for stdout")
        for flag, kind, default, commands in SETTINGS:
            if command in commands:
                p.add_argument(flag, type=kind, default=default)
    return parser


def _quadrature(args) -> QuadratureConfig:
    return QuadratureConfig(
        subintervals=args.subintervals,
        nodes_per_subinterval=args.nodes,
        refinement_tolerance=args.refinement_tol,
        max_refinements=args.max_refinements,
        endpoint_grading=args.grading,
    )


def _grid(args) -> np.ndarray:
    start, stop, points = args.t
    return as_grid(np.linspace(start, stop, points), args.a)


def _distortion(args, span: float) -> Distortion:
    return Distortion.from_expression(args.m, upper=max(span, 1.0))


def _echo_inputs(args) -> dict:
    """The run's input functions, origin, grid and settings, in that order."""
    start, stop, points = args.t
    echo: dict = {name: getattr(args, name) for name in COMMANDS[args.command][1:]}
    echo.update(a=args.a, t_start=start, t_stop=stop, t_points=points)
    for flag, _, _, commands in SETTINGS:
        if args.command in commands:
            key = flag[2:].replace("-", "_")
            echo[key] = getattr(args, key)
    return echo


def _certificate_dict(cert, first_point_excluded: bool = False) -> dict:
    return {
        "verdict": cert.verdict,
        "monotone": cert.is_monotone,
        "violation_index": cert.violation_index,
        "max_violation": cert.max_violation,
        "first_point_excluded": first_point_excluded,
    }


def run_integrate(args) -> RunReport:
    grid = _grid(args)
    g = parse(args.g)
    d = _distortion(args, grid[-1] - args.a)
    cfg = _quadrature(args)
    problem = ChoquetProblem(args.a, g, d, grid)
    values = choquet_convolution(problem, cfg)
    if args.verify:
        columns = ["t", "value", "oracle_value", "gap"]
        oracles = choquet_level_set(problem, cfg)
        table = [grid, values, oracles, np.abs(values - oracles)]
    else:
        columns = ["t", "value"]
        table = [grid, values]
    cert = certify_samples(grid, values, args.monotone_slack)
    return RunReport(
        command="integrate",
        inputs=_echo_inputs(args),
        columns=columns,
        rows=np.column_stack(table).tolist(),
        certificate=_certificate_dict(cert),
    )


def run_inverse(args) -> RunReport:
    """derive and identify.  Each row's ``monotone_ok`` is the solver
    certificate's judgement of that row; an excluded first row is not
    certified and reads false."""
    grid = _grid(args)
    f = parse(args.f)
    settings = dict(
        quadrature=QuadratureConfig(nodes_per_subinterval=args.nodes),
        inversion=InversionConfig(stehfest_terms=args.stehfest_terms),
        residual_threshold=args.residual_tol,
        decisive_ratio=args.decisive_ratio,
        monotone_slack=args.monotone_slack,
    )
    if args.command == "derive":
        d = _distortion(args, grid[-1] - args.a)
        report = solve_problem2(f, d, args.a, grid, **settings)
    else:
        report = solve_problem3(f, parse(args.g), args.a, grid, **settings)
    cert = report.certificate
    flags = [False] * report.first_point_excluded + list(cert.row_ok)
    rows = [[float(t), float(v), ok]
            for t, v, ok in zip(report.grid, report.values, flags)]
    return RunReport(
        command=args.command,
        inputs=_echo_inputs(args),
        columns=["t", "value", "monotone_ok"],
        rows=rows,
        certificate=_certificate_dict(cert, report.first_point_excluded),
        residual=report.residual,
        verdict=report.verdict.value,
    )


def run_verify(args) -> RunReport:
    grid = _grid(args)
    g = parse(args.g)
    d = _distortion(args, grid[-1] - args.a)
    cfg = _quadrature(args)
    problem = ChoquetProblem(args.a, g, d, grid)
    shifted = shift_to_origin(problem)

    oracles = choquet_level_set(problem, cfg)
    conv = choquet_convolution(problem, cfg)
    scale = 1.0 + np.abs(conv)

    def max_gap(values: np.ndarray) -> float:
        return float(np.max(np.abs(values - conv) / scale))

    max_level_set = max_gap(oracles)
    max_general = max_gap(choquet_general(problem, cfg))
    max_shift = max_gap(choquet_convolution(shifted, cfg))

    split = float(grid[grid.size // 2])
    hereditary = check_hereditary(problem, split, cfg)
    hereditary_rel = hereditary.gap / (1.0 + abs(hereditary.lhs))

    passed = (max_level_set <= args.route_tol
              and max_general <= args.route_tol
              and hereditary_rel <= args.hereditary_tol
              and max_shift <= args.shift_tol)
    return RunReport(
        command="verify",
        inputs=_echo_inputs(args),
        columns=["t", "value", "oracle_value", "gap"],
        rows=np.column_stack([grid, conv, oracles, np.abs(conv - oracles)]).tolist(),
        verdict="Pass" if passed else "Fail",
        properties={
            "max_level_set_gap": max_level_set,
            "max_general_gap": max_general,
            "hereditary_split": split,
            "hereditary_gap": hereditary_rel,
            "max_shift_gap": max_shift,
        },
    )


_RUNNERS = {
    "integrate": run_integrate,
    "derive": run_inverse,
    "identify": run_inverse,
    "verify": run_verify,
}


def _emit(report: RunReport, args, seconds: float) -> bool:
    """Write the report and the timing line; False, with one line on
    stderr and no timing line, if the output file cannot be written."""
    text = report.to_json_text() if args.format == "json" else report.to_csv_text()
    if args.output == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"choqint: cannot write {args.output}: {exc.strerror or exc}", file=sys.stderr)
            return False
    print(f"{report.command}: done in {seconds:.3f}s", file=sys.stderr)
    return True


def _join_values(argv: list[str]) -> list[str]:
    """Fold '--a -1e3' into '--a=-1e3', and so for --t and the function
    flags, so that a value with a leading minus is not read as an option."""
    flags = {"--a", "--t"} | {f"--{name}" for _, *names in COMMANDS.values() for name in names}
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in flags:
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


#: the parser of ``main``, built by its first call: parsing does not change
#: a parser, so one serves every later call in the process
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(_join_values(sys.argv[1:] if argv is None else list(argv)))
    started = time.perf_counter()
    try:
        report = _RUNNERS[args.command](args)
    except InvalidArgumentError as exc:
        print(f"choqint: usage error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ParseError as exc:
        print(f"choqint: expression error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (NotInFPlusError, InvalidDistortionError, OriginNotZeroError) as exc:
        print(f"choqint: inadmissible input: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except ChoqintError as exc:
        print(f"choqint: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if not _emit(report, args, time.perf_counter() - started):
        return EXIT_PARSE
    if report.command == "derive" and report.verdict == Verdict.DOES_NOT_EXIST.value:
        return EXIT_NO_DERIVATIVE
    if report.command == "verify" and report.verdict == "Fail":
        return EXIT_VERIFY_FAILED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
