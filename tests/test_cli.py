import json
import subprocess
import sys

import numpy as np
import pytest

from golden_compare import assert_run_matches_golden
from golden_manifest import GOLDEN, GOLDEN_RUNS


def run_cli(*argv, **kwargs):
    """``python -m choqint *argv`` in a fresh process, held to the CLI's
    failure contract whatever its exit code: no traceback, no Python
    warning, and at most 2048 bytes of stderr."""
    proc = subprocess.run([sys.executable, "-m", "choqint", *argv],
                          capture_output=True, text=True, **kwargs)
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr, proc.stderr[:4096]
    assert len(proc.stderr.encode()) <= 2048, proc.stderr[:4096]
    return proc


def balanced(n: int) -> str:
    """A balanced sum of n leaves t: 24.6 KB of source for n = 4096."""
    return "t" if n == 1 else f"({balanced(n // 2)} + {balanced(n - n // 2)})"


@pytest.mark.parametrize("name,argv,expected_exit", GOLDEN_RUNS,
                         ids=[row[0] for row in GOLDEN_RUNS])
def test_golden_outputs_are_byte_identical(name, argv, expected_exit):
    # byte-identical outside the float digits; those are held to the
    # method's rounding bound (see golden_compare)
    assert_run_matches_golden(name, argv, expected_exit, run_cli(*argv))


def test_committed_goldens_match_closed_forms():
    # byte comparison alone could freeze a wrong number; re-derive the values
    def rows_of(name):
        lines = (GOLDEN / name).read_text().splitlines()[1:]
        return [tuple(float(c) for c in line.split(",")[:2]) for line in lines]

    for t, value in rows_of("integrate_sqrt.csv"):
        assert value == pytest.approx(4.0 / 15.0 * (t - 1.0) ** 2.5, rel=1e-7, abs=1e-9)
    for t, value in rows_of("derive_power35.csv"):
        assert value == pytest.approx(35.0 / 4.0 * (t - 1.0) ** 1.5, rel=1e-3)
    for u, value in rows_of("identify_power55.csv"):
        assert value == pytest.approx(693.0 / 256.0 * u ** 5, rel=1e-3)


def test_repeated_runs_are_deterministic():
    # the goldens no longer pin float digits, so same-machine byte identity
    # is checked here, on every pinned run
    for name, argv, _ in GOLDEN_RUNS:
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.returncode == second.returncode, name
        assert first.stdout == second.stdout, name


def test_runs_in_one_process_print_the_bytes_of_fresh_ones(capsys):
    # an expression's transforms are kept across runs in one process; each
    # pinned run, done again after all of them, prints what it printed alone
    from choqint import laplace

    def run(argv):
        code = main_exit_code(argv)
        return code, capsys.readouterr().out

    alone = []
    for _, argv, _ in GOLDEN_RUNS:
        laplace._KEPT.clear()
        alone.append(run(argv))
    warm = [run(argv) for _, argv, _ in reversed(GOLDEN_RUNS)][::-1]
    assert laplace._KEPT
    assert warm == alone
    assert [code for code, _ in alone] == [code for _, _, code in GOLDEN_RUNS]


def test_one_parser_serves_every_run_in_a_process(capsys, monkeypatch):
    # a usage error, then a derive and a verify, through main in one
    # process: the parser is built once, and each run prints what a fresh
    # process prints (stderr apart from its timing line)
    from choqint import cli

    built = []

    def build_parser():
        built.append(1)
        return real()

    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", build_parser)
    monkeypatch.setattr(cli, "_parser", None)

    def without_timing(stderr):
        return [line for line in stderr.splitlines() if " done in " not in line]

    usage = ["derive", "--f", "t", "--m", "t", "--t", "0.1:1:3", "--route-tol", "1"]
    for argv in (usage, ARGV["derive"], ARGV["verify"]):
        code = main_exit_code(argv)
        here = capsys.readouterr()
        fresh = run_cli(*argv)
        assert (code, here.out) == (fresh.returncode, fresh.stdout), argv[0]
        assert without_timing(here.err) == without_timing(fresh.stderr), argv[0]
    assert built == [1]


# one admissible run per subcommand
ARGV = {
    "integrate": ["integrate", "--g", "t", "--m", "t", "--a", "0", "--t", "0:1:3"],
    "derive": ["derive", "--f", "pow(t-1,3.5)", "--m", "t^2/2", "--a", "1",
               "--t", "1.1:3:10"],
    "identify": ["identify", "--f", "pow(t-2,5.5)", "--g", "sqrt(t-2)", "--a", "2",
                 "--t", "2.1:5:10"],
    "verify": ["verify", "--g", "sqrt(t-1)", "--m", "t^2/2", "--a", "1", "--t", "1:3:5"],
}


def main_exit_code(argv) -> int:
    """``cli.main(argv)`` in this process; argparse's rejections exit."""
    from choqint import cli

    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


class TestExitCodes:
    def test_expression_error_is_2(self):
        proc = run_cli("integrate", "--g", "sqrt(t-", "--m", "t", "--a", "0",
                       "--t", "0:1:3")
        assert proc.returncode == 2
        assert "expression error" in proc.stderr

    def test_negative_integrand_is_3(self):
        proc = run_cli("integrate", "--g", "t", "--m", "t", "--a", "-1",
                       "--t", "-1:1:5")
        assert proc.returncode == 3
        assert "inadmissible" in proc.stderr

    def test_bad_distortion_is_3(self):
        proc = run_cli("integrate", "--g", "t", "--m", "t+1", "--a", "0",
                       "--t", "0:1:3")
        assert proc.returncode == 3

    def test_f_not_zero_at_origin_is_3(self):
        proc = run_cli("derive", "--f", "t", "--m", "t^2/2", "--a", "1",
                       "--t", "1.1:2:4")
        assert proc.returncode == 3

    def test_numerical_failure_is_4(self):
        proc = run_cli("derive", "--f", "exp(2*t)-1", "--m", "t^2/2", "--a", "0",
                       "--t", "0.5:5:6")
        assert proc.returncode == 4
        assert "numerical failure" in proc.stderr

    def test_no_derivative_is_5(self):
        proc = run_cli("derive", "--f", "sqrt(t-1)", "--m", "t^2/2", "--a", "1",
                       "--t", "1.1:3:10")
        assert proc.returncode == 5

    def test_verify_gap_breach_is_6(self):
        proc = run_cli("verify", "--g", "sqrt(t-1)", "--m", "t^2/2", "--a", "1",
                       "--t", "1:3:5", "--route-tol", "1e-18")
        assert proc.returncode == 6

    def test_usage_error_is_2(self):
        proc = run_cli("integrate", "--g", "t", "--m", "t", "--a", "0",
                       "--t", "0:1:1")
        assert proc.returncode == 2

    def test_a_pass_that_overflows_is_4_without_a_warning(self):
        # the integral at t = 5e299 overflows: one numerical-failure line
        # naming it, and no numpy warning before it
        proc = run_cli("integrate", "--g", "t", "--m", "t", "--a", "0", "--t", "0:1e300:3")
        assert proc.returncode == 4
        assert proc.stderr == ("choqint: numerical failure: a quadrature pass is not finite "
                               "at t = 5e+299\n")

    @pytest.mark.parametrize("target,reason", [("missing/out.csv", "No such file or directory"),
                                               (".", "Is a directory")],
                             ids=["no-directory", "a-directory"])
    def test_an_output_that_cannot_be_written_is_2(self, target, reason, tmp_path, capsys):
        # one line, and no timing line: nothing was done
        path = tmp_path / target
        code = main_exit_code([*ARGV["integrate"], "--output", str(path)])
        assert code == 2
        assert capsys.readouterr().err == f"choqint: cannot write {path}: {reason}\n"

    REJECTED_CONFIG = [
        ("derive", "--stehfest-terms", "15"),
        ("derive", "--nodes", "0"),
        ("integrate", "--grading", "2"),
        ("integrate", "--max-refinements", "-1"),
        ("integrate", "--refinement-tol", "0"),
        ("integrate", "--refinement-tol", "inf"),
        ("integrate", "--refinement-tol", "nan"),
    ]

    # ids name the flag and value; each case runs on a subcommand that reads the flag
    @pytest.mark.parametrize("command,flag,value", REJECTED_CONFIG,
                             ids=[f"{flag}-{value}" for _, flag, value in REJECTED_CONFIG])
    def test_rejected_config_value_is_2(self, command, flag, value):
        proc = run_cli(*ARGV[command], flag, value)
        assert proc.returncode == 2
        assert "usage error" in proc.stderr

    @pytest.mark.parametrize("command,flag", [
        *[("integrate", flag) for flag in
          ("--stehfest-terms", "--residual-tol", "--decisive-ratio")],
        *[("verify", flag) for flag in
          ("--stehfest-terms", "--monotone-slack", "--residual-tol", "--decisive-ratio")],
        *[(command, flag) for command in ("derive", "identify") for flag in
          ("--subintervals", "--refinement-tol", "--max-refinements", "--grading")],
    ])
    def test_flag_of_another_subcommand_is_2(self, command, flag):
        # each subcommand takes only the settings it reads
        proc = run_cli(*ARGV[command], flag, "15")
        assert proc.returncode == 2
        assert "unrecognized arguments" in proc.stderr

    @pytest.mark.parametrize("command,flag", [
        ("integrate", "--monotone-slack"),
        ("identify", "--monotone-slack"),
        ("identify", "--residual-tol"),
        ("derive", "--decisive-ratio"),
        ("verify", "--route-tol"),
        ("verify", "--hereditary-tol"),
        ("verify", "--shift-tol"),
    ])
    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_negative_or_nan_tolerance_is_2(self, command, flag, value):
        proc = run_cli(*ARGV[command], f"{flag}={value}")
        assert proc.returncode == 2
        assert "invalid tolerance value" in proc.stderr

    @pytest.mark.parametrize("extra", [
        ["--t", "0:nan:5"],
        ["--t", "nan:1:5"],
        ["--t", "0:inf:5"],
        ["--a", "nan", "--t", "0:1:5"],
        ["--a=-inf", "--t", "0:1:5"],
    ])
    def test_non_finite_origin_or_grid_end_is_2(self, extra):
        proc = run_cli("verify", "--g", "t", "--m", "t^2", *extra)
        assert proc.returncode == 2
        assert "finite" in proc.stderr

    # the ramp's transforms at the largest Stehfest nodes of t = 0.01 are
    # subnormal; the exit codes are the solvers' verdicts, not a crash
    RAMP = "(t - 0.7 + abs(t - 0.7))/2"

    @pytest.mark.parametrize("argv,code", [
        (["derive", "--f", RAMP, "--m", "t"], 5),
        (["identify", "--f", RAMP, "--g", "1"], 0),
    ], ids=["derive", "identify"])
    def test_subnormal_transform_is_no_crash(self, argv, code):
        proc = run_cli(*argv, "--a", "0", "--t", "0.01:1:5")
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr

    # from 1001 points on, a thousandth of the span from a reaches a grid's
    # second point; the first point then goes halfway to it
    @pytest.mark.parametrize("argv", [
        ["derive", "--f", "pow(t-1,3.5)", "--m", "t^2/2", "--a", "1", "--t", "1:3:1001"],
        ["identify", "--f", "pow(t-2,5.5)", "--g", "sqrt(t-2)", "--a", "2",
         "--t", "2:5:1500"],
    ], ids=["derive", "identify"])
    def test_grid_of_1001_points_from_a_is_no_crash(self, argv):
        proc = run_cli(*argv)
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        rows = proc.stdout.splitlines()[1:]
        assert len(rows) == int(argv[-1].split(":")[-1])
        assert float(rows[0].split(",")[0]) < float(rows[1].split(",")[0])

    # near a = 1e15 the doubles are 0.125 apart: 17 points on [a, a + 1]
    # repeat some, and with 9 no double lies between a and the second point
    @pytest.mark.parametrize("argv", [
        ["integrate", "--g", "t-1000000000000000", "--m", "t", "--t",
         "1000000000000000:1000000000000001:17"],
        ["verify", "--g", "t-1000000000000000", "--m", "t", "--t",
         "1000000000000000:1000000000000001:17"],
        ["derive", "--f", "t-1000000000000000", "--m", "t", "--t",
         "1000000000000000:1000000000000001:9"],
        ["identify", "--f", "t-1000000000000000", "--g", "t", "--t",
         "1000000000000000:1000000000000001:9"],
    ], ids=["integrate", "verify", "derive", "identify"])
    def test_grid_the_doubles_near_a_cannot_keep_apart_is_2(self, argv, capsys):
        assert main_exit_code([*argv, "--a", "1e15"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("choqint: usage error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    CHAIN = "+".join(["t"] * 3000)
    SIZES = ["integrate", "--g", "t", "--m", "t", "--a", "0"]

    # each is refused before the tree, grid, Gauss rule or pass it asks for
    # is built
    @pytest.mark.parametrize("argv", [
        ["integrate", "--g", CHAIN, "--m", "t", "--a", "0", "--t", "0:1:3"],
        ["integrate", "--g", CHAIN.replace("+", "*"), "--m", "t", "--a", "0",
         "--t", "0:1:3"],
        ["derive", "--f", CHAIN, "--m", "t", "--a", "0", "--t", "0.1:1:3"],
        [*SIZES, "--t", "0:1:10000000000000"],
        [*SIZES, "--t", "0:1:3", "--nodes", "100000000"],
        [*SIZES, "--t", "0:1:3", "--subintervals", "1000000000"],
        ["derive", "--f", "t^2", "--m", "t", "--a", "0", "--t", "0.1:1:3",
         "--nodes", "1000000000"],
    ], ids=["sum-chain", "product-chain", "derive-chain", "grid-points", "nodes",
            "subintervals", "derive-nodes"])
    def test_oversized_input_is_2_without_a_traceback(self, argv, capsys):
        assert main_exit_code(argv) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_pass_above_the_row_cap_is_4_without_a_traceback(self, capsys):
        # on a uniform mesh the kink at 0.3 keeps every doubling moving, so
        # this tolerance is never met: the pass of 640 * 2^13 nodes, above
        # 2^22, is refused instead of built
        argv = ["integrate", "--g", "t + abs(t - 0.3)", "--m", "t^1.5", "--a", "0",
                "--t", "0:1:3", "--grading", "1", "--refinement-tol", "1e-300",
                "--max-refinements", "30"]
        assert main_exit_code(argv) == 4
        err = capsys.readouterr().err
        assert "exceeds the cap of 4194304" in err and "Traceback" not in err

    def test_domain_error_of_a_long_input_is_one_short_line(self, capsys):
        # a balanced sum of 4096 t, 24.6 KB of argv: exp overflows at t = 1
        argv = ["integrate", "--g", f"exp(800*{balanced(4096)})", "--m", "t", "--t", "0:1:3"]
        assert main_exit_code(argv) == 4
        err = capsys.readouterr().err
        assert "non-finite result" in err and "Traceback" not in err
        assert len(err) < 2048

    def test_grid_before_origin_is_2(self):
        proc = run_cli("integrate", "--g", "sqrt(t-1)", "--m", "t", "--a", "1",
                       "--t", "0:2:4")
        assert proc.returncode == 2
        assert "usage error" in proc.stderr

    NEAR_1E15 = "1000000000000000:1000000000000001"

    #: a problem on [1e308, 1.5e308], where lo + hi of a bisection bracket overflows
    TOP_OF_THE_RANGE = [
        [command, "--g", "t*1e-308", "--m", "t*1e-308", "--a", "1e308",
         "--t", "1e308:1.5e308:3", *extra]
        for command, extra in (("verify", []), ("integrate", ["--verify"]))]

    # (expected exit, argv) of hostile inputs through the real entry point,
    # where run_cli holds each to the failure contract
    @pytest.mark.parametrize("code,argv", [
        pytest.param(2, ["integrate", "--g", "(" * 250 + "t" + ")" * 250, "--m", "t",
                         "--a", "0", "--t", "0:1:3"], id="250-deep"),
        pytest.param(3, ["integrate", "--g", "1 - t", "--m", "t", "--a", "0", "--t", "0:2:5"],
                     id="g-outside-F+"),
        pytest.param(2, ["integrate", "--g", CHAIN, "--m", "t", "--a", "0", "--t", "0:1:3"],
                     id="3000-term-sum"),
        pytest.param(2, [*SIZES, "--t", "0:1:10000000000000"], id="1e13-points"),
        pytest.param(2, [*ARGV["integrate"], "--nodes", "100000000"], id="1e8-nodes"),
        pytest.param(2, [*ARGV["integrate"], "--subintervals", "1000000000"], id="1e9-cells"),
        pytest.param(4, ["integrate", "--g", "t + abs(t - 0.3)", "--m", "t^1.5", "--a", "0",
                         "--t", "0:1:3", "--grading", "1", "--refinement-tol", "1e-300",
                         "--max-refinements", "30"], id="never-converges"),
        pytest.param(4, ["integrate", "--g", f"exp(800*{balanced(4096)})", "--m", "t",
                         "--t", "0:1:3"], id="4096-leaf-overflow"),
        pytest.param(2, ["integrate", "--g", "t-1000000000000000", "--m", "t", "--a", "1e15",
                         "--t", f"{NEAR_1E15}:17"], id="17-points-near-1e15"),
        pytest.param(2, ["derive", "--f", "t-1000000000000000", "--m", "t", "--a", "1e15",
                         "--t", f"{NEAR_1E15}:9"], id="9-points-near-1e15"),
        pytest.param(2, [*ARGV["integrate"], "--output", "/nonexistent/dir/out.csv"],
                     id="unwritable-output"),
        pytest.param(0, ["integrate", "--g", "t + 1000", "--m", "t", "--a", "-1e3",
                         "--t", "-1000:-999:3"], id="leading-minus-origin"),
        pytest.param(0, ["derive", "--f", "t", "--m", "t", "--a", "0", "--t", "5e-324:1:4"],
                     id="subnormal-first-offset"),
        # weighted Stehfest terms pass the largest double
        pytest.param(4, ["derive", "--f", "1e300*t^2", "--m", "t^2/2", "--a", "0",
                         "--t", "0.5:2:5"], id="derive-stehfest-overflow"),
        pytest.param(4, ["identify", "--f", "1e300*t^2", "--g", "t^2/2", "--a", "0",
                         "--t", "0:1:3"], id="identify-stehfest-overflow"),
        # levels up to 1e308, where a cell's hi + lo overflows
        pytest.param(0, ["integrate", "--g", "1e308*t", "--m", "ln(1+t)", "--a", "0",
                         "--t", "0.1:1:4", "--verify"], id="levels-near-1e308"),
        # bisection midpoints where lo + hi overflows
        *(pytest.param(0, argv, id=f"{argv[0]}-midpoints-near-1e308")
          for argv in TOP_OF_THE_RANGE),
        # numpy overflows in the routes, the difference quotient, the spline,
        # its value at u = 0 and the first-point bound
        pytest.param(4, ["verify", "--g", "t+1e300", "--m", "t", "--a", "0",
                         "--t", "1e10:1e11:3"], id="verify-base-term-overflow"),
        pytest.param(4, ["integrate", "--g", "t+1e300", "--m", "pow(t,0.3)", "--a", "0",
                         "--t", "0.5:2:5"], id="integrand-overflow"),
        pytest.param(4, ["verify", "--g", "(t+abs(t))/2", "--m", "1e308*t", "--a", "0",
                         "--t", "0:1:2"], id="difference-quotient-overflow"),
        pytest.param(0, ["derive", "--f", "1e300*t^2", "--m", "t^2/2", "--a", "0",
                         "--t", "1e-10:1e-9:3"], id="spline-overflow"),
        pytest.param(0, ["derive", "--f", "1e308*t", "--m", "t", "--a", "0",
                         "--t", "1e-11:1e-10:3"], id="extrapolation-to-0-overflow"),
        pytest.param(0, ["identify", "--f", "1e308*t", "--g", "t", "--a", "0",
                         "--t", "1e-10:1e-9:3"], id="first-point-bound-overflow"),
        # an input undefined on its own window is inadmissible
        pytest.param(3, ["integrate", "--g", "sqrt(t-2)", "--m", "t", "--a", "0",
                         "--t", "0:1:3"], id="g-undefined"),
        pytest.param(3, ["integrate", "--g", "t", "--m", "sqrt(t-1)", "--a", "0",
                         "--t", "0:1:3"], id="m-undefined"),
        pytest.param(3, ["integrate", "--g", "1/t", "--m", "t", "--a", "0", "--t", "0:1:3"],
                     id="g-divides-by-zero"),
        pytest.param(3, ["derive", "--f", "sqrt(t-2)", "--m", "t", "--a", "0",
                         "--t", "0.5:1:3"], id="f-undefined-at-a"),
        pytest.param(3, ["identify", "--f", "t", "--g", "ln(t)", "--a", "0", "--t", "0.5:1:3"],
                     id="identify-g-undefined"),
    ])
    def test_hostile_input_ends_with_its_exit_code(self, code, argv):
        assert run_cli(*argv).returncode == code

    @pytest.mark.parametrize("argv", TOP_OF_THE_RANGE, ids=lambda argv: argv[0])
    def test_the_oracle_near_the_top_of_the_double_range_prints_the_value(self, argv):
        rows = [line.split(",") for line in run_cli(*argv).stdout.splitlines()[1:]]
        assert [row[1] for row in rows] == ["0", "0.28125", "0.625"]
        assert [row[2] for row in rows] == [row[1] for row in rows]


#: (flag, a value with a leading minus, the rest of an admissible argv)
MINUS_VALUES = [
    ("--a", "-1e3", ["integrate", "--g", "t + 1000", "--m", "t", "--t", "-1000:-999:3"]),
    ("--t", "-1:1:5", ["integrate", "--g", "t + 1", "--m", "t", "--a", "-1"]),
    ("--g", "-1+2*t", ["integrate", "--m", "t", "--a", "1", "--t", "1:2:3"]),
    ("--m", "-t+2*t", ["verify", "--g", "t", "--a", "0", "--t", "0:1:3"]),
    ("--f", "-pow(t-1,3.5)+2*pow(t-1,3.5)", ["derive", "--m", "t^2/2", "--a", "1",
                                             "--t", "1.1:3:10"]),
]


@pytest.mark.parametrize("flag,value,rest", MINUS_VALUES, ids=[row[0] for row in MINUS_VALUES])
def test_a_value_with_a_leading_minus_reads_as_its_joined_form(flag, value, rest, capsys):
    runs = []
    for argv in ([*rest, "--format", "json", flag, value],
                 [*rest, "--format", "json", f"{flag}={value}"]):
        runs.append((main_exit_code(argv), capsys.readouterr().out))
    assert runs[0] == runs[1] and runs[0][0] == 0


class TestChecksPerRun:
    @pytest.mark.parametrize("command,validations,certificates", [
        ("integrate", 1, 1),
        ("derive", 1, 1),
        ("identify", 0, 2),
        # the problem's g and shift_to_origin's rebased g, a different tree
        ("verify", 1, 2),
    ])
    def test_each_input_is_checked_once(self, command, validations, certificates,
                                        monkeypatch, capsys):
        from choqint import capacity, cli

        calls = {"_validate_distortion": 0, "check_f_plus": 0}
        for name in calls:
            def spy(*args, _name=name, _fn=getattr(capacity, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(capacity, name, spy)
        assert cli.main(ARGV[command]) == 0
        capsys.readouterr()
        assert calls == {"_validate_distortion": validations,
                         "check_f_plus": certificates}


@pytest.mark.parametrize("argv", [
    ARGV["verify"],
    ["integrate", "--g", "sqrt(t-1)", "--m", "t^2/2", "--a", "1", "--t", "1:3:5", "--verify"],
], ids=["verify", "integrate-verify"])
def test_level_set_route_runs_once_for_the_whole_grid(argv, monkeypatch, capsys):
    from choqint import choquet_level_set, cli

    grids = []

    def spy(problem, *args, **kwargs):
        grids.append(problem.t_grid)
        return choquet_level_set(problem, *args, **kwargs)

    monkeypatch.setattr(cli, "choquet_level_set", spy)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(grids) == 1
    assert np.array_equal(grids[0], np.linspace(1.0, 3.0, 5))


def test_inverse_solves_import_no_scipy():
    # numpy is the only dependency; scipy may be installed where the tests
    # run, so an accidental import would otherwise go unnoticed
    code = (f"import io, sys, contextlib; from choqint import cli\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [cli.main({ARGV['derive']!r}), cli.main({ARGV['identify']!r})]\n"
            f"print(codes, 'scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[0,", "0]", "False"]


class TestOutputs:
    def test_output_file(self, tmp_path):
        target = tmp_path / "out.csv"
        proc = run_cli("integrate", "--g", "0", "--m", "t", "--a", "0",
                       "--t", "0:1:3", "--output", str(target))
        assert proc.returncode == 0
        assert proc.stdout == ""
        lines = target.read_text().splitlines()
        assert lines[0] == "t,value"
        assert lines[1:] == ["0,0", "0.5,0", "1,0"]

    @pytest.mark.parametrize("g", ["t\n+ 1", "t\t+ 1"], ids=["newline", "tab"])
    def test_json_report_of_an_input_with_control_characters_loads(self, g, capsys):
        code = main_exit_code(["integrate", "--g", g, "--m", "t", "--a", "0", "--t", "0:1:3",
                               "--format", "json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["inputs"]["g"] == g

    def test_integrate_with_verify_columns(self):
        proc = run_cli("integrate", "--g", "sqrt(t-1)", "--m", "t^2/2",
                       "--a", "1", "--t", "1:3:5", "--verify")
        header = proc.stdout.splitlines()[0]
        assert header == "t,value,oracle_value,gap"

    def test_json_report_shape(self):
        proc = run_cli("derive", "--f", "pow(t-1,3.5)", "--m", "t^2/2",
                       "--a", "1", "--t", "1.1:3:10", "--format", "json")
        data = json.loads(proc.stdout)
        assert list(data.keys()) == ["command", "inputs", "columns", "results",
                                     "certificate", "residual", "verdict"]
        assert data["verdict"] == "Exists"
        assert data["certificate"]["monotone"] is True
        assert data["inputs"]["stehfest_terms"] == 16
        assert len(data["results"]) == 10

    def test_verify_reports_property_gaps(self):
        proc = run_cli("verify", "--g", "sqrt(t-1)", "--m", "t^2/2", "--a", "1",
                       "--t", "1:3:5", "--format", "json")
        data = json.loads(proc.stdout)
        props = data["properties"]
        assert props["max_level_set_gap"] <= 1e-5
        assert props["max_general_gap"] <= 1e-5
        assert props["hereditary_gap"] <= 1e-6
        assert props["max_shift_gap"] <= 1e-10
        assert data["verdict"] == "Pass"

    def test_integrate_example_row(self):
        # the t = 2 row of the worked square-root example
        proc = run_cli("integrate", "--g", "sqrt(t-1)", "--m", "t^2/2",
                       "--a", "1", "--t", "1:3:5")
        rows = dict(line.split(",", 1) for line in proc.stdout.splitlines()[1:])
        assert float(rows["2"]) == pytest.approx(4.0 / 15.0, rel=1e-8)

    def test_derive_example_value(self):
        proc = run_cli("derive", "--f", "pow(t-1,3.5)", "--m", "t^2/2",
                       "--a", "1", "--t", "1.1:3:10", "--format", "json")
        data = json.loads(proc.stdout)
        row = min(data["results"], key=lambda r: abs(r["t"] - 2.0))
        want = 35.0 / 4.0 * (row["t"] - 1.0) ** 1.5
        assert row["value"] == pytest.approx(want, rel=1e-3)

    def test_derive_zero_function_exists(self):
        proc = run_cli("derive", "--f", "0", "--m", "t", "--a", "0",
                       "--t", "0.2:2:6", "--format", "json")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["verdict"] == "Exists"
        assert all(row["value"] == 0 for row in data["results"])

    def test_identify_zero_function_inconclusive(self):
        proc = run_cli("identify", "--f", "0", "--g", "t", "--a", "0",
                       "--t", "0.2:2:6", "--format", "json")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["verdict"] == "Inconclusive"

    def test_verify_at_origin_shift_gap_is_zero(self):
        proc = run_cli("verify", "--g", "sqrt(t)", "--m", "t^2/2", "--a", "0",
                       "--t", "0:2:5", "--format", "json")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["properties"]["max_shift_gap"] == 0

    def test_identify_outputs_measure_domain_grid(self):
        proc = run_cli("identify", "--f", "pow(t-2,5.5)", "--g", "sqrt(t-2)",
                       "--a", "2", "--t", "2.1:5:10", "--format", "json")
        data = json.loads(proc.stdout)
        ts = [row["t"] for row in data["results"]]
        assert ts[0] == pytest.approx(0.1)
        assert ts[-1] == pytest.approx(3.0)
        row = min(data["results"], key=lambda r: abs(r["t"] - 1.0))
        assert row["value"] == pytest.approx(693.0 / 256.0 * row["t"] ** 5, rel=1e-3)


def _flags_follow_certificate(report: dict) -> None:
    """Every certified row's ``monotone_ok`` is the certificate's judgement
    of that row; an excluded first row is uncertified and reads false."""
    cert = report["certificate"]
    flags = [row["monotone_ok"] for row in report["results"]]
    if cert["first_point_excluded"]:
        assert flags[0] is False
        flags = flags[1:]
    assert all(flags) == cert["monotone"]
    if not cert["monotone"]:
        assert flags.index(False) == cert["violation_index"]


class TestCertificateFlags:
    @pytest.mark.parametrize("name,argv", [
        (name, argv) for name, argv, _ in GOLDEN_RUNS
        if argv[0] in ("derive", "identify") and "json" in argv])
    def test_pinned_runs_flags_match_certificate(self, name, argv):
        _flags_follow_certificate(json.loads(run_cli(*argv).stdout))

    def test_monotone_slack_moves_flags_and_certificate_together(self):
        # the slack floor lifts every row and the certificate at once; the
        # verdict still rests on the decisive-ratio check
        proc = run_cli("derive", "--f", "sqrt(t-1)", "--m", "t^2/2", "--a", "1",
                       "--t", "1.1:3:10", "--format", "json", "--monotone-slack", "10")
        assert proc.returncode == 5
        data = json.loads(proc.stdout)
        _flags_follow_certificate(data)
        assert data["certificate"]["monotone"] is True
        assert all(row["monotone_ok"] for row in data["results"])
        assert data["verdict"] == "DoesNotExistInFPlus"

    def test_identify_reports_excluded_first_point(self):
        proc = run_cli("identify", "--f", "sqrt(t-1)", "--g", "pow(t-1,2)", "--a", "1",
                       "--t", "1:4:12", "--format", "json")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["certificate"]["first_point_excluded"] is True
        assert data["results"][0]["monotone_ok"] is False
        _flags_follow_certificate(data)


class TestRouteRobustness:
    def test_verify_passes_far_from_the_origin(self):
        # the general route's difference step follows t - a, not |t|
        proc = run_cli("verify", "--g", "pow(t - 1000, 1.5)", "--m", "t^2", "--a", "1000",
                       "--t", "1000:1002:30", "--format", "json")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["properties"]["max_general_gap"] <= 1e-5

    @pytest.mark.parametrize("t_range", ["0:1:5", "0:2:9"])
    def test_verify_passes_on_concave_distortion(self, t_range):
        # m' = 1/(2 sqrt(u)) is singular at tau = t; the difference step
        # shrinks there instead of straddling it
        proc = run_cli("verify", "--g", "t", "--m", "sqrt(t)", "--a", "0",
                       "--t", t_range, "--format", "json")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["properties"]["max_general_gap"] <= 1e-5

    def test_concave_distortion_integrates(self):
        # m' = 1/(2 sqrt(u)) is singular at u = 0; int_0^1 m'(u) (1 - u) du = 2/3
        proc = run_cli("integrate", "--g", "t", "--m", "sqrt(t)", "--a", "0",
                       "--t", "0:1:5", "--verify", "--format", "json")
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout)["results"][-1]
        assert last["t"] == 1
        assert last["value"] == pytest.approx(2.0 / 3.0, abs=1e-8)
        assert last["oracle_value"] == pytest.approx(2.0 / 3.0, abs=1e-8)
