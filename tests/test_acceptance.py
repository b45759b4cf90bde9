"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each test prints a single pass line on success (run with -s or read the
per-test verdicts from pytest -v).
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from choqint import (
    Distortion,
    Verdict,
    check_hereditary,
    choquet_convolution,
    choquet_general,
    choquet_level_set,
    invert_laplace,
    parse,
    shift_to_origin,
    solve_problem1,
    solve_problem2,
    solve_problem3,
    transform_of,
)
from golden_compare import assert_run_matches_golden
from golden_manifest import GOLDEN_RUNS
from helpers import beta_integral, sqrt_problem, sqrt_forward_value, random_monotone_problem

A_SWEEP = (-2.0, 0.0, 1.0, 3.5)
OFFSETS = (0.5, 1.0, 2.0)


def _report(number: int, text: str) -> None:
    print(f"criterion {number:02d}: PASS — {text}")


def test_criterion_01_forward_square_root_example():
    started = time.perf_counter()
    worst = 0.0
    for a in A_SWEEP:
        problem = sqrt_problem(a, [a + dt for dt in OFFSETS])
        for t, got in zip(problem.t_grid, choquet_convolution(problem)):
            want = sqrt_forward_value(a, t)
            worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-6
    assert elapsed < 1.0
    _report(1, f"12 closed-form points, worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_oracle_equivalence_on_random_problems():
    started = time.perf_counter()
    rng = np.random.default_rng(20240817)
    worst_level, worst_general = 0.0, 0.0
    for _ in range(50):
        problem = random_monotone_problem(rng)
        reference = choquet_convolution(problem)
        scale = 1.0 + np.abs(reference)
        level = choquet_level_set(problem)
        general = choquet_general(problem)
        worst_level = max(worst_level, float(np.max(np.abs(level - reference) / scale)))
        worst_general = max(worst_general, float(np.max(np.abs(general - reference) / scale)))
    elapsed = time.perf_counter() - started
    assert worst_level <= 1e-5
    assert worst_general <= 1e-5
    assert elapsed < 30.0
    _report(2, f"50 problems, level-set gap {worst_level:.2e}, "
               f"general gap {worst_general:.2e}, {elapsed:.1f}s")


def test_criterion_03_derivative_exists_example():
    a = 1.0
    grid = np.linspace(a + 0.2, a + 3.0, 29)
    d = Distortion.from_expression("t^2/2", upper=4.0)
    report = solve_problem2(parse("pow(t - 1, 3.5)"), d, a, grid)
    assert report.verdict is Verdict.EXISTS
    want = 35.0 / 4.0 * (report.grid - a) ** 1.5
    rel = np.max(np.abs(report.values - want) / want)
    assert rel <= 1e-3
    _report(3, f"recovered derivative matches (35/4)(t-a)^1.5, worst rel {rel:.2e}")


@pytest.mark.parametrize("a", [-3.0, 0.0, 2.0])
def test_criterion_04_derivative_does_not_exist(a):
    grid = np.linspace(a + 0.2, a + 3.0, 12)
    d = Distortion.from_expression("t^2/2", upper=4.0)
    report = solve_problem2(parse(f"sqrt(t - ({a!r}))"), d, a, grid)
    assert report.verdict is Verdict.DOES_NOT_EXIST
    _report(4, f"a={a}: square-root integral has no admissible derivative")


def test_criterion_05_identification_with_derived_constant():
    # Independent oracle: int_0^T (T-u)^4 u^{1/2} du = (768/10395) T^{11/2}
    # (Beta identity), so m(u) = c u^5 solves the equation iff
    # 5 c (768/10395) = 1, i.e. c = 693/256 = 2.70703125.
    assert beta_integral(4.0, 0.5, 1.0) == pytest.approx(768.0 / 10395.0, rel=1e-14)
    c = 693.0 / 256.0
    a = 2.0
    grid = np.linspace(a + 0.2, a + 3.0, 113)
    report = solve_problem3(parse("pow(t - 2, 5.5)"), parse("sqrt(t - 2)"), a, grid)
    assert report.verdict is Verdict.EXISTS
    want = c * report.grid ** 5
    rel = np.max(np.abs(report.values - want) / want)
    assert rel <= 1e-3          # matches c t^5 on [0.2, 3]
    assert report.residual <= 1e-3  # convolution with recovered m reproduces f
    _report(5, f"m = (693/256) t^5 recovered, worst rel {rel:.2e}, "
               f"verification residual {report.residual:.2e}")


def test_criterion_06_transform_roundtrip():
    worst = 0.0
    cases = [("t", 1.0), ("t^2", 2.0), ("sqrt(t)", 0.5), ("pow(t, 3.5)", 3.5)]
    for src, p in cases:
        F = transform_of(parse(src))
        for t in np.geomspace(0.1, 10.0, 13):
            got = invert_laplace(F, float(t))
            worst = max(worst, abs(got - t ** p) / t ** p)
    assert worst <= 1e-5
    _report(6, f"t, t^2, sqrt(t), t^3.5 recovered on [0.1, 10], worst rel {worst:.2e}")


def test_criterion_07_hereditary_decomposition():
    worst = 0.0
    for a in A_SWEEP:
        problem = sqrt_problem(a, [a, a + 2.0])
        for split in (a + 0.25, a + 1.0):
            result = check_hereditary(problem, split)
            worst = max(worst, result.gap / (1.0 + abs(result.lhs)))
    assert worst <= 1e-6
    _report(7, f"splits at a+0.25 and a+1 across the a-sweep, worst gap {worst:.2e}")


def test_criterion_08_translation_invariance():
    rng = np.random.default_rng(7)
    problems = [sqrt_problem(a, [a + dt for dt in OFFSETS]) for a in A_SWEEP]
    problems += [random_monotone_problem(rng) for _ in range(5)]
    worst = 0.0
    for problem in problems:
        v0 = choquet_convolution(problem)
        v1 = choquet_convolution(shift_to_origin(problem))
        worst = max(worst, float(np.max(np.abs(v1 - v0) / (1.0 + np.abs(v0)))))
    assert worst <= 1e-10
    _report(8, f"shift to origin preserves values, worst rel {worst:.2e}")


def test_criterion_09_problem1_problem2_roundtrip():
    # closed forms through m = t^2/2 (m' = u), via the Beta identity:
    #   int_0^T (T-u) u^q du = T^(q+2) / ((q+1)(q+2))
    a = 1.0
    cases = [
        ("sqrt(t - 1)", "(4/15)*pow(t - 1, 2.5)", 0.5),
        ("pow(t - 1, 2)", "pow(t - 1, 4)/12", 2.0),
        ("(35/4)*pow(t - 1, 1.5)", "pow(t - 1, 3.5)", 1.5),
    ]
    d = Distortion.from_expression("t^2/2", upper=4.0)
    worst = 0.0
    for g_src, f_src, q in cases:
        coefficient = beta_integral(1.0, q, 1.0)
        assert coefficient == pytest.approx(1.0 / ((q + 1.0) * (q + 2.0)), rel=1e-14)
        forward = solve_problem1(parse(g_src), d, a, np.linspace(a, a + 2.0, 9))
        f_expr = parse(f_src)
        for t, value in forward.samples:
            assert value == pytest.approx(f_expr(t), rel=1e-3, abs=1e-9)
        back = solve_problem2(f_expr, d, a, np.linspace(a + 0.2, a + 2.0, 10))
        g_expr = parse(g_src)
        for i, (t, value) in enumerate(back.samples):
            if i == 0:
                continue  # judged away from the first grid point
            rel = abs(value - g_expr(t)) / abs(g_expr(t))
            worst = max(worst, rel)
            assert rel <= 1e-3, (g_src, t)
    _report(9, f"three integrands recovered through the full loop, worst rel {worst:.2e}")


@pytest.mark.parametrize("name,argv,expected_exit", GOLDEN_RUNS,
                         ids=[row[0] for row in GOLDEN_RUNS])
def test_criterion_10_cli_golden_files(name, argv, expected_exit):
    proc = subprocess.run([sys.executable, "-m", "choqint", *argv],
                          capture_output=True, text=True)
    assert_run_matches_golden(name, argv, expected_exit, proc)
    _report(10, f"{name}: structure exact, floats within rounding bounds, "
                f"exit {proc.returncode}")
