import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choqint import (
    ChoquetProblem,
    DivergentIntegralError,
    Distortion,
    IntervalCapacity,
    InvalidDistortionError,
    InvalidIntervalError,
    NotInFPlusError,
    check_hereditary,
    choquet_convolution,
    choquet_general,
    choquet_level_set,
    distorted_capacity,
    evaluate,
    parse,
    render,
    shift_to_origin,
)
from choqint import capacity, choquet, quadrature
from choqint.choquet import BISECTION_TOL
from choqint.errors import InvalidArgumentError
from choqint.quadrature import BATCH_NODES
from helpers import beta_integral, sqrt_problem, sqrt_forward_value, random_monotone_problem


class TestProblemConstruction:
    @pytest.mark.parametrize("points", [[0.0, np.nan], [np.nan, 1.0], [0.0, np.inf],
                                        [-np.inf, 0.0]])
    def test_grid_points_must_be_finite(self, points):
        with pytest.raises(InvalidArgumentError, match="finite"):
            choquet.as_grid(points, -1.0)

    def test_grid_must_be_increasing(self):
        d = Distortion.from_expression("t", upper=2.0)
        with pytest.raises(InvalidArgumentError, match="strictly increasing"):
            ChoquetProblem(0.0, parse("t"), d, np.array([0.0, 1.0, 1.0]))

    def test_grid_must_start_at_or_after_a(self):
        d = Distortion.from_expression("t", upper=2.0)
        # the message names both values, as the command line prints it
        with pytest.raises(InvalidArgumentError,
                           match=r"^grid start -1\.0 precedes the interval origin 0\.0$"):
            ChoquetProblem(0.0, parse("t"), d, np.array([-1.0, 1.0]))

    def test_integrand_must_be_admissible(self):
        d = Distortion.from_expression("t", upper=3.0)
        with pytest.raises(NotInFPlusError):
            ChoquetProblem(-1.0, parse("t"), d, np.array([-1.0, 1.0]))

    def test_distortion_window_must_cover_the_grid(self):
        # t*(2 - t) passes on [0, 1] but decreases beyond 1, where a grid
        # ending at 3 would take it
        d = Distortion.from_expression("t*(2-t)", upper=1.0)
        with pytest.raises(InvalidDistortionError, match=r"\[0, 1\.0\].* = 3\.0"):
            ChoquetProblem(0.0, parse("t"), d, np.array([0.0, 3.0]))
        assert ChoquetProblem(0.0, parse("t"), d, np.array([0.0, 1.0])).measure is d

    @pytest.mark.parametrize("a", [np.nan, np.inf, -np.inf])
    def test_origin_must_be_finite(self, a):
        d = Distortion.from_expression("t", upper=2.0)
        with pytest.raises(InvalidArgumentError,
                           match=r"origin a must be finite, got (nan|inf|-inf)"):
            ChoquetProblem(a, parse("t"), d, np.array([0.0, 1.0]))

    def test_general_capacity_has_no_window(self):
        cap = distorted_capacity(Distortion.from_expression("t", upper=1.0))
        ChoquetProblem(0.0, parse("t"), cap, np.array([0.0, 3.0]))


class TestLevelSetRoute:
    def test_constant_integrand(self):
        # level set is all of [a, t] for every alpha <= c
        d = Distortion.from_expression("t^2/2", upper=4.0)
        p = ChoquetProblem(0.5, parse("2"), d, np.array([0.5, 2.5]))
        got = choquet_level_set(p)
        assert got == pytest.approx([0.0, 2.0 * 2.0 ** 2 / 2.0], rel=1e-12)

    def test_square_root_forward(self):
        p = sqrt_problem(1.0, [1.0, 2.0])
        assert choquet_level_set(p)[-1] == pytest.approx(4.0 / 15.0, rel=1e-9)

    def test_flat_spot_integrand(self):
        # piecewise-constant alpha-integrand from a genuinely flat segment
        d = Distortion.from_expression("t", upper=5.0)
        g = parse("abs(t - 1) + t - 1")  # 0 on [0, 1], then 2(t-1)
        p = ChoquetProblem(0.0, g, d, np.array([0.0, 3.0]))
        want = beta_integral(0.0, 1.0, 2.0) * 2.0  # int_1^3 2(tau-1) dtau
        assert choquet_level_set(p)[-1] == pytest.approx(want, rel=1e-7)

    def test_degenerate_interval(self):
        p = sqrt_problem(0.0, [0.0, 1.0])
        assert choquet_level_set(p)[0] == 0.0

    @pytest.mark.parametrize("a,start", [(0.0, 0.1), (0.9, 0.9)])
    def test_levels_near_the_top_of_the_double_range(self, a, start):
        # alpha runs up to 1e308, where a cell's hi + lo overflows, and from
        # a = 0.9 on so does the sum of a mesh's ends: neither may cost the
        # integral its nodes
        d = Distortion.from_expression("ln(1+t)", upper=1.0)
        p = ChoquetProblem(a, parse("1e308*t"), d, np.linspace(start, 1.0, 4))
        assert choquet_level_set(p) == pytest.approx(choquet_convolution(p), rel=1e-10)

    @pytest.mark.parametrize("g,m,grid,where", [
        # the base term g(a) mu([a, t]) overflows at every t
        ("t + 1e300", "t", [1e10, 5.5e10, 1e11], 1e10),
        # at t = 1 the base term, 1.4e308, and the alpha integral, 4.9e307, are
        # finite, and their sum is not
        ("1e308 + 7e307*t", "1.4*t", [0.5, 1.0], 1.0),
    ])
    def test_a_value_that_is_not_finite_raises(self, g, m, grid, where):
        d = Distortion.from_expression(m, upper=grid[-1])
        p = ChoquetProblem(0.0, parse(g), d, np.array(grid))
        with pytest.raises(DivergentIntegralError,
                           match=re.escape(f"level-set integral is not finite at t = {where!r}")):
            choquet_level_set(p)
        # as the convolution route does on the same problem
        with pytest.raises(DivergentIntegralError):
            choquet_convolution(p)


def spy_sizes(monkeypatch) -> tuple[list, list]:
    """The sizes of every evaluate call the routes make, and the rows and
    nodes of every pass-node build."""
    sizes, builds = [], []
    for module in (choquet, capacity):
        def spy(expr, t, _fn=module.evaluate):
            sizes.append(np.size(t))
            return _fn(expr, t)
        monkeypatch.setattr(module, "evaluate", spy)

    def build_spy(lo, hi, cells, grading, nodes, _fn=quadrature._pass_rows):
        builds.append((hi.size, hi.size * cells * nodes))
        return _fn(lo, hi, cells, grading, nodes)

    monkeypatch.setattr(quadrature, "_pass_rows", build_spy)
    return sizes, builds


def every_halving_bisection(g, a, alphas, ts):
    """The level-set bisection with its stop test on every halving, each
    bracket kept as it was at its own first final halving, and the number of
    halvings until every bracket was final."""
    lo, hi = np.full_like(alphas, a), np.array(ts, dtype=float)
    lo_below = np.zeros(alphas.shape, dtype=bool)
    final = np.zeros(alphas.shape, dtype=bool)
    mid = 0.5 * (lo + hi)
    for step in range(100):
        reached = evaluate(g, mid) >= alphas
        hi, lo = np.where(reached & ~final, mid, hi), np.where(reached | final, lo, mid)
        lo_below |= ~reached
        mid = 0.5 * (lo + hi)
        final |= (hi - lo <= BISECTION_TOL) | (mid == hi) | ((mid == lo) & lo_below)
        if final.all():
            break
    return hi, step + 1


def full_bisection(g, a, alphas, ts):
    """The leftmost tau with g(tau) >= alpha, every bracket [a, t] halved
    100 times with no early stop."""
    lo, hi = np.full_like(alphas, a), np.broadcast_to(ts, alphas.shape).copy()
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        reached = evaluate(g, mid) >= alphas
        hi, lo = np.where(reached, mid, hi), np.where(reached, lo, mid)
    return hi


def seeded_depth(a: float, ts: np.ndarray) -> int:
    """The halvings a call of _level_points reads off its table, given each
    alpha's t: log2(run + 1) rounded down for the shortest run of alphas that
    share one t, and none past the first halving that tests for final
    brackets."""
    run = np.diff(np.flatnonzero(np.concatenate(([True], ts[1:] != ts[:-1], [True])))).min()
    narrowest = float(np.min(ts)) - a
    closed = max(BISECTION_TOL, float(np.spacing(max(abs(a), float(np.max(np.abs(ts)))))))
    first_test = max(int(np.log2(narrowest / closed)) - 3, 0) if narrowest > closed else 0
    return min(int(np.log2(run + 1)), first_test)


def counted_level_points(g, a, alphas, ts) -> tuple[np.ndarray, int]:
    """_level_points and the number of evaluate calls it made."""
    calls = []

    def spy(expr, t, _fn=choquet.evaluate):
        calls.append(1)
        return _fn(expr, t)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(choquet, "evaluate", spy)
        got = choquet._level_points(g, a, alphas, ts)
    return got, len(calls)


def flat_start_problem(general: bool, grid) -> ChoquetProblem:
    # g = 0 on [0, 1], then 2(t - 1): t <= 1 leaves g(t) <= g(a)
    d = Distortion.from_expression("t + t^2", upper=3.0)
    measure = distorted_capacity(d) if general else d
    return ChoquetProblem(0.0, parse("abs(t - 1) + t - 1"), measure, np.asarray(grid))


class TestLevelSetGrid:
    @pytest.mark.parametrize("general", [False, True], ids=["distortion", "capacity"])
    def test_array_form_equals_scalar_form(self, general):
        # the whole grid at once gives each point the value of the problem
        # on that point alone
        ts = np.array([0.0, 0.5, 1.0, 1.7, 2.2, 3.0])
        values = choquet_level_set(flat_start_problem(general, ts))
        assert isinstance(values, np.ndarray) and values.shape == ts.shape
        for t, value in zip(ts, values):
            one = choquet_level_set(flat_start_problem(general, [t]))
            assert one.shape == (1,)
            assert value == one[0]
        assert values[0] == 0.0
        # g(t) <= g(a) = 0: the value is g(a) mu([a, t]) = 0
        assert values[1] == 0.0 and values[2] == 0.0
        assert values[5] > values[4] > values[3] > 0.0

    def test_array_form_with_nonzero_base_level(self):
        # g(a) = 1 > 0, so flat rows keep g(a) mu([a, t]) = t + t^2
        d = Distortion.from_expression("t + t^2", upper=3.0)
        g = parse("1 + abs(t - 1) + t - 1")
        values = choquet_level_set(ChoquetProblem(0.0, g, d, np.array([0.0, 0.5, 1.0, 2.0])))
        assert values[:3] == pytest.approx([0.0, 0.75, 2.0], rel=1e-15)
        alone = choquet_level_set(ChoquetProblem(0.0, g, d, np.array([2.0])))
        assert values[3] == alone[0]

    def test_no_evaluate_call_exceeds_the_batch(self, monkeypatch):
        # 30 points of 640 nodes each (1280 after one doubling) are far more
        # than one batch, on every route; a batch holds whole rows, so it
        # fills to within one row of the cap (12 rows of 640, 6 of 1280)
        grid = np.linspace(1.0, 3.0, 30)
        p = sqrt_problem(1.0, grid)
        # the general route's difference step costs it digits
        for route, rel in ((choquet_level_set, 1e-9), (choquet_convolution, 1e-9),
                           (choquet_general, 1e-7)):
            sizes, _ = spy_sizes(monkeypatch)
            values = route(p)
            assert len(sizes) > 1, route.__name__
            assert BATCH_NODES - 640 < max(sizes) <= BATCH_NODES, route.__name__
            monkeypatch.undo()
            assert values[-1] == pytest.approx(sqrt_forward_value(1.0, 3.0), rel=rel)

    def test_adjacent_floats_end_the_bisection(self, monkeypatch):
        # ulp(1e5) = 1.5e-11 > BISECTION_TOL: no bracket reaches the
        # tolerance, and halving a bracket of adjacent floats moves nothing
        a = 1e5
        d = Distortion.from_expression("t^2", upper=2.0)
        p = ChoquetProblem(a, parse(f"pow(t - {a!r}, 1.5)"), d, np.array([a + 2.0]))
        assert np.spacing(a) > BISECTION_TOL
        steps, passes = [], []
        real_evaluate, real_pass_rows = choquet.evaluate, quadrature._pass_rows

        def count_steps(expr, t):
            if np.size(t) > 1 and expr is p.g:
                steps.append(np.size(t))
            return real_evaluate(expr, t)

        def count_passes(*args):
            passes.append(args)
            return real_pass_rows(*args)

        monkeypatch.setattr(choquet, "evaluate", count_steps)
        monkeypatch.setattr(quadrature, "_pass_rows", count_passes)
        (value,) = choquet_level_set(p)
        monkeypatch.undo()
        assert len(steps) < 60 * len(passes)

        g_t = evaluate(p.g, a + 2.0)
        reference = quadrature.integrate(
            lambda alphas: d.evaluate(full_bisection(p.g, a, alphas, a + 2.0), a + 2.0),
            0.0, g_t)
        assert value == reference

    def test_adjacent_float_stop_keeps_every_boundary(self):
        # g(tau) >= alpha = g(a) at every tau, so this bracket closes on a
        # itself: with ends a and a + ulp, halving can still move hi to a
        a = 1e5
        g = parse(f"pow(t - {a!r}, 1.5)")
        alphas = np.array([0.0, 1e-20, 0.5, 1.0, evaluate(g, a + 2.0)])
        ts = np.full_like(alphas, a + 2.0)
        got = choquet._level_points(g, a, alphas, ts)
        assert np.array_equal(got, full_bisection(g, a, alphas, ts))
        assert got[0] == a

    @pytest.mark.parametrize("a,ts", [
        (-1e3, -1e3 + np.array([0.3, 1.1, 2.7])),
        (0.1, np.array([0.7, 1.3])),
        (1e308, np.array([1.25e308, 1.5e308])),
    ])
    def test_table_points_are_the_floats_the_halvings_compute(self, a, ts):
        def midpoints(lo, hi, depth, half):
            if not depth:
                return []
            mid = half(lo, hi)
            return (midpoints(lo, mid, depth - 1, half) + [mid]
                    + midpoints(mid, hi, depth - 1, half))

        half = choquet._midpoint(max(abs(a), float(np.max(np.abs(ts)))))
        points = choquet._tree_points(a, ts, 9, half)
        for t, row in zip(ts.tolist(), points.tolist()):
            assert row == [a, *midpoints(a, t, 9, half), t]

        # near the top of the double range lo + hi overflows: halves first
        assert choquet._midpoint(1.5e308)(1e308, 1.5e308) == 1.25e308


GRID_ROUTES = {
    "level_set": choquet_level_set,
    "convolution": choquet_convolution,
    "general": choquet_general,
}


def per_point_values(integrand_of, p: ChoquetProblem) -> list:
    """A forward route at each t alone: quadrature.integrate of its scalar-t
    integrand, as the route computed it before the grid integrator."""
    return [quadrature.integrate(integrand_of(p, p.a, t), 0.0, t - p.a)
            for t in p.t_grid.tolist()]


def level_set_per_point_values(p: ChoquetProblem) -> list:
    """The level-set route at each t alone: g(a) mu([a, t]) plus
    quadrature.integrate of the alpha-integrand over [g(a), g(t)]."""
    g_a = evaluate(p.g, p.a)
    return [g_a * p.measure.evaluate(p.a, t)
            + quadrature.integrate(choquet._level_integrand(p, p.a, t), g_a, evaluate(p.g, t))
            for t in p.t_grid.tolist()]


class TestGridIntegrator:
    @settings(max_examples=20, deadline=None)
    @given(a=st.sampled_from([0.0, 1e3, -1e3, 1e5]),
           m=st.sampled_from(["t^2/2", "sqrt(t)", "pow(t, 0.7)", "t + t^3"]),
           g=st.sampled_from(["sqrt(t - A)", "pow(t - A, 1.5) + 1", "exp(t - A)"]),
           capacity_measure=st.booleans(),
           spans=st.lists(st.floats(0.05, 2.5), min_size=1, max_size=4, unique=True))
    def test_routes_equal_the_per_point_integrals_bit_for_bit(self, a, m, g, capacity_measure,
                                                              spans):
        d = Distortion.from_expression(m, upper=3.0)
        # distinct spans can round to one point far from 0
        grid = np.unique(np.concatenate([[a], a + np.array(spans)]))
        p = ChoquetProblem(a, parse(g.replace("A", repr(a))),
                           distorted_capacity(d) if capacity_measure else d, grid)
        want = {"level_set": level_set_per_point_values(p),
                "general": per_point_values(choquet._general_integrand, p)}
        if not capacity_measure:
            want["convolution"] = per_point_values(choquet._convolution_integrand, p)
        for name, values in want.items():
            assert GRID_ROUTES[name](p).tolist() == values, name

    def test_a_point_has_its_one_point_value_inside_any_grid(self):
        d = Distortion.from_expression("t^2/2", upper=3.0)
        g = parse("sqrt(t)")
        (alone,) = choquet_level_set(ChoquetProblem(0.0, g, d, np.array([0.5])))
        grid = choquet_level_set(ChoquetProblem(0.0, g, d, np.array([0.0, 0.5, 1.0])))
        assert grid[1] == alone

    def test_peak_memory_does_not_grow_with_the_grid(self):
        # a pass holds one batch of rows, not the nodes and weights of the
        # whole grid (about 20 KB a point, 98 MiB here)
        p = sqrt_problem(1.0, np.linspace(1.0, 3.0, 5000))
        for name, route in GRID_ROUTES.items():
            tracemalloc.start()
            try:
                route(p)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2 ** 20, name

    def test_large_grid_keeps_every_call_within_the_batch(self, monkeypatch):
        grid = np.linspace(1.0, 3.0, 3000)
        p = sqrt_problem(1.0, grid)
        for route in GRID_ROUTES.values():
            sizes, builds = spy_sizes(monkeypatch)
            values = route(p)
            monkeypatch.undo()
            assert max(sizes) <= BATCH_NODES, route.__name__
            assert max(nodes for _, nodes in builds) <= BATCH_NODES, route.__name__
            assert values[-1] == pytest.approx(sqrt_forward_value(1.0, 3.0), rel=1e-7)

    def test_a_row_larger_than_the_batch_is_built_alone(self, monkeypatch):
        # 600 cells of 16 nodes are 9600 nodes per point
        cfg = quadrature.QuadratureConfig(subintervals=600)
        p = sqrt_problem(1.0, np.linspace(1.0, 3.0, 4))
        for route in GRID_ROUTES.values():
            sizes, builds = spy_sizes(monkeypatch)
            route(p, cfg)
            monkeypatch.undo()
            assert max(sizes) == BATCH_NODES
            assert {rows for rows, _ in builds} == {1}
            assert min(nodes for _, nodes in builds) > BATCH_NODES

    @pytest.mark.parametrize("route", sorted(GRID_ROUTES))
    def test_no_refinement_names_the_first_point(self, route):
        grid = np.linspace(1.0, 3.0, 5)
        cfg = quadrature.QuadratureConfig(max_refinements=0)
        # t = a is exactly 0 on every route, so the first point to fail is the next
        with pytest.raises(DivergentIntegralError,
                           match=re.escape(f"after 0 mesh doublings at t = {float(grid[1])!r}")):
            GRID_ROUTES[route](sqrt_problem(1.0, grid), cfg)

    @settings(max_examples=60, deadline=None)
    @given(a=st.sampled_from([0.0, 1.0, -1e3, 1e5, 1e12]),
           spans=st.lists(st.floats(1e-14, 1e4), min_size=1, max_size=6),
           fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
           run=st.sampled_from([1, 3, 640]))
    def test_bisection_stops_at_the_halving_that_tests_every_step_stops_at(
            self, a, spans, fractions, run):
        # the stop test is skipped on halvings where no bracket can be final,
        # and the first halvings are read off a table of g
        g = parse(f"pow(t - {a!r}, 1.5)")
        n = min(len(spans), len(fractions))
        ts = np.repeat(a + np.array(spans[:n]), run)
        spread = (np.repeat(fractions[:n], run) + np.tile(np.arange(run) / run, n)) % 1.0
        alphas = spread * evaluate(g, ts)
        want, halvings = every_halving_bisection(g, a, alphas, ts)
        got, calls = counted_level_points(g, a, alphas, ts)
        assert np.array_equal(got, want)
        # one call for the table, then one per halving it does not replace
        depth = seeded_depth(a, ts)
        assert calls == (halvings - depth + 1 if depth else halvings)

    @pytest.mark.parametrize("a", [0.0, 1.0, -1e3, 1e5, 1e12])
    @pytest.mark.parametrize("run", [1, 3, 640, 1280])
    @pytest.mark.parametrize("g", ["pow(t - A, 1.5)", "2 - t"], ids=["increasing", "decreasing"])
    def test_seeded_bisection_equals_every_halving_bisection(self, g, run, a):
        # a decreasing g is no integrand of the route, and its table decreases:
        # the walk down the table still takes the halvings' own decisions
        g = parse(g.replace("A", repr(a)))
        ts = np.repeat(a + np.array([0.3, 1.1, 2.5]), run)
        g_a, g_t = evaluate(g, np.full_like(ts, a)), evaluate(g, ts)
        alphas = g_a + (np.tile(np.arange(run), 3) + 0.5) / run * (g_t - g_a)
        want, halvings = every_halving_bisection(g, a, alphas, ts)
        got, calls = counted_level_points(g, a, alphas, ts)
        assert np.array_equal(got, want)
        # ulp(1e12) = 1.2e-4: the first stop test, after 8 halvings, caps the table
        depth = seeded_depth(a, ts)
        assert depth == min(int(np.log2(run + 1)), 8 if a == 1e12 else 10)
        assert calls == halvings - depth + 1


class TestConvolutionRoute:
    @pytest.mark.parametrize("a", [-2.0, 0.0, 1.0, 3.5])
    @pytest.mark.parametrize("dt", [0.5, 1.0, 2.0])
    def test_square_root_closed_form(self, a, dt):
        p = sqrt_problem(a, [a, a + dt])
        want = sqrt_forward_value(a, a + dt)
        assert choquet_convolution(p)[-1] == pytest.approx(want, rel=1e-9)

    def test_power_integrand_forward(self):
        # g = (35/4) t^1.5 against m = t^2/2 gives exactly t^3.5 at the origin
        d = Distortion.from_expression("t^2/2", upper=2.0)
        p = ChoquetProblem(0.0, parse("(35/4)*pow(t, 1.5)"), d, np.array([0.0, 1.0]))
        assert choquet_convolution(p)[-1] == pytest.approx(1.0, rel=1e-9)

    def test_degenerate_interval_is_exact_zero(self):
        p = sqrt_problem(2.0, [2.0, 3.0])
        assert choquet_convolution(p)[0] == 0.0

    def test_requires_distortion(self):
        cap = IntervalCapacity(lambda u, v: np.asarray(v) - np.asarray(u))
        p = ChoquetProblem(0.0, parse("t"), cap, np.array([0.0, 1.0]))
        with pytest.raises(TypeError):
            choquet_convolution(p)

    def test_monotone_in_t(self):
        p = sqrt_problem(0.0, np.linspace(0.0, 4.0, 9))
        assert np.all(np.diff(choquet_convolution(p)) >= 0.0)

    def test_homogeneity(self):
        d = Distortion.from_expression("t + t^2", upper=3.0)
        g = "t^2 + sqrt(t)"
        base = ChoquetProblem(0.0, parse(g), d, np.array([0.0, 2.0]))
        scaled = ChoquetProblem(0.0, parse(f"3.5*({g})"), d, np.array([0.0, 2.0]))
        v0 = choquet_convolution(base)
        v1 = choquet_convolution(scaled)
        assert v1 == pytest.approx(3.5 * v0, rel=1e-9)

    @pytest.mark.parametrize("a", [0.0, 5.0])
    def test_concave_distortion_singular_at_zero(self, a):
        # m' = 1/(2 sqrt(u)) blows up at u = 0, i.e. at tau = t:
        # int_0^T (T - u)^1 u^(-1/2) / 2 du
        d = Distortion.from_expression("sqrt(t)", upper=2.0)
        p = ChoquetProblem(a, parse(f"t - ({a!r})"), d, np.array([a, a + 2.0]))
        want = 0.5 * beta_integral(1.0, -0.5, 2.0)
        assert choquet_convolution(p)[-1] == pytest.approx(want, rel=1e-9)
        # the general route's difference step shrinks toward tau = t
        assert choquet_general(p)[-1] == pytest.approx(want, rel=1e-5)


class TestGeneralRoute:
    def test_square_root_through_capacity(self):
        a = 1.0
        d = Distortion.from_expression("t^2/2", upper=2.0)
        cap = distorted_capacity(d)
        p = ChoquetProblem(a, parse("sqrt(t - 1)"), cap, np.array([a, 2.0]))
        assert choquet_general(p)[-1] == pytest.approx(4.0 / 15.0, rel=1e-7)

    def test_lebesgue_reduces_to_riemann(self):
        cap = distorted_capacity(Distortion.from_expression("t", upper=2.0))
        p = ChoquetProblem(0.0, parse("t"), cap, np.array([0.0, 1.0]))
        assert choquet_general(p)[-1] == pytest.approx(0.5, rel=1e-8)

    def test_degenerate_interval(self):
        cap = distorted_capacity(Distortion.from_expression("t", upper=2.0))
        p = ChoquetProblem(0.0, parse("t"), cap, np.array([0.0, 1.0]))
        assert choquet_general(p)[0] == 0.0

    def test_distortion_measure_accepted_directly(self):
        p = sqrt_problem(0.0, [0.0, 1.5])
        conv = choquet_convolution(p)[-1]
        assert choquet_general(p)[-1] == pytest.approx(conv, rel=1e-6)

    def test_far_origin_keeps_its_accuracy(self):
        # the difference step scales with t - a, so a = 1000 on a length-2
        # interval is as accurate as a = 0: int_0^2 2u (2 - u)^1.5 du
        a = 1000.0
        d = Distortion.from_expression("t^2", upper=2.0)
        p = ChoquetProblem(a, parse(f"pow(t - {a!r}, 1.5)"), d, np.array([a, a + 2.0]))
        want = 2.0 * beta_integral(1.5, 1.0, 2.0)
        assert choquet_general(p)[-1] == pytest.approx(want, rel=1e-7)


def scan_oracle(problem, t, n_alpha=4001, n_tau=20001):
    """Primitive re-derivation of the integral from its definition: trapezoid
    rule over the threshold variable, thresholds located by linear scan on a
    dense grid (no bisection, no Gauss nodes anywhere)."""
    a = problem.a
    taus = np.linspace(a, t, n_tau)
    g_vals = evaluate(problem.g, taus)
    g_a, g_t = g_vals[0], g_vals[-1]
    total = g_a * float(problem.measure.evaluate(a, t))
    if g_t <= g_a:
        return total
    alphas = np.linspace(g_a, g_t, n_alpha)
    starts = taus[np.searchsorted(g_vals, alphas)]
    mu = np.asarray(problem.measure.evaluate(starts, t), dtype=float)
    return total + float(np.trapezoid(mu, alphas))


class TestRouteAgreement:
    def test_random_problems(self):
        rng = np.random.default_rng(2024)
        for _ in range(8):
            problem = random_monotone_problem(rng)
            conv = choquet_convolution(problem)
            scale = 1.0 + np.abs(conv)
            assert np.all(np.abs(choquet_level_set(problem) - conv) <= 1e-5 * scale)
            assert np.all(np.abs(choquet_general(problem) - conv) <= 1e-5 * scale)

    def test_routes_return_the_values_on_the_grid(self):
        grid = np.linspace(1.0, 3.0, 5)
        p = sqrt_problem(1.0, grid)
        want = [sqrt_forward_value(1.0, t) for t in grid]
        for route, rel in ((choquet_level_set, 1e-9), (choquet_convolution, 1e-9),
                           (choquet_general, 1e-6)):
            values = route(p)
            assert isinstance(values, np.ndarray) and values.shape == grid.shape
            assert values == pytest.approx(want, rel=rel, abs=1e-15)

    def test_level_set_route_against_scan_oracle(self):
        # the level-set route is the reference elsewhere, so pin it against
        # an even more primitive evaluation of the same definition
        cases = [
            sqrt_problem(1.0, [1.0, 2.0]),
            sqrt_problem(-2.0, [-2.0, 0.5]),
        ]
        for problem in cases:
            t = float(problem.t_grid[-1])
            fast = choquet_level_set(problem)[-1]
            crude = scan_oracle(problem, t)
            assert fast == pytest.approx(crude, rel=2e-4)

    def test_scan_oracle_with_nonconstant_base_level(self):
        d = Distortion.from_expression("t + 0.5*t^3", upper=3.0)
        p = ChoquetProblem(0.5, parse("1 + (t - 0.5)^2"), d, np.array([0.5, 2.0]))
        t = 2.0
        assert choquet_level_set(p)[-1] == pytest.approx(scan_oracle(p, t), rel=2e-4)
        assert choquet_convolution(p)[-1] == pytest.approx(scan_oracle(p, t), rel=2e-4)


class TestHereditary:
    def test_square_root_split(self):
        p = sqrt_problem(0.0, [0.0, 2.0])
        result = check_hereditary(p, 1.0)
        assert result.lhs == pytest.approx(sqrt_forward_value(0.0, 2.0), rel=1e-9)
        # closed-form decomposition: the [0, 1] piece of the level-2 kernel
        # is int_0^1 (2 - tau) sqrt(tau) dtau = 14/15, the genuine integral
        # over [1, 2] makes up the remainder
        assert result.rhs == pytest.approx(result.lhs, abs=1e-7)
        assert result.gap <= 1e-7

    @pytest.mark.parametrize("split", [0.0, 2.0])
    def test_degenerate_splits(self, split):
        p = sqrt_problem(0.0, [0.0, 2.0])
        result = check_hereditary(p, split)
        assert result.gap <= 1e-9

    def test_general_capacity_route(self):
        d = Distortion.from_expression("t + 0.5*t^2", upper=3.0)
        cap = distorted_capacity(d)
        p = ChoquetProblem(0.0, parse("t^2"), cap, np.array([0.0, 2.0]))
        result = check_hereditary(p, 0.75)
        assert result.gap <= 1e-6 * (1.0 + abs(result.lhs))

    @pytest.mark.parametrize("general", [False, True])
    def test_certifies_no_sub_problem(self, general, monkeypatch):
        # [a_split, t] restricts the window the problem already certified
        p = sqrt_problem(1.0, [1.0, 3.0])
        if general:
            # a general capacity, so that the general route's integrand runs
            p = ChoquetProblem(p.a, p.g, distorted_capacity(p.measure), p.t_grid)
        expected = check_hereditary(p, 2.0)

        def refuse(*args, **kwargs):
            raise AssertionError("check_hereditary certified g again")

        monkeypatch.setattr(capacity, "check_f_plus", refuse)
        assert check_hereditary(p, 2.0) == expected

    @pytest.mark.parametrize("where", [0.0, 0.4, 1.0], ids=["at-a", "mid", "at-t"])
    @pytest.mark.parametrize("general", [False, True], ids=["distortion", "capacity"])
    @pytest.mark.parametrize("a", [0.0, -1e3])
    def test_each_piece_is_its_integrate_value_bit_for_bit(self, a, general, where):
        d = Distortion.from_expression("t + 0.5*t^2", upper=3.0)
        p = ChoquetProblem(a, parse(f"pow(t - {a!r}, 1.5) + 1"),
                           distorted_capacity(d) if general else d, np.array([a, a + 2.5]))
        t, split = a + 2.5, a + 2.5 * where
        integrand_of = choquet._general_integrand if general else choquet._convolution_integrand
        lhs = quadrature.integrate(integrand_of(p, a, t), 0.0, t - a)
        main = quadrature.integrate(integrand_of(p, split, t), 0.0, t - split)
        complement = quadrature.integrate(integrand_of(p, a, t), t - split, t - a)
        result = check_hereditary(p, split)
        assert result == (lhs, complement + main, abs(lhs - (complement + main)))
        assert all(type(value) is float for value in result)

    def test_split_outside_interval_rejected(self):
        p = sqrt_problem(0.0, [0.0, 2.0])
        with pytest.raises(InvalidIntervalError):
            check_hereditary(p, 3.0)


class TestShiftToOrigin:
    def test_identity_at_origin(self):
        p = sqrt_problem(0.0, [0.0, 2.0])
        shifted = shift_to_origin(p)
        assert shifted.a == 0.0
        assert shifted.g == p.g
        assert np.array_equal(shifted.t_grid, p.t_grid)

    def test_shifted_integrand_is_sqrt(self):
        p = sqrt_problem(1.0, [1.0, 2.0])
        shifted = shift_to_origin(p)
        for r in (0.0, 0.25, 1.0):
            assert evaluate(shifted.g, r) == pytest.approx(np.sqrt(r), abs=1e-12)

    @pytest.mark.parametrize("a", [-3.0, 1.0, 2.5])
    def test_values_preserved(self, a):
        p = sqrt_problem(a, np.linspace(a, a + 3.0, 4))
        shifted = shift_to_origin(p)
        v0 = choquet_convolution(p)
        v1 = choquet_convolution(shifted)
        assert np.all(np.abs(v1 - v0) <= 1e-10 * (1.0 + np.abs(v0))), render(shifted.g)

    def test_distortion_is_its_own_shift(self):
        p = sqrt_problem(1.0, [1.0, 2.0])
        assert shift_to_origin(p).measure is p.measure

    def test_general_capacity_is_wrapped(self):
        base = IntervalCapacity(lambda u, v: (np.asarray(v) - np.asarray(u)) * np.asarray(v))
        p = ChoquetProblem(1.0, parse("t - 1"), base, np.array([1.0, 3.0]))
        shifted = shift_to_origin(p)
        got = shifted.measure.evaluate(0.0, 1.0)
        assert got == pytest.approx(base.evaluate(1.0, 2.0))
        v0 = choquet_general(p)
        v1 = choquet_general(shifted)
        assert v1 == pytest.approx(v0, rel=1e-8)
