import inspect
import math
import re
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choqint import (
    Distortion,
    DivergentIntegralError,
    DomainError,
    GVanishesError,
    InvalidDistortionError,
    InversionConfig,
    NonPositiveSError,
    NotInFPlusError,
    OriginNotZeroError,
    Verdict,
    invert_laplace,
    parse,
    solve_problem1,
    solve_problem2,
    solve_problem3,
    transform_of,
)
from choqint import laplace, quadrature
from choqint.choquet import _rebased
from choqint.errors import InvalidArgumentError
from choqint.exprlang import Expr, Mul, Num, Var, render
from choqint.laplace import (
    KEPT_TRANSFORM_VALUES,
    TAIL_BOUND,
    _KEPT,
    _CubicSpline,
    _inversion_grid,
    _Rule,
    _truncation_exponent,
    forward_laplace,
    stehfest_weights,
)
from choqint.quadrature import MAX_ROW_NODES, _gauss_nodes, convolve
from helpers import beta_integral, sqrt_forward_value

QUADRATIC = "t^2/2"


def quad_distortion(upper=6.0):
    return Distortion.from_expression(QUADRATIC, upper=upper)


def exact_stehfest(n):
    """Independent rational recomputation of the Salzer weights."""
    half = n // 2
    out = []
    for k in range(1, n + 1):
        total = Fraction(0)
        for j in range((k + 1) // 2, min(k, half) + 1):
            total += (Fraction(j) ** half
                      * math.factorial(2 * j)
                      / (math.factorial(half - j) * math.factorial(j)
                         * math.factorial(j - 1) * math.factorial(k - j)
                         * math.factorial(2 * j - k)))
        out.append(total * (-1) ** (k + half))
    return out


class TestStehfestWeights:
    @pytest.mark.parametrize("n", [8, 12, 16, 20])
    def test_exact_identities(self, n):
        # the exact weights sum to zero and invert 1/s to the constant 1;
        # the packaged floats are those rationals correctly rounded
        exact = exact_stehfest(n)
        assert sum(exact) == 0
        assert sum(v / (k + 1) for k, v in enumerate(exact)) == 1
        assert stehfest_weights(n) == tuple(float(v) for v in exact)

    def test_config_validation(self):
        for terms in (15, 24):
            with pytest.raises(InvalidArgumentError, match="stehfest_terms"):
                InversionConfig(stehfest_terms=terms)


class TestForwardLaplace:
    def test_linear(self):
        assert forward_laplace(parse("t"), 2.0) == pytest.approx(0.25, rel=1e-12)

    def test_sqrt(self):
        want = math.sqrt(math.pi) / 2.0
        assert forward_laplace(parse("sqrt(t)"), 1.0) == pytest.approx(want, rel=1e-11)

    def test_quadratic_distortion(self):
        assert forward_laplace(parse(QUADRATIC), 2.0) == pytest.approx(0.125, rel=1e-12)

    def test_callable_input(self):
        got = forward_laplace(lambda t: t ** 2, 1.5)
        assert got == pytest.approx(2.0 / 1.5 ** 3, rel=1e-11)

    # NaN is refused before the truncation search, which it would climb in vain
    @pytest.mark.parametrize("s", [0.0, -1.0, math.nan])
    def test_nonpositive_s(self, s):
        with pytest.raises(NonPositiveSError, match=f"got {s!r}$"):
            forward_laplace(parse("t"), s)
        F = transform_of(parse("t"))
        for arg in (s, [2.0, s], np.array([s, 2.0])):
            with pytest.raises(NonPositiveSError, match=f"got {s!r}$"):
                F(arg)

    def test_exponential_growth_diverges(self):
        with pytest.raises(DivergentIntegralError):
            forward_laplace(parse("exp(2*t)"), 1.0)

    def test_subnormal_value(self):
        # the ramp's transform exp(-0.7 s)/s^2 is subnormal at this s, where
        # a relative truncation target would round to 0 without its floor
        s = 15.0 * math.log(2.0) / 0.01
        value = forward_laplace(parse("(t - 0.7 + abs(t - 0.7))/2"), s)
        assert 0.0 < value < sys.float_info.min

    def test_memoized_transform(self):
        calls = []

        def h(points):
            calls.append(points.size)
            return np.asarray(points)

        F = transform_of(h)
        first = F(1.0)
        again = F(1.0)
        assert first == again == pytest.approx(1.0, rel=1e-11)
        n_calls = len(calls)
        F(1.0)
        assert len(calls) == n_calls


def stehfest_nodes_of_grid(points: int) -> np.ndarray:
    """The distinct Stehfest-16 nodes of offsets 3/points .. 3."""
    return np.array(sorted(set(stehfest_nodes(np.linspace(3.0 / points, 3.0, points)))))


class TestClosedForms:
    """The double-exponential rule meets closed-form transforms to the
    rounding floor at every node a solve reads, and a ramp, split at its
    kink, exactly."""

    @pytest.mark.parametrize("points", [10, 50, 200])
    @pytest.mark.parametrize("src,exact", [
        *[(f"1.7*pow(t, {p!r})", lambda s, p=p: 1.7 * math.gamma(p + 1.0) / s ** (p + 1.0))
          for p in (-0.3, 0.55, 1.0, 2.1, 5.5)],
        ("exp(0.1*t)", lambda s: 1.0 / (s - 0.1)),
        ("sqrt(t)", lambda s: math.sqrt(math.pi) / 2.0 / s ** 1.5),
    ])
    def test_at_the_stehfest_nodes_of_a_grid(self, points, src, exact):
        s = stehfest_nodes_of_grid(points)
        want = np.array([exact(x) for x in s.tolist()])
        got = transform_of(parse(src))(s)
        assert np.max(np.abs(got - want) / want) <= 1e-14

    @pytest.mark.parametrize("c", [0.7, 1.0, 3.0])
    def test_a_ramp_is_exact(self, c):
        s = np.geomspace(0.3, 30.0, 200)
        got = transform_of(parse(f"(t - {c!r} + abs(t - {c!r}))/2"))(s)
        want = np.exp(-c * s) / s ** 2
        assert np.max(np.abs(got - want) / want) <= 1e-12


#: 32 transform variables whose truncation windows run from 1 to 1024,
#: served out of order
SHARED_S = np.geomspace(0.05, 40.0, 32)[np.random.default_rng(0).permutation(32)]


def spied(h):
    """``h`` and the log of its calls, one (size, largest point) per call;
    ``fn.points`` keeps the points of the calls of more than one point."""
    calls = []

    def fn(points):
        points = np.asarray(points)
        calls.append((points.size, float(points.max())))
        if points.size > 1:
            fn.points.extend(points.tolist())
        return h(points)

    fn.points = []
    return fn, calls


class TestSharedSamples:
    """One transform_of samples its function once for all the s it serves."""

    @pytest.mark.parametrize("h", [parse("sqrt(t) + t^2/2"),
                                   lambda t: np.sqrt(t) * (1.0 + t)],
                             ids=["expr", "callable"])
    def test_same_bits_as_a_standalone_transform(self, h):
        F = transform_of(h)
        for s in SHARED_S:
            assert F(s) == forward_laplace(h, s)

    def test_window_defined_function(self):
        # the truncation search stops inside [0, 40] for a large s; a small
        # s reaches the rung t = 64 and raises there, as a standalone call
        h = parse("sqrt(40 - t)")
        F = transform_of(h)
        assert F(8.0) == forward_laplace(h, 8.0)
        assert F(8.0) == pytest.approx(math.sqrt(40.0) / 8.0 * (1.0 - 1.0 / 640.0), rel=1e-5)
        message = "sqrt of a negative in 'sqrt(40.0 - t)' at t = 64.0"
        with pytest.raises(DomainError, match=re.escape(message)):
            F(0.5)
        with pytest.raises(DomainError, match=re.escape(message)):
            forward_laplace(h, 0.5)
        assert F(4.0) == forward_laplace(h, 4.0)

    def test_each_rung_and_node_is_evaluated_once(self):
        # s served one at a time, out of order: a level's samples grow with
        # the windows, and no point is sampled twice
        fn, calls = spied(lambda t: np.sqrt(t) * (1.0 + t))
        F = transform_of(fn)
        for s in SHARED_S:
            F(s)
        rungs = [top for size, top in calls if size == 1]
        assert rungs == [2.0 ** k for k in range(len(rungs))]
        assert len(fn.points) == len(set(fn.points))

        alone, _ = spied(lambda t: np.sqrt(t) * (1.0 + t))
        for s in SHARED_S:
            forward_laplace(alone, s)
        assert len(alone.points) > 5 * len(fn.points)

    def test_one_call_samples_each_level_once(self):
        fn, calls = spied(lambda t: np.sqrt(t) * (1.0 + t))
        F = transform_of(fn)
        F(SHARED_S)
        rule = inspect.getclosurevars(F).nonlocals["rule"]
        levels = [size for size, _ in calls if size > 1]
        assert len(levels) == len(rule.levels)
        assert levels == [level[2].size for level in rule.levels]


def transformed_renders(monkeypatch) -> list:
    """The function of every transform taken from now on, rendered where it
    is an expression."""
    seen = []

    def spy(h, s, *args, _real=laplace.forward_laplace, **kwargs):
        seen.append(render(h) if isinstance(h, Expr) else h)
        return _real(h, s, *args, **kwargs)

    monkeypatch.setattr(laplace, "forward_laplace", spy)
    return seen


def report_bits(report) -> tuple:
    cert = report.certificate
    return (report.grid.tobytes(), report.values.tobytes(), cert.grid.tobytes(),
            cert.row_ok, cert.max_violation, report.residual, report.verdict,
            report.first_point_excluded)


def kept_values() -> int:
    return sum(len(memo) for memo in _KEPT.values())


class TestKeptTransforms:
    """transform_of keeps an expression's values across solves, keyed by its
    rendered text, within KEPT_TRANSFORM_VALUES values in all."""

    def test_a_known_distortion_is_not_transformed_again(self, monkeypatch):
        d, grid = quad_distortion(), np.linspace(1.2, 3.0, 8)
        f = parse("pow(t - 1, 3.5)")
        cold = solve_problem2(f, d, 1.0, grid)
        _KEPT.clear()
        solve_problem2(parse("2*pow(t - 1, 3.5)"), d, 1.0, grid)
        seen = transformed_renders(monkeypatch)
        warm = solve_problem2(f, d, 1.0, grid)
        assert render(d.m) not in seen
        assert seen and set(seen) == {render(_rebased(f, 1.0))}
        assert report_bits(warm) == report_bits(cold)

    def test_a_distortion_in_every_solve_outlives_fresh_functions(self, monkeypatch):
        # 40 fresh f of about 290 values each overflow the cap; the least
        # recently used memos go, and the distortion is used in every solve
        d, grid = quad_distortion(), np.linspace(1.1, 3.0, 20)
        seen = transformed_renders(monkeypatch)
        for k in range(40):
            solve_problem2(parse(f"{1.0 + k / 8.0!r}*pow(t - 1, 3.5)"), d, 1.0, grid)
            if k == 0:
                first = seen.count(render(d.m))
        assert seen.count(render(d.m)) == first > 0
        assert len(seen) > KEPT_TRANSFORM_VALUES
        assert render(d.m) in _KEPT
        assert kept_values() <= KEPT_TRANSFORM_VALUES

    def test_equal_trees_that_render_apart_never_share_values(self, monkeypatch):
        zero, negative_zero = Mul(Var(), Num(0.0)), Mul(Var(), Num(-0.0))
        assert zero == negative_zero and render(zero) != render(negative_zero)
        seen = transformed_renders(monkeypatch)
        assert transform_of(zero)(1.5) == 0.0
        assert transform_of(negative_zero)(1.5) == 0.0
        assert seen == ["t*0.0", "t*-0.0"]
        assert list(_KEPT) == ["t*0.0", "t*-0.0"]

    def test_trees_that_render_alike_share_values(self, monkeypatch):
        seen = transformed_renders(monkeypatch)
        first = transform_of(parse("sqrt(t) + t^2/2"))(2.0)
        again = transform_of(parse("sqrt(t)+t ^ 2.0 / 2"))(2.0)
        assert again == first and seen == ["sqrt(t) + t^2.0/2.0"]

    def test_values_are_kept_when_the_closure_is_dropped(self, monkeypatch):
        # two live closures of one expression do not share values; each
        # keeps its own under the expression when it is dropped
        h = parse("sqrt(t) + t^2/2")
        seen = transformed_renders(monkeypatch)
        F, G = transform_of(h), transform_of(h)
        F(1.0), G(2.0)
        assert not _KEPT
        del F
        assert _KEPT == {render(h): {1.0: transform_of(h)(1.0)}}
        del G
        assert sorted(_KEPT[render(h)]) == [1.0, 2.0]
        H = transform_of(h)
        H(1.0), H(2.0)
        assert len(seen) == 2

    def test_a_callable_is_never_kept(self, monkeypatch):
        h = lambda t: np.sqrt(t) * (1.0 + t)  # noqa: E731
        seen = transformed_renders(monkeypatch)
        for _ in range(2):
            F = transform_of(h)
            assert F(2.0) == F(2.0)
        del F
        assert seen == [h, h]
        assert not _KEPT

    def test_a_failed_transform_is_not_kept(self):
        F = transform_of(parse("sqrt(40 - t)"))
        with pytest.raises(DomainError):
            F(0.5)
        del F
        assert not _KEPT

    def test_a_large_grid_keeps_values_within_the_cap(self):
        report = solve_problem2(parse("pow(t - 1, 3.5)"), quad_distortion(), 1.0,
                                np.linspace(1.1, 3.0, 2000))
        assert report.verdict is Verdict.EXISTS
        assert kept_values() <= KEPT_TRANSFORM_VALUES

    def test_one_distortion_on_shifting_grids_keeps_values_within_the_cap(self, monkeypatch):
        # each grid asks m for s it has not seen, so m's values outgrow the
        # cap; the kept values stay within it at every transform, also while
        # a solve is taking values
        d, f = quad_distortion(), parse("pow(t - 1, 3.5)")
        kept, m_transforms = [], []

        def spy(h, s, *args, **kwargs):
            kept.append(kept_values())
            m_transforms.append(h is d.m)
            return _real(h, s, *args, **kwargs)

        _real = laplace.forward_laplace
        monkeypatch.setattr(laplace, "forward_laplace", spy)
        for k in range(40):
            solve_problem2(f, d, 1.0, np.linspace(1.1 + k / 64.0, 3.0 + k / 64.0, 20))
            kept.append(kept_values())
        assert sum(m_transforms) > KEPT_TRANSFORM_VALUES
        assert max(kept) <= KEPT_TRANSFORM_VALUES

    def test_fresh_identify_inputs_keep_values_within_the_cap(self):
        for k in range(12):
            a = -2.0 + k / 3.0
            solve_problem3(parse(f"pow(t - ({a!r}), 5.5)"), parse(f"sqrt(t - ({a!r}))"),
                           a, np.linspace(a + 0.2, a + 3.0, 50))
            assert kept_values() <= KEPT_TRANSFORM_VALUES
        assert len(_KEPT) < 24

    def test_solves_in_threads_keep_values_within_the_cap(self, monkeypatch):
        # more threads than cores, switching every microsecond, keep and drop
        # each other's memos over a cap of 40 values; memos are kept by a
        # finalizer, whose errors go to sys.unraisablehook
        monkeypatch.setattr(laplace, "KEPT_TRANSFORM_VALUES", 40)
        sources = ["t", "t^2", "sqrt(t)", "t + 1"]
        s_values = [float(s) for s in np.geomspace(0.5, 20.0, 12)]
        want = {(src, s): forward_laplace(parse(src), s) for src in sources for s in s_values}
        got, errors = {}, []
        monkeypatch.setattr(sys, "unraisablehook", lambda raised: errors.append(raised))

        def work(shift):
            try:
                for k in range(3 * len(sources)):
                    src = sources[(k + shift) % len(sources)]
                    F = transform_of(parse(src))
                    for s in s_values[k % 3::3]:
                        got[src, s, shift] = F(s)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(shift,)) for shift in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and not errors
        assert 0 < kept_values() <= 40
        assert all(value == want[src, s] for (src, s, _), value in got.items())
        assert len(got) == 8 * len(want)

    def test_least_recently_used_memos_go_first(self, monkeypatch):
        monkeypatch.setattr(laplace, "KEPT_TRANSFORM_VALUES", 3)
        # t, used again, outlives t^2; then t^3 takes t's place
        for src, s_values, kept in [("t", [1.0, 2.0], ["t"]),
                                    ("t^2", [1.0], ["t", "t^2.0"]),
                                    ("t", [3.0], ["t"]),
                                    ("t^3", [1.0], ["t^3.0"])]:
            F = transform_of(parse(src))
            for s in s_values:
                F(s)
            del F
            assert list(_KEPT) == kept
        t_closure = transform_of(parse("t"))
        assert [t_closure(s) for s in (1.0, 2.0, 3.0, 4.0)]
        del t_closure  # a memo above the cap on its own is not kept
        assert list(_KEPT) == ["t^3.0"]

    def test_a_reopened_memo_above_the_cap_is_not_kept(self, monkeypatch):
        # t is opened again while kept and takes two new values: the live
        # closure leaves the kept values alone, and when it is dropped its
        # four values are over the cap, so t goes and t^2 stays
        monkeypatch.setattr(laplace, "KEPT_TRANSFORM_VALUES", 3)
        for src, s_values in [("t^2", [1.0]), ("t", [1.0, 2.0])]:
            F = transform_of(parse(src))
            for s in s_values:
                F(s)
            del F
        F = transform_of(parse("t"))
        assert [F(s) for s in (1.0, 2.0, 3.0, 4.0)]
        assert sorted(_KEPT["t"]) == [1.0, 2.0]
        del F
        assert list(_KEPT) == ["t^2.0"]
        assert kept_values() <= 3

#: functions for the truncation search: polynomially bounded; overflowing
#: to an infinite penalty from the rung t = 1024 on (no window below s ~ 1.05);
#: overflowing at the one rung t = 8 only; defined only on [0, 40]
TRUNCATED = {
    "power": parse("sqrt(t) + t^3"),
    "overflow": parse("exp(t)"),
    "hole": lambda t: np.where(t == 8.0, np.inf, t),
    "window": parse("sqrt(40 - t)"),
}


def window(rule, s, target, start=0):
    """The window exponent of one s, searched as a set of one."""
    return int(_truncation_exponent(rule, np.array([s]), np.array([target]), start)[0])


def search_outcome(search):
    """The window exponent a search returns, or the error it raises."""
    try:
        return search()
    except (DivergentIntegralError, DomainError) as exc:
        return type(exc), str(exc)


class TestTruncationSearch:
    """forward_laplace resumes its refined search at the first window; every
    rung below failed the looser bound, so the window found is the same."""

    @given(name=st.sampled_from(sorted(TRUNCATED)),
           s=st.floats(min_value=0.02, max_value=60.0),
           tighter=st.floats(min_value=0.0, max_value=30.0))
    @settings(max_examples=200, deadline=None)
    def test_resumed_search_finds_the_window_of_a_fresh_one(self, name, s, tighter):
        h, target = TRUNCATED[name], TAIL_BOUND * 10.0 ** -tighter
        fresh = _Rule(h)
        from_zero = search_outcome(lambda: window(fresh, s, target))
        rule = _Rule(h)
        first = search_outcome(lambda: window(rule, s, TAIL_BOUND))
        if isinstance(first, int):
            resumed = search_outcome(
                lambda: window(rule, s, target, start=first))
            assert resumed == from_zero
        else:
            # a tighter target searches at least as far, so it fails alike
            assert first == from_zero
        # the same rungs were sampled: a DomainError came at the same rung
        assert rule.ladder == fresh.ladder

    @given(name=st.sampled_from(sorted(TRUNCATED)),
           s_values=st.lists(st.floats(min_value=0.02, max_value=60.0), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_searches_together_find_the_windows_of_searches_alone(self, name, s_values):
        # and climb the ladder only as far as the furthest of them needs
        h = TRUNCATED[name]
        alone = []
        for s in s_values:
            rule = _Rule(h)
            alone.append((search_outcome(lambda: window(rule, s, TAIL_BOUND)), rule.ladder))
        together = _Rule(h)
        windows = search_outcome(lambda: _truncation_exponent(
            together, np.array(s_values), np.full(len(s_values), TAIL_BOUND)).tolist())
        failed = [outcome for outcome, _ in alone if not isinstance(outcome, int)]
        if failed:
            # the error of one of them, met as it meets it alone
            assert windows in failed
        else:
            assert windows == [outcome for outcome, _ in alone]
            assert together.ladder == max((ladder for _, ladder in alone), key=len)

    def test_the_cases_reach_their_features(self):
        # exp(t) at s = 1.1 has a window at 2^9; a tighter target reaches
        # the rung 2^10, where exp overflows, and finds none
        rule = _Rule(TRUNCATED["overflow"])
        k = window(rule, 1.1, TAIL_BOUND)
        with pytest.raises(DivergentIntegralError):
            window(rule, 1.1, 1e-30, start=k)
        assert (k, rule.ladder[10]) == (9, math.inf)
        # at s = 5 the search steps over the infinite rung 2^3 to 2^4
        rule = _Rule(TRUNCATED["hole"])
        assert window(rule, 5.0, TAIL_BOUND) == 4
        assert rule.ladder[3] == math.inf
        # sqrt(40 - t) at s = 2 has a window at 2^5; a tighter target
        # leaves the function's window at the rung 2^6
        rule = _Rule(TRUNCATED["window"])
        k = window(rule, 2.0, TAIL_BOUND)
        with pytest.raises(DomainError, match=re.escape("at t = 64.0")):
            window(rule, 2.0, 1e-30, start=k)
        assert k == 5


def transform_outcome(h, s):
    """The transform of ``h`` at one s, taken alone, or the error it raises."""
    try:
        return forward_laplace(h, s)
    except (DivergentIntegralError, DomainError) as exc:
        return type(exc), str(exc)


#: functions a sweep must transform as each s alone would, each with the
#: range its s are drawn from: power families; a function defined only on
#: [0, 40] (a small s leaves it); one with no window below s ~ 1.05; a
#: callable with an infinite rung; a ramp whose transform is subnormal
SWEPT = {
    "power": (lambda c, p: parse(f"{c!r}*pow(t, {p!r})"), (0.05, 40.0)),
    "window": (lambda c, p: TRUNCATED["window"], (0.2, 12.0)),
    "overflow": (lambda c, p: TRUNCATED["overflow"], (0.9, 6.0)),
    "hole": (lambda c, p: TRUNCATED["hole"], (0.5, 20.0)),
    "subnormal": (lambda c, p: parse("(t - 0.7 + abs(t - 0.7))/2"), (300.0, 1500.0)),
}


class TestSweep:
    """A closure asked for a sequence of s transforms them in one sweep;
    each value has the bits of the transform at that s alone, and a set
    that fails raises what its first failing s raises alone."""

    @given(name=st.sampled_from(sorted(SWEPT)), c=st.floats(0.3, 3.0),
           p=st.floats(-0.35, 5.5), data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_each_s_of_a_sweep_is_its_transform_alone(self, name, c, p, data):
        make, (lo, hi) = SWEPT[name]
        h = make(c, p)
        distinct = data.draw(st.lists(st.floats(lo, hi), min_size=1, max_size=8))
        # repeats, out of order
        s_values = data.draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=16))
        alone = [transform_outcome(h, s) for s in s_values]
        failed = [outcome for outcome in alone if isinstance(outcome, tuple)]
        _KEPT.clear()
        F = transform_of(h)
        if failed:
            kind, message = failed[0]
            with pytest.raises(kind, match=re.escape(message) + "$"):
                F(s_values)
        else:
            got = F(s_values)
            assert got.tobytes() == np.array(alone).tobytes()
            assert [F(s) for s in s_values] == got.tolist()

    def test_a_set_raises_what_its_first_failing_s_raises_alone(self):
        # alone, 3.0 fails at a level of more than 40 nodes and 0.9 in its
        # truncation search; a set meets the failure of 0.9 first, yet
        # raises 3.0's
        exp = parse("exp(t)")

        def h(t):
            if t.size > 40:
                raise ValueError(f"no level of {t.size} nodes")
            return exp(t)

        with pytest.raises(ValueError, match="no level of") as alone:
            forward_laplace(h, 3.0)
        with pytest.raises(DivergentIntegralError, match=r"at s = 0\.9$"):
            forward_laplace(h, 0.9)
        with pytest.raises(ValueError, match=re.escape(str(alone.value)) + "$"):
            transform_of(h)([3.0, 0.9])

    def test_a_non_positive_s_fails_a_sweep_as_it_fails_alone(self):
        F = transform_of(parse("t"))
        with pytest.raises(NonPositiveSError, match=re.escape("got -1.0")):
            F([2.0, -1.0, 0.0])
        assert F([2.0, 3.0]).tolist() == [forward_laplace(parse("t"), s) for s in (2.0, 3.0)]

    def test_a_solve_asks_each_transform_for_all_its_s_at_once(self, monkeypatch):
        # identify inverts at 12 offsets and then at the 5 offsets of the
        # verification ladder: per transform, one sweep of the distinct
        # Stehfest nodes of each set (nodes repeat across offsets that are
        # multiples of each other), and every forward_laplace call takes a
        # swept value
        sweeps = counted_sweeps(monkeypatch)
        seen = transformed_renders(monkeypatch)
        offsets = np.linspace(0.25, 3.0, 12)
        report = solve_problem3(parse("pow(t - 2, 5.5)"), parse("sqrt(t - 2)"), 2.0,
                                2.0 + offsets)
        assert report.verdict is Verdict.EXISTS

        def nodes(us):
            return {(k + 1) * (math.log(2.0) / u) for u in us.tolist() for k in range(16)}

        on_grid = nodes(offsets)
        on_ladder = nodes(offsets[0] * np.array([1 / 16, 1 / 8, 1 / 4, 1 / 2, 3 / 4])) - on_grid
        assert sweeps == [len(on_grid)] * 2 + [len(on_ladder)] * 2
        assert len(seen) == sum(sweeps)


def counted_sweeps(monkeypatch) -> list:
    """The number of s of every sweep taken from now on."""
    sweeps = []

    def spy(rule, s_values, _real=laplace._transforms):
        sweeps.append(len(s_values))
        return _real(rule, s_values)

    monkeypatch.setattr(laplace, "_transforms", spy)
    return sweeps


class TestOneTable:
    """A closure's values live in one table, its rule's, and the
    batch a sweep serves is an argument of each call, which no other caller
    of the closure can change."""

    def test_threads_sharing_a_closure_each_take_one_sweep(self, monkeypatch):
        # each thread's first transform waits for the other's: both have
        # asked the closure for their s before either sweeps
        h = parse("sqrt(t) + t^2/2")
        s_values = np.geomspace(0.05, 40.0, 600).tolist()
        sets = [s_values[0::2], s_values[1::2]]
        want = [transform_of(h)(x).tobytes() for x in sets]
        _KEPT.clear()
        barrier, waited = threading.Barrier(2, timeout=30.0), set()

        def spy(h, s, *args, _real=laplace.forward_laplace, **kwargs):
            if threading.get_ident() not in waited:
                waited.add(threading.get_ident())
                barrier.wait()
            return _real(h, s, *args, **kwargs)

        monkeypatch.setattr(laplace, "forward_laplace", spy)
        sweeps = counted_sweeps(monkeypatch)
        F, got, errors = transform_of(h), {}, []

        def work(k):
            try:
                got[k] = F(sets[k])
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads) and not errors
        assert sweeps == [300, 300]
        assert [got[k].tobytes() for k in range(2)] == want

    def test_sequence_and_one_s_reads_fill_one_table(self, monkeypatch):
        h = parse("sqrt(t) + t^2/2")
        sweeps = counted_sweeps(monkeypatch)
        F = transform_of(h)
        table = inspect.getclosurevars(F).nonlocals["rule"].transforms
        first = F(1.0)
        values = F([3.0, 1.0, 2.0, 3.0])
        assert sweeps == [1, 2]
        assert [F(s) for s in (2.0, 3.0, 1.0)] == values[[2, 0, 1]].tolist()
        assert sweeps == [1, 2]
        assert table == {1.0: first, 2.0: values[2], 3.0: values[0]}
        del F
        assert _KEPT == {render(h): table} and _KEPT[render(h)] is table


def spied_closures(monkeypatch) -> list:
    """For every transform closure made from now on, the arguments of its
    calls."""
    calls = []

    def spy_of(h, _real=laplace.transform_of):
        F, seen = _real(h), []
        calls.append(seen)

        def spy(s):
            seen.append(s)
            return F(s)

        return spy

    monkeypatch.setattr(laplace, "transform_of", spy_of)
    return calls


def stehfest_nodes(offsets) -> list:
    """The Stehfest-16 nodes of every positive offset, offset by offset."""
    return [(k + 1) * (math.log(2.0) / u) for u in offsets.tolist() if u > 0.0
            for k in range(16)]


class TestArrayReads:
    """A solve stage reads each quotient as one array: it calls each
    transform closure once, with the Stehfest nodes of every positive
    offset of the stage."""

    @pytest.mark.parametrize("problem", ["integrate", "derive", "identify"])
    def test_each_stage_calls_each_transform_once(self, problem, monkeypatch):
        calls = spied_closures(monkeypatch)
        grid = np.linspace(1.2, 4.0, 8)
        offsets = grid - 1.0
        f, g = parse("pow(t - 1, 3.5)"), parse("sqrt(t - 1)")
        ladder = offsets[0] * np.array([1 / 16, 1 / 8, 1 / 4, 1 / 2, 3 / 4])
        if problem == "integrate":
            # the offset 0 is not inverted
            report = solve_problem1(g, quad_distortion(), 1.0, np.concatenate(([1.0], grid)))
            stages = [offsets]
        elif problem == "derive":
            report = solve_problem2(f, quad_distortion(), 1.0, grid)
            stages = [offsets, ladder]
        else:
            report = solve_problem3(f, g, 1.0, grid)
            stages = [offsets, ladder]
        assert report.verdict is Verdict.EXISTS
        assert len(calls) == 2
        for seen in calls:
            assert all(isinstance(s, np.ndarray) for s in seen)
            assert [s.tolist() for s in seen] == [stehfest_nodes(u) for u in stages]

    def test_a_vanishing_quotient_names_its_first_node(self):
        # the first offset's third node: s M(s) = 20!/s^20 passes 1e-280
        # between its second and third nodes
        d = Distortion.from_expression("t^20", upper=3.0)
        with pytest.raises(GVanishesError,
                           match=re.escape("s M(s) vanished at s = 1039720770839917.9") + "$"):
            solve_problem2(parse("t"), d, 0.0, [2e-15, 1.0, 2.0])
        with pytest.raises(GVanishesError,
                           match=re.escape("s G_a(s) vanished at s = 2.3104906018664844") + "$"):
            solve_problem3(parse(QUADRATIC), parse("0"), 0.0, np.linspace(0.3, 2.0, 5))

    def test_subnormal_offsets_warn_nothing(self, recwarn):
        # a subnormal offset's nodes are infinite: each transform is 0 there,
        # and s times it NaN, as in float arithmetic.  In identify the
        # verification ladder under the second offset rounds to 0
        with pytest.raises(InvalidArgumentError,
                           match=re.escape("inversion time must be positive, got 0.0") + "$"):
            solve_problem3(parse("t"), parse("1"), 0.0, [5e-324, 1e-323, 1.5e-323, 1.0])
        report = solve_problem2(parse("t"), Distortion.from_expression("t", upper=2.0), 0.0,
                                np.linspace(5e-324, 1.0, 4))
        assert report.first_point_excluded and math.isnan(report.values[0])
        assert report.verdict is Verdict.EXISTS
        report = solve_problem1(parse("t"), Distortion.from_expression("t", upper=2.0), 0.0,
                                [0.0, 5e-324, 0.5, 1.0])
        assert math.isnan(report.values[1]) and report.verdict is Verdict.INCONCLUSIVE
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestInvertLaplace:
    def test_inverse_of_linear(self):
        # intrinsic n=16 floor is ~4.5e-8 relative; see the notes on the
        # roundtrip tolerances
        got = invert_laplace(lambda s: 1.0 / s ** 2, 3.0)
        assert got == pytest.approx(3.0, rel=1e-6)

    def test_sqrt_pair(self):
        F = lambda s: math.sqrt(math.pi) / (2.0 * s ** 1.5)
        assert invert_laplace(F, 4.0) == pytest.approx(2.0, rel=1e-6)

    def test_power_transform_pair(self):
        F = lambda s: math.sqrt(math.pi) / 2.0 * s ** -3.5
        assert invert_laplace(F, 1.0) == pytest.approx(4.0 / 15.0, rel=1e-5)

    def test_nonpositive_time_rejected(self):
        with pytest.raises(InvalidArgumentError, match="must be positive"):
            invert_laplace(lambda s: 1.0 / s, 0.0)

    @pytest.mark.parametrize("t,need", [(math.nan, "positive"), (math.inf, "finite"),
                                        (-math.inf, "positive")])
    def test_non_finite_time_rejected(self, t, need):
        # at t = inf every node is 0; NaN nodes would invert to NaN
        for F in (lambda s: 1.0 / s ** 2, transform_of(parse("t"))):
            with pytest.raises(InvalidArgumentError,
                               match=re.escape(f"inversion time must be {need}, got {t!r}") + "$"):
                invert_laplace(F, t)

    def test_a_sum_that_overflows_is_a_numerical_failure(self):
        # the answer, 2e300, is a double, but weighted terms pass the
        # largest one: inf - inf, or a partial sum of finite terms that
        # overflows (each term here 1e308), raises within math.fsum
        nodes = [k * math.log(2.0) / 0.5 for k in range(1, 17)]
        huge = dict(zip(nodes, [1e308 / w for w in stehfest_weights(16)]))
        for F in (lambda s: 2e300 / s, huge.__getitem__):
            with pytest.raises(DivergentIntegralError,
                               match=re.escape("the Stehfest sum overflows at t = 0.5") + "$"):
                invert_laplace(F, 0.5)
        # a NaN term alone sums to NaN
        assert math.isnan(invert_laplace(lambda s: math.nan, 0.5))

    @pytest.mark.parametrize("p", [1.0, 2.0, 0.5, 3.5])
    def test_roundtrip_through_numeric_transform(self, p):
        h = parse(f"pow(t, {p})")
        F = transform_of(h)
        for t in (0.1, 0.7, 2.3, 10.0):
            got = invert_laplace(F, t)
            assert got == pytest.approx(t ** p, rel=1e-5)


class TestProblem1:
    def test_square_root_forward(self):
        grid = np.linspace(1.0, 3.0, 5)
        report = solve_problem1(parse("sqrt(t - 1)"), quad_distortion(), 1.0, grid)
        assert report.verdict is Verdict.EXISTS
        assert report.residual <= 1e-3
        for t, value in report.samples:
            assert value == pytest.approx(sqrt_forward_value(1.0, t), rel=1e-3, abs=1e-9)

    def test_zero_integrand(self):
        grid = np.linspace(0.0, 2.0, 5)
        report = solve_problem1(parse("0"), quad_distortion(), 0.0, grid)
        assert np.all(report.values == 0.0)
        assert report.verdict is Verdict.EXISTS

    def test_random_monotone_matches_quadrature(self):
        grid = np.linspace(0.5, 3.5, 7)
        report = solve_problem1(parse("1 + t^2 + sqrt(t - 0.5)"),
                                Distortion.from_expression("0.4*t + 0.1*t^3", upper=4.0),
                                0.5, grid)
        assert report.residual <= 1e-3
        assert report.verdict is Verdict.EXISTS

    def test_rejects_inadmissible_integrand(self):
        with pytest.raises(NotInFPlusError):
            solve_problem1(parse("t"), quad_distortion(), -1.0, np.linspace(-1.0, 1.0, 4))


class TestProblem2:
    def test_power_integral_has_derivative(self):
        grid = np.linspace(1.2, 4.0, 29)
        report = solve_problem2(parse("pow(t - 1, 3.5)"), quad_distortion(), 1.0, grid)
        assert report.verdict is Verdict.EXISTS
        assert report.residual <= 1e-2
        want = 35.0 / 4.0 * (report.grid - 1.0) ** 1.5
        assert np.allclose(report.values, want, rtol=1e-3)
        at_two = report.values[np.argmin(np.abs(report.grid - 2.0))]
        assert at_two == pytest.approx(8.75, rel=1e-3)

    @pytest.mark.parametrize("a", [-3.0, 0.0, 2.0])
    def test_square_root_integral_has_none(self, a):
        grid = np.linspace(a + 0.2, a + 3.0, 12)
        d = Distortion.from_expression(QUADRATIC, upper=4.0)
        report = solve_problem2(parse(f"sqrt(t - ({a!r}))"), d, a, grid)
        assert report.verdict is Verdict.DOES_NOT_EXIST

    def test_zero_function(self):
        grid = np.linspace(0.5, 2.0, 6)
        report = solve_problem2(parse("0"), quad_distortion(), 0.5, grid)
        assert report.verdict is Verdict.EXISTS
        assert np.all(report.values == 0.0)

    def test_f_must_vanish_at_origin(self):
        with pytest.raises(OriginNotZeroError):
            solve_problem2(parse("t"), quad_distortion(), 1.0, np.linspace(1.0, 2.0, 4))

    def test_f_must_be_admissible(self):
        # f rises then falls on the window
        with pytest.raises(NotInFPlusError):
            solve_problem2(parse("t*(2 - t)"), quad_distortion(), 0.0,
                           np.linspace(0.2, 3.0, 4))

    def test_distortion_window_must_cover_the_grid(self, monkeypatch):
        # m = t*(2 - t) is a distortion on [0, 1] only; the grid asks it
        # about intervals up to 2.8 long
        def refuse(*args, **kwargs):
            raise AssertionError("a transform was taken")

        monkeypatch.setattr(laplace, "forward_laplace", refuse)
        d = Distortion.from_expression("t*(2-t)", upper=1.0)
        with pytest.raises(InvalidDistortionError, match=r"\[0, 1\.0\], shorter than"):
            solve_problem2(parse("t^2"), d, 0.0, np.linspace(0.2, 3, 8))

    def test_grid_starting_at_a_is_nudged(self):
        grid = np.linspace(1.0, 3.0, 11)
        report = solve_problem2(parse("pow(t - 1, 2)"), quad_distortion(), 1.0, grid)
        assert report.grid[0] == pytest.approx(1.0 + 2.0 / 1000.0)
        assert report.verdict is Verdict.EXISTS

    def test_grid_of_1001_points_from_a_is_nudged_below_its_second_point(self):
        # from 1001 points on, a + span/1000 reaches the second point; the
        # first point goes halfway to it instead
        grid = np.linspace(1.0, 3.0, 1001)
        report = solve_problem2(parse("pow(t - 1, 3.5)"), quad_distortion(), 1.0, grid)
        assert report.grid[0] == 1.0 + (grid[1] - 1.0) / 2.0
        assert np.array_equal(report.grid[1:], grid[1:])
        assert report.verdict is Verdict.EXISTS

    def test_blowup_at_left_edge_excluded_from_certificate(self):
        # the pseudo-derivative of sqrt(t - a) diverges like (t - a)^{-3/2},
        # so a grid touching a produces one wild sample; it is excluded from
        # the certificate and the verdict still lands on the decisive failure
        report = solve_problem2(parse("sqrt(t - 1)"), quad_distortion(), 1.0,
                                np.linspace(1.0, 4.0, 12))
        assert report.first_point_excluded
        assert abs(report.values[0]) > 100.0 * np.abs(report.values[1:]).max()
        assert report.certificate.grid[0] == report.grid[1]
        assert report.verdict is Verdict.DOES_NOT_EXIST


class TestInversionGrid:
    """A grid that starts at a has its first point moved inside (a, grid[1])."""

    @pytest.mark.parametrize("points", [5, 1000])
    def test_below_1001_points_the_nudge_is_a_thousandth_of_the_span(self, points):
        grid = _inversion_grid(1.0, np.linspace(1.0, 3.0, points))
        assert grid[0] == 1.0 + 2.0 / 1000.0 < grid[1]

    @pytest.mark.parametrize("points", [1001, 1002, 5000])
    def test_from_1001_points_it_is_halfway_to_the_second_point(self, points):
        t_grid = np.linspace(1.0, 3.0, points)
        grid = _inversion_grid(1.0, t_grid)
        assert grid[0] == 1.0 + (t_grid[1] - 1.0) / 2.0
        assert 1.0 < grid[0] < grid[1] == t_grid[1]

    def test_no_float_between_a_and_the_second_point_is_refused(self):
        with pytest.raises(InvalidArgumentError, match="no point between a and its second point"):
            _inversion_grid(1.0, np.array([1.0, np.nextafter(1.0, 2.0), 2.0]))

    def test_one_point_is_refused(self):
        with pytest.raises(InvalidArgumentError, match="at least 2 points"):
            _inversion_grid(1.0, np.array([2.0]))


class TestProblem3:
    def test_identification_power_law(self):
        # beta-integral oracle: int_0^T (T-u)^4 sqrt(u) du = (768/10395) T^5.5,
        # so m(u) = c u^5 with 5c * 768/10395 = 1, i.e. c = 693/256
        c = 1.0 / (5.0 * beta_integral(4.0, 0.5, 1.0))
        assert c == pytest.approx(693.0 / 256.0, rel=1e-12)
        grid = np.linspace(2.2, 5.0, 41)
        report = solve_problem3(parse("pow(t - 2, 5.5)"), parse("sqrt(t - 2)"), 2.0, grid)
        assert report.verdict is Verdict.EXISTS
        assert np.allclose(report.values, c * report.grid ** 5, rtol=1e-3)
        at_one = report.values[np.argmin(np.abs(report.grid - 1.0))]
        u_one = report.grid[np.argmin(np.abs(report.grid - 1.0))]
        assert at_one == pytest.approx(693.0 / 256.0 * u_one ** 5, rel=1e-3)

    def test_output_grid_is_measure_domain(self):
        grid = np.linspace(2.2, 5.0, 8)
        report = solve_problem3(parse("pow(t - 2, 5.5)"), parse("sqrt(t - 2)"), 2.0, grid)
        assert np.allclose(report.grid, grid - 2.0)

    def test_additive_case_recovers_lebesgue(self):
        # g = f' and m the identity: F/(s G) = 1/s^2
        grid = np.linspace(0.3, 3.0, 10)
        report = solve_problem3(parse(QUADRATIC), parse("t"), 0.0, grid)
        assert report.verdict is Verdict.EXISTS
        assert np.allclose(report.values, report.grid, rtol=1e-4)

    def test_constant_integrand_recovers_f_itself(self):
        # with g = 1 the convolution of m' is m itself, so m must equal f
        grid = np.linspace(0.3, 3.0, 10)
        report = solve_problem3(parse(QUADRATIC), parse("1"), 0.0, grid)
        assert report.verdict is Verdict.EXISTS
        assert np.allclose(report.values, report.grid ** 2 / 2.0, rtol=1e-4)

    def test_closed_loop_with_negative_origin(self):
        # f = (4/15)(t-a)^{5/2} is the integral of sqrt(t-a) against t^2/2,
        # so identification must recover exactly that distortion
        a = -1.5
        grid = np.linspace(a + 0.3, a + 3.0, 12)
        report = solve_problem3(parse(f"(4/15)*pow(t - ({a!r}), 2.5)"),
                                parse(f"sqrt(t - ({a!r}))"), a, grid)
        assert report.verdict is Verdict.EXISTS
        assert np.allclose(report.values, report.grid ** 2 / 2.0, rtol=1e-4)

    def test_grid_of_1001_points_from_a_is_nudged_below_its_second_point(self):
        # span/1000 is the second offset itself here
        grid = np.linspace(2.0, 5.0, 1001)
        report = solve_problem3(parse("pow(t - 2, 5.5)"), parse("sqrt(t - 2)"), 2.0, grid)
        # m = c u^5 vanishes to high order: its first two samples differ by
        # less than 1e-12, yet it is strictly increasing
        assert report.verdict is Verdict.EXISTS
        assert report.grid[0] == (grid[1] - 2.0) / 2.0
        assert np.array_equal(report.grid[1:], grid[1:] - 2.0)
        tail = report.grid >= 1.0
        assert np.allclose(report.values[tail], 693.0 / 256.0 * report.grid[tail] ** 5,
                           rtol=1e-3)

    def test_vanishing_g_raises(self):
        with pytest.raises(GVanishesError):
            solve_problem3(parse(QUADRATIC), parse("0"), 0.0, np.linspace(0.3, 2.0, 5))

    def test_zero_f_is_inconclusive(self):
        report = solve_problem3(parse("0"), parse("t"), 0.0, np.linspace(0.3, 2.0, 5))
        assert report.verdict is Verdict.INCONCLUSIVE
        assert np.allclose(report.values, 0.0, atol=1e-12)


class TestSolverTolerances:
    """A negative, infinite or NaN tolerance is refused before any transform
    is taken; it would otherwise decide a verdict (a negative decisive ratio
    makes every recovery DoesNotExistInFPlus) or fail every test."""

    CASES = [("problem1", "residual_threshold")] + [
        (solver, name) for solver in ("problem2", "problem3")
        for name in ("residual_threshold", "decisive_ratio", "monotone_slack")
    ]

    @pytest.mark.parametrize("value", [-1.0, math.inf, math.nan])
    @pytest.mark.parametrize("solver,name", CASES)
    def test_rejected(self, solver, name, value, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a transform was taken")

        monkeypatch.setattr(laplace, "forward_laplace", refuse)
        f, g, grid = parse("pow(t - 1, 3.5)"), parse("sqrt(t - 1)"), np.linspace(1.2, 3.0, 5)
        solve = {
            "problem1": lambda **kw: solve_problem1(g, quad_distortion(), 1.0, grid, **kw),
            "problem2": lambda **kw: solve_problem2(f, quad_distortion(), 1.0, grid, **kw),
            "problem3": lambda **kw: solve_problem3(f, g, 1.0, grid, **kw),
        }[solver]
        with pytest.raises(InvalidArgumentError, match=f"{name} must be finite and nonnegative"):
            solve(**{name: value})


    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("solver", ["problem1", "problem2", "problem3"])
    def test_non_finite_origin_rejected(self, solver, a, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a transform was taken")

        monkeypatch.setattr(laplace, "forward_laplace", refuse)
        f, g, grid = parse("pow(t - 1, 3.5)"), parse("sqrt(t - 1)"), np.linspace(1.2, 3.0, 5)
        solve = {
            "problem1": lambda: solve_problem1(g, quad_distortion(), a, grid),
            "problem2": lambda: solve_problem2(f, quad_distortion(), a, grid),
            "problem3": lambda: solve_problem3(f, g, a, grid),
        }[solver]
        with pytest.raises(InvalidArgumentError, match="origin a must be finite"):
            solve()


class TestVerificationWork:
    """A solve inverts its report points once and a ladder of five offsets in
    the leading gap again; the verification spline needs nothing else."""

    @pytest.mark.parametrize("f,g,grid", [
        ("pow(t - 1, 3.5)", None, np.linspace(1.1, 4.0, 20)),
        ("sqrt(t - 1)", None, np.linspace(1.0, 4.0, 12)),
        ("pow(t - 1, 5.5)", "sqrt(t - 1)", np.linspace(1.1, 4.0, 50)),
    ], ids=["derive-20", "derive-12-first-excluded", "identify-50"])
    def test_inversions_per_solve(self, f, g, grid, monkeypatch):
        calls = []
        original = laplace.invert_laplace

        def spy(F, t, cfg=laplace.DEFAULT_INVERSION):
            calls.append(t)
            return original(F, t, cfg)

        monkeypatch.setattr(laplace, "invert_laplace", spy)
        if g is None:
            report = solve_problem2(parse(f), quad_distortion(), 1.0, grid)
        else:
            report = solve_problem3(parse(f), parse(g), 1.0, grid)
        assert report.verdict is not Verdict.INCONCLUSIVE
        assert len(calls) == grid.size + 5


def segment_convolution(kernel, factor, span, knots, nodes=16):
    """Oracle for quadrature.convolve, one span at a time: int_0^span
    kernel(w) factor(span - w) dw, Gauss-Legendre cellwise, never across a
    knot of ``factor``."""
    if span <= 0.0:
        return 0.0
    cuts = np.unique(np.concatenate(([0.0, span], span - np.clip(knots, 0.0, span))))
    x, w = _gauss_nodes(nodes)
    mids = 0.5 * (cuts[1:] + cuts[:-1])
    halves = 0.5 * (cuts[1:] - cuts[:-1])
    ws = (mids[:, None] + halves[:, None] * x[None, :]).ravel()
    vals = (np.asarray(kernel(ws), dtype=float)
            * np.asarray(factor(span - ws), dtype=float)).reshape(mids.size, -1)
    return float(np.sum(halves * (vals @ w)))


def verification_case(kind):
    """Kernel, spline factor, spans and knots of the residual check of a
    50-point solve, as ``_solve_inverse`` builds them: derive convolves the
    spline of g against m' (singular at 0 for this concave m), identify the
    spline's derivative against g_a."""
    spans = np.linspace(0.1, 2.9, 50)
    ladder = spans[0] * np.array([1 / 16, 1 / 8, 1 / 4, 1 / 2, 3 / 4])
    knots = np.concatenate(([0.0], ladder, spans))
    if kind == "derive":
        spline = _CubicSpline(knots, knots ** 1.5)
        return Distortion.from_expression("t^0.7", upper=3.0).density, spline, spans, knots
    spline = _CubicSpline(knots, knots ** 2.5)
    return _rebased(parse("sqrt(t - 1)"), 1.0), spline.derivative, spans, knots


class TestVerificationConvolution:
    """The residual check convolves every kept offset in one batched pass;
    it must agree with the per-span oracle it replaced."""

    @pytest.mark.parametrize("kind", ["derive", "identify"])
    def test_matches_the_per_span_oracle(self, kind):
        kernel, factor, spans, knots = verification_case(kind)
        got = convolve(kernel, factor, spans, knots, 16)
        want = [segment_convolution(kernel, factor, u, knots) for u in spans]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("kind", ["derive", "identify"])
    def test_batches_straddling_the_cap_agree_with_one_batch(self, kind, monkeypatch):
        kernel, factor, spans, knots = verification_case(kind)
        sizes = []

        def spied(w):
            sizes.append(np.size(w))
            return kernel(w)

        # 56 knots cap a span at 57 cells of 16 nodes, so a cap of 2000
        # nodes takes two spans a batch
        monkeypatch.setattr(quadrature, "BATCH_NODES", 2000)
        batched = convolve(spied, factor, spans, knots, 16)
        assert len(sizes) == 25 and max(sizes) <= 2000
        monkeypatch.setattr(quadrature, "BATCH_NODES", 10 ** 9)
        sizes.clear()
        whole = convolve(spied, factor, spans, knots, 16)
        assert len(sizes) == 1
        np.testing.assert_allclose(batched, whole, rtol=1e-15, atol=0.0)

    def test_a_span_above_the_row_cap_is_refused_before_it_is_built(self):
        kernel, factor, spans, _ = verification_case("derive")
        knots = np.linspace(0.0, 2.9, MAX_ROW_NODES // 16)
        with pytest.raises(DivergentIntegralError, match="exceeds the cap"):
            convolve(kernel, factor, spans, knots, 16)


class TestCubicSpline:
    KNOTS = np.array([0.0, 0.05, 0.3, 0.35, 1.0, 2.5, 2.6, 4.0])
    OFF_KNOT = np.linspace(0.013, 3.97, 61)

    def test_reproduces_a_cubic_and_its_derivative(self):
        p = np.polynomial.Polynomial([1.0, -2.0, 0.5, -0.3])
        spline = _CubicSpline(self.KNOTS, p(self.KNOTS))
        assert np.allclose(spline(self.OFF_KNOT), p(self.OFF_KNOT), rtol=0.0, atol=1e-12)
        assert np.allclose(spline.derivative(self.OFF_KNOT), p.deriv()(self.OFF_KNOT),
                           rtol=0.0, atol=1e-12)

    def test_exact_on_linear_data(self):
        spline = _CubicSpline(self.KNOTS, 3.0 - 0.5 * self.KNOTS)
        assert np.allclose(spline(self.OFF_KNOT), 3.0 - 0.5 * self.OFF_KNOT,
                           rtol=0.0, atol=1e-14)
        assert np.allclose(spline.derivative(self.OFF_KNOT), -0.5, rtol=0.0, atol=1e-14)

    def test_interpolates_its_knots(self):
        y = np.sin(self.KNOTS)
        assert np.allclose(_CubicSpline(self.KNOTS, y)(self.KNOTS), y, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("x", [[0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0, 3.0], [0.0, 1.0, 2.0]],
                             ids=["repeated", "decreasing", "three-knots"])
    def test_rejects_bad_knots(self, x):
        # the solvers build the knots: bad ones are a program fault, a plain
        # ValueError, not a refused argument
        with pytest.raises(ValueError) as excinfo:
            _CubicSpline(x, np.zeros(len(x)))
        assert type(excinfo.value) is ValueError


class TestTranslationInvariance:
    """Exact rebasing: a solve on [a, t] is as accurate at any origin a as at
    a = 0, since the rebased f and g are the expressions in t - a."""

    @pytest.mark.parametrize("a", [50.0, 1e3, -1e3])
    def test_derive_and_identify(self, a):
        def errors(a):
            grid = a + np.linspace(0.2, 2.0, 10)
            d = Distortion.from_expression("t^1.5", upper=3.0)
            derived = solve_problem2(parse(f"pow(t - ({a!r}), 2.7)"), d, a, grid)
            g = (grid - a) ** 1.2 / (1.5 * math.gamma(1.5) * math.gamma(2.2) / math.gamma(3.7))
            f = f"{1.5 * math.gamma(1.5) ** 2 / math.gamma(3.0)!r}*pow(t - ({a!r}), 2)"
            identified = solve_problem3(parse(f), parse(f"sqrt(t - ({a!r}))"), a, grid)
            m = identified.grid ** 1.5
            assert derived.verdict is identified.verdict is Verdict.EXISTS
            return (np.max(np.abs(derived.values - g) / g),
                    np.max(np.abs(identified.values - m) / m))

        at_zero = errors(0.0)
        assert all(err <= 1.25 * zero for err, zero in zip(errors(a), at_zero)), at_zero


class TestRoundtrips:
    def test_problem1_then_problem2(self):
        # closed forms for m = t^2/2 via the Beta identity:
        #   g = sqrt(u)        -> f = (4/15)  u^{5/2}
        #   g = u^2            -> f = (1/12)  u^4
        #   g = (35/4) u^{3/2} -> f = u^{7/2}
        a = 1.0
        cases = [
            ("sqrt(t - 1)", "(4/15)*pow(t - 1, 2.5)", 0.5),
            ("pow(t - 1, 2)", "pow(t - 1, 4)/12", 2.0),
            ("(35/4)*pow(t - 1, 1.5)", "pow(t - 1, 3.5)", 1.5),
        ]
        d = quad_distortion()
        for g_src, f_src, q in cases:
            oracle = beta_integral(1.0, q, 1.0)  # validates the closed form shape
            grid = np.linspace(1.0, 3.0, 9)
            forward = solve_problem1(parse(g_src), d, a, grid)
            f_expr = parse(f_src)
            for t, value in forward.samples:
                want = f_expr(t)
                assert value == pytest.approx(want, rel=1e-3, abs=1e-9), (g_src, t)
            back = solve_problem2(f_expr, d, a, np.linspace(1.2, 3.0, 10))
            g_expr = parse(g_src)
            for t, value in back.samples:
                assert value == pytest.approx(g_expr(t), rel=1e-3), (g_src, t)
            assert oracle > 0.0

    def test_eq4_factorization_against_solved_output(self):
        # transform of the solved f (sampled, interpolated by a cubic
        # spline whose end cubics continue) must match s M(s) G_a(s)
        a = 1.0
        length = 24.0
        grid = a + np.geomspace(1e-3, length, 700)
        grid = np.concatenate(([a], grid))
        report = solve_problem1(parse("sqrt(t - 1)"), quad_distortion(upper=length),
                                a, grid)
        sampled = _CubicSpline(report.grid - a, report.values)
        G = transform_of(parse("sqrt(t)"))
        M = transform_of(parse(QUADRATIC))
        for s in (0.5, 1.0, 2.0, 5.0):
            lhs = forward_laplace(sampled, s)
            rhs = s * M(s) * G(s)
            assert lhs == pytest.approx(rhs, rel=1e-4), s
