import re

import numpy as np
import pytest

from choqint import (
    ChoquetProblem,
    Distortion,
    IntervalCapacity,
    InvalidDistortionError,
    NotInFPlusError,
    distorted_capacity,
    evaluate,
    parse,
)
from choqint.capacity import (
    _tau_derivative_grid,
    certify_samples,
    check_f_plus,
    require_f_plus,
)
from choqint.choquet import _general_integrand
from choqint.errors import InvalidArgumentError


class TestDistortion:
    def test_from_expression_builds_derivative(self):
        d = Distortion.from_expression("t^2/2", upper=4.0)
        assert evaluate(d.m_prime, 3.0) == pytest.approx(3.0)

    @pytest.mark.parametrize("src", [
        "t^2/2 + 1",     # m(0) != 0
        "-t",            # negative
        "t*(4 - t)",     # decreases inside [0, upper]
    ])
    def test_invalid_distortions(self, src):
        with pytest.raises(InvalidDistortionError):
            Distortion.from_expression(src, upper=5.0)

    def test_constructor_validates(self):
        # the second argument is the validation window's upper end; a tree
        # there, or a decreasing m, is refused before any route can use it
        with pytest.raises(InvalidDistortionError):
            ChoquetProblem(0.0, parse("1"), Distortion(parse("-t"), parse("-1")),
                           np.array([0.0, 1.0]))
        with pytest.raises(InvalidDistortionError, match="ViolatedAt"):
            Distortion(parse("-t"))

    @pytest.mark.parametrize("upper", [0.0, -1.0, float("inf"), float("nan")])
    def test_window_must_be_finite_and_positive(self, upper):
        with pytest.raises(InvalidDistortionError, match="upper end"):
            Distortion(parse("t"), upper)

    def test_constructor_derives_the_density(self):
        d = Distortion(parse("t^2/2"), 4.0)
        assert d == Distortion.from_expression("t^2/2", upper=4.0)
        assert evaluate(d.m_prime, 3.0) == pytest.approx(3.0)

    def test_violation_names_first_bad_sample(self):
        # t (4 - t) peaks at t = 2; on 401 samples over [0, 5] the first
        # drop is at sample 161, t = 2.0125
        with pytest.raises(InvalidDistortionError, match=r"t = 2\.012.*ViolatedAt\(161\)"):
            Distortion.from_expression("t*(4 - t)", upper=5.0)

    def test_is_its_own_interval_capacity(self):
        d = Distortion.from_expression("t^2/2 + sqrt(t)", upper=4.0)
        cap = distorted_capacity(d)
        assert d.evaluate(0.5, 3.25) == cap.evaluate(0.5, 3.25)
        assert type(d.evaluate(0.5, 3.25)) is type(cap.evaluate(0.5, 3.25))
        u = np.linspace(-1.0, 1.0, 7)
        v = u + np.linspace(0.0, 3.0, 7)
        assert d.evaluate(u, v).tobytes() == cap.evaluate(u, v).tobytes()
        assert d.shifted(2.5) is d


class TestDistortedCapacity:
    def test_example_quadratic(self):
        d = Distortion.from_expression("t^2/2", upper=4.0)
        cap = distorted_capacity(d)
        assert cap.evaluate(1.0, 3.0) == pytest.approx(2.0)  # m(2) = 2

    def test_identity_is_lebesgue(self):
        cap = distorted_capacity(Distortion.from_expression("t", upper=10.0))
        u, v = 1.25, 7.5
        assert cap.evaluate(u, v) == pytest.approx(v - u)

    def test_empty_interval(self):
        d = Distortion.from_expression("t^2/2", upper=6.0)
        cap = distorted_capacity(d)
        assert cap.evaluate(5.0, 5.0) == 0.0

    def test_nested_interval_monotonicity(self):
        d = Distortion.from_expression("0.3*t + 0.2*t^2", upper=12.0)
        cap = distorted_capacity(d)
        rng = np.random.default_rng(7)
        for _ in range(50):
            u, v = np.sort(rng.uniform(0.0, 5.0, 2))
            du, dv = rng.uniform(0.0, 2.0, 2)
            inner = cap.evaluate(u, v)
            outer = cap.evaluate(u - du, v + dv)
            assert inner >= 0.0
            assert outer >= inner - 1e-12

    def test_translation_invariance_on_exact_shifts(self):
        # dyadic endpoints shift without rounding, so equality is exact
        d = Distortion.from_expression("t^2/2 + t", upper=20.0)
        cap = distorted_capacity(d)
        rng = np.random.default_rng(11)
        for _ in range(100):
            u, v = np.sort(rng.integers(0, 1024, 2) / 256.0)
            shift = rng.integers(0, 4096) / 256.0
            assert cap.evaluate(u + shift, v + shift) == cap.evaluate(u, v)


class TestCheckFPlus:
    def test_square_root_integrand(self):
        cert = check_f_plus(parse("sqrt(t - 1)"), 1.0, 9.0)
        assert cert.is_monotone
        assert cert.verdict == "Monotone"

    def test_decreasing_integrand_flagged_at_second_sample(self):
        cert = check_f_plus(parse("1/(t - 1)^1.5"), 1.1, 9.0)
        assert not cert.is_monotone
        assert cert.violation_index == 1
        assert cert.verdict == "ViolatedAt(1)"
        assert cert.max_violation > 0.0

    def test_constant_zero_is_monotone(self):
        assert check_f_plus(parse("0"), -2.0, 3.0).is_monotone

    def test_negative_function_flagged(self):
        cert = check_f_plus(parse("t"), -1.0, 1.0)
        assert not cert.is_monotone
        assert cert.violation_index == 0

    def test_grid_validation(self):
        with pytest.raises(InvalidArgumentError, match="t_max must exceed a"):
            check_f_plus(parse("t"), 1.0, 1.0)


class TestRequireFPlus:
    @pytest.mark.parametrize("t_end,window", [(2.0, "[-1.0, 2.0]"), (-1.0, "[-1.0, 0.0]")])
    def test_names_function_window_and_sample(self, t_end, window):
        # a window of zero length widens to [a, a + 1]
        message = f"g is not nonnegative and nondecreasing on {window}: ViolatedAt(0)"
        with pytest.raises(NotInFPlusError, match=re.escape(message)):
            require_f_plus("g", parse("t"), -1.0, t_end)


class TestCertifySamples:
    def test_within_slack_passes(self):
        cert = certify_samples([0, 1, 2], [0.0, 5e-11, 0.0], slack=1e-10)
        assert cert.is_monotone

    def test_decrease_reports_index_and_magnitude(self):
        cert = certify_samples([0, 1, 2, 3], [0.0, 1.0, 0.25, 2.0])
        assert cert.violation_index == 2
        assert cert.max_violation == pytest.approx(0.75)

    def test_rows_judged_one_by_one(self):
        # a row fails when negative or below its predecessor; the first
        # failing row is the violation index
        cert = certify_samples([0, 1, 2, 3, 4], [0.0, 1.0, 0.25, 2.0, -1.0])
        assert cert.row_ok == (True, True, False, True, False)
        assert cert.violation_index == 2
        assert not cert.is_monotone

    def test_nan_sample_is_not_certified(self):
        cert = certify_samples([0, 1, 2], [0.0, float("nan"), 1.0])
        assert cert.row_ok[1] is False
        assert cert.violation_index == 1


def tau_derivative(cap, tau, t, lower=0.0, h=1e-5):
    return float(_tau_derivative_grid(cap, np.array([tau]), t, h, lower)[0])


class TestTauDerivative:
    def test_distorted_quadratic(self):
        d = Distortion.from_expression("t^2/2", upper=4.0)
        cap = distorted_capacity(d)
        # d/dtau m(t - tau) = -m'(t - tau) = -(3 - 1) = -2
        assert tau_derivative(cap, 1.0, 3.0) == pytest.approx(-2.0, rel=1e-9)

    def test_lebesgue_is_minus_one(self):
        cap = distorted_capacity(Distortion.from_expression("t", upper=10.0))
        assert tau_derivative(cap, 2.0, 7.0) == pytest.approx(-1.0, rel=1e-9)

    def test_at_upper_endpoint_one_sided(self):
        # m = t + t^2 has m'(0) = 1; tau = t forces the backward difference
        d = Distortion.from_expression("t + t^2", upper=8.0)
        cap = distorted_capacity(d)
        got = tau_derivative(cap, 3.0, 3.0)
        assert got == pytest.approx(-evaluate(d.m_prime, 0.0), abs=1e-4)

    def test_at_lower_endpoint_one_sided(self):
        # tau = lower forces the forward difference: mu is never asked for
        # an interval that starts before lower
        d = Distortion.from_expression("t + t^2", upper=8.0)
        seen = []

        def spy(u, v):
            seen.append(np.min(u))
            return d.evaluate(u, v)

        got = tau_derivative(IntervalCapacity(spy), 1.0, 3.0, lower=1.0)
        assert min(seen) == 1.0
        assert got == pytest.approx(-evaluate(d.m_prime, 2.0), abs=1e-4)

    def test_links_to_symbolic_density(self):
        d = Distortion.from_expression("0.5*t^2 + 0.25*t^3", upper=8.0)
        cap = distorted_capacity(d)
        for tau, t in ((0.5, 3.0), (2.0, 6.5), (1.0, 1.5)):
            want = -evaluate(d.m_prime, t - tau)
            assert tau_derivative(cap, tau, t) == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("a", [0.0, 1000.0, -1000.0])
    def test_default_step_follows_the_interval(self, a):
        # the general route's integrand at tau = a + 0.5, t = a + 1, g = 1:
        # m'(0.5) = 0.5 + 3 * 0.25 wherever a is, since its step follows
        # the interval length t - a, not the position t
        d = Distortion.from_expression("t^2/2 + t^3", upper=2.0)
        p = ChoquetProblem(a, parse("1"), distorted_capacity(d), np.array([a, a + 1.0]))
        got = _general_integrand(p, a, a + 1.0)(np.array([0.5]))
        assert got[0] == pytest.approx(1.25, rel=1e-7)


class TestIntervalCapacity:
    def test_scalar_only_evaluator_is_refused(self):
        # one evaluation path: the array call fails whether or not a scalar
        # call came first, and the scalar call gives the same either way
        def scalar_only(u, v):
            if np.ndim(u) > 0:
                raise TypeError("scalars only")
            return float(v - u)

        for scalar_first in (True, False):
            cap = IntervalCapacity(scalar_only)
            if scalar_first:
                assert cap.evaluate(0.0, 2.0) == 2.0
            with pytest.raises(TypeError, match="scalars only"):
                cap.evaluate(np.array([0.0, 1.0]), np.array([2.0, 5.0]))
            assert cap.evaluate(0.0, 2.0) == 2.0

    def test_wrong_shape_names_both_shapes(self):
        cap = IntervalCapacity(lambda u, v: float(np.sum(v - u)))
        with pytest.raises(TypeError, match=re.escape("shape () for intervals of shape (2,)")):
            cap.evaluate(np.array([0.0, 1.0]), 2.0)

    def test_is_frozen(self):
        cap = IntervalCapacity(lambda u, v: v - u)
        with pytest.raises(AttributeError):
            cap.evaluator = None

    def test_shifted_capacity(self):
        cap = IntervalCapacity(lambda u, v: np.asarray(v) ** 2 - np.asarray(u) ** 2)
        moved = cap.shifted(3.0)
        assert moved.evaluate(0.0, 1.0) == pytest.approx(cap.evaluate(3.0, 4.0))
