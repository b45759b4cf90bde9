"""Property-based checks of the library's structural invariants."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from choqint import (
    ChoquetProblem,
    Distortion,
    DomainError,
    NonDifferentiableError,
    ParseError,
    choquet_convolution,
    differentiate,
    distorted_capacity,
    evaluate,
    parse,
    render,
)
from choqint.capacity import certify_samples
from choqint.choquet import _rebased
from choqint.exprlang import (
    Abs,
    Add,
    Div,
    Exp,
    Expr,
    Ln,
    Mul,
    Neg,
    Num,
    Pow,
    Sqrt,
    Sub,
    Var,
)

EPS = float(np.finfo(float).eps)

# --------------------------------------------------------------------------
# expression strategies

_exponents = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, -1.0])


def expressions(differentiable: bool = False) -> st.SearchStrategy[Expr]:
    # differentiable trees are judged by difference quotients, which a
    # subnormal constant c defeats: c*(t + h) rounds back to c*t, so the
    # quotient of ln(c*t) reads 0 against the right 1/t.  The symbolic
    # derivative at such constants is pinned in test_exprlang instead
    constants = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False,
                          allow_infinity=False, allow_subnormal=not differentiable)
    leaves = st.one_of(constants.map(Num), st.just(Var()))
    unary = [Neg, Sqrt, Exp, Ln] + ([] if differentiable else [Abs])

    def extend(children):
        fns = [st.builds(fn, children) for fn in unary]
        fns += [st.builds(op, children, children) for op in (Add, Sub, Mul, Div)]
        fns.append(st.builds(Pow, children, _exponents.map(Num)))
        return st.one_of(*fns)

    return st.recursive(leaves, extend, max_leaves=10)


@given(st.text(max_size=60))
@settings(max_examples=300, deadline=None)
def test_parser_never_crashes_on_arbitrary_text(src):
    try:
        parse(src)
    except ParseError as exc:
        assert 0 <= exc.offset <= len(src.encode("utf-8"))


@given(st.text(alphabet="t0123456789.+-*/^(), sqrtexplnabsw", max_size=40))
@settings(max_examples=300, deadline=None)
def test_parser_never_crashes_on_grammar_like_text(src):
    try:
        parse(src)
    except ParseError as exc:
        assert 0 <= exc.offset <= len(src.encode("utf-8"))


@given(expressions(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_render_parse_evaluation_equivalence(expr, seed):
    try:
        text = render(expr)
    except RecursionError:  # pragma: no cover - bounded by max_leaves
        assume(False)
    reparsed = parse(text)
    # contract: identical evaluation at random points, including identical
    # domain behavior
    rng = np.random.default_rng(seed)
    for t in rng.uniform(-10.0, 10.0, size=100):
        try:
            want = evaluate(expr, float(t))
        except DomainError:
            with pytest.raises(DomainError):
                evaluate(reparsed, float(t))
            continue
        assert evaluate(reparsed, float(t)) == want


@given(expressions())
@example(Pow(Neg(Num(0.0)), Num(-1.0)))  # a -0.0 power base, left unfolded
@settings(max_examples=300, deadline=None)
def test_render_then_parse_rebuilds_a_parsed_tree(expr):
    e = parse(render(expr))
    assert parse(render(e)) == e


@given(expressions(differentiable=True), st.floats(min_value=-4.0, max_value=4.0,
                                                   allow_nan=False))
@example(Div(Num(4.6075462074363026e-179), Var()), 2.206851411416468e-94)
@example(Add(Div(Var(), Num(1.2867129194646693e-96)),
             Div(Var(), Add(Num(1.2867129194646693e-96), Var()))), 0.0)
@example(Pow(Mul(Add(Var(), Var()), Div(Num(1.0), Var())), Num(0.5)), 3.200291011416349e-119)
@settings(max_examples=200, deadline=None)
def test_symbolic_derivative_matches_central_difference(expr, t):
    h = 1e-5
    # judge only points clear of t = 0 by more than the step: hypothesis
    # draws tiny constants and tiny t, whose poles and removable
    # singularities then sit inside the stencil.  The quotients step over
    # the pole of 4.6e-179/t, or of t/(c + t) at c = 1.3e-96, and the
    # symbolic derivative of ((t + t)*(1/t))^0.5 cancels 2/t against
    # 2t/t^2 to rounding noise
    assume(abs(t) > h)
    try:
        d = differentiate(expr)
        symbolic = evaluate(d, t)
        at_t = evaluate(expr, t)
        fwd = (evaluate(expr, t + h) - at_t) / h
        bwd = (at_t - evaluate(expr, t - h)) / h
        wide = 0.5 * (fwd + bwd)
        narrow = (evaluate(expr, t + h / 2.0) - evaluate(expr, t - h / 2.0)) / h
    except (DomainError, NonDifferentiableError):
        assume(False)
    # only judge points where the difference quotient is trustworthy: the
    # function value must not dwarf the step (cancellation), the quotient
    # must have converged, and the one-sided quotients must agree (a kink,
    # e.g. sqrt((t - 1)*(t - 1)) near 1, fools the central difference while the
    # symbolic derivative is right)
    assume(abs(at_t) <= 1e5 * (1.0 + abs(wide)))
    assume(abs(wide - narrow) <= 1e-5 * (1.0 + abs(narrow)))
    assume(abs(fwd - bwd) <= 0.1 * (1.0 + abs(wide)))
    assert abs(symbolic - wide) <= 1e-4 * (1.0 + abs(symbolic))


def shifted_occurrences(expr: Expr, shifts) -> Expr:
    """``expr`` with its k-th occurrence of t replaced by t + shifts[k],
    built without folding."""
    shifts = iter(shifts)

    def walk(node):
        if isinstance(node, Var):
            return Add(Var(), Num(next(shifts)))
        if isinstance(node, Num):
            return node
        return type(node)(*(walk(getattr(node, f.name)) for f in fields(node)))

    return walk(expr)


def occurrences_of_t(expr: Expr) -> int:
    if isinstance(expr, (Var, Num)):
        return int(isinstance(expr, Var))
    return sum(occurrences_of_t(getattr(expr, f.name)) for f in fields(expr))


def value_or_none(expr: Expr, t: float):
    try:
        return evaluate(expr, t)
    except DomainError:
        return None


# integer origins, where a sum a + c is often exact and the rebase folds it
@given(expressions(), st.one_of(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                                st.integers(-1000, 1000).map(float)),
       st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
@example(Sub(Var(), Num(0.3)), 0.1, 0.7)  # 0.5 rebased, 0.49999999999999994 translated
@settings(max_examples=300, deadline=None)
def test_rebased_expression_evaluates_as_the_translated_one(expr, a, u):
    # the one rebase h(r) -> h(r + a) behind shift_to_origin and the solvers,
    # within rounding: the rebase folds constants added to r + a where they
    # add exactly, so each such sum is rounded once, not at a + u and again.
    # Rounding is measured by moving each occurrence of t in h by a few
    # ulps on its own, in several sign patterns
    h = parse(render(expr))
    x = a + u
    want = value_or_none(h, x)
    occurrences = occurrences_of_t(h)
    step = 2.0 ** (math.frexp(abs(a) + u + 32.0)[1] - 50)
    patterns = np.random.default_rng(0).choice([-1.0, 1.0], size=(8, occurrences))
    nearby = [value_or_none(shifted_occurrences(h, step * signs), x) for signs in patterns]
    if want is None or None in nearby:
        return  # h leaves its domain within rounding of a + u
    got = evaluate(_rebased(h, a), u)
    spread = max(abs(value - want) for value in nearby)
    assert abs(got - want) <= 4.0 * spread + 8.0 * EPS * (1.0 + abs(want))


_dyadic = st.integers(0, 2 ** 20).map(lambda k: k / 256.0)


@given(_dyadic, _dyadic, _dyadic)
@settings(max_examples=200, deadline=None)
def test_translation_invariance_is_exact_on_dyadics(u, length, shift):
    # dyadic rationals shift without float rounding, so the distorted
    # capacity must be bit-for-bit translation invariant
    d = Distortion.from_expression("0.25*t^2 + 0.5*t", upper=2.0 ** 13)
    cap = distorted_capacity(d)
    v = u + length
    assert cap.evaluate(u + shift, v + shift) == cap.evaluate(u, v)


@given(st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
       st.integers(0, 2 ** 16))
@settings(max_examples=25, deadline=None)
def test_positive_homogeneity_of_the_integral(scale, seed):
    rng = np.random.default_rng(seed)
    a = float(rng.uniform(-2.0, 2.0))
    t = a + float(rng.uniform(0.5, 3.0))
    g_src = f"sqrt(t - ({a!r})) + {float(rng.uniform(0, 2))!r}"
    d = Distortion.from_expression("t^2/2 + 0.3*t", upper=t - a + 1.0)
    base = ChoquetProblem(a, parse(g_src), d, np.array([a, t]))
    scaled = ChoquetProblem(a, parse(f"({scale!r})*({g_src})"), d, np.array([a, t]))
    v_base = choquet_convolution(base)[-1]
    v_scaled = choquet_convolution(scaled)[-1]
    assert v_scaled == pytest.approx(scale * v_base, rel=1e-9, abs=1e-12)


@given(st.lists(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False), max_size=30))
@settings(max_examples=200, deadline=None)
def test_max_violation_is_worst_negativity_or_drop(values):
    # the solvers' decisive test reads max_violation in place of separate
    # scans for the largest drop and the most negative sample
    v = np.array(values, dtype=float)
    drops = v[:-1] - v[1:]
    want = max(0.0, -float(v.min(initial=0.0)), float(drops.max(initial=0.0)))
    assert certify_samples(np.arange(v.size), v).max_violation == want
