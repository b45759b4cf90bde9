import dataclasses
import math
import time

import numpy as np
import pytest

from choqint import (
    DomainError,
    NonDifferentiableError,
    ParseError,
    differentiate,
    evaluate,
    parse,
    render,
    substitute,
)
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
    _tokenize,
    build,
)


@pytest.mark.parametrize("src,t,expected", [
    ("sqrt(t - 1)", 5.0, 2.0),
    ("t^2/2", 3.0, 4.5),
    ("2*t + t^2", 3.0, 15.0),
    ("t^2/2", 2.0, 2.0),
    ("sqrt(t)", 0.0, 0.0),
    ("pow(t, 1.5)", 4.0, 8.0),
    ("2^3^2", 0.0, 512.0),          # power is right-associative
    ("-t^2", 2.0, -4.0),            # power binds tighter than unary minus
    ("2^-1", 0.0, 0.5),
    ("-2*t", 3.0, -6.0),
    ("1/(t - 1)^1.5", 2.0, 1.0),
    ("exp(0)", 7.0, 1.0),
    ("ln(exp(t))", 2.5, 2.5),
    ("abs(t - 4)", 1.0, 3.0),
    ("pow(0, 0)", 0.0, 1.0),
    ("1.5e1 + t", 1.0, 16.0),
])
def test_eval_examples(src, t, expected):
    assert evaluate(parse(src), t) == pytest.approx(expected, rel=1e-15)


def test_eval_vectorized_preserves_shape():
    e = parse("t^2 + 1")
    out = evaluate(e, np.array([[0.0, 1.0], [2.0, 3.0]]))
    assert out.shape == (2, 2)
    assert np.allclose(out, [[1.0, 2.0], [5.0, 10.0]])


def test_eval_scalar_returns_float():
    assert isinstance(evaluate(parse("t"), 2), float)


@pytest.mark.parametrize("src,t", [
    ("ln(t)", 0.0),
    ("sqrt(t)", -1.0),
    ("1/t", 0.0),
    ("pow(t, -1)", 0.0),
    ("pow(t - 5, 0.5)", 1.0),
    ("exp(t)", 1000.0),  # overflow is an error, not inf
])
def test_domain_errors(src, t):
    with pytest.raises(DomainError):
        evaluate(parse(src), t)


def test_domain_error_reports_offending_point():
    e = parse("sqrt(t)")
    with pytest.raises(DomainError) as err:
        evaluate(e, np.array([4.0, -2.0, 9.0]))
    assert err.value.point == -2.0
    assert "sqrt" in err.value.subexpression


def test_domain_error_message_keeps_a_short_subexpression_whole():
    with pytest.raises(DomainError) as err:
        evaluate(parse("sqrt(40 - t)"), 64.0)
    assert str(err.value) == "sqrt of a negative in 'sqrt(40.0 - t)' at t = 64.0"


def test_domain_error_message_cuts_a_long_subexpression():
    # the derivative of 198 nested powers renders to about 119,000 characters
    d = differentiate(parse("(" * 198 + "t" + ")^1.5" * 198))
    with pytest.raises(DomainError) as err:
        evaluate(d, 1.1)
    message = str(err.value)
    assert len(message) < 400
    assert len(err.value.subexpression) > 100_000
    assert f"'{err.value.subexpression[:200]}...' at t = " in message


@pytest.mark.parametrize("src", [
    "",
    "(",
    "2 +",
    "sqrt(",
    "sqrt(t))",
    "foo(t)",
    "t 5",
    "1e99999",
    "pow(t)",
    "sqrt(t, t)",
    "x",
    "1..2",
    "t @ 2",
])
def test_parse_errors(src):
    with pytest.raises(ParseError) as err:
        parse(src)
    assert 0 <= err.value.offset <= len(src.encode("utf-8"))


def test_parse_error_is_deterministic():
    messages = {str(exc) for exc in
                (pytest.raises(ParseError, parse, "sqrt(").value for _ in range(3))}
    assert len(messages) == 1


def test_parse_error_offset_points_at_problem():
    with pytest.raises(ParseError) as err:
        parse("2 + @")
    assert err.value.offset == 4


def test_deep_nesting_is_rejected_not_crashed():
    with pytest.raises(ParseError):
        parse("(" * 5000 + "t" + ")" * 5000)
    with pytest.raises(ParseError):
        parse("-" * 5000 + "t")


@pytest.mark.parametrize("op", ["+", "-", "*", "/", "^"])
def test_flat_operator_chains_count_toward_the_limit(op):
    # a chain is parsed by a loop, not by recursion, but it builds a tree as
    # deep as it is long: each chained operator counts one level
    parse(op.join(["t"] * 100))
    with pytest.raises(ParseError, match="nesting deeper than 200 levels"):
        parse(op.join(["t"] * 3000))


def _deepest(shape):
    """``shape(n)`` at the largest n that parses, and n."""
    for n in range(1, 1000):
        try:
            parse(shape(n + 1))
        except ParseError:
            return shape(n), n
    raise AssertionError("no depth limit below 1000 levels")


@pytest.mark.parametrize("shape,depth", [
    (lambda n: "/".join(["t"] * n), 199),
    (lambda n: "t/(" * n + "t" + ")" * n, 66),
    (lambda n: "sqrt(" * n + "t" + ")" * n, 199),
    (lambda n: "-" * n + "t", 199),
], ids=["division-chain", "nested-division", "nested-sqrt", "nested-minus"])
def test_the_deepest_accepted_trees_evaluate_and_differentiate(shape, depth):
    src, n = _deepest(shape)
    assert n == depth
    e = parse(src)
    assert math.isfinite(evaluate(e, 1.5))
    d = differentiate(e)
    assert math.isfinite(evaluate(d, 1.5))
    assert parse(render(e)) == e


def test_parse_error_offsets_are_byte_offsets():
    with pytest.raises(ParseError) as err:
        parse("t + é")
    assert err.value.offset == 4  # one byte per ASCII char before the é
    with pytest.raises(ParseError) as err:
        parse("é + t")
    assert err.value.offset == 0


def test_token_offsets_count_the_utf8_bytes_before_them():
    # U+3000 and U+00A0 are whitespace, of three and two bytes
    src = "2.5*t\u3000+ \u00a0sqrt(t)\t- pow(t, 1e-3)\u3000"
    tokens = _tokenize(src)
    assert [tok.text for tok in tokens] == [
        "2.5", "*", "t", "+", "sqrt", "(", "t", ")", "-", "pow", "(", "t", ",", "1e-3", ")", ""]
    i, want = 0, []
    for tok in tokens[:-1]:
        i = src.index(tok.text, i)
        want.append(len(src[:i].encode("utf-8")))
        i += len(tok.text)
    assert [tok.offset for tok in tokens] == want + [len(src.encode("utf-8"))]
    bad = src + "é"
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert err.value.offset == len(src.encode("utf-8"))


def test_a_large_source_tokenizes_in_linear_time():
    # 2^19 tokens, 512 KiB: about 1 s on a 2-vCPU x86-64 host, against 16 s
    # when each token's offset re-encoded the source before it
    src = "t+" * 2 ** 18 + "$"
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse(src)
    assert time.perf_counter() - start < 8.0
    assert err.value.offset == 2 ** 19


def test_large_exponent_literal():
    assert evaluate(parse("1e300 + t"), 0.0) == 1e300


@pytest.mark.parametrize("src,t,expected", [
    ("t^2/2", 3.0, 3.0),       # power rule
    ("sqrt(t)", 4.0, 0.25),
    ("exp(2*t)", 0.0, 2.0),    # chain rule
    ("pow(t, 2.5)", 1.0, 2.5),
    ("2^t", 0.0, math.log(2.0)),
    ("t*t + 1/t", 2.0, 4.0 - 0.25),
    ("ln(t)", 2.0, 0.5),
    ("(t + 1)/(t + 2)", 0.0, 0.25),  # quotient rule
])
def test_differentiate_examples(src, t, expected):
    d = differentiate(parse(src))
    assert evaluate(d, t) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("src", ["abs(t)", "pow(t, t)", "t^t"])
def test_differentiate_rejects(src):
    with pytest.raises(NonDifferentiableError):
        differentiate(parse(src))


@pytest.mark.parametrize("src", [
    "sqrt(t - 1)",
    "t^2/2",
    "2*t + t^2",
    "-t^2 + 2^-1",
    "(t + 1)*(t - 1)/(t^2 + 1)",
    "pow(t, 2.5) - exp(-t)",
    "1/(t - 1)^1.5",
    "--t",
])
def test_render_round_trip(src):
    e1 = parse(src)
    e2 = parse(render(e1))
    assert e2 == e1  # folding is idempotent, so the round trip is structural
    for t in np.linspace(2.0, 5.0, 7):
        assert evaluate(e1, t) == evaluate(e2, t)


def test_render_parenthesizes_power_base():
    e = parse("(t^2)^3")
    assert evaluate(parse(render(e)), 2.0) == evaluate(e, 2.0) == 64.0


def test_negative_zero_power_base_keeps_its_parentheses():
    # -0.0 is not below 0, but it is written with a minus: bare, -0.0^t
    # would read back as -(0.0^t), which is -1 at t = 0
    e = parse("pow(-0, t)")
    assert render(e) == "(-0.0)^t"
    assert parse(render(e)) == e
    assert evaluate(parse(render(e)), 0.0) == evaluate(e, 0.0) == 1.0


# each pair sits at a precedence or associativity boundary; folded constants
# are part of the tree the parser builds
@pytest.mark.parametrize("src,tree", [
    ("-t^2", Neg(Pow(Var(), Num(2.0)))),
    ("-2*t", Mul(Num(-2.0), Var())),
    ("2*-t", Mul(Num(2.0), Neg(Var()))),
    ("2^-1", Num(0.5)),
    ("t^-t", Pow(Var(), Neg(Var()))),
    ("2^3^2", Num(512.0)),
    ("t^t^2", Pow(Var(), Pow(Var(), Num(2.0)))),
    ("t-1-t", Sub(Sub(Var(), Num(1.0)), Var())),
    ("t-(1-t)", Sub(Var(), Sub(Num(1.0), Var()))),
    ("t-t+t", Add(Sub(Var(), Var()), Var())),
    ("t*t/t", Div(Mul(Var(), Var()), Var())),
    ("t*(t*t)", Mul(Var(), Mul(Var(), Var()))),
    ("t/2*t", Mul(Div(Var(), Num(2.0)), Var())),
    ("t/(2*t)", Div(Var(), Mul(Num(2.0), Var()))),
    ("t+t*t", Add(Var(), Mul(Var(), Var()))),
    ("(-t)^2", Pow(Neg(Var()), Num(2.0))),
    ("t^2^-1", Pow(Var(), Num(0.5))),
    ("-t*-t", Mul(Neg(Var()), Neg(Var()))),
    ("pow(t, 2)^3", Pow(Pow(Var(), Num(2.0)), Num(3.0))),
    ("sqrt(t)^2", Pow(Sqrt(Var()), Num(2.0))),
])
def test_parse_builds_the_tree_of_each_boundary(src, tree):
    assert parse(src) == tree
    assert parse(render(tree)) == tree


def test_constant_folding():
    assert parse("2*3 + 1") == Num(7.0)
    assert parse("sqrt(4)") == Num(2.0)
    # folding never hides a domain error of a non-constant subtree
    with pytest.raises(DomainError):
        evaluate(parse("0*ln(t)"), 0.0)


@pytest.mark.parametrize("src", ["t + 0", "0 + t", "t - 0", "1*t", "t*1", "t/1"])
def test_identity_operands_fold_away(src):
    assert parse(src) == Var()


@pytest.mark.parametrize("src,node", [
    ("0 - t", Sub(Num(0.0), Var())),
    ("1/t", Div(Num(1.0), Var())),
    ("t^1", Pow(Var(), Num(1.0))),   # a power rejects negative bases, t does not
    ("0*t", Mul(Num(0.0), Var())),   # 0*ln(t) must still fail at t = 0
])
def test_non_identity_operands_keep_their_node(src, node):
    assert parse(src) == node


@pytest.mark.parametrize("src", ["1/0", "ln(-1)", "sqrt(-1)", "exp(1000)"])
def test_invalid_constants_stay_unfolded(src):
    e = parse(src)
    assert not isinstance(e, Num)
    with pytest.raises(DomainError):
        evaluate(e, 0.0)


@pytest.mark.parametrize("src", ["1/0 + t", "t*sqrt(-1)", "ln(0) - t"])
def test_unfolded_invalid_constant_names_the_first_point(src):
    with pytest.raises(DomainError) as err:
        evaluate(parse(src), np.array([3.0, 1.0, 2.0]))
    assert err.value.point == 3.0


@pytest.mark.parametrize("exponent", [0.5, 2.0, -1.0, 1.5])
def test_constant_exponent_keeps_the_bits_of_a_full_exponent_array(exponent):
    # np.power on a broadcast scalar exponent may take another SIMD loop,
    # which rounds some results differently
    b = np.random.default_rng(3).uniform(0.01, 100.0, 10_003)
    got = evaluate(Pow(Var(), Num(exponent)), b)
    assert np.array_equal(got, b ** np.full_like(b, exponent))


def test_zero_base_is_checked_where_the_exponent_is_negative():
    with pytest.raises(DomainError, match="zero raised") as err:
        evaluate(parse("pow(t, t - 1)"), np.array([2.0, 0.0, 0.5]))
    assert err.value.point == 0.0
    # 0^0 and 0^1: a zero base with a nonnegative exponent is fine
    assert evaluate(parse("pow(t, t)"), 0.0) == 1.0
    assert evaluate(parse("pow(t, 1 - t)"), np.array([0.0, 1.0])).tolist() == [0.0, 1.0]


@pytest.mark.parametrize("t", [0.5, np.linspace(0.0, 1.0, 5), np.ones((2, 3))])
def test_constant_expression_is_a_fresh_writable_array(t):
    e = parse("2.5")
    first, second = evaluate(e, t), evaluate(e, t)
    if np.ndim(t) == 0:
        assert isinstance(first, float) and first == 2.5
        return
    assert first.shape == np.shape(t) and first.flags.writeable
    assert not np.shares_memory(first, second) and not np.shares_memory(first, t)
    first[...] = 0.0
    assert np.all(evaluate(e, t) == 2.5)


@pytest.mark.parametrize("src", ["t", "t*1"])
def test_the_variable_evaluates_to_a_fresh_array(src):
    # t*1 folds to t itself; writing into the result must leave t alone
    t = np.linspace(0.0, 1.0, 5)
    got = evaluate(parse(src), t)
    assert np.array_equal(got, t) and not np.shares_memory(got, t)
    got[0] = 5.0
    assert t[0] == 0.0


def test_quotient_rule_keeps_tiny_operands_apart():
    # (1/c)*((k t)/(c/t)) = (k/c^2) t^2; the products k*c and c*c of the
    # textbook form (l'r - l r')/r^2 underflow to 0
    c, k = 2.8e-146, 7.8e-196
    d = differentiate(parse(f"(1/{c!r})*(({k!r}*t)/({c!r}/t))"))
    assert evaluate(d, 1.0) == pytest.approx(2.0 * k / c ** 2, rel=1e-12)


def test_derivative_at_a_subnormal_constant_is_exact():
    # the difference quotients of ln(c*t) read 0 here, since c*(t +- h)
    # rounds back to c*t; the symbolic derivative is 1/t
    d = differentiate(Ln(Mul(Num(5e-324), Var())))
    for t in (1.0, 2.0, 3.0, 10.0):
        assert evaluate(d, t) == 1.0 / t


def test_substitute_shifts_variable():
    g = parse("sqrt(t - 1)")
    shifted = substitute(g, build(Add, Var(), Num(1.0)))
    for r in (0.0, 0.25, 4.0):
        assert evaluate(shifted, r) == pytest.approx(math.sqrt(r), abs=1e-15)


def test_substitute_identity():
    g = parse("t^2 + sqrt(t)")
    assert substitute(g, build(Add, Var(), Num(0.0))) == g


def test_substitute_variable_for_itself_rebuilds_every_node():
    e = parse("-t + (t - 2)*t/(t + 1) + pow(t, 2.5) + sqrt(t) + exp(t) + ln(t) + abs(t)")
    kinds = {type(node) for node in _nodes(e)}
    assert kinds == {Var, Num, Neg, Add, Sub, Mul, Div, Pow, Sqrt, Exp, Ln, Abs}
    assert substitute(e, Var()) == e


def _nodes(e):
    yield e
    for field in dataclasses.fields(e):
        child = getattr(e, field.name)
        if isinstance(child, Expr):
            yield from _nodes(child)


def test_concurrent_evaluation_is_reentrant():
    from concurrent.futures import ThreadPoolExecutor

    e = parse("sqrt(t)*exp(-t) + t^2/(1 + t)")
    pts = np.linspace(0.0, 5.0, 2001)
    want = evaluate(e, pts)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: evaluate(e, pts), range(32)))
    for got in results:
        assert np.array_equal(got, want)
