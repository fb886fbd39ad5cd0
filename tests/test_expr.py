import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symflow.expr import (
    ExprSyntaxError,
    NonFiniteError,
    UnknownIdentifierError,
    compile_evaluator,
    parse,
)

VARS = ("x", "y", "z")


def fd_partial(expr, var, point, h=1e-5):
    """Independent derivative oracle: central finite difference."""
    hi = dict(point)
    lo = dict(point)
    hi[var] = point[var] + h
    lo[var] = point[var] - h
    return (expr.evaluate(hi) - expr.evaluate(lo)) / (2 * h)


def cs_partial(expr, var, point, h=1e-30):
    """Independent derivative oracle without subtraction: the complex step
    Im f(x + ih) / h through the compiled evaluator (Squire & Trapp, SIAM Review 40, 1998)."""
    args = [np.array([point[v] + (1j * h if v == var else 0.0)]) for v in expr.variables]
    return compile_evaluator(expr)(*args)[0].imag / h


def test_parse_structure():
    e = parse("1-2*x^2", VARS)
    assert str(e) == "1.0-2.0*x^2"
    assert e.evaluate({"x": 0.5, "y": 0.0, "z": 0.0}) == 0.5


def test_precedence_and_associativity():
    e = parse("2-3-4", VARS)
    assert e.evaluate({"x": 0, "y": 0, "z": 0}) == -5.0
    e = parse("2*3^2", VARS)
    assert e.evaluate({"x": 0, "y": 0, "z": 0}) == 18.0
    # unary minus binds looser than ^
    e = parse("-x^2", VARS)
    assert e.evaluate({"x": 3.0, "y": 0, "z": 0}) == -9.0
    e = parse("x^2^3", VARS)  # left-assoc: (x^2)^3
    assert e.evaluate({"x": 2.0, "y": 0, "z": 0}) == 64.0
    e = parse("6/3/2", VARS)
    assert e.evaluate({"x": 0, "y": 0, "z": 0}) == 1.0


def test_pi_keyword():
    e = parse("sin(2*pi*x)", VARS)
    assert e.evaluate({"x": 0.25, "y": 0, "z": 0}) == pytest.approx(1.0, abs=1e-15)


def test_syntax_error_offsets():
    with pytest.raises(ExprSyntaxError) as err:
        parse("1 + * 2", VARS)
    assert err.value.offset == 4
    with pytest.raises(ExprSyntaxError):
        parse("sin x", VARS)
    with pytest.raises(ExprSyntaxError):
        parse("x^y", VARS)  # exponent must be an integer literal
    with pytest.raises(ExprSyntaxError):
        parse("x^2.5", VARS)
    with pytest.raises(ExprSyntaxError):
        parse("(1+x", VARS)
    for deep in ("(" * 200 + "x" + ")" * 200, "-" * 1200 + "x"):  # nested past the recursion limit
        with pytest.raises(ExprSyntaxError, match=r"^expression nested too deeply \(offset \d+\)$") as err:
            parse(deep, VARS)
        assert 0 < err.value.offset < len(deep)
    for shallow in ("(" * 100 + "x" + ")" * 100, "-" * 500 + "x"):
        assert parse(shallow, VARS).evaluate({"x": 0.5, "y": 0, "z": 0}) == 0.5


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as err:
        parse("x + qq", VARS)
    assert err.value.name == "qq"
    assert err.value.offset == 4


def test_nonfinite_flagged_at_eval():
    e = parse("1/x", VARS)
    with pytest.raises(NonFiniteError):
        e.evaluate({"x": 0.0, "y": 0, "z": 0})
    e = parse("exp(x)", VARS)
    with pytest.raises(NonFiniteError):
        e.evaluate({"x": 1e9, "y": 0, "z": 0})


def test_eval_vectorised_matches_scalar():
    e = parse("sin(2*pi*x)*y + z^3", VARS)
    pts = np.array([[0.1, 0.2, 0.3], [0.7, -1.0, 0.5]])
    vec = e.eval_at(pts)
    for row, expected in zip(pts, vec):
        point = dict(zip(VARS, row))
        assert e.evaluate(point) == pytest.approx(expected, rel=1e-15)


FIXED_CASES = [
    "1-2*x^2",
    "sin(2*pi*x)",
    "cos(x)*sin(y)",
    "exp(x/4)*z",
    "x^3-3*x*y^2",
    "(x+y)/(2+z^2)",
    "x*y*z",
    "sin(cos(x)+y)-exp(z/8)",
    "2.5*x^2*y-0.5*z^4",
    "x/(1+y^2)+y/(1+z^2)",
]


@pytest.mark.parametrize("source", FIXED_CASES)
def test_compiled_matches_interpreted(source):
    """Bitwise, on each case and its first and second partials, and on a
    (partial, its partial) pair compiled together as ``recognize_flow`` does."""
    e = parse(source, VARS)
    pts = np.random.default_rng(11).uniform(-0.9, 0.9, (40, 3))
    firsts = [e.diff(v) for v in VARS]
    for d in [e, *firsts, *(d.diff(w) for d in firsts for w in VARS)]:
        got = compile_evaluator(d)(*pts.T)
        assert got.shape == (40,)
        assert np.array_equal(got, d.eval_at(pts)), str(d)
    for v, d in zip(VARS, firsts):
        rate, curvature = compile_evaluator(d, d.diff(v))(*pts.T)
        assert np.array_equal(rate, d.eval_at(pts))
        assert np.array_equal(curvature, d.diff(v).eval_at(pts))


def test_compiled_non_finite_constants_are_numpy_names():
    """A constant that is infinite or NaN compiles to ``np.inf``, ``-np.inf`` or
    ``np.nan``; the callable returns what numpy gives and checks nothing."""
    ones = np.ones(2)
    nan = parse("x*1e999 + x*-1e999 + y", ("x", "y")).diff("x")  # folds to the constant NaN
    assert str(nan) == "nan"
    for expr, want in [
        (parse("x*1e999", ("x", "y")), np.inf),
        (parse("y - x*-1e999", ("x", "y")), np.inf),
        (parse("x*-1e999", ("x", "y")), -np.inf),
        (nan, np.nan),
    ]:
        np.testing.assert_array_equal(compile_evaluator(expr)(ones, ones), np.full(2, want))


def test_long_sums_compile_and_print():
    """A compiled evaluator is straight-line code and printing walks a loop,
    so neither meets a nesting limit on a long sum."""
    e = parse(" + ".join(f"0.001*sin({k}*x)*y - z/{k}" for k in range(1, 301)), VARS)
    pts = np.random.default_rng(3).uniform(-0.9, 0.9, (25, 3))
    assert np.array_equal(compile_evaluator(e)(*pts.T), e.eval_at(pts))
    printed = str(parse(" + ".join(f"{k}*x^{k % 5}" for k in range(1, 601)), VARS))
    assert str(parse(printed, VARS)) == printed


def test_compiled_constant_broadcasts():
    fn = compile_evaluator(parse("2", ("x", "y")))
    out = fn(np.zeros(7), np.ones(7))
    assert out.shape == (7,)
    assert np.all(out == 2.0)


@pytest.mark.parametrize("source", FIXED_CASES)
def test_diff_against_finite_differences(source):
    e = parse(source, VARS)
    rng = np.random.default_rng(hash(source) % 2**32)
    for _ in range(20):
        point = dict(zip(VARS, rng.uniform(-0.9, 0.9, 3)))
        for var in VARS:
            d = e.diff(var)
            got = d.evaluate(point)
            want = fd_partial(e, var, point)
            assert abs(got - want) <= 1e-6 * (1 + abs(got))


def test_diff_against_sympy():
    import sympy

    sx, sy, sz = sympy.symbols("x y z")
    for source in FIXED_CASES:
        e = parse(source, VARS)
        s = sympy.sympify(source.replace("^", "**"), locals={"x": sx, "y": sy, "z": sz})
        for var, sym in zip(VARS, (sx, sy, sz)):
            d = e.diff(var)
            ds = sympy.lambdify((sx, sy, sz), sympy.diff(s, sym), "numpy")
            rng = np.random.default_rng(7)
            pts = rng.uniform(-0.9, 0.9, (12, 3))
            got = d.eval_at(pts)
            want = np.array([ds(*row) for row in pts], dtype=float)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_diff_constant_folding():
    e = parse("2*x+7", VARS)
    assert str(e.diff("x")) == "2.0"
    assert str(e.diff("y")) == "0.0"
    e = parse("x^2", VARS)
    assert str(e.diff("x")) == "2.0*x"


def test_diff_keeps_a_power_that_does_not_fold():
    """(1e-200)^(-2) overflows and 0^(-2) divides by zero: such a power stays a node."""
    assert str(parse("x + (1e-200)^(-1)", VARS).diff("x")) == "1.0"
    assert str(parse("x + 0^(-1)", VARS).diff("x")) == "1.0"
    d = parse("(1e-200)^(-1)*x", VARS).diff("x")
    assert str(d) == "1e-200^(-1)"
    assert d.evaluate({"x": 0.5, "y": 0.0, "z": 0.0}) == 1e200


def test_derivative_of_constant_is_zero_everywhere():
    e = parse("pi^2/4", VARS)
    d = e.diff("x")
    pts = np.random.default_rng(0).uniform(-2, 2, (50, 3))
    assert np.all(d.eval_at(pts) == 0.0)


# --- random expression generation for the round-trip property ---------------

_leaf = st.one_of(
    st.sampled_from([f"{v}" for v in VARS]),
    st.floats(min_value=-3, max_value=3, allow_nan=False).map(lambda v: repr(round(v, 3))),
    st.just("pi"),
)


def _combine(children):
    a, b = children
    op = st.sampled_from(["+", "-", "*"])
    fn = st.sampled_from(["sin", "cos"])
    k = st.integers(min_value=2, max_value=4)
    return st.one_of(
        op.map(lambda o: f"({a}{o}{b})"),
        fn.map(lambda f: f"{f}({a})"),
        k.map(lambda n: f"({a})^{n}"),
    )


_expr_text = st.recursive(_leaf, lambda inner: st.tuples(inner, inner).flatmap(_combine), max_leaves=12)


@given(_expr_text)
@settings(max_examples=150, deadline=None)
def test_print_parse_round_trip(source):
    e = parse(source, VARS)
    printed = str(e)
    reparsed = parse(printed, VARS)
    assert reparsed.root == e.root
    assert str(reparsed) == printed


@given(_expr_text, _expr_text)
@settings(max_examples=60, deadline=None)
def test_diff_linearity(src_a, src_b):
    a = parse(src_a, VARS)
    b = parse(src_b, VARS)
    combo = a + b
    point = {"x": 0.37, "y": -0.21, "z": 0.55}
    lhs = combo.diff("x").evaluate(point)
    rhs = a.diff("x").evaluate(point) + b.diff("x").evaluate(point)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@given(_expr_text)
@example("(x+(((pi)^4)^2)^2)")  # a central difference cancels on the constant: 0.99987 against 1.0
@settings(max_examples=80, deadline=None)
def test_random_diff_against_fd(source):
    # The reference is a complex step, a finite difference along the imaginary axis
    # that does not cancel on large constants.
    e = parse(source, VARS)
    point = {"x": 0.31, "y": 0.17, "z": -0.43}
    for var in VARS:
        got = e.diff(var).evaluate(point)
        assert abs(got - cs_partial(e, var, point)) <= 1e-12 * (1 + abs(got))


def test_immutability():
    e = parse("x+y", VARS)
    with pytest.raises(AttributeError):
        e.root.op = "sub"
