import itertools
import math
import pickle
import random
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symflow.expr import (
    _FUNCTIONS,
    Const,
    ExprSyntaxError,
    Node,
    NonFiniteError,
    UnknownIdentifierError,
    Var,
    _eval,
    _parse,
    compile_evaluator,
    parse,
)
from symflow.manifold import build_sphere, sample

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
    for deep in ("(" * 10_000 + "x" + ")" * 10_000, "-" * 10_000 + "x"):  # parsing is a loop: any nesting parses
        assert parse(deep, VARS).evaluate({"x": 0.5, "y": 0, "z": 0}) == 0.5
    for shallow in ("(" * 100 + "x" + ")" * 100, "-" * 500 + "x"):
        assert parse(shallow, VARS).evaluate({"x": 0.5, "y": 0, "z": 0}) == 0.5


# The tokenizer and the recursive-descent parser that the one-regex tokenizer and the
# operator-precedence loop replaced, verbatim: the reference for the differential test below.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", len(source) - len(stripped))
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str, variables: tuple[str, ...]):
        self.tokens = _tokenize(source)
        self.variables = variables
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, offset = self.next()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}", offset)

    def parse(self) -> Node:
        try:
            node = self.sum()
        except RecursionError:  # the descent takes a few frames per parenthesis or unary minus
            raise ExprSyntaxError("expression nested too deeply", self.peek()[2]) from None
        kind, text, offset = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected token {text!r}", offset)
        return node

    def sum(self) -> Node:
        return self.infix(self.term, {"+": "add", "-": "sub"})

    def term(self) -> Node:
        return self.infix(self.unary, {"*": "mul", "/": "div"})

    def infix(self, operand, ops: dict[str, str]) -> Node:
        """A left-associative chain of ``operand``s joined by the operators ``ops``."""
        node = operand()
        while True:
            kind, text, _ = self.peek()
            if kind != "op" or text not in ops:
                return node
            self.next()
            node = Node(ops[text], (node, operand()))

    def unary(self) -> Node:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.next()
            operand = self.unary()
            if operand.op == "const":
                return Const(-operand.value)
            return Node("neg", (operand,))
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == "^":
                self.next()
                node = Node("pow", (node,), self.exponent())
            else:
                return node

    def exponent(self) -> int:
        sign = 1
        kind, text, offset = self.peek()
        parens = kind == "op" and text == "("
        if parens:
            self.next()
            kind, text, offset = self.peek()
        if kind == "op" and text == "-":
            self.next()
            sign = -1
            kind, text, offset = self.peek()
        if kind != "num" or any(c in text for c in ".eE"):
            raise ExprSyntaxError("exponent must be an integer literal", offset)
        self.next()
        if parens:
            self.expect_op(")")
        return sign * int(text)

    def atom(self) -> Node:
        kind, text, offset = self.next()
        if kind == "num":
            return Const(float(text))
        if kind == "name":
            if text == "pi":
                return Const(math.pi)
            if text in _FUNCTIONS:
                self.expect_op("(")
                arg = self.sum()
                self.expect_op(")")
                return Node(text, (arg,))
            if text in self.variables:
                return Var(text)
            raise UnknownIdentifierError(text, offset)
        if kind == "op" and text == "(":
            node = self.sum()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected token {text!r}" if text else "unexpected end of input", offset)


def _corpus(n: int, seed: int = 20240611):
    """``n`` short sources: random well-formed expressions, each third one edited at one
    place and each third one a random token string, so many are malformed."""
    rng = random.Random(seed)
    atoms = ["x", "y", "z", "pi", "2", "0.5", ".25", "3e2", "1.5E-3", "10", "0"]
    joins = ["+", " + ", "-", " - ", "*", "/", " / "]
    exponents = ["2", "-1", "(3)", "(-2)", "0", "2^3", " 2"]
    pieces = [" ", "\t", "\u00a0", "(", ")", "-", "+", "*", "/", "^", "x", "2", "2.5", "qq", "sin", "exp(", "pi", "e", ".", "$", "1e"]

    def expression(depth):
        r = rng.random()
        if depth <= 0 or r < 0.25:
            return rng.choice(atoms)
        if r < 0.5:
            return expression(depth - 1) + rng.choice(joins) + expression(depth - 1)
        if r < 0.6:
            return "-" + expression(depth - 1)
        if r < 0.7:
            return "(" + expression(depth - 1) + ")"
        if r < 0.8:
            return rng.choice(_FUNCTIONS) + "(" + expression(depth - 1) + ")"
        return expression(depth - 1) + "^" + rng.choice(exponents)

    for k in range(n):
        source = expression(rng.randint(0, 5))
        if k % 3 == 1:  # delete, insert or replace at one place
            at = rng.randrange(len(source) + 1)
            source = source[:at] + rng.choice(pieces + [""]) + source[at + rng.randint(0, 2):]
        elif k % 3 == 2:
            source = "".join(rng.choice(pieces + atoms + joins) for _ in range(rng.randint(0, 10)))
        yield source


def _outcome(parse_root, source):
    try:
        return repr(parse_root(source))
    except ExprSyntaxError as err:  # UnknownIdentifierError included
        return type(err), str(err), err.offset


def test_operator_precedence_loop_matches_the_recursive_descent():
    """Same tree, or same error class, message and offset, on 24 000 seeded sources of
    nesting below 100, about half of them malformed."""
    valid = 0
    for source in _corpus(24_000):
        want = _outcome(lambda s: _Parser(s, VARS).parse(), source)
        assert _outcome(lambda s: _parse(s, VARS), source) == want, source
        valid += isinstance(want, str)
    assert 8_000 < valid < 16_000


def test_long_sums_compare_hash_print_and_pickle():
    """Equality, hashing and pickling read one flat key, so none recurses on a 1200-term sum."""
    source = " + ".join(["x", "x*y", "0.5*y*z", "z^2"] * 300)
    a, b = parse(source, VARS), parse(source, VARS)
    assert a == b and hash(a) == hash(b)
    assert a != parse(source + " + x", VARS) and a != parse(source, ("x", "y", "z", "w"))
    assert repr(a) == f"Expression({str(a)!r}, {VARS!r})"
    back = pickle.loads(pickle.dumps(a))
    assert back == a and str(back) == str(a)
    pts = np.random.default_rng(5).uniform(-0.9, 0.9, (30, 3))
    assert back.eval_at(pts).tobytes() == a.eval_at(pts).tobytes()
    d = parse("sin(x*y)^2 - exp(z/y)", VARS).diff("y")  # its DAG shares nodes
    back = pickle.loads(pickle.dumps(d))
    assert back == d and len(back._nodes) == len(d._nodes)
    assert back.eval_at(pts).tobytes() == d.eval_at(pts).tobytes()


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
        assert got.tobytes() == d.eval_at(pts).tobytes(), str(d)
    for v, d in zip(VARS, firsts):
        rate, curvature = compile_evaluator(d, d.diff(v))(*pts.T)
        assert rate.tobytes() == d.eval_at(pts).tobytes()
        assert curvature.tobytes() == d.diff(v).eval_at(pts).tobytes()


def test_compiled_output_is_the_interpreted_bytes_on_the_corpus():
    """Every valid source among the first 6 000 of ``_corpus`` (and ``-0``) and its three first
    partials, at the 216 points with coordinates in {-1.5, -0.5, -0.0, +0.0, 0.25, 2}: the compiled
    bytes are those ``_eval`` computes before ``eval_at`` checks finiteness, signs of zeros and of
    NaNs included, and ``eval_at``'s own wherever that is finite."""
    pts = np.array(list(itertools.product([-1.5, -0.5, -0.0, 0.0, 0.25, 2.0], repeat=3)))
    exprs = []
    for source in ["-0", *_corpus(6_000)]:
        try:
            e = parse(source, VARS)
        except ExprSyntaxError:
            continue
        exprs += [e, *(e.diff(v) for v in VARS)]
    assert len(exprs) >= 4 * 2_000
    with np.errstate(all="ignore"):
        for d in exprs:
            got = compile_evaluator(d)(*pts.T)
            want = np.broadcast_to(_eval(d._nodes, dict(zip(VARS, pts.T))), len(pts))
            assert got.tobytes() == want.tobytes(), str(d)
            finite = np.isfinite(want)
            if finite.any():
                assert got[finite].tobytes() == d.eval_at(pts[finite]).tobytes(), str(d)


def test_compiled_results_are_new_arrays():
    """``exp(q)`` is its own q-partial, so one node is returned twice; it comes back as two
    arrays, and neither they nor a returned variable share memory with each other or an input."""
    e = parse("exp(q)", ("q", "p"))
    assert e.diff("q").root is e.root
    q, p = np.linspace(-1.0, 1.0, 7), np.linspace(0.0, 1.0, 7)
    outs = compile_evaluator(e, e.diff("q"), parse("p", ("q", "p")))(q, p)
    assert outs[0] is not outs[1]
    for k, out in enumerate(outs):
        assert not any(np.shares_memory(out, other) for other in (q, p, *outs[k + 1:]))
    assert outs[0].tobytes() == outs[1].tobytes() == np.exp(q).tobytes() and outs[2].tobytes() == p.tobytes()


def test_compiled_non_finite_constants_are_numpy_names():
    """A constant that is infinite or NaN compiles to ``np.inf``, ``-np.inf``, ``np.nan`` or
    ``-np.nan``, keeping the NaN's sign bit; the callable returns the interpreted bytes and checks
    nothing.  Bytes, because ``assert_array_equal`` does not see the sign of a NaN."""
    ones = np.ones(2)
    nan = parse("x*1e999 + x*-1e999 + y", ("x", "y")).diff("x")  # folds to the constant NaN of inf + -inf
    assert str(nan) == "nan"
    for expr, want in [
        (parse("x*1e999", ("x", "y")), np.inf),
        (parse("y - x*-1e999", ("x", "y")), np.inf),
        (parse("x*-1e999", ("x", "y")), -np.inf),
        (nan, math.inf + -math.inf),  # as folded: its sign bit is set on x86-64
    ]:
        interpreted = np.broadcast_to(_eval(expr._nodes, {"x": ones, "y": ones}), 2)
        assert compile_evaluator(expr)(ones, ones).tobytes() == interpreted.tobytes() == np.full(2, want).tobytes()


@pytest.mark.parametrize("source, variables", [
    ("0.3*sin(2*pi*q) + exp(-1/0)", ("q", "p")),
    ("x + exp(-(10^400))", VARS),
])
def test_compiled_constants_are_computed_as_evaluation_computes_them(source, variables):
    """A node of constants compiles to the value numpy gives it, not to Python float
    arithmetic, which raises on 1/0 and on 10.0**400."""
    e = parse(source, variables)
    pts = np.random.default_rng(13).uniform(-0.9, 0.9, (20, len(variables)))
    assert compile_evaluator(e)(*pts.T).tobytes() == e.eval_at(pts).tobytes()


@pytest.mark.parametrize("source", ["x + exp(-(10^400))", "1 + exp(-(x^2)*1e300*1e300)"])
def test_a_field_with_finite_values_samples_without_warnings(source):
    """Evaluation ignores every floating-point error; only the values are checked."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        field = sample(build_sphere(3), source)
    assert np.all(np.isfinite(field.values))


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
