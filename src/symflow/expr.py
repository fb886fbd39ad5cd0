"""Tiny closed-form scalar expression language.

Fields on the torus and the sphere are described by expressions over a
fixed variable set (``q, p`` on the torus, ``x, y, z`` on the sphere).
The language supports constants, variables, ``+ - * /``, integer powers
via ``^``, the functions ``sin``, ``cos``, ``exp``, and the keyword
``pi``.  Expressions are immutable trees; differentiation is symbolic
and returns a new tree with constants folded.

Precedence, tightest first: ``^``, unary ``-``, ``* /``, binary ``+ -``.
Binary operators associate to the left, so ``a-b-c`` is ``(a-b)-c`` and
``x^2^3`` is ``(x^2)^3``.  ``-x^2`` is ``-(x^2)``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .errors import ExprSyntaxError, NonFiniteError, UnknownIdentifierError

__all__ = [
    "Expression",
    "ExprSyntaxError",
    "UnknownIdentifierError",
    "NonFiniteError",
    "parse",
    "compile_evaluator",
]


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Node:
    pass


@dataclass(frozen=True)
class Const(Node):
    value: float


@dataclass(frozen=True)
class Var(Node):
    name: str


@dataclass(frozen=True)
class Add(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Sub(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Mul(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Div(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Pow(Node):
    base: Node
    exponent: int


@dataclass(frozen=True)
class Neg(Node):
    operand: Node


@dataclass(frozen=True)
class Call(Node):
    func: str  # 'sin' | 'cos' | 'exp'
    arg: Node


_FUNCTIONS = ("sin", "cos", "exp")


# ---------------------------------------------------------------------------
# Folding constructors (used by diff; the parser builds raw nodes)
# ---------------------------------------------------------------------------


def _is_const(n: Node, v: float | None = None) -> bool:
    return isinstance(n, Const) and (v is None or n.value == v)


def _add(a: Node, b: Node) -> Node:
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def _sub(a: Node, b: Node) -> Node:
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    return Sub(a, b)


def _mul(a: Node, b: Node) -> Node:
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a, -1.0):
        return _neg(b)
    if _is_const(b, -1.0):
        return _neg(a)
    return Mul(a, b)


def _div(a: Node, b: Node) -> Node:
    if _is_const(b) and b.value != 0.0 and _is_const(a):
        return Const(a.value / b.value)
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    return Div(a, b)


def _pow(base: Node, exponent: int) -> Node:
    if exponent == 0:
        return Const(1.0)
    if exponent == 1:
        return base
    if _is_const(base):
        return Const(float(base.value**exponent))
    return Pow(base, exponent)


def _neg(a: Node) -> Node:
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.operand
    return Neg(a)


# ---------------------------------------------------------------------------
# Differentiation with node sharing
# ---------------------------------------------------------------------------


def _diff(node: Node, var: str, memo: dict) -> Node:
    key = id(node)
    hit = memo.get(key)
    if hit is not None:
        return hit
    result: Node
    if isinstance(node, Const):
        result = Const(0.0)
    elif isinstance(node, Var):
        result = Const(1.0 if node.name == var else 0.0)
    elif isinstance(node, Add):
        result = _add(_diff(node.left, var, memo), _diff(node.right, var, memo))
    elif isinstance(node, Sub):
        result = _sub(_diff(node.left, var, memo), _diff(node.right, var, memo))
    elif isinstance(node, Mul):
        du = _diff(node.left, var, memo)
        dv = _diff(node.right, var, memo)
        result = _add(_mul(du, node.right), _mul(node.left, dv))
    elif isinstance(node, Div):
        du = _diff(node.left, var, memo)
        dv = _diff(node.right, var, memo)
        num = _sub(_mul(du, node.right), _mul(node.left, dv))
        result = _div(num, _pow(node.right, 2))
    elif isinstance(node, Pow):
        du = _diff(node.base, var, memo)
        result = _mul(_mul(Const(float(node.exponent)), _pow(node.base, node.exponent - 1)), du)
    elif isinstance(node, Neg):
        result = _neg(_diff(node.operand, var, memo))
    elif isinstance(node, Call):
        du = _diff(node.arg, var, memo)
        if node.func == "sin":
            outer: Node = Call("cos", node.arg)
        elif node.func == "cos":
            outer = _neg(Call("sin", node.arg))
        else:  # exp
            outer = node
        result = _mul(outer, du)
    else:  # pragma: no cover - exhaustive over node types
        raise TypeError(f"unhandled node {node!r}")
    memo[key] = result
    return result


# ---------------------------------------------------------------------------
# Evaluation (vectorised, with sharing-aware memoisation)
# ---------------------------------------------------------------------------

ArrayLike = Union[float, np.ndarray]


def _eval(node: Node, env: Mapping[str, ArrayLike], memo: dict) -> ArrayLike:
    key = id(node)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(node, Const):
        result: ArrayLike = node.value
    elif isinstance(node, Var):
        result = env[node.name]
    elif isinstance(node, Add):
        result = _eval(node.left, env, memo) + _eval(node.right, env, memo)
    elif isinstance(node, Sub):
        result = _eval(node.left, env, memo) - _eval(node.right, env, memo)
    elif isinstance(node, Mul):
        result = _eval(node.left, env, memo) * _eval(node.right, env, memo)
    elif isinstance(node, Div):
        with np.errstate(divide="ignore", invalid="ignore"):
            result = np.divide(_eval(node.left, env, memo), _eval(node.right, env, memo))
    elif isinstance(node, Pow):
        base = _eval(node.base, env, memo)
        with np.errstate(divide="ignore", invalid="ignore"):
            result = np.power(base, float(node.exponent))
    elif isinstance(node, Neg):
        result = -_eval(node.operand, env, memo)
    elif isinstance(node, Call):
        arg = _eval(node.arg, env, memo)
        with np.errstate(over="ignore"):
            result = getattr(np, node.func)(arg)
    else:  # pragma: no cover
        raise TypeError(f"unhandled node {node!r}")
    memo[key] = result
    return result


# ---------------------------------------------------------------------------
# Compilation to a plain numpy callable (hot loops only)
# ---------------------------------------------------------------------------


def _py_source(node: Node) -> str:
    if isinstance(node, Const):
        return repr(float(node.value))
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Add):
        return f"({_py_source(node.left)} + {_py_source(node.right)})"
    if isinstance(node, Sub):
        return f"({_py_source(node.left)} - {_py_source(node.right)})"
    if isinstance(node, Mul):
        return f"({_py_source(node.left)} * {_py_source(node.right)})"
    if isinstance(node, Div):
        return f"({_py_source(node.left)} / {_py_source(node.right)})"
    if isinstance(node, Pow):
        return f"({_py_source(node.base)}) ** ({node.exponent})"
    if isinstance(node, Neg):
        return f"(-({_py_source(node.operand)}))"
    if isinstance(node, Call):
        return f"np.{node.func}({_py_source(node.arg)})"
    raise TypeError(f"unhandled node {node!r}")  # pragma: no cover


def compile_evaluator(*exprs: "Expression"):
    """Build a numpy-vectorized callable of the expressions' variables.

    The callable takes one array per variable (positionally, in the
    variable order the expressions share) and always returns an array of
    the broadcast shape, or for several expressions a tuple of them, one
    per expression.  Used to take expression evaluation out of hot
    integration loops; no finiteness checks are performed, unlike
    :meth:`Expression.evaluate`.
    """
    variables = exprs[0].variables
    values = [f"({_py_source(e.root)}) + 0.0 * {variables[0]}" for e in exprs]
    body = values[0] if len(exprs) == 1 else f"({', '.join(values)})"
    return eval(f"lambda {', '.join(variables)}: {body}", {"np": np, "__builtins__": {}})


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _print(node: Node) -> tuple[str, int]:
    """Render a node, returning (text, precedence of the outermost operator)."""
    if isinstance(node, Const):
        if node.value < 0 or (node.value == 0 and math.copysign(1, node.value) < 0):
            return "-" + repr(-node.value), _PREC_NEG
        return repr(node.value), _PREC_ATOM
    if isinstance(node, Var):
        return node.name, _PREC_ATOM
    if isinstance(node, Call):
        inner, _ = _print(node.arg)
        return f"{node.func}({inner})", _PREC_ATOM
    if isinstance(node, Neg):
        text = _wrap(node.operand, _PREC_NEG)
        return "-" + text, _PREC_NEG
    if isinstance(node, Pow):
        base = _wrap(node.base, _PREC_POW, allow_equal=True)
        if node.exponent < 0:
            return f"{base}^(-{-node.exponent})", _PREC_POW
        return f"{base}^{node.exponent}", _PREC_POW
    if isinstance(node, (Add, Sub)):
        op = "+" if isinstance(node, Add) else "-"
        left = _wrap(node.left, _PREC_ADD, allow_equal=True)
        right = _wrap(node.right, _PREC_ADD)
        return f"{left}{op}{right}", _PREC_ADD
    if isinstance(node, (Mul, Div)):
        op = "*" if isinstance(node, Mul) else "/"
        left = _wrap(node.left, _PREC_MUL, allow_equal=True)
        right = _wrap(node.right, _PREC_MUL)
        return f"{left}{op}{right}", _PREC_MUL
    raise TypeError(f"unhandled node {node!r}")  # pragma: no cover


def _wrap(node: Node, parent_prec: int, allow_equal: bool = False) -> str:
    text, prec = _print(node)
    if prec > parent_prec or (allow_equal and prec == parent_prec):
        return text
    return f"({text})"


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

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
        node = self.sum()
        kind, text, offset = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected token {text!r}", offset)
        return node

    def sum(self) -> Node:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                rhs = self.term()
                node = Add(node, rhs) if text == "+" else Sub(node, rhs)
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.next()
                rhs = self.unary()
                node = Mul(node, rhs) if text == "*" else Div(node, rhs)
            else:
                return node

    def unary(self) -> Node:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.next()
            operand = self.unary()
            if isinstance(operand, Const):
                return Const(-operand.value)
            return Neg(operand)
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == "^":
                self.next()
                node = Pow(node, self.exponent())
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
                return Call(text, arg)
            if text in self.variables:
                return Var(text)
            raise UnknownIdentifierError(text, offset)
        if kind == "op" and text == "(":
            node = self.sum()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected token {text!r}" if text else "unexpected end of input", offset)


# ---------------------------------------------------------------------------
# Public wrapper
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expression:
    """An immutable expression over a fixed tuple of variable names."""

    root: Node
    variables: tuple[str, ...]

    def evaluate(self, values: Mapping[str, ArrayLike]) -> ArrayLike:
        """Evaluate at a point or, with array values, at many points at once.

        Raises
        ------
        NonFiniteError
            If any produced value is NaN or infinite.
        """
        missing = [v for v in self.variables if v not in values]
        if missing:
            raise KeyError(f"missing values for {missing}")
        result = _eval(self.root, values, {})
        arr = np.asarray(result, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError(f"expression produced a non-finite value: {self}")
        if np.ndim(result) == 0:
            return float(arr)
        return arr

    def eval_at(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at an (n, d) array whose columns follow ``self.variables``."""
        points = np.asarray(points, dtype=float)
        env = {name: points[..., k] for k, name in enumerate(self.variables)}
        result = _eval(self.root, env, {})
        out = np.broadcast_to(np.asarray(result, dtype=float), points.shape[:-1]).copy()
        if not np.all(np.isfinite(out)):
            raise NonFiniteError(f"expression produced a non-finite value: {self}")
        return out

    def diff(self, var: str) -> "Expression":
        """Symbolic partial derivative with respect to ``var``, constants folded."""
        if var not in self.variables:
            raise KeyError(f"{var!r} is not a variable of this expression")
        return Expression(_diff(self.root, var, {}), self.variables)

    def __str__(self) -> str:
        return _print(self.root)[0]

    # Arithmetic helpers used when combining fields; results stay immutable.
    def _wrap_node(self, node: Node) -> "Expression":
        return Expression(node, self.variables)

    def __add__(self, other: "Expression") -> "Expression":
        return self._wrap_node(_add(self.root, self._coerce(other)))

    def __sub__(self, other: "Expression") -> "Expression":
        return self._wrap_node(_sub(self.root, self._coerce(other)))

    def __mul__(self, other: "Expression | float") -> "Expression":
        return self._wrap_node(_mul(self.root, self._coerce(other)))

    __rmul__ = __mul__

    def __neg__(self) -> "Expression":
        return self._wrap_node(_neg(self.root))

    def _coerce(self, other: "Expression | float") -> Node:
        if isinstance(other, Expression):
            if other.variables != self.variables:
                raise ValueError("expressions use different variable sets")
            return other.root
        return Const(float(other))


def parse(source: str, variables: tuple[str, ...] | list[str]) -> Expression:
    """Parse ``source`` into an :class:`Expression` over ``variables``.

    Parameters
    ----------
    source : str
        Text such as ``"1-2*x^2"`` or ``"sin(2*pi*q)"``.
    variables : tuple of str
        Permitted variable names, e.g. ``("q", "p")`` or ``("x", "y", "z")``.

    Raises
    ------
    ExprSyntaxError
        On malformed input, with the byte offset of the problem.
    UnknownIdentifierError
        For identifiers that are neither keywords nor declared variables.
    """
    vars_tuple = tuple(variables)
    return Expression(_Parser(source, vars_tuple).parse(), vars_tuple)
