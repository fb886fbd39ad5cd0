"""Tiny closed-form scalar expression language.

Fields on the torus and the sphere are described by expressions over a
fixed variable set (``q, p`` on the torus, ``x, y, z`` on the sphere).
The language supports constants, variables, ``+ - * /``, integer powers
via ``^``, the functions ``sin``, ``cos``, ``exp``, and the keyword
``pi``.  An expression is a DAG of one immutable node type,
``Node(op, args, value)``, and each operator has one row in ``_OPS``: its
numpy function, its Python source and its printed form.  Parsing is one
operator-precedence loop, and every DAG walk (differentiation, evaluation,
printing, compilation, jets, identity) loops over one ``_post_order`` list,
each distinct node once and after its arguments, so no input meets the
recursion limit; a compiled evaluator is straight-line code with one local
per distinct node.

Precedence, tightest first: ``^``, unary ``-``, ``* /``, binary ``+ -``.
Binary operators associate to the left, so ``a-b-c`` is ``(a-b)-c`` and
``x^2^3`` is ``(x^2)^3``.  ``-x^2`` is ``-(x^2)``.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, NamedTuple, Union

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
# Nodes and the operator table
# ---------------------------------------------------------------------------


class Node(NamedTuple):
    """``op`` applied to the nodes ``args``.

    ``value`` is the float of a ``"const"``, the name of a ``"var"`` and the
    integer exponent of a ``"pow"``; every other operator has none.
    """

    op: str
    args: tuple = ()
    value: object = None


def Const(value: float) -> Node:
    return Node("const", (), value)


def Var(name: str) -> Node:
    return Node("var", (), name)


_ZERO, _ONE = Const(0.0), Const(1.0)


class _Op(NamedTuple):
    fn: Callable  # numpy function of the argument values (then the exponent, for "pow")
    source: str  # Python source; {0}, {1} are the arguments and {k} the exponent
    text: str  # printed form, same fields
    prec: tuple  # printed precedence, then the least precedence each argument prints bare at


_ADD, _MUL, _NEG, _POW, _ATOM = 1, 2, 3, 4, 5  # printed precedence, loosest first
_OPS = {
    "add": _Op(operator.add, "{0} + {1}", "{0}+{1}", (_ADD, _ADD, _MUL)),
    "sub": _Op(operator.sub, "{0} - {1}", "{0}-{1}", (_ADD, _ADD, _MUL)),
    "mul": _Op(operator.mul, "{0} * {1}", "{0}*{1}", (_MUL, _MUL, _NEG)),
    "div": _Op(np.divide, "{0} / {1}", "{0}/{1}", (_MUL, _MUL, _NEG)),
    "neg": _Op(operator.neg, "-({0})", "-{0}", (_NEG, _POW)),
    "pow": _Op(lambda base, k: np.power(base, float(k)), "({0}) ** ({k})", "{0}^{k}", (_POW, _POW)),
    "sin": _Op(np.sin, "np.sin({0})", "sin({0})", (_ATOM, 0)),
    "cos": _Op(np.cos, "np.cos({0})", "cos({0})", (_ATOM, 0)),
    "exp": _Op(np.exp, "np.exp({0})", "exp({0})", (_ATOM, 0)),
}
_FUNCTIONS = ("sin", "cos", "exp")


def _post_order(roots: list[Node]) -> list[Node]:
    """The distinct node objects under ``roots``, each after its arguments."""
    order: list[Node] = []
    seen: set[int] = set()
    stack = [(root, False) for root in reversed(roots)]
    while stack:
        node, ready = stack.pop()
        if ready:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            for arg in reversed(node.args):
                stack.append((arg, False))
    return order


# ---------------------------------------------------------------------------
# Folding constructors (used by diff; the parser builds raw nodes)
# ---------------------------------------------------------------------------


def _is_const(n: Node, v: float | None = None) -> bool:
    return n.op == "const" and (v is None or n.value == v)


def _add(a: Node, b: Node) -> Node:
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Node("add", (a, b))


def _sub(a: Node, b: Node) -> Node:
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    return Node("sub", (a, b))


def _mul(a: Node, b: Node) -> Node:
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a, -1.0):
        return _neg(b)
    if _is_const(b, -1.0):
        return _neg(a)
    return Node("mul", (a, b))


def _div(a: Node, b: Node) -> Node:
    if _is_const(b) and b.value != 0.0 and _is_const(a):
        return Const(a.value / b.value)
    if _is_const(a, 0.0):
        return _ZERO
    if _is_const(b, 1.0):
        return a
    return Node("div", (a, b))


def _pow(base: Node, exponent: int) -> Node:
    if exponent == 0:
        return _ONE
    if exponent == 1:
        return base
    if _is_const(base):
        try:  # a power that overflows or divides by zero stays a node, as the parser would build it
            return Const(float(base.value**exponent))
        except (OverflowError, ZeroDivisionError):
            pass
    return Node("pow", (base,), exponent)


def _neg(a: Node) -> Node:
    if _is_const(a):
        return Const(-a.value)
    if a.op == "neg":
        return a.args[0]
    return Node("neg", (a,))


# ---------------------------------------------------------------------------
# Differentiation with node sharing
# ---------------------------------------------------------------------------


def _diff(nodes: list[Node], var: str) -> Node:
    """Symbolic partial in ``var`` of the root ending the ``_post_order`` list ``nodes``, constants folded."""
    done: dict[int, Node] = {}
    for node in nodes:
        op, args, value = node
        if op == "const":
            result = _ZERO
        elif op == "var":
            result = _ONE if value == var else _ZERO
        else:
            u, v = args[0], args[-1]  # v is u for a unary op
            du, dv = done[id(u)], done[id(v)]
            if op == "add":
                result = _add(du, dv)
            elif op == "sub":
                result = _sub(du, dv)
            elif op == "mul":
                result = _add(_mul(du, v), _mul(u, dv))
            elif op == "div":
                result = _div(_sub(_mul(du, v), _mul(u, dv)), _pow(v, 2))
            elif op == "pow":
                result = _mul(_mul(Const(float(value)), _pow(u, value - 1)), du)
            elif op == "neg":
                result = _neg(du)
            elif op == "sin":
                result = _mul(Node("cos", args), du)
            elif op == "cos":
                result = _mul(_neg(Node("sin", args)), du)
            else:  # exp
                result = _mul(node, du)
        done[id(node)] = result
    return result


# ---------------------------------------------------------------------------
# Evaluation (vectorised, with sharing-aware memoisation)
# ---------------------------------------------------------------------------

ArrayLike = Union[float, np.ndarray]


def _eval(nodes: list[Node], env: Mapping[str, ArrayLike]) -> ArrayLike:
    """Value of the root that ends the ``_post_order`` list ``nodes``; each node's once."""
    done: dict[int, ArrayLike] = {}
    with np.errstate(all="ignore"):  # inf and NaN come out silently; Expression.evaluate rejects them
        for node in nodes:
            op, args, value = node
            if op == "const":
                result = value
            elif op == "var":
                result = env[value]
            else:
                vals = []
                for arg in args:  # a loop: a comprehension would cost a call per node
                    vals.append(done[id(arg)])
                if value is not None:
                    vals.append(value)
                result = _OPS[op].fn(*vals)
            done[id(node)] = result
    return result


# ---------------------------------------------------------------------------
# Compilation to a plain numpy callable (hot loops only)
# ---------------------------------------------------------------------------


def compile_evaluator(*exprs: "Expression"):
    """Build a numpy-vectorized callable of the expressions' variables.

    The callable takes one array per variable, all of one shape, positionally
    in the variable order the expressions share, and returns a new array of
    that shape with the bytes ``eval_at`` gives, or for several expressions a
    tuple of distinct new arrays.  Its body assigns one local per distinct
    operator node, so a subexpression the expressions share is computed once.
    Used to take expression evaluation out of hot integration loops; no
    finiteness checks are performed, unlike :meth:`Expression.evaluate`.  A
    node of constants compiles to its value, computed as ``_eval`` computes it.
    """
    variables = exprs[0].variables
    names: dict[int, str] = {}
    folded: dict[int, ArrayLike] = {}  # node id -> value, for the nodes of constants only
    lines = [f"def _f({', '.join(variables)}):"]
    for node in _post_order([e.root for e in exprs]):
        op, args, value = node
        if op == "var":
            names[id(node)] = value
        elif all(id(a) in folded for a in args):  # a constant, or an operator on constants
            if op != "const":
                with np.errstate(all="ignore"):
                    value = _OPS[op].fn(*[folded[id(a)] for a in args], *(() if value is None else (value,)))
            folded[id(node)] = value
            text = ("-" if math.copysign(1.0, value) < 0 else "") + repr(abs(float(value)))  # a NaN keeps its sign
            names[id(node)] = text.replace("inf", "np.inf").replace("nan", "np.nan")
        else:
            name = f"_{len(lines)}"
            lines.append(f"    {name} = " + _OPS[op].source.format(*[names[id(a)] for a in args], k=value))
            names[id(node)] = name
    results: list[str] = []
    for e in exprs:  # an operator's local is a new array, returned once; a leaf or a repeat is filled into a new one
        name = names[id(e.root)]
        leaf = id(e.root) in folded or e.root.op == "var"
        results.append(f"np.full(np.shape({variables[0]}), {name})" if leaf or name in results else name)
    lines.append("    return " + ", ".join(results))
    namespace = {"np": np, "__builtins__": {}}
    exec("\n".join(lines), namespace)
    return namespace["_f"]


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def _print(nodes: list[Node]) -> str:
    """Render the root ending the ``_post_order`` list ``nodes``, each node's (text, precedence) once."""
    done: dict[int, tuple[str, int]] = {}
    for node in nodes:
        op, args, value = node
        if op == "const":
            if value < 0 or (value == 0 and math.copysign(1, value) < 0):
                done[id(node)] = "-" + repr(-value), _NEG
            else:
                done[id(node)] = repr(value), _ATOM
        elif op == "var":
            done[id(node)] = value, _ATOM
        else:
            row = _OPS[op]
            parts = [done[id(a)] for a in args]
            texts = [text if prec >= least else f"({text})" for (text, prec), least in zip(parts, row.prec[1:])]
            k = f"({value})" if op == "pow" and value < 0 else value
            done[id(node)] = row.text.format(*texts, k=k), row.prec[0]
    return done[id(node)][0]


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])|(?P<bad>\S))"
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(source):  # every character but trailing whitespace is in a match
        kind = m.lastgroup
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {m.group(kind)!r}", m.start(kind))
        tokens.append((kind, m.group(kind), m.start(kind)))
    tokens.append(("end", "", len(source)))
    return tokens


_BINARY = {"+": "add", "-": "sub", "*": "mul", "/": "div"}
_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "(": 0, **dict.fromkeys(_FUNCTIONS, 0)}


def _parse(source: str, variables: tuple[str, ...]) -> Node:
    """The tree of ``source``, by Dijkstra's operator-precedence method: one loop, two stacks.

    Before an operand the loop takes unary minuses and openers (``(``, or a
    function and its ``(``); after one it applies each ``^`` and its integer at
    once, closes parentheses, and reduces the operators above the last opener
    that bind at least as tightly (``_PREC``) as the next binary operator or
    the end.  Only operator tokens have the texts ``( ) - ^``; the end has ``""``.
    """
    tokens = _tokenize(source)
    operands: list[Node] = []
    operators: list[str] = []
    i = 0
    while True:
        kind, text, offset = tokens[i]
        i += 1
        if text == "-" or text == "(" or text in _FUNCTIONS:  # a unary minus or an opener: an operand follows
            if text in _FUNCTIONS:
                if tokens[i][1] != "(":
                    raise ExprSyntaxError("expected '('", tokens[i][2])
                i += 1
            operators.append("neg" if text == "-" else text)
            continue
        if kind == "num":
            operands.append(Const(float(text)))
        elif kind != "name":
            raise ExprSyntaxError(f"unexpected token {text!r}" if text else "unexpected end of input", offset)
        elif text == "pi":
            operands.append(Const(math.pi))
        elif text in variables:
            operands.append(Var(text))
        else:
            raise UnknownIdentifierError(text, offset)
        while True:
            kind, text, offset = tokens[i]
            i += 1
            if text == "^":
                parens = tokens[i][1] == "("
                minus = tokens[i + parens][1] == "-"
                kind, text, offset = tokens[i + parens + minus]
                if kind != "num" or not text.isdigit():
                    raise ExprSyntaxError("exponent must be an integer literal", offset)
                i += parens + minus + 1
                if parens and tokens[i][1] != ")":
                    raise ExprSyntaxError("expected ')'", tokens[i][2])
                i += parens
                operands[-1] = Node("pow", (operands[-1],), -int(text) if minus else int(text))
                continue
            op = _BINARY.get(text)
            least = 1 if op is None else _PREC[op]
            while operators and _PREC[operators[-1]] >= least:
                top = operators.pop()
                b = operands.pop()
                if top != "neg":
                    operands[-1] = Node(top, (operands[-1], b))
                else:  # a unary minus of a constant folds to the constant
                    operands.append(Const(-b.value) if b.op == "const" else Node("neg", (b,)))
            if op is not None:
                operators.append(op)
                break
            if not operators:
                if not text:
                    return operands[0]
                raise ExprSyntaxError(f"unexpected token {text!r}", offset)
            if text != ")":
                raise ExprSyntaxError("expected ')'", offset)
            opener = operators.pop()
            if opener != "(":
                operands[-1] = Node(opener, (operands[-1],))


# ---------------------------------------------------------------------------
# Public wrapper
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False, repr=False)
class Expression:
    """An immutable expression over a fixed tuple of variable names; equal, hashed
    and pickled by its flat ``_key``, so none of the three recurses."""

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
        result = _eval(self._nodes, values)
        arr = np.asarray(result, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError(f"expression produced a non-finite value: {self}")
        if np.ndim(result) == 0:
            return float(arr)
        return arr

    def eval_at(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at an (n, d) array whose columns follow ``self.variables``."""
        points = np.asarray(points, dtype=float)
        values = self.evaluate({name: points[..., k] for k, name in enumerate(self.variables)})
        return np.broadcast_to(values, points.shape[:-1]).copy()

    def diff(self, var: str) -> "Expression":
        """Symbolic partial derivative with respect to ``var``, constants folded."""
        if var not in self.variables:
            raise KeyError(f"{var!r} is not a variable of this expression")
        return Expression(_diff(self._nodes, var), self.variables)

    def __str__(self) -> str:
        return _print(self._nodes)

    def __repr__(self) -> str:
        return f"Expression({str(self)!r}, {self.variables!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Expression) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __reduce__(self):
        return _rebuild, self._key

    @cached_property
    def _nodes(self) -> list[Node]:
        """The distinct nodes, each after its arguments: one walk, shared by every pass over the DAG."""
        return _post_order([self.root])

    @cached_property
    def _key(self) -> tuple:
        """The variables, then ``(op, value, positions of the arguments)`` for each node of ``_nodes``:
        equal keys are DAGs that match node for node, sharing included."""
        position = {id(node): k for k, node in enumerate(self._nodes)}
        return self.variables, tuple((op, value, tuple(position[id(a)] for a in args)) for op, args, value in self._nodes)

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


def _rebuild(variables: tuple[str, ...], flat: tuple) -> Expression:
    """The expression whose ``_key`` is ``(variables, flat)``, its node sharing included."""
    nodes: list[Node] = []
    for op, value, positions in flat:
        nodes.append(Node(op, tuple(nodes[k] for k in positions), value))
    return Expression(nodes[-1], variables)


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
        On malformed input, with the byte offset of the problem; any
        nesting parses.
    UnknownIdentifierError
        For identifiers that are neither keywords nor declared variables.
    """
    vars_tuple = tuple(variables)
    return Expression(_parse(source, vars_tuple), vars_tuple)
