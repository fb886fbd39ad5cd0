"""Poisson brackets and iterated-bracket size functionals.

Conventions (fixed once, validated by the flow-consistency tests):

* Torus, coordinates ``(q, p)``, area form ``dq ^ dp`` of total mass 1:
  ``{A, H} = dA/dq * dH/dp - dA/dp * dH/dq``.
* Unit sphere with the round measure normalised to total mass 1:
  ``{A, H}(x) = 4*pi * x . (grad A x grad H)`` with ambient gradients.
  The factor 4*pi compensates the normalisation of the area form.

Both satisfy ``d/dt (A o phi_H^t) = {A, H} o phi_H^t`` for the
Hamiltonian flow ``phi_H^t`` used in :mod:`symflow.flow`.

Iterated brackets are words: for a root A and named Hamiltonians, the word
``(w_1, ..., w_k)`` is ``{...{{A, H_w1}, H_w2}, ..., H_wk}``.  A pair's
monomials have root F and letters ``F``/``G`` after the core bracket
``{F, G}``, whose generation with k appended letters has ``2**k`` members.

:class:`BracketTable`, the one bracket engine, computes the words as a trie,
each once from its parent.  For expression-backed fields it never builds a
bracket expression: every word is a jet, the truncated Taylor coefficients
``d^alpha A / alpha!`` at each mesh point.  Each distinct field's jet comes
from one walk of its expression DAG: polynomial subtrees stay exact and become
jets through one matrix product, everything else is truncated Taylor
arithmetic; a bracket ``sum_ij Pi_ij d_i A d_j H`` is a truncated product of
jets that drops the order by one (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., SIAM 2008, ch. 13).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, MeshMismatchError, NonFiniteError, OutOfRangeError, SymbolicRequiredError
from .expr import _OPS, Expression, Var
from .manifold import NORMS, ScalarField, SphereTri, TorusGrid

__all__ = [
    "OutOfRangeError",
    "SymbolicRequiredError",
    "DegenerateInputError",
    "NonFiniteError",
    "LieMonomial",
    "BracketTable",
    "poisson",
    "enumerate_monomials",
    "eval_monomial",
    "q_norm",
    "khl_ratio",
]

FOUR_PI = 4.0 * np.pi

MAX_GENERATION = 8


# ---------------------------------------------------------------------------
# Poisson bracket
# ---------------------------------------------------------------------------


def _symbolic_torus(a: Expression, h: Expression) -> Expression:
    return a.diff("q") * h.diff("p") - a.diff("p") * h.diff("q")


def _symbolic_sphere(a: Expression, h: Expression) -> Expression:
    ax, ay, az = (a.diff(v) for v in ("x", "y", "z"))
    hx, hy, hz = (h.diff(v) for v in ("x", "y", "z"))
    x = Expression(Var("x"), a.variables)
    y = Expression(Var("y"), a.variables)
    z = Expression(Var("z"), a.variables)
    triple = x * (ay * hz - az * hy) + y * (az * hx - ax * hz) + z * (ax * hy - ay * hx)
    return FOUR_PI * triple


def _torus_partials(mesh: TorusGrid, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    grid = mesh.grid_values(values)
    dq = (np.roll(grid, -1, axis=0) - np.roll(grid, 1, axis=0)) * (mesh.n_q / 2.0)
    dp = (np.roll(grid, -1, axis=1) - np.roll(grid, 1, axis=1)) * (mesh.n_p / 2.0)
    return dq.ravel(), dp.ravel()


def _sphere_gradients(mesh: SphereTri, values: np.ndarray) -> np.ndarray:
    nbr, mask, pinv, e1, e2 = mesh.lsq_gradient_operator
    delta = (values[nbr] - values[:, None]) * mask
    coef = np.einsum("nik,nk->ni", pinv, delta)
    return coef[:, [0]] * e1 + coef[:, [1]] * e2


def poisson(a: ScalarField, h: ScalarField) -> ScalarField:
    """Poisson bracket ``{a, h}`` on the common mesh of the two fields.

    When both fields carry expressions the bracket is computed
    symbolically (exact partial derivatives, result carries an
    expression too).  Otherwise a second-order numeric scheme is used:
    central differences on the torus grid, least-squares tangent-plane
    gradients on the sphere.
    """
    if not a.mesh.same_as(h.mesh):
        raise MeshMismatchError("fields live on different meshes")
    mesh = a.mesh
    if a.expr is not None and h.expr is not None:
        expr = _symbolic_torus(a.expr, h.expr) if mesh.kind == "torus" else _symbolic_sphere(a.expr, h.expr)
        return ScalarField(mesh, expr.eval_at(mesh.points), expr)
    if mesh.kind == "torus":
        aq, ap = _torus_partials(mesh, a.values)
        hq, hp = _torus_partials(mesh, h.values)
        vals = aq * hp - ap * hq
    else:
        ga = _sphere_gradients(mesh, a.values)
        gh = _sphere_gradients(mesh, h.values)
        vals = FOUR_PI * np.einsum("nc,nc->n", mesh.points, np.cross(ga, gh))
    return ScalarField(mesh, vals, None)


# ---------------------------------------------------------------------------
# Jets: truncated Taylor coefficients at mesh points
# ---------------------------------------------------------------------------
#
# A jet of order k in d variables is an array of shape (comb(k + d, d), n)
# holding, at each of n points, the Taylor coefficients d^alpha F / alpha! of
# a field for |alpha| <= k.  Rows follow the graded order of _multi_indices,
# so the order-j truncation of a jet is its first comb(j + d, d) rows.  One cached
# _index_table per (d, k) serves every jet operation; its row 1 + i is e_i.


@functools.cache
def _multi_indices(dim: int, order: int) -> tuple[tuple[int, ...], ...]:
    """Multi-indices with ``|alpha| <= order``: by degree, then descending."""
    alphas = (a for a in itertools.product(range(order + 1), repeat=dim) if sum(a) <= order)
    return tuple(sorted(alphas, key=lambda a: (sum(a), [-x for x in a])))


def _jet_size(dim: int, order: int) -> int:
    return math.comb(order + dim, dim)


@functools.cache
def _index_table(dim: int, order: int) -> tuple:
    """The row of each multi-index; per ``(alpha, beta)`` with ``|beta| <= order - |alpha|`` the
    row of ``alpha + beta`` and ``binom(alpha + beta, alpha)`` (one past the last row and 0
    elsewhere), and per row alpha those rows alone; per ``beta`` the row of ``beta - e_i`` and
    ``i``, for the first ``i`` with ``beta_i > 0``."""
    alphas = _multi_indices(dim, order)
    rows = {a: r for r, a in enumerate(alphas)}
    sums, binom = np.full((len(alphas),) * 2, len(alphas)), np.zeros((len(alphas),) * 2)
    for r, a in enumerate(alphas):
        betas = alphas[: _jet_size(dim, order - sum(a))]  # graded order: exactly |beta| <= order - |alpha|
        sums[r, : len(betas)] = [rows[tuple(map(operator.add, a, b))] for b in betas]
        binom[r, : len(betas)] = [math.prod(map(math.comb, map(operator.add, a, b), a)) for b in betas]
    targets = tuple(row[row < len(alphas)] for row in sums)
    var = [next((i for i, x in enumerate(b) if x), 0) for b in alphas]
    parent = [rows[b[:i] + (max(b[i] - 1, 0),) + b[i + 1:]] for b, i in zip(alphas, var)]
    return rows, sums, binom, np.array(parent), np.array(var), targets


def _jet_product(a: list, b: list, dim: int, order: int) -> np.ndarray:
    """Truncated ``sum_k a[k] * b[k]`` of two lists of jets of at least ``order``."""
    *_, targets = _index_table(dim, order)
    out = np.zeros((_jet_size(dim, order), a[0].shape[1]))
    for row, to in enumerate(targets):
        out[to] += functools.reduce(operator.add, (x[row] * y[: len(to)] for x, y in zip(a, b)))
    return out


# ---------------------------------------------------------------------------
# Field jets: one walk of the expression DAG
# ---------------------------------------------------------------------------
#
# A subtree of constants, variables, + - *, unary -, / by a nonzero constant and non-negative
# integer ^ stays an exact polynomial {exponents: coefficient}; it becomes a jet at the root or
# under any other node, which is truncated Taylor arithmetic on jets.

_EXACT_TERMS = 512  # a polynomial stays exact while the monomials up to its degree number at most this


def _poly_jet(poly: dict, points: np.ndarray, order: int) -> np.ndarray:
    """Jet of an exact polynomial: row alpha is ``sum_m c_m binom(m, alpha) x^(m - alpha)``, one
    matrix product per degree of alpha, so that a lower order is bitwise a truncation."""
    dim, degree = points.shape[1], max(map(sum, poly))
    rows, sums, binom, parent, var, _ = _index_table(dim, degree)
    coef = np.zeros(len(rows) + 1)
    coef[[rows[m] for m in poly]] = list(poly.values())
    powers, cols = np.ones((len(rows), len(points))), np.ascontiguousarray(points.T)
    for j in range(1, degree + 1):
        lo, hi = _jet_size(dim, j - 1), _jet_size(dim, j)
        np.multiply(powers[parent[lo:hi]], cols[var[lo:hi]], out=powers[lo:hi])
    jet = np.zeros((_jet_size(dim, order), len(points)))
    for j in range(min(order, degree) + 1):
        lo, hi, width = _jet_size(dim, j - 1), _jet_size(dim, j), _jet_size(dim, degree - j)
        np.matmul(coef[sums[lo:hi, :width]] * binom[lo:hi, :width], powers[:width], out=jet[lo:hi])
    return jet


def _poly_op(op: str, args: list, scalars: list, k, dim: int) -> dict | None:
    """``op`` on exact polynomials; None when the result is not one or would pass the cap."""
    a, b = args[0], args[-1]
    if op in ("add", "sub", "neg"):
        out, sign = {} if op == "neg" else dict(a), 1.0 if op == "add" else -1.0
        for m, c in b.items():
            out[m] = out.get(m, 0.0) + sign * c
        return out
    if op == "div" and scalars[1]:
        return {m: c / scalars[1] for m, c in a.items()}
    if op != "mul" and not (op == "pow" and k >= 0):
        return None
    degree = sum(max(map(sum, f)) for f in args) if op == "mul" else max(map(sum, a)) * k
    if math.comb(degree + dim, dim) > _EXACT_TERMS:
        return None
    factors = args if op == "mul" else [a] * k
    out = factors[0] if factors else {(0,) * dim: 1.0}
    for f in factors[1:]:
        product: dict = {}
        for (m, c), (n, d) in itertools.product(out.items(), f.items()):
            key = tuple(map(operator.add, m, n))
            product[key] = product.get(key, 0.0) + c * d
        out = product
    return out


def _compose(op: str, k, u: np.ndarray, dim: int, order: int) -> np.ndarray:
    """Jet of sin, cos, exp or ``^k`` of the jet ``u``: Horner's rule in the nilpotent
    ``v = u - u0`` on the Taylor coefficients ``f^(j)(u0) / j!``."""
    u0, top = u[0], order if op != "pow" or k < 0 else min(order, k)
    if op == "pow":  # the j-th derivative of u^k is k (k - 1) ... (k - j + 1) u^(k - j), also for k < 0
        derivatives = [math.prod(range(k - j + 1, k + 1)) * np.power(u0, float(k - j)) for j in range(top + 1)]
    else:
        cycle = [np.exp(u0)] if op == "exp" else [np.sin(u0), np.cos(u0), -np.sin(u0), -np.cos(u0)]
        derivatives = [cycle[(j + (op == "cos")) % len(cycle)] for j in range(top + 1)]
    v, out = u.copy(), np.zeros_like(u)
    v[0], out[0] = 0.0, derivatives[top] / math.factorial(top)
    for j in range(top - 1, -1, -1):
        out = _jet_product([out], [v], dim, order)
        out[0] += derivatives[j] / math.factorial(j)
    return out


def _jet_op(op: str, args: list, scalars: list, k, points: np.ndarray, order: int) -> np.ndarray:
    """``op`` as truncated Taylor arithmetic on jets; a constant factor or divisor stays a scalar."""
    dim = points.shape[1]
    u = [a if isinstance(a, np.ndarray) else _poly_jet(a, points, order) for a in args]
    if op in ("mul", "div") and scalars[-1] is not None or op == "mul" and scalars[0] is not None:
        return _OPS[op].fn(*(x if c is None else c for x, c in zip(u, scalars)))
    if op in ("add", "sub", "neg"):
        return _OPS[op].fn(*u)
    if op == "div":
        u[1] = _compose("pow", -1, u[1], dim, order)
    return _jet_product(u[:1], u[1:], dim, order) if op in ("mul", "div") else _compose(op, k, u[0], dim, order)


def _field_jet(expr: Expression, mesh, order: int) -> np.ndarray:
    """Jet of an expression at the mesh points, from one post-order walk of its DAG; raises
    :class:`NonFiniteError`, naming the expression, on a coefficient that is not finite."""
    names, points = mesh.coord_names, mesh.points
    dim, zero = len(names), (0,) * len(names)
    units = {name: zero[:i] + (1,) + zero[i + 1:] for i, name in enumerate(names)}
    done: dict[int, object] = {}
    with np.errstate(all="ignore"):
        for node in expr._nodes:
            op, args, k = node
            args = [done[id(a)] for a in args]
            scalars = [a.get(zero) if isinstance(a, dict) and len(a) == 1 else None for a in args]
            if not args:
                out = {zero: k} if op == "const" else {units[k]: 1.0}
            elif None not in scalars:  # a constant, as Expression.evaluate computes it
                out = {zero: float(_OPS[op].fn(*scalars, *(() if k is None else (k,))))}
            else:
                exact = isinstance(args[0], dict) and isinstance(args[-1], dict)
                out = (exact and _poly_op(op, args, scalars, k, dim)) or _jet_op(op, args, scalars, k, points, order)
            done[id(node)] = out
        jet = out if isinstance(out, np.ndarray) else _poly_jet(out, points, order)
    if not np.all(np.isfinite(jet)):
        raise NonFiniteError(f"field {expr} has a non-finite derivative of order <= {order} on the mesh")
    return jet


# ---------------------------------------------------------------------------
# Iterated bracket monomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LieMonomial:
    """Left-nested iterated bracket ``{...{{F, G}, w_1}, ..., w_k}``."""

    word: tuple[str, ...]

    def __post_init__(self):
        if any(letter not in ("F", "G") for letter in self.word):
            raise ValueError("word letters must be 'F' or 'G'")

    @property
    def bracket_count(self) -> int:
        return len(self.word) + 1

    @property
    def degree_in_g(self) -> int:
        return 1 + sum(1 for w in self.word if w == "G")

    def __str__(self) -> str:
        text = "{F,G}"
        for letter in self.word:
            text = "{" + text + "," + letter + "}"
        return text


def enumerate_monomials(generation: int) -> list[LieMonomial]:
    """All iterated-bracket monomials of a generation, in lexicographic order.

    Generation ``n`` holds the ``2**(n-1)`` left-nested monomials built
    from ``{F, G}`` by appending ``n - 1`` letters.
    """
    if not 1 <= generation <= MAX_GENERATION:
        raise OutOfRangeError(f"generation must be in [1, {MAX_GENERATION}], got {generation}")
    words = itertools.product("FG", repeat=generation - 1)
    return [LieMonomial(tuple(w)) for w in sorted(words)]


def _measure(generation: int, norm: str, top: int):
    """The norm function, after checking ``2 <= generation <= top`` and the norm name."""
    if not 2 <= generation <= top:
        raise OutOfRangeError(f"generation must be in [2, {top}], got {generation}")
    if norm not in NORMS:
        raise OutOfRangeError(f"norm must be {' or '.join(map(repr, NORMS))}, got {norm!r}")
    return NORMS[norm]


class BracketTable:
    """Left-nested brackets of a root A with up to ``depth`` letters.

    Words form a trie built on demand: the word ``w + (letter,)`` is the
    bracket of the word ``w`` with that letter's Hamiltonian, so each word is
    computed once.  For expression-backed fields every word is a jet of order
    ``depth - len(w)``, starting from one jet per distinct field, built at
    construction (:class:`NonFiniteError`, naming the field, if a coefficient
    is not finite); all children of a word share its gradient.  Other fields
    use the finite-difference :func:`poisson`, which refuses four or more
    brackets unless ``allow_numeric`` is set.  ``BracketTable(f, g, depth)``
    has root F and letters F and G, and reads every word behind the letter G
    (the core bracket ``{F, G}``), as :meth:`q_norm` and :meth:`khl_ratio`
    expect; :meth:`rooted` builds any other table.
    """

    def __init__(self, f: ScalarField, g: ScalarField, depth: int, allow_numeric: bool = False):
        self.f, self.g = f, g
        self._plant(f, {"F": f, "G": g}, ("G",), depth, allow_numeric)

    @classmethod
    def rooted(cls, root: ScalarField, letters: dict, depth: int) -> "BracketTable":
        """The table of ``root`` bracketed by ``letters`` (name to field), up to ``depth`` letters."""
        table = cls.__new__(cls)
        table._plant(root, dict(letters), (), depth, False)
        return table

    def _plant(self, root, letters, prefix, depth, allow_numeric) -> None:
        if not all(root.mesh.same_as(h.mesh) for h in letters.values()):
            raise MeshMismatchError("fields live on different meshes")
        if not 1 <= depth <= MAX_GENERATION:
            raise OutOfRangeError(f"depth must be in [1, {MAX_GENERATION}], got {depth}")
        symbolic = root.expr is not None and all(h.expr is not None for h in letters.values())
        if depth >= 4 and not symbolic and not allow_numeric:
            raise SymbolicRequiredError(
                f"monomials with {depth} brackets need expression-backed fields; "
                "numeric differentiation is too lossy (pass allow_numeric=True to override)"
            )
        self.depth, self.mesh = depth, root.mesh
        self._letters, self._prefix = letters, prefix
        self._fields: dict[tuple, ScalarField] = {(): root}
        self._jets: dict[tuple, np.ndarray] | None = {} if symbolic else None
        if symbolic:
            self._dim = len(self.mesh.coord_names)
            distinct = {id(h): h.expr for h in (root, *letters.values())}
            grads = {k: self._gradient(_field_jet(e, self.mesh, depth), depth) for k, e in distinct.items()}
            self._vectors = {name: self._hamiltonian_vector(grads[id(h)]) for name, h in letters.items()}
            self._gradients: dict[tuple, list[np.ndarray]] = {(): grads[id(root)]}

    def _gradient(self, jet: np.ndarray, order: int) -> list[np.ndarray]:
        """Partials of a jet of ``order``, one order lower: row beta is (beta_i + 1) times row beta + e_i."""
        _, _, binom, *_, targets = _index_table(self._dim, order)
        return [binom[1 + i, : len(targets[1 + i]), None] * jet[targets[1 + i]] for i in range(self._dim)]

    def _hamiltonian_vector(self, grad: list[np.ndarray]) -> list[np.ndarray]:
        """``Pi grad H`` with ``{A, H} = grad A . Pi grad H``, as jets of order depth - 1."""
        if self.mesh.kind == "torus":
            return [grad[1], -grad[0]]
        order = self.depth - 1
        cols = self.mesh.points.T.copy()  # contiguous coordinate columns
        *_, targets = _index_table(3, order)

        def times_x(j: int, i: int) -> np.ndarray:
            """Truncated product of ``grad[j]`` with the coordinate ``x_i = cols[i] + delta_i``."""
            out = cols[i] * grad[j]
            if order:  # an order-0 table has no row e_i
                out[targets[1 + i]] += grad[j][: len(targets[1 + i])]
            return out

        # 4*pi * x . (grad A x grad H) = grad A . (4*pi * grad H x x)
        return [
            FOUR_PI * (times_x((j + 1) % 3, (j + 2) % 3) - times_x((j + 2) % 3, (j + 1) % 3))
            for j in range(3)
        ]

    def _bracket(self, grad: list[np.ndarray], letter, order: int) -> np.ndarray:
        return _jet_product(grad, self._vectors[letter], self._dim, order)

    def _jet(self, word: tuple) -> np.ndarray:
        jet = self._jets.get(word)
        if jet is None:
            parent = word[:-1]
            order = self.depth - len(word)
            grad = self._gradients.get(parent)
            if grad is None:
                grad = self._gradients[parent] = self._gradient(self._jet(parent), order + 1)
            jet = self._jets[word] = self._bracket(grad, word[-1], order)
        return jet

    def _field(self, word: tuple) -> ScalarField:
        field = self._fields.get(word)
        if field is None:
            if self._jets is not None:
                field = ScalarField(self.mesh, self._jet(word)[0].copy())
            else:
                field = poisson(self._field(word[:-1]), self._letters[word[-1]])
            self._fields[word] = field
        return field

    def field(self, word: tuple) -> ScalarField:
        """The bracket of ``word`` on the mesh; for a pair ``{...{{F, G}, w_1}, ..., w_k}``."""
        word = tuple(word)
        if len(self._prefix) + len(word) > self.depth:
            raise OutOfRangeError(f"word {word} needs more than the table's {self.depth} brackets")
        return self._field(self._prefix + word)

    def q_norm(self, generation: int, norm: str = "uniform") -> float:
        """Sum, in lexicographic word order, of the norms of the monomials with
        ``generation - 1`` brackets; see :func:`q_norm`."""
        measure = _measure(generation, norm, min(MAX_GENERATION, self.depth + 1))
        return sum(measure(self.field(m.word)) for m in enumerate_monomials(generation - 1))

    def khl_ratio(self, generation: int, norm: str = "uniform") -> float:
        """See :func:`khl_ratio`."""
        qn = self.q_norm(generation, norm)
        measure = NORMS[norm]
        num = measure(self.field(()))
        small = min(measure(self.f), measure(self.g))
        exponent = (generation - 2) / (generation - 1)
        denom = small**exponent * qn ** (1.0 / (generation - 1))
        if denom == 0.0:
            raise DegenerateInputError("commuting or vanishing pair: bound denominator is zero")
        return num / denom


def eval_monomial(
    monomial: LieMonomial,
    f: ScalarField,
    g: ScalarField,
    allow_numeric: bool = False,
) -> ScalarField:
    """Evaluate one monomial through a :class:`BracketTable` of its depth."""
    return BracketTable(f, g, monomial.bracket_count, allow_numeric).field(monomial.word)


def q_norm(
    generation: int,
    f: ScalarField,
    g: ScalarField,
    norm: str = "uniform",
    allow_numeric: bool = False,
) -> float:
    """Size of the bracket generation below ``generation``.

    Sums, in lexicographic word order, the norms of all monomials with
    ``generation - 1`` bracket applications.  ``norm`` selects the
    mesh-max uniform norm or the mass-weighted L1 norm.
    """
    _measure(generation, norm, MAX_GENERATION)
    return BracketTable(f, g, generation - 1, allow_numeric).q_norm(generation, norm)


def khl_ratio(
    generation: int,
    f: ScalarField,
    g: ScalarField,
    norm: str = "uniform",
    allow_numeric: bool = False,
) -> float:
    """Ratio comparing ``||{F, G}||`` against the interpolation-type bound.

    Returns ``||{F,G}|| / (min(||F||, ||G||)^((n-2)/(n-1)) * Q_n^(1/(n-1)))``
    for ``n = generation``.  Raises :class:`DegenerateInputError` when the
    denominator vanishes.
    """
    _measure(generation, norm, MAX_GENERATION)
    return BracketTable(f, g, generation - 1, allow_numeric).khl_ratio(generation, norm)
