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
``d^alpha A / alpha!`` at each mesh point, taken from the exact symbolic
derivatives of each distinct field; a bracket ``sum_ij Pi_ij d_i A d_j H`` is
a truncated product of jets that drops the order by one (Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 13).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, MeshMismatchError, OutOfRangeError, SymbolicRequiredError
from .expr import Expression, Var
from .manifold import NORMS, ScalarField, SphereTri, TorusGrid

__all__ = [
    "OutOfRangeError",
    "SymbolicRequiredError",
    "DegenerateInputError",
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
# so the order-j truncation of a jet is its first comb(j + d, d) rows.


@functools.cache
def _multi_indices(dim: int, order: int) -> tuple[tuple[int, ...], ...]:
    """Multi-indices with ``|alpha| <= order``: by degree, then descending."""
    alphas = (a for a in itertools.product(range(order + 1), repeat=dim) if sum(a) <= order)
    return tuple(sorted(alphas, key=lambda a: (sum(a), [-x for x in a])))


def _jet_size(dim: int, order: int) -> int:
    return math.comb(order + dim, dim)


@functools.cache
def _shift_table(dim: int, order: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per variable i: the row of ``beta + e_i`` and the factor ``beta_i + 1``
    for every ``|beta| <= order - 1``."""
    index = {a: row for row, a in enumerate(_multi_indices(dim, order))}
    lower = _multi_indices(dim, order - 1)
    table = []
    for i in range(dim):
        bumped = [b[:i] + (b[i] + 1,) + b[i + 1:] for b in lower]
        rows = np.array([index[b] for b in bumped], dtype=np.intp)
        factors = np.array([b[i] + 1.0 for b in lower])[:, None]
        table.append((rows, factors))
    return tuple(table)


@functools.cache
def _product_table(dim: int, order: int) -> tuple[np.ndarray, ...]:
    """Per row alpha: the rows of ``alpha + beta`` for every ``|beta| <= order - |alpha|``."""
    index = {a: row for row, a in enumerate(_multi_indices(dim, order))}
    return tuple(
        np.array(
            [index[tuple(x + y for x, y in zip(a, b))] for b in _multi_indices(dim, order - sum(a))],
            dtype=np.intp,
        )
        for a in _multi_indices(dim, order)
    )


def _jet_product(a: np.ndarray, b: np.ndarray, dim: int, order: int) -> np.ndarray:
    """Truncated product of two jets of at least ``order``."""
    out = np.zeros((_jet_size(dim, order), a.shape[1]))
    for row, targets in enumerate(_product_table(dim, order)):
        out[targets] += a[row] * b[: len(targets)]
    return out


def _jet_partial(jet: np.ndarray, i: int, dim: int, order: int) -> np.ndarray:
    """Partial derivative in variable ``i`` of a jet of ``order``; one order lower."""
    rows, factors = _shift_table(dim, order)[i]
    return factors * jet[rows]


def _jet_times_coordinate(jet: np.ndarray, i: int, base: np.ndarray, dim: int, order: int) -> np.ndarray:
    """Truncated product of a jet with the coordinate ``x_i = base + delta_i``."""
    rows, _ = _shift_table(dim, order)[i]
    out = base * jet[: _jet_size(dim, order)]
    out[rows] += jet[: len(rows)]
    return out


def _taylor_jet(expr: Expression, mesh, order: int) -> np.ndarray:
    """Jet of an expression at the mesh points, from its exact symbolic derivatives."""
    names = mesh.coord_names
    alphas = _multi_indices(len(names), order)
    derivatives = {alphas[0]: expr}
    jet = np.empty((len(alphas), mesh.n_points))
    for row, alpha in enumerate(alphas):
        if row:
            i = next(k for k, a in enumerate(alpha) if a)
            parent = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
            derivatives[alpha] = derivatives[parent].diff(names[i])
        jet[row] = derivatives[alpha].eval_at(mesh.points) / math.prod(map(math.factorial, alpha))
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
    ``depth - len(w)``, starting from one jet per distinct field; all children
    of a word share its gradient.  Other fields use the finite-difference
    :func:`poisson`, which refuses four or more brackets unless
    ``allow_numeric`` is set.  ``BracketTable(f, g, depth)`` has root F and
    letters F and G, and reads every word behind the letter G (the core
    bracket ``{F, G}``), as :meth:`q_norm` and :meth:`khl_ratio` expect;
    :meth:`rooted` builds any other table.
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
            grads = {k: self._gradient(_taylor_jet(e, self.mesh, depth), depth) for k, e in distinct.items()}
            self._vectors = {name: self._hamiltonian_vector(grads[id(h)]) for name, h in letters.items()}
            self._gradients: dict[tuple, list[np.ndarray]] = {(): grads[id(root)]}

    def _gradient(self, jet: np.ndarray, order: int) -> list[np.ndarray]:
        return [_jet_partial(jet, i, self._dim, order) for i in range(self._dim)]

    def _hamiltonian_vector(self, grad: list[np.ndarray]) -> list[np.ndarray]:
        """``Pi grad H`` with ``{A, H} = grad A . Pi grad H``, as jets of order depth - 1."""
        if self.mesh.kind == "torus":
            return [grad[1], -grad[0]]
        order = self.depth - 1
        pts = self.mesh.points

        def times_x(j: int, i: int) -> np.ndarray:
            return _jet_times_coordinate(grad[j], i, pts[:, i], 3, order)

        # 4*pi * x . (grad A x grad H) = grad A . (4*pi * grad H x x)
        return [
            FOUR_PI * (times_x((j + 1) % 3, (j + 2) % 3) - times_x((j + 2) % 3, (j + 1) % 3))
            for j in range(3)
        ]

    def _bracket(self, grad: list[np.ndarray], letter, order: int) -> np.ndarray:
        return sum(_jet_product(a, v, self._dim, order) for a, v in zip(grad, self._vectors[letter]))

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
