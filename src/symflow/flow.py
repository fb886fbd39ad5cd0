"""Hamiltonian flows: exact, composed, and reference-integrated.

Exact flows are available for the two recognised families:

* sphere, linear ``H = a x + b y + c z``: rotation about ``(a, b, c)``
  with angular speed ``4 pi |(a, b, c)|`` (the factor matches the
  bracket normalisation in :mod:`symflow.bracket`);
* torus, ``H = f(q)`` or ``H = g(p)``: shears ``p -> p - t f'(q)``
  resp. ``q -> q + t g'(p)``.

Compositions are read right to left: in ``phi_{a1 F} o phi_{b1 G} o ...
o phi_{bm G}`` the last listed factor acts on the point first.  With
that convention the composition equals the flow of the time-dependent
Hamiltonian assembled by :func:`cocycle_hamiltonian` (first term
``a1 F``, each later term pulled back by the inverse flows of all
earlier factors), which is what the consistency tests check.

Order statements ("agrees with the flow modulo t**N") are measured on
finite probe sets: agreement of the maps is identified with agreement
at the sampled points, which the probe sizes here make a safe reading
for the smooth fields involved.
"""

from __future__ import annotations

import math
import warnings
import weakref
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np

from .bracket import FOUR_PI, BracketTable, q_norm
from .bracket import _multi_indices, _sphere_gradients, _torus_partials
from .errors import DegenerateInputError, InterpolationDominatesWarning, MeshMismatchError, NoConvergenceError
from .errors import NotRecognizedError, OutOfRangeError, SymbolicRequiredError
from .expr import Expression, compile_evaluator
from .manifold import NORMS, Mesh, ScalarField, interpolate
from .scheme import DEFAULT_T_GRID, SplittingScheme, _power_fit

__all__ = [
    "NotRecognizedError",
    "NoConvergenceError",
    "InterpolationDominatesWarning",
    "FlowMap",
    "recognize_flow",
    "exact_flow",
    "compose_scheme",
    "reference_flow",
    "reference_endpoints",
    "default_probes",
    "point_distances",
    "StaticHamiltonian",
    "LinearPathHamiltonian",
    "CocycleGenerator",
    "cocycle_hamiltonian",
    "remainder_norm",
    "remainder_ratio_sweep",
    "RemainderSweep",
    "ExpansionTerm",
    "composition_expansion",
    "expansion_partial_sum",
    "expansion_lhs",
    "flow_equivalence_order",
    "EquivalenceOrders",
]


# ---------------------------------------------------------------------------
# Atomic exact flows
#
# Each step maps an (n, d) point array (``apply``) and has an ``inverse``.  Times may
# be per row (a rotation then has a matrix per row).  ``CocycleGenerator.velocity``
# folds the steps' inverse Jacobians in closed form.
# ---------------------------------------------------------------------------


class _Identity:
    def apply(self, pts: np.ndarray) -> np.ndarray:
        return pts

    def inverse(self) -> "_Identity":
        return self


class _Rotation:
    """Rotation by ``4 pi |axis| * t`` about ``axis`` (right-hand rule)."""

    def __init__(self, axis: np.ndarray, t):
        self.axis = np.asarray(axis, dtype=float)
        self.t = t
        theta = FOUR_PI * np.linalg.norm(self.axis) * t
        n = self.axis / np.linalg.norm(self.axis)
        k = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]])
        sin, cos = (np.sin, np.cos) if np.ndim(t) else (math.sin, math.cos)
        theta = theta[:, None, None] if np.ndim(t) else theta
        self.matrix = np.eye(3) + sin(theta) * k + (1 - cos(theta)) * (k @ k)
        self._jac_inv = np.ascontiguousarray(np.swapaxes(self.matrix, -1, -2))  # a view would round differently

    def apply(self, pts: np.ndarray) -> np.ndarray:
        return np.einsum("nij,nj->ni", self.matrix, pts) if self.matrix.ndim == 3 else pts @ self.matrix.T

    def inverse(self) -> "_Rotation":
        return _Rotation(self.axis, -self.t)


class _Shear:
    """Torus shear generated by a Hamiltonian depending on one coordinate.

    ``axis == "q"`` means ``H = f(q)``: the flow moves ``p`` by
    ``-t f'(q)``.  ``axis == "p"`` means ``H = g(p)``: ``q`` moves by
    ``+t g'(p)``.  ``rate_fn`` is a compiled evaluator of the first
    derivative and ``jet_fn`` one of the first and second together, both
    taking the two coordinate columns.
    """

    def __init__(self, axis: str, rate_fn, jet_fn, t):
        self.axis = axis
        self.rate_fn = rate_fn
        self.jet_fn = jet_fn
        self.t = t

    def apply(self, pts: np.ndarray) -> np.ndarray:
        out = pts.copy()
        rate = self.rate_fn(pts[:, 0], pts[:, 1])
        if self.axis == "q":
            out[:, 1] = (out[:, 1] - self.t * rate) % 1.0
        else:
            out[:, 0] = (out[:, 0] + self.t * rate) % 1.0
        return out

    def inverse(self) -> "_Shear":
        return _Shear(self.axis, self.rate_fn, self.jet_fn, -self.t)


@dataclass
class FlowMap:
    """Composition of maps applied in list order (``steps[0]`` acts first)."""

    steps: list
    mesh_kind: str
    label: str = ""

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        for step in self.steps:
            pts = step.apply(pts)
        if np.ndim(points) == 1:
            return pts[0]
        return pts

    def inverse(self) -> "FlowMap":
        return FlowMap([s.inverse() for s in reversed(self.steps)], self.mesh_kind, self.label + "^-1")


_PROBE_SEED = 2024


def default_probes(mesh_kind: str, n: int = 160, seed: int = _PROBE_SEED) -> np.ndarray:
    """Deterministic probe points used for map comparisons."""
    rng = np.random.default_rng(seed)
    if mesh_kind == "torus":
        return rng.random((n, 2))
    pts = rng.normal(size=(n, 3))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def point_distances(mesh_kind: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise distances; periodic on the torus, chordal on the sphere."""
    if mesh_kind == "torus":
        d = a - b
        d -= np.round(d)
        return np.linalg.norm(d, axis=-1)
    return np.linalg.norm(a - b, axis=-1)


# ---------------------------------------------------------------------------
# Exact flow recognition
# ---------------------------------------------------------------------------

_REC_TOL = 1e-11


def _is_negligible(values: np.ndarray, scale: float) -> bool:
    return float(np.max(np.abs(values))) <= _REC_TOL * scale


#: recognize_flow's result per (expression object, mesh kind); an entry goes when its expression is collected.
_RECOGNISED: dict[tuple[int, str], tuple[str, Callable[[float], object]]] = {}


def recognize_flow(h: ScalarField) -> tuple[str, Callable[[float], object]]:
    """Classify a Hamiltonian and return ``(label, factory)``.

    The factory maps a time ``tau`` to the atomic exact-flow step, so a
    field recognised once can produce flows for many times without
    repeating the classification.  The result for an expression is kept
    while the expression lives: each field is recognised once per process.

    Raises
    ------
    NotRecognizedError
        If the field has no expression or falls outside the recognised
        families (sphere linear forms; torus single-coordinate fields).
    """
    if h.expr is None:
        if np.max(np.abs(h.values)) == 0.0:
            return "identity", lambda tau: _Identity()
        raise NotRecognizedError("exact flows need an expression-backed field")
    key = (id(h.expr), h.mesh.kind)
    if key not in _RECOGNISED:
        _RECOGNISED[key] = _recognize_expression(h.expr, h.mesh.kind)
        weakref.finalize(h.expr, _RECOGNISED.pop, key, None)
    return _RECOGNISED[key]


def _recognize_expression(expr: Expression, kind: str) -> tuple[str, Callable[[float], object]]:
    probes = default_probes(kind, n=48, seed=97531)
    if kind == "torus":
        dq = expr.diff("q")
        dp = expr.diff("p")
        vq = dq.eval_at(probes)
        vp = dp.eval_at(probes)
        scale = 1.0 + max(np.max(np.abs(vq)), np.max(np.abs(vp)))
        q_only = _is_negligible(vp, scale)
        p_only = _is_negligible(vq, scale)
        if q_only and p_only:
            return "identity", lambda tau: _Identity()
        if q_only or p_only:
            axis, rate = ("q", dq) if q_only else ("p", dp)
            rate_fn, jet_fn = compile_evaluator(rate), compile_evaluator(rate, rate.diff(axis))
            return f"shear-{axis}", lambda tau: _Shear(axis, rate_fn, jet_fn, tau)
        raise NotRecognizedError("torus field mixes q and p dependence")
    # sphere: require a linear form a*x + b*y + c*z (+ constant)
    partials = [expr.diff(v) for v in ("x", "y", "z")]
    grads = np.column_stack([d.eval_at(probes) for d in partials])
    scale = 1.0 + float(np.max(np.abs(grads)))
    spread = grads.max(axis=0) - grads.min(axis=0)
    if np.max(spread) > _REC_TOL * scale:
        raise NotRecognizedError("sphere field is not a linear form")
    axis = grads.mean(axis=0)
    residual = expr.eval_at(probes) - probes @ axis
    if not _is_negligible(residual - residual.mean(), 1.0 + float(np.max(np.abs(residual)))):
        raise NotRecognizedError("sphere field is not a linear form")
    if np.linalg.norm(axis) == 0.0:
        return "identity", lambda tau: _Identity()
    return "rotation", lambda tau: _Rotation(axis, tau)


def exact_flow(h: ScalarField, t: float) -> FlowMap:
    """Closed-form flow of a recognised Hamiltonian for time ``t`` (negative ``t`` runs it backwards).

    See :func:`recognize_flow` for the recognised families and the
    error raised otherwise.
    """
    label, factory = recognize_flow(h)
    return FlowMap([factory(t)], h.mesh.kind, label=label)


def _stages(scheme: SplittingScheme, f, g) -> list[tuple[float, object]]:
    """The nonzero stages ``(coef, item)`` in the order alpha_1 F, beta_1 G, alpha_2 F, ...

    ``f`` and ``g`` stand for the two generators: whatever a caller keeps
    per generator (a field, a flow factory, compiled evaluators).
    """
    return [
        (coef, item)
        for alpha, beta in zip(scheme.alphas, scheme.betas)
        for coef, item in ((alpha, f), (beta, g))
        if coef != 0.0
    ]


def compose_scheme(scheme: SplittingScheme, f: ScalarField, g: ScalarField, t: float) -> FlowMap:
    """One full step of a splitting scheme, built from exact flows.

    The returned map applies the stages right to left, so the last
    nonzero stage acts first.  Zero-coefficient stages are skipped.
    With ``G = 0`` the result is the exact flow of ``F``.
    """
    _, f_factory = recognize_flow(f)
    _, g_factory = recognize_flow(g)
    steps = [factory(coef * t) for coef, factory in reversed(_stages(scheme, f_factory, g_factory))]
    return FlowMap(steps, f.mesh.kind, label=f"{scheme.label}@{t!r}")


# ---------------------------------------------------------------------------
# Time-dependent Hamiltonians with exact vector fields
# ---------------------------------------------------------------------------


def _compiled(*exprs):
    """Compiled evaluator of expressions at an array of points."""
    fn = compile_evaluator(*exprs)
    return lambda pts: fn(*pts.T)


class StaticHamiltonian:
    """Autonomous Hamiltonian: point evaluators and exact flow of one field, each built on first use.

    Values and the vector field are compiled from the field's expression; a field without
    one is interpolated on its mesh.  ``flow(tau)`` is the exact flow for time ``tau``; the
    field is recognised (:func:`recognize_flow`, once per expression) at the first call,
    which raises ``NotRecognizedError`` for a field outside the recognised families.
    """

    def __init__(self, field: ScalarField):
        self.field = field
        self.mesh_kind = field.mesh.kind

    def value(self, pts: np.ndarray, s: float = 0.0) -> np.ndarray:
        return self._value(pts)

    def velocity(self, pts: np.ndarray, s: float = 0.0) -> np.ndarray:
        return self._velocity(pts)

    def flow(self, tau):
        return recognize_flow(self.field)[1](tau)

    @cached_property
    def _value(self):
        return _compiled(self.field.expr) if self.field.expr is not None else partial(interpolate, self.field)

    @cached_property
    def _velocity(self):
        """Hamiltonian vector field as a point evaluator.

        Compiled from the expression's partials; a field without an expression
        takes its mesh partials once (central differences on the torus,
        least-squares gradients on the sphere) and interpolates them.
        """
        field, mesh = self.field, self.field.mesh
        if field.expr is not None:
            grads = _compiled(*map(field.expr.diff, mesh.coord_names))
        else:
            if mesh.kind == "torus":
                partials = _torus_partials(mesh, field.values)
            else:
                partials = _sphere_gradients(mesh, field.values).T
            interpolants = [partial(interpolate, ScalarField(mesh, d)) for d in partials]
            grads = lambda pts: [g(pts) for g in interpolants]
        if mesh.kind == "torus":
            def torus_velocity(pts: np.ndarray) -> np.ndarray:
                (gq, gp), out = grads(pts), np.empty(pts.shape)
                out[:, 0], out[:, 1] = gp, -gq
                return out
            return torus_velocity

        def sphere_velocity(pts: np.ndarray) -> np.ndarray:  # 4 pi grad H x p in the products np.cross takes
            (dx, dy, dz), (x, y, z) = grads(pts), pts.T
            return FOUR_PI * np.stack([dy * z - dz * y, dz * x - dx * z, dx * y - dy * x], axis=1)

        return sphere_velocity


class LinearPathHamiltonian:
    """Time-dependent ``sum_j c_j(s) * field_j`` of analytic fields; ``c_j`` takes a float or per-row ``s``."""

    def __init__(self, terms: Sequence[tuple[Callable[[float], float], ScalarField]]):
        if not terms:
            raise ValueError("at least one term required")
        if any(fld.expr is None for _, fld in terms):
            raise SymbolicRequiredError("path terms must be expression-backed fields")
        self.terms = list(terms)
        self.mesh_kind = self.terms[0][1].mesh.kind
        self._hams = [(coef_fn, StaticHamiltonian(fld)) for coef_fn, fld in self.terms]

    def value(self, pts: np.ndarray, s: float) -> np.ndarray:
        total = np.zeros(pts.shape[0])
        for coef_fn, h in self._hams:
            total += coef_fn(s) * h.value(pts)
        return total

    def velocity(self, pts: np.ndarray, s) -> np.ndarray:
        total = np.zeros_like(pts)
        for coef_fn, h in self._hams:
            total += np.expand_dims(coef_fn(s), -1) * h.velocity(pts)  # one coefficient per row
        return total


def _pullback_sum(stages: list[tuple[float, StaticHamiltonian]], pts: np.ndarray, s: float) -> np.ndarray:
    """``sum_i c_i H_i(x_i)``, each stage pulled back by the earlier stages.

    ``x_0 = pts`` and ``x_i`` is ``x_(i-1)`` moved by the inverse flow of
    stage ``i - 1`` over ``c_(i-1) s``; no point moves after the last stage.
    """
    total = np.zeros(pts.shape[0])
    current = pts
    for i, (coef, h) in enumerate(stages):
        if i and s != 0.0:
            prev_coef, prev = stages[i - 1]
            try:
                step = prev.flow(-prev_coef * s)
            except NotRecognizedError as err:
                raise NotRecognizedError(
                    f"stage {i - 1} has no exact flow; the generator sum needs one per stage"
                ) from err
            current = step.apply(current)
        total += coef * h.value(current)
    return total


class CocycleGenerator:
    """Time-dependent Hamiltonian generating a splitting composition.

    At parameter ``s`` the composition ``Psi_s`` of exact stage flows is
    generated by a sum with one term per stage: the first term is
    ``alpha_1 F``; every later stage contributes its Hamiltonian pulled
    back by the inverse flows of all earlier stages.  Values and vector
    fields are evaluated exactly (expression-backed fields, closed-form
    stage flows and their Jacobians), with no interpolation.
    """

    def __init__(self, scheme: SplittingScheme, f: ScalarField, g: ScalarField):
        if f.expr is None or g.expr is None:
            raise SymbolicRequiredError("the composition generator needs expression-backed fields")
        self.scheme = scheme
        self.f = f
        self.g = g
        self.mesh_kind = f.mesh.kind
        self.stages = _stages(scheme, StaticHamiltonian(f), StaticHamiltonian(g))
        self._flows_at, self._flows = None, []  # sphere: inverse stage flows at a copy of the stage time s
        # recognises every stage's flow, so a field without one fails here
        self._shears = [(coef, st) for coef, st in ((c, h.flow(0.0)) for c, h in self.stages) if isinstance(st, _Shear)]

    def value(self, pts: np.ndarray, s: float) -> np.ndarray:
        return _pullback_sum(self.stages, pts, s)

    def velocity(self, pts: np.ndarray, s) -> np.ndarray:
        """Vector field at ``s``: a float, or an array with one time per row of ``pts``.

        A row gives what its float gives (on the sphere within rounding: it has its own
        rotation matrix).  On the torus each shear stage makes one evaluator call, at its point
        ``q, p`` of the walk: the rate gives the field, ``(0, -rate)`` for ``H = f(q)`` or
        ``(rate, 0)`` for ``H = g(p)``, and the shear to the next point; the curvature folds
        the inverse Jacobian ``[[a, b], [c, d]]``, four columns.  The last stage, and all at
        ``s = 0``, need the rate only; identity stages add nothing.  On the sphere the stage
        flows are kept for the last ``s``, compared by value with a copy.
        """
        total = np.zeros(pts.shape)
        moved = isinstance(s, np.ndarray) or s != 0.0
        if self.mesh_kind == "torus":
            (vq, vp), (q, p) = total.T, pts.T
            a, b, c, d = 1.0, 0.0, 0.0, 1.0
            for i, (coef, shear) in enumerate(self._shears):
                step = moved and i < len(self._shears) - 1
                rate, curv = shear.jet_fn(q, p) if step else (shear.rate_fn(q, p), None)
                if shear.axis == "q":
                    vq -= coef * (b * rate)
                    vp -= coef * (d * rate)
                else:
                    vq += coef * (a * rate)
                    vp += coef * (c * rate)
                if step:
                    u = coef * s
                    x = u * curv
                    if shear.axis == "q":
                        a, c, p = a - b * x, c - d * x, (p + u * rate) % 1.0
                    else:
                        b, d, q = b + a * x, d + c * x, (q - u * rate) % 1.0
            return total
        if moved and not np.array_equal(s, self._flows_at):
            self._flows_at, self._flows = np.copy(s), [h.flow(-coef * s) for coef, h in self.stages[:-1]]
        current, inv_jac = pts, None
        for i, (coef, h) in enumerate(self.stages):
            if i and moved and isinstance(step := self._flows[i - 1], _Rotation):  # an identity moves nothing
                inv_jac = step._jac_inv if inv_jac is None else inv_jac @ step._jac_inv
                current = step.apply(current)
            vel = h.velocity(current)
            total += coef * (vel if inv_jac is None else np.einsum("...ij,...j->...i", inv_jac, vel))
        return total


# ---------------------------------------------------------------------------
# Reference integration (an explicit Runge-Kutta tableau of order 8 with step doubling)
# ---------------------------------------------------------------------------

#: The 12-stage order-8 main formula of DOP853 (Prince & Dormand, J. Comput. Appl. Math. 7, 1981; Hairer,
#: Norsett & Wanner, *Solving ODEs I*, II.5 and II.10) as ``float.hex``: the nodes c, the rows of A below
#: the diagonal (row i holds i entries), the weights b.
_ORDER, _TABLEAU = 8, [float.fromhex(x) for x in """
0 0x1.aee6838dae63ap-5 0x1.432ce2aa42cacp-4 0x1.e4c353ff64302p-4 0x1.2068c499c08d9p-2 0x1.5555555555555p-2 0x1p-2
0x1.3b13b13b13b14p-2 0x1.4d74d74d74d75p-1 0x1.3333333333333p-1 0x1.b6db6db6db6dbp-1 0x1p+0
0x1.aee6838dae63ap-5 0x1.432ce2aa42cacp-6 0x1.e4c353ff64302p-5 0x1.e4c353ff64302p-6 0 0x1.6b927eff8b241p-4
0x1.ee50d7ecde9fap-3 0 -0x1.c4e3ab5ad1507p-1 0x1.d983d7ac79ef5p-1 0x1.2f684bda12f68p-5 0 0 0x1.5ddb63bdb6d36p-3
0x1.00f533f66f19ap-3 0x1.3p-5 0 0 0x1.5cad30f3347edp-3 0x1.ed4b3c332e04dp-5 -0x1.2p-6 0x1.2fdb8fee78792p-5 0 0
0x1.5cf23f6595d72p-3 0x1.b758640dea698p-4 -0x1.f5fcc20fcd32fp-7 0x1.0f1d92efb0b71p-7 0x1.3f8b78b985813p-1 0 0
-0x1.ae31bacc6bc8ap+1 -0x1.bc873f08e11f9p-1 0x1.b9793d88d1855p+4 0x1.42770f892ad69p+4 -0x1.5beb4865c42f9p+5
0x1.e9205e321b655p-2 0 0 -0x1.3e7a8a34bd27fp+1 -0x1.2e3a9968c93c8p-1 0x1.53ae4a6d655eep+4 0x1.e8ef7b5f258b8p+3
-0x1.0a4e418d711b9p+5 -0x1.4d1b3d9b4a876p-6 -0x1.dfd121f1d399bp-1 0 0 0x1.4bed869fb0b9dp+2 0x1.1768702792ea9p+0
-0x1.04cb0e2110c1cp+3 -0x1.2852305e975a8p+4 0x1.6bd4f06cb863ap+4 0x1.3f2e777cf109dp+1 -0x1.85fc60d2b572cp+1
0x1.22fbd3b09fcdcp+1 0 0 -0x1.511a963cafe55p+3 -0x1.001c935ac72acp+1 -0x1.1f57c8eff3006p+4 0x1.bf2ea18b58a01p+4
-0x1.6df3a7d1cec13p+1 -0x1.1bee71a9f33a9p+3 0x1.8b89c42c81861p+3 0x1.496ac6253e202p-1
0x1.bcc6368d1177cp-5 0 0 0 0 0x1.1cd1ed2ad5ae2p+2 0x1.e43a845d5ab9fp+0 -0x1.7346ecf96af43p+2 0x1.3ea1df2f0eb98p-2
-0x1.37a028f43b002p-3 0x1.9c657697fe72dp-3 0x1.6e44f50ab6bc2p-5
""".split()]
_C, _B = _TABLEAU[:12], _TABLEAU[-12:]
_A = [_TABLEAU[12 + i * (i - 1) // 2:12 + i * (i + 1) // 2] for i in range(12)]
_MIN_STEPS = 8  # steps of the first doubling level


def _weighted(coefs, ks: list) -> np.ndarray:
    """The sum of ``coef * k`` over the nonzero ``coefs``, elementwise and left to right."""
    terms = [coef * k for coef, k in zip(coefs, ks) if coef]
    return sum(terms[1:], terms[0])


def _rk_levels(ham, points: np.ndarray, t, nsteps):
    """The tableau's steps over ``[0, t]``, ``nsteps`` of them; sequences of ``t``, ``nsteps`` stack groups.

    One loop runs every group on all of ``points``, each row with its own step and stage time
    ``s`` (the float 0.0 at the first stage).  Stages combine in elementwise operations in a fixed
    order, so a row rounds as a run on its own would.  Yields (flat group index, endpoints) as each
    group leaves, fewest steps first, until the caller stops.
    """
    start = np.array(points, dtype=float)
    ts, ns = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(nsteps))
    groups = sorted(zip(ns.ravel().tolist(), ts.ravel().tolist(), range(ns.size)))  # the next to leave heads the rows
    m = len(start)
    h, pts = np.repeat([tg / n for n, tg, _ in groups], m), np.tile(start, (len(groups), 1))
    sphere, torus = ham.mesh_kind == "sphere", ham.mesh_kind == "torus"
    s, done = 0.0, 0
    for n, _, group in groups:
        col, offsets = h[:, None], [c * h for c in _C[1:]]
        for _ in range(done, n):
            ks = [ham.velocity(pts, s)]
            for row, off in zip(_A[1:], offsets):
                ks.append(ham.velocity(pts + col * _weighted(row, ks), s + off))
            pts = pts + col * _weighted(_B, ks)
            if sphere:
                pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            s = s + h
        done = max(done, n)
        ends, pts, h = pts[:m], pts[m:], h[m:]
        s = s[m:] if np.ndim(s) else s
        yield group, ends % 1.0 if torus else ends


def _rk(ham, points: np.ndarray, t, nsteps) -> np.ndarray:
    """The endpoints of every group of :func:`_rk_levels`, shaped as the broadcast ``t``, ``nsteps``."""
    shape = np.broadcast_shapes(np.shape(t), np.shape(nsteps)) + np.shape(points)
    levels = sorted(_rk_levels(ham, points, t, nsteps), key=lambda level: level[0])
    return np.array([ends for _, ends in levels]).reshape(shape)


@dataclass
class ReferenceFlow:
    """Endpoint map of a calibrated reference integration.

    ``probes`` and ``endpoints`` keep the calibration's final run: applied
    to points equal to those probes the map returns a copy of the kept
    endpoints, which is what integrating them again would give bit for bit.
    Any other points are integrated with ``nsteps`` steps.
    """

    ham: object
    t: float
    nsteps: int
    mesh_kind: str
    error_estimate: float
    probes: np.ndarray
    endpoints: np.ndarray

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if np.array_equal(pts, self.probes):
            out = self.endpoints.copy()
        else:
            out = _rk(self.ham, pts, self.t, self.nsteps)
        if np.ndim(points) == 1:
            return out[0]
        return out


def _coerce_hamiltonian(h) -> object:
    if isinstance(h, ScalarField):
        return StaticHamiltonian(h)
    if not hasattr(h, "velocity") or not hasattr(h, "mesh_kind"):
        raise TypeError("expected a ScalarField or a time-dependent Hamiltonian object")
    return h


def reference_flow(
    h,
    t: float,
    tol: float = 1e-12,
    probes: np.ndarray | None = None,
    max_steps: int = 1 << 17,
) -> ReferenceFlow:
    """Integrate the Hamiltonian vector field with step doubling.

    The tableau of order p = 8 runs with 8 steps, twice as many, and so on, on a probe set.  A
    run is kept, with a copy of the probes and its own endpoints, once its gap g to the one before
    is within ``tol`` (error estimate g), or once the last two doublings each shrank the gap
    2^(p-1)x to 2^(p+1)x, 2g/(2^p - 1) is within ``tol`` and g/(2^p - 1) is at least the rounding
    floor 1e-12 (error estimate 2g/(2^p - 1): in that h^p range its error is about g/(2^p - 1),
    Richardson's estimate; Hairer, Norsett & Wanner, *Solving ODEs I*, II.4).  One
    :func:`_rk_levels` loop runs the first two levels, the next as many more as the h^p law
    predicts for 2g/(2^p - 1), and so on; each level is checked as it leaves; the first kept or
    hopeless one stops the loop.  ``h`` gets ``s`` per row.

    Raises
    ------
    NoConvergenceError
        If no run is kept within the step budget, or if, once the last two doublings each
        shrank the gap 2^(p-1)x to 2^(p+1)x, even 2^(p+1)x per doubling left could not bring it
        within ``tol``: then at once.
    """
    ham = _coerce_hamiltonian(h)
    if probes is None:
        probes = default_probes(ham.mesh_kind, n=48, seed=777)
    probes = np.array(probes, dtype=float)
    drop = 2.0**_ORDER  # the gap's shrink per doubling in the h^p range
    low, high = drop / 2, 2 * drop
    batch, prev, gaps = [_MIN_STEPS, 2 * _MIN_STEPS], None, []
    while True:
        for n, (_, cur) in zip(batch, _rk_levels(ham, probes, t, batch)):  # a batch leaves in its order
            if prev is not None:
                gaps.append(gap := float(np.max(point_distances(ham.mesh_kind, cur, prev))))
                # The h^p range shows in two ratios in a row: on the way out of the pre-asymptotic
                # range an 18x drop can be followed by a 483x one.
                in_range = len(gaps) > 2 and all(low * b <= a <= high * b for a, b in zip(gaps[-3:], gaps[-2:]))
                est = 2.0 * gap / (drop - 1) if gap > tol and in_range and gap / (drop - 1) >= 1e-12 else gap
                if est <= tol:
                    return ReferenceFlow(ham, t, n, ham.mesh_kind, est, probes, cur)
                if n >= max_steps:
                    raise NoConvergenceError(f"reference flow stuck at gap {gap:.3e} with {n} steps (tol {tol:.1e})")
                aim = 2.0 * gap / ((drop - 1) * tol) if tol > 0.0 else math.inf
                more = max(1, math.ceil(math.log(aim, drop))) if math.isfinite(aim) else 1
                reach = [n * 2**j for j in range(1, 64) if n * 2 ** (j - 1) < max_steps]
                if in_range and 0.0 < tol * high ** len(reach) < gap:  # beyond h^p
                    raise NoConvergenceError(f"reference flow cannot reach tol {tol:.1e} by {max_steps} steps "
                                             f"(h^{_ORDER} law: {n * 2**more}): gaps "
                                             f"{', '.join(f'{g:.3e}' for g in gaps)} up to {n} steps")
            prev = cur
        batch = reach[:more]


def reference_endpoints(
    f_plus_g: ScalarField,
    t_list: Sequence[float],
    probes: np.ndarray,
    tol: float = 1e-13,
) -> dict:
    """Reference endpoints of the flow of one field for each ``t``.

    Calibrates the step size once at the largest ``t`` and reuses it,
    so the per-``t`` error estimate scales linearly with ``t``.  The
    endpoints at the largest ``t`` are the calibration's own.
    """
    ham = StaticHamiltonian(f_plus_g)
    t_max = max(t_list)
    ref = reference_flow(ham, t_max, tol=tol, probes=probes)
    rest = [t for t in t_list if t != t_max]
    nsteps = [max(_MIN_STEPS, math.ceil(ref.nsteps * t / t_max)) for t in rest]
    ends = dict(zip(rest, _rk(ham, probes, rest, nsteps)))
    ends[t_max] = ref.apply(probes)
    return {t: (ends[t], max(ref.error_estimate * (t / t_max), 1e-15)) for t in t_list}


# ---------------------------------------------------------------------------
# Cocycle Hamiltonian as a mesh field
# ---------------------------------------------------------------------------


def _interp_error_scale(fld: ScalarField) -> float:
    """Crude PL interpolation error proxy: a quarter of the max edge jump."""
    mesh = fld.mesh
    if mesh.kind == "torus":
        grid = mesh.grid_values(fld.values)
        jump = max(
            float(np.max(np.abs(grid - np.roll(grid, 1, axis=0)))),
            float(np.max(np.abs(grid - np.roll(grid, 1, axis=1)))),
        )
    else:
        e = mesh.edges()
        jump = float(np.max(np.abs(fld.values[e[:, 0]] - fld.values[e[:, 1]])))
    return 0.25 * jump


def cocycle_hamiltonian(scheme: SplittingScheme, f: ScalarField, g: ScalarField, t: float) -> ScalarField:
    """The generator of the scheme composition at time ``t``, on the mesh.

    Evaluates, at every mesh point, the stage sum ``alpha_1 F + beta_1 G
    o (stage-1 inverse flow) + ...`` where each stage's Hamiltonian is
    pulled back by the inverse exact flows of all earlier stages.  At
    ``t = 0`` this is exactly ``F + G``.

    Expression-backed fields are evaluated exactly at the transported
    points.  Fields without expressions fall back to mesh interpolation
    and emit :class:`InterpolationDominatesWarning` when the estimated
    interpolation error exceeds 1% of the result's magnitude.
    """
    mesh = f.mesh
    if not mesh.same_as(g.mesh):
        raise MeshMismatchError("fields live on different meshes")
    stages = _stages(scheme, StaticHamiltonian(f), StaticHamiltonian(g))
    total = _pullback_sum(stages, mesh.points, t)
    interp_budget = sum(abs(coef) * _interp_error_scale(h.field) for coef, h in stages if h.field.expr is None)
    if interp_budget > 0.0:
        scale = float(np.max(np.abs(total)))
        if interp_budget > 0.01 * max(scale, 1e-30):
            warnings.warn(
                f"interpolation error estimate {interp_budget:.2e} exceeds 1% of the "
                f"generator magnitude {scale:.2e}",
                InterpolationDominatesWarning,
            )
    return ScalarField(mesh, total, None)


def remainder_norm(scheme: SplittingScheme, f: ScalarField, g: ScalarField, t: float, norm: str = "uniform") -> float:
    """Norm of the generator defect ``K(t) - (F + G)``."""
    k = cocycle_hamiltonian(scheme, f, g, t)
    defect = ScalarField(f.mesh, k.values - (f.values + g.values))
    return NORMS[norm](defect)


@dataclass
class RemainderSweep:
    """Dyadic sweep of the generator defect against the bracket-size bound."""

    generation: int
    q_n: float
    rows: list[dict]
    kappa_max: float
    exponent: float | None


def remainder_ratio_sweep(
    scheme: SplittingScheme,
    f: ScalarField,
    g: ScalarField,
    t_list: Sequence[float] = None,
    norm: str = "uniform",
) -> RemainderSweep:
    """Sweep ``||K(t) - (F+G)||`` over ``t`` and compare with ``Q_N t^(N-1)``.

    ``N`` is the scheme's nominal order plus one, so the bound predicts
    a defect of order ``t**(N-1)``.  The ratio column estimates the
    bound's constant; the fitted exponent should not fall below N-1.

    Raises
    ------
    DegenerateInputError
        When the bracket-size functional vanishes (commuting pair).
    """
    if t_list is None:
        t_list = DEFAULT_T_GRID
    generation = scheme.nominal_order + 1
    qn = q_norm(generation, f, g, norm=norm)
    if qn == 0.0:
        raise DegenerateInputError("commuting pair: the bracket-size functional vanishes")
    rows = []
    for t in t_list:
        rem = remainder_norm(scheme, f, g, t, norm=norm)
        rows.append({"t": t, "remainder": rem, "ratio": rem / (qn * t ** (generation - 1))})
    usable = [(r["t"], r["remainder"]) for r in rows if r["remainder"] > 1e-14]
    exponent = _power_fit(*zip(*usable))[0] if len(usable) >= 3 else None
    kappa = max(r["ratio"] for r in rows)
    return RemainderSweep(generation, qn, rows, kappa, exponent)


# ---------------------------------------------------------------------------
# Composition expansion in iterated brackets
# ---------------------------------------------------------------------------


#: Smallest and largest ``order_cap`` of :func:`composition_expansion`.
EXPANSION_CAP_RANGE = (2, 6)


@dataclass
class ExpansionTerm:
    """One term of the bracket expansion of ``A`` composed with stage flows."""

    powers: tuple[int, ...]
    coefficient: float
    t_power: int
    field: ScalarField


def composition_expansion(
    a: ScalarField,
    hs: Sequence[ScalarField],
    order_cap: int,
) -> list[ExpansionTerm]:
    """Expand ``A o h^(1)_t o ... o h^(n)_t`` in iterated brackets.

    Terms are indexed by powers ``(i_1, ..., i_n)`` with total degree at
    most ``order_cap - 1``; the term with powers ``(i_1, ..., i_n)`` has
    coefficient ``1/(i_1! ... i_n!)``, carries ``t**(i_1+...+i_n)``, and
    its field applies ``i_1`` brackets with ``H_1`` first, then ``i_2``
    with ``H_2``, and so on.  The discarded tail is ``O(t**order_cap)``.
    Fields come from one ``BracketTable`` rooted at ``A``; like those of
    ``eval_monomial`` they carry no expression, apart from ``A`` itself.
    """
    n = len(hs)
    if not 1 <= n <= 4:
        raise OutOfRangeError(f"between 1 and 4 stage Hamiltonians supported, got {n}")
    lo, hi = EXPANSION_CAP_RANGE
    if not lo <= order_cap <= hi:
        raise OutOfRangeError(f"order cap must be in [{lo}, {hi}], got {order_cap}")
    if a.expr is None or any(h.expr is None for h in hs):
        raise SymbolicRequiredError("the expansion needs expression-backed fields")
    table = BracketTable.rooted(a, dict(enumerate(hs)), order_cap - 1)
    terms = []
    for powers in sorted(_multi_indices(n, order_cap - 1), key=lambda p: (sum(p), p)):
        word = tuple(j for j, i in enumerate(powers) for _ in range(i))
        coef = 1.0 / math.prod(map(math.factorial, powers))
        terms.append(ExpansionTerm(powers, coef, sum(powers), table.field(word)))
    return terms


def expansion_partial_sum(terms: Sequence[ExpansionTerm], t: float) -> np.ndarray:
    """Evaluate the truncated expansion at time ``t`` on the mesh."""
    total = np.zeros_like(terms[0].field.values)
    for term in terms:
        total += term.coefficient * t**term.t_power * term.field.values
    return total


def expansion_lhs(a: ScalarField, hs: Sequence[ScalarField], t: float) -> np.ndarray:
    """Evaluate ``A o h^(1)_t o ... o h^(n)_t`` exactly at the mesh points."""
    pts = a.mesh.points
    for h in reversed(hs):
        pts = exact_flow(h, t).apply(pts)
    return a.expr.eval_at(pts)


# ---------------------------------------------------------------------------
# Flow equivalence orders
# ---------------------------------------------------------------------------


@dataclass
class EquivalenceOrders:
    """Fitted exponents for map distance and generator distance."""

    flow_exponent: float
    hamiltonian_exponent: float
    rows: list[dict]

    @property
    def gap(self) -> float:
        return self.flow_exponent - self.hamiltonian_exponent


def flow_equivalence_order(
    u,
    v,
    mesh: Mesh,
    t_list: Sequence[float] = None,
    probes: np.ndarray | None = None,
    tol: float = 1e-12,
) -> EquivalenceOrders:
    """Fit how fast two time-dependent flows and their generators separate.

    For each ``t`` the two flows are reference-integrated over ``[0, t]``
    and the max endpoint distance recorded, together with the sup
    distance of the generators at parameter ``t`` over the mesh.  Both
    are fitted as powers of ``t``; if the generators differ at order
    ``t**(N-1)`` the maps differ at order ``t**N``, so the fitted gap
    should be 1.
    """
    if t_list is None:
        t_list = DEFAULT_T_GRID
    u = _coerce_hamiltonian(u)
    v = _coerce_hamiltonian(v)
    if probes is None:
        probes = default_probes(u.mesh_kind, n=64, seed=311)
    rows = []
    for t in t_list:
        end_u = reference_flow(u, t, tol=tol, probes=probes).apply(probes)
        end_v = reference_flow(v, t, tol=tol, probes=probes).apply(probes)
        flow_dist = float(np.max(point_distances(u.mesh_kind, end_u, end_v)))
        ham_dist = float(np.max(np.abs(u.value(mesh.points, t) - v.value(mesh.points, t))))
        rows.append({"t": t, "flow_distance": flow_dist, "hamiltonian_distance": ham_dist})

    def fit(key: str) -> float:
        pts = [(r["t"], r[key]) for r in rows if r[key] > 100.0 * tol]
        if len(pts) < 3:
            raise NoConvergenceError(f"too few usable points to fit {key}")
        return _power_fit(*zip(*pts))[0]

    return EquivalenceOrders(fit("flow_distance"), fit("hamiltonian_distance"), rows)
