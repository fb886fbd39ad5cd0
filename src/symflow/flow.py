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
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .bracket import FOUR_PI, BracketTable, q_norm
from .bracket import _multi_indices, _sphere_gradients, _torus_partials
from .errors import DegenerateInputError, InterpolationDominatesWarning, NoConvergenceError
from .errors import NotRecognizedError, OutOfRangeError, SymbolicRequiredError
from .expr import Const, compile_evaluator
from .manifold import NORMS, Mesh, ScalarField, interpolate
from .scheme import DEFAULT_T_GRID, SplittingScheme

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
# ``fold_jacobian(acc, pts)`` is the running inverse Jacobian ``acc`` (None for
# the identity) times the step's at ``pts``, in closed form: a unit triangular
# shear updates one column of the n x 2 x 2 stack in place; a rotation multiplies
# by its 3 x 3 matrix.  Times may be per row (a rotation then has a matrix per row).
# ---------------------------------------------------------------------------


class _Identity:
    def apply(self, pts: np.ndarray) -> np.ndarray:
        return pts

    def fold_jacobian(self, acc, pts: np.ndarray):
        return acc

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

    def fold_jacobian(self, acc, pts: np.ndarray) -> np.ndarray:
        return self._jac_inv if acc is None else acc @ self._jac_inv

    def inverse(self) -> "_Rotation":
        return _Rotation(self.axis, -self.t)


class _Shear:
    """Torus shear generated by a Hamiltonian depending on one coordinate.

    ``axis == "q"`` means ``H = f(q)``: the flow moves ``p`` by
    ``-t f'(q)``.  ``axis == "p"`` means ``H = g(p)``: ``q`` moves by
    ``+t g'(p)``.  ``rate_fn`` and ``curv_fn`` are compiled evaluators
    of the first and second derivative, taking the two coordinate
    columns.
    """

    def __init__(self, axis: str, rate_fn, curv_fn, t):
        self.axis = axis
        self.rate_fn = rate_fn
        self.curv_fn = curv_fn
        self.t = t

    def apply(self, pts: np.ndarray) -> np.ndarray:
        out = pts.copy()
        rate = self.rate_fn(pts[:, 0], pts[:, 1])
        if self.axis == "q":
            out[:, 1] = (out[:, 1] - self.t * rate) % 1.0
        else:
            out[:, 0] = (out[:, 0] + self.t * rate) % 1.0
        return out

    def fold_jacobian(self, acc, pts: np.ndarray) -> np.ndarray:
        if acc is None:
            acc = np.zeros((pts.shape[0], 2, 2))
            acc[:, 0, 0] = acc[:, 1, 1] = 1.0
        curv = self.curv_fn(pts[:, 0], pts[:, 1])
        if self.axis == "q":
            acc[:, :, 0] += acc[:, :, 1] * (self.t * curv)[:, None]
        else:
            acc[:, :, 1] += acc[:, :, 0] * (-self.t * curv)[:, None]
        return acc

    def inverse(self) -> "_Shear":
        return _Shear(self.axis, self.rate_fn, self.curv_fn, -self.t)


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


def recognize_flow(h: ScalarField) -> tuple[str, Callable[[float], object]]:
    """Classify a Hamiltonian and return ``(label, factory)``.

    The factory maps a time ``tau`` to the atomic exact-flow step, so a
    field recognised once can produce flows for many times without
    repeating the classification.

    Raises
    ------
    NotRecognizedError
        If the field has no expression or falls outside the recognised
        families (sphere linear forms; torus single-coordinate fields).
    """
    mesh = h.mesh
    if h.expr is None:
        if np.max(np.abs(h.values)) == 0.0:
            return "identity", lambda tau: _Identity()
        raise NotRecognizedError("exact flows need an expression-backed field")
    probes = default_probes(mesh.kind, n=48, seed=97531)
    if mesh.kind == "torus":
        dq = h.expr.diff("q")
        dp = h.expr.diff("p")
        vq = dq.eval_at(probes)
        vp = dp.eval_at(probes)
        scale = 1.0 + max(np.max(np.abs(vq)), np.max(np.abs(vp)))
        q_only = _is_negligible(vp, scale)
        p_only = _is_negligible(vq, scale)
        if q_only and p_only:
            return "identity", lambda tau: _Identity()
        if q_only:
            rate, curv = compile_evaluator(dq), compile_evaluator(dq.diff("q"))
            return "shear-q", lambda tau: _Shear("q", rate, curv, tau)
        if p_only:
            rate, curv = compile_evaluator(dp), compile_evaluator(dp.diff("p"))
            return "shear-p", lambda tau: _Shear("p", rate, curv, tau)
        raise NotRecognizedError("torus field mixes q and p dependence")
    # sphere: require a linear form a*x + b*y + c*z (+ constant)
    partials = [h.expr.diff(v) for v in ("x", "y", "z")]
    grads = np.column_stack([d.eval_at(probes) for d in partials])
    scale = 1.0 + float(np.max(np.abs(grads)))
    spread = grads.max(axis=0) - grads.min(axis=0)
    if np.max(spread) > _REC_TOL * scale:
        raise NotRecognizedError("sphere field is not a linear form")
    axis = grads.mean(axis=0)
    residual = h.expr.eval_at(probes) - probes @ axis
    if not _is_negligible(residual - residual.mean(), 1.0 + float(np.max(np.abs(residual)))):
        raise NotRecognizedError("sphere field is not a linear form")
    if np.linalg.norm(axis) == 0.0:
        return "identity", lambda tau: _Identity()
    return "rotation", lambda tau: _Rotation(axis, tau)


def exact_flow(h: ScalarField, t: float, direction: int = 1) -> FlowMap:
    """Closed-form flow of a recognised Hamiltonian for time ``t * direction``.

    See :func:`recognize_flow` for the recognised families and the
    error raised otherwise.
    """
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    label, factory = recognize_flow(h)
    return FlowMap([factory(t * direction)], h.mesh.kind, label=label)


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


def _compiled(expr):
    """Compiled evaluator of an expression at an array of points."""
    fn = compile_evaluator(expr)
    return lambda pts: fn(*pts.T)


def _value_fn(field: ScalarField):
    """Point evaluator of a field: compiled from its expression, else mesh interpolation."""
    return _compiled(field.expr) if field.expr is not None else partial(interpolate, field)


def _velocity_fn(field: ScalarField):
    """Hamiltonian vector field of a field, as a point evaluator.

    Compiled from the expression's partials; a field without an expression
    takes its mesh partials once (central differences on the torus,
    least-squares gradients on the sphere) and interpolates them.
    """
    mesh = field.mesh
    if field.expr is not None:
        # a partial folded to the constant +0 would give +0 at every finite point: the float 0.0 rounds the same
        grads = [(lambda pts: 0.0) if d.root == Const(0.0) and math.copysign(1.0, d.root.value) > 0 else _compiled(d)
                 for d in map(field.expr.diff, mesh.coord_names)]
    else:
        if mesh.kind == "torus":
            partials = _torus_partials(mesh, field.values)
        else:
            partials = _sphere_gradients(mesh, field.values).T
        grads = [partial(interpolate, ScalarField(mesh, d)) for d in partials]
    if mesh.kind == "torus":
        gq, gp = grads

        def torus_velocity(pts: np.ndarray) -> np.ndarray:
            out = np.empty(pts.shape)
            out[:, 0], out[:, 1] = gp(pts), -gq(pts)
            return out
        return torus_velocity

    def sphere_velocity(pts: np.ndarray) -> np.ndarray:  # 4 pi grad H x p in the products np.cross takes
        (dx, dy, dz), (x, y, z) = [d(pts) for d in grads], pts.T
        return FOUR_PI * np.stack([dy * z - dz * y, dz * x - dx * z, dx * y - dy * x], axis=1)

    return sphere_velocity


class StaticHamiltonian:
    """Autonomous Hamiltonian; exact gradients when an expression is present."""

    def __init__(self, field: ScalarField):
        self.field = field
        self.mesh_kind = field.mesh.kind
        self._value = _value_fn(field)
        self._velocity = _velocity_fn(field)

    def value(self, pts: np.ndarray, s: float) -> np.ndarray:
        return self._value(pts)

    def velocity(self, pts: np.ndarray, s: float) -> np.ndarray:
        return self._velocity(pts)


class LinearPathHamiltonian:
    """Time-dependent ``sum_j c_j(s) * field_j`` of analytic fields; ``c_j`` takes a float or per-row ``s``."""

    def __init__(self, terms: Sequence[tuple[Callable[[float], float], ScalarField]]):
        if not terms:
            raise ValueError("at least one term required")
        if any(fld.expr is None for _, fld in terms):
            raise SymbolicRequiredError("path terms must be expression-backed fields")
        self.terms = list(terms)
        self.mesh_kind = self.terms[0][1].mesh.kind
        self._evaluators = [(coef_fn, _value_fn(fld), _velocity_fn(fld)) for coef_fn, fld in self.terms]

    def value(self, pts: np.ndarray, s: float) -> np.ndarray:
        total = np.zeros(pts.shape[0])
        for coef_fn, value, _ in self._evaluators:
            total += coef_fn(s) * value(pts)
        return total

    def velocity(self, pts: np.ndarray, s) -> np.ndarray:
        total = np.zeros_like(pts)
        for coef_fn, _, velocity in self._evaluators:
            total += np.expand_dims(coef_fn(s), -1) * velocity(pts)  # one coefficient per row
        return total


class _StageHamiltonian:
    """One stage Hamiltonian: point evaluators built once, and its exact flow.

    Fields without an expression are evaluated by mesh interpolation.
    With ``velocity`` the vector field is compiled too and the exact flow
    is recognised at once; otherwise it is recognised on first use, which
    lets the last stage, after which the walk moves no point, be a field
    without an exact flow.
    """

    def __init__(self, field: ScalarField, velocity: bool = False):
        self.field = field
        self.value = _value_fn(field)
        self.velocity = _velocity_fn(field) if velocity else None
        self._factory = recognize_flow(field)[1] if velocity else None

    def flow(self, tau: float):
        if self._factory is None:
            self._factory = recognize_flow(self.field)[1]
        return self._factory(tau)


def _pullback_sum(stages: list[tuple[float, _StageHamiltonian]], pts: np.ndarray, s: float) -> np.ndarray:
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
        self.stages = _stages(scheme, _StageHamiltonian(f, velocity=True), _StageHamiltonian(g, velocity=True))
        self._flows_at, self._flows = None, []  # inverse stage flows at the stage time _flows_at

    def value(self, pts: np.ndarray, s: float) -> np.ndarray:
        return _pullback_sum(self.stages, pts, s)

    def velocity(self, pts: np.ndarray, s) -> np.ndarray:
        """Vector field at ``s``: a float, or an array with one time per row of ``pts``.

        A row gives what its float gives (on the sphere within rounding: it has its own
        rotation matrix).  Stage flows are kept per unchangeable ``s``: a float or read-only array.
        """
        total = np.zeros(pts.shape)
        moved = isinstance(s, np.ndarray) or s != 0.0
        if moved and (s is not self._flows_at or isinstance(s, np.ndarray) and s.flags.writeable):
            self._flows_at, self._flows = s, [h.flow(-coef * s) for coef, h in self.stages[:-1]]
        current, inv_jac = pts, None
        for i, (coef, h) in enumerate(self.stages):
            if i and moved:
                step = self._flows[i - 1]
                inv_jac = step.fold_jacobian(inv_jac, current)
                current = step.apply(current)
            vel = h.velocity(current)
            total += coef * (vel if inv_jac is None else np.einsum("...ij,...j->...i", inv_jac, vel))
        return total


# ---------------------------------------------------------------------------
# Reference integration (classical one-step order 4 with step doubling)
# ---------------------------------------------------------------------------


def _rk4(ham, points: np.ndarray, t, nsteps) -> np.ndarray:
    """Classical RK4 over ``[0, t]`` in ``nsteps`` steps; sequences of ``t``, ``nsteps`` stack groups.

    One loop runs every group on all of ``points``, each row with its own step and stage time
    ``s`` (read-only; the float 0.0 at the first k1), so a row rounds as a run on its own would.
    """
    start = np.array(points, dtype=float)
    ts, ns = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(nsteps))
    groups = sorted(zip(ns.ravel().tolist(), ts.ravel().tolist(), range(ns.size)))  # the next to leave heads the rows
    m = len(start)
    h, pts = np.repeat([tg / n for n, tg, _ in groups], m), np.tile(start, (len(groups), 1))
    out = np.empty((len(groups),) + start.shape)
    sphere = ham.mesh_kind == "sphere"
    s, done = 0.0, 0
    for n, _, group in groups:
        col = h[:, None]
        for _ in range(done, n):
            mid, end = s + 0.5 * h, s + h
            mid.flags.writeable = end.flags.writeable = False
            k1 = ham.velocity(pts, s)
            k2 = ham.velocity(pts + 0.5 * col * k1, mid)
            k3 = ham.velocity(pts + 0.5 * col * k2, mid)
            k4 = ham.velocity(pts + col * k3, end)
            pts = pts + (col / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if sphere:
                pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            s = end
        done = max(done, n)
        out[group], pts, h = pts[:m], pts[m:], h[m:]
        s = s[m:] if np.ndim(s) else s
    if ham.mesh_kind == "torus":
        out %= 1.0
    return out.reshape(ts.shape + start.shape)


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
            out = _rk4(self.ham, pts, self.t, self.nsteps)
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
    min_steps: int = 16,
    max_steps: int = 1 << 17,
) -> ReferenceFlow:
    """Integrate the Hamiltonian vector field with step doubling.

    RK4 runs with ``min_steps``, twice as many, and so on, on a probe set; the first
    run within ``tol`` of the one before is kept, with that gap as the error estimate,
    a copy of the probes and its endpoints.  One :func:`_rk4` loop runs the first two
    levels, the next as many more as the h^4 law (Hairer, Norsett & Wanner, *Solving
    ODEs I*, II.4) predicts from the last gap, and so on; scanned in order, an overshoot
    costs time, not identity.  ``h`` gets ``s`` as an array of per-row times.

    Raises
    ------
    NoConvergenceError
        If the gap never reaches ``tol`` within the step budget.
    """
    ham = _coerce_hamiltonian(h)
    if probes is None:
        probes = default_probes(ham.mesh_kind, n=48, seed=777)
    probes = np.array(probes, dtype=float)
    batch, prev = [min_steps, 2 * min_steps], None
    while True:
        for n, cur in zip(batch, _rk4(ham, probes, t, batch)):
            if prev is not None:
                gap = float(np.max(point_distances(ham.mesh_kind, cur, prev)))
                if gap <= tol:
                    return ReferenceFlow(ham, t, n, ham.mesh_kind, gap, probes, cur)
                if n >= max_steps:
                    raise NoConvergenceError(f"reference flow stuck at gap {gap:.3e} with {n} steps (tol {tol:.1e})")
            prev = cur
        more = max(1, math.ceil(math.log(gap / tol, 16))) if tol > 0.0 and math.isfinite(gap / tol) else 1
        batch = [n * 2**j for j in range(1, more + 1) if n * 2 ** (j - 1) < max_steps]


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
    nsteps = [max(16, math.ceil(ref.nsteps * t / t_max)) for t in rest]
    ends = dict(zip(rest, _rk4(ham, probes, rest, nsteps)))
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
        raise ValueError("fields live on different meshes")
    stages = _stages(scheme, _StageHamiltonian(f), _StageHamiltonian(g))
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
    exponent = None
    if len(usable) >= 3:
        log_t = np.log([u[0] for u in usable])
        log_r = np.log([u[1] for u in usable])
        exponent = float(np.polyfit(log_t, log_r, 1)[0])
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
        log_t = np.log([p[0] for p in pts])
        log_d = np.log([p[1] for p in pts])
        return float(np.polyfit(log_t, log_d, 1)[0])

    return EquivalenceOrders(fit("flow_distance"), fit("hamiltonian_distance"), rows)
