"""Exact flows, reference integration, composition generators, expansions."""

import itertools
import math
import pickle
import warnings
from typing import Callable

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from symflow import flow
from symflow.bracket import FOUR_PI, DegenerateInputError, OutOfRangeError, SymbolicRequiredError, poisson
from symflow.flow import (
    CocycleGenerator,
    EquivalenceOrders,
    InterpolationDominatesWarning,
    LinearPathHamiltonian,
    NoConvergenceError,
    NotRecognizedError,
    StaticHamiltonian,
    cocycle_hamiltonian,
    compose_scheme,
    composition_expansion,
    default_probes,
    exact_flow,
    expansion_lhs,
    expansion_partial_sum,
    flow_equivalence_order,
    point_distances,
    reference_endpoints,
    reference_flow,
    remainder_norm,
    remainder_ratio_sweep,
)
from symflow.expr import compile_evaluator
from symflow.manifold import ScalarField, build_sphere, build_torus, sample, uniform_norm
from symflow.scheme import SplittingScheme, lie_trotter, strang, yoshida


@pytest.fixture(scope="module")
def torus():
    return build_torus(64, 64)


@pytest.fixture(scope="module")
def sphere():
    return build_sphere(4)


@pytest.fixture(scope="module")
def torus_pair(torus):
    return (
        sample(torus, "0.3*sin(2*pi*q)", name="f"),
        sample(torus, "0.2*cos(2*pi*p)", name="g"),
    )


@pytest.fixture(scope="module")
def sphere_pair(sphere):
    return (
        sample(sphere, "0.35*x", name="f"),
        sample(sphere, "0.25*z", name="g"),
    )


# ---------------------------------------------------------------------------
# Exact flows
# ---------------------------------------------------------------------------


def test_shear_q_closed_form(torus):
    h = sample(torus, "0.3*sin(2*pi*q)")
    pts = default_probes("torus", 50, seed=1)
    out = exact_flow(h, 0.3).apply(pts)
    expect_p = (pts[:, 1] - 0.3 * (0.3 * 2 * np.pi * np.cos(2 * np.pi * pts[:, 0]))) % 1.0
    assert np.allclose(out[:, 0], pts[:, 0], atol=1e-14)
    assert np.allclose(out[:, 1], expect_p, atol=1e-13)


def test_shear_p_closed_form(torus):
    h = sample(torus, "0.2*cos(2*pi*p)")
    pts = default_probes("torus", 50, seed=2)
    out = exact_flow(h, 0.7).apply(pts)
    expect_q = (pts[:, 0] + 0.7 * (-0.2 * 2 * np.pi * np.sin(2 * np.pi * pts[:, 1]))) % 1.0
    assert np.allclose(out[:, 1], pts[:, 1], atol=1e-14)
    assert np.allclose(out[:, 0], expect_q, atol=1e-13)


def test_rotation_about_z(sphere):
    h = sample(sphere, "0.25*z")
    t = 0.15
    theta = 4 * np.pi * 0.25 * t
    pts = default_probes("sphere", 40, seed=3)
    out = exact_flow(h, t).apply(pts)
    expect = np.column_stack(
        [
            np.cos(theta) * pts[:, 0] - np.sin(theta) * pts[:, 1],
            np.sin(theta) * pts[:, 0] + np.cos(theta) * pts[:, 1],
            pts[:, 2],
        ]
    )
    assert np.allclose(out, expect, atol=1e-12)


def test_rotation_group_properties(sphere):
    h = sample(sphere, "0.3*x + 0.1*y - 0.2*z")
    axis = np.array([0.3, 0.1, -0.2])
    rot = exact_flow(h, 0.23).steps[0]
    r = rot.matrix
    assert np.allclose(r @ r.T, np.eye(3), atol=1e-13)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-13)
    assert np.allclose(r @ axis, axis, atol=1e-13)
    theta = 4 * np.pi * np.linalg.norm(axis) * 0.23
    assert np.trace(r) == pytest.approx(1 + 2 * np.cos(theta), abs=1e-12)
    # composing two partial rotations equals one full rotation
    pts = default_probes("sphere", 20, seed=4)
    two_step = exact_flow(h, 0.09).apply(exact_flow(h, 0.14).apply(pts))
    one_step = exact_flow(h, 0.23).apply(pts)
    assert np.max(np.abs(two_step - one_step)) < 1e-13


@pytest.mark.parametrize(
    "mesh_name,h_src,a_src",
    [
        ("torus", "0.3*sin(2*pi*q)", "cos(2*pi*p)*sin(2*pi*q)"),
        ("torus", "0.2*cos(2*pi*p)", "sin(2*pi*q)+cos(2*pi*p)"),
        ("sphere", "0.3*x + 0.1*y - 0.2*z", "x^2*z - y"),
    ],
)
def test_flow_consistency_with_bracket(mesh_name, h_src, a_src, torus, sphere):
    """d/dt A(flow_H^t(x)) at t=0 must equal {A, H}(x)."""
    mesh = torus if mesh_name == "torus" else sphere
    h = sample(mesh, h_src)
    a = sample(mesh, a_src)
    pts = default_probes(mesh.kind, 60, seed=5)
    eps = 1e-5
    ahead = a.expr.eval_at(exact_flow(h, eps).apply(pts))
    behind = a.expr.eval_at(exact_flow(h, eps, direction=-1).apply(pts))
    rate = (ahead - behind) / (2 * eps)
    bracket = poisson(a, h).expr.eval_at(pts)
    assert np.max(np.abs(rate - bracket)) < 5e-7 * (1 + np.max(np.abs(bracket)))


def test_recognition_rejections(torus, sphere):
    with pytest.raises(NotRecognizedError):
        exact_flow(sample(torus, "sin(2*pi*q)*cos(2*pi*p)"), 0.1)
    with pytest.raises(NotRecognizedError):
        exact_flow(sample(sphere, "x^2"), 0.1)
    numeric = ScalarField(torus, np.ones(torus.n_points), None)
    with pytest.raises(NotRecognizedError):
        exact_flow(numeric, 0.1)


def test_zero_fields_give_identity(torus, sphere):
    pts_t = default_probes("torus", 10, seed=6)
    assert np.array_equal(exact_flow(sample(torus, "0"), 0.4).apply(pts_t), pts_t)
    zero_numeric = ScalarField(sphere, np.zeros(sphere.n_points), None)
    pts_s = default_probes("sphere", 10, seed=7)
    assert np.array_equal(exact_flow(zero_numeric, 0.4).apply(pts_s), pts_s)
    const = exact_flow(sample(sphere, "0.7"), 0.4)
    assert const.label == "identity"


def test_compose_inverse_consistency(sphere_pair):
    f, g = sphere_pair
    flow = compose_scheme(yoshida(4), f, g, 0.37)
    pts = default_probes("sphere", 80, seed=8)
    back = flow.inverse().apply(flow.apply(pts))
    assert np.max(point_distances("sphere", back, pts)) < 1e-12


def test_compose_preserves_sphere(sphere_pair):
    f, g = sphere_pair
    out = compose_scheme(yoshida(6), f, g, 0.9).apply(default_probes("sphere", 100, seed=9))
    assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) < 1e-10


def test_compose_with_zero_g_is_exact_flow(torus_pair):
    f, _ = torus_pair
    zero = sample(f.mesh, "0")
    pts = default_probes("torus", 40, seed=10)
    a = compose_scheme(strang(), f, zero, 0.31).apply(pts)
    b = exact_flow(f, 0.31).apply(pts)
    assert np.max(point_distances("torus", a, b)) < 1e-14


# ---------------------------------------------------------------------------
# Reference integration
# ---------------------------------------------------------------------------


def test_reference_matches_exact_rotation(sphere):
    h = sample(sphere, "0.3*x + 0.1*y - 0.2*z")
    pts = default_probes("sphere", 30, seed=11)
    ref = reference_flow(h, 0.3, tol=1e-12, probes=pts)
    assert ref.error_estimate <= 1e-12
    exact = exact_flow(h, 0.3).apply(pts)
    assert np.max(point_distances("sphere", ref.apply(pts), exact)) < 5e-12


def test_reference_matches_scipy_on_torus(torus_pair):
    f, g = torus_pair
    h = f + g

    def rhs(_t, y):
        pts = y.reshape(-1, 2)
        vel = StaticHamiltonian(h).velocity(pts, 0.0)
        return vel.ravel()

    pts = default_probes("torus", 12, seed=12)
    ref = reference_flow(h, 0.6, tol=1e-12, probes=pts).apply(pts)
    ivp = solve_ivp(rhs, (0.0, 0.6), pts.ravel(), rtol=1e-12, atol=1e-13, dense_output=False)
    end = ivp.y[:, -1].reshape(-1, 2) % 1.0
    assert np.max(point_distances("torus", ref, end)) < 1e-9


def test_numeric_velocity_on_sphere(sphere):
    h = ScalarField(sphere, sphere.points[:, 2].copy())  # H = z without an expression
    pts = default_probes("sphere", 20, seed=3)
    vel = StaticHamiltonian(h).velocity(pts, 0.0)
    exact = 4.0 * np.pi * np.column_stack([-pts[:, 1], pts[:, 0], np.zeros(len(pts))])
    assert np.max(np.abs(vel - exact)) <= 0.02 * 4.0 * np.pi
    assert sphere.lsq_gradient_operator() is sphere.lsq_gradient_operator()


def test_reference_energy_drift(sphere):
    h = sample(sphere, "x*y + 0.5*z^2")
    pts = default_probes("sphere", 30, seed=13)
    ref = reference_flow(h, 0.5, tol=1e-11, probes=pts)
    out = ref.apply(pts)
    drift = np.max(np.abs(h.expr.eval_at(out) - h.expr.eval_at(pts)))
    assert drift < 1e-9


def test_reference_no_convergence(sphere):
    h = sample(sphere, "x*y + 0.5*z^2")
    with pytest.raises(NoConvergenceError):
        reference_flow(h, 0.5, tol=1e-16, max_steps=64)


@pytest.fixture(scope="module")
def calibrated(torus_pair):
    """A Strang generator calibrated on twelve torus probes, with those probes."""
    gen = CocycleGenerator(strang(), *torus_pair)
    pts = default_probes("torus", 12, seed=17)
    return reference_flow(gen, 0.2, tol=1e-9, probes=pts), pts


def test_apply_on_the_calibration_probes_returns_the_kept_run(calibrated, monkeypatch):
    ref, pts = calibrated
    fresh = flow._rk4(ref.ham, pts, ref.t, ref.nsteps)
    monkeypatch.setattr(flow, "_rk4", lambda *a: pytest.fail("integrated the calibration probes again"))
    ends = ref.apply(pts.copy())
    assert np.array_equal(ends, fresh)
    ends[:] = 0.0
    assert np.array_equal(ref.apply(pts), fresh)  # the kept endpoints are handed out as copies


def test_apply_on_other_points_integrates(calibrated):
    ref, pts = calibrated
    for other in (pts[:5], pts[::-1], default_probes("torus", 12, seed=18)):
        assert np.array_equal(ref.apply(other), flow._rk4(ref.ham, other, ref.t, ref.nsteps))


def test_apply_on_one_point_returns_one_point(calibrated):
    ref, pts = calibrated
    one = ref.apply(pts[3])
    assert one.shape == (2,)
    assert np.array_equal(one, flow._rk4(ref.ham, pts[3:4], ref.t, ref.nsteps)[0])
    single = reference_flow(ref.ham, ref.t, tol=1e-9, probes=pts[3:4])
    assert np.array_equal(single.apply(pts[3]), single.endpoints[0])


def test_probes_changed_after_calibration_are_integrated(torus_pair):
    gen = CocycleGenerator(strang(), *torus_pair)
    pts = default_probes("torus", 12, seed=19)
    ref = reference_flow(gen, 0.2, tol=1e-9, probes=pts)
    kept = ref.apply(pts)
    pts[0] = (0.25, 0.75)
    moved = ref.apply(pts)
    assert np.array_equal(moved, flow._rk4(gen, pts, 0.2, ref.nsteps))
    assert not np.array_equal(moved[0], kept[0])
    assert np.array_equal(moved[1:], kept[1:])


def test_reference_endpoints_reuse_the_calibration_at_the_largest_t(torus_pair):
    f, g = torus_pair
    pts = default_probes("torus", 8, seed=20)
    ends = reference_endpoints(f + g, [0.05, 0.1], pts, tol=1e-10)
    ref = reference_flow(StaticHamiltonian(f + g), 0.1, tol=1e-10, probes=pts)
    assert np.array_equal(ends[0.1][0], flow._rk4(ref.ham, pts, 0.1, ref.nsteps))
    half = max(16, math.ceil(ref.nsteps * 0.05 / 0.1))
    assert np.array_equal(ends[0.05][0], flow._rk4(ref.ham, pts, 0.05, half))


# ---------------------------------------------------------------------------
# Batched reference runs and step prediction
# ---------------------------------------------------------------------------


def _sequential_doubling(ham, t, tol, probes, min_steps=16, max_steps=1 << 17):
    """Test-only reference for ``reference_flow``: one ``_rk4`` run per doubling, in turn."""
    n = min_steps
    prev = flow._rk4(ham, probes, t, n)
    while True:
        n *= 2
        cur = flow._rk4(ham, probes, t, n)
        gap = float(np.max(point_distances(ham.mesh_kind, cur, prev)))
        if gap <= tol:
            return n, gap, cur
        if n >= max_steps:
            raise NoConvergenceError(f"reference flow stuck at gap {gap:.3e} with {n} steps (tol {tol:.1e})")
        prev = cur


@pytest.fixture(scope="module")
def path_pair():
    """The linear-path pair of acceptance test 9: static u and u + s^2 w on the level-3 sphere."""
    mesh = build_sphere(3)
    u, w = sample(mesh, "x + 0.4*y"), sample(mesh, "0.5*z")
    return (LinearPathHamiltonian([(lambda s: 1.0, u)]),
            LinearPathHamiltonian([(lambda s: 1.0, u), (lambda s: s * s, w)]))


def _hamiltonian(kind, torus_pair, sphere_pair, sphere, path_pair):
    f, g = torus_pair
    return {
        "torus-lie-trotter": lambda: CocycleGenerator(lie_trotter(), f, g),
        "torus-strang": lambda: CocycleGenerator(strang(), f, g),
        "torus-yoshida4": lambda: CocycleGenerator(yoshida(4), f, g),
        "torus-static": lambda: StaticHamiltonian(f + g),
        "sphere-static": lambda: StaticHamiltonian(sample(sphere, "x*y + 0.5*z^2")),
        "sphere-yoshida4": lambda: CocycleGenerator(yoshida(4), *sphere_pair),
        "sphere-path": lambda: path_pair[1],
    }[kind]()


@pytest.mark.parametrize(
    "kind,t,tol",
    [
        ("torus-lie-trotter", 0.2, 1e-9),
        ("torus-strang", 0.2, 1e-10),
        ("torus-strang", 0.45, 1e-8),
        ("torus-yoshida4", 0.05, 1e-11),
        ("torus-static", 0.2, 1e-11),
        ("sphere-static", 0.3, 1e-10),
        ("sphere-path", 0.05, 1e-12),
    ],
)
def test_calibration_matches_the_sequential_doubling(kind, t, tol, torus_pair, sphere_pair, sphere, path_pair):
    ham = _hamiltonian(kind, torus_pair, sphere_pair, sphere, path_pair)
    pts = default_probes(ham.mesh_kind, 12, seed=22)
    ref = reference_flow(ham, t, tol=tol, probes=pts)
    nsteps, gap, ends = _sequential_doubling(ham, t, tol, pts)
    assert (ref.nsteps, ref.error_estimate) == (nsteps, gap)
    assert np.array_equal(ref.endpoints, ends)


def test_an_overshooting_prediction_keeps_the_first_converged_level(torus_pair, monkeypatch):
    """Yoshida 4 at tol 1e-8: the h^4 law asks for 512 steps, doubling stops at 256."""
    gen = CocycleGenerator(yoshida(4), *torus_pair)
    pts = default_probes("torus", 24, seed=5)
    batches, rk4 = [], flow._rk4
    monkeypatch.setattr(flow, "_rk4", lambda ham, p, t, n: batches.append(list(n)) or rk4(ham, p, t, n))
    ref = reference_flow(gen, 0.2, tol=1e-8, probes=pts)
    monkeypatch.setattr(flow, "_rk4", rk4)
    assert batches == [[16, 32], [64, 128, 256, 512]]
    nsteps, gap, ends = _sequential_doubling(gen, 0.2, 1e-8, pts)
    assert (ref.nsteps, ref.error_estimate) == (nsteps, gap) == (256, gap)
    assert np.array_equal(ref.endpoints, ends)


@pytest.mark.parametrize("kind,max_steps", [("torus-yoshida4", 100), ("sphere-static", 64), ("sphere-path", 256)])
def test_the_step_budget_raises_as_the_sequential_doubling_does(kind, max_steps, torus_pair, sphere_pair, sphere,
                                                                 path_pair):
    ham = _hamiltonian(kind, torus_pair, sphere_pair, sphere, path_pair)
    pts = default_probes(ham.mesh_kind, 8, seed=23)
    with pytest.raises(NoConvergenceError) as want:
        _sequential_doubling(ham, 0.45, 1e-16, pts, max_steps=max_steps)
    with pytest.raises(NoConvergenceError) as got:
        reference_flow(ham, 0.45, tol=1e-16, probes=pts, max_steps=max_steps)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "kind", ["torus-strang", "torus-static", "sphere-static", "sphere-yoshida4", "sphere-path"]
)
def test_a_multi_group_run_equals_separate_runs(kind, torus_pair, sphere_pair, sphere, path_pair):
    ham = _hamiltonian(kind, torus_pair, sphere_pair, sphere, path_pair)
    pts = default_probes(ham.mesh_kind, 7, seed=24)
    ts, ns = [0.2, 0.05, 0.2, 0.1], [16, 24, 40, 16]
    stacked = flow._rk4(ham, pts, ts, ns)
    assert stacked.shape == (4,) + pts.shape
    for ends, t, n in zip(stacked, ts, ns):
        assert np.array_equal(ends, flow._rk4(ham, pts, t, n))


@pytest.mark.parametrize("surface", ["torus", "sphere"])
def test_per_row_stage_times_give_each_row_its_float_velocity(surface, torus_pair, sphere_pair):
    gen = CocycleGenerator(yoshida(4), *(torus_pair if surface == "torus" else sphere_pair))
    pts = default_probes(gen.mesh_kind, 6, seed=25)
    s = np.array([0.0, 0.13, 0.3, 0.013, 0.45, 0.2])
    rows = np.array([gen.velocity(pts[i:i + 1], float(s[i]))[0] for i in range(len(s))])
    if surface == "torus":
        assert np.array_equal(gen.velocity(pts, s), rows)
    else:
        assert np.max(np.abs(gen.velocity(pts, s) - rows)) <= 1e-14
    fresh = gen.velocity(pts, s[::-1].copy())
    gen.velocity(pts, s)
    s[:] = s[::-1].copy()  # a writeable array changed in place gets new stage flows
    assert np.array_equal(gen.velocity(pts, s), fresh)


def test_kept_endpoints_of_a_sphere_generator_equal_a_fresh_run(sphere_pair):
    gen = CocycleGenerator(strang(), *sphere_pair)
    pts = default_probes("sphere", 12, seed=26)
    ref = reference_flow(gen, 0.2, tol=1e-9, probes=pts)
    assert np.array_equal(ref.apply(pts), flow._rk4(gen, pts, ref.t, ref.nsteps))


def test_velocity_rounds_as_the_column_stack_and_cross_forms(torus, sphere):
    """Filled columns and written-out cross products round as ``column_stack`` and ``np.cross`` did.

    The p-partial of ``sin(2 pi q)`` folds to the constant +0 and is not evaluated.
    """
    for mesh, exprs in ((torus, ["0.3*sin(2*pi*q)", "0.2*cos(2*pi*p)", "sin(2*pi*q)*cos(2*pi*p) - q"]),
                        (sphere, ["0.35*x", "0.3*x+0.1*y", "-z", "x*y + 0.5*z^2"])):
        pts = default_probes(mesh.kind, 9, seed=27)
        for text in exprs:
            h = sample(mesh, text)
            grads = [compile_evaluator(h.expr.diff(v))(*pts.T) for v in mesh.coord_names]
            if mesh.kind == "torus":
                want = np.column_stack([grads[1], -grads[0]])
            else:
                want = FOUR_PI * np.cross(np.column_stack(grads), pts)
            assert StaticHamiltonian(h).velocity(pts, 0.0).tobytes() == want.tobytes(), text


# ---------------------------------------------------------------------------
# Composition generator (cocycle)
# ---------------------------------------------------------------------------


def test_generator_at_zero_is_sum(torus_pair):
    f, g = torus_pair
    k = cocycle_hamiltonian(strang(), f, g, 0.0)
    assert np.max(np.abs(k.values - (f.values + g.values))) < 1e-15


def test_generator_class_matches_field(torus_pair):
    f, g = torus_pair
    gen = CocycleGenerator(yoshida(4), f, g)
    k = cocycle_hamiltonian(yoshida(4), f, g, 0.27)
    assert np.max(np.abs(gen.value(f.mesh.points, 0.27) - k.values)) < 1e-14


class ClosureHamiltonian:
    """Generic time-dependent Hamiltonian given only as ``fun(points, s)``.

    The vector field is obtained from fourth-order central differences
    of the closure, so accuracy bottoms out around ``fd_step**4``.  This
    is the test-only reference for ``CocycleGenerator.velocity``.
    """

    def __init__(self, fun: Callable[[np.ndarray, float], np.ndarray], mesh_kind: str, fd_step: float = 3e-4):
        self.fun = fun
        self.mesh_kind = mesh_kind
        self.fd_step = fd_step

    def value(self, pts: np.ndarray, s: float) -> np.ndarray:
        return self.fun(pts, s)

    def velocity(self, pts: np.ndarray, s: float) -> np.ndarray:
        n, dim = pts.shape
        h = self.fd_step
        offsets = np.array([-2.0, -1.0, 1.0, 2.0]) * h
        stack = np.repeat(pts[None, :, :], 4 * dim, axis=0)
        for axis in range(dim):
            for j, off in enumerate(offsets):
                stack[4 * axis + j, :, axis] += off
        vals = self.fun(stack.reshape(-1, dim), s).reshape(4 * dim, n)
        grad = np.empty((n, dim))
        for axis in range(dim):
            m2, m1, p1, p2 = vals[4 * axis: 4 * axis + 4]
            grad[:, axis] = (m2 - 8 * m1 + 8 * p1 - p2) / (12 * h)
        if self.mesh_kind == "torus":
            return np.column_stack([grad[:, 1], -grad[:, 0]])
        return FOUR_PI * np.cross(grad, pts)


@pytest.mark.parametrize("mesh_name", ["torus", "sphere"])
def test_generator_velocity_matches_finite_differences(mesh_name, torus_pair, sphere_pair):
    f, g = torus_pair if mesh_name == "torus" else sphere_pair
    gen = CocycleGenerator(strang(), f, g)
    fd = ClosureHamiltonian(gen.value, gen.mesh_kind)
    pts = default_probes(gen.mesh_kind, 40, seed=14)
    exactv = gen.velocity(pts, 0.3)
    approx = fd.velocity(pts, 0.3)
    assert np.max(np.abs(exactv - approx)) < 1e-8


def _stacked_velocity(gen: CocycleGenerator, pts: np.ndarray, s: float) -> np.ndarray:
    """Test-only reference for ``CocycleGenerator.velocity``: explicit Jacobian stacks.

    Every stage flow's inverse Jacobian is built as an n x d x d stack (a
    rotation's as its transposed matrix) and multiplied into the running
    product with ``einsum``; closed-form folds must agree with it bit for bit.
    """
    n, dim = pts.shape
    total = np.zeros((n, dim))
    current = pts
    inv_jac = np.broadcast_to(np.eye(dim), (n, dim, dim)).copy()
    for i, (coef, h) in enumerate(gen.stages):
        if i and s != 0.0:
            prev_coef, prev = gen.stages[i - 1]
            step = prev.flow(-prev_coef * s)
            if isinstance(step, flow._Shear):
                jinv = np.broadcast_to(np.eye(2), (n, 2, 2)).copy()
                curv = step.curv_fn(current[:, 0], current[:, 1])
                if step.axis == "q":
                    jinv[:, 1, 0] = step.t * curv
                else:
                    jinv[:, 0, 1] = -step.t * curv
                inv_jac = np.einsum("nij,njk->nik", inv_jac, jinv)
            else:
                inv_jac = inv_jac @ (step.matrix.T if isinstance(step, flow._Rotation) else np.eye(dim))
            current = step.apply(current)
        total += coef * np.einsum("nij,nj->ni", inv_jac, h.velocity(current))
    return total


@pytest.mark.parametrize("scheme", [lie_trotter(), strang(), yoshida(4), yoshida(6)], ids=lambda sc: sc.label)
@pytest.mark.parametrize("surface", ["torus", "sphere-axes", "sphere-skew"])
def test_generator_velocity_matches_the_jacobian_stacks(scheme, surface, torus_pair, sphere_pair, sphere):
    """Skew axes catch a rotation Jacobian held as a non-contiguous view, which rounds differently."""
    if surface == "torus":
        f, g = torus_pair
    elif surface == "sphere-axes":
        f, g = sphere_pair
    else:
        f, g = sample(sphere, "0.3*x+0.1*y"), sample(sphere, "0.2*z-0.4*y")
    gen = CocycleGenerator(scheme, f, g)
    pts = default_probes(gen.mesh_kind, 24, seed=21)
    for s in (0.0, 0.13, 0.3):
        assert np.array_equal(gen.velocity(pts, s), _stacked_velocity(gen, pts, s))


@pytest.mark.parametrize("mesh_name,scheme_fn", [("torus", strang), ("sphere", yoshida)])
def test_generator_flow_reproduces_composition(mesh_name, scheme_fn, torus_pair, sphere_pair):
    """Integrating the generator's vector field lands on the composition."""
    f, g = torus_pair if mesh_name == "torus" else sphere_pair
    scheme = strang() if scheme_fn is strang else yoshida(4)
    t = 0.25
    pts = default_probes(f.mesh.kind, 24, seed=15)
    gen = CocycleGenerator(scheme, f, g)
    ref = reference_flow(gen, t, tol=1e-11, probes=pts)
    direct = compose_scheme(scheme, f, g, t).apply(pts)
    gap = np.max(point_distances(f.mesh.kind, ref.apply(pts), direct))
    assert gap < max(1e-9, 20 * ref.error_estimate)


def test_fields_stay_picklable_after_a_generator_flow(torus_pair):
    f, g = torus_pair
    pts = default_probes("torus", 8, seed=16)
    reference_flow(CocycleGenerator(strang(), f, g), 0.1, tol=1e-8, probes=pts)
    for fld in (f, g):
        back = pickle.loads(pickle.dumps(fld))
        assert np.array_equal(back.values, fld.values)
        assert str(back.expr) == str(fld.expr)


@pytest.mark.parametrize("mesh_name", ["torus", "sphere"])
def test_interior_zero_stages_are_skipped(mesh_name, torus_pair, sphere_pair):
    """Zero coefficients inside a scheme change nothing: this one is Strang."""
    f, g = torus_pair if mesh_name == "torus" else sphere_pair
    padded = SplittingScheme((0.5, 0.0, 0.5), (0.0, 1.0, 0.0), 2, "padded-strang")
    pts = default_probes(f.mesh.kind, 30, seed=17)
    t = 0.23
    assert np.array_equal(compose_scheme(padded, f, g, t).apply(pts), compose_scheme(strang(), f, g, t).apply(pts))
    gen, ref = CocycleGenerator(padded, f, g), CocycleGenerator(strang(), f, g)
    assert np.array_equal(gen.value(pts, t), ref.value(pts, t))
    assert np.array_equal(gen.velocity(pts, t), ref.velocity(pts, t))
    assert np.array_equal(
        cocycle_hamiltonian(padded, f, g, t).values, cocycle_hamiltonian(strang(), f, g, t).values
    )


def test_generator_interpolation_warning(torus_pair):
    f, _ = torus_pair
    g_num = ScalarField(f.mesh, sample(f.mesh, "cos(2*pi*p)").values, None)
    with pytest.warns(InterpolationDominatesWarning):
        cocycle_hamiltonian(lie_trotter(), f, g_num, 0.2)


def test_generator_symbolic_emits_no_warning(torus_pair):
    f, g = torus_pair
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cocycle_hamiltonian(yoshida(4), f, g, 0.2)


# ---------------------------------------------------------------------------
# Remainder sweeps
# ---------------------------------------------------------------------------


# Sup-norm remainders saturate once the stage shears move points by O(1),
# so the unit sweeps start at a t0 small enough to stay asymptotic for
# these amplitudes.
SMALL_T = tuple(0.05 * 2.0**-k for k in range(6))


def test_remainder_lie_trotter(torus_pair):
    f, g = torus_pair
    sweep = remainder_ratio_sweep(lie_trotter(), f, g, t_list=SMALL_T)
    assert sweep.generation == 2
    assert sweep.exponent == pytest.approx(1.0, abs=0.1)
    assert 0.4 < sweep.kappa_max < 1.5
    ratios = [row["ratio"] for row in sweep.rows[-4:]]
    assert max(ratios) / min(ratios) < 2.0


def test_remainder_strang(torus_pair):
    f, g = torus_pair
    sweep = remainder_ratio_sweep(strang(), f, g, t_list=SMALL_T)
    assert sweep.generation == 3
    assert sweep.exponent == pytest.approx(2.0, abs=0.1)
    assert np.isfinite(sweep.kappa_max)


def test_remainder_commuting_pair_degenerate(torus):
    f = sample(torus, "sin(2*pi*q)")
    g = sample(torus, "cos(2*pi*q)")
    with pytest.raises(DegenerateInputError):
        remainder_ratio_sweep(lie_trotter(), f, g)


def test_remainder_norm_l1_below_uniform(torus_pair):
    f, g = torus_pair
    assert remainder_norm(strang(), f, g, 0.2, norm="l1") <= remainder_norm(strang(), f, g, 0.2)


# ---------------------------------------------------------------------------
# Bracket expansion of compositions
# ---------------------------------------------------------------------------


def test_expansion_single_flow_terms(torus):
    a = sample(torus, "cos(2*pi*p)")
    h = sample(torus, "0.3*sin(2*pi*q)")
    terms = composition_expansion(a, [h], 4)
    assert [t.powers for t in terms] == [(0,), (1,), (2,), (3,)]
    assert [t.coefficient for t in terms] == [1.0, 1.0, 0.5, pytest.approx(1 / 6)]
    assert np.allclose(terms[0].field.values, a.values)
    assert np.allclose(terms[1].field.values, poisson(a, h).values, atol=1e-12)


def test_expansion_residual_order_single(torus):
    a = sample(torus, "cos(2*pi*p)")
    h = sample(torus, "0.3*sin(2*pi*q)")
    cap = 3
    terms = composition_expansion(a, [h], cap)
    t_list = [0.2 * 2.0**-k for k in range(5)]
    errs = [
        np.max(np.abs(expansion_lhs(a, [h], t) - expansion_partial_sum(terms, t)))
        for t in t_list
    ]
    slope = np.polyfit(np.log(t_list), np.log(errs), 1)[0]
    assert slope == pytest.approx(cap, abs=0.2)


def test_expansion_residual_order_two_flows(torus_pair):
    f, g = torus_pair
    a = sample(f.mesh, "sin(2*pi*q)*cos(2*pi*p)")
    cap = 3
    terms = composition_expansion(a, [f, g], cap)
    # powers with total degree <= 2 over two flows: 6 terms
    assert len(terms) == 6
    t_list = [0.2 * 2.0**-k for k in range(5)]
    errs = [
        np.max(np.abs(expansion_lhs(a, [f, g], t) - expansion_partial_sum(terms, t)))
        for t in t_list
    ]
    slope = np.polyfit(np.log(t_list), np.log(errs), 1)[0]
    assert slope == pytest.approx(cap, abs=0.2)


def test_expansion_mixed_term_field(torus_pair):
    f, g = torus_pair
    a = sample(f.mesh, "sin(2*pi*q)*cos(2*pi*p)")
    terms = {t.powers: t for t in composition_expansion(a, [f, g], 3)}
    mixed = terms[(1, 1)]
    # bracket with the first flow's Hamiltonian applies first
    expected = poisson(poisson(a, f), g)
    assert np.max(np.abs(mixed.field.values - expected.values)) < 1e-12
    assert mixed.coefficient == 1.0
    assert mixed.t_power == 2


EXPANSION_SOURCES = {
    "torus": (
        "sin(2*pi*q)*exp(cos(2*pi*p))",
        ("0.3*sin(2*pi*q) + 0.1*cos(2*pi*p)^2", "exp(0.2*cos(2*pi*p))",
         "1/(2 + sin(2*pi*(q + p)))", "cos(2*pi*q)^3"),
    ),
    "sphere": (
        "x*y/(2 + z) + exp(z)",
        ("x^3 - 2*y*z + sin(y)", "exp(z) + 1/(2 + x)", "cos(x*y)", "y^2 + 0.5*z"),
    ),
}


@pytest.mark.parametrize("surface", ["torus", "sphere"])
@pytest.mark.parametrize("n, a_index", [(1, None), (2, 0), (3, None), (4, 2)])
def test_expansion_fields_match_the_symbolic_left_fold(surface, n, a_index):
    """Every term field of the table-backed expansion against a left fold of
    the public symbolic ``poisson``; ``a_index`` makes A one of the H_j."""
    mesh = build_torus(32, 32) if surface == "torus" else build_sphere(3)
    a_src, h_srcs = EXPANSION_SOURCES[surface]
    hs = [sample(mesh, s) for s in h_srcs[:n]]
    a = hs[a_index] if a_index is not None else sample(mesh, a_src)
    folded = {(0,) * n: a}  # every power once, from its parent one bracket lower
    for powers in sorted(itertools.product(range(6), repeat=n), key=sum):
        if 0 < sum(powers) <= 5:
            j = max(k for k in range(n) if powers[k])
            folded[powers] = poisson(folded[powers[:j] + (powers[j] - 1,) + powers[j + 1:]], hs[j])
    degree_max = {}
    for powers, ref in folded.items():
        degree_max[sum(powers)] = max(degree_max.get(sum(powers), 0.0), np.max(np.abs(ref.values)))
    for cap in range(2, 7):
        for term in composition_expansion(a, hs, cap):
            ref = folded[term.powers].values
            # a bracket that vanishes identically ({A, A} and what follows it)
            # is held to the largest term of its degree
            scale = np.max(np.abs(ref)) or degree_max[term.t_power]
            assert np.max(np.abs(term.field.values - ref)) <= 1e-10 * scale, (cap, term.powers)


def test_expansion_guards(torus_pair):
    f, g = torus_pair
    a = sample(f.mesh, "sin(2*pi*q)")
    with pytest.raises(OutOfRangeError):
        composition_expansion(a, [f, g], 7)
    with pytest.raises(OutOfRangeError):
        composition_expansion(a, [f] * 5, 3)
    numeric = ScalarField(f.mesh, g.values, None)
    with pytest.raises(SymbolicRequiredError):
        composition_expansion(a, [numeric], 3)


# ---------------------------------------------------------------------------
# Flow equivalence orders
# ---------------------------------------------------------------------------


def test_flow_equivalence_gap():
    mesh = build_sphere(3)
    u = sample(mesh, "x + 0.4*y")
    w = sample(mesh, "0.5*z")
    static = LinearPathHamiltonian([(lambda s: 1.0, u)])
    perturbed = LinearPathHamiltonian([(lambda s: 1.0, u), (lambda s: s * s, w)])
    t_list = [0.05 * 2.0**-k for k in range(5)]
    result = flow_equivalence_order(static, perturbed, mesh, t_list=t_list, tol=1e-12)
    assert isinstance(result, EquivalenceOrders)
    assert result.hamiltonian_exponent == pytest.approx(2.0, abs=0.02)
    assert result.flow_exponent == pytest.approx(3.0, abs=0.15)
    assert result.gap == pytest.approx(1.0, abs=0.15)


# ---------------------------------------------------------------------------
# Probe and distance helpers
# ---------------------------------------------------------------------------


def test_default_probes_deterministic():
    a = default_probes("torus")
    b = default_probes("torus")
    assert np.array_equal(a, b)
    assert a.shape == (160, 2)
    assert np.all((a >= 0) & (a < 1))
    s = default_probes("sphere", 50)
    assert np.allclose(np.linalg.norm(s, axis=1), 1.0, atol=1e-14)


def test_point_distance_wraps():
    a = np.array([[0.99, 0.5]])
    b = np.array([[0.01, 0.5]])
    assert point_distances("torus", a, b)[0] == pytest.approx(0.02, abs=1e-12)
    assert point_distances("sphere", np.eye(3), np.eye(3)).max() == 0.0
