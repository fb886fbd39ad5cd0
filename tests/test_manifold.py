import os
import subprocess
import sys

import numpy as np
import pytest

import symflow
from symflow.expr import parse
from symflow.manifold import (
    LocationFailureError,
    MeshMismatchError,
    SizeTooSmallError,
    build_sphere,
    build_torus,
    interpolate,
    l1_norm,
    mean,
    sample,
    uniform_norm,
)


@pytest.fixture(scope="module")
def sphere4():
    return build_sphere(4)


@pytest.fixture(scope="module")
def torus64():
    return build_torus(64, 64)


def test_torus_basic(torus64):
    m = torus64
    assert m.n_points == 64 * 64
    assert np.all(m.points >= 0) and np.all(m.points < 1)
    assert abs(m.weights.sum() - 1.0) <= 1e-12
    # row-major over (q, p)
    assert m.points[1][0] == 0.0 and m.points[1][1] == pytest.approx(1 / 64)


def test_torus_too_small():
    with pytest.raises(SizeTooSmallError):
        build_torus(4, 64)
    with pytest.raises(SizeTooSmallError):
        build_torus(64, 7)


def test_sphere_counts():
    m3 = build_sphere(3)
    assert m3.n_points == 10 * 4**3 + 2 == 642
    assert m3.n_triangles == 20 * 4**3 == 1280
    m5 = build_sphere(5)
    assert m5.n_points == 10 * 4**5 + 2 == 10242


@pytest.mark.parametrize("level", [3, 4, 5, 6])
def test_sphere_triangles_are_outward_oriented(level):
    # the level-set tree walks each vertex's link counter-clockwise
    mesh = build_sphere(level)
    a, b, c = (mesh.points[mesh.triangles[:, i]] for i in range(3))
    normal = np.cross(b - a, c - a)
    assert np.all(np.einsum("ij,ij->i", normal, a + b + c) > 0)


def test_sphere_too_small():
    with pytest.raises(SizeTooSmallError):
        build_sphere(2)


def test_sphere_unit_vertices_and_mass(sphere4):
    m = sphere4
    r = np.linalg.norm(m.points, axis=1)
    assert np.max(np.abs(r - 1.0)) <= 1e-12
    assert abs(m.tri_masses.sum() - 1.0) <= 1e-12
    assert abs(m.weights.sum() - 1.0) <= 1e-12


def test_hemisphere_masses(sphere4):
    m = sphere4
    z = m.points[:, 2]
    upper = m.weights[z > 0].sum() + 0.5 * m.weights[z == 0].sum()
    lower = m.weights[z < 0].sum() + 0.5 * m.weights[z == 0].sum()
    assert upper == pytest.approx(0.5, abs=0.01)
    assert lower == pytest.approx(0.5, abs=0.01)


def test_means(sphere4, torus64):
    f = sample(torus64, "sin(2*pi*q)")
    assert abs(mean(f)) <= 1e-12
    g = sample(sphere4, "z")
    assert abs(mean(g)) <= 1e-3
    one = sample(sphere4, "1")
    assert mean(one) == pytest.approx(1.0, abs=1e-12)


def test_field_values_match_expr(sphere4):
    f = sample(sphere4, "1-2*x^2")
    assert np.max(np.abs(f.expr.eval_at(sphere4.points) - f.values)) <= 1e-12


def test_uniform_norm_mesh_and_refined(sphere4):
    f = sample(sphere4, "1-2*x^2")
    # icosphere vertices lie on x = 0 and at z = +-1, where both fields peak at 1
    assert uniform_norm(f) == pytest.approx(1.0, abs=1e-12)
    assert uniform_norm(sample(sphere4, "z")) == pytest.approx(1.0, abs=1e-12)


def test_uniform_norm_monotone_in_level():
    fields = ["z", "1-2*x^2", "x*y*z", "sin(3*x)+cos(2*y)", "x^3-3*x*y^2"]
    prev = None
    for level in range(3, 7):
        mesh = build_sphere(level)
        norms = [uniform_norm(sample(mesh, s)) for s in fields]
        if prev is not None:
            assert all(n2 >= n1 - 1e-12 for n1, n2 in zip(prev, norms))
        prev = norms


def test_torus_norm_nested_grids():
    fields = ["sin(2*pi*q)", "sin(2*pi*q)*cos(2*pi*p)", "cos(2*pi*(q+p))"]
    prev = None
    for n in (8, 16, 32, 64):
        mesh = build_torus(n, n)
        norms = [uniform_norm(sample(mesh, s)) for s in fields]
        if prev is not None:
            assert all(n2 >= n1 - 1e-12 for n1, n2 in zip(prev, norms))
        prev = norms


def test_l1_le_uniform(sphere4):
    rng = np.random.default_rng(3)
    for _ in range(10):
        c = [float(v) for v in rng.normal(size=4)]
        f = sample(sphere4, f"{c[0]!r}*x+{c[1]!r}*y*z+{c[2]!r}*z^2+{c[3]!r}")
        assert l1_norm(f) <= uniform_norm(f) + 1e-12


def test_interpolation_exact_at_nodes(sphere4, torus64):
    f = sample(sphere4, "x*y+z^2")
    vals = interpolate(f, sphere4.points[::37])
    assert np.max(np.abs(vals - f.values[::37])) <= 1e-12
    g = sample(torus64, "sin(2*pi*q)*cos(2*pi*p)")
    vals = interpolate(g, torus64.points[::53])
    assert np.max(np.abs(vals - g.values[::53])) <= 1e-12


def test_interpolation_constant_exact(sphere4):
    f = sample(sphere4, "pi")
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(200, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    vals = interpolate(f, pts)
    assert np.max(np.abs(vals - np.pi)) <= 1e-12


def test_interpolation_z_error_bound(sphere4):
    f = sample(sphere4, "z")
    rng = np.random.default_rng(1234)
    pts = rng.normal(size=(500, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    vals = interpolate(f, pts)
    assert np.max(np.abs(vals - pts[:, 2])) <= 5e-3


def test_interpolation_torus_bilinear(torus64):
    f = sample(torus64, "sin(2*pi*q)")
    rng = np.random.default_rng(8)
    pts = rng.uniform(0, 1, (300, 2))
    vals = interpolate(f, pts)
    exact = np.sin(2 * np.pi * pts[:, 0])
    assert np.max(np.abs(vals - exact)) <= 2e-3
    # periodic wrap: shifting by integers changes nothing
    vals2 = interpolate(f, pts + np.array([2.0, -3.0]))
    assert np.max(np.abs(vals2 - vals)) <= 1e-12


def test_mesh_mismatch(sphere4):
    other = build_sphere(3)
    f = sample(sphere4, "x")
    g = sample(other, "x")
    with pytest.raises(MeshMismatchError):
        _ = f + g


def test_field_and_expression_difference_and_negation(sphere4):
    x, y = sample(sphere4, "x"), sample(sphere4, "y")
    for field, text, values in ((x - y, "x-y", x.values - y.values), (-x, "-x", -x.values)):
        assert str(field.expr) == text and field.values.tobytes() == values.tobytes()
    assert str(-x.expr) == "-x"


def test_the_cli_imports_scipy_spatial_only_for_a_kd_tree():
    """Only interpolation of a sphere field without an expression needs the tree."""
    code = ("import sys, symflow.cli; assert 'scipy.spatial' not in sys.modules; "
            "from symflow.manifold import build_sphere; print(build_sphere(3).kdtree.query([0.0, 0.0, 1.0])[1])")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(symflow.__file__))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) == int(np.argmax(build_sphere(3).points[:, 2]))


def test_expression_coordinate_mismatch(sphere4):
    e = parse("sin(2*pi*q)", ("q", "p"))
    with pytest.raises(MeshMismatchError):
        sample(sphere4, e)


def test_origin_cannot_be_located(sphere4):
    f = sample(sphere4, "x")
    with pytest.raises(LocationFailureError):
        interpolate(f, np.array([[0.0, 0.0, 0.0]]))
