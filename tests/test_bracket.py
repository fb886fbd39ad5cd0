import math
import re
import warnings

import numpy as np
import pytest

from symflow import bracket
from symflow.bracket import (
    BracketTable,
    DegenerateInputError,
    LieMonomial,
    NonFiniteError,
    OutOfRangeError,
    SymbolicRequiredError,
    _multi_indices,
    enumerate_monomials,
    eval_monomial,
    khl_ratio,
    poisson,
    q_norm,
)
from symflow.manifold import ScalarField, build_sphere, build_torus, sample, uniform_norm

FOUR_PI_SQ = 4.0 * np.pi**2


@pytest.fixture(scope="module")
def torus():
    return build_torus(64, 64)


@pytest.fixture(scope="module")
def sphere():
    return build_sphere(4)


@pytest.fixture(scope="module")
def torus_pair(torus):
    return sample(torus, "sin(2*pi*q)"), sample(torus, "sin(2*pi*p)")


def strip_expr(f):
    return ScalarField(f.mesh, f.values.copy(), None)


def test_torus_bracket_closed_form(torus, torus_pair):
    f, g = torus_pair
    b = poisson(f, g)
    q, p = torus.points[:, 0], torus.points[:, 1]
    expected = FOUR_PI_SQ * np.cos(2 * np.pi * q) * np.cos(2 * np.pi * p)
    assert np.max(np.abs(b.values - expected)) <= 1e-10
    assert b.expr is not None
    assert uniform_norm(b) == pytest.approx(FOUR_PI_SQ, rel=1e-12)


def test_sphere_bracket_closed_form(sphere):
    x = sample(sphere, "x")
    y = sample(sphere, "y")
    b = poisson(x, y)
    expected = 4.0 * np.pi * sphere.points[:, 2]
    assert np.max(np.abs(b.values - expected)) <= 1e-10


def test_bracket_against_sympy_on_torus(torus):
    import sympy

    sq, sp = sympy.symbols("q p")
    fs = sympy.sin(2 * sympy.pi * sq) * sympy.cos(2 * sympy.pi * sp)
    gs = sympy.cos(2 * sympy.pi * (sq + sp))
    bs = sympy.diff(fs, sq) * sympy.diff(gs, sp) - sympy.diff(fs, sp) * sympy.diff(gs, sq)
    oracle = sympy.lambdify((sq, sp), bs, "numpy")
    f = sample(torus, "sin(2*pi*q)*cos(2*pi*p)")
    g = sample(torus, "cos(2*pi*(q+p))")
    b = poisson(f, g)
    expected = oracle(torus.points[:, 0], torus.points[:, 1])
    np.testing.assert_allclose(b.values, expected, rtol=1e-10, atol=1e-10)


def test_antisymmetry_symbolic(torus, sphere):
    for mesh, sources in [
        (torus, ("sin(2*pi*q)*cos(2*pi*p)", "cos(2*pi*q)+sin(2*pi*p)")),
        (sphere, ("x*y-z^2", "x+2*y*z")),
    ]:
        f = sample(mesh, sources[0])
        g = sample(mesh, sources[1])
        assert np.max(np.abs(poisson(f, f).values)) == 0.0
        asym = poisson(f, g).values + poisson(g, f).values
        assert np.max(np.abs(asym)) <= 1e-10


def test_antisymmetry_numeric(torus, sphere):
    rng = np.random.default_rng(17)
    f = ScalarField(torus, rng.normal(size=torus.n_points))
    assert np.max(np.abs(poisson(f, f).values)) <= 1e-10
    g = ScalarField(sphere, rng.normal(size=sphere.n_points))
    assert np.max(np.abs(poisson(g, g).values)) <= 1e-10


def test_jacobi_identity(torus, sphere):
    cases = [
        (torus, ["sin(2*pi*q)", "sin(2*pi*p)", "cos(2*pi*(q+p))"]),
        (sphere, ["x", "y", "z"]),
        (sphere, ["1-2*x^2", "1-2*y^2", "x*y+z"]),
    ]
    for mesh, sources in cases:
        f, g, h = (sample(mesh, s) for s in sources)
        total = (
            poisson(poisson(f, g), h).values
            + poisson(poisson(g, h), f).values
            + poisson(poisson(h, f), g).values
        )
        assert np.max(np.abs(total)) <= 1e-8


def test_leibniz_rule(torus, sphere):
    for mesh, sources in [
        (torus, ("sin(2*pi*q)", "cos(2*pi*p)", "sin(2*pi*(q+p))")),
        (sphere, ("x*y", "z", "1-2*x^2")),
    ]:
        f, g, h = (sample(mesh, s) for s in sources)
        lhs = poisson(f * g, h).values
        rhs = f.values * poisson(g, h).values + g.values * poisson(f, h).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-8


def test_numeric_matches_symbolic(torus, sphere):
    f = sample(torus, "sin(2*pi*q)")
    g = sample(torus, "sin(2*pi*p)")
    sym = poisson(f, g)
    num = poisson(strip_expr(f), strip_expr(g))
    scale = uniform_norm(sym)
    assert np.max(np.abs(sym.values - num.values)) <= 0.01 * scale

    f2 = sample(sphere, "x")
    g2 = sample(sphere, "y")
    sym2 = poisson(f2, g2)
    num2 = poisson(strip_expr(f2), strip_expr(g2))
    assert np.max(np.abs(sym2.values - num2.values)) <= 0.05 * uniform_norm(sym2)


def test_enumerate_counts_and_order():
    for n in range(1, 9):
        monomials = enumerate_monomials(n)
        assert len(monomials) == 2 ** (n - 1)
        assert len(set(monomials)) == len(monomials)
        words = [m.word for m in monomials]
        assert words == sorted(words)
    assert [str(m) for m in enumerate_monomials(2)] == ["{{F,G},F}", "{{F,G},G}"]
    with pytest.raises(OutOfRangeError):
        enumerate_monomials(0)
    with pytest.raises(OutOfRangeError):
        enumerate_monomials(9)


def test_eval_monomial_left_fold(torus_pair):
    f, g = torus_pair
    base = poisson(f, g)
    m = LieMonomial(("F", "G"))
    direct = poisson(poisson(base, f), g)
    via = eval_monomial(m, f, g)
    np.testing.assert_allclose(via.values, direct.values, rtol=1e-12, atol=1e-12)


def test_q2_torus_value(torus_pair):
    f, g = torus_pair
    assert q_norm(2, f, g) == pytest.approx(FOUR_PI_SQ, abs=1e-6)


def test_q_norm_l1_le_uniform(torus_pair):
    f, g = torus_pair
    for n in (2, 3):
        assert q_norm(n, f, g, norm="l1") <= q_norm(n, f, g, norm="uniform") + 1e-12


def test_monomial_scaling_degree(sphere):
    f = sample(sphere, "1-2*x^2")
    g = sample(sphere, "1-2*y^2")
    scale = 2.0
    for word in [(), ("F",), ("G", "F")]:
        m = LieMonomial(word)
        base = eval_monomial(m, f, g)
        scaled = eval_monomial(m, scale * f, scale * g)
        k = m.bracket_count + 1  # total letters: word + the core pair
        np.testing.assert_allclose(scaled.values, scale**k * base.values, rtol=1e-12, atol=1e-9)


def test_q_norm_homogeneity(sphere):
    f = sample(sphere, "1-2*x^2")
    g = sample(sphere, "1-2*y^2")
    for e in (0.5, 2.0, 4.0):
        for n in (2, 3, 4):
            qn = q_norm(n, f, g)
            qn_scaled = q_norm(n, e * f, e * g)
            assert qn_scaled == pytest.approx(e**n * qn, rel=1e-6)


def test_numeric_guard(torus):
    rng = np.random.default_rng(23)
    f = ScalarField(torus, rng.normal(size=torus.n_points))
    g = ScalarField(torus, rng.normal(size=torus.n_points))
    deep = LieMonomial(("F", "G", "F"))  # four bracket applications
    with pytest.raises(SymbolicRequiredError):
        eval_monomial(deep, f, g)
    eval_monomial(deep, f, g, allow_numeric=True)  # explicit override runs
    with pytest.raises(SymbolicRequiredError):
        q_norm(5, f, g)


def test_khl_ratio_reduces_to_one(torus_pair):
    f, g = torus_pair
    assert khl_ratio(2, f, g) == pytest.approx(1.0, rel=1e-12)


def test_khl_degenerate(torus):
    f = sample(torus, "sin(2*pi*q)")
    g = sample(torus, "cos(2*pi*q)")  # commutes with f: both depend on q only
    with pytest.raises(DegenerateInputError):
        khl_ratio(3, f, g)


def test_q_norm_out_of_range(torus_pair):
    f, g = torus_pair
    with pytest.raises(OutOfRangeError):
        q_norm(1, f, g)
    with pytest.raises(OutOfRangeError):
        q_norm(9, f, g)
    with pytest.raises(OutOfRangeError):
        q_norm(3, f, g, norm="L3")


# ---------------------------------------------------------------------------
# The jet engine behind BracketTable against the symbolic left fold
# ---------------------------------------------------------------------------


def left_fold(f, g, word):
    """The monomial of ``word`` by left-folding the public ``poisson``."""
    out = poisson(f, g)
    for letter in word:
        out = poisson(out, f if letter == "F" else g)
    return out


@pytest.mark.parametrize(
    "surface, sources",
    [
        ("torus", ("sin(2*pi*q)*exp(cos(2*pi*p))", "cos(2*pi*q)^3 + 1/(2 + sin(2*pi*p))")),
        ("sphere", ("x^3 - 2*y*z + sin(y)", "exp(z) + 1/(2 + x)")),
    ],
)
def test_table_matches_symbolic_left_fold(surface, sources):
    mesh = build_torus(16, 16) if surface == "torus" else build_sphere(3)
    f, g = (sample(mesh, s) for s in sources)
    table = BracketTable(f, g, 6)
    folded = {(): poisson(f, g)}  # every prefix once, each from its parent
    for generation in range(2, 7):
        for m in enumerate_monomials(generation):
            parent = folded[m.word[:-1]]
            ref = folded[m.word] = poisson(parent, f if m.word[-1] == "F" else g)
            got = table.field(m.word)
            assert got.expr is None
            scale = np.max(np.abs(ref.values))
            assert np.max(np.abs(got.values - ref.values)) <= 1e-10 * scale, m


def test_numeric_q_norm_is_the_left_fold(torus, sphere):
    rng = np.random.default_rng(31)
    for mesh in (torus, sphere):
        f = ScalarField(mesh, rng.normal(size=mesh.n_points))
        g = ScalarField(mesh, rng.normal(size=mesh.n_points))
        for generation in (2, 3, 4, 5):
            folded = 0.0
            for m in enumerate_monomials(generation - 1):
                folded += uniform_norm(left_fold(f, g, m.word))
            assert q_norm(generation, f, g, allow_numeric=True) == folded


def test_deep_q_norm_homogeneity():
    mesh = build_sphere(3)
    f = sample(mesh, "1 - 2*x^2 + 0.1*x*y*z")
    g = sample(mesh, "1 - 2*y^2 + 0.1*(x*z - y^3)")
    e = 1.5
    for n in (7, 8):
        assert q_norm(n, e * f, e * g) == pytest.approx(e**n * q_norm(n, f, g), rel=1e-6)


def test_table_reads_every_depth(sphere):
    f = sample(sphere, "1-2*x^2")
    g = sample(sphere, "1-2*y^2+x*z")
    table = BracketTable(f, g, 4)
    for n in (2, 3, 4, 5):
        assert table.q_norm(n) == q_norm(n, f, g)
    with pytest.raises(OutOfRangeError):
        table.q_norm(6)


# ---------------------------------------------------------------------------
# One-walk field jets against the symbolic derivatives they replace
# ---------------------------------------------------------------------------


def symbolic_taylor_jet(expr, mesh, order):
    """Test-only copy of the engine's earlier jet: one ``Expression.diff`` per
    multi-index and one ``eval_at`` per derivative."""
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


# Every node op, on the exact polynomial path and on the dense path: constants,
# variables, + - * /, unary -, ^ with positive, zero and negative exponents,
# sin, cos, exp; a power of degree 12, a cancelling difference and a sum whose
# degree passes the exact cap.
JET_CASES = {
    "torus": [
        "2.5", "q", "q + p - 0.5", "q*p - p", "(q - p)/3", "-(q*p^2)", "q^3*p^2", "(q + 1)^0",
        "(q + 1)^(-3)", "1/(2 + q*p)", "sin(2*pi*q)", "cos(2*pi*p)*sin(q*p)", "exp(sin(2*pi*q) - p)",
        "2*sin(q)", "sin(p)*3 - cos(q)/4", "-exp(q)", "sin(q*p)^3", "sin(q)^0", "(2 + cos(p))^(-2)",
        "sin(2*pi*q)*exp(cos(2*pi*p))", "cos(2*pi*q)^3 + 1/(2 + sin(2*pi*p))",
        "q*sin(1) + exp(0.5) - (1e-200)^(-1)*0", "(q - p)^12", "(q + p)^9 - (q - p)^9",
    ],
    "sphere": [
        "2.5", "x", "x + y - z", "x*y*z", "(x - y)/3", "-(x*y^2)", "x^3*y^2*z", "(z + 3)^0",
        "(x + 2)^(-2)", "x/(3 + y*z)", "sin(2*x)", "exp(z)*cos(x*y)", "x^3 - 2*y*z + sin(y)",
        "exp(z) + 1/(2 + x)", "(1 - 2*x^2) + 0.1*(x*y*z - y^3)",
        "(x - y)^12", "(x + y)^9 - (x - y)^9",
    ],
}
LONG_SUM_DEGREE = {"torus": 40, "sphere": 14}


@pytest.mark.parametrize("surface", ["torus", "sphere"])
def test_field_jets_match_the_symbolic_derivatives(surface):
    mesh = build_torus(16, 16) if surface == "torus" else build_sphere(3)
    first, second = mesh.coord_names[:2]
    top = LONG_SUM_DEGREE[surface]
    long_sum = " + ".join(f"{1 / k}*{first}^{k}*{second}^{k % 3}" for k in range(1, top + 1))
    assert math.comb(top + len(mesh.coord_names), len(mesh.coord_names)) > bracket._EXACT_TERMS  # degree >= top
    for source in JET_CASES[surface] + [long_sum]:
        expr = sample(mesh, source).expr
        for order in range(7):
            want = symbolic_taylor_jet(expr, mesh, order)
            got = bracket._field_jet(expr, mesh, order)
            assert got.shape == want.shape
            scale = np.max(np.abs(want), axis=1)
            assert np.all(np.max(np.abs(got - want), axis=1) <= 1e-12 * scale), (source, order)


def full_square_poly_jet(poly, points, order):
    """Test-only copy of the polynomial jet from a table over the full square of ``(alpha, beta)``
    pairs, with one shift matrix per call."""
    dim, degree = points.shape[1], max(map(sum, poly))
    alphas = _multi_indices(dim, degree)
    rows = {a: r for r, a in enumerate(alphas)}
    pairs = [[(tuple(x + y for x, y in zip(a, b)), a) for b in alphas] for a in alphas]
    sums = np.array([[rows.get(s, len(alphas)) for s, _ in line] for line in pairs])
    binom = np.array([[math.prod(map(math.comb, s, a)) for s, a in line] for line in pairs], dtype=float)
    var = np.array([next((i for i, x in enumerate(b) if x), 0) for b in alphas])
    parent = np.array([rows[b[:i] + (max(b[i] - 1, 0),) + b[i + 1:]] for b, i in zip(alphas, var)])
    coef = np.zeros(len(rows) + 1)
    coef[[rows[m] for m in poly]] = list(poly.values())
    shift, powers, cols = coef[sums] * binom, np.ones((len(rows), len(points))), np.ascontiguousarray(points.T)

    def size(j):
        return math.comb(j + dim, dim)

    for j in range(1, degree + 1):
        block = slice(size(j - 1), size(j))
        np.multiply(powers[parent[block]], cols[var[block]], out=powers[block])
    jet = np.zeros((size(order), len(points)))
    for j in range(min(order, degree) + 1):
        block, width = slice(size(j - 1), size(j)), size(degree - j)
        np.matmul(shift[block, :width], powers[:width], out=jet[block])
    return jet


@pytest.mark.parametrize("dim", [2, 3])
def test_polynomial_jets_from_the_triangle_are_bitwise_the_full_square(dim):
    rng = np.random.default_rng(18 + dim)
    points = rng.uniform(-1.5, 1.5, (40, dim))
    for degree in range(1, 9):
        alphas = _multi_indices(dim, degree)
        picks = rng.choice(len(alphas), size=min(len(alphas), 12), replace=False)
        poly = {alphas[i]: float(c) for i, c in zip(picks, rng.normal(size=len(picks)))}
        poly[alphas[-1]] = 0.75  # the degree is reached
        for order in range(degree + 3):
            got, want = bracket._poly_jet(poly, points, order), full_square_poly_jet(poly, points, order)
            assert got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64)), (degree, order)


def test_sphere_jets_against_sympy():
    """A depth-4 monomial and q_5 of a random-cubic pair on the level-3 sphere,
    against left-nested brackets computed by sympy on exact rationals."""
    import sympy

    mesh = build_sphere(3)
    cubic = ["x", "y", "z", "x^2", "y^2", "z^2", "x*y", "y*z", "x*z", "x^3", "y^3", "z^3",
             "x^2*y", "x^2*z", "y^2*x", "y^2*z", "z^2*x", "z^2*y", "x*y*z"]
    rng = np.random.default_rng(2024)
    sources = [
        base + " + 0.1*(" + " + ".join(f"({c:.17g})*{m}" for c, m in zip(rng.uniform(-1, 1, len(cubic)), cubic)) + ")"
        for base in ("1 - 2*x^2", "1 - 2*y^2")
    ]
    f, g = (sample(mesh, s) for s in sources)
    gens = sympy.symbols("x y z")
    fs, gs = (sympy.Poly(sympy.sympify(s.replace("^", "**"), rational=True), *gens) for s in sources)
    coords = [sympy.Poly(v, *gens) for v in gens]

    def sympy_bracket(a, h):
        da, dh = [a.diff(v) for v in gens], [h.diff(v) for v in gens]
        return sum(
            (coords[i] * (da[(i + 1) % 3] * dh[(i + 2) % 3] - da[(i + 2) % 3] * dh[(i + 1) % 3]) for i in range(3)),
            sympy.Poly(0, *gens),
        )

    def sympy_values(word):
        poly = sympy_bracket(fs, gs)
        for letter in word:
            poly = sympy_bracket(poly, fs if letter == "F" else gs)
        exps, coefs = zip(*poly.terms())
        terms = np.prod(mesh.points[:, None, :] ** np.array(exps, dtype=float), axis=2)
        return (4 * np.pi) ** (len(word) + 1) * (terms @ np.array([float(c) for c in coefs]))

    table = BracketTable(f, g, 4)
    want = {m.word: sympy_values(m.word) for m in enumerate_monomials(4)}
    got = table.field(("F", "G", "G")).values
    assert np.max(np.abs(got - want[("F", "G", "G")])) <= 1e-12 * np.max(np.abs(want[("F", "G", "G")]))
    q5 = sum(np.max(np.abs(v)) for v in want.values())
    assert abs(q_norm(5, f, g) - q5) <= 1e-12 * q5


@pytest.mark.parametrize("source, generation", [("exp(700*x)", 3), ("1e308*x^4", 5)])
def test_overflowing_jets_fail_at_construction_without_warnings(source, generation):
    """One case overflows on the dense path (exp), the other on the exact one."""
    mesh = build_sphere(3)
    f, g = sample(mesh, source), sample(mesh, "y")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match=re.escape(str(f.expr))):
            BracketTable(f, g, generation - 1)
        with pytest.raises(NonFiniteError, match=re.escape(str(f.expr))):
            q_norm(generation, f, g)
