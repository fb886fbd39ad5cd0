"""Level-set tree construction and the median quasi-state."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symflow.manifold import build_sphere, build_torus, sample, uniform_norm
from symflow.reeb import (
    InvariantViolationError,
    MedianPoint,
    NotASphereMeshError,
    ReebEdge,
    ReebGraph,
    ReebNode,
    build_reeb,
    median,
    pi_defect,
    quasi_state,
    tau,
)


@pytest.fixture(scope="module")
def sphere3():
    return build_sphere(3)


@pytest.fixture(scope="module")
def sphere4():
    return build_sphere(4)


def random_quadratic(rng, amp=1.0):
    """Random polynomial of degree two in the ambient coordinates."""
    mons = ["x", "y", "z", "x*x", "y*y", "z*z", "x*y", "y*z", "x*z"]
    coefs = rng.uniform(-amp, amp, len(mons))
    return " + ".join(f"({c:.6f})*{m}" for c, m in zip(coefs, mons))


# ---------------------------------------------------------------------------
# Hand-checked trees
# ---------------------------------------------------------------------------


def test_height_tree_is_a_single_arc(sphere4):
    g = build_reeb(sample(sphere4, "z"))
    assert g.n_nodes == 2
    assert g.n_edges == 1
    assert g.nodes[0].value == pytest.approx(-1.0, abs=0.05)
    assert g.nodes[1].value == pytest.approx(1.0, abs=0.05)
    assert g.total_mass() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("level", [3, 4, 5])
def test_height_median_sits_at_the_equator(level):
    mesh = build_sphere(level)
    m = median(build_reeb(sample(mesh, "z")))
    assert m.edge is not None
    assert abs(m.value) <= tau(level)


def test_height_median_agrees_with_direct_mass_count(sphere4):
    # independent check: the area fraction above the reported level must be
    # one half, counted directly from triangle barycenters
    f = sample(sphere4, "z")
    v = median(build_reeb(f)).value
    bary = f.values[sphere4.triangles].mean(axis=1)
    frac = sphere4.tri_masses[bary >= v].sum()
    assert frac == pytest.approx(0.5, abs=0.02)


def test_fold_median_lands_at_the_bottom_node(sphere4):
    g = build_reeb(sample(sphere4, "2*z^2"))
    m = median(g)
    assert abs(m.value) <= tau(4)
    top = sorted((e.mass for e in g.edges), reverse=True)
    assert top[0] == pytest.approx(0.5, abs=0.05)
    assert top[1] == pytest.approx(0.5, abs=0.05)


def test_band_field_median_lands_at_the_top(sphere4):
    assert quasi_state(sample(sphere4, "1 - 2*x^2")) == pytest.approx(1.0, abs=tau(4))


def test_extremal_pair_defect_is_two(sphere4):
    d = pi_defect(sample(sphere4, "1 - 2*x^2"), sample(sphere4, "1 - 2*y^2"))
    assert d.zeta_f == pytest.approx(1.0, abs=tau(4))
    assert d.zeta_g == pytest.approx(1.0, abs=tau(4))
    assert d.zeta_sum == pytest.approx(0.0, abs=tau(4))
    assert d.defect == pytest.approx(2.0, abs=3 * tau(4))
    assert d.defect == abs(d.zeta_sum - d.zeta_f - d.zeta_g)


# ---------------------------------------------------------------------------
# Structure and guards
# ---------------------------------------------------------------------------


def test_random_fields_build_valid_trees(sphere4):
    rng = np.random.default_rng(11)
    for _ in range(8):
        g = build_reeb(sample(sphere4, random_quadratic(rng)))
        assert g.n_nodes - g.n_edges == 1
        assert g.total_mass() == pytest.approx(1.0, abs=1e-9)
        g.validate()


def test_constant_field_collapses_to_one_node(sphere4):
    g = build_reeb(sample(sphere4, "0*x + 0.7"))
    assert g.constant
    assert g.n_nodes == 1 and g.n_edges == 0
    assert g.nodes[0].atom == 1.0
    m = median(g)
    assert m.node == 0 and m.value == 0.7


def test_normalization_is_exact(sphere4):
    assert quasi_state(sample(sphere4, "1 + 0*z")) == 1.0


def test_torus_fields_are_rejected():
    torus = build_torus(16, 16)
    with pytest.raises(NotASphereMeshError):
        build_reeb(sample(torus, "sin(2*pi*q)"))


def test_nonfinite_values_are_rejected(sphere3):
    f = sample(sphere3, "z")
    f.values[3] = np.nan
    with pytest.raises(ValueError):
        build_reeb(f)


def test_rebuilds_are_bit_identical(sphere4):
    rng = np.random.default_rng(5)
    f = sample(sphere4, random_quadratic(rng))
    a, b = build_reeb(f), build_reeb(f)
    assert a.to_json() == b.to_json()
    assert median(a) == median(b)


# ---------------------------------------------------------------------------
# Quasi-state properties
# ---------------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(a=st.floats(min_value=-4.0, max_value=4.0).filter(lambda a: abs(a) > 1e-3),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_scaling_is_homogeneous(sphere3, a, seed):
    rng = np.random.default_rng(seed)
    f = sample(sphere3, random_quadratic(rng))
    assert quasi_state(a * f) == pytest.approx(a * quasi_state(f), abs=1e-11)


def test_adding_a_square_never_lowers_the_state(sphere4):
    rng = np.random.default_rng(23)
    for _ in range(10):
        f = sample(sphere4, random_quadratic(rng))
        mons = ["x", "y", "z"]
        coefs = rng.uniform(-0.8, 0.8, 3)
        h = " + ".join(f"({c:.6f})*{m}" for c, m in zip(coefs, mons))
        bump = sample(sphere4, f"({h})^2")
        assert quasi_state(f + bump) >= quasi_state(f) - 1e-11


def test_state_is_sup_norm_lipschitz(sphere4):
    rng = np.random.default_rng(31)
    for _ in range(10):
        f = sample(sphere4, random_quadratic(rng))
        p = sample(sphere4, random_quadratic(rng, amp=0.3))
        gap = abs(quasi_state(f) - quasi_state(f + p))
        assert gap <= uniform_norm(p) + tau(4)


def test_functions_of_a_common_field_add_up(sphere4):
    rng = np.random.default_rng(47)
    for _ in range(10):
        coefs = rng.uniform(-1.0, 1.0, 3)
        h = " + ".join(f"({c:.6f})*{m}" for c, m in zip(coefs, ["x", "y", "z"]))
        a1, a2, b1, b2 = rng.uniform(-1.5, 1.5, 4)
        f = sample(sphere4, f"({a1:.5f})*({h}) + ({a2:.5f})*({h})^2")
        g = sample(sphere4, f"({b1:.5f})*({h}) + ({b2:.5f})*({h})^2")
        assert pi_defect(f, g).defect <= tau(4)


def test_defect_bounded_by_twice_the_larger_norm(sphere4):
    rng = np.random.default_rng(59)
    for _ in range(8):
        f = sample(sphere4, random_quadratic(rng))
        g = sample(sphere4, random_quadratic(rng))
        bound = 2.0 * max(uniform_norm(f), uniform_norm(g))
        assert pi_defect(f, g).defect <= bound + tau(4)


# ---------------------------------------------------------------------------
# Median mechanics on hand-built trees
# ---------------------------------------------------------------------------


def _flat_edge(eid, lower, upper, lo, hi, mass=0.0):
    knots = np.array([lo, hi], dtype=float)
    cum = np.array([0.0, mass])
    return ReebEdge(eid, lower, upper, knots, cum.copy(), cum.copy())


def test_tied_atoms_resolve_to_the_smallest_node_id():
    nodes = [ReebNode(0, 0, -1.0, atom=0.5), ReebNode(1, 1, 1.0, atom=0.5)]
    edges = [_flat_edge(0, 0, 1, -1.0, 1.0, mass=0.0)]
    g = ReebGraph(nodes=nodes, edges=edges, level=0)
    m = median(g)
    assert m.node == 0
    assert m.multi
    assert m.value == -1.0


def test_dominant_atom_wins():
    nodes = [ReebNode(0, 0, -1.0, atom=0.25), ReebNode(1, 1, 1.0, atom=0.75)]
    edges = [_flat_edge(0, 0, 1, -1.0, 1.0, mass=0.0)]
    g = ReebGraph(nodes=nodes, edges=edges, level=0)
    m = median(g)
    assert m.node == 1
    assert not m.multi
    assert m.value == 1.0


def test_uniform_edge_median_interpolates():
    nodes = [ReebNode(0, 0, 0.0), ReebNode(1, 1, 4.0)]
    knots = np.array([0.0, 4.0])
    cum = np.array([0.0, 1.0])
    edges = [ReebEdge(0, 0, 1, knots, cum.copy(), cum.copy())]
    g = ReebGraph(nodes=nodes, edges=edges, level=0)
    m = median(g)
    assert m.edge == 0
    assert m.value == pytest.approx(2.0, abs=1e-12)


def test_star_median_sits_at_the_hub():
    # three leaves with a third of the mass on each spoke
    nodes = [ReebNode(0, 0, 0.0)] + [ReebNode(i, i, float(i)) for i in (1, 2, 3)]
    edges = [_flat_edge(i - 1, 0, i, 0.0, float(i), mass=1.0 / 3.0) for i in (1, 2, 3)]
    for e in edges:
        e.cum_left[:] = [0.0, 1.0 / 3.0]
        e.cum_right[:] = [0.0, 1.0 / 3.0]
    g = ReebGraph(nodes=nodes, edges=edges, level=0)
    m = median(g)
    assert m.node == 0


def test_median_leaves_only_declared_fields_on_the_graph(sphere4):
    g = build_reeb(sample(sphere4, "x*y + 0.3*z"))
    before = g.to_json()
    median(g)
    assert set(vars(g)) <= set(ReebGraph.__dataclass_fields__)
    assert g.to_json() == before


def test_invariant_violation_is_detected():
    nodes = [ReebNode(0, 0, 0.0, atom=0.4)]
    g = ReebGraph(nodes=nodes, edges=[], level=0)
    with pytest.raises(InvariantViolationError):
        g.validate()


# ---------------------------------------------------------------------------
# Exports and tolerances
# ---------------------------------------------------------------------------


def test_json_round_trip(sphere4):
    g = build_reeb(sample(sphere4, "2*z^2"))
    payload = json.loads(g.to_json())
    assert len(payload["nodes"]) == g.n_nodes
    assert len(payload["edges"]) == g.n_edges
    total = sum(n["atom"] for n in payload["nodes"]) + sum(
        e["mass"] for e in payload["edges"]
    )
    assert total == pytest.approx(1.0, abs=1e-9)


def test_dot_output_lists_every_edge(sphere4):
    g = build_reeb(sample(sphere4, "z"))
    dot = g.to_dot()
    assert dot.startswith("graph")
    assert dot.count(" -- ") == g.n_edges


def test_tolerance_shrinks_fourfold_per_level():
    assert tau(5) == pytest.approx(tau(4) / 4.0)
    assert tau(4) < 0.02


def test_median_point_is_frozen():
    m = MedianPoint(value=0.0, node=0)
    with pytest.raises(AttributeError):
        m.value = 1.0
