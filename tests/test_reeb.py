"""Level-set tree construction and the median quasi-state."""

import json
import re
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from symflow.manifold import ScalarField, build_sphere, build_torus, sample, uniform_norm
from symflow.reeb import (
    _DENSITY_ROUNDING,
    _check_placement,
    _contour_arcs,
    _deposit_mass,
    _merge_trees,
    _segmented_cumsum,
    _triangle_stats,
    _vertex_order,
    InvariantViolationError,
    MedianPoint,
    NotASphereMeshError,
    ReebGraph,
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
    assert g.node_value[0] == pytest.approx(-1.0, abs=0.05)
    assert g.node_value[1] == pytest.approx(1.0, abs=0.05)
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
    top = sorted(g.edge_mass.tolist(), reverse=True)
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
    assert g.node_atom[0] == 1.0
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


@pytest.mark.parametrize("level", [3, 4, 5])
def test_odd_field_state_is_zero(level):
    # x*y*z is odd under the antipodal map, so its median sits at 0; a few
    # triangles have value bands at rounding level around 0
    assert abs(quasi_state(sample(build_sphere(level), "x*y*z"))) <= tau(level)


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


def _tree(values, atoms, edges):
    """Hand-built graph with node i at vertex i; ``edges`` holds one
    (lower, upper, knots, cum_left, cum_right) per edge."""
    lower, upper, knots, cum_left, cum_right = zip(*edges) if edges else [()] * 5
    return ReebGraph(
        node_vertex=np.arange(len(values)),
        node_value=np.array(values, dtype=float),
        node_atom=np.array(atoms, dtype=float),
        lower=np.array(lower, dtype=np.int64),
        upper=np.array(upper, dtype=np.int64),
        start=np.cumsum([0] + [len(k) for k in knots]),
        knots=np.array([x for k in knots for x in k], dtype=float),
        cum_left=np.array([x for c in cum_left for x in c], dtype=float),
        cum_right=np.array([x for c in cum_right for x in c], dtype=float),
        level=0,
    )


def _flat_edge(lower, upper, lo, hi, mass=0.0):
    return lower, upper, [lo, hi], [0.0, mass], [0.0, mass]


def test_tied_atoms_resolve_to_the_smallest_node_id():
    g = _tree([-1.0, 1.0], [0.5, 0.5], [_flat_edge(0, 1, -1.0, 1.0, mass=0.0)])
    m = median(g)
    assert m.node == 0
    assert m.multi
    assert m.value == -1.0


def test_dominant_atom_wins():
    g = _tree([-1.0, 1.0], [0.25, 0.75], [_flat_edge(0, 1, -1.0, 1.0, mass=0.0)])
    m = median(g)
    assert m.node == 1
    assert not m.multi
    assert m.value == 1.0


def test_uniform_edge_median_interpolates():
    g = _tree([0.0, 4.0], [0.0, 0.0], [_flat_edge(0, 1, 0.0, 4.0, mass=1.0)])
    m = median(g)
    assert m.edge == 0
    assert m.value == pytest.approx(2.0, abs=1e-12)


def test_star_median_sits_at_the_hub():
    # three leaves with a third of the mass on each spoke
    edges = [_flat_edge(0, i, 0.0, float(i), mass=1.0 / 3.0) for i in (1, 2, 3)]
    g = _tree([0.0, 1.0, 2.0, 3.0], [0.0] * 4, edges)
    m = median(g)
    assert m.node == 0


def test_median_leaves_only_declared_fields_on_the_graph(sphere4):
    g = build_reeb(sample(sphere4, "x*y + 0.3*z"))
    before = g.to_json()
    median(g)
    assert set(vars(g)) <= set(ReebGraph.__dataclass_fields__)
    assert g.to_json() == before


def test_invariant_violation_is_detected():
    g = _tree([0.0], [0.4], [])
    with pytest.raises(InvariantViolationError):
        g.validate()


# Edge 0 lies above edge 1, so both the knots and cum_right drop from edge
# 0's last entry to edge 1's first: no profile step, nothing to report.
_UPPER_EDGE = (1, 2, [1.0, 1.5, 2.0], [0.0, 0.25, 0.5], [0.0, 0.25, 0.5])
_LOWER_EDGE = (0, 1, [0.0, 0.5, 1.0], [0.0, 0.25, 0.5], [0.0, 0.25, 0.5])


def _with(edge, knots=None, cum_right=None):
    lower, upper, k, cum_left, cr = edge
    return lower, upper, knots or k, cum_left, cum_right or cr


@pytest.mark.parametrize("atoms, edges, message", [
    ([0.0] * 3, [_UPPER_EDGE],
     "graph has 3 nodes and 1 edges; a level-set tree needs exactly nodes - edges = 1"),
    # an edge with no knots: its offsets would read its neighbours' entries
    ([0.0, 0.5, 0.0], [(0, 1, [0.0, 1.0], [0.0, 0.5], [0.0, 0.5]), (1, 2, [], [], [])],
     "profile offsets do not cut one non-empty slice per edge"),
    ([0.0] * 3, [(0, 1, [0.0, 1.0], [0.0, 0.5], [0.0, 0.5]), (1, 2, [], [], [])],
     "profile offsets do not cut one non-empty slice per edge"),
    ([0.0] * 3, [_UPPER_EDGE, (0, 1, [0.0, 0.5, 1.0], [0.0, 0.5], [0.0, 0.25, 0.5])],
     "profile offsets do not cut one non-empty slice per edge"),
    ([0.0, 0.1, 0.0], [_UPPER_EDGE, _LOWER_EDGE],
     "pushforward mass is 1.1, expected 1 within 1e-9"),
    ([0.0] * 3, [_with(_UPPER_EDGE, knots=[0.5, 1.5, 2.0]), _LOWER_EDGE],
     "edge 0 mass profile leaves its value interval"),
    ([0.0] * 3, [_UPPER_EDGE, _with(_LOWER_EDGE, knots=[0.0, 0.5, 1.5])],
     "edge 1 mass profile leaves its value interval"),
    ([0.0] * 3, [_UPPER_EDGE, _with(_LOWER_EDGE, knots=[np.nan, 0.5, 1.0])],
     "edge 1 mass profile leaves its value interval"),
    ([0.0] * 3, [_with(_UPPER_EDGE, knots=[1.0, 1.8, 1.5]), _LOWER_EDGE],
     "edge 0 cumulative profile is not monotone"),
    ([0.0] * 3, [_UPPER_EDGE, _with(_LOWER_EDGE, cum_right=[0.0, 0.6, 0.5])],
     "edge 1 cumulative profile is not monotone"),
    # the first offending edge is named, whichever check it fails
    ([0.0] * 3, [_with(_UPPER_EDGE, knots=[1.0, 1.8, 1.5]),
                 _with(_LOWER_EDGE, knots=[-1.0, 0.5, 1.0])],
     "edge 0 cumulative profile is not monotone"),
], ids=["nodes-minus-edges", "empty-slice", "empty-slice-no-atoms", "short-cum-left", "mass",
        "knot-below", "knot-above", "nan-knot", "falling-knots", "falling-cum-right",
        "first-edge-wins"])
def test_every_invariant_violation_is_named(atoms, edges, message):
    _tree([0.0, 1.0, 2.0], [0.0] * 3, [_UPPER_EDGE, _LOWER_EDGE]).validate()
    with pytest.raises(InvariantViolationError, match=f"^{re.escape(message)}$"):
        _tree([0.0, 1.0, 2.0], atoms, edges).validate()


def _reference_median(g):
    """The list-of-lists median walk over per-edge objects, rebuilt from the
    columns: neighbours in increasing edge id, subtree masses in numpy."""
    n = g.n_nodes
    profiles = [(g.knots[i:j], g.cum_left[i:j], g.cum_right[i:j])
                for i, j in zip(g.start[:-1].tolist(), g.start[1:].tolist())]
    masses = [float(cr[-1]) for _, _, cr in profiles]
    if g.constant or n == 1:
        return MedianPoint(value=float(g.node_value[0]), node=0)
    adj = [[] for _ in range(n)]
    for eid, (lw, up) in enumerate(zip(g.lower.tolist(), g.upper.tolist())):
        adj[lw].append((eid, up))
        adj[up].append((eid, lw))
    parent = np.full(n, -1, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)
    bfs = [0]
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    for u in bfs:
        for eid, w in adj[u]:
            if not seen[w]:
                seen[w] = True
                parent[w] = u
                parent_edge[w] = eid
                bfs.append(w)
    sub = np.array(g.node_atom.tolist())
    for w in reversed(bfs):
        p = parent[w]
        if p >= 0:
            sub[p] += sub[w] + masses[parent_edge[w]]

    def beyond(u, eid, w):
        if parent[w] == u and parent_edge[w] == eid:
            return float(sub[w] + masses[eid])
        return float(1.0 - sub[u])

    def tied_nodes(start):
        tied, frontier = {start}, [start]
        while frontier:
            u = frontier.pop()
            for eid, w in adj[u]:
                if w in tied or masses[eid] > 1e-12:
                    continue
                if all(beyond(w, e2, o2) <= 0.5 + 1e-12 for e2, o2 in adj[w]):
                    tied.add(w)
                    frontier.append(w)
        return tied

    def solve_edge(k, cl, cr, target):
        i = min(int(np.searchsorted(cr, target, side="left")), k.size - 1)
        if i > 0 and cl[i] >= target:
            rise = cl[i] - cr[i - 1]
            if rise > 1e-12 * max(1.0, cr[-1]):
                frac = (target - cr[i - 1]) / rise
                return float(k[i - 1] + frac * (k[i] - k[i - 1])), False
            return float(k[i - 1]), bool(k[i] > k[i - 1])
        multi = bool(cr[i] == target and i + 1 < k.size and cl[i + 1] <= target
                     and k[i + 1] > k[i])
        return float(k[i]), multi

    cur = 0
    for _ in range(n + 1):
        over = None
        for eid, w in adj[cur]:
            m = beyond(cur, eid, w)
            if m > 0.5 + 1e-12:
                over = (eid, w, m)
                break
        if over is None:
            admissible = tied_nodes(cur)
            best = min(admissible)
            return MedianPoint(value=float(g.node_value[best]), node=best,
                               multi=len(admissible) > 1)
        eid, w, m = over
        s_cur = 1.0 - m
        if s_cur + masses[eid] < 0.5 - 1e-12:
            cur = w
            continue
        t = 0.5 - s_cur
        target = t if g.lower[eid] == cur else masses[eid] - t
        value, multi = solve_edge(*profiles[eid], target)
        return MedianPoint(value=value, edge=eid, multi=multi)
    raise AssertionError("reference median walk did not terminate")


def test_median_matches_the_list_walk_it_replaces():
    # Rounded fields have zero-mass edges next to the median node; multi
    # medians do not occur on them, so two hand-built trees add a tie of
    # atoms and an atom sitting on a flat stretch of an edge.
    graphs = [
        _tree([-1.0, 1.0], [0.5, 0.5], [_flat_edge(0, 1, -1.0, 1.0)]),
        _tree([0.0, 2.0], [0.0, 0.0], [(0, 1, [0.0, 1.0, 2.0], [0.0, 0.5, 1.0], [0.5, 0.5, 1.0])]),
    ]
    for level in (3, 4):
        mesh = build_sphere(level)
        rng = np.random.default_rng(level)
        for _ in range(6):
            f = sample(mesh, random_quadratic(rng)).values
            for v in (np.round(3.0 * f), np.round(8.0 * f) / 8.0):
                graphs.append(build_reeb(ScalarField(mesh, v)))
    mesh = build_sphere(5)
    graphs.append(build_reeb(ScalarField(mesh, np.random.default_rng(3).standard_normal(mesh.n_points))))
    points = []
    for g in graphs:
        m, ref = median(g), _reference_median(g)
        assert m == ref
        assert np.float64(m.value).tobytes() == np.float64(ref.value).tobytes()
        points.append(m)
    assert points[0].multi and points[0].node == 0
    assert points[1].multi and points[1].edge == 0
    assert any(p.node is not None for p in points[2:])
    assert any(p.edge is not None for p in points[2:])


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


# ---------------------------------------------------------------------------
# The array pipeline against a component oracle and the per-vertex reference
# ---------------------------------------------------------------------------


def _corners(mesh):
    t = mesh.triangles
    return t.ravel(), t[:, [1, 2, 0]].ravel(), t[:, [2, 0, 1]].ravel()


def _ranks(vals):
    rank = np.empty(vals.size, dtype=np.int64)
    rank[np.argsort(vals, kind="stable")] = np.arange(vals.size)
    return rank


def _component_min(n, keep, u, v):
    """Per kept vertex, the smallest vertex of its component in the graph
    of the edges (u, v) with both ends kept; -1 elsewhere."""
    sel = keep[u] & keep[v]
    graph = coo_matrix((np.ones(sel.sum()), (u[sel], v[sel])), shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    least = np.full(n, n)
    np.minimum.at(least, labels, np.arange(n))
    return np.where(keep, least[labels], -1)


@pytest.mark.parametrize("ties", [False, True])
def test_merge_trees_match_the_component_oracle(sphere3, ties):
    rng = np.random.default_rng(17)
    n = sphere3.n_points
    mu, mv = sphere3.edges().T
    for _ in range(2):
        vals = sample(sphere3, random_quadratic(rng)).values
        if ties:
            vals = np.round(3.0 * vals)
        rank = _ranks(vals)
        crit, node, ends, trees = _merge_trees(_corners(sphere3), np.argsort(vals, kind="stable"), rank)
        is_node = node >= 0
        # the join tree sweeps down (superlevel sets) to maxima, the split tree up to minima
        for key, end, parent in zip((-rank, rank), ends, trees):
            tu = np.nonzero(parent >= 0)[0]
            tree_u, tree_v = crit[tu], crit[parent[tu]]
            for threshold in np.sort(key):
                keep = key <= threshold
                oracle = _component_min(n, keep, mu, mv)
                # kept nodes share a component of the tree iff they share one of the mesh
                kept = np.nonzero(keep & is_node)[0]
                least_node = np.full(n, n)
                np.minimum.at(least_node, oracle[kept], kept)
                np.testing.assert_array_equal(
                    _component_min(n, keep & is_node, tree_u, tree_v)[kept], least_node[oracle[kept]]
                )
                # and every kept vertex shares one with its extremum
                held = np.nonzero(keep)[0]
                assert keep[end[held]].all()
                np.testing.assert_array_equal(oracle[end[held]], oracle[held])


def _two_branch_contour_arcs(jt_down: np.ndarray, st_up: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The leaf-peeling merge as it was written with one branch per tree, kept
    verbatim as the reference for the single peel step of ``_contour_arcs``."""
    n = jt_down.size
    down, up = jt_down.tolist(), st_up.tolist()

    def children(ptr: np.ndarray) -> tuple[np.ndarray, list[int]]:
        has = ptr >= 0
        ids = np.bincount(ptr[has], weights=np.nonzero(has)[0], minlength=n)
        return np.bincount(ptr[has], minlength=n), ids.astype(np.int64).tolist()

    n_up, sum_up = children(jt_down)  # join-tree children lie above
    n_dn, sum_dn = children(st_up)
    leaf = (np.minimum(n_up, n_dn) == 0) & (np.maximum(n_up, n_dn) <= 1)
    stack = np.nonzero(leaf)[0].tolist()
    n_up, n_dn = n_up.tolist(), n_dn.tolist()
    arcs = []
    while stack and len(arcs) < n - 1:
        v = stack.pop()
        if n_up[v] == 0 and n_dn[v] <= 1 and down[v] >= 0:
            w, p, c = down[v], up[v], sum_dn[v]
            n_up[w] -= 1
            sum_up[w] -= v
            if p >= 0:
                n_dn[p] += n_dn[v] - 1
                sum_dn[p] += c - v
            if n_dn[v]:
                up[c] = p
        elif n_dn[v] == 0 and n_up[v] <= 1 and up[v] >= 0:
            w, p, c = up[v], down[v], sum_up[v]
            n_dn[w] -= 1
            sum_dn[w] -= v
            if p >= 0:
                n_up[p] += n_up[v] - 1
                sum_up[p] += c - v
            if n_up[v]:
                down[c] = p
        else:
            continue
        down[v] = up[v] = -1  # v is out of both trees: never peel it again
        arcs.append((v, w))
        stack.append(w)
        if p >= 0:
            stack.append(p)
    if len(arcs) != n - 1:
        raise InvariantViolationError("merge-tree combination did not produce a tree")
    return np.array(arcs, dtype=np.int64).reshape(-1, 2).T


def test_one_peel_step_matches_the_two_branch_merge(sphere3):
    """The oracle test's fields, smooth and rounded, and a tie-heavy level-5 field rounded to one decimal."""
    rng = np.random.default_rng(17)
    fields = [sample(sphere3, random_quadratic(rng)).values for _ in range(2)]
    fields += [np.round(3.0 * vals) for vals in fields]
    level5 = build_sphere(5)
    fields.append(np.round(sample(level5, random_quadratic(np.random.default_rng(5))).values, 1))
    for vals in fields:
        mesh = sphere3 if vals.size == sphere3.n_points else level5
        rank = _ranks(vals)
        trees = _merge_trees(_corners(mesh), np.argsort(vals, kind="stable"), rank)[3]
        new, old = _contour_arcs(*trees), _two_branch_contour_arcs(*trees)
        assert new.dtype == old.dtype and new.tobytes() == old.tobytes()


def _reference_merge_tree(indptr, indices, order):
    n = order.size
    parent = [-1] * n
    root = list(range(n))
    head = list(range(n))
    seen = [False] * n
    for v in order.tolist():
        rv = v
        for u in indices[indptr[v]: indptr[v + 1]].tolist():
            if not seen[u]:
                continue
            ru = u
            while root[ru] != ru:
                root[ru] = root[root[ru]]
                ru = root[ru]
            while root[rv] != rv:
                root[rv] = root[root[rv]]
                rv = root[rv]
            if ru != rv:
                parent[head[ru]] = v
                root[ru] = rv
                head[rv] = v
        seen[v] = True
    return parent


def _reference_arcs(jt_down, st_up):
    n = len(jt_down)
    jt_ch = [[] for _ in range(n)]
    st_ch = [[] for _ in range(n)]
    for w in range(n):
        if jt_down[w] >= 0:
            jt_ch[jt_down[w]].append(w)
        if st_up[w] >= 0:
            st_ch[st_up[w]].append(w)
    jt_down, st_up = list(jt_down), list(st_up)

    def upper_ok(v):
        return not jt_ch[v] and len(st_ch[v]) <= 1

    def lower_ok(v):
        return not st_ch[v] and len(jt_ch[v]) <= 1

    queue = deque(v for v in range(n) if upper_ok(v) or lower_ok(v))
    removed = [False] * n
    arcs = []
    while queue and len(arcs) < n - 1:
        v = queue.popleft()
        if removed[v]:
            continue
        for ok, down, up, down_ch, up_ch in ((upper_ok, jt_down, st_up, jt_ch, st_ch),
                                             (lower_ok, st_up, jt_down, st_ch, jt_ch)):
            if ok(v) and down[v] >= 0:
                break
        else:
            continue
        w, p = down[v], up[v]
        arcs.append((v, w))
        down_ch[w].remove(v)
        c = up_ch[v][0] if up_ch[v] else -1
        if c >= 0:
            up[c] = p
        if p >= 0:
            up_ch[p].remove(v)
            if c >= 0:
                up_ch[p].append(c)
        removed[v] = True
        queue.extend(x for x in (w, p, c) if x >= 0 and (upper_ok(x) or lower_ok(x)))
    assert len(arcs) == n - 1
    return arcs


def _reference_tree(f):
    """Per-vertex construction of nodes, edges and profiles, as it was
    before the array pipeline (no rounding-level band rule)."""
    mesh, vals = f.mesh, f.values
    n = vals.size
    order = np.lexsort((np.arange(n), vals))
    rank = _ranks(vals)
    indptr, indices = mesh.neighbor_csr
    arcs = _reference_arcs(_reference_merge_tree(indptr, indices, order[::-1]),
                           _reference_merge_tree(indptr, indices, order))
    adj = [[] for _ in range(n)]
    for a, b in arcs:
        adj[a].append(b)
        adj[b].append(a)
    regular = [len(a) == 2 and (rank[a[0]] > rank[v]) != (rank[a[1]] > rank[v])
               for v, a in enumerate(adj)]
    crit = sorted((v for v in range(n) if not regular[v]), key=lambda v: rank[v])
    node_of_vertex = np.full(n, -1)
    node_of_vertex[crit] = np.arange(len(crit))
    edge_of_vertex = np.full(n, -1)
    e_lower, e_upper = [], []
    for v in crit:
        for nb in sorted(adj[v], key=lambda o: rank[o]):
            if rank[nb] <= rank[v]:
                continue
            chain, prev, cur = [], v, nb
            while regular[cur]:
                chain.append(cur)
                a0, a1 = adj[cur]
                prev, cur = cur, (a1 if a0 == prev else a0)
            edge_of_vertex[chain] = len(e_lower)
            e_lower.append(node_of_vertex[v])
            e_upper.append(node_of_vertex[cur])
    e_lower, e_upper = np.array(e_lower), np.array(e_upper)
    node_vals = vals[crit]

    tri, tmass = mesh.triangles, mesh.tri_masses
    tvals = vals[tri]
    lo, hi, bary = tvals.min(axis=1), tvals.max(axis=1), tvals.mean(axis=1)
    mid = tri[np.arange(len(tri)), np.argsort(rank[tri], axis=1)[:, 1]]
    anchor = edge_of_vertex[mid].copy()
    for t in np.nonzero(anchor < 0)[0]:
        nid = node_of_vertex[mid[t]]
        ups = np.nonzero(e_lower == nid)[0]
        downs = np.nonzero(e_upper == nid)[0]
        use_up = (bary[t] >= node_vals[nid] and ups.size) or not downs.size
        anchor[t] = (ups if use_up else downs).min()
    lo_a, hi_a = node_vals[e_lower[anchor]], node_vals[e_upper[anchor]]
    l_in, h_in = np.clip(lo, lo_a, hi_a), np.clip(hi, lo_a, hi_a)
    width = hi - lo
    wide = width > 0
    safe_w = np.where(wide, width, 1.0)
    inside = np.where(wide, tmass * (h_in - l_in) / safe_w, 0.0)
    atom_mass = np.where(wide, 0.0, tmass)
    node_atom = np.zeros(len(crit))
    np.add.at(node_atom, e_lower[anchor], np.where(wide, tmass * (l_in - lo) / safe_w, 0.0))
    np.add.at(node_atom, e_upper[anchor], np.where(wide, tmass * (hi - h_in) / safe_w, 0.0))
    profiles = []
    for eid in range(e_lower.size):
        ts = np.nonzero(anchor == eid)[0]
        seg, pt = ts[inside[ts] > 0], ts[atom_mass[ts] > 0]
        sl, sh, sm = l_in[seg], h_in[seg], inside[seg]
        knots = np.unique(np.concatenate(
            [[node_vals[e_lower[eid]], node_vals[e_upper[eid]]], sl, sh, l_in[pt]]))
        dens_delta = np.zeros(knots.size)
        d = sm / (sh - sl)
        np.add.at(dens_delta, np.searchsorted(knots, sl), d)
        np.add.at(dens_delta, np.searchsorted(knots, sh), -d)
        seg_mass = np.cumsum(dens_delta)[:-1] * np.diff(knots)
        jumps = np.zeros(knots.size)
        np.add.at(jumps, np.searchsorted(knots, l_in[pt]), atom_mass[pt])
        cum_left = np.concatenate([[0.0], np.cumsum(seg_mass)]) + (np.cumsum(jumps) - jumps)
        profiles.append((knots, cum_left, cum_left + jumps))
    return dict(node_vertex=np.array(crit), node_of_vertex=node_of_vertex,
                edge_of_vertex=edge_of_vertex, e_lower=e_lower, e_upper=e_upper,
                node_atom=node_atom, profiles=profiles)


def _reference_fields(level):
    """Smooth, rounded (ties and plateaus), fold and noise fields on one sphere."""
    mesh = build_sphere(level)
    rng = np.random.default_rng(40 + level)
    x, y, z = mesh.points.T
    fields = [sample(mesh, random_quadratic(rng)) for _ in range(3)]
    fields += [ScalarField(mesh, np.round(3.0 * f.values)) for f in fields]
    fields += [ScalarField(mesh, np.round(3 * x + 2 * y)), sample(mesh, "1 - 2*y^2")]
    fields += [ScalarField(mesh, np.round(8.0 * f.values) / 8.0) for f in fields[:3]]
    return fields + [ScalarField(mesh, rng.normal(size=mesh.n_points))]


@pytest.mark.parametrize("level", [3, 4])
def test_link_runs_find_the_reference_nodes(level):
    for f in _reference_fields(level):
        vals = f.values
        crit = _merge_trees(_corners(f.mesh), np.argsort(vals, kind="stable"), _ranks(vals))[0]
        assert set(crit.tolist()) == set(_reference_tree(f)["node_vertex"].tolist())


@pytest.mark.parametrize("level", [3, 4])
def test_array_pipeline_matches_the_per_vertex_reference(level):
    for f in _reference_fields(level):
        g, ref = build_reeb(f), _reference_tree(ScalarField(f.mesh, f.values + 0.0))
        np.testing.assert_array_equal(g.node_vertex, ref["node_vertex"])
        np.testing.assert_array_equal(g.node_of_vertex, ref["node_of_vertex"])
        np.testing.assert_array_equal(g.edge_of_vertex, ref["edge_of_vertex"])
        np.testing.assert_array_equal(g.lower, ref["e_lower"])
        np.testing.assert_array_equal(g.upper, ref["e_upper"])
        assert g.node_atom.tolist() == ref["node_atom"].tolist()
        assert g.n_edges == len(ref["profiles"])
        for j, (knots, cum_left, cum_right) in enumerate(ref["profiles"]):
            s = slice(g.start[j], g.start[j + 1])
            assert g.knots[s].tobytes() == knots.tobytes()
            assert g.cum_left[s].tobytes() == cum_left.tobytes()
            assert g.cum_right[s].tobytes() == cum_right.tobytes()


@pytest.mark.parametrize("level", [3, 4, 5])
def test_triangle_stats_round_as_the_axis_reductions(level):
    """Corner-column min, max, mean and middle vertex equal the axis-1 forms byte for byte, ties and -0.0 included."""
    fields = [f.values for f in _reference_fields(level)]
    mesh = build_sphere(level)
    signs = np.random.default_rng(level).random(mesh.n_points) < 0.5
    fields += [np.where(signs, 0.0, -0.0), np.where(signs, -0.0, np.round(2.0 * mesh.points[:, 2]))]
    tri = mesh.triangles
    for vals in fields:
        rank = _ranks(vals)
        tvals = vals[tri]
        old = (tvals.min(axis=1), tvals.max(axis=1), tvals.mean(axis=1),
               tri[np.arange(len(tri)), np.argsort(rank[tri], axis=1)[:, 1]])
        for want, got in zip(old, _triangle_stats(tri, vals, rank)):
            assert got.tobytes() == want.tobytes()


def _misplace(g, rank, kind):
    """A copy of ``g.edge_of_vertex`` with one vertex put on a wrong edge."""
    eov = g.edge_of_vertex.copy()
    lo, hi = rank[g.node_vertex[g.lower]], rank[g.node_vertex[g.upper]]
    v = int(np.nonzero(eov >= 0)[0][0])
    if kind == "outside-its-span":
        eov[v] = next(j for j in range(g.n_edges) if not lo[j] < rank[v] < hi[j])
    elif kind == "no-edge":
        eov[v] = -1
    elif kind == "past-the-last-edge":
        eov[v] = g.n_edges
    else:  # a node on an edge
        v = int(g.node_vertex[1])
        eov[v] = 0
    return v, eov


@pytest.mark.parametrize("kind", ["outside-its-span", "no-edge", "past-the-last-edge", "node"])
def test_placement_check_names_the_misplaced_vertex(sphere4, kind):
    f = sample(sphere4, "x*y*z + 0.1*x")
    g, rank = build_reeb(f), _ranks(f.values)
    columns = (rank, g.node_vertex, g.lower, g.upper, g.node_of_vertex)
    _check_placement(*columns, g.edge_of_vertex)
    v, eov = _misplace(g, rank, kind)
    with pytest.raises(InvariantViolationError, match=f"^vertex {v} is misplaced on edge {eov[v]}$"):
        _check_placement(*columns, eov)


# ---------------------------------------------------------------------------
# Integer ranks: the vertex order and the one-key mass deposit
# ---------------------------------------------------------------------------


def _zero_fields(level):
    """The two +-0.0 fields of the triangle-statistics test: all zeros, and zeros of both signs beside steps."""
    mesh = build_sphere(level)
    signs = np.random.default_rng(level).random(mesh.n_points) < 0.5
    return [ScalarField(mesh, np.where(signs, 0.0, -0.0)),
            ScalarField(mesh, np.where(signs, -0.0, np.round(2.0 * mesh.points[:, 2])))]


def _two_sort_deposit(mesh, vals, rank, node_vals, e_lower, e_upper,
                      node_of_vertex, edge_of_vertex):
    """The mass deposit with a float sort and a stable sort by edge, as before the integer keys;
    verbatim but for its name and the four statistics it reads."""
    n_nodes, n_edges = node_vals.size, e_lower.size
    tmass = mesh.tri_masses
    lo, hi, bary, mid = _triangle_stats(mesh.triangles, vals, rank)[:4]
    anchor = edge_of_vertex[mid]

    # Triangles whose middle vertex is itself a node: route them to an
    # incident edge on the side of the barycenter value (smallest edge id
    # for determinism).
    ids = np.arange(n_edges)
    first_up = np.full(n_nodes, n_edges)
    np.minimum.at(first_up, e_lower, ids)
    first_down = np.full(n_nodes, n_edges)
    np.minimum.at(first_down, e_upper, ids)
    at = np.nonzero(anchor < 0)[0]
    nid = node_of_vertex[mid[at]]
    go_up = ((bary[at] >= node_vals[nid]) & (first_up[nid] < n_edges)) | (first_down[nid] == n_edges)
    anchor[at] = np.where(go_up, first_up[nid], first_down[nid])

    lo_a = node_vals[e_lower[anchor]]
    hi_a = node_vals[e_upper[anchor]]
    l_in = np.clip(lo, lo_a, hi_a)
    h_in = np.clip(hi, lo_a, hi_a)
    width = hi - lo
    wide = width * _DENSITY_ROUNDING > 2.0 * np.finfo(float).eps * tmass * np.ptp(vals)
    safe_w = np.where(wide, width, 1.0)
    inside = np.where(wide, tmass * (h_in - l_in) / safe_w, 0.0)
    below = np.where(wide, tmass * (l_in - lo) / safe_w, 0.0)
    above = np.where(wide, tmass * (hi - h_in) / safe_w, 0.0)
    atom_mass = np.where(wide, 0.0, tmass)
    node_atom = np.bincount(np.concatenate([e_lower[anchor], e_upper[anchor]]),
                            weights=np.concatenate([below, above]), minlength=n_nodes)

    # Knots: both node values of every edge, the ends of every band inside
    # it, and its atoms, deduplicated per edge after one sort.
    seg = np.nonzero(inside > 0)[0]
    pts = np.nonzero(atom_mass > 0)[0]
    owner = np.concatenate([ids, ids, anchor[seg], anchor[seg], anchor[pts]])
    value = np.concatenate([node_vals[e_lower], node_vals[e_upper],
                            l_in[seg], h_in[seg], l_in[pts]])
    srt = np.argsort(value)
    srt = srt[np.argsort(owner[srt], kind="stable")]  # by edge, then by value
    s_owner, s_value = owner[srt], value[srt]
    new = np.ones(srt.size, dtype=bool)
    new[1:] = (s_owner[1:] != s_owner[:-1]) | (s_value[1:] != s_value[:-1])
    s_knot = np.cumsum(new) - 1
    knot_of = np.empty(srt.size, dtype=np.int64)
    knot_of[srt] = s_knot
    knots = s_value[new]
    bounds = np.searchsorted(s_owner[new], np.arange(n_edges + 1))
    # -0.0 == 0.0: where an edge meets zero with both signs, its knot keeps
    # the sign np.unique picks from the edge's values (its sort is unstable).
    zero, neg = s_value == 0, np.signbit(s_value)
    for k in np.intersect1d(s_knot[zero & neg], s_knot[zero & ~neg]).tolist():
        edge_vals = np.unique(value[owner == s_owner[new][k]])
        knots[k] = edge_vals[np.searchsorted(edge_vals, 0.0)]
    count = np.diff(bounds)
    k_lo, k_hi, k_pt = np.split(knot_of[2 * n_edges:], [seg.size, 2 * seg.size])

    d = inside[seg] / (h_in[seg] - l_in[seg])
    dens_delta = np.bincount(np.concatenate([k_lo, k_hi]), weights=np.concatenate([d, -d]),
                             minlength=knots.size)
    density = _segmented_cumsum(dens_delta, count)
    inner = np.ones(knots.size, dtype=bool)  # knots above their edge's first
    inner[bounds[:-1]] = False
    seg_mass = (density[:-1] * np.diff(knots))[inner[1:]]
    jumps = np.bincount(k_pt, weights=atom_mass[pts], minlength=knots.size)
    cum_left = np.zeros(knots.size)
    cum_left[inner] = _segmented_cumsum(seg_mass, count - 1)
    cum_left += _segmented_cumsum(jumps, count) - jumps
    return node_atom, bounds, knots, cum_left, cum_left + jumps


@pytest.mark.parametrize("level", [3, 4, 5])
def test_one_key_deposit_matches_the_two_sort_deposit(level):
    """All five outputs, byte for byte; the all-zero field is constant and deposits nothing."""
    zeros, signed = _zero_fields(level)
    assert build_reeb(zeros).constant
    for f in _reference_fields(level) + [signed]:
        g, vals = build_reeb(f), f.values + 0.0
        rank = _ranks(vals)
        columns = (g.lower, g.upper, g.node_of_vertex, g.edge_of_vertex)
        want = _two_sort_deposit(f.mesh, vals, rank, g.node_value, *columns)
        got = _deposit_mass(f.mesh, vals, rank, _vertex_order(vals)[1], g.node_vertex, *columns)
        assert len(got) == len(want) == 5
        for w, o in zip(want, got):
            assert o.dtype == w.dtype and o.tobytes() == w.tobytes()


def test_vertex_order_is_the_stable_order():
    """(value, index) order on ties, +-0.0 plateaus, a constant run and noise; the class is a run's first rank."""
    mesh = build_sphere(5)
    rng = np.random.default_rng(9)
    noise = rng.normal(size=mesh.n_points)
    signs = rng.random(mesh.n_points) < 0.5
    fields = [np.round(3.0 * noise), np.where(signs, 0.0, -0.0), np.where(signs, -0.0, np.round(noise)),
              np.full(mesh.n_points, 1.5), noise, np.where(noise > 0.0, noise, 0.25)]
    for vals in fields:
        stable = np.argsort(vals, kind="stable")
        order, value_class = _vertex_order(vals)
        assert np.array_equal(order, stable)
        sv = vals[stable]
        assert np.array_equal(value_class, np.searchsorted(sv, sv))


def test_a_zero_of_either_sign_builds_one_tree():
    """On fields with zeros of both signs, flipping the sign of every zero leaves every array,
    the JSON and the median byte-identical, and no knot, node value or median value is -0.0."""
    mesh = build_sphere(3)
    x, y, _ = mesh.points.T
    fields = [np.round(3 * x + 2 * y)] + [f.values for f in _reference_fields(3)[3:6]] + [_zero_fields(3)[1].values]
    for vals in fields:
        assert np.signbit(vals[vals == 0]).any()
        g, h = (build_reeb(ScalarField(mesh, v)) for v in (vals, np.where(vals == 0, -vals, vals)))
        arrays = [name for name, a in vars(g).items() if isinstance(a, np.ndarray)]
        assert len(arrays) == 11
        for name in arrays:
            a, b = getattr(g, name), getattr(h, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert g.to_json() == h.to_json()
        m = median(g)
        assert repr(m) == repr(median(h))
        out = np.concatenate([g.knots, g.node_value, [m.value]])
        assert (out == 0).any() and not np.signbit(out[out == 0]).any()
