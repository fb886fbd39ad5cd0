"""Level-set trees of sphere fields and the median-based quasi-state.

For a generic piecewise-linear field on a triangulated sphere, contracting
every connected component of every level set to a point turns the sphere
into a tree: leaves are extrema, interior nodes are saddles, and each edge
is a monotone one-parameter family of circles.  Pushing the normalized
surface area onto that tree makes each edge a one-dimensional mass
distribution.  The *median* is the point whose complementary subtrees each
carry at most half the total mass; evaluating the field there defines

    zeta(f) = field value at the tree median,

a normalized, monotone, positively homogeneous functional that is additive
on pairs of fields built from a common one but not in general.  The size of
that additivity failure is what the bracket-norm machinery elsewhere in the
package estimates from above.

Construction is the join/split merge of Carr, Snoeyink & Axen (2003) with
ties broken by vertex index, so rebuilding the same field is bit-identical;
with the monotone paths of Chiang, Lenz, Lu & Rote (2005), the union-find
sweeps and the leaf peeling loop over critical vertices only, and array code
does the rest, binary lifting placing the regular vertices on the arcs.
Triangle areas land on the tree by spreading each triangle's mass uniformly
over the value band it spans, anchored on the arc of its middle vertex;
whatever sticks out past the arc's ends is deposited on the bounding nodes.
Arc masses are piecewise-linear cumulative profiles along the value axis,
built for all arcs from one sort, so medians interpolate inside an arc.
The tree keeps that flat form: node and edge columns, and every arc's
profile as a slice of three shared arrays (see ``ReebGraph``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import InvariantViolationError, NotASphereMeshError
from .manifold import ScalarField, SphereTri

__all__ = [
    "NotASphereMeshError",
    "InvariantViolationError",
    "ReebGraph",
    "MedianPoint",
    "PiDefect",
    "tau",
    "build_reeb",
    "median",
    "quasi_state",
    "pi_defect",
]


#: Leading constant of the per-level tolerance.  Calibrated on fields with
#: known medians (linear heights, folds like 2*z^2) and on additivity
#: residuals of commuting pairs, whose worst case tracks 1.0 * 4**-level
#: across levels 3..5; the constant keeps a ~4x safety margin over that.
_TAU_COEFF = 4.0


def tau(level: int) -> float:
    """Resolution tolerance for quasi-state values on a level-``level`` sphere.

    Median values converge like the squared mesh spacing, which shrinks by
    4x per subdivision, hence the 4**-level scaling.
    """
    return _TAU_COEFF * 4.0 ** (-level)


# ---------------------------------------------------------------------------
# Graph data types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MedianPoint:
    """Balance point of the mass-weighted tree.

    Either ``node`` or ``edge`` is set.  ``multi`` means the admissible set
    is larger than a single point (a zero-mass stretch or an exact atom tie);
    the reported point is then the deterministic representative with the
    smallest node id, or the lowest admissible value inside an edge.
    """

    value: float
    node: Optional[int] = None
    edge: Optional[int] = None
    multi: bool = False


@dataclass
class ReebGraph:
    """Level-set tree of one field, with the area measure pushed onto it.

    Node ``i`` sits at vertex ``node_vertex[i]`` and carries the point mass
    ``node_atom[i]``; edge ``j`` runs from node ``lower[j]`` up to node
    ``upper[j]``.  Edge ``j``'s mass profile is the slice
    ``start[j]:start[j + 1]`` of ``knots``, ``cum_left`` and ``cum_right``:
    ascending values and the cumulative mass from the lower node just below
    and just at each (a gap between the two is a point mass at that knot).
    """

    node_vertex: np.ndarray
    node_value: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    node_atom: np.ndarray
    start: np.ndarray
    knots: np.ndarray
    cum_left: np.ndarray
    cum_right: np.ndarray
    level: int
    constant: bool = False
    node_of_vertex: Optional[np.ndarray] = None
    edge_of_vertex: Optional[np.ndarray] = None

    @property
    def n_nodes(self) -> int:
        return self.node_value.size

    @property
    def n_edges(self) -> int:
        return self.lower.size

    @property
    def edge_mass(self) -> np.ndarray:
        """Mass of each edge: the last ``cum_right`` entry of its slice."""
        return self.cum_right[self.start[1:] - 1]

    def total_mass(self) -> float:
        # Builtin sums add left to right; the qstate CSV prints this sum to
        # 17 digits, and np.sum's pairwise order would change its last bits.
        return float(sum(self.node_atom.tolist()) + sum(self.edge_mass.tolist()))

    def validate(self) -> None:
        """Check the tree and mass invariants, raising on violation."""
        if self.n_nodes - self.n_edges != 1:
            raise InvariantViolationError(
                f"graph has {self.n_nodes} nodes and {self.n_edges} edges; "
                "a level-set tree needs exactly nodes - edges = 1"
            )
        s = self.start
        if not (s.size == self.n_edges + 1 and s[0] == 0 and np.all(np.diff(s) > 0)
                and s[-1] == self.knots.size == self.cum_left.size == self.cum_right.size):
            raise InvariantViolationError("profile offsets do not cut one non-empty slice per edge")
        total = self.total_mass()
        if abs(total - 1.0) > 1e-9:
            raise InvariantViolationError(
                f"pushforward mass is {total!r}, expected 1 within 1e-9"
            )
        first, last = self.start[:-1], self.start[1:] - 1
        outside = ~(self.knots[first] >= self.node_value[self.lower] - 1e-12)
        outside |= ~(self.knots[last] <= self.node_value[self.upper] + 1e-12)
        # A step between two knots of different edges is no step of a profile.
        owner = np.repeat(np.arange(self.n_edges), np.diff(self.start))
        falls = (np.diff(self.knots) < 0) | (np.diff(self.cum_right) < -1e-15)
        falls &= owner[1:] == owner[:-1]
        bad = np.concatenate([np.nonzero(outside)[0], owner[1:][falls]])
        if bad.size:
            e = int(bad.min())
            raise InvariantViolationError(
                f"edge {e} mass profile leaves its value interval" if outside[e]
                else f"edge {e} cumulative profile is not monotone"
            )

    def to_dot(self) -> str:
        """Graphviz rendering with values on nodes and masses on edges."""
        out = ["graph levelset_tree {", "  node [shape=circle];"]
        for i, (value, atom) in enumerate(zip(self.node_value.tolist(), self.node_atom.tolist())):
            label = f"{value:.6g}"
            if atom > 0:
                label += f"\\natom {atom:.3g}"
            out.append(f'  n{i} [label="{label}"];')
        for lw, up, mass in zip(self.lower.tolist(), self.upper.tolist(), self.edge_mass.tolist()):
            out.append(f'  n{lw} -- n{up} [label="{mass:.6g}"];')
        out.append("}")
        return "\n".join(out)

    def to_json(self) -> str:
        """Deterministic JSON dump of topology, values, and masses."""
        nodes = zip(self.node_vertex.tolist(), self.node_value.tolist(), self.node_atom.tolist())
        first, last = self.start[:-1], self.start[1:] - 1
        edges = zip(self.lower.tolist(), self.upper.tolist(), self.edge_mass.tolist(),
                    self.knots[first].tolist(), self.knots[last].tolist())
        payload = {
            "level": self.level,
            "constant": self.constant,
            "nodes": [
                {"id": i, "vertex": vertex, "value": value, "atom": atom}
                for i, (vertex, value, atom) in enumerate(nodes)
            ],
            "edges": [
                {"id": j, "lower": lw, "upper": up, "mass": mass, "value_span": [k0, k1]}
                for j, (lw, up, mass, k0, k1) in enumerate(edges)
            ],
        }
        return json.dumps(payload, sort_keys=True)


@dataclass(frozen=True)
class PiDefect:
    """Additivity defect of the quasi-state on one pair of fields."""

    defect: float
    zeta_sum: float
    zeta_f: float
    zeta_g: float


# ---------------------------------------------------------------------------
# Merge trees
# ---------------------------------------------------------------------------


def _merge_trees(corners: tuple[np.ndarray, ...], order: np.ndarray, rank: np.ndarray):
    """Nodes, monotone-path extrema, and both merge trees over the nodes.

    ``corners`` holds one (v, x, y) per triangle corner, y following x
    counter-clockwise around v.  Sweeping up (down), a run of earlier
    neighbours starts at y when y is earlier and x is not, or is v's whole
    link; v is regular iff it has one run each way (Banchoff 1967).  A path
    stepping to any earlier neighbour ends at an extremum in its start's
    component, so each run at a node joins its first vertex's extremum's
    component.  Returns the node vertices by rank, each vertex's node id
    (-1 if regular), its (maximum, minimum), and (join tree, split tree):
    per node, the later node at which its component joined, or -1.
    """
    v, x, y = corners
    n = rank.size
    rank_v = rank[v]
    early, x_early = rank[y] < rank_v, rank[x] < rank_v
    # Lower and upper runs alternate around the link: as many of each, and
    # none at an extremum, whose whole link is earlier in one sweep.  (Masks
    # index through np.flatnonzero: a random boolean mask indexes slowly.)
    runs = np.bincount(v[np.flatnonzero(early & ~x_early)], minlength=n)
    crit = order[runs[order] != 1]
    node = np.full(n, -1, dtype=np.int64)
    node[crit] = np.arange(crit.size)
    runs_v, some_corner = runs[v], np.empty(n, dtype=np.int64)
    at = np.flatnonzero(runs_v == 0)  # the corners at extrema
    some_corner[v[at]] = at
    extremum = some_corner[runs == 0]
    ends, trees = [], []
    for key, below, start in ((-rank, ~early, ~early & x_early), (rank, early, early & ~x_early)):
        end, at = np.arange(n), np.flatnonzero(below)
        end[v[at]] = y[at]
        while not np.array_equal(nxt := end[end], end):
            end = nxt
        run = np.concatenate([np.flatnonzero(start & (runs_v > 1)), extremum[below[extremum]]])
        run = run[np.argsort(key[v[run]])]
        parent, root = [-1] * crit.size, list(range(crit.size))
        for w, u in zip(node[v[run]].tolist(), node[end[y[run]]].tolist()):
            while root[u] != u:
                root[u] = root[root[u]]
                u = root[u]
            if u != w:
                parent[u] = w
                root[u] = w
        ends.append(end)
        trees.append(np.asarray(parent, dtype=np.int64))
    return crit, node, ends, trees


def _contour_arcs(jt_down: np.ndarray, st_up: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Combine the two merge trees into the arcs of the level-set tree.

    Standard leaf-peeling merge: a node with no children left in one tree
    (the join tree, 0, is tried before the split tree, 1) and at most one in
    the other is pinched off along its pointer in the first tree, and
    contracted out of the second: its parent there takes over its child.
    Each tree keeps, per node, the number of children left and the sum of
    their ids, which is the only child when one is left.  The arcs do not
    depend on the order of peeling.  Returns their endpoints oriented
    (peeled, kept): a tree rooted at the node never peeled, as ``_place``
    reads it.
    """
    n = jt_down.size
    ptr = jt_down.tolist(), st_up.tolist()
    kids = [np.bincount(p[p >= 0], minlength=n) for p in (jt_down, st_up)]
    ids = [np.bincount(p[p >= 0], weights=np.flatnonzero(p >= 0), minlength=n).astype(np.int64).tolist()
           for p in (jt_down, st_up)]
    stack = np.flatnonzero((np.minimum(*kids) == 0) & (np.maximum(*kids) <= 1)).tolist()  # the leaves
    kids = [k.tolist() for k in kids]
    arcs = []
    while stack and len(arcs) < n - 1:
        v = stack.pop()
        for t, o in ((0, 1), (1, 0)):
            if kids[t][v] == 0 and kids[o][v] <= 1 and ptr[t][v] >= 0:
                break
        else:
            continue
        w, p, c = ptr[t][v], ptr[o][v], ids[o][v]
        kids[t][w] -= 1
        ids[t][w] -= v
        if p >= 0:
            kids[o][p] += kids[o][v] - 1
            ids[o][p] += c - v
        if kids[o][v]:
            ptr[o][c] = p
        ptr[0][v] = ptr[1][v] = -1  # v is out of both trees: never peel it again
        arcs.append((v, w))
        stack.append(w)
        if p >= 0:
            stack.append(p)
    if len(arcs) != n - 1:
        raise InvariantViolationError("merge-tree combination did not produce a tree")
    return np.array(arcs, dtype=np.int64).reshape(-1, 2).T


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _place(a: np.ndarray, b: np.ndarray, low: np.ndarray, high: np.ndarray,
           below: np.ndarray) -> np.ndarray:
    """The arc (index into ``a``) holding each regular vertex, by binary lifting.

    parent[a] = b roots the tree.  A regular vertex lies on the rising path
    from its minimum ``low`` to its maximum ``high``; nodes below ``below``
    (ids follow rank) lie below it.  Lifting from ``low`` past nodes below it
    and from ``high`` past nodes above it, one end stops under the ends'
    common ancestor and the other at or over it: the deeper stop's parent
    arc holds the vertex.
    """
    n = a.size + 1
    parent = np.arange(n)
    parent[a] = b
    arc = np.zeros(n, dtype=np.int64)
    arc[a] = np.arange(a.size)
    # up[k]: 2**k-th ancestor (the root stays); hi[k], lo[k]: extremes passed.
    up, hi, lo = [parent], [parent], [parent]
    depth = (parent != np.arange(n)).astype(np.int64)
    while not np.array_equal(nxt := up[-1][up[-1]], up[-1]):
        depth = depth + depth[up[-1]]
        hi.append(np.maximum(hi[-1], hi[-1][up[-1]]))
        lo.append(np.minimum(lo[-1], lo[-1][up[-1]]))
        up.append(nxt)
    for step, top, bottom in zip(up[::-1], hi[::-1], lo[::-1]):
        low = np.where(top[low] < below, step[low], low)
        high = np.where(bottom[high] >= below, step[high], high)
    return arc[np.where(depth[low] > depth[high], low, high)]


def _check_placement(rank, node_vertex, lower, upper, node_of_vertex, edge_of_vertex):
    """Raise unless each regular vertex, and no node, has an edge id, of an
    edge whose end nodes bracket the vertex's rank."""
    e = edge_of_vertex
    on = (e >= 0) & (e < lower.size)
    ends = rank[node_vertex[np.stack([lower, upper])[:, np.where(on, e, 0)]]]
    bad = (on != (node_of_vertex < 0)) | on & ((ends[0] > rank) | (rank > ends[1]))
    if bad.any():
        v = int(np.argmax(bad))
        raise InvariantViolationError(f"vertex {v} is misplaced on edge {int(e[v])}")


def _vertex_order(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertices by (value, index), and per rank its value class: the first rank with its value.

    An unstable sort, then one integer sort of run * n + index puts each run of equal
    values (-0.0 and +0.0 share one) in index order, as a stable sort does."""
    n, order = vals.size, np.argsort(vals)
    sv = vals[order]
    first = np.flatnonzero(np.concatenate(([True], sv[1:] != sv[:-1])))  # of each run
    run = np.repeat(np.arange(first.size), np.diff(first, append=n))
    if first.size < n:
        order = np.sort(run * n + order) - run * n
    return order, first[run]


def build_reeb(f: ScalarField) -> ReebGraph:
    """Build the level-set tree of ``f`` with the area measure on it.

    Vertices are ordered by (value, index), so exact ties are resolved
    deterministically.  A value of -0.0 counts as +0.0, so no knot, node
    value or median is -0.0.  A constant field has no level-set structure at all;
    it collapses to a single node carrying the full mass, and the result is
    flagged ``constant``.
    """
    mesh = f.mesh
    if not isinstance(mesh, SphereTri):
        raise NotASphereMeshError(
            f"level-set trees require a sphere mesh, got {type(mesh).__name__}"
        )
    vals = np.asarray(f.values, dtype=float) + 0.0  # -0.0 becomes +0.0: one sign of zero, every other bit kept
    if not np.all(np.isfinite(vals)):
        raise ValueError("field values must be finite")
    n = mesh.n_points
    if vals.max() == vals.min():
        zero, none, empty = np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)
        g = ReebGraph(
            zero, vals[:1].copy(), none, none, np.ones(1), zero, empty, empty, empty,
            level=mesh.level,
            constant=True,
            node_of_vertex=np.zeros(n, dtype=np.int64),
            edge_of_vertex=np.full(n, -1, dtype=np.int64),
        )
        g.validate()
        return g

    order, value_class = _vertex_order(vals)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    tri = mesh.triangles  # the corner columns die with the call, before the deposit
    crit, node_of_vertex, (highest, lowest), trees = _merge_trees(
        (tri.ravel(), np.roll(tri, -1, axis=1).ravel(), np.roll(tri, 1, axis=1).ravel()), order, rank)
    a, b = _contour_arcs(*trees)
    reg = order[node_of_vertex[order] < 0]
    arc = _place(a, b, node_of_vertex[lowest[reg]], node_of_vertex[highest[reg]],
                 np.searchsorted(rank[crit], rank[reg]))
    # Edges are numbered by (lower node, rank of the lowest vertex above it).
    lower, upper = np.minimum(a, b), np.maximum(a, b)
    first = rank[crit[upper]]
    np.minimum.at(first, arc, rank[reg])
    by_id = np.lexsort((first, lower))
    e_lower, e_upper = lower[by_id], upper[by_id]
    edge_of_vertex = np.full(n, -1, dtype=np.int64)
    edge_of_vertex[reg] = np.argsort(by_id)[arc]
    _check_placement(rank, crit, e_lower, e_upper, node_of_vertex, edge_of_vertex)
    g = ReebGraph(
        crit, vals[crit], e_lower, e_upper,
        *_deposit_mass(mesh, vals, rank, value_class, crit, e_lower, e_upper, node_of_vertex, edge_of_vertex),
        level=mesh.level,
        node_of_vertex=node_of_vertex,
        edge_of_vertex=edge_of_vertex,
    )
    g.validate()
    return g


#: Largest share of the total mass that one triangle's rounding may leave in
#: an edge's running density sum; a band too narrow for that counts as flat.
_DENSITY_ROUNDING = 1e-12


def _segmented_cumsum(x: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``np.cumsum`` of each run of ``lengths`` consecutive entries of ``x``.

    Bitwise equal to one ``np.cumsum`` call per run: runs whose lengths have
    the same power-of-two ceiling are zero-padded into the rows of one 2-D
    block, and a cumulative sum along the rows adds strictly left to right.
    """
    out = np.empty_like(x)
    starts = np.cumsum(lengths) - lengths
    width = 1 << np.ceil(np.log2(np.maximum(lengths, 1))).astype(np.int64)
    for w in np.unique(width[lengths > 0]):
        rows = np.nonzero((width == w) & (lengths > 0))[0]
        keep = np.arange(w) < lengths[rows, None]
        at = (starts[rows, None] + np.arange(w))[keep]
        block = np.zeros((rows.size, w))
        block[keep] = x[at]
        out[at] = np.cumsum(block, axis=1)[keep]
    return out


def _triangle_stats(tri, vals, rank):
    """Per triangle the lowest, highest and mean value, the middle vertex, and the lowest and highest rank.

    Rounds as the axis-1 ``min``, ``max`` and ``mean`` (a sum from +0.0) of ``vals[tri]``
    and picks the vertex ``argsort`` puts in the middle; a helper, so its temporaries are freed.
    """
    t0, t1, t2 = tri.T
    v0, v1, v2 = vals[t0], vals[t1], vals[t2]
    r0, r1, r2 = rank[t0], rank[t1], rank[t2]
    rises01, rises12 = r0 < r1, r1 < r2
    mid = np.where(rises01 == rises12, t1, np.where(rises01 != (r0 < r2), t0, t2))
    return (np.minimum(np.minimum(v0, v1), v2), np.maximum(np.maximum(v0, v1), v2), (0.0 + v0 + v1 + v2) / 3.0,
            mid, np.minimum(np.minimum(r0, r1), r2), np.maximum(np.maximum(r0, r1), r2))


def _deposit_mass(mesh, vals, rank, value_class, crit, e_lower, e_upper,
                  node_of_vertex, edge_of_vertex):
    """Spread triangle areas over the tree and build per-edge mass profiles.

    Each triangle's mass is uniform over the value band its vertices span,
    anchored on the arc of its middle vertex; the slices of the band below
    or above the arc's value interval become point masses on the bounding
    nodes.  A value-degenerate triangle contributes a point mass directly:
    one of width w = 0, or one whose density m / w would leave more than
    ``_DENSITY_ROUNDING`` of rounding, about 2 eps m R / w (R the field's
    range), in the running density sum.  Every knot is some vertex's value,
    so all (edge, knot) pairs are keyed edge * n + value class, deduplicated
    once, and each knot reads its value from its class; every edge's sums
    restart at zero.  Returns the node atoms and the profiles in
    ``ReebGraph``'s CSR layout: ``start``, ``knots``, ``cum_left`` and ``cum_right``.
    """
    n_nodes, n_edges, n = crit.size, e_lower.size, rank.size
    node_vals, node_rank = vals[crit], rank[crit]
    tmass = mesh.tri_masses
    lo, hi, bary, mid, r_lo, r_hi = _triangle_stats(mesh.triangles, vals, rank)
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

    a_lo, a_hi = e_lower[anchor], e_upper[anchor]
    sv = np.empty(n)  # values by rank: rank order is value order, so a band end clipped in ranks has the clipped value
    sv[rank] = vals
    r_lo, r_hi = np.clip(np.stack([r_lo, r_hi]), node_rank[a_lo], node_rank[a_hi])
    l_in, h_in = sv[r_lo], sv[r_hi]
    width = hi - lo
    wide = width * _DENSITY_ROUNDING > 2.0 * np.finfo(float).eps * tmass * np.ptp(vals)
    safe_w = np.where(wide, width, 1.0)
    inside = np.where(wide, tmass * (h_in - l_in) / safe_w, 0.0)
    below = np.where(wide, tmass * (l_in - lo) / safe_w, 0.0)
    above = np.where(wide, tmass * (hi - h_in) / safe_w, 0.0)
    atom_mass = np.where(wide, 0.0, tmass)
    node_atom = np.bincount(np.concatenate([a_lo, a_hi]),
                            weights=np.concatenate([below, above]), minlength=n_nodes)

    # Knots: both node values of every edge, the ends of every band inside
    # it, and its atoms, deduplicated per edge by one np.unique; a knot
    # reads its value from its value class.
    seg = np.nonzero(inside > 0)[0]
    pts = np.nonzero(atom_mass > 0)[0]
    key = np.concatenate([ids, ids, anchor[seg], anchor[seg], anchor[pts]]) * n
    key += value_class[np.concatenate([node_rank[e_lower], node_rank[e_upper], r_lo[seg], r_hi[seg], r_lo[pts]])]
    knot_key, knot_of = np.unique(key, return_inverse=True)
    knots = sv[knot_key % n]
    bounds = np.searchsorted(knot_key, np.arange(n_edges + 1) * n)
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


# ---------------------------------------------------------------------------
# Median and quasi-state
# ---------------------------------------------------------------------------

_EPS_TIE = 1e-12


class _RootedTree(NamedTuple):
    """A level-set tree rooted at node 0: per node its incident (edge, other node) pairs
    by edge id, its closed subtree's mass and its parent edge (-1 at the root)."""

    adj: list[list[tuple[int, int]]]
    mass: list[float]
    sub: list[float]
    parent_edge: list[int]


def _root(g: ReebGraph) -> _RootedTree:
    """Root the tree at node 0 and sum each node's closed subtree mass, in
    the breadth-first order that the incident edges' ids fix."""
    n = g.n_nodes
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (lw, up) in enumerate(zip(g.lower.tolist(), g.upper.tolist())):
        adj[lw].append((eid, up))
        adj[up].append((eid, lw))
    mass = g.edge_mass.tolist()
    parent = [-1] * n
    parent[0] = 0  # marks the root as seen
    parent_edge = [-1] * n
    bfs = [0]
    for u in bfs:
        for eid, w in adj[u]:
            if parent[w] < 0:
                parent[w] = u
                parent_edge[w] = eid
                bfs.append(w)
    sub = g.node_atom.tolist()
    for w in reversed(bfs[1:]):
        sub[parent[w]] += sub[w] + mass[parent_edge[w]]
    return _RootedTree(adj, mass, sub, parent_edge)


def _beyond(tree: _RootedTree, u: int, eid: int, w: int) -> float:
    """Total mass strictly on the far side of node ``u`` through edge ``eid``."""
    if tree.parent_edge[w] == eid:  # then w is u's child
        return tree.sub[w] + tree.mass[eid]
    return 1.0 - tree.sub[u]


def _profile(g: ReebGraph, eid: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The knots, cum_left and cum_right slices of edge ``eid``."""
    i, j = g.start[eid], g.start[eid + 1]
    return g.knots[i:j], g.cum_left[i:j], g.cum_right[i:j]


def _solve_edge(g: ReebGraph, eid: int, target: float) -> tuple[float, bool]:
    """Value v on edge ``eid`` with cumulative-from-lower mass equal to ``target``.

    Returns (value, multi); multi marks a zero-density plateau where a whole
    value interval is admissible (the lowest value is reported).
    """
    k, cl, cr = _profile(g, eid)
    i = int(np.searchsorted(cr, target, side="left"))
    i = min(i, k.size - 1)
    if i > 0 and cl[i] >= target:
        rise = cl[i] - cr[i - 1]
        if rise > _EPS_TIE * max(1.0, cr[-1]):
            frac = (target - cr[i - 1]) / rise
            return float(k[i - 1] + frac * (k[i] - k[i - 1])), False
        return float(k[i - 1]), bool(k[i] > k[i - 1])
    multi = bool(
        cr[i] == target and i + 1 < k.size and cl[i + 1] <= target and k[i + 1] > k[i]
    )
    return float(k[i]), multi


def median(g: ReebGraph) -> MedianPoint:
    """Locate the mass median of the tree.

    Starting anywhere, there is at most one direction whose far-side mass
    exceeds one half; following such directions reaches either a node where
    every complement is at most one half, or a point inside an edge where
    both sides balance.  Node ties across zero-mass edges are resolved to
    the smallest node id and flagged.
    """
    if g.constant or g.n_nodes == 1:
        return MedianPoint(value=float(g.node_value[0]), node=0)
    tree = _root(g)
    cur = 0
    for _ in range(g.n_nodes + 1):
        over = None
        for eid, w in tree.adj[cur]:
            m = _beyond(tree, cur, eid, w)
            if m > 0.5 + _EPS_TIE:
                over = (eid, w, m)
                break
        if over is None:
            admissible = _tied_nodes(tree, cur)
            best = min(admissible)
            return MedianPoint(float(g.node_value[best]), node=best, multi=len(admissible) > 1)
        eid, w, m = over
        mass = tree.mass[eid]
        s_cur = 1.0 - m
        if s_cur + mass < 0.5 - _EPS_TIE:
            cur = w
            continue
        t = 0.5 - s_cur
        target = t if g.lower[eid] == cur else mass - t
        value, multi = _solve_edge(g, eid, target)
        _check_complements_at(g, tree, eid, value)
        return MedianPoint(value=value, edge=eid, multi=multi)
    raise InvariantViolationError("median walk did not terminate")


def _tied_nodes(tree: _RootedTree, start: int) -> set[int]:
    """Admissible nodes reachable from ``start`` through zero-mass edges."""
    tied = {start}
    frontier = [start]
    while frontier:
        u = frontier.pop()
        for eid, w in tree.adj[u]:
            if w in tied or tree.mass[eid] > _EPS_TIE:
                continue
            if all(_beyond(tree, w, e2, o2) <= 0.5 + _EPS_TIE for e2, o2 in tree.adj[w]):
                tied.add(w)
                frontier.append(w)
    return tied


def _check_complements_at(g: ReebGraph, tree: _RootedTree, eid: int, value: float) -> None:
    """Verify both sides of an interior median carry at most half the mass.

    An atom exactly at the median point belongs to neither side, hence the
    left/right cumulative split at coincident knots.
    """
    lower, upper = int(g.lower[eid]), int(g.upper[eid])
    lo_side = 1.0 - _beyond(tree, lower, eid, upper)
    hi_side = 1.0 - _beyond(tree, upper, eid, lower)
    mass = tree.mass[eid]
    k, cl, cr = _profile(g, eid)
    j = int(np.searchsorted(k, value, side="left"))
    j = min(j, k.size - 1)
    if k[j] == value:
        below = float(cl[j])
        above = float(mass - cr[j])
    else:
        dens = (cl[j] - cr[j - 1]) / (k[j] - k[j - 1])
        below = float(cr[j - 1] + dens * (value - k[j - 1]))
        above = float(mass - below)
    if lo_side + below > 0.5 + 1e-9 or hi_side + above > 0.5 + 1e-9:
        raise InvariantViolationError(
            "median point leaves a complement heavier than one half"
        )


def quasi_state(f: ScalarField) -> float:
    """Field value at the median of its level-set tree.

    Exactly ``c`` for the constant field ``c``; within ``tau(level)`` of the
    continuum value for smooth fields.
    """
    return median(build_reeb(f)).value


def pi_defect(f: ScalarField, g: ScalarField) -> PiDefect:
    """Additivity defect |zeta(f+g) - zeta(f) - zeta(g)| with its pieces."""
    zf = quasi_state(f)
    zg = quasi_state(g)
    zs = quasi_state(f + g)
    return PiDefect(defect=abs(zs - zf - zg), zeta_sum=zs, zeta_f=zf, zeta_g=zg)
