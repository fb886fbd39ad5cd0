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

Construction uses the classical join/split merge-tree sweep with ties
broken by vertex index, so rebuilding the same field is bit-identical.
Triangle areas land on the tree by spreading each triangle's mass uniformly
over the value band it spans, anchored on the arc of its middle vertex;
whatever sticks out past the arc's ends is deposited on the bounding nodes.
Arc masses are kept as piecewise-linear cumulative profiles along the value
axis, so medians interpolate inside an arc instead of snapping to vertices.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field as _field
from typing import NamedTuple, Optional

import numpy as np

from .manifold import ScalarField, SphereTri

__all__ = [
    "NotASphereMeshError",
    "InvariantViolationError",
    "ReebNode",
    "ReebEdge",
    "ReebGraph",
    "MedianPoint",
    "PiDefect",
    "tau",
    "build_reeb",
    "median",
    "quasi_state",
    "pi_defect",
]


class NotASphereMeshError(TypeError):
    """The level-set tree construction here is limited to sphere meshes."""


class InvariantViolationError(RuntimeError):
    """A built graph failed a structural invariant (tree shape or total mass)."""


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


@dataclass
class ReebNode:
    """Critical point of the tree: an extremum (leaf) or a saddle.

    ``atom`` is point mass parked exactly at the node; it collects the
    overhang of triangle bands that extend past the ends of their arc.
    """

    id: int
    vertex: int
    value: float
    atom: float = 0.0


@dataclass
class ReebEdge:
    """Monotone arc between two nodes, with its mass profile.

    ``knots`` are the ascending value breakpoints; ``cum_left[i]`` and
    ``cum_right[i]`` are the cumulative mass just below and just at
    ``knots[i]``, measured from the lower node.  A gap between the two is a
    point mass sitting at that knot.
    """

    id: int
    lower: int
    upper: int
    knots: np.ndarray
    cum_left: np.ndarray
    cum_right: np.ndarray

    @property
    def mass(self) -> float:
        return float(self.cum_right[-1])

    @property
    def span(self) -> tuple[float, float]:
        return float(self.knots[0]), float(self.knots[-1])


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
    """Level-set tree of one field, with the area measure pushed onto it."""

    nodes: list[ReebNode]
    edges: list[ReebEdge]
    level: int
    constant: bool = False
    node_of_vertex: Optional[np.ndarray] = None
    edge_of_vertex: Optional[np.ndarray] = None
    _adj: Optional[list[list[tuple[int, int]]]] = _field(default=None, repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def neighbors(self, node_id: int) -> list[tuple[int, int]]:
        """Incident edges of a node as (edge_id, other_node_id) pairs."""
        if self._adj is None:
            adj: list[list[tuple[int, int]]] = [[] for _ in self.nodes]
            for e in self.edges:
                adj[e.lower].append((e.id, e.upper))
                adj[e.upper].append((e.id, e.lower))
            self._adj = adj
        return self._adj[node_id]

    def total_mass(self) -> float:
        return float(
            sum(nd.atom for nd in self.nodes) + sum(e.mass for e in self.edges)
        )

    def validate(self) -> None:
        """Check the tree and mass invariants, raising on violation."""
        if self.n_nodes - self.n_edges != 1:
            raise InvariantViolationError(
                f"graph has {self.n_nodes} nodes and {self.n_edges} edges; "
                "a level-set tree needs exactly nodes - edges = 1"
            )
        total = self.total_mass()
        if abs(total - 1.0) > 1e-9:
            raise InvariantViolationError(
                f"pushforward mass is {total!r}, expected 1 within 1e-9"
            )
        for e in self.edges:
            lo = self.nodes[e.lower].value
            hi = self.nodes[e.upper].value
            if not (e.knots[0] >= lo - 1e-12 and e.knots[-1] <= hi + 1e-12):
                raise InvariantViolationError(
                    f"edge {e.id} mass profile leaves its value interval"
                )
            if np.any(np.diff(e.knots) < 0) or np.any(np.diff(e.cum_right) < -1e-15):
                raise InvariantViolationError(
                    f"edge {e.id} cumulative profile is not monotone"
                )

    def to_dot(self) -> str:
        """Graphviz rendering with values on nodes and masses on edges."""
        out = ["graph levelset_tree {", "  node [shape=circle];"]
        for nd in self.nodes:
            label = f"{nd.value:.6g}"
            if nd.atom > 0:
                label += f"\\natom {nd.atom:.3g}"
            out.append(f'  n{nd.id} [label="{label}"];')
        for e in self.edges:
            out.append(f'  n{e.lower} -- n{e.upper} [label="{e.mass:.6g}"];')
        out.append("}")
        return "\n".join(out)

    def to_json(self) -> str:
        """Deterministic JSON dump of topology, values, and masses."""
        payload = {
            "level": self.level,
            "constant": self.constant,
            "nodes": [
                {
                    "id": nd.id,
                    "vertex": nd.vertex,
                    "value": nd.value,
                    "atom": nd.atom,
                }
                for nd in self.nodes
            ],
            "edges": [
                {
                    "id": e.id,
                    "lower": e.lower,
                    "upper": e.upper,
                    "mass": e.mass,
                    "value_span": list(e.span),
                }
                for e in self.edges
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


def _merge_tree(indptr: np.ndarray, indices: np.ndarray, order: np.ndarray) -> np.ndarray:
    """One merge-tree sweep over ``order``.

    Returns ``parent`` where parent[w] is the vertex at which w's component
    attached to a later-processed one; the last vertex keeps -1.  Components
    are tracked with a union-find whose ``head`` is the latest vertex seen.
    """
    n = order.size
    parent = [-1] * n
    root = list(range(n))
    head = list(range(n))
    seen = [False] * n
    iptr = indptr.tolist()
    idx = indices.tolist()
    for v in order.tolist():
        rv = v
        for j in range(iptr[v], iptr[v + 1]):
            u = idx[j]
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
    return np.asarray(parent, dtype=np.int64)


def _contour_arcs(jt_down: np.ndarray, st_up: np.ndarray) -> list[tuple[int, int]]:
    """Combine the two merge trees into the arcs of the full level-set tree.

    Standard leaf-peeling merge: a vertex with no children left in one tree
    and at most one in the other is pinched off along its pointer in the
    first tree, and contracted out of the second.
    """
    n = jt_down.size
    jt_ch: list[list[int]] = [[] for _ in range(n)]
    st_ch: list[list[int]] = [[] for _ in range(n)]
    for w in range(n):
        if jt_down[w] >= 0:
            jt_ch[jt_down[w]].append(w)
        if st_up[w] >= 0:
            st_ch[st_up[w]].append(w)
    jt_down = jt_down.copy()
    st_up = st_up.copy()

    def upper_ok(v: int) -> bool:
        return not jt_ch[v] and len(st_ch[v]) <= 1

    def lower_ok(v: int) -> bool:
        return not st_ch[v] and len(jt_ch[v]) <= 1

    queue = deque(v for v in range(n) if upper_ok(v) or lower_ok(v))
    removed = np.zeros(n, dtype=bool)
    arcs: list[tuple[int, int]] = []
    alive = n
    while queue and alive > 1:
        v = queue.popleft()
        if removed[v]:
            continue
        if upper_ok(v) and jt_down[v] >= 0:
            w = int(jt_down[v])
            arcs.append((v, w))
            jt_ch[w].remove(v)
            p = int(st_up[v])
            c = -1
            if st_ch[v]:
                c = st_ch[v][0]
                st_up[c] = p
                if p >= 0:
                    st_ch[p].remove(v)
                    st_ch[p].append(c)
            elif p >= 0:
                st_ch[p].remove(v)
        elif lower_ok(v) and st_up[v] >= 0:
            w = int(st_up[v])
            arcs.append((v, w))
            st_ch[w].remove(v)
            p = int(jt_down[v])
            c = -1
            if jt_ch[v]:
                c = jt_ch[v][0]
                jt_down[c] = p
                if p >= 0:
                    jt_ch[p].remove(v)
                    jt_ch[p].append(c)
            elif p >= 0:
                jt_ch[p].remove(v)
        else:
            continue
        removed[v] = True
        alive -= 1
        for cand in (w, p, c):
            if cand >= 0 and not removed[cand] and (upper_ok(cand) or lower_ok(cand)):
                queue.append(cand)
    if alive != 1 or len(arcs) != n - 1:
        raise InvariantViolationError("merge-tree combination did not produce a tree")
    return arcs


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def build_reeb(f: ScalarField) -> ReebGraph:
    """Build the level-set tree of ``f`` with the area measure on it.

    Vertices are ordered by (value, index), so exact ties are resolved
    deterministically.  A constant field has no level-set structure at all;
    it collapses to a single node carrying the full mass, and the result is
    flagged ``constant``.
    """
    mesh = f.mesh
    if not isinstance(mesh, SphereTri):
        raise NotASphereMeshError(
            f"level-set trees require a sphere mesh, got {type(mesh).__name__}"
        )
    vals = np.asarray(f.values, dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("field values must be finite")
    n = mesh.n_points
    if vals.max() == vals.min():
        g = ReebGraph(
            nodes=[ReebNode(0, 0, float(vals[0]), atom=1.0)],
            edges=[],
            level=mesh.level,
            constant=True,
            node_of_vertex=np.zeros(n, dtype=np.int64),
            edge_of_vertex=np.full(n, -1, dtype=np.int64),
        )
        g.validate()
        return g

    order = np.lexsort((np.arange(n), vals))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    indptr, indices = mesh.neighbor_csr()

    jt_down = _merge_tree(indptr, indices, order[::-1])
    st_up = _merge_tree(indptr, indices, order)
    arcs = _contour_arcs(jt_down, st_up)

    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in arcs:
        adj[a].append(b)
        adj[b].append(a)

    rank_l = rank.tolist()
    regular = [
        len(a) == 2 and (rank_l[a[0]] > rank_l[v]) != (rank_l[a[1]] > rank_l[v])
        for v, a in enumerate(adj)
    ]

    crit = sorted((v for v in range(n) if not regular[v]), key=lambda v: rank_l[v])
    node_of_vertex = np.full(n, -1, dtype=np.int64)
    for i, v in enumerate(crit):
        node_of_vertex[v] = i
    nodes = [ReebNode(i, int(v), float(vals[v])) for i, v in enumerate(crit)]

    edge_of_vertex = np.full(n, -1, dtype=np.int64)
    edge_lower: list[int] = []
    edge_upper: list[int] = []
    for v in crit:
        for nb in sorted(adj[v], key=lambda o: rank_l[o]):
            if rank_l[nb] <= rank_l[v]:
                continue
            chain = []
            prev, cur = v, nb
            while regular[cur]:
                chain.append(cur)
                a0, a1 = adj[cur]
                prev, cur = cur, (a1 if a0 == prev else a0)
            eid = len(edge_lower)
            edge_lower.append(node_of_vertex[v])
            edge_upper.append(int(node_of_vertex[cur]))
            if chain:
                edge_of_vertex[chain] = eid
    e_lower = np.asarray(edge_lower, dtype=np.int64)
    e_upper = np.asarray(edge_upper, dtype=np.int64)
    node_vals = np.array([nd.value for nd in nodes])

    node_atom, edges = _deposit_mass(
        mesh, vals, rank, nodes, node_vals, e_lower, e_upper,
        node_of_vertex, edge_of_vertex,
    )
    for nd, a in zip(nodes, node_atom):
        nd.atom = float(a)

    g = ReebGraph(
        nodes=nodes,
        edges=edges,
        level=mesh.level,
        node_of_vertex=node_of_vertex,
        edge_of_vertex=edge_of_vertex,
    )
    g.validate()
    return g


def _deposit_mass(mesh, vals, rank, nodes, node_vals, e_lower, e_upper,
                  node_of_vertex, edge_of_vertex):
    """Spread triangle areas over the tree and build per-edge mass profiles.

    Each triangle's mass is uniform over the value band its vertices span,
    anchored on the arc of its middle vertex; the slices of the band below
    or above the arc's value interval become point masses on the bounding
    nodes.  Value-degenerate triangles contribute a point mass directly.
    """
    n_edges = e_lower.size
    tri = mesh.triangles
    tmass = mesh.tri_masses
    tvals = vals[tri]
    lo = tvals.min(axis=1)
    hi = tvals.max(axis=1)
    bary = tvals.mean(axis=1)
    mid_pos = np.argsort(rank[tri], axis=1)[:, 1]
    mid = tri[np.arange(len(tri)), mid_pos]
    anchor = edge_of_vertex[mid].copy()

    # Triangles whose middle vertex is itself a node: route them to an
    # incident edge on the side of the barycenter value (smallest edge id
    # for determinism).
    node_adj: list[list[int]] = [[] for _ in nodes]
    for eid in range(n_edges):
        node_adj[e_lower[eid]].append(eid)
        node_adj[e_upper[eid]].append(eid)
    for t in np.nonzero(anchor < 0)[0]:
        nid = int(node_of_vertex[mid[t]])
        ups = [e for e in node_adj[nid] if e_lower[e] == nid]
        downs = [e for e in node_adj[nid] if e_upper[e] == nid]
        if bary[t] >= node_vals[nid] and ups:
            anchor[t] = min(ups)
        elif downs:
            anchor[t] = min(downs)
        else:
            anchor[t] = min(ups)

    lo_a = node_vals[e_lower[anchor]]
    hi_a = node_vals[e_upper[anchor]]
    l_in = np.clip(lo, lo_a, hi_a)
    h_in = np.clip(hi, lo_a, hi_a)
    width = hi - lo
    wide = width > 0
    safe_w = np.where(wide, width, 1.0)
    inside = np.where(wide, tmass * (h_in - l_in) / safe_w, 0.0)
    below = np.where(wide, tmass * (l_in - lo) / safe_w, 0.0)
    above = np.where(wide, tmass * (hi - h_in) / safe_w, 0.0)
    atom_val = np.clip(lo, lo_a, hi_a)
    atom_mass = np.where(wide, 0.0, tmass)

    node_atom = np.zeros(len(nodes))
    np.add.at(node_atom, e_lower[anchor], below)
    np.add.at(node_atom, e_upper[anchor], above)

    order_t = np.argsort(anchor, kind="stable")
    srt = anchor[order_t]
    starts = np.searchsorted(srt, np.arange(n_edges))
    ends = np.searchsorted(srt, np.arange(n_edges) + 1)

    edges = []
    for eid in range(n_edges):
        ts = order_t[starts[eid]: ends[eid]]
        a_val = node_vals[e_lower[eid]]
        b_val = node_vals[e_upper[eid]]
        seg_sel = ts[inside[ts] > 0]
        sl = l_in[seg_sel]
        sh = h_in[seg_sel]
        sm = inside[seg_sel]
        pt_sel = ts[atom_mass[ts] > 0]
        av = atom_val[pt_sel]
        am = atom_mass[pt_sel]
        knots = np.unique(np.concatenate([[a_val, b_val], sl, sh, av]))
        dens_delta = np.zeros(knots.size)
        if sl.size:
            d = sm / (sh - sl)
            np.add.at(dens_delta, np.searchsorted(knots, sl), d)
            np.add.at(dens_delta, np.searchsorted(knots, sh), -d)
        density = np.cumsum(dens_delta)
        seg_mass = density[:-1] * np.diff(knots)
        jumps = np.zeros(knots.size)
        if av.size:
            np.add.at(jumps, np.searchsorted(knots, av), am)
        cum_left = np.concatenate([[0.0], np.cumsum(seg_mass)]) + (
            np.cumsum(jumps) - jumps
        )
        cum_right = cum_left + jumps
        edges.append(
            ReebEdge(eid, int(e_lower[eid]), int(e_upper[eid]),
                     knots, cum_left, cum_right)
        )
    return node_atom, edges


# ---------------------------------------------------------------------------
# Median and quasi-state
# ---------------------------------------------------------------------------

_EPS_TIE = 1e-12


class _RootedTree(NamedTuple):
    """A level-set tree rooted at node 0, per node: the mass of its closed
    subtree, its parent node and the edge to its parent (-1 at the root)."""

    sub: np.ndarray
    parent: np.ndarray
    parent_edge: np.ndarray


def _subtree_masses(g: ReebGraph) -> _RootedTree:
    """Root the tree at node 0 and sum each node's closed subtree mass."""
    n = g.n_nodes
    parent = np.full(n, -1, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)
    bfs = [0]
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    for u in bfs:
        for eid, w in g.neighbors(u):
            if not seen[w]:
                seen[w] = True
                parent[w] = u
                parent_edge[w] = eid
                bfs.append(w)
    sub = np.array([nd.atom for nd in g.nodes])
    for w in reversed(bfs):
        p = parent[w]
        if p >= 0:
            sub[p] += sub[w] + g.edges[parent_edge[w]].mass
    return _RootedTree(sub, parent, parent_edge)


def _beyond(g: ReebGraph, rooted: _RootedTree, u: int, eid: int, w: int) -> float:
    """Total mass strictly on the far side of node ``u`` through edge ``eid``."""
    if rooted.parent[w] == u and rooted.parent_edge[w] == eid:
        return float(rooted.sub[w] + g.edges[eid].mass)
    return float(1.0 - rooted.sub[u])


def _solve_edge(e: ReebEdge, target: float) -> tuple[float, bool]:
    """Value v on the edge with cumulative-from-lower mass equal to ``target``.

    Returns (value, multi); multi marks a zero-density plateau where a whole
    value interval is admissible (the lowest value is reported).
    """
    k, cl, cr = e.knots, e.cum_left, e.cum_right
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
        return MedianPoint(value=g.nodes[0].value, node=0)
    rooted = _subtree_masses(g)
    cur = 0
    for _ in range(g.n_nodes + 1):
        over = None
        for eid, w in g.neighbors(cur):
            m = _beyond(g, rooted, cur, eid, w)
            if m > 0.5 + _EPS_TIE:
                over = (eid, w, m)
                break
        if over is None:
            admissible = _tied_nodes(g, rooted, cur)
            best = min(admissible)
            return MedianPoint(
                value=g.nodes[best].value, node=best, multi=len(admissible) > 1
            )
        eid, w, m = over
        edge = g.edges[eid]
        s_cur = 1.0 - m
        if s_cur + edge.mass < 0.5 - _EPS_TIE:
            cur = w
            continue
        t = 0.5 - s_cur
        target = t if edge.lower == cur else edge.mass - t
        value, multi = _solve_edge(edge, target)
        _check_complements_at(g, rooted, edge, value)
        return MedianPoint(value=value, edge=eid, multi=multi)
    raise InvariantViolationError("median walk did not terminate")


def _tied_nodes(g: ReebGraph, rooted: _RootedTree, start: int) -> set[int]:
    """Admissible nodes reachable from ``start`` through zero-mass edges."""
    tied = {start}
    frontier = [start]
    while frontier:
        u = frontier.pop()
        for eid, w in g.neighbors(u):
            if w in tied or g.edges[eid].mass > _EPS_TIE:
                continue
            if all(
                _beyond(g, rooted, w, e2, o2) <= 0.5 + _EPS_TIE
                for e2, o2 in g.neighbors(w)
            ):
                tied.add(w)
                frontier.append(w)
    return tied


def _check_complements_at(g: ReebGraph, rooted: _RootedTree, edge: ReebEdge, value: float) -> None:
    """Verify both sides of an interior median carry at most half the mass.

    An atom exactly at the median point belongs to neither side, hence the
    left/right cumulative split at coincident knots.
    """
    lo_side = 1.0 - _beyond(g, rooted, edge.lower, edge.id, edge.upper)
    hi_side = 1.0 - _beyond(g, rooted, edge.upper, edge.id, edge.lower)
    k = edge.knots
    j = int(np.searchsorted(k, value, side="left"))
    j = min(j, k.size - 1)
    if k[j] == value:
        below = float(edge.cum_left[j])
        above = float(edge.mass - edge.cum_right[j])
    else:
        dens = (edge.cum_left[j] - edge.cum_right[j - 1]) / (k[j] - k[j - 1])
        below = float(edge.cum_right[j - 1] + dens * (value - k[j - 1]))
        above = float(edge.mass - below)
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
