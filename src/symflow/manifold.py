"""Meshes and scalar fields on the flat torus and the round sphere.

Two discretisations are provided, both carrying a probability measure
(total mass 1):

* ``TorusGrid``: a regular n_q-by-n_p grid on [0,1)^2 with uniform
  point weights, coordinates ``(q, p)``.
* ``SphereTri``: an icosahedron subdivided ``level`` times with vertices
  on the unit sphere; flat-triangle areas are renormalised so the
  triangle masses sum to 1, and each vertex receives one third of the
  mass of its incident triangles.

Fields are arrays of vertex values, optionally backed by a closed-form
expression from :mod:`symflow.expr` (which enables exact evaluation off
the mesh and symbolic differentiation downstream).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .errors import LocationFailureError, MeshMismatchError, SizeTooSmallError
from .expr import Expression, parse

__all__ = [
    "Mesh",
    "TorusGrid",
    "SphereTri",
    "ScalarField",
    "SizeTooSmallError",
    "MeshMismatchError",
    "LocationFailureError",
    "build_torus",
    "build_sphere",
    "sample",
    "mean",
    "uniform_norm",
    "l1_norm",
    "NORMS",
    "interpolate",
]


class Mesh:
    """Base class; concrete meshes are :class:`TorusGrid` and :class:`SphereTri`."""

    kind: str
    points: np.ndarray
    weights: np.ndarray
    coord_names: tuple[str, ...]

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def signature(self) -> tuple:
        raise NotImplementedError

    def same_as(self, other: "Mesh") -> bool:
        return self is other or self.signature() == other.signature()


class TorusGrid(Mesh):
    """Uniform periodic grid on [0,1)^2, row-major over (q, p)."""

    kind = "torus"
    coord_names = ("q", "p")

    def __init__(self, n_q: int, n_p: int):
        self.n_q = n_q
        self.n_p = n_p
        q = np.arange(n_q) / n_q
        p = np.arange(n_p) / n_p
        qq, pp = np.meshgrid(q, p, indexing="ij")
        self.points = np.column_stack([qq.ravel(), pp.ravel()])
        self.weights = np.full(n_q * n_p, 1.0 / (n_q * n_p))

    def signature(self) -> tuple:
        return ("torus", self.n_q, self.n_p)

    def grid_values(self, values: np.ndarray) -> np.ndarray:
        """Reshape a flat vertex-value vector to (n_q, n_p)."""
        return np.asarray(values).reshape(self.n_q, self.n_p)


class SphereTri(Mesh):
    """Geodesic icosphere: subdivided icosahedron with unit vertices."""

    kind = "sphere"
    coord_names = ("x", "y", "z")

    def __init__(self, level: int, vertices: np.ndarray, triangles: np.ndarray):
        self.level = level
        self.points = vertices
        self.triangles = triangles
        flat = np.cross(
            vertices[triangles[:, 1]] - vertices[triangles[:, 0]],
            vertices[triangles[:, 2]] - vertices[triangles[:, 0]],
        )
        areas = 0.5 * np.linalg.norm(flat, axis=1)
        self.tri_masses = areas / areas.sum()
        w = np.zeros(len(vertices))
        np.add.at(w, triangles.ravel(), np.repeat(self.tri_masses / 3.0, 3))
        self.weights = w

    def signature(self) -> tuple:
        return ("sphere", self.level)

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @cached_property
    def kdtree(self):
        from scipy.spatial import cKDTree  # on first use: it loads slower and larger than the rest of symflow
        return cKDTree(self.points)

    @cached_property
    def vertex_triangles(self) -> list[np.ndarray]:
        """Indices of triangles incident to each vertex."""
        order = np.argsort(self.triangles.ravel(), kind="stable")
        tri_ids = np.repeat(np.arange(self.n_triangles), 3)[order]
        counts = np.bincount(self.triangles.ravel(), minlength=self.n_points)
        splits = np.cumsum(counts)[:-1]
        return np.split(tri_ids, splits)

    @cached_property
    def triangle_inverses(self) -> np.ndarray:
        """Per-triangle inverse of the 3x3 vertex matrix, for radial barycentrics."""
        mats = self.points[self.triangles].transpose(0, 2, 1)
        return np.linalg.inv(mats)

    @cached_property
    def neighbor_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Vertex adjacency as (indptr, indices), CSR style, sorted per row."""
        t = self.triangles
        edges = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        both = np.concatenate([edges, edges[:, ::-1]])
        both = np.unique(both, axis=0)
        indptr = np.zeros(self.n_points + 1, dtype=np.int64)
        np.add.at(indptr, both[:, 0] + 1, 1)
        indptr = np.cumsum(indptr)
        return indptr, both[:, 1].copy()

    @cached_property
    def lsq_gradient_operator(self) -> tuple[np.ndarray, ...]:
        """Per-vertex least-squares tangent gradient operator.

        Holds ``(nbr, mask, pinv, e1, e2)``: padded neighbour indices, their
        validity mask, the pseudo-inverse mapping neighbour differences to
        coefficients in the tangent frame, and that frame.
        """
        indptr, indices = self.neighbor_csr
        kmax = int(np.diff(indptr).max())
        n = self.n_points
        nbr = np.zeros((n, kmax), dtype=np.int64)
        mask = np.zeros((n, kmax))
        for v in range(n):
            row = indices[indptr[v]:indptr[v + 1]]
            nbr[v, : len(row)] = row
            mask[v, : len(row)] = 1.0
        pts = self.points
        seed = np.where(np.abs(pts[:, [0]]) < 0.9, [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]])
        e1 = np.cross(pts, seed)
        e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
        e2 = np.cross(pts, e1)
        d = (pts[nbr] - pts[:, None, :]) * mask[:, :, None]
        a = np.stack([np.einsum("nkc,nc->nk", d, e1), np.einsum("nkc,nc->nk", d, e2)], axis=2)
        pinv = np.linalg.pinv(a)  # (n, 2, kmax)
        return nbr, mask, pinv, e1, e2

    def edges(self) -> np.ndarray:
        """Unique undirected mesh edges as an (e, 2) array with u < v."""
        t = self.triangles
        e = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        e.sort(axis=1)
        return np.unique(e, axis=0)


@dataclass
class ScalarField:
    """Vertex values on a mesh, optionally backed by a closed-form expression."""

    mesh: Mesh
    values: np.ndarray
    expr: Optional[Expression] = None
    name: str = ""

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.n_points,):
            raise ValueError("field values must have one entry per mesh point")

    def _check(self, other: "ScalarField"):
        if not self.mesh.same_as(other.mesh):
            raise MeshMismatchError("fields live on different meshes")

    def __add__(self, other: "ScalarField") -> "ScalarField":
        self._check(other)
        expr = self.expr + other.expr if self.expr is not None and other.expr is not None else None
        return ScalarField(self.mesh, self.values + other.values, expr)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        self._check(other)
        expr = self.expr - other.expr if self.expr is not None and other.expr is not None else None
        return ScalarField(self.mesh, self.values - other.values, expr)

    def __mul__(self, other: Union["ScalarField", float]) -> "ScalarField":
        if isinstance(other, ScalarField):
            self._check(other)
            expr = self.expr * other.expr if self.expr is not None and other.expr is not None else None
            return ScalarField(self.mesh, self.values * other.values, expr)
        expr = self.expr * float(other) if self.expr is not None else None
        return ScalarField(self.mesh, self.values * float(other), expr)

    __rmul__ = __mul__

    def __neg__(self) -> "ScalarField":
        return self * (-1.0)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def build_torus(n_q: int, n_p: int) -> TorusGrid:
    """Regular periodic grid; both sides must be at least 8."""
    if n_q < 8 or n_p < 8:
        raise SizeTooSmallError("torus grid needs n_q >= 8 and n_p >= 8")
    return TorusGrid(n_q, n_p)


_ICO_T = (1.0 + np.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array(
    [
        (-1, _ICO_T, 0), (1, _ICO_T, 0), (-1, -_ICO_T, 0), (1, -_ICO_T, 0),
        (0, -1, _ICO_T), (0, 1, _ICO_T), (0, -1, -_ICO_T), (0, 1, -_ICO_T),
        (_ICO_T, 0, -1), (_ICO_T, 0, 1), (-_ICO_T, 0, -1), (-_ICO_T, 0, 1),
    ],
    dtype=float,
)
_ICO_FACES = np.array(
    [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ],
    dtype=np.int64,
)


def _subdivide(vertices: np.ndarray, triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    edges = np.concatenate([triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]])
    edges_sorted = np.sort(edges, axis=1)
    unique_edges, inverse = np.unique(edges_sorted, axis=0, return_inverse=True)
    mids = vertices[unique_edges[:, 0]] + vertices[unique_edges[:, 1]]
    mids /= np.linalg.norm(mids, axis=1, keepdims=True)
    mid_idx = len(vertices) + inverse.reshape(3, -1)

    v0, v1, v2 = triangles[:, 0], triangles[:, 1], triangles[:, 2]
    m01, m12, m20 = mid_idx[0], mid_idx[1], mid_idx[2]
    new_tris = np.concatenate(
        [
            np.column_stack([v0, m01, m20]),
            np.column_stack([v1, m12, m01]),
            np.column_stack([v2, m20, m12]),
            np.column_stack([m01, m12, m20]),
        ]
    )
    return np.concatenate([vertices, mids]), new_tris


def build_sphere(level: int) -> SphereTri:
    """Icosphere with ``level`` midpoint subdivisions (level >= 3).

    Vertex count is 10 * 4**level + 2; triangle count is 20 * 4**level.
    """
    if level < 3:
        raise SizeTooSmallError("sphere mesh needs level >= 3")
    verts = _ICO_VERTS / np.linalg.norm(_ICO_VERTS, axis=1, keepdims=True)
    tris = _ICO_FACES
    for _ in range(level):
        verts, tris = _subdivide(verts, tris)
    return SphereTri(level, verts, tris)


# ---------------------------------------------------------------------------
# Field construction and statistics
# ---------------------------------------------------------------------------


def sample(mesh: Mesh, expr: Union[Expression, str], name: str = "") -> ScalarField:
    """Evaluate an expression at every mesh point."""
    if isinstance(expr, str):
        expr = parse(expr, mesh.coord_names)
    elif expr.variables != mesh.coord_names:
        raise MeshMismatchError(
            f"expression variables {expr.variables} do not match mesh coordinates {mesh.coord_names}"
        )
    return ScalarField(mesh, expr.eval_at(mesh.points), expr, name=name)


def mean(f: ScalarField) -> float:
    """Mass-weighted average of vertex values (the integral of the PL field)."""
    return float(np.dot(f.mesh.weights, f.values))


def l1_norm(f: ScalarField) -> float:
    return float(np.dot(f.mesh.weights, np.abs(f.values)))


def uniform_norm(f: ScalarField) -> float:
    """Max of |values| over mesh points."""
    return float(np.max(np.abs(f.values)))


NORMS = {"uniform": uniform_norm, "l1": l1_norm}


# ---------------------------------------------------------------------------
# Interpolation
# ---------------------------------------------------------------------------

#: Nearest vertices whose triangles ``_locate_sphere`` tries before it gives up on a point.
_LOCATE_NEIGHBOURS = 24


def _interpolate_torus(f: ScalarField, pts: np.ndarray) -> np.ndarray:
    mesh: TorusGrid = f.mesh  # type: ignore[assignment]
    grid = mesh.grid_values(f.values)
    qs = (pts[:, 0] % 1.0) * mesh.n_q
    ps = (pts[:, 1] % 1.0) * mesh.n_p
    i0 = np.floor(qs).astype(np.int64) % mesh.n_q
    j0 = np.floor(ps).astype(np.int64) % mesh.n_p
    fq = qs - np.floor(qs)
    fp = ps - np.floor(ps)
    i1 = (i0 + 1) % mesh.n_q
    j1 = (j0 + 1) % mesh.n_p
    return (
        grid[i0, j0] * (1 - fq) * (1 - fp)
        + grid[i1, j0] * fq * (1 - fp)
        + grid[i0, j1] * (1 - fq) * fp
        + grid[i1, j1] * fq * fp
    )


def _locate_sphere(mesh: SphereTri, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Radial (gnomonic) point location: containing triangle and barycentrics."""
    n = pts.shape[0]
    tri_of = np.full(n, -1, dtype=np.int64)
    bary = np.zeros((n, 3))
    inv = mesh.triangle_inverses
    vert_tris = mesh.vertex_triangles
    pending = np.arange(n)
    k = 1
    while pending.size and k <= _LOCATE_NEIGHBOURS:
        _, nearest = mesh.kdtree.query(pts[pending], k=k)
        if k == 1:
            nearest = nearest[:, None]
        cand_cols = nearest[:, k - 1]
        for row, (pi, v) in enumerate(zip(pending, cand_cols)):
            tris = vert_tris[int(v)]
            lam = inv[tris] @ pts[pi]
            s = lam.sum(axis=1, keepdims=True)
            with np.errstate(divide="ignore", invalid="ignore"):
                lam = lam / s
            ok = np.all(lam >= -1e-9, axis=1) & np.all(np.isfinite(lam), axis=1)
            hit = np.flatnonzero(ok)
            if hit.size:
                tri_of[pi] = tris[hit[0]]
                bary[pi] = lam[hit[0]]
        pending = pending[tri_of[pending] < 0]
        k += 1
    if pending.size:
        raise LocationFailureError(f"{pending.size} points could not be located on the sphere mesh")
    return tri_of, bary


def _interpolate_sphere(f: ScalarField, pts: np.ndarray) -> np.ndarray:
    mesh: SphereTri = f.mesh  # type: ignore[assignment]
    norms = np.linalg.norm(pts, axis=1, keepdims=True)
    if np.any(norms == 0):
        raise LocationFailureError("cannot locate the origin on the sphere")
    unit = pts / norms
    tri_of, bary = _locate_sphere(mesh, unit)
    corner_vals = f.values[mesh.triangles[tri_of]]
    return np.einsum("ij,ij->i", corner_vals, bary)


def interpolate(f: ScalarField, points: np.ndarray) -> np.ndarray:
    """Interpolate a field at off-mesh points.

    Torus fields use periodic bilinear interpolation on the grid; sphere
    fields use barycentric interpolation inside the triangle hit by the
    ray from the origin (points are radially projected to the unit
    sphere first).  Values at mesh points reproduce exactly.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != len(f.mesh.coord_names):
        raise ValueError("points have the wrong dimension for this mesh")
    out = _interpolate_torus(f, pts) if f.mesh.kind == "torus" else _interpolate_sphere(f, pts)
    if np.ndim(points) == 1:
        return float(out[0])
    return out
