"""Triangulations of the unit disk with an exactly parameterized boundary.

The mesh is built from concentric rings of points (alternate rings staggered
by half an angular step) plus the center.  The center and ring 1 form a fan;
every other triangle joins two adjacent rings, so each ring pair is
triangulated by merging its edges in the order of their midpoint angles: an
inner edge takes the outer vertex reached so far, an outer edge the inner
vertex reached so far.  The midpoint of edge ``(i, i+1)`` on a ring of ``a``
points with offset ``o`` (0 or 1/2 of a step) lies ``(2i + 2o + 1)/(2a)`` of
a turn from angle 0, so the merge compares integers, not floats.  Where an
inner and an outer midpoint coincide (an isosceles trapezoid, whose four
points lie on one circle) the inner edge goes first: the diagonal joins the
inner edge's counterclockwise end to the outer edge's clockwise end.  Off
such ties the merge gives the Delaunay triangulation.  Boundary vertices sit
at the exact angles ``2*pi*j/N``; the arc parameter ``s`` of a boundary
vertex is that angle.  The computational domain is therefore the inscribed
regular N-gon: its perimeter is ``2*N*sin(pi/N)`` and its area
``(N/2)*sin(2*pi/N)``, which tests pin down exactly.

The edges of a triangulation are sorted once: one stable argsort of the
side keys gives the sorted distinct edges and each triangle side's edge
(:meth:`Mesh.edges`), which the validation counts and the assembly
patterns of :mod:`ctrlstab.fem` are laid out from.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np


#: largest boundary point count ``make_disk_mesh`` builds: twice what the
#: banded factorization's byte budget admits (``fem._BAND_BUDGET``), so the
#: budget decides for every mesh that can be built
_MAX_BOUNDARY = 4096


class MeshError(ValueError):
    """Raised for invalid mesh arguments or an invalid triangulation."""


@dataclass(frozen=True)
class Mesh:
    """Conforming P1 triangulation of the (polygonal) unit disk.

    Attributes
    ----------
    vertices : (V, 2) float array
    triangles : (T, 3) int array, counterclockwise
    boundary_vertices : (Nb,) int array, counterclockwise cycle starting at
        angle 0
    boundary_edges : (Nb, 2) int array, edge j runs from boundary vertex j to
        boundary vertex j+1 (mod Nb)
    boundary_s : (Nb,) float array, arc parameter (vertex angle in [0, 2*pi))
        aligned with ``boundary_vertices``
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_vertices: np.ndarray
    boundary_edges: np.ndarray
    boundary_s: np.ndarray

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_boundary(self) -> int:
        return len(self.boundary_vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def triangle_areas(self) -> np.ndarray:
        """Signed triangle areas (T,), positive for counterclockwise
        triangles.

        Computed on first use and kept on the mesh as a read-only array;
        ``make_disk_mesh`` keeps the areas of its orientation pass, which
        are the same bits."""
        areas = vars(self).get("_areas")
        if areas is None:
            p = self.vertices[self.triangles]
            d1 = p[:, 1] - p[:, 0]
            d2 = p[:, 2] - p[:, 0]
            areas = _keep_areas(
                self, 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]))
        return areas

    def edges(self) -> tuple:
        """The edges of the triangulation as ``(keys, sides)``: the
        sorted distinct keys ``a V + b`` (``a < b``), (E,) int64, and the
        edge of each triangle side, (T, 3) intp, side ``i`` joining corners
        ``i`` and ``i + 1`` (mod 3), so that ``keys[sides]`` are the side
        keys (:func:`_edge_keys`).

        Sorted on first use (:func:`_edge_sort`) and kept on the mesh as
        read-only arrays, the way :meth:`triangle_areas` are."""
        edges = vars(self).get("_edges")
        if edges is None:
            edges = _edge_sort(self.triangles, self.n_vertices)
            for a in edges:
                a.flags.writeable = False
            object.__setattr__(self, "_edges", edges)
        return edges

    def edge_lengths(self) -> np.ndarray:
        p = self.vertices[self.boundary_edges]
        return np.linalg.norm(p[:, 1] - p[:, 0], axis=1)


def make_disk_mesh(n_boundary: int, refinement: int = 0) -> Mesh:
    """Triangulate the unit disk with ``n_boundary * 2**refinement`` boundary
    points at exact angles ``2*pi*j/N``.

    Parameters
    ----------
    n_boundary : int, >= 8
        Boundary point count before refinement.
    refinement : int, >= 0
        Each level doubles the boundary point count (and scales the interior
        grading with it).

    A refined count above 4096 is a ``MeshError`` before any point is
    placed.
    """
    if n_boundary < 8:
        raise MeshError(f"n_boundary must be >= 8, got {n_boundary}")
    if refinement < 0:
        raise MeshError(f"refinement must be >= 0, got {refinement}")
    # the bound is shifted, so a huge refinement builds no huge integer
    if n_boundary > _MAX_BOUNDARY >> int(refinement):
        raise MeshError(f"n_boundary * 2**refinement must be <= "
                        f"{_MAX_BOUNDARY}, got {n_boundary} * 2**{refinement}")
    n = int(n_boundary) << int(refinement)

    rings = max(1, round(n / (2.0 * math.pi)))
    # per ring, innermost first: its point count and twice its offset in
    # steps; the outermost ring is the boundary
    count = np.array([max(6, round(n * k / rings))
                      for k in range(1, rings + 1)])
    twice = (rings - np.arange(1, rings + 1)) % 2
    # per vertex after the center: its ring (0-based) and its index there;
    # the vertices of ring r start at first[r]
    ring = np.repeat(np.arange(rings), count)
    first = np.cumsum(count) - count + 1
    local = np.arange(1, len(ring) + 1) - first[ring]
    theta = 2.0 * math.pi * (local + 0.5 * twice[ring]) / count[ring]
    radius = (ring + 1) / rings
    vertices = np.vstack([np.zeros((1, 2)), radius[:, None] * np.column_stack(
        [np.cos(theta), np.sin(theta)])])
    n_vert = len(vertices)
    boundary = np.arange(n_vert - n, n_vert)
    triangles = _ring_triangles(count, twice, ring, local, first)

    # orient counterclockwise.  Twice the signed area, by the formula of
    # Mesh.triangle_areas: swapping two vertices negates it exactly, so
    # half its magnitude is the oriented triangle's area bit for bit
    x, y = vertices[:, 0][triangles], vertices[:, 1][triangles]
    area2 = ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
             - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0]))
    flip = area2 < 0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    area2 = np.abs(area2)
    if np.any(area2 <= 1e-14):
        raise MeshError("degenerate triangle in the ring merge")

    edges = np.column_stack([boundary, np.roll(boundary, -1)])

    s = 2.0 * math.pi * np.arange(n) / n

    mesh = Mesh(vertices=vertices, triangles=triangles,
                boundary_vertices=boundary, boundary_edges=edges,
                boundary_s=s)
    _keep_areas(mesh, 0.5 * area2)
    _validate(mesh)
    return mesh


def _keep_areas(mesh: Mesh, areas: np.ndarray) -> np.ndarray:
    """Keep ``areas`` on ``mesh`` as its read-only triangle areas."""
    areas.flags.writeable = False
    object.__setattr__(mesh, "_areas", areas)
    return areas


def _ring_triangles(count, twice, ring, local, first) -> np.ndarray:
    """The triangles of the fan and of every pair of adjacent rings, given
    per ring its point count, twice its offset in steps and its first
    vertex, and per vertex after the center its ring and its index there.

    The fan comes first, then each ring pair in order: the triangles of the
    inner ring's edges, then those of the outer ring's.  Edge ``i`` of a
    ring of ``a`` points merged with a ring of ``b`` has its midpoint at
    key ``(2i + 2o + 1) b`` in units of ``1/(2ab)`` of a turn, so the keys
    of both rings lie in ``(0, 2ab]`` in edge order; each pair's keys are
    shifted past those of the pairs before it, so that one ``searchsorted``
    merges every pair.  Vertex 0 of either ring is the one reached just
    after angle 0, and each merged edge advances its ring by one vertex: an
    inner edge faces the outer vertex numbered by the outer edges with
    smaller keys, and an outer edge the inner vertex numbered by the inner
    edges with smaller or equal keys (the inner edge goes first).
    """
    fan = first[0] + np.arange(count[0])
    a, b = count[:-1], count[1:]
    shift = np.cumsum(2 * a * b) - 2 * a * b
    # the edges of rings 1 .. rings-1 as inner edges, and of rings
    # 2 .. rings as outer edges; edge i of a ring starts at its vertex i
    r_in, e_in = ring[:len(ring) - count[-1]], local[:len(ring) - count[-1]]
    r_out, e_out = ring[count[0]:] - 1, local[count[0]:]
    key_in = (2 * e_in + twice[r_in] + 1) * b[r_in] + shift[r_in]
    key_out = (2 * e_out + twice[r_out + 1] + 1) * a[r_out] + shift[r_out]
    # the vertex numbered by the other ring's edges, wrapped into its ring
    f_in, f_out = first[r_in + 1], first[r_out]
    facing_in = f_in + (count[0] + 1 + np.searchsorted(
        key_out, key_in, side="left") - f_in) % b[r_in]
    facing_out = f_out + (1 + np.searchsorted(
        key_in, key_out, side="right") - f_out) % a[r_out]

    # pair r's triangles start after the fan and the pairs before it
    start = count[0] + np.cumsum(a + b) - (a + b)
    tris = np.empty((count[0] + len(r_in) + len(r_out), 3), dtype=int)
    tris[:count[0]] = np.column_stack([np.zeros_like(fan), fan,
                                       np.roll(fan, -1)])
    tris[start[r_in] + e_in] = np.column_stack([
        first[r_in] + e_in, first[r_in] + (e_in + 1) % a[r_in], facing_in])
    tris[start[r_out] + a[r_out] + e_out] = np.column_stack([
        first[r_out + 1] + e_out,
        first[r_out + 1] + (e_out + 1) % b[r_out], facing_out])
    return tris


def _edge_keys(cells: np.ndarray, n_vertices: int) -> np.ndarray:
    """The key ``a V + b`` of the edge of nodes ``a < b`` on each side of
    each cell of ``cells`` (C, k), (C, k) int64: side ``i`` joins corners
    ``i`` and ``i + 1`` (mod k), so the two sides of a 2-node cell are its
    one edge."""
    c = cells.astype(np.int64)
    ends = c[:, [*range(1, c.shape[1]), 0]]
    return np.minimum(c, ends) * n_vertices + np.maximum(c, ends)


def _edge_sort(cells: np.ndarray, n_vertices: int) -> tuple:
    """``(keys, sides)`` of the cells ``cells`` (C, k): the sorted distinct
    edge keys (E,) int64 and the index into them of each cell side,
    (C, k) intp, by one stable argsort of the ``C k`` side keys
    (:func:`_edge_keys`)."""
    key = _edge_keys(cells, n_vertices).ravel()
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    # the first of each run of equal keys starts an edge
    first = np.empty(len(key), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    keys = ordered[first]
    # the edge of each sorted key goes into the buffer of the sorted keys
    edge = np.cumsum(first, out=ordered)
    edge -= 1
    sides = np.empty(len(key), dtype=np.intp)
    sides[order] = edge
    return keys, sides.reshape(cells.shape)


def _validate(mesh: Mesh) -> None:
    """Raise ``MeshError`` unless ``mesh`` is a P1 triangulation of the
    disk with its declared boundary: every vertex lies on a triangle,
    ``V - E + T = 1``, the edges of exactly one triangle are the declared
    boundary cycle, the boundary vertices lie on the unit circle and every
    triangle area is positive.  The edges and their triangle counts come
    from the mesh's one edge sort (:meth:`Mesh.edges`)."""
    v = mesh.n_vertices
    if np.count_nonzero(np.bincount(mesh.triangles.ravel(),
                                    minlength=v)) != v:
        raise MeshError("triangulation dropped a vertex")

    # Euler characteristic of a disk: V - E + T = 1
    keys, sides = mesh.edges()
    euler = v - len(keys) + mesh.n_triangles
    if euler != 1:
        raise MeshError(f"Euler characteristic {euler} != 1")

    # boundary edges of the triangulation (those of one triangle) = the
    # declared boundary cycle
    counts = np.bincount(sides.ravel(), minlength=len(keys))
    declared = np.sort(mesh.boundary_edges.astype(np.int64), axis=1)
    if not np.array_equal(keys[counts == 1],
                          np.unique(declared[:, 0] * v + declared[:, 1])):
        raise MeshError("triangulation boundary does not match the declared cycle")

    radii = np.linalg.norm(mesh.vertices[mesh.boundary_vertices], axis=1)
    if np.max(np.abs(radii - 1.0)) > 1e-12:
        raise MeshError("boundary vertex off the unit circle")

    if np.any(mesh.triangle_areas() <= 0.0):
        raise MeshError("non-positive triangle area after orientation")


def mesh_hash(mesh: Mesh) -> str:
    """Stable 16-hex-digit digest of vertex coordinates and connectivity."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(mesh.vertices, dtype=np.float64).tobytes())
    digest.update(np.ascontiguousarray(mesh.triangles, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(mesh.boundary_vertices, dtype=np.int64).tobytes())
    return digest.hexdigest()[:16]


def mesh_text(mesh: Mesh) -> str:
    """Plain-text node/element listing (0-based indices, one record per
    line): nodes, elements, then boundary vertices with arc parameters."""
    lines = [f"# disk mesh {mesh_hash(mesh)}"]
    lines.append(f"nodes {mesh.n_vertices}")
    lines.extend(f"{float(v[0])!r} {float(v[1])!r}" for v in mesh.vertices)
    lines.append(f"elements {mesh.n_triangles}")
    lines.extend(f"{int(t[0])} {int(t[1])} {int(t[2])}"
                 for t in mesh.triangles)
    lines.append(f"boundary {mesh.n_boundary}")
    lines.extend(f"{int(v)} {float(s)!r}"
                 for v, s in zip(mesh.boundary_vertices, mesh.boundary_s))
    return "\n".join(lines) + "\n"


def dump_mesh(mesh: Mesh, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(mesh_text(mesh))


__all__ = ["Mesh", "MeshError", "make_disk_mesh", "mesh_hash", "mesh_text",
           "dump_mesh"]
