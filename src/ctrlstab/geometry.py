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
        p = self.vertices[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

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
    points = [np.zeros((1, 2))]
    # per ring: first vertex index, point count, twice the offset in steps
    layout = [(0, 1, 0)]
    for k in range(1, rings + 1):
        if k == rings:
            count, twice_offset = n, 0
        else:
            count = max(6, round(n * k / rings))
            twice_offset = (rings - k) % 2
        theta = 2.0 * math.pi * (np.arange(count) + 0.5 * twice_offset) / count
        radius = k / rings
        layout.append((layout[-1][0] + layout[-1][1], count, twice_offset))
        points.append(radius * np.column_stack([np.cos(theta), np.sin(theta)]))
    vertices = np.vstack(points)
    n_vert = len(vertices)
    boundary = np.arange(n_vert - n, n_vert)

    first, count, _ = layout[1]
    ring1 = first + np.arange(count)
    triangles = [np.column_stack([np.zeros(count, dtype=int), ring1,
                                  np.roll(ring1, -1)])]
    for inner, outer in zip(layout[1:], layout[2:]):
        triangles.extend(_merge_rings(inner, outer))
    triangles = np.vstack(triangles)

    # orient counterclockwise
    p = vertices[triangles]
    area2 = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
             - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))
    flip = area2 < 0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    area2 = np.abs(area2)
    if np.any(area2 <= 1e-14):
        raise MeshError("degenerate triangle in the ring merge")
    if len(np.unique(triangles)) != n_vert:
        raise MeshError("triangulation dropped a vertex")

    edges = np.column_stack([boundary, np.roll(boundary, -1)])

    s = 2.0 * math.pi * np.arange(n) / n

    mesh = Mesh(vertices=vertices, triangles=triangles,
                boundary_vertices=boundary, boundary_edges=edges,
                boundary_s=s)
    _validate(mesh)
    return mesh


def _merge_rings(inner, outer):
    """Triangles between two adjacent rings, each given as (first vertex
    index, point count, twice the offset in steps).

    Edge ``i`` of ``a`` points has its midpoint at key ``(2i + 2o + 1) b``
    in units of ``1/(2ab)`` of a turn, so the keys of both rings lie in
    ``(0, 2ab]`` in edge order.  Vertex 0 of either ring is the one reached
    just after angle 0, and each merged edge advances its ring by one
    vertex: an inner edge faces the outer vertex numbered by the outer edges
    with smaller keys, and an outer edge the inner vertex numbered by the
    inner edges with smaller or equal keys (the inner edge goes first).
    """
    (ia, a, oa), (ib, b, ob) = inner, outer
    ea, eb = np.arange(a), np.arange(b)
    ka, kb = (2 * ea + oa + 1) * b, (2 * eb + ob + 1) * a
    facing_a = np.searchsorted(kb, ka, side="left") % b
    facing_b = np.searchsorted(ka, kb, side="right") % a
    return (np.column_stack([ia + ea, ia + (ea + 1) % a, ib + facing_a]),
            np.column_stack([ib + eb, ib + (eb + 1) % b, ia + facing_b]))


def _validate(mesh: Mesh) -> None:
    # Euler characteristic of a disk: V - E + T = 1; the edge of nodes
    # a < b has the key a V + b
    v = mesh.n_vertices
    tris = mesh.triangles.astype(np.int64)
    ends = np.sort(np.stack([tris, np.roll(tris, -1, axis=1)]), axis=0)
    keys, counts = np.unique(ends[0] * v + ends[1], return_counts=True)
    euler = v - len(keys) + mesh.n_triangles
    if euler != 1:
        raise MeshError(f"Euler characteristic {euler} != 1")

    # boundary edges of the triangulation (those of one triangle) = the
    # declared boundary cycle
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
