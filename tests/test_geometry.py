"""Disk triangulation: closed-form perimeter/area of the inscribed polygon,
topology invariants, boundary cycle structure, refinement behavior, the
ring merge against qhull's Delaunay triangulation with its tie rule and
against the merge one ring pair at a time, the validation's rejections, the
kept areas and edge keys against their oracles, and the deterministic mesh
fingerprint."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import Delaunay

import ctrlstab
from ctrlstab import MeshError, dump_mesh, make_disk_mesh, mesh_hash
from ctrlstab.geometry import _edge_keys, _validate, mesh_text

from conftest import SETUP_MESHES
from oracles import ring_merge_mesh, sorted_edge_keys

MERGE_SIZES = [8, 9, 13, 64, 100, 256, 512]
#: in-circle determinants at most this (relative to the edge length to the
#: fourth power) count as cocircular
COCIRCULAR = 1e-12


def polygon_perimeter(n):
    return 2.0 * n * math.sin(math.pi / n)


def polygon_area(n):
    return 0.5 * n * math.sin(2.0 * math.pi / n)


@pytest.mark.parametrize("n", [8, 16, 64, 128])
def test_boundary_length_closed_form(n):
    mesh = make_disk_mesh(n, 0)
    assert mesh.n_boundary == n
    total = float(np.sum(mesh.edge_lengths()))
    assert abs(total - polygon_perimeter(n)) <= 1e-12 * n


@pytest.mark.parametrize("n", [8, 16, 64, 128])
def test_triangle_area_closed_form(n):
    mesh = make_disk_mesh(n, 0)
    areas = mesh.triangle_areas()
    assert np.all(areas > 0.0)
    assert abs(float(np.sum(areas)) - polygon_area(n)) <= 1e-12 * n


def test_reference_values_n64():
    mesh = make_disk_mesh(64, 0)
    assert float(np.sum(mesh.edge_lengths())) == pytest.approx(
        polygon_perimeter(64), abs=1e-13)
    assert float(np.sum(mesh.triangle_areas())) == pytest.approx(
        polygon_area(64), abs=1e-13)
    # frozen digits of the closed forms at n = 64
    assert polygon_perimeter(64) == pytest.approx(6.280662313909506, abs=1e-12)
    assert polygon_area(64) == pytest.approx(3.1365484905459393, abs=1e-12)


def test_perimeter_approaches_circle():
    mesh = make_disk_mesh(256, 0)
    total = float(np.sum(mesh.edge_lengths()))
    assert 2.0 * math.pi - 1e-3 <= total <= 2.0 * math.pi


def test_euler_characteristic_disk():
    mesh = make_disk_mesh(24, 0)
    edges = set()
    for tri in mesh.triangles:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            edges.add(frozenset((int(tri[a]), int(tri[b]))))
    assert mesh.n_vertices - len(edges) + mesh.n_triangles == 1


def test_boundary_cycle_and_angles():
    mesh = make_disk_mesh(32, 0)
    pts = mesh.vertices[mesh.boundary_vertices]
    radii = np.linalg.norm(pts, axis=1)
    assert np.max(np.abs(radii - 1.0)) <= 1e-12
    # exact angles 2*pi*j/N, counterclockwise starting at angle 0
    want = 2.0 * math.pi * np.arange(32) / 32
    assert np.array_equal(mesh.boundary_s, want)
    ang = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * math.pi)
    assert np.max(np.abs(ang - want)) <= 1e-12
    # edge j connects boundary vertex j to j+1 (mod Nb)
    assert np.array_equal(mesh.boundary_edges[:, 0], mesh.boundary_vertices)
    assert np.array_equal(mesh.boundary_edges[:, 1],
                          np.roll(mesh.boundary_vertices, -1))


def test_interior_vertices_strictly_inside():
    mesh = make_disk_mesh(16, 0)
    interior = np.setdiff1d(np.arange(mesh.n_vertices), mesh.boundary_vertices)
    assert np.all(np.linalg.norm(mesh.vertices[interior], axis=1) < 1.0)


def test_refinement_doubles_boundary_and_halves_edges():
    coarse = make_disk_mesh(32, 0)
    fine = make_disk_mesh(32, 1)
    assert fine.n_boundary == 2 * coarse.n_boundary
    assert fine.n_boundary == make_disk_mesh(64, 0).n_boundary

    def max_edge(mesh):
        p = mesh.vertices[mesh.triangles]
        return max(float(np.max(np.linalg.norm(
            p[:, i] - p[:, (i + 1) % 3], axis=1))) for i in range(3))

    ratio = max_edge(fine) / max_edge(coarse)
    assert 0.4 <= ratio <= 0.6


def test_refinement_matches_direct_construction():
    a = make_disk_mesh(16, 2)
    b = make_disk_mesh(64, 0)
    assert mesh_hash(a) == mesh_hash(b)


def test_validation_rejects_a_hole():
    # an interior triangle dropped: every edge stays, one face goes
    mesh = make_disk_mesh(16, 0)
    interior = ~np.isin(mesh.triangles, mesh.boundary_vertices).any(axis=1)
    hole = np.flatnonzero(interior)[0]
    holed = dataclasses.replace(
        mesh, triangles=np.delete(mesh.triangles, hole, axis=0))
    with pytest.raises(MeshError, match="Euler characteristic 0 != 1"):
        _validate(holed)


def test_validation_rejects_another_boundary_cycle():
    # two boundary vertices swapped in the declared cycle: the same
    # vertices, but two declared edges are no hull edges
    mesh = make_disk_mesh(16, 0)
    cycle = mesh.boundary_vertices.copy()
    cycle[[1, 2]] = cycle[[2, 1]]
    swapped = dataclasses.replace(
        mesh, boundary_vertices=cycle,
        boundary_edges=np.column_stack([cycle, np.roll(cycle, -1)]))
    with pytest.raises(MeshError, match="does not match the declared cycle"):
        _validate(swapped)


def test_validation_rejects_an_unused_vertex():
    # a vertex that no triangle uses, checked before the Euler count it
    # would also break
    mesh = make_disk_mesh(16, 0)
    extra = dataclasses.replace(
        mesh, vertices=np.vstack([mesh.vertices, [[0.1, 0.2]]]))
    with pytest.raises(MeshError, match="dropped a vertex"):
        _validate(extra)


@pytest.mark.parametrize("n,refinement", SETUP_MESHES)
def test_cached_areas_are_the_formula_and_read_only(n, refinement):
    # the areas of the orientation pass, kept on the mesh, are the bits of
    # the area formula on the oriented triangles; nothing can write them
    mesh = make_disk_mesh(n, refinement)
    areas = mesh.triangle_areas()
    assert areas is mesh.triangle_areas()
    assert not areas.flags.writeable
    with pytest.raises(ValueError):
        areas[0] = 1.0
    fresh = dataclasses.replace(mesh).triangle_areas()
    assert fresh is not areas and fresh.tobytes() == areas.tobytes()
    assert not fresh.flags.writeable


@pytest.mark.parametrize("n,refinement", SETUP_MESHES)
def test_edge_keys_are_the_sorted_pairs(n, refinement):
    mesh = make_disk_mesh(n, refinement)
    got = _edge_keys(mesh.triangles, mesh.n_vertices)
    want = sorted_edge_keys(mesh.triangles, mesh.n_vertices)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("n,refinement", SETUP_MESHES)
def test_kept_edges_are_the_unique_sides_and_read_only(n, refinement):
    # one sort of the side keys, kept on the mesh: np.unique's keys and
    # inverse, dtypes included, so that a second read sorts nothing
    mesh = make_disk_mesh(n, refinement)
    keys, sides = mesh.edges()
    assert mesh.edges()[0] is keys and mesh.edges()[1] is sides
    side_keys = sorted_edge_keys(mesh.triangles, mesh.n_vertices)
    want, inverse = np.unique(side_keys, return_inverse=True)
    assert keys.dtype == want.dtype and np.array_equal(keys, want)
    assert sides.dtype == np.intp and sides.shape == mesh.triangles.shape
    assert np.array_equal(sides, inverse.reshape(sides.shape))
    for a in (keys, sides):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
    fresh = dataclasses.replace(mesh).edges()
    assert fresh[0] is not keys
    assert all(f.tobytes() == k.tobytes() for f, k in zip(fresh, (keys, sides)))


@pytest.mark.parametrize("sizes", [range(8, 130), (256, 333, 512, 1024)])
def test_mesh_is_the_pairwise_ring_merge(sizes):
    # all ring pairs merged at once give the points and triangles of the
    # merge one pair at a time, bit for bit and in the same order; 8 and 9
    # points make one ring, and the counts and offsets of the rings vary
    # with every size
    for n in sizes:
        mesh = make_disk_mesh(n, 0)
        vertices, triangles = ring_merge_mesh(n)
        for got, want in ((mesh.vertices, vertices),
                          (mesh.triangles, triangles)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), n


@pytest.mark.parametrize("n,refinement",
                         [(7, 0), (0, 0), (16, -1), (8, 40), (4097, 0),
                          (8, 10 ** 9)])
def test_invalid_arguments(n, refinement):
    with pytest.raises(MeshError):
        make_disk_mesh(n, refinement)


def test_mesh_hash_deterministic():
    h1 = mesh_hash(make_disk_mesh(16, 0))
    h2 = mesh_hash(make_disk_mesh(16, 0))
    h3 = mesh_hash(make_disk_mesh(24, 0))
    assert h1 == h2
    assert h1 != h3
    assert isinstance(h1, str) and len(h1) >= 16


def test_mesh_text_and_dump(tmp_path):
    mesh = make_disk_mesh(8, 0)
    text = mesh_text(mesh)
    lines = text.splitlines()
    assert lines[0] == f"# disk mesh {mesh_hash(mesh)}"
    assert f"nodes {mesh.n_vertices}" in lines
    assert f"elements {mesh.n_triangles}" in lines
    assert f"boundary {mesh.n_boundary}" in lines
    # node records round-trip exactly through repr
    first = lines[lines.index(f"nodes {mesh.n_vertices}") + 1].split()
    assert [float(first[0]), float(first[1])] == list(mesh.vertices[0])

    path = tmp_path / "mesh.txt"
    dump_mesh(mesh, path)
    assert path.read_text() == text
    # dumping twice produces identical bytes
    path2 = tmp_path / "mesh2.txt"
    dump_mesh(mesh, path2)
    assert path.read_bytes() == path2.read_bytes()


def _interior_edges(mesh):
    """``(a, b, c, d)`` per interior edge ``ab``: ``a b c`` is a
    counterclockwise triangle and ``b a d`` the one across the edge."""
    t = mesh.triangles.astype(np.int64)
    a, b, c = (np.roll(t, -k, axis=1).ravel() for k in range(3))
    v = mesh.n_vertices
    key = a * v + b
    order = np.argsort(key)
    pos = np.minimum(np.searchsorted(key[order], b * v + a), len(key) - 1)
    keep = (key[order][pos] == b * v + a) & (a < b)
    return a[keep], b[keep], c[keep], c[order][pos][keep]


def _incircle(mesh, a, b, c, d):
    """In-circle determinant of ``d`` against the circle through ``a b c``
    (positive inside), over ``|ab|**4``."""
    x = mesh.vertices
    rows = [np.column_stack([x[i] - x[d], np.sum((x[i] - x[d]) ** 2, axis=1)])
            for i in (a, b, c)]
    scale = np.sum((x[a] - x[b]) ** 2, axis=1) ** 2
    return np.linalg.det(np.stack(rows, axis=1)) / scale


def _ring_index(mesh):
    rings = max(1, round(mesh.n_boundary / (2.0 * math.pi)))
    return np.rint(np.linalg.norm(mesh.vertices, axis=1) * rings).astype(int)


def _cross(p, q):
    return p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0]


@pytest.mark.parametrize("n", MERGE_SIZES)
def test_merge_is_locally_delaunay(n):
    mesh = make_disk_mesh(n, 0)
    a, b, c, d = _interior_edges(mesh)
    # every edge of a triangulated disk is a boundary edge or shared by two
    assert 2 * len(a) + n == 3 * mesh.n_triangles
    assert float(np.max(_incircle(mesh, a, b, c, d))) <= COCIRCULAR


@pytest.mark.parametrize("n", MERGE_SIZES)
def test_triangles_join_adjacent_rings(n):
    mesh = make_disk_mesh(n, 0)
    ring = _ring_index(mesh)[mesh.triangles]
    assert np.array_equal(np.unique(_ring_index(mesh)),
                          np.arange(max(1, round(n / (2.0 * math.pi))) + 1))
    # the center fan joins rings 0 and 1, every other triangle two rings
    assert np.all(ring.max(axis=1) - ring.min(axis=1) == 1)


@pytest.mark.parametrize("n", MERGE_SIZES)
def test_merge_matches_qhull_off_cocircular_quads(n):
    mesh = make_disk_mesh(n, 0)
    ours = {tuple(sorted(t)) for t in mesh.triangles.tolist()}
    qhull = {tuple(sorted(t))
             for t in Delaunay(mesh.vertices).simplices.tolist()}
    # every triangle on one side only is half of a quad whose other
    # diagonal the other side took, and that quad is cocircular
    only_ours, only_qhull = ours - qhull, qhull - ours
    a, b, c, d = _interior_edges(mesh)
    det = _incircle(mesh, a, b, c, d)
    seen_ours, seen_qhull = set(), set()
    for i in range(len(a)):
        pair = {tuple(sorted(t)) for t in
                ((a[i], b[i], c[i]), (b[i], a[i], d[i]))}
        flipped = {tuple(sorted(t)) for t in
                   ((a[i], c[i], d[i]), (b[i], c[i], d[i]))}
        if not (pair <= only_ours and flipped <= only_qhull):
            continue
        assert abs(float(det[i])) <= COCIRCULAR
        assert not (pair & seen_ours or flipped & seen_qhull)
        seen_ours |= pair
        seen_qhull |= flipped
    assert seen_ours == only_ours
    assert seen_qhull == only_qhull


@pytest.mark.parametrize("n", MERGE_SIZES)
def test_cocircular_quads_follow_the_tie_rule(n):
    # on equal midpoint angles the inner edge goes first: the diagonal joins
    # the inner edge's counterclockwise end to the outer edge's clockwise end
    mesh = make_disk_mesh(n, 0)
    a, b, c, d = _interior_edges(mesh)
    det = _incircle(mesh, a, b, c, d)
    tied = np.abs(det) <= COCIRCULAR
    ring = _ring_index(mesh)
    x = mesh.vertices
    for i in np.flatnonzero(tied):
        quad = [a[i], b[i], c[i], d[i]]
        inner_ring = min(ring[quad])
        inner = [v for v in quad if ring[v] == inner_ring]
        outer = [v for v in quad if ring[v] != inner_ring]
        assert len(inner) == len(outer) == 2
        diag_in = a[i] if ring[a[i]] == inner_ring else b[i]
        diag_out = b[i] if diag_in == a[i] else a[i]
        other_in = inner[0] if inner[1] == diag_in else inner[1]
        other_out = outer[0] if outer[1] == diag_out else outer[1]
        assert _cross(x[other_in], x[diag_in]) > 0.0
        assert _cross(x[diag_out], x[other_out]) > 0.0
    if n == 64:
        # the quad with an exactly zero determinant is among them
        assert np.count_nonzero(tied) == 6
        assert np.count_nonzero(det == 0.0) == 1


def test_import_leaves_scipy_spatial_out():
    src = str(Path(ctrlstab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, ctrlstab, ctrlstab.cli; "
            "ctrlstab.make_disk_mesh(64, 0); "
            "print(any(m.startswith('scipy.spatial') for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
