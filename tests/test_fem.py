"""Assembly and linear algebra: mass/stiffness identities with closed-form
totals, the SPD solver against a dense elimination oracle, the byte budget
of the banded factorization, and norm formulas."""

import gc
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import ctrlstab.fem as fem_mod
from ctrlstab import (BoundaryFunction, Discretization, FemError, FeFunction,
                      NotSpdError, SpdFactorization, make_disk_mesh, norm,
                      solve_spd)

from conftest import make_spec
from oracles import dense_solve


@pytest.fixture(scope="module")
def disc(lq_disc16):
    return lq_disc16


def test_mass_matrix_total_is_area(disc):
    ones = np.ones(disc.mesh.n_vertices)
    total = float(ones @ (disc.form.mass_domain @ ones))
    area = float(np.sum(disc.mesh.triangle_areas()))
    assert abs(total - area) <= 1e-12


def test_boundary_mass_total_is_perimeter(disc):
    per = float(np.sum(disc.mesh.edge_lengths()))
    ones_v = np.ones(disc.mesh.n_vertices)
    ones_b = np.ones(disc.mesh.n_boundary)
    assert abs(float(ones_v @ (disc.form.mass_boundary @ ones_v)) - per) <= 1e-12
    assert abs(float(ones_b @ (disc.form.mass_boundary_bb @ ones_b)) - per) <= 1e-12


def test_boundary_mass_numberings_agree(disc):
    bb = disc.form.mass_boundary_bb.toarray()
    big = disc.form.mass_boundary.toarray()
    bv = disc.mesh.boundary_vertices
    assert np.allclose(big[np.ix_(bv, bv)], bb, atol=1e-14)
    mask = np.ones(disc.mesh.n_vertices, bool)
    mask[bv] = False
    assert np.all(big[mask] == 0.0)
    assert np.all(big[:, mask] == 0.0)


def test_stiffness_symmetric_exactly(disc):
    k = disc.form.stiffness
    assert abs(k - k.T).max() == 0.0


def test_constant_reproduction(disc):
    # b := K 1 reproduces the constant through the solver to 1e-10
    k = disc.form.stiffness
    ones = np.ones(disc.mesh.n_vertices)
    b = k @ ones
    x = solve_spd(k, b)
    assert float(np.max(np.abs(x - 1.0))) <= 1e-10


def test_solve_spd_against_dense_oracle():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((50, 50))
    spd = a @ a.T + 50.0 * np.eye(50)
    b = rng.standard_normal(50)
    x = solve_spd(sp.csr_matrix(spd), b)
    x_oracle = dense_solve(spd, b)
    assert float(np.max(np.abs(x - x_oracle))) <= 1e-9


def test_solve_spd_residual_contract(disc):
    k = disc.form.stiffness
    rng = np.random.default_rng(3)
    b = rng.standard_normal(disc.mesh.n_vertices)
    x = solve_spd(k, b)
    res = float(np.linalg.norm(b - k @ x))
    assert res <= 1e-10 * (1.0 + float(np.linalg.norm(b)))


def test_factorization_reuse(disc):
    k = disc.form.stiffness
    f = SpdFactorization(k)
    rng = np.random.default_rng(4)
    for _ in range(3):
        b = rng.standard_normal(disc.mesh.n_vertices)
        x = solve_spd(k, b, factor=f)
        assert float(np.linalg.norm(b - k @ x)) <= 1e-10 * (1.0 + np.linalg.norm(b))


def test_solve_spd_preconditioned_by_another_matrix(disc):
    # the factor belongs to K + 0.5 M; the solve is with K + 0.8 M, so the
    # residual must be taken with the matrix passed, not the factor's
    k, m = disc.form.stiffness, disc.form.mass_domain
    f = SpdFactorization(k + 0.5 * m)
    a = (k + 0.8 * m).tocsr()
    b = np.random.default_rng(10).standard_normal(disc.mesh.n_vertices)
    x = solve_spd(a, b, factor=f)
    res = float(np.linalg.norm(b - a @ x))
    assert res <= 1e-13 * float(np.linalg.norm(b))
    assert float(np.max(np.abs(x - dense_solve(a.toarray(), b)))) <= 1e-9


def test_non_finite_rhs_rejected(disc):
    # the band is checked once, when it is factorized; a right-hand side is
    # checked at every solve, and solve_kkt relies on the ValueError
    k = disc.form.stiffness
    f = SpdFactorization(k)
    for bad in (np.nan, np.inf):
        b = np.ones(disc.mesh.n_vertices)
        b[3] = bad
        with pytest.raises(ValueError):
            f.solve(b)
        with pytest.raises(ValueError):
            solve_spd(k, b, factor=f)
        with pytest.raises(ValueError):
            solve_spd(k, b)


def test_not_spd_rejected():
    with pytest.raises(NotSpdError):
        SpdFactorization(sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 1.0]])))
    with pytest.raises(NotSpdError):
        SpdFactorization(sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]])))


def test_multiple_rhs(disc):
    k = disc.form.stiffness
    f = SpdFactorization(k)
    rng = np.random.default_rng(5)
    b = rng.standard_normal((disc.mesh.n_vertices, 3))
    x = f.solve(b)
    assert x.shape == b.shape
    assert float(np.max(np.abs(k @ x - b))) <= 1e-8


def test_band_over_budget_raises_before_allocation(monkeypatch):
    monkeypatch.setattr(fem_mod, "_BAND_BUDGET", 0)
    # 5-point grid Laplacian plus identity: its band (101 x 10^4 doubles,
    # 8 MB) is several times the sparse matrix, so a traced peak below half
    # of it shows the band was never allocated
    g = 100
    lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(g, g))
    a = (sp.kron(lap, sp.eye(g)) + sp.kron(sp.eye(g), lap)
         + sp.eye(g * g)).tocsr()
    tracemalloc.start()
    try:
        with pytest.raises(FemError) as err:
            SpdFactorization(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    message = str(err.value)
    assert "n=10000" in message and "bandwidth 100" in message
    need = int(re.search(r"needs (\d+) bytes", message).group(1))
    assert need == 101 * 10000 * 8
    assert peak < need / 2


def test_boundary_l2_of_one_is_sqrt_perimeter(disc):
    ones = BoundaryFunction(disc.mesh, np.ones(disc.mesh.n_boundary))
    per = float(np.sum(disc.mesh.edge_lengths()))
    assert norm(ones, "l2") == pytest.approx(math.sqrt(per), abs=1e-12)


def test_w1r_of_constant(disc):
    c = -2.5
    f = FeFunction(disc.mesh, np.full(disc.mesh.n_vertices, c))
    area = float(np.sum(disc.mesh.triangle_areas()))
    for r in (2.5, 3.0, 3.5):
        assert norm(f, "w1r", r) == pytest.approx(abs(c) * area ** (1.0 / r),
                                                  rel=1e-13)


def test_norm_l2_is_the_discretization_l2(disc):
    rng = np.random.default_rng(10)
    v = rng.standard_normal(disc.mesh.n_vertices)
    w = rng.standard_normal(disc.mesh.n_boundary)
    assert norm(FeFunction(disc.mesh, v), "l2") == disc.l2_domain(v)
    assert norm(BoundaryFunction(disc.mesh, w), "l2") == disc.l2_boundary(w)


def test_domain_l2_of_constant(disc):
    f = FeFunction(disc.mesh, np.full(disc.mesh.n_vertices, 3.0))
    area = float(np.sum(disc.mesh.triangle_areas()))
    assert norm(f, "l2") == pytest.approx(3.0 * math.sqrt(area), rel=1e-13)


def test_linf_norm(disc):
    v = np.zeros(disc.mesh.n_vertices)
    v[5] = -7.0
    assert norm(FeFunction(disc.mesh, v), "linf") == 7.0


def test_norm_argument_errors(disc):
    f = FeFunction(disc.mesh, np.ones(disc.mesh.n_vertices))
    g = BoundaryFunction(disc.mesh, np.ones(disc.mesh.n_boundary))
    with pytest.raises(ValueError):
        norm(f, "h7")
    with pytest.raises(ValueError):
        norm(g, "w1r")
    with pytest.raises(ValueError):
        norm(f, "w1r", r=4.0)
    with pytest.raises(TypeError):
        norm(np.ones(4), "l2")


def test_quadrature_exact_for_quadratics(disc):
    # the 3-point domain rule integrates x1^2 exactly per triangle
    x1 = disc.eval_dom(make_spec().a11)  # == 1 everywhere, sanity
    assert np.allclose(x1, 1.0)
    got = disc.integrate_domain(disc.tri_interp(disc.mesh.vertices[:, 0]) ** 2)
    p = disc.mesh.vertices[disc.mesh.triangles]
    exact = 0.0
    for tri, area in zip(p, disc.mesh.triangle_areas()):
        xs = tri[:, 0]
        # exact integral of x^2 over a triangle via vertex moments
        exact += area / 12.0 * (np.sum(xs) ** 2 + np.sum(xs ** 2))
    assert got == pytest.approx(float(exact), rel=1e-12)


def test_boundary_quadrature_exact_for_quadratics(disc):
    # the 2-point edge rule integrates the square of a P1 field exactly:
    # compare against the closed-form edge integral of (a + (b-a) t)^2
    rng = np.random.default_rng(8)
    w = rng.standard_normal(disc.mesh.n_boundary)
    got = disc.integrate_boundary(disc.edge_interp(w) ** 2)
    lens = disc.mesh.edge_lengths()
    a = w
    b = np.roll(w, -1)
    exact = float(np.sum(lens * (a * a + a * b + b * b) / 3.0))
    assert got == pytest.approx(exact, rel=1e-12)
    # and it matches the boundary mass matrix pairing
    assert got == pytest.approx(float(w @ (disc.form.mass_boundary_bb @ w)),
                                rel=1e-12)


def test_loads_pair_with_ones(disc):
    area = float(np.sum(disc.mesh.triangle_areas()))
    per = float(np.sum(disc.mesh.edge_lengths()))
    ld = disc.domain_load(np.ones_like(disc.eval_dom(make_spec().a11)))
    assert float(np.sum(ld)) == pytest.approx(area, rel=1e-12)
    lb = disc.boundary_load(np.ones_like(disc.eval_bnd(make_spec().a11)))
    assert float(np.sum(lb)) == pytest.approx(per, rel=1e-12)
    assert lb.shape == (disc.mesh.n_vertices,)


def test_trace_and_embed_roundtrip(disc):
    rng = np.random.default_rng(9)
    w = rng.standard_normal(disc.mesh.n_boundary)
    v = disc.embed(w)
    assert np.array_equal(disc.trace(v), w)
    interior = np.setdiff1d(np.arange(disc.mesh.n_vertices),
                            disc.mesh.boundary_vertices)
    assert np.all(v[interior] == 0.0)


def test_field_shape_validation(disc):
    with pytest.raises(ValueError):
        FeFunction(disc.mesh, np.ones(3))
    with pytest.raises(ValueError):
        BoundaryFunction(disc.mesh, np.ones(disc.mesh.n_vertices + 1))


def test_operator_coefficients_enter_stiffness():
    # doubling the diffusion doubles the pure-diffusion part
    base = make_spec()
    double = make_spec(a11="2", a22="2", c0=2.0)
    from ctrlstab import make_disk_mesh
    mesh = make_disk_mesh(16, 0)
    d1 = Discretization(base, mesh)
    d2 = Discretization(double, mesh)
    m = d1.form.mass_domain
    k1 = (d1.form.stiffness - m).toarray()   # a0 = 1 contributes the mass
    k2 = (d2.form.stiffness - m).toarray()
    assert np.allclose(k2, 2.0 * k1, atol=1e-12)


# ---------------------------------------------------------------------------
# fixed-pattern assembly
# ---------------------------------------------------------------------------


def _coo_sum(elem, cells, n):
    """The COO-to-CSR conversion the pattern replaces."""
    k = cells.shape[1]
    rows = np.repeat(cells, k, axis=1).ravel()
    cols = np.tile(cells, (1, k)).ravel()
    return sp.coo_matrix((elem.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def _assert_same_csr(got, want):
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


@pytest.mark.parametrize("n_boundary,refinement",
                         [(8, 0), (16, 1), (32, 2), (64, 0)])
@pytest.mark.parametrize("cells_of", ["triangles", "boundary_edges",
                                      "boundary_numbering"])
def test_pattern_assembly_equals_coo_conversion(n_boundary, refinement,
                                                cells_of):
    # Exact equality is the contract, not closeness: the order in which
    # duplicates are summed decides the last bit of each entry, and the
    # solver's iteration counts (fold's cold solve moved from 124 to 113
    # under another order) and the benchmark's bit-identical jobs rest on it
    mesh = make_disk_mesh(n_boundary, refinement)
    t = fem_mod._tables(mesh)
    cells, n, pattern = {
        "triangles": (mesh.triangles, mesh.n_vertices, t.tri_pattern),
        "boundary_edges": (mesh.boundary_edges, mesh.n_vertices,
                           t.bnd_pattern),
        "boundary_numbering": (t.edge_pos, mesh.n_boundary, t.bb_pattern),
    }[cells_of]
    rng = np.random.default_rng(n_boundary + refinement)
    k = cells.shape[1]
    # entries over many magnitudes, so that every summation order rounds
    # differently
    elem = (rng.standard_normal((len(cells), k, k))
            * 10.0 ** rng.integers(-6, 7, size=(len(cells), k, k)))
    _assert_same_csr(pattern.assemble(elem), _coo_sum(elem, cells, n))


def test_jacobian_equals_scipy_addition(disc):
    w = np.random.default_rng(5).uniform(0.5, 3.0, disc.tables.qw_dom.shape)
    want = disc.form.stiffness + disc.domain_mass_weighted(w)
    _assert_same_csr(disc.jacobian_matrix(w), want)


def test_new_state_makes_no_coo_conversion(lq_spec, monkeypatch):
    calls = []
    original = sp.coo_matrix.tocsr

    def counted(self, *args, **kwargs):
        calls.append(self.shape)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(sp.coo_matrix, "tocsr", counted)
    d = Discretization(lq_spec, make_disk_mesh(16, 1))
    rng = np.random.default_rng(2)
    for _ in range(3):
        d.jacobian_matrix(rng.uniform(0.5, 3.0, d.tables.qw_dom.shape))
    assert calls == []


def test_changing_a_matrix_structure_spares_the_next(lq_spec):
    d = Discretization(lq_spec, make_disk_mesh(16, 0))
    w = np.full(d.tables.qw_dom.shape, 2.0)
    mass = d.domain_mass_weighted(w)
    want = mass.copy()
    k_want = d.form.stiffness.copy()

    mass.indices[:] = 0
    mass.indptr[1:] = mass.indptr[-1]
    jac = d.jacobian_matrix(w)
    jac.eliminate_zeros()
    jac.indices[::2] = 1
    _assert_same_csr(d.domain_mass_weighted(w), want)
    _assert_same_csr(d.jacobian_matrix(2.0 * w),
                     k_want + d.domain_mass_weighted(2.0 * w))
    _assert_same_csr(d.form.stiffness, k_want)


def test_tables_die_with_their_mesh(lq_spec):
    mesh = make_disk_mesh(16, 0)
    d = Discretization(lq_spec, mesh)
    norm(FeFunction(mesh, np.ones(mesh.n_vertices)), "l2")
    ref = weakref.ref(mesh)
    del mesh, d
    gc.collect()
    assert ref() is None
