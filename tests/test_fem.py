"""Assembly and linear algebra: mass/stiffness identities with closed-form
totals, the assembly patterns and the stiffness matrix against their
earlier kernels bit for bit, the SPD solver against a dense elimination
oracle, the byte budget of the banded factorization, and norm formulas."""

import gc
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import ctrlstab.fem as fem_mod
from ctrlstab import (AdmissionError, BoundaryFunction, Discretization,
                      FemError, FeFunction, Mesh, NotSpdError,
                      SolveOptions, SpdFactorization, check_ssc,
                      make_disk_mesh, norm, parse, solve_kkt, solve_spd)
from ctrlstab.expr import Const
from ctrlstab.pde import solve_state, state_residual_norm

from conftest import SETUP_MESHES, make_spec
from oracles import (argsort_pattern, band_cholesky, dense_solve,
                     einsum_quadrature_points, einsum_stiffness,
                     searchsorted_mirror, stiffness_matrix, unique_pattern,
                     vertex_boundary_in_triangles, vertex_boundary_load,
                     vertex_boundary_mass)


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
    big = vertex_boundary_mass(disc)
    assert abs(float(ones_v @ (big @ ones_v)) - per) <= 1e-12
    assert abs(float(ones_b @ (disc.form.mass_boundary_bb @ ones_b)) - per) <= 1e-12


def test_boundary_mass_numberings_agree(disc):
    bb = disc.form.mass_boundary_bb.toarray()
    big = vertex_boundary_mass(disc).toarray()
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
    x = solve_spd(k, b, factor=SpdFactorization(k))
    assert float(np.max(np.abs(x - 1.0))) <= 1e-10


def test_solve_spd_against_dense_oracle():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((50, 50))
    spd = a @ a.T + 50.0 * np.eye(50)
    b = rng.standard_normal(50)
    a = sp.csr_matrix(spd)
    x = solve_spd(a, b, factor=SpdFactorization(a))
    x_oracle = dense_solve(spd, b)
    assert float(np.max(np.abs(x - x_oracle))) <= 1e-9


def test_solve_spd_residual_contract(disc):
    k = disc.form.stiffness
    rng = np.random.default_rng(3)
    b = rng.standard_normal(disc.mesh.n_vertices)
    x = solve_spd(k, b, factor=SpdFactorization(k))
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


class _Unread:
    """A starting guess that raises when anything reads it."""

    def __array__(self, *args, **kw):
        raise AssertionError("the guess was read")


def test_solve_spd_from_a_guess_meets_the_stale_bounds(disc, monkeypatch):
    # a stale factor as in the test above: started from a guess, the solve
    # meets the bounds of b whatever the guess, and a close guess saves
    # band solves; with an exact factor the guess is never read
    k, m = disc.form.stiffness, disc.form.mass_domain
    f = SpdFactorization(k + 0.5 * m)
    a = (k + 0.8 * m).tocsr()
    b = np.random.default_rng(10).standard_normal(disc.mesh.n_vertices)
    exact = dense_solve(a.toarray(), b)
    band = []
    solve = SpdFactorization.solve

    def counted(self, rhs):
        band.append(None)
        return solve(self, rhs)

    monkeypatch.setattr(SpdFactorization, "solve", counted)
    counts = []
    for x0 in (None, np.zeros_like(b), 10.0 * b, exact * (1.0 + 1e-6)):
        band.clear()
        x = solve_spd(a, b, factor=f, x0=x0)
        counts.append(len(band))
        assert float(np.linalg.norm(b - a @ x)) \
            <= 1e-13 * float(np.linalg.norm(b))
        assert float(np.max(np.abs(x - exact))) <= 1e-9
    assert counts[-1] < counts[0]
    exact_factor = SpdFactorization(a)
    assert np.array_equal(solve_spd(a, b, factor=exact_factor, x0=_Unread()),
                          solve_spd(a, b, factor=exact_factor))


def test_band_solve_is_cho_solve_banded(disc):
    # the LAPACK band solve that cho_solve_banded wraps, on the permuted b,
    # one and several right-hand sides
    f = SpdFactorization(disc.form.stiffness)
    rng = np.random.default_rng(6)
    for shape in ((disc.mesh.n_vertices,), (disc.mesh.n_vertices, 3)):
        b = rng.standard_normal(shape)
        z = scipy.linalg.cho_solve_banded((f._chol, False), b[f._perm])
        want = np.empty_like(z)
        want[f._perm] = z
        assert f.solve(b).tobytes() == want.tobytes()


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


def _routed(route, a, cells):
    """``(matrix, keywords)`` that factorize the CSR matrix ``a`` by one of
    the two routes of a factorization: for ``"generic"``, ``a`` itself,
    analyzed on its own; for ``"pattern"``, ``a``'s
    values on the assembly pattern of the 2-node ``cells`` (a zero stored
    where ``a`` stores none), with that pattern."""
    if route == "generic":
        return a, {}
    pattern = fem_mod._Pattern(np.asarray(cells), a.shape[0])
    rows, cols = np.divmod(pattern.keys, a.shape[0])
    return (pattern.matrix(np.asarray(a[rows, cols]).ravel()),
            {"_pattern": pattern})


def _grid_matrix(g=100):
    """The 5-point Laplacian of a g x g grid plus the identity, and its
    edges as 2-node cells."""
    lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(g, g))
    a = (sp.kron(lap, sp.eye(g)) + sp.kron(sp.eye(g), lap)
         + sp.eye(g * g)).tocsr()
    upper = sp.triu(a, k=1).tocoo()
    return a, np.column_stack([upper.row, upper.col])


def _check_not_spd_rejected(route):
    for entries, message in (([[1.0, 2.0], [0.0, 1.0]], "not symmetric"),
                             ([[1.0, 2.0], [2.0, 1.0]],
                              "not positive definite")):
        m, kw = _routed(route, sp.csr_matrix(np.array(entries)), [[0, 1]])
        with pytest.raises(NotSpdError, match=message):
            SpdFactorization(m, **kw)


def test_not_spd_rejected():
    _check_not_spd_rejected("generic")


def test_not_spd_rejected_on_the_pattern_route():
    _check_not_spd_rejected("pattern")


def test_non_square_matrix_rejected():
    with pytest.raises(ValueError, match="must be square"):
        SpdFactorization(sp.csr_matrix(np.ones((2, 3))))


def test_solve_spd_stops_at_non_positive_curvature():
    # a factor of I preconditions -I: the first search direction p has
    # p^T (-I) p < 0, so the iteration stops at its start, x = b, whose
    # residual 2 ||b|| is reported
    eye = sp.identity(3, format="csr")
    with pytest.raises(FemError, match=r"residual 3\.464e\+00 exceeds"):
        solve_spd(-eye, np.ones(3), factor=SpdFactorization(eye))


#: matrices with non-finite entries, and how many each holds
NON_FINITE = pytest.mark.parametrize("entries, count", [
    ([[np.nan, 0.0], [0.0, 1.0]], 1),
    ([[1.0, np.nan], [np.nan, 1.0]], 2),
    ([[1.0, np.inf], [np.inf, 1.0]], 2),
], ids=["nan-diagonal", "nan-symmetric", "inf-symmetric"])


def _check_non_finite_entry_rejected(entries, count, route):
    # a NaN passes the symmetry test (NaN > tol is false), and so does a
    # symmetric pair of infs (inf - inf is NaN)
    m, kw = _routed(route, sp.csr_matrix(np.array(entries)), [[0, 1]])
    with pytest.raises(NotSpdError, match=f"has {count} non-finite entries"):
        SpdFactorization(m, **kw)


@NON_FINITE
def test_non_finite_entry_rejected(entries, count):
    _check_non_finite_entry_rejected(entries, count, "generic")


@NON_FINITE
def test_non_finite_entry_rejected_on_the_pattern_route(entries, count):
    _check_non_finite_entry_rejected(entries, count, "pattern")


def test_multiple_rhs(disc):
    k = disc.form.stiffness
    f = SpdFactorization(k)
    rng = np.random.default_rng(5)
    b = rng.standard_normal((disc.mesh.n_vertices, 3))
    x = f.solve(b)
    assert x.shape == b.shape
    assert float(np.max(np.abs(k @ x - b))) <= 1e-8


def _check_band_over_budget_raises_before_allocation(route, monkeypatch):
    monkeypatch.setattr(fem_mod, "_BAND_BUDGET", 0)
    # 5-point grid Laplacian plus identity: its band (101 x 10^4 doubles,
    # 8 MB) is several times the sparse matrix, so a traced peak below half
    # of it shows the band was never allocated
    a, kw = _routed(route, *_grid_matrix())
    tracemalloc.start()
    try:
        with pytest.raises(FemError) as err:
            SpdFactorization(a, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    message = str(err.value)
    assert "n=10000" in message and "bandwidth 100" in message
    need = int(re.search(r"needs (\d+) bytes", message).group(1))
    assert need == 101 * 10000 * 8
    assert peak < need / 2


def test_band_over_budget_raises_before_allocation(monkeypatch):
    _check_band_over_budget_raises_before_allocation("generic", monkeypatch)


def test_band_over_budget_raises_before_allocation_on_the_pattern_route(
        monkeypatch):
    _check_band_over_budget_raises_before_allocation("pattern", monkeypatch)


def _check_band_is_factorized_in_place(route):
    # the same grid matrix within budget: the factorization holds one band
    # (8 MB), and its peak stays well below a band and a copy of it
    a, kw = _routed(route, *_grid_matrix())
    band = 101 * 10000 * 8
    tracemalloc.start()
    try:
        f = SpdFactorization(a, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert band <= peak < 1.5 * band
    x = f.solve(np.ones(a.shape[0]))
    assert float(np.max(np.abs(a @ x - 1.0))) <= 1e-10


def test_band_is_factorized_in_place():
    _check_band_is_factorized_in_place("generic")


def test_band_is_factorized_in_place_on_the_pattern_route():
    _check_band_is_factorized_in_place("pattern")


@pytest.mark.parametrize("n_boundary,refinement", SETUP_MESHES)
def test_pattern_plan_gives_the_one_pass_bits(n_boundary, refinement):
    # a Jacobian factorized with its pattern's plan, the same matrix
    # analyzed on its own and the earlier one-pass factorization give one
    # ordering, band factor and solve, bit for bit: the state and the
    # pinned operator, on the mesh and on the mesh numbered at random
    mesh = make_disk_mesh(n_boundary, refinement)
    rng = np.random.default_rng(n_boundary + refinement)
    for m in (mesh, _relabeled(mesh, rng)):
        d = Discretization(make_spec(), m)
        w = rng.uniform(0.5, 3.0, d.tables.qw_dom.shape)
        b = rng.standard_normal(m.n_vertices)
        for c in (0.0, 1.5):
            a = d.jacobian_matrix(w, c)
            planned = d.jacobian_factor(w, c)
            alone = SpdFactorization(a)
            perm, chol = band_cholesky(a)
            for f in (planned, alone):
                assert f.matrix is a
                assert f._perm.dtype == perm.dtype
                assert np.array_equal(f._perm, perm)
                assert f._chol.shape == chol.shape
                assert f._chol.tobytes() == chol.tobytes()
            assert planned.solve(b).tobytes() == alone.solve(b).tobytes()
        assert "band_plan" in vars(d.tables.tri_pattern)


def test_one_ordering_per_pattern_over_a_solve_and_a_warm_chain(
        factorizations, monkeypatch):
    # h = y + y^3, pinned at every node: the cold solve factorizes the
    # state and the pinned operator and the warm chain runs on their
    # anchors; both share the triangle pattern's ordering, computed once
    calls = []
    rcm = fem_mod.reverse_cuthill_mckee

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return rcm(*args, **kwargs)

    monkeypatch.setattr(fem_mod, "reverse_cuthill_mckee", counted)
    disc = Discretization(make_spec(reaction="y + y^3"),
                          make_disk_mesh(32, 0))
    opts = SolveOptions(tol=1e-9)
    lam = disc.param_reference().values
    rep = solve_kkt(disc, lam, options=opts)
    for t in (0.001, 0.003, 0.01):
        rep = solve_kkt(disc, lam + t, u0=rep.point.control.values,
                        options=opts)
    assert len(factorizations) == 2
    assert calls == [(disc.mesh.n_vertices,) * 2]


def test_a_changed_structure_is_analyzed_on_its_own(lq_spec, monkeypatch):
    # a caller that changes a Jacobian's structure gets the factorization
    # of the matrix its arrays now hold, from an analysis of its own: the
    # pattern's plan would put its entries in the wrong places
    own = []
    init = fem_mod._BandPlan.__init__

    def recorded(self, indptr, indices, mirror=None):
        if mirror is None:
            own.append(indices.copy())
        init(self, indptr, indices, mirror)

    monkeypatch.setattr(fem_mod._BandPlan, "__init__", recorded)
    d = Discretization(lq_spec, make_disk_mesh(16, 0))
    w = np.full(d.tables.qw_dom.shape, 2.0)
    b = np.random.default_rng(3).standard_normal(d.mesh.n_vertices)

    # each row's entries reversed: the same matrix, in rows no longer
    # sorted, which its format flags still claim they are
    jac = d.jacobian_matrix(w)
    perm, chol = band_cholesky(jac)
    for lo, hi in zip(jac.indptr[:-1], jac.indptr[1:]):
        jac.indices[lo:hi] = jac.indices[lo:hi][::-1].copy()
        jac.data[lo:hi] = jac.data[lo:hi][::-1].copy()
    f = d.jacobian_factor(w)
    assert f.matrix is jac and len(own) == 1
    assert np.array_equal(f._perm, perm)
    assert f._chol.tobytes() == chol.tobytes()

    # one coupling dropped from the matrix of other weights
    jac = d.jacobian_matrix(2.0 * w)
    k = jac.indptr[1]
    jac.data[[k, d.tables.tri_pattern.mirror[k]]] = 0.0
    jac.eliminate_zeros()
    f = d.jacobian_factor(2.0 * w)
    assert f.matrix is jac and len(own) == 2
    assert np.array_equal(own[-1], jac.indices)
    perm, chol = band_cholesky(jac)
    assert f._chol.tobytes() == chol.tobytes()
    assert float(np.max(np.abs(jac @ f.solve(b) - b))) <= 1e-10


def test_duplicate_entries_are_summed():
    # a CSR matrix may store an entry more than once; the factorization is
    # that of the matrix it represents, in which they are summed
    data = np.array([1.0, 3.0, 0.5, 0.5, 2.0])
    a = sp.csr_matrix((data, np.array([0, 0, 1, 0, 1]),
                       np.array([0, 3, 5])), shape=(2, 2))
    want = np.array([[4.0, 0.5], [0.5, 2.0]])
    f = SpdFactorization(a)
    assert f.matrix is a
    assert np.allclose(f.solve(np.array([1.0, 2.0])),
                       np.linalg.solve(want, [1.0, 2.0]), rtol=1e-14)


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
    w = rng.standard_normal(disc.mesh.n_boundary)
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


@pytest.mark.parametrize("key,label", [("a0", "a_0 >= 0"), ("a11", "(C0)")])
def test_operator_gates_at_a_quadrature_point(key, label):
    # a dip to -1, about 1e-4 wide, at one interior quadrature point: no
    # sample of ProblemSpec.validate comes near it, but the assembly
    # evaluates the coefficient there
    mesh = make_disk_mesh(16, 0)
    x, y = (repr(float(v)) for v in fem_mod._tables(mesh).qp_dom[0, 0])
    spec = make_spec(**{key: f"1 - 2*exp(-1e8*((x1 - ({x}))^2 "
                             f"+ (x2 - ({y}))^2))"})
    spec.validate()
    with pytest.raises(AdmissionError) as err:
        Discretization(spec, mesh)
    assert err.value.label == label
    assert str(err.value).endswith("at a quadrature point")


@pytest.mark.parametrize("n_boundary,refinement",
                         [(8, 0), (16, 1), (32, 2), (64, 0)])
@pytest.mark.parametrize("cells_of", ["triangles", "boundary_edges",
                                      "boundary_numbering"])
def test_pattern_assembly_has_coo_structure_and_sums_to_rounding(
        n_boundary, refinement, cells_of):
    # the pattern's indptr and indices are scipy's exactly; its values sum
    # the duplicates of an entry in element order, scipy's in its own, so
    # each value may differ by the rounding of d additions, d the most
    # duplicates of one entry
    mesh = make_disk_mesh(n_boundary, refinement)
    t = fem_mod._tables(mesh)
    cells, n, pattern = {
        "triangles": (mesh.triangles, mesh.n_vertices, t.tri_pattern),
        # the library keeps no pattern in vertex numbering of the
        # boundary; _Pattern still serves cells that skip vertices
        "boundary_edges": (mesh.boundary_edges, mesh.n_vertices,
                           fem_mod._Pattern(mesh.boundary_edges,
                                            mesh.n_vertices)),
        "boundary_numbering": (t.edge_pos, mesh.n_boundary, t.bb_pattern),
    }[cells_of]
    rng = np.random.default_rng(n_boundary + refinement)
    k = cells.shape[1]
    # entries over many magnitudes, so that every summation order rounds
    # differently
    elem = (rng.standard_normal((len(cells), k, k))
            * 10.0 ** rng.integers(-6, 7, size=(len(cells), k, k)))
    got = pattern.assemble(elem)
    want = _coo_sum(elem, cells, n)
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    d = _coo_sum(np.ones_like(elem), cells, n).data.max()
    bound = d * np.finfo(float).eps * _coo_sum(np.abs(elem), cells, n).data
    assert np.all(np.abs(got.data - want.data) <= bound)


@pytest.mark.parametrize("n_boundary,refinement", SETUP_MESHES)
def test_patterns_are_the_unique_based_ones(n_boundary, refinement):
    # the patterns laid out from the edges by counting are np.unique's
    # keys and inverse, the searchsorted transpose map, and the arrays of
    # one argsort of the element keys, dtypes included; also on the mesh
    # numbered at random, whose rows mix lower and upper neighbours freely
    mesh = make_disk_mesh(n_boundary, refinement)
    relabeled = _relabeled(mesh, np.random.default_rng(n_boundary))
    cases = []
    for m in (mesh, relabeled):
        t = fem_mod._tables(m)
        cases += [(m.triangles, m.n_vertices, t.tri_pattern),
                  (m.boundary_edges, m.n_vertices,
                   fem_mod._Pattern(m.boundary_edges, m.n_vertices)),
                  (t.edge_pos, m.n_boundary, t.bb_pattern)]
    for cells, n, pattern in cases:
        keys, pos, indices, indptr = unique_pattern(cells, n)
        got = (pattern.keys, pattern.pos, pattern.indices, pattern.indptr,
               pattern.mirror)
        for arrays in ((keys, pos, indices, indptr,
                        searchsorted_mirror(keys, n)),
                       argsort_pattern(cells, n)):
            for a, want in zip(got, arrays):
                assert a.dtype == want.dtype and np.array_equal(a, want)
        assert pattern.nnz == len(keys) and pattern.shape == (n, n)
        # the mirror of an entry holds its transposed key
        assert np.array_equal(keys[pattern.mirror], keys % n * n + keys // n)


@pytest.mark.parametrize("n_boundary,refinement", SETUP_MESHES)
def test_quadrature_points_are_the_einsum_bits(n_boundary, refinement):
    mesh = make_disk_mesh(n_boundary, refinement)
    got = fem_mod._tables(mesh).qp_dom
    want = einsum_quadrature_points(mesh)
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()


def test_stiffness_elements_are_the_einsum_bits():
    # coefficients and gradients over many magnitudes, so that any other
    # rounding order shows
    rng = np.random.default_rng(11)
    grads = (rng.standard_normal((500, 3, 2))
             * 10.0 ** rng.integers(-6, 7, size=(500, 3, 2)))
    i11, i12, i22 = (rng.standard_normal(500)
                     * 10.0 ** rng.integers(-6, 7, size=500)
                     for _ in range(3))
    got = fem_mod._stiffness_elements(i11, i12, i22, grads)
    want = einsum_stiffness(i11, i12, i22, grads)
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()


#: an operator with x-dependent a11, a22 and a0 and a12 != 0; its smallest
#: tensor eigenvalue stays above 1.2 on the unit disk
VARIABLE_OPERATOR = dict(a11="3 + x1^2", a12="0.5*x1 - 0.25*x2",
                         a22="3 + x1*x2", a0="1 + x1^2 + 0.5*x2")


@pytest.mark.parametrize("operator", ["constant", "variable"])
@pytest.mark.parametrize("n_boundary,refinement", SETUP_MESHES)
def test_stiffness_is_the_einsum_assembly(n_boundary, refinement,
                                          operator):
    spec = make_spec(**(VARIABLE_OPERATOR if operator == "variable"
                        else {}))
    d = Discretization(spec, make_disk_mesh(n_boundary, refinement))
    got, want = d.form.stiffness, stiffness_matrix(d)
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()


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


def test_solved_discretization_is_freed_without_the_collector(lq_spec):
    # no reference cycle: with the cycle collector off, dropping the last
    # reference to a solved and checked discretization frees it, its mesh
    # and the mesh's tables, whatever the set-up built when first read
    mesh = make_disk_mesh(16, 0)
    d = Discretization(lq_spec, mesh)
    rep = solve_kkt(d, d.param_reference())
    check_ssc(d, rep.point)
    d.eval_dom(parse("x1*x2"))
    d.form.mass_domain
    refs = [weakref.ref(obj) for obj in (d, mesh, d.tables, d.form)]
    gc.disable()
    try:
        del d, mesh, rep
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_set_up_builds_what_a_solve_reads_when_first_read(lq_spec):
    # a problem with no expression in x solves and checks without the
    # quadrature points, and the domain mass is assembled when first read;
    # both have the bits that the set-up built before
    mesh = make_disk_mesh(16, 1)
    d = Discretization(lq_spec, mesh)
    rep = solve_kkt(d, d.param_reference())
    check_ssc(d, rep.point)
    assert "qp_dom" not in vars(d.tables)
    table = einsum_quadrature_points(mesh)
    for name, axis in (("x1", 0), ("x2", 1)):
        got = d.eval_dom(parse(name))
        assert got.tobytes() == np.ascontiguousarray(
            table[:, :, axis]).tobytes()
    assert np.shares_memory(got, d.tables.qp_dom)

    d = Discretization(lq_spec, mesh)
    solve_kkt(d, d.param_reference())
    assert "mass_domain" not in vars(d.form)
    want = d.domain_mass_weighted(np.ones_like(d.tables.qw_dom))
    got = d.form.mass_domain
    assert got is d.form.mass_domain
    _assert_same_csr(got, want)
    assert got.data.tobytes() == want.data.tobytes()


def test_constant_weights_compare_by_their_value(monkeypatch):
    # a folded constant's broadcast meets the kept one by its single value,
    # without np.array_equal; any other weights are compared entry by
    # entry, and weights that differ replace the entry
    d = Discretization(make_spec(reaction="y + y^3"), make_disk_mesh(16, 0))
    shape = d.tables.qw_dom.shape
    state = d.jacobian_matrix(fem_mod._broadcast(1.0, shape))
    compared = []
    monkeypatch.setattr(fem_mod.np, "array_equal",
                        _counting(compared, np.array_equal))
    assert d.jacobian_matrix(fem_mod._broadcast(1.0, shape)) is state
    assert compared == []
    assert d.jacobian_matrix(np.ones(shape)) is state
    assert len(compared) == 1
    base = np.array([2.0])
    other = d.jacobian_matrix(np.broadcast_to(base, shape))
    assert other is not state
    want = d.form.stiffness + d.domain_mass_weighted(np.full(shape, 2.0))
    assert other.data.tobytes() == want.data.tobytes()
    # the kept weights view no caller memory
    base[0] = 1.0
    assert d.jacobian_matrix(fem_mod._broadcast(2.0, shape)) is other
    assert d.jacobian_matrix(fem_mod._broadcast(1.0, shape)) is not other


def _counting(calls: list, function):
    def counted(*args, **kwargs):
        calls.append(1)
        return function(*args, **kwargs)
    return counted


def test_operator_entries_share_one_mass_sum_per_weights(monkeypatch):
    # the state operator and the pinned one at one state sum M[h_y] once;
    # their values stay K + M[w] (+ c M_B) bit for bit
    d = Discretization(make_spec(reaction="y + y^3"), make_disk_mesh(16, 0))
    rng = np.random.default_rng(8)
    w, w2 = (rng.uniform(0.5, 3.0, d.tables.qw_dom.shape) for _ in range(2))
    want = {id(v): d.domain_mass_weighted(v).data for v in (w, w2)}
    sums = []
    monkeypatch.setattr(Discretization, "domain_mass_weighted",
                        _counting(sums, Discretization.domain_mass_weighted))
    c = 1.5
    for v, n_sums in ((w, 1), (w2, 2), (w, 3)):
        state, pinned = d.jacobian_matrix(v), d.jacobian_matrix(v.copy(), c)
        assert len(sums) == n_sums
        data = d.form.stiffness.data + want[id(v)]
        assert state.data.tobytes() == data.tobytes()
        data[vertex_boundary_in_triangles(d)] += \
            c * vertex_boundary_mass(d).data
        assert pinned.data.tobytes() == data.tobytes()


class _RhsFactor:
    """A factorization stand-in whose solve hands back a copy of its
    right-hand side, so that ``control_to_state`` returns ``T``'s."""

    def solve(self, b):
        return np.array(b)


def _relabeled(mesh, rng):
    """``mesh`` with its vertices renumbered at random, so that the
    boundary is neither last nor in increasing order."""
    perm = rng.permutation(mesh.n_vertices)
    vertices = np.empty_like(mesh.vertices)
    vertices[perm] = mesh.vertices
    return Mesh(vertices, perm[mesh.triangles], perm[mesh.boundary_vertices],
                perm[mesh.boundary_edges], mesh.boundary_s)


@pytest.mark.parametrize("n_boundary,refinement", SETUP_MESHES)
def test_boundary_operators_are_the_vertex_numbered_ones(n_boundary,
                                                         refinement):
    # every boundary operator is kept in boundary numbering: the state
    # loads, the c M_B add of the pinned operator, T's right-hand side and
    # the boundary load give the bits of the vertex-numbered assembly
    mesh = make_disk_mesh(n_boundary, refinement)
    d = Discretization(make_spec(reaction="y + y^3"), mesh)
    rng = np.random.default_rng(n_boundary + refinement)
    nb, bv = mesh.n_boundary, mesh.boundary_vertices
    mb = vertex_boundary_mass(d)
    u, lam = rng.standard_normal((2, nb))
    load = mb @ d.embed(u + lam)

    def residual(y):
        hq = d.eval_dom(d.problem.reaction, y=y)
        return fem_mod._norm2(d.form.stiffness @ y + d.domain_load(hq) - load)

    assert d.embed(d.form.mass_boundary_bb @ (u + lam)).tobytes() \
        == load.tobytes()
    y = rng.standard_normal(mesh.n_vertices)
    assert state_residual_norm(d, y, u, lam) == residual(y)
    rep = solve_state(d, u, lam)
    assert rep.residual == residual(rep.state.values)
    assert d.form.mass_boundary_bb.toarray().tobytes() \
        == mb[bv][:, bv].toarray().tobytes()

    at = vertex_boundary_in_triangles(d)
    assert d.tables.bnd_in_tri.dtype == at.dtype
    assert np.array_equal(d.tables.bnd_in_tri, at)
    w = rng.uniform(0.5, 3.0, d.tables.qw_dom.shape)
    data = d.form.stiffness.data + d.domain_mass_weighted(w).data
    data[at] += 1.5 * mb.data
    assert d.jacobian_matrix(w, 1.5).data.tobytes() == data.tobytes()

    rhs = d.control_to_state(_RhsFactor())
    assert rhs.tobytes() == mb[:, bv].toarray().tobytes()
    f = rng.standard_normal(d.tables.qw_bnd.shape)
    assert d.boundary_load(f).tobytes() \
        == vertex_boundary_load(d, f).tobytes()

    # on a mesh whose boundary is numbered in no order, the boundary
    # entries still add onto their triangle entries; a row's sum may then
    # run in another order
    d = Discretization(make_spec(), _relabeled(mesh, rng))
    mb = vertex_boundary_mass(d)
    data = d.form.stiffness.data + d.domain_mass_weighted(w).data
    data[vertex_boundary_in_triangles(d)] += 1.5 * mb.data
    assert d.jacobian_matrix(w, 1.5).data.tobytes() == data.tobytes()
    bv = d.mesh.boundary_vertices
    assert np.array_equal(d.form.mass_boundary_bb.toarray(),
                          mb[bv][:, bv].toarray())
    assert np.allclose(d.embed(d.form.mass_boundary_bb @ u),
                       mb @ d.embed(u), rtol=1e-15, atol=1e-15)
    assert np.allclose(d.boundary_load(f), vertex_boundary_load(d, f),
                       rtol=1e-15, atol=1e-15)


def test_norm2_is_numpys_norm_bit_for_bit():
    # contiguous, strided, C- and F-ordered arrays: BLAS sums a strided dot
    # product in another order, so the ravel must copy it first
    rng = np.random.default_rng(9)
    for n in (1, 3, 64, 353, 5000):
        base = rng.standard_normal(6 * n) * 10.0 ** rng.uniform(-5, 5)
        two = base.reshape(6, n)
        for v in (base, base[::3], two, two.T, two[:, ::2], two[::2].T):
            assert fem_mod._norm2(v) == float(np.linalg.norm(v))


def _evaluations(disc):
    # each eval_* with a state and a parameter where it takes them
    y = np.linspace(-1.0, 1.0, disc.mesh.n_vertices)
    lam = np.linspace(0.0, 1.0, disc.mesh.n_boundary)
    return (lambda e: disc.eval_dom(e, y=y),
            lambda e: disc.eval_bnd(e, y=y, lam=lam),
            lambda e: disc.eval_node(e, y=y, lam=lam))


def test_evaluations_never_hand_out_writable_memory(disc):
    # a constant, the quadrature table itself, a scalar of no variable, and
    # values that already have the target shape
    table = disc.tables.qp_dom.copy()
    exprs = [Const(2.5), parse("x1"), parse("sin(1)"),
             parse("y + x1"), disc.problem.reaction_y]
    for i, evaluate in enumerate(_evaluations(disc)):
        for e in exprs + ([parse("y*lam"), disc.problem.alpha] if i else []):
            out = evaluate(e)
            assert not out.flags.writeable, e
            with pytest.raises(ValueError):
                out[...] = 0.0
    assert np.array_equal(disc.tables.qp_dom, table)
    assert np.shares_memory(disc.eval_dom(parse("x1")), disc.tables.qp_dom)


def test_folded_constant_is_its_broadcast_without_interpolation(
        disc, monkeypatch):
    def refused(*args):
        raise AssertionError("a constant interpolated its environment")

    for name in ("tri_interp", "edge_interp", "trace"):
        monkeypatch.setattr(disc, name, refused)
    for evaluate in _evaluations(disc):
        out = evaluate(Const(-0.0))
        want = np.broadcast_to(-0.0, out.shape)
        assert out.tobytes() == want.tobytes()
        assert out.strides == want.strides
        assert not out.flags.writeable
