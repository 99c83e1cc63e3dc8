"""First-order residuals against a dense recomputation, the dominance
partition on closed-form examples, multiplier recovery identities, the
half-line projection, and both second-order estimators."""

import math
import tracemalloc

import numpy as np
import pytest

from ctrlstab import (AdmissionError, BoundaryFunction, Discretization,
                      FeFunction, KktPoint, build_discretization, check_ssc,
                      critical_direction_sample, make_disk_mesh,
                      parse_instance, partition_at, projection_identity_gap,
                      quadratic_form, recover_multipliers, solve_kkt)
from ctrlstab import kkt
from ctrlstab.kkt import (_BLOCK_FLOATS, _ConeGeometry, check_beta_floor,
                          constraint_values, residuals)
from ctrlstab.pde import linearized_operator
from ctrlstab.solver import SolveOptions, objective_value

from conftest import CONFIG_DIR, make_spec
from oracles import (project_one, quadrature_curvature,
                     sample_directions_one_by_one)


def _zero_point(disc, m=None):
    mesh = disc.mesh
    nb = mesh.n_boundary
    m = disc.problem.m if m is None else m
    return KktPoint(
        state=FeFunction(mesh, np.zeros(mesh.n_vertices)),
        control=BoundaryFunction(mesh, np.zeros(nb)),
        adjoint=FeFunction(mesh, np.zeros(mesh.n_vertices)),
        multipliers=tuple(BoundaryFunction(mesh, np.zeros(nb))
                          for _ in range(m)),
        param=BoundaryFunction(mesh, np.zeros(nb)))


def _random_point(disc, rng):
    mesh = disc.mesh
    nb = mesh.n_boundary
    return KktPoint(
        state=FeFunction(mesh, rng.standard_normal(mesh.n_vertices)),
        control=BoundaryFunction(mesh, rng.standard_normal(nb)),
        adjoint=FeFunction(mesh, rng.standard_normal(mesh.n_vertices)),
        multipliers=tuple(BoundaryFunction(mesh, rng.standard_normal(nb))
                          for _ in range(disc.problem.m)),
        param=BoundaryFunction(mesh, 0.1 * rng.standard_normal(nb)))


def dense_residuals(disc, point):
    """Recompute the five residuals with dense algebra straight from the
    assembled matrices and the problem expressions."""
    p = disc.problem
    y = point.state.values
    u = point.control.values
    lam = point.param.values
    adj = point.adjoint.values
    k = disc.form.stiffness.toarray()
    mb = disc.form.mass_boundary.toarray()

    f_state = (k @ y + disc.domain_load(disc.eval_dom(p.reaction, y=y))
               - mb @ disc.embed(u + lam))
    r_state = float(np.linalg.norm(f_state))

    hy = disc.eval_dom(p.reaction_y, y=y)
    op = k + disc.domain_mass_weighted(hy).toarray()
    bnd = disc.eval_bnd(p.obj_boundary_y, y=y, lam=lam)
    for gy, e in zip(p.constraints_y, point.multipliers):
        bnd = bnd + (disc.eval_bnd(gy, y=y, lam=lam)
                     * disc.edge_interp(e.values))
    rhs = (-disc.domain_load(disc.eval_dom(p.obj_domain_y, y=y))
           - disc.boundary_load(bnd))
    r_adjoint = float(np.linalg.norm(op @ adj - rhs))

    alpha = disc.eval_node(p.alpha, lam=lam)
    beta = disc.eval_node(p.beta, lam=lam)
    e_sum = np.sum([e.values for e in point.multipliers], axis=0)
    r_stat = float(np.max(np.abs(-adj[disc.mesh.boundary_vertices]
                                 + alpha + beta * u + e_sum)))

    g = np.stack([disc.eval_node(gc, y=y, lam=lam) for gc in p.constraints])
    r_comp = 0.0
    r_feas = 0.0
    for i, e in enumerate(point.multipliers):
        r_comp = max(r_comp, float(np.max(np.abs(e.values * (g[i] + u)))),
                     float(np.max(np.maximum(-e.values, 0.0))))
        r_feas = max(r_feas, float(np.max(np.maximum(g[i] + u, 0.0))))
    return np.array([r_state, r_adjoint, r_stat, r_comp, r_feas])


def test_residuals_match_dense_recomputation(lq_disc16):
    rng = np.random.default_rng(0)
    for _ in range(3):
        point = _random_point(lq_disc16, rng)
        got = residuals(lq_disc16, point)
        want = dense_residuals(lq_disc16, point)
        have = np.array([got.state, got.adjoint, got.stationarity,
                         got.complementarity, got.feasibility])
        assert np.max(np.abs(have - want)) <= 1e-12 * (1.0 + np.max(want))
        assert got.worst == float(np.max(have))


def test_residuals_never_factorize(factorizations):
    # cubic reaction: every random state has its own h_y weights, so none of
    # them is the cached operator, which sits at the zero state
    disc = Discretization(make_spec(reaction="y^3 + y"), make_disk_mesh(16, 0))
    linearized_operator(disc, np.zeros(disc.mesh.n_vertices))
    factorizations.clear()
    rng = np.random.default_rng(1)
    for _ in range(3):
        point = _random_point(disc, rng)
        got = residuals(disc, point)
        want = dense_residuals(disc, point)
        have = np.array([got.state, got.adjoint, got.stationarity,
                         got.complementarity, got.feasibility])
        assert np.max(np.abs(have - want)) <= 1e-12 * (1.0 + np.max(want))
    assert factorizations == []


def test_linear_reaction_factorizes_once_per_discretization(factorizations):
    # h = y: h_y is the same at every state, so the Newton steps, adjoint
    # solves, residuals and the SSC check all share one factorization
    disc = Discretization(make_spec(), make_disk_mesh(16, 0))
    rep = solve_kkt(disc, disc.param_reference(),
                    options=SolveOptions(tol=1e-10))
    residuals(disc, rep.point)
    check_ssc(disc, rep.point, n_samples=20,
              rng=np.random.default_rng(2))
    assert rep.iterations > 1
    assert len(factorizations) == 1


def test_cubic_reaction_solve_factorizes_at_most_twice(factorizations):
    # h = y + y^3: h_y moves with every state, so Newton steps and adjoint
    # solves run CG preconditioned by the factorization of an earlier state
    disc = Discretization(make_spec(reaction="y^3 + y"), make_disk_mesh(32, 0))
    rep = solve_kkt(disc, disc.param_reference(),
                    options=SolveOptions(tol=1e-10))
    assert rep.iterations > 1
    assert rep.residuals.worst <= 1e-10
    assert len(factorizations) <= 2


def test_exact_zero_point_has_zero_residuals():
    spec = make_spec(obj_domain="-2*y^2", alpha="0",
                     constraints=("-1", "-2"))
    disc = Discretization(spec, make_disk_mesh(16, 0))
    res = residuals(disc, _zero_point(disc))
    assert res.worst == 0.0


def test_control_perturbation_moves_stationarity(lq_solved32, lq_disc32):
    base = lq_solved32.point
    eps = 1e-4
    u = base.control.values.copy()
    u[3] += eps
    bumped = KktPoint(state=base.state, control=BoundaryFunction(
        lq_disc32.mesh, u), adjoint=base.adjoint,
        multipliers=base.multipliers, param=base.param)
    res = residuals(lq_disc32, bumped)
    # beta = 1: stationarity rises to ~eps
    base_stat = lq_solved32.residuals.stationarity
    assert abs(res.stationarity - eps) <= 0.05 * eps + base_stat


# ---------------------------------------------------------------------------
# dominance partition
# ---------------------------------------------------------------------------


def test_partition_clear_dominance(lq_disc16):
    spec = make_spec(constraints=("y - 1", "y - 2"))
    disc = Discretization(spec, lq_disc16.mesh)
    part = partition_at(disc, np.zeros(disc.mesh.n_vertices),
                        np.zeros(disc.mesh.n_boundary))
    assert np.all(part.labels == 0)
    assert part.sigma1 == 1.0
    assert list(part.counts) == [disc.mesh.n_boundary, 0]


def test_partition_identical_constraints_degenerate(lq_disc16):
    spec = make_spec(constraints=("y - 1", "y - 1"))
    disc = Discretization(spec, lq_disc16.mesh)
    part = partition_at(disc, np.zeros(disc.mesh.n_vertices),
                        np.zeros(disc.mesh.n_boundary))
    assert np.all(part.labels == 0)  # ties resolve to the lowest index
    assert part.sigma1 == 0.0


def test_partition_sine_crossing():
    spec = make_spec(constraints=("sin(s) - 2", "-sin(s) - 2"))
    disc = Discretization(spec, make_disk_mesh(16, 0))
    part = partition_at(disc, np.zeros(disc.mesh.n_vertices),
                        np.zeros(disc.mesh.n_boundary))
    s = disc.mesh.boundary_s
    want = np.where(np.sin(s) >= 0.0, 0, 1)  # ties at s in {0, pi} go to 1st
    assert np.array_equal(part.labels, want)
    assert part.sigma1 == 0.0  # the margin vanishes at the crossings
    assert part.counts[0] > 0 and part.counts[1] > 0


def test_margin_matrix_shape(lq_disc16):
    part = partition_at(lq_disc16, np.zeros(lq_disc16.mesh.n_vertices),
                        np.zeros(lq_disc16.mesh.n_boundary))
    m = lq_disc16.problem.m
    assert part.margins.shape == (m, m)
    assert np.all(np.isnan(np.diagonal(part.margins)))


# ---------------------------------------------------------------------------
# multiplier recovery and projection identity
# ---------------------------------------------------------------------------


def test_recovered_multipliers_support_and_sign(lq_disc16):
    rng = np.random.default_rng(1)
    y = rng.standard_normal(lq_disc16.mesh.n_vertices)
    u = rng.standard_normal(lq_disc16.mesh.n_boundary)
    adj = rng.standard_normal(lq_disc16.mesh.n_vertices)
    lam = np.zeros(lq_disc16.mesh.n_boundary)
    part = partition_at(lq_disc16, y, lam)
    mult = recover_multipliers(lq_disc16, y, u, adj, lam, part)
    assert len(mult) == 2
    for i, e in enumerate(mult):
        assert np.all(e.values >= 0.0)
        assert np.all(e.values[part.labels != i] == 0.0)
    # each node carries weight in exactly one cell
    total = np.sum([e.values for e in mult], axis=0)
    w = np.maximum(lq_disc16.trace(adj) - u, 0.0)  # alpha = lam = 0, beta = 1
    assert np.array_equal(total, w)


def test_recovery_stationarity_equals_clamp_loss(lq_disc16):
    # with recovered multipliers the stationarity defect is exactly the
    # negative part of (adjoint - alpha - beta u)
    rng = np.random.default_rng(2)
    mesh = lq_disc16.mesh
    y = rng.standard_normal(mesh.n_vertices)
    u = rng.standard_normal(mesh.n_boundary)
    adj = rng.standard_normal(mesh.n_vertices)
    lam = np.zeros(mesh.n_boundary)
    part = partition_at(lq_disc16, y, lam)
    mult = recover_multipliers(lq_disc16, y, u, adj, lam, part)
    w = lq_disc16.trace(adj) - u  # alpha = 0, beta = 1 at lam = 0
    e_sum = np.sum([e.values for e in mult], axis=0)
    defect = -lq_disc16.trace(adj) + u + e_sum
    clamp = np.maximum(-w, 0.0)
    assert np.array_equal(defect, clamp)


def test_projection_gap_two_forms_agree():
    # |g + u - min(0, w + g)| == |u - min(-g, w)| pointwise, up to the
    # rounding of (w + g) - g
    rng = np.random.default_rng(4)
    g = rng.standard_normal(1000)
    u = rng.standard_normal(1000)
    w = rng.standard_normal(1000)
    lhs = np.abs(g + u - np.minimum(w + g, 0.0))
    rhs = np.abs(u - np.minimum(-g, w))
    assert float(np.max(np.abs(lhs - rhs))) <= 1e-13


def test_projection_gap_small_at_solution(lq_solved32, lq_disc32):
    gap = projection_identity_gap(lq_disc32, lq_solved32.point)
    res = lq_solved32.residuals
    total = (res.state + res.adjoint + res.stationarity
             + res.complementarity + res.feasibility)
    assert gap <= 10.0 * total + 1e-14


def test_projection_gap_detects_off_solution(lq_solved32, lq_disc32):
    base = lq_solved32.point
    u = base.control.values + 0.01
    moved = KktPoint(state=base.state, control=BoundaryFunction(
        lq_disc32.mesh, u), adjoint=base.adjoint,
        multipliers=base.multipliers, param=base.param)
    assert projection_identity_gap(lq_disc32, moved) >= 0.005


def test_beta_floor_guard():
    spec = make_spec(beta="0.5 - 0.4*lam", gamma=0.5)
    disc = Discretization(spec, make_disk_mesh(16, 0))
    nb = disc.mesh.n_boundary
    check_beta_floor(disc, np.zeros(nb))  # fine at the reference
    with pytest.raises(AdmissionError) as err:
        check_beta_floor(disc, 0.7 * np.ones(nb))
    assert err.value.label == "(H3)"


# ---------------------------------------------------------------------------
# second order
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cubic_solved():
    spec = make_spec(reaction="y^3 + y",
                     obj_domain="0.5*(y - 1)^2 + 0.05*y^3")
    disc = Discretization(spec, make_disk_mesh(16, 0))
    rep = solve_kkt(disc, np.zeros(disc.mesh.n_boundary),
                    options=SolveOptions(tol=1e-10))
    return disc, rep


@pytest.fixture(scope="module")
def mixed_active_solved():
    # the constraint binds only on part of the boundary, so the critical
    # cone has both pinned and free components
    spec = make_spec(constraints=("y - 0.55 + 0.5*sin(s)", "y - 3"))
    disc = Discretization(spec, make_disk_mesh(32, 0))
    rep = solve_kkt(disc, np.zeros(disc.mesh.n_boundary),
                    options=SolveOptions(tol=1e-10))
    return disc, rep


def test_quadratic_form_matches_lagrangian_fd(cubic_solved):
    disc, rep = cubic_solved
    point = rep.point
    p = disc.problem
    lam = point.param.values
    mb = disc.form.mass_boundary

    def lagrangian(yv, uv):
        j = objective_value(disc, FeFunction(disc.mesh, yv),
                            BoundaryFunction(disc.mesh, uv), point.param)
        f_vec = (disc.form.stiffness @ yv
                 + disc.domain_load(disc.eval_dom(p.reaction, y=yv))
                 - mb @ disc.embed(uv + lam))
        val = j + float(point.adjoint.values @ f_vec)
        for g, e in zip(p.constraints, point.multipliers):
            gq = disc.eval_bnd(g, y=yv, lam=lam)
            val += disc.integrate_boundary(disc.edge_interp(e.values)
                                           * (gq + disc.edge_interp(uv)))
        return val

    rng = np.random.default_rng(5)
    y0 = point.state.values
    u0 = point.control.values
    t = 1e-3
    for _ in range(3):
        yd = rng.standard_normal(disc.mesh.n_vertices)
        ud = rng.standard_normal(disc.mesh.n_boundary)
        q = quadratic_form(disc, point, yd, ud)
        fd = (lagrangian(y0 + t * yd, u0 + t * ud)
              - 2.0 * lagrangian(y0, u0)
              + lagrangian(y0 - t * yd, u0 - t * ud)) / t ** 2
        assert abs(fd - q) <= 1e-4 * (1.0 + abs(q))


def test_quadratic_form_of_zero_direction(cubic_solved):
    disc, rep = cubic_solved
    nz = np.zeros(disc.mesh.n_vertices)
    nb = np.zeros(disc.mesh.n_boundary)
    assert quadratic_form(disc, rep.point, nz, nb) == 0.0


def test_critical_directions_satisfy_cone_conditions(mixed_active_solved):
    disc, rep = mixed_active_solved
    point = rep.point
    rng = np.random.default_rng(6)
    dirs = critical_direction_sample(disc, point, 20, rng)
    assert len(dirs) > 0
    from ctrlstab.pde import linearized_operator
    op = linearized_operator(disc, point.state.values)
    g = constraint_values(disc, point.state.values, point.param.values)
    slack = g + point.control.values
    active = slack >= -1e-8 * (1.0 + np.max(np.abs(point.control.values)))
    mult = np.stack([e.values for e in point.multipliers])
    strong = active & (mult > 1e-8 * (1.0 + np.max(np.abs(point.control.values))))
    gy = np.stack([disc.eval_node(gyc, y=point.state.values,
                                  lam=point.param.values)
                   for gyc in disc.problem.constraints_y])
    for y_d, u_d in dirs:
        # (ii) normalization
        size = disc.l2_boundary(u_d.values) + disc.l2_domain(y_d.values)
        assert abs(size - 1.0) <= 1e-9
        # (i) linearized state equation
        res = (op.matrix @ y_d.values
               - disc.form.mass_boundary @ disc.embed(u_d.values))
        assert float(np.linalg.norm(res)) <= 1e-8
        # (iii) cone inequalities on active nodes
        yb = disc.trace(y_d.values)
        lin = gy * yb + u_d.values
        assert float(np.max(np.where(active, lin, -np.inf))) <= 1e-7
        if strong.any():
            assert float(np.max(np.abs(lin[strong]))) <= 1e-7


def test_check_ssc_positive_on_convex(mixed_active_solved):
    disc, solved = mixed_active_solved
    rep = check_ssc(disc, solved.point, n_samples=100,
                    rng=np.random.default_rng(7))
    assert rep.positive
    assert rep.min_rayleigh > 0.0
    assert rep.subspace_min_eig > 0.0
    assert rep.n_samples > 0
    assert 0 < rep.n_strong < disc.mesh.n_boundary


def test_check_ssc_vacuous_when_fully_pinned(lq_solved32, lq_disc32):
    # the constraint is strongly active at every boundary node, so the
    # strong-equality subspace is trivial and the check holds vacuously
    rep = check_ssc(lq_disc32, lq_solved32.point, n_samples=50,
                    rng=np.random.default_rng(7))
    assert rep.n_strong == lq_disc32.mesh.n_boundary
    assert rep.n_samples == 0
    assert rep.min_rayleigh == math.inf
    assert rep.subspace_min_eig == math.inf
    assert rep.positive
    d = rep.to_dict()
    assert d["min_rayleigh"] is None and d["subspace_min_eig"] is None


def test_check_ssc_subspace_estimator_start_independent(mixed_active_solved):
    disc, solved = mixed_active_solved
    a = check_ssc(disc, solved.point, n_samples=100,
                  rng=np.random.default_rng(0))
    b = check_ssc(disc, solved.point, n_samples=150,
                  rng=np.random.default_rng(99))
    assert abs(a.subspace_min_eig - b.subspace_min_eig) \
        <= 1e-10 * (1.0 + abs(a.subspace_min_eig))


def test_check_ssc_deterministic_with_seed(mixed_active_solved):
    disc, solved = mixed_active_solved
    a = check_ssc(disc, solved.point, n_samples=60,
                  rng=np.random.default_rng(42))
    b = check_ssc(disc, solved.point, n_samples=60,
                  rng=np.random.default_rng(42))
    assert a.min_rayleigh == b.min_rayleigh
    assert a.subspace_min_eig == b.subspace_min_eig
    assert a.n_samples == b.n_samples


def test_check_ssc_flags_concave_objective():
    # flip the domain objective sign: the curvature form goes negative and
    # both estimators must see it
    spec = make_spec(obj_domain="-2*y^2", alpha="0",
                     constraints=("-1", "-2"))
    disc = Discretization(spec, make_disk_mesh(16, 0))
    point = _zero_point(disc)
    assert residuals(disc, point).worst == 0.0
    rep = check_ssc(disc, point, n_samples=120,
                    rng=np.random.default_rng(8))
    assert not rep.positive
    assert min(rep.min_rayleigh, rep.subspace_min_eig) < 0.0


def _double_well_point():
    # no constraint is active and the domain objective is a double well,
    # so the critical cone is the whole space and the curvature indefinite
    spec = make_spec(obj_domain="0.25*(y^2 - 1)^2", alpha="0",
                     constraints=("-1", "-2"))
    disc = Discretization(spec, make_disk_mesh(16, 0))
    point = _zero_point(disc)
    assert residuals(disc, point).worst == 0.0
    return disc, point


def _weakly_active_point(mixed_active_solved):
    # zeroing the multipliers on the second half of the boundary leaves
    # active nodes there whose multiplier vanishes: weakly active
    disc, solved = mixed_active_solved
    point = solved.point
    nb = disc.mesh.n_boundary
    mults = tuple(BoundaryFunction(disc.mesh,
                                   np.where(np.arange(nb) >= nb // 2,
                                            0.0, e.values))
                  for e in point.multipliers)
    weak = KktPoint(point.state, point.control, point.adjoint, mults,
                    point.param)
    return disc, weak


@pytest.mark.parametrize("case", ["mixed_active", "double_well",
                                  "weakly_active"])
def test_block_sampler_matches_one_by_one_reference(case,
                                                    mixed_active_solved):
    if case == "mixed_active":
        disc, point = mixed_active_solved[0], mixed_active_solved[1].point
    elif case == "double_well":
        disc, point = _double_well_point()
    else:
        disc, point = _weakly_active_point(mixed_active_solved)
    n = 300
    cone = _ConeGeometry(disc, point)
    ref = sample_directions_one_by_one(cone, n, np.random.default_rng(4))
    ref_values = [quadrature_curvature(disc, point, y, u) for y, u in ref]
    assert len(ref) > 0

    dirs = critical_direction_sample(disc, point, n,
                                     np.random.default_rng(4))
    assert len(dirs) == len(ref)
    for (y, u), (y_ref, u_ref) in zip(dirs, ref):
        assert np.allclose(y.values, y_ref, rtol=0.0, atol=1e-12)
        assert np.allclose(u.values, u_ref, rtol=0.0, atol=1e-12)

    # the eigen-direction alone: what check_ssc adds to the samples
    eig = check_ssc(disc, point, n_samples=0)
    rep = check_ssc(disc, point, n_samples=n, rng=np.random.default_rng(4))
    assert rep.n_samples == len(ref) + eig.n_samples
    expected = min(min(ref_values), eig.min_rayleigh)
    assert abs(rep.min_rayleigh - expected) <= 1e-12 * abs(expected)
    if case == "weakly_active":
        # the eigen-direction is not admissible here, so the minimum is
        # the sampled one
        assert eig.n_samples == 0


def test_quadratic_form_equals_quadrature_sum(cubic_solved,
                                              mixed_active_solved):
    rng = np.random.default_rng(12)
    for disc, rep in (cubic_solved, mixed_active_solved):
        for _ in range(3):
            yd = rng.standard_normal(disc.mesh.n_vertices)
            ud = rng.standard_normal(disc.mesh.n_boundary)
            q = quadratic_form(disc, rep.point, yd, ud)
            ref = quadrature_curvature(disc, rep.point, yd, ud)
            assert abs(q - ref) <= 1e-12 * (1.0 + abs(ref))


def test_block_projection_matches_per_vector_weak_path(mixed_active_solved):
    disc, point = _weakly_active_point(mixed_active_solved)
    cone = _ConeGeometry(disc, point)
    assert (cone.active & ~cone.strong).any()
    seeds = np.random.default_rng(0).standard_normal(
        (60, disc.mesh.n_boundary)).T
    u_block = cone.project(seeds)
    y_block = cone.t_mat @ u_block
    sweeps = set()
    for j in range(seeds.shape[1]):
        y, u, n_sweeps = project_one(cone, seeds[:, j])
        sweeps.add(n_sweeps)
        assert np.allclose(y_block[:, j], y, rtol=0.0, atol=1e-12)
        assert np.allclose(u_block[:, j], u, rtol=0.0, atol=1e-12)
    # columns stop at different sweeps, so per-column stopping is exercised
    assert len(sweeps) > 1


def test_check_ssc_cost_does_not_grow_with_samples(mixed_active_solved,
                                                   monkeypatch):
    disc, solved = mixed_active_solved
    calls = []
    for name in ("eval_dom", "eval_bnd"):
        original = getattr(Discretization, name)

        def counting(self, *args, _original=original, **kwargs):
            calls.append(1)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Discretization, name, counting)

    def evaluations(n):
        calls.clear()
        check_ssc(disc, solved.point, n_samples=n,
                  rng=np.random.default_rng(1))
        return len(calls)

    assert evaluations(50) == evaluations(500) > 0
    monkeypatch.undo()

    def peak(n):
        tracemalloc.start()
        try:
            check_ssc(disc, solved.point, n_samples=n,
                      rng=np.random.default_rng(1))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    nb = disc.mesh.n_boundary
    width = max(1, _BLOCK_FLOATS // nb)
    block_bytes = 8 * width * nb
    assert 5000 > 500 > width
    assert peak(5000) <= peak(500) + block_bytes


@pytest.mark.parametrize("case", ["mixed_active", "double_well",
                                  "weakly_active"])
def test_ssc_report_does_not_depend_on_block_width(case, mixed_active_solved,
                                                   monkeypatch):
    if case == "mixed_active":
        disc, point = mixed_active_solved[0], mixed_active_solved[1].point
    elif case == "double_well":
        disc, point = _double_well_point()
    else:
        disc, point = _weakly_active_point(mixed_active_solved)
    nb = disc.mesh.n_boundary
    n = 1200
    reports = []
    for block_floats in (nb, 7 * nb, _BLOCK_FLOATS):
        monkeypatch.setattr(kkt, "_BLOCK_FLOATS", block_floats)
        reports.append(check_ssc(disc, point, n_samples=n,
                                 rng=np.random.default_rng(5)))
    ref = reports[-1]
    assert n > _BLOCK_FLOATS // nb > 7
    assert ref.n_samples > 0
    for rep in reports[:-1]:
        assert (rep.n_samples, rep.n_strong, rep.subspace_min_eig) \
            == (ref.n_samples, ref.n_strong, ref.subspace_min_eig)
        assert abs(rep.min_rayleigh - ref.min_rayleigh) \
            <= 1e-14 * abs(ref.min_rayleigh)


def test_curvature_operator_assembled_only_when_needed(
        mixed_active_solved, lq_disc32, lq_solved32, monkeypatch):
    calls = []
    original = kkt._curvature_operator

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(kkt, "_curvature_operator", counting)
    disc, point = mixed_active_solved[0], mixed_active_solved[1].point
    dirs = critical_direction_sample(disc, point, 50,
                                     np.random.default_rng(2))
    assert dirs and not calls
    check_ssc(disc, point, n_samples=50, rng=np.random.default_rng(2))
    assert len(calls) == 1

    # every node strongly active: the cone is {0}, and neither the
    # curvature operator nor H is needed
    calls.clear()
    rep = check_ssc(lq_disc32, lq_solved32.point, n_samples=50,
                    rng=np.random.default_rng(2))
    assert rep.n_strong == lq_disc32.mesh.n_boundary
    assert rep.n_samples == 0 and not calls


def test_ssc_report_serialization(mixed_active_solved):
    disc, solved = mixed_active_solved
    rep = check_ssc(disc, solved.point, n_samples=60,
                    rng=np.random.default_rng(9))
    d = rep.to_dict()
    assert set(d) == {"min_rayleigh", "subspace_min_eig", "n_samples",
                      "n_strong", "positive"}
    import json
    json.dumps(d)


def test_kkt_point_mesh_validation(lq_disc16, lq_disc32):
    other = lq_disc32.mesh
    mesh = lq_disc16.mesh
    with pytest.raises(ValueError):
        KktPoint(state=FeFunction(mesh, np.zeros(mesh.n_vertices)),
                 control=BoundaryFunction(other, np.zeros(other.n_boundary)),
                 adjoint=FeFunction(mesh, np.zeros(mesh.n_vertices)),
                 multipliers=(),
                 param=BoundaryFunction(mesh, np.zeros(mesh.n_boundary)))
    pt = _zero_point(lq_disc16)
    assert pt.m == 2


@pytest.mark.parametrize("keep", [slice(0, 1), slice(1, 2), slice(0, 3)],
                         ids=["first-only", "second-only", "extra"])
def test_point_needs_one_multiplier_per_constraint(keep):
    # pairing multipliers with constraints by position would check a
    # truncated problem (constraint 2 never looked at) or pair e_2 with g_1
    cfg = parse_instance(CONFIG_DIR / "lq_reference.ini")
    disc = build_discretization(cfg)
    point = solve_kkt(disc, disc.param_reference(),
                      options=cfg.solve_options).point
    mults = point.multipliers + point.multipliers[:1]
    bad = KktPoint(state=point.state, control=point.control,
                   adjoint=point.adjoint, multipliers=mults[keep],
                   param=point.param)
    assert bad.m != disc.problem.m
    nb = disc.mesh.n_boundary
    for check in (lambda: residuals(disc, bad),
                  lambda: check_ssc(disc, bad, n_samples=2),
                  lambda: critical_direction_sample(
                      disc, bad, 2, np.random.default_rng(0)),
                  lambda: quadratic_form(disc, bad,
                                         np.zeros(disc.mesh.n_vertices),
                                         np.zeros(nb))):
        with pytest.raises(ValueError, match="multipliers"):
            check()
