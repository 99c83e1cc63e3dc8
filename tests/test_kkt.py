"""First-order residuals against a dense recomputation, the dominance
partition on closed-form examples, multiplier recovery identities, the
half-line projection, and both second-order estimators."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from ctrlstab import (AdmissionError, BoundaryFunction, Discretization,
                      FeFunction, KktPoint, NotSpdError, ProblemSpec,
                      build_discretization, check_ssc, make_disk_mesh, norm,
                      parse_instance, partition_at, projection_identity_gap,
                      quadratic_form, recover_multipliers, solve_kkt)
from ctrlstab import fem as fem_mod
from ctrlstab import kkt
from ctrlstab.kkt import (_BRACKET_MAX_SOLVES, _ConeGeometry,
                          check_beta_floor, constraint_values, residuals)
from ctrlstab.pde import linearized_operator
from ctrlstab.solver import SolveOptions, objective_value

import oracles
from conftest import CONFIG_DIR, make_spec
from oracles import (dense_control_to_state, partition_margin,
                     quadrature_curvature, strong_equality_nullspace,
                     subspace_minimum_grid, vertex_boundary_load,
                     vertex_boundary_mass)


def _zero_point(disc, m=None):
    mesh = disc.mesh
    nb = mesh.n_boundary
    m = disc.problem.m if m is None else m
    return KktPoint(
        state=FeFunction(mesh, np.zeros(mesh.n_vertices)),
        control=BoundaryFunction(mesh, np.zeros(nb)),
        adjoint=FeFunction(mesh, np.zeros(mesh.n_vertices)),
        multipliers=np.zeros((m, nb)),
        param=BoundaryFunction(mesh, np.zeros(nb)))


def _unit(disc, y, u):
    """``(y, u)`` scaled to unit size ``||u||_L2bnd + ||y||_L2dom``."""
    size = disc.l2_boundary(u) + norm(FeFunction(disc.mesh, y), "l2")
    return y / size, u / size


def _subspace_directions(disc, point, n, rng):
    """``n`` unit directions ``(T u, u)`` of the strong-equality subspace
    that ``check_ssc`` searches: ``u = Z c`` for normal random ``c``."""
    cone = _ConeGeometry(disc, point)
    us = cone.z_mat @ rng.standard_normal((cone.z_mat.shape[1], n))
    return [_unit(disc, y, u) for y, u in zip((cone.t_mat @ us).T, us.T)]


def _random_point(disc, rng):
    mesh = disc.mesh
    nb = mesh.n_boundary
    return KktPoint(
        state=FeFunction(mesh, rng.standard_normal(mesh.n_vertices)),
        control=BoundaryFunction(mesh, rng.standard_normal(nb)),
        adjoint=FeFunction(mesh, rng.standard_normal(mesh.n_vertices)),
        multipliers=rng.standard_normal((disc.problem.m, nb)),
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
    mb = vertex_boundary_mass(disc).toarray()

    f_state = (k @ y + disc.domain_load(disc.eval_dom(p.reaction, y=y))
               - mb @ disc.embed(u + lam))
    r_state = float(np.linalg.norm(f_state))

    hy = disc.eval_dom(p.reaction_y, y=y)
    op = k + disc.domain_mass_weighted(hy).toarray()
    bnd = disc.eval_bnd(p.obj_boundary_y, y=y, lam=lam)
    for gy, e in zip(p.constraints_y, point.multipliers):
        bnd = bnd + (disc.eval_bnd(gy, y=y, lam=lam)
                     * disc.edge_interp(e))
    rhs = (-disc.domain_load(disc.eval_dom(p.obj_domain_y, y=y))
           - vertex_boundary_load(disc, bnd))
    r_adjoint = float(np.linalg.norm(op @ adj - rhs))

    alpha = disc.eval_node(p.alpha, lam=lam)
    beta = disc.eval_node(p.beta, lam=lam)
    e_sum = np.sum(point.multipliers, axis=0)
    r_stat = float(np.max(np.abs(-adj[disc.mesh.boundary_vertices]
                                 + alpha + beta * u + e_sum)))

    g = np.stack([disc.eval_node(gc, y=y, lam=lam) for gc in p.constraints])
    r_comp = 0.0
    r_feas = 0.0
    for i, e in enumerate(point.multipliers):
        r_comp = max(r_comp, float(np.max(np.abs(e * (g[i] + u)))),
                     float(np.max(np.maximum(-e, 0.0))))
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
    # solves, residuals and the SSC check all share one factorization of
    # K + M[h_y], and the pinned step's Newton steps and adjoint solve
    # share one of K + M[h_y] + M_B: one per operator
    disc = Discretization(make_spec(), make_disk_mesh(16, 0))
    rep = solve_kkt(disc, disc.param_reference(),
                    options=SolveOptions(tol=1e-10))
    residuals(disc, rep.point)
    check_ssc(disc, rep.point, n_samples=20,
              rng=np.random.default_rng(2))
    assert rep.iterations > 1
    assert rep.pinned == 1
    w = np.ones_like(disc.tables.qw_dom)
    assert len(factorizations) == 2
    for f, c in zip(factorizations, (0.0, 1.0)):
        assert (f.matrix != disc.jacobian_matrix(w, c)).nnz == 0


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
    assert list(np.bincount(part.labels, minlength=2)) == [
        disc.mesh.n_boundary, 0]


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
    counts = np.bincount(part.labels, minlength=2)
    assert counts[0] > 0 and counts[1] > 0


def test_partition_matches_cell_by_cell_margins():
    # entries rounded to a tenth on a small range, so that ties between
    # constraints, and cells left empty, are common
    rng = np.random.default_rng(7)
    ties = empty = 0
    for trial in range(10000):
        m = 2 + trial % 3
        g = np.round(rng.uniform(-1.0, 1.0, (m, int(rng.integers(1, 12)))),
                     1)
        labels, sigma1 = partition_margin(g)
        part = kkt.partition_of(g)
        assert np.array_equal(part.labels, labels)
        # equal as numbers; the sign of a zero margin may differ
        assert part.sigma1 == sigma1, (g, part.sigma1, sigma1)
        ties += sigma1 == 0.0
        empty += len(np.unique(labels)) < m
    assert ties > 1000 and empty > 1000


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
    assert mult.shape == (2, lq_disc16.mesh.n_boundary)
    for i, e in enumerate(mult):
        assert np.all(e >= 0.0)
        assert np.all(e[part.labels != i] == 0.0)
    # each node carries weight in exactly one cell
    total = np.sum(mult, axis=0)
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
    e_sum = np.sum(mult, axis=0)
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


def test_beta_floor_guard_rejects_nan():
    # beta is 1 at the reference and NaN (inf - inf) at lambda = 2
    spec = make_spec(beta="1 + exp(1000*(lam - 1)) - exp(1000*(lam - 1))")
    disc = Discretization(spec, make_disk_mesh(16, 0))
    nb = disc.mesh.n_boundary
    check_beta_floor(disc, np.zeros(nb))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(AdmissionError) as err:
            check_beta_floor(disc, np.full(nb, 2.0))
    assert err.value.label == "(H3)"


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
    mb = vertex_boundary_mass(disc)

    def lagrangian(yv, uv):
        j = objective_value(disc, FeFunction(disc.mesh, yv),
                            BoundaryFunction(disc.mesh, uv), point.param)
        f_vec = (disc.form.stiffness @ yv
                 + disc.domain_load(disc.eval_dom(p.reaction, y=yv))
                 - mb @ disc.embed(uv + lam))
        val = j + float(point.adjoint.values @ f_vec)
        for g, e in zip(p.constraints, point.multipliers):
            gq = disc.eval_bnd(g, y=yv, lam=lam)
            val += disc.integrate_boundary(disc.edge_interp(e)
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
    dirs = _subspace_directions(disc, point, 20, rng)
    assert len(dirs) > 0
    from ctrlstab.pde import linearized_operator
    op = linearized_operator(disc, point.state.values)
    g = constraint_values(disc, point.state.values, point.param.values)
    slack = g + point.control.values
    active = slack >= -1e-8 * (1.0 + np.max(np.abs(point.control.values)))
    mult = point.multipliers
    strong = active & (mult > 1e-8 * (1.0 + np.max(np.abs(point.control.values))))
    gy = np.stack([disc.eval_node(gyc, y=point.state.values,
                                  lam=point.param.values)
                   for gyc in disc.problem.constraints_y])
    for y_d, u_d in dirs:
        # (ii) normalization
        size = disc.l2_boundary(u_d) + norm(FeFunction(disc.mesh, y_d),
                                             "l2")
        assert abs(size - 1.0) <= 1e-9
        # (i) linearized state equation
        res = (op.matrix @ y_d
               - vertex_boundary_mass(disc) @ disc.embed(u_d))
        assert float(np.linalg.norm(res)) <= 1e-8
        # (iii) cone inequalities on active nodes
        yb = disc.trace(y_d)
        lin = gy * yb + u_d
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


@pytest.fixture(scope="module")
def cubic_pinned():
    # h = y + y^3 on the lq instance: the first constraint binds strongly
    # at every boundary node of the solution
    spec = make_spec(reaction="y^3 + y")
    mesh = make_disk_mesh(32, 0)
    disc = Discretization(spec, mesh)
    rep = solve_kkt(disc, disc.param_reference(),
                    options=SolveOptions(tol=1e-10))
    return spec, mesh, rep.point


def _no_map(*args):
    raise AssertionError("the control-to-state map was built")


def test_pinned_certificate_replaces_control_to_state_map(
        cubic_pinned, factorizations, monkeypatch):
    spec, mesh, point = cubic_pinned
    nb = mesh.n_boundary
    with monkeypatch.context() as mp:
        # the report of the T path, the certificate switched off
        mp.setattr(_ConeGeometry, "_pinned_certificate", lambda self: False)
        ref = check_ssc(Discretization(spec, mesh), point, n_samples=50,
                        rng=np.random.default_rng(3))
    assert ref.n_strong == nb and ref.positive

    monkeypatch.setattr(kkt, "linearized_operator", _no_map)
    disc = Discretization(spec, mesh)
    factorizations.clear()
    rep = check_ssc(disc, point, n_samples=50, rng=np.random.default_rng(3))
    assert rep == ref
    cone = _ConeGeometry(disc, point)
    assert cone.z_mat.shape == (nb, 0)
    assert "t_mat" not in cone.__dict__
    # the admission gates certify the pinned operator: nothing is factorized
    assert factorizations == []


def _h_y(disc, y):
    return disc.eval_dom(disc.problem.reaction_y, y=y)


def _vacuous(rep, nb):
    return (rep.min_rayleigh, rep.subspace_min_eig, rep.n_samples,
            rep.n_strong, rep.positive) == (math.inf, math.inf, 0, nb, True)


def test_pinned_certificate_reads_no_cache(cubic_pinned, factorizations,
                                           monkeypatch):
    # a fresh discretization holds no anchor; the certificate is algebra
    # on the admission gates, so it assembles, factorizes and solves
    # nothing, and builds no T
    spec, mesh, point = cubic_pinned

    def cached(self, *args, **kwargs):
        raise AssertionError("the certificate read a cache")

    disc = Discretization(spec, mesh)
    for name in ("jacobian_matrix", "jacobian_factor", "jacobian_solve",
                 "control_to_state"):
        monkeypatch.setattr(Discretization, name, cached)
    factorizations.clear()
    rep = check_ssc(disc, point, n_samples=50, rng=np.random.default_rng(3))
    assert _vacuous(rep, mesh.n_boundary)
    assert factorizations == []
    assert disc._anchor == {} and disc._t_map is None


def test_pinned_check_after_the_solve_factorizes_nothing(cubic_pinned,
                                                         factorizations):
    # after a solve that the pinned step finished, the check at its point
    # takes no factorization either
    spec, mesh, _ = cubic_pinned
    disc = Discretization(spec, mesh)
    rep = solve_kkt(disc, disc.param_reference(),
                    options=SolveOptions(tol=1e-10))
    assert rep.pinned == 1
    factorizations.clear()
    ssc = check_ssc(disc, rep.point, n_samples=50,
                    rng=np.random.default_rng(3))
    assert factorizations == []
    assert _vacuous(ssc, mesh.n_boundary)


def test_dominated_anchor_certifies_without_factorizing(cubic_pinned,
                                                        monkeypatch):
    # an anchor of c = 1 at y = 0 (h_y = 1) is left as it is: no
    # factorization, and no T, is needed
    spec, mesh, point = cubic_pinned
    disc = Discretization(spec, mesh)
    disc.jacobian_factor(_h_y(disc, np.zeros(mesh.n_vertices)), 1.0)

    def failing(self, w_qp, c=0.0):
        raise NotSpdError("no factorization expected")

    monkeypatch.setattr(Discretization, "jacobian_factor", failing)
    cone = _ConeGeometry(disc, point)
    assert cone.z_mat.shape == (mesh.n_boundary, 0)
    assert "t_mat" not in cone.__dict__
    rep = check_ssc(disc, point, n_samples=50, rng=np.random.default_rng(3))
    assert _vacuous(rep, mesh.n_boundary)


def test_anchor_above_the_point_is_replaced_once(cubic_pinned,
                                                 factorizations):
    # an anchor at 2 y* has weights above the point's at every nonzero
    # state; the certificate reads no anchor, so it stays, and neither the
    # point nor the pinned point at 2 y* takes a factorization
    spec, mesh, point = cubic_pinned
    nb = mesh.n_boundary
    disc = Discretization(spec, mesh)
    y = point.state.values
    anchor = disc.jacobian_factor(_h_y(disc, 2.0 * y), 1.0)
    factorizations.clear()
    rep = check_ssc(disc, point, n_samples=50, rng=np.random.default_rng(3))
    assert _vacuous(rep, nb)

    far = _pinned_point(disc, 2.0 * y)
    assert _ConeGeometry(disc, far).strong.all(axis=1)[0]
    rep = check_ssc(disc, far, n_samples=50, rng=np.random.default_rng(3))
    assert _vacuous(rep, nb)
    assert factorizations == []
    assert disc.jacobian_factor(_h_y(disc, 2.0 * y), 1.0) is anchor


def test_pinned_cubic_job_factorizes_once_per_slope(cubic_pinned,
                                                    factorizations,
                                                    monkeypatch):
    # a sweep job: the cold solve, its SSC check and two warm re-solves.
    # The only factorizations are the anchors of c = 0 and of c = 1
    spec, mesh, _ = cubic_pinned
    slope_of = {}
    original = Discretization.jacobian_factor

    def recording(self, w_qp, c=0.0):
        made = original(self, w_qp, c)
        slope_of.setdefault(id(made), c)
        return made

    monkeypatch.setattr(Discretization, "jacobian_factor", recording)
    disc = Discretization(spec, mesh)
    lam = disc.param_reference().values
    opts = SolveOptions(tol=1e-10)
    factorizations.clear()
    rep = solve_kkt(disc, lam, options=opts)
    assert check_ssc(disc, rep.point, n_samples=50).positive
    for t in (1e-3, 1e-2):
        rep = solve_kkt(disc, lam + t, u0=rep.point.control, options=opts)
        assert rep.pinned == 1
    assert sorted(slope_of[id(f)] for f in factorizations) == [0.0, 1.0]


def _recording(seen: list, method):
    def wrapper(self, e, *args, **kwargs):
        seen.append(e)
        return method(self, e, *args, **kwargs)
    return wrapper


def test_pinned_check_evaluates_no_constraint_derivative(cubic_pinned,
                                                         monkeypatch):
    # the certificate makes the cone {0}, and nothing reads dg_i/dy
    spec, mesh, point = cubic_pinned
    seen = []
    for name in ("eval_dom", "eval_bnd", "eval_node"):
        monkeypatch.setattr(Discretization, name,
                            _recording(seen, getattr(Discretization, name)))
    rep = check_ssc(Discretization(spec, mesh), point, n_samples=20,
                    rng=np.random.default_rng(4))
    assert rep.n_strong == mesh.n_boundary and rep.positive
    assert spec.reaction_y in seen  # the certificate's h_y weights
    assert not any(e is gy for e in seen for gy in spec.constraints_y)


def _unvalidated_disc(monkeypatch, **overrides):
    # dg/dy < 0 or dh/dy < 0 fails the (H4) gates; these points are built
    # to reach the fallbacks of the certificate past them
    with monkeypatch.context() as mp:
        mp.setattr(ProblemSpec, "validate", lambda self: None)
        return Discretization(make_spec(**overrides), make_disk_mesh(16, 0))


def _pinned_point(disc, y, i=0):
    # constraint i binds at every node with a unit multiplier, the others
    # carry none: pinned everywhere, though not a KKT point
    mesh = disc.mesh
    nb = mesh.n_boundary
    lam = np.zeros(nb)
    g = constraint_values(disc, y, lam)
    mults = np.zeros((disc.problem.m, nb))
    mults[i] = 1.0
    return KktPoint(state=FeFunction(mesh, y),
                    control=BoundaryFunction(mesh, -g[i]),
                    adjoint=FeFunction(mesh, np.zeros(mesh.n_vertices)),
                    multipliers=mults, param=BoundaryFunction(mesh, lam))


def _sloped_state(disc):
    return 0.3 + 0.1 * disc.mesh.vertices[:, 0]


@pytest.mark.parametrize("case", ["negative_slope", "varying_slope",
                                  "free_node"])
def test_pinned_certificate_fallbacks_build_the_map(case, lq_disc32,
                                                    lq_solved32, monkeypatch):
    if case == "negative_slope":
        disc = _unvalidated_disc(
            monkeypatch, constraints=("-0.5*y - 0.05", "-0.5*y - 1.05"))
        point = _pinned_point(disc, _sloped_state(disc))
    elif case == "varying_slope":
        # the binding constraint is the second; the first has dg/dy = 1
        disc = Discretization(
            make_spec(constraints=("y - 1.05", "(1 + 0.5*sin(s))*y - 0.05")),
            make_disk_mesh(16, 0))
        point = _pinned_point(disc, _sloped_state(disc), i=1)
    else:
        disc, point = lq_disc32, lq_solved32.point
    if case == "free_node":
        # a zero multiplier leaves node 0 weakly active
        point = replace(point, multipliers=np.where(
            np.arange(disc.mesh.n_boundary) == 0, 0.0, point.multipliers))

    cone = _ConeGeometry(disc, point)
    assert cone.strong.any(axis=0).all() == (case != "free_node")
    z = cone.z_mat
    assert "t_mat" in cone.__dict__
    ref = strong_equality_nullspace(disc, point)
    assert z.shape == ref.shape
    assert z.shape[1] == (case == "free_node")
    assert np.allclose(z @ z.T, ref @ ref.T, rtol=0.0, atol=1e-10)


def test_pinned_point_with_indefinite_linearization_still_raises(
        monkeypatch):
    # a_0 + h_y = 2 - 1.5 y^2 < 0 at y = 1.25: K + M[h_y] is indefinite,
    # though the pinned operator K + M[h_y] + M_B is SPD; the certificate
    # does not apply where h_y < 0, and the T path raises as it always has
    disc = _unvalidated_disc(monkeypatch, reaction="y - 0.5*y^3")
    point = _pinned_point(disc, np.full(disc.mesh.n_vertices, 1.25))
    w = disc.eval_dom(disc.problem.reaction_y, y=point.state.values)
    disc.jacobian_factor(w, 1.0)
    assert _ConeGeometry(disc, point).strong.any(axis=0).all()
    with pytest.raises(NotSpdError):
        check_ssc(disc, point, n_samples=10)


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


def _concave_point():
    # flip the domain objective sign: the curvature form goes negative
    spec = make_spec(obj_domain="-2*y^2", alpha="0",
                     constraints=("-1", "-2"))
    disc = Discretization(spec, make_disk_mesh(16, 0))
    return disc, _zero_point(disc)


def test_check_ssc_flags_concave_objective():
    # both estimators must see the negative curvature
    disc, point = _concave_point()
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


def _near_degenerate_double_well():
    # the ssc_sample double well on 16 nodes: no constraint is active, and
    # the two smallest curvature eigenvalues nearly coincide
    spec = make_spec(obj_domain="-2*(y + 0.5)^2 + 0.5*(y + 0.5)^4",
                     alpha="2*lam", param_ref="0.6",
                     constraints=("y - 50", "y - 52"))
    disc = Discretization(spec, make_disk_mesh(16, 0))
    rep = solve_kkt(disc, disc.param_reference(),
                    options=SolveOptions(tol=1e-10))
    return disc, rep.point


def _weakly_active_point(mixed_active_solved):
    # zeroing the multipliers on the second half of the boundary leaves
    # active nodes there whose multiplier vanishes: weakly active
    disc, solved = mixed_active_solved
    point = solved.point
    nb = disc.mesh.n_boundary
    mults = np.where(np.arange(nb) >= nb // 2, 0.0, point.multipliers)
    weak = KktPoint(point.state, point.control, point.adjoint, mults,
                    point.param)
    return disc, weak


@pytest.mark.parametrize("case", ["near_degenerate", "mixed_active",
                                  "concave"])
def test_exact_minimum_matches_dense_oracle(case, mixed_active_solved):
    if case == "near_degenerate":
        disc, point = _near_degenerate_double_well()
    elif case == "mixed_active":
        disc, point = mixed_active_solved[0], mixed_active_solved[1].point
    else:
        disc, point = _concave_point()
    rep = check_ssc(disc, point, n_samples=100, rng=np.random.default_rng(3))
    value, eigenvalues = subspace_minimum_grid(disc, point)
    assert rep.n_samples == 1
    assert rep.positive == (case != "concave")
    assert abs(rep.min_rayleigh - value) <= 1e-9 * (1.0 + abs(value))
    lam = eigenvalues[0]
    if lam > 0.0:
        # the lower end of the bracket: never above the grid's maximum
        assert rep.min_rayleigh <= value + 1e-12 * value
    if case == "near_degenerate":
        assert eigenvalues[1] - lam < 1e-3 * lam
    # no direction of the cone, here the strong-equality subspace, goes
    # below the minimum
    z = strong_equality_nullspace(disc, point)
    t_map = dense_control_to_state(disc, point.state.values)
    for c in np.random.default_rng(5).standard_normal((200, z.shape[1])):
        y, u = _unit(disc, t_map @ (z @ c), z @ c)
        assert quadrature_curvature(disc, point, y, u) >= value
    # a^2 + b^2 <= (a + b)^2 <= 2 (a^2 + b^2) puts the minimum between the
    # subspace eigenvalue lam and lam/2: the benchmark's gate
    assert min(lam, 0.5 * lam) <= rep.min_rayleigh <= max(lam, 0.5 * lam)


def _counting(calls: list, function):
    def counted(*args, **kwargs):
        calls.append(1)
        return function(*args, **kwargs)
    return counted


def _count_eigen_solves(monkeypatch, eighs: list) -> None:
    # the pencil's diagonalization is scipy's eigh, and each of its
    # smallest-eigenpair solves a direct LAPACK call
    monkeypatch.setattr(scipy.linalg, "eigh",
                        _counting(eighs, scipy.linalg.eigh))
    monkeypatch.setattr(kkt, "_smallest_eigenpair",
                        _counting(eighs, kkt._smallest_eigenpair))


def test_weak_pair_minimum_is_the_dense_oracle(mixed_active_solved):
    # one weak pair cuts the strong-equality subspace to a half of it, on
    # which the even quotient has the same minimum: the subspace's
    disc, point = _weakly_active_point(mixed_active_solved)
    cone = _ConeGeometry(disc, point)
    g = constraint_values(disc, point.state.values, point.param.values)
    active = g + point.control.values >= -kkt._activity_tolerance(
        point.control.values)
    assert int(np.sum(active & ~cone.strong)) == 1
    rep = check_ssc(disc, point)
    value, _ = subspace_minimum_grid(disc, point)
    assert abs(rep.min_rayleigh - value) <= 1e-9 * (1.0 + abs(value))
    assert (rep.n_samples, rep.positive) == (1, True)


def _free_lq_point():
    # family seed 0 member 4: L = 0.5 (y - y_d)^2, beta = 1 and h = 0.3 y,
    # no constraint active, so H = M_bb + T^T M T is the subspace metric
    # and every generalized eigenvalue is 1
    spec = make_spec(
        a11="1 + 0.413*x1^2", a22="1 + 0.399*x2^2", a12="0.095*x1*x2",
        a0="1 + 0.109*x1", c0=0.5, obj_domain="0.5*(y - 0.851)^2",
        reaction="0.3*y", param_ref="-0.097*cos(s)",
        constraints=("y - (2.11) + 0.138*sin(s)",
                     "y - (3.223) + 0.154*cos(2*s)"))
    disc = Discretization(spec, make_disk_mesh(18, 0))
    return disc, solve_kkt(disc, disc.param_reference()).point


def test_free_lq_point_reads_one_half(monkeypatch):
    # the minimum of 1/(a + b)^2 over a^2 + b^2 = 1 is 1/2, mu(1/2); the
    # search does not close on this flat pencil and returns its last mu
    disc, point = _free_lq_point()
    eighs = []
    _count_eigen_solves(monkeypatch, eighs)
    rep = check_ssc(disc, point)
    assert abs(rep.min_rayleigh - 0.5) <= 1e-12
    assert abs(rep.subspace_min_eig - 1.0) <= 1e-12
    assert rep.n_strong == 0 and rep.n_samples == 1
    assert len(eighs) == 1 + _BRACKET_MAX_SOLVES


@pytest.mark.parametrize("case", ["pinned", "subspace", "weakly_active",
                                  "double_well"])
def test_check_ssc_draws_nothing(case, cubic_pinned, mixed_active_solved):
    if case == "pinned":
        spec, mesh, point = cubic_pinned
        disc = Discretization(spec, mesh)
    elif case == "subspace":
        disc, point = mixed_active_solved[0], mixed_active_solved[1].point
    elif case == "weakly_active":
        disc, point = _weakly_active_point(mixed_active_solved)
    else:
        disc, point = _double_well_point()
    rng = np.random.default_rng(11)
    rep = check_ssc(disc, point, n_samples=300, rng=rng)
    assert rep.n_samples == (case != "pinned")
    assert rng.standard_normal() == np.random.default_rng(11).standard_normal()
    assert check_ssc(disc, point) == rep


def test_unclosed_search_returns_its_last_solve(monkeypatch):
    # the near-degenerate double well takes more than three eigen-solves;
    # allowed three, the search returns its last mu, a lower bound
    disc, point = _near_degenerate_double_well()
    eighs = []
    _count_eigen_solves(monkeypatch, eighs)
    full = check_ssc(disc, point)
    assert 1 + 3 < len(eighs) <= 1 + _BRACKET_MAX_SOLVES
    monkeypatch.setattr(kkt, "_BRACKET_MAX_SOLVES", 3)
    eighs.clear()
    rep = check_ssc(disc, point)
    assert len(eighs) == 1 + 3  # the diagonalization and three solves
    assert rep.n_samples == 1
    assert 0.0 < rep.min_rayleigh <= full.min_rayleigh
    assert rep.subspace_min_eig == full.subspace_min_eig


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


def test_curvature_operator_assembled_only_when_needed(
        mixed_active_solved, lq_disc32, lq_solved32, monkeypatch):
    calls = []
    original = kkt._curvature_operator

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(kkt, "_curvature_operator", counting)
    disc, point = mixed_active_solved[0], mixed_active_solved[1].point
    dirs = _subspace_directions(disc, point, 50, np.random.default_rng(2))
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


@pytest.mark.parametrize("mults,needle", [
    (np.zeros(16), "shape"),
    (np.zeros((2, 15)), "shape"),
    (np.zeros((2, 16, 1)), "shape"),
    (np.where(np.arange(16) == 3, np.nan, np.zeros((2, 16))), "non-finite"),
    (np.where(np.arange(16) == 3, -np.inf, np.zeros((2, 16))), "non-finite"),
], ids=["flat", "short-rows", "three-dim", "nan", "inf"])
def test_kkt_point_checks_its_multiplier_array(lq_disc16, mults, needle):
    # the multipliers are one (m, Nb) float array, checked on construction
    point = _zero_point(lq_disc16)
    assert point.multipliers.shape == (2, 16)
    with pytest.raises(ValueError, match=needle):
        replace(point, multipliers=mults)


@pytest.mark.parametrize("keep", [slice(0, 1), slice(1, 2), slice(0, 3)],
                         ids=["first-only", "second-only", "extra"])
def test_point_needs_one_multiplier_per_constraint(keep):
    # pairing multipliers with constraints by position would check a
    # truncated problem (constraint 2 never looked at) or pair e_2 with g_1
    cfg = parse_instance(CONFIG_DIR / "lq_reference.ini")
    disc = build_discretization(cfg)
    point = solve_kkt(disc, disc.param_reference(),
                      options=cfg.solve_options).point
    mults = np.vstack([point.multipliers, point.multipliers[:1]])
    bad = KktPoint(state=point.state, control=point.control,
                   adjoint=point.adjoint, multipliers=mults[keep],
                   param=point.param)
    assert bad.m != disc.problem.m
    nb = disc.mesh.n_boundary
    for check in (lambda: residuals(disc, bad),
                  lambda: check_ssc(disc, bad, n_samples=2),
                  lambda: _ConeGeometry(disc, bad),
                  lambda: quadratic_form(disc, bad,
                                         np.zeros(disc.mesh.n_vertices),
                                         np.zeros(nb))):
        with pytest.raises(ValueError, match="multipliers"):
            check()


# ---------------------------------------------------------------------------
# direct LAPACK kernels and the curvature operator on the triangle pattern
# ---------------------------------------------------------------------------

#: matrix orders of the kernel checks: the smallest, and either side of a
#: LAPACK block size
_KERNEL_ORDERS = (1, 2, 63, 64, 65)


def _nearly_symmetric(rng, n, shift=0.0):
    # symmetric up to rounding, as the pencil's scaled matrices are: the
    # strict upper triangle is off by about 1e-15, so that reading the
    # other triangle changes the bits
    a = rng.standard_normal((n, n))
    a = a + a.T + shift * np.eye(n)
    return a * (1.0 + 1e-15 * np.triu(rng.standard_normal((n, n)), 1))


@pytest.mark.parametrize("n", _KERNEL_ORDERS)
def test_smallest_eigenpair_is_scipys_eigh_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for _ in range(4):
        a = _nearly_symmetric(rng, n)
        w, v = scipy.linalg.eigh(a, subset_by_index=[0, 0])
        mu, x = kkt._smallest_eigenpair(a.copy())
        assert np.float64(mu).tobytes() == w[0].tobytes()
        assert x.tobytes() == v[:, 0].tobytes()
    a[0, -1] = np.nan
    for solve in (kkt._smallest_eigenpair,
                  lambda m: scipy.linalg.eigh(m, subset_by_index=[0, 0])):
        with pytest.raises(ValueError):
            solve(a.copy())


@pytest.mark.parametrize("n", _KERNEL_ORDERS)
@pytest.mark.parametrize("lower", [False, True])
def test_cholesky_kernels_are_scipys_bit_for_bit(n, lower):
    rng = np.random.default_rng(100 + n)
    a = _nearly_symmetric(rng, n, shift=4.0 * n)
    b = rng.standard_normal(n)
    factor = kkt._cho_factor(a, lower=lower)
    want = scipy.linalg.cho_factor(a, lower=lower)
    assert factor[1] == want[1]
    assert factor[0].tobytes(order="A") == want[0].tobytes(order="A")
    assert kkt._cho_solve(factor, b).tobytes() == \
        scipy.linalg.cho_solve(want, b).tobytes()
    # the failures are scipy's: not positive definite, a non-finite entry
    # in the matrix or in the right-hand side
    bad_a, bad_b = a.copy(), b.copy()
    bad_a[-1, 0] = bad_b[-1] = np.nan
    for error, matrix in ((np.linalg.LinAlgError, -a), (ValueError, bad_a)):
        for factorize in (kkt._cho_factor, scipy.linalg.cho_factor):
            with pytest.raises(error):
                factorize(matrix, lower=lower)
    for solve, c in ((kkt._cho_solve, factor), (scipy.linalg.cho_solve, want)):
        with pytest.raises(ValueError):
            solve(c, bad_b)


def _every_term_point(nonzero: bool):
    # a point, solved or not, on an instance whose curvature weights have
    # every term, h_yy, L_yy, l_yy and each g_iyy, nonzero, or else the
    # linear-quadratic one where h_yy, l_yy and g_iyy fold to zero
    spec = make_spec(obj_domain="0.5*(y - 1)^2 + 0.25*y^4",
                     obj_boundary="0.5*y^2 + lam*y^3", reaction="y + y^3",
                     constraints=("y^3 + y - 2", "y^3 + 2*y - 3")) \
        if nonzero else make_spec()
    disc = Discretization(spec, make_disk_mesh(16, 1))
    rng = np.random.default_rng(21)
    nv, nb = disc.mesh.n_vertices, disc.mesh.n_boundary
    point = KktPoint(state=FeFunction(disc.mesh, rng.standard_normal(nv)),
                     control=BoundaryFunction(disc.mesh, np.zeros(nb)),
                     adjoint=FeFunction(disc.mesh, rng.standard_normal(nv)),
                     multipliers=rng.uniform(0.5, 2.0, (2, nb)),
                     param=BoundaryFunction(disc.mesh,
                                            rng.standard_normal(nb)))
    p = spec
    terms = (p.obj_domain_yy, p.reaction_yy, p.obj_boundary_yy,
             *p.constraints_yy)
    assert [kkt._is_zero(e) for e in terms] == \
        ([False] * 5 if nonzero else [False, True, True, True, True])
    return disc, point


@pytest.mark.parametrize("nonzero", [True, False])
def test_curvature_operator_is_the_full_sum_bit_for_bit(nonzero):
    disc, point = _every_term_point(nonzero)
    a_y, b_u = kkt._curvature_operator(disc, point)
    want_a, want_b = oracles.curvature_operator_sum(disc, point)
    assert a_y.toarray().tobytes() == want_a.toarray().tobytes()
    for field in ("data", "indices", "indptr"):
        assert getattr(b_u, field).tobytes() == \
            getattr(want_b, field).tobytes()
    rng = np.random.default_rng(22)
    y = rng.standard_normal((disc.mesh.n_vertices, 3))
    u = rng.standard_normal(disc.mesh.n_boundary)
    assert (a_y @ y).tobytes() == (want_a @ y).tobytes()
    assert quadratic_form(disc, point, y[:, 0], u) == float(
        np.sum(y[:, 0] * (want_a @ y[:, 0])) + np.sum(u * (want_b @ u)))


def test_curvature_operator_builds_one_matrix_for_a_y(monkeypatch):
    # h = y, l = 0 and linear constraints: A_y is the domain sum alone, one
    # CSR matrix on the triangle pattern, and no boundary sum or addition
    disc, point = _every_term_point(False)
    built = []
    original = fem_mod._Pattern.matrix

    def recorded(pattern, data):
        built.append(pattern)
        return original(pattern, data)

    monkeypatch.setattr(fem_mod._Pattern, "matrix", recorded)
    a_y, _ = kkt._curvature_operator(disc, point)
    t = disc.tables
    assert [p for p in built if p is not t.bb_pattern] == [t.tri_pattern]
    assert a_y.indptr.tobytes() == t.tri_pattern.indptr.tobytes()


def test_control_curvature_is_assembled_once_per_parameter(monkeypatch):
    # B_u = M_B[beta(lam)] reads lam alone: the reduced Newton steps of a
    # fold_sweep-style solve share one assembly, a parameter of other bits
    # assembles it again, and a caller's later change to its lam array
    # leaves the kept one alone
    cfg = parse_instance(CONFIG_DIR / "stability_reference.ini")
    disc = build_discretization(cfg)
    beta = []
    original = Discretization.eval_bnd

    def recorded(self, e, y=None, lam=None):
        if e is self.problem.beta:
            beta.append(lam)
        return original(self, e, y, lam)

    monkeypatch.setattr(Discretization, "eval_bnd", recorded)
    lam = disc.param_reference().values
    rep = solve_kkt(disc, lam, options=cfg.solve_options)
    assert rep.newton > 1 and len(beta) == 1

    other = lam + 0.5
    b_u = disc.beta_mass(other)
    assert len(beta) == 2 and disc.beta_mass(other.copy()) is b_u
    want = disc.boundary_mass_weighted(
        original(disc, disc.problem.beta, lam=other))
    for field in ("data", "indices", "indptr"):
        assert getattr(b_u, field).tobytes() == getattr(want, field).tobytes()
    other += 1.0
    assert disc.beta_mass(other) is not b_u and len(beta) == 3
