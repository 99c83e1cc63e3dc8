"""Semilinear state solves against radial ordinary-differential oracles,
Newton convergence behavior, the a-priori bound, and adjoint symmetry.

The radial oracles live in ``oracles.py``: a Bessel closed form for the
linear reaction and a finite-volume Newton solver for the nonlinear one,
both written independently of the package's assembly."""

import numpy as np
import pytest

import ctrlstab.fem as fem_mod
import ctrlstab.pde as pde_mod
from ctrlstab import (BoundaryFunction, Discretization, FeFunction, KktPoint,
                      SolveOptions, StateSolveError, build_discretization,
                      linearized_operator, make_disk_mesh, parse_instance,
                      solve_adjoint, solve_kkt, solve_state)
from ctrlstab.fem import SpdFactorization, solve_spd
from ctrlstab.kkt import _ReducedForms
from ctrlstab.pde import adjoint_system, state_residual_norm

from conftest import CONFIG_DIR, make_spec
from oracles import (a_priori_ratio, radial_solve, radial_trace_linear,
                     vertex_boundary_mass)


@pytest.fixture(scope="module")
def disc_linear():
    return Discretization(make_spec(), make_disk_mesh(128, 0))


@pytest.fixture(scope="module")
def disc_cubic():
    return Discretization(make_spec(reaction="y^3 + y"), make_disk_mesh(48, 0))


def test_zero_data_gives_zero_state(lq_disc16):
    nb = lq_disc16.mesh.n_boundary
    rep = solve_state(lq_disc16, np.zeros(nb), np.zeros(nb))
    assert np.all(rep.state.values == 0.0)
    assert rep.iterations == 0
    assert a_priori_ratio(lq_disc16, rep.state, np.zeros(nb),
                          np.zeros(nb)) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["u", "lam", "y0"])
def test_non_finite_data_rejected(lq_disc16, bad, where):
    # a NaN norm would skip Newton and return a silent all-zero state
    nb = lq_disc16.mesh.n_boundary
    data = {"u": np.zeros(nb), "lam": np.zeros(nb),
            "y0": np.zeros(lq_disc16.mesh.n_vertices)}
    data[where][3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        solve_state(lq_disc16, data["u"], data["lam"], y0=data["y0"])


def test_state_tolerance_is_capped(disc_cubic):
    # the bound is tol (1 + ||b||), b = M_B (u + lam), unless cap is lower
    nb = disc_cubic.mesh.n_boundary
    u = np.full(nb, 3.0)
    b = vertex_boundary_mass(disc_cubic) @ disc_cubic.embed(u)
    rel = 1e-11 * (1.0 + float(np.linalg.norm(b)))
    assert solve_state(disc_cubic, u, np.zeros(nb)).tolerance == rel
    assert solve_state(disc_cubic, u, np.zeros(nb),
                       cap=2.0 * rel).tolerance == rel
    rep = solve_state(disc_cubic, u, np.zeros(nb), cap=1e-13)
    assert rep.tolerance == 1e-13 and rep.residual <= 1e-13


def test_radial_linear_against_bessel(disc_linear):
    # constant flux b=1 with -div grad y + 2 y = 0: the boundary value has
    # the closed form b I0(sqrt(2)) / (sqrt(2) I1(sqrt(2)))
    nb = disc_linear.mesh.n_boundary
    rep = solve_state(disc_linear, np.ones(nb), np.zeros(nb))
    trace = disc_linear.trace(rep.state.values)
    exact = radial_trace_linear(1.0)
    assert float(np.max(np.abs(trace - exact))) <= 1e-3
    assert rep.iterations == 1  # the problem is linear


def test_radial_nonlinear_against_finite_volume_oracle():
    disc = Discretization(make_spec(reaction="y^3 + y"), make_disk_mesh(128, 0))
    nb = disc.mesh.n_boundary
    rep = solve_state(disc, np.ones(nb), np.zeros(nb))
    _, y_oracle = radial_solve(1.0, a0=1.0, h=lambda y: y ** 3 + y,
                               h_prime=lambda y: 3 * y ** 2 + 1.0)
    trace = disc.trace(rep.state.values)
    assert float(np.max(np.abs(trace - y_oracle[-1]))) <= 1e-3


def test_monotone_data_keeps_state_nonnegative(disc_cubic):
    # u + lam in [0, 1] pointwise with monotone reaction: y stays >= 0
    s = disc_cubic.mesh.boundary_s
    u = 0.5 + 0.5 * np.sin(s)
    rep = solve_state(disc_cubic, u, np.zeros_like(u))
    assert float(np.min(rep.state.values)) >= 0.0
    assert float(np.max(rep.state.values)) <= 1.0  # and below the data cap


def test_newton_locally_quadratic(disc_cubic):
    nb = disc_cubic.mesh.n_boundary
    u = np.ones(nb)
    lam = np.zeros(nb)
    rep = solve_state(disc_cubic, u, lam)
    y_star = rep.state.values

    def one_step(y0):
        f0 = state_residual_norm(disc_cubic, y0, u, lam)
        op = linearized_operator(disc_cubic, y0)
        hq = disc_cubic.eval_dom(disc_cubic.problem.reaction, y=y0)
        vec = (disc_cubic.form.stiffness @ y0 + disc_cubic.domain_load(hq)
               - vertex_boundary_mass(disc_cubic) @ disc_cubic.embed(u + lam))
        y1 = y0 + op.solve(-vec)
        return f0, state_residual_norm(disc_cubic, y1, u, lam)

    rng = np.random.default_rng(2)
    d = rng.standard_normal(len(y_star))
    d /= np.linalg.norm(d)
    constants = []
    for eps in (1e-1, 1e-2):
        r0, r1 = one_step(y_star + eps * d)
        constants.append(r1 / r0 ** 2)
    # quadratic contraction: r1 ~ C r0^2 with a stable constant
    assert constants[0] < 1e3
    assert 0.02 <= constants[1] / constants[0] <= 50.0


def test_warm_start_converges_immediately(disc_cubic):
    nb = disc_cubic.mesh.n_boundary
    u = np.ones(nb)
    rep = solve_state(disc_cubic, u, np.zeros(nb))
    again = solve_state(disc_cubic, u, np.zeros(nb), y0=rep.state.values)
    assert again.iterations <= 1


def test_a_priori_ratio_stable(disc_cubic):
    # ||y||_W1r / (||u|| + ||lam||) varies by less than a factor 50 over
    # random data with ||u|| + ||lam|| <= 10
    rng = np.random.default_rng(11)
    nb = disc_cubic.mesh.n_boundary
    ratios = []
    for _ in range(20):
        u = rng.standard_normal(nb)
        lam = rng.standard_normal(nb)
        total = disc_cubic.l2_boundary(u) + disc_cubic.l2_boundary(lam)
        scale = rng.uniform(0.05, 1.0) * 10.0 / total
        rep = solve_state(disc_cubic, scale * u, scale * lam)
        ratio = a_priori_ratio(disc_cubic, rep.state, scale * u, scale * lam)
        assert ratio > 0.0
        ratios.append(ratio)
    assert max(ratios) / min(ratios) <= 50.0


def test_a_priori_ratio_of_nonzero_state_from_zero_data(lq_disc16):
    nb = lq_disc16.mesh.n_boundary
    y = np.ones(lq_disc16.mesh.n_vertices)
    assert a_priori_ratio(lq_disc16, y, np.zeros(nb), np.zeros(nb)) == np.inf


def test_reported_residual_is_state_residual_norm(disc_cubic):
    # the solver's stopping value is the verify rule's state residual
    rng = np.random.default_rng(5)
    nb = disc_cubic.mesh.n_boundary
    for _ in range(5):
        u, lam = rng.standard_normal(nb), rng.standard_normal(nb)
        rep = solve_state(disc_cubic, u, lam)
        assert rep.residual == state_residual_norm(disc_cubic, rep.state,
                                                   u, lam)


def test_newton_iteration_limit_raises(disc_cubic, monkeypatch):
    nb = disc_cubic.mesh.n_boundary
    monkeypatch.setattr(pde_mod, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(StateSolveError) as err:
        solve_state(disc_cubic, 5.0 * np.ones(nb), np.zeros(nb))
    assert err.value.iterations == 1
    assert err.value.residual > 0.0


def test_newton_line_search_failure_raises(lq_disc16):
    # a load that grows like 1e6 y, which the Jacobian K + M[h_y] does not
    # see: the Newton direction raises the residual at every step length
    nv = lq_disc16.mesh.n_vertices
    with pytest.raises(StateSolveError, match="line search failed") as err:
        pde_mod._newton(lq_disc16, np.zeros(nv), lambda y: 1.0 + 1e6 * y,
                        1e-12, np.inf)
    # no step was taken: the residual is that of y = 0, where h(0) = 0
    # leaves the load -1 at every vertex
    assert err.value.iterations == 0
    assert err.value.residual == pytest.approx(np.sqrt(nv))


def test_adjoint_operator_self_adjoint(disc_cubic):
    nb = disc_cubic.mesh.n_boundary
    rep = solve_state(disc_cubic, np.ones(nb), np.zeros(nb))
    op = linearized_operator(disc_cubic, rep.state.values)
    rng = np.random.default_rng(3)
    b1 = rng.standard_normal(disc_cubic.mesh.n_vertices)
    b2 = rng.standard_normal(disc_cubic.mesh.n_vertices)
    x1 = op.solve(b1)
    x2 = op.solve(b2)
    lhs = float(b1 @ x2)
    rhs = float(b2 @ x1)
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))


def test_linearized_operator_follows_the_state(disc_cubic, factorizations):
    # y1, y2, y1: each lookup must factorize the Jacobian at the state asked
    # for, never return the one cached at the previous state
    nb = disc_cubic.mesh.n_boundary
    y1 = solve_state(disc_cubic, np.ones(nb), np.zeros(nb)).state.values
    y2 = solve_state(disc_cubic, 2.0 * np.ones(nb), np.zeros(nb)).state.values
    rng = np.random.default_rng(6)
    factorizations.clear()
    for y in (y1, y2, y1):
        op = linearized_operator(disc_cubic, y)
        assert linearized_operator(disc_cubic, y) is op
        hy = disc_cubic.eval_dom(disc_cubic.problem.reaction_y, y=y)
        fresh = disc_cubic.form.stiffness + disc_cubic.domain_mass_weighted(hy)
        b = rng.standard_normal(disc_cubic.mesh.n_vertices)
        x = op.solve(b)
        assert float(np.linalg.norm(b - fresh @ x)) \
            <= 1e-10 * (1.0 + float(np.linalg.norm(b)))
    assert len(factorizations) == 3


def _fresh_jacobian(disc, w):
    return disc.form.stiffness + disc.domain_mass_weighted(w)


def _meets_contract(matrix, x, b, rtol=None):
    res = float(np.linalg.norm(b - matrix @ x))
    b_norm = float(np.linalg.norm(b))
    ok = res <= 1e-10 * (1.0 + b_norm)
    return ok and (rtol is None or res <= rtol * b_norm)


def test_stale_anchor_solve_needs_no_factorization(disc_cubic,
                                                   factorizations):
    # the anchor is factorized at y1; the solve at y2 runs CG on the
    # matrix at y2 and must meet the tight relative target against it
    nb = disc_cubic.mesh.n_boundary
    y1 = solve_state(disc_cubic, np.ones(nb), np.zeros(nb)).state.values
    y2 = solve_state(disc_cubic, 1.5 * np.ones(nb), np.zeros(nb)).state.values
    hy = disc_cubic.problem.reaction_y
    w1 = disc_cubic.eval_dom(hy, y=y1)
    w2 = disc_cubic.eval_dom(hy, y=y2)
    disc_cubic.jacobian_factor(w1)
    factorizations.clear()
    b = np.random.default_rng(8).standard_normal(disc_cubic.mesh.n_vertices)
    x = disc_cubic.jacobian_solve(w2, b)
    assert _meets_contract(_fresh_jacobian(disc_cubic, w2), x, b, rtol=1e-13)
    assert factorizations == []


@pytest.mark.parametrize("case", ["far_anchor", "no_cg_steps"])
def test_failed_stale_solve_factorizes_once(disc_cubic, factorizations,
                                           monkeypatch, case):
    nb = disc_cubic.mesh.n_boundary
    y = solve_state(disc_cubic, 1.5 * np.ones(nb), np.zeros(nb)).state.values
    w = disc_cubic.eval_dom(disc_cubic.problem.reaction_y, y=y)
    if case == "far_anchor":
        disc_cubic.jacobian_factor(np.full_like(w, 1e4))
    else:
        disc_cubic.jacobian_factor(np.ones_like(w))
        monkeypatch.setattr(fem_mod, "_CG_MAX_ITER", 0)
    factorizations.clear()
    b = np.random.default_rng(9).standard_normal(disc_cubic.mesh.n_vertices)
    x = disc_cubic.jacobian_solve(w, b)
    assert len(factorizations) == 1
    # the factorization is taken at the current state and becomes the
    # exact factor of its entry
    assert disc_cubic.jacobian_factor(w) is factorizations[0]
    assert _meets_contract(_fresh_jacobian(disc_cubic, w), x, b)


def _pinned_solved():
    """A cubic instance on a fresh discretization after a solve that the
    pinned step finished: the point's state, its h_y weights, and the
    pinned operator ``K + M[h_y] + M_B`` there, freshly assembled."""
    disc = Discretization(make_spec(reaction="y^3 + y"), make_disk_mesh(32, 0))
    rep = solve_kkt(disc, disc.param_reference(),
                    options=SolveOptions(tol=1e-10))
    y = rep.point.state.values
    w = disc.eval_dom(disc.problem.reaction_y, y=y)
    return (disc, rep, w,
            _fresh_jacobian(disc, w) + vertex_boundary_mass(disc))


def test_state_operator_after_pinned_solve_is_not_pinned():
    # a pinned solve with K + M[h_y] + M_B at a state that no entry holds,
    # then the state operator at the same state: it stays K + M[h_y]
    disc, rep, _, _ = _pinned_solved()
    y = 1.01 * rep.point.state.values
    w = disc.eval_dom(disc.problem.reaction_y, y=y)
    b = np.random.default_rng(11).standard_normal(disc.mesh.n_vertices)
    disc.jacobian_solve(w, b, 1.0)
    x = linearized_operator(disc, y).solve(b)
    assert _meets_contract(_fresh_jacobian(disc, w), x, b)
    assert (rep.pinned, rep.iterations) == (1, 2)


def test_pinned_solve_does_not_read_the_state_entry():
    # the state operator's entry at y holds a factorization; a pinned
    # solve at bit-identical weights must solve its own matrix
    disc, rep, w, pinned = _pinned_solved()
    linearized_operator(disc, rep.point.state.values)
    b = np.random.default_rng(12).standard_normal(disc.mesh.n_vertices)
    assert _meets_contract(pinned, disc.jacobian_solve(w, b, 1.0), b)


def test_each_operator_preconditions_on_its_own_anchor(factorizations):
    # at a state close to the solved one, each operator's solve runs CG
    # on the factorization of its own c, and takes no factorization
    disc, rep, w, _ = _pinned_solved()
    y = rep.point.state.values
    linearized_operator(disc, y)
    nb = disc.mesh.n_boundary
    y2 = solve_state(disc, rep.point.control.values + 1e-3, np.zeros(nb),
                     y0=y).state.values
    w2 = disc.eval_dom(disc.problem.reaction_y, y=y2)
    b = np.random.default_rng(13).standard_normal(disc.mesh.n_vertices)
    factorizations.clear()
    for c in (0.0, 1.0, 0.0):
        x = disc.jacobian_solve(w2, b, c)
        fresh = _fresh_jacobian(disc, w2) + c * vertex_boundary_mass(disc)
        assert _meets_contract(fresh, x, b, rtol=1e-13)
    assert factorizations == []


def test_adjoint_radial_against_bessel():
    # boundary tracking term only: the adjoint sees flux -1/2 through the
    # same radial operator as the linear state oracle
    spec = make_spec(obj_domain="0", obj_boundary="0.5*y")
    disc = Discretization(spec, make_disk_mesh(128, 0))
    nb = disc.mesh.n_boundary
    zero = np.zeros((2, nb))
    adj = solve_adjoint(disc, np.zeros(disc.mesh.n_vertices),
                        np.zeros(nb), zero)
    trace = disc.trace(adj.values)
    exact = radial_trace_linear(-0.5)
    assert float(np.max(np.abs(trace - exact))) <= 1e-3


def test_adjoint_sees_multipliers(disc_cubic):
    nb = disc_cubic.mesh.n_boundary
    y = np.zeros(disc_cubic.mesh.n_vertices)
    lam = np.zeros(nb)
    zero = np.zeros((2, nb))
    ones = np.ones((2, nb))
    a0 = solve_adjoint(disc_cubic, y, lam, zero)
    a1 = solve_adjoint(disc_cubic, y, lam, ones)
    # constraints are y - c with dg/dy = 1: each unit multiplier adds the
    # same boundary load, so the difference solves a nonzero problem
    assert float(np.max(np.abs(a1.values - a0.values))) > 1e-3


def test_adjoint_solve_uses_the_linearized_operator_factor(disc_cubic):
    # after linearized_operator at y, the adjoint solve reads the cached
    # factor at y: the same bits as a solve with that factor
    nb = disc_cubic.mesh.n_boundary
    rng = np.random.default_rng(17)
    y = 0.3 * rng.standard_normal(disc_cubic.mesh.n_vertices)
    lam = rng.standard_normal(nb)
    mults = rng.random((2, nb))
    op = linearized_operator(disc_cubic, y)
    _, rhs = adjoint_system(disc_cubic, y, lam, mults)
    expected = solve_spd(op.matrix, rhs, factor=op)
    adj = solve_adjoint(disc_cubic, y, lam, mults)
    assert np.array_equal(adj.values, expected)


@pytest.mark.parametrize("bad", [lambda e: e[1:], lambda e: e[:1],
                                 lambda e: np.vstack([e, e[:1]]),
                                 lambda e: e[0]],
                         ids=["first-dropped", "second-dropped", "extra",
                              "flat"])
def test_adjoint_needs_one_multiplier_row_per_constraint(bad):
    # rows paired with constraints by position: a short array would pair
    # row 1 with constraint 0 and drop constraint 1 without complaint
    cfg = parse_instance(CONFIG_DIR / "lq_reference.ini")
    disc = build_discretization(cfg)
    lam = disc.param_reference()
    point = solve_kkt(disc, lam, options=cfg.solve_options).point
    assert disc.problem.m == 2
    y = point.state.values
    with pytest.raises(ValueError, match="multipliers need shape"):
        solve_adjoint(disc, y, lam, bad(point.multipliers))
    with pytest.raises(ValueError, match="multipliers need shape"):
        adjoint_system(disc, y, lam, bad(point.multipliers))


def _control_to_state(disc, y):
    """The map ``T`` of the reduced forms at state ``y``: the one that the
    Newton step and ``check_ssc`` read."""
    mesh = disc.mesh
    zero = BoundaryFunction(mesh, np.zeros(mesh.n_boundary))
    point = KktPoint(state=FeFunction(mesh, y), control=zero,
                     adjoint=FeFunction(mesh, np.zeros(mesh.n_vertices)),
                     multipliers=np.zeros((disc.problem.m, mesh.n_boundary)),
                     param=zero)
    return _ReducedForms(disc, point).t_mat


def test_linearized_state_matches_difference_quotient(disc_cubic):
    nb = disc_cubic.mesh.n_boundary
    u = np.ones(nb)
    lam = np.zeros(nb)
    rep = solve_state(disc_cubic, u, lam)
    t_mat = _control_to_state(disc_cubic, rep.state.values)
    rng = np.random.default_rng(4)
    # a random control and the unit control at one node (a column of T)
    for du in (rng.standard_normal(nb), np.eye(nb)[nb // 3]):
        dy = t_mat @ du
        eps = 1e-5
        yp = solve_state(disc_cubic, u + eps * du, lam,
                         tol=1e-13).state.values
        ym = solve_state(disc_cubic, u - eps * du, lam,
                         tol=1e-13).state.values
        fd = (yp - ym) / (2.0 * eps)
        scale = float(np.max(np.abs(dy)))
        assert float(np.max(np.abs(fd - dy))) <= 1e-6 * (1.0 + scale)


def test_linearized_state_is_linear(disc_cubic):
    # every column of T solves the linearized state equation with its unit
    # boundary control, so T u does for every u
    nb = disc_cubic.mesh.n_boundary
    rep = solve_state(disc_cubic, np.ones(nb), np.zeros(nb))
    op = linearized_operator(disc_cubic, rep.state.values)
    t_mat = _control_to_state(disc_cubic, rep.state.values)
    bv = disc_cubic.mesh.boundary_vertices
    rhs = vertex_boundary_mass(disc_cubic)[:, bv]
    assert np.allclose(op.matrix @ t_mat, rhs.toarray(), rtol=0.0, atol=1e-12)
    rng = np.random.default_rng(5)
    a = rng.standard_normal(nb)
    b = rng.standard_normal(nb)
    ya = t_mat @ a
    yb = t_mat @ b
    yab = t_mat @ (2.0 * a - 3.0 * b)
    assert np.allclose(yab, 2.0 * ya - 3.0 * yb, atol=1e-9)


def test_control_to_state_follows_its_factorization(monkeypatch):
    # T = F^-1 M_B[:, boundary] depends on the factorization F alone: at
    # two states it is solved once per factorization, and at one state it
    # is shared, also after a solve at other weights made a new c = 0
    # entry on the same anchor
    disc = Discretization(make_spec(reaction="y^3 + y"),
                          make_disk_mesh(32, 0))
    nb = disc.mesh.n_boundary
    solved = []  # the factorization of each solve of T
    solve = SpdFactorization.solve

    def counted(self, b):
        if np.ndim(b) == 2:
            solved.append(self)
        return solve(self, b)

    monkeypatch.setattr(SpdFactorization, "solve", counted)
    ys = [solve_state(disc, a * np.ones(nb), np.zeros(nb)).state.values
          for a in (1.0, 1.5)]
    factors, maps = [], []
    for y in ys:
        factors.append(linearized_operator(disc, y))
        maps.append(disc.control_to_state(factors[-1]))
    assert factors[0] is not factors[1] and solved == factors
    assert not np.array_equal(maps[0], maps[1])
    assert _control_to_state(disc, ys[1]) is maps[1]

    w = disc.eval_dom(disc.problem.reaction_y, y=ys[0])
    disc.jacobian_solve(w, np.ones(disc.mesh.n_vertices))
    assert disc._anchor[0.0] is factors[1]
    assert disc.control_to_state(factors[1]) is maps[1]
    assert solved == factors


def test_shape_validation(lq_disc16):
    with pytest.raises(ValueError):
        solve_state(lq_disc16, np.zeros(3), np.zeros(lq_disc16.mesh.n_boundary))
