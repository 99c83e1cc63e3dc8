"""Outer iteration: convergence on convex instances, start invariance,
the unconstrained fixed point, reduced-cost calculus, and failure modes."""

import dataclasses
import sys
import types
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from ctrlstab import (BoundaryFunction, Discretization, FeFunction,
                      PartitionError, ProblemSpec, SolveOptions, SolverError,
                      StateSolveError, build_discretization, check_ssc,
                      make_disk_mesh, parse_instance, solve_kkt, sweep_plan)
from ctrlstab import fem, kkt, pde, solver
from ctrlstab.kkt import partition_at, projection_identity_gap, residuals
from ctrlstab.solver import objective_value

from conftest import CONFIG_DIR, make_spec
from oracles import (damped_solve_kkt, pair_boundary, reduced_cost,
                     reduced_gradient, vertex_boundary_mass)


def test_converges_on_reference(lq_disc32, lq_solved32):
    assert lq_solved32.residuals.worst <= 1e-10
    assert lq_solved32.iterations <= 200
    # sigma1 is the smallest nodal margin fl(y - 0.05) - fl(y - 1.05) of
    # g_1 = y - 0.05 over g_2 = y - 1.05 at the returned state
    y = lq_disc32.trace(lq_solved32.point.state.values)
    margins = (y - 0.05) - (y - 1.05)
    assert lq_solved32.sigma1 == np.min(margins)
    # Which double each margin is depends on the rounding of y, so pin the
    # set, not the value.  For 0.025 <= y < 2**-5: y - 0.05 is exact
    # (Sterbenz); y - 1.05 lies in [1, 2) in magnitude, where its error d
    # is at most 2**-53; and fl(1.05) - fl(0.05) = 1 + 3 * 2**-56.  So the
    # exact margin 1 + 3 * 2**-56 - d lies in [1 - 5 * 2**-56,
    # 1 + 11 * 2**-56], which rounds to one of the three doubles below.
    assert np.all((0.025 <= y) & (y < 2.0 ** -5))
    assert np.all(np.isin(margins, [1.0 - 2.0 ** -53, 1.0, 1.0 + 2.0 ** -52]))
    assert len(lq_solved32.history) == lq_solved32.iterations
    assert lq_solved32.history[-1] == lq_solved32.residuals.worst


def test_trivial_instance_lands_at_zero():
    spec = make_spec(obj_domain="0.5*y^2", alpha="0",
                     constraints=("-1", "-2"))
    disc = Discretization(spec, make_disk_mesh(16, 0))
    rep = solve_kkt(disc, np.zeros(disc.mesh.n_boundary),
                    options=SolveOptions(tol=1e-10))
    assert rep.residuals.worst <= 1e-10
    assert float(np.max(np.abs(rep.point.control.values))) <= 1e-9
    assert float(np.max(np.abs(rep.point.state.values))) <= 1e-9


def test_start_invariance(lq_disc32, lq_solved32):
    rng = np.random.default_rng(12)
    u_ref = lq_solved32.point.control.values
    lam = np.zeros(lq_disc32.mesh.n_boundary)
    for _ in range(5):
        u0 = rng.uniform(-1.0, 1.0, lq_disc32.mesh.n_boundary)
        rep = solve_kkt(lq_disc32, lam, u0=u0,
                        options=SolveOptions(tol=1e-10))
        assert float(np.max(np.abs(rep.point.control.values - u_ref))) <= 1e-6


def test_unconstrained_fixed_point():
    # constraints far below: the converged control is exactly the costate
    # relation (adjoint - alpha) / beta at the nodes
    spec = make_spec(constraints=("-10", "-20"))
    disc = Discretization(spec, make_disk_mesh(16, 0))
    rep = solve_kkt(disc, np.zeros(disc.mesh.n_boundary),
                    options=SolveOptions(tol=1e-10))
    u = rep.point.control.values
    adj = disc.trace(rep.point.adjoint.values)
    assert float(np.max(np.abs(u - adj))) <= 1e-8  # alpha = 0, beta = 1
    assert np.all(rep.point.multipliers == 0.0)


def test_warm_start_not_slower(lq_disc32, lq_solved32):
    # the solve resumes from the whole point when lq_solved32 is still the
    # last point kept on the shared lq_disc32, and starts from the control
    # alone otherwise; either start must never hurt and must land on the
    # same point
    rep = solve_kkt(lq_disc32, np.zeros(lq_disc32.mesh.n_boundary),
                    u0=lq_solved32.point.control.values,
                    options=SolveOptions(tol=1e-9))
    assert rep.iterations <= lq_solved32.iterations
    diff = rep.point.control.values - lq_solved32.point.control.values
    assert float(np.max(np.abs(diff))) <= 1e-7


def test_solver_error_carries_best_residuals(lq_disc32):
    # one iterate: the pinned step would reach tol at the second
    with pytest.raises(SolverError) as err:
        solve_kkt(lq_disc32, np.zeros(lq_disc32.mesh.n_boundary),
                  options=SolveOptions(max_outer=1, tol=1e-12))
    assert err.value.iterations == 1
    assert err.value.best_residuals is not None
    assert err.value.best_residuals.worst > 1e-12


def test_partition_error_on_identical_constraints():
    spec = make_spec(constraints=("y - 1", "y - 1"))
    disc = Discretization(spec, make_disk_mesh(16, 0))
    with pytest.raises(PartitionError):
        solve_kkt(disc, np.zeros(disc.mesh.n_boundary))


def test_solve_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(tol=0.0)
    with pytest.raises(ValueError):
        SolveOptions(theta=0.0)
    with pytest.raises(ValueError):
        SolveOptions(theta=1.5)
    with pytest.raises(ValueError):
        SolveOptions(max_outer=0)
    assert SolveOptions(theta=1.0).theta == 1.0


def test_lambda_shape_checked(lq_disc16):
    with pytest.raises(ValueError):
        solve_kkt(lq_disc16, np.zeros(7))


# ---------------------------------------------------------------------------
# the Newton and pinned steps against the plain damped iteration
# ---------------------------------------------------------------------------

#: constraints of the mixed boundary: at the solution the first binds on
#: 17 of 32 nodes and is free on the others
MIXED_CONSTRAINTS = ("y - 0.55 + 0.5*sin(s)", "y - 3")

#: (config, lambda_bar override); 0.6 is the benchmark's ssc_sample point
CASES = [("lq_reference", None), ("oracle_box", None),
         ("oracle_state", None), ("oracle_mixed", None),
         ("stability_reference", None), ("stability_reference", 0.6),
         ("mixed_reference", None)]


def _instance(name, lam_bar):
    cfg = parse_instance(CONFIG_DIR / f"{name}.ini")
    disc = build_discretization(cfg)
    lam = disc.param_reference().values
    if lam_bar is not None:
        lam = np.full_like(lam, lam_bar)
    return disc, lam, cfg.solve_options


@pytest.fixture(scope="module")
def accelerated_and_damped():
    """Both solvers from the same cold start on every case."""
    out = {}
    for case in CASES:
        disc, lam, opts = _instance(*case)
        out[case] = (disc, opts, solve_kkt(disc, lam, options=opts),
                     damped_solve_kkt(disc, lam, options=opts))
    return out


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def test_accelerated_solve_matches_damped_oracle(accelerated_and_damped,
                                                 case):
    disc, opts, rep, ref = accelerated_and_damped[case]
    gap = rep.point.control.values - ref.point.control.values
    assert float(np.max(np.abs(gap))) <= 1e-7
    # the `ctrlstab verify` rule
    assert rep.residuals.worst <= opts.tol
    assert projection_identity_gap(disc, rep.point) <= 10.0 * opts.tol
    assert rep.iterations <= opts.max_outer
    assert len(rep.history) == rep.iterations


def test_fold_cold_solve_needs_few_iterations(accelerated_and_damped):
    # no constraint binds near the fold, so reduced Newton steps take the
    # cold solve from u = 0 (about 9 evaluations, line-search trials
    # included) where the damped iteration needs thousands
    _, _, rep, ref = accelerated_and_damped[("stability_reference", None)]
    assert ref.iterations > 2000
    assert rep.iterations <= 15
    assert 0 < rep.newton < rep.iterations


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def test_newton_gate_is_an_input_property(accelerated_and_damped, case):
    # Newton steps are taken exactly where the projection binds at no
    # node: never on the instances whose constraints bind at the solution,
    # from the first iterate on where none does.  The pinned step is its
    # mirror: taken, and accepted at the second iterate, on the instances
    # whose constraint binds at every node, never on the others.  Where
    # the constraint binds at some nodes but not at all (mixed), neither
    # is taken
    _, _, rep, _ = accelerated_and_damped[case]
    binds = case[0] in ("lq_reference", "oracle_box", "oracle_state")
    mixed = case[0] == "mixed_reference"
    assert (rep.newton == 0) == (binds or mixed)
    assert (rep.pinned > 0) == binds
    if binds:
        assert rep.iterations == 2


def test_newton_on_semilinear_state_matches_damped_oracle():
    # a cubic reaction puts adjoint * h_yy into the reduced Hessian, and a
    # parameter-dependent beta makes M_bb (beta u) differ from B_u u; the
    # one constraint that could bind stays far above the state
    spec = make_spec(reaction="y + y^3", obj_domain="0.5*(y - 2)^2",
                     alpha="0.1 + 0.2*lam", beta="1 + 0.5*lam",
                     constraints=("y - 10", "-20"))
    disc = Discretization(spec, make_disk_mesh(16, 0))
    lam = 0.3 * np.cos(disc.mesh.boundary_s)
    opts = SolveOptions(tol=1e-10)
    rep = solve_kkt(disc, lam, options=opts)
    ref = damped_solve_kkt(disc, lam, options=opts)
    assert rep.newton > 0
    assert rep.iterations <= 10 < ref.iterations
    gap = rep.point.control.values - ref.point.control.values
    assert float(np.max(np.abs(gap))) <= 1e-7
    assert projection_identity_gap(disc, rep.point) <= 10.0 * opts.tol


def _fold_resolve(t):
    """Warm re-solve of ``stability_reference`` at ``lambda_bar + t delta``
    from its base point: the first step of the stability sweep."""
    disc, lam, opts = _instance("stability_reference", None)
    plan = sweep_plan(parse_instance(CONFIG_DIR / "stability_reference.ini"),
                      disc)
    base = solve_kkt(disc, lam, options=opts)
    return disc, lam + t * plan.delta.values, base.point.control.values, opts


def test_newton_resolve_across_indefinite_hessian_stays_on_branch():
    # the first Newton step of this re-solve meets an indefinite reduced
    # Hessian: the plain Newton step would go to another KKT point, 0.48
    # away, and the modified step with its line search must land on the
    # damped iteration's point
    disc, lam_t, u_base, opts = _fold_resolve(0.1)
    rep = solve_kkt(disc, lam_t, u0=u_base, options=opts)
    ref = damped_solve_kkt(disc, lam_t, u0=u_base, options=opts)
    assert rep.newton > 0
    assert rep.residuals.worst <= opts.tol
    gap = rep.point.control.values - ref.point.control.values
    assert float(np.max(np.abs(gap))) <= 1e-7


def test_newton_line_search_accepts_residual_decrease(monkeypatch):
    # near the solution the decrease of the reduced cost along a Newton
    # step falls below the rounding of its value, so an Armijo test on the
    # cost alone can stall where the residuals still fall.  The line
    # search also accepts a step that lowers the worst residual: the
    # re-solve reaches tol in about six evaluations, and as many when the
    # cost is replaced by one that rises at every evaluation, so that
    # Armijo never holds.  max_outer keeps a stalled search short.
    disc, lam_t, u_base, opts = _fold_resolve(0.01)
    opts = dataclasses.replace(opts, max_outer=50)
    plain = solve_kkt(disc, lam_t, u0=u_base, options=opts)

    calls, outcomes, directions, controls = [], [], [], []

    class Cost(float):
        # a cost whose Armijo comparisons, the iterate's cost plus the
        # Armijo term against the trial's, are counted with their outcome
        def __add__(self, other):
            return Cost(float(self) + other)

        def __ge__(self, other):
            outcomes.append(float(self) >= other)
            return outcomes[-1]

    def rising(*args):
        calls.append(None)
        return Cost(len(calls))

    def direction(forms, grad):
        # (evaluations so far, iterate control, direction) of each step
        du = newton_direction(forms, grad)
        directions.append((len(controls), forms.point.control.values, du))
        return du

    def state(disc, u, lam, **kw):
        controls.append(np.array(u))
        return solve_state(disc, u, lam, **kw)

    newton_direction, solve_state = solver._newton_direction, \
        solver.solve_state
    monkeypatch.setattr(solver, "objective_value", rising)
    monkeypatch.setattr(solver, "_newton_direction", direction)
    monkeypatch.setattr(solver, "solve_state", state)
    no_decrease = solve_kkt(disc, lam_t, u0=u_base, options=opts)
    assert calls
    # the stand-in lets no trial through: every Armijo comparison fails
    assert outcomes and not any(outcomes)
    # and a Newton step starts from a trial u + s du of the step before it,
    # which the line search accepted for the drop of its worst residual,
    # above tol; each evaluation is an iterate, so controls[i] is that of
    # history[i]
    history = no_decrease.history
    assert len(controls) == len(history)
    accepted = [(a - 1, b - 1) for (a, u, du), (b, *_)
                in zip(directions, directions[1:])
                if any(np.array_equal(controls[b - 1], u + s * du)
                       for s in 0.5 ** np.arange(solver._NEWTON_HALVINGS + 1))]
    assert any(opts.tol < history[j] < history[i] for i, j in accepted)
    for rep in (plain, no_decrease):
        assert rep.newton > 0
        assert rep.residuals.worst <= opts.tol
        assert rep.iterations <= 10
    gap = no_decrease.point.control.values - plain.point.control.values
    assert float(np.max(np.abs(gap))) <= 1e-7


def test_armijo_cost_is_evaluated_only_for_a_comparison(monkeypatch):
    # the cost of the iterate is read only by the Armijo test of a trial
    # that neither meets the stopping rule nor lowers the worst residual:
    # no Newton step of the cold fold solve needs it, and the re-solve at
    # t = 0.1 compares once, reading the iterate's cost, then the trial's
    controls = []

    def counted(disc, y, u, lam):
        controls.append(np.array(u))
        return value(disc, y, u, lam)

    value = solver.objective_value
    monkeypatch.setattr(solver, "objective_value", counted)
    disc, lam, opts = _instance("stability_reference", None)
    base = solve_kkt(disc, lam, options=opts)
    assert base.newton > 0 and controls == []
    plan = sweep_plan(parse_instance(CONFIG_DIR / "stability_reference.ini"),
                      disc)
    rep = solve_kkt(disc, lam + 0.1 * plan.delta.values,
                    u0=base.point.control.values, options=opts)
    assert rep.newton > 1 and len(controls) == 2
    assert not np.array_equal(*controls)


def test_newton_gradient_is_the_reduced_gradient(monkeypatch):
    # from u0 = -3 the damped multipliers are still nonzero when the
    # projection first binds nowhere; the Newton step must read the
    # costate at zero multipliers, the one of the reduced cost, and not
    # the one those multipliers gave (2.7e-2 apart, relative)
    disc, lam, opts = _instance("stability_reference", None)
    seen = []

    def captured(forms, grad):
        seen.append((forms.point, grad))
        return direction(forms, grad)

    direction = solver._newton_direction
    monkeypatch.setattr(solver, "_newton_direction", captured)
    solve_kkt(disc, lam, u0=np.full_like(lam, -3.0), options=opts)
    point, grad = seen[0]
    u = point.control.values
    assert not np.any(point.multipliers)
    _, ref = reduced_gradient(disc, lam, u)
    ref = disc.form.mass_boundary_bb @ ref.values
    assert np.max(np.abs(grad - ref)) <= 1e-9 * np.max(np.abs(ref))


def _recorded_controls(monkeypatch, module):
    """The control of every state solve that ``module`` calls, in order."""
    controls = []
    solve_state = module.solve_state

    def recorded(disc, u, *args, **kw):
        controls.append(np.array(u, dtype=float))
        return solve_state(disc, u, *args, **kw)

    monkeypatch.setattr(module, "solve_state", recorded)
    return controls


@pytest.mark.parametrize("trials", ["raise", "fail"])
def test_failed_line_search_takes_the_damped_step(monkeypatch, trials):
    # the projection binds at no node along oracle_mixed's damped
    # iteration, so every iterate tries a reduced Newton step.  Along a NaN
    # direction every trial raises; along +10 at every node, halved twice,
    # every trial is evaluated and rejected, its residual and cost higher.
    # Either way the direction is dropped, and the next control is the
    # damped step from the iterate it was tried at
    disc, lam, opts = _instance("oracle_mixed", None)
    damped = _recorded_controls(monkeypatch, pde)
    ref = damped_solve_kkt(disc, lam, options=opts)
    controls = _recorded_controls(monkeypatch, solver)
    step = np.nan if trials == "raise" else 10.0
    if trials == "fail":
        monkeypatch.setattr(solver, "_NEWTON_HALVINGS", 2)
    monkeypatch.setattr(solver, "_newton_direction",
                        lambda forms, grad: np.full_like(grad, step))
    rep = solve_kkt(disc, lam, options=opts)

    n = solver._NEWTON_HALVINGS + 1  # trials per line search
    assert np.array_equal(controls[0], damped[0])
    for k in range(n):
        assert np.array_equal(controls[1 + k], damped[0] + 0.5 ** k * step,
                              equal_nan=True)
    assert np.array_equal(controls[n + 1], damped[1])
    if trials == "raise":
        # no trial is an iterate: the solve is the damped one, bit for bit
        assert rep.newton == ref.iterations - 1
        assert rep.history == ref.history
        assert np.array_equal(rep.point.control.values,
                              ref.point.control.values)
    else:
        # every trial is an iterate, above the one it was tried from; the
        # trial states warm-start the next solve, so the damped iterates
        # match the oracle's up to rounding
        assert rep.iterations == rep.newton + 1 + n * rep.newton
        assert min(rep.history[1:n + 1]) > rep.history[0]
        assert rep.history[::n + 1] == pytest.approx(ref.history, rel=1e-6)
        gap = rep.point.control.values - ref.point.control.values
        assert float(np.max(np.abs(gap))) <= 1e-7


def test_line_search_stops_at_the_iteration_budget(monkeypatch):
    # max_outer runs out inside the line search: the search stops before
    # its next trial, and the solve raises after the damped step
    disc, lam, opts = _instance("oracle_mixed", None)
    controls = _recorded_controls(monkeypatch, solver)
    monkeypatch.setattr(solver, "_newton_direction",
                        lambda forms, grad: np.full_like(grad, 10.0))
    with pytest.raises(SolverError) as err:
        solve_kkt(disc, lam, options=dataclasses.replace(opts, max_outer=3))
    assert err.value.iterations == 3
    assert len(controls) == 3  # the first iterate and two trials


def test_warm_resolve_needs_few_iterations(accelerated_and_damped):
    disc, opts, rep, _ = accelerated_and_damped[("lq_reference", None)]
    cfg = parse_instance(CONFIG_DIR / "lq_reference.ini")
    plan = sweep_plan(cfg, disc)
    lam = disc.param_reference().values + plan.t_values[0] * plan.delta.values
    warm = solve_kkt(disc, lam, u0=rep.point.control.values, options=opts)
    assert warm.residuals.worst <= opts.tol
    assert warm.iterations <= 12


# ---------------------------------------------------------------------------
# re-solves that resume from the last point
# ---------------------------------------------------------------------------


def _no_resume(mp):
    """Turn the resume off: every warm start is the control-only one."""
    mp.setattr(fem.Discretization, "resume", lambda self, control, lam: None)


def _resolve_lam(disc, cfg):
    """The parameter of the first step of the file's sweep."""
    plan = sweep_plan(cfg, disc)
    return disc.param_reference().values \
        + plan.t_values[0] * plan.delta.values


def _chain(name):
    """The cold solve and the warm chain of a config's sweep, each re-solve
    started from the last converged control, on a new discretization."""
    cfg = parse_instance(CONFIG_DIR / f"{name}.ini")
    disc = build_discretization(cfg)
    plan = sweep_plan(cfg, disc)
    lam = disc.param_reference().values
    rep = solve_kkt(disc, lam, options=cfg.solve_options)
    reps = []
    for t in plan.t_values:
        rep = solve_kkt(disc, lam + t * plan.delta.values,
                        u0=rep.point.control.values,
                        options=cfg.solve_options)
        reps.append(rep)
    return reps


def test_resume_at_a_pinned_point_is_one_pinned_step(monkeypatch):
    # the lq point is pinned at every node, with nonzero multipliers, so
    # the re-solve from its control tries the pinned step from its state
    # before any state solve, and that step meets tol: one iteration, the
    # control-only start takes two (a damped evaluation, then the pinned
    # step)
    cfg = parse_instance(CONFIG_DIR / "lq_reference.ini")
    disc = build_discretization(cfg)
    opts = cfg.solve_options
    cold = solve_kkt(disc, disc.param_reference(), options=opts)
    calls = []
    solve_state = solver.solve_state

    def counted(*args, **kw):
        calls.append(None)
        return solve_state(*args, **kw)

    monkeypatch.setattr(solver, "solve_state", counted)
    rep = solve_kkt(disc, _resolve_lam(disc, cfg),
                    u0=cold.point.control.values, options=opts)
    assert (rep.iterations, rep.pinned, rep.newton) == (1, 1, 0)
    assert calls == []
    assert residuals(disc, rep.point) == rep.residuals
    assert rep.residuals.worst <= opts.tol
    assert projection_identity_gap(disc, rep.point) <= 10.0 * opts.tol


def test_control_one_ulp_off_takes_the_control_only_start(monkeypatch):
    # the kept point is handed back only to its own control, bit for bit:
    # one node one ulp away starts from the control alone
    cfg = parse_instance(CONFIG_DIR / "lq_reference.ini")
    disc = build_discretization(cfg)
    opts = cfg.solve_options
    cold = solve_kkt(disc, disc.param_reference(), options=opts)
    u0 = cold.point.control.values.copy()
    u0[3] = np.nextafter(u0[3], np.inf)
    lam = _resolve_lam(disc, cfg)
    rep = solve_kkt(disc, lam, u0=u0, options=opts)
    with monkeypatch.context() as mp:
        _no_resume(mp)
        plain = solve_kkt(disc, lam, u0=u0, options=opts)
    assert rep.iterations == plain.iterations == 2
    assert rep.history == plain.history
    assert np.array_equal(rep.point.control.values,
                          plain.point.control.values)


def test_resume_at_a_free_point_costs_no_solve(monkeypatch):
    # no constraint binds at the stability point: its multipliers are zero,
    # so only its state is carried, and the re-solve takes as many
    # operator solves as the control-only start (a carried costate would
    # give nonzero separated multipliers, and the Newton step would solve
    # the adjoint again to drop them)
    cfg = parse_instance(CONFIG_DIR / "stability_reference.ini")
    disc = build_discretization(cfg)
    opts = cfg.solve_options
    cold = solve_kkt(disc, disc.param_reference(), options=opts)
    assert not np.any(cold.point.multipliers)
    lam = _resolve_lam(disc, cfg)
    counts = []
    jacobian_solve = fem.Discretization.jacobian_solve
    for resume in (True, False):
        calls = []

        def counted(self, *args, **kw):
            calls.append(None)
            return jacobian_solve(self, *args, **kw)

        disc.keep_point(cold.point)
        with monkeypatch.context() as mp:
            mp.setattr(fem.Discretization, "jacobian_solve", counted)
            if not resume:
                _no_resume(mp)
            rep = solve_kkt(disc, lam, u0=cold.point.control.values,
                            options=opts)
        counts.append((len(calls), rep.iterations))
    assert counts[0] == counts[1]


def test_resumed_mixed_chain_takes_fewer_iterations(monkeypatch):
    # a mixed point carries its multipliers and costate into the damped
    # update: 23/25/27/31/34 iterations against 42/42/42/39/36 from the
    # control alone, to the same points within the solves' tolerance
    resumed = _chain("mixed_reference")
    with monkeypatch.context() as mp:
        _no_resume(mp)
        plain = _chain("mixed_reference")
    tol = parse_instance(CONFIG_DIR / "mixed_reference.ini").solve_options.tol
    for rep, ref in zip(resumed, plain, strict=True):
        assert rep.pinned == ref.pinned == 0
        assert rep.iterations < ref.iterations
        gap = rep.point.control.values - ref.point.control.values
        assert float(np.max(np.abs(gap))) <= 10.0 * tol


@pytest.mark.parametrize("failure", ["newton", "record"])
def test_rejected_resumed_pinned_step_changes_nothing(monkeypatch, failure):
    # the first pinned try of a resumed re-solve is forced to fail, by a
    # raising Newton solve or by a record above tol: it is counted and is
    # not an iterate, so the re-solve starts as the one that never tried it
    # (its first slope reads None).  A failed solve marks no labels: the
    # second pinned try, at the second iterate, finishes bit for bit as the
    # never-tried run.  A record above tol marks the labels, which are those
    # of every later iterate, so no other pinned step is tried and the
    # damped iteration finishes to the verify rule
    cfg = parse_instance(CONFIG_DIR / "lq_reference.ini")
    disc = build_discretization(cfg)
    opts = cfg.solve_options
    cold = solve_kkt(disc, disc.param_reference(), options=opts)
    lam = _resolve_lam(disc, cfg)
    owner = {"newton": "_newton", "record": "_residual_record"}[failure]
    original = getattr(solver, owner)
    calls = []

    def failing_first(*args, **kw):
        calls.append(None)
        if failure == "newton" and len(calls) == 1:
            raise StateSolveError("forced", 0, 1.0)
        out = original(*args, **kw)
        if failure == "record" and len(calls) == 1:
            out = dataclasses.replace(out, feasibility=1.0)
        return out

    with monkeypatch.context() as mp:
        mp.setattr(solver, owner, failing_first)
        tried = solve_kkt(disc, lam, u0=cold.point.control.values,
                          options=opts)
    disc.keep_point(cold.point)
    common_slope = ProblemSpec.common_slope
    slopes = []

    def none_first(self, indices):
        slopes.append(None)
        return None if len(slopes) == 1 else common_slope(self, indices)

    with monkeypatch.context() as mp:
        mp.setattr(ProblemSpec, "common_slope", none_first)
        never = solve_kkt(disc, lam, u0=cold.point.control.values,
                          options=opts)
    assert (never.pinned, never.iterations) == (1, 2)
    assert tried.history[0] == never.history[0]
    if failure == "newton":
        assert (tried.pinned, never.pinned) == (2, 1)
        assert tried.iterations == never.iterations == 2
        assert tried.history == never.history
        assert np.array_equal(tried.point.control.values,
                              never.point.control.values)
        return
    assert tried.pinned == 1
    assert tried.iterations > 2
    assert residuals(disc, tried.point) == tried.residuals
    assert tried.residuals.worst <= opts.tol
    assert projection_identity_gap(disc, tried.point) <= 10.0 * opts.tol
    gap = tried.point.control.values - never.point.control.values
    assert float(np.max(np.abs(gap))) <= 10.0 * opts.tol


#: the parameter steps of a chain on the cubic lq instance, along delta = 1
CHAIN_T = (0.001, 0.003, 0.01, 0.03)


def _cubic_lq():
    """The lq instance with the monotone cubic reaction h = y + y^3, on 16
    boundary nodes: every node is strongly pinned, and the Jacobian moves
    with the state, so the pinned steps solve on a stale anchor."""
    disc = Discretization(make_spec(reaction="y + y^3"), make_disk_mesh(16, 0))
    return disc, np.zeros(disc.mesh.n_boundary), SolveOptions(tol=1e-9)


def test_predicted_chain_takes_fewer_spd_solves(monkeypatch):
    # from its third point on, each re-solve of a chain starts from the
    # states and costates of the points before it extrapolated to its
    # parameter: one Newton step fewer than from the last point alone (the
    # last point kept again before each re-solve: at its own parameter, it
    # stops the walk back along the chain), to the same points within the
    # oracle tolerance
    calls = []
    solve_spd = fem.solve_spd

    def counted(*args, **kw):
        calls.append(None)
        return solve_spd(*args, **kw)

    monkeypatch.setattr(fem, "solve_spd", counted)
    counts = {}
    for clear in (False, True):
        disc, lam0, opts = _cubic_lq()
        rep = solve_kkt(disc, lam0, options=opts)
        counts[clear] = []
        for t in CHAIN_T:
            if clear:
                disc.keep_point(rep.point)
            calls.clear()
            rep = solve_kkt(disc, lam0 + t, u0=rep.point.control.values,
                            options=opts)
            counts[clear].append(len(calls))
            assert (rep.iterations, rep.pinned) == (1, 1)
            assert residuals(disc, rep.point) == rep.residuals
            assert rep.residuals.worst <= opts.tol
            assert projection_identity_gap(disc, rep.point) \
                <= 10.0 * opts.tol
            # on another discretization, which leaves this chain be
            cold = solve_kkt(Discretization(disc.problem, disc.mesh),
                             lam0 + t, options=opts)
            gap = rep.point.control.values - cold.point.control.values
            assert float(np.max(np.abs(gap))) <= 10.0 * opts.tol
    assert sum(counts[False]) < sum(counts[True])
    assert counts[False][0] == counts[True][0]


def _resume_case(case, resume=None):
    """The last re-solve of a chain on :func:`_cubic_lq` in one of the
    cases where the chain predicts no more than the last point, solved on
    a new discretization.  When ``resume`` is given,
    ``Discretization.resume`` is replaced by ``resume(before)``, ``before``
    the report of the solve before the last."""
    disc, lam0, opts = _cubic_lq()
    delta = np.ones_like(lam0)
    off = np.sin(disc.mesh.boundary_s)
    # (parameter step, resumed) before the last re-solve, and the last one
    steps, last = {
        "one point": ([], 0.001 * delta),
        "broken": ([(0.001 * delta, True), (0.003 * delta, True),
                    (0.003 * delta, False)], 0.01 * delta),
        "ahead": ([(0.001 * delta, True), (0.003 * delta, True),
                   (0.0 * delta, False)], 0.002 * delta),
        "off the line": ([(0.001 * delta, True), (0.003 * delta, True)],
                         0.003 * delta + 0.007 * off),
        "behind": ([(0.001 * delta, True), (0.003 * delta, True)],
                   0.002 * delta),
    }[case]
    rep = solve_kkt(disc, lam0, options=opts)
    for dlam, resumed in steps:
        u0 = rep.point.control.values if resumed else None
        rep = solve_kkt(disc, lam0 + dlam, u0=u0, options=opts)
    with pytest.MonkeyPatch.context() as mp:
        if resume is not None:
            mp.setattr(fem.Discretization, "resume", resume(rep))
        return solve_kkt(disc, lam0 + last, u0=rep.point.control.values,
                         options=opts)


@pytest.mark.parametrize("case", ["one point", "broken", "ahead",
                                  "off the line", "behind"])
def test_resume_without_a_prediction_is_the_last_point(case):
    # a chain of one point; one that a cold solve at the last parameter
    # broke, whose earlier point at that parameter is not behind it; an
    # older sweep's points ahead on the same line after a new cold solve at
    # its base; a parameter off the chain's line; and one behind its last
    # point: the re-solve resumes from the last point alone, its state and
    # no costate guess, bit for bit
    rep = _resume_case(case)
    ref = _resume_case(case, resume=lambda before: (
        lambda self, control, lam: (before.point, before.point.state.values,
                                    None)))
    assert (rep.iterations, rep.pinned) == (ref.iterations, ref.pinned) \
        == (1, 1)
    assert rep.history == ref.history
    for name in ("state", "control", "adjoint"):
        assert np.array_equal(getattr(rep.point, name).values,
                              getattr(ref.point, name).values)
    assert np.array_equal(rep.point.multipliers, ref.point.multipliers)


def test_newton_stops_below_outer_tolerance(lq_disc16):
    # the state solve stops at newton_tol (1 + ||b||) = 1.035e-11 here; a
    # warm Newton start that meets that bound takes no step, so unless the
    # solver caps it below tol the state residual stays at 1.009e-11
    disc = lq_disc16
    lam0 = disc.param_reference().values
    base = solve_kkt(disc, lam0, options=SolveOptions(tol=1e-11))
    s = disc.mesh.boundary_s
    delta = np.sin(s) / np.max(np.abs(np.sin(s)))
    opts = SolveOptions(tol=1e-11)
    rep = solve_kkt(disc, lam0 + 0.01 * delta,
                    u0=base.point.control.values, options=opts)
    assert rep.residuals.worst <= opts.tol
    assert rep.residuals.state <= 0.1 * opts.tol


def test_newton_bound_below_tol_for_large_loads(monkeypatch):
    # alpha = -20 and inactive constraints drive u to about 20, so the
    # boundary load reaches ||b|| = 21: Newton's relative bound alone,
    # even capped at 0.1 tol, would stop at 2.2 tol
    spec = make_spec(alpha="-20", constraints=("-100", "-200"))
    disc = Discretization(spec, make_disk_mesh(16, 0))
    bounds = []
    solve_state = solver.solve_state

    def recorded(*args, **kw):
        rep = solve_state(*args, **kw)
        bounds.append(rep.tolerance)
        return rep

    monkeypatch.setattr(solver, "solve_state", recorded)
    opts = SolveOptions()
    rep = solve_kkt(disc, disc.param_reference(), options=opts)
    u = rep.point.control.values
    assert np.linalg.norm(vertex_boundary_mass(disc) @ disc.embed(u)) > 20.0
    # a tenth of tol, up to the rounding of the division and the product
    assert max(bounds) <= 0.1 * opts.tol * (1.0 + 1e-15)


def _binding_instance():
    """The mixed boundary from u0 = 5: the projection binds at every
    iterate and no pinned step is accepted, so every step is a damped one,
    and the damped oracle takes the same steps."""
    spec = make_spec(constraints=MIXED_CONSTRAINTS)
    disc = Discretization(spec, make_disk_mesh(32, 0))
    nb = disc.mesh.n_boundary
    return disc, np.zeros(nb), np.full(nb, 5.0), SolveOptions(tol=1e-10)


@pytest.fixture(scope="module")
def mixed_binding():
    """The solver and the damped oracle on :func:`_binding_instance`."""
    disc, lam, u0, opts = _binding_instance()
    return (disc, lam, opts, solve_kkt(disc, lam, u0=u0, options=opts),
            damped_solve_kkt(disc, lam, u0=u0, options=opts))


def test_rejected_pinned_step_changes_nothing(mixed_binding, monkeypatch):
    # from u0 = 5 every node is pinned at the first iterate, so the pinned
    # step is tried there, and only there; the pinned point has a negative
    # multiplier at 13 nodes (complementarity 0.135), its record fails, and
    # the iteration goes on from the first iterate bit for bit as without
    # the try.  A pinned
    # step whose Newton solve raises, or whose operator K + M[h_y] + c M_B
    # fails, is counted and dropped the same way
    disc, lam, opts, rep, ref = mixed_binding
    u0 = np.full_like(lam, 5.0)
    assert rep.pinned == 1
    assert rep.iterations > 2
    gap = rep.point.control.values - ref.point.control.values
    assert float(np.max(np.abs(gap))) <= 1e-7
    with monkeypatch.context() as mp:
        mp.setattr(ProblemSpec, "common_slope", lambda self, indices: None)
        plain = solve_kkt(disc, lam, u0=u0, options=opts)
    assert plain.pinned == 0
    assert plain.history == rep.history
    assert np.array_equal(plain.point.control.values,
                          rep.point.control.values)

    def failing_state(*args, **kw):
        raise StateSolveError("forced", 0, 1.0)

    jacobian_solve = Discretization.jacobian_solve

    def failing_operator(self, w_qp, b, c=0.0):
        if c:
            raise fem.NotSpdError("forced")
        return jacobian_solve(self, w_qp, b, c)

    for owner, name, failing in ((solver, "_newton", failing_state),
                                 (Discretization, "jacobian_solve",
                                  failing_operator)):
        with monkeypatch.context() as mp:
            mp.setattr(owner, name, failing)
            raised = solve_kkt(disc, lam, u0=u0, options=opts)
        assert raised.pinned == 1
        assert raised.history == plain.history
        assert np.array_equal(raised.point.control.values,
                              plain.point.control.values)


def test_labels_rejected_on_their_record_are_tried_once():
    # from u0 = 20 at theta = 0.05, the damped iterates approach the mixed
    # point from the side where the projection binds at every node, with
    # the labels of a pinned step whose record fails; those labels are
    # tried once, not again at each of the 35 later iterates that bind at
    # every node with them, and the damped finish lands within tol of the
    # damped oracle
    disc, lam, _, opts = _binding_instance()
    u0 = np.full_like(lam, 20.0)
    opts = dataclasses.replace(opts, theta=0.05, max_outer=1000)
    rep = solve_kkt(disc, lam, u0=u0, options=opts)
    ref = damped_solve_kkt(disc, lam, u0=u0, options=opts)
    assert (rep.pinned, rep.newton) == (1, 0)
    assert residuals(disc, rep.point) == rep.residuals
    assert rep.residuals.worst <= opts.tol
    gap = rep.point.control.values - ref.point.control.values
    assert float(np.max(np.abs(gap))) <= opts.tol


def test_pinned_step_on_cubic_reaction_matches_damped_oracle():
    # h = y + y^3: the pinned state solve is nonlinear, and its Jacobian
    # K + M[h_y] + M_B moves with the state
    spec = make_spec(reaction="y + y^3")
    disc = Discretization(spec, make_disk_mesh(16, 0))
    lam = disc.param_reference().values
    opts = SolveOptions(tol=1e-10)
    rep = solve_kkt(disc, lam, options=opts)
    ref = damped_solve_kkt(disc, lam, options=opts)
    assert rep.pinned == 1
    assert rep.iterations <= 3 < ref.iterations
    gap = rep.point.control.values - ref.point.control.values
    assert float(np.max(np.abs(gap))) <= 1e-7
    assert residuals(disc, rep.point) == rep.residuals
    assert projection_identity_gap(disc, rep.point) <= 10.0 * opts.tol
    # every node strongly active: u = -g(y) and a positive multiplier
    y = disc.trace(rep.point.state.values)
    assert np.array_equal(rep.point.control.values, -(y - 0.05))
    assert np.min(rep.point.multipliers[0]) > 0.0


def test_unfolded_slope_takes_neither_pinned_path():
    # y*exp(0) - 0.05 is the lq instance's binding constraint, but its
    # dg/dy, exp(0.0), does not fold to a constant: neither the pinned step
    # nor the SSC certificate applies, and the damped iteration and the
    # control-to-state map reach the same point and report
    lam = np.zeros(32)
    opts = SolveOptions(tol=1e-10)
    reps = []
    for g in ("y - 0.05", "y*exp(0) - 0.05"):
        disc = Discretization(make_spec(constraints=(g, "y*exp(0) - 3")),
                              make_disk_mesh(32, 0))
        rep = solve_kkt(disc, lam, options=opts)
        cone = kkt._ConeGeometry(disc, rep.point)
        assert cone.strong.any(axis=0).all()
        assert cone.z_mat.shape == (32, 0)
        reps.append((rep, "t_mat" in cone.__dict__,
                     check_ssc(disc, rep.point, n_samples=20)))
    (pinned, pinned_map, pinned_ssc), (plain, plain_map, plain_ssc) = reps
    assert (pinned.pinned, pinned.iterations, pinned_map) == (1, 2, False)
    assert plain.pinned == 0 and plain.iterations > 2 and plain_map
    gap = plain.point.control.values - pinned.point.control.values
    assert float(np.max(np.abs(gap))) <= 1e-7
    assert plain_ssc == pinned_ssc


@pytest.mark.parametrize("u0", [None, 5.0], ids=["cold", "u0=5"])
def test_mixed_boundary_is_the_damped_oracle(mixed_binding, monkeypatch,
                                             u0):
    # the constraint binds on 17 of 32 nodes at the solution: neither the
    # Newton step nor the pinned one applies, so every iterate is the
    # oracle's damped one, one state solve each (58 from u0 = 0, 60 from
    # u0 = 5, where the rejected pinned step solves the state by its own
    # Newton loop)
    disc, lam, opts, _, _ = mixed_binding
    if u0 is not None:
        u0 = np.full_like(lam, u0)
    ref = damped_solve_kkt(disc, lam, u0=u0, options=opts)
    calls = []
    solve_state = solver.solve_state

    def counted(*args, **kw):
        calls.append(None)
        return solve_state(*args, **kw)

    monkeypatch.setattr(solver, "solve_state", counted)
    rep = solve_kkt(disc, lam, u0=u0, options=opts)
    assert rep.newton == 0
    assert rep.iterations == ref.iterations
    assert len(calls) == rep.iterations
    assert rep.history == ref.history
    assert np.array_equal(rep.point.control.values,
                          ref.point.control.values)


# ---------------------------------------------------------------------------
# the solver's residual record is the verify rule's
# ---------------------------------------------------------------------------

CONFIGS = sorted(path.stem for path in CONFIG_DIR.glob("*.ini"))


@pytest.mark.parametrize("name", CONFIGS)
def test_solver_record_is_the_verify_rule(name):
    # the solver builds its record from its own solves; `residuals`
    # evaluates every piece again at the point: both must agree exactly,
    # for a cold solve and a warm re-solve
    cfg = parse_instance(CONFIG_DIR / f"{name}.ini")
    disc = build_discretization(cfg)
    opts = cfg.solve_options
    lam = disc.param_reference().values
    cold = solve_kkt(disc, lam, options=opts)
    s = disc.mesh.boundary_s
    delta = np.sin(s) / np.max(np.abs(np.sin(s)))
    warm = solve_kkt(disc, lam + 0.01 * delta,
                     u0=cold.point.control.values, options=opts)
    for rep in (cold, warm):
        verify = residuals(disc, rep.point)
        assert verify == rep.residuals
        assert rep.history[-1] == rep.residuals.worst
        assert rep.sigma1 == partition_at(disc, rep.point.state.values,
                                          rep.point.param.values).sigma1


def _count_calls(monkeypatch, calls, module, name):
    """Count calls of ``module.name`` through every binding of it in the
    package, so that names bound at import are counted too."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    for mod in [m for key, m in sys.modules.items()
                if key == "ctrlstab" or key.startswith("ctrlstab.")]:
        for key, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, key, counted)


def test_solver_evaluates_each_state_once(monkeypatch):
    disc, lam, opts = _instance("lq_reference", None)
    calls = Counter()
    _count_calls(monkeypatch, calls, kkt, "residuals")
    _count_calls(monkeypatch, calls, fem, "norm")
    for name in ("eval_dom", "eval_bnd", "eval_node"):
        method = getattr(fem.Discretization, name)

        def counted(*args, _method=method, **kwargs):
            calls["eval"] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(fem.Discretization, name, counted)
    rep = solve_kkt(disc, lam, options=opts)
    assert calls["residuals"] == 0
    assert calls["norm"] == 0
    # expression evaluations per outer iteration: 24 when the residuals
    # evaluated h, h_y, the adjoint loads, g, alpha and beta again at each
    # state the iteration had just solved; about 10 when each is evaluated
    # once (Newton's h and h_y, g, the adjoint system)
    assert calls["eval"] <= 12 * rep.iterations


@pytest.mark.parametrize("reaction", ["y", "y + y^3"])
def test_constraints_are_evaluated_once_per_state(monkeypatch, reaction):
    # a cold solve and a warm chain whose re-solves are pinned steps: the
    # pinned load keeps the constraint values of the last state it read,
    # so no (state, parameter) pair is evaluated twice (17 calls on 7
    # states with h = y, 22 on 12 with the cubic h, when the try's first
    # state and its accepted state were evaluated again)
    disc = Discretization(make_spec(reaction=reaction), make_disk_mesh(16, 0))
    seen = []
    original = solver.constraint_values

    def recorded(disc, y, lam):
        seen.append((np.asarray(y).tobytes(), np.asarray(lam).tobytes()))
        return original(disc, y, lam)

    monkeypatch.setattr(solver, "constraint_values", recorded)
    lam = disc.param_reference().values
    rep = solve_kkt(disc, lam)
    for t in (0.001, 0.003, 0.01, 0.03):
        rep = solve_kkt(disc, lam + t, u0=rep.point.control.values)
        assert rep.pinned >= 1
    assert seen
    assert len(set(seen)) == len(seen)


# ---------------------------------------------------------------------------
# reduced cost and gradient
# ---------------------------------------------------------------------------


def test_reduced_cost_pure_quadratic_control():
    # zero state and boundary tracking: J(u) = 1/2 int_bnd u^2 ds, so a
    # unit control costs half the perimeter
    spec = make_spec(obj_domain="0", alpha="0")
    disc = Discretization(spec, make_disk_mesh(32, 0))
    nb = disc.mesh.n_boundary
    per = float(np.sum(disc.mesh.edge_lengths()))
    val = reduced_cost(disc, np.zeros(nb), np.ones(nb))
    assert val == pytest.approx(0.5 * per, rel=1e-12)


def test_objective_value_parts(lq_disc16):
    # constant state y = 2: domain part is 1/2 (2-1)^2 |Omega|; control
    # u = 1 at lam = 0 adds 1/2 |Gamma|
    mesh = lq_disc16.mesh
    area = float(np.sum(mesh.triangle_areas()))
    per = float(np.sum(mesh.edge_lengths()))
    y = FeFunction(mesh, np.full(mesh.n_vertices, 2.0))
    u = BoundaryFunction(mesh, np.ones(mesh.n_boundary))
    lam = BoundaryFunction(mesh, np.zeros(mesh.n_boundary))
    val = objective_value(lq_disc16, y, u, lam)
    assert val == pytest.approx(0.5 * area + 0.5 * per, rel=1e-12)


def test_reduced_gradient_matches_fd(lq_disc16):
    rng = np.random.default_rng(13)
    nb = lq_disc16.mesh.n_boundary
    lam = np.zeros(nb)
    u = 0.1 * rng.standard_normal(nb)
    val, grad = reduced_gradient(lq_disc16, lam, u)
    assert val == pytest.approx(reduced_cost(lq_disc16, lam, u), rel=1e-12)
    eps = 1e-6
    for _ in range(3):
        du = rng.standard_normal(nb)
        fd = (reduced_cost(lq_disc16, lam, u + eps * du)
              - reduced_cost(lq_disc16, lam, u - eps * du)) / (2.0 * eps)
        pairing = pair_boundary(lq_disc16, grad.values, du)
        assert abs(fd - pairing) <= 1e-5 * (1.0 + abs(fd))


def test_reduced_gradient_vanishes_unconstrained():
    spec = make_spec(constraints=("-10", "-20"))
    disc = Discretization(spec, make_disk_mesh(16, 0))
    nb = disc.mesh.n_boundary
    rep = solve_kkt(disc, np.zeros(nb), options=SolveOptions(tol=1e-10))
    _, grad = reduced_gradient(disc, np.zeros(nb), rep.point.control.values)
    assert float(np.max(np.abs(grad.values))) <= 1e-7


def test_pair_boundary_is_symmetric_quadrature(lq_disc16):
    rng = np.random.default_rng(14)
    nb = lq_disc16.mesh.n_boundary
    f = rng.standard_normal(nb)
    g = rng.standard_normal(nb)
    ab = pair_boundary(lq_disc16, f, g)
    ba = pair_boundary(lq_disc16, g, f)
    assert ab == pytest.approx(ba, rel=1e-13)
    direct = lq_disc16.integrate_boundary(
        lq_disc16.edge_interp(f) * lq_disc16.edge_interp(g))
    assert ab == pytest.approx(direct, rel=1e-12)


def test_objective_decreases_along_negative_gradient(lq_disc16):
    nb = lq_disc16.mesh.n_boundary
    lam = np.zeros(nb)
    u = np.zeros(nb)
    val, grad = reduced_gradient(lq_disc16, lam, u)
    step = 1e-2
    better = reduced_cost(lq_disc16, lam,
                          u - step * grad.values)
    assert better < val


def _scipy_direction(hess, m_bb, grad):
    # the reduced Newton direction through scipy's wrappers
    hess = 0.5 * (hess + hess.T)
    try:
        return -scipy.linalg.cho_solve(scipy.linalg.cho_factor(hess), grad)
    except np.linalg.LinAlgError:
        eig, vec = scipy.linalg.eigh(hess, m_bb.toarray())
        return -vec @ ((vec.T @ grad) / np.abs(eig))


@pytest.mark.parametrize("shift", [40.0, -40.0, 0.0])
def test_newton_direction_is_the_scipy_one_bit_for_bit(lq_disc16, shift):
    # SPD, negative definite and indefinite: the last two take the
    # eigenvalue-modified step, as scipy's LinAlgError did
    nb = lq_disc16.mesh.n_boundary
    rng = np.random.default_rng(int(shift) + 50)
    a = rng.standard_normal((nb, nb))
    hess = a + a.T + shift * np.eye(nb)
    hess[0, 1] *= 1.0 + 1e-15
    grad = rng.standard_normal(nb)
    forms = types.SimpleNamespace(hess=hess, disc=lq_disc16)
    got = solver._newton_direction(forms, grad)
    want = _scipy_direction(hess, lq_disc16.form.mass_boundary_bb, grad)
    assert got.tobytes() == want.tobytes()
    # a non-finite gradient: the Cholesky solve refuses it, the modified
    # step carries it through
    nan = np.full(nb, np.nan)
    if shift > 0.0:
        for direction in (solver._newton_direction,
                          lambda f, g: _scipy_direction(f.hess, None, g)):
            with pytest.raises(ValueError):
                direction(forms, nan)
    else:
        assert np.isnan(solver._newton_direction(forms, nan)).all()
