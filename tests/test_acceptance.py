"""End-to-end acceptance gates.

Each test prints exactly one line

    [criterion n] PASS: <measured values>   (or FAIL: ...)

before asserting, so ``pytest -s tests/test_acceptance.py`` doubles as the
acceptance report.  Budgets and tolerances are stated in each test; the
detail strings carry the measured numbers for the record.
"""

import time

import numpy as np

from ctrlstab import (BoundaryFunction, Discretization, FeFunction,
                      SolveOptions, build_discretization, check_ssc,
                      make_disk_mesh, norm, parse_instance, solve_kkt,
                      sweep_plan)
from ctrlstab.cli import main
from ctrlstab.expr import differentiate
from ctrlstab.kkt import (KktPoint, constraint_values, partition_at,
                          projection_identity_gap, residuals)
from ctrlstab.pde import solve_state
from ctrlstab.solver import objective_value
from ctrlstab.stability import run_sweep

from conftest import CONFIG_DIR, make_spec
from oracles import (pair_boundary, penalty_minimize, radial_solve,
                     reduced_cost, reduced_gradient)


def _report(n, ok, detail):
    print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


# ---------------------------------------------------------------------------
# 1. state solver vs radial two-point oracle, with convergence order
# ---------------------------------------------------------------------------


def test_criterion_1_radial_benchmark_convergence():
    t0 = time.perf_counter()
    spec = make_spec(constraints=("-1", "-2"))
    r_ref, y_ref = radial_solve(0.7, 1.0, h=lambda y: y,
                                h_prime=lambda y: np.ones_like(y))
    sizes = (64, 128, 256)
    errs = []
    for n in sizes:
        disc = Discretization(spec, make_disk_mesh(n, 0))
        nb = disc.mesh.n_boundary
        rep = solve_state(disc, np.full(nb, 0.7), np.zeros(nb), tol=1e-13)
        radii = np.hypot(disc.mesh.vertices[:, 0], disc.mesh.vertices[:, 1])
        exact = np.interp(radii, r_ref, y_ref)
        errs.append(norm(FeFunction(disc.mesh, rep.state.values - exact),
                         "l2"))
    order = -np.polyfit(np.log(sizes), np.log(errs), 1)[0]
    dt = time.perf_counter() - t0
    ok = errs[-1] <= 1e-3 and order >= 1.8 and dt <= 30.0
    _report(1, ok, f"L2 err(n=256)={errs[-1]:.3e} (tol 1e-3), "
                   f"order={order:.3f} (need >= 1.8), {dt:.1f}s of 30s")


# ---------------------------------------------------------------------------
# 2. first-order residuals of the shipped convex reference instance
# ---------------------------------------------------------------------------


def test_criterion_2_reference_kkt_residuals():
    t0 = time.perf_counter()
    cfg = parse_instance(CONFIG_DIR / "lq_reference.ini")
    disc = build_discretization(cfg)
    lam = disc.param_reference()
    rep = solve_kkt(disc, lam, options=cfg.solve_options)
    res = residuals(disc, rep.point)
    gap = projection_identity_gap(disc, rep.point)
    dt = time.perf_counter() - t0
    worst = res.worst
    ok = (worst <= 1e-8 and gap <= 1e-7 and rep.iterations <= 200
          and dt <= 60.0)
    _report(2, ok, f"residuals<={worst:.2e} (tol 1e-8), "
                   f"projection gap={gap:.2e} (tol 1e-7), "
                   f"{rep.iterations} iterations of 200, {dt:.1f}s of 60s")


# ---------------------------------------------------------------------------
# 3. solver cost vs penalty-continuation brute force on three instances
# ---------------------------------------------------------------------------


def test_criterion_3_brute_force_cost_agreement():
    t0 = time.perf_counter()
    rels = {}
    for name in ("oracle_box", "oracle_state", "oracle_mixed"):
        cfg = parse_instance(CONFIG_DIR / f"{name}.ini")
        disc = build_discretization(cfg)
        lam = disc.param_reference()
        rep = solve_kkt(disc, lam, options=cfg.solve_options)
        j_solver = objective_value(disc, rep.point.state, rep.point.control,
                                   lam)

        def cost(u, disc=disc, lam=lam):
            return reduced_cost(disc, lam.values, u, newton_tol=1e-14)

        def violation(u, disc=disc, lam=lam):
            st = solve_state(disc, u, lam.values, tol=1e-14)
            gv = constraint_values(disc, st.state.values, lam.values)
            return (gv + u).ravel()

        w = np.asarray(disc.form.mass_boundary_bb.sum(axis=1)).ravel()
        weights = np.tile(w, disc.problem.m)
        u_ref = penalty_minimize(cost, violation, disc.mesh.n_boundary,
                                 weights)
        j_ref = cost(u_ref)
        rels[name] = abs(j_solver - j_ref) / (1.0 + abs(j_ref))
    dt = time.perf_counter() - t0
    worst = max(rels.values())
    ok = worst <= 1e-6 and dt <= 300.0
    detail = ", ".join(f"{k}={v:.2e}" for k, v in rels.items())
    _report(3, ok, f"cost gap {detail} (tol 1e-6 each), {dt:.0f}s of 300s")


# ---------------------------------------------------------------------------
# 4. strict multiplier separation across the constraint partition
# ---------------------------------------------------------------------------


def test_criterion_4_multiplier_support_separation():
    spec = make_spec(constraints=("y - 1 + cos(s)", "y - 1 - cos(s)"))
    disc = Discretization(spec, make_disk_mesh(10, 0))
    lam = disc.param_reference()
    rep = solve_kkt(disc, lam, options=SolveOptions(tol=1e-10))
    part = partition_at(disc, rep.point.state.values, lam.values)
    res = residuals(disc, rep.point)
    cells_used = {int(i) for i in part.labels}
    off_cell_zero = all(
        np.all(e[part.labels != i] == 0.0)
        for i, e in enumerate(rep.point.multipliers))
    signs_ok = bool(np.all(rep.point.multipliers >= 0.0))
    nontrivial = bool(np.all(np.max(rep.point.multipliers, axis=1) > 0.0))
    ok = (part.sigma1 >= 0.5 and off_cell_zero and signs_ok and nontrivial
          and cells_used == {0, 1} and res.complementarity <= 1e-8)
    _report(4, ok, f"sigma1={part.sigma1:.3f} (need >= 0.5), "
                   f"off-cell multipliers exactly zero={off_cell_zero}, "
                   f"signs>=0={signs_ok}, "
                   f"complementarity={res.complementarity:.2e} (tol 1e-8)")


# ---------------------------------------------------------------------------
# 5. curvature sign flip and estimator agreement on the flip threshold
# ---------------------------------------------------------------------------


def _curvature_estimates(mesh, c):
    """Both second-order minimum estimates at the zero stationary point of
    the concave tracking instance with weight ``c``."""
    spec = make_spec(obj_domain=f"-{c!r}*y^2", alpha="0",
                     constraints=("-1", "-2"))
    disc = Discretization(spec, mesh)
    nv, nb = disc.mesh.n_vertices, disc.mesh.n_boundary
    point = KktPoint(
        state=FeFunction(disc.mesh, np.zeros(nv)),
        control=BoundaryFunction(disc.mesh, np.zeros(nb)),
        adjoint=FeFunction(disc.mesh, np.zeros(nv)),
        multipliers=np.zeros((2, nb)),
        param=BoundaryFunction(disc.mesh, np.zeros(nb)))
    rep = check_ssc(disc, point, n_samples=100, rng=np.random.default_rng(0))
    return disc, point, rep.min_rayleigh, rep.subspace_min_eig


def test_criterion_5_curvature_sign_threshold_agreement():
    """Bisect, for each estimator, the weight ``c`` at which its sign
    flips, and ask the two thresholds to agree within 10 %.

    No constraint is active at the probe point, so ``min_rayleigh`` is the
    exact minimum over the whole control space, and its sign is that of
    the smallest reduced-Hessian eigenvalue: the two thresholds are one
    number in exact arithmetic.  The criterion compares the bracketed
    pencil search with the inverse iteration of ``subspace_min_eig``, two
    computations of that sign, not a sampled estimate with an exact one.
    """
    t0 = time.perf_counter()
    mesh = make_disk_mesh(12, 0)
    lo, hi = 0.25, 2.0
    disc, point, ray_lo, sub_lo = _curvature_estimates(mesh, lo)
    _, _, ray_hi, sub_hi = _curvature_estimates(mesh, hi)
    # the probe point must be stationary for the estimates to mean anything
    assert residuals(disc, point).worst <= 1e-12
    flip = ray_lo > 0 > ray_hi and sub_lo > 0 > sub_hi

    def bisect(pick):
        a, b = lo, hi
        for _ in range(30):
            mid = 0.5 * (a + b)
            if pick(_curvature_estimates(mesh, mid)) > 0:
                a = mid
            else:
                b = mid
        return 0.5 * (a + b)

    c_sampled = bisect(lambda est: est[2])
    c_subspace = bisect(lambda est: est[3])
    agree = abs(c_sampled - c_subspace) <= 0.10 * min(c_sampled, c_subspace)
    dt = time.perf_counter() - t0
    ok = flip and agree and dt <= 120.0
    _report(5, ok, f"sign flip detected={flip}, thresholds "
                   f"sampled={c_sampled:.6f} subspace={c_subspace:.6f} "
                   f"(agree within 10%), {dt:.1f}s")


# ---------------------------------------------------------------------------
# 6. square-root parameter stability of the nonconvex reference sweep
# ---------------------------------------------------------------------------


def test_criterion_6_parameter_stability_exponents():
    t0 = time.perf_counter()
    cfg = parse_instance(CONFIG_DIR / "stability_reference.ini")
    disc = build_discretization(cfg)
    plan = sweep_plan(cfg, disc)
    report = run_sweep(disc, plan, options=cfg.solve_options)
    dt = time.perf_counter() - t0
    slopes = {k: f.slope for k, f in report.fits.items()}
    slopes_ok = all(s >= 0.45 for s in slopes.values())
    ok = slopes_ok and report.quotient_ratio <= 20.0 and dt <= 600.0
    detail = ", ".join(f"{k}={v:.3f}" for k, v in slopes.items())
    _report(6, ok, f"exponents {detail} (need >= 0.45 each), "
                   f"quotient ratio={report.quotient_ratio:.2f} (max 20), "
                   f"{dt:.0f}s of 600s")


# ---------------------------------------------------------------------------
# 7. symbolic derivatives and the adjoint gradient against differences
# ---------------------------------------------------------------------------


def _config_expressions():
    for name in ("lq_reference", "stability_reference", "oracle_box",
                 "oracle_state", "oracle_mixed"):
        p = parse_instance(CONFIG_DIR / f"{name}.ini").problem
        yield from (p.a11, p.a12, p.a22, p.a0, p.obj_domain, p.obj_boundary,
                    p.alpha, p.beta, p.reaction, p.param_ref, *p.constraints)


def test_criterion_7_derivative_consistency():
    rng = np.random.default_rng(7)
    npts, h = 100, 1e-6
    worst_sym = 0.0
    n_checks = 0
    for expr in _config_expressions():
        variables = sorted(expr.free_vars() & {"y", "lam"}) or ["y"]
        for var in variables:
            env = {"x1": rng.uniform(-0.7, 0.7, npts),
                   "x2": rng.uniform(-0.7, 0.7, npts),
                   "s": rng.uniform(0.0, 2.0 * np.pi, npts),
                   "y": rng.uniform(-1.0, 1.0, npts),
                   "lam": rng.uniform(-1.0, 1.0, npts)}
            up = dict(env, **{var: env[var] + h})
            dn = dict(env, **{var: env[var] - h})
            fd = (np.asarray(expr.eval(up), float)
                  - np.asarray(expr.eval(dn), float)) / (2.0 * h)
            sym = np.broadcast_to(
                np.asarray(differentiate(expr, var).eval(env), float),
                fd.shape)
            worst_sym = max(worst_sym, float(np.max(
                np.abs(fd - sym) / (1.0 + np.abs(sym)))))
            n_checks += 1

    disc = Discretization(make_spec(), make_disk_mesh(16, 0))
    nb = disc.mesh.n_boundary
    lam0 = np.zeros(nb)
    worst_grad = 0.0
    for _ in range(5):
        u = rng.standard_normal(nb)
        du = rng.standard_normal(nb)
        _, grad = reduced_gradient(disc, lam0, u)
        fd = (reduced_cost(disc, lam0, u + h * du, newton_tol=1e-14)
              - reduced_cost(disc, lam0, u - h * du,
                             newton_tol=1e-14)) / (2.0 * h)
        pairing = pair_boundary(disc, grad, du)
        worst_grad = max(worst_grad, abs(fd - pairing) / (1.0 + abs(fd)))

    ok = worst_sym <= 1e-6 and worst_grad <= 1e-5
    _report(7, ok, f"symbolic vs differences {worst_sym:.2e} over "
                   f"{n_checks} derivative checks x {npts} points "
                   f"(tol 1e-6), adjoint gradient vs differences "
                   f"{worst_grad:.2e} on 5 controls (tol 1e-5)")


# ---------------------------------------------------------------------------
# 8. byte-identical sweep artifacts for identical config and seed
# ---------------------------------------------------------------------------


def test_criterion_8_sweep_reproducibility(tmp_path):
    blobs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        code = main(["sweep", "--config",
                     str(CONFIG_DIR / "lq_reference.ini"),
                     "--out", str(out), "--quiet"])
        assert code == 0
        blobs.append((out / "sweep.csv").read_bytes())
    rows = blobs[0].decode().strip().splitlines()
    ok = blobs[0] == blobs[1] and len(rows) > 1
    _report(8, ok, f"two runs, sweep.csv byte-identical={blobs[0] == blobs[1]}"
                   f", {len(rows) - 1} data rows")
