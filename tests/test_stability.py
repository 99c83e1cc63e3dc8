"""Exponent fitting on synthetic power laws, sweep plan validation, sweep
integrity on a convex reference instance, row-failure bookkeeping, and the
deterministic CSV/JSON writers."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from ctrlstab import (BoundaryFunction, Discretization, FeFunction,
                      SolveOptions, SolverError, SpdFactorization,
                      SscHypothesisError, SscReport,
                      SweepPlan, SweepPlanError, build_discretization,
                      fit_exponent, make_disk_mesh, parse_instance, run_sweep,
                      solve_kkt, sweep_plan, write_sweep_csv, write_sweep_json)
from ctrlstab import stability
from ctrlstab.stability import CSV_HEADER

from conftest import CONFIG_DIR, make_spec

#: the keys of a sweep.json row; a failed row adds "error"
ROW_KEYS = {"t", "d_L2", "d_Linf", "d_W1r", "kkt_ok", "iterations"}


# ---------------------------------------------------------------------------
# exponent fit
# ---------------------------------------------------------------------------


def test_fit_recovers_square_root_law():
    t = np.logspace(-4, -1, 8)
    fit = fit_exponent(t, 3.0 * np.sqrt(t))
    assert fit.slope == pytest.approx(0.5, abs=1e-10)
    assert fit.constant == pytest.approx(3.0, rel=1e-10)
    assert fit.r2 >= 1.0 - 1e-12
    assert fit.n_points == 8


def test_fit_recovers_linear_law():
    t = np.logspace(-3, 0, 6)
    fit = fit_exponent(t, t)
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.constant == pytest.approx(1.0, rel=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_tolerates_small_noise(rng):
    t = np.logspace(-4, -1, 12)
    d = 2.0 * np.sqrt(t) * (1.0 + 0.01 * rng.standard_normal(12))
    fit = fit_exponent(t, d)
    assert 0.45 <= fit.slope <= 0.55


def test_fit_drops_bad_rows():
    t = np.logspace(-3, 0, 6)
    d = np.sqrt(t)
    d[2] = math.nan
    fit = fit_exponent(t, d)
    assert fit.n_points == 5
    assert fit.slope == pytest.approx(0.5, abs=1e-10)


def test_fit_requires_four_positive_samples():
    with pytest.raises(ValueError, match="at least 4"):
        fit_exponent([1e-3, 1e-2, 1e-1, 1.0],
                     [math.nan, 0.0, -1.0, 5.0])


# ---------------------------------------------------------------------------
# plan validation
# ---------------------------------------------------------------------------


def _unit_delta(mesh, kind="cos"):
    s = mesh.boundary_s
    vals = np.cos(s) if kind == "cos" else np.sin(s)
    vals = vals / np.max(np.abs(vals))
    return BoundaryFunction(mesh, vals)


def test_plan_rejects_bad_inputs(mesh16):
    good_t = [0.01, 0.02, 0.04, 0.08]
    delta = _unit_delta(mesh16)
    with pytest.raises(SweepPlanError, match="sup-norm 1"):
        SweepPlan(BoundaryFunction(mesh16, 0.5 * delta.values), good_t)
    with pytest.raises(SweepPlanError, match="at least 4"):
        SweepPlan(delta, [0.01, 0.02, 0.04])
    with pytest.raises(SweepPlanError, match="positive"):
        SweepPlan(delta, [0.0, 0.02, 0.04, 0.08])
    with pytest.raises(SweepPlanError, match="increasing"):
        SweepPlan(delta, [0.01, 0.04, 0.02, 0.08])
    # NaN fails every comparison, so only a finiteness test rejects it
    for bad in (np.nan, np.inf):
        with pytest.raises(SweepPlanError, match="finite"):
            SweepPlan(delta, [0.01, 0.02, 0.04, bad])
    assert isinstance(SweepPlanError("x"), ValueError)


def test_sweep_rejects_foreign_mesh(lq_disc32, mesh16):
    plan = SweepPlan(_unit_delta(mesh16), [0.01, 0.02, 0.04, 0.08])
    with pytest.raises(SweepPlanError, match="mesh"):
        run_sweep(lq_disc32, plan)


# ---------------------------------------------------------------------------
# sweeps on a small convex instance
# ---------------------------------------------------------------------------

T_SMALL = (0.01, 0.02, 0.04, 0.08)


@pytest.fixture(scope="module")
def swept(lq_disc16):
    plan = SweepPlan(_unit_delta(lq_disc16.mesh), T_SMALL)
    report = run_sweep(lq_disc16, plan,
                       options=SolveOptions(tol=1e-10))
    return plan, report


def test_sweep_rows_are_consistent(swept):
    _, report = swept
    assert len(report.rows) == len(T_SMALL)
    assert [r.t for r in report.rows] == list(T_SMALL)
    assert all(r.kkt_ok for r in report.rows)
    for r in report.rows:
        assert 0.0 < r.d_l2
        assert 0.0 < r.d_linf
        assert 0.0 < r.d_w1r
    d_linf = [r.d_linf for r in report.rows]
    assert all(a < b for a, b in zip(d_linf, d_linf[1:]))
    assert report.base_residuals.worst <= 1e-10
    assert report.ssc.positive
    # each re-solve resumes from the last point, strongly pinned at every
    # node, and takes the one pinned step
    assert [r.iterations for r in report.rows] == [1] * len(T_SMALL)


def test_l2_bounded_by_sup(swept, lq_disc16):
    per = float(np.sum(lq_disc16.mesh.edge_lengths()))
    for r in swept[1].rows:
        assert r.d_l2 <= math.sqrt(per) * r.d_linf * (1.0 + 1e-12)


def test_quotients_match_rows(swept):
    _, report = swept
    q = np.array([r.d_linf / math.sqrt(r.t) for r in report.rows])
    assert report.holder_constant == pytest.approx(float(np.max(q)), rel=1e-14)
    ratio = float(np.max(q) / np.min(q))
    assert report.quotient_ratio == pytest.approx(ratio, rel=1e-14)
    # bounded toward small t: against the quotient at the largest t
    assert report.holder_bounded == (np.max(q) <= 20.0 * q[-1])


def test_fits_present_and_finite(swept):
    _, report = swept
    assert set(report.fits) == {"d_L2", "d_Linf", "d_W1r"}
    for fit in report.fits.values():
        assert math.isfinite(fit.slope)
        assert fit.constant > 0.0
        assert fit.n_points == len(T_SMALL)


def test_sign_symmetry_of_perturbation(lq_disc16):
    # the instance is rotation invariant and the boundary node set is
    # closed under the half-turn, so +delta and -delta produce congruent
    # perturbed problems with identical distance columns
    mesh = lq_disc16.mesh
    assert mesh.n_boundary % 2 == 0
    delta = _unit_delta(mesh, kind="sin")
    opts = SolveOptions(tol=1e-11)
    plus = run_sweep(lq_disc16, SweepPlan(delta, T_SMALL), options=opts)
    minus_fn = BoundaryFunction(mesh, -delta.values)
    minus = run_sweep(lq_disc16, SweepPlan(minus_fn, T_SMALL), options=opts)
    for rp, rm in zip(plus.rows, minus.rows):
        assert rp.d_l2 == pytest.approx(rm.d_l2, rel=1e-7, abs=1e-12)
        assert rp.d_linf == pytest.approx(rm.d_linf, rel=1e-7, abs=1e-12)
        assert rp.d_w1r == pytest.approx(rm.d_w1r, rel=1e-7, abs=1e-12)


def test_warm_and_cold_sweeps_agree(lq_disc16):
    # each sweep step starts from the previous step's control; its row must
    # match a cold solve at the same parameter
    disc = lq_disc16
    delta = _unit_delta(disc.mesh)
    opts = SolveOptions(tol=1e-11)
    warm = run_sweep(disc, SweepPlan(delta, T_SMALL), options=opts)
    lam_ref = disc.param_reference().values
    u_ref = solve_kkt(disc, lam_ref, options=opts).point.control.values
    assert [rw.t for rw in warm.rows] == list(T_SMALL)
    for rw in warm.rows:
        cold = solve_kkt(disc, lam_ref + rw.t * delta.values, options=opts)
        du = cold.point.control.values - u_ref
        d_linf = float(np.max(np.abs(du)))
        assert abs(rw.d_linf - d_linf) <= 1e-6 * (1.0 + rw.d_linf)
        assert abs(rw.d_l2 - disc.l2_boundary(du)) <= 1e-6 * (1.0 + rw.d_l2)


def test_base_solve_failure_propagates(lq_disc16):
    # one iterate: the pinned step would reach tol at the second
    plan = SweepPlan(_unit_delta(lq_disc16.mesh), T_SMALL)
    with pytest.raises(SolverError):
        run_sweep(lq_disc16, plan,
                  options=SolveOptions(max_outer=1, tol=1e-13))


def test_nonconvex_base_rejected():
    spec = make_spec(obj_domain="-2*y^2", alpha="0",
                     constraints=("-1", "-2"))
    disc = Discretization(spec, make_disk_mesh(16, 0))
    plan = SweepPlan(_unit_delta(disc.mesh), T_SMALL)
    with pytest.raises(SscHypothesisError):
        run_sweep(disc, plan)


def test_failed_rows_marked_and_excluded():
    # beta crosses the gamma/2 admission floor only at the largest step,
    # so that row is kept as a failure and left out of the fits
    spec = make_spec(beta="0.6 - 1*lam", gamma=0.5)
    disc = Discretization(spec, make_disk_mesh(16, 0))
    delta = BoundaryFunction(disc.mesh, np.ones(disc.mesh.n_boundary))
    plan = SweepPlan(delta, [0.05, 0.1, 0.2, 0.3, 0.4])
    report = run_sweep(disc, plan, options=SolveOptions(tol=1e-10))
    flags = [r.kkt_ok for r in report.rows]
    assert flags == [True, True, True, True, False]
    bad = report.rows[-1]
    assert math.isnan(bad.d_l2) and math.isnan(bad.d_linf)
    # the admission error counts no iterations
    assert (bad.error, bad.iterations) == ("AdmissionError", None)
    assert all(r.error is None and r.iterations >= 1
               for r in report.rows[:-1])
    for fit in report.fits.values():
        assert fit.n_points == 4


def test_three_successful_rows_leave_every_fit_undetermined(tmp_path):
    # the instance of test_failed_rows_marked_and_excluded without t = 0.3:
    # three rows remain, one too few for any fit
    spec = make_spec(beta="0.6 - 1*lam", gamma=0.5)
    disc = Discretization(spec, make_disk_mesh(16, 0))
    delta = BoundaryFunction(disc.mesh, np.ones(disc.mesh.n_boundary))
    report = run_sweep(disc, SweepPlan(delta, [0.05, 0.1, 0.2, 0.4]),
                       options=SolveOptions(tol=1e-10))
    assert [r.kkt_ok for r in report.rows] == [True, True, True, False]
    assert report.fits == {"d_L2": None, "d_Linf": None, "d_W1r": None}
    # the quotients of the three rows still bound the Holder constant
    q = [r.d_linf / math.sqrt(r.t) for r in report.rows[:3]]
    assert report.holder_constant == max(q)
    path = tmp_path / "sweep.json"
    write_sweep_json(report, path)
    assert json.loads(path.read_text())["fits"] == report.fits


def test_three_successful_rows_give_no_holder_verdict():
    # the same three rows: their quotients lie within the factor 20, but
    # three rows are too few for the d_Linf fit, so there is no verdict
    spec = make_spec(beta="0.6 - 1*lam", gamma=0.5)
    disc = Discretization(spec, make_disk_mesh(16, 0))
    delta = BoundaryFunction(disc.mesh, np.ones(disc.mesh.n_boundary))
    report = run_sweep(disc, SweepPlan(delta, [0.05, 0.1, 0.2, 0.4]),
                       options=SolveOptions(tol=1e-10))
    assert sum(r.kkt_ok and r.d_linf > 0.0 for r in report.rows) == 3
    assert report.quotient_ratio <= 20.0
    assert report.holder_bounded is False


def test_control_at_its_cap_leaves_the_control_fits_undetermined(tmp_path):
    # alpha = lam - 5 pushes the control onto its cap u = 1 at every step,
    # so the control distances are all 0 while the state still moves
    spec = make_spec(alpha="lam - 5", constraints=("-1", "-2"))
    disc = Discretization(spec, make_disk_mesh(16, 0))
    delta = BoundaryFunction(disc.mesh, np.ones(disc.mesh.n_boundary))
    report = run_sweep(disc, SweepPlan(delta, T_SMALL),
                       options=SolveOptions(tol=1e-10))
    assert all(r.kkt_ok and r.d_l2 == r.d_linf == 0.0 for r in report.rows)
    assert report.fits["d_L2"] is None and report.fits["d_Linf"] is None
    assert report.fits["d_W1r"].slope == pytest.approx(1.0, abs=1e-8)
    # no quotient: the documented readings of the three Holder fields
    assert report.holder_constant == 0.0
    assert report.quotient_ratio == math.inf
    assert report.holder_bounded is False
    path = tmp_path / "sweep.json"
    write_sweep_json(report, path)
    data = json.loads(path.read_text())
    assert data["quotient_ratio"] is None and data["holder_constant"] == 0.0
    assert data["fits"]["d_Linf"] is None
    assert data["fits"]["d_W1r"]["n_points"] == len(T_SMALL)


def test_failed_row_writes_valid_json(tmp_path):
    # the failing instance of test_failed_rows_marked_and_excluded: its
    # NaN distances must reach sweep.json as null, not as bare NaN tokens
    spec = make_spec(beta="0.6 - 1*lam", gamma=0.5)
    disc = Discretization(spec, make_disk_mesh(16, 0))
    delta = BoundaryFunction(disc.mesh, np.ones(disc.mesh.n_boundary))
    plan = SweepPlan(delta, [0.05, 0.1, 0.2, 0.3, 0.4])
    report = run_sweep(disc, plan, options=SolveOptions(tol=1e-10))
    path = tmp_path / "sweep.json"
    write_sweep_json(report, path)

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    with open(path) as fh:
        data = json.load(fh, parse_constant=reject)
    bad = data["rows"][-1]
    assert bad["kkt_ok"] is False
    assert bad["d_L2"] is None and bad["d_Linf"] is None
    assert bad["d_W1r"] is None
    assert bad["error"] == "AdmissionError" and bad["iterations"] is None
    assert all(row["d_L2"] is not None for row in data["rows"][:-1])
    # only failed rows carry the reason; every row its iterations
    assert all(set(row) == ROW_KEYS for row in data["rows"][:-1])
    assert [row["iterations"] for row in data["rows"]] == [
        r.iterations for r in report.rows]


def test_failed_row_carries_solver_iterations(monkeypatch, tmp_path):
    # a solve that runs out of iterations: the row names the error class
    # and the iterations it took
    spec = make_spec(beta="0.6 - 1*lam", gamma=0.5)
    disc = Discretization(spec, make_disk_mesh(16, 0))
    delta = BoundaryFunction(disc.mesh, np.ones(disc.mesh.n_boundary))
    plan = SweepPlan(delta, [0.05, 0.1, 0.2, 0.3, 0.4])
    solve = stability.solve_kkt

    def out_of_iterations(disc_, lam, u0=None, options=None):
        if u0 is not None and lam[0] > 0.35:
            raise SolverError("outer iteration did not converge", 7, None)
        return solve(disc_, lam, u0=u0, options=options)

    monkeypatch.setattr(stability, "solve_kkt", out_of_iterations)
    report = run_sweep(disc, plan, options=SolveOptions(tol=1e-10))
    assert [(r.kkt_ok, r.error) for r in report.rows] == [
        (True, None)] * 4 + [(False, "SolverError")]
    assert report.rows[-1].iterations == 7
    path = tmp_path / "sweep.json"
    write_sweep_json(report, path)
    rows = json.loads(path.read_text())["rows"]
    assert all(set(row) == ROW_KEYS for row in rows[:-1])
    assert set(rows[-1]) == ROW_KEYS | {"error"}
    assert (rows[-1]["error"], rows[-1]["iterations"]) == ("SolverError", 7)


def test_all_rows_failing_is_an_error():
    spec = make_spec(beta="0.6 - 1*lam", gamma=0.5)
    disc = Discretization(spec, make_disk_mesh(16, 0))
    delta = BoundaryFunction(disc.mesh, np.ones(disc.mesh.n_boundary))
    plan = SweepPlan(delta, [0.4, 0.5, 0.6, 0.7])
    with pytest.raises(SolverError, match="every sweep step failed"):
        run_sweep(disc, plan, options=SolveOptions(tol=1e-10))


# ---------------------------------------------------------------------------
# shipped instances: a wide sweep and a refinement ladder
# ---------------------------------------------------------------------------


def _shipped_sweep(name, refinement=None, t_values=None):
    cfg = parse_instance(CONFIG_DIR / f"{name}.ini")
    if refinement is not None:
        cfg.refinement = refinement
    disc = build_discretization(cfg)
    plan = sweep_plan(cfg, disc)
    if t_values is not None:
        plan = SweepPlan(plan.delta, t_values)
    return disc, run_sweep(disc, plan, options=cfg.solve_options)


#: step sizes over four decades
T_WIDE = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1)


@pytest.mark.parametrize("kappa,bounded", [(0.1, False), (0.5, True),
                                           (1.0, True)])
def test_holder_verdict_reads_growth_toward_small_t(lq_disc16, monkeypatch,
                                                    kappa, bounded):
    # d_Linf = t^kappa: the quotient t^(kappa - 1/2) falls as t grows where
    # kappa < 1/2, by 10^1.6 = 40 at kappa = 0.1 over four decades, and
    # grows where kappa > 1/2, which bounds it toward small t however
    # large quotient_ratio reads
    mesh = lq_disc16.mesh
    lam_ref = lq_disc16.param_reference().values

    def solve(disc, lam, u0=None, options=None):
        t = float(np.max(np.abs(getattr(lam, "values", lam) - lam_ref)))
        point = SimpleNamespace(
            control=BoundaryFunction(mesh, np.full(mesh.n_boundary,
                                                   t ** kappa)),
            state=FeFunction(mesh, np.zeros(mesh.n_vertices)))
        return SimpleNamespace(point=point, residuals=None, iterations=1)

    monkeypatch.setattr(stability, "solve_kkt", solve)
    monkeypatch.setattr(stability, "check_ssc",
                        lambda disc, point: SscReport(1.0, 1.0, 1, 0, True))
    delta = BoundaryFunction(mesh, np.ones(mesh.n_boundary))
    report = run_sweep(lq_disc16, SweepPlan(delta, T_WIDE))
    assert report.fits["d_Linf"].slope == pytest.approx(kappa, abs=1e-9)
    assert report.quotient_ratio == pytest.approx(
        10.0 ** (4.0 * abs(kappa - 0.5)), rel=1e-9)
    assert report.holder_bounded is bounded


def test_lipschitz_sweep_over_four_decades_is_bounded():
    # d_Linf = C t on lq_reference, so the quotient d_Linf/sqrt(t) grows
    # like sqrt(t): its largest over its smallest value reads 100 over
    # four decades, but it stays bounded toward small t
    _, report = _shipped_sweep("lq_reference", t_values=T_WIDE)
    assert report.fits["d_Linf"].slope == pytest.approx(1.0, abs=1e-6)
    assert report.quotient_ratio == pytest.approx(100.0, rel=1e-6)
    assert report.holder_bounded is True


#: the sweep values that the refinement ladder compares across levels
LADDER_VALUES = ("holder_constant", "min_rayleigh", "subspace_min_eig",
                 "d_Linf/t")


def _ladder_values(report) -> dict:
    first = report.rows[0]
    return {"holder_constant": report.holder_constant,
            "min_rayleigh": report.ssc.min_rayleigh,
            "subspace_min_eig": report.ssc.subspace_min_eig,
            "d_Linf/t": first.d_linf / first.t}


@pytest.mark.parametrize("name", ["mixed_reference", "stability_reference"])
def test_sweep_values_agree_across_refinements(name):
    # the theorem is about the continuous problem: what a sweep reports
    # must converge as the mesh is refined.  Measured at levels 0/1/2 on
    # stability_reference, each value's move shrinks by 3.9-4.0 per level
    # (order 2), and the 0 -> 1 moves are 0.2-1.4 h0^2 relative, h0 the
    # level-0 boundary edge length; mixed_reference's moves are below
    # 0.14 h0^2 (its min_rayleigh follows the active node count and moves
    # by 1.3e-3 and 1.6e-3 relative, without an order).  So the level-0
    # value may differ from the level-1 one by at most 2 h0^2 relative
    (disc0, coarse), (_, fine) = (_shipped_sweep(name, level)
                                  for level in (0, 1))
    h0 = float(np.max(disc0.mesh.edge_lengths()))
    a, b = _ladder_values(coarse), _ladder_values(fine)
    for key in LADDER_VALUES:
        assert abs(a[key] - b[key]) <= 2.0 * h0 ** 2 * abs(b[key]), key
    # the iterations of a re-solve follow the parameter step, not the mesh
    for row0, row1 in zip(coarse.rows, fine.rows):
        assert row0.kkt_ok and row1.kkt_ok
        assert row1.iterations <= row0.iterations + 2


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------


def test_csv_format_and_round_trip(swept, tmp_path):
    _, report = swept
    path = tmp_path / "sweep.csv"
    write_sweep_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(report.rows)
    for line, row in zip(lines[1:], report.rows):
        t_s, l2_s, linf_s, w1r_s, ok_s = line.split(",")
        assert float(t_s) == row.t
        assert float(l2_s) == row.d_l2
        assert float(linf_s) == row.d_linf
        assert float(w1r_s) == row.d_w1r
        assert ok_s == ("true" if row.kkt_ok else "false")


def test_csv_is_deterministic(lq_disc16, tmp_path):
    plan = SweepPlan(_unit_delta(lq_disc16.mesh), T_SMALL)
    opts = SolveOptions(tol=1e-10)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_sweep_csv(run_sweep(lq_disc16, plan, options=opts), a)
    write_sweep_csv(run_sweep(lq_disc16, plan, options=opts), b)
    assert a.read_bytes() == b.read_bytes()


def test_json_writer_round_trips(swept, tmp_path):
    _, report = swept
    path = tmp_path / "sweep.json"
    write_sweep_json(report, path)
    with open(path) as fh:
        data = json.load(fh)
    assert data == report.to_dict()
    assert set(data) == {"rows", "base_residuals", "ssc", "fits",
                         "holder_constant", "quotient_ratio",
                         "holder_bounded"}
    assert data["rows"][0]["kkt_ok"] is True
    assert all(set(row) == ROW_KEYS for row in data["rows"])
    assert data["fits"]["d_Linf"]["n_points"] == len(T_SMALL)


def test_sweep_solves_control_to_state_once_per_factorization(monkeypatch):
    # h = y: K + M[h_y] is one matrix at every state, factorized once, so
    # the reduced Newton steps of every solve and the SSC check share one T
    cfg = parse_instance(CONFIG_DIR / "stability_reference.ini")
    disc = build_discretization(cfg)
    plan = sweep_plan(cfg, disc)
    solves = []
    solve = SpdFactorization.solve

    def recording(self, b):
        if np.ndim(b) == 2:
            solves.append(self)
        return solve(self, b)

    monkeypatch.setattr(SpdFactorization, "solve", recording)
    report = run_sweep(disc, plan, options=cfg.solve_options)
    assert all(row.kkt_ok for row in report.rows)
    assert len(solves) == 1
