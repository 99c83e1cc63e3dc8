"""Exponent fitting on synthetic power laws, sweep plan validation, sweep
integrity on a convex reference instance, row-failure bookkeeping, and the
deterministic CSV/JSON writers."""

import json
import math

import numpy as np
import pytest

from ctrlstab import (BoundaryFunction, Discretization, SolveOptions,
                      SolverError, SscHypothesisError, SweepPlan,
                      SweepPlanError, fit_exponent, make_disk_mesh, run_sweep,
                      solve_kkt, write_sweep_csv, write_sweep_json)
from ctrlstab.stability import CSV_HEADER

from conftest import make_spec


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
    with pytest.raises(SweepPlanError, match="ssc_samples"):
        SweepPlan(delta, good_t, ssc_samples=50)
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
    plan = SweepPlan(_unit_delta(lq_disc16.mesh), T_SMALL, seed=3)
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
    assert report.seed == 3


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
    assert report.holder_bounded == (report.quotient_ratio <= 20.0)


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
    plan = SweepPlan(_unit_delta(lq_disc16.mesh), T_SMALL)
    with pytest.raises(SolverError):
        run_sweep(lq_disc16, plan,
                  options=SolveOptions(max_outer=2, tol=1e-13))


def test_nonconvex_base_rejected():
    spec = make_spec(obj_domain="-2*y^2", alpha="0",
                     constraints=("-1", "-2"))
    disc = Discretization(spec, make_disk_mesh(16, 0))
    plan = SweepPlan(_unit_delta(disc.mesh), T_SMALL, ssc_samples=100)
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
    for fit in report.fits.values():
        assert fit.n_points == 4


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
    assert all(row["d_L2"] is not None for row in data["rows"][:-1])


def test_all_rows_failing_is_an_error():
    spec = make_spec(beta="0.6 - 1*lam", gamma=0.5)
    disc = Discretization(spec, make_disk_mesh(16, 0))
    delta = BoundaryFunction(disc.mesh, np.ones(disc.mesh.n_boundary))
    plan = SweepPlan(delta, [0.4, 0.5, 0.6, 0.7])
    with pytest.raises(SolverError, match="every sweep step failed"):
        run_sweep(disc, plan, options=SolveOptions(tol=1e-10))


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
    plan = SweepPlan(_unit_delta(lq_disc16.mesh), T_SMALL, seed=7)
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
                         "holder_bounded", "seed"}
    assert data["rows"][0]["kkt_ok"] is True
    assert data["fits"]["d_Linf"]["n_points"] == len(T_SMALL)
