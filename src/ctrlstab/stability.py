"""Parametric stability sweeps around the reference boundary parameter.

For a unit perturbation direction delta (sup-norm 1) and increasing step
sizes t, the solver is rerun at ``lam_t = lam_ref + t delta`` and the
distances to the reference solution are recorded::

    d_L2   = ||u_t - u_ref||_L2(boundary)
    d_Linf = max_j |u_t - u_ref|
    d_W1r  = ||y_t - y_ref||_W1r

A log-log least-squares fit of each distance column against t estimates the
growth exponent.  Local Holder continuity of order 1/2 bounds the exponents
from below by 1/2 and keeps the quotient ``d_Linf / sqrt(t)`` bounded; a
locally Lipschitz solution map fits exponents near 1.  The second-order check runs
once at the reference point before the sweep: a nonpositive curvature
minimum aborts with ``SscHypothesisError`` since the stability theory has
nothing to say there.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .fem import BoundaryFunction, Discretization, FeFunction, norm
from .kkt import KktResiduals, SscReport, _safe, check_ssc
from .pde import StateSolveError
from .problem import AdmissionError
from .solver import (KktSolveReport, PartitionError, SolveOptions,
                     SolverError, solve_kkt)

CSV_HEADER = "t,d_L2,d_Linf,d_W1r,kkt_ok"


class SweepPlanError(ValueError):
    """The sweep plan violates its invariants."""


class SscHypothesisError(RuntimeError):
    """The reference point fails the second-order condition; the sweep's
    stability prediction does not apply."""


def _step_sizes(t_values, name: str) -> np.ndarray:
    """``t_values`` as a float array, checked as a sweep's step sizes: at
    least 4 entries, positive, finite and strictly increasing;
    ``SweepPlanError`` naming them ``name`` otherwise."""
    t = np.asarray(t_values, dtype=float)
    if t.ndim != 1 or len(t) < 4:
        raise SweepPlanError(f"{name}: need at least 4 step sizes")
    if not np.all((0.0 < t) & (t < np.inf)):
        raise SweepPlanError(f"{name}: must be positive and finite")
    if np.any(np.diff(t) <= 0.0):
        raise SweepPlanError(f"{name}: must be strictly increasing")
    return t


@dataclass
class SweepPlan:
    """Perturbation direction, step list, and reproducibility knobs.

    ``delta`` must have sup-norm 1; ``t_values`` must be strictly
    increasing, positive and finite, with at least 4 entries so the
    exponent fit is determined (the check an instance file's ``[sweep] t``
    passes at parse time); ``seed`` must be >= 0.
    """

    delta: BoundaryFunction
    t_values: np.ndarray
    seed: int = 0
    ssc_samples: int = 200

    def __post_init__(self):
        self.t_values = _step_sizes(self.t_values, "t_values")
        sup = float(np.max(np.abs(self.delta.values)))
        if abs(sup - 1.0) > 1e-12:
            raise SweepPlanError(
                f"perturbation direction must have sup-norm 1, got {sup!r}")
        if self.ssc_samples < 100:
            raise SweepPlanError("ssc_samples: must be >= 100")
        if self.seed < 0:
            raise SweepPlanError("seed: must be >= 0")


@dataclass
class SweepRow:
    """One sweep step, with the solver iterations its solve took.  A
    failed step (``kkt_ok`` false, NaN distances) also carries the class
    name of the error that stopped its solve, and its ``iterations`` are
    the solver or Newton iterations that error counts (None where it
    counts none)."""

    t: float
    d_l2: float
    d_linf: float
    d_w1r: float
    kkt_ok: bool
    error: str | None = None
    iterations: int | None = None

    def to_dict(self) -> dict:
        row = {"t": self.t, "d_L2": _safe(self.d_l2),
               "d_Linf": _safe(self.d_linf), "d_W1r": _safe(self.d_w1r),
               "kkt_ok": self.kkt_ok, "iterations": self.iterations}
        if not self.kkt_ok:
            row["error"] = self.error
        return row


@dataclass
class ExponentFit:
    """Least-squares fit ``log d = slope log t + log constant``."""

    slope: float
    constant: float
    r2: float
    n_points: int


def fit_exponent(t_values, distances) -> ExponentFit:
    """Fit the growth exponent of ``distances`` against ``t_values`` in
    log-log coordinates (rows with nonpositive distance are excluded;
    at least 4 must remain)."""
    t = np.asarray(t_values, dtype=float)
    d = np.asarray(distances, dtype=float)
    keep = np.isfinite(d) & (d > 0.0) & np.isfinite(t) & (t > 0.0)
    if int(np.sum(keep)) < 4:
        raise ValueError(f"need at least 4 positive samples, "
                         f"got {int(np.sum(keep))}")
    x = np.log(t[keep])
    z = np.log(d[keep])
    slope, intercept = np.polyfit(x, z, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((z - fitted) ** 2))
    ss_tot = float(np.sum((z - np.mean(z)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ExponentFit(slope=float(slope), constant=float(math.exp(intercept)),
                       r2=r2, n_points=int(np.sum(keep)))


@dataclass
class StabilityReport:
    """Sweep rows, reference diagnostics, exponent fits, Holder quotients.

    ``fits`` maps each distance column to its :class:`ExponentFit`, or to
    None (``null`` in JSON) when fewer than 4 successful rows have a
    positive distance, so that no exponent is determined.

    ``holder_constant`` is the largest quotient ``d_Linf / sqrt(t)`` over
    successful rows with a positive ``d_Linf``, ``quotient_ratio`` its
    largest over its smallest value, and ``holder_bounded`` says whether
    the quotient stays within a factor 20 of its minimum across the sweep,
    i.e. whether the sup-norm distances track ``holder_constant * sqrt(t)``.
    The verdict needs the rows of the ``d_Linf`` fit: with fewer than 4
    successful rows with a positive ``d_Linf`` (the fit is None),
    ``holder_bounded`` is false whatever ``quotient_ratio`` reads.
    When ``d_Linf`` is 0 on every successful row (the control does not
    move), there is no quotient: ``holder_constant`` reads 0,
    ``quotient_ratio`` inf (``null`` in JSON) and ``holder_bounded`` false.
    """

    rows: list
    base_residuals: KktResiduals
    ssc: SscReport
    fits: dict
    holder_constant: float
    quotient_ratio: float
    holder_bounded: bool
    seed: int

    def to_dict(self) -> dict:
        return {
            "rows": [r.to_dict() for r in self.rows],
            "base_residuals": asdict(self.base_residuals),
            "ssc": self.ssc.to_dict(),
            "fits": {k: None if f is None else asdict(f)
                     for k, f in self.fits.items()},
            "holder_constant": _safe(self.holder_constant),
            "quotient_ratio": _safe(self.quotient_ratio),
            "holder_bounded": self.holder_bounded,
            "seed": self.seed,
        }


def run_sweep(disc: Discretization, plan: SweepPlan,
              options: SolveOptions | None = None) -> StabilityReport:
    """Solve at the reference parameter, check the second-order condition,
    then solve at each perturbed parameter and report distances and fits.
    Each perturbed solve starts from the last converged control, which
    :func:`ctrlstab.solver.solve_kkt` resumes from the whole last point
    (state, costate and multipliers too) while no other solve has run on
    ``disc`` in between, with the state predicted from the points of the
    sweep before it, the cold solve included, that lie on its line.

    Each row records the iterations of its solve.  Rows where the inner
    solve fails are kept with ``kkt_ok = False``, the error's class name
    and its iteration count (see :class:`SweepRow`), and excluded from the
    fits; if every row fails, that is an error.
    """
    if plan.delta.mesh is not disc.mesh:
        raise SweepPlanError("perturbation direction lives on another mesh")
    lam_ref = disc.param_reference()
    base = solve_kkt(disc, lam_ref, options=options)
    rng = np.random.default_rng(plan.seed)
    ssc = check_ssc(disc, base.point, n_samples=plan.ssc_samples, rng=rng)
    if not ssc.positive:
        raise SscHypothesisError(
            f"second-order condition fails at the reference point "
            f"(min_rayleigh={ssc.min_rayleigh:.3e}, "
            f"subspace_min_eig={ssc.subspace_min_eig:.3e})")

    u_ref = base.point.control.values
    y_ref = base.point.state.values
    u_warm = u_ref
    rows = []
    for t in plan.t_values:
        lam_t = lam_ref.values + t * plan.delta.values
        try:
            rep = solve_kkt(disc, lam_t, u0=u_warm, options=options)
        except (SolverError, PartitionError, StateSolveError,
                AdmissionError) as exc:
            rows.append(SweepRow(t=float(t), d_l2=math.nan, d_linf=math.nan,
                                 d_w1r=math.nan, kkt_ok=False,
                                 error=type(exc).__name__,
                                 iterations=getattr(exc, "iterations", None)))
            continue
        du = rep.point.control.values - u_ref
        dy = rep.point.state.values - y_ref
        rows.append(SweepRow(
            t=float(t),
            d_l2=disc.l2_boundary(du),
            d_linf=float(np.max(np.abs(du))),
            d_w1r=norm(FeFunction(disc.mesh, dy), "w1r", disc.problem.r),
            kkt_ok=True, iterations=rep.iterations))
        u_warm = rep.point.control.values

    ok = [r for r in rows if r.kkt_ok]
    if not ok:
        raise SolverError("every sweep step failed", len(rows), None)

    ts = np.array([r.t for r in ok])
    fits = {
        "d_L2": _column_fit(ts, [r.d_l2 for r in ok]),
        "d_Linf": _column_fit(ts, [r.d_linf for r in ok]),
        "d_W1r": _column_fit(ts, [r.d_w1r for r in ok]),
    }
    quotients = np.array([r.d_linf / math.sqrt(r.t) for r in ok
                          if r.d_linf > 0.0])
    if len(quotients):
        holder_constant = float(np.max(quotients))
        quotient_ratio = float(np.max(quotients) / np.min(quotients))
    else:
        holder_constant = 0.0
        quotient_ratio = math.inf
    return StabilityReport(rows=rows, base_residuals=base.residuals,
                           ssc=ssc, fits=fits,
                           holder_constant=holder_constant,
                           quotient_ratio=quotient_ratio,
                           holder_bounded=fits["d_Linf"] is not None
                           and quotient_ratio <= 20.0,
                           seed=plan.seed)


def _column_fit(t_values, distances) -> ExponentFit | None:
    # a column with fewer than 4 positive distances has no fit
    try:
        return fit_exponent(t_values, distances)
    except ValueError:
        return None


def write_sweep_csv(report: StabilityReport, path) -> None:
    """Deterministic CSV: shortest round-trip float formatting, one row per
    step, booleans as true/false."""
    lines = [CSV_HEADER]
    for r in report.rows:
        flag = "true" if r.kkt_ok else "false"
        lines.append(f"{r.t!r},{r.d_l2!r},{r.d_linf!r},{r.d_w1r!r},{flag}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_sweep_json(report: StabilityReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


__all__ = [
    "CSV_HEADER", "SweepPlanError", "SscHypothesisError",
    "SweepPlan", "SweepRow", "ExponentFit", "StabilityReport",
    "fit_exponent", "run_sweep", "write_sweep_csv", "write_sweep_json",
]
