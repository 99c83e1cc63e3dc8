"""Damped projection fixed-point solver for the optimality system, with
reduced Newton steps where no constraint binds and a pinned step where one
binds at every node.

Each outer iteration solves the state equation at the current control,
recovers multipliers from the previous costate through the cell-wise
separation formula, solves the adjoint equation, and then moves the control
toward the half-line projection target::

    u_target = min(-g_max(., y), (adjoint - alpha(lam)) / beta(lam))

by a damped step ``u <- (1 - theta) u + theta u_target``.  Fixed points of
the undamped map are exactly the discrete KKT points, so the five residuals
measure the distance to optimality at every iteration.  The damping factor
theta is fixed for the whole solve.  The damped map contracts slowly (near
a fold, thousands of iterations at theta = 0.05); the two steps below
replace it where the active set is empty or full.

Where the projection target binds at no boundary node,
``(adjoint - alpha) / beta < -g_max`` at every node, every multiplier of
the KKT point is zero and the optimality system is the stationarity of the
reduced cost ``J(u)``.  At such an iterate :func:`solve_kkt` sets the
multipliers to zero and takes a reduced Newton step::

    H du = -M_bb (alpha + beta u - adjoint|_B),   H = T^T A_y T + B_u,

with the adjoint and ``H`` at zero multipliers, and ``H`` the reduced
Hessian that the second-order check assembles
(``ctrlstab.kkt._ReducedForms``).  Where ``H`` is not positive definite
the step is the eigenvalue-modified one (Nocedal & Wright, *Numerical
Optimization*, Sec. 3.4), so it always descends.  Its line search halves
the step until the reduced cost meets the Armijo condition or the worst
residual drops; the second test accepts a step whose cost decrease falls
below the rounding of ``J``.  Each trial is a full evaluation and counts
as an iteration.  A Newton iterate at which the projection binds, or
whose line search fails, goes on with the damped step from itself.

Where the projection target binds at every boundary node,
``(adjoint - alpha) / beta >= -g_max``, the control of a KKT point whose
constraints all bind strongly is ``u = -g_l(y)``, ``l`` the label of each
node in the dominance partition; this is the primal-dual active-set step
(Hintermueller, Ito & Kunisch, SIAM J. Optim. 13:865, 2002) with every
node active.  :func:`solve_kkt` tries it at every such iterate whose
dominance partition separates (``sigma1 > 0``) and whose label
constraints have a ``y``-derivative that folds to one constant ``c``
(``ProblemSpec.common_slope``; a derivative that takes one value without
folding to a constant does not count): Newton on the state equation with
``u = -g_l(y)`` substituted, from the iterate's state, whose Jacobian is
``K + M[h_y] + c M_B``, then the adjoint with the multiplier
``e = trace(p) - alpha - beta u`` eliminated, which has the same
symmetric operator::

    (K + M[h_y] + c M_B) p = rhs(e = 0) + c M_B (alpha + beta u).

Its record is built from these solves and the adjoint system at ``e``,
like any iterate's.  The step is accepted only when that record meets the
stopping rule; a negative multiplier (a node that should be free), an
infeasible node or a failed solve rejects it.  A rejected step is not an
iterate: the iteration goes on from the iterate it was tried at as if it
had not been tried.  Labels equal to those of the last step rejected on its
record are not tried again: with one slope ``c`` and a monotone ``h`` the
pinned state of given labels is unique, and so is its record.  A try that
fails before its record is built (a failed solve, a degenerate partition)
does not mark its labels, since another start may succeed.  Where
the projection binds somewhere at every iterate and no pinned step is
accepted, the iteration is the damped one, step for step.

A re-solve resumes from the whole last point, and starts its state and
pinned costate from the chain's prediction.  The KKT tuple moves
Holder-continuously with the parameter, so in a sweep the previous point
is a close start for the state, the costate and the multipliers, not only
for the control; and along a line of parameters two or three earlier
points predict the next one closer still, the predictor of
predictor-corrector continuation (Allgower & Georg, *Introduction to
Numerical Continuation Methods*, SIAM 2003).  The ``Discretization``
keeps the last points :func:`solve_kkt` returned on it as a warm-start
chain (``Discretization.keep_point``).  A solve whose ``u0`` equals the
control of the chain's last point bit for bit resumes from that point
(``Discretization.resume``), which gives the loop its initial data: its
first Newton solve starts from the chain's prediction of the state at the
new parameter (the last point's state when no earlier point of the chain
lies on the parameter's line behind it), and, where some multiplier of the
last point is nonzero, its damped update from the point's multipliers and
costate.  At a free point (every multiplier zero) the costate is not
carried: it would give nonzero separated multipliers, and the reduced
Newton step would solve the adjoint once more to drop them.  Where some
multiplier is nonzero, the first pinned try comes before the first
iterate, by the same rule, from the predicted state, the last point's
costate and the constraint values at the predicted state and the new
parameter, with the predicted costate, when there is one, as the starting
guess of the conjugate gradients of its adjoint solve.  The predictions
only start the state Newton solve and that SPD adjoint solve, whose
solutions are unique, so the iterate they reach is the same up to the
solves' tolerances.  Rejected, that try is not an iterate either.  Any
other ``u0``, ``None`` included, starts from the control alone, with the
state solved from zero and the multipliers and costate at zero.

The stopping rule and the residuals are those of the damped iteration;
each state solve is held to a tenth of ``tol`` in absolute terms, so that
Newton's relative bound never stops it above the rule.

One iteration evaluates each quantity at its state once: the state
residual is Newton's final one, the constraint values serve the partition,
the residuals and the projection target, the h_y weights and the adjoint
right-hand side serve the adjoint solve and its residual, and alpha, beta
are evaluated once per solve.  So does a pinned try: its Newton load
keeps the last state it read and that state's constraint values, starting
from the state and values it is tried with, and the control and partition
of the state Newton returns come from the load's values.  The record is
built by the builder that :func:`ctrlstab.kkt.residuals` (the ``ctrlstab
verify`` rule) calls on the same pieces, so it is the verify rule's record
at the iterate, bit for bit.
The multipliers are the (m, Nb) array ``point.multipliers`` of each
iterate (row i the nodal values of e_i): the damped update reads the
previous iterate's, and the adjoint system and the record read that array.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .fem import (BoundaryFunction, Discretization, FeFunction, FemError,
                  nodal_values)
from .kkt import (KktPoint, KktResiduals, _cho_factor, _cho_solve,
                  _ReducedForms, _residual_record, _separated_multipliers,
                  check_beta_floor, constraint_values, partition_of)
from .pde import (StateSolveError, _adjoint_pieces, _adjoint_rhs, _newton,
                  adjoint_system, solve_state)

#: Newton tolerance of the state solves, relative to the boundary load
_NEWTON_TOL = 1e-11

#: sufficient-decrease constant of the reduced Newton line search
_ARMIJO = 1e-4

#: halvings of a reduced Newton step before the damped step takes over
_NEWTON_HALVINGS = 20


class SolverError(RuntimeError):
    """Outer iteration failure; carries the best residuals seen."""

    def __init__(self, message: str, iterations: int,
                 best: KktResiduals | None):
        self.iterations = iterations
        self.best_residuals = best
        worst = f"{best.worst:.3e}" if best is not None else "n/a"
        super().__init__(f"{message} after {iterations} iterations "
                         f"(best residual {worst})")


class PartitionError(RuntimeError):
    """The constraint dominance margin degenerated along the iteration."""


@dataclass
class SolveOptions:
    """Outer solver knobs.

    ``tol`` bounds the worst of the five residuals; ``theta`` is the
    damping factor of every damped step of the solve.  ``max_outer`` bounds
    the evaluated iterates, the trials of the Newton line search included.
    A reduced Newton step has no knob and is taken at every iterate where
    the projection binds at no node, nor has the pinned step, tried at
    every iterate where it binds at every node (and first, when a re-solve
    resumes from a point with a nonzero multiplier), unless its labels are
    those of the last try rejected on its record (see :func:`solve_kkt`).
    No knob turns the resume or its prediction off:
    the resume applies exactly when ``u0`` is the control of the last
    point solved on the discretization.  Each state solve stops at a
    residual of ``min(_NEWTON_TOL (1 + ||b||), 0.1 tol)``, ``b`` the
    boundary load.  A violated bound raises ``ValueError`` naming the
    field first.
    """

    max_outer: int = 200
    tol: float = 1e-9
    theta: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol: must be positive and finite")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta: must lie in (0, 1]")
        if self.max_outer < 1:
            raise ValueError("max_outer: must be at least 1")


@dataclass
class KktSolveReport:
    """Solver outcome: the point, its residuals, and iteration diagnostics.

    ``iterations`` counts evaluated iterates, the trials of the Newton
    line search included, and ``history`` holds the worst residual of
    each.  ``newton`` counts the reduced Newton steps, one per direction
    computed, whatever the number of its line-search trials.  ``pinned``
    counts the pinned steps tried: the one before the first iterate of a
    resumed solve, and one at each iterate where the projection binds at
    every node, the partition separates, the labels share a slope and they
    are not those of the last try rejected on its record, which is skipped
    and not counted.  Accepted, a pinned step is the last iterate; rejected
    or failed, it is not an iterate and adds nothing to ``iterations`` or
    ``history``.
    """

    point: KktPoint
    residuals: KktResiduals
    iterations: int
    sigma1: float
    history: list = field(default_factory=list, repr=False)
    newton: int = 0
    pinned: int = 0


def _newton_direction(forms: _ReducedForms, grad: np.ndarray) -> np.ndarray:
    """Solve ``H du = -grad`` with the reduced Hessian ``H`` of ``forms``.
    Where ``H`` is not positive definite, take the eigenvalue-modified step
    ``du = -V |Lambda|^-1 V^T grad`` of ``H V = M_bb V Lambda`` instead
    (Nocedal & Wright, *Numerical Optimization*, Sec. 3.4): a descent
    direction of the reduced cost whatever the inertia of ``H``.

    The Cholesky factorization and solve call LAPACK's ``dpotrf`` and
    ``dpotrs`` directly (``ctrlstab.kkt._cho_factor``, ``_cho_solve``):
    the routines of ``scipy.linalg.cho_factor`` and ``cho_solve``, with
    the same arguments and workspace, so the step has their bits.  A
    factorization that fails raises ``LinAlgError`` and takes the modified
    step, as the wrappers' did; a non-finite ``H``, or a non-finite
    ``grad`` with a positive definite ``H``, raises ``ValueError``, as
    theirs did."""
    hess = forms.hess
    hess = 0.5 * (hess + hess.T)
    try:
        return -_cho_solve(_cho_factor(hess), grad)
    except np.linalg.LinAlgError:
        eig, vec = scipy.linalg.eigh(
            hess, forms.disc.form.mass_boundary_bb.toarray())
        return -vec @ ((vec.T @ grad) / np.abs(eig))


def solve_kkt(disc: Discretization, lam, u0=None,
              options: SolveOptions | None = None) -> KktSolveReport:
    """Drive the damped projection iteration, with reduced Newton steps
    where no constraint binds and a pinned step where one binds at every
    node, to a KKT point at ``lam``.

    The start is the control ``u0`` (zero when None).  When ``u0`` equals
    the control of the last point returned on ``disc`` bit for bit, the
    solve resumes from the whole point, as the module docstring describes
    (see :meth:`ctrlstab.fem.Discretization.resume`): the prediction of
    ``disc``'s warm-start chain at ``lam`` starts its state, and where the
    last point has a nonzero multiplier, its multipliers and costate start
    the damped update and the predicted state, with the predicted costate
    as the guess, is the first pinned candidate, tried before the first
    iterate.  The point returned is kept on ``disc`` for the next solve.

    One damped iteration solves the state at the control ``u``, damps the
    multipliers separated from the previous costate toward their new
    values and solves the adjoint; the next control is
    ``(1 - theta) u + theta min(-max_i g_i, (trace(p) - alpha) / beta)``,
    ``theta = options.theta``.

    At an iterate whose projection target binds at no node,
    ``(trace(p) - alpha) / beta < -max_i g_i`` everywhere, every multiplier
    of the KKT point is zero, and the iteration takes a reduced Newton step
    instead: ``H du = -M_bb (alpha + beta u - trace(p0))`` with ``p0`` the
    costate and ``H`` the reduced Hessian at zero multipliers (see
    :func:`_newton_direction`); ``p0`` is ``p`` unless the iterate's damped
    multipliers are nonzero, when it is solved once more.
    Its trials ``u + s du``, ``s = 1, 1/2, ...``, are evaluated with zero
    multipliers, and the first whose reduced cost meets the Armijo
    condition or whose worst residual is below the iterate's is the next
    iterate.  A Newton iterate at which the projection binds, or whose line
    search fails ``_NEWTON_HALVINGS`` times, goes on with the damped step
    from itself.

    At every iterate whose projection target binds at every node,
    ``(trace(p) - alpha) / beta >= -max_i g_i`` everywhere, the pinned step
    is tried when the partition separates and the label constraints have a
    ``y``-derivative that folds to one constant ``c`` (see the module
    docstring): ``u = -g_label(y)`` with ``y`` solved by Newton on
    ``K + M[h_y] + c M_B`` from the iterate's state, the costate from the
    same operator with the multiplier eliminated, and
    ``e = trace(p) - alpha - beta u`` on each node's label.  It is
    returned when its record meets ``tol``; otherwise it is dropped, and
    the iteration goes on from the iterate and warm start unchanged.  A
    try whose labels equal those of the last try rejected on its record is
    skipped.  ``report.pinned`` counts each try.

    ``iterations`` counts the iterates whose residuals were evaluated,
    Newton trials and an accepted pinned step included, and ``max_outer``
    bounds it.  Each iterate's
    record is built from the solves of its own iteration and equals
    ``residuals(disc, point)`` at its point bit for bit; so
    ``report.residuals`` is the verify rule's record at ``report.point``,
    and ``report.sigma1`` is ``partition_at(disc, y, lam).sigma1`` at its
    state and parameter.

    Raises ``SolverError`` when ``max_outer`` iterations do not reach
    ``tol`` and ``PartitionError`` when the dominance margin sigma1 drops
    to zero or below at a damped iterate.
    """
    opts = options or SolveOptions()
    nb = disc.mesh.n_boundary
    lam = nodal_values(lam, nb)
    if u0 is None:
        u0, start = np.zeros_like(lam), None
    else:
        u0 = nodal_values(u0, nb)
        start = disc.resume(u0, lam)
    beta = check_beta_floor(disc, lam)
    alpha = disc.eval_node(disc.problem.alpha, lam=lam)

    m = disc.problem.m
    y_warm = None
    theta = opts.theta
    best: KktResiduals | None = None
    history: list = []
    lam_fn = BoundaryFunction(disc.mesh, lam)
    newton = pinned = 0
    # the labels of the last pinned try rejected on its record
    rejected = None
    m_bb = disc.form.mass_boundary_bb
    no_mults = np.zeros((m, nb))

    def partition(g):
        # the dominance partition of the constraint values g at the next
        # iterate; PartitionError where it is degenerate
        part = partition_of(g)
        if not part.sigma1 > 0.0:
            raise PartitionError(
                f"constraint separation margin sigma1 = {part.sigma1:.3e} "
                f"at iteration {len(history) + 1}; the dominance partition "
                f"is degenerate")
        return part

    def iterate(state, u, adjoint, mults, w_adj, rhs, g, part):
        # the iterate (point, record, partition, constraint values) from
        # the solves of its iteration: Newton's final residual is the state
        # residual at y, and (w_adj, rhs) is the adjoint system at the
        # multipliers, so the record is the verify rule's
        point = KktPoint(state=state.state,
                         control=BoundaryFunction(disc.mesh, u.copy()),
                         adjoint=FeFunction(disc.mesh, adjoint),
                         multipliers=mults, param=lam_fn)
        return (point, _residual_record(disc, point, state.residual, w_adj,
                                        rhs, g, alpha, beta), part, g)

    def evaluate(u, e_prev, p_prev):
        # one damped iteration up to its residuals from the control u, the
        # damped multipliers e_prev and the costate p_prev of the previous
        # iterate, at the current Newton warm start; a Newton trial
        # (e_prev None) has zero multipliers
        #
        # Newton stops at _NEWTON_TOL (1 + ||b||), b the boundary load, but
        # the stopping rule bounds the state residual by tol itself: cap
        # Newton's bound at a tenth of tol whatever ||b||
        state = solve_state(disc, u, lam, y0=y_warm, tol=_NEWTON_TOL,
                            cap=0.1 * opts.tol)
        y = state.state.values
        g_con = constraint_values(disc, y, lam)
        part = partition(g_con)

        if e_prev is None:
            mults = np.zeros((m, nb))
        else:
            # the multiplier refresh shares the damping factor: the
            # undamped costate/multiplier alternation has loop gain above 1
            # on active sets, while the damped update keeps the same fixed
            # points
            raw = _separated_multipliers(disc.trace(p_prev), alpha, beta, u,
                                         part.labels, m)
            mults = (1.0 - theta) * e_prev + theta * raw
        w_adj, rhs = adjoint_system(disc, y, lam, mults)
        return iterate(state, u, disc.jacobian_solve(w_adj, rhs), mults,
                       w_adj, rhs, g_con, part)

    def record(step) -> bool:
        # append an evaluated iterate; True when it meets the stopping rule
        nonlocal best, y_warm
        res = step[1]
        y_warm = step[0].state.values
        history.append(res.worst)
        if best is None or res.worst < best.worst:
            best = res
        return res.worst <= opts.tol

    def newton_step(step):
        # the reduced Newton step from the iterate of ``step`` and its line
        # search: the first trial u + s du, s = 1, 1/2, ..., that meets
        # Armijo on the reduced cost or lowers the worst residual; None
        # when every trial fails
        point, res = step[:2]
        adjoint = point.adjoint
        if np.any(point.multipliers):
            # the costate of the reduced cost is the adjoint at zero
            # multipliers, not the one the damped multipliers gave
            adjoint = FeFunction(disc.mesh, disc.jacobian_solve(
                *adjoint_system(disc, point.state.values, lam, no_mults)))
        point = replace(point, adjoint=adjoint, multipliers=no_mults)
        u = point.control.values
        grad = m_bb @ (alpha + beta * u - disc.trace(adjoint.values))
        du = _newton_direction(_ReducedForms(disc, point), grad)
        # the iterate's cost, evaluated when an Armijo test first reads it,
        # before the trial's cost
        cost = functools.cache(
            lambda: objective_value(disc, point.state, u, lam))
        slope = float(grad @ du)
        s = 1.0
        for _ in range(_NEWTON_HALVINGS + 1):
            if len(history) >= opts.max_outer:
                return None
            u_try = u + s * du
            try:
                trial = evaluate(u_try, None, None)
            except (StateSolveError, PartitionError, FemError, ValueError):
                trial = None
            if trial is not None and math.isfinite(trial[1].worst) and (
                    record(trial) or trial[1].worst < res.worst
                    or cost() + _ARMIJO * s * slope
                    >= objective_value(disc, trial[0].state, u_try, lam)):
                return trial
            s *= 0.5
        return None

    def pinned_step(y0, costate, g0, p0):
        # the pinned step from the state y0, with the costate and the
        # constraint values g0 at y0, its adjoint solve started from the
        # guess p0 when it is not None: tried where the projection binds
        # at every node, the partition of g0 separates, its labels' dg/dy
        # folds to one constant c and the labels are not those of the
        # last try rejected on its record (with one c and a monotone h,
        # the pinned point of given labels is unique, and so is its
        # record); the step when its record meets tol, None when it is
        # not tried, a solve fails, the partition degenerates or the
        # record does not meet tol
        nonlocal pinned, rejected
        proj = (disc.trace(costate) - alpha) / beta
        if not np.all(proj >= -np.max(g0, axis=0)):
            return None
        part = partition_of(g0)
        labels = part.labels
        c = disc.problem.common_slope(labels) if part.sigma1 > 0.0 else None
        if c is None or np.array_equal(labels, rejected):
            return None
        pinned += 1
        nodes = np.arange(nb)
        # the last state the load read and its constraint values
        kept = [y0, g0]

        def load(y):
            # the pinned load M_B (lam - g_label) at the state y
            if y is not kept[0]:
                kept[:] = y, constraint_values(disc, y, lam)
            return disc.embed(m_bb @ (-kept[1][labels, nodes] + lam))

        try:
            state = _newton(disc, y0, load, _NEWTON_TOL, 0.1 * opts.tol, c)
            # Newton reads the load last at the state it returns: its
            # start or its last accepted trial
            y, g = kept
            part = partition(g)
            u = -g[labels, nodes]
            # the adjoint with e = trace(p) - alpha - beta u eliminated:
            # (K + M[h_y] + c M_B) p = rhs(e = 0) + c M_B (alpha + beta u)
            pieces = _adjoint_pieces(disc, y, lam)
            w_adj = pieces[0]
            rhs = _adjoint_rhs(disc, pieces, no_mults) + c * \
                disc.embed(m_bb @ (alpha + beta * u))
            adjoint = disc.jacobian_solve(w_adj, rhs, c, x0=p0)
            e = disc.trace(adjoint) - alpha - beta * u
            mults = np.where(labels == np.arange(m)[:, None], e, 0.0)
            step = iterate(state, u, adjoint, mults, w_adj,
                           _adjoint_rhs(disc, pieces, mults), g, part)
        except (StateSolveError, PartitionError, FemError, ValueError):
            return None
        if step[1].worst > opts.tol:
            step, rejected = None, labels
        return step

    def report(step) -> KktSolveReport:
        disc.keep_point(step[0])
        return KktSolveReport(point=step[0], residuals=step[1],
                              iterations=len(history),
                              sigma1=step[2].sigma1, history=history,
                              newton=newton, pinned=pinned)

    u, e_prev, p_prev = u0, np.zeros((m, nb)), np.zeros(disc.mesh.n_vertices)
    # the arguments of the next pinned try
    pin = None
    if start is not None:
        # resume from the last point and the chain's prediction at lam (see
        # the module docstring); at a free point only the state is carried
        last, y_warm, p_guess = start
        if np.any(last.multipliers):
            e_prev, p_prev = last.multipliers, last.adjoint.values
            pin = (y_warm, p_prev, constraint_values(disc, y_warm, lam),
                   p_guess)
    while len(history) < opts.max_outer:
        # the pinned step; rejected, it is not an iterate, and the
        # iteration goes on as if it had not been tried
        if pin is not None:
            trial = pinned_step(*pin)
            if trial is not None:
                record(trial)
                return report(trial)
        step = evaluate(u, e_prev, p_prev)
        if record(step):
            return report(step)

        # reduced Newton steps while the projection binds at no node
        while True:
            point, _, _, g_con = step
            adjoint = point.adjoint.values
            cap = -np.max(g_con, axis=0)
            proj = (disc.trace(adjoint) - alpha) / beta
            if not np.all(proj < cap):
                break
            newton += 1
            found = newton_step(step)
            if found is None:
                break
            step = found
            if step[1].worst <= opts.tol:
                return report(step)

        pin = (point.state.values, adjoint, g_con, None)
        u = (1.0 - theta) * point.control.values \
            + theta * np.minimum(cap, proj)
        e_prev, p_prev = point.multipliers, adjoint

    raise SolverError("outer iteration did not converge",
                      opts.max_outer, best)


def objective_value(disc: Discretization, y, u, lam) -> float:
    """Objective by the fixed quadrature rules::

        J = int L(x, y) dx
          + int_bnd (l(x, y, lam) + alpha(lam) u + beta(lam) u^2 / 2) ds.
    """
    p = disc.problem
    y = nodal_values(y, disc.mesh.n_vertices)
    u = nodal_values(u, disc.mesh.n_boundary)
    lam = nodal_values(lam, disc.mesh.n_boundary)
    val = disc.integrate_domain(disc.eval_dom(p.obj_domain, y=y))
    uq = disc.edge_interp(u)
    bnd = disc.eval_bnd(p.obj_boundary, y=y, lam=lam) \
        + disc.eval_bnd(p.alpha, lam=lam) * uq \
        + 0.5 * disc.eval_bnd(p.beta, lam=lam) * uq ** 2
    return float(val + disc.integrate_boundary(bnd))


__all__ = [
    "SolverError", "PartitionError", "SolveOptions", "KktSolveReport",
    "solve_kkt", "objective_value",
]
