"""State and adjoint solves for the semilinear Neumann problem.

Weak state equation (P1, fixed quadrature)::

    a(y, v) + int h(x, y) v dx = int_bnd (u + lam) v ds     for all v,

with ``a`` the diffusion + a0 reaction form.  Newton's method uses the exact
consistent Jacobian ``K + M[h_y(., y)]`` (the h_y-weighted mass), which keeps
the iteration quadratically convergent; steps are damped by halving on the
residual norm.  Monotonicity of h (dh/dy >= 0) makes every Jacobian SPD.
Every solve with this operator reads its cached entry of the
``Discretization`` (the ``c = 0`` one), so a state whose h_y weights did
not change is not assembled again.  The pinned step of
:func:`ctrlstab.solver.solve_kkt` runs the same Newton iteration on a load
that moves with the state, ``M_B (lam - g(y))``, with the Jacobian
``K + M[h_y] + c M_B`` of its own entry, ``c = dg/dy``.  ``M_B`` is kept
in boundary numbering only, as the (Nb, Nb) ``M_bb``: the load of the
boundary data ``u + lam`` is ``embed(M_bb @ (u + lam))``.  Solves with
these operators:

* Newton steps and :func:`solve_adjoint` call
  ``Discretization.jacobian_solve``.  Each ``c`` keeps one factorization,
  the last one taken (its anchor).  At a state whose matrix the anchor
  does not factorize, the solve runs conjugate gradients preconditioned by
  the anchor, and factorizes only when that fails within a few steps:
  chord-type reuse of the factor
  (Kelley, *Iterative Methods for Linear and Nonlinear Equations*, SIAM
  1995).  Its relative target 1e-13 keeps each step equal to the exact
  Newton step up to rounding (inexact Newton; Dembo, Eisenstat & Steihaug,
  SIAM J. Numer. Anal. 19:400, 1982).
* :func:`linearized_operator` returns an exact factorization at ``y``, for
  the many right-hand sides of the control-to-state map ``T`` of
  :mod:`ctrlstab.kkt`; ``Discretization.control_to_state`` keeps ``T``
  with that factorization, so it is solved once per factorization.
* :func:`adjoint_system` returns the h_y weights at ``y`` and the adjoint
  right-hand side, so that a caller can solve the adjoint system and
  measure its residual ``||(K + M[h_y]) p - rhs||`` from one evaluation.

The adjoint problem is linear in the costate::

    (K + M[h_y(., y)]) p = -load(dL/dy) - bload(dl/dy + sum_i e_i dg_i/dy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fem import (Discretization, FeFunction, SpdFactorization, _as_values,
                  _norm2, nodal_values)

#: Newton steps of a state solve before it raises
_NEWTON_MAX_ITER = 50


class StateSolveError(RuntimeError):
    """Newton did not reach the state tolerance."""

    def __init__(self, message: str, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(f"{message} (iterations={iterations}, "
                         f"residual={residual:.3e})")


@dataclass
class StateSolveReport:
    """Converged state with iteration diagnostics.

    ``residual`` is the 2-norm of the discrete state equation at the
    returned state, the expression of :func:`state_residual_norm`, so the
    two agree bit for bit; ``tolerance`` is the absolute bound it met.
    """

    state: FeFunction
    iterations: int
    residual: float
    tolerance: float


def _state_residual(disc: Discretization, y: np.ndarray,
                    b: np.ndarray) -> np.ndarray:
    """The discrete state equation at ``y`` for the boundary load ``b``."""
    hq = disc.eval_dom(disc.problem.reaction, y=y)
    return disc.form.stiffness @ y + disc.domain_load(hq) - b


def solve_state(disc: Discretization, u, lam, y0=None,
                tol: float = 1e-11, cap: float = math.inf
                ) -> StateSolveReport:
    """Solve the semilinear state equation for boundary data ``u + lam``.

    Newton stops at a residual of ``min(tol (1 + ||b||_2), cap)``, with
    ``b`` the assembled load: ``tol`` is relative, and ``cap`` bounds it
    whatever ``||b||``.
    Raises ``StateSolveError`` after ``_NEWTON_MAX_ITER`` Newton steps or a
    failed line search (30 halvings without residual decrease), and
    ``ValueError`` when ``u``, ``lam`` or ``y0`` has a non-finite entry.
    """
    mesh = disc.mesh
    nb = mesh.n_boundary
    u = _as_values(u, nb, "control")
    lam = _as_values(lam, nb, "parameter")
    b = disc.embed(disc.form.mass_boundary_bb @ (u + lam))

    y = np.zeros(mesh.n_vertices) if y0 is None \
        else _as_values(y0, mesh.n_vertices, "initial state").copy()
    return _newton(disc, y, lambda _: b, tol, cap)


def _newton(disc: Discretization, y: np.ndarray, load, tol: float,
            cap: float, c: float = 0.0) -> StateSolveReport:
    """Newton's method from ``y`` on the state equation with the boundary
    load ``load(y)``, to the absolute residual bound
    ``min(tol (1 + ||load(y)||_2), cap)`` of the load at the start.

    ``K + M[h_y] + c M_B`` is its Jacobian: ``c = 0`` for a fixed load, and
    ``c = dg/dy`` for the pinned load ``M_B (lam - g(y))`` of
    :func:`ctrlstab.solver.solve_kkt`.  Steps halve until the residual
    norm decreases; errors as in :func:`solve_state`.
    """
    b = load(y)
    tol_abs = min(tol * (1.0 + _norm2(b)), cap)
    f_vec = _state_residual(disc, y, b)
    res = _norm2(f_vec)
    iterations = 0
    while res > tol_abs:
        if iterations >= _NEWTON_MAX_ITER:
            raise StateSolveError("Newton iteration limit reached",
                                  iterations, res)
        delta = disc.jacobian_solve(_reaction_y(disc, y), -f_vec, c)

        sigma = 1.0
        for _ in range(30):
            y_try = y + sigma * delta
            f_try = _state_residual(disc, y_try, load(y_try))
            res_try = _norm2(f_try)
            if res_try <= (1.0 - 1e-4 * sigma) * res:
                break
            sigma *= 0.5
        else:
            raise StateSolveError("line search failed", iterations, res)
        y, f_vec, res = y_try, f_try, res_try
        iterations += 1

    return StateSolveReport(state=FeFunction(disc.mesh, y),
                            iterations=iterations, residual=res,
                            tolerance=tol_abs)


def state_residual_norm(disc: Discretization, y, u, lam) -> float:
    """Algebraic 2-norm of the discrete state equation residual."""
    y = nodal_values(y, disc.mesh.n_vertices)
    u = nodal_values(u, disc.mesh.n_boundary)
    lam = nodal_values(lam, disc.mesh.n_boundary)
    b = disc.embed(disc.form.mass_boundary_bb @ (u + lam))
    return _norm2(_state_residual(disc, y, b))


def adjoint_system(disc: Discretization, y, lam, multipliers) -> tuple:
    """The adjoint system at state ``y`` and the (m, Nb) nodal
    ``multipliers``: ``(w, rhs)`` with ``w`` the h_y weights of
    ``K + M[w]`` and ``rhs`` the negative gradient loads.

    ``disc.jacobian_solve(w, rhs)`` is the costate of :func:`solve_adjoint`,
    and ``||disc.jacobian_matrix(w) @ p - rhs||`` is the adjoint residual.
    Raises ``ValueError`` unless ``multipliers`` has one row per constraint:
    rows paired by position would otherwise drop or swap constraints.
    """
    e = np.asarray(multipliers, dtype=float)
    if e.shape != (disc.problem.m, disc.mesh.n_boundary):
        raise ValueError(f"multipliers need shape ({disc.problem.m}, "
                         f"{disc.mesh.n_boundary}), got {e.shape}")
    pieces = _adjoint_pieces(disc, y, lam)
    return pieces[0], _adjoint_rhs(disc, pieces, e)


def _adjoint_pieces(disc: Discretization, y, lam) -> tuple:
    """What the adjoint system reads of the state ``y``: the h_y weights,
    ``dL/dy`` at interior quadrature points, ``dl/dy`` and each ``dg_i/dy``
    at boundary quadrature points."""
    p = disc.problem
    y = nodal_values(y, disc.mesh.n_vertices)
    lam = nodal_values(lam, disc.mesh.n_boundary)
    return (_reaction_y(disc, y), disc.eval_dom(p.obj_domain_y, y=y),
            disc.eval_bnd(p.obj_boundary_y, y=y, lam=lam),
            [disc.eval_bnd(gy, y=y, lam=lam) for gy in p.constraints_y])


def _adjoint_rhs(disc: Discretization, pieces: tuple,
                 multipliers) -> np.ndarray:
    """The adjoint right-hand side from :func:`_adjoint_pieces` at the
    nodal multipliers, one row of Nb values per constraint, paired by
    position."""
    _, ly, bnd, gys = pieces
    for gq, e in zip(gys, multipliers, strict=True):
        bnd = bnd + gq * disc.edge_interp(e)
    return -disc.domain_load(ly) - disc.boundary_load(bnd)


def _reaction_y(disc: Discretization, y) -> np.ndarray:
    y = nodal_values(y, disc.mesh.n_vertices)
    return disc.eval_dom(disc.problem.reaction_y, y=y)


def linearized_operator(disc: Discretization, y) -> SpdFactorization:
    """Factorized ``K + M[h_y(., y)]``, shared by Newton, adjoint and
    control-to-state solves at the same state.

    The factorization is the ``Discretization``'s cached one whenever the
    h_y weights at ``y`` are bit-identical to the cached weights, so the
    returned object is shared: do not mutate it or its ``matrix``.
    """
    return disc.jacobian_factor(_reaction_y(disc, y))


def solve_adjoint(disc: Discretization, y, lam, multipliers) -> FeFunction:
    """Solve the adjoint system at state ``y`` with boundary multipliers.

    The solve goes through :meth:`Discretization.jacobian_solve`: exact
    when the anchor factorizes the operator at ``y`` (as after
    :func:`linearized_operator` at ``y``), else CG preconditioned by it.
    """
    w, rhs = adjoint_system(disc, y, lam, multipliers)
    return FeFunction(disc.mesh, disc.jacobian_solve(w, rhs))


__all__ = [
    "StateSolveError", "StateSolveReport",
    "solve_state", "state_residual_norm", "adjoint_system",
    "linearized_operator", "solve_adjoint",
]
