"""First- and second-order optimality structures at a candidate point.

A candidate bundles state, control, adjoint, parameter, and one boundary
multiplier per constraint, held as one (m, Nb) array whose row i is the
nodal values of e_i.  First-order checks: equation residuals
(algebraic 2-norms), nodal stationarity/complementarity/feasibility
(max norms), the half-line projection identity for the control, and the
dominance partition: which constraint is largest at each boundary node,
and by how much at the closest node (the margin sigma1).  Second
order: two estimators for the minimum of the curvature form on the
critical cone of controls u with linearized states T u, both on
boundary-sized forms in the controls: the smallest reduced-Hessian
eigenvalue on the strongly-active equality subspace, and the minimum of the
curvature per unit size, exact by a one-parameter eigenvalue search where
the cone is that subspace, and sampled from projected random directions
where a weakly active pair makes it smaller.  Where every boundary node is
pinned, the admission gates show the pinned operator is SPD, so that
subspace is {0}, and neither ``T`` nor the forms are built.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from .expr import Const
from .fem import (BoundaryFunction, Discretization, FeFunction, _norm2,
                  nodal_values)
from .pde import (_reaction_y, adjoint_system, linearized_operator,
                  state_residual_norm)
from .problem import AdmissionError


@dataclass
class KktPoint:
    """Candidate point: (state, control, adjoint, multipliers) at a
    parameter.

    ``multipliers`` is a float array of shape (m, Nb): row ``i`` holds the
    values of the multiplier ``e_i`` at the boundary nodes.  A field on
    another mesh, or a multiplier array of another shape or with a
    non-finite entry, raises ``ValueError``.
    """

    state: FeFunction
    control: BoundaryFunction
    adjoint: FeFunction
    multipliers: np.ndarray
    param: BoundaryFunction

    def __post_init__(self):
        mesh = self.state.mesh
        if any(f.mesh is not mesh
               for f in (self.control, self.adjoint, self.param)):
            raise ValueError("all fields must share one mesh")
        e = self.multipliers = np.asarray(self.multipliers, dtype=float)
        if e.ndim != 2 or e.shape[1] != mesh.n_boundary:
            raise ValueError(f"multipliers need shape (m, {mesh.n_boundary}),"
                             f" got {e.shape}")
        if not np.all(np.isfinite(e)):
            raise ValueError("multipliers contain non-finite entries")

    @property
    def m(self) -> int:
        return len(self.multipliers)


@dataclass
class KktResiduals:
    """The five first-order residuals.

    ``state``/``adjoint`` are algebraic 2-norms of the discrete equations;
    ``stationarity``/``complementarity``/``feasibility`` are nodal max norms.
    Complementarity includes multiplier negativity: it is
    ``max(|e_i (g_i + u)|, (-e_i)_+)`` over constraints and nodes.
    """

    state: float
    adjoint: float
    stationarity: float
    complementarity: float
    feasibility: float

    @property
    def worst(self) -> float:
        return max(self.state, self.adjoint, self.stationarity,
                   self.complementarity, self.feasibility)


@dataclass
class PartitionH5:
    """Dominance partition of the boundary by the constraint functions.

    ``labels[j]`` is the index of the largest constraint value at node j
    (ties to the lowest index).  The separation margin ``sigma1`` is the
    smallest gap, over the nodes, between the largest constraint value
    and the next one, so the partition assumption holds strictly iff
    ``sigma1 > 0``.
    """

    labels: np.ndarray
    sigma1: float


def constraint_values(disc: Discretization, y, lam) -> np.ndarray:
    """Nodal values g_i(x, y, lam) on the boundary, shape (m, Nb)."""
    y = nodal_values(y, disc.mesh.n_vertices)
    lam = nodal_values(lam, disc.mesh.n_boundary)
    return np.stack([disc.eval_node(g, y=y, lam=lam)
                     for g in disc.problem.constraints])


def partition_at(disc: Discretization, y, lam) -> PartitionH5:
    """Dominance partition at a given state/parameter (see PartitionH5)."""
    return partition_of(constraint_values(disc, y, lam))


def partition_of(g: np.ndarray) -> PartitionH5:
    """Dominance partition of constraint values ``g``, shape (m, Nb) with
    m >= 2, as :func:`constraint_values` returns them (see PartitionH5)."""
    second, top = np.sort(g, axis=0)[-2:]
    return PartitionH5(labels=np.argmax(g, axis=0),
                       sigma1=-float(np.max(second - top)))


def recover_multipliers(disc: Discretization, y, u, adjoint, lam,
                        partition: PartitionH5) -> np.ndarray:
    """Multipliers from the separation formula, as the (m, Nb) array of
    :class:`KktPoint`: on its own cell each constraint carries
    ``(adjoint - alpha(lam) - beta(lam) u)_+``, elsewhere zero."""
    u = nodal_values(u, disc.mesh.n_boundary)
    lam = nodal_values(lam, disc.mesh.n_boundary)
    adj = nodal_values(adjoint, disc.mesh.n_vertices)
    alpha = disc.eval_node(disc.problem.alpha, lam=lam)
    beta = disc.eval_node(disc.problem.beta, lam=lam)
    return _separated_multipliers(disc.trace(adj), alpha, beta, u,
                                  partition.labels, disc.problem.m)


def _separated_multipliers(adjoint_trace, alpha, beta, u, labels,
                          m: int) -> np.ndarray:
    """The separation formula of :func:`recover_multipliers` on nodal
    values: row ``i`` of the (m, Nb) result is
    ``(adjoint_trace - alpha - beta u)_+`` where ``labels == i``, else 0."""
    w = np.maximum(adjoint_trace - alpha - beta * u, 0.0)
    return np.stack([np.where(labels == i, w, 0.0) for i in range(m)])


def residuals(disc: Discretization, point: KktPoint) -> KktResiduals:
    """The five first-order residuals at ``point``: the ``ctrlstab verify``
    rule.

    Evaluates the pieces at the point and builds the record with the
    builder ``solve_kkt`` calls on the pieces of its own solves, so the
    solver's record at the point it returns is this one, bit for bit.
    Raises ``ValueError`` unless the point carries one multiplier per
    constraint.
    """
    y = point.state.values
    u = point.control.values
    lam = point.param.values
    w_adj, rhs = adjoint_system(disc, y, lam, point.multipliers)
    return _residual_record(
        disc, point, state_residual_norm(disc, y, u, lam), w_adj, rhs,
        constraint_values(disc, y, lam),
        disc.eval_node(disc.problem.alpha, lam=lam),
        disc.eval_node(disc.problem.beta, lam=lam))


def _residual_record(disc: Discretization, point: KktPoint, r_state: float,
                    w_adj: np.ndarray, rhs: np.ndarray, g: np.ndarray,
                    alpha: np.ndarray, beta: np.ndarray) -> KktResiduals:
    """The five residuals at ``point`` from its pieces: the state residual
    norm, the adjoint system of :func:`ctrlstab.pde.adjoint_system`, the
    constraint values and the nodal alpha, beta, all at the point."""
    _require_multipliers(disc, point)
    u = point.control.values
    adj = point.adjoint.values
    r_adjoint = _norm2(disc.jacobian_matrix(w_adj) @ adj - rhs)
    e = point.multipliers
    r_stat = float(np.max(np.abs(-disc.trace(adj) + alpha + beta * u
                                 + np.sum(e, axis=0))))
    slack = g + u
    # a NaN slack or product reads NaN; a zero residual reads +0.0 even
    # where a slack or a -e entry is -0.0 (Python's max keeps its first
    # argument on a tie, and abs drops the sign of a zero)
    r_comp = max(float(np.max(np.abs(e * slack))), float(np.max(-e)))
    r_feas = abs(float(np.max(slack, initial=0.0)))
    return KktResiduals(state=r_state, adjoint=r_adjoint,
                        stationarity=r_stat, complementarity=r_comp,
                        feasibility=r_feas)


def _require_multipliers(disc: Discretization, point: KktPoint) -> None:
    """Reject a point whose multipliers do not pair one to one with the
    problem's constraints; pairing them by position would check a
    truncated problem, or pair e_i with another constraint."""
    if point.m != disc.problem.m:
        raise ValueError(f"the point carries {point.m} multipliers, the "
                         f"problem has {disc.problem.m} constraints")


def check_beta_floor(disc: Discretization, lam) -> np.ndarray:
    """Nodal beta(lam); rejects the instance when the quadratic weight drops
    to gamma/2 or below at the perturbed parameter."""
    lam = nodal_values(lam, disc.mesh.n_boundary)
    beta = disc.eval_node(disc.problem.beta, lam=lam)
    floor = 0.5 * disc.problem.gamma
    if not float(np.min(beta)) > floor:
        raise AdmissionError(
            "(H3)", f"beta(lambda) reaches {float(np.min(beta)):.6g} "
                    f"<= gamma/2 = {floor:.6g} at a boundary node")
    return beta


def projection_identity_gap(disc: Discretization, point: KktPoint) -> float:
    """Max nodal gap in the half-line projection identity
    ``g + u = P_(-inf, 0]((adjoint - alpha)/beta + g)`` with ``g`` the
    pointwise max of the constraint values."""
    lam = point.param.values
    beta = check_beta_floor(disc, lam)
    alpha = disc.eval_node(disc.problem.alpha, lam=lam)
    g = np.max(constraint_values(disc, point.state.values, lam), axis=0)
    w = (disc.trace(point.adjoint.values) - alpha) / beta + g
    lhs = g + point.control.values
    return float(np.max(np.abs(lhs - np.minimum(w, 0.0))))


# ---------------------------------------------------------------------------
# second order
# ---------------------------------------------------------------------------


#: tolerance of the critical cone checks, relative to the direction size
_CONE_TOL = 1e-8

#: cap sweeps of the weak-inequality projection onto the critical cone
_CONE_SWEEPS = 30

#: entries of one control block (Nb, k) in the sampled estimator:
#: 128 columns on the 64-node reference boundary, never fewer than one
_BLOCK_FLOATS = 128 * 64

#: eigen-solves of the exact search of :func:`_pencil_minimum` before
#: ``check_ssc`` gives up on it and samples instead
_BRACKET_MAX_SOLVES = 60


# The dense kernels of the reduced Newton step and the SSC check call LAPACK
# directly: each calls the routine its scipy.linalg counterpart calls, with
# the same arguments and the same workspace, so it returns the same bits,
# and keeps the wrapper's checks and errors, without its dispatch.
_dpotrf, _dpotrs, _dsyevr, _dsyevr_lwork = \
    scipy.linalg.lapack.get_lapack_funcs(
        ("potrf", "potrs", "syevr", "syevr_lwork"), dtype=np.float64)


def _cho_factor(a: np.ndarray, lower: bool = False) -> tuple:
    """``scipy.linalg.cho_factor(a, lower)`` of a square float array:
    ``dpotrf`` with ``clean=0`` on a copy of ``a``.  A non-finite entry
    raises ``ValueError`` and a leading minor that is not positive definite
    ``np.linalg.LinAlgError``, as there."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    c, info = _dpotrf(a, lower=lower, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"LAPACK reported an illegal value in {-info}-th "
                         f"argument on entry to \"POTRF\".")
    return c, lower


def _cho_solve(c_and_lower: tuple, b: np.ndarray) -> np.ndarray:
    """``scipy.linalg.cho_solve(c_and_lower, b)`` for a factor of
    :func:`_cho_factor`: ``dpotrs`` on a copy of ``b``.  A non-finite entry
    of ``b`` raises ``ValueError``; the factor needs no check, since
    ``dpotrf`` succeeded on finite entries."""
    c, lower = c_and_lower
    if not np.isfinite(b).all():
        raise ValueError("array must not contain infs or NaNs")
    x, info = _dpotrs(c, b, lower=lower)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal "
                         f"potrs")
    return x


@functools.lru_cache(maxsize=16)
def _syevr_workspace(n: int) -> tuple:
    """``(lwork, liwork)`` of ``dsyevr`` on an n x n matrix, as
    ``scipy.linalg.eigh`` queries them: the default workspace of the f2py
    wrapper runs ``dsytrd`` unblocked, which sums in another order."""
    return scipy.linalg.lapack._compute_lwork(_dsyevr_lwork, n=n, lower=1)


def _smallest_eigenpair(a: np.ndarray) -> tuple:
    """``scipy.linalg.eigh(a, subset_by_index=[0, 0])`` of a symmetric
    float array, as ``(mu, x)`` with ``x`` (n,): ``dsyevr`` with
    ``range='I', il=iu=1, lower=1`` and the workspace of
    :func:`_syevr_workspace`, on the lower triangle of ``a``, which it may
    overwrite.  A non-finite entry raises ``ValueError`` and a failure of
    the routine ``np.linalg.LinAlgError``, as there."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    lwork, liwork = _syevr_workspace(a.shape[0])
    w, v, _, _, info = _dsyevr(a, compute_v=1, range="I", il=1, iu=1,
                               lower=1, lwork=lwork, liwork=liwork,
                               overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevr failed: info = {info}")
    return float(w[0]), v[:, 0]


def _curvature_operator(disc: Discretization, point: KktPoint) -> tuple:
    """The curvature form at ``point`` as two assembled matrices::

        A_y = M[L_yy + adj h_yy] + M_B[l_yy + sum_i e_i g_iyy]   (V, V)
        B_u = M_B[beta]                      (Nb, Nb), boundary numbering

    The mass matrices use the module's quadrature rules, so
    ``int w (sum_a y_a phi_a)^2 = y^T M[w] y`` holds exactly.

    ``A_y`` is one matrix on the triangle pattern: the domain sum of
    ``domain_mass_weighted``, onto whose boundary-edge entries the values
    of ``boundary_mass_weighted`` are added in place, as
    ``Discretization.jacobian_matrix`` adds ``c M_B``.  Those are the sums
    scipy's ``M[.] + M_B[.]`` computes, without its pattern merge.  A term
    whose folded second derivative is ``Const(0.0)`` (``h_yy`` for a
    linear ``h``, ``l_yy`` for ``l = 0``, ``g_iyy`` for a linear
    constraint) is neither evaluated nor summed, and a weight without a
    term adds no boundary sum; the terms left are added in their order.
    A skipped term only added zeros, and a sum into the pattern starts
    from +0.0, so the values are those of the full sum bit for bit.  The
    one difference is that an entry that sums to exactly zero stays,
    where scipy's addition would drop it, which changes no product with a
    finite vector.
    """
    p = disc.problem
    y = point.state.values
    lam = point.param.values
    dom = []
    if not _is_zero(p.obj_domain_yy):
        dom.append(disc.eval_dom(p.obj_domain_yy, y=y))
    if not _is_zero(p.reaction_yy):
        dom.append(disc.tri_interp(point.adjoint.values)
                   * disc.eval_dom(p.reaction_yy, y=y))
    bnd = []
    if not _is_zero(p.obj_boundary_yy):
        bnd.append(disc.eval_bnd(p.obj_boundary_yy, y=y, lam=lam))
    for gyy, e in zip(p.constraints_yy, point.multipliers):
        if not _is_zero(gyy):
            bnd.append(disc.edge_interp(e) * disc.eval_bnd(gyy, y=y, lam=lam))
    a_y = disc.domain_mass_weighted(
        sum(dom[1:], dom[0]) if dom else np.zeros(disc.tables.qw_dom.shape))
    if bnd:
        a_y.data[disc.tables.bnd_in_tri] += \
            disc.boundary_mass_weighted(sum(bnd[1:], bnd[0])).data
    b_u = disc.boundary_mass_weighted(disc.eval_bnd(p.beta, lam=lam))
    return a_y, b_u


def _is_zero(e) -> bool:
    """True for an expression folded to the constant zero."""
    return isinstance(e, Const) and e.value == 0.0


def quadratic_form(disc: Discretization, point: KktPoint,
                   y_dir: np.ndarray, u_dir: np.ndarray) -> float:
    """Curvature form of the optimality system at ``point``::

        Q(y, u) = int (L_yy + adj h_yy) y^2 dx
                + int_bnd (l_yy y^2 + beta u^2 + sum_i e_i g_iyy y^2) ds.

    Evaluated as ``y^T A_y y + u^T B_u u`` with the assembled curvature
    operator, for any ``y`` (V,) and ``u`` (Nb,); for these quadrature rules
    this is the quadrature sum, up to rounding.  Each call assembles the
    operator.  ``check_ssc`` evaluates the same form at ``y = T u`` as
    ``u^T H u`` (see ``_ConeGeometry``).  Raises ``ValueError`` unless the
    point carries one multiplier per constraint.
    """
    _require_multipliers(disc, point)
    a_y, b_u = _curvature_operator(disc, point)
    y, u = np.asarray(y_dir, float), np.asarray(u_dir, float)
    return float(np.sum(y * (a_y @ y)) + np.sum(u * (b_u @ u)))


class _ReducedForms:
    """Boundary-sized forms of the reduced problem at ``point``.

    A control ``u`` has the linearized state ``T u`` (``T`` the dense
    (V, Nb) control-to-state map).  Built on first use: ``T``,
    ``Tb = T[boundary]`` (the trace), the reduced Hessian ``H`` (curvature
    ``u^T H u``, with the point's multipliers), and ``M_bb`` and
    ``T^T M T`` (the squared norms of ``u`` and ``T u``).  ``H`` is the SSC
    curvature in :func:`check_ssc` and, at zero multipliers, the Newton
    matrix of :func:`ctrlstab.solver.solve_kkt`.  ``T`` itself lives in the
    ``Discretization``, next to the factorization at the point's state, so
    the forms of points that share that factorization share one ``T``.
    """

    def __init__(self, disc: Discretization, point: KktPoint):
        self.disc = disc
        self.point = point

    @functools.cached_property
    def t_mat(self) -> np.ndarray:
        """Dense control-to-linearized-state map ``T``, (V, Nb), from
        :meth:`ctrlstab.fem.Discretization.control_to_state`; shared, so
        do not mutate it."""
        op = linearized_operator(self.disc, self.point.state.values)
        return self.disc.control_to_state(op)

    @functools.cached_property
    def t_bnd(self) -> np.ndarray:
        """``Tb = T[boundary]``, (Nb, Nb)."""
        return self.t_mat[self.disc.mesh.boundary_vertices, :]

    @functools.cached_property
    def hess(self) -> np.ndarray:
        """Reduced Hessian ``H = T^T (A_y T) + B_u``, (Nb, Nb), with the
        operator of :func:`_curvature_operator`: ``A_y`` one matrix on the
        triangle pattern, without the terms that fold to zero."""
        a_y, b_u = _curvature_operator(self.disc, self.point)
        return self.t_mat.T @ (a_y @ self.t_mat) + b_u.toarray()

    @functools.cached_property
    def masses(self) -> tuple:
        """``(M_bb, T^T M T)``: the squared L2 norms of ``u`` and ``T u``."""
        form = self.disc.form
        return (form.mass_boundary_bb.toarray(),
                self.t_mat.T @ (form.mass_domain @ self.t_mat))


def _activity_tolerance(u: np.ndarray) -> float:
    """``eps_act`` at a point with control ``u``: a constraint within it of
    binding is active, and an active pair with a multiplier above it is
    strong."""
    return 1e-8 * (1.0 + float(np.max(np.abs(u))))


class _ConeGeometry(_ReducedForms):
    """Active-set data and the reduced forms shared by both estimators.

    A critical direction is a control ``u`` with linearized state ``T u``;
    every method reads it through the (Nb, Nb) forms of
    :class:`_ReducedForms`, so a sample costs O(Nb^2), not O(V).  The
    sampling methods act on control blocks (Nb, k).
    """

    def __init__(self, disc: Discretization, point: KktPoint):
        _require_multipliers(disc, point)
        super().__init__(disc, point)
        u = point.control.values
        lam = point.param.values
        self.eps_act = _activity_tolerance(u)
        slack = constraint_values(disc, point.state.values, lam) + u  # <= 0
        self.active = slack >= -self.eps_act  # (m, Nb)
        self.mult = point.multipliers
        self.mult_scale = float(np.max(self.mult, initial=0.0))
        self.strong = self.active & (self.mult > self.eps_act)
        self.weak = self.active & ~self.strong

    @functools.cached_property
    def gy(self) -> np.ndarray:
        """``dg_i/dy`` at the boundary nodes, (m, Nb); not evaluated where
        :meth:`_pinned_certificate` makes the cone {0}."""
        y, lam = self.point.state.values, self.point.param.values
        return np.stack([self.disc.eval_node(gy, y=y, lam=lam)
                         for gy in self.disc.problem.constraints_y])

    @functools.cached_property
    def z_mat(self) -> np.ndarray:
        """Orthonormal basis of the strong-equality subspace: controls u
        with ``g_y (Tb u) + u = 0`` at every strongly active node.

        Empty, and ``T`` never built, when :meth:`_pinned_certificate`
        shows the subspace is {0}; otherwise the null space, by an SVD, of
        the strong rows, which read ``Tb``.
        """
        if self._pinned_certificate():
            return np.zeros((self.disc.mesh.n_boundary, 0))
        i, j = np.nonzero(self.strong)  # one row per strong pair, in order
        if j.size == 0:
            return np.eye(self.disc.mesh.n_boundary)
        rows = self.gy[i, j, None] * self.t_bnd[j, :]
        rows[np.arange(j.size), j] += 1.0
        _, sv, vt = np.linalg.svd(rows, full_matrices=True)
        rank = int(np.sum(sv > 1e-12 * sv[0]))
        return vt[rank:].T  # (Nb, nz)

    def _pinned_certificate(self) -> bool:
        """True when the strong-equality subspace is {0} because the pinned
        operator ``J = K + M[h_y] + c M_B`` is SPD: every boundary node
        carries a strong pair, the strong pairs' constraints have a
        ``y``-derivative that folds to one constant ``c >= 0`` (see
        :meth:`ctrlstab.problem.ProblemSpec.common_slope`), and the h_y
        weights are nonnegative.  A derivative that takes one value without
        folding to a constant gets no certificate, and its subspace comes
        from ``T``.

        The test is algebra on the admission gates, with no factorization:
        the gates make ``K`` SPD on every ``Discretization`` (see
        :func:`ctrlstab.problem.check_operator`), and with positive
        interior quadrature weights, ``h_y >= 0`` and ``c >= 0``,
        ``M[h_y] + c M_B`` is positive semidefinite, so ``J`` dominates
        ``K``.  The factorization cache is not read: the anchor of ``c``
        only preconditions conjugate gradients.

        A control ``u`` in the subspace has ``y = T u`` with
        ``(K + M[h_y]) y = M_B u`` and ``u = -c y|_B``, so ``J y = 0``:
        ``y = 0`` and ``u = 0``.  The SVD of :attr:`z_mat` would find the
        same: the strong rows are those of
        ``I + c Tb = M_bb^-1/2 (I + c M_bb^1/2 S M_bb^1/2) M_bb^1/2``,
        ``S = P (K + M[h_y])^-1 P^T`` (``P`` the trace) SPD, so their
        smallest singular value is at least ``1 / sqrt(cond(M_bb))``.
        Where ``h_y < 0``, ``K + M[h_y]`` can be indefinite while ``J`` is
        SPD; the T path raises there, and the certificate leaves it to it.
        """
        if not self.strong.any(axis=0).all():
            return False
        c = self.disc.problem.common_slope(np.nonzero(self.strong)[0])
        w = _reaction_y(self.disc, self.point.state.values)
        return c is not None and c >= 0.0 and bool(np.min(w) >= 0.0)

    def project(self, seeds: np.ndarray) -> np.ndarray:
        """Project control seeds (Nb, k) into the discrete critical cone.

        The strong equalities are enforced exactly by restricting to their
        nullspace basis; the remaining weakly active inequalities are handled
        by alternating the cap ``u <= -g_y Tb u`` with re-projection onto the
        subspace.  Each column stops at the first sweep whose cap moves it
        by at most ``1e-14 (1 + max|u|)``, or after ``_CONE_SWEEPS`` sweeps.
        Returns the controls (Nb, k).
        """
        z = self.z_mat
        u = z @ (z.T @ seeds)
        weak = self.weak[:, :, None]
        if weak.any():
            gy = self.gy[:, :, None]
            live = np.arange(u.shape[1])
            for _ in range(_CONE_SWEEPS):
                u_live = u[:, live]
                bound = np.min(np.where(weak, -gy * (self.t_bnd @ u_live),
                                        math.inf), axis=0)
                u_new = np.minimum(u_live, bound)
                done = (np.max(np.abs(u_new - u_live), axis=0)
                        <= 1e-14 * (1.0 + np.max(np.abs(u_live), axis=0)))
                live = live[~done]
                if live.size == 0:
                    break
                u[:, live] = z @ (z.T @ u_new[:, ~done])
        return u

    def size(self, u: np.ndarray) -> np.ndarray:
        """Per column ``||u||_L2bnd + ||T u||_L2dom``, from ``M_bb`` and
        ``T^T M T``."""
        norms = [np.sqrt(np.maximum(np.sum(u * (mass @ u), axis=0), 0.0))
                 for mass in self.masses]
        return norms[0] + norms[1]

    def value(self, u: np.ndarray) -> np.ndarray:
        """Per column curvature ``Q(T u, u) = u^T H u``."""
        return np.sum(u * (self.hess @ u), axis=0)

    def admissible(self, u: np.ndarray, scale: np.ndarray) -> np.ndarray:
        """Check (iii) on active nodes and first-order criticality, per
        column (``scale`` holds one value per column).

        Criticality is the nodal complementarity product: each multiplier
        weight must sit where the linearized constraint is tight.  (The
        quadrature pairing <grad J, d> is not a valid substitute here: on
        edges joining a strongly active node to an inactive one it picks up
        an interpolation cross term of order h^2 that never vanishes.)
        Without an active pair or a nonzero multiplier there is nothing to
        check, and every column passes.
        """
        if not (self.active.any() or self.mult.any()):
            return np.ones(u.shape[1], dtype=bool)
        lin = self.gy[:, :, None] * (self.t_bnd @ u) + u  # (m, Nb, k)
        viol = np.max(np.where(self.active[:, :, None], lin, -math.inf),
                      axis=(0, 1), initial=-math.inf)
        defect = np.max(np.abs(self.mult[:, :, None] * lin), axis=(0, 1),
                        initial=0.0)
        return ((viol <= _CONE_TOL * scale)
                & (defect <= _CONE_TOL * scale * (1.0 + self.mult_scale)))


def _critical_blocks(cone: _ConeGeometry, n: int,
                     rng: np.random.Generator):
    """Yield the accepted unit controls as blocks (Nb, k), in sample order.

    Seeds are drawn ``k`` at a time with ``rng.standard_normal((k, Nb))``,
    the same stream as ``k`` draws of one seed each, so the result does not
    depend on ``k``.  A seed whose projection fails the cone checks is
    retried flipped; if that fails too, the sample is dropped.
    """
    nb = cone.disc.mesh.n_boundary
    width = max(1, _BLOCK_FLOATS // nb)
    for start in range(0, n, width):
        seeds = rng.standard_normal((min(width, n - start), nb)).T
        u, size, ok = _finish_block(cone, seeds)
        retry = np.flatnonzero(~ok)
        if retry.size:
            u[:, retry], size[retry], ok[retry] = \
                _finish_block(cone, -seeds[:, retry])
        yield u[:, ok] / size[ok]


def _finish_block(cone: _ConeGeometry, seeds: np.ndarray) -> tuple:
    """Project seed columns and run the cone checks: ``(U, size, ok)`` with
    ``ok`` marking the columns that pass."""
    u = cone.project(seeds)
    size = cone.size(u)
    ok = size > 1e-12 * (1.0 + np.max(np.abs(seeds), axis=0))
    return u, size, ok & cone.admissible(u, size)


def _pencil_minimum(h_z: np.ndarray, m_z: np.ndarray, n_z: np.ndarray):
    """Minimum over coefficient vectors ``c`` of
    ``v(c) = c^T h_z c / (|c|_m + |c|_n)^2``, with ``|c|_m^2 = c^T m_z c``
    (``m_z`` SPD) and ``|c|_n^2 = c^T n_z c`` (``n_z`` PSD): ``(value, c)``,
    or None when the search has not closed within ``_BRACKET_MAX_SOLVES``
    eigen-solves.

    For ``a, b >= 0``, ``(a + b)^2`` is the minimum over ``theta`` in
    (0, 1) of ``a^2/theta + b^2/(1 - theta)``, taken at
    ``theta = a/(a + b)``.  So the smallest eigenpair ``(mu, c)`` of the
    pencil ``(h_z, m_z/theta + n_z/(1 - theta))`` has ``mu <= v(c)`` when
    ``mu > 0``, and ``mu`` is a lower bound of the minimum; the two meet
    where ``theta = a/(a + b)`` at ``c``, a stationary point of ``mu``.
    Where positive, ``mu`` is quasi-concave in ``theta`` (the pencil's
    metric is matrix-convex in it), so that point is its maximum and the
    minimum of ``v``.  ``mu`` has the sign of the smallest eigenvalue of
    ``h_z`` at every ``theta``; where negative, ``v(c) <= mu`` and both
    are values of directions, so the result is attained, a stationary
    value that the minimum can only undercut.

    One generalized eigendecomposition, ``n_z W = m_z W diag(d)`` with
    ``W^T m_z W = I``, makes each ``theta`` the standard problem
    ``S (W^T h_z W) S``, ``S = diag((1/theta + d/(1 - theta))^-1/2)``: one
    smallest eigenpair, by :func:`_smallest_eigenpair`, LAPACK's
    ``dsyevr`` with the arguments and workspace of
    ``scipy.linalg.eigh(..., subset_by_index=[0, 0])``, so with its bits,
    on the temporary matrix, which it overwrites.  ``theta`` starts at 1/2
    and takes the fixed-point step ``theta <- a/(a + b)`` while that stays
    inside the bracket and the bracket halves at least every second solve,
    and bisects otherwise.
    ``a/(a + b) > theta`` says that ``mu`` moves away from zero to the
    right, whatever its sign, so the bracket keeps the stationary point.
    The search stops once ``|v(c) - mu| <= 1e-10 (1 + |mu|)`` and returns
    the smaller of the two.
    """
    d, w = scipy.linalg.eigh(n_z, m_z)
    d = np.maximum(d, 0.0)
    h_w = w.T @ h_z @ w
    lo, hi, theta = 0.0, 1.0, 0.5
    widths = [1.0, 1.0]
    for _ in range(_BRACKET_MAX_SOLVES):
        s = (1.0 / theta + d / (1.0 - theta)) ** -0.5
        mu, x = _smallest_eigenpair(s[:, None] * h_w * s)
        c = s * x  # unit size in the pencil's metric: c^T h_w c = mu
        a = _norm2(c)
        b = math.sqrt(float(np.sum(d * c * c)))
        v = mu / (a + b) ** 2
        if abs(v - mu) <= 1e-10 * (1.0 + abs(mu)):
            return min(v, mu), w @ c
        t = a / (a + b)
        if t > theta:
            lo = theta
        else:
            hi = theta
        widths.append(hi - lo)
        halving = widths[-1] <= 0.5 * widths[-3]
        theta = t if lo < t < hi and halving else 0.5 * (lo + hi)
    return None


def _exact_minimum(cone: _ConeGeometry, h_z: np.ndarray, m_z: np.ndarray,
                   n_z: np.ndarray):
    """Minimum of the sampled quantity ``u^T H u / size(u)^2`` over the
    strong-equality subspace, by :func:`_pencil_minimum` in the coordinates
    of ``z_mat`` (``h_z = Z^T H Z``, ``m_z = Z^T M_bb Z``,
    ``n_z = Z^T T^T M T Z``), where its direction passes the cone checks,
    so that the subspace's minimum is the cone's.  None where the search
    does not close or the direction fails them (a point with a multiplier
    off its strong pairs)."""
    found = _pencil_minimum(h_z, m_z, n_z)
    if found is None:
        return None
    value, c = found
    u = cone.z_mat @ c[:, None]
    return value if cone.admissible(u, cone.size(u))[0] else None


def _safe(x):
    """JSON value of ``x``: ``None`` for a float NaN or infinity, else
    ``x``."""
    return None if isinstance(x, float) and not math.isfinite(x) else x


@dataclass
class SscReport:
    """Second-order check summary.

    ``min_rayleigh``: smallest curvature per unit size,
    ``u^T H u / (||u|| + ||T u||)^2``, over the critical directions: exact
    (the lower end of a closed bracket) where no constraint pair is weakly
    active, else the sampled minimum; inf when the cone is numerically
    trivial.  ``n_samples``: 1 on the exact path (its minimizing
    direction); on the sampled path, the accepted sampled directions, plus
    one for the subspace eigen-direction when that direction is
    admissible; 0 on a trivial cone.  ``subspace_min_eig``: smallest
    eigenvalue of the reduced Hessian on the strongly-active equality
    subspace, in the metric ``||u||^2 + ||y(u)||^2``.  ``positive`` holds
    when both estimators are strictly positive.
    """

    min_rayleigh: float
    subspace_min_eig: float
    n_samples: int
    n_strong: int
    positive: bool

    def to_dict(self) -> dict:
        return {"min_rayleigh": _safe(self.min_rayleigh),
                "subspace_min_eig": _safe(self.subspace_min_eig),
                "n_samples": self.n_samples,
                "n_strong": self.n_strong,
                "positive": self.positive}


def check_ssc(disc: Discretization, point: KktPoint, n_samples: int = 200,
              rng: np.random.Generator | None = None) -> SscReport:
    """Estimate the minimum of the curvature form over the critical cone.

    Two estimators, both on the strongly-active equality subspace ``Z``.
    The subspace one is the smallest reduced-Hessian eigenvalue on ``Z``
    via a shifted inverse power iteration.  The other is the minimum of the
    curvature per unit size, ``u^T H u / (||u|| + ||T u||)^2``, over the
    critical cone.  Where no constraint pair is weakly active the cone is
    ``Z``, and that minimum is computed exactly by a one-parameter
    eigenvalue search (:func:`_pencil_minimum`), with ``n_samples = 1``;
    where the eigenvalue is positive, it lies between half of it and it.
    Where a pair is weakly active, or the search does not close within
    ``_BRACKET_MAX_SOLVES`` eigen-solves, or its direction fails the cone
    checks, it is sampled instead: ``n_samples`` projected random
    directions, enriched with the subspace eigen-direction when that
    direction is itself admissible.  A direction is in the cone when its
    linearized constraints and complementarity defect stay within
    ``_CONE_TOL`` times its size.

    Both read the boundary-sized forms of ``_ConeGeometry``: a
    direction's value is ``u^T H u``, ``H = T^T A_y T + B_u`` (the integral
    of :func:`quadratic_form` at ``(T u, u)``), and the subspace metric is
    ``M_bb + T^T M T``.  ``M_bb`` and ``T^T M T`` are each projected onto
    ``Z`` once: the metric is the sum of the two projections, and the
    pencil search reads them apart.  ``T`` is built only where the
    strong-equality subspace needs it: at a point where every boundary
    node is strongly active, the strong constraints have a ``y``-derivative
    that folds to one constant ``c >= 0`` and ``h_y >= 0``, the pinned
    operator ``J = K + M[h_y] + c M_B`` being SPD shows the subspace is
    {0} (see ``_ConeGeometry._pinned_certificate``), and the report
    ``(inf, inf, 0, n_strong, True)`` comes without ``T``, ``H`` or the
    curvature operator.  The admission gates alone show ``J`` is SPD: it
    dominates ``K``, SPD on every ``Discretization``, so nothing is
    factorized; the anchor of ``c`` only preconditions conjugate
    gradients.

    ``rng`` (default ``default_rng(0)``) is drawn from only where the
    sampler runs: in blocks of controls, keeping only a running minimum
    and a count, in the same order as one seed per sample, so a seeded
    report does not depend on the block width.  On the exact path and on a
    trivial cone it is left untouched.  Raises ``ValueError`` unless the
    point carries one multiplier per constraint.

    The curvature operator skips the terms that fold to zero (see
    :func:`_curvature_operator`), and the inverse iteration factorizes and
    solves with LAPACK's ``dpotrf`` and ``dpotrs`` called directly, the
    routines of ``scipy.linalg.cho_factor`` and ``cho_solve`` with the same
    arguments and workspace (:func:`_cho_factor`, :func:`_cho_solve`), so
    the report has the bits of the full sums and the scipy wrappers.

    The inverse iteration stops after 50 steps, converged or not.  On the
    ssc_sample benchmark instance (eigen-gap 7.2e-8) it returns
    1.0000599..., above the 1.0000097... of a dense ``scipy.linalg.eigh``.
    It also recomputes a value that the pencil search already has: the
    search's first solve, at ``theta = 1/2``, is the smallest eigenvalue of
    ``(h_z, m_z/(1/2) + n_z/(1/2)) = (h_z, 2 (m_z + n_z))``, so the exact
    subspace eigenvalue is twice it (1.0000096640595901 there, the
    ``eigh`` value).  It stays until a benchmark-only change regenerates
    ``perfbench/reference.json``, which pins the unconverged value.
    """
    cone = _ConeGeometry(disc, point)
    z_mat = cone.z_mat
    n_strong = int(np.sum(cone.strong))
    if z_mat.shape[1] == 0:
        return SscReport(min_rayleigh=math.inf, subspace_min_eig=math.inf,
                         n_samples=0, n_strong=n_strong, positive=True)

    # reduced Hessian on the strongly-active equality subspace
    a_red = z_mat.T @ cone.hess @ z_mat
    # the subspace metric: M_bb and T^T M T, each projected once
    m_z, n_z = (z_mat.T @ mass @ z_mat for mass in cone.masses)
    a_red, b_red = (0.5 * (a + a.T) for a in (a_red, m_z + n_z))
    chol_b = np.linalg.cholesky(b_red)
    half = scipy.linalg.solve_triangular(chol_b, a_red, lower=True)
    c_sym = scipy.linalg.solve_triangular(chol_b, half.T, lower=True).T
    c_sym = 0.5 * (c_sym + c_sym.T)

    nz = c_sym.shape[0]
    # Gershgorin lower bound keeps the shift strictly below the smallest
    # eigenvalue, so the iteration cannot lock onto an interior one.
    shift = float(np.min(np.diag(c_sym)
                         - (np.sum(np.abs(c_sym), axis=1)
                            - np.abs(np.diag(c_sym))))) - 1.0
    chol_s = _cho_factor(c_sym - shift * np.eye(nz), lower=True)
    x = np.ones(nz)
    x[int(np.argmin(np.diag(c_sym)))] += 1.0
    x /= _norm2(x)
    rq = float(x @ c_sym @ x)
    for it in range(50):
        x = _cho_solve(chol_s, x)
        x /= _norm2(x)
        cx = c_sym @ x
        rq = float(x @ cx)
        res = _norm2(cx - rq * x)
        if res <= 1e-13 * (1.0 + abs(rq)):
            break
        if it == 24:
            # once aligned, move the shift to the certified interval edge
            new_shift = rq - res - 1e-8 * (1.0 + abs(rq))
            if new_shift > shift:
                try:
                    chol_s = _cho_factor(c_sym - new_shift * np.eye(nz),
                                         lower=True)
                    shift = new_shift
                except np.linalg.LinAlgError:
                    pass
    sub_min = rq

    # no weak pair: the cone is the subspace, and its minimum is exact
    min_rayleigh = None if cone.weak.any() else _exact_minimum(
        cone, a_red, m_z, n_z)
    n_accepted = 1  # the exact minimum's direction
    if min_rayleigh is None:
        if rng is None:
            rng = np.random.default_rng(0)
        n_accepted = 0
        min_rayleigh = math.inf
        for u in _critical_blocks(cone, n_samples, rng):
            if u.shape[1]:
                n_accepted += u.shape[1]
                min_rayleigh = min(min_rayleigh,
                                   float(np.min(cone.value(u))))
        # the eigen-direction is a legal sample whenever it lies in the cone
        u_eig = z_mat @ (scipy.linalg.solve_triangular(
            chol_b, x[:, None], lower=True, trans="T"))
        size = cone.size(u_eig)
        if size[0] > 1e-12 and cone.admissible(u_eig, size)[0]:
            n_accepted += 1
            min_rayleigh = min(min_rayleigh,
                               float(cone.value(u_eig / size)[0]))

    positive = (min_rayleigh > 0.0) and (sub_min > 0.0)
    return SscReport(min_rayleigh=float(min_rayleigh),
                     subspace_min_eig=float(sub_min),
                     n_samples=n_accepted, n_strong=n_strong,
                     positive=positive)


__all__ = [
    "KktPoint", "KktResiduals", "PartitionH5", "SscReport",
    "constraint_values", "partition_at", "partition_of",
    "recover_multipliers", "residuals", "check_beta_floor",
    "projection_identity_gap", "quadratic_form", "check_ssc",
]
