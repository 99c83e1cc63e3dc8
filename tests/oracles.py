"""Independent reference computations used by the test suite.

Everything here deliberately avoids the package's own assembly and solver
paths: dense Gaussian elimination instead of the banded Cholesky, a 1-D
finite-volume radial solver instead of the 2-D triangulation, a power-series
Bessel evaluation instead of any library special function, a quasi-Newton
penalty minimizer instead of the KKT fixed-point iteration, a
direction-at-a-time critical cone sampler with a quadrature curvature form
instead of the blocked sampler over the assembled curvature operator, a
control-to-state map by dense elimination and a null space by
``scipy.linalg.null_space`` instead of the band solve and the pinned-point
certificate, a grid of full generalized eigenproblems for the critical-cone
minimum instead of the bracketed search on one diagonalization, the plain
damped projection iteration instead of the solver's with its Newton and
pinned steps, and a cell-by-cell table of partition margins instead of one
sort.

The set-up kernels are the earlier versions of the library's: a ring
merge pair by pair instead of all pairs at once, edge keys by a sort along
the end axis instead of ``minimum``/``maximum``, a ``np.unique`` pattern
instead of one argsort, ``einsum`` stiffness element matrices and
quadrature points instead of broadcast products and sums, and a
``searchsorted`` transpose map instead of the pattern's scatter, and a
boundary mass and boundary load in vertex numbering, summed over
``mesh.boundary_edges``, instead of the boundary-numbered ones and their
``embed``.  The library's must give their bits.  So must its curvature operator, against
the earlier sum of a domain and a boundary mass matrix with every term
evaluated, zero or not.

The reduced cost and its adjoint-based gradient, the boundary pairing and
the a-priori quotient are test references of another kind: they compose the
package's state and adjoint solves into the quantities that the derivative
and stability checks difference and bound, and no library path needs them.
"""
import math

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse

# the reference loops share the library's constants, so they cannot drift
from ctrlstab.fem import (_EDGE_PRODUCTS, _TRI_PRODUCTS, EDGE_BASIS,
                          TRI_BASIS, BoundaryFunction, FeFunction,
                          nodal_values, norm)
from ctrlstab.kkt import _CONE_SWEEPS, _CONE_TOL
from ctrlstab.pde import solve_adjoint, solve_state
from ctrlstab.solver import _NEWTON_TOL, objective_value


def dense_solve(a, b):
    """Gaussian elimination with partial pivoting, no library solver."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape[0] != n:
        raise ValueError("incompatible shapes")
    aug = np.hstack([a, b.reshape(n, -1)])
    for k in range(n):
        p = k + int(np.argmax(np.abs(aug[k:, k])))
        if abs(aug[p, k]) < 1e-300:
            raise ValueError("singular matrix")
        if p != k:
            aug[[k, p]] = aug[[p, k]]
        factors = aug[k + 1:, k] / aug[k, k]
        aug[k + 1:, k:] -= np.outer(factors, aug[k, k:])
    x = np.zeros_like(aug[:, n:])
    for k in range(n - 1, -1, -1):
        x[k] = (aug[k, n:] - aug[k, k + 1:n] @ x[k + 1:]) / aug[k, k]
    return x.reshape(b.shape)


def partition_margin(g):
    """Labels and separation margin of constraint values ``g`` (m, Nb),
    m >= 2, cell by cell: the margin of cell ``i`` against constraint
    ``k != i`` is the largest ``g_k - g_i`` over the nodes labelled ``i``
    (the argmax, ties to the lowest index), and ``sigma1`` is minus the
    largest margin over the nonempty cells."""
    m = g.shape[0]
    labels = np.argmax(g, axis=0)
    worst = -math.inf
    for i in range(m):
        cell = labels == i
        if not np.any(cell):
            continue
        for k in range(m):
            if k != i:
                worst = max(worst, float(np.max(g[k, cell] - g[i, cell])))
    return labels, -worst


def reduced_cost(disc, lam, u, newton_tol=1e-12):
    """Cost of the control ``u`` at parameter ``lam`` through the state map."""
    lam = nodal_values(lam, disc.mesh.n_boundary)
    u = nodal_values(u, disc.mesh.n_boundary)
    state = solve_state(disc, u, lam, tol=newton_tol)
    return objective_value(disc, state.state, u, lam)


def reduced_gradient(disc, lam, u, newton_tol=1e-12):
    """Value and adjoint-based gradient of the reduced cost.

    The gradient is the boundary density ``alpha + beta u - adjoint`` (with
    the constraint-free adjoint): the directional derivative along ``du`` is
    its boundary L2 pairing with ``du``.  Returns ``(value, gradient)``.
    """
    lam = nodal_values(lam, disc.mesh.n_boundary)
    u = nodal_values(u, disc.mesh.n_boundary)
    state = solve_state(disc, u, lam, tol=newton_tol)
    zero = np.zeros((disc.problem.m, disc.mesh.n_boundary))
    adj = solve_adjoint(disc, state.state.values, lam, zero)
    alpha = disc.eval_node(disc.problem.alpha, lam=lam)
    beta = disc.eval_node(disc.problem.beta, lam=lam)
    grad = alpha + beta * u - disc.trace(adj.values)
    value = objective_value(disc, state.state, u, lam)
    return value, BoundaryFunction(disc.mesh, grad)


def pair_boundary(disc, f, g):
    """Boundary L2 pairing of two boundary nodal fields."""
    f = nodal_values(f, disc.mesh.n_boundary)
    g = nodal_values(g, disc.mesh.n_boundary)
    return float(f @ (disc.form.mass_boundary_bb @ g))


def a_priori_ratio(disc, y, u, lam):
    """The a-priori quotient ``||y||_W1r / (||u|| + ||lam||)`` of a state
    and its boundary nodal data, both control norms in L2 of the boundary;
    0 for zero data and inf if a nonzero state came from zero data."""
    num = norm(FeFunction(disc.mesh, y), "w1r", disc.problem.r)
    den = disc.l2_boundary(u) + disc.l2_boundary(lam)
    if den > 0.0:
        return num / den
    return 0.0 if num <= 1e-10 else float("inf")


def bessel_i(nu, x, terms=60):
    """Modified Bessel function of integer order by its power series."""
    total = 0.0
    for k in range(terms):
        total += (x / 2.0) ** (2 * k + nu) / (
            math.factorial(k) * math.factorial(k + nu))
    return total


def radial_trace_linear(b):
    """Trace at r=1 of the radial solution of -lap(y) + 2 y = 0 on the unit
    disk with Neumann datum y'(1) = b: y(r) = b I0(sqrt(2) r) / (sqrt(2)
    I1(sqrt(2)))."""
    s = math.sqrt(2.0)
    return b * bessel_i(0, s) / (s * bessel_i(1, s))


def radial_solve(b, a0, h, h_prime, n_cells=4000, tol=1e-12):
    """Finite-volume Newton solve of the radial two-point problem

        -(r y')' + r (a0 y + h(y)) = 0 on (0, 1),  y'(0) = 0,  y'(1) = b.

    Returns the nodal radii and values on a uniform grid.  The scheme is the
    standard conservative one; the r=0 cell closes the left flux exactly.
    """
    n = n_cells
    dr = 1.0 / n
    r = np.linspace(0.0, 1.0, n + 1)
    half = r[:-1] + 0.5 * dr
    # control volume integral of r dr around each node
    vol = np.empty(n + 1)
    vol[0] = 0.5 * half[0] ** 2
    vol[1:-1] = 0.5 * (half[1:] ** 2 - half[:-1] ** 2)
    vol[-1] = 0.5 * (1.0 - half[-1] ** 2)
    y = np.zeros(n + 1)
    for _ in range(60):
        flux = half * np.diff(y) / dr
        res = np.empty(n + 1)
        res[0] = -flux[0]
        res[1:-1] = flux[:-1] - flux[1:]
        res[-1] = flux[-1] - b
        res += vol * (a0 * y + h(y))
        if np.max(np.abs(res)) <= tol * (1.0 + abs(b)):
            return r, y
        w = half / dr
        diag = np.empty(n + 1)
        diag[0] = w[0]
        diag[1:-1] = w[:-1] + w[1:]
        diag[-1] = w[-1]
        diag += vol * (a0 + h_prime(y))
        ab = np.zeros((3, n + 1))
        ab[0, 1:] = -w
        ab[1] = diag
        ab[2, :-1] = -w
        y = y - scipy.linalg.solve_banded((1, 1), ab, res)
    raise RuntimeError("radial Newton did not converge")


def penalty_minimize(cost, violation, n_controls, weights, mu_path=None,
                     x0=None):
    """Brute-force reference minimizer: shifted quadratic-penalty
    continuation with L-BFGS-B inner solves and finite-difference gradients.

    ``cost(u)`` is the objective, ``violation(u)`` the vector of pointwise
    constraint excesses (positive parts enter the penalty), ``weights`` the
    quadrature weights pairing them.  After each inner solve the shifts
    absorb ``mu * violation``, so the weight can stay moderate (where the
    inner quasi-Newton loop still converges) while the iterate approaches
    the exactly constrained minimizer.  Returns the final control.
    """
    if mu_path is None:
        mu_path = [1e2, 1e3, 1e4, 1e4, 1e4, 1e4, 1e4]
    u = np.zeros(n_controls) if x0 is None else np.asarray(x0, float).copy()
    shift = np.zeros(len(weights))

    for mu in mu_path:
        def penalized(v):
            sv = np.maximum(shift + mu * violation(v), 0.0)
            return cost(v) + float(weights @ (sv ** 2 - shift ** 2)) \
                / (2.0 * mu)

        # central differences: the penalty term is locally quadratic, so
        # the 3-point stencil is exact up to roundoff, where a one-sided
        # stencil's O(mu * eps) bias stalls the search
        res = scipy.optimize.minimize(
            penalized, u, method="L-BFGS-B", jac="3-point",
            options={"maxiter": 2000, "ftol": 1e-15, "gtol": 1e-12})
        u = res.x
        shift = np.maximum(shift + mu * violation(u), 0.0)
    return u


def quadrature_curvature(disc, point, y_dir, u_dir):
    """Curvature form summed at the quadrature points::

        int (L_yy + adj h_yy) y^2 dx
            + int_bnd (l_yy y^2 + beta u^2 + sum_i e_i g_iyy y^2) ds.
    """
    p = disc.problem
    y_base = point.state.values
    lam = point.param.values
    w_dom = disc.eval_dom(p.obj_domain_yy, y=y_base) \
        + disc.tri_interp(point.adjoint.values) \
        * disc.eval_dom(p.reaction_yy, y=y_base)
    q_val = disc.integrate_domain(w_dom * disc.tri_interp(y_dir) ** 2)
    w_bnd = disc.eval_bnd(p.obj_boundary_yy, y=y_base, lam=lam)
    for gyy, e in zip(p.constraints_yy, point.multipliers):
        w_bnd = w_bnd + disc.edge_interp(e) \
            * disc.eval_bnd(gyy, y=y_base, lam=lam)
    ytq = disc.edge_interp(disc.trace(y_dir))
    beta_q = disc.eval_bnd(p.beta, lam=lam)
    uq = disc.edge_interp(u_dir)
    q_val += disc.integrate_boundary(w_bnd * ytq ** 2 + beta_q * uq ** 2)
    return float(q_val)


def dense_control_to_state(disc, y):
    """The control-to-linearized-state map (V, Nb) at the state ``y``, by
    Gaussian elimination on ``K + M[h_y]``."""
    op = disc.form.stiffness.toarray() + disc.domain_mass_weighted(
        disc.eval_dom(disc.problem.reaction_y, y=y)).toarray()
    bv = disc.mesh.boundary_vertices
    return dense_solve(op, vertex_boundary_mass(disc).toarray()[:, bv])


def strong_equality_nullspace(disc, point):
    """Orthonormal basis (Nb, nz) of the strong-equality subspace at
    ``point``: the null space of the rows ``g_iy (T u)|_B + u`` at the
    strongly active pairs ``(i, j)``, ``T`` the dense control-to-state map
    of :func:`dense_control_to_state`, and activity read with the
    tolerances of ``check_ssc``."""
    p = disc.problem
    y = point.state.values
    lam = point.param.values
    u = point.control.values
    bv = disc.mesh.boundary_vertices
    t_bnd = dense_control_to_state(disc, y)[bv]
    eps = 1e-8 * (1.0 + float(np.max(np.abs(u))))
    rows = []
    for g, gy, e in zip(p.constraints, p.constraints_y, point.multipliers):
        slack = disc.eval_node(g, y=y, lam=lam) + u
        gy_node = disc.eval_node(gy, y=y, lam=lam)
        for j in np.flatnonzero((slack >= -eps) & (e > eps)):
            row = gy_node[j] * t_bnd[j]
            row[j] += 1.0
            rows.append(row)
    if not rows:
        return np.eye(len(bv))
    return scipy.linalg.null_space(np.array(rows), rcond=1e-12)


def subspace_minimum_grid(disc, point):
    """Minimum of ``u^T H u / (||u|| + ||T u||)^2`` over the strong-equality
    subspace at ``point``, and the generalized eigenvalues of
    ``(H, M_bb + T^T M T)`` there, ascending: ``(minimum, eigenvalues)``.

    ``Z`` from :func:`strong_equality_nullspace`, ``T`` from
    :func:`dense_control_to_state`, and ``Z^T H Z`` by polarizing
    :func:`quadrature_curvature` on the columns of ``Z``.  The minimum is
    ``max`` (where the eigenvalues are positive; ``min`` where negative)
    over ``theta`` of the smallest eigenvalue of the full pencil
    ``(Z^T H Z, Z^T (M_bb/theta + T^T M T/(1 - theta)) Z)``: on 199 equally
    spaced interior points, then on 21 points across the two grid steps
    around the best one, again and again until the step is below 1e-12.
    """
    z = strong_equality_nullspace(disc, point)
    y_basis = dense_control_to_state(disc, point.state.values) @ z
    nz = z.shape[1]

    def q(c):
        return quadrature_curvature(disc, point, y_basis @ c, z @ c)

    eye = np.eye(nz)
    diag = [q(e) for e in eye]
    h = np.array([[0.5 * (q(eye[i] + eye[j]) - diag[i] - diag[j])
                   for j in range(nz)] for i in range(nz)])
    m = z.T @ (disc.form.mass_boundary_bb @ z)
    n = y_basis.T @ (disc.form.mass_domain @ y_basis)
    eigenvalues = scipy.linalg.eigh(h, m + n, eigvals_only=True)
    pick = np.argmax if eigenvalues[0] > 0.0 else np.argmin

    def mu(theta):
        return scipy.linalg.eigh(h, m / theta + n / (1.0 - theta),
                                 eigvals_only=True,
                                 subset_by_index=[0, 0])[0]

    grid = np.linspace(0.0, 1.0, 201)[1:-1]
    step = grid[1] - grid[0]
    while True:
        values = np.array([mu(t) for t in grid])
        best = int(pick(values))
        if step < 1e-12:
            return float(values[best]), eigenvalues
        grid = np.linspace(max(grid[best] - step, 1e-13),
                           min(grid[best] + step, 1.0 - 1e-13), 21)
        step = grid[1] - grid[0]


def project_one(cone, u):
    """Project one control seed into the discrete critical cone described by
    ``cone`` (a ``ctrlstab.kkt._ConeGeometry``), one vector at a time.

    Returns ``(y, u, n_sweeps)``, where ``n_sweeps`` counts the cap sweeps
    run before the cap stopped moving ``u`` (0 without weak nodes).
    """
    disc = cone.disc
    z = cone.z_mat
    if z.shape[1] == 0:
        return np.zeros(disc.mesh.n_vertices), np.zeros_like(u), 0
    u = z @ (z.T @ u)
    y = cone.t_mat @ u
    weak = cone.active & ~cone.strong
    n_sweeps = 0
    if weak.any():
        for _ in range(_CONE_SWEEPS):
            n_sweeps += 1
            yb = disc.trace(y)
            bound = np.min(np.where(weak, -cone.gy * yb, math.inf), axis=0)
            u_new = np.minimum(u, bound)
            if np.max(np.abs(u_new - u)) <= 1e-14 * (1.0 + np.max(np.abs(u))):
                break
            u = z @ (z.T @ u_new)
            y = cone.t_mat @ u
    return y, u, n_sweeps


def _admissible_one(cone, y, u, scale):
    lin = cone.gy * cone.disc.trace(y) + u
    viol = np.where(cone.active, lin, -math.inf)
    if float(np.max(viol, initial=-math.inf)) > _CONE_TOL * scale:
        return False
    defect = float(np.max(np.abs(cone.mult * lin), initial=0.0))
    return defect <= _CONE_TOL * scale * (1.0 + cone.mult_scale)


def _finish_one(cone, seed):
    disc = cone.disc
    y, u, _ = project_one(cone, seed.copy())
    size = disc.l2_boundary(u) + norm(FeFunction(disc.mesh, y), "l2")
    if size <= 1e-12 * (1.0 + float(np.max(np.abs(seed)))):
        return None
    if not _admissible_one(cone, y, u, size):
        return None
    return y / size, u / size


def sample_directions_one_by_one(cone, n, rng):
    """Critical directions drawn, projected and checked one seed at a time,
    the flipped seed retried on rejection; returns ``[(y, u), ...]`` of unit
    size (quadrature norms) in sample order."""
    out = []
    for _ in range(n):
        seed = rng.standard_normal(cone.disc.mesh.n_boundary)
        direction = _finish_one(cone, seed)
        if direction is None:
            direction = _finish_one(cone, -seed)
        if direction is not None:
            out.append(direction)
    return out


def damped_solve_kkt(disc, lam, u0=None, options=None):
    """The damped projection fixed-point iteration alone: every outer
    iteration takes the damped step ``u <- (1 - theta) u +
    theta u_target`` (multipliers damped alike), with the same fixed
    damping factor and stopping rule as ``solve_kkt``.  Returns a
    ``KktSolveReport``; raises ``SolverError`` or ``PartitionError`` as the
    solver does.
    """
    from ctrlstab import (BoundaryFunction, KktPoint, KktSolveReport,
                          PartitionError, SolveOptions, SolverError)
    from ctrlstab.kkt import (check_beta_floor, constraint_values,
                              partition_at, recover_multipliers, residuals)
    from ctrlstab.pde import linearized_operator, solve_adjoint, solve_state

    opts = options or SolveOptions()
    lam = np.asarray(getattr(lam, "values", lam), dtype=float)
    u = np.zeros_like(lam) if u0 is None \
        else np.array(getattr(u0, "values", u0), dtype=float)
    check_beta_floor(disc, lam)
    alpha = disc.eval_node(disc.problem.alpha, lam=lam)
    beta = disc.eval_node(disc.problem.beta, lam=lam)

    adjoint = np.zeros(disc.mesh.n_vertices)
    e_vals = np.zeros((disc.problem.m, disc.mesh.n_boundary))
    y_warm = None
    theta = opts.theta
    best = None
    history = []
    lam_fn = BoundaryFunction(disc.mesh, lam)

    for it in range(1, opts.max_outer + 1):
        state = solve_state(disc, u, lam, y0=y_warm, tol=_NEWTON_TOL)
        y_warm = state.state.values
        part = partition_at(disc, y_warm, lam)
        if not (part.sigma1 > 0.0):
            raise PartitionError(f"sigma1 = {part.sigma1:.3e} at "
                                 f"iteration {it}")
        raw = recover_multipliers(disc, y_warm, u, adjoint, lam, part)
        e_vals = (1.0 - theta) * e_vals + theta * raw
        # factorize at y_warm, so that the adjoint solve uses that factor
        linearized_operator(disc, y_warm)
        adj_fn = solve_adjoint(disc, y_warm, lam, e_vals)
        adjoint = adj_fn.values
        point = KktPoint(state=state.state,
                         control=BoundaryFunction(disc.mesh, u.copy()),
                         adjoint=adj_fn, multipliers=e_vals, param=lam_fn)
        res = residuals(disc, point)
        history.append(res.worst)
        if best is None or res.worst < best.worst:
            best = res
        if res.worst <= opts.tol:
            return KktSolveReport(point=point, residuals=res, iterations=it,
                                  sigma1=part.sigma1, history=history)
        g_max = np.max(constraint_values(disc, y_warm, lam), axis=0)
        target = np.minimum(-g_max, (disc.trace(adjoint) - alpha) / beta)
        u = (1.0 - theta) * u + theta * target

    raise SolverError("outer iteration did not converge", opts.max_outer,
                      best)


# --- the set-up kernels


def ring_merge_mesh(n):
    """Vertices (V, 2) and counterclockwise triangles (T, 3) of the disk
    mesh with ``n`` boundary points, ring by ring and one ring pair at a
    time: the fan of the center and ring 1, then each pair's triangles of
    its inner edges and of its outer edges, merged in midpoint-key order."""
    rings = max(1, round(n / (2.0 * math.pi)))
    points = [np.zeros((1, 2))]
    layout = [(0, 1, 0)]   # per ring: first vertex, point count, 2 offset
    for k in range(1, rings + 1):
        count = n if k == rings else max(6, round(n * k / rings))
        twice_offset = 0 if k == rings else (rings - k) % 2
        theta = 2.0 * math.pi * (np.arange(count) + 0.5 * twice_offset) \
            / count
        layout.append((layout[-1][0] + layout[-1][1], count, twice_offset))
        points.append((k / rings) * np.column_stack([np.cos(theta),
                                                     np.sin(theta)]))
    vertices = np.vstack(points)
    first, count, _ = layout[1]
    ring1 = first + np.arange(count)
    triangles = [np.column_stack([np.zeros(count, dtype=int), ring1,
                                  np.roll(ring1, -1)])]
    for (ia, a, oa), (ib, b, ob) in zip(layout[1:], layout[2:]):
        ea, eb = np.arange(a), np.arange(b)
        ka, kb = (2 * ea + oa + 1) * b, (2 * eb + ob + 1) * a
        facing_a = np.searchsorted(kb, ka, side="left") % b
        facing_b = np.searchsorted(ka, kb, side="right") % a
        triangles += [
            np.column_stack([ia + ea, ia + (ea + 1) % a, ib + facing_a]),
            np.column_stack([ib + eb, ib + (eb + 1) % b, ia + facing_b])]
    triangles = np.vstack(triangles)
    p = vertices[triangles]
    area2 = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
             - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))
    flip = area2 < 0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    return vertices, triangles


def sorted_edge_keys(triangles, n_vertices):
    """The key ``a V + b`` (a < b) of side ``i`` (corners ``i``, ``i + 1``)
    of each triangle, (T, 3), by sorting each side's two ends."""
    tris = triangles.astype(np.int64)
    ends = np.sort(np.stack([tris, np.roll(tris, -1, axis=1)]), axis=0)
    return ends[0] * n_vertices + ends[1]


def unique_pattern(cells, n):
    """``keys``, ``pos``, ``indices`` and ``indptr`` of the CSR pattern of
    element matrices over ``cells`` (C, k) of an (n, n) matrix, by
    ``np.unique`` of the entry keys ``cells[t, a] n + cells[t, b]``."""
    c = cells.astype(np.int64)
    keys, pos = np.unique((c[:, :, None] * n + c[:, None, :]).ravel(),
                          return_inverse=True)
    indices = (keys % n).astype(np.int32)
    indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int32)
    return keys, pos, indices, indptr


def argsort_pattern(cells, n):
    """``keys``, ``pos``, ``indices``, ``indptr`` and ``mirror`` of the CSR
    pattern of element matrices over ``cells`` (C, k) of an (n, n) matrix,
    by one stable argsort of the ``C k k`` entry keys: the first of each
    run of equal sorted keys starts an entry, and the entry of each
    transposed element entry is its mirror."""
    c = cells.astype(np.int64)
    k = c.shape[1]
    key = (c[:, :, None] * n + c[:, None, :]).ravel()
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    first = np.empty(len(key), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    keys = ordered[np.flatnonzero(first)]
    pos = np.empty(len(key), dtype=np.intp)
    pos[order] = np.cumsum(first) - 1
    indices = (keys % n).astype(np.int32)
    indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int32)
    mirror = np.empty(len(keys), dtype=np.intp)
    mirror[pos] = pos.reshape(-1, k, k).transpose(0, 2, 1).ravel()
    return keys, pos, indices, indptr, mirror


def searchsorted_mirror(keys, n):
    """The entry of each entry's transpose in a symmetric pattern, by
    looking the transposed key up in the sorted ``keys``."""
    return np.searchsorted(keys, keys % n * n + keys // n)


def einsum_quadrature_points(mesh):
    """Interior quadrature points (T, 3, 2) by ``einsum``."""
    return np.einsum("qn,tnd->tqd", TRI_BASIS, mesh.vertices[mesh.triangles])


def einsum_stiffness(i11, i12, i22, grads):
    """Diffusion element matrices (T, 3, 3) by ``einsum``."""
    gx, gy = grads[:, :, 0], grads[:, :, 1]
    return (np.einsum("t,ta,tb->tab", i11, gx, gx)
            + np.einsum("t,ta,tb->tab", i12, gx, gy)
            + np.einsum("t,ta,tb->tab", i12, gy, gx)
            + np.einsum("t,ta,tb->tab", i22, gy, gy))


def stiffness_matrix(disc):
    """The stiffness matrix ``K`` of ``disc`` from its coefficients at the
    quadrature points, with the kernels above: ``einsum`` element matrices
    plus the ``a0`` mass, summed on the ``np.unique`` pattern and averaged
    with its transpose through the ``searchsorted`` map."""
    t, p, n = disc.tables, disc.problem, disc.mesh.n_vertices
    a11, a12, a22, a0 = (disc.eval_dom(e) for e in (p.a11, p.a12, p.a22,
                                                    p.a0))
    elem = einsum_stiffness(*(np.sum(t.qw_dom * a, axis=1)
                              for a in (a11, a12, a22)), t.grads)
    elem = elem.reshape(-1, 9) + (t.qw_dom * a0) @ _TRI_PRODUCTS
    keys, pos, indices, indptr = unique_pattern(disc.mesh.triangles, n)
    s = np.bincount(pos, weights=elem.ravel(), minlength=len(keys))
    data = 0.5 * (s + s[searchsorted_mirror(keys, n)])
    return scipy.sparse.csr_matrix((data, indices, indptr), shape=(n, n))


def vertex_boundary_mass(disc, w_qp=None):
    """The boundary mass ``int_bnd w phi_a phi_b ds`` (``w = 1`` when
    ``w_qp`` is None) as a (V, V) CSR matrix in vertex numbering, nonzero
    on the boundary blocks: the library's boundary element matrices summed
    on the ``np.unique`` pattern of ``mesh.boundary_edges``, in element
    order."""
    t, n = disc.tables, disc.mesh.n_vertices
    w = np.ones_like(t.qw_bnd) if w_qp is None else w_qp
    keys, pos, indices, indptr = unique_pattern(disc.mesh.boundary_edges, n)
    data = np.bincount(pos, weights=((t.qw_bnd * w) @ _EDGE_PRODUCTS).ravel(),
                       minlength=len(keys))
    return scipy.sparse.csr_matrix((data, indices, indptr), shape=(n, n))


def vertex_boundary_in_triangles(disc):
    """The position in the triangle pattern of each entry of the
    vertex-numbered boundary mass, by ``searchsorted`` of its sorted
    keys."""
    mesh = disc.mesh
    keys = unique_pattern(mesh.boundary_edges, mesh.n_vertices)[0]
    return np.searchsorted(disc.tables.tri_pattern.keys, keys)


def vertex_boundary_load(disc, f_qp):
    """``int_bnd f phi_a ds`` as a full nodal vector (V,), counted over
    ``mesh.boundary_edges`` in vertex numbering."""
    contrib = (disc.tables.qw_bnd * f_qp) @ EDGE_BASIS
    return np.bincount(disc.mesh.boundary_edges.ravel(),
                       weights=contrib.ravel(),
                       minlength=disc.mesh.n_vertices)


def curvature_operator_sum(disc, point):
    """The curvature operator ``(A_y, B_u)`` at ``point`` as the library
    built it before: every term of the weights evaluated, zero or not, and
    ``A_y`` scipy's sum of the domain and the vertex-numbered boundary mass
    matrices."""
    p = disc.problem
    y_base = point.state.values
    lam = point.param.values
    w_dom = disc.eval_dom(p.obj_domain_yy, y=y_base) \
        + disc.tri_interp(point.adjoint.values) \
        * disc.eval_dom(p.reaction_yy, y=y_base)
    w_bnd = disc.eval_bnd(p.obj_boundary_yy, y=y_base, lam=lam)
    for gyy, e in zip(p.constraints_yy, point.multipliers):
        w_bnd = w_bnd + disc.edge_interp(e) \
            * disc.eval_bnd(gyy, y=y_base, lam=lam)
    a_y = disc.domain_mass_weighted(w_dom) + vertex_boundary_mass(disc, w_bnd)
    b_u = disc.boundary_mass_weighted(disc.eval_bnd(p.beta, lam=lam))
    return a_y, b_u
