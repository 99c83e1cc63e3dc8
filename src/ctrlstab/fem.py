"""P1 finite elements on a disk triangulation.

Fixed quadrature rules (exact for the P1 products they integrate):

* interior: 3-point rule at the barycentric permutations of (2/3, 1/6, 1/6),
  weight area/3 each (exact through quadratic polynomials);
* boundary: 2-point Gauss per edge (exact through cubics).

The module provides nodal field containers, weighted mass/stiffness
assembly, discrete norms, and a sparse symmetric-positive-definite solver.

Assembly has one path: each mesh keeps a fixed CSR pattern for its
triangles, its boundary edges and its boundary numbering, and a matrix is
one ``bincount`` of element matrices into a pattern, summed in the order
of scipy's COO-to-CSR conversion and so equal to it bit for bit (see
``_Pattern``).

The solver reorders by reverse Cuthill-McKee, then factorizes by banded
Cholesky.  That is the only factorization; a matrix whose band would exceed
a fixed byte budget raises ``FemError`` before the band is allocated.
:func:`solve_spd` runs conjugate gradients preconditioned by such a
factorization, which may be one of another matrix; with the matrix's own
factor it stops after the first step.

``Discretization`` caches everything tied to one (problem, mesh) pair,
including one linearized operator ``K + M[h_y]``, formed by adding the
values of ``K`` and ``M[h_y]`` on the shared triangle pattern.  The
assembled matrix and its factorization are reused while the h_y quadrature
weights asked for are bit-identical to the last ones (one entry per
``Discretization``).  It also keeps the last factorization it took, the
anchor, to precondition solves at weights that have no factorization of
their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .geometry import Mesh
from .problem import AdmissionError, ProblemSpec

#: interior quadrature: barycentric coordinates (rows: points, cols: nodes)
TRI_BASIS = np.array([[2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
                      [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
                      [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0]])

#: boundary quadrature parameters on [0, 1] (2-point Gauss)
EDGE_T = np.array([0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)])

#: boundary basis values (rows: points, cols: edge endpoints)
EDGE_BASIS = np.column_stack([1.0 - EDGE_T, EDGE_T])


class FemError(RuntimeError):
    """Numerical failure in assembly or linear algebra."""


class NotSpdError(FemError):
    """The matrix handed to the Cholesky solver is not symmetric positive
    definite."""


def nodal_values(values, n: int, what: str = "nodal values") -> np.ndarray:
    """A nodal argument, field or array-like, as a float array of shape
    ``(n,)``.  Finiteness is not checked here."""
    if isinstance(values, (FeFunction, BoundaryFunction)):
        values = values.values
    v = np.asarray(values, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"{what} needs shape ({n},), got {v.shape}")
    return v


def _as_values(values, n, what):
    v = nodal_values(values, n, what)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{what} contains non-finite entries")
    return v


@dataclass
class FeFunction:
    """Nodal P1 field on the whole mesh (one value per vertex)."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = _as_values(self.values, self.mesh.n_vertices,
                                 "FeFunction values")

    def copy(self) -> "FeFunction":
        return FeFunction(self.mesh, self.values.copy())


@dataclass
class BoundaryFunction:
    """Nodal field on the boundary cycle (aligned with
    ``mesh.boundary_vertices``)."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = _as_values(self.values, self.mesh.n_boundary,
                                 "BoundaryFunction values")

    def copy(self) -> "BoundaryFunction":
        return BoundaryFunction(self.mesh, self.values.copy())


# ---------------------------------------------------------------------------
# mesh-derived quadrature geometry
# ---------------------------------------------------------------------------


class _MeshTables:
    """Per-mesh geometry: P1 gradients, quadrature points and weights, and
    the assembly patterns of triangles, boundary edges and boundary
    numbering."""

    def __init__(self, mesh: Mesh):
        tris = mesh.triangles
        p = mesh.vertices[tris]  # (T, 3, 2)
        self.areas = mesh.triangle_areas()

        # grad phi_i = (y_{i+1} - y_{i+2}, x_{i+2} - x_{i+1}) / (2 area)
        grads = np.empty((len(tris), 3, 2))
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            grads[:, i, 0] = p[:, j, 1] - p[:, k, 1]
            grads[:, i, 1] = p[:, k, 0] - p[:, j, 0]
        grads /= (2.0 * self.areas)[:, None, None]
        self.grads = grads

        # interior quadrature points (T, 3, 2) and weights (T, 3)
        self.qp_dom = np.einsum("qn,tnd->tqd", TRI_BASIS, p)
        self.qw_dom = np.repeat(self.areas[:, None] / 3.0, 3, axis=1)

        # boundary quadrature
        ep = mesh.vertices[mesh.boundary_edges]  # (Nb, 2, 2)
        self.qp_bnd = np.einsum("qn,end->eqd", EDGE_BASIS, ep)
        self.qw_bnd = np.repeat(mesh.edge_lengths()[:, None] / 2.0, 2, axis=1)
        # edge j joins boundary nodes j and j+1, in boundary numbering
        nb = mesh.n_boundary
        self.edge_pos = np.column_stack([np.arange(nb),
                                         (np.arange(nb) + 1) % nb])

        # arc parameter at edge quadrature points; the closing edge wraps
        s0 = mesh.boundary_s
        s1 = np.roll(s0, -1)
        s1[-1] = 2.0 * math.pi
        self.qs_bnd = np.outer(1.0 - EDGE_T, s0).T + np.outer(EDGE_T, s1).T

        self.tri_pattern = _Pattern(tris, mesh.n_vertices)
        self.bnd_pattern = _Pattern(mesh.boundary_edges, mesh.n_vertices)
        self.bb_pattern = _Pattern(self.edge_pos, nb)


def _tables(mesh: Mesh) -> _MeshTables:
    """The tables of ``mesh``, built on first use and kept on the mesh, so
    they live exactly as long as it does."""
    t = vars(mesh).get("_fem_tables")
    if t is None:
        t = _MeshTables(mesh)
        object.__setattr__(mesh, "_fem_tables", t)
    return t


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def _l2(weights: np.ndarray, vals: np.ndarray) -> float:
    """L2 norm from values at quadrature points and their weights."""
    return float(np.sqrt(np.sum(weights * vals ** 2)))


def norm(f, kind: str, r: float = 3.0) -> float:
    """Discrete norm of a nodal field.

    ``kind`` is one of ``"l2"``, ``"linf"``, ``"w1r"``.  The measure follows
    the field type: domain for ``FeFunction``, boundary for
    ``BoundaryFunction``.  ``linf`` is the max nodal magnitude; ``w1r`` (domain
    fields only) is ``(sum_T int_T |grad f|^r + |f|^r)^(1/r)`` with the
    gradient constant per triangle.
    """
    if kind == "linf":
        return float(np.max(np.abs(f.values))) if len(f.values) else 0.0
    if isinstance(f, FeFunction):
        t = _tables(f.mesh)
        vals = f.values[f.mesh.triangles] @ TRI_BASIS.T  # (T, 3)
        if kind == "l2":
            return _l2(t.qw_dom, vals)
        if kind == "w1r":
            if not (2.0 < r < 4.0):
                raise ValueError(f"W^(1,r) exponent must lie in (2, 4), got {r}")
            g = np.einsum("tn,tnd->td", f.values[f.mesh.triangles], t.grads)
            gnorm = np.hypot(g[:, 0], g[:, 1])
            total = np.sum(t.areas * gnorm ** r) + np.sum(t.qw_dom * np.abs(vals) ** r)
            return float(total ** (1.0 / r))
    elif isinstance(f, BoundaryFunction):
        if kind == "l2":
            t = _tables(f.mesh)
            return _l2(t.qw_bnd, f.values[t.edge_pos] @ EDGE_BASIS.T)
        if kind == "w1r":
            raise ValueError("w1r is a domain norm; got a boundary field")
    else:
        raise TypeError(f"expected FeFunction or BoundaryFunction, got {type(f)}")
    raise ValueError(f"unknown norm kind {kind!r}")


# ---------------------------------------------------------------------------
# SPD solver
# ---------------------------------------------------------------------------

#: largest band array, in bytes, that a factorization may allocate; disk
#: meshes have bandwidth about 0.39 * n_boundary and about
#: 0.08 * n_boundary**2 vertices, so this admits n_boundary up to about 2000
_BAND_BUDGET = 2 ** 31


class SpdFactorization:
    """Cholesky factorization of a sparse SPD matrix.

    Reverse Cuthill-McKee reordering keeps the band thin on mesh matrices;
    the band is then factorized with LAPACK.  A band of more than
    ``_BAND_BUDGET`` bytes raises ``FemError`` (naming n, the bandwidth and
    the bytes needed) before it is allocated.  A non-positive pivot
    surfaces as ``NotSpdError``, and a right-hand side with a non-finite
    entry as ``ValueError``.
    """

    def __init__(self, matrix):
        a = sp.csr_matrix(matrix)
        n = a.shape[0]
        if a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        asym = abs(a - a.T)
        scale = max(1.0, float(np.max(np.abs(a.data))) if a.nnz else 0.0)
        if asym.nnz and asym.data.max() > 1e-12 * scale:
            raise NotSpdError("matrix is not symmetric")
        self.n = n
        self.matrix = a

        perm = np.asarray(reverse_cuthill_mckee(a, symmetric_mode=True))
        ap = a[perm, :][:, perm].tocoo()
        bw = int(np.max(np.abs(ap.row - ap.col))) if ap.nnz else 0
        self._perm = perm
        need = (bw + 1) * n * 8
        if need > _BAND_BUDGET:
            raise FemError(f"banded Cholesky of n={n} with bandwidth {bw} "
                           f"needs {need} bytes, above the budget of "
                           f"{_BAND_BUDGET} bytes")
        ab = np.zeros((bw + 1, n))
        up = ap.row <= ap.col
        ab[bw + ap.row[up] - ap.col[up], ap.col[up]] = ap.data[up]
        try:
            self._chol = scipy.linalg.cholesky_banded(ab, lower=False)
        except scipy.linalg.LinAlgError as exc:
            raise NotSpdError(f"matrix is not positive definite: {exc}") from exc

    def solve(self, b: np.ndarray) -> np.ndarray:
        # the band was checked when it was factorized; only b can bring
        # in a non-finite entry
        b = np.asarray(b, dtype=float)
        if not np.all(np.isfinite(b)):
            raise ValueError("right-hand side contains non-finite entries")
        z = scipy.linalg.cho_solve_banded((self._chol, False), b[self._perm],
                                          check_finite=False)
        x = np.empty_like(z)
        x[self._perm] = z
        return x


#: conjugate-gradient steps a preconditioned solve may take after the
#: preconditioner's first step; a stale factor close to the matrix needs
#: two or three
_CG_MAX_ITER = 8

#: relative residual a solve with a factor of another matrix must reach;
#: the absolute contract alone lets Newton take extra steps and moves the
#: solved points by about 1e-12
_STALE_RTOL = 1e-13


def solve_spd(matrix, b: np.ndarray, factor: SpdFactorization | None = None
              ) -> np.ndarray:
    """Solve ``matrix @ x = b`` for SPD ``matrix``: conjugate gradients
    preconditioned by ``factor`` (a fresh factorization of ``matrix`` when
    omitted), started from ``factor.solve(b)``.

    The residual is always taken with ``matrix``, and the solve stops once
    ``||b - matrix x||_2 <= 1e-10 (1 + ||b||_2)``.  When ``factor.matrix``
    is another object than ``matrix`` (say, a factorization taken at another
    state), it must also reach ``||b - matrix x||_2 <= 1e-13 ||b||_2``.  With
    an exact factor the first step meets the bound.  Failure to meet it
    within a few conjugate-gradient steps raises ``FemError``.
    """
    f = factor if factor is not None else SpdFactorization(matrix)
    b = np.asarray(b, dtype=float)
    b_norm = float(np.linalg.norm(b))
    tol = 1e-10 * (1.0 + b_norm)
    if factor is not None and factor.matrix is not matrix:
        tol = min(tol, _STALE_RTOL * b_norm)
    x = f.solve(b)
    r = b - matrix @ x
    res = float(np.linalg.norm(r))
    p = rz = None
    for _ in range(_CG_MAX_ITER):
        if res <= tol:
            return x
        z = f.solve(r)
        rz_new = float(r @ z)
        p = z if rz is None else z + (rz_new / rz) * p
        rz = rz_new
        q = matrix @ p
        curv = float(p @ q)
        if not curv > 0.0:
            break
        step = rz / curv
        x = x + step * p
        r = r - step * q
        res = float(np.linalg.norm(r))
    if not res <= tol:
        raise FemError(f"linear solve residual {res:.3e} exceeds {tol:.3e}")
    return x


# ---------------------------------------------------------------------------
# assembled operators
# ---------------------------------------------------------------------------


class _Pattern:
    """Fixed CSR pattern of element matrices over one list of cells.

    Built once from the node lists ``cells`` (C, k) of an (n, n) matrix.
    :meth:`sum` adds element matrices (C, k, k) into the pattern's data
    with one ``bincount``, and the matrix of that data equals
    ``coo_matrix((elem.ravel(), (rows, cols))).tocsr()`` bit for bit
    (indptr, indices and data): the scatter map replays scipy's summation
    order.  scipy buckets the entries by row with a stable counting sort,
    sorts each row's columns with ``std::sort``, which is not stable, and
    adds duplicates left to right.  The pattern runs the first step in
    numpy, lets scipy's own ``sort_indices`` run the second on entry
    numbers, and ``bincount`` adds left to right as well.  Another order
    changes the rounding, and the solver's iteration counts with it.
    """

    def __init__(self, cells: np.ndarray, n: int):
        k = cells.shape[1]
        nodes = cells.ravel()
        # entry (t, a, b) of elem.ravel() is number (t k + a) k + b, in row
        # cells[t, a]; the k entries of one (t, a) are consecutive, so a
        # stable sort of the C k nodes orders all C k k entries by row
        by_row = np.argsort(nodes, kind="stable").astype(np.int32)
        entry = (by_row[:, None] * k + np.arange(k, dtype=np.int32)).ravel()
        cols = np.take(cells, by_row // k, axis=0).ravel()
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(nodes, minlength=n) * k, out=indptr[1:])
        dup = sp.csr_matrix((entry.astype(float), cols.astype(np.int32),
                             indptr), shape=(n, n))
        dup.sort_indices()
        # perm and pos are intp: bincount and the gather convert int32
        # indices on every call, which made a sum on fine_sweep's mesh
        # three times slower (1.3 against 0.45 ms)
        self.perm = dup.data.astype(np.intp)

        cols = dup.indices
        new = np.empty(len(cols), dtype=bool)
        new[0] = True
        np.not_equal(cols[1:], cols[:-1], out=new[1:])
        new[indptr[:-1][np.diff(indptr) > 0]] = True
        upto = np.zeros(len(cols) + 1, dtype=np.intp)
        np.cumsum(new, out=upto[1:])
        self.pos = upto[1:] - 1
        self.indices = cols[new]
        self.indptr = upto[indptr].astype(np.int32)
        self.shape = (n, n)
        self.nnz = len(self.indices)

    def sum(self, elem: np.ndarray) -> np.ndarray:
        """Sum element matrices ``elem`` (C, k, k) into values (nnz,) on
        this pattern."""
        return np.bincount(self.pos, weights=elem.ravel()[self.perm],
                           minlength=self.nnz)

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        """A CSR matrix with values ``data`` (nnz,) on this pattern.  It owns
        copies of the index arrays, so changing its structure leaves the
        pattern and other matrices alone."""
        m = sp.csr_matrix((data, self.indices.copy(), self.indptr.copy()),
                          shape=self.shape)
        m.has_canonical_format = True
        return m

    def assemble(self, elem: np.ndarray) -> sp.csr_matrix:
        """The CSR matrix of element matrices ``elem`` (C, k, k)."""
        return self.matrix(self.sum(elem))


@dataclass
class EllipticForm:
    """Assembled matrices of the linear part of the state operator."""

    stiffness: sp.csr_matrix       # diffusion + a0 reaction, (V, V)
    mass_domain: sp.csr_matrix     # (V, V)
    mass_boundary: sp.csr_matrix   # (V, V), nonzeros on boundary blocks
    mass_boundary_bb: sp.csr_matrix  # (Nb, Nb), boundary numbering


class Discretization:
    """Everything tied to one (problem, mesh) pair.

    Holds the quadrature tables, the assembled :class:`EllipticForm`, and
    evaluation helpers that build numpy environments for the problem's
    expressions at interior quadrature points, boundary quadrature points,
    and boundary nodes.

    It also keeps one linearized operator ``K + M[w]`` (see
    :meth:`jacobian_matrix` and :meth:`jacobian_factor`), filled on first
    use.  Its values are ``K.data + M[w].data`` on the triangle pattern,
    the sums scipy's ``K + M[w]`` computes, with no COO-to-CSR conversion;
    an entry that sums to exactly zero stays as an explicit zero, where
    scipy's addition would drop it.  The entry is reused only when the
    weights ``w`` equal the cached copy bit for bit (shape and values); any
    other weights replace it.
    Next to it sits the anchor, the last factorization built.
    :meth:`jacobian_solve` uses it to precondition conjugate gradients on
    an entry that has no factorization of its own, so a state that moves
    a little costs an assembly and a few band solves, not a factorization.
    """

    def __init__(self, problem: ProblemSpec, mesh: Mesh):
        problem.validate()
        self.problem = problem
        self.mesh = mesh
        t = _tables(mesh)
        self.tables = t

        bv = mesh.boundary_vertices
        self._env_dom = {"x1": t.qp_dom[:, :, 0], "x2": t.qp_dom[:, :, 1]}
        self._env_bnd = {"x1": t.qp_bnd[:, :, 0], "x2": t.qp_bnd[:, :, 1],
                         "s": t.qs_bnd}
        self._env_node = {"x1": mesh.vertices[bv, 0],
                          "x2": mesh.vertices[bv, 1],
                          "s": mesh.boundary_s}

        self.form = self._assemble()
        # [weights copy, K + M[weights], SpdFactorization or None]
        self._jacobian: list | None = None
        self._anchor: SpdFactorization | None = None

    # -- expression environments --------------------------------------------

    def eval_dom(self, e, y: np.ndarray | None = None) -> np.ndarray:
        """Evaluate ``e`` at interior quadrature points, (T, 3)."""
        env = dict(self._env_dom)
        if y is not None:
            env["y"] = self.tri_interp(y)
        out = np.asarray(e.eval(env), dtype=float)
        return np.broadcast_to(out, self.tables.qw_dom.shape)

    def eval_bnd(self, e, y=None, lam=None) -> np.ndarray:
        """Evaluate ``e`` at boundary quadrature points, (Nb, 2).

        ``y`` is a full nodal array (traced), ``lam`` boundary nodal.
        """
        env = dict(self._env_bnd)
        if y is not None:
            env["y"] = self.edge_interp(self.trace(y))
        if lam is not None:
            env["lam"] = self.edge_interp(lam)
        out = np.asarray(e.eval(env), dtype=float)
        return np.broadcast_to(out, self.tables.qw_bnd.shape)

    def eval_node(self, e, y=None, lam=None) -> np.ndarray:
        """Evaluate ``e`` at boundary nodes, (Nb,)."""
        env = dict(self._env_node)
        if y is not None:
            env["y"] = self.trace(y)
        if lam is not None:
            env["lam"] = np.asarray(lam, dtype=float)
        out = np.asarray(e.eval(env), dtype=float)
        return np.broadcast_to(out, (self.mesh.n_boundary,))

    def tri_interp(self, v: np.ndarray) -> np.ndarray:
        """Nodal (V,) -> values at interior quadrature points (T, 3)."""
        return v[self.mesh.triangles] @ TRI_BASIS.T

    def edge_interp(self, w: np.ndarray) -> np.ndarray:
        """Boundary nodal (Nb,) -> values at edge quadrature points (Nb, 2)."""
        return np.asarray(w, float)[self.tables.edge_pos] @ EDGE_BASIS.T

    def trace(self, v: np.ndarray) -> np.ndarray:
        return np.asarray(v, float)[self.mesh.boundary_vertices]

    def embed(self, w: np.ndarray) -> np.ndarray:
        """Boundary nodal (Nb,) -> full nodal (V,) zero-extended."""
        full = np.zeros(self.mesh.n_vertices)
        full[self.mesh.boundary_vertices] = w
        return full

    def param_reference(self) -> BoundaryFunction:
        """Reference parameter evaluated at the boundary nodes."""
        return BoundaryFunction(self.mesh,
                                self.eval_node(self.problem.param_ref))

    # -- assembly -------------------------------------------------------------

    def _assemble(self) -> EllipticForm:
        t = self.tables
        a11 = self.eval_dom(self.problem.a11)
        a12 = self.eval_dom(self.problem.a12)
        a22 = self.eval_dom(self.problem.a22)
        a0 = self.eval_dom(self.problem.a0)

        eig_min = 0.5 * (a11 + a22) - np.sqrt(
            (0.5 * (a11 - a22)) ** 2 + a12 ** 2)
        worst = float(np.min(eig_min))
        if worst < self.problem.c0 - 1e-12:
            raise AdmissionError(
                "(C0)", f"tensor eigenvalue {worst:.6g} below declared "
                        f"constant {self.problem.c0} at a quadrature point")
        if float(np.min(a0)) < -1e-12:
            raise AdmissionError("a_0 >= 0", "negative reaction coefficient "
                                             "at a quadrature point")

        i11 = np.sum(t.qw_dom * a11, axis=1)
        i12 = np.sum(t.qw_dom * a12, axis=1)
        i22 = np.sum(t.qw_dom * a22, axis=1)
        gx = t.grads[:, :, 0]
        gy = t.grads[:, :, 1]
        elem = (np.einsum("t,ta,tb->tab", i11, gx, gx)
                + np.einsum("t,ta,tb->tab", i12, gx, gy)
                + np.einsum("t,ta,tb->tab", i12, gy, gx)
                + np.einsum("t,ta,tb->tab", i22, gy, gy))
        elem += np.einsum("tq,qa,qb->tab", t.qw_dom * a0, TRI_BASIS, TRI_BASIS)
        # the summation order perturbs symmetry at machine level; the
        # average 0.5 (S + S^T), with each pair added in the order scipy's
        # S + S.T adds it, is symmetric bit for bit.  The triangle pattern
        # is symmetric, and transposing entry numbers gives each entry the
        # position of its mirror
        pat = t.tri_pattern
        s = pat.sum(elem)
        mirror = pat.matrix(np.arange(pat.nnz, dtype=float)).T.tocsr().data
        stiffness = pat.matrix(0.5 * (s + s[mirror.astype(np.intp)]))

        mass_elem = np.einsum("tq,qa,qb->tab",
                              t.qw_dom, TRI_BASIS, TRI_BASIS)
        mass_domain = pat.assemble(mass_elem)

        edge_elem = np.einsum("eq,qa,qb->eab",
                              t.qw_bnd, EDGE_BASIS, EDGE_BASIS)
        mass_boundary = t.bnd_pattern.assemble(edge_elem)
        mass_boundary_bb = t.bb_pattern.assemble(edge_elem)
        return EllipticForm(stiffness, mass_domain, mass_boundary,
                            mass_boundary_bb)

    def domain_mass_weighted(self, w_qp: np.ndarray) -> sp.csr_matrix:
        """Assemble ``int w phi_a phi_b dx`` from weight values at interior
        quadrature points."""
        elem = np.einsum("tq,qa,qb->tab", self.tables.qw_dom * w_qp,
                         TRI_BASIS, TRI_BASIS)
        return self.tables.tri_pattern.assemble(elem)

    def boundary_mass_weighted(self, w_qp: np.ndarray,
                               boundary_numbering: bool = False) -> sp.csr_matrix:
        """Assemble ``int_boundary w phi_a phi_b ds``."""
        elem = np.einsum("eq,qa,qb->eab", self.tables.qw_bnd * w_qp,
                         EDGE_BASIS, EDGE_BASIS)
        t = self.tables
        pat = t.bb_pattern if boundary_numbering else t.bnd_pattern
        return pat.assemble(elem)

    def _jacobian_entry(self, w_qp: np.ndarray) -> list:
        entry = self._jacobian
        if entry is None or not np.array_equal(entry[0], w_qp):
            w = np.array(w_qp, dtype=float)
            # both on the triangle pattern: adding the values adds as
            # scipy's K + M[w] would
            mass = self.domain_mass_weighted(w)
            jac = self.tables.tri_pattern.matrix(self.form.stiffness.data
                                                 + mass.data)
            entry = [w, jac, None]
            self._jacobian = entry
        return entry

    def jacobian_matrix(self, w_qp: np.ndarray) -> sp.csr_matrix:
        """Assembled ``K + M[w]`` for weights at interior quadrature points,
        without factorizing it.  The matrix is shared: do not mutate it."""
        return self._jacobian_entry(w_qp)[1]

    def jacobian_factor(self, w_qp: np.ndarray) -> SpdFactorization:
        """Factorized ``K + M[w]``, factorized at most once per cached
        weights; a new factorization becomes the anchor.  The factorization
        is shared: do not mutate it."""
        return self._factor(self._jacobian_entry(w_qp))

    def _factor(self, entry: list) -> SpdFactorization:
        if entry[2] is None:
            entry[2] = self._anchor = SpdFactorization(entry[1])
        return entry[2]

    def jacobian_solve(self, w_qp: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Solve ``(K + M[w]) x = b`` to the :func:`solve_spd` bounds.

        Uses the factorization at ``w`` when the entry holds one.  Otherwise
        runs conjugate gradients on the assembled matrix, preconditioned by
        the anchor; only when that fails, or no anchor exists yet, is
        ``K + M[w]`` factorized (and becomes the anchor).
        """
        entry = self._jacobian_entry(w_qp)
        if entry[2] is None and self._anchor is not None:
            try:
                return solve_spd(entry[1], b, factor=self._anchor)
            except FemError:
                pass
        factor = self._factor(entry)
        return solve_spd(factor.matrix, b, factor=factor)

    def domain_load(self, f_qp: np.ndarray) -> np.ndarray:
        """Assemble ``int f phi_a dx`` into a full nodal vector (V,)."""
        contrib = np.einsum("tq,qa->ta", self.tables.qw_dom * f_qp, TRI_BASIS)
        return np.bincount(self.mesh.triangles.ravel(), weights=contrib.ravel(),
                           minlength=self.mesh.n_vertices)

    def boundary_load(self, f_qp: np.ndarray) -> np.ndarray:
        """Assemble ``int_boundary f phi_a ds`` into a full nodal vector."""
        contrib = np.einsum("eq,qa->ea", self.tables.qw_bnd * f_qp, EDGE_BASIS)
        return np.bincount(self.mesh.boundary_edges.ravel(),
                           weights=contrib.ravel(),
                           minlength=self.mesh.n_vertices)

    def integrate_domain(self, f_qp: np.ndarray) -> float:
        return float(np.sum(self.tables.qw_dom * f_qp))

    def integrate_boundary(self, f_qp: np.ndarray) -> float:
        return float(np.sum(self.tables.qw_bnd * f_qp))

    def l2_boundary(self, w: np.ndarray) -> float:
        """L2 boundary norm of a boundary nodal array."""
        return _l2(self.tables.qw_bnd, self.edge_interp(w))

    def l2_domain(self, v: np.ndarray) -> float:
        return _l2(self.tables.qw_dom, self.tri_interp(np.asarray(v, float)))


__all__ = [
    "TRI_BASIS", "EDGE_T", "EDGE_BASIS",
    "FemError", "NotSpdError",
    "FeFunction", "BoundaryFunction", "nodal_values",
    "norm", "SpdFactorization", "solve_spd",
    "EllipticForm", "Discretization",
]
