"""P1 finite elements on a disk triangulation.

Fixed quadrature rules (exact for the P1 products they integrate):

* interior: 3-point rule at the barycentric permutations of (2/3, 1/6, 1/6),
  weight area/3 each (exact through quadratic polynomials);
* boundary: 2-point Gauss per edge (exact through cubics).

The module provides nodal field containers, weighted mass/stiffness
assembly, discrete norms, and a sparse symmetric-positive-definite solver.

Assembly has one path: each mesh keeps a fixed CSR pattern for its
triangles and one for its boundary edges in boundary numbering, and a
matrix is one ``bincount`` of element matrices into a pattern, which sums
the duplicates of an entry in element order (see ``_Pattern``).  A
pattern is laid out by counting from the edges of its cells, which a
mesh sorts once (:meth:`ctrlstab.geometry.Mesh.edges`), with no sort of
its element entries.  The set-up builds the tables and matrices that
every solve reads; the interior quadrature points (read only by an
expression in ``x1`` or ``x2``) and the domain mass (read only by the
second-order check) are built when first read.  Every
boundary operator is an (Nb, Nb) matrix or an (Nb,) vector in boundary
numbering, as the control, the parameter and the multipliers are; a
full nodal load is its ``embed``.  A mass element matrix is one product
of weighted quadrature values with a table of basis products, and a load
vector's element part one product with the basis.

The solver reorders by reverse Cuthill-McKee, then factorizes by banded
Cholesky.  That is the only factorization; a matrix whose band would exceed
a fixed byte budget raises ``FemError`` before the band is allocated.  Its
symbolic half (the ordering, the bandwidth and each entry's place in the
band) reads only a matrix's structure, so an assembly pattern analyzes it
once, at the first factorization of one of its matrices, and every later
factorization on the pattern only tests, scatters and factorizes the
values; a matrix on no pattern is analyzed on its own, by the same code.
:func:`solve_spd` runs conjugate gradients preconditioned by such a
factorization, which may be one of another matrix, and then may start
from a guess; with the matrix's own factor it stops after the first step.

``Discretization`` caches everything tied to one (problem, mesh) pair,
including the linearized operators ``K + M[h_y] + c M_B``, formed by
adding the values of ``K`` and ``M[h_y]`` on the shared triangle pattern
and those of ``c M_B`` at the triangle entries of the boundary edges.
``c = 0`` is the state and adjoint operator; a nonzero ``c`` is the pinned
operator, in which a constraint ``g + u <= 0`` that binds at every
boundary node substitutes ``u = -g(y)`` with ``dg/dy = c``.  Each
``c`` has one entry, its assembled matrix, reused while the h_y quadrature
weights asked for and the last ones of that ``c`` have equal values (the
values of ``M[h_y]`` are summed once per weights, whatever the ``c``), and
one factorization, its anchor: the last one taken for that ``c``.  A solve is
exact when the anchor factorizes the entry's matrix (the same object), and
otherwise runs conjugate gradients preconditioned by the anchor; that is
the anchor's only use.  The dense control-to-state map ``T`` is kept with
the factorization of ``c = 0`` that it was solved with, and follows it
alone.  Last, a ``Discretization`` keeps the last KKT points solved on it,
from which a re-solve starts (``Discretization.resume``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg.lapack
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .expr import Const
from .geometry import Mesh, _edge_sort
from .problem import AdmissionError, ProblemSpec, check_operator

#: interior quadrature: barycentric coordinates (rows: points, cols: nodes)
TRI_BASIS = np.array([[2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
                      [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
                      [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0]])

#: boundary quadrature parameters on [0, 1] (2-point Gauss)
EDGE_T = np.array([0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)])

#: boundary basis values (rows: points, cols: edge endpoints)
EDGE_BASIS = np.column_stack([1.0 - EDGE_T, EDGE_T])

#: basis products phi_a phi_b at the quadrature points (rows: points, cols:
#: entry a k + b of a k-node element matrix)
_TRI_PRODUCTS = np.einsum("qa,qb->qab", TRI_BASIS, TRI_BASIS).reshape(3, 9)
_EDGE_PRODUCTS = np.einsum("qa,qb->qab", EDGE_BASIS, EDGE_BASIS).reshape(2, 4)


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


@dataclass
class BoundaryFunction:
    """Nodal field on the boundary cycle (aligned with
    ``mesh.boundary_vertices``)."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = _as_values(self.values, self.mesh.n_boundary,
                                 "BoundaryFunction values")


# ---------------------------------------------------------------------------
# mesh-derived quadrature geometry
# ---------------------------------------------------------------------------


class _MeshTables:
    """Per-mesh geometry: P1 gradients, quadrature points and weights, and
    the assembly patterns of the triangles and of the boundary edges in
    boundary numbering.

    The interior quadrature points ``qp_dom`` are computed when first read,
    as only an expression in ``x1`` or ``x2`` needs them.  The tables keep
    the mesh's vertex and triangle arrays for that, never the mesh itself,
    which keeps its tables (see :func:`_tables`): a reference back would
    make a cycle that only the garbage collector frees.
    """

    def __init__(self, mesh: Mesh):
        tris = mesh.triangles
        self._vertices, self._triangles = mesh.vertices, tris
        # corner coordinates (T, 3), gathered one coordinate at a time
        x, y = mesh.vertices[:, 0][tris], mesh.vertices[:, 1][tris]
        self.areas = mesh.triangle_areas()

        # grad phi_i = (y_{i+1} - y_{i+2}, x_{i+2} - x_{i+1}) / (2 area)
        grads = np.empty((len(tris), 3, 2))
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            grads[:, i, 0] = y[:, j] - y[:, k]
            grads[:, i, 1] = x[:, k] - x[:, j]
        grads /= (2.0 * self.areas)[:, None, None]
        self.grads = grads

        # interior quadrature weights (T, 3)
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

        self.tri_pattern = _Pattern(tris, mesh.n_vertices, mesh.edges())
        self.bb_pattern = _Pattern(self.edge_pos, nb)
        # every boundary edge is a triangle edge: the position in the
        # triangle pattern of each boundary pattern entry, its key in
        # vertex numbering, so that a boundary mass adds onto the triangle
        # pattern's values; the needles need no order, so any boundary
        # numbering works
        bv = mesh.boundary_vertices.astype(np.int64)
        bb = self.bb_pattern.keys
        self.bnd_in_tri = np.searchsorted(
            self.tri_pattern.keys,
            bv[bb // nb] * mesh.n_vertices + bv[bb % nb])

    @functools.cached_property
    def qp_dom(self) -> np.ndarray:
        """Interior quadrature points (T, 3, 2): point q of a triangle is
        the sum ``B[q, 0] p_0 + B[q, 1] p_1 + B[q, 2] p_2`` of its corners
        ``p``, the bits of ``einsum("qn,tnd->tqd", TRI_BASIS, p)``."""
        qp = np.empty((len(self._triangles), 3, 2))
        for d in range(2):
            p = self._vertices[:, d][self._triangles]
            qp[:, :, d] = TRI_BASIS[:, 0] * p[:, 0, None] \
                + TRI_BASIS[:, 1] * p[:, 1, None] \
                + TRI_BASIS[:, 2] * p[:, 2, None]
        return qp

    def l2_boundary(self, w) -> float:
        """L2 boundary norm of a boundary nodal array."""
        vals = np.asarray(w, float)[self.edge_pos] @ EDGE_BASIS.T
        return float(np.sqrt(np.sum(self.qw_bnd * vals ** 2)))


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
            return float(np.sqrt(np.sum(t.qw_dom * vals ** 2)))
        if kind == "w1r":
            if not (2.0 < r < 4.0):
                raise ValueError(f"W^(1,r) exponent must lie in (2, 4), got {r}")
            g = np.einsum("tn,tnd->td", f.values[f.mesh.triangles], t.grads)
            gnorm = np.hypot(g[:, 0], g[:, 1])
            total = np.sum(t.areas * gnorm ** r) + np.sum(t.qw_dom * np.abs(vals) ** r)
            return float(total ** (1.0 / r))
    elif isinstance(f, BoundaryFunction):
        if kind == "l2":
            return _tables(f.mesh).l2_boundary(f.values)
        if kind == "w1r":
            raise ValueError("w1r is a domain norm; got a boundary field")
    else:
        raise TypeError(f"expected FeFunction or BoundaryFunction, got {type(f)}")
    raise ValueError(f"unknown norm kind {kind!r}")


def _norm2(v: np.ndarray) -> float:
    """The 2-norm of a float array, bit for bit ``np.linalg.norm(v)``:
    numpy's own formula, ``sqrt(w . w)`` with ``w = v.ravel(order="K")``,
    without its dispatch.  The ravel is a view of a contiguous ``v`` and a
    copy of a strided one, which BLAS would sum in another order."""
    v = v.ravel(order="K")
    return math.sqrt(float(v @ v))


# ---------------------------------------------------------------------------
# SPD solver
# ---------------------------------------------------------------------------

#: largest band array, in bytes, that a factorization may allocate; disk
#: meshes have bandwidth about 0.39 * n_boundary and about
#: 0.08 * n_boundary**2 vertices, so this admits n_boundary up to about 2000
_BAND_BUDGET = 2 ** 31


def _transposed_entries(rows: np.ndarray, indices: np.ndarray,
                        n: int) -> tuple:
    """``(mirror, lone)`` of a canonical CSR structure of an (n, n) matrix
    with entry rows ``rows``: the entry of each entry's transpose, found by
    its key ``row n + column`` among the sorted keys, and the entries whose
    transpose is not stored, which are their own mirror."""
    cols = indices.astype(np.int64)
    keys, transposed = rows * n + cols, cols * n + rows
    mirror = np.minimum(np.searchsorted(keys, transposed),
                        max(len(keys) - 1, 0))
    lone = np.flatnonzero(keys[mirror] != transposed)
    mirror[lone] = lone
    return mirror, lone


class _BandPlan:
    """The symbolic half of a banded Cholesky factorization: all it reads of
    a canonical CSR structure (sorted indices, no duplicates) of an (n, n)
    matrix, and nothing of its values.

    ``perm`` is the reverse Cuthill-McKee ordering of the structure and
    ``bw`` the bandwidth of the permuted structure, whose band takes
    ``need = (bw + 1) n 8`` bytes.  The entries on and above the permuted
    diagonal fill the Fortran-order ``(bw + 1, n)`` band that LAPACK
    factorizes: entry ``src[i]`` of ``data`` goes to the flat position
    ``dst[i]``.  For the symmetry test, ``mirror`` is the entry of each
    entry's transpose, and ``lone`` the entries whose transpose is not
    stored (their ``mirror`` is themselves).  A pattern's plan takes the
    pattern's ``mirror``; without one it is looked up by key.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 mirror: np.ndarray | None = None):
        n = len(indptr) - 1
        self.indptr, self.indices = indptr, indices
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        if mirror is None:
            self.mirror, self.lone = _transposed_entries(rows, indices, n)
        else:
            self.mirror, self.lone = mirror, np.zeros(0, dtype=np.intp)

        self.perm = np.asarray(reverse_cuthill_mckee(
            sp.csr_matrix((np.ones(len(indices)), indices, indptr),
                          shape=(n, n)), symmetric_mode=True))
        rank = np.empty(n, dtype=np.int64)
        rank[self.perm] = np.arange(n)
        # entry (r, c) lies at (rank r, rank c) of the permuted matrix, and
        # on or above its diagonal at d = rank c - rank r >= 0, in band row
        # bw - d
        col = rank[indices]
        d = col - rank[rows]
        self.bw = int(np.max(np.abs(d))) if len(indices) else 0
        self.need = (self.bw + 1) * n * 8
        self.src = np.flatnonzero(d >= 0)
        self.dst = (self.bw + 1) * col[self.src] + (self.bw - d[self.src])

    def fits(self, a: sp.csr_matrix) -> bool:
        """Whether the CSR matrix ``a`` has this plan's structure."""
        return (np.array_equal(a.indptr, self.indptr)
                and np.array_equal(a.indices, self.indices))


class SpdFactorization:
    """Cholesky factorization of a sparse SPD matrix.

    Reverse Cuthill-McKee reordering keeps the band thin on mesh matrices;
    the band is then factorized with LAPACK.  A band of more than
    ``_BAND_BUDGET`` bytes raises ``FemError`` (naming n, the bandwidth and
    the bytes needed) before it is allocated.  A non-finite entry or a
    non-positive pivot surfaces as ``NotSpdError``, and a right-hand side
    with a non-finite entry as ``ValueError``.

    The factorization has two halves.  The analysis (:class:`_BandPlan`)
    reads only the structure: the ordering, the bandwidth and where each
    entry goes in the band.  The numeric step reads the values: it
    confirms the matrix has the plan's structure, tests its entries
    finite and symmetric, scatters them into a zeroed band and factorizes
    it.  A matrix of an assembly pattern (``_pattern``, private, as
    :meth:`Discretization.jacobian_factor` passes it) uses the pattern's
    plan, analyzed once, at its first factorization; any other matrix, or
    one whose structure no longer is the pattern's, is analyzed on its
    own, after its duplicate entries are summed.

    ``matrix`` is the CSR matrix factorized: the argument itself when it is
    a ``csr_matrix`` (so ``factor.matrix is A`` tells that ``factor``
    factorizes ``A``, the test :func:`solve_spd` makes), else its CSR
    conversion.
    """

    def __init__(self, matrix, _pattern: _Pattern | None = None):
        a = matrix if isinstance(matrix, sp.csr_matrix) \
            else sp.csr_matrix(matrix)
        n = a.shape[0]
        if a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        self.matrix = a
        plan = None if _pattern is None else _pattern.band_plan
        if plan is None or not plan.fits(a):
            # the matrix that a's arrays hold, whatever format flags a
            # carries: a copy with its duplicates summed when it has any or
            # an unsorted row
            a = sp.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)
            if not a.has_canonical_format:
                a = a.copy()
                a.sum_duplicates()
            plan = _BandPlan(a.indptr, a.indices)
        data = a.data
        # before the symmetry test, which a NaN passes: NaN > tol is false
        bad = int(np.count_nonzero(~np.isfinite(data)))
        if bad:
            raise NotSpdError(f"matrix has {bad} non-finite entries")
        partner = data[plan.mirror]
        partner[plan.lone] = 0.0
        scale = max(1.0, float(np.max(np.abs(data))) if len(data) else 0.0)
        if len(data) and np.max(np.abs(data - partner)) > 1e-12 * scale:
            raise NotSpdError("matrix is not symmetric")

        bw = plan.bw
        if plan.need > _BAND_BUDGET:
            raise FemError(f"banded Cholesky of n={n} with bandwidth {bw} "
                           f"needs {plan.need} bytes, above the budget of "
                           f"{_BAND_BUDGET} bytes")
        self._perm = plan.perm
        # in LAPACK's (Fortran) order, so that the band is factorized in
        # place: one band per factorization, not a band and its copy.  Its
        # entries were checked finite above
        band = np.zeros((bw + 1) * n)
        band[plan.dst] = data[plan.src]
        self._chol, info = scipy.linalg.lapack.dpbtrf(
            band.reshape((bw + 1, n), order="F"), lower=0, overwrite_ab=1)
        if info > 0:
            raise NotSpdError(f"matrix is not positive definite: {info}-th "
                              "leading minor not positive definite")
        if info < 0:
            raise ValueError(f"illegal value in {info}-th argument of "
                             "internal pbtrf")

    def solve(self, b: np.ndarray) -> np.ndarray:
        # the band was checked when it was factorized; only b can bring
        # in a non-finite entry
        b = np.asarray(b, dtype=float)
        if not np.all(np.isfinite(b)):
            raise ValueError("right-hand side contains non-finite entries")
        # LAPACK's band solve on the permuted b, which is a copy and may be
        # overwritten
        z, info = scipy.linalg.lapack.dpbtrs(self._chol, b[self._perm],
                                             lower=0, overwrite_b=1)
        if info != 0:
            raise FemError(f"band solve failed: dpbtrs info = {info}")
        x = np.empty_like(z)
        x[self._perm] = z
        return x


#: conjugate-gradient steps a preconditioned solve may take after its
#: start (the preconditioner's first step or a guess); a stale factor close
#: to the matrix needs two or three
_CG_MAX_ITER = 8

#: relative residual a solve with a factor of another matrix must reach;
#: the absolute contract alone lets Newton take extra steps and moves the
#: solved points by about 1e-12
_STALE_RTOL = 1e-13


def solve_spd(matrix, b: np.ndarray, factor: SpdFactorization,
              x0: np.ndarray | None = None) -> np.ndarray:
    """Solve ``matrix @ x = b`` for SPD ``matrix``: conjugate gradients
    preconditioned by ``factor``, started from ``factor.solve(b)``.

    The residual is always taken with ``matrix``, and the solve stops once
    ``||b - matrix x||_2 <= 1e-10 (1 + ||b||_2)``.  When ``factor.matrix``
    is another object than ``matrix`` (say, a factorization taken at another
    state), it must also reach ``||b - matrix x||_2 <= 1e-13 ||b||_2``, and
    a starting guess ``x0`` replaces ``factor.solve(b)`` as the start: the
    first step is then the conjugate-gradient step from ``x0``, and the
    bounds stay those of ``b``, so a close guess only saves band solves.
    With an exact factor the first step meets the bound, and ``x0`` is not
    read.  Failure to meet it within a few conjugate-gradient steps raises
    ``FemError``.
    """
    b = np.asarray(b, dtype=float)
    b_norm = _norm2(b)
    tol = 1e-10 * (1.0 + b_norm)
    if factor.matrix is not matrix:
        tol = min(tol, _STALE_RTOL * b_norm)
    if x0 is None or factor.matrix is matrix:
        x = factor.solve(b)
    else:
        x = np.array(x0, dtype=float)
    r = b - matrix @ x
    res = _norm2(r)
    p = rz = None
    for _ in range(_CG_MAX_ITER):
        if res <= tol:
            return x
        z = factor.solve(r)
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
        res = _norm2(r)
    if not res <= tol:
        raise FemError(f"linear solve residual {res:.3e} exceeds {tol:.3e}")
    return x


# ---------------------------------------------------------------------------
# assembled operators
# ---------------------------------------------------------------------------


class _Pattern:
    """Fixed CSR pattern of element matrices over one list of cells.

    Built once from the node lists ``cells`` (C, k), ``k`` 2 or 3, of an
    (n, n) matrix and their edges ``(keys, sides)``, as
    :func:`ctrlstab.geometry._edge_sort` gives them (sorted here when not
    given; a mesh keeps those of its triangles, :meth:`Mesh.edges`).
    Entry (t, a, b) of the element matrices has the scalar key
    ``cells[t, a] n + cells[t, b]``, and the sorted distinct keys are the
    pattern's entries in CSR order: the diagonal of each node on a cell and
    both orientations of each edge.  They are laid out by counting, with no
    sort of the ``C k k`` keys: row r holds the edges ending at r (in the
    order of their other end: the edges stably sorted by their larger
    end), then its diagonal, then the edges starting at r (consecutive in
    edge order).  That gives ``keys`` (nnz,), ``pos`` (C k k,), the entry
    of each element-matrix entry, the CSR ``indices`` and ``indptr``, and
    ``mirror`` (nnz,), the entry of each entry's transpose, which is the
    entry of (t, b, a).  These are the arrays ``np.unique(keys,
    return_inverse=True)`` and a ``searchsorted`` of the transposed keys
    would give.  :meth:`sum` adds element matrices into the pattern's data
    with one ``bincount``, which sums the duplicates of an entry in element
    order.
    """

    def __init__(self, cells: np.ndarray, n: int,
                 edges: tuple | None = None):
        edge_keys, sides = _edge_sort(cells, n) if edges is None else edges
        lo, hi = np.divmod(edge_keys, n)
        n_up = np.bincount(lo, minlength=n)
        n_low = np.bincount(hi, minlength=n)
        deg = n_up + n_low
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg + (deg > 0), out=indptr[1:])
        # a node's diagonal entry follows the edges ending there.  Edge e's
        # entry in the row of its smaller end follows that diagonal at e's
        # rank among the edges starting there; the entries in the rows of
        # the larger ends are in the order of the edges stably sorted by
        # that end, the j-th after j of them and after the other entries
        # of the rows before its own
        diag = indptr[:-1] + n_low
        e = np.arange(len(edge_keys))
        up = e + (diag + 1 - (np.cumsum(n_up) - n_up))[lo]
        order = np.argsort(hi, kind="stable")
        low = np.empty_like(up)
        low[order] = e + (indptr[:-1] - (np.cumsum(n_low) - n_low))[hi[order]]
        node = np.flatnonzero(deg)
        at = diag[node]

        self.nnz = int(indptr[-1])
        self.shape = (n, n)
        self.indptr = indptr.astype(np.int32)
        self.keys = np.empty(self.nnz, dtype=np.int64)
        self.indices = np.empty(self.nnz, dtype=np.int32)
        self.mirror = np.empty(self.nnz, dtype=np.intp)
        for where, row, col, mirror in ((at, node, node, at),
                                        (up, lo, hi, low), (low, hi, lo, up)):
            self.keys[where] = row * n + col
            self.indices[where] = col
            self.mirror[where] = mirror

        # element entry (i, j) off the diagonal lies on the side joining
        # corners i and j = i + 1 (mod k), in the row of its smaller node
        # when that is corner i
        k = cells.shape[1]
        pos = np.empty((len(cells), k, k), dtype=np.intp)
        for i in range(k):
            j = (i + 1) % k
            forward = cells[:, i] < cells[:, j]
            upper, lower = up[sides[:, i]], low[sides[:, i]]
            pos[:, i, i] = diag[cells[:, i]]
            pos[:, i, j] = np.where(forward, upper, lower)
            pos[:, j, i] = np.where(forward, lower, upper)
        self.pos = pos.reshape(-1)

    @functools.cached_property
    def band_plan(self) -> _BandPlan:
        """The analysis of this pattern's banded Cholesky factorization,
        done when a matrix of the pattern is first factorized."""
        return _BandPlan(self.indptr, self.indices, self.mirror)

    def sum(self, elem: np.ndarray) -> np.ndarray:
        """Sum element matrices ``elem``, (C, k, k) or (C, k k), into values
        (nnz,) on this pattern."""
        return np.bincount(self.pos, weights=elem.ravel(), minlength=self.nnz)

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        """A CSR matrix with values ``data`` (nnz,) on this pattern.  It owns
        copies of the index arrays, so changing its structure leaves the
        pattern and other matrices alone."""
        m = sp.csr_matrix((data, self.indices.copy(), self.indptr.copy()),
                          shape=self.shape)
        m.has_canonical_format = True
        return m

    def assemble(self, elem: np.ndarray) -> sp.csr_matrix:
        """The CSR matrix of element matrices ``elem``, (C, k, k) or
        (C, k k)."""
        return self.matrix(self.sum(elem))


class EllipticForm:
    """Assembled matrices of the linear part of the state operator.  The
    boundary mass is in boundary numbering only: ``M_B`` applied to a
    boundary array ``w`` is the full nodal load ``embed(M_bb @ w)``.

    ``stiffness`` (V, V) is diffusion plus the a0 reaction and
    ``mass_boundary_bb`` (Nb, Nb) the boundary mass.  The domain mass
    ``mass_domain`` (V, V) is assembled when first read, as only the
    second-order check reads it, from the mesh tables the form keeps: no
    reference to the :class:`Discretization`, which keeps the form.
    """

    def __init__(self, stiffness: sp.csr_matrix,
                 mass_boundary_bb: sp.csr_matrix, tables: _MeshTables):
        self.stiffness = stiffness
        self.mass_boundary_bb = mass_boundary_bb
        self._tables = tables

    @functools.cached_property
    def mass_domain(self) -> sp.csr_matrix:
        """``int phi_a phi_b dx``, (V, V): the bits of
        ``domain_mass_weighted`` at weight 1, since ``qw_dom * 1`` is
        ``qw_dom``."""
        t = self._tables
        return t.tri_pattern.assemble(t.qw_dom @ _TRI_PRODUCTS)


def _stiffness_elements(i11, i12, i22, grads) -> np.ndarray:
    """Diffusion element matrices (T, 3, 3) from the integrated
    coefficients ``i11``, ``i12``, ``i22`` (T,) and the P1 gradients
    ``grads`` (T, 3, 2): entry (t, a, b) is the sum, in this order, of
    ``(i11 gx_a) gx_b``, ``(i12 gx_a) gy_b``, ``(i12 gy_a) gx_b`` and
    ``(i22 gy_a) gy_b``, each product rounded left to right, as
    ``einsum("t,ta,tb->tab", ...)`` rounds it.  The products run with the
    triangles last, so that every loop is T long."""
    gx, gy = np.ascontiguousarray(grads.transpose(2, 1, 0))  # (3, T) each
    elem = np.empty((3, 3, len(grads)))
    term = np.empty_like(elem)
    np.multiply((i11 * gx)[:, None], gx, out=elem)
    for coef, ga, gb in ((i12, gx, gy), (i12, gy, gx), (i22, gy, gy)):
        np.multiply((coef * ga)[:, None], gb, out=term)
        elem += term
    return elem.transpose(2, 0, 1)


def _broadcast(value: float, shape: tuple) -> np.ndarray:
    """``np.broadcast_to(value, shape)`` of a float, built directly: a
    read-only array of ``shape`` with every stride 0, viewing one value."""
    out = np.ndarray(shape, buffer=np.array([value]),
                     strides=(0,) * len(shape))
    out.flags.writeable = False
    return out


def _constant(w: np.ndarray) -> float | None:
    """The one value that ``w`` views when every stride is 0, as in a
    folded constant's :func:`_broadcast`, else None."""
    if w.size and not any(w.strides):
        return float(w.flat[0])
    return None


def _kept_weights(w_qp) -> np.ndarray:
    """A copy of the weights ``w_qp`` to keep and compare with later ones:
    a broadcast of one value stays one, on a buffer of its own."""
    w = np.asarray(w_qp, dtype=float)
    value = _constant(w)
    return np.array(w) if value is None else _broadcast(value, w.shape)


def _same_weights(kept: np.ndarray, w_qp) -> bool:
    """``np.array_equal(kept, w_qp)``: two broadcasts of one value each
    compare by that value, with no pass over their entries."""
    w = np.asarray(w_qp)
    value, other = _constant(kept), _constant(w)
    if value is not None and other is not None and kept.shape == w.shape:
        return value == other
    return np.array_equal(kept, w)


def _shaped(out, shape: tuple) -> np.ndarray:
    """An expression's value as a read-only float array of ``shape``.

    A value of that shape already comes back as a read-only view of
    itself, so that a result aliasing an environment array (``x1`` is a
    view of the quadrature table) never hands out writable memory; a
    scalar or a broadcastable value as ``np.broadcast_to`` gives it, which
    is read-only too.  A folded ``Const`` does not get here: the ``eval_*``
    methods return its broadcast before they build an environment, so a
    constant interpolates neither ``y`` nor ``lam`` (see
    :func:`_broadcast`).
    """
    out = np.asarray(out, dtype=float)
    if out.shape != shape:
        return np.broadcast_to(out, shape)
    out = out.view()
    out.flags.writeable = False
    return out


class _DomainEnv(dict):
    """The environment of an expression at the interior quadrature points:
    ``x1`` and ``x2`` are views of ``tables.qp_dom`` looked up when the
    expression reads them, so that one in neither builds no table."""

    __slots__ = ("tables",)

    def __init__(self, tables: _MeshTables):
        super().__init__()
        self.tables = tables

    def __missing__(self, name: str) -> np.ndarray:
        coordinate = {"x1": 0, "x2": 1}.get(name)
        if coordinate is None:
            raise KeyError(name)
        return self.tables.qp_dom[:, :, coordinate]


#: points of a warm-start chain: the last one and the two before it, for a
#: prediction of degree two at most
_CHAIN_LENGTH = 3

#: how far a chain point's parameter may lie off the line of the
#: prediction, relative to the largest parameter entry: a few roundings
_COLLINEAR_RTOL = 64 * np.finfo(float).eps


class Discretization:
    """Everything tied to one (problem, mesh) pair.

    Holds the quadrature tables, the assembled :class:`EllipticForm`, and
    evaluation helpers that build numpy environments for the problem's
    expressions at interior quadrature points, boundary quadrature points,
    and boundary nodes.  It is built only for an admitted problem whose
    operator coefficients also pass :func:`ctrlstab.problem.check_operator`
    at its quadrature points, so its stiffness matrix ``K`` is SPD.

    It also keeps one linearized operator ``K + M[w] + c M_B`` per
    boundary weight ``c`` (see :meth:`jacobian_matrix` and
    :meth:`jacobian_factor`), each filled on first use.  ``c = 0`` is the
    state and adjoint operator ``K + M[h_y]``; the pinned step of
    :func:`ctrlstab.solver.solve_kkt` uses ``c = dg/dy``.  ``K`` and
    ``M[w]`` each sum their element matrices in element order, with no
    COO-to-CSR conversion.  The operator's values are
    ``K.data + M[w].data`` on the triangle pattern, the sums scipy's
    ``K + M[w]`` computes, plus ``c M_bb.data`` at the triangle entries of
    the boundary edges (``tables.bnd_in_tri``); an entry that sums to
    exactly zero stays as an explicit zero, where scipy's addition would
    drop it.
    An entry is reused only when its ``c`` equals the cached one and the
    weights ``w`` and the cached ones have one shape and equal values
    (:func:`_same_weights`: ``-0.0`` equals ``0.0``, and the matrix those
    values assemble is the same bits either way); two broadcasts of a
    folded constant compare by their one value.  Other
    weights replace the entry of that ``c`` and leave the others alone.
    The values of ``M[w]`` are summed once per weights: a new entry whose
    weights equal the last ones summed, whatever its ``c``,
    adds those values again, so that the pinned operator and the state
    operator at one state share one sum.
    The only factorization of each ``c`` is its anchor, the last one built
    for that ``c``.  It is exact for the entry whose matrix it factorizes
    (``anchor.matrix is matrix``); on a newer entry of the same ``c``,
    :meth:`jacobian_solve` uses it to precondition conjugate gradients, so
    a state that moves a little costs an assembly and a few band solves,
    not a factorization.  No anchor preconditions another ``c``: ``M_B``
    is not a small perturbation.
    :meth:`control_to_state` keeps ``T`` next to the factorization of
    ``c = 0`` that it was solved with; a new entry of ``c = 0`` leaves it,
    since ``T`` depends on that factorization alone.

    Last, it keeps the warm-start chain: the last KKT points that
    :func:`ctrlstab.solver.solve_kkt` returned on it, up to
    ``_CHAIN_LENGTH`` of them (:meth:`keep_point`).  :meth:`resume` hands
    the last point back only to a control equal to its control bit for
    bit, so that a re-solve started from that control resumes from the
    whole point, with the states and costates of the chain's points that
    lie on the new parameter's line, behind it, extrapolated to that
    parameter: they start the re-solve's state solve and the conjugate
    gradients of its pinned adjoint solve.
    It also keeps ``M_B[beta(lam)]`` of the last parameter
    (:meth:`beta_mass`), the control's part of the curvature form, which
    the reduced Newton steps of one solve share.
    """

    def __init__(self, problem: ProblemSpec, mesh: Mesh):
        problem.validate()
        self.problem = problem
        self.mesh = mesh
        t = _tables(mesh)
        self.tables = t

        bv = mesh.boundary_vertices
        self._env_bnd = {"x1": t.qp_bnd[:, :, 0], "x2": t.qp_bnd[:, :, 1],
                         "s": t.qs_bnd}
        self._env_node = {"x1": mesh.vertices[bv, 0],
                          "x2": mesh.vertices[bv, 1],
                          "s": mesh.boundary_s}

        self.form = self._assemble()
        # c -> (weights copy, K + M[weights] + c M_B); the last weights
        # summed and their M[weights] values; (lam copy, M_B[beta(lam)]);
        # c -> the last factorization of that c; (factorization, T) of
        # c = 0; and the warm-start chain of the points solve_kkt returned,
        # oldest first
        self._jacobian: dict = {}
        self._mass = None
        self._beta_mass = None
        self._anchor: dict = {}
        self._t_map = None
        self._chain: list = []

    # -- expression environments --------------------------------------------

    def eval_dom(self, e, y: np.ndarray | None = None) -> np.ndarray:
        """Evaluate ``e`` at interior quadrature points, (T, 3), read-only.

        A folded ``Const`` returns its broadcast at once: no environment,
        and ``y`` is not interpolated.  Any other value comes back through
        :func:`_shaped`, as a read-only view when it has the shape already.
        So do those of :meth:`eval_bnd` and :meth:`eval_node`.
        """
        shape = self.tables.qw_dom.shape
        if isinstance(e, Const):
            return _broadcast(e.value, shape)
        env = _DomainEnv(self.tables)
        if y is not None:
            env["y"] = self.tri_interp(y)
        return _shaped(e.eval(env), shape)

    def eval_bnd(self, e, y=None, lam=None) -> np.ndarray:
        """Evaluate ``e`` at boundary quadrature points, (Nb, 2), read-only,
        with the fast paths of :meth:`eval_dom`.

        ``y`` is a full nodal array (traced), ``lam`` boundary nodal.
        """
        shape = self.tables.qw_bnd.shape
        if isinstance(e, Const):
            return _broadcast(e.value, shape)
        env = dict(self._env_bnd)
        if y is not None:
            env["y"] = self.edge_interp(self.trace(y))
        if lam is not None:
            env["lam"] = self.edge_interp(lam)
        return _shaped(e.eval(env), shape)

    def eval_node(self, e, y=None, lam=None) -> np.ndarray:
        """Evaluate ``e`` at boundary nodes, (Nb,), read-only, with the fast
        paths of :meth:`eval_dom`."""
        shape = (self.mesh.n_boundary,)
        if isinstance(e, Const):
            return _broadcast(e.value, shape)
        env = dict(self._env_node)
        if y is not None:
            env["y"] = self.trace(y)
        if lam is not None:
            env["lam"] = np.asarray(lam, dtype=float)
        return _shaped(e.eval(env), shape)

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
        """Reference parameter evaluated at the boundary nodes; raises
        ``AdmissionError`` where it is not finite."""
        lam = self.eval_node(self.problem.param_ref)
        if not np.all(np.isfinite(lam)):
            raise AdmissionError("parameter", "reference parameter is not "
                                              "finite at a boundary node")
        return BoundaryFunction(self.mesh, lam)

    # -- assembly -------------------------------------------------------------

    def _assemble(self) -> EllipticForm:
        t = self.tables
        a11 = self.eval_dom(self.problem.a11)
        a12 = self.eval_dom(self.problem.a12)
        a22 = self.eval_dom(self.problem.a22)
        a0 = self.eval_dom(self.problem.a0)
        for name, coef in (("a11", a11), ("a12", a12), ("a22", a22),
                           ("a0", a0)):
            if not np.all(np.isfinite(coef)):
                raise AdmissionError("(C0)", f"operator coefficient {name} "
                                             "is not finite at a quadrature "
                                             "point")

        check_operator(a11, a12, a22, a0, self.problem.c0, quadrature=True)

        elem = _stiffness_elements(np.sum(t.qw_dom * a11, axis=1),
                                   np.sum(t.qw_dom * a12, axis=1),
                                   np.sum(t.qw_dom * a22, axis=1), t.grads)
        elem = elem.reshape(-1, 9) + (t.qw_dom * a0) @ _TRI_PRODUCTS
        # the summation order perturbs symmetry at machine level; the
        # average 0.5 (S + S^T) is symmetric bit for bit
        pat = t.tri_pattern
        s = pat.sum(elem)
        stiffness = pat.matrix(0.5 * (s + s[pat.mirror]))

        return EllipticForm(
            stiffness, self.boundary_mass_weighted(np.ones_like(t.qw_bnd)), t)

    def domain_mass_weighted(self, w_qp: np.ndarray) -> sp.csr_matrix:
        """Assemble ``int w phi_a phi_b dx`` from weight values at interior
        quadrature points."""
        elem = (self.tables.qw_dom * w_qp) @ _TRI_PRODUCTS
        return self.tables.tri_pattern.assemble(elem)

    def boundary_mass_weighted(self, w_qp: np.ndarray) -> sp.csr_matrix:
        """Assemble ``int_boundary w phi_a phi_b ds`` from weight values at
        boundary quadrature points, (Nb, Nb) in boundary numbering on
        ``tables.bb_pattern``."""
        t = self.tables
        return t.bb_pattern.assemble((t.qw_bnd * w_qp) @ _EDGE_PRODUCTS)

    def beta_mass(self, lam: np.ndarray) -> sp.csr_matrix:
        """``M_B[beta(lam)]``, (Nb, Nb) in boundary numbering, the control's
        part of the curvature form: assembled once per parameter, and kept
        while the ``lam`` asked for equals the last one, shape and values
        (:func:`_same_weights`).  The matrix is shared: do not mutate it."""
        lam = np.asarray(lam, dtype=float)
        kept = self._beta_mass
        if kept is None or not _same_weights(kept[0], lam):
            kept = self._beta_mass = (lam.copy(), self.boundary_mass_weighted(
                self.eval_bnd(self.problem.beta, lam=lam)))
        return kept[1]

    def jacobian_matrix(self, w_qp: np.ndarray, c: float = 0.0
                        ) -> sp.csr_matrix:
        """Assembled ``K + M[w] + c M_B`` for weights at interior quadrature
        points, without factorizing it.  The matrix is shared: do not
        mutate it."""
        entry = self._jacobian.get(c)
        if entry is None or not _same_weights(entry[0], w_qp):
            mass = self._mass
            if mass is None or not _same_weights(mass[0], w_qp):
                w = _kept_weights(w_qp)
                mass = self._mass = (w, self.domain_mass_weighted(w).data)
            # both on the triangle pattern: adding the values adds as
            # scipy's K + M[w] would; c M_B adds onto the boundary edges
            data = self.form.stiffness.data + mass[1]
            if c:
                data[self.tables.bnd_in_tri] += \
                    c * self.form.mass_boundary_bb.data
            entry = (mass[0], self.tables.tri_pattern.matrix(data))
            self._jacobian[c] = entry
        return entry[1]

    def jacobian_factor(self, w_qp: np.ndarray, c: float = 0.0
                        ) -> SpdFactorization:
        """Factorized ``K + M[w] + c M_B``: the anchor of ``c`` when it
        factorizes this matrix, else a new factorization, which becomes the
        anchor of ``c``.  Every ``c`` shares the triangle pattern's
        analysis, made at the first factorization (see
        :class:`SpdFactorization`).  The factorization is shared: do not
        mutate it."""
        matrix = self.jacobian_matrix(w_qp, c)
        anchor = self._anchor.get(c)
        if anchor is None or anchor.matrix is not matrix:
            anchor = self._anchor[c] = SpdFactorization(
                matrix, _pattern=self.tables.tri_pattern)
        return anchor

    def jacobian_solve(self, w_qp: np.ndarray, b: np.ndarray,
                       c: float = 0.0, x0: np.ndarray | None = None
                       ) -> np.ndarray:
        """Solve ``(K + M[w] + c M_B) x = b`` to the :func:`solve_spd`
        bounds.

        Uses the anchor of ``c`` when it factorizes this matrix.  Otherwise
        runs conjugate gradients on the assembled matrix, preconditioned by
        the anchor of ``c`` and started from the guess ``x0`` when one is
        given; only when that fails, or ``c`` has no anchor yet, is the
        matrix factorized (and becomes the anchor of ``c``).  Only the
        conjugate gradients on a stale anchor read ``x0``.
        """
        matrix = self.jacobian_matrix(w_qp, c)
        anchor = self._anchor.get(c)
        if anchor is not None and anchor.matrix is not matrix:
            try:
                return solve_spd(matrix, b, factor=anchor, x0=x0)
            except FemError:
                pass
        return solve_spd(matrix, b, factor=self.jacobian_factor(w_qp, c))

    def control_to_state(self, factor: SpdFactorization) -> np.ndarray:
        """The dense control-to-state map ``T = A^-1 M_B[:, boundary]``,
        (V, Nb), with ``factor`` a factorization of ``A = K + M[h_y]``
        (as :func:`ctrlstab.pde.linearized_operator` returns).

        ``T`` is solved once per factorization: it is kept with the
        factorization it was solved with, and solved again only for another
        one.  The array is shared: do not mutate it.
        """
        if self._t_map is None or self._t_map[0] is not factor:
            rhs = np.zeros((self.mesh.n_vertices, self.mesh.n_boundary))
            rhs[self.mesh.boundary_vertices] = \
                self.form.mass_boundary_bb.toarray()
            self._t_map = (factor, factor.solve(rhs))
        return self._t_map[1]

    def keep_point(self, point) -> None:
        """Keep ``point``, a KKT point solved on this discretization, as the
        last point of the warm-start chain, which keeps its last
        ``_CHAIN_LENGTH`` points."""
        self._chain = [*self._chain, point][-_CHAIN_LENGTH:]

    def resume(self, control: np.ndarray, lam: np.ndarray):
        """The start of a re-solve at the parameter ``lam`` from
        ``control``: ``(point, state, costate)`` when ``control`` equals the
        control of the chain's last point bit for bit (shape and values),
        else None.

        ``point`` is the chain's last point, and ``state`` and ``costate``
        are what the chain predicts at ``lam``, nodal arrays.  The last
        point is always usable.  Going back from it, a point is usable
        while its parameter lies on the line from the last point's
        parameter to ``lam``, up to ``_COLLINEAR_RTOL`` of the largest
        parameter entry, and at a coordinate ``s`` below that of the usable
        point after it, with ``s = 0`` at the last point and ``s = 1`` at
        ``lam``: so ``lam`` lies beyond the last point.  The point of a
        solve that did not resume counts like any other.  After a cold
        solve at a sweep's base, the points of an earlier sweep from that
        base lie ahead of it when the sweeps share their direction and off
        the new line when the directions are not parallel, so the walk
        stops at them; only a sweep along the opposite direction left
        points behind the base, on the line.  The prediction is
        the Lagrange polynomial in ``s`` through the usable points' states
        (costates), evaluated at ``s = 1``.  With one usable point it is
        the last point's state and the costate is None: no guess, as
        without a chain.
        """
        last = self._chain[-1] if self._chain else None
        if last is None or not np.array_equal(last.control.values, control):
            return None
        lam_k = last.param.values
        d = lam - lam_k
        dd = float(d @ d)
        nodes, points = [0.0], [last]
        # a parameter equal to the last one spans no line
        earlier = reversed(self._chain[:-1]) if dd > 0.0 else ()
        for point in earlier:
            v = point.param.values - lam_k
            s = float(v @ d) / dd
            scale = max(np.max(np.abs(lam)), np.max(np.abs(lam_k)),
                        np.max(np.abs(point.param.values)))
            if not (s < nodes[-1] and np.max(np.abs(v - s * d))
                    <= _COLLINEAR_RTOL * scale):
                break
            nodes.append(s)
            points.append(point)
        if len(points) == 1:
            return last, last.state.values, None
        weights = [math.prod((1.0 - si) / (sj - si)
                             for i, si in enumerate(nodes) if i != j)
                   for j, sj in enumerate(nodes)]
        return (last, *(sum(w * getattr(p, name).values
                            for w, p in zip(weights, points))
                        for name in ("state", "adjoint")))

    def domain_load(self, f_qp: np.ndarray) -> np.ndarray:
        """Assemble ``int f phi_a dx`` into a full nodal vector (V,)."""
        contrib = (self.tables.qw_dom * f_qp) @ TRI_BASIS
        return np.bincount(self.mesh.triangles.ravel(), weights=contrib.ravel(),
                           minlength=self.mesh.n_vertices)

    def boundary_load(self, f_qp: np.ndarray) -> np.ndarray:
        """Assemble ``int_boundary f phi_a ds`` over the boundary nodes and
        embed it into a full nodal vector (V,)."""
        contrib = (self.tables.qw_bnd * f_qp) @ EDGE_BASIS
        return self.embed(np.bincount(self.tables.edge_pos.ravel(),
                                      weights=contrib.ravel(),
                                      minlength=self.mesh.n_boundary))

    def integrate_domain(self, f_qp: np.ndarray) -> float:
        return float(np.sum(self.tables.qw_dom * f_qp))

    def integrate_boundary(self, f_qp: np.ndarray) -> float:
        return float(np.sum(self.tables.qw_bnd * f_qp))

    def l2_boundary(self, w: np.ndarray) -> float:
        """L2 boundary norm of a boundary nodal array."""
        return self.tables.l2_boundary(w)


__all__ = [
    "TRI_BASIS", "EDGE_T", "EDGE_BASIS",
    "FemError", "NotSpdError",
    "FeFunction", "BoundaryFunction", "nodal_values",
    "norm", "SpdFactorization", "solve_spd",
    "EllipticForm", "Discretization",
]
