"""Problem data for the boundary control instance and its admission gates.

An instance bundles the elliptic operator coefficients, the objective
integrands, the monotone state reaction, the mixed control-state constraint
functions, and the reference boundary parameter.  ``ProblemSpec.validate``
enforces the structural assumptions the optimality theory needs; gates that
cannot be proved symbolically are sampled at ``GATE_SAMPLES`` random points
with a fixed seed, so admission is deterministic.  A violated gate raises
``AdmissionError`` naming the assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expr import VARIABLES, Const, Expr, differentiate

#: sample count per admission gate
GATE_SAMPLES = 1000

#: sampling box for the state and parameter arguments of the gates
GATE_RANGE = 10.0

_GATE_SEED = 20260815


class AdmissionError(ValueError):
    """An instance violates one of the structural assumptions.

    ``label`` names the violated assumption; the message says where.
    """

    def __init__(self, label: str, message: str):
        self.label = label
        super().__init__(f"assumption {label} violated: {message}")


def check_operator(a11, a12, a22, a0, c0: float, quadrature: bool) -> None:
    """The (C0), ``a_0 >= 0`` and ``a_0 != 0`` gates on coefficient values
    at a set of points: the smallest eigenvalue of the tensor ``[[a11,
    a12], [a12, a22]]`` stays at or above ``c0`` and ``a0`` stays
    nonnegative, both to 1e-12, and ``a0`` is positive at some point.  The
    points are the sampled ones of :meth:`ProblemSpec.validate`, or the
    quadrature points of the assembly when ``quadrature`` is set.

    At the quadrature points these gates make the stiffness matrix ``K``
    of every ``Discretization`` SPD: ``v' K v = 0`` needs a gradient that
    vanishes on every triangle, so a constant ``v``, and then
    ``a0 v^2 = 0`` at the point where ``a0 > 0``.  With ``dh/dy >= 0``
    and a slope ``dg/dy = c >= 0``, ``K + M[h_y] + c M_B`` dominates ``K``
    and is SPD too, which the pinned certificate of
    :func:`ctrlstab.kkt.check_ssc` reads.

    Every test is a negated comparison, so a NaN (say, an eigenvalue whose
    formula overflows on huge finite entries) fails it instead of
    passing."""
    what, where = (("tensor eigenvalue", " at a quadrature point")
                   if quadrature else ("sampled ellipticity", ""))
    radius = np.sqrt((0.5 * (a11 - a22)) ** 2 + a12 ** 2)
    worst = float(np.min(0.5 * (a11 + a22) - radius))
    if not worst >= c0 - 1e-12:
        raise AdmissionError("(C0)", f"{what} {worst:.6g} below declared "
                                     f"constant {c0}{where}")
    a0_min = float(np.min(a0))
    if not a0_min >= -1e-12:
        raise AdmissionError("a_0 >= 0", f"a_0 reaches {a0_min:.6g}{where}")
    if not np.max(a0) > 0.0:
        raise AdmissionError("a_0 != 0", "a_0 vanishes at every " + (
            "quadrature point" if quadrature else "sample point"))


#: The instance model, one row per expression field of ``ProblemSpec``: the
#: field, its instance-file section and key, the variables it may use, the
#: label of the assumption a stray variable violates, and the words its
#: error names the field by.  :meth:`ProblemSpec.validate` and
#: :func:`ctrlstab.config.parse_instance` read it; the constraints g_i
#: (``[constraints] g_1 .. g_m``, every variable, (H4)) are a tuple and stay
#: outside it.
_EXPRESSIONS = (
    ("a11", "operator", "a11", "x1 x2", "(C0)", "operator coefficient a11"),
    ("a12", "operator", "a12", "x1 x2", "(C0)", "operator coefficient a12"),
    ("a22", "operator", "a22", "x1 x2", "(C0)", "operator coefficient a22"),
    ("a0", "operator", "a0", "x1 x2", "(C0)", "operator coefficient a0"),
    ("obj_domain", "cost", "L", "x1 x2 y", "objective", "domain objective"),
    ("obj_boundary", "cost", "ell", "x1 x2 s y lam", "objective",
     "boundary objective"),
    ("alpha", "cost", "alpha", "lam", "(H3)", "control cost weight alpha"),
    ("beta", "cost", "beta", "lam", "(H3)", "control cost weight beta"),
    ("reaction", "state", "h", "x1 x2 y", "(H4)", "reaction h"),
    ("param_ref", "parameter", "lambda_bar", "x1 x2 s", "parameter",
     "reference parameter"),
)


def _check_vars(e: Expr, allowed: set, label: str, what: str) -> None:
    extra = e.free_vars() - allowed
    if extra:
        raise AdmissionError(
            label, f"{what} may only use {sorted(allowed)}, found "
                   f"{sorted(extra)} in '{e}'")


def _y_derivatives(name: str) -> tuple:
    """The first and second y-derivatives of the field ``name``, entry by
    entry for a tuple, as two cached properties: each is computed on its
    first read and kept on the instance."""
    def derivative(order):
        def compute(spec):
            e = getattr(spec, name)
            if isinstance(e, tuple):
                return tuple(differentiate(g, "y", order) for g in e)
            return differentiate(e, "y", order)
        return cached_property(compute)
    return derivative(1), derivative(2)


@dataclass
class ProblemSpec:
    """Data of one control instance.

    Each expression field's instance-file key, the variables it may use and
    the assumption a stray variable violates are stated once, in the table
    ``_EXPRESSIONS`` of this module.

    Attributes
    ----------
    a11, a12, a22 : Expr
        Symmetric diffusion tensor entries (a21 = a12).
    a0 : Expr
        Reaction coefficient of the linear operator, >= 0 and not
        identically 0.
    c0 : float
        Declared ellipticity constant: xi' a(x) xi >= c0 |xi|^2.
    obj_domain : Expr
        Volume objective integrand.
    obj_boundary : Expr
        Boundary objective integrand (excluding the control terms).
    alpha, beta : Expr
        Linear/quadratic control cost weights; beta(lam_ref) >= gamma > 0.
    gamma : float
        Declared lower bound for beta along the reference parameter.
    reaction : Expr
        Monotone semilinear term h: h(x, 0) = 0 and dh/dy >= 0.
    constraints : tuple of Expr in (x1, x2, s, y, lam)
        Constraint functions g_i; the mixed constraints read
        g_i(x, y, lam) + u <= 0 on the boundary, with dg_i/dy >= 0.
    param_ref : Expr
        Reference boundary parameter.
    r : float in (2, 4)
        Exponent of the W^{1,r} norm used for state distances.
    """

    a11: Expr
    a12: Expr
    a22: Expr
    a0: Expr
    c0: float
    obj_domain: Expr
    obj_boundary: Expr
    alpha: Expr
    beta: Expr
    gamma: float
    reaction: Expr
    constraints: tuple
    param_ref: Expr
    r: float = 3.0
    name: str = "instance"

    @property
    def m(self) -> int:
        return len(self.constraints)

    # first and second y-derivatives used by the optimality system
    obj_domain_y, obj_domain_yy = _y_derivatives("obj_domain")
    obj_boundary_y, obj_boundary_yy = _y_derivatives("obj_boundary")
    reaction_y, reaction_yy = _y_derivatives("reaction")
    constraints_y, constraints_yy = _y_derivatives("constraints")

    @cached_property
    def constraint_slopes(self) -> tuple:
        """Per constraint, the constant ``c_i`` to which ``dg_i/dy`` folds,
        or None when the folded derivative is not a ``Const``."""
        return tuple(gy.value if isinstance(gy, Const) else None
                     for gy in self.constraints_y)

    def common_slope(self, indices) -> float | None:
        """The one constant slope ``c = dg_i/dy`` shared by the constraints
        ``indices``, or None when one of them has no constant slope or two
        differ.

        The slope is read from the folded derivative, not sampled: a
        derivative that takes one value but does not fold to a ``Const``
        (say, that of ``y*exp(0) - 3``, as ``exp(0)`` is not folded) has
        none.  :func:`ctrlstab.solver.solve_kkt` tries its pinned step at an
        iterate only where the labels of its dominance partition have one,
        and the pinned certificate of :func:`ctrlstab.kkt.check_ssc` reads
        it too."""
        slopes = {self.constraint_slopes[i] for i in indices}
        return slopes.pop() if len(slopes) == 1 else None

    def validate(self) -> None:
        """Run all admission gates; raise ``AdmissionError`` on failure."""
        if self.m < 2:
            raise AdmissionError("m >= 2",
                                 f"need at least 2 constraints, got {self.m}")
        if not (2.0 < self.r < 4.0):
            raise AdmissionError("r in (2,4)", f"r = {self.r}")
        if not (self.c0 > 0.0):
            raise AdmissionError("(C0)", f"ellipticity constant {self.c0}")
        if not (self.gamma > 0.0):
            raise AdmissionError("(H3)", f"gamma = {self.gamma}")

        for name, _, _, names, label, what in _EXPRESSIONS:
            _check_vars(getattr(self, name), set(names.split()), label, what)
        for i, g in enumerate(self.constraints, start=1):
            _check_vars(g, set(VARIABLES), "(H4)", f"constraint g_{i}")

        # every sampled gate is a negated comparison, so that a NaN sample
        # (say, inf - inf from an overflow) fails it instead of passing
        rng = np.random.default_rng(_GATE_SEED)
        # random interior points (uniform on the disk) and boundary points
        t = 2.0 * math.pi * rng.random(GATE_SAMPLES)
        rad = np.sqrt(rng.random(GATE_SAMPLES))
        xd = {"x1": rad * np.cos(t), "x2": rad * np.sin(t)}
        sb = 2.0 * math.pi * rng.random(GATE_SAMPLES)
        xb = {"x1": np.cos(sb), "x2": np.sin(sb), "s": sb}
        yv = GATE_RANGE * (2.0 * rng.random(GATE_SAMPLES) - 1.0)
        lv = GATE_RANGE * (2.0 * rng.random(GATE_SAMPLES) - 1.0)

        def sampled(e, env):
            return np.broadcast_to(
                np.asarray(e.eval(env), dtype=float), (GATE_SAMPLES,))

        # (C0), a_0 >= 0 and a_0 != 0 at interior samples
        check_operator(sampled(self.a11, xd), sampled(self.a12, xd),
                       sampled(self.a22, xd), sampled(self.a0, xd), self.c0,
                       quadrature=False)

        # (H3): beta along the reference parameter stays above gamma
        lam_ref = sampled(self.param_ref, xb)
        beta_ref = sampled(self.beta, {"lam": lam_ref})
        if not np.min(beta_ref) >= self.gamma - 1e-12:
            raise AdmissionError(
                "(H3)", f"beta(lambda_ref) reaches "
                        f"{float(np.min(beta_ref)):.6g} < gamma = {self.gamma}")

        # (H4): h(x, 0) = 0, dh/dy >= 0, dg_i/dy >= 0
        h0 = sampled(self.reaction, {**xd, "y": np.zeros(GATE_SAMPLES)})
        if not np.max(np.abs(h0)) <= 1e-12:
            raise AdmissionError(
                "(H4)", f"h(x, 0) reaches {float(np.max(np.abs(h0))):.6g}")
        hy = sampled(self.reaction_y, {**xd, "y": yv})
        if not np.min(hy) >= -1e-12:
            raise AdmissionError(
                "(H4)", f"dh/dy reaches {float(np.min(hy)):.6g}")
        for i, gy in enumerate(self.constraints_y, start=1):
            gyv = sampled(gy, {**xb, "y": yv, "lam": lv})
            if not np.min(gyv) >= -1e-12:
                raise AdmissionError(
                    "(H4)", f"dg_{i}/dy reaches {float(np.min(gyv)):.6g}")


__all__ = ["ProblemSpec", "AdmissionError", "check_operator", "GATE_SAMPLES",
           "GATE_RANGE"]
