"""Boundary optimal control of a semilinear elliptic equation on the disk.

Solves the first-order optimality system of a boundary control problem with
pointwise mixed control-state constraints, verifies first- and second-order
optimality conditions, and measures the stability of the solution map under
perturbations of the boundary parameter.
"""

from .expr import EvalError, Expr, ExprError, ParseError, differentiate, parse
from .geometry import Mesh, MeshError, dump_mesh, make_disk_mesh, mesh_hash
from .problem import AdmissionError, ProblemSpec
from .fem import (BoundaryFunction, Discretization, EllipticForm, FemError,
                  FeFunction, NotSpdError, SpdFactorization, norm, solve_spd)
from .pde import (StateSolveError, StateSolveReport, linearized_operator,
                  solve_adjoint, solve_state)
from .kkt import (KktPoint, KktResiduals, PartitionH5, SscReport, check_ssc,
                  partition_at, projection_identity_gap, quadratic_form,
                  recover_multipliers, residuals)
from .solver import (KktSolveReport, PartitionError, SolveOptions,
                     SolverError, objective_value, solve_kkt)
from .stability import (ExponentFit, SscHypothesisError, StabilityReport,
                        SweepPlan, SweepPlanError, SweepRow, fit_exponent,
                        run_sweep, write_sweep_csv, write_sweep_json)
from .config import (ConfigError, InstanceConfig, build_discretization,
                     build_mesh, parse_instance, sweep_plan)

__version__ = "0.1.0"

__all__ = [
    "Expr", "ExprError", "ParseError", "EvalError", "parse", "differentiate",
    "Mesh", "MeshError", "make_disk_mesh", "mesh_hash", "dump_mesh",
    "ProblemSpec", "AdmissionError",
    "FeFunction", "BoundaryFunction", "EllipticForm", "Discretization",
    "FemError", "NotSpdError", "SpdFactorization", "norm", "solve_spd",
    "StateSolveError", "StateSolveReport", "solve_state", "solve_adjoint",
    "linearized_operator",
    "KktPoint", "KktResiduals", "PartitionH5", "SscReport",
    "residuals", "recover_multipliers", "partition_at",
    "projection_identity_gap", "quadratic_form", "check_ssc",
    "SolveOptions", "KktSolveReport", "SolverError", "PartitionError",
    "solve_kkt", "objective_value",
    "SweepPlan", "SweepRow", "SweepPlanError", "ExponentFit",
    "StabilityReport", "SscHypothesisError", "fit_exponent", "run_sweep",
    "write_sweep_csv", "write_sweep_json",
    "ConfigError", "InstanceConfig", "parse_instance", "build_mesh",
    "build_discretization", "sweep_plan",
    "__version__",
]
