"""Command line interface.

Subcommands::

    solve      solve at the reference parameter; write point + residuals
    verify     recheck a stored point against first-order conditions
    ssc        solve, then run the second-order estimators
    sweep      stability sweep (requires the [sweep] section)
    mesh-dump  write the node/element file of the instance mesh

Exit codes: 0 success, 1 verification failed, 2 invalid configuration,
command line or point file, or an output path that cannot be written (any
``OSError``), 3 solver non-convergence, a failed
second-order hypothesis or a linear-algebra failure (``FemError``, such as
a mesh too large for the banded factorization's byte budget).

Point files are plain text: a one-line header naming the mesh hash and the
field sizes, then one value per line in fixed order: state (one per
vertex), control (one per boundary node), adjoint (one per vertex), then
each multiplier (one per boundary node).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .config import (ConfigError, build_discretization, build_mesh,
                     parse_instance, sweep_plan)
from .expr import ExprError
from .fem import BoundaryFunction, Discretization, FemError, FeFunction
from .geometry import MeshError, dump_mesh, mesh_hash, mesh_text
from .kkt import (KktPoint, _safe, check_ssc, partition_at,
                  projection_identity_gap, residuals)
from .pde import StateSolveError
from .problem import AdmissionError
from .solver import (PartitionError, SolverError, objective_value, solve_kkt)
from .stability import (SscHypothesisError, run_sweep, write_sweep_csv,
                        write_sweep_json)


class PointFileError(ValueError):
    """Corrupt point file or one that does not match the mesh."""


def save_point(point: KktPoint, path) -> None:
    mesh = point.state.mesh
    fields = [point.state.values, point.control.values,
              point.adjoint.values, *point.multipliers]
    lines = [f"# ctrlstab point mesh={mesh_hash(mesh)} "
             f"vertices={mesh.n_vertices} boundary={mesh.n_boundary} "
             f"constraints={point.m}"]
    for block in fields:
        lines.extend(repr(float(v)) for v in block)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_point(path, disc: Discretization, lam: BoundaryFunction) -> KktPoint:
    mesh = disc.mesh
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise PointFileError(f"cannot read {path}: {exc}") from exc
    if not lines or not lines[0].startswith("# ctrlstab point "):
        raise PointFileError(f"{path}: missing point header")
    meta = {}
    for token in lines[0].removeprefix("# ctrlstab point ").split():
        key, _, val = token.partition("=")
        meta[key] = val
    for key in ("mesh", "vertices", "boundary", "constraints"):
        if key not in meta:
            raise PointFileError(f"{path}: header lacks '{key}'")
    if meta["mesh"] != mesh_hash(mesh):
        raise PointFileError(
            f"{path}: mesh hash {meta['mesh']} does not match the "
            f"instance mesh {mesh_hash(mesh)}")
    nv, nb, m = mesh.n_vertices, mesh.n_boundary, disc.problem.m
    try:
        shape = (int(meta["vertices"]), int(meta["boundary"]),
                 int(meta["constraints"]))
    except ValueError as exc:
        raise PointFileError(f"{path}: header sizes: {exc}") from exc
    if shape != (nv, nb, m):
        raise PointFileError(
            f"{path}: header sizes {shape} do not match the instance "
            f"({nv}, {nb}, {m})")
    sizes = [nv, nb, nv, m * nb]
    if len(lines) - 1 != sum(sizes):
        raise PointFileError(
            f"{path}: expected {sum(sizes)} values, found {len(lines) - 1}")
    try:
        data = np.array([float(v) for v in lines[1:]])
    except ValueError as exc:
        raise PointFileError(f"{path}: {exc}") from exc
    state, control, adjoint, mults = np.split(data, np.cumsum(sizes)[:-1])
    try:
        return KktPoint(state=FeFunction(mesh, state),
                        control=BoundaryFunction(mesh, control),
                        adjoint=FeFunction(mesh, adjoint),
                        multipliers=mults.reshape(m, nb), param=lam)
    except ValueError as exc:  # a non-finite value
        raise PointFileError(f"{path}: {exc}") from exc


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _write_json(payload: dict, fh=None) -> None:
    """Write the flat ``payload`` as strict JSON to ``fh`` (stdout by
    default): a non-finite float is written as ``null``."""
    print(json.dumps({k: _safe(v) for k, v in payload.items()}, indent=2,
                     sort_keys=True, allow_nan=False), file=fh)


def _residual_payload(res, sigma1: float) -> dict:
    payload = dataclasses.asdict(res)
    payload["sigma1"] = sigma1
    return payload


def _set_up(args, plan: bool = False) -> tuple:
    """What solve, verify, ssc and sweep share: ``(cfg, disc, lam, plan)``,
    the instance with the ``--tol`` override, its discretization, the
    reference parameter and, when ``plan``, the sweep plan (else None).
    ``--out`` is made last, so a bad instance leaves no directory behind and
    an unwritable ``--out`` exits before any solve."""
    cfg = parse_instance(args.config)
    if args.tol is not None:
        cfg.solve_options = dataclasses.replace(cfg.solve_options, tol=args.tol)
    disc = build_discretization(cfg)
    sweep = sweep_plan(cfg, disc) if plan else None
    lam = disc.param_reference()
    if getattr(args, "out", None):
        os.makedirs(args.out, exist_ok=True)
    return cfg, disc, lam, sweep


def cmd_solve(args) -> int:
    cfg, disc, lam, _ = _set_up(args)
    report = solve_kkt(disc, lam, options=cfg.solve_options)
    gap = projection_identity_gap(disc, report.point)
    obj = objective_value(disc, report.point.state, report.point.control, lam)
    _say(args, f"converged in {report.iterations} iterations "
               f"({report.newton} Newton, {report.pinned} pinned tried): "
               f"worst residual {report.residuals.worst:.3e}, "
               f"objective {obj:.9g}, sigma1 {report.sigma1:.6g}, "
               f"projection gap {gap:.3e}")
    if args.out:
        point_path = os.path.join(args.out, "point.txt")
        save_point(report.point, point_path)
        with open(os.path.join(args.out, "residuals.json"), "w") as fh:
            _write_json(_residual_payload(report.residuals, report.sigma1),
                        fh)
        _say(args, f"wrote {point_path}")
    return 0


def cmd_verify(args) -> int:
    cfg, disc, lam, _ = _set_up(args)
    point = load_point(args.point, disc, lam)
    res = residuals(disc, point)
    part = partition_at(disc, point.state.values, lam.values)
    gap = projection_identity_gap(disc, point)
    payload = _residual_payload(res, part.sigma1)
    payload["projection_gap"] = gap
    _write_json(payload)
    tol = cfg.solve_options.tol
    ok = res.worst <= tol and gap <= 10.0 * tol
    _say(args, f"verification {'passed' if ok else 'FAILED'} at "
               f"tolerance {tol:g}")
    return 0 if ok else 1


def cmd_ssc(args) -> int:
    cfg, disc, lam, _ = _set_up(args)
    report = solve_kkt(disc, lam, options=cfg.solve_options)
    ssc = check_ssc(disc, report.point)
    _write_json(ssc.to_dict())
    if args.out:
        with open(os.path.join(args.out, "ssc.json"), "w") as fh:
            _write_json(ssc.to_dict(), fh)
    return 0 if ssc.positive else 1


def cmd_sweep(args) -> int:
    cfg, disc, _, plan = _set_up(args, plan=True)
    report = run_sweep(disc, plan, options=cfg.solve_options)
    out_dir = args.out or "."
    csv_path = os.path.join(out_dir, "sweep.csv")
    write_sweep_csv(report, csv_path)
    write_sweep_json(report, os.path.join(out_dir, "sweep.json"))
    for name, fit in report.fits.items():
        _say(args, f"{name}: exponent " + (
            "undetermined (fewer than 4 positive distances)" if fit is None
            else f"{fit.slope:.4f} (constant {fit.constant:.4g}, "
                 f"r2 {fit.r2:.4f})"))
    _say(args, f"holder quotient ratio {report.quotient_ratio:.3f} "
               f"(bounded: {report.holder_bounded}); wrote {csv_path}")
    failed = sum(1 for r in report.rows if not r.kkt_ok)
    if failed:
        print(f"{failed} sweep step(s) did not converge", file=sys.stderr)
        return 3
    return 0


def cmd_mesh_dump(args) -> int:
    mesh = build_mesh(parse_instance(args.config))
    if args.out:
        dump_mesh(mesh, args.out)
        _say(args, f"wrote {args.out} (mesh {mesh_hash(mesh)})")
    else:
        sys.stdout.write(mesh_text(mesh))
    return 0


def _tolerance(text: str) -> float:
    """The argparse type of ``--tol``: a positive, finite float."""
    value = float(text)
    if not 0.0 < value < np.inf:
        raise argparse.ArgumentTypeError(
            f"must be > 0 and finite, got {text}")
    return value


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ctrlstab",
        description="Boundary control of a semilinear elliptic equation: "
                    "solve, verify, second-order check, stability sweep.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, out_help=None, tol=True, quiet=True):
        """Register the shared flags that the subcommand reads."""
        p.add_argument("--config", required=True,
                       help="instance file (INI)")
        if out_help:
            p.add_argument("--out", default=None, help=out_help)
        if tol:
            p.add_argument("--tol", type=_tolerance, default=None,
                           help="tolerance override (positive, finite)")
        if quiet:
            p.add_argument("--quiet", action="store_true",
                           help="suppress progress lines")

    p = sub.add_parser("solve", help="solve at the reference parameter")
    common(p, "directory for point.txt and residuals.json")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="verify a stored point")
    common(p)
    p.add_argument("--point", required=True, help="point file to check")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ssc", help="second-order condition estimators")
    common(p, "directory for ssc.json", quiet=False)
    p.set_defaults(func=cmd_ssc)

    p = sub.add_parser("sweep", help="parametric stability sweep")
    common(p, "directory for sweep.csv and sweep.json")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("mesh-dump", help="write the node/element file")
    common(p, "output path (stdout when omitted)", tol=False)
    p.set_defaults(func=cmd_mesh_dump)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ExprError, AdmissionError, MeshError,
            PointFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, PartitionError, StateSolveError,
            SscHypothesisError, FemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
