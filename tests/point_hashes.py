"""Print one fingerprint line per shipped instance file, to check that a
change keeps every solver output bit for bit.

Usage::

    python tests/point_hashes.py [REPO_ROOT]

``REPO_ROOT`` (default: this checkout) is the tree whose ``src/`` is
imported and whose ``configs/*.ini`` and ``perfbench/instances/*.ini`` are
read, so the same script run against another checkout (say, the parent
commit in a separate clone) prints lines that compare with ``diff``.

Each line holds 16-hex-digit SHA-256 prefixes of:

* ``cold``: the solve at the reference parameter with the file's solver
  options: state, control, adjoint, multipliers, iteration/Newton/pinned
  counts, sigma1, history and the residual record;
* ``warm``: the same fields of every solve of the chain at the file's
  ``[sweep] t``, each started from the last converged control as
  ``run_sweep`` does (a failed step contributes its error class);
* ``ssc``: ``check_ssc`` at the cold point with ``default_rng([0, 0])`` and
  the file's ``ssc_samples`` (200 when the file sets none);
* ``chain``: on a new discretization, in the order of ``run_sweep`` and of
  the benchmark's jobs, the cold solve, ``check_ssc`` at its point (as for
  ``ssc``) and then the warm chain (as for ``warm``), so that what the
  check leaves in the discretization's factorization cache shows in the
  warm solves;

and ``verify=eq`` when the cold residual record equals
``residuals(disc, point)`` bit for bit (``verify=ne`` otherwise).  pytest
does not collect this file; it runs in well under a minute.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np


def _update(h, part) -> None:
    if isinstance(part, np.ndarray):
        h.update(np.ascontiguousarray(part, dtype=float).tobytes())
    else:
        h.update(repr(part).encode())
    h.update(b"|")


def _solve_parts(rep) -> list:
    point = rep.point
    return [point.state.values, point.control.values, point.adjoint.values,
            *(e.values for e in point.multipliers),
            (rep.iterations, rep.newton, rep.pinned), rep.sigma1,
            list(rep.history), dataclasses.astuple(rep.residuals)]


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        _update(h, part)
    return h.hexdigest()[:16]


def _warm_parts(cs, cfg, disc, cold) -> list:
    """The fingerprint parts of the warm chain from the cold solve."""
    plan = cs.sweep_plan(cfg, disc)
    lam_ref = disc.param_reference()
    parts = []
    u_warm = cold.point.control.values
    for t in plan.t_values:
        lam_t = lam_ref.values + t * plan.delta.values
        try:
            rep = cs.solve_kkt(disc, lam_t, u0=u_warm,
                               options=cfg.solve_options)
        except (cs.SolverError, cs.PartitionError, cs.StateSolveError,
                cs.AdmissionError) as exc:
            parts.append(type(exc).__name__)
            continue
        parts.extend(_solve_parts(rep))
        u_warm = rep.point.control.values
    return parts


def _ssc(cs, cfg, disc, cold):
    n_samples = cfg.sweep.ssc_samples if cfg.sweep is not None else 200
    return dataclasses.astuple(cs.check_ssc(
        disc, cold.point, n_samples=n_samples,
        rng=np.random.default_rng([0, 0])))


def fingerprint(cs, path: Path) -> str:
    """The ``cold=… warm=… ssc=… chain=… verify=…`` fields of one instance
    file."""
    cfg = cs.parse_instance(path)
    disc = cs.build_discretization(cfg)
    cold = cs.solve_kkt(disc, disc.param_reference(),
                        options=cfg.solve_options)
    same = cs.residuals(disc, cold.point) == cold.residuals
    warm = "-" if cfg.sweep is None \
        else _digest(_warm_parts(cs, cfg, disc, cold))
    ssc = _ssc(cs, cfg, disc, cold)

    disc = cs.build_discretization(cfg)
    first = cs.solve_kkt(disc, disc.param_reference(),
                         options=cfg.solve_options)
    chain = [*_solve_parts(first), _ssc(cs, cfg, disc, first)]
    if cfg.sweep is not None:
        chain.extend(_warm_parts(cs, cfg, disc, first))
    return (f"cold={_digest(_solve_parts(cold))} warm={warm} "
            f"ssc={_digest(ssc)} chain={_digest(chain)} "
            f"verify={'eq' if same else 'ne'}")


def main(argv: list) -> int:
    root = Path(argv[1] if len(argv) > 1 else
                Path(__file__).resolve().parent.parent).resolve()
    sys.path.insert(0, str(root / "src"))
    import ctrlstab as cs

    files = sorted((root / "configs").glob("*.ini")) \
        + sorted((root / "perfbench" / "instances").glob("*.ini"))
    for path in files:
        print(f"{path.relative_to(root)} {fingerprint(cs, path)}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
