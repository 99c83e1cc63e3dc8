"""Check that a change keeps every solver output of every shipped instance
file bit for bit, or measure how far it moves them.

Usage::

    python tests/point_hashes.py [REPO_ROOT]
    python tests/point_hashes.py --against OTHER_ROOT

The instance files are ``configs/*.ini`` and ``perfbench/instances/*.ini``
of the tree whose ``src/`` is imported.  ``record`` runs, for one file:

* ``cold``: the solve at the reference parameter with the file's solver
  options;
* ``warm``: every solve of the chain at the file's ``[sweep] t``, each
  started from the last converged control as ``run_sweep`` does, so that
  each resumes from the whole last point the discretization keeps (none
  without a sweep);
* ``ssc``: ``check_ssc`` at the cold point with ``default_rng([0, 0])`` and
  the file's ``ssc_samples`` (200 when the file sets none);
* ``chain``: on a new discretization, in the order of ``run_sweep`` and of
  the benchmark's jobs, the cold solve, ``check_ssc`` at its point (as for
  ``ssc``) and then the warm chain (as for ``warm``), so that what the
  check leaves in the discretization's factorization cache shows in the
  warm solves;
* ``verify``: whether the cold residual record equals
  ``residuals(disc, point)`` bit for bit;
* ``setup``: what the set-up of the first discretization built: the
  ``mesh_hash``, the mesh's edge sort (its sorted edge keys and each
  triangle side's edge; for a tree whose mesh keeps no edge sort, the
  ``np.unique`` of its side keys, which are those arrays), the mesh tables
  (areas, gradients, quadrature points and weights), each assembly
  pattern's ``keys``, ``pos``, ``indptr`` and ``indices`` and the
  boundary-in-triangle map, and the data, indices and indptr of each
  ``EllipticForm`` matrix, read by name (``FORM``);
* ``evaluations``: for each of the groups ``cold`` (the cold solve),
  ``warm``, ``ssc`` and ``chain`` (its three parts together), the calls of
  ``Discretization.eval_dom``, ``eval_bnd`` and ``eval_node``
  (``EVALUATIONS``), counted as the benchmark's tracer counts
  ``expr.eval.calls``.

Each solve is recorded as its state, control, adjoint and multiplier
arrays, its (iterations, newton, pinned) counts, sigma1, history and
residual record, or as its error class name when it failed.

An array is hashed by its dtype, its shape and its bytes, so that a
change of integer width or of layout reads as a move.

The first form reads ``REPO_ROOT`` (default: this checkout) and prints one
line per file: 16-hex-digit SHA-256 prefixes of ``cold``, ``warm`` (``-``
without a sweep), ``ssc``, ``chain`` and ``setup``, and ``verify=eq``
(``verify=ne`` otherwise); the evaluation counts are not hashed.  Lines
printed from two trees compare with ``diff``.

``--against`` records this checkout and ``OTHER_ROOT``, each in its own
subprocess that imports that tree's ``src/``, and prints one line per
group of each file: ``cold`` (the cold solve and ``verify``), ``warm``,
``ssc``, ``chain`` (its solves and its SSC report) and ``setup``, so that
a change that keeps the cold solves bit for bit and moves the warm ones
reads as such.  A line reads whether the counts of the group's solves
agree and, for every field that the fingerprint hashes, ``=`` when it is
bit-identical in every solve of the group, or else its largest absolute
move.  A field that no pair of successful solves carries reads ``-``, and
so does a group with nothing to compare (``warm`` without a sweep).  The
named fields of a group (an SSC report, the set-up record) are those of
either tree, and a field that one tree records and the other does not
reads ``only in this tree`` or ``only in the other tree``.  It exits 0
when every file is in both trees and every group reads ``counts same``
and ``=`` for every field, else 1 (also when a tree's records cannot be
collected, and when a field is recorded on one side only).  After the
groups it prints one line for each file whose expression evaluations
differ in some group, ``<file> evaluations cold <this> vs <other>, ...``
with each group's counts as ``eval_dom/eval_bnd/eval_node``, so that a
claim to compute less can be checked on every file; these lines do not
change the exit status.

``--against`` also records, in both trees, the members of this
checkout's ``tests/random_family.py`` drawn with each seed of
``FAMILY_SEEDS``: each member's cold solve with the default solver options
and ``verify``, ``check_ssc`` at its point and a warm chain at
``lam_ref + t`` for each ``t`` of ``FAMILY_T``, in ``run_sweep``'s order.
After the files' lines it prints, seed by seed, one line per member whose
records differ, with the counts of each group (``cold``, ``warm``,
``ssc``) whose counts differ and the largest finite move, and a summary
line for the seed.  The family lines measure how far a change moves
instances that no file ships; the exit status is the files' alone.

With one BLAS thread on a 2-CPU machine the first form takes about 2 s
for all instance files and ``--against``, with the family, 5 to 9 s;
``--against`` runs each subprocess with one BLAS thread whatever the
caller's environment; ``tests/test_point_hashes.py`` runs both reports
on one file and the family report on two members.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np

#: the fields of a solve record, in the fingerprint's order
FIELDS = ("state", "control", "adjoint", "multipliers", "counts", "sigma1",
          "history", "residuals")


def _fields(rep) -> dict:
    """The record of one solve."""
    p = rep.point
    return dict(zip(FIELDS, (
        p.state.values, p.control.values, p.adjoint.values,
        np.array([getattr(e, "values", e) for e in p.multipliers]),
        (rep.iterations, rep.newton, rep.pinned), rep.sigma1,
        list(rep.history), dataclasses.astuple(rep.residuals))))


def _warm(cs, cfg, disc, cold) -> list | None:
    """The records of the warm chain of an instance file from the cold
    solve (None without a sweep), as :func:`_chain` solves it."""
    if cfg.sweep is None:
        return None
    plan = cs.sweep_plan(cfg, disc)
    lam_ref = disc.param_reference().values
    return _chain(cs, disc, [lam_ref + t * plan.delta.values
                             for t in plan.t_values], cfg.solve_options, cold)


def _chain(cs, disc, lams, options, cold) -> list:
    """The records of the solves at the parameters ``lams`` from the cold
    solve.  Each solve starts from the last converged control, the
    control of the last point solved on ``disc``, so ``solve_kkt``
    resumes from that whole point; the caller solves nothing else on
    ``disc`` between ``cold`` and the chain."""
    out, u_warm = [], cold.point.control.values
    for lam in lams:
        try:
            rep = cs.solve_kkt(disc, lam, u0=u_warm, options=options)
        except (cs.SolverError, cs.PartitionError, cs.StateSolveError,
                cs.AdmissionError) as exc:
            out.append(type(exc).__name__)
            continue
        out.append(_fields(rep))
        u_warm = rep.point.control.values
    return out


def _ssc(cs, disc, rep, n_samples=200) -> dict:
    return dataclasses.asdict(cs.check_ssc(
        disc, rep.point, n_samples=n_samples,
        rng=np.random.default_rng([0, 0])))


#: the mesh tables and assembly patterns that ``setup`` reads, by attribute
TABLES = ("areas", "grads", "qp_dom", "qw_dom", "qp_bnd", "qw_bnd",
          "qs_bnd", "edge_pos", "bnd_in_tri")
PATTERNS = ("tri_pattern", "bb_pattern")
PATTERN_ARRAYS = ("keys", "pos", "indptr", "indices")
#: the mesh's edge arrays and the ``EllipticForm`` matrices, by name
EDGES = ("edges.keys", "edges.sides")
FORM = ("stiffness", "mass_domain", "mass_boundary_bb")


def _edges(cs, mesh) -> tuple:
    """The sorted edge keys of ``mesh`` and the edge of each triangle
    side: its kept edge sort, or ``np.unique`` of its side keys where the
    tree's mesh keeps none."""
    if hasattr(mesh, "edges"):
        return mesh.edges()
    keys, sides = np.unique(cs.geometry._edge_keys(mesh.triangles,
                                                   mesh.n_vertices),
                            return_inverse=True)
    return keys, sides.reshape(mesh.triangles.shape)


def _setup(cs, disc) -> dict:
    """The set-up record of a discretization: its mesh hash, edges,
    tables, patterns and assembled form, by name."""
    t = disc.tables
    out = {"mesh_hash": cs.mesh_hash(disc.mesh)}
    out.update(zip(EDGES, _edges(cs, disc.mesh)))
    out.update((name, getattr(t, name)) for name in TABLES)
    out.update((f"{pattern}.{name}", getattr(getattr(t, pattern), name))
               for pattern in PATTERNS for name in PATTERN_ARRAYS)
    for field in FORM:
        matrix = getattr(disc.form, field)
        out.update((f"{field}.{name}", getattr(matrix, name))
                   for name in ("data", "indices", "indptr"))
    return out


#: the expression evaluations of ``Discretization`` that ``record`` counts
EVALUATIONS = ("eval_dom", "eval_bnd", "eval_node")


@contextlib.contextmanager
def _counting(cs):
    """Count the calls of the ``EVALUATIONS`` of ``cs.Discretization``
    within the block; yields ``taken()``, which returns the counts, one per
    method, since its last call or the block's start."""
    calls = dict.fromkeys(EVALUATIONS, 0)
    methods = {name: getattr(cs.Discretization, name)
               for name in EVALUATIONS}

    def counted(name):
        def call(*args, **kwargs):
            calls[name] += 1
            return methods[name](*args, **kwargs)
        return call

    def taken() -> tuple:
        out = tuple(calls.values())
        calls.update(dict.fromkeys(EVALUATIONS, 0))
        return out

    try:
        for name in EVALUATIONS:
            setattr(cs.Discretization, name, counted(name))
        yield taken
    finally:
        for name, method in methods.items():
            setattr(cs.Discretization, name, method)


def record(cs, path: Path) -> dict:
    """Every solve and SSC report of one instance file, the set-up of its
    first discretization and the expression evaluations of each group, with
    ``cs`` the imported ``ctrlstab``; the cold solves must succeed."""
    cfg = cs.parse_instance(path)
    n_samples = cfg.sweep.ssc_samples if cfg.sweep is not None else 200
    disc = cs.build_discretization(cfg)
    setup = _setup(cs, disc)
    with _counting(cs) as taken:
        cold = cs.solve_kkt(disc, disc.param_reference(),
                            options=cfg.solve_options)
        evals = {"cold": taken()}
        verify = cs.residuals(disc, cold.point) == cold.residuals
        taken()
        warm = _warm(cs, cfg, disc, cold)
        evals["warm"] = taken()
        ssc = _ssc(cs, disc, cold, n_samples)
        evals["ssc"] = taken()
        disc = cs.build_discretization(cfg)
        taken()
        first = cs.solve_kkt(disc, disc.param_reference(),
                             options=cfg.solve_options)
        chain_ssc = _ssc(cs, disc, first, n_samples)
        chain_warm = _warm(cs, cfg, disc, first)
        evals["chain"] = taken()
    return {"setup": setup, "cold": _fields(cold), "verify": verify,
            "warm": warm, "ssc": ssc, "chain_cold": _fields(first),
            "chain_ssc": chain_ssc, "chain_warm": chain_warm,
            "evaluations": evals}


#: the seeds of the ``tests/random_family.py`` members that ``--against``
#: records, and the parameter steps ``t`` of each member's warm chain
FAMILY_SEEDS = (0, 1, 2)
FAMILY_T = (0.001, 0.003, 0.01, 0.03)


def family_record(cs, spec, n_boundary, refinement) -> dict:
    """The record of one family member, in ``run_sweep``'s order: the cold
    solve at its reference parameter with the default solver options and
    ``verify``, as for an instance file; ``check_ssc`` at its point, as for
    ``ssc``; and the warm chain at ``lam_ref + t``, ``t`` in ``FAMILY_T``.
    A member whose discretization or cold solve fails is recorded as the
    error's class name, with no SSC report and no chain."""
    options = cs.SolveOptions()
    try:
        disc = cs.Discretization(spec, cs.make_disk_mesh(n_boundary,
                                                         refinement))
        cold = cs.solve_kkt(disc, disc.param_reference(), options=options)
    except (cs.SolverError, cs.PartitionError, cs.StateSolveError,
            cs.AdmissionError, cs.FemError) as exc:
        return {"cold": type(exc).__name__, "verify": None, "ssc": {},
                "warm": None}
    lam_ref = disc.param_reference().values
    return {"cold": _fields(cold),
            "verify": cs.residuals(disc, cold.point) == cold.residuals,
            "ssc": _ssc(cs, disc, cold),
            "warm": _chain(cs, disc, [lam_ref + t for t in FAMILY_T],
                           options, cold)}


def family(cs) -> dict:
    """The records of the members of ``tests/random_family.py`` by seed of
    ``FAMILY_SEEDS``, and for each seed by spec name, in member order."""
    import random_family

    return {seed: {spec.name: family_record(cs, spec, n_boundary, refinement)
                   for _, spec, n_boundary, refinement
                   in random_family.members(seed=seed)}
            for seed in FAMILY_SEEDS}


# --- the fingerprint line


def _hashed(part) -> bytes:
    if isinstance(part, np.ndarray):
        return (repr((part.dtype.str, part.shape)).encode()
                + np.ascontiguousarray(part).tobytes())
    return repr(part).encode()


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(_hashed(part) + b"|")
    return h.hexdigest()[:16]


def _parts(solves) -> list:
    """The hashed parts of solve records: the fields in order, the
    multipliers one array each, or the error class name."""
    out = []
    for s in solves:
        if isinstance(s, str):
            out.append(s)
            continue
        for key in FIELDS:
            out.extend(s[key] if key == "multipliers" else [s[key]])
    return out


def line(rec: dict) -> str:
    """The ``cold=… warm=… ssc=… chain=… setup=… verify=…`` fields of a
    record."""
    warm = "-" if rec["warm"] is None else _digest(_parts(rec["warm"]))
    chain = [*_parts([rec["chain_cold"]]), tuple(rec["chain_ssc"].values()),
             *_parts(rec["chain_warm"] or [])]
    return (f"cold={_digest(_parts([rec['cold']]))} warm={warm} "
            f"ssc={_digest(rec['ssc'].values())} chain={_digest(chain)} "
            f"setup={_digest(rec['setup'].values())} "
            f"verify={'eq' if rec['verify'] else 'ne'}")


# --- the move report


def _move(a, b) -> float | None:
    """None when ``a`` and ``b`` hash alike, else their largest absolute
    difference (inf when their shapes differ or they are not numbers)."""
    if _hashed(a) == _hashed(b):
        return None
    try:
        if np.shape(a) == np.shape(b):
            return float(np.max(np.abs(np.subtract(a, b, dtype=float))))
    except (TypeError, ValueError):
        pass
    return math.inf


def _named_field(named: list, key: str) -> str:
    """The reading of the named field ``key`` over the ``(mine, other)``
    pairs of dicts ``named``: where it is on one side only, that side,
    else as :func:`_field`."""
    if any(key not in y for _, y in named):
        return "only in this tree"
    if any(key not in x for x, _ in named):
        return "only in the other tree"
    return _field(_move(x[key], y[key]) for x, y in named)


def _field(moves) -> str:
    """``=`` when no pair moved, else the largest move; ``-`` without a
    pair."""
    moves = list(moves)
    found = [m for m in moves if m is not None]
    return "-" if not moves else f"{max(found):.2e}" if found else "="


#: the groups of a record that the move report reads apart: the keys of
#: their solves (one solve, a list or None) and of their named fields (an
#: SSC report or the set-up record)
GROUPS = {"cold": (("cold",), ()), "warm": (("warm",), ()),
          "ssc": ((), ("ssc",)),
          "chain": (("chain_cold", "chain_warm"), ("chain_ssc",)),
          "setup": ((), ("setup",))}


def _solves(rec: dict, keys) -> list:
    out = []
    for key in keys:
        value = rec[key]
        out.extend(value if isinstance(value, list) else
                   [] if value is None else [value])
    return out


def _moves(mine: dict, other: dict, group: str) -> list:
    """``(name, reading)`` of the counts and of every hashed field of one
    group of two records of one instance file; none for a group with no
    solve and no named fields in either record.  The cold group also
    reads ``verify``."""
    solve_keys, named_keys = GROUPS[group]
    a, b = (_solves(r, solve_keys) for r in (mine, other))
    out = []
    if a or b:
        counts = [" ".join(s if isinstance(s, str) else "/".join(
            map(str, s["counts"])) for s in x) for x in (a, b)]
        out.append(("counts", "same" if counts[0] == counts[1]
                    else f"{counts[0]} vs {counts[1]}"))
        pairs = [(x, y) for x, y in zip(a, b)
                 if not isinstance(x, str) and not isinstance(y, str)]
        out += [(key, _field(_move(x[key], y[key]) for x, y in pairs))
                for key in FIELDS if key != "counts"]
    named = [(mine[s], other[s]) for s in named_keys]
    # the keys of both sides, this tree's first, in their order
    keys = dict.fromkeys(key for pair in named for d in pair for key in d)
    out += [(key, _named_field(named, key)) for key in keys]
    if group == "cold":
        out.append(("verify",
                    _field([_move(mine["verify"], other["verify"])])))
    return out


def _reading(moves: list) -> str:
    return ", ".join(map(" ".join, moves)) or "-"


def compare(mine: dict, other: dict) -> dict:
    """Per group, whether the counts of two records of one instance file
    agree and the move of every hashed field (``-`` for a group with
    nothing to compare)."""
    return {group: _reading(_moves(mine, other, group)) for group in GROUPS}


def against(mine: dict, other: dict) -> tuple:
    """The ``--against`` report of two trees' records by file name: its
    lines, one per group of each file, and whether the trees agree, that
    is every file is in both, with the counts the same and every field
    ``=`` in every group."""
    lines, same = [], mine.keys() == other.keys()
    for name in sorted(mine.keys() | other.keys()):
        if name not in mine or name not in other:
            lines.append(f"{name} only in "
                         f"{'this' if name in mine else 'the other'} tree")
            continue
        for group in GROUPS:
            moves = _moves(mine[name], other[name], group)
            same = same and all(reading in ("same", "=")
                                for _, reading in moves)
            lines.append(f"{name} {group} {_reading(moves)}")
    return lines, same


def evaluation_lines(mine: dict, other: dict) -> list:
    """One line per instance file in both trees' records whose expression
    evaluations differ in some group: both trees' counts of each group,
    as ``eval_dom/eval_bnd/eval_node``."""
    lines = []
    for name in sorted(mine.keys() & other.keys()):
        evals = [mine[name]["evaluations"], other[name]["evaluations"]]
        if evals[0] != evals[1]:
            lines.append(f"{name} evaluations " + ", ".join(
                f"{group} " + " vs ".join("/".join(map(str, e[group]))
                                          for e in evals)
                for group in evals[0]))
    return lines


def family_lines(mine: dict, other: dict, seed: int) -> list:
    """The family part of the ``--against`` report of two trees' records,
    by member name, of the members drawn with ``seed``: one line per member
    whose records differ, then a summary line.  A member's line reads the counts of each of its
    groups (``cold``, ``warm``, ``ssc``) whose counts differ, its largest
    finite move, with the group and field where it is, and the fields
    that do not compare (a history of another length, a field on one side
    only)."""
    lines, moved = [], 0
    names = dict.fromkeys([*mine, *other])
    for name in names:
        if name not in mine or name not in other:
            lines.append(f"{name} only in "
                         f"{'this' if name in mine else 'the other'} tree")
            moved += 1
            continue
        changed = [(group, key, reading)
                   for group in ("cold", "warm", "ssc")
                   for key, reading in _moves(mine[name], other[name], group)
                   if reading not in ("same", "=", "-")]
        if not changed:
            continue
        moved += 1
        parts = [f"{group} counts {reading}"
                 for group, key, reading in changed if key == "counts"]
        fields = [(_size(reading), f"{group} {key}")
                  for group, key, reading in changed if key != "counts"]
        finite = [field for field in fields if math.isfinite(field[0])]
        if finite:
            size, where = max(finite)
            parts.append(f"largest move {size:.2e} ({where})")
        apart = [where for size, where in fields if math.isinf(size)]
        if apart:
            parts.append(f"not comparable: {', '.join(apart)}")
        lines.append(f"{name} {', '.join(parts)}")
    lines.append(f"family seed {seed}: {moved} of {len(names)} "
                 f"members moved")
    return lines


def _size(reading: str) -> float:
    """The move of a field reading; inf for one that is not a number (a
    field on one side only)."""
    try:
        return float(reading)
    except ValueError:
        return math.inf


# --- command line

#: the thread counts of the BLAS builds numpy may use, pinned to one in each
#: ``--collect`` subprocess: the two trees collect at once, and more threads
#: than cores only slow both down
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS",
                                     "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _ctrlstab(root: Path):
    """``ctrlstab`` imported from the ``src/`` of the tree at ``root``."""
    sys.path.insert(0, str(root / "src"))
    import ctrlstab as cs

    return cs


def _records(cs, root: Path):
    """(file name, record) of every instance file of the tree at ``root``,
    with ``cs`` its ``ctrlstab``."""
    for path in sorted((root / "configs").glob("*.ini")) \
            + sorted((root / "perfbench" / "instances").glob("*.ini")):
        yield str(path.relative_to(root)), record(cs, path)


def main(argv: list) -> int:
    here = Path(__file__).resolve().parent.parent
    if argv[1:2] in (["--against"], ["--collect"]) and len(argv) != 3:
        print("usage: python tests/point_hashes.py [REPO_ROOT | --against "
              "OTHER_ROOT]", file=sys.stderr)
        return 2
    if argv[1:2] == ["--collect"]:
        root = Path(argv[2])
        cs = _ctrlstab(root)
        pickle.dump((dict(_records(cs, root)), family(cs)),
                    sys.stdout.buffer)
        return 0
    if argv[1:2] != ["--against"]:
        root = Path(argv[1]).resolve() if len(argv) > 1 else here
        for name, rec in _records(_ctrlstab(root), root):
            print(f"{name} {line(rec)}", flush=True)
        return 0
    procs = [subprocess.Popen([sys.executable, __file__, "--collect",
                               str(root)], stdout=subprocess.PIPE,
                              env={**os.environ, **ONE_THREAD})
             for root in (here, Path(argv[2]).resolve())]
    outputs = [proc.communicate()[0] for proc in procs]
    if any(proc.returncode for proc in procs):
        return 1
    (files, members), (other_files, other_members) = (
        pickle.loads(out) for out in outputs)
    lines, same = against(files, other_files)
    lines += evaluation_lines(files, other_files)
    for seed in FAMILY_SEEDS:
        lines += family_lines(members[seed], other_members[seed], seed)
    print("\n".join(lines))
    return 0 if same else 1

if __name__ == "__main__":
    sys.exit(main(sys.argv))
