"""Print, per shipped instance file, how far the solver outputs of this
checkout lie from those of another one, for changes that keep every count
but move the points at rounding level (where ``point_hashes.py`` can only
say that the bits differ).

Usage::

    python tests/point_moves.py OTHER_ROOT

Each tree's ``src/`` is imported in its own subprocess, which reads that
tree's ``configs/*.ini`` and ``perfbench/instances/*.ini`` and runs, as
``point_hashes.py`` does, the cold solve at the reference parameter, the
warm chain at the file's ``[sweep] t`` and ``check_ssc`` at the cold point.
One line per instance file present in both trees gives:

* ``counts``: the (iterations, newton, pinned) counts of the cold solve and
  of each warm solve, with ``same`` when both trees agree and both lists
  (this tree's first) otherwise;
* ``state``, ``control``, ``adjoint``: the largest absolute nodal move over
  the cold solve and every warm solve;
* ``min_rayleigh``, ``subspace_min_eig``: the absolute moves of the two SSC
  estimates (0 when both are the same value, ``inf`` included).

pytest does not collect this file; it runs in seconds.
"""

from __future__ import annotations

import dataclasses
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np

_FIELDS = ("state", "control", "adjoint")


def _solves(parts: list, n_multipliers: int) -> list:
    """Split the flat parts of ``point_hashes._warm_parts`` into one
    ``(counts, state, control, adjoint)`` per solve, or an error class
    name."""
    size = 7 + n_multipliers  # see point_hashes._solve_parts
    out, i = [], 0
    while i < len(parts):
        if isinstance(parts[i], str):
            out.append(parts[i])
            i += 1
        else:
            chunk = parts[i:i + size]
            out.append((chunk[3 + n_multipliers], *chunk[:3]))
            i += size
    return out


def collect(root: Path) -> dict:
    """Counts, points and SSC estimates of every instance file of the tree
    at ``root``, with its ``src/`` imported."""
    sys.path.insert(0, str(root / "src"))
    import ctrlstab as cs
    from point_hashes import _ssc, _warm_parts

    names = [f.name for f in dataclasses.fields(cs.SscReport)]
    files = sorted((root / "configs").glob("*.ini")) \
        + sorted((root / "perfbench" / "instances").glob("*.ini"))
    out = {}
    for path in files:
        cfg = cs.parse_instance(path)
        disc = cs.build_discretization(cfg)
        cold = cs.solve_kkt(disc, disc.param_reference(),
                            options=cfg.solve_options)
        p = cold.point
        solves = [((cold.iterations, cold.newton, cold.pinned),
                   p.state.values, p.control.values, p.adjoint.values)]
        if cfg.sweep is not None:
            solves += _solves(_warm_parts(cs, cfg, disc, cold),
                              len(p.multipliers))
        ssc = dict(zip(names, _ssc(cs, cfg, disc, cold)))
        out[str(path.relative_to(root))] = (solves, ssc)
    return out


def _counts(solves: list) -> list:
    return [s if isinstance(s, str) else s[0] for s in solves]


def _move(a: float, b: float) -> float:
    return 0.0 if a == b else abs(a - b)


def compare(name: str, mine: tuple, other: tuple) -> str:
    (solves, ssc), (other_solves, other_ssc) = mine, other
    counts, other_counts = _counts(solves), _counts(other_solves)
    line = [name, "counts " + (f"same {counts}" if counts == other_counts
                               else f"{counts} vs {other_counts}")]
    pairs = [(a, b) for a, b in zip(solves, other_solves)
             if not isinstance(a, str) and not isinstance(b, str)]
    for i, field in enumerate(_FIELDS, start=1):
        move = max(float(np.max(np.abs(a[i] - b[i]))) for a, b in pairs)
        line.append(f"{field}={move:.2e}")
    for key in ("min_rayleigh", "subspace_min_eig"):
        line.append(f"{key}={_move(ssc[key], other_ssc[key]):.2e}")
    return " ".join(line)


def _run(root: Path) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, __file__, "--collect",
                             str(root)], stdout=subprocess.PIPE)


def main(argv: list) -> int:
    if len(argv) == 3 and argv[1] == "--collect":
        pickle.dump(collect(Path(argv[2]).resolve()), sys.stdout.buffer)
        return 0
    if len(argv) != 2:
        print("usage: python tests/point_moves.py OTHER_ROOT",
              file=sys.stderr)
        return 2
    procs = [_run(Path(__file__).resolve().parent.parent),
             _run(Path(argv[1]).resolve())]
    outputs = [proc.communicate()[0] for proc in procs]
    if any(proc.returncode for proc in procs):
        return 1
    mine, other = (pickle.loads(out) for out in outputs)
    for name in sorted(mine.keys() | other.keys()):
        if name in mine and name in other:
            print(compare(name, mine[name], other[name]), flush=True)
        else:
            print(f"{name} only in {'this' if name in mine else 'the other'}"
                  " tree")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
