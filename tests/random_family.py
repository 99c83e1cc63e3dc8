"""A seeded family of random admissible instances, built in memory.

Each member is a ``ProblemSpec`` from ``conftest.make_spec`` on a disk mesh
of 8 to 32 boundary nodes at refinement 0 or 1:

* variable operator coefficients ``a11 = 1 + p x1^2``, ``a22 = 1 + q x2^2``
  (p, q in [0, 0.5]), ``a12 = r x1 x2`` (|r| <= 0.3) and
  ``a0 = 1 + t x1`` (|t| <= 0.5), so that ``c0 = 0.5`` holds;
* the tracking cost ``L = 0.5 (y - y_d)^2`` with y_d in [0.5, 1.5], and
  the reference parameter ``p cos(s)`` with |p| <= 0.1, so that every
  boundary load carries a parameter;
* ``h = k y`` or ``h = y + k y^3``;
* the two constraints ``k_1 y - c_1 + a_1 sin(s)`` and
  ``k_2 y - c_2 + a_2 cos(2 s)``,

with every slope ``k`` in ``KAPPAS`` and the numbers printed to three
decimals.  With y_d in that range the unconstrained control lies between
about 0.2 and 0.5 and the boundary state between about 0.2 and 1.1, so the
offsets ``c`` and amplitudes ``a`` set the active set.  Member ``i`` draws
them for the kind ``KINDS[i % 4]``:

* ``free``: both bounds ``c - k y - a sin(s)`` (``cos(2 s)``) stay above
  0.7;
* ``pinned``: the first constraint binds at every node and the second
  stays loose, so every node has the first one's slope;
* ``split``: both bind, with two different slopes and amplitudes that
  make each dominate on part of the boundary;
* ``mixed``: the first constraint's bound crosses the unconstrained
  control, and the second stays loose.

The kind is what the draw aims at, not a promise; the tests classify the
solved points themselves.  Two constraints of one slope whose values are
equal at a node tie exactly at every iterate and make the dominance
partition degenerate.  No member has such a tie: the loose constraint's
offset (3 to 3.5, amplitude at most 0.2) keeps it at least 0.1 below the
other one, and ``split`` draws two different slopes.
"""

import numpy as np

from conftest import make_spec

#: the slopes of h and of the constraints
KAPPAS = (0.0, 0.3, 0.5, 1.0)

#: the active sets the draws aim at, in member order
KINDS = ("free", "pinned", "split", "mixed")


def _constraints(kind: str, rng, draw) -> tuple:
    """``(k_1, c_1, a_1, k_2, c_2, a_2)`` for a member of ``kind``."""
    k1, k2 = (KAPPAS[i] for i in rng.choice(len(KAPPAS), 2,
                                            replace=kind != "split"))
    loose = (k2, draw(3.0, 3.5), draw(0.0, 0.2))
    if kind == "free":
        return (k1, draw(2.0, 2.5), draw(0.0, 0.2), *loose)
    if kind == "pinned":
        return (k1, draw(-0.8, -0.5), draw(0.0, 0.4), *loose)
    if kind == "split":
        return (k1, draw(-0.8, -0.5), draw(0.3, 0.4),
                k2, draw(-0.8, -0.5), draw(0.3, 0.4))
    return (k1, round(0.4 * k1 + draw(0.2, 0.4), 3), draw(0.4, 0.6), *loose)


def members(seed: int = 0, n: int = 24) -> list:
    """``n`` members ``(kind, spec, n_boundary, refinement)``, member ``i``
    drawn from ``default_rng([seed, i])``."""
    out = []
    for i in range(n):
        rng = np.random.default_rng([seed, i])

        def draw(lo, hi):
            return round(float(rng.uniform(lo, hi)), 3)

        kind = KINDS[i % len(KINDS)]
        k = KAPPAS[rng.integers(len(KAPPAS))]
        reaction = f"{k}*y" if rng.random() < 0.5 else f"y + {k}*y^3"
        k1, c1, a1, k2, c2, a2 = _constraints(kind, rng, draw)
        spec = make_spec(
            name=f"family-{seed}-{i}-{kind}",
            a11=f"1 + {draw(0.0, 0.5)}*x1^2",
            a22=f"1 + {draw(0.0, 0.5)}*x2^2",
            a12=f"{draw(-0.3, 0.3)}*x1*x2",
            a0=f"1 + {draw(-0.5, 0.5)}*x1", c0=0.5,
            obj_domain=f"0.5*(y - {draw(0.5, 1.5)})^2",
            reaction=reaction, param_ref=f"{draw(-0.1, 0.1)}*cos(s)",
            constraints=(f"{k1}*y - ({c1}) + {a1}*sin(s)",
                         f"{k2}*y - ({c2}) + {a2}*cos(2*s)"))
        out.append((kind, spec, int(rng.integers(8, 33)),
                    int(rng.integers(0, 2))))
    return out
