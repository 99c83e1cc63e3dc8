"""The seeded random family of ``tests/random_family.py``: every member
solves to a point that meets the ``ctrlstab verify`` rule, passes the
second-order check and sweeps without a failed row, or fails with one of
the library's typed errors (no member of this seed does); the members
that end mixed or split are solved by the damped iteration of
``tests/oracles.py``; and the family reaches every kind of active set,
where only one shipped instance ends at a mixed one."""

import functools

import numpy as np
import pytest

import ctrlstab as cs
from ctrlstab.kkt import (_activity_tolerance, constraint_values,
                          projection_identity_gap, residuals)

import random_family
from conftest import make_spec
from oracles import damped_solve_kkt

MEMBERS = random_family.members(seed=0, n=24)

#: the errors a member's solve may raise instead of returning a point
TYPED_ERRORS = (cs.SolverError, cs.PartitionError, cs.StateSolveError,
                cs.AdmissionError, cs.FemError)

OPTIONS = cs.SolveOptions()

#: four sweep rows, the fewest the exponent fit takes
T_VALUES = (0.001, 0.003, 0.01, 0.03)


def _kind(disc, point) -> str:
    """The active set of a solved point: ``free`` where no node binds,
    ``mixed`` where some do, and where every node binds ``pinned`` when the
    dominant constraints share one slope, else ``split``."""
    u = point.control.values
    g = constraint_values(disc, point.state.values, point.param.values)
    bound = (g + u >= -_activity_tolerance(u)).any(axis=0)
    if not bound.any():
        return "free"
    if not bound.all():
        return "mixed"
    labels = set(np.argmax(g, axis=0).tolist())
    return "pinned" if disc.problem.common_slope(labels) is not None \
        else "split"


@functools.cache
def _outcome(i: int) -> dict:
    """What member ``i`` gives: the error class name of a failed solve,
    else its solve report, residual record, projection gap, SSC report,
    sweep rows and kind."""
    _, spec, n_boundary, refinement = MEMBERS[i]
    disc = cs.Discretization(spec, cs.make_disk_mesh(n_boundary, refinement))
    try:
        rep = cs.solve_kkt(disc, disc.param_reference(), options=OPTIONS)
    except TYPED_ERRORS as exc:
        return {"error": type(exc).__name__}
    out = {"report": rep, "residuals": residuals(disc, rep.point),
           "gap": projection_identity_gap(disc, rep.point),
           "ssc": cs.check_ssc(disc, rep.point),
           "kind": _kind(disc, rep.point)}
    delta = cs.BoundaryFunction(disc.mesh, np.ones(disc.mesh.n_boundary))
    plan = cs.SweepPlan(delta=delta, t_values=T_VALUES, ssc_samples=100)
    out["rows"] = cs.run_sweep(disc, plan, options=OPTIONS).rows
    return out


@pytest.mark.parametrize("i", range(len(MEMBERS)))
def test_member_verifies_or_raises_a_typed_error(i):
    out = _outcome(i)
    if "error" in out:
        return
    rep = out["report"]
    assert rep.residuals == out["residuals"]
    assert rep.residuals.worst <= OPTIONS.tol
    assert out["gap"] <= 10.0 * OPTIONS.tol
    assert isinstance(out["ssc"], cs.SscReport)
    assert [row.t for row in out["rows"]] == list(T_VALUES)
    assert all(row.kkt_ok for row in out["rows"]), out["rows"]


def test_no_member_cold_solve_raises():
    # the typed errors are allowed by the test above, but no member of
    # this seed raises one: a member that does points at the solver
    errors = {i: _outcome(i)["error"] for i in range(len(MEMBERS))
              if "error" in _outcome(i)}
    assert not errors


def test_damped_members_are_the_damped_oracle():
    # a mixed point (bound on some nodes only) or a split one (two slopes)
    # is reached with neither the reduced Newton step nor the pinned step,
    # so the solve is the damped iteration: the oracle's iteration count,
    # and its control and multipliers up to the solves' rounding
    damped = [i for i in range(len(MEMBERS))
              if _outcome(i).get("kind") in ("mixed", "split")]
    assert damped
    for i in damped:
        rep = _outcome(i)["report"]
        _, spec, n_boundary, refinement = MEMBERS[i]
        disc = cs.Discretization(spec, cs.make_disk_mesh(n_boundary,
                                                         refinement))
        ref = damped_solve_kkt(disc, disc.param_reference(), options=OPTIONS)
        assert rep.iterations == ref.iterations, (i, rep.iterations,
                                                  ref.iterations)
        for got, want in ((rep.point.control.values,
                           ref.point.control.values),
                          (rep.point.multipliers, ref.point.multipliers)):
            assert float(np.max(np.abs(got - want))) <= 1e-12, i


def test_family_reaches_every_active_set():
    # free, all-pinned with one slope and with split slopes, and mixed:
    # the pinned step, the damped loop and the reduced Newton step all run
    kinds = [_outcome(i).get("kind") for i in range(len(MEMBERS))]
    assert {"free", "pinned", "split", "mixed"} <= set(kinds), kinds


def test_one_slope_pinned_members_take_the_pinned_step():
    # a member whose solved point is pinned with one slope reaches it by
    # the pinned step within five iterations, also where the labels of its
    # first iterates mix two slopes, and no solve of its warm chain (the
    # cold one included) tries more than two pinned steps
    pinned = [i for i in range(len(MEMBERS))
              if _outcome(i).get("kind") == "pinned"]
    assert pinned
    for i in pinned:
        rep = _outcome(i)["report"]
        assert rep.pinned >= 1 and rep.iterations <= 5, \
            (i, rep.iterations, rep.pinned)
        _, spec, n_boundary, refinement = MEMBERS[i]
        disc = cs.Discretization(spec, cs.make_disk_mesh(n_boundary,
                                                         refinement))
        lam = disc.param_reference().values
        chain = [cs.solve_kkt(disc, lam, options=OPTIONS)]
        for t in T_VALUES:
            chain.append(cs.solve_kkt(disc, lam + t,
                                      u0=chain[-1].point.control.values,
                                      options=OPTIONS))
        assert max(r.pinned for r in chain) <= 2, \
            (i, [r.pinned for r in chain])


def test_exact_constraint_tie_raises_partition_error():
    # two constraints of one slope that are equal at the node s = 3 pi / 2,
    # where sin(s) = cos(2 s) = -1 in floating point too: they tie at every
    # iterate, outside the separation hypothesis, and the solve says so
    spec = make_spec(constraints=("y - 0.3 + 0.2*sin(s)",
                                  "y - 0.3 + 0.2*cos(2*s)"))
    disc = cs.Discretization(spec, cs.make_disk_mesh(16, 0))
    g = constraint_values(disc, np.zeros(disc.mesh.n_vertices),
                          np.zeros(16))
    assert np.flatnonzero(g[0] == g[1]).tolist() == [12]
    with pytest.raises(cs.PartitionError, match="sigma1"):
        cs.solve_kkt(disc, disc.param_reference(), options=OPTIONS)
