"""The names the benchmark's tracer wraps must exist in the package, and
its layer counts must see the calls they name.

``perfbench/spans.py`` rebinds the functions and methods in its ``TARGETS``
table at run time, so a renamed or deleted target would only fail a traced
benchmark run.  The module is loaded from its file, unchanged."""

import importlib
import inspect

import pytest

from ctrlstab import (Discretization, SolveOptions, check_ssc,
                      make_disk_mesh, solve_kkt)

from conftest import load_spans, make_spec

SPANS = load_spans()


@pytest.mark.parametrize("name,module_name,attr", SPANS.TARGETS,
                         ids=[f"{m}.{a}" for _, m, a in SPANS.TARGETS])
def test_trace_target_resolves(name, module_name, attr):
    module = importlib.import_module(f"{SPANS.PACKAGE}.{module_name}")
    owner_name, _, attr_name = attr.rpartition(".")
    if owner_name:
        # install() patches the method in the class's own namespace
        assert callable(getattr(module, owner_name).__dict__[attr_name])
    else:
        assert callable(getattr(module, attr_name))


def test_ssc_span_reads_n_samples():
    # the kkt.ssc counter binds the call and reads its n_samples argument
    bound = inspect.signature(check_ssc).bind(None, None)
    bound.apply_defaults()
    assert "n_samples" in bound.arguments


def test_tracer_counts_planned_factorizations():
    # a fine_sweep-style cold solve (h = y + y^3, pinned at every node)
    # factorizes the state and the pinned operator, both with the triangle
    # pattern's plan: the tracer counts each as fem.factor
    disc = Discretization(make_spec(reaction="y + y^3"),
                          make_disk_mesh(32, 0))
    tracer = SPANS.Tracer()
    tracer.install()
    try:
        tracer.active = True
        rep = solve_kkt(disc, disc.param_reference(),
                        options=SolveOptions(tol=1e-9))
    finally:
        tracer.uninstall()
    assert rep.pinned >= 1
    assert tracer.summary("")["calls"]["fem.factor"] == 2
    plan = disc.tables.tri_pattern.band_plan
    assert sorted(disc._anchor) == [0.0, 1.0]
    assert all(f._perm is plan.perm for f in disc._anchor.values())
