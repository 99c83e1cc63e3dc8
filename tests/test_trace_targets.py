"""The names the benchmark's tracer wraps must exist in the package.

``perfbench/spans.py`` rebinds the functions and methods in its ``TARGETS``
table at run time, so a renamed or deleted target would only fail a traced
benchmark run.  The module is loaded from its file, unchanged."""

import importlib
import inspect

import pytest

from ctrlstab import check_ssc

from conftest import load_spans

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
