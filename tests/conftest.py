"""Shared fixtures: meshes, a compact linear-quadratic instance, and the
solved reference point reused across the first- and second-order tests."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

TESTS_DIR = Path(__file__).resolve().parent
CONFIG_DIR = TESTS_DIR.parent / "configs"
if str(TESTS_DIR) not in sys.path:
    sys.path.insert(0, str(TESTS_DIR))

from ctrlstab import (Discretization, ProblemSpec, SolveOptions,
                      SpdFactorization, make_disk_mesh, parse, solve_kkt)

_DEFAULTS = dict(
    a11="1", a12="0", a22="1", a0="1", c0=1.0,
    obj_domain="0.5*(y - 1)^2", obj_boundary="0",
    alpha="lam", beta="1", gamma=0.5,
    reaction="y",
    constraints=("y - 0.05", "y - 1.05"),
    param_ref="0", r=3.0,
)


#: the meshes, (n_boundary, refinement), on which the set-up kernels are
#: held to their oracles
SETUP_MESHES = [(n, r) for n in (8, 13, 64) for r in (0, 1, 2)]


def load_spans():
    """``perfbench/spans.py`` loaded from its file, unchanged: its
    ``TARGETS`` are the functions the benchmark's tracer rebinds."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", TESTS_DIR.parent / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_spec(**overrides) -> ProblemSpec:
    """Build a ProblemSpec from expression strings, starting from a small
    linear-quadratic tracking instance with one touching state constraint."""
    data = dict(_DEFAULTS)
    data.update(overrides)
    gamma = data.pop("gamma")
    c0 = data.pop("c0")
    r = data.pop("r")
    name = data.pop("name", "test-instance")
    constraints = tuple(parse(g) for g in data.pop("constraints"))
    exprs = {k: parse(v) for k, v in data.items()}
    return ProblemSpec(c0=c0, gamma=gamma, r=r, name=name,
                       constraints=constraints, **exprs)


@pytest.fixture(scope="session")
def spec_factory():
    return make_spec


@pytest.fixture(scope="session")
def config_dir():
    return CONFIG_DIR


@pytest.fixture(scope="session")
def mesh16():
    return make_disk_mesh(16, 0)


@pytest.fixture(scope="session")
def mesh32():
    return make_disk_mesh(32, 0)


@pytest.fixture(scope="session")
def lq_spec():
    return make_spec()


@pytest.fixture(scope="session")
def lq_disc16(lq_spec, mesh16):
    return Discretization(lq_spec, mesh16)


@pytest.fixture(scope="session")
def lq_disc32(lq_spec, mesh32):
    return Discretization(lq_spec, mesh32)


@pytest.fixture(scope="session")
def lq_solved32(lq_disc32):
    lam = lq_disc32.param_reference()
    return solve_kkt(lq_disc32, lam, options=SolveOptions(tol=1e-10))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260815)


@pytest.fixture
def factorizations(monkeypatch):
    """Records every ``SpdFactorization`` constructed while the test runs;
    the private pattern argument is passed on."""
    made = []
    init = SpdFactorization.__init__

    def counting_init(self, matrix, **kwargs):
        made.append(self)
        init(self, matrix, **kwargs)

    monkeypatch.setattr(SpdFactorization, "__init__", counting_init)
    return made
