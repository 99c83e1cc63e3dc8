"""Admission gates: every structural assumption must reject a violating
instance with an error naming that assumption, and the default instance
must pass untouched."""

import numpy as np
import pytest

from ctrlstab import (AdmissionError, Discretization, ProblemSpec,
                      make_disk_mesh, parse_instance)
from ctrlstab.problem import check_operator

from conftest import CONFIG_DIR, make_spec

INSTANCE_FILES = sorted(CONFIG_DIR.glob("*.ini")) + sorted(
    (CONFIG_DIR.parent / "perfbench" / "instances").glob("*.ini"))


def test_default_instance_admitted(lq_spec):
    lq_spec.validate()  # must not raise


def test_error_carries_label():
    with pytest.raises(AdmissionError) as err:
        make_spec(constraints=("y - 1",)).validate()
    assert err.value.label == "m >= 2"
    assert "m >= 2" in str(err.value)


@pytest.mark.parametrize("overrides,label", [
    (dict(constraints=("y - 1",)), "m >= 2"),
    (dict(r=4.5), "r in (2,4)"),
    (dict(r=2.0), "r in (2,4)"),
    (dict(c0=0.0), "(C0)"),
    (dict(c0=2.0), "(C0)"),                    # declared above the sampled eig
    (dict(a11="x1^2"), "(C0)"),                # degenerates at the center
    (dict(a0="-1"), "a_0 >= 0"),
    (dict(a0="0"), "a_0 != 0"),
    (dict(gamma=0.0), "(H3)"),
    (dict(beta="0.1"), "(H3)"),                # below gamma at lambda_ref
    (dict(beta="1 + lam", param_ref="-2 + sin(s)"), "(H3)"),
    (dict(reaction="y + 1"), "(H4)"),          # h(x, 0) != 0
    (dict(reaction="-y"), "(H4)"),             # dh/dy < 0
    (dict(reaction="exp(y) - 1 - 2*y"), "(H4)"),
    (dict(constraints=("y - 1", "-0.5*y")), "(H4)"),   # dg_2/dy < 0
])
def test_gate_violations(overrides, label):
    with pytest.raises(AdmissionError) as err:
        make_spec(**overrides).validate()
    assert err.value.label == label


#: inf - inf: NaN wherever exp(1000 z) overflows
_NAN = "(exp(1000*{0}) - exp(1000*{0}))"


@pytest.mark.parametrize("overrides,label", [
    (dict(a11=_NAN.format("x1")), "(C0)"),
    (dict(beta=_NAN.format("(lam + 1)")), "(H3)"),
    (dict(reaction=f"y + {_NAN.format('y')}"), "(H4)"),       # h(x, 0) = 0
    (dict(constraints=(f"y - 1 + {_NAN.format('y')}", "y - 2")), "(H4)"),
])
def test_nan_samples_fail_their_gate(overrides, label):
    # a comparison with NaN is false, so each gate must be a negated one
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(AdmissionError) as err:
            make_spec(**overrides).validate()
    assert err.value.label == label


def test_operator_gate_refuses_a0_vanishing_at_every_quadrature_point(
        monkeypatch):
    # the gate that makes K SPD on every discretization, at the points the
    # assembly integrates with, also past the sampled gates
    ones, zeros = np.ones((4, 3)), np.zeros((4, 3))
    with pytest.raises(AdmissionError) as err:
        check_operator(ones, zeros, ones, zeros, 1.0, quadrature=True)
    assert err.value.label == "a_0 != 0"
    assert str(err.value).endswith("a_0 vanishes at every quadrature point")
    check_operator(ones, zeros, ones, np.where(np.eye(4, 3), 1e-3, 0.0),
                   1.0, quadrature=True)
    monkeypatch.setattr(ProblemSpec, "validate", lambda self: None)
    with pytest.raises(AdmissionError, match="quadrature point") as err:
        Discretization(make_spec(a0="0"), make_disk_mesh(8, 0))
    assert err.value.label == "a_0 != 0"


@pytest.mark.parametrize("overrides,label", [
    (dict(a11="1 + y"), "(C0)"),               # operator may not see the state
    (dict(a0="lam"), "(C0)"),
    (dict(reaction="y*lam"), "(H4)"),
    (dict(reaction="y + s"), "(H4)"),
    (dict(alpha="s"), "(H3)"),
    (dict(beta="1 + x1"), "(H3)"),
    (dict(obj_domain="y + lam"), "objective"),
    (dict(obj_domain="y + s"), "objective"),
    (dict(param_ref="y"), "parameter"),
    (dict(param_ref="lam"), "parameter"),
])
def test_variable_vocabulary_gates(overrides, label):
    with pytest.raises(AdmissionError) as err:
        make_spec(**overrides).validate()
    assert err.value.label == label


def test_boundary_data_may_use_full_vocabulary():
    spec = make_spec(obj_boundary="0.1*y^2 + sin(s)*lam + x1*x2",
                     constraints=("y - 2 + sin(s)", "y - 3 - lam^2"),
                     param_ref="0.2*sin(s) + 0.1*x1")
    spec.validate()


def test_m_and_derivative_caches(lq_spec):
    assert lq_spec.m == 2
    assert str(lq_spec.reaction_y) == "1.0"
    assert len(lq_spec.constraints_y) == 2
    assert len(lq_spec.constraints_yy) == 2


def test_slopes_are_read_from_the_folded_derivative():
    # dg/dy of y*exp(0) - 3 is exp(0.0), one value everywhere, but no
    # constant: exp(0) is not folded, so that constraint has no slope
    spec = make_spec(constraints=("y - 0.05", "2*y - 1", "0.3*cos(2*s) - 1",
                                  "y*exp(0) - 3", "(1 + 0.5*sin(s))*y"))
    assert spec.constraint_slopes == (1.0, 2.0, 0.0, None, None)
    assert spec.common_slope(np.array([0, 0, 0])) == 1.0
    assert spec.common_slope([2]) == 0.0
    assert spec.common_slope([0, 1]) is None
    assert spec.common_slope([3]) is None
    assert spec.common_slope([0, 3]) is None
    assert spec.common_slope([4]) is None


@pytest.mark.parametrize("path", INSTANCE_FILES, ids=lambda p: p.stem)
def test_instance_constraints_have_constant_slopes(path):
    # the pinned step and its SSC certificate apply only where dg/dy folds
    # to a constant; every constraint of the shipped and benchmark
    # instances must keep them reachable
    spec = parse_instance(path).problem
    assert None not in spec.constraint_slopes, path


def test_admission_is_deterministic():
    # sampling-based gates use a fixed seed: borderline data either always
    # passes or always fails
    results = []
    for _ in range(3):
        try:
            make_spec(a0="x1^2 + x2^2").validate()
            results.append(True)
        except AdmissionError:
            results.append(False)
    assert results[0] in (True, False)
    assert len(set(results)) == 1
