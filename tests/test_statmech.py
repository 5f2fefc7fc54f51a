"""Tests for the two-replica Ising reduction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from sebd.channels import KrausSet, make_dephasing
from sebd.gates import I2
from sebd.statmech import (
    IsingCouplings,
    StatmechDomainError,
    couplings,
    critical_x,
    duality_gap,
    predicted_phase,
    x_from_couplings,
)

XC_Q2 = 5.0 / (3.0 + math.sqrt(34.0))


def test_couplings_at_x_one():
    c = couplings(1.0, 2)
    assert c.J_d == pytest.approx(0.0, abs=1e-14)
    assert c.J_h == pytest.approx(0.0, abs=1e-14)


def test_couplings_signs_and_monotonicity():
    xs = np.linspace(0.505, 1.0, 200)
    jds = []
    for x in xs:
        c = couplings(float(x), 2)
        assert c.J_d <= 1e-14
        assert c.J_h >= -1e-14
        assert math.isfinite(c.J_h)
        jds.append(c.J_d)
    assert all(b > a for a, b in zip(jds, jds[1:]))


def test_domain_errors_name_the_log():
    with pytest.raises(StatmechDomainError, match="q\\^2 x\\^2 - 1"):
        couplings(0.5, 2)
    with pytest.raises(StatmechDomainError, match="above 1"):
        couplings(1.2, 2)
    with pytest.raises(StatmechDomainError):
        couplings(0.7, 1)


@given(x=st.floats(min_value=0.51, max_value=1.0), q=st.integers(2, 5))
@settings(max_examples=100, deadline=None)
def test_coupling_inversion(x, q):
    if x <= 1.0 / q:
        return
    c = couplings(x, q)
    assert x_from_couplings(c) == pytest.approx(x, abs=1e-10)


def test_critical_x_closed_form_q2():
    assert critical_x(2) == pytest.approx(XC_Q2, abs=1e-14)
    assert 0.5 < XC_Q2 < 1.0
    # independent cross-check: root of the self-duality relation
    root = brentq(lambda x: duality_gap(x, 2), 0.51, 0.99, xtol=1e-14)
    assert critical_x(2) == pytest.approx(root, abs=1e-10)


@pytest.mark.parametrize("q", (2, 3, 5, 11))
def test_self_duality_at_critical_point(q):
    assert duality_gap(critical_x(q), q) == pytest.approx(0.0, abs=1e-10)


def test_critical_x_large_q_limit():
    assert critical_x(10**6) == pytest.approx(1.0 / (1.0 + math.sqrt(2.0)), abs=1e-9)


def test_predicted_phases():
    assert predicted_phase(KrausSet((I2,))) == "ordered"
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    assert predicted_phase(KrausSet((p0, p1))) == "disordered"


def test_weak_dephasing_flip_point():
    # 1/2 + 2 e (1-e) = x_c  =>  e = (1 - sqrt(2 - 2 x_c))/2 ~ 0.0342696
    e_flip = (1.0 - math.sqrt(2.0 - 2.0 * XC_Q2)) / 2.0
    assert e_flip == pytest.approx(0.0342696, abs=1e-7)
    assert predicted_phase(make_dephasing(e_flip - 1e-4, "weak-optimal")) == "ordered"
    assert predicted_phase(make_dephasing(e_flip + 1e-4, "weak-optimal")) == "disordered"


def test_couplings_dataclass_fields():
    c = IsingCouplings(J_d=-0.1, J_h=0.2, q=2)
    assert (c.J_d, c.J_h, c.q) == (-0.1, 0.2, 2)
