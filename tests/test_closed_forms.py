"""Differential tests of the closed-form kernels against oracles built here:
explicit local rotations and Kraus sums on 4x4 matrices, a dense angle
scan, the Casimir-Polder ratio itself, and the sweep's optimized witness
against `optimize_witness` and a 50-digit mpmath value."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from gravwitness import sweep
from gravwitness.constraints import cp_ratio, feasibility_report, min_separation
from gravwitness.core import validate
from gravwitness.spinstate import (TwoQubitState, WitnessSettings,
                                   apply_dephasing, entangled_state,
                                   optimize_witness, witness)

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
XZ, YZ = np.kron(X, Z), np.kron(Y, Z)

angles = st.floats(-4 * math.pi, 4 * math.pi)
probabilities = st.floats(0.0, 1.0)


def rz(t):
    return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])


def correlators(rho):
    return (np.real(np.trace(rho @ XZ)), np.real(np.trace(rho @ YZ)))


def random_state(seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return TwoQubitState(rho / rho.trace())


def sample_states():
    states = [entangled_state(0.0, math.pi), entangled_state(-0.2, 0.7),
              apply_dephasing(entangled_state(1.0, 2.5), 0.3, 0.1)]
    # optimum at theta1 = 3.1387, 3e-3 short of the seam at +-pi where an
    # angle grid over [-pi, pi] wraps around
    states.append(entangled_state(-0.165267686953, 1.4112442153))
    return states + [random_state(seed) for seed in range(20)]


@pytest.mark.parametrize("state", sample_states())
def test_optimize_witness_beats_dense_angle_scan(state):
    theta = np.linspace(-math.pi, math.pi, 3601)
    phases = np.exp(-0.5j * theta)[:, None] ** np.array([1, 1, -1, -1])
    # rotated rho for every angle: U = Rz(theta) x I is diagonal
    rotated = phases[:, :, None] * state.rho * phases.conj()[:, None, :]
    cxz = np.real(np.einsum("kij,ji->k", rotated, XZ))
    cyz = np.real(np.einsum("kij,ji->k", rotated, YZ))
    scan = np.abs(cxz - cyz)

    settings_, result = optimize_witness(state)
    assert settings_.thetaZ2 == 0.0
    assert result.w >= scan.max() - 1e-12
    a, b = correlators(state.rho)
    assert result.w == pytest.approx(math.hypot(a - b, a + b), abs=1e-14)


@given(seed=st.integers(0, 2**32 - 1), t1=angles, t2=angles)
@settings(max_examples=200, deadline=None)
def test_witness_matches_explicitly_rotated_state(seed, t1, t2):
    state = random_state(seed)
    u = np.kron(rz(t1), rz(t2))
    exz, eyz = correlators(u @ state.rho @ u.conj().T)
    result = witness(state, WitnessSettings(t1, t2))
    assert result.expXZ == pytest.approx(exz, abs=1e-14)
    assert result.expYZ == pytest.approx(eyz, abs=1e-14)
    assert result.w == pytest.approx(abs(exz - eyz), abs=1e-14)


@given(seed=st.integers(0, 2**32 - 1), p1=probabilities, p2=probabilities)
@settings(max_examples=200, deadline=None)
def test_apply_dephasing_matches_kraus_sum(seed, p1, p2):
    state = random_state(seed)
    z1, z2 = np.kron(Z, I2), np.kron(I2, Z)
    rho = (1 - p1) * state.rho + p1 * (z1 @ state.rho @ z1)
    rho = (1 - p2) * rho + p2 * (z2 @ rho @ z2)
    out = apply_dephasing(state, p1, p2)
    assert np.max(np.abs(out.rho - rho)) <= 1e-15


@pytest.mark.parametrize("target", np.geomspace(1e-20, 1e10, 31).tolist())
def test_min_separation_inverts_cp_ratio_exactly(paper_config, target):
    root = min_separation(paper_config, target)
    assert cp_ratio(paper_config, root) == pytest.approx(target, rel=1e-12)
    assert feasibility_report(paper_config, target).minSeparation == root


def test_min_separation_edges(paper_config):
    contact = 2.0 * paper_config.radius
    for target in (1e30, math.inf):           # root below contact
        with pytest.raises(ValueError, match="no root"):
            min_separation(paper_config, target)
        assert feasibility_report(paper_config, target).minSeparation == contact
    for target in (1e-30, 0.0, -1.0, math.nan):   # root beyond 1 m, or none
        with pytest.raises(ValueError):
            min_separation(paper_config, target)
    # feasibility_report rejects the targets with no root (test_constraints)
    assert feasibility_report(paper_config, 1e-30).minSeparation == math.inf
    heavy = dataclasses.replace(paper_config, m1=1e3, m2=1e3)
    assert feasibility_report(heavy).minSeparation == contact


# W <= sqrt(2), and the closed form and `optimize_witness` each round a few
# times: a few ulps of sqrt(2)
OPTIMIZED_WITNESS_ABS = 2e-15
phases = st.floats(allow_nan=False, allow_infinity=False)


@given(lr=phases, rl=phases, p=st.floats(0.0, 0.5))
# phase sums that overflow, and that round by more than a radian
@example(lr=1.7e308, rl=1.7e308, p=0.0)
@example(lr=1e17, rl=3.0, p=0.25)
@example(lr=4.839137052680112e16, rl=-1.8238932012336685e50, p=0.0)
@settings(max_examples=300, deadline=None)
def test_optimized_witness_is_optimize_witness(lr, rl, p):
    want = optimize_witness(apply_dephasing(entangled_state(lr, rl), p, p))[1].w
    got = float(sweep._witness_objective("witnessOptimized", lr, rl, p))
    assert abs(got - want) <= OPTIMIZED_WITNESS_ABS
    # a grid's arrays give the same bits
    assert sweep._witness_objective(
        "witnessOptimized", np.array([lr]), np.array([rl]),
        np.array([p])).tolist() == [got]


# at the row's own float phases and p, rounding alone: sin, the products
# and the constants, each within an ulp.  The correlator form (the atan2
# angle of <XZ>, <YZ>, then |A cos t - B sin t|) is off by 1.1e-17,
# 2.5e-15 and 3.4e-13 at these points: at small splits both
# sin dPhiLR + sin dPhiRL and cos dPhiRL - cos dPhiLR cancel
OPTIMIZED_WITNESS_REL = 1e-15


@pytest.mark.parametrize("dx", [None, 10e-6, 100e-9])
def test_optimized_witness_against_mpmath(paper_config, dx):
    config = validate(paper_config if dx is None
                      else dataclasses.replace(paper_config, dx=dx))
    point = sweep._point(config)
    assert not point.guard and point.exists
    got = sweep._scalar_objective("witnessOptimized", point)
    with mp.workdps(50):
        lr, rl, p = map(mpf, (point.dPhiLR, point.dPhiRL, point.p))
        want = mp.sqrt(2) * (1 - 2 * p) * abs(mp.sin((lr + rl) / 2))
        assert abs(got - want) <= OPTIMIZED_WITNESS_REL * want
