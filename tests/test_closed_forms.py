"""Differential tests of the closed-form kernels against oracles built here:
explicit local rotations and Kraus sums on 4x4 matrices, a dense angle
scan, and the Casimir-Polder ratio itself."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravwitness.constraints import cp_ratio, feasibility_report, min_separation
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
