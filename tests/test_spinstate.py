import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravwitness.spinstate import (PAULIS, TwoQubitState, WitnessSettings,
                                   apply_dephasing, dephased_correlators,
                                   entangled_state, expectation, negativity,
                                   optimize_witness, witness)

SQRT2 = math.sqrt(2.0)

phases = st.floats(-2 * math.pi, 2 * math.pi)


def closed_form_negativity(a, b):
    return abs(math.sin((a + b) / 2)) / 2


def closed_form_dephased_negativity(a, b, p1, p2):
    # partial-transpose eigenvalues of the dephased state are
    # (1 + e*c1*c2 +- sqrt(c1^2 + c2^2 + 2 e c1 c2 cos s))/4 for e = +-1,
    # with c = 1 - 2p and s = a + b (symbolic eigen-decomposition, checked
    # against the numerical solve below).  The radicand is evaluated as
    # (c1 + e c2)^2 - 4 e c1 c2 sin^2(s/2): written with cos s it cancels to
    # 0 once cos s rounds to 1 (|s| < ~1e-8) and loses the negativity
    # |sin(s/2)|/2 that the numerical solve keeps.
    c1, c2 = 1 - 2 * p1, 1 - 2 * p2
    sin2 = math.sin((a + b) / 2) ** 2
    total = 0.0
    for e in (+1.0, -1.0):
        root = math.sqrt((c1 + e * c2) ** 2 - 4 * e * c1 * c2 * sin2)
        for lam in ((1 + e * c1 * c2 - root) / 4, (1 + e * c1 * c2 + root) / 4):
            if lam < 0:
                total -= lam
    return total


def brute_force_negativity(rho):
    pt = rho.reshape(2, 2, 2, 2).swapaxes(1, 3).reshape(4, 4)
    evals = np.linalg.eigvalsh(pt)
    return float(sum(abs(v) for v in evals if v < 0))


def random_density_matrix(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return TwoQubitState(rho / rho.trace())


def test_entangled_state_is_valid_pure_state():
    state = entangled_state(-0.2, 0.7)
    assert state.purity() == pytest.approx(1.0, abs=1e-12)
    assert np.trace(state.rho) == pytest.approx(1.0, abs=1e-12)


def test_entangled_state_rejects_non_finite():
    with pytest.raises(ValueError):
        entangled_state(math.nan, 0.0)


def test_zero_phases_product_state():
    assert negativity(entangled_state(0.0, 0.0)) == pytest.approx(0.0, abs=1e-12)


def test_pi_sum_maximally_entangled():
    assert negativity(entangled_state(0.0, math.pi)) == pytest.approx(0.5, abs=1e-12)


def test_reference_phases_negativity():
    # frozen: |sin(0.25)|/2
    assert negativity(entangled_state(-0.2, 0.7)) == pytest.approx(
        0.12370197962726146, abs=1e-12)


@given(a=phases, b=phases)
@settings(max_examples=200, deadline=None)
def test_negativity_closed_form(a, b):
    assert negativity(entangled_state(a, b)) == pytest.approx(
        closed_form_negativity(a, b), abs=1e-10)


@given(a=phases, b=phases, delta=phases)
@settings(max_examples=100, deadline=None)
def test_negativity_depends_only_on_phase_sum(a, b, delta):
    assert negativity(entangled_state(a + delta, b - delta)) == pytest.approx(
        negativity(entangled_state(a, b)), abs=1e-10)


def test_negativity_strictly_increasing_on_zero_pi():
    s = np.linspace(1e-3, math.pi - 1e-3, 200)
    values = [negativity(entangled_state(v / 2, v / 2)) for v in s]
    assert all(x < y for x, y in zip(values, values[1:]))


def test_negativity_textbook_states():
    singlet = np.zeros(4, dtype=complex)
    singlet[1], singlet[2] = 1 / SQRT2, -1 / SQRT2
    assert negativity(TwoQubitState(np.outer(singlet, singlet.conj()))) == \
        pytest.approx(0.5, abs=1e-12)
    up_up = np.zeros((4, 4), dtype=complex)
    up_up[0, 0] = 1.0
    assert negativity(TwoQubitState(up_up)) == 0.0


def test_expectation_maximally_mixed():
    mixed = TwoQubitState(np.eye(4) / 4)
    for p1 in "XYZ":
        for p2 in "XYZ":
            assert expectation(mixed, p1, p2) == pytest.approx(0.0, abs=1e-14)


def test_expectation_up_up_zz():
    up_up = np.zeros((4, 4), dtype=complex)
    up_up[0, 0] = 1.0
    assert expectation(TwoQubitState(up_up), "Z", "Z") == pytest.approx(1.0)


def test_expectation_closed_form_xz():
    # <sx sz> = (cos b - cos a)/2, frozen at (-0.2, 0.7)
    state = entangled_state(-0.2, 0.7)
    assert expectation(state, "X", "Z") == pytest.approx(
        -0.10761219527837660, abs=1e-12)
    assert expectation(state, "Y", "Z") == pytest.approx(
        0.22277417822131492, abs=1e-12)


def test_expectation_rejects_bad_index():
    state = entangled_state(0.0, 0.0)
    with pytest.raises(ValueError, match="Pauli"):
        expectation(state, "Q", "Z")
    with pytest.raises(ValueError, match="Pauli"):
        expectation(state, 0, "Z")


def test_witness_pi_sum():
    result = witness(entangled_state(0.0, math.pi))
    assert result.w == pytest.approx(1.0, abs=1e-12)
    assert result.w == abs(result.expXZ - result.expYZ)


def test_witness_product_state_zero():
    result = witness(entangled_state(0.0, 0.0))
    assert result.expXZ == pytest.approx(0.0, abs=1e-14)
    assert result.expYZ == pytest.approx(0.0, abs=1e-14)
    assert result.w == pytest.approx(0.0, abs=1e-14)
    assert not result.entangledByNegativity


def test_witness_reference_phases():
    # frozen: |cos 0.7 - cos(-0.2) - sin(-0.2) - sin 0.7| / 2
    result = witness(entangled_state(-0.2, 0.7))
    assert result.w == pytest.approx(0.33038637349969152, abs=1e-10)
    assert result.entangledByNegativity


@given(a=phases, b=phases, t1=phases, t2=phases)
@settings(max_examples=100, deadline=None)
def test_witness_never_exceeds_sqrt2(a, b, t1, t2):
    result = witness(entangled_state(a, b), WitnessSettings(t1, t2))
    assert result.w <= SQRT2 + 1e-12
    assert result.w == abs(result.expXZ - result.expYZ)


def test_witness_invariant_under_global_phase():
    a, b = -0.2, 0.7
    base = entangled_state(a, b)
    shifted = TwoQubitState((np.exp(0.3j) * np.eye(4)) @ base.rho
                            @ (np.exp(-0.3j) * np.eye(4)))
    assert witness(shifted).w == pytest.approx(witness(base).w, abs=1e-12)


def test_optimize_witness_maximally_entangled():
    settings_, result = optimize_witness(entangled_state(0.0, math.pi))
    assert result.w == pytest.approx(SQRT2, abs=1e-6)
    assert result.w >= witness(entangled_state(0.0, math.pi)).w


def test_optimize_witness_z_eigenstate_zero():
    up_up = np.zeros((4, 4), dtype=complex)
    up_up[0, 0] = 1.0
    _, result = optimize_witness(TwoQubitState(up_up))
    assert result.w == pytest.approx(0.0, abs=1e-12)


def test_optimize_witness_monotone_in_phase_sum():
    # optimum is sqrt(2)|sin((a+b)/2)|: non-decreasing over [0, pi] at a=0
    grid = np.linspace(0.0, math.pi, 40)
    values = [optimize_witness(entangled_state(0.0, b))[1].w for b in grid]
    assert all(y >= x - 1e-9 for x, y in zip(values, values[1:]))
    for b, v in zip(grid, values):
        assert v == pytest.approx(SQRT2 * abs(math.sin(b / 2)), abs=1e-6)


def test_optimize_witness_exceeds_default(paper_config):
    from gravwitness.gravphase import static_phases
    ph = static_phases(paper_config)
    state = entangled_state(ph.dPhiLR, ph.dPhiRL)
    settings_, optimized = optimize_witness(state)
    assert optimized.w >= witness(state).w - 1e-12


@given(a=st.floats(-10, 10), b=st.floats(-10, 10), p=st.floats(0, 1))
@settings(max_examples=50, deadline=None)
def test_optimize_witness_is_witness_at_its_angle(a, b, p):
    state = apply_dephasing(entangled_state(a, b), p, p)
    settings_, optimized = optimize_witness(state)
    assert optimized == witness(state, settings_)


def test_witness_rotation_convention():
    # rotating the state by Rz(t) on qubit 1 maps the correlators as
    # <sx sz> -> cos(t)<sx sz> - sin(t)<sy sz> (and y picks up +sin(t) x);
    # z-rotations on qubit 2 leave both untouched
    state = entangled_state(-0.2, 0.7)
    cxz = expectation(state, "X", "Z")
    cyz = expectation(state, "Y", "Z")
    for t1 in (0.3, -1.1, 2.0):
        rotated = witness(state, WitnessSettings(t1, 0.77))
        assert rotated.expXZ == pytest.approx(
            math.cos(t1) * cxz - math.sin(t1) * cyz, abs=1e-12)
        assert rotated.expYZ == pytest.approx(
            math.cos(t1) * cyz + math.sin(t1) * cxz, abs=1e-12)


def test_apply_dephasing_identity():
    state = entangled_state(-0.2, 0.7)
    out = apply_dephasing(state, 0.0, 0.0)
    assert np.allclose(out.rho, state.rho, atol=1e-15)


def test_apply_dephasing_full_kills_entanglement():
    out = apply_dephasing(entangled_state(0.0, math.pi), 0.5, 0.5)
    assert negativity(out) == pytest.approx(0.0, abs=1e-12)


def test_apply_dephasing_single_qubit_scaling():
    out = apply_dephasing(entangled_state(0.0, math.pi), 0.1, 0.0)
    assert negativity(out) == pytest.approx(0.4, abs=1e-10)


def test_apply_dephasing_trace_preserved():
    out = apply_dephasing(entangled_state(1.0, -0.3), 0.2, 0.7)
    assert np.trace(out.rho) == pytest.approx(1.0, abs=1e-14)


def test_apply_dephasing_rejects_bad_probability():
    state = entangled_state(0.0, 0.0)
    for bad in (-0.1, 1.1, math.nan):
        with pytest.raises(ValueError):
            apply_dephasing(state, bad, 0.0)
        with pytest.raises(ValueError):
            apply_dephasing(state, 0.0, bad)


@given(a=phases, b=phases, p1=st.floats(0, 1), p2=st.floats(0, 1))
@settings(max_examples=150, deadline=None)
def test_dephased_negativity_closed_form(a, b, p1, p2):
    out = apply_dephasing(entangled_state(a, b), p1, p2)
    expected = closed_form_dephased_negativity(a, b, p1, p2)
    assert negativity(out) == pytest.approx(expected, abs=1e-10)
    assert negativity(out) == pytest.approx(brute_force_negativity(out.rho),
                                            abs=1e-12)


@given(a=st.floats(-50, 50), b=st.floats(-50, 50), p1=st.floats(0, 1),
       p2=st.floats(0, 1))
@settings(max_examples=200, deadline=None)
def test_dephased_correlators_closed_form(a, b, p1, p2):
    # the sweep reads the closed form instead of building this state, which
    # is one that TwoQubitState accepts
    state = apply_dephasing(entangled_state(a, b), p1, p2)
    TwoQubitState(state.rho)
    cxz, cyz = dephased_correlators(a, b, p1)
    assert abs(cxz - expectation(state, "X", "Z")) <= 1e-15
    assert abs(cyz - expectation(state, "Y", "Z")) <= 1e-15


def test_dephasing_never_increases_negativity():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        state = random_density_matrix(rng)
        p1, p2 = rng.uniform(0, 1, size=2)
        before = negativity(state)
        after = negativity(apply_dephasing(state, p1, p2))
        assert after <= before + 1e-12


def test_two_qubit_state_rejects_bad_matrices():
    with pytest.raises(ValueError, match="4x4"):
        TwoQubitState(np.eye(3))
    with pytest.raises(ValueError, match="Hermitian"):
        TwoQubitState(np.eye(4) / 4 + 1e-6 * np.array([[0, 1j, 0, 0]] + [[0] * 4] * 3))
    with pytest.raises(ValueError, match="trace"):
        TwoQubitState(np.eye(4))
    bad = np.diag([0.6, 0.6, -0.1, -0.1]).astype(complex)
    with pytest.raises(ValueError, match="positive"):
        TwoQubitState(bad)
    with pytest.raises(ValueError, match="finite"):
        TwoQubitState(np.full((4, 4), np.nan))


def test_two_qubit_state_is_read_only():
    state = entangled_state(0.0, 0.0)
    with pytest.raises(ValueError):
        state.rho[0, 0] = 2.0


def test_two_qubit_states_compare_by_matrix():
    assert entangled_state(0.1, 0.2) == entangled_state(0.1, 0.2)
    assert entangled_state(0.1, 0.2) != entangled_state(0.1, 0.3)
    # a zero of either sign is the same entry
    mixed = np.eye(4, dtype=complex) / 4
    signed = mixed.copy()
    signed[0, 1] = complex(-0.0, -0.0)
    assert TwoQubitState(mixed) == TwoQubitState(signed)
    assert entangled_state(0.0, 0.0) != "state"


def test_two_qubit_states_are_unhashable():
    with pytest.raises(TypeError):
        hash(entangled_state(0.1, 0.2))


def test_pauli_table():
    for name, mat in PAULIS.items():
        assert np.allclose(mat @ mat, np.eye(2)), name
