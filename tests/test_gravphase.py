import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravwitness.core import CONSTANTS, RegimeError
from gravwitness.gravphase import (BRANCHES, branch_positions, dynamic_phases,
                                   mutual_acceleration, pairwise_separations,
                                   small_split_phase, static_phases,
                                   superposition_size)

# frozen by 50-digit evaluation of the phase formula with the package's
# CODATA constants (oracle verified again in test_acceptance)
DPHI_RL = 0.43950828960523563
DPHI_LR = -0.12557379703006732
PHI_REF = 0.35160663168418851


def test_pairwise_separations(paper_config):
    seps = pairwise_separations(paper_config)
    assert seps["RL"] == pytest.approx(200e-6, rel=1e-12)
    assert seps["LR"] == pytest.approx(700e-6, rel=1e-12)
    assert seps["LL"] == seps["RR"] == paper_config.d


def test_pairwise_separations_zero_split(paper_config):
    cfg = dataclasses.replace(paper_config, dx=0.0)
    assert set(pairwise_separations(cfg).values()) == {cfg.d}


def test_branch_positions_match_separations(paper_config):
    pos = branch_positions(paper_config)
    seps = pairwise_separations(paper_config)
    for b in BRANCHES:
        x1, x2 = pos[b]
        assert abs(x2 - x1) == pytest.approx(seps[b], rel=1e-15)


def test_static_phases_paper_defaults(paper_config):
    ph = static_phases(paper_config)
    assert ph.dPhiRL == pytest.approx(DPHI_RL, rel=1e-12)
    assert ph.dPhiLR == pytest.approx(DPHI_LR, rel=1e-12)
    assert ph.phiRef == pytest.approx(PHI_REF, rel=1e-12)


def test_phase_set_identities(paper_config):
    ph = static_phases(paper_config)
    assert ph.phiLL == ph.phiRR == ph.phiRef
    assert ph.dPhiLR == ph.phiLR - ph.phiRef
    assert ph.dPhiRL == ph.phiRL - ph.phiRef
    assert ph.dPhiLR < 0 < ph.dPhiRL
    assert min(ph.phiLL, ph.phiLR, ph.phiRL, ph.phiRR) > 0


def test_static_phases_zero_split(paper_config):
    ph = static_phases(dataclasses.replace(paper_config, dx=0.0))
    assert ph.dPhiLR == ph.dPhiRL == 0.0


def test_static_phases_linear_in_tau(paper_config):
    ph1 = static_phases(paper_config)
    ph2 = static_phases(dataclasses.replace(paper_config, tau=2 * paper_config.tau))
    assert ph2.dPhiRL == pytest.approx(2 * ph1.dPhiRL, rel=1e-14)
    assert ph2.phiLR == pytest.approx(2 * ph1.phiLR, rel=1e-14)


@given(scale=st.floats(0.25, 4.0))
@settings(max_examples=30, deadline=None)
def test_static_phases_linear_in_each_mass(paper_config, scale):
    base = static_phases(paper_config)
    for name in ("m1", "m2"):
        scaled = static_phases(dataclasses.replace(
            paper_config, **{name: scale * getattr(paper_config, name)}))
        assert scaled.dPhiRL == pytest.approx(scale * base.dPhiRL, rel=1e-12)


def test_small_split_zero(paper_config):
    assert small_split_phase(dataclasses.replace(paper_config, dx=0.0)) == 0.0


def test_small_split_regime_guard(paper_config):
    with pytest.raises(RegimeError, match="dx/d"):
        small_split_phase(paper_config)  # dx/d = 0.56 at the defaults


def test_small_split_matches_exact_sum(paper_config):
    cfg = dataclasses.replace(paper_config, dx=1e-6)
    approx = small_split_phase(cfg)
    ph = static_phases(cfg)
    exact = ph.dPhiRL + ph.dPhiLR
    # relative truncation error is (dx/d)^2
    assert abs(approx - exact) / exact == pytest.approx((cfg.dx / cfg.d) ** 2, rel=1e-3)


@pytest.mark.parametrize("dx", [1e-6, 5e-6, 1e-5, 2.25e-5])
def test_small_split_taylor_consistency(paper_config, dx):
    cfg = dataclasses.replace(paper_config, dx=dx)
    ph = static_phases(cfg)
    exact = ph.dPhiRL + ph.dPhiLR
    assert abs(small_split_phase(cfg) - exact) / exact <= 2 * (dx / cfg.d)


def test_small_split_order_of_magnitude_scenario(paper_config):
    # low-gradient scenario: dBdx 1e4 T/m gives a ~2.3 um kinematic split and
    # a phase sum of order 1e-5 (recorded as an order-of-magnitude figure)
    dx = superposition_size(1e4, paper_config.tauAcc, paper_config.m1)
    value = small_split_phase(dataclasses.replace(paper_config, dx=dx))
    assert 1e-6 < value < 1e-3


def test_superposition_size_value():
    assert superposition_size(1e6, 0.5, 1e-14) == pytest.approx(
        2.3211911760791283e-4, rel=1e-12)


def test_superposition_size_degenerate_and_scaling():
    assert superposition_size(1e6, 0.0, 1e-14) == 0.0
    assert superposition_size(1e6, 0.5, 0.5e-14) == pytest.approx(
        2 * superposition_size(1e6, 0.5, 1e-14), rel=1e-14)


def test_superposition_size_rejects_bad_inputs():
    with pytest.raises(ValueError):
        superposition_size(-1e6, 0.5, 1e-14)
    with pytest.raises(ValueError):
        superposition_size(1e6, 0.5, 0.0)
    with pytest.raises(ValueError):
        superposition_size(math.nan, 0.5, 1e-14)


def test_mutual_acceleration_value(paper_config):
    assert mutual_acceleration(paper_config) == pytest.approx(1.668575e-17, rel=1e-12)


@pytest.mark.parametrize("d, m2, want", [(1e160, 1e290, CONSTANTS.G * 1e-30),
                                        (1.05e293, 1e-14, 0.0)])
def test_mutual_acceleration_where_r_squared_overflows(paper_config, d, m2,
                                                       want):
    # r**2 raises OverflowError: G m2 / r / r instead
    cfg = dataclasses.replace(paper_config, d=d, m2=m2)
    assert mutual_acceleration(cfg) == pytest.approx(want, rel=1e-12, abs=0)


def test_mutual_acceleration_keeps_its_bits(paper_config):
    r = paper_config.d - paper_config.dx
    assert mutual_acceleration(paper_config) == CONSTANTS.G * paper_config.m2 / r**2


def test_mutual_acceleration_inverse_square(paper_config):
    a1 = mutual_acceleration(paper_config)
    widened = dataclasses.replace(
        paper_config, d=paper_config.dx + 4 * (paper_config.d - paper_config.dx))
    assert mutual_acceleration(widened) == pytest.approx(a1 / 16, rel=1e-12)


def test_dynamic_phases_degenerate_stage(paper_config):
    cfg = dataclasses.replace(paper_config, tauAcc=0.0)
    dyn = dynamic_phases(cfg, 100)
    static = static_phases(cfg)
    assert dyn == static


def test_dynamic_phases_requires_two_panels(paper_config):
    with pytest.raises(ValueError, match="nSteps"):
        dynamic_phases(paper_config, 1)


def test_dynamic_phases_convergence(paper_config):
    a = dynamic_phases(paper_config, 10_000)
    b = dynamic_phases(paper_config, 20_000)
    assert abs(a.dPhiRL - b.dPhiRL) < 1e-6
    assert abs(a.dPhiLR - b.dPhiLR) < 1e-6


def test_dynamic_phases_exceed_static(paper_config):
    dyn = dynamic_phases(paper_config, 4000)
    static = static_phases(paper_config)
    assert dyn.dPhiRL >= static.dPhiRL
    assert dyn.dPhiRL + dyn.dPhiLR >= static.dPhiRL + static.dPhiLR
    for name in ("phiLL", "phiLR", "phiRL", "phiRR"):
        assert getattr(dyn, name) >= getattr(static, name)


def test_dynamic_phases_monotone_refinement(paper_config):
    # step-1/3 quadrature error decreases under refinement toward the
    # converged value
    fine = dynamic_phases(paper_config, 40_000).dPhiRL
    errors = [abs(dynamic_phases(paper_config, n).dPhiRL - fine)
              for n in (100, 400, 1600)]
    assert errors[0] > errors[1] > errors[2]


def test_dynamic_phases_identities(paper_config):
    dyn = dynamic_phases(paper_config, 2000)
    assert dyn.phiLL == dyn.phiRR == dyn.phiRef
    assert np.isclose(dyn.dPhiLR, dyn.phiLR - dyn.phiRef, rtol=0, atol=1e-18)


def test_dynamic_phases_odd_panel_count(paper_config):
    # odd counts miss the mid-stage force reversal node but must still converge
    dyn = dynamic_phases(paper_config, 10_001)
    ref = dynamic_phases(paper_config, 20_000)
    assert dyn.dPhiRL == pytest.approx(ref.dPhiRL, abs=1e-6)


def test_dynamic_phases_against_quadrature_oracle(paper_config):
    # independent oracle: adaptive arbitrary-precision quadrature of the same
    # trajectory integrand
    from mpmath import mp, mpf, quad

    mp.dps = 30
    cfg = paper_config
    d, dx, ta = mpf(cfg.d), mpf(cfg.dx), mpf(cfg.tauAcc)
    pref = (mpf("6.67430e-11") * mpf(cfg.m1) * mpf(cfg.m2)
            / mpf("1.054571817e-34"))

    def u(theta):
        return 2 * theta**2 if theta <= 0.5 else 1 - 2 * (1 - theta) ** 2

    def stage(sign):
        return quad(lambda th: ta / (d + sign * dx * u(th)), [0, mpf("0.5"), 1])

    expected_rl = float(pref * (2 * stage(-1) + mpf(cfg.tau) / (d - dx))
                        - pref * (2 * ta + mpf(cfg.tau)) / d)
    dyn = dynamic_phases(cfg, 20_000)
    assert dyn.dPhiRL == pytest.approx(expected_rl, rel=1e-9)
